r"""State and panel files.

A file holds a header (format name, version, qubit count n), a state's
optional label, and rows of (re, im) pairs: a state's 2**n amplitudes one
per row, a panel's n entries each as 2**(n-1) rows of 2**(n-1) pairs after
a line 'entry <omitted-qubit>'.  The text encoding writes one header line
'<format> <version> <n>', then 'label <text>', then the rows, floats in
shortest-roundtrip form (``repr``) so that a save/load cycle is lossless.
The writer formats each distinct magnitude of an array once and puts '-'
before the text of a value whose sign bit is set.  The bytes are those of
one ``repr`` per float, since repr(-x) is '-' + repr(x) for every finite x,
-0.0 included, and every written value is finite.  That halves the work on
a panel entry, whose mirror entries share their magnitudes.  A text label
is the rest of its line, read back stripped, so one with a line break or
surrounding whitespace is refused; JSON holds any label.  A file
whose extension is ``.json`` holds the same parts as one object: string
``format``, integer ``version`` and ``n``, string ``label``, and
``amplitudes`` (an array of [re, im] pairs) or ``entries`` (objects with an
integer ``omitted`` and a ``matrix``, an array of rows of [re, im] pairs).

Both encodings decode to the same parts: header fields, label, and rows of
text with their line numbers.  A JSON value decodes to its ``repr``, the
form the text writer uses, so only a JSON integer reads as an integer and
only a number as a float; JSON rows have no line numbers.  One set of
checks then runs for both: format and version, the qubit count (at most
MAX_FILE_QUBITS), row count and width, number syntax, finiteness, entry
labels and their count.

Files are written as UTF-8 and read as UTF-8, skipping a leading
byte-order mark.

A panel is written one entry at a time: the text writer emits each entry,
its label line and rows, as one string once it is formatted; the JSON
writer emits the document's head, then each entry's ``json.dumps``, then
its tail, the bytes of one ``json.dumps`` of the whole document.  A text
file is read through one line reader, which holds one chunk of the file
(_CHUNK_BYTES) and, for a panel, one entry's rows.  It keeps the line rule
of ``str.splitlines`` on the whole text: '\n', '\r', '\r\n', '\v', '\f',
'\x1c' to '\x1e', '\x85', U+2028 and U+2029 each end a line, so a row with
a form feed in it is two rows.  A decode error anywhere in a file outranks
any format error, as when the whole text was decoded before the first
check: after a format error the reader decodes the rest of the file before
the error is raised.  JSON files are read whole, since ``json.loads`` has
no streaming form.
"""

from __future__ import annotations

import codecs
import itertools
import json
import warnings
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .panels import RdmPanel
from .tensors import DensityMatrix, Ket, _rank_two_factor
from .tolerances import HERM_TOL, LOAD_HERM_TOL, LOAD_WARN_TOL, MAX_FILE_QUBITS, NORM_REJECT_TOL

STATE_FORMAT = "qmarginal-state"
PANEL_FORMAT = "qmarginal-panel"
FORMAT_VERSION = 1

_CHUNK_BYTES = 1 << 16  # the text reader's read size


class FileFormatError(ValueError):
    """Malformed state or panel file; carries a 1-based line number."""

    def __init__(self, path, line: int | None, message: str):
        self.path = str(path)
        self.line = line
        where = f"{self.path}:{line}" if line is not None else self.path
        super().__init__(f"{where}: {message}")


@dataclass(frozen=True)
class StateFile:
    n: int
    ket: Ket
    label: str | None = None


def _pairs(values: np.ndarray) -> np.ndarray:
    """A 2-D complex array as floats, each entry's (re, im) side by side."""
    return np.ascontiguousarray(values, dtype=complex).view(np.float64)


def _text_rows(values: np.ndarray) -> list[str]:
    """One line per row of a 2-D complex array, its (re, im) pairs written
    as Python floats: repr gives the shortest text that reads back to the
    same bits, signed zeros and exponent form included.  Each distinct
    magnitude is formatted once (see the module docstring)."""
    pairs = _pairs(values)
    mags, inverse = np.unique(np.abs(pairs).ravel(), return_inverse=True)
    texts = list(map(repr, mags.tolist()))
    table = np.array(texts + ["-" + t for t in texts], dtype=object)
    signed = inverse.reshape(pairs.shape) + len(texts) * np.signbit(pairs)
    return [" ".join(row) for row in table[signed].tolist()]


def save_state(path, psi: Ket, label: str | None = None) -> None:
    """Write psi, with an optional label, in the encoding of the path's
    suffix.  Raises ``ValueError``, before writing anything, for a text
    label with a line break (any that ``str.splitlines`` breaks on) or
    leading or trailing whitespace."""
    path = Path(path)
    if path.suffix == ".json":
        doc = {
            "format": STATE_FORMAT,
            "version": FORMAT_VERSION,
            "n": psi.n,
            "amplitudes": _pairs(psi.amplitudes[:, None]).tolist(),
        }
        if label is not None:
            doc["label"] = label
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        return
    if label is not None and ("".join(label.splitlines()) != label or label.strip() != label):
        raise ValueError(f"a text state file cannot hold the label {label!r}: "
                         "no line breaks or surrounding whitespace; use .json")
    lines = [f"{STATE_FORMAT} {FORMAT_VERSION} {psi.n}"]
    if label is not None:
        lines.append(f"label {label}")
    lines.extend(_text_rows(psi.amplitudes[:, None]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def save_panel(path, panel: RdmPanel) -> None:
    """Write a panel in the encoding of the path's suffix, one entry at a
    time: the file never exists whole in memory."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as f:
        if path.suffix == ".json":
            # the bytes of json.dumps(doc) + "\n", 'entries' being doc's last key
            dim = 2 ** (panel.n - 1)
            head = json.dumps({"format": PANEL_FORMAT, "version": FORMAT_VERSION, "n": panel.n})
            f.write(head[:-1] + ', "entries": [')
            for j in range(1, panel.n + 1):
                matrix = _pairs(panel.entry(j).entries).reshape(dim, dim, 2).tolist()
                f.write(", " * (j > 1) + json.dumps({"omitted": j, "matrix": matrix}))
            f.write("]}\n")
            return
        f.write(f"{PANEL_FORMAT} {FORMAT_VERSION} {panel.n}\n")
        for j in range(1, panel.n + 1):
            # one write per entry: a write per row is slower
            f.write(f"entry {j}\n" + "\n".join(_text_rows(panel.entry(j).entries)) + "\n")


def _line(first: int | None, offset: int) -> int | None:
    """The line of the row ``offset`` rows after one on line ``first``."""
    return None if first is None else first + offset


def _text_lines(path: Path) -> Iterator[str]:
    r"""The lines that ``str.splitlines`` gives on a file's UTF-8 text, read
    _CHUNK_BYTES at a time, a leading byte-order mark skipped as the
    utf-8-sig codec skips it.  Each chunk is cut after its last complete
    line end, a '\n' or a '\r' that no '\n' follows, and the bytes up to the
    cut are decoded and split alone: no line end is part of a longer one
    there, and no byte below 0x80 is part of a multi-byte character, so the
    lines, and the reason and offset of the first decode error, are those of
    the whole text."""
    mark = codecs.BOM_UTF8
    try:
        with path.open("rb") as f:
            head = f.read(len(mark))
            # a whole file that is only the start of a mark reads as empty
            start = len(head) if mark.startswith(head) else 0
            held = [head[start:]]  # the bytes after the last cut
            while True:
                chunk = f.read(_CHUNK_BYTES)
                cut = max(chunk.rfind(b"\n"), chunk.rfind(b"\r", 0, len(chunk) - 1)) + 1
                if chunk and not cut:
                    held.append(chunk)
                    continue
                data = b"".join([*held, chunk[:cut]])
                held = [chunk[cut:]]
                try:
                    text = data.decode("utf-8")
                except UnicodeDecodeError as err:
                    message = f"not utf-8 text: {err.reason} at byte {start + err.start}"
                    raise FileFormatError(path, None, message) from err
                yield from text.splitlines()
                if not chunk:
                    return
                start += len(data)
    except OSError as err:  # a directory, or no permission to read
        raise FileFormatError(path, None, f"cannot read: {err.strerror}") from err


def _open(path: Path) -> dict | Iterator[str]:
    """A file's JSON object if its suffix is .json, else its text lines,
    read as they are consumed."""
    if not path.exists():
        raise FileFormatError(path, None, "file not found")
    if path.suffix != ".json":
        return _text_lines(path)
    try:
        text = path.read_text(encoding="utf-8-sig")  # a leading byte-order mark is skipped
    except OSError as err:  # a directory, or no permission to read
        raise FileFormatError(path, None, f"cannot read: {err.strerror}") from err
    except UnicodeDecodeError as err:
        # the decoder counts from after a byte-order mark, the message from the file's start
        skipped = len(codecs.BOM_UTF8) if path.read_bytes().startswith(codecs.BOM_UTF8) else 0
        raise FileFormatError(path, None, f"not utf-8 text: {err.reason} at byte {skipped + err.start}") from err
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise FileFormatError(path, err.lineno, f"invalid JSON: {err.msg}") from err
    except ValueError as err:  # an integer beyond Python's digit limit
        raise FileFormatError(path, None, f"invalid JSON: {err}") from err
    except RecursionError as err:  # arrays or objects nested beyond the decoder's depth
        raise FileFormatError(path, None, "invalid JSON: nested too deeply") from err
    if not isinstance(doc, dict):
        raise FileFormatError(path, None, "expected a JSON object")
    return doc


def _header(path, body: dict | str | None) -> list:
    """The header fields [format, version, n] of a JSON object, version and
    n decoded to their repr, or of a text file's first line (None: none)."""
    if isinstance(body, dict):
        return [body.get("format"), repr(body.get("version")), repr(body.get("n"))]
    if body is None:
        raise FileFormatError(path, 1, "empty file")
    return body.split()


def _qubit_count(path, line: int | None, fields: list, fmt: str, least: int) -> int:
    """The n of header fields [format, version, n], checked for format,
    version, and least <= n <= MAX_FILE_QUBITS."""
    if len(fields) != 3 or fields[0] != fmt:
        raise FileFormatError(path, line, f"expected header '{fmt} <version> <n>'")
    try:
        version, n = int(fields[1]), int(fields[2])
    except ValueError as err:
        raise FileFormatError(path, line, "version and qubit count must be integers") from err
    if version != FORMAT_VERSION:
        raise FileFormatError(path, line, f"unsupported version {version}")
    if not least <= n <= MAX_FILE_QUBITS:
        raise FileFormatError(path, line, f"invalid qubit count {n}")
    return n


def _json_rows(value, path, key: str, column: bool = False) -> list[str]:
    """The text rows of a JSON array of rows of [re, im] pairs (``column``:
    of bare pairs, one per row), each value written as its repr."""
    rows = [[pair] for pair in value] if column and isinstance(value, list) else value
    if not isinstance(rows, list) or not all(
        isinstance(row, list) and row and all(isinstance(p, list) and len(p) == 2 for p in row)
        for row in rows
    ):
        shape = "an array of [re, im] pairs" if column else "an array of rows of [re, im] pairs"
        raise FileFormatError(path, None, f"expected {key!r} as {shape}")
    return [" ".join(repr(x) for pair in row for x in pair) for row in rows]


def _rows(rows: list[str], first: int | None, count: int, width: int, path,
          prefix: str, noun: str, of: str = "") -> np.ndarray:
    """The count x width complex array held in rows[:count], each row width
    (re, im) pairs of floats, every one finite; row r is on line first + r.

    numpy's text reader parses a well-formed block in one call.  Anything it
    does not read as count rows of 2 * width floats goes through the
    row-by-row parse, which accepts what ``float`` accepts and names the
    first bad line; it holds only the rows the file has, whatever count its
    header claims.  Messages start with ``prefix`` and call a row a
    '``noun`` row'; ``of`` follows the number of a missing row.
    """
    block = rows[:count]
    # the first-row check keeps a block of blank lines (numpy warns on
    # empty input) away from the text reader
    values = None
    if len(block) == count and len(block[0].split()) == 2 * width:
        try:
            values = np.loadtxt(block, dtype=np.float64, comments=None, ndmin=2)
        except ValueError:
            pass  # the row-by-row parse names the bad line
    if values is None or values.shape != (count, 2 * width):
        parsed = []
        for r in range(count):
            line = _line(first, r)
            if r >= len(block):
                raise FileFormatError(path, line, f"{prefix}missing {noun} row {r + 1}{of}")
            parts = block[r].split()
            if len(parts) != 2 * width:
                raise FileFormatError(path, line, f"{prefix}expected {2 * width} floats, got {len(parts)}")
            try:
                parsed.append([float(p) for p in parts])
            except ValueError as err:
                raise FileFormatError(path, line, f"invalid float in {noun} row") from err
        values = np.array(parsed, dtype=np.float64)
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        r = int(np.argmin(finite))
        raise FileFormatError(path, _line(first, r), f"{prefix}{noun} row {r + 1} is not finite")
    return values.view(complex)


def _no_trailing(rows: list[str], count: int, first: int | None, path) -> None:
    if any(row.strip() for row in rows[count:]):
        raise FileFormatError(path, _line(first, count), "unexpected trailing content")


def load_state(path) -> StateFile:
    path = Path(path)
    body = _open(path)
    if isinstance(body, dict):
        n = _qubit_count(path, None, _header(path, body), STATE_FORMAT, 1)
        label, first = body.get("label"), None
        rows = _json_rows(body.get("amplitudes"), path, "amplitudes", column=True)
    else:
        lines = list(body)  # read whole, so that a decode error outranks any format error
        n = _qubit_count(path, 1, _header(path, lines[0] if lines else None), STATE_FORMAT, 1)
        has_label = len(lines) > 1 and lines[1].startswith("label ")
        label = lines[1][len("label "):].strip() if has_label else None
        first = 2 + has_label
        rows = lines[first - 1:]
    if label is not None and not isinstance(label, str):
        raise FileFormatError(path, None, "label must be a string")
    count = 2**n
    amps = _rows(rows, first, count, 1, path, "", "amplitude", f" of {count}")[:, 0]
    _no_trailing(rows, count, first, path)
    with np.errstate(over="ignore"):  # amplitudes past 1e154: an inf norm, rejected below
        norm = float(np.linalg.norm(amps))
    if abs(norm - 1.0) > NORM_REJECT_TOL:
        raise FileFormatError(path, None, f"state norm is {norm!r}, expected 1")
    if abs(norm - 1.0) > LOAD_WARN_TOL:
        warnings.warn(f"{path}: state norm deviates by {abs(norm - 1.0):.2e}; renormalizing")
    return StateFile(n, Ket(n, amps / norm), label)


def _entry_from_raw(raw: np.ndarray, n: int, omitted: int, path, line: int | None) -> DensityMatrix:
    # values near the float limit overflow to an inf defect or sum, or a
    # NaN trace (inf - inf), each rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        defect = np.max(np.abs(raw - raw.conj().T))
        sym = 0.5 * (raw + raw.conj().T)
        trace = float(np.trace(sym).real)
    if defect > LOAD_HERM_TOL:
        raise FileFormatError(path, line, f"entry {omitted} is not Hermitian within {LOAD_HERM_TOL}")
    if not abs(trace - 1.0) <= NORM_REJECT_TOL:
        raise FileFormatError(path, line, f"entry {omitted} has trace {trace!r}")
    sym = sym / trace
    # |rho_ij| <= |rho|_2, which is at most 1 + (d - 1) LOAD_HERM_TOL for a
    # unit-trace matrix with no eigenvalue below -LOAD_HERM_TOL: a larger
    # entry fails the spectrum check below, and would overflow its products
    if np.max(np.abs(sym)) > 1.0 + len(sym) * LOAD_HERM_TOL:
        raise FileFormatError(path, line, f"entry {omitted} is not positive semidefinite")
    labels = tuple(q for q in range(1, n + 1) if q != omitted)
    # the entry of a pure state's panel has rank <= 2: its top two
    # eigenpairs leave a remainder at rounding level, no eigenvalue lies
    # below -remainder, and the entry passes with no full eigensolve
    certified = _rank_two_factor(sym)
    if certified is not None:
        return DensityMatrix._trusted(labels, sym, certified=certified)
    lowest = np.linalg.eigvalsh(sym)[0]
    if lowest < -LOAD_HERM_TOL:
        raise FileFormatError(path, line, f"entry {omitted} is not positive semidefinite")
    if lowest < -HERM_TOL:
        # clip only what breaks the DensityMatrix invariant; the factor
        # describes the matrix before the clip, so it is not kept
        evals, evecs = np.linalg.eigh(sym)
        clipped = np.clip(evals, 0.0, None)
        sym = (evecs * clipped) @ evecs.conj().T
        return DensityMatrix._trusted(labels, sym / float(np.trace(sym).real))
    # the eigvalsh above is the entry's spectrum check: checked at the
    # loader's tolerances, Hermitian and of unit trace
    return DensityMatrix._trusted(labels, sym)


def _text_entries(lines: Iterator[str], n: int, path):
    """(label text, its line, rows, first row's line) of each entry of a
    text panel, read from the lines after its header as they are consumed.
    Past the last entry, only blank lines may follow."""
    dim = 2 ** (n - 1)
    line = 2
    for k in range(n):
        head = next(lines, None)
        if head is None:
            raise FileFormatError(path, line, f"expected {n} entries, found {k}")
        fields = head.split()
        if len(fields) != 2 or fields[0] != "entry":
            raise FileFormatError(path, line, "expected 'entry <omitted-qubit>'")
        yield fields[1], line, list(itertools.islice(lines, dim)), line + 1
        line += 1 + dim
    if any(text.strip() for text in lines):
        raise FileFormatError(path, line, "unexpected trailing content")


def load_panel(path) -> RdmPanel:
    path = Path(path)
    body = _open(path)
    try:
        return _read_panel(path, body)
    except FileFormatError:
        if not isinstance(body, dict):
            # a decode error anywhere outranks a format error, as when the
            # whole text was decoded first: decode the rest, then re-raise
            for _ in body:
                pass
        raise


def _read_panel(path: Path, body: dict | Iterator[str]) -> RdmPanel:
    if isinstance(body, dict):
        n = _qubit_count(path, None, _header(path, body), PANEL_FORMAT, 2)
        items = body.get("entries")
        if not isinstance(items, list) or not all(isinstance(item, dict) for item in items):
            raise FileFormatError(path, None, "expected 'entries' as an array of objects")
        # the same parts as _text_entries gives, with no line numbers
        blocks = (
            (repr(item.get("omitted")), None, _json_rows(item.get("matrix"), path, "matrix"), None)
            for item in items
        )
    else:
        n = _qubit_count(path, 1, _header(path, next(body, None)), PANEL_FORMAT, 2)
        blocks = _text_entries(body, n, path)
    dim = 2 ** (n - 1)
    entries: dict[int, DensityMatrix] = {}
    for label, line, rows, first in blocks:
        try:
            omitted = int(label)
        except ValueError as err:
            message = f"entry label must be an integer, got {label!r}"
            raise FileFormatError(path, line, message) from err
        if not 1 <= omitted <= n or omitted in entries:
            raise FileFormatError(path, line, f"bad or repeated entry label {omitted}")
        raw = _rows(rows, first, dim, dim, path, f"entry {omitted}: ", "matrix")
        entries[omitted] = _entry_from_raw(raw, n, omitted, path, line)
        _no_trailing(rows, dim, first, path)
    if len(entries) != n:
        raise FileFormatError(path, None, "panel must contain one entry per qubit")
    return RdmPanel(n, tuple(entries[j] for j in range(1, n + 1)))
