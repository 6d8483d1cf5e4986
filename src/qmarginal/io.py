"""State and panel files.

Both formats are line-oriented plain text with a one-line header carrying
the format name, version, and qubit count, followed by numeric rows of
(re, im) pairs; floats are written with shortest-roundtrip precision so a
save/load cycle is lossless.  Files whose extension is ``.json`` use a
structured alternative with the same schema.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .panels import RdmPanel
from .tensors import DensityMatrix, Ket, _rank_two_factor
from .tolerances import HERM_TOL, LOAD_HERM_TOL, LOAD_WARN_TOL, NORM_REJECT_TOL

STATE_FORMAT = "qmarginal-state"
PANEL_FORMAT = "qmarginal-panel"
FORMAT_VERSION = 1


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


def _text_rows(values: np.ndarray) -> list[str]:
    """One line per row of a 2-D complex array, its (re, im) pairs written
    as Python floats: repr gives the shortest text that reads back to the
    same bits, signed zeros and exponent form included."""
    pairs = np.ascontiguousarray(values, dtype=complex).view(np.float64)
    return [" ".join(map(repr, row)) for row in pairs.tolist()]


def save_state(path, psi: Ket, label: str | None = None) -> None:
    path = Path(path)
    if path.suffix == ".json":
        doc = {
            "format": STATE_FORMAT,
            "version": FORMAT_VERSION,
            "n": psi.n,
            "amplitudes": [[c.real, c.imag] for c in psi.amplitudes],
        }
        if label is not None:
            doc["label"] = label
        path.write_text(json.dumps(doc, indent=1) + "\n")
        return
    lines = [f"{STATE_FORMAT} {FORMAT_VERSION} {psi.n}"]
    if label is not None:
        lines.append(f"label {label}")
    lines.extend(_text_rows(psi.amplitudes[:, None]))
    path.write_text("\n".join(lines) + "\n")


def _require_finite(values: np.ndarray, path, first_line: int | None, what: str) -> None:
    """Reject the first row of ``values`` that holds a NaN or an infinity;
    row r was read from line first_line + r (None: no line numbers)."""
    finite = np.isfinite(values).reshape(len(values), -1).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        line = None if first_line is None else first_line + row
        raise FileFormatError(path, line, f"{what} row {row + 1} is not finite")


def _normalized_ket(n: int, amps: np.ndarray, path) -> Ket:
    norm = float(np.linalg.norm(amps))
    if abs(norm - 1.0) > NORM_REJECT_TOL:
        raise FileFormatError(path, None, f"state norm is {norm!r}, expected 1")
    if abs(norm - 1.0) > LOAD_WARN_TOL:
        warnings.warn(
            f"{path}: state norm deviates by {abs(norm - 1.0):.2e}; renormalizing"
        )
    return Ket(n, amps / norm)


def _text(path: Path) -> str:
    if not path.exists():
        raise FileFormatError(path, None, "file not found")
    return path.read_text()


def _document(path: Path):
    """The parsed content of a .json state or panel file."""
    try:
        return json.loads(_text(path))
    except json.JSONDecodeError as err:
        raise FileFormatError(path, err.lineno, f"invalid JSON: {err.msg}") from err


def _header(path: Path, fmt: str, least: int) -> tuple[list[str], int]:
    """The lines of a text state or panel file and the qubit count of its
    header '<fmt> <version> <n>', checked for version and least n."""
    lines = _text(path).splitlines()
    if not lines:
        raise FileFormatError(path, 1, "empty file")
    header = lines[0].split()
    if len(header) != 3 or header[0] != fmt:
        raise FileFormatError(path, 1, f"expected header '{fmt} <version> <n>'")
    try:
        version, n = int(header[1]), int(header[2])
    except ValueError as err:
        raise FileFormatError(path, 1, "version and qubit count must be integers") from err
    if version != FORMAT_VERSION:
        raise FileFormatError(path, 1, f"unsupported version {version}")
    if n < least:
        raise FileFormatError(path, 1, f"invalid qubit count {n}")
    return lines, n


def _document_n(doc, path: Path, fmt: str, least: int) -> int:
    """``_header``'s checks on a JSON document, whose caller names a missing
    key or a malformed value."""
    if doc["format"] != fmt:
        raise FileFormatError(path, None, f"format is {doc['format']!r}")
    if int(doc["version"]) != FORMAT_VERSION:
        raise FileFormatError(path, None, f"unsupported version {doc['version']}")
    n = int(doc["n"])
    if n < least:
        raise FileFormatError(path, None, f"invalid qubit count {n}")
    return n


def load_state(path) -> StateFile:
    path = Path(path)
    if path.suffix == ".json":
        return _state_from_json(_document(path), path)
    lines, n = _header(path, STATE_FORMAT, 1)
    row = 1
    label = None
    if row < len(lines) and lines[row].startswith("label "):
        label = lines[row][len("label "):].strip()
        row += 1
    amps = _rows(lines, row, 2**n, 1, path, "", "amplitude", f" of {2**n}")[:, 0]
    extra = row + 2**n
    if any(line.strip() for line in lines[extra:]):
        raise FileFormatError(path, extra + 1, "unexpected trailing content")
    return StateFile(n, _normalized_ket(n, amps, path), label)


def _state_from_json(doc, path) -> StateFile:
    try:
        n = _document_n(doc, path, STATE_FORMAT, 1)
        pairs = doc["amplitudes"]
        amps = np.array([complex(re, im) for re, im in pairs])
    except FileFormatError:
        raise
    except (KeyError, TypeError, ValueError) as err:
        raise FileFormatError(path, None, f"invalid state document: {err}") from err
    if amps.size != 2**n:
        raise FileFormatError(path, None, f"expected {2**n} amplitudes, got {amps.size}")
    _require_finite(amps, path, None, "amplitude")
    return StateFile(n, _normalized_ket(n, amps, path), doc.get("label"))


def save_panel(path, panel: RdmPanel) -> None:
    path = Path(path)
    if path.suffix == ".json":
        doc = {
            "format": PANEL_FORMAT,
            "version": FORMAT_VERSION,
            "n": panel.n,
            "entries": [
                {
                    "omitted": j,
                    "matrix": [
                        [[c.real, c.imag] for c in rw]
                        for rw in panel.entry(j).entries
                    ],
                }
                for j in range(1, panel.n + 1)
            ],
        }
        path.write_text(json.dumps(doc) + "\n")
        return
    lines = [f"{PANEL_FORMAT} {FORMAT_VERSION} {panel.n}"]
    for j in range(1, panel.n + 1):
        lines.append(f"entry {j}")
        lines.extend(_text_rows(panel.entry(j).entries))
    path.write_text("\n".join(lines) + "\n")


def _entry_from_raw(raw: np.ndarray, n: int, omitted: int, path, line: int | None) -> DensityMatrix:
    if np.max(np.abs(raw - raw.conj().T)) > LOAD_HERM_TOL:
        raise FileFormatError(path, line, f"entry {omitted} is not Hermitian within {LOAD_HERM_TOL}")
    sym = 0.5 * (raw + raw.conj().T)
    trace = float(np.trace(sym).real)
    if abs(trace - 1.0) > NORM_REJECT_TOL:
        raise FileFormatError(path, line, f"entry {omitted} has trace {trace!r}")
    sym = sym / trace
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


def _rows(lines: list[str], start: int, count: int, width: int, path,
          prefix: str, noun: str, of: str = "") -> np.ndarray:
    """The count x width complex array held in lines[start:start + count],
    each line width (re, im) pairs of floats, every one finite.

    numpy's text reader parses a well-formed block in one call.  Anything it
    does not read as count rows of 2 * width floats goes through the
    row-by-row parse, which accepts what ``float`` accepts and names the
    first bad line; it holds only the rows the file has, whatever count its
    header claims.  Messages start with ``prefix`` and call a row a
    '``noun`` row'; ``of`` follows the number of a missing row.
    """
    block = lines[start:start + count]
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
            lineno = start + r + 1
            if r >= len(block):
                raise FileFormatError(path, lineno, f"{prefix}missing {noun} row {r + 1}{of}")
            parts = block[r].split()
            if len(parts) != 2 * width:
                raise FileFormatError(
                    path, lineno, f"{prefix}expected {2 * width} floats, got {len(parts)}"
                )
            try:
                parsed.append([float(p) for p in parts])
            except ValueError as err:
                raise FileFormatError(path, lineno, f"invalid float in {noun} row") from err
        values = np.array(parsed, dtype=np.float64)
    _require_finite(values, path, start + 1, f"{prefix}{noun}")
    return values.view(complex)


def load_panel(path) -> RdmPanel:
    path = Path(path)
    if path.suffix == ".json":
        return _panel_from_json(_document(path), path)
    lines, n = _header(path, PANEL_FORMAT, 2)
    dim = 2 ** (n - 1)
    entries: dict[int, DensityMatrix] = {}
    row = 1
    for _ in range(n):
        if row >= len(lines):
            raise FileFormatError(path, row + 1, f"expected {n} entries, found {len(entries)}")
        head = lines[row].split()
        if len(head) != 2 or head[0] != "entry":
            raise FileFormatError(path, row + 1, "expected 'entry <omitted-qubit>'")
        try:
            omitted = int(head[1])
        except ValueError as err:
            message = f"entry label must be an integer, got {head[1]!r}"
            raise FileFormatError(path, row + 1, message) from err
        if not 1 <= omitted <= n or omitted in entries:
            raise FileFormatError(path, row + 1, f"bad or repeated entry label {omitted}")
        start = row + 1
        raw = _rows(lines, start, dim, dim, path, f"entry {omitted}: ", "matrix")
        entries[omitted] = _entry_from_raw(raw, n, omitted, path, row + 1)
        row = start + dim
    if any(line.strip() for line in lines[row:]):
        raise FileFormatError(path, row + 1, "unexpected trailing content")
    return RdmPanel(n, tuple(entries[j] for j in range(1, n + 1)))


def _panel_from_json(doc, path) -> RdmPanel:
    try:
        n = _document_n(doc, path, PANEL_FORMAT, 2)
        entries: dict[int, DensityMatrix] = {}
        for item in doc["entries"]:
            omitted = int(item["omitted"])
            if not 1 <= omitted <= n or omitted in entries:
                raise FileFormatError(path, None, f"bad or repeated entry label {omitted}")
            raw = np.array(
                [[complex(re, im) for re, im in rw] for rw in item["matrix"]]
            )
            if raw.shape != (2 ** (n - 1), 2 ** (n - 1)):
                raise FileFormatError(path, None, f"entry {omitted} has shape {raw.shape}")
            _require_finite(raw, path, None, f"entry {omitted}: matrix")
            entries[omitted] = _entry_from_raw(raw, n, omitted, path, None)
    except FileFormatError:
        raise
    except (KeyError, TypeError, ValueError) as err:
        raise FileFormatError(path, None, f"invalid panel document: {err}") from err
    if sorted(entries) != list(range(1, n + 1)):
        raise FileFormatError(path, None, "panel must contain one entry per qubit")
    return RdmPanel(n, tuple(entries[j] for j in range(1, n + 1)))
