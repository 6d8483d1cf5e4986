"""Loader fuzz: valid state and panel files, in both encodings, mutated by
truncation, byte flips, CRLF line ends, byte-order marks, header fields,
nesting and extreme numbers.  Each must load or raise ``FileFormatError``
naming the file, and the CLI must answer it with exit 0 or 2, the path in
its message, and no uncaught exception."""

import json
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import qmarginal as qm  # noqa: E402
from qmarginal.cli import main  # noqa: E402
from qmarginal.io import FileFormatError, load_panel, load_state, save_panel, save_state  # noqa: E402

SUFFIXES = (".txt", ".json")


def _valid(kind: str, suffix: str) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"valid{suffix}"
        if kind == "state":
            save_state(path, qm.haar_random_ket(3, 41), label="haar")
        else:
            save_panel(path, qm.panel_of_pure(qm.haar_random_ket(3, 42)))
        return path.read_bytes()


VALID = {(kind, suffix): _valid(kind, suffix) for kind in ("state", "panel") for suffix in SUFFIXES}

JSON_VALUES = [None, True, 0, 1, 2, 3, -1, 62, 63, 10**30, 3.0, "3", "qmarginal-state",
               "qmarginal-panel", [], {}, [[1, 0]]]
HEADER_TOKENS = ["qmarginal-state", "qmarginal-panel", "1", "2", "3", "0", "-1", "62", "63",
                 "3.0", "1e3", "x", "9" * 5000]
NUMBERS = [b"1e308", b"-1e308", b"1.7976931348623157e308", b"1e154", b"1e-320", b"-0.0",
           b"nan", b"inf", b"-inf", b"1_0", b"0x10", b"1e", b"--1", b"10000000000000000000000"]
NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


@st.composite
def truncate(draw, data, suffix):
    return data[: draw(st.integers(0, len(data)))]


@st.composite
def flip_byte(draw, data, suffix):
    if not data:
        return data
    at = draw(st.integers(0, len(data) - 1))
    return data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1 :]


@st.composite
def crlf(draw, data, suffix):
    return data.replace(b"\n", draw(st.sampled_from([b"\r\n", b"\r", b"\n\n"])))


@st.composite
def bom(draw, data, suffix):
    return draw(st.sampled_from([b"\xef\xbb\xbf", b"\xff\xfe", b"\xfe\xff"])) + data


@st.composite
def header(draw, data, suffix):
    if suffix == ".json":
        doc = json.loads(data)
        key = draw(st.sampled_from(["format", "version", "n", "label"]))
        if draw(st.booleans()):
            doc.pop(key, None)
        else:
            doc[key] = draw(st.sampled_from(JSON_VALUES))
        return json.dumps(doc).encode()
    first, _, rest = data.partition(b"\n")
    fields = first.split()
    at = draw(st.integers(0, len(fields)))
    token = draw(st.sampled_from(HEADER_TOKENS)).encode()
    fields[at : at + draw(st.integers(0, 1))] = [token] * draw(st.integers(0, 2))
    return b" ".join(fields) + b"\n" + rest


@st.composite
def nesting(draw, data, suffix):
    if suffix != ".json":
        # lines deleted, repeated or swapped: rows and entries out of place
        lines = data.split(b"\n")
        i, j = draw(st.integers(0, len(lines) - 1)), draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["delete", "repeat", "swap"]))
        if op == "delete":
            del lines[i]
        elif op == "repeat":
            lines.insert(i, lines[j])
        else:
            lines[i], lines[j] = lines[j], lines[i]
        return b"\n".join(lines)
    depth = draw(st.sampled_from([1, 2, 3, 100_000]))
    doc = json.loads(data)
    if depth == 100_000:  # deeper than the decoder recurses
        return b"[" * depth + b"]" * depth
    key = "amplitudes" if "amplitudes" in doc else "entries"
    target = draw(st.sampled_from(["document", "array", "item"]))
    for _ in range(depth):
        if target == "document":
            doc = [doc]
        elif target == "array":
            doc[key] = [doc[key]]
        else:
            doc[key][0] = [doc[key][0]] if key == "amplitudes" else {"matrix": doc[key][0]}
    return json.dumps(doc).encode()


@st.composite
def extreme_number(draw, data, suffix):
    numbers = list(NUMBER.finditer(data))
    if not numbers:
        return data
    match = numbers[draw(st.integers(0, len(numbers) - 1))]
    new = draw(st.sampled_from(NUMBERS))
    if suffix == ".json" and new not in (b"-0.0", b"1e308", b"-1e308", b"1e154", b"1e-320"):
        new = b'"' + new + b'"'
    return data[: match.start()] + new + data[match.end() :]


def _is_object(data: bytes) -> bool:
    try:
        return isinstance(json.loads(data), dict)
    except (ValueError, RecursionError):
        return False


MUTATIONS = [truncate, flip_byte, crlf, bom, header, nesting, extreme_number]


@st.composite
def mutated(draw):
    kind = draw(st.sampled_from(["state", "panel"]))
    suffix = draw(st.sampled_from(SUFFIXES))
    data = VALID[kind, suffix]
    for mutation in draw(st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=3)):
        if mutation in (header, nesting) and suffix == ".json" and not _is_object(data):
            continue  # an earlier mutation already broke the JSON object
        data = draw(mutation(data, suffix))
    return kind, suffix, data


# the loader's renormalization warning is the documented answer to a norm
# off by less than NORM_REJECT_TOL
@pytest.mark.filterwarnings("ignore:.*renormalizing:UserWarning")
@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(mutated())
def test_mutated_file_loads_or_is_a_file_format_error(case):
    kind, suffix, data = case
    command, load = ("analyze", load_state) if kind == "state" else ("reconstruct", load_panel)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"fuzzed{suffix}"
        path.write_bytes(data)
        try:
            load(path)
        except FileFormatError as err:
            assert str(path) in str(err)
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([command, str(path)])
    assert code in (0, 2)
    if code == 2:
        assert str(path) in err.getvalue()


@pytest.mark.parametrize("kind", ["state", "panel"])
@pytest.mark.parametrize("suffix", SUFFIXES)
def test_unmutated_files_load(kind, suffix, tmp_path):
    path = tmp_path / f"valid{suffix}"
    path.write_bytes(VALID[kind, suffix])
    (load_state if kind == "state" else load_panel)(path)


def _overflowing_panel(tmp_path):
    """Entry 1 with diagonal 1e308 and -1e308: its symmetrised diagonal
    overflows to +inf and -inf, so its trace is NaN."""
    path = tmp_path / "valid.txt"
    path.write_bytes(VALID["panel", ".txt"])
    lines = path.read_text().split("\n")
    for row, column, value in ((2, 0, "1e308"), (3, 2, "-1e308")):
        fields = lines[row].split()
        fields[column] = value
        lines[row] = " ".join(fields)
    path.write_text("\n".join(lines))
    return path, "panel", "trace nan"


def _overflowing_state(tmp_path):
    path = tmp_path / "valid.json"
    doc = json.loads(VALID["state", ".json"])
    doc["amplitudes"][0] = [1e308, 1e308]
    path.write_text(json.dumps(doc))
    return path, "state", "state norm is inf"


def _deep_json(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    return path, "state", "nested too deeply"


@pytest.mark.parametrize("make", [_overflowing_panel, _overflowing_state, _deep_json])
def test_found_defects_are_file_format_errors(make, tmp_path):
    path, kind, message = make(tmp_path)
    with pytest.raises(FileFormatError, match=message):
        (load_state if kind == "state" else load_panel)(path)
    err = StringIO()
    with redirect_stdout(StringIO()), redirect_stderr(err):
        assert main(["analyze" if kind == "state" else "reconstruct", str(path)]) == 2
    assert str(path) in err.getvalue()
