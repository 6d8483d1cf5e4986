"""File formats and the command-line interface."""

import codecs
import errno
import json
import os
import re
import tracemalloc

import numpy as np
import pytest

import qmarginal as qm
import qmarginal.io as qio
from conftest import random_ghz_orbit, random_hybrid, reference_rows, run_fresh
from qmarginal.cli import main
from qmarginal.io import (
    FileFormatError,
    load_panel,
    load_state,
    save_panel,
    save_state,
)


class TestStateFiles:
    def test_round_trip_is_lossless(self, tmp_path):
        psi = qm.haar_random_ket(4, 27)
        path = tmp_path / "state.txt"
        save_state(path, psi, label="sample")
        loaded = load_state(path)
        assert loaded.n == 4
        assert loaded.label == "sample"
        np.testing.assert_allclose(loaded.ket.amplitudes, psi.amplitudes, atol=1e-15, rtol=0)

    def test_json_round_trip(self, tmp_path):
        psi = qm.haar_random_ket(3, 28)
        path = tmp_path / "state.json"
        save_state(path, psi)
        loaded = load_state(path)
        np.testing.assert_allclose(loaded.ket.amplitudes, psi.amplitudes, atol=1e-15, rtol=0)

    def test_slightly_denormalized_warns_and_renormalizes(self, tmp_path):
        path = tmp_path / "state.txt"
        amps = qm.ghz_state(2).amplitudes * (1.0 + 5e-8)
        lines = ["qmarginal-state 1 2"] + [
            f"{float(c.real)!r} {float(c.imag)!r}" for c in amps
        ]
        path.write_text("\n".join(lines) + "\n")
        with pytest.warns(UserWarning, match="renormalizing"):
            loaded = load_state(path)
        assert abs(np.linalg.norm(loaded.ket.amplitudes) - 1.0) < 1e-12

    def test_grossly_denormalized_rejected(self, tmp_path):
        path = tmp_path / "state.txt"
        path.write_text("qmarginal-state 1 1\n2.0 0.0\n0.0 0.0\n")
        with pytest.raises(FileFormatError):
            load_state(path)

    def test_truncated_file_reports_line(self, tmp_path):
        path = tmp_path / "state.txt"
        path.write_text("qmarginal-state 1 2\n1.0 0.0\n")
        with pytest.raises(FileFormatError, match="state.txt:3"):
            load_state(path)

    def test_text_bytes_are_pinned(self, tmp_path):
        # shortest-roundtrip floats, signed zeros kept, exponent form as
        # repr; the norm is within 1e-12 of 1, so Ket keeps the amplitudes
        psi = qm.Ket(2, np.array([0.6, complex(-0.0, 2.5e-17), complex(0.0, -0.0), 0.8 - 1e-07j]))
        path = tmp_path / "state.txt"
        save_state(path, psi, label="pinned")
        assert path.read_bytes() == (
            b"qmarginal-state 1 2\n"
            b"label pinned\n"
            b"0.6 0.0\n"
            b"-0.0 2.5e-17\n"
            b"0.0 -0.0\n"
            b"0.8 -1e-07\n"
        )

    @pytest.mark.parametrize("label", ["a\nb", "a\rb", "a\u2028b", "  pad  ", " pad", "pad\t"])
    def test_text_refuses_a_label_it_cannot_read_back(self, tmp_path, label):
        # the text label is the rest of its line, read back stripped
        path = tmp_path / "state.txt"
        with pytest.raises(ValueError, match="cannot hold the label"):
            save_state(path, qm.haar_random_ket(2, 31), label=label)
        assert not path.exists()

    @pytest.mark.parametrize("label", ["a\nb", "a\rb", "a\u2028b", "  pad  ", " pad", "pad\t", ""])
    def test_json_round_trips_any_label(self, tmp_path, label):
        path = tmp_path / "state.json"
        save_state(path, qm.haar_random_ket(2, 31), label=label)
        assert load_state(path).label == label

    @pytest.mark.parametrize("label", ["", "reconstructed (ghz-family)", "inner  spaces\tkept"])
    def test_text_round_trips_a_one_line_label(self, tmp_path, label):
        path = tmp_path / "state.txt"
        save_state(path, qm.haar_random_ket(2, 31), label=label)
        assert load_state(path).label == label

    @pytest.mark.parametrize("suffix", [".txt", ".json"])
    def test_non_ascii_label_round_trips_as_utf_8(self, tmp_path, suffix):
        label = "\u03c8 \u00e9tat \u2192 \U0001d4d7"
        path = tmp_path / f"state{suffix}"
        save_state(path, qm.haar_random_ket(2, 31), label=label)
        assert load_state(path).label == label
        if suffix == ".txt":
            assert f"label {label}\n".encode("utf-8") in path.read_bytes()

    def test_bytes_do_not_depend_on_the_locale(self, tmp_path):
        # under an ASCII locale the default text encoding cannot write a
        # non-ASCII label at all
        label = "\u03c8 \u00e9tat"
        save_state(tmp_path / "here.txt", qm.haar_random_ket(2, 31), label=label)
        code = (
            "import sys, qmarginal as qm\n"
            "from qmarginal.io import load_state, save_state\n"
            "path, label = sys.argv[1], sys.argv[2].encode('ascii').decode('unicode-escape')\n"
            "save_state(path, qm.haar_random_ket(2, 31), label=label)\n"
            "assert load_state(path).label == label\n"
        )
        there = tmp_path / "there.txt"
        escaped = label.encode("unicode-escape").decode("ascii")
        run_fresh(code, str(there), escaped, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
        assert there.read_bytes() == (tmp_path / "here.txt").read_bytes()

    @pytest.mark.parametrize(
        "bad_row, message",
        [("1.0", "expected 2 floats, got 1"), ("1.0 x", "invalid float in amplitude row")],
    )
    def test_bad_row_names_its_line(self, tmp_path, bad_row, message):
        path = tmp_path / "state.txt"
        path.write_text(f"qmarginal-state 1 1\n1.0 0.0\n{bad_row}\n")
        with pytest.raises(FileFormatError, match=f"state.txt:3: {message}"):
            load_state(path)

    def test_header_claiming_too_many_qubits_names_the_missing_row(self, tmp_path):
        # 2**50 amplitudes claimed, one held: nothing is allocated for the rest
        path = tmp_path / "state.txt"
        path.write_text("qmarginal-state 1 50\n1.0 0.0\n")
        with pytest.raises(FileFormatError, match=f"state.txt:3: missing amplitude row 2 of {2**50}"):
            load_state(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "state.txt"
        path.write_text("who-knows 9\n")
        with pytest.raises(FileFormatError, match="header"):
            load_state(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_amplitude_names_its_line(self, tmp_path, value):
        path = tmp_path / "state.txt"
        path.write_text(f"qmarginal-state 1 2\nlabel x\n1.0 0.0\n0.0 {value}\n0.0 0.0\n0.0 0.0\n")
        with pytest.raises(FileFormatError, match="state.txt:4: amplitude row 2 is not finite"):
            load_state(path)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_json_non_finite_amplitude_rejected(self, tmp_path, value):
        path = tmp_path / "state.json"
        doc = {"format": "qmarginal-state", "version": 1, "n": 1,
               "amplitudes": [[1.0, 0.0], [value, 0.0]]}
        path.write_text(json.dumps(doc) + "\n")
        with pytest.raises(FileFormatError, match="state.json: amplitude row 2 is not finite"):
            load_state(path)

    def test_json_zero_qubits_rejected(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(
            '{"format": "qmarginal-state", "version": 1, "n": 0, "amplitudes": [[1.0, 0.0]]}\n'
        )
        with pytest.raises(FileFormatError, match="invalid qubit count 0"):
            load_state(path)


class TestPanelFiles:
    def test_round_trip_is_lossless(self, tmp_path):
        panel = qm.panel_of_pure(qm.haar_random_ket(3, 29))
        path = tmp_path / "panel.txt"
        save_panel(path, panel)
        loaded = load_panel(path)
        for j in range(1, 4):
            np.testing.assert_allclose(
                loaded.entry(j).entries, panel.entry(j).entries, atol=1e-15, rtol=0
            )

    def test_json_round_trip(self, tmp_path):
        panel = qm.panel_of_pure(qm.ghz_state(3, 0.6, 0.8))
        path = tmp_path / "panel.json"
        save_panel(path, panel)
        loaded = load_panel(path)
        for j in range(1, 4):
            np.testing.assert_allclose(
                loaded.entry(j).entries, panel.entry(j).entries, atol=1e-15, rtol=0
            )

    def test_text_bytes_are_pinned(self, tmp_path):
        # shortest-roundtrip floats, signed zeros kept, exponent form as repr
        e1 = np.array([[0.75, complex(2.5e-17, -0.0)], [complex(2.5e-17, 0.0), 0.25]])
        e2 = np.array([[1 / 3, 1e-05j], [-1e-05j, 2 / 3]])
        panel = qm.RdmPanel(2, (qm.DensityMatrix((2,), e1), qm.DensityMatrix((1,), e2)))
        path = tmp_path / "panel.txt"
        save_panel(path, panel)
        assert path.read_bytes() == (
            b"qmarginal-panel 1 2\n"
            b"entry 1\n"
            b"0.75 0.0 2.5e-17 -0.0\n"
            b"2.5e-17 0.0 0.25 0.0\n"
            b"entry 2\n"
            b"0.3333333333333333 0.0 0.0 1e-05\n"
            b"-0.0 -1e-05 0.6666666666666666 0.0\n"
        )

    @pytest.mark.parametrize("n", [5, 8])
    def test_pure_panels_load_back_within_1e_15(self, tmp_path, n):
        orbit, _ = random_ghz_orbit(n, 60 + n)
        for psi in (qm.haar_random_ket(n, 50 + n), orbit):
            panel = qm.panel_of_pure(psi)
            path = tmp_path / "panel.txt"
            save_panel(path, panel)
            loaded = load_panel(path)
            for j in range(1, n + 1):
                np.testing.assert_allclose(
                    loaded.entry(j).entries, panel.entry(j).entries, atol=1e-15, rtol=0
                )

    def test_slightly_negative_entry_loads_clipped(self, tmp_path):
        # eigenvalues (1 + 1e-8, -1e-8): inside the loader's 1e-6 tolerance
        # but below the DensityMatrix invariant, so the loader clips it
        v = qm.oracle.random_unitary_2x2(np.random.default_rng(3))
        raw = (v * np.array([1.0 + 1e-8, -1e-8])) @ v.conj().T
        rows = [" ".join(map(repr, row)) for row in raw.view(np.float64).tolist()]
        path = tmp_path / "panel.txt"
        path.write_text(
            "qmarginal-panel 1 2\nentry 1\n" + "\n".join(rows)
            + "\nentry 2\n0.5 0.0 0.0 0.0\n0.0 0.0 0.5 0.0\n"
        )
        loaded = load_panel(path).entry(1).entries
        assert np.linalg.eigvalsh(loaded)[0] >= -1e-15
        np.testing.assert_allclose(loaded, raw, atol=2e-8, rtol=0)

    @pytest.mark.parametrize("depth, clipped", [(1e-8, True), (1e-12, False)])
    def test_negative_direction_in_a_large_entry(self, tmp_path, depth, clipped):
        # a pure n = 6 entry with -depth |v><v|, v outside its range: the
        # certificate cannot pass it below -1e-10, so the eigensolve clips
        panel = qm.panel_of_pure(qm.haar_random_ket(6, 31))
        rho = panel.entry(3).entries
        v = np.linalg.eigh(rho)[1][:, 0]
        raw = rho - depth * np.outer(v, v.conj())
        raw /= np.trace(raw).real
        path = tmp_path / "panel.txt"
        save_panel(path, panel)
        lines = path.read_text().splitlines()
        start = lines.index("entry 3") + 1
        lines[start:start + 32] = [" ".join(map(repr, row)) for row in raw.view(np.float64).tolist()]
        path.write_text("\n".join(lines) + "\n")
        loaded = load_panel(path).entry(3)
        assert (np.linalg.eigvalsh(loaded.entries)[0] >= -1e-15) == clipped
        assert (loaded._factor is None) == clipped
        np.testing.assert_allclose(loaded.entries, raw, atol=2 * depth, rtol=0)

    def test_non_hermitian_entry_rejected(self, tmp_path):
        panel = qm.panel_of_pure(qm.ghz_state(2))
        path = tmp_path / "panel.txt"
        save_panel(path, panel)
        lines = path.read_text().splitlines()
        lines[2] = "0.5 0.0 0.1 0.0"  # breaks hermiticity beyond 1e-6
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError, match="Hermitian"):
            load_panel(path)

    def test_missing_entry_rows(self, tmp_path):
        path = tmp_path / "panel.txt"
        path.write_text("qmarginal-panel 1 2\nentry 1\n1.0 0.0 0.0 0.0\n")
        with pytest.raises(FileFormatError, match="missing matrix row"):
            load_panel(path)

    def test_header_claiming_too_many_qubits_names_the_short_row(self, tmp_path):
        # rows of 2**29 (re, im) pairs claimed: the first row's width fails
        path = tmp_path / "panel.txt"
        path.write_text("qmarginal-panel 1 30\nentry 1\n1.0 0.0\n")
        message = f"panel.txt:3: entry 1: expected {2**30} floats, got 2"
        with pytest.raises(FileFormatError, match=message):
            load_panel(path)

    def test_non_integer_entry_label_names_its_line(self, tmp_path):
        path = tmp_path / "panel.txt"
        path.write_text("qmarginal-panel 1 2\nentry x\n1.0 0.0 0.0 0.0\n0.0 0.0 0.0 0.0\n")
        with pytest.raises(FileFormatError, match="panel.txt:2: entry label must be an integer"):
            load_panel(path)

    @pytest.mark.parametrize(
        "bad_row, message",
        [
            ("0.5 0.0 nonsense 0.0", "invalid float in matrix row"),
            ("0.5 0.0 0.0", "entry 2: expected 4 floats, got 3"),
        ],
    )
    def test_bad_row_names_its_line(self, tmp_path, bad_row, message):
        panel = qm.panel_of_pure(qm.ghz_state(2))
        path = tmp_path / "panel.txt"
        save_panel(path, panel)
        lines = path.read_text().splitlines()
        lines[6] = bad_row  # second row of entry 2
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError, match=f"panel.txt:7: {message}"):
            load_panel(path)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_entry_names_its_line(self, tmp_path, value):
        panel = qm.panel_of_pure(qm.ghz_state(2))
        path = tmp_path / "panel.txt"
        save_panel(path, panel)
        lines = path.read_text().splitlines()
        lines[6] = f"0.0 0.0 {value} 0.0"  # second row of entry 2
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError, match="panel.txt:7: entry 2: matrix row 2 is not finite"):
            load_panel(path)

    @pytest.mark.parametrize("value", [float("nan"), float("-inf")])
    def test_json_non_finite_entry_rejected(self, tmp_path, value):
        path = tmp_path / "panel.json"
        self._json_panel(path, 2, [1, 2])
        doc = json.loads(path.read_text())
        doc["entries"][1]["matrix"][0][1][0] = value
        path.write_text(json.dumps(doc) + "\n")
        with pytest.raises(FileFormatError, match="panel.json: entry 2: matrix row 1 is not finite"):
            load_panel(path)

    @staticmethod
    def _json_panel(path, n, omitted_labels):
        """A panel document with one maximally mixed entry per label."""
        dim = 2 ** max(n - 1, 0)
        matrix = [[[1.0 / dim if r == c else 0.0, 0.0] for c in range(dim)] for r in range(dim)]
        entries = [{"omitted": j, "matrix": matrix} for j in omitted_labels]
        doc = {"format": "qmarginal-panel", "version": 1, "n": n, "entries": entries}
        path.write_text(json.dumps(doc) + "\n")

    @pytest.mark.parametrize("n, labels", [(0, []), (1, [1])])
    def test_json_invalid_qubit_count(self, tmp_path, n, labels):
        path = tmp_path / "panel.json"
        self._json_panel(path, n, labels)
        with pytest.raises(FileFormatError, match=f"invalid qubit count {n}"):
            load_panel(path)

    def test_json_repeated_entry_label(self, tmp_path):
        # n + 1 entries with label 2 twice: every qubit still has an entry
        path = tmp_path / "panel.json"
        self._json_panel(path, 3, [1, 2, 2, 3])
        with pytest.raises(FileFormatError, match="bad or repeated entry label 2"):
            load_panel(path)


STATE_TEXT = "qmarginal-state 1 1\n1.0 0.0\n0.0 0.0\n"
PANEL_TEXT = (
    "qmarginal-panel 1 2\n"
    "entry 1\n0.5 0.0 0.0 0.0\n0.0 0.0 0.5 0.0\n"
    "entry 2\n0.5 0.0 0.0 0.0\n0.0 0.0 0.5 0.0\n"
)
MIXED = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]


def state_doc(**fields):
    """A one-qubit state document, |0>, with ``fields`` replaced."""
    doc = {"format": "qmarginal-state", "version": 1, "n": 1,
           "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}
    return json.dumps({**doc, **fields})


def panel_doc(n=2, entries=None, **fields):
    """A two-qubit panel document of maximally mixed entries, with
    ``entries`` (a list of (omitted, matrix)) and ``fields`` replaced."""
    entries = entries if entries is not None else [(1, MIXED), (2, MIXED)]
    doc = {"format": "qmarginal-panel", "version": 1, "n": n,
           "entries": [{"omitted": j, "matrix": m} for j, m in entries]}
    return json.dumps({**doc, **fields})


# (file name, content, message after 'name[:line]: ') of files each loader
# rejects; every check but the text grammar runs for both encodings
STATE_REJECTIONS = [
    ("state.txt", "", "state.txt:1: empty file"),
    ("state.txt", "qmarginal-state one 1\n1.0 0.0\n0.0 0.0\n",
     "state.txt:1: version and qubit count must be integers"),
    ("state.txt", "qmarginal-state 2 1\n1.0 0.0\n0.0 0.0\n", "state.txt:1: unsupported version 2"),
    ("state.txt", "qmarginal-state 1 0\n1.0 0.0\n", "state.txt:1: invalid qubit count 0"),
    ("state.txt", "qmarginal-state 1 100000\n1.0 0.0\n", "state.txt:1: invalid qubit count 100000"),
    ("state.txt", "qmarginal-state 1 63\n1.0 0.0\n", "state.txt:1: invalid qubit count 63"),
    ("state.txt", STATE_TEXT + "0.0 0.0\n", "state.txt:4: unexpected trailing content"),
    ("state.json", "not json\n", "state.json:1: invalid JSON: Expecting value"),
    ("state.json", '{"n": ' + "1" * 5000 + "}\n", "state.json: invalid JSON: Exceeds the limit"),
    ("state.json", "[]\n", "state.json: expected a JSON object"),
    ("state.json", state_doc(format="qmarginal-panel"),
     "state.json: expected header 'qmarginal-state <version> <n>'"),
    ("state.json", state_doc(version=2), "state.json: unsupported version 2"),
    ("state.json", state_doc(version="1"), "state.json: version and qubit count must be integers"),
    ("state.json", state_doc(version=1.0), "state.json: version and qubit count must be integers"),
    ("state.json", state_doc(n=1.7), "state.json: version and qubit count must be integers"),
    ("state.json", state_doc(n="1"), "state.json: version and qubit count must be integers"),
    ("state.json", state_doc(n=True), "state.json: version and qubit count must be integers"),
    ("state.json", state_doc(n=100000), "state.json: invalid qubit count 100000"),
    ("state.json", state_doc(label=5), "state.json: label must be a string"),
    ("state.json", state_doc(amplitudes=[[1.0, 0.0]]), "state.json: missing amplitude row 2 of 2"),
    ("state.json", state_doc(amplitudes=[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]),
     "state.json: unexpected trailing content"),
    ("state.json", state_doc(amplitudes=[["1.0", 0.0], [0.0, 0.0]]),
     "state.json: invalid float in amplitude row"),
    ("state.json", state_doc(amplitudes=[[True, 0.0], [0.0, 0.0]]),
     "state.json: invalid float in amplitude row"),
    ("state.json", state_doc(amplitudes=[[1, 0, 5], [0, 0]]),
     "state.json: expected 'amplitudes' as an array of [re, im] pairs"),
    ("state.json", state_doc(amplitudes=[1.0, 0.0]),
     "state.json: expected 'amplitudes' as an array of [re, im] pairs"),
    ("state.json", state_doc(amplitudes=None),
     "state.json: expected 'amplitudes' as an array of [re, im] pairs"),
]

PANEL_REJECTIONS = [
    ("panel.txt", "", "panel.txt:1: empty file"),
    ("panel.txt", PANEL_TEXT.replace(" 1 2\n", " 1 two\n", 1),
     "panel.txt:1: version and qubit count must be integers"),
    ("panel.txt", PANEL_TEXT.replace(" 1 2\n", " 2 2\n", 1), "panel.txt:1: unsupported version 2"),
    ("panel.txt", "qmarginal-panel 1 1\nentry 1\n1.0 0.0\n", "panel.txt:1: invalid qubit count 1"),
    ("panel.txt", "qmarginal-panel 1 100000\nentry 1\n1.0 0.0\n",
     "panel.txt:1: invalid qubit count 100000"),
    ("panel.txt", PANEL_TEXT.replace("0.5 0.0 0.0 0.0\n", "1.0 0.0 0.0 0.0\n", 1),
     "panel.txt:2: entry 1 has trace 1.5"),
    ("panel.txt", PANEL_TEXT.replace("0.5 0.0 0.0 0.0\n0.0 0.0 0.5 0.0\n",
                                     "1.5 0.0 0.0 0.0\n0.0 0.0 -0.5 0.0\n", 1),
     "panel.txt:2: entry 1 is not positive semidefinite"),
    ("panel.txt", PANEL_TEXT.split("entry 2")[0], "panel.txt:5: expected 2 entries, found 1"),
    ("panel.txt", PANEL_TEXT.replace("entry 1", "item 1"),
     "panel.txt:2: expected 'entry <omitted-qubit>'"),
    ("panel.txt", PANEL_TEXT.replace("entry 1", "entry 3"), "panel.txt:2: bad or repeated entry label 3"),
    ("panel.txt", PANEL_TEXT.replace("entry 2", "entry 1"), "panel.txt:5: bad or repeated entry label 1"),
    ("panel.txt", PANEL_TEXT + "0.0\n", "panel.txt:8: unexpected trailing content"),
    ("panel.json", "not json\n", "panel.json:1: invalid JSON: Expecting value"),
    ("panel.json", panel_doc(format="qmarginal-state"),
     "panel.json: expected header 'qmarginal-panel <version> <n>'"),
    ("panel.json", panel_doc(version=2), "panel.json: unsupported version 2"),
    ("panel.json", panel_doc(version=True), "panel.json: version and qubit count must be integers"),
    ("panel.json", panel_doc(n=2.0), "panel.json: version and qubit count must be integers"),
    ("panel.json", panel_doc(n=100000), "panel.json: invalid qubit count 100000"),
    ("panel.json", panel_doc(entries=[(1, [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]), (2, MIXED)]),
     "panel.json: entry 1 has trace 1.5"),
    ("panel.json", panel_doc(entries=[(1, [[[1.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]]), (2, MIXED)]),
     "panel.json: entry 1 is not positive semidefinite"),
    ("panel.json", panel_doc(entries=[(3, MIXED), (2, MIXED)]), "panel.json: bad or repeated entry label 3"),
    ("panel.json", panel_doc(entries=[(2.7, MIXED), (2, MIXED)]),
     "panel.json: entry label must be an integer, got '2.7'"),
    ("panel.json", panel_doc(entries=[("1", MIXED), (2, MIXED)]),
     "panel.json: entry label must be an integer, got \"'1'\""),
    ("panel.json", panel_doc(entries=[(1, MIXED[:1]), (2, MIXED)]), "panel.json: entry 1: missing matrix row 2"),
    ("panel.json", panel_doc(entries=[(1, [MIXED[0] + [[0.0, 0.0]], MIXED[1]]), (2, MIXED)]),
     "panel.json: entry 1: expected 4 floats, got 6"),
    ("panel.json", panel_doc(entries=[(1, MIXED + [MIXED[1]]), (2, MIXED)]),
     "panel.json: unexpected trailing content"),
    ("panel.json", panel_doc(entries=[(1, [[["x", 0.0], [0.0, 0.0]], MIXED[1]]), (2, MIXED)]),
     "panel.json: invalid float in matrix row"),
    ("panel.json", panel_doc(entries=[(1, [[0.5, 0.0, 0.0, 0.0], MIXED[1]]), (2, MIXED)]),
     "panel.json: expected 'matrix' as an array of rows of [re, im] pairs"),
    ("panel.json", panel_doc(entries=[(1, [[[0.5, 0.0, 0.0], [0.0]], MIXED[1]]), (2, MIXED)]),
     "panel.json: expected 'matrix' as an array of rows of [re, im] pairs"),
    ("panel.json", panel_doc(entries=[]).replace('"entries": []', '"entries": 5'),
     "panel.json: expected 'entries' as an array of objects"),
    ("panel.json", panel_doc(n=3, entries=[(1, [[[0.25, 0.0]] * 4] * 4), (2, [[[0.25, 0.0]] * 4] * 4)]),
     "panel.json: panel must contain one entry per qubit"),
]


class TestLoaderChecks:
    def test_text_entry_below_the_spectrum_floor_is_rejected(self, tmp_path):
        # trace 1, Hermitian and every entry at most 1, so only the
        # eigenvalue check sees the -1e-5 below -LOAD_HERM_TOL
        def diagonal(values):
            return "".join(
                " ".join(f"{v if r == c else 0.0!r} 0.0" for c in range(4)) + "\n"
                for r, v in enumerate(values)
            )
        mixed = diagonal([0.25] * 4)
        path = tmp_path / "panel.txt"
        path.write_text(
            "qmarginal-panel 1 3\nentry 1\n" + diagonal([0.6, 0.4 + 1e-5, 0.0, -1e-5])
            + "entry 2\n" + mixed + "entry 3\n" + mixed
        )
        with pytest.raises(FileFormatError, match=re.escape("panel.txt:2: entry 1 is not positive semidefinite")):
            load_panel(path)

    @pytest.mark.parametrize("load, name", [
        (load_state, "state.txt"), (load_state, "state.json"),
        (load_panel, "panel.txt"), (load_panel, "panel.json"),
    ])
    def test_missing_file(self, tmp_path, load, name):
        with pytest.raises(FileFormatError, match=re.escape(f"{name}: file not found")):
            load(tmp_path / name)

    @pytest.mark.parametrize("load", [load_state, load_panel], ids=["state", "panel"])
    @pytest.mark.parametrize("suffix", [".txt", ".json"])
    def test_directory_names_the_file(self, tmp_path, load, suffix):
        path = tmp_path / f"adir{suffix}"
        path.mkdir()
        with pytest.raises(FileFormatError, match=re.escape(f"adir{suffix}: cannot read: ")) as info:
            load(path)
        assert info.value.path == str(path)

    @pytest.mark.parametrize("load", [load_state, load_panel], ids=["state", "panel"])
    @pytest.mark.parametrize("suffix", [".txt", ".json"])
    @pytest.mark.parametrize("data, start", [(b"\xff\xfe\x00", 0), (codecs.BOM_UTF8 + b"qm\xff", 5)],
                             ids=["utf-16-mark", "after-utf-8-mark"])
    def test_undecodable_bytes_name_the_file(self, tmp_path, load, suffix, data, start):
        # the offset counts from the file's start, a skipped byte-order mark included
        path = tmp_path / f"bad{suffix}"
        path.write_bytes(data)
        message = f"bad{suffix}: not utf-8 text: invalid start byte at byte {start}"
        with pytest.raises(FileFormatError, match=re.escape(message)) as info:
            load(path)
        assert info.value.path == str(path)

    @pytest.mark.parametrize("suffix", [".txt", ".json"])
    @pytest.mark.parametrize("kind", ["state", "panel"])
    def test_byte_order_mark_is_skipped(self, tmp_path, suffix, kind):
        # a UTF-8 byte-order mark once failed the header check
        psi = qm.haar_random_ket(3, 43)
        plain, marked = tmp_path / f"plain{suffix}", tmp_path / f"marked{suffix}"
        if kind == "state":
            save_state(plain, psi, label="marked")
        else:
            save_panel(plain, qm.panel_of_pure(psi))
        marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
        if kind == "state":
            a, b = load_state(plain), load_state(marked)
            assert (a.n, a.label) == (b.n, b.label)
            np.testing.assert_array_equal(a.ket.amplitudes, b.ket.amplitudes)
        else:
            a, b = load_panel(plain), load_panel(marked)
            for j in range(1, 4):
                np.testing.assert_array_equal(a.entry(j).entries, b.entry(j).entries)

    @pytest.mark.parametrize("name, content, message", STATE_REJECTIONS,
                             ids=[m for *_, m in STATE_REJECTIONS])
    def test_state_rejections(self, tmp_path, name, content, message):
        path = tmp_path / name
        path.write_text(content)
        with pytest.raises(FileFormatError, match=re.escape(message)):
            load_state(path)

    @pytest.mark.parametrize("name, content, message", PANEL_REJECTIONS,
                             ids=[m for *_, m in PANEL_REJECTIONS])
    def test_panel_rejections(self, tmp_path, name, content, message):
        path = tmp_path / name
        path.write_text(content)
        with pytest.raises(FileFormatError, match=re.escape(message)):
            load_panel(path)

    def test_row_by_row_parse_accepts_what_float_accepts(self, tmp_path):
        # '1_0e-1' is no float to numpy's text reader, but float() reads it as 1.0
        path = tmp_path / "state.txt"
        path.write_text(STATE_TEXT.replace("1.0 0.0", "1_0e-1 0.0"))
        np.testing.assert_array_equal(load_state(path).ket.amplitudes, [1.0, 0.0])
        path = tmp_path / "panel.txt"
        path.write_text(PANEL_TEXT.replace("0.5 0.0 0.0 0.0", "0.5_0 0.0 0.0 0.0", 1))
        np.testing.assert_array_equal(load_panel(path).entry(1).entries, np.eye(2) / 2)

    def test_largest_qubit_count_reads_rows(self, tmp_path):
        # n = 62 passes the header check; the first missing row fails
        path = tmp_path / "state.txt"
        path.write_text("qmarginal-state 1 62\n1.0 0.0\n")
        with pytest.raises(FileFormatError, match=f"state.txt:3: missing amplitude row 2 of {2**62}"):
            load_state(path)

    @pytest.mark.parametrize("label", [None, "a label"])
    def test_json_state_bytes_are_pinned(self, tmp_path, label):
        psi = qm.Ket(1, np.array([0.6, complex(-0.0, 0.8)]))
        path = tmp_path / "state.json"
        save_state(path, psi, label=label)
        tail = "" if label is None else ',\n "label": "a label"'
        assert path.read_text() == (
            '{\n "format": "qmarginal-state",\n "version": 1,\n "n": 1,\n "amplitudes": [\n'
            "  [\n   0.6,\n   0.0\n  ],\n  [\n   -0.0,\n   0.8\n  ]\n ]" + tail + "\n}\n"
        )

    def test_json_panel_bytes_are_pinned(self, tmp_path):
        e1 = np.array([[0.75, complex(2.5e-17, -0.0)], [complex(2.5e-17, 0.0), 0.25]])
        panel = qm.RdmPanel(2, (qm.DensityMatrix((2,), e1), qm.DensityMatrix((1,), np.eye(2) / 2)))
        path = tmp_path / "panel.json"
        save_panel(path, panel)
        assert path.read_text() == (
            '{"format": "qmarginal-panel", "version": 1, "n": 2, "entries": ['
            '{"omitted": 1, "matrix": [[[0.75, 0.0], [2.5e-17, -0.0]], [[2.5e-17, 0.0], [0.25, 0.0]]]}, '
            '{"omitted": 2, "matrix": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]}]}\n'
        )


def reference_panel_bytes(panel):
    lines = [f"qmarginal-panel 1 {panel.n}"]
    for j in range(1, panel.n + 1):
        lines.append(f"entry {j}")
        lines.extend(reference_rows(panel.entry(j).entries))
    return ("\n".join(lines) + "\n").encode()


def parity_states(n):
    orbit, _ = random_ghz_orbit(n, 70)
    balanced, _ = random_ghz_orbit(n, 71, balanced=True)
    return {
        "haar": qm.haar_random_ket(n, 72),
        "ghz-orbit": orbit,
        "ghz-balanced": balanced,
        "hybrid": random_hybrid(n, 73),
    }


class TestWriterParity:
    """The text writer formats each distinct magnitude once; its bytes are
    those of one repr per float."""

    @pytest.mark.parametrize("kind", ["haar", "ghz-orbit", "ghz-balanced", "hybrid"])
    def test_panel_bytes_match_the_reference(self, tmp_path, kind):
        panel = qm.panel_of_pure(parity_states(8)[kind])
        path = tmp_path / "panel.txt"
        save_panel(path, panel)
        assert path.read_bytes() == reference_panel_bytes(panel)

    def test_non_hermitian_panel_bytes_match_the_reference(self, tmp_path):
        # entry 2 turned on qubit 1 by 0.01 rad: its mirror entries differ
        # in their last bits, so magnitudes are no longer shared in pairs
        n = 8
        panel = qm.panel_of_pure(qm.haar_random_ket(n, 74))
        c, s = np.cos(0.01), np.sin(0.01)
        u = np.kron(np.array([[c, -s], [s, c]]), np.eye(2 ** (n - 2)))
        rho = panel.entry(2)
        entries = list(panel.entries)
        entries[1] = qm.DensityMatrix(rho.qubit_labels, u @ rho.entries @ u.T)
        turned = qm.RdmPanel(n, tuple(entries))
        assert not np.array_equal(turned.entry(2).entries, turned.entry(2).entries.conj().T)
        path = tmp_path / "panel.txt"
        save_panel(path, turned)
        assert path.read_bytes() == reference_panel_bytes(turned)

    @pytest.mark.parametrize("kind", ["haar", "ghz-orbit", "ghz-balanced", "hybrid"])
    def test_state_bytes_match_the_reference(self, tmp_path, kind):
        psi = parity_states(8)[kind]
        path = tmp_path / "state.txt"
        save_state(path, psi, label=kind)
        lines = ["qmarginal-state 1 8", f"label {kind}", *reference_rows(psi.amplitudes[:, None])]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


def traced_peak(call) -> int:
    """The tracemalloc peak, in bytes, of call()."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreamedFiles:
    """The text reader decodes and splits a file a chunk at a time, each
    cut after a line end, and gives the lines, errors and byte offsets of
    the whole text; the writers emit one entry at a time."""

    @pytest.mark.parametrize("size", [1, 2, 5, 7])
    @pytest.mark.parametrize("end", ["\r\n", "\r", "\r\r\n"], ids=["crlf", "cr", "cr-crlf"])
    def test_line_ends_split_across_chunk_edges(self, tmp_path, monkeypatch, size, end):
        # one-byte chunks put an edge inside every CRLF pair
        data = PANEL_TEXT.replace("\n", end).encode()
        path = tmp_path / "panel.txt"
        path.write_bytes(data)
        monkeypatch.setattr(qio, "_CHUNK_BYTES", size)
        assert list(qio._text_lines(path)) == data.decode().splitlines()
        if end != "\r\r\n":
            np.testing.assert_array_equal(load_panel(path).entry(2).entries, np.eye(2) / 2)

    @pytest.mark.parametrize("size", [1, 4, 2**16])
    @pytest.mark.parametrize("sep", ["\x0c", "\x85", "\u2028"], ids=["form-feed", "next-line", "line-separator"])
    def test_line_separator_in_a_row_splits_it(self, tmp_path, monkeypatch, sep, size):
        # as str.splitlines splits the whole text: row 1 of entry 1 becomes two lines
        text = PANEL_TEXT.replace("0.5 0.0 0.0 0.0", "0.5 0.0" + sep + "0.0 0.0", 1)
        path = tmp_path / "panel.txt"
        path.write_bytes(text.encode())
        monkeypatch.setattr(qio, "_CHUNK_BYTES", size)
        assert list(qio._text_lines(path)) == text.splitlines()
        with pytest.raises(FileFormatError, match=re.escape("panel.txt:3: entry 1: expected 4 floats, got 2")):
            load_panel(path)

    @pytest.mark.parametrize("load, text", [(load_state, STATE_TEXT), (load_panel, PANEL_TEXT)],
                             ids=["state", "panel"])
    @pytest.mark.parametrize("mark", [b"", codecs.BOM_UTF8], ids=["plain", "marked"])
    def test_invalid_byte_past_the_first_chunk_names_its_offset(self, tmp_path, monkeypatch, load, text, mark):
        data = text.encode()
        at = data.rindex(b"\n0.0")
        path = tmp_path / "file.txt"
        path.write_bytes(mark + data[:at] + b"\xff" + data[at:])
        monkeypatch.setattr(qio, "_CHUNK_BYTES", 8)
        message = f"file.txt: not utf-8 text: invalid start byte at byte {len(mark) + at}"
        with pytest.raises(FileFormatError, match=re.escape(message)) as info:
            load(path)
        assert at > 3 + 8 and info.value.line is None

    @pytest.mark.parametrize("n, size", [(2, 8), (6, None)], ids=["8-byte-chunks", "default-chunks"])
    def test_encoding_error_outranks_an_earlier_format_error(self, tmp_path, monkeypatch, n, size):
        # a bad float in entry 1 and an invalid byte near the end: the
        # decode error wins, as when the whole text was decoded first
        if size is not None:
            monkeypatch.setattr(qio, "_CHUNK_BYTES", size)
        path = tmp_path / "panel.txt"
        save_panel(path, qm.panel_of_pure(qm.haar_random_ket(n, 44)))
        data = path.read_bytes()
        assert len(data) > 3 + qio._CHUNK_BYTES
        row = data.index(b"\n", data.index(b"entry 1")) + 1
        at = len(data) - 2
        path.write_bytes(data[:row] + b"x" + data[row + 1:at] + b"\xc3" + data[at:])
        message = f"panel.txt: not utf-8 text: invalid continuation byte at byte {at}"
        with pytest.raises(FileFormatError, match=re.escape(message)):
            load_panel(path)
        path.write_bytes(data[:row] + b"x" + data[row + 1:])
        with pytest.raises(FileFormatError, match=re.escape("panel.txt:3: invalid float in matrix row")):
            load_panel(path)

    def test_text_panel_io_holds_one_entry(self, tmp_path):
        # an n = 8 Haar panel: a 5.5 MiB file, 2 MiB of dense entries; the
        # whole file's lines and text once took the save to 18.6 MiB and
        # the load to 11.1 MiB
        path = tmp_path / "panel.txt"
        panel = qm.panel_of_pure(qm.haar_random_ket(8, 1))
        assert traced_peak(lambda: save_panel(path, panel)) < 8 * 2**20
        assert traced_peak(lambda: load_panel(path)) < 8 * 2**20

    def test_json_panel_save_holds_one_entry(self, tmp_path):
        # the whole document as Python lists took the save to 30.1 MiB
        path = tmp_path / "panel.json"
        panel = qm.panel_of_pure(qm.haar_random_ket(8, 1))
        assert traced_peak(lambda: save_panel(path, panel)) < 12 * 2**20

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_json_panel_bytes_are_those_of_one_document(self, tmp_path, n):
        panel = qm.panel_of_pure(qm.haar_random_ket(n, 60 + n))
        entries = [
            {"omitted": j, "matrix": [[[z.real, z.imag] for z in row] for row in panel.entry(j).entries.tolist()]}
            for j in range(1, n + 1)
        ]
        doc = {"format": "qmarginal-panel", "version": 1, "n": n, "entries": entries}
        path = tmp_path / "panel.json"
        save_panel(path, panel)
        assert path.read_bytes() == (json.dumps(doc) + "\n").encode()


def loaded_after(statement: str) -> set[str]:
    """numpy and the qmarginal modules loaded once a fresh interpreter has
    run ``statement`` (its output dropped, a ``SystemExit`` caught)."""
    code = (
        "import contextlib, io, json, sys\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        exec(sys.argv[1])\n"
        "    except SystemExit as stop:\n"
        "        assert stop.code == 0, stop.code\n"
        "print(json.dumps([m for m in sys.modules if m == 'numpy' or m.split('.')[0] == 'qmarginal']))\n"
    )
    return set(json.loads(run_fresh(code, statement)))


class TestCli:
    def run(self, capsys, *argv):
        code = main(list(argv))
        out = capsys.readouterr()
        return code, out.out, out.err

    def test_analyze_ghz_exit_code_and_dimension(self, tmp_path, capsys):
        path = tmp_path / "ghz5.state"
        save_state(path, qm.ghz_state(5))
        code, out, _ = self.run(capsys, "analyze", str(path))
        assert code == 10
        assert "stabilizer dimension: 4" in out
        assert "verdict: ghz-class" in out

    def test_analyze_haar_is_determined(self, tmp_path, capsys):
        path = tmp_path / "haar.state"
        save_state(path, qm.haar_random_ket(4, 101))
        code, out, _ = self.run(capsys, "analyze", str(path))
        assert code == 0
        assert "stabilizer dimension: 0" in out
        assert "verdict: determined" in out

    def test_analyze_output_is_deterministic(self, tmp_path, capsys):
        path = tmp_path / "orbit.state"
        save_state(path, qm.random_lu_orbit(qm.ghz_state(3, 0.6, 0.8), seed=5))
        _, first, _ = self.run(capsys, "analyze", str(path))
        _, second, _ = self.run(capsys, "analyze", str(path))
        assert first == second

    def test_analyze_truncated_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.state"
        path.write_text("qmarginal-state 1 3\n1.0 0.0\n")
        code, _, err = self.run(capsys, "analyze", str(path))
        assert code == 2
        assert "bad.state:3" in err

    @pytest.mark.parametrize(
        "command, name, text",
        [
            ("analyze", "big.state", "qmarginal-state 1 50\n1.0 0.0\n"),
            ("reconstruct", "big.panel", "qmarginal-panel 1 30\nentry 1\n1.0 0.0\n"),
        ],
    )
    def test_header_claiming_too_many_qubits_exits_2(self, tmp_path, capsys, command, name, text):
        path = tmp_path / name
        path.write_text(text)
        code, out, err = self.run(capsys, command, str(path))
        assert code == 2
        assert err.startswith("error: ") and f"{name}:3: " in err
        assert out == ""

    @pytest.mark.parametrize(
        "command, name, text, where",
        [
            ("analyze", "big.state", "qmarginal-state 1 100000\n1.0 0.0\n", "big.state:1: "),
            ("reconstruct", "big.panel", "qmarginal-panel 1 100000\nentry 1\n1.0 0.0\n", "big.panel:1: "),
            ("analyze", "big.json", state_doc(n=100000), "big.json: "),
            ("reconstruct", "big.json", panel_doc(n=100000), "big.json: "),
        ],
        ids=["state-text", "panel-text", "state-json", "panel-json"],
    )
    def test_header_beyond_the_qubit_bound_exits_2(self, tmp_path, capsys, command, name, text, where):
        path = tmp_path / name
        path.write_text(text)
        code, out, err = self.run(capsys, command, str(path))
        assert code == 2
        assert err.startswith("error: ") and f"{where}invalid qubit count 100000" in err
        assert out == ""

    @pytest.mark.parametrize("command", ["analyze", "reconstruct", "sibling-search"])
    @pytest.mark.parametrize("suffix", [".txt", ".json"])
    @pytest.mark.parametrize("kind", ["directory", "undecodable"])
    def test_unreadable_file_exits_2_naming_it(self, tmp_path, capsys, command, suffix, kind):
        # a directory once ended in an IsADirectoryError traceback, and
        # bytes that are not UTF-8 in a message that named no file
        path = tmp_path / f"adir{suffix}"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"\xff\xfe\x00")
        code, out, err = self.run(capsys, command, str(path))
        assert code == 2
        reason = "cannot read: " if kind == "directory" else "not utf-8 text: invalid start byte at byte 0\n"
        assert err.startswith(f"error: {path}: {reason}")
        assert out == ""

    @pytest.mark.parametrize("suffix", [".txt", ".json"])
    def test_byte_order_mark_gives_the_plain_file_output(self, tmp_path, capsys, suffix):
        plain, marked = tmp_path / f"plain{suffix}", tmp_path / f"marked{suffix}"
        save_state(plain, qm.ghz_state(3))
        marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
        code, out, err = self.run(capsys, "analyze", str(marked))
        assert (code, out.replace(str(marked), str(plain)), err) == self.run(capsys, "analyze", str(plain))

    def test_analyze_non_finite_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "nan.state"
        path.write_text("qmarginal-state 1 2\nnan 0\n0 0\n0 0\n0 0\n")
        code, out, err = self.run(capsys, "analyze", str(path))
        assert code == 2
        assert "nan.state:2: amplitude row 1 is not finite" in err
        assert "verdict" not in out

    def test_analyze_nan_tolerance_exits_2(self, tmp_path, capsys):
        path = tmp_path / "haar.state"
        save_state(path, qm.haar_random_ket(4, 101))
        code, out, err = self.run(capsys, "analyze", "--tol", "nan", str(path))
        assert code == 2
        assert "tol must be positive" in err
        assert "verdict" not in out

    def test_analyze_infinite_tolerance_exits_2(self, tmp_path, capsys):
        # an infinite tol once passed every margin: a GHZ orbit read "determined"
        path = tmp_path / "ghz.state"
        save_state(path, qm.random_lu_orbit(qm.ghz_state(4, 0.6, 0.8), 3))
        code, out, err = self.run(capsys, "analyze", str(path), "--tol", "inf")
        assert code == 2
        assert "tol must be positive" in err
        assert "verdict" not in out

    def test_reconstruct_haar_panel(self, tmp_path, capsys):
        psi = qm.haar_random_ket(3, 102)
        panel_path = tmp_path / "panel.txt"
        save_panel(panel_path, qm.panel_of_pure(psi))
        out_path = tmp_path / "rec.state"
        code, out, _ = self.run(capsys, "reconstruct", str(panel_path), "--out", str(out_path))
        assert code == 0
        assert "outcome: unique" in out
        recovered = load_state(out_path).ket
        assert abs(recovered.overlap(psi)) >= 1.0 - 1e-8

    def test_reconstruct_family_panel(self, tmp_path, capsys):
        panel_path = tmp_path / "panel.txt"
        save_panel(panel_path, qm.panel_of_pure(qm.ghz_state(4, 0.6, 0.8)))
        code, out, _ = self.run(capsys, "reconstruct", str(panel_path))
        assert code == 0
        assert "outcome: ghz-family" in out
        assert "alpha" in out

    def test_reconstruct_non_integer_entry_label_exits_2(self, tmp_path, capsys):
        path = tmp_path / "panel.txt"
        path.write_text("qmarginal-panel 1 2\nentry x\n1.0 0.0 0.0 0.0\n0.0 0.0 0.0 0.0\n")
        code, out, err = self.run(capsys, "reconstruct", str(path))
        assert code == 2
        assert err.startswith("error: ")
        assert "panel.txt:2: entry label must be an integer, got 'x'" in err
        assert "outcome" not in out

    def test_reconstruct_inconsistent_panel(self, tmp_path, capsys):
        panel = qm.panel_of_pure(qm.haar_random_ket(3, 103))
        entries = list(panel.entries)
        entries[0] = qm.panel_of_pure(qm.haar_random_ket(3, 104)).entries[0]
        bad = qm.RdmPanel(3, tuple(entries))
        panel_path = tmp_path / "panel.txt"
        save_panel(panel_path, bad)
        code, out, _ = self.run(capsys, "reconstruct", str(panel_path))
        assert code == 0
        assert "outcome: incompatible" in out

    @pytest.mark.parametrize("where, error", [("missing/rec.txt", errno.ENOENT), ("adir", errno.EISDIR)],
                             ids=["missing-directory", "directory"])
    def test_reconstruct_unwritable_out_exits_2(self, tmp_path, capsys, where, error):
        panel_path = tmp_path / "panel.txt"
        save_panel(panel_path, qm.panel_of_pure(qm.haar_random_ket(3, 102)))
        (tmp_path / "adir").mkdir()
        out_path = tmp_path / where
        code, out, err = self.run(capsys, "reconstruct", str(panel_path), "--out", str(out_path))
        assert code == 2
        assert err == f"error: cannot write {out_path}: {os.strerror(error)}\n"
        assert "outcome: unique" in out and "wrote" not in out

    def test_import_does_not_load_scipy_optimize(self):
        run_fresh("import qmarginal.cli, sys; assert 'scipy.optimize' not in sys.modules")

    @pytest.mark.parametrize("statement", ["import qmarginal", "import qmarginal.cli"])
    def test_import_loads_no_numerics(self, statement):
        assert loaded_after(statement) <= {"qmarginal", "qmarginal.cli", "qmarginal.tolerances"}

    def test_help_loads_no_numpy(self):
        loaded = loaded_after("from qmarginal.cli import main; main(['--help'])")
        assert "numpy" not in loaded, loaded

    @pytest.mark.parametrize(
        "argv, runs, skips",
        [
            (["analyze", "{state}"], {"classifier", "stabilizer"}, {"oracle", "unitary_fit", "reconstruct"}),
            (["sibling-search", "{state}"], {"oracle"}, {"classifier", "stabilizer", "reconstruct"}),
            (["reconstruct", "{panel}"], {"reconstruct"}, {"oracle", "unitary_fit", "stabilizer"}),
            (["demo-chi"], {"classifier", "oracle"}, {"io", "stabilizer", "reconstruct"}),
        ],
        ids=["analyze", "sibling-search", "reconstruct", "demo-chi"],
    )
    def test_each_command_loads_only_what_it_runs(self, tmp_path, argv, runs, skips):
        files = {"state": tmp_path / "ghz.state", "panel": tmp_path / "ghz.panel"}
        save_state(files["state"], qm.ghz_state(3))
        save_panel(files["panel"], qm.panel_of_pure(qm.ghz_state(3)))
        argv = [arg.format(**files) for arg in argv]
        loaded = loaded_after(f"from qmarginal.cli import main; assert main({argv!r}) in (0, 10)")
        assert {f"qmarginal.{m}" for m in runs} <= loaded
        assert not {f"qmarginal.{m}" for m in skips} & loaded, loaded

    def test_sibling_search_runs_without_scipy(self):
        code = (
            "import sys, qmarginal as qm\n"
            "assert qm.search_sibling(qm.ghz_state(3)).found\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "assert not loaded, loaded\n"
        )
        run_fresh(code)

    def test_sibling_search_found(self, tmp_path, capsys):
        path = tmp_path / "ghz.state"
        save_state(path, qm.ghz_state(3))
        code, out, _ = self.run(capsys, "sibling-search", str(path))
        assert code == 10
        assert "sibling: found" in out
        assert "witness unitary" in out

    def test_sibling_search_not_found(self, tmp_path, capsys):
        path = tmp_path / "w.state"
        save_state(path, qm.ket([0, 1, 1, 0, 1, 0, 0, 0]))
        code, out, _ = self.run(capsys, "sibling-search", str(path), "--budget", "64")
        assert code == 0
        assert "sibling: not found" in out

    def test_sibling_search_zero_budget(self, tmp_path, capsys):
        path = tmp_path / "s.state"
        save_state(path, qm.haar_random_ket(3, 105))
        code, out, _ = self.run(capsys, "sibling-search", str(path), "--budget", "0")
        assert code == 0
        assert "trials: 0" in out

    def test_sibling_search_negative_budget_exits_2(self, tmp_path, capsys):
        path = tmp_path / "ghz.state"
        save_state(path, qm.ghz_state(3))
        code, out, err = self.run(capsys, "sibling-search", str(path), "--budget", "-1")
        assert code == 2
        assert "sibling:" not in out
        assert err.startswith("error:") and "budget" in err

    def test_demo_chi_passes(self, capsys):
        code, out, _ = self.run(capsys, "demo-chi")
        assert code == 0
        assert out.count("[PASS]") == 3
        assert "|0000> + |0001> + |1111>" in out

    def test_demo_chi_perturbed_marks_failure(self, capsys):
        code, out, _ = self.run(capsys, "demo-chi", "--perturb")
        assert code != 0
        assert "[FAIL]" in out

    def test_invalid_flag_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["sibling-search", "x.state", "--budget", "lots"])
        assert exc.value.code == 2

    def test_unsupported_qubit_count_exits_2(self, tmp_path, capsys):
        path = tmp_path / "one.state"
        save_state(path, qm.basis_ket(1, 0))
        code, _, err = self.run(capsys, "analyze", str(path))
        assert code == 2
        assert "at least 2 qubits" in err
