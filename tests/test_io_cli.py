"""File formats and the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qmarginal as qm
from conftest import random_ghz_orbit
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

    def test_import_does_not_load_scipy_optimize(self):
        src = str(Path(qm.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        proc = subprocess.run(
            [sys.executable, "-c",
             "import qmarginal.cli, sys; assert 'scipy.optimize' not in sys.modules"],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr

    def test_sibling_search_runs_without_scipy(self):
        src = str(Path(qm.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        code = (
            "import sys, qmarginal as qm\n"
            "assert qm.search_sibling(qm.ghz_state(3)).found\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "assert not loaded, loaded\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

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
