"""Panels of one-qubit-removed marginals."""

import copy
import pickle
import sys
import threading

import numpy as np
import pytest

import qmarginal as qm
from conftest import random_ghz_orbit
from qmarginal.io import load_panel, save_panel
from qmarginal.tensors import PAULI_Z, DensityMatrix, _axis_first, _trace_positions, _traced_outer


def pure_marginal(psi, j):
    """rho_(j) of a pure state, from its axis-first view at qubit j."""
    a = _axis_first(psi.amplitudes, j)
    return _traced_outer(a, a)


class TestRdmPanel:
    def test_fewer_than_two_qubits_is_rejected_by_the_constructor(self):
        with pytest.raises(ValueError, match="panels need at least 2 qubits"):
            qm.RdmPanel(1, (qm.DensityMatrix((), [[1]]),))
        # both panel maps reach the constructor at n = 1
        with pytest.raises(ValueError, match="panels need at least 2 qubits"):
            qm.panel_of_pure(qm.basis_ket(1, 0))
        with pytest.raises(ValueError, match="panels need at least 2 qubits"):
            qm.panel_of_mixed(qm.DensityMatrix((1,), np.eye(2) / 2))

    def test_entry_reads_qubits_one_to_n(self):
        panel = qm.panel_of_pure(qm.haar_random_ket(3, 30))
        for j in (1, 2, 3, np.int64(2)):
            assert panel.entry(j) is panel.entries[j - 1]

    @pytest.mark.parametrize(
        "j, message",
        [(0, "qubit label 0 out of range"), (-1, "qubit label -1 out of range"),
         (4, "qubit label 4 out of range 1..3"), (1.0, "qubit label 1.0 is not an integer")],
    )
    def test_entry_rejects_a_label_outside_one_to_n(self, j, message):
        # the index once wrapped: entry(0) read entry 3, entry(-1) entry 2
        panel = qm.panel_of_pure(qm.haar_random_ket(3, 30))
        with pytest.raises(ValueError, match=message):
            panel.entry(j)


class TestPanelOfPure:
    def test_balanced_two_term_states_share_one_panel(self):
        a = qm.panel_of_pure(qm.eta_state(4, np.exp(1j * 0.4)))
        b = qm.panel_of_pure(qm.eta_state(4, np.exp(1j * 2.9)))
        assert qm.panels_equal(a, b, 1e-12)

    def test_product_basis_state(self):
        panel = qm.panel_of_pure(qm.basis_ket(2, 0))
        for j in (1, 2):
            np.testing.assert_allclose(panel.entry(j).entries, [[1, 0], [0, 0]], atol=1e-14)

    def test_haar_entries_have_rank_at_most_two(self):
        # rank bound follows from the two-term decomposition across the
        # omitted qubit; checked here by direct eigendecomposition
        for seed in range(5):
            panel = qm.panel_of_pure(qm.haar_random_ket(3, 900 + seed))
            for j in range(1, 4):
                evals = np.sort(np.linalg.eigvalsh(panel.entry(j).entries))[::-1]
                assert evals[2] < 1e-12
                assert evals[0] > 1e-3

    @pytest.mark.parametrize("n", range(3, 9))
    def test_entries_match_traced_density_and_pass_full_validation(self, n):
        # entries are checked from their Schmidt factor only; compare them
        # with the fully validated partial trace of |psi><psi|
        for psi in (qm.haar_random_ket(n, 950 + n), random_ghz_orbit(n, 960 + n)[0]):
            rho = psi.density()
            panel = qm.panel_of_pure(psi)
            for j in range(1, n + 1):
                entry = panel.entry(j)
                traced = qm.partial_trace(rho, {j})
                assert entry.qubit_labels == traced.qubit_labels
                assert np.max(np.abs(entry.entries - traced.entries)) < 1e-12
                qm.DensityMatrix(entry.qubit_labels, entry.entries)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 10])
    def test_entries_are_read_only_traced_outer_products(self, n):
        for psi in (qm.haar_random_ket(n, 970 + n), random_ghz_orbit(n, 980 + n)[0]):
            rho = psi.density()
            panel = qm.panel_of_pure(psi)
            for j in range(1, n + 1):
                entries = panel.entry(j).entries
                assert np.array_equal(entries, pure_marginal(psi, j))
                # an independent reference: the dense partial trace of |psi><psi|
                traced = qm.partial_trace(rho, {j}).entries
                np.testing.assert_allclose(entries, traced, rtol=0, atol=1e-15)
                assert not entries.flags.writeable

    def test_entry_labels_omit_exactly_one_qubit(self):
        panel = qm.panel_of_pure(qm.haar_random_ket(4, 12))
        assert panel.entry(2).qubit_labels == (1, 3, 4)
        assert panel.entry(2).entries.shape == (8, 8)


class TestPanelOfMixed:
    def test_maximally_mixed(self):
        n = 3
        rho = qm.DensityMatrix(tuple(range(1, n + 1)), np.eye(2**n) / 2**n)
        panel = qm.panel_of_mixed(rho)
        for j in range(1, n + 1):
            np.testing.assert_allclose(
                panel.entry(j).entries, np.eye(2 ** (n - 1)) / 2 ** (n - 1), atol=1e-14
            )

    def test_even_mixture_of_phase_family_members(self):
        e1 = qm.eta_state(3, np.exp(1j * 0.3))
        e2 = qm.eta_state(3, np.exp(1j * 1.8))
        mix = 0.5 * e1.density().entries + 0.5 * e2.density().entries
        panel = qm.panel_of_mixed(qm.DensityMatrix((1, 2, 3), mix))
        assert qm.panels_equal(panel, qm.panel_of_pure(e1), 1e-12)

    def test_rank_one_agrees_with_pure_map(self):
        psi = qm.haar_random_ket(3, 44)
        a = qm.panel_of_mixed(psi.density())
        b = qm.panel_of_pure(psi)
        for j in range(1, 4):
            np.testing.assert_allclose(a.entry(j).entries, b.entry(j).entries, atol=1e-13)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_entries_are_the_partial_traces_bit_for_bit(self, n):
        rho = qm.DensityMatrix(tuple(range(1, n + 1)), _random_mixed(n, 45 + n))
        panel = qm.panel_of_mixed(rho)
        for j in range(1, n + 1):
            want = qm.partial_trace(rho, {j})
            assert panel.entry(j).qubit_labels == want.qubit_labels
            assert panel.entry(j).entries.tobytes() == want.entries.tobytes()
            assert not panel.entry(j).entries.flags.writeable

    def test_only_a_validated_matrix_reaches_it(self):
        # panel_of_mixed checks no entry: its input was validated when built,
        # so a raw array, valid or not, is refused before any entry is made
        bad = np.diag([0.6, 0.5, -0.1, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="negative eigenvalue"):
            qm.DensityMatrix((1, 2), bad)
        for raw in (bad, np.eye(4, dtype=complex) / 4):
            with pytest.raises(TypeError, match="expected a DensityMatrix"):
                qm.panel_of_mixed(raw)


class TestPanelsEqual:
    def test_distinct_marginals_detected(self):
        a = qm.panel_of_pure(qm.basis_ket(3, 0))
        b = qm.panel_of_pure(qm.ghz_state(3))
        assert not qm.panels_equal(a, b, 1e-6)

    def test_reflexive_symmetric_monotone(self):
        pa = qm.panel_of_pure(qm.haar_random_ket(3, 5))
        pb = qm.panel_of_pure(qm.haar_random_ket(3, 6))
        assert qm.panels_equal(pa, pa, 1e-15)
        assert qm.panels_equal(pa, pb, 1e-9) == qm.panels_equal(pb, pa, 1e-9)
        dist = qm.panel_distance(pa, pb)
        assert not qm.panels_equal(pa, pb, dist * 0.99)
        assert qm.panels_equal(pa, pb, dist * 1.01)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            qm.panels_equal(
                qm.panel_of_pure(qm.haar_random_ket(2, 1)),
                qm.panel_of_pure(qm.haar_random_ket(3, 1)),
            )

    @pytest.mark.parametrize("tol", [-1e-6, 0.0, float("nan")])
    def test_rejects_tolerance_that_is_not_positive(self, tol):
        # a NaN tol once called a panel unequal to itself, and 0.0 equal
        panel = qm.panel_of_pure(qm.haar_random_ket(3, 1))
        with pytest.raises(ValueError, match="tol must be positive"):
            qm.panels_equal(panel, panel, tol)


class TestSubsetEqual:
    def setup_method(self):
        self.chi = qm.chi_state()
        self.partner = qm.apply_local(qm.SingleQubitUnitary(PAULI_Z, 1), self.chi)

    def test_three_marginals_match(self):
        assert qm.subset_equal(self.chi, self.partner, {1, 2, 3}, 1e-10)

    def test_fourth_marginal_differs(self):
        assert not qm.subset_equal(self.chi, self.partner, {1, 2, 3, 4}, 1e-10)

    def test_any_subset_matches_itself(self):
        psi = qm.haar_random_ket(4, 31)
        for kept in ({1}, {2, 4}, {1, 2, 3, 4}):
            assert qm.subset_equal(psi, psi, kept, 1e-15)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            qm.subset_equal(self.chi, self.partner, {5})

    @pytest.mark.parametrize("tol", [-1e-6, 0.0, float("nan")])
    def test_rejects_tolerance_that_is_not_positive(self, tol):
        # a NaN tol once called two unrelated Haar states equal
        a, b = qm.haar_random_ket(3, 1), qm.haar_random_ket(3, 2)
        with pytest.raises(ValueError, match="tol must be positive"):
            qm.subset_equal(a, b, {1, 2, 3}, tol)


class TestPanelSubset:
    def test_requires_nonempty_kept(self):
        panel = qm.panel_of_pure(qm.ghz_state(3))
        with pytest.raises(ValueError):
            qm.PanelSubset(panel, frozenset())

    def test_view_comparison(self):
        chi = qm.chi_state()
        partner = qm.apply_local(qm.SingleQubitUnitary(PAULI_Z, 1), chi)
        sub = qm.PanelSubset(qm.panel_of_pure(chi), frozenset({1, 2, 3}))
        assert sub.matches(qm.panel_of_pure(partner), 1e-10)
        full = qm.PanelSubset(qm.panel_of_pure(chi), frozenset({1, 2, 3, 4}))
        assert not full.matches(qm.panel_of_pure(partner), 1e-10)

    @pytest.mark.parametrize("tol", [-1e-6, 0.0, float("nan")])
    def test_rejects_tolerance_that_is_not_positive(self, tol):
        panel = qm.panel_of_pure(qm.haar_random_ket(3, 1))
        with pytest.raises(ValueError, match="tol must be positive"):
            qm.PanelSubset(panel, frozenset({1})).matches(panel, tol)


TOL_GRID = [10.0**-k for k in range(6, 17)]


def _random_mixed(n, seed):
    """A full-rank density matrix on n qubits, as a plain array."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((2**n, 2**n)) + 1j * rng.standard_normal((2**n, 2**n))
    rho = g @ g.conj().T
    return 0.5 * (rho + rho.conj().T) / np.trace(rho).real


def _built(panel):
    """Which entries have built their dense matrix."""
    return ["entries" in vars(e) for e in panel.entries]


def _sibling_pair(n, seed):
    psi, _ = random_ghz_orbit(n, seed)
    return psi, qm.sibling(psi, qm.classify(psi).certificate)


def _near_pair(n, seed, delta):
    """A GHZ orbit and its sibling moved by delta in a random direction."""
    psi, sib = _sibling_pair(n, seed)
    v = [1.0, 1j] @ np.random.default_rng(seed).standard_normal((2, 2**n))
    return psi, qm.ket(sib.amplitudes + delta * v / np.linalg.norm(v))


def _dense_distance(a, b, kept):
    """The reference: largest entrywise deviation over the kept marginals."""
    return max(np.max(np.abs(pure_marginal(a, j) - pure_marginal(b, j))) for j in kept)


class TestFactoredPanels:
    """Pure panels keep their factors; equality is certified from them and
    falls back to the dense max-entry comparison."""

    @pytest.mark.parametrize("n", [3, 5, 8])
    @pytest.mark.parametrize("kind", ["sibling", "haar", "near"])
    def test_panels_equal_is_the_dense_comparison(self, n, kind):
        psi, _ = random_ghz_orbit(n, 40 + n)
        other = {
            "sibling": lambda: _sibling_pair(n, 40 + n)[1],
            "haar": lambda: qm.haar_random_ket(n, 50 + n),
            "near": lambda: _near_pair(n, 40 + n, 1e-9)[1],
        }[kind]()
        dist = qm.panel_distance(qm.panel_of_pure(psi), qm.panel_of_pure(other))
        for tol in TOL_GRID:
            pa, pb = qm.panel_of_pure(psi), qm.panel_of_pure(other)
            assert qm.panels_equal(pa, pb, tol) == (dist <= tol)

    def test_near_equal_pair_falls_back_to_the_dense_comparison(self):
        psi, other = _near_pair(8, 48, 1e-9)
        pa, pb = qm.panel_of_pure(psi), qm.panel_of_pure(other)
        tol = 1e-10
        frob = [np.linalg.norm(x.entries - y.entries) for x, y in zip(pa.entries, pb.entries)]
        # no entry pair can be certified, yet every one is within tol
        assert min(frob) > tol
        assert qm.panel_distance(pa, pb) <= tol
        pa, pb = qm.panel_of_pure(psi), qm.panel_of_pure(other)
        assert qm.panels_equal(pa, pb, tol)
        assert all(_built(pa)) and all(_built(pb))

    @pytest.mark.parametrize("source", ["mixed", "file"])
    def test_factored_against_dense_panel_of_the_same_state(self, source, tmp_path):
        psi, sib = _sibling_pair(5, 61)
        if source == "mixed":
            dense = qm.panel_of_mixed(sib.density())
        else:
            save_panel(tmp_path / "sib.panel", qm.panel_of_pure(sib))
            dense = load_panel(tmp_path / "sib.panel")
        assert not any(e._factor is not None for e in dense.entries)
        haar = qm.panel_of_pure(qm.haar_random_ket(5, 62))
        for tol in TOL_GRID[:8]:  # down to 1e-13, above the rounding of either path
            factored = qm.panels_equal(qm.panel_of_pure(psi), qm.panel_of_pure(sib), tol)
            assert factored
            assert qm.panels_equal(qm.panel_of_pure(psi), dense, tol) == factored
            assert qm.panels_equal(dense, qm.panel_of_pure(psi), tol) == factored
            assert not qm.panels_equal(haar, dense, tol)

    @pytest.mark.parametrize("n", [6, 8])
    def test_loaded_factors_compare_like_dense(self, n, tmp_path):
        psi, sib = _sibling_pair(n, 90 + n)
        save_panel(tmp_path / "sib.panel", qm.panel_of_pure(sib))
        loaded = load_panel(tmp_path / "sib.panel")
        assert all(e._factor is not None and 0 < e._remainder <= 1e-13 for e in loaded.entries)
        for other in (psi, _near_pair(n, 90 + n, 1e-9)[1], qm.haar_random_ket(n, 95 + n)):
            dist = qm.panel_distance(qm.panel_of_pure(other), loaded)
            for tol in TOL_GRID:
                assert qm.panels_equal(qm.panel_of_pure(other), loaded, tol) == (dist <= tol)
                assert qm.panels_equal(loaded, qm.panel_of_pure(other), tol) == (dist <= tol)

    def test_remainder_keeps_a_factor_from_proving_too_much(self):
        # an entry whose factor is psi's own, but whose matrix is moved by
        # delta: the factors agree exactly, the entries do not
        psi = qm.haar_random_ket(6, 97)
        exact = qm.panel_of_pure(psi)
        delta = 1e-8
        e = exact.entry(1)
        moved = np.array(e.entries)
        moved[0, 0] += delta
        moved[1, 1] -= delta
        entries = (DensityMatrix._trusted(e.qubit_labels, moved, certified=(e._factor.copy(), delta * np.sqrt(2))),)
        panel = qm.RdmPanel(6, entries + exact.entries[1:])
        for tol in (delta / 2, 2 * delta):
            assert qm.panels_equal(panel, qm.panel_of_pure(psi), tol) == (delta <= tol)

    def test_n12_sibling_check_builds_no_entry(self):
        psi, sib = _sibling_pair(12, 71)
        pa, pb = qm.panel_of_pure(psi), qm.panel_of_pure(sib)
        assert qm.panels_equal(pa, pb)
        assert not any(_built(pa) + _built(pb))

    def test_deepcopy_and_repr_of_unbuilt_entries(self):
        psi = qm.haar_random_ket(5, 72)
        panel = qm.panel_of_pure(psi)
        clones = (copy.deepcopy(panel), pickle.loads(pickle.dumps(panel)))
        for clone in clones:
            assert not any(_built(clone))
        assert repr(clones[0].entry(2)).startswith("DensityMatrix(qubit_labels=(1, 3, 4, 5)")
        for j in range(1, 6):
            expected = pure_marginal(psi, j)
            for p in (panel, *clones):
                entries = p.entry(j).entries
                assert entries.tobytes() == expected.tobytes()
                assert not entries.flags.writeable
                assert p.entry(j).entries is entries  # built once, then cached

    def test_concurrent_first_reads_agree(self):
        # a race on the first read computes the same bits twice; every
        # reader must see the reference matrix, read-only
        psi = qm.haar_random_ket(8, 73)
        expected = [pure_marginal(psi, j).tobytes() for j in range(1, 9)]
        panel = qm.panel_of_pure(psi)
        seen, start = [], threading.Barrier(4)

        def read():
            start.wait(timeout=10)
            for e in panel.entries:
                seen.append((e.qubit_labels, e.entries.tobytes(), e.entries.flags.writeable))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(seen) == 4 * 8
        for labels, data, writeable in seen:
            j = next(q for q in range(1, 9) if q not in labels)
            assert data == expected[j - 1] and not writeable
        assert all(e.entries.tobytes() == expected[j] for j, e in enumerate(panel.entries))

    def test_subset_comparisons_are_the_dense_comparison(self):
        chi = qm.chi_state()
        pairs = [
            (chi, qm.apply_local(qm.SingleQubitUnitary(PAULI_Z, 1), chi)),
            _sibling_pair(4, 81),
            _sibling_pair(6, 82),
            _near_pair(6, 83, 1e-9),
        ]
        for a, b in pairs:
            for kept in ({1, 2, 3}, {4}, set(range(1, a.n + 1))):
                dist = _dense_distance(a, b, kept)
                for tol in TOL_GRID:
                    sub = qm.PanelSubset(qm.panel_of_pure(a), frozenset(kept))
                    assert sub.matches(qm.panel_of_pure(b), tol) == (dist <= tol)
                    assert qm.subset_equal(a, b, kept, tol) == (dist <= tol)


def _fold_consistency(panel):
    """The reference: each one-qubit marginal traced down one position at a time."""
    singles = {m: [] for m in range(1, panel.n + 1)}
    for entry in panel.entries:
        k = entry.k
        for p, m in enumerate(entry.qubit_labels):
            others = [q for q in range(k) if q != p]
            singles[m].append(_trace_positions(entry.entries, others))
    return max(float(np.max(np.abs(ms[0] - other))) for ms in singles.values() for other in ms[1:])


def _rotated_entry_panel(n, seed):
    """A pure panel whose entry 2 is rotated on qubit 1 by 0.01 rad."""
    panel = qm.panel_of_pure(qm.haar_random_ket(n, seed))
    c, s = np.cos(0.01), np.sin(0.01)
    u = np.kron(np.array([[c, -s], [s, c]]), np.eye(2 ** (n - 2)))
    entries = list(panel.entries)
    entries[1] = qm.DensityMatrix(entries[1].qubit_labels, u @ entries[1].entries @ u.conj().T)
    return qm.RdmPanel(n, tuple(entries))


class TestCrossEntryConsistency:
    @pytest.mark.parametrize("n", [3, 5, 8])
    @pytest.mark.parametrize("kind", ["haar", "perturbed", "mixed"])
    @pytest.mark.parametrize("loaded", [False, True])
    def test_matches_the_fold_reference(self, n, kind, loaded, tmp_path):
        if kind == "haar":
            panel = qm.panel_of_pure(qm.haar_random_ket(n, 210 + n))
        elif kind == "perturbed":
            panel = _rotated_entry_panel(n, 220 + n)
        else:
            panel = qm.panel_of_mixed(qm.DensityMatrix(tuple(range(1, n + 1)), _random_mixed(n, 230 + n)))
        if loaded:
            # entries with a factor that is not exact: read from the matrix
            save_panel(tmp_path / "panel.txt", panel)
            panel = load_panel(tmp_path / "panel.txt")
        # one pass per position sums in another order than the fold
        assert abs(qm.panel_consistency(panel) - _fold_consistency(panel)) <= 4 * 2.0**-52

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_single_qubit_marginals_agree_across_entries(self, n):
        psi = qm.haar_random_ket(n, 200 + n)
        panel = qm.panel_of_pure(psi)
        assert qm.panel_consistency(panel) < 1e-10

    def test_pairwise_traced_entries_agree(self):
        n = 4
        psi = qm.haar_random_ket(n, 205)
        panel = qm.panel_of_pure(psi)
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                if j == k:
                    continue
                for m in range(1, n + 1):
                    if m in (j, k):
                        continue
                    from_j = qm.partial_trace(
                        panel.entry(j), set(panel.entry(j).qubit_labels) - {m}
                    )
                    from_k = qm.partial_trace(
                        panel.entry(k), set(panel.entry(k).qubit_labels) - {m}
                    )
                    assert np.max(np.abs(from_j.entries - from_k.entries)) < 1e-10
