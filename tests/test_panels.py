"""Panels of one-qubit-removed marginals."""

import numpy as np
import pytest

import qmarginal as qm
from conftest import random_ghz_orbit
from qmarginal.tensors import PAULI_Z, _traced_outer


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
            a = psi.amplitudes
            panel = qm.panel_of_pure(psi)
            for j in range(1, n + 1):
                entries = panel.entry(j).entries
                assert np.array_equal(entries, _traced_outer(a, a, n, j))
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


class TestCrossEntryConsistency:
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
