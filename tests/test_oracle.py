"""Brute-force sibling search and the random-state generators."""

import numpy as np
import pytest

import qmarginal as qm
from conftest import mixed_corpus, random_ghz_orbit
from qmarginal.oracle import random_unitary_2x2
from qmarginal.unitary_fit import PanelObjective, fit_pivot_unitary, grid_starts


class TestSearchSibling:
    def test_balanced_two_term_state_has_witnesses(self):
        report = qm.search_sibling(qm.ghz_state(3))
        assert report.found
        unitary, partner = report.witness
        assert qm.panels_equal(
            qm.panel_of_pure(qm.ghz_state(3)), qm.panel_of_pure(partner), 1e-6
        )
        assert not qm.equal_up_to_phase(partner, qm.ghz_state(3), 1e-6)
        # the witness family is diagonal in the standard basis here
        assert abs(unitary.entries[0, 1]) < 1e-5
        assert abs(unitary.entries[1, 0]) < 1e-5

    def test_haar_state_has_none(self):
        report = qm.search_sibling(qm.haar_random_ket(3, 317))
        assert not report.found
        assert report.best_residual > 1e-4
        assert report.trials == 64

    def test_w_state_has_none(self):
        report = qm.search_sibling(qm.ket([0, 1, 1, 0, 1, 0, 0, 0]), budget=64)
        assert not report.found
        assert report.best_residual > 1e-4

    def test_zero_budget(self):
        report = qm.search_sibling(qm.ghz_state(3), budget=0)
        assert not report.found
        assert report.trials == 0

    def test_rotated_orbits_found(self):
        for n in (3, 4):
            orbit, _ = random_ghz_orbit(n, 2200 + n)
            report = qm.search_sibling(orbit)
            assert report.found, n

    def test_ghz_orbit_witness_at_six_qubits(self):
        orbit, _ = random_ghz_orbit(6, 7600)
        report = qm.search_sibling(orbit)
        assert report.found
        _, partner = report.witness
        assert qm.panel_distance(qm.panel_of_pure(orbit), qm.panel_of_pure(partner)) <= 1e-8
        assert not qm.equal_up_to_phase(partner, orbit, 1e-6)

    def test_haar_state_has_none_at_six_qubits(self):
        report = qm.search_sibling(qm.haar_random_ket(6, 7601))
        assert not report.found
        assert report.best_residual > 1e-4

    def test_product_states_have_none(self):
        # unitaries moving only the factor reproduce the panel but give the
        # same state back, so the scalar exclusion must reject them
        report = qm.search_sibling(qm.random_product_ket(3, 23))
        assert not report.found


class TestGenerators:
    def test_haar_determinism(self):
        a = qm.haar_random_ket(4, 9)
        b = qm.haar_random_ket(4, 9)
        np.testing.assert_array_equal(a.amplitudes, b.amplitudes)

    def test_haar_norm(self):
        assert abs(np.linalg.norm(qm.haar_random_ket(5, 10).amplitudes) - 1) < 1e-12

    def test_haar_seeds_give_distinct_states(self):
        flagged = 0
        for seed in range(20):
            a = qm.haar_random_ket(3, 3000 + seed)
            b = qm.haar_random_ket(3, 4000 + seed)
            if abs(a.overlap(b)) >= 0.999:
                flagged += 1
        assert flagged == 0

    def test_orbit_preserves_verdict_and_dimension(self):
        psi = qm.ghz_state(4, 0.6, 0.8)
        orbit = qm.random_lu_orbit(psi, seed=31)
        assert qm.classify(orbit).ghz_class == qm.classify(psi).ghz_class
        assert (
            qm.stabilizer_subalgebra(orbit).dimension
            == qm.stabilizer_subalgebra(psi).dimension
        )

    def test_orbit_preserves_marginal_spectra(self):
        psi = qm.haar_random_ket(4, 32)
        orbit = qm.random_lu_orbit(psi, seed=33)
        assert abs(np.linalg.norm(orbit.amplitudes) - 1.0) < 1e-12
        for j in range(4):
            a = np.sort(qm.classify(psi).diagnostics.spectra[j])
            b = np.sort(qm.classify(orbit).diagnostics.spectra[j])
            np.testing.assert_allclose(a, b, atol=1e-10)


class TestChiState:
    def test_amplitudes(self):
        chi = qm.chi_state()
        assert chi.amplitudes[0] == pytest.approx(1 / np.sqrt(3))
        assert chi.amplitudes[1] == pytest.approx(1 / np.sqrt(3))
        assert chi.amplitudes[15] == pytest.approx(1 / np.sqrt(3))
        assert abs(chi.amplitudes[2:15]).max() == 0.0

    def test_determined(self):
        assert not qm.classify(qm.chi_state()).ghz_class

    def test_partial_panel_facts(self):
        chi = qm.chi_state()
        partner = qm.apply_local(
            qm.SingleQubitUnitary(np.diag([1.0, -1.0]), 1), chi
        )
        assert qm.subset_equal(chi, partner, {1, 2, 3}, 1e-10)
        assert not qm.subset_equal(chi, partner, {4}, 1e-10)


class TestLuEquivalenceCheck:
    def test_sibling_pair(self):
        g = qm.ghz_state(3)
        partner = qm.sibling(g, qm.classify(g).certificate)
        transports = qm.lu_equivalence_check(g, partner)
        assert transports is not None and len(transports) == 3
        for t in transports:
            mat = t.entries
            assert abs(mat[0, 1]) < 1e-9 and abs(mat[1, 0]) < 1e-9
            assert abs(mat[0, 0] + mat[1, 1]) < 1e-9

    def test_identical_states(self):
        psi = qm.haar_random_ket(3, 5)
        transports = qm.lu_equivalence_check(psi, psi)
        for t in transports:
            assert abs(abs(np.trace(t.entries)) - 2.0) < 1e-9

    def test_balanced_two_term_pair_gives_diagonal_phases(self):
        e1 = qm.eta_state(4, np.exp(1j * 0.2))
        e2 = qm.eta_state(4, np.exp(1j * 1.4))
        transports = qm.lu_equivalence_check(e1, e2)
        assert transports is not None
        for t in transports:
            assert abs(t.entries[0, 1]) < 1e-8 and abs(t.entries[1, 0]) < 1e-8
            assert qm.equal_up_to_phase(qm.apply_local(t, e1), e2, 1e-8)

    def test_rejects_panel_mismatch(self):
        with pytest.raises(ValueError):
            qm.lu_equivalence_check(qm.haar_random_ket(3, 1), qm.haar_random_ket(3, 2))

    @pytest.mark.parametrize("tol", [1e-12, 1e-8])
    def test_transports_at_tolerances_either_side_of_the_floor(self, tol):
        # extract_local_unitary floors its overlap threshold at 1e-10; below
        # that floor each transport must still reach overlap 1 - tol
        psi, _ = random_ghz_orbit(5, 91)
        partner = qm.sibling(psi, qm.classify(psi).certificate)
        for a, b in ((psi, partner), (psi, psi)):
            transports = qm.lu_equivalence_check(a, b, tol)
            assert [t.target for t in transports] == [1, 2, 3, 4, 5]
            for t in transports:
                assert np.array_equal(t.entries, qm.extract_local_unitary(a, b, t.target, tol).entries)
                assert abs(qm.apply_local(t, a).overlap(b)) >= 1.0 - tol

    @pytest.mark.parametrize("tol", [-1e-6, 0.0, float("nan")])
    def test_rejects_tolerance_that_is_not_positive(self, tol):
        a, b = qm.haar_random_ket(3, 1), qm.haar_random_ket(3, 2)
        with pytest.raises(ValueError, match="tol must be positive"):
            qm.lu_equivalence_check(a, b, tol)


class TestPanelObjective:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_marginals_match_panel_of_transported_state(self, n):
        rng = np.random.default_rng(800 + n)
        psi = qm.haar_random_ket(n, 810 + n)
        objective = PanelObjective(psi.amplitudes, n)
        for _ in range(3):
            u = random_unitary_2x2(rng)
            moved = qm.apply_local(qm.SingleQubitUnitary(u, 1), psi)
            panel = qm.panel_of_pure(moved)
            marginals = objective.marginals(u)
            assert sorted(marginals) == list(range(2, n + 1))
            for k, rho in marginals.items():
                np.testing.assert_allclose(
                    rho, panel.entry(k).entries, atol=1e-13, rtol=0
                )


class TestDescent:
    @pytest.mark.parametrize("n", [3, 4])
    def test_grid_descents_stay_unitary_and_report_their_cost(self, n):
        orbit, _ = random_ghz_orbit(n, 2600 + n)
        objective = PanelObjective(orbit.amplitudes, n)
        results = fit_pivot_unitary(objective, grid_starts())
        assert len(results) == len(grid_starts())
        for result in results:
            u = result.unitary
            assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12
            res, _ = objective.residuals(u)
            assert result.cost == pytest.approx(float(np.sum(res**2)), rel=1e-12, abs=0)

    @pytest.mark.parametrize(
        "psi",
        [qm.haar_random_ket(3, 317), qm.random_product_ket(3, 23)],
        ids=["haar", "product"],
    )
    def test_determined_states_end_every_descent_on_the_scalar_locus(self, psi):
        report = qm.search_sibling(psi)
        assert (report.found, report.best_residual, report.trials) == (False, np.inf, 64)

    def test_w_state_best_residual(self):
        report = qm.search_sibling(qm.ket([0, 1, 1, 0, 1, 0, 0, 0]))
        assert not report.found
        assert report.trials == 64
        assert report.best_residual == pytest.approx(2 / np.sqrt(3), abs=1e-6)


class TestStackedDescent:
    """The stacked normal equations and the oracle's blocks of 16 starts."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_normal_equations_match_residuals(self, n):
        # a Haar state at Haar-random U: a residual well away from zero
        rng = np.random.default_rng(900 + n)
        psi = qm.haar_random_ket(n, 910 + n)
        objective = PanelObjective(psi.amplitudes, n)
        unitaries = np.array([random_unitary_2x2(rng) for _ in range(4)])
        costs, grads, normals = objective.normal_equations(unitaries)
        assert costs.shape == (4,) and grads.shape == (4, 3) and normals.shape == (4, 3, 3)
        for u, cost, grad, normal in zip(unitaries, costs, grads, normals):
            res, jac = objective.residuals(u)
            assert float(res @ res) > 1e-3
            assert cost == pytest.approx(float(res @ res), rel=1e-12, abs=0)
            np.testing.assert_allclose(grad, jac.T @ res, rtol=0, atol=1e-12 * np.abs(jac.T @ res).max())
            np.testing.assert_allclose(normal, jac.T @ jac, rtol=0, atol=1e-12 * np.abs(jac.T @ jac).max())

    @pytest.mark.parametrize(
        "psi",
        [qm.random_product_ket(2, s) for s in range(3)]
        + [qm.ghz_state(2), random_ghz_orbit(2, 7205, balanced=True)[0]],
        ids=["product-0", "product-1", "product-2", "bell", "bell-orbit"],
    )
    def test_block_with_zero_gradient_starts_descends(self, psi):
        # the identity start sits on the exact minimum, where the gradient
        # vanishes; on a maximally entangled pair the Jacobian vanishes at
        # every start.  Such starts must stop before their system is solved
        objective = PanelObjective(psi.amplitudes, 2)
        results = fit_pivot_unitary(objective, grid_starts())
        assert len(results) == len(grid_starts())
        for result in results:
            u = result.unitary
            assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12
            assert result.cost < 1e-24

    def test_empty_start_list(self):
        psi = qm.haar_random_ket(3, 5)
        objective = PanelObjective(psi.amplitudes, 3)
        assert fit_pivot_unitary(objective, []) == []

    @pytest.mark.parametrize("budget", [0, 1, 5, 16, 17, 20])
    def test_partial_blocks_spend_the_whole_budget(self, budget):
        report = qm.search_sibling(qm.haar_random_ket(3, 317), budget=budget)
        assert (report.found, report.trials) == (False, budget)

    def test_trials_count_starts_up_to_the_witness(self):
        assert qm.search_sibling(qm.ghz_state(3)).trials == 6
        orbit, _ = random_ghz_orbit(4, 7500)
        assert qm.search_sibling(orbit).trials == 2

    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError, match="budget"):
            qm.search_sibling(qm.ghz_state(3), budget=-1)

    @pytest.mark.parametrize("tol", [-1e-6, 0.0, float("nan")])
    def test_rejects_tolerance_that_is_not_positive(self, tol):
        # a negative tol once passed psi itself off as a witness
        with pytest.raises(ValueError, match="tol"):
            qm.search_sibling(qm.haar_random_ket(3, 1), tol=tol)


class TestAgreement:
    """Search/classifier agreement over the mixed corpus: the brute-force
    hunt finds a sibling exactly for the GHZ-class states."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_search_matches_classifier_at_scale(self, n):
        per_kind = 50 if n == 2 else 40  # >= 200 states per qubit count
        disagreements = []
        for kind, psi in mixed_corpus(n, per_kind, 7000 + 100 * n):
            found = qm.search_sibling(psi).found
            ghz = qm.classify(psi).ghz_class
            if found != ghz:
                disagreements.append((kind, found, ghz))
        assert not disagreements, disagreements[:5]

    def test_found_and_trials_pinned_on_a_fixed_corpus(self):
        # recorded from the descent on the dense marginals, which the
        # compressed normal equations must reproduce
        expected = [(True, 2), (True, 2), (False, 64), (False, 64), (False, 64)] * 3
        reports = [
            qm.search_sibling(psi)
            for n in (3, 4, 5)
            for _, psi in mixed_corpus(n, 1, 7700 + 100 * n)
        ]
        assert [(r.found, r.trials) for r in reports] == expected

    def test_witness_states_are_valid(self):
        orbit, _ = random_ghz_orbit(4, 7500)
        report = qm.search_sibling(orbit)
        assert report.found
        _, partner = report.witness
        assert qm.panels_equal(qm.panel_of_pure(orbit), qm.panel_of_pure(partner), 1e-6)
        assert not qm.equal_up_to_phase(partner, orbit, 1e-6)
