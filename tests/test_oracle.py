"""Brute-force sibling search and the random-state generators."""

import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qmarginal as qm
from conftest import mixed_corpus, random_ghz_orbit
from qmarginal import unitary_fit
from qmarginal.oracle import random_unitary_2x2
from qmarginal.tensors import PAULIS, _axis_restore, _qubit_factors, _traced_outer
from qmarginal.unitary_fit import PanelObjective, fit_pivot_unitary, grid_starts, random_starts


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
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_marginals_match_panel_of_transported_state(self, n):
        # the residual is rho_(k) of the moved state minus psi's own, k = 2..n,
        # as (re, im) pairs: checked against panel_of_pure of both states
        rng = np.random.default_rng(800 + n)
        psi = qm.haar_random_ket(n, 810 + n)
        objective = PanelObjective(psi.amplitudes)
        own = qm.panel_of_pure(psi)
        dim = 2 ** (n - 1)
        for _ in range(3):
            u = random_unitary_2x2(rng)
            moved = qm.panel_of_pure(qm.apply_local(qm.SingleQubitUnitary(u, 1), psi))
            res = objective.residuals(u)
            diffs = res.view(complex).reshape(n - 1, dim, dim)
            for k, diff in zip(range(2, n + 1), diffs):
                np.testing.assert_allclose(
                    diff, moved.entry(k).entries - own.entry(k).entries, atol=1e-13, rtol=0
                )


class TestDescent:
    @pytest.mark.parametrize("n", [3, 4])
    def test_grid_descents_stay_unitary_and_report_their_cost(self, n):
        orbit, _ = random_ghz_orbit(n, 2600 + n)
        objective = PanelObjective(orbit.amplitudes)
        results = fit_pivot_unitary(objective, grid_starts())
        assert len(results) == len(grid_starts())
        for result in results:
            u = result.unitary
            assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12
            res = objective.residuals(u)
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


def dense_jacobian(objective, unitary):
    """Reference: the Jacobian of ``objective.residuals`` at U in the X, Y,
    Z step directions, one column per sigma_a, the derivative along
    exp(i t sigma_a) U at t = 0.  With a the axis-first view of U psi and
    b_a that of the tangent i sigma_a U psi, d rho_(k) = b_a^T conj(a) plus
    its adjoint, each its own traced product."""
    moved = _qubit_factors(_axis_restore(unitary @ objective.factor, 1))[1:]
    columns = []
    for p in PAULIS:
        tangent = _qubit_factors(_axis_restore(1j * p @ unitary @ objective.factor, 1))[1:]
        columns.append(
            (_traced_outer(tangent, moved) + _traced_outer(moved, tangent)).view(np.float64).reshape(-1)
        )
    return np.stack(columns, axis=1)


def su2_reference(t):
    """p and q of exp(i t . sigma) through np.linalg.norm and np.sinc."""
    r = np.linalg.norm(t, axis=-1)
    st = np.sinc(r / np.pi)[..., None] * t
    return np.cos(r) + 1j * st[..., 2], st[..., 1] + 1j * st[..., 0]


def turn_reference(t, unitaries):
    """exp(i t . sigma) U, both rows built and then joined by np.stack."""
    p, q = (x[:, None] for x in su2_reference(t))
    top, bottom = unitaries[:, 0], unitaries[:, 1]
    return np.stack([p * top + q * bottom, p.conj() * bottom - q.conj() * top], axis=1)


def assert_same_bits(got, want):
    """Equal shapes and equal bytes: signed zeros and NaN payloads too."""
    assert got.shape == want.shape and got.dtype == want.dtype
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


class TestStackedDescent:
    """The stacked normal equations, and a search that descends its whole
    budget as one stack."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8])
    def test_normal_equations_match_residuals(self, n):
        # a Haar state at Haar-random U: a residual well away from zero
        rng = np.random.default_rng(900 + n)
        psi = qm.haar_random_ket(n, 910 + n)
        objective = PanelObjective(psi.amplitudes)
        unitaries = np.array([random_unitary_2x2(rng) for _ in range(4)])
        costs, grads, normals = objective.normal_equations(unitaries)
        assert costs.shape == (4,) and grads.shape == (4, 3) and normals.shape == (4, 3, 3)
        for u, cost, grad, normal in zip(unitaries, costs, grads, normals):
            res, jac = objective.residuals(u), dense_jacobian(objective, u)
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
        objective = PanelObjective(psi.amplitudes)
        results = fit_pivot_unitary(objective, grid_starts())
        assert len(results) == len(grid_starts())
        for result in results:
            u = result.unitary
            assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12
            assert result.cost < 1e-24

    @pytest.mark.parametrize(
        "psi",
        [qm.haar_random_ket(3, 317), random_ghz_orbit(4, 7500)[0], qm.ket([0, 1, 1, 0, 1, 0, 0, 0])],
        ids=["haar", "ghz-orbit", "w"],
    )
    def test_each_start_follows_its_own_path_in_a_stack(self, psi):
        # no product in a pass mixes two starts, so a start of a stack of 64
        # ends where it ends alone
        objective = PanelObjective(psi.amplitudes)
        starts = grid_starts() + random_starts(np.random.default_rng(0), 48)
        stacked = fit_pivot_unitary(objective, starts)
        for start, result in zip(starts, stacked):
            (alone,) = fit_pivot_unitary(objective, [start])
            np.testing.assert_allclose(result.unitary, alone.unitary, rtol=0, atol=1e-12)
            assert result.cost == pytest.approx(alone.cost, rel=1e-12, abs=1e-28)

    def test_step_turns_each_unitary_by_its_rotation(self):
        # exp(i t . sigma) from an eigendecomposition is the reference for
        # the closed form, and its product with U for the entrywise turn
        rng = np.random.default_rng(990)
        steps = rng.normal(size=(9, 3))
        steps[0] = 0.0
        unitaries = np.array([random_unitary_2x2(rng) for _ in range(9)])
        generators = np.einsum("ma,aij->mij", steps, np.array(PAULIS))
        values, vectors = np.linalg.eigh(generators)
        expected = np.einsum("mij,mj,mkj->mik", vectors, np.exp(1j * values), vectors.conj())
        # the chart: a global phase times the identity turned by each step
        theta = np.column_stack([np.linspace(-np.pi, np.pi, 9), steps])
        np.testing.assert_allclose(
            unitary_fit.unitary_from_params(theta),
            np.exp(1j * theta[:, :1, None]) * expected,
            rtol=0, atol=1e-14,
        )
        np.testing.assert_allclose(
            unitary_fit._turn(steps, unitary_fit._lengths(steps), unitaries),
            expected @ unitaries,
            rtol=0, atol=1e-14,
        )

    @pytest.mark.parametrize("m", [0, 1, 3, 64])
    def test_turn_is_the_stacked_form_bit_for_bit(self, m):
        # the turn writes both rows into one array, with the floats of the
        # reference built from np.linalg.norm, np.sinc and np.stack
        rng = np.random.default_rng(1700 + m)
        steps = rng.normal(size=(m, 3)) * rng.choice([1e-9, 1e-3, 1.0, 10.0], size=(m, 1))
        unitaries = np.array([random_unitary_2x2(rng) for _ in range(m)]).reshape(m, 2, 2)
        # exact zeros, whose signs the products and sums must keep: no turn
        # and turns about z, short of and past a quarter turn, on diagonal
        # and antidiagonal unitaries
        if m >= 3:
            steps[:3] = [[0.0, 0.0, 0.0], [0.0, 0.0, -0.7], [0.0, 0.0, 2.0]]
            unitaries[:3] = [np.diag([1j, -1j]), [[0.0, -1.0], [1.0, 0.0]], np.diag([1j, -1j])]
        turned = unitary_fit._turn(steps, unitary_fit._lengths(steps), unitaries)
        assert_same_bits(turned, turn_reference(steps, unitaries))
        # the chart's broadcast identity
        theta = rng.uniform(-np.pi, np.pi, size=(m, 4))
        assert_same_bits(
            unitary_fit.unitary_from_params(theta),
            np.exp(1j * theta[:, :1, None]) * turn_reference(theta[:, 1:], np.eye(2)[None]),
        )

    def test_rotation_entries_are_norm_and_sinc_bit_for_bit(self):
        # |t| and sin|t| / |t| are formed without the np.linalg.norm and
        # np.sinc wrappers, at t = 0, subnormal and underflowing lengths,
        # rounding-level ones and multiples of a quarter turn among them
        tiny = np.nextafter(0.0, 1.0)
        rows = [np.zeros(3), [tiny, 0.0, 0.0], [tiny, -tiny, tiny], [1e-300, 0.0, -1e-300]]
        rows += [[1e-8, 0.0, 0.0], [0.0, -1e-8, 1e-8]]
        rows += [np.eye(3)[a] * s * k * np.pi / 2 for a in range(3) for s in (1.0, -1.0) for k in range(1, 5)]
        rows += [np.ones(3) * k * np.pi / 2 / np.sqrt(3) for k in range(-4, 5)]
        steps = np.concatenate([np.array(rows, dtype=float), np.random.default_rng(1701).normal(size=(32, 3))])
        lengths = unitary_fit._lengths(steps)
        assert_same_bits(lengths, np.linalg.norm(steps, axis=-1))
        for got, want in zip(unitary_fit._su2_entries(steps, lengths), su2_reference(steps)):
            assert_same_bits(got, want)

    def test_random_starts_are_one_draw_of_the_same_stream(self):
        rng = np.random.default_rng(11)
        expected = [rng.uniform(-np.pi, np.pi, size=4) for _ in range(48)]
        np.testing.assert_array_equal(random_starts(np.random.default_rng(11), 48), expected)
        assert random_starts(np.random.default_rng(11), 0) == []

    @pytest.mark.parametrize("n", [3, 6])
    def test_each_cost_is_computed_once_on_first_read(self, n, monkeypatch):
        # the descent reads no dense cost; a result computes its own on its
        # first read, and keeps it
        orbit, _ = random_ghz_orbit(n, 2700 + n)
        objective = PanelObjective(orbit.amplitudes)
        calls = _count_residual_calls(monkeypatch)
        results = fit_pivot_unitary(objective, grid_starts() + random_starts(np.random.default_rng(n), 48))
        assert calls == []
        lazy = [result.cost for result in results]
        assert [result.cost for result in results] == lazy
        assert len(calls) == len(results)

    @pytest.mark.parametrize("psi", [qm.haar_random_ket(3, 317), qm.haar_random_ket(8, 3)], ids=["n3", "n8"])
    def test_determined_search_builds_no_dense_marginals(self, psi, monkeypatch):
        # every start ends on the scalar locus, so no cost is read
        calls = _count_residual_calls(monkeypatch)
        report = qm.search_sibling(psi, budget=64)
        assert (report.found, report.trials) == (False, 64)
        assert calls == []

    @pytest.mark.parametrize("psi", [qm.ghz_state(3), random_ghz_orbit(4, 7500)[0], random_ghz_orbit(5, 7501)[0]],
                             ids=["ghz3", "orbit4", "orbit5"])
    def test_ghz_search_reads_costs_only_up_to_its_witness(self, psi, monkeypatch):
        calls = _count_residual_calls(monkeypatch)
        report = qm.search_sibling(psi, budget=64)
        assert report.found
        assert 1 <= len(calls) <= report.trials < 64

    def test_search_memory_is_bounded_at_eight_qubits(self):
        # holding the dense marginal differences of all 64 starts at once
        # peaked at 226 MiB on this search; it reads no dense cost, and
        # peaks near 2.3 MiB
        psi = qm.haar_random_ket(8, 3)
        tracemalloc.start()
        try:
            report = qm.search_sibling(psi, budget=64)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (report.found, report.trials) == (False, 64)
        assert peak < 32 * 2**20

    def test_ghz_search_at_eight_qubits_reads_its_witness_densely(self, monkeypatch):
        # one dense residual and its Jacobian at n = 8 peak near 17 MiB
        orbit, _ = random_ghz_orbit(8, 7508)
        calls = _count_residual_calls(monkeypatch)
        tracemalloc.start()
        try:
            report = qm.search_sibling(orbit, budget=64)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.found and report.best_residual < 1e-6
        assert 1 <= len(calls) <= report.trials
        assert peak < 32 * 2**20

    def test_empty_start_list(self):
        psi = qm.haar_random_ket(3, 5)
        objective = PanelObjective(psi.amplitudes)
        assert fit_pivot_unitary(objective, []) == []

    @pytest.mark.parametrize("budget", [0, 1, 5, 16, 17, 20])
    def test_search_spends_the_whole_budget(self, budget):
        report = qm.search_sibling(qm.haar_random_ket(3, 317), budget=budget)
        assert (report.found, report.trials) == (False, budget)

    def test_trials_count_starts_up_to_the_witness(self):
        assert qm.search_sibling(qm.ghz_state(3)).trials == 6
        orbit, _ = random_ghz_orbit(4, 7500)
        assert qm.search_sibling(orbit).trials == 2

    @pytest.mark.parametrize("psi", [qm.haar_random_ket(3, 317), qm.ghz_state(3)], ids=["haar", "ghz"])
    def test_one_descent_call_per_search(self, psi, monkeypatch):
        # the whole budget descends as one stack, witness or not
        calls = []

        def counted(objective, starts):
            calls.append(len(starts))
            return fit_pivot_unitary(objective, starts)

        monkeypatch.setattr("qmarginal.oracle.fit_pivot_unitary", counted)
        qm.search_sibling(psi, budget=64)
        assert calls == [64]

    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError, match="budget"):
            qm.search_sibling(qm.ghz_state(3), budget=-1)

    @pytest.mark.parametrize("tol", [-1e-6, 0.0, float("nan")])
    def test_rejects_tolerance_that_is_not_positive(self, tol):
        # a negative tol once passed psi itself off as a witness
        with pytest.raises(ValueError, match="tol"):
            qm.search_sibling(qm.haar_random_ket(3, 1), tol=tol)


def _count_residual_calls(monkeypatch) -> list[np.ndarray]:
    """Record the unitary of every ``PanelObjective.residuals`` call, the
    dense path, from now on."""
    calls = []
    residuals = PanelObjective.residuals

    def counted(self, unitary):
        calls.append(unitary)
        return residuals(self, unitary)

    monkeypatch.setattr(PanelObjective, "residuals", counted)
    return calls


def _package_imports(path: Path) -> set[str]:
    """The qmarginal modules a source file imports; ``__init__`` for the
    package itself."""
    package = path.parent
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("qmarginal")):
            parts = (node.module or "").split(".")[0 if node.level else 1 :]
            if parts and parts[0]:
                names.add(parts[0])
            else:  # from . import x: a module, or a name of the package
                names.update(a.name if (package / f"{a.name}.py").exists() else "__init__" for a in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "qmarginal":
                    names.add(parts[1] if len(parts) > 1 else "__init__")
    return names


def test_oracle_stays_blind_to_the_deciders():
    # the oracle is the suite's independent check of the classifier, the
    # stabilizer criterion and the inverse map, so nothing it runs, directly
    # or through the modules it imports, may come from them
    package = Path(qm.__file__).parent
    reached, todo = set(), ["oracle", "unitary_fit"]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(_package_imports(package / f"{name}.py"))
    assert {"tensors", "tolerances"} <= reached
    assert not reached & {"classifier", "reconstruct", "stabilizer"}, reached


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
