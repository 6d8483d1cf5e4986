"""Stabilizer subalgebra dimensions and structure."""

import numpy as np
import pytest

import qmarginal as qm
from conftest import EPSILONS, eps_state, mixed_corpus, random_ghz_orbit, random_hybrid
from qmarginal.oracle import random_unitary_2x2
from qmarginal.stabilizer import _full_rule, _nullity, _rref
from qmarginal.tensors import _grams, _qubit_factors
from qmarginal.tolerances import PRODUCT_TOL

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def generator_matrix(psi: qm.Ket) -> np.ndarray:
    """Independent construction of the real linear system whose nullspace
    is the stabilizer subalgebra: full kron products, no shared code."""
    n = psi.n
    columns = []
    for j in range(n):
        for sigma in (X, Y, Z):
            op = np.eye(1, dtype=complex)
            for q in range(n):
                op = np.kron(op, sigma if q == j else np.eye(2))
            columns.append(1j * op @ psi.amplitudes)
    columns.append(1j * psi.amplitudes)
    cols = np.stack(columns, axis=1)
    return np.vstack([cols.real, cols.imag])


def independent_nullity(psi: qm.Ket) -> int:
    m = generator_matrix(psi)
    svals = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(svals < 1e-9 * svals[0]))


class TestDimension:
    def test_all_zero_product_state_via_explicit_matrix(self):
        psi = qm.basis_ket(3, 0)
        m = generator_matrix(psi)
        assert m.shape == (16, 10)
        assert independent_nullity(psi) == 3
        assert qm.stabilizer_subalgebra(psi).dimension == 3

    @pytest.mark.parametrize("n", range(3, 11))
    def test_balanced_two_term_states(self, n):
        assert qm.stabilizer_subalgebra(qm.ghz_state(n)).dimension == n - 1

    @pytest.mark.parametrize("n", range(3, 8))
    def test_unbalanced_two_term_states(self, n):
        psi = qm.ghz_state(n, 0.6, 0.8j)
        assert qm.stabilizer_subalgebra(psi).dimension == n - 1

    def test_haar_states_have_trivial_algebra(self):
        for n in (3, 8, 10):
            for seed in range(5):
                psi = qm.haar_random_ket(n, 700 + seed)
                assert qm.stabilizer_subalgebra(psi).dimension == 0

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_independent_rank_revealer(self, n):
        for seed in range(3):
            psi = qm.haar_random_ket(n, 800 + seed)
            assert qm.stabilizer_subalgebra(psi).dimension == independent_nullity(psi)
        orbit = qm.random_lu_orbit(qm.ghz_state(n), seed=80 + n)
        assert qm.stabilizer_subalgebra(orbit).dimension == independent_nullity(orbit)

    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-9, 1e-12])
    def test_near_ghz_dimension_matches_full_svd(self, n, eps):
        # 0.6|0..0> + 0.8|1..1> + eps|0..01>: the extra amplitude lifts
        # singular values to about eps, on either side of the 1e-9 floor
        for seed in range(3):
            psi = eps_state("A", n, eps, 90 + 10 * n + seed)
            m = generator_matrix(psi)
            svals = np.linalg.svd(m, compute_uv=False)
            threshold = max(1e-9, 1e-12 * svals[0] * max(m.shape))
            nullity = int(np.sum(svals < threshold))
            assert qm.stabilizer_subalgebra(psi).dimension == nullity


class TestBasisStructure:
    def test_two_term_elements_are_traceless_diagonal(self):
        basis = qm.stabilizer_subalgebra(qm.ghz_state(4, 0.6, 0.8))
        assert basis.dimension == 3
        for element in basis.elements:
            assert np.max(np.abs(element.coords[:, :2])) < 1e-10
            assert abs(element.coords[:, 2].sum()) < 1e-10
            assert abs(element.phase) < 1e-10

    def test_action_invariant(self):
        for psi in (
            qm.ghz_state(3),
            qm.basis_ket(3, 0),
            qm.ghz_state(5, 0.6, 0.8),
            qm.chi_state(),
        ):
            basis = qm.stabilizer_subalgebra(psi)
            for element in basis.elements:
                action = qm.element_action(element, psi)
                target = 1j * element.phase * psi.amplitudes
                assert np.max(np.abs(action - target)) < 1e-8

    def test_elements_linearly_independent(self):
        basis = qm.stabilizer_subalgebra(qm.basis_ket(4, 0))
        rows = np.array(
            [np.concatenate([e.coords.reshape(-1), [e.phase]]) for e in basis.elements]
        )
        assert np.linalg.matrix_rank(rows) == basis.dimension

    def test_echelon_order_is_deterministic(self):
        a = qm.stabilizer_subalgebra(qm.ghz_state(4))
        b = qm.stabilizer_subalgebra(qm.ghz_state(4))
        for ea, eb in zip(a.elements, b.elements):
            np.testing.assert_array_equal(ea.coords, eb.coords)
            assert ea.phase == eb.phase

    def test_golden_echelon_basis(self):
        # reduced echelon over coordinate columns: z_i = 1 paired with
        # z_n = -1, everything else zero
        basis = qm.stabilizer_subalgebra(qm.ghz_state(4))
        golden = np.zeros((3, 4, 3))
        for i in range(3):
            golden[i, i, 2] = 1.0
            golden[i, 3, 2] = -1.0
        for element, want in zip(basis.elements, golden):
            np.testing.assert_allclose(element.coords, want, atol=1e-9)
            assert abs(element.phase) < 1e-9


class TestDimensionCriterion:
    def test_balanced_two_term_state_is_undetermined(self):
        assert qm.undetermined_by_dimension(qm.ghz_state(3)) == "undetermined"

    def test_haar_five_qubits_is_determined(self):
        assert qm.undetermined_by_dimension(qm.haar_random_ket(5, 13)) == "determined"

    def test_four_qubits_is_inapplicable(self):
        assert qm.undetermined_by_dimension(qm.chi_state()) == "inapplicable"
        assert qm.undetermined_by_dimension(qm.haar_random_ket(4, 1)) == "inapplicable"

    def test_single_qubit_factor_blocks_the_verdict(self):
        # |0> x (two-term balanced state on 4 qubits) has dimension n-1 but
        # factors across the first qubit, so it is determined
        amps = np.kron([1, 0], qm.ghz_state(4).amplitudes)
        psi = qm.Ket(5, amps)
        assert qm.stabilizer_subalgebra(psi).dimension == 4
        assert qm.undetermined_by_dimension(psi) == "determined"

    @pytest.mark.parametrize("weight, reaches_algebra", [(1e-12, False), (1e-8, True)])
    def test_small_schmidt_weight_on_qubit_one(self, monkeypatch, weight, reaches_algebra):
        # sqrt(1-w)|0>|GHZ+> + sqrt(w)|1>|GHZ->: qubit 1's smaller Schmidt
        # weight is w, on either side of the 1e-10 product cut
        ghz = qm.ghz_state(4).amplitudes
        flipped = ghz * np.where(np.arange(16) == 15, -1.0, 1.0)
        amps = np.concatenate([np.sqrt(1 - weight) * ghz, np.sqrt(weight) * flipped])
        psi = qm.random_lu_orbit(qm.Ket(5, amps), seed=77)
        calls = TestCertificateFirst.count_gathers(monkeypatch)
        verdict = qm.undetermined_by_dimension(psi)
        # n = 5 has no sampled block: the algebra is reached iff the full
        # system is gathered
        assert calls == ["full"] * reaches_algebra
        if not reaches_algebra:
            assert verdict == "determined"
        else:
            dim = qm.stabilizer_subalgebra(psi).dimension
            assert verdict == ("undetermined" if dim == 4 else "determined")


class TestLuCovariance:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_dimension_is_lu_invariant(self, n):
        for base_seed in range(2):
            psi = qm.ghz_state(n) if base_seed == 0 else qm.haar_random_ket(n, 60 + n)
            orbit = qm.random_lu_orbit(psi, seed=61 + n + base_seed)
            assert (
                qm.stabilizer_subalgebra(psi).dimension
                == qm.stabilizer_subalgebra(orbit).dimension
            )

    def test_conjugated_basis_stabilizes_the_rotated_state(self):
        psi = qm.ghz_state(3, 0.6, 0.8)
        rng = np.random.default_rng(5)
        unitaries = [qm.SingleQubitUnitary(random_unitary_2x2(rng), j) for j in (1, 2, 3)]
        rotated = qm.apply_locals(unitaries, psi)
        for element in qm.stabilizer_subalgebra(psi).elements:
            moved = qm.conjugate_element(element, unitaries)
            action = qm.element_action(moved, rotated)
            target = 1j * moved.phase * rotated.amplitudes
            assert np.max(np.abs(action - target)) < 1e-8


class TestVerifyGhzSubalgebra:
    def identity_locals(self, n):
        return [qm.SingleQubitUnitary(np.eye(2), j) for j in range(1, n + 1)]

    def test_two_term_state_with_identity_locals(self):
        basis = qm.stabilizer_subalgebra(qm.ghz_state(4))
        assert qm.verify_ghz_subalgebra(basis, self.identity_locals(4))

    def test_rotated_state_with_matching_locals(self):
        hadamards = [qm.SingleQubitUnitary(H, j) for j in (1, 2, 3)]
        rotated = qm.apply_locals(hadamards, qm.ghz_state(3))
        basis = qm.stabilizer_subalgebra(rotated)
        assert qm.verify_ghz_subalgebra(basis, hadamards)
        assert not qm.verify_ghz_subalgebra(basis, self.identity_locals(3))

    def test_partial_panel_example_state_fails(self):
        basis = qm.stabilizer_subalgebra(qm.chi_state())
        assert not qm.verify_ghz_subalgebra(basis, self.identity_locals(4))

    def test_length_mismatch(self):
        basis = qm.stabilizer_subalgebra(qm.ghz_state(3))
        with pytest.raises(ValueError):
            qm.verify_ghz_subalgebra(basis, self.identity_locals(4))

    def test_empty_basis_fails(self):
        assert not qm.verify_ghz_subalgebra(qm.StabilizerBasis((), 0), self.identity_locals(2))

    def test_nonzero_phase_fails(self):
        # i (Z_1 - Z_2) is in the diagonal algebra, but acts with a phase
        element = qm.AlgebraElement(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]), 0.5)
        basis = qm.StabilizerBasis((element,), 1)
        assert not qm.verify_ghz_subalgebra(basis, self.identity_locals(2))

    def test_nonzero_z_sum_fails(self):
        # i Z_1 is diagonal, but not traceless
        element = qm.AlgebraElement(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]), 0.0)
        basis = qm.StabilizerBasis((element,), 1)
        assert not qm.verify_ghz_subalgebra(basis, self.identity_locals(2))

    @pytest.mark.parametrize("tol", [-1e-6, 0.0, float("nan")])
    def test_rejects_tolerance_that_is_not_positive(self, tol):
        basis = qm.stabilizer_subalgebra(qm.ghz_state(4))
        with pytest.raises(ValueError, match="tol must be positive"):
            qm.verify_ghz_subalgebra(basis, self.identity_locals(4), tol)


class TestSampledRowCertificate:
    """For n >= 6 a trivial subalgebra is certified from a sampled block of
    m's rows; everything else takes the full path, counted as the calls of
    ``_pauli_system`` that gather all 2^n rows."""

    @staticmethod
    def count_full_path(monkeypatch):
        calls = []
        original = qm.stabilizer._pauli_system

        def counted(psi, rows):
            if len(rows) == 2**psi.n:
                calls.append(psi)
            return original(psi, rows)

        monkeypatch.setattr(qm.stabilizer, "_pauli_system", counted)
        return calls

    @staticmethod
    def echelon_bytes(basis):
        return [(e.coords.tobytes(), e.phase) for e in basis.elements]

    @pytest.mark.parametrize("n", [6, 9])
    def test_gathered_rows_are_rows_of_the_full_system(self, n):
        psi = qm.haar_random_ket(n, 3000 + n)
        rows = qm.stabilizer._sampled_rows(n)
        assert len(set(rows.tolist())) == len(rows) == 2 * (3 * n + 1)
        m = generator_matrix(psi)
        np.testing.assert_array_equal(
            qm.stabilizer._pauli_system(psi, rows), m[np.concatenate([rows, rows + 2**n])]
        )

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_all_gathered_rows_are_the_full_system_column_major(self, n):
        psi = qm.random_lu_orbit(qm.ghz_state(n), seed=3050 + n) if n > 1 else qm.haar_random_ket(1, 3050)
        m = qm.stabilizer._pauli_system(psi, np.arange(2**n, dtype=np.int64))
        np.testing.assert_array_equal(m, generator_matrix(psi))
        assert m.flags.f_contiguous

    @pytest.mark.parametrize("n", range(6, 11))
    def test_matches_the_full_path_on_the_mixed_corpus(self, monkeypatch, n):
        states = [psi for _, psi in mixed_corpus(n, 2, 3100 + 10 * n)]
        certified = [qm.stabilizer_subalgebra(psi) for psi in states]
        # with every sampled index at 0 the block has rank <= 2, so no
        # certificate passes and each call runs the full rule
        monkeypatch.setattr(
            qm.stabilizer, "_sampled_rows", lambda n: np.zeros(2 * (3 * n + 1), dtype=np.int64)
        )
        calls = self.count_full_path(monkeypatch)
        for psi, got in zip(states, certified):
            want = qm.stabilizer_subalgebra(psi)
            assert got.dimension == want.dimension
            assert self.echelon_bytes(got) == self.echelon_bytes(want)
        assert len(calls) == len(states)

    @pytest.mark.parametrize("n", [6, 7])
    @pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-9, 1e-12])
    def test_near_ghz_dimension_matches_full_svd_past_the_certificate(self, n, eps):
        for seed in range(3):
            psi = eps_state("A", n, eps, 90 + 10 * n + seed)
            m = generator_matrix(psi)
            svals = np.linalg.svd(m, compute_uv=False)
            threshold = max(1e-9, 1e-12 * svals[0] * max(m.shape))
            nullity = int(np.sum(svals < threshold))
            assert qm.stabilizer_subalgebra(psi).dimension == nullity

    def test_haar_states_skip_the_full_path_and_ghz_orbits_reach_it(self, monkeypatch):
        calls = self.count_full_path(monkeypatch)
        for n in range(6, 11):
            for seed in range(4):
                assert qm.stabilizer_subalgebra(qm.haar_random_ket(n, 3200 + 10 * n + seed)).dimension == 0
        assert calls == []
        for n in range(6, 11):
            orbit, _ = random_ghz_orbit(n, 3300 + n)
            assert qm.stabilizer_subalgebra(orbit).dimension == n - 1
        assert len(calls) == 5

    def test_state_off_the_sampled_rows_falls_back(self, monkeypatch):
        # zero amplitude on every sampled index zeroes the i*psi column of
        # the block; the state is still trivially stabilized
        n = 6
        rng = np.random.default_rng(3400)
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        amps[qm.stabilizer._sampled_rows(n)] = 0.0
        psi = qm.ket(amps)
        assert independent_nullity(psi) == 0
        calls = self.count_full_path(monkeypatch)
        assert qm.stabilizer_subalgebra(psi).dimension == 0
        assert len(calls) == 1


def near_ghz(n: int, eps: float, seed: int) -> qm.Ket:
    """An LU orbit of 0.6|0..0> + 0.8|1..1> + eps * (a Haar vector),
    normalized: a trivial subalgebra whose least singular value is about
    eps, where the eps|0..01> states keep a null space of dimension n - 2."""
    amps = np.zeros(2**n, dtype=complex)
    amps[[0, -1]] = 0.6, 0.8
    amps = amps + eps * qm.haar_random_ket(n, seed).amplitudes
    return qm.random_lu_orbit(qm.ket(amps), seed=seed + 1)


class TestCertificateFirst:
    """``undetermined_by_dimension`` runs the sampled certificate once,
    before its product test, and the full system only past a failed one;
    counted as the calls of ``_pauli_system`` by their row count."""

    @staticmethod
    def count_gathers(monkeypatch):
        calls = []
        original = qm.stabilizer._pauli_system

        def counted(psi, rows):
            calls.append("full" if len(rows) == 2**psi.n else "sampled")
            return original(psi, rows)

        monkeypatch.setattr(qm.stabilizer, "_pauli_system", counted)
        return calls

    @pytest.mark.parametrize("n", range(6, 11))
    def test_haar_states_gather_only_the_sampled_block(self, monkeypatch, n):
        calls = self.count_gathers(monkeypatch)
        for seed in range(3):
            calls.clear()
            assert qm.undetermined_by_dimension(qm.haar_random_ket(n, 3500 + 10 * n + seed)) == "determined"
            assert calls == ["sampled"]

    @pytest.mark.parametrize("n", range(6, 11))
    def test_ghz_orbits_gather_the_sampled_block_then_the_full_system(self, monkeypatch, n):
        calls = self.count_gathers(monkeypatch)
        for balanced in (False, True):
            calls.clear()
            orbit, _ = random_ghz_orbit(n, 3600 + n, balanced=balanced)
            assert qm.undetermined_by_dimension(orbit) == "undetermined"
            assert calls == ["sampled", "full"]

    @pytest.mark.parametrize("n", [6, 8])
    def test_products_and_hybrids_stay_determined(self, monkeypatch, n):
        calls = self.count_gathers(monkeypatch)
        for seed in range(3):
            for psi in (qm.random_product_ket(n, 3700 + seed), random_hybrid(n, 3750 + 10 * seed)):
                calls.clear()
                assert qm.undetermined_by_dimension(psi) == "determined"
                # a product qubit is a null vector of m_S, so the
                # certificate fails, and the product test decides
                assert calls == ["sampled"]

    @pytest.mark.parametrize("n", [6, 7])
    @pytest.mark.parametrize("eps", [1e-8, 1e-7, 5e-7])
    def test_uncertified_band_takes_the_full_path(self, monkeypatch, n, eps):
        # t < sigma_min(m_S) < sqrt(t^2 + slack), with the slack of the
        # stabilizer_subalgebra docstring: the certificate cannot prove the
        # nullity 0 that the full rule finds
        k = 3 * n + 1
        threshold = max(1e-9, 1e-12 * np.sqrt(k) * 2 * 2**n)
        slack = 2 * (5 * k + 4) * k * 2.0**-53
        rows = qm.stabilizer._sampled_rows(n)
        calls = self.count_gathers(monkeypatch)
        for seed in range(3):
            psi = near_ghz(n, eps, 3800 + 10 * n + seed)
            sampled = generator_matrix(psi)[np.concatenate([rows, rows + 2**n])]
            sigma_min = np.linalg.svd(sampled, compute_uv=False)[-1]
            assert threshold < sigma_min < np.sqrt(threshold**2 + slack)
            assert independent_nullity(psi) == 0
            calls.clear()
            assert qm.stabilizer_subalgebra(psi).dimension == 0
            assert calls == ["sampled", "full"]
            calls.clear()
            assert qm.undetermined_by_dimension(psi) == "determined"
            assert calls == ["sampled", "full"]

    def test_ghz_orbits_never_pass_the_certificate(self):
        # an exact null space of dimension n - 1 leaves the shifted Gram
        # matrix indefinite by far more than its rounding
        for n in range(6, 11):
            for seed in range(40):
                orbit, _ = random_ghz_orbit(n, 3900 + 100 * n + seed, balanced=seed % 2 == 1)
                assert qm.stabilizer._certified_trivial(orbit) is False


class TestDimensionReadsTheNullity:
    """``undetermined_by_dimension`` reads the nullity of m alone: it runs no
    ``_rref`` and builds no ``AlgebraElement``, and still gives the verdict
    of the product test followed by the echelon basis's dimension, while
    ``stabilizer_subalgebra`` builds that basis from the same SVD."""

    @staticmethod
    def count_basis_work(monkeypatch):
        calls = []
        rref = qm.stabilizer._rref
        post_init = qm.AlgebraElement.__post_init__

        def counted_rref(rows):
            calls.append("rref")
            return rref(rows)

        def counted_element(self):
            calls.append("element")
            post_init(self)

        monkeypatch.setattr(qm.stabilizer, "_rref", counted_rref)
        monkeypatch.setattr(qm.AlgebraElement, "__post_init__", counted_element)
        return calls

    @staticmethod
    def corpus(n):
        for seed in range(2):
            base = 4100 + 100 * n + 10 * seed
            yield random_ghz_orbit(n, base)[0]
            yield random_ghz_orbit(n, base + 1, balanced=True)[0]
            yield qm.random_product_ket(n, base + 2)
            yield random_hybrid(n, base + 3)
        for family in ("A", "B"):
            for i, eps in enumerate(EPSILONS):
                yield eps_state(family, n, eps, 4150 + 100 * n + i)

    @pytest.mark.parametrize("n", [3, 5, 6, 7, 8])
    def test_verdict_builds_no_basis(self, monkeypatch, n):
        calls = self.count_basis_work(monkeypatch)
        for psi in self.corpus(n):
            calls.clear()
            verdict = qm.undetermined_by_dimension(psi)
            assert calls == []
            dimension = _full_rule(psi).dimension
            assert dimension == _nullity(psi)[0]
            least = np.linalg.eigvalsh(_grams(_qubit_factors(psi.amplitudes)))[:, 0]
            product = np.min(least) < PRODUCT_TOL
            full = "undetermined" if dimension == n - 1 else "determined"
            assert verdict == ("determined" if product else full)

    @pytest.mark.parametrize("n", [3, 5, 6, 7, 8])
    def test_basis_is_the_echelon_form_of_the_null_rows(self, monkeypatch, n):
        calls = self.count_basis_work(monkeypatch)
        for psi in self.corpus(n):
            if qm.stabilizer._certified_trivial(psi):
                continue
            nullity, vh = _nullity(psi)
            rows = _rref(vh[len(vh) - nullity :])
            calls.clear()
            basis = qm.stabilizer_subalgebra(psi)
            assert calls == ["rref"] + ["element"] * basis.dimension
            assert basis.dimension == nullity == len(rows)
            for element, row in zip(basis.elements, rows):
                np.testing.assert_array_equal(element.coords.reshape(-1), row[: 3 * n])
                assert element.phase == -row[3 * n]
