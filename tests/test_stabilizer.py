"""Stabilizer subalgebra dimensions and structure."""

import numpy as np
import pytest

import qmarginal as qm
from qmarginal.oracle import random_unitary_2x2

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
