"""Core tensor operations: splicing, partial trace, Schmidt splits."""

import itertools

import numpy as np
import pytest

import qmarginal as qm
from conftest import eps_state, random_ghz_orbit, w_state
from qmarginal.oracle import random_unitary_2x2
from qmarginal.reconstruct import _bloch_pair
from qmarginal.tensors import (
    _CERTIFY_MIN_DIM,
    PAULI_X,
    PAULI_Z,
    _axis_first,
    _bloch_rows,
    _blocks,
    _factor_table,
    _flip_table,
    _grams,
    _one_qubit_marginal,
    _pair_qr,
    _pair_table,
    _phase_fix_columns,
    _qubit_factors,
    _rank_two_factor,
    _trace_positions,
    _traced_outer,
)
from qmarginal.tolerances import HERM_TOL


def dm(entries, labels):
    return qm.DensityMatrix(tuple(labels), np.asarray(entries, dtype=complex))


class TestTensorInsert:
    def test_basis_splice_front(self):
        out = qm.tensor_insert([0, 1], [1, 0], 1)
        np.testing.assert_allclose(out, [0, 0, 1, 0])  # |10>

    def test_basis_splice_middle(self):
        out = qm.tensor_insert([1, 0], [0, 0, 0, 1], 2)  # |0> into |11| -> |101>
        expected = np.zeros(8)
        expected[0b101] = 1
        np.testing.assert_allclose(out, expected)

    def test_linearity(self):
        plus = np.array([1, 1]) / np.sqrt(2)
        out = qm.tensor_insert(plus, [1, 0], 2)
        np.testing.assert_allclose(out, [1 / np.sqrt(2), 1 / np.sqrt(2), 0, 0])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            qm.tensor_insert([1, 0], [1, 0], 3)

    def test_empty_rest_is_rejected(self):
        with pytest.raises(ValueError, match="not a power of 2"):
            qm.tensor_insert([1, 0], [], 1)


class TestPartialTrace:
    def test_product_state_factor_removal(self):
        rho = qm.basis_ket(2, 0).density()
        out = qm.partial_trace(rho, {2})
        assert out.qubit_labels == (1,)
        np.testing.assert_allclose(out.entries, [[1, 0], [0, 0]], atol=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("phase", [0.0, 0.7, 2.2])
    def test_balanced_two_term_family_marginal_is_phase_free(self, n, phase):
        rho = qm.eta_state(n, np.exp(1j * phase)).density()
        out = qm.partial_trace(rho, {1})
        expected = np.zeros((2 ** (n - 1), 2 ** (n - 1)))
        expected[0, 0] = 0.5
        expected[-1, -1] = 0.5
        np.testing.assert_allclose(out.entries, expected, atol=1e-14)

    def test_bell_marginal_is_maximally_mixed(self):
        rho = qm.ket([1, 0, 0, 1]).density()
        out = qm.partial_trace(rho, {1})
        np.testing.assert_allclose(out.entries, np.eye(2) / 2, atol=1e-14)

    def test_missing_label(self):
        rho = qm.basis_ket(2, 0).density()
        with pytest.raises(ValueError):
            qm.partial_trace(rho, {3})

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_preserves_density_structure_on_random_mixtures(self, n):
        rng = np.random.default_rng(100 + n)
        g = rng.standard_normal((2**n, 2**n)) + 1j * rng.standard_normal((2**n, 2**n))
        mat = g @ g.conj().T
        mat /= np.trace(mat).real
        rho = dm(mat, range(1, n + 1))
        traced = qm.partial_trace(rho, {2})
        # DensityMatrix construction re-validates hermiticity/trace/PSD
        assert abs(np.trace(traced.entries).real - 1.0) < 1e-12
        assert np.min(np.linalg.eigvalsh(traced.entries)) > -1e-12

    def test_sequential_traces_commute(self):
        rng = np.random.default_rng(7)
        n = 4
        g = rng.standard_normal((2**n, 2**n)) + 1j * rng.standard_normal((2**n, 2**n))
        mat = g @ g.conj().T
        mat /= np.trace(mat).real
        rho = dm(mat, range(1, n + 1))
        ab = qm.partial_trace(qm.partial_trace(rho, {1}), {3})
        ba = qm.partial_trace(qm.partial_trace(rho, {3}), {1})
        assert np.max(np.abs(ab.entries - ba.entries)) < 1e-12


class TestSchmidtSplit:
    def test_balanced_two_term_is_degenerate(self):
        split = qm.schmidt_split(qm.ghz_state(3), 1)
        assert split.degenerate
        np.testing.assert_allclose(split.weights, (0.5, 0.5), atol=1e-12)
        # the two rest vectors span {|00>, |11>}
        span = np.abs(split.rest_vectors) ** 2
        assert span[:, 1:3].max() < 1e-12

    def test_product_state_has_rank_one(self):
        split = qm.schmidt_split(qm.basis_ket(3, 0), 2)
        np.testing.assert_allclose(split.weights, (1.0, 0.0), atol=1e-12)
        assert not split.degenerate

    def test_two_term_weights_match_direct_eigenvalues(self):
        # independent route: build the 2x2 marginal by hand and diagonalize
        psi = qm.ket([0.6, 0, 0, 0, 0, 0, 0, 0.8])
        a = psi.amplitudes.reshape(4, 2)  # qubit 3 least significant
        rho3 = a.T @ a.conj()
        expected = np.sort(np.linalg.eigvalsh(rho3))[::-1]
        np.testing.assert_allclose(expected, [0.64, 0.36], atol=1e-14)
        split = qm.schmidt_split(psi, 3)
        np.testing.assert_allclose(split.weights, expected, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_reassembly_reproduces_haar_states(self, n):
        for seed in range(3):
            psi = qm.haar_random_ket(n, 500 + 17 * seed + n)
            for j in range(1, n + 1):
                back = qm.schmidt_split(psi, j).reassemble()
                assert abs(abs(back.overlap(psi)) - 1.0) < 1e-10
                # the split reproduces amplitudes exactly, not just the ray
                assert np.max(np.abs(back.amplitudes - psi.amplitudes)) < 1e-10

    def test_weights_are_marginal_eigenvalues(self):
        psi = qm.haar_random_ket(4, 321)
        for j in range(1, 5):
            split = qm.schmidt_split(psi, j)
            rho = qm.partial_trace(psi.density(), set(range(1, 5)) - {j})
            evals = np.sort(np.linalg.eigvalsh(rho.entries))[::-1]
            np.testing.assert_allclose(split.weights, evals, atol=1e-12)


    def test_one_qubit_state_has_no_split(self):
        # the SVD of an n = 1 view has one singular value; numpy's
        # IndexError once came from reading a second
        with pytest.raises(ValueError, match="at least 2 qubits, got n = 1"):
            qm.schmidt_split(qm.basis_ket(1, 0), 1)

    def test_reassembly_is_the_sum_of_the_spliced_terms(self):
        # the former reassembly, sum_i sqrt(w_i) tensor_insert(u_i, v_i, j)
        psi = qm.haar_random_ket(4, 77)
        for j in range(1, 5):
            split = qm.schmidt_split(psi, j)
            expected = sum(
                np.sqrt(w) * qm.tensor_insert(split.one_qubit_vectors[:, i], split.rest_vectors[i], j)
                for i, w in enumerate(split.weights)
            )
            np.testing.assert_allclose(split.reassemble().amplitudes, expected, rtol=0, atol=1e-15)

    def test_one_qubit_vectors_are_phase_fixed(self):
        psi = qm.haar_random_ket(3, 78)
        for j in range(1, 4):
            u = qm.schmidt_split(psi, j).one_qubit_vectors
            top = u[np.argmax(np.abs(u), axis=0), [0, 1]]
            np.testing.assert_allclose(top.imag, 0.0, rtol=0, atol=1e-15)
            assert (top.real > 0).all()


class TestSpectralDecompose:
    def test_scaled_identity(self):
        evals, evecs = qm.spectral_decompose(np.eye(2) / 2)
        np.testing.assert_allclose(evals, [0.5, 0.5])
        np.testing.assert_allclose(evecs @ evecs.conj().T, np.eye(2), atol=1e-12)

    def test_diagonal_input(self):
        evals, evecs = qm.spectral_decompose(np.diag([0.36, 0.64]))
        np.testing.assert_allclose(evals, [0.64, 0.36])
        assert abs(evecs[1, 0]) == pytest.approx(1.0)
        assert abs(evecs[0, 1]) == pytest.approx(1.0)

    def test_bitflip_operator(self):
        evals, evecs = qm.spectral_decompose(PAULI_X)
        np.testing.assert_allclose(evals, [1.0, -1.0], atol=1e-12)
        np.testing.assert_allclose(np.abs(evecs), np.full((2, 2), 1 / np.sqrt(2)), atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            qm.spectral_decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_rejects_a_matrix_that_is_not_finite(self, bad):
        # NaN compared False in the Hermiticity test, and NaN eigenvalues
        # came back
        h = np.eye(3, dtype=complex) / 3
        h[1, 1] = bad
        with pytest.raises(ValueError, match="must be finite"):
            qm.spectral_decompose(h)

    def test_columns_are_phase_fixed_and_a_zero_column_stays(self):
        rng = np.random.default_rng(79)
        g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        evals, evecs = qm.spectral_decompose(g + g.conj().T)
        top = evecs[np.argmax(np.abs(evecs), axis=0), np.arange(6)]
        np.testing.assert_allclose(top.imag, 0.0, rtol=0, atol=1e-15)
        assert (top.real > 0).all()
        # the former per-vector fix, column by column, bit for bit
        raw_evals, raw = np.linalg.eigh(g + g.conj().T)
        for i, col in enumerate(raw[:, ::-1].T):
            c = col[np.argmax(np.abs(col))]
            np.testing.assert_array_equal(evecs[:, i], col * (abs(c) / c))
        np.testing.assert_array_equal(evals, raw_evals[::-1])
        vecs = np.array([[0.0, 1j], [0.0, 0.0]])
        np.testing.assert_array_equal(_phase_fix_columns(vecs), [[0.0, 1.0], [0.0, 0.0]])

    @pytest.mark.parametrize("dim", [2, 4, 8, 16])
    def test_reconstruction_residual(self, dim):
        rng = np.random.default_rng(dim)
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = g + g.conj().T
        evals, evecs = qm.spectral_decompose(h)
        rebuilt = (evecs * evals) @ evecs.conj().T
        assert np.linalg.norm(rebuilt - h) <= 1e-9 * np.linalg.norm(h)
        assert np.max(np.abs(evecs.conj().T @ evecs - np.eye(dim))) < 1e-10


class TestApplyLocal:
    def test_sign_flip_on_first_qubit(self):
        chi = qm.chi_state()
        out = qm.apply_local(qm.SingleQubitUnitary(PAULI_Z, 1), chi)
        expected = chi.amplitudes.copy()
        expected[0b1111] *= -1
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-14)

    def test_identity(self):
        psi = qm.haar_random_ket(3, 9)
        out = qm.apply_local(qm.SingleQubitUnitary(np.eye(2), 2), psi)
        np.testing.assert_allclose(out.amplitudes, psi.amplitudes)

    def test_bitflip_second_qubit(self):
        out = qm.apply_local(qm.SingleQubitUnitary(PAULI_X, 2), qm.basis_ket(2, 0))
        np.testing.assert_allclose(out.amplitudes, [0, 1, 0, 0], atol=1e-14)

    def test_disjoint_qubits_commute(self):
        psi = qm.haar_random_ket(4, 55)
        rng = np.random.default_rng(56)
        from qmarginal.oracle import random_unitary_2x2

        u1 = qm.SingleQubitUnitary(random_unitary_2x2(rng), 1)
        u3 = qm.SingleQubitUnitary(random_unitary_2x2(rng), 3)
        a = qm.apply_local(u3, qm.apply_local(u1, psi))
        b = qm.apply_local(u1, qm.apply_local(u3, psi))
        np.testing.assert_allclose(a.amplitudes, b.amplitudes, atol=1e-12)

    def test_norm_preserved(self):
        psi = qm.haar_random_ket(5, 77)
        rng = np.random.default_rng(78)
        from qmarginal.oracle import random_unitary_2x2

        out = qm.apply_local(qm.SingleQubitUnitary(random_unitary_2x2(rng), 4), psi)
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12


    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_kronecker_operator_at_every_qubit(self, n):
        from qmarginal.oracle import random_unitary_2x2

        rng = np.random.default_rng(90 + n)
        psi = qm.haar_random_ket(n, 91 + n)
        mats = [random_unitary_2x2(rng) for _ in range(n)]
        for j, u in enumerate(mats, start=1):
            op = np.kron(np.kron(np.eye(2 ** (j - 1)), u), np.eye(2 ** (n - j)))
            out = qm.apply_local(qm.SingleQubitUnitary(u, j), psi)
            np.testing.assert_allclose(out.amplitudes, op @ psi.amplitudes, atol=1e-13, rtol=0)
        full = np.ones((1, 1))
        for u in mats:
            full = np.kron(full, u)
        out = qm.apply_locals([qm.SingleQubitUnitary(u, j) for j, u in enumerate(mats, 1)], psi)
        np.testing.assert_allclose(out.amplitudes, full @ psi.amplitudes, atol=1e-13, rtol=0)

    @pytest.mark.parametrize("bad", [0, 4])
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_apply_locals_rejects_out_of_range_target_anywhere(self, bad, position):
        psi = qm.haar_random_ket(3, 12)
        locals_ = [qm.SingleQubitUnitary(PAULI_X, j) for j in (1, 2, 3)]
        # target 0 is refused by the constructor already, 4 only against n
        with pytest.raises(ValueError, match="out of range"):
            locals_[position] = qm.SingleQubitUnitary(PAULI_Z, bad)
            qm.apply_locals(locals_, psi)


class TestEqualUpToPhase:
    def test_global_phase(self):
        psi = qm.haar_random_ket(3, 1)
        rotated = qm.Ket(3, np.exp(1j * np.pi / 7) * psi.amplitudes)
        assert qm.equal_up_to_phase(psi, rotated)

    def test_sign_flipped_partner_differs(self):
        a = qm.ghz_state(3, 0.6, 0.8)
        b = qm.ghz_state(3, 0.6, -0.8)
        assert not qm.equal_up_to_phase(a, b)

    def test_orthogonal(self):
        assert not qm.equal_up_to_phase(qm.basis_ket(2, 0), qm.basis_ket(2, 1))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            qm.equal_up_to_phase(qm.basis_ket(2, 0), qm.basis_ket(3, 0))

    @pytest.mark.parametrize("tol", [-1e-6, 0.0, float("nan")])
    def test_rejects_tolerance_that_is_not_positive(self, tol):
        # a NaN tol once called a state unequal to itself
        psi = qm.haar_random_ket(3, 1)
        with pytest.raises(ValueError, match="tol must be positive"):
            qm.equal_up_to_phase(psi, psi, tol)


class TestMultiIndex:
    def test_complement_flips_every_bit(self):
        m = qm.MultiIndex((0, 1, 1, 0))
        assert m.complement().bits == (1, 0, 0, 1)
        assert m.complement().complement() == m

    def test_linear_round_trip(self):
        for idx in range(16):
            m = qm.MultiIndex.from_linear(idx, 4)
            assert m.to_linear() == idx

    def test_first_qubit_is_most_significant(self):
        assert qm.MultiIndex((1, 0, 0)).to_linear() == 4

    @pytest.mark.parametrize("idx", [-1, 16, 21])
    def test_from_linear_rejects_an_index_out_of_range(self, idx):
        # 21 = 0b10101 would lose its high bit in 4 bits
        with pytest.raises(ValueError, match="out of range 0..15"):
            qm.MultiIndex.from_linear(idx, 4)


class TestBasisKet:
    def test_both_ends_of_the_range(self):
        assert qm.basis_ket(2, 0).amplitudes[0] == 1
        assert qm.basis_ket(2, 3).amplitudes[3] == 1

    @pytest.mark.parametrize("idx", [-1, 4])
    def test_index_out_of_range_is_rejected(self, idx):
        # numpy would wrap -1 to |11> and raise IndexError for 4
        with pytest.raises(ValueError, match="out of range 0..3"):
            qm.basis_ket(2, idx)


class TestConventions:
    def test_fix_global_phase_leading_amplitude_real_positive(self):
        amps = np.exp(1j * 1.3) * qm.ghz_state(3).amplitudes
        fixed = qm.fix_global_phase(amps)
        assert fixed[0].imag == pytest.approx(0.0, abs=1e-15)
        assert fixed[0].real > 0

    def test_fix_global_phase_skips_tiny_leading_entries(self):
        amps = np.array([1e-12, -1.0j, 0.0, 0.0])
        fixed = qm.fix_global_phase(amps)
        assert fixed[1].real > 0.99

    def test_fix_global_phase_copies_amplitudes_all_below_the_floor(self):
        amps = np.array([1e-12j, -1e-10, 0.0, 0.0])
        fixed = qm.fix_global_phase(amps)
        np.testing.assert_array_equal(fixed, amps)
        assert fixed is not amps

    def test_ket_renormalizes_a_norm_off_by_less_than_the_reject_band(self):
        # 1e-9 is above RENORMALIZE_TOL and below NORM_REJECT_TOL
        amps = qm.haar_random_ket(3, 2).amplitudes * (1 + 1e-9)
        assert abs(np.linalg.norm(qm.Ket(3, amps).amplitudes) - 1.0) < 1e-15

    def test_dagger_inverts_a_unitary_on_its_target(self):
        u = qm.SingleQubitUnitary(np.array([[1, 1j], [1j, 1]]) / np.sqrt(2), 2)
        v = u.dagger()
        assert v.target == 2
        np.testing.assert_array_equal(v.entries, u.entries.conj().T)
        psi = qm.haar_random_ket(3, 3)
        assert qm.equal_up_to_phase(qm.apply_locals([u, v], psi), psi, 1e-14)

    def test_ket_validates_norm(self):
        with pytest.raises(ValueError):
            qm.Ket(2, np.array([1.0, 1.0, 0.0, 0.0]))

    def test_ket_validates_length(self):
        with pytest.raises(ValueError):
            qm.Ket(2, np.array([1.0, 0.0]))

    def test_ket_of_no_amplitudes_is_rejected(self):
        with pytest.raises(ValueError):
            qm.ket([])

    def test_density_matrix_validation(self):
        with pytest.raises(ValueError):
            qm.DensityMatrix((1,), np.array([[0.5, 0.5], [0.0, 0.5]]))
        with pytest.raises(ValueError):
            qm.DensityMatrix((1,), np.array([[2.0, 0.0], [0.0, -1.0]]))

    def test_density_matrix_rejects_small_negative_eigenvalue(self):
        # Hermitian and unit trace, one eigenvalue at -1e-9 (below -HERM_TOL)
        rng = np.random.default_rng(31)
        evals = np.full(8, (1.0 + 1e-9) / 7)
        evals[0] = -1e-9
        q, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
        mat = (q * evals) @ q.conj().T
        mat = 0.5 * (mat + mat.conj().T)
        assert abs(np.trace(mat).real - 1.0) < 1e-14
        with pytest.raises(ValueError, match="negative eigenvalue"):
            qm.DensityMatrix((1, 2, 3), mat)

    def test_ket_density_is_the_outer_product(self):
        psi = qm.haar_random_ket(5, 33)
        rho = psi.density()
        expected = np.outer(psi.amplitudes, psi.amplitudes.conj())
        np.testing.assert_allclose(rho.entries, expected, atol=1e-15, rtol=0)
        assert rho.qubit_labels == (1, 2, 3, 4, 5)
        qm.DensityMatrix(rho.qubit_labels, rho.entries)  # passes full validation

    def test_unitary_validation(self):
        with pytest.raises(ValueError):
            qm.SingleQubitUnitary(np.array([[1.0, 0.0], [1.0, 1.0]]), 1)

    @pytest.mark.parametrize(
        "bad, message",
        [(0, "qubit label 0 out of range"), (-1, "qubit label -1 out of range"),
         (1.0, "qubit label 1.0 is not an integer"), ("1", "qubit label '1' is not an integer")],
    )
    def test_unitary_rejects_a_target_that_is_no_qubit_label(self, bad, message):
        with pytest.raises(ValueError, match=message):
            qm.SingleQubitUnitary(np.eye(2), bad)

    def test_unitary_stores_a_numpy_integer_target_as_int(self):
        u = qm.SingleQubitUnitary(PAULI_X, np.int64(2))
        assert type(u.target) is int and u.target == 2
        out = qm.apply_local(u, qm.basis_ket(2, 0))
        np.testing.assert_array_equal(out.amplitudes, qm.basis_ket(2, 1).amplitudes)

    def test_dagger_is_the_exact_frozen_adjoint(self):
        u = qm.SingleQubitUnitary(random_unitary_2x2(np.random.default_rng(41)), 3)
        d = u.dagger()
        assert d.target == 3
        np.testing.assert_array_equal(d.entries, u.entries.conj().T)
        assert not d.entries.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            d.entries[0, 0] = 0.0
        back = d.dagger()
        np.testing.assert_array_equal(back.entries, u.entries)
        assert back.target == u.target

    def test_dagger_runs_no_second_check(self, monkeypatch):
        # the adjoint of a checked unitary is unitary: no constructor check
        u = qm.SingleQubitUnitary(PAULI_X, 1)

        def checked(self):
            raise AssertionError("dagger() ran the constructor's checks")

        monkeypatch.setattr(qm.SingleQubitUnitary, "__post_init__", checked)
        np.testing.assert_array_equal(u.dagger().entries, PAULI_X)

    @pytest.mark.parametrize(
        "labels, message",
        [((1.7, 2.2), "qubit label 1.7 is not an integer"), (("1", 2), "qubit label '1' is not an integer"),
         ((1, 0), "qubit label 0 out of range"), ((-1, 2), "qubit label -1 out of range")],
    )
    def test_density_matrix_rejects_labels_that_are_no_qubit_labels(self, labels, message):
        # a float or a string is no label, not even one int() would accept
        with pytest.raises(ValueError, match=message):
            qm.DensityMatrix(labels, np.eye(4) / 4)

    def test_density_matrix_stores_numpy_integer_labels_as_int(self):
        rho = qm.DensityMatrix((np.int64(2), 1), np.eye(4) / 4)
        assert rho.qubit_labels == (2, 1)
        assert all(type(x) is int for x in rho.qubit_labels)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_constructors_reject_non_finite_entries(self, bad):
        # NaN compares False with every tolerance, so each check would pass it
        with pytest.raises(ValueError, match="finite"):
            qm.Ket(2, [bad, 0, 0, 0])
        with pytest.raises(ValueError, match="finite"):
            qm.ket([bad, 1.0])
        with pytest.raises(ValueError, match="finite"):
            qm.DensityMatrix((1,), np.array([[bad, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="finite"):
            qm.SingleQubitUnitary(np.array([[bad, 0.0], [0.0, 1.0]]), 1)


class TestQubitFactorKernel:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_classify_spectra_match_each_one_qubit_marginal(self, n):
        states = (
            qm.haar_random_ket(n, 1200 + n),
            qm.random_product_ket(n, 1300 + n),
            qm.random_lu_orbit(qm.ghz_state(n), seed=1400 + n),
            w_state(n),
        )
        for psi in states:
            spectra = qm.classify(psi).diagnostics.spectra
            for j in range(1, n + 1):
                want = np.linalg.eigvalsh(_grams(_axis_first(psi.amplitudes, j)))[::-1]
                np.testing.assert_allclose(spectra[j - 1], want, rtol=0, atol=1e-14)


def stacked_factors(amps):
    """The former ``_qubit_factors``: one ``_axis_first`` view per qubit, stacked."""
    return np.stack([_axis_first(amps, j) for j in range(1, amps.size.bit_length())])


def stacked_pair_qr(front, mode="reduced"):
    """The former ``_pair_qr``: its pair flattenings stacked one view per qubit."""
    n = front.shape[-1].bit_length()
    flat = np.stack([_axis_first(front, m).reshape(4, -1).T for m in range(1, n)])
    if mode == "r":
        r = np.linalg.qr(flat, mode="r")
    else:
        q = np.linalg.qr(flat)[0]
        r = q.conj().swapaxes(-1, -2).astype(np.clongdouble) @ flat.astype(np.clongdouble)
    r = r.reshape(n - 1, -1, 2, 2)
    own = np.einsum("kpai,kqbi->kabpq", r, r.conj()).astype(complex, copy=False)
    return own if mode == "r" else (q, own)


def same_bits(got, want):
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestIndexTables:
    """The per-n index tables gather what the per-qubit views stacked, bit
    for bit, and each is built once per qubit count and kept read-only."""

    @staticmethod
    def states(n):
        psi = qm.haar_random_ket(n, 4100 + n)
        orbit = qm.random_lu_orbit(qm.ghz_state(n), seed=4200 + n) if n > 1 else qm.basis_ket(1, 1)
        return [psi.amplitudes, orbit.amplitudes]

    @pytest.mark.parametrize("n", range(1, 13))
    def test_qubit_factors_match_the_stacked_views(self, n):
        for amps in self.states(n):
            # a strided copy of the amplitudes gathers the same values
            strided = np.stack([amps, -amps], axis=1)[:, 0]
            for v in (amps, strided):
                assert same_bits(_qubit_factors(v), stacked_factors(amps))

    @pytest.mark.parametrize("n", range(2, 13))
    def test_pair_flattenings_match_the_stacked_views(self, n):
        for amps in self.states(n):
            for j in (1, n):
                front = _axis_first(amps, j)
                want = np.stack([_axis_first(front, m).reshape(4, -1).T for m in range(1, n)])
                assert same_bits(front.reshape(-1)[_pair_table(n)], want)
                assert same_bits(_pair_qr(front, "r"), stacked_pair_qr(front, "r"))
                for got, ref in zip(_pair_qr(front), stacked_pair_qr(front)):
                    assert same_bits(got, ref)

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_flip_table_is_every_row_with_each_bit_flipped(self, n):
        rows, flips, signs = _flip_table(n)
        assert rows.tolist() == list(range(2**n))
        for j in range(1, n + 1):
            bit = (rows >> (n - j)) & 1
            assert np.array_equal(flips[j - 1], rows ^ (1 << (n - j)))
            assert np.array_equal(signs[j - 1], 1.0 - 2.0 * bit)

    @pytest.mark.parametrize(
        "table", [_factor_table, _pair_table, _flip_table, qm.stabilizer._sampled_table]
    )
    def test_each_table_is_read_only(self, table):
        for n in (6, 8):
            arrays = table(n)
            for a in arrays if isinstance(arrays, tuple) else (arrays,):
                assert not a.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    a[(0,) * a.ndim] = 1

    def test_each_table_is_built_once_per_qubit_count(self):
        tables = (_factor_table, _pair_table, _flip_table, qm.stabilizer._sampled_table)
        for table in tables:
            table.cache_clear()
        for n in (6, 7):
            for seed in range(3):
                for psi in (qm.haar_random_ket(n, 4300 + seed), random_ghz_orbit(n, 4400 + seed)[0]):
                    qm.classify(psi)
                    qm.panel_of_pure(psi)
                    qm.undetermined_by_dimension(psi)
                    qm.stabilizer_subalgebra(psi)
        # classify and panel_of_pure gather the factors (and classify those
        # of a GHZ orbit's branch, at n - 1 qubits), classify the pair
        # flattenings; the Haar states gather the sampled rows and the GHZ
        # orbits every row, each many times over
        for table, counts in zip(tables, (3, 2, 2, 2)):
            info = table.cache_info()
            assert info.misses == info.currsize == counts and info.hits > 0, (table, info)


def dense_bloch_rows(entries):
    """Reference: the dense Bloch matrix over qubit 1 of the given matrices,
    3 x 2 * 4**(k-1) real columns per k-qubit entry: [Re | Im] of B_x, B_y,
    B_z from the blocks of each entry, written out term by term."""
    rows = []
    for rho in entries:
        x = _blocks(rho, 1)
        b = np.stack([x[0, 1] + x[1, 0], 1j * (x[0, 1] - x[1, 0]), x[0, 0] - x[1, 1]])
        rows += [b.real.reshape(3, -1), b.imag.reshape(3, -1)]
    return np.concatenate(rows, axis=1)


def own_marginals(amps):
    """A state's dense marginals rho_(k), k = 2..n, from its amplitudes."""
    return [_traced_outer(a, a) for a in _qubit_factors(amps)[1:]]


def mixed_in(panel, weight, seed):
    """The panel with every entry k >= 2 mixed with a random pure state, so
    that its blocks leave the span of the pure source's."""
    rng = np.random.default_rng(seed)
    entries = list(panel.entries)
    for i, e in enumerate(entries[1:], start=1):
        v = rng.standard_normal(len(e.entries)) + 1j * rng.standard_normal(len(e.entries))
        v /= np.linalg.norm(v)
        mat = (1 - weight) * e.entries + weight * np.outer(v, v.conj())
        entries[i] = qm.DensityMatrix(e.qubit_labels, mat)
    return qm.RdmPanel(panel.n, tuple(entries))


class TestBlochRows:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_rows_are_the_dense_bloch_matrix(self, n):
        # on uncompressed blocks the kernel is the term-by-term reference,
        # column for column up to the order of the real and imaginary parts
        psi = qm.haar_random_ket(n, 1400 + n)
        entries = own_marginals(psi.amplitudes)
        rows = _bloch_rows(np.stack([_blocks(rho, 1) for rho in entries]))
        want = dense_bloch_rows(entries).reshape(3, n - 1, 2, -1)
        got = rows.view(complex).reshape(3, n - 1, -1)
        assert np.array_equal(got, want[:, :, 0] + 1j * want[:, :, 1])

    @pytest.mark.parametrize("n", range(2, 8))
    def test_gram_is_the_bloch_matrix_gram(self, n):
        states = (
            qm.haar_random_ket(n, 1500 + n),
            qm.random_lu_orbit(qm.ghz_state(n, 0.6, 0.8), seed=1600 + n),
            qm.random_lu_orbit(qm.ghz_state(n), seed=1700 + n),
        )
        for psi in states:
            factors = _qubit_factors(psi.amplitudes)
            for j in range(1, n + 1):
                # with qubit j moved to the front, it is the first qubit of
                # every marginal rho_(k), k != j, as the reference reads them
                front = np.moveaxis(psi.tensor(), j - 1, 0).reshape(-1)
                m = dense_bloch_rows(own_marginals(front))
                f = _bloch_rows(_pair_qr(factors[j - 1], "r"))
                assert f.shape[0] == 3 and f.shape[1] <= 32 * (n - 1)
                np.testing.assert_allclose(f @ f.T, m @ m.T, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_q_spans_the_own_blocks(self, n):
        # Q_k Y_ab Q_k^dagger is the block ab of rho_(k) over qubit 1, and
        # the R-only mode gives the same Y up to rounding
        amps = qm.haar_random_ket(n, 1750 + n).amplitudes
        q, own = _pair_qr(_axis_first(amps, 1))
        np.testing.assert_allclose(_pair_qr(_axis_first(amps, 1), "r"), own, rtol=0, atol=1e-14)
        for qk, y, rho in zip(q, own, own_marginals(amps)):
            np.testing.assert_allclose(qk.conj().T @ qk, np.eye(qk.shape[1]), rtol=0, atol=1e-14)
            np.testing.assert_allclose(qk @ y @ qk.conj().T, _blocks(rho, 1), rtol=0, atol=1e-14)

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="numpy has no extended precision"
    )
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_own_blocks_are_the_q_compression_to_rounding(self, n):
        # Y is Q^dagger x Q for chi's own blocks x, as the panel's are
        # compressed, within float64 rounding of its entries (at most 1);
        # a Y from the QR's own R misses it by a few times that
        amps = qm.haar_random_ket(n, 1780 + n).amplitudes
        q, own = _pair_qr(_axis_first(amps, 1))
        wide = amps.astype(np.clongdouble)
        for k, qk, y in zip(range(2, n + 1), q.astype(np.clongdouble), own):
            a = _axis_first(wide, k)
            x = _blocks(a.swapaxes(-1, -2) @ a.conj(), 1)
            assert np.abs(y - qk.conj().T @ x @ qk).max() <= 2.0**-53

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_second_singular_value_keeps_relative_precision(self, n):
        # 0.6|0..0> + 0.8|1..1> + eps|0..01> under an LU orbit: sigma_2 is
        # 1.13 eps down to eps = 1e-12, where M M^T's eigenvalues would read
        # rounding noise of order 1e-16 for sigma_2^2
        for eps in (1e-6, 1e-8, 1e-10, 1e-12, 0.0):
            psi = eps_state("A", n, eps, 2500 + n)
            s = np.linalg.svd(_bloch_rows(_pair_qr(_qubit_factors(psi.amplitudes)[0], "r")), compute_uv=False)
            if eps:
                assert 1.1 * eps < s[1] < 1.2 * eps
            else:
                assert s[1] < 1e-14

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("kind", ["pure", "mixed", "perturbed"])
    def test_fit_products_match_the_dense_rows(self, n, kind):
        # T S^T and the deflated-turn product h = (P^T T)(P^T R S)^T from
        # the compressed rows of the fit against the dense reference: equal
        # even where the panel's blocks leave chi's span.  h is held to the
        # rounding of its projected rows, which are O(1) here but vanish
        # for the pure panels at n = 2, all GHZ-class
        psi = qm.haar_random_ket(n, 1800 + n)
        if kind == "mixed":
            g = random_matrix(n, np.random.default_rng(1850 + n))
            rho = g @ g.conj().T
            panel = qm.panel_of_mixed(qm.DensityMatrix(tuple(range(1, n + 1)), rho / np.trace(rho)))
        else:
            panel = qm.panel_of_pure(psi)
            if kind == "perturbed":
                panel = mixed_in(panel, 1e-3, 1870 + n)
        u = random_unitary_2x2(np.random.default_rng(1890 + n))
        chi = qm.apply_local(qm.SingleQubitUnitary(u, 1), psi).amplitudes
        target, source = _bloch_pair(panel, _axis_first(chi, 1))
        dense_t = dense_bloch_rows([panel.entry(k).entries for k in range(2, n + 1)])
        dense_s = dense_bloch_rows(own_marginals(chi))
        product = dense_t @ dense_s.T
        np.testing.assert_allclose(
            target @ source.T, product, rtol=0, atol=1e-13 * np.abs(product).max()
        )
        w, _, vt = np.linalg.svd(product)
        rot, plane = w @ vt, w[:, 1:]
        h = (plane.T @ target) @ ((plane.T @ rot) @ source).T
        left, right = plane.T @ dense_t, (plane.T @ rot) @ dense_s
        scale = np.linalg.norm(dense_t) * np.linalg.norm(right) + np.linalg.norm(left) * np.linalg.norm(dense_s)
        np.testing.assert_allclose(h, left @ right.T, rtol=0, atol=1e-13 * scale)


def random_matrix(k, rng):
    d = 2**k
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


class TestMatrixKernels:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_blocks_are_projector_sandwiches(self, k):
        mat = random_matrix(k, np.random.default_rng(3000 + k))
        for p in range(1, k + 1):
            blocks = _blocks(mat, p)
            assert blocks.shape == (2, 2, 2 ** (k - 1), 2 ** (k - 1))
            for a, b in itertools.product(range(2), repeat=2):
                # (I (x) <a| (x) I) M (I (x) |b> (x) I), with <a| and |b> at position p
                bra = np.kron(np.kron(np.eye(2 ** (p - 1)), np.eye(2)[a][None, :]), np.eye(2 ** (k - p)))
                ket = np.kron(np.kron(np.eye(2 ** (p - 1)), np.eye(2)[b][:, None]), np.eye(2 ** (k - p)))
                np.testing.assert_array_equal(blocks[a, b], bra @ mat @ ket)

    @pytest.mark.parametrize("k", range(1, 6))
    def test_trace_positions_match_einsum(self, k):
        mat = random_matrix(k, np.random.default_rng(3100 + k))
        rows, cols = "abcde"[:k], "fghij"[:k]
        for size in range(k + 1):
            for positions in itertools.combinations(range(k), size):
                kept = [q for q in range(k) if q not in positions]
                # a traced position shares its row and column letter
                columns = "".join(rows[q] if q in positions else cols[q] for q in range(k))
                out = "".join(rows[q] for q in kept) + "".join(cols[q] for q in kept)
                dim = 2 ** len(kept)
                want = np.einsum(f"{rows}{columns}->{out}", mat.reshape((2,) * (2 * k))).reshape(dim, dim)
                # the order the positions come in does not matter
                got = _trace_positions(mat, positions[::-1])
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_traced_outer_on_a_stack_is_per_element(self, n):
        rng = np.random.default_rng(3200 + n)
        left, right = rng.standard_normal((2, 3, 2**n)) + 1j * rng.standard_normal((2, 3, 2**n))
        for k in range(1, n + 1):
            a, b = _axis_first(left, k), _axis_first(right, k)
            stacked = _traced_outer(a, b)
            against_one = _traced_outer(a, b[0])
            assert stacked.shape == against_one.shape == (3, 2 ** (n - 1), 2 ** (n - 1))
            for i in range(3):
                want = _traced_outer(a[i], b[i])
                np.testing.assert_allclose(stacked[i], want, rtol=0, atol=1e-14)
                want = _traced_outer(a[i], b[0])
                np.testing.assert_allclose(against_one[i], want, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_one_qubit_marginals_match_the_fold(self, k):
        rng = np.random.default_rng(3300 + k)
        mat = random_matrix(k, rng)
        for p in range(1, k + 1):
            others = [q for q in range(k) if q != p - 1]
            # the fold sums in another order: equal to rounding
            want = _trace_positions(mat, others)
            np.testing.assert_allclose(_one_qubit_marginal(mat, p), want, rtol=0, atol=1e-13)


def exact_remainder(mat, a):
    """||mat - a^T a^*||_F in extended precision: the reference for the bound."""
    a = a.astype(np.clongdouble)
    diff = mat.astype(np.clongdouble) - a.T @ a.conj()
    return float(np.sqrt(np.sum(np.abs(diff) ** 2)))


class TestRankTwoFactor:
    """The certificate of load_panel: a rank-2 factor and a bound on its remainder."""

    @pytest.mark.parametrize("n", [6, 8])
    @pytest.mark.parametrize("kind", ["haar", "ghz-balanced", "product"])
    def test_pure_marginals_are_certified(self, n, kind):
        psi = {
            "haar": lambda: qm.haar_random_ket(n, 3400 + n),
            "ghz-balanced": lambda: qm.random_lu_orbit(qm.ghz_state(n), 3410 + n),
            "product": lambda: qm.random_product_ket(n, 3420 + n),
        }[kind]()
        for j in (1, n):
            f = _axis_first(psi.amplitudes, j)
            rho = _traced_outer(f, f)
            a, remainder = _rank_two_factor(rho)
            assert a.shape == (2, 2 ** (n - 1))
            assert exact_remainder(rho, a) <= remainder <= 1e-13

    @staticmethod
    def _third_mixed_in(delta):
        f = _axis_first(qm.haar_random_ket(7, 3430).amplitudes, 2)
        rho = _traced_outer(f, f)
        v = np.linalg.eigh(rho)[1][:, 0]  # a direction outside rho's range
        return (1 - delta) * rho + delta * np.outer(v, v.conj())

    @pytest.mark.parametrize("delta", [1e-12, 1e-11, HERM_TOL / 4])
    def test_remainder_bounds_a_third_eigenvalue(self, delta):
        rho = self._third_mixed_in(delta)
        a, remainder = _rank_two_factor(rho)
        assert exact_remainder(rho, a) <= remainder
        assert np.linalg.eigvalsh(rho)[-3] <= remainder <= 2 * delta

    @pytest.mark.parametrize("delta", [2 * HERM_TOL, 1e-9, 1e-7, 1e-3])
    def test_no_factor_beyond_herm_tol(self, delta):
        assert _rank_two_factor(self._third_mixed_in(delta)) is None

    def test_remainder_spread_thin_past_herm_tol_keeps_no_factor(self):
        # 100 small eigenvalues past the top two: each, and so the third
        # Ritz value, is below HERM_TOL, but the remainder is not
        f = _axis_first(qm.haar_random_ket(8, 3435).amplitudes, 1)
        rho = _traced_outer(f, f)
        outside = np.linalg.eigh(rho)[1][:, :100]
        delta = 5e-9
        rho = (1 - delta) * rho + (delta / 100) * outside @ outside.conj().T
        assert np.linalg.eigvalsh(rho)[-3] < HERM_TOL < delta / 10
        assert _rank_two_factor(rho) is None

    def test_full_rank_matrix_keeps_no_factor(self):
        g = random_matrix(6, np.random.default_rng(3440))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        assert np.linalg.eigvalsh(rho)[-3] > 1e-3
        assert _rank_two_factor(rho) is None

    def test_small_matrices_take_the_eigensolve(self):
        # below the switch a full eigvalsh is cheaper than the certificate
        rho = np.eye(_CERTIFY_MIN_DIM // 2, dtype=complex) / (_CERTIFY_MIN_DIM // 2)
        assert _rank_two_factor(rho) is None


def _label_calls():
    """One call per function that reads a caller's qubit label, each taking
    the label last."""
    psi = qm.haar_random_ket(3, 40)
    panel = qm.panel_of_pure(psi)
    return {
        "partial_trace": lambda j: qm.partial_trace(psi.density(), [j]),
        "PanelSubset": lambda j: qm.PanelSubset(panel, frozenset({j})),
        "subset_equal": lambda j: qm.subset_equal(psi, psi, {j}),
        "tensor_insert": lambda j: qm.tensor_insert([1, 0], np.ones(4) / 2, j),
        "schmidt_split": lambda j: qm.schmidt_split(psi, j),
        "extract_local_unitary": lambda j: qm.extract_local_unitary(psi, psi, j),
        "purify_over_qubit": lambda j: qm.purify_over_qubit(panel.entry(1), j),
        "entry": lambda j: panel.entry(j),
    }


class TestCallerIntegers:
    @pytest.mark.parametrize("name", list(_label_calls()))
    @pytest.mark.parametrize(
        "j, message",
        [(1.0, "qubit label 1.0 is not an integer"), (1.5, "qubit label 1.5 is not an integer"),
         (2.9, "qubit label 2.9 is not an integer"), ("1", "qubit label '1' is not an integer"),
         (0, "qubit label 0 out of range"), (-1, "qubit label -1 out of range"),
         (4, "qubit label 4 out of range|omitting qubit 4 of 3|not in")],
    )
    def test_a_qubit_label_is_an_integer_in_range(self, name, j, message):
        # int() once read 1.5 as qubit 1 and 2.9 as qubit 2, and numpy
        # raised TypeError for 1.0
        with pytest.raises(ValueError, match=message):
            _label_calls()[name](j)

    @pytest.mark.parametrize("name", list(_label_calls()))
    def test_a_numpy_integer_label_is_read_as_its_int(self, name):
        _label_calls()[name](np.int64(1))

    @pytest.mark.parametrize(
        "call, message",
        [(lambda: qm.Ket(2.0, np.eye(4)[0]), "qubit count 2.0 is not an integer"),
         (lambda: qm.basis_ket(2, 1.0), "basis index 1.0 is not an integer"),
         (lambda: qm.MultiIndex.from_linear(1.0, 2), "basis index 1.0 is not an integer"),
         (lambda: qm.MultiIndex.from_linear(1, 2.0), "qubit count 2.0 is not an integer"),
         (lambda: qm.search_sibling(qm.ghz_state(3), budget=2.5), "budget 2.5 is not an integer"),
         (lambda: qm.RdmPanel(2.0, qm.panel_of_pure(qm.ghz_state(2)).entries),
          "qubit count 2.0 is not an integer"),
         (lambda: qm.ghz_state(3.0), "qubit count 3.0 is not an integer"),
         (lambda: qm.eta_state(3.0, 1), "qubit count 3.0 is not an integer"),
         (lambda: qm.haar_random_ket(2.0, 1), "qubit count 2.0 is not an integer"),
         (lambda: qm.random_product_ket(2.5, 1), "qubit count 2.5 is not an integer"),
         (lambda: qm.haar_random_ket(2, 1.5), "seed 1.5 is not an integer"),
         (lambda: qm.random_product_ket(2, 1.5), "seed 1.5 is not an integer"),
         (lambda: qm.random_lu_orbit(qm.ghz_state(3), 1.5), "seed 1.5 is not an integer"),
         (lambda: qm.search_sibling(qm.ghz_state(3), seed=1.5), "seed 1.5 is not an integer")],
        ids=["Ket", "basis_ket", "from_linear-index", "from_linear-n", "search_sibling",
             "RdmPanel", "ghz_state", "eta_state", "haar_random_ket-n", "random_product_ket-n",
             "haar_random_ket-seed", "random_product_ket-seed", "random_lu_orbit-seed",
             "search_sibling-seed"],
    )
    def test_an_integer_argument_rejects_a_float(self, call, message):
        # Ket(2.0, ...) was once accepted, and its .tensor() raised TypeError;
        # RdmPanel's range() and numpy's shapes and SeedSequence raised
        # TypeError for the others
        with pytest.raises(ValueError, match=message):
            call()

    def test_integer_arguments_accept_numpy_integers(self):
        psi = qm.Ket(np.int64(2), np.eye(4)[1])
        assert type(psi.n) is int and psi.tensor().shape == (2, 2)
        np.testing.assert_array_equal(qm.basis_ket(2, np.int64(1)).amplitudes, psi.amplitudes)
        assert qm.MultiIndex.from_linear(np.int64(1), np.int64(2)).bits == (0, 1)
        assert qm.search_sibling(qm.ghz_state(3), budget=np.int64(2)).trials == 2
        two = np.int64(2)
        panel = qm.RdmPanel(two, qm.panel_of_pure(qm.ghz_state(2)).entries)
        assert type(panel.n) is int and panel.entry(2).qubit_labels == (1,)
        assert qm.ghz_state(two).n == qm.eta_state(two, 1).n == 2
        for make in (lambda x: qm.haar_random_ket(x, x), lambda x: qm.random_product_ket(x, x),
                     lambda x: qm.random_lu_orbit(qm.ghz_state(2), x)):
            np.testing.assert_array_equal(make(two).amplitudes, make(2).amplitudes)
        # past the 16 grid starts, the seed draws the random ones
        reports = [qm.search_sibling(qm.haar_random_ket(3, 5), budget=20, seed=x) for x in (two, 2)]
        assert reports[0].best_residual == reports[1].best_residual
