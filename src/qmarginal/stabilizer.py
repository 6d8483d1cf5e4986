"""Local unitary stabilizer subalgebra of a pure state.

An element is a sum of per-qubit anti-Hermitian generators plus a global
phase generator,

    g = sum_j i (x_j X_j + y_j Y_j + z_j Z_j),

and g stabilizes the density matrix |psi><psi| exactly when g|psi> =
i*theta*|psi> for some real theta.  Collecting the real and imaginary
parts of that eigen-relation into one real linear system turns the
subalgebra into the nullspace of a (2*2^n) x (3n+1) matrix m, which this
module reads from the SVD of m's square QR factor R: R^T R = m^T m, so R has
m's singular values and right singular vectors, with no 2*2^n-row factor.

Almost every state is fixed by its marginals, and its subalgebra is then
trivial.  For n >= 6 a cheaper certificate proves that first, from the rows
m_S of m at 2(3n+1) sampled basis indices: deleting rows only lowers singular
values, so sigma_min(m) >= sigma_min(m_S), and every column of m has norm
|psi|, so sigma_max(m) <= |m|_F = sqrt(3n+1)*|psi|.  A sampled sigma_min at
or above the nullity threshold t evaluated at that sigma_max bound therefore
means that the full rule would find nullity 0 as well.  The certificate
proves sigma_min(m_S) >= t with one Cholesky factorisation of the
(3n+1) x (3n+1) Gram matrix m_S^T m_S shifted down by t^2 plus a rounding
slack, not with an SVD; when the factorisation fails, the full rule decides.
``undetermined_by_dimension`` runs this certificate first, before its
product test, since a certified nullity of 0 is never n - 1.  Past it, the
verdict reads only the nullity of m (``_nullity``); only
``stabilizer_subalgebra`` builds the echelon basis and its elements.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .tensors import (
    Ket,
    SingleQubitUnitary,
    _adjoint_rotation,
    _check_tol,
    _flip_table,
    _grams,
    _qubit_factors,
    _row_table,
)
from .tolerances import ACTION_TOL, NULL_FLOOR, NULL_REL_TOL, PRODUCT_TOL, RREF_PIVOT_TOL


@dataclass(frozen=True)
class AlgebraElement:
    """su(2)-per-qubit coordinates plus the global-phase coordinate theta.

    For an element returned as stabilizing psi,
    sum_j i (x_j X_j + y_j Y_j + z_j Z_j) |psi> = i * theta * |psi>.
    """

    coords: np.ndarray  # shape (n, 3): rows (x_j, y_j, z_j)
    phase: float

    def __post_init__(self):
        coords = np.array(self.coords, dtype=float)
        if coords.ndim != 2 or coords.shape[1] != 3:
            raise ValueError(f"coords must have shape (n, 3), got {coords.shape}")
        coords.setflags(write=False)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "phase", float(self.phase))

    @property
    def n(self) -> int:
        return self.coords.shape[0]


@dataclass(frozen=True)
class StabilizerBasis:
    elements: tuple[AlgebraElement, ...]
    dimension: int

    def __post_init__(self):
        elements = tuple(self.elements)
        if len(elements) != self.dimension:
            raise ValueError("dimension must equal the element count")
        object.__setattr__(self, "elements", elements)


def _sampled_rows(n: int) -> np.ndarray:
    """2(3n+1) distinct basis indices, k * 0x9E3779B1 mod 2^n, for n >= 6.

    The odd multiplier makes them distinct and varies every qubit's bit
    across the sample.  A strided slice would fix the low qubits, and on
    those rows iZ_j psi and i psi coincide, so m_S would be singular."""
    return (np.arange(2 * (3 * n + 1), dtype=np.int64) * 0x9E3779B1) % 2**n


@functools.cache
def _sampled_table(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``_row_table`` of ``_sampled_rows``, as ``tensors._flip_table``
    holds it for every row: built once per n, for the certificate's block
    m_S."""
    return _row_table(_sampled_rows(n), n)


def _pauli_system(psi: Ket, table: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
    """Rows of m at the basis indices of ``table``, (rows, flips, signs) as
    ``tensors._flip_table`` (every row) and ``_sampled_table`` (m_S) hold
    them: the real parts, then the imaginary parts, of those rows of the
    complex matrix whose columns are (iX_j)psi, (iY_j)psi, (iZ_j)psi for
    each qubit j, followed by i*psi.

    Each entry is a gathered amplitude: (iX_j psi)[i] = i psi[i^b_j],
    (iY_j psi)[i] = +-psi[i^b_j], (iZ_j psi)[i] = +-i psi[i], with sign -
    where qubit j's bit of i is set, and i*(a + ib) = -b + ia.  The result
    is column-major, the layout LAPACK factors without a copy."""
    n = psi.n
    rows, flips, sign = table
    flipped = psi.amplitudes[flips]
    own = psi.amplitudes[rows]
    # columns[c] holds column c of m, its real half then its imaginary half
    columns = np.empty((3 * n + 1, 2, len(rows)))
    acts = columns[:-1].reshape(n, 3, 2, len(rows))
    acts[:, 0, 0] = -flipped.imag
    acts[:, 0, 1] = flipped.real
    acts[:, 1, 0] = sign * flipped.real
    acts[:, 1, 1] = sign * flipped.imag
    acts[:, 2, 0] = sign * -own.imag
    acts[:, 2, 1] = sign * own.real
    columns[-1] = -own.imag, own.real
    return columns.reshape(3 * n + 1, -1).T


def _null_threshold(sigma_max: float, m_rows: int) -> float:
    """Singular values of the 2*2^n-row m below this count as zero."""
    return max(NULL_FLOOR, NULL_REL_TOL * sigma_max * m_rows)


def _certified_trivial(psi: Ket) -> bool | None:
    """Whether the rows m_S of m at ``_sampled_rows`` prove nullity 0.

    None for n < 6, where 2(3n+1) >= 2^n and there is no sampled block.
    True when sigma_min(m_S) >= t, the nullity threshold at sigma_max(m)'s
    bound sqrt(3n+1) * |psi|, proved by a Cholesky factorisation of
    m_S^T m_S - (t^2 + slack) I.  False when the factorisation fails: for a
    state with a nontrivial subalgebra (its null vectors annihilate m_S), or
    one with sigma_min(m_S) too close to t; the caller then runs the full
    rule."""
    n = psi.n
    k = 3 * n + 1
    if 2 * k >= 2**n:
        return None
    sampled = _pauli_system(psi, _sampled_table(n))
    frobenius = np.sqrt(k) * np.linalg.norm(psi.amplitudes)
    threshold = _null_threshold(frobenius, 2 * 2**n)
    # Why a completed factorisation proves lambda_min(G) >= t^2 for the
    # exact Gram matrix G = m_S^T m_S.  Write r = 4(3n+1) for the rows of
    # m_S, u = 2^-53, gamma_j = j u / (1 - j u), and F^2 = frobenius^2 >=
    # |m_S|_F^2 (each column of m_S is part of a column of m, of norm |psi|);
    # m_S itself is exact, its entries copied amplitudes.
    # 1. The computed Gram is G + E1 with |E1| <= gamma_r |m_S|^T |m_S|
    #    entrywise, for any order of the sums (Higham, Accuracy and Stability
    #    of Numerical Algorithms, 2nd ed., eq. 3.13), so |E1|_2 <= gamma_r F^2.
    # 2. Subtracting s = fl(t^2 + slack) from its diagonal adds a diagonal E2
    #    with |E2|_2 <= u max_i G_ii <= u (1 + gamma_r) F^2.
    # 3. If Cholesky completes on the result A, then R^T R = A + E3 with
    #    |E3| <= gamma_(k+1) |R^T| |R|, for any order of the inner products,
    #    LAPACK's blocked dpotrf included (Higham, Thm 10.3), and
    #    | |R^T| |R| |_2 <= |R|_F^2 = tr(A + E3) <= tr(A) / (1 - gamma_(k+1))
    #    <= (1 + gamma_r) F^2 / (1 - gamma_(k+1)).  R^T R is positive
    #    definite, so lambda_min(A) > -|E3|_2: Rump's verification of
    #    positive definiteness (BIT 46, 2006), whose underflow term is far
    #    below the slack, since |psi| is 1 within 1e-6 for a Ket.
    # 4. By Weyl's inequality, lambda_min(G) >= s - |E1|_2 - |E2|_2 - |E3|_2,
    #    and s is within 2u s of t^2 + slack, where a positive first pivot
    #    needs s < (1 + u) G_11 <= (1 + u)(1 + gamma_r) F^2.
    # The errors sum to (r + k + 4) u F^2 to first order; (r + k) u < 1e-12
    # for n < 600, so the factor 2 covers the higher orders and the rounding
    # of frobenius and of the slack itself.
    slack = 2 * (sampled.shape[0] + k + 4) * 2.0**-53 * frobenius**2
    gram = sampled.T @ sampled
    gram.flat[:: k + 1] -= threshold**2 + slack
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return False
    return True


def element_action(element: AlgebraElement, psi: Ket) -> np.ndarray:
    """Raw amplitudes of sum_j i (x_j X_j + y_j Y_j + z_j Z_j) |psi>: m
    without its phase column (``_pauli_system``) times the coordinates."""
    if element.n != psi.n:
        raise ValueError("qubit counts differ")
    m = _pauli_system(psi, _flip_table(psi.n))
    real, imag = (m[:, :-1] @ element.coords.reshape(-1)).reshape(2, -1)
    return real + 1j * imag


def _rref(rows: np.ndarray) -> np.ndarray:
    """Reduced row echelon form over the reals (for a canonical basis)."""
    m = np.array(rows, dtype=float)
    r = 0
    for c in range(m.shape[1]):
        if r >= m.shape[0]:
            break
        pivot = r + int(np.argmax(np.abs(m[r:, c])))
        if abs(m[pivot, c]) < RREF_PIVOT_TOL:
            continue
        m[[r, pivot]] = m[[pivot, r]]
        m[r] = m[r] / m[r, c]
        for other in range(m.shape[0]):
            if other != r:
                m[other] -= m[other, c] * m[r]
        r += 1
    return m[:r]


def stabilizer_subalgebra(psi: Ket) -> StabilizerBasis:
    """Basis of the local unitary stabilizer subalgebra of |psi><psi|.

    Builds the real matrix m with 2*2^n rows (real and imaginary amplitude
    parts) and 3n+1 columns (per-qubit Pauli generators plus the global
    phase) and reads a reduced-echelon basis of its nullspace from the SVD of
    m's QR factor R (R^T R = m^T m).  A kernel vector with zero last
    coordinate annihilates psi; a nonzero last coordinate encodes theta, with
    the sign flipped because the phase column enters the system as +i*psi.

    For n >= 6, where 2(3n+1) < 2^n, the rows m_S of m at the basis indices
    of ``_sampled_rows`` are tried first.  If sigma_min(m_S) >= t =
    max(NULL_FLOOR, NULL_REL_TOL * sqrt(3n+1) * |psi| * 2^(n+1)), the
    threshold of the rule below at its largest possible sigma_max(m), then
    sigma_min(m) lies above the threshold too, and the empty basis is
    returned without building m.  The inequality is proved by a Cholesky
    factorisation of m_S^T m_S - (t^2 + slack) I.  The slack, 2(5k + 4) k u
    |psi|^2 for k = 3n+1 columns and u = 2^-53, bounds the rounding of the
    Gram matrix and Cholesky's backward error (derived in
    ``_certified_trivial``); it leaves uncertified only sigma_min(m_S)
    between t and about 1e-6.  A state with a nontrivial subalgebra never
    passes (its null vectors annihilate m_S as well), and a trivial one that
    fails takes the full path, so the result is the full rule's either way.
    """
    if _certified_trivial(psi):
        return StabilizerBasis((), 0)
    return _full_rule(psi)


def _nullity(psi: Ket) -> tuple[int, np.ndarray]:
    """The nullity of m from all 2*2^n of its rows, with no certificate, and
    the right factor vh of the SVD of m's QR factor R, whose last rows (as
    many as the nullity) span the null space."""
    m = _pauli_system(psi, _flip_table(psi.n))
    # 2*2^n >= 3n+1 rows for every n >= 1, so R is square and vh is the full
    # right factor; the threshold still scales with the shape of m, not of R
    _, svals, vh = np.linalg.svd(np.linalg.qr(m, mode="r"))
    return int(np.sum(svals < _null_threshold(svals[0], len(m)))), vh


def _full_rule(psi: Ket) -> StabilizerBasis:
    """``stabilizer_subalgebra`` from all 2*2^n rows of m, with no
    certificate."""
    n = psi.n
    nullity, vh = _nullity(psi)
    basis_rows = _rref(vh[len(vh) - nullity :])
    elements = tuple(
        AlgebraElement(row[: 3 * n].reshape(n, 3), -row[3 * n])
        for row in basis_rows
    )
    return StabilizerBasis(elements, len(elements))


def undetermined_by_dimension(psi: Ket) -> str:
    """Apply the stabilizer-dimension test for being undetermined.

    Returns "undetermined", "determined", or "inapplicable".  The dimension
    criterion is only definitive for n = 3 and n >= 5: a state is
    undetermined among pure states iff it does not factor across any single
    qubit and its stabilizer subalgebra has dimension n - 1.

    For n >= 6 the sampled-row certificate of ``stabilizer_subalgebra`` (a
    Cholesky factorisation proving sigma_min(m_S) above the nullity
    threshold) runs first, once: a certified nullity of 0 is never n - 1, so
    a state that passes is "determined" with no product test and no full
    system.  Otherwise the product test (a one-qubit marginal's least
    eigenvalue below PRODUCT_TOL) and then the full rule decide, in that
    order, which gives the verdict of running them alone.  The verdict
    needs only the dimension, so the full rule stops at the nullity of m
    (``_nullity``, the SVD ``stabilizer_subalgebra`` reads too) and builds
    no echelon basis: the nullity rows of vh are orthonormal, so their
    echelon form has as many rows, and the nullity is the dimension.
    """
    n = psi.n
    if n == 4 or n < 3:
        return "inapplicable"
    if _certified_trivial(psi):
        return "determined"
    if np.min(np.linalg.eigvalsh(_grams(_qubit_factors(psi.amplitudes)))[:, 0]) < PRODUCT_TOL:
        return "determined"
    # past the certificate, straight to the nullity: going through
    # stabilizer_subalgebra would run the certificate again
    return "undetermined" if _nullity(psi)[0] == n - 1 else "determined"


def _local_rotations(unitaries: list[SingleQubitUnitary], n: int) -> np.ndarray:
    """The (n, 3, 3) adjoint rotations O(U_j); ``ValueError`` unless the
    unitaries' targets are 1..n in order."""
    if [u.target for u in unitaries] != list(range(1, n + 1)):
        raise ValueError(f"need one local unitary per qubit, on qubits 1..{n} in order")
    us = np.array([u.entries for u in unitaries])
    return _adjoint_rotation(us, us)


def conjugate_element(
    element: AlgebraElement, unitaries: list[SingleQubitUnitary]
) -> AlgebraElement:
    """Adjoint action: rotate each per-qubit su(2) coordinate triple by its
    local unitary (A_j -> U_j A_j U_j^dagger); the phase is untouched.
    Raises ``ValueError`` unless the unitaries act on qubits 1..n in
    order."""
    rotations = _local_rotations(unitaries, element.n)
    return AlgebraElement(np.einsum("jcd,jd->jc", rotations, element.coords), element.phase)


def verify_ghz_subalgebra(
    basis: StabilizerBasis,
    locals_: list[SingleQubitUnitary],
    tol: float = ACTION_TOL,
) -> bool:
    """Check that, after per-qubit adjoint conjugation, the basis spans
    exactly the traceless diagonal algebra {sum_j i t_j Z_j : sum_j t_j = 0}.
    Raises ``ValueError`` for a tol that is not positive and finite (NaN
    included), and unless the local unitaries act on qubits 1..n in order."""
    _check_tol(tol)
    if not basis.elements:
        return False
    n = basis.elements[0].n
    rotations = _local_rotations(locals_, n)
    if basis.dimension != n - 1:
        return False
    # every element at once: coords[i] is conjugate_element(element i)'s
    coords = np.einsum("jcd,ijd->ijc", rotations, [e.coords for e in basis.elements])
    phases = np.abs([e.phase for e in basis.elements])
    if np.max(np.abs(coords[:, :, :2])) > tol or np.max(phases) > tol:
        return False
    if np.max(np.abs(coords[:, :, 2].sum(axis=1))) > tol:
        return False
    return int(np.linalg.matrix_rank(coords[:, :, 2], tol=tol)) == n - 1
