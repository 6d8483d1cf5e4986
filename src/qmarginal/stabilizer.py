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
product test, since a certified nullity of 0 is never n - 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensors import (
    PAULIS,
    Ket,
    SingleQubitUnitary,
    _axis_first,
    _axis_restore,
    _bit_flips,
    _grams,
    _qubit_factors,
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


def _pauli_system(psi: Ket, rows: np.ndarray) -> np.ndarray:
    """Rows of m at the basis indices ``rows``: the real parts, then the
    imaginary parts, of those rows of the complex matrix whose columns are
    (iX_j)psi, (iY_j)psi, (iZ_j)psi for each qubit j, followed by i*psi.

    Each entry is a gathered amplitude: (iX_j psi)[i] = i psi[i^b_j],
    (iY_j psi)[i] = +-psi[i^b_j], (iZ_j psi)[i] = +-i psi[i], with sign -
    where qubit j's bit of i is set, and i*(a + ib) = -b + ia.  The result
    is column-major, the layout LAPACK factors without a copy."""
    n = psi.n
    flips, bits = _bit_flips(rows, n)
    sign = 1.0 - 2.0 * bits
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
    sampled = _pauli_system(psi, _sampled_rows(n))
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
    """Raw amplitudes of sum_j i (x_j X_j + y_j Y_j + z_j Z_j) |psi>."""
    if element.n != psi.n:
        raise ValueError("qubit counts differ")
    n = psi.n
    out = np.zeros(2**n, dtype=complex)
    for j in range(1, n + 1):
        a = _axis_first(psi.amplitudes, n, j)
        op = sum(element.coords[j - 1, p] * PAULIS[p] for p in range(3))
        out += _axis_restore(1j * op @ a, n, j)
    return out


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


def _full_rule(psi: Ket) -> StabilizerBasis:
    """``stabilizer_subalgebra`` from all 2*2^n rows of m, with no
    certificate."""
    n = psi.n
    m_rows = 2 * 2**n
    m = _pauli_system(psi, np.arange(2**n, dtype=np.int64))
    # 2*2^n >= 3n+1 rows for every n >= 1, so R is square and vh is the full
    # right factor; the threshold still scales with the shape of m, not of R
    _, svals, vh = np.linalg.svd(np.linalg.qr(m, mode="r"))
    nullity = int(np.sum(svals < _null_threshold(svals[0], m_rows)))
    basis_rows = _rref(vh[m.shape[1] - nullity :])
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
    order, which gives the verdict of running them alone.
    """
    n = psi.n
    if n == 4 or n < 3:
        return "inapplicable"
    certified = _certified_trivial(psi)
    if certified:
        return "determined"
    if np.min(np.linalg.eigvalsh(_grams(_qubit_factors(psi)))[:, 0]) < PRODUCT_TOL:
        return "determined"
    # past a failed certificate, straight to the full rule rather than
    # through stabilizer_subalgebra, which would run the certificate again
    basis = stabilizer_subalgebra(psi) if certified is None else _full_rule(psi)
    return "undetermined" if basis.dimension == n - 1 else "determined"


def conjugate_element(
    element: AlgebraElement, unitaries: list[SingleQubitUnitary]
) -> AlgebraElement:
    """Adjoint action: rotate each per-qubit su(2) coordinate triple by its
    local unitary (A_j -> U_j A_j U_j^dagger); the phase is untouched."""
    if len(unitaries) != element.n:
        raise ValueError("need one unitary per qubit")
    coords = np.zeros_like(element.coords)
    for j, u in enumerate(unitaries):
        a = sum(element.coords[j, p] * PAULIS[p] for p in range(3))
        rotated = u.entries @ a @ u.entries.conj().T
        for p in range(3):
            coords[j, p] = 0.5 * np.trace(rotated @ PAULIS[p]).real
    return AlgebraElement(coords, element.phase)


def verify_ghz_subalgebra(
    basis: StabilizerBasis,
    locals_: list[SingleQubitUnitary],
    tol: float = ACTION_TOL,
) -> bool:
    """Check that, after per-qubit adjoint conjugation, the basis spans
    exactly the traceless diagonal algebra {sum_j i t_j Z_j : sum_j t_j = 0}."""
    if not basis.elements:
        return False
    n = basis.elements[0].n
    if len(locals_) != n:
        raise ValueError("need one local unitary per qubit")
    if basis.dimension != n - 1:
        return False
    z_rows = np.zeros((basis.dimension, n))
    for i, element in enumerate(basis.elements):
        rotated = conjugate_element(element, locals_)
        if np.max(np.abs(rotated.coords[:, :2])) > tol:
            return False
        if abs(rotated.phase) > tol:
            return False
        if abs(rotated.coords[:, 2].sum()) > tol:
            return False
        z_rows[i] = rotated.coords[:, 2]
    rank = np.linalg.matrix_rank(z_rows, tol=tol)
    return int(rank) == n - 1
