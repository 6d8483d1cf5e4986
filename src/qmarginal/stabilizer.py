"""Local unitary stabilizer subalgebra of a pure state.

An element is a sum of per-qubit anti-Hermitian generators plus a global
phase generator,

    g = sum_j i (x_j X_j + y_j Y_j + z_j Z_j),

and g stabilizes the density matrix |psi><psi| exactly when g|psi> =
i*theta*|psi> for some real theta.  Collecting the real and imaginary
parts of that eigen-relation into one real linear system turns the
subalgebra into the nullspace of a (2*2^n) x (3n+1) matrix, which is what
this module computes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensors import (
    PAULIS,
    Ket,
    SingleQubitUnitary,
    _axis_first,
    schmidt_split,
)

ACTION_TOL = 1e-8
_RREF_PIVOT_TOL = 1e-10


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


def _pauli_columns(psi: Ket) -> np.ndarray:
    """Complex matrix whose columns are (iX_j)psi, (iY_j)psi, (iZ_j)psi
    for each qubit j, followed by i*psi."""
    n = psi.n
    dim = 2**n
    cols = np.zeros((dim, 3 * n + 1), dtype=complex)
    for j in range(1, n + 1):
        a = _axis_first(psi.amplitudes, n, j)
        for p, sigma in enumerate(PAULIS):
            moved = (1j * sigma @ a).reshape((2,) * n)
            cols[:, 3 * (j - 1) + p] = np.moveaxis(moved, 0, j - 1).reshape(-1)
    cols[:, 3 * n] = 1j * psi.amplitudes
    return cols


def element_action(element: AlgebraElement, psi: Ket) -> np.ndarray:
    """Raw amplitudes of sum_j i (x_j X_j + y_j Y_j + z_j Z_j) |psi>."""
    if element.n != psi.n:
        raise ValueError("qubit counts differ")
    n = psi.n
    out = np.zeros(2**n, dtype=complex)
    for j in range(1, n + 1):
        a = _axis_first(psi.amplitudes, n, j)
        op = sum(element.coords[j - 1, p] * PAULIS[p] for p in range(3))
        moved = (1j * op @ a).reshape((2,) * n)
        out += np.moveaxis(moved, 0, j - 1).reshape(-1)
    return out


def _rref(rows: np.ndarray, pivot_tol: float = _RREF_PIVOT_TOL) -> np.ndarray:
    """Reduced row echelon form over the reals (for a canonical basis)."""
    m = np.array(rows, dtype=float)
    r = 0
    for c in range(m.shape[1]):
        if r >= m.shape[0]:
            break
        pivot = r + int(np.argmax(np.abs(m[r:, c])))
        if abs(m[pivot, c]) < pivot_tol:
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

    Builds the real matrix with 2*2^n rows (real and imaginary amplitude
    parts) and 3n+1 columns (per-qubit Pauli generators plus the global
    phase) and returns a reduced-echelon basis of its nullspace.  A kernel
    vector with zero last coordinate annihilates psi outright; a nonzero
    last coordinate encodes theta, with the sign flipped because the phase
    column enters the system as +i*psi.
    """
    n = psi.n
    cols = _pauli_columns(psi)
    m = np.vstack([cols.real, cols.imag])
    # thin SVD: only vh is used, and 2*2^n >= 3n+1 rows for every n >= 1, so
    # vh is still the full (3n+1) x (3n+1) right factor
    _, svals, vh = np.linalg.svd(m, full_matrices=False)
    smax = svals[0] if svals.size else 0.0
    threshold = max(1e-9, 1e-12 * smax * max(m.shape))
    nullity = int(np.sum(svals < threshold)) + (m.shape[1] - svals.size)
    if nullity == 0:
        return StabilizerBasis((), 0)
    kernel = vh[m.shape[1] - nullity :]
    basis_rows = _rref(kernel)
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
    """
    n = psi.n
    if n == 4 or n < 3:
        return "inapplicable"
    for j in range(1, n + 1):
        if schmidt_split(psi, j).weights[1] < 1e-10:
            return "determined"
    basis = stabilizer_subalgebra(psi)
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
