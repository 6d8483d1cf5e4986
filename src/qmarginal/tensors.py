"""Dense complex linear algebra on qubit-indexed tensors.

Conventions used throughout the package:

* An n-qubit pure state is a vector of 2**n complex amplitudes indexed by
  the bit string (i_1 ... i_n).  Qubit 1 is the most significant bit of the
  linear index, so the amplitude of |i_1 i_2 ... i_n> sits at position
  sum_j i_j * 2**(n-j) and basis labels read left to right in dumps.
* Qubit labels are 1-based.
* This module is the only one that knows that layout.  Every one-qubit
  action and every pure-state marginal goes through one kernel: the
  axis-first view ``_axis_first`` (a (2, 2**(n-1)) array with qubit j as
  the row index), its inverse ``_axis_restore``, their stack over every
  qubit ``_qubit_factors`` (whose ``_grams`` are the one-qubit marginals),
  the traced outer product ``_traced_outer``, and ``_bloch_factor``, a
  factor of the Gram of the marginals' Bloch matrix over one qubit;
  ``_bit_flips`` gives the same one-qubit flips as indices, for gathering
  amplitudes.  ``partial_trace`` is
  the kernel for density matrices, with ``_trace_positions`` as its
  unchecked array core.
* ``_act`` is the one-qubit action kernel.  Matrices the package built
  go through it raw, with no ``SingleQubitUnitary`` and no ``Ket`` per
  step; the public ``apply_local(s)`` check every target, then build one
  ``Ket``.
* All values are immutable after construction; the operations below are
  pure functions and safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NORM_TOL = 1e-12
HERM_TOL = 1e-10
UNITARY_TOL = 1e-10
DEGENERACY_TOL = 1e-8
PHASE_FIX_FLOOR = 1e-9


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Ket:
    """Normalized n-qubit pure state (qubit 1 = most significant bit)."""

    n: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"qubit count must be >= 1, got {self.n}")
        amps = _frozen(np.asarray(self.amplitudes).reshape(-1))
        if amps.size != 2**self.n:
            raise ValueError(
                f"expected {2**self.n} amplitudes for n={self.n}, got {amps.size}"
            )
        norm = np.linalg.norm(amps)
        # NaN passes the "> 1e-6" test below; a NaN or infinity among the
        # amplitudes makes the norm non-finite, so only then are they scanned
        if not np.isfinite(norm) and not np.isfinite(amps).all():
            raise ValueError("ket amplitudes must be finite")
        if abs(norm - 1.0) > 1e-6:
            raise ValueError(f"ket is not normalized (norm={norm!r})")
        if abs(norm - 1.0) > NORM_TOL:
            amps = _frozen(amps / norm)
        object.__setattr__(self, "amplitudes", amps)

    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis of length 2 per qubit."""
        return self.amplitudes.reshape((2,) * self.n)

    def overlap(self, other: "Ket") -> complex:
        if other.n != self.n:
            raise ValueError("qubit counts differ")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def density(self) -> "DensityMatrix":
        # |psi><psi| from the 1 x 2^n factor: checked in O(2^n), no eigensolve
        return DensityMatrix._from_factor(
            tuple(range(1, self.n + 1)), self.amplitudes.reshape(1, -1)
        )


def ket(amplitudes, n: int | None = None) -> Ket:
    """Build a Ket from any amplitude sequence, normalizing it."""
    amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if n is None:
        n = int(round(np.log2(amps.size)))
    norm = np.linalg.norm(amps)
    if not np.isfinite(norm) and not np.isfinite(amps).all():
        raise ValueError("ket amplitudes must be finite")
    if norm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return Ket(n, amps / norm)


def basis_ket(n: int, index: int) -> Ket:
    amps = np.zeros(2**n, dtype=complex)
    amps[index] = 1.0
    return Ket(n, amps)


@dataclass(frozen=True)
class MultiIndex:
    """Bit string (i_1 ... i_n) labeling a computational basis state."""

    bits: tuple[int, ...]

    def __post_init__(self):
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError(f"bits must be 0 or 1, got {self.bits}")
        object.__setattr__(self, "bits", tuple(int(b) for b in self.bits))

    @classmethod
    def from_linear(cls, index: int, n: int) -> "MultiIndex":
        return cls(tuple((index >> (n - 1 - j)) & 1 for j in range(n)))

    def to_linear(self) -> int:
        out = 0
        for b in self.bits:
            out = (out << 1) | b
        return out

    def complement(self) -> "MultiIndex":
        return MultiIndex(tuple(1 - b for b in self.bits))

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


@dataclass(frozen=True)
class DensityMatrix:
    """State of a labeled subset of qubits: Hermitian, PSD, unit trace.

    Validation policy: the public constructor checks every matrix it is
    given in full (shape, finite entries, Hermiticity, unit trace and no
    eigenvalue below -HERM_TOL), and so do ``partial_trace`` and
    ``panel_of_mixed``.  The file loaders in ``io`` run their own checks
    with their own tolerances, symmetrize and renormalize, and hand the
    result on through ``_trusted`` without a second eigensolve.  Marginals
    the package builds from a pure state, rho = a^T a^*, are checked for the
    same trace and spectrum on the small Gram a a^dagger instead, by
    ``_check_factor_grams``.
    """

    qubit_labels: tuple[int, ...]
    entries: np.ndarray

    @classmethod
    def _from_factor(cls, labels: tuple[int, ...], a: np.ndarray) -> "DensityMatrix":
        """rho = a^T a^* for an r x 2^k factor ``a`` (r = 2 for a marginal
        of a pure state with one qubit traced out, as ``_axis_first`` gives)."""
        _check_factor_grams(_grams(a))
        return cls._trusted(labels, a.T @ a.conj())

    @classmethod
    def _trusted(cls, labels: tuple[int, ...], mat: np.ndarray) -> "DensityMatrix":
        """Wrap a fresh complex matrix its caller has already validated.

        No check and no copy: ``mat`` is frozen in place.
        """
        mat.setflags(write=False)
        rho = cls.__new__(cls)
        object.__setattr__(rho, "qubit_labels", labels)
        object.__setattr__(rho, "entries", mat)
        return rho

    def __post_init__(self):
        labels = tuple(int(x) for x in self.qubit_labels)
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate qubit labels: {labels}")
        object.__setattr__(self, "qubit_labels", labels)
        mat = _frozen(np.asarray(self.entries))
        dim = 2 ** len(labels)
        if mat.shape != (dim, dim):
            raise ValueError(f"expected {dim}x{dim} matrix, got {mat.shape}")
        if not np.isfinite(mat).all():
            raise ValueError("matrix entries must be finite")
        if np.max(np.abs(mat - mat.conj().T)) > HERM_TOL:
            raise ValueError("matrix is not Hermitian")
        if abs(np.trace(mat).real - 1.0) > HERM_TOL:
            raise ValueError(f"trace is {np.trace(mat)!r}, expected 1")
        if np.linalg.eigvalsh(mat)[0] < -HERM_TOL:
            raise ValueError("matrix has a significantly negative eigenvalue")
        object.__setattr__(self, "entries", mat)

    @property
    def k(self) -> int:
        return len(self.qubit_labels)


@dataclass(frozen=True)
class SingleQubitUnitary:
    """2x2 unitary acting on one labeled qubit of a register."""

    entries: np.ndarray
    target: int

    def __post_init__(self):
        mat = _frozen(np.asarray(self.entries))
        if mat.shape != (2, 2):
            raise ValueError(f"expected a 2x2 matrix, got {mat.shape}")
        if not np.isfinite(mat).all():
            raise ValueError("matrix entries must be finite")
        if np.max(np.abs(mat @ mat.conj().T - np.eye(2))) > UNITARY_TOL:
            raise ValueError("matrix is not unitary")
        object.__setattr__(self, "entries", mat)

    def dagger(self) -> "SingleQubitUnitary":
        return SingleQubitUnitary(self.entries.conj().T, self.target)


@dataclass(frozen=True)
class SchmidtSplit:
    """Schmidt decomposition of a ket across one qubit vs the rest.

    ``degenerate`` is set when the two weights agree within 1e-8; the
    returned bases are then one arbitrary orthonormal choice among many.
    """

    pivot: int
    weights: tuple[float, float]
    one_qubit_vectors: np.ndarray  # shape (2, 2), column i = |i>
    rest_vectors: np.ndarray  # shape (2, 2**(n-1)), row i = |i;(pivot)>
    degenerate: bool = False

    def reassemble(self) -> Ket:
        n = int(round(np.log2(self.rest_vectors.shape[1]))) + 1
        amps = np.zeros(2**n, dtype=complex)
        for i in range(2):
            amps += np.sqrt(self.weights[i]) * tensor_insert(
                self.one_qubit_vectors[:, i], self.rest_vectors[i], self.pivot
            )
        return Ket(n, amps)


# ---------------------------------------------------------------------------
# operations


def tensor_insert(one_qubit, rest, j: int) -> np.ndarray:
    """Splice a one-qubit vector in as qubit j of a larger register.

    Returns the raw (unnormalized) amplitude vector of the n-qubit state
    whose amplitude at the multi-index obtained by inserting bit i_j at
    position j is one_qubit[i_j] * rest[remaining bits].
    """
    one_qubit = np.asarray(one_qubit, dtype=complex).reshape(2)
    rest = np.asarray(rest, dtype=complex).reshape(-1)
    n = int(round(np.log2(rest.size))) + 1
    if rest.size != 2 ** (n - 1):
        raise ValueError(f"rest vector length {rest.size} is not a power of 2")
    if not 1 <= j <= n:
        raise ValueError(f"qubit label {j} out of range 1..{n}")
    return _axis_restore(np.multiply.outer(one_qubit, rest), n, j)


def _axis_first(v: np.ndarray, n: int, j: int) -> np.ndarray:
    """Reshape a 2**n amplitude vector to (2, 2**(n-1)) with qubit j first.

    Column c holds the amplitudes whose other qubits, in label order, spell
    c in binary.  Leading axes of a stack of vectors are kept.
    """
    lead = v.shape[:-1]
    split = v.reshape(lead + (2 ** (j - 1), 2, 2 ** (n - j)))
    return split.swapaxes(-3, -2).reshape(lead + (2, -1))


def _axis_restore(a: np.ndarray, n: int, j: int) -> np.ndarray:
    """Inverse of ``_axis_first``: a (..., 2, 2**(n-1)) array back to 2**n amplitudes."""
    lead = a.shape[:-2]
    split = a.reshape(lead + (2, 2 ** (j - 1), 2 ** (n - j)))
    return split.swapaxes(-3, -2).reshape(lead + (-1,))


def _qubit_factors(psi: Ket) -> np.ndarray:
    """(n, 2, 2**(n-1)) stack of ``_axis_first`` of psi at qubits 1..n."""
    return np.stack([_axis_first(psi.amplitudes, psi.n, j) for j in range(1, psi.n + 1)])


def _bit_flips(rows: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """For an int64 array of basis indices: the (n, len(rows)) indices with
    qubit j's bit flipped (row j-1), where X_j reads its amplitude, and
    whether that bit is set at each index."""
    masks = np.left_shift(1, np.arange(n - 1, -1, -1, dtype=np.int64))[:, None]
    return rows ^ masks, (rows & masks) != 0


def _grams(a: np.ndarray) -> np.ndarray:
    """a a^dagger of a factor, or of each in a stack: its one-qubit marginal."""
    return a @ a.conj().swapaxes(-1, -2)


def _check_factor_grams(grams: np.ndarray) -> None:
    """Unit trace and no eigenvalue below -HERM_TOL for rho = a^T a^*, read in
    O(2^k) from the Gram a a^dagger (or a stack, in one eigensolve), which has
    rho's nonzero spectrum; Hermiticity holds by construction."""
    traces = np.trace(grams, axis1=-2, axis2=-1)
    if (off := np.abs(traces.real - 1.0) > HERM_TOL).any():
        raise ValueError(f"trace is {traces[off].flat[0]!r}, expected 1")
    if np.min(np.linalg.eigvalsh(grams)[..., 0]) < -HERM_TOL:
        raise ValueError("matrix has a significantly negative eigenvalue")


def _traced_outer(left: np.ndarray, right: np.ndarray, n: int, k: int) -> np.ndarray:
    """tr_k |left><right| for n-qubit amplitude vectors: the pure-state
    marginal rho_(k) when left is right."""
    return _axis_first(left, n, k).T @ _axis_first(right, n, k).conj()


def _bloch_factor(factors: np.ndarray, j: int) -> np.ndarray:
    """Real factor F, 3 x at most 32(n-1), with F F^T = M M^T, where M is
    the Bloch matrix over qubit j of the marginals rho_(k), k != j: rho_(k) is
    1/2 sum_a sigma_a (x) B_a over qubit j, and M stacks Re and Im of
    B_x, B_y, B_z over k.  ``factors`` is ``_qubit_factors(psi)``.

    M is never formed.  For each k, the pair flattening A (4 x 2**(n-2),
    rows over qubits j and k) gives B_a = A^T (sigma_a^T (x) I) A^*, and with
    A^T = QR every B_a is Q C_a Q^dagger for the (at most) 4 x 4 matrix
    C_a = R (sigma_a^T (x) I) R^dagger, which keeps B_a's inner products.
    F's singular values are M's, so a small one keeps its relative
    precision, as it would not in the eigenvalues of M M^T.
    """
    n = factors.shape[0]
    pairs = np.stack([_axis_first(factors[j - 1], n - 1, m).reshape(4, -1) for m in range(1, n)])
    r = np.linalg.qr(pairs.swapaxes(-1, -2), mode="r").reshape(n - 1, -1, 2, 2)
    c = np.einsum("ayx,kpxz,kqyz->akpq", PAULIS, r, r.conj()).reshape(3, -1)
    return np.concatenate([c.real, c.imag], axis=1)


def partial_trace(rho: DensityMatrix, traced) -> DensityMatrix:
    """Trace out the given qubit labels of a density matrix."""
    traced = set(int(t) for t in traced)
    missing = traced - set(rho.qubit_labels)
    if missing:
        raise ValueError(f"labels {sorted(missing)} not in {rho.qubit_labels}")
    keep = [q for q in rho.qubit_labels if q not in traced]
    positions = [rho.qubit_labels.index(t) for t in traced]
    return DensityMatrix(tuple(keep), _trace_positions(rho.entries, rho.k, positions))


def _trace_positions(mat: np.ndarray, k: int, positions) -> np.ndarray:
    """Trace the qubits at the given 0-based positions out of a k-qubit matrix.

    The raw kernel of ``partial_trace``: no check and no wrapping, for
    matrices the package already holds as a ``DensityMatrix``.
    """
    tensor = mat.reshape((2,) * (2 * k))
    for pos in sorted(positions, reverse=True):
        tensor = np.trace(tensor, axis1=pos, axis2=pos + tensor.ndim // 2)
    dim = 2 ** (k - len(positions))
    return tensor.reshape(dim, dim)


def reduced_one_qubit(psi: Ket, j: int) -> np.ndarray:
    """2x2 reduced density matrix of qubit j of a pure state (raw array)."""
    return _grams(_axis_first(psi.amplitudes, psi.n, j))


def fix_global_phase(amplitudes: np.ndarray) -> np.ndarray:
    """Rotate the first amplitude above 1e-9 in magnitude to be real > 0."""
    amps = np.asarray(amplitudes, dtype=complex)
    for c in amps.reshape(-1):
        if abs(c) > PHASE_FIX_FLOOR:
            return amps * (abs(c) / c)
    return amps.copy()


def _phase_fix_column(v: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude component of a vector real positive."""
    idx = int(np.argmax(np.abs(v)))
    c = v[idx]
    if abs(c) == 0.0:
        return v.copy()
    return v * (abs(c) / c)


def schmidt_split(psi: Ket, j: int) -> SchmidtSplit:
    """Schmidt decomposition of psi across qubit j vs all other qubits.

    The weights are the eigenvalues of the one-qubit reduced density matrix
    of qubit j, sorted descending.  Vector phases are fixed so the
    dominant component of each one-qubit vector is real positive.
    """
    if not 1 <= j <= psi.n:
        raise ValueError(f"qubit label {j} out of range 1..{psi.n}")
    a = _axis_first(psi.amplitudes, psi.n, j)
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    one_qubit = np.zeros((2, 2), dtype=complex)
    rest = np.zeros((2, 2 ** (psi.n - 1)), dtype=complex)
    for i in range(2):
        col = _phase_fix_column(u[:, i])
        phase = np.vdot(col, u[:, i])  # unit modulus
        one_qubit[:, i] = col
        rest[i] = vh[i] * phase
    weights = (float(s[0] ** 2), float(s[1] ** 2))
    degenerate = abs(weights[0] - weights[1]) < DEGENERACY_TOL
    return SchmidtSplit(j, weights, one_qubit, rest, degenerate)


def spectral_decompose(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and matching orthonormal eigenvector columns."""
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    scale = max(1.0, float(np.max(np.abs(h))))
    if np.max(np.abs(h - h.conj().T)) > HERM_TOL * scale:
        raise ValueError("matrix is not Hermitian")
    evals, evecs = np.linalg.eigh(h)
    order = np.argsort(evals)[::-1]
    evecs = evecs[:, order]
    for i in range(evecs.shape[1]):
        evecs[:, i] = _phase_fix_column(evecs[:, i])
    return evals[order], evecs


def _act(amps: np.ndarray, n: int, ops) -> np.ndarray:
    """Apply each (target, 2x2 matrix) of ``ops`` in turn to a 2**n amplitude
    vector: the raw one-qubit action kernel, with no check and no wrapping."""
    for j, m in ops:
        amps = _axis_restore(m @ _axis_first(amps, n, j), n, j)
    return amps


def apply_local(u: SingleQubitUnitary, psi: Ket) -> Ket:
    """Apply a single-qubit unitary to its target qubit of a ket."""
    return apply_locals((u,), psi)


def apply_locals(unitaries, psi: Ket) -> Ket:
    """Apply single-qubit unitaries in order, all targets checked first."""
    ops = [(u.target, u.entries) for u in unitaries]
    for j, _ in ops:
        if not 1 <= j <= psi.n:
            raise ValueError(f"qubit label {j} out of range 1..{psi.n}")
    return Ket(psi.n, _act(psi.amplitudes, psi.n, ops))


def equal_up_to_phase(a: Ket, b: Ket, tol: float = 1e-9) -> bool:
    """True when a and b differ by at most a global phase."""
    if a.n != b.n:
        raise ValueError("qubit counts differ")
    return abs(a.overlap(b)) >= 1.0 - tol


PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)
