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
  qubit ``_qubit_factors``, and two products of such factors a:
  ``_grams``, a a^dagger, the one-qubit marginal, and ``_traced_outer``,
  a^T conj(a), the only code that forms an (n-1)-qubit marginal.
  ``_bloch_rows`` is the one Bloch kernel, on the blocks ``_pair_qr``
  compresses.
  ``_blocks`` is the matrix form of ``_axis_first``: the 2 x 2 blocks of a
  matrix split on one of its qubits, and with ``_split``, the view under
  it, the only code that splits a matrix by qubit.  ``partial_trace`` is
  the kernel for density matrices, with ``_trace_positions``, a fold of
  ``_blocks``, as its unchecked array core; ``_one_qubit_marginal`` reads
  one qubit's marginal off the split in one pass.
* Every kernel reads its qubit count off its array (2**n amplitudes, a
  2**k x 2**k matrix): callers pass qubit labels and positions, never a
  size.  The layout of n qubits as indices is built once per n and kept,
  read-only (``functools.cache``): ``_factor_table``, the
  (n, 2, 2**(n-1)) gather that is ``_qubit_factors``, ``_pair_table``, the
  (n-1, 2**(n-2), 4) gather of ``_pair_qr``'s pair flattenings, and
  ``_flip_table``, the basis indices with each qubit's bit flipped and
  that bit's sign, from which the stabilizer gathers its Pauli rows (its
  only reader: ``antipodal_support_reduction`` builds no 2**n table).  The
  tables hold int64, numpy's index type: a gather casts any narrower index
  to it on every call, which undoes the gain.  So the two index tables are
  at most 8 n 2**n bytes each, half the complex stack they gather, and
  ``_flip_table`` 8 (2n + 1) 2**n: at n = 12, 0.39 and 0.82 MB.
  ``_row_table`` builds the flips and signs at any basis indices, and
  takes n, as indices carry no size.
* A panel entry is rank <= 2 when it comes from a pure state.  Entries of
  ``panel_of_pure`` keep their exact 2 x 2**k factor; a dense entry read
  from a file that is rank 2 up to HERM_TOL gets one from
  ``_rank_two_factor`` (its top two eigenpairs), with a remainder that
  bounds, through rounding, how far the factor's product is from the
  entry.  Downstream code reads the factor wherever that remainder is
  small enough for its purpose, and the dense matrix otherwise.
* ``_adjoint_rotation`` is the one adjoint action of a one-qubit unitary
  on Pauli coordinates, and ``_phase_fix_columns`` the one phase fix.
* ``_act`` is the one-qubit action kernel.  Matrices the package built
  go through it raw, with no ``SingleQubitUnitary`` and no ``Ket`` per
  step; the public ``apply_local(s)`` check every target, then build one
  ``Ket``: a state the package builds stays an array until it is returned.
  A unitary the package builds as one (a certificate's eigenvector bases,
  the adjoint of a checked unitary, the sibling oracle's witness, the
  polar factors of ``extract_local_unitary`` and ``lu_equivalence_check``)
  leaves it through ``SingleQubitUnitary._trusted``, and a state it builds
  as a unitary's image of a Ket (the sibling oracle's witness state)
  through ``Ket._trusted``, with no second check.
* All values are immutable after construction; the operations below are
  pure functions and safe to call concurrently.  A panel entry of a pure
  state keeps its factor and builds its dense matrix on the first read of
  ``entries`` (see ``DensityMatrix``); two threads racing on that read
  compute the same bits twice, which is harmless.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .tolerances import (
    DEGENERACY_TOL,
    HERM_TOL,
    NORM_REJECT_TOL,
    PHASE_EQUAL_TOL,
    PHASE_FIX_FLOOR,
    RENORMALIZE_TOL,
    UNITARY_TOL,
)


def _check_tol(tol: float) -> None:
    """Reject a caller's tol outside 0 < tol < inf: NaN compares False with
    every margin, and inf passes every one."""
    if not 0 < tol < float("inf"):
        raise ValueError(f"tol must be positive and finite, got {tol}")


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


def _integer(x, name: str) -> int:
    """A caller's integer argument as an ``int``, numpy integers included;
    ``ValueError`` for anything else, a float or a string among them, even
    one that ``int()`` would accept."""
    try:
        return operator.index(x)
    except TypeError:
        raise ValueError(f"{name} {x!r} is not an integer") from None


def _qubit_label(x, n: int | None = None) -> int:
    """A caller's qubit label as an ``int``: an integer >= 1 (``_integer``),
    and at most n when n is given; ``ValueError`` for anything else."""
    label = _integer(x, "qubit label")
    if label < 1:
        raise ValueError(f"qubit label {label} out of range: labels start at 1")
    if n is not None and label > n:
        raise ValueError(f"qubit label {label} out of range 1..{n}")
    return label


@dataclass(frozen=True)
class Ket:
    """Normalized n-qubit pure state (qubit 1 = most significant bit).

    The constructor checks the qubit count, the number of amplitudes, that
    they are finite and their norm, and renormalizes within
    NORM_REJECT_TOL.  ``_trusted`` wraps amplitudes the package built as a
    normalized state with no check, such as a unitary's image of a Ket.
    """

    n: int
    amplitudes: np.ndarray

    @classmethod
    def _trusted(cls, n: int, amps: np.ndarray) -> "Ket":
        """Wrap 2**n complex amplitudes of unit norm by construction, such
        as the sibling oracle's witness state, with n an ``int`` >= 1.

        No check and no copy: ``amps`` is frozen in place.
        """
        amps.setflags(write=False)
        psi = cls.__new__(cls)
        object.__setattr__(psi, "n", n)
        object.__setattr__(psi, "amplitudes", amps)
        return psi

    def __post_init__(self):
        n = _integer(self.n, "qubit count")
        if n < 1:
            raise ValueError(f"qubit count must be >= 1, got {n}")
        object.__setattr__(self, "n", n)
        amps = _frozen(np.asarray(self.amplitudes).reshape(-1))
        if amps.size != 2**n:
            raise ValueError(f"expected {2**n} amplitudes for n={n}, got {amps.size}")
        norm = np.linalg.norm(amps)
        # NaN passes the norm test below; a NaN or infinity among the
        # amplitudes makes the norm non-finite, so only then are they scanned
        if not np.isfinite(norm) and not np.isfinite(amps).all():
            raise ValueError("ket amplitudes must be finite")
        if abs(norm - 1.0) > NORM_REJECT_TOL:
            raise ValueError(f"ket is not normalized (norm={norm!r})")
        if abs(norm - 1.0) > RENORMALIZE_TOL:
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
        # a Ket is normalized, so |psi><psi| has unit trace and is PSD by construction
        a = self.amplitudes.reshape(1, -1)  # nothing traced: a 1 x 2**n factor
        return DensityMatrix._trusted(tuple(range(1, self.n + 1)), _traced_outer(a, a))


def ket(amplitudes, n: int | None = None) -> Ket:
    """Build a Ket from any amplitude sequence, normalizing it."""
    amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if n is None:
        n = amps.size.bit_length() - 1  # 2**n amplitudes
    norm = np.linalg.norm(amps)
    if not np.isfinite(norm) and not np.isfinite(amps).all():
        raise ValueError("ket amplitudes must be finite")
    if norm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return Ket(n, amps / norm)


def basis_ket(n: int, index: int) -> Ket:
    """|index> on n qubits; ``ValueError`` for an index outside 0..2**n - 1."""
    index = _integer(index, "basis index")
    if not 0 <= index < 2**n:
        raise ValueError(f"basis index {index} out of range 0..{2**n - 1}")
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
        """The n bits of an index; ``ValueError`` outside 0..2**n - 1."""
        index, n = _integer(index, "basis index"), _integer(n, "qubit count")
        if not 0 <= index < 2**n:
            raise ValueError(f"basis index {index} out of range 0..{2**n - 1}")
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

    Validation policy: the public constructor checks its labels (distinct
    integers >= 1, stored as ``int``) and every matrix it is given in full
    (shape, finite entries, Hermiticity, unit trace and no eigenvalue below
    -HERM_TOL), and so does ``partial_trace``.  The file loaders in ``io``
    run their own checks with their own tolerances, symmetrize and
    renormalize, and hand the result on through ``_trusted``.
    ``Ket.density()``, the entries of ``panel_of_pure`` and those of
    ``panel_of_mixed`` are not checked at all: they come from a normalized
    ``Ket`` or a validated ``DensityMatrix``, so each has unit trace and is
    PSD by construction.

    An entry may keep a factor ``a`` (2 x 2**k) with rho ~ a^T a^*, and
    ``_remainder``, a bound on ||rho - a^T a^*||_F that holds through
    rounding.  The entries of ``panel_of_pure`` keep their exact factor
    (``_factored``, remainder 0) and build ``entries`` on first read,
    frozen like every other; two threads racing on that read compute the
    same bits twice and one result stays.  A dense panel entry read from a
    file that is rank 2 within HERM_TOL keeps the factor of its top two
    eigenpairs and the remainder that ``_rank_two_factor`` certifies: by
    Weyl, no eigenvalue of rho lies below -remainder, and none but the top
    two above it.  So the remainder is the loader's PSD check, and proves
    rank <= 2 within any rank tolerance it meets, with no eigensolve.
    """

    qubit_labels: tuple[int, ...]
    entries: np.ndarray

    _factor = None  # a factor a of rho ~ a^T a^*, kept by ``_factored`` and ``_trusted``
    _remainder = 0.0  # a bound on ||rho - a^T a^*||_F; 0 for ``_factored``

    @classmethod
    def _factored(cls, labels: tuple[int, ...], a: np.ndarray) -> "DensityMatrix":
        """rho = a^T a^* for a factor valid by construction, such as a
        slice of a state's ``_qubit_factors``.

        No check and no copy: ``a`` is frozen in place and kept, and
        ``entries`` is built from it on first read.
        """
        a.setflags(write=False)
        rho = cls.__new__(cls)
        object.__setattr__(rho, "qubit_labels", labels)
        object.__setattr__(rho, "_factor", a)
        return rho

    def __getattr__(self, name: str):
        # reached only when the normal lookup fails: for ``entries``, that
        # is the first read on a factored matrix
        if name != "entries" or self._factor is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        mat = _traced_outer(self._factor, self._factor)
        mat.setflags(write=False)
        object.__setattr__(self, "entries", mat)
        return mat

    @classmethod
    def _trusted(
        cls,
        labels: tuple[int, ...],
        mat: np.ndarray,
        *,
        certified: tuple[np.ndarray, float] | None = None,
    ) -> "DensityMatrix":
        """Wrap a fresh complex matrix its caller has already validated,
        with ``certified``, a factor of it and that factor's remainder as
        ``_rank_two_factor`` returns them, when given.  The factor and its
        remainder come together or not at all: an exact factor (remainder
        0) comes only from ``_factored``.

        No check and no copy: ``mat`` and the factor are frozen in place.
        """
        mat.setflags(write=False)
        rho = cls.__new__(cls)
        object.__setattr__(rho, "qubit_labels", labels)
        object.__setattr__(rho, "entries", mat)
        if certified is not None:
            factor, remainder = certified
            factor.setflags(write=False)
            object.__setattr__(rho, "_factor", factor)
            object.__setattr__(rho, "_remainder", remainder)
        return rho

    def __post_init__(self):
        labels = tuple(_qubit_label(x) for x in self.qubit_labels)
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
    """2x2 unitary acting on one labeled qubit of a register.

    The constructor checks the target (an integer >= 1, stored as ``int``)
    and the matrix (2 x 2, finite, unitary within UNITARY_TOL).
    ``_trusted`` wraps a matrix the package built as unitary with no check,
    such as ``dagger()``'s adjoint.
    """

    entries: np.ndarray
    target: int

    @classmethod
    def _trusted(cls, mat: np.ndarray, target: int) -> "SingleQubitUnitary":
        """Wrap a 2x2 matrix that is unitary by construction, such as the
        eigenvectors of a Hermitian matrix from ``eigh``, on qubit
        ``target``, an ``int`` >= 1.

        No check: the entries are a frozen copy, as the constructor keeps.
        """
        u = cls.__new__(cls)
        object.__setattr__(u, "entries", _frozen(mat))
        object.__setattr__(u, "target", target)
        return u

    def __post_init__(self):
        object.__setattr__(self, "target", _qubit_label(self.target))
        mat = _frozen(np.asarray(self.entries))
        if mat.shape != (2, 2):
            raise ValueError(f"expected a 2x2 matrix, got {mat.shape}")
        if not np.isfinite(mat).all():
            raise ValueError("matrix entries must be finite")
        if np.max(np.abs(mat @ mat.conj().T - np.eye(2))) > UNITARY_TOL:
            raise ValueError("matrix is not unitary")
        object.__setattr__(self, "entries", mat)

    def dagger(self) -> "SingleQubitUnitary":
        """The adjoint on the same qubit: unitary whenever U is, so it is
        wrapped with no second check."""
        return SingleQubitUnitary._trusted(self.entries.conj().T, self.target)


@dataclass(frozen=True)
class SchmidtSplit:
    """Schmidt decomposition of a ket across one qubit vs the rest.

    ``degenerate`` is set when the two weights agree within DEGENERACY_TOL; the
    returned bases are then one arbitrary orthonormal choice among many.
    """

    pivot: int
    weights: tuple[float, float]
    one_qubit_vectors: np.ndarray  # shape (2, 2), column i = |i>
    rest_vectors: np.ndarray  # shape (2, 2**(n-1)), row i = |i;(pivot)>
    degenerate: bool = False

    def reassemble(self) -> Ket:
        n = self.rest_vectors.shape[1].bit_length()  # 2**(n-1) columns
        rows = self.one_qubit_vectors @ (np.sqrt(self.weights)[:, None] * self.rest_vectors)
        return Ket(n, _axis_restore(rows, self.pivot))


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
    n = rest.size.bit_length()  # 2**(n-1) amplitudes
    if rest.size != 2 ** (n - 1):
        raise ValueError(f"rest vector length {rest.size} is not a power of 2")
    j = _qubit_label(j, n)
    return _axis_restore(np.multiply.outer(one_qubit, rest), j)


def _axis_first(v: np.ndarray, j: int) -> np.ndarray:
    """Reshape a 2**n amplitude vector to (2, 2**(n-1)) with qubit j first.

    Column c holds the amplitudes whose other qubits, in label order, spell
    c in binary.  Leading axes of a stack of vectors are kept.
    """
    lead = v.shape[:-1]
    split = v.reshape(lead + (2 ** (j - 1), 2, -1))
    return split.swapaxes(-3, -2).reshape(lead + (2, -1))


def _axis_restore(a: np.ndarray, j: int) -> np.ndarray:
    """Inverse of ``_axis_first``: a (..., 2, 2**(n-1)) array back to 2**n amplitudes."""
    lead = a.shape[:-2]
    split = a.reshape(lead + (2, 2 ** (j - 1), -1))
    return split.swapaxes(-3, -2).reshape(lead + (-1,))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@functools.cache
def _factor_table(n: int) -> np.ndarray:
    """The (n, 2, 2**(n-1)) indices whose gather from 2**n amplitudes is
    their ``_axis_first`` views at qubits 1..n, stacked: the views of the
    indices themselves."""
    index = np.arange(2**n)
    return _read_only(np.stack([_axis_first(index, j) for j in range(1, n + 1)]))


@functools.cache
def _pair_table(n: int) -> np.ndarray:
    """The (n-1, 2**(n-2), 4) indices whose gather from 2**n amplitudes is
    the transposed pair flattenings A^T of ``_pair_qr``: for each qubit
    k = 2..n, columns over the pair (qubit 1, qubit k)."""
    front = np.arange(2**n).reshape(2, -1)
    flat = np.stack([_axis_first(front, m).reshape(4, -1).T for m in range(1, n)])
    # row-major, so that the gather writes its output in order
    return _read_only(np.ascontiguousarray(flat))


def _row_table(rows: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, flips, signs), read-only, for an int64 array of basis indices
    of n qubits: flips (n, len(rows)) holds the indices with qubit j's bit
    flipped (row j-1), where X_j reads its amplitude, and signs the
    (-1)^(that bit) at each index, as floats."""
    masks = np.left_shift(1, np.arange(n - 1, -1, -1, dtype=np.int64))[:, None]
    return tuple(_read_only(a) for a in (rows, rows ^ masks, np.where(rows & masks, -1.0, 1.0)))


@functools.cache
def _flip_table(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``_row_table`` of every basis index of n qubits, 0..2**n - 1: the
    table the stabilizer's full Pauli system gathers from, and nothing else."""
    return _row_table(np.arange(2**n), n)


def _qubit_factors(amps: np.ndarray) -> np.ndarray:
    """(n, 2, 2**(n-1)) stack of ``_axis_first`` of 2**n amplitudes at
    qubits 1..n: one gather through ``_factor_table``."""
    return amps[_factor_table(amps.size.bit_length() - 1)]


def _grams(a: np.ndarray) -> np.ndarray:
    """a a^dagger of a factor, or of each in a stack: its one-qubit marginal."""
    return a @ a.conj().swapaxes(-1, -2)


def _traced_outer(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """left^T conj(right) for two factors (..., r, d), or stacks of them:
    the one place a pure-state marginal is formed.  For the ``_axis_first``
    views of two states at qubit k it is tr_k |left><right|, and the
    marginal rho_(k) = a^T conj(a) when both are the same view a."""
    return left.swapaxes(-1, -2) @ right.conj()


def _split(mat: np.ndarray, p: int) -> np.ndarray:
    """A k-qubit matrix as a (high, 2, low, high, 2, low) view over its
    qubit at 1-based position p: row and column each split into the qubits
    before p, qubit p, and the qubits after it."""
    high, low = 2 ** (p - 1), len(mat) >> p
    return mat.reshape(high, 2, low, high, 2, low)


def _blocks(mat: np.ndarray, p: int) -> np.ndarray:
    """The 2 x 2 blocks <a|_p M |b>_p of a k-qubit matrix M over its qubit
    at 1-based position p, as a (2, 2, 2**(k-1), 2**(k-1)) array indexed
    [a, b]: the matrix form of ``_axis_first``, rows and columns of each
    block over the other qubits in order.  A view when p is 1 or k.
    """
    split = _split(mat, p)
    rest = split.shape[0] * split.shape[2]
    return split.transpose(1, 4, 0, 2, 3, 5).reshape(2, 2, rest, rest)


def _one_qubit_marginal(mat: np.ndarray, p: int) -> np.ndarray:
    """The 2 x 2 marginal of a k-qubit matrix at 1-based position p: the
    trace of each of its ``_blocks``, read off the diagonal of the split
    view in one pass, with no copy."""
    return np.einsum("iajibj->ab", _split(mat, p))


def _pair_qr(front: np.ndarray, mode: str = "reduced"):
    """Q and the compressed blocks Y over qubit j of a state's marginals,
    for its ``_axis_first`` view at j; Y alone, with no Q, for ``mode``
    "r".  For each other qubit k, in label order, the pair flattening A
    (4 x 2**(n-2), rows over qubits j and k) is split A^T = Q R, with p <= 4
    columns; every A^T comes from one gather through ``_pair_table``.  The
    blocks of rho_(k) over qubit j are Q Y_ab Q^dagger, for
    Y_ab = sum_i R_(a,i) R_(b,i)^dagger, which keeps their inner products.
    With Q, Y is formed from R = Q^dagger A^T in extended precision, so that
    it matches a matrix compressed by the same Q to float64 rounding: near
    the GHZ class the fit reads O(eps) differences of the two, and the QR's
    own R doubled their error.  Returns Q (n-1, 2**(n-2), p) and Y (n-1, 2, 2,
    p, p), indexed [k, a, b].
    """
    n = front.shape[-1].bit_length()  # 2**(n-1) columns
    flat = front.reshape(-1)[_pair_table(n)]  # A^T
    if mode == "r":
        r = np.linalg.qr(flat, mode="r")
    else:
        q = np.linalg.qr(flat)[0]
        r = q.conj().swapaxes(-1, -2).astype(np.clongdouble) @ flat.astype(np.clongdouble)
    r = r.reshape(n - 1, -1, 2, 2)  # columns (a, i)
    own = np.einsum("kpai,kqbi->kabpq", r, r.conj()).astype(complex, copy=False)
    return own if mode == "r" else (q, own)


def _bloch_rows(blocks: np.ndarray) -> np.ndarray:
    """The one Bloch kernel: for a stack (m, 2, 2, d, d) of blocks x_ab of
    matrices rho = 1/2 sum_a sigma_a (x) B_a split on their qubit 1, the 3
    rows of Re and Im of B_a = sum_xy (sigma_a)_yx x_xy, a = x, y, z.  U on
    qubit 1 with U sigma_a U^dagger = sum_b R[b, a] sigma_b maps them to R
    times them: ``classify`` reads their rank, ``reconstruct`` fits R."""
    b = np.einsum("ayx,mxyij->amij", PAULIS, blocks, order="C")
    return b.reshape(3, -1).view(np.float64)


def partial_trace(rho: DensityMatrix, traced) -> DensityMatrix:
    """Trace out the given qubit labels of a density matrix."""
    traced = set(_qubit_label(t) for t in traced)
    missing = traced - set(rho.qubit_labels)
    if missing:
        raise ValueError(f"labels {sorted(missing)} not in {rho.qubit_labels}")
    keep = [q for q in rho.qubit_labels if q not in traced]
    positions = [rho.qubit_labels.index(t) for t in traced]
    return DensityMatrix(tuple(keep), _trace_positions(rho.entries, positions))


def _trace_positions(mat: np.ndarray, positions) -> np.ndarray:
    """Trace the qubits at the given 0-based positions out of a matrix.

    The raw kernel of ``partial_trace``: no check and no wrapping, for
    matrices the package already holds as a ``DensityMatrix``.  The last
    position goes first, so the ones still to trace keep their places.
    """
    for pos in sorted(positions, reverse=True):
        split = _blocks(mat, pos + 1)
        mat = split[0, 0] + split[1, 1]
    return mat


# columns of the fixed start of ``_rank_two_factor``: the two pairs it
# keeps, plus two of oversampling
_RANGE_COLUMNS = 4
# least dimension at which ``_rank_two_factor`` certifies: below it a full
# eigvalsh costs less than the certificate's dozen numpy calls
_CERTIFY_MIN_DIM = 32


@functools.cache
def _range_start(d: int) -> np.ndarray:
    """The fixed Gaussian start of ``_rank_two_factor`` for dimension d."""
    start = np.random.default_rng(0).standard_normal((d, _RANGE_COLUMNS))
    start.setflags(write=False)
    return start


def _rank_two_factor(mat: np.ndarray) -> tuple[np.ndarray, float] | None:
    """A factor a (2 x d) of the top two eigenpairs of a Hermitian d x d
    matrix rho, their eigenvalues clipped at 0, and a bound e on
    ||rho - a^T a^*||_F that holds through rounding; None when that bound
    exceeds HERM_TOL, or when rho is below ``_CERTIFY_MIN_DIM``.

    a^T a^* is PSD of rank <= 2, so by Weyl every eigenvalue of rho lies at
    or above -e, and all but the top two at or below e: a small e proves
    rho PSD, and of rank <= 2 up to e, with no full eigensolve.  The pairs
    come from one pass of subspace iteration on ``_RANGE_COLUMNS`` columns
    of a fixed Gaussian start, then Rayleigh-Ritz (Halko, Martinsson and
    Tropp, SIAM Rev. 53, 217 (2011)).  For rho of rank at most that many
    columns the pass spans its range exactly, up to rounding.  The start
    and the pass count decide no verdict: poor pairs only make e large, and
    the caller then takes the full eigensolve.  The third Ritz value is at
    most rho's third eigenvalue (Cauchy interlacing), which is at most e:
    when it already exceeds HERM_TOL, e is not formed.

    e is formed from rho - a^T a^* itself, with no cancellation and no PSD
    assumption.  Rounding (u = 2^-53): each entry of the computed a^T a^*
    is off by at most 8u sum_i |a_ix| |a_iy|, whose Frobenius norm is at
    most 8u ||a||_F^2 (taken as 16u, to cover the rounding of ||a||_F^2);
    the subtraction moves each entry by at most u of itself, and the norm,
    two sums of d^2 squares, is low by at most a relative (2 d^2 + 2)u.
    So the computed norm times 1 + (2 d^2 + 8)u, plus 16u ||a||_F^2, bounds
    the exact one.
    """
    d = len(mat)
    if d < _CERTIFY_MIN_DIM:
        return None
    q = np.linalg.qr(mat @ _range_start(d))[0]
    w, v = np.linalg.eigh(q.conj().T @ mat @ q)
    if w[-3] > HERM_TOL:
        return None
    top = np.maximum(w[:-3:-1], 0.0)
    a = np.ascontiguousarray((q @ v[:, :-3:-1] * np.sqrt(top)).T)
    u = 2.0**-53
    e = float(np.linalg.norm(mat - _traced_outer(a, a)))
    e = e * (1 + (2 * d * d + 8) * u) + 16 * u * float(np.vdot(a, a).real)
    return (a, e) if e <= HERM_TOL else None


def fix_global_phase(amplitudes: np.ndarray) -> np.ndarray:
    """Rotate the first amplitude above PHASE_FIX_FLOOR in magnitude to be real > 0."""
    amps = np.asarray(amplitudes, dtype=complex)
    for c in amps.reshape(-1):
        if abs(c) > PHASE_FIX_FLOOR:
            return amps * (abs(c) / c)
    return amps.copy()


def _phase_fix_columns(vecs: np.ndarray) -> np.ndarray:
    """A copy with the largest-magnitude entry of each nonzero column made
    real positive, by a scalar factor per column (a broadcast product with
    an array of factors rounds differently)."""
    out = vecs.copy()
    for i, idx in enumerate(np.argmax(np.abs(vecs), axis=0)):
        c = vecs[idx, i]
        if c != 0.0:
            out[:, i] = vecs[:, i] * (abs(c) / c)
    return out


def schmidt_split(psi: Ket, j: int) -> SchmidtSplit:
    """Schmidt decomposition of psi across qubit j vs all other qubits.

    The weights are the eigenvalues of the one-qubit reduced density matrix
    of qubit j, sorted descending.  Vector phases are fixed so the
    dominant component of each one-qubit vector is real positive.  Raises
    ``ValueError`` for a one-qubit psi, which has no other qubits.
    """
    if psi.n < 2:
        raise ValueError(f"a Schmidt split needs at least 2 qubits, got n = {psi.n}")
    j = _qubit_label(j, psi.n)
    u, s, vh = np.linalg.svd(_axis_first(psi.amplitudes, j), full_matrices=False)
    one_qubit = _phase_fix_columns(u)
    # each column turns by a unit phase, and its row of vh back by its conjugate
    phases = np.einsum("ai,ai->i", one_qubit.conj(), u)
    weights = (float(s[0] ** 2), float(s[1] ** 2))
    degenerate = abs(weights[0] - weights[1]) < DEGENERACY_TOL
    return SchmidtSplit(j, weights, one_qubit, vh * phases[:, None], degenerate)


def _descending_eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``spectral_decompose`` with no check, for matrices the package holds."""
    evals, evecs = np.linalg.eigh(h)
    order = np.argsort(evals)[::-1]
    return evals[order], _phase_fix_columns(evecs[:, order])


def spectral_decompose(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and matching orthonormal eigenvector columns.
    Raises ``ValueError`` for a matrix that is not square, not finite or
    not Hermitian."""
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    if not np.isfinite(h).all():
        raise ValueError("matrix entries must be finite")
    scale = max(1.0, float(np.max(np.abs(h))))
    if np.max(np.abs(h - h.conj().T)) > HERM_TOL * scale:
        raise ValueError("matrix is not Hermitian")
    return _descending_eigh(h)


def _adjoint_rotation(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Re tr(sigma_c L sigma_d R^dagger) / 2 for broadcast stacks of 2 x 2
    matrices, as (..., 3, 3) indexed [c, d]: for L = R = U, the rotation
    O(U) with U (t . sigma) U^dagger = (O(U) t) . sigma."""
    return np.einsum("cij,...jk,dkl,...il->...cd", PAULIS, left, PAULIS, right.conj()).real / 2


def _act(amps: np.ndarray, ops) -> np.ndarray:
    """Apply each (target, 2x2 matrix) of ``ops`` in turn to a 2**n amplitude
    vector: the raw one-qubit action kernel, with no check and no wrapping."""
    for j, m in ops:
        amps = _axis_restore(m @ _axis_first(amps, j), j)
    return amps


def apply_local(u: SingleQubitUnitary, psi: Ket) -> Ket:
    """Apply a single-qubit unitary to its target qubit of a ket."""
    return apply_locals((u,), psi)


def apply_locals(unitaries, psi: Ket) -> Ket:
    """Apply single-qubit unitaries in order, all targets checked first."""
    ops = [(_qubit_label(u.target, psi.n), u.entries) for u in unitaries]
    return Ket(psi.n, _act(psi.amplitudes, ops))


def equal_up_to_phase(a: Ket, b: Ket, tol: float = PHASE_EQUAL_TOL) -> bool:
    """True when a and b differ by at most a global phase.  Raises
    ``ValueError`` for a tol that is not positive and finite (NaN
    included)."""
    _check_tol(tol)
    if a.n != b.n:
        raise ValueError("qubit counts differ")
    return abs(a.overlap(b)) >= 1.0 - tol


PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)
