"""Panels of (n-1)-qubit reduced density matrices and their comparison.

The panel of an n-qubit state is the n-tuple of reduced density matrices
obtained by tracing out one qubit at a time; entry j lives on qubit labels
{1..n} minus {j}.  Two pure states with equal panels are the central object
of study here, so panel comparison uses an absolute entrywise max-norm.

A pure state's panel keeps the factor of every entry and builds the dense
matrices only when they are read; a panel read from a file keeps the
factors ``load_panel`` certified, each with its remainder.  The equality
tests certify a pair of such entries from their two factors
(``_certified``) and compare the dense matrices only when that certificate
fails, so their answer is the dense comparison's either way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensors import (
    DensityMatrix,
    Ket,
    _check_tol,
    _integer,
    _one_qubit_marginal,
    _qubit_factors,
    _qubit_label,
    _trace_positions,
)
from .tolerances import PANEL_TOL


@dataclass(frozen=True)
class RdmPanel:
    """The n-tuple (rho_(1), ..., rho_(n)) of one-qubit-removed marginals."""

    n: int
    entries: tuple[DensityMatrix, ...]

    def __post_init__(self):
        n = _integer(self.n, "qubit count")
        if n < 2:
            raise ValueError("panels need at least 2 qubits")
        object.__setattr__(self, "n", n)
        entries = tuple(self.entries)
        if len(entries) != self.n:
            raise ValueError(f"expected {self.n} entries, got {len(entries)}")
        for j, e in enumerate(entries, start=1):
            expected = tuple(q for q in range(1, self.n + 1) if q != j)
            if e.qubit_labels != expected:
                raise ValueError(
                    f"entry {j} has labels {e.qubit_labels}, expected {expected}"
                )
        object.__setattr__(self, "entries", entries)

    def entry(self, j: int) -> DensityMatrix:
        """The marginal omitting qubit j (1-based); ``ValueError`` for a j
        that is not one of 1..n."""
        return self.entries[_qubit_label(j, self.n) - 1]


@dataclass(frozen=True)
class PanelSubset:
    """View of a panel restricted to the entries listed in ``kept``."""

    panel: RdmPanel
    kept: frozenset[int]

    def __post_init__(self):
        kept = frozenset(_qubit_label(k, self.panel.n) for k in self.kept)
        if not kept:
            raise ValueError("kept set must be non-empty")
        object.__setattr__(self, "kept", kept)

    def matches(self, other: "RdmPanel | PanelSubset", tol: float = PANEL_TOL) -> bool:
        """Raises ``ValueError`` for a tol that is not positive and finite
        (NaN included)."""
        other_panel = other.panel if isinstance(other, PanelSubset) else other
        if other_panel.n != self.panel.n:
            raise ValueError("panel sizes differ")
        _check_tol(tol)
        pairs = ((self.panel.entry(j), other_panel.entry(j)) for j in sorted(self.kept))
        return _entries_within(pairs, tol)


def panel_of_pure(psi: Ket) -> RdmPanel:
    """Panel map for pure states: entry j traces out qubit j of |psi><psi|.
    Each entry keeps its 2 x 2**(n-1) factor (a read-only slice of one
    (n, 2, 2**(n-1)) stack) and builds its dense matrix on first read.
    Nothing is re-checked: a ``Ket`` is normalized, so every factor has
    unit trace and a PSD Gram by construction."""
    qubits = range(1, psi.n + 1)
    return RdmPanel(psi.n, tuple(
        DensityMatrix._factored(tuple(q for q in qubits if q != j), a)
        for j, a in zip(qubits, _qubit_factors(psi.amplitudes))
    ))


def panel_of_mixed(rho: DensityMatrix) -> RdmPanel:
    """Panel map for arbitrary density matrices on qubits 1..n."""
    if not isinstance(rho, DensityMatrix):
        # its entries are trusted because rho was checked when built
        raise TypeError(f"expected a DensityMatrix, got {type(rho).__name__}")
    n = rho.k
    if rho.qubit_labels != tuple(range(1, n + 1)):
        raise ValueError("expected a density matrix on qubits 1..n")
    # the partial trace of a validated DensityMatrix is Hermitian, PSD and
    # of unit trace by construction: no entry is checked again
    labels = rho.qubit_labels
    return RdmPanel(n, tuple(
        DensityMatrix._trusted(labels[:j] + labels[j + 1:], _trace_positions(rho.entries, [j]))
        for j in range(n)
    ))


def panels_equal(a: RdmPanel, b: RdmPanel, tol: float = PANEL_TOL) -> bool:
    """Entrywise max-norm equality of two panels: ``panel_distance(a, b) <= tol``.
    Raises ``ValueError`` for a tol that is not positive and finite (NaN
    included)."""
    if a.n != b.n:
        raise ValueError("panel sizes differ")
    _check_tol(tol)
    return _entries_within(zip(a.entries, b.entries), tol)


def panel_distance(a: RdmPanel, b: RdmPanel) -> float:
    """Largest entrywise deviation over all panel entries."""
    if a.n != b.n:
        raise ValueError("panel sizes differ")
    return max(
        float(np.max(np.abs(ea.entries - eb.entries)))
        for ea, eb in zip(a.entries, b.entries)
    )


def subset_equal(a: Ket, b: Ket, kept, tol: float = PANEL_TOL) -> bool:
    """Do a and b share the marginals rho_(j) for every j in ``kept``?
    ``PanelSubset.matches`` on their two pure panels, so it raises that
    class's ``ValueError`` for an empty or out-of-range ``kept`` and for a
    tol that is not positive and finite (NaN included)."""
    if a.n != b.n:
        raise ValueError("qubit counts differ")
    return PanelSubset(panel_of_pure(a), kept).matches(panel_of_pure(b), tol)


def _entries_within(pairs, tol: float) -> bool:
    """Is max |x - y| <= tol for every pair (x, y) of ``DensityMatrix``
    entries on the same qubits?  Pairs that ``_certified`` does not settle
    are compared in full, in turn, up to the first one beyond tol."""
    pairs = list(pairs)
    certified = _certified(pairs, tol)
    return all(
        ok or np.max(np.abs(x.entries - y.entries)) <= tol for ok, (x, y) in zip(certified, pairs)
    )


def _certified(pairs, tol: float) -> np.ndarray:
    """Per pair (x, y), a proof from the factors that max |x - y| <= tol,
    for x ~ a^T a^* and y ~ b^T b^*; False where either has no factor, or
    there is no proof.  Every factor is 2 x 2^k with the same k, and one
    stacked QR serves every pair.

    With C = [a; b] and J = diag(1, 1, -1, -1), x - y = C^T J C^*, and with
    C^T = QR (Q with orthonormal columns), ||x - y||_F = ||R J R^dagger||_F:
    a 4 x 4 matrix, formed with no squaring.  The largest entry is at most
    the Frobenius norm.

    Rounding cannot turn a dense "no" into a "yes": the norm must clear tol
    by ``slack`` = (64 N + 32) u (N = 2^k columns, u = 2^-53).  For factors
    of unit norm, ||C||_F^2 = 2, and Householder QR is backward stable,
    C^T + dC = Q R with ||dC||_F <= 4 N c u ||C||_F (Higham, Accuracy and
    Stability of Numerical Algorithms, Thm 19.4, constant c taken as 4), so
    the computed norm is below ||x - y||_F by at most 4 (4 N c u) + 16 u;
    the dense path's two-term products and one subtraction add at most
    16 u to each entry it reads.  A factor read from a file is not its
    entry exactly: its certified ``_remainder`` bounds ||x - a^T a^*||_F,
    and is added to the slack.
    """
    ok = np.zeros(len(pairs), dtype=bool)
    both = [i for i, (x, y) in enumerate(pairs) if x._factor is not None and y._factor is not None]
    if both:
        c = np.stack([np.concatenate([pairs[i][0]._factor, pairs[i][1]._factor]) for i in both])
        r = np.linalg.qr(c.swapaxes(-1, -2), mode="r")
        diff = (r * [1.0, 1.0, -1.0, -1.0]) @ r.conj().swapaxes(-1, -2)
        slack = (64 * c.shape[-1] + 32) * 2.0**-53
        slack += np.array([pairs[i][0]._remainder + pairs[i][1]._remainder for i in both])
        ok[both] = np.linalg.norm(diff, axis=(-2, -1)) + slack <= tol
    return ok


def panel_consistency(panel: RdmPanel) -> float:
    """Largest disagreement between one-qubit marginals computed from
    different panel entries (zero for panels that came from one state),
    each read off an entry's dense matrix in one pass per position."""
    singles: dict[int, list[np.ndarray]] = {m: [] for m in range(1, panel.n + 1)}
    for entry in panel.entries:
        for p, m in enumerate(entry.qubit_labels, start=1):
            singles[m].append(_one_qubit_marginal(entry.entries, p))
    worst = 0.0
    for mats in singles.values():
        for other in mats[1:]:
            worst = max(worst, float(np.max(np.abs(mats[0] - other))))
    return worst
