"""Panels of (n-1)-qubit reduced density matrices and their comparison.

The panel of an n-qubit state is the n-tuple of reduced density matrices
obtained by tracing out one qubit at a time; entry j lives on qubit labels
{1..n} minus {j}.  Two pure states with equal panels are the central object
of study here, so panel comparison uses an absolute entrywise max-norm.

A pure state's panel keeps the factor of every entry and builds the dense
matrices only when they are read.  The equality tests certify a pair of
such entries from their two factors (``_certified``) and compare the dense
matrices only when that certificate fails, so their answer is the dense
comparison's either way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensors import (
    DensityMatrix,
    Ket,
    _qubit_factors,
    _trace_positions,
    partial_trace,
)
from .tolerances import PANEL_TOL


@dataclass(frozen=True)
class RdmPanel:
    """The n-tuple (rho_(1), ..., rho_(n)) of one-qubit-removed marginals."""

    n: int
    entries: tuple[DensityMatrix, ...]

    def __post_init__(self):
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
        """The marginal omitting qubit j (1-based)."""
        return self.entries[j - 1]


@dataclass(frozen=True)
class PanelSubset:
    """View of a panel restricted to the entries listed in ``kept``."""

    panel: RdmPanel
    kept: frozenset[int]

    def __post_init__(self):
        kept = frozenset(int(k) for k in self.kept)
        if not kept:
            raise ValueError("kept set must be non-empty")
        if not kept <= set(range(1, self.panel.n + 1)):
            raise ValueError(f"kept labels {sorted(kept)} out of range")
        object.__setattr__(self, "kept", kept)

    def matches(self, other: "RdmPanel | PanelSubset", tol: float = PANEL_TOL) -> bool:
        """Raises ``ValueError`` for a tol that is not positive (NaN included)."""
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
    if psi.n < 2:
        raise ValueError("panels need at least 2 qubits")
    return RdmPanel(psi.n, _factored_entries(_qubit_factors(psi)))


def _factored_entries(f: np.ndarray) -> tuple[DensityMatrix, ...]:
    """Entry j of the panel whose ``_qubit_factors`` stack is f, unchecked."""
    qubits = range(1, len(f) + 1)
    return tuple(
        DensityMatrix._factored(tuple(q for q in qubits if q != j), a) for j, a in zip(qubits, f)
    )


def panel_of_mixed(rho: DensityMatrix) -> RdmPanel:
    """Panel map for arbitrary density matrices on qubits 1..n."""
    n = rho.k
    if rho.qubit_labels != tuple(range(1, n + 1)):
        raise ValueError("expected a density matrix on qubits 1..n")
    if n < 2:
        raise ValueError("panels need at least 2 qubits")
    return RdmPanel(n, tuple(partial_trace(rho, {j}) for j in range(1, n + 1)))


def panels_equal(a: RdmPanel, b: RdmPanel, tol: float = PANEL_TOL) -> bool:
    """Entrywise max-norm equality of two panels: ``panel_distance(a, b) <= tol``.
    Raises ``ValueError`` for a tol that is not positive (NaN included)."""
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
    Raises ``ValueError`` for a tol that is not positive (NaN included)."""
    if a.n != b.n:
        raise ValueError("qubit counts differ")
    _check_tol(tol)
    kept = sorted(int(k) for k in kept)
    if not kept or kept[0] < 1 or kept[-1] > a.n:
        raise ValueError(f"kept labels {kept} out of range 1..{a.n}")
    ea, eb = _factored_entries(_qubit_factors(a)), _factored_entries(_qubit_factors(b))
    return _entries_within(((ea[j - 1], eb[j - 1]) for j in kept), tol)


def _check_tol(tol: float) -> None:
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")


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
    for x = a^T a^* and y = b^T b^*; False where either has no factor, or
    there is no proof.  Every factor comes from ``_factored_entries``, so all
    are 2 x 2^k with the same k, and one stacked QR serves every pair.

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
    16 u to each entry it reads.
    """
    ok = np.zeros(len(pairs), dtype=bool)
    both = [i for i, (x, y) in enumerate(pairs) if x._factor is not None and y._factor is not None]
    if both:
        c = np.stack([np.concatenate([pairs[i][0]._factor, pairs[i][1]._factor]) for i in both])
        r = np.linalg.qr(c.swapaxes(-1, -2), mode="r")
        diff = (r * [1.0, 1.0, -1.0, -1.0]) @ r.conj().swapaxes(-1, -2)
        slack = (64 * c.shape[-1] + 32) * 2.0**-53
        ok[both] = np.linalg.norm(diff, axis=(-2, -1)) + slack <= tol
    return ok


def panel_consistency(panel: RdmPanel) -> float:
    """Largest disagreement between one-qubit marginals computed from
    different panel entries (zero for panels that came from one state)."""
    n = panel.n
    singles: dict[int, list[np.ndarray]] = {m: [] for m in range(1, n + 1)}
    for entry in panel.entries:
        k = entry.k
        for p, m in enumerate(entry.qubit_labels):
            others = [q for q in range(k) if q != p]
            singles[m].append(_trace_positions(entry.entries, k, others))
    worst = 0.0
    for mats in singles.values():
        for other in mats[1:]:
            worst = max(worst, float(np.max(np.abs(mats[0] - other))))
    return worst
