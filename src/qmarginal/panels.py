"""Panels of (n-1)-qubit reduced density matrices and their comparison.

The panel of an n-qubit state is the n-tuple of reduced density matrices
obtained by tracing out one qubit at a time; entry j lives on qubit labels
{1..n} minus {j}.  Two pure states with equal panels are the central object
of study here, so panel comparison uses an absolute entrywise max-norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensors import (
    DensityMatrix,
    Ket,
    _check_factor_grams,
    _grams,
    _qubit_factors,
    _trace_positions,
    _traced_outer,
    partial_trace,
)

DEFAULT_TOL = 1e-9


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

    def matches(self, other: "RdmPanel | PanelSubset", tol: float = DEFAULT_TOL) -> bool:
        other_panel = other.panel if isinstance(other, PanelSubset) else other
        if other_panel.n != self.panel.n:
            raise ValueError("panel sizes differ")
        return all(
            np.max(np.abs(self.panel.entry(j).entries - other_panel.entry(j).entries))
            <= tol
            for j in sorted(self.kept)
        )


def panel_of_pure(psi: Ket) -> RdmPanel:
    """Panel map for pure states: entry j traces out qubit j of |psi><psi|.
    Entries are read-only views into one (n, 2**(n-1), 2**(n-1)) block, so
    holding one entry keeps the whole block alive."""
    if psi.n < 2:
        raise ValueError("panels need at least 2 qubits")
    f = _qubit_factors(psi)
    _check_factor_grams(_grams(f))
    qubits = range(1, psi.n + 1)
    labels = [tuple(q for q in qubits if q != j) for j in qubits]
    block = f.swapaxes(-1, -2) @ f.conj()
    return RdmPanel(psi.n, tuple(map(DensityMatrix._trusted, labels, block)))


def panel_of_mixed(rho: DensityMatrix) -> RdmPanel:
    """Panel map for arbitrary density matrices on qubits 1..n."""
    n = rho.k
    if rho.qubit_labels != tuple(range(1, n + 1)):
        raise ValueError("expected a density matrix on qubits 1..n")
    if n < 2:
        raise ValueError("panels need at least 2 qubits")
    return RdmPanel(n, tuple(partial_trace(rho, {j}) for j in range(1, n + 1)))


def panels_equal(a: RdmPanel, b: RdmPanel, tol: float = DEFAULT_TOL) -> bool:
    """Entrywise max-norm equality of two panels."""
    if a.n != b.n:
        raise ValueError("panel sizes differ")
    return panel_distance(a, b) <= tol


def panel_distance(a: RdmPanel, b: RdmPanel) -> float:
    """Largest entrywise deviation over all panel entries."""
    if a.n != b.n:
        raise ValueError("panel sizes differ")
    return max(
        float(np.max(np.abs(ea.entries - eb.entries)))
        for ea, eb in zip(a.entries, b.entries)
    )


def subset_equal(a: Ket, b: Ket, kept, tol: float = DEFAULT_TOL) -> bool:
    """Do a and b share the marginals rho_(j) for every j in ``kept``?
    Raises ``ValueError`` for a tol that is not positive (NaN included)."""
    if a.n != b.n:
        raise ValueError("qubit counts differ")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    kept = sorted(int(k) for k in kept)
    if not kept or kept[0] < 1 or kept[-1] > a.n:
        raise ValueError(f"kept labels {kept} out of range 1..{a.n}")
    for j in kept:
        da = _traced_outer(a.amplitudes, a.amplitudes, a.n, j)
        db = _traced_outer(b.amplitudes, b.amplitudes, b.n, j)
        if np.max(np.abs(da - db)) > tol:
            return False
    return True


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
