"""Invert the panel map: recover a pure state from its marginal panel.

Given the n-tuple of one-qubit-removed marginals, the inverse image among
pure states is either a single state, the one-parameter family attached to
a GHZ-class certificate, or empty.  A marginal of a pure state has rank
<= 2 (the Schmidt split across the omitted qubit), so an entry of rank
above 2 makes the panel incompatible.  That rank check reads the entry's
factor where it has one within tol (every entry of ``panel_of_pure``, and
the rank-2 entries ``load_panel`` certified): the factor has rank <= 2 and
its remainder bounds the third eigenvalue, so no eigensolve runs.  Any
other entry takes a full ``eigvalsh``.  Every panel then takes one
closed-form path (``_fit_qubit_one``).  Purifying entry 1, from the SVD of
its factor or else from its eigenvectors, pins the state down to a unitary
on qubit 1, whatever entry 1's spectrum; it stays an array, its rows
sqrt(p_i) v_i over qubit 1, and only the returned state is a ``Ket``.
That unitary rotates the Bloch
matrix of the other entries over qubit 1, and the best rotation is an
orthogonal Procrustes problem on the rows of ``tensors._bloch_rows``, the
one Bloch kernel.  By the paper's theorem, the fitted state shares its
panel with other pure states exactly when it is GHZ-class, so ``classify``
of that state decides between a family and the one state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classifier import GhzCertificate, classify
from .panels import RdmPanel, panel_consistency, panel_distance, panel_of_pure
from .tensors import (
    PAULIS,
    DensityMatrix,
    Ket,
    _axis_restore,
    _bloch_rows,
    _blocks,
    _check_tol,
    _descending_eigh,
    _pair_qr,
    _qubit_label,
    fix_global_phase,
)
from .tolerances import CONSISTENCY_FLOOR, DEGENERACY_TOL, RECONSTRUCT_TOL

# the name under which the benchmark (perfbench/workloads.py) reads the default
DEFAULT_TOL = RECONSTRUCT_TOL
_SIGMAS = np.array([np.eye(2), *PAULIS])  # sigma_0 = I, then X, Y, Z


class PanelRankError(ValueError):
    """A panel entry has rank above 2, so no pure state can produce it."""


@dataclass(frozen=True)
class ReconstructionResult:
    outcome: str  # "unique" | "ghz-family" | "incompatible"
    state: Ket | None
    certificate: GhzCertificate | None
    residual: float
    reason: str | None = None

    @property
    def unique(self) -> bool:
        return self.outcome == "unique"


def check_panel(psi: Ket, panel: RdmPanel) -> float:
    """Largest entrywise deviation of psi's panel from the given panel."""
    if psi.n != panel.n:
        raise ValueError("qubit counts differ")
    return panel_distance(panel_of_pure(psi), panel)


def purify_over_qubit(
    rdm: DensityMatrix, j: int, tol: float = RECONSTRUCT_TOL
) -> tuple[Ket, bool]:
    """Pure n-qubit candidate whose marginal over qubit j is ``rdm``.

    The candidate is sqrt(p0)|0> x v0 + sqrt(p1)|1> x v1 built from the two
    leading eigenpairs, with qubit j spliced in at position j.  The flag
    reports a degenerate spectrum (p0 ~ p1), in which case the eigenbasis
    (and hence the candidate) is one choice among a unitary's worth.
    Raises PanelRankError when the matrix has rank above 2: a marginal of a
    pure state is limited to rank 2 by the Schmidt decomposition across
    the omitted qubit.  Raises ``ValueError`` unless ``rdm`` is on the
    qubits of 1..n other than j, for n one more than its qubit count, and
    for a tol that is not positive and finite (NaN included).
    """
    _check_tol(tol)
    j = _qubit_label(j)
    n = len(rdm.qubit_labels) + 1
    if set(rdm.qubit_labels) != set(range(1, n + 1)) - {j}:
        raise ValueError(f"a marginal omitting qubit {j} of {n} is on {rdm.qubit_labels}")
    evals, evecs = _leading_pairs(rdm, tol)
    if evals.size > 2 and evals[2] > tol:
        raise PanelRankError(
            f"marginal omitting qubit {j} has rank > 2 "
            f"(third eigenvalue {evals[2]:.3e})"
        )
    rows, degenerate = _purification(evals, evecs, tol)
    return Ket(n, _axis_restore(rows, j)), degenerate


def _certified_rank_two(rdm: DensityMatrix, tol: float) -> bool:
    """Does rdm keep a factor within tol of it?  That factor has rank <= 2,
    so by Weyl rdm's third eigenvalue is at most the remainder, at most tol."""
    return rdm._factor is not None and rdm._remainder <= tol


def _leading_pairs(rdm: DensityMatrix, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Descending eigenvalues and the two leading eigenvector columns of
    rdm, for the rank check and the purification.  For an entry
    ``_certified_rank_two`` they are those of its factor a, from the SVD of
    a (2 x d): a = U S V^T gives a^T a^* = V S^2 V^dagger.  Every other
    entry, validated when it was built, takes the unchecked dense
    eigensolve of ``spectral_decompose`` (``_descending_eigh``), and so has
    all of its eigenvalues."""
    if _certified_rank_two(rdm, tol):
        _, s, vt = np.linalg.svd(rdm._factor, full_matrices=False)
        return s * s, vt.T
    evals, evecs = _descending_eigh(rdm.entries)
    return evals, evecs[:, :2]


def _purification(evals: np.ndarray, evecs: np.ndarray, tol: float) -> tuple[np.ndarray, bool]:
    """``purify_over_qubit``'s candidate as its 2 x d rows sqrt(p_i) v_i over
    the purifying qubit, from a spectrum already checked for rank <= 2.  The
    sum of the products |i> (x) v_i fixes the sign of every exact zero."""
    p0, p1 = (max(float(p), 0.0) for p in evals[:2])
    if p1 < tol:
        p1 = 0.0  # rank 1: the second eigenvector is null-space noise
    total = p0 + p1
    p0, p1 = p0 / total, p1 / total
    rows = np.sqrt(p0) * np.outer([1.0, 0.0], evecs[:, 0])
    if p1 > 0.0:
        rows = rows + np.sqrt(p1) * np.outer([0.0, 1.0], evecs[:, 1])
    return rows, bool(p0 - p1 < DEGENERACY_TOL)


def reconstruct(panel: RdmPanel, tol: float = RECONSTRUCT_TOL) -> ReconstructionResult:
    """Recover the pure state(s) behind a marginal panel.

    Returns Unique with the reconstructed state, GhzFamily with a
    certificate when the panel belongs to a GHZ-class orbit, or
    Incompatible with a reason when no pure state reproduces the panel
    within tol.  Raises ``ValueError`` for a tol that is not positive and
    finite (NaN included).
    """
    _check_tol(tol)
    # entry 1's eigenvectors are kept for the purification; an entry
    # certified rank <= 2 needs no eigenvalue for the rank check
    first = _leading_pairs(panel.entry(1), tol)
    for j, rdm in enumerate(panel.entries, start=1):
        if j > 1 and _certified_rank_two(rdm, tol):
            continue
        evals = first[0] if j == 1 else np.linalg.eigvalsh(rdm.entries)[::-1]
        if evals.size > 2 and evals[2] > tol:
            return ReconstructionResult(
                "incompatible", None, None, float(evals[2]),
                f"entry {j} has rank > 2 (third eigenvalue {evals[2]:.3e})",
            )
    consistency = panel_consistency(panel)
    if consistency > max(tol, CONSISTENCY_FLOOR):
        return ReconstructionResult(
            "incompatible", None, None, consistency,
            f"one-qubit marginals disagree across entries by {consistency:.3e}",
        )
    rows, _ = _purification(*first, tol)
    return _fit_qubit_one(panel, rows, tol)


def _su2_from_rotation(rot: np.ndarray) -> np.ndarray:
    """A 2x2 unitary U with U sigma_a U^dagger = sum_b rot[b, a] sigma_b.

    For every 2x2 matrix A, sum_a (U sigma_a U^dagger) A sigma_a over
    a = 0..3 (sigma_0 = I) equals 2 tr(U^dagger A) U.  Taking the largest of
    these sums over A in {I, X, Y, Z} keeps |tr(U^dagger A)| >= 1, which
    also covers the half-turns, where tr U = 0.
    """
    images = np.concatenate([_SIGMAS[:1], np.einsum("ba,bij->aij", rot, _SIGMAS[1:])])
    sums = np.einsum("aij,Ajk,akl->Ail", images, _SIGMAS, _SIGMAS)
    best = sums[np.argmax(np.linalg.norm(sums, axis=(1, 2)))]
    return best / np.sqrt(abs(np.linalg.det(best)))


def _bloch_pair(panel: RdmPanel, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bloch rows T of the panel's entries 2..n and S of chi's marginals,
    compressed: S from the blocks Y of chi's ``_purification`` rows, T from
    entry k's blocks between the same Q_k (``_pair_qr``).  Each block of S
    lies in span(Q_k) on both sides, so what T holds outside it is
    orthogonal to S: it never reaches T S^T, nor the deflated-turn product
    h = (P^T T)(P^T R S)^T, and the fit on the compressed rows is exact."""
    q, own = _pair_qr(rows)
    blocks = [qk.conj().T @ _blocks(panel.entry(k).entries, 1) @ qk for k, qk in enumerate(q, 2)]
    return _bloch_rows(np.stack(blocks)), _bloch_rows(own)


def _fit_qubit_one(panel: RdmPanel, rows: np.ndarray, tol: float) -> ReconstructionResult:
    """Fix the unitary freedom on qubit 1 of chi, entry 1's purification rows.

    chi is right up to a unitary U on qubit 1, whatever entry 1's spectrum.
    Conjugation by U rotates the Bloch matrix of the other entries by some
    R in SO(3), so the best U is the rotation that carries chi's matrix S
    onto the panel's, T: orthogonal Procrustes with det R = +1 (Kabsch,
    Acta Cryst. A32, 922 (1976)), its turn about the leading axis refitted
    from unsquared rows, lifted to SU(2).  Both are read compressed
    (``_bloch_pair``), and every product the fit takes stays exact.  A
    residual above tol means no U reproduces the panel.  Otherwise, by the
    paper's theorem, other pure states share the panel exactly when the
    fitted state is GHZ-class.  ``classify`` decides that from the unsquared
    second singular value of the state's own Bloch matrix, and supplies the
    family's certificate; no squared singular value of the fit decides.
    """
    target, source = _bloch_pair(panel, rows)
    u, _, vt = np.linalg.svd(target @ source.T)
    if np.linalg.det(u @ vt) < 0:
        u[:, 2] = -u[:, 2]
    rot = u @ vt
    # refit the turn about the leading axis u[:, 0] from target and
    # rot @ source projected onto the plane u[:, 1:] before any product.
    # Near the GHZ class those projections are O(eps), so the product above
    # holds them squared, at the rounding level of its O(1) entries, and
    # fixes this turn only up to noise.  phi is the exact best turn about
    # the axis, so the mismatch of the Bloch matrices never grows
    plane = u[:, 1:]
    h = (plane.T @ target) @ ((plane.T @ rot) @ source).T
    phi = np.arctan2(h[1, 0] - h[0, 1], h[0, 0] + h[1, 1])
    c, s = np.cos(phi), np.sin(phi)
    turn = np.outer(u[:, 0], u[:, 0]) + plane @ np.array([[c, -s], [s, c]]) @ plane.T
    rot = turn @ rot
    fitted = _axis_restore(_su2_from_rotation(rot) @ rows, 1)
    state = Ket(panel.n, fix_global_phase(fitted / np.linalg.norm(fitted)))
    residual = check_panel(state, panel)
    if residual > tol:
        return ReconstructionResult(
            "incompatible", None, None, residual,
            f"no unitary freedom reproduces the panel (best {residual:.3e})",
        )
    cls = classify(state)
    if cls.ghz_class:
        return ReconstructionResult("ghz-family", state, cls.certificate, residual)
    return ReconstructionResult("unique", state, None, residual)
