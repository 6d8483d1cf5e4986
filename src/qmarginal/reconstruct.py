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
on qubit 1, whatever entry 1's spectrum.  That unitary rotates the Bloch
matrix of the other entries over qubit 1, and the best rotation is an
orthogonal Procrustes problem.  By the paper's theorem, the fitted state
shares its panel with other pure states exactly when it is GHZ-class, so
``classify`` of that state decides between a family and the one state.
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
    _act,
    _blocks,
    _check_tol,
    _phase_fix_column,
    _traced_outer,
    fix_global_phase,
    tensor_insert,
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
    qubits of 1..n other than j, for n one more than its qubit count.
    """
    n = len(rdm.qubit_labels) + 1
    if set(rdm.qubit_labels) != set(range(1, n + 1)) - {j}:
        raise ValueError(f"a marginal omitting qubit {j} of {n} is on {rdm.qubit_labels}")
    evals, evecs = _leading_pairs(rdm, tol)
    if evals.size > 2 and evals[2] > tol:
        raise PanelRankError(
            f"marginal omitting qubit {j} has rank > 2 "
            f"(third eigenvalue {evals[2]:.3e})"
        )
    return _purification(evals, evecs, j, n, tol)


def _certified_rank_two(rdm: DensityMatrix, tol: float) -> bool:
    """Does rdm keep a factor within tol of it?  That factor has rank <= 2,
    so by Weyl rdm's third eigenvalue is at most the remainder, at most tol."""
    return rdm._factor is not None and rdm._remainder <= tol


def _leading_pairs(rdm: DensityMatrix, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Descending eigenvalues and the two leading eigenvector columns of
    rdm, for the rank check and the purification.  For an entry
    ``_certified_rank_two`` they are those of its factor a, from the SVD of
    a (2 x d): a = U S V^T gives a^T a^* = V S^2 V^dagger.  Every other
    entry, validated when it was built, takes a dense eigensolve, and so
    has all of its eigenvalues; only its two columns are phase-fixed."""
    if _certified_rank_two(rdm, tol):
        _, s, vt = np.linalg.svd(rdm._factor, full_matrices=False)
        return s * s, vt.T
    evals, evecs = np.linalg.eigh(rdm.entries)
    order = np.argsort(evals)[::-1]
    return evals[order], np.stack([_phase_fix_column(evecs[:, i]) for i in order[:2]], axis=1)


def _purification(
    evals: np.ndarray, evecs: np.ndarray, j: int, n: int, tol: float
) -> tuple[Ket, bool]:
    """``purify_over_qubit`` from a spectrum already checked for rank <= 2."""
    p0, p1 = (max(float(p), 0.0) for p in evals[:2])
    if p1 < tol:
        p1 = 0.0  # rank 1: the second eigenvector is null-space noise
    total = p0 + p1
    p0, p1 = p0 / total, p1 / total
    amps = np.sqrt(p0) * tensor_insert([1.0, 0.0], evecs[:, 0], j)
    if p1 > 0.0:
        amps = amps + np.sqrt(p1) * tensor_insert([0.0, 1.0], evecs[:, 1], j)
    return Ket(n, amps), bool(p0 - p1 < DEGENERACY_TOL)


def reconstruct(panel: RdmPanel, tol: float = RECONSTRUCT_TOL) -> ReconstructionResult:
    """Recover the pure state(s) behind a marginal panel.

    Returns Unique with the reconstructed state, GhzFamily with a
    certificate when the panel belongs to a GHZ-class orbit, or
    Incompatible with a reason when no pure state reproduces the panel
    within tol.  Raises ``ValueError`` for a tol that is not positive (NaN
    included).
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
    chi, _ = _purification(*first, 1, panel.n, tol)
    return _fit_qubit_one(panel, chi, tol)


def _bloch_matrix(entries: list[np.ndarray]) -> np.ndarray:
    """3 x M real matrix of the Pauli components on each entry's first qubit.

    Each entry is written as rho = 1/2 sum_a sigma_a (x) B_a over its first
    axis; the columns are the real and imaginary parts of B_x, B_y, B_z of
    every entry.  Conjugating that qubit by a unitary U with
    U sigma_a U^dagger = sum_b R[b, a] sigma_b maps the matrix M to R M
    and leaves B_0 alone.
    """
    blocks = []
    for rho in entries:
        x = _blocks(rho, rho.shape[0].bit_length() - 1, 1)
        b = np.stack([
            x[0, 1] + x[1, 0],
            1j * (x[0, 1] - x[1, 0]),
            x[0, 0] - x[1, 1],
        ]).reshape(3, -1)
        blocks += [b.real, b.imag]
    return np.concatenate(blocks, axis=1)


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


def _fit_qubit_one(panel: RdmPanel, chi: Ket, tol: float) -> ReconstructionResult:
    """Fix the unitary freedom on qubit 1 of chi, a purification of entry 1.

    chi is right up to a unitary U on qubit 1, whatever entry 1's spectrum.
    Conjugation by U rotates the Bloch matrix of the other entries
    (``_bloch_matrix``) by some R in SO(3), so the best U is the rotation
    that carries chi's matrix onto the panel's: orthogonal Procrustes with
    det R = +1 (Kabsch, Acta Cryst. A32, 922 (1976)), its turn about the
    leading axis refitted from unsquared rows, lifted to SU(2).  A
    residual above tol means no U reproduces the panel.  Otherwise, by the
    paper's theorem, other pure states share the panel exactly when the
    fitted state is GHZ-class.  ``classify`` decides that from the unsquared
    second singular value of the state's own Bloch matrix, and supplies the
    family's certificate; no squared singular value of the fit decides.
    """
    n = panel.n
    amps = chi.amplitudes
    target = _bloch_matrix([panel.entry(k).entries for k in range(2, n + 1)])
    source = _bloch_matrix([_traced_outer(amps, amps, n, k) for k in range(2, n + 1)])
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
    fitted = _act(amps, n, [(1, _su2_from_rotation(rot))])
    state = Ket(n, fix_global_phase(fitted / np.linalg.norm(fitted)))
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
