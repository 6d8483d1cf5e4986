"""Invert the panel map: recover a pure state from its marginal panel.

Given the n-tuple of one-qubit-removed marginals, the inverse image among
pure states is either a single state, the one-parameter family attached to
a GHZ-class certificate, or empty.  Every panel takes one closed-form path
(``_fit_qubit_one``).  Purifying entry 1 pins the state down to a unitary
on qubit 1, whatever entry 1's spectrum.  That unitary rotates the Bloch
matrix of the other entries over qubit 1, and the best rotation is an
orthogonal Procrustes problem.  If the panel's Bloch matrix has rank >= 2,
only the identity rotation fixes it and the state is unique.  If its rank
is <= 1, every rotation about its axis fits too, and ``classify`` decides
whether those rotations give a GHZ-class family or only the one state.
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
    _traced_outer,
    fix_global_phase,
    spectral_decompose,
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
    the omitted qubit.
    """
    evals, evecs = spectral_decompose(rdm.entries)
    if evals.size > 2 and evals[2] > tol:
        raise PanelRankError(
            f"marginal omitting qubit {j} has rank > 2 "
            f"(third eigenvalue {evals[2]:.3e})"
        )
    return _purification(evals, evecs, j, len(rdm.qubit_labels) + 1, tol)


def _purification(
    evals: np.ndarray, evecs: np.ndarray, j: int, n: int, tol: float
) -> tuple[Ket, bool]:
    """``purify_over_qubit`` from a spectrum already checked for rank <= 2."""
    p0, p1 = max(float(evals[0]), 0.0), max(float(evals[1]), 0.0)
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
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    # entry 1's eigenvectors are kept for the purification
    first = spectral_decompose(panel.entry(1).entries)
    spectra = [first[0]] + [np.linalg.eigvalsh(e.entries)[::-1] for e in panel.entries[1:]]
    for j, evals in enumerate(spectra, start=1):
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
    det R = +1 (Kabsch, Acta Cryst. A32, 922 (1976)), lifted to SU(2).  A
    residual above tol means no U reproduces the panel.  If the panel's
    matrix has rank >= 2, only the identity rotation fixes it, so the state
    is unique.  If its rank is <= 1, every rotation about its axis fits as
    well.  By the paper's theorem those rotations give states other than
    this one only when it is GHZ-class, which ``classify`` decides; it also
    supplies the family's certificate.
    """
    n = panel.n
    amps = chi.amplitudes
    target = _bloch_matrix([panel.entry(k).entries for k in range(2, n + 1)])
    source = _bloch_matrix([_traced_outer(amps, amps, n, k) for k in range(2, n + 1)])
    u, s, vt = np.linalg.svd(target @ source.T)
    if np.linalg.det(u @ vt) < 0:
        u[:, 2] = -u[:, 2]
    fitted = _act(amps, n, [(1, _su2_from_rotation(u @ vt))])
    state = Ket(n, fix_global_phase(fitted / np.linalg.norm(fitted)))
    residual = check_panel(state, panel)
    if residual > tol:
        return ReconstructionResult(
            "incompatible", None, None, residual,
            f"no unitary freedom reproduces the panel (best {residual:.3e})",
        )
    # target @ source.T is R M M^T after the fit, so s holds the squared
    # singular values of the panel's Bloch matrix M, whose norm is at most
    # sqrt(2(n - 1)) since its columns come from density matrices.  A panel
    # within tol of one whose M has rank 1 has s[1] of order tol at most, so
    # s[1] above tol shows rank >= 2.  The cutoff is absolute because M = 0
    # for a maximally entangled pair, where a relative one would read noise.
    if s[1] <= tol:
        cls = classify(state)
        if cls.ghz_class:
            return ReconstructionResult("ghz-family", state, cls.certificate, residual)
    return ReconstructionResult("unique", state, None, residual)
