"""Invert the panel map: recover a pure state from its marginal panel.

Given the n-tuple of one-qubit-removed marginals, the inverse image among
pure states is either a single state, the one-parameter family attached to
a GHZ-class certificate, or empty.  Purifying one panel entry pins the
state down to a unitary's worth of freedom on the pivot qubit; matching
the one-qubit marginal implied by the other entries reduces that to a
relative phase whenever the pivot spectrum is non-degenerate, and the
remaining entries either fix the phase, accept every phase (the GHZ
family), or rule all of them out.  When every entry's spectrum is
degenerate, the unitary is fixed in closed form instead, as a rotation of
Bloch vectors (``_reconstruct_degenerate``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classifier import GhzCertificate, classify
from .panels import RdmPanel, panel_consistency, panel_distance, panel_of_pure
from .tensors import (
    DEGENERACY_TOL,
    PAULIS,
    DensityMatrix,
    Ket,
    SingleQubitUnitary,
    _traced_outer,
    apply_local,
    equal_up_to_phase,
    fix_global_phase,
    partial_trace,
    spectral_decompose,
    tensor_insert,
)

DEFAULT_TOL = 1e-9
FAMILY_CROSS_FACTOR = 10.0
_PAULI_STACK = np.array(PAULIS)


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
    rdm: DensityMatrix, j: int, tol: float = DEFAULT_TOL
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
    p0, p1 = max(float(evals[0]), 0.0), max(float(evals[1]), 0.0)
    if p1 < tol:
        p1 = 0.0  # rank 1: the second eigenvector is null-space noise
    total = p0 + p1
    p0, p1 = p0 / total, p1 / total
    amps = np.sqrt(p0) * tensor_insert([1.0, 0.0], evecs[:, 0], j)
    if p1 > 0.0:
        amps = amps + np.sqrt(p1) * tensor_insert([0.0, 1.0], evecs[:, 1], j)
    n = len(rdm.qubit_labels) + 1
    return Ket(n, amps), bool(p0 - p1 < DEGENERACY_TOL)


def _conjugate_axis(mat: np.ndarray, m: int, pos: int, u: np.ndarray) -> np.ndarray:
    """Conjugate one qubit axis of a 2^m x 2^m matrix by a 2x2 unitary."""
    t = mat.reshape((2,) * (2 * m))
    t = np.moveaxis(np.tensordot(u, t, axes=([1], [pos])), 0, pos)
    t = np.moveaxis(np.tensordot(t, u.conj().T, axes=([m + pos], [0])), -1, m + pos)
    return t.reshape(2**m, 2**m)


def _entry_spectra(panel: RdmPanel) -> list[np.ndarray]:
    return [np.linalg.eigvalsh(e.entries)[::-1] for e in panel.entries]


def _phase_fixed(amps: np.ndarray, n: int) -> Ket:
    return Ket(n, fix_global_phase(amps / np.linalg.norm(amps)))


def reconstruct(panel: RdmPanel, tol: float = DEFAULT_TOL) -> ReconstructionResult:
    """Recover the pure state(s) behind a marginal panel.

    Returns Unique with the reconstructed state, GhzFamily with a
    certificate when every relative phase matches (the panel belongs to a
    GHZ-class orbit), or Incompatible with a reason when no pure state
    reproduces the panel within tol.
    """
    n = panel.n
    spectra = _entry_spectra(panel)
    for j, evals in enumerate(spectra, start=1):
        if evals.size > 2 and evals[2] > tol:
            return ReconstructionResult(
                "incompatible", None, None, float(evals[2]),
                f"entry {j} has rank > 2 (third eigenvalue {evals[2]:.3e})",
            )
    consistency = panel_consistency(panel)
    if consistency > max(tol, 1e-9):
        return ReconstructionResult(
            "incompatible", None, None, consistency,
            f"one-qubit marginals disagree across entries by {consistency:.3e}",
        )

    gaps = [float(ev[0] - ev[1]) for ev in spectra]
    pivot = next((j for j in range(1, n + 1) if gaps[j - 1] >= DEGENERACY_TOL), None)
    if pivot is None:
        return _reconstruct_degenerate(panel, tol)
    return _reconstruct_nondegenerate(panel, pivot, tol)


def _reconstruct_nondegenerate(panel: RdmPanel, pivot: int, tol: float) -> ReconstructionResult:
    n = panel.n
    evals, evecs = spectral_decompose(panel.entry(pivot).entries)
    p0, p1 = max(float(evals[0]), 0.0), max(float(evals[1]), 0.0)
    if p1 < tol:
        p1 = 0.0  # rank 1: the second eigenvector is null-space noise
    total = p0 + p1
    p0, p1 = p0 / total, p1 / total

    # one-qubit marginal of the pivot, as implied by some other entry; its
    # eigenbasis fixes the pivot-side Schmidt vectors (Eq-style alignment),
    # leaving only the relative phase between the two branches free
    other = next(k for k in range(1, n + 1) if k != pivot)
    entry = panel.entry(other)
    rho_pivot = partial_trace(entry, set(entry.qubit_labels) - {pivot}).entries
    q_evals, w = spectral_decompose(rho_pivot)
    if max(abs(q_evals[0] - p0), abs(q_evals[1] - p1)) > max(100 * tol, 1e-7):
        return ReconstructionResult(
            "incompatible", None, None, float(abs(q_evals[0] - p0)),
            "pivot spectra disagree between panel entries",
        )

    # two Schmidt branches in the frame where the pivot basis is computational
    b0 = np.sqrt(p0) * tensor_insert([1.0, 0.0], evecs[:, 0], pivot)
    b1 = np.sqrt(p1) * tensor_insert([0.0, 1.0], evecs[:, 1], pivot)

    best_cross = 0.0
    best = None  # (k, index pair, cross value)
    cross_ops = {}
    diag_ops = {}
    for k in range(1, n + 1):
        if k == pivot:
            continue
        cross = _traced_outer(b1, b0, n, k)
        cross_ops[k] = cross
        diag_ops[k] = _traced_outer(b0, b0, n, k) + _traced_outer(b1, b1, n, k)
        idx = np.unravel_index(np.argmax(np.abs(cross)), cross.shape)
        mag = float(np.abs(cross[idx]))
        if mag > best_cross:
            best_cross = mag
            best = (k, idx)

    pivot_pos_in = {
        k: [q for q in range(1, n + 1) if q != k].index(pivot)
        for k in cross_ops
    }
    w_dag = w.conj().T

    def rotated_target(k: int) -> np.ndarray:
        return _conjugate_axis(panel.entry(k).entries, n - 1, pivot_pos_in[k], w_dag)

    def assemble(phi: float) -> Ket:
        amps = b0 + np.exp(1j * phi) * b1
        state = Ket(n, amps / np.linalg.norm(amps))
        return apply_local(SingleQubitUnitary(w, pivot), state)

    if best_cross < FAMILY_CROSS_FACTOR * tol:
        candidate = assemble(0.0)
        residual = check_panel(candidate, panel)
        if residual <= tol:
            cls = classify(candidate)
            if cls.ghz_class:
                return ReconstructionResult(
                    "ghz-family", _phase_fixed(candidate.amplitudes, n),
                    cls.certificate, residual,
                )
            return ReconstructionResult(
                "unique", _phase_fixed(candidate.amplitudes, n), None, residual
            )
        return ReconstructionResult(
            "incompatible", None, None, residual,
            f"panel residual {residual:.3e} exceeds tolerance",
        )

    k, idx = best
    target_cross = rotated_target(k) - diag_ops[k]
    ratio = target_cross[idx] / cross_ops[k][idx]
    phi = float(np.angle(ratio))
    candidate = assemble(phi)
    residual = check_panel(candidate, panel)
    if residual <= tol:
        return ReconstructionResult(
            "unique", _phase_fixed(candidate.amplitudes, n), None, residual
        )
    return ReconstructionResult(
        "incompatible", None, None, residual,
        f"panel residual {residual:.3e} exceeds tolerance",
    )


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
        d = rho.shape[0] // 2
        r = rho.reshape(2, d, 2, d)
        b = np.stack([
            r[0, :, 1] + r[1, :, 0],
            1j * (r[0, :, 1] - r[1, :, 0]),
            r[0, :, 0] - r[1, :, 1],
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
    basis = (np.eye(2, dtype=complex), *PAULIS)
    images = (basis[0], *np.einsum("ba,bij->aij", rot, _PAULI_STACK))
    best = max(
        (sum(img @ a @ s for img, s in zip(images, basis)) for a in basis),
        key=np.linalg.norm,
    )
    return best / np.sqrt(abs(np.linalg.det(best)))


def _reconstruct_degenerate(panel: RdmPanel, tol: float) -> ReconstructionResult:
    """All pivot spectra are degenerate: fix the unitary freedom in closed form.

    Purifying entry 1 gives a candidate chi that is right up to a unitary U
    on qubit 1.  Conjugation by U rotates the Bloch matrix of the other
    entries (``_bloch_matrix``) by some R in SO(3), so the best U is the
    rotation that carries chi's matrix onto the panel's: orthogonal
    Procrustes with det R = +1 (Kabsch, Acta Cryst. A32, 922 (1976)),
    lifted to SU(2).  A residual above tol means no U reproduces the panel.
    If the panel's matrix has rank <= 1, a quarter-turn about its leading
    direction fits as well and gives a second, distinct state: the panel
    then belongs to a one-parameter family when ``classify`` finds the
    state GHZ-class.  Otherwise the state is unique.
    """
    n = panel.n
    try:
        chi, _ = purify_over_qubit(panel.entry(1), 1, tol)
    except PanelRankError as err:
        return ReconstructionResult("incompatible", None, None, np.inf, str(err))
    amps = chi.amplitudes
    target = _bloch_matrix([panel.entry(k).entries for k in range(2, n + 1)])
    source = _bloch_matrix([_traced_outer(amps, amps, n, k) for k in range(2, n + 1)])
    u, _, vt = np.linalg.svd(target @ source.T)
    if np.linalg.det(u @ vt) < 0:
        u[:, 2] = -u[:, 2]
    fitted = apply_local(SingleQubitUnitary(_su2_from_rotation(u @ vt), 1), chi)
    state = _phase_fixed(fitted.amplitudes, n)
    residual = check_panel(state, panel)
    if residual > tol:
        return ReconstructionResult(
            "incompatible", None, None, residual,
            f"no unitary freedom reproduces the panel (best {residual:.3e})",
        )

    axis = np.einsum("b,bij->ij", u[:, 0], _PAULI_STACK)
    quarter_turn = (np.eye(2) - 1j * axis) / np.sqrt(2.0)
    other = apply_local(SingleQubitUnitary(quarter_turn, 1), state)
    if check_panel(other, panel) <= tol and not equal_up_to_phase(state, other, 1e-8):
        cls = classify(state)
        if cls.ghz_class:
            return ReconstructionResult("ghz-family", state, cls.certificate, residual)
    return ReconstructionResult("unique", state, None, residual)
