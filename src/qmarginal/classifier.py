"""Decide whether a pure state is locally equivalent to a generalized GHZ
state, and produce the witnesses that come with that verdict.

A generalized GHZ state is alpha|00...0> + beta|11...1> with both
amplitudes nonzero.  States in the local-unitary orbit of that family are
exactly the pure states that share their panel of one-qubit-removed
marginals with some other pure state; everything else is pinned down
uniquely.  ``classify`` decides this in closed form.  Write each marginal
rho_(k), k != 1, as 1/2 sum_a sigma_a (x) B_a over qubit 1 and stack the
real and imaginary parts of B_x, B_y, B_z into the 3-row Bloch matrix M
(``tensors._bloch_rows``, the one Bloch kernel).  Every pure state with
the same panel is psi with a unitary on qubit 1, which rotates M, so it
keeps the panel exactly when it fixes M.  A rotation that fixes M and
moves psi exists exactly when rank M <= 1 and qubit 1 is not pure, and by
the paper's theorem those are the GHZ-class states.
``classify`` returns the verdict together with a certificate (per-qubit
basis changes plus the two amplitudes) whenever the state is in the GHZ
class, and ``sibling``/``phase_family`` build the panel-sharing partner
states from a certificate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .panels import panel_distance, panel_of_pure, panels_equal
from .tensors import (
    PAULIS,
    Ket,
    MultiIndex,
    SingleQubitUnitary,
    _act,
    _axis_first,
    _bloch_rows,
    _check_tol,
    _grams,
    _pair_qr,
    _qubit_factors,
    _qubit_label,
)
from .tolerances import (
    CERTIFICATE_TOL,
    CLASSIFY_TOL,
    DEGENERACY_TOL,
    NORM_REJECT_TOL,
    PHASE_CONDITION_FLOOR,
    PHASE_CONDITION_TOL,
    SHARED_PANEL_FLOOR,
    TRANSPORT_OVERLAP_FLOOR,
    TRANSPORT_TOL,
)


@dataclass(frozen=True)
class GhzCertificate:
    """Witness of local-unitary equivalence to a generalized GHZ state.

    Applying ``locals_`` (one unitary per qubit, in label order) to the
    source state leaves amplitude only on the antipodal index pair
    ``support`` = (J, J-bar), with values ``alpha`` and ``beta``.  Any such
    pair is accepted here; ``classify`` always gives (0...0, 1...1), its
    bases' construction, with alpha on the heavier branch.

    Invariants, checked here and relied on downstream: local k targets
    qubit k; both support indices have n bits and are complements;
    |alpha|^2 + |beta|^2 = 1 within NORM_REJECT_TOL; neither amplitude is zero.
    """

    locals_: tuple[SingleQubitUnitary, ...]
    alpha: complex
    beta: complex
    support: tuple[MultiIndex, MultiIndex]

    def __post_init__(self):
        object.__setattr__(self, "locals_", tuple(self.locals_))
        n = len(self.locals_)
        if tuple(u.target for u in self.locals_) != tuple(range(1, n + 1)):
            raise ValueError(f"locals must target qubits 1..{n} in label order")
        j, jbar = self.support
        if len(j.bits) != n or len(jbar.bits) != n:
            raise ValueError(f"support indices must have {n} bits")
        if jbar != j.complement():
            raise ValueError("support indices are not an antipodal pair")
        if abs(abs(self.alpha) ** 2 + abs(self.beta) ** 2 - 1.0) > NORM_REJECT_TOL:
            raise ValueError("|alpha|^2 + |beta|^2 must be 1")
        if abs(self.alpha * self.beta) == 0.0:
            raise ValueError("alpha and beta must both be nonzero")

    @property
    def n(self) -> int:
        return len(self.locals_)


@dataclass(frozen=True)
class RelativePhases:
    """Phase parameters of one diagonalized transport,
    D = e^{i alpha_j} diag(e^{i beta_j}, e^{-i beta_j})."""

    alpha_j: float
    beta_j: float


@dataclass(frozen=True)
class Diagnostics:
    spectra: np.ndarray  # shape (n, 2), per-qubit marginal eigenvalues, descending; read-only
    degenerate: tuple[bool, ...]
    branch: str
    ill_conditioned: bool = False


@dataclass(frozen=True)
class Classification:
    ghz_class: bool
    certificate: GhzCertificate | None
    diagnostics: Diagnostics

    def __post_init__(self):
        if self.ghz_class and self.certificate is None:
            raise ValueError("GHZ-class verdict requires a certificate")

    @property
    def verdict(self) -> str:
        return "ghz-class" if self.ghz_class else "determined"


def _certificate_from_bases(psi: Ket, bases: list[np.ndarray], tol: float) -> GhzCertificate | None:
    """Try to assemble a certificate from per-qubit basis columns.

    ``bases[j]`` holds the two basis vectors of qubit j+1 as columns; the
    locals are their conjugate transposes.  ``_ghz_bases`` builds them so
    that a GHZ-class state lands on 0...0 (the heavier branch) and 1...1,
    so the support is that pair, read off by construction: the certificate
    holds when the rotated state's other amplitudes are all within tol and
    neither amplitude of the pair is.  The bases come from ``eigh``, so they
    are unitary to rounding, and the locals wrap them through
    ``SingleQubitUnitary._trusted``, with no second check.
    """
    ops = [(j + 1, b.conj().T) for j, b in enumerate(bases)]
    rotated = _act(psi.amplitudes, ops)
    alpha, beta = rotated[0], rotated[-1]
    if float(np.abs(rotated[1:-1]).max()) > tol or min(abs(alpha), abs(beta)) <= tol:
        return None
    scale = np.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
    locals_ = tuple(SingleQubitUnitary._trusted(m, j) for j, m in ops)
    zeros = MultiIndex((0,) * psi.n)
    return GhzCertificate(
        locals_, complex(alpha / scale), complex(beta / scale), (zeros, zeros.complement())
    )


def degenerate_ghz_test(psi: Ket, tol: float = CLASSIFY_TOL) -> GhzCertificate | None:
    """GHZ test for states whose one-qubit marginals are all maximally mixed.

    Raises ``ValueError`` when ``classify`` finds some marginal not maximally
    mixed (``Diagnostics.degenerate``, whatever tol is), else returns its
    certificate, or None when the state is determined by its panel.
    """
    cls = classify(psi, tol)
    if not all(cls.diagnostics.degenerate):
        j = cls.diagnostics.degenerate.index(False) + 1
        raise ValueError(f"marginal of qubit {j} is not maximally mixed")
    return cls.certificate


def _ghz_bases(factors: np.ndarray, axis: np.ndarray) -> list[np.ndarray]:
    """Per-qubit bases for the certificate of a state, given as its
    ``_qubit_factors``, whose qubit-1 Bloch matrix has rank <= 1 along ``axis``.

    Qubit 1's basis is the eigenbasis of axis . sigma, heavier branch first.
    For a GHZ-class state that branch, psi with qubit 1 projected on column
    0, is a product vector; each other qubit's basis is the eigenbasis of
    its one-qubit Gram, with the branch's factor first.  The state then sits
    on indices 0...0 and 1...1 in these bases.
    """
    _, first = np.linalg.eigh(np.einsum("a,aij->ij", axis, PAULIS))
    branches = first.conj().T @ factors[0]
    weights = np.linalg.norm(branches, axis=1)
    heavy = int(np.argmax(weights))
    _, rest = np.linalg.eigh(_grams(_qubit_factors(branches[heavy] / weights[heavy])))
    return [first[:, [heavy, 1 - heavy]], *rest[..., ::-1]]


def classify(psi: Ket, tol: float = CLASSIFY_TOL) -> Classification:
    """Main dichotomy: GHZ class (undetermined by the panel) or determined.

    A pure marginal or unequal one-qubit spectra force "determined".
    Otherwise the rank of qubit 1's Bloch matrix M decides (module
    docstring): "determined" when its second singular value exceeds tol,
    else "ghz-class" when ``_certificate_from_bases`` accepts the bases
    built from M's axis (``_ghz_bases``); the certificate's support is then
    always (0...0, 1...1), read off the bases' construction, not ranked by
    magnitude, so a balanced state's order does not follow rounding.  The
    cutoff is tol because a third amplitude eps on a GHZ-class state gives
    a second singular value proportional to eps, which the certificate's
    off-support amplitude eps meets at the same tol.  The ratio depends on
    the amplitudes: about 1.131 for 0.6|0..0> + 0.8|1..1> + eps|0..01>,
    about 0.57 for
    0.2|000> + sqrt(0.96)|111> + eps|100>; ROADMAP.md item 2 tracks these
    constants across the package's thresholds.  The singular value comes
    from M compressed (``_pair_qr``) to 3 x at most 32(n-1), unsquared, so
    accurate far below tol; M M^T would put its floor near 1e-8, at tol.
    ``Diagnostics.branch`` names the spectral case ("degenerate" when every
    marginal is maximally mixed) and ``ill_conditioned`` flags a rank <= 1
    without a certificate.  Raises ``ValueError`` for a tol that is not
    positive and finite (NaN compares False with every margin, and inf
    passes every one).
    """
    n = psi.n
    if n < 2:
        raise ValueError("classification needs at least 2 qubits")
    _check_tol(tol)
    factors = _qubit_factors(psi.amplitudes)
    spectra = np.linalg.eigvalsh(_grams(factors))[:, ::-1].copy()
    spectra.setflags(write=False)
    degenerate = tuple(bool(g < DEGENERACY_TOL) for g in spectra[:, 0] - spectra[:, 1])

    def diag(branch: str, ill: bool = False) -> Diagnostics:
        return Diagnostics(spectra, degenerate, branch, ill)

    if np.min(spectra[:, 1]) < tol:
        return Classification(False, None, diag("pure-marginal"))
    if np.max(spectra[:, 0]) - np.min(spectra[:, 0]) > tol:
        return Classification(False, None, diag("unequal-spectra"))
    branch = "degenerate" if all(degenerate) else "non-degenerate"
    u, s, _ = np.linalg.svd(_bloch_rows(_pair_qr(factors[0], "r")), full_matrices=False)
    if s[1] > tol:
        return Classification(False, None, diag(branch))
    cert = _certificate_from_bases(psi, _ghz_bases(factors, u[:, 0]), tol)
    return Classification(cert is not None, cert, diag(branch, cert is None))


def _family_member(cert: GhzCertificate, beta: complex) -> Ket:
    n = cert.n
    amps = np.zeros(2**n, dtype=complex)
    amps[cert.support[0].to_linear()] = cert.alpha
    amps[cert.support[1].to_linear()] = beta
    return Ket(n, _act(amps, [(u.target, u.entries.conj().T) for u in cert.locals_]))


def _check_certificate(psi: Ket, cert: GhzCertificate) -> None:
    if cert.n != psi.n:
        raise ValueError("certificate size does not match the state")
    rotated = _act(psi.amplitudes, [(u.target, u.entries) for u in cert.locals_])
    off = np.abs(rotated)
    off[[m.to_linear() for m in cert.support]] = 0.0
    if float(off.max()) > CERTIFICATE_TOL:
        raise ValueError("certificate does not rotate the state to an antipodal pair")


def sibling(psi: Ket, cert: GhzCertificate) -> Ket:
    """The panel-sharing partner with the second amplitude negated."""
    _check_certificate(psi, cert)
    return _family_member(cert, -cert.beta)


def phase_family(cert: GhzCertificate, phi: float) -> Ket:
    """Member of the one-parameter panel-sharing family at angle phi."""
    return _family_member(cert, cert.beta * np.exp(1j * float(phi)))


# ---------------------------------------------------------------------------
# single-qubit transport between panel-equal states


def _polar_unitary(m: np.ndarray) -> np.ndarray:
    u, _, vh = np.linalg.svd(m)
    return u @ vh


def _fit_transport(psi: Ket, psi_prime: Ket, j: int) -> tuple[np.ndarray, float]:
    """Orthogonal Procrustes fit for A, A', the ``_axis_first`` views of psi
    and psi' at qubit j, and its overlap |<psi'|(L on j) psi>|.  If psi' =
    e^{i theta} (L on j) psi, then A' A^dagger = e^{i theta} L A A^dagger
    with A A^dagger PSD, so its polar factor is e^{i theta} L for every
    spectrum (one of many at rank 1, all right on psi)."""
    a = _axis_first(psi.amplitudes, j)
    a_prime = _axis_first(psi_prime.amplitudes, j)
    mat = _polar_unitary(a_prime @ a.conj().T)
    moved = _act(psi.amplitudes, [(j, mat)])
    return mat, abs(np.vdot(moved, psi_prime.amplitudes))


def _require_shared_panel(a: Ket, b: Ket, tol: float) -> None:
    """Raise unless the two states' panels agree within max(tol, SHARED_PANEL_FLOOR)."""
    pa, pb = panel_of_pure(a), panel_of_pure(b)
    if not panels_equal(pa, pb, max(tol, SHARED_PANEL_FLOOR)):
        raise ValueError(f"panels differ by {panel_distance(pa, pb):.3e}, beyond tolerance")


def extract_local_unitary(psi: Ket, psi_prime: Ket, j: int, tol: float = TRANSPORT_TOL) -> SingleQubitUnitary:
    """One-qubit unitary L_j with (L_j on qubit j) psi = psi' up to phase.

    Exists exactly when the two states share their whole marginal panel;
    raises when the panels differ beyond tol, when no transport is found,
    and for a tol that is not positive and finite (NaN included).  L_j is
    the polar factor of A' A^dagger = e^{i theta} L_j A A^dagger (A, A': the
    states with qubit j as row index), as A A^dagger is PSD whatever its
    spectrum.  A polar factor is unitary by construction, so it is wrapped
    with ``SingleQubitUnitary._trusted``, with no second check.
    """
    if psi.n != psi_prime.n:
        raise ValueError("qubit counts differ")
    _check_tol(tol)
    j = _qubit_label(j, psi.n)
    _require_shared_panel(psi, psi_prime, tol)
    mat, overlap = _fit_transport(psi, psi_prime, j)
    if overlap < 1.0 - max(tol, TRANSPORT_OVERLAP_FLOOR):
        raise ValueError(f"no single-qubit transport found at qubit {j}")
    # a polar factor is unitary by construction; j indexed the reshape in
    # _fit_transport, so it is an integer and int(j) is exact
    return SingleQubitUnitary._trusted(mat, int(j))


def lu_equivalence_check(
    a: Ket, b: Ket, tol: float = TRANSPORT_TOL
) -> list[SingleQubitUnitary] | None:
    """Per-qubit transports between two panel-equal states.

    Returns one unitary per qubit, each of which alone maps a to b up to a
    global phase; None when some transport fails verification (a tolerance
    breach, since panel-equal states always admit one).  Raises
    ``ValueError`` for a tol that is not positive and finite (NaN included).
    Each transport is a polar factor, wrapped as in ``extract_local_unitary``.
    """
    if a.n != b.n:
        raise ValueError("qubit counts differ")
    _check_tol(tol)
    _require_shared_panel(a, b, tol)
    out = []
    for j in range(1, a.n + 1):
        mat, overlap = _fit_transport(a, b, j)
        # 1 - tol is never weaker than extract_local_unitary's threshold
        # 1 - max(tol, TRANSPORT_OVERLAP_FLOOR), and stricter below that floor
        if overlap < 1.0 - tol:
            return None
        out.append(SingleQubitUnitary._trusted(mat, j))
    return out


def diagonal_phases(u: SingleQubitUnitary) -> tuple[RelativePhases, np.ndarray]:
    """Diagonalize a 2x2 unitary as e^{i a} diag(e^{i b}, e^{-i b}).

    Returns the phase pair and the unitary whose columns diagonalize u.
    """
    evals, evecs = np.linalg.eig(u.entries)
    order = np.argsort(-np.angle(evals))
    evals, evecs = evals[order], evecs[:, order]
    evecs = _polar_unitary(evecs)
    theta0, theta1 = np.angle(evals[0]), np.angle(evals[1])
    return RelativePhases((theta0 + theta1) / 2.0, (theta0 - theta1) / 2.0), evecs


def antipodal_support_reduction(
    psi: Ket, phases, tol: float = PHASE_CONDITION_TOL
) -> set[MultiIndex]:
    """Indices where the pairwise phase-consistency condition allows a
    nonzero amplitude, given per-qubit diagonal transports.

    Index s (signs s_j = (-1)^(bit j)) is allowed when every delta =
    a_j - a_k + s_j b_j - s_k b_k has |e^{i delta} - 1| within
    max(tol, PHASE_CONDITION_FLOOR).  The pairs with qubit 1 come first:
    with qubit 1's bit fixed, each other qubit keeps only the bits whose
    delta against qubit 1 passes, and the full pairwise test runs on the
    product of the kept bits alone, so the cost is n^2 per candidate, not
    per index.  Requires finite phase pairs and every transport non-scalar
    (|sin beta_j| > tol).  At tol >= PHASE_CONDITION_FLOOR a qubit then
    keeps at most one bit per choice of qubit 1's, up to rounding, so there
    are at most two candidates and the allowed set lies in one antipodal
    pair.  Below the floor a |sin beta_j| between tol and the floor reads as
    scalar to the phase test, its qubit keeps both bits, up to 2^n indices
    are candidates, and the two errors for a wider set can fire; at or
    above the floor they signal numerical inconsistency upstream.  Raises
    ``ValueError`` for a tol that is not positive and finite (NaN included).
    """
    _check_tol(tol)
    n = psi.n
    pairs = [
        (p.alpha_j, p.beta_j) if isinstance(p, RelativePhases) else (float(p[0]), float(p[1]))
        for p in phases
    ]
    if len(pairs) != n:
        raise ValueError(f"expected {n} phase pairs, got {len(pairs)}")
    if not np.isfinite(pairs).all():
        raise ValueError("phase pairs must be finite")
    if any(abs(np.sin(b)) <= tol for _, b in pairs):
        raise ValueError("every transport must be non-scalar (|sin beta_j| > tol)")
    a, b = np.array(pairs, dtype=float).T
    limit = max(tol, PHASE_CONDITION_FLOOR) / 2

    def consistent(sb: np.ndarray) -> np.ndarray:
        # for signed betas sb[..., j] = s_j b_j, whether each pair (j, k)
        # passes: delta = a_j - a_k + s_j b_j - s_k b_k, and
        # |e^{i delta} - 1| = 2 |sin(delta / 2)| within max(tol, floor)
        delta = a[:, None] - a + sb[..., :, None] - sb[..., None, :]
        return np.abs(np.sin(0.5 * delta)) <= limit

    signed = np.stack([b, -b])  # signed[bit, j] = (-1)^bit b_j
    candidates = []
    for lead in (0, 1):  # qubit 1's bit
        sb = signed.copy()
        sb[:, 0] = signed[lead, 0]
        # the bits of each qubit j >= 2 whose pair (j, 1) passes: the very
        # delta the full test computes at every index with those two bits
        candidates += itertools.product([lead], *map(np.flatnonzero, consistent(sb)[:, 1:, 0].T))
    bits = np.array(candidates, dtype=int).reshape(-1, n)
    passed = consistent(np.where(bits == 1, -b, b)).all(axis=(1, 2))
    allowed = {MultiIndex(tuple(row)) for row in bits[passed]}
    if len(allowed) > 2:
        raise ValueError(f"phase condition admits {len(allowed)} indices; not antipodal")
    if len(allowed) == 2:
        first, second = sorted(allowed, key=lambda m: m.to_linear())
        if second != first.complement():
            raise ValueError("phase condition admits a non-antipodal pair")
    return allowed
