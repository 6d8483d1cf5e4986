"""Decide whether a pure state is locally equivalent to a generalized GHZ
state, and produce the witnesses that come with that verdict.

A generalized GHZ state is alpha|00...0> + beta|11...1> with both
amplitudes nonzero.  States in the local-unitary orbit of that family are
exactly the pure states that share their panel of one-qubit-removed
marginals with some other pure state; everything else is pinned down
uniquely.  ``classify`` returns the verdict together with a certificate
(per-qubit basis changes plus the two amplitudes) whenever the state is in
the GHZ class, and ``sibling``/``phase_family`` build the panel-sharing
partner states from a certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .panels import panel_distance, panel_of_pure
from .tensors import (
    DEGENERACY_TOL,
    Ket,
    MultiIndex,
    SingleQubitUnitary,
    _axis_first,
    _grams,
    _phase_fix_column,
    _qubit_factors,
    apply_local,
    apply_locals,
    schmidt_split,
    spectral_decompose,
    tensor_insert,
)

DEFAULT_TOL = 1e-8
# band around the degeneracy threshold where both branches are consulted
NEAR_DEGENERACY_BAND = 10.0


@dataclass(frozen=True)
class GhzCertificate:
    """Witness of local-unitary equivalence to a generalized GHZ state.

    Applying ``locals_`` (one unitary per qubit, in label order) to the
    source state leaves amplitude only on the antipodal index pair
    ``support`` = (J, J-bar), with values ``alpha`` and ``beta``.
    """

    locals_: tuple[SingleQubitUnitary, ...]
    alpha: complex
    beta: complex
    support: tuple[MultiIndex, MultiIndex]

    def __post_init__(self):
        object.__setattr__(self, "locals_", tuple(self.locals_))
        j, jbar = self.support
        if jbar != j.complement():
            raise ValueError("support indices are not an antipodal pair")
        if abs(abs(self.alpha) ** 2 + abs(self.beta) ** 2 - 1.0) > 1e-6:
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


def _rotate(psi: Ket, locals_) -> np.ndarray:
    return apply_locals(locals_, psi).amplitudes


def _certificate_from_bases(psi: Ket, bases: list[np.ndarray], tol: float) -> GhzCertificate | None:
    """Try to assemble a certificate from per-qubit basis columns.

    ``bases[j]`` holds the two basis vectors of qubit j+1 as columns; the
    locals are their conjugate transposes.  Succeeds when the rotated state
    is supported on one antipodal index pair within tol.
    """
    n = psi.n
    locals_ = tuple(
        SingleQubitUnitary(b.conj().T, j + 1) for j, b in enumerate(bases)
    )
    rotated = _rotate(psi, locals_)
    top = int(np.argmax(np.abs(rotated)))
    j_index = MultiIndex.from_linear(top, n)
    jbar_index = j_index.complement()
    other = jbar_index.to_linear()
    off = np.abs(rotated).copy()
    off[top] = 0.0
    off[other] = 0.0
    if float(off.max()) > tol:
        return None
    alpha, beta = rotated[top], rotated[other]
    if abs(beta) <= tol:
        return None
    scale = np.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
    return GhzCertificate(
        locals_, complex(alpha / scale), complex(beta / scale), (j_index, jbar_index)
    )


# ---------------------------------------------------------------------------
# degenerate branch: product vectors in a two-dimensional subspace


def _minor_coefficients(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """Quadratic coefficients (s^2, st, t^2) of every 2x2 minor of the
    site-m flattening of s*A + t*B.  Vectors a, b live on m_count qubits."""
    m_count = int(round(np.log2(a.size)))
    fa = _axis_first(a, m_count, m + 1)
    fb = _axis_first(b, m_count, m + 1)

    def dets(x, y):
        return np.outer(x[0], y[1]) - np.outer(x[1], y[0])

    daa = dets(fa, fa)
    dbb = dets(fb, fb)
    dab = dets(fa, fb)
    dba = dets(fb, fa)
    cols = fa.shape[1]
    iu = np.triu_indices(cols, k=1)
    return np.stack([daa[iu], (dab + dba)[iu], dbb[iu]], axis=1)


def _polish_root(coeffs: np.ndarray, r: complex, flipped: bool) -> complex:
    """Gauss-Newton on the summed squared minor magnitudes near a root.

    In the standard chart the minors are q(r) = s2 + st*r + t2*r^2; the
    flipped chart swaps the roles of the two endpoint vectors.
    """
    c0 = coeffs[:, 2] if flipped else coeffs[:, 0]
    c1 = coeffs[:, 1]
    c2 = coeffs[:, 0] if flipped else coeffs[:, 2]
    for _ in range(25):
        q = c0 + c1 * r + c2 * r * r
        dq = c1 + 2.0 * c2 * r
        denom = np.sum(np.abs(dq) ** 2)
        if denom < 1e-300:
            break
        step = -np.sum(dq.conj() * q) / denom
        r = r + step
        if abs(step) < 1e-14:
            break
    return r


def _second_singular_values(v: np.ndarray, m_count: int) -> float:
    worst = 0.0
    for m in range(m_count):
        flat = _axis_first(v, m_count, m + 1)
        s = np.linalg.svd(flat, compute_uv=False)
        worst = max(worst, float(s[1]))
    return worst


def _product_factors(v: np.ndarray, m_count: int) -> list[np.ndarray]:
    factors = []
    for m in range(m_count):
        flat = _axis_first(v, m_count, m + 1)
        u, _, _ = np.linalg.svd(flat)
        factors.append(_phase_fix_column(u[:, 0]))
    return factors


def _product_vectors_in_span(a: np.ndarray, b: np.ndarray, tol: float) -> list[np.ndarray] | None:
    """All fully-product vectors in span{a, b} of an m-qubit space.

    Every 2x2 minor of every single-site flattening of s*a + t*b is a
    homogeneous quadratic in (s, t); the product vectors are their common
    roots.  Candidates come from the largest-magnitude minor (any common
    root is a root of every nonzero minor), get polished against the full
    minor set, and are kept only if every site flattening is rank one.
    """
    m_count = int(round(np.log2(a.size)))
    coeffs = np.concatenate(
        [_minor_coefficients(a, b, m) for m in range(m_count)], axis=0
    )
    magnitudes = np.max(np.abs(coeffs), axis=1)
    scale = float(magnitudes.max())
    if scale < 1e-10:
        # every vector in the span is product at every site
        return None
    coeffs = coeffs[magnitudes > 1e-10 * scale]
    lead = coeffs[int(np.argmax(np.max(np.abs(coeffs), axis=1)))]
    s2, st, t2 = lead

    candidates: list[tuple[complex, bool]] = []  # (ratio, flipped chart)
    eps = 1e-12 * max(abs(s2), abs(st), abs(t2))
    if abs(t2) > eps:
        for root in np.roots([t2, st, s2]):
            candidates.append((complex(root), False))
    elif abs(st) > eps:
        candidates.append((complex(-s2 / st), False))
        candidates.append((0.0 + 0.0j, True))
    else:
        candidates.append((0.0 + 0.0j, True))

    vectors: list[np.ndarray] = []
    for ratio, flipped in candidates:
        if abs(ratio) > 1.0:
            # move to the chart where the parameter stays inside the unit disk
            ratio, flipped = 1.0 / ratio, not flipped
        ratio = _polish_root(coeffs, ratio, flipped)
        v = (ratio * a + b) if flipped else (a + ratio * b)
        norm = np.linalg.norm(v)
        if norm < 1e-8:
            continue
        v = v / norm
        if _second_singular_values(v, m_count) > max(1e-6, tol):
            continue
        if any(abs(np.vdot(w, v)) > 1.0 - 1e-6 for w in vectors):
            continue
        vectors.append(v)
    return vectors


def degenerate_ghz_test(psi: Ket, tol: float = DEFAULT_TOL) -> GhzCertificate | None:
    """GHZ test for states whose one-qubit marginals are all maximally mixed.

    Splits off qubit 1, finds the fully-product vectors in the two-
    dimensional span carried by the rest of the register, and assembles a
    certificate when there are exactly two of them with orthogonal factors
    at every site.  Returns None when no certificate exists.
    """
    n = psi.n
    deviation = np.max(np.abs(_grams(_qubit_factors(psi)) - 0.5 * np.eye(2)), axis=(1, 2))
    if (off := deviation > max(tol, DEGENERACY_TOL)).any():
        raise ValueError(f"marginal of qubit {int(np.argmax(off)) + 1} is not maximally mixed")
    split = schmidt_split(psi, 1)
    if n == 2:
        bases = [split.one_qubit_vectors, split.rest_vectors.T.copy()]
        return _certificate_from_bases(psi, bases, tol)

    vectors = _product_vectors_in_span(split.rest_vectors[0], split.rest_vectors[1], tol)
    if vectors is None or len(vectors) != 2:
        return None
    w0, w1 = vectors
    f0 = _product_factors(w0, n - 1)
    f1 = _product_factors(w1, n - 1)
    for m in range(n - 1):
        if abs(np.vdot(f0[m], f1[m])) > 1e-6:
            return None

    # orthonormalize the factor pairs exactly, then recover the qubit-1 pair
    bases = [np.zeros((2, 2), dtype=complex) for _ in range(n)]
    for m in range(n - 1):
        g = f1[m] - np.vdot(f0[m], f1[m]) * f0[m]
        bases[m + 1][:, 0] = f0[m]
        bases[m + 1][:, 1] = g / np.linalg.norm(g)
    psi_matrix = psi.amplitudes.reshape(2, 2 ** (n - 1))
    g0 = psi_matrix @ w0.conj()
    g1 = psi_matrix @ w1.conj()
    if np.linalg.norm(g0) < tol or np.linalg.norm(g1) < tol:
        return None
    g0 = g0 / np.linalg.norm(g0)
    g1 = g1 - np.vdot(g0, g1) * g0
    if np.linalg.norm(g1) < tol:
        return None
    bases[0][:, 0] = g0
    bases[0][:, 1] = g1 / np.linalg.norm(g1)
    return _certificate_from_bases(psi, bases, tol)


# ---------------------------------------------------------------------------
# classification


def classify(psi: Ket, tol: float = DEFAULT_TOL) -> Classification:
    """Main dichotomy: GHZ class (undetermined by the panel) or determined.

    Steps: compare all one-qubit marginal spectra; a pure marginal or
    unequal spectra force "determined"; equal non-degenerate spectra go
    through the eigenbasis/antipodal-support test; fully degenerate spectra
    go through the product-vector test.  States straddling the degeneracy
    threshold are run through both branches and flagged when the branches
    disagree.
    """
    n = psi.n
    if n < 2:
        raise ValueError("classification needs at least 2 qubits")
    rdms = _grams(_qubit_factors(psi))
    spectra = np.linalg.eigvalsh(rdms)[:, ::-1].copy()
    spectra.setflags(write=False)
    gaps = spectra[:, 0] - spectra[:, 1]
    degenerate = tuple(bool(g < DEGENERACY_TOL) for g in gaps)

    def diag(branch: str, ill: bool = False) -> Diagnostics:
        return Diagnostics(spectra, degenerate, branch, ill)

    if np.min(spectra[:, 1]) < tol:
        return Classification(False, None, diag("pure-marginal"))
    if np.max(spectra[:, 0]) - np.min(spectra[:, 0]) > tol:
        return Classification(False, None, diag("unequal-spectra"))

    all_degenerate = all(degenerate)
    near_band = (not all_degenerate) and float(np.min(gaps)) < NEAR_DEGENERACY_BAND * DEGENERACY_TOL

    if all_degenerate:
        cert = degenerate_ghz_test(psi, tol)
        return Classification(cert is not None, cert, diag("degenerate"))

    cert = _certificate_from_bases(psi, [spectral_decompose(rho)[1] for rho in rdms], tol)
    ill = False
    if near_band:
        try:
            cert_deg = degenerate_ghz_test(psi, max(tol, float(np.max(gaps))))
        except ValueError:
            cert_deg = None
        ill = (cert is None) != (cert_deg is None)
    return Classification(cert is not None, cert, diag("non-degenerate", ill))


def _family_member(cert: GhzCertificate, beta: complex) -> Ket:
    n = cert.n
    amps = np.zeros(2**n, dtype=complex)
    amps[cert.support[0].to_linear()] = cert.alpha
    amps[cert.support[1].to_linear()] = beta
    inv = [u.dagger() for u in cert.locals_]
    return apply_locals(inv, Ket(n, amps))


def _check_certificate(psi: Ket, cert: GhzCertificate) -> None:
    if cert.n != psi.n:
        raise ValueError("certificate size does not match the state")
    rotated = _rotate(psi, cert.locals_)
    keep = {cert.support[0].to_linear(), cert.support[1].to_linear()}
    off = np.abs(rotated).copy()
    for idx in keep:
        off[idx] = 0.0
    if float(off.max()) > 1e-6:
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


def _extract_lj(psi: Ket, psi_prime: Ket, j: int, tol: float) -> SingleQubitUnitary:
    split = schmidt_split(psi, j)
    if not split.degenerate:
        # the primed state lives in the span of the two Schmidt branches,
        # so the transport is diagonal in the qubit-j Schmidt basis
        overlaps = []
        for i in range(2):
            branch = tensor_insert(split.one_qubit_vectors[:, i], split.rest_vectors[i], j)
            overlaps.append(np.vdot(branch, psi_prime.amplitudes))
        mass = abs(overlaps[0]) ** 2 + abs(overlaps[1]) ** 2
        if mass < 1.0 - max(100 * tol, 1e-7):
            raise ValueError(
                f"no single-qubit transport at qubit {j}: states do not share "
                "their Schmidt branches"
            )
        phases = [o / abs(o) if abs(o) > 0 else 1.0 for o in overlaps]
        v = split.one_qubit_vectors
        mat = v @ np.diag(phases) @ v.conj().T
    else:
        # full 2x2 freedom: u relates the rest-side bases, v the qubit-side
        # bases, and the transport is v^T u expressed in the unprimed basis
        split_prime = schmidt_split(psi_prime, j)
        u = split_prime.rest_vectors @ split.rest_vectors.conj().T  # u[i, l]
        v_t = split.one_qubit_vectors.conj().T @ split_prime.one_qubit_vectors
        lj = v_t @ u  # entries L[m, l] over the unprimed Schmidt basis
        a = split.one_qubit_vectors
        mat = a @ lj @ a.conj().T
    transport = SingleQubitUnitary(_polar_unitary(mat), j)
    if abs(apply_local(transport, psi).overlap(psi_prime)) < 1.0 - max(tol, 1e-10):
        raise ValueError(f"no single-qubit transport found at qubit {j}")
    return transport


def _require_shared_panel(a: Ket, b: Ket, tol: float) -> None:
    """Raise unless the two states' panels agree within max(tol, 1e-10)."""
    dist = panel_distance(panel_of_pure(a), panel_of_pure(b))
    if dist > max(tol, 1e-10):
        raise ValueError(f"panels differ by {dist:.3e}, beyond tolerance")


def extract_local_unitary(psi: Ket, psi_prime: Ket, j: int, tol: float = DEFAULT_TOL) -> SingleQubitUnitary:
    """One-qubit unitary L_j with (L_j on qubit j) psi = psi' up to phase.

    Exists exactly when the two states share their whole marginal panel;
    raises when the panels differ beyond tol or no transport is found.
    """
    if psi.n != psi_prime.n:
        raise ValueError("qubit counts differ")
    if not 1 <= j <= psi.n:
        raise ValueError(f"qubit label {j} out of range 1..{psi.n}")
    _require_shared_panel(psi, psi_prime, tol)
    return _extract_lj(psi, psi_prime, j, tol)


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


def antipodal_support_reduction(psi: Ket, phases, tol: float = DEFAULT_TOL) -> set[MultiIndex]:
    """Indices where the pairwise phase-consistency condition allows a
    nonzero amplitude, given per-qubit diagonal transports.

    Requires every transport to be non-scalar (|sin beta_j| > tol); the
    allowed set is then contained in one antipodal pair, and anything else
    signals numerical inconsistency upstream.
    """
    n = psi.n
    pairs = [
        (p.alpha_j, p.beta_j) if isinstance(p, RelativePhases) else (float(p[0]), float(p[1]))
        for p in phases
    ]
    if len(pairs) != n:
        raise ValueError(f"expected {n} phase pairs, got {len(pairs)}")
    if any(abs(np.sin(b)) <= tol for _, b in pairs):
        raise ValueError("every transport must be non-scalar (|sin beta_j| > tol)")
    allowed: set[MultiIndex] = set()
    for index in range(2**n):
        bits = MultiIndex.from_linear(index, n)
        ok = True
        for j in range(n):
            for k in range(n):
                aj, bj = pairs[j]
                ak, bk = pairs[k]
                delta = aj - ak + (-1) ** bits.bits[j] * bj - (-1) ** bits.bits[k] * bk
                if abs(np.exp(1j * delta) - 1.0) > max(tol, 1e-9):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            allowed.add(bits)
    if len(allowed) > 2:
        raise ValueError(f"phase condition admits {len(allowed)} indices; not antipodal")
    if len(allowed) == 2:
        first, second = sorted(allowed, key=lambda m: m.to_linear())
        if second != first.complement():
            raise ValueError("phase condition admits a non-antipodal pair")
    return allowed
