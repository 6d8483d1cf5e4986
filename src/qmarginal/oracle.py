"""Independent brute-force checks at desk scale.

The key fact being exercised: if two pure states share their whole panel
of one-qubit-removed marginals, they differ by a unitary on any single
qubit.  So a sibling of psi, if one exists, can be found by minimizing the
panel mismatch of (L on qubit 1) psi over the 4-parameter unitary group,
rejecting the trivial scalar solutions.  That search knows nothing about
the classifier and serves as its ground truth in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensors import Ket, SingleQubitUnitary, _act, ket, reduced_one_qubit
from .tolerances import ETA_UNIT_TOL, SEARCH_BUDGET, SEARCH_TOL
from .unitary_fit import PanelObjective, fit_pivot_unitary, grid_starts, random_starts


@dataclass(frozen=True)
class SearchReport:
    """Outcome of a sibling search.

    ``best_residual`` is the smallest panel mismatch reached by a descent
    that did not end on the scalar locus (a state phase-equal to psi), and
    ``inf`` when every descent ended there (see ``search_sibling``).
    """

    found: bool
    witness: tuple[SingleQubitUnitary, Ket] | None
    best_residual: float
    trials: int


def search_sibling(
    psi: Ket,
    tol: float = SEARCH_TOL,
    budget: int = SEARCH_BUDGET,
    seed: int = 0,
) -> SearchReport:
    """Look for a distinct pure state with the same marginal panel.

    Runs up to ``budget`` descents of the summed squared panel mismatch of
    (L on qubit 1) psi, starting from a fixed grid followed by seeded
    random points, and stops at the first witness.  A minimizer counts as
    a witness when its cost drops below tol**2 and the transported state is
    not phase-equal to psi (overlap below 1 - tol).  Near-scalar minimizers
    are rejected and do not count towards ``best_residual``, so it is
    ``inf`` when every descent ends on the scalar locus, as on every
    determined state measured (Haar and product states, n = 3..5).

    The descents run in blocks of 16 starts (the size of the grid), in
    start order, each block as one stacked descent.  So up to 15 descents
    past the witness are computed and discarded; ``trials`` counts the
    starts up to and including the witness, or all of them.  Raises
    ``ValueError`` for a negative budget or a tol that is not positive.

    The search stays blind to the classifier on purpose: it imports
    nothing from ``classifier``, reads no Bloch matrix and takes no rank
    or singular-value decision, not even from the QR factor its descent
    runs on.  Its only verdicts are a dense panel mismatch below tol**2
    and an overlap test, so when it agrees with ``classify`` the two
    answers come from independent arguments.
    """
    if psi.n < 2:
        raise ValueError("sibling search needs at least 2 qubits")
    if budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    objective = PanelObjective(psi.amplitudes, psi.n)
    starts = grid_starts()
    block = len(starts)  # starts per stacked descent: one grid's worth
    if budget < len(starts):
        starts = starts[:budget]
    else:
        starts += random_starts(np.random.default_rng(seed), budget - len(starts))

    # <psi|(U on qubit 1) psi> = tr(U G) for the qubit-1 Gram G = A A^dagger
    gram = reduced_one_qubit(psi, 1)
    best = math.inf
    for first in range(0, len(starts), block):
        results = fit_pivot_unitary(objective, starts[first : first + block])
        unitaries = np.array([result.unitary for result in results])
        scalar = np.abs(np.einsum("mac,ca->m", unitaries, gram)) >= 1.0 - tol
        for trials, (result, on_locus) in enumerate(zip(results, scalar), first + 1):
            if on_locus:
                continue  # scalar locus: same state up to phase
            residual = math.sqrt(result.cost)
            best = min(best, residual)
            if result.cost < tol**2:
                moved = _act(psi.amplitudes, psi.n, [(1, result.unitary)])
                witness = (SingleQubitUnitary(result.unitary, 1), Ket(psi.n, moved))
                return SearchReport(True, witness, residual, trials)
    return SearchReport(False, None, best, len(starts))


def haar_random_ket(n: int, seed: int) -> Ket:
    """Normalized vector of i.i.d. standard complex Gaussian amplitudes."""
    if n < 1:
        raise ValueError("need at least 1 qubit")
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return ket(amps, n)


def random_unitary_2x2(rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed 2x2 unitary (QR of a complex Ginibre matrix)."""
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_lu_orbit(psi: Ket, seed: int) -> Ket:
    """Apply an independent Haar-random unitary to every qubit."""
    rng = np.random.default_rng(seed)
    ops = [(j, random_unitary_2x2(rng)) for j in range(1, psi.n + 1)]
    return Ket(psi.n, _act(psi.amplitudes, psi.n, ops))


def ghz_state(n: int, alpha: complex | None = None, beta: complex | None = None) -> Ket:
    """alpha|00...0> + beta|11...1>, balanced by default."""
    if alpha is None:
        alpha = 1.0 / math.sqrt(2.0)
    if beta is None:
        beta = 1.0 / math.sqrt(2.0)
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = alpha
    amps[-1] = beta
    return ket(amps, n)


def eta_state(n: int, eta: complex) -> Ket:
    """(|00...0> + eta |11...1>)/sqrt(2) for |eta| = 1."""
    if abs(abs(eta) - 1.0) > ETA_UNIT_TOL:
        raise ValueError("eta must have unit magnitude")
    return ghz_state(n, 1.0 / math.sqrt(2.0), eta / math.sqrt(2.0))


def random_product_ket(n: int, seed: int) -> Ket:
    """Tensor product of independent Haar-random one-qubit states."""
    rng = np.random.default_rng(seed)
    amps = np.ones(1, dtype=complex)
    for _ in range(n):
        q = random_unitary_2x2(rng)[:, 0]
        amps = np.kron(amps, q)
    return Ket(n, amps)


def chi_state() -> Ket:
    """(1/sqrt(3)) (|0000> + |0001> + |1111>)."""
    amps = np.zeros(16, dtype=complex)
    amps[0b0000] = 1.0
    amps[0b0001] = 1.0
    amps[0b1111] = 1.0
    return ket(amps, 4)
