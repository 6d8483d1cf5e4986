"""Least-squares fitting of a one-qubit unitary against a state's own marginals.

The sibling search (``oracle.search_sibling``) minimizes

    f(U) = sum_{k >= 2} || rho_(k)((U on qubit 1) psi) - rho_(k)(psi) ||_F^2

over the unitary group U(2): a U with f(U) = 0 that moves psi gives a
distinct state with psi's panel.  Each start is a point of the chart
U(theta) = exp(i theta_0) exp(i (theta_1 X + theta_2 Y + theta_3 Z)), from a
fixed grid plus seeded random points when a caller supplies them, so results
are reproducible.  From there a Levenberg-Marquardt descent moves U on the
group itself, U <- exp(i sum_a delta_a sigma_a) U with sigma_a = X, Y, Z on
qubit 1; the identity direction only turns the global phase and leaves
every marginal fixed, so it is left out.  There is no chart along the way,
so the step cannot run off along a periodic parameter, and every iterate is
unitary up to rounding.  The Jacobian is analytic: with a the axis-first
view of U psi for qubit k and b_a that of the tangent i sigma_a U psi,
d rho_(k) = b_a^T conj(a) plus its adjoint (``PanelObjective.residuals``,
the dense reference).

Every residual is a fixed 4-column matrix, the 2 x 2 blocks of psi's own
marginals over qubit 1, times a coefficient vector that depends on U alone
(see ``PanelObjective``).  So one QR factor R of those columns, at most
4 x 4 and built once per objective, gives the cost, the gradient and the
Gauss-Newton matrix exactly, in O(1) work per start at every n, from the
compressed residual itself and never from its square.  Only the final cost
of each start is read off the dense marginals (``PanelObjective.costs``),
so callers see the panel mismatch itself.

The starts of one call descend together as a stack of unitaries.  Each
pass of the loop builds the 3 x 3 normal equations of every start still
moving (``PanelObjective.normal_equations``), without forming the
Jacobian, and solves them in one batched call.  Each start keeps its own
damping, accept/reject decision and stopping test, so it follows the path
it would follow alone, up to rounding.  The search knows nothing of Bloch
matrices and takes no rank decision from R, which keeps it independent of
the classifier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensors import PAULIS, _axis_first, _axis_restore, _blocks, _traced_outer

# Levenberg-Marquardt settings: initial damping, its change after an
# accepted or a rejected step, and the iteration cap (accepted or not).
DAMPING_START = 1e-3
DAMPING_DOWN = 3.0
DAMPING_UP = 4.0
MAX_STEPS = 100
# Stop when the gradient or the step (radians) reaches rounding level.  The
# floor keeps a direction whose Jacobian column vanishes damped under
# Marquardt's diagonal scaling.
GRAD_TOL = 1e-15
STEP_TOL = 1e-12
SCALE_FLOOR = 1e-12

# I, i X, i Y, i Z: the identity and the three step directions
_GENERATORS = np.array([np.eye(2), *(1j * p for p in PAULIS)])
# X, Y, Z as the rows of a (3, 4) matrix, for t . sigma over a stack of t
_PAULI_ROWS = np.array(PAULIS).reshape(3, 4)


@dataclass(frozen=True)
class FitResult:
    unitary: np.ndarray
    cost: float  # sum of squared residual entries


def unitary_from_params(theta) -> np.ndarray:
    """U = exp(i t0) * exp(i (t1 X + t2 Y + t3 Z)), for one parameter
    vector (4,) or a stack (..., 4)."""
    theta = np.asarray(theta, dtype=float)
    return np.exp(1j * theta[..., :1, None]) * _rotations(theta[..., 1:])


def _rotations(t: np.ndarray) -> np.ndarray:
    """exp(i (t1 X + t2 Y + t3 Z)) for a stack (..., 3) of rotation vectors."""
    r = np.linalg.norm(t, axis=-1)[..., None, None]
    generator = (t @ _PAULI_ROWS).reshape(t.shape[:-1] + (2, 2))
    # sin(r)/r as sinc, so that t = 0 gives the identity
    return np.cos(r) * np.eye(2) + 1j * np.sinc(r / np.pi) * generator


def grid_starts() -> list[np.ndarray]:
    """16 deterministic starting points covering the rotation ball."""
    starts = [np.zeros(4)]
    for axis in range(3):
        for sign in (1.0, -1.0):
            p = np.zeros(4)
            p[1 + axis] = sign * np.pi / 2
            starts.append(p)
    for sx in (1.0, -1.0):
        for sy in (1.0, -1.0):
            for sz in (1.0, -1.0):
                starts.append(np.array([0.0, sx, sy, sz]) * np.pi / 4)
    starts.append(np.array([0.0, 1.0, 1.0, 1.0]) * np.pi / 2)
    return starts


def random_starts(rng: np.random.Generator, count: int) -> list[np.ndarray]:
    return [rng.uniform(-np.pi, np.pi, size=4) for _ in range(count)]


class PanelObjective:
    """Residuals of the marginals of (U on qubit 1) psi against psi's own.

    Split on qubit 1, the marginal rho_(k) of U psi has the 2 x 2 blocks
    sum_cd U_ac conj(U_bd) S_cd, where S_cd are those of psi's own marginal
    S_k, the target.  So the residual block ab is sum_cd (W - I)_{ab,cd}
    S_cd with W = kron(U, conj(U)): B_k c_ab, where B_k has the vectorized
    S_cd as its 4 columns and c_ab = (U_a0 conj(U_b0), U_a0 conj(U_b1),
    U_a1 conj(U_b0), U_a1 conj(U_b1)) - e_ab is the same for every k.
    Stacking the B_k into B = QR gives ||B c|| = ||R c|| for every c, so
    the cost is sum_ab ||R c_ab||^2 with R at most 4 x 4, whatever n: the
    compressed residual R c_ab is formed directly, never its square.  R is
    built once here from one QR per marginal and one more over their
    stacked R's, so no more than one B_k is held at a time.
    """

    def __init__(self, amplitudes: np.ndarray, n: int):
        self.n = n
        amplitudes = np.asarray(amplitudes, dtype=complex)
        self.factor = _axis_first(amplitudes, n, 1)  # psi, qubit 1 as the row index
        # S_k for k = 2..n: the targets, and the columns of B_k
        self.own = {k: _traced_outer(amplitudes, amplitudes, n, k) for k in range(2, n + 1)}
        # one R per marginal, merged by one more QR: B itself is never stacked
        factors = []
        for own in self.own.values():
            columns = _blocks(own, n - 1, 1).reshape(4, -1).T  # the vectorized S_cd
            factors.append(np.linalg.qr(columns, mode="r"))
        # transposed, so that rows (a, b) of kron(U, conj(U)) multiply it
        self._r = np.linalg.qr(np.concatenate(factors), mode="r").T

    def marginals(self, unitary: np.ndarray) -> dict[int, np.ndarray]:
        moved = _axis_restore(unitary @ self.factor, self.n, 1)
        return {k: _traced_outer(moved, moved, self.n, k) for k in self.own}

    def residuals(self, unitary: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Residual vector at U and its Jacobian in the X, Y, Z step directions.

        The residuals are the real and imaginary parts of rho_(k) - S_k
        over k = 2..n; the Jacobian has one column per direction sigma_a,
        the derivative along exp(i t sigma_a) U at t = 0.  This is the dense
        reference that ``normal_equations`` and ``costs`` reproduce.
        """
        # U psi and the tangents i sigma_a U psi, as amplitude vectors
        stack = _axis_restore(_GENERATORS @ (unitary @ self.factor), self.n, 1)
        values, slopes = [], []
        for k, own in self.own.items():
            # products[0] is rho_(k) = a^T conj(a); products[1:] are b_a^T conj(a)
            products = _traced_outer(stack, stack[0], self.n, k)
            d_rho = products[1:] + np.swapaxes(products[1:], -1, -2).conj()
            values.append((products[0] - own).view(np.float64).reshape(-1))
            slopes.append(d_rho.view(np.float64).reshape(3, -1))
        return np.concatenate(values), np.concatenate(slopes, axis=1).T

    def costs(self, unitaries: np.ndarray) -> np.ndarray:
        """Dense cost r.r for a stack (m, 2, 2) of U, from the marginals
        themselves: the panel mismatch that callers read off a result."""
        m = len(unitaries)
        moved = _axis_restore(unitaries @ self.factor, self.n, 1)
        diff = [_traced_outer(moved, moved, self.n, k) - own for k, own in self.own.items()]
        parts = np.concatenate([d.view(np.float64).reshape(m, -1) for d in diff], axis=1)
        return np.einsum("mi,mi->m", parts, parts)

    def normal_equations(self, unitaries: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cost r.r, gradient J^T r and matrix J^T J for a stack (m, 2, 2) of U.

        r and J are those of ``residuals``, neither formed.  The dense
        residual is B c, with c the c_ab of all four blocks (see the class),
        and B = Q R with Q an isometry that does not depend on U.  So r = Q
        (R c) and J = Q (R dc) for the compressed residual R c and its
        derivatives, and the cost, J^T r and J^T J are exactly the Gram
        entries of these four vectors, at most 4 x 4 complex each.  Row ab
        of W = kron(U, conj(U)) holds the U-part of c_ab, so the compressed
        residual is, transposed, (W - I) R^T.  Along exp(i t sigma_a) U it
        moves by dW_a R^T, with dW_a = kron(V_a, conj(U)) + kron(U,
        conj(V_a)) and V_a = i sigma_a U.  Returns arrays of shape (m,),
        (m, 3) and (m, 3, 3).
        """
        m = len(unitaries)
        moved = _GENERATORS @ unitaries[:, None]  # U, then V_a = i sigma_a U
        # entry (g, a, b, c, d): (G_g U)_ac conj(U_bd), plus U_ac conj(V_bd) for g > 0
        coeffs = moved[:, :, :, None, :, None] * unitaries.conj()[:, None, None, :, None, :]
        coeffs[:, 1:] += unitaries[:, None, :, None, :, None] * moved[:, 1:, None, :, None, :].conj()
        vectors = coeffs.reshape(m, 4, 4, 4) @ self._r
        vectors[:, 0] -= self._r
        parts = vectors.view(np.float64).reshape(m, 4, -1)
        gram = parts @ np.swapaxes(parts, 1, 2)
        return gram[:, 0, 0], gram[:, 1:, 0], gram[:, 1:, 1:]


def fit_pivot_unitary(objective: PanelObjective, starts: list[np.ndarray]) -> list[FitResult]:
    """Levenberg-Marquardt from every start at once, with Marquardt's
    diagonal scaling; results come back in start order.

    A start drops out of the stack when its gradient reaches rounding
    level, after trying a step that does, or after MAX_STEPS iterations.
    The descent runs on the compressed normal equations; each result's
    cost is then evaluated once on the dense marginals (``costs``).
    """
    if not len(starts):
        return []
    unitaries = unitary_from_params(np.asarray(starts, dtype=float))
    cost, grad, normal = objective.normal_equations(unitaries)
    damping = np.full(len(unitaries), DAMPING_START)
    live = np.arange(len(unitaries))
    for _ in range(MAX_STEPS):
        # the gradient test comes before the solve: a start whose Jacobian
        # vanishes would make its system singular
        live = live[np.max(np.abs(grad[live]), axis=1) > GRAD_TOL]
        if not live.size:
            break
        scale = np.diagonal(normal[live], axis1=1, axis2=2)
        scale = np.maximum(scale, SCALE_FLOOR * scale.max(axis=1, keepdims=True))
        system = normal[live] + (damping[live, None] * scale)[:, :, None] * np.eye(3)
        step = np.linalg.solve(system, -grad[live, :, None])[:, :, 0]
        trial = _rotations(step) @ unitaries[live]
        trial_cost, trial_grad, trial_normal = objective.normal_equations(trial)
        better = trial_cost < cost[live]
        taken = live[better]
        unitaries[taken], cost[taken] = trial[better], trial_cost[better]
        grad[taken], normal[taken] = trial_grad[better], trial_normal[better]
        damping[live] = np.where(better, damping[live] / DAMPING_DOWN, damping[live] * DAMPING_UP)
        # a step at rounding level is still tried, then ends its start: near
        # a zero residual it is the Gauss-Newton step that squares the cost
        live = live[np.linalg.norm(step, axis=1) > STEP_TOL]
    return [FitResult(u, float(c)) for u, c in zip(unitaries, objective.costs(unitaries))]
