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
unitary up to rounding.

Every residual is a fixed 4-column matrix, the 2 x 2 blocks of psi's own
marginals over qubit 1, times a coefficient vector that depends on U alone
(see ``PanelObjective``).  So one QR factor R of those columns, at most
4 x 4 and built once per objective, gives the cost, the gradient and the
Gauss-Newton matrix exactly, in O(1) work per start at every n.  Read as
2 x 2 matrices X_j, the columns of R^T move to Y_j = U X_j U^dagger, so
the compressed residual is Y - R^T and its tangent along i sigma_a U is
i [sigma_a, Y]: both are formed directly, never the residual's square,
and no dense Jacobian is formed anywhere.  The cost a result reports is
the dense one, read off the marginals themselves
(``PanelObjective.residuals``, the residual alone), so callers see the
panel mismatch itself.  It is computed when a caller first reads it: the
sibling search reads it only for the starts it may report, and a start that
ends on the scalar locus never builds its dense marginals.

The starts of one call descend together as a stack of unitaries.  Each
pass of the loop builds the 3 x 3 normal equations of every start still
moving (``PanelObjective.normal_equations``) from two flat matrix products
over the whole stack, without forming the Jacobian, solves them in one
batched call, and turns each U by its step entry by entry.  The stack holds
only the starts still moving, in start order; a start that stops leaves it
once, and its unitary is written back to the result in its place.  Each start
keeps its own damping, accept/reject decision and stopping test, and no
product mixes two starts, so it follows the path it would follow alone,
up to rounding.  The search knows nothing of Bloch matrices and takes no
rank decision from R, which keeps it independent of the classifier.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .tensors import PAULIS, _axis_restore, _blocks, _qubit_factors, _traced_outer

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

# vec Y -> vec Y, then vec Y -> vec i [sigma_a, Y] for a = X, Y, Z, stacked
# as (16, 4) with vec row-major: the map from Y to the compressed residual
# (before R^T is subtracted) and its three tangents (``normal_equations``)
_TANGENT_MAPS = np.concatenate(
    [np.eye(4)] + [1j * (np.kron(p, np.eye(2)) - np.kron(np.eye(2), p.T)) for p in PAULIS]
)


@dataclass(frozen=True)
class FitResult:
    """Where one start's descent ended, and the objective it descended.

    ``cost`` is the dense cost there, r.r for the panel residual r of
    ``PanelObjective.residuals``, computed on first read and then kept.
    """

    unitary: np.ndarray
    objective: PanelObjective

    @cached_property
    def cost(self) -> float:
        return float(np.sum(np.square(self.objective.residuals(self.unitary))))


def unitary_from_params(theta: np.ndarray) -> np.ndarray:
    """U = exp(i t0) * exp(i (t1 X + t2 Y + t3 Z)) for each row of a stack
    (m, 4) of parameter vectors: the identity, broadcast, turned by ``_turn``."""
    return np.exp(1j * theta[:, :1, None]) * _turn(theta[:, 1:], np.eye(2)[None])


def _su2_entries(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p and q with exp(i t . sigma) = [[p, q], [-conj(q), conj(p)]], for a
    stack (..., 3) of t: cos|t| I + i sin|t| t.sigma / |t|."""
    r = np.linalg.norm(t, axis=-1)
    # sin(r)/r as sinc, so that t = 0 gives the identity
    st = np.sinc(r / np.pi)[..., None] * t
    return np.cos(r) + 1j * st[..., 2], st[..., 1] + 1j * st[..., 0]


def _turn(t: np.ndarray, unitaries: np.ndarray) -> np.ndarray:
    """exp(i t . sigma) U for stacks (m, 3) of t and (m, 2, 2) of U, row
    by row from the entries p, q: no batched 2 x 2 product."""
    p, q = (x[:, None] for x in _su2_entries(t))
    top, bottom = unitaries[:, 0], unitaries[:, 1]
    return np.stack([p * top + q * bottom, p.conj() * bottom - q.conj() * top], axis=1)


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
    """count seeded points of the chart, uniform in [-pi, pi)^4: one draw,
    the same stream as count draws of 4."""
    return list(rng.uniform(-np.pi, np.pi, size=(count, 4)))


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
    compressed residual R c_ab is formed directly, never its square.  The
    targets S_k are one (n-1, d, d) stack, ``_traced_outer`` of psi's
    ``_qubit_factors``; R is built once here from one QR per target and one
    more over their stacked R's, so no more than one B_k is held at a time.
    """

    def __init__(self, amplitudes: np.ndarray):
        factors = _qubit_factors(np.asarray(amplitudes, dtype=complex))
        self.factor = factors[0]  # psi, qubit 1 as the row index
        self.targets = _traced_outer(factors[1:], factors[1:])
        # one R per B_k (columns: the vectorized S_cd), merged by one more QR
        rs = [np.linalg.qr(_blocks(t, 1).reshape(4, -1).T, mode="r") for t in self.targets]
        # transposed, so that rows (a, b) of kron(U, conj(U)) multiply it
        self._r = np.linalg.qr(np.concatenate(rs), mode="r").T

    def residuals(self, unitary: np.ndarray) -> np.ndarray:
        """Residual vector at U: the real and imaginary parts of rho_(k) -
        S_k over k = 2..n, for the stacked marginals rho_(k) of U psi.  The
        dense path that ``FitResult.cost`` reads and ``normal_equations``
        reproduces compressed.
        """
        moved = _qubit_factors(_axis_restore(unitary @ self.factor, 1))[1:]
        return (_traced_outer(moved, moved) - self.targets).view(np.float64).reshape(-1)

    def normal_equations(self, unitaries: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cost r.r, gradient J^T r and matrix J^T J for a stack (m, 2, 2) of U.

        r is that of ``residuals`` and J its Jacobian in the X, Y, Z step
        directions, the derivative along exp(i t sigma_a) U at t = 0; neither
        is formed.  The dense
        residual is B c, with c the c_ab of all four blocks (see the class),
        and B = Q R with Q an isometry that does not depend on U.  So r = Q
        (R c) and J = Q (R dc) for the compressed residual R c and its
        derivatives, and the cost, J^T r and J^T J are exactly the Gram
        entries of these four vectors, at most 4 x 4 complex each.

        Read column j of R^T as a 2 x 2 matrix X_j (row-major, as c_ab
        orders its entries).  Then kron(U, conj(U)) vec X_j = vec Y_j with
        Y_j = U X_j U^dagger, so the compressed residual is Y - R^T.  Along
        exp(i t sigma_a) U it moves by i [sigma_a, Y], a fixed linear map
        of Y.  So one product of the rows of kron(U, conj(U)) for every
        start, (4m, 4), with R^T gives Y, and one product of the fixed
        (16, 4) stack of the identity and the three commutator maps with Y,
        laid out as (4, m k), gives the residual and its tangents; R has k
        <= 4 rows (k = 1 at n = 2).  Returns arrays of shape (m,), (m, 3)
        and (m, 3, 3).
        """
        m = len(unitaries)
        k = self._r.shape[1]
        # rows (a, b, start) of kron(U, conj(U)), columns (c, d)
        u = unitaries.transpose(1, 0, 2)
        kron = u[:, None, :, :, None] * u.conj()[None, :, :, None, :]
        y = kron.reshape(4 * m, 4) @ self._r  # vec Y_j, as (a, b), start, j
        vectors = (_TANGENT_MAPS @ y.reshape(4, m * k)).reshape(4, 4, m, k)
        vectors[0] -= self._r[:, None, :]
        parts = vectors.transpose(2, 0, 1, 3).view(np.float64).reshape(m, 4, -1)
        gram = parts @ np.swapaxes(parts, 1, 2)
        return gram[:, 0, 0], gram[:, 1:, 0], gram[:, 1:, 1:]


def fit_pivot_unitary(objective: PanelObjective, starts: list[np.ndarray]) -> list[FitResult]:
    """Levenberg-Marquardt from every start at once, with Marquardt's
    diagonal scaling; results come back in start order.

    A start drops out of the stack when its gradient reaches rounding
    level, after trying a step that does, or after MAX_STEPS iterations.
    The descent runs on the compressed normal equations; each result's
    cost is the dense one, evaluated on the marginals (``residuals``) when
    it is first read.
    """
    if not len(starts):
        return []
    ends = unitary_from_params(np.asarray(starts, dtype=float))
    # the starts still moving, in start order: where each sits in ``ends``,
    # its unitary, cost, normal equations and damping
    index = np.arange(len(ends))
    unitaries = ends.copy()
    cost, grad, normal = objective.normal_equations(unitaries)
    damping = np.full(len(ends), DAMPING_START)
    # the gradient test comes before the solve: a start whose Jacobian
    # vanishes would make its system singular
    moving = np.max(np.abs(grad), axis=1) > GRAD_TOL
    for _ in range(MAX_STEPS):
        if not moving.all():
            ends[index[~moving]] = unitaries[~moving]
            index, unitaries, cost, grad, normal, damping = (
                x[moving] for x in (index, unitaries, cost, grad, normal, damping)
            )
            if not index.size:
                break
        scale = np.diagonal(normal, axis1=1, axis2=2)
        scale = np.maximum(scale, SCALE_FLOOR * scale.max(axis=1, keepdims=True))
        system = normal + (damping[:, None] * scale)[:, :, None] * np.eye(3)
        step = np.linalg.solve(system, -grad[:, :, None])[:, :, 0]
        trial = _turn(step, unitaries)
        trial_cost, trial_grad, trial_normal = objective.normal_equations(trial)
        better = trial_cost < cost
        unitaries[better], cost[better] = trial[better], trial_cost[better]
        grad[better], normal[better] = trial_grad[better], trial_normal[better]
        damping = np.where(better, damping / DAMPING_DOWN, damping * DAMPING_UP)
        # a step at rounding level is still tried, then ends its start: near
        # a zero residual it is the Gauss-Newton step that squares the cost
        moving = (np.linalg.norm(step, axis=1) > STEP_TOL) & (np.max(np.abs(grad), axis=1) > GRAD_TOL)
    ends[index] = unitaries
    return [FitResult(u, objective) for u in ends]
