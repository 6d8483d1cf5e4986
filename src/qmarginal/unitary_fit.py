"""Least-squares fitting of a one-qubit unitary against target marginals.

The sibling search (``oracle.search_sibling``) minimizes

    f(U) = sum_k || rho_(k)((U on pivot) psi) - target_k ||_F^2

over the unitary group U(2).  Each start is a point of the chart
U(theta) = exp(i theta_0) exp(i (theta_1 X + theta_2 Y + theta_3 Z)), from a
fixed grid plus seeded random points when a caller supplies them, so results
are reproducible.  From there a Levenberg-Marquardt descent moves U on the
group itself, U <- exp(i sum_a delta_a sigma_a) U with sigma_a = X, Y, Z on
the pivot; the identity direction only turns the global phase and leaves
every marginal fixed, so it is left out.  There is no chart along the way,
so the step cannot run off along a periodic parameter, and every iterate is
unitary up to rounding.  The Jacobian is analytic: with a the axis-first
view of U psi for qubit k and b_a that of the tangent i sigma_a U psi,
d rho_(k) = b_a^T conj(a) plus its adjoint.

The starts of one call descend together as a stack of unitaries.  Each
pass of the loop builds the 3 x 3 normal equations of every start still
moving from 2 x 2 Gram blocks (``PanelObjective.normal_equations``),
without forming the Jacobian, and solves them in one batched call.  Each
start keeps its own damping, accept/reject decision and stopping test, so
it follows the path it would follow alone, up to rounding.  The search
knows nothing of Bloch matrices, which keeps it independent of the
classifier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensors import PAULIS, _axis_first, _axis_restore

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
    """Residuals of the marginals of (U on pivot) psi against fixed targets."""

    def __init__(self, amplitudes: np.ndarray, n: int, pivot: int, targets: dict[int, np.ndarray]):
        self.n = n
        self.pivot = pivot
        self.psi_pivot = _axis_first(np.asarray(amplitudes, dtype=complex), n, pivot)
        self.targets = {k: np.asarray(t, dtype=complex) for k, t in targets.items()}
        # where each target's axis-first entries sit in a pivot-first vector
        positions = _axis_restore(np.arange(2**n).reshape(2, -1), n, pivot)
        self._gather = np.array([_axis_first(positions, n, k) for k in self.targets])
        self._target_stack = np.array(list(self.targets.values()))

    def marginals(self, unitary: np.ndarray) -> dict[int, np.ndarray]:
        moved = _axis_restore(unitary @ self.psi_pivot, self.n, self.pivot)
        out = {}
        for k in self.targets:
            a = _axis_first(moved, self.n, k)
            out[k] = a.T @ a.conj()
        return out

    def residuals(self, unitary: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Residual vector at U and its Jacobian in the X, Y, Z step directions.

        The residuals are the real and imaginary parts of rho_(k) - target_k
        over the targets; the Jacobian has one column per direction sigma_a,
        the derivative along exp(i t sigma_a) U at t = 0.
        """
        # U psi and the tangents i sigma_a U psi, as amplitude vectors
        stack = _axis_restore(_GENERATORS @ (unitary @ self.psi_pivot), self.n, self.pivot)
        values, slopes = [], []
        for k, target in self.targets.items():
            flat = _axis_first(stack, self.n, k)
            # products[0] is rho_(k) = a^T conj(a); products[1:] are b_a^T conj(a)
            products = np.swapaxes(flat, -1, -2) @ flat[0].conj()
            d_rho = products[1:] + np.swapaxes(products[1:], -1, -2).conj()
            values.append((products[0] - target).view(np.float64).reshape(-1))
            slopes.append(d_rho.view(np.float64).reshape(3, -1))
        return np.concatenate(values), np.concatenate(slopes, axis=1).T

    def normal_equations(self, unitaries: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cost r.r, gradient J^T r and matrix J^T J for a stack (m, 2, 2) of U.

        r and J are those of ``residuals``, but J is never formed.  With X_g
        the axis-first view for qubit k of G_g U psi (G_0 = I, G_a = i
        sigma_a) and the 2 x 2 Gram blocks G_gh = conj(X_g) X_h^T, summed
        over the targets T_k:

            diff = X_0^T conj(X_0) - T_k,  cost = ||diff||_F^2,
            (J^T r)_a = 2 Re tr(conj(X_a) diff X_0^T),
            (J^T J)_ab = 2 Re [tr(G_ab G_00) + tr(G_a0 G_b0)].

        Both identities need Hermitian targets, as panel entries are.  diff
        is built explicitly, so the cost does not cancel near zero.
        Returns arrays of shape (m,), (m, 3) and (m, 3, 3).
        """
        m = len(unitaries)
        stack = (_GENERATORS @ (unitaries @ self.psi_pivot)[:, None]).reshape(m, 4, -1)
        views = stack[:, :, self._gather]  # (m, 4, targets, 2, 2**(n-1))
        first = views[:, 0]
        diff = np.swapaxes(first, -1, -2) @ first.conj() - self._target_stack
        parts = diff.view(np.float64).reshape(m, -1)
        cost = np.einsum("mi,mi->m", parts, parts)
        pulled = diff @ np.swapaxes(first, -1, -2)  # diff X_0^T
        grad = 2 * np.einsum("makic,mkci->ma", views[:, 1:].conj(), pulled).real
        blocks = np.swapaxes(views, 1, 2).reshape(m, len(self._gather), 8, -1)
        gram = (blocks.conj() @ np.swapaxes(blocks, -1, -2)).reshape(m, -1, 4, 2, 4, 2)
        gram = gram.transpose(0, 1, 2, 4, 3, 5)  # (m, targets, g, h, 2, 2)
        normal = np.einsum("mkabij,mkji->mab", gram[:, :, 1:, 1:], gram[:, :, 0, 0])
        normal += np.einsum("mkaij,mkbji->mab", gram[:, :, 1:, 0], gram[:, :, 1:, 0])
        return cost, grad, 2 * normal.real


def fit_pivot_unitary(objective: PanelObjective, starts: list[np.ndarray]) -> list[FitResult]:
    """Levenberg-Marquardt from every start at once, with Marquardt's
    diagonal scaling; results come back in start order.

    A start drops out of the stack when its gradient or its step reaches
    rounding level, or after MAX_STEPS iterations.
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
        moving = np.linalg.norm(step, axis=1) > STEP_TOL
        live, step = live[moving], step[moving]
        if not live.size:
            break
        trial = _rotations(step) @ unitaries[live]
        trial_cost, trial_grad, trial_normal = objective.normal_equations(trial)
        better = trial_cost < cost[live]
        taken = live[better]
        unitaries[taken], cost[taken] = trial[better], trial_cost[better]
        grad[taken], normal[taken] = trial_grad[better], trial_normal[better]
        damping[live] = np.where(better, damping[live] / DAMPING_DOWN, damping[live] * DAMPING_UP)
    return [FitResult(u, float(c)) for u, c in zip(unitaries, cost)]
