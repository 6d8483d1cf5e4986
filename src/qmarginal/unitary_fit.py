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
d rho_(k) = b_a^T conj(a) plus its adjoint.  The search knows nothing of
Bloch matrices; the all-degenerate branch of ``reconstruct`` solves the
same problem in closed form and does not use this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensors import PAULI_X, PAULI_Y, PAULI_Z, PAULIS, _axis_first, _axis_restore

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


@dataclass(frozen=True)
class FitResult:
    unitary: np.ndarray
    cost: float  # sum of squared residual entries


def unitary_from_params(theta) -> np.ndarray:
    """U = exp(i t0) * exp(i (t1 X + t2 Y + t3 Z))."""
    t0, t1, t2, t3 = (float(t) for t in theta)
    r = np.sqrt(t1 * t1 + t2 * t2 + t3 * t3)
    if r < 1e-300:
        su = np.eye(2, dtype=complex)
    else:
        axis = (t1 * PAULI_X + t2 * PAULI_Y + t3 * PAULI_Z) / r
        su = np.cos(r) * np.eye(2) + 1j * np.sin(r) * axis
    return np.exp(1j * t0) * su


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


def _descend(objective: PanelObjective, unitary: np.ndarray) -> FitResult:
    """Levenberg-Marquardt from ``unitary`` with Marquardt's diagonal scaling."""
    res, jac = objective.residuals(unitary)
    cost = float(res @ res)
    damping = DAMPING_START
    for _ in range(MAX_STEPS):
        grad = jac.T @ res
        if np.max(np.abs(grad)) <= GRAD_TOL:
            break
        normal = jac.T @ jac
        scale = np.diag(normal)
        scale = np.maximum(scale, SCALE_FLOOR * scale.max())
        step = np.linalg.solve(normal + damping * np.diag(scale), -grad)
        if np.linalg.norm(step) <= STEP_TOL:
            break
        trial = unitary_from_params((0.0, *step)) @ unitary
        trial_res, trial_jac = objective.residuals(trial)
        trial_cost = float(trial_res @ trial_res)
        if trial_cost < cost:
            unitary, res, jac, cost = trial, trial_res, trial_jac, trial_cost
            damping /= DAMPING_DOWN
        else:
            damping *= DAMPING_UP
    return FitResult(unitary, cost)


def fit_pivot_unitary(objective: PanelObjective, starts: list[np.ndarray]) -> list[FitResult]:
    """Run one descent per start; results come back in start order."""
    return [_descend(objective, unitary_from_params(start)) for start in starts]
