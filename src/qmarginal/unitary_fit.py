"""Least-squares fitting of a one-qubit unitary against target marginals.

The sibling search (``oracle.search_sibling``) minimizes

    f(U) = sum_k || rho_(k)((U on pivot) psi) - target_k ||_F^2

over the unitary group U(2).  The chart is a global phase times the
exponential of a real 3-vector against the Pauli basis,
U(theta) = exp(i theta_0) exp(i (theta_1 X + theta_2 Y + theta_3 Z)),
and the minimization runs scipy's trust-region least squares from a fixed
grid of starts (plus seeded random starts when a caller supplies them), so
results are reproducible.  The box bound on the parameters matters: the
chart is periodic and the zero set of a panel-matching objective is flat
along the witness family, so an unbounded Gauss-Newton step can run the
parameters off to huge values where every accumulation point is a scalar.
scipy is imported on the first descent, so importing the package does not
load it.  The all-degenerate branch of ``reconstruct`` solves the same
problem in closed form and does not use this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensors import PAULI_X, PAULI_Y, PAULI_Z, _axis_first, _axis_restore


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

    def residuals(self, theta: np.ndarray) -> np.ndarray:
        parts = []
        for k, rho in self.marginals(unitary_from_params(theta)).items():
            delta = rho - self.targets[k]
            parts.append(delta.real.reshape(-1))
            parts.append(delta.imag.reshape(-1))
        return np.concatenate(parts)


def fit_pivot_unitary(objective: PanelObjective, starts: list[np.ndarray]) -> list[FitResult]:
    """Run one descent per start; results come back in start order."""
    from scipy.optimize import least_squares

    results = []
    for start in starts:
        sol = least_squares(
            objective.residuals,
            start,
            method="trf",
            bounds=(-2.0 * np.pi, 2.0 * np.pi),
            gtol=1e-12,
            xtol=1e-14,
            ftol=1e-14,
            max_nfev=250,
        )
        results.append(FitResult(unitary_from_params(sol.x), float(np.sum(sol.fun**2))))
    return results
