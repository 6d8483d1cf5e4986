"""Least-squares fitting of a one-qubit unitary against a state's own marginals.

The sibling search (``oracle.search_sibling``) minimizes

    f(U) = sum_{k >= 2} || rho_(k)((U on qubit 1) psi) - rho_(k)(psi) ||_F^2

over the unitary group U(2): a U with f(U) = 0 that moves psi gives a
distinct state with psi's panel.  f reads U only through kron(U, conj(U)),
which forgets its global phase, so the search runs over SU(2), the unit
quaternions a: U = a_0 I + i a . sigma, four reals.  Every start, every
iterate and every result is one; the unitary a result reports has det U = 1.
The starts come from a fixed grid plus seeded random points when a caller
supplies them, so results are reproducible.

From its start a Levenberg-Marquardt descent moves U on the group itself,
U <- exp(i sum_b delta_b sigma_b) U with sigma_b = X, Y, Z on qubit 1; the
identity direction only turns the global phase and leaves every marginal
fixed, so it is left out.  The turn is one quaternion product, a fixed
(16, 4) table applied to the outer product of the step's quaternion and
U's (``_product``).  There is no chart along the way, so the step cannot
run off along a periodic parameter, and every iterate is a unit quaternion
up to rounding.

Every residual is a fixed 4-column matrix, the 2 x 2 blocks of psi's own
marginals over qubit 1, times a coefficient vector that depends on U alone
(see ``PanelObjective``).  So one QR factor of those columns, at most 4 x 4
and built once per objective, gives the cost, the gradient and the
Gauss-Newton matrix exactly, in O(1) work per start at every n.  Read as
2 x 2 matrices X_j, the rows of that factor move to U X_j U^dagger: the
identity part of X_j stays, and the Pauli part x_j turns by the rotation
O(a) in SO(3), quadratic in a (``_ROTATION``).  So the compressed residual
is O x - x and its tangent along exp(i t sigma_b) U is -2 e_b x (O x), on
the real and imaginary parts of x alike: both are formed directly, never
the residual's square, and no dense Jacobian is formed anywhere.  The cost a result
reports is the dense one, read off the marginals themselves
(``PanelObjective.residuals``, the residual alone), so callers see the
panel mismatch itself.  It is computed when a caller first reads it: the
sibling search reads it only for the starts it may report, and a start that
ends on the scalar locus never builds its dense marginals.

The starts of one call descend together as a stack of quaternions, and a
pass of the loop costs a fixed number of numpy calls, whatever the stack
holds; past the first few passes only a handful of starts still move, so
the calls, not the arithmetic, set its time.  Each start carries one 4 x 4
Gram matrix, its cost, gradient and 3 x 3 normal matrix in one array
(``PanelObjective._gram``, without forming the Jacobian).  Its products
and the turn's are stacked (batched) matrix products, one small product
per start: a flat BLAS product over the whole stack rounds a start's row
differently with the number of rows around it, and on a GHZ-class state
the descent carries such a difference along its curve of minima.  A pass
solves every damped
system in one batched call, turns each quaternion by its step in one
product, and keeps the improved starts' quaternions and Gram matrices with
one masked copy each.  The step lengths it computes for the turn are those
of its stopping test.  The stack holds only the starts still moving, in
start order; when a start stops, the stack's quaternions are written back
to the result in their places and the stopped starts leave it.  Each start
keeps its own damping, accept/reject decision and stopping test, and no
product mixes two starts, so it follows the path it would follow alone, up
to rounding.  The search knows nothing of Bloch matrices and takes no rank
decision from the QR factor, which keeps it independent of the classifier.
"""

from __future__ import annotations

import itertools

import numpy as np

from .tensors import PAULIS, _adjoint_rotation, _axis_restore, _blocks, _qubit_factors, _traced_outer

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

_SIGMA = np.array(PAULIS)
# the quaternion units I, iX, iY, iZ as 2 x 2 matrices: a is sum_p a_p E_p
_UNITS = np.concatenate([np.eye(2)[None], 1j * _SIGMA])
# E_p E_q = sum_r T_rpq E_r with T_rpq = tr(E_r^dagger E_p E_q) / 2, as
# (16, 4) with rows (p, q): the quaternion product b a is
# outer(b, a) @ _PRODUCT
_PRODUCT = (np.einsum("rji,pjk,qki->pqr", _UNITS.conj(), _UNITS, _UNITS).real / 2).reshape(16, 4)
# O(a)_cd = tr(sigma_c U sigma_d U^dagger) / 2 for U = sum_p a_p E_p, as
# (16, 9) with rows (p, q) and columns (c, d): O(a) is
# outer(a, a) @ _ROTATION
_ROTATION = _adjoint_rotation(_UNITS[:, None], _UNITS[None]).reshape(16, 9)
# y -> y, then y -> -2 e_b x y for b = X, Y, Z, the Pauli part of
# i [sigma_b, y . sigma], stacked as (4, 3, 3): the compressed residual
# (before x is subtracted) and its three tangents, from y = O x
_PAULI_TANGENTS = np.concatenate(
    [np.eye(3)[None], -2 * np.cross(np.eye(3)[:, None], np.eye(3)).swapaxes(1, 2)]
)
# the two composed, (16, 36) with columns (map, c, d): outer(a, a) @
# _GRAM_MAPS is the stack of four 3 x 3 matrices that
# ``PanelObjective._gram`` applies to x
_GRAM_MAPS = np.einsum("sce,ned->nscd", _PAULI_TANGENTS, _ROTATION.reshape(16, 3, 3)).reshape(16, 36)
_EYE3 = np.eye(3)
# the stand-in for sin(0)/0 (``_quaternions``)
_EPS = np.finfo(np.float64).eps
# the rotation vectors of ``grid_starts``, in units of pi/4: none, the
# eight (+-1, +-1, +-1) and (2, 2, 2).  No start is a half-turn of O(a)
# (a_0 = 0, as the quarter turns t = +-pi/2 e_b would give): the cost is
# (1 - cos theta)(tr G - n^T G n) for O(a) a turn by theta about n and G
# fixed by psi, so its derivative in theta vanishes at theta = pi for
# every state, and a start there rides that set towards a saddle, leaving
# it only through rounding, many passes after every other start has stopped
_GRID_TURNS = np.array(
    [[0, 0, 0]] + list(itertools.product((1, -1), repeat=3)) + [[2, 2, 2]],
    dtype=float,
) * np.pi / 4


class FitResult:
    """Where one start's descent ended, and the objective it descended.

    ``cost`` is the dense cost there, r.r for the panel residual r of
    ``PanelObjective.residuals``, computed on first read and then kept.
    The fields are not guarded, unlike the package's frozen values: they
    must not be reassigned, since the kept cost belongs to ``unitary``.
    """

    __slots__ = ("unitary", "objective", "_cost")

    def __init__(self, unitary: np.ndarray, objective: PanelObjective):
        self.unitary = unitary
        self.objective = objective

    @property
    def cost(self) -> float:
        try:
            return self._cost
        except AttributeError:
            self._cost = float(np.sum(np.square(self.objective.residuals(self.unitary))))
            return self._cost


def _lengths(t: np.ndarray) -> np.ndarray:
    """|t| for each row of a stack (m, 3): the ufuncs that
    ``np.linalg.norm(t, axis=1)`` runs, without its wrapper, so the same
    floats."""
    return np.sqrt(np.add.reduce(t * t, axis=1))


def _quaternions(t: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The unit quaternions (cos|t|, sin|t| t / |t|) of exp(i t . sigma),
    for a stack (m, 3) of t and their lengths r = |t| (``_lengths``); t = 0
    gives (1, 0, 0, 0)."""
    y = np.where(r, r, _EPS)
    quaternions = np.empty((len(t), 4))
    quaternions[:, 0] = np.cos(r)
    quaternions[:, 1:] = (np.sin(y) / y)[:, None] * t
    return quaternions


def _product(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The quaternion products left right, row by row, of two stacks (m, 4):
    exp(i t . sigma) U for left the quaternion of a turn and right that of
    U."""
    pairs = (left[:, :, None] * right[:, None, :]).reshape(-1, 1, 16)
    return (pairs @ _PRODUCT).reshape(-1, 4)


def _unitaries(quaternions: np.ndarray) -> np.ndarray:
    """a_0 I + i a . sigma for a stack (m, 4) of quaternions a, as (m, 2, 2)
    matrices."""
    return (quaternions @ _UNITS.reshape(4, 4)).reshape(-1, 2, 2)


def grid_starts() -> np.ndarray:
    """10 deterministic unit quaternions spread over SU(2), as (10, 4):
    those of exp(i t . sigma) for the rotation vectors t of ``_GRID_TURNS``.

    Every start but the identity has |a_0| >= 0.2, so none is a half-turn
    of the rotation O(a): a descent from a half-turn stays on the
    half-turns until rounding moves it off, and so is the last start of a
    stacked descent to stop (see ``_GRID_TURNS``).
    """
    return _quaternions(_GRID_TURNS, _lengths(_GRID_TURNS))


def random_starts(rng: np.random.Generator, count: int) -> np.ndarray:
    """count seeded unit quaternions, as (count, 4): those of exp(i t . sigma)
    for t uniform in [-pi, pi)^3.  t is the last three columns of one
    uniform draw (count, 4), whose first column is unused, so the stream is
    that of count draws of 4."""
    t = rng.uniform(-np.pi, np.pi, size=(count, 4))[:, 1:]
    return _quaternions(t, _lengths(t))


class PanelObjective:
    """Residuals of the marginals of (U on qubit 1) psi against psi's own.

    Split on qubit 1, the marginal rho_(k) of U psi has the 2 x 2 blocks
    sum_cd U_ac conj(U_bd) S_cd, where S_cd are those of psi's own marginal
    S_k, the target.  So the residual block ab is sum_cd (W - I)_{ab,cd}
    S_cd with W = kron(U, conj(U)): B_k c_ab, where B_k has the vectorized
    S_cd as its 4 columns and c_ab = (U_a0 conj(U_b0), U_a0 conj(U_b1),
    U_a1 conj(U_b0), U_a1 conj(U_b1)) - e_ab is the same for every k.
    Stacking the B_k into B = QR gives ||B c|| = ||R c|| for every c, so
    the cost is sum_ab ||R c_ab||^2 with R at most 4 x 4, whatever n.  The
    targets S_k are one (n-1, d, d) stack, ``_traced_outer`` of psi's
    ``_qubit_factors``; R is built once here from one QR per target and one
    more over their stacked R's, so no more than one B_k is held at a time.

    Read row j of R as a 2 x 2 matrix X_j = x_0j I + x_j . sigma (row-major,
    as c_ab orders its entries).  Then sum_ab (R c_ab)_j e_ab is
    U X_j U^dagger - X_j = ((O - I) x_j) . sigma, with O = O(a) the
    rotation by which U's quaternion a turns Pauli coordinates, and the
    Frobenius norm of m . sigma is sqrt(2) |m|.  So the compressed residual
    is O x - x, for x the (3, 2k) real matrix of the Pauli parts of the
    X_j's real and imaginary parts (R has k <= 4 rows; k = 1 at n = 2),
    which is built here once; it is formed directly, never its square.
    """

    def __init__(self, amplitudes: np.ndarray):
        factors = _qubit_factors(np.asarray(amplitudes, dtype=complex))
        self.factor = factors[0]  # psi, qubit 1 as the row index
        self.targets = _traced_outer(factors[1:], factors[1:])
        # one R per B_k (columns: the vectorized S_cd), merged by one more QR
        rs = [np.linalg.qr(_blocks(t, 1).reshape(4, -1).T, mode="r") for t in self.targets]
        blocks = np.linalg.qr(np.concatenate(rs), mode="r").reshape(-1, 2, 2)
        # x_cj = tr(sigma_c X_j) / 2, real parts then imaginary parts
        pauli = np.einsum("cba,jab->cj", _SIGMA, blocks) / 2
        self._x = np.concatenate([pauli.real, pauli.imag], axis=1)

    def residuals(self, unitary: np.ndarray) -> np.ndarray:
        """Residual vector at U: the real and imaginary parts of rho_(k) -
        S_k over k = 2..n, for the stacked marginals rho_(k) of U psi.  The
        dense path that ``FitResult.cost`` reads and ``_gram`` reproduces
        compressed.
        """
        moved = _qubit_factors(_axis_restore(unitary @ self.factor, 1))[1:]
        return (_traced_outer(moved, moved) - self.targets).view(np.float64).reshape(-1)

    def _gram(self, quaternions: np.ndarray) -> np.ndarray:
        """Cost r.r, gradient J^T r and matrix J^T J at a stack (m, 4) of
        unit quaternions, as the [0, 0], [1:, 0] and [1:, 1:] blocks of
        (m, 4, 4) matrices.

        r is that of ``residuals`` and J its Jacobian in the X, Y, Z step
        directions, the derivative along exp(i t sigma_b) U at t = 0; neither
        is formed.  The dense residual is B c, with c the c_ab of all four
        blocks (see the class), and B = Q R with Q an isometry that does not
        depend on U.  So r = Q (R c) and J = Q (R dc) for the compressed
        residual R c and its derivatives, and the cost, J^T r and J^T J are
        exactly the Gram entries of these four vectors, twice those of their
        Pauli coordinates.

        The rows of one matrix product with ``_GRAM_MAPS`` are O and its
        three tangent maps -2 [e_b]_x O for every start, and one more with
        x gives O x, from which x is subtracted, and the tangents.
        """
        m = len(quaternions)
        pairs = (quaternions[:, :, None] * quaternions[:, None, :]).reshape(m, 1, 16)
        vectors = ((pairs @ _GRAM_MAPS).reshape(m, 12, 3) @ self._x).reshape(m, 4, self._x.size)
        vectors[:, 0] -= self._x.reshape(-1)
        gram = vectors @ vectors.transpose(0, 2, 1)
        gram *= 2
        return gram


def fit_pivot_unitary(objective: PanelObjective, starts: np.ndarray) -> list[FitResult]:
    """Levenberg-Marquardt from every start of a stack (m, 4) of unit
    quaternions at once, with Marquardt's diagonal scaling; results come
    back in start order, each with its unitary in SU(2).

    A start drops out of the stack when its gradient reaches rounding
    level, after trying a step that does, or after MAX_STEPS iterations.
    The descent runs on the compressed normal equations; each result's
    cost is the dense one, evaluated on the marginals (``residuals``) when
    it is first read.
    """
    ends = np.array(starts, dtype=float)
    if not len(ends):
        return []
    # the starts still moving, in start order: where each sits in ``ends``,
    # its quaternion, the Gram matrix of its normal equations (cost at
    # [0, 0], gradient [1:, 0], matrix [1:, 1:]) and its damping
    index = np.arange(len(ends))
    quaternions = ends.copy()
    gram = objective._gram(quaternions)
    damping = np.full(len(ends), DAMPING_START)
    # the gradient test comes before the solve: a start whose Jacobian
    # vanishes would make its system singular
    moving = np.abs(gram[:, 1:, 0]).max(axis=1) > GRAD_TOL
    for _ in range(MAX_STEPS):
        if not moving.all():
            # every start still in the stack is written back, the moving ones
            # again later
            ends[index] = quaternions
            index, quaternions, gram, damping = (x[moving] for x in (index, quaternions, gram, damping))
            if not index.size:
                break
        normal = gram[:, 1:, 1:]
        scale = normal.diagonal(axis1=1, axis2=2)
        scale = np.maximum(scale, SCALE_FLOOR * scale.max(axis=1, keepdims=True))
        system = normal + (damping[:, None] * scale)[:, :, None] * _EYE3
        step = np.linalg.solve(system, -gram[:, 1:, :1])[:, :, 0]
        size = _lengths(step)
        trial = _product(_quaternions(step, size), quaternions)
        trial_gram = objective._gram(trial)
        better = trial_gram[:, 0, 0] < gram[:, 0, 0]
        np.copyto(quaternions, trial, where=better[:, None])
        np.copyto(gram, trial_gram, where=better[:, None, None])
        damping = np.where(better, damping / DAMPING_DOWN, damping * DAMPING_UP)
        # a step at rounding level is still tried, then ends its start: near
        # a zero residual it is the Gauss-Newton step that squares the cost
        moving = (size > STEP_TOL) & (np.abs(gram[:, 1:, 0]).max(axis=1) > GRAD_TOL)
    ends[index] = quaternions
    return [FitResult(u, objective) for u in _unitaries(ends)]
