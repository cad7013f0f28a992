"""Newton minimizer with an Armijo line search, its two direction rules, and
the objective structure both trajectory solvers share.

A direction callback turns the gradient into a step. :func:`pcg_direction`
solves ``H p = -g`` by preconditioned conjugate gradients on
Hessian-vector products (Newton-CG, Nocedal-Wright Algorithm 7.1), without
forming H. Both solvers' objectives are sums of pointwise terms over a few
linear images J of the node values, one linear map per slot read at given
rows, so their Hessians are ``J' B J`` with block-diagonal B, given as one
symmetric matrix per point over its slots' arguments in slot order:
:class:`PointwiseSum` applies it (``hvp``) or assembles it (``hessian``).
:func:`schur_newton` takes the step for such a sum whose points also own
unknowns of their own: it eliminates those point by point and factors only
the node values' Schur complement, shifted by ``tau I`` until its Cholesky
factorization succeeds (Nocedal-Wright sections 3.4 and 16.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConvergenceError, LineSearchError, NumericsError, ValidationError

_ARMIJO = 1e-4
_MAX_HALVINGS = 60
_CG_RTOL = 1e-12  # CG's relative residual: quadratic objectives converge in one step
MAX_ITER = 50  # Newton iteration cap: over 6x the most Newton steps a converging test solve takes (8)
# largest m either solver accepts, checked before it allocates. Neither holds
# an m x m array. The control solve's largest are the (n + 1) x (n + 1)
# difference and Caputo matrices and the states' Schur complement of side
# (n + 1) * state_dim with its factors: a scalar LQ solve at n = 1024 peaks at
# 41 MiB by tracemalloc (79 MiB ru_maxrss), below the 72 MiB of one m x m
# array. solve_extremal is matrix-free. The cap stays until a large-n
# workload measures the solvers past it.
MAX_UNKNOWNS = 4096


class PointwiseSum:
    """F(X) = sum_p f(args_p) for node values X of shape ``(nodes, width)``.

    ``slots`` lists ``(matrix, rows)`` with an integer array ``rows``: slot
    s's argument at point p is ``(matrix @ X)[rows[p]]``, where ``None`` is
    the identity matrix. Matrices are ``(nodes, nodes)`` arrays or operators
    with ``@`` and ``.T @``; slots with one come last. :meth:`hessian` needs
    arrays, and every slot it pairs with a matrix slot reading the same rows.
    The caller evaluates f and its partials at :meth:`args`;
    :meth:`gradient`, :meth:`hvp` and :meth:`hessian` chain them back to X.
    Both products take f's symmetric second partials as one array
    ``(points, r, r)`` over a point's r = slots x width concatenated
    arguments, slot s's at ``spans[s]``.
    """

    def __init__(self, shape, slots):
        self.shape, self.slots = shape, slots
        # per slot: the rows as a gather index and as runs of consecutive nodes
        self._rows = [_runs(rows) for _, rows in slots]
        self.spans = [slice(s * shape[1], (s + 1) * shape[1]) for s in range(len(slots))]

    def args(self, x: np.ndarray) -> list:
        """Each slot's argument at every point, shape ``(points, width)``."""
        return [self._arg(s, x) for s in range(len(self.slots))]

    def _arg(self, s: int, x: np.ndarray) -> np.ndarray:
        (m, _), (gather, _) = self.slots[s], self._rows[s]
        return (x if m is None else m @ x)[gather]

    def gradient(self, partials) -> np.ndarray:
        """dF/dX from each slot's partials of f, shape ``(points, width)``;
        a slot whose partials are all zero adds nothing and is skipped."""
        g = np.zeros(self.shape)
        for (m, _), (_, runs), part in zip(self.slots, self._rows, partials):
            if not part.any():
                continue
            scattered = np.zeros(self.shape)
            for nodes, points in runs:  # np.add.at's additions, in its order
                scattered[nodes] += part[points]
            g += scattered if m is None else m.T @ scattered
        return g

    def hvp(self, point: np.ndarray, x: np.ndarray) -> np.ndarray:
        """``J' B J x`` for node values ``x``: the matrix-free ``hessian(point) @ x``.
        Only the slots whose rows of ``point`` are not all zero are evaluated."""
        u = np.zeros(point.shape[:2])
        for s, span in enumerate(self.spans):
            if point[:, span].any():
                u[:, span] = self._arg(s, x)
        y = np.einsum("pij,pj->pi", point, u)
        return self.gradient([y[:, span] for span in self.spans])

    def hessian(self, point: np.ndarray) -> np.ndarray:
        """d2F/dX2 in ``X.ravel()`` from the second partials of f, read in the
        blocks of slots s <= t. Diagonal blocks enter halved and the result is
        ``part + part'``, so that it is exactly symmetric."""
        nodes, width = self.shape
        cols = np.arange(width)
        part = np.zeros((nodes, width, nodes, width))
        for s, (ma, ra) in enumerate(self.slots):
            for t in range(s, len(self.slots)):
                block = point[:, self.spans[s], self.spans[t]]
                if not block.any():
                    continue
                mb, rb = self.slots[t]
                b = 0.5 * block if s == t else block
                if mb is None:  # identity x identity
                    np.add.at(part, (ra[:, None, None], cols[:, None], rb[:, None, None], cols), b)
                    continue
                for i, j in zip(*np.nonzero(b.any(axis=0))):  # same rows: B scales M_t's rows
                    scaled = np.bincount(ra, b[:, i, j], nodes)[:, None] * mb
                    part[:, i, :, j] += scaled if ma is None else ma.T @ scaled
        part = part.reshape(nodes * width, nodes * width)
        return part + part.T


@dataclass
class MinimizeResult:
    x: np.ndarray
    gradient_norm: float
    iterations: int


def bfgs_minimize(
    fun: Callable[[np.ndarray], float],
    grad: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    direction: Callable[[np.ndarray, np.ndarray], np.ndarray],
    tol: float = 1e-8,
) -> MinimizeResult:
    """Minimize ``fun`` from ``x0``; converged when max|grad| < tol.

    ``direction(x, g)`` returns the Newton step at ``x`` with gradient ``g``
    (from :func:`pcg_direction` or :func:`schur_newton`); one that does not
    descend is replaced by ``-g``. A step is taken on sufficient decrease
    or, where the objective changes by less than rounding, on the strong
    curvature condition |g_new . p| <= 0.9 |g . p|. A ``tol`` that is not
    finite and positive raises ``ValidationError``. Raises
    ``ConvergenceError`` (with the final gradient norm) after ``MAX_ITER``
    iterations, ``LineSearchError`` on a non-finite objective at ``x0`` or
    after 60 failed step reductions and ``NumericsError`` on a non-finite
    gradient; an overflow on the way raises no floating-point warning.
    """
    if not 0.0 < tol < np.inf:
        raise ValidationError(f"tol must be finite and positive, got {tol}")
    x = np.asarray(x0, dtype=float).copy()
    if x.size == 0:
        return MinimizeResult(x, 0.0, 0)
    # an overflow shows as a non-finite value, which the checks below turn
    # into a failed trial step or an error, never into a floating-point warning
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        g = np.asarray(grad(x), dtype=float)
        f = float(fun(x))
        if not np.isfinite(f):
            raise LineSearchError("objective is non-finite at the initial point")
        for iteration in range(MAX_ITER):
            gnorm = float(np.max(np.abs(g)))
            if not np.isfinite(gnorm):
                raise NumericsError(f"gradient is non-finite at iteration {iteration}")
            if gnorm < tol:
                return MinimizeResult(x, gnorm, iteration)
            p = direction(x, g)
            slope = float(g @ p)
            if not -np.inf < slope < 0.0:  # numerical loss of descent; fall back to steepest descent
                p = -g
                slope = float(g @ p)
            step = 1.0
            halvings = 0
            g_new = None
            while True:
                f_new = float(fun(x + step * p))
                if np.isfinite(f_new) and f_new <= f + _ARMIJO * step * slope:
                    break
                if np.isfinite(f_new) and abs(f_new - f) <= 4e-13 * (1.0 + abs(f)):
                    # objective differences are below rounding; certify progress
                    # by the strong curvature condition instead of sufficient
                    # decrease, which refuses an overshoot to the mirror point
                    g_try = np.asarray(grad(x + step * p), dtype=float)
                    if abs(float(g_try @ p)) <= -0.9 * slope:
                        g_new = g_try
                        break
                if halvings >= _MAX_HALVINGS:
                    raise LineSearchError(
                        f"line search failed after {_MAX_HALVINGS} step reductions "
                        f"(gradient max-norm {gnorm:.3e})"
                    )
                if np.isfinite(f_new):
                    # quadratic interpolation, safeguarded into [0.1, 0.5] * step
                    # (a nan trial, from inf/inf, counts as 0.1 * step)
                    denom = 2.0 * (f_new - f - slope * step)
                    trial = -slope * step * step / denom if denom > 0.0 else 0.5 * step
                    step = min(0.5 * step, max(0.1 * step, trial))
                else:
                    step *= 0.5
                halvings += 1
            x = x + step * p
            g = np.asarray(grad(x), dtype=float) if g_new is None else g_new
            f = f_new
    gnorm = float(np.max(np.abs(g)))
    raise ConvergenceError(
        f"no convergence within {MAX_ITER} iterations; gradient max-norm {gnorm:.6e}",
        gradient_norm=gnorm,
    )


@dataclass
class CGStats:
    """Tallies over the :func:`pcg_direction` calls that share one record."""

    calls: int = 0  # one per Newton step
    products: int = 0  # Hessian-vector products
    nonconvex: list = field(default_factory=list)  # the calls, from 1, that met negative curvature


def pcg_direction(
    hvp: Callable, precondition: Callable, g: np.ndarray, stats: CGStats | None = None
) -> np.ndarray:
    """Approximate ``H p = -g`` by conjugate gradients preconditioned with
    ``precondition(r) = K^-1 r``, from ``hvp(v) = H v`` alone.

    Stops at a relative residual of 1e-12 or after ``len(g)`` iterations. On
    negative curvature it stops as Nocedal-Wright Algorithm 7.1 does: the
    first iteration returns ``-K^-1 g``, later ones the current iterate.
    A non-finite curvature raises ``NumericsError``, and an overflow no
    floating-point warning. ``stats`` tallies the call.
    """
    stats = CGStats() if stats is None else stats
    stats.calls += 1
    s = np.zeros_like(g)
    r = -g
    z = precondition(r)
    p, rz = z, float(r @ z)
    stop = _CG_RTOL * float(np.linalg.norm(g))
    with np.errstate(over="ignore", invalid="ignore"):  # overflow shows as a non-finite value
        for j in range(len(g)):
            hp = hvp(p)
            stats.products += 1
            curvature = float(p @ hp)
            if not np.isfinite(curvature):
                raise NumericsError("Hessian-vector product is non-finite")
            if curvature <= 0.0:
                stats.nonconvex.append(stats.calls)
                return p if j == 0 else s
            step = rz / curvature
            s = s + step * p
            r = r - step * hp
            if float(np.linalg.norm(r)) <= stop:
                break
            z = precondition(r)
            rz, rz_old = float(r @ z), rz
            p = z + (rz / rz_old) * p
    return s


def schur_newton(
    action: PointwiseSum, point: np.ndarray, gx: np.ndarray, gz: np.ndarray, fixed: int = 0
):
    """Newton step for F(X, Z) = sum_p f(args_p(X), Z[p]), where the rows of
    Z enter point p's term alone: solves ``(H + tau I) p = -g`` with the
    smallest doubling ``tau >= 0`` that makes ``H + tau I`` positive definite.

    ``point`` holds f's symmetric second partials at every point, shape
    ``(points, r + z, r + z)``: the slots' arguments of ``action`` in slot
    order (r values), then Z[p] (z values). The unknowns are
    ``X.ravel()[fixed:]`` and Z, with gradients ``gx`` (X's shape; its fixed
    entries are not read) and ``gz``. Since H's (Z, Z) part is block-diagonal, ``H + tau I`` is
    positive definite exactly when every ``B_zz + tau I`` and the Schur
    complement ``S = J' (B_rr - B_rz (B_zz + tau I)^-1 B_zr) J + tau I`` are;
    only S, of X's size, is assembled and factored. Returns ``(px, pz)``,
    with ``px`` zero in the fixed entries.
    """
    if not np.isfinite(point).all():
        raise NumericsError("Hessian holds non-finite entries")
    r = action.spans[-1].stop
    brr, bzr, bzz = point[:, :r, :r], point[:, r:, :r], point[:, r:, r:]
    tau = 0.0
    while True:
        lower = _cholesky(bzz + tau * np.eye(bzz.shape[1]))
        if lower is not None:
            # with w = L^-1 B_zr, B_rz (B_zz + tau I)^-1 B_zr = w' w
            inv = np.linalg.inv(lower)
            w = inv @ bzr
            schur = action.hessian(brr - w.transpose(0, 2, 1) @ w)
            schur = schur[fixed:, fixed:]
            schur[np.diag_indices_from(schur)] += tau
            if _cholesky(schur) is not None:
                break
        if not tau:  # H's diagonal: the assembled (X, X) part's, then the B_zz blocks'
            diag = action.hessian(brr).diagonal()[fixed:]
            diag = np.concatenate((diag, np.diagonal(bzz, axis1=1, axis2=2).ravel()))
        tau = 2.0 * tau if tau else 1e-3 * (float(np.max(np.abs(diag))) or 1.0)
    wg = inv @ gz[..., None]  # L^-1 g_z
    wwg = (w.transpose(0, 2, 1) @ wg)[..., 0]
    rhs = action.gradient([wwg[:, span] for span in action.spans])
    rhs -= gx
    px = np.linalg.solve(schur, rhs.ravel()[fixed:])
    px = np.concatenate((np.zeros(fixed), px)).reshape(action.shape)
    jp = np.concatenate(action.args(px), axis=1)[..., None]
    pz = -(inv.transpose(0, 2, 1) @ (wg + w @ jp))[..., 0]
    return px, pz


def _cholesky(a: np.ndarray):
    """The Cholesky factor of ``a`` (of each matrix of a stack), or None
    where one is not positive definite."""
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return None


def _runs(rows: np.ndarray):
    """``(gather, runs)`` for a slot's rows: ``runs`` pairs a slice of nodes
    with the slice of points that reads it, one pair per run of consecutive
    nodes; ``gather`` is the node slice of a single run, or ``rows``."""
    starts = np.flatnonzero(np.diff(rows, prepend=rows[:1] - 2) != 1)
    stops = np.append(starts[1:], len(rows))
    runs = [(slice(rows[p0], rows[p0] + p1 - p0), slice(p0, p1)) for p0, p1 in zip(starts, stops)]
    return (runs[0][0] if len(runs) == 1 else rows), runs
