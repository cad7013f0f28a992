"""Newton minimizer with an Armijo line search, its two direction rules, and
the objective structure both trajectory solvers share.

A direction callback turns the gradient into a step. :func:`pcg_direction`
solves ``H p = -g`` by preconditioned conjugate gradients on
Hessian-vector products (Newton-CG, Nocedal-Wright Algorithm 7.1), without
forming H; :class:`DenseNewton` factors a dense H, shifted by ``tau I`` until
its Cholesky factorization succeeds (Nocedal-Wright section 3.4). Both
solvers' objectives are sums of pointwise terms over a few linear images J
of the node values, so their Hessians are ``J' B J`` with block-diagonal B:
:class:`PointwiseSum` applies it (``hvp``) or assembles it (``hessian``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError, LineSearchError, NumericsError

_ARMIJO = 1e-4
_MAX_HALVINGS = 60
_CG_RTOL = 1e-12  # CG's relative residual: quadratic objectives converge in one step
MAX_ITER = 50  # default cap: over 8x the most Newton steps any test solve takes (6)
# largest m either solver accepts, checked before it allocates. The control
# solve is dense: it peaks at about 3.7 m x m matrices by ru_maxrss (n = 512
# and 1024) - the Hessian, the part + part' temporary, the Cholesky factor
# and the LU copy - some 470 MiB at this cap. solve_extremal holds no m x m
# array; it shares the cap.
MAX_UNKNOWNS = 4096


class PointwiseSum:
    """F(X) = sum_p f(args_p) for node values X of shape ``(nodes, width)``.

    ``slots`` lists ``(columns, terms)``, each term ``(matrix, rows, coef)``
    with integer arrays ``columns`` and ``rows``: slot s's argument at point
    p is the sum over its terms of ``coef * (matrix @ X[:, columns])[rows[p]]``,
    where ``None`` is the identity matrix. Matrices are ``(nodes, nodes)``
    arrays or operators with ``@`` and ``.T @`` (:meth:`hessian` needs
    arrays); slots with one come last, hold one term and read the same rows.
    The caller evaluates f and its partials at :meth:`args`;
    :meth:`gradient`, :meth:`hvp` and :meth:`hessian` chain them back to X.
    """

    def __init__(self, shape, slots):
        self.shape, self.slots = shape, slots
        # per term: the rows as a gather index and as runs of consecutive nodes
        self._rows = [[_runs(rows) for _, rows, _ in terms] for _, terms in slots]

    def args(self, x: np.ndarray) -> list:
        """Each slot's argument at every point, shape ``(points, |columns|)``."""
        return [
            sum(
                c * (x[:, cols] if m is None else m @ x[:, cols])[gather]
                for (m, _, c), (gather, _) in zip(terms, rows)
            )
            for (cols, terms), rows in zip(self.slots, self._rows)
        ]

    def gradient(self, partials) -> np.ndarray:
        """dF/dX from each slot's partials of f, shape ``(points, |columns|)``."""
        g = np.zeros(self.shape)
        for (cols, terms), rows, part in zip(self.slots, self._rows, partials):
            for (m, _, c), (_, runs) in zip(terms, rows):
                scattered = np.zeros((self.shape[0], len(cols)))
                weighted = c * part
                for nodes, points in runs:  # np.add.at's additions, in its order
                    scattered[nodes] += weighted[points]
                g[:, cols] += scattered if m is None else m.T @ scattered
        return g

    def hvp(self, blocks, x: np.ndarray) -> np.ndarray:
        """``J' B J x`` for node values ``x``, with B the second partials as
        :meth:`hessian` takes them: the matrix-free ``hessian @ x``."""
        u = self.args(x)
        y = [np.zeros_like(a) for a in u]
        for (s, t), block in blocks.items():
            b = 0.5 * block if s == t else block
            y[s] += np.einsum("pij,pj->pi", b, u[t])
            y[t] += np.einsum("pij,pi->pj", b, u[s])
        return self.gradient(y)

    def hessian(self, blocks) -> np.ndarray:
        """d2F/dX2 in ``X.ravel()`` from the second partials of f, as blocks
        ``{(s, t): (points, |columns_s|, |columns_t|)}`` for slots s <= t.
        Diagonal blocks enter halved and the result is ``part + part'``, so
        that it is exactly symmetric."""
        nodes, width = self.shape
        part = np.zeros((nodes, width, nodes, width))
        for (s, t), block in blocks.items():
            if not block.any():
                continue
            (cols_s, terms_s), (cols_t, terms_t) = self.slots[s], self.slots[t]
            for ma, ra, ca in terms_s:
                for mb, rb, cb in terms_t:
                    b = (0.5 if s == t else 1.0) * ca * cb * block
                    if mb is None:  # identity x identity
                        index = (ra[:, None, None], cols_s[:, None], rb[:, None, None], cols_t)
                        np.add.at(part, index, b)
                        continue
                    for i, j in zip(*np.nonzero(b.any(axis=0))):
                        view = part[:, cols_s[i], :, cols_t[j]]
                        if ma is not None:  # matrix x matrix
                            view += ma.T @ (np.bincount(ra, b[:, i, j], nodes)[:, None] * mb)
                        elif np.array_equal(ra, rb):  # both read the point's own node
                            view += np.bincount(ra, b[:, i, j], nodes)[:, None] * mb
                        else:
                            np.add.at(view, ra, b[:, i, j, None] * mb[rb])
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
    max_iter: int = MAX_ITER,
) -> MinimizeResult:
    """Minimize ``fun`` from ``x0``; converged when max|grad| < tol.

    ``direction(x, g)`` returns the Newton step at ``x`` with gradient ``g``
    (:func:`pcg_direction` or a :class:`DenseNewton`); one that does not
    descend is replaced by ``-g``. Raises ``ConvergenceError`` (with the
    final gradient norm) at the iteration cap and ``LineSearchError`` after
    60 failed step reductions.
    """
    x = np.asarray(x0, dtype=float).copy()
    if x.size == 0:
        return MinimizeResult(x, 0.0, 0)
    g = np.asarray(grad(x), dtype=float)
    f = float(fun(x))
    if not np.isfinite(f):
        raise LineSearchError("objective is non-finite at the initial point")
    for iteration in range(max_iter):
        gnorm = float(np.max(np.abs(g)))
        if gnorm < tol:
            return MinimizeResult(x, gnorm, iteration)
        p = direction(x, g)
        slope = float(g @ p)
        if slope >= 0.0:  # numerical loss of descent; fall back to steepest descent
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
                # by the curvature condition instead of sufficient decrease
                g_try = np.asarray(grad(x + step * p), dtype=float)
                if float(g_try @ p) >= 0.9 * slope:
                    g_new = g_try
                    break
            if halvings >= _MAX_HALVINGS:
                raise LineSearchError(
                    f"line search failed after {_MAX_HALVINGS} step reductions "
                    f"(gradient max-norm {gnorm:.3e})"
                )
            if np.isfinite(f_new):
                # quadratic interpolation, safeguarded into [0.1, 0.5] * step
                denom = 2.0 * (f_new - f - slope * step)
                trial = -slope * step * step / denom if denom > 0.0 else 0.5 * step
                step = min(max(trial, 0.1 * step), 0.5 * step)
            else:
                step *= 0.5
            halvings += 1
        x = x + step * p
        g = np.asarray(grad(x), dtype=float) if g_new is None else g_new
        f = f_new
    gnorm = float(np.max(np.abs(g)))
    raise ConvergenceError(
        f"no convergence within {max_iter} iterations; gradient max-norm {gnorm:.6e}",
        gradient_norm=gnorm,
    )


def pcg_direction(hvp: Callable, precondition: Callable, g: np.ndarray) -> np.ndarray:
    """Approximate ``H p = -g`` by conjugate gradients preconditioned with
    ``precondition(r) = K^-1 r``, from ``hvp(v) = H v`` alone.

    Stops at a relative residual of 1e-12 or after ``len(g)`` iterations. On
    negative curvature it stops as Nocedal-Wright Algorithm 7.1 does: the
    first iteration returns ``-K^-1 g``, later ones the current iterate.
    """
    s = np.zeros_like(g)
    r = -g
    z = precondition(r)
    p, rz = z, float(r @ z)
    stop = _CG_RTOL * float(np.linalg.norm(g))
    for j in range(len(g)):
        hp = hvp(p)
        curvature = float(p @ hp)
        if not np.isfinite(curvature):
            raise NumericsError("Hessian-vector product is non-finite")
        if curvature <= 0.0:
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


class DenseNewton:
    """Direction callback on a dense Hessian: ``hess(x)`` returns a new
    array, which the callback may overwrite. Solves ``(H + tau I) p = -g``
    with the smallest doubling ``tau >= 0`` that makes the shifted matrix
    positive definite."""

    def __init__(self, hess: Callable[[np.ndarray], np.ndarray]):
        self.hess = hess

    def __call__(self, x: np.ndarray, g: np.ndarray) -> np.ndarray:
        hmat = np.asarray(self.hess(x), dtype=float)
        if not np.isfinite(hmat).all():
            raise NumericsError("Hessian holds non-finite entries")
        diag = np.diag(hmat).copy()
        tau = 0.0
        while True:
            try:
                np.linalg.cholesky(hmat)
            except np.linalg.LinAlgError:
                tau = 2.0 * tau if tau else 1e-3 * (float(np.max(np.abs(diag))) or 1.0)
                np.fill_diagonal(hmat, diag + tau)
                continue
            return np.linalg.solve(hmat, -g)


def _runs(rows: np.ndarray):
    """``(gather, runs)`` for a term's rows: ``runs`` pairs a slice of nodes
    with the slice of points that reads it, one pair per run of consecutive
    nodes; ``gather`` is the node slice of a single run, or ``rows``."""
    starts = np.flatnonzero(np.diff(rows, prepend=rows[:1] - 2) != 1)
    stops = np.append(starts[1:], len(rows))
    runs = [(slice(rows[p0], rows[p0] + p1 - p0), slice(p0, p1)) for p0, p1 in zip(starts, stops)]
    return (runs[0][0] if len(runs) == 1 else rows), runs
