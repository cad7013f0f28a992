"""Invariance checks and conserved-quantity evaluation along trajectories.

The central identity is the transfer formula: for smooth f, g and orders
alpha in (0, 1),

    g . D_C^alpha f - f . D_right^alpha g
        = d/dt sum_r [ (-1)^r g^(r) . I_left^(r+1-alpha)(f - f(a))
                       + f^(r) . I_right^(r+1-alpha) g ] ,

valid when both term sequences decay uniformly. Truncating the sum at order
R gives computable conserved-quantity candidates; the last included term's
max on the panel [a + (b-a)/16, b - (b-a)/16] is reported as
``tail_estimate`` so callers can see what the truncation costs. Higher
derivatives are raw iterated central differences - noisy for large R, which
is why truncation orders above 6 are rejected outright; their one-sided end
stencils amplify round-off by about h^-R, so the tail leaves the ends out.

:func:`momentum_quantity` is the one conserved-quantity formula, in the
momenta p, p_alpha: :func:`noether_quantity` passes -dL/dv and -dL/dw, and
``optctrl`` its solved adjoints. The energy-type :func:`autonomous_quantity`
is the time-translation instance (tau = 1, f2 = 0). Every quantity here
reads its trajectory fields from ``variational.along``.
:func:`invariance_defect` pushes the trajectory through both maps of the group;
for a state-only group the time map is the identity, so the nodes and the
Caputo anchor stay where they are.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .fracops import (
    caputo_left,
    derivative_order,
    rl_integral_left,
    rl_integral_right,
)
from .grid import (
    Grid,
    GridFunction,
    central_difference,
    require_close,
    require_dim,
    require_finite,
    require_integer,
    require_on,
    trapezoid,
)
from .symmetry import SymmetryGroup, time_translation
from .variational import (
    ExtremalSolution, VariationalProblem, along, costate_residual, el_residual_norm
)

_MAX_TRUNCATION = 6
_DEFAULT_EPS = 1e-4

#: nested evaluation panels (start fraction, end fraction) of [a, b]
_PANEL_FRACTIONS = tuple((k / 16.0, 1.0 - k / 16.0) for k in range(8))


@dataclass
class InvariantSeries:
    """Truncated transfer-formula series: one row of node values per order."""

    terms: np.ndarray  # shape (R + 1, n + 1)
    tail_estimate: float  # max |terms[R]| on the interior panel

    def total(self) -> np.ndarray:
        return self.terms.sum(axis=0)


def check_truncation(truncation: int) -> int:
    truncation = require_integer(truncation, 0, "truncation order must be a non-negative integer")
    if truncation > _MAX_TRUNCATION:
        raise ValidationError(
            f"truncation order {truncation} rejected: repeated numerical differentiation "
            f"beyond {_MAX_TRUNCATION} is noise-dominated"
        )
    return truncation


def _fractional_integral(f: GridFunction, order: float, left: bool) -> np.ndarray:
    """Series helper: order-0 integrals act as the identity (alpha = 1 limit)."""
    if order == 0.0:
        return f.values.copy()
    op = rl_integral_left if left else rl_integral_right
    return op(f, order).values


def _iterated_derivatives(values: np.ndarray, h: float, upto: int) -> list:
    out = [values]
    for _ in range(upto):
        out.append(central_difference(out[-1], h))
    return out


def series_terms(f2: np.ndarray, g: np.ndarray, grid, alpha: float, truncation: int) -> np.ndarray:
    """Node values of each term; f2 plays f and g plays g in the identity.
    An integral whose own or other factor is identically zero is not
    evaluated: a constant f2 (f2 - f2(a) = 0) skips every left-sided one,
    and g = 0 skips them all."""
    h = grid.h
    f2_shift = GridFunction(grid, f2 - f2[0])
    g_fn = GridFunction(grid, g)
    f2_derivs = _iterated_derivatives(f2, h, truncation)
    g_derivs = _iterated_derivatives(g, h, truncation)
    terms = np.zeros((truncation + 1, grid.n + 1))
    for r in range(truncation + 1):
        order = r + 1.0 - alpha
        if f2_shift.values.any() and g_derivs[r].any():
            ileft = _fractional_integral(f2_shift, order, left=True)
            terms[r] += (-1.0) ** r * np.sum(g_derivs[r] * ileft, axis=1)
        if f2_derivs[r].any() and g.any():
            iright = _fractional_integral(g_fn, order, left=False)
            terms[r] += np.sum(f2_derivs[r] * iright, axis=1)
    return terms


def transfer_series(f2: GridFunction, g: GridFunction, alpha, truncation: int) -> InvariantSeries:
    """Evaluate the truncated transfer-formula series for the pair (f2, g)."""
    truncation = check_truncation(truncation)
    require_on(g, f2.grid, f2.dim, "g")
    require_finite(f2, "f2")
    terms = series_terms(f2.values, g.values, f2.grid, derivative_order(alpha, "series"), truncation)
    i_a, i_b = _panel_indices(f2.grid.n)[1]
    tail = float(np.max(np.abs(terms[-1, i_a : i_b + 1])))
    return InvariantSeries(terms=terms, tail_estimate=tail)


# ------------------------------------------------------------- invariance


def _check_invariance_inputs(problem, q, s, el_tol):
    """Trajectory and symmetry dimension; with ``el_tol``, that q is an extremal."""
    problem.check_trajectory(q, boundary=False)
    require_dim(s.dim, problem.dim, "symmetry")
    if el_tol is not None and (norm := el_residual_norm(problem, q)) > el_tol:
        raise ValidationError(
            f"trajectory is not an extremal at tolerance {el_tol:.3g} "
            f"(residual max-norm {norm:.3g}); invariance is defined along extremals"
        )


def _panel_indices(n: int):
    panels = []
    for lo, hi in _PANEL_FRACTIONS:
        i_a = int(round(lo * n))
        i_b = int(round(hi * n))
        if i_b - i_a >= 2:
            panels.append((i_a, i_b))
    return panels


def _transformed_integrand(problem, q: GridFunction, s: SymmetryGroup, eps: float) -> tuple:
    """Integrand of the transformed action on the image grid.

    The trajectory is pushed forward through (psi1, psi2): node times become
    psi1(eps, t_i), state values psi2(eps, q_i), and the Caputo anchor moves
    to psi1(eps, a) - this is the change-of-variables form of the invariance
    integral, with the Jacobian absorbed by integrating on the image nodes.
    Only maps whose node image stays uniform are computable on this grid
    type; anything else is rejected.
    """
    t = q.grid.nodes()
    s_nodes = np.asarray(s.time_map(eps, t), dtype=float)
    diffs = np.diff(s_nodes)
    if np.any(diffs <= 0.0):
        raise ValidationError("transformed time nodes are not increasing; map unsupported")
    h_new = float(diffs.mean())
    require_close(
        diffs, h_new, 1e-9 * (1.0 + abs(h_new)),
        "time map sends the uniform grid to a nonuniform one; the transformed "
        "Caputo term is not computable on this grid type",
    )
    # image of [a, b]: t[-1] can miss b by an ulp, and the identity must keep the grid
    a_new, b_new = np.asarray(s.time_map(eps, np.array([q.grid.a, q.grid.b])), dtype=float)
    grid_new = Grid(float(a_new), float(b_new), q.grid.n)
    q_new = s.state_map(eps, q.values)
    return grid_new, along(problem.lagrangian, grid_new, problem.alpha, q_new).L


def invariance_defect(
    problem: VariationalProblem,
    q: GridFunction,
    s: SymmetryGroup,
    eps: float = _DEFAULT_EPS,
    el_tol: float | None = None,
) -> float:
    """Max over the panel of |d/d(eps) transformed action| at eps = 0.

    Time is reparametrized through psi1 and the state through psi2,
    integrating on the image of each panel. Central eps-difference with the
    given step, which must be finite and positive.
    """
    if not 0.0 < eps < np.inf:
        raise ValidationError(f"eps must be finite and positive, got {eps}")
    _check_invariance_inputs(problem, q, s, el_tol)
    grid_p, plus = _transformed_integrand(problem, q, s, eps)
    grid_m, minus = _transformed_integrand(problem, q, s, -eps)
    return max(
        abs(trapezoid(plus[i_a : i_b + 1], grid_p.h) - trapezoid(minus[i_a : i_b + 1], grid_m.h))
        / (2.0 * eps)
        for i_a, i_b in _panel_indices(problem.grid.n)
    )


def invariance_necessary_residual(
    problem: VariationalProblem,
    q: GridFunction,
    s: SymmetryGroup,
    el_tol: float | None = None,
) -> GridFunction:
    """Node-wise necessary condition of invariance (state transformations).

    f2 . (d/dt dL/dv) + dL/dv . (d/dt f2) + dL/dw . D_C^alpha f2
       - f2 . D_right^alpha dL/dw ;
    small along extremals of an invariant functional. Endpoint nodes zero.
    The first and last terms are -f2 . ``variational.costate_residual`` with
    dH/dq = 0 at the momenta p = -dL/dv, p_alpha = -dL/dw.
    """
    _check_invariance_inputs(problem, q, s, el_tol)
    grid = problem.grid
    f = problem.along(q)
    _, f2 = s.rates_on(f.t, f.q)
    el = costate_residual(grid, problem.alpha, 0.0, -f.dv, -f.dw).values
    residual = (
        np.sum(f.dv * central_difference(f2, grid.h), axis=1)
        + np.sum(f.dw * caputo_left(GridFunction(grid, f2), problem.alpha).values, axis=1)
        - np.sum(f2 * el, axis=1)
    )
    residual[0] = 0.0
    residual[-1] = 0.0
    return GridFunction(grid, residual)


# ------------------------------------------------------ conserved quantities


def momentum_quantity(grid: Grid, alpha, tau, f2, p, p_alpha, energy, truncation) -> GridFunction:
    """Candidate conserved quantity of a group with rates (tau, f2), from
    node values of the momenta p, p_alpha and of the energy term.

    C(t) = -f2 . p
         - sum_{r=0}^{R} [ (-1)^r p_alpha^(r) . I_left^(r+1-alpha)(f2 - f2(a))
                           + f2^(r) . I_right^(r+1-alpha) p_alpha ]
         + tau energy

    With tau = 0 this is the no-time-change form; R is the series truncation.
    """
    series = series_terms(f2, p_alpha, grid, alpha, check_truncation(truncation)).sum(axis=0)
    return GridFunction(grid, -np.sum(f2 * p, axis=1) - series + tau * energy)


def noether_quantity(
    problem: VariationalProblem,
    sol: ExtremalSolution,
    s: SymmetryGroup,
    truncation: int = 2,
) -> GridFunction:
    """:func:`momentum_quantity` along an extremal: p = -dL/dv,
    p_alpha = -dL/dw and energy L - qdot . dL/dv - alpha dL/dw . D_C^alpha q."""
    _check_invariance_inputs(problem, sol.trajectory, s, None)
    f = problem.along(sol.trajectory)
    tau, f2 = s.rates_on(f.t, f.q)
    energy = f.L - np.sum(f.v * f.dv, axis=1) - problem.alpha * np.sum(f.dw * f.w, axis=1)
    return momentum_quantity(problem.grid, problem.alpha, tau, f2, -f.dv, -f.dw, energy, truncation)


def autonomous_quantity(problem: VariationalProblem, sol: ExtremalSolution) -> GridFunction:
    """L - qdot . dL/dv - alpha dL/dw . D_C^alpha q, for autonomous Lagrangians:
    the time-translation instance (tau = 1, f2 = 0) of :func:`noether_quantity`."""
    if not problem.lagrangian.autonomous:
        raise ValidationError("autonomous_quantity requires an autonomous Lagrangian")
    return noether_quantity(problem, sol, time_translation(problem.dim), truncation=0)


def drift_report(c: GridFunction) -> float:
    """Normalized deviation of a should-be-constant quantity.

    max over interior nodes of |C(t) - C(t0)| / (1 + |C(t0)|) with t0 the
    first interior node; both endpoint nodes are excluded (operator accuracy
    degrades there).
    """
    if c.dim != 1:
        raise ValidationError("drift_report expects a scalar quantity")
    interior = c.values[1:-1, 0]
    if not np.isfinite(interior).all():
        raise ValidationError("quantity is not finite on the interior nodes")
    c0 = interior[0]
    return float(np.max(np.abs(interior - c0)) / (1.0 + abs(c0)))
