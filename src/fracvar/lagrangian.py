"""Lagrangian evaluation contracts L(t, q, v, w) and registered families.

``v`` is the classical velocity and ``w`` the fractional (Caputo) velocity.
All contracts are vectorized over nodes: ``t`` has shape (k,), the state
arguments (k, dim), and ``evaluate`` returns (k,) while each partial returns
(k, dim). Analytic partials are validated against central finite differences
on seeded random probes at construction; missing partials fall back to
finite differences.

The free particle and the harmonic oscillator are :func:`quadratic_mix`
instances; :func:`polynomial_potential` gives U and U' here and in friction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ValidationError

_PROBE_SEED = 1693
_FD_STEP = 1e-6
_VALIDATE_RTOL = 1e-5

Evaluator = Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray]
Partial = Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray]


def fd_partial(evaluate: Callable, args: Sequence, slot: int) -> np.ndarray:
    """Central differences of ``evaluate(*args)`` in each column of ``args[slot]``.

    ``args[slot]`` has shape (k, width); the result stacks one derivative per
    column on a new last axis, so a (k,)-valued ``evaluate`` gives (k, width)
    and a (k, n)-valued one gives the Jacobian (k, n, width). ``evaluate`` is
    called once, on all 2 * width probes stacked along the point axis: array
    arguments are tiled and scalars pass through, so it must act row by row.
    """
    x = np.asarray(args[slot], dtype=float)
    k, width = x.shape
    step = (_FD_STEP * (1.0 + np.abs(x))).T  # (width, k)
    stacked = [np.tile(a, (2 * width,) + (1,) * (np.ndim(a) - 1)) if np.ndim(a) else a for a in args]
    stacked[slot] = np.tile(x, (2 * width, 1))
    probes = stacked[slot].reshape(2, width, k, width)  # (up or down, column, point, column)
    columns = np.arange(width)
    probes[0, columns, :, columns] += step
    probes[1, columns, :, columns] -= step
    out = np.asarray(evaluate(*stacked), dtype=float)
    hi, lo = out.reshape((2, width, k) + out.shape[1:])
    diff = (hi - lo) / (2.0 * step).reshape((width, k) + (1,) * (out.ndim - 1))
    return np.stack(list(diff), axis=-1)


def check_partial(
    what: str, analytic: Callable, evaluate: Callable, args: Sequence, slot: int
) -> None:
    """Raise ``ValidationError`` where ``analytic(*args)`` disagrees with :func:`fd_partial`."""
    got = np.asarray(analytic(*args), dtype=float)
    ref = fd_partial(evaluate, args, slot)
    excess = np.abs(got - ref) - _VALIDATE_RTOL * (1.0 + np.maximum(np.abs(got), np.abs(ref)))
    if not np.all(excess <= 0.0):
        where = int(np.unravel_index(np.argmax(excess), excess.shape)[0])
        raise ValidationError(
            f"{what} disagrees with finite differences (worst probe index {where})"
        )


@dataclass
class LagrangianSpec:
    """Contract for L(t, q, v, w) with partials in q, v and w.

    ``autonomous`` declares that ``t`` never enters the evaluation; the
    conserved-quantity machinery requires it for the energy-style invariant.
    """

    dim: int
    evaluate: Evaluator
    dq: Optional[Partial] = None
    dv: Optional[Partial] = None
    dw: Optional[Partial] = None
    autonomous: bool = False
    name: str = "custom"

    def __post_init__(self):
        if int(self.dim) != self.dim or self.dim < 1:
            raise ValidationError(f"dim must be a positive integer, got {self.dim}")
        self.dim = int(self.dim)
        rng = np.random.default_rng(_PROBE_SEED)
        k = 16
        args = (
            rng.uniform(0.0, 1.0, size=k),
            rng.standard_normal((k, self.dim)),
            rng.standard_normal((k, self.dim)),
            rng.standard_normal((k, self.dim)),
        )
        for slot, label in ((1, "dq"), (2, "dv"), (3, "dw")):
            partial = getattr(self, label)
            if partial is None:
                setattr(self, label, self._fd_fallback(slot))
            else:
                check_partial(
                    f"analytic partial {label} of Lagrangian {self.name!r}",
                    partial,
                    self.evaluate,
                    args,
                    slot,
                )

    def _fd_fallback(self, slot: int) -> Partial:
        return lambda t, q, v, w: fd_partial(self.evaluate, (t, q, v, w), slot)


# -------------------------------------------------------------- families


def _quadratic(cv, cw, cq, s, dim, name) -> LagrangianSpec:
    """The :func:`quadratic_mix` Lagrangian under the family name ``name``."""

    def evaluate(t, q, v, w):
        return (
            0.5 * cv * np.sum(v * v, axis=1)
            + 0.5 * cw * np.sum(w * w, axis=1)
            + 0.5 * cq * np.sum(q * q, axis=1)
            + s * np.sum(q, axis=1)
        )

    return LagrangianSpec(
        dim=dim,
        evaluate=evaluate,
        dq=lambda t, q, v, w: cq * q + s,
        dv=lambda t, q, v, w: cv * v,
        dw=lambda t, q, v, w: cw * w,
        autonomous=True,
        name=name,
    )


def free_particle(dim: int = 1, mass: float = 1.0) -> LagrangianSpec:
    """L = m |v|^2 / 2: :func:`quadratic_mix` with cv = m."""
    return _quadratic(mass, 0.0, 0.0, 0.0, dim, "free")


def harmonic_oscillator(dim: int = 1, mass: float = 1.0, stiffness: float = 1.0) -> LagrangianSpec:
    """L = m |v|^2 / 2 - k |q|^2 / 2: :func:`quadratic_mix` with cv = m, cq = -k."""
    return _quadratic(mass, 0.0, -stiffness, 0.0, dim, "harmonic")


def polynomial_potential(coeffs: Sequence[float]):
    """(U, U') for U(q) = sum_k coeffs[k] q^k, by Horner's rule in ``np.polyval``'s
    operation order: bit-identical to it, and cheap on scalars and 0-d arrays.

    Each callable carries its Horner coefficients, highest power first, as the
    tuple ``coefficients``; an empty tuple is the zero polynomial."""
    c = [float(x) for x in coeffs]
    return _horner(c[::-1]), _horner([k * c[k] for k in range(len(c) - 1, 0, -1)])


def _horner(p: list):
    def value(q):
        y = 0.0 if p else np.zeros_like(q)
        for pk in p:
            y = y * q + pk
        return y

    value.coefficients = tuple(p)
    return value


def potential_polynomial(coeffs: Sequence[float], mass: float = 1.0) -> LagrangianSpec:
    """Scalar L = m v^2 / 2 - U(q) with U(q) = sum_k coeffs[k] q^k."""
    u, du = polynomial_potential(coeffs)

    def evaluate(t, q, v, w):
        return 0.5 * mass * v[:, 0] ** 2 - u(q[:, 0])

    return LagrangianSpec(
        dim=1,
        evaluate=evaluate,
        dq=lambda t, q, v, w: -du(q),
        dv=lambda t, q, v, w: mass * v,
        dw=lambda t, q, v, w: np.zeros_like(w),
        autonomous=True,
        name="potential-polynomial",
    )


def quadratic_mix(
    velocity_weight: float = 1.0,
    caputo_weight: float = 0.0,
    state_weight: float = 0.0,
    state_slope: float = 0.0,
    dim: int = 1,
) -> LagrangianSpec:
    """L = cv |v|^2/2 + cw |w|^2/2 + cq |q|^2/2 + s . sum(q).

    The coefficient family behind the ``custom-coefficients`` scenario kind;
    covers the purely fractional kinetic Lagrangians used in the refinement
    studies. The free particle and the harmonic oscillator are instances.
    """
    return _quadratic(
        velocity_weight, caputo_weight, state_weight, state_slope, dim, "custom-coefficients"
    )
