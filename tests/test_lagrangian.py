"""Registered Lagrangian families against their closed forms.

The free particle and the harmonic oscillator are built through the
quadratic family; their callables must still equal the textbook formulas
exactly. ``polynomial_potential`` must equal ``np.polyval`` bit for bit, and
``fd_partial``'s one batched call must equal one call pair per column.
"""

import math

import numpy as np
import numpy.testing as npt
import pytest

from fracvar.errors import ValidationError
from fracvar.friction import FrictionProblem
from fracvar.lagrangian import (
    _FD_STEP,
    LagrangianSpec,
    fd_partial,
    free_particle,
    harmonic_oscillator,
    particle_lagrangian,
    polynomial_potential,
    potential_polynomial,
    quadratic_mix,
)


def probes(dim, k=40, seed=5):
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.0, 1.0, size=k)
    q, v, w = (rng.standard_normal((k, dim)) * 3.0 for _ in range(3))
    q[0] = -np.abs(q[0])  # one all-negative row besides the random signs
    return t, q, v, w


def assert_family(spec, evaluate, dq, dv, dw, dim):
    args = probes(dim)
    for got, ref in zip((spec.evaluate, spec.dq, spec.dv, spec.dw), (evaluate, dq, dv, dw)):
        npt.assert_array_equal(got(*args), ref(*args))


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("mass", [1.0, 1.7])
def test_free_particle_closed_form(dim, mass):
    spec = free_particle(dim=dim, mass=mass)
    assert (spec.name, spec.dim, spec.autonomous) == ("free", dim, True)
    assert_family(
        spec,
        lambda t, q, v, w: 0.5 * mass * np.sum(v * v, axis=1),
        lambda t, q, v, w: np.zeros_like(q),
        lambda t, q, v, w: mass * v,
        lambda t, q, v, w: np.zeros_like(w),
        dim,
    )


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("mass, stiffness", [(1.0, 1.0), (0.7, 2.3)])
def test_harmonic_oscillator_closed_form(dim, mass, stiffness):
    spec = harmonic_oscillator(dim=dim, mass=mass, stiffness=stiffness)
    assert (spec.name, spec.dim, spec.autonomous) == ("harmonic", dim, True)
    assert_family(
        spec,
        lambda t, q, v, w: 0.5 * mass * np.sum(v * v, axis=1)
        - 0.5 * stiffness * np.sum(q * q, axis=1),
        lambda t, q, v, w: -stiffness * q,
        lambda t, q, v, w: mass * v,
        lambda t, q, v, w: np.zeros_like(w),
        dim,
    )


def test_quadratic_mix_keeps_its_name():
    assert quadratic_mix(1.0, 2.0, -0.5, 0.25, dim=2).name == "custom-coefficients"


# ------------------------------------------------------ polynomial potential


def polyval_pair(coeffs):
    """The ``np.polyval`` reference for (U, U')."""
    c = np.asarray(coeffs, dtype=float)
    dc = c[1:] * np.arange(1, len(c))
    u = (lambda q: np.polyval(c[::-1], q)) if len(c) else np.zeros_like
    du = (lambda q: np.polyval(dc[::-1], q)) if len(dc) else np.zeros_like
    return u, du


def assert_bits(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert got.tobytes() == ref.tobytes()


COEFFS = [[], [2.5], [-0.3, 1.1], [0.0, 0.0, 0.5, 0.0, 2.0], [1.0, -2.0, 0.5, 1.0 / 3.0, -0.125]]
INPUTS = [
    np.linspace(-2.5, 1.5, 17),
    np.linspace(-1.0, 1.0, 12).reshape(6, 2),
    np.asarray(-0.7),
    np.asarray(1.3),
    -0.45,
]


@pytest.mark.parametrize("coeffs", COEFFS, ids=lambda c: f"deg{len(c) - 1}")
def test_polynomial_potential_is_bit_identical_to_polyval(coeffs):
    u, du = polynomial_potential(coeffs)
    u_ref, du_ref = polyval_pair(coeffs)
    for x in INPUTS:
        assert_bits(u(x), u_ref(x))
        assert_bits(du(x), du_ref(x))


def test_polynomial_potential_on_0d_returns_scalar_like_polyval():
    u, du = polynomial_potential([1.0, 2.0, 3.0])
    x = np.asarray(-0.5)
    assert type(u(x)) is type(np.polyval([3.0, 2.0, 1.0], x))
    assert float(u(x)) == 0.75 and float(du(x)) == -1.0


def test_polynomial_potential_carries_its_horner_coefficients():
    u, du = polynomial_potential([1.0, 2.0, 3.0])
    assert u.coefficients == (3.0, 2.0, 1.0) and du.coefficients == (6.0, 2.0)
    zero, dzero = polynomial_potential([])
    assert zero.coefficients == () and dzero.coefficients == ()
    # the zero polynomial is a function of its own, not numpy's shared zeros_like
    assert zero is not np.zeros_like and not hasattr(np.zeros_like, "coefficients")


def test_potential_polynomial_uses_the_shared_potential():
    coeffs = [0.2, -1.0, 0.5, 0.0, 2.0]
    spec = potential_polynomial(coeffs, mass=1.5)
    u, du = polyval_pair(coeffs)
    t, q, v, w = probes(1)
    npt.assert_array_equal(spec.evaluate(t, q, v, w), 0.75 * v[:, 0] ** 2 - u(q[:, 0]))
    npt.assert_array_equal(spec.dq(t, q, v, w), -du(q))


def loop_fd_partial(evaluate, args, slot):
    """One pair of ``evaluate`` calls per column of ``args[slot]``."""
    x = np.asarray(args[slot], dtype=float)
    columns = []
    for j in range(x.shape[1]):
        step = _FD_STEP * (1.0 + np.abs(x[:, j]))
        hi, lo = list(args), list(args)
        hi[slot], lo[slot] = x.copy(), x.copy()
        hi[slot][:, j] += step
        lo[slot][:, j] -= step
        diff = np.asarray(evaluate(*hi), dtype=float) - np.asarray(evaluate(*lo), dtype=float)
        columns.append(diff / (2.0 * step).reshape((-1,) + (1,) * (diff.ndim - 1)))
    return np.stack(columns, axis=-1)


def _jacobian(t, q, u, scale):
    """A (k, 3, 2)-valued row-wise map with a scalar argument passed through."""
    return scale * np.sin(q[:, :, None] * u[:, None, :]) + t[:, None, None] * u[:, None, :] ** 2


@pytest.mark.parametrize(
    "evaluate, slot",
    [
        (quadratic_mix(1.3, 0.7, 0.4, 0.2, dim=3).evaluate, 2),  # (k,)-valued
        (harmonic_oscillator(dim=3, mass=1.7).dq, 1),  # (k, n)-valued
        (_jacobian, 2),  # Jacobian-valued, scalar argument last
    ],
    ids=["scalar", "vector", "jacobian"],
)
def test_batched_fd_partial_equals_the_per_column_loop(evaluate, slot):
    t, q, v, w = probes(3)
    args = (t, q, v[:, :2], 0.8) if evaluate is _jacobian else (t, q, v, w)
    calls = []

    def counted(*a):
        calls.append(1)
        return evaluate(*a)

    got = fd_partial(counted, args, slot)
    assert len(calls) == 1
    npt.assert_array_equal(got, loop_fd_partial(evaluate, args, slot))


@pytest.mark.parametrize("dim", [0, 1.5, math.nan, math.inf])
def test_dim_must_be_a_positive_integer(dim):
    with pytest.raises(ValidationError, match="dim must be a positive integer"):
        LagrangianSpec(dim=dim, evaluate=lambda t, q, v, w: np.zeros(len(t)))


MASS_FAMILIES = {
    "free": lambda mass: free_particle(mass=mass),
    "harmonic": lambda mass: harmonic_oscillator(mass=mass),
    "potential-polynomial": lambda mass: potential_polynomial([0.0, 0.0, 0.5], mass=mass),
    "friction-problem": lambda mass: FrictionProblem(mass, 0.5, *polynomial_potential([0.0, 0.0, 0.5])),
}


@pytest.mark.parametrize("mass", [math.nan, -1.0, 0.0])
@pytest.mark.parametrize("family", sorted(MASS_FAMILIES))
def test_mass_must_be_finite_and_positive(family, mass):
    # NaN too: it must be named here, not met later as a mismatch of dq
    with pytest.raises(ValidationError, match=f"^mass must be positive, got {mass}$"):
        MASS_FAMILIES[family](mass)


COEFFICIENT_FAMILIES = {
    "quadratic-mix": ("velocity_weight", lambda c: quadratic_mix(c, 1.0)),
    "quadratic-mix-slope": ("state_slope", lambda c: quadratic_mix(1.0, 1.0, 0.0, c)),
    "harmonic": ("stiffness", lambda c: harmonic_oscillator(stiffness=c)),
    "potential-polynomial": ("potential coefficient 1", lambda c: potential_polynomial([0.0, c, 1.0])),
    "friction-gamma": (
        "gamma",
        lambda c: particle_lagrangian(1.0, *polynomial_potential([0.0, 0.0, 0.5]), gamma=c, name="x"),
    ),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("family", sorted(COEFFICIENT_FAMILIES))
def test_non_finite_coefficient_is_named(family, value):
    # named here, not met later as "analytic partial dq ... disagrees with finite differences"
    name, build = COEFFICIENT_FAMILIES[family]
    with pytest.raises(ValidationError, match=f"^{name} must be finite, got {value}$"):
        build(value)
