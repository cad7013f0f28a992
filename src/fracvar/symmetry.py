"""One-parameter diffeomorphism groups acting on time and state.

A group is given by a time map psi1(eps, t) and a state map psi2(eps, q),
together with their eps-derivatives at eps = 0 (``time_rate`` tau and
``state_rate`` f2). Construction validates, on seeded probes, that eps = 0
is the identity, that composition adds parameters, and that the supplied
rates match central eps-differences of the maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ValidationError
from .grid import require_close, require_integer, require_vector

_IDENTITY_TOL = 1e-12
_GROUP_TOL = 1e-8
_RATE_TOL = 1e-6
_PROBE_SEED = 407


@dataclass
class SymmetryGroup:
    """Group data: maps are vectorized (eps scalar, t (k,), q (k, d))."""

    time_map: Callable[[float, np.ndarray], np.ndarray]
    state_map: Callable[[float, np.ndarray], np.ndarray]
    time_rate: Callable[[np.ndarray], np.ndarray]
    state_rate: Callable[[np.ndarray, np.ndarray], np.ndarray]
    dim: int = 1
    name: str = "custom"

    def __post_init__(self):
        requirement = f"symmetry {self.name!r}: dim must be a positive integer"
        self.dim = require_integer(self.dim, 1, requirement)
        rng = np.random.default_rng(_PROBE_SEED)
        t = rng.uniform(-1.0, 2.0, size=8)
        q = rng.standard_normal((8, self.dim))
        self._check_identity(t, q)
        self._check_group_property(t, q)
        self._check_rates(t, q)

    def _require(self, got, want, tol, failure: str) -> None:
        require_close(got, want, tol, f"symmetry {self.name!r}: {failure}")

    def _check_identity(self, t, q):
        for what, psi, x in (("time", self.time_map, t), ("state", self.state_map, q)):
            self._require(psi(0.0, x), x, _IDENTITY_TOL, f"{what} map at eps=0 is not the identity")

    def _check_group_property(self, t, q):
        for e1, e2 in ((0.3, 0.2), (-0.4, 0.15)):
            for what, psi, x in (("time", self.time_map, t), ("state", self.state_map, q)):
                failure = f"{what} maps do not compose additively"
                self._require(psi(e1, psi(e2, x)), psi(e1 + e2, x), _GROUP_TOL, failure)

    def _check_rates(self, t, q):
        eps = 1e-5
        tau_fd = (self.time_map(eps, t) - self.time_map(-eps, t)) / (2.0 * eps)
        self._require(self.time_rate(t), tau_fd, _RATE_TOL, "tau does not match d(psi1)/d(eps)")
        f2_fd = (self.state_map(eps, q) - self.state_map(-eps, q)) / (2.0 * eps)
        self._require(self.state_rate(t, q), f2_fd, _RATE_TOL, "f2 does not match d(psi2)/d(eps)")

    def rates_on(self, t: np.ndarray, q: np.ndarray):
        """tau and f2 sampled along a trajectory."""
        tau = np.asarray(self.time_rate(t), dtype=float)
        f2 = np.asarray(self.state_rate(t, q), dtype=float)
        return tau, f2


# -------------------------------------------------------------- families


def time_translation(dim: int = 1) -> SymmetryGroup:
    """psi1 = t + eps, psi2 = identity."""
    return SymmetryGroup(
        time_map=lambda eps, t: t + eps,
        state_map=lambda eps, q: q,
        time_rate=lambda t: np.ones_like(t),
        state_rate=lambda t, q: np.zeros_like(q),
        dim=dim,
        name="time-translation",
    )


def space_translation(direction) -> SymmetryGroup:
    """psi2 = q + eps * direction; time untouched."""
    d = require_vector(direction, np.size(direction), "space translation 'direction'")
    return SymmetryGroup(
        time_map=lambda eps, t: t,
        state_map=lambda eps, q: q + eps * d[None, :],
        time_rate=lambda t: np.zeros_like(t),
        state_rate=lambda t, q: np.broadcast_to(d, q.shape).copy(),
        dim=len(d),
        name="space-translation",
    )


def rotation(rate: float = 1.0) -> SymmetryGroup:
    """Planar rotation by angle eps * rate (dim 2)."""
    if not np.isfinite(rate):
        raise ValidationError(f"rotation 'rate' must be finite, got {rate}")

    def state_map(eps, q):
        c, s = np.cos(eps * rate), np.sin(eps * rate)
        return q @ np.array([[c, s], [-s, c]])

    def state_rate(t, q):
        return rate * np.stack([-q[:, 1], q[:, 0]], axis=1)

    return SymmetryGroup(
        time_map=lambda eps, t: t,
        state_map=state_map,
        time_rate=lambda t: np.zeros_like(t),
        state_rate=state_rate,
        dim=2,
        name="rotation",
    )
