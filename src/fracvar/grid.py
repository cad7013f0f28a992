"""Uniform grids and sampled functions on them.

``GridFunction`` is the substrate every operator in the package works on:
vector-valued samples on the nodes ``t_i = a + i*h`` of a uniform grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import GridMismatchError, ValidationError

#: printf format used for all CSV output; round-trips IEEE doubles exactly.
CSV_FLOAT_FORMAT = "%.17g"
# rows that write_csv formats with one ``%``: bounds the string it builds
_CSV_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class Grid:
    """Uniform grid with ``n`` intervals on ``[a, b]``."""

    a: float
    b: float
    n: int

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b)):
            raise ValidationError("grid endpoints must be finite")
        if not self.a < self.b:
            raise ValidationError(f"grid requires a < b, got a={self.a}, b={self.b}")
        object.__setattr__(self, "n", require_integer(self.n, 2, "grid requires an integer n >= 2"))

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.n

    def nodes(self) -> np.ndarray:
        return self.a + self.h * np.arange(self.n + 1)


def order_value(order) -> float:
    """The float value of an operator order (the package itself calls ``float``)."""
    return float(order)


class GridFunction:
    """Samples of an R^d-valued function on a uniform grid.

    ``values`` has shape ``(n + 1, d)``; scalar data may be passed 1-D and is
    stored as a single column. Non-finite entries are permitted only as the
    flagged-singularity sentinel some operators produce; operator *inputs*
    are checked finite at the call site.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values):
        arr = np.asarray(values, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2:
            raise ValidationError(f"values must be 1-D or 2-D, got shape {arr.shape}")
        if arr.shape[0] != grid.n + 1:
            raise GridMismatchError(
                f"values length {arr.shape[0]} does not match node count {grid.n + 1}"
            )
        if arr.shape[1] < 1:
            raise ValidationError("values need at least one component")
        self.grid = grid
        self.values = arr

    @classmethod
    def from_callable(cls, grid: Grid, fn: Callable) -> "GridFunction":
        """Sample ``fn`` on the grid nodes.

        ``fn`` maps the (n+1,) node array to values of shape (n+1,) or
        (n+1, d); any other shape raises ``GridMismatchError``.
        """
        t = grid.nodes()
        vals = np.asarray(fn(t), dtype=float)
        if vals.ndim not in (1, 2) or vals.shape[0] != t.shape[0]:
            raise GridMismatchError(
                f"callable returned shape {vals.shape}; expected ({t.shape[0]},) "
                f"or ({t.shape[0]}, d)"
            )
        return cls(grid, vals)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def with_values(self, values) -> "GridFunction":
        return GridFunction(self.grid, values)

    def column(self, j: int = 0) -> np.ndarray:
        return self.values[:, j]

    def __repr__(self) -> str:  # pragma: no cover
        g = self.grid
        return f"GridFunction(n={g.n}, dim={self.dim}, [{g.a}, {g.b}])"


# -- shared array helpers ---------------------------------------------


def write_csv(path, header, columns) -> None:
    """Write a comma-separated table at full double precision.

    ``columns`` are 1-D arrays (one column each) or 2-D blocks (one column
    per block column), all with the same number of rows. The bytes are those
    of ``np.savetxt`` with this header and format; rows are formatted from
    Python floats, a block of rows per ``%``.
    """
    table = np.column_stack(columns)
    row = ",".join([CSV_FLOAT_FORMAT] * table.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(table), _CSV_BLOCK_ROWS):
            block = table[start : start + _CSV_BLOCK_ROWS]
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def central_difference(values: np.ndarray, h: float) -> np.ndarray:
    """Second-order derivative of nodal samples: central interior, one-sided
    ends, written in differences from the end node so constants give exactly 0."""
    v = np.asarray(values, dtype=float)
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    out[0] = (4.0 * (v[1] - v[0]) - (v[2] - v[0])) / (2.0 * h)
    out[-1] = (4.0 * (v[-1] - v[-2]) - (v[-1] - v[-3])) / (2.0 * h)
    return out


def central_difference_T(values: np.ndarray, h: float) -> np.ndarray:
    """The transpose of :func:`central_difference` applied to nodal values."""
    g = np.asarray(values, dtype=float) / (2.0 * h)
    out = np.zeros_like(g)
    out[2:] += g[1:-1]
    out[:-2] -= g[1:-1]
    out[:3] += (-3.0 * g[0], 4.0 * g[0], -g[0])
    out[-3:] += (g[-1], -4.0 * g[-1], 3.0 * g[-1])
    return out


def cell_differences(values: np.ndarray) -> np.ndarray:
    """Nodal samples' cell differences (0, f_1 - f_0, ..., f_n - f_{n-1})."""
    return np.diff(values, axis=0, prepend=values[:1])


def cell_differences_T(values: np.ndarray) -> np.ndarray:
    """The transpose of :func:`cell_differences` applied to nodal values."""
    out = np.empty_like(values)
    out[0] = -values[1]
    out[1:-1] = values[1:-1] - values[2:]
    out[-1] = values[-1]
    return out


def trapezoid_weights(n: int, h: float) -> np.ndarray:
    w = np.full(n + 1, h)
    w[0] = w[-1] = 0.5 * h
    return w


def trapezoid(values: np.ndarray, h: float) -> float:
    """Composite trapezoid rule over the nodes."""
    v = np.asarray(values, dtype=float)
    w = trapezoid_weights(len(v) - 1, h)
    return float(np.dot(w, v))


def require_finite(f: GridFunction, what: str = "input") -> None:
    if not np.isfinite(f.values).all():
        bad = np.argwhere(~np.isfinite(f.values))
        node = int(bad[0][0])
        raise ValidationError(f"{what} contains non-finite values (first at node {node})")


def require_on(f: GridFunction, grid: Grid, dim: int, what: str) -> None:
    """Raise unless ``f`` is a finite ``dim``-component function on ``grid``:
    ``GridMismatchError`` for another grid or dimension, ``ValidationError``
    (:func:`require_finite`) naming ``what`` and the first non-finite node."""
    if f.grid != grid:
        raise GridMismatchError(f"{what} lives on {f.grid}, not on {grid}")
    require_dim(f.dim, dim, what)
    require_finite(f, what)


def require_dim(got: int, want: int, what: str) -> None:
    """Raise ``GridMismatchError`` naming ``what`` unless its dimension ``got`` is ``want``."""
    if got != want:
        raise GridMismatchError(f"{what} has dimension {got}, expected {want}")


def require_integer(value, minimum: int, requirement: str) -> int:
    """``value`` as an ``int`` (2.0 is 2); ``ValidationError`` with ``requirement``
    unless it is a finite whole number ``>= minimum`` (nan, inf and 2.5 are not)."""
    if not (np.isfinite(value) and int(value) == value and value >= minimum):
        raise ValidationError(f"{requirement}, got {value}")
    return int(value)


def require_close(got, want, tol, message: str) -> None:
    """Raise ``ValidationError`` with ``message`` unless every |got - want| <= tol.

    The arguments broadcast, so ``tol`` may vary per entry. An entry passes
    only when |got - want| - tol <= 0: a NaN anywhere fails it, as does an
    infinite gap, with no numpy warning. The message ends with the index of
    the worst entry, where a NaN counts as the worst.
    """
    with np.errstate(invalid="ignore"):
        excess = np.abs(np.subtract(got, want, dtype=float)) - tol
    if not (excess <= 0.0).all():
        excess = np.nan_to_num(excess, nan=np.inf, posinf=np.inf)
        worst = np.unravel_index(np.argmax(excess), excess.shape)
        raise ValidationError(f"{message} (worst entry at index {[int(i) for i in worst]})")
