"""Uniform grids and sampled functions on them.

``GridFunction`` is the substrate every operator in the package works on:
vector-valued samples on the nodes ``t_i = a + i*h`` of a uniform grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import GridMismatchError, ValidationError

#: printf format used for all CSV output; round-trips IEEE doubles exactly.
CSV_FLOAT_FORMAT = "%.17g"
# rows that write_csv formats at a time: its temporaries, about 130 bytes a
# value, stay below a copy of the table (1024 was the fastest of 256..2048)
_CSV_BLOCK_ROWS = 1024
# blocks of fewer values take one ``%``: it costs about 0.45 us a value, the
# numpy path 50 us a block plus 0.09 us a value (measured; even at ~150)
_CSV_VECTOR_MIN = 150


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
    of ``np.savetxt`` with this header and format: every value is written as
    ``CSV_FLOAT_FORMAT % value``. Blocks of ``_CSV_BLOCK_ROWS`` rows are
    formatted at a time, by :func:`_csv_rows`.
    """
    columns = [np.asarray(c, dtype=float) for c in columns]
    lengths = {len(c) for c in columns}
    if len(lengths) != 1:
        raise ValidationError(f"CSV columns need one row count, got {sorted(lengths)}")
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
            fh.write(_csv_rows(np.column_stack([c[start : start + _CSV_BLOCK_ROWS] for c in columns])))


def _csv_rows(block: np.ndarray) -> bytes:
    """The CSV rows of a 2-D block, each value as ``CSV_FLOAT_FORMAT % value``.

    Blocks under ``_CSV_VECTOR_MIN`` values take one ``%``. Otherwise each
    value gets a fixed-width field of 48 bytes (:func:`_csv_fields`), and the
    zero bytes between the fields' characters are dropped.
    """
    rows, cols = block.shape
    x = block.ravel()
    if x.size < _CSV_VECTOR_MIN:
        row = ",".join([CSV_FLOAT_FORMAT] * cols) + "\n"
        return ((row * rows) % tuple(x.tolist())).encode()
    # the fields are freed before the bytes are packed
    return _csv_fields(x, cols).T.tobytes().translate(None, b"\0")


def _csv_fields(x: np.ndarray, cols: int) -> np.ndarray:
    """The fields of row-major values ``x`` (``cols`` to a row) as (6, len(x))
    little-endian words: column j holds the bytes of x[j]'s text and its
    separator, laid out as in ``_CSV_TEMPLATES``, with zero bytes between.

    Values of magnitude in (1e-6, 1e17) are set from their digits; the rest
    (±0, nan, ±inf, subnormals and magnitudes outside that range) take ``%``
    once per distinct value.
    """
    a = np.abs(x)
    fast = (a > 1e-6) & (a < 1e17)
    a[~fast] = 1.0
    e, d = _csv_digits(a)
    lead = d // 10**16
    d -= lead * 10**16
    groups = np.empty((4, len(d)), np.int16)
    for j, unit in enumerate((10**12, 10**8, 10**4, 1)):
        groups[j] = quotient = d // unit
        d -= quotient * unit
    significant = np.maximum((_CSV_LAST_NONZERO.take(groups) + _CSV_GROUP_START).max(axis=0), 1)
    words = _CSV_TEMPLATES.take((e + 6) * 17 + significant - 1, axis=1)
    words[0] += (lead.astype("<u8") << 48) + (x < 0).astype("<u8") * ord("-")
    for j in range(4):
        words[1 + j] += _CSV_QUADS.take(groups[j])
    slow = np.flatnonzero(~fast)
    if slow.size:
        bits, inverse = np.unique(x[slow].view(np.int64), return_inverse=True)
        texts = [CSV_FLOAT_FORMAT % value for value in bits.view(np.float64).tolist()]
        words[:, slow] = np.array(texts, "S48").view("<u8").reshape(-1, 6).T[:, inverse]
        words[5, slow] = ord(",") << 32
    words[5].reshape(-1, cols)[:, -1] -= (ord(",") - ord("\n")) << 32
    return words


def _csv_digits(a: np.ndarray) -> tuple:
    """Decade ``e`` and 17 significant digits ``d`` of positive ``a`` in
    (1e-6, 1e17): d is the integer in [1e16, 1e17) nearest to a*10**(16-e),
    ties to even, as ``%.17g`` rounds.

    a*10**(16-e) is formed exactly as hi + lo (Dekker's two-product; 10**k is
    an exact double for k <= 22). hi >= 1e16 > 2**53 is an even integer and
    |lo| <= ulp(hi)/2, so rounding lo half to even rounds hi + lo. No double
    in range lies within half a 17th digit below a power of ten, so d never
    carries into 1e17.
    """
    b = np.frexp(a)[1] + 19
    e = _CSV_DECADE.take(b) + (a >= _CSV_NEXT_POWER.take(b))
    k = 16 - e
    hi = a * _POW10.take(k)
    a_hi = a * _SPLITTER
    a_hi -= a_hi - a
    a_lo = a - a_hi
    lo = a_hi * _POW10_HI.take(k) - hi
    lo += a_hi * _POW10_LO.take(k)
    lo += a_lo * _POW10_HI.take(k)
    lo += a_lo * _POW10_LO.take(k)
    return e, hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _least_double_from_power(k: int) -> float:
    """The least double >= 10**k."""
    if k >= 0:
        return float(10**k)
    f = 1 / 10**-k  # correctly rounded
    num, den = f.as_integer_ratio()
    return math.nextafter(f, math.inf) if num * 10**-k < den else f


_POW10 = np.array([float(10**k) for k in range(23)])  # exact doubles
_SPLITTER = 2.0**27 + 1.0  # Veltkamp: splits a double into two 26-bit halves
_POW10_HI = _POW10 * _SPLITTER - (_POW10 * _SPLITTER - _POW10)
_POW10_LO = _POW10 - _POW10_HI
# [2**(b-1), 2**b) holds at most one power of ten, so a value with frexp
# exponent b (index b + 19; b is -19..57 on the fast range) has decade
# _CSV_DECADE + (value >= _CSV_NEXT_POWER)
_CSV_DECADE = np.array([math.floor(m * math.log10(2.0)) for m in range(-20, 57)])
_CSV_NEXT_POWER = np.array([_least_double_from_power(k) for k in range(-6, 18)])[_CSV_DECADE + 7]


def _csv_digit_tables() -> tuple:
    """Digit groups 0000..9999 as their raw digits 0..9 in the even bytes of a
    little-endian word, and the position 1..4 of each group's last nonzero
    digit (-16 for 0000, so that it never wins a maximum)."""
    digit = np.arange(10, dtype=np.uint8)
    quads = np.zeros((10, 10, 10, 10, 8), np.uint8)
    last = np.full((10, 10, 10, 10), -16, np.int8)
    for j, at in enumerate((np.s_[1:], np.s_[:, 1:], np.s_[:, :, 1:], np.s_[:, :, :, 1:])):
        quads[..., 2 * j] = digit.reshape((10,) + (1,) * (3 - j))
        last[at] = j + 1
    return quads.view("<u8").ravel(), last.ravel()


_CSV_QUADS, _CSV_LAST_NONZERO = _csv_digit_tables()
_CSV_GROUP_START = np.array([[1], [5], [9], [13]], np.int8)  # digit index + 1 before each group


def _csv_templates() -> np.ndarray:
    """The field bytes for every decade e in -6..16 and significant-digit
    count s in 1..17 (column 17*(e + 6) + s - 1), as (6, 391) words: "0.000"
    at bytes 1-5, digit i at 6 + 2i ("0", to which the digit is added) with
    a dot slot at 7 + 2i, "e-0k" at 40-43 and "," at 44; bytes the field does
    not use are 0. These are the ``%g`` rules: fixed notation for e >= -4,
    "d.ddde-0k" below, no trailing zeros after the dot."""
    t = np.zeros((23, 17, 48), np.uint8)
    t[:, :, 6:40:2] = np.where(np.arange(17) <= np.arange(17)[:, None], ord("0"), 0)
    for e in range(-6, 17):
        fields = t[e + 6]
        if e >= 0:  # integer digits 0..e, a dot if a digit follows
            fields[:, 6 : 7 + 2 * e : 2] = ord("0")
            fields[e + 1 :, 7 + 2 * e] = ord(".")
        elif e >= -4:  # "0." and -e - 1 zeros before the digits
            fields[:, 1 : 2 - e] = np.frombuffer(b"0.000"[: 1 - e], np.uint8)
        else:
            fields[1:, 7] = ord(".")
            fields[:, 40:44] = np.frombuffer(b"e-0%d" % -e, np.uint8)
    t[:, :, 44] = ord(",")
    return np.ascontiguousarray(t.reshape(-1, 48).view("<u8").T)


_CSV_TEMPLATES = _csv_templates()


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
