"""Uniform grids and sampled functions on them.

``GridFunction`` is the substrate every operator in the package works on:
vector-valued samples on the nodes ``t_i = a + i*h`` of a uniform grid.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import GridMismatchError, ValidationError

#: printf format used for all CSV output; round-trips IEEE doubles exactly.
CSV_FLOAT_FORMAT = "%.17g"
# rows that write_csv formats at a time: its temporaries and output, about
# 135 bytes a value, stay below a copy of the table (2048 were no faster)
_CSV_BLOCK_ROWS = 1024
# blocks of fewer values take one ``%``: it costs about 0.46 us a value, the
# numpy path 44 us a block plus 0.07 us a value (measured on 16..512-value
# blocks of 1 and 5 columns, one thread; even at 110 to 115)
_CSV_VECTOR_MIN = 112
#: most intervals a Grid accepts, checked before anything is allocated: a
#: scenario run at 2**20 peaks at up to 166 MiB ru_maxrss
MAX_INTERVALS = 2**20


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
        n = require_integer(self.n, 2, "grid requires an integer n >= 2")
        if n > MAX_INTERVALS:
            raise ValidationError(f"grid supports up to {MAX_INTERVALS} intervals, got {n}")
        object.__setattr__(self, "n", n)

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


def write_csv(path, header, columns) -> str:
    """Write a comma-separated table at full double precision and return the
    SHA-256 hex digest of the bytes written.

    ``columns`` are 1-D arrays (one column each) or 2-D blocks (one column
    per block column), all with the same number of rows. The bytes are those
    of ``np.savetxt`` with this header and format: every value is written as
    ``CSV_FLOAT_FORMAT % value``. Blocks of ``_CSV_BLOCK_ROWS`` rows are
    formatted at a time, by :func:`_csv_rows`, and digested as they are
    written, so the file is never read back.
    """
    columns = [np.asarray(c, dtype=float) for c in columns]
    lengths = {len(c) for c in columns}
    if len(lengths) != 1:
        raise ValidationError(f"CSV columns need one row count, got {sorted(lengths)}")
    text = (",".join(header) + "\n").encode()
    digest = hashlib.sha256(text)
    with open(path, "wb") as fh:
        fh.write(text)
        for start in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
            text = _csv_rows(np.column_stack([c[start : start + _CSV_BLOCK_ROWS] for c in columns]))
            fh.write(text)
            digest.update(text)
    return digest.hexdigest()


def _csv_rows(block: np.ndarray) -> bytes:
    """The CSV rows of a 2-D block, each value as ``CSV_FLOAT_FORMAT % value``.

    Blocks under ``_CSV_VECTOR_MIN`` values take one ``%``. Otherwise each
    value gets a field of 24 bytes (:func:`_csv_fields`), and the zero bytes
    between the fields' characters are dropped.
    """
    rows, cols = block.shape
    x = block.ravel()
    if x.size < _CSV_VECTOR_MIN:
        row = ",".join([CSV_FLOAT_FORMAT] * cols) + "\n"
        return ((row * rows) % tuple(x.tolist())).encode()
    # the fields are freed before the bytes are packed
    return _csv_fields(x, cols).tobytes().translate(None, b"\0")


def _csv_fields(x: np.ndarray, cols: int) -> np.ndarray:
    """The fields of row-major values ``x`` (``cols`` to a row) as (len(x), 3)
    little-endian words: row j holds the bytes of x[j]'s text and separator,
    with zero bytes between. 24 bytes fit the longest text of the fast range
    and its separator ("-0.000" and 17 digits, or "-d." 16 digits "e-05");
    a block with a 24-byte ``%`` text gets a fourth, zero word per field.

    Values of magnitude in (1e-6, 1e17) are set from their 17 digits. A
    template chosen by (decade, significant digits, sign) holds the text
    with "0" in the digit slots. The lead digit and the other 16, two words
    of raw digits, are shifted onto their slots (``_CSV_SHIFTS``); where the
    dot falls among the 16 (decades 1..16), the digits after it move up one
    byte. The rest (±0, nan, ±inf, subnormals and magnitudes outside that
    range) take ``%`` once per distinct value.
    """
    a = np.abs(x)
    # positive doubles (and nan above inf) order as their bits: slow unless 1e-6 < |x| < 1e17
    low, high = _CSV_FAST_BITS
    slow = (a.view(np.int64) - (low + 1)).view(np.uint64) >= high - low - 1
    a[slow] = 1.0
    row, d = _csv_digits(a)
    del a  # each temporary goes once used: 4096 values' worth adds up
    # d = lead digit, then d1..d16 as groups g0..g3 of 4: g0, g2 in first and g1, g3 in second
    second = np.empty((2, len(d)), np.int64)
    np.floor_divide(d, 10**8, out=second[0])
    np.subtract(d, second[0] * 10**8, out=second[1])
    del d
    first = second // 10**4
    second -= first * 10**4
    lead = first[0] // 10**4
    first[0] -= lead * 10**4
    words = _CSV_QUADS.take(first)  # d1..d8 and d9..d16, one byte each
    words |= _CSV_QUADS_HIGH.take(second)
    first[1] += 10**4  # g2 and g3 look up the second half of the position tables
    second[1] += 10**4
    index = row * 34  # the template's row
    index += np.maximum(_CSV_FIRST_LAST.take(first), _CSV_SECOND_LAST.take(second)).max(axis=0)
    index += x < 0
    del first, second
    fields = _CSV_TEMPLATES.take(index, axis=0)
    del index
    lead_shift, shift = _CSV_SHIFTS.take(row, axis=1)  # to the lead digit's and to d1's byte
    digits = np.empty_like(fields)
    np.left_shift(lead.view(np.uint64), lead_shift, out=digits[:, 0])
    digits[:, 0] |= words[0] << shift
    np.left_shift(words[1], shift, out=digits[:, 1])
    np.subtract(64, shift, out=shift)
    digits[:, 1] |= words[0] >> shift
    np.right_shift(words[1], shift, out=digits[:, 2])
    del lead_shift, shift, words, lead
    if row.max() > 6:  # decade 1 or more: the dot falls among the 16 digits
        after = _CSV_AFTER_DOT.take(row, axis=0)
        after &= digits
        digits ^= after
        digits[:, 1] |= after[:, 0] >> 56
        digits[:, 2] |= after[:, 1] >> 56
        after <<= 8
        digits |= after
        del after
    fields += digits
    del digits
    fields[cols - 1 :: cols, 2] ^= _CSV_COMMA ^ _CSV_NEWLINE
    slow = np.flatnonzero(slow)
    if slow.size:
        bits, inverse = np.unique(x[slow].view(np.int64), return_inverse=True)
        texts = np.array([CSV_FLOAT_FORMAT % value for value in bits.view(np.float64).tolist()], "S")
        if texts.itemsize > 23:  # e.g. "-1.2345678901234567e-300" leaves no byte for the separator
            fields = np.pad(fields, ((0, 0), (0, 1)))
        width = fields.shape[1]
        fields[slow] = texts.astype(f"S{8 * width}").view("<u8").reshape(-1, width)[inverse]
        fields[slow, -1] |= np.where(slow % cols == cols - 1, _CSV_NEWLINE, _CSV_COMMA)
    return fields


def _csv_digits(a: np.ndarray) -> tuple:
    """Decade row ``e + 6`` and 17 significant digits ``d`` of positive ``a``
    in (1e-6, 1e17): d is the integer in [1e16, 1e17) nearest to
    a*10**(16-e), ties to even, as ``%.17g`` rounds.

    a*10**(16-e) is formed exactly as hi + lo (Dekker's two-product, with a
    cut into its high 26 and low 27 bits; 10**k is an exact double for
    k <= 22). hi >= 1e16 > 2**53 is an even integer and
    |lo| <= ulp(hi)/2, so rounding lo half to even rounds hi + lo. No double
    in range lies within half a 17th digit below a power of ten, so d never
    carries into 1e17.
    """
    exponent = a.view(np.int64) >> 52
    row = _CSV_DECADE_ROW.take(exponent)
    row += a >= _CSV_NEXT_POWER.take(exponent)
    hi = _CSV_SCALE.take(row)
    hi *= a
    a_hi = (a.view(np.int64) & _CSV_HIGH_BITS).view(np.float64)
    a_lo = a - a_hi
    scale_hi = _CSV_SCALE_HI.take(row)
    scale_lo = _CSV_SCALE_LO.take(row)
    lo = a_hi * scale_hi
    lo -= hi
    lo += a_hi * scale_lo
    lo += a_lo * scale_hi
    lo += a_lo * scale_lo
    d = hi.astype(np.int64)
    d += np.rint(lo).astype(np.int64)
    return row, d


def _least_double_from_power(k: int) -> float:
    """The least double >= 10**k."""
    if k >= 0:
        return float(10**k)
    f = 1 / 10**-k  # correctly rounded
    num, den = f.as_integer_ratio()
    return math.nextafter(f, math.inf) if num * 10**-k < den else f


_CSV_HIGH_BITS = -(1 << 27)  # keeps the sign, the exponent and 26 significant bits
# 10**(16 - e) for decade row e + 6 (exact; 5**22 < 2**52) and its high and low 26 bits
_CSV_SCALE = np.array([float(10**k) for k in range(22, -1, -1)])
_CSV_SCALE_HI = (_CSV_SCALE.view(np.int64) & _CSV_HIGH_BITS).view(np.float64)
_CSV_SCALE_LO = _CSV_SCALE - _CSV_SCALE_HI
_CSV_FAST_BITS = tuple(np.array([1e-6, 1e17]).view(np.int64).tolist())


def _csv_decade_tables() -> tuple:
    """[2**(m-1023), 2**(m-1022)) holds at most one power of ten, so a value
    whose biased exponent is m has decade row ``_CSV_DECADE_ROW[m] + (value >=
    _CSV_NEXT_POWER[m])``; entries off the fast range (m 1003..1079) are 0."""
    m = np.arange(1003, 1080)
    low = np.floor((m - 1023) * math.log10(2.0)).astype(np.int64)  # no m*log10(2) is near a whole number
    row, power = np.zeros(2048, np.int64), np.zeros(2048)
    row[m] = low + 6
    power[m] = np.array([_least_double_from_power(k) for k in range(-6, 18)])[low + 7]
    return row, power


_CSV_DECADE_ROW, _CSV_NEXT_POWER = _csv_decade_tables()


def _csv_digit_tables() -> tuple:
    """Digit groups 0000..9999 as their raw digits 0..9 in bytes 0..3 (and
    in bytes 4..7) of a little-endian word, and the position tables of the
    groups g0, g2 (first) and g1, g3 (second), 10**4 entries a group: twice
    the index among d1..d16 of the group's last nonzero digit (4j + 1..4j + 4
    for group j), or 0 for 0000, where the lead digit may be the last."""
    digit = np.arange(10, dtype=np.uint8)
    quads = np.zeros((10, 10, 10, 10, 4), np.uint8)
    last = np.zeros((10, 10, 10, 10), np.int16)
    for k in range(4):  # digit k of the group; a later nonzero digit overrides
        quads[..., k] = digit.reshape((10,) + (1,) * (3 - k))
        last[(slice(None),) * k + (slice(1, None),)] = 2 * k + 2
    quads, last = quads.view("<u4").ravel().astype("<u8"), last.ravel()
    later = (last > 0) * np.int16(8)  # group j's digits come 4j later: 8j, doubled
    first, second = np.concatenate([last, last + 2 * later]), np.concatenate([last + later, last + 3 * later])
    return quads, quads << 32, first, second


_CSV_QUADS, _CSV_QUADS_HIGH, _CSV_FIRST_LAST, _CSV_SECOND_LAST = _csv_digit_tables()


def _csv_templates() -> tuple:
    """The field words of every (decade e in -6..16, significant digits s in
    1..17, sign) at row ((e + 6)*17 + s - 1)*2 + sign.

    These are the ``%g`` rules: the sign is byte 0; for -4 <= e < 0 "0." and
    -e - 1 zeros precede the digits at byte 6, otherwise the digits start at
    byte 1 with a dot after digit max(e, 0), if a digit follows, and
    "e-0k" at bytes 19-22 for e < -4. Each digit slot that ``%g`` writes
    holds "0", and byte 23 holds ",". Also, per decade, the shifts that put
    the lead digit and digits 1..16 (two words of raw digits) on their
    slots, and the mask of the bytes that then move up one past a dot among
    them (e >= 1).
    """
    t = np.zeros((23, 17, 24), np.uint8)  # (decade, s - 1, byte)
    zeros = np.tri(17, dtype=np.uint8) * ord("0")  # (s - 1, digit): "0" where digit < s
    shifts = np.zeros((2, 23), np.uint64)
    after_dot = np.zeros((23, 24), np.uint8)
    for e in range(-6, 17):
        fields = t[e + 6]
        if -4 <= e < 0:
            fields[:, 1 : 2 - e] = np.frombuffer(b"0.000"[: 1 - e], np.uint8)
            fields[:, 6:23] = zeros
            shifts[:, e + 6] = 48, 56
            continue
        k = max(e, 0)  # the dot follows digit k
        fields[:, 1 : k + 2] = ord("0")
        fields[k + 1 :, k + 2] = ord(".")
        fields[:, k + 3 : 19] = zeros[:, k + 1 :]
        shifts[:, e + 6] = 8, 16 if e > 0 else 24
        if e < -4:
            fields[:, 19:23] = np.frombuffer(b"e-0%d" % -e, np.uint8)
        elif e > 0:
            after_dot[e + 6, k + 2 :] = 0xFF
    t = t[:, :, None].repeat(2, axis=2)  # (decade, s - 1, sign, byte)
    t[..., 1, 0] = ord("-")
    t[..., 23] = ord(",")
    return t.reshape(-1, 24).view("<u8"), shifts, after_dot.view("<u8")


_CSV_TEMPLATES, _CSV_SHIFTS, _CSV_AFTER_DOT = _csv_templates()
_CSV_COMMA, _CSV_NEWLINE = (np.uint64(ord(c)) << np.uint64(56) for c in ",\n")


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


def require_vector(value, dim: int, what: str) -> np.ndarray:
    """``value`` as a float array of shape ``(dim,)`` (a scalar is one entry):
    ``GridMismatchError`` (:func:`require_dim`) for another shape,
    ``ValidationError`` naming ``what`` for a non-finite entry."""
    vector = np.atleast_1d(np.asarray(value, dtype=float))
    require_dim(len(vector) if vector.ndim == 1 else vector.shape, dim, what)
    if not np.isfinite(vector).all():
        raise ValidationError(f"{what} must be finite, got {vector}")
    return vector


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
