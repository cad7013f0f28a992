import hashlib
import math
import re
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from fracvar import grid
from fracvar.errors import GridMismatchError, ValidationError
from fracvar.grid import (
    Grid,
    GridFunction,
    central_difference,
    require_close,
    require_integer,
    require_on,
    trapezoid,
    trapezoid_weights,
    write_csv,
)
from fracvar.scenarios import Scenario, run_scenario


def test_grid_nodes_and_spacing():
    g = Grid(0.0, 1.0, 4)
    assert g.h == 0.25
    npt.assert_allclose(g.nodes(), [0.0, 0.25, 0.5, 0.75, 1.0])


@pytest.mark.parametrize(
    "a,b,n",
    [
        (1.0, 0.0, 4),
        (0.0, 0.0, 4),
        (0.0, 1.0, 1),
        (0.0, 1.0, 2.5),
        (0.0, 1.0, math.inf),
        (0.0, 1.0, math.nan),
    ],
)
def test_grid_rejects_bad_parameters(a, b, n):
    with pytest.raises(ValidationError):
        Grid(a, b, n)


def test_gridfunction_shapes():
    g = Grid(0.0, 1.0, 4)
    f = GridFunction(g, np.arange(5.0))
    assert f.dim == 1
    assert f.values.shape == (5, 1)
    f2 = GridFunction(g, np.zeros((5, 3)))
    assert f2.dim == 3
    with pytest.raises(GridMismatchError):
        GridFunction(g, np.zeros(6))


def test_from_callable_vector():
    g = Grid(0.0, 1.0, 8)
    f = GridFunction.from_callable(g, lambda t: np.stack([t, t**2], axis=1))
    assert f.dim == 2
    npt.assert_allclose(f.column(1), g.nodes() ** 2)


def test_from_callable_rejects_component_major_layout():
    g = Grid(0.0, 1.0, 8)
    with pytest.raises(GridMismatchError):
        GridFunction.from_callable(g, lambda t: np.stack([t, t**2]))


def test_from_callable_keeps_node_major_layout_when_dim_equals_node_count():
    g = Grid(0.0, 1.0, 4)
    powers = lambda t: np.stack([t**k for k in range(5)], axis=1)
    f = GridFunction.from_callable(g, powers)
    assert f.dim == 5
    npt.assert_array_equal(f.values, powers(g.nodes()))


def test_csv_round_trip_is_exact(tmp_path):
    g = Grid(0.0, 1.0, 16)
    rng = np.random.default_rng(7)
    values = rng.standard_normal((17, 2))
    path = tmp_path / "f.csv"
    write_csv(path, ["t", "v0", "v1"], [g.nodes(), values])
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    npt.assert_array_equal(back, np.column_stack([g.nodes(), values]))
    header = path.read_text().splitlines()[0]
    assert header == "t,v0,v1"


SPECIAL_VALUES = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300, -3.7e-301, 1.7976931348623157e308]


def mixed_table(rows):
    """A column over all decades and a standard-normal block with special values."""
    rng = np.random.default_rng(rows)
    column = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 301, rows)
    block = rng.standard_normal((rows, 3))
    cells = rng.choice(rows * 3, size=min(rows * 3, len(SPECIAL_VALUES)), replace=False)
    block.flat[cells] = SPECIAL_VALUES[: len(cells)]
    return [[column, block]]


def as_table(values, cols=4):
    """``values`` (padded with 1.0) as one ``cols``-column table."""
    values = np.concatenate([values, np.ones(-len(values) % cols)])
    return [[values.reshape(-1, cols)]]


def seventeenth_digit_ties():
    """Doubles whose 17-digit rounding is an exact tie: n + 1/4 and n + 3/4 for
    n in [2**50, 2**51), and in every decade from 1e-6 up m / 2**s for odd m
    with m * 5**s an 18-digit number (whose last digit is then a 5)."""
    rng = np.random.default_rng(50)
    n = rng.integers(2**50, 2**51, 1000).astype(float)
    ties = [n + 0.25, n + 0.75, -(n + 0.75)]
    for s in range(2, 24):
        low, high = -(-(10**17) // 5**s), min(10**18 // 5**s, 2**53)
        m = 2 * (rng.integers(low, high, 200) // 2) + 1
        ties.append(np.ldexp(m[m < high].astype(float), -s))
    return as_table(np.concatenate(ties))


def powers_of_ten():
    """``10.0**k`` for k = -7..17, the double above it and the eight below it:
    none of those below rounds up to 10**k at 17 digits, so each stays in its
    decade."""
    values = []
    for k in range(-7, 18):
        p = 10.0**k
        values += [p, np.nextafter(p, np.inf)]
        for _ in range(8):
            p = np.nextafter(p, 0.0)
            values.append(p)
    values = np.array(values)
    return as_table(np.concatenate([values, -values]))


def bit_patterns():
    """Seeded random bit patterns (every exponent, subnormals, nan payloads),
    random digits over the fast decades, and +-0, nan and +-inf."""
    rng = np.random.default_rng(64)
    bits = rng.integers(0, 2**64, 6000, dtype=np.uint64).view(np.float64)
    decades = rng.standard_normal(6000) * 10.0 ** rng.uniform(-8.0, 18.0, 6000)
    special = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, 1e-6, 1e17, 1e-5, 1e-4, 1e16]
    return as_table(np.concatenate([bits, decades, special, np.zeros(300)]))


def straddling(rows):
    """4-column tables of ``rows`` rows and of one more."""
    values = np.linspace(-7.3, 7.3, (rows + 1) * 4).reshape(-1, 4)
    return lambda: [[values[:-1]], [values]]


def every_template():
    """For each decade e in -6..16 and significant-digit count s in 1..17 a
    double whose ``%.17g`` text has exactly s digits, with both signs (no
    double prints so for s = 1 and e = -5 or -6). They include the 24-byte
    fields (negative, 17 digits, e = -4, -5 and -6) and a dot after each
    digit group boundary (e = 4, 8 and 12)."""
    rng = np.random.default_rng(17)
    values = []
    for e in range(-6, 17):
        for s in range(1, 18):
            # about half of the s-digit decimals print back with s digits
            for digits in rng.integers(10 ** (s - 1), 10**s, 200).tolist():
                x = float(f"{digits}e{e - s + 1}")
                mantissa, exponent = ("%.16e" % x).split("e")
                if len(mantissa.replace(".", "").rstrip("0")) == s and int(exponent) == e:
                    values.append(x)
                    break
    assert len(values) == 23 * 17 - 2
    return as_table(np.array(values + [-x for x in values]))


CSV_TABLES = {
    **{str(rows): (lambda rows=rows: mixed_table(rows)) for rows in (1, 1023, 1024, 1025, 5000)},
    "17th-digit-ties": seventeenth_digit_ties,
    "powers-of-ten": powers_of_ten,
    "bit-patterns": bit_patterns,
    "every-template": every_template,
    # the first table's values take one ``%``, the second's are formatted by numpy
    "vector-threshold": straddling(-(-grid._CSV_VECTOR_MIN // 4) - 1),
    # one full block, then a full block and a row
    "block-boundary": straddling(grid._CSV_BLOCK_ROWS),
}


@pytest.mark.parametrize("case", sorted(CSV_TABLES))
def test_write_csv_bytes_equal_savetxt(tmp_path, case):
    for columns in CSV_TABLES[case]():
        header = [f"c{j}" for j in range(np.column_stack(columns).shape[1])]
        digest = write_csv(tmp_path / "ours.csv", header, columns)
        np.savetxt(
            tmp_path / "savetxt.csv",
            np.column_stack(columns),
            fmt="%.17g",
            delimiter=",",
            header=",".join(header),
            comments="",
        )
        assert (tmp_path / "ours.csv").read_bytes() == (tmp_path / "savetxt.csv").read_bytes()
        assert digest == hashlib.sha256((tmp_path / "ours.csv").read_bytes()).hexdigest()


def test_friction_scenario_csvs_equal_savetxt(tmp_path):
    # each value as it would be loaded back and written by numpy
    params = dict(
        mass=1.0, gamma=0.5, potential="0,0,2", q0=1.0, v0=0.05, horizon=2.0, steps=4096,
        window_a=0.0, window_b=1.0, window_n=2048, shrink_windows=5,
    )
    manifest = run_scenario(Scenario("friction", {k: str(v) for k, v in params.items()}), tmp_path)
    for entry in manifest.files:
        path = tmp_path / entry["name"]
        header = path.read_text().splitlines()[0]
        np.savetxt(
            tmp_path / "savetxt.csv",
            np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2),
            fmt="%.17g",
            delimiter=",",
            header=header,
            comments="",
        )
        assert path.read_bytes() == (tmp_path / "savetxt.csv").read_bytes(), entry["name"]


def test_write_csv_peak_memory_stays_within_the_whole_table_writer(tmp_path):
    # the shape of the friction scenario's diagnostics.csv. 780,223 B is this
    # test's peak for the writer that formatted a copy of the whole table with
    # ``%`` (numpy 2.4, CPython 3.11); the numpy blocks must stay under it
    rng = np.random.default_rng(3)
    columns = [np.linspace(0.0, 2.0, 16385), rng.standard_normal((16385, 3))]
    write_csv(tmp_path / "warm.csv", list("tabc"), columns)
    tracemalloc.start()
    try:
        write_csv(tmp_path / "t.csv", list("tabc"), columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 780_223


def test_central_difference_exact_for_quadratics():
    g = Grid(0.0, 2.0, 10)
    t = g.nodes()
    d = central_difference(3.0 * t**2 - t, g.h)
    npt.assert_allclose(d, 6.0 * t - 1.0, atol=1e-12)


def test_central_difference_of_a_constant_is_exactly_zero():
    # the one-sided ends are differences from the end node, so no round-off
    # is left for iterated differences to amplify
    g = Grid(0.0, 1.0, 8)
    for c in np.random.default_rng(12).uniform(0.5, 1.5, size=1000):
        npt.assert_array_equal(central_difference(np.full((9, 1), c), g.h), 0.0)


def test_trapezoid_basics():
    g = Grid(0.0, 1.0, 100)
    t = g.nodes()
    assert trapezoid(t, g.h) == pytest.approx(0.5, abs=1e-12)
    w = trapezoid_weights(g.n, g.h)
    assert w.sum() == pytest.approx(1.0, abs=1e-14)


def test_require_on_names_what_is_wrong():
    g = Grid(0.0, 1.0, 4)
    f = GridFunction(g, np.zeros((5, 2)))
    require_on(f, g, 2, "f")
    with pytest.raises(GridMismatchError, match="^f lives on Grid"):
        require_on(f, Grid(0.0, 2.0, 4), 2, "f")
    with pytest.raises(GridMismatchError, match="^f has dimension 2, expected 1"):
        require_on(f, g, 1, "f")
    f.values[3, 1] = math.nan
    with pytest.raises(ValidationError, match=r"^f contains non-finite values \(first at node 3\)"):
        require_on(f, g, 2, "f")


@pytest.mark.parametrize("value", [math.nan, math.inf, 2.5, 1], ids=["nan", "inf", "2.5", "1"])
def test_require_integer_rejects_all_but_whole_numbers_from_the_minimum(value):
    with pytest.raises(ValidationError, match=f"^k must be >= 2, got {value}$"):
        require_integer(value, 2, "k must be >= 2")


def test_require_close_passes_within_a_per_entry_tolerance():
    require_close([1.0, 2.0], [1.05, 2.0], [0.1, 0.0], "unused")
    require_close(np.zeros((3, 2)), 0.0, 0.0, "unused")
    require_close([1.0], [2.0], math.inf, "unused")


# RuntimeWarnings are errors in this suite, so each case also shows the
# check runs without one
@pytest.mark.parametrize(
    "got, want, tol, worst",
    [
        ([0.0, 1.0, 2.0], [0.0, 1.0, 2.5], 0.1, "[2]"),
        ([[0.0, 0.5], [0.0, 0.0]], 0.0, [[1.0, 0.1], [1.0, 1.0]], "[0, 1]"),
        ([0.0, math.nan, 2.0], [0.0, 1.0, 9.0], 0.1, "[1]"),
        ([1.0, 1.0], [1.0, 1.0], [0.1, math.nan], "[1]"),
        ([0.0, math.inf], [0.0, 1.0], 1e300, "[1]"),
        ([math.inf, 1.0], [math.inf, 1.0], 0.1, "[0]"),
        ([0.0, 1.0], [math.inf, math.inf], math.inf, "[0]"),
    ],
    ids=["gap", "per-entry-tol", "nan-beats-a-wider-gap", "nan-tol", "inf", "inf-inf", "inf-tol"],
)
def test_require_close_names_the_worst_entry(got, want, tol, worst):
    message = re.escape(f"off (worst entry at index {worst})")
    with pytest.raises(ValidationError, match=f"^{message}$"):
        require_close(got, want, tol, "off")
