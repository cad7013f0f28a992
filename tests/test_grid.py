import math
import re

import numpy as np
import numpy.testing as npt
import pytest

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


@pytest.mark.parametrize("rows", [1, 1023, 1024, 1025, 5000])
def test_write_csv_bytes_equal_savetxt(tmp_path, rows):
    rng = np.random.default_rng(rows)
    column = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 301, rows)
    block = rng.standard_normal((rows, 3))
    cells = rng.choice(rows * 3, size=min(rows * 3, len(SPECIAL_VALUES)), replace=False)
    block.flat[cells] = SPECIAL_VALUES[: len(cells)]
    header = ["t", "a", "b", "c"]
    write_csv(tmp_path / "ours.csv", header, [column, block])
    np.savetxt(
        tmp_path / "savetxt.csv",
        np.column_stack([column, block]),
        fmt="%.17g",
        delimiter=",",
        header=",".join(header),
        comments="",
    )
    assert (tmp_path / "ours.csv").read_bytes() == (tmp_path / "savetxt.csv").read_bytes()


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
