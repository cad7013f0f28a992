"""Acceptance gate: every numbered criterion at its stated tolerance.

One test per criterion; each prints its pass/fail line (visible with -s or
on failure). Criterion 6 checks a refinement property that the underlying
conservation claim does not support for the pinned problem - the measured
drift plateaus at an O(0.5) value confirmed by two independent solvers - so
it fails honestly rather than being weakened; see README's "Known red".

The refinement criteria share one rate check, ``acceptance._rates``; the
positive controls below show that it rejects criterion 6's drifts and a ratio
outside criterion 1's band, and passes a quantity falling 4x per step.
"""

import pytest

from fracvar.acceptance import CRITERIA, _rates, run_criterion


@pytest.fixture(scope="module")
def shared_cache():
    return {}


@pytest.mark.parametrize("criterion", CRITERIA, ids=[f"criterion_{f._criterion[0]:02d}" for f in CRITERIA])
def test_acceptance_criterion(criterion, shared_cache):
    result = run_criterion(criterion, shared_cache)
    print(result.line())
    assert result.within_budget, (
        f"criterion {result.index} exceeded its runtime budget: "
        f"{result.seconds:.2f}s > {result.budget:.0f}s"
    )
    assert result.passed, result.line()


def test_criteria_are_numbered_once_in_definition_order():
    assert [fn._criterion[0] for fn in CRITERIA] == list(range(1, 12))
    lines = [fn.__code__.co_firstlineno for fn in CRITERIA]
    assert lines == sorted(lines)


def test_every_budget_is_at_most_five_seconds():
    # each criterion runs in milliseconds, so a 1000x slower solver fails the suite
    assert all(fn._criterion[2] <= 5.0 for fn in CRITERIA)


def test_rates_rejects_criterion_6_measured_drifts():
    drifts = _rates("drifts", [0.4292, 0.4551, 0.4746], float, 1.5, fmt=".4f")
    assert not drifts.passed
    assert drifts.detail == "drifts=['0.4292', '0.4551', '0.4746'] ratios=['0.94', '0.96']"


def test_rates_passes_a_fourfold_fall():
    errors = _rates("errors", [4.0**-k for k in range(4)], float, 3.5)
    assert errors.passed
    assert errors.ratios == [4.0, 4.0, 4.0]


def test_rates_band_rejects_a_ratio_above_criterion_1s_band():
    assert not _rates("errors", [4.0, 1.0], float, 2.0**1.4, 2.0**1.6).passed
    assert _rates("errors", [2.0**1.5, 1.0], float, 2.0**1.4, 2.0**1.6).passed
    assert not _rates("errors", [2.0**1.3, 1.0], float, 2.0**1.4, 2.0**1.6).passed


def test_rates_rejects_a_non_finite_ratio():
    assert not _rates("drifts", [float("nan"), 1.0], float, 1.5).passed
