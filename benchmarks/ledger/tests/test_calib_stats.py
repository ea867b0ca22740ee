"""Calibration arithmetic and the exact order statistics."""

import math
import random

import pytest

from benchmarks.ledger.calib import (
    CALIB_REF_S,
    calibrate,
    ref_seconds_of,
    to_ref_seconds,
)
from benchmarks.ledger.stats import nearest_rank, quartile_summary


def test_ref_seconds_is_host_time_in_units_of_the_loop():
    # a rep that took 10 loops' worth of time is 10 * CALIB_REF_S ...
    assert to_ref_seconds(1.0, 0.1, 0.1) == pytest.approx(10 * CALIB_REF_S)
    # ... whatever the machine speed was while it ran
    assert to_ref_seconds(2.0, 0.2, 0.2) == pytest.approx(10 * CALIB_REF_S)
    # the bracket is the mean of the loop before and after
    assert to_ref_seconds(1.5, 0.1, 0.2) == pytest.approx(10 * CALIB_REF_S)
    with pytest.raises(ValueError):
        to_ref_seconds(1.0, 0.0, 0.0)


def test_calibrate_and_bracket_measure_positive_time():
    assert 0.0 < calibrate() < 5.0
    assert ref_seconds_of(lambda: sum(range(20000))) > 0.0


def test_nearest_rank_matches_a_sorted_list():
    rng = random.Random(3)
    values = [rng.random() for _ in range(1001)]
    ordered = sorted(values)
    for q in (0.01, 0.5, 0.9, 0.99, 0.999, 1.0):
        expected = ordered[math.ceil(q * len(ordered)) - 1]
        assert nearest_rank(values, q) == expected
    assert nearest_rank([5.0], 0.99) == 5.0
    assert nearest_rank([1, 2, 3, 4], 0.5) == 2  # an observed value
    with pytest.raises(ValueError):
        nearest_rank([], 0.5)
    with pytest.raises(ValueError):
        nearest_rank([1.0], 0.0)


def test_quartile_summary():
    summary = quartile_summary([10.0, 11.0, 12.0, 13.0, 14.0])
    assert summary["median"] == 12.0 and summary["n"] == 5
    assert summary["spread"] == pytest.approx(
        (summary["q3"] - summary["q1"]) / 12.0)
    assert quartile_summary([3.0])["spread"] == 0.0
