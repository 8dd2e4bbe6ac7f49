"""The summary maths and the run order of ``tools/pair.py``, on fixed numbers."""

import argparse
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "pair", Path(__file__).resolve().parent.parent / "tools" / "pair.py"
)
pair = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pair)

PARENT = {1: 1.0, 2: 2.0, 3: 3.0, 4: 4.0, 5: 5.0, 6: 9.0}  # seed 6 has no pair
CHANGE = {1: 1.5, 2: 1.0, 3: 2.0, 4: 5.0, 5: 3.0}


def test_summary_of_a_lower_is_better_metric():
    got = pair.summarize(PARENT, CHANGE, "lower", 0.25)
    assert got == {
        "pairs": 5,
        "parent_median": 3.0,
        "parent_q1_q3": [1.5, 4.5],
        "change_median": 2.0,
        "change_q1_q3": [1.25, 4.0],  # 1 + 0.5 * (1.5 - 1), 3 + 0.5 * (5 - 3)
        "delta": pytest.approx(-1 / 3),
        "change_wins": 3,  # seeds 2, 3 and 5
        "bound": 0.25,
        "worse_than_bound": False,
    }


def test_summary_of_a_higher_is_better_metric():
    got = pair.summarize(PARENT, CHANGE, "higher", 0.25)
    assert got["change_wins"] == 2  # seeds 1 and 4
    assert got["worse_than_bound"]  # a third lower against a bound of a quarter
    assert not pair.summarize(PARENT, CHANGE, "higher", 0.5)["worse_than_bound"]


def test_a_tie_is_no_win():
    got = pair.summarize({1: 2.0, 2: 2.0}, {1: 2.0, 2: 1.0}, "lower", 0.1)
    assert (got["change_wins"], got["change_median"], got["delta"]) == (1, 1.5, -0.25)


def test_schedule_swaps_directories_and_alternates_the_first_side():
    assert pair.schedule([11, 12, 13, 14]) == [
        (11, ("change", "parent"), "x"),
        (12, ("parent", "change"), "x"),
        (13, ("change", "parent"), "y"),
        (14, ("parent", "change"), "y"),
    ]


def test_seed_ranges():
    assert pair.parse_seeds("411-420") == list(range(411, 421))
    with pytest.raises(argparse.ArgumentTypeError):
        pair.parse_seeds("5-5")


def test_claim_rule():
    """A claim is met only with the gain, 90% of the wins and a median gap
    above the parent's interquartile range, each checked on its own."""
    parent = {s: 10.0 + 0.1 * (s % 3) for s in range(1, 11)}  # IQR 0.2
    change = {s: v - 1.0 for s, v in parent.items()}  # a 10% drop, won in every pair
    got = pair.claim_met(pair.summarize(parent, change, "lower", 0.1), "lower", 5)
    assert got == {"pct": 5, "gain_at_least_pct": True, "wins_in_90_percent": True,
                   "gap_above_parent_iqr": True, "met": True}
    assert not pair.claim_met(pair.summarize(parent, change, "lower", 0.1), "lower", 12)["met"]
    two_losses = {**change, 1: 20.0, 2: 20.0}  # 8/10 wins, the median still -10%
    got = pair.claim_met(pair.summarize(parent, two_losses, "lower", 0.1), "lower", 5)
    assert (got["gain_at_least_pct"], got["wins_in_90_percent"], got["met"]) == (True, False, False)
    wide = {s: 10.0 + 3.0 * (s % 3) for s in range(1, 11)}  # IQR 6, median 13
    closer = {s: v - 2.0 for s, v in wide.items()}  # -15%, every pair, but a gap of 2
    got = pair.claim_met(pair.summarize(wide, closer, "lower", 0.1), "lower", 10)
    assert (got["gain_at_least_pct"], got["gap_above_parent_iqr"], got["met"]) == (True, False, False)
    rise = {s: v + 1.0 for s, v in parent.items()}
    assert pair.claim_met(pair.summarize(parent, rise, "higher", 0.1), "higher", 5)["met"]


def test_claim_argument():
    assert pair.parse_claim("grid-large:peak_rss_mb:3") == ("grid-large", "peak_rss_mb", 3.0)
    with pytest.raises(argparse.ArgumentTypeError):
        pair.parse_claim("grid-large:peak_rss_mb")


def test_differing_outputs_name_each_output_whose_bytes_differ():
    parent = {"dataset": "aa", "report.json": "bb", "zero_shot.csv": "cc"}
    assert pair.differing_outputs(parent, dict(parent)) == []
    change = {"dataset": "aa", "report.json": "b2", "proto.pse": "dd"}
    # a differing hash, and an output on one side only
    assert pair.differing_outputs(parent, change) == ["proto.pse", "report.json", "zero_shot.csv"]
