import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), "..", "tools", "ab_pairs.py")
_spec = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)


def pair(old, new, equal=True):
    return {"parent": old, "change": new, "outputs_equal": equal}


class TestSummarize:
    def test_medians_quartiles_and_wins(self):
        pairs = [pair({"rate": a, "time": c}, {"rate": b, "time": d})
                 for a, b, c, d in ((10, 15, 3.0, 2.0), (12, 18, 3.2, 2.1),
                                    (11, 11, 3.1, 3.5), (13, 20, 2.9, 2.0),
                                    (9, 16, 3.3, 1.9))]
        got = ab_pairs.summarize(pairs, {"rate": "higher", "time": "lower"})
        rate, time = got["metrics"]["rate"], got["metrics"]["time"]
        assert got["pairs"] == 5 and got["outputs_equal"] == 5
        assert rate["parent_median"] == 11 and rate["change_median"] == 16
        assert rate["parent_quartiles"] == (10, 12)
        assert rate["change_quartiles"] == (15, 18)
        assert rate["ratio"] == pytest.approx(16 / 11)
        # the tie in pair 2 counts for neither side
        assert (rate["wins"], rate["losses"]) == (4, 0)
        assert not rate["claimable"]  # 4 of 5 wins is below nine tenths
        # lower is better: pair 2 is a loss
        assert (time["wins"], time["losses"]) == (4, 1)
        assert time["parent_median"] == 3.1 and time["change_median"] == 2.0

    def test_claim_needs_gap_beyond_parent_spread(self):
        wide = [pair({"rate": a}, {"rate": a + 1}) for a in (10, 20, 30, 40)]
        got = ab_pairs.summarize(wide, {"rate": "higher"})
        assert got["metrics"]["rate"]["wins"] == 4
        assert not got["metrics"]["rate"]["claimable"]
        narrow = [pair({"rate": a}, {"rate": a + 5}) for a in (10, 11, 12, 13)]
        got = ab_pairs.summarize(narrow, {"rate": "higher"})
        assert got["metrics"]["rate"]["claimable"]

    def test_single_pair_and_output_disagreement(self):
        got = ab_pairs.summarize([pair({"t": 2.0}, {"t": 1.0}, equal=False)],
                                 {"t": "lower"})
        assert got["outputs_equal"] == 0
        assert got["metrics"]["t"]["parent_quartiles"] == (2.0, 2.0)
        assert got["metrics"]["t"]["wins"] == 1


def test_parse_seeds():
    assert ab_pairs.parse_seeds("3") == [3]
    assert ab_pairs.parse_seeds("0-3") == [0, 1, 2, 3]
    assert ab_pairs.parse_seeds("1,4-5,9") == [1, 4, 5, 9]
