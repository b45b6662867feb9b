"""The summary of ``tools/bench_pairs.py``, on canned benchmark reports: no benchmark runs."""

import json
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


@pytest.fixture
def bench_pairs():
    """The tool, run from its source file, so that no bytecode lands next to it."""
    path = ROOT / "tools" / "bench_pairs.py"
    module = types.ModuleType("bench_pairs")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def _stdout(**values):
    """A benchmark run's stdout: a line of its own, then the report line with these end-to-end values."""
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in END_TO_END}
    return "failed: nothing\n" + json.dumps({"correct": True, "attempted": 40, "failed": 0, "metrics": metrics}) + "\n"


def test_summary_counts_wins_in_each_metrics_direction(bench_pairs):
    assert [m["name"] for m in END_TO_END] == ["setup_s", "call_s", "points_per_s", "peak_rss_mb"]
    pairs = []
    for i in range(10):
        rate = 350e3 + 5e3 * i
        base = _stdout(setup_s=0.5, call_s=0.020 + 0.001 * i, points_per_s=rate, peak_rss_mb=80.0 + i)
        # the change: 30% more points/s but in pair 0, a faster call in 8 pairs, the same setup, 0.1 MB more
        change = _stdout(setup_s=0.5, call_s=0.015 + 0.001 * i if i < 8 else 0.040, peak_rss_mb=80.1 + i,
                         points_per_s=rate * 1.3 if i else rate * 0.99)
        pairs.append((bench_pairs.report(base), bench_pairs.report(change)))
    rows = {row["name"]: row for row in bench_pairs.summarize(pairs, END_TO_END)}

    rates = [350e3 + 5e3 * i for i in range(10)]
    assert rows["points_per_s"]["base"] == bench_pairs.quartiles(rates)
    assert rows["points_per_s"]["base"][1] == pytest.approx(372.5e3)
    assert (rows["points_per_s"]["wins"], rows["points_per_s"]["claim"]) == (9, True)
    # lower is better: 8 wins of 10 fall short of nine tenths
    assert (rows["call_s"]["wins"], rows["call_s"]["claim"]) == (8, False)
    # ties count for neither side
    assert (rows["setup_s"]["wins"], rows["setup_s"]["claim"]) == (0, False)
    assert (rows["peak_rss_mb"]["wins"], rows["peak_rss_mb"]["unit"]) == (0, "MB")


def test_summary_claims_only_past_the_base_spread(bench_pairs):
    # the change wins every pair, by less than the distance between the base's quartiles
    pairs = []
    for i in range(10):
        values = dict(setup_s=0.5, call_s=0.010 * (i + 1), points_per_s=1e5, peak_rss_mb=80.0)
        base = bench_pairs.report(_stdout(**values))
        change = bench_pairs.report(_stdout(**dict(values, call_s=values["call_s"] - 0.001)))
        pairs.append((base, change))
    rows = {row["name"]: row for row in bench_pairs.summarize(pairs, END_TO_END)}
    assert rows["call_s"]["base"] == pytest.approx((0.0275, 0.055, 0.0825))
    assert (rows["call_s"]["wins"], rows["call_s"]["claim"]) == (10, False)
    # one pair: its values are the quartiles
    row = bench_pairs.summarize(pairs[:1], END_TO_END)[1]
    assert row["base"] == (0.01, 0.01, 0.01)


def test_summary_holds_each_median_to_its_bound(bench_pairs):
    bounds = {m["name"]: m["bound"] for m in END_TO_END}
    assert bounds == {"setup_s": 0.25, "call_s": 0.25, "points_per_s": 0.25, "peak_rss_mb": 0.1}
    # medians whose bounds are exact in binary floats
    base = dict(setup_s=0.5, call_s=0.015625, points_per_s=4e5, peak_rss_mb=80.0)
    cases = [
        # (the change's values, the metrics past their bound): worse by under, at and past each bound
        (dict(setup_s=0.62, call_s=0.0195, points_per_s=3.1e5, peak_rss_mb=87.9), set()),
        (dict(setup_s=0.625, call_s=0.01953125, points_per_s=3e5, peak_rss_mb=88.0), set()),
        (dict(setup_s=0.63, call_s=0.0196, points_per_s=2.9e5, peak_rss_mb=88.1),
         {"setup_s", "call_s", "points_per_s", "peak_rss_mb"}),
        # better in every metric, by any amount
        (dict(setup_s=0.1, call_s=0.001, points_per_s=4e7, peak_rss_mb=20.0), set()),
    ]
    for values, past in cases:
        pairs = [(bench_pairs.report(_stdout(**base)), bench_pairs.report(_stdout(**values)))] * 3
        rows = bench_pairs.summarize(pairs, END_TO_END)
        assert {row["name"] for row in rows if not row["within_bound"]} == past
    # the medians decide, not single pairs: one pair far past the bound, two pairs within it
    pairs = [(bench_pairs.report(_stdout(**base)), bench_pairs.report(_stdout(**dict(base, call_s=call_s))))
             for call_s in (0.015625, 0.016, 0.1)]
    assert bench_pairs.summarize(pairs, END_TO_END)[1]["within_bound"]


def test_summary_holds_the_changes_spread_to_the_bound(bench_pairs):
    # the base's median 0.015625 allows a spread of 0.25 * 0.015625 = 0.00390625 in call_s
    base = dict(setup_s=0.5, call_s=0.015625, points_per_s=4e5, peak_rss_mb=80.0)

    def steady(calls):
        pairs = [(bench_pairs.report(_stdout(**base)), bench_pairs.report(_stdout(**dict(base, call_s=c))))
                 for c in calls]
        return {row["name"]: row["steady"] for row in bench_pairs.summarize(pairs, END_TO_END)}

    # quartiles 0.0078125 and 0.01171875 of four runs: a spread of exactly the allowance, then just past it
    assert steady([0.0078125, 0.0078125, 0.01171875, 0.01171875])["call_s"]
    assert steady([0.0078125, 0.0078125, 0.01172, 0.01172]) == {
        "setup_s": True, "call_s": False, "points_per_s": True, "peak_rss_mb": True}
    # the spread is the change's own, whichever way the median moves: a faster change that scatters is unsteady
    assert not steady([0.001, 0.001, 0.008, 0.008])["call_s"]
