"""tools/ab.py's pairing and summary, on canned perfbench result lines: no git
worktree and no perfbench run."""
import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "ab", Path(__file__).resolve().parent.parent / "tools" / "ab.py"
)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

METRICS = [
    {"name": "compare_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "search_qps", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "index_mem_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]


def _line(compare_s, search_qps, correct=True, failed=0):
    """A result line as perfbench/run.py prints it last."""
    values = {"compare_s": (compare_s, "s"), "search_qps": (search_qps, "1/s")}
    values["index_mem_mb"] = (0.5856, "MB")
    metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}
    return json.dumps({"correct": correct, "attempted": 9, "failed": failed, "metrics": metrics})


def _runs(lines):
    return [
        {"pair": pair, "side": side, "result": None if line is None else json.loads(line)}
        for (pair, side), line in zip(ab.pair_order(len(lines) // 2), lines)
    ]


def test_pairs_alternate_which_side_goes_first():
    assert ab.pair_order(3) == [
        (0, "base"), (0, "change"),
        (1, "change"), (1, "base"),
        (2, "base"), (2, "change"),
    ]


def test_summary_of_canned_runs():
    # In run order: pair 0 base then change, pair 1 change then base, and so on.
    lines = [
        _line(1.0, 100.0), _line(0.9, 110.0),
        _line(1.1, 90.0), _line(1.0, 100.0),
        _line(1.2, 100.0), _line(1.2, 120.0),
        _line(0.8, 120.0), _line(0.9, 100.0),
    ]
    summary = ab.summarize(_runs(lines), METRICS)
    compare = summary["compare_s"]
    # base 1.0, 1.0, 1.2, 0.9 against change 0.9, 1.1, 1.2, 0.8.
    assert compare["pairs"] == 4
    assert compare["base_median"] == pytest.approx(1.0)
    assert compare["change_median"] == pytest.approx(1.0)
    assert compare["base_quartiles"] == pytest.approx((0.975, 1.05))
    assert compare["won"] == 2  # the tie at 1.2 counts for neither side
    assert compare["median_ratio"] == pytest.approx(0.95)  # of 0.9, 1.1, 1.0 and 0.8/0.9
    qps = summary["search_qps"]  # higher is better: 110, 90, 120, 120 against 100 each
    assert qps["won"] == 3 and qps["median_ratio"] == pytest.approx(1.15)
    memory = summary["index_mem_mb"]
    assert memory["won"] == 0 and memory["median_ratio"] == 1.0
    assert memory["base_quartiles"] == (0.5856, 0.5856)
    text = ab.format_summary(summary)
    assert [line.split()[0] for line in text.splitlines()] == [
        "metric", "compare_s", "search_qps", "index_mem_mb"
    ]
    assert "2/4" in text.splitlines()[1]


@pytest.mark.parametrize("lost", [1, 2])
def test_verdict_of_canned_runs(lost):
    # Ten pairs. search_qps: base 97-103, change 130 but for ``lost`` pairs at 90;
    # compare_s: base 1.0, change 1.3, beyond its 0.25 bound; memory unchanged.
    base_qps = [100, 102, 98, 101, 99, 100, 103, 97, 100, 100]
    change_qps = [90] * lost + [130] * (10 - lost)
    lines = []
    for pair, (b, c) in enumerate(zip(base_qps, change_qps)):
        sides = [_line(1.0, b), _line(1.3, c)]
        lines.extend(sides if pair % 2 == 0 else sides[::-1])
    summary = ab.summarize(_runs(lines), METRICS)
    compare, qps, memory = (summary[m["name"]] for m in METRICS)
    assert qps["won"] == 10 - lost
    assert qps["gain"] is (lost == 1) and not qps["worse"]
    assert compare["worse"] and not compare["gain"]
    assert not memory["gain"] and not memory["worse"]
    verdicts = [line.split()[-1] for line in ab.format_summary(summary).splitlines()]
    assert verdicts == ["verdict", "worse", "gain" if lost == 1 else "-", "-"]


def test_gain_needs_the_median_beyond_the_base_spread():
    # The change wins every pair, by less than the base's q1-q3 spread.
    base_qps = [80, 120, 90, 110, 100, 100]
    lines = []
    for pair, b in enumerate(base_qps):
        sides = [_line(1.0, b), _line(0.76, b + 5)]
        lines.extend(sides if pair % 2 == 0 else sides[::-1])
    summary = ab.summarize(_runs(lines), METRICS)
    assert summary["search_qps"]["won"] == 6 and not summary["search_qps"]["gain"]
    assert summary["compare_s"]["gain"]  # 0.76 against a base spread of 0
    assert not summary["compare_s"]["worse"]


def test_a_pair_without_both_results_is_left_out_and_reported():
    lines = [_line(1.0, 100.0), None, _line(0.9, 110.0), _line(1.0, 100.0)]
    runs = _runs(lines)
    summary = ab.summarize(runs, METRICS)
    assert summary["compare_s"]["pairs"] == 1
    assert summary["compare_s"]["won"] == 1
    assert ab.run_problems(runs) == ["pair 0 change: no result line"]
    assert ab.summarize(runs[:2], METRICS) == {}


def test_incorrect_or_failed_runs_are_problems():
    lines = [
        _line(1.0, 100.0), _line(1.0, 100.0, correct=False, failed=1),
        _line(1.0, 100.0, failed=2), _line(1.0, 100.0),
    ]
    assert ab.run_problems(_runs(lines)) == [
        "pair 0 change: correct=False failed=1",
        "pair 1 change: correct=True failed=2",
    ]
