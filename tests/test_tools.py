"""The benchmark pair summary of ``tools/bench_record.py``, on made-up results."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _result(steps_per_s, setup_s=1.0, peak_rss_mb=40.0, failed=0):
    values = {"steps_per_s": steps_per_s, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
    metrics = {name: {"value": value} for name, value in values.items()}
    return {"metrics": metrics, "failed": failed, "attempted": 100}


def _compare(pairs, capsys):
    flagged = bench_record.compare(SPEC, [(_result(*a), _result(*b)) for a, b in pairs])
    return flagged, capsys.readouterr().out


def test_quartiles_are_inclusive():
    assert bench_record.quartiles([4.0]) == (4.0, 4.0, 4.0)
    assert bench_record.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)


def test_wins_count_the_better_direction_and_ties_count_for_neither(capsys):
    pairs = [((100.0, 2.0), (110.0, 1.0)), ((100.0, 1.0), (100.0, 1.0))]
    pairs.append(((100.0, 1.0), (90.0, 2.0)))
    flagged, out = _compare(pairs, capsys)
    assert not flagged
    assert "steps_per_s (1/s, higher is better): ref 100 [100, 100], checkout 100 [95, 105]" in out
    assert "checkout wins 1/3, median +0.0%" in out
    assert "FLAGGED" not in out


def test_a_median_worse_than_the_bound_is_flagged(capsys):
    # steps_per_s may fall by 25%, peak_rss_mb rise by 10%.
    flagged, out = _compare([((100.0, 1.0, 40.0), (76.0, 1.0, 43.9))], capsys)
    assert not flagged and "FLAGGED" not in out
    flagged, out = _compare([((100.0, 1.0, 40.0), (74.0, 1.0, 40.0))], capsys)
    assert flagged and "FLAGGED: 26.0% worse than the ref, beyond the bound 0.25" in out
    flagged, out = _compare([((100.0, 1.0, 40.0), (100.0, 1.0, 44.4))], capsys)
    assert flagged and out.count("FLAGGED") == 1
    assert "FLAGGED: 11.0% worse than the ref, beyond the bound 0.1" in out


def test_more_failures_than_the_ref_are_flagged(capsys):
    flagged, out = _compare([((100.0, 1.0, 40.0, 0), (100.0, 1.0, 40.0, 1))], capsys)
    assert flagged and "failed: ref 0/100, checkout 1/100" in out
    flagged, _ = _compare([((100.0, 1.0, 40.0, 1), (100.0, 1.0, 40.0, 1))], capsys)
    assert not flagged


def _steps_gain_rule(new, capsys):
    """The gain-rule line printed under steps_per_s, the ref's runs being 100-109."""
    _, out = _compare([((100.0 + k,), (value,)) for k, value in enumerate(new)], capsys)
    lines = out.splitlines()
    assert lines[0].startswith("steps_per_s ")
    return lines[1]


def test_the_gain_rule_is_met_by_nine_tenths_of_wins_beyond_the_ref_spread(capsys):
    # The ref's quartiles are 102.25 and 106.75, so its interquartile range is 4.5.
    line = _steps_gain_rule([110.0 + k for k in range(10)], capsys)
    assert line.startswith("  gain rule met: wins 10/10 (needs 9/10 of the pairs)")
    assert "median better by 10 (needs more than the ref's interquartile range 4.5)" in line


def test_the_gain_rule_is_not_met_by_eight_wins_of_ten(capsys):
    line = _steps_gain_rule([110.0 + k for k in range(8)] + [107.0, 108.0], capsys)
    assert line.startswith("  gain rule not met: wins 8/10 ")


def test_the_gain_rule_is_not_met_by_wins_inside_the_ref_spread(capsys):
    line = _steps_gain_rule([101.0 + k for k in range(10)], capsys)
    assert line.startswith("  gain rule not met: wins 10/10 ")
    assert "median better by 1 " in line
