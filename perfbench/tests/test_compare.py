import json
import os

import pytest

import compare

SPEC = {"end_to_end": [
    {"name": "time_to_factors_s", "unit": "s", "better": "lower", "bound": 0.1},
]}


def test_quartiles_match_statistics_quantiles():
    assert compare.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)
    assert compare.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_spread_is_interquartile_distance_over_median():
    assert compare.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(1.0)
    assert compare.spread([2.0, 2.0, 2.0]) == 0.0


def test_upper_percentile_keeps_ten_samples_beyond_it():
    assert compare.upper_percentile(list(range(19))) is None
    percent, value = compare.upper_percentile([float(v) for v in range(1, 21)])
    assert (percent, value) == (50, 10.0)
    percent, value = compare.upper_percentile([float(v) for v in range(1, 101)])
    assert (percent, value) == (90, 90.0)


def _runs(values):
    return dict(enumerate(values))


def test_verdict_worse_when_median_moves_past_bound():
    base = _runs([1.0, 1.01, 0.99, 1.0])
    assert compare.verdict(base, _runs([1.2, 1.21, 1.19, 1.2]), "lower", 0.1) == "worse"
    # For a higher-is-better metric the same move is an improvement.
    assert compare.verdict(base, _runs([1.2, 1.21, 1.19, 1.2]), "higher", 0.1) == "better"


def test_verdict_better_needs_nine_in_ten_wins_and_a_gap_beyond_spread():
    base = _runs([1.0 + 0.001 * i for i in range(10)])
    faster = _runs([0.9 + 0.001 * i for i in range(10)])
    assert compare.verdict(base, faster, "lower", 0.1) == "better"
    # Eight wins of ten are not enough.
    mixed = dict(faster)
    mixed[0], mixed[1] = 1.5, 1.5
    assert compare.verdict(base, mixed, "lower", 0.5) == "unchanged"


def test_verdict_unchanged_within_bound_and_tight_spread():
    base = _runs([1.0, 1.01, 0.99, 1.0, 1.0])
    same = _runs([1.01, 1.0, 1.0, 0.99, 1.02])
    assert compare.verdict(base, same, "lower", 0.1) == "unchanged"


def test_verdict_unresolved_when_base_spread_exceeds_bound():
    base = _runs([0.5, 1.0, 1.5, 1.0, 0.7, 1.3])
    close = _runs([0.6, 1.1, 1.4, 0.9, 0.8, 1.2])
    assert compare.verdict(base, close, "lower", 0.1) == "unresolved"
    # ... unless every candidate run beats every base run.
    disjoint = _runs([0.3, 0.31, 0.32, 0.33, 0.34, 0.35])
    assert compare.verdict(base, disjoint, "lower", 0.1) == "better"


def _write(directory, workload, seed, value):
    path = os.path.join(directory, workload)
    os.makedirs(path, exist_ok=True)
    run = {"workload": workload, "seed": seed, "trace": 0, "metrics": {
        "time_to_factors_s": {"value": value, "unit": "s"}}}
    with open(os.path.join(path, f"seed-{seed}.trace-0.json"), "w") as handle:
        json.dump(run, handle)


def test_compare_reads_result_sets_and_rows_each_workload(tmp_path):
    base, cand = str(tmp_path / "a"), str(tmp_path / "b")
    for seed in range(10):
        _write(base, "w1", seed, 2.0 + 0.001 * seed)
        _write(cand, "w1", seed, 3.0 + 0.001 * seed)
        _write(base, "w2", seed, 2.0 + 0.001 * seed)
        _write(cand, "w2", seed, 2.0 + 0.001 * seed)
    rows = compare.compare(base, cand, SPEC)
    assert [(r["workload"], r["verdict"]) for r in rows] == [
        ("w1", "worse"), ("w2", "unchanged"),
    ]
    assert rows[0]["runs"] == (10, 10)
    table = compare.format_rows(rows)
    assert "w1" in table and "worse" in table
