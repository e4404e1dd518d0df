"""Statistics of benchmark samples and the verdict of comparing two result sets.

A result set is a directory of the per-run JSON files ``run.py`` writes
(``<workload>/seed-<n>.trace-0.json``).  Comparing a base set with a
candidate set gives one row per workload and end-to-end metric:

* ``worse`` — the candidate's median is worse than the base median by more
  than the metric's bound;
* ``better`` — the candidate beats the base on at least nine tenths of the
  seeds both sets ran, and the medians differ by more than the base's own
  spread (the distance between its quartiles);
* ``unresolved`` — the base's spread is wider than the bound, so a
  difference within the bound cannot be told from noise, unless every
  candidate run reads better than every base run;
* ``unchanged`` — otherwise.
"""

from __future__ import annotations

import glob
import json
import math
import os
import statistics

WIN_SHARE = 0.9


def quartiles(values: "list[float]") -> "tuple[float, float, float]":
    """First quartile, median and third quartile (``statistics.quantiles``)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    low, middle, high = statistics.quantiles(values, n=4)
    return low, middle, high


def upper_percentile(values: "list[float]") -> "tuple[int, float] | None":
    """The highest whole percentile with at least ten samples above it.

    ``None`` when there are fewer than twenty samples, which leave no
    percentile above the median with ten samples beyond it.
    """
    count = len(values)
    if count < 20:
        return None
    percent = math.floor(100 * (1 - 10 / count))
    ordered = sorted(values)
    rank = max(0, math.ceil(percent / 100 * count) - 1)
    return percent, ordered[rank]


def spread(values: "list[float]") -> float:
    """Distance between the quartiles as a share of the median."""
    low, middle, high = quartiles(values)
    return (high - low) / abs(middle) if middle else math.inf


def _worse_by(base: float, candidate: float, better: str) -> float:
    """How much worse ``candidate`` is than ``base``, as a share of ``base``."""
    change = (candidate - base) / abs(base) if base else 0.0
    return change if better == "lower" else -change


def verdict(
    base: "dict[int, float]", candidate: "dict[int, float]",
    better: str, bound: float,
) -> str:
    """Verdict for one metric; ``base``/``candidate`` map seed to value."""
    base_values = list(base.values())
    candidate_values = list(candidate.values())
    base_median = statistics.median(base_values)
    candidate_median = statistics.median(candidate_values)
    if _worse_by(base_median, candidate_median, better) > bound:
        return "worse"

    def beats(a: float, b: float) -> bool:
        return a < b if better == "lower" else a > b

    paired = sorted(set(base) & set(candidate))
    wins = sum(beats(candidate[seed], base[seed]) for seed in paired)
    low, _, high = quartiles(base_values)
    if (
        paired
        and wins >= WIN_SHARE * len(paired)
        and abs(candidate_median - base_median) > high - low
    ):
        return "better"
    if spread(base_values) > bound:
        every_better = all(
            beats(c, b) for c in candidate_values for b in base_values
        )
        return "better" if every_better else "unresolved"
    return "unchanged"


def load_results(directory: str) -> "dict[str, dict[int, dict]]":
    """Untraced run results under ``directory``: workload → seed → metrics."""
    results: dict[str, dict[int, dict]] = {}
    pattern = os.path.join(directory, "*", "seed-*.trace-0.json")
    for path in sorted(glob.glob(pattern)):
        with open(path, encoding="utf-8") as handle:
            run = json.load(handle)
        results.setdefault(run["workload"], {})[run["seed"]] = run["metrics"]
    return results


def compare(base_dir: str, candidate_dir: str, spec: dict) -> "list[dict]":
    """One row per workload × end-to-end metric present in both sets."""
    base = load_results(base_dir)
    candidate = load_results(candidate_dir)
    rows = []
    for workload in sorted(set(base) & set(candidate)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = {s: m[name]["value"] for s, m in base[workload].items() if name in m}
            b = {s: m[name]["value"] for s, m in candidate[workload].items() if name in m}
            if not a or not b:
                continue
            rows.append({
                "workload": workload,
                "metric": name,
                "unit": metric["unit"],
                "base": quartiles(list(a.values())),
                "candidate": quartiles(list(b.values())),
                "runs": (len(a), len(b)),
                "verdict": verdict(a, b, metric["better"], metric["bound"]),
            })
    return rows


def format_rows(rows: "list[dict]") -> str:
    """A fixed-width table of :func:`compare` rows."""
    lines = [
        f"{'workload':<20} {'metric':<18} {'unit':<6} "
        f"{'base q1/med/q3':<30} {'candidate q1/med/q3':<30} runs    verdict"
    ]
    for row in rows:
        base = "/".join(f"{v:.4g}" for v in row["base"])
        cand = "/".join(f"{v:.4g}" for v in row["candidate"])
        runs = f"{row['runs'][0]}/{row['runs'][1]}"
        lines.append(
            f"{row['workload']:<20} {row['metric']:<18} {row['unit']:<6} "
            f"{base:<30} {cand:<30} {runs:<7} {row['verdict']}"
        )
    return "\n".join(lines)
