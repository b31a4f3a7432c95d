"""Judge two suite reports: one row per (workload, end-to-end metric).

Each row gives both medians, their ratio **with its base** (``B/A``), the
metric's bound and a verdict:

* ``worse`` / ``better`` — B's median differs from A's by more than the
  bound, in that direction;
* ``unchanged`` — it does not;
* ``unresolved`` — the spread inside one report (quartile distance ÷ median
  of its per-batch values) exceeds the bound *and* the two reports' ranges
  overlap, so the data cannot tell a shift from noise.  When the ranges
  do not overlap, every value of one side beats every value of the other
  and the verdict stands.

Count-valued per-layer metrics are compared too: a row per count that
differs, verdict ``changed``.  Between two commits that is information (a
change is allowed to probe fewer pairs); between two runs of one commit
(``--check-repeat``) it is a failure.

Returns 1 on any ``worse`` row or any rise in ``failed_share``.
"""

from __future__ import annotations

import statistics

from layers import EXACT

#: End-to-end metrics recorded with the per-layer run (see layers.py):
#: name -> (bound, better, serving workloads only).  Zero bound means exact.
OTHER_END_TO_END = {
    "op_ms_p50": (0.25, "lower", False),
    "virtual_latency_mean_s": (0.01, "lower", True),
    "virtual_latency_p95_s": (0.01, "lower", True),
    "round_trips_per_op": (0.0, "lower", True),
    "failed_share": (0.0, "lower", False),
}


def other_end_to_end(op: str) -> list[str]:
    """The ones that apply to a workload whose op is ``op``."""
    return [
        name
        for name, (_, _, serving) in OTHER_END_TO_END.items()
        if op == "request" or not serving
    ]


def spread(values: list[float]) -> float:
    """Quartile distance ÷ median (the whole range when there are under 4)."""
    middle = statistics.median(values)
    if not middle:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / middle
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / middle


def verdict(
    a: list[float], b: list[float], bound: float, better: str
) -> tuple[float, float, str]:
    """``(median A, median B, verdict)`` for per-batch values ``a`` and ``b``."""
    median_a, median_b = statistics.median(a), statistics.median(b)
    if median_a == median_b:
        return median_a, median_b, "unchanged"
    sign = 1.0 if better == "lower" else -1.0
    # Positive = B is worse, as a share of A.
    shift = sign * (median_b - median_a) / median_a if median_a else sign * float("inf")
    noisy = max(spread(a), spread(b)) > bound
    overlap = min(a) <= max(b) and min(b) <= max(a)
    if noisy and overlap:
        return median_a, median_b, "unresolved"
    if shift > bound:
        return median_a, median_b, "worse"
    if shift < -bound:
        return median_a, median_b, "better"
    return median_a, median_b, "unchanged"


def rows(first: dict, second: dict, spec: dict):
    """Yield ``(workload, metric, unit, median A, median B, bound, verdict)``."""
    for name, entry_a in first["workloads"].items():
        entry_b = second["workloads"].get(name)
        if entry_b is None:
            continue
        samples_a = entry_a["detail"]["plain"]["samples"]
        samples_b = entry_b["detail"]["plain"]["samples"]
        for metric in spec["end_to_end"]:
            key = metric["name"]
            yield (
                name, key, metric["unit"],
                *verdict(samples_a[key], samples_b[key], metric["bound"], metric["better"]),
                metric["bound"],
            )
        for key in other_end_to_end(entry_a["detail"]["plain"]["op"]):
            bound, better, _ = OTHER_END_TO_END[key]
            cell_a, cell_b = entry_a["per_layer"][key], entry_b["per_layer"][key]
            values_a = entry_a["detail"]["traced"]["samples"].get(key, [cell_a["value"]])
            values_b = entry_b["detail"]["traced"]["samples"].get(key, [cell_b["value"]])
            yield (
                name, key, cell_a["unit"],
                *verdict(values_a, values_b, bound, better),
                bound,
            )


def changed_counts(first: dict, second: dict):
    """Yield ``(workload, metric, unit, A, B)`` for per-layer counts that differ."""
    for name, entry_a in first["workloads"].items():
        entry_b = second["workloads"].get(name, entry_a)
        for metric in sorted(EXACT - set(OTHER_END_TO_END)):
            cell_a, cell_b = entry_a["per_layer"][metric], entry_b["per_layer"][metric]
            if cell_a["value"] != cell_b["value"]:
                yield name, metric, cell_a["unit"], cell_a["value"], cell_b["value"]


def report(first: dict, second: dict, spec: dict, same_commit: bool = False) -> int:
    """Print the comparison table; 1 if anything got worse.

    With ``same_commit``, an ``unresolved`` row or a changed count fails too.
    """
    print(
        f"\n{'workload':<14}{'metric':<26}{'A':>14}{'B':>14}  "
        f"{'B/A (base A)':<14}{'bound':>7}  verdict"
    )
    status = 0
    for name, metric, unit, a, b, outcome, bound in rows(first, second, spec):
        share = f"{b / a:.3f}" if a else ("1.000" if a == b else "inf")
        print(
            f"{name:<14}{metric:<26}{a:>14.4f}{b:>14.4f}  "
            f"{share + ' x ' + format(a, '.4g'):<14}{bound:>7.0%}  {outcome} [{unit}]"
        )
        if outcome == "worse" or (metric == "failed_share" and b > a):
            status = 1
        if same_commit and outcome == "unresolved":
            status = 1
    for name, metric, unit, a, b in changed_counts(first, second):
        print(f"{name:<14}{metric:<48}{a:>14.4f}{b:>14.4f}  changed [{unit}]")
        if same_commit:
            status = 1
    return status
