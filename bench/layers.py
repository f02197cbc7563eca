"""Per-layer metrics computed from the spans of a traced run.

Each metric is worked out per repeat of the workload and reported as the
median over repeats.  A metric whose wrapped name no longer exists in the
package is reported with ``"value": null`` and the missing name, never as 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

# bytes of H one history_advance call moves: H *= decay reads and writes H,
# the rank-2 product writes a workspace of H's size, H += work reads both and
# writes H
H_PASSES = 6

# name -> (unit, spans it needs)
PER_LAYER = {
    "soe.build_s": ("s", ["soe.build_soe"]),
    "soe.builds": ("count", ["soe.build_soe"]),
    "soe.n_exp": ("count", ["soe.build_soe"]),
    "operators.lambda_tables_s": ("s", ["operators.lambda_tables"]),
    "operators.lambda_tables_mb": ("MB", ["operators.lambda_tables"]),
    "operators.history_advance_s": ("s", ["operators.history_advance"]),
    "operators.history_advance_calls": ("count", ["operators.history_advance"]),
    "operators.history_advance_gbps": ("GB/s", ["operators.history_advance"]),
    "solver.direct_history_s": ("s", ["solver.direct_history"]),
    "solver.direct_history_calls": ("count", ["solver.direct_history"]),
    "solver.tridiag_solve_s": ("s", ["solver.dgtsv"]),
    "solver.tridiag_solves": ("count", ["solver.dgtsv"]),
    "solver.fast_march_self_s": ("s", ["solver.run"]),
    "solver.direct_march_self_s": ("s", ["solver.run"]),
    "problems.max_error_s": ("s", ["problems.max_error"]),
    "cli.parallel_speedup": ("ratio", ["solver.run", "problems.max_error"]),
    "traced.study_s": ("s", []),
}

# span name -> the package name it wraps, for the absent report
WRAPPED = {
    "soe.build_soe": "tfade.solver.build_soe",
    "operators.lambda_tables": "tfade.solver.lambda_tables",
    "operators.history_advance": "tfade.solver.history_advance",
    "solver.dgtsv": "tfade.solver.dgtsv",
    "solver.direct_history": "tfade.solver._direct_history",
    "solver.run": "tfade.cli.run",
    "problems.max_error": "tfade.cli.max_error",
}


def one_repeat(spans, wall: float) -> dict[str, float]:
    """Every per-layer metric from the spans of one repeat."""
    by_name = defaultdict(list)
    child_s = defaultdict(float)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            child_s[s.parent] += s.seconds

    def total(name):
        return sum(s.seconds for s in by_name[name])

    def self_s(method):
        return sum(s.seconds - child_s[s.id] for s in by_name["solver.run"] if s.tag == method)

    soe = by_name["soe.build_soe"]
    tables = by_name["operators.lambda_tables"]
    hist = by_name["operators.history_advance"]
    hist_s = total("operators.history_advance")
    return {
        "soe.build_s": total("soe.build_soe"),
        "soe.builds": len(soe),
        "soe.n_exp": max((s.payload for s in soe), default=0),
        "operators.lambda_tables_s": total("operators.lambda_tables"),
        "operators.lambda_tables_mb": max((s.payload for s in tables), default=0) / 1e6,
        "operators.history_advance_s": hist_s,
        "operators.history_advance_calls": len(hist),
        "operators.history_advance_gbps":
            H_PASSES * sum(s.payload for s in hist) / hist_s / 1e9 if hist_s else 0.0,
        "solver.direct_history_s": total("solver.direct_history"),
        "solver.direct_history_calls": len(by_name["solver.direct_history"]),
        "solver.tridiag_solve_s": total("solver.dgtsv"),
        "solver.tridiag_solves": len(by_name["solver.dgtsv"]),
        "solver.fast_march_self_s": self_s("fast"),
        "solver.direct_march_self_s": self_s("direct"),
        "problems.max_error_s": total("problems.max_error"),
        "cli.parallel_speedup": (total("solver.run") + total("problems.max_error")) / wall,
        "traced.study_s": wall,
    }


def layer_metrics(spans, walls: list[float], absent: list[str]) -> dict[str, dict]:
    """Median over repeats of every per-layer metric, with its unit."""
    per_rep = defaultdict(list)
    for s in spans:
        per_rep[s.rep].append(s)
    values = [one_repeat(per_rep[rep], wall) for rep, wall in enumerate(walls)]
    out = {}
    for name, (unit, needs) in PER_LAYER.items():
        missing = [WRAPPED[n] for n in needs if WRAPPED[n] in absent]
        if missing:
            out[name] = {"value": None, "unit": unit, "absent": ", ".join(missing)}
        else:
            value = statistics.median(v[name] for v in values)
            out[name] = {"value": round(value) if unit == "count" else value, "unit": unit}
    return out
