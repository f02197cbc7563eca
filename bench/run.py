"""tfade benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload wide_space --seed 1 --seconds 55 --trace 0

Run from the repository root; the package is imported from ``src/``.  With
``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics from spans recorded around the package's internal calls
(and writes the spans to ``bench/results/``).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  The line before it, ``info: {...}``, records the versions,
whether numba was importable and the per-repeat figures.  The inputs are
closed-form; ``--seed`` is recorded but changes nothing.
"""

import time

# setup_s counts from here: the interpreter has started, nothing is imported
_T0 = time.perf_counter()

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("long_history", "wide_space", "conv_sweep"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "tfade", "__init__.py")):
        sys.stderr.write(f"error: no tfade package under {SRC}; run from a checkout\n")
        return 2
    sys.path.insert(0, SRC)

    import numpy
    import scipy

    import workloads
    from layers import layer_metrics
    from spans import INNER, Tracer

    workloads.warm_up()
    setup_s = time.perf_counter() - _T0

    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload]
    tracer = Tracer()
    try:
        runner = workloads.Runner(wl, tracer, out_dir)
        if args.trace:
            tracer.install(INNER)
        reps = runner.measure(args.seconds)
    finally:
        tracer.uninstall()

    problems = [p for r in reps for p in r.problems]
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    walls = [r.wall for r in reps]
    if args.trace:
        metrics = layer_metrics(tracer.spans, walls, tracer.absent)
        spans_path = os.path.join(out_dir, f"spans-{wl.name}-seed{args.seed}.csv")
        tracer.dump(spans_path)
    else:
        metrics = {
            "study_s": statistics.median(walls),
            "fast_solve_s": statistics.median(r.solve_s["fast"] for r in reps),
            "direct_solve_s": statistics.median(r.solve_s["direct"] for r in reps),
            "fast_peak_mb": workloads.peak_mb(wl.largest("fast")),
            "direct_peak_mb": workloads.peak_mb(wl.largest("direct")),
            "setup_s": setup_s,
        }
        units = {"setup_s": "s", "fast_peak_mb": "MB", "direct_peak_mb": "MB"}
        metrics = {k: {"value": v, "unit": units.get(k, "s")} for k, v in metrics.items()}
        spans_path = None

    info = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "repeats": len(reps), "study_s_each": walls,
        "fast_solve_s_each": [r.solve_s["fast"] for r in reps],
        "direct_solve_s_each": [r.solve_s["direct"] for r in reps],
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "cpus": os.cpu_count(),
        "absent": tracer.absent, "spans": spans_path, "problems": problems[:20],
    }
    print("info: " + json.dumps(info))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
