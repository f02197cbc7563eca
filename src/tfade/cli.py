"""Benchmark command line: convergence tables, timing studies, kernel checks.

Subcommands
-----------
solve        march one configuration and dump (x, t, U, exact, abs_err) rows
convergence  error/order table over an N- or M-sweep, CSV output
bench        wall-time scaling study over an N-sweep, fast vs direct
soe-check    build and certify an exponential-sum kernel approximation

All outputs are plain CSV with a `#`-comment provenance header; identical
invocations write byte-identical files (bench rows contain wall times and are
exempt).  Exit codes: 0 success, 1 usage error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import types
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from tfade.problems import ManufacturedCase, case, l2_norm, max_error, order_table
from tfade.soe import CertificationError, build_soe, certify_soe, eval_soe
from tfade.solver import SchemeConfig, SolveError, run

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _usage_error(message: str) -> SystemExit:
    sys.stderr.write(f"error: {message}\n")
    return SystemExit(EXIT_USAGE)


@dataclass(frozen=True)
class TimingRow:
    """One bench CSV row; wall_seconds_direct is None above the cutoff."""

    N: int
    wall_seconds_fast: float | None
    wall_seconds_direct: float | None
    n_exp: int | None


@dataclass
class RunSpec:
    """Fully resolved parameters of one CLI invocation (seed-free)."""

    command: str
    case_id: int = 1
    alpha: float = 0.5
    lam: float = 1.0
    delta: float = 1.8
    r: float = 3.0
    epsilon: float = 1e-10
    method: str = "fast"
    n_list: list[int] = field(default_factory=list)
    m_list: list[int] = field(default_factory=list)
    T: float = 2.0
    norm: str = "l2"
    out: str | None = None
    t_min: float | None = None
    t_max: float | None = None
    samples: int = 10_000
    levels: list[int] | None = None
    reps: int = 3
    direct_max_n: int | None = None

    def header_lines(self) -> list[str]:
        return [
            f"# tfade {self.command}",
            "# alpha={} lambda={} delta={} r={} eps={} method={} M={} N={} T={} case={} norm={}".format(
                self.alpha, self.lam, self.delta, self.r, self.epsilon, self.method,
                ",".join(map(str, self.m_list)) or "-",
                ",".join(map(str, self.n_list)) or "-",
                self.T, self.case_id, self.norm,
            ),
        ]


def _int_list(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma list of integers: {text!r}") from exc


def _build_parser() -> _Parser:
    parser = _Parser(prog="tfade", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: _Parser):
        p.add_argument("--config", type=str, default=None,
                       help="JSON file with defaults for any flag; flags win")
        p.add_argument("--case", dest="case_id", type=int, default=None,
                       help="benchmark case id (1|2|3; 0 = the zero solution, solve only)")
        p.add_argument("--alpha", type=float, default=None)
        p.add_argument("--lambda", dest="lam", type=float, default=None)
        p.add_argument("--delta", type=float, default=None)
        p.add_argument("--r", type=float, default=None, help="mesh grading exponent")
        p.add_argument("--eps", dest="epsilon", type=float, default=None,
                       help="kernel compression accuracy target, in [1e-14, 1e-2)")
        p.add_argument("--method", choices=("fast", "direct", "both"), default=None)
        p.add_argument("--N", dest="n_list", type=_int_list, default=None,
                       help="comma list of time step counts")
        p.add_argument("--M", dest="m_list", type=_int_list, default=None,
                       help="comma list of space cell counts")
        p.add_argument("--T", type=float, default=None)
        p.add_argument("--norm", choices=("l2", "h1"), default=None)
        p.add_argument("--out", type=str, default=None, help="output CSV path")

    p_solve = sub.add_parser("solve", help="march one configuration, dump solution CSV")
    add_common(p_solve)
    p_solve.add_argument("--levels", type=_int_list, default=None,
                         help="time levels to dump (default: 5 evenly strided)")

    p_conv = sub.add_parser("convergence", help="error/order table over a sweep")
    add_common(p_conv)

    p_bench = sub.add_parser("bench", help="wall-time scaling study")
    add_common(p_bench)
    p_bench.add_argument("--reps", type=int, default=None,
                         help="timing repetitions per row (median reported)")
    p_bench.add_argument("--direct-max-n", type=int, default=None,
                         help="skip the direct method above this N")

    p_soe = sub.add_parser("soe-check", help="build + certify a kernel approximation")
    add_common(p_soe)
    p_soe.add_argument("--t-min", dest="t_min", type=float, default=None)
    p_soe.add_argument("--t-max", dest="t_max", type=float, default=None)
    p_soe.add_argument("--samples", type=int, default=None,
                       help="certification sample count")
    return parser


_SPEC_TYPES = typing.get_type_hints(RunSpec)


def _fits(value, annotation) -> bool:
    """Whether a config-file value fits a RunSpec field's annotation.

    A float field also takes an int, a list field must hold ints, and a
    JSON true/false is never a number.
    """
    if isinstance(annotation, types.UnionType):
        return any(_fits(value, arg) for arg in annotation.__args__)
    if annotation is type(None):
        return value is None
    if isinstance(value, bool):
        return False
    if annotation is float:
        return isinstance(value, (int, float))
    if typing.get_origin(annotation) is list:
        return isinstance(value, list) and all(_fits(v, int) for v in value)
    return isinstance(value, annotation)


def _check_file_values(path: str, file_values: dict) -> None:
    """Reject a config-file key that is no RunSpec field, or a value whose
    type does not fit its field."""
    for key, value in file_values.items():
        if key not in _SPEC_TYPES:
            raise _usage_error(f"config {path}: unknown key {key!r}")
        if key != "command" and not _fits(value, _SPEC_TYPES[key]):
            raise _usage_error(
                f"config {path}: {key} must be {RunSpec.__annotations__[key]}, got {value!r}"
            )


def _resolve_spec(args: argparse.Namespace) -> RunSpec:
    """Merge precedence: flags > config file > built-in defaults."""
    file_values: dict = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                file_values = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise _usage_error(f"cannot read config {args.config}: {exc}")
        if not isinstance(file_values, dict):
            raise _usage_error(f"config {args.config} must hold a JSON object")
        _check_file_values(args.config, file_values)
    spec = RunSpec(command=args.command)
    defaulted = set()
    for name in vars(spec):
        if name == "command":
            continue
        flag_value = getattr(args, name, None)
        if flag_value is not None:
            setattr(spec, name, flag_value)
        elif name in file_values:
            setattr(spec, name, file_values[name])
        else:
            defaulted.add(name)
    if spec.command == "bench" and "method" in defaulted:
        spec.method = "both"
    return spec


def _open_out(spec: RunSpec):
    if spec.out is None:
        raise _usage_error("--out is required for this subcommand")
    try:
        return open(spec.out, "w", newline="")
    except OSError as exc:
        sys.stderr.write(f"error: cannot write {spec.out}: {exc}\n")
        raise SystemExit(EXIT_USAGE)


def _methods(spec: RunSpec) -> list[str]:
    return ["fast", "direct"] if spec.method == "both" else [spec.method]


def _problem(spec: RunSpec) -> ManufacturedCase:
    try:
        return case(spec.case_id, spec.alpha, spec.lam, spec.delta)
    except ValueError as exc:
        raise _usage_error(str(exc))


def _config(spec: RunSpec, m_cells, n_steps, method: str) -> SchemeConfig:
    """The SchemeConfig of one solve; an invalid value is a usage error."""
    try:
        return SchemeConfig(alpha=spec.alpha, lam=spec.lam, M=m_cells, N=n_steps,
                            T=spec.T, r=spec.r, epsilon=spec.epsilon, method=method)
    except ValueError as exc:
        raise _usage_error(str(exc))


def cmd_solve(spec: RunSpec) -> int:
    if len(spec.n_list) != 1 or len(spec.m_list) != 1:
        raise _usage_error("solve needs exactly one value in --N and one in --M")
    n_steps, m_cells = spec.n_list[0], spec.m_list[0]
    mc = _problem(spec)
    method = spec.method if spec.method != "both" else "fast"
    levels = spec.levels or sorted({0, n_steps // 4, n_steps // 2, 3 * n_steps // 4, n_steps})
    bad = [n for n in levels if not 0 <= n <= n_steps]
    if bad:
        raise _usage_error(f"levels must lie in 0..{n_steps}, got {bad}")
    traj = run(_config(spec, m_cells, n_steps, method), mc)
    x = traj.grid.x
    with _open_out(spec) as fh:
        for line in spec.header_lines():
            fh.write(line + "\n")
        fh.write("x,t,U,exact,abs_err\n")
        for n in levels:
            t_n = traj.mesh.t[n]
            u_full = traj.full_level(n)
            exact = mc.exact(x, t_n)
            for j in range(len(x)):
                err = abs(u_full[j] - exact[j])
                fh.write(f"{x[j]:.10e},{t_n:.10e},{u_full[j]:.10e},{exact[j]:.10e},{err:.10e}\n")
    final_err = l2_norm(
        traj.snapshots[n_steps] - mc.exact(traj.grid.x_interior, traj.mesh.t[-1]), traj.grid.h
    )
    print(f"final-level L2 error: {final_err:.6e}")
    print(f"wrote {spec.out}")
    return EXIT_OK


def _sweep_axis(spec: RunSpec) -> tuple[str, list[int], int]:
    """Return (knob name, sweep values, fixed counterpart)."""
    if not spec.n_list and not spec.m_list:
        raise _usage_error("provide at least one sweep list via --N or --M")
    if len(spec.n_list) > 1 and len(spec.m_list) > 1:
        raise _usage_error("sweep either --N or --M, not both")
    if len(spec.m_list) > 1:
        if len(spec.n_list) != 1:
            raise _usage_error("a space sweep needs exactly one fixed --N")
        return "M", spec.m_list, spec.n_list[0]
    if not spec.n_list:
        raise _usage_error("a space sweep needs exactly one fixed --N")
    if len(spec.m_list) != 1:
        raise _usage_error("a time sweep needs exactly one fixed --M")
    return "N", spec.n_list, spec.m_list[0]


def cmd_convergence(spec: RunSpec) -> int:
    if spec.case_id == 0:
        raise _usage_error("convergence needs a manufactured case (1|2|3)")
    knob, sweep, fixed = _sweep_axis(spec)
    mc = _problem(spec)

    jobs = [(method, value) for method in _methods(spec) for value in sweep]
    # every config is checked before any job reaches the pool
    configs = [
        _config(spec, *((fixed, value) if knob == "N" else (value, fixed)), method)
        for method, value in jobs
    ]

    def one(cfg: SchemeConfig) -> float:
        return max_error(run(cfg, mc), mc, spec.norm)

    workers = min(8, os.cpu_count() or 1, len(jobs))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(one, cfg) for cfg in configs]
        errors = {job: fut.result() for job, fut in zip(jobs, futures)}

    with _open_out(spec) as fh:
        for line in spec.header_lines():
            fh.write(line + "\n")
        fh.write("knob,error,order,method,norm\n")
        for method in _methods(spec):
            rows = order_table([(value, errors[(method, value)]) for value in sweep])
            for row in rows:
                order = "" if row.order is None else f"{row.order:.4f}"
                fh.write(f"{row.knob},{row.err:.10e},{order},{method},{spec.norm}\n")
    print(f"wrote {spec.out}")
    return EXIT_OK


def _loglog_slope(ns: list[int], ts: list[float]) -> float:
    return float(np.polyfit(np.log(ns), np.log(ts), 1)[0])


def cmd_bench(spec: RunSpec) -> int:
    if spec.case_id == 0:
        raise _usage_error("bench needs a manufactured case (1|2|3)")
    if len(spec.n_list) < 5:
        raise _usage_error("bench needs an --N list with at least 4 doublings")
    for a, b in zip(spec.n_list, spec.n_list[1:]):
        if b != 2 * a:
            raise _usage_error("bench --N list must double at every entry")
    if len(spec.m_list) != 1:
        raise _usage_error("bench needs exactly one --M value")
    m_cells = spec.m_list[0]
    mc = _problem(spec)
    methods = _methods(spec)
    reps = max(1, spec.reps)

    def timed(method: str, n_steps: int) -> tuple[float, int]:
        cfg = _config(spec, m_cells, n_steps, method)
        walls = []
        n_exp = 0
        for _ in range(reps):
            traj = run(cfg, mc)
            walls.append(traj.wall_time)
            n_exp = traj.n_exp_used
        walls.sort()
        return walls[len(walls) // 2], n_exp

    # warm code paths (quadrature caches) outside the timings
    for method in methods:
        run(_config(spec, m_cells, spec.n_list[0], method), mc)

    rows: list[TimingRow] = []
    for n_steps in spec.n_list:
        wall_fast = nexp = None
        wall_direct = None
        if "fast" in methods:
            wall_fast, nexp = timed("fast", n_steps)
        if "direct" in methods and (spec.direct_max_n is None or n_steps <= spec.direct_max_n):
            wall_direct, _ = timed("direct", n_steps)
        rows.append(TimingRow(n_steps, wall_fast, wall_direct, nexp))
        print(f"N={n_steps}: fast={wall_fast if wall_fast is None else f'{wall_fast:.3f}s'} "
              f"direct={wall_direct if wall_direct is None else f'{wall_direct:.3f}s'} "
              f"n_exp={nexp}")

    with _open_out(spec) as fh:
        for line in spec.header_lines():
            fh.write(line + "\n")
        fh.write("N,wall_seconds_fast,wall_seconds_direct,n_exp\n")
        for row in rows:
            fh.write("{},{},{},{}\n".format(
                row.N,
                "" if row.wall_seconds_fast is None else f"{row.wall_seconds_fast:.6f}",
                "" if row.wall_seconds_direct is None else f"{row.wall_seconds_direct:.6f}",
                "" if row.n_exp is None else row.n_exp,
            ))
        summary = []
        if all(r.wall_seconds_fast is not None for r in rows):
            summary.append(f"slope_fast={_loglog_slope([r.N for r in rows], [r.wall_seconds_fast for r in rows]):.4f}")
        timed_direct = [(r.N, r.wall_seconds_direct) for r in rows if r.wall_seconds_direct is not None]
        if len(timed_direct) >= 2:
            summary.append(f"slope_direct={_loglog_slope([n for n, _ in timed_direct], [t for _, t in timed_direct]):.4f}")
        if summary:
            line = "# loglog " + " ".join(summary)
            fh.write(line + "\n")
            print(line)
    print(f"wrote {spec.out}")
    return EXIT_OK


def cmd_soe_check(spec: RunSpec) -> int:
    if spec.t_min is None or spec.t_max is None:
        raise _usage_error("soe-check needs --t-min and --t-max")
    try:
        soe = build_soe(spec.alpha, spec.epsilon, spec.t_min, spec.t_max)
    except ValueError as exc:
        raise _usage_error(str(exc))
    report = certify_soe(soe, n_samples=max(100, spec.samples))
    print(f"n_exp: {soe.n_exp}")
    print(f"max relative error: {report.max_rel_error:.6e} at t = {report.argmax_t:.6e}")
    if spec.out is not None:
        t = np.geomspace(spec.t_min, spec.t_max, min(spec.samples, 10_000))
        kern = t ** (-1.0 - spec.alpha)
        vals = eval_soe(soe, t)
        rel = np.abs(vals - kern) / kern
        with _open_out(spec) as fh:
            for line in spec.header_lines():
                fh.write(line + "\n")
            fh.write(f"# t_min={spec.t_min} t_max={spec.t_max} n_exp={soe.n_exp}\n")
            fh.write("t,kernel,soe,rel_err\n")
            for j in range(len(t)):
                fh.write(f"{t[j]:.10e},{kern[j]:.10e},{vals[j]:.10e},{rel[j]:.10e}\n")
        print(f"wrote {spec.out}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    spec = _resolve_spec(args)
    handlers = {
        "solve": cmd_solve,
        "convergence": cmd_convergence,
        "bench": cmd_bench,
        "soe-check": cmd_soe_check,
    }
    try:
        return handlers[spec.command](spec)
    except (CertificationError, SolveError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
