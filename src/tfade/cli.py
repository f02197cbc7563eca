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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from tfade.problems import ManufacturedCase, case, l2_norm, max_error, order_table
from tfade.soe import CertificationError, build_soe, certify_soe, eval_soe
from tfade.solver import SchemeConfig, SolveError, run

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1.

    ``options`` maps the dest of each flag that a config file may set to the
    Action that `add_option` made for it.
    """

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.options: dict[str, argparse.Action] = {}

    def add_option(self, *flags, **kwargs) -> argparse.Action:
        action = self.add_argument(*flags, **kwargs)
        self.options[action.dest] = action
        return action

    def error(self, message):
        sys.stderr.write(f"{self.prog}: error: {message} (see {self.prog} -h)\n")
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


def _int_list(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma list of integers: {text!r}") from exc


def _positive_int(text: str) -> int:
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}")
    return int(text)


def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The parser and its subcommand parsers, by name.

    Every option is declared here once, with its default, type and choices;
    a config file only sets defaults on these parsers (`_parse`).
    """
    parser = _Parser(prog="tfade", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    commands: dict[str, _Parser] = {}

    def add_command(name: str, help: str) -> _Parser:
        p = commands[name] = sub.add_parser(name, help=help)
        p.add_argument("--config", help="JSON file with defaults for any flag; flags win")
        p.add_option("--case", dest="case_id", type=int, default=1,
                     help="benchmark case id (1|2|3; 0 = the zero solution, solve only)")
        p.add_option("--alpha", type=float, default=0.5)
        p.add_option("--lambda", dest="lam", type=float, default=1.0)
        p.add_option("--delta", type=float, default=1.8)
        p.add_option("--r", type=float, default=3.0, help="mesh grading exponent")
        p.add_option("--eps", dest="epsilon", type=float, default=1e-10,
                     help="kernel compression accuracy target, in [1e-14, 1e-2)")
        p.add_option("--method", choices=("fast", "direct", "both"), default="fast")
        p.add_option("--N", dest="n_list", type=_int_list, default=[],
                     help="comma list of time step counts")
        p.add_option("--M", dest="m_list", type=_int_list, default=[],
                     help="comma list of space cell counts")
        p.add_option("--T", type=float, default=2.0)
        p.add_option("--norm", choices=("l2", "h1"), default="l2")
        p.add_option("--out", type=str, default=None,
                     help="output CSV path (optional for soe-check)")
        return p

    add_command("solve", "march one configuration, dump solution CSV").add_option(
        "--levels", type=_int_list, default=None,
        help="time levels to dump (default: 5 evenly strided)")

    add_command("convergence", "error/order table over a sweep")

    p_bench = add_command("bench", "wall-time scaling study")
    p_bench.set_defaults(method="both")
    p_bench.add_option("--reps", type=_positive_int, default=3,
                       help="timing repetitions per row (median reported)")
    p_bench.add_option("--direct-max-n", type=int, default=None,
                       help="skip the direct method above this N")

    p_soe = add_command("soe-check", "build + certify a kernel approximation")
    p_soe.add_option("--t-min", dest="t_min", type=float, default=None)
    p_soe.add_option("--t-max", dest="t_max", type=float, default=None)
    p_soe.add_option("--samples", type=_positive_int, default=10_000,
                     help="certification sample count")
    return parser, commands


# the JSON types of a config value (a list option: of its items), by flag type
_JSON_TYPES = {
    float: ((int, float), "a number"),
    int: (int, "an integer"),
    _positive_int: (int, "an integer"),
    _int_list: (int, "a list of integers"),
    str: (str, "a string"),
    None: (str, "a string"),
}


def _check_config_value(action: argparse.Action, value) -> None:
    """Raise ValueError or ArgumentTypeError unless the flag of ``action``
    could take ``value``: its JSON type fits (a float option also takes an
    int, true/false is never a number), null only where the flag defaults to
    None, and the flag's choices and type function hold."""
    if value is None:
        if action.default is not None:
            raise ValueError("must not be null")
        return
    json_types, name = _JSON_TYPES[action.type]
    items = value if isinstance(value, list) else [value]
    if (isinstance(value, list) != (action.type is _int_list)
            or not all(isinstance(v, json_types) and not isinstance(v, bool) for v in items)):
        raise ValueError(f"must be {name}, got {value!r}")
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"must be one of {', '.join(action.choices)}, got {value!r}")
    if action.type is not None:
        action.type(",".join(map(str, items)))


def _parse(argv: list[str] | None) -> argparse.Namespace:
    """Parse ``argv``; precedence: flags > config file > built-in defaults.

    Every config-file key must name the dest of some subcommand's flag, and
    its value must be one that flag could take.  Keys of another subcommand
    are checked, then ignored.
    """
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    if args.config is not None:
        try:
            with open(args.config) as fh:
                values = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise _usage_error(f"cannot read config {args.config}: {exc}")
        if not isinstance(values, dict):
            raise _usage_error(f"config {args.config} must hold a JSON object")
        options = commands[args.command].options
        known = {dest: a for p in commands.values() for dest, a in p.options.items()}
        for key, value in values.items():
            if key not in known:
                raise _usage_error(f"config {args.config}: unknown key {key!r}")
            try:
                _check_config_value(options.get(key, known[key]), value)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise _usage_error(f"config {args.config}: {key}: {exc}")
        commands[args.command].set_defaults(
            **{key: value for key, value in values.items() if key in options}
        )
        args = parser.parse_args(argv)
    if args.out is None and args.command != "soe-check":
        raise _usage_error(f"{args.command} needs --out")
    return args


def header_lines(args: argparse.Namespace) -> list[str]:
    return [
        f"# tfade {args.command}",
        "# alpha={} lambda={} delta={} r={} eps={} method={} M={} N={} T={} case={} norm={}".format(
            args.alpha, args.lam, args.delta, args.r, args.epsilon, args.method,
            ",".join(map(str, args.m_list)) or "-",
            ",".join(map(str, args.n_list)) or "-",
            args.T, args.case_id, args.norm,
        ),
    ]


def _open_out(args: argparse.Namespace):
    try:
        return open(args.out, "w", newline="")
    except OSError as exc:
        sys.stderr.write(f"error: cannot write {args.out}: {exc}\n")
        raise SystemExit(EXIT_USAGE)


def _methods(args: argparse.Namespace) -> list[str]:
    return ["fast", "direct"] if args.method == "both" else [args.method]


def _problem(args: argparse.Namespace) -> ManufacturedCase:
    try:
        return case(args.case_id, args.alpha, args.lam, args.delta)
    except ValueError as exc:
        raise _usage_error(str(exc))


def _config(args: argparse.Namespace, m_cells, n_steps, method: str) -> SchemeConfig:
    """The SchemeConfig of one solve; an invalid value is a usage error."""
    try:
        return SchemeConfig(alpha=args.alpha, lam=args.lam, M=m_cells, N=n_steps,
                            T=args.T, r=args.r, epsilon=args.epsilon, method=method)
    except ValueError as exc:
        raise _usage_error(str(exc))


def cmd_solve(args: argparse.Namespace) -> int:
    if len(args.n_list) != 1 or len(args.m_list) != 1:
        raise _usage_error("solve needs exactly one value in --N and one in --M")
    n_steps, m_cells = args.n_list[0], args.m_list[0]
    mc = _problem(args)
    method = args.method if args.method != "both" else "fast"
    levels = args.levels or sorted({0, n_steps // 4, n_steps // 2, 3 * n_steps // 4, n_steps})
    bad = [n for n in levels if not 0 <= n <= n_steps]
    if bad:
        raise _usage_error(f"levels must lie in 0..{n_steps}, got {bad}")
    traj = run(_config(args, m_cells, n_steps, method), mc)
    x = traj.grid.x
    with _open_out(args) as fh:
        for line in header_lines(args):
            fh.write(line + "\n")
        fh.write("x,t,U,exact,abs_err\n")
        for n in levels:
            t_n = traj.mesh.t[n]
            u_full = traj.full_level(n)
            exact = mc.exact(x, t_n)
            rows = np.column_stack([x, np.full_like(x, t_n), u_full, exact, np.abs(u_full - exact)])
            np.savetxt(fh, rows, fmt="%.10e", delimiter=",")
    final_err = l2_norm(
        traj.snapshots[n_steps] - mc.exact(traj.grid.x_interior, traj.mesh.t[-1]), traj.grid.h
    )
    print(f"final-level L2 error: {final_err:.6e}")
    print(f"wrote {args.out}")
    return EXIT_OK


def _sweep_axis(args: argparse.Namespace) -> tuple[str, list[int], int]:
    """Return (knob name, sweep values, fixed counterpart)."""
    if not args.n_list and not args.m_list:
        raise _usage_error("provide at least one sweep list via --N or --M")
    if len(args.n_list) > 1 and len(args.m_list) > 1:
        raise _usage_error("sweep either --N or --M, not both")
    if len(args.m_list) > 1:
        if len(args.n_list) != 1:
            raise _usage_error("a space sweep needs exactly one fixed --N")
        return "M", args.m_list, args.n_list[0]
    if not args.n_list:
        raise _usage_error("a space sweep needs exactly one fixed --N")
    if len(args.m_list) != 1:
        raise _usage_error("a time sweep needs exactly one fixed --M")
    return "N", args.n_list, args.m_list[0]


def cmd_convergence(args: argparse.Namespace) -> int:
    if args.case_id == 0:
        raise _usage_error("convergence needs a manufactured case (1|2|3)")
    knob, sweep, fixed = _sweep_axis(args)
    mc = _problem(args)

    jobs = [(method, value) for method in _methods(args) for value in sweep]
    # every config is checked before any job reaches the pool
    configs = [
        _config(args, *((fixed, value) if knob == "N" else (value, fixed)), method)
        for method, value in jobs
    ]

    def one(cfg: SchemeConfig) -> float:
        return max_error(run(cfg, mc), mc, args.norm)

    workers = min(8, os.cpu_count() or 1, len(jobs))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(one, cfg) for cfg in configs]
        errors = {job: fut.result() for job, fut in zip(jobs, futures)}

    with _open_out(args) as fh:
        for line in header_lines(args):
            fh.write(line + "\n")
        fh.write("knob,error,order,method,norm\n")
        for method in _methods(args):
            rows = order_table([(value, errors[(method, value)]) for value in sweep])
            for row in rows:
                order = "" if row.order is None else f"{row.order:.4f}"
                fh.write(f"{row.knob},{row.err:.10e},{order},{method},{args.norm}\n")
    print(f"wrote {args.out}")
    return EXIT_OK


def _loglog_slope(ns: list[int], ts: list[float]) -> float:
    return float(np.polyfit(np.log(ns), np.log(ts), 1)[0])


def cmd_bench(args: argparse.Namespace) -> int:
    if args.case_id == 0:
        raise _usage_error("bench needs a manufactured case (1|2|3)")
    if len(args.n_list) < 5:
        raise _usage_error("bench needs an --N list with at least 4 doublings")
    for a, b in zip(args.n_list, args.n_list[1:]):
        if b != 2 * a:
            raise _usage_error("bench --N list must double at every entry")
    if len(args.m_list) != 1:
        raise _usage_error("bench needs exactly one --M value")
    m_cells = args.m_list[0]
    mc = _problem(args)
    methods = _methods(args)

    def timed(method: str, n_steps: int) -> tuple[float, int]:
        cfg = _config(args, m_cells, n_steps, method)
        walls = []
        n_exp = 0
        for _ in range(args.reps):
            traj = run(cfg, mc)
            walls.append(traj.wall_time)
            n_exp = traj.n_exp_used
        walls.sort()
        return walls[len(walls) // 2], n_exp

    # warm code paths (quadrature caches) outside the timings
    for method in methods:
        run(_config(args, m_cells, args.n_list[0], method), mc)

    rows: list[TimingRow] = []
    for n_steps in args.n_list:
        wall_fast = nexp = None
        wall_direct = None
        if "fast" in methods:
            wall_fast, nexp = timed("fast", n_steps)
        if "direct" in methods and (args.direct_max_n is None or n_steps <= args.direct_max_n):
            wall_direct, _ = timed("direct", n_steps)
        rows.append(TimingRow(n_steps, wall_fast, wall_direct, nexp))
        print(f"N={n_steps}: fast={wall_fast if wall_fast is None else f'{wall_fast:.3f}s'} "
              f"direct={wall_direct if wall_direct is None else f'{wall_direct:.3f}s'} "
              f"n_exp={nexp}")

    with _open_out(args) as fh:
        for line in header_lines(args):
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
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_soe_check(args: argparse.Namespace) -> int:
    if args.t_min is None or args.t_max is None:
        raise _usage_error("soe-check needs --t-min and --t-max")
    try:
        soe = build_soe(args.alpha, args.epsilon, args.t_min, args.t_max)
    except ValueError as exc:
        raise _usage_error(str(exc))
    report = certify_soe(soe, n_samples=max(100, args.samples))
    print(f"n_exp: {soe.n_exp}")
    print(f"max relative error: {report.max_rel_error:.6e} at t = {report.argmax_t:.6e}")
    if args.out is not None:
        t = np.geomspace(args.t_min, args.t_max, min(args.samples, 10_000))
        kern = t ** (-1.0 - args.alpha)
        vals = eval_soe(soe, t)
        rel = np.abs(vals - kern) / kern
        with _open_out(args) as fh:
            for line in header_lines(args):
                fh.write(line + "\n")
            fh.write(f"# t_min={args.t_min} t_max={args.t_max} n_exp={soe.n_exp}\n")
            fh.write("t,kernel,soe,rel_err\n")
            np.savetxt(fh, np.column_stack([t, kern, vals, rel]), fmt="%.10e", delimiter=",")
        print(f"wrote {args.out}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    handlers = {
        "solve": cmd_solve,
        "convergence": cmd_convergence,
        "bench": cmd_bench,
        "soe-check": cmd_soe_check,
    }
    try:
        return handlers[args.command](args)
    except (CertificationError, SolveError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
