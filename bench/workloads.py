"""The benchmark's workloads and the measuring loop they share.

A workload is a fixed list of solves.  One repeat runs the whole list once,
in one process, each solve followed by its error evaluation (a closed loop:
the next call starts when the previous one returns).  ``conv_sweep`` hands
its list to ``tfade convergence`` in-process, whose own thread pool runs the
eight solves.  The inputs are closed-form and deterministic; nothing depends
on a seed.
"""

from __future__ import annotations

import contextlib
import io
import os
import time
import tracemalloc
from dataclasses import dataclass

import tfade.cli
import tfade.problems
import tfade.solver
from tfade.mesh import graded_mesh, soe_interval
from tfade.soe import CertificationError, build_soe
from tfade.solver import SchemeConfig, SolveError

import checks
from spans import CLI, Tracer


@dataclass(frozen=True)
class Job:
    """One solve: a manufactured case on one grid with one method."""

    case_id: int
    M: int
    N: int
    method: str
    alpha: float = 0.5
    lam: float = 1.0
    delta: float = 1.8
    r: float = 3.0
    epsilon: float = 1e-10
    T: float = 2.0
    L: float = 1.0

    @property
    def label(self) -> str:
        return f"case {self.case_id} M={self.M} N={self.N} {self.method}"

    def config(self) -> SchemeConfig:
        return SchemeConfig(alpha=self.alpha, lam=self.lam, M=self.M, N=self.N, T=self.T,
                            L=self.L, r=self.r, epsilon=self.epsilon, method=self.method)


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: tuple[Job, ...]
    cli: bool = False  # run the jobs through ``tfade convergence``

    def cli_args(self, out: str) -> list[str]:
        """The ``tfade convergence`` command line for a space sweep at fixed N."""
        job = self.jobs[0]
        ms = sorted({j.M for j in self.jobs})
        return ["convergence", "--case", str(job.case_id), "--alpha", str(job.alpha),
                "--N", str(job.N), "--M", ",".join(map(str, ms)), "--method", "both",
                "--out", out]

    def largest(self, method: str) -> Job:
        return max((j for j in self.jobs if j.method == method), key=lambda j: j.M * j.N)


def _both(case_id: int, M: int, N: int) -> tuple[Job, ...]:
    return Job(case_id, M, N, "fast"), Job(case_id, M, N, "direct")


def _sweep(case_id: int, ms, N: int) -> tuple[Job, ...]:
    return tuple(Job(case_id, M, N, method) for method in ("fast", "direct") for M in ms)


WORKLOADS = {
    "long_history": Workload("long_history", _both(1, 64, 4096)),
    "wide_space": Workload("wide_space", _both(2, 2000, 512)),
    "conv_sweep": Workload("conv_sweep", _sweep(3, (20, 40, 80, 160), 1000), cli=True),
}
# the same shapes at a size a test can afford
SMALL = {
    "long_history": Workload("long_history", _both(1, 16, 256)),
    "wide_space": Workload("wide_space", _both(2, 200, 64)),
    "conv_sweep": Workload("conv_sweep", _sweep(3, (10, 20, 40), 200), cli=True),
}
WARMUP = _both(1, 8, 32)


def warm_up() -> None:
    """One tiny solve and error evaluation per method: fills the quadrature
    cache and runs every code path once (and numba's JIT, where installed)."""
    for job in WARMUP:
        mc = tfade.problems.case(job.case_id, job.alpha, job.lam, job.delta)
        tfade.problems.max_error(tfade.solver.run(job.config(), mc), mc)


@dataclass
class Repeat:
    """What one pass over a workload's job list measured."""

    wall: float
    solve_s: dict[str, float]
    attempted: int
    failed: int
    problems: list[str]


class Runner:
    """Runs a workload's job list repeatedly and checks every result.

    With ``tracer.install(INNER)`` done beforehand the same loop gives the
    per-layer spans; without it only the calls into ``run`` and
    ``max_error`` are timed.
    """

    def __init__(self, workload: Workload, tracer: Tracer, out_dir: str):
        self.wl = workload
        self.tracer = tracer
        self.out_dir = out_dir
        self.cases = {j.case_id: tfade.problems.case(j.case_id, j.alpha, j.lam, j.delta)
                      for j in workload.jobs}
        self._soe = {}
        if workload.cli:
            tracer.install(CLI)
        else:
            self.solve = tracer.wrap("solver.run", tfade.solver.run)
            self.error = tracer.wrap("problems.max_error", tfade.problems.max_error)

    def repeat(self) -> Repeat:
        failed = 0
        reported: dict[tuple[str, int], float] = {}
        table = None
        start = time.perf_counter()
        if self.wl.cli:
            out = os.path.join(self.out_dir, f"conv_sweep-{os.getpid()}.csv")
            with contextlib.redirect_stdout(io.StringIO()):
                rc = tfade.cli.main(self.wl.cli_args(out))
            if rc == tfade.cli.EXIT_NUMERICAL:
                failed = len(self.wl.jobs)
            elif rc == 0:
                with open(out) as fh:
                    table = fh.read()
        else:
            for job in self.wl.jobs:
                mc = self.cases[job.case_id]
                try:
                    traj = self.solve(job.config(), mc)
                except (SolveError, CertificationError):
                    failed += 1
                    continue
                reported[(job.method, job.M)] = self.error(traj, mc)
        wall = time.perf_counter() - start

        problems = []
        if self.wl.cli:
            if rc not in (0, tfade.cli.EXIT_NUMERICAL):
                problems.append(f"tfade convergence exited with {rc}")
            elif table is not None:
                os.remove(out)
                problems += checks.check_table(table, sorted({j.M for j in self.wl.jobs}))
                for row in checks.read_table(table):
                    reported[(row["method"], row["knob"])] = row["error"]
        solve_s = {"fast": 0.0, "direct": 0.0}
        trajs = {}
        for span, traj in self.tracer.take_results():
            solve_s[span.tag] += span.seconds
            trajs[(traj.config.method, traj.config.M)] = traj
        for job in self.wl.jobs:
            traj = trajs.get((job.method, job.M))
            if traj is None:
                if not failed:
                    problems.append(f"{job.label}: no trajectory returned")
                continue
            problems += checks.check_error(job, traj, reported.get((job.method, job.M)))
            if job.method == "fast":
                problems += checks.check_soe(job, self._soe_for(job), traj.n_exp_used)
                other = trajs.get(("direct", job.M))
                if other is not None:
                    problems += checks.check_agreement(job, traj, other)
        return Repeat(wall, solve_s, len(self.wl.jobs), failed, problems)

    def _soe_for(self, job: Job):
        """The kernel surrogate a fast solve of ``job`` builds, made apart from it."""
        key = (job.alpha, job.epsilon, job.T, job.N, job.r)
        if key not in self._soe:
            mesh = graded_mesh(job.T, job.N, job.r)
            self._soe[key] = build_soe(job.alpha, job.epsilon, *soe_interval(mesh))
        return self._soe[key]

    def measure(self, seconds: float) -> list[Repeat]:
        """Whole repeats until ``seconds`` have passed (at least one)."""
        reps = []
        start = time.perf_counter()
        while not reps or time.perf_counter() - start < seconds:
            self.tracer.rep = len(reps)
            reps.append(self.repeat())
        return reps


def peak_mb(job: Job) -> float:
    """tracemalloc peak, in MB, of one solve of ``job`` run on its own."""
    mc = tfade.problems.case(job.case_id, job.alpha, job.lam, job.delta)
    config = job.config()
    tracemalloc.start()
    try:
        tfade.solver.run(config, mc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 1e6
