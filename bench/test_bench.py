"""Tests of the benchmark's checks and a small-size run of each workload.

    python3 -m pytest bench -q

Each check is shown to pass on the program's real output and to fail on a
wrong answer made from it.
"""

import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from layers import PER_LAYER, layer_metrics  # noqa: E402
from spans import INNER, Tracer  # noqa: E402
from tfade.mesh import graded_mesh, soe_interval  # noqa: E402
from tfade.problems import case  # noqa: E402
from tfade.soe import SOEApprox, build_soe  # noqa: E402
from tfade.solver import run  # noqa: E402

FAST = workloads.Job(1, 16, 128, "fast")
DIRECT = workloads.Job(1, 16, 128, "direct")


@pytest.fixture(scope="module")
def trajs():
    mc = case(1, 0.5, 1.0)
    return run(FAST.config(), mc), run(DIRECT.config(), mc)


def _perturbed(traj, level, amount):
    snaps = dict(traj.snapshots)
    snaps[level] = snaps[level] + amount
    return type(traj)(traj.config, traj.mesh, traj.grid, snaps, traj.wall_time, traj.n_exp_used)


def test_error_check_passes_on_solve(trajs):
    assert checks.check_error(FAST, trajs[0]) == []
    err, _ = checks.solve_error(FAST, trajs[0])
    assert checks.check_error(FAST, trajs[0], reported=err) == []


def test_error_check_fails_on_perturbed_level(trajs):
    _, u_max = checks.solve_error(FAST, trajs[0])
    bad = _perturbed(trajs[0], 40, 2.0 * checks.error_bound(FAST, u_max))
    assert checks.check_error(FAST, bad)


def test_error_check_fails_on_wrong_reported_error(trajs):
    err, _ = checks.solve_error(FAST, trajs[0])
    assert checks.check_error(FAST, trajs[0], reported=err * (1 + 1e-6))


def test_error_check_fails_on_missing_level(trajs):
    snaps = dict(trajs[0].snapshots)
    del snaps[7]
    t = trajs[0]
    assert checks.check_error(FAST, type(t)(t.config, t.mesh, t.grid, snaps, 0.0, t.n_exp_used))


def test_agreement_passes_and_fails_on_one_level(trajs):
    assert checks.check_agreement(FAST, *trajs) == []
    assert checks.check_agreement(FAST, _perturbed(trajs[0], 100, 1e-5), trajs[1])


def _soe():
    return build_soe(0.5, 1e-10, *soe_interval(graded_mesh(2.0, FAST.N, 3.0)))


def test_soe_check_passes(trajs):
    assert checks.check_soe(FAST, _soe(), trajs[0].n_exp_used) == []


def test_soe_check_fails_on_negated_weight(trajs):
    soe = _soe()
    weights = soe.weights.copy()
    weights[len(weights) // 2] *= -1.0
    bad = SOEApprox(soe.alpha, soe.epsilon, soe.t_min, soe.t_max, weights, soe.exponents)
    assert checks.check_soe(FAST, bad, trajs[0].n_exp_used)


def test_soe_check_fails_on_dropped_term_and_wrong_size(trajs):
    soe = _soe()
    keep = np.arange(soe.n_exp) != soe.n_exp // 2
    bad = SOEApprox(soe.alpha, soe.epsilon, soe.t_min, soe.t_max,
                    soe.weights[keep], soe.exponents[keep])
    problems = checks.check_soe(FAST, bad, trajs[0].n_exp_used)
    assert any("relative error" in p for p in problems)
    assert any("exponentials" in p for p in problems)


TABLE = """# tfade convergence
knob,error,order,method,norm
10,5.6611322952e-05,,fast,l2
20,1.3329420153e-05,2.0865,fast,l2
40,3.2823859098e-06,2.0218,fast,l2
10,5.6611322952e-05,,direct,l2
20,1.3329420153e-05,2.0865,direct,l2
40,3.2823859098e-06,2.0218,direct,l2
"""


def test_table_check_passes():
    assert checks.check_table(TABLE, [10, 20, 40]) == []


def test_table_check_fails_on_order():
    assert checks.check_table(TABLE.replace("2.0218,fast", "1.5,fast"), [10, 20, 40])


def test_table_check_fails_on_method_mismatch():
    bad = TABLE.replace("3.2823859098e-06,2.0218,direct", "3.2824859098e-06,2.0218,direct")
    assert checks.check_table(bad, [10, 20, 40])


def test_table_check_fails_on_missing_row_and_header():
    assert checks.check_table(TABLE.replace("40,3.2823859098e-06,2.0218,direct,l2\n", ""),
                              [10, 20, 40])
    assert checks.check_table(TABLE.replace("knob,", "M,"), [10, 20, 40])


@pytest.mark.parametrize("name", sorted(workloads.SMALL))
@pytest.mark.parametrize("traced", [False, True])
def test_small_workload_runs_and_checks(name, traced, tmp_path):
    wl = workloads.SMALL[name]
    tracer = Tracer()
    try:
        runner = workloads.Runner(wl, tracer, str(tmp_path))
        if traced:
            tracer.install(INNER)
        reps = runner.measure(0.0)
    finally:
        tracer.uninstall()
    assert len(reps) == 1
    rep = reps[0]
    assert rep.problems == [] and rep.failed == 0 and rep.attempted == len(wl.jobs)
    assert rep.solve_s["fast"] > 0 and rep.solve_s["direct"] > 0
    if traced:
        metrics = layer_metrics(tracer.spans, [rep.wall], tracer.absent)
        assert set(metrics) == set(PER_LAYER)
        assert all(m["value"] is not None for m in metrics.values())
        steps = sum(j.N for j in wl.jobs)
        assert metrics["solver.tridiag_solves"]["value"] == steps
        assert metrics["soe.builds"]["value"] == len(wl.jobs) // 2
    else:
        assert tracer.spans and {s.name for s in tracer.spans} == {"solver.run", "problems.max_error"}


def test_absent_name_is_reported_not_zero(monkeypatch):
    import tfade.solver

    monkeypatch.delattr(tfade.solver, "_direct_history")
    tracer = Tracer()
    try:
        tracer.install(INNER)
    finally:
        tracer.uninstall()
    metrics = layer_metrics([], [1.0], tracer.absent)
    assert metrics["solver.direct_history_s"]["value"] is None
    assert metrics["solver.direct_history_calls"]["absent"] == "tfade.solver._direct_history"
    assert metrics["solver.tridiag_solves"]["value"] == 0


def test_command_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "wide_space", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0 and out.stdout == ""


def test_spans_dump_round_trips(tmp_path):
    tracer = Tracer()
    f = tracer.wrap("solver.run", lambda cfg: cfg)
    f(workloads.Job(1, 8, 32, "fast").config())
    path = tmp_path / "spans.csv"
    tracer.dump(path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("name,start,end") and lines[1].startswith("solver.run,")
    assert len(tracer.results) == 1

