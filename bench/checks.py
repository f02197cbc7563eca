"""Correctness checks the benchmark applies to every solve it times.

Each check compares the program's output with something computed apart from
the program, or with a property the method must have:

* `solve_error` measures a trajectory against this file's own copy of the
  closed-form manufactured solutions, on a grid rebuilt here from the
  configuration, and `check_error` holds it under a second-order bound.
* `check_agreement` asks the fast and direct trajectories, two independent
  history paths, to agree at every level.
* `check_soe` evaluates the program's exponential sum on a log grid of its
  own and compares it with the kernel t^(-1-alpha).
* `check_table` reads the CSV written by ``tfade convergence``.

Every check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import math

import numpy as np

# E <= ERROR_FACTOR * max|u| * (h^2 + N^-2); see README.md, "Correctness checks"
ERROR_FACTOR = 4.0
# two history paths whose kernels differ by a certified relative 1e-10
AGREEMENT_L2 = 1e-6
# the CLI prints errors with 11 significant digits
TABLE_DIGITS_RTOL = 1e-9
# spatial order of the scheme and the window the sweep's orders must hit
ORDER, ORDER_TOL = 2.0, 0.1
SOE_GRID = 5003


def exact(case_id: int, lam: float, delta: float, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Closed-form solution of case 1, 2 or 3 on the outer product t x x."""
    x = np.asarray(x, dtype=float)[None, :]
    t = np.asarray(t, dtype=float)[:, None]
    decay = np.exp(-lam * t)
    if case_id == 1:
        return decay * (t**delta + 1.0) * (x * x * (1.0 - x) ** 2)
    if case_id == 2:
        return decay * (t**delta + 1.0) * np.sin(np.pi * x * x)
    if case_id == 3:
        return decay * (np.exp(-x) * t**delta + 1.0) * (x * (1.0 - x)) ** 4
    raise ValueError(f"unknown case {case_id!r}")


def grids(job) -> tuple[np.ndarray, np.ndarray, float]:
    """Interior points, time levels and h for a job, built from its fields."""
    h = job.L / job.M
    x = h * np.arange(1, job.M)
    t = job.T * (np.arange(job.N + 1) / job.N) ** job.r
    return x, t, h


def levels(traj, n_levels: int) -> np.ndarray:
    """Stack the trajectory's interior levels 0..n_levels-1 as one table."""
    return np.stack([traj.snapshots[n] for n in range(n_levels)])


def solve_error(job, traj) -> tuple[float, float]:
    """(max over n >= 1 of the discrete L2 error, max |u| on the grid)."""
    x, t, h = grids(job)
    u = exact(job.case_id, job.lam, job.delta, x, t)
    diff = levels(traj, job.N + 1) - u
    err = np.sqrt(h * np.einsum("ij,ij->i", diff[1:], diff[1:]))
    return float(err.max()), float(np.abs(u).max())


def error_bound(job, u_max: float) -> float:
    """Second-order bound ERROR_FACTOR * max|u| * (h^2 + N^-2)."""
    return ERROR_FACTOR * u_max * ((job.L / job.M) ** 2 + job.N**-2.0)


def check_error(job, traj, reported: float | None = None) -> list[str]:
    """The trajectory's error stays under the bound; ``reported`` matches it."""
    missing = [n for n in range(job.N + 1) if n not in traj.snapshots]
    if missing:
        return [f"{job.label}: levels {missing[:3]}... not retained"]
    err, u_max = solve_error(job, traj)
    bound = error_bound(job, u_max)
    out = []
    if not err <= bound:
        out.append(f"{job.label}: L2 error {err:.3e} above bound {bound:.3e}")
    if reported is not None and not abs(reported - err) <= TABLE_DIGITS_RTOL * err:
        out.append(f"{job.label}: program reports error {reported:.10e}, benchmark measures {err:.10e}")
    return out


def max_gap(job, traj_a, traj_b) -> float:
    """Largest discrete L2 distance between two trajectories over all levels."""
    h = job.L / job.M
    diff = levels(traj_a, job.N + 1) - levels(traj_b, job.N + 1)
    return float(np.sqrt(h * np.einsum("ij,ij->i", diff, diff)).max())


def check_agreement(job, traj_fast, traj_direct) -> list[str]:
    """Fast and direct trajectories agree at every level to AGREEMENT_L2."""
    gap = max_gap(job, traj_fast, traj_direct)
    if not gap <= AGREEMENT_L2:
        return [f"{job.label}: fast and direct differ by {gap:.3e} in L2 (limit {AGREEMENT_L2:g})"]
    return []


def soe_rel_error(alpha: float, t_min: float, t_max: float, weights, exponents) -> float:
    """Max relative error of sum w e^(-s t) against t^(-1-alpha) on a log grid."""
    t = np.geomspace(t_min, t_max, SOE_GRID)
    with np.errstate(under="ignore"):
        approx = np.exp(-np.outer(t, exponents)) @ weights
    kernel = t ** (-1.0 - alpha)
    return float((np.abs(approx - kernel) / kernel).max())


def check_soe(job, soe, n_exp_used: int) -> list[str]:
    """Positive weights, the kernel within epsilon, the size the solve used."""
    out = []
    if soe.n_exp != n_exp_used:
        out.append(f"{job.label}: solve used {n_exp_used} exponentials, build_soe gives {soe.n_exp}")
    if not (soe.weights > 0.0).all():
        out.append(f"{job.label}: {(soe.weights <= 0.0).sum()} SOE weights are not positive")
    rel = soe_rel_error(job.alpha, soe.t_min, soe.t_max, soe.weights, soe.exponents)
    if not rel <= job.epsilon:
        out.append(f"{job.label}: SOE relative error {rel:.3e} above epsilon {job.epsilon:g}")
    return out


def read_table(text: str) -> list[dict]:
    """Rows of a ``tfade convergence`` CSV, comments skipped."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines or lines[0] != "knob,error,order,method,norm":
        raise ValueError(f"unexpected CSV header {lines[:1]!r}")
    rows = []
    for ln in lines[1:]:
        knob, err, order, method, norm = ln.split(",")
        rows.append({
            "knob": int(knob), "error": float(err),
            "order": None if order == "" else float(order),
            "method": method, "norm": norm,
        })
    return rows


def check_table(text: str, m_list: list[int]) -> list[str]:
    """Orders within ORDER +- ORDER_TOL; fast and direct rows agree."""
    try:
        rows = read_table(text)
    except ValueError as exc:
        return [f"conv_sweep CSV: {exc}"]
    out = []
    by_method = {}
    for row in rows:
        by_method.setdefault(row["method"], []).append(row)
    for method in ("fast", "direct"):
        knobs = [row["knob"] for row in by_method.get(method, [])]
        if knobs != m_list:
            out.append(f"conv_sweep CSV: {method} rows cover M={knobs}, expected {m_list}")
    for row in rows:
        order = row["order"]
        if order is not None and not abs(order - ORDER) <= ORDER_TOL:
            out.append(f"conv_sweep CSV: order {order} at M={row['knob']} ({row['method']}) "
                       f"outside {ORDER} +- {ORDER_TOL}")
    for fast, direct in zip(by_method.get("fast", []), by_method.get("direct", [])):
        if not math.isclose(fast["error"], direct["error"], rel_tol=1e-6):
            out.append(f"conv_sweep CSV: fast {fast['error']:.6e} and direct "
                       f"{direct['error']:.6e} differ at M={fast['knob']}")
    return out
