"""Manufactured test problems, discrete norms and convergence-order tables.

The three cases share the time profile e^{-lam t} (t^delta + 1) (Case 3 adds
an x-dependent modulation); delta in (1, 2) sets the strength of the initial
layer.  Forcings are derived symbolically from the exact solutions so the
discretization error can be measured exactly; a quadrature-based residual
test in the suite re-derives them independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "ErrorRow",
    "ManufacturedCase",
    "case",
    "h1_norm",
    "l2_norm",
    "max_error",
    "order_table",
]


@dataclass(frozen=True)
class ManufacturedCase:
    """Exact solution, initial data and forcing for one benchmark case.

    All three callables are vectorized over x and t.  ``exact(x, 0) == phi(x)``
    and the exact solution vanishes at x = 0 and x = L.
    """

    id: int
    alpha: float
    lam: float
    delta: float
    exact: Callable
    phi: Callable
    forcing: Callable
    L: float = 1.0
    T: float = 2.0


def case(id: int, alpha: float, lam: float = 1.0, delta: float = 1.8) -> ManufacturedCase:
    """Build benchmark case 1, 2 or 3.

    Case 1: u = e^{-lam t} (t^delta + 1) x^2 (1-x)^2
    Case 2: u = e^{-lam t} (t^delta + 1) sin(pi x^2)
    Case 3: u = e^{-lam t} (e^{-x} t^delta + 1) x^4 (1-x)^4

    Raises ValueError naming the field unless 0 < alpha < 1, lam is finite
    and >= 0, and delta is finite and > 0 (delta <= 0 would make the exact
    solution at t = 0 differ from phi).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    if not 0.0 <= lam < math.inf:
        raise ValueError(f"lam must be finite and >= 0, got {lam!r}")
    if not 0.0 < delta < math.inf:
        raise ValueError(f"delta must be finite and > 0, got {delta!r}")
    gq = math.gamma(delta + 1.0) / math.gamma(delta - alpha + 1.0)

    def time_bracket(t):
        # u_t + D^{alpha,lam} u contributions of the profile (t^delta + 1)
        return (
            -lam * (t**delta + 1.0)
            + delta * t ** (delta - 1.0)
            + gq * t ** (delta - alpha)
        ) * np.exp(-lam * t)

    if id == 1:

        def g(x):
            return x**2 * (1.0 - x) ** 2

        def exact(x, t):
            return np.exp(-lam * t) * (t**delta + 1.0) * g(x)

        def phi(x):
            return g(x)

        def forcing(x, t):
            spatial = (12.0 * x**2 - 12.0 * x + 2.0) - (
                4.0 * x**3 - 6.0 * x**2 + 2.0 * x
            )
            return time_bracket(t) * g(x) - spatial * (t**delta + 1.0) * np.exp(-lam * t)

    elif id == 2:

        def g(x):
            return np.sin(np.pi * x**2)

        def exact(x, t):
            return np.exp(-lam * t) * (t**delta + 1.0) * g(x)

        def phi(x):
            return g(x)

        def forcing(x, t):
            c = np.cos(np.pi * x**2)
            spatial = (
                -2.0 * np.pi * x * c
                + 2.0 * np.pi * c
                - 4.0 * np.pi**2 * x**2 * np.sin(np.pi * x**2)
            )
            return time_bracket(t) * g(x) - spatial * (t**delta + 1.0) * np.exp(-lam * t)

    elif id == 3:

        def q(x):
            return x**4 * (1.0 - x) ** 4

        def exact(x, t):
            return np.exp(-lam * t) * (np.exp(-x) * t**delta + 1.0) * q(x)

        def phi(x):
            return q(x)

        def forcing(x, t):
            ex = np.exp(-x)
            w = ex * t**delta + 1.0
            t_part = (
                -lam * w + delta * ex * t ** (delta - 1.0) + gq * ex * t ** (delta - alpha)
            ) * np.exp(-lam * t) * q(x)
            # q'' - q' = 12 x^2 (1-x)^2 (1-2x)^2 - 4 x^3 (1-x)^3 (3-2x)
            qpp_m_qp = 12.0 * x**2 * (1.0 - x) ** 2 * (1.0 - 2.0 * x) ** 2 - 4.0 * x**3 * (
                1.0 - x
            ) ** 3 * (3.0 - 2.0 * x)
            cross = 2.0 * x**4 * (1.0 - x) ** 4 - 8.0 * x**3 * (1.0 - x) ** 3 * (
                1.0 - 2.0 * x
            )
            return (
                t_part
                - qpp_m_qp * w * np.exp(-lam * t)
                - cross * ex * t**delta * np.exp(-lam * t)
            )

    else:
        raise ValueError(f"unknown case id {id!r}; valid ids are 1, 2, 3")

    return ManufacturedCase(
        id=int(id),
        alpha=float(alpha),
        lam=float(lam),
        delta=float(delta),
        exact=exact,
        phi=phi,
        forcing=forcing,
    )


def l2_norm(v: np.ndarray, h: float) -> float:
    """Discrete L2 norm sqrt(h * sum v_j^2) over interior points."""
    v = np.asarray(v, dtype=float)
    return math.sqrt(h * float(np.dot(v, v)))


def h1_norm(v: np.ndarray, h: float) -> float:
    """Discrete H1 norm: L2 part plus forward-difference seminorm.

    The vector is extended by the homogeneous boundary values, so both
    boundary jumps contribute to the seminorm.
    """
    v = np.asarray(v, dtype=float)
    padded = np.concatenate(([0.0], v, [0.0]))
    d = np.diff(padded) / h
    return math.sqrt(h * float(np.dot(v, v)) + h * float(np.dot(d, d)))


_NORMS = {"l2": l2_norm, "h1": h1_norm}


def max_error(traj, case_: ManufacturedCase, norm: str = "l2") -> float:
    """Max over the time levels n >= 1 of ||U^n - u(., t_n)||."""
    norm_fn = _NORMS[norm.lower()]
    xi = traj.grid.x_interior
    h = traj.grid.h
    t = traj.mesh.t
    worst = 0.0
    for n, u_num in traj.snapshots.items():
        if n == 0:
            continue
        err = norm_fn(u_num - case_.exact(xi, t[n]), h)
        worst = max(worst, err)
    return worst


@dataclass(frozen=True)
class ErrorRow:
    knob: int
    err: float
    order: float | None


def order_table(
    errs: list[tuple[int, float]],
    steps: list[float] | None = None,
) -> list[ErrorRow]:
    """Observed convergence orders from a refinement sweep.

    By default order_k = log(err_{k-1}/err_k) / log(knob_k/knob_{k-1}), which
    is log2 of the error ratio for doubling knobs.  If ``steps`` is given
    (e.g. maximal time-step sizes on a graded mesh), the order is measured
    against the step ratio instead: log(err_{k-1}/err_k)/log(step_{k-1}/step_k).
    """
    if steps is not None and len(steps) != len(errs):
        raise ValueError("steps must align with errs")
    rows: list[ErrorRow] = []
    for i, (knob, err) in enumerate(errs):
        if not err > 0.0:
            raise ValueError(f"errors must be positive, got {err!r} at knob {knob}")
        if i == 0:
            rows.append(ErrorRow(knob=knob, err=float(err), order=None))
            continue
        if steps is None:
            denom = math.log(knob / errs[i - 1][0])
        else:
            denom = math.log(steps[i - 1] / steps[i])
        rows.append(
            ErrorRow(
                knob=knob,
                err=float(err),
                order=math.log(errs[i - 1][1] / err) / denom,
            )
        )
    return rows
