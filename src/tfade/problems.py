"""Manufactured test problems, discrete norms and convergence-order tables.

Every case has the exact solution u = e^{-lam t} (t^delta a(x) + b(x)) for
two space profiles a and b that vanish at x = 0 and x = 1; delta in (1, 2)
sets the strength of the initial layer.  The tempered Caputo derivative maps
e^{-lam t} t^delta to e^{-lam t} Gamma(delta+1)/Gamma(delta-alpha+1)
t^(delta-alpha) and e^{-lam t} to 0, so with L v = v'' - v' one formula gives
every forcing:

    f = e^{-lam t} [(delta t^(delta-1) + gq t^(delta-alpha) - lam t^delta) a
                    - t^delta La - lam b - Lb].

A case supplies only (a, La) and (b, Lb).  The polynomial profiles are
`numpy.polynomial.Polynomial` objects, whose derivatives come from `deriv`.
A quadrature-based residual test in the suite re-derives every forcing
independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial import Polynomial

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


def _poly(p: Polynomial) -> tuple[Callable, Callable]:
    """A polynomial profile p and L p = p'' - p'."""
    return p, p.deriv(2) - p.deriv()


def _sin_x2(x):
    return np.sin(np.pi * x**2)


def _L_sin_x2(x):
    return 2.0 * np.pi * (1.0 - x) * np.cos(np.pi * x**2) - 4.0 * (np.pi * x) ** 2 * _sin_x2(x)


_X = Polynomial([0.0, 1.0])
_Q = (_X * (1.0 - _X)) ** 4
# L(e^{-x} q) = e^{-x} (q'' - 3 q' + 2 q)
_LQ = _Q.deriv(2) - 3.0 * _Q.deriv() + 2.0 * _Q

# case id -> ((a, La), (b, Lb))
_PROFILES = {
    0: (_poly(Polynomial([0.0])),) * 2,
    1: (_poly((_X * (1.0 - _X)) ** 2),) * 2,
    2: ((_sin_x2, _L_sin_x2),) * 2,
    3: ((lambda x: np.exp(-x) * _Q(x), lambda x: np.exp(-x) * _LQ(x)), _poly(_Q)),
}


def case(id: int, alpha: float, lam: float = 1.0, delta: float = 1.8) -> ManufacturedCase:
    """Build benchmark case 0, 1, 2 or 3, u = e^{-lam t} (t^delta a + b).

    Case 0: a = b = 0 (the zero solution)
    Case 1: a = b = x^2 (1-x)^2
    Case 2: a = b = sin(pi x^2)
    Case 3: a = e^{-x} q, b = q, with q = x^4 (1-x)^4

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
    if id not in _PROFILES:
        raise ValueError(f"unknown case id {id!r}; valid ids are 0, 1, 2, 3")
    (a, La), (b, Lb) = _PROFILES[id]
    gq = math.gamma(delta + 1.0) / math.gamma(delta - alpha + 1.0)

    def exact(x, t):
        return np.exp(-lam * t) * (t**delta * a(x) + b(x))

    def forcing(x, t):
        # every product is (time factor) x (space profile), so on a table
        # the in-place updates hold at most two full-size arrays at once
        e = np.exp(-lam * t)
        td = t**delta
        f = e * (delta * t ** (delta - 1.0) + gq * t ** (delta - alpha) - lam * td) * a(x)
        f -= e * td * La(x)
        f -= e * (lam * b(x) + Lb(x))
        return f

    return ManufacturedCase(
        id=int(id),
        alpha=float(alpha),
        lam=float(lam),
        delta=float(delta),
        exact=exact,
        phi=b,
        forcing=forcing,
    )


def l2_norm(v: np.ndarray, h: float) -> np.floating | np.ndarray:
    """Discrete L2 norm sqrt(h * sum v_j^2) over the interior points.

    The sum runs over the last axis, so a stack of vectors gives a stack of
    norms.
    """
    v = np.asarray(v, dtype=float)
    return np.sqrt(h * np.einsum("...j,...j->...", v, v))


def h1_norm(v: np.ndarray, h: float) -> np.floating | np.ndarray:
    """Discrete H1 norm: L2 part plus forward-difference seminorm.

    The vector is extended by the homogeneous boundary values, so both
    boundary jumps contribute to the seminorm.  Like `l2_norm` it reduces
    over the last axis.
    """
    v = np.asarray(v, dtype=float)
    d = np.diff(v, prepend=0.0, append=0.0) / h
    return np.sqrt(h * np.einsum("...j,...j->...", v, v) + h * np.einsum("...j,...j->...", d, d))


def max_error(traj, case_: ManufacturedCase, norm: str = "l2") -> float:
    """Max over the time levels n >= 1 of ||U^n - u(., t_n)||.

    The exact solution is evaluated once, on all those levels together.
    """
    norm_fn = {"l2": l2_norm, "h1": h1_norm}[norm.lower()]
    levels = [n for n in traj.snapshots if n > 0]
    err = np.stack([traj.snapshots[n] for n in levels])
    err -= case_.exact(traj.grid.x_interior[None, :], traj.mesh.t[levels, None])
    return float(np.max(norm_fn(err, traj.grid.h)))


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
