"""Graded temporal meshes and uniform spatial grids.

The temporal grid t_n = T (n/N)**r clusters points near t = 0, which is where
solutions of the tempered fractional problem lose regularity.  Points are
computed from the closed formula (not cumulatively) so there is no drift;
steps are differences of exact points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SpatialGrid", "TemporalMesh", "graded_mesh", "soe_interval", "uniform_grid"]


@dataclass(frozen=True)
class TemporalMesh:
    """Graded time grid on [0, T].

    ``t`` has N+1 entries with t[n] = T(n/N)**r.  ``tau`` has N entries with
    tau[n] = t[n+1] - t[n], i.e. tau[n] is the step *into* level n+1 (the
    step written tau_{n+1} in index-1 notation).  ``tbar`` has N entries with
    tbar[n] = (t[n] + t[n+1])/2, the half-time collocation points.
    """

    T: float
    N: int
    r: float
    t: np.ndarray
    tau: np.ndarray
    tbar: np.ndarray


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform grid x_i = i h on [0, L] with h = L/M."""

    L: float
    M: int
    h: float
    x: np.ndarray

    @property
    def x_interior(self) -> np.ndarray:
        return self.x[1:-1]


def graded_mesh(T: float, N: int, r: float) -> TemporalMesh:
    """Build the graded mesh t_n = T (n/N)**r, n = 0..N.

    Requires finite T > 0, integer N >= 2 and finite grading exponent r >= 1
    (r = 1 is the uniform mesh; r < 1 is rejected since the step sizes must
    be nondecreasing).
    """
    if not 0 < T < np.inf:
        raise ValueError(f"T must be finite and positive, got {T!r}")
    if not isinstance(N, (int, np.integer)) or isinstance(N, bool) or N < 2:
        raise ValueError(f"N must be an integer >= 2, got {N!r}")
    if not 1 <= r < np.inf:
        raise ValueError(f"grading exponent r must be finite and >= 1, got {r!r}")
    n = np.arange(N + 1, dtype=float)
    t = T * (n / N) ** float(r)
    tau = np.diff(t)
    tbar = 0.5 * (t[:-1] + t[1:])
    return TemporalMesh(T=float(T), N=int(N), r=float(r), t=t, tau=tau, tbar=tbar)


def soe_interval(mesh: TemporalMesh) -> tuple[float, float]:
    """Kernel-argument interval the exponential sum must cover.

    At step n >= 1 the history kernel is evaluated at tbar_n - s for
    s in [0, t_n], i.e. arguments in [tau_{n+1}/2, tbar_n].  With
    nondecreasing steps the left end is smallest at n = 1 (tau_2/2) and the
    right end largest at n = N-1 (tbar_{N-1}).  Step n = 0 has no history.
    """
    return float(mesh.tau[1] / 2.0), float(mesh.tbar[-1])


def uniform_grid(L: float, M: int) -> SpatialGrid:
    """Build the uniform spatial grid with M cells on [0, L], L finite and > 0."""
    if not 0 < L < np.inf:
        raise ValueError(f"L must be finite and positive, got {L!r}")
    if not isinstance(M, (int, np.integer)) or isinstance(M, bool) or M < 2:
        raise ValueError(f"M must be an integer >= 2, got {M!r}")
    x = np.linspace(0.0, float(L), int(M) + 1)
    return SpatialGrid(L=float(L), M=int(M), h=float(L) / int(M), x=x)
