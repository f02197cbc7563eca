"""Fully discrete Crank-Nicolson-type marching scheme.

Each step solves one tridiagonal system for the new interior values: the
half-time-level collocation puts (U^{n+1} - U^n)/tau_{n+1}, the implicit half
of the centered space operators and the local fractional coefficient B on the
left, everything known (explicit local term, compressed or exact history
bracket, forcing at tbar_n) on the right.  The left-hand matrix has
eigenvalues bounded below by 1/tau_{n+1} + B > 0 and is strictly diagonally
dominant, so the LAPACK tridiagonal solve (gtsv) never breaks down for valid
grids.  Only that diagonal scalar changes from step to step; `run` holds the
off-diagonals, the per-step coefficients and the space stencil once per run,
so a step costs its history term plus O(M) vector work.
"""

from __future__ import annotations

import math
import numbers
import time
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dgtsv

from tfade.mesh import SpatialGrid, TemporalMesh, graded_mesh, soe_interval, uniform_grid
from tfade.operators import (
    TABLE_BLOCK,
    HistoryState,
    LocalCoefficients,
    direct_history_weights,
    direct_quadrature,
    history_advance,
    lambda_tables,
    live_exponents,
    local_coefficients,
)
from tfade.problems import ManufacturedCase, l2_norm
from tfade.soe import build_soe, check_epsilon

__all__ = [
    "SchemeConfig",
    "SolveError",
    "Trajectory",
    "TridiagonalSystem",
    "assemble_step",
    "run",
    "stability_probe",
    "thomas_solve",
]

# the march checks its new levels for NaN/Inf in blocks of this many
# steps: a check per step would cost as much as the rest of a small step's
# O(M) work, and a block bounds the steps marched past a failure
_FINITE_BLOCK = 32


class SolveError(RuntimeError):
    """Numerical breakdown (NaN/Inf or pivot failure) during a march."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


@dataclass(frozen=True)
class SchemeConfig:
    """Problem plus discretization parameters for one run.

    ``method`` selects the history treatment: "fast" (exponential-sum
    recurrence) or "direct" (exact-kernel quadrature, quadratic cost).  Every
    field is checked when the config is built, so a non-finite number, a
    non-integer M or N or a value out of range raises ValueError naming the
    field before any solve starts.  A too-large final step,
    tau_max^(2-2 alpha) >= 1/3, voids the sufficient stability condition;
    that only triggers a warning since the condition is not necessary.
    """

    alpha: float
    lam: float
    M: int
    N: int
    T: float = 2.0
    L: float = 1.0
    r: float = 3.0
    epsilon: float = 1e-10
    method: str = "fast"

    def __post_init__(self):
        for name in ("alpha", "lam", "T", "L", "r", "epsilon"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and math.isfinite(value)):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        # the mesh and grid builders own the rules for T, N, r, L and M
        graded_mesh(self.T, self.N, self.r)
        uniform_grid(self.L, self.M)
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha!r}")
        if self.lam < 0.0:
            raise ValueError(f"lam must be >= 0, got {self.lam!r}")
        check_epsilon(self.epsilon)
        if self.method not in ("fast", "direct"):
            raise ValueError(f"method must be 'fast' or 'direct', got {self.method!r}")
        tau_max = self.T * (1.0 - ((self.N - 1) / self.N) ** self.r)
        if tau_max ** (2.0 - 2.0 * self.alpha) >= 1.0 / 3.0:
            warnings.warn(
                f"largest step violates the sufficient stability condition: "
                f"tau_max^(2-2 alpha) = {tau_max ** (2 - 2 * self.alpha):.4f} >= 1/3 "
                f"(N={self.N}, r={self.r}); proceeding, the bound is not necessary",
                RuntimeWarning,
                stacklevel=2,
            )


@dataclass
class TridiagonalSystem:
    """One step's linear system; lower[0] and upper[-1] are ignored."""

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray
    rhs: np.ndarray


def _gtsv(
    lower: np.ndarray, diag: np.ndarray, upper: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """LAPACK gtsv solve; ``lower``/``upper`` hold the m-1 off-diagonal entries."""
    if diag.size == 1:  # gtsv rejects empty off-diagonals
        if not abs(diag[0]) > 0.0:
            raise SolveError("pivot breakdown at row 0")
        return rhs / diag
    _, _, _, x, info = dgtsv(lower, diag, upper, rhs)
    if info > 0:
        raise SolveError(f"pivot breakdown at row {info - 1}")
    return x


def thomas_solve(sys: TridiagonalSystem) -> np.ndarray:
    """Solve a tridiagonal system by Gaussian elimination (LAPACK gtsv).

    gtsv pivots only where a sub-diagonal entry outweighs its pivot, so on
    the scheme's diagonally dominant matrices it is the Thomas algorithm.
    Raises SolveError when a pivot vanishes (a singular matrix) or the
    solution is not finite; never triggered by the scheme's matrices, whose
    eigenvalues stay above 1/tau + B > 0.
    """
    x = _gtsv(sys.lower[1:], sys.diag, sys.upper[:-1], sys.rhs)
    if not np.isfinite(x).all():
        raise SolveError("non-finite solution")
    return x


@dataclass
class Trajectory:
    """Result of one march; snapshots hold interior vectors keyed by level.

    ``snapshots`` maps every level n = 0..N to a row of one shared level
    table (a view, not a copy).  Boundary values are identically zero at
    every level.
    """

    config: SchemeConfig
    mesh: TemporalMesh
    grid: SpatialGrid
    snapshots: dict[int, np.ndarray]
    wall_time: float
    n_exp_used: int

    def full_level(self, n: int) -> np.ndarray:
        """Solution at level n including the zero boundary values."""
        return np.concatenate(([0.0], self.snapshots[n], [0.0]))


def _direct_history(
    nodes: np.ndarray, hats: np.ndarray, tbar_n: float, lam: float, alpha: float,
    levels: np.ndarray, n: int,
) -> np.ndarray:
    """Exact-kernel history sum sum_k (a_k U^k + b_k U^{k-1}) of step n >= 1.

    a_k and b_k are `direct_history_weights` and carry whatever constant
    factor the caller folded into ``hats``.
    """
    a, b = direct_history_weights(nodes, hats, tbar_n, lam, alpha, n)
    hist = a @ levels[1 : n + 1]
    hist += b @ levels[:n]
    return hist


def _offdiagonals(h: float) -> tuple[float, float]:
    """Sub- and super-diagonal of the implicit half: -1/(2h^2) -/+ 1/(4h).

    The explicit half weights the lower and upper neighbours by their
    negatives.
    """
    return -0.5 / (h * h) - 0.25 / h, -0.5 / (h * h) + 0.25 / h


def assemble_step(
    h: float, tau: float, B: float, u_n: np.ndarray, E: np.ndarray, f_bar: np.ndarray
) -> TridiagonalSystem:
    """Build one step's tridiagonal system for the interior unknowns.

    ``tau`` is the step tau_{n+1}, ``B`` its local coefficient, ``u_n`` the
    interior values of level n and ``E`` the explicit operator part
    (`tfade.operators.explicit_part`).  Row j of the left side reads
        (-1/(2h^2) + 1/(4h)) U_{j+1} + (1/tau + B + 1/h^2) U_j
        + (-1/(2h^2) - 1/(4h)) U_{j-1},
    the right side carries the explicit halves of the space operators, -E
    and the forcing at the half level.  `run` marches the same arithmetic
    folded into per-run tables; this is the one-step reference.
    """
    m = len(u_n)
    inv_h2 = 1.0 / (h * h)
    lo, up = _offdiagonals(h)
    pad = np.concatenate(([0.0], u_n, [0.0]))
    # rhs = u_n/tau + (delta_xx - delta_x)(u_n)/2 - E + f_bar, with the
    # space stencils folded into the three neighbor coefficients
    rhs = -up * pad[2:] - lo * pad[:-2] + (1.0 / tau - inv_h2) * u_n
    rhs -= E
    rhs += f_bar
    return TridiagonalSystem(
        lower=np.full(m, lo), diag=np.full(m, 1.0 / tau + B + inv_h2),
        upper=np.full(m, up), rhs=rhs,
    )


def _coerce_problem(problem, config: SchemeConfig) -> tuple[Callable, Callable]:
    """(phi, f) of ``problem``; a case built for other alpha, lam or L is refused."""
    if not isinstance(problem, ManufacturedCase):
        return problem
    for name in ("alpha", "lam", "L"):
        if getattr(problem, name) != getattr(config, name):
            raise ValueError(f"{name} of the case ({getattr(problem, name)!r}) differs "
                             f"from the config's ({getattr(config, name)!r})")
    return problem.phi, problem.forcing


def _forcing_table(f: Callable, xi: np.ndarray, tbar: np.ndarray) -> np.ndarray:
    """Evaluate f at all (x_j, tbar_n) as an (N, M-1) table.

    Tries one broadcast evaluation first; falls back to a per-step loop for
    callables that do not vectorize over both arguments.
    """
    n_steps, m = len(tbar), len(xi)
    try:
        table = np.asarray(f(xi[None, :], tbar[:, None]), dtype=float)
        if table.shape == (n_steps, m):
            return table
    except (TypeError, ValueError):
        # what scalar-only code raises on arrays (float() of an array, the
        # truth value of an array); any other error is a fault in f
        pass
    table = np.empty((n_steps, m))
    for n, t in enumerate(tbar):
        table[n] = np.broadcast_to(np.asarray(f(xi, t), dtype=float), (m,))
    return table


def _raise_if_nonfinite(levels: np.ndarray, start: int, stop: int) -> None:
    """Raise SolveError naming the step that first made levels[start:stop] non-finite."""
    finite = np.isfinite(levels[start:stop]).all(axis=1)
    if not finite.all():
        # level k is the output of step k - 1; a bad initial level blames step 0
        step = max(start + int(np.argmin(finite)) - 1, 0)
        raise SolveError(f"non-finite solution at step {step}", step=step)


def _march(
    levels: np.ndarray,
    f_table: np.ndarray,
    mesh: TemporalMesh,
    h: float,
    coeffs: LocalCoefficients,
    history: Callable[[int], np.ndarray],
) -> None:
    """Fill levels[1:] step by step; the same arithmetic as `assemble_step`.

    ``history(n)`` returns the history sum of step n >= 1 already divided by
    Gamma(1 - alpha), i.e. its whole contribution to the right side.
    Everything else that does not change within a run is held here once:
    the off-diagonals, the diagonal scalars, the explicit stencil with the
    local coefficient folded into its centre, and the forcing with the
    initial-value term added (``f_table`` is updated in place).  A step then
    costs its history term, one three-point stencil, a few O(M) vector
    updates and one LAPACK tridiagonal solve.  New levels are checked for
    NaN/Inf every `_FINITE_BLOCK` steps and at the end.
    """
    n_steps, m = f_table.shape
    inv_h2 = 1.0 / (h * h)
    lo, up = _offdiagonals(h)
    lower = np.full(m - 1, lo)
    upper = np.full(m - 1, up)
    diag = np.empty(m)
    diag_n = 1.0 / mesh.tau + coeffs.B + inv_h2
    # rhs_j = -lo U_{j-1} + (1/tau - 1/h^2 - c_expl) U_j - up U_{j+1}
    #         + f_j + (history_j + bndry U^0_j) / Gamma(1 - alpha)
    stencil = np.empty((n_steps, 3))
    stencil[:, 0] = -lo
    stencil[:, 1] = 1.0 / mesh.tau - inv_h2 - coeffs.c_expl
    stencil[:, 2] = -up
    f_table += np.outer(coeffs.inv_gamma1 * coeffs.bndry, levels[0])
    pad = np.zeros(m + 2)
    checked = 0  # levels[:checked] are known to be finite
    for n in range(n_steps):
        pad[1:-1] = levels[n]
        rhs = np.correlate(pad, stencil[n], "valid")
        rhs += f_table[n]
        if n >= 1:
            rhs += history(n)
        diag.fill(diag_n[n])
        try:
            u_next = _gtsv(lower, diag, upper, rhs)
        except SolveError as exc:
            raise SolveError(f"{exc} while solving step {n}", step=n) from exc
        levels[n + 1] = u_next
        if n + 2 - checked >= _FINITE_BLOCK or n + 1 == n_steps:
            _raise_if_nonfinite(levels, checked, n + 2)
            checked = n + 2


def _fast_history(
    mesh: TemporalMesh, exponents: np.ndarray, omega: np.ndarray, lam: float,
    levels: np.ndarray,
) -> Callable[[int], np.ndarray]:
    """The fast method's ``history(n)`` for `_march`: sum_i omega_i H_i after step n.

    The moments are made in blocks of about `TABLE_BLOCK` elements as the
    march reaches them, and only for the exponents still live
    (`live_exponents`), so no N x n_exp table exists.  H is column-major so
    that the live columns stay one contiguous block.
    """
    live = live_exponents(mesh, exponents, lam).tolist()
    state = HistoryState(H=np.zeros((levels.shape[1], len(exponents)), order="F"))
    lo = hi = 0
    lam1 = lam2 = decay = None

    def history(n: int) -> np.ndarray:
        nonlocal lo, hi, lam1, lam2, decay
        a = live[n]
        if n >= hi:
            lo, hi = n, min(n + max(1, TABLE_BLOCK // max(a, 1)), mesh.N)
            lam1, lam2, decay = lambda_tables(mesh, exponents[:a], lam, lo, hi)
        k = n - lo
        history_advance(
            state, levels[n], levels[n - 1], lam1[k, :a], lam2[k, :a], decay[k, :a], n
        )
        return state.H[:, :a] @ omega[:a]

    return history


def run(config: SchemeConfig, problem) -> Trajectory:
    """March the scheme from t = 0 to t = T.

    ``problem`` is a ManufacturedCase built for the config's alpha, lam and
    L, or a (phi, f) pair; both callables must be vectorized (phi over x, f
    over (x, t)).
    History bookkeeping: before assembling step n >= 1 the accumulators are
    advanced with (U^n, U^{n-1}), which re-references them to tbar_n;
    step 0 has no history term.
    """
    start = time.perf_counter()
    phi, f = _coerce_problem(problem, config)
    mesh = graded_mesh(config.T, config.N, config.r)
    grid = uniform_grid(config.L, config.M)
    xi = grid.x_interior

    levels = np.empty((config.N + 1, config.M - 1))
    levels[0] = np.asarray(phi(xi), dtype=float)
    f_table = _forcing_table(f, xi, mesh.tbar)

    alpha, lam = config.alpha, config.lam
    coeffs = local_coefficients(mesh, alpha, lam)
    # the history bracket enters the right side as alpha/Gamma(1-alpha) times
    # the bare kernel sums; fold that into the per-run tables
    hist_scale = alpha * coeffs.inv_gamma1

    n_exp_used = 0
    if config.method == "fast":
        soe = build_soe(alpha, config.epsilon, *soe_interval(mesh))
        n_exp_used = soe.n_exp
        history = _fast_history(mesh, soe.exponents, hist_scale * soe.weights, lam, levels)
    else:
        nodes, hats = direct_quadrature(mesh)
        hats *= hist_scale
        tbar = mesh.tbar

        def history(n: int) -> np.ndarray:
            return _direct_history(nodes, hats, tbar[n], lam, alpha, levels, n)

    _march(levels, f_table, mesh, grid.h, coeffs, history)

    wall = time.perf_counter() - start
    return Trajectory(
        config=config,
        mesh=mesh,
        grid=grid,
        snapshots=dict(enumerate(levels)),
        wall_time=wall,
        n_exp_used=n_exp_used,
    )


def stability_probe(config: SchemeConfig, phi_a, phi_b, f) -> dict[str, float]:
    """Ratio of perturbation growth for two initial data under identical f.

    Returns {"max_ratio": max_n ||U^n_a - U^n_b|| / ||U^0_a - U^0_b||} in the
    discrete L2 norm; the scheme's stability bound says this never exceeds 1.
    """
    grid = uniform_grid(config.L, config.M)
    xi = grid.x_interior
    d0 = l2_norm(
        np.asarray(phi_a(xi), dtype=float) - np.asarray(phi_b(xi), dtype=float),
        grid.h,
    )
    if d0 == 0.0:
        raise ValueError("stability_probe requires phi_a != phi_b on the grid")
    traj_a = run(config, (phi_a, f))
    traj_b = run(config, (phi_b, f))
    diff = np.stack([traj_a.snapshots[n] - traj_b.snapshots[n] for n in range(1, config.N + 1)])
    return {"max_ratio": float(np.max(l2_norm(diff, grid.h))) / d0}
