"""Discrete tempered-Caputo operators at half-time levels.

The derivative at tbar_n = (t_n + t_{n+1})/2 splits into a history part over
[0, t_n] and a local part over [t_n, tbar_n].  After integration by parts the
history part becomes a convolution of past states against the kernel
v**(-1-alpha) * exp(-lam*v); the fast operator replaces the power kernel by a
certified exponential sum, which collapses the convolution into one running
accumulator per exponent:

    H_i(t_n) = exp(-(lam+s_i)(tau_n+tau_{n+1})/2) * H_i(t_{n-1})
               + lam1_{i,n} u(t_n) + lam2_{i,n} u(t_{n-1}),

with lam1/lam2 the exact exponential moments of the piecewise linear
interpolant on [t_{n-1}, t_n].  The direct operator keeps the exact power
kernel and integrates it against the same interpolant by fixed Gauss-Legendre
quadrature per history interval; it is the quadratic-cost baseline and, since
the two operators share the identical local term, their difference isolates
the kernel-compression error.

Each formula lives in one function, shared by the solver and the tests:
`lambda_tables` (moments and decays), `local_coefficients` (B, c_expl and the
initial-value weight), `history_advance` (the recurrence), `ab_coeffs` (the
same recurrence unrolled), `direct_quadrature` with `direct_history_weights`
(the exact-kernel weights) and `explicit_part` (the explicit bracket).
`oracle_caputo` evaluates the continuous derivative itself by singularity-
graded composite quadrature; it is the independent reference the discrete
operators are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from tfade.mesh import TemporalMesh
from tfade.soe import SOEApprox, leggauss

__all__ = [
    "ABCoeffs",
    "HistoryState",
    "LocalCoefficients",
    "ab_coeffs",
    "direct_history_weights",
    "direct_quadrature",
    "explicit_part",
    "history_advance",
    "lambda_tables",
    "live_exponents",
    "local_coefficients",
    "oracle_caputo",
]

# Series evaluation of (exp(-z)-1+z)/z^2 and (1-exp(-z)-z exp(-z))/z^2 below
# this threshold; naive evaluation loses up to ~6 digits to cancellation for
# z near 1e-3, which would poison the 1e-12-level operator identities, so the
# series radius is kept wide.  18 alternating terms leave a truncation error
# below 1e-27 at z = 0.35.
_SERIES_Z = 0.35
_SERIES_TERMS = 18
# exp(-x) past this is below 1e-150: dead weight at any scale in this scheme,
# and letting it linger near the subnormal range makes every later pass over
# the history table an order of magnitude slower
_EXP_FLUSH = 345.0
# elements per block of the (rows x n_exp) moment tables: three 128 KB
# blocks and the intermediates of one stay within 2 MB.  With n_exp near 110
# a block covers about 150 steps, so even a small N fills whole blocks and
# the fast method's peak does not grow with N
TABLE_BLOCK = 16_384
# Gauss-Legendre nodes per history interval of the direct method
_DIRECT_NODES = 32
# graded panels and nodes per panel of `oracle_caputo`
_ORACLE_PANELS = 200
_ORACLE_NODES = 24


def _exp_neg(x):
    x = np.asarray(x, dtype=float)
    out = np.exp(-np.minimum(x, _EXP_FLUSH))
    return np.where(x > _EXP_FLUSH, 0.0, out)
_C1 = np.array([(-1.0) ** m / math.factorial(m + 2) for m in range(_SERIES_TERMS)])
_C2 = np.array(
    [(-1.0) ** m * (m + 1) / math.factorial(m + 2) for m in range(_SERIES_TERMS)]
)


def _phi_pair(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable evaluation of the two interpolation-moment factors.

    phi1(z) = (exp(-z) - 1 + z) / z^2, phi2(z) = (1 - (1+z) exp(-z)) / z^2,
    both equal to 1/2 at z = 0.
    """
    z = np.asarray(z, dtype=float)
    small = z < _SERIES_Z
    zs = np.where(small, z, 0.0)
    f1 = np.full_like(zs, _C1[-1])
    f2 = np.full_like(zs, _C2[-1])
    for m in range(_SERIES_TERMS - 2, -1, -1):
        f1 = f1 * zs + _C1[m]
        f2 = f2 * zs + _C2[m]
    zl = np.where(small, 1.0, z)
    e = _exp_neg(zl)
    g1 = (e - 1.0 + zl) / (zl * zl)
    g2 = (1.0 - e - zl * e) / (zl * zl)
    return np.where(small, f1, g1), np.where(small, f2, g2)


def lambda_tables(
    mesh: TemporalMesh, exponents: np.ndarray, lam: float, lo: int = 0, hi: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-step interpolation moments and decays, rows [lo, hi) of (N, n_exp) tables.

    Row n >= 1 holds, for mu = lam + s_i, z = mu tau_n and zp = mu tau_{n+1}/2,

        lam1_{i,n} = exp(-zp) (exp(-z) - 1 + z) / (mu^2 tau_n)
        lam2_{i,n} = exp(-zp) (1 - exp(-z) - z exp(-z)) / (mu^2 tau_n),

    the weights of u(t_n) and u(t_{n-1}) in
    int_{t_{n-1}}^{t_n} exp(-mu (tbar_n - u)) L1u(u) du (mu = 0 gives the
    trapezoid tau_n/2, tau_n/2), and the tbar_{n-1} -> tbar_n decay
    exp(-mu (tau_n + tau_{n+1})/2) used when advancing the history into
    step n.  Row 0 is unused (zero moments, unit decay).  The default range
    is the whole table; a sub-range returns the same rows bit for bit, and
    so does a prefix of ``exponents`` for the matching columns.
    """
    hi = mesh.N if hi is None else hi
    if not 0 <= lo <= hi <= mesh.N:
        raise ValueError(f"need 0 <= lo <= hi <= {mesh.N}, got lo={lo}, hi={hi}")
    shape = (hi - lo, len(exponents))
    lam1 = np.zeros(shape)
    lam2 = np.zeros(shape)
    decay = np.ones(shape)
    mu = lam + exponents[None, :]
    rows = np.arange(max(lo, 1), hi)  # row 0 keeps its zero moments and unit decay
    tau_n = mesh.tau[rows - 1, None]
    tau_np1 = mesh.tau[rows, None]
    f1, f2 = _phi_pair(tau_n * mu)
    damp = tau_n * _exp_neg(0.5 * tau_np1 * mu)
    lam1[rows - lo] = damp * f1
    lam2[rows - lo] = damp * f2
    decay[rows - lo] = _exp_neg(0.5 * (tau_n + tau_np1) * mu)
    return lam1, lam2, decay


def live_exponents(mesh: TemporalMesh, exponents: np.ndarray, lam: float) -> np.ndarray:
    """How many leading exponents can still reach the solution, per step.

    Where 0.5 tau_{n+1} (lam + s_i) > `_EXP_FLUSH`, the flush makes
    lam1_{i,n} = lam2_{i,n} = 0 exactly, and the decay (whose argument is at
    least as large) too, so the update of step n sets H_i to exactly 0.
    ``exponents`` is increasing, so those exponents form a suffix; entry n
    is the length of the prefix left, tested with the same expression as
    `lambda_tables` (entry 0 is n_exp).  The running minimum is taken, so an
    exponent dropped at one step stays dropped even on a mesh whose steps
    shrink; graded meshes (r >= 1) never shrink a step, and there the
    minimum changes nothing.
    """
    mu = lam + exponents
    counts = np.empty(mesh.N, dtype=np.intp)
    counts[0] = len(exponents)
    chunk = max(1, TABLE_BLOCK // max(len(exponents), 1))
    for a in range(1, mesh.N, chunk):
        b = min(a + chunk, mesh.N)
        reach = 0.5 * mesh.tau[a:b, None] * mu[None, :]
        counts[a:b] = np.count_nonzero(reach <= _EXP_FLUSH, axis=1)
    return np.minimum.accumulate(counts)


@dataclass(frozen=True)
class LocalCoefficients:
    """The local coefficients of the operator at every half level tbar_n.

    ``B[n]`` = tau_{n+1}^(-alpha) / (2^(1-alpha) Gamma(2-alpha)) multiplies
    u^{n+1}, ``c_expl[n]`` = (1 - 2 alpha exp(-lam tau_{n+1}/2)) B[n]
    multiplies u^n, ``bndry[n]`` = exp(-lam tbar_n) tbar_n^(-alpha) weights
    the initial value, and ``inv_gamma1`` = 1 / Gamma(1 - alpha) scales the
    history bracket.  The arrays have N entries, one per step.
    """

    B: np.ndarray
    c_expl: np.ndarray
    bndry: np.ndarray
    inv_gamma1: float


def local_coefficients(mesh: TemporalMesh, alpha: float, lam: float) -> LocalCoefficients:
    """Compute the local coefficients of every step in one vectorized pass.

    Both methods share them: only the history bracket differs.
    """
    B = mesh.tau ** (-alpha) / (2.0 ** (1.0 - alpha) * math.gamma(2.0 - alpha))
    c_expl = (1.0 - 2.0 * alpha * np.exp(-lam * mesh.tau / 2.0)) * B
    bndry = np.exp(-lam * mesh.tbar) * mesh.tbar ** (-alpha)
    return LocalCoefficients(B, c_expl, bndry, 1.0 / math.gamma(1.0 - alpha))


def explicit_part(coeffs: LocalCoefficients, n: int, u_n, u_0, hist):
    """Explicit part E of the operator at tbar_n; the operator is B[n] u^{n+1} + E.

        E = c_expl u^n - (hist + bndry u^0) / Gamma(1-alpha)

    ``hist`` is the history bracket of step n: alpha sum_i omega_i H_i for
    the fast operator, alpha sum_k (a_k u^k + b_k u^{k-1}) for the direct one and
    0 at n = 0, where the boundary term reduces the operator to
    B [u^1 + (1 - 2 exp(-lam tau_1/2)) u^0] exactly.  Scalars or arrays over
    the spatial points.
    """
    return coeffs.c_expl[n] * u_n - coeffs.inv_gamma1 * (hist + coeffs.bndry[n] * u_0)


@dataclass
class HistoryState:
    """Running history accumulators, one per (spatial point, exponent).

    ``H[j, i]`` approximates int_0^{t_n} exp(-(lam+s_i)(tbar_n - s)) u(x_j, s) ds
    after the update for step n; ``n_last`` records that step.  Owned and
    mutated by a single solver run.  `run` allocates H column-major
    (``order="F"``), so that the columns of the live exponents, a prefix
    (`live_exponents`), are one contiguous block; columns past the live
    prefix of the last update are stale and never read again.  Any layout
    works for `history_advance`.
    """

    H: np.ndarray
    n_last: int = 0
    _work: np.ndarray | None = field(default=None, repr=False)


def history_advance(
    state: HistoryState,
    u_n: np.ndarray,
    u_nm1: np.ndarray,
    lam1: np.ndarray,
    lam2: np.ndarray,
    decay: np.ndarray,
    n: int,
) -> HistoryState:
    """Push the interval [t_{n-1}, t_n] into the accumulators (in place).

    ``lam1``, ``lam2`` and ``decay`` are row n of `lambda_tables`, or the
    first a entries of it; then only the first a columns of H are updated.
    """
    if n < 1:
        raise ValueError("history_advance requires n >= 1; step 0 has no history")
    if state.n_last != n - 1:
        raise ValueError(
            f"step-order violation: history is at step {state.n_last}, "
            f"cannot advance to step {n}"
        )
    u_n = np.atleast_1d(np.asarray(u_n, dtype=float))
    u_nm1 = np.atleast_1d(np.asarray(u_nm1, dtype=float))
    # rank-2 update as one small matmul into a reused workspace: this runs
    # once per time step over the live (points x exponents) block
    if state._work is None or state._work.shape != state.H.shape:
        state._work = np.empty_like(state.H)
    a = len(lam1)
    H = state.H[:, :a]
    work = state._work[:, :a]
    uu = np.stack((u_n, u_nm1))  # (2, J)
    ll = np.stack((lam1, lam2))  # (2, a)
    H *= decay
    H += np.matmul(uu.T, ll, out=work)
    state.n_last = n
    return state


@dataclass(frozen=True)
class ABCoeffs:
    """Unrolled history weights a_{j,n}, b_{j,n}, j = 0..n-1.

    a_{j,n} weights u(t_{n-j}) and b_{j,n} weights u(t_{n-1-j}) in the
    history bracket; used by tests and the telescoping-bound check, while the
    solver path runs the recurrence instead.
    """

    n: int
    a: np.ndarray
    b: np.ndarray


def ab_coeffs(
    mesh: TemporalMesh, soe: SOEApprox, lam: float, alpha: float, n: int
) -> ABCoeffs:
    """Compute a_{j,n} = alpha sum_i omega_i e^{-(lam+s_i)(tbar_n - tbar_{n-j})} lam1_{i,n-j}
    and the lam2 analogue b_{j,n}, with the moments taken from `lambda_tables`."""
    if n < 1:
        raise ValueError("ab_coeffs requires n >= 1")
    if n > mesh.N - 1:
        raise ValueError(f"step index n must be <= {mesh.N - 1}, got {n}")
    lam1, lam2, _ = lambda_tables(mesh, soe.exponents, lam)
    ks = np.arange(1, n + 1)
    shift = _exp_neg(np.outer(mesh.tbar[n] - mesh.tbar[ks], lam + soe.exponents))  # (n, I)
    a_by_k = alpha * ((shift * lam1[ks]) @ soe.weights)
    b_by_k = alpha * ((shift * lam2[ks]) @ soe.weights)
    # interval k corresponds to offset j = n - k
    return ABCoeffs(n=n, a=a_by_k[::-1].copy(), b=b_by_k[::-1].copy())


def direct_quadrature(mesh: TemporalMesh) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and hat weights on every interval of the mesh.

    Returns (nodes, hats): ``nodes[k-1]`` holds the `_DIRECT_NODES` nodes on
    [t_{k-1}, t_k]; ``hats[k-1, :, 0]`` the quadrature weights times the
    right hat (s - t_{k-1})/tau_k and ``hats[k-1, :, 1]`` times the left hat
    (t_k - s)/tau_k.
    """
    x, w = leggauss(_DIRECT_NODES)
    t0 = mesh.t[:-1]
    half = 0.5 * mesh.tau
    nodes = (t0 + half)[:, None] + half[:, None] * x[None, :]
    wq = half[:, None] * w[None, :]
    right = (nodes - t0[:, None]) / mesh.tau[:, None]
    hats = np.empty(nodes.shape + (2,))
    hats[..., 0] = wq * right
    hats[..., 1] = wq * (1.0 - right)
    return nodes, hats


def direct_history_weights(
    nodes: np.ndarray,
    hats: np.ndarray,
    tbar_n: float,
    lam: float,
    alpha: float,
    n: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact-kernel history weights of step n >= 1 from `direct_quadrature` tables.

    Returns (a, b) of length n where the history bracket is
    alpha sum_{k=1..n} a[k-1] u^k + b[k-1] u^{k-1}, with

        a[k-1] = int_{t_{k-1}}^{t_k} e^{-lam(tbar_n - s)}
                 (tbar_n - s)^{-1-alpha} (s - t_{k-1})/tau_k ds

    and b the (t_k - s)/tau_k analogue, times any constant the caller
    folded into ``hats``.  The integrands are smooth on the history intervals since
    tbar_n - s >= tau_{n+1}/2 there.  The kernel at the n x q nodes and one
    batched contraction are the direct method's O(n) per-step work.
    """
    if n < 1:
        raise ValueError("direct_history_weights requires n >= 1")
    v = tbar_n - nodes[:n]
    kern = np.exp(-lam * v)
    kern *= v ** (-1.0 - alpha)
    ab = np.matmul(kern[:, None, :], hats[:n])  # (n, 1, 2)
    return ab[:, 0, 0], ab[:, 0, 1]


def oracle_caputo(u, du, t: float, alpha: float, lam: float) -> float:
    """High-accuracy quadrature of the continuous tempered derivative.

        (exp(-lam t) / Gamma(1-alpha)) int_0^t (t-s)^(-alpha) (e^{lam s} u(s))' ds

    with (e^{lam s} u)' = e^{lam s} (lam u + u').  Composite Gauss-Legendre on
    geometrically graded panels, clustered at the kernel singularity s = t and
    (since u'' may blow up like s^{delta-2}) also at s = 0; the last sliver at
    s = t is integrated analytically with the smooth factor frozen at its
    midpoint.  Relative error is well below 1e-8 for the manufactured
    regularity class.  ``u`` and ``du`` must accept numpy arrays.
    """
    if not t > 0.0:
        raise ValueError("oracle_caputo requires t > 0")
    x, w = leggauss(_ORACLE_NODES)
    m = _ORACLE_PANELS // 2
    sigma = 0.75
    half_t = 0.5 * t

    def g(s):
        return np.exp(lam * s) * (lam * u(s) + du(s))

    # far half [0, t/2] in s, panels graded toward s = 0 (u'' may blow up
    # there); the kernel is harmless on this half
    s_edges = np.concatenate(([0.0], half_t * sigma ** np.arange(m - 1, -1.0, -1.0)))
    mid = 0.5 * (s_edges[:-1] + s_edges[1:])
    half = 0.5 * (s_edges[1:] - s_edges[:-1])
    s = mid[:, None] + half[:, None] * x[None, :]
    wq = half[:, None] * w[None, :]
    total = float(np.sum(wq * (t - s) ** (-alpha) * g(s)))
    # near half in the kernel variable v = t - s, panels graded toward v = 0:
    # v is formed from exact geometric edges, which sidesteps the t - s
    # cancellation that would otherwise pollute the singular panels
    v_edges = half_t * sigma ** np.arange(m, -1.0, -1.0)
    mid = 0.5 * (v_edges[:-1] + v_edges[1:])
    half = 0.5 * (v_edges[1:] - v_edges[:-1])
    v = mid[:, None] + half[:, None] * x[None, :]
    wq = half[:, None] * w[None, :]
    total += float(np.sum(wq * v ** (-alpha) * g(t - v)))
    # analytic endcap over v in [0, w_cap] with the smooth factor frozen
    w_cap = half_t * sigma**m
    total += float(g(np.asarray(t - 0.5 * w_cap))) * w_cap ** (1.0 - alpha) / (1.0 - alpha)
    return math.exp(-lam * t) / math.gamma(1.0 - alpha) * total
