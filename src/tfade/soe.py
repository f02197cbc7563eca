"""Sum-of-exponentials compression of the weakly singular kernel t**(-1-alpha).

The history part of the tempered fractional derivative convolves past states
against k(t) = t**(-1-alpha).  On any interval [t_min, t_max] bounded away
from zero this kernel admits an approximation

    k(t) ~ sum_l  omega_l * exp(-s_l * t),

which is what turns the quadratic-cost history sum into an O(n_exp) running
recurrence.  This module builds such approximations from the Laplace
representation

    t**(-beta) = 1/Gamma(beta) * int_0^inf s**(beta-1) exp(-t s) ds,

with beta = 1 + alpha, by applying Gauss-Legendre quadrature on dyadic panels
in s, and certifies the result a posteriori on a dense logarithmic grid.  The
certified bound is *relative*: max |k - soe| / k <= epsilon on the interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "CertificationError",
    "CertReport",
    "SOEApprox",
    "build_soe",
    "certify_soe",
    "check_epsilon",
    "eval_soe",
    "leggauss",
]


class CertificationError(RuntimeError):
    """Raised when a constructed exponential sum fails its accuracy check."""


@lru_cache(maxsize=None)
def leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (increasing) and weights on (-1, 1), cached.

    One `build_soe` asks for the same few rules over a hundred times, and a
    fresh `numpy.polynomial.legendre.leggauss` call costs up to a millisecond.
    The arrays are shared between callers, so they are read-only.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


@dataclass(frozen=True)
class SOEApprox:
    """Certified exponential-sum surrogate for t**(-1-alpha) on [t_min, t_max].

    ``weights`` and ``exponents`` are parallel arrays (omega_l, s_l), with
    exponents strictly increasing.  The certificate is relative:
    |k(t) - sum| / k(t) <= epsilon on a dense log-spaced grid of the interval,
    which induces the absolute bound epsilon * t**(-1-alpha) pointwise.
    """

    alpha: float
    epsilon: float
    t_min: float
    t_max: float
    weights: np.ndarray
    exponents: np.ndarray

    @property
    def n_exp(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class CertReport:
    max_rel_error: float
    argmax_t: float


def _kernel(alpha: float, t: np.ndarray) -> np.ndarray:
    return t ** (-1.0 - alpha)


def _soe_sum(weights: np.ndarray, exponents: np.ndarray, t: np.ndarray) -> np.ndarray:
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty(t.shape)
    # blockwise with in-place ops: keeps the (t x terms) scratch cache-sized;
    # the clamp stops exp from producing throughput-killing denormals
    step = max(1, 250_000 // max(len(exponents), 1))
    for i in range(0, len(t), step):
        block = np.outer(t[i : i + step], exponents)
        np.minimum(block, 700.0, out=block)
        np.negative(block, out=block)
        np.exp(block, out=block)
        out[i : i + step] = block @ weights
    return out


def eval_soe(soe: SOEApprox, t) -> float | np.ndarray:
    """Evaluate the exponential sum at t (scalar or array).

    Arguments outside [t_min, t_max] are rejected: the certificate says
    nothing about accuracy there.
    """
    arr = np.atleast_1d(np.asarray(t, dtype=float))
    lo = soe.t_min * (1.0 - 1e-9)
    hi = soe.t_max * (1.0 + 1e-9)
    if np.any(arr < lo) or np.any(arr > hi):
        raise ValueError(
            f"eval_soe: argument outside certified interval "
            f"[{soe.t_min:g}, {soe.t_max:g}]"
        )
    out = _soe_sum(soe.weights, soe.exponents, arr)
    return float(out[0]) if np.isscalar(t) or np.ndim(t) == 0 else out


def certify_soe(soe: SOEApprox, n_samples: int = 10_000) -> CertReport:
    """Measure the relative error on n_samples log-spaced points."""
    if n_samples < 100:
        raise ValueError("n_samples must be >= 100")
    t = np.geomspace(soe.t_min, soe.t_max, int(n_samples))
    k = _kernel(soe.alpha, t)
    rel = np.abs(_soe_sum(soe.weights, soe.exponents, t) - k) / k
    i = int(np.argmax(rel))
    return CertReport(max_rel_error=float(rel[i]), argmax_t=float(t[i]))


def check_epsilon(epsilon: float) -> None:
    """Raise ValueError unless epsilon lies in [1e-14, 1e-2), the targets
    `build_soe` can certify in double precision; `SchemeConfig` uses it too."""
    if not 1e-14 <= epsilon < 1e-2:
        raise ValueError(f"epsilon must lie in [1e-14, 1e-2), got {epsilon!r}")


def build_soe(
    alpha: float,
    epsilon: float,
    t_min: float,
    t_max: float,
    max_nodes_per_panel: int = 64,
) -> SOEApprox:
    """Construct a certified exponential sum for t**(-1-alpha) on [t_min, t_max].

    Construction: discretize the Laplace integral of t**(-beta), beta = 1+alpha,
    over dyadic panels [2^j, 2^(j+1)] in s.  The lowest panel is chosen so the
    dropped left tail stays below (epsilon/4) of the kernel at t_max, the
    highest so exp(-s t_min) has decayed past the target.  Per-panel node
    counts start at 8 and double until the panel's contribution on a probe
    grid stabilizes below epsilon / (4 * n_panels), up to
    ``max_nodes_per_panel``.  Terms too small to matter anywhere on the
    interval are discarded.  The result is certified on a dense grid; failure
    to certify raises CertificationError.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    check_epsilon(epsilon)
    if not 0.0 < t_min < t_max < math.inf:
        raise ValueError(f"need 0 < t_min < t_max < inf, got t_min={t_min!r}, t_max={t_max!r}")

    beta = 1.0 + alpha
    gamma_beta = math.gamma(beta)

    # left tail: int_0^a s^(beta-1) e^(-ts) ds <= a^beta / beta must stay
    # below (epsilon/4) * Gamma(beta) * t_max^(-beta)
    a_min = (beta * 0.25 * epsilon * gamma_beta) ** (1.0 / beta) / t_max
    j_min = int(math.floor(math.log2(a_min)))
    # right end: require 2^j_max >= ln(4/epsilon)/t_min, with a factor-2 margin
    # so the truncated right tail is far below epsilon/4
    s_hi = 2.0 * math.log(4.0 / epsilon) / t_min
    j_max = int(math.ceil(math.log2(s_hi)))
    panels = list(range(j_min, j_max))
    n_panels = len(panels)
    panel_tol = 0.25 * epsilon / n_panels

    probe = np.geomspace(t_min, t_max, 256)
    probe_kernel = _kernel(alpha, probe)

    def panel_terms(j: int, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
        # the panel [2^j, 2^(j+1)] is 3 half -/+ half
        half = 2.0 ** (j - 1)
        x, wq = leggauss(n_nodes)
        s = 3.0 * half + half * x
        return half * wq * s ** (beta - 1.0) / gamma_beta, s

    all_w: list[np.ndarray] = []
    all_s: list[np.ndarray] = []
    for j in panels:
        n_nodes = 8
        w, s = panel_terms(j, n_nodes)
        contrib = _soe_sum(w, s, probe)
        while 2 * n_nodes <= max_nodes_per_panel:
            w2, s2 = panel_terms(j, 2 * n_nodes)
            contrib2 = _soe_sum(w2, s2, probe)
            # agreement with the doubled rule certifies the current one
            if np.max(np.abs(contrib2 - contrib) / probe_kernel) <= panel_tol:
                break
            n_nodes, w, s, contrib = 2 * n_nodes, w2, s2, contrib2
        all_w.append(w)
        all_s.append(s)

    weights = np.concatenate(all_w)
    exponents = np.concatenate(all_s)

    # discard terms negligible relative to the smallest kernel value
    with np.errstate(under="ignore"):
        reach = weights * np.exp(-exponents * t_min)
    keep = reach >= epsilon * t_max ** (-beta) / len(weights)
    weights, exponents = weights[keep], exponents[keep]

    soe = SOEApprox(
        alpha=float(alpha),
        epsilon=float(epsilon),
        t_min=float(t_min),
        t_max=float(t_max),
        weights=weights,
        exponents=exponents,
    )
    report = certify_soe(soe, n_samples=4096)
    if report.max_rel_error > epsilon:
        raise CertificationError(
            f"SOE certification failed: max relative error "
            f"{report.max_rel_error:.3e} > {epsilon:.3e} at t = {report.argmax_t:.6e} "
            f"(alpha={alpha}, interval=[{t_min:g}, {t_max:g}], "
            f"node cap {max_nodes_per_panel})"
        )
    return soe
