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

Also provides the two special-function utilities the rest of the package
needs: a Lanczos Gamma function and Gauss-Legendre rules (Newton iteration on
the Legendre recurrence, no external dependencies).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "CertificationError",
    "CertReport",
    "QuadratureRule",
    "SOEApprox",
    "build_soe",
    "certify_soe",
    "eval_soe",
    "gamma_fn",
    "gauss_legendre",
]


class CertificationError(RuntimeError):
    """Raised when a constructed exponential sum fails its accuracy check."""


# Lanczos approximation, g = 7, 9 coefficients.  Relative error below 1e-14
# for real positive arguments, which is ample for the 1e-13 contract here.
_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def gamma_fn(x: float) -> float:
    """Gamma function for real x > 0 (Lanczos rational approximation).

    Raises ValueError for x <= 0; the reflection formula is used internally
    for 0 < x < 0.5 so the Lanczos series is only ever evaluated on its
    well-conditioned branch.
    """
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"gamma_fn requires x > 0, got {x!r}")
    if x < 0.5:
        # reflection: Gamma(x) Gamma(1-x) = pi / sin(pi x)
        return math.pi / (math.sin(math.pi * x) * gamma_fn(1.0 - x))
    z = x - 1.0
    acc = _LANCZOS_COEF[0]
    for i, c in enumerate(_LANCZOS_COEF[1:], start=1):
        acc += c / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * math.exp(-t) * acc


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre nodes/weights on (-1, 1)."""

    nodes: np.ndarray
    weights: np.ndarray
    order: int

    def map_to(self, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
        """Affinely mapped nodes and weights for the interval [a, b]."""
        half = 0.5 * (b - a)
        return 0.5 * (a + b) + half * self.nodes, half * self.weights


@lru_cache(maxsize=None)
def gauss_legendre(order: int) -> QuadratureRule:
    """Gauss-Legendre rule with ``order`` nodes, 1 <= order <= 64.

    Nodes are the roots of the degree-``order`` Legendre polynomial, found by
    Newton iteration from Chebyshev initial guesses; weights are
    2 / ((1 - x^2) P'_n(x)^2).
    """
    if not isinstance(order, (int, np.integer)) or isinstance(order, bool):
        raise ValueError("order must be an integer")
    if not 1 <= order <= 64:
        raise ValueError(f"order must be in [1, 64], got {order}")
    n = int(order)
    k = np.arange(1, n + 1)
    x = np.cos(np.pi * (4.0 * k - 1.0) / (4.0 * n + 2.0))
    for _ in range(100):
        # Legendre recurrence up to degree n, plus derivative at x
        p_prev = np.ones_like(x)
        p = x.copy()
        if n == 1:
            p_prev, p = np.ones_like(x), x.copy()
        for m in range(2, n + 1):
            p_prev, p = p, ((2 * m - 1) * x * p - (m - 1) * p_prev) / m
        if n == 1:
            dp = np.ones_like(x)
        else:
            dp = n * (x * p - p_prev) / (x * x - 1.0)
        dx = p / dp
        x = x - dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    # one clean-up recurrence pass for the converged derivative
    p_prev = np.ones_like(x)
    p = x.copy()
    for m in range(2, n + 1):
        p_prev, p = p, ((2 * m - 1) * x * p - (m - 1) * p_prev) / m
    if n == 1:
        x = np.zeros(1)
        w = np.full(1, 2.0)
    else:
        dp = n * (x * p - p_prev) / (x * x - 1.0)
        w = 2.0 / ((1.0 - x * x) * dp * dp)
    idx = np.argsort(x)
    return QuadratureRule(nodes=x[idx], weights=w[idx], order=n)


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

    @property
    def terms(self) -> list[tuple[float, float]]:
        return list(zip(self.weights.tolist(), self.exponents.tolist()))


@dataclass(frozen=True)
class CertReport:
    max_rel_error: float
    argmax_t: float

    @property
    def max_abs_error_scale(self) -> float:
        """Induced absolute error bound at the worst point."""
        return self.max_rel_error * self.argmax_t


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
    if not 1e-14 <= epsilon < 1e-2:
        raise ValueError(
            f"epsilon must lie in [1e-14, 1e-2) (double-precision certifiable), "
            f"got {epsilon!r}"
        )
    if not 0.0 < t_min < t_max:
        raise ValueError(f"need 0 < t_min < t_max, got ({t_min!r}, {t_max!r})")

    beta = 1.0 + alpha
    gamma_beta = gamma_fn(beta)

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
        rule = gauss_legendre(n_nodes)
        s, w = rule.map_to(2.0**j, 2.0 ** (j + 1))
        return w * s ** (beta - 1.0) / gamma_beta, s

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
