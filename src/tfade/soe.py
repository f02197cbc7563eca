"""Sum-of-exponentials compression of the weakly singular kernel t**(-1-alpha).

The history part of the tempered fractional derivative convolves past states
against k(t) = t**(-1-alpha).  On any interval [t_min, t_max] bounded away
from zero this kernel admits an approximation

    k(t) ~ sum_l  omega_l * exp(-s_l * t),

which is what turns the quadratic-cost history sum into an O(n_exp) running
recurrence.  This module builds such approximations from the Laplace
representation

    t**(-beta) = 1/Gamma(beta) * int_R exp(beta x - t e^x) dx,   s = e^x,

with beta = 1 + alpha, by the trapezoidal rule in x (Beylkin & Monzon, ACHA
28, 2010; McLean 2018), and certifies the result a posteriori on a dense
logarithmic grid.  The certified bound is *relative*:
max |k - soe| / k <= epsilon on the interval.
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

    The direct method's quadrature and `oracle_caputo` draw on it; a fresh
    `numpy.polynomial.legendre.leggauss` call costs up to a millisecond.
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
    # blockwise, in place in one buffer: keeps the (t x terms) scratch
    # cache-sized; the clamp stops exp from producing throughput-killing
    # denormals
    step = max(1, 250_000 // max(len(exponents), 1))
    buf = np.empty((min(step, len(t)), len(exponents)))
    for i in range(0, len(t), step):
        ti = t[i : i + step]
        block = buf[: len(ti)]
        np.multiply.outer(ti, exponents, out=block)
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


def _log_abs_gamma(beta: float, y: float) -> float:
    """ln|Gamma(beta + iy)| by Stirling's series, for beta > 0 and y >= 5.

    With z = beta + iy = r e^(i theta), the real part of
    (z - 1/2) ln z - z + ln(2 pi)/2 + 1/(12 z) - 1/(360 z^3); the next term
    is below 1/(1260 r^5) < 1e-6.
    """
    r, theta = math.hypot(beta, y), math.atan2(y, beta)
    return ((beta - 0.5) * math.log(r) - y * theta - beta + 0.5 * math.log(2.0 * math.pi)
            + math.cos(theta) / (12.0 * r) - math.cos(3.0 * theta) / (360.0 * r**3))


def build_soe(alpha: float, epsilon: float, t_min: float, t_max: float) -> SOEApprox:
    """Construct a certified exponential sum for t**(-1-alpha) on [t_min, t_max].

    The trapezoidal rule with step h on x_n = n h, n_a <= n <= n_b, applied
    to 1/Gamma(beta) int exp(beta x - t e^x) dx, beta = 1 + alpha, gives the
    positive terms s_n = e^(x_n), omega_n = h e^(beta x_n) / Gamma(beta).
    Three closed-form bounds on the relative error get epsilon/3 each:

    - discretisation, the same at every t: 2 |Gamma(beta + 2 pi i/h)| /
      Gamma(beta) (Poisson summation; the further aliases are e^(-pi^2/h)
      smaller), which sets h;
    - the terms below x = a: e^(beta a) t^beta / (beta Gamma(beta)), largest
      at t_max, which sets a;
    - the terms above x = b: Q(beta, t e^b), the regularised upper
      incomplete gamma function, largest at t_min and below
      u^alpha e^(-u) / (Gamma(beta) (1 - alpha/u)) at u = t_min e^b, which
      sets b.

    The result is certified on a dense grid; failure to certify raises
    CertificationError.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    check_epsilon(epsilon)
    if not 0.0 < t_min < t_max < math.inf:
        raise ValueError(f"need 0 < t_min < t_max < inf, got t_min={t_min!r}, t_max={t_max!r}")

    beta = 1.0 + alpha
    gamma_beta = math.gamma(beta)
    budget = epsilon / 3.0

    # step: Newton on ln(2 |Gamma(beta + iy)| / Gamma(beta)) = ln(budget) in
    # y = 2 pi/h; the left side falls with slope -theta - y/(2 r^2) < -1,
    # and epsilon < 1e-2 puts the root above y = 5, where Stirling holds
    y = (2.0 / math.pi) * math.log(6.0 / epsilon)
    for _ in range(8):
        excess = math.log(2.0 / gamma_beta) + _log_abs_gamma(beta, y) - math.log(budget)
        y += excess / (math.atan2(y, beta) + 0.5 * y / (beta * beta + y * y))
    h = 2.0 * math.pi / y
    # lower end: e^(beta a) t_max^beta / (beta Gamma(beta)) = budget
    a = (math.log(budget * beta * gamma_beta) - beta * math.log(t_max)) / beta
    # upper end: u^alpha e^(-u) / (Gamma(beta) (1 - alpha/u)) = budget; the
    # fixed-point map contracts (slope below alpha/u < 0.2) and rises from
    # below the root.  u >= 5 > beta also makes the integrand decrease past
    # b, which the bound needs
    u = u0 = -math.log(budget * gamma_beta)
    for _ in range(30):
        u = u0 + alpha * math.log(u) - math.log1p(-alpha / u)
    b = math.log(u / t_min)

    x = np.arange(math.floor(a / h), math.ceil(b / h) + 1) * h
    soe = SOEApprox(
        alpha=float(alpha),
        epsilon=float(epsilon),
        t_min=float(t_min),
        t_max=float(t_max),
        weights=(h / gamma_beta) * np.exp(beta * x),
        exponents=np.exp(x),
    )
    report = certify_soe(soe, n_samples=4096)
    if report.max_rel_error > epsilon:
        raise CertificationError(
            f"SOE certification failed: max relative error "
            f"{report.max_rel_error:.3e} > {epsilon:.3e} at t = {report.argmax_t:.6e} "
            f"(alpha={alpha}, interval=[{t_min:g}, {t_max:g}], {soe.n_exp} terms)"
        )
    return soe
