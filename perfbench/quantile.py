"""Harrell-Davis quantile estimate, with numpy and the standard library only.

A plain percentile of job latencies is one order statistic, or two
interpolated.  Where the latencies have a gap at that rank (on ``engine`` the
90th percentile falls between a cluster of Mat2/F5 jobs near 65 ms and one of
F3C3 jobs near 75 ms), one job crossing the gap between runs moves the
percentile by the whole gap.  The Harrell-Davis estimate is a weighted mean
of all order statistics, with the weights of a Beta((n+1)q, (n+1)(1-q))
distribution over the ranks, so it moves by a fraction of the gap instead.
(Harrell and Davis, "A new distribution-free quantile estimator",
Biometrika 69, 1982.)
"""

from __future__ import annotations

import math

import numpy as np


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        for aa in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                   -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + aa / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-14:
            return h
    raise ArithmeticError(f"incomplete beta continued fraction did not converge ({a}, {b}, {x})")


def beta_cdf(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def hd_quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile of ``values``."""
    x = np.sort(np.asarray(values, dtype=np.float64))
    n = len(x)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    cdf = np.array([beta_cdf(i / n, a, b) for i in range(n + 1)])
    return float(np.diff(cdf) @ x)
