"""Standard normal distribution functions (CDF and quantile).

The quantile is the standard library's (Wichura's AS241, accurate to a few
ulp), well inside the 1e-9 contract this package relies on for confidence
bounds and sample sizes.
"""

from __future__ import annotations

import math
from statistics import NormalDist

_STANDARD = NormalDist()
_SQRT_TWO = math.sqrt(2.0)


def norm_cdf(x: float) -> float:
    """Cumulative distribution function of the standard normal."""
    return 0.5 * math.erfc(-x / _SQRT_TWO)


def norm_ppf(p: float) -> float:
    """Quantile (inverse CDF) of the standard normal.

    Returns -inf for p=0 and +inf for p=1; raises ValueError outside [0, 1].
    """
    if math.isnan(p) or p < 0.0 or p > 1.0:
        raise ValueError(f"probability must be in [0, 1], got {p}")
    if p == 0.0:
        return -math.inf
    if p == 1.0:
        return math.inf
    return _STANDARD.inv_cdf(p)
