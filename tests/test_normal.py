import math

import numpy as np
import pytest
from scipy.stats import norm as scipy_norm

from apcval.normal import norm_cdf, norm_ppf


def test_ppf_against_scipy_grid():
    # independent oracle: scipy's implementation, checked at 1e-9 absolute
    ps = np.concatenate(
        [
            np.linspace(1e-12, 1 - 1e-12, 5001),
            10.0 ** np.arange(-15, -1),
            1 - 10.0 ** np.arange(-15, -1.0),
        ]
    )
    for p in ps:
        assert norm_ppf(float(p)) == pytest.approx(scipy_norm.ppf(p), abs=1e-9)


def test_ppf_key_quantiles():
    assert norm_ppf(0.975) == pytest.approx(1.959963984540054, abs=1e-12)
    assert norm_ppf(0.5) == pytest.approx(0.0, abs=1e-15)
    assert norm_ppf(0.025) == pytest.approx(-1.959963984540054, abs=1e-12)


def test_ppf_edges():
    assert norm_ppf(0.0) == -math.inf
    assert norm_ppf(1.0) == math.inf
    with pytest.raises(ValueError):
        norm_ppf(-0.1)
    with pytest.raises(ValueError):
        norm_ppf(1.1)
    with pytest.raises(ValueError):
        norm_ppf(float("nan"))


def test_cdf_against_scipy():
    for x in np.linspace(-9, 9, 2001):
        assert norm_cdf(float(x)) == pytest.approx(scipy_norm.cdf(x), abs=1e-14)


def test_cdf_ppf_roundtrip():
    for p in (1e-10, 0.01, 0.3, 0.5, 0.7, 0.99, 1 - 1e-10):
        assert norm_cdf(norm_ppf(p)) == pytest.approx(p, rel=1e-10)
