import numpy as np
import pytest
from scipy.special import ndtr

from anytime_ab.special import normal_quantile


def test_quantile_golden():
    assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-5)


def test_cdf_quantile_roundtrip():
    for p in np.linspace(0.001, 0.999, 57):
        assert abs(ndtr(normal_quantile(p)) - p) <= 1e-10


@pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.5])
def test_quantile_domain(p):
    with pytest.raises(ValueError):
        normal_quantile(p)
