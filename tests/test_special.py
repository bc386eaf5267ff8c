import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats
from scipy.special import ndtr

from anytime_ab.special import normal_quantile, reg_inc_beta


def test_quantile_golden():
    assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-5)


def test_cdf_quantile_roundtrip():
    for p in np.linspace(0.001, 0.999, 57):
        assert abs(ndtr(normal_quantile(p)) - p) <= 1e-10


@pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.5])
def test_quantile_domain(p):
    with pytest.raises(ValueError):
        normal_quantile(p)


def test_reg_inc_beta_uniform_is_identity():
    for x in np.linspace(0, 1, 21):
        assert reg_inc_beta(x, 1.0, 1.0) == pytest.approx(x, abs=1e-14)


def test_reg_inc_beta_endpoints_and_monotone():
    assert reg_inc_beta(0.0, 5.0, 7.0) == 0.0
    assert reg_inc_beta(1.0, 5.0, 7.0) == 1.0
    xs = np.linspace(0, 1, 200)
    vals = [reg_inc_beta(x, 2.5, 4.0) for x in xs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_reg_inc_beta_against_quadrature():
    # Golden computed to 20 digits with mpmath: I_0.3(5, 7) = 0.2103046173...
    assert reg_inc_beta(0.3, 5.0, 7.0) == pytest.approx(0.2103046173, abs=1e-9)
    val, _ = integrate.quad(lambda t: stats.beta.pdf(t, 5, 7), 0.0, 0.3, epsabs=1e-12)
    assert reg_inc_beta(0.3, 5.0, 7.0) == pytest.approx(val, abs=1e-9)


@pytest.mark.parametrize("x,a,b", [(-0.1, 1, 1), (1.1, 1, 1), (0.5, 0, 1), (0.5, 1, -2)])
def test_reg_inc_beta_domain(x, a, b):
    with pytest.raises(ValueError):
        reg_inc_beta(x, a, b)


@given(
    st.floats(min_value=1e-3, max_value=1 - 1e-3),
    st.floats(min_value=0.05, max_value=50.0),
    st.floats(min_value=0.05, max_value=50.0),
)
@settings(max_examples=300, deadline=None)
def test_reg_inc_beta_reflection(x, a, b):
    assert reg_inc_beta(x, a, b) + reg_inc_beta(1.0 - x, b, a) == pytest.approx(1.0, abs=1e-10)
