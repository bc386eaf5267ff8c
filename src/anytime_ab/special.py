"""Scalar special functions shared by the decision rules.

Thin wrappers over scipy.special that add the domain checks callers rely
on. Everything at risk of overflow is evaluated in log space upstream;
probabilities here are good to well below 1e-9 absolute.
"""

from scipy import special as _sp


def normal_quantile(p: float) -> float:
    if not 0.0 < p < 1.0:
        raise ValueError(f"normal_quantile requires p in (0, 1), got {p}")
    return float(_sp.ndtri(p))


def reg_inc_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta I_x(a, b), i.e. the Beta(a, b) CDF at x."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"reg_inc_beta requires a, b > 0, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"reg_inc_beta requires x in [0, 1], got {x}")
    return float(_sp.betainc(a, b, x))
