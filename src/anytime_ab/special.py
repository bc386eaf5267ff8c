"""Scalar special functions shared by the decision rules.

A thin wrapper over scipy.special that adds the domain check callers
rely on.
"""

from scipy import special as _sp


def normal_quantile(p: float) -> float:
    if not 0.0 < p < 1.0:
        raise ValueError(f"normal_quantile requires p in (0, 1), got {p}")
    return float(_sp.ndtri(p))
