"""Sample-size machinery for anytime and fixed-horizon tests.

The anytime calculator answers: under the alternative (true effect equal
to the minimum detectable effect), what is the smallest n at which the
interval excludes the null with the desired probability? With a prior
variance guess the probability statement reduces to a deterministic
quantile crossing,

    |effect| - s * radius(n, 1 - power, rho2) >= s * radius(n, alpha, rho2)

with s the guessed standard deviation of the effect's influence values:
the lower envelope of the estimate under the alternative must clear the
rejection boundary under the null. Both sides are monotone in n, so the
smallest such n is found by integer bisection and double-checked at
n* - 1.
"""

import math
from dataclasses import dataclass

from .confseq import ConfSeqParams, normal_quantile, radius_beta

DEFAULT_POPULATION_CAP = 10**9


@dataclass(frozen=True)
class DesignSpec:
    """Inputs to the anytime sample-size calculation.

    ``sigma2_guess`` is the analyst's prior guess of the variance of the
    effect estimator's influence values (for a 50/50 binary test, see
    ``variance_guess_binary``). ``population_cap`` bounds the search;
    experiments cannot enroll more subjects than exist.
    """

    theta_h1: float
    sigma2_guess: float
    alpha: float = 0.05
    power: float = 0.8
    population_cap: int = DEFAULT_POPULATION_CAP

    def __post_init__(self):
        if self.theta_h1 == 0.0:
            raise ValueError("alternative effect must differ from the null")
        if self.sigma2_guess <= 0.0:
            raise ValueError("variance guess must be positive")
        if not 0.0 < self.alpha < self.power < 1.0:
            raise ValueError(f"need 0 < alpha < power < 1, got alpha={self.alpha}, power={self.power}")
        if self.population_cap < 1:
            raise ValueError("population cap must be at least 1")


def hypothesized_sample_size(spec: DesignSpec, params: ConfSeqParams) -> int | None:
    """Smallest total n at which the anytime test rejects with the target power.

    Returns None when the crossing does not happen within the population
    cap. Levels come from ``spec``; only the tuning ``rho2`` is read from
    ``params``.
    """
    effect = abs(spec.theta_h1)
    s = math.sqrt(spec.sigma2_guess)
    alpha = spec.alpha
    beta_err = 1.0 - spec.power
    rho2 = params.rho2

    def crosses(n: int) -> bool:
        return effect - s * radius_beta(n, beta_err, rho2) >= s * radius_beta(n, alpha, rho2)

    cap = spec.population_cap
    if not crosses(cap):
        return None
    lo, hi = 1, cap
    while lo < hi:
        mid = (lo + hi) // 2
        if crosses(mid):
            hi = mid
        else:
            lo = mid + 1
    n_star = lo
    if not crosses(n_star) or (n_star > 1 and crosses(n_star - 1)):
        raise RuntimeError("bisection lost the monotone crossing; radius is not monotone here")
    return n_star


def variance_guess_binary(p0: float, mde: float) -> float:
    """Influence-value variance guess for a 50/50 binary test.

    2*(v0 + p0^2) + 2*(v1 + p1^2) - mde^2 with v_i = p_i(1 - p_i) and
    p1 = p0 + mde.
    """
    p1 = p0 + mde
    if not 0.0 < p0 < 1.0 or not 0.0 < p1 < 1.0:
        raise ValueError(f"need rates in (0, 1), got p0={p0}, p1={p1}")
    v0 = p0 * (1.0 - p0)
    v1 = p1 * (1.0 - p1)
    return 2.0 * (v0 + p0 * p0) + 2.0 * (v1 + p1 * p1) - mde * mde


def fixed_horizon_sample_size(p0: float, mde: float, alpha: float, power: float) -> int:
    """Classical per-arm n for a two-sample proportion z-test.

    ceil((z_{1-alpha/2} + z_power)^2 * (v0 + v1) / mde^2).
    """
    p1 = p0 + mde
    if not 0.0 < p0 < 1.0 or not 0.0 < p1 < 1.0:
        raise ValueError(f"need rates in (0, 1), got p0={p0}, p1={p1}")
    if not 0.0 < alpha < 1.0 or not 0.0 < power < 1.0:
        raise ValueError("alpha and power must be in (0, 1)")
    if mde == 0.0:
        raise ValueError("mde must be nonzero")
    z_a = normal_quantile(1.0 - alpha / 2.0)
    z_b = normal_quantile(power)
    v0 = p0 * (1.0 - p0)
    v1 = p1 * (1.0 - p1)
    return math.ceil((z_a + z_b) ** 2 * (v0 + v1) / (mde * mde))
