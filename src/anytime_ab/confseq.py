"""Anytime-valid confidence sequences for streaming A/B tests.

The asymptotic confidence sequence for the ATE (AsympCS), ``asympcs_ate``,
tracks the difference of arm means using nothing but per-arm counts,
running means, and running biased variances, so the whole test state is
six numbers. The treatment
propensity is taken to be the observed allocation ``n1 / n``, which
collapses the inverse-propensity-weighted estimator to a plain difference
in means while keeping its variance expressible in per-arm summaries.

Each rule is one array kernel over per-arm (count, mean, biased variance)
columns, which ``engine.analyze_snapshots`` forms from snapshot rows and
``simlab.methods.bernoulli_summaries`` from count matrices; ``analyze``
and the studies call the same kernels. Every kernel is a pure map from
those columns and its parameters to an interval or statistic with a
validity mask: replaying a log reproduces a trajectory bit for bit, and
evaluation cadence is immaterial to validity, so no schedule state is
kept. By default intervals are *not* intersected across time; the
stopping rule used throughout is "first n whose current interval
excludes the null", and ``excludes`` is its one test. There is no
per-state API: a single state is a one-entry column.
"""

from dataclasses import dataclass

import numpy as np

from .special import normal_quantile

DEFAULT_RHO2 = 1e-3

# Tolerance below which a negative variance bracket is treated as float
# round-off on constant data; anything more negative means the
# accumulators are corrupt.
_VARIANCE_SLACK = 1e-12


class VarianceGuardError(ValueError):
    """Raised when the variance term is negative beyond float round-off."""


@dataclass(frozen=True)
class ConfSeqParams:
    """Level and tuning parameter governing every radius computation.

    ``rho2`` controls how fast the error budget is spent over the life of
    the test; 1e-3 is a conservative production default that keeps power
    high across typical conversion-rate scenarios.
    """

    alpha: float = 0.05
    rho2: float = DEFAULT_RHO2

    def __post_init__(self):
        if not 0.0 < self.alpha <= 0.5:
            raise ValueError(f"alpha must be in (0, 0.5], got {self.alpha}")
        if self.rho2 <= 0.0:
            raise ValueError(f"rho2 must be positive, got {self.rho2}")


def radius_beta(n, alpha: float, rho2: float):
    """Width multiplier sqrt(2(nr+1)/(n^2 r) * log(sqrt(nr+1)/alpha)), r = rho2.

    Strictly positive and, over the parameter ranges we use, strictly
    decreasing in n (a grid-tested property, not an assumed theorem).
    Accepts scalar or array n.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if rho2 <= 0.0:
        raise ValueError(f"rho2 must be positive, got {rho2}")
    n_arr = np.asarray(n, dtype=float)
    if np.any(n_arr < 1):
        raise ValueError("n must be at least 1")
    nr = n_arr * rho2
    out = np.sqrt(2.0 * (nr + 1.0) / (n_arr * n_arr * rho2) * np.log(np.sqrt(nr + 1.0) / alpha))
    if np.ndim(n) == 0:
        return float(out)
    return out


# Kernels: each rule once, over per-arm (count, mean, biased variance) arrays,
# or Python floats where both arms are nonempty. Entries failing a rule's
# preconditions are invalid, with infinite half-width or -inf log lambda.


def asympcs_ate(n0, n1, mu0, mu1, v0, v1, alpha: float, rho2: float):
    """Center, half-width and validity of the AsympCS interval for the ATE mu1 - mu0.

    The bracket is the running variance of the allocation-weighted
    influence values. Float round-off on constant data can push it
    slightly negative, so it is clamped at zero; a valid entry more
    negative than that raises VarianceGuardError. Valid where both arms
    are nonempty and n >= 2.
    """
    n = n0 + n1
    valid = (n0 >= 1) & (n1 >= 1) & (n >= 2)
    center = mu1 - mu0
    with np.errstate(divide="ignore", invalid="ignore"):
        bracket = (n / n0) * (v0 + mu0 * mu0) + (n / n1) * (v1 + mu1 * mu1) - center * center
        if np.any(valid & (bracket < -_VARIANCE_SLACK)):
            raise VarianceGuardError("variance bracket is negative; accumulators look corrupt")
        var_f = n / (n - 1.0) * np.maximum(bracket, 0.0)
        hw = np.where(valid, radius_beta(np.maximum(n, 1.0), alpha, rho2) * np.sqrt(var_f), np.inf)
    return center, hw, valid


def mean_interval(n, mu, v, alpha: float, rho2: float):
    """Center, half-width and validity (n >= 2) of the one-sample interval mu +/- sqrt(v) * radius."""
    valid = n >= 2
    with np.errstate(invalid="ignore"):
        hw = np.where(valid, np.sqrt(v) * radius_beta(np.maximum(n, 1.0), alpha, rho2), np.inf)
    return mu, hw, valid


def lift_interval(n0, n1, mu0, mu1, v0, v1, arm_level: float, rho2: float):
    """Lower bound, upper bound and validity of the interval for mu1/mu0 - 1.

    Composes the one-sample interval of each arm at ``arm_level``: the
    lower bound is l1/u0 - 1, or -1 (a nonnegative metric cannot lose
    more than everything) when l1 <= 0; the upper bound is u1/l0 - 1, or
    +inf when l0 <= 0. Valid where both arms have at least two
    observations and positive finite means.
    """
    valid = (n0 >= 2) & (n1 >= 2) & (0.0 < mu0) & (mu0 < np.inf) & (0.0 < mu1) & (mu1 < np.inf)
    _, hw0, _ = mean_interval(n0, mu0, v0, arm_level, rho2)
    _, hw1, _ = mean_interval(n1, mu1, v1, arm_level, rho2)
    l0, u0 = mu0 - hw0, mu0 + hw0
    l1, u1 = mu1 - hw1, mu1 + hw1
    with np.errstate(divide="ignore", invalid="ignore"):
        lower = np.where(l1 > 0.0, l1 / u0 - 1.0, -1.0)
        upper = np.where(l0 > 0.0, u1 / l0 - 1.0, np.inf)
    return lower, upper, valid


def two_sample_scale(n0, n1, mu0, mu1, v0, v1):
    """(n, effect estimate, variance of sqrt(n) * estimate) for the mixture kernels.

    The variance n * (v0/n0 + v1/n1) is 2(v0 + v1) at a 50/50 split; it
    is NaN, so invalid, where an arm is empty.
    """
    n = n0 + n1
    with np.errstate(divide="ignore", invalid="ignore"):
        sigma2 = np.where((n0 >= 1) & (n1 >= 1), n * (v0 / n0 + v1 / n1), np.nan)
    return n, mu1 - mu0, sigma2


def msprt_log_lambda(n, estimate, sigma2, rho2: float, theta0=0.0):
    """Log Gaussian-mixture likelihood ratio at theta0, and validity (n >= 2, sigma2 > 0).

    One-sample form over (n, mean, biased variance) for the engine's
    p-process; feed it ``two_sample_scale`` for the difference of means.
    """
    valid = (n >= 2) & (sigma2 > 0)
    s2 = np.where(valid, sigma2, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        nr = n * rho2
        loglam = 0.5 * np.log(s2 / (nr + s2)) + (
            n * n * rho2 * (estimate - theta0) ** 2
        ) / (2.0 * s2 * (nr + s2))
    return np.where(valid, loglam, -np.inf), valid


def msprt_interval(n, estimate, sigma2, alpha: float, rho2: float):
    """Center, half-width and validity of the interval inverting lambda >= 1/alpha (inputs as ``msprt_log_lambda``).

    A subnormal sigma2 overflows the half-width; such an entry is invalid.
    """
    valid = (n >= 2) & (sigma2 > 0)
    s2 = np.where(valid, sigma2, 1.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        n = np.maximum(n, 2.0)
        nr = n * rho2
        inner = 0.5 * np.log((nr + s2) / s2) + np.log(1.0 / alpha)
        hw = np.sqrt(s2) * np.sqrt(2.0 * (nr + s2) / (n * n * rho2) * inner)
    valid = valid & (hw < np.inf)
    return estimate, np.where(valid, hw, np.inf), valid


def excludes(lower, upper, valid, theta0):
    """Where a valid interval [lower, upper] leaves out theta0: every interval rule's crossing test.

    A NaN bound excludes nothing.
    """
    return valid & ((lower > theta0) | (upper < theta0))


def _z_scale(n0, n1, v0, v1):
    # One event gives an arm a variance of 0, not an estimate of it.
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.sqrt(v0 / n0 + v1 / n1), (n0 >= 2) & (n1 >= 2)


def z_statistic(n0, n1, mu0, mu1, v0, v1, theta0=0.0):
    """Two-sample z statistic for mu1 - mu0 - theta0 and validity.

    Infinite, with the sign of the difference, where the difference has
    no noise. Valid where both arms have at least two events.
    """
    se, valid = _z_scale(n0, n1, v0, v1)
    diff = mu1 - mu0 - theta0
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(se > 0, diff / se, np.where(diff != 0, np.copysign(np.inf, diff), 0.0))
    return z, valid


def z_interval(n0, n1, mu0, mu1, v0, v1, alpha: float):
    """Center, half-width and validity of the fixed-horizon z interval for mu1 - mu0."""
    se, valid = _z_scale(n0, n1, v0, v1)
    return mu1 - mu0, normal_quantile(1.0 - alpha / 2.0) * se, valid
