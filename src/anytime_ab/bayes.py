"""Bayesian baselines: expected-loss stopping and the Bayes-factor rule.

Both operate on conjugate Beta posteriors over binary outcomes. The
expected-loss rule penalizes a wrong choice linearly (the regret of
picking the worse arm) and stops once the posterior expected loss of the
preferred decision drops below a threshold of caring. The Bayes-factor
rule stops once the posterior odds in favor of distinct arm rates exceed
a threshold. The one-arm loss against a fixed baseline rate is
``simlab.methods.bht_single_losses``.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betaincinv, betaln

from .confseq import TwoArmState

DEFAULT_EPSILON = 1e-4


class NonBinaryOutcomeError(ValueError):
    """Raised when a conjugate-Beta rule is fed non-binary data."""


class BackendError(ValueError):
    """Raised when a loss backend cannot handle its inputs."""


@dataclass(frozen=True)
class BetaPosterior:
    a: float
    b: float

    def __post_init__(self):
        if self.a <= 0.0 or self.b <= 0.0:
            raise ValueError(f"Beta parameters must be positive, got ({self.a}, {self.b})")

    def update(self, conversions: int, trials: int) -> "BetaPosterior":
        if not 0 <= conversions <= trials:
            raise ValueError(f"need 0 <= conversions <= trials, got {conversions}/{trials}")
        return BetaPosterior(self.a + conversions, self.b + trials - conversions)

    @property
    def mean(self) -> float:
        return self.a / (self.a + self.b)

    def credible_interval(self, level: float = 0.95) -> tuple[float, float]:
        tail = (1.0 - level) / 2.0
        return (
            float(betaincinv(self.a, self.b, tail)),
            float(betaincinv(self.a, self.b, 1.0 - tail)),
        )


@dataclass(frozen=True)
class BhtConfig:
    """Prior and threshold of caring for the expected-loss rule."""

    prior_a: float = 1.0
    prior_b: float = 1.0
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self):
        if self.prior_a <= 0.0 or self.prior_b <= 0.0:
            raise ValueError("prior parameters must be positive")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")


@dataclass(frozen=True)
class BfConfig:
    """Prior and posterior-odds threshold for the Bayes-factor rule."""

    prior_a: float = 1.0
    prior_b: float = 1.0
    odds_threshold: float = 20.0

    def __post_init__(self):
        if self.prior_a <= 0.0 or self.prior_b <= 0.0:
            raise ValueError("prior parameters must be positive")
        if self.odds_threshold <= 1.0:
            raise ValueError("odds threshold must exceed 1")


def beta_prob_greater(a1: float, b1: float, a0: float, b0: float) -> float:
    """P(X > Y) for independent X ~ Beta(a1, b1), Y ~ Beta(a0, b0).

    Finite sum over integer-parameter Beta identities; requires a1 to be
    a positive integer.
    """
    k = int(round(a1))
    if abs(a1 - k) > 1e-9 or k < 1:
        raise BackendError(f"closed-form tail needs integer a1 >= 1, got {a1}")
    i = np.arange(k, dtype=float)
    log_terms = (
        betaln(a0 + i, b0 + b1)
        - np.log(b1 + i)
        - betaln(1.0 + i, b1)
        - betaln(a0, b0)
    )
    return float(np.exp(log_terms).sum())


def _integral(x: float) -> bool:
    return abs(x - round(x)) <= 1e-9


def two_arm_expected_loss(
    post0: BetaPosterior,
    post1: BetaPosterior,
    choice: str,
    backend: str = "exact",
) -> float:
    """Expected linear loss of committing to one arm, E[max(other - chosen, 0)].

    The only backend, "exact", uses closed-form Beta tail sums and
    requires all four posterior parameters to be integers.
    """
    if backend != "exact":
        raise ValueError(f"unknown backend {backend!r}")
    if choice == "arm0":
        lo, hi = post0, post1
    elif choice == "arm1":
        lo, hi = post1, post0
    else:
        raise ValueError(f"choice must be 'arm0' or 'arm1', got {choice!r}")
    params = (post0.a, post0.b, post1.a, post1.b)
    if not all(_integral(p) for p in params):
        raise BackendError(f"exact backend needs integer parameters, got {params}")
    # E[max(hi - lo, 0)] = E[hi; hi > lo] - E[lo; hi > lo], with each
    # piece a Beta mean times a tail probability of a shifted posterior.
    term1 = hi.mean * beta_prob_greater(hi.a + 1.0, hi.b, lo.a, lo.b)
    term2 = lo.mean * beta_prob_greater(hi.a, hi.b, lo.a + 1.0, lo.b)
    return max(term1 - term2, 0.0)


@dataclass(frozen=True)
class BhtDecision:
    stopped: bool
    chosen_arm: int
    loss_arm0: float
    loss_arm1: float


def binary_counts(state: TwoArmState) -> tuple[int, int, int, int]:
    """Recover (c0, n0, c1, n1) from accumulators, rejecting non-binary data."""
    out = []
    for arm in (state.arm0, state.arm1):
        n = arm.count
        s = arm.mean * n
        c = round(s)
        m2_expected = c - c * c / n if n > 0 else 0.0
        tol = 1e-6 * max(1.0, float(n))
        if n > 0 and (abs(s - c) > tol or abs(arm.m2 - m2_expected) > tol or not 0 <= c <= n):
            raise NonBinaryOutcomeError("expected-loss rule requires binary outcomes")
        out.extend([int(c), int(n)])
    return out[0], out[1], out[2], out[3]


def bht_decide(state: TwoArmState, cfg: BhtConfig) -> BhtDecision:
    """Stop once the expected loss of the preferred arm is below epsilon."""
    c0, n0, c1, n1 = binary_counts(state)
    prior = BetaPosterior(cfg.prior_a, cfg.prior_b)
    post0 = prior.update(c0, n0)
    post1 = prior.update(c1, n1)
    loss0 = two_arm_expected_loss(post0, post1, "arm0")
    loss1 = two_arm_expected_loss(post0, post1, "arm1")
    chosen = 0 if loss0 <= loss1 else 1
    stopped = min(loss0, loss1) < cfg.epsilon
    return BhtDecision(stopped, chosen, loss0, loss1)


def log_bayes_factor(c0, n0, c1, n1, cfg: BfConfig):
    """Log posterior odds of per-arm rates versus a single shared rate; counts may be arrays."""
    c0, n0, c1, n1 = (np.asarray(x, dtype=float) for x in (c0, n0, c1, n1))
    if np.any((c0 < 0) | (c0 > n0) | (c1 < 0) | (c1 > n1)):
        raise ValueError("need 0 <= conversions <= trials in both arms")
    a, b = cfg.prior_a, cfg.prior_b
    out = (
        betaln(a + c0, b + n0 - c0)
        + betaln(a + c1, b + n1 - c1)
        - betaln(a, b)
        - betaln(a + c0 + c1, b + n0 + n1 - c0 - c1)
    )
    return float(out) if out.ndim == 0 else out


def bayes_factor(c0: int, n0: int, c1: int, n1: int, cfg: BfConfig) -> float:
    return math.exp(log_bayes_factor(c0, n0, c1, n1, cfg))
