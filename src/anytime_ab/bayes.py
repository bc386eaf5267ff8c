"""Bayesian baselines: expected-loss stopping and the Bayes-factor rule.

Both operate on conjugate Beta posteriors over binary outcomes. The
expected-loss rule penalizes a wrong choice linearly (the regret of
picking the worse arm) and stops once the posterior expected loss of the
preferred decision drops below a threshold of caring. The Bayes-factor
rule stops once the posterior odds in favor of distinct arm rates exceed
a threshold. Both take per-arm conversion counts, from ``binary_counts``.
The one-arm loss against a fixed baseline rate is
``simlab.methods.bht_single_losses``.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betaln

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


@dataclass(frozen=True)
class BhtConfig:
    """Prior and threshold of caring for the expected-loss rule."""

    prior_a: float = 1.0
    prior_b: float = 1.0
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self):
        if not (0.0 < self.prior_a < math.inf and 0.0 < self.prior_b < math.inf):
            raise ValueError(f"prior parameters must be finite and positive, got ({self.prior_a}, {self.prior_b})")
        if not self.epsilon > 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")


@dataclass(frozen=True)
class BfConfig:
    """Prior and posterior-odds threshold for the Bayes-factor rule."""

    prior_a: float = 1.0
    prior_b: float = 1.0
    odds_threshold: float = 20.0

    def __post_init__(self):
        if not (0.0 < self.prior_a < math.inf and 0.0 < self.prior_b < math.inf):
            raise ValueError(f"prior parameters must be finite and positive, got ({self.prior_a}, {self.prior_b})")
        if not self.odds_threshold > 1.0:
            raise ValueError(f"odds threshold must exceed 1, got {self.odds_threshold}")


def beta_prob_greater(a1: float, b1: float, a0: float, b0: float) -> float:
    """P(X > Y) for independent X ~ Beta(a1, b1), Y ~ Beta(a0, b0).

    The sum over i < a1 of t_i = B(a0 + i, b0 + b1) / ((b1 + i) B(1 + i, b1) B(a0, b0))
    (Evan Miller, 2015), with term ratio
    r_i = t_{i+1} / t_i = (a0 + i)(b1 + i) / ((a0 + b0 + b1 + i)(1 + i)).
    t_i is the pmf of a beta-negative-binomial N ~ BNB(b1, b0, a0): the
    terms over all i >= 0 sum to 1, so P(X > Y) = P(N < a1) =
    sum_{i < a1} u_i / sum_i u_i for u_i = t_i / t_m. The terms rise to the
    mode m = max(ceil(x), 0), x = (a0 b1 - a0 - b0 - b1) / (b0 + 1), and
    fall after it. The u_i are cumulative ratio products outward from
    u_m = 1 over a window of 10 standard deviations of N left of m and
    10 + 15 skew of them right of it, where N's tail is heavier; a side
    doubles until the terms it leaves out are provably below 2^-60 of
    both sums, and the left side also until it holds terms below a1. So P
    keeps its relative accuracy, with no log, at O(sd of N) work per call.
    Inputs that no window shorter than the a0 + a1 terms of the whole sum
    certifies take that sum instead, anchored at its peak through one
    fsum of logs, at O(a0 + a1):
    b0 <= 3 (N's tail decays like i^-(b0 + 1), too slowly for a third
    moment), small counts, and a1 far left of a distant mode.
    Requires a1 and a0 to be positive integers.
    """
    k, j = int(round(a1)), int(round(a0))
    if abs(a1 - k) > 1e-9 or k < 1:
        raise BackendError(f"closed-form tail needs integer a1 >= 1, got {a1}")
    if abs(a0 - j) > 1e-9 or j < 1:
        raise BackendError(f"closed-form tail needs integer a0 >= 1, got {a0}")
    if b0 > 3.0:
        c = a0 + b0 + b1
        x = (a0 * b1 - c) / (b0 + 1.0)
        m = max(math.ceil(x), 0)
        # N's right tail is the heavier: the window starts 10 standard
        # deviations left of m and 10 + 15 skew right of it.
        sd = math.sqrt(b1 * a0 * (b1 + b0 - 1.0) * (a0 + b0 - 1.0) / ((b0 - 2.0) * (b0 - 1.0) ** 2))
        skew = (b0 + 2.0 * a0 - 1.0) * (2.0 * b1 + b0 - 1.0) / ((b0 - 3.0) * (b0 - 1.0) * sd)
        wl, wr = math.ceil(10.0 * sd) + 1, math.ceil((10.0 + 15.0 * skew) * sd) + 1
        while wl + wr < k + j:
            lo, hi = max(m - wl, 0), m + wr
            if k <= lo:  # no term of the sum is in the window yet
                wl *= 2
                continue
            i = np.arange(lo, hi + 1, dtype=float)
            num, den, peak = a0 + i, c + i, m - lo
            num *= b1 + i
            den *= 1.0 + i
            u = np.empty(hi - lo + 2)  # u_lo .. u_{hi + 1}
            u[peak] = 1.0
            np.multiply.accumulate(num[peak:] / den[peak:], out=u[peak + 1:])
            np.multiply.accumulate((den[:peak] / num[:peak])[::-1], out=u[:peak][::-1])
            total = u[:-1].sum()
            below = u[:k - lo].sum() if k <= hi else total
            # 1 - r_i = (b0 + 1)(i - x) / ((c + i)(1 + i)). Left tail: for
            # i < lo <= m - 1 < x, r_i - 1 falls as i rises, so each term
            # below lo is at most 1 / r_{lo - 1} of the one above it and
            # sum_{i < lo} u_i <= u_lo / (r_{lo - 1} - 1). Right tail: for
            # i >= h = hi + 1, (b0 + 1)(i - x) / (1 + i) - 1 >= d, where d
            # takes min((h - x) / (1 + h), 1) for (i - x) / (1 + i), so
            # A_i = (i + c - 1) / d >= 0 has A_i - A_{i+1} r_i >= 1, i.e.
            # u_i <= A_i u_i - A_{i+1} u_{i+1}; telescoping gives
            # sum_{i >= h} u_i <= A_h u_h = (hi + c) u_{hi + 1} / d.
            left = u[0] / ((a0 + lo - 1.0) * (b1 + lo - 1.0) / ((c + lo - 1.0) * lo) - 1.0) if lo else 0.0
            d = (b0 + 1.0) * min((hi + 1.0 - x) / (hi + 2.0), 1.0) - 1.0
            left_ok = left < 2.0**-60 * below
            right_ok = d > 0.0 and u[-1] * (hi + c) <= 2.0**-60 * d * total
            if left_ok and right_ok:
                return float(below / total)
            if not left_ok:
                wl *= 2
            if not right_ok:
                wr *= 2
    i = np.arange(k - 1, dtype=float)
    r = (a0 + i) * (b1 + i) / ((a0 + b0 + b1 + i) * (1.0 + i))
    m = min(max(math.ceil((a0 * b1 - a0 - b0 - b1) / (b0 + 1.0)), 0), k - 1)
    # log t_0 = sum_{j < a0} log((b0 + j) / (b0 + b1 + j)). A factor with
    # b1 >= b0 + j is taken by log, not log1p(-b1 / (b0 + b1 + j)), which
    # would subtract nearly equal numbers.
    s = b0 + b1 + np.arange(j)
    log_t = np.log1p(-b1 / s)
    if b1 >= b0:
        n = min(math.floor(b1 - b0) + 1, j)
        log_t[:n] = np.log((b0 + np.arange(n)) / s[:n])
    # Each part is up to ~1e4 in size while log t_m is near -600, so one
    # fsum adds them without the cancellation of two rounded partial sums.
    log_peak = math.fsum(np.concatenate((log_t, np.log(r[:m]))).tolist())
    return float(math.exp(log_peak) * (1.0 + np.cumprod(r[m:]).sum() + np.cumprod(1.0 / r[:m][::-1]).sum()))


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


def binary_counts(n, mean, m2):
    """Conversion counts c of one arm's (count, mean, m2) columns, rejecting non-binary data.

    Every entry must match n 0/1 outcomes, mean c/n and m2 c - c^2/n, to within 1e-6 * max(1, n).
    """
    n, mean, m2 = (np.asarray(x, dtype=float) for x in (n, mean, m2))
    s = mean * n
    c = np.round(s)
    tol = 1e-6 * np.maximum(1.0, n)
    m2_binary = c - c * c / np.maximum(n, 1.0)
    if not np.all((np.abs(s - c) <= tol) & (np.abs(m2 - m2_binary) <= tol) & (0 <= c) & (c <= n)):
        raise NonBinaryOutcomeError("expected-loss rule requires binary outcomes")
    return c


def bht_decide(c0, n0, c1, n1, cfg: BhtConfig) -> BhtDecision:
    """Stop once the expected loss of the preferred arm is below epsilon; c = conversions, n = trials per arm."""
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
