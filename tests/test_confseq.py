import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anytime_ab.confseq import (
    ConfSeqParams,
    VarianceGuardError,
    asympcs_ate,
    lift_interval,
    mean_interval,
    msprt_interval,
    msprt_log_lambda,
    radius_beta,
    two_sample_scale,
)
from anytime_ab.moments import StreamingMoments


def binary_state(c0, n0, c1, n1):
    """(arm0, arm1) accumulators of two binary arms with c of n ones each."""

    def arm(c, n):
        return StreamingMoments(count=n, mean=c / n, m2=c - c * c / n)

    return arm(c0, n0), arm(c1, n1)


def arm_columns(arm):
    """One arm's (count, mean, biased variance), as ``mean_interval`` and ``msprt_interval`` take them."""
    return np.float64(arm.count), np.float64(arm.mean), np.float64(arm.m2 / max(arm.count, 1))


def state_columns(states):
    """Kernel columns (n0, n1, mu0, mu1, v0, v1) of a sequence of (arm0, arm1) states; an empty arm has variance 0."""
    n0, mu0, v0 = np.array([arm_columns(arm0) for arm0, _ in states]).reshape(-1, 3).T
    n1, mu1, v1 = np.array([arm_columns(arm1) for _, arm1 in states]).reshape(-1, 3).T
    return n0, n1, mu0, mu1, v0, v1


def one_state(state):
    """Kernel columns (n0, n1, mu0, mu1, v0, v1) of a single (arm0, arm1) state, as numpy scalars."""
    return tuple(column[0] for column in state_columns([state]))


def ate_bounds(state):
    """Lower and upper bounds of the AsympCS interval of one state at level 0.05."""
    center, hw, valid = asympcs_ate(*one_state(state), 0.05, 1e-3)
    assert valid
    return center - hw, center + hw


def arm_bounds(arm):
    """Lower and upper anytime bounds of one arm at level 0.05."""
    mu, hw, _ = mean_interval(*arm_columns(arm), 0.05, 1e-3)
    return mu - hw, mu + hw


def log_lambda(state, theta0=0.0):
    """Two-sample mixture log likelihood ratio of one state, and its validity."""
    return msprt_log_lambda(*two_sample_scale(*one_state(state)), 1e-3, theta0)


class TestRadius:
    def test_golden_value(self):
        # Frozen from a 50-digit mpmath evaluation of the closed form.
        assert radius_beta(1000, 0.05, 1e-3) == pytest.approx(0.1156253581846813333, rel=1e-12)

    def test_monotone_decreasing_in_n_on_grid(self):
        ns = np.unique(np.round(np.geomspace(1, 10**6, 2000)).astype(int))
        vals = radius_beta(ns, 0.05, 1e-3)
        assert np.all(np.diff(vals) < 0)

    def test_monotone_in_alpha(self):
        assert radius_beta(1000, 0.01, 1e-3) > radius_beta(1000, 0.05, 1e-3)

    def test_simple_orderings(self):
        assert radius_beta(2000, 0.05, 1e-3) < radius_beta(1000, 0.05, 1e-3)
        assert radius_beta(1000, 0.05, 1e-3) > 0.0

    @pytest.mark.parametrize("alpha,rho2", [(0.0, 1e-3), (1.0, 1e-3), (0.05, 0.0), (0.05, -1.0)])
    def test_domain_errors(self, alpha, rho2):
        with pytest.raises(ValueError):
            radius_beta(100, alpha, rho2)

    def test_n_below_one_rejected(self):
        with pytest.raises(ValueError):
            radius_beta(0, 0.05, 1e-3)


class TestParams:
    def test_defaults(self):
        p = ConfSeqParams()
        assert p.alpha == 0.05 and p.rho2 == 1e-3

    @pytest.mark.parametrize("alpha", [0.0, 0.6, 1.0])
    def test_alpha_domain(self, alpha):
        with pytest.raises(ValueError):
            ConfSeqParams(alpha=alpha)


class TestAteInterval:
    def test_all_zero_outcomes(self):
        assert ate_bounds(binary_state(0, 50, 0, 50)) == (0.0, 0.0)

    def test_constant_ones_half_width(self):
        lower, upper = ate_bounds(binary_state(50, 50, 50, 50))
        expected = radius_beta(100, 0.05, 1e-3) * math.sqrt(400.0 / 99.0)
        assert upper == pytest.approx(expected, rel=1e-12)
        assert lower == pytest.approx(-expected, rel=1e-12)

    def test_bracket_matches_influence_expansion(self):
        # Oracle: variance of the allocation-weighted influence values,
        # computed directly from each observation on small datasets.
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = rng.integers(4, 21)
            arms = rng.integers(0, 2, size=n)
            if arms.sum() in (0, n):
                continue
            ys = rng.normal(size=n)
            n1 = arms.sum()
            n0 = n - n1
            f = np.where(arms == 1, n / n1 * ys, -n / n0 * ys)
            theta = ys[arms == 1].mean() - ys[arms == 0].mean()
            oracle = np.mean(f**2) - theta**2
            arm0 = StreamingMoments.from_values(ys[arms == 0])
            arm1 = StreamingMoments.from_values(ys[arms == 1])
            _, hw, valid = asympcs_ate(*one_state((arm0, arm1)), 0.05, 1e-3)
            half_width = radius_beta(int(n), 0.05, 1e-3) * math.sqrt(n / (n - 1) * oracle)
            assert valid and hw == pytest.approx(half_width, rel=1e-9, abs=1e-12)

    def test_insufficient_data(self):
        _, hw, valid = asympcs_ate(*one_state((StreamingMoments(), StreamingMoments().update(1.0))), 0.05, 1e-3)
        assert not valid and hw == math.inf

    def test_variance_guard(self):
        corrupt = (
            StreamingMoments(count=10, mean=0.0, m2=-1.0),
            StreamingMoments(count=10, mean=0.0, m2=0.0),
        )
        with pytest.raises(VarianceGuardError):
            asympcs_ate(*one_state(corrupt), 0.05, 1e-3)

    def test_type1_monitored_every_observation(self):
        # 10,000 null Bernoulli(0.1) streams, interval checked at every n.
        reps, horizon, p = 10_000, 3_000, 0.1
        alpha, rho2 = 0.05, 1e-3
        ever = 0
        grid = np.arange(1, horizon + 1, dtype=float)
        radius = radius_beta(grid, alpha, rho2)
        rng = np.random.default_rng(515)
        for _ in range(10):
            batch = 1_000
            arm = rng.integers(0, 2, size=(batch, horizon))
            y = (rng.random((batch, horizon)) < p).astype(np.float64)
            n1 = np.cumsum(arm, axis=1, dtype=np.float64)
            n0 = grid[None, :] - n1
            s1 = np.cumsum(arm * y, axis=1)
            s0 = np.cumsum((1 - arm) * y, axis=1)
            with np.errstate(divide="ignore", invalid="ignore"):
                mu0 = np.where(n0 > 0, s0 / np.maximum(n0, 1), 0.0)
                mu1 = np.where(n1 > 0, s1 / np.maximum(n1, 1), 0.0)
                v0, v1 = mu0 * (1 - mu0), mu1 * (1 - mu1)
                center = mu1 - mu0
                bracket = (
                    grid[None, :] / np.maximum(n0, 1) * (v0 + mu0**2)
                    + grid[None, :] / np.maximum(n1, 1) * (v1 + mu1**2)
                    - center**2
                )
                hw = radius[None, :] * np.sqrt(
                    grid[None, :] / np.maximum(grid[None, :] - 1, 1) * np.maximum(bracket, 0)
                )
            valid = (n0 >= 1) & (n1 >= 1) & (grid[None, :] >= 2)
            ever += int((valid & (np.abs(center) > hw)).any(axis=1).sum())
        frac = ever / reps
        mc_se = math.sqrt(0.05 * 0.95 / reps)
        assert frac <= 0.05 + 3 * mc_se

    def test_deterministic_function_of_state(self):
        state = binary_state(13, 140, 22, 160)
        assert ate_bounds(state) == ate_bounds(state)


class TestMeanInterval:
    def test_constant_stream_degenerate(self):
        arm = StreamingMoments.from_values([3.5] * 20)
        assert arm_bounds(arm) == (3.5, 3.5)

    def test_two_point_half_width(self):
        lower, upper = arm_bounds(StreamingMoments.from_values([0.0, 1.0]))
        assert lower == pytest.approx(0.5 - 0.5 * radius_beta(2, 0.05, 1e-3), rel=1e-12)
        assert upper == pytest.approx(0.5 + 0.5 * radius_beta(2, 0.05, 1e-3), rel=1e-12)

    def test_needs_two_observations(self):
        _, hw, valid = mean_interval(*arm_columns(StreamingMoments().update(1.0)), 0.05, 1e-3)
        assert not valid and hw == math.inf


class TestLiftInterval:
    def test_identical_arms_contains_zero(self):
        lower, upper, valid = lift_interval(*one_state(binary_state(100, 200, 100, 200)), 0.05, 1e-3)
        assert valid and lower < 0.0 < upper

    def test_tiny_n_upper_infinite(self):
        lower, upper, valid = lift_interval(*one_state(binary_state(1, 3, 2, 3)), 0.05, 1e-3)
        assert valid
        assert upper == math.inf
        assert lower == -1.0

    def test_matches_log_exp_construction(self):
        rng = np.random.default_rng(42)
        state = binary_state(
            int(rng.binomial(200, 0.3)), 200, int(rng.binomial(200, 0.35)), 200
        )
        lift_lower, lift_upper, _ = lift_interval(*one_state(state), 0.05, 1e-3)
        l0, u0 = arm_bounds(state[0])
        l1, u1 = arm_bounds(state[1])
        lower = math.exp(math.log(l1) - math.log(u0)) - 1.0
        upper = math.exp(math.log(u1) - math.log(l0)) - 1.0
        assert lift_lower == pytest.approx(lower, rel=1e-12)
        assert lift_upper == pytest.approx(upper, rel=1e-12)

    def test_positive_mean_required(self):
        _, _, valid = lift_interval(*one_state(binary_state(0, 50, 10, 50)), 0.05, 1e-3)
        assert not valid

    def test_contains_point_estimate_when_bounds_clean(self):
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(300):
            n0, n1 = int(rng.integers(50, 400)), int(rng.integers(50, 400))
            c0, c1 = int(rng.binomial(n0, 0.4)), int(rng.binomial(n1, 0.45))
            if min(c0, c1) == 0:
                continue
            arm0, arm1 = state = binary_state(c0, n0, c1, n1)
            l0, _ = arm_bounds(arm0)
            l1, _ = arm_bounds(arm1)
            if l0 <= 0 or l1 <= 0:
                continue
            lower, upper, _ = lift_interval(*one_state(state), 0.05, 1e-3)
            estimate = arm1.mean / arm0.mean - 1.0
            assert lower <= estimate <= upper
            checked += 1
        assert checked > 100


class TestMsprt:
    def test_null_estimate_keeps_p(self):
        state = binary_state(30, 100, 30, 100)
        loglam, valid = log_lambda(state, theta0=0.0)
        lam = math.exp(loglam)
        n = 200.0
        sigma2 = n * 2 * (0.3 * 0.7 / 100.0)
        assert valid
        assert lam == pytest.approx(math.sqrt(sigma2 / (n * 1e-3 + sigma2)), rel=1e-12)
        assert lam < 1.0
        assert min(1.0, 1.0 / lam) == 1.0

    def test_trajectory_matches_direct_formula(self):
        rng = np.random.default_rng(88)
        arm0, arm1 = StreamingMoments(), StreamingMoments()
        rho2 = 1e-3
        for i in range(500):
            arm0 = arm0.update(float(rng.random() < 0.3))
            arm1 = arm1.update(float(rng.random() < 0.35))
            v0, v1 = arm0.m2 / arm0.count, arm1.m2 / arm1.count
            if v0 + v1 == 0.0:
                continue
            loglam, valid = log_lambda((arm0, arm1))
            assert valid
            # Independent re-evaluation from raw counts.
            n = float(arm0.count + arm1.count)
            sigma2 = n * (v0 / arm0.count + v1 / arm1.count)
            theta = arm1.mean - arm0.mean
            expected = math.sqrt(sigma2 / (n * rho2 + sigma2)) * math.exp(
                n * n * rho2 * theta * theta / (2 * sigma2 * (n * rho2 + sigma2))
            )
            assert math.exp(loglam) == pytest.approx(expected, rel=1e-10)

    def test_stopping_rule_equivalence(self):
        # p <= alpha exactly when the running max of lambda reaches 1/alpha,
        # and the interval excludes the null at exactly the same steps.
        rng = np.random.default_rng(5150)
        for _ in range(20):
            arm0, arm1 = StreamingMoments(), StreamingMoments()
            p = 1.0
            max_lam = 0.0
            drift = rng.choice([0.0, 0.05])
            for _ in range(400):
                arm0 = arm0.update(float(rng.random() < 0.3))
                arm1 = arm1.update(float(rng.random() < 0.3 + drift))
                scale = two_sample_scale(*one_state((arm0, arm1)))
                loglam, valid = msprt_log_lambda(*scale, 1e-3)
                if not valid:
                    continue
                lam = math.exp(loglam)
                p = min(p, 1.0 / lam)
                max_lam = max(max_lam, lam)
                assert (p <= 0.05) == (max_lam >= 1.0 / 0.05)
                center, hw, _ = msprt_interval(*scale, 0.05, 1e-3)
                if abs(loglam - math.log(1.0 / 0.05)) > 1e-9:
                    assert (abs(center) > hw) == (lam > 1.0 / 0.05)

    def test_p_process_nonincreasing(self):
        rng = np.random.default_rng(77)
        arm0, arm1 = StreamingMoments(), StreamingMoments()
        states = []
        for _ in range(300):
            arm0 = arm0.update(float(rng.random() < 0.4))
            arm1 = arm1.update(float(rng.random() < 0.5))
            states.append((arm0, arm1))
        loglam, valid = msprt_log_lambda(*two_sample_scale(*state_columns(states)), 1e-3)
        p = np.minimum.accumulate(np.where(valid, np.exp(-loglam), 1.0))
        assert valid.sum() > 250
        assert np.all((p > 0.0) & (p <= 1.0))
        assert np.all(np.diff(p) <= 0.0)

    def test_zero_variance_invalid(self):
        loglam, valid = log_lambda(binary_state(0, 10, 0, 10))
        assert not valid and loglam == -math.inf
        _, hw, valid = msprt_interval(*two_sample_scale(*one_state(binary_state(0, 10, 0, 10))), 0.05, 1e-3)
        assert not valid and hw == math.inf

    def test_one_sample_interval(self):
        arm = StreamingMoments.from_values([0.0, 1.0, 1.0, 0.0, 1.0])
        center, hw, valid = msprt_interval(*arm_columns(arm), 0.05, 1e-3)
        assert valid
        assert center - hw < arm.mean < center + hw


counts = st.integers(min_value=2, max_value=500)


@given(counts, counts, st.data())
@settings(max_examples=200, deadline=None)
def test_ate_interval_symmetric_under_arm_swap(n0, n1, data):
    c0 = data.draw(st.integers(min_value=0, max_value=n0))
    c1 = data.draw(st.integers(min_value=0, max_value=n1))
    lower, upper = ate_bounds(binary_state(c0, n0, c1, n1))
    swapped_lower, swapped_upper = ate_bounds(binary_state(c1, n1, c0, n0))
    assert lower == pytest.approx(-swapped_upper, rel=1e-12, abs=1e-12)
    assert upper == pytest.approx(-swapped_lower, rel=1e-12, abs=1e-12)
