import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anytime_ab.confseq import (
    ConfSeqParams,
    InsufficientDataError,
    Interval,
    TwoArmState,
    VarianceGuardError,
    ZeroVarianceError,
    arm_bounds,
    asympcs_ate,
    asympcs_lift,
    asympcs_mean,
    msprt_cs,
    msprt_cs_mean,
    msprt_lambda,
    msprt_p_step,
    radius_beta,
)
from anytime_ab.moments import StreamingMoments

PARAMS = ConfSeqParams(0.05, 1e-3)


def binary_state(c0, n0, c1, n1):
    def arm(c, n):
        return StreamingMoments(count=n, mean=c / n, m2=c - c * c / n)

    return TwoArmState(arm(c0, n0), arm(c1, n1))


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
        state = binary_state(0, 50, 0, 50)
        iv = asympcs_ate(state, PARAMS)
        assert iv.lower == 0.0 and iv.upper == 0.0

    def test_constant_ones_half_width(self):
        state = binary_state(50, 50, 50, 50)
        iv = asympcs_ate(state, PARAMS)
        expected = radius_beta(100, 0.05, 1e-3) * math.sqrt(400.0 / 99.0)
        assert iv.upper == pytest.approx(expected, rel=1e-12)
        assert iv.lower == pytest.approx(-expected, rel=1e-12)

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
            iv = asympcs_ate(TwoArmState(arm0, arm1), PARAMS)
            half_width = radius_beta(int(n), 0.05, 1e-3) * math.sqrt(n / (n - 1) * oracle)
            assert iv.width / 2 == pytest.approx(half_width, rel=1e-9, abs=1e-12)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            asympcs_ate(TwoArmState(StreamingMoments(), StreamingMoments().update(1.0)), PARAMS)

    def test_variance_guard(self):
        corrupt = TwoArmState(
            StreamingMoments(count=10, mean=0.0, m2=-1.0),
            StreamingMoments(count=10, mean=0.0, m2=0.0),
        )
        with pytest.raises(VarianceGuardError):
            asympcs_ate(corrupt, PARAMS)

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
        a = asympcs_ate(state, PARAMS)
        b = asympcs_ate(state, PARAMS)
        assert (a.lower, a.upper) == (b.lower, b.upper)


class TestMeanInterval:
    def test_constant_stream_degenerate(self):
        arm = StreamingMoments.from_values([3.5] * 20)
        iv = asympcs_mean(arm, PARAMS)
        assert iv.lower == 3.5 and iv.upper == 3.5

    def test_two_point_half_width(self):
        arm = StreamingMoments.from_values([0.0, 1.0])
        iv = asympcs_mean(arm, PARAMS)
        assert iv.lower == pytest.approx(0.5 - 0.5 * radius_beta(2, 0.05, 1e-3), rel=1e-12)
        assert iv.upper == pytest.approx(0.5 + 0.5 * radius_beta(2, 0.05, 1e-3), rel=1e-12)

    def test_needs_two_observations(self):
        with pytest.raises(InsufficientDataError):
            asympcs_mean(StreamingMoments().update(1.0), PARAMS)


class TestLiftInterval:
    def test_identical_arms_contains_zero(self):
        state = binary_state(100, 200, 100, 200)
        iv = asympcs_lift(state, PARAMS)
        assert iv.lower < 0.0 < iv.upper

    def test_tiny_n_upper_infinite(self):
        state = binary_state(1, 3, 2, 3)
        iv = asympcs_lift(state, PARAMS)
        assert iv.upper == math.inf
        assert iv.lower == -1.0

    def test_matches_log_exp_construction(self):
        rng = np.random.default_rng(42)
        state = binary_state(
            int(rng.binomial(200, 0.3)), 200, int(rng.binomial(200, 0.35)), 200
        )
        iv = asympcs_lift(state, PARAMS)
        l0, u0 = arm_bounds(state.arm0, 0.05, 1e-3)
        l1, u1 = arm_bounds(state.arm1, 0.05, 1e-3)
        lower = math.exp(math.log(l1) - math.log(u0)) - 1.0
        upper = math.exp(math.log(u1) - math.log(l0)) - 1.0
        assert iv.lower == pytest.approx(lower, rel=1e-12)
        assert iv.upper == pytest.approx(upper, rel=1e-12)

    def test_positive_mean_required(self):
        with pytest.raises(ValueError):
            asympcs_lift(binary_state(0, 50, 10, 50), PARAMS)

    def test_contains_point_estimate_when_bounds_clean(self):
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(300):
            n0, n1 = int(rng.integers(50, 400)), int(rng.integers(50, 400))
            c0, c1 = int(rng.binomial(n0, 0.4)), int(rng.binomial(n1, 0.45))
            if min(c0, c1) == 0:
                continue
            state = binary_state(c0, n0, c1, n1)
            l0, _ = arm_bounds(state.arm0, 0.05, 1e-3)
            l1, _ = arm_bounds(state.arm1, 0.05, 1e-3)
            if l0 <= 0 or l1 <= 0:
                continue
            iv = asympcs_lift(state, PARAMS)
            estimate = state.arm1.mean / state.arm0.mean - 1.0
            assert iv.lower <= estimate <= iv.upper
            checked += 1
        assert checked > 100


class TestMsprt:
    def test_null_estimate_keeps_p(self):
        state = binary_state(30, 100, 30, 100)
        lam = msprt_lambda(state, PARAMS, theta0=0.0)
        n = 200.0
        sigma2 = n * 2 * (0.3 * 0.7 / 100.0)
        assert lam == pytest.approx(math.sqrt(sigma2 / (n * 1e-3 + sigma2)), rel=1e-12)
        assert lam < 1.0
        assert msprt_p_step(1.0, state, PARAMS) == 1.0

    def test_trajectory_matches_direct_formula(self):
        rng = np.random.default_rng(88)
        arm0, arm1 = StreamingMoments(), StreamingMoments()
        rho2 = 1e-3
        for i in range(500):
            arm0 = arm0.update(float(rng.random() < 0.3))
            arm1 = arm1.update(float(rng.random() < 0.35))
            state = TwoArmState(arm0, arm1)
            if state.arm0.biased_variance + state.arm1.biased_variance == 0.0:
                continue
            lam = msprt_lambda(state, PARAMS)
            # Independent re-evaluation from raw counts.
            n = float(state.n)
            v0, v1 = arm0.biased_variance, arm1.biased_variance
            sigma2 = n * (v0 / arm0.count + v1 / arm1.count)
            theta = arm1.mean - arm0.mean
            expected = math.sqrt(sigma2 / (n * rho2 + sigma2)) * math.exp(
                n * n * rho2 * theta * theta / (2 * sigma2 * (n * rho2 + sigma2))
            )
            assert lam == pytest.approx(expected, rel=1e-10)

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
                state = TwoArmState(arm0, arm1)
                try:
                    lam = msprt_lambda(state, PARAMS)
                except (InsufficientDataError, ZeroVarianceError):
                    continue
                p = msprt_p_step(p, state, PARAMS)
                max_lam = max(max_lam, lam)
                assert (p <= 0.05) == (max_lam >= 1.0 / 0.05)
                iv = msprt_cs(state, PARAMS)
                if abs(math.log(lam) - math.log(1.0 / 0.05)) > 1e-9:
                    assert iv.excludes(0.0) == (lam > 1.0 / 0.05)

    def test_p_process_nonincreasing(self):
        rng = np.random.default_rng(77)
        arm0, arm1 = StreamingMoments(), StreamingMoments()
        p_prev = 1.0
        for _ in range(300):
            arm0 = arm0.update(float(rng.random() < 0.4))
            arm1 = arm1.update(float(rng.random() < 0.5))
            state = TwoArmState(arm0, arm1)
            if arm0.biased_variance + arm1.biased_variance == 0.0:
                continue
            p_next = msprt_p_step(p_prev, state, PARAMS)
            assert p_next <= p_prev
            p_prev = p_next

    def test_zero_variance_error(self):
        with pytest.raises(ZeroVarianceError):
            msprt_lambda(binary_state(0, 10, 0, 10), PARAMS)

    def test_prev_p_domain(self):
        state = binary_state(3, 10, 4, 10)
        with pytest.raises(ValueError):
            msprt_p_step(0.0, state, PARAMS)
        with pytest.raises(ValueError):
            msprt_p_step(1.5, state, PARAMS)

    def test_one_sample_interval(self):
        arm = StreamingMoments.from_values([0.0, 1.0, 1.0, 0.0, 1.0])
        iv = msprt_cs_mean(arm, PARAMS)
        assert iv.lower < arm.mean < iv.upper


class TestInterval:
    def test_contains_and_excludes(self):
        iv = Interval(-1.0, 2.0)
        assert iv.contains(0.0) and iv.contains(-1.0) and iv.contains(2.0)
        assert iv.excludes(2.1)
        assert iv.width == 3.0

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            Interval(1.0, 0.0)

    def test_infinite_bounds_allowed(self):
        iv = Interval(-1.0, math.inf)
        assert iv.contains(1e12)


counts = st.integers(min_value=2, max_value=500)


@given(counts, counts, st.data())
@settings(max_examples=200, deadline=None)
def test_ate_interval_symmetric_under_arm_swap(n0, n1, data):
    c0 = data.draw(st.integers(min_value=0, max_value=n0))
    c1 = data.draw(st.integers(min_value=0, max_value=n1))
    forward = asympcs_ate(binary_state(c0, n0, c1, n1), PARAMS)
    swapped = asympcs_ate(binary_state(c1, n1, c0, n0), PARAMS)
    assert forward.lower == pytest.approx(-swapped.upper, rel=1e-12, abs=1e-12)
    assert forward.upper == pytest.approx(-swapped.lower, rel=1e-12, abs=1e-12)
