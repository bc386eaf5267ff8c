import math
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from anytime_ab.bayes import (
    BackendError,
    BetaPosterior,
    BfConfig,
    BhtConfig,
    NonBinaryOutcomeError,
    beta_prob_greater,
    bht_decide,
    binary_counts,
    log_bayes_factor,
    two_arm_expected_loss,
)
from anytime_ab.simlab.methods import bht_single_losses
from test_moments import EMPTY, fold


@mp.workdps(40)
def mp_prob_greater_terms(a1, b1, a0, b0):
    """P(X > Y) as the sum of its a1 Beta-function terms, each evaluated on its own in 40-digit mpmath."""
    a1, b1, a0, b0 = (mp.mpf(x) for x in (a1, b1, a0, b0))
    return mp.fsum(
        mp.beta(a0 + i, b0 + b1) / ((b1 + i) * mp.beta(1 + i, b1) * mp.beta(a0, b0)) for i in range(int(a1))
    )


@mp.workdps(40)
def mp_prob_greater(a1, b1, a0, b0):
    """The same sum in 40-digit mpmath from t_0 = B(a0, b0 + b1) / B(a0, b0), one term ratio at a time."""
    a1, b1, a0, b0 = (mp.mpf(x) for x in (a1, b1, a0, b0))
    term, total = mp.beta(a0, b0 + b1) / mp.beta(a0, b0), mp.mpf(0)
    for i in range(int(a1)):
        total += term
        term *= (a0 + i) * (b1 + i) / ((a0 + b0 + b1 + i) * (1 + i))
    return total


@mp.workdps(40)
def mp_expected_loss(post0, post1, choice):
    """E[max(other - chosen, 0)] in 40-digit mpmath, by the same two tail probabilities as the exact backend."""
    lo, hi = (post0, post1) if choice == "arm0" else (post1, post0)
    lo_a, lo_b, hi_a, hi_b = (mp.mpf(x) for x in (lo.a, lo.b, hi.a, hi.b))
    hi_part = hi_a / (hi_a + hi_b) * mp_prob_greater(hi_a + 1, hi_b, lo_a, lo_b)
    lo_part = lo_a / (lo_a + lo_b) * mp_prob_greater(hi_a, hi_b, lo_a + 1, lo_b)
    return hi_part - lo_part


class TestPosterior:
    def test_update_is_conjugate(self):
        post = BetaPosterior(1.0, 1.0).update(3, 10)
        assert (post.a, post.b) == (4.0, 8.0)

    def test_streaming_equals_batch(self):
        rng = np.random.default_rng(4)
        xs = rng.random(200) < 0.3
        streamed = BetaPosterior(2.0, 5.0)
        for x in xs:
            streamed = streamed.update(int(x), 1)
        batch = BetaPosterior(2.0, 5.0).update(int(xs.sum()), len(xs))
        assert streamed == batch

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            BetaPosterior(0.0, 1.0)
        with pytest.raises(ValueError):
            BetaPosterior(1.0, 1.0).update(5, 3)


class TestSingleArmLoss:
    """``bht_single_losses`` with no data evaluates the Beta(a, b) prior itself."""

    def test_zero_baseline_below_is_zero(self):
        assert bht_single_losses(0.0, 0.0, 3.0, 4.0, 0.0)[0] == 0.0

    def test_difference_identity(self):
        theta0 = 0.4
        below, above = bht_single_losses(0.0, 0.0, 13.0, 29.0, theta0)
        assert below - above == pytest.approx(theta0 - BetaPosterior(13.0, 29.0).mean, abs=1e-12)

    def test_closed_form_matches_quadrature(self):
        theta0 = 0.35
        val, above = bht_single_losses(0.0, 0.0, 30.0, 70.0, theta0)
        # Frozen from a 50-digit evaluation: 0.053457262912666901.
        assert val == pytest.approx(0.053457262912666901, abs=1e-12)
        oracle, _ = integrate.quad(
            lambda t: (theta0 - t) * stats.beta.pdf(t, 30, 70), 0.0, theta0, epsabs=1e-12
        )
        assert val == pytest.approx(oracle, abs=1e-8)
        oracle_above, _ = integrate.quad(
            lambda t: (t - theta0) * stats.beta.pdf(t, 30, 70), theta0, 1.0, epsabs=1e-12
        )
        assert above == pytest.approx(oracle_above, abs=1e-8)

    @given(
        st.floats(min_value=0.5, max_value=80.0),
        st.floats(min_value=0.5, max_value=80.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_nonnegative(self, a, b, theta0):
        below, above = bht_single_losses(0.0, 0.0, a, b, theta0)
        assert below >= 0.0
        assert above >= 0.0


# Inputs of beta_prob_greater by the sum that takes them: the window of
# terms around the mode of N ~ BNB(b1, b0, a0), or the anchored sum of all
# a1 terms where no window shorter than that sum is certified.
WINDOWED = [
    (2601, 22401, 2501, 22501),  # bench scale, a1 inside the window
    (1775, 22401, 2501, 22501),  # a1 just inside its lower edge: the window widens left
    (1760, 22401, 2501, 22501),  # a1 left of it, P = 3.2e-27: the window widens left
    (2000, 900, 400, 600),  # a1 right of it: P rounds to 1
    (1, 1.0, 50, 500.0),  # mode at 0
    (2000, 2.0, 1, 8.0),  # a heavy tail: the right side doubles five times; P rounds to 1
]
ANCHORED = [
    (30, 40.0, 20, 3.0),  # b0 <= 3: a heavy tail
    (1, 15853, 4, 1),  # b1 >> b0: log1p(-b1 / (b0 + b1 + j)) alone is off by 1e-11
    (50, 100, 60, 3.01),  # b0 just above 3: the window would outgrow the sum
    (600, 2.0, 1, 3.5),  # b0 above 3: the right tail bound fails until the window outgrows the sum
    (100, 900, 400, 600),  # a1 left of the window, which would outgrow the sum to reach it; P = 2.1e-57
    (50, 20000, 40, 500),  # a1 far left of a distant mode; P = 1.3e-39
]


class TestProbGreater:
    def test_symmetric_half(self):
        assert beta_prob_greater(5, 7, 5, 7) == pytest.approx(0.5, abs=1e-12)

    def test_matches_quadrature(self):
        val = beta_prob_greater(21, 81, 11, 91)
        oracle, _ = integrate.dblquad(
            lambda y, x: stats.beta.pdf(x, 21, 81) * stats.beta.pdf(y, 11, 91),
            0.0,
            1.0,
            0.0,
            lambda x: x,
            epsabs=1e-11,
        )
        assert val == pytest.approx(oracle, abs=1e-8)

    def test_integer_required(self):
        with pytest.raises(BackendError):
            beta_prob_greater(2.5, 1.0, 1.0, 1.0)
        with pytest.raises(BackendError):
            beta_prob_greater(3.0, 1.0, 2.5, 1.0)
        with pytest.raises(BackendError):
            beta_prob_greater(3.0, 1.0, 0.0, 1.0)

    @given(
        st.integers(1, 60),
        st.one_of(st.integers(1, 60), st.floats(0.1, 60.0, exclude_min=True)),
        st.integers(1, 60),
        st.one_of(st.integers(1, 60), st.floats(0.1, 60.0, exclude_min=True)),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_mpmath_terms(self, a1, b1, a0, b0):
        expected = float(mp_prob_greater_terms(a1, b1, a0, b0))
        assert beta_prob_greater(a1, b1, a0, b0) == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "a1, b1, a0, b0",
        [
            (1, 7.0, 4, 2.0),  # k = 1: the single term t_0
            (40, 3.0, 1, 50.0),  # peak at the first term
            (6, 50.0, 50, 1.0),  # peak at the last term
            (2, 0.2, 60, 0.3),  # one ratio, below one
            *WINDOWED,
            *ANCHORED,
        ],
    )
    def test_single_term_and_end_peaks(self, a1, b1, a0, b0):
        expected = float(mp_prob_greater_terms(a1, b1, a0, b0))
        assert beta_prob_greater(a1, b1, a0, b0) == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "args, anchored",
        [(a, False) for a in WINDOWED] + [(a, True) for a in ANCHORED],
        ids=["-".join(map(str, a)) for a in WINDOWED + ANCHORED],
    )
    def test_anchored_sum_only_where_the_window_cannot_certify(self, monkeypatch, args, anchored):
        # Only the anchored sum takes a log1p.
        calls, log1p = [], np.log1p
        monkeypatch.setattr(np, "log1p", lambda x: calls.append(x) or log1p(x))
        beta_prob_greater(*args)
        assert bool(calls) == anchored

    @given(st.integers(1, 6000), st.integers(1, 50000), st.integers(1, 6000), st.integers(1, 50000))
    @settings(max_examples=25, deadline=None)
    @example(6000, 37578, 4283, 12093)
    @example(4921, 45464.81, 4375, 18198)
    def test_bench_scale_integers_match_mpmath(self, a1, b1, a0, b0):
        # A subnormal P cannot hold 1e-12 relative precision, hence abs.
        # The examples take the anchored sum with log t_m near -600 from
        # parts of ~1e4, which two rounded partial sums put off by 1.1e-12.
        expected = float(mp_prob_greater(a1, b1, a0, b0))
        assert beta_prob_greater(a1, b1, a0, b0) == pytest.approx(expected, rel=1e-12, abs=sys.float_info.min)


class TestTwoArmLoss:
    def test_identical_posteriors_symmetric(self):
        post = BetaPosterior(12.0, 34.0)
        l0 = two_arm_expected_loss(post, post, "arm0", backend="exact")
        l1 = two_arm_expected_loss(post, post, "arm1", backend="exact")
        assert l0 == pytest.approx(l1, rel=1e-12)

    def test_linearity_identity_exact(self):
        post0 = BetaPosterior(11.0, 91.0)
        post1 = BetaPosterior(21.0, 81.0)
        l0 = two_arm_expected_loss(post0, post1, "arm0", backend="exact")
        l1 = two_arm_expected_loss(post0, post1, "arm1", backend="exact")
        assert l0 - l1 == pytest.approx(post1.mean - post0.mean, abs=1e-12)

    def test_exact_matches_quadrature(self):
        post0 = BetaPosterior(11.0, 91.0)
        post1 = BetaPosterior(21.0, 81.0)
        val = two_arm_expected_loss(post0, post1, "arm0", backend="exact")
        oracle, _ = integrate.dblquad(
            lambda t1, t0: max(t1 - t0, 0.0)
            * stats.beta.pdf(t0, 11, 91)
            * stats.beta.pdf(t1, 21, 81),
            0.0,
            1.0,
            0.0,
            1.0,
            epsabs=1e-11,
        )
        assert val == pytest.approx(oracle, abs=1e-9)

    @pytest.mark.parametrize(
        "counts0, counts1",
        [
            ((2500, 25000), (2760, 25100)),
            ((5000, 50000), (5500, 50000)),
            ((2500, 25000), (2594, 25000)),  # a loss near epsilon = 1e-4
        ],
    )
    def test_bench_scale_matches_mpmath(self, counts0, counts1):
        post0, post1 = (BetaPosterior(1.0, 1.0).update(*c) for c in (counts0, counts1))
        for choice in ("arm0", "arm1"):
            expected = float(mp_expected_loss(post0, post1, choice))
            assert two_arm_expected_loss(post0, post1, choice) == pytest.approx(expected, rel=1e-9, abs=0.0)

    def test_exact_is_the_only_backend(self):
        post = BetaPosterior(3.0, 9.0)
        assert two_arm_expected_loss(post, post, "arm0") == two_arm_expected_loss(post, post, "arm0", backend="exact")
        for backend in ("qmc", "quadrature"):
            with pytest.raises(ValueError):
                two_arm_expected_loss(post, post, "arm0", backend=backend)

    def test_exact_backend_integer_guard(self):
        with pytest.raises(BackendError):
            two_arm_expected_loss(
                BetaPosterior(1.5, 1.0), BetaPosterior(1.0, 1.0), "arm0", backend="exact"
            )

    def test_choice_validation(self):
        with pytest.raises(ValueError):
            two_arm_expected_loss(BetaPosterior(1, 1), BetaPosterior(1, 1), "armX")


class TestBhtDecide:
    def test_no_data_no_stop(self):
        decision = bht_decide(0, 1, 0, 1, BhtConfig())
        assert not decision.stopped
        assert decision.loss_arm0 == pytest.approx(decision.loss_arm1, rel=1e-9)

    def test_overwhelming_data_stops_on_better_arm(self):
        decision = bht_decide(10_000, 100_000, 20_000, 100_000, BhtConfig())
        assert decision.stopped and decision.chosen_arm == 1

    def test_non_binary_rejected(self):
        # One non-binary entry anywhere in a column rejects the column.
        arm0 = fold([0.3, 0.7, 0.5])
        arm1 = fold([1.0, 0.0])
        with pytest.raises(NonBinaryOutcomeError):
            binary_counts(*zip(arm1, arm0))

    def test_binary_counts_recovery(self):
        values0 = [1.0, 0.0, 0.0, 1.0, 1.0]
        values1 = [0.0, 0.0, 1.0]
        arms = [EMPTY, fold(values0), fold(values1)]
        counts = binary_counts(*zip(*arms))
        assert counts.tolist() == [0, 3, 1]


class TestBayesFactor:
    def test_no_evidence_is_one(self):
        assert math.exp(log_bayes_factor(0, 0, 0, 0, BfConfig())) == pytest.approx(1.0, abs=1e-15)

    def test_hand_value(self):
        # B(1,2) B(2,1) / (B(1,1) B(2,2)) = (1/2)(1/2) / (1/6) = 1.5
        assert math.exp(log_bayes_factor(0, 1, 1, 1, BfConfig())) == pytest.approx(1.5, abs=1e-12)

    def test_symmetric_under_arm_swap(self):
        cfg = BfConfig()
        assert log_bayes_factor(3, 20, 9, 25, cfg) == pytest.approx(
            log_bayes_factor(9, 25, 3, 20, cfg), rel=1e-12
        )

    def test_count_domain(self):
        with pytest.raises(ValueError):
            log_bayes_factor(5, 3, 0, 0, BfConfig())
        with pytest.raises(ValueError):
            log_bayes_factor(-1, 3, 0, 0, BfConfig())

    def test_strictly_positive_large_counts(self):
        val = log_bayes_factor(9_000, 100_000, 9_500, 100_000, BfConfig())
        assert math.isfinite(val)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BfConfig(odds_threshold=1.0)
        with pytest.raises(ValueError):
            BhtConfig(epsilon=0.0)
