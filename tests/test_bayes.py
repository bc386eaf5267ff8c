import math

import numpy as np
import pytest
from hypothesis import given, settings
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
from anytime_ab.moments import StreamingMoments
from anytime_ab.simlab.methods import bht_single_losses


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
        arm0 = StreamingMoments.from_values([0.3, 0.7, 0.5])
        arm1 = StreamingMoments.from_values([1.0, 0.0])
        with pytest.raises(NonBinaryOutcomeError):
            binary_counts([arm1.count, arm0.count], [arm1.mean, arm0.mean], [arm1.m2, arm0.m2])

    def test_binary_counts_recovery(self):
        values0 = [1.0, 0.0, 0.0, 1.0, 1.0]
        values1 = [0.0, 0.0, 1.0]
        arms = [StreamingMoments(), StreamingMoments.from_values(values0), StreamingMoments.from_values(values1)]
        counts = binary_counts([a.count for a in arms], [a.mean for a in arms], [a.m2 for a in arms])
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
