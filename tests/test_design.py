import math

import numpy as np
import pytest

from anytime_ab.confseq import ConfSeqParams, radius_beta
from anytime_ab.design import (
    DesignSpec,
    fixed_horizon_sample_size,
    hypothesized_sample_size,
    variance_guess_binary,
)
from test_simlab import cumulative_counts

PARAMS = ConfSeqParams(0.05, 1e-3)


class TestVarianceGuess:
    def test_symmetric_null(self):
        assert variance_guess_binary(0.5, 0.0) == pytest.approx(2.0, abs=1e-15)

    def test_reference_case(self):
        # 2(0.09 + 0.01) + 2(0.0979 + 0.0121) - 0.0001, by hand.
        assert variance_guess_binary(0.1, 0.01) == pytest.approx(0.4199, abs=1e-12)

    def test_arm_relabel_invariance(self):
        assert variance_guess_binary(0.1, 0.01) == pytest.approx(
            variance_guess_binary(0.11, -0.01), abs=1e-12
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            variance_guess_binary(0.99, 0.05)


class TestFixedHorizon:
    def test_reference_case(self):
        # ceil((z_.975 + z_.8)^2 (0.09 + 0.0979) / 1e-4), frozen.
        assert fixed_horizon_sample_size(0.1, 0.01, 0.05, 0.8) == 14_749

    def test_inverse_square_scaling(self):
        n1 = fixed_horizon_sample_size(0.1, 0.01, 0.05, 0.8)
        n2 = fixed_horizon_sample_size(0.1, 0.02, 0.05, 0.8)
        assert n1 / n2 == pytest.approx(4.0, rel=0.05)

    def test_empirical_power(self):
        # Single-peek z test at the computed n hits the nominal power.
        n = fixed_horizon_sample_size(0.1, 0.01, 0.05, 0.8)
        rng = np.random.default_rng(1001)
        reps = 10_000
        s0 = rng.binomial(n, 0.10, size=reps)
        s1 = rng.binomial(n, 0.11, size=reps)
        p0, p1 = s0 / n, s1 / n
        se = np.sqrt(p0 * (1 - p0) / n + p1 * (1 - p1) / n)
        z = (p1 - p0) / se
        power = (np.abs(z) > 1.959963984540054).mean()
        assert power == pytest.approx(0.80, abs=0.02)

    def test_domain(self):
        with pytest.raises(ValueError):
            fixed_horizon_sample_size(0.1, 0.0, 0.05, 0.8)
        with pytest.raises(ValueError):
            fixed_horizon_sample_size(0.1, 0.95, 0.05, 0.8)


class TestHypothesizedSampleSize:
    def test_crossing_is_exact(self):
        spec = DesignSpec(theta_h1=0.01, sigma2_guess=variance_guess_binary(0.1, 0.01))
        n_star = hypothesized_sample_size(spec, PARAMS)
        assert n_star is not None
        s = math.sqrt(spec.sigma2_guess)

        def margin(n):
            return abs(spec.theta_h1) - s * (radius_beta(n, 0.2, 1e-3) + radius_beta(n, 0.05, 1e-3))

        assert margin(n_star) >= 0.0
        assert margin(n_star - 1) < 0.0

    def test_larger_effect_never_needs_more(self):
        base = None
        for mde in (0.01, 0.02, 0.04, 0.08):
            spec = DesignSpec(theta_h1=mde, sigma2_guess=variance_guess_binary(0.1, mde))
            n = hypothesized_sample_size(spec, PARAMS)
            if base is not None:
                assert n <= base
            base = n

    def test_doubling_effect_with_fixed_variance(self):
        sigma2 = variance_guess_binary(0.1, 0.01)
        n1 = hypothesized_sample_size(DesignSpec(theta_h1=0.01, sigma2_guess=sigma2), PARAMS)
        n2 = hypothesized_sample_size(DesignSpec(theta_h1=0.02, sigma2_guess=sigma2), PARAMS)
        assert n2 <= n1

    def test_infeasible_within_cap(self):
        spec = DesignSpec(theta_h1=1e-7, sigma2_guess=0.42, population_cap=10_000)
        assert hypothesized_sample_size(spec, PARAMS) is None

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            DesignSpec(theta_h1=0.0, sigma2_guess=1.0)
        with pytest.raises(ValueError):
            DesignSpec(theta_h1=0.01, sigma2_guess=0.0)
        with pytest.raises(ValueError):
            DesignSpec(theta_h1=0.01, sigma2_guess=1.0, alpha=0.8, power=0.8)

    def test_rejection_frequency_at_n_star(self):
        # Smaller-scale version of the full-grid acceptance check.
        mde, p0 = 0.02, 0.1
        spec = DesignSpec(theta_h1=mde, sigma2_guess=variance_guess_binary(p0, mde))
        n_star = hypothesized_sample_size(spec, PARAMS)
        reps = 2_000
        step = max(1, n_star // 400)
        grid = np.arange(step, n_star + 1, step, dtype=np.int64)
        from anytime_ab.simlab import methods, streams

        counts = cumulative_counts(streams.two_arm_count_matrices(77, reps, grid, p0, p0 + mde), grid)
        reject = methods.ate_reject(*counts, 0.05, 1e-3)
        frac = reject.any(axis=1).mean()
        assert frac >= 0.78
