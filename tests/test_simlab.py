import math

import numpy as np
import pytest

from anytime_ab.bayes import BfConfig, BhtConfig
from anytime_ab.confseq import (
    ConfSeqParams,
    asympcs_ate,
    lift_interval,
    mean_interval,
    msprt_interval,
    msprt_log_lambda,
    two_sample_scale,
)
from anytime_ab.gst import compute_boundaries
from anytime_ab.moments import StreamingMoments
from anytime_ab.simlab import (
    SimReport,
    SimStudyConfig,
    methods,
    run_lift_power_study,
    run_mde_misspec_study,
    run_power_study,
    run_rho2_sweep,
    run_stop_quality_study,
    run_type1_study,
    streams,
    studies,
)

PARAMS = ConfSeqParams(0.05, 1e-3)


def welford_arm(rng, s, n):
    """Welford moments of a shuffled stream of s ones and n - s zeros."""
    values = np.zeros(int(n))
    values[: int(s)] = 1.0
    return StreamingMoments.from_values(rng.permutation(values))


def welford_summaries(rng, n0, n1, s0, s1):
    """Kernel columns (n0, n1, mu0, mu1, v0, v1) of each row's two Welford-updated arms."""
    rows = []
    for i in range(len(n0)):
        a0, a1 = welford_arm(rng, s0[i], n0[i]), welford_arm(rng, s1[i], n1[i])
        rows.append((a0.count, a1.count, a0.mean, a1.mean, a0.m2 / max(a0.count, 1), a1.m2 / max(a1.count, 1)))
    return tuple(np.array(rows, dtype=float).reshape(-1, 6).T)


def random_counts(rng, size):
    n0 = rng.integers(2, 400, size=size).astype(float)
    n1 = rng.integers(2, 400, size=size).astype(float)
    s0 = rng.binomial(n0.astype(int), 0.3).astype(float)
    s1 = rng.binomial(n1.astype(int), 0.35).astype(float)
    return n0, n1, s0, s1


class TestStreams:
    def test_replication_streams_are_chunk_invariant(self):
        grid = np.arange(50, 1001, 50)
        full = streams.two_arm_count_matrices(9, 20, grid, 0.1, 0.12)
        # Regenerating any single replication reproduces its row exactly.
        for r in (0, 7, 19):
            single = streams.two_arm_count_matrices(9, r + 1, grid, 0.1, 0.12)
            for a, b in zip(full, single):
                np.testing.assert_array_equal(a[r], b[r])

    def test_streams_method_independent(self):
        grid = np.arange(100, 2001, 100)
        a = streams.two_arm_count_matrices(3, 10, grid, 0.1, 0.1)
        b = streams.two_arm_count_matrices(3, 10, grid, 0.1, 0.1)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_counts_are_consistent(self):
        grid = np.arange(100, 5001, 100)
        n0, n1, s0, s1 = streams.two_arm_count_matrices(5, 50, grid, 0.2, 0.25)
        assert np.all(n0 + n1 == grid[None, :])
        assert np.all(s0 <= n0) and np.all(s1 <= n1)
        assert np.all(np.diff(s0, axis=1) >= 0) and np.all(np.diff(s1, axis=1) >= 0)

    def test_single_arm_counts(self):
        grid = np.unique(np.round(np.geomspace(10, 10_000, 50)).astype(np.int64))
        theta, s = streams.single_arm_count_matrices(5, 30, grid, truth_prior=(100, 100))
        assert theta.shape == (30,) and s.shape == (30, grid.size)
        assert np.all((theta > 0) & (theta < 1))
        assert np.all(s <= grid[None, :])


class TestVectorizedAgainstScalar:
    """Bernoulli count summaries and Welford moments must give the same rule values.

    Both paths call the same kernel; what differs is how per-arm means
    and variances are formed, from counts by ``bernoulli_summaries`` and
    from Welford (count, mean, m2) moments as ``engine.analyze_snapshots``
    forms them from snapshot rows.
    """

    def test_ate(self):
        rng = np.random.default_rng(21)
        n0, n1, s0, s1 = random_counts(rng, 300)
        center, hw, valid = asympcs_ate(*methods.bernoulli_summaries(n0, n1, s0, s1), 0.05, 1e-3)
        w_center, w_hw, w_valid = asympcs_ate(*welford_summaries(rng, n0, n1, s0, s1), 0.05, 1e-3)
        assert valid.all() and w_valid.all()
        np.testing.assert_allclose(center - hw, w_center - w_hw, rtol=1e-11, atol=1e-12)
        np.testing.assert_allclose(center + hw, w_center + w_hw, rtol=1e-11, atol=1e-12)

    def test_lift(self):
        rng = np.random.default_rng(22)
        n0, n1, s0, s1 = random_counts(rng, 300)
        lower, upper, valid = lift_interval(*methods.bernoulli_summaries(n0, n1, s0, s1), 0.05, 1e-3)
        w_lower, w_upper, w_valid = lift_interval(*welford_summaries(rng, n0, n1, s0, s1), 0.05, 1e-3)
        np.testing.assert_array_equal(valid, w_valid)
        np.testing.assert_allclose(lower[valid], w_lower[valid], rtol=1e-11, atol=1e-12)
        np.testing.assert_array_equal(np.isinf(upper[valid]), np.isinf(w_upper[valid]))
        finite = valid & np.isfinite(upper)
        np.testing.assert_allclose(upper[finite], w_upper[finite], rtol=1e-11, atol=1e-12)

    def test_msprt(self):
        rng = np.random.default_rng(23)
        n0, n1, s0, s1 = random_counts(rng, 300)
        loglam, valid = msprt_log_lambda(*two_sample_scale(*methods.bernoulli_summaries(n0, n1, s0, s1)), 1e-3, 0.0)
        w_loglam, w_valid = msprt_log_lambda(*two_sample_scale(*welford_summaries(rng, n0, n1, s0, s1)), 1e-3, 0.0)
        np.testing.assert_array_equal(valid, w_valid)
        np.testing.assert_allclose(loglam[valid], w_loglam[valid], rtol=1e-10, atol=1e-12)

    def test_bayes_factor_matrix(self):
        from anytime_ab.bayes import log_bayes_factor

        rng = np.random.default_rng(25)
        n0, n1, s0, s1 = random_counts(rng, 50)
        mat = log_bayes_factor(s0, n0, s1, n1, BfConfig(1.0, 1.0))
        for i in range(50):
            expected = log_bayes_factor(int(s0[i]), int(n0[i]), int(s1[i]), int(n1[i]), BfConfig())
            assert mat[i] == pytest.approx(expected, rel=1e-10, abs=1e-12)

    def test_one_sample_interval_functions(self):
        rng = np.random.default_rng(26)
        n = rng.integers(5, 500, size=80).astype(float)
        s = np.clip(rng.binomial(n.astype(int), 0.4), 1, n - 1).astype(float)
        arm = methods.bernoulli_arm(n, s)
        # Arm 1 of the Welford columns; arm 0 is an unused copy.
        _, w_n, _, w_mu, _, w_v = welford_summaries(rng, n, n, s, s)
        for kernel in (mean_interval, msprt_interval):
            center, hw, valid = kernel(n, *arm, 0.05, 1e-3)
            w_center, w_hw, w_valid = kernel(w_n, w_mu, w_v, 0.05, 1e-3)
            assert valid.all() and w_valid.all()
            np.testing.assert_allclose(center - hw, w_center - w_hw, rtol=1e-11, atol=1e-12)


class TestFirstCrossing:
    def test_basic(self):
        reject = np.array([[False, True, True], [False, False, False], [True, False, False]])
        grid = np.array([10, 20, 30])
        stop_idx = methods.first_crossing(reject)
        np.testing.assert_array_equal(stop_idx >= 0, [True, False, True])
        np.testing.assert_array_equal(studies._stop_n(stop_idx, grid), [20.0, np.inf, 10.0])
        np.testing.assert_array_equal(stop_idx, [1, -1, 0])

    def test_cumulative_fraction_nondecreasing(self):
        rng = np.random.default_rng(0)
        reject = rng.random((50, 40)) < 0.02
        curve = methods.cumulative_fraction(methods.first_crossing(reject), 40)
        assert np.all(np.diff(curve) >= 0)


def full_matrix_curve(reject):
    """Fraction of rows with a True at or before each column."""
    return np.maximum.accumulate(reject, axis=1).mean(axis=0)


def _full_matrix_first_crossing(rejects):
    """Stand-in for ``blocked_first_crossing`` that evaluates every cell at once."""

    def evaluate(rule, reps, peeks):
        reject, *values = rule(np.arange(reps), slice(0, peeks))
        rejects.append(reject)
        stopped = reject.any(axis=1)
        stop_idx = np.where(stopped, np.argmax(reject, axis=1), -1)
        rows = np.flatnonzero(stopped)
        at_stop = [np.full(reps, np.nan) for _ in values]
        for out, value in zip(at_stop, values):
            out[rows] = value[rows, stop_idx[rows]]
        return stop_idx, at_stop

    return evaluate


STOP_PARAMS = {
    "AsympCS": PARAMS,
    "mSPRT": PARAMS,
    "BHT-uninformed": BhtConfig(1.0, 1.0, 1e-4),
    "BHT-matched": BhtConfig(100.0, 100.0, 1e-4),
}


class TestEarlyExit:
    """Stop-quality studies evaluate each replication only up to its first crossing."""

    @staticmethod
    def _reports(monkeypatch, cfg, **kwargs):
        blocked = run_stop_quality_study(cfg, **kwargs)
        rejects = []
        with monkeypatch.context() as m:
            m.setattr(methods, "blocked_first_crossing", _full_matrix_first_crossing(rejects))
            full = run_stop_quality_study(cfg, **kwargs)
        return blocked, full, rejects[0]

    @pytest.mark.parametrize("method", sorted(STOP_PARAMS))
    @pytest.mark.parametrize("seed", [3, 29, 2024])
    def test_matches_full_matrix(self, monkeypatch, method, seed):
        cfg = SimStudyConfig(
            method=method, truth_prior=(100, 100), theta0=0.5, horizon=50_000,
            replications=300, master_seed=seed, params=STOP_PARAMS[method],
        )
        blocked, full, reject = self._reports(monkeypatch, cfg, num_peeks=61)
        assert len(blocked.peek_ns) % methods._CROSSING_BLOCK != 0
        assert 0.0 < blocked.power < 1.0
        assert blocked.to_json() == full.to_json()
        assert full.cumulative_rejection_by_peek == full_matrix_curve(reject).tolist()

    @pytest.mark.parametrize("method", sorted(STOP_PARAMS))
    def test_no_replication_crosses(self, monkeypatch, method):
        params = STOP_PARAMS[method]
        if isinstance(params, BhtConfig):
            params = BhtConfig(params.prior_a, params.prior_b, 1e-12)
        cfg = SimStudyConfig(
            method=method, truth_prior=(100, 100), theta0=0.5, horizon=150,
            replications=200, master_seed=5, params=params,
        )
        blocked, full, _ = self._reports(monkeypatch, cfg, num_peeks=20)
        assert blocked.power == 0.0 and blocked.calibration_pairs == []
        assert blocked.to_json() == full.to_json()

    @pytest.mark.parametrize("method", sorted(STOP_PARAMS))
    def test_all_cross_in_first_block(self, monkeypatch, method):
        cfg = SimStudyConfig(
            method=method, truth_prior=(100, 100), theta0=0.02, horizon=100_000,
            replications=200, master_seed=7, params=STOP_PARAMS[method],
        )
        calls = []
        blocked_first_crossing = methods.blocked_first_crossing

        def counting(rule, reps, peeks):
            return blocked_first_crossing(lambda rows, cols: calls.append(cols) or rule(rows, cols), reps, peeks)

        with monkeypatch.context() as m:
            m.setattr(methods, "blocked_first_crossing", counting)
            run_stop_quality_study(cfg, num_peeks=50)
        blocked, full, _ = self._reports(monkeypatch, cfg, num_peeks=50)
        assert blocked.power == 1.0
        assert calls == [slice(0, methods._CROSSING_BLOCK)]
        assert blocked.to_json() == full.to_json()

    def test_bht_cells_bounded_by_useful_cells(self, monkeypatch):
        cells = []
        losses = methods.bht_single_losses

        def counting(n, s, *args):
            cells.append(s.size)
            return losses(n, s, *args)

        monkeypatch.setattr(methods, "bht_single_losses", counting)
        reps = 500
        cfg = SimStudyConfig(
            method="BHT-uninformed", truth_prior=(100, 100), theta0=0.5, horizon=100_000,
            replications=reps, master_seed=11, params=BhtConfig(1.0, 1.0, 1e-3),
        )
        report = run_stop_quality_study(cfg, num_peeks=200)
        curve = report.cumulative_rejection_by_peek
        # A replication's cells up to and including its first crossing, or all of them.
        useful = reps * sum(1.0 - c for c in [0.0] + curve[:-1])
        assert useful < sum(cells) <= useful + reps * methods._CROSSING_BLOCK
        assert sum(cells) < reps * len(report.peek_ns) / 2

    def test_blocked_first_crossing_returns_values_at_stop(self):
        reject = np.zeros((4, 19), dtype=bool)
        reject[0, [3, 10]] = True
        reject[1, 8] = True
        reject[3, 18] = True
        value = np.arange(4 * 19, dtype=float).reshape(4, 19)
        stop_idx, (at_stop,) = methods.blocked_first_crossing(
            lambda rows, cols: (reject[rows, cols], value[rows, cols]), 4, 19
        )
        np.testing.assert_array_equal(stop_idx, [3, 8, -1, 18])
        np.testing.assert_array_equal(at_stop, [3.0, 27.0, np.nan, 75.0])

    def test_crossing_summary_matches_full_matrix(self):
        # Stop sizes and the crossed-fraction curve from stop indices equal their full-matrix forms.
        rng = np.random.default_rng(19)
        reject = rng.random((300, 45)) < 0.01
        grid = np.arange(10, 460, 10)
        stop_idx = methods.first_crossing(reject)
        stop_n = np.where(reject.any(axis=1), grid[np.argmax(reject, axis=1)].astype(float), np.inf)
        np.testing.assert_array_equal(studies._stop_n(stop_idx, grid), stop_n)
        assert methods.cumulative_fraction(stop_idx, grid.size).tolist() == full_matrix_curve(reject).tolist()


TWO_ARM_PARAMS = {
    "BF-uninformed": BfConfig(),
    "BHT-uninformed": BhtConfig(1.0, 1.0, 1e-3),
    "BHT-matched": BhtConfig(10.0, 90.0, 1e-3),
}


def _full_matrix_reject(cfg, grid, counts, fht_total):
    """Every cell of ``cfg.method``'s reject matrix, evaluated at once."""
    p, method = cfg.params, cfg.method
    if method in ("AsympCS", "AsympCS-lift", "mSPRT"):
        kernel = {"AsympCS": methods.ate_reject, "AsympCS-lift": methods.lift_reject, "mSPRT": methods.msprt_reject}
        return kernel[method](*counts, p.alpha, p.rho2)
    if method in ("FHT", "FHT-peeking"):
        reject = methods.z_reject(*counts, p.alpha)
        if method == "FHT":
            reject[:, grid != fht_total] = False
        return reject
    if method == "LDM":
        ldm_ns = studies._ldm_peek_ns(fht_total)
        boundaries = compute_boundaries((ldm_ns / fht_total).tolist(), p.alpha).boundaries
        cols = np.searchsorted(grid, ldm_ns)
        z, valid = methods.z_statistic_arrays(*counts)
        reject = np.zeros(z.shape, dtype=bool)
        reject[:, cols] = valid[:, cols] & (np.abs(z[:, cols]) >= np.asarray(boundaries))
        return reject
    if method == "BF-uninformed":
        return methods.bf_reject(*counts, p.prior_a, p.prior_b, p.odds_threshold)
    return studies._bht_two_arm_reject(*counts, p)


class TestTwoArmEarlyExit:
    """The two-arm dispatch evaluates in blocks of peeks, with the full matrix's first crossings."""

    @pytest.mark.parametrize("method", studies.METHODS)
    def test_stop_idx_matches_full_matrix(self, method):
        cfg = SimStudyConfig(
            method=method, arm_means=(0.1, 0.13), replications=30, peek_every=250, master_seed=47,
            params=TWO_ARM_PARAMS.get(method, PARAMS),
        )
        fht_total = studies._fht_total(cfg)
        grid = studies._study_grid(cfg, 2 * fht_total, fht_total, markers=[fht_total])
        assert grid.size % methods._CROSSING_BLOCK != 0
        counts = studies._two_arm_counts(cfg, grid, 0.1, 0.13)
        stop_idx = studies._stop_idx(cfg, grid, counts, fht_total)

        reject = _full_matrix_reject(cfg, grid, [np.array(m) for m in counts], fht_total)
        np.testing.assert_array_equal(stop_idx, np.where(reject.any(axis=1), np.argmax(reject, axis=1), -1))
        crossed = stop_idx[stop_idx >= 0]
        assert crossed.size > 0
        if method == "FHT":
            assert set(grid[crossed]) == {fht_total}
        elif method == "LDM":
            assert np.isin(grid[crossed], studies._ldm_peek_ns(fht_total)).all()
        else:
            assert crossed.max() >= methods._CROSSING_BLOCK


class TestSharedStreams:
    def test_streams_are_read_only(self):
        cfg = SimStudyConfig(method="AsympCS", arm_means=(0.1, 0.1), replications=5, master_seed=2)
        counts = studies._two_arm_counts(cfg, np.arange(10, 101, 10), 0.1, 0.1)
        for matrix in counts:
            with pytest.raises(ValueError):
                matrix[0, 0] = 1.0

    def test_fresh_draw_matches_shared_draw(self):
        cfg = SimStudyConfig(
            method="AsympCS", arm_means=(0.1, 0.1), design_mde=0.01, replications=100, master_seed=31,
        )
        shared = run_type1_study(cfg).to_json()
        studies._cached_two_arm_counts.cache_clear()
        assert run_type1_study(cfg).to_json() == shared


class TestStudies:
    def test_type1_deterministic(self):
        cfg = SimStudyConfig(
            method="AsympCS", arm_means=(0.1, 0.1), design_mde=0.01,
            replications=100, master_seed=31,
        )
        a = run_type1_study(cfg)
        b = run_type1_study(cfg)
        assert a.to_json() == b.to_json()

    def test_type1_requires_equal_means(self):
        cfg = SimStudyConfig(method="AsympCS", arm_means=(0.1, 0.12), replications=10)
        with pytest.raises(ValueError):
            run_type1_study(cfg)

    def test_equal_means_power_curve_is_type1_curve(self):
        kwargs = dict(arm_means=(0.1, 0.1), design_mde=0.01, replications=100, master_seed=13)
        t1 = run_type1_study(SimStudyConfig(method="AsympCS", **kwargs))
        pw = run_power_study(SimStudyConfig(method="AsympCS", **kwargs), horizon_multiples=(3.0,))
        assert t1.cumulative_rejection_by_peek == pw.cumulative_rejection_by_peek

    def test_methods_consume_identical_streams(self):
        # Same seed and grid settings: the streams the methods see match.
        kwargs = dict(arm_means=(0.1, 0.1), design_mde=0.01, replications=50, master_seed=77)
        a = run_type1_study(SimStudyConfig(method="AsympCS", **kwargs))
        b = run_type1_study(SimStudyConfig(method="mSPRT", **kwargs))
        assert a.peek_ns == b.peek_ns

    def test_z_rules_honour_theta0(self):
        kwargs = dict(arm_means=(0.1, 0.1), design_mde=0.05, replications=20, master_seed=83)
        for method in ("FHT", "FHT-peeking", "LDM"):
            at_zero = run_type1_study(SimStudyConfig(method=method, **kwargs))
            shifted = run_type1_study(SimStudyConfig(method=method, theta0=0.5, **kwargs))
            assert shifted.cumulative_rejection_by_peek != at_zero.cumulative_rejection_by_peek, method

    def test_bf_null_rarely_crosses(self):
        cfg = SimStudyConfig(
            method="BF-uninformed", arm_means=(0.1, 0.1), design_mde=0.01,
            replications=500, horizon=20_000, master_seed=41, params=BfConfig(),
        )
        report = run_type1_study(cfg)
        assert report.power <= 0.05

    def test_bht_two_arm_study_runs(self):
        cfg = SimStudyConfig(
            method="BHT-uninformed", arm_means=(0.1, 0.1), design_mde=0.01,
            replications=60, horizon=4_000, peek_every=200, master_seed=51,
            params=BhtConfig(epsilon=1e-4),
        )
        report = run_type1_study(cfg)
        assert 0.0 <= report.power <= 1.0

    def test_bht_two_arm_matches_scalar_rule(self):
        grid = np.arange(200, 2001, 200)
        counts = streams.two_arm_count_matrices(61, 10, grid, 0.3, 0.4)
        from anytime_ab.simlab.studies import _bht_two_arm_reject
        from anytime_ab.bayes import bht_decide

        cfg = BhtConfig(epsilon=5e-3)
        reject = _bht_two_arm_reject(*counts, cfg)
        n0, n1, s0, s1 = counts
        for r in range(10):
            for j in range(grid.size):
                scalar = bht_decide(s0[r, j], n0[r, j], s1[r, j], n1[r, j], cfg).stopped
                assert reject[r, j] == scalar
                if scalar:
                    break  # row loop stops at first crossing by construction

    def test_power_ordering_small_scale(self):
        kwargs = dict(arm_means=(0.1, 0.11), replications=400, master_seed=19)
        ldm = run_power_study(SimStudyConfig(method="LDM", **kwargs), (1.0,))
        cs = run_power_study(SimStudyConfig(method="AsympCS", **kwargs), (1.0,))
        bf = run_power_study(
            SimStudyConfig(method="BF-uninformed", params=BfConfig(), **kwargs), (1.0,)
        )
        assert ldm.power >= cs.power - 0.05
        assert cs.power >= bf.power - 0.05

    def test_tiny_horizon_multiple_reads_its_own_peek(self):
        # 1e-9 x fht_total rounds to 0; the marker is clamped to n = 1, not read off the first peek.
        cfg = SimStudyConfig(method="AsympCS", arm_means=(0.1, 0.12), replications=20, master_seed=5)
        report = run_power_study(cfg, horizon_multiples=(1e-9, 1.0))
        assert report.peek_ns[0] == 1
        assert report.power_by_multiple[0] == (1e-9, 0.0)

    def test_lift_study_pairs_and_orders(self):
        cfg = SimStudyConfig(method="AsympCS-lift", arm_means=(0.1, 0.11), replications=200, master_seed=23)
        out = run_lift_power_study(cfg, horizon_multiples=(1.0, 2.0))
        lift, ate, aa = out["lift"], out["ate"], out["lift-aa"]
        for (m1, p_lift), (m2, p_ate) in zip(lift.power_by_multiple, ate.power_by_multiple):
            assert m1 == m2
            assert p_lift <= p_ate + 1e-12
        assert aa.power <= 0.08

    def test_lift_aa_run_computes_only_the_lift_mask(self, monkeypatch):
        # Which rule each stream is evaluated by: the difference rule sees the A/B stream only.
        calls = []
        stop_idx = studies._stop_idx
        monkeypatch.setattr(
            studies, "_stop_idx", lambda cfg, grid, counts, *rest: calls.append((cfg.method, grid, counts))
            or stop_idx(cfg, grid, counts, *rest),
        )
        cfg = SimStudyConfig(method="AsympCS-lift", arm_means=(0.1, 0.11), replications=20, master_seed=23)
        run_lift_power_study(cfg, horizon_multiples=(1.0,))
        grid = calls[0][1]
        ab = streams.two_arm_count_matrices(23, 20, grid, 0.1, 0.11)
        aa = streams.two_arm_count_matrices(23, 20, grid, 0.1, 0.1)

        def rules_on(stream):
            return [m for m, _, counts in calls if all(np.array_equal(a, b) for a, b in zip(counts, stream))]

        assert rules_on(ab) == ["AsympCS-lift", "AsympCS"]
        assert rules_on(aa) == ["AsympCS-lift"]
        assert len(calls) == 3

    def test_lift_power_grows_along_grid(self):
        cfg = SimStudyConfig(method="AsympCS-lift", arm_means=(0.1, 0.11), replications=300, master_seed=67)
        out = run_lift_power_study(cfg, horizon_multiples=(2.0,), lift_grid=[0.1, 0.4, 0.8])
        rows = out["lift"].meta["power_by_lift"]
        lift_powers = [p for _, p, _ in rows]
        assert lift_powers == sorted(lift_powers)
        assert lift_powers[-1] >= 0.9

    def test_rho2_sweep_power_collapse(self):
        cfg = SimStudyConfig(method="AsympCS", arm_means=(0.1, 0.11), replications=300, master_seed=29)
        reports = run_rho2_sweep(cfg, [1e-6, 1e-3])
        assert reports[0].meta["rho2"] == 1e-6
        assert reports[0].power < reports[1].power
        for r in reports:
            assert r.meta["type1"] <= 0.05 + 3 * math.sqrt(0.05 * 0.95 / 300)

    def test_misspec_factor_scaling(self):
        cfg = SimStudyConfig(method="AsympCS", arm_means=(0.1, 0.1), design_mde=0.01, replications=150, master_seed=37)
        exact = run_mde_misspec_study([0.01, 0.02], 1.0, cfg)
        under = run_mde_misspec_study([0.01, 0.02], 0.5, cfg)
        assert 1.0 <= exact.meta["median_ratio"] <= 4.0
        # Same stop times, four-times-larger assumed horizon.
        assert under.meta["median_ratio"] == pytest.approx(exact.meta["median_ratio"] / 4.0, rel=0.05)

    def test_stop_quality_asympcs(self):
        cfg = SimStudyConfig(
            method="AsympCS", truth_prior=(100, 100), theta0=0.5, horizon=200_000,
            replications=1_500, master_seed=43,
        )
        report = run_stop_quality_study(cfg, num_peeks=300)
        assert report.power > 0.8
        mc_se = math.sqrt(0.05 * 0.95 / 1_500)
        assert report.miscoverage_at_stop <= 0.05 + 3 * mc_se
        assert len(report.calibration_pairs) == int(round(report.power * 1_500))

    def test_stop_quality_forward_calibration(self):
        cfg = SimStudyConfig(
            method="AsympCS", truth_prior=(100, 100), theta0=0.5, horizon=500_000,
            replications=3_000, master_seed=47,
        )
        report = run_stop_quality_study(cfg, num_peeks=300)
        pairs = np.asarray(report.calibration_pairs)
        true, inferred = pairs[:, 0], pairs[:, 1]
        bins = np.linspace(0.44, 0.56, 9)
        for lo, hi in zip(bins, bins[1:]):
            mask = (true >= lo) & (true < hi)
            if mask.sum() < 50:
                continue
            assert abs(inferred[mask].mean() - true[mask].mean()) < 0.01

    def test_stop_quality_bht_loss_near_epsilon(self):
        cfg = SimStudyConfig(
            method="BHT-matched", truth_prior=(100, 100), theta0=0.5, horizon=2_000_000,
            replications=1_500, master_seed=53, params=BhtConfig(100.0, 100.0, 1e-4),
        )
        report = run_stop_quality_study(cfg, num_peeks=1_500)
        assert report.mean_loss_at_stop == pytest.approx(1e-4, rel=0.5)

    def test_stop_quality_rejects_theta0_outside_unit_interval(self):
        # Outside [0, 1] the single-arm loss is NaN, so BHT would never stop.
        for method, params, theta0 in (
            ("BHT-uninformed", BhtConfig(), 1.5),
            ("BHT-uninformed", BhtConfig(), -0.1),
            ("AsympCS", PARAMS, 1.5),
        ):
            cfg = SimStudyConfig(
                method=method, truth_prior=(100, 100), theta0=theta0, horizon=10_000,
                replications=20, master_seed=59, params=params,
            )
            with pytest.raises(ValueError, match=r"theta0 in \[0, 1\]"):
                run_stop_quality_study(cfg, num_peeks=50)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimStudyConfig(method="nope")
        with pytest.raises(ValueError):
            SimStudyConfig(method="AsympCS", replications=0)
        with pytest.raises(ValueError):
            SimStudyConfig(method="AsympCS", horizon=10, peek_every=100)


class TestReport:
    def test_monotonicity_enforced(self):
        with pytest.raises(ValueError):
            SimReport(
                study="x", method="m", replications=1, horizon=10, master_seed=0,
                peek_ns=[1, 2], cumulative_rejection_by_peek=[0.5, 0.4],
            )

    def test_csv_rows(self):
        report = SimReport(
            study="type1", method="AsympCS", replications=10, horizon=100, master_seed=1,
            peek_ns=[10, 20], cumulative_rejection_by_peek=[0.0, 0.5],
        )
        rows = list(report.csv_rows())
        assert rows == [("type1", "AsympCS", 10, 0.0), ("type1", "AsympCS", 20, 0.5)]
