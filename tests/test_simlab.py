import json
import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import replace

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
    threads,
)
from test_moments import fold

PARAMS = ConfSeqParams(0.05, 1e-3)


def welford_arm(rng, s, n):
    """Welford moments of a shuffled stream of s ones and n - s zeros."""
    values = np.zeros(int(n))
    values[: int(s)] = 1.0
    return fold(rng.permutation(values))


def welford_summaries(rng, n0, n1, s0, s1):
    """Kernel columns (n0, n1, mu0, mu1, v0, v1) of each row's two Welford-updated arms."""
    rows = []
    for i in range(len(n0)):
        (c0, mean0, m2_0), (c1, mean1, m2_1) = welford_arm(rng, s0[i], n0[i]), welford_arm(rng, s1[i], n1[i])
        rows.append((c0, c1, mean0, mean1, m2_0 / max(c0, 1), m2_1 / max(c1, 1)))
    return tuple(np.array(rows, dtype=float).reshape(-1, 6).T)


def cumulative_counts(increments, grid):
    """Cumulative (n0, n1, s0, s1) of a two-arm stream's increments, summed in int64 apart from the reader."""
    n1, s0, s1 = np.cumsum(increments, axis=-1, dtype=np.int64)
    return np.asarray(grid, dtype=np.int64) - n1, n1, s0, s1


def random_counts(rng, size):
    n0 = rng.integers(2, 400, size=size).astype(float)
    n1 = rng.integers(2, 400, size=size).astype(float)
    s0 = rng.binomial(n0.astype(int), 0.3).astype(float)
    s1 = rng.binomial(n1.astype(int), 0.35).astype(float)
    return n0, n1, s0, s1


class TestStreams:
    def test_replication_streams_are_chunk_invariant(self):
        grid = np.arange(50, 1001, 50)
        full = cumulative_counts(streams.two_arm_count_matrices(9, 20, grid, 0.1, 0.12), grid)
        # Regenerating any single replication reproduces its row exactly.
        for r in (0, 7, 19):
            single = cumulative_counts(streams.two_arm_count_matrices(9, r + 1, grid, 0.1, 0.12), grid)
            for a, b in zip(full, single):
                np.testing.assert_array_equal(a[r], b[r])

    def test_streams_method_independent(self):
        grid = np.arange(100, 2001, 100)
        a = cumulative_counts(streams.two_arm_count_matrices(3, 10, grid, 0.1, 0.1), grid)
        b = cumulative_counts(streams.two_arm_count_matrices(3, 10, grid, 0.1, 0.1), grid)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_counts_are_consistent(self):
        grid = np.arange(100, 5001, 100)
        n0, n1, s0, s1 = cumulative_counts(streams.two_arm_count_matrices(5, 50, grid, 0.2, 0.25), grid)
        assert np.all(n0 + n1 == grid[None, :])
        assert np.all(s0 <= n0) and np.all(s1 <= n1)
        assert np.all(np.diff(s0, axis=1) >= 0) and np.all(np.diff(s1, axis=1) >= 0)

    @pytest.mark.parametrize("master_seed", [0, 404, 2**64 - 1])
    def test_rekeyed_streams_match_keyed_philox(self, master_seed):
        # Each replication's draws are those of a Philox constructed with the
        # key (master_seed << 64) | rep, however the generator was re-keyed.
        grid = np.array([3, 40, 1_000, 250_000])
        blocks = np.diff(grid, prepend=0)
        n0, n1, s0, s1 = cumulative_counts(streams.two_arm_count_matrices(master_seed, 3_000, grid, 0.1, 0.12), grid)
        theta, s = streams.single_arm_count_matrices(master_seed, np.arange(3_000), grid, (100, 100))
        s = np.cumsum(s, axis=1)
        for rep in (0, 5, 2_999):
            def keyed():
                return np.random.Generator(np.random.Philox(key=(master_seed << 64) | rep))

            rng = keyed()
            m1 = rng.binomial(blocks, 0.5)
            c1 = rng.binomial(m1, 0.12)
            c0 = rng.binomial(blocks - m1, 0.1)
            np.testing.assert_array_equal(n1[rep], np.cumsum(m1))
            np.testing.assert_array_equal(s1[rep], np.cumsum(c1))
            np.testing.assert_array_equal(s0[rep], np.cumsum(c0))
            rng = keyed()
            th = rng.beta(100, 100)
            assert theta[rep] == th
            np.testing.assert_array_equal(s[rep], np.cumsum(rng.binomial(blocks, th)))

    def test_single_arm_counts(self):
        grid = np.unique(np.round(np.geomspace(10, 10_000, 50)).astype(np.int64))
        theta, s = streams.single_arm_count_matrices(5, np.arange(30), grid, (100, 100))
        s = np.cumsum(s, axis=1)
        assert theta.shape == (30,) and s.shape == (30, grid.size)
        assert np.all((theta > 0) & (theta < 1))
        assert np.all(s <= grid[None, :])


class TestIntegerCounts:
    """Cumulative count blocks are float64 and exact past 2^31 - 1; the public kernels cast integer counts."""

    @pytest.mark.parametrize("end, dtype", [(2**31 - 1, np.int32), (2**31, np.int64)])
    def test_count_dtype_follows_grid_end(self, end, dtype):
        # Either side of 2^31 - 1, the reader's float64 counts equal the
        # Philox draws cumulated in the narrowest signed type that holds
        # the grid end.
        grid = np.array([7, 1_000, end])
        blocks = np.diff(grid, prepend=0)
        increments = streams.two_arm_count_matrices(12, 3, grid, 0.3, 0.9)
        theta, s = streams.single_arm_count_matrices(12, np.arange(3), grid, (90, 10))
        assert increments.dtype == s.dtype == np.uint32 and theta.dtype == np.float64
        whole = (np.arange(3), slice(0, grid.size))
        n1, s0, s1 = methods.cumulative_blocks(increments)(*whole)
        s = methods.cumulative_blocks(s)(*whole)
        assert n1.dtype == s0.dtype == s1.dtype == s.dtype == np.float64
        for rep in range(3):
            rng = np.random.Generator(np.random.Philox(key=(12 << 64) | rep))
            m1 = rng.binomial(blocks, 0.5)
            c1 = rng.binomial(m1, 0.9)
            c0 = rng.binomial(blocks - m1, 0.3)
            n1_want = np.cumsum(m1, dtype=dtype)
            for got, want in ((grid - n1[rep], grid.astype(dtype) - n1_want), (n1[rep], n1_want),
                              (s0[rep], np.cumsum(c0, dtype=dtype)), (s1[rep], np.cumsum(c1, dtype=dtype))):
                np.testing.assert_array_equal(got, want.astype(np.float64))
            rng = np.random.Generator(np.random.Philox(key=(12 << 64) | rep))
            draws = rng.binomial(blocks, rng.beta(90, 10))
            np.testing.assert_array_equal(s[rep], np.cumsum(draws, dtype=dtype).astype(np.float64))

    @pytest.mark.parametrize(
        "bht", [BhtConfig(1.0, 1.0, 1e-4), BhtConfig(1, 1, 1e-4)], ids=["float-prior", "int-prior"]
    )
    def test_int32_block_gives_float64_bits(self, bht):
        # About 10^5 trials per arm from the first peek on: the counts fit
        # int32, but n0 * n1 and the two-arm tail sum's (1 + s0)(1 + n1 - s1)
        # pass 2^31 - 1 in every cell a rule evaluates. Each rule reads the
        # reader's float64 block with the bits of the exact int64 counts, and
        # an integer prior gives the bits of a float one.
        grid = np.array([200_000, 240_000, 280_000, 320_000, 360_000, 400_000])
        increments = streams.two_arm_count_matrices(29, 12, grid, 0.5, 0.505)
        n1, s0, s1 = methods.cumulative_blocks(increments)(np.arange(12), slice(0, grid.size))
        counts = (grid - n1, n1, s0, s1)
        assert all(m.dtype == np.float64 for m in counts)
        exact = cumulative_counts(increments, grid)
        assert max(m.max() for m in exact) <= 2**31 - 1
        n0_0, n1_0, s0_0, s1_0 = (m[:, 0] for m in exact)
        assert (n0_0 * n1_0 > 2**31 - 1).all() and ((1 + s0_0) * (1 + n1_0 - s1_0) > 2**31 - 1).all()
        as_float = tuple(m.astype(np.float64) for m in exact)
        float_prior = BhtConfig(float(bht.prior_a), float(bht.prior_b), bht.epsilon)
        rules = {
            "ate": lambda c, b: methods.ate_reject(*c, 0.05, 1e-3),
            "lift": lambda c, b: methods.lift_reject(*c, 0.05, 1e-3),
            "msprt": lambda c, b: methods.msprt_reject(*c, 0.05, 1e-3),
            "z": lambda c, b: methods.z_reject(*c, 0.05),
            "z-stat": lambda c, b: methods.z_statistic_arrays(*c, 0.001),
            "bf": lambda c, b: methods.bf_reject(*c, 1.0, 1.0, 20.0),
            "bht-single": lambda c, b: methods.bht_single_losses(c[1], c[3], b.prior_a, b.prior_b, 0.45),
            "bht-two-arm": lambda c, b: studies._bht_two_arm_reject(*c, b),
        }
        for name, rule in rules.items():
            got, want = rule(counts, bht), rule(as_float, float_prior)
            if isinstance(got, np.ndarray):
                got, want = (got,), (want,)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype, name
                assert np.array_equal(g, w, equal_nan=g.dtype.kind == "f"), name

    def test_wide_grid_blocks_match_int64_cumsum(self):
        # The stop_quality_bht_wide grid: blocks past 65,535 events, so the
        # increments are uint32, and single-arm counts near 0.9 of it pass
        # 2^31 - 1, where an int32 total would have wrapped negative.
        grid = np.unique(np.round(np.geomspace(studies.STOP_QUALITY_START, 3_000_000_000, 60)).astype(np.int64))
        reps = 40
        two_arm = streams.two_arm_count_matrices(12, reps, grid, 0.3, 0.9)
        _, single = streams.single_arm_count_matrices(12, np.arange(reps), grid, (900, 100))
        assert (np.cumsum(single, axis=1, dtype=np.int64)[:, -1] > 2**31 - 1).all()
        # Random rejects shrink the rows and reset the widths.
        reject = np.random.default_rng(5).random((reps, grid.size)) < 0.02
        for increments in (two_arm, single):
            assert increments.dtype == np.uint32
            full = np.cumsum(increments, axis=-1, dtype=np.int64)
            cumulative = methods.cumulative_blocks(increments)
            seen = []

            def rule(rows, cols):
                block = cumulative(rows, cols)
                assert block.dtype == np.float64
                np.testing.assert_array_equal(block, full[..., rows, cols])
                seen.append((rows.size, cols.stop - cols.start))
                return (reject[rows, cols],)

            stop_idx, _ = methods.blocked_first_crossing(rule, reps, grid.size)
            np.testing.assert_array_equal(stop_idx, methods.first_crossing(reject))
            assert len({rows for rows, _ in seen}) > 1 and len({width for _, width in seen}) > 1

    def test_single_arm_losses_at_int32_limit(self):
        # A count at 2^31 - 1 plus an integer prior would wrap in int32.
        n = np.array([[2**31 - 1, 2**31 - 1]], dtype=np.int32)
        s = np.array([[2**31 - 1, 2**30]], dtype=np.int32)
        for got, want in zip(methods.bht_single_losses(n, s, 1, 1, 0.5),
                             methods.bht_single_losses(n.astype(np.float64), s.astype(np.float64), 1, 1, 0.5)):
            assert np.array_equal(got, want)


BENCH_CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "configs")


def _bench_config(name):
    with open(os.path.join(BENCH_CONFIGS, f"{name}.json"), encoding="utf-8") as fh:
        return json.load(fh)


class TestIncrementStreams:
    """Streams are per-block increments in the narrowest unsigned type, cumulated block by block as they are read."""

    def test_bench_type1_stream_takes_three_bytes_a_cell(self):
        conf = _bench_config("type1")
        cfg = SimStudyConfig(method="AsympCS", arm_means=tuple(conf["arm_means"]), design_mde=conf["design_mde"],
                             replications=conf["replications"], peek_every=conf["peek_every"])
        fht_total = studies._fht_total(cfg)
        grid = studies._study_grid(cfg, 3 * fht_total, fht_total, markers=[fht_total])
        stream = streams.two_arm_count_matrices(1, cfg.replications, grid, *cfg.arm_means)
        assert stream.shape == (3, cfg.replications, grid.size) and stream.dtype == np.uint8
        assert stream.nbytes == 3 * cfg.replications * grid.size

    def test_bench_stop_quality_increments_are_uint16(self, monkeypatch):
        conf = _bench_config("stop_bht")
        matrices = []
        cumulative_blocks = methods.cumulative_blocks

        def recording(increments):
            matrices.append(increments)
            return cumulative_blocks(increments)

        monkeypatch.setattr(methods, "cumulative_blocks", recording)
        cfg = SimStudyConfig(method=conf["method"], truth_prior=tuple(conf["truth_prior"]), theta0=conf["theta0"],
                             horizon=conf["horizon"], replications=50, params=BhtConfig(epsilon=conf["epsilon"]))
        report = run_stop_quality_study(cfg, num_peeks=conf["num_peeks"])
        (increments,) = matrices
        assert increments.dtype == np.uint16 and increments.flags.f_contiguous
        assert increments.nbytes == 2 * cfg.replications * len(report.peek_ns)

    def test_blocks_match_full_cumsum_along_the_crossing_loop(self):
        # Random rejects shrink the rows and reset the widths; uint8 increments sum past 255.
        rng = np.random.default_rng(41)
        reps, peeks = 60, 150
        increments = rng.integers(0, 256, size=(3, reps, peeks)).astype(np.uint8)
        reject = rng.random((reps, peeks)) < 0.01
        full = np.cumsum(increments, axis=-1, dtype=np.int64)
        cumulative = methods.cumulative_blocks(increments)
        seen = []

        def rule(rows, cols):
            block = cumulative(rows, cols)
            assert block.dtype == np.float64
            np.testing.assert_array_equal(block, full[:, rows, cols])
            seen.append((rows.size, cols.stop - cols.start))
            return (reject[rows, cols],)

        stop_idx, _ = methods.blocked_first_crossing(rule, reps, peeks)
        np.testing.assert_array_equal(stop_idx, methods.first_crossing(reject))
        assert len({rows for rows, _ in seen}) > 2 and len({width for _, width in seen}) > 1

    def test_blocks_read_out_of_order_raise(self):
        cumulative = methods.cumulative_blocks(np.ones((4, 10), dtype=np.uint8))
        cumulative(np.arange(4), slice(0, 8))
        with pytest.raises(ValueError, match="expected column 8, got 0"):
            cumulative(np.arange(4), slice(0, 8))

    def test_stop_quality_blocks_match_full_cumsum_across_draw_stages(self, monkeypatch):
        reps = 200
        cfg = SimStudyConfig(
            method="BHT-uninformed", truth_prior=(1e4, 1e4), theta0=0.5, horizon=1_000_000,
            replications=reps, master_seed=11, params=BhtConfig(1.0, 1.0, 1e-6),
        )
        blocks, stages = [], []
        cumulative_blocks, draw = methods.cumulative_blocks, streams.single_arm_count_matrices

        def recording_blocks(increments):
            cumulative = cumulative_blocks(increments)

            def block(rows, cols):
                out = cumulative(rows, cols)
                blocks.append((rows.copy(), cols, out.copy()))
                return out

            return block

        def recording_draw(seed, rows, grid, prior):
            stages.append(len(grid))
            return draw(seed, rows, grid, prior)

        with monkeypatch.context() as m:
            m.setattr(methods, "cumulative_blocks", recording_blocks)
            m.setattr(streams, "single_arm_count_matrices", recording_draw)
            report = run_stop_quality_study(cfg, num_peeks=150)
        assert 0.0 < report.power < 1.0
        grid = np.asarray(report.peek_ns)
        _, s = draw(cfg.master_seed, np.arange(reps), grid, cfg.truth_prior)
        full = np.cumsum(s, axis=1, dtype=np.int64)
        for rows, cols, out in blocks:
            assert out.dtype == np.float64
            np.testing.assert_array_equal(out, full[rows, cols])
        # A block straddles the end of a draw stage, and the rows shrink after it.
        assert any(cols.start < stage < cols.stop for _, cols, _ in blocks for stage in stages[:-1])
        assert blocks[-1][0].size < reps


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
        lower, upper, valid = asympcs_ate(*methods.bernoulli_summaries(n0, n1, s0, s1), 0.05, 1e-3)
        w_lower, w_upper, w_valid = asympcs_ate(*welford_summaries(rng, n0, n1, s0, s1), 0.05, 1e-3)
        assert valid.all() and w_valid.all()
        np.testing.assert_allclose(lower, w_lower, rtol=1e-11, atol=1e-12)
        np.testing.assert_allclose(upper, w_upper, rtol=1e-11, atol=1e-12)

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
            lower, upper, valid = kernel(n, *arm, 0.05, 1e-3)
            w_lower, w_upper, w_valid = kernel(w_n, w_mu, w_v, 0.05, 1e-3)
            assert valid.all() and w_valid.all()
            np.testing.assert_allclose(lower, w_lower, rtol=1e-11, atol=1e-12)
            np.testing.assert_allclose(upper, w_upper, rtol=1e-11, atol=1e-12)


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


class TestAdaptiveBlocks:
    """Block widths double across quiet blocks up to the cap and reset after any crossing."""

    def test_widths_and_crossings_match_full_matrix(self):
        reps, peeks = 6, 200
        reject = np.zeros((reps, peeks), dtype=bool)
        value = np.arange(reps * peeks, dtype=float).reshape(reps, peeks)
        reject[0, 3] = True  # in the first block
        # Quiet until 88, where blocks of 8, 16, 32 and 32 peeks end; then
        # crossings on the first and the last column of [88, 120), and on
        # the first of [144, 176), after blocks of 8 and 16.
        reject[1, 88] = reject[2, 119] = True
        reject[3, [144, 150]] = True
        reject[4, 199] = True  # the last, clamped block
        widths = []

        def rule(rows, cols):
            widths.append((cols.start, cols.stop))
            return reject[rows, cols], value[rows, cols]

        stop_idx, (at_stop,) = methods.blocked_first_crossing(rule, reps, peeks)
        want = methods.first_crossing(reject)
        np.testing.assert_array_equal(stop_idx, want)
        np.testing.assert_array_equal(at_stop, np.where(want >= 0, value[np.arange(reps), want], np.nan))

        cap = methods._CROSSING_BLOCK_MAX
        assert widths[0] == (0, methods._CROSSING_BLOCK)
        assert [b[0] for b in widths[1:]] == [b[1] for b in widths[:-1]] and widths[-1][1] == peeks
        width = methods._CROSSING_BLOCK
        for start, stop in widths:
            assert stop - start == min(width, peeks - start) <= cap
            crossed = ((want >= start) & (want < stop)).any()
            width = methods._CROSSING_BLOCK if crossed else min(2 * width, cap)
        # The crossings sit on the first and the last column of blocks wider than the first.
        wide = [(a, b) for a, b in widths if b - a > methods._CROSSING_BLOCK]
        assert any(a in want for a, _ in wide) and any(b - 1 in want for _, b in wide)
        assert max(b - a for a, b in widths) == cap

    def test_widening_stops_at_the_cell_cap(self):
        reps, peeks = 3000, 200
        assert reps * 2 * methods._CROSSING_BLOCK > methods._CROSSING_BLOCK_CELLS >= 1000 * methods._CROSSING_BLOCK_MAX
        reject = np.zeros((reps, peeks), dtype=bool)
        reject[:2000, 20] = True  # leaves 1,000 replications alive after the third block
        blocks = []

        def rule(rows, cols):
            blocks.append((rows.size, cols.start, cols.stop))
            return (reject[rows, cols],)

        stop_idx, _ = methods.blocked_first_crossing(rule, reps, peeks)
        np.testing.assert_array_equal(stop_idx, methods.first_crossing(reject))
        # 3,000 x 16 would pass the cap, so the quiet blocks stay 8 wide; 1,000 x 32 does not.
        assert blocks[:6] == [(3000, 0, 8), (3000, 8, 16), (3000, 16, 24), (1000, 24, 32), (1000, 32, 48),
                              (1000, 48, 80)]
        assert all(rows * (stop - start) <= methods._CROSSING_BLOCK_CELLS for rows, start, stop in blocks[3:])


class TestStagedDraws:
    """Stop-quality streams are drawn in stages, only as far as the crossing loop reads."""

    def test_stages_match_one_call(self):
        # Each stage draws a prefix of the grid from the start of its rows'
        # streams, and gets the rates and columns of one call over the grid.
        grid = np.unique(np.round(np.geomspace(100, 200_000, 90)).astype(np.int64))
        reps, prior = 10, (50, 50)
        theta, s = streams.single_arm_count_matrices(17, np.arange(reps), grid, prior)
        stages = [(np.arange(reps), 5), ([0, 2, 3, 7, 9], 11), ([2, 7, 9], 20), ([7, 9], 33), ([7], grid.size)]
        for rows, stop in stages:
            got_theta, got = streams.single_arm_count_matrices(17, rows, grid[:stop], prior)
            assert got.shape == (len(rows), stop)
            np.testing.assert_array_equal(got_theta, theta[rows])
            np.testing.assert_array_equal(got, s[rows, :stop])

    def test_shuffled_and_repeated_rows_match_keyed_philox(self):
        # Rows in any order, each as often as asked, give the draws of a Philox
        # keyed (master_seed << 64) | rep over the whole grid, cut to the prefix.
        master_seed, prior = 2**63 + 5, (20, 80)
        grid = np.array([9, 1_000, 80_000, 500_000, 4_000_000])
        blocks = np.diff(grid, prepend=0)
        rows = [7, 2, 7, 0, 11, 2, 2]
        assert streams.single_arm_count_matrices(master_seed, rows, grid, prior)[1].dtype == np.uint32
        for stop in (1, 3, grid.size):
            theta, s = streams.single_arm_count_matrices(master_seed, rows, grid[:stop], prior)
            assert s.shape == (len(rows), stop)
            for i, rep in enumerate(rows):
                rng = np.random.Generator(np.random.Philox(key=(master_seed << 64) | rep))
                th = rng.beta(*prior)
                assert theta[i] == th
                np.testing.assert_array_equal(s[i], rng.binomial(blocks, th)[:stop])

    @staticmethod
    def _drawn(monkeypatch, cfg, num_peeks):
        """Times each (replication, peek) cell was drawn, the grid length of each draw, and the report."""
        draw = streams.single_arm_count_matrices
        hits = np.zeros((cfg.replications, num_peeks), dtype=int)
        lengths = []

        def recording(seed, rows, grid, prior):
            result = draw(seed, rows, grid, prior)
            hits[np.ix_(np.asarray(rows), np.arange(len(grid)))] += 1
            lengths.append(len(grid))
            assert result[1].size == len(rows) * len(grid)
            return result

        with monkeypatch.context() as m:
            m.setattr(streams, "single_arm_count_matrices", recording)
            report = run_stop_quality_study(cfg, num_peeks=num_peeks)
        assert len(report.peek_ns) == num_peeks
        return hits, lengths, report

    def test_bht_study_draws_fewer_cells(self, monkeypatch):
        cfg = SimStudyConfig(
            method="BHT-uninformed", truth_prior=(100, 100), theta0=0.5, horizon=100_000,
            replications=500, master_seed=11, params=BhtConfig(1.0, 1.0, 1e-3),
        )
        hits, _, report = self._drawn(monkeypatch, cfg, 200)
        assert hits.sum() < cfg.replications * 200
        # The report is the full matrix's, and every cell up to and including
        # each replication's crossing was drawn.
        rejects = []
        with monkeypatch.context() as m:
            m.setattr(methods, "blocked_first_crossing", _full_matrix_first_crossing(rejects))
            assert run_stop_quality_study(cfg, num_peeks=200).to_json() == report.to_json()
        crossed = methods.first_crossing(rejects[0])
        last = np.where(crossed >= 0, crossed, 199)
        assert all(hits[r, : last[r] + 1].all() for r in range(cfg.replications))

    def test_nothing_crosses_draws_in_two_calls(self, monkeypatch):
        # Every replication stays alive, so the first call draws the first
        # peeks and the second the whole grid.
        cfg = SimStudyConfig(
            method="BHT-uninformed", truth_prior=(1e6, 1e6), theta0=0.5, horizon=20_000,
            replications=100, master_seed=5, params=BhtConfig(1.0, 1.0, 1e-12),
        )
        hits, lengths, report = self._drawn(monkeypatch, cfg, 150)
        assert report.power == 0.0
        first = studies.STOP_QUALITY_FIRST_DRAW
        assert lengths == [first, 150]
        assert (hits[:, :first] == 2).all() and (hits[:, first:] == 1).all()


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

        reject = _full_matrix_reject(cfg, grid, cumulative_counts(counts, grid), fht_total)
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
        from anytime_ab.simlab.studies import _bht_two_arm_reject
        from anytime_ab.bayes import bht_decide

        # The second input peeks after every event, so at n = 1 one arm is
        # still empty and both rules read its prior.
        for seed, grid, means, cfg in (
            (61, np.arange(200, 2001, 200), (0.3, 0.4), BhtConfig(epsilon=5e-3)),
            (3, np.arange(1, 41), (0.1, 0.1), BhtConfig(10, 90, 0.02)),
        ):
            counts = cumulative_counts(streams.two_arm_count_matrices(seed, 10, grid, *means), grid)
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
        exact, under = run_mde_misspec_study(cfg, [0.01, 0.02], factors=(1.0, 0.5))
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

    def test_two_arm_studies_need_arm_means(self):
        for method, run in (
            ("AsympCS", run_type1_study),
            ("AsympCS", run_power_study),
            ("AsympCS-lift", run_lift_power_study),
            ("AsympCS", lambda cfg: run_rho2_sweep(cfg, [1e-3])),
            ("AsympCS", lambda cfg: run_mde_misspec_study(cfg, [0.02])),
        ):
            with pytest.raises(ValueError, match="arm means|arm_means"):
                run(SimStudyConfig(method=method, design_mde=0.01, replications=5))

    @pytest.mark.parametrize("method", studies.METHODS)
    def test_params_type_is_decided_by_method(self, method):
        # The study runs with exactly the params its report names: the
        # method's own type, or that type's defaults when none is given.
        kind = {"BHT-uninformed": BhtConfig, "BHT-matched": BhtConfig, "BF-uninformed": BfConfig}.get(
            method, ConfSeqParams
        )
        assert SimStudyConfig(method=method).params == kind()
        for other in (ConfSeqParams(0.1, 1e-3), BhtConfig(), BfConfig(), 0.05):
            if isinstance(other, kind):
                assert SimStudyConfig(method=method, params=other).params is other
            else:
                with pytest.raises(ValueError, match=f"method {method!r} needs {kind.__name__}"):
                    SimStudyConfig(method=method, params=other)

    def test_bf_study_records_the_params_it_ran(self):
        cfg = SimStudyConfig(
            method="BF-uninformed", arm_means=(0.1, 0.1), design_mde=0.02, replications=20, master_seed=3,
        )
        report = run_type1_study(cfg)
        assert report.meta["params"] == repr(BfConfig())
        explicit = run_type1_study(replace(cfg, params=BfConfig()))
        assert explicit.to_dict() == report.to_dict()

    @pytest.mark.parametrize(
        "horizon, num_peeks, message",
        [(2_000, 0, "num_peeks of at least 1, got 0"), (2_000, -3, "num_peeks of at least 1, got -3"),
         (50, 5, "horizon of at least 100, got 50")],
    )
    def test_stop_quality_rejects_bad_grid(self, horizon, num_peeks, message):
        cfg = SimStudyConfig(
            method="AsympCS", truth_prior=(100, 100), theta0=0.5, horizon=horizon, peek_every=10,
            replications=5,
        )
        with pytest.raises(ValueError, match=message):
            run_stop_quality_study(cfg, num_peeks=num_peeks)


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


class TestThreadSplit:
    """Blocks split across threads hold the bits of one inline call, whatever the usable CPUs."""

    @pytest.fixture
    def cpus(self, monkeypatch):
        """``cpus(n, min_cells)`` sets the usable CPUs and the part minimum; a fresh pool serves the test."""
        monkeypatch.setattr(threads, "_pool", None)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # trade the GIL as often as possible

        def set_cpus(n, min_cells=1):
            monkeypatch.setattr(threads, "usable_cpus", lambda: n)
            monkeypatch.setattr(threads, "MIN_PART_CELLS", min_cells)

        try:
            yield set_cpus
        finally:
            sys.setswitchinterval(interval)
            if threads._pool is not None:
                threads._pool.shutdown()

    @staticmethod
    def _spy(monkeypatch, module, name):
        """Record the thread of every call to ``module.name``."""
        seen, original = [], getattr(module, name)

        def spy(*args, **kwargs):
            seen.append(threading.get_ident())
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
        return seen

    def test_bht_losses(self, monkeypatch, cpus):
        rng = np.random.default_rng(41)
        s = rng.integers(0, 900, size=(7, 5)).astype(np.int32)
        n = np.broadcast_to(np.array([900.0, 1e3, 2e3, 5e3, 1e4]), s.shape)
        cases = {  # (n, s, minimum part cells, threads that run parts)
            "scalar": (50.0, 20.0, 1, 1),
            "1-D": (n[0], s[0], 1, 1),
            "2-D odd rows": (n, s, 1, 3),
            "below minimum": (n, s, 1024, 1),
        }
        calls = self._spy(monkeypatch, methods, "_losses")
        for name, (n_, s_, min_cells, parts) in cases.items():
            cpus(1)
            want = methods.bht_single_losses(n_, s_, 30, 70, 0.3)
            cpus(3, min_cells)
            del calls[:]
            got = methods.bht_single_losses(n_, s_, 30, 70, 0.3)
            assert len(calls) == parts and (len(set(calls)) > 1) == (parts > 1), name
            for g, w in zip(got, want):
                assert type(g) is type(w) and np.shape(g) == np.shape(w), name
                np.testing.assert_array_equal(g, w, err_msg=name)

    @pytest.mark.parametrize("reps", [1, 2, 7])
    def test_two_arm_draws(self, monkeypatch, cpus, reps):
        grid = 10 * np.arange(1, streams._THREADED_MIN_COLUMNS + 1)
        rekeys = self._spy(monkeypatch, streams, "_rekey")
        cpus(1)
        want = streams.two_arm_count_matrices(31, reps, grid, 0.2, 0.3)
        cpus(3)
        del rekeys[:]
        got = streams.two_arm_count_matrices(31, reps, grid, 0.2, 0.3)
        assert len(rekeys) == reps and (len(set(rekeys)) > 1) == (reps > 1)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)
        del rekeys[:]
        streams.two_arm_count_matrices(31, reps, grid[:-1], 0.2, 0.3)
        assert set(rekeys) == {threading.get_ident()}  # short rows are drawn inline

    def test_worker_exception_reaches_caller(self, cpus):
        cpus(3)
        done = []

        def fail_in(part_lo):
            def fn(lo, hi):
                if lo == part_lo:
                    raise ValueError(f"part {lo}")
                time.sleep(0.05)
                done.append(lo)
                return lo, hi
            return fn

        with pytest.raises(ValueError, match="part 6"):
            threads.split_rows(fail_in(6), 9, 1)
        assert sorted(done) == [0, 3]
        with pytest.raises(ValueError, match="part 0"):
            threads.split_rows(fail_in(0), 9, 1)
        assert sorted(done) == [0, 3, 3, 6]  # the caller's own error waits for every worker part
        assert threads.split_rows(lambda lo, hi: (lo, hi), 9, 1) == [(0, 3), (3, 6), (6, 9)]

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this platform")
    def test_one_cpu_writes_the_same_reports(self, tmp_path):
        # Large enough to split two-arm draws (984 peeks) and BHT loss blocks (2,000 x 8) on two CPUs.
        configs = {
            "type1": {"methods": ["AsympCS", "mSPRT", "FHT-peeking", "LDM", "BF-uninformed"],
                      "arm_means": [0.1, 0.1], "design_mde": 0.01, "replications": 60},
            "stop-quality": {"method": "BHT-uninformed", "truth_prior": [100, 100], "theta0": 0.5,
                             "horizon": 1000000, "num_peeks": 500, "replications": 2000, "epsilon": 0.001},
        }
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        one_cpu = min(os.sched_getaffinity(0))
        for study, config in configs.items():
            path = tmp_path / f"{study}.json"
            path.write_text(json.dumps(config))
            reports = []
            for pin in (True, False):
                out = tmp_path / f"{study}-{pin}"
                subprocess.run(
                    [sys.executable, "-m", "anytime_ab.cli", "simulate", "--study", study, "--config", str(path),
                     "--out", str(out)],
                    env=env, check=True, timeout=120,
                    preexec_fn=(lambda: os.sched_setaffinity(0, {one_cpu})) if pin else None,
                )
                reports.append([(out / name).read_bytes() for name in ("report.json", "report.csv")])
            assert reports[0] == reports[1], study
