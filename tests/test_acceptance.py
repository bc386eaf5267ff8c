"""Acceptance suite: one test per release criterion, at stated tolerances.

Each test prints a single summary line (visible with ``pytest -s`` or in
the captured output of a failing run). Monte Carlo scales follow the
per-criterion settings; every run is seeded and deterministic.
"""

import json
import math
import os
import time

import numpy as np
import pytest
from scipy import integrate, stats

from anytime_ab.bayes import BfConfig, BhtConfig, log_bayes_factor
from anytime_ab.cli import main as cli_main
from anytime_ab.confseq import ConfSeqParams, asympcs_ate, msprt_log_lambda, two_sample_scale
from anytime_ab.corpus import CorpusSpec, generate_corpus
from anytime_ab.design import (
    DesignSpec,
    fixed_horizon_sample_size,
    hypothesized_sample_size,
    variance_guess_binary,
)
from anytime_ab.engine import CrossTab, analyze, crosstab
from anytime_ab.gst import compute_boundaries
from anytime_ab.moments import StreamingMoments
from anytime_ab.simlab import (
    SimStudyConfig,
    methods,
    run_lift_power_study,
    run_mde_misspec_study,
    run_power_study,
    run_rho2_sweep,
    run_stop_quality_study,
    run_type1_study,
    streams,
)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ALPHA = 0.05
RHO2 = 1e-3
PARAMS = ConfSeqParams(ALPHA, RHO2)

FHT_PER_ARM = fixed_horizon_sample_size(0.1, 0.01, ALPHA, 0.8)
FHT_TOTAL = 2 * FHT_PER_ARM


def _line(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def mc_se(p, n):
    return math.sqrt(p * (1.0 - p) / n)


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    out = tmp_path_factory.mktemp("type1")
    t0 = time.time()
    code = cli_main(
        ["simulate", "--study", "type1",
         "--config", os.path.join(REPO, "configs", "type1.json"),
         "--out", str(out)]
    )
    runtime = time.time() - t0
    assert code == 0
    with open(out / "report.json", encoding="utf-8") as fh:
        payload = json.load(fh)
    return {r["method"]: r for r in payload}, runtime, out


class TestCriterion01TypeOne:
    """Fig. 2 battery through the CLI with the bundled config."""

    def test_interval_methods_control_type1(self, reports):
        by_method, _, _ = reports
        for method in ("AsympCS", "mSPRT"):
            final = by_method[method]["cumulative_rejection_by_peek"][-1]
            _line("1", final <= 0.065, f"{method} cumulative type-I {final:.4f} <= 0.065")

    def test_peeking_inflates(self, reports):
        by_method, _, _ = reports
        rep = by_method["FHT-peeking"]
        grid = np.asarray(rep["peek_ns"])
        curve = np.asarray(rep["cumulative_rejection_by_peek"])
        at_fht = curve[np.searchsorted(grid, FHT_TOTAL)]
        ok = at_fht >= 0.10
        # Strict growth is asserted on deciles of the grid; adjacent peeks
        # can tie at finite replication counts.
        deciles = curve[np.linspace(0, len(curve) - 1, 11).astype(int)]
        ok = ok and bool(np.all(np.diff(deciles) > 0)) and bool(np.all(np.diff(curve) >= 0))
        _line("1", ok, f"FHT-peeking type-I at FHT horizon {at_fht:.3f} >= 0.10 and increasing")

    def test_ldm_spends_exactly(self, reports):
        by_method, _, _ = reports
        final = by_method["LDM"]["cumulative_rejection_by_peek"][-1]
        _line("1", abs(final - 0.05) <= 0.015, f"LDM type-I at horizon {final:.4f} = 0.05 +/- 0.015")

    def test_bayes_factor_bound(self, reports):
        by_method, _, _ = reports
        final = by_method["BF-uninformed"]["cumulative_rejection_by_peek"][-1]
        _line("1", final <= 0.05, f"BF-uninformed type-I {final:.4f} <= 0.05")

    def test_runtime_and_csv(self, reports):
        by_method, runtime, out = reports
        rows = (out / "report.csv").read_text().splitlines()
        final_asympcs = [float(r.rsplit(",", 1)[1]) for r in rows[1:] if ",AsympCS," in r][-1]
        ok = runtime < 600 and final_asympcs <= 0.065
        _line("1", ok, f"battery ran in {runtime:.0f}s (<600s), CSV final AsympCS row {final_asympcs:.4f}")


@pytest.fixture(scope="module")
def powers():
    out = {}
    for method in ("LDM", "AsympCS", "BF-uninformed"):
        cfg = SimStudyConfig(
            method=method, arm_means=(0.1, 0.11), replications=2000, master_seed=20240502,
            params=BfConfig() if method == "BF-uninformed" else ConfSeqParams(ALPHA, RHO2),
        )
        out[method] = run_power_study(cfg, horizon_multiples=(1.0, 2.0, 3.0))
    return out


class TestCriterion02PowerOrdering:

    def test_ordering_at_one_x(self, powers):
        at1 = {m: r.power_by_multiple[0][1] for m, r in powers.items()}
        ok = (
            at1["LDM"] >= at1["AsympCS"] - 0.03
            and at1["AsympCS"] >= at1["BF-uninformed"] - 0.03
        )
        _line(
            "2", ok,
            "power at 1x FHT: LDM {LDM:.3f} >= AsympCS {AsympCS:.3f} >= BF {BF-uninformed:.3f} (+/-0.03)".format(**at1),
        )

    def test_asympcs_reaches_nominal_power(self, powers):
        at3 = powers["AsympCS"].power_by_multiple[2][1]
        _line("2", at3 >= 0.8 - 0.03, f"AsympCS power at 3x FHT {at3:.3f} >= 0.77")


@pytest.fixture(scope="module")
def lift_reports():
    cfg = SimStudyConfig(
        method="AsympCS-lift", arm_means=(0.1, 0.11), replications=2000, master_seed=20240503,
    )
    return run_lift_power_study(cfg, horizon_multiples=(1.0, 2.0, 3.0))


class TestCriterion03Lift:

    def test_lift_power_never_exceeds_ate_power(self, lift_reports):
        lift = np.asarray(lift_reports["lift"].cumulative_rejection_by_peek)
        ate = np.asarray(lift_reports["ate"].cumulative_rejection_by_peek)
        ok = bool(np.all(lift <= ate + 1e-12))
        pairs = ", ".join(
            f"{m}x: {pl:.3f}<={pa:.3f}"
            for (m, pl), (_, pa) in zip(
                lift_reports["lift"].power_by_multiple, lift_reports["ate"].power_by_multiple
            )
        )
        _line("3", ok, f"paired lift power below difference power at every peek ({pairs})")

    def test_lift_null_type1(self, lift_reports):
        final = lift_reports["lift-aa"].cumulative_rejection_by_peek[-1]
        _line("3", final <= 0.065, f"lift null-stream type-I {final:.4f} <= 0.065")


MDE_GRID = (0.005, 0.01, 0.02, 0.04)


@pytest.fixture(scope="module")
def grid_results():
    results = {}
    for mde in MDE_GRID:
        spec = DesignSpec(theta_h1=mde, sigma2_guess=variance_guess_binary(0.1, mde))
        n_star = hypothesized_sample_size(spec, PARAMS)
        step = max(1, n_star // 500)
        grid = np.arange(step, n_star + 1, step, dtype=np.int64)
        if grid[-1] != n_star:
            grid = np.append(grid, n_star)
        counts = streams.two_arm_count_matrices(20240504, 10_000, grid, 0.1, 0.1 + mde)
        reject = methods.ate_reject(*counts, ALPHA, RHO2)
        stop_idx = methods.first_crossing(reject)
        stop_n = np.where(stop_idx >= 0, grid[stop_idx].astype(float), np.inf)
        results[mde] = (n_star, reject.any(axis=1).mean(), float(np.quantile(stop_n, 0.8, method="lower")))
    return results


class TestCriterion04SampleSizeCalculator:

    def test_rejection_by_n_star(self, grid_results):
        for mde, (n_star, frac, _) in grid_results.items():
            _line("4", frac >= 0.78, f"mde={mde}: rejection by n*={n_star} is {frac:.3f} >= 0.78")

    def test_n_star_conservative(self, grid_results):
        for mde, (n_star, _, q80) in grid_results.items():
            _line("4", n_star >= q80, f"mde={mde}: n*={n_star} >= empirical 80th pct stop {q80:.0f}")


RHO_GRID = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1)


@pytest.fixture(scope="module")
def sweep():
    cfg = SimStudyConfig(
        method="AsympCS", arm_means=(0.1, 0.11), replications=2000, master_seed=20240505,
    )
    return {r.meta["rho2"]: r for r in run_rho2_sweep(cfg, RHO_GRID)}


class TestCriterion05RhoSweep:

    def test_type1_everywhere(self, sweep):
        bound = 0.065
        worst = max(r.meta["type1"] for r in sweep.values())
        _line("5", worst <= bound, f"type-I across rho2 grid: worst {worst:.4f} <= {bound}")

    def test_power_collapses_for_tiny_rho2(self, sweep):
        low = sweep[1e-6].meta["power_at_2x"]
        default = sweep[1e-3].meta["power_at_2x"]
        _line("5", default - low >= 0.1, f"power at 2x: rho2=1e-3 {default:.3f} vs 1e-6 {low:.3f} (gap >= 0.1)")

    def test_default_sits_on_plateau(self, sweep):
        best = max(r.meta["power_at_2x"] for r in sweep.values())
        default = sweep[1e-3].meta["power_at_2x"]
        _line("5", default >= best - 0.05, f"default rho2=1e-3 power {default:.3f} within 0.05 of best {best:.3f}")


EFFECTS = (0.005, 0.0075, 0.01, 0.015, 0.02, 0.03)


@pytest.fixture(scope="module")
def cfg():
    return SimStudyConfig(
        method="AsympCS", arm_means=(0.1, 0.1), design_mde=0.01,
        replications=1000, master_seed=20240506,
    )


class TestCriterion06MdeMisspecification:

    def test_correctly_specified_mde(self, cfg):
        report = run_mde_misspec_study(EFFECTS, 1.0, cfg)
        median = report.meta["median_ratio"]
        ratios = [r for _, r in report.stop_ratio_by_effect]
        ok = 1.0 <= median <= 4.0 and all(r >= 1.0 for r in ratios)
        _line("6", ok, f"factor=1: median stop-time ratio {median:.2f} in [1, 4]")

    def test_half_underestimated_mde(self, cfg):
        report = run_mde_misspec_study(EFFECTS, 0.5, cfg)
        median = report.meta["median_ratio"]
        _line("6", median <= 0.7, f"factor=0.5: median stop-time ratio {median:.2f} <= 0.7")


class TestCriterion07BoundarySolver:
    def test_single_peek(self):
        sched = compute_boundaries([1.0], ALPHA)
        b = sched.boundaries[0]
        _line("7", abs(b - 1.959964) <= 1e-4, f"single-peek boundary {b:.6f} = 1.959964 +/- 1e-4")

    @staticmethod
    def _mc_oracle(fractions, boundaries, n_paths, seed):
        rng = np.random.Generator(np.random.Philox(key=seed))
        fractions = np.asarray(fractions)
        sds = np.sqrt(np.diff(fractions, prepend=0.0))
        s = np.zeros(n_paths)
        alive = np.ones(n_paths, dtype=bool)
        crossed = 0
        cum = []
        for k, t in enumerate(fractions):
            s += rng.standard_normal(n_paths) * sds[k]
            hit = alive & (np.abs(s) >= boundaries[k] * math.sqrt(t))
            crossed += int(hit.sum())
            alive &= ~hit
            cum.append(crossed / n_paths)
        return np.asarray(cum)

    def test_two_peeks_against_million_path_oracle(self):
        sched = compute_boundaries([0.5, 1.0], ALPHA)
        cum = self._mc_oracle(sched.peek_fractions, sched.boundaries, 10**6, seed=71)
        err = np.max(np.abs(cum - np.asarray(sched.cumulative_spend)))
        _line("7", err <= 0.002, f"two-peek crossing probabilities within {err:.5f} of spend (tol 0.002)")

    def test_hundred_peeks_against_million_path_oracle(self):
        fr = (np.arange(1, 101) / 100.0).tolist()
        sched = compute_boundaries(fr, ALPHA)
        cum = self._mc_oracle(sched.peek_fractions, sched.boundaries, 10**6, seed=72)
        err = np.max(np.abs(cum - np.asarray(sched.cumulative_spend)))
        _line("7", err <= 0.002, f"100-peek crossing probabilities within {err:.5f} of spend (tol 0.002)")


class TestCriterion08BayesianOracles:
    def test_closed_form_loss_grid(self):
        rng = np.random.default_rng(808)
        worst = 0.0
        for _ in range(20):
            a = float(rng.integers(2, 200))
            b = float(rng.integers(2, 200))
            theta0 = float(rng.uniform(0.05, 0.95))
            # With no data the kernel evaluates the Beta(a, b) prior itself.
            below, above = methods.bht_single_losses(0.0, 0.0, a, b, theta0)
            oracle_below, _ = integrate.quad(
                lambda t: (theta0 - t) * stats.beta.pdf(t, a, b), 0.0, theta0, epsabs=1e-13, limit=200
            )
            oracle_above, _ = integrate.quad(
                lambda t: (t - theta0) * stats.beta.pdf(t, a, b), theta0, 1.0, epsabs=1e-13, limit=200
            )
            worst = max(worst, abs(below - oracle_below), abs(above - oracle_above))
        _line(
            "8", worst <= 1e-8,
            f"bht_single_losses below and above vs quadrature on 20-case grid: max err {worst:.2e} <= 1e-8",
        )

    def test_bht_matched_prior_loss_calibration(self):
        cfg = SimStudyConfig(
            method="BHT-matched", truth_prior=(100, 100), theta0=0.5, horizon=10_000_000,
            replications=5000, master_seed=20240508, params=BhtConfig(100.0, 100.0, 1e-4),
        )
        report = run_stop_quality_study(cfg, num_peeks=4000)
        loss = report.mean_loss_at_stop
        ok = abs(loss - 1e-4) <= 0.2e-4
        _line("8", ok, f"matched-prior mean loss at stop {loss:.3e} within +/-20% of eps=1e-4")

    def test_bayes_factor_hand_value(self):
        bf = math.exp(log_bayes_factor(0, 1, 1, 1, BfConfig()))
        _line("8", abs(bf - 1.5) <= 1e-12, f"Bayes factor hand value {bf!r} = 1.5 +/- 1e-12")


class TestCriterion09MiscoverageAtStop:
    HORIZON = 1_000_000
    REPS = 10_000

    def test_interval_methods(self):
        bound = 0.05 + 3 * mc_se(0.05, self.REPS)
        for method in ("AsympCS", "mSPRT"):
            cfg = SimStudyConfig(
                method=method, truth_prior=(100, 100), theta0=0.5, horizon=self.HORIZON,
                replications=self.REPS, master_seed=20240509,
            )
            report = run_stop_quality_study(cfg, num_peeks=500)
            mis = report.miscoverage_at_stop
            _line("9", mis <= bound, f"{method} miscoverage at stop {mis:.4f} <= {bound:.4f}")

    def test_flat_prior_exceeds_bound_somewhere(self):
        worst = 0.0
        details = []
        for eps in (1e-2, 1e-3, 1e-4):
            cfg = SimStudyConfig(
                method="BHT-uninformed", truth_prior=(100, 100), theta0=0.5, horizon=self.HORIZON,
                replications=self.REPS, master_seed=20240509, params=BhtConfig(1.0, 1.0, eps),
            )
            report = run_stop_quality_study(cfg, num_peeks=500)
            details.append(f"eps={eps:g}: {report.miscoverage_at_stop:.4f}")
            worst = max(worst, report.miscoverage_at_stop)
        _line("9", worst > 0.05, "flat-prior credible-interval miscoverage exceeds 0.05 (" + ", ".join(details) + ")")


class TestCriterion10DeterminismAndProperties:
    def test_reports_byte_identical(self):
        cfg = SimStudyConfig(
            method="AsympCS", arm_means=(0.1, 0.1), design_mde=0.01,
            replications=200, master_seed=101,
        )
        a = run_type1_study(cfg).to_json().encode()
        b = run_type1_study(cfg).to_json().encode()
        _line("10", a == b, f"repeated study runs byte-identical ({len(a)} bytes)")

    def test_shard_invariance(self):
        rng = np.random.default_rng(515)
        values = rng.normal(size=50_000)
        direct = StreamingMoments.from_values(values)
        ok = True
        for n_shards in (1, 2, 5, 16, 64):
            parts = np.array_split(values, n_shards)
            acc = StreamingMoments()
            for part in parts:
                acc = acc.merge(StreamingMoments.from_values(part))
            ok = ok and acc.count == direct.count
            ok = ok and abs(acc.mean - direct.mean) <= 1e-10 * max(1.0, abs(direct.mean))
            ok = ok and abs(acc.m2 - direct.m2) <= 1e-10 * direct.m2
        _line("10", ok, "accumulator state invariant across 1/2/5/16/64 shards")

    def test_merge_property_suite(self):
        rng = np.random.default_rng(616)
        cases = 100_000
        failures = 0
        for _ in range(cases):
            m = int(rng.integers(2, 25))
            values = rng.normal(scale=rng.choice([1e-6, 1.0, 1e6]), size=m)
            cut = int(rng.integers(0, m + 1))
            left = StreamingMoments.from_values(values[:cut])
            right = StreamingMoments.from_values(values[cut:])
            merged = left.merge(right)
            direct = StreamingMoments.from_values(values)
            tol = 1e-10 * max(1.0, abs(direct.mean))
            if merged.count != direct.count or abs(merged.mean - direct.mean) > tol:
                failures += 1
            elif abs(merged.m2 - direct.m2) > 1e-10 * max(1.0, direct.m2):
                failures += 1
        _line("10", failures == 0, f"merge/update equivalence on {cases} randomized cases ({failures} failures)")

    def test_p_process_monotone_suite(self):
        rng = np.random.default_rng(717)
        steps_total = 0
        violations = 0
        while steps_total < 100_000:
            arm0, arm1 = StreamingMoments(), StreamingMoments()
            drift = rng.choice([0.0, 0.03])
            rows = []
            for _ in range(500):
                arm0 = arm0.update(float(rng.random() < 0.3))
                arm1 = arm1.update(float(rng.random() < 0.3 + drift))
                rows.append((arm0.count, arm1.count, arm0.mean, arm1.mean,
                             arm0.m2 / max(arm0.count, 1), arm1.m2 / max(arm1.count, 1)))
            # The always-valid p-process: running minimum of 1/lambda from p = 1,
            # stepping only where the mixture test is defined.
            loglam, valid = msprt_log_lambda(*two_sample_scale(*np.array(rows, dtype=float).T), PARAMS.rho2)
            p = np.minimum.accumulate(np.concatenate(([1.0], np.exp(-loglam[valid]))))
            violations += int(np.sum(~(p[1:] <= p[:-1])))
            steps_total += int(valid.sum())
        _line("10", violations == 0, f"p-process nonincreasing over {steps_total} randomized steps")

    def test_interval_determinism_suite(self):
        rng = np.random.default_rng(818)
        cases = 100_000
        n0, n1 = rng.integers(1, 500, size=(2, cases)).astype(float)
        c0, c1 = rng.integers(0, n0 + 1), rng.integers(0, n1 + 1)
        # Kernel columns of binary arms: count, mean and biased variance m2 / n.
        columns = (n0, n1, c0 / n0, c1 / n1, (c0 - c0 * c0 / n0) / n0, (c1 - c1 * c1 / n1) / n1)

        def bits(*cols):
            # (center, half-width, valid) rows of the kernel, as raw 64-bit words.
            return np.array(asympcs_ate(*cols, PARAMS.alpha, PARAMS.rho2), dtype=float).view(np.uint64)

        a, b = bits(*columns), bits(*columns)
        mismatches = int(np.sum(np.any(a != b, axis=0)))
        # Each entry is also its own one-entry evaluation: blocked first crossings rely on that.
        for i in range(cases):
            mismatches += int(np.any(bits(*(column[i] for column in columns)) != a[:, i]))
        _line("10", mismatches == 0, f"interval evaluation bit-deterministic on {cases} random states")


class TestTable1AndCorpus:
    def test_published_counts_formatting(self):
        table = CrossTab(593, 308, 3, 1185)
        ok = (
            table.percentages() == ("28%", "15%", "0.1%", "57%")
            and table.row_totals == (901, 1188)
            and table.col_totals == (596, 1493)
            and table.total == 2089
        )
        _line("table1", ok, "published counts render as 28%/15%/0.1%/57% with totals 901/1188/596/1493/2089")

    def test_synthetic_corpus_recovers_ground_truth(self, tmp_path):
        spec = CorpusSpec(
            counts={"both-sig": 11, "fht-only-sig": 6, "cs-only-sig": 0, "neither-sig": 23},
            seed=4242,
        )
        manifest = generate_corpus(str(tmp_path), spec)
        params = ConfSeqParams(spec.alpha, spec.rho2)
        records = []
        for name in sorted(manifest["assignments"]):
            for method in ("fht-peeking", "asympcs"):
                record, _ = analyze(
                    str(tmp_path / name), method, params, snapshot_every=spec.snapshot_every
                )
                records.append(record)
        table = crosstab(records)
        got = {
            "both-sig": table.fht_sig_cs_sig,
            "fht-only-sig": table.fht_sig_cs_not,
            "cs-only-sig": table.fht_not_cs_sig,
            "neither-sig": table.fht_not_cs_not,
        }
        ok = got == manifest["expected_counts"]
        _line("corpus", ok, f"pipeline cross-tab equals generator ground truth {got}")
