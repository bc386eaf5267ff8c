"""Monte Carlo studies over the streaming decision rules.

Each study simulates Bernoulli experiments on a peek grid, applies one
method's stopping rule to every replication, and aggregates first
crossings. Replication streams are keyed by (master_seed, replication
index) and the peek grid is a function of the study settings alone, never
of the method, so runs with different methods but the same seed consume
identical outcome streams and are directly comparable. The last two-arm
draw is memoized read-only, so a battery of methods over one seed draws
its stream once. A study needs only each replication's first crossing,
so every study, two-arm or stop-quality, evaluates its rule in blocks of
peeks through ``methods.blocked_first_crossing`` and stops evaluating a
replication once it has crossed; ``_stop_idx`` is the one two-arm
dispatch, and reports are built from the stop indices.

Default scales are desk sized (thousands of replications, peeks every
hundred observations); each report's ``meta`` records the scale it ran
at.
"""

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np
from scipy.special import betaincinv

from .. import design
from ..bayes import BetaPosterior, BfConfig, BhtConfig, two_arm_expected_loss
from ..confseq import ConfSeqParams, excludes, mean_interval, msprt_interval
from ..gst import SpendingSchedule, compute_boundaries
from . import methods, streams
from .report import SimReport

METHODS = (
    "FHT",
    "FHT-peeking",
    "LDM",
    "mSPRT",
    "AsympCS",
    "AsympCS-lift",
    "BHT-uninformed",
    "BHT-matched",
    "BF-uninformed",
)

LDM_PEEK_COUNT = 100
DESIGN_POWER = 0.8
STOP_QUALITY_START = 100
STOP_QUALITY_PEEKS = 400
HORIZON_MULTIPLES = (1.0, 2.0, 3.0)
MISSPEC_HORIZON_MULTIPLE = 6.0
MISSPEC_PEEKS = 500


@dataclass
class SimStudyConfig:
    """Declarative description of one study run.

    ``params`` carries the method's own knobs: ConfSeqParams for the
    interval methods and for LDM (whose alpha sets the 100-peek spending
    schedule), BhtConfig or BfConfig for the Bayesian rules.
    ``design_mde`` anchors the fixed-horizon sample size that peek
    schedules and horizon multiples refer to, at ``DESIGN_POWER``; it
    defaults to the true difference of ``arm_means`` when they differ.
    """

    method: str
    arm_means: tuple[float, float] | None = None
    truth_prior: tuple[float, float] | None = None
    replications: int = 2000
    horizon: int | None = None
    peek_every: int = 100
    master_seed: int = 0
    params: object = field(default_factory=ConfSeqParams)
    theta0: float = 0.0
    design_mde: float | None = None
    design_alpha: float = 0.05

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        if self.peek_every < 1:
            raise ValueError("peek_every must be at least 1")
        if self.horizon is not None and self.horizon < self.peek_every:
            raise ValueError("horizon must be at least peek_every")


def _confseq_params(cfg: SimStudyConfig) -> ConfSeqParams:
    if isinstance(cfg.params, ConfSeqParams):
        return cfg.params
    raise ValueError(f"method {cfg.method!r} needs ConfSeqParams, got {type(cfg.params).__name__}")


def _alpha(cfg: SimStudyConfig) -> float:
    if isinstance(cfg.params, ConfSeqParams):
        return cfg.params.alpha
    return cfg.design_alpha


def _fht_total(cfg: SimStudyConfig) -> int:
    """Total two-arm fixed-horizon sample size anchoring the study."""
    if cfg.arm_means is None:
        raise ValueError("study needs arm_means")
    p0, p1 = cfg.arm_means
    mde = cfg.design_mde if cfg.design_mde is not None else p1 - p0
    if mde == 0.0:
        raise ValueError("study needs design_mde when arm means are equal")
    per_arm = design.fixed_horizon_sample_size(p0, mde, _alpha(cfg), DESIGN_POWER)
    return 2 * per_arm


@lru_cache(maxsize=32)
def _cached_schedule(fractions: tuple, alpha: float) -> SpendingSchedule:
    return compute_boundaries(fractions, alpha)


@lru_cache(maxsize=1)
def _cached_two_arm_counts(master_seed: int, reps: int, grid: tuple, p0: float, p1: float) -> tuple:
    counts = streams.two_arm_count_matrices(master_seed, reps, np.asarray(grid, dtype=np.int64), p0, p1)
    for matrix in counts:
        matrix.flags.writeable = False
    return counts


def _two_arm_counts(cfg: SimStudyConfig, grid: np.ndarray, p0: float, p1: float) -> tuple:
    """Read-only (n0, n1, s0, s1); consecutive studies on the same stream draw it once."""
    return _cached_two_arm_counts(cfg.master_seed, cfg.replications, tuple(grid.tolist()), p0, p1)


def _ldm_peek_ns(fht_total: int) -> np.ndarray:
    ks = np.arange(1, LDM_PEEK_COUNT + 1, dtype=float)
    ns = np.maximum(np.round(ks / LDM_PEEK_COUNT * fht_total), 1.0).astype(np.int64)
    return np.unique(ns)


def _study_grid(cfg: SimStudyConfig, horizon: int, fht_total: int, markers=()) -> np.ndarray:
    base = np.arange(cfg.peek_every, horizon + 1, cfg.peek_every, dtype=np.int64)
    parts = [base, np.asarray([horizon], dtype=np.int64)]
    ldm = _ldm_peek_ns(fht_total)
    parts.append(ldm[ldm <= horizon])
    if markers:
        mk = np.asarray(sorted(markers), dtype=np.int64)
        parts.append(mk[mk <= horizon])
    grid = np.unique(np.concatenate(parts))
    return grid[grid >= 1]


def _marker_grid(cfg: SimStudyConfig, fht_total: int, horizon_multiples):
    """Horizon, peek grid, and (multiple, grid column) for each multiple of ``fht_total``."""
    if not (isinstance(horizon_multiples, (list, tuple)) and horizon_multiples
            and all(isinstance(m, (int, float)) and 0.0 < m < math.inf for m in horizon_multiples)):
        raise ValueError(f"horizon_multiples must be a nonempty list of positive numbers, got {horizon_multiples!r}")
    marker_ns = [min(max(int(round(m * fht_total)), 1), 10**12) for m in horizon_multiples]
    horizon = cfg.horizon if cfg.horizon is not None else max(marker_ns)
    grid = _study_grid(cfg, horizon, fht_total, markers=marker_ns)
    columns = [int(np.searchsorted(grid, min(n, horizon))) for n in marker_ns]
    return horizon, grid, [(float(m), col) for m, col in zip(horizon_multiples, columns)]


def _stop_idx(cfg: SimStudyConfig, grid: np.ndarray, counts, fht_total: int | None = None) -> np.ndarray:
    """Each replication's first-crossing peek under ``cfg.method``, -1 if none.

    ``counts`` are the (n0, n1, s0, s1) matrices on ``grid``. Every rule
    sees one block of peeks at a time, so a replication is evaluated no
    further than the block where it crosses.
    """
    method, theta0, alpha = cfg.method, cfg.theta0, _alpha(cfg)
    look = np.ones(grid.size, dtype=bool)  # the peeks at which the rule may stop
    if method in ("AsympCS", "AsympCS-lift", "mSPRT"):
        rho2 = _confseq_params(cfg).rho2
        kernel = {"AsympCS": methods.ate_reject, "AsympCS-lift": methods.lift_reject,
                  "mSPRT": methods.msprt_reject}[method]
        rule = lambda block, cols: kernel(*block, alpha, rho2, theta0)
    elif method in ("FHT", "FHT-peeking"):
        if method == "FHT":
            look = np.arange(grid.size) == np.searchsorted(grid, min(fht_total, grid[-1]))
        rule = lambda block, cols: methods.z_reject(*block, alpha, theta0) & look[cols]
    elif method == "LDM":
        ldm_ns = _ldm_peek_ns(fht_total)
        schedule = _cached_schedule(tuple((ldm_ns / fht_total).tolist()), alpha)
        cols = np.searchsorted(grid, ldm_ns)
        if np.any(cols >= grid.size) or np.any(grid[cols] != ldm_ns):
            raise ValueError("schedule peeks are not on the study grid")
        # NaN off the schedule, where |z| >= bound is never true.
        bounds = np.full(grid.size, np.nan)
        bounds[cols] = schedule.boundaries
        look = ~np.isnan(bounds)

        def rule(block, cols):
            z, valid = methods.z_statistic_arrays(*block, theta0)
            return valid & (np.abs(z) >= bounds[cols])
    elif method == "BF-uninformed":
        bf = cfg.params if isinstance(cfg.params, BfConfig) else BfConfig()
        rule = lambda block, cols: methods.bf_reject(*block, bf.prior_a, bf.prior_b, bf.odds_threshold)
    elif method in ("BHT-uninformed", "BHT-matched"):
        bht = cfg.params if isinstance(cfg.params, BhtConfig) else BhtConfig()
        rule = lambda block, cols: _bht_two_arm_reject(*block, bht)
    else:
        raise ValueError(f"unhandled method {method!r}")
    # Peeks after the last look cannot cross, so they are never evaluated.
    stop_idx, _ = methods.blocked_first_crossing(
        lambda rows, cols: (rule([matrix[rows, cols] for matrix in counts], cols),),
        cfg.replications, int(np.flatnonzero(look)[-1]) + 1,
    )
    return stop_idx


def _bht_two_arm_reject(n0, n1, s0, s1, cfg: BhtConfig) -> np.ndarray:
    """Expected-loss stopping over count matrices, exact Beta tail sums, each row up to its first crossing.

    Costs O(conversions) per cell, so this is meant for desk-scale runs;
    the closed-form single-arm path covers the large calibration studies.
    """
    reps, peeks = n0.shape
    reject = np.zeros((reps, peeks), dtype=bool)
    for r in range(reps):
        for j in range(peeks):
            if n0[r, j] < 1 or n1[r, j] < 1:
                continue
            post0 = BetaPosterior(cfg.prior_a + s0[r, j], cfg.prior_b + n0[r, j] - s0[r, j])
            post1 = BetaPosterior(cfg.prior_a + s1[r, j], cfg.prior_b + n1[r, j] - s1[r, j])
            loss0 = two_arm_expected_loss(post0, post1, "arm0")
            loss1 = max(loss0 - (post1.mean - post0.mean), 0.0)
            if min(loss0, loss1) < cfg.epsilon:
                reject[r, j] = True
                break
    return reject


def _stop_n(stop_idx: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Sample size at each replication's first crossing, +inf if it never crossed."""
    return np.where(stop_idx >= 0, grid.astype(float)[stop_idx], np.inf)


def _quantiles(stop_n: np.ndarray) -> dict[str, float | None]:
    out = {}
    for q in (0.5, 0.8, 0.9):
        v = float(np.quantile(stop_n, q, method="lower"))
        out[f"{q}"] = v if math.isfinite(v) else None
    return out


def _base_report(cfg: SimStudyConfig, study: str, grid, stop_idx, curve, horizon: int, **extra) -> SimReport:
    meta = {
        "scale": f"{cfg.replications} replications, {len(grid)} peeks",
        "peek_every": cfg.peek_every,
        "params": repr(cfg.params),
        "theta0": cfg.theta0,
    }
    meta.update(extra.pop("meta", {}))
    return SimReport(
        study=study,
        method=cfg.method,
        replications=cfg.replications,
        horizon=horizon,
        master_seed=cfg.master_seed,
        peek_ns=[int(n) for n in grid],
        cumulative_rejection_by_peek=[float(v) for v in curve],
        stop_time_quantiles=_quantiles(_stop_n(stop_idx, grid)),
        meta=meta,
        **extra,
    )


def _power_report(cfg: SimStudyConfig, study: str, stop_idx, horizon: int, grid, markers, fht_total: int) -> SimReport:
    """Report of one set of first crossings with its rate at each (multiple, grid column) marker."""
    curve = methods.cumulative_fraction(stop_idx, grid.size)
    by_multiple = [(m, float(curve[col])) for m, col in markers]
    return _base_report(
        cfg, study, grid, stop_idx, curve, horizon,
        power=by_multiple[-1][1],
        power_by_multiple=by_multiple,
        meta={"fht_total": fht_total},
    )


def run_type1_study(cfg: SimStudyConfig) -> SimReport:
    """Cumulative first-rejection frequency under equal arm means."""
    if cfg.arm_means is None or cfg.arm_means[0] != cfg.arm_means[1]:
        raise ValueError("type-1 study needs equal arm means")
    p0 = cfg.arm_means[0]
    fht_total = _fht_total(cfg)
    horizon = cfg.horizon if cfg.horizon is not None else 3 * fht_total
    grid = _study_grid(cfg, horizon, fht_total, markers=[fht_total])
    stop_idx = _stop_idx(cfg, grid, _two_arm_counts(cfg, grid, p0, p0), fht_total)
    curve = methods.cumulative_fraction(stop_idx, grid.size)
    return _base_report(
        cfg, "type1", grid, stop_idx, curve, horizon,
        power=float(curve[-1]),
        meta={"fht_total": fht_total, "type1_at_fht": float(curve[np.searchsorted(grid, min(fht_total, horizon))])},
    )


def run_power_study(cfg: SimStudyConfig, horizon_multiples=HORIZON_MULTIPLES) -> SimReport:
    """Rejection frequency at multiples of the fixed-horizon sample size.

    With equal arm means the power curve is, by definition, the type-I
    curve; that degenerate case is allowed for exactly that comparison.
    """
    if cfg.arm_means is None:
        raise ValueError("power study needs arm_means")
    p0, p1 = cfg.arm_means
    fht_total = _fht_total(cfg)
    horizon, grid, markers = _marker_grid(cfg, fht_total, horizon_multiples)
    stop_idx = _stop_idx(cfg, grid, _two_arm_counts(cfg, grid, p0, p1), fht_total)
    return _power_report(cfg, "power", stop_idx, horizon, grid, markers, fht_total)


def run_lift_power_study(
    cfg: SimStudyConfig,
    horizon_multiples=HORIZON_MULTIPLES,
    lift_grid=None,
) -> dict[str, SimReport]:
    """Paired lift-rule and difference-rule power, plus a null lift run.

    Returns reports keyed "lift", "ate", and "lift-aa"; all three consume
    streams generated from the same master seed. With ``lift_grid``, the
    "lift" report's meta carries (true lift, lift power, difference
    power) triples at the final horizon.
    """
    if cfg.method != "AsympCS-lift":
        raise ValueError(f"lift-power study runs AsympCS-lift only, got {cfg.method!r}")
    if cfg.arm_means is None:
        raise ValueError("lift study needs arm_means")
    if cfg.theta0 != 0.0:
        raise ValueError(f"lift study tests a lift and a difference of 0, got theta0={cfg.theta0}")
    p0, p1 = cfg.arm_means
    ate_cfg = replace(cfg, method="AsympCS")
    fht_total = _fht_total(cfg)
    horizon, grid, markers = _marker_grid(cfg, fht_total, horizon_multiples)

    def _pair(pa, pb):
        counts = _two_arm_counts(cfg, grid, pa, pb)
        return _stop_idx(cfg, grid, counts), _stop_idx(ate_cfg, grid, counts)

    lift_idx, ate_idx = _pair(p0, p1)
    aa_lift_idx = _stop_idx(cfg, grid, _two_arm_counts(cfg, grid, p0, p0))
    # Every report carries the study's own cfg, so all three name AsympCS-lift.
    reports = {
        key: _power_report(cfg, f"lift-power:{key}", stop_idx, horizon, grid, markers, fht_total)
        for key, stop_idx in (("lift", lift_idx), ("ate", ate_idx), ("lift-aa", aa_lift_idx))
    }

    if lift_grid:
        rows = []
        for lift in lift_grid:
            pb = p0 * (1.0 + lift)
            lift_at, ate_at = _pair(p0, pb)
            rows.append((float(lift), float(np.mean(lift_at >= 0)), float(np.mean(ate_at >= 0))))
        reports["lift"].meta["power_by_lift"] = rows
    return reports


def run_rho2_sweep(cfg: SimStudyConfig, rho2_grid) -> list[SimReport]:
    """Type-I at the horizon and power at twice the anchor, per tuning value.

    The null and alternative stream sets are each generated once and
    shared across the whole grid, so the sweep is paired in the tuning
    parameter.
    """
    if cfg.method not in ("AsympCS", "mSPRT"):
        raise ValueError("tuning sweep applies to the interval methods")
    if cfg.arm_means is None:
        raise ValueError("sweep needs arm_means (the alternative pair)")
    p0, p1 = cfg.arm_means
    if p1 <= p0 and cfg.design_mde is None:
        raise ValueError("sweep needs a positive effect or explicit design_mde")
    p = _confseq_params(cfg)
    fht_total = _fht_total(cfg)
    horizon = cfg.horizon if cfg.horizon is not None else 3 * fht_total
    power_marker = min(2 * fht_total, horizon)
    grid = _study_grid(cfg, horizon, fht_total, markers=[power_marker])
    aa = _two_arm_counts(cfg, grid, p0, p0)
    h1 = _two_arm_counts(cfg, grid, p0, p1)
    marker_col = np.searchsorted(grid, power_marker)

    reports = []
    for rho2 in rho2_grid:
        tuned = replace(cfg, params=ConfSeqParams(p.alpha, rho2))
        aa_idx = _stop_idx(tuned, grid, aa)
        curve = methods.cumulative_fraction(aa_idx, grid.size)
        power_curve = methods.cumulative_fraction(_stop_idx(tuned, grid, h1), grid.size)
        reports.append(
            _base_report(
                cfg, "rho2-sweep", grid, aa_idx, curve, horizon,
                power=float(power_curve[marker_col]),
                meta={
                    "rho2": float(rho2),
                    "fht_total": fht_total,
                    "type1": float(curve[-1]),
                    "power_at_2x": float(power_curve[marker_col]),
                },
            )
        )
    return reports


def run_mde_misspec_study(effect_distribution, factor: float, cfg: SimStudyConfig) -> SimReport:
    """Stopping time of the anytime rule against a misspecified fixed horizon.

    For each true effect, simulates the anytime rule's stop times, takes
    the 80th percentile, and divides by the fixed-horizon total sized
    with MDE = factor * effect; factor < 1 models an analyst who
    underestimated the effect.
    """
    if cfg.method != "AsympCS":
        raise ValueError(f"mde-misspec study runs AsympCS only, got {cfg.method!r}")
    if factor <= 0.0:
        raise ValueError("factor must be positive")
    if cfg.arm_means is None:
        raise ValueError("misspecification study needs arm_means (baseline rate first)")
    p0 = cfg.arm_means[0]
    p = _confseq_params(cfg)
    ratios = []
    per_effect = {}
    for theta in effect_distribution:
        per_arm_true = design.fixed_horizon_sample_size(p0, theta, p.alpha, DESIGN_POWER)
        horizon = int(math.ceil(MISSPEC_HORIZON_MULTIPLE * 2 * per_arm_true))
        step = max(1, horizon // MISSPEC_PEEKS)
        grid = np.arange(step, horizon + 1, step, dtype=np.int64)
        stop_idx = _stop_idx(cfg, grid, _two_arm_counts(cfg, grid, p0, p0 + theta))
        q80 = float(np.quantile(_stop_n(stop_idx, grid), 0.8, method="lower"))
        per_arm_assumed = design.fixed_horizon_sample_size(p0, factor * theta, p.alpha, DESIGN_POWER)
        ratio = q80 / (2 * per_arm_assumed)
        ratios.append((float(theta), float(ratio)))
        per_effect[f"{theta}"] = {"q80": q80, "fht_total_assumed": 2 * per_arm_assumed}
    finite = [r for _, r in ratios if math.isfinite(r)]
    median = float(np.median(finite)) if finite else None
    return SimReport(
        study="mde-misspec",
        method=cfg.method,
        replications=cfg.replications,
        horizon=0,
        master_seed=cfg.master_seed,
        peek_ns=[],
        cumulative_rejection_by_peek=[],
        stop_ratio_by_effect=ratios,
        meta={
            "factor": float(factor),
            "median_ratio": median,
            "per_effect": per_effect,
            "scale": f"{cfg.replications} replications per effect",
        },
    )


def run_stop_quality_study(cfg: SimStudyConfig, num_peeks: int = STOP_QUALITY_PEEKS) -> SimReport:
    """Single-arm stop-time quality: miscoverage, calibration, loss at stop.

    The true rate is drawn per replication from ``truth_prior`` and
    compared against the fixed baseline ``theta0``, a rate in [0, 1].
    Peeks are log spaced between ``STOP_QUALITY_START`` and the horizon.
    Supports the one-sample interval methods and the expected-loss rule.
    """
    if cfg.truth_prior is None:
        raise ValueError("stop-quality study needs truth_prior")
    if cfg.horizon is None:
        raise ValueError("stop-quality study needs an explicit horizon")
    if not 0.0 <= cfg.theta0 <= 1.0:
        raise ValueError(f"stop-quality study needs theta0 in [0, 1], got {cfg.theta0}")
    horizon = cfg.horizon
    grid = np.unique(np.round(np.geomspace(STOP_QUALITY_START, horizon, num_peeks)).astype(np.int64))
    theta, s = streams.single_arm_count_matrices(cfg.master_seed, cfg.replications, grid, cfg.truth_prior)
    n_grid = grid.astype(float)
    theta0 = cfg.theta0
    mean_loss = None

    def cells(rows, cols):
        s_block = s[rows, cols]
        return np.broadcast_to(n_grid[cols], s_block.shape), s_block

    if cfg.method in ("AsympCS", "mSPRT"):
        p = _confseq_params(cfg)
        interval = mean_interval if cfg.method == "AsympCS" else msprt_interval

        def rule(rows, cols):
            n_block, s_block = cells(rows, cols)
            center, hw, valid = interval(n_block, *methods.bernoulli_arm(n_block, s_block), p.alpha, p.rho2)
            lower, upper = center - hw, center + hw
            return excludes(lower, upper, valid, theta0), center, lower, upper

        stop_idx, (center, lower, upper) = methods.blocked_first_crossing(rule, cfg.replications, grid.size)
        rows = np.flatnonzero(stop_idx >= 0)
        lower, upper, inferred = lower[rows], upper[rows], center[rows]
    elif cfg.method in ("BHT-uninformed", "BHT-matched"):
        bht = cfg.params if isinstance(cfg.params, BhtConfig) else BhtConfig()

        def rule(rows, cols):
            loss_below, loss_above = methods.bht_single_losses(*cells(rows, cols), bht.prior_a, bht.prior_b, theta0)
            return np.minimum(loss_below, loss_above) < bht.epsilon, loss_below, loss_above

        stop_idx, (loss_below, loss_above) = methods.blocked_first_crossing(rule, cfg.replications, grid.size)
        rows = np.flatnonzero(stop_idx >= 0)
        s_stop = s[rows, stop_idx[rows]]
        post_a = bht.prior_a + s_stop
        post_b = bht.prior_b + n_grid[stop_idx[rows]] - s_stop
        level = 0.95
        tail = (1.0 - level) / 2.0
        lower = betaincinv(post_a, post_b, tail)
        upper = betaincinv(post_a, post_b, 1.0 - tail)
        inferred = post_a / (post_a + post_b)
        declared_above = loss_below[rows] <= loss_above[rows]
        realized = np.where(
            declared_above,
            np.maximum(theta0 - theta[rows], 0.0),
            np.maximum(theta[rows] - theta0, 0.0),
        )
        mean_loss = float(realized.mean()) if rows.size else None
    else:
        raise ValueError(f"stop-quality study does not support method {cfg.method!r}")

    miscover = excludes(lower, upper, True, theta[rows])
    stopped = stop_idx >= 0
    report = _base_report(
        cfg, "stop-quality", grid, stop_idx, methods.cumulative_fraction(stop_idx, grid.size), horizon,
        power=float(stopped.mean()),
        miscoverage_at_stop=float(miscover.mean()) if rows.size else None,
        mean_loss_at_stop=mean_loss,
        calibration_pairs=[(float(t), float(i)) for t, i in zip(theta[rows], inferred)],
        meta={"truth_prior": list(cfg.truth_prior), "stopped_fraction": float(stopped.mean())},
    )
    return report
