"""Reference outputs computed independently of the program under test.

Each function restates, in plain NumPy/SciPy, what one workload's output
must be: the AsympCS interval from its closed form, the two-arm expected
loss by Gauss-Legendre quadrature (not the program's exact Beta sums),
and the simulate studies from the documented stream definition, with
early exit after each replication's first crossing. The checker compares
the program's files against these values.
"""

import math

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import betainc, betaln, ndtri
from scipy.stats import beta as beta_dist

_MASK64 = (1 << 64) - 1
_GL_NODES, _GL_WEIGHTS = leggauss(16)
_SPAN_SDS = 10.0
_PANEL_SDS = 2.0
LDM_PEEKS = 100
QUANTILES = (0.5, 0.8, 0.9)
LOSS_BLOCK = 16  # peek columns per step of the stop-quality early exit


def snapshot_counts(arm: np.ndarray, value: np.ndarray, every: int) -> dict:
    """Cumulative (n, n0, n1, s0, s1) at every snapshot the engine takes."""
    total = arm.size
    ends = np.arange(every, total + 1, every)
    if ends.size == 0 or ends[-1] != total:
        ends = np.append(ends, total)
    idx = ends - 1
    n1 = np.cumsum(arm)[idx]
    s1 = np.cumsum(value * arm)[idx]
    s0 = np.cumsum(value * (1 - arm))[idx]
    return {"n": ends, "n0": ends - n1, "n1": n1, "s0": s0, "s1": s1}


def radius(n, alpha: float, rho2: float):
    """AsympCS width multiplier sqrt(2(n r + 1)/(n^2 r) log(sqrt(n r + 1)/alpha))."""
    nr = n * rho2
    return np.sqrt(2.0 * (nr + 1.0) / (n * n * rho2) * np.log(np.sqrt(nr + 1.0) / alpha))


def _arm_stats(n0, n1, s0, s1):
    n0, n1 = np.asarray(n0, float), np.asarray(n1, float)
    with np.errstate(divide="ignore", invalid="ignore"):
        mu0 = np.where(n0 > 0, s0 / np.where(n0 > 0, n0, 1.0), 0.0)
        mu1 = np.where(n1 > 0, s1 / np.where(n1 > 0, n1, 1.0), 0.0)
    return n0, n1, mu0, mu1, mu0 * (1.0 - mu0), mu1 * (1.0 - mu1)


def asympcs_intervals(n0, n1, s0, s1, alpha: float, rho2: float):
    """(center, lower, upper) of the two-sample AsympCS; NaN bounds where undefined."""
    n0, n1, mu0, mu1, v0, v1 = _arm_stats(n0, n1, s0, s1)
    n = n0 + n1
    valid = (n0 >= 1) & (n1 >= 1) & (n >= 2)
    center = mu1 - mu0
    with np.errstate(divide="ignore", invalid="ignore"):
        bracket = (n / n0) * (v0 + mu0 * mu0) + (n / n1) * (v1 + mu1 * mu1) - center * center
        hw = radius(np.maximum(n, 1.0), alpha, rho2) * np.sqrt(n / (n - 1.0) * np.maximum(bracket, 0.0))
    hw = np.where(valid, hw, np.nan)
    return center, center - hw, center + hw


def two_arm_losses(c0, n0, c1, n1):
    """Expected losses (choose arm 0, choose arm 1) under the uniform-prior Beta posteriors.

    E[max(X1 - X0, 0)] = integral of F0(t) (1 - F1(t)) dt, integrated by
    composite 16-point Gauss-Legendre over the posterior bulk with panels
    no wider than two of the smaller posterior standard deviations.
    """
    loss0 = np.empty(len(n0))
    loss1 = np.empty(len(n0))
    for i, (x0, m0, x1, m1) in enumerate(zip(c0, n0, c1, n1)):
        a0, b0 = 1.0 + x0, 1.0 + m0 - x0
        a1, b1 = 1.0 + x1, 1.0 + m1 - x1
        means = (a0 / (a0 + b0), a1 / (a1 + b1))
        sds = (
            math.sqrt(a0 * b0 / ((a0 + b0) ** 2 * (a0 + b0 + 1.0))),
            math.sqrt(a1 * b1 / ((a1 + b1) ** 2 * (a1 + b1 + 1.0))),
        )
        lo = max(0.0, min(m - _SPAN_SDS * s for m, s in zip(means, sds)))
        hi = min(1.0, max(m + _SPAN_SDS * s for m, s in zip(means, sds)))
        panels = max(8, math.ceil((hi - lo) / (_PANEL_SDS * min(sds))))
        edges = np.linspace(lo, hi, panels + 1)
        half = 0.5 * np.diff(edges)
        t = ((edges[:-1] + half)[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
        w = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
        f0, f1 = betainc(a0, b0, t), betainc(a1, b1, t)
        loss0[i] = np.dot(w, f0 * (1.0 - f1))
        loss1[i] = np.dot(w, f1 * (1.0 - f0))
    return loss0, loss1


def replication_rng(master_seed: int, rep: int) -> np.random.Generator:
    """The documented per-replication stream: Philox keyed by (seed, rep)."""
    key = ((int(master_seed) & _MASK64) << 64) | (int(rep) & _MASK64)
    return np.random.Generator(np.random.Philox(key=key))


def two_arm_counts(seed: int, reps: int, grid: np.ndarray, p0: float, p1: float):
    blocks = np.diff(grid, prepend=0)
    n1 = np.empty((reps, grid.size))
    s0 = np.empty_like(n1)
    s1 = np.empty_like(n1)
    for r in range(reps):
        rng = replication_rng(seed, r)
        m1 = rng.binomial(blocks, 0.5)
        c1 = rng.binomial(m1, p1)
        c0 = rng.binomial(blocks - m1, p0)
        n1[r], s1[r], s0[r] = np.cumsum(m1), np.cumsum(c1), np.cumsum(c0)
    return grid[None, :].astype(float) - n1, n1, s0, s1


def single_arm_counts(seed: int, reps: int, grid: np.ndarray, truth_prior):
    blocks = np.diff(grid, prepend=0)
    theta = np.empty(reps)
    s = np.empty((reps, grid.size))
    for r in range(reps):
        rng = replication_rng(seed, r)
        theta[r] = rng.beta(truth_prior[0], truth_prior[1])
        s[r] = np.cumsum(rng.binomial(blocks, theta[r]))
    return theta, s


def fixed_horizon_total(p0: float, mde: float, alpha: float, power: float) -> int:
    """Two-arm total of the classical proportion z-test sample size."""
    z = ndtri(1.0 - alpha / 2.0) + ndtri(power)
    p1 = p0 + mde
    return 2 * math.ceil(z * z * (p0 * (1.0 - p0) + p1 * (1.0 - p1)) / (mde * mde))


def ldm_peek_ns(fht_total: int) -> np.ndarray:
    ks = np.arange(1, LDM_PEEKS + 1, dtype=float)
    return np.unique(np.maximum(np.round(ks / LDM_PEEKS * fht_total), 1.0).astype(np.int64))


def _crossings(reject: np.ndarray, grid: np.ndarray):
    stopped = reject.any(axis=1)
    stop_n = np.where(stopped, grid[np.argmax(reject, axis=1)].astype(float), np.inf)
    curve = np.maximum.accumulate(reject, axis=1).mean(axis=0)
    return curve, stop_n


def _quantiles(stop_n: np.ndarray) -> dict:
    out = {}
    for q in QUANTILES:
        v = float(np.quantile(stop_n, q, method="lower"))
        out[f"{q}"] = v if math.isfinite(v) else None
    return out


def type1_reports(conf: dict, seed: int, ldm_boundaries) -> list[dict]:
    """Expected report fields of ``simulate --study type1`` per method."""
    p0 = conf["arm_means"][0]
    alpha, rho2 = conf["alpha"], conf["rho2"]
    reps, every = conf["replications"], conf["peek_every"]
    fht = fixed_horizon_total(p0, conf["design_mde"], alpha, 0.8)
    horizon = 3 * fht
    ldm_ns = ldm_peek_ns(fht)
    grid = np.unique(np.concatenate([
        np.arange(every, horizon + 1, every), [horizon], ldm_ns[ldm_ns <= horizon], [fht],
    ])).astype(np.int64)
    n0, n1, s0, s1 = two_arm_counts(seed, reps, grid, p0, p0)
    n0, n1, mu0, mu1, v0, v1 = _arm_stats(n0, n1, s0, s1)
    n = n0 + n1
    valid = (n0 >= 1) & (n1 >= 1) & (n >= 2)
    diff = mu1 - mu0
    with np.errstate(divide="ignore", invalid="ignore"):
        var_d = np.where(n0 > 0, v0 / n0, 0.0) + np.where(n1 > 0, v1 / n1, 0.0)
        se = np.sqrt(var_d)
        z = np.where(se > 0, diff / np.where(se > 0, se, 1.0), np.where(diff != 0, np.inf, 0.0))
    out = []
    for method in conf["methods"]:
        if method == "AsympCS":
            _, lo, hi = asympcs_intervals(n0, n1, s0, s1, alpha, rho2)
            reject = valid & ((lo > 0.0) | (hi < 0.0))
        elif method == "mSPRT":
            sigma2 = n * var_d
            ok = valid & (sigma2 > 0)
            sig = np.where(ok, sigma2, 1.0)
            nr = n * rho2
            loglam = 0.5 * np.log(sig / (nr + sig)) + n * n * rho2 * diff**2 / (2.0 * sig * (nr + sig))
            reject = ok & (loglam >= np.log(1.0 / alpha))
        elif method == "FHT-peeking":
            reject = valid & (np.abs(z) > ndtri(1.0 - alpha / 2.0))
        elif method == "LDM":
            cols = np.searchsorted(grid, ldm_ns)
            reject = np.zeros(z.shape, dtype=bool)
            reject[:, cols] = valid[:, cols] & (np.abs(z[:, cols]) >= np.asarray(ldm_boundaries)[None, :])
        elif method == "BF-uninformed":
            logbf = betaln(1 + s0, 1 + n0 - s0) + betaln(1 + s1, 1 + n1 - s1) - betaln(1, 1) \
                - betaln(1 + s0 + s1, 1 + n - s0 - s1)
            reject = (n >= 1) & (logbf >= np.log(conf.get("odds_threshold", 1.0 / alpha)))
        else:
            raise ValueError(f"no reference for method {method!r}")
        curve, stop_n = _crossings(reject, grid)
        out.append({
            "study": "type1",
            "method": method,
            "replications": reps,
            "horizon": horizon,
            "master_seed": seed,
            "peek_ns": grid.tolist(),
            "cumulative_rejection_by_peek": curve.tolist(),
            "power": float(curve[-1]),
            "stop_time_quantiles": _quantiles(stop_n),
            "meta": {"fht_total": fht, "type1_at_fht": float(curve[np.searchsorted(grid, min(fht, horizon))])},
        })
    return out


def single_arm_losses(n, s, prior_a: float, prior_b: float, theta0: float):
    """(loss_below, loss_above) of the one-arm expected-loss rule, closed form."""
    a = prior_a + s
    b = prior_b + (n - s)
    mean = a / (a + b)
    below = theta0 * betainc(a, b, theta0) - mean * betainc(a + 1.0, b, theta0)
    above = mean * betainc(b, a + 1.0, 1.0 - theta0) - theta0 * betainc(b, a, 1.0 - theta0)
    return np.maximum(below, 0.0), np.maximum(above, 0.0)


def stop_quality_report(conf: dict, seed: int) -> dict:
    """Expected report fields of ``simulate --study stop-quality`` for the BHT rule.

    Losses are evaluated in column blocks and a replication is dropped
    once it has crossed, since nothing in the report depends on later
    cells.
    """
    if conf["method"] != "BHT-uninformed":
        raise ValueError("the stop-quality reference covers BHT-uninformed only")
    reps, horizon, theta0 = conf["replications"], conf["horizon"], conf["theta0"]
    eps = conf["epsilon"]
    prior_a, prior_b = conf.get("prior", [1.0, 1.0])
    grid = np.unique(np.round(np.geomspace(conf.get("grid_start", 100), horizon, conf["num_peeks"])).astype(np.int64))
    theta, s = single_arm_counts(seed, reps, grid, conf["truth_prior"])
    stop_idx = np.full(reps, -1)
    active = np.arange(reps)
    for start in range(0, grid.size, LOSS_BLOCK):
        cols = slice(start, start + LOSS_BLOCK)
        below, above = single_arm_losses(grid[cols].astype(float)[None, :], s[active, cols], prior_a, prior_b, theta0)
        reject = np.minimum(below, above) < eps
        hit = reject.any(axis=1)
        stop_idx[active[hit]] = start + np.argmax(reject[hit], axis=1)
        active = active[~hit]
        if active.size == 0:
            break
    rows = np.flatnonzero(stop_idx >= 0)
    cols = stop_idx[rows]
    n_stop = grid[cols].astype(float)
    s_stop = s[rows, cols]
    below, above = single_arm_losses(n_stop, s_stop, prior_a, prior_b, theta0)
    post_a, post_b = prior_a + s_stop, prior_b + n_stop - s_stop
    lo = beta_dist.ppf(0.025, post_a, post_b)
    hi = beta_dist.ppf(0.975, post_a, post_b)
    realized = np.where(below <= above, np.maximum(theta0 - theta[rows], 0.0), np.maximum(theta[rows] - theta0, 0.0))
    crossed_by = np.zeros(grid.size)
    np.add.at(crossed_by, cols, 1.0)
    stop_n = np.full(reps, np.inf)
    stop_n[rows] = n_stop
    stopped_fraction = rows.size / reps
    return {
        "study": "stop-quality",
        "method": conf["method"],
        "replications": reps,
        "horizon": horizon,
        "master_seed": seed,
        "peek_ns": grid.tolist(),
        "cumulative_rejection_by_peek": (np.cumsum(crossed_by) / reps).tolist(),
        "power": stopped_fraction,
        "stop_time_quantiles": _quantiles(stop_n),
        "miscoverage_at_stop": float(((theta[rows] < lo) | (theta[rows] > hi)).mean()) if rows.size else None,
        "mean_loss_at_stop": float(realized.mean()) if rows.size else None,
        "calibration_pairs": [[float(t), float(m)] for t, m in zip(theta[rows], post_a / (post_a + post_b))],
        "meta": {"stopped_fraction": stopped_fraction},
    }
