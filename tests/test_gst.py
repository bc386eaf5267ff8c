import functools
import json
import math
import os

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.optimize import brentq
from scipy.special import ndtr, ndtri

from anytime_ab.design import fixed_horizon_sample_size
from anytime_ab.gst import SolverError, SpendingSchedule, _solve_boundaries, compute_boundaries, pocock_spend
from anytime_ab.simlab.studies import _ldm_peek_ns

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")


def mc_first_crossings(fractions, boundaries, n_paths, seed):
    """Gaussian random-walk oracle: cumulative first-crossing frequency."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    fractions = np.asarray(fractions, dtype=float)
    sds = np.sqrt(np.diff(fractions, prepend=0.0))
    s = np.zeros(n_paths)
    alive = np.ones(n_paths, dtype=bool)
    crossed = 0
    cum = []
    for k, t in enumerate(fractions):
        s = s + rng.standard_normal(n_paths) * sds[k]
        hit = alive & (np.abs(s) >= boundaries[k] * math.sqrt(t))
        crossed += int(hit.sum())
        alive &= ~hit
        cum.append(crossed / n_paths)
    return np.asarray(cum)


legendre = functools.lru_cache(maxsize=None)(leggauss)


def dense_solve(fracs, spends, m):
    """Density recursion with every entry of the m x m Gaussian kernel, and Brent roots."""
    xg, wg = legendre(m)
    bounds = []
    for k, t in enumerate(fracs):
        inc = spends[k] - (spends[k - 1] if k else 0.0)
        if k == 0:
            c = float(-ndtri(inc / 2.0))
            if c > 10.0:
                raise SolverError(f"first boundary {c:.3f} exceeds bracket 10.0")
        else:
            sd_d = math.sqrt(t - fracs[k - 1])
            mass_w = weights * vals

            def excess(c):
                upper = ndtr((c * math.sqrt(t) - nodes) / sd_d)
                lower = ndtr((-c * math.sqrt(t) - nodes) / sd_d)
                return mass - float(np.sum(mass_w * (upper - lower))) - inc

            if excess(10.0) > 0.0:
                raise SolverError(f"boundary at peek {k} does not bracket within z <= 10.0")
            c = brentq(excess, 0.0, 10.0, xtol=1e-15, rtol=1e-15)
        bounds.append(c)
        half_span = min(c, 8.0) * math.sqrt(t)
        new_nodes, new_weights = half_span * xg, half_span * wg
        if k == 0:
            new_vals = np.exp(-new_nodes**2 / (2.0 * t)) / math.sqrt(2.0 * math.pi * t)
        else:
            # Every kernel entry, 512 rows at a time to bound memory.
            new_vals = np.empty(m)
            for r in range(0, m, 512):
                diff = new_nodes[r : r + 512, None] - nodes[None, :]
                kernel = np.exp(-(diff**2) / (2.0 * sd_d**2)) / (math.sqrt(2.0 * math.pi) * sd_d)
                new_vals[r : r + 512] = kernel @ mass_w
        nodes, weights, vals = new_nodes, new_weights, new_vals
        mass = float(np.sum(weights * vals))
    return np.asarray(bounds)


def dense_boundaries(fracs, alpha):
    """Dense-kernel boundaries, doubling the grid from 512 until they move <= 1e-4."""
    fracs = np.asarray(fracs, dtype=float)
    spends = pocock_spend(fracs, alpha)
    m = 512
    bounds = dense_solve(fracs, spends, m)
    while True:
        if 2 * m > 4096:
            raise SolverError("boundaries did not settle within a 4096-point grid")
        finer = dense_solve(fracs, spends, 2 * m)
        if np.max(np.abs(finer - bounds)) <= 1e-4:
            return finer
        m *= 2
        bounds = finer


def type1_bench_fractions():
    with open(os.path.join(HERE, "..", "perfbench", "configs", "type1.json"), encoding="utf-8") as fh:
        conf = json.load(fh)
    p0, _ = conf["arm_means"]
    fht_total = 2 * fixed_horizon_sample_size(p0, conf["design_mde"], conf["alpha"], 0.8)
    return (_ldm_peek_ns(fht_total) / fht_total).tolist()


class TestSpend:
    def test_total_spend_is_alpha(self):
        assert pocock_spend(1.0, 0.05) == pytest.approx(0.05, abs=1e-15)

    def test_half_information_golden(self):
        # 0.05 * ln(1 + (e-1)/2), frozen from a 50-digit evaluation.
        assert pocock_spend(0.5, 0.05) == pytest.approx(0.031005725347913876, rel=1e-12)

    def test_strictly_increasing(self):
        ts = np.linspace(1e-4, 1.0, 1000)
        vals = pocock_spend(ts, 0.05)
        assert np.all(np.diff(vals) > 0)

    @pytest.mark.parametrize("t", [0.0, -0.5, 1.0001])
    def test_domain(self, t):
        with pytest.raises(ValueError):
            pocock_spend(t, 0.05)


class TestBoundaries:
    def test_single_peek_is_normal_quantile(self):
        sched = compute_boundaries([1.0], 0.05)
        assert sched.boundaries[0] == pytest.approx(1.959964, abs=1e-4)
        assert sched.cumulative_spend[-1] == pytest.approx(0.05, abs=1e-6)

    def test_two_equal_peeks_against_mc(self):
        sched = compute_boundaries([0.5, 1.0], 0.05)
        cum = mc_first_crossings(sched.peek_fractions, sched.boundaries, 200_000, seed=5)
        assert cum[-1] == pytest.approx(0.05, abs=0.004)
        assert cum[0] == pytest.approx(sched.cumulative_spend[0], abs=0.004)

    def test_hundred_peeks_shape(self):
        fr = (np.arange(1, 101) / 100.0).tolist()
        sched = compute_boundaries(fr, 0.05)
        bounds = np.asarray(sched.boundaries)
        assert np.all(np.diff(bounds[3:]) <= 1e-9)  # nonincreasing past the first few
        assert sched.cumulative_spend[-1] == pytest.approx(0.05, abs=1e-12)

    def test_grid_doubling_invariance(self):
        fr = np.arange(1, 21) / 20.0
        spends = pocock_spend(fr, 0.05)
        a = _solve_boundaries(fr, spends, 512)
        b = _solve_boundaries(fr, spends, 1024)
        assert np.max(np.abs(a - b)) <= 1e-4

    @pytest.mark.parametrize(
        "fracs",
        [[], [0.5, 0.5, 1.0], [0.7, 0.3, 1.0], [0.5, 0.9], [-0.1, 1.0]],
    )
    def test_bad_fractions(self, fracs):
        with pytest.raises(ValueError):
            compute_boundaries(fracs, 0.05)

    def test_type1_schedule_matches_bisection(self):
        # Recorded when every boundary was solved by 80-step bisection; the
        # Newton solver must land on the same roots.
        with open(os.path.join(DATA, "ldm_type1_schedule.json"), encoding="utf-8") as fh:
            recorded = json.load(fh)
        sched = compute_boundaries(recorded["fractions"], recorded["alpha"])
        assert len(sched.boundaries) == 100
        np.testing.assert_allclose(sched.boundaries, recorded["boundaries"], rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize(
        "fracs",
        [
            pytest.param((np.arange(1, 101) / 100.0).tolist(), id="equal-100"),
            pytest.param(type1_bench_fractions(), id="type1-bench"),
            pytest.param([0.01, 1.0], id="band-covers-all"),
            pytest.param([0.5, 0.5 + 1e-6, 1.0], id="narrow-band"),
        ],
    )
    def test_banded_kernel_matches_dense_oracle(self, fracs):
        # The solver evaluates the kernel within a band of each new node; the
        # oracle builds every entry.
        try:
            expected = dense_boundaries(fracs, 0.05)
        except SolverError as exc:
            with pytest.raises(SolverError) as err:
                compute_boundaries(fracs, 0.05)
            assert str(err.value) == str(exc)
            return
        sched = compute_boundaries(fracs, 0.05)
        np.testing.assert_allclose(sched.boundaries, expected, rtol=0.0, atol=1e-12)

    def test_json_round_trip(self):
        sched = compute_boundaries([0.25, 0.5, 0.75, 1.0], 0.05)
        again = SpendingSchedule.from_json(sched.to_json())
        assert again == sched
