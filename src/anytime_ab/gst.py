"""Group-sequential boundaries with the Pocock-type spending function.

Boundaries are two-sided symmetric z thresholds computed so that, under a
Brownian null with independent Gaussian increments between peeks, the
probability of a *first* crossing at peek k equals the incremental error
budget released by the spending function at that peek.

The cumulative spend is alpha * ln(1 + (e - 1) * t); the (e - 1) constant
is forced by requiring the total spend at t = 1 to equal alpha exactly.

The sub-density of the running sum over still-alive paths is propagated
peek to peek by convolving with the Gaussian increment, restricted to the
region inside the previous boundaries. Each stage carries the surviving
density on a fresh Gauss-Legendre grid spanning that region (capped at
eight standard deviations), so the integrands stay smooth and the result
is insensitive to grid size; the solver still verifies this by doubling
the grid and re-solving until boundaries move by less than 1e-4.

The transition kernel is evaluated only within 12 increment standard
deviations of each new node, one block of rows at a time, so no m x m
buffer is built. A dropped entry is below exp(-72) ~ 5e-32 of the
kernel's peak; with node weights summing to at most 16 and surviving
mass at most 1, a peek whose increment has variance delta drops at most
16 exp(-72) / sqrt(2 pi delta) ~ 3.5e-31 / sqrt(delta) of density mass
(3.5e-30 at 100 equal peeks).

Each boundary is the root of (tail mass beyond it) - (increment), found
by Newton's method from the previous peek's boundary, with the analytic
derivative (a Gaussian-density sum over the same nodes) and a bisection
step whenever Newton would leave the bracket [0, 10].
"""

import json
import math
import sys
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import ndtr, ndtri

_MAX_PEEKS = 1000
_Z_BRACKET_HIGH = 10.0
_SPAN_SDS = 8.0
_BAND_SDS = 12.0
_ROW_BLOCK = 128
_GRID_STABLE_TOL = 1e-4
_START_GRID = 512
_MAX_GRID = 4096
_MAX_NEWTON = 100
_NEWTON_TOL = 1e-12
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def json_number(value) -> bool:
    """Whether a decoded JSON value is a number that reads as a float.

    Booleans are not numbers; JSON's Infinity is; an integer beyond the
    float range is not. Every JSON input of the program checks its
    numbers with this one test.
    """
    if isinstance(value, float):
        return True
    return isinstance(value, int) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


class SolverError(RuntimeError):
    """Raised when a boundary cannot be bracketed or the grid will not settle."""


class ScheduleMismatchError(ValueError):
    """Raised when a trajectory does not line up with its schedule's peeks."""


@dataclass(frozen=True)
class SpendingSchedule:
    """Peek fractions, cumulative spend at each peek, and z boundaries."""

    peek_fractions: tuple[float, ...]
    cumulative_spend: tuple[float, ...]
    boundaries: tuple[float, ...]

    def __post_init__(self):
        k = len(self.peek_fractions)
        if not (k == len(self.cumulative_spend) == len(self.boundaries)):
            raise ValueError("schedule fields must have equal length")
        if any(b <= 0.0 or not np.isfinite(b) for b in self.boundaries):
            raise ValueError("boundaries must be positive and finite")
        if any(s2 < s1 for s1, s2 in zip(self.cumulative_spend, self.cumulative_spend[1:])):
            raise ValueError("cumulative spend must be nondecreasing")

    @property
    def n_peeks(self) -> int:
        return len(self.peek_fractions)

    def to_json(self) -> str:
        return json.dumps(
            {
                "fractions": list(self.peek_fractions),
                "spends": list(self.cumulative_spend),
                "boundaries": list(self.boundaries),
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "SpendingSchedule":
        """Read ``to_json`` output; ValueError unless it is an object of three lists of numbers."""
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError(f"schedule must be a JSON object, got {type(obj).__name__}")
        columns = []
        for key in ("fractions", "spends", "boundaries"):
            value = obj.get(key)
            if not isinstance(value, list) or not all(map(json_number, value)):
                raise ValueError(f"schedule {key!r} must be a list of numbers, got {json.dumps(value)}")
            columns.append(tuple(value))
        return cls(*columns)


def pocock_spend(t, alpha: float):
    """Cumulative error spent by information fraction t; alpha at t = 1."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr <= 0.0) or np.any(t_arr > 1.0):
        raise ValueError("information fraction must be in (0, 1]")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    out = alpha * np.log1p((np.e - 1.0) * t_arr)
    if np.ndim(t) == 0:
        return float(out)
    return out


def _solve_boundaries(fracs: np.ndarray, spends: np.ndarray, m: int) -> np.ndarray:
    """One pass of the density recursion at a fixed grid size m."""
    xg, wg = leggauss(m)
    bounds = np.empty(len(fracs))
    nodes = weights = vals = None
    mass = 1.0
    for k, (t, spend) in enumerate(zip(fracs, spends)):
        inc = spend if k == 0 else spend - spends[k - 1]
        sd_t = np.sqrt(t)
        if k == 0:
            c = float(-ndtri(inc / 2.0))
            if c > _Z_BRACKET_HIGH:
                raise SolverError(f"first boundary {c:.3f} exceeds bracket {_Z_BRACKET_HIGH}")
        else:
            delta = t - fracs[k - 1]
            sd_d = np.sqrt(delta)
            mass_w = weights * vals

            def excess(c: float) -> tuple[float, float]:
                """Tail mass beyond +-c minus the budget, and its derivative in c."""
                upper = (c * sd_t - nodes) / sd_d
                lower = (-c * sd_t - nodes) / sd_d
                inside = ndtr(upper) - ndtr(lower)
                density = np.exp(-0.5 * upper**2) + np.exp(-0.5 * lower**2)
                slope = -sd_t / (sd_d * _SQRT_2PI) * float(np.sum(mass_w * density))
                return mass - float(np.sum(mass_w * inside)) - inc, slope

            lo, hi = 0.0, _Z_BRACKET_HIGH
            if excess(hi)[0] > 0.0:
                raise SolverError(f"boundary at peek {k} does not bracket within z <= {hi}")
            c = bounds[k - 1]
            for _ in range(_MAX_NEWTON):
                f, slope = excess(c)
                if f == 0.0:
                    break
                if f > 0.0:
                    lo = c
                else:
                    hi = c
                prev = c
                c -= f / slope if slope < 0.0 else math.inf
                if not lo < c < hi:
                    c = 0.5 * (lo + hi)
                if abs(c - prev) <= _NEWTON_TOL * c:
                    break
            else:
                raise SolverError(f"boundary at peek {k} did not converge")
        bounds[k] = c

        half_span = min(c, _SPAN_SDS) * sd_t
        new_nodes = half_span * xg
        new_weights = half_span * wg
        if k == 0:
            new_vals = np.exp(-new_nodes**2 / (2.0 * t)) / np.sqrt(2.0 * np.pi * t)
        else:
            # The Gaussian transition kernel on nodes scaled by 1/sqrt(2 delta),
            # so an entry is exp(-(u - v)^2); its 1/sqrt(2 pi delta) goes on the
            # vector. Nodes are ascending, so each row's band of columns within
            # _BAND_SDS increment sds is contiguous; a block of rows takes the
            # union of its rows' bands.
            scale = 1.0 / np.sqrt(2.0 * delta)
            u = new_nodes * scale
            v = nodes * scale
            w = mass_w / np.sqrt(2.0 * np.pi * delta)
            reach = _BAND_SDS / math.sqrt(2.0)  # _BAND_SDS sds in scaled units
            first = np.searchsorted(v, u - reach, side="left")
            last = np.searchsorted(v, u + reach, side="right")
            new_vals = np.empty(m)
            for r0 in range(0, m, _ROW_BLOCK):
                r1 = min(r0 + _ROW_BLOCK, m)
                c0, c1 = first[r0], last[r1 - 1]
                block = np.subtract.outer(u[r0:r1], v[c0:c1])
                np.square(block, out=block)
                np.negative(block, out=block)
                np.exp(block, out=block)
                new_vals[r0:r1] = block @ w[c0:c1]
        nodes, weights, vals = new_nodes, new_weights, new_vals
        mass = float(np.sum(weights * vals))
    return bounds


def compute_boundaries(peek_fractions, alpha: float) -> SpendingSchedule:
    """Two-sided symmetric boundaries for the given peek fractions.

    Fractions must be strictly increasing and end at 1; at most 1000
    peeks. Starting from 512 points, the grid is doubled and the
    recursion re-run until consecutive solutions agree to 1e-4 on every
    boundary.
    """
    fracs = np.asarray(peek_fractions, dtype=float)
    if fracs.ndim != 1 or len(fracs) == 0:
        raise ValueError("peek fractions must be a nonempty sequence")
    if len(fracs) > _MAX_PEEKS:
        raise ValueError(f"at most {_MAX_PEEKS} peeks supported, got {len(fracs)}")
    if np.any(np.diff(fracs) <= 0.0) or np.any(fracs <= 0.0):
        raise ValueError("peek fractions must be strictly increasing and positive")
    if fracs[-1] != 1.0:
        raise ValueError("final peek fraction must be exactly 1")

    spends = pocock_spend(fracs, alpha)
    m = _START_GRID
    bounds = _solve_boundaries(fracs, spends, m)
    while True:
        if 2 * m > _MAX_GRID:
            raise SolverError(f"boundaries did not settle within a {_MAX_GRID}-point grid")
        finer = _solve_boundaries(fracs, spends, 2 * m)
        if np.max(np.abs(finer - bounds)) <= _GRID_STABLE_TOL:
            bounds = finer
            break
        m *= 2
        bounds = finer
    return SpendingSchedule(tuple(fracs.tolist()), tuple(spends.tolist()), tuple(bounds.tolist()))
