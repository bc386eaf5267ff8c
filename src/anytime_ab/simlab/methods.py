"""Stopping rules over peek-grid count matrices of Bernoulli streams.

Each rule is the array kernel from ``confseq`` (or ``bayes``), fed the
per-arm means and biased variances that ``bernoulli_summaries`` derives
from (replications x peeks) count matrices, plus the test that turns it
into a "crosses at this peek" mask, ``confseq.excludes`` for every
interval rule. The engine calls the same kernels and the same test on
its snapshot moments. Studies evaluate a rule one block of peeks at a
time through ``blocked_first_crossing``; entries where a rule's
preconditions fail never reject.

Streams are stored as per-block increments in the narrowest unsigned
type (``streams``), and ``cumulative_blocks`` turns them into float64
cumulative count blocks as the crossing loop reads them, the engine's
own count type (``bayes.binary_counts``). Every count is an integer
below 2^53, so each sum is exact.
"""

import numpy as np
from scipy.special import betainc

from .. import confseq
from ..bayes import BfConfig, log_bayes_factor
from . import threads


def bernoulli_arm(n, s):
    """Mean and biased variance of one arm from its counts; zero where n is zero."""
    mu = np.divide(s, n, out=np.zeros_like(s, dtype=float), where=n > 0)
    return mu, mu * (1.0 - mu)


def bernoulli_summaries(n0, n1, s0, s1):
    """Per-arm (count, mean, biased variance) from count matrices, in kernel argument order."""
    (mu0, v0), (mu1, v1) = bernoulli_arm(n0, s0), bernoulli_arm(n1, s1)
    return n0, n1, mu0, mu1, v0, v1


def ate_reject(n0, n1, s0, s1, alpha, rho2, theta0=0.0):
    return confseq.excludes(*confseq.asympcs_ate(*bernoulli_summaries(n0, n1, s0, s1), alpha, rho2), theta0)


def lift_reject(n0, n1, s0, s1, arm_level, rho2, lift0=0.0):
    return confseq.excludes(*confseq.lift_interval(*bernoulli_summaries(n0, n1, s0, s1), arm_level, rho2), lift0)


def msprt_reject(n0, n1, s0, s1, alpha, rho2, theta0=0.0):
    scale = confseq.two_sample_scale(*bernoulli_summaries(n0, n1, s0, s1))
    return confseq.excludes(*confseq.msprt_interval(*scale, alpha, rho2), theta0)


def z_statistic_arrays(n0, n1, s0, s1, theta0=0.0):
    """Two-sample z statistic for the difference minus theta0; infinite when it has no noise."""
    return confseq.z_statistic(*bernoulli_summaries(n0, n1, s0, s1), theta0)


def z_reject(n0, n1, s0, s1, alpha, theta0=0.0):
    return confseq.excludes(*confseq.z_interval(*bernoulli_summaries(n0, n1, s0, s1), alpha), theta0)


def bf_reject(n0, n1, s0, s1, prior_a, prior_b, odds_threshold):
    valid = (n0 + n1) >= 1
    return valid & (log_bayes_factor(s0, n0, s1, n1, BfConfig(prior_a, prior_b)) >= np.log(odds_threshold))


def bht_single_losses(n, s, prior_a, prior_b, theta0):
    """Directional expected linear losses of one arm against a baseline rate.

    The posterior is Beta(prior_a + s, prior_b + n - s), the prior itself
    when n = s = 0; float priors make it float64 for integer counts too.
    Returns (loss_below, loss_above): loss_below =
    E[max(theta0 - theta, 0)] is the regret of declaring the arm above
    theta0 when it is not; loss_above is its mirror image. In the
    regularized incomplete beta I, with theta0 in [0, 1]:

        below: theta0 * I(theta0; a, b) - a/(a+b) * I(theta0; a+1, b)
        above: a/(a+b) * I(1-theta0; b, a+1) - theta0 * I(1-theta0; b, a)

    A 2-D block with a scalar theta0 is split by rows across the usable
    CPUs (``threads.split_rows``); scalar and 1-D calls run inline.
    """
    a = float(prior_a) + s
    b = float(prior_b) + (n - s)
    if np.ndim(theta0) or max(np.ndim(a), np.ndim(b)) < 2:
        return _losses(a, b, theta0)
    a, b = np.broadcast_arrays(a, b)
    parts = threads.split_rows(lambda lo, hi: _losses(a[lo:hi], b[lo:hi], theta0), a.shape[0], a[0].size)
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate(side) for side in zip(*parts))


def _losses(a, b, theta0):
    """``bht_single_losses`` on posterior parameters.

    ``betainc`` is looked up by its module name on every call, from
    whichever thread runs the part, so a wrapper put there sees every
    evaluation.
    """
    mean = a / (a + b)
    loss_below = theta0 * betainc(a, b, theta0) - mean * betainc(a + 1.0, b, theta0)
    loss_above = mean * betainc(b, a + 1.0, 1.0 - theta0) - theta0 * betainc(b, a, 1.0 - theta0)
    return np.maximum(loss_below, 0.0), np.maximum(loss_above, 0.0)


# Peek columns per block in ``blocked_first_crossing``: every run starts at
# ``_CROSSING_BLOCK`` and, after a block in which no replication crossed,
# doubles up to ``_CROSSING_BLOCK_MAX``; any crossing resets it. A
# replication is evaluated at most one block past its crossing, and
# narrower blocks pay numpy's per-call overhead more often. On the bench
# (2-vCPU VM, best of 4 interleaved runs), fixed widths of 8/16/32/64 took
# the type-I rules 284/214/186/122 ms but the 3000 x 500 BHT stop-quality
# study 651/665/710/833 ms; 8 doubling to 32 took 159 and 556 ms. Caps of
# 8/16/32/64 took the type-I rules 170/139/125/124 ms, and 64 added
# 0.6-0.9 MB to the type-I command's peak RSS. A block also widens only
# while it stays within ``_CROSSING_BLOCK_CELLS`` cells: a 3000 x 500 BHT
# study in which nothing crosses peaked at 74.6 MB with 3000 x 32 loss
# blocks and at 69.3-69.9 MB with this cap's 3000 x 8. The bench's blocks
# stay within it (3000 x 8 stop-quality, 400 x 32 type-I).
_CROSSING_BLOCK = 8
_CROSSING_BLOCK_MAX = 32
_CROSSING_BLOCK_CELLS = 2**15


def blocked_first_crossing(rule, reps: int, peeks: int):
    """First crossing per replication, evaluating ``rule`` no further than needed.

    ``rule(rows, cols)`` evaluates the cells of replications ``rows`` (an
    index array) at peeks ``cols`` (a slice within ``peeks``) and returns
    ``(reject, *values)``, each of that block's shape. Peeks are visited
    in column blocks, and a replication is dropped once it has crossed. A
    block is ``_CROSSING_BLOCK`` wide after any block with a crossing, and
    twice the previous width, up to ``_CROSSING_BLOCK_MAX``, after a block
    without one, unless the wider block would pass
    ``_CROSSING_BLOCK_CELLS`` cells of live replications; so the null
    streams of a type-I battery, where almost nothing crosses, take few
    wide blocks. The rule kernels are elementwise, so every evaluated cell
    holds the bits the full (replications x peeks) matrix would.

    Returns (stop_idx, values_at_stop): stop_idx is -1 for replications
    that never cross; each entry of values_at_stop holds one value per
    replication at its crossing cell, NaN where there is none.
    """
    stop_idx = np.full(reps, -1)
    at_stop = []
    alive = np.arange(reps)
    start, width = 0, _CROSSING_BLOCK
    while start < peeks and alive.size:
        reject, *values = rule(alive, slice(start, min(start + width, peeks)))
        if not at_stop:
            at_stop = [np.full(reps, np.nan) for _ in values]
        col = first_crossing(reject)
        hit = np.flatnonzero(col >= 0)
        stop_idx[alive[hit]] = start + col[hit]
        for out, value in zip(at_stop, values):
            out[alive[hit]] = value[hit, col[hit]]
        alive = np.delete(alive, hit)
        start += width
        wider = min(2 * width, _CROSSING_BLOCK_MAX)
        if hit.size:
            width = _CROSSING_BLOCK
        elif alive.size * wider <= _CROSSING_BLOCK_CELLS:
            width = wider
    return stop_idx, at_stop


def cumulative_blocks(increments: np.ndarray):
    """Reader of float64 cumulative counts from per-block increments, for a ``blocked_first_crossing`` rule.

    ``increments`` is (..., reps, peeks). The returned ``block(rows, cols)``
    gives the cumulative counts of replications ``rows`` at peeks ``cols``,
    shape (..., rows, cols): one gather and one cumsum over the block, plus
    each replication's running total through the columns before it. So it
    relies on the crossing loop's order: each call's columns start where
    the previous call's stopped, and rows only drop, so a row's total
    always ends where its next block starts. Sums of integers below 2^53
    are exact in float64, so every block holds the bits of a cumsum over
    the whole matrix.
    """
    totals = np.zeros(increments.shape[:-1])
    column = 0

    def block(rows, cols):
        nonlocal column
        if cols.start != column:
            raise ValueError(f"cumulative blocks are read in order: expected column {column}, got {cols.start}")
        out = np.cumsum(increments[..., rows, cols], axis=-1, dtype=np.float64)
        out += totals[..., rows, None]
        totals[..., rows] = out[..., -1]
        column = cols.stop
        return out

    return block


def first_crossing(reject: np.ndarray) -> np.ndarray:
    """Column of each row's first True in a reject matrix, -1 for rows without one."""
    return np.where(reject.any(axis=1), np.argmax(reject, axis=1), -1)


def cumulative_fraction(stop_idx: np.ndarray, peeks: int) -> np.ndarray:
    """Fraction of replications that have crossed by each of ``peeks`` peeks, from their stop indices."""
    return np.cumsum(np.bincount(stop_idx[stop_idx >= 0], minlength=peeks)) / stop_idx.size
