"""Deterministic outcome-stream generation for the study harness.

Each replication owns a counter-based generator keyed by (master seed,
replication index), so a replication's stream is identical no matter how
the batch is chunked or which method consumes it; method comparisons are
therefore paired by construction. Outcomes are Bernoulli, and only the
sufficient statistics at the peek grid are materialized: per grid block,
the number of arm-1 assignments and the per-arm conversion counts, drawn
in that fixed order. They are stored as per-block increments, not
cumulative counts, in the narrowest unsigned type that holds the grid's
largest block (``_increment_dtype``): a two-arm stream takes 3 bytes a
cell where no block passes 255 events, 6 where none passes 65,535 and
12 where none passes 2^32 - 1; a single-arm stream takes a third of
that. ``methods.cumulative_blocks`` turns them into float64 cumulative
counts one evaluated block at a time.

A single-arm stream depends only on its key, since Philox is
counter-based: a call over a prefix of the grid draws the rates and the
first columns of a call over the whole grid, so a study can draw its
grid's prefixes in stages with nothing kept between calls.
"""

import numpy as np

from . import threads

MAX_SEED = 2**64 - 1  # a master seed is one 64-bit word of each replication's Philox key
_START = np.random.Philox(key=0).state  # a keyed Philox before its first draw: counter 0, output buffer empty


def _rekey(rng: np.random.Generator, master_seed: int, rep: int) -> np.random.Generator:
    """Point ``rng``'s Philox at the start of replication ``rep``'s stream.

    The stream is the one ``Philox(key=(master_seed << 64) | rep)`` gives:
    ``_START`` with the key words (rep, master_seed), little-endian.
    Re-keying one generator per batch draws no OS entropy, which each
    ``Philox(key=...)`` construction does before the key replaces it. A
    master seed above ``MAX_SEED`` or below 0 raises OverflowError.
    """
    key = np.array([int(rep), int(master_seed)], dtype=np.uint64)
    rng.bit_generator.state = {**_START, "state": {**_START["state"], "key": key}}
    return rng


def _blocks(grid: np.ndarray) -> np.ndarray:
    """Events in each grid block, as int64; a grid that is not strictly increasing and positive raises ValueError."""
    blocks = np.diff(np.asarray(grid, dtype=np.int64), prepend=0)
    if np.any(blocks <= 0):
        raise ValueError("grid must be strictly increasing and positive")
    return blocks


def _increment_dtype(blocks: np.ndarray) -> type:
    """The narrowest of uint8, uint16 and uint32 that holds the largest block, and so every increment; else int64."""
    largest = blocks.max(initial=0)
    return next((t for t in (np.uint8, np.uint16, np.uint32) if largest <= np.iinfo(t).max), np.int64)


# Shortest grid whose two-arm draws are split across threads. A row's
# re-key and six numpy calls hold the GIL for about 100 us, so threads that
# trade the GIL that often lose: on a 2-vCPU VM, two threads drew 500
# replications in 1.03x the inline time at 300 and at 400 peeks, but 0.73x
# at 500 and 0.86x at 984; 400 x 200 took 1.6x.
_THREADED_MIN_COLUMNS = 500


def two_arm_count_matrices(master_seed: int, reps: int, grid: np.ndarray, p0: float, p1: float) -> np.ndarray:
    """Per-block arm-1 sizes and per-arm conversions at each grid point.

    Returns a read-only (3, reps, len(grid)) array of ``_increment_dtype``
    of the grid's blocks: the events assigned to arm 1 in each block, then
    arm 0's and arm 1's conversions in it; arm 0's size is the block minus
    arm 1's. Grid entries are cumulative total sample sizes, and
    ``methods.cumulative_blocks`` turns the increments into cumulative
    counts. From ``_THREADED_MIN_COLUMNS`` grid points up, replications
    are drawn in parts across the usable CPUs (``threads.split_rows``),
    each part with its own generator.
    """
    blocks = _blocks(grid)
    counts = np.empty((3, reps, blocks.size), dtype=_increment_dtype(blocks))

    def draw(lo, hi):
        rng = np.random.Generator(np.random.Philox())
        for r in range(lo, hi):
            _rekey(rng, master_seed, r)
            m1 = counts[0, r] = rng.binomial(blocks, 0.5)
            counts[2, r] = rng.binomial(m1, p1)
            counts[1, r] = rng.binomial(blocks - m1, p0)

    if blocks.size < _THREADED_MIN_COLUMNS:
        draw(0, reps)
    else:
        threads.split_rows(draw, reps, blocks.size)
    counts.flags.writeable = False
    return counts


def single_arm_count_matrices(
    master_seed: int,
    rows: np.ndarray,
    grid: np.ndarray,
    truth_prior: tuple[float, float],
) -> tuple[np.ndarray, np.ndarray]:
    """True rates and per-block conversion counts of replications ``rows`` over ``grid``.

    Each replication is drawn from the start of its stream: its rate from
    Beta(truth_prior), then its conversions at that rate, one binomial per
    grid block. So a prefix of a grid gives the rates and the first
    columns of the whole grid, bit for bit.

    Returns (theta, s): theta is float64 with one rate per row; s holds
    the conversions in each block, of ``_increment_dtype`` of the grid's
    blocks, with one row per row of ``rows`` and one column per grid
    point.
    """
    blocks = _blocks(grid)
    rows = np.asarray(rows)
    theta = np.empty(rows.size, dtype=np.float64)
    s = np.empty((rows.size, blocks.size), dtype=_increment_dtype(blocks))
    rng = np.random.Generator(np.random.Philox())
    for i, r in enumerate(rows):
        _rekey(rng, master_seed, r)
        theta[i] = rng.beta(truth_prior[0], truth_prior[1])
        s[i] = rng.binomial(blocks, theta[i])
    return theta, s
