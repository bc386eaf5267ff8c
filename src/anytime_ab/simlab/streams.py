"""Deterministic outcome-stream generation for the study harness.

Each replication owns a counter-based generator keyed by (master seed,
replication index), so a replication's stream is identical no matter how
the batch is chunked or which method consumes it; method comparisons are
therefore paired by construction. Outcomes are Bernoulli, and only the
sufficient statistics at the peek grid are materialized: per grid block,
the number of arm-1 assignments and the per-arm conversion counts, drawn
in that fixed order. The cumulative counts are kept as integers, int32
unless the grid runs past 2^31 - 1, since no count exceeds the grid's
last point; the rules cast each block they evaluate to float64.
"""

import numpy as np

_MASK64 = (1 << 64) - 1


def _rekey(rng: np.random.Generator, master_seed: int, rep: int) -> np.random.Generator:
    """Restart ``rng``'s Philox as ``Philox(key=(master_seed << 64) | rep)`` starts.

    The key words are little-endian, (rep, master_seed); the counter is 0
    and the output buffer empty. Re-keying one generator per batch draws
    no OS entropy, which each ``Philox(key=...)`` construction does
    before the key replaces it.
    """
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": np.zeros(4, dtype=np.uint64),
            "key": np.array([int(rep) & _MASK64, int(master_seed) & _MASK64], dtype=np.uint64),
        },
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def _count_dtype(grid: np.ndarray) -> type:
    """int32 when the grid's last point, the largest any count can be, fits in it; else int64."""
    return np.int32 if grid[-1] <= np.iinfo(np.int32).max else np.int64


def two_arm_count_matrices(
    master_seed: int, reps: int, grid: np.ndarray, p0: float, p1: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Cumulative per-arm sizes and conversions at each grid point.

    Returns integer matrices (n0, n1, s0, s1) of shape (reps, len(grid)),
    of ``_count_dtype(grid)``; grid entries are cumulative total sample sizes.
    """
    grid = np.asarray(grid, dtype=np.int64)
    blocks = np.diff(grid, prepend=0)
    if np.any(blocks <= 0):
        raise ValueError("grid must be strictly increasing and positive")
    dtype = _count_dtype(grid)
    n1 = np.empty((reps, grid.size), dtype=dtype)
    s0 = np.empty_like(n1)
    s1 = np.empty_like(n1)
    rng = np.random.Generator(np.random.Philox())
    for r in range(reps):
        _rekey(rng, master_seed, r)
        m1 = rng.binomial(blocks, 0.5)
        c1 = rng.binomial(m1, p1)
        c0 = rng.binomial(blocks - m1, p0)
        n1[r] = np.cumsum(m1)
        s1[r] = np.cumsum(c1)
        s0[r] = np.cumsum(c0)
    n0 = grid.astype(dtype)[None, :] - n1
    return n0, n1, s0, s1


def single_arm_count_matrices(
    master_seed: int,
    reps: int,
    grid: np.ndarray,
    truth_prior: tuple[float, float],
) -> tuple[np.ndarray, np.ndarray]:
    """Per-replication true rates and cumulative conversion counts.

    Each replication draws its rate from Beta(truth_prior), then its
    conversions at that rate. Returns (theta, s): theta is float64 of
    shape (reps,), s an integer matrix of ``_count_dtype(grid)`` and shape
    (reps, len(grid)).
    """
    grid = np.asarray(grid, dtype=np.int64)
    blocks = np.diff(grid, prepend=0)
    if np.any(blocks <= 0):
        raise ValueError("grid must be strictly increasing and positive")
    theta = np.empty(reps, dtype=np.float64)
    s = np.empty((reps, grid.size), dtype=_count_dtype(grid))
    rng = np.random.Generator(np.random.Philox())
    for r in range(reps):
        _rekey(rng, master_seed, r)
        th = rng.beta(truth_prior[0], truth_prior[1])
        theta[r] = th
        s[r] = np.cumsum(rng.binomial(blocks, th))
    return theta, s
