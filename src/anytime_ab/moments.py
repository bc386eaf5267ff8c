"""Mergeable streaming moments on (count, mean, m2) triples.

One (count, running mean, sum of squared deviations) triple per
treatment arm is all the state any of the interval kernels need; they
read it as (count, mean, m2 / count) columns. The sum follows Welford's
one-pass recurrence, chosen over a naive sum of squares because
conversion metrics are often near-constant. ``welford_step`` is the
one-step form; the engine's ``ingest`` inlines its expressions on local
floats, and the tests hold it to ``welford_step`` bit for bit.
``welford_merge`` combines two triples as if their streams were
concatenated (Chan, Golub and LeVeque), associatively and commutatively,
so per-shard triples can be combined map-reduce style before evaluation.
"""


def welford_step(count: int, mean: float, m2: float, y: float) -> tuple[int, float, float]:
    """One Welford update of (count, mean, m2) by the float observation ``y``."""
    n = count + 1
    delta = y - mean
    mean = mean + delta / n
    m2 = m2 + delta * (y - mean)
    return n, mean, max(m2, 0.0)


def welford_merge(a: tuple[int, float, float], b: tuple[int, float, float]) -> tuple[int, float, float]:
    """Combine two (count, mean, m2) triples as if their streams were concatenated."""
    count_a, mean_a, m2_a = a
    count_b, mean_b, m2_b = b
    if count_a == 0:
        return b
    if count_b == 0:
        return a
    n = count_a + count_b
    delta = mean_b - mean_a
    mean = mean_a + delta * count_b / n
    m2 = m2_a + m2_b + delta * delta * count_a * count_b / n
    return n, mean, max(m2, 0.0)
