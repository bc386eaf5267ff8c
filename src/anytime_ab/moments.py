"""Mergeable streaming moment accumulators.

One accumulator per treatment arm is all the state any of the interval
computations need: a count, a running mean, and the sum of squared
deviations from that mean (Welford's one-pass recurrence, chosen over a
naive sum of squares because conversion metrics are often near-constant).
Updates are O(1) and merges are associative and commutative, so per-shard
accumulators can be combined map-reduce style before evaluation.
"""

from dataclasses import dataclass
from typing import Iterable


def welford_step(count: int, mean: float, m2: float, y: float) -> tuple[int, float, float]:
    """One Welford update of (count, mean, m2) by the float observation ``y``.

    The single copy of the recurrence: ``StreamingMoments.update`` and
    the engine's per-event fold both call it.
    """
    n = count + 1
    delta = y - mean
    mean = mean + delta / n
    m2 = m2 + delta * (y - mean)
    return n, mean, max(m2, 0.0)


@dataclass(frozen=True)
class StreamingMoments:
    """Observation count, running mean, and sum of squared deviations."""

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0

    def update(self, y: float) -> "StreamingMoments":
        """Absorb one observation, returning the new accumulator."""
        return StreamingMoments(*welford_step(self.count, self.mean, self.m2, float(y)))

    def merge(self, other: "StreamingMoments") -> "StreamingMoments":
        """Combine two accumulators as if their streams were concatenated."""
        if self.count == 0:
            return other
        if other.count == 0:
            return self
        n = self.count + other.count
        delta = other.mean - self.mean
        mean = self.mean + delta * other.count / n
        m2 = self.m2 + other.m2 + delta * delta * self.count * other.count / n
        return StreamingMoments(n, mean, max(m2, 0.0))

    @classmethod
    def from_values(cls, values: Iterable[float]) -> "StreamingMoments":
        acc = cls()
        for y in values:
            acc = acc.update(y)
        return acc

    @property
    def biased_variance(self) -> float:
        """m2 / n; requires at least one observation."""
        if self.count < 1:
            raise ValueError("variance needs at least one observation")
        return self.m2 / self.count

    @property
    def unbiased_variance(self) -> float:
        """m2 / (n - 1); requires at least two observations."""
        if self.count < 2:
            raise ValueError("unbiased variance needs at least two observations")
        return self.m2 / (self.count - 1)
