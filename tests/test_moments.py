import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anytime_ab.moments import StreamingMoments


def two_pass(values):
    """Textbook two-pass mean/variance oracle."""
    values = list(values)
    n = len(values)
    mean = sum(values) / n
    m2 = sum((v - mean) ** 2 for v in values)
    return n, mean, m2


def test_single_update_from_empty():
    acc = StreamingMoments().update(5.0)
    assert (acc.count, acc.mean, acc.m2) == (1, 5.0, 0.0)


def test_small_stream_matches_two_pass():
    acc = StreamingMoments.from_values([1.0, 2.0, 3.0])
    assert acc.mean == pytest.approx(2.0)
    assert acc.m2 / acc.count == pytest.approx(2.0 / 3.0)
    assert acc.m2 / (acc.count - 1) == pytest.approx(1.0)


def test_large_normal_stream_matches_two_pass():
    rng = np.random.default_rng(1234)
    values = rng.standard_normal(10_000)
    acc = StreamingMoments.from_values(values)
    n, mean, m2 = two_pass(values)
    assert acc.count == n
    assert acc.mean == pytest.approx(mean, rel=1e-10)
    assert acc.m2 == pytest.approx(m2, rel=1e-10)


def test_merge_identity():
    acc = StreamingMoments.from_values([1.0, 2.0])
    empty = StreamingMoments()
    assert acc.merge(empty) == acc
    assert empty.merge(acc) == acc


def test_merge_equals_streaming():
    merged = StreamingMoments.from_values([1.0, 2.0]).merge(StreamingMoments.from_values([3.0]))
    direct = StreamingMoments.from_values([1.0, 2.0, 3.0])
    assert merged.count == direct.count
    assert merged.mean == pytest.approx(direct.mean, rel=1e-12)
    assert merged.m2 == pytest.approx(direct.m2, rel=1e-12)


def test_random_64_way_split_merge():
    rng = np.random.default_rng(99)
    values = rng.standard_normal(100_000)
    direct = StreamingMoments.from_values(values)
    cuts = np.sort(rng.choice(np.arange(1, len(values)), size=63, replace=False))
    parts = [StreamingMoments.from_values(chunk) for chunk in np.split(values, cuts)]
    order = rng.permutation(len(parts))
    acc = StreamingMoments()
    for i in order:
        acc = acc.merge(parts[i])
    assert acc.count == direct.count
    assert acc.mean == pytest.approx(direct.mean, rel=1e-10)
    assert acc.m2 == pytest.approx(direct.m2, rel=1e-10)


def test_near_constant_stream_never_negative_variance():
    base = 1e8
    acc = StreamingMoments()
    for i in range(10_000):
        acc = acc.update(base + (i % 3) * 1e-9)
    assert acc.m2 >= 0.0


def test_exactly_constant_stream():
    acc = StreamingMoments.from_values([7.25] * 500)
    assert acc.mean == 7.25
    assert acc.m2 == 0.0


finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@given(st.lists(finite_floats, min_size=1, max_size=60), st.data())
@settings(max_examples=200, deadline=None)
def test_merge_equals_streaming_any_partition(values, data):
    cut = data.draw(st.integers(min_value=0, max_value=len(values)))
    left = StreamingMoments.from_values(values[:cut])
    right = StreamingMoments.from_values(values[cut:])
    merged = left.merge(right)
    direct = StreamingMoments.from_values(values)
    assert merged.count == direct.count
    assert merged.mean == pytest.approx(direct.mean, rel=1e-12, abs=1e-9)
    assert merged.m2 == pytest.approx(direct.m2, rel=1e-12, abs=1e-6)
    assert merged.m2 >= 0.0


@given(
    st.lists(finite_floats, min_size=0, max_size=20),
    st.lists(finite_floats, min_size=0, max_size=20),
)
@settings(max_examples=200, deadline=None)
def test_merge_commutative(xs, ys):
    a = StreamingMoments.from_values(xs)
    b = StreamingMoments.from_values(ys)
    ab, ba = a.merge(b), b.merge(a)
    assert ab.count == ba.count
    assert ab.mean == pytest.approx(ba.mean, rel=1e-12, abs=1e-9)
    assert ab.m2 == pytest.approx(ba.m2, rel=1e-12, abs=1e-6)


def test_merge_associative():
    rng = np.random.default_rng(3)
    a, b, c = (StreamingMoments.from_values(rng.standard_normal(k)) for k in (11, 7, 19))
    left = a.merge(b).merge(c)
    right = a.merge(b.merge(c))
    assert left.count == right.count
    assert left.mean == pytest.approx(right.mean, rel=1e-12)
    assert left.m2 == pytest.approx(right.m2, rel=1e-12)
