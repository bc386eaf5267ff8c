import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anytime_ab.moments import welford_merge, welford_step

EMPTY = (0, 0.0, 0.0)


def fold(values, state=EMPTY):
    """The (count, mean, m2) triple after folding ``values`` into ``state`` one by one."""
    for y in values:
        state = welford_step(*state, float(y))
    return state


def two_pass(values):
    """Textbook two-pass mean/variance oracle."""
    values = list(values)
    n = len(values)
    mean = sum(values) / n
    m2 = sum((v - mean) ** 2 for v in values)
    return n, mean, m2


def test_single_update_from_empty():
    assert fold([5.0]) == (1, 5.0, 0.0)


def test_small_stream_matches_two_pass():
    count, mean, m2 = fold([1.0, 2.0, 3.0])
    assert mean == pytest.approx(2.0)
    assert m2 / count == pytest.approx(2.0 / 3.0)
    assert m2 / (count - 1) == pytest.approx(1.0)


def test_large_normal_stream_matches_two_pass():
    rng = np.random.default_rng(1234)
    values = rng.standard_normal(10_000)
    count, mean, m2 = fold(values)
    n, mean_ref, m2_ref = two_pass(values)
    assert count == n
    assert mean == pytest.approx(mean_ref, rel=1e-10)
    assert m2 == pytest.approx(m2_ref, rel=1e-10)


def test_merge_identity():
    acc = fold([1.0, 2.0])
    assert welford_merge(acc, EMPTY) == acc
    assert welford_merge(EMPTY, acc) == acc


def test_merge_equals_streaming():
    merged = welford_merge(fold([1.0, 2.0]), fold([3.0]))
    direct = fold([1.0, 2.0, 3.0])
    assert merged[0] == direct[0]
    assert merged[1] == pytest.approx(direct[1], rel=1e-12)
    assert merged[2] == pytest.approx(direct[2], rel=1e-12)


def test_random_64_way_split_merge():
    rng = np.random.default_rng(99)
    values = rng.standard_normal(100_000)
    direct = fold(values)
    cuts = np.sort(rng.choice(np.arange(1, len(values)), size=63, replace=False))
    parts = [fold(chunk) for chunk in np.split(values, cuts)]
    order = rng.permutation(len(parts))
    acc = EMPTY
    for i in order:
        acc = welford_merge(acc, parts[i])
    assert acc[0] == direct[0]
    assert acc[1] == pytest.approx(direct[1], rel=1e-10)
    assert acc[2] == pytest.approx(direct[2], rel=1e-10)


def test_near_constant_stream_never_negative_variance():
    base = 1e8
    acc = fold(base + (i % 3) * 1e-9 for i in range(10_000))
    assert acc[2] >= 0.0


def test_exactly_constant_stream():
    _, mean, m2 = fold([7.25] * 500)
    assert mean == 7.25
    assert m2 == 0.0


finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@given(st.lists(finite_floats, min_size=1, max_size=60), st.data())
@settings(max_examples=200, deadline=None)
def test_merge_equals_streaming_any_partition(values, data):
    cut = data.draw(st.integers(min_value=0, max_value=len(values)))
    merged = welford_merge(fold(values[:cut]), fold(values[cut:]))
    direct = fold(values)
    assert merged[0] == direct[0]
    assert merged[1] == pytest.approx(direct[1], rel=1e-12, abs=1e-9)
    assert merged[2] == pytest.approx(direct[2], rel=1e-12, abs=1e-6)
    assert merged[2] >= 0.0


@given(
    st.lists(finite_floats, min_size=0, max_size=20),
    st.lists(finite_floats, min_size=0, max_size=20),
)
@settings(max_examples=200, deadline=None)
def test_merge_commutative(xs, ys):
    a, b = fold(xs), fold(ys)
    ab, ba = welford_merge(a, b), welford_merge(b, a)
    assert ab[0] == ba[0]
    assert ab[1] == pytest.approx(ba[1], rel=1e-12, abs=1e-9)
    assert ab[2] == pytest.approx(ba[2], rel=1e-12, abs=1e-6)


def test_merge_associative():
    rng = np.random.default_rng(3)
    a, b, c = (fold(rng.standard_normal(k)) for k in (11, 7, 19))
    left = welford_merge(welford_merge(a, b), c)
    right = welford_merge(a, welford_merge(b, c))
    assert left[0] == right[0]
    assert left[1] == pytest.approx(right[1], rel=1e-12)
    assert left[2] == pytest.approx(right[2], rel=1e-12)
