"""Two-generator numerical semigroups: membership, conductor, gaps."""

import random
from math import gcd

import pytest
from hypothesis import example, given, strategies as st

from tropsquare import conductor, gaps, represents

from helpers import loop_represents, random_hset


def test_represents_frozen():
    assert not represents(3, 5, 7)
    assert represents(3, 5, 8)
    assert represents(3, 5, 0)
    assert represents(1, 4, 3)


def test_conductor_frozen():
    assert conductor(3, 5) == 8
    assert conductor(1, 7) == 0
    assert conductor(2, 3) == 2


def test_gaps_frozen():
    assert gaps(3, 5) == [1, 2, 4, 7]
    assert gaps(1, 9) == []
    assert gaps(2, 3) == [1]


def test_validation():
    with pytest.raises(ValueError):
        conductor(4, 6)
    with pytest.raises(ValueError):
        represents(0, 3, 1)


def test_conductor_bound_sweep():
    for n in range(1, 13):
        for m in range(n, 13):
            if gcd(n, m) != 1:
                continue
            c = conductor(n, m)
            assert all(represents(n, m, k) for k in range(c, c + n * m + 1))
            if n >= 2 and m >= 2:
                assert not represents(n, m, c - 1)
            # gap count below the conductor is exactly half of it
            assert len(gaps(n, m)) == c // 2 and c % 2 == 0


@st.composite
def _queries(draw):
    n = draw(st.integers(1, 40))
    m = draw(st.integers(1, 40).filter(lambda m: gcd(n, m) == 1))
    # the conductor (n-1)(m-1) lies inside this range
    return n, m, draw(st.integers(-5, 2 * n * m))


@given(_queries())
@example((1, 1, 0))
@example((1, 7, 3))
@example((9, 1, 4))
@example((3, 5, -1))
@example((3, 5, 7))  # conductor - 1
@example((3, 5, 8))  # conductor
@example((39, 40, 39 * 38 - 1))
def test_closed_form_matches_loop(query):
    n, m, c = query
    assert represents(n, m, c) == loop_represents(n, m, c)
    assert gaps(n, m) == [k for k in range(conductor(n, m)) if not loop_represents(n, m, k)]


def test_scaled_diagonal_degree_is_representable():
    rng = random.Random(13)
    for _ in range(400):
        e = random_hset(rng, 9, 4)
        if e.is_zero:
            continue
        n, m = rng.choice(((1, 3), (2, 3), (3, 5), (5, 7), (4, 9)))
        assert represents(n, m, e.scale(n, m).min_degree())


def test_non_coprime_scaling_is_coprime_range_stretched():
    rng = random.Random(14)
    for _ in range(200):
        e = random_hset(rng, 8, 3)
        if e.is_zero:
            continue
        n, m, k = 2, 3, rng.randint(1, 4)
        assert e.scale(k * n, k * m).min_degree() == k * e.scale(n, m).min_degree()
