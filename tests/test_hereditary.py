"""Up-sets of the quadrant: canonical antichains, semiring ops, evaluations."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from tropsquare import (
    HereditarySet,
    INF,
    UNIT_SET,
    ZERO_SET,
    ZeroScale,
    axiom_suite,
    hereditary_semiring,
)

from helpers import numpy_rasterize, random_hset, raster, raster_minkowski

E4 = HereditarySet([(0, 8), (2, 5), (5, 3), (7, 0)])


# -- canonical form -----------------------------------------------------------


def test_canonicalize_absorbs_dominated():
    assert HereditarySet([(1, 1), (2, 3)]).generators == ((1, 1),)
    assert HereditarySet([]).is_zero
    assert E4.generators == ((0, 8), (2, 5), (5, 3), (7, 0))
    # pairwise incomparability of the kept staircase
    gens = E4.generators
    for i, (a, b) in enumerate(gens):
        for c, d in gens[i + 1 :]:
            assert not (a <= c and b <= d) and not (c <= a and d <= b)


def test_canonicalize_idempotent_and_order():
    pts = [(3, 3), (1, 4), (4, 1), (3, 3), (5, 5), (1, 6)]
    e = HereditarySet(pts)
    assert HereditarySet(e.generators) == e
    xs = [a for a, _ in e.generators]
    ys = [b for _, b in e.generators]
    assert xs == sorted(xs) and ys == sorted(ys, reverse=True)


def test_negative_coordinates_rejected():
    with pytest.raises(ValueError):
        HereditarySet([(-1, 0)])


# -- semiring operations -------------------------------------------------------


def test_add_frozen():
    e = random_hset(random.Random(1))
    assert e + ZERO_SET == e
    assert e + e == e
    assert HereditarySet([(1, 0)]) + HereditarySet([(0, 1)]) == HereditarySet(
        [(1, 0), (0, 1)]
    )


def test_mul_frozen():
    assert HereditarySet([(1, 0)]) * HereditarySet([(0, 1)]) == HereditarySet([(1, 1)])
    assert E4 * UNIT_SET == E4
    assert E4 * ZERO_SET == ZERO_SET
    two = HereditarySet([(1, 0), (0, 1)])
    assert two * two == HereditarySet([(2, 0), (1, 1), (0, 2)])


def test_axiom_suite_passes():
    assert axiom_suite(hereditary_semiring(), 1000, seed=3).passed


def test_mul_matches_raster_oracle():
    rng = random.Random(77)
    for _ in range(200):
        e, f = random_hset(rng, 9, 4), random_hset(rng, 9, 4)
        window = 19  # covers sums of coordinates up to 9 + 9
        got = raster(e * f, window)
        want = raster_minkowski(raster(e, window), raster(f, window))
        assert np.array_equal(got, want)


def test_add_matches_raster_union():
    rng = random.Random(78)
    two = HereditarySet([(1, 0)]) + HereditarySet([(0, 1)])
    assert np.array_equal(
        raster(two, 10),
        raster(HereditarySet([(1, 0)]), 10) | raster(HereditarySet([(0, 1)]), 10),
    )
    for _ in range(200):
        e, f = random_hset(rng, 9, 4), random_hset(rng, 9, 4)
        assert np.array_equal(raster(e + f, 10), raster(e, 10) | raster(f, 10))


def test_bilinearity_random():
    rng = random.Random(123)
    for _ in range(1000):
        e, f, g = (random_hset(rng, 8, 3) for _ in range(3))
        assert (e + f) * g == e * g + f * g


# -- coordinate scaling ---------------------------------------------------------


def test_scale_frozen():
    assert HereditarySet([(1, 2)]).scale(2, 3) == HereditarySet([(2, 6)])
    assert E4.scale(1, 1) == E4
    assert E4.scale(2, 3) == HereditarySet([(0, 24), (4, 15), (10, 9), (14, 0)])


def test_scale_rejects_zero():
    with pytest.raises(ZeroScale):
        E4.scale(0, 1)
    with pytest.raises(ZeroScale):
        E4.scale(2, 0)


def test_scale_endomorphism_laws():
    rng = random.Random(9)
    for _ in range(400):
        e, f = random_hset(rng, 6, 3), random_hset(rng, 6, 3)
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        assert (e + f).scale(n, m) == e.scale(n, m) + f.scale(n, m)
        assert (e * f).scale(n, m) == e.scale(n, m) * f.scale(n, m)
        p, q = rng.randint(1, 3), rng.randint(1, 3)
        assert e.scale(n, m).scale(p, q) == e.scale(n * p, m * q)


# -- evaluations ----------------------------------------------------------------


def test_min_degree_frozen():
    assert E4.min_degree() == 7
    assert ZERO_SET.min_degree() is INF
    assert UNIT_SET.min_degree() == 0


def test_min_degree_is_morphism():
    rng = random.Random(31)
    for _ in range(500):
        e, f = random_hset(rng, 8, 3), random_hset(rng, 8, 3)
        assert (e + f).min_degree() == min(e.min_degree(), f.min_degree())
        assert (e * f).min_degree() == e.min_degree() + f.min_degree()


def test_weighted_degree_frozen():
    r = Fraction(1, 3)
    assert E4.weighted_degree(r) == Fraction(7, 3)
    assert E4.weighted_minimizer(r)[1] == (7, 0)
    assert UNIT_SET.weighted_degree(r) == 0
    assert ZERO_SET.weighted_degree(r) is INF


def test_weighted_degree_scaling_bridge():
    # m * (least (n/m)-weighted degree) equals the diagonal degree after scaling
    assert E4.scale(1, 3).min_degree() == 7 == 3 * E4.weighted_degree(Fraction(1, 3))
    rng = random.Random(55)
    for _ in range(500):
        e = random_hset(rng, 9, 4)
        if e.is_zero:
            continue
        n, m = rng.choice(((1, 3), (2, 3), (3, 5), (5, 7)))
        assert m * e.weighted_degree(Fraction(n, m)) == e.scale(n, m).min_degree()


# -- windows --------------------------------------------------------------------


def test_rasterize_frozen():
    assert raster(UNIT_SET, 3).all()
    assert not raster(ZERO_SET, 3).any()
    grid = raster(HereditarySet([(1, 1)]), 3)
    want = np.zeros((3, 3), dtype=bool)
    want[1:, 1:] = True
    assert np.array_equal(grid, want)
    with pytest.raises(ValueError):
        UNIT_SET.rasterize(0)


@given(
    st.lists(st.tuples(st.integers(0, 14), st.integers(0, 14)), max_size=8),
    st.integers(1, 12),
)
@example([], 3)  # ZERO_SET
@example([(0, 0)], 3)  # UNIT_SET
@example([(0, 0)], 1)
@example([(2, 0)], 1)
@example([(13, 0), (0, 13)], 5)  # every generator outside the window
@example([(3, 4), (1, 4), (6, 4), (2, 7)], 8)  # duplicate columns
def test_rasterize_matches_numpy_oracle(points, window):
    grid = HereditarySet(points).rasterize(window)
    assert type(grid) is tuple and all(type(row) is tuple for row in grid)
    assert all(type(x) is bool for row in grid for x in row)
    assert np.array_equal(np.array(grid, dtype=bool), numpy_rasterize(points, window))


@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=6))
def test_membership_matches_generators(points):
    e = HereditarySet(points)
    for x in range(8):
        for y in range(8):
            want = any(a <= x and b <= y for a, b in points)
            assert e.contains(x, y) == want


def test_json_roundtrip():
    assert HereditarySet.from_json(E4.to_json()) == E4
    assert HereditarySet.from_json(ZERO_SET.to_json()) == ZERO_SET


@pytest.mark.parametrize("point", [[1.7, 2], [True, 5], [2, 3.0], [1, False], [1, 2, 3], ["1", 2]])
def test_json_rejects_inexact_coordinates(point):
    with pytest.raises(ValueError):
        HereditarySet.from_json({"generators": [[0, 9], point]})
