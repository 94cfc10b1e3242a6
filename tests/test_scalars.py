"""Exact scalar tower: canonical forms, comparisons, arithmetic, germs."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tropsquare import (
    INF,
    ExactScalar,
    GermExponent,
    IncompatibleRadicals,
    UNIT_GERM,
    ZERO_GERM,
    as_scalar,
    format_scalar_spec,
    germ_add,
    germ_min,
    lambda_from_json,
    lambda_to_json,
    parse_scalar_spec,
    scalar_from_json,
    scalar_to_json,
    surd,
)

from tropsquare.correspondence import random_germ
from tropsquare.scalars import _squarefree, inf_or, rational_from_json, rational_to_json

from helpers import interval_sign, squarefree_oracle


def sign(x, y) -> int:
    if x < y:
        return -1
    if x > y:
        return 1
    return 0


# -- canonical form -----------------------------------------------------------


def test_canonical_square_part_extracted():
    assert surd(8) == ExactScalar(0, 2, 2)
    assert surd(12) == ExactScalar(0, 2, 3)
    assert surd(4) == ExactScalar(2)
    assert surd(1) == ExactScalar(1)
    assert ExactScalar(3, 0, 7) == ExactScalar(3)


def test_squarefree_matches_trial_division_by_every_integer():
    for d in range(1, 10**5 + 1):
        assert _squarefree(d) == squarefree_oracle(d)
    # products of primes near 10**6, one with a square and a power of 2
    for d in (999983 * 1000003, 2 * 1000003**2, 4 * 999983 * 1000033, 2**41 * 999983):
        assert _squarefree(d) == squarefree_oracle(d)


def test_canonical_negative_radicand_rejected():
    with pytest.raises(ValueError):
        ExactScalar(0, 1, -2)


def test_floats_rejected():
    with pytest.raises(TypeError):
        ExactScalar(0.1)
    with pytest.raises(TypeError):
        as_scalar(1.5)
    with pytest.raises(TypeError):
        ExactScalar(1, 0.5, 2)
    with pytest.raises(TypeError):
        surd(2) + 0.5


# -- frozen comparison examples ----------------------------------------------


def test_compare_one_plus_sqrt2_below_five_halves():
    # (1 + sqrt 2)^2 = 3 + 2*sqrt(2) < 25/4, confirmed by the interval oracle
    x = ExactScalar(1, 1, 2)
    y = as_scalar(Fraction(5, 2))
    assert x < y
    assert interval_sign(x, y) == -1


def test_compare_reflexive():
    x = ExactScalar(1, 1, 2)
    assert sign(x, x) == 0


def test_compare_sqrt2_above_one():
    assert surd(2) > 1
    assert interval_sign(surd(2), as_scalar(1)) == 1


def test_compare_mixed_radicals_raises():
    x, y = ExactScalar(1, 1, 2), ExactScalar(1, 1, 3)
    for cmp in (
        lambda: surd(2) < surd(3), lambda: surd(5) >= surd(6),
        lambda: x < y, lambda: x <= y, lambda: x > y, lambda: x >= y,
    ):
        with pytest.raises(IncompatibleRadicals, match="cannot compare"):
            cmp()
    for op in (lambda: x + y, lambda: x - y):
        with pytest.raises(IncompatibleRadicals, match="cannot add sqrt"):
            op()
    # equality across radicands is structurally decidable
    assert surd(2) != surd(3)
    assert not (surd(2) == surd(3))


def _random_scalar(rng: random.Random, d: int) -> ExactScalar:
    a = Fraction(rng.randint(-30, 30), rng.choice((1, 2, 3, 5)))
    b = Fraction(rng.randint(-30, 30), rng.choice((1, 2, 3, 5)))
    return ExactScalar(a, b, d)


def test_total_order_against_interval_oracle():
    rng = random.Random(20240811)
    for _ in range(10_000):
        d = rng.choice((0, 2, 3, 5, 6))
        x, y, z = (_random_scalar(rng, d) for _ in range(3))
        sxy = sign(x, y)
        # agreement with 100-digit interval arithmetic
        assert sxy == interval_sign(x, y)
        # antisymmetry and consistency with addition
        assert sign(y, x) == -sxy
        assert sign(x + z, y + z) == sxy
        # transitivity on the sorted triple
        lo, mid, hi = sorted((x, y, z))
        assert lo <= mid <= hi and lo <= hi


# -- arithmetic ---------------------------------------------------------------


def test_products_across_radicands():
    assert surd(2) * surd(3) == surd(6)
    assert surd(2) * surd(2) == as_scalar(2)
    assert surd(6) * surd(2) == ExactScalar(0, 2, 3)
    assert surd(6 * 1000003) * surd(10 * 1000003) == ExactScalar(0, 2 * 1000003, 15)
    # radicands near 10**12 multiply without factoring their product
    p, q = 999999999989, 999999999961
    big = ExactScalar._make(0, 1, p) * ExactScalar._make(0, Fraction(1, 3), q)
    assert (big.a, big.b, big.d) == (0, Fraction(1, 3), p * q)
    with pytest.raises(IncompatibleRadicals):
        ExactScalar(1, 1, 2) * ExactScalar(1, 1, 3)
    with pytest.raises(IncompatibleRadicals):
        ExactScalar(1, 1, 2) + ExactScalar(0, 1, 3)


def test_conjugate_product_and_inverse():
    x = ExactScalar(1, 1, 2)
    assert x * ExactScalar(1, -1, 2) == as_scalar(-1)
    assert surd(2).inverse() == ExactScalar(0, Fraction(1, 2), 2)
    assert (x * x.inverse()) == as_scalar(1)
    with pytest.raises(ZeroDivisionError):
        ExactScalar(0).inverse()


def test_floor_exact():
    assert surd(2).floor() == 1
    assert ExactScalar(Fraction(7, 3)).floor() == 2
    assert ExactScalar(Fraction(-7, 3)).floor() == -3
    assert ExactScalar(-1, 1, 2).floor() == 0  # sqrt(2) - 1
    assert ExactScalar(0, 12, 2).floor() == 16  # 12*sqrt(2) = 16.97...
    # beyond float range
    assert (10**400 + surd(2)).floor() == 10**400 + 1
    assert (-(10**400) - surd(2)).floor() == -(10**400) - 2
    assert ExactScalar(10**400, -1, 2).floor() == 10**400 - 2


def test_floor_exact_on_random_surds():
    # x - 1 < floor(x) <= x, decided exactly, for either sign of a and b
    # and for rational parts far beyond float range
    rng = random.Random(9001)
    for _ in range(2000):
        d = rng.choice((2, 3, 5, 6, 7, 10))
        x = _random_scalar(rng, d)
        if rng.random() < 0.25:
            x = x + rng.choice((1, -1)) * 10**400
        n = x.floor()
        assert type(n) is int
        assert x - 1 < n <= x


def test_infinity_absorbs():
    assert INF + 3 is INF
    assert 3 + INF is INF
    assert min(5, INF) == 5
    assert min(INF, Fraction(1, 2)) == Fraction(1, 2)
    assert surd(2) < INF
    assert INF <= INF


# -- trusted arithmetic against the public constructor ---------------------------


def _is_canonical_part(q) -> bool:
    """An int iff integral, else a Fraction with denominator > 1; never a float."""
    return type(q) is int or (type(q) is Fraction and q.denominator > 1)


def _assert_canonical(r: ExactScalar):
    rebuilt = ExactScalar(r.a, r.b, r.d)
    assert (r.a, r.b, r.d) == (rebuilt.a, rebuilt.b, rebuilt.d)
    assert hash(r) == hash(rebuilt)
    assert _is_canonical_part(r.a) and _is_canonical_part(r.b) and type(r.d) is int
    assert (r.b == 0) == (r.d == 0)
    if r.d:
        assert r.d >= 2
        assert all(r.d % (k * k) for k in range(2, math.isqrt(r.d) + 1))


fractions = st.fractions(min_value=-40, max_value=40, max_denominator=9)


@given(
    xa=fractions, xb=fractions, ya=fractions, yb=fractions,
    d=st.sampled_from([0, 2, 3, 5, 6]),
    y_rational=st.booleans(),
)
def test_trusted_results_are_canonical(xa, xb, ya, yb, d, y_rational):
    x = ExactScalar(xa, xb, d)
    y = ExactScalar(ya, 0 if y_rational else yb, d)
    results = [x + y, x - y, -x, x * y, y + x, y - x, y * x]
    # the same values through the public constructor (the slow path)
    assert x + y == ExactScalar(x.a + y.a, x.b + y.b, d)
    assert x - y == ExactScalar(x.a - y.a, x.b - y.b, d)
    assert x * y == ExactScalar(x.a * y.a + x.b * y.b * d, x.a * y.b + x.b * y.a, d)
    for z, w in ((x, y), (y, x)):
        if z.sign() != 0:
            inv = z.inverse()
            assert inv * z == 1
            assert w / z == w * inv
            results += [inv, w / z]
    for r in results:
        _assert_canonical(r)


def test_trusted_results_under_cancellation():
    for d in (2, 3, 5, 6):
        x = ExactScalar(Fraction(7, 3), Fraction(-5, 2), d)
        results = [x + (-x), x - x, x - x.b * surd(d), 0 * surd(d), surd(d) * 0]
        for r in results:
            _assert_canonical(r)
            assert r.d == 0
        assert x - x.b * surd(d) == x.a
    conj = ExactScalar(1, 1, 2) * ExactScalar(1, -1, 2)
    _assert_canonical(conj)
    assert conj == -1 and conj.d == 0
    _assert_canonical(surd(6) * surd(2))
    assert surd(6) * surd(2) == ExactScalar(0, 2, 3)
    _assert_canonical(surd(6 * 1000003) * surd(10 * 1000003))
    _assert_canonical(surd(2) * surd(2))
    _assert_canonical(as_scalar(Fraction(4, 3)).inverse())


def test_integral_parts_are_ints():
    x = ExactScalar(Fraction(6, 2), Fraction(4, 2), 8)
    assert (x.a, x.b, x.d) == (3, 4, 2) and type(x.a) is int and type(x.b) is int
    assert type(ExactScalar(True).a) is int and type(surd(4).a) is int
    assert type(ExactScalar(0, Fraction(1, 2), 8).b) is int  # 1/2 * 2*sqrt(2)
    halves = ExactScalar(Fraction(1, 2)) + Fraction(1, 2)
    assert type(halves.a) is int and halves == 1
    y = ExactScalar(Fraction(5, 2), 3, 2)
    for r in (x + 1, 1 + x, x - 1, 1 - x, x * 2, 2 * x, -x, x + y, x - y, y - x, x * y,
              y + Fraction(1, 2), y * 2, y - Fraction(1, 2), ExactScalar(5) + 7):
        _assert_canonical(r)


def test_inverse_and_division_never_float():
    three = ExactScalar(3)
    assert three.inverse() == Fraction(1, 3) and type(three.inverse().a) is Fraction
    assert ExactScalar(-1).inverse() == -1 and type(ExactScalar(-1).inverse().a) is int
    x = ExactScalar(1, 1, 2)
    assert x.inverse() == ExactScalar(-1, 1, 2)  # (1 + sqrt 2)(sqrt 2 - 1) = 1
    assert ExactScalar(1, 2, 3).inverse() == ExactScalar(Fraction(-1, 11), Fraction(2, 11), 3)
    results = [
        three.inverse(), ExactScalar(-1).inverse(), x.inverse(),
        ExactScalar(1, 2, 3).inverse(), as_scalar(Fraction(2, 3)).inverse(),
        three / 3, three / 2, 6 / three, 1 / three, three / Fraction(3, 4),
        x / x, x / 2, 2 / x, surd(2) / surd(2), surd(2) / 2, three / x,
    ]
    assert three / 3 == 1 and three / 2 == Fraction(3, 2) and 6 / three == 2
    assert x / x == 1 and surd(2) / 2 == ExactScalar(0, Fraction(1, 2), 2)
    for r in results:
        _assert_canonical(r)


def test_as_fraction_returns_fraction():
    for q in (3, Fraction(7, 3), 0, -2, Fraction(-1, 2)):
        f = ExactScalar(q).as_fraction()
        assert type(f) is Fraction and f == q
    assert type((surd(2) * surd(2)).as_fraction()) is Fraction
    with pytest.raises(ValueError):
        surd(2).as_fraction()


# -- comparison edge cases -------------------------------------------------------


def test_order_against_infinity_both_sides():
    x = ExactScalar(10**400, 1, 2)
    assert x < INF and x <= INF and not x > INF and not x >= INF
    assert INF > x and INF >= x and not INF < x and not INF <= x
    assert x != INF and INF != x
    assert min(x, INF) is x and min(INF, x) is x


def test_order_with_int_fraction_and_bool_operands():
    s2 = surd(2)
    assert 1 < s2 < 2 and s2 > 1 and 2 > s2
    assert Fraction(7, 5) < s2 < Fraction(3, 2)
    assert Fraction(3, 2) > s2 and Fraction(7, 5) <= s2
    assert True < s2 and s2 >= True and not s2 <= True
    assert ExactScalar(1) == True and ExactScalar(0) == False  # noqa: E712
    assert ExactScalar(Fraction(1, 2)) < 1 and 0 <= ExactScalar(Fraction(1, 2))
    assert ExactScalar(3) >= 3 and ExactScalar(3) <= Fraction(6, 2)
    # -1 < sqrt(2) - 2 < -1/2
    assert sign(ExactScalar(-2, 1, 2), -1) == 1
    assert sign(ExactScalar(-2, 1, 2), Fraction(-1, 2)) == -1


def test_bool_operand_is_an_int():
    # bool is coerced as the int subclass it is, into a canonical scalar
    total = ExactScalar(1) + True
    assert type(total) is ExactScalar and total == 2 and type(total.a) is int
    assert True + surd(2) == ExactScalar(1, 1, 2) and surd(2) * False == 0


def test_float_operand_still_type_error():
    for cmp in (
        lambda: surd(2) < 1.5, lambda: surd(2) <= 1.5,
        lambda: surd(2) > 1.5, lambda: surd(2) >= 1.5,
        lambda: 1.5 > surd(2), lambda: ExactScalar(1) < 2.0,
    ):
        with pytest.raises(TypeError):
            cmp()


# -- serialization ------------------------------------------------------------


@given(
    a=st.fractions(min_value=-50, max_value=50, max_denominator=12),
    b=st.fractions(min_value=-50, max_value=50, max_denominator=12),
    d=st.sampled_from([0, 2, 3, 5, 6, 8, 12]),
)
def test_json_and_spec_roundtrip(a, b, d):
    x = ExactScalar(a, b, d)
    for q in (a, b, x.a, x.b):
        pair = rational_to_json(q)
        assert all(type(p) is int for p in pair)
        assert rational_from_json(pair) == q
    assert scalar_from_json(scalar_to_json(x)) == x
    assert parse_scalar_spec(format_scalar_spec(x)) == x
    lam = abs(x) + 1  # slopes are positive
    assert lambda_from_json(lambda_to_json(lam)) == lam
    assert inf_or(x, scalar_to_json) == scalar_to_json(x)
    assert inf_or(INF, scalar_to_json) == "inf"


@pytest.mark.parametrize("bad", [[True, 1], [1, False], [1.5, 2], [1, 2.0], [1], [1, 2, 3], [1, 0]])
def test_json_decoders_reject_inexact_numbers(bad):
    """A float, a boolean, a wrong length or a zero denominator is rejected,
    never coerced."""
    with pytest.raises(ValueError):
        rational_from_json(bad)
    with pytest.raises(ValueError):
        scalar_from_json({"a": bad, "b": [1, 1], "d": 2})
    with pytest.raises(ValueError):
        scalar_from_json({"a": [1, 1], "b": bad, "d": 2})
    for d in (2.0, True):
        with pytest.raises(ValueError):
            scalar_from_json({"a": [1, 1], "b": [1, 1], "d": d})


def test_spec_string_examples():
    assert format_scalar_spec(as_scalar(2)) == "2"
    assert format_scalar_spec(as_scalar(Fraction(3, 8))) == "3/8"
    assert format_scalar_spec(surd(2)) == "sqrt:2"
    assert parse_scalar_spec("1+1*sqrt:2") == ExactScalar(1, 1, 2)
    assert parse_scalar_spec("7/5") == as_scalar(Fraction(7, 5))
    with pytest.raises(ValueError):
        parse_scalar_spec("sqrt(2)")


# -- germs --------------------------------------------------------------------


def g(base, sp, sm):
    return GermExponent(base, sp, sm)


def test_germ_min_frozen():
    # pointwise minimum of 2 + 2*eps and 2, per side of 0
    assert germ_min(g(2, 2, 2), g(2, 0, 0)) == g(2, 0, 2)
    x = g(3, 1, 2)
    assert germ_min(x, x) == x
    assert germ_min(g(1, 0, 0), g(2, 5, 5)) == g(1, 0, 0)


def test_germ_add_frozen():
    assert germ_add(g(1, 1, 1), g(1, 0, 0)) == g(2, 1, 1)
    x = g(4, 2, 3)
    assert germ_add(x, UNIT_GERM) == x
    assert germ_add(g(2, 0, 2), g(2, 0, 2)) == g(4, 0, 4)


def test_germ_zero():
    assert germ_min(ZERO_GERM, g(5, 1, 2)) == g(5, 1, 2)
    assert germ_add(ZERO_GERM, g(5, 1, 2)) == ZERO_GERM
    assert ZERO_GERM.is_zero


def test_germ_slope_invariant_enforced():
    with pytest.raises(ValueError):
        GermExponent(2, 3, 1)
    with pytest.raises(ValueError):
        GermExponent(0, 1, 0)
    with pytest.raises(TypeError):
        GermExponent(0.5, 0, 0)


def test_germ_one_sided_mode():
    assert germ_min(g(2, 2, 2), g(2, 0, 0), one_sided=True) == g(2, 0, 0)
    assert germ_min(g(1, 1, 3), g(4, 0, 0), one_sided=True) == g(1, 1, 1)


germs = st.builds(
    lambda base, sp, sm: GermExponent(base, min(sp, sm), max(sp, sm)),
    st.integers(0, 10),
    st.integers(0, 10),
    st.integers(0, 10),
) | st.just(ZERO_GERM)


def _assert_public_germ(r: GermExponent):
    rebuilt = GermExponent(INF) if r.is_zero else GermExponent(r.base, r.slope_plus, r.slope_minus)
    assert r == rebuilt and hash(r) == hash(rebuilt)
    if not r.is_zero:
        assert all(type(v) is ExactScalar for v in (r.base, r.slope_plus, r.slope_minus))
        for v in (r.base, r.slope_plus, r.slope_minus):
            _assert_canonical(v)
        assert r.slope_plus <= r.slope_minus


def test_germ_fast_path_matches_public_constructor():
    rng = random.Random(31)
    for _ in range(2000):
        x, y, z = (random_germ(rng) for _ in range(3))
        for r in (
            germ_add(x, y),
            germ_add(germ_add(x, y), z),
            germ_min(x, y),
            germ_min(x, y, one_sided=True),
            germ_min(germ_add(x, z), y),
            germ_min(germ_add(x, z), y, one_sided=True),
        ):
            _assert_public_germ(r)


def test_germ_arithmetic_on_integral_germs():
    x, y = g(3, 1, 2), g(3, 0, 3)
    for r in (germ_add(x, y), germ_min(x, y), germ_min(x, y, one_sided=True),
              germ_min(g(1, 1, 3), g(4, 0, 0), one_sided=True)):
        _assert_public_germ(r)
        assert all(type(v.a) is int for v in (r.base, r.slope_plus, r.slope_minus))
    assert germ_add(x, y) == g(6, 1, 5) and germ_min(x, y) == g(3, 0, 3)
    h = g(Fraction(1, 2), 0, Fraction(1, 2))
    _assert_public_germ(germ_add(h, h))
    assert type(germ_add(h, h).base.a) is int and germ_add(h, h) == g(1, 0, 1)


@given(germs, germs, germs)
def test_germ_laws(x, y, z):
    assert germ_min(x, y) == germ_min(y, x)
    assert germ_min(germ_min(x, y), z) == germ_min(x, germ_min(y, z))
    assert germ_min(x, x) == x
    assert germ_add(x, germ_min(y, z)) == germ_min(germ_add(x, y), germ_add(x, z))
    for out in (germ_min(x, y), germ_add(x, y)):
        assert out.is_zero or out.slope_plus <= out.slope_minus
