"""Sloped evaluations: homomorphism laws, actions, isomorphism, convergents."""

import random
from fractions import Fraction

import pytest

from tropsquare import (
    CorrespondenceElement,
    ExactScalar,
    HereditarySet,
    GermExponent,
    NonPositiveLambda,
    RationalLambda,
    approximate,
    as_scalar,
    axiom_suite,
    convergents,
    deformation_left,
    deformation_right,
    evaluate,
    germ_add,
    germ_min,
    germ_semiring,
    is_germ_element,
    iso_equivalent,
    iso_invariant,
    left_action,
    right_action,
    surd,
    value_semiring,
)

from helpers import random_hset

E4 = HereditarySet([(0, 8), (2, 5), (5, 3), (7, 0)])

SLOPES = (
    as_scalar(Fraction(1, 3)),
    as_scalar(2),
    as_scalar(Fraction(5, 7)),
    surd(2),
    surd(3),
)


# -- evaluation -----------------------------------------------------------------


def test_evaluate_frozen():
    elem = evaluate(E4, Fraction(1, 3))
    assert elem.alpha == Fraction(7, 3) and elem.witness == (7, 0)
    assert evaluate(HereditarySet([(0, 0)]), surd(5)).alpha == 0
    elem = evaluate(HereditarySet([(1, 0), (0, 2)]), surd(2))
    assert elem.alpha == surd(2) and elem.witness == (1, 0)
    assert evaluate(HereditarySet(), Fraction(1, 2)).is_zero


def test_evaluate_requires_positive_slope():
    with pytest.raises(NonPositiveLambda):
        evaluate(E4, Fraction(-1, 3))


@pytest.mark.parametrize("lam", SLOPES, ids=str)
def test_evaluate_is_homomorphism(lam):
    rng = random.Random(1000 + lam.d)
    for _ in range(1000):
        e, f = random_hset(rng, 8, 3), random_hset(rng, 8, 3)
        ev, fv = evaluate(e, lam), evaluate(f, lam)
        assert evaluate(e + f, lam).alpha == min(ev.alpha, fv.alpha)
        assert evaluate(e * f, lam).alpha == ev.alpha + fv.alpha


def test_exponent_is_independent_of_value_base():
    # value-level cross-check for rational slopes: ranking the generators
    # by q**(exponent) agrees for two different bases q, so the returned
    # exponent carries all the information
    rng = random.Random(321)
    for _ in range(200):
        e = random_hset(rng, 7, 4)
        if e.is_zero:
            continue
        lam = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        scaled = [
            (lam.denominator * (lam * a + b), (a, b)) for a, b in e.generators
        ]  # integer exponents
        for q in (Fraction(1, 2), Fraction(1, 3)):
            values = [(q ** int(s), w) for s, w in scaled]
            best = max(values)[0]  # q < 1: the max value has the min exponent
            assert best == q ** int(
                lam.denominator * evaluate(e, lam).alpha.as_fraction()
            )


def test_element_equality_is_by_value():
    lam = as_scalar(Fraction(2, 3))
    x = CorrespondenceElement.from_witness(lam, 3, 0)  # 2
    y = CorrespondenceElement.from_witness(lam, 0, 2)  # 2
    assert x == y and hash(x) == hash(y)
    assert x != CorrespondenceElement.from_witness(lam, 1, 1)


# -- actions ---------------------------------------------------------------------


def test_actions_frozen():
    lam = as_scalar(Fraction(1, 2))
    one = CorrespondenceElement.from_witness(lam, 0, 0)
    assert left_action(lam, 2, one).alpha == 1
    assert left_action(lam, 0, one) == one
    assert right_action(lam, 3, one).alpha == 3
    x = CorrespondenceElement.from_witness(surd(2), 0, 1)
    assert left_action(surd(2), 1, x).alpha == ExactScalar(1, 1, 2)


def test_actions_commute_and_respect_zero():
    rng = random.Random(8)
    for lam in SLOPES:
        zero = CorrespondenceElement.zero()
        assert left_action(lam, 4, zero).is_zero
        for _ in range(100):
            x = CorrespondenceElement.from_witness(
                lam, rng.randint(0, 8), rng.randint(0, 8)
            )
            n, m = rng.randint(0, 5), rng.randint(0, 5)
            a = left_action(lam, n, right_action(lam, m, x))
            b = right_action(lam, m, left_action(lam, n, x))
            assert a == b and a.witness == b.witness


def test_value_semiring_axioms():
    for lam in SLOPES[:4]:
        assert axiom_suite(value_semiring(lam), 1000, seed=5).passed


# -- isomorphism classification -----------------------------------------------------


def test_iso_frozen():
    assert iso_equivalent(Fraction(2, 3), Fraction(3, 2))
    assert not iso_equivalent(Fraction(2, 3), Fraction(3, 4))
    assert iso_equivalent(surd(2), surd(2))
    assert iso_equivalent(surd(2), surd(2) / 2)  # 1/sqrt(2)
    assert not iso_equivalent(surd(2), surd(3))


def test_iso_invariant():
    assert iso_invariant(Fraction(3, 2)) == Fraction(2, 3)
    assert iso_invariant(Fraction(2, 3)) == Fraction(2, 3)


def test_lambda_json_roundtrip():
    from tropsquare import lambda_from_json, lambda_to_json

    for lam in (as_scalar(Fraction(5, 7)), surd(2), ExactScalar(1, 1, 2) / 3):
        obj = lambda_to_json(lam)
        assert lambda_from_json(obj) == as_scalar(lam)
    assert lambda_to_json(Fraction(5, 7)) == {"kind": "rational", "num": 5, "den": 7}
    assert lambda_to_json(surd(2)) == {
        "kind": "quadratic",
        "a": [0, 1],
        "b": [1, 1],
        "d": 2,
    }
    with pytest.raises(NonPositiveLambda):
        lambda_from_json({"kind": "rational", "num": -1, "den": 2})
    with pytest.raises(ValueError):
        lambda_from_json({"kind": "cubic"})
    # booleans and floats are rejected, not read as 1/2 or truncated
    for bad in (
        {"kind": "rational", "num": True, "den": 2},
        {"kind": "rational", "num": 1, "den": 2.0},
        {"kind": "quadratic", "a": [0, 1], "b": [1, 1], "d": 2.5},
        {"kind": "quadratic", "a": [0.5, 1], "b": [1, 1], "d": 2},
    ):
        with pytest.raises(ValueError):
            lambda_from_json(bad)


def farey_grid(max_den: int = 10):
    out = set()
    for q in range(1, max_den + 1):
        for p in range(1, max_den + 1):
            out.add(Fraction(p, q))
    return sorted(out)


def test_iso_is_equivalence_on_grid():
    grid = farey_grid(6)
    for l1 in grid:
        assert iso_equivalent(l1, l1)
        for l2 in grid:
            want = l2 == l1 or l2 == 1 / l1
            assert iso_equivalent(l1, l2) == want
            assert iso_equivalent(l2, l1) == want
            if want:
                assert iso_invariant(l1) == iso_invariant(l2)


# -- diophantine approximation --------------------------------------------------------


def test_convergents_frozen():
    assert convergents(surd(2), 4) == [
        Fraction(1),
        Fraction(3, 2),
        Fraction(7, 5),
        Fraction(17, 12),
    ]
    assert convergents(surd(2), 1) == [Fraction(1)]
    assert convergents(as_scalar(Fraction(27, 73)), 10)[-1] == Fraction(27, 73)
    golden = (1 + surd(5)) / 2
    assert convergents(golden, 6) == [
        Fraction(1),
        Fraction(2),
        Fraction(3, 2),
        Fraction(5, 3),
        Fraction(8, 5),
        Fraction(13, 8),
    ]


def test_convergents_beyond_float_range():
    x = 10**400 + surd(2)
    cs = convergents(x, 20)
    assert len(cs) == 20
    for c in cs:
        assert abs(x - c) < Fraction(1, c.denominator**2)
    # shifting by an integer moves only the first partial quotient
    assert [c.denominator for c in cs] == [c.denominator for c in convergents(surd(2), 20)]


def test_approximate_frozen_single_generator():
    steps = approximate(surd(2), HereditarySet([(1, 0)]), 4)
    assert [s.convergent for s in steps] == convergents(surd(2), 4)
    for s in steps:
        assert s.alpha == s.convergent  # E = {(1,0)} evaluates to the slope


def test_approximate_rejects_rational():
    with pytest.raises(RationalLambda):
        approximate(Fraction(3, 2), E4, 3)


def test_approximate_error_bound_and_monotonicity():
    rng = random.Random(271)
    for lam in (surd(2), surd(3), (1 + surd(5)) / 2):
        for _ in range(60):
            e = random_hset(rng, 9, 4)
            if e.is_zero:
                continue
            alpha = e.weighted_degree(lam)
            steps = approximate(lam, e, 8)
            prev_bound = None
            for s in steps:
                err = abs(as_scalar(s.alpha) - alpha)
                assert err <= s.bound
                if prev_bound is not None:
                    assert s.bound <= prev_bound
                prev_bound = s.bound


# -- germ carrier -------------------------------------------------------------------


def test_deformation_generators_frozen():
    assert deformation_left(1) == GermExponent(1, 1, 1)
    assert deformation_left(0) == GermExponent(0, 0, 0)
    assert deformation_left(3) == GermExponent(3, 3, 3)
    assert deformation_right(1) == GermExponent(1, 0, 0)
    assert deformation_right(0) == GermExponent(0, 0, 0)
    assert germ_add(deformation_left(2), deformation_right(5)) == GermExponent(7, 2, 2)


def test_deformation_generators_are_morphisms():
    rng = random.Random(44)
    for _ in range(300):
        n, m = rng.randint(0, 12), rng.randint(0, 12)
        for gen in (deformation_left, deformation_right):
            assert germ_min(gen(n), gen(m)) == gen(min(n, m))
            assert germ_add(gen(n), gen(m)) == gen(n + m)


def test_germ_semiring_axioms_and_membership():
    sr = germ_semiring()
    assert axiom_suite(sr, 1000, seed=23).passed
    rng = random.Random(45)
    for _ in range(500):
        x, y = sr.sample(rng), sr.sample(rng)
        assert is_germ_element(x)
        assert is_germ_element(germ_min(x, y))
        assert is_germ_element(germ_add(x, y))
