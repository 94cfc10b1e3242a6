"""Axiom harness: scalar instances pass, broken instances are caught."""

import json
import operator
import random
from fractions import Fraction

import pytest

from tropsquare import (
    BOOLEAN,
    INF,
    INT_MIN_PLUS,
    NAT_MIN_PLUS,
    NonPositiveLambda,
    RATIONAL_MIN_PLUS,
    Semiring,
    as_scalar,
    axiom_suite,
    is_subunit,
    surd,
    tropical_pow,
)


@pytest.mark.parametrize("sr", [BOOLEAN, NAT_MIN_PLUS, INT_MIN_PLUS, RATIONAL_MIN_PLUS])
def test_scalar_instances_pass(sr):
    report = axiom_suite(sr, 1000, seed=42)
    assert report.passed, report.to_json()


def test_scalar_instance_encodings():
    """Counterexamples are written in the JSON forms of the README."""
    for sr in (NAT_MIN_PLUS, INT_MIN_PLUS, RATIONAL_MIN_PLUS):
        assert sr.encode(INF) == "inf"
    assert NAT_MIN_PLUS.encode(7) == 7 and INT_MIN_PLUS.encode(-3) == -3
    assert RATIONAL_MIN_PLUS.encode(Fraction(-7, 2)) == [-7, 2]
    assert RATIONAL_MIN_PLUS.encode(0) == [0, 1]


def test_broken_instance_reports_counterexample():
    broken = Semiring(
        name="broken-noncommutative-add",
        zero=0,
        one=1,
        add=operator.sub,
        mul=operator.mul,
        sample=lambda rng: rng.randint(0, 9),
        encode=int,
    )
    report = axiom_suite(broken, 1000, seed=42)
    assert not report.passed
    failed = {r.law: r for r in report.results if not r.passed}
    assert "add_commutative" in failed
    cx = failed["add_commutative"].counterexample
    assert cx["x"] - cx["y"] != cx["y"] - cx["x"]


@pytest.mark.parametrize(
    "add,mul,zero,one,must_fail",
    [
        # plain addition is not idempotent
        (operator.add, operator.mul, 0, 1, "add_idempotent"),
        # min with zero = 0 is not an identity on negatives
        (min, operator.add, 0, 0, "add_zero_identity"),
        # subtraction as a product is not associative
        (min, operator.sub, 10**6, 0, "mul_associative"),
        # max-plus over naturals: min-zero does not absorb
        (max, operator.add, 0, 0, "zero_absorbs"),
    ],
)
def test_harness_catches_each_violation(add, mul, zero, one, must_fail):
    broken = Semiring(
        name="broken",
        zero=zero,
        one=one,
        add=add,
        mul=mul,
        sample=lambda rng: rng.randint(-9, 9),
        encode=int,
    )
    report = axiom_suite(broken, 500, seed=1)
    failed = {r.law for r in report.results if not r.passed}
    assert must_fail in failed


def test_report_deterministic_and_serializable():
    r1 = axiom_suite(NAT_MIN_PLUS, 300, seed=7)
    r2 = axiom_suite(NAT_MIN_PLUS, 300, seed=7)
    assert json.dumps(r1.to_json()) == json.dumps(r2.to_json())


# -- scaling automorphism -----------------------------------------------------


def test_tropical_pow_frozen():
    assert tropical_pow(3, 2) == as_scalar(6)
    assert tropical_pow(INF, surd(2)) is INF
    assert tropical_pow(tropical_pow(5, 2), Fraction(1, 2)) == as_scalar(5)


def test_tropical_pow_rejects_nonpositive():
    with pytest.raises(NonPositiveLambda):
        tropical_pow(3, 0)
    with pytest.raises(NonPositiveLambda):
        tropical_pow(3, Fraction(-1, 2))


def test_tropical_pow_is_automorphism():
    rng = random.Random(5)
    for _ in range(300):
        lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        x = Fraction(rng.randint(-20, 20), rng.choice((1, 2, 3)))
        y = Fraction(rng.randint(-20, 20), rng.choice((1, 2, 3)))
        # preserves min (monotone), sends sums to sums, and inverts
        assert tropical_pow(min(x, y), lam) == min(tropical_pow(x, lam), tropical_pow(y, lam))
        assert tropical_pow(x + y, lam) == tropical_pow(x, lam) + tropical_pow(y, lam)
        assert tropical_pow(tropical_pow(x, lam), 1 / lam) == as_scalar(x)
        # composition law
        mu = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        assert tropical_pow(tropical_pow(x, lam), mu) == tropical_pow(x, lam * mu)


# -- subunit predicate --------------------------------------------------------


def test_subunit_frozen():
    assert is_subunit(3)
    assert not is_subunit(-1)
    assert is_subunit(0)
    assert is_subunit(INF)
    assert is_subunit(surd(2) - 1)
    assert not is_subunit(1 - surd(2))


def test_subunit_closed_under_operations():
    rng = random.Random(11)
    members = [Fraction(rng.randint(0, 40), rng.randint(1, 8)) for _ in range(200)]
    members.append(INF)
    for _ in range(500):
        x, y = rng.choice(members), rng.choice(members)
        assert is_subunit(min(x, y))
        assert is_subunit(x + y)
