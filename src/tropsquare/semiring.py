"""Semiring contract, randomized axiom harness, and the scalar instances.

Every carrier in this library is a commutative semiring of characteristic
one: addition is idempotent.  The harness checks the full law set on
random tuples drawn from a seeded generator, reporting a counterexample
per violated law instead of raising.

Tropical carriers are kept at exponent level throughout: an element is
its exponent, addition is ``min``, multiplication is ``+``, zero is
``INF`` and one is ``0``.  Nothing ever mentions the base of the formal
power, so the constructions are independent of it by construction.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from .errors import NonPositiveLambda
from .scalars import INF, as_scalar, inf_or, rational_to_json, sign_of


@dataclass(frozen=True)
class Semiring:
    """Operation table for one concrete semiring instance."""

    name: str
    zero: Any
    one: Any
    add: Callable[[Any, Any], Any]
    mul: Callable[[Any, Any], Any]
    sample: Callable[[random.Random], Any]
    encode: Callable[[Any], Any]
    eq: Callable[[Any, Any], bool] = operator.eq


@dataclass(frozen=True)
class LawResult:
    law: str
    passed: bool
    counterexample: Any = None

    def to_json(self) -> dict:
        out = {"law": self.law, "passed": self.passed}
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


@dataclass(frozen=True)
class SuiteReport:
    instance: str
    iterations: int
    seed: int
    results: tuple[LawResult, ...] = ()

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json(self) -> dict:
        return {
            "instance": self.instance,
            "iterations": self.iterations,
            "seed": self.seed,
            "passed": self.passed,
            "laws": [r.to_json() for r in self.results],
        }


def _laws(sr: Semiring):
    add, mul, eq = sr.add, sr.mul, sr.eq
    return (
        ("add_commutative", lambda x, y, z: eq(add(x, y), add(y, x))),
        ("add_associative", lambda x, y, z: eq(add(add(x, y), z), add(x, add(y, z)))),
        ("add_idempotent", lambda x, y, z: eq(add(x, x), x)),
        ("add_zero_identity", lambda x, y, z: eq(add(x, sr.zero), x)),
        ("mul_commutative", lambda x, y, z: eq(mul(x, y), mul(y, x))),
        ("mul_associative", lambda x, y, z: eq(mul(mul(x, y), z), mul(x, mul(y, z)))),
        ("mul_one_identity", lambda x, y, z: eq(mul(x, sr.one), x)),
        ("zero_absorbs", lambda x, y, z: eq(mul(x, sr.zero), sr.zero)),
        (
            "mul_distributes_left",
            lambda x, y, z: eq(mul(x, add(y, z)), add(mul(x, y), mul(x, z))),
        ),
        (
            "mul_distributes_right",
            lambda x, y, z: eq(mul(add(y, z), x), add(mul(y, x), mul(z, x))),
        ),
    )


def axiom_suite(sr: Semiring, iterations: int = 1000, seed: int = 0) -> SuiteReport:
    """Run every semiring law on ``iterations`` random triples.

    Failures are recorded (first counterexample per law) rather than
    raised, so a broken instance produces a readable report.
    """
    rng = random.Random(seed)
    laws = _laws(sr)
    failures: dict[str, Any] = {}
    for _ in range(iterations):
        x, y, z = sr.sample(rng), sr.sample(rng), sr.sample(rng)
        for name, check in laws:
            if name in failures:
                continue
            if not check(x, y, z):
                failures[name] = {
                    "x": sr.encode(x),
                    "y": sr.encode(y),
                    "z": sr.encode(z),
                }
    results = tuple(
        LawResult(name, name not in failures, failures.get(name)) for name, _ in laws
    )
    return SuiteReport(sr.name, iterations, seed, results)


# -- scalar instances ------------------------------------------------------


def _sample_bool(rng: random.Random) -> int:
    return rng.randint(0, 1)


BOOLEAN = Semiring(
    name="boolean",
    zero=0,
    one=1,
    add=max,
    mul=operator.mul,
    sample=_sample_bool,
    encode=int,
)


def _sample_nat(rng: random.Random):
    if rng.random() < 0.12:
        return INF
    return rng.randrange(0, 20)


NAT_MIN_PLUS = Semiring(
    name="nat-min-plus",
    zero=INF,
    one=0,
    add=min,
    mul=operator.add,
    sample=_sample_nat,
    encode=lambda x: inf_or(x, int),
)


def _sample_int(rng: random.Random):
    if rng.random() < 0.12:
        return INF
    return rng.randrange(-12, 13)


INT_MIN_PLUS = Semiring(
    name="int-min-plus",
    zero=INF,
    one=0,
    add=min,
    mul=operator.add,
    sample=_sample_int,
    encode=lambda x: inf_or(x, int),
)


def _sample_rational(rng: random.Random):
    if rng.random() < 0.12:
        return INF
    return Fraction(rng.randrange(-24, 25), rng.choice((1, 2, 3, 4, 6)))


RATIONAL_MIN_PLUS = Semiring(
    name="rational-min-plus",
    zero=INF,
    one=0,
    add=min,
    mul=operator.add,
    sample=_sample_rational,
    encode=lambda x: inf_or(x, rational_to_json),
)


# -- exponent-level helpers -------------------------------------------------


def tropical_pow(exponent, lam):
    """Raise a tropical value to the power ``lam``: multiply its exponent.

    This is the scaling automorphism of the exponent line; it is additive
    (min-preserving, since lam > 0) and multiplicative.
    """
    lam = as_scalar(lam)
    if lam.sign() <= 0:
        raise NonPositiveLambda(f"power must be positive, got {lam}")
    if exponent is INF:
        return INF
    return lam * as_scalar(exponent)


def is_subunit(exponent) -> bool:
    """True when the value is at most one, i.e. ``x + 1 == 1``.

    At exponent level that is exactly ``exponent >= 0``; the accepted set
    is closed under both operations.
    """
    if exponent is INF:
        return True
    return sign_of(exponent) >= 0
