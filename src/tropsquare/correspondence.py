"""Sloped evaluations of up-sets and the algebra of their images.

For a fixed exact slope lam > 0, an up-set E evaluates to the exponent
``alpha = min(lam*a + b)`` over its generators.  The evaluation is a
semiring homomorphism; its image consists of the exponents ``a*lam + b``
with natural a, b, acted on from the left by lam-multiples and from the
right by integer shifts.  Two images are isomorphic exactly when the
slopes are equal or reciprocal.

Irrational slopes are approximated by continued-fraction convergents,
with an exact a-priori error bound linear in the largest first
coordinate of the generators.

The germ carrier at the end of the module realizes the tangential
thickening of the identity: it is generated by the flat germ (n, 0, 0)
and the sloped germ (n, n, n), and consists of every germ with
0 <= slope_plus <= slope_minus <= base.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import NonPositiveLambda, RationalLambda
from .hereditary import HereditarySet
from .scalars import (
    INF,
    ExactScalar,
    GermExponent,
    ZERO_GERM,
    as_scalar,
    format_scalar_spec,
    germ_add,
    germ_min,
    inf_or,
    rational_from_json,
    rational_to_json,
    scalar_from_json,
    scalar_to_json,
)
from .semiring import Semiring


def check_positive(lam) -> ExactScalar:
    lam = as_scalar(lam)
    if lam.sign() <= 0:
        raise NonPositiveLambda(f"slope must be positive, got {lam}")
    return lam


def lambda_to_json(lam) -> dict:
    """Tagged JSON form of a slope: rational or quadratic."""
    lam = check_positive(lam)
    if lam.is_rational:
        num, den = rational_to_json(lam.a)
        return {"kind": "rational", "num": num, "den": den}
    return {"kind": "quadratic", **scalar_to_json(lam)}


def lambda_from_json(obj) -> ExactScalar:
    if obj["kind"] == "rational":
        return check_positive(rational_from_json([obj["num"], obj["den"]]))
    if obj["kind"] == "quadratic":
        return check_positive(scalar_from_json(obj))
    raise ValueError(f"unknown slope kind {obj.get('kind')!r}")


@dataclass(frozen=True, slots=True, init=False, repr=False, eq=False)
class CorrespondenceElement:
    """A value in the image of a sloped evaluation, with one witness.

    ``alpha`` is the exact exponent (INF for zero); ``witness`` is a pair
    (a, b) with ``alpha == a*lam + b``.  Equality and hashing use the
    value only: for rational slopes distinct witnesses can share a value
    and must be identified.
    """

    alpha: object  # ExactScalar, or INF for zero
    witness: tuple[int, int] | None

    def __init__(self, alpha, witness):
        if alpha is not INF:
            alpha = as_scalar(alpha)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "witness", witness)

    @classmethod
    def _make(cls, alpha: ExactScalar, witness) -> "CorrespondenceElement":
        """Trusted constructor for a finite value that is already a scalar."""
        self = object.__new__(cls)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "witness", witness)
        return self

    @classmethod
    def from_witness(cls, lam, a: int, b: int) -> "CorrespondenceElement":
        lam = check_positive(lam)
        if a < 0 or b < 0:
            raise ValueError("witness coordinates must be natural numbers")
        return cls(a * lam + b, (a, b))

    @classmethod
    def zero(cls) -> "CorrespondenceElement":
        return cls(INF, None)

    @property
    def is_zero(self) -> bool:
        return self.alpha is INF

    def __eq__(self, other):
        if not isinstance(other, CorrespondenceElement):
            return NotImplemented
        return self.alpha == other.alpha

    def __hash__(self):
        return hash(self.alpha)

    def __repr__(self):
        if self.is_zero:
            return "CorrespondenceElement(inf)"
        return f"CorrespondenceElement({self.alpha}, witness={self.witness})"

    def to_json(self) -> dict:
        return {
            "alpha": inf_or(self.alpha, scalar_to_json),
            "witness": list(self.witness) if self.witness else None,
        }


def evaluate(e: HereditarySet, lam) -> CorrespondenceElement:
    """min(lam*a + b) over the generators, with an achieving witness."""
    lam = check_positive(lam)
    alpha, witness = e.weighted_minimizer(lam)
    if witness is None:
        return CorrespondenceElement.zero()
    return CorrespondenceElement(alpha, witness)


def left_action(lam, n: int, x: CorrespondenceElement) -> CorrespondenceElement:
    """Multiply by the image of the left generator power n: alpha + n*lam."""
    lam = check_positive(lam)
    if x.is_zero:
        return x
    a, b = x.witness
    return CorrespondenceElement(x.alpha + n * lam, (a + n, b))


def right_action(lam, n: int, x: CorrespondenceElement) -> CorrespondenceElement:
    """Multiply by the image of the right generator power n: alpha + n."""
    check_positive(lam)
    if x.is_zero:
        return x
    a, b = x.witness
    return CorrespondenceElement(x.alpha + n, (a, b + n))


# -- isomorphism classification ------------------------------------------


def iso_invariant(lam) -> ExactScalar:
    """min(lam, 1/lam): a complete invariant of the image semiring."""
    lam = check_positive(lam)
    return min(lam, lam.inverse())


def iso_equivalent(lam1, lam2) -> bool:
    """True iff the slopes are equal or reciprocal (exact test)."""
    lam1, lam2 = check_positive(lam1), check_positive(lam2)
    return lam2 == lam1 or lam2 == lam1.inverse()


# -- diophantine approximation ---------------------------------------------


def convergents(x, depth: int) -> list[Fraction]:
    """First ``depth`` continued-fraction convergents of a positive scalar.

    Terminates early when the expansion is finite (rational input).
    """
    x = check_positive(x)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    p2, p1 = 0, 1
    q2, q1 = 1, 0
    out: list[Fraction] = []
    for _ in range(depth):
        a = x.floor()
        p2, p1 = p1, a * p1 + p2
        q2, q1 = q1, a * q1 + q2
        out.append(Fraction(p1, q1))
        frac = x - a
        if frac.sign() == 0:
            break
        x = frac.inverse()
    return out


@dataclass(frozen=True)
class ApproxStep:
    convergent: Fraction
    alpha: object  # Fraction, or INF for the empty set
    bound: ExactScalar  # |convergent - lam| * max first coordinate

    def to_json(self) -> dict:
        return {
            "convergent": rational_to_json(self.convergent),
            "alpha": inf_or(self.alpha, rational_to_json),
            "bound": scalar_to_json(self.bound),
        }


def approximate(lam, e: HereditarySet, depth: int) -> list[ApproxStep]:
    """Rational stand-ins for an irrational slope, with exact error bounds.

    Each step evaluates E at a convergent; the true evaluation differs by
    at most |convergent - lam| times the largest generator first
    coordinate, and the bounds decrease monotonically with depth.
    """
    lam = check_positive(lam)
    if lam.is_rational:
        raise RationalLambda(f"{lam} is rational; evaluate it directly")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    max_a = max((a for a, _ in e.generators), default=0)
    steps = []
    for frac in convergents(lam, depth):
        alpha = e.weighted_degree(frac)
        bound = abs(as_scalar(frac) - lam) * max_a
        steps.append(ApproxStep(frac, alpha, as_scalar(bound)))
    return steps


# -- image semiring (for the axiom harness) --------------------------------


def value_semiring(lam, max_coord: int = 8) -> Semiring:
    lam = check_positive(lam)

    def _add(x, y):
        return x if x.alpha <= y.alpha else y

    def _mul(x, y):
        if x.is_zero or y.is_zero:
            return CorrespondenceElement.zero()
        return CorrespondenceElement._make(
            x.alpha + y.alpha,
            (x.witness[0] + y.witness[0], x.witness[1] + y.witness[1]),
        )

    def _sample(rng: random.Random):
        if rng.random() < 0.1:
            return CorrespondenceElement.zero()
        return CorrespondenceElement.from_witness(
            lam, rng.randint(0, max_coord), rng.randint(0, max_coord)
        )

    return Semiring(
        name=f"correspondence[{format_scalar_spec(lam)}]",
        zero=CorrespondenceElement.zero(),
        one=CorrespondenceElement.from_witness(lam, 0, 0),
        add=_add,
        mul=_mul,
        sample=_sample,
        encode=CorrespondenceElement.to_json,
    )


# -- germ carrier ------------------------------------------------------------


def deformation_left(n: int) -> GermExponent:
    """Left generator of the thickened identity: exponent n*(1 + eps)."""
    if n < 0:
        raise ValueError("generator power must be natural")
    return GermExponent(n, n, n)


def deformation_right(n: int) -> GermExponent:
    """Right generator of the thickened identity: plain exponent n."""
    if n < 0:
        raise ValueError("generator power must be natural")
    return GermExponent(n, 0, 0)


def is_germ_element(g: GermExponent) -> bool:
    """Membership in the carrier generated by the flat and sloped germs:
    natural entries with 0 <= slope_plus <= slope_minus <= base."""
    if g.is_zero:
        return True

    def _nat(x) -> bool:
        return x.is_rational and x.as_fraction().denominator == 1 and x.as_fraction() >= 0

    return (
        _nat(g.base)
        and _nat(g.slope_plus)
        and _nat(g.slope_minus)
        and g.slope_plus <= g.slope_minus <= g.base
    )


def random_germ(rng: random.Random, max_base: int = 12) -> GermExponent:
    if rng.random() < 0.1:
        return ZERO_GERM
    base = rng.randint(0, max_base)
    sm = rng.randint(0, base)
    sp = rng.randint(0, sm)
    return GermExponent(base, sp, sm)


def germ_semiring(max_base: int = 12) -> Semiring:
    return Semiring(
        name="identity-germs",
        zero=ZERO_GERM,
        one=GermExponent(0, 0, 0),
        add=germ_min,
        mul=germ_add,
        sample=lambda rng: random_germ(rng, max_base),
        encode=GermExponent.to_json,
    )
