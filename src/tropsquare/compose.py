"""Composition of two sloped correspondences through their tensor product.

A simple tensor pairs an element of the slope-lam image with an element
of the slope-lam' image.  The middle factor acts on the left leg by
integer shifts and on the right leg by lam'-multiples, giving the
crossing relation

    (x + k) (x) y   ~   x (x) (y + k*lam'),   k a natural number.

The cancellative quotient of the tensor product is handled exactly:
``normal_form`` gives a canonical representative, ``germ_evaluate`` maps
the generated part into germs (the left leg picks up the tangential
deformation), and ``rewrite_equiv`` and ``reduced_equiv`` decide
equality by comparing canonical class keys of the witness coordinates,
so every verdict is definite.

The composition law itself is arithmetic on the slopes: the composite
slope is the product, and a tangential identity deformation appears
exactly when two irrational slopes have a rational product (the germ
slopes then separate value collisions that no rewrite chain can merge).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .correspondence import CorrespondenceElement, check_positive
from .errors import NotGenerated
from .scalars import ExactScalar, GermExponent, ZERO_GERM, format_scalar_spec


@dataclass(frozen=True)
class SimpleTensor:
    """left leg in the slope-lam image, right leg in the slope-lam' image."""

    left: CorrespondenceElement
    right: CorrespondenceElement

    @classmethod
    def from_witnesses(cls, lam, lamp, left_w, right_w) -> "SimpleTensor":
        return cls(
            CorrespondenceElement.from_witness(lam, *left_w),
            CorrespondenceElement.from_witness(lamp, *right_w),
        )

    @property
    def is_zero(self) -> bool:
        return self.left.is_zero or self.right.is_zero

    def to_json(self) -> dict:
        return {"left": self.left.to_json(), "right": self.right.to_json()}


def normal_form(t: SimpleTensor, lam, lamp) -> SimpleTensor:
    """Push the integer part of the left witness across the middle.

    Witnesses (a, b) (x) (c, d) normalize to (a, 0) (x) (b + c, d); each
    unit step is one crossing, so the class is unchanged.  Idempotent.
    """
    lam, lamp = check_positive(lam), check_positive(lamp)
    if t.is_zero:
        return t
    a, b = t.left.witness
    c, d = t.right.witness
    return SimpleTensor.from_witnesses(lam, lamp, (a, 0), (b + c, d))


def germ_evaluate(t: SimpleTensor, lam, lamp) -> GermExponent:
    """Evaluate a generated-part tensor into a germ.

    In normal form the witnesses must be (a, 0) (x) (0, d); the value is
    a*lam*lamp + d and the left leg contributes slope a*lam*lamp on both
    sides (the slope records how the value moves when the left slope is
    thickened to lam*(1 + eps)).
    """
    lam, lamp = check_positive(lam), check_positive(lamp)
    if t.is_zero:
        return ZERO_GERM
    nf = normal_form(t, lam, lamp)
    a, _ = nf.left.witness
    mid, d = nf.right.witness
    if mid:
        raise NotGenerated(
            f"normal form carries a middle multiple {mid}; not in the generated part"
        )
    s = a * (lam * lamp)
    return GermExponent(s + d, s, s)


@dataclass(frozen=True)
class RewriteVerdict:
    equivalent: bool
    inconclusive: bool  # always False: the decision is exact

    def to_json(self) -> dict:
        return {"equivalent": self.equivalent, "inconclusive": self.inconclusive}


def _rational_parts(lam: ExactScalar):
    if lam.is_rational:
        f = lam.as_fraction()
        return f.numerator, f.denominator
    return None


def _class_key(state, lr, pr) -> tuple[int, int, int]:
    """Canonical representative of the move class of witnesses (a, b, c, d).

    Moves on (a, b) (x) (c, d) in N^4: the crossing (b, c) -> (b + 1, c - 1)
    and, for rational slopes n1/m1 (``lr``) and n2/m2 (``pr``) in lowest
    terms, re-witnessing (a, b) -> (a + m1, b - n1) and
    (c, d) -> (c + m2, d - n2); each in both directions.  The key is the
    Hermite-normal-form reduction of this move lattice (H. Cohen, A Course
    in Computational Algebraic Number Theory, 2.4): divide a by m1 and
    carry the quotient into b, cross b into c, divide c by m2 and carry
    the quotient into d.  No move changes the key, and every state reaches
    the state (a, 0, c, d) of its key by moves inside N^4 (the divisions
    lower a or c while raising b or d; the crossings empty b into c).  So
    the move classes in the orthant are exactly the fibres of the key.
    """
    a, b, c, d = state
    if lr:
        q, a = divmod(a, lr[1])
        b += q * lr[0]
    c += b
    if pr:
        q, c = divmod(c, pr[1])
        d += q * pr[0]
    return a, c, d


def _power_key(t: SimpleTensor, k: int, lr, pr):
    """Class key of the k-th power of t (witnesses scaled by k); None for zero."""
    if t.is_zero:
        return None
    return _class_key([k * x for x in (*t.left.witness, *t.right.witness)], lr, pr)


def rewrite_equiv(
    t1: SimpleTensor, t2: SimpleTensor, lam, lamp, bound: int = 64
) -> RewriteVerdict:
    """Decide whether a chain of relation moves joins t1 and t2.

    The move classes are the fibres of ``_class_key``, so the verdict is
    exact and never inconclusive; a zero tensor matches only a zero
    tensor.  ``bound`` limits nothing; it stays for callers that pass it,
    and a value below 1 raises ``ValueError``.
    """
    lam, lamp = check_positive(lam), check_positive(lamp)
    if bound < 1:
        raise ValueError("bound must be >= 1")
    lr, pr = _rational_parts(lam), _rational_parts(lamp)
    return RewriteVerdict(_power_key(t1, 1, lr, pr) == _power_key(t2, 1, lr, pr), False)


def tensor_power(t: SimpleTensor, k: int, lam, lamp) -> SimpleTensor:
    """k-th multiplicative power of a simple tensor (witnesses scale)."""
    if k < 1:
        raise ValueError("power must be >= 1")
    if t.is_zero:
        return t
    a, b = t.left.witness
    c, d = t.right.witness
    return SimpleTensor.from_witnesses(lam, lamp, (k * a, k * b), (k * c, k * d))


@dataclass(frozen=True)
class ReducedVerdict:
    equivalent: bool
    inconclusive: bool  # always False: the decision is exact
    power: int | None = None  # certifying power when equivalent

    def to_json(self) -> dict:
        return {
            "equivalent": self.equivalent,
            "inconclusive": self.inconclusive,
            "power": self.power,
        }


def reduced_equiv(
    t1: SimpleTensor, t2: SimpleTensor, lam, lamp, bound: int = 64, max_power: int | None = None
) -> ReducedVerdict:
    """Equality of simple tensors after cancellative reduction.

    A chain between the k-th powers certifies reduced equality: if
    t1^k = t2^k then multiplying both tensors by (t1 + t2)^(k-1) gives
    the same element, so the reduction map identifies t1 and t2.  The
    verdict names the least k <= ``max_power`` whose powers have equal
    class keys (``_class_key`` of the witnesses scaled by k).

    The default cap is sufficient.  Let V = (a*lam + b + c)*lam' + d be
    the composite value of witnesses (a, b) (x) (c, d): every move keeps
    V, the k-th power has value k*V, and V is a function of the key.
    - Two rational slopes n1/m1, n2/m2: the key of the (m1*m2)-th power
      is (0, 0, m1*m2*V), so reduced equality holds iff V1 == V2, and the
      default cap m1*m2 reaches that power.
    - One rational, one irrational slope: the key at power 1 is already a
      function of V (the irrational factor pins the coefficient it
      multiplies, the rational one a remainder and its quotient), so
      powers add nothing and the cap is 1.
    - Two irrational slopes: key(k*t) = k*key(t), so no power merges
      tensors with distinct keys, in particular not the deformed witness
      pair of ``compose``; the cap is 1.

    ``bound`` limits nothing; it stays for callers that pass it, and a
    value below 1 raises ``ValueError``.
    """
    lam, lamp = check_positive(lam), check_positive(lamp)
    if bound < 1:
        raise ValueError("bound must be >= 1")
    lr, pr = _rational_parts(lam), _rational_parts(lamp)
    if max_power is None:
        max_power = lr[1] * pr[1] if lr and pr else 1
    for k in range(1, max_power + 1):
        if _power_key(t1, k, lr, pr) == _power_key(t2, k, lr, pr):
            return ReducedVerdict(True, False, k)
    return ReducedVerdict(False, False, None)


CASE_RATIONAL = "rational-rational"
CASE_IRRATIONAL_PRODUCT = "product-irrational"
CASE_DEFORMED = "irrational-pair-rational-product"


@dataclass(frozen=True)
class ComposedResult:
    rho: ExactScalar  # composite slope lam * lamp
    deformed: bool  # tangential identity factor present
    case: str
    witnesses: tuple  # generated-part points (a, d) exhibiting the case

    def to_json(self) -> dict:
        return {
            "rho": format_scalar_spec(self.rho),
            "deformed": self.deformed,
            "case": self.case,
            "witnesses": [list(w) for w in self.witnesses],
        }


def compose(lam, lamp) -> ComposedResult:
    """Slope-product composition with deformation detection.

    Three cases: both slopes rational, or an irrational product, compose
    to the plain product slope; two irrationals with rational product
    pick up the tangential identity deformation, witnessed by a pair of
    generated points with equal value but different germ slopes.
    """
    lam, lamp = check_positive(lam), check_positive(lamp)
    rho = lam * lamp  # may raise IncompatibleRadicals
    if lam.is_rational and lamp.is_rational:
        case, deformed = CASE_RATIONAL, False
    elif not rho.is_rational:
        case, deformed = CASE_IRRATIONAL_PRODUCT, False
    else:
        # a rational product of a rational and an irrational is impossible
        assert not lam.is_rational and not lamp.is_rational
        case, deformed = CASE_DEFORMED, True
    if rho.is_rational:
        f: Fraction = rho.as_fraction()
        witnesses = ((f.denominator, 0), (0, f.numerator))
    else:
        witnesses = ()
    return ComposedResult(rho, deformed, case, witnesses)


def witness_tensor(lam, lamp, point) -> SimpleTensor:
    """Generated-part tensor for a point (a, d): (a, 0) (x) (0, d)."""
    a, d = point
    return SimpleTensor.from_witnesses(lam, lamp, (a, 0), (0, d))


def verify_composition(
    result: ComposedResult, lam, lamp, bound: int = 64, probe: int = 20
) -> dict:
    """Structural cross-check of a composition result.

    Rational-product cases must either identify the witness collision
    after reduction (undeformed) or separate it definitively at every
    power with distinct germ slopes (deformed).  Irrational products
    must evaluate injectively on the probe grid.  Any disagreement turns
    ``ok`` off; callers treat that as a hard failure.  ``bound`` is passed
    on to ``reduced_equiv``, where it limits nothing.
    """
    lam, lamp = check_positive(lam), check_positive(lamp)
    checks: dict = {"case": result.case}
    ok = True
    if result.witnesses:
        w1, w2 = result.witnesses
        t1, t2 = witness_tensor(lam, lamp, w1), witness_tensor(lam, lamp, w2)
        g1, g2 = germ_evaluate(t1, lam, lamp), germ_evaluate(t2, lam, lamp)
        verdict = reduced_equiv(t1, t2, lam, lamp, bound)
        checks["witness_bases_equal"] = g1.base == g2.base
        checks["witness_slopes"] = [
            format_scalar_spec(g1.slope_plus),
            format_scalar_spec(g2.slope_plus),
        ]
        checks["rewrite"] = verdict.to_json()
        ok &= g1.base == g2.base
        if result.deformed:
            ok &= not verdict.equivalent
            ok &= g1.slope_plus != g2.slope_plus
        else:
            ok &= verdict.equivalent
    else:
        values = {
            (a * result.rho + d) for a in range(probe + 1) for d in range(probe + 1)
        }
        injective = len(values) == (probe + 1) ** 2
        checks["base_injective"] = injective
        ok &= injective
    checks["ok"] = bool(ok)
    return checks
