"""Exact scalar tower used for all exponent arithmetic.

Three layers, all exact:

* ``INF`` — the absorbing top element of the natural numbers with infinity
  (neutral for ``min``, absorbing for ``+``).
* ``ExactScalar`` — numbers of the form ``a + b*sqrt(d)`` with rational
  ``a, b`` and squarefree ``d``; comparison is decided by sign rules and
  squaring, never by floating point.  A rational part is an ``int`` when
  it is integral and a ``Fraction`` otherwise, so whole-number exponents
  never pay for ``Fraction`` arithmetic.
* ``GermExponent`` — the germ at 0 of a piecewise-linear function
  ``eps -> base + slope*eps`` with one slope per side of 0.

Scalars over different radicands cannot be ordered exactly; those
comparisons raise :class:`~tropsquare.errors.IncompatibleRadicals`.
Equality, by contrast, is always decidable because the canonical form
``(a, b, d)`` is unique.  Only the public constructors check and
canonicalize; arithmetic results that are canonical by construction go
through the trusted ``_make`` constructors instead.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import IncompatibleRadicals


class Infinity:
    """Singleton top element: larger than every scalar, absorbing under +."""

    _instance = None
    __slots__ = ()

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"

    def __reduce__(self):
        # pickled by reference, so every protocol restores the singleton
        return "INF"

    def __eq__(self, other):
        return other is self

    def __ne__(self, other):
        return other is not self

    def __hash__(self):
        return hash(math.inf)

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __mul__(self, other):
        # Only reached with positive factors; callers validate positivity.
        return self

    __rmul__ = __mul__


INF = Infinity()


def _squarefree(n: int) -> tuple[int, int]:
    """Split n = s*s*f with f squarefree; returns (s, f)."""
    s, f = 1, 1
    k = 2
    while k * k <= n:
        e = 0
        while n % k == 0:
            n //= k
            e += 1
        s *= k ** (e // 2)
        if e % 2:
            f *= k
        k += 1 if k == 2 else 2  # past 2, only odd divisors
    return s, f * n


def _sign(q) -> int:
    return (q > 0) - (q < 0)


_ZERO = 0


def _part(q):
    """Canonical rational part: the ``int`` when ``q`` is integral, else
    ``q`` itself, a ``Fraction`` with denominator > 1."""
    return q if type(q) is int or q.denominator != 1 else q.numerator


def _surd_sign(a: int, b: int, d: int) -> int:
    """Sign of ``a + b*sqrt(d)`` for integers a, b and squarefree d >= 2
    (any d when b == 0)."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0 or (a > 0) == (b > 0):
        return 1 if b > 0 else -1
    lhs, rhs = a * a, b * b * d
    assert lhs != rhs  # would make sqrt(d) rational
    return 1 if (lhs > rhs) == (a > 0) else -1


@dataclass(frozen=True, slots=True, init=False, repr=False, eq=False)
class ExactScalar:
    """Canonical quadratic surd ``a + b*sqrt(d)``.

    Canonical form: ``b == 0`` forces ``d == 0``; otherwise ``d`` is
    squarefree and at least 2.  Each of ``a`` and ``b`` is an ``int`` when
    it is integral and otherwise a ``Fraction`` in lowest terms with
    denominator > 1; ``d`` is an ``int``.  Equality and hashing are
    structural, which matches value equality because the canonical form is
    unique (and ``2 == Fraction(2)`` with equal hashes).
    """

    a: int | Fraction
    b: int | Fraction
    d: int

    def __init__(self, a=0, b=0, d=0):
        if isinstance(a, float) or isinstance(b, float):
            raise TypeError("exact scalars take int or Fraction parts, not float")
        if type(a) is not int and type(a) is not Fraction:
            a = Fraction(a)
        if type(b) is not int and type(b) is not Fraction:
            b = Fraction(b)
        d = int(d)
        if d < 0:
            raise ValueError("radicand must be non-negative")
        if b == 0 or d == 0:
            # b*sqrt(0) contributes nothing
            b, d = _ZERO, 0
        else:
            s, f = _squarefree(d)
            b *= s
            d = f
            if d == 1:
                a += b
                b = _ZERO
                d = 0
        object.__setattr__(self, "a", _part(a))
        object.__setattr__(self, "b", _part(b))
        object.__setattr__(self, "d", d)

    @classmethod
    def _make(cls, a, b, d: int) -> "ExactScalar":
        """Trusted constructor for results that are canonical by construction.

        ``a`` and ``b`` must be ints or Fractions and ``d`` squarefree and
        at least 2, or 0; only integral parts (to ``int``) and ``b == 0``
        (to ``d == 0``) are normalized.  Nothing is checked or factored:
        outside input goes through ``ExactScalar(...)``.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "a", _part(a))
        if b:
            object.__setattr__(self, "b", _part(b))
            object.__setattr__(self, "d", d)
        else:
            object.__setattr__(self, "b", _ZERO)
            object.__setattr__(self, "d", 0)
        return self

    # -- predicates ------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self!r} is irrational")
        return Fraction(self.a)

    def sign(self) -> int:
        a, b = self.a, self.b
        # scaled by the positive a.denominator * b.denominator
        return _surd_sign(a.numerator * b.denominator, b.numerator * a.denominator, self.d)

    # -- arithmetic ------------------------------------------------------

    @staticmethod
    def _coerce(other):
        t = type(other)
        if t is ExactScalar:
            return other
        if t is int:
            return ExactScalar._make(other, _ZERO, 0)
        if t is Fraction:
            return ExactScalar._make(other, _ZERO, 0)
        if isinstance(other, (int, Fraction)):  # bool and other subclasses
            return ExactScalar(other)
        return None

    def _common_radicand(self, o, op: str = "add") -> int:
        """The radicand of a sum, difference or comparison (``op``) with ``o``."""
        if self.d == o.d or not o.d:
            return self.d
        if not self.d:
            return o.d
        raise IncompatibleRadicals(f"cannot {op} sqrt({self.d}) and sqrt({o.d}) terms")

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.b:
            return ExactScalar._make(self.a + o.a, self.b, self.d)
        if not self.b:
            return ExactScalar._make(self.a + o.a, o.b, o.d)
        return ExactScalar._make(self.a + o.a, self.b + o.b, self._common_radicand(o))

    __radd__ = __add__

    def __neg__(self):
        return ExactScalar._make(-self.a, -self.b, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.b:
            return ExactScalar._make(self.a - o.a, self.b, self.d)
        if not self.b:
            return ExactScalar._make(self.a - o.a, -o.b, o.d)
        return ExactScalar._make(self.a - o.a, self.b - o.b, self._common_radicand(o))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_rational:
            return ExactScalar._make(self.a * o.a, self.a * o.b, o.d)
        if o.is_rational:
            return ExactScalar._make(self.a * o.a, self.b * o.a, self.d)
        if self.d == o.d:
            return ExactScalar._make(
                self.a * o.a + self.b * o.b * self.d,
                self.a * o.b + self.b * o.a,
                self.d,
            )
        if self.a == 0 and o.a == 0:
            # g = gcd(d, d'): sqrt(d)*sqrt(d') = g*sqrt((d/g)*(d'/g)), and the
            # cofactors of squarefree d, d' are coprime and squarefree
            g = math.gcd(self.d, o.d)
            return ExactScalar._make(0, self.b * o.b * g, (self.d // g) * (o.d // g))
        raise IncompatibleRadicals(
            f"product of sqrt({self.d}) and sqrt({o.d}) expressions is not quadratic"
        )

    __rmul__ = __mul__

    def inverse(self) -> "ExactScalar":
        if self.sign() == 0:
            raise ZeroDivisionError("zero scalar has no inverse")
        # parts may be ints, so every quotient is built as a Fraction
        if self.is_rational:
            return ExactScalar._make(Fraction(1, self.a), _ZERO, 0)
        denom = self.a * self.a - self.b * self.b * self.d
        # denom == 0 would force sqrt(d) rational
        return ExactScalar._make(Fraction(self.a, denom), Fraction(-self.b, denom), self.d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- comparison ------------------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self.a, self.b, self.d) == (o.a, o.b, o.d)

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def _diff_sign(self, o) -> int:
        """Sign of ``self - o`` from integer cross-products, building no scalar."""
        d = self._common_radicand(o, "compare")
        a, oa = self.a, o.a
        na = a.numerator * oa.denominator - oa.numerator * a.denominator
        if not d:
            return (na > 0) - (na < 0)
        b, ob = self.b, o.b
        nb = b.numerator * ob.denominator - ob.numerator * b.denominator
        # (na/qa) + (nb/qb)*sqrt(d), scaled by the positive qa*qb
        return _surd_sign(na * b.denominator * ob.denominator, nb * a.denominator * oa.denominator, d)

    def __lt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._diff_sign(o) < 0

    def __le__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._diff_sign(o) <= 0

    def __gt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._diff_sign(o) > 0

    def __ge__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._diff_sign(o) >= 0

    # -- conversions -----------------------------------------------------

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    def floor(self) -> int:
        """Exact floor by integer square roots; no float is involved.

        Write ``self = (A + B*sqrt(d)) / Q`` with integers and ``Q > 0``,
        and let ``r = isqrt(B*B*d)``.  ``B*B*d`` is not a square, so
        ``r < |B|*sqrt(d) < r + 1`` and ``Q*self`` lies strictly between
        the consecutive integers ``A + r`` and ``A + r + 1`` (for B > 0)
        or ``A - r - 1`` and ``A - r`` (for B < 0).  The lower one is
        ``floor(Q*self)``, and ``floor(y / Q) == floor(y) // Q``.
        """
        a, b = self.a, self.b
        if not b:
            return a.numerator // a.denominator
        q = a.denominator * b.denominator
        big_a = a.numerator * b.denominator
        big_b = b.numerator * a.denominator
        r = math.isqrt(big_b * big_b * self.d)
        lower = big_a + r if big_b > 0 else big_a - r - 1
        return lower // q

    def __repr__(self):
        if self.is_rational:
            return f"ExactScalar({self.a})"
        return f"ExactScalar({self.a} + {self.b}*sqrt({self.d}))"

    def __str__(self):
        return format_scalar_spec(self)


def as_scalar(x) -> ExactScalar:
    """Coerce an int, Fraction or ExactScalar to ExactScalar."""
    if isinstance(x, ExactScalar):
        return x
    return ExactScalar(x)


def surd(d: int, coeff=1) -> ExactScalar:
    """The scalar ``coeff * sqrt(d)``."""
    return ExactScalar(0, coeff, d)


def sign_of(x) -> int:
    if isinstance(x, ExactScalar):
        return x.sign()
    return _sign(x)


# -- compact text form (used by the CLI and result serialization) --------

_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")
_SURD_RE = re.compile(
    r"^(?:(?P<a>-?\d+(?:/\d+)?)\+)?(?:(?P<b>-?\d+(?:/\d+)?)\*)?sqrt:(?P<d>\d+)$"
)


def parse_scalar_spec(text: str) -> ExactScalar:
    """Parse ``p/q``, ``sqrt:d`` or ``a+b*sqrt:d`` into an ExactScalar."""
    text = text.strip()
    m = _RATIONAL_RE.match(text)
    if m:
        num, den = int(m.group(1)), int(m.group(2) or 1)
        return ExactScalar(Fraction(num, den))
    m = _SURD_RE.match(text)
    if m:
        a = Fraction(m.group("a") or 0)
        b = Fraction(m.group("b") or 1)
        return ExactScalar(a, b, int(m.group("d")))
    raise ValueError(f"cannot parse scalar spec {text!r}")


def format_scalar_spec(x) -> str:
    x = as_scalar(x)
    # canonical parts are ints or Fractions with denominator > 1, whose
    # str is already the spec text
    if x.is_rational:
        return str(x.a)
    if x.a == 0 and x.b == 1:
        return f"sqrt:{x.d}"
    return f"{x.a}+{x.b}*sqrt:{x.d}"


# -- JSON forms ----------------------------------------------------------
#
# The one place that decides how scalar-tower values are written to JSON
# and read back; every rational pair, scalar object and "inf" is built here.


def inf_or(x, encode):
    """``"inf"`` for ``INF``, else ``encode(x)``: the JSON form of a value
    that may be the tropical zero."""
    return "inf" if x is INF else encode(x)


def rational_to_json(q) -> list:
    """``[numerator, denominator]`` of an int or Fraction, in lowest terms."""
    return [q.numerator, q.denominator]


def rational_from_json(pair) -> Fraction:
    """Inverse of :func:`rational_to_json`; only a pair of exact ints with a
    nonzero denominator is accepted, so a float or a boolean is rejected
    rather than coerced."""
    if len(pair) != 2 or any(type(p) is not int for p in pair) or not pair[1]:
        raise ValueError(f"rational must be a pair of integers p, q != 0, got {pair!r}")
    return Fraction(pair[0], pair[1])


def scalar_to_json(x) -> dict:
    x = as_scalar(x)
    return {"a": rational_to_json(x.a), "b": rational_to_json(x.b), "d": x.d}


def scalar_from_json(obj) -> ExactScalar:
    if type(obj["d"]) is not int:
        raise ValueError(f"radicand must be an integer, got {obj['d']!r}")
    return ExactScalar(rational_from_json(obj["a"]), rational_from_json(obj["b"]), obj["d"])


# -- germs ---------------------------------------------------------------


@dataclass(frozen=True, slots=True, init=False, repr=False)
class GermExponent:
    """Germ at 0 of ``eps -> base + slope_plus*eps`` (eps > 0) and
    ``base + slope_minus*eps`` (eps < 0).

    Minima of linear germs are concave at 0, so ``slope_plus <=
    slope_minus`` is an invariant.  The zero germ has base ``INF``;
    its slopes are canonicalized to 0.
    """

    base: ExactScalar | Infinity
    slope_plus: ExactScalar
    slope_minus: ExactScalar

    def __init__(self, base, slope_plus=0, slope_minus=None):
        if slope_minus is None:
            slope_minus = slope_plus
        if base is INF:
            base, slope_plus, slope_minus = INF, as_scalar(0), as_scalar(0)
        else:
            base = as_scalar(base)
            slope_plus = as_scalar(slope_plus)
            slope_minus = as_scalar(slope_minus)
            if slope_plus > slope_minus:
                raise ValueError("germ slopes must satisfy slope_plus <= slope_minus")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "slope_plus", slope_plus)
        object.__setattr__(self, "slope_minus", slope_minus)

    @classmethod
    def _make(cls, base: ExactScalar, slope_plus: ExactScalar, slope_minus: ExactScalar) -> "GermExponent":
        """Trusted constructor for a finite germ built from valid germs,
        whose slopes are scalars with ``slope_plus <= slope_minus``."""
        self = object.__new__(cls)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "slope_plus", slope_plus)
        object.__setattr__(self, "slope_minus", slope_minus)
        return self

    @property
    def is_zero(self) -> bool:
        return self.base is INF

    def __repr__(self):
        if self.is_zero:
            return "GermExponent(inf)"
        return f"GermExponent({self.base}, {self.slope_plus}, {self.slope_minus})"

    def to_json(self) -> dict:
        return {
            "base": inf_or(self.base, scalar_to_json),
            "slope_plus": scalar_to_json(self.slope_plus),
            "slope_minus": scalar_to_json(self.slope_minus),
        }


ZERO_GERM = GermExponent(INF)
UNIT_GERM = GermExponent(0, 0, 0)


def germ_min(g: GermExponent, h: GermExponent, one_sided: bool = False) -> GermExponent:
    """Pointwise minimum of two germs.

    With ``one_sided=True`` only the eps > 0 side is meaningful and the
    minus slope of the result mirrors the plus slope.
    """
    if g.is_zero:
        return h
    if h.is_zero:
        return g
    if g.base < h.base:
        win = g
    elif h.base < g.base:
        win = h
    else:
        # sp <= g.slope_plus <= g.slope_minus <= the max: the invariant holds
        sp = min(g.slope_plus, h.slope_plus)
        if one_sided:
            return GermExponent._make(g.base, sp, sp)
        return GermExponent._make(g.base, sp, max(g.slope_minus, h.slope_minus))
    if one_sided:
        return GermExponent._make(win.base, win.slope_plus, win.slope_plus)
    return win


def germ_add(g: GermExponent, h: GermExponent) -> GermExponent:
    """Componentwise sum (product of the underlying tropical values)."""
    if g.is_zero or h.is_zero:
        return ZERO_GERM
    # sums of ordered slope pairs stay ordered
    return GermExponent._make(
        g.base + h.base,
        g.slope_plus + h.slope_plus,
        g.slope_minus + h.slope_minus,
    )
