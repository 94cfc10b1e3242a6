"""Output checks written independently of the package under test.

Nothing here imports ``tropsquare``.  Exact numbers are Fractions and
quadratic surds are triples ``(a, b, d)`` meaning ``a + b*sqrt(d)``.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import gcd


# -- staircases and hulls ------------------------------------------------------


def is_staircase(gens) -> bool:
    """First coordinates strictly increasing, second strictly decreasing."""
    return all(a0 < a1 and b0 > b1 for (a0, b0), (a1, b1) in zip(gens, gens[1:]))


def is_minimal_set(candidates, gens) -> bool:
    """``gens`` is exactly the set of minimal points of ``candidates``.

    Every generator is a candidate, generators form an antichain, and
    every candidate is dominated by some generator: together these leave
    no other possibility.
    """
    gens = list(gens)
    if not gens:
        return not candidates
    if not is_staircase(gens):
        return False
    cand = set(candidates)
    if any(g not in cand for g in gens):
        return False
    xs = [g[0] for g in gens]
    for x, y in cand:
        j = bisect_right(xs, x) - 1
        if j < 0 or gens[j][1] > y:
            return False
    return True


def pairwise_sums(p, q) -> list[tuple[int, int]]:
    return [(a + c, b + d) for a, b in p for c, d in q]


def _cross(o, a, b) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def staircase_hull(points) -> tuple[tuple[int, int], ...]:
    """Extreme points of conv(points) + quadrant, by a full lower hull.

    Monotone-chain lower hull over all points, cut at the first point of
    least second coordinate: the part of the lower hull facing the origin.
    """
    pts = sorted(set(points))
    if not pts:
        return ()
    lower: list[tuple[int, int]] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    ymin = min(y for _, y in pts)
    out = []
    for p in lower:
        out.append(p)
        if p[1] == ymin:
            break
    return tuple(out)


def region_contains(vertices, x, y) -> bool:
    """Membership in conv(vertices) + quadrant via the edge half-planes."""
    if not vertices or x < vertices[0][0] or y < vertices[-1][1]:
        return False
    for (x0, y0), (x1, y1) in zip(vertices, vertices[1:]):
        # inward normal of the edge is (y0 - y1, x1 - x0), both >= 0
        if (y0 - y1) * (x - x0) + (x1 - x0) * (y - y0) < 0:
            return False
    return True


def semigroup_gaps(n: int, m: int) -> list[int]:
    """Naturals below (n-1)(m-1) that are not n*a + m*b."""
    assert gcd(n, m) == 1
    bound = (n - 1) * (m - 1)
    reach = {n * a + m * b for a in range(bound // n + 1) for b in range(bound // m + 1)}
    return [c for c in range(bound) if c not in reach]


# -- quadratic surds -----------------------------------------------------------


def _sgn(q) -> int:
    return (q > 0) - (q < 0)


def surd_sign(a, b, d) -> int:
    """Sign of a + b*sqrt(d) for rational a, b and non-square d > 1 (or b == 0)."""
    if b == 0 or d == 0:
        return _sgn(a)
    if a == 0:
        return _sgn(b)
    if _sgn(a) == _sgn(b):
        return _sgn(a)
    lhs, rhs = a * a, b * b * d
    return _sgn(a) if lhs > rhs else -_sgn(a)


def surd_value(x) -> tuple[Fraction, Fraction, int]:
    """Read a scalar's stored parts as data (no arithmetic on the object)."""
    return Fraction(x.a), Fraction(x.b), int(x.d)


def is_convergent(x: tuple, p: int, q: int) -> bool:
    """|x - p/q| < 1/q**2, decided exactly."""
    a, b, d = x
    r, eps = Fraction(p, q), Fraction(1, q * q)
    return surd_sign(a - r - eps, b, d) < 0 < surd_sign(a - r + eps, b, d)


def weighted_min(gens, weight) -> Fraction:
    return min(weight * a + b for a, b in gens)


def reciprocal(x: tuple) -> tuple:
    a, b, d = x
    if b == 0:
        return (1 / a, Fraction(0), 0)
    n = a * a - b * b * d
    return (a / n, -b / n, d)


def canonical(x: tuple) -> tuple:
    """The triple with Fraction parts and d == 0 for rationals, for comparing."""
    a, b, d = x
    return (Fraction(a), Fraction(b), int(d) if b else 0)
