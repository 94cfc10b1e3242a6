"""Staircase Newton polygons over the lattice quadrant.

A polygon here is a closed convex region C of the quadrant that is stable
under translation by the quadrant (C + Q = C) and whose extreme points
are lattice points.  The extreme points form a chain with first
coordinate strictly increasing, second strictly decreasing, and edge
slopes strictly increasing; that chain is the stored representation.

Addition is the convex hull of the union, multiplication the Minkowski
sum (computed by the classical edge slope-merge).  The resulting semiring
is multiplicatively cancellative, and the hull map from up-sets onto
polygons is a surjective homomorphism that is not injective.
All arithmetic is exact integer arithmetic (cross products); no floats.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter

from .errors import ZeroImage
from .scalars import INF, as_scalar, sign_of
from .hereditary import HereditarySet, _prefix_min, json_points, minimal_points, random_set
from .semiring import Semiring


def _cross(p, q, r) -> int:
    """Cross product (q - p) x (r - p); positive iff q is strictly below
    the chord from p to r."""
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def _hull_scan(staircase) -> tuple[tuple[int, int], ...]:
    """Extreme-point chain of a canonical staircase."""
    out: list[tuple[int, int]] = []
    for p in staircase:
        while len(out) >= 2 and _cross(out[-2], out[-1], p) <= 0:
            out.pop()
        out.append(p)
    return tuple(out)


@dataclass(frozen=True, slots=True, init=False, repr=False)
class NewtonPolygon:
    """Quadrant-stable convex region stored by its extreme-point chain."""

    vertices: tuple[tuple[int, int], ...]

    def __init__(self, points=()):
        object.__setattr__(self, "vertices", _hull_scan(minimal_points(points)))

    @classmethod
    def _wrap(cls, chain: tuple) -> "NewtonPolygon":
        out = object.__new__(cls)
        object.__setattr__(out, "vertices", chain)
        return out

    @property
    def is_zero(self) -> bool:
        return not self.vertices

    def __repr__(self):
        return f"NewtonPolygon({list(self.vertices)})"

    def _edges(self):
        v = self.vertices
        return [(v[i + 1][0] - v[i][0], v[i + 1][1] - v[i][1]) for i in range(len(v) - 1)]

    # -- semiring operations ---------------------------------------------

    def __add__(self, other: "NewtonPolygon") -> "NewtonPolygon":
        """Convex hull of the union of the two regions."""
        return NewtonPolygon._wrap(_hull_scan(_prefix_min(sorted(self.vertices + other.vertices))))

    def __mul__(self, other: "NewtonPolygon") -> "NewtonPolygon":
        """Minkowski sum via merge of edge vectors by increasing slope."""
        if self.is_zero or other.is_zero:
            return ZERO_POLYGON
        es, fs = self._edges(), other._edges()
        merged = []
        i = j = 0
        while i < len(es) and j < len(fs):
            e, f = es[i], fs[j]
            c = e[1] * f[0] - f[1] * e[0]  # sign of slope(e) - slope(f); dx > 0
            if c < 0:
                merged.append(e)
                i += 1
            elif c > 0:
                merged.append(f)
                j += 1
            else:
                merged.append((e[0] + f[0], e[1] + f[1]))
                i += 1
                j += 1
        merged.extend(es[i:])
        merged.extend(fs[j:])
        x = self.vertices[0][0] + other.vertices[0][0]
        y = self.vertices[0][1] + other.vertices[0][1]
        chain = [(x, y)]
        for dx, dy in merged:
            x += dx
            y += dy
            chain.append((x, y))
        return NewtonPolygon._wrap(tuple(chain))

    # -- region queries ----------------------------------------------------

    def contains(self, x, y) -> bool:
        """Exact membership of (x, y) in the region."""
        v = self.vertices
        if not v:
            return False
        if x < v[0][0] or y < v[-1][1]:
            return False
        if x >= v[-1][0]:
            return True  # y >= v[-1][1] already holds
        i = bisect_right(v, x, key=itemgetter(0))  # the edge with x0 <= x < x1
        (x0, y0), (x1, y1) = v[i - 1], v[i]
        # above-or-on the edge, cross-multiplied to stay in integers
        return (y - y0) * (x1 - x0) >= (y1 - y0) * (x - x0)

    def support(self, wx, wy):
        """Least value of ``wx*a + wy*b`` over the region.

        This is the unique semiring-homomorphic extension of the generator
        assignment ``(1,0) -> wx, (0,1) -> wy``: any evaluation of an
        up-set through non-negative weights factors through its hull.
        Weights must be non-negative exponents; infinite weights are
        rejected because only the zero region may evaluate to zero.
        """
        if wx is INF or wy is INF:
            raise ZeroImage("support weights must be nonzero values")
        if sign_of(wx) < 0 or sign_of(wy) < 0:
            raise ValueError("support weights must be non-negative exponents")
        if self.is_zero:
            return INF
        wx, wy = as_scalar(wx), as_scalar(wy)
        return min(a * wx + b * wy for a, b in self.vertices)

    def max_coordinate(self) -> int:
        if self.is_zero:
            return 0
        return max(max(a, b) for a, b in self.vertices)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {"vertices": [list(v) for v in self.vertices]}

    @classmethod
    def from_json(cls, obj) -> "NewtonPolygon":
        return cls(json_points(obj["vertices"]))


ZERO_POLYGON = NewtonPolygon()
UNIT_POLYGON = NewtonPolygon([(0, 0)])


def convex_closure(s: HereditarySet) -> NewtonPolygon:
    """Hull of an up-set: the reduction onto the cancellative quotient.

    Surjective homomorphism; distinct up-sets with the same hull witness
    its non-injectivity.
    """
    return NewtonPolygon._wrap(_hull_scan(s.generators))


def cancels(p: NewtonPolygon, r: NewtonPolygon, s: NewtonPolygon) -> bool:
    """Whether ``p*s == r*s`` implies ``p == r`` for this triple."""
    if s.is_zero:
        raise ValueError("cancellation test requires a nonzero factor")
    return (p * s != r * s) or p == r


def random_polygon(rng: random.Random, max_coord: int = 9, max_gens: int = 4) -> NewtonPolygon:
    return convex_closure(random_set(rng, max_coord, max_gens))


def polygon_semiring(max_coord: int = 9, max_gens: int = 4) -> Semiring:
    return Semiring(
        name="newton-polygons",
        zero=ZERO_POLYGON,
        one=UNIT_POLYGON,
        add=NewtonPolygon.__add__,
        mul=NewtonPolygon.__mul__,
        sample=lambda rng: random_polygon(rng, max_coord, max_gens),
        encode=NewtonPolygon.to_json,
    )
