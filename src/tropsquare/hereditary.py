"""Upward-closed subsets of the lattice quadrant N x N.

An upward-closed ("hereditary") set is stored by its antichain of minimal
points, which is always finite (Dickson's lemma) and unique, so equality
is decidable and cheap.  Union is the idempotent addition and pointwise
sum of members (Minkowski sum of up-sets) is the multiplication; together
they form a commutative semiring of characteristic one with the empty set
as zero and the full quadrant ``{(0,0)}`` as one.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import itemgetter

from .errors import ZeroScale
from .scalars import INF, as_scalar
from .semiring import Semiring


def _prefix_min(pts) -> tuple[tuple[int, int], ...]:
    """Minimal points of ``pts`` given sorted (first coordinate, then
    second, ascending): each point whose second coordinate is below that
    of every earlier one."""
    out = []
    least = None
    for p in pts:
        if least is None or p[1] < least:
            out.append(p)
            least = p[1]
    return tuple(out)


def minimal_points(points) -> tuple[tuple[int, int], ...]:
    """Antichain of minimal points of the up-set generated by ``points``.

    Sorted with first coordinate ascending (hence second strictly
    descending): the staircase reading order.
    """
    pts = sorted({(int(a), int(b)) for a, b in points})
    if pts and (pts[0][0] < 0 or min(b for _, b in pts) < 0):
        raise ValueError("points must have non-negative coordinates")
    return _prefix_min(pts)


def json_points(raw) -> list[tuple[int, int]]:
    """Points decoded from JSON: pairs of exact ints, no floats or booleans."""
    points = [tuple(p) for p in raw]
    for p in points:
        if len(p) != 2 or any(type(x) is not int for x in p):
            raise ValueError(f"point must be a pair of integers, got {list(p)!r}")
    return points


@dataclass(frozen=True, slots=True, init=False, repr=False)
class HereditarySet:
    """Up-set of N x N represented by its minimal-point staircase."""

    generators: tuple[tuple[int, int], ...]

    def __init__(self, points=()):
        object.__setattr__(self, "generators", minimal_points(points))

    @classmethod
    def _wrap(cls, canonical: tuple) -> "HereditarySet":
        out = object.__new__(cls)
        object.__setattr__(out, "generators", canonical)
        return out

    @property
    def is_zero(self) -> bool:
        return not self.generators

    def contains(self, a: int, b: int) -> bool:
        """Membership: the last generator with first coordinate <= ``a``
        has the least second coordinate of all of them."""
        i = bisect_right(self.generators, a, key=itemgetter(0))
        return i > 0 and self.generators[i - 1][1] <= b

    def __repr__(self):
        return f"HereditarySet({list(self.generators)})"

    # -- semiring operations ---------------------------------------------

    def __add__(self, other: "HereditarySet") -> "HereditarySet":
        """Union: one scan over the merge of the two staircases."""
        return HereditarySet._wrap(_prefix_min(sorted(self.generators + other.generators)))

    def __mul__(self, other: "HereditarySet") -> "HereditarySet":
        """Pointwise sums of members: Minkowski sum of the up-sets.

        Keeps the least second coordinate per column of the ``k*k'`` sums,
        then scans the columns once; the output can still be ``k*k'``.
        """
        best = {}
        get = best.get
        for a, b in self.generators:
            for c, d in other.generators:
                x = a + c
                y = b + d
                old = get(x)
                if old is None or y < old:
                    best[x] = y
        return HereditarySet._wrap(_prefix_min(sorted(best.items())))

    def scale(self, n: int, m: int) -> "HereditarySet":
        """Coordinatewise scaling (a, b) -> (n*a, m*b); an endomorphism."""
        if n < 1 or m < 1:
            raise ZeroScale(f"scaling factors must be >= 1, got ({n}, {m})")
        # strictly monotone scaling preserves the staircase order
        return HereditarySet._wrap(tuple((n * a, m * b) for a, b in self.generators))

    # -- evaluations -------------------------------------------------------

    def min_degree(self):
        """Least total degree a + b over the set; INF for the empty set.

        This is the image under the diagonal evaluation, a semiring
        morphism onto the naturals with infinity.
        """
        if self.is_zero:
            return INF
        return min(a + b for a, b in self.generators)

    def weighted_minimizer(self, weight):
        """(min of weight*a + b, achieving generator); (INF, None) if empty.

        Ties resolve to the first generator in staircase order.
        """
        if self.is_zero:
            return INF, None
        w = weight if isinstance(weight, (int, Fraction)) else as_scalar(weight)
        best = None
        arg = None
        for a, b in self.generators:
            val = w * a + b
            if best is None or val < best:
                best, arg = val, (a, b)
        return best, arg

    def weighted_degree(self, weight):
        """Least weighted degree ``weight*a + b`` over the generators."""
        return self.weighted_minimizer(weight)[0]

    # -- windows -----------------------------------------------------------

    def rasterize(self, window: int) -> tuple[tuple[bool, ...], ...]:
        """Membership table on [0, window) x [0, window); entry [a][b].

        Built from the least first coordinate of a generator at or left
        of each column: row ``a`` holds column ``c`` iff that least
        coordinate is at most ``a``.
        """
        if window < 1:
            raise ValueError("window must be >= 1")
        first = [window] * window  # ``window`` reaches no row
        for a, b in self.generators:  # second coordinates are distinct
            if b < window:
                first[b] = a
        first = list(accumulate(first, min))
        return tuple(tuple(f <= a for f in first) for a in range(window))

    def max_coordinate(self) -> int:
        if self.is_zero:
            return 0
        return max(max(a, b) for a, b in self.generators)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {"generators": [list(g) for g in self.generators]}

    @classmethod
    def from_json(cls, obj) -> "HereditarySet":
        return cls(json_points(obj["generators"]))


ZERO_SET = HereditarySet()
UNIT_SET = HereditarySet([(0, 0)])


def random_set(rng: random.Random, max_coord: int = 9, max_gens: int = 4) -> HereditarySet:
    if rng.random() < 0.08:
        return ZERO_SET
    k = rng.randint(1, max_gens)
    return HereditarySet(
        [(rng.randint(0, max_coord), rng.randint(0, max_coord)) for _ in range(k)]
    )


def hereditary_semiring(max_coord: int = 9, max_gens: int = 4) -> Semiring:
    return Semiring(
        name="hereditary-square",
        zero=ZERO_SET,
        one=UNIT_SET,
        add=HereditarySet.__add__,
        mul=HereditarySet.__mul__,
        sample=lambda rng: random_set(rng, max_coord, max_gens),
        encode=HereditarySet.to_json,
    )
