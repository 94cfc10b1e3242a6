"""Independent oracles shared by the test modules.

Nothing here reuses the code paths under test: membership and hulls are
decided by direction-grid exposure over rasterized windows, rasters by
numpy slice filling, Minkowski sums by shifting bit matrices, scalar
signs by 100-digit interval arithmetic, semigroup membership by trying
every first coefficient, and tensor rewriting by a bounded breadth-first
search over the relation moves.
"""

from __future__ import annotations

import random
from collections import deque

import numpy as np
from mpmath import iv

from tropsquare import ExactScalar, HereditarySet, RewriteVerdict, SimpleTensor, as_scalar
from tropsquare.correspondence import check_positive

iv.dps = 100


def interval_value(x: ExactScalar):
    """Evaluate a + b*sqrt(d) in 100-digit interval arithmetic."""
    x = as_scalar(x)
    v = iv.mpf(x.a.numerator) / x.a.denominator
    if x.b:
        v += (iv.mpf(x.b.numerator) / x.b.denominator) * iv.sqrt(x.d)
    return v


def interval_sign(x, y) -> int:
    """Sign of x - y decided from separate interval evaluations.

    Returns 0 when the difference interval straddles zero, which at this
    precision only happens for genuinely equal values.
    """
    diff = interval_value(x) - interval_value(y)
    if diff > 0:
        return 1
    if diff < 0:
        return -1
    return 0


# -- lattice-region oracles ---------------------------------------------------


def _directions(window: int, for_membership: bool = False) -> np.ndarray:
    hi = window + 1 if for_membership else 2 * window + 2
    ws = [(i, j) for i in range(hi) for j in range(hi)]
    return np.array(ws[1:], dtype=np.int64)  # drop (0, 0)


def exposed_points(cells, window: int) -> list[tuple[int, int]]:
    """Extreme points of conv(cells) + quadrant, by strict exposure.

    A cell is extreme iff some direction with positive components makes
    it the unique minimizer; directions up to 2*window + 1 per component
    include a separating mediant for every candidate vertex.
    """
    pts = np.array(sorted(set(map(tuple, cells))), dtype=np.int64)
    if len(pts) == 0:
        return []
    ws = _directions(window)
    dots = pts @ ws.T
    mins = dots.min(axis=0)
    achieved = dots == mins
    unique = achieved.sum(axis=0) == 1
    exposed = (achieved & unique).any(axis=1)
    return [tuple(p) for p in pts[exposed]]


def region_contains(points, cell, window: int) -> bool:
    """Membership of cell in conv(points) + quadrant.

    Uses the support characterization over all directions with components
    up to the window, which includes every edge normal of the hull.
    """
    pts = np.array(sorted(set(map(tuple, points))), dtype=np.int64)
    if len(pts) == 0:
        return False
    ws = _directions(window, for_membership=True)
    cell = np.asarray(cell, dtype=np.int64)
    return bool(((ws @ cell) >= (pts @ ws.T).min(axis=0)).all())


def numpy_rasterize(gens, window: int) -> np.ndarray:
    """Membership table on [0, window) x [0, window); entry [a, b]."""
    if window < 1:
        raise ValueError("window must be >= 1")
    grid = np.zeros((window, window), dtype=bool)
    for a, b in gens:
        if a < window and b < window:
            grid[a:, b:] = True
    return grid


def raster(e: HereditarySet, window: int) -> np.ndarray:
    """``e.rasterize(window)`` as a boolean matrix."""
    return np.array(e.rasterize(window), dtype=bool)


def raster_minkowski(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minkowski sum of two bit matrices, truncated to the shared window."""
    n = a.shape[0]
    out = np.zeros_like(a)
    for x, y in np.argwhere(a):
        out[x:, y:] |= b[: n - x, : n - y]
    return out


# -- numerical semigroups ----------------------------------------------------


def loop_represents(n: int, m: int, c: int) -> bool:
    """True iff c = n*a + m*b for some naturals a, b, trying every a."""
    if c < 0:
        return False
    for a in range(c // n + 1):
        if (c - n * a) % m == 0:
            return True
    return False


# -- tensor rewriting -------------------------------------------------------


def _rational_parts(lam: ExactScalar):
    if lam.is_rational:
        f = lam.as_fraction()
        return f.numerator, f.denominator
    return None


def bfs_rewrite_equiv(
    t1: SimpleTensor, t2: SimpleTensor, lam, lamp, bound: int = 64
) -> RewriteVerdict:
    """Bounded search for a chain of relation moves from t1 to t2.

    Moves: unit crossings in both directions and, for rational slopes,
    value-preserving re-witnessing inside either leg.  All intermediate
    witness coordinates stay within [0, bound].  A positive answer is
    sound; a negative answer is definitive only when no move was pruned
    by the bound (otherwise ``inconclusive`` is set).
    """
    lam, lamp = check_positive(lam), check_positive(lamp)
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if t1.is_zero or t2.is_zero:
        return RewriteVerdict(t1.is_zero and t2.is_zero, False)
    if t1 == t2:
        return RewriteVerdict(True, False)

    start = (*t1.left.witness, *t1.right.witness)
    if max(start) > bound:
        return RewriteVerdict(False, True)

    lr, pr = _rational_parts(lam), _rational_parts(lamp)

    # integer-only target predicate
    if lr is None:
        ta, tb = t2.left.witness

        def hit_left(a, b):
            return a == ta and b == tb

    else:
        n1, m1 = lr
        tl = t2.left.alpha.as_fraction() * m1
        tl_num = tl.numerator if tl.denominator == 1 else None

        def hit_left(a, b):
            return tl_num is not None and a * n1 + b * m1 == tl_num

    if pr is None:
        tc, td = t2.right.witness

        def hit_right(c, d):
            return c == tc and d == td

    else:
        n2, m2 = pr
        tr = t2.right.alpha.as_fraction() * m2
        tr_num = tr.numerator if tr.denominator == 1 else None

        def hit_right(c, d):
            return tr_num is not None and c * n2 + d * m2 == tr_num

    moves = [(0, 1, -1, 0), (0, -1, 1, 0)]
    if lr is not None:
        n1, m1 = lr
        moves += [(m1, -n1, 0, 0), (-m1, n1, 0, 0)]
    if pr is not None:
        n2, m2 = pr
        moves += [(0, 0, m2, -n2), (0, 0, -m2, n2)]

    seen = {start}
    queue = deque([start])
    pruned = False
    while queue:
        a, b, c, d = queue.popleft()
        if hit_left(a, b) and hit_right(c, d):
            return RewriteVerdict(True, False)
        for da, db, dc, dd in moves:
            na, nb, nc, nd = a + da, b + db, c + dc, d + dd
            if na < 0 or nb < 0 or nc < 0 or nd < 0:
                continue
            if na > bound or nb > bound or nc > bound or nd > bound:
                pruned = True
                continue
            state = (na, nb, nc, nd)
            if state not in seen:
                seen.add(state)
                queue.append(state)
    return RewriteVerdict(False, pruned)


# -- random inputs ------------------------------------------------------------


def random_points(rng: random.Random, max_coord: int, k: int) -> list[tuple[int, int]]:
    return [(rng.randint(0, max_coord), rng.randint(0, max_coord)) for _ in range(k)]


def random_hset(rng: random.Random, max_coord: int = 9, max_gens: int = 4) -> HereditarySet:
    if rng.random() < 0.06:
        return HereditarySet()
    return HereditarySet(random_points(rng, max_coord, rng.randint(1, max_gens)))
