"""Workload ``staircase``: Newton-polygon arithmetic on large up-sets.

Up-set sizes k sit on a fixed log-spaced grid from 20 to 300 generators;
the seed picks the coordinates.  Two shapes per size: a strict staircase
(sorted distinct first coordinates paired with descending second ones,
whose hull keeps few points) and a convex-curve staircase (every point is
a hull vertex).  Each block of the schedule does one product of each kind
next to the reads on the same inputs, so a faster product bought with
slower queries shows up in the same run.  Sizes come from a fixed grid,
not from the seed, so every seed asks for the same amount of work.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import oracles as orc
from harness import Op

GRID = [round(20 * 15 ** (i / 11)) for i in range(12)]  # 20 .. 300
BLOCKS_PER_SIZE = 3  # a pass long enough to time, with every size in it
CHECK_SHARE = 4  # one product in this many gets the all-pairs domination check


def strict_staircase(rng: random.Random, k: int) -> list[tuple[int, int]]:
    xs = sorted(rng.sample(range(20 * k), k))
    ys = sorted(rng.sample(range(20 * k), k), reverse=True)
    return list(zip(xs, ys))


def convex_staircase(rng: random.Random, k: int) -> list[tuple[int, int]]:
    """k points with strictly increasing edge slopes: all are hull vertices."""
    drops = sorted(rng.sample(range(1, 4 * k), k - 1), reverse=True)
    xs, ys = [rng.randrange(8)], [0]
    for s in drops:
        dx = rng.randint(1, 3)
        xs.append(xs[-1] + dx)
        ys.append(ys[-1] - s * dx)
    shift = rng.randrange(8) - ys[-1]
    return [(a, b + shift) for a, b in zip(xs, ys)]


def _coprime_pair(rng: random.Random) -> tuple[int, int]:
    while True:
        n, m = rng.randint(5, 40), rng.randint(5, 40)
        if gcd(n, m) == 1:
            return n, m


def build(seed: int, ts) -> list[Op]:
    rng = random.Random(seed)
    blocks = [_block(rng, ts, k) for k in GRID for _ in range(BLOCKS_PER_SIZE)]
    rng.shuffle(blocks)
    return [op for block in blocks for op in block]


def _block(rng: random.Random, ts, k: int) -> list[Op]:
    s_pts, c_pts = strict_staircase(rng, k), convex_staircase(rng, k)
    S, C = ts.HereditarySet(s_pts), ts.HereditarySet(c_pts)
    s_gens, c_gens = S.generators, C.generators
    PS, PC = ts.convex_closure(S), ts.convex_closure(C)
    ps_v, pc_v = PS.vertices, PC.vertices
    check_mul = rng.randrange(CHECK_SHARE) == 0
    n, m = rng.randint(1, 5), rng.randint(1, 5)
    r = Fraction(rng.randint(1, 30), rng.randint(1, 30))
    wx, wy = Fraction(rng.randint(1, 9), rng.randint(1, 9)), Fraction(rng.randint(1, 9), rng.randint(1, 9))
    gn, gm = _coprime_pair(rng)
    # probe points around the hull boundary, inside and outside
    probes = []
    for _ in range(2):
        vx, vy = pc_v[rng.randrange(len(pc_v))]
        probes.append((vx + rng.randint(-3, 3), max(0, vy + rng.randint(-3, 3))))

    def mul_check(out):
        if not check_mul:
            return orc.is_staircase(out.generators)
        return orc.is_minimal_set(orc.pairwise_sums(s_gens, c_gens), out.generators)

    def mul_count(out, tr):
        tr.count("hereditary.mul.kept", len(out.generators))
        tr.count("hereditary.mul.candidates", len(s_gens) * len(c_gens))

    def hull_count(gens):
        def count(out, tr):
            tr.count("polygon.convex_closure.kept", len(out.vertices))
            tr.count("polygon.convex_closure.inputs", len(gens))
        return count

    ops = [
        Op("hereditary.mul", lambda: S * C, mul_check, mul_count),
        Op("hereditary.add", lambda: S + C,
           lambda out: orc.is_minimal_set(s_gens + c_gens, out.generators)),
        Op("polygon.convex_closure", lambda: ts.convex_closure(S),
           lambda out: out.vertices == orc.staircase_hull(s_gens), hull_count(s_gens)),
        Op("polygon.convex_closure", lambda: ts.convex_closure(C),
           lambda out: out.vertices == orc.staircase_hull(c_gens), hull_count(c_gens)),
        Op("polygon.mul", lambda: PS * PC,
           lambda out: out.vertices == orc.staircase_hull(orc.pairwise_sums(ps_v, pc_v))),
        Op("polygon.add", lambda: PS + PC,
           lambda out: out.vertices == orc.staircase_hull(ps_v + pc_v)),
        Op("hereditary.scale", lambda: S.scale(n, m),
           lambda out: out.generators == tuple((n * a, m * b) for a, b in s_gens)),
        Op("hereditary.min_degree", lambda: S.min_degree(),
           lambda out: out == min(a + b for a, b in s_gens)),
        Op("hereditary.min_degree", lambda: C.min_degree(),
           lambda out: out == min(a + b for a, b in c_gens)),
        Op("hereditary.weighted_degree", lambda: S.weighted_degree(r),
           lambda out: out == orc.weighted_min(s_gens, r)),
        Op("hereditary.weighted_degree", lambda: C.weighted_degree(r),
           lambda out: out == orc.weighted_min(c_gens, r)),
        # support on the strict staircase's short hull: the scalar tower stays marginal here
        Op("polygon.support", lambda: PS.support(wx, wy),
           lambda out: orc.surd_value(out) == (min(wx * a + wy * b for a, b in ps_v), 0, 0)),
    ]
    for px, py in probes:
        ops.append(Op("polygon.contains", lambda px=px, py=py: PC.contains(px, py),
                      lambda out, px=px, py=py: out == orc.region_contains(pc_v, px, py)))
    ops.append(Op("semigroup.gaps", lambda: ts.gaps(gn, gm),
                  lambda out: out == orc.semigroup_gaps(gn, gm)))
    rng.shuffle(ops)
    return ops
