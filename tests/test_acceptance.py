"""Acceptance suite: every headline guarantee at its pinned tolerance.

Each criterion prints one PASS/FAIL line (run with ``pytest -s``) and
asserts.  Budgets are wall-clock seconds on a desk machine; all checks
are exact arithmetic unless a tolerance is stated.
"""

import itertools
import json
import random
import time
from fractions import Fraction
from math import gcd
from pathlib import Path

import numpy as np

from tropsquare import (
    HereditarySet,
    INF,
    NewtonPolygon,
    approximate,
    as_scalar,
    axiom_suite,
    compose,
    convergents,
    convex_closure,
    evaluate,
    germ_evaluate,
    rewrite_equiv,
    standard_instances,
    surd,
    witness_tensor,
)
from tropsquare.cli import main as cli_main

from helpers import random_hset, raster, raster_minkowski

E4 = HereditarySet([(0, 8), (2, 5), (5, 3), (7, 0)])
E3 = HereditarySet([(0, 8), (2, 5), (7, 0)])


def _report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:02d}: {status} — {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_axiom_suites():
    t0 = time.monotonic()
    failed = []
    for name, sr in standard_instances().items():
        if not axiom_suite(sr, 1000, seed=42).passed:
            failed.append(name)
    elapsed = time.monotonic() - t0
    ok = not failed and elapsed < 10.0
    _report(1, ok, f"11 instances x 1000 cases in {elapsed:.2f}s (budget 10s); failures: {failed}")


def test_criterion_02_product_matches_raster_oracle():
    rng = random.Random(20250802)
    t0 = time.monotonic()
    window = 31  # covers sums of coordinates up to 15 + 15
    bad = 0
    for _ in range(500):
        e = random_hset(rng, 15, 5)
        f = random_hset(rng, 15, 5)
        got = raster(e * f, window)
        want = raster_minkowski(raster(e, window), raster(f, window))
        if not np.array_equal(got, want):
            bad += 1
    elapsed = time.monotonic() - t0
    ok = bad == 0 and elapsed < 5.0
    _report(2, ok, f"500 pairs, coords <= 15, exact, {elapsed:.2f}s (budget 5s); mismatches: {bad}")


def test_criterion_03_reduction_homomorphism_and_witness():
    rng = random.Random(3)
    bad = 0
    for _ in range(1000):
        e, f = random_hset(rng, 9, 4), random_hset(rng, 9, 4)
        if convex_closure(e + f) != convex_closure(e) + convex_closure(f):
            bad += 1
        if convex_closure(e * f) != convex_closure(e) * convex_closure(f):
            bad += 1
    witness = convex_closure(E4) == convex_closure(E3) and E4 != E3
    ok = bad == 0 and witness
    _report(3, ok, f"1000 pairs homomorphic (violations: {bad}); staircase witness holds: {witness}")


def _all_polygons(max_coord: int):
    """Every staircase-convex vertex chain with coordinates <= max_coord."""
    pts = [(x, y) for x in range(max_coord + 1) for y in range(max_coord + 1)]
    out = [NewtonPolygon()]

    def extend(chain):
        out_part = []
        last = chain[-1]
        for p in pts:
            if p[0] > last[0] and p[1] < last[1]:
                cand = chain + [p]
                if NewtonPolygon(cand).vertices == tuple(cand):
                    out_part.append(cand)
        return out_part

    frontier = [[p] for p in pts]
    while frontier:
        out.extend(NewtonPolygon._wrap(tuple(c)) for c in frontier)
        frontier = [c2 for c in frontier for c2 in extend(c)]
    return out


def test_criterion_04_cancellativity():
    t0 = time.monotonic()
    rng = random.Random(4)
    bad = 0
    for _ in range(10_000):
        p = convex_closure(random_hset(rng, 8, 4))
        r = convex_closure(random_hset(rng, 8, 4))
        s = convex_closure(random_hset(rng, 8, 4))
        if s.is_zero:
            continue
        if p * s == r * s and p != r:
            bad += 1
    # exhaustive over coords <= 4, phrased as injectivity of each (.*s)
    polys = _all_polygons(4)
    nonzero = [p for p in polys if not p.is_zero]
    inj_bad = 0
    for s in nonzero:
        seen = {}
        for p in polys:
            key = (p * s).vertices
            if key in seen:
                inj_bad += 1
            seen[key] = p
    elapsed = time.monotonic() - t0
    ok = bad == 0 and inj_bad == 0 and elapsed < 30.0
    _report(
        4,
        ok,
        f"10^4 random triples + exhaustive {len(polys)} polygons (coords <= 4), "
        f"{elapsed:.2f}s (budget 30s); counterexamples: {bad + inj_bad}",
    )


def test_criterion_05_universal_property():
    rng = random.Random(5)
    bad = 0
    for _ in range(200):
        e = random_hset(rng, 9, 4)
        wx = Fraction(rng.randint(0, 18), rng.randint(1, 6))
        wy = Fraction(rng.randint(0, 18), rng.randint(1, 6))
        direct = INF if e.is_zero else min(a * wx + b * wy for a, b in e.generators)
        if convex_closure(e).support(wx, wy) != direct:
            bad += 1
    consistency_bad = 0
    for r in (Fraction(1, 3), Fraction(2, 5), Fraction(3)):
        for _ in range(100):
            e = random_hset(rng, 9, 4)
            if convex_closure(e).support(r, 1) != e.weighted_degree(r):
                consistency_bad += 1
    ok = bad == 0 and consistency_bad == 0
    _report(
        5,
        ok,
        f"factorization exact on 200 random (E, X, Y) (violations: {bad}); "
        f"weighted-degree consistency on 3x100 cases (violations: {consistency_bad})",
    )


def test_criterion_06_conductor_bound():
    from tropsquare import conductor, represents

    t0 = time.monotonic()
    bad = []
    for n in range(2, 13):
        for m in range(n + 1, 13):
            if gcd(n, m) != 1:
                continue
            c = conductor(n, m)
            if not all(represents(n, m, k) for k in range(c, c + n * m + 1)):
                bad.append((n, m))
            if represents(n, m, c - 1):
                bad.append((n, m))
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 1.0
    _report(6, ok, f"all coprime 2 <= n < m <= 12 in {elapsed:.3f}s (budget 1s); failures: {bad}")


def test_criterion_07_weighted_degree_scaling_bridge():
    rng = random.Random(7)
    bad = 0
    for _ in range(1000):
        e = random_hset(rng, 9, 4)
        for n, m in ((1, 3), (2, 3), (3, 5), (5, 7)):
            lhs = e.weighted_degree(Fraction(n, m))
            rhs = e.scale(n, m).min_degree()
            if (lhs is INF) != (rhs is INF) or (lhs is not INF and m * lhs != rhs):
                bad += 1
    _report(7, bad == 0, f"1000 random sets x 4 slopes, exact (violations: {bad})")


def test_criterion_08_iso_criterion_on_grid():
    from tropsquare import iso_equivalent

    grid = sorted(
        {Fraction(p, q) for p in range(1, 11) for q in range(1, 11)}
    )
    bad = 0
    for l1 in grid:
        for l2 in grid:
            want = l2 == l1 or l2 == 1 / l1
            if iso_equivalent(l1, l2) != want:
                bad += 1
    _report(8, bad == 0, f"{len(grid)}^2 slope pairs, denominators <= 10 (violations: {bad})")


def test_criterion_09_composition_three_cases():
    t0 = time.monotonic()
    problems = []

    # case (a): rational slopes compose undeformed, and rewriting identifies
    # every value collision with coordinates <= 12 at bound 64
    lam, lamp = as_scalar(Fraction(1, 2)), as_scalar(Fraction(3, 4))
    res = compose(lam, lamp)
    if not (res.rho == Fraction(3, 8) and not res.deformed):
        problems.append("case (a) slope/deformation")
    rho = Fraction(3, 8)
    by_value = {}
    for a in range(13):
        for d in range(13):
            by_value.setdefault(a * rho + d, []).append((a, d))
    collisions = [pts for pts in by_value.values() if len(pts) > 1]
    for pts in collisions:
        for w1, w2 in itertools.combinations(pts, 2):
            verdict = rewrite_equiv(
                witness_tensor(lam, lamp, w1), witness_tensor(lam, lamp, w2), lam, lamp, 64
            )
            if not verdict.equivalent:
                problems.append(f"case (a) unidentified collision {w1} ~ {w2}")

    # case (b): irrational product composes undeformed with injective bases
    res = compose(surd(2), surd(3))
    if not (res.rho == surd(6) and not res.deformed):
        problems.append("case (b) slope/deformation")
    bases = {a * surd(6) + d for a in range(21) for d in range(21)}
    if len(bases) != 21 * 21:
        problems.append("case (b) base collision")

    # case (c): equal irrationals with rational product deform, witnessed by
    # an unmergeable value collision with distinct germ slopes
    res = compose(surd(2), surd(2))
    if not (res.rho == as_scalar(2) and res.deformed):
        problems.append("case (c) slope/deformation")
    t1 = witness_tensor(surd(2), surd(2), (1, 0))
    t2 = witness_tensor(surd(2), surd(2), (0, 2))
    g1 = germ_evaluate(t1, surd(2), surd(2))
    g2 = germ_evaluate(t2, surd(2), surd(2))
    verdict = rewrite_equiv(t1, t2, surd(2), surd(2), 64)
    if not (
        g1.base == g2.base == as_scalar(2)
        and g1.slope_plus == as_scalar(2)
        and g2.slope_plus == as_scalar(0)
        and not verdict.equivalent
        and not verdict.inconclusive
    ):
        problems.append("case (c) witness pair")

    elapsed = time.monotonic() - t0
    ok = not problems and elapsed < 30.0
    _report(
        9,
        ok,
        f"three cases, {len(collisions)} collision groups identified, {elapsed:.2f}s "
        f"(budget 30s); problems: {problems}",
    )


def test_criterion_10_diophantine_approximation():
    """Convergent evaluations of a sqrt(2)-sloped degree approach it exactly.

    Clause (i): at every depth <= 8, ``|alpha_k - alpha|`` stays within the
    a-priori bound ``|c_k - sqrt 2| * max first coordinate``.

    Clause (ii): at the certified depth ``D``, the least depth with
    ``|c_D - sqrt 2| * 15 <= 1e-6`` (15 being the coordinate cap of the
    draws), every evaluation is within ``1e-6`` of ``alpha``.

    ``D`` exceeds 8: the eighth convergent is ``577/408`` and
    ``577**2 - 2 * 408**2 = 1``, so ``|577/408 - sqrt 2| =
    1 / (408 * (577 + 408 sqrt 2)) ~ 2.124e-6``, already above ``1e-6``
    before any first coordinate >= 1 multiplies it.  ``D`` is 10
    (``3363/2378``), where the bound for first coordinate 15 is 9.378e-7.
    """
    lam = surd(2)
    max_coord = 15
    tol = Fraction(1, 10**6)

    def conv_err(k):
        return abs(as_scalar(convergents(lam, k)[-1]) - lam)

    depth = next(k for k in itertools.count(1) if conv_err(k) * max_coord <= tol)
    assert depth > 8, f"certified depth {depth} <= 8"

    rng = random.Random(10)
    bound_violations = 0
    worst = as_scalar(0)
    worst_case = None
    for _ in range(100):
        e = random_hset(rng, max_coord, 5)
        if e.is_zero:
            continue
        alpha = e.weighted_degree(lam)
        steps = approximate(lam, e, depth)
        for s in steps[:8]:
            if abs(as_scalar(s.alpha) - alpha) > s.bound:
                bound_violations += 1
        final_err = abs(as_scalar(steps[-1].alpha) - alpha)
        if final_err > worst:
            worst, worst_case = final_err, e.generators
    stabilized = worst <= tol
    ok = bound_violations == 0 and stabilized
    c = convergents(lam, depth)[-1]
    _report(
        10,
        ok,
        f"error bound holds at every depth <= 8 (violations: {bound_violations}); "
        f"|c_8 - sqrt(2)| ~ {float(conv_err(8)):.3e}; least depth certifying 1e-6 "
        f"at coordinates <= {max_coord}: {depth} (convergent {c}); stabilization "
        f"within 1e-6 at depth {depth}: {stabilized} "
        f"(worst |alpha_{depth} - alpha| ~ {float(worst):.3e} at {worst_case})",
    )


def test_criterion_11_cli_golden_and_roundtrips(capsys, tmp_path):
    golden = Path(__file__).parent / "golden" / "figure1.svg"
    e4 = tmp_path / "e4.json"
    e4.write_text(json.dumps(E4.to_json()))
    outs = []
    for name in ("a.svg", "b.svg"):
        out = tmp_path / name
        code = cli_main(
            ["figure", "--input", str(e4), "--lambda", "1/3", "--window", "9", "--out", str(out)]
        )
        assert code == 0
        outs.append(out.read_bytes())
    byte_identical = outs[0] == outs[1] == golden.read_bytes()

    roundtrips = True
    rng = random.Random(11)
    for _ in range(50):
        e = random_hset(rng, 9, 4)
        src = tmp_path / "rt.json"
        src.write_text(json.dumps(e.to_json()))
        code = cli_main(["hereditary", "canonicalize", "--input", str(src)])
        out = capsys.readouterr().out
        roundtrips &= code == 0 and json.loads(out) == e.to_json()
        poly = convex_closure(e)
        src.write_text(json.dumps(poly.to_json()))
        code = cli_main(["newton", "add", "--lhs", str(src), "--rhs", str(src)])
        out = capsys.readouterr().out
        roundtrips &= code == 0 and json.loads(out) == poly.to_json()

    ok = byte_identical and roundtrips
    _report(11, ok, f"figure byte-identical across runs and to golden: {byte_identical}; "
            f"JSON round-trips identity: {roundtrips}")
