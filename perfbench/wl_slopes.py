"""Workload ``slopes``: composition decisions and sloped evaluation.

Two kinds of operation, interleaved block by block:

(a) ``reduced_equiv`` on rational slope pairs p/q (p <= 9, q <= 7) at
    bounds 16..32, half of them same-value pairs reached by a random walk
    of relation moves, plus sqrt(d) x sqrt(d) pairs; ``compose`` and
    ``verify_composition`` on rational pairs and on sqrt:2 x sqrt:2
    (deformed) and sqrt:2 x sqrt:3 (irrational product).
(b) ``convergents`` and ``approximate`` of quadratic surds to depth
    100..400, ``evaluate`` of staircases at surd slopes, ``iso_equivalent``.

This is the scalar tower used the other way round from ``axioms``: few
values whose bit-length keeps growing.  Pairs whose witness lies past the
search bound stay in: they are the undecided share of ``decided_ratio``.
Surds whose rational part is beyond float range are a known defect
(``convergents`` raises ``OverflowError``); they run as separate probes
after the timed loop and are reported on their own.
"""

from __future__ import annotations

import contextlib
import importlib
import random
from fractions import Fraction

import oracles as orc
from harness import Op
from wl_staircase import strict_staircase

BLOCKS = 16  # one pass; its decision queries fix decided_ratio for the seed
RE_PER_BLOCK = 10
ISO_PER_BLOCK = 6  # cheap reads, so the median sits inside a cluster of like calls
DEPTHS = (100, 150, 200, 250, 300, 350, 400)
RADICANDS = (2, 3, 5, 6, 7, 10, 11, 13)
DEFECT_PROBES = 4
DEFECT_DEPTH = 100


def _slope(rng: random.Random, q: int | None = None) -> Fraction:
    return Fraction(rng.randint(1, 9), q or rng.randint(1, 7))


def _surd(rng: random.Random, d: int | None = None) -> tuple:
    a = Fraction(rng.randint(0, 5), rng.randint(1, 3))
    b = Fraction(rng.randint(1, 3), rng.randint(1, 2))
    return (a, b, d or rng.choice(RADICANDS))


def _moves(lam: tuple, lamp: tuple) -> list[tuple]:
    moves = [(0, 1, -1, 0), (0, -1, 1, 0)]
    if lam[1] == 0:
        f = lam[0]
        moves += [(f.denominator, -f.numerator, 0, 0), (-f.denominator, f.numerator, 0, 0)]
    if lamp[1] == 0:
        f = lamp[0]
        moves += [(0, 0, f.denominator, -f.numerator), (0, 0, -f.denominator, f.numerator)]
    return moves


def _walk(rng: random.Random, w: tuple, moves: list, steps: int) -> tuple:
    for _ in range(steps):
        m = rng.choice(moves)
        nxt = tuple(x + dx for x, dx in zip(w, m))
        if min(nxt) >= 0:
            w = nxt
    return w


def _qmul(x: tuple, y: tuple) -> tuple:
    """Product of a + b*sqrt(d) numbers over one radicand (or rationals)."""
    d = x[2] or y[2]
    return (x[0] * y[0] + x[1] * y[1] * d, x[0] * y[1] + x[1] * y[0], d)


def _qadd(x: tuple, y: tuple) -> tuple:
    return (x[0] + y[0], x[1] + y[1], x[2] or y[2])


def _tensor_value(w: tuple, lam: tuple, lamp: tuple) -> tuple:
    """(a*lam + b)*lamp + c*lamp + d for witnesses (a, b) (x) (c, d)."""
    a, b, c, d = w
    left = _qadd(_qmul((Fraction(a), Fraction(0), 0), lam), (Fraction(b), Fraction(0), 0))
    right = _qadd(_qmul((Fraction(c), Fraction(0), 0), lamp), (Fraction(d), Fraction(0), 0))
    return orc.canonical(_qadd(_qmul(left, lamp), right))


def _scalar(ts, x: tuple):
    return ts.ExactScalar(x[0], x[1], x[2])


def build(seed: int, ts) -> list[Op]:
    rng = random.Random(seed)
    ops: list[Op] = []
    # denominators, bounds, depths and radicands come from fixed grids, so
    # every seed asks for about the same work; the seed picks the rest
    for i in range(BLOCKS):
        block = [
            _re_op(rng, ts, same=(j % 2 == 0), q=(1 + (i + j) % 7, 1 + (3 * i + 2 * j) % 7),
                   bound=16 + (i + 3 * j) % 17)
            for j in range(RE_PER_BLOCK)
        ]
        block.append(_re_op(rng, ts, same=(i % 2 == 0), q=None, bound=16 + (5 * i) % 17))
        lam = (_slope(rng, 1 + i % 7), Fraction(0), 0)
        lamp = (_slope(rng, 1 + (3 * i + 1) % 7), Fraction(0), 0)
        block += _compose_ops(rng, ts, lam, lamp)
        if i % 2 == 0:
            two = (Fraction(0), Fraction(1), 2)
            other = two if i % 4 == 0 else (Fraction(0), Fraction(1), 3)
            block += _compose_ops(rng, ts, two, other)
        d = RADICANDS[i % len(RADICANDS)]
        block.append(_convergents_op(ts, _surd(rng, d), DEPTHS[i % len(DEPTHS)]))
        block.append(_approximate_op(rng, ts, _surd(rng, d), DEPTHS[(i + 3) % len(DEPTHS)]))
        block.append(_evaluate_op(rng, ts, _surd(rng, d)))
        block += [_iso_op(rng, ts) for _ in range(ISO_PER_BLOCK)]
        rng.shuffle(block)
        ops.extend(block)
    return ops


def _re_op(rng: random.Random, ts, same: bool, q: tuple | None, bound: int) -> Op:
    """A rational pair with denominators ``q``, or sqrt(d) x sqrt(d) for None."""
    if q is not None:
        lam, lamp = (_slope(rng, q[0]), Fraction(0), 0), (_slope(rng, q[1]), Fraction(0), 0)
    else:
        d = rng.choice((2, 3, 5))
        lam = lamp = (Fraction(0), Fraction(1), d)
    w1 = tuple(rng.randint(0, 6) for _ in range(4))
    if same:
        w2 = _walk(rng, w1, _moves(lam, lamp), rng.randint(1, 6))
    else:
        w2 = tuple(rng.randint(0, 6) for _ in range(4))
    L, R = _scalar(ts, lam), _scalar(ts, lamp)
    t1 = ts.SimpleTensor.from_witnesses(L, R, w1[:2], w1[2:])
    t2 = ts.SimpleTensor.from_witnesses(L, R, w2[:2], w2[2:])
    v1, v2 = _tensor_value(w1, lam, lamp), _tensor_value(w2, lam, lamp)

    def check(verdict):
        if verdict.equivalent:
            return v1 == v2 and not verdict.inconclusive and verdict.power >= 1
        return verdict.power is None

    def count(verdict, tr):
        tr.count("compose.reduced_equiv.verdicts")
        tr.count("compose.reduced_equiv.decided", not verdict.inconclusive)

    return Op("compose.reduced_equiv", lambda: ts.reduced_equiv(t1, t2, L, R, bound), check,
              count, decided=lambda verdict: not verdict.inconclusive)


def _case(lam: tuple, lamp: tuple) -> tuple[str, bool, tuple]:
    if lam[1] and lamp[1] and lam[2] != lamp[2]:  # pure radicals over two radicands
        rho = (Fraction(0), lam[1] * lamp[1], lam[2] * lamp[2])
    else:
        rho = orc.canonical(_qmul(lam, lamp))
    if lam[1] == 0 and lamp[1] == 0:
        return "rational-rational", False, rho
    if rho[1] != 0:
        return "product-irrational", False, rho
    return "irrational-pair-rational-product", True, rho


def _compose_ops(rng: random.Random, ts, lam: tuple, lamp: tuple) -> list[Op]:
    L, R = _scalar(ts, lam), _scalar(ts, lamp)
    case, deformed, rho = _case(lam, lamp)
    bound = rng.randint(16, 32)
    prepared = ts.compose(L, R)

    def compose_check(res):
        if orc.canonical(orc.surd_value(res.rho)) != orc.canonical(rho):
            return False
        if res.case != case or res.deformed != deformed:
            return False
        if rho[1] == 0:
            return tuple(map(tuple, res.witnesses)) == ((rho[0].denominator, 0), (0, rho[0].numerator))
        return res.witnesses == ()

    def verify_check(checks):
        if checks["case"] != case or not isinstance(checks["ok"], bool):
            return False
        rewrite = checks.get("rewrite")
        if rewrite is not None and rewrite["equivalent"]:
            if deformed:
                return False
            # the two witness tensors (q, 0) (x) (0, 0) and (0, 0) (x) (0, p) share a value
            q, p = rho[0].denominator, rho[0].numerator
            return _tensor_value((q, 0, 0, 0), lam, lamp) == _tensor_value((0, 0, 0, p), lam, lamp)
        return True

    def verify_count(checks, tr):
        tr.count("compose.verify_composition.verdicts")
        tr.count("compose.verify_composition.ok", checks["ok"])

    return [
        Op("compose.compose", lambda: ts.compose(L, R), compose_check),
        Op("compose.verify_composition",
           lambda: ts.verify_composition(prepared, L, R, bound=bound), verify_check,
           verify_count, decided=lambda checks: checks["ok"]),
    ]


def _check_convergents(x: tuple, fracs: list, depth: int) -> bool:
    if len(fracs) != depth:  # a quadratic irrational never terminates
        return False
    a, b, d = x
    p0 = fracs[0]
    if p0.denominator != 1 or not (
        orc.surd_sign(a - p0, b, d) >= 0 > orc.surd_sign(a - p0 - 1, b, d)
    ):
        return False
    dens = [f.denominator for f in fracs]
    if any(q1 >= q2 for q1, q2 in zip(dens[1:], dens[2:])):
        return False
    return all(orc.is_convergent(x, f.numerator, f.denominator) for f in fracs)


def _convergents_op(ts, x: tuple, depth: int) -> Op:
    X = _scalar(ts, x)

    def count(fracs, tr):
        tr.peak("correspondence.convergents.depth", len(fracs))
        last = fracs[-1]
        tr.peak("correspondence.convergents.max_bits",
                max(last.numerator.bit_length(), last.denominator.bit_length()))

    return Op("correspondence.convergents", lambda: ts.convergents(X, depth),
              lambda fracs: _check_convergents(x, fracs, depth), count)


def _surd_min(values: list[tuple]) -> tuple:
    best = values[0]
    for v in values[1:]:
        if orc.surd_sign(v[0] - best[0], v[1] - best[1], best[2] or v[2]) < 0:
            best = v
    return best


def _approximate_op(rng: random.Random, ts, x: tuple, depth: int) -> Op:
    X = _scalar(ts, x)
    k = rng.randint(2, 6)
    E = ts.HereditarySet(strict_staircase(rng, k))
    gens = E.generators
    true_alpha = _surd_min([(x[0] * a + b, x[1] * a, x[2]) for a, b in gens])

    def check(steps):
        if len(steps) != depth:
            return False
        if not _check_convergents(x, [s.convergent for s in steps], depth):
            return False
        for s in steps:
            if s.alpha != orc.weighted_min(gens, s.convergent):
                return False
            ba, bb, bd = orc.surd_value(s.bound)
            d = bd or x[2]
            diff_a, diff_b = s.alpha - true_alpha[0], -true_alpha[1]
            if orc.surd_sign(ba - diff_a, bb - diff_b, d) < 0:
                return False
            if orc.surd_sign(ba + diff_a, bb + diff_b, d) < 0:
                return False
        return True

    return Op("correspondence.approximate", lambda: ts.approximate(X, E, depth), check)


def _evaluate_op(rng: random.Random, ts, x: tuple) -> Op:
    X = _scalar(ts, x)
    E = ts.HereditarySet(strict_staircase(rng, rng.randint(20, 100)))
    gens = E.generators

    def check(elem):
        if elem.witness not in gens:
            return False
        a, b = elem.witness
        alpha = orc.surd_value(elem.alpha)
        if orc.canonical(alpha) != orc.canonical((x[0] * a + b, x[1] * a, x[2])):
            return False
        return all(
            orc.surd_sign(x[0] * ga + gb - alpha[0], x[1] * ga - alpha[1], x[2]) >= 0
            for ga, gb in gens
        )

    return Op("correspondence.evaluate", lambda: ts.evaluate(E, X), check)


def _iso_op(rng: random.Random, ts) -> Op:
    l1 = _surd(rng) if rng.random() < 0.5 else (_slope(rng), Fraction(0), 0)
    kind = rng.randrange(3)
    if kind == 0:
        l2 = l1
    elif kind == 1:
        l2 = orc.reciprocal(l1)
    else:
        l2 = _surd(rng) if rng.random() < 0.5 else (_slope(rng), Fraction(0), 0)
    expect = orc.canonical(l2) in (orc.canonical(l1), orc.canonical(orc.reciprocal(l1)))
    A, B = _scalar(ts, l1), _scalar(ts, l2)
    return Op("correspondence.iso_equivalent", lambda: ts.iso_equivalent(A, B),
              lambda out: out is expect)


@contextlib.contextmanager
def instrument(tracer):
    """Record the calls ``verify_composition`` and ``reduced_equiv`` make
    through the compose module: inner decisions and the powers tried."""
    mod = importlib.import_module("tropsquare.compose")
    plain_re, plain_rw = mod.reduced_equiv, mod.rewrite_equiv
    traced_re = tracer.wrap("compose.reduced_equiv", plain_re)

    def counted_re(*args, **kwargs):
        verdict = traced_re(*args, **kwargs)
        tracer.count("compose.reduced_equiv.verdicts")
        tracer.count("compose.reduced_equiv.decided", not verdict.inconclusive)
        return verdict

    mod.reduced_equiv = counted_re
    mod.rewrite_equiv = tracer.wrap("compose.rewrite_equiv", plain_rw)
    try:
        yield
    finally:
        mod.reduced_equiv, mod.rewrite_equiv = plain_re, plain_rw


def _defect_probes(seed: int, ts) -> list[Op]:
    rng = random.Random(seed ^ 0x5EED)
    probes = []
    for _ in range(DEFECT_PROBES):
        a, b, d = _surd(rng)
        x = (a + 10**400, b, d)
        probes.append(_convergents_op(ts, x, DEFECT_DEPTH))
    return probes


def known_defects(seed: int, ts) -> dict:
    """Surds beyond float range: today ``convergents`` raises on each."""
    raised = wrong = 0
    for op in _defect_probes(seed, ts):
        try:
            out = op.call()
        except OverflowError:
            raised += 1
            continue
        wrong += not op.check(out)
    return {"huge_surd_probes": DEFECT_PROBES, "raised": raised, "wrong": wrong}


def probe(tracer, seed: int, ts) -> None:
    found = known_defects(seed, ts)
    tracer.count("correspondence.convergents.probes", found["huge_surd_probes"])
    tracer.count("correspondence.convergents.raised", found["raised"])
