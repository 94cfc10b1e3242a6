"""Tensor composition: normal forms, rewriting, and the three-case law."""

import random
from fractions import Fraction

import pytest
from helpers import bfs_rewrite_equiv

from tropsquare import (
    GermExponent,
    IncompatibleRadicals,
    NotGenerated,
    SimpleTensor,
    as_scalar,
    compose,
    germ_evaluate,
    normal_form,
    reduced_equiv,
    rewrite_equiv,
    surd,
    tensor_power,
    verify_composition,
    witness_tensor,
)

S2, S3 = surd(2), surd(3)
HALF, THREEQ = as_scalar(Fraction(1, 2)), as_scalar(Fraction(3, 4))


# -- normal form -----------------------------------------------------------------


def test_normal_form_frozen():
    lam, lamp = as_scalar(2), HALF
    t = SimpleTensor.from_witnesses(lam, lamp, (1, 2), (0, 0))
    nf = normal_form(t, lam, lamp)
    assert nf.left.witness == (1, 0) and nf.left.alpha == 2
    assert nf.right.witness == (2, 0) and nf.right.alpha == 1
    assert normal_form(nf, lam, lamp) == nf
    t2 = SimpleTensor.from_witnesses(lam, lamp, (0, 0), (3, 1))
    assert normal_form(t2, lam, lamp) == t2


def test_normal_form_preserves_class():
    rng = random.Random(64)
    for lam, lamp in ((HALF, THREEQ), (as_scalar(2), HALF)):
        for _ in range(50):
            t = SimpleTensor.from_witnesses(
                lam,
                lamp,
                (rng.randint(0, 5), rng.randint(0, 5)),
                (rng.randint(0, 5), rng.randint(0, 5)),
            )
            nf = normal_form(t, lam, lamp)
            assert rewrite_equiv(t, nf, lam, lamp, bound=32).equivalent


# -- germ evaluation ----------------------------------------------------------------


def test_germ_evaluate_frozen():
    assert germ_evaluate(witness_tensor(S2, S2, (1, 0)), S2, S2) == GermExponent(2, 2, 2)
    assert germ_evaluate(witness_tensor(S2, S2, (0, 2)), S2, S2) == GermExponent(2, 0, 0)
    assert germ_evaluate(witness_tensor(S2, S2, (0, 0)), S2, S2) == GermExponent(0, 0, 0)


def test_germ_evaluate_rejects_middle_component():
    t = SimpleTensor.from_witnesses(S2, S3, (0, 1), (0, 0))
    with pytest.raises(NotGenerated):
        germ_evaluate(t, S2, S3)


def test_composed_action_exponents():
    # the composed left generator scales by the product slope, the right by one
    for lam, lamp in ((S2, S3), (HALF, THREEQ)):
        rho = lam * lamp
        for n in range(5):
            assert germ_evaluate(witness_tensor(lam, lamp, (n, 0)), lam, lamp).base == n * rho
            assert germ_evaluate(witness_tensor(lam, lamp, (0, n)), lam, lamp).base == n


# -- rewriting ------------------------------------------------------------------------


def test_rewrite_frozen_rational_identification():
    lam, lamp = as_scalar(2), HALF
    t1 = SimpleTensor.from_witnesses(lam, lamp, (0, 2), (0, 0))  # left value 2
    t2 = SimpleTensor.from_witnesses(lam, lamp, (0, 0), (0, 1))  # right value 1
    verdict = rewrite_equiv(t1, t2, lam, lamp, bound=16)
    assert verdict.equivalent and not verdict.inconclusive


def test_rewrite_frozen_irrational_separation():
    t1 = witness_tensor(S2, S2, (1, 0))
    t2 = witness_tensor(S2, S2, (0, 2))
    for bound in (4, 16, 64):
        verdict = rewrite_equiv(t1, t2, S2, S2, bound)
        assert not verdict.equivalent and not verdict.inconclusive


def test_rewrite_reflexive_and_zero():
    t = SimpleTensor.from_witnesses(S2, S3, (1, 2), (3, 4))
    assert rewrite_equiv(t, t, S2, S3, 8).equivalent
    zero = SimpleTensor(t.left, type(t.right).zero())
    assert rewrite_equiv(zero, zero, S2, S3, 8).equivalent
    assert not rewrite_equiv(zero, t, S2, S3, 8).equivalent


def test_rewrite_sound_on_random_walks():
    # states reached by legal moves are always identified within the walk bound
    rng = random.Random(7)
    lam, lamp = HALF, THREEQ
    n1, m1 = 1, 2
    n2, m2 = 3, 4
    for _ in range(60):
        state = [rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 6)]
        start = tuple(state)
        for _ in range(rng.randint(1, 8)):
            moves = [
                (m1, -n1, 0, 0),
                (-m1, n1, 0, 0),
                (0, 1, -1, 0),
                (0, -1, 1, 0),
                (0, 0, m2, -n2),
                (0, 0, -m2, n2),
            ]
            rng.shuffle(moves)
            for d in moves:
                nxt = [state[i] + d[i] for i in range(4)]
                if min(nxt) >= 0 and max(nxt) <= 24:
                    state = nxt
                    break
        t1 = SimpleTensor.from_witnesses(lam, lamp, start[:2], start[2:])
        t2 = SimpleTensor.from_witnesses(lam, lamp, state[:2], state[2:])
        assert rewrite_equiv(t1, t2, lam, lamp, bound=24).equivalent
        # the product-slope evaluation is invariant along the walk
        a, b, c, d = start
        e, f, g, h = state
        rho = lam * lamp
        assert a * rho + (b + c) * lamp + d == e * rho + (f + g) * lamp + h


def test_rewrite_decides_past_the_bound():
    # the witness (0, 2) is past bound 1, which limits nothing
    lam, lamp = as_scalar(2), HALF
    t1 = SimpleTensor.from_witnesses(lam, lamp, (0, 2), (0, 0))
    t2 = SimpleTensor.from_witnesses(lam, lamp, (0, 0), (0, 1))
    verdict = rewrite_equiv(t1, t2, lam, lamp, bound=1)
    assert verdict.equivalent and not verdict.inconclusive
    for decide in (rewrite_equiv, reduced_equiv):
        with pytest.raises(ValueError):
            decide(t1, t2, lam, lamp, bound=0)


# -- composition law -------------------------------------------------------------------


@pytest.mark.parametrize(
    "lam,lamp",
    [
        (Fraction(1, 2), Fraction(3, 4)),
        (Fraction(1, 2), Fraction(1, 3)),
        (Fraction(2, 3), Fraction(3, 4)),
        (Fraction(3, 2), Fraction(4, 3)),
        (Fraction(5, 6), Fraction(2, 5)),
    ],
)
def test_rational_value_collisions_identified_after_reduction(lam, lamp):
    lam, lamp = as_scalar(lam), as_scalar(lamp)
    rho = (lam * lamp).as_fraction()
    by_value = {}
    for a in range(9):
        for d in range(9):
            by_value.setdefault(a * rho + d, []).append((a, d))
    groups = [pts for pts in by_value.values() if len(pts) > 1]
    assert groups, "slope pair picked for this test must collide somewhere"
    for pts in groups:
        for w1, w2 in zip(pts, pts[1:]):
            verdict = reduced_equiv(
                witness_tensor(lam, lamp, w1),
                witness_tensor(lam, lamp, w2),
                lam,
                lamp,
                bound=96,
            )
            assert verdict.equivalent, (lam, lamp, w1, w2)


def test_collision_may_need_a_power_to_merge():
    # at slopes 3/2 and 4/3 the collision (1,0) ~ (0,2) is invisible to
    # direct chains (the start state admits no move at all) but the
    # squares are chain-equal, which certifies equality after reduction
    lam, lamp = as_scalar(Fraction(3, 2)), as_scalar(Fraction(4, 3))
    t1, t2 = witness_tensor(lam, lamp, (1, 0)), witness_tensor(lam, lamp, (0, 2))
    direct = rewrite_equiv(t1, t2, lam, lamp, 64)
    assert not direct.equivalent and not direct.inconclusive
    reduced = reduced_equiv(t1, t2, lam, lamp, 64)
    assert reduced.equivalent and reduced.power == 2


def test_reduced_equiv_accepts_bound_one():
    # ``bound`` must be at least 1; 1 itself is allowed and limits nothing
    lam, lamp = as_scalar(Fraction(3, 2)), as_scalar(Fraction(4, 3))
    t1, t2 = witness_tensor(lam, lamp, (1, 0)), witness_tensor(lam, lamp, (0, 2))
    assert reduced_equiv(t1, t2, lam, lamp, bound=1) == reduced_equiv(t1, t2, lam, lamp)
    with pytest.raises(ValueError):
        reduced_equiv(t1, t2, lam, lamp, bound=0)


def test_no_power_merges_the_deformed_witness():
    t1, t2 = witness_tensor(S2, S2, (1, 0)), witness_tensor(S2, S2, (0, 2))
    for k in (1, 2, 3, 4):
        verdict = rewrite_equiv(
            tensor_power(t1, k, S2, S2), tensor_power(t2, k, S2, S2), S2, S2, 64
        )
        assert not verdict.equivalent and not verdict.inconclusive
    reduced = reduced_equiv(t1, t2, S2, S2, 64, max_power=4)
    assert not reduced.equivalent and not reduced.inconclusive


def test_rewrite_never_merges_distinct_values():
    # the product-slope evaluation separates classes, so tensors with
    # different evaluations must never be identified at any bound
    rng = random.Random(12)
    for lam, lamp in ((HALF, THREEQ), (as_scalar(2), HALF), (S2, S2)):
        rho = lam * lamp
        for _ in range(40):
            p1 = (rng.randint(0, 6), rng.randint(0, 6))
            p2 = (rng.randint(0, 6), rng.randint(0, 6))
            if p1[0] * rho + p1[1] == p2[0] * rho + p2[1]:
                continue
            verdict = rewrite_equiv(
                witness_tensor(lam, lamp, p1),
                witness_tensor(lam, lamp, p2),
                lam,
                lamp,
                bound=24,
            )
            assert not verdict.equivalent


# -- exact decision against the bounded search -------------------------------------


def _moves(lam, lamp):
    moves = [(0, 1, -1, 0), (0, -1, 1, 0)]
    if lam.is_rational:
        f = lam.as_fraction()
        moves += [(f.denominator, -f.numerator, 0, 0), (-f.denominator, f.numerator, 0, 0)]
    if lamp.is_rational:
        f = lamp.as_fraction()
        moves += [(0, 0, f.denominator, -f.numerator), (0, 0, -f.denominator, f.numerator)]
    return moves


def _walk(rng, state, moves, steps):
    for _ in range(steps):
        legal = [[s + m for s, m in zip(state, mv)] for mv in moves]
        legal = [n for n in legal if min(n) >= 0]
        if not legal:
            break
        state = rng.choice(legal)
    return state


def _oracle_reduced(t1, t2, lam, lamp, bound, max_power):
    """Least power the bounded search certifies, and whether every power
    below it (or every power, when none does) was decided."""
    for k in range(1, max_power + 1):
        verdict = bfs_rewrite_equiv(
            tensor_power(t1, k, lam, lamp), tensor_power(t2, k, lam, lamp), lam, lamp, bound
        )
        if verdict.equivalent:
            return k, True
        if verdict.inconclusive:
            return None, False
    return None, True


_ORACLE_PAIRS = [
    (HALF, THREEQ),
    (as_scalar(2), HALF),
    (as_scalar(Fraction(3, 2)), as_scalar(Fraction(4, 3))),
    (as_scalar(Fraction(5, 6)), as_scalar(Fraction(2, 5))),
    (HALF, S2),
    (S3, as_scalar(Fraction(5, 7))),
    (as_scalar(Fraction(3, 2)), surd(5)),
    (S2, S2),
    (S3, S3),
    (surd(5), surd(5)),
]


@pytest.mark.parametrize("lam,lamp", _ORACLE_PAIRS)
def test_exact_decision_agrees_with_bounded_search(lam, lamp):
    rng = random.Random(f"{lam}|{lamp}")
    moves = _moves(lam, lamp)
    max_power = (
        lam.as_fraction().denominator * lamp.as_fraction().denominator
        if lam.is_rational and lamp.is_rational
        else 1
    )
    pairs = []
    for i in range(40):
        w1 = [rng.randint(0, 6) for _ in range(4)]
        w2 = _walk(rng, w1, moves, rng.randint(1, 6)) if i % 2 else [rng.randint(0, 6) for _ in range(4)]
        pairs.append((w1, w2))
    # generated-part collisions, some of which need a power to merge
    points = [(a, d) for a in range(7) for d in range(7)]
    pairs += [([a, 0, 0, d], [e, 0, 0, h]) for (a, d) in points for (e, h) in points
              if (a, d) < (e, h) and a * lam * lamp + d == e * lam * lamp + h]
    tally = {"rewrite": 0, "reduced": 0, "merged": 0, "separated": 0}
    for w1, w2 in pairs:
        t1 = SimpleTensor.from_witnesses(lam, lamp, w1[:2], w1[2:])
        t2 = SimpleTensor.from_witnesses(lam, lamp, w2[:2], w2[2:])
        direct = rewrite_equiv(t1, t2, lam, lamp)
        reduced = reduced_equiv(t1, t2, lam, lamp)
        assert not direct.inconclusive and not reduced.inconclusive
        oracle = bfs_rewrite_equiv(t1, t2, lam, lamp, bound=24)
        if not oracle.inconclusive:
            tally["rewrite"] += 1
            assert direct.equivalent == oracle.equivalent, (w1, w2)
        power, conclusive = _oracle_reduced(t1, t2, lam, lamp, 24, max_power)
        if conclusive:
            tally["reduced"] += 1
            assert reduced.power == power, (w1, w2)
        assert reduced.equivalent == (reduced.power is not None)
        tally["merged" if reduced.equivalent else "separated"] += 1
        if lam.is_rational or lamp.is_rational:
            v1 = (w1[0] * lam + w1[1] + w1[2]) * lamp + w1[3]
            v2 = (w2[0] * lam + w2[1] + w2[2]) * lamp + w2[3]
            assert reduced.equivalent == (v1 == v2), (w1, w2)
    # the comparison is not vacuous: both verdicts occur and most pairs are checked
    assert tally["merged"] and tally["separated"]
    assert min(tally["rewrite"], tally["reduced"]) >= len(pairs) // 4, tally


def test_compose_three_cases_frozen():
    res = compose(Fraction(1, 2), Fraction(3, 4))
    assert (res.rho, res.deformed, res.case) == (
        as_scalar(Fraction(3, 8)),
        False,
        "rational-rational",
    )
    res = compose(S2, S3)
    assert (res.rho, res.deformed, res.case) == (surd(6), False, "product-irrational")
    res = compose(S2, S2)
    assert (res.rho, res.deformed, res.case) == (as_scalar(2), True, "irrational-pair-rational-product")
    assert res.witnesses == ((1, 0), (0, 2))


def test_compose_mixed_inputs_are_product_irrational():
    for pair in ((Fraction(1, 2), S2), (S3, Fraction(5, 7))):
        res = compose(*pair)
        assert res.case == "product-irrational" and not res.deformed


def test_compose_incompatible_radicals():
    with pytest.raises(IncompatibleRadicals):
        compose(1 + S2, 1 + S3)


def test_compose_reciprocal_surd_deforms():
    res = compose(S2, S2 / 2)  # product exactly 1
    assert res.rho == as_scalar(1) and res.deformed
    assert res.witnesses == ((1, 0), (0, 1))


def test_verify_composition_all_cases():
    for pair in ((HALF, THREEQ), (S2, S3), (S2, S2), (as_scalar(2), as_scalar(3))):
        res = compose(*pair)
        report = verify_composition(res, *pair, bound=64)
        assert report["ok"], report


def test_deformation_commutes_at_germ_level():
    # thickening before or after an undeformed slope gives the same germs
    from tropsquare import deformation_left, deformation_right, germ_add

    for n, m in ((1, 0), (0, 3), (2, 2)):
        pre = germ_add(deformation_left(n), deformation_right(m))
        post = germ_add(deformation_right(m), deformation_left(n))
        assert pre == post
