"""Every public value class pickles, copies and refuses mutation."""

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest

from tropsquare import (
    BOOLEAN,
    INF,
    ZERO_GERM,
    CorrespondenceElement,
    ExactScalar,
    FigureSpec,
    GermExponent,
    HereditarySet,
    NewtonPolygon,
    ReducedVerdict,
    RewriteVerdict,
    SimpleTensor,
    approximate,
    axiom_suite,
    compose,
    surd,
)

E = HereditarySet([(0, 8), (2, 5), (5, 3), (7, 0)])
REPORT = axiom_suite(BOOLEAN, 5, seed=1)

# one value of each of the 14 public value classes, plus the two zeros
VALUES = {
    "ExactScalar": surd(2, Fraction(1, 3)) + Fraction(1, 2),
    "GermExponent": GermExponent(3, 1, 2),
    "CorrespondenceElement": CorrespondenceElement.from_witness(surd(2), 2, 3),
    "HereditarySet": E,
    "NewtonPolygon": NewtonPolygon(E.generators),
    "SimpleTensor": SimpleTensor.from_witnesses(surd(2), surd(3), (1, 2), (3, 4)),
    "RewriteVerdict": RewriteVerdict(True, False),
    "ReducedVerdict": ReducedVerdict(True, False, 2),
    "ComposedResult": compose(surd(2), surd(8)),
    "ApproxStep": approximate(surd(2), E, 3)[-1],
    "Semiring": BOOLEAN,
    "LawResult": REPORT.results[0],
    "SuiteReport": REPORT,
    "FigureSpec": FigureSpec(region=E, lam=surd(2)),
    "INF": INF,
    "ZERO_GERM": ZERO_GERM,
}

COPIERS = [
    *(
        (lambda v, p=p: pickle.loads(pickle.dumps(v, protocol=p)))
        for p in range(pickle.HIGHEST_PROTOCOL + 1)
    ),
    copy.copy,
    copy.deepcopy,
]


@pytest.mark.parametrize("name", VALUES)
def test_value_round_trips(name):
    v = VALUES[name]
    for i, copy_of in enumerate(COPIERS):
        w = copy_of(v)
        assert type(w) is type(v), (name, i)
        assert w == v and hash(w) == hash(v), (name, i)
        assert getattr(w, "is_zero", None) == getattr(v, "is_zero", None), (name, i)


@pytest.mark.parametrize("name", VALUES)
def test_value_refuses_mutation(name):
    v = VALUES[name]
    if v is not INF:
        cls = type(v)
        assert dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen
    attr = dataclasses.fields(v)[0].name if v is not INF else "value"
    with pytest.raises(AttributeError):
        setattr(v, attr, 0)
    with pytest.raises(AttributeError):
        delattr(v, attr)
