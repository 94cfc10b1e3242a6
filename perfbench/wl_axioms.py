"""Workload ``axioms``: the property harness users run (``tropsquare axioms``).

One operation is one ``axiom_suite(sr, CHUNK, seed_i)`` call, round-robin
over all standard instances, with ``seed_i`` drawn from the benchmark
seed.  Elements here are tiny (up-sets of at most 4 generators with
coordinates at most 9), so the time goes to germ and correspondence-value
arithmetic in the scalar tower, not to staircase products.
"""

from __future__ import annotations

import contextlib
import dataclasses
import random

from harness import Op

CHUNK = 100  # iterations per suite call
ROUNDS = 6  # rounds over all instances in one pass
LAWS = 10

# which layer span each instance's add/mul land in; others are builtins
_OP_SPANS = {
    "identity-germs": ("scalars.germ_min", "scalars.germ_add"),
    "hereditary-square": ("hereditary.add", "hereditary.mul"),
    "newton-polygons": ("polygon.add", "polygon.mul"),
}

_active: dict = {}


def build(seed: int, ts) -> list[Op]:
    rng = random.Random(seed)
    instances = ts.standard_instances()
    _active.clear()
    _active.update(instances)
    ops = []
    for _ in range(ROUNDS):
        for name in instances:
            ops.append(_op(name, rng.randrange(2**32), ts))
    return ops


def _op(name: str, seed_i: int, ts) -> Op:
    def check(report):
        return (
            report.instance == name
            and report.iterations == CHUNK
            and len(report.results) == LAWS
            and all(r.passed for r in report.results)
        )

    def count(report, tr):
        tr.count("semiring.laws_checked", LAWS * report.iterations)

    return Op("semiring.axiom_suite", lambda: ts.axiom_suite(_active[name], CHUNK, seed_i),
              check, count)


@contextlib.contextmanager
def instrument(tracer):
    """Swap in ``dataclasses.replace`` copies whose callables record spans."""
    plain = dict(_active)
    for name, sr in plain.items():
        if name in _OP_SPANS:
            add_span, mul_span = _OP_SPANS[name]
        elif name.startswith("correspondence["):
            add_span = mul_span = "correspondence.value_semiring"
        else:
            add_span = mul_span = None
        fields = {
            "sample": tracer.wrap("semiring.sample", sr.sample),
            "eq": tracer.wrap("semiring.eq", sr.eq),
        }
        if add_span is not None:
            fields["add"] = tracer.wrap(add_span, sr.add)
            fields["mul"] = tracer.wrap(mul_span, sr.mul)
        _active[name] = dataclasses.replace(sr, **fields)
    try:
        yield
    finally:
        _active.update(plain)
