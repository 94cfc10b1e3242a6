"""Micro-benchmark of the scalar tower.

    python3 tools/scalar_microbench.py

Run from the root of a checkout; the package is imported from ``src/``.
Prints one line per operation with its cost in nanoseconds: construct
(the public ``ExactScalar`` constructor), add, mul, compare (``<``),
floor and ``germ_add``.  Each row times a loop over 64 seeded operand
pairs (half rational, half over ``sqrt(2)``) with ``timeit`` and reports
the fastest of five runs divided by the number of operations, so
the figure includes the loop's own small overhead.  The ``_int`` rows
(add, mul, ``==``) time 64 pairs of integral scalars, the whole-number
exponents that germs and correspondence values are made of.
"""

from __future__ import annotations

import random
import sys
import timeit
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tropsquare import ExactScalar, GermExponent, germ_add  # noqa: E402

PAIRS = 64
REPEAT = 5


def _part(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-99, 99), rng.randint(1, 12))


def _operands():
    rng = random.Random(1)
    # both sides of pair k lie over sqrt(2) for even k and are rational for odd k
    parts = [(_part(rng), _part(rng), 2 if i % 4 < 2 else 0) for i in range(2 * PAIRS)]
    scalars = [ExactScalar(a, b, d) for a, b, d in parts]
    pairs = list(zip(scalars[0::2], scalars[1::2]))
    germs = []
    for _ in range(2 * PAIRS):
        base = rng.randint(0, 12)
        sm = rng.randint(0, base)
        germs.append(GermExponent(base, rng.randint(0, sm), sm))
    ints = [ExactScalar(rng.randint(0, 24)) for _ in range(2 * PAIRS)]
    int_pairs = list(zip(ints[0::2], ints[1::2]))
    return parts, pairs, list(zip(germs[0::2], germs[1::2])), scalars, int_pairs


ROWS = {
    "construct": "for a, b, d in parts: ExactScalar(a, b, d)",
    "add": "for x, y in pairs: x + y",
    "mul": "for x, y in pairs: x * y",
    "compare": "for x, y in pairs: x < y",
    "floor": "for x in scalars: x.floor()",
    "germ_add": "for g, h in germs: germ_add(g, h)",
    "add_int": "for x, y in int_pairs: x + y",
    "mul_int": "for x, y in int_pairs: x * y",
    "eq_int": "for x, y in int_pairs: x == y",
}


def measure() -> dict[str, float]:
    parts, pairs, germs, scalars, int_pairs = _operands()
    env = {
        "ExactScalar": ExactScalar, "germ_add": germ_add,
        "parts": parts, "pairs": pairs, "germs": germs, "scalars": scalars,
        "int_pairs": int_pairs,
    }
    sizes = {"construct": len(parts), "floor": len(scalars)}
    out = {}
    for name, stmt in ROWS.items():
        timer = timeit.Timer(stmt, globals=env)
        number, _ = timer.autorange()
        best = min(timer.repeat(repeat=REPEAT, number=number))
        out[name] = best / (number * sizes.get(name, PAIRS)) * 1e9
    return out


def main() -> int:
    for name, ns in measure().items():
        print(f"{name:<10} {ns:10.0f} ns/op")
    return 0


if __name__ == "__main__":
    sys.exit(main())
