"""Workload ``cli``: what a scripting user pays per ``tropsquare`` call.

One operation is one ``python -m tropsquare ...`` child process over the
README command tour, timed wall to wall, one child at a time.  Inputs are
small and seeded, written as JSON files under ``perfbench/out``.  Each
child's stdout must equal what ``tropsquare.cli.main`` prints in this
process for the same arguments; the README figure must also match the
golden SVG byte for byte.  Interpreter start plus imports dominate here,
so this is where start-up work shows and nowhere else.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from math import gcd

from harness import ROOT, Op, child_env, run_child

RESCALE = False  # children do not follow the speed of the process that times them
PROBES = 5  # interpreter-only and import-only children per traced run
WORK = ROOT / "perfbench" / "out" / "cli-inputs"
GOLDEN = ROOT / "tests" / "golden" / "figure1.svg"
E4 = {"generators": [[0, 8], [2, 5], [5, 3], [7, 0]]}

_tracer = None  # set while the traced pass runs


def _small_set(rng: random.Random) -> dict:
    """A staircase of 2 to 5 generators with coordinates at most 9."""
    k = rng.randint(2, 5)
    xs = sorted(rng.sample(range(10), k))
    ys = sorted(rng.sample(range(10), k), reverse=True)
    return {"generators": [list(p) for p in zip(xs, ys)]}


def _frac(rng: random.Random) -> str:
    return f"{rng.randint(1, 9)}/{rng.randint(1, 7)}"


def _write(name: str, obj) -> str:
    path = WORK / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path.relative_to(ROOT))


def _tour(rng: random.Random, ts) -> list[list[str]]:
    e, e2 = _small_set(rng), _small_set(rng)
    E, E2 = _write("e.json", e), _write("e2.json", e2)
    H = _write("h.json", ts.convex_closure(ts.HereditarySet(e["generators"])).to_json())
    H2 = _write("h2.json", ts.convex_closure(ts.HereditarySet(e2["generators"])).to_json())
    while True:
        n, m = rng.randint(2, 9), rng.randint(2, 9)
        if gcd(n, m) == 1:
            break
    return [
        ["hereditary", "canonicalize", "--input", E],
        ["hereditary", "mul", "--lhs", E, "--rhs", E2],
        ["hereditary", "scale", "--input", E, "--n", str(n), "--m", str(m)],
        ["hereditary", "degree", "--input", E],
        ["hereditary", "weighted-degree", "--input", E, "--r", _frac(rng)],
        ["newton", "hull", "--input", E],
        ["newton", "mul", "--lhs", H, "--rhs", H2],
        ["newton", "support", "--input", H, "--x", _frac(rng), "--y", _frac(rng)],
        ["semigroup", "--n", str(n), "--m", str(m), "--check", str(rng.randint(0, 40))],
        ["semigroup", "--n", str(n), "--m", str(m), "--gaps"],
        ["eval", "--lambda", _frac(rng), "--input", E],
        ["iso", "--l1", _frac(rng), "--l2", _frac(rng)],
        ["approx", "--lambda", f"sqrt:{rng.choice((2, 3, 5, 7))}", "--depth",
         str(rng.randint(4, 8)), "--input", E],
        ["compose", "--left", "sqrt:2", "--right", rng.choice(("sqrt:2", "sqrt:3"))],
        ["compose", "--left", _frac(rng), "--right", _frac(rng),
         "--verify-bound", str(rng.randint(16, 32))],
        ["axioms", "--iters", "20", "--seed", str(rng.randrange(1000))],
        ["figure", "--input", E, "--lambda", _frac(rng), "--window", str(rng.randint(10, 12)),
         "--out", "-"],
    ]


def build(seed: int, ts) -> list[Op]:
    WORK.mkdir(parents=True, exist_ok=True)
    env = child_env()
    rng = random.Random(seed)
    golden_args = ["figure", "--input", _write("golden-e4.json", E4), "--lambda", "1/3",
                   "--window", "9", "--out", "-"]
    golden = GOLDEN.read_bytes()
    tour = _tour(rng, ts) + [golden_args]
    rng.shuffle(tour)
    return [_op(argv, env, golden if argv is golden_args else None) for argv in tour]


def _in_process(argv: list[str]) -> tuple[int, str]:
    from tropsquare import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        if _tracer is None:
            code = cli.main(argv)
        else:
            idx = _tracer.begin(f"cli.main.{argv[0]}")
            try:
                code = cli.main(argv)
            finally:
                _tracer.finish(idx)
    return code, buf.getvalue()


def _op(argv: list[str], env: dict, golden: bytes | None) -> Op:
    def check(proc):
        if proc.returncode != 0:
            return False
        code, text = _in_process(argv)
        if code != 0 or proc.stdout != text.encode("utf-8"):
            return False
        return golden is None or proc.stdout == golden

    return Op(f"cli.wall.{argv[0]}",
              lambda: run_child(["-m", "tropsquare", *argv], env), check)


@contextlib.contextmanager
def instrument(tracer):
    """Span the in-process ``main`` runs and the figure calls made inside them."""
    global _tracer
    from tropsquare import cli

    plain = cli.emit_figure

    def emit(spec):
        svg = traced(spec)
        tracer.count("figure.svgs")
        tracer.count("figure.svg_bytes", len(svg.encode("utf-8")))
        return svg

    traced = tracer.wrap("figure.emit_figure", plain)
    cli.emit_figure = emit
    _tracer = tracer
    try:
        yield
    finally:
        cli.emit_figure = plain
        _tracer = None


def probe(tracer, seed: int, ts) -> None:
    """Interpreter-only and ``import tropsquare.cli`` children, interleaved."""
    for _ in range(PROBES):
        for name, code in (("cli.interpreter", "pass"), ("cli.startup", "import tropsquare.cli")):
            idx = tracer.begin(name)
            try:
                proc = run_child(["-c", code], child_env())
            finally:
                tracer.finish(idx)
            if proc.returncode != 0:
                raise RuntimeError(f"{name} probe failed: {proc.stderr.decode(errors='replace')}")
