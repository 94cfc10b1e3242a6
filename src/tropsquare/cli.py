"""Command-line front end: JSON in, JSON (or SVG) out.

Exit codes: 0 on success, 1 on a domain error (with a machine-readable
error object on stdout) or a failed ``compose`` verification (with the
full result on stdout), 2 on malformed input or usage errors.

Slope arguments use the compact scalar syntax: ``p/q`` for rationals,
``sqrt:d`` or ``a+b*sqrt:d`` for quadratic surds.

Sizes whose cost grows without bound are capped here, at the CLI
boundary only (the library stays unlimited); a value over its cap is a
``LimitExceeded`` domain error, raised before any work.
"""

from __future__ import annotations

import argparse
import json
import operator
import sys
from fractions import Fraction

from .compose import compose as compose_slopes, verify_composition
from .correspondence import (
    approximate,
    evaluate,
    iso_equivalent,
    iso_invariant,
    lambda_to_json,
)
from .errors import DomainError, LimitExceeded
from .figure import ALL_LAYERS, FigureSpec, emit_figure
from .hereditary import HereditarySet
from .instances import standard_instances
from .polygon import NewtonPolygon, convex_closure
from .scalars import (
    _SURD_RE,
    format_scalar_spec,
    inf_or,
    parse_scalar_spec,
    rational_to_json,
    scalar_to_json,
)
from .semigroup import conductor, gaps, represents
from .semiring import axiom_suite


# ``hereditary rasterize`` and ``figure`` emit window**2 cells
MAX_WINDOW = 1000
# ``approx`` convergents grow linearly in bit-length, so its output grows
# quadratically with depth
MAX_DEPTH = 1000
# ``semigroup --gaps`` lists (n-1)(m-1)/2 naturals
MAX_GAPS_CONDUCTOR = 10**6
# a slope's radicand ``d`` is made squarefree by trial division up to
# sqrt(d); 10**12 + 39 takes about 0.2 s
MAX_RADICAND = 10**12


class MalformedInput(Exception):
    pass


def _check_limit(name: str, value: int, limit: int) -> None:
    if value > limit:
        raise LimitExceeded(f"{name} {value} exceeds the CLI limit {limit}")


def _read_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, RecursionError, json.JSONDecodeError) as exc:
        # RecursionError: nesting deeper than the decoder's recursion limit
        raise MalformedInput(f"{path}: {exc}") from exc


def _load(cls, path: str):
    """A ``HereditarySet`` or ``NewtonPolygon`` read from a JSON file."""
    try:
        return cls.from_json(_read_json(path))
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInput(f"{path}: {exc}") from exc


def _parse_slope(text: str | None):
    if text is None:
        raise MalformedInput("missing slope argument")
    m = _SURD_RE.match(text.strip())
    if m:
        _check_limit("radicand", int(m.group("d")), MAX_RADICAND)
    try:
        return parse_scalar_spec(text)
    except ValueError as exc:
        raise MalformedInput(str(exc)) from exc
    except ZeroDivisionError as exc:
        raise MalformedInput(f"zero denominator in {text!r}") from exc


def _parse_fraction(text: str | None) -> Fraction:
    if text is None:
        raise MalformedInput("missing rational argument")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise MalformedInput(f"bad rational {text!r}") from exc


def _emit(obj) -> int:
    print(json.dumps(obj))
    return 0


# -- handlers ---------------------------------------------------------------


def _binary(cls, op):
    """Handler of ``add`` or ``mul``: ``op`` of the ``cls`` files ``--lhs``, ``--rhs``."""
    return lambda args: op(_load(cls, args.lhs), _load(cls, args.rhs)).to_json()


def _weighted_degree(args) -> dict:
    alpha = _load(HereditarySet, args.input).weighted_degree(_parse_fraction(args.r))
    return {"alpha": inf_or(alpha, rational_to_json)}


def _rasterize(args) -> dict:
    e = _load(HereditarySet, args.input)
    _check_limit("--window", args.window, MAX_WINDOW)
    rows = [list(map(int, row)) for row in e.rasterize(args.window)]
    return {"window": args.window, "rows": rows}


def _support(args) -> dict:
    poly = _load(NewtonPolygon, args.input)
    wx, wy = _parse_slope(args.x), _parse_slope(args.y)
    return {"value": inf_or(poly.support(wx, wy), scalar_to_json)}


# the ops of ``hereditary`` and ``newton``: their argparse choices, in order
_HEREDITARY_OPS = {
    "canonicalize": lambda args: _load(HereditarySet, args.input).to_json(),
    "add": _binary(HereditarySet, operator.add),
    "mul": _binary(HereditarySet, operator.mul),
    "scale": lambda args: _load(HereditarySet, args.input).scale(args.n, args.m).to_json(),
    "degree": lambda args: {"exponent": inf_or(_load(HereditarySet, args.input).min_degree(), int)},
    "weighted-degree": _weighted_degree,
    "rasterize": _rasterize,
}
_NEWTON_OPS = {
    "hull": lambda args: convex_closure(_load(HereditarySet, args.input)).to_json(),
    "add": _binary(NewtonPolygon, operator.add),
    "mul": _binary(NewtonPolygon, operator.mul),
    "support": _support,
}


def _cmd_op(args) -> int:
    return _emit(args.ops[args.op](args))


def _cmd_semigroup(args) -> int:
    out = {"n": args.n, "m": args.m, "conductor": conductor(args.n, args.m)}
    if args.gaps:
        _check_limit("conductor", out["conductor"], MAX_GAPS_CONDUCTOR)
    if args.check is not None:
        out["check"] = args.check
        out["represents"] = represents(args.n, args.m, args.check)
    if args.gaps:
        out["gaps"] = gaps(args.n, args.m)
    return _emit(out)


def _cmd_eval(args) -> int:
    lam = _parse_slope(args.lam)
    elem = evaluate(_load(HereditarySet, args.input), lam)
    return _emit({"lambda": lambda_to_json(lam), **elem.to_json()})


def _cmd_iso(args) -> int:
    l1, l2 = _parse_slope(args.l1), _parse_slope(args.l2)
    return _emit(
        {
            "isomorphic": iso_equivalent(l1, l2),
            "invariant": [format_scalar_spec(iso_invariant(l1)), format_scalar_spec(iso_invariant(l2))],
        }
    )


def _cmd_approx(args) -> int:
    _check_limit("--depth", args.depth, MAX_DEPTH)
    lam = _parse_slope(args.lam)
    steps = approximate(lam, _load(HereditarySet, args.input), args.depth)
    return _emit(
        {
            "lambda": lambda_to_json(lam),
            "steps": [s.to_json() for s in steps],
        }
    )


def _cmd_compose(args) -> int:
    if args.verify_bound is not None and args.verify_bound < 1:
        # the library checks the bound only on the way to a rational product
        raise MalformedInput(f"--verify-bound must be at least 1, got {args.verify_bound}")
    left, right = _parse_slope(args.left), _parse_slope(args.right)
    result = compose_slopes(left, right)
    out = result.to_json()
    ok = True
    if args.verify_bound is not None:
        out["verification"] = verify_composition(
            result, left, right, bound=args.verify_bound
        )
        ok = out["verification"]["ok"]
    _emit(out)
    return 0 if ok else 1


def _cmd_axioms(args) -> int:
    if args.iters < 1:
        # zero iterations would report every law as passed
        raise MalformedInput(f"--iters must be at least 1, got {args.iters}")
    registry = standard_instances()
    if args.instance is not None:
        if args.instance not in registry:
            raise MalformedInput(
                f"unknown instance {args.instance!r}; choose from {sorted(registry)}"
            )
        registry = {args.instance: registry[args.instance]}
    reports = [
        axiom_suite(sr, args.iters, args.seed).to_json() for sr in registry.values()
    ]
    return _emit({"iterations": args.iters, "seed": args.seed, "reports": reports})


def _cmd_figure(args) -> int:
    _check_limit("--window", args.window, MAX_WINDOW)
    region = _load(HereditarySet, args.input)
    lam = _parse_slope(args.lam) if args.lam is not None else None
    if args.layers is None:
        layers = ALL_LAYERS
    else:
        layers = frozenset(s.strip() for s in args.layers.split(",") if s.strip())
        if layers - ALL_LAYERS:
            raise MalformedInput(f"unknown layers: {sorted(layers - ALL_LAYERS)}")
    svg = emit_figure(FigureSpec(region=region, lam=lam, window=args.window, layers=layers))
    if args.out == "-":
        sys.stdout.write(svg)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(svg)
    return 0


# -- parser -----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tropsquare",
        description="Exact min-plus algebra on the lattice square.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hereditary", help="up-set operations")
    p.add_argument("op", choices=list(_HEREDITARY_OPS))
    p.add_argument("--input", help="up-set JSON file")
    p.add_argument("--lhs")
    p.add_argument("--rhs")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--r", help="weight as p/q")
    p.add_argument("--window", type=int, default=10)
    p.set_defaults(handler=_cmd_op, ops=_HEREDITARY_OPS)

    p = sub.add_parser("newton", help="polygon operations")
    p.add_argument("op", choices=list(_NEWTON_OPS))
    p.add_argument("--input")
    p.add_argument("--lhs")
    p.add_argument("--rhs")
    p.add_argument("--x", help="first support weight (scalar spec)")
    p.add_argument("--y", help="second support weight (scalar spec)")
    p.set_defaults(handler=_cmd_op, ops=_NEWTON_OPS)

    p = sub.add_parser("semigroup", help="two-generator numerical semigroup")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--check", type=int)
    p.add_argument("--gaps", action="store_true")
    p.set_defaults(handler=_cmd_semigroup)

    p = sub.add_parser("eval", help="sloped evaluation of an up-set")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--input", required=True)
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("iso", help="isomorphism test for two slopes")
    p.add_argument("--l1", required=True)
    p.add_argument("--l2", required=True)
    p.set_defaults(handler=_cmd_iso)

    p = sub.add_parser("approx", help="convergent approximation of an irrational slope")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--input", required=True)
    p.set_defaults(handler=_cmd_approx)

    p = sub.add_parser("compose", help="compose two sloped correspondences")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--verify-bound", type=int)
    p.set_defaults(handler=_cmd_compose)

    p = sub.add_parser("axioms", help="randomized semiring law suite")
    p.add_argument("--iters", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instance")
    p.set_defaults(handler=_cmd_axioms)

    p = sub.add_parser("figure", help="SVG rendering of an up-set")
    p.add_argument("--input", required=True)
    p.add_argument("--lambda", dest="lam")
    p.add_argument("--window", type=int, default=10)
    p.add_argument("--layers", help="comma-separated subset of region,hull,mu_line,lambda_line")
    p.add_argument("--out", default="-")
    p.set_defaults(handler=_cmd_figure)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except MalformedInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}))
        return 1
    except ValueError as exc:
        print(json.dumps({"error": {"type": "ValueError", "message": str(exc)}}))
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
