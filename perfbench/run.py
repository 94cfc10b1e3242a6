"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The package is imported from ``src/``
(it is not installed).  ``--trace 0`` prints the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` runs one pass of the schedule untraced
and then traced, and prints the per-layer metrics.  The last line
of standard output is the result object; the line before it holds details
that do not fit there (tail percentile, sample counts, known defects).
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import importlib
import json
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from harness import (  # noqa: E402
    ROOT, SRC, SpeedReference, Stats, Tracer, child_env, run_loop, setup_seconds, tail,
)

WORKLOADS = ("axioms", "staircase", "slopes", "cli")
SETUP_REPEATS = 11
WARMUP_S = 1.0  # untimed calls first, so lazy imports and allocator growth are done
TRACE_DIR = HERE / "out"


def _load_workload(name: str):
    return importlib.import_module(f"wl_{name}")


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def end_to_end(name: str, wl, ts, seed: int, seconds: float) -> tuple[dict, dict, Stats]:
    setup_s, setup_raw_s = setup_seconds(name == "axioms", SETUP_REPEATS, child_env())
    ops = wl.build(seed, ts)
    ref = SpeedReference()
    run_loop(ops, Stats(), ref, WARMUP_S)
    stats = Stats()
    run_loop(ops, stats, ref, seconds)
    stats.finish(ref if getattr(wl, "RESCALE", True) else None)
    pct, tail_s = tail(stats.latencies)
    values = {
        "ops_per_s": stats.ops_per_s(),
        "latency_ms_p50": statistics.median(stats.latencies) * 1000.0,
        "latency_ms_tail": tail_s * 1000.0,
        "ok_ratio": (stats.attempted - stats.failed) / stats.attempted,
        "decided_ratio": stats.decided / stats.decision_queries if stats.decision_queries else 1.0,
        "setup_s": setup_s,
        "peak_rss_mb": _peak_rss_mb(children=(name == "cli")),
    }
    details = {
        "latency_ms_tail_percentile": pct,
        "operations_timed": len(stats.latencies),
        "passes": stats.attempted / len(ops),
        "failed_ratio": stats.failed / stats.attempted,
        "decision_queries_first_pass": stats.decision_queries,
        "decided_first_pass": stats.decided,
        "raw": {
            "ops_per_s": stats.raw_ops_per_s(),
            "latency_ms_p50": statistics.median(stats.raw) * 1000.0,
            "latency_ms_tail": tail(stats.raw)[1] * 1000.0,
            "setup_s": setup_raw_s,
            "kernel_ms_median": statistics.median(ref.took) * 1000.0,
        },
        "busy_s": stats.busy_s,
        "loop_wall_s": stats.wall_s,
    }
    if hasattr(wl, "known_defects"):
        details["known_defects"] = wl.known_defects(seed, ts)
    return values, details, stats


def per_layer(name: str, wl, ts, seed: int, seconds: float) -> tuple[dict, dict, Stats]:
    """One pass untraced, then the same pass traced: a fixed amount of
    work.  Span times are raw seconds; the overhead compares rescaled rates."""
    ops = wl.build(seed, ts)
    ref = SpeedReference()
    run_loop(ops, Stats(), ref, WARMUP_S)
    plain, traced = Stats(), Stats()
    tracer = Tracer()
    instrument = getattr(wl, "instrument", contextlib.nullcontext)
    run_loop(ops, plain, ref, seconds, passes=1)
    with instrument(tracer):
        run_loop(ops, traced, ref, seconds, passes=1, tracer=tracer)
    rescale = ref if getattr(wl, "RESCALE", True) else None
    plain.finish(rescale)
    traced.finish(rescale)
    if hasattr(wl, "probe"):
        tracer.op_id = -1  # probes are not operations
        wl.probe(tracer, seed, ts)
    tracer.write(TRACE_DIR / f"trace-{name}.tsv")
    summary = tracer.summary()
    values = layer_values(summary, tracer)
    values.update({
        "trace.untraced_ops_per_s": plain.ops_per_s(),
        "trace.traced_ops_per_s": traced.ops_per_s(),
        "trace.overhead_ops_per_s": plain.ops_per_s() - traced.ops_per_s(),
        "trace.unattributed_s": traced.wall_s - summary["root_s"],
        "trace.busy_s": summary["root_s"],
        "trace.spans": summary["count"],
    })
    details = {
        "operations_traced": traced.attempted,
        "complete": traced.attempted == len(ops) and plain.attempted == len(ops),
        "trace_file": str((TRACE_DIR / f"trace-{name}.tsv").relative_to(ROOT)),
    }
    # both sides checked every output, so both count
    traced.attempted += plain.attempted
    traced.failed += plain.failed
    return values, details, traced


def layer_values(summary: dict, tracer: Tracer) -> dict:
    """Everything the spans and counters give; the caller keeps declared names."""
    spans = summary["spans"]
    out: dict[str, float] = {}
    layers: dict[str, float] = {}
    for name, rec in spans.items():
        out[f"{name}.calls"] = rec["calls"]
        out[f"{name}.busy_s"] = rec["busy_s"]
        out[f"{name}.self_s"] = rec["self_s"]
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + rec["self_s"]
        median_ms = statistics.median(rec["durs"]) * 1000.0
        if name.startswith("cli.wall."):
            out[f"cli.wall_ms.{name[len('cli.wall.'):]}"] = median_ms
        elif name.startswith("cli.main."):
            out[f"cli.main.busy_ms.{name[len('cli.main.'):]}"] = median_ms
        elif name in ("cli.interpreter", "cli.startup"):
            out[f"{name}_ms"] = median_ms
    for layer, self_s in layers.items():
        out[f"layer.{layer}.self_s"] = self_s
    c = tracer.counters

    def ratio(num: str, den: str) -> float:
        return c[num] / c[den] if c[den] else 0.0

    out["semiring.laws_checked"] = c["semiring.laws_checked"]
    out["hereditary.mul.kept_ratio"] = ratio("hereditary.mul.kept", "hereditary.mul.candidates")
    out["polygon.convex_closure.kept_ratio"] = ratio(
        "polygon.convex_closure.kept", "polygon.convex_closure.inputs")
    out["compose.reduced_equiv.decided_ratio"] = ratio(
        "compose.reduced_equiv.decided", "compose.reduced_equiv.verdicts")
    out["compose.reduced_equiv.powers_tried"] = spans.get("compose.rewrite_equiv", {}).get("calls", 0)
    out["compose.verify_composition.ok_ratio"] = ratio(
        "compose.verify_composition.ok", "compose.verify_composition.verdicts")
    out["figure.svg_bytes"] = ratio("figure.svg_bytes", "figure.svgs")
    out.update(tracer.maxima)
    out["correspondence.convergents.raised_ratio"] = ratio(
        "correspondence.convergents.raised", "correspondence.convergents.probes")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "tropsquare" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no package sources under {SRC} or no {spec_path.name}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    # warm the bytecode cache so that no one-time compile falls inside a timing
    compileall.compile_dir(str(SRC / "tropsquare"), quiet=1)
    sys.path.insert(0, str(SRC))
    import tropsquare as ts

    wl = _load_workload(args.workload)
    if args.trace:
        values, details, res = per_layer(args.workload, wl, ts, args.seed, args.seconds)
        declared = spec["per_layer"]
        metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in declared}
    else:
        values, details, res = end_to_end(args.workload, wl, ts, args.seed, args.seconds)
        declared = spec["end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace, **details}))
    print(json.dumps({
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
