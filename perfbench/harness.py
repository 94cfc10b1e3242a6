"""Closed-loop runner, span tracer and set-up timing shared by all workloads.

One client in one process, no extra threads: every operation starts only
after the previous one, and its output check, have finished.  Latency is
the wall time of the call alone; the check runs outside it.  A workload's
schedule is one pass; the loop repeats passes until its time is up.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from array import array
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 60


@dataclass
class Op:
    """One operation: a call into the program plus its independent check.

    ``span`` names the layer function the call lands in.  ``decided`` is set
    only on decision queries and tells whether the answer was definite.
    """

    span: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    count: Callable[[Any, "Tracer"], None] | None = None
    decided: Callable[[Any], bool] | None = None


class Tracer:
    """In-memory spans (name, start, end, parent, operation id) and counters."""

    def __init__(self):
        self._ids: dict[str, int] = {}
        self.names: list[str] = []
        self.name = array("l")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.op_id = -1
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)

    def begin(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        begin, finish = self.begin, self.finish

        def traced(*args, **kwargs):
            idx = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(idx)

        return traced

    def count(self, key: str, n: float = 1) -> None:
        self.counters[key] += n

    def peak(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima[key], value)

    def summary(self) -> dict:
        """Per span name: calls, inclusive busy time, self time, durations.

        ``root_s`` covers top-level spans recorded inside the operation loop
        (operation id >= 0), for comparing with the loop's wall time.
        """
        n = len(self.name)
        child = [0.0] * n
        dur = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        per: dict[str, dict] = {}
        root_s = 0.0
        for i in range(n):
            name = self.names[self.name[i]]
            rec = per.get(name)
            if rec is None:
                rec = per[name] = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "durs": []}
            rec["calls"] += 1
            rec["busy_s"] += dur[i]
            rec["self_s"] += dur[i] - child[i]
            rec["durs"].append(dur[i])
            if self.parent[i] < 0 and self.op[i] >= 0:
                root_s += dur[i]
        return {"spans": per, "root_s": root_s, "count": n}

    def write(self, path: Path) -> None:
        """Dump every span as tab-separated text, times relative to the first."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if len(self.start) else 0.0
        rows = ["span\top\tparent\tname\tstart_s\tend_s"]
        for i in range(len(self.name)):
            rows.append(
                f"{i}\t{self.op[i]}\t{self.parent[i]}\t{self.names[self.name[i]]}\t"
                f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}"
            )
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")


# -- machine speed reference -----------------------------------------------------


def reference_kernel() -> int:
    """Fixed pure-Python work shaped like the package's: a sort of 2,000
    pairs with a staircase filter over them, Fraction sums and big-integer
    division, about a millisecond.  Nothing in it calls the package."""
    pairs = sorted(((i * 7919) % 10007, (i * 104729) % 10009) for i in range(2000))
    kept, best = 0, None
    for _, b in pairs:
        if best is None or b < best:
            kept, best = kept + 1, b
    acc = Fraction(0)
    for i in range(1, 50):
        acc += Fraction(i, i + 7)
    return kept + acc.denominator % 7 + (3**1000 // 7**200) % 11


class SpeedReference:
    """Samples ``reference_kernel`` while the loop runs and rescales times.

    The machine's speed drifts by a factor of up to two over seconds to
    minutes when other tenants load it, which no statistic inside one run
    removes.  Times measured in this process are therefore reported in
    reference seconds: multiplied by ``KERNEL_REF_S`` over the median
    kernel time sampled within ``WINDOW_S`` of the measurement.  Child
    processes do not follow this process's speed, so their times stay raw.
    The raw figures go to the details line next to the result.
    """

    KERNEL_REF_S = 0.0009  # kernel time on a quiet 2-vCPU x86-64 machine, Python 3.11
    EVERY_S = 0.1  # the drift also has sub-second structure: sample often,
    WINDOW_S = 0.3  # and scale each time by the samples close to it

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        reference_kernel()
        t1 = time.perf_counter()
        self.at.append(t1)
        self.took.append(t1 - t0)

    def due(self) -> bool:
        return not self.at or time.perf_counter() - self.at[-1] >= self.EVERY_S

    def factor(self, t: float) -> float:
        lo = bisect_left(self.at, t - self.WINDOW_S)
        hi = bisect_left(self.at, t + self.WINDOW_S)
        window = self.took[lo:hi] or self.took[max(0, lo - 1):lo + 1]
        return self.KERNEL_REF_S / statistics.median(window)


class Stats:
    """What the operation loop measured, accumulated over one or more loops.

    Latencies are kept raw with their end times and rescaled by
    ``finish``.  Throughput is taken per completed pass and reported as
    the median over passes, which follows the speed the run mostly had.
    """

    def __init__(self):
        self.raw: list[float] = []
        self.stamps: list[float] = []
        self.pass_ends: list[int] = []
        self.latencies: list[float] = []
        self.pass_rates: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.busy_s = 0.0
        self.wall_s = 0.0
        self.decision_queries = 0
        self.decided = 0

    def finish(self, ref: SpeedReference | None) -> None:
        """Rescale every latency to reference seconds (unless ``ref`` is
        None); rate each pass."""
        if ref is None:
            self.latencies = list(self.raw)
        else:
            self.latencies = [x * ref.factor(t) for x, t in zip(self.raw, self.stamps)]
        ok_share = (self.attempted - self.failed) / self.attempted
        start = 0
        self.pass_rates = []
        for end in self.pass_ends:
            self.pass_rates.append(ok_share * (end - start) / sum(self.latencies[start:end]))
            start = end
        if not self.pass_rates:
            self.pass_rates.append(ok_share * len(self.latencies) / sum(self.latencies))

    def ops_per_s(self) -> float:
        """Median over passes of successful operations per reference second."""
        return statistics.median(self.pass_rates)

    def raw_ops_per_s(self) -> float:
        return (self.attempted - self.failed) / self.busy_s


def run_loop(ops: list[Op], stats: Stats, ref: SpeedReference, seconds: float,
             passes: int | None = None, tracer: Tracer | None = None) -> None:
    """Run ops in schedule order, pass after pass, until ``seconds`` of call time.

    With ``passes`` the loop stops after that many passes (a fixed amount
    of work), or earlier if ``seconds`` runs out.  ``decided`` and
    ``decision_queries`` count the first pass into ``stats`` only, so they
    are fixed by the seed and not by how fast the loop ran.
    """
    first_pass = stats.attempted == 0
    busy = 0.0
    i = 0
    wall0 = time.perf_counter()
    while busy < seconds and (passes is None or i < passes * len(ops)):
        if ref.due():
            ref.sample()
        op = ops[i % len(ops)]
        if tracer is not None:
            tracer.op_id = stats.attempted
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = op.call()
            else:
                idx = tracer.begin(op.span)
                try:
                    out = op.call()
                finally:
                    tracer.finish(idx)
            raised = False
        except Exception:  # a raising operation is a failed one, not a crash
            out, raised = None, True
        t1 = time.perf_counter()
        busy += t1 - t0
        stats.raw.append(t1 - t0)
        stats.stamps.append(t1)
        stats.attempted += 1
        ok = not raised and _safe_check(op, out)
        if not ok:
            stats.failed += 1
        if op.decided is not None and first_pass and i < len(ops):
            stats.decision_queries += 1
            stats.decided += ok and op.decided(out)
        if ok and tracer is not None and op.count is not None:
            op.count(out, tracer)
        i += 1
        if i % len(ops) == 0:
            stats.pass_ends.append(len(stats.raw))
    ref.sample()
    stats.busy_s += busy
    stats.wall_s += time.perf_counter() - wall0


def _safe_check(op: Op, out) -> bool:
    try:
        return bool(op.check(out))
    except Exception:  # a check that cannot even read the output is a mismatch
        return False


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value."""
    s = sorted(latencies)
    n = len(s)
    if n <= 10:
        return 100.0 * (n - 1) / n if n else 0.0, s[-1] if s else 0.0
    return 100.0 * (n - 10) / n, s[n - 11]


# -- child processes -----------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args: list[str], env: dict) -> subprocess.CompletedProcess:
    """Run one child interpreter to completion (it is killed and reaped on timeout)."""
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
        timeout=CHILD_TIMEOUT_S,
    )


# The child times its import first, then the speed kernel: nothing the
# kernel loads may be imported before the timed import.
_SETUP_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import tropsquare\n"
    "{extra}"
    "took = time.perf_counter() - t\n"
    "import statistics\n"
    "from perfbench.harness import reference_kernel\n"
    "ks = []\n"
    "for _ in range(5):\n"
    "    t = time.perf_counter()\n"
    "    reference_kernel()\n"
    "    ks.append(time.perf_counter() - t)\n"
    "print(repr(took), repr(statistics.median(ks)))\n"
)


def setup_seconds(with_instances: bool, repeats: int, env: dict) -> tuple[float, float]:
    """Median time of a fresh ``import tropsquare`` (plus the registry),
    measured inside the child: in reference seconds, scaled by the kernel
    timed in the same child, and raw."""
    code = _SETUP_CODE.format(extra="tropsquare.standard_instances()\n" if with_instances else "")
    scaled, raw = [], []
    for _ in range(repeats):
        proc = run_child(["-c", code], env)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.decode(errors='replace')}")
        took, kernel = map(float, proc.stdout.decode().split())
        raw.append(took)
        scaled.append(took * SpeedReference.KERNEL_REF_S / kernel)
    return statistics.median(scaled), statistics.median(raw)

