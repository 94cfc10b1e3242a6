"""Capture the golden CLI transcript ``tests/golden/cli_tour.jsonl``.

    python3 tools/capture_cli_tour.py

Run from the root of a checkout; the package is imported from ``src/``.
Runs each command below in-process through ``tropsquare.cli.main`` in a
temporary directory holding the input files, and writes one JSON line
per command with its ``argv``, exit code and stdout.  The first line
holds the input files themselves, so
``tests/test_cli.py::test_cli_tour_matches_golden`` can replay the
transcript without this script.  The commands are the README tour (the
figure written to stdout) plus the empty-set cases that print ``"inf"``,
surd slopes, domain errors, and the up-set and polygon sums, hulls and
products on two 30-to-40-generator staircases whose pairwise sums share
columns.  Rerun it only when an output is meant to
change, and review the diff of the golden file.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tropsquare.cli import main  # noqa: E402

GOLDEN = ROOT / "tests" / "golden" / "cli_tour.jsonl"

# strictly decreasing second coordinates: one staircase convex, one zigzag
STAIR_A = [[i, (40 - i) ** 2 // 4] for i in range(36)]
STAIR_B = [[2 * j + j % 2, 3 * (34 - j) + j % 2] for j in range(31)]

FILES = {
    "E.json": {"generators": [[0, 8], [2, 5], [5, 3], [7, 0]]},
    "H.json": {"vertices": [[0, 8], [2, 5], [7, 0]]},
    "empty.json": {"generators": []},
    "empty_poly.json": {"vertices": []},
    "A.json": {"generators": STAIR_A},
    "B.json": {"generators": STAIR_B},
    "PA.json": {"vertices": STAIR_A},
    "PB.json": {"vertices": STAIR_B},
}

TOUR = [
    # README command tour
    "hereditary canonicalize --input E.json",
    "hereditary mul --lhs E.json --rhs E.json",
    "hereditary scale --input E.json --n 2 --m 3",
    "hereditary degree --input E.json",
    "hereditary weighted-degree --input E.json --r 1/3",
    "newton hull --input E.json",
    "newton mul --lhs H.json --rhs H.json",
    "newton support --input H.json --x 1/3 --y 1",
    "semigroup --n 3 --m 5 --check 7",
    "semigroup --n 3 --m 5 --gaps",
    "eval --lambda 1/3 --input E.json",
    "iso --l1 2/3 --l2 3/2",
    "approx --lambda sqrt:2 --depth 4 --input E.json",
    "compose --left sqrt:2 --right sqrt:2",
    "compose --left 1/2 --right 3/4 --verify-bound 64",
    "axioms --iters 1000 --seed 42",
    "figure --input E.json --lambda 1/3 --window 9 --out -",
    # empty set: every "inf" branch
    "hereditary degree --input empty.json",
    "hereditary weighted-degree --input empty.json --r 1/3",
    "eval --lambda 1/3 --input empty.json",
    "approx --lambda sqrt:2 --depth 3 --input empty.json",
    "newton support --input empty_poly.json --x 1 --y 1",
    # surd slopes and the quadratic JSON forms
    "eval --lambda sqrt:2 --input E.json",
    "eval --lambda 1+1/2*sqrt:3 --input E.json",
    "newton support --input H.json --x sqrt:2 --y 1",
    "approx --lambda 1+1/2*sqrt:3 --depth 6 --input E.json",
    "iso --l1 sqrt:2 --l2 0+1/2*sqrt:2",
    "compose --left sqrt:2 --right sqrt:3 --verify-bound 8",
    # domain errors (exit 1)
    "eval --lambda 0 --input E.json",
    "approx --lambda 3/2 --input E.json",
    # sums, hulls and products of larger staircases
    "hereditary add --lhs A.json --rhs B.json",
    "hereditary add --lhs E.json --rhs empty.json",
    "hereditary mul --lhs A.json --rhs B.json",
    "hereditary mul --lhs B.json --rhs A.json",
    "hereditary mul --lhs A.json --rhs empty.json",
    "newton hull --input A.json",
    "newton hull --input B.json",
    "newton add --lhs PA.json --rhs PB.json",
    "newton add --lhs H.json --rhs empty_poly.json",
    "newton mul --lhs PA.json --rhs PB.json",
]


def run(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue()}


def main_capture() -> None:
    lines = [json.dumps({"files": FILES})]
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, content in FILES.items():
            Path(tmp, name).write_text(json.dumps(content), encoding="utf-8")
        os.chdir(tmp)
        try:
            lines += [json.dumps(run(cmd.split())) for cmd in TOUR]
        finally:
            os.chdir(cwd)
    GOLDEN.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(TOUR)} commands to {GOLDEN.relative_to(ROOT)}")


if __name__ == "__main__":
    main_capture()
