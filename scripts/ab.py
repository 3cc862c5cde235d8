#!/usr/bin/env python3
"""Compare a git ref with the working tree on one benchmark workload, interleaved.

    python3 scripts/ab.py HEAD --workload sum-burn --pairs 10 --seconds 8

Side A is `<ref>`, extracted with `git archive` (which leaves `.git` alone);
side B is the working tree, as its tracked and unignored untracked files on
disk.  Both go into sibling temporary directories of the same name length,
since the benchmark's peak RSS moves with the checkout's directory alone.
Each pair runs each tree's own `perfbench/run.py --workload W --seconds S`
once, A first in even pairs and B first in odd ones, so a slow spell of the
machine lands on both sides (Kalibera and Jones, "Rigorous benchmarking in
reasonable time", ISMM 2013).

For each end-to-end metric of the working tree's BENCHMARK.json the report
gives each side's median and quartiles over the pairs, the number of pairs
the working tree won (ties count for neither), and a verdict: `gain` when
there are at least ten pairs, B won at least nine tenths of them and B's
median beats A's by more than A's interquartile range q3 - q1, else `-`.
The script exits 1 if any run reports output that is not `correct`, and 2
if a run fails.  It only runs the benchmark: neither tree's `perfbench/` nor
`BENCHMARK.json` is edited, and the temporary directories are deleted.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def git(*args: str) -> bytes:
    done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True)
    if done.returncode != 0:
        fail(f"git {args[0]}: {done.stderr.decode().strip()}")
    return done.stdout


def extract_ref(ref: str, dest: Path) -> None:
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=git("archive", ref), check=True)


def copy_working_tree(dest: Path) -> None:
    for name in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split(b"\0"):
        source = ROOT / name.decode()
        if source.is_file():  # a tracked file deleted on disk is left out
            target = dest / name.decode()
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(source, target)


def run_bench(tree: Path, workload: str, seconds: float) -> dict:
    """One `perfbench/run.py` run in `tree`: its final JSON record."""
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seconds", str(seconds)], cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"the benchmark failed in {tree.name}: {done.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(a: list[float], b: list[float], won: int, sign: int) -> str:
    """`gain` if B's win is one a claim may rest on, else `-`."""
    q1, q3 = quartiles(a)
    lead = sign * (statistics.median(a) - statistics.median(b))
    return "gain" if len(a) >= 10 and 10 * won >= 9 * len(a) and lead > q3 - q1 else "-"


def report(ref: str, workload: str, seconds: float, metrics: list[dict],
           runs: list[tuple[dict, dict]]) -> None:
    print(f"# A = {ref}, B = working tree; --workload {workload} "
          f"--pairs {len(runs)} --seconds {seconds:g}")
    print(f"{'metric':<14} {'unit':<5} {'A median (q1..q3)':<28} "
          f"{'B median (q1..q3)':<28} {'B won':<6} verdict")
    for metric in metrics:
        name = metric["name"]
        a = [pair[0]["metrics"][name]["value"] for pair in runs]
        b = [pair[1]["metrics"][name]["value"] for pair in runs]
        sign = 1 if metric["better"] == "lower" else -1
        won = sum(sign * (y - x) < 0 for x, y in zip(a, b))
        sides = [f"{statistics.median(v):.4g} ({'..'.join(f'{q:.4g}' for q in quartiles(v))})"
                 for v in (a, b)]
        print(f"{name:<14} {metric['unit']:<5} {sides[0]:<28} {sides[1]:<28} "
              f"{f'{won}/{len(runs)}':<6} {verdict(a, b, won, sign)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="the git ref of side A, e.g. HEAD")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=8.0)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    with tempfile.TemporaryDirectory(prefix="graphburning-ab-") as tmp:
        a, b = Path(tmp, "a"), Path(tmp, "b")
        extract_ref(args.ref, a)
        copy_working_tree(b)
        runs = []
        for i in range(args.pairs):
            order = (a, b) if i % 2 == 0 else (b, a)
            result = {tree: run_bench(tree, args.workload, args.seconds) for tree in order}
            runs.append((result[a], result[b]))
    report(args.ref, args.workload, args.seconds, metrics, runs)
    correct = sum(side["correct"] is True for pair in runs for side in pair)
    print(f"correct runs: {correct} of {2 * len(runs)}")
    return 0 if correct == 2 * len(runs) else 1


if __name__ == "__main__":
    sys.exit(main())
