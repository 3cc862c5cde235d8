#!/usr/bin/env python3
"""Compare a git ref with the working tree on a benchmark workload or ladder rungs, interleaved.

    python3 scripts/ab.py HEAD --workload sum-burn --pairs 10 --seconds 8
    python3 scripts/ab.py HEAD --rungs P20,10xP2 --pairs 10

Side A is `<ref>`, extracted with `git archive` (which leaves `.git` alone);
side B is the working tree, as its tracked and unignored untracked files on
disk.  Both go into sibling temporary directories of the same name length,
since the benchmark's peak RSS moves with the checkout's directory alone.
Each pair runs each tree's own `perfbench/run.py --workload W --seconds S`
once, A first in even pairs and B first in odd ones, so a slow spell of the
machine lands on both sides (Kalibera and Jones, "Rigorous benchmarking in
reasonable time", ISMM 2013).  With `--rungs`, a pair instead runs, for each
named rung of `scripts/ladder.py`, each tree's own `ladder.measure_rung` in
a fresh interpreter, in the same alternation.

For each end-to-end metric of the working tree's BENCHMARK.json, or for
each rung's `conf_s` and `homology_s`, the report gives each side's median
and quartiles over the pairs, the number of pairs the working tree won
(ties count for neither), and a verdict: `gain` when there are at least ten
pairs, B won at least nine tenths of them and B's median beats A's by more
than A's interquartile range q3 - q1, else `-`.  The script exits 1 if any
run reports output that is not `correct`, or if the two sides count
different source sets or facets on a rung, and 2 if a run fails.  It only
runs the benchmark and the ladder: neither tree's `perfbench/` nor
`BENCHMARK.json` is edited, and the temporary directories are deleted.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import ladder  # this script's sibling: the rung names

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


def run_rung(tree: Path, rung: str) -> dict:
    """One `measure_rung` of `tree`'s own `scripts/ladder.py`, in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(tree / "src"), str(tree / "scripts"))))
    done = subprocess.run([sys.executable, "-c", "import json, ladder; "
                           f"print(json.dumps(ladder.measure_rung({rung!r})))"],
                          cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        fail(f"rung {rung} failed in {tree.name}: {done.stderr.strip()[-500:]}")
    return json.loads(done.stdout.splitlines()[-1])


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


def report(header: str, rows: list[tuple[str, str, list[float], list[float], int]]) -> None:
    """One line per (metric, unit, A's values, B's values, 1 if lower is better else -1)."""
    print(header)
    print(f"{'metric':<18} {'unit':<5} {'A median (q1..q3)':<28} "
          f"{'B median (q1..q3)':<28} {'B won':<6} verdict")
    for name, unit, a, b, sign in rows:
        won = sum(sign * (y - x) < 0 for x, y in zip(a, b))
        sides = [f"{statistics.median(v):.4g} ({'..'.join(f'{q:.4g}' for q in quartiles(v))})"
                 for v in (a, b)]
        print(f"{name:<18} {unit:<5} {sides[0]:<28} {sides[1]:<28} "
              f"{f'{won}/{len(a)}':<6} {verdict(a, b, won, sign)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="the git ref of side A, e.g. HEAD")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload")
    mode.add_argument("--rungs", help="comma-separated ladder rungs, e.g. P20,10xP2")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=8.0, help="per workload run")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    rungs = args.rungs.split(",") if args.rungs else []
    unknown = [rung for rung in rungs if rung not in dict(ladder.RUNGS)]
    if unknown:
        parser.error(f"unknown rungs {','.join(unknown)}; known: "
                     f"{','.join(name for name, _ in ladder.RUNGS)}")
    with tempfile.TemporaryDirectory(prefix="graphburning-ab-") as tmp:
        a, b = Path(tmp, "a"), Path(tmp, "b")
        extract_ref(args.ref, a)
        copy_working_tree(b)
        runs = []
        for i in range(args.pairs):
            order = (a, b) if i % 2 == 0 else (b, a)
            if rungs:
                result = {tree: {} for tree in order}
                for rung in rungs:
                    for tree in order:
                        result[tree][rung] = run_rung(tree, rung)
            else:
                result = {tree: run_bench(tree, args.workload, args.seconds) for tree in order}
            runs.append((result[a], result[b]))
    if rungs:
        report(f"# A = {args.ref}, B = working tree; --rungs {args.rungs} --pairs {args.pairs}",
               [(f"{rung}:{key}", "s", [pair[0][rung][key] for pair in runs],
                 [pair[1][rung][key] for pair in runs], 1)
                for rung in rungs for key in ("conf_s", "homology_s")])
        equal = sum(all((pa[rung]["source_sets"], pa[rung]["facets"])
                        == (pb[rung]["source_sets"], pb[rung]["facets"]) for pa, pb in runs)
                    for rung in rungs)
        print(f"rungs with equal source sets and facets: {equal} of {len(rungs)}")
        return 0 if equal == len(rungs) else 1
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    report(f"# A = {args.ref}, B = working tree; --workload {args.workload} "
           f"--pairs {args.pairs} --seconds {args.seconds:g}",
           [(m["name"], m["unit"], [pair[0]["metrics"][m["name"]]["value"] for pair in runs],
             [pair[1]["metrics"][m["name"]]["value"] for pair in runs],
             1 if m["better"] == "lower" else -1) for m in metrics])
    correct = sum(side["correct"] is True for pair in runs for side in pair)
    print(f"correct runs: {correct} of {2 * len(runs)}")
    return 0 if correct == 2 * len(runs) else 1


if __name__ == "__main__":
    sys.exit(main())
