#!/usr/bin/env python3
"""Benchmark of graphburning: one workload, one seed, one run.

Run from the repository root:

    python3 perfbench/run.py --workload path-z --seed 1 --seconds 30 --trace 0

A pass runs the workload's tasks one after another, each in a fresh Python
process (see worker.py), so exactly one process does work at a time.  Passes
repeat while the next one would still end within `--seconds`, with a floor
of MIN_PASSES.  Untraced runs report the end-to-end metrics of BENCHMARK.json as
medians over passes.  Traced runs (`--trace 1`) alternate untraced and traced
passes: the traced ones give the per-layer metrics, and the pair gives
`trace.overhead_pct`.  Times are scaled to nominal host speed with a
reference kernel timed around each task (see REFERENCE_NOMINAL_S);
the unscaled medians are printed beside them.  Every metric is printed by
name with its unit; the
last line of standard output is the JSON result.  Raw per-pass numbers, run
metadata and, for the first traced pass, the spans go to `.bench_out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

# Nominal time of worker._reference_s().  A pass's times are scaled by this
# over the kernel's median time around its tasks: seconds at nominal host speed.
REFERENCE_NOMINAL_S = 0.035
MIN_PASSES = 3  # untraced run
MIN_TRACED_RUN_PASSES = 4  # traced run: two untraced and two traced, alternating
RUN_BUDGET_S = 170  # a run must exit within 180 s


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def git_commit(root: str) -> str:
    """HEAD's commit read from .git, or "unknown" outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_task(task: dict, deadline: float) -> dict:
    """Run one task in its own process; set-up and failures are measured here."""
    spawn_ns = time.monotonic_ns()
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), json.dumps(task)],
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"attempted": 1, "failed": 1, "errors": ["task timed out"], "timed_out": True}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {}
    if proc.returncode != 0 or "ready_ns" not in result:
        reason = result.get("fatal") or proc.stderr.strip()[-500:] or f"exit {proc.returncode}"
        return {"attempted": 1, "failed": 1, "errors": [reason], "fatal": "fatal" in result}
    result["setup_s"] = (result.pop("ready_ns") - spawn_ns) / 1e9
    return result


def run_pass(workload: str, common: dict, traced: bool, spans_prefix: str | None,
             deadline: float) -> dict:
    results = []
    for i, task in enumerate(workloads.tasks(workload)):
        spec = dict(task, **common, trace=int(traced))
        if spans_prefix:
            spec["spans_path"] = f"{spans_prefix}-task{i}.spans.json"
        results.append(run_task(spec, deadline))
        if results[-1].get("timed_out") or results[-1].get("fatal"):
            break
    ok = [r for r in results if "latencies_ms" in r]
    # One host-speed factor per pass, from every reference run of its tasks.
    reference = statistics.median([x for r in ok for x in r["reference_s"]]
                                  or [REFERENCE_NOMINAL_S])
    scale = REFERENCE_NOMINAL_S / reference
    for r in ok:
        if r.get("layers"):
            r["layers"]["self_ms"] = {k: v * scale for k, v in r["layers"]["self_ms"].items()}
    raw_latencies = [x for r in ok for x in r["latencies_ms"]]
    latencies = [x * scale for x in raw_latencies]
    # Inclusive: with the three latencies of a CLI pass, the exclusive
    # method would extrapolate past the largest one.
    deciles = (statistics.quantiles(latencies, n=10, method="inclusive")
               if len(latencies) > 1 else [sum(latencies)] * 9)
    return {
        "traced": traced,
        "complete": len(ok) == len(results) == len(workloads.tasks(workload)),
        "reference_s": reference,
        "wall_s": sum(latencies) / 1e3,
        "setup_s": sum(r["setup_s"] for r in ok) * scale,
        "raw_wall_s": sum(raw_latencies) / 1e3,
        "raw_setup_s": sum(r["setup_s"] for r in ok),
        "peak_rss_mib": max((r["peak_rss_mib"] for r in ok), default=0.0),
        "graphs": len(latencies),
        "graph_p50_ms": deciles[4],
        "graph_p90_ms": deciles[8],
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "errors": [e for r in results for e in r["errors"]],
        "layers": [r["layers"] for r in ok if r.get("layers")],
        "fatal": any(r.get("fatal") or r.get("timed_out") for r in results),
    }


def run_passes(workload: str, trace: bool, common: dict, seconds: float,
               spans_prefix: str, deadline: float) -> list[dict]:
    """Passes for `seconds`; a traced run alternates untraced and traced ones."""
    wanted = MIN_TRACED_RUN_PASSES if trace else MIN_PASSES
    measure_start = time.monotonic()
    passes: list[dict] = []
    while True:
        traced = trace and len(passes) % 2 == 1
        start = time.monotonic()
        passes.append(run_pass(workload, common, traced,
                               spans_prefix if traced and len(passes) == 1 else None,
                               deadline))
        passes[-1].update(start=start, end=time.monotonic())
        if passes[-1]["fatal"]:
            return passes
        elapsed = time.monotonic() - measure_start
        # The longest pass so far bounds the next one, so a run ends by `seconds`.
        longest = max(p["end"] - p["start"] for p in passes)
        if elapsed + longest > seconds and len(passes) >= wanted:
            return passes
        if time.monotonic() + longest > deadline:
            return passes


def layer_metrics(layers: list[dict]) -> dict:
    """Per-layer metric values of one pass, summed over its processes."""
    out: dict = {}
    for task in layers:
        for key, ms in task["self_ms"].items():
            out[key + "_ms"] = out.get(key + "_ms", 0.0) + ms
        for key, n in task["calls"].items():
            out[key + "_calls"] = out.get(key + "_calls", 0) + n
        for key, n in task["counts"].items():
            out[key] = out.get(key, 0) + n
    out["exactlinalg.field_rank_calls"] = (out.get("exactlinalg.field_rank_q_calls", 0)
                                           + out.get("exactlinalg.field_rank_fp_calls", 0))
    burnings, generators = out.get("burning.burnings", 0), out.get("complexes.generators", 0)
    out["burning.source_set_yield"] = out.get("burning.source_sets", 0) / burnings if burnings else 0.0
    out["complexes.facet_yield"] = out.get("complexes.facets", 0) / generators if generators else 0.0
    return out


def spread(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "graphburning", "__init__.py")):
        return fail(f"no graphburning sources under {src}; run from the repository root")
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    started = time.monotonic()
    deadline = started + RUN_BUDGET_S
    common = {"src": src, "seed": args.seed}
    # Warm-up: compiles the package's bytecode and proves it imports from src/.
    probe = run_task(dict(kind="probe", **common, trace=0), deadline)
    if "latencies_ms" not in probe:
        return fail(f"the program does not run: {probe['errors']}")

    measure_start = time.monotonic()
    passes = run_passes(args.workload, bool(args.trace), common, seconds,
                        os.path.join(out_dir, tag), deadline)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    plain = [p for p in passes if not p["traced"] and p["complete"]]
    traced_passes = [p for p in passes if p["traced"] and p["complete"]]
    if not plain or (args.trace and not traced_passes):
        for p in passes:
            for e in p["errors"][:5]:
                print(f"error: {e}", file=sys.stderr)
        return fail("no complete pass")

    samples = {entry["name"]: [p[entry["name"]] for p in plain] for entry in bench["end_to_end"]}
    e2e = {name: statistics.median(v) for name, v in samples.items()}

    per_layer: dict = {}
    absent: set[str] = set()
    if traced_passes:
        per_pass = [layer_metrics(p["layers"]) for p in traced_passes]
        for entry in bench["per_layer"]:
            name = entry["name"]
            per_layer[name] = statistics.median(m.get(name, 0) for m in per_pass)
        wall_traced = statistics.median(p["wall_s"] for p in traced_passes)
        per_layer["trace.overhead_pct"] = (wall_traced / e2e["wall_s"] - 1) * 100
        for p in traced_passes:
            for task in p["layers"]:
                absent.update(task["absent"])
                absent.update("count of " + k for k in task["uncounted"])

    meta = {
        "workload": args.workload, "seed": args.seed, "default_seed": workloads.DEFAULT_SEED,
        "trace": args.trace, "run_seconds": seconds,
        "python": platform.python_version(), "implementation": platform.python_implementation(),
        "platform": platform.platform(), "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(root),
        "passes": len(plain), "traced_passes": len(traced_passes),
        "graphs_per_pass": plain[0]["graphs"],
        "measure_s": round(time.monotonic() - measure_start, 3),
        "reference_nominal_s": REFERENCE_NOMINAL_S,
        "reference_median_s": statistics.median(p["reference_s"] for p in plain),
    }
    print(f"# graphburning benchmark  workload={args.workload}  seed={args.seed} "
          f"(default {workloads.DEFAULT_SEED})  trace={args.trace}")
    print(f"# python {meta['python']}  {meta['platform']}  nproc {meta['nproc']}  "
          f"commit {meta['commit']}")
    print(f"# {meta['passes']} untraced passes, {meta['traced_passes']} traced passes, "
          f"{meta['graphs_per_pass']} per-graph latency samples per pass")
    print(f"# reference kernel median {meta['reference_median_s'] * 1e3:.2f} ms, nominal "
          f"{REFERENCE_NOMINAL_S * 1e3:.0f} ms; times below are scaled to nominal host speed")
    for entry in bench["end_to_end"]:
        name = entry["name"]
        q1, q3 = spread(samples[name])
        detail = f"  (median of {len(samples[name])} passes, quartiles {q1:.4g}..{q3:.4g})"
        if "raw_" + name in plain[0]:
            raw = statistics.median(p["raw_" + name] for p in plain)
            detail += f"  unscaled {raw:.4g}"
        print(f"{name} = {e2e[name]:.6g} {entry['unit']}{detail}")
    print(f"error_rate = {failed / attempted if attempted else 1:.6g} ratio  "
          f"({failed} of {attempted} operations failed or wrong)")
    for entry in bench["per_layer"] if per_layer else ():
        print(f"{entry['name']} = {per_layer[entry['name']]:.6g} {entry['unit']}")
    if absent:
        print(f"# absent from this commit (reported as 0): {', '.join(sorted(absent))}")
    if per_layer:
        timed = {k: v for k, v in per_layer.items() if k.endswith("_ms")}
        top = max(timed, key=timed.get)
        print(f"# dominant layer by self time: {top} ({timed[top]:.1f} ms per pass)")
    errors = [e for p in passes for e in p["errors"]]
    for e in errors[:10]:
        print(f"error: {e}", file=sys.stderr)

    metrics = per_layer if args.trace else e2e
    defs = bench["per_layer"] if args.trace else bench["end_to_end"]
    record = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]}
                          for d in defs}}
    with open(os.path.join(out_dir, tag + ".json"), "w") as fh:
        json.dump({"meta": meta, "result": record, "end_to_end": e2e, "per_layer": per_layer,
                   "passes": [{k: v for k, v in p.items() if k != "layers"} for p in passes],
                   "layers": [p["layers"] for p in traced_passes], "errors": errors[:100]},
                  fh, indent=1)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
