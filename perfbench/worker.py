"""Run one benchmark task in a fresh interpreter and print one JSON line.

run.py starts this as `python3 perfbench/worker.py '<task spec as JSON>'`, one
process per task, so no cache of the package survives from one task to the
next, as with separate `graphburn` invocations.  The line it prints holds the
monotonic clock reading at which set-up (interpreter start, imports, input
construction) ended, the timed latencies, the peak RSS, the outcome of the
output checks and, when tracing, the per-layer totals.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import json
import os
import resource
import sys
import time

import spans
import workloads

LAYERS = ("cli", "graphs", "burning", "complexes", "homology", "exactlinalg")
SPAN_CAP = 20_000
REFERENCE_RUNS = 3  # reference kernel runs before and after the task
REFERENCE_EVERY = 27  # survey graphs between reference runs inside the loop


def _reference_s() -> float:
    """Seconds taken by a fixed pure-Python kernel, with the collector off.

    Integer row reduction and tuple hashing, like the package's inner loops.
    Measured just before and after each task (and between survey graphs);
    run.py scales a pass's times by its median, so host speed swings cancel.
    """
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter_ns()
    for _ in range(8):
        m = [[(i * 7 + j * 3) % 11 - 5 for j in range(48)] for i in range(48)]
        for k in range(48):
            top = m[k]
            pivot = top[k] or 1
            for row in m[k + 1:]:
                f = row[k] // pivot
                if f:
                    for j in range(k, 48):
                        row[j] = (row[j] - f * top[j]) % 1009
        counts: dict = {}
        for i in range(20000):
            key = (i % 31, i % 29)
            counts[key] = counts.get(key, 0) + 1
    elapsed = time.perf_counter_ns() - start
    if enabled:
        gc.enable()
    return elapsed / 1e9


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def _import_package(src: str) -> dict:
    sys.path.insert(0, src)
    package = importlib.import_module("graphburning")
    if not os.path.abspath(package.__file__).startswith(os.path.join(src, "")):
        raise ImportError(f"graphburning resolved to {package.__file__}, outside {src}")
    # Through sys.modules: the package re-exports functions named like its
    # submodules (graphburning.homology is the function homology).
    return {name: importlib.import_module(f"graphburning.{name}") for name in LAYERS}


def _run_cli(argv: list[str], mods: dict, recorder) -> dict:
    out = io.StringIO()
    errors = []
    start = time.perf_counter_ns()
    try:
        with contextlib.redirect_stdout(out):
            code = mods["cli"].main(list(argv))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash is one failed operation, not a failed run
        code = None
        errors.append(f"{type(exc).__name__}: {exc}")
    end = time.perf_counter_ns()
    rss = _peak_rss_mib()
    layers = recorder.finish() if recorder else None
    if code != 0:
        errors.append(f"graphburn {' '.join(argv)} exited with {code}")
    else:
        try:
            errors += workloads.check_cli(argv, out.getvalue(), mods)
        except (ValueError, KeyError, IndexError) as exc:
            errors.append(f"unreadable output of graphburn {' '.join(argv)}: {exc!r}")
    return {"latencies_ms": [(end - start) / 1e6], "peak_rss_mib": rss,
            "attempted": 1, "failed": int(bool(errors)), "errors": errors, "layers": layers}


def _run_survey(graphs: list, mods: dict, recorder, reference: list) -> dict:
    latencies, results = [], []
    for i, g in enumerate(graphs):
        if i and i % REFERENCE_EVERY == 0:
            reference.append(_reference_s())  # between graphs, outside the timings
        start = time.perf_counter_ns()
        try:
            results.append(workloads.survey_graph(mods, g))
        except Exception as exc:  # one failed graph, the rest still run
            results.append(f"{type(exc).__name__}: {exc}")
        latencies.append((time.perf_counter_ns() - start) / 1e6)
    rss = _peak_rss_mib()
    layers = recorder.finish() if recorder else None
    errors, failed = [], 0
    for i, result in enumerate(results):
        try:
            problems = ([result] if isinstance(result, str)
                        else workloads.check_survey(mods, result))
        except (AttributeError, TypeError) as exc:
            problems = [f"unreadable result: {exc!r}"]
        if problems:
            failed += 1
            errors += [f"graph {i}: {p}" for p in problems]
    return {"latencies_ms": latencies, "peak_rss_mib": rss,
            "attempted": len(graphs), "failed": failed, "errors": errors, "layers": layers}


def main() -> int:
    spec = json.loads(sys.argv[1])
    try:
        mods = _import_package(spec["src"])
    except ImportError as exc:
        print(json.dumps({"fatal": f"cannot import graphburning: {exc}"}))
        return 3
    if spec["kind"] == "probe":
        print(json.dumps({"ready_ns": time.monotonic_ns(), "latencies_ms": [],
                          "attempted": 0, "failed": 0, "errors": []}))
        return 0
    if spec["kind"] == "survey":
        graph_type = mods["graphs"].Graph
        graphs = [graph_type.from_edges(n, edges)
                  for n, edges in workloads.survey_corpus(spec["seed"])]
    recorder = None
    if spec["trace"]:
        recorder = spans.Recorder(SPAN_CAP if spec.get("spans_path") else 0)
        recorder.install()
    ready_ns = time.monotonic_ns()
    _reference_s()  # untimed: first-call and first-touch costs
    reference = [_reference_s() for _ in range(REFERENCE_RUNS)]
    if spec["kind"] == "survey":
        result = _run_survey(graphs, mods, recorder, reference)
    else:
        result = _run_cli(spec["argv"], mods, recorder)
    reference += [_reference_s() for _ in range(REFERENCE_RUNS)]
    result["reference_s"] = reference
    if recorder and spec.get("spans_path"):
        with open(spec["spans_path"], "w") as fh:
            json.dump(dict(recorder.spans_record(), task=spec), fh)
    result["ready_ns"] = ready_ns
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
