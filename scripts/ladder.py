#!/usr/bin/env python3
"""Time the pipeline layer by layer on a fixed ladder of graphs.

    python3 scripts/ladder.py

Each rung runs in `RUNG_RUNS` fresh interpreters: `configuration_space(g)`,
then `homology(c, reduced=True)`, with the self time of each layer (a
wrapped layer's time minus the time of the wrapped layers it calls), the
peak RSS and the counts: source sets, facets, the join factors of the strong
core, the cells of their chain complexes, which are all the cells homology
builds, and the cells left after coreduction.  A rung's row holds the counts
and the median, min and max over its runs of every time and of the peak
RSS.  The layers, in pipeline order:

- `search`: `burning._search`, the burning search;
- `maximal`: `complexes._maximal`, the facet absorption that runs inside the
  complex constructor, once for `configuration_space` and once for each
  vertex the strong core deletes;
- `strong_core`: `complexes._strong_core`;
- `join`: the rest of `homology._reduction`: splitting the core into join
  factors, Milnor's formula, and reading each factor's groups off its
  Smith forms;
- `faces`, `boundaries`, `square_zero`: `complexes._face_lattice`, which
  builds every face of a complex once, the rest of `homology.chain_complex`,
  and its boundary-squared check;
- `coreduce`: `homology._coreduce`;
- `smith`: `exactlinalg.smith_normal_form`.

One more row times a fresh `graphburn homology path:14`, split into the
package import, the parser (build and parse) and the work, in seven fresh
processes, with the median, min and max of each stage: a single process
strays by 20-40%, past most changes worth measuring.  The row also lists the
`graphburning` modules that call loaded, its import path.  The results go
to `BENCH_ladder.json` at the repository root, with the commit, the Python
version and the machine.  The whole ladder takes about three minutes.
"""

from __future__ import annotations

import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUNGS = ([(f"P{n}", f"path:{n}") for n in range(10, 21)] + [("P24", "path:24"), ("C12", "cycle:12")]
         + [(f"C{n}", f"cycle:{n}") for n in range(20, 25)]
         + [(f"{k}xP2", f"sum:{k},path:2") for k in (5, 6, 7, 10, 11)]
         + [("cube", "cube"), ("corpus", None)])
LAYERS = (("burning", "_search", "search"), ("complexes", "_maximal", "maximal"),
          ("complexes", "_strong_core", "strong_core"), ("homology", "_reduction", "join"),
          ("complexes", "_face_lattice", "faces"),
          ("homology", "chain_complex", "boundaries"),
          ("homology", "_assert_square_zero", "square_zero"),
          ("homology", "_coreduce", "coreduce"), ("exactlinalg", "smith_normal_form", "smith"))
RUNG_RUNS = 3
COLD_ARGV = ["homology", "path:14"]
COLD_RUNS = 7


def _install_timers(seconds: dict) -> None:
    """Wrap each layer in every package module that holds it, keeping self times."""
    # Through import_module: the package re-exports a function named homology.
    modules = {name: importlib.import_module(f"graphburning.{name}")
               for name in ("burning", "complexes", "exactlinalg", "homology")}
    stack: list[list] = []  # [label, seconds spent in wrapped callees]

    def timed(label, fn):
        def call(*args, **kwargs):
            stack.append([label, 0.0])
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                seconds[label] += elapsed - stack.pop()[1]
                if stack:
                    stack[-1][1] += elapsed
        return call

    for home, name, label in LAYERS:
        fn = getattr(modules[home], name)
        wrapper = timed(label, fn)
        for module in modules.values():
            if getattr(module, name, None) is fn:
                setattr(module, name, wrapper)


def measure_rung(name: str) -> dict:
    """One rung in this process: its counts, seconds per layer and peak RSS."""
    from graphburning import burning, complexes
    from graphburning.cli import load_graph
    from graphburning.graphs import Graph
    homology = importlib.import_module("graphburning.homology")
    spec = dict(RUNGS)[name]
    if spec is None:  # the benchmark's survey corpus for seed 1: 108 graphs
        sys.path.insert(0, str(ROOT / "perfbench"))
        from workloads import survey_corpus
        graphs = [Graph.from_edges(n, edges) for n, edges in survey_corpus(1)]
    else:
        graphs = [load_graph(spec)]
    seconds: dict = defaultdict(float)
    _install_timers(seconds)
    conf_s = homology_s = 0.0
    for g in graphs:
        start = time.perf_counter()
        c = complexes.configuration_space(g)
        middle = time.perf_counter()
        homology.homology(c, reduced=True)
        conf_s += middle - start
        homology_s += time.perf_counter() - middle
    row = {"rung": name, "graphs": len(graphs), "conf_s": round(conf_s, 4),
           "homology_s": round(homology_s, 4),
           "seconds": {label: round(seconds[label], 4) for _, _, label in LAYERS},
           "peak_rss_mib": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}
    # Counted after the timings, which these calls would otherwise add to.
    counts = defaultdict(int)
    for g in graphs:
        c = complexes.configuration_space(g)
        factors = homology._join_factors(complexes._strong_core(c))
        counts["source_sets"] += len(burning._search(g)[0])
        counts["facets"] += len(c.masks)
        counts["factors"] += len(factors)
        for f in factors:
            counts["cells"] += sum(map(len, f.lattice))
            counts["cells_left"] += sum(map(sum, homology._coreduce(homology.chain_complex(f))[1]))
    return dict(row, **counts)


# Run as its own interpreter's program, so that nothing is imported before the
# package; the times go to stderr, the command's output to stdout.
COLD_START = f"""
import sys, time
start = time.perf_counter()
from graphburning import cli
imported = time.perf_counter()
args = cli.build_parser({COLD_ARGV!r}).parse_args({COLD_ARGV!r})
parsed = time.perf_counter()
args.fn(args)
done = time.perf_counter()
print(imported - start, parsed - imported, done - parsed, file=sys.stderr)
print(*sorted(m for m in sys.modules if m.startswith("graphburning")), file=sys.stderr)
"""


def fresh(code: str) -> tuple[subprocess.CompletedProcess, float]:
    """Run code in a new interpreter that imports the package from src/."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (
        str(ROOT / "src"), str(ROOT / "scripts"), os.environ.get("PYTHONPATH")))))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return done, round(time.perf_counter() - start, 4)


def _spread(values: list[float]) -> dict:
    return {"median": round(statistics.median(values), 4),
            "min": round(min(values), 4), "max": round(max(values), 4)}


def run_rung(name: str) -> dict:
    """One rung in `RUNG_RUNS` fresh interpreters, each with its wall time:
    the counts (ints, the same in every run) and the spread of each float."""
    runs = []
    for _ in range(RUNG_RUNS):
        done, wall = fresh(f"import json, ladder; print(json.dumps(ladder.measure_rung({name!r})))")
        runs.append(dict(json.loads(done.stdout), process_s=wall))
    row = {}
    for key, value in runs[0].items():
        if key == "seconds":
            row[key] = {label: _spread([r[key][label] for r in runs]) for label in value}
        else:
            row[key] = _spread([r[key] for r in runs]) if isinstance(value, float) else value
    return dict(row, runs=RUNG_RUNS)


def run_cold_start() -> dict:
    """The cold call in `COLD_RUNS` fresh processes: each stage's median, min and
    max, and the package modules loaded by any of them."""
    runs, modules = [], set()
    for _ in range(COLD_RUNS):
        done, wall = fresh(COLD_START)
        times, loaded = done.stderr.splitlines()
        runs.append([float(x) for x in times.split()] + [wall])
        modules.update(loaded.split())
    stages = {name: _spread(times) for name, times in
              zip(("import_s", "parser_s", "work_s", "process_s"), zip(*runs))}
    return dict(stages, argv=COLD_ARGV, runs=COLD_RUNS, modules=sorted(modules))


def _commit() -> str:
    """HEAD's hash, with "-dirty" when the working tree differs from it."""
    try:
        return subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                              cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> None:
    rungs = []
    for name, _ in RUNGS:
        rungs.append(run_rung(name))
        print(json.dumps(rungs[-1]), flush=True)
    cold = run_cold_start()
    print(json.dumps(cold))
    record = {"commit": _commit(), "python": platform.python_version(),
              "machine": {"platform": platform.platform(), "processor": platform.machine(),
                          "cpus": os.cpu_count()},
              "rungs": rungs, "cold_start": cold}
    (ROOT / "BENCH_ladder.json").write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
