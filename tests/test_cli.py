import argparse
import contextlib
import importlib.util
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from graphburning import (
    ComplexError,
    InvariantError,
    configuration_space,
    enumerate_burnings,
    parse_graph_text,
    path_graph,
    source_sets,
)
from graphburning import burning, cli, morphisms, verify
from graphburning.cli import UsageError, build_parser, load_graph, main, parse_sources


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_load_graph_builders(tmp_path):
    assert load_graph("path:5") == path_graph(5)
    assert load_graph("bipartite:2,3").vertex_count == 5
    assert load_graph("cube").vertex_count == 8
    assert load_graph("sum:3,path:2").vertex_count == 6
    inline = load_graph("n 3\n0 1\n1 2\n")
    assert inline == path_graph(3)
    path = tmp_path / "g.txt"
    path.write_text("n 4\n0 1\n1 2\n2 3\n")
    assert load_graph(str(path)) == path_graph(4)
    with pytest.raises(UsageError):
        load_graph("frobnicate:3")
    for spec in ("sum:3", "sum:x,path:2"):
        with pytest.raises(UsageError, match="expected sum:<count>,<graph>"):
            load_graph(spec)
    for spec in ("path:x", "bipartite:2,y", "cycle:3.5"):
        with pytest.raises(UsageError, match="expected <family>:<int>,..."):
            load_graph(spec)


def test_bad_builder_parameters_are_a_usage_error(capsys):
    code, out, err = run(capsys, "burning-number", "path:x")
    assert code == 2 and not out
    assert err == "error: bad graph 'path:x'; expected <family>:<int>,...\n"


def test_parse_sources():
    assert parse_sources("0,3", one_based=False) == (0, 3)
    assert parse_sources("1,4", one_based=True) == (0, 3)
    with pytest.raises(UsageError):
        parse_sources("a,b", one_based=False)


def test_burning_number_command(capsys):
    code, out, _ = run(capsys, "burning-number", "path:9")
    assert code == 0 and out.strip() == "3"
    code, out, _ = run(capsys, "--format", "json", "burning-number", "path:9")
    assert json.loads(out) == {"burning_number": 3, "schema": 1}


def test_validate_command(capsys):
    code, out, _ = run(capsys, "validate", "path:5", "0,3")
    assert code == 0 and "end_time 3" in out
    code, out, _ = run(capsys, "validate", "path:5", "0,1")
    assert code == 1 and "invalid" in out
    code, out, _ = run(capsys, "--one-based", "validate", "path:5", "1,4")
    assert code == 0


def test_one_based_errors_name_the_given_labels(capsys):
    """Validation errors print the labels as typed, not the 0-based ones."""
    cases = [("path:5", "1,2", "source 2 at step 2 is already burned (lies in U_2)"),
             ("path:9", "1", "vertices [3, 4, 5, 6, 7, 8, 9] never burn"),
             ("path:5", "0", "source 0 out of range"),
             ("path:5", "6", "source 6 out of range")]
    for graph, sources, reason in cases:
        code, out, _ = run(capsys, "--one-based", "validate", graph, sources)
        assert (code, out) == (1, f"invalid: {reason}\n")
        code, out, _ = run(capsys, "--one-based", "--format", "json", "validate",
                           graph, sources)
        assert code == 1 and json.loads(out)["reason"] == reason
        code, out, err = run(capsys, "--one-based", "minimal-subgraphs", graph, sources)
        assert (code, out, err) == (2, "", f"error: not a burning sequence: {reason}\n")
    code, out, _ = run(capsys, "validate", "path:5", "0,1")
    assert out == "invalid: source 1 at step 2 is already burned (lies in U_2)\n"


def test_long_incomplete_message_names_the_first_ten(capsys):
    """More than ten unburned vertices: the first ten and the count, in text,
    in JSON and under --one-based."""
    reason = "vertices [2, 3, 4, 5, 6, 7, 8, 9, 10, 11, ...] never burn (1,998 in all)"
    code, out, _ = run(capsys, "validate", "path:2000", "0")
    assert (code, out) == (1, f"invalid: {reason}\n")
    code, out, _ = run(capsys, "--format", "json", "validate", "path:2000", "0")
    assert code == 1 and json.loads(out)["reason"] == reason
    one_based = "vertices [3, 4, 5, 6, 7, 8, 9, 10, 11, 12, ...] never burn (1,998 in all)"
    code, out, _ = run(capsys, "--one-based", "validate", "path:2000", "1")
    assert (code, out) == (1, f"invalid: {one_based}\n")
    code, out, _ = run(capsys, "--one-based", "--format", "json", "validate",
                       "path:2000", "1")
    assert code == 1 and json.loads(out)["reason"] == one_based


def test_complex_command_round_trip(capsys):
    code, out, _ = run(capsys, "--format", "json", "complex", "path:5")
    record = json.loads(out)
    assert record["schema"] == 1
    rebuilt = {tuple(f) for f in record["facets"]}
    assert rebuilt == set(configuration_space(path_graph(5)).facets)


def test_burnings_round_trip(capsys):
    code, out, _ = run(capsys, "--format", "json", "burnings", "path:4")
    record = json.loads(out)
    assert code == 0
    assert sorted(b["sources"] for b in record["burnings"]) == [
        [0, 2], [0, 3], [1, 3], [2, 0], [3, 0], [3, 1]]


def test_burnings_text_command(capsys):
    code, out, _ = run(capsys, "burnings", "path:3")
    assert code == 0 and out.splitlines() == [
        "sources 0,2 end_time 2", "sources 1 end_time 2 hom",
        "sources 2,0 end_time 2", "total 3"]
    code, out, _ = run(capsys, "--one-based", "burnings", "path:3")
    assert out.splitlines()[1] == "sources 2 end_time 2 hom"


# path:11 (616 burnings) and cycle:11 (374) carry the two-digit labels 10 and 11.
STREAMED_GRAPHS = ([f"path:{n}" for n in (*range(1, 9), 11)]
                   + [f"cycle:{n}" for n in (*range(3, 9), 11)]
                   + [f"sum:{k},path:2" for k in range(1, 5)]
                   + ["cube", "n 6\n0 1\n1 2\n3 4\n"])


@pytest.mark.parametrize("spec", STREAMED_GRAPHS)
def test_streamed_listing_matches_the_whole_record(capsys, spec):
    """The streamed bytes equal the record built whole and dumped at once."""
    g = load_graph(spec)
    for one_based, flags in ((False, []), (True, ["--one-based"])):
        records = []
        for b in enumerate_burnings(g):
            rec = b.to_record()
            rec["sources"] = [v + one_based for v in rec["sources"]]
            records.append(rec)
        whole = {"vertex_count": g.vertex_count, "burnings": records, "schema": 1}
        assert run(capsys, "--format", "json", "burnings", spec, *flags) == (
            0, json.dumps(whole, sort_keys=True) + "\n", "")
        lines = [f"sources {','.join(map(str, rec['sources']))} end_time {rec['end_time']}"
                 + (" hom" if rec["is_homomorphism"] else "") for rec in records]
        lines.append(f"total {len(records)}")
        assert run(capsys, "burnings", spec, *flags) == (0, "".join(f"{x}\n" for x in lines), "")


def test_listing_holds_one_burning_at_a_time():
    """The 3,840 burnings of 5xP2 pass through well under 1 MiB of heap;
    building the listing and its JSON whole took over 6 MiB."""
    burning._search.cache_clear()
    tracemalloc.start()
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            assert main(["burnings", "sum:5,path:2", "--format", "json"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_homology_command(capsys):
    code, out, _ = run(capsys, "homology", "path:5")
    assert code == 0 and out.splitlines() == ["H_0 = Z", "H_1 = Z", "H_2 = 0"]
    code, out, _ = run(capsys, "homology", "--reduced", "--coeff", "q", "path:5")
    assert out.splitlines() == ["H~_0 = 0", "H~_1 = Q", "H~_2 = 0"]
    # A field is named in text; JSON keeps the coefficient spec and the ranks.
    code, out, _ = run(capsys, "homology", "--coeff", "p:2", "cycle:6")
    assert code == 0 and out.splitlines() == ["H_0 = F2", "H_1 = F2^4"]
    code, out, _ = run(capsys, "--format", "json", "homology", "--coeff", "p:2", "cycle:6")
    record = json.loads(out)
    assert record["coefficients"] == "p:2"
    assert [g["free_rank"] for g in record["groups"]] == [1, 4]


def test_homology_reports_degrees_the_core_collapsed(capsys):
    # conf(P13) is 6-dimensional and its strong core is a point.
    code, out, _ = run(capsys, "homology", "path:13")
    assert code == 0 and out.splitlines() == ["H_0 = Z"] + [f"H_{q} = 0" for q in range(1, 7)]
    code, out, _ = run(capsys, "--format", "json", "homology", "--reduced", "path:13")
    groups = json.loads(out)["groups"]
    assert [g["degree"] for g in groups] == list(range(7))
    assert all(g["free_rank"] == 0 and not g["torsion"] for g in groups)


def test_homology_rejects_bad_coefficients_before_the_search(capsys, monkeypatch):
    searched = []
    monkeypatch.setattr(cli, "configuration_space", searched.append)
    for coeff, message in (("p:6", "6 is not prime"), ("p:x", "'p:x'"),
                           ("p:", "'p:'"), ("r", "'r'")):
        code, out, err = run(capsys, "homology", "path:22", "--coeff", coeff)
        assert code == 2 and not out and message in err, coeff
    assert searched == []


def test_minimal_subgraphs_command(capsys):
    text = "n 7\n0 1\n1 2\n1 3\n1 4\n2 5\n3 5\n4 5\n5 6\n"
    code, out, _ = run(capsys, "minimal-subgraphs", text, "0,5")
    assert code == 0 and out.strip().endswith("total 3")


def test_witness_command(capsys):
    code, out, _ = run(capsys, "--format", "json", "witness", "min-n-for-k", "3")
    record = json.loads(out)
    assert record["n"] == 5 and record["witness"] == [0, 2, 4]


def test_verify_command(capsys):
    code, out, _ = run(capsys, "verify", "cube", "p5-configuration-space")
    assert code == 0 and out.count("PASS") == 2
    assert "elapsed" not in out
    code, out, _ = run(capsys, "--format", "json", "verify", "cube", "p5-configuration-space")
    checks = json.loads(out)["checks"]
    assert [c["check_id"] for c in checks] == ["cube", "p5-configuration-space"]
    assert all(isinstance(c["elapsed_s"], float) and c["elapsed_s"] >= 0 for c in checks)
    code, _, err = run(capsys, "verify", "bogus-check")
    assert code == 2 and "unknown check" in err


@pytest.mark.parametrize("name", ["chain_complex", "burning_map"])
def test_verify_reports_broken_invariant_as_failure(capsys, monkeypatch, name):
    def broken(*args, **kwargs):
        raise InvariantError("deliberately broken")

    monkeypatch.setattr(verify, name, broken)
    code, out, _ = run(capsys, "--format", "json", "verify", "property-suites")
    check = json.loads(out)["checks"][0]
    assert code == 1 and check["status"] == "fail"
    assert "deliberately broken" in json.dumps(check["details"])


def test_verify_reports_a_raising_check_and_runs_the_rest(capsys, monkeypatch):
    def raiser(*args):
        raise ComplexError("facets must cover exactly 0..1")

    monkeypatch.setattr(verify, "join", raiser)
    argv = ("verify", "cube", "cone-suspension", "p5-configuration-space")
    code, out, err = run(capsys, *argv)
    lines = out.splitlines()
    assert code == 1 and not err and len(lines) == 5
    assert lines[0].startswith("PASS cube: ")
    assert lines[1] == "FAIL cone-suspension: raised ComplexError"
    assert "facets must cover exactly 0..1" in lines[2]
    assert lines[3].startswith("PASS p5-configuration-space: ")
    assert lines[4] == "some checks FAILED"
    code, out, _ = run(capsys, "--format", "json", *argv)
    checks = json.loads(out)["checks"]
    assert code == 1 and [c["status"] for c in checks] == ["pass", "fail", "pass"]
    assert checks[1]["check_id"] == "cone-suspension"
    details = checks[1]["details"]
    assert (details["error"], details["message"]) == (
        "ComplexError", "facets must cover exactly 0..1")
    assert re.fullmatch(r"test_cli\.py:\d+ in raiser", details["at"])


def test_listings_read_the_flag_without_a_graph_map(capsys, monkeypatch):
    """Records, text lines and -hom witnesses read `Burning.is_homomorphism`."""
    def no_graph_map(*args, **kwargs):
        raise AssertionError("built a graph map")

    monkeypatch.setattr(burning, "burning_map", no_graph_map)
    monkeypatch.setattr(burning, "validate_graph_map", no_graph_map)
    for argv in (["burnings", "sum:3,path:2"],
                 ["--format", "json", "burnings", "sum:3,path:2"],
                 ["validate", "path:5", "0,3"],
                 ["--format", "json", "validate", "path:5", "0,3"],
                 ["witness", "max-n-for-T-hom", "3"]):
        code, out, err = run(capsys, *argv)
        assert code == 0 and out and not err, argv
    code, out, _ = run(capsys, "validate", "path:5", "0,3")
    assert out.splitlines()[-1] == "burning map is a homomorphism"


def test_search_budget_fails_fast(capsys, monkeypatch):
    monkeypatch.setattr(burning, "_SEARCH_STATES", 50)
    burning._search.cache_clear()
    code, out, err = run(capsys, "burning-number", "path:12")
    assert code == 2 and not out and "50 residual states" in err


def test_listing_budget_fails_fast(capsys, monkeypatch):
    monkeypatch.setattr(burning, "_LISTED_BURNINGS", 50)
    code, out, err = run(capsys, "burnings", "path:12")
    assert code == 2 and not out and "50 burnings" in err


def test_oversized_listing_is_refused_at_once(capsys):
    for flags in ([], ["--format", "json"]):
        code, out, err = run(capsys, *flags, "burnings", "sum:7,path:2")
        assert code == 2 and not out and "has 645,120 burnings" in err


def test_bitmask_budget_fails_fast(capsys, monkeypatch):
    code, out, err = run(capsys, "validate", "path:200000", "0")
    assert code == 2 and not out
    assert "200,000 vertices is past the bitmask budget of 40,000 vertices" in err
    # At the budget the graph is validated: one source leaves most of P40000.
    code, out, err = run(capsys, "validate", "path:40000", "0")
    assert code == 1 and "never burn (39,998 in all)" in out and not err
    monkeypatch.setattr(burning, "_WITNESS_VERTICES", 4)
    burning._search.cache_clear()
    code, out, err = run(capsys, "burning-number", "path:5")
    assert code == 2 and not out and "past the bitmask budget of 4 vertices" in err


def test_subgraph_budget_fails_fast(capsys, monkeypatch):
    monkeypatch.setattr(morphisms, "_SUBGRAPH_CANDIDATES", 0)
    code, out, err = run(capsys, "minimal-subgraphs", "path:9", "4,1,7")
    assert code == 2 and not out and "0 candidates" in err
    # The size flags are gone: argparse rejects them as a usage error.
    with pytest.raises(SystemExit) as exit_:
        main(["minimal-subgraphs", "path:9", "4,1,7", "--max-vertices", "9"])
    assert exit_.value.code == 2 and "--max-vertices" in capsys.readouterr().err


def test_minimal_subgraphs_refuse_a_disconnected_graph(capsys):
    for graph, sources in (("sum:2,path:2", "0,2"), ("sum:2,complete:5", "0,5")):
        code, out, err = run(capsys, "minimal-subgraphs", graph, sources)
        assert code == 2 and not out and "ambient graph must be connected" in err


def test_refusals_and_checks_hold_under_optimize_flag():
    """Real exceptions, not asserts: python -O changes neither outcome."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    refused = subprocess.run(
        [sys.executable, "-O", "-m", "graphburning", "minimal-subgraphs",
         "sum:2,path:2", "0,2"], env=env, capture_output=True, text=True)
    assert refused.returncode == 2 and not refused.stdout
    assert "ambient graph must be connected" in refused.stderr
    too_long = subprocess.run(
        [sys.executable, "-O", "-m", "graphburning", "witness", "max-n-for-T", "1000"],
        env=env, capture_output=True, text=True)
    assert too_long.returncode == 2 and not too_long.stdout
    assert "witness budget of 40,000 vertices" in too_long.stderr
    checked = subprocess.run(
        [sys.executable, "-O", "-m", "graphburning", "verify", "--quiet"],
        env=env, capture_output=True, text=True)
    assert checked.returncode == 0 and "all checks passed" in checked.stdout
    assert [line.split(":")[0] for line in checked.stdout.splitlines()[:-1]] == [
        f"PASS {cid}" for cid in verify.CHECKS]


def test_usage_errors(capsys):
    code, _, err = run(capsys, "burning-number", "cycle:2")
    assert code == 2 and "cycle" in err
    # A builder given too few or too many parameters names its expression.
    code, out, err = run(capsys, "complex", "bipartite:2")
    assert (code, out) == (2, "")
    assert err == "error: bad parameters for 'bipartite': expected bipartite:<n>,<m>, got 1 parameter\n"
    code, out, err = run(capsys, "complex", "path:3,4")
    assert (code, out) == (2, "")
    assert err == "error: bad parameters for 'path': expected path:<n>, got 2 parameters\n"
    code, _, err = run(capsys, "validate", "path:3", "0,x")
    assert code == 2
    code, out, err = run(capsys, "complex", "0 1 2")  # inline text, three fields a line
    assert (code, out) == (2, "")
    assert err == "error: cannot read graph '0 1 2': line 1: expected 'u v'\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_closed_pipe_ends_the_listing_quietly(fmt):
    """A reader that leaves early (`| head -c 100`) ends the stream: no
    traceback, a non-zero exit.  E8 has 40,320 burnings, far past a pipe's
    buffer."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "graphburning", "burnings", "edgeless:8", "--format", fmt],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.stderr.close()
    assert (code, err) == (1, b"")


def test_closed_pipe_after_the_first_line_exits_quietly():
    """`graphburn burnings sum:6,path:2 | head -n 1`: 46,080 burnings, one read."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "graphburning", "burnings", "sum:6,path:2"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.stderr.close()
    assert (code, err) == (1, b"")


def test_determinism(capsys):
    first = run(capsys, "--format", "json", "burnings", "cube")
    second = run(capsys, "--format", "json", "burnings", "cube")
    assert first == second


def test_text_format_graph_round_trip(capsys):
    from graphburning.graphs import format_graph_text
    g = load_graph("cycle:5")
    assert parse_graph_text(format_graph_text(g)) == g


def test_survey_script_runs():
    """`scripts/survey_burnings.py` prints one line per graph of its families."""
    root = Path(__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, str(root / "scripts" / "survey_burnings.py"), "--max-n", "5"],
        env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    # Paths 1..5, cycles 3..5, complete graphs 1..5 and the cube.
    assert len(lines) == 14 and lines[-1].startswith("cube")
    path5 = next(line for line in lines if line.startswith("path(5)"))
    assert re.search(r"burnings=\s*12 b=3 ", path5), path5


def test_ladder_runs_its_smallest_rung():
    """`scripts/ladder.py` times P10 in three fresh processes, and a cold call."""
    spec = importlib.util.spec_from_file_location(
        "ladder", Path(__file__).parents[1] / "scripts" / "ladder.py")
    ladder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ladder)
    row = ladder.run_rung("P10")
    # conf(P10) = Ind(P10): 16 maximal independent sets, contractible (Kozlov).
    assert (row["rung"], row["facets"], row["cells_left"], row["runs"]) == ("P10", 16, 0, 3)
    assert row["source_sets"] == len(source_sets(path_graph(10)))
    assert list(row["seconds"]) == [label for _, _, label in ladder.LAYERS]
    spreads = [row[key] for key in ("conf_s", "homology_s", "peak_rss_mib", "process_s")]
    assert all(s["min"] <= s["median"] <= s["max"] for s in spreads + list(row["seconds"].values()))
    assert row["peak_rss_mib"]["min"] > 0
    # Each process outlasts its own conf_s, so each order statistic does too.
    assert all(row["process_s"][k] > row["conf_s"][k] for k in ("median", "min", "max"))
    cold = ladder.run_cold_start()
    stages = [cold[name] for name in ("import_s", "parser_s", "work_s", "process_s")]
    assert cold["runs"] == 7 and all(s["min"] <= s["median"] <= s["max"] for s in stages)
    # Each process outlasts its own stages, so the shortest outlasts the shortest stages.
    assert stages[3]["min"] > sum(s["min"] for s in stages[:3]) > 0
    # The import path of a pipeline command: the pipeline's layers, and no more.
    assert cold["modules"] == ["graphburning"] + [f"graphburning.{name}" for name in sorted(
        ("cli", "graphs", "burning", "complexes", "homology", "exactlinalg"))]


def test_ab_compares_a_ref_with_the_working_tree():
    """`scripts/ab.py` runs one interleaved pair, HEAD against the working tree."""
    root = Path(__file__).parents[1]
    if not (shutil.which("git") and subprocess.run(
            ["git", "rev-parse", "--verify", "HEAD"], cwd=root, capture_output=True).returncode == 0):
        pytest.skip("not a git checkout")
    done = subprocess.run([sys.executable, str(root / "scripts" / "ab.py"), "HEAD",
                           "--workload", "sum-burn", "--pairs", "1", "--seconds", "1"],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "# A = HEAD, B = working tree; --workload sum-burn --pairs 1 --seconds 1"
    assert lines[-1] == "correct runs: 2 of 2"
    metrics = json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]
    rows = [line.split() for line in lines[2:-1]]
    assert [(row[0], row[1]) for row in rows] == [(m["name"], m["unit"]) for m in metrics]
    for _, _, a, a_quartiles, b, b_quartiles, won, verdict in rows:
        # One pair: each side's quartiles are its one value, and no gain is claimed.
        assert a_quartiles == f"({a}..{a})" and b_quartiles == f"({b}..{b})" and float(a) > 0
        assert won in ("0/1", "1/1") and verdict == "-"


def test_ab_compares_ladder_rungs():
    """`scripts/ab.py --rungs` runs one interleaved pair of P10's `measure_rung`."""
    root = Path(__file__).parents[1]
    if not (shutil.which("git") and subprocess.run(
            ["git", "rev-parse", "--verify", "HEAD"], cwd=root, capture_output=True).returncode == 0):
        pytest.skip("not a git checkout")
    done = subprocess.run([sys.executable, str(root / "scripts" / "ab.py"), "HEAD",
                           "--rungs", "P10", "--pairs", "1"], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "# A = HEAD, B = working tree; --rungs P10 --pairs 1"
    assert lines[-1] == "rungs with equal source sets and facets: 1 of 1"
    rows = [line.split() for line in lines[2:-1]]
    assert [(row[0], row[1]) for row in rows] == [("P10:conf_s", "s"), ("P10:homology_s", "s")]
    for _, _, a, a_quartiles, b, b_quartiles, won, verdict in rows:
        assert a_quartiles == f"({a}..{a})" and b_quartiles == f"({b}..{b})"
        assert won in ("0/1", "1/1") and verdict == "-"


def test_a_bug_in_a_command_keeps_its_traceback(monkeypatch):
    """Only refusals become usage errors: a stray KeyError propagates."""
    def bug(args):
        raise KeyError("bug")

    monkeypatch.setattr(cli, "cmd_complex", bug)
    with pytest.raises(KeyError, match="bug"):
        main(["complex", "path:3"])


COMMANDS = ["burnings", "burning-number", "validate", "complex", "homology",
            "minimal-subgraphs", "witness", "verify"]
PARSER_CASES = [
    [], ["-h"], ["--help"], ["bogus", "path:3"], ["bogus", "homology", "path:5"],
    ["--format", "json", "homology", "path:5"], ["--format", "homology", "path:5"],
    ["--format=json", "--one-based", "homology", "path:5"], ["--format", "-h", "homology"],
    ["--format"], ["--one-based"], ["homology", "path:5", "--bogus"],
    ["--form", "json", "homology", "path:5"], ["homology", "path:5", "--red"],
    ["homology", "path:5", "--format", "xml"], ["--", "homology", "path:5"],
    ["-5", "complex", "path:3"], ["burnings", "path:4", "--format", "json"],
    ["burning-number"], ["validate", "path:5", "0,3", "--one-based"], ["validate", "path:5"],
    ["complex", "path:3", "extra"], ["--one-based", "minimal-subgraphs", "path:5", "1,4"],
    ["witness", "max-n-for-T", "3"], ["witness", "nope", "3"], ["witness", "max-n-for-T", "x"],
    ["verify"], ["verify", "--quiet", "a", "b"], ["verify", "--qu", "--format", "json"],
] + [[c, "-h"] for c in COMMANDS]


def _parse(parser, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parser.parse_args(argv)
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", PARSER_CASES, ids=" ".join)
def test_one_command_parser_matches_the_whole_tree(argv):
    """The parser built for argv parses it as every command's parser does:
    the same namespace, or the same exit code, stdout and stderr."""
    assert _parse(build_parser(argv), argv) == _parse(build_parser(), argv)


def test_a_call_builds_only_its_own_commands_parser(capsys, monkeypatch):
    """A guard on the cold start: the top level and one command, not all."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert run(capsys, "homology", "path:3")[0] == 0
    assert built == ["graphburn", "graphburn homology"]
    built.clear()
    with pytest.raises(SystemExit) as exit_:
        main(["--help"])
    assert exit_.value.code == 0 and "minimal-subgraphs" in capsys.readouterr().out
    assert built == ["graphburn"] + [f"graphburn {c}" for c in COMMANDS]
