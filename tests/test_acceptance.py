"""Acceptance gate: each test runs one named verification check end to end.

Each criterion gets exactly one test, so `pytest -v tests/test_acceptance.py`
prints one pass/fail line per criterion.  Budgets are wall-clock seconds for
the single check; the whole file is expected to finish well under two minutes.
"""

import time

from graphburning.verify import CHECKS


def run_check(check_id: str, budget: float) -> None:
    start = time.perf_counter()
    result = CHECKS[check_id]()
    elapsed = time.perf_counter() - start
    print(f"{check_id}: {result.status.upper()} ({elapsed:.2f}s)")
    assert elapsed < budget, f"{check_id} took {elapsed:.1f}s, budget {budget}s"
    assert result.status == "pass", result.details


def test_criterion_01_path_burning_numbers():
    run_check("path-burning-numbers", 5)


def test_criterion_02_p5_configuration_space():
    run_check("p5-configuration-space", 1)


def test_criterion_03_skeleton_is_complement():
    run_check("skeleton-complement", 30)


def test_criterion_04_cone_and_suspension():
    run_check("cone-suspension", 30)


def test_criterion_05_path_homology_table():
    # H_1(conf P6) = Z: README erratum and test_path_spaces_match_kozlov.
    run_check("path-homology-table", 5)


def test_criterion_06_cross_polytope_spheres():
    run_check("cross-polytope-spheres", 10)


def test_criterion_07_cube():
    run_check("cube", 10)


def test_criterion_08_minimal_subgraphs():
    run_check("minimal-subgraphs", 30)


def test_criterion_09_extremal_paths():
    run_check("extremal-paths", 30)


def test_criterion_10_no_homomorphism_on_odd_cycles():
    run_check("no-homomorphism-odd-cycles", 10)


def test_criterion_11_suspension_shift():
    run_check("suspension-shift", 20)


def test_criterion_12_property_suites():
    run_check("property-suites", 20)


def test_criterion_13_path_homology_kozlov():
    run_check("path-homology-kozlov", 15)
