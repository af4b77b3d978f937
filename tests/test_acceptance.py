"""Acceptance gate: one test per headline claim, one printed line each.

Each test runs the matching registry check from outersix.verify and prints
a single PASS/FAIL line, so `pytest -v tests/test_acceptance.py -s` reads
as a claim-by-claim scorecard.  The checks themselves raise with a message
naming the first violated fact.
"""

import subprocess
import sys
import textwrap

from outersix import verify


def _run(number: int, check_name: str, summary: str) -> dict:
    result = verify.run_checks([check_name])[0]
    status = "PASS" if result["passed"] else "FAIL"
    print(f"{status} criterion {number}: {summary}")
    assert result["passed"], (check_name, result["details"])
    return result["details"]


def test_criterion_01_outer_orders():
    details = _run(
        1,
        "outer-orders",
        "Out(Sym_n) trivial at degrees 3, 4, 5 and of order 2 at degree 6",
    )
    assert details["out_orders"] == {"3": 1, "4": 1, "5": 1, "6": 2}


def test_criterion_01b_degree_six_search_fits_the_time_budget(package_env):
    code = textwrap.dedent(
        """
        import time
        from outersix.autgroup import enumerate_automorphisms
        started = time.monotonic()
        found = enumerate_automorphisms(6)
        elapsed = time.monotonic() - started
        print(f"{len(found)} {elapsed:.2f}")
        """
    )
    completed = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=150,
        env=package_env,
    )
    assert completed.returncode == 0, completed.stderr
    count, elapsed = completed.stdout.split()
    assert int(count) == 1440
    assert float(elapsed) < 120.0
    print(
        f"PASS criterion 1 (time): degree-6 search took {elapsed}s "
        "in a fresh interpreter, budget 120s"
    )


def test_criterion_02_automorphism_group_sizes():
    details = _run(
        2,
        "aut-group-sizes",
        "1440 automorphisms of Sym_6, 720 of them conjugations",
    )
    assert details["aut_order"] == 1440
    assert details["inner_order"] == 720


def test_criterion_03_maximal_sets_are_stars():
    _run(
        3,
        "stars",
        "maximal independent transposition sets = point stars, degrees 3-7",
    )


def test_criterion_04_spectrum_survey():
    details = _run(
        4,
        "spectrum-survey",
        "product-order spectra leave (6,3) as the only surviving class",
    )
    assert details["survivors"] == [[6, 3]]


def test_criterion_05_labeled_icosahedra():
    details = _run(
        5,
        "labeled-icosahedra",
        "720 labelings, 12 rotation classes of 60, 6 complementary pairs",
    )
    assert details == {"classes": 12, "orbit_size": 60, "dual_pairs": 6}


def test_criterion_06_induced_map_is_outer():
    _run(
        6,
        "induced-map-outer",
        "induced letter map is a bijective homomorphism swapping the "
        "transposition and triple-swap classes; 720 identifications fill "
        "the outer coset",
    )


def test_criterion_07_edge_factor_dictionary():
    details = _run(
        7,
        "k6-dictionary",
        "15 edges, 15 factors, 6 stars, 6 factorizations, quadrangle axioms, "
        "30-vertex cubic girth-8 incidence graph",
    )
    assert details["girth"] == 8
    assert details["stars"] == 6


def test_criterion_08_cage_correspondence():
    _run(
        8,
        "cage-correspondence",
        "1440 cage automorphisms map bijectively onto Aut(Sym_6), "
        "part-preserving half = conjugations",
    )


def test_criterion_09_involutive_counts():
    details = _run(
        9,
        "involutive-counts",
        "36 involutive outer automorphisms, equal by both routes",
    )
    assert details["involutive_outer"] == 36


def test_criterion_10_engine_matches_oracle():
    details = _run(
        10,
        "engine-oracle",
        "search engine equals factorial brute force on the whole corpus",
    )
    assert details["graphs"] >= 20


def test_criterion_11_permutation_algebra():
    _run(
        11,
        "permutation-algebra",
        "group axioms exhaustively at degree 4, sampled at degree 6",
    )
