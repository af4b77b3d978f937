"""K6 edge/factor geometry, the doily, and the incidence cage."""

import itertools
import math
import re

import pytest

from outersix.errors import IntegrityError
from outersix.graphs import automorphism_group, girth, is_bipartite
from outersix.involutions import maximal_independent_sets
from outersix.k6 import (
    IncidenceStructure,
    check_gq_axioms,
    doily,
    doily_dot,
    doily_document,
    edge_to_transposition,
    edges,
    factor_to_involution,
    factorizations,
    factorizations_through,
    factors,
    permute_edge,
    permute_factor,
    permute_factorization,
    stars,
    tutte_dot,
    tutte_graph,
)
from outersix.perms import Permutation, enumerate_sym, involution_class


def test_basic_counts():
    assert len(edges()) == 15
    assert len(factors()) == 15
    assert list(factors()) == sorted(factors())
    assert len(stars()) == 6
    assert len(factorizations()) == 6


def test_factors_partition_points():
    for f in factors():
        covered = sorted(p for e in f for p in e)
        assert covered == [1, 2, 3, 4, 5, 6]


def test_each_edge_in_three_factors():
    structure = doily()
    assert structure.points == edges()
    for e in edges():
        through = structure.lines_through(e)
        assert len(through) == 3
        assert set(through) == {frozenset(f) for f in factors() if e in f}


def test_each_factor_in_two_factorizations():
    for f in factors():
        assert len(factorizations_through(f)) == 2


def test_factorizations_cover_edges():
    for fz in factorizations():
        assert len(fz) == 5
        assert sorted(e for f in fz for e in f) == list(edges())


def test_edge_transposition_bijection():
    seen = {edge_to_transposition(e) for e in edges()}
    assert seen == set(involution_class(6, 1))


def test_factor_involution_bijection():
    seen = {factor_to_involution(f) for f in factors()}
    assert seen == set(involution_class(6, 3))


def test_stars_match_involution_analysis():
    star_transpositions = {
        frozenset(edge_to_transposition(e) for e in star_edges)
        for star_edges in stars().values()
    }
    assert star_transpositions == maximal_independent_sets(6)


def test_commuting_iff_disjoint():
    for e, f in itertools.combinations(edges(), 2):
        disjoint = not set(e) & set(f)
        commute = edge_to_transposition(e).commutes_with(edge_to_transposition(f))
        assert commute == disjoint


def test_doily_satisfies_gq_axioms():
    check_gq_axioms(doily())


def test_gq_axiom_checker_rejects_broken_structures():
    # A line of two points.
    broken = IncidenceStructure("abc", ["ab", "abc"])
    with pytest.raises(IntegrityError, match="line size axiom"):
        check_gq_axioms(broken)
    # A grid with a point on too few lines.
    broken = IncidenceStructure("abcdef", ["abc", "def"])
    with pytest.raises(IntegrityError, match="point degree axiom"):
        check_gq_axioms(broken)


def test_gq_axiom_checker_rejects_two_lines_through_two_points():
    # The faces of a tetrahedron: lines of 3, points on 3, but abc, abd share ab.
    broken = IncidenceStructure("abcd", ["abc", "abd", "acd", "bcd"])
    with pytest.raises(IntegrityError, match="two lines share 2 points"):
        check_gq_axioms(broken)


def test_gq_axiom_checker_rejects_a_projective_plane():
    # The Fano plane: a point off a line sees it through all 3 of its lines.
    fano = ["123", "145", "167", "246", "257", "347", "356"]
    with pytest.raises(IntegrityError, match="unique transversal axiom"):
        check_gq_axioms(IncidenceStructure("1234567", fano))


def test_incidence_structure_validation():
    with pytest.raises(ValueError):
        IncidenceStructure("aab", ["ab"])
    with pytest.raises(ValueError):
        IncidenceStructure("abc", ["ad"])
    with pytest.raises(ValueError):
        IncidenceStructure("abc", ["ab", "ba"])


def test_sym6_action_on_edges_and_factors():
    g = Permutation.from_cycles(6, [(1, 2, 3, 4, 5, 6)])
    assert set(permute_edge(g, e) for e in edges()) == set(edges())
    assert set(permute_factor(g, f) for f in factors()) == set(factors())
    # Conjugation matches the geometric action.
    for e in edges():
        assert (
            edge_to_transposition(permute_edge(g, e))
            == edge_to_transposition(e).conjugate(g)
        )
    for f in factors():
        assert (
            factor_to_involution(permute_factor(g, f))
            == factor_to_involution(f).conjugate(g)
        )


def test_sym6_action_on_stars_is_natural():
    star_sets = stars()
    for g in (Permutation.from_cycles(6, [(1, 4)]), Permutation.full_cycle(6)):
        for i, star_edges in star_sets.items():
            assert {permute_edge(g, e) for e in star_edges} == star_sets[g(i)]


def test_sym6_action_on_factorizations_transitive_and_faithful():
    fzs = factorizations()
    base = fzs[0]
    orbit = {permute_factorization(g, base) for g in enumerate_sym(6)}
    assert orbit == set(fzs)
    kernel = [
        g
        for g in enumerate_sym(6)
        if all(permute_factorization(g, fz) == fz for fz in fzs)
    ]
    assert kernel == [Permutation.identity(6)]


def test_cage_shape():
    g = tutte_graph()
    assert g.n == 30
    assert g.edge_count() == 45
    assert all(g.degree(v) == 3 for v in g.vertices)
    assert girth(g) == 8
    parts = is_bipartite(g)
    assert parts is not None
    assert sorted(len(p) for p in parts) == [15, 15]


def test_cage_automorphism_counts():
    g = tutte_graph()
    preserving = automorphism_group(g, {v: v[0] for v in g.vertices})
    assert len(preserving) == 720
    full = automorphism_group(g)
    assert len(full) == 1440
    assert set(preserving) <= set(full)


def test_doily_json_document():
    document = doily_document()
    assert set(document) == {"points", "lines", "incidence"}
    assert len(document["points"]) == 15
    assert len(document["lines"]) == 15
    assert all(len(line) == 3 for line in document["lines"])
    assert len(document["incidence"]) == 45
    # Deterministic output.
    assert doily_document() == document


NODE_RE = re.compile(r"^\s+\w+ \[[^\]]*\];$")
EDGE_RE = re.compile(r"^\s+\w+ -- \w+;$")


@pytest.mark.parametrize("render", [doily_dot, tutte_dot])
def test_dot_documents_are_well_formed(render):
    text = render()
    lines = text.strip().splitlines()
    assert lines[0].startswith("graph ")
    assert lines[0].endswith("{")
    assert lines[-1] == "}"
    node_lines = [l for l in lines if NODE_RE.match(l)]
    edge_lines = [l for l in lines if EDGE_RE.match(l)]
    assert len(node_lines) == 31  # 30 vertices plus the node defaults line
    assert len(edge_lines) == 45
    assert text.count("fillcolor=white") == 15
    assert text.count("fillcolor=black") == 15
    assert render() == text  # deterministic
