import random

import pytest

from outersix import autgroup, verify
from outersix import correspondence as transport
from outersix.autgroup import (
    enumerate_automorphisms,
    inner_and_outer,
    inner_witness,
    involutive_outer_count,
)
from outersix.correspondence import (
    cage_automorphisms,
    correspondence,
    involutive_swaps_count,
    swaps_parts,
)
from outersix.errors import IntegrityError
from outersix.k6 import edge_to_transposition, factor_to_involution, tutte_graph
from outersix.perms import Permutation


def test_cage_automorphism_count():
    assert len(cage_automorphisms()) == 1440


def test_identity_maps_to_identity():
    table = next(t for a, t, _ in correspondence() if a.is_identity())
    assert table.is_identity()


def test_correspondence_is_a_bijection_onto_aut():
    triples = correspondence()
    assert len(triples) == 1440
    tables = [table for _, table, _ in triples]
    assert len(set(tables)) == 1440
    assert set(tables) == set(enumerate_automorphisms(6))
    assert all(t.is_homomorphism() for t in tables)


def test_part_action_separates_inner_from_outer():
    inner, outer = inner_and_outer(6)
    inner_set, outer_set = set(inner), set(outer)
    preserving = set()
    swapping = set()
    for cage_aut, table, swaps in correspondence():
        assert swaps == swaps_parts(cage_aut)
        (swapping if swaps else preserving).add(table)
    assert preserving == inner_set
    assert swapping == outer_set


def test_every_preserving_image_has_a_conjugation_witness():
    rng = random.Random(21)
    tables = [table for _, table, swaps in correspondence() if not swaps]
    for table in rng.sample(tables, 25):
        witness = inner_witness(table)
        assert witness is not None


def test_involutive_swaps_match_involutive_outer():
    assert involutive_swaps_count() == 36
    assert involutive_swaps_count() == involutive_outer_count()


def test_correspondence_respects_composition():
    triples = correspondence()
    by_graph_aut = {cage_aut: table for cage_aut, table, _ in triples}
    rng = random.Random(0xC0117)
    sample = [(a, table) for a, table, _ in rng.sample(triples, 40)]
    for (a, table_a), (b, table_b) in zip(sample, reversed(sample)):
        assert by_graph_aut[a * b] == table_a.compose(table_b)


def test_correspondence_respects_inverse():
    triples = correspondence()
    by_graph_aut = {cage_aut: table for cage_aut, table, _ in triples}
    rng = random.Random(8)
    for cage_aut, table, _ in rng.sample(triples, 40):
        assert by_graph_aut[cage_aut.inverse()].compose(table).is_identity()


def test_each_table_agrees_with_its_cage_map_on_every_vertex():
    """The induced table sends the Sym_6 element of each cage vertex v to the
    element of a(v), on both parts."""
    vertices = tutte_graph().vertices
    of_tag = {"e": edge_to_transposition, "f": factor_to_involution}

    def element(position):
        tag, x = vertices[position - 1]
        return of_tag[tag](x)

    rng = random.Random(0x5EED)
    for a, table, _ in rng.sample(correspondence(), 40):
        for v in range(1, len(vertices) + 1):
            assert table.apply(element(v)) == element(a(v))


def _transport_only(monkeypatch, images):
    """Runs the transport pass on the one cage map with these images."""
    only = (Permutation(images),)
    monkeypatch.setattr(transport, "cage_automorphisms", lambda: only)
    return correspondence()


def test_swapping_an_edge_and_a_factor_vertex_is_an_integrity_error(monkeypatch):
    graph = tutte_graph()
    images = list(range(1, graph.n + 1))
    a, b = graph.index(("e", (1, 2))), graph.index(("f", ((1, 2), (3, 4), (5, 6))))
    images[a], images[b] = images[b], images[a]
    with pytest.raises(IntegrityError, match="mix of both parts"):
        swaps_parts(Permutation(images))
    with pytest.raises(IntegrityError, match="mix of both parts"):
        _transport_only(monkeypatch, images)


def test_swapping_two_edge_vertices_is_an_integrity_error(monkeypatch):
    graph = tutte_graph()
    images = list(range(1, graph.n + 1))
    a, b = graph.index(("e", (1, 2))), graph.index(("e", (3, 4)))
    images[a], images[b] = images[b], images[a]
    with pytest.raises(IntegrityError, match="matches no automorphism"):
        _transport_only(monkeypatch, images)


def test_swapping_two_factor_vertices_is_an_integrity_error(monkeypatch):
    # The edge vertices alone fix the table, so only a key that covers the
    # factor part as well can refuse this map.
    graph = tutte_graph()
    images = list(range(1, graph.n + 1))
    a = graph.index(("f", ((1, 2), (3, 4), (5, 6))))
    b = graph.index(("f", ((1, 2), (3, 5), (4, 6))))
    images[a], images[b] = images[b], images[a]
    with pytest.raises(IntegrityError, match="matches no automorphism"):
        _transport_only(monkeypatch, images)


def test_the_cage_check_reads_each_part_action_once(monkeypatch):
    """The transport pass returns each map's part action, so the check
    reads it from there and scans the 1440 maps only once."""
    calls = []

    def counted(automorphism):
        calls.append(automorphism)
        return swaps_parts(automorphism)

    monkeypatch.setattr(transport, "swaps_parts", counted)
    verify.check_cage_correspondence()
    assert len(calls) == 1440


def test_the_cage_route_to_36_reads_no_sym6_table(monkeypatch, reset_caches):
    """involutive-counts compares two routes to 36; the cage route searches
    the graph alone, without the transport or any Sym_6 table."""

    def refused(*args):
        raise AssertionError("the cage route read a Sym_6 table")

    for module in (autgroup, transport):
        monkeypatch.setattr(module, "sym", refused)
        monkeypatch.setattr(module, "enumerate_automorphisms", refused)
    reset_caches(cage_automorphisms)
    assert involutive_swaps_count() == 36
