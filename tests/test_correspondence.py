import random

import pytest

from outersix.autgroup import (
    enumerate_automorphisms,
    inner_and_outer,
    inner_witness,
    involutive_outer_count,
)
from outersix.correspondence import (
    cage_automorphisms,
    correspondence,
    graph_aut_to_group_aut,
    involutive_swaps_count,
    swaps_parts,
)
from outersix.errors import IntegrityError
from outersix.k6 import edge_to_transposition, factor_to_involution, tutte_graph
from outersix.perms import Permutation


def test_cage_automorphism_count():
    assert len(cage_automorphisms()) == 1440


def test_identity_maps_to_identity():
    identity = next(a for a in cage_automorphisms() if a.is_identity())
    assert graph_aut_to_group_aut(identity).is_identity()


def test_correspondence_is_a_bijection_onto_aut():
    pairs = correspondence()
    assert len(pairs) == 1440
    tables = [table for _, table in pairs]
    assert len(set(tables)) == 1440
    assert set(tables) == set(enumerate_automorphisms(6))
    assert all(t.is_homomorphism() for t in tables)


def test_part_action_separates_inner_from_outer():
    inner, outer = inner_and_outer(6)
    inner_set, outer_set = set(inner), set(outer)
    preserving = set()
    swapping = set()
    for cage_aut, table in correspondence():
        (swapping if swaps_parts(cage_aut) else preserving).add(table)
    assert preserving == inner_set
    assert swapping == outer_set


def test_every_preserving_image_has_a_conjugation_witness():
    rng = random.Random(21)
    pairs = [pair for pair in correspondence() if not swaps_parts(pair[0])]
    for cage_aut, table in rng.sample(pairs, 25):
        witness = inner_witness(table)
        assert witness is not None


def test_involutive_swaps_match_involutive_outer():
    assert involutive_swaps_count() == 36
    assert involutive_swaps_count() == involutive_outer_count()


def test_correspondence_respects_composition():
    pairs = correspondence()
    by_graph_aut = {cage_aut: table for cage_aut, table in pairs}
    rng = random.Random(0xC0117)
    sample = rng.sample(pairs, 40)
    for (a, table_a), (b, table_b) in zip(sample, reversed(sample)):
        assert by_graph_aut[a * b] == table_a.compose(table_b)


def test_correspondence_respects_inverse():
    pairs = correspondence()
    by_graph_aut = {cage_aut: table for cage_aut, table in pairs}
    rng = random.Random(8)
    for cage_aut, table in rng.sample(pairs, 40):
        assert by_graph_aut[cage_aut.inverse()] == table.inverse()


def test_each_table_agrees_with_its_cage_map_on_every_vertex():
    """The induced table sends the Sym_6 element of each cage vertex v to the
    element of a(v), on both parts."""
    vertices = tutte_graph().vertices
    of_tag = {"e": edge_to_transposition, "f": factor_to_involution}

    def element(position):
        tag, x = vertices[position - 1]
        return of_tag[tag](x)

    rng = random.Random(0x5EED)
    for a, table in rng.sample(correspondence(), 40):
        for v in range(1, len(vertices) + 1):
            assert table.apply(element(v)) == element(a(v))


def test_swapping_an_edge_and_a_factor_vertex_is_an_integrity_error():
    graph = tutte_graph()
    images = list(range(1, graph.n + 1))
    a, b = graph.index(("e", (1, 2))), graph.index(("f", ((1, 2), (3, 4), (5, 6))))
    images[a], images[b] = images[b], images[a]
    mixed = Permutation(images)
    with pytest.raises(IntegrityError, match="mix of both parts"):
        swaps_parts(mixed)
    with pytest.raises(IntegrityError, match="mix of both parts"):
        graph_aut_to_group_aut(mixed)


def test_swapping_two_edge_vertices_is_an_integrity_error():
    graph = tutte_graph()
    images = list(range(1, graph.n + 1))
    a, b = graph.index(("e", (1, 2))), graph.index(("e", (3, 4)))
    images[a], images[b] = images[b], images[a]
    with pytest.raises(IntegrityError, match="matches no automorphism"):
        graph_aut_to_group_aut(Permutation(images))


def test_swapping_two_factor_vertices_is_an_integrity_error():
    # The edge vertices alone fix the table, so only a key that covers the
    # factor part as well can refuse this map.
    graph = tutte_graph()
    images = list(range(1, graph.n + 1))
    a = graph.index(("f", ((1, 2), (3, 4), (5, 6))))
    b = graph.index(("f", ((1, 2), (3, 5), (4, 6))))
    images[a], images[b] = images[b], images[a]
    with pytest.raises(IntegrityError, match="matches no automorphism"):
        graph_aut_to_group_aut(Permutation(images))
