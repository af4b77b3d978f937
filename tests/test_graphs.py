import itertools
import math
import random

import pytest

from outersix.correspondence import cage_automorphisms, swaps_parts
from outersix.errors import IntegrityError
from outersix.graphs import (
    MAX_BRUTE_FORCE_VERTICES,
    MAX_SEARCH_VERTICES,
    Graph,
    _products,
    automorphism_group,
    brute_force_automorphisms,
    distances,
    girth,
    is_bipartite,
)
from outersix.icosahedron import IcosahedronModel
from outersix.k6 import tutte_graph
from outersix.perms import Permutation
from outersix.verify import oracle_corpus


def petersen():
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))
        edges.append((i, i + 5))
        edges.append((i + 5, (i + 2) % 5 + 5))
    return Graph(range(10), edges)


def complete(k):
    return Graph(range(k), [(u, v) for u in range(k) for v in range(u + 1, k)])


def test_graph_rejects_loops_and_duplicates():
    with pytest.raises(ValueError):
        Graph([0, 1], [(0, 0)])
    with pytest.raises(ValueError):
        Graph([0, 1], [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph([0, 0, 1], [(0, 1)])
    with pytest.raises(ValueError):
        Graph([0, 1], [(0, 2)])


def test_graph_accessors():
    g = Graph("abc", [("a", "b"), ("b", "c")])
    assert g.n == 3
    assert g.edge_count() == 2
    assert g.degree("b") == 2
    assert {v for v in "abc" if g.has_edge("b", v)} == set("ac")
    assert g.has_edge("a", "b") and not g.has_edge("a", "c")


def test_engine_matches_brute_force_on_corpus():
    corpus = oracle_corpus()
    assert len(corpus) >= 20
    for name, graph, colors in corpus:
        assert graph.n <= MAX_BRUTE_FORCE_VERTICES, name
        expected = brute_force_automorphisms(graph, colors)
        found = automorphism_group(graph, colors)
        assert found == expected, name


def test_corpus_has_disconnected_and_colored_entries():
    names = [name for name, _, _ in oracle_corpus()]
    assert any("union" in n or "two " in n for n in names)
    assert any(colors is not None for _, _, colors in oracle_corpus())


def test_engine_matches_brute_force_on_random_graphs():
    # Any edge density up to 7 vertices; at 8 the oracle sweeps 40,320
    # bijections per graph, so those graphs are drawn at density 1/2.
    rng = random.Random(0xF0221)
    shapes = [(rng.randint(1, 7), rng.random()) for _ in range(150)] + [(8, 0.5)] * 6
    for trial, (n, density) in enumerate(shapes):
        pairs = itertools.combinations(range(n), 2)
        edges = [e for e in pairs if rng.random() < density]
        graph = Graph(range(n), edges)
        for colors in (None, {v: rng.randrange(2) for v in range(n)}):
            expected = brute_force_automorphisms(graph, colors)
            assert automorphism_group(graph, colors) == expected, (trial, edges, colors)


def neighbour_set_sweep(graph, colors=None):
    """The oracle's earlier definition: every bijection that keeps the colors
    and sends each vertex's neighbour set onto its image's."""
    base = (0,) * graph.n if colors is None else [colors[v] for v in graph.vertices]
    adjacency = graph.adjacency
    found = []
    for mapping in itertools.permutations(range(graph.n)):
        if any(base[v] != base[mapping[v]] for v in range(graph.n)):
            continue
        if all(
            {mapping[w] for w in adjacency[v]} == set(adjacency[mapping[v]])
            for v in range(graph.n)
        ):
            found.append(Permutation(tuple(m + 1 for m in mapping)))
    return tuple(sorted(found))


def test_brute_force_equals_the_neighbour_set_sweep():
    rng = random.Random(0x0AC1E)
    shapes = [(n, 0.0) for n in range(1, 7)]  # the edgeless graphs
    shapes += [(rng.randint(1, 6), rng.random()) for _ in range(120)]
    for n, density in shapes:
        pairs = itertools.combinations(range(n), 2)
        graph = Graph(range(n), [e for e in pairs if rng.random() < density])
        for colors in (None, {v: rng.randrange(2) for v in range(n)}):
            expected = neighbour_set_sweep(graph, colors)
            assert brute_force_automorphisms(graph, colors) == expected


def heawood():
    cycle = [(v, (v + 1) % 14) for v in range(14)]
    return Graph(range(14), cycle + [(v, (v + 5) % 14) for v in range(0, 14, 2)])


def hypercube(d):
    bits = [1 << b for b in range(d)]
    edges = [(v, v | b) for v in range(2**d) for b in bits if not v & b]
    return Graph(range(2**d), edges)


def dodecahedron():
    edges = []
    for i in range(5):
        j = (i + 1) % 5
        edges += [(i, j), (i, i + 5), (i + 5, i + 10), (j + 5, i + 10)]
        edges += [(i + 10, i + 15), (i + 15, j + 15)]
    return Graph(range(20), edges)


def torus_graph(steps):
    """Cayley graph of Z4 x Z4 with the given connection set."""
    cells = list(itertools.product(range(4), repeat=2))
    def step(a, b):
        return ((b[0] - a[0]) % 4, (b[1] - a[1]) % 4)

    pairs = itertools.combinations(cells, 2)
    return Graph(cells, [(a, b) for a, b in pairs if step(a, b) in steps])


def paley13():
    squares = {k * k % 13 for k in range(1, 13)}
    pairs = itertools.combinations(range(13), 2)
    return Graph(range(13), [(u, v) for u, v in pairs if v - u in squares])


SHRIKHANDE = {(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)}


def test_known_group_orders():
    assert len(automorphism_group(complete(4))) == 24
    assert len(automorphism_group(petersen())) == 120
    cycle6 = Graph(range(6), [(v, (v + 1) % 6) for v in range(6)])
    assert len(automorphism_group(cycle6)) == 12
    # Beyond the oracle's reach: orders known from the literature.
    assert len(automorphism_group(heawood())) == 336
    assert len(automorphism_group(hypercube(4))) == 384
    assert len(automorphism_group(dodecahedron())) == 120
    rook = {(0, k) for k in (1, 2, 3)} | {(k, 0) for k in (1, 2, 3)}
    assert len(automorphism_group(torus_graph(rook))) == 1152
    assert len(automorphism_group(torus_graph(SHRIKHANDE))) == 192
    assert len(automorphism_group(paley13())) == 78


def vf2_automorphisms(nx, graph, colors=None):
    """The vertex maps networkx's VF2 matcher finds from the graph onto
    itself, as Permutation images; it shares no search code with the engine."""
    g = nx.Graph()
    g.add_nodes_from(graph.vertices)
    g.add_edges_from(tuple(edge) for edge in graph.edges())
    if colors is not None:
        nx.set_node_attributes(g, colors, "color")
    same = None if colors is None else lambda a, b: a["color"] == b["color"]
    matcher = nx.algorithms.isomorphism.GraphMatcher(g, g, node_match=same)
    return {
        tuple(graph.index(m[v]) + 1 for v in graph.vertices)
        for m in matcher.isomorphisms_iter()
    }


def test_engine_matches_vf2_beyond_the_brute_force():
    nx = pytest.importorskip("networkx")
    graphs = [petersen(), heawood(), hypercube(4), dodecahedron(), paley13()]
    graphs += [torus_graph(SHRIKHANDE), IcosahedronModel().skeleton]
    for graph in graphs:
        expected = vf2_automorphisms(nx, graph)
        found = automorphism_group(graph)
        assert {p.images for p in found} == expected
        assert len(found) == len(expected)


def test_engine_matches_vf2_on_random_graphs_of_nine_to_twelve_vertices():
    nx = pytest.importorskip("networkx")
    rng = random.Random(0x5F2)
    for trial in range(60):
        n, density = rng.randint(9, 12), rng.uniform(0.3, 0.7)
        if trial % 2:  # a prism: two copies of one graph, joined vertex to vertex
            n = (n + 1) // 2
        pairs = itertools.combinations(range(n), 2)
        edges = [e for e in pairs if rng.random() < density]
        if trial % 2:
            edges += [(u + n, v + n) for u, v in edges] + [(v, v + n) for v in range(n)]
            n *= 2
        graph = Graph(range(n), edges)
        for colors in (None, {v: rng.randrange(2) for v in range(n)}):
            expected = vf2_automorphisms(nx, graph, colors)
            found = automorphism_group(graph, colors)
            assert {p.images for p in found} == expected, (trial, colors)
            assert len(found) == len(expected)


def test_transversal_products_refuse_a_repeat_or_a_non_automorphism():
    square = Graph(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)])
    identity, turn, flip = (0, 1, 2, 3), (1, 2, 3, 0), (1, 0, 2, 3)
    plain, corners = (0, 0, 0, 0), (0, 1, 0, 1)
    products = _products([[identity, turn], [identity]], square.adjacency, plain)
    assert sorted(products) == [identity, turn]
    repeat = [[identity, turn], [identity, turn]]  # turn·identity = identity·turn
    with pytest.raises(IntegrityError, match="4 .* hold 3 distinct maps and 0 "):
        _products(repeat, square.adjacency, plain)
    with pytest.raises(IntegrityError, match="2 .* hold 2 distinct maps and 1 "):
        _products([[identity, flip]], square.adjacency, plain)  # breaks edge 1-2
    with pytest.raises(IntegrityError, match="2 .* hold 2 distinct maps and 1 "):
        _products([[identity, turn]], square.adjacency, corners)  # moves a color


def test_automorphisms_fix_adjacency():
    g = petersen()
    for p in automorphism_group(g):
        mapping = dict(zip(g.vertices, [g.vertices[k - 1] for k in p.images]))
        for u, v in ((a, b) for a in range(10) for b in range(a + 1, 10)):
            assert g.has_edge(u, v) == g.has_edge(mapping[u], mapping[v])


def test_cage_group_closure():
    graph = tutte_graph()
    found = set(automorphism_group(graph))
    identity = next(p for p in found if p.is_identity())
    assert identity.degree == 30
    for p in found:
        assert p.inverse() in found
    rng = random.Random(0xCA6E)
    members = sorted(found)
    for _ in range(2000):
        a, b = rng.choice(members), rng.choice(members)
        assert a * b in found


def test_allow_swap_contains_preserve():
    graph = tutte_graph()
    preserving = set(automorphism_group(graph, {v: v[0] for v in graph.vertices}))
    assert len(preserving) == 720
    assert preserving == {a for a in cage_automorphisms() if not swaps_parts(a)}


def test_allow_swap_on_complete_bipartite():
    g = Graph(range(6), [(u, v) for u in range(3) for v in range(3, 6)])
    colors = {v: 0 if v < 3 else 1 for v in range(6)}
    assert len(automorphism_group(g, colors)) == 36
    assert len(automorphism_group(g)) == 72


def test_size_guards():
    too_big = Graph(range(MAX_SEARCH_VERTICES + 1), [])
    with pytest.raises(ValueError):
        automorphism_group(too_big)
    nine = Graph(range(MAX_BRUTE_FORCE_VERTICES + 1), [])
    with pytest.raises(ValueError):
        brute_force_automorphisms(nine)
    with pytest.raises(ValueError):
        automorphism_group(Graph([], []))


def test_unknown_mode_and_missing_color():
    with pytest.raises(ValueError):
        automorphism_group(complete(3), {0: 0, 1: 0})


def test_distances():
    g = Graph("abcde", [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")])
    assert distances(g, "a") == {"a": 0, "b": 1, "c": 1, "d": 2}
    assert distances(g, "e") == {"e": 0}
    assert all(distances(petersen(), v)[w] <= 2 for v in range(10) for w in range(10))


def test_girth_frozen_values():
    assert girth(complete(3)) == 3
    assert girth(Graph(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)])) == 4
    assert girth(petersen()) == 5
    assert girth(Graph(range(7), [(v, (v + 1) % 7) for v in range(7)])) == 7
    assert girth(tutte_graph()) == 8
    assert girth(IcosahedronModel().skeleton) == 3


def test_girth_of_forests_is_infinite():
    assert girth(Graph(range(5), [(0, 1), (1, 2), (3, 4)])) == math.inf
    assert girth(Graph(range(3), [])) == math.inf


def test_bipartite_detection():
    parts = is_bipartite(tutte_graph())
    assert parts is not None
    small, large = sorted(map(len, parts))
    assert (small, large) == (15, 15)
    assert is_bipartite(petersen()) is None
    assert is_bipartite(complete(3)) is None
    even = Graph(range(6), [(v, (v + 1) % 6) for v in range(6)])
    assert is_bipartite(even) is not None


def _shortest_cycle_by_exhaustion(graph):
    """Oracle: the least k for which k distinct vertices, in cyclic order,
    are joined consecutively; math.inf when no k works."""
    adjacency = graph.adjacency
    for k in range(3, graph.n + 1):
        for cycle in itertools.permutations(range(graph.n), k):
            if cycle[0] == min(cycle) and all(
                cycle[i - 1] in adjacency[cycle[i]] for i in range(k)
            ):
                return k
    return math.inf


def _parts_by_exhaustion(graph):
    """Oracle: the lexicographically first proper 2-coloring as two parts,
    so each connected piece's first vertex is in the first part."""
    for coloring in itertools.product((0, 1), repeat=graph.n):
        if all(coloring[u] != coloring[v] for u, v in graph.edges()):
            return tuple(
                frozenset(v for v in range(graph.n) if coloring[v] == side)
                for side in (0, 1)
            )
    return None


def test_girth_and_bipartition_match_exhaustive_search_on_random_graphs():
    rng = random.Random(0x6127)
    girths, disconnected = set(), 0
    for _ in range(400):
        # Sparse random edges, plus a cycle through a random vertex sample so
        # that long shortest cycles of both parities come up.
        n, density = rng.randint(1, 7), rng.random() ** 3
        pairs = itertools.combinations(range(n), 2)
        edges = {e for e in pairs if rng.random() < density}
        ring = rng.sample(range(n), rng.randint(0, n))
        if len(ring) >= 3:
            edges |= {tuple(sorted((ring[i - 1], ring[i]))) for i in range(len(ring))}
        graph = Graph(range(n), sorted(edges))
        assert girth(graph) == _shortest_cycle_by_exhaustion(graph), edges
        assert is_bipartite(graph) == _parts_by_exhaustion(graph), edges
        girths.add(girth(graph))
        disconnected += len(distances(graph, 0)) < n
    assert girths == {3, 4, 5, 6, 7, math.inf}
    assert disconnected >= 100
