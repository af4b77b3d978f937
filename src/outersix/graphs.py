"""Small-graph automorphism search by a stabiliser chain of backtracks.

The engine maps vertices one at a time, in an order fixed once per graph:
the next vertex is the unmapped one with the most mapped neighbors, ties
going to the lowest index.  A vertex with a mapped neighbor can only go to
a neighbor of that neighbor's image; any other vertex can go anywhere.  A
candidate must be unused, have the same color and degree, be adjacent to
the images of all mapped neighbors and to no other used vertex.

The group is read from a stabiliser chain (Sims 1970): with the first d
vertices of the order fixed, the backtrack keeps one verified complete map
per image of vertex d, and the group is every product of one kept map per
level.  Each product is checked again, edge by edge and color by color, so
pruning only prunes, it never vouches.

Automorphisms are returned as Permutation objects acting on 1-based vertex
positions: position k stands for graph.vertices[k-1].  A coloring is always
preserved; a search in which classes may trade places is a search with no
coloring, and reading which class went where is left to the caller (the
cage's edge and factor parts are read in correspondence.py).

A brute-force factorial sweep over all vertex bijections is included as the
independent oracle for small graphs.  Distances, girth and bipartition all
read the layers of one breadth-first traversal.
"""

from __future__ import annotations

import itertools
import math
from typing import Hashable, Iterable, Mapping

from .errors import IntegrityError
from .perms import Permutation

MAX_SEARCH_VERTICES = 64
MAX_BRUTE_FORCE_VERTICES = 8


class Graph:
    """A finite simple undirected graph with a fixed vertex order."""

    __slots__ = ("vertices", "_index", "adjacency")

    def __init__(
        self,
        vertices: Iterable[Hashable],
        edges: Iterable[tuple[Hashable, Hashable]],
    ):
        self.vertices = tuple(vertices)
        self._index = {v: k for k, v in enumerate(self.vertices)}
        if len(self._index) != len(self.vertices):
            raise ValueError("duplicate vertices")
        adjacency: list[set[int]] = [set() for _ in self.vertices]
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at {u!r}")
            if u not in self._index or v not in self._index:
                raise ValueError(f"edge ({u!r}, {v!r}) uses an unknown vertex")
            ui, vi = self._index[u], self._index[v]
            if vi in adjacency[ui]:
                raise ValueError(f"duplicate edge ({u!r}, {v!r})")
            adjacency[ui].add(vi)
            adjacency[vi].add(ui)
        self.adjacency = tuple(frozenset(nbrs) for nbrs in adjacency)

    @property
    def n(self) -> int:
        return len(self.vertices)

    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2

    def edges(self) -> frozenset[frozenset]:
        return frozenset(
            frozenset((self.vertices[u], self.vertices[v]))
            for u in range(self.n)
            for v in self.adjacency[u]
            if u < v
        )

    def index(self, vertex: Hashable) -> int:
        return self._index[vertex]

    def degree(self, vertex: Hashable) -> int:
        return len(self.adjacency[self._index[vertex]])

    def has_edge(self, u: Hashable, v: Hashable) -> bool:
        return self._index[v] in self.adjacency[self._index[u]]


def _normalize_colors(graph: Graph, colors: Mapping | None) -> tuple[int, ...]:
    if colors is None:
        return (0,) * graph.n
    missing = [v for v in graph.vertices if v not in colors]
    if missing:
        raise ValueError(f"colors missing for {len(missing)} vertices")
    distinct = sorted(set(colors.values()))
    rank = {c: k for k, c in enumerate(distinct)}
    return tuple(rank[colors[v]] for v in graph.vertices)


def _search_order(adjacency) -> list[tuple[int, list[int]]]:
    """Each vertex in search order with its neighbors earlier in the order."""
    ordered_neighbors = [0] * len(adjacency)
    remaining = set(range(len(adjacency)))
    order = []
    while remaining:
        v = min(remaining, key=lambda u: (-ordered_neighbors[u], u))
        remaining.remove(v)
        order.append((v, [w for w in adjacency[v] if w not in remaining]))
        for w in adjacency[v]:
            ordered_neighbors[w] += 1
    return order


def _search(graph: Graph, base_colors: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every color-preserving automorphism, one complete vertex map each."""
    adjacency = graph.adjacency
    n = graph.n
    order = _search_order(adjacency)
    image = [-1] * n
    used = [False] * n
    used_neighbors = [0] * n  # per vertex, how many of its neighbors are used

    def candidates(depth):
        v, mapped_neighbors = order[depth]
        anchors = [image[u] for u in mapped_neighbors]
        for w in adjacency[anchors[0]] if anchors else range(n):
            if not (
                used[w]
                or base_colors[w] != base_colors[v]
                or len(adjacency[w]) != len(adjacency[v])
                or used_neighbors[w] != len(anchors)
                or not all(a in adjacency[w] for a in anchors)
            ):
                yield w

    def first_leaf(depth, w):
        """The first complete map that extends the current one, sends vertex
        order[depth] to w and passes the color and neighbor-set test."""
        v = order[depth][0]
        image[v], used[w] = w, True
        for x in adjacency[w]:
            used_neighbors[x] += 1
        leaf = None
        if depth + 1 < n:
            for x in candidates(depth + 1):
                leaf = first_leaf(depth + 1, x)
                if leaf:
                    break
        elif all(
            base_colors[u] == base_colors[image[u]]
            and {image[x] for x in adjacency[u]} == adjacency[image[u]]
            for u in range(n)
        ):
            leaf = tuple(image)
        for x in adjacency[w]:
            used_neighbors[x] -= 1
        image[v], used[w] = -1, False
        return leaf

    transversals = []
    for depth, (v, _) in enumerate(order):  # order[:depth] stays fixed pointwise
        leaves = (first_leaf(depth, w) for w in candidates(depth) if w != v)
        transversals.append([tuple(range(n)), *filter(None, leaves)])
        image[v], used[v] = v, True
        for x in adjacency[v]:
            used_neighbors[x] += 1
    return _products(transversals, adjacency, base_colors)


def _products(transversals, adjacency, colors) -> list[tuple[int, ...]]:
    """Every product u_0·u_1·…·u_{n-1} of one map from each transversal; each
    must be a distinct bijection that keeps every edge and every color."""
    n = len(adjacency)
    edges = [(u, v) for u in range(n) for v in adjacency[u] if u < v]
    group = [tuple(range(n))]
    for transversal in reversed(transversals):
        group = [tuple(map(u.__getitem__, h)) for u in transversal for h in group]
    wrong = sum(
        len(set(p)) != n
        or tuple(map(colors.__getitem__, p)) != colors
        or any(p[v] not in adjacency[p[u]] for u, v in edges)
        for p in group
    )
    if wrong or len(set(group)) != len(group):
        raise IntegrityError(
            f"{len(group)} transversal products hold {len(set(group))} distinct "
            f"maps and {wrong} that are no automorphism"
        )
    return group


def _as_permutations(mappings) -> tuple[Permutation, ...]:
    """Sorted Permutations of vertex maps already known to be bijections."""
    return tuple(
        Permutation._raw(tuple(m + 1 for m in mapping)) for mapping in sorted(mappings)
    )


def automorphism_group(
    graph: Graph, colors: Mapping | None = None
) -> tuple[Permutation, ...]:
    """All automorphisms of the graph that map every vertex within its
    color class; with no coloring, all automorphisms."""
    if graph.n > MAX_SEARCH_VERTICES:
        raise ValueError(
            f"search supported up to {MAX_SEARCH_VERTICES} vertices, "
            f"got {graph.n}"
        )
    if graph.n == 0:
        raise ValueError("empty graph")
    return _as_permutations(_search(graph, _normalize_colors(graph, colors)))


def brute_force_automorphisms(
    graph: Graph, colors: Mapping | None = None
) -> tuple[Permutation, ...]:
    """Oracle: try all |V|! vertex bijections, each dropped at its first edge
    whose image is not an edge (one that keeps every edge sends E onto E)."""
    if graph.n > MAX_BRUTE_FORCE_VERTICES:
        raise ValueError(
            f"brute force supported up to {MAX_BRUTE_FORCE_VERTICES} vertices"
        )
    base = _normalize_colors(graph, colors)
    adjacency = graph.adjacency
    edges = [(u, v) for u in range(graph.n) for v in adjacency[u] if u < v]
    found = []
    for mapping in itertools.permutations(range(graph.n)):
        for u, v in edges:
            if mapping[v] not in adjacency[mapping[u]]:
                break
        else:
            if all(base[v] == base[mapping[v]] for v in range(graph.n)):
                found.append(mapping)
    return _as_permutations(found)


def _breadth_first(adjacency, root: int) -> dict[int, int]:
    """Distance from root to each vertex index it reaches, in breadth-first order."""
    dist = {root: 0}
    queue = [root]
    for v in queue:  # visits the vertices appended below as well
        for w in adjacency[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def distances(graph: Graph, source: Hashable) -> dict:
    """Breadth-first distance from source to each vertex it reaches."""
    dist = _breadth_first(graph.adjacency, graph.index(source))
    return {graph.vertices[v]: d for v, d in dist.items()}


def girth(graph: Graph):
    """Length of a shortest cycle, or math.inf for a forest.

    Read off the distance layers from every root: an edge inside layer d
    closes a cycle of length at most 2d+1, and a vertex with two neighbors
    in layer d-1 one of length at most 2d.  A shortest cycle through the
    root shows up at its exact length, so minimizing over roots is exact.
    """
    adjacency = graph.adjacency
    best = math.inf
    for root in range(graph.n):
        layer = _breadth_first(adjacency, root)
        for v, d in layer.items():
            if any(layer[w] == d for w in adjacency[v]):
                best = min(best, 2 * d + 1)
            if sum(1 for w in adjacency[v] if layer[w] == d - 1) >= 2:
                best = min(best, 2 * d)
    return best


def is_bipartite(graph: Graph) -> tuple[frozenset, frozenset] | None:
    """The two parts when the graph is bipartite and connected pieces allow
    a consistent 2-coloring, otherwise None.  A vertex goes by the parity of
    its layer from the first vertex of its piece, which is in the first part."""
    side: dict[int, int] = {}
    for root in range(graph.n):
        if root not in side:
            layer = _breadth_first(graph.adjacency, root)
            side.update((v, d % 2) for v, d in layer.items())
    if any(side[v] == side[w] for v in side for w in graph.adjacency[v]):
        return None
    return (
        frozenset(graph.vertices[v] for v, s in side.items() if s == 0),
        frozenset(graph.vertices[v] for v, s in side.items() if s == 1),
    )
