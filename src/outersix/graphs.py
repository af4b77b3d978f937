"""Small-graph automorphism search by color refinement and backtracking.

The engine individualizes one vertex at a time and re-refines: vertices are
colored, each round replaces a vertex's color with (color, sorted multiset
of neighbor colors), and rounds repeat until the partition stops splitting.
The search tracks two colorings of the same graph, one for the source side
and one for the image side, branching on the smallest non-singleton cell.
Every leaf candidate is verified edge by edge before it is accepted, so
refinement only prunes, it never vouches.

Automorphisms are returned as Permutation objects acting on 1-based vertex
positions: position k stands for graph.vertices[k-1].  A coloring is always
preserved; a search in which classes may trade places is a search with no
coloring, and reading which class went where is left to the caller (the
cage's edge and factor parts are read in correspondence.py).

A brute-force factorial sweep over all vertex bijections is included as the
independent oracle for small graphs.
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

    def neighbors(self, vertex: Hashable) -> frozenset:
        return frozenset(
            self.vertices[k] for k in self.adjacency[self._index[vertex]]
        )

    def degree(self, vertex: Hashable) -> int:
        return len(self.adjacency[self._index[vertex]])

    def has_edge(self, u: Hashable, v: Hashable) -> bool:
        return self._index[v] in self.adjacency[self._index[u]]

    def vertex_map(self, automorphism: Permutation) -> dict:
        """Translate a position permutation into a vertex-to-vertex dict."""
        return {
            self.vertices[k - 1]: self.vertices[automorphism(k) - 1]
            for k in range(1, self.n + 1)
        }


def _normalize_colors(graph: Graph, colors: Mapping | None) -> tuple[int, ...]:
    if colors is None:
        return (0,) * graph.n
    missing = [v for v in graph.vertices if v not in colors]
    if missing:
        raise ValueError(f"colors missing for {len(missing)} vertices")
    distinct = sorted(set(colors.values()))
    rank = {c: k for k, c in enumerate(distinct)}
    return tuple(rank[colors[v]] for v in graph.vertices)


def _refine_pair(adjacency, colors_a, colors_b):
    """Refine two colorings of one graph in lockstep.

    Returns the stabilized pair, or None when the colorings disagree on the
    multiset of refined colors (no automorphism can match them).
    """
    n = len(colors_a)
    while True:
        sigs_a = [
            (colors_a[v], tuple(sorted(colors_a[w] for w in adjacency[v])))
            for v in range(n)
        ]
        sigs_b = [
            (colors_b[v], tuple(sorted(colors_b[w] for w in adjacency[v])))
            for v in range(n)
        ]
        if sorted(sigs_a) != sorted(sigs_b):
            return None
        palette = {sig: k for k, sig in enumerate(sorted(set(sigs_a)))}
        new_a = tuple(palette[s] for s in sigs_a)
        new_b = tuple(palette[s] for s in sigs_b)
        if len(set(new_a)) == len(set(colors_a)):
            return new_a, new_b
        colors_a, colors_b = new_a, new_b


def _cells(colors):
    cells: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        cells.setdefault(c, []).append(v)
    return cells


def _search(graph: Graph, base_colors: tuple[int, ...]) -> list[tuple[int, ...]]:
    adjacency = graph.adjacency
    n = graph.n
    found: list[tuple[int, ...]] = []

    def leaf(colors_a, colors_b):
        position_of = {c: v for v, c in enumerate(colors_b)}
        mapping = tuple(position_of[c] for c in colors_a)
        for v in range(n):
            if base_colors[v] != base_colors[mapping[v]]:
                return
            if {mapping[w] for w in adjacency[v]} != set(adjacency[mapping[v]]):
                return
        found.append(mapping)

    def descend(colors_a, colors_b):
        refined = _refine_pair(adjacency, colors_a, colors_b)
        if refined is None:
            return
        colors_a, colors_b = refined
        cells_a = _cells(colors_a)
        open_cells = [
            (len(vs), c) for c, vs in cells_a.items() if len(vs) > 1
        ]
        if not open_cells:
            leaf(colors_a, colors_b)
            return
        _, color = min(open_cells)
        cells_b = _cells(colors_b)
        v = cells_a[color][0]
        fresh = n  # larger than any refined color id
        next_a = list(colors_a)
        next_a[v] = fresh
        next_a = tuple(next_a)
        for u in cells_b[color]:
            next_b = list(colors_b)
            next_b[u] = fresh
            descend(next_a, tuple(next_b))

    descend(base_colors, base_colors)
    if len(set(found)) != len(found):
        raise IntegrityError("duplicate automorphisms from distinct leaves")
    return found


def _as_permutations(mappings) -> tuple[Permutation, ...]:
    return tuple(
        sorted(
            Permutation(tuple(m + 1 for m in mapping)) for mapping in mappings
        )
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
    """Oracle: try all |V|! vertex bijections."""
    if graph.n > MAX_BRUTE_FORCE_VERTICES:
        raise ValueError(
            f"brute force supported up to {MAX_BRUTE_FORCE_VERTICES} vertices"
        )
    base = _normalize_colors(graph, colors)
    adjacency = graph.adjacency
    found = []
    for mapping in itertools.permutations(range(graph.n)):
        if any(base[v] != base[mapping[v]] for v in range(graph.n)):
            continue
        if all(
            {mapping[w] for w in adjacency[v]} == set(adjacency[mapping[v]])
            for v in range(graph.n)
        ):
            found.append(mapping)
    return _as_permutations(found)


def girth(graph: Graph):
    """Length of a shortest cycle, or math.inf for a forest.

    Breadth-first search from every root; the shortest cycle through the
    root closes at a non-tree edge, and minimizing over roots is exact.
    """
    best = math.inf
    adjacency = graph.adjacency
    for root in range(graph.n):
        dist = {root: 0}
        parent = {root: -1}
        queue = [root]
        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            if dist[v] * 2 >= best:
                break
            for w in adjacency[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    parent[w] = v
                    queue.append(w)
                elif parent[v] != w:
                    best = min(best, dist[v] + dist[w] + 1)
    return best


def distances(graph: Graph, source: Hashable) -> dict:
    """Breadth-first distance from source to each vertex it reaches."""
    adjacency = graph.adjacency
    start = graph.index(source)
    dist = {start: 0}
    queue = [start]
    head = 0
    while head < len(queue):
        v = queue[head]
        head += 1
        for w in adjacency[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return {graph.vertices[v]: d for v, d in dist.items()}


def is_bipartite(graph: Graph) -> tuple[frozenset, frozenset] | None:
    """The two parts when the graph is bipartite and connected pieces allow
    a consistent 2-coloring, otherwise None."""
    side: dict[int, int] = {}
    for root in range(graph.n):
        if root in side:
            continue
        side[root] = 0
        queue = [root]
        while queue:
            v = queue.pop()
            for w in graph.adjacency[v]:
                if w not in side:
                    side[w] = 1 - side[v]
                    queue.append(w)
                elif side[w] == side[v]:
                    return None
    return (
        frozenset(graph.vertices[v] for v, s in side.items() if s == 0),
        frozenset(graph.vertices[v] for v, s in side.items() if s == 1),
    )
