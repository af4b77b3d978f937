"""Edge and factor geometry of the complete graph on six vertices.

The 15 edges of K6 correspond to the 15 transpositions of Sym_6 and the 15
one-factors (perfect matchings) to the 15 triple involutions.  Each factor
extends to exactly 2 of the 6 one-factorizations, and the point-line
structure with edges as points and factors as lines is a generalized
quadrangle of order (2,2): three points per line, three lines per point (so
each edge lies in exactly 3 factors), and for a point off a line a unique
line through the point meeting it.  The bipartite incidence graph of that
structure is cubic on 30 vertices with girth 8.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .errors import IntegrityError
from .graphs import Graph
from .perms import Permutation, involution_class

POINTS = (1, 2, 3, 4, 5, 6)
GQ_ORDER = 2  # s = t = 2: three points per line, three lines per point

Edge = tuple[int, int]
Factor = tuple[Edge, Edge, Edge]
Factorization = tuple[Factor, ...]


def edges() -> tuple[Edge, ...]:
    """The 15 edges of K6 as sorted pairs, lexicographically ordered."""
    return tuple(itertools.combinations(POINTS, 2))


def factors() -> tuple[Factor, ...]:
    """The 15 perfect matchings, each a sorted triple of edges, in sorted
    order: the 2-cycles of the triple involutions of Sym_6."""
    return tuple(p.cycles() for p in involution_class(6, 3))


def edge_to_transposition(edge: Edge) -> Permutation:
    return Permutation.transposition(6, *edge)


def factor_to_involution(factor: Factor) -> Permutation:
    return Permutation.from_cycles(6, factor)


def stars() -> dict[int, frozenset[Edge]]:
    """The 6 stars: for each point, the 5 edges through it."""
    return {
        i: frozenset(e for e in edges() if i in e) for i in POINTS
    }


def factorizations() -> tuple[Factorization, ...]:
    """The 6 ways to split the 15 edges into 5 disjoint factors.

    Found by exact cover over the factor list; each comes out as a sorted
    5-tuple of factors and the factorizations are sorted overall.
    """
    all_factors = factors()

    def cover(remaining_edges, start):
        if not remaining_edges:
            yield ()
            return
        lead = min(remaining_edges)
        for k in range(start, len(all_factors)):
            factor = all_factors[k]
            if lead in factor and all(e in remaining_edges for e in factor):
                for rest in cover(remaining_edges - set(factor), k + 1):
                    yield (factor,) + rest

    found = sorted(
        tuple(sorted(fz)) for fz in cover(set(edges()), 0)
    )
    if len(found) != 6:
        raise IntegrityError(f"expected 6 one-factorizations, found {len(found)}")
    return tuple(found)


def factorizations_through(factor: Factor) -> tuple[Factorization, ...]:
    return tuple(fz for fz in factorizations() if factor in fz)


def permute_edge(g: Permutation, edge: Edge) -> Edge:
    return tuple(sorted((g(edge[0]), g(edge[1]))))  # type: ignore[return-value]


def permute_factor(g: Permutation, factor: Factor) -> Factor:
    return tuple(sorted(permute_edge(g, e) for e in factor))  # type: ignore


def permute_factorization(g: Permutation, fz: Factorization) -> Factorization:
    return tuple(sorted(permute_factor(g, f) for f in fz))  # type: ignore


class IncidenceStructure:
    """Points, lines, and the membership relation between them."""

    __slots__ = ("points", "lines")

    def __init__(self, points, lines):
        self.points = tuple(points)
        self.lines = tuple(frozenset(line) for line in lines)
        point_set = set(self.points)
        if len(point_set) != len(self.points):
            raise ValueError("duplicate points")
        if len(set(self.lines)) != len(self.lines):
            raise ValueError("duplicate lines")
        for line in self.lines:
            if not line <= point_set:
                raise ValueError("line contains an unknown point")

    def lines_through(self, point) -> tuple[frozenset, ...]:
        return tuple(line for line in self.lines if point in line)


def doily() -> IncidenceStructure:
    """The generalized quadrangle GQ(2,2): K6 edges against one-factors."""
    return IncidenceStructure(edges(), (frozenset(f) for f in factors()))


def check_gq_axioms(structure: IncidenceStructure) -> None:
    """Raise IntegrityError naming the first GQ(2,2) axiom that fails."""
    for line in structure.lines:
        if len(line) != GQ_ORDER + 1:
            raise IntegrityError(
                f"line size axiom: {sorted(line)} has {len(line)} points, "
                f"wanted {GQ_ORDER + 1}"
            )
    for point in structure.points:
        through = structure.lines_through(point)
        if len(through) != GQ_ORDER + 1:
            raise IntegrityError(
                f"point degree axiom: {point} lies on {len(through)} lines, "
                f"wanted {GQ_ORDER + 1}"
            )
    for a, b in itertools.combinations(structure.lines, 2):
        if len(a & b) > 1:
            raise IntegrityError(
                f"two lines share {len(a & b)} points: {sorted(a)}, {sorted(b)}"
            )
    for point in structure.points:
        for line in structure.lines:
            if point in line:
                continue
            meeting = [
                other
                for other in structure.lines_through(point)
                if other & line
            ]
            if len(meeting) != 1:
                raise IntegrityError(
                    f"unique transversal axiom: point {point} off line "
                    f"{sorted(line)} sees it through {len(meeting)} lines"
                )


@lru_cache(maxsize=None)
def tutte_graph() -> Graph:
    """The bipartite incidence graph of the doily: 15 edge vertices tagged
    ('e', edge) and 15 factor vertices tagged ('f', factor)."""
    vertices = [("e", e) for e in edges()] + [("f", f) for f in factors()]
    incidence = [
        (("e", e), ("f", f)) for f in factors() for e in f
    ]
    return Graph(vertices, incidence)


def _edge_name(edge: Edge) -> str:
    return f"{edge[0]}{edge[1]}"


def _factor_name(factor: Factor) -> str:
    return ".".join(_edge_name(e) for e in factor)


def doily_document() -> dict:
    """The doily's points, lines and incident pairs, named by edge labels."""
    return {
        "points": [_edge_name(e) for e in edges()],
        "lines": [[_edge_name(e) for e in f] for f in factors()],
        "incidence": [
            [_edge_name(e), _factor_name(f)] for f in factors() for e in f
        ],
    }


def _incidence_dot(name: str, point_prefix: str, line_prefix: str) -> str:
    """DOT rendering of the doily incidence: edge-side nodes in white,
    factor-side nodes in black, one DOT edge per incident pair."""
    point = {e: point_prefix + _edge_name(e) for e in edges()}
    line = {f: line_prefix + _factor_name(f).replace(".", "_") for f in factors()}
    rows = [f"graph {name} {{", "  node [shape=circle, style=filled];"]
    rows += [
        f'  {point[e]} [fillcolor=white, label="{_edge_name(e)}"];' for e in edges()
    ]
    rows += [
        f'  {line[f]} [fillcolor=black, fontcolor=white, label="{_factor_name(f)}"];'
        for f in factors()
    ]
    rows += [f"  {point[e]} -- {line[f]};" for f in factors() for e in f]
    return "\n".join(rows + ["}"]) + "\n"


def doily_dot() -> str:
    """DOT rendering of the doily incidence: point vertices in white, line
    vertices in black."""
    return _incidence_dot("doily", "p_", "l_")


def tutte_dot() -> str:
    """DOT rendering of the 30-vertex incidence graph."""
    return _incidence_dot("tutte_eight_cage", "e_", "f_")
