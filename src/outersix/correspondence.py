"""Transport between cage graph automorphisms and Sym_6 automorphisms.

Each vertex of the 30-vertex edge/factor incidence graph stands for one
element of Sym_6: an edge vertex for its transposition, a factor vertex for
its triple involution.  The graph engine searches with no coloring, so the
parts are free to swap; _sends_edges_to_factors is the one place that reads
whether a vertex map keeps the two parts or exchanges them, and it refuses
a map that sends either part into both.  The images of the edge vertices
(1,2), (2,3), (3,4), (4,5), (5,6) give the images of the generators
x = (1,2) and y = (1,2)*(2,3)*(3,4)*(4,5)*(5,6) = (1,2,...,6), and
autgroup.extend turns that pair into a table it has checked on every edge
(g, g*x) and (g, g*y) of the Cayley graph, and the table is checked to
agree with the graph map on every vertex of both parts, so each of the
1440 graph automorphisms yields one well-defined automorphism of Sym_6.
"""

from __future__ import annotations

from functools import lru_cache

from .autgroup import AutomorphismTable, extend, sym
from .errors import IntegrityError
from .graphs import Graph, automorphism_group
from .k6 import edge_to_transposition, factor_to_involution, tutte_graph
from .perms import Permutation


@lru_cache(maxsize=None)
def cage_automorphisms() -> tuple[Permutation, ...]:
    """All 1440 automorphisms of the incidence graph, parts free to swap."""
    found = automorphism_group(tutte_graph())
    if len(found) != 1440:
        raise IntegrityError(f"expected 1440 cage automorphisms, found {len(found)}")
    return found


def _sends_edges_to_factors(vertex_map: dict) -> bool:
    """Whether a cage vertex map sends the edge part onto the factor part.

    Raises IntegrityError when either part lands in both parts."""
    action = {}
    for v, w in vertex_map.items():
        if action.setdefault(v[0], w[0]) != w[0]:
            part = "edge" if v[0] == "e" else "factor"
            raise IntegrityError(f"{part} vertices map to a mix of both parts")
    return action["e"] == "f"


def swaps_parts(automorphism: Permutation) -> bool:
    return _sends_edges_to_factors(tutte_graph().vertex_map(automorphism))


def involutive_swaps_count() -> int:
    """Cage automorphisms of order 2 that exchange the two parts."""
    return sum(
        1 for a in cage_automorphisms() if a.order() == 2 and swaps_parts(a)
    )


# y = (1,2,...,6) = (1,2)*(2,3)*(3,4)*(4,5)*(5,6), the right factor first.
_Y_EDGES = ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6))


def _fold(word) -> int:
    """The index of the product of a word of Sym_6 element indices."""
    s = sym(6)
    product = s.identity
    for k in word:
        product = s.mul[product][k]
    return product


@lru_cache(maxsize=None)
def _vertex_elements() -> dict:
    """The Sym_6 element index of each cage vertex."""
    s = sym(6)
    element = {"e": edge_to_transposition, "f": factor_to_involution}
    indices = {v: s.index[element[v[0]](v[1]).images] for v in tutte_graph().vertices}
    if _fold([indices[("e", edge)] for edge in _Y_EDGES]) != s.y:
        raise IntegrityError("the edge word for (1,2,...,6) multiplies out wrong")
    return indices


def graph_aut_to_group_aut(
    graph: Graph, automorphism: Permutation
) -> AutomorphismTable:
    """The Sym_6 automorphism induced by a cage graph automorphism."""
    vertex_map = graph.vertex_map(automorphism)
    _sends_edges_to_factors(vertex_map)
    element = _vertex_elements()
    x_image = element[vertex_map[("e", (1, 2))]]
    y_image = _fold([element[vertex_map[("e", edge)]] for edge in _Y_EDGES])
    table = extend(6, x_image, y_image)
    if table is None:
        raise IntegrityError("generator images fail to extend to the group")
    # Every vertex of both parts must tell the same story as the table.
    for v, w in vertex_map.items():
        if table.images[element[v]] != element[w]:
            raise IntegrityError("cage vertices disagree with the extension")
    return table


@lru_cache(maxsize=None)
def correspondence() -> tuple[tuple[Permutation, AutomorphismTable], ...]:
    """Each cage automorphism with its induced Sym_6 automorphism."""
    graph = tutte_graph()
    return tuple(
        (a, graph_aut_to_group_aut(graph, a)) for a in cage_automorphisms()
    )
