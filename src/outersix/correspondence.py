"""Transport between cage graph automorphisms and Sym_6 automorphisms.

Each vertex of the 30-vertex edge/factor incidence graph stands for one
element of Sym_6: an edge vertex for its transposition, a factor vertex for
its triple involution.  The graph engine searches with no coloring, so the
parts are free to swap; _sends_edges_to_factors is the one place that reads
whether a vertex map keeps the two parts or exchanges them, and it refuses
a map that sends either part into both.  Every automorphism of Sym_6 found
by autgroup.enumerate_automorphisms is keyed by its images of the 30
vertex elements, in vertex order; a graph automorphism is transported by
building the same key from its vertex map and looking the table up.  The
key is the whole vertex map, so a table is returned only when it agrees
with the graph map on every vertex of both parts, and the transpositions
alone generate Sym_6, so no two tables share a key: each of the 1440
graph automorphisms yields one well-defined automorphism of Sym_6.
"""

from __future__ import annotations

from functools import lru_cache

from .autgroup import AutomorphismTable, enumerate_automorphisms, sym
from .errors import IntegrityError
from .graphs import automorphism_group
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


@lru_cache(maxsize=None)
def _vertex_elements() -> dict:
    """The Sym_6 element index of each cage vertex, in vertex order."""
    s = sym(6)
    element = {"e": edge_to_transposition, "f": factor_to_involution}
    return {v: s.index[element[v[0]](v[1]).images] for v in tutte_graph().vertices}


@lru_cache(maxsize=None)
def _tables_by_vertex_images() -> dict:
    """Each automorphism of Sym_6 keyed by its images of the cage vertex
    elements, in vertex order."""
    elements = _vertex_elements().values()
    return {
        tuple(t.images[k] for k in elements): t for t in enumerate_automorphisms(6)
    }


def graph_aut_to_group_aut(automorphism: Permutation) -> AutomorphismTable:
    """The Sym_6 automorphism that acts on the cage vertex elements as the
    cage automorphism acts on the vertices of tutte_graph()."""
    vertex_map = tutte_graph().vertex_map(automorphism)
    _sends_edges_to_factors(vertex_map)
    element = _vertex_elements()
    key = tuple(element[vertex_map[v]] for v in element)
    table = _tables_by_vertex_images().get(key)
    if table is None:
        raise IntegrityError("cage vertex map matches no automorphism of Sym_6")
    return table


def correspondence() -> tuple[tuple[Permutation, AutomorphismTable], ...]:
    """Each cage automorphism with its induced Sym_6 automorphism."""
    return tuple((a, graph_aut_to_group_aut(a)) for a in cage_automorphisms())
