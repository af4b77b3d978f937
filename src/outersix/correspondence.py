"""Transport between cage graph automorphisms and Sym_6 automorphisms.

Each vertex of the 30-vertex edge/factor incidence graph stands for one
element of Sym_6: an edge vertex for its transposition, a factor vertex for
its triple involution.  A cage automorphism is read by position, against
the vertex order of tutte_graph().  The graph engine searches with no
coloring, so the parts are free to swap; swaps_parts is the one place that
reads whether a map keeps them or exchanges them, and it refuses a map that
sends the edge part into both.  correspondence() is the one transport pass
and caches nothing: it keys each automorphism of Sym_6 by its images of the
30 vertex elements, in vertex order, and reads each cage map once, for its
part action and for the same key built from its images.  The key covers
both parts, so a table is returned only when it agrees with the map on
every vertex, and the transpositions alone generate Sym_6, so no two tables
share a key: each of the 1440 cage maps yields one automorphism of Sym_6.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter

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


def swaps_parts(automorphism: Permutation) -> bool:
    """Whether a cage automorphism sends the edge part onto the factor part.

    A bijection that keeps the 15 edge vertices in one 15-vertex part sends
    the factor part to the other, so only the edge part is read."""
    vertices, images = tutte_graph().vertices, automorphism.images
    sides = {vertices[k - 1][0] for v, k in zip(vertices, images) if v[0] == "e"}
    if len(sides) != 1:
        raise IntegrityError("edge vertices map to a mix of both parts")
    return sides == {"f"}


def involutive_swaps_count() -> int:
    """Cage automorphisms of order 2 that exchange the two parts."""
    return sum(
        1 for a in cage_automorphisms() if a.order() == 2 and swaps_parts(a)
    )


def correspondence() -> tuple[tuple[Permutation, AutomorphismTable, bool], ...]:
    """Each cage automorphism with its induced Sym_6 automorphism, the one
    that acts on the cage vertex elements as the map acts on the vertices,
    and whether the map swaps the parts."""
    maps = cage_automorphisms()  # before the Sym_6 search, for a lower peak RSS
    index = sym(6).index
    element = {"e": edge_to_transposition, "f": factor_to_involution}
    elements = tuple(index[element[v[0]](v[1]).images] for v in tutte_graph().vertices)
    images_of = itemgetter(*elements)
    tables = {images_of(t.images): t for t in enumerate_automorphisms(6)}
    found = []
    for a in maps:
        swaps = swaps_parts(a)
        table = tables.get(tuple(elements[k - 1] for k in a.images))
        if table is None:
            raise IntegrityError("cage vertex map matches no automorphism of Sym_6")
        found.append((a, table, swaps))
    return tuple(found)
