"""The claim registry: every headline fact as a named, runnable check.

Each check returns a details dict and raises CheckFailed (or lets an
IntegrityError escape) when its claim does not hold.  run_checks collects
outcomes without aborting, so a broken claim is reported, not crashed on;
any other exception a check raises is that check's failure, reported as
"{type}: {message} (at {file}:{line})" of the innermost traceback frame.
"""

from __future__ import annotations

import itertools
import marshal
import os
import random

from . import autgroup, correspondence, graphs, icosahedron, involutions, k6
from .errors import IntegrityError
from .graphs import Graph
from .perms import Permutation, enumerate_sym, involution_class


class CheckFailed(AssertionError):
    """A verified claim came out false."""


def _demand(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check_outer_orders() -> dict:
    """Out(Sym_n) is trivial for n = 3, 4, 5 and has order 2 for n = 6."""
    orders = {n: autgroup.out_order(n) for n in (3, 4, 5, 6)}
    _demand(orders[3] == 1, f"out order at degree 3 is {orders[3]}")
    _demand(orders[4] == 1, f"out order at degree 4 is {orders[4]}")
    _demand(orders[5] == 1, f"out order at degree 5 is {orders[5]}")
    _demand(orders[6] == 2, f"out order at degree 6 is {orders[6]}")
    return {"out_orders": {str(n): o for n, o in orders.items()}}


def check_aut_group_sizes() -> dict:
    """|Aut(Sym_6)| = 1440 with exactly 720 conjugations inside."""
    aut = len(autgroup.enumerate_automorphisms(6))
    inn = autgroup.inner_order(6)
    witnessed, outer = autgroup.inner_and_outer(6)
    _demand(aut == 1440, f"|Aut(Sym_6)| = {aut}")
    _demand(inn == 720, f"|Inn(Sym_6)| = {inn}")
    _demand(len(witnessed) == 720, f"{len(witnessed)} tables have witnesses")
    coset = {outer[0].compose(b) for b in witnessed}
    _demand(coset == set(outer), "outer tables are not a single coset")
    return {"aut_order": aut, "inner_order": inn, "outer_count": len(outer)}


def check_stars() -> dict:
    """Maximal independent transposition sets are exactly the point stars."""
    sizes = {}
    for n in range(3, 8):
        found = involutions.maximal_independent_sets(n)
        expected = frozenset(involutions.stars(n).values())
        _demand(found == expected, f"degree {n}: maximal sets differ from stars")
        sizes[str(n)] = sorted(len(s) for s in found)
    return {"set_sizes": sizes}


def check_spectrum_survey() -> dict:
    """Only C_3 in degree 6 shares the transposition spectrum {1,2,3}."""
    for n in range(4, 12):
        spectrum = involutions.product_order_spectrum(n, 1)
        _demand(
            spectrum == {1, 2, 3},
            f"transposition spectrum at degree {n} is {sorted(spectrum)}",
        )
    rows = involutions.lemma2_survey(11)
    survivors = [(r["n"], r["j"]) for r in rows if r["status"] == "surviving"]
    _demand(survivors == [(6, 3)], f"surviving classes: {survivors}")
    for row in rows:
        n, j = row["n"], row["j"]
        _demand(
            row["witnesses"]["order_j"] is not None,
            f"(n={n}, j={j}): no product of order j",
        )
        if n > 2 * j:
            _demand(
                row["witnesses"]["order_2j_plus_1"] is not None,
                f"(n={n}, j={j}): no product of order 2j+1",
            )
    eliminated = [(r["n"], r["j"]) for r in rows if r["status"] == "eliminated"]
    doubles = involutions.product_order_spectrum(4, 2)
    _demand(doubles == {1, 2}, f"degree-4 double spectrum is {sorted(doubles)}")
    return {
        "rows": len(rows),
        "survivors": [list(s) for s in survivors],
        "eliminated": len(eliminated),
    }


def check_labeled_icosahedra() -> dict:
    """720 labelings fall into 12 rotation classes of 60 with dual pairing.

    Building the table raises IntegrityError on a wrong count of rotations,
    symmetries, classes, orbit sizes or triples, and on a broken pairing;
    the distance-2 skeleton is a second route to each partner class."""
    table = icosahedron.dual_pair_table()
    for c in range(12):
        _demand(
            table.dual_class_via_skeleton(c) == table.dual[c],
            f"distance-2 route disagrees at class {c}",
        )
    return {"classes": 12, "orbit_size": 60, "dual_pairs": 6}


def check_induced_map_is_outer() -> dict:
    """phi is a bijective homomorphism exchanging C_1 and C_3, and its 720
    identifications are exactly the outer coset."""
    table = icosahedron.dual_pair_table()
    phi = table.pair_permutation_table()
    _demand(len(set(phi)) == 720, "phi is not injective")
    base = table.outer_from_identification(Permutation.identity(6))
    _demand(base.is_homomorphism(), "phi fails the homomorphism check")
    _demand(autgroup.class_image(base, 1) == 3, "phi(C_1) != C_3")
    _demand(autgroup.class_image(base, 3) == 1, "phi(C_3) != C_1")
    _demand(autgroup.class_image(base, 2) == 2, "phi(C_2) != C_2")
    _demand(autgroup.inner_witness(base) is None, "phi has an inner witness")
    _, outer = autgroup.inner_and_outer(6)
    constructed = table.all_outer_automorphisms()
    _demand(
        constructed == frozenset(outer),
        "identifications miss or exceed the outer coset",
    )
    return {"identifications": len(constructed), "transposition_image_type": "2+2+2"}


def check_k6_dictionary() -> dict:
    """15 edges, 15 factors, 6 stars, 6 factorizations, the doily, the cage.

    factors() and factorizations() raise IntegrityError on a wrong count, the
    doily's line size and point degree axioms are the cage's regularity, and
    the edges, the stars and the cage's size hold by construction."""
    _demand(
        all(len(k6.factorizations_through(f)) == 2 for f in k6.factors()),
        "a factor misses 2 factorizations",
    )
    k6.check_gq_axioms(k6.doily())
    k6.check_gq_axioms(k6.doily().dual())
    cage = k6.tutte_graph()
    _demand(graphs.girth(cage) == 8, f"cage girth {graphs.girth(cage)}")
    _demand(graphs.is_bipartite(cage) is not None, "cage bipartiteness")
    return {"edges": 15, "factors": 15, "stars": 6, "factorizations": 6, "girth": 8}


def check_cage_correspondence() -> dict:
    """1440 cage automorphisms map bijectively onto Aut(Sym_6), parts
    preserved exactly for the inner half."""
    pairs = correspondence.correspondence()
    tables = [t for _, t in pairs]
    _demand(len(set(tables)) == 1440, "induced tables collide")
    aut = set(autgroup.enumerate_automorphisms(6))
    _demand(set(tables) == aut, "induced tables miss Aut(Sym_6)")
    inner, _ = autgroup.inner_and_outer(6)
    preserving = {t for a, t in pairs if not correspondence.swaps_parts(a)}
    _demand(preserving == set(inner), "part-preserving half is not Inn")
    return {"cage_automorphisms": 1440, "preserving": len(preserving)}


def check_involutive_counts() -> dict:
    """Both routes count 36 involutive outer automorphisms."""
    from_tables = autgroup.involutive_outer_count()
    from_cage = correspondence.involutive_swaps_count()
    _demand(from_tables == 36, f"table count {from_tables}")
    _demand(from_cage == 36, f"cage count {from_cage}")
    return {"involutive_outer": from_tables}


def oracle_corpus() -> list[tuple[str, Graph, dict | None]]:
    """Small graphs (8 vertices or fewer) for the factorial oracle,
    including disconnected and vertex-transitive cases."""

    def cycle(k):
        return Graph(range(k), [(v, (v + 1) % k) for v in range(k)])

    def path(k):
        return Graph(range(k), [(v, v + 1) for v in range(k - 1)])

    def complete(k):
        return Graph(range(k), itertools.combinations(range(k), 2))

    def empty(k):
        return Graph(range(k), [])

    def disjoint(a, b):
        offset = a.n
        vertices = list(range(a.n + b.n))
        edge_list = [tuple(a.index(u) for u in e) for e in a.edges()]
        edge_list += [
            tuple(offset + b.index(u) for u in e) for e in b.edges()
        ]
        return Graph(vertices, edge_list)

    cube = Graph(
        range(8),
        [
            (u, v)
            for u in range(8)
            for v in range(u + 1, 8)
            if bin(u ^ v).count("1") == 1
        ],
    )
    complete_bipartite_23 = Graph(
        range(5), [(a, b) for a in range(2) for b in range(2, 5)]
    )
    complete_bipartite_33 = Graph(
        range(6), [(a, b) for a in range(3) for b in range(3, 6)]
    )
    octahedron = Graph(
        range(6),
        [
            (u, v)
            for u in range(6)
            for v in range(u + 1, 6)
            if v != u + 3 or u >= 3
        ],
    )
    paw = Graph(range(4), [(0, 1), (1, 2), (2, 0), (2, 3)])
    diamond = Graph(range(4), [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3)])
    star5 = Graph(range(6), [(0, v) for v in range(1, 6)])

    corpus: list[tuple[str, Graph, dict | None]] = [
        ("single vertex", complete(1), None),
        ("one edge", complete(2), None),
        ("two isolated vertices", empty(2), None),
        ("empty on five", empty(5), None),
        ("path on three", path(3), None),
        ("path on four", path(4), None),
        ("triangle", complete(3), None),
        ("complete on four", complete(4), None),
        ("complete on five", complete(5), None),
        ("square", cycle(4), None),
        ("pentagon", cycle(5), None),
        ("hexagon", cycle(6), None),
        ("heptagon", cycle(7), None),
        ("octagon", cycle(8), None),
        ("complete bipartite 2x3", complete_bipartite_23, None),
        ("complete bipartite 3x3", complete_bipartite_33, None),
        ("star with five leaves", star5, None),
        ("octahedron", octahedron, None),
        ("cube", cube, None),
        ("paw", paw, None),
        ("diamond", diamond, None),
        ("two triangles", disjoint(complete(3), complete(3)), None),
        ("triangle plus edge", disjoint(complete(3), complete(2)), None),
        ("two squares", disjoint(cycle(4), cycle(4)), None),
        ("path plus path", disjoint(path(3), path(2)), None),
        (
            "square, opposite corners marked",
            cycle(4),
            {0: 1, 1: 0, 2: 1, 3: 0},
        ),
        (
            "hexagon, alternating colors",
            cycle(6),
            {v: v % 2 for v in range(6)},
        ),
    ]
    return corpus


def check_engine_against_oracle() -> dict:
    """Backtrack search equals the factorial sweep on the whole corpus."""
    corpus = oracle_corpus()
    for name, graph, colors in corpus:
        engine = graphs.automorphism_group(graph, colors)
        oracle = graphs.brute_force_automorphisms(graph, colors)
        _demand(
            engine == oracle,
            f"{name}: engine found {len(engine)}, oracle {len(oracle)}",
        )
    return {"graphs": len(corpus)}


def check_permutation_algebra() -> dict:
    """Group laws: exhaustive at degree 4, sampled at degree 6."""
    elements4 = list(enumerate_sym(4))
    for p, q, r in itertools.product(elements4, repeat=3):
        _demand((p * q) * r == p * (q * r), "associativity at degree 4")
    identity4 = Permutation.identity(4)
    for p in elements4:
        _demand(p * p.inverse() == identity4, "inverses at degree 4")
        _demand(p.inverse() * p == identity4, "inverses at degree 4")
    for p, q in itertools.product(elements4, repeat=2):
        same_class = any(p.conjugate(g) == q for g in elements4)
        _demand(
            same_class == (p.cycle_type() == q.cycle_type()),
            "conjugacy at degree 4",
        )
        for k in p.images:  # the conventions, pointwise: q acts first; q*p*q**-1
            _demand((p * q)(k) == p(q(k)), "product p * q must apply q first")
            _demand(p.conjugate(q)(q(k)) == q(p(k)), "p.conjugate(q) must be q*p*q**-1")

    rng = random.Random(0x0516)
    elements6 = list(enumerate_sym(6))
    identity6 = Permutation.identity(6)
    for _ in range(10_000):
        p, q, r = (rng.choice(elements6) for _ in range(3))
        _demand((p * q) * r == p * (q * r), "associativity at degree 6")
        _demand(p * p.inverse() == identity6, "inverses at degree 6")
        _demand(
            p.conjugate(q).cycle_type() == p.cycle_type(),
            "conjugation preserves cycle type at degree 6",
        )
    return {"exhaustive_degree": 4, "samples": 10_000}


CHECKS = (
    ("outer-orders", check_outer_orders),
    ("aut-group-sizes", check_aut_group_sizes),
    ("stars", check_stars),
    ("spectrum-survey", check_spectrum_survey),
    ("labeled-icosahedra", check_labeled_icosahedra),
    ("induced-map-outer", check_induced_map_is_outer),
    ("k6-dictionary", check_k6_dictionary),
    ("cage-correspondence", check_cage_correspondence),
    ("involutive-counts", check_involutive_counts),
    ("engine-oracle", check_engine_against_oracle),
    ("permutation-algebra", check_permutation_algebra),
)


# The obstruction half of the proof: these checks fill no cache that the
# Sym_6 checks read, so verify-all runs them in a forked second process.
SECOND_PROCESS = ("stars", "spectrum-survey", "engine-oracle", "permutation-algebra")


def _run(selected: list) -> list[dict]:
    """Run the given (name, check) pairs in order, catching failures."""
    results = []
    for name, check in selected:
        try:
            details, passed = check(), True
        except (CheckFailed, IntegrityError) as failure:
            details, passed = {"error": str(failure)}, False
        except Exception as failure:  # a fault in one check fails that check only
            tb = failure.__traceback__
            while tb.tb_next is not None:  # down to the frame that raised
                tb = tb.tb_next
            place = f"{os.path.basename(tb.tb_frame.f_code.co_filename)}:{tb.tb_lineno}"
            error = f"{type(failure).__name__}: {failure} (at {place})"
            details, passed = {"error": error}, False
        results.append({"check": name, "passed": passed, "details": details})
    return results


def run_checks(names: tuple[str, ...] | None = None) -> list[dict]:
    """Run the registry, catching failures so every outcome is reported.

    A selection with checks both in and out of SECOND_PROCESS runs that lane
    in a forked child while this process runs the rest; the child's results
    come back through a pipe, and a child that ends without sending them
    fails each of its checks with its exit status.  Registry order either way."""
    wanted = set(names) if names is not None else None
    if wanted is not None:
        unknown = wanted - {name for name, _ in CHECKS}
        if unknown:
            raise ValueError(f"unknown checks: {sorted(unknown)}")
    selected = [(n, c) for n, c in CHECKS if wanted is None or n in wanted]
    second = [(n, c) for n, c in selected if n in SECOND_PROCESS]
    first = [(n, c) for n, c in selected if n not in SECOND_PROCESS]
    if not (first and second and hasattr(os, "fork")):
        return _run(selected)
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child sends its lane's results and never returns
        status = 1
        try:
            with os.fdopen(write_end, "wb") as pipe:
                marshal.dump(_run(second), pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    try:
        with os.fdopen(read_end, "rb") as pipe:
            results = _run(first)
            payload = pipe.read()
    finally:
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    try:
        results += marshal.loads(payload)
    except (EOFError, ValueError, TypeError):  # no payload, or a truncated one
        lost = f"check process ended with status {status}"
        for name, _ in second:
            results.append({"check": name, "passed": False, "details": {"error": lost}})
    by_name = {result["check"]: result for result in results}
    return [by_name[name] for name, _ in selected]
