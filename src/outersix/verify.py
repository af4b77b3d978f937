"""The claim registry: every headline fact as a named, runnable check.

Each check returns a details dict and raises CheckFailed (or lets an
IntegrityError escape) when its claim does not hold.  run_checks collects
outcomes without aborting, so a broken claim is reported, not crashed on;
any other exception a check raises is that check's failure, reported as
"{type}: {message} (at {file}:{line})" of the innermost traceback frame.
Each check imports its own layers when it runs: a cold process compiles only
what it imports, so a selection of checks, or a forked lane of run_checks,
loads only the layers its checks read.
"""

from __future__ import annotations

import itertools
import marshal
import os

from .errors import IntegrityError
from .perms import Permutation, enumerate_sym


class CheckFailed(AssertionError):
    """A verified claim came out false."""


def _demand(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check_outer_orders() -> dict:
    """Out(Sym_n) is trivial for n = 3, 4, 5 and has order 2 for n = 6."""
    from . import autgroup
    orders = {n: autgroup.out_order(n) for n in (3, 4, 5, 6)}
    for n, expected in {3: 1, 4: 1, 5: 1, 6: 2}.items():
        _demand(orders[n] == expected, f"out order at degree {n} is {orders[n]}")
    return {"out_orders": {str(n): o for n, o in orders.items()}}


def check_aut_group_sizes() -> dict:
    """|Aut(Sym_6)| = 1440 with 720 conjugations inside.  No table comes twice
    and composing with outer[0] is injective, so the witnessed tables after
    outer[0] are exactly the outer ones when each lands among them and the
    two counts agree: one coset gives 720 + 720."""
    from . import autgroup
    aut = len(autgroup.enumerate_automorphisms(6))
    inn = autgroup.inner_order(6)
    witnessed, outer = autgroup.inner_and_outer(6)
    _demand(inn == 720, f"|Inn(Sym_6)| = {inn}")
    _demand(len(witnessed) == 720, f"{len(witnessed)} tables have witnesses")
    outer_set = set(outer)
    _demand(
        len(outer_set) == len(witnessed)
        and all(outer[0].compose(b) in outer_set for b in witnessed),
        "outer tables are not a single coset",
    )
    return {"aut_order": aut, "inner_order": inn, "outer_count": len(outer)}


def check_stars() -> dict:
    """Maximal independent transposition sets are exactly the point stars."""
    from . import involutions
    sizes = {}
    for n in range(3, 8):
        found = involutions.maximal_independent_sets(n)
        expected = frozenset(involutions.stars(n).values())
        _demand(found == expected, f"degree {n}: maximal sets differ from stars")
        sizes[str(n)] = sorted(len(s) for s in found)
    return {"set_sizes": sizes}


def check_spectrum_survey() -> dict:
    """Only C_3 in degree 6 shares the transposition spectrum {1,2,3}."""
    from . import involutions
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
    symmetries, classes, orbit sizes or triples, and on a broken pairing.
    The distance-2 triangles, built once, are a second route to each partner."""
    from . import icosahedron
    table = icosahedron.dual_pair_table()
    for c, partner in enumerate(table.duals_via_skeleton()):
        _demand(
            partner is not None, "distance-2 triangle triples match no rotation class"
        )
        _demand(partner == table.dual[c], f"distance-2 route disagrees at class {c}")
    return {"classes": 12, "orbit_size": 60, "dual_pairs": 6}


def check_induced_map_is_outer() -> dict:
    """phi is a bijective homomorphism exchanging C_1 and C_3, and its 720
    identifications are exactly the outer coset.  phi permutes the classes
    and keeps their sizes (15, 45, 15 for C_1, C_2, C_3), so phi(C_1) = C_3
    forces phi(C_3) = C_1 and phi(C_2) = C_2; a conjugation keeps cycle
    types, so phi(C_1) = C_3 also shows that phi has no inner witness.  Each
    identification's table is looked up among the outer tables: they are
    exactly the coset when the positions hit are all of them."""
    from . import autgroup, icosahedron
    table = icosahedron.dual_pair_table()
    base = table.outer_from_identification(Permutation.identity(6))
    _demand(base.is_homomorphism(), "phi fails the homomorphism check")
    _demand(autgroup.class_image(base, 1) == 3, "phi(C_1) != C_3")
    _, outer = autgroup.inner_and_outer(6)
    position = {t: k for k, t in enumerate(outer)}
    hit = {
        position.get(table.outer_from_identification(ident))  # None if outside
        for ident in autgroup.sym(6).elements
    }
    _demand(
        hit == set(range(len(outer))),
        "identifications miss or exceed the outer coset",
    )
    return {"identifications": len(hit), "transposition_image_type": "2+2+2"}


def check_k6_dictionary() -> dict:
    """15 edges, 15 factors, 6 stars, 6 factorizations, the doily, the cage.

    factors() (through the class walk) and factorizations() raise IntegrityError
    on a wrong count.  The cage is the doily's incidence graph: its line size and
    point degree axioms are the cage's regularity, two lines sharing two points
    would be a 4-cycle and a triangle of lines a 6-cycle, so the axioms give
    girth 8, and each edge joins an ('e', ...) vertex to an ('f', ...) one, so it
    is bipartite.  The GQ axioms are self-dual; the rest holds by construction."""
    from . import k6
    _demand(
        all(len(k6.factorizations_through(f)) == 2 for f in k6.factors()),
        "a factor misses 2 factorizations",
    )
    k6.check_gq_axioms(k6.doily())
    return {"edges": 15, "factors": 15, "stars": 6, "factorizations": 6, "girth": 8}


def check_cage_correspondence() -> dict:
    """1440 cage automorphisms map bijectively onto Aut(Sym_6), parts
    preserved exactly for the inner half."""
    from . import autgroup, correspondence
    triples = correspondence.correspondence()
    tables = {t for _, t, _ in triples}
    aut = set(autgroup.enumerate_automorphisms(6))
    _demand(tables == aut, "induced tables miss Aut(Sym_6)")
    inner, _ = autgroup.inner_and_outer(6)
    preserving = {t for _, t, swaps in triples if not swaps}
    _demand(preserving == set(inner), "part-preserving half is not Inn")
    return {"cage_automorphisms": 1440, "preserving": len(preserving)}


def check_involutive_counts() -> dict:
    """Both routes count 36 involutive outer automorphisms."""
    from . import autgroup, correspondence
    from_tables = autgroup.involutive_outer_count()
    from_cage = correspondence.involutive_swaps_count()
    _demand(from_tables == 36, f"table count {from_tables}")
    _demand(from_cage == 36, f"cage count {from_cage}")
    return {"involutive_outer": from_tables}


def oracle_corpus() -> list[tuple[str, Graph, dict | None]]:
    """Small graphs (8 vertices or fewer) for the factorial oracle,
    including disconnected and vertex-transitive cases."""
    from .graphs import Graph

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

    def complete_bipartite(a, b):
        return Graph(range(a + b), [(u, v) for u in range(a) for v in range(a, a + b)])

    def pairs_of(k, adjacent):
        pairs = itertools.combinations(range(k), 2)
        return Graph(range(k), [(u, v) for u, v in pairs if adjacent(u, v)])

    cube = pairs_of(8, lambda u, v: bin(u ^ v).count("1") == 1)
    octahedron = pairs_of(6, lambda u, v: v - u != 3)
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
        ("complete bipartite 2x3", complete_bipartite(2, 3), None),
        ("complete bipartite 3x3", complete_bipartite(3, 3), None),
        ("star with five leaves", star5, None),
        ("octahedron", octahedron, None),
        ("cube", cube, None),
        ("paw", paw, None),
        ("diamond", diamond, None),
        ("two triangles", disjoint(complete(3), complete(3)), None),
        ("triangle plus edge", disjoint(complete(3), complete(2)), None),
        ("two squares", disjoint(cycle(4), cycle(4)), None),
        ("path plus path", disjoint(path(3), path(2)), None),
        ("square, opposite corners marked", cycle(4), {0: 1, 1: 0, 2: 1, 3: 0}),
        ("hexagon, alternating colors", cycle(6), {v: v % 2 for v in range(6)}),
    ]
    return corpus


def check_engine_against_oracle() -> dict:
    """Backtrack search equals the factorial sweep on the whole corpus."""
    from . import graphs
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
    """Group laws: exhaustive at degree 4; at degree 6, every element against
    the generators (1,2) and (1,...,6)."""
    elements4 = list(enumerate_sym(4))
    index4 = {p: k for k, p in enumerate(elements4)}
    mul = [[index4.get(p * q) for q in elements4] for p in elements4]
    _demand(all(None not in row for row in mul), "a product leaves Sym_4")
    for p, q, r in itertools.product(range(24), repeat=3):
        _demand(mul[mul[p][q]][r] == mul[p][mul[q][r]], "associativity at degree 4")
    identity4 = Permutation.identity(4)
    for p in elements4:
        _demand(p * p.inverse() == identity4 == p.inverse() * p, "inverses at degree 4")
    classes = {p: {p.conjugate(g) for g in elements4} for p in elements4}
    for p, q in itertools.product(elements4, repeat=2):
        _demand(
            (q in classes[p]) == (p.cycle_type() == q.cycle_type()),
            "conjugacy at degree 4",
        )
        pq, p_by_q = p * q, p.conjugate(q)
        for k in p.images:  # the conventions, pointwise: q acts first; q*p*q**-1
            _demand(pq(k) == p(q(k)), "product p * q must apply q first")
            _demand(p_by_q(q(k)) == q(p(k)), "p.conjugate(q) must be q*p*q**-1")

    generators = (Permutation.transposition(6, 1, 2), Permutation.full_cycle(6))
    products = [(s, t, s * t) for s, t in itertools.product(generators, repeat=2)]
    identity6 = Permutation.identity(6)
    for p in enumerate_sym(6):
        associative = all((p * s) * t == p * st for s, t, st in products)
        _demand(associative, "associativity at degree 6")
        _demand(p * p.inverse() == identity6, "inverses at degree 6")
        _demand(
            all(p.conjugate(s).cycle_type() == p.cycle_type() for s in generators),
            "conjugation preserves cycle type at degree 6",
        )
    return {"exhaustive_degree": 4, "generator_degree": 6}


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
