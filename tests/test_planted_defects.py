"""Every check in the claim registry, shown able to fail.

Each row of PLANTS plants one defect and runs `verify-all --json` once: the
run exits 1 with no traceback, exactly the row's checks fail, in registry
order, and the row's own check names the broken fact.  A row id is a check
name, with a /variant suffix for a further row on the same check.  A row
clears the lru_caches its plant reaches, before the run and after, so a warm
cache cannot hide the plant and a poisoned one cannot outlive the row; the
rows then give the same result in any order.
"""

import json

import pytest

from outersix import autgroup, cli, correspondence, graphs, icosahedron
from outersix import involutions, k6, verify
from outersix.perms import Permutation


def drop_a_table_at_degree_four(monkeypatch):
    extend, s = autgroup.extend, autgroup.sym(4)  # the identity: x -> x, y -> y
    monkeypatch.setattr(
        autgroup,
        "extend",
        lambda n, x, y: None if (n, x, y) == (4, s.x, s.y) else extend(n, x, y),
    )


def raise_a_relation_order_at_degree_four(monkeypatch):
    word_orders, s = autgroup._word_orders, autgroup.sym(4)

    def planted(n, a, b):  # the identity pair (x, y) still matches itself
        orders = word_orders(n, a, b)
        if (n, a, b) == (4, s.x, s.y):
            orders = orders[:-1] + (orders[-1] + 1,)
        return orders

    monkeypatch.setattr(autgroup, "_word_orders", planted)


def swap_two_entries_of_a_column(monkeypatch, h):
    sym, s = autgroup.sym, autgroup.sym(6)
    column, right = list(s.right[h]), list(s.right)
    column[1], column[2] = column[2], column[1]
    right[h] = tuple(column)
    planted = s._replace(right=tuple(right))
    monkeypatch.setattr(autgroup, "sym", lambda n: planted if n == 6 else sym(n))


def swap_two_entries_of_a_derived_column(monkeypatch):
    s = autgroup.sym(6)
    h = s.index[Permutation.transposition(6, 1, 3).images]  # neither x nor y
    swap_two_entries_of_a_column(monkeypatch, h)


def swap_two_entries_of_the_y_squared_column(monkeypatch):
    s = autgroup.sym(6)
    swap_two_entries_of_a_column(monkeypatch, s.right[s.y][s.y])


def drop_a_conjugator(monkeypatch):
    conjugators = autgroup._conjugators
    trimmed = dict(conjugators(6))  # drop the conjugation by (1,2), an involution
    del trimmed[next(k for k, g in trimmed.items() if g == autgroup.sym(6).x)]
    monkeypatch.setattr(
        autgroup, "_conjugators", lambda n: trimmed if n == 6 else conjugators(n)
    )


def lose_a_transposition_from_a_star(monkeypatch):
    star = involutions.star

    def planted(n, i):
        lost = {Permutation.transposition(n, 1, 2)} if i == 1 else set()
        return star(n, i) - lost

    monkeypatch.setattr(involutions, "star", planted)


def lose_order_three_at_degree_seven(monkeypatch):
    product_orders = involutions._product_orders

    def planted(n, j):
        x0, first = product_orders(n, j)
        if (n, j) == (7, 1):
            first = {order: y for order, y in first.items() if order != 3}
        return x0, first

    monkeypatch.setattr(involutions, "_product_orders", planted)


def be_off_by_one_in_the_order_walk(monkeypatch):
    order_of = involutions.order_of  # the name the sweep calls, not Permutation.order
    monkeypatch.setattr(involutions, "order_of", lambda images: order_of(images) + 1)


def read_the_faces_as_distance_two_triangles(monkeypatch):
    faces = icosahedron.build_model().faces
    monkeypatch.setattr(icosahedron, "_distance2_triangles", lambda: faces)


def swap_the_antipodes_of_one_and_two(monkeypatch):
    validate = icosahedron.IcosahedronModel._validate

    def planted(model):
        a = model.antipode
        a[1], a[2] = a[2], a[1]
        a[a[1]], a[a[2]] = 1, 2
        validate(model)

    monkeypatch.setattr(icosahedron.IcosahedronModel, "_validate", planted)


def read_orientation_backwards(monkeypatch):
    # The 60 reflections act on the six antipodal pairs exactly as the 60
    # rotations do, as the antipodal map fixes every pair: only the guard on
    # the antipodal map itself can tell the two halves apart.
    preserves = icosahedron.preserves_orientation
    monkeypatch.setattr(
        icosahedron, "preserves_orientation", lambda m, s: not preserves(m, s)
    )


def repeat_a_rotation(monkeypatch):
    rotations = icosahedron.rotation_group()
    planted = rotations[:1] * 2 + rotations[2:]  # still 60, one of them twice
    monkeypatch.setattr(icosahedron, "rotation_group", lambda: planted)


def break_the_rotation_group(monkeypatch):
    # swap exchanges the first two antipodal pairs point for point, an odd
    # permutation of the six pairs: the 60 maps still act freely on the
    # labelings, but they are no longer a group, so their orbits overlap.
    rotations = icosahedron.rotation_group()
    (a, b), (c, d) = icosahedron.build_model().antipodal_pairs()[:2]
    swap = Permutation.from_cycles(12, [(a, c), (b, d)])
    planted = rotations[:1] + (swap * rotations[1],) + rotations[2:]
    monkeypatch.setattr(icosahedron, "rotation_group", lambda: planted)


def send_two_relabelings_to_one_letter_permutation(monkeypatch):
    enumerate_sym = icosahedron.enumerate_sym

    def planted(n):  # phi's loop sees its first relabeling twice, its second never
        first, _, *rest = enumerate_sym(n)
        return [first, first, *rest]

    monkeypatch.setattr(icosahedron, "enumerate_sym", planted)


def identify_through_a_conjugation(monkeypatch):
    inner = autgroup.conjugation_table(6, Permutation.transposition(6, 1, 2))
    monkeypatch.setattr(
        icosahedron.DualPairTable, "outer_from_identification", lambda *_: inner
    )


def move_an_edge_to_the_wrong_lines(monkeypatch):
    doily = k6.doily()
    lines = [set(line) for line in doily.lines]
    moved = next(line for line in lines if (1, 2) in line)
    moved.remove((1, 2))
    moved.add((1, 3))
    planted = k6.IncidenceStructure(doily.points, lines)
    monkeypatch.setattr(k6, "doily", lambda: planted)


def raise_in_a_factorization_lookup(monkeypatch):
    def broken(factor):
        raise ValueError("planted factorization fault")

    monkeypatch.setattr(k6, "factorizations_through", broken)


def mix_the_parts(monkeypatch):
    pairs = list(correspondence.correspondence())
    graph = k6.tutte_graph()
    images = list(range(1, graph.n + 1))
    a, b = graph.index(("e", (1, 2))), graph.index(("f", ((1, 2), (3, 4), (5, 6))))
    images[a], images[b] = images[b], images[a]
    pairs[0] = (Permutation(images), pairs[0][1])
    monkeypatch.setattr(correspondence, "correspondence", lambda: tuple(pairs))


def repeat_a_cage_automorphism(monkeypatch):
    found = correspondence.cage_automorphisms()
    planted = found[:1] * 2 + found[2:]  # still 1440, one of them twice
    monkeypatch.setattr(correspondence, "cage_automorphisms", lambda: planted)


def unmatch_a_cage_map(monkeypatch):
    tables = dict(correspondence._tables_by_vertex_images())
    del tables[next(iter(tables))]
    monkeypatch.setattr(correspondence, "_tables_by_vertex_images", lambda: tables)


def drop_an_automorphism(monkeypatch):
    search = graphs._search

    def planted(graph, colors):
        found = search(graph, colors)
        return found[1:] if len(found) > 1 else found

    monkeypatch.setattr(graphs, "_search", planted)


def skip_the_oracle_color_comparison(monkeypatch):
    brute_force = graphs.brute_force_automorphisms
    monkeypatch.setattr(
        graphs,
        "brute_force_automorphisms",
        lambda graph, colors=None: brute_force(graph),  # every coloring ignored
    )


def invert_a_three_cycle_wrongly(monkeypatch):
    inverse, cycle = Permutation.inverse, Permutation.from_cycles(4, [(1, 2, 3)])
    monkeypatch.setattr(
        Permutation, "inverse", lambda p: p if p == cycle else inverse(p)
    )


def square_a_four_cycle_wrongly(monkeypatch):
    # (1,2,3,4)**2 is (1,3)(2,4); the planted square stays in Sym_4.  No other
    # check squares a 4-cycle: stars multiplies transpositions, and the
    # survey's left factor is an involution.
    mul, cycle = Permutation.__mul__, Permutation.full_cycle(4)
    identity = Permutation.identity(4)
    monkeypatch.setattr(
        Permutation, "__mul__", lambda p, q: identity if p == q == cycle else mul(p, q)
    )


def apply_the_left_factor_first(monkeypatch):
    mul = Permutation.__mul__
    monkeypatch.setattr(Permutation, "__mul__", lambda p, q: mul(q, p))


READ_SYM6_RIGHT = (  # every cache that reads sym(6).right
    autgroup.enumerate_automorphisms, autgroup._conjugators, autgroup.inner_and_outer,
    correspondence._tables_by_vertex_images,
)

# row: (plant, caches to clear, failing checks in registry order, message fragment)
PLANTS = {
    "outer-orders": (
        drop_a_table_at_degree_four,
        (autgroup.enumerate_automorphisms,),
        ("outer-orders",),
        "|Inn| = 24 does not divide |Aut| = 23",
    ),
    "outer-orders/relations": (
        raise_a_relation_order_at_degree_four,
        (autgroup.enumerate_automorphisms,),
        ("outer-orders",),
        "|Inn| = 24 does not divide |Aut| = 1",
    ),
    "outer-orders/cayley-table": (
        swap_two_entries_of_a_derived_column,
        READ_SYM6_RIGHT,
        ("outer-orders", "aut-group-sizes", "induced-map-outer")
        + ("cage-correspondence", "involutive-counts"),
        "|Inn| = 720 does not divide |Aut| = 1392",
    ),
    "aut-group-sizes": (
        drop_a_conjugator,
        (autgroup.inner_and_outer,),
        ("outer-orders", "aut-group-sizes", "induced-map-outer")
        + ("cage-correspondence", "involutive-counts"),
        "|Inn(Sym_6)| = 719",
    ),
    "aut-group-sizes/cayley-column": (
        swap_two_entries_of_the_y_squared_column,
        READ_SYM6_RIGHT,
        ("aut-group-sizes", "induced-map-outer", "cage-correspondence")
        + ("involutive-counts",),
        "table is not a bijection of the elements of Sym_6",
    ),
    "stars": (
        lose_a_transposition_from_a_star,
        (),
        ("stars",),
        "maximal sets differ from stars",
    ),
    "spectrum-survey": (
        lose_order_three_at_degree_seven,
        (),
        ("spectrum-survey",),
        "transposition spectrum at degree 7 is [1, 2]",
    ),
    "spectrum-survey/walk": (
        be_off_by_one_in_the_order_walk,
        (involutions._product_orders,),
        ("spectrum-survey",),
        "transposition spectrum at degree 4 is [2, 3, 4]",
    ),
    "labeled-icosahedra": (
        read_the_faces_as_distance_two_triangles,
        (),
        ("labeled-icosahedra",),
        "distance-2 route disagrees",
    ),
    "labeled-icosahedra/antipode": (
        swap_the_antipodes_of_one_and_two,
        (icosahedron.dual_pair_table,),
        ("labeled-icosahedra", "induced-map-outer"),
        "antipode of 1 is not at distance 3",
    ),
    "labeled-icosahedra/orientation": (
        read_orientation_backwards,
        (icosahedron.dual_pair_table,),
        ("labeled-icosahedra", "induced-map-outer"),
        "antipodal map must reverse orientation",
    ),
    "labeled-icosahedra/faithful": (
        repeat_a_rotation,
        (icosahedron.dual_pair_table,),
        ("labeled-icosahedra", "induced-map-outer"),
        "orbit of (1, 2, 3, 4, 5, 6) has size 59, wanted 60",
    ),
    "labeled-icosahedra/overlap": (
        break_the_rotation_group,
        (icosahedron.dual_pair_table,),
        ("labeled-icosahedra", "induced-map-outer"),
        "expected 12 rotation classes, found 24",
    ),
    "induced-map-outer": (
        identify_through_a_conjugation, (), ("induced-map-outer",), "phi(C_1) != C_3"
    ),
    "induced-map-outer/injective": (  # phi lives on the cached table
        send_two_relabelings_to_one_letter_permutation,
        (icosahedron.dual_pair_table,),
        ("induced-map-outer",),
        "table is not a bijection of the elements of Sym_6",
    ),
    "k6-dictionary": (
        move_an_edge_to_the_wrong_lines, (), ("k6-dictionary",), "point degree axiom"
    ),
    "k6-dictionary/exception": (
        raise_in_a_factorization_lookup,
        (),
        ("k6-dictionary",),
        "ValueError: planted factorization fault (at test_planted_defects.py:",
    ),
    "cage-correspondence": (
        mix_the_parts, (), ("cage-correspondence",), "mix of both parts"
    ),
    "cage-correspondence/duplicate": (
        repeat_a_cage_automorphism,
        (),
        ("cage-correspondence",),
        "induced tables miss Aut(Sym_6)",
    ),
    "cage-correspondence/unmatched": (
        unmatch_a_cage_map,
        (),
        ("cage-correspondence",),
        "matches no automorphism",
    ),
    "involutive-counts": (
        lambda mp: mp.setattr(correspondence, "involutive_swaps_count", lambda: 35),
        (),
        ("involutive-counts",),
        "cage count 35",
    ),
    "engine-oracle": (  # every cache the graph search reaches
        drop_an_automorphism,
        (icosahedron.dual_pair_table, correspondence.cage_automorphisms),
        ("labeled-icosahedra", "induced-map-outer", "cage-correspondence")
        + ("involutive-counts", "engine-oracle"),
        "one edge: engine found 1, oracle 2",
    ),
    "engine-oracle/colors": (
        skip_the_oracle_color_comparison,
        (),
        ("engine-oracle",),
        "square, opposite corners marked: engine found 4, oracle 8",
    ),
    "permutation-algebra": (  # sym(4) reads every inverse, _conjugators(4) sym(4)
        invert_a_three_cycle_wrongly,
        (autgroup.sym, autgroup._conjugators),
        ("permutation-algebra",),
        "inverses at degree 4",
    ),
    "permutation-algebra/associativity": (
        square_a_four_cycle_wrongly,
        (),
        ("permutation-algebra",),
        "associativity at degree 4",
    ),
    "permutation-algebra/convention": (
        apply_the_left_factor_first,
        (),
        ("permutation-algebra",),
        "product p * q must apply q first",
    ),
}

assert {row.split("/")[0] for row in PLANTS} == {
    name for name, _ in verify.CHECKS
}, "every registered check needs a planted-defect row"


@pytest.mark.parametrize("row", PLANTS)
def test_a_planted_defect_fails_exactly_its_checks(
    row, capsys, monkeypatch, reset_caches
):
    plant, caches, failing, fragment = PLANTS[row]
    reset_caches(*caches)
    plant(monkeypatch)
    code = cli.main(["verify-all", "--json"])
    out, err = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in out + err
    checks = json.loads(out)["findings"]["checks"]
    assert tuple(c["check"] for c in checks if not c["passed"]) == failing
    check = row.split("/")[0]
    error = next(c["details"]["error"] for c in checks if c["check"] == check)
    assert fragment in error


def test_a_product_outside_sym4_is_named(monkeypatch):
    mul, stray = Permutation.__mul__, Permutation.identity(5)
    monkeypatch.setattr(
        Permutation, "__mul__", lambda p, q: stray if p.degree == 4 else mul(p, q)
    )
    with pytest.raises(verify.CheckFailed, match="a product leaves Sym_4"):
        verify.check_permutation_algebra()
