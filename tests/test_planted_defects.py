"""Every check in the claim registry, shown able to fail.

Each row of PLANTS plants one defect and runs `verify-all --json` once: the
run exits 1 with no traceback, exactly the row's checks fail, in registry
order, and the row's own check names the broken fact.  A row id is a check
name, with a /variant suffix for a further row on the same check.  A row
clears the lru_caches its plant reaches, before the run and after, so a warm
cache cannot hide the plant and a poisoned one cannot outlive the row; the
rows then give the same result in any order.  Rows that plant the same kind
of defect share a factory such as _edit_model, which takes the one edit.
"""

import itertools
import json

import pytest

from outersix import autgroup, cli, correspondence, graphs, icosahedron
from outersix import involutions, k6, perms, verify
from outersix.graphs import Graph
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


def key_the_degree_five_conjugators_on_x_alone(monkeypatch):
    conjugators = autgroup._conjugators  # |Inn| = 10 then divides |Aut| = 120

    def planted(n):
        found = conjugators(n)
        return {key[0]: g for key, g in found.items()} if n == 5 else found

    monkeypatch.setattr(autgroup, "_conjugators", planted)


def fill_the_identity_for_each_y_at_degree_four(monkeypatch):
    extend, s = autgroup.extend, autgroup.sym(4)

    def planted(n, x, y):  # each pair (x, y') that extends yields the identity
        table = extend(n, x, y)
        if (n, x) == (4, s.x) and table is not None:
            return extend(n, x, s.y)
        return table

    monkeypatch.setattr(autgroup, "extend", planted)


def _misplace_witnesses(shown=None):
    """A plant under which inner_witness finds none for the conjugation by
    (1,2) and finds one for the table shown."""

    def plant(monkeypatch):
        inner_witness = autgroup.inner_witness
        one_two = Permutation.transposition(6, 1, 2)

        def planted(table):
            if table == shown:
                return one_two
            g = inner_witness(table)
            return None if g == one_two else g

        monkeypatch.setattr(autgroup, "inner_witness", planted)

    return plant


def also_witness_the_second_outer_table(monkeypatch):
    outer = autgroup.inner_and_outer.__wrapped__(6)[1]  # leaves the cache cold
    _misplace_witnesses(outer[1])(monkeypatch)


def lose_a_transposition_from_a_star(monkeypatch):
    star = involutions.star

    def planted(n, i):
        lost = {Permutation.transposition(n, 1, 2)} if i == 1 else set()
        return star(n, i) - lost

    monkeypatch.setattr(involutions, "star", planted)


def be_off_by_one_in_the_order_walk(monkeypatch):
    order_of = involutions.order_of  # the name the sweep calls, not Permutation.order
    monkeypatch.setattr(involutions, "order_of", lambda images: order_of(images) + 1)


def _edit_orders(n, j, edit):
    """A plant that passes the orders found at (n, j), a map from each order
    of x0*y to its first y, through edit."""

    def plant(monkeypatch):
        product_orders = involutions._product_orders

        def planted(m, k):
            x0, first = product_orders(m, k)
            return x0, edit(dict(first)) if (m, k) == (n, j) else first

        monkeypatch.setattr(involutions, "_product_orders", planted)

    return plant


def dropping(order):
    return lambda first: {o: y for o, y in first.items() if o != order}


def count_one_more_at_seven_three(monkeypatch):
    size = perms.involution_class_size
    monkeypatch.setattr(
        perms, "involution_class_size", lambda n, j: size(n, j) + ((n, j) == (7, 3))
    )


def read_the_faces_as_distance_two_triangles(monkeypatch):
    faces = icosahedron.IcosahedronModel().faces
    monkeypatch.setattr(icosahedron, "_distance2_triangles", lambda: faces)


def _edit_model(edit):
    """A plant that edits each IcosahedronModel in place before _validate."""

    def plant(monkeypatch):
        validate = icosahedron.IcosahedronModel._validate

        def planted(model):
            edit(model)
            validate(model)

        monkeypatch.setattr(icosahedron.IcosahedronModel, "_validate", planted)

    return plant


def swap_the_antipodes_of_one_and_two(model):
    a = model.antipode
    a[1], a[2] = a[2], a[1]
    a[a[1]], a[a[2]] = 1, 2


def drop_a_skeleton_edge(model):
    edges = sorted(tuple(sorted(e)) for e in model.skeleton.edges())
    model.skeleton = Graph(model.vertices, edges[1:])


def repeat_the_first_face(model):
    model.faces = model.faces[:-1] + model.faces[:1]


def reverse_the_first_oriented_face(model):
    model.oriented_faces = (model.oriented_faces[0][::-1],) + model.oriented_faces[1:]


def fix_the_antipode_of_one(model):
    model.antipode[1] = 1


def replace_the_first_face_with_a_non_face(model):
    triples = map(frozenset, itertools.combinations(model.vertices, 3))
    model.faces = (next(t for t in triples if t not in model.faces),) + model.faces[1:]


def drop_the_last_symmetry(monkeypatch):
    automorphism_group = icosahedron.automorphism_group
    monkeypatch.setattr(
        icosahedron, "automorphism_group", lambda graph: automorphism_group(graph)[:-1]
    )


def _misread_orientation(pick):
    """A plant under which preserves_orientation flips its verdict on the
    symmetries pick(rotations, reflections, antipodal map) returns."""

    def plant(monkeypatch):
        preserves = icosahedron.preserves_orientation
        model = icosahedron.IcosahedronModel()
        symmetries = icosahedron.full_symmetry_group()
        rotations = [s for s in symmetries if preserves(model, s)]
        reflections = [s for s in symmetries if not preserves(model, s)]
        antipodal = Permutation(model.antipode[v] for v in model.vertices)
        flipped = pick(rotations, reflections, antipodal)
        monkeypatch.setattr(
            icosahedron,
            "preserves_orientation",
            lambda m, s: preserves(m, s) != (s in flipped),
        )

    return plant


def accept_a_reflection(rotations, reflections, a):
    return {next(s for s in reflections if s != a)}


def trade_a_rotation_for_a_reflection(rotations, reflections, a):
    r0 = next(r for r in rotations if not r.is_identity())
    return {r0, next(s for s in reflections if s not in (a, a * r0))}


def _edit_triples(edit):
    """A plant that passes the face triples of each labeling through
    edit(table, labeling, triples) while the DualPairTable is built."""

    def plant(monkeypatch):
        label_triples = icosahedron.DualPairTable._label_triples

        def planted(table, labeling, triangles):
            triples = label_triples(table, labeling, triangles)
            if triangles is not table.model.faces:
                return triples
            return edit(table, labeling, triples)

        monkeypatch.setattr(icosahedron.DualPairTable, "_label_triples", planted)

    return plant


def drop_a_triple_of_class_zero(table, labeling, triples):
    if labeling != table.class_reps[0]:  # (1, 2, 3, 4, 5, 6)
        return triples
    return triples - {min(triples, key=sorted)}


def dress_class_one_as_class_zero(table, labeling, triples):
    if labeling != table.class_reps[1]:
        return triples
    return table._label_triples(table.class_reps[0], table.model.faces)


def trade_a_triple_of_class_zero(table, labeling, triples):
    if labeling != table.class_reps[0]:
        return triples
    outside = set(map(frozenset, itertools.combinations(range(1, 7), 3))) - triples
    return triples - {min(triples, key=sorted)} | {min(outside, key=sorted)}


def _edit_distances(changes):
    """A plant under which icosahedron.distances reports changes[u][v] as
    the distance from u to v."""

    def plant(monkeypatch):
        distances = icosahedron.distances

        def planted(graph, source):
            return {**distances(graph, source), **changes.get(source, {})}

        monkeypatch.setattr(icosahedron, "distances", planted)

    return plant


def read_the_first_face_as_a_distance_two_triangle(monkeypatch):
    triangles = icosahedron._distance2_triangles
    face = icosahedron.IcosahedronModel().faces[0]
    monkeypatch.setattr(
        icosahedron, "_distance2_triangles", lambda: (face,) + triangles()[1:]
    )


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
    (a, b), (c, d) = icosahedron.IcosahedronModel().antipodal_pairs()[:2]
    swap = Permutation.from_cycles(12, [(a, c), (b, d)])
    planted = rotations[:1] + (swap * rotations[1],) + rotations[2:]
    monkeypatch.setattr(icosahedron, "rotation_group", lambda: planted)


def send_two_relabelings_to_one_letter_permutation(monkeypatch):
    enumerate_sym = icosahedron.enumerate_sym

    def planted(n):  # phi's loop sees its first relabeling twice, its second never
        first, _, *rest = enumerate_sym(n)
        return [first, first, *rest]

    monkeypatch.setattr(icosahedron, "enumerate_sym", planted)


def swap_the_second_and_third_relabelings(monkeypatch):
    enumerate_sym = icosahedron.enumerate_sym

    def planted(n):  # phi stays a bijection, but rows 1 and 2 trade places
        first, second, third, *rest = enumerate_sym(n)
        return [first, third, second, *rest]

    monkeypatch.setattr(icosahedron, "enumerate_sym", planted)


def _edit_table(edit):
    """A plant that edits each DualPairTable once __init__ has built it."""

    def plant(monkeypatch):
        init = icosahedron.DualPairTable.__init__

        def planted(table):
            init(table)
            edit(table)

        monkeypatch.setattr(icosahedron.DualPairTable, "__init__", planted)

    return plant


def move_a_labeling_from_class_zero_to_one(table):
    moved = next(
        labeling for labeling, c in table.class_of.items()
        if c == 0 and labeling != table.class_reps[0]
    )
    table.class_of[moved] = 1


def swap_class_zero_with_a_class_of_another_pair(table):
    other = next(c for c in range(12) if c not in (0, table.dual[0]))
    swap = {0: other, other: 0}
    table.class_of = {lab: swap.get(c, c) for lab, c in table.class_of.items()}


def identify_through_a_conjugation(monkeypatch):
    inner = autgroup.conjugation_table(6, Permutation.transposition(6, 1, 2))
    monkeypatch.setattr(
        icosahedron.DualPairTable, "outer_from_identification", lambda *_: inner
    )


def identify_one_two_as_the_identity(monkeypatch):
    outer_from = icosahedron.DualPairTable.outer_from_identification
    one_two, identity = Permutation.transposition(6, 1, 2), Permutation.identity(6)

    def planted(table, ident):  # the identity's table twice, (1,2)'s never
        return outer_from(table, identity if ident == one_two else ident)

    monkeypatch.setattr(icosahedron.DualPairTable, "outer_from_identification", planted)


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


def drop_the_last_factor(monkeypatch):
    factors = k6.factors()[:-1]
    monkeypatch.setattr(k6, "factors", lambda: factors)


def mix_the_parts(monkeypatch):
    # A 3-cycle, so that involutive-counts, which reads only maps of order 2,
    # never meets it.
    graph = k6.tutte_graph()
    images = list(range(1, graph.n + 1))
    a, b = graph.index(("e", (1, 2))), graph.index(("f", ((1, 2), (3, 4), (5, 6))))
    c = graph.index(("e", (3, 4)))
    images[a], images[b], images[c] = images[b], images[c], images[a]
    planted = (Permutation(images),) + correspondence.cage_automorphisms()[1:]
    monkeypatch.setattr(correspondence, "cage_automorphisms", lambda: planted)


def repeat_a_cage_automorphism(monkeypatch):
    found = correspondence.cage_automorphisms()
    planted = found[:1] * 2 + found[2:]  # still 1440, one of them twice
    monkeypatch.setattr(correspondence, "cage_automorphisms", lambda: planted)


def unmatch_a_cage_map(monkeypatch):
    tables = autgroup.enumerate_automorphisms(6)[:-1]
    monkeypatch.setattr(correspondence, "enumerate_automorphisms", lambda n: tables)


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


def conjugate_one_two_by_one_three_wrongly(monkeypatch):
    conjugate, identity = Permutation.conjugate, Permutation.identity(4)
    pair = (Permutation.transposition(4, 1, 2), Permutation.transposition(4, 1, 3))
    monkeypatch.setattr(
        Permutation,
        "conjugate",
        lambda p, g: identity if (p, g) == pair else conjugate(p, g),
    )


def conjugate_the_other_way(monkeypatch):
    monkeypatch.setattr(Permutation, "conjugate", lambda p, g: g.inverse() * p * g)


def _misplace_degree_six_products(planted):
    """A plant under which p * q at degree 6 is planted(mul, p, q)."""

    def plant(monkeypatch):
        mul = Permutation.__mul__
        monkeypatch.setattr(
            Permutation,
            "__mul__",
            lambda p, q: planted(mul, p, q) if p.degree == 6 else mul(p, q),
        )

    return plant


def swap_the_factors_when_q_is_odd(mul, p, q):
    return mul(q, p) if (6 - len(q.cycle_type())) % 2 else mul(p, q)


def put_a_three_cycle_between_the_factors(mul, p, q):
    return mul(mul(p, Permutation.from_cycles(6, [(1, 2, 3)])), q)


def swap_two_images_of_one_product(mul, p, q):
    # Only (1,2,3) * (1,2,3,4,5,6) is wrong: the images of 1 and 2 trade places.
    # Random triples of Sym_6 would almost never form this one product.
    product = mul(p, q)
    if (p.images, q.images) != ((2, 3, 1, 4, 5, 6), (2, 3, 4, 5, 6, 1)):
        return product
    a, b, *rest = product.images
    return Permutation((b, a, *rest))


def conjugate_by_a_left_product(monkeypatch):
    conjugate = Permutation.conjugate
    monkeypatch.setattr(
        Permutation,
        "conjugate",
        lambda p, g: g * p if p.degree == 6 else conjugate(p, g),
    )


READ_SYM6_RIGHT = (  # every cache that reads sym(6).right
    autgroup.enumerate_automorphisms, autgroup._conjugators, autgroup.inner_and_outer,
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
    "outer-orders/inner-count": (
        key_the_degree_five_conjugators_on_x_alone,
        (),
        ("outer-orders",),
        "out order at degree 5 is 12",
    ),
    "outer-orders/duplicate": (
        fill_the_identity_for_each_y_at_degree_four,
        (autgroup.enumerate_automorphisms,),
        ("outer-orders",),
        "duplicate automorphisms from distinct candidates",
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
    "aut-group-sizes/witnessed": (
        _misplace_witnesses(),
        (autgroup.inner_and_outer,),
        ("aut-group-sizes", "induced-map-outer", "cage-correspondence")
        + ("involutive-counts",),
        "719 tables have witnesses",
    ),
    "aut-group-sizes/coset": (
        also_witness_the_second_outer_table,
        (autgroup.inner_and_outer,),
        ("aut-group-sizes", "induced-map-outer", "cage-correspondence")
        + ("involutive-counts",),
        "outer tables are not a single coset",
    ),
    "stars": (
        lose_a_transposition_from_a_star,
        (),
        ("stars",),
        "maximal sets differ from stars",
    ),
    "spectrum-survey": (
        _edit_orders(7, 1, dropping(3)),
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
    "spectrum-survey/survivors": (
        _edit_orders(8, 2, lambda first: {o: first[o] for o in (1, 2, 3)}),
        (),
        ("spectrum-survey",),
        "surviving classes: [(6, 3), (8, 2)]",
    ),
    "spectrum-survey/order-j": (
        _edit_orders(9, 4, dropping(4)),
        (),
        ("spectrum-survey",),
        "(n=9, j=4): no product of order j",
    ),
    "spectrum-survey/order-2j-plus-1": (
        _edit_orders(9, 4, dropping(9)),
        (),
        ("spectrum-survey",),
        "(n=9, j=4): no product of order 2j+1",
    ),
    "spectrum-survey/doubles": (
        _edit_orders(4, 2, lambda first: {**first, 4: first[1]}),
        (),
        ("spectrum-survey",),
        "degree-4 double spectrum is [1, 2, 4]",
    ),
    "spectrum-survey/class-size": (
        count_one_more_at_seven_three,
        (involutions._product_orders,),
        ("spectrum-survey",),
        "involution class (n=7, j=3) has 105 members, formula says 106",
    ),
    "labeled-icosahedra": (
        read_the_faces_as_distance_two_triangles,
        (),
        ("labeled-icosahedra",),
        "distance-2 route disagrees",
    ),
    "labeled-icosahedra/antipode": (
        _edit_model(swap_the_antipodes_of_one_and_two),
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
    "labeled-icosahedra/regular": (
        _edit_model(drop_a_skeleton_edge),
        (icosahedron.dual_pair_table,),
        ("labeled-icosahedra", "induced-map-outer"),
        "skeleton is not 5-regular",
    ),
    "labeled-icosahedra/faces": (
        _edit_model(repeat_the_first_face),
        (icosahedron.dual_pair_table,),
        ("labeled-icosahedra", "induced-map-outer"),
        "face list is not 20 distinct triangles",
    ),
    "labeled-icosahedra/face-orientations": (
        _edit_model(reverse_the_first_oriented_face),
        (icosahedron.dual_pair_table,),
        ("labeled-icosahedra", "induced-map-outer"),
        "orientations are inconsistent across faces",
    ),
    "labeled-icosahedra/involution": (
        _edit_model(fix_the_antipode_of_one),
        (icosahedron.dual_pair_table,),
        ("labeled-icosahedra", "induced-map-outer"),
        "antipode is not a fixed-point-free involution",
    ),
    "labeled-icosahedra/face-pairing": (
        _edit_model(replace_the_first_face_with_a_non_face),
        (icosahedron.dual_pair_table,),
        ("labeled-icosahedra", "induced-map-outer"),
        "antipode fails to pair faces disjointly",
    ),
    "labeled-icosahedra/symmetries": (
        drop_the_last_symmetry,
        (icosahedron.dual_pair_table,),
        ("labeled-icosahedra", "induced-map-outer"),
        "expected 120 symmetries, found 119",
    ),
    "labeled-icosahedra/rotations": (
        _misread_orientation(accept_a_reflection),
        (icosahedron.dual_pair_table,),
        ("labeled-icosahedra", "induced-map-outer"),
        "expected 60 rotations, found 61",
    ),
    "labeled-icosahedra/reflection": (
        _misread_orientation(trade_a_rotation_for_a_reflection),
        (icosahedron.dual_pair_table,),
        ("labeled-icosahedra", "induced-map-outer"),
        "antipode composed with a reflection must be a rotation",
    ),
    "labeled-icosahedra/triples": (
        _edit_triples(drop_a_triple_of_class_zero),
        (icosahedron.dual_pair_table,),
        ("labeled-icosahedra", "induced-map-outer"),
        "a class does not wear exactly 10 triples",
    ),
    "labeled-icosahedra/same-triples": (
        _edit_triples(dress_class_one_as_class_zero),
        (icosahedron.dual_pair_table,),
        ("labeled-icosahedra", "induced-map-outer"),
        "two classes wear the same triples",
    ),
    "labeled-icosahedra/complement": (
        _edit_triples(trade_a_triple_of_class_zero),
        (icosahedron.dual_pair_table,),
        ("labeled-icosahedra", "induced-map-outer"),
        "complementary triples do not belong to any class",
    ),
    "labeled-icosahedra/d2-regular": (  # a skeleton edge read as distance 2
        _edit_distances({1: {2: 2}}),
        (icosahedron.dual_pair_table,),
        ("labeled-icosahedra",),
        "distance-2 graph is not 5-regular",
    ),
    "labeled-icosahedra/d2-triangles": (  # (1,7), (2,8) out; (1,2), (7,8) in
        _edit_distances({1: {2: 2, 7: 1}, 2: {8: 1}, 7: {8: 2}}),
        (icosahedron.dual_pair_table,),
        ("labeled-icosahedra",),
        "distance-2 graph has 18 triangles, wanted 20",
    ),
    "labeled-icosahedra/d2-unmatched": (
        read_the_first_face_as_a_distance_two_triangle,
        (),
        ("labeled-icosahedra",),
        "distance-2 triangle triples match no rotation class",
    ),
    "induced-map-outer": (
        identify_through_a_conjugation, (), ("induced-map-outer",), "phi(C_1) != C_3"
    ),
    "induced-map-outer/coset": (
        identify_one_two_as_the_identity,
        (),
        ("induced-map-outer",),
        "identifications miss or exceed the outer coset",
    ),
    "induced-map-outer/injective": (  # phi lives on the cached table
        send_two_relabelings_to_one_letter_permutation,
        (icosahedron.dual_pair_table,),
        ("induced-map-outer",),
        "table is not a bijection of the elements of Sym_6",
    ),
    "induced-map-outer/homomorphism": (
        swap_the_second_and_third_relabelings,
        (icosahedron.dual_pair_table,),
        ("induced-map-outer",),
        "phi fails the homomorphism check",
    ),
    "induced-map-outer/scramble": (
        _edit_table(move_a_labeling_from_class_zero_to_one),
        (icosahedron.dual_pair_table,),
        ("induced-map-outer",),
        "relabeling scrambles the rotation classes",
    ),
    "induced-map-outer/letters": (
        _edit_table(swap_class_zero_with_a_class_of_another_pair),
        (icosahedron.dual_pair_table,),
        ("induced-map-outer",),
        "relabeling sends one dual pair onto two different pairs",
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
    "k6-dictionary/factorizations": (  # every cache that reads the factors
        drop_the_last_factor,
        (k6.tutte_graph, correspondence.cage_automorphisms),
        ("k6-dictionary", "cage-correspondence", "involutive-counts"),
        "expected 6 one-factorizations, found 4",
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
    "permutation-algebra/conjugacy": (
        conjugate_one_two_by_one_three_wrongly,
        (),
        ("permutation-algebra",),
        "conjugacy at degree 4",
    ),
    "permutation-algebra/conjugate": (
        conjugate_the_other_way,
        (),
        ("permutation-algebra",),
        "p.conjugate(q) must be q*p*q**-1",
    ),
    "permutation-algebra/associativity-6": (
        _misplace_degree_six_products(swap_the_factors_when_q_is_odd),
        (),
        ("permutation-algebra",),
        "associativity at degree 6",
    ),
    "permutation-algebra/inverses-6": (
        _misplace_degree_six_products(put_a_three_cycle_between_the_factors),
        (),
        ("stars", "permutation-algebra"),
        "inverses at degree 6",
    ),
    "permutation-algebra/one-product-6": (
        _misplace_degree_six_products(swap_two_images_of_one_product),
        (),
        ("permutation-algebra",),
        "associativity at degree 6",
    ),
    "permutation-algebra/conjugation-6": (
        conjugate_by_a_left_product,
        (),
        ("permutation-algebra",),
        "conjugation preserves cycle type at degree 6",
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
