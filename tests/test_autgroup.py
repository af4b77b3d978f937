"""Automorphism groups of small symmetric groups, enumerated and classified."""

import itertools
import math
import random

import pytest

from outersix import autgroup
from outersix.autgroup import (
    AutomorphismTable,
    class_image,
    conjugation_table,
    enumerate_automorphisms,
    extend,
    group_elements,
    inner_and_outer,
    inner_order,
    inner_witness,
    involutive_outer_count,
    out_order,
    sym,
    _word_orders,
)
from outersix.errors import IntegrityError
from outersix.icosahedron import dual_pair_table
from outersix.perms import Permutation, involution_class


def test_identity_table():
    e = conjugation_table(4, Permutation.identity(4))
    assert e.is_identity()
    assert inner_witness(e) == Permutation.identity(4)
    for p in group_elements(4):
        assert e.apply(p) == p


def test_table_algebra():
    g = Permutation.from_cycles(4, [(1, 2, 3)])
    h = Permutation.transposition(4, 1, 4)
    a = conjugation_table(4, g)
    b = conjugation_table(4, h)
    assert a.compose(conjugation_table(4, g.inverse())).is_identity()
    # conj_g . conj_h = conj_(g*h) under right-factor-first composition
    assert a.compose(b) == conjugation_table(4, g * h)
    p = Permutation.from_cycles(4, [(2, 4)])
    assert a.apply(p) == p.conjugate(g)
    assert a.compose(b).apply(p) == a.apply(b.apply(p))


def test_table_validation():
    # A table that is no bijection is a broken invariant, not bad input.
    with pytest.raises(IntegrityError, match="bijection of the elements of Sym_3"):
        AutomorphismTable(3, [0] * 6)
    with pytest.raises(IntegrityError, match="bijection of the elements of Sym_3"):
        AutomorphismTable(3, range(5))
    # Six distinct images that are not exactly the indices 0..5.
    with pytest.raises(IntegrityError, match="bijection of the elements of Sym_3"):
        AutomorphismTable(3, range(1, 7))
    with pytest.raises(IntegrityError, match="bijection of the elements of Sym_3"):
        AutomorphismTable(3, (-1, 0, 1, 2, 3, 4))
    a = conjugation_table(3, Permutation.identity(3))
    b = conjugation_table(4, Permutation.identity(4))
    with pytest.raises(ValueError):
        a.compose(b)


def test_conjugation_tables_are_homomorphisms():
    for g in group_elements(4):
        assert conjugation_table(4, g).is_homomorphism()


@pytest.mark.parametrize("n,expected", [(3, 6), (4, 24), (5, 120)])
def test_small_degrees_all_inner(n, expected):
    aut = enumerate_automorphisms(n)
    assert len(aut) == expected
    assert inner_order(n) == math.factorial(n)
    assert out_order(n) == 1
    inner, outer = inner_and_outer(n)
    assert len(inner) == expected
    assert outer == ()
    # Enumerated set is exactly the set of conjugations.
    assert set(aut) == {conjugation_table(n, g) for g in group_elements(n)}


def test_enumeration_is_closed_under_composition_sym4():
    aut = set(enumerate_automorphisms(4))
    for a, b in itertools.product(aut, repeat=2):
        assert a.compose(b) in aut
    for a in aut:
        assert any(a.compose(b).is_identity() for b in aut)


def test_every_table_is_a_homomorphism_sym4():
    for a in enumerate_automorphisms(4):
        assert a.is_homomorphism()


def test_search_guards():
    with pytest.raises(ValueError):
        enumerate_automorphisms(2)
    with pytest.raises(ValueError):
        enumerate_automorphisms(7)
    with pytest.raises(ValueError):
        group_elements(7)
    with pytest.raises(ValueError):
        sym(7)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_derived_cayley_table_is_composition(n):
    s = sym(n)
    assert len(s.right) == len(s.elements)
    for h, q in enumerate(s.elements):
        assert [s.right[h][g] for g in range(len(s.elements))] == [
            s.index[tuple(p.images[v - 1] for v in q.images)] for p in s.elements
        ]


def test_cayley_table_guard_rejects_non_generators(monkeypatch, reset_caches):
    reset_caches(sym)
    monkeypatch.setattr(
        Permutation, "full_cycle", lambda n: Permutation.transposition(n, 1, 3)
    )
    with pytest.raises(IntegrityError, match="fail to generate Sym_4"):
        sym(4)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_tree_is_the_breadth_first_walk_along_the_generators(n):
    s = sym(n)
    reached = {s.identity}
    for h, gen, k in s.tree:
        assert gen in (s.x, s.y)
        assert k == s.right[gen][h]  # k = h*gen
        assert h in reached  # the identity or an earlier k
        assert k not in reached  # no element twice, and never the identity
        reached.add(k)
    assert len(reached) == len(s.elements)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_extend_rebuilds_conjugations_and_rejects_the_rest(n):
    s = sym(n)
    y_squared = s.right[s.y][s.y]
    assert extend(n, s.x, y_squared) is None
    assert extend(n, s.identity, s.identity) is None
    rng = random.Random(n)
    for g in rng.sample(s.elements, min(40, len(s.elements))):
        table = conjugation_table(n, g)
        assert extend(n, table.images[s.x], table.images[s.y]) == table


def test_extend_returns_only_a_certified_table(monkeypatch):
    s = sym(5)
    table = conjugation_table(5, Permutation.from_cycles(5, [(1, 3, 4)]))
    x_image, y_image = table.images[s.x], table.images[s.y]
    assert extend(5, x_image, y_image) == table
    monkeypatch.setattr(AutomorphismTable, "is_homomorphism", lambda self: False)
    assert extend(5, x_image, y_image) is None


@pytest.mark.parametrize(
    "n, sign", [(3, False), (4, False), (5, False), (6, False), (4, True), (6, True)]
)
def test_extend_rejects_a_homomorphism_with_a_kernel(n, sign):
    # The trivial map (e, e), or the sign map ((1,2), (1,2)): the n-cycle is
    # odd for even n, so the sign map sends it to (1,2) as well.
    s = sym(n)
    image = s.x if sign else s.identity
    fill = tuple(
        image if (n - len(p.cycle_type())) % 2 else s.identity for p in s.elements
    )
    assert AutomorphismTable._raw(n, fill).is_homomorphism()
    assert extend(n, image, image) is None


@pytest.mark.parametrize("n, survivors", [(3, 6), (4, 24), (5, 120), (6, 1440)])
def test_relation_filter_drops_only_pairs_the_fill_rejects(
    n, survivors, monkeypatch, reset_caches
):
    s = sym(n)
    relations = _word_orders(n, s.x, s.y)
    # the Coxeter-Moser exponents: (xy)**(n-1), (x y**-1 x y)**3, (x y**-k x y**k)**2
    assert relations[0] == n - 1
    assert relations[n - 1:] == (3,) + (2,) * (n // 2 - 1)
    passed = [
        (xc, yc)
        for xc, x_order in enumerate(s.order) if x_order == 2
        for yc, y_order in enumerate(s.order) if y_order == n
        if s.order[s.right[yc][xc]] == relations[0]
    ]
    kept = [pair for pair in passed if _word_orders(n, *pair) == relations]
    assert len(kept) == survivors
    assert all(extend(n, *pair) is None for pair in set(passed) - set(kept))
    fills = []  # the search fills exactly the pairs the filter keeps
    monkeypatch.setattr(
        autgroup, "extend", lambda *args: fills.append(args) or extend(*args)
    )
    reset_caches(enumerate_automorphisms)
    assert len(enumerate_automorphisms(n)) == survivors
    assert sorted(fills) == sorted((n, *pair) for pair in kept)


def test_tables_built_without_the_check_pass_it():
    tables = enumerate_automorphisms(6) + tuple(
        dual_pair_table().all_outer_automorphisms()
    )
    assert len(tables) == 1440 + 720
    for table in tables:
        assert sorted(table.images) == list(range(720))
        checked = AutomorphismTable(6, table.images)
        assert table == checked
        assert hash(table) == hash(checked)


def test_degree_six_counts():
    aut = enumerate_automorphisms(6)
    assert len(aut) == 1440
    assert inner_order(6) == 720
    assert out_order(6) == 2
    inner, outer = inner_and_outer(6)
    assert len(inner) == 720
    assert len(outer) == 720


def test_degree_six_outer_forms_one_coset():
    inner, outer = inner_and_outer(6)
    a0 = outer[0]
    assert {a0.compose(b) for b in inner} == set(outer)
    assert {b.compose(a0) for b in inner} == set(outer)
    # Composing two outer automorphisms lands inside Inn.
    inner_set = set(inner)
    rng = random.Random(0xA11)
    for _ in range(50):
        a, b = rng.choice(outer), rng.choice(outer)
        assert a.compose(b) in inner_set


def test_inner_witness_conjugates_correctly():
    rng = random.Random(3)
    elements = group_elements(6)
    for _ in range(20):
        g = rng.choice(elements)
        table = conjugation_table(6, g)
        w = inner_witness(table)
        assert w is not None
        assert conjugation_table(6, w) == table


def test_inner_witness_rejects_a_table_that_differs_off_the_generators():
    s = sym(6)
    g = Permutation.from_cycles(6, [(1, 3, 5), (2, 6)])
    images = list(conjugation_table(6, g).images)
    a, b = sorted(set(range(len(images))) - {s.x, s.y})[:2]
    images[a], images[b] = images[b], images[a]
    table = AutomorphismTable(6, images)
    assert not table.is_homomorphism()
    with pytest.raises(IntegrityError, match="conjugation but the tables differ"):
        inner_witness(table)


def test_outer_has_no_witness():
    _, outer = inner_and_outer(6)
    assert inner_witness(outer[0]) is None


def test_class_images():
    inner, outer = inner_and_outer(6)
    rng = random.Random(0xC1A55)
    for a in rng.sample(inner, 8):
        assert [class_image(a, j) for j in (1, 2, 3)] == [1, 2, 3]
    for a in rng.sample(outer, 8):
        assert [class_image(a, j) for j in (1, 2, 3)] == [3, 2, 1]


def test_outer_sends_transpositions_to_triple_involutions():
    _, outer = inner_and_outer(6)
    a = outer[0]
    for p in involution_class(6, 1):
        assert a.apply(p).cycle_type() == (2, 2, 2)


def test_involutive_counts():
    assert involutive_outer_count() == 36
    inner, _ = inner_and_outer(6)
    # Conjugation by an involution is the only way an inner table squares
    # to the identity (the center is trivial), giving 15 + 45 + 15 = 75.
    inner_involutive = sum(1 for a in inner if a.is_involution())
    assert inner_involutive == 75


def test_automorphisms_preserve_order_and_classes():
    aut = enumerate_automorphisms(6)
    elements = group_elements(6)
    rng = random.Random(99)
    for _ in range(200):
        a = rng.choice(aut)
        p = rng.choice(elements)
        assert a.apply(p).order() == p.order()
    # Image of a product is the product of images, spot-checked on top of
    # the certified construction.
    for _ in range(200):
        a = rng.choice(aut)
        p, q = rng.choice(elements), rng.choice(elements)
        assert a.apply(p * q) == a.apply(p) * a.apply(q)
