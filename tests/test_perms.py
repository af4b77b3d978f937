"""Permutation algebra: frozen examples, exhaustive small sweeps, sampling."""

import doctest
import itertools
import math
import random

import pytest

from outersix import perms
from outersix.perms import (
    Permutation,
    enumerate_sym,
    involution_class,
    involution_class_size,
    involution_products,
    order_of,
    parse_cycles,
)


def test_doctests():
    result = doctest.testmod(perms)
    assert result.failed == 0


def test_identity_properties():
    e = Permutation.identity(5)
    assert e.is_identity()
    assert e.cycle_string() == "()"
    assert e.order() == 1
    p = parse_cycles("(1,4,2)", 5)
    assert p * e == p
    assert e * p == p


def test_compose_right_factor_first():
    # (1,2) composed with (1,3): the right factor acts first, so
    # 1 -> 3 -> 3, 3 -> 1 -> 2, 2 -> 2 -> 1, the 3-cycle (1,3,2).
    p = Permutation.transposition(3, 1, 2)
    q = Permutation.transposition(3, 1, 3)
    assert (p * q).images == (3, 1, 2)
    assert (p * q).cycle_string() == "(1,3,2)"
    assert (q * p).cycle_string() == "(1,2,3)"


def test_inverse_and_pow():
    p = parse_cycles("(1,2,3,4,5)", 5)
    assert (p * p.inverse()).is_identity()
    assert (p.inverse() * p).is_identity()


def test_inverse_exhaustive_sym4():
    for p in enumerate_sym(4):
        assert (p * p.inverse()).is_identity()


def test_associativity_exhaustive_sym3():
    elements = list(enumerate_sym(3))
    for p, q, r in itertools.product(elements, repeat=3):
        assert (p * q) * r == p * (q * r)


def test_associativity_sampled_sym6():
    rng = random.Random(0x5E6)
    elements = list(enumerate_sym(6))
    for _ in range(2000):
        p, q, r = (rng.choice(elements) for _ in range(3))
        assert (p * q) * r == p * (q * r)


def test_conjugate_frozen_example():
    # (1,2) conjugated by (1,3) relabels 1 -> 3, giving (2,3).
    p = Permutation.transposition(3, 1, 2)
    g = Permutation.transposition(3, 1, 3)
    assert p.conjugate(g) == Permutation.transposition(3, 2, 3)
    assert p.conjugate(Permutation.identity(3)) == p


def test_conjugate_is_relabeling_along_g():
    # g * p * g^-1 sends g(k) to g(p(k)); check pointwise on samples.
    rng = random.Random(0xC0)
    elements = list(enumerate_sym(6))
    for _ in range(500):
        p, g = rng.choice(elements), rng.choice(elements)
        c = p.conjugate(g)
        for k in range(1, 7):
            assert c(g(k)) == g(p(k))


def test_cycle_type_examples():
    assert Permutation.identity(4).cycle_type() == (1, 1, 1, 1)
    assert parse_cycles("(1,2)(3,4)", 6).cycle_type() == (2, 2, 1, 1)
    assert parse_cycles("(1,2,3,4,5,6)", 6).cycle_type() == (6,)
    assert parse_cycles("(1,2,3)(4,5)", 6).cycle_type() == (3, 2, 1)


def test_cycle_type_invariant_under_conjugation():
    rng = random.Random(7)
    elements = list(enumerate_sym(6))
    for _ in range(1000):
        p, g = rng.choice(elements), rng.choice(elements)
        assert p.conjugate(g).cycle_type() == p.cycle_type()


def test_equal_cycle_type_iff_conjugate_exhaustive_sym4():
    elements = list(enumerate_sym(4))
    for p, q in itertools.product(elements, repeat=2):
        conjugate = any(p.conjugate(g) == q for g in elements)
        assert conjugate == (p.cycle_type() == q.cycle_type())


def test_order_examples():
    assert parse_cycles("(1,2)", 2).order() == 2
    assert parse_cycles("(1,2,3)(4,5)", 6).order() == 6
    assert parse_cycles("(1,2,3,4)(5,6)", 6).order() == 4


@pytest.mark.parametrize("n", range(1, 7))
def test_order_and_cycle_type_follow_their_definitions(n):
    # Both read one cycle-length walk; here each is checked on its own terms.
    for p in enumerate_sym(n):
        power, k = p, 1
        while not power.is_identity():
            power, k = power * p, k + 1
        assert order_of(p.images) == p.order() == k
        lengths = [len(c) for c in p.cycles()]
        lengths += [1] * (n - sum(lengths))
        assert p.cycle_type() == tuple(sorted(lengths, reverse=True))


def test_product_of_different_degrees_is_refused():
    for p, q in (
        (Permutation.identity(3), Permutation.identity(4)),
        (parse_cycles("(1,2,3,4)", 4), parse_cycles("(1,2)", 2)),
    ):
        with pytest.raises(ValueError, match="degree mismatch"):
            p * q


def test_order_divides_group_order():
    for n in (3, 4, 5, 6):
        for p in enumerate_sym(n):
            assert math.factorial(n) % p.order() == 0


def test_enumerate_sym_counts_and_order():
    assert [p.images for p in enumerate_sym(1)] == [(1,)]
    for n in (2, 3, 4, 5, 6):
        elements = list(enumerate_sym(n))
        assert len(elements) == math.factorial(n)
        assert len(set(elements)) == len(elements)
        images = [p.images for p in elements]
        assert images == sorted(images)


def test_enumerate_sym_guard():
    with pytest.raises(ValueError):
        list(enumerate_sym(11))
    with pytest.raises(ValueError):
        list(enumerate_sym(0))


@pytest.mark.parametrize("n", range(2, 9))
def test_involution_class_matches_enumeration(n):
    # enumerate_sym is lexicographic, so each class must come out in the
    # same order as its members appear in the full sweep.
    by_type = {}
    for p in enumerate_sym(n):
        by_type.setdefault(p.cycle_type(), []).append(p)
    for j in range(1, n // 2 + 1):
        wanted = (2,) * j + (1,) * (n - 2 * j)
        assert list(involution_class(n, j)) == by_type[wanted]


@pytest.mark.parametrize("n", range(2, 9))
def test_involution_products_are_the_products_with_each_member(n):
    rng = random.Random(0x17 + n)
    scrambled = Permutation(rng.sample(range(1, n + 1), n))
    for j in range(1, n // 2 + 1):
        members = involution_class(n, j)
        for left in (Permutation.identity(n), members[0], scrambled):
            wanted = [(left * y).images for y in members]
            assert involution_products(left.images, j) == wanted


def test_involution_class_sizes():
    # Degree 6: 15 transpositions, 45 double transpositions, 15 triple ones.
    assert involution_class_size(6, 1) == 15
    assert involution_class_size(6, 2) == 45
    assert involution_class_size(6, 3) == 15
    # Degree 4: exactly three products of two disjoint 2-cycles.
    assert involution_class_size(4, 2) == 3
    assert involution_class_size(2, 1) == 1
    assert involution_class_size(11, 5) == 10395
    for n in range(2, 12):
        for j in range(1, n // 2 + 1):
            assert len(involution_class(n, j)) == involution_class_size(n, j)


def test_involution_class_guards():
    with pytest.raises(ValueError):
        involution_class(4, 3)
    with pytest.raises(ValueError):
        involution_class(4, 0)
    with pytest.raises(ValueError):
        involution_class_size(1, 1)


def test_involutions_have_order_two():
    for p in involution_class(6, 2):
        assert not p.is_identity() and (p * p).is_identity()
        assert p.order() == 2
        assert p.inverse() == p


def test_parse_and_print_round_trip():
    for n in (4, 5, 6):
        for p in enumerate_sym(n):
            assert parse_cycles(p.cycle_string(), n) == p


def test_parse_rejects_malformed():
    for bad in ["", "1,2", "(1,2", "(1,2)x", "(1,1)", "(0,1)", "(1,7)", "(2)"]:
        with pytest.raises(ValueError):
            parse_cycles(bad, 6)
    for bad in ["(1 2,3)", "(1, 2 3)", "(1,2)( )", "( )(1,2)", "(1,(2,3))"]:
        with pytest.raises(ValueError):  # blanks never join two numbers into one
            parse_cycles(bad, 12)


def test_parse_tolerates_blanks_around_numbers_and_parentheses():
    expected = Permutation.from_cycles(4, [(1, 2), (3, 4)])
    assert parse_cycles(" ( 1 , 2 ) ( 3 , 4 ) ", 4) == expected
    assert parse_cycles(" ( ) ", 4).is_identity()


def test_constructor_rejects_non_bijections():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
    with pytest.raises(ValueError):
        Permutation((0, 1, 2))
    with pytest.raises(ValueError):
        Permutation.transposition(3, 2, 2)
    with pytest.raises(ValueError):
        Permutation.from_cycles(3, [(1, 2), (2, 3)])
    p = Permutation.identity(3)
    q = Permutation.identity(4)
    with pytest.raises(ValueError):
        p * q


def test_sorting_is_by_image_tuple():
    elements = sorted(enumerate_sym(3))
    assert [p.images for p in elements] == sorted(
        itertools.permutations((1, 2, 3))
    )
