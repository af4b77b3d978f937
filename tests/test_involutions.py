"""Star characterization and product-order spectra, with brute oracles."""

import itertools
import math

import pytest

from outersix import involutions
from outersix.errors import IntegrityError
from outersix.involutions import (
    _product_orders,
    dependent_closure,
    exists_product_of_order,
    is_transposition,
    lemma2_survey,
    maximal_independent_sets,
    product_order_spectrum,
    star,
    stars,
)
from outersix.perms import Permutation, involution_class, parse_cycles


def tr(n, a, b):
    return Permutation.transposition(n, a, b)


def test_dependent_closure_shared_point():
    # (1,2) and (1,3) close to (2,3).
    assert dependent_closure(tr(3, 1, 2), tr(3, 1, 3)) == tr(3, 2, 3)
    # (1,2) and (2,5) close to (1,5).
    assert dependent_closure(tr(5, 1, 2), tr(5, 2, 5)) == tr(5, 1, 5)


def test_dependent_closure_is_symmetric():
    c1 = involution_class(5, 1)
    for x, y in itertools.combinations(c1, 2):
        if x.commutes_with(y):
            continue
        z = dependent_closure(x, y)
        assert z == dependent_closure(y, x)
        assert z == x * y * x == y * x * y
        assert is_transposition(z)
        assert z not in (x, y)


def test_dependent_closure_rejects_bad_input():
    with pytest.raises(ValueError):
        dependent_closure(tr(5, 1, 2), tr(5, 3, 4))  # disjoint, commuting
    with pytest.raises(ValueError):
        dependent_closure(tr(5, 1, 2), tr(5, 1, 2))  # equal, commuting
    with pytest.raises(ValueError):
        dependent_closure(tr(5, 1, 2), parse_cycles("(1,2)(3,4)", 5))
    with pytest.raises(ValueError):
        dependent_closure(tr(5, 1, 2), tr(6, 1, 3))


def test_dependent_closure_rejects_a_closure_that_is_no_transposition(monkeypatch):
    is_transposition = involutions.is_transposition
    monkeypatch.setattr(
        involutions,
        "is_transposition",
        lambda p: p != tr(3, 2, 3) and is_transposition(p),
    )
    with pytest.raises(IntegrityError, match=r"closure \(2,3\) is not a transposition"):
        dependent_closure(tr(3, 1, 2), tr(3, 1, 3))


def test_dependent_closure_rejects_a_broken_braid_relation(monkeypatch):
    mul, x, y = Permutation.__mul__, tr(3, 1, 2), tr(3, 1, 3)
    yx, identity = y * x, Permutation.identity(3)
    monkeypatch.setattr(  # (y*x)*y comes out as the identity
        Permutation,
        "__mul__",
        lambda p, q: identity if (p, q) == (yx, y) else mul(p, q),
    )
    with pytest.raises(IntegrityError, match=r"x\*y\*x != y\*x\*y"):
        dependent_closure(x, y)


def _brute_maximal_sets(n):
    """Oracle: scan the full powerset of the transposition class."""
    c1 = involution_class(n, 1)

    def valid(subset):
        for x, y in itertools.combinations(subset, 2):
            if x.commutes_with(y):
                return False
            if x * y * x in subset:
                return False
        return True

    valid_sets = [
        frozenset(s)
        for r in range(1, len(c1) + 1)
        for s in itertools.combinations(c1, r)
        if valid(frozenset(s))
    ]
    return frozenset(
        s
        for s in valid_sets
        if not any(s < bigger for bigger in valid_sets)
    )


@pytest.mark.parametrize("n", [3, 4, 5])
def test_maximal_sets_match_powerset_oracle(n):
    assert maximal_independent_sets(n) == _brute_maximal_sets(n)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_maximal_sets_are_exactly_the_stars(n):
    found = maximal_independent_sets(n)
    assert found == frozenset(stars(n).values())
    assert len(found) == n
    assert all(len(s) == n - 1 for s in found)


def _permutation_keyed_sets(n):
    """Reference: the star search keyed by frozensets of Permutations, as it
    ran before the search moved onto indices into C_1."""
    c1 = involution_class(n, 1)
    closure = {}
    for x, y in itertools.combinations(c1, 2):
        if not x.commutes_with(y):
            closure[frozenset((x, y))] = dependent_closure(x, y)

    def is_valid(members):
        for x, y in itertools.combinations(members, 2):
            key = frozenset((x, y))
            if key not in closure:
                return False  # the pair commutes
            if closure[key] in members:
                return False
        return True

    valid_sets = []

    def extend(current, start):
        valid_sets.append(current)
        for k in range(start, len(c1)):
            candidate = current + (c1[k],)
            if is_valid(candidate):
                extend(candidate, k + 1)

    extend((), 0)
    maximal = []
    for members in valid_sets:
        if not members:
            continue
        extensions = (t for t in c1 if t not in members)
        if all(not is_valid(members + (t,)) for t in extensions):
            maximal.append(frozenset(members))
    return frozenset(maximal)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_index_search_matches_the_permutation_keyed_search(n):
    assert maximal_independent_sets(n) == _permutation_keyed_sets(n)


def test_each_maximal_set_has_a_single_anchor_point():
    for n in (3, 6):
        for members in maximal_independent_sets(n):
            common = set.intersection(
                *({c for cyc in m.cycles() for c in cyc} for m in members)
            )
            assert len(common) == 1
            (anchor,) = common
            assert members == star(n, anchor)


def test_star_guards():
    with pytest.raises(ValueError):
        maximal_independent_sets(2)
    with pytest.raises(ValueError):
        maximal_independent_sets(8)
    with pytest.raises(ValueError):
        star(4, 5)


def _full_sweep_spectrum(n, j):
    """Oracle: all ordered pairs, no conjugation shortcut."""
    members = involution_class(n, j)
    return frozenset((x * y).order() for x in members for y in members)


@pytest.mark.parametrize(
    "n,j", [(4, 1), (4, 2), (5, 1), (5, 2), (6, 1), (6, 2), (6, 3)]
)
def test_spectrum_matches_full_sweep_oracle(n, j):
    assert product_order_spectrum(n, j) == _full_sweep_spectrum(n, j)


def _permutation_route(n, j):
    """Oracle: the sweep on Permutation products, with the order read off a
    second walk, the lengths of the product's cycles."""
    members = involution_class(n, j)
    first = {}
    for y in members:
        first.setdefault(math.lcm(*map(len, (members[0] * y).cycles())), y)
    return members[0], first


@pytest.mark.parametrize("n", range(4, 10))
def test_sweep_matches_the_permutation_route(n):
    # The first y per order is each witness pair the lemma2 report prints.
    for j in range(1, n // 2 + 1):
        x0, first = _product_orders.__wrapped__(n, j)
        oracle_x0, oracle_first = _permutation_route(n, j)
        assert x0 == oracle_x0
        assert list(first.items()) == list(oracle_first.items())


def test_the_closed_form_first_factor_is_the_first_member():
    for n in range(2, 12):
        for j in range(1, n // 2 + 1):
            assert _product_orders.__wrapped__(n, j)[0] == involution_class(n, j)[0]


def test_spectrum_frozen_values():
    assert product_order_spectrum(3, 1) == {1, 3}
    assert product_order_spectrum(6, 1) == {1, 2, 3}
    # The three disjoint double transpositions in degree 4 pairwise commute.
    assert product_order_spectrum(4, 2) == {1, 2}
    # Full pairwise sweep over the 15 triple transpositions realizes 1, 2, 3.
    assert product_order_spectrum(6, 3) == {1, 2, 3}
    assert 4 in product_order_spectrum(8, 4)
    assert 11 in product_order_spectrum(11, 5)


def test_transposition_spectrum_small_degrees():
    for n in range(4, 8):
        assert product_order_spectrum(n, 1) == {1, 2, 3}


def test_product_order_is_symmetric():
    for n, j in ((6, 1), (6, 3)):
        members = involution_class(n, j)
        for x, y in itertools.combinations(members, 2):
            assert (x * y).order() == (y * x).order()


def test_exists_product_of_order_returns_checked_witnesses():
    pair = exists_product_of_order(10, 5, 5)
    assert pair is not None
    assert (pair[0] * pair[1]).order() == 5
    pair = exists_product_of_order(11, 5, 11)
    assert pair is not None
    assert (pair[0] * pair[1]).order() == 11
    assert exists_product_of_order(6, 3, 5) is None
    assert exists_product_of_order(4, 2, 3) is None


def test_survey_rows_and_unique_survivor():
    rows = lemma2_survey(7)
    keys = [(row["n"], row["j"]) for row in rows]
    assert keys == [(4, 2), (5, 2), (6, 2), (6, 3), (7, 2), (7, 3)]
    assert all(
        set(row) == {"n", "j", "spectrum", "status", "witnesses"}
        for row in rows
    )
    by_key = dict(zip(keys, rows))
    assert by_key[(4, 2)]["status"] == "eliminated"
    assert by_key[(6, 3)]["status"] == "surviving"
    for n_max in (7, 11):
        survivors = [
            (row["n"], row["j"])
            for row in lemma2_survey(n_max)
            if row["status"] == "surviving"
        ]
        assert survivors == [(6, 3)]


def test_survey_witnesses_verify():
    for row in lemma2_survey(8):
        n, j = row["n"], row["j"]
        order_j = row["witnesses"]["order_j"]
        assert order_j is not None  # 2j <= n holds for every row
        x, y = (parse_cycles(s, n) for s in order_j)
        assert (x * y).order() == j
        long_pair = row["witnesses"]["order_2j_plus_1"]
        if n > 2 * j:
            assert long_pair is not None
            x, y = (parse_cycles(s, n) for s in long_pair)
            assert (x * y).order() == 2 * j + 1
        else:
            assert long_pair is None


def test_survey_guards():
    with pytest.raises(ValueError):
        lemma2_survey(12)
    with pytest.raises(ValueError):
        lemma2_survey(3)
    with pytest.raises(ValueError):
        product_order_spectrum(12, 1)
    with pytest.raises(ValueError, match="2 <= n <= 11, got 1"):
        product_order_spectrum(1, 1)
    # The closed-form first factor has no meaning here; the class is refused.
    with pytest.raises(ValueError, match=r"class \(n=4, j=3\) is empty"):
        product_order_spectrum(4, 3)
    with pytest.raises(ValueError, match="j must be at least 1"):
        product_order_spectrum(4, 0)
