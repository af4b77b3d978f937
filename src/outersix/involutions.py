"""Involution combinatorics behind the automorphism classification.

Two searches drive everything else in the package.

First, call a set of transpositions independent when its members pairwise
fail to commute and no two members x, y have their closure x*y*x inside the
set.  The maximal independent sets turn out to be exactly the point stars
S_i = { (i,k) : k != i }, which is what lets an automorphism that preserves
transpositions be read off as a relabeling of points.

Second, for the class C_j of involutions with j 2-cycles, the spectrum
{ order(x*y) : x, y in C_j } is computed and compared with the spectrum of
the transposition class C_1.  A mismatch eliminates C_j as a possible image
of C_1 under an automorphism.  The survey shows the only surviving class
with j > 1 anywhere in range is j = 3 in degree 6.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from types import MappingProxyType

from .errors import IntegrityError
from .perms import Permutation, involution_class, involution_products, order_of

# Spectrum sweeps walk one full involution class; degree 11 (where C_5 has
# 10395 members) is the largest anything downstream asks for.
MAX_SPECTRUM_DEGREE = 11

MIN_STAR_DEGREE = 3
MAX_STAR_DEGREE = 7


def is_transposition(p: Permutation) -> bool:
    return p.cycle_type() == (2,) + (1,) * (p.degree - 2)


def dependent_closure(x: Permutation, y: Permutation) -> Permutation:
    """The third transposition x*y*x (= y*x*y) closing a noncommuting pair.

    For x = (i,j) and y = (i,k) sharing the point i this is (j,k).
    Raises ValueError unless x and y are noncommuting transpositions of the
    same degree.
    """
    if x.degree != y.degree:
        raise ValueError("degree mismatch")
    if not (is_transposition(x) and is_transposition(y)):
        raise ValueError("dependent closure is defined for transpositions")
    if x.commutes_with(y):
        raise ValueError("transpositions commute; no dependent closure")
    z = x * y * x
    if z != y * x * y:
        raise IntegrityError("x*y*x != y*x*y for a noncommuting pair")
    if not is_transposition(z):
        raise IntegrityError(f"closure {z} is not a transposition")
    return z


def star(n: int, i: int) -> frozenset[Permutation]:
    """All transpositions of degree n moving the point i."""
    if not 1 <= i <= n:
        raise ValueError(f"point {i} outside 1..{n}")
    return frozenset(
        Permutation.transposition(n, i, k) for k in range(1, n + 1) if k != i
    )


def stars(n: int) -> dict[int, frozenset[Permutation]]:
    return {i: star(n, i) for i in range(1, n + 1)}


def maximal_independent_sets(n: int) -> frozenset[frozenset[Permutation]]:
    """Maximal sets of pairwise noncommuting transpositions avoiding their
    dependent closures.

    Every valid set of indices into C_1 is enumerated (validity is hereditary,
    so a depth-first scan over sorted members sees each one exactly once),
    then maximality is proved by testing every extension candidate.
    """
    if not MIN_STAR_DEGREE <= n <= MAX_STAR_DEGREE:
        raise ValueError(
            f"star search supported for {MIN_STAR_DEGREE} <= n <= "
            f"{MAX_STAR_DEGREE}, got {n}"
        )
    c1 = involution_class(n, 1)
    index = {t: k for k, t in enumerate(c1)}
    closure: dict[tuple[int, int], int] = {}  # (a, b), a < b, indices into c1
    for (a, x), (b, y) in itertools.combinations(enumerate(c1), 2):
        if not x.commutes_with(y):
            closure[a, b] = index[dependent_closure(x, y)]

    def is_valid(members: tuple[int, ...]) -> bool:  # members ascending
        for pair in itertools.combinations(members, 2):
            z = closure.get(pair)
            if z is None or z in members:  # the pair commutes, or closes inside
                return False
        return True

    valid_sets: list[tuple[int, ...]] = []

    def extend(current: tuple[int, ...], start: int) -> None:
        valid_sets.append(current)
        for k in range(start, len(c1)):
            candidate = current + (k,)
            if is_valid(candidate):
                extend(candidate, k + 1)

    extend((), 0)

    maximal = []
    for members in valid_sets:
        if not members:
            continue
        extensions = (k for k in range(len(c1)) if k not in members)
        if all(not is_valid(tuple(sorted(members + (k,)))) for k in extensions):
            maximal.append(frozenset(c1[k] for k in members))
    return frozenset(maximal)


@lru_cache(maxsize=None)
def _product_orders(n: int, j: int) -> tuple[Permutation, MappingProxyType]:
    """The first member x0 of C_j and {order(x0*y): first such y in C_j}.

    Only one factor needs to range over the whole class: conjugating a pair
    (x, y) by any g keeps order(x*y) and keeps both factors in C_j, and
    conjugation is transitive on the class, so products with a fixed first
    factor already realize every order.  Tests cross-check this against the
    full pairwise sweep at small degrees.
    """
    if not 2 <= n <= MAX_SPECTRUM_DEGREE:
        raise ValueError(
            f"spectrum sweep supported for 2 <= n <= {MAX_SPECTRUM_DEGREE}, got {n}"
        )
    i = n - 2 * j  # x0 fixes 1..i and swaps i+1 with i+2, i+3 with i+4, ...
    x0 = tuple(k if k <= i else i + 1 + ((k - i - 1) ^ 1) for k in range(1, n + 1))
    products = involution_products(x0, j)  # x0 * y for each y in C_j; checks (n, j)
    orders = list(map(order_of, products))
    x0, first = Permutation._raw(x0), {}
    for order in dict.fromkeys(orders):  # y = x0 * (x0 * y), as x0 is an involution
        first[order] = x0 * Permutation._raw(products[orders.index(order)])
    return x0, MappingProxyType(first)


def product_order_spectrum(n: int, j: int) -> frozenset[int]:
    """Orders realized by products of two members of the class C_j."""
    return frozenset(_product_orders(n, j)[1])


def exists_product_of_order(
    n: int, j: int, target: int
) -> tuple[Permutation, Permutation] | None:
    """A pair (x, y) from C_j with order(x*y) == target, or None."""
    x0, first = _product_orders(n, j)
    y = first.get(target)
    return None if y is None else (x0, y)


def lemma2_survey(n_max: int) -> list[dict]:
    """Survey every class C_j with j >= 2 and 2j <= n <= n_max.

    Each row records the class spectrum, whether the class survives the
    comparison with C_1's spectrum, and explicit witnesses: a pair with
    product of order j (present whenever 2j <= n) and a pair with product
    of order 2j+1 (present whenever n > 2j).  Rows are JSON-ready, with
    witness pairs rendered in cycle notation.
    """
    if not 4 <= n_max <= MAX_SPECTRUM_DEGREE:
        raise ValueError(
            f"survey supported for 4 <= n_max <= {MAX_SPECTRUM_DEGREE}, got {n_max}"
        )
    rows = []
    for n in range(4, n_max + 1):
        c1_spectrum = product_order_spectrum(n, 1)
        for j in range(2, n // 2 + 1):
            spectrum = product_order_spectrum(n, j)
            status = "surviving" if spectrum == c1_spectrum else "eliminated"
            witnesses = {
                "order_j": _witness_strings(n, j, j),
                "order_2j_plus_1": _witness_strings(n, j, 2 * j + 1),
            }
            rows.append(
                {
                    "n": n,
                    "j": j,
                    "spectrum": sorted(spectrum),
                    "status": status,
                    "witnesses": witnesses,
                }
            )
    return rows


def _witness_strings(n: int, j: int, target: int) -> list[str] | None:
    pair = exists_product_of_order(n, j, target)
    if pair is None:
        return None
    return [pair[0].cycle_string(), pair[1].cycle_string()]
