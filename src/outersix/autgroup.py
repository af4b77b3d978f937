"""Exhaustive enumeration of Aut(Sym_n) for 3 <= n <= 6.

Sym_n is generated by x = (1,2) and y = (1,2,...,n), so an automorphism is
pinned down by the images of x and y.  The heavy work runs on sym(n), one
indexed kernel: elements, inverses and orders as integers, and the Cayley
table once, column-major: right[h][g] is the index of g*h.  Only the x and
y columns come from the permutations.  The build walks the Cayley graph on
{x, y} breadth first from the identity, h -> h*s, and makes each new column
one gather of two known ones, right[h*s] = right[s] read at right[h].  It
records the tree it walked, and its one guard demands that the walk reached
every element, that is, that x and y generate.  extend(n, x', y') fills the
full image table along that tree, each element from its tree parent.  A
fill is certified by is_homomorphism, which checks every edge (g, g*s) of
the Cayley graph: that certifies the homomorphism property exactly, by
induction on word length.  A homomorphism is injective, so a bijection of
the finite group, exactly when its kernel is trivial: only the identity
may map to the identity.  The search feeds it every
candidate pair (an involution for x, an order-n element for y).  No
sampling, no reliance on pruning heuristics: the one shortcut before the
fill asks the words of the Coxeter-Moser presentation, x'*y'**k for
0 < k < n and x'*y'**-k*x'*y'**k for 0 < k <= n/2, for the orders of the
same words in x and y.  Every automorphism keeps the order of every word,
so this is only a necessary condition and nothing valid is skipped; the
fill, is_homomorphism and its kernel test stay the authority.

Automorphisms are stored as full image tables over the element list, which
makes composition, comparison and coset bookkeeping plain tuple arithmetic.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from operator import itemgetter

from .errors import IntegrityError
from .perms import Permutation, enumerate_sym, involution_class

MIN_SEARCH_DEGREE = 3
MAX_SEARCH_DEGREE = 6


def group_elements(n: int) -> tuple[Permutation, ...]:
    """All of Sym_n in lexicographic order of image tuples."""
    if not 1 <= n <= MAX_SEARCH_DEGREE:
        raise ValueError(f"group tables supported for n <= {MAX_SEARCH_DEGREE}")
    return tuple(enumerate_sym(n))


# The indexed kernel of Sym_n: right[h][g] is the index of g*h (h applied
# first), x and y are the indices of (1,2) and (1,2,...,n), and tree holds
# one (h, generator, h*generator) per element other than the identity, in
# breadth-first order, so each h is the identity or an earlier h*generator.
Sym = namedtuple("Sym", "elements index right inverse order identity x y tree")


@lru_cache(maxsize=None)
def sym(n: int) -> Sym:
    """The indexed kernel of Sym_n, built once per degree."""
    elements = group_elements(n)
    index = {p.images: k for k, p in enumerate(elements)}
    identity = index[Permutation.identity(n).images]
    x = index[Permutation.transposition(n, 1, 2).images]
    y = index[Permutation.full_cycle(n).images]
    column = {  # g -> g*gen, from the permutations
        gen: tuple([
            index[tuple([p.images[v - 1] for v in elements[gen].images])]
            for p in elements
        ])
        for gen in (x, y)
    }
    right = [None] * len(elements)
    right[identity] = tuple(range(len(elements)))
    walk, tree = [identity], []
    for h in walk:  # visits the elements appended below as well
        for gen in (x, y):
            k = column[gen][h]  # h*gen
            if right[k] is None:
                right[k] = itemgetter(*right[h])(column[gen])  # g -> g*h*gen
                walk.append(k)
                tree.append((h, gen, k))
    if len(walk) != len(elements):
        raise IntegrityError(f"(1,2) and (1,...,{n}) fail to generate Sym_{n}")
    return Sym(
        elements=elements, index=index, right=tuple(right),
        inverse=tuple(index[p.inverse().images] for p in elements),
        order=tuple(p.order() for p in elements), identity=identity, x=x, y=y,
        tree=tuple(tree),
    )


def element_index(n: int, p: Permutation) -> int:
    return sym(n).index[p.images]


class AutomorphismTable:
    """An automorphism of Sym_n as a full table of element-index images."""

    __slots__ = ("n", "images", "_hash")

    def __init__(self, n: int, images):
        images = tuple(images)
        size = len(sym(n).elements)
        if len(images) != size or not set(images).issuperset(range(size)):
            raise IntegrityError(f"table is not a bijection of the elements of Sym_{n}")
        self.n, self.images, self._hash = n, images, None

    @classmethod
    def _raw(cls, n: int, images: tuple[int, ...]) -> "AutomorphismTable":
        # Trusted constructor for images already known to be a bijection.
        table = object.__new__(cls)
        table.n, table.images, table._hash = n, images, None
        return table

    def apply(self, p: Permutation) -> Permutation:
        s = sym(self.n)
        return s.elements[self.images[s.index[p.images]]]

    def compose(self, other: "AutomorphismTable") -> "AutomorphismTable":
        """self after other."""
        if self.n != other.n:
            raise ValueError("degree mismatch")
        return AutomorphismTable._raw(self.n, itemgetter(*other.images)(self.images))

    def is_identity(self) -> bool:
        return all(v == k for k, v in enumerate(self.images))

    def is_involution(self) -> bool:
        """True for order exactly 2; the identity does not count."""
        images = self.images
        return not self.is_identity() and all(
            images[images[k]] == k for k in range(len(images))
        )

    def is_homomorphism(self) -> bool:
        """Exact check on every edge (g, g*s), s a generator, a column at once."""
        s = sym(self.n)
        right, images = s.right, self.images
        at_images = itemgetter(*images)
        return all(
            itemgetter(*right[gen])(images) == at_images(right[images[gen]])
            for gen in (s.x, s.y)
        )

    def generator_images(self) -> tuple[Permutation, Permutation]:
        s = sym(self.n)
        return (s.elements[self.images[s.x]], s.elements[self.images[s.y]])

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, AutomorphismTable)
            and self.n == other.n
            and self.images == other.images
        )

    def __hash__(self) -> int:
        if self._hash is None:  # once per table: the coset bookkeeping rehashes
            self._hash = hash((self.n, self.images))
        return self._hash

    def __lt__(self, other: "AutomorphismTable") -> bool:
        return self.images < other.images

    def __repr__(self) -> str:
        x_img, y_img = self.generator_images()
        return f"<Aut(Sym_{self.n}) (1,2)->{x_img} (1,..,{self.n})->{y_img}>"


def extend(n: int, x_image: int, y_image: int) -> AutomorphismTable | None:
    """The automorphism of Sym_n sending x and y to the given element
    indices, or None when no automorphism does."""
    s = sym(n)
    column = {s.x: s.right[x_image], s.y: s.right[y_image]}
    images = [s.identity] * len(s.elements)  # the tree fills all the others
    for g, gen, h in s.tree:
        images[h] = column[gen][images[g]]
    table = AutomorphismTable._raw(n, tuple(images))
    if table.is_homomorphism() and images.count(s.identity) == 1:  # trivial kernel
        return table
    return None


def _word_orders(n: int, a: int, b: int) -> tuple[int, ...]:
    """The orders of a*b**k for 0 < k < n, then of a*b**-k*a*b**k for
    0 < k <= n/2, for b of order n, walked along the columns of a and b."""
    s = sym(n)
    after_a, after_b = s.right[a], s.right[b]
    words = [a]  # a*b**k for 0 <= k < n, then the n // 2 conjugate words
    for _ in range(1, n):
        words.append(after_b[words[-1]])
    for k in range(1, n // 2 + 1):
        g = after_a[words[n - k]]  # a*b**-k*a, as b**-k == b**(n-k)
        for _ in range(k):
            g = after_b[g]
        words.append(g)
    return tuple(s.order[g] for g in words[1:])


@lru_cache(maxsize=None)
def enumerate_automorphisms(n: int) -> tuple[AutomorphismTable, ...]:
    """Every automorphism of Sym_n, by exhausting generator image pairs."""
    if not MIN_SEARCH_DEGREE <= n <= MAX_SEARCH_DEGREE:
        raise ValueError(
            f"search supported for {MIN_SEARCH_DEGREE} <= n <= "
            f"{MAX_SEARCH_DEGREE}, got {n}"
        )
    s = sym(n)
    relations = _word_orders(n, s.x, s.y)  # the first is the order of x*y
    x_candidates = [k for k, o in enumerate(s.order) if o == 2]
    y_candidates = [k for k, o in enumerate(s.order) if o == n]

    pairs = (
        (xc, yc) for xc in x_candidates for yc in y_candidates
        if s.order[s.right[yc][xc]] == relations[0]  # the cheapest test first
        and _word_orders(n, xc, yc) == relations
    )
    tables = [table for xc, yc in pairs if (table := extend(n, xc, yc)) is not None]
    tables.sort()
    if len(set(tables)) != len(tables):
        raise IntegrityError("duplicate automorphisms from distinct candidates")
    return tuple(tables)


def _conjugation_images(n: int, g: int) -> tuple[int, ...]:
    """The images of p -> g * p * g**-1 for the element index g, unvalidated."""
    s = sym(n)
    at_g_times = itemgetter(*[col[g] for col in s.right])  # g*p, for each p
    return at_g_times(s.right[s.inverse[g]])


def conjugation_table(n: int, g: Permutation) -> AutomorphismTable:
    """The inner automorphism p -> g * p * g**-1."""
    return AutomorphismTable(n, _conjugation_images(n, sym(n).index[g.images]))


@lru_cache(maxsize=None)
def _conjugators(n: int) -> dict[tuple[int, int], int]:
    """(g*x*g**-1, g*y*g**-1) -> g, keeping the first g in element order."""
    s = sym(n)
    right, after_x, after_y = s.right, s.right[s.x], s.right[s.y]
    return {  # built from the last g down, so the first g wins a shared key
        (right[s.inverse[g]][after_x[g]], right[s.inverse[g]][after_y[g]]): g
        for g in reversed(range(len(right)))
    }


def inner_witness(table: AutomorphismTable) -> Permutation | None:
    """Some g whose conjugation equals the table, or None when outer.

    g is looked up by the generator images, then checked on the full table;
    the validated conjugation table is built only when the images disagree.
    """
    n, s = table.n, sym(table.n)
    gi = _conjugators(n).get((table.images[s.x], table.images[s.y]))
    if gi is None:
        return None
    g = s.elements[gi]
    if _conjugation_images(n, gi) != table.images and conjugation_table(n, g) != table:
        raise IntegrityError(
            "generator images match a conjugation but the tables differ"
        )
    return g


@lru_cache(maxsize=None)
def inner_and_outer(
    n: int,
) -> tuple[tuple[AutomorphismTable, ...], tuple[AutomorphismTable, ...]]:
    """The enumerated automorphisms split by inner witness existence."""
    inner, outer = [], []
    for table in enumerate_automorphisms(n):
        if inner_witness(table) is None:
            outer.append(table)
        else:
            inner.append(table)
    return tuple(inner), tuple(outer)


def inner_order(n: int) -> int:
    """Number of distinct conjugation maps.  Each is an automorphism, so its
    images of x and y fix it: the conjugators' keys count them exactly."""
    return len(_conjugators(n))


def out_order(n: int) -> int:
    """|Aut| / |Inn|, the size of the outer quotient."""
    aut = len(enumerate_automorphisms(n))
    inn = inner_order(n)
    if aut % inn:
        raise IntegrityError(f"|Inn| = {inn} does not divide |Aut| = {aut}")
    return aut // inn


def class_image(table: AutomorphismTable, j: int) -> int:
    """The index j' with table(C_j) = C_j', for a certified automorphism:
    it permutes the conjugacy classes, so one member settles all of C_j."""
    return table.apply(involution_class(table.n, j)[0]).cycle_type().count(2)


def involutive_outer_count() -> int:
    """Outer automorphisms of Sym_6 that square to the identity."""
    _, outer = inner_and_outer(6)
    return sum(1 for table in outer if table.is_involution())
