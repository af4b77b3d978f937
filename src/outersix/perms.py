"""Permutations of {1..n}: algebra, cycle structure, involution classes.

Conventions used throughout the package:

- Points are 1-based.  A permutation of degree n stores the tuple of images
  ``(p(1), ..., p(n))``.
- Composition applies the right factor first: ``(p * q)(k) == p(q(k))``.
- Cycle notation reads ``"(1,2)(3,4)"``; fixed points are omitted and the
  identity prints as ``"()"``.
- Conjugation is ``p.conjugate(g) == g * p * g.inverse()``.
- Cycle types are partitions written as tuples sorted in descending order,
  so the class of an involution with j 2-cycles in degree n has cycle type
  ``(2,) * j + (1,) * (n - 2*j)``.

Involutions with exactly j 2-cycles form a single conjugacy class; the
module exposes that class both by direct construction (one recursive walk
that fixes or pairs each point in turn, emitting in lexicographic order the
products of a fixed left factor with the members) and through its counting
formula n! / (i! * j! * 2**j) with i = n - 2*j fixed points.
"""

from __future__ import annotations

import itertools
import math
import re
from typing import Iterable, Iterator, Sequence

from .errors import IntegrityError

# Full enumeration of Sym_n is refused above this degree; 10! is the largest
# sweep anything here is expected to perform.
MAX_ENUMERATION_DEGREE = 10

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


class Permutation:
    """An element of the symmetric group on {1..n}, stored by its images.

    >>> p = Permutation((2, 1, 3))
    >>> p
    (1,2)
    >>> p(1), p(2), p(3)
    (2, 1, 3)
    >>> q = Permutation.from_cycles(3, [(1, 3)])
    >>> p * q            # q acts first: 1 -> 3 -> 3, 3 -> 1 -> 2, 2 -> 2 -> 1
    (1,3,2)
    >>> (p * q).order()
    3
    """

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a bijection of 1..{len(images)}: {images!r}")
        self.images = images

    @classmethod
    def _raw(cls, images: tuple[int, ...]) -> "Permutation":
        # Trusted constructor for images already known to be a bijection.
        p = object.__new__(cls)
        p.images = images
        return p

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        if n < 1:
            raise ValueError("degree must be at least 1")
        return cls._raw(tuple(range(1, n + 1)))

    @classmethod
    def transposition(cls, n: int, a: int, b: int) -> "Permutation":
        """The 2-cycle (a,b) as an element of degree n."""
        return cls.from_cycles(n, [(a, b)])

    @classmethod
    def full_cycle(cls, n: int) -> "Permutation":
        """The n-cycle (1,2,...,n)."""
        return cls.from_cycles(n, [tuple(range(1, n + 1))])

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Iterable[int]]) -> "Permutation":
        images = list(range(1, n + 1))
        seen: set[int] = set()
        for cycle in cycles:
            cycle = tuple(cycle)
            if len(cycle) < 2:
                raise ValueError(f"cycle too short: {cycle!r}")
            for point in cycle:
                if not 1 <= point <= n:
                    raise ValueError(f"point {point} outside 1..{n}")
                if point in seen:
                    raise ValueError(f"point {point} repeated across cycles")
                seen.add(point)
            for src, dst in zip(cycle, cycle[1:] + cycle[:1]):
                images[src - 1] = dst
        return cls._raw(tuple(images))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition; the right factor is applied first."""
        a, b = self.images, other.images
        if len(a) != len(b):
            raise ValueError("degree mismatch")
        p = object.__new__(Permutation)
        p.images = tuple([a[v - 1] for v in b])
        return p

    def inverse(self) -> "Permutation":
        images = [0] * self.degree
        for k, v in enumerate(self.images, start=1):
            images[v - 1] = k
        return Permutation._raw(tuple(images))

    def conjugate(self, g: "Permutation") -> "Permutation":
        """g * self * g**-1, the relabeling of self along g."""
        return g * self * g.inverse()

    def commutes_with(self, other: "Permutation") -> bool:
        return self * other == other * self

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Nontrivial disjoint cycles, each rotated to start at its least
        point and sorted by that point; fixed points are omitted."""
        images = self.images
        seen = [False] * (len(images) + 1)
        out: list[tuple[int, ...]] = []
        for start, point in enumerate(images, start=1):
            if seen[start] or point == start:
                continue
            cycle = [start]
            while point != start:
                cycle.append(point)
                seen[point] = True
                point = images[point - 1]
            out.append(tuple(cycle))
        return tuple(out)

    def cycle_type(self) -> tuple[int, ...]:
        """Cycle lengths including fixed points, sorted descending.

        >>> Permutation.from_cycles(6, [(1, 2), (3, 4)]).cycle_type()
        (2, 2, 1, 1)
        """
        return tuple(sorted(_cycle_lengths(self.images), reverse=True))

    def order(self) -> int:
        return order_of(self.images)

    def is_identity(self) -> bool:
        return all(v == k for k, v in enumerate(self.images, start=1))

    def cycle_string(self) -> str:
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + ",".join(map(str, c)) + ")" for c in cycles)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __lt__(self, other: "Permutation") -> bool:
        return self.images < other.images

    def __repr__(self) -> str:
        return self.cycle_string()


def order_of(images: Sequence[int]) -> int:
    """The order of the permutation with these images, in one cycle walk."""
    return math.lcm(*_cycle_lengths(images))


def _cycle_lengths(images: Sequence[int]) -> list[int]:
    # One walk over the cycles, fixed points included, in order of least point.
    seen = [False] * len(images)
    lengths = []
    for start in range(len(images)):
        if seen[start]:
            continue
        length, point = 0, start
        while not seen[point]:
            seen[point] = True
            point = images[point] - 1
            length += 1
        lengths.append(length)
    return lengths


def parse_cycles(text: str, n: int) -> Permutation:
    """Parse cycle notation such as ``"(1,2)(3,4)"`` into a degree-n element.

    ``"()"`` denotes the identity.  Whitespace around numbers and parentheses
    is tolerated, but not inside a number: ``"(1 2,3)"`` is rejected.

    >>> parse_cycles("(1,3,2)", 4)
    (1,3,2)
    >>> parse_cycles("()", 3).is_identity()
    True
    """
    if re.sub(r"\s+", "", text) == "()":
        return Permutation.identity(n)
    body = _CYCLE_RE.findall(text)
    if _CYCLE_RE.sub("", text).strip() or not body:
        raise ValueError(f"malformed cycle notation: {text!r}")
    cycles = []
    for part in body:  # int() takes the blanks around a number, not inside one
        if not part.strip():
            raise ValueError(f"empty cycle in {text!r}")
        try:
            cycles.append(tuple(int(tok) for tok in part.split(",")))
        except ValueError as exc:
            raise ValueError(f"malformed cycle notation: {text!r}") from exc
    return Permutation.from_cycles(n, cycles)


def enumerate_sym(n: int) -> Iterator[Permutation]:
    """Yield all n! elements of Sym_n in lexicographic order of image tuples."""
    if not 1 <= n <= MAX_ENUMERATION_DEGREE:
        raise ValueError(
            "full enumeration supported for 1 <= n <= "
            f"{MAX_ENUMERATION_DEGREE}, got {n}"
        )
    for images in itertools.permutations(range(1, n + 1)):
        yield Permutation._raw(images)


def involution_class_size(n: int, j: int) -> int:
    """Size of the class of involutions with j 2-cycles in degree n."""
    _check_class_id(n, j)
    i = n - 2 * j
    return math.factorial(n) // (math.factorial(i) * math.factorial(j) * 2**j)


def involution_class(n: int, j: int) -> tuple[Permutation, ...]:
    """All involutions of degree n with exactly j 2-cycles, sorted."""
    _check_class_id(n, j)  # here, as len(left) below would read n < 0 as 0
    return tuple(map(Permutation._raw, involution_products(range(1, n + 1), j)))


def involution_products(left: Sequence[int], j: int) -> list[tuple[int, ...]]:
    """The images of left * y for each y in the class C_j of degree len(left),
    in lexicographic order of y, from one walk over the class with no
    Permutation per member.  The count is checked against the formula."""
    n = len(left)
    _check_class_id(n, j)
    products: list[tuple[int, ...]] = []
    _matchings(list(left), left, list(range(n)), j, products)
    if len(products) != involution_class_size(n, j):
        raise IntegrityError(
            f"involution class (n={n}, j={j}) has {len(products)} members, "
            f"formula says {involution_class_size(n, j)}"
        )
    return products


def _check_class_id(n: int, j: int) -> None:
    if n < 2:
        raise ValueError(f"degree must be at least 2, got {n}")
    if j < 1:
        raise ValueError(f"class index j must be at least 1, got {j}")
    if 2 * j > n:
        raise ValueError(f"class (n={n}, j={j}) is empty: need 2j <= n")


def _matchings(images: list, left: Sequence, free: list, pairs: int, out: list) -> None:
    # The least free index is first left fixed, then paired with each larger
    # one, so the factors y come in lexicographic order; images holds left * y
    # (a pairing swaps two entries).  Every call has 1 <= pairs <= len(free)/2.
    first, rest = free[0], free[1:]
    if len(rest) >= 2 * pairs:
        _matchings(images, left, rest, pairs, out)
    for k, partner in enumerate(rest):
        images[first], images[partner] = left[partner], left[first]
        if pairs == 1:
            out.append(tuple(images))
        else:
            _matchings(images, left, rest[:k] + rest[k + 1 :], pairs - 1, out)
        images[first], images[partner] = left[first], left[partner]
