"""Antipodally labeled icosahedra and the outer automorphisms of Sym_6.

The model is combinatorial: vertex 1 on top, an upper ring 2..6, a lower
ring 7..11, vertex 12 at the bottom.  Antipodal vertices sit at graph
distance 3 and come in 6 pairs.  Labeling the pairs with 1..6 gives 720
labeled icosahedra; the 60 rotations act freely on them, leaving 12
rotation classes.  Each class is recognizable by the 10 label triples its
20 faces wear, the complementary 10 triples belong to a partner class, and
the 6 partner pairs (lettered a..f) are a second six-element set on which
Sym_6 acts.  Relabeling by sigma permutes the 12 classes, hence the 6
letters: that map phi, one table over Sym_6 built in one pass over the 720
relabelings, is a bijective homomorphism sending transpositions to triple
involutions, so conjugation by any identification of letters with points
after phi is an automorphism of Sym_6 that no conjugation realizes.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache
from operator import itemgetter

from .autgroup import AutomorphismTable, _conjugation_images, sym
from .errors import IntegrityError
from .graphs import Graph, automorphism_group, distances
from .perms import Permutation, enumerate_sym

_TOP = 1
_BOTTOM = 12
_UPPER = (2, 3, 4, 5, 6)
_LOWER = (7, 8, 9, 10, 11)


class IcosahedronModel:
    """Fixed combinatorial icosahedron: skeleton, faces, antipodal map."""

    __slots__ = ("vertices", "skeleton", "faces", "oriented_faces", "antipode")

    def __init__(self):
        self.vertices = tuple(range(1, 13))
        oriented = []
        for k in range(5):
            u, u1 = _UPPER[k], _UPPER[(k + 1) % 5]
            low, low1 = _LOWER[k], _LOWER[(k + 1) % 5]
            oriented.append((_TOP, u, u1))
            oriented.append((u1, u, low))
            oriented.append((u1, low, low1))
            oriented.append((_BOTTOM, low1, low))
        self.oriented_faces = tuple(oriented)
        self.faces = tuple(sorted(frozenset(f) for f in oriented))
        edges = {
            frozenset((a, b))
            for face in oriented
            for a, b in zip(face, face[1:] + face[:1])
        }
        self.skeleton = Graph(self.vertices, (tuple(e) for e in edges))
        pairing = {_TOP: _BOTTOM}
        for k in range(5):
            pairing[_UPPER[k]] = _LOWER[(k + 2) % 5]
        pairing.update({v: u for u, v in pairing.items()})
        self.antipode = pairing
        self._validate()

    def _validate(self) -> None:
        g = self.skeleton
        if any(g.degree(v) != 5 for v in self.vertices):
            raise IntegrityError("skeleton is not 5-regular")
        if len(set(self.faces)) != 20:
            raise IntegrityError("face list is not 20 distinct triangles")
        directed = [
            (a, b)
            for face in self.oriented_faces
            for a, b in zip(face, face[1:] + face[:1])
        ]
        if len(set(directed)) != 60:
            raise IntegrityError("orientations are inconsistent across faces")
        a = self.antipode
        if sorted(a) != list(self.vertices) or any(
            a[a[v]] != v or a[v] == v for v in a
        ):
            raise IntegrityError("antipode is not a fixed-point-free involution")
        for v in self.vertices:
            if distances(g, v).get(a[v]) != 3:
                raise IntegrityError(f"antipode of {v} is not at distance 3")
        face_set = set(self.faces)
        for face in self.faces:
            image = frozenset(a[v] for v in face)
            if image not in face_set or image & face:
                raise IntegrityError("antipode fails to pair faces disjointly")

    def antipodal_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (v, self.antipode[v]) for v in self.vertices if v < self.antipode[v]
        )


def _canonical(face: tuple[int, ...]) -> tuple[int, ...]:
    """The cyclic rotation of an oriented face that starts at its least vertex."""
    k = face.index(min(face))
    return face[k:] + face[:k]


def preserves_orientation(model: IcosahedronModel, symmetry: Permutation) -> bool:
    keys = frozenset(_canonical(f) for f in model.oriented_faces)
    return all(
        _canonical(tuple(symmetry(v) for v in face)) in keys
        for face in model.oriented_faces
    )


def full_symmetry_group() -> tuple[Permutation, ...]:
    """All 120 skeleton automorphisms (vertex ids equal positions)."""
    symmetries = automorphism_group(IcosahedronModel().skeleton)
    if len(symmetries) != 120:
        raise IntegrityError(f"expected 120 symmetries, found {len(symmetries)}")
    return symmetries


def rotation_group() -> tuple[Permutation, ...]:
    """The 60 orientation-preserving symmetries."""
    model, symmetries = IcosahedronModel(), full_symmetry_group()
    rotations = tuple(s for s in symmetries if preserves_orientation(model, s))
    if len(rotations) != 60:
        raise IntegrityError(f"expected 60 rotations, found {len(rotations)}")
    antipodal = Permutation(
        tuple(model.antipode[v] for v in model.vertices)
    )
    if antipodal in rotations:
        raise IntegrityError("antipodal map must reverse orientation")
    rotation_set = set(rotations)
    for s in symmetries:
        if s not in rotation_set and antipodal * s not in rotation_set:
            raise IntegrityError(
                "antipode composed with a reflection must be a rotation"
            )
    return rotations


def _distance2_triangles() -> tuple[frozenset[int], ...]:
    """The 20 triangles of the graph joining skeleton vertices at distance 2."""
    model = IcosahedronModel()
    pairs = [
        (u, v)
        for u in model.vertices
        for v, d in distances(model.skeleton, u).items()
        if u < v and d == 2
    ]
    graph = Graph(model.vertices, pairs)
    if any(graph.degree(v) != 5 for v in model.vertices):
        raise IntegrityError("distance-2 graph is not 5-regular")
    triangles = [
        frozenset((a, b, c))
        for a, b, c in itertools.combinations(model.vertices, 3)
        if graph.has_edge(a, b) and graph.has_edge(a, c) and graph.has_edge(b, c)
    ]
    if len(triangles) != 20:
        raise IntegrityError(
            f"distance-2 graph has {len(triangles)} triangles, wanted 20"
        )
    return tuple(triangles)


class DualPairTable:
    """Rotation classes of the 720 labelings, their dual pairing, and the
    induced action of Sym_6 on the 6 lettered pairs."""

    def __init__(self):
        self.model = IcosahedronModel()
        self.rotations = rotation_group()
        self.pairs = self.model.antipodal_pairs()
        self._pair_of_vertex = {v: k for k, pair in enumerate(self.pairs) for v in pair}

        # How each rotation permutes the 6 antipodal pairs.
        pair_images = []
        for r in self.rotations:
            image = tuple(
                self._pair_of_vertex[r(self.pairs[k][0])] for k in range(6)
            )
            pair_images.append(image)
        self._pair_images = tuple(pair_images)

        self.labelings = tuple(itertools.permutations((1, 2, 3, 4, 5, 6)))
        self.class_of: dict[tuple, int] = {}
        reps = []
        for labeling in self.labelings:
            if labeling in self.class_of:
                continue
            index = len(reps)
            reps.append(labeling)
            orbit = {
                tuple(labeling[image[k]] for k in range(6))
                for image in self._pair_images
            }
            if len(orbit) != 60:
                raise IntegrityError(
                    f"orbit of {labeling} has size {len(orbit)}, wanted 60"
                )
            self.class_of.update(dict.fromkeys(orbit, index))
        self.class_reps = tuple(reps)
        if len(self.class_reps) != 12:
            raise IntegrityError(
                f"expected 12 rotation classes, found {len(self.class_reps)}"
            )

        self.class_triples = tuple(
            self._label_triples(rep, self.model.faces) for rep in self.class_reps
        )
        all_triples = frozenset(
            frozenset(t) for t in itertools.combinations((1, 2, 3, 4, 5, 6), 3)
        )
        triple_index = {}
        for index, triples in enumerate(self.class_triples):
            if len(triples) != 10:
                raise IntegrityError("a class does not wear exactly 10 triples")
            if triples in triple_index:
                raise IntegrityError("two classes wear the same triples")
            triple_index[triples] = index
        self._class_by_triples = triple_index

        dual = []
        for index, triples in enumerate(self.class_triples):
            complement = all_triples - triples
            partner = triple_index.get(complement)
            if partner is None:
                raise IntegrityError(
                    "complementary triples do not belong to any class"
                )
            dual.append(partner)
        self.dual = tuple(dual)

        # Letters a..f: sort the 6 dual pairs by their smaller triple key.
        def triple_key(index):
            return tuple(sorted(tuple(sorted(t)) for t in self.class_triples[index]))

        dual_pairs = sorted(
            {tuple(sorted((c, self.dual[c]))) for c in range(12)},
            key=lambda pair: min(triple_key(pair[0]), triple_key(pair[1])),
        )
        self.dual_pairs = tuple(dual_pairs)
        self.letter_of_class = {}
        for letter_index, (c, d) in enumerate(self.dual_pairs, start=1):
            self.letter_of_class[c] = letter_index
            self.letter_of_class[d] = letter_index

    def _label_triples(self, labeling, triangles) -> frozenset[frozenset[int]]:
        """The label triples a labeling puts on the given vertex triangles."""
        label = {
            v: labeling[self._pair_of_vertex[v]] for v in self.model.vertices
        }
        return frozenset(
            frozenset(label[v] for v in triangle) for triangle in triangles
        )

    def duals_via_skeleton(self) -> tuple[int | None, ...]:
        """Each class's partner read off the 20 distance-2 triangles, built once:
        an independent route that never looks at triple complements.  None
        where the triples a class's labeling puts on them match no class."""
        triangles = _distance2_triangles()
        return tuple(
            self._class_by_triples.get(self._label_triples(rep, triangles))
            for rep in self.class_reps
        )

    @cached_property
    def _phi(self) -> AutomorphismTable:
        """phi as one table over sym(6), row k for the k-th relabeling sigma in
        lexicographic order: how sigma permutes the classes, read on the
        letters.  Every other view of phi is read from this table; the two
        guards make each row a permutation, as each letter owns two classes."""
        index, images = sym(6).index, []
        relabel = [itemgetter(*[v - 1 for v in rep]) for rep in self.class_reps]
        for sigma in enumerate_sym(6):
            class_images = [self.class_of[at(sigma.images)] for at in relabel]
            if sorted(class_images) != list(range(12)):
                raise IntegrityError("relabeling scrambles the rotation classes")
            letter_images = [0] * 6
            for c, image in enumerate(class_images):
                src = self.letter_of_class[c]
                dst = self.letter_of_class[image]
                if letter_images[src - 1] not in (0, dst):
                    raise IntegrityError(
                        "relabeling sends one dual pair onto two different pairs"
                    )
                letter_images[src - 1] = dst
            images.append(index[tuple(letter_images)])
        return AutomorphismTable(6, images)

    def pair_permutation(self, sigma: Permutation) -> Permutation:
        """The letter permutation phi(sigma) induced on the 6 dual pairs."""
        if sigma.degree != 6:
            raise ValueError("relabelings act on 6 labels")
        return self._phi.apply(sigma)

    def pair_permutation_table(self) -> tuple[Permutation, ...]:
        """phi on all 720 relabelings, aligned with lexicographic order."""
        return tuple(map(sym(6).elements.__getitem__, self._phi.images))

    def transposition_images(self) -> dict[tuple[int, int], Permutation]:
        return {
            (a, b): self.pair_permutation(Permutation.transposition(6, a, b))
            for a, b in itertools.combinations((1, 2, 3, 4, 5, 6), 2)
        }

    def outer_from_identification(self, ident: Permutation) -> AutomorphismTable:
        """The Sym_6 automorphism sigma -> ident * phi(sigma) * ident**-1
        obtained by identifying letters with points through ident: that is,
        conjugation by ident after phi."""
        if ident.degree != 6:
            raise ValueError("an identification matches 6 letters with 6 points")
        conjugation = _conjugation_images(6, sym(6).index[ident.images])
        return AutomorphismTable._raw(6, itemgetter(*self._phi.images)(conjugation))

    def all_outer_automorphisms(self) -> frozenset[AutomorphismTable]:
        """One automorphism per identification of letters with points."""
        return frozenset(map(self.outer_from_identification, enumerate_sym(6)))


@lru_cache(maxsize=None)
def dual_pair_table() -> DualPairTable:
    return DualPairTable()
