"""Labeled icosahedra: model, rotation classes, dual pairing, induced maps."""

import itertools
import random

import pytest

from outersix import icosahedron, verify
from outersix.autgroup import class_image, inner_and_outer, inner_witness
from outersix.graphs import distances
from outersix.icosahedron import (
    IcosahedronModel,
    dual_pair_table,
    full_symmetry_group,
    preserves_orientation,
    rotation_group,
)
from outersix.perms import Permutation, enumerate_sym


def test_model_shape():
    m = IcosahedronModel()
    assert len(m.vertices) == 12
    assert m.skeleton.edge_count() == 30
    assert len(m.faces) == 20
    assert all(m.skeleton.degree(v) == 5 for v in m.vertices)
    # Each edge borders exactly two faces.
    for edge in m.skeleton.edges():
        bordering = [f for f in m.faces if edge <= f]
        assert len(bordering) == 2


def test_antipodal_map():
    m = IcosahedronModel()
    a = m.antipode
    assert all(a[a[v]] == v and a[v] != v for v in m.vertices)
    assert all(distances(m.skeleton, v)[a[v]] == 3 for v in m.vertices)
    assert len(m.antipodal_pairs()) == 6
    face_set = set(m.faces)
    for face in m.faces:
        image = frozenset(a[v] for v in face)
        assert image in face_set
        assert not image & face


def test_symmetry_counts():
    assert len(full_symmetry_group()) == 120
    assert len(rotation_group()) == 60


def test_rotations_form_a_group():
    rotations = set(rotation_group())
    assert Permutation.identity(12) in rotations
    for r in rotations:
        assert r.inverse() in rotations
    rng = random.Random(1)
    sample = rng.sample(sorted(rotations), 12)
    for r, s in itertools.product(sample, repeat=2):
        assert r * s in rotations


def test_antipodal_map_reverses_orientation():
    m = IcosahedronModel()
    antipodal = Permutation(tuple(m.antipode[v] for v in m.vertices))
    assert antipodal in full_symmetry_group()
    assert not preserves_orientation(m, antipodal)
    # Composing with the antipode flips every reflection to a rotation.
    rotations = set(rotation_group())
    for s in full_symmetry_group():
        if s not in rotations:
            assert antipodal * s in rotations


def test_labeling_classes():
    t = dual_pair_table()
    assert len(t.labelings) == 720
    assert len(t.class_reps) == 12
    sizes = {}
    for labeling in t.labelings:
        sizes[t.class_of[labeling]] = sizes.get(t.class_of[labeling], 0) + 1
    assert sizes == {c: 60 for c in range(12)}
    # Representatives are the least labeling of their orbit.
    for index, rep in enumerate(t.class_reps):
        orbit = [l for l, c in t.class_of.items() if c == index]
        assert rep == min(orbit)


def test_face_triples_and_dual_pairing():
    t = dual_pair_table()
    all_triples = {
        frozenset(c) for c in itertools.combinations((1, 2, 3, 4, 5, 6), 3)
    }
    assert len(all_triples) == 20
    for c in range(12):
        triples = t.class_triples[c]
        assert len(triples) == 10
        partner = t.dual[c]
        assert partner != c
        assert t.dual[partner] == c
        assert t.class_triples[partner] == all_triples - triples
    assert len(t.dual_pairs) == 6
    letters = sorted(t.letter_of_class.values())
    assert letters == sorted(list(range(1, 7)) * 2)


def test_triples_are_constant_on_orbits():
    t = dual_pair_table()
    rng = random.Random(44)
    for labeling in rng.sample(t.labelings, 30):
        c = t.class_of[labeling]
        assert t._label_triples(labeling, t.model.faces) == t.class_triples[c]


def test_dual_via_skeleton_matches_complement_route():
    t = dual_pair_table()
    assert t.duals_via_skeleton() == t.dual


def test_the_check_builds_the_distance_two_triangles_once(monkeypatch):
    triangles, calls = icosahedron._distance2_triangles, []

    def counted():
        calls.append(None)
        return triangles()

    monkeypatch.setattr(icosahedron, "_distance2_triangles", counted)
    verify.check_labeled_icosahedra()
    assert len(calls) == 1


def test_pair_permutation_basics():
    t = dual_pair_table()
    assert t.pair_permutation(Permutation.identity(6)).is_identity()
    phi = t.pair_permutation(Permutation.transposition(6, 1, 2))
    assert phi.cycle_type() == (2, 2, 2)


def test_transposition_images_pairwise_noncommuting():
    t = dual_pair_table()
    images = [
        t.pair_permutation(Permutation.transposition(6, a, b))
        for a, b in [(1, 2), (1, 3), (2, 3)]
    ]
    assert len(set(images)) == 3
    for p in images:
        assert p.cycle_type() == (2, 2, 2)
    for p, q in itertools.combinations(images, 2):
        assert not p.commutes_with(q)


def test_no_transposition_image_is_a_transposition():
    t = dual_pair_table()
    for a, b in itertools.combinations(range(1, 7), 2):
        image = t.pair_permutation(Permutation.transposition(6, a, b))
        assert image.cycle_type() == (2, 2, 2)


def test_pair_permutation_is_a_bijective_homomorphism():
    t = dual_pair_table()
    table = t.pair_permutation_table()
    assert len(set(table)) == 720
    # Exact on generator pairs: phi(s * tau) == phi(s) * phi(tau).
    elements = list(enumerate_sym(6))
    for s in (Permutation.transposition(6, 1, 2), Permutation.full_cycle(6)):
        phi_s = t.pair_permutation(s)
        for tau in elements:
            assert t.pair_permutation(s * tau) == phi_s * t.pair_permutation(tau)
    rng = random.Random(0xF1)
    for _ in range(500):
        p, q = rng.choice(elements), rng.choice(elements)
        assert t.pair_permutation(p * q) == t.pair_permutation(
            p
        ) * t.pair_permutation(q)


def test_identification_produces_outer_automorphisms():
    t = dual_pair_table()
    table = t.outer_from_identification(Permutation.identity(6))
    assert table.is_homomorphism()
    assert inner_witness(table) is None
    assert class_image(table, 1) == 3
    assert class_image(table, 3) == 1
    assert class_image(table, 2) == 2


def test_identifications_differ_by_inner_automorphisms():
    # The definition sigma -> g * phi(sigma) * g**-1, product by product, is
    # the reference for the table built as conjugation by g after phi.
    t = dual_pair_table()
    elements = list(enumerate_sym(6))
    rng = random.Random(5)
    for _ in range(10):
        g = Permutation(tuple(rng.sample(range(1, 7), 6)))
        shifted, inverse = t.outer_from_identification(g), g.inverse()
        for sigma in elements:
            assert shifted.apply(sigma) == g * t.pair_permutation(sigma) * inverse


def test_some_identification_squares_to_identity_and_some_do_not():
    t = dual_pair_table()
    squares = set()
    for ident in (Permutation.identity(6), Permutation.transposition(6, 1, 2)):
        table = t.outer_from_identification(ident)
        squares.add(table.compose(table).is_identity())
        assert inner_witness(table.compose(table)) is not None  # square is inner
    # 36 of the 720 squares vanish, so both behaviors must be reachable.
    found = {
        t.outer_from_identification(ident).is_involution()
        for ident in itertools.islice(enumerate_sym(6), 40)
    }
    assert found == {True, False}


def test_identifications_cover_the_outer_coset():
    t = dual_pair_table()
    _, outer = inner_and_outer(6)
    assert t.all_outer_automorphisms() == frozenset(outer)


def test_guards():
    t = dual_pair_table()
    with pytest.raises(ValueError):
        t.pair_permutation(Permutation.identity(5))
    with pytest.raises(ValueError):
        t.outer_from_identification(Permutation.identity(7))
