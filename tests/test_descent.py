"""Coxeter complex, descent sets, and the walk correspondence."""

from fractions import Fraction
from itertools import permutations

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from bandwalk import constructions, derangement, descent, spectral
from bandwalk.errors import (FalsificationError, MalformedInputError,
                             PreconditionError)


F = Fraction


def test_permutation_primitives():
    u = (2, 4, 3, 1)
    assert descent.descent_set(u) == (2, 3)
    assert descent.descent_set((1, 2, 3)) == ()
    assert descent.descent_set((3, 2, 1)) == (1, 2)
    assert descent.inverse(u) == (4, 1, 3, 2)
    ident = (1, 2, 3, 4)
    assert descent.compose(u, descent.inverse(u)) == ident
    assert descent.compose(descent.inverse(u), u) == ident
    v = (2, 1, 3, 4)
    # compose(u, v)(i) = u(v(i))
    assert descent.compose(u, v) == (4, 2, 3, 1)
    with pytest.raises(MalformedInputError):
        descent.check_permutation((1, 1, 2))
    with pytest.raises(MalformedInputError):
        descent.check_permutation((1, 2), n=3)


def test_partition_types_and_action():
    assert descent.type_of_partition(((1, 2), (3,))) == (2,)
    assert descent.type_of_partition(((1,), (2,), (3,))) == (1, 2)
    assert descent.type_of_partition(((1, 2, 3),)) == ()
    w = (2, 1, 3)
    assert descent.act(w, ((1,), (2, 3))) == ((2,), (1, 3))


def test_complex_shape_and_type_classes():
    cx = descent.coxeter_complex(3)
    assert cx.semigroup.size == 13
    assert len(cx.chamber_id) == 6
    assert cx.perm_at[cx.fundamental] == (1, 2, 3)
    sizes = {t: len(cls) for t, cls in cx.type_classes.items()}
    assert sizes == {(): 1, (1,): 3, (2,): 3, (1, 2): 6}


def test_face_of_type_cuts_the_chamber_word():
    cx = descent.coxeter_complex(3)
    c = cx.chamber_id[(2, 1, 3)]
    face = descent.face_of_type(cx, c, (1,))
    assert cx.semigroup.keys[face] == "2|1,3"
    whole = descent.face_of_type(cx, c, ())
    assert cx.semigroup.keys[whole] == "1,2,3"


def test_descent_pair_matches_the_permutation_descent_set():
    for n in (3, 4):
        cx = descent.coxeter_complex(n)
        for u in permutations(range(1, n + 1)):
            for v in permutations(range(1, n + 1)):
                got = descent.descent_pair(
                    cx, cx.chamber_id[u], cx.chamber_id[v])
                want = descent.descent_set(
                    descent.compose(descent.inverse(u), v))
                assert got == want


def test_descent_pair_is_the_minimal_restoring_face():
    # brute force over all faces of d
    cx = descent.coxeter_complex(3)
    sg = cx.semigroup
    for u in permutations((1, 2, 3)):
        for v in permutations((1, 2, 3)):
            c, d = cx.chamber_id[u], cx.chamber_id[v]
            restoring = [cx.types[f] for f in range(sg.size)
                         if sg.product(f, c) == d]
            minimal = min(restoring, key=len)
            assert set(minimal) == set(descent.descent_pair(cx, c, d))


def test_beta_equals_h_and_counts_descent_classes():
    rows = descent.beta_and_h(4)
    assert all(r.ok for r in rows)
    by_set = {r.j_set: r for r in rows}
    assert by_set[()].beta == 1
    assert by_set[(1, 2, 3)].beta == 1
    assert by_set[(1,)].beta == 3
    assert by_set[(2,)].beta == 5
    assert sum(r.beta for r in rows) == 24
    assert sum(r.f for r in rows if len(r.j_set) == 3) == 24


def test_invariant_elements_and_products():
    n = 3
    cx = descent.coxeter_complex(n)
    s = descent.InvariantElement(n, {(1,): F(1)})
    assert s.n == n
    chamber_form = descent.to_chamber_element(cx, s)
    assert sum(chamber_form.values()) == len(cx.type_classes[(1,)])
    round_trip = descent.invariant_from_coeffs(cx, chamber_form)
    assert round_trip.sigma == s.sigma
    with pytest.raises(PreconditionError):
        descent.invariant_from_coeffs(cx, {cx.fundamental: F(1)})


def test_invariant_product_of_sigmas_stays_invariant():
    # sigma_(1) sigma_(2) counted over the face table is constant on
    # type classes, carries |class 1| * |class 2| terms, and folds to
    # the sigma coordinates the Fraction path reads off
    n = 3
    cx = descent.coxeter_complex(n)
    table = cx.semigroup.table
    face_type = numpy.array([descent.type_mask(t) for t in cx.types])
    a, b = cx.type_classes[(1,)], cx.type_classes[(2,)]
    counts = numpy.bincount(table[a][:, b].ravel(),
                            minlength=cx.semigroup.size)
    sigma = descent.class_values(counts, face_type)
    assert sigma is not None
    assert counts.sum() == len(a) * len(b)
    folded = descent.invariant_from_coeffs(
        cx, {i: F(int(c)) for i, c in enumerate(counts)})
    assert folded.sigma == {t: F(int(sigma[descent.type_mask(t)]))
                            for t in cx.type_classes
                            if sigma[descent.type_mask(t)]}


def test_phi_certification():
    for n in (3, 4):
        report = descent.certify_phi(descent.coxeter_complex(n))
        assert report["basis_images_ok"]
        assert report["anti_homomorphism_ok"]
        assert report["closure_ok"]


_S4 = descent.coxeter_complex(4)
_S4_CHAMBER_ENTRIES = [(i, j) for i in range(_S4.semigroup.size)
                       for j in range(_S4.semigroup.size)
                       if _S4.semigroup.table[i][j] in _S4.perm_at]


@settings(max_examples=60, deadline=None)
@given(hs.sampled_from(_S4_CHAMBER_ENTRIES),
       hs.sampled_from(sorted(_S4.perm_at)))
def test_corrupted_complex_table_fails_phi_certification(entry, chamber):
    # one chamber-valued product of the S_4 face table replaced by
    # another chamber: certify_phi must report a failure or raise
    i, j = entry
    table = _S4.semigroup.table
    kept = table[i][j]
    if chamber == kept:
        chamber = min(c for c in _S4.perm_at if c != kept)
    table[i][j] = chamber
    try:
        report = descent.certify_phi(_S4)
        assert not all(report.values())
    except (PreconditionError, FalsificationError):
        pass
    finally:
        table[i][j] = kept
    assert all(descent.certify_phi(_S4).values())


def test_z_elements_partition_the_group_by_descent_set():
    n = 4
    group = descent._SymmetricGroupTable(n)
    _, z = group.descent_rows()
    # every permutation lies in exactly one z_J, the one of its descents
    assert (z.sum(axis=0) == 1).all()
    for j_set in derangement._subsets(range(1, n)):
        row = z[descent.type_mask(j_set)]
        assert {w for w, c in zip(group.perms, row) if c} == {
            w for w in permutations(range(1, n + 1))
            if descent.descent_set(w) == j_set}
    assert z.sum() == 24


def test_u_elements_sum_z_over_subsets():
    n = 4
    u, z = descent._SymmetricGroupTable(n).descent_rows()
    for j_set in derangement._subsets(range(1, n)):
        total = sum(z[descent.type_mask(k_set)]
                    for k_set in derangement._subsets(j_set))
        assert numpy.array_equal(u[descent.type_mask(j_set)], total)


def test_descent_class_constancy_detection():
    n = 3
    group = descent._SymmetricGroupTable(n)
    z = group.descent_rows()[1][descent.type_mask((1,))]
    values = descent.class_values(z, group.descents)
    assert values is not None
    assert values[descent.type_mask((1,))] == 1 and values.sum() == 1
    broken = z.copy()
    broken[group.index[(2, 1, 3)]] += 1
    assert descent.class_values(broken, group.descents) is None


def test_descent_walk_on_uniform_chambers():
    n = 3
    cx = descent.coxeter_complex(n)
    sg = cx.semigroup
    w = spectral.uniform_on(sg, list(cx.perm_at))
    mu, ok = descent.descent_walk(w, n, cx)
    assert ok
    assert all(v == F(1, 6) for v in mu.values())
    assert sum(mu.values()) == 1


def test_descent_walk_on_top_to_random():
    # uniform weight on the faces 1|rest realizes top-to-random
    n = 3
    cx = descent.coxeter_complex(n)
    sg = cx.semigroup
    picks = [i for i, t in enumerate(cx.types) if t == (1,)]
    w = spectral.uniform_on(sg, picks)
    mu, ok = descent.descent_walk(w, n, cx)
    assert ok
    # moving letter i to the front of the identity gives these three
    want = {(1, 2, 3): F(1, 3), (2, 1, 3): F(1, 3), (3, 1, 2): F(1, 3)}
    got = {k: v for k, v in mu.items() if v}
    assert got == want


def test_top_to_random_idempotent_family():
    fam = descent.top_to_random_idempotents(4)
    assert fam.n == 4
    assert len(fam.es) == 5
    assert not fam.es[3]
    for es in fam.es:
        for w in es:
            assert len(w) == 4


def test_group_convolution_composes_as_functions():
    group = descent._SymmetricGroupTable(3)
    a = group.vector({(2, 1, 3): 1})
    b = group.vector({(1, 3, 2): 1})
    # product places u after v: (u o v)(i) = u(v(i))
    want = group.vector({descent.compose((2, 1, 3), (1, 3, 2)): 1})
    assert numpy.array_equal(group.convolve(a, b), want)


@pytest.mark.parametrize("chunk", [7, constructions.TABLE_CHUNK])
def test_composition_table_composes_every_pair(monkeypatch, chunk):
    monkeypatch.setattr(constructions, "TABLE_CHUNK", chunk)
    group = descent._SymmetricGroupTable(4)
    for i, u in enumerate(group.perms):
        for j, v in enumerate(group.perms):
            assert group.comp[i, j] == group.index[descent.compose(u, v)]
