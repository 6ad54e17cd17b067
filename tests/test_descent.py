"""Coxeter complex, descent sets, and the walk correspondence."""

from fractions import Fraction
from itertools import permutations

import pytest

from bandwalk import derangement, descent, spectral
from bandwalk.errors import MalformedInputError, PreconditionError


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
    s = descent.sigma_element(n, (1,))
    assert s.n == n
    chamber_form = descent.to_chamber_element(cx, s)
    assert sum(chamber_form.values()) == len(cx.type_classes[(1,)])
    round_trip = descent.invariant_from_coeffs(cx, chamber_form)
    assert round_trip.sigma == s.sigma
    # tau coordinates sum sigma over supersets
    assert descent.tau_element(n, ()).tau() == {(): F(1)}
    with pytest.raises(PreconditionError):
        descent.invariant_from_coeffs(cx, {cx.fundamental: F(1)})


def test_invariant_product_of_sigmas_stays_invariant():
    n = 3
    cx = descent.coxeter_complex(n)
    a = descent.sigma_element(n, (1,))
    b = descent.sigma_element(n, (2,))
    prod = descent.invariant_product(cx, a, b)
    assert isinstance(prod, descent.InvariantElement)
    total = sum(descent.to_chamber_element(cx, prod).values())
    assert total == len(cx.type_classes[(1,)]) * len(cx.type_classes[(2,)])


def test_phi_certification():
    for n in (3, 4):
        report = descent.certify_phi(descent.coxeter_complex(n))
        assert report["basis_images_ok"]
        assert report["anti_homomorphism_ok"]
        assert report["closure_ok"]


def test_z_elements_partition_the_group_by_descent_set():
    n = 4
    seen = {}
    for j_set in derangement._subsets(range(1, n)):
        z = descent.z_element(n, j_set)
        for w, coeff in z.items():
            assert coeff
            assert descent.descent_set(w) == j_set
            assert w not in seen
            seen[w] = j_set
    assert len(seen) == 24


def test_u_elements_sum_z_over_subsets():
    n = 4
    for j_set in derangement._subsets(range(1, n)):
        u = descent.u_element(n, j_set)
        total = {}
        for k_set in derangement._subsets(j_set):
            for w, c in descent.z_element(n, k_set).items():
                total[w] = total.get(w, 0) + c
        assert u == total


def test_descent_class_constancy_detection():
    n = 3
    z = descent.z_element(n, (1,))
    assert descent.constant_on_descent_classes(n, z)
    broken = dict(z)
    broken[(2, 1, 3)] = broken[(2, 1, 3)] + 1
    assert not descent.constant_on_descent_classes(n, broken)


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


def test_ga_multiply_convolves():
    a = {(2, 1, 3): 1}
    b = {(1, 3, 2): 1}
    # product places u after v: (u o v)(i) = u(v(i))
    assert descent.ga_multiply(a, b) == {descent.compose((2, 1, 3),
                                                         (1, 3, 2)): 1}
