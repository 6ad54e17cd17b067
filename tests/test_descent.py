"""Coxeter complex, descent sets, and the walk correspondence."""

import math
from fractions import Fraction
from itertools import permutations

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from bandwalk import constructions, derangement, descent, spectral
from bandwalk.errors import FalsificationError, PreconditionError


F = Fraction


def _compose(u, v):
    """u * v as tuples: i goes to u(v(i))."""
    return tuple(u[x - 1] for x in v)


def _inverse(u):
    out = [0] * len(u)
    for i, x in enumerate(u):
        out[x - 1] = i + 1
    return tuple(out)


def _chambers(cx):
    """{permutation: face id}, read off the chamber objects themselves."""
    return {tuple(b[0] for b in p): i
            for i, p in enumerate(cx.semigroup.objects) if len(p) == cx.n}


def test_permutation_primitives():
    u = (2, 4, 3, 1)
    assert descent.descent_set(u) == (2, 3)
    assert descent.descent_set((1, 2, 3)) == ()
    assert descent.descent_set((3, 2, 1)) == (1, 2)
    # the group table composes as functions, the identity first
    group = descent._SymmetricGroupTable(4)
    assert group.perms[0] == (1, 2, 3, 4)
    i, j = group.index[u], group.index[(4, 1, 3, 2)]
    assert group.comp[i, j] == group.comp[j, i] == 0
    assert group.perms[group.comp[i, group.index[(2, 1, 3, 4)]]] \
        == (4, 2, 3, 1)


def test_partition_types_and_action():
    assert descent.type_of_partition(((1, 2), (3,))) == (2,)
    assert descent.type_of_partition(((1,), (2,), (3,))) == (1, 2)
    assert descent.type_of_partition(((1, 2, 3),)) == ()
    # relabeling a face keeps its type: each class is one S_3 orbit
    cx = descent.coxeter_complex(3)
    index = cx.semigroup.index
    for w in cx.group.perms:
        for i, p in enumerate(cx.semigroup.objects):
            moved = tuple(tuple(sorted(w[x - 1] for x in b)) for b in p)
            key = "|".join(",".join(map(str, b)) for b in moved)
            assert cx.face_type[index[key]] == cx.face_type[i]


def test_complex_shape_and_type_classes():
    cx = descent.coxeter_complex(3)
    assert cx.semigroup.size == 13
    assert len(cx.group.perms) == 6
    assert (cx.perm_of >= 0).sum() == 6
    assert cx.group.perms[cx.perm_of[cx.fundamental]] == (1, 2, 3)
    for w, c in _chambers(cx).items():
        assert cx.group.perms[cx.perm_of[c]] == w
    sizes = {t: len(cls) for t, cls in cx.type_classes.items()}
    assert sizes == {(): 1, (1,): 3, (2,): 3, (1, 2): 6}
    for t, cls in cx.type_classes.items():
        assert (cx.face_type[cls] == descent.type_mask(t)).all()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_face_count_is_the_size_of_the_complex(n):
    cx = descent.coxeter_complex(n)
    assert constructions.face_count(n) == cx.semigroup.size
    assert math.factorial(n) == len(cx.group.perms)


def test_orbit_check_refuses_a_face_outside_its_type_class(monkeypatch):
    # list the face 2|1,3 twice, in place of 1|2,3: the type class of
    # (1,) is no longer the orbit of 1|2,3
    build = constructions.ordered_partitions

    def moved(n, guards):
        sg = build(n, guards=guards)
        i = sg.objects.index(((1,), (2, 3)))
        sg.objects[i] = ((2,), (1, 3))
        return sg

    monkeypatch.setattr(constructions, "ordered_partitions", moved)
    with pytest.raises(FalsificationError, match="orbit"):
        descent.coxeter_complex(3)


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
    # weights constant on the type classes are accepted; weights that
    # single out one chamber, or one face of a class, are refused
    n = 3
    cx = descent.coxeter_complex(n)
    sg = cx.semigroup
    descent.descent_walk(spectral.uniform_on(sg, cx.type_classes[(2,)]),
                         n, cx)
    for ids in ([cx.fundamental], cx.type_classes[(1,)][:2]):
        with pytest.raises(PreconditionError, match="type classes"):
            descent.descent_walk(spectral.uniform_on(sg, ids), n, cx)


def test_invariant_product_of_sigmas_stays_invariant():
    # sigma_(1) sigma_(2) counted over the face table is constant on
    # type classes, carries |class 1| * |class 2| terms, and its class
    # values are the coefficients of each face, read one by one
    n = 3
    cx = descent.coxeter_complex(n)
    table = cx.semigroup.tabulate()
    a, b = cx.type_classes[(1,)], cx.type_classes[(2,)]
    counts = numpy.bincount(table[a][:, b].ravel(),
                            minlength=cx.semigroup.size)
    sigma = descent.class_values(counts, cx.face_type)
    assert sigma is not None
    assert counts.sum() == len(a) * len(b)
    for t, cls in cx.type_classes.items():
        assert {int(counts[i]) for i in cls} \
            == {int(sigma[descent.type_mask(t)])}


def test_phi_certification():
    for n in (3, 4, 5):
        report = descent.certify_phi(descent.coxeter_complex(n))
        assert report["basis_images_ok"]
        assert report["anti_homomorphism_ok"]
        assert report["closure_ok"]


_S4 = descent.coxeter_complex(4)
_S4.semigroup.tabulate()
_S4_CHAMBERS = numpy.flatnonzero(_S4.perm_of >= 0).tolist()
_S4_CHAMBER_ENTRIES = [(i, j) for i in range(_S4.semigroup.size)
                       for j in range(_S4.semigroup.size)
                       if _S4.perm_of[_S4.semigroup.table[i][j]] >= 0]


@settings(max_examples=60, deadline=None)
@given(hs.sampled_from(_S4_CHAMBER_ENTRIES), hs.sampled_from(_S4_CHAMBERS))
def test_corrupted_complex_table_fails_phi_certification(entry, chamber):
    # one chamber-valued product of the S_4 face table replaced by
    # another chamber: certify_phi must report a failure or raise
    i, j = entry
    table = _S4.semigroup.table
    kept = table[i][j]
    if chamber == kept:
        chamber = min(c for c in _S4_CHAMBERS if c != kept)
    table[i][j] = chamber
    try:
        report = descent.certify_phi(_S4)
        assert not all(report.values())
    except (PreconditionError, FalsificationError):
        pass
    finally:
        table[i][j] = kept
    assert all(descent.certify_phi(_S4).values())


@settings(max_examples=60, deadline=None)
@given(hs.integers(0, 23), hs.integers(0, 23), hs.integers(0, 22))
def test_corrupted_group_table_fails_phi_certification(i, j, other):
    # one entry of the S_4 composition table replaced by another
    # permutation: its row is no permutation, so the batched group
    # product cannot invert it
    comp = _S4.group.comp
    kept = int(comp[i, j])
    comp[i, j] = other + (other >= kept)
    try:
        report = descent.certify_phi(_S4)
        assert not all(report.values())
    except FalsificationError:
        pass
    finally:
        comp[i, j] = kept
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
    w = spectral.uniform_on(sg, numpy.flatnonzero(cx.perm_of >= 0).tolist())
    mu, ok = descent.descent_walk(w, n, cx)
    assert ok
    assert all(v == F(1, 6) for v in mu.values())
    assert sum(mu.values()) == 1


def test_descent_walk_on_top_to_random():
    # uniform weight on the faces 1|rest realizes top-to-random
    n = 3
    cx = descent.coxeter_complex(n)
    sg = cx.semigroup
    w = spectral.uniform_on(sg, cx.type_classes[(1,)])
    mu, ok = descent.descent_walk(w, n, cx)
    assert ok
    # moving letter i to the front of the identity gives these three
    want = {(1, 2, 3): F(1, 3), (2, 1, 3): F(1, 3), (3, 1, 2): F(1, 3)}
    got = {k: v for k, v in mu.items() if v}
    assert got == want


def test_descent_walk_builds_no_group_table():
    # the per-row check reads the composition rows a block at a time,
    # so the n! x n! table is never built for the walk
    n = 5
    cx = descent.coxeter_complex(n)
    w = spectral.uniform_on(cx.semigroup, cx.type_classes[(1,)])
    mu, ok = descent.descent_walk(w, n, cx)
    assert ok and len(mu) == n
    assert "comp" not in cx.group.__dict__


def _walk_oracle(cx, p):
    """The Fraction route: phi(p) by one product per weighted face at
    the fundamental chamber, then every chamber row compared with mu at
    u^-1 v, permutations composed as tuples."""
    def prod(x, y):
        return cx.semigroup.rows([x]).item(0, y)

    chamber = _chambers(cx)
    perm_at = {c: w for w, c in chamber.items()}
    mu = {}
    for i, v in p.items():
        w = perm_at[prod(i, chamber[tuple(range(1, cx.n + 1))])]
        mu[w] = mu.get(w, F(0)) + v
    mu = {w: v for w, v in mu.items() if v}
    ok = True
    for u, cu in chamber.items():
        row = {}
        for i, v in p.items():
            d = prod(i, cu)
            row[d] = row.get(d, F(0)) + v
        for v, cv in chamber.items():
            if row.get(cv, F(0)) != mu.get(_compose(_inverse(u), v), F(0)):
                ok = False
    return mu, ok


_COMPLEXES = {3: descent.coxeter_complex(3), 4: _S4}
# small weights, and weights whose numerators pass 2^63
_CLASS_WEIGHT = hs.one_of(hs.integers(0, 9), hs.integers(0, 2 ** 80))


@settings(max_examples=40, deadline=None)
@given(hs.sampled_from([3, 4]).flatmap(lambda n: hs.tuples(
    hs.just(n), hs.lists(_CLASS_WEIGHT, min_size=2 ** (n - 1),
                         max_size=2 ** (n - 1)).filter(any))))
def test_descent_walk_matches_the_fraction_oracle(case):
    # random integer weights constant on each type class, scaled to a
    # probability
    n, per_class = case
    cx = _COMPLEXES[n]
    classes = sorted(cx.type_classes.items())
    total = sum(c * len(cls) for c, (_, cls) in zip(per_class, classes))
    p = spectral.WeightVector(cx.semigroup, {
        i: F(c, total) for c, (_, cls) in zip(per_class, classes)
        for i in cls})
    assert descent.descent_walk(p, n, cx) == _walk_oracle(cx, p)


_S4_ALL_FACES = spectral.uniform_on(_S4.semigroup, range(_S4.semigroup.size))


@settings(max_examples=40, deadline=None)
@given(hs.sampled_from([(i, j) for i in range(_S4.semigroup.size)
                        for j in _S4_CHAMBERS]),
       hs.integers(0, _S4.semigroup.size - 1))
def test_corrupted_chamber_product_breaks_the_walk_correspondence(entry,
                                                                  face):
    # every face is weighted, so one chamber product x uC moved to
    # another chamber changes one count of row u, and one moved off the
    # chambers is no step of the walk
    i, j = entry
    table = _S4.semigroup.table
    kept = table[i][j]
    if face == kept:
        face = min(c for c in _S4_CHAMBERS if c != kept)
    table[i][j] = face
    try:
        if face in _S4_CHAMBERS:
            assert not descent.descent_walk(_S4_ALL_FACES, 4, _S4)[1]
        else:
            with pytest.raises(FalsificationError, match="not a chamber"):
                descent.descent_walk(_S4_ALL_FACES, 4, _S4)
    finally:
        table[i][j] = kept
    assert descent.descent_walk(_S4_ALL_FACES, 4, _S4)[1]


def test_top_to_random_idempotent_family():
    fam = descent.top_to_random_idempotents(4)
    assert fam.n == 4
    assert len(fam.es) == 5
    assert not fam.es[3]
    for es in fam.es:
        for w in es:
            assert len(w) == 4


def test_top_to_random_reads_only_the_move_to_front_rows(monkeypatch):
    # the E_i never tie, so no certificate needs the n! x n! table
    made = []

    class Recording(descent._SymmetricGroupTable):
        def __init__(self, n):
            super().__init__(n)
            made.append(self)

    monkeypatch.setattr(descent, "_SymmetricGroupTable", Recording)
    fam = descent.top_to_random_idempotents(6)
    assert len(made) == 1
    assert "comp" not in made[0].__dict__
    monkeypatch.undo()
    assert fam == descent.top_to_random_idempotents(6)


def _vector(group, elem):
    out = numpy.zeros(len(group.perms), dtype=numpy.int64)
    for w, v in elem.items():
        out[group.index[w]] = v
    return out


def _convolve(group, a, b):
    """a b in ZS_n by scattering: a[i] b lands on the row of i in the
    composition table."""
    out = numpy.zeros(len(group.perms), dtype=numpy.int64)
    for i in numpy.nonzero(a)[0]:
        out[group.comp[i]] += int(a[i]) * b
    return out


def test_group_convolution_composes_as_functions():
    group = descent._SymmetricGroupTable(3)
    a = _vector(group, {(2, 1, 3): 1})
    b = _vector(group, {(1, 3, 2): 1})
    # product places u after v: (u o v)(i) = u(v(i))
    want = _vector(group, {_compose((2, 1, 3), (1, 3, 2)): 1})
    assert numpy.array_equal(_convolve(group, a, b), want)


def _move_to_front(group):
    return [w for w in group.perms if set(descent.descent_set(w)) <= {1}]


def _integer_family(fam):
    """The n! E_i that `descent.certify_top_to_random` reads."""
    scale = math.factorial(fam.n)
    return [{w: int(c * scale) for w, c in e.items()} for e in fam.es]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_top_to_random_family_passes_the_pairwise_reference(n):
    # what the lemma of spectral.certify_family proves, pair by pair:
    # every pair of n! E_i convolved, the sum, and mu = sum (i/n) E_i
    fam = descent.top_to_random_idempotents(n)
    group = descent._SymmetricGroupTable(n)
    scale = math.factorial(n)
    keep = [i for i in range(n + 1) if i != n - 1]
    ints = {i: _vector(group, {w: int(c * scale)
                               for w, c in fam.es[i].items()})
            for i in keep}
    one = _vector(group, {tuple(range(1, n + 1)): scale})
    assert numpy.array_equal(sum(ints.values()), one)
    for i in keep:
        for j in keep:
            want = scale * ints[i] if i == j else 0 * one
            assert numpy.array_equal(_convolve(group, ints[i], ints[j]),
                                     want)
    mu = _vector(group, {w: scale for w in _move_to_front(group)})
    assert numpy.array_equal(sum(i * ints[i] for i in keep), mu)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_top_to_random_certificate_rejects_a_perturbed_family(n):
    fam = descent.top_to_random_idempotents(n)
    group = descent._SymmetricGroupTable(n)
    moves = _move_to_front(group)
    descent.certify_top_to_random(group, _integer_family(fam), moves)
    for i in (0, n):
        es = _integer_family(fam)
        es[i][min(es[i])] += 1
        with pytest.raises(FalsificationError):
            descent.certify_top_to_random(group, es, moves)


def test_top_to_random_certificate_rejects_a_sum_preserving_change():
    # S_4: the E_i still sum to 1, so only n mu E_i = i E_i can object;
    # the family is given as the integers 24 E_i
    fam = descent.top_to_random_idempotents(4)
    group = descent._SymmetricGroupTable(4)
    moves = _move_to_front(group)
    es = _integer_family(fam)
    for w, c in list(es[0].items()):
        es[0][w] = c - c // 2
        es[4][w] = es[4].get(w, 0) + c // 2
    with pytest.raises(FalsificationError, match="eigenvector"):
        descent.certify_top_to_random(group, es, moves)
    es = _integer_family(fam)
    w = min(es[2])
    es[2][w] += 1
    es[0][w] = es[0].get(w, 0) - 1
    with pytest.raises(FalsificationError, match="eigenvector"):
        descent.certify_top_to_random(group, es, moves)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_top_to_random_certificate_rejects_a_swapped_measure(n):
    fam = descent.top_to_random_idempotents(n)
    group = descent._SymmetricGroupTable(n)
    moves = _move_to_front(group)
    others = [w for w in group.perms if w not in moves]
    for k in range(len(moves)):
        swapped = moves[:k] + [others[k]] + moves[k + 1:]
        with pytest.raises(FalsificationError):
            descent.certify_top_to_random(group, _integer_family(fam),
                                          swapped)


@pytest.mark.parametrize("chunk", [7, constructions.TABLE_CHUNK])
def test_composition_table_composes_every_pair(monkeypatch, chunk):
    monkeypatch.setattr(constructions, "TABLE_CHUNK", chunk)
    group = descent._SymmetricGroupTable(4)
    rows = group.rows(list(range(len(group.perms)))).tolist()
    for i, u in enumerate(group.perms):
        for j, v in enumerate(group.perms):
            assert group.comp[i, j] == group.index[_compose(u, v)]
    assert rows == group.comp.tolist()
    assert group.rows([5, 0, 5]).tolist() == [rows[5], rows[0], rows[5]]
