"""Generalized derangement numbers and their identities on lattices."""

import time
from fractions import Fraction
from itertools import combinations

import numpy
import pytest

from bandwalk import derangement as der
from bandwalk import constructions, core, matroid, posets, selftest
from bandwalk.errors import (MalformedInputError, PreconditionError,
                             SizeGuardError)


K4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_boolean_lattices_give_the_classical_numbers():
    # includes the empty lattice, whose single element deranges trivially
    want = [1, 0, 1, 2, 9, 44]
    got = [der.derangement_number(der.boolean_lattice(n))
           for n in range(6)]
    assert got == want


def test_upper_derangements_on_the_cube():
    p = der.boolean_lattice(3)
    ups = der.upper_derangements(p)
    for x in range(p.size):
        size = p.rank[x]
        assert ups[x] == [1, 0, 1, 2][3 - size]
    assert sum(ups) == der.maximal_chain_count(p) == 6


def test_partition_lattices():
    want = {1: (1, 1, 1), 2: (2, 0, 1), 3: (5, 2, 3),
            4: (15, 5, 18), 5: (52, 79, 180)}
    for n, (size, d, chains) in want.items():
        p = der.partition_lattice(n)
        assert p.size == size
        assert der.derangement_number(p) == d
        assert der.maximal_chain_count(p) == chains


def test_subspace_lattices_give_q_derangements():
    for n, q in ((1, 2), (2, 2), (2, 3), (3, 2), (3, 3)):
        p = der.subspace_lattice(n, q)
        assert der.derangement_number(p) == \
            der.poly_eval(der.q_derangement(n), q)
    assert der.derangement_number(der.subspace_lattice(2, 2)) == 2
    assert der.maximal_chain_count(der.subspace_lattice(2, 2)) == 3


@pytest.mark.parametrize("n", [7, 100])
def test_oversized_subspace_lattice_is_refused_by_count(n):
    # GF(2)^7 has 29,212 subspaces, counted, not listed; GF(2)^100 is
    # refused by n alone, since the count alone would take minutes
    start = time.perf_counter()
    with pytest.raises(SizeGuardError, match="over 4096 elements"):
        der.subspace_lattice(n, 2)
    assert time.perf_counter() - start < 0.1


def test_oversized_contraction_lattices_are_refused_by_count():
    # every set partition of the vertices is tested: B(7) = 877 of them
    # are built, B(8) = 4140 are over the cap and refused before any is
    # listed, for the path on 8 vertices (2^7 contractions) as for K_8
    assert der.partition_lattice(7).size == 877
    path = [(i, i + 1) for i in range(7)]
    assert der.contraction_lattice(path[:6]).size == 2 ** 6
    for build, count in (
            (lambda: der.contraction_lattice(path), "4140 set partitions"),
            (lambda: der.partition_lattice(8), "4140 elements"),
            (lambda: der.partition_lattice(10 ** 6),
             "more than 4140 elements")):
        start = time.perf_counter()
        with pytest.raises(SizeGuardError, match=count):
            build()
        assert time.perf_counter() - start < 0.1


def test_contraction_lattices():
    triangle = der.contraction_lattice([(0, 1), (1, 2), (0, 2)])
    assert triangle.size == 5
    assert der.derangement_number(triangle) == 2
    # contracting the complete graph walks down the partition lattice
    k4 = der.contraction_lattice(K4)
    assert k4.size == 15
    assert der.derangement_number(k4) == 5
    path = der.contraction_lattice([(0, 1), (1, 2)])
    assert der.derangement_number(path) == \
        der.derangement_number(der.boolean_lattice(2)) == 1


def test_interval_extraction():
    p = der.boolean_lattice(4)
    sub = der.interval(p, p.index_of("{1}"), p.top)
    assert sub.size == 8
    assert der.derangement_number(sub) == 2
    with pytest.raises(PreconditionError):
        der.interval(p, p.index_of("{1}"), p.index_of("{2,3}"))


def test_matroid_flats_lattice_matches_direct_counts():
    m = matroid.Matroid.from_graph(K4)
    p = der.matroid_flats_lattice(m)
    assert p.size == 15
    assert der.derangement_number(p) == 5
    u24 = der.matroid_flats_lattice(matroid.Matroid.uniform(2, 4))
    assert u24.size == 6
    assert der.derangement_number(u24) == 3


@pytest.mark.parametrize("system", [
    pytest.param(lambda: der.fields.VectorSpace(2, 4), id="subspace(4,2)"),
    pytest.param(lambda: matroid.Matroid.from_graph(K4), id="K4")])
def test_flat_inclusion_matches_the_frozenset_order(system):
    system = system()
    flats = system.flats()
    p = posets.flat_lattice(system, "flats")
    want = numpy.array([[a <= b for b in flats] for a in flats])
    assert p.leq.dtype == bool and numpy.array_equal(p.leq, want)


def test_stanley_even_gap_identity():
    for p in (der.boolean_lattice(3), der.boolean_lattice(4),
              der.partition_lattice(4), der.subspace_lattice(2, 3),
              der.matroid_flats_lattice(matroid.Matroid.from_graph(K4))):
        d, total, ok = der.stanley_identity_check(p)
        assert ok, f"{p.name}: d={d} but h-sum={total}"
    d, total, ok = der.stanley_identity_check(der.boolean_lattice(3))
    assert (d, total) == (2, 2)


def test_rank_threaded_profile():
    p = der.boolean_lattice(4)
    rows = der.mahajan_profile(p)
    assert [r.r for r in rows] == [0, 1, 2, 3, 4]
    assert all(r.ok for r in rows)
    assert rows[-1].d_sum == 1
    assert rows[-2].d_sum == 0
    assert rows[0].d_sum == der.derangement_number(p)
    assert sum(r.d_sum for r in rows) == der.maximal_chain_count(p)


def test_top_h_entry_is_the_moebius_value():
    # h at the full rank set equals |mu(bottom, top)|
    for p in (der.boolean_lattice(3), der.partition_lattice(4),
              der.subspace_lattice(2, 2)):
        fv = der.flag_vectors(p)
        full = tuple(range(1, p.n))
        mu = posets.moebius_row(p.packed, p.bottom)
        assert fv.h[full] == (-1) ** p.n * mu[p.top]


def test_q_polynomial_literals():
    assert der.q_int(3) == [1, 1, 1]
    assert der.q_factorial(3) == [1, 2, 2, 1]
    assert der.q_binomial(4, 2) == [1, 1, 2, 1, 1]
    assert der.q_derangement(2) == [0, 1]
    assert der.q_derangement(3) == [0, 1, 1]
    assert der.q_derangement(4) == [0, 1, 2, 2, 2, 1, 1]


def test_q_derangements_specialize_and_match_the_statistic():
    for n in range(7):
        dq = der.q_derangement(n)
        assert der.poly_eval(dq, 1) == \
            der.derangement_number(der.boolean_lattice(n))
        if n <= 5:
            assert dq == der.wachs_polynomial(n)


def test_desarrangements_are_counted_by_derangement_numbers():
    for n in range(1, 6):
        pool = der.desarrangements(n)
        assert len(pool) == der.poly_eval(der.q_derangement(n), 1)
        assert len(set(pool)) == len(pool)
        for w in pool:
            assert sorted(w) == list(range(1, n + 1))


def test_inversion_count():
    assert der.inversion_count((1, 2, 3)) == 0
    assert der.inversion_count((3, 2, 1)) == 3
    assert der.inversion_count((2, 4, 1, 3)) == 3


def test_poly_helpers():
    a, b = [1, 2], [0, 1, 1]
    assert der.poly_add(a, b) == [1, 3, 1]
    assert der.poly_sub(b, a) == [-1, -1, 1]
    assert der.poly_mul(a, b) == [0, 1, 3, 2]
    assert der.poly_trim([1, 0, 0]) == [1]
    assert der.poly_eval([1, 2, 3], Fraction(1, 2)) == Fraction(11, 4)


def test_support_lattice_export_and_intervals():
    sg = constructions.free_lrb(3)
    st = core.derive_support(sg)
    p = der.from_support_structure(st)
    assert p.size == 8
    assert der.derangement_number(p) == 2
    top_interval = der.interval(p, p.bottom, p.top)
    assert top_interval.size == 8


def _poset_dict(p):
    """A poset as the JSON object `poset_from_json` reads."""
    labels = [str(x) for x in p.labels]
    covers = sorted((labels[a], labels[b])
                    for a in range(p.size) for b in p.covers[a])
    return {"elements": labels, "covers": [list(c) for c in covers]}


def test_poset_json_round_trip():
    p = der.boolean_lattice(2)
    obj = _poset_dict(p)
    back = der.poset_from_json(obj)
    assert back.size == p.size
    assert der.derangement_number(back) == der.derangement_number(p)


def test_poset_json_rejects_garbage():
    with pytest.raises(MalformedInputError):
        der.poset_from_json({"elements": ["a"]})
    with pytest.raises(MalformedInputError):
        der.poset_from_json({"elements": ["a", "b"], "covers": []})


def test_graded_poset_needs_bounds():
    leq = numpy.eye(2, dtype=bool)
    with pytest.raises(MalformedInputError, match="antichain lacks"):
        posets.Poset(["a", "b"], leq, "antichain")


def test_the_corpus_builds_only_the_connected_graphs():
    # every graph on 1..4 vertices whose contraction lattice has a
    # one-block top, the lattices built for all 75 graphs and filtered,
    # against the corpus that skips a disconnected graph unbuilt
    want = []
    for nv in range(1, 5):
        vertices = list(range(1, nv + 1))
        pool = list(combinations(vertices, 2))
        for r in range(len(pool) + 1):
            for edges in combinations(pool, r):
                p = der.contraction_lattice(edges, vertices)
                if "/" not in p.labels[p.top]:
                    want.append(p)
    corpus = selftest.derangement_corpus()
    assert len(corpus) == 62
    assert [(p.name, p.labels, p.leq.tolist()) for p in corpus[-len(want):]] \
        == [(p.name, p.labels, p.leq.tolist()) for p in want]


_ROUTES = ("_chains_to_top", "_upper_derangements", "_derangement_number",
           "_flag_vectors")


def _everything(p):
    """What perfbench's corpus job and the CLI ask of a lattice, and the
    three getters on top."""
    out = [der.derangement_number(p)]
    if p.size > 1:
        out.append(der.stanley_identity_check(p))
    out += [der.mahajan_profile(p), der.maximal_chain_count(p),
            der.upper_derangements(p)]
    if p.rank is not None:
        fv = der.flag_vectors(p)
        out.append((fv.n, fv.f, fv.h))
    return out


def test_each_derangement_route_runs_once_per_poset(monkeypatch):
    # derangement_number, stanley_identity_check and mahajan_profile
    # share the chain counts, the interval derangements, the three-route
    # check and the flag vectors, each computed once per poset
    calls = {}

    def counted(name, fn):
        def run(p):
            calls[name, id(p)] = calls.get((name, id(p)), 0) + 1
            return fn(p)
        return run

    for name in _ROUTES:
        monkeypatch.setattr(der, name, counted(name, getattr(der, name)))
    corpus = selftest.derangement_corpus()
    first = [_everything(p) for p in corpus]
    again = [_everything(p) for p in corpus]
    assert set(calls.values()) == {1}
    assert {name for name, _ in calls} == set(_ROUTES)
    assert first == again
    monkeypatch.undo()
    # the values kept on a poset are those of fresh calls on a new one
    assert first == [_everything(p) for p in selftest.derangement_corpus()]


def test_kept_derangement_values_are_handed_out_as_copies():
    p = der.boolean_lattice(4)
    ups = der.upper_derangements(p)
    fv = der.flag_vectors(p)
    want = (list(ups), dict(fv.f), dict(fv.h))
    ups[p.bottom] += 1
    fv.f.clear()
    fv.h[()] = -1
    assert der.upper_derangements(p) == want[0]
    again = der.flag_vectors(p)
    assert (again.f, again.h) == want[1:]
    assert der.stanley_identity_check(p) == (9, 9, True)
    assert der.mahajan_profile(p)[0].d_sum == 9
