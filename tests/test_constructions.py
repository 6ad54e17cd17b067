"""Element, flat, and chamber counts of every construction against
closed forms, plus malformed-spec and guard behaviour."""

import itertools
import json
import time
from dataclasses import replace

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from bandwalk import constructions, core, descent, matroid
from bandwalk.errors import (
    AxiomViolationError,
    MalformedInputError,
    SizeGuardError,
)
from bandwalk.guards import DEFAULT_GUARDS

# the braid families with the vector encoding of their elements
BRAID = {
    "free_lrb": (constructions.free_lrb, constructions._word_vector),
    "free_lrb_bar": (constructions.free_lrb_bar,
                     constructions._face_vector),
    "ordered_partitions": (constructions.ordered_partitions,
                           constructions._face_vector),
}

# no dense table: every product goes through the object rule
RULE_ONLY = replace(DEFAULT_GUARDS, table_cap=0)

K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


MATROIDS = {
    "K4": lambda: matroid.Matroid.from_graph(K4_EDGES),
    "U(2,4)": lambda: matroid.Matroid.uniform(2, 4),
    "U(3,5)": lambda: matroid.Matroid.uniform(3, 5),
    "free(3)": lambda: matroid.Matroid.free(3),
    # a loop and a parallel pair
    "GF(2)-loopy": lambda: matroid.build_matroid({
        "kind": "vectors", "q": 2,
        "columns": [[0, 0, 0], [1, 0, 0], [1, 0, 0], [0, 1, 0],
                    [1, 1, 0], [0, 0, 1]]}),
}


def _closure_bands():
    """The bands tabulated by the closure kernel, as guards -> band."""
    bands = {}
    for n, q in [(1, 2), (2, 2), (2, 3), (3, 2), (2, 4), (2, 5)]:
        for reduced in (False, True):
            bands[f"q_free({n},{q}){'-reduced' * reduced}"] = (
                lambda g, n=n, q=q, r=reduced:
                constructions.q_free_lrb(n, q, r, g))
    for name, build in MATROIDS.items():
        for kind in ("ordered-bases", "flag-chains"):
            bands[f"{name}-{kind}"] = (
                lambda g, build=build, kind=kind:
                constructions.matroid_lrb(build(), kind, g))
    return bands


CLOSURE = _closure_bands()


def _shape(sg):
    st = core.derive_support(sg)
    return sg.size, st.n_flats, len(st.chambers)


def test_free_band_counts():
    # sum over k of n!/(n-k)! elements, 2^n flats, n! chambers
    want = {1: (2, 2, 1), 2: (5, 4, 2), 3: (16, 8, 6), 4: (65, 16, 24)}
    for n, shape in want.items():
        assert _shape(constructions.free_lrb(n)) == shape


def test_deletion_quotient_counts():
    # words of support size n-1 merge into chambers, so the lattice
    # loses its coatom row
    want = {2: (3, 2, 2), 3: (10, 5, 6), 4: (41, 12, 24)}
    for n, shape in want.items():
        assert _shape(constructions.free_lrb_bar(n)) == shape


def test_ordered_partition_counts():
    # Fubini numbers over the partition lattice, n! chambers
    want = {2: (3, 2, 2), 3: (13, 5, 6), 4: (75, 15, 24)}
    for n, shape in want.items():
        assert _shape(constructions.ordered_partitions(n)) == shape


def test_q_analogue_counts():
    # chambers are ordered bases of GF(q)^n; flats are subspaces
    assert _shape(constructions.q_free_lrb(2, 2)) == (10, 5, 6)
    assert _shape(constructions.q_free_lrb(2, 3)) == (57, 6, 48)
    assert _shape(constructions.q_free_lrb(3, 2)) == (218, 16, 168)


def test_reduced_q_analogue_counts():
    # chambers become complete flags, [n]_q! of them, and the
    # codimension-one subspaces leave the lattice; for n = 2 the lines
    # themselves are codimension one, so only bottom and top remain
    assert _shape(constructions.q_free_lrb(2, 2, reduced=True)) == (4, 2, 3)
    assert _shape(constructions.q_free_lrb(3, 2, reduced=True)) == (29, 9, 21)


def test_uniform_matroid_band_counts():
    u24 = matroid.Matroid.uniform(2, 4)
    assert _shape(constructions.matroid_lrb(u24, "ordered-bases")) \
        == (17, 6, 12)
    assert _shape(constructions.matroid_lrb(u24, "flag-chains")) \
        == (5, 2, 4)


def test_graphic_matroid_band_counts():
    k4 = matroid.Matroid.from_graph(
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    # 16 spanning trees times 3! orderings; flats lattice has 15 flats
    assert _shape(constructions.matroid_lrb(k4, "ordered-bases")) \
        == (133, 15, 96)
    # maximal flag chains: 4 triangles * 3 + 3 disjoint pairs * 2
    assert _shape(constructions.matroid_lrb(k4, "flag-chains")) \
        == (25, 8, 18)


def test_distributive_chain_band_counts():
    lat = constructions.DistributiveLattice.grid(2, 2)
    sg = constructions.distributive_chain_lrb(lat)
    assert _shape(sg) == (26, 14, 6)
    assert len(sg.generators) == 7


def test_every_table_path_gives_one_int32_array():
    # braid kernel, closure kernel, rule-tabulated chain band, JSON and
    # an explicit table: one C-contiguous int32 array, plain int products
    chains = constructions.distributive_chain_lrb(
        constructions.DistributiveLattice.grid(1, 2))
    assert chains.table is None
    chains.tabulate()
    free = constructions.free_lrb(3)
    paths = [free, constructions.q_free_lrb(2, 2), chains,
             core.Semigroup.from_json_dict(free.to_json_dict()),
             core.Semigroup("explicit", ["e", "a"], 0,
                            table=[[0, 1], [1, 1]])]
    for sg in paths:
        t = sg.table
        assert isinstance(t, numpy.ndarray) and t.dtype == numpy.int32
        assert t.flags.c_contiguous and t.shape == (sg.size, sg.size)
        assert all(type(sg.product(i, j)) is int
                   for i in range(sg.size) for j in range(sg.size))
        json.dumps(sg.to_json_dict())


def test_every_construction_satisfies_the_axioms():
    bands = [
        constructions.free_lrb(3),
        constructions.free_lrb_bar(3),
        constructions.ordered_partitions(3),
        constructions.q_free_lrb(2, 2),
        constructions.q_free_lrb(2, 2, reduced=True),
        constructions.matroid_lrb(matroid.Matroid.uniform(2, 3),
                                  "ordered-bases"),
        constructions.distributive_chain_lrb(
            constructions.DistributiveLattice.grid(1, 2)),
    ]
    for sg in bands:
        rep = core.verify_lrb(sg)
        assert rep.ok, f"{sg.label}: {rep.message}"


def test_declared_expected_lattices_match_derivation():
    for sg in (constructions.free_lrb(4),
               constructions.free_lrb_bar(4),
               constructions.ordered_partitions(4),
               constructions.q_free_lrb(2, 3)):
        st = core.derive_support(sg)
        assert core.check_expected_lattice(st) is not None


def test_grid_lattice_shape():
    lat = constructions.DistributiveLattice.grid(2, 2)
    assert lat.n == 9
    lat2 = constructions.DistributiveLattice.boolean(3)
    assert lat2.n == 8


def test_non_distributive_covers_are_rejected():
    with pytest.raises(MalformedInputError):
        constructions.DistributiveLattice.from_covers(
            ["b", "x", "y", "z", "t"],
            [["b", "x"], ["b", "y"], ["b", "z"],
             ["x", "t"], ["y", "t"], ["z", "t"]])


def test_spec_dispatch_round_trip():
    sg = constructions.construction_from_spec(
        {"type": "q_free_bar", "n": 2, "q": 2})
    assert sg.family == "q_free_lrb_bar"
    sg = constructions.construction_from_spec(
        {"type": "dist_chain", "grid": [1, 1]})
    assert _shape(sg)[2] == 2


def test_spec_dispatch_rejects_garbage():
    with pytest.raises(MalformedInputError):
        constructions.construction_from_spec({"type": "nope"})
    with pytest.raises(MalformedInputError):
        constructions.construction_from_spec({"type": "free_lrb"})
    with pytest.raises(MalformedInputError):
        constructions.construction_from_spec(["free_lrb", 3])


def test_size_guards_fire():
    with pytest.raises(SizeGuardError):
        constructions.free_lrb(9)
    with pytest.raises(SizeGuardError):
        constructions.ordered_partitions(8)


@pytest.mark.parametrize("build", [
    constructions.free_lrb, constructions.free_lrb_bar,
    constructions.ordered_partitions, descent.coxeter_complex,
    descent.top_to_random_idempotents])
@pytest.mark.parametrize("n", [0, -1])
def test_nonpositive_n_is_malformed_not_oversized(build, n):
    with pytest.raises(MalformedInputError):
        build(n)


def test_matroid_interface():
    u24 = matroid.Matroid.uniform(2, 4)
    assert u24.full_rank == 2
    assert u24.rank(frozenset()) == 0
    assert u24.rank(frozenset({0, 1, 2})) == 2
    assert u24.closure(frozenset({0})) == frozenset({0})
    assert u24.closure(frozenset({0, 1})) == frozenset({0, 1, 2, 3})
    assert len(u24.flats()) == 6

    k4 = matroid.Matroid.from_graph(
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert k4.full_rank == 3
    assert len(k4.flats()) == 15

    fano = matroid.build_matroid({
        "kind": "vectors", "q": 2,
        "columns": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0],
                    [1, 0, 1], [0, 1, 1], [1, 1, 1]]})
    assert fano.full_rank == 3
    # Fano plane: 7 points, 7 lines, bottom and top
    assert len(fano.flats()) == 16


def _oracle_rank(m, subset):
    """Greedy rank through the independence oracle."""
    acc = frozenset()
    for x in sorted(subset):
        if m.is_independent(acc | {x}):
            acc |= {x}
    return len(acc)


def _oracle_closure(m, s):
    r = _oracle_rank(m, s)
    return frozenset(x for x in range(m.n) if _oracle_rank(m, s | {x}) == r)


def _oracle_flats(m):
    """Flats by closing the closure of the empty set under adding one
    element, with closures from oracle ranks."""
    seen = {_oracle_closure(m, frozenset())}
    frontier = list(seen)
    while frontier:
        frontier = [g for g in {_oracle_closure(m, f | {x})
                                for f in frontier
                                for x in range(m.n) if x not in f}
                    if g not in seen]
        seen.update(frontier)
    return sorted(seen, key=lambda f: (_oracle_rank(m, f), sorted(f)))


@pytest.mark.parametrize("name", ["K4", "U(2,4)", "U(3,5)", "GF(2)-loopy"])
def test_rank_table_flats_match_the_closure_enumeration(name):
    m = MATROIDS[name]()
    assert m.flats() == _oracle_flats(m)
    for r in range(m.n + 1):
        for s in map(frozenset, itertools.combinations(range(m.n), r)):
            assert m.rank(s) == _oracle_rank(m, s)
            assert m.closure(s) == _oracle_closure(m, s)


def test_the_free_twelve_flag_band_is_refused_by_count_quickly():
    start = time.perf_counter()
    with pytest.raises(SizeGuardError, match="823059745 elements"):
        constructions.matroid_lrb(matroid.Matroid.free(12), "flag-chains")
    assert time.perf_counter() - start < 0.5


def test_non_matroids_are_rejected_with_a_witness():
    # {a} cannot be grown from {b, c}
    with pytest.raises(AxiomViolationError, match="exchange") as err:
        matroid.Matroid.from_independent_sets(
            "abc", [[], ["a"], ["b"], ["c"], ["b", "c"]])
    assert err.value.witness == ([0], [1, 2])
    with pytest.raises(AxiomViolationError, match="downward closed") as err:
        matroid.Matroid.from_independent_sets("ab", [[], ["a", "b"]])
    assert err.value.witness in (([0, 1], 0), ([0, 1], 1))


def _exchange_holds(family):
    return all(any(i | {x} in family for x in j - i)
               for i in family for j in family if len(j) == len(i) + 1)


@settings(max_examples=300, deadline=None)
@given(hs.data())
def test_matroid_check_agrees_with_the_exchange_axiom(data):
    n = data.draw(hs.integers(0, 5))
    sets = data.draw(hs.lists(hs.frozensets(hs.integers(0, n - 1)
                                            if n else hs.nothing()),
                              max_size=5))
    family = {frozenset()} | set(sets)
    if data.draw(hs.booleans()):        # make it hereditary
        family = {frozenset(c) for s in family for r in range(len(s) + 1)
                  for c in itertools.combinations(sorted(s), r)}
    hereditary = all(s - {x} in family for s in family for x in s)
    try:
        matroid.Matroid([str(x) for x in range(n)], family.__contains__)
    except AxiomViolationError as err:
        if hereditary:
            i, j = map(frozenset, err.witness)
            assert {i, j} <= family and len(j) == len(i) + 1
            assert not any(i | {x} in family for x in j - i)
        else:
            s, x = err.witness
            assert frozenset(s) in family and frozenset(s) - {x} not in family
        assert not (hereditary and _exchange_holds(family))
    else:
        assert hereditary and _exchange_holds(family)


def test_matroid_spec_rejects_garbage():
    with pytest.raises(MalformedInputError):
        matroid.build_matroid({"kind": "mystery"})
    with pytest.raises(MalformedInputError):
        matroid.build_matroid({"kind": "uniform", "k": 2})
    with pytest.raises(MalformedInputError):
        constructions.matroid_lrb(matroid.Matroid.uniform(2, 3), "sideways")


@pytest.mark.parametrize("family", sorted(BRAID))
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_braid_kernel_table_matches_the_object_rule(family, n):
    build, _ = BRAID[family]
    sg = build(n)
    ref = build(n, RULE_ONLY)
    assert sg.table is not None and ref.table is None
    assert sg.keys == ref.keys
    size = sg.size
    assert sg.table.tolist() == [[ref.product(i, j) for j in range(size)]
                                 for i in range(size)]


_rule_bands = {}


def _rule_band(family, n):
    if (family, n) not in _rule_bands:
        _rule_bands[family, n] = BRAID[family][0](n, RULE_ONLY)
    return _rule_bands[family, n]


@settings(max_examples=300, deadline=None)
@given(hs.sampled_from(sorted(BRAID)), hs.sampled_from([5, 6]), hs.data())
def test_braid_kernel_product_matches_the_object_rule(family, n, data):
    sg = _rule_band(family, n)
    encode = BRAID[family][1]
    i, j = (data.draw(hs.integers(0, sg.size - 1)) for _ in range(2))
    u, v = (numpy.array(encode(sg.objects[k], n)) for k in (i, j))
    got = constructions.braid_product(u, v)
    assert got.tolist() == encode(sg.objects[sg.product(i, j)], n)


def test_braid_table_is_independent_of_the_chunk_size(monkeypatch):
    sg = constructions.ordered_partitions(3)
    vectors = [constructions._face_vector(p, 3) for p in sg.objects]
    monkeypatch.setattr(constructions, "TABLE_CHUNK", 7)
    assert numpy.array_equal(constructions.braid_table(vectors, sg.keys),
                             sg.table)


def test_braid_table_rejects_products_outside_the_list():
    # the free band on two letters without its chamber 2,1
    sg = constructions.free_lrb(2)
    keep = [i for i, k in enumerate(sg.keys) if k != "2,1"]
    vectors = [constructions._word_vector(sg.objects[i], 2) for i in keep]
    with pytest.raises(MalformedInputError, match="leaves the element"):
        constructions.braid_table(vectors, [sg.keys[i] for i in keep])


# q_free(2,5) has 505 elements, so its rule table takes seconds; the
# hypothesis test below samples it instead
@pytest.mark.parametrize("name", [k for k in CLOSURE if k != "q_free(2,5)"])
def test_closure_kernel_table_matches_the_object_rule(name):
    sg = CLOSURE[name](DEFAULT_GUARDS)
    ref = CLOSURE[name](RULE_ONLY)
    assert sg.table is not None and ref.table is None
    assert sg.keys == ref.keys
    size = sg.size
    assert sg.table.tolist() == [[ref.product(i, j) for j in range(size)]
                                 for i in range(size)]


_q25 = {}


@settings(max_examples=300, deadline=None)
@given(hs.data())
def test_closure_kernel_product_matches_the_object_rule(data):
    if not _q25:
        _q25.update(kernel=constructions.q_free_lrb(2, 5),
                    rule=constructions.q_free_lrb(2, 5, False, RULE_ONLY))
    sg, ref = _q25["kernel"], _q25["rule"]
    assert sg.size == 505
    i, j = (data.draw(hs.integers(0, sg.size - 1)) for _ in range(2))
    assert sg.table[i][j] == ref.product(i, j)


@pytest.mark.parametrize("name", ["q_free(2,3)", "q_free(3,2)-reduced",
                                  "K4-ordered-bases", "K4-flag-chains"])
def test_closure_table_is_independent_of_the_chunk_size(monkeypatch, name):
    want = CLOSURE[name](DEFAULT_GUARDS).table
    monkeypatch.setattr(constructions, "TABLE_CHUNK", 7)
    assert numpy.array_equal(CLOSURE[name](DEFAULT_GUARDS).table, want)


def test_closure_table_rejects_products_outside_the_list():
    # the free matroid on {0, 1}: flats {}, {0}, {1}, {0,1}; the tuples
    # without 1,0, which is the product of 1 by 0
    join = numpy.array([[1, 2], [1, 3], [3, 2], [3, 3]])
    tuples = [(), (0,), (1,), (0, 1)]
    keys = [str(t) for t in tuples]
    assert constructions.closure_table(tuples + [(1, 0)], keys + ["1,0"],
                                       join, chains=False)[2][1] == 4
    with pytest.raises(MalformedInputError, match=r"\(1,\) \* \(0,\)"):
        constructions.closure_table(tuples, keys, join, chains=False)
    # without both chambers the product 0,1 is longer than every element
    with pytest.raises(MalformedInputError, match=r"\(0,\) \* \(1,\)"):
        constructions.closure_table(tuples[:3], keys[:3], join, chains=False)


def test_oversized_closure_bands_are_refused_before_enumerating():
    # 10,651,322 tuples, 851,572 chains of subspaces of GF(2)^6, about
    # 1.3e9 ordered independent tuples and 69,281 flag chains of B_8
    with pytest.raises(SizeGuardError, match="10651322 elements"):
        constructions.q_free_lrb(5, 2)
    with pytest.raises(SizeGuardError, match="851572 elements"):
        constructions.q_free_lrb(6, 2, reduced=True)
    with pytest.raises(SizeGuardError, match="above the cap"):
        constructions.matroid_lrb(matroid.Matroid.free(12), "ordered-bases")
    with pytest.raises(SizeGuardError, match="69281 elements"):
        constructions.matroid_lrb(matroid.Matroid.free(8), "flag-chains")


@pytest.mark.parametrize("name", [k for k in CLOSURE
                                  if k.endswith(("-reduced", "flag-chains"))])
def test_chain_counts_equal_the_enumerated_bands(name):
    # refused by the count, before enumeration, exactly one below |S|
    size = CLOSURE[name](DEFAULT_GUARDS).size
    assert CLOSURE[name](replace(DEFAULT_GUARDS, elements_cap=size)).size \
        == size
    with pytest.raises(SizeGuardError, match=f"has {size} elements"):
        CLOSURE[name](replace(DEFAULT_GUARDS, elements_cap=size - 1))
