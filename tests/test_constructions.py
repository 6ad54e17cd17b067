"""Element, flat, and chamber counts of every construction against
closed forms, plus malformed-spec and guard behaviour."""

import itertools
import json
import math
import time
from dataclasses import replace

import numpy
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from bandwalk import (constructions, core, derangement, descent, fields,
                      matroid, posets, serialize)
from bandwalk.errors import (
    AxiomViolationError,
    MalformedInputError,
    SizeGuardError,
)
from bandwalk.guards import DEFAULT_GUARDS

def _free_mult(a, b):
    return tuple(dict.fromkeys(a + b))      # concatenate, drop repeats


def _face_mult(a, b):
    # each block of a cut by the blocks of b in order, empties dropped
    pieces = (tuple(x for x in o if x in block) for block in a for o in b)
    return tuple(p for p in pieces if p)


def _first_flat(system, s):
    """The first listed flat holding s: its closure, as the flats of a
    closure system are listed by rank."""
    return next(f for f in system.flats() if s <= f)


def _closure_mult(sg):
    """Tuples append the points of b outside the closure so far; chains
    keep a less its last step, then refine that step through b."""
    meta = sg.meta
    system = meta.get("matroid") or fields.VectorSpace(meta["q"], meta["n"])

    def tuples(a, b):
        out = list(a)
        for x in b:
            if x not in _first_flat(system, frozenset(out)):
                out.append(x)
        return tuple(out)

    def chains(a, b):
        last, out = a[max(len(a) - 2, 0)], list(a[:-1] or a)
        for j in (_first_flat(system, last | f) for f in b[1:]):
            if j != out[-1]:
                out.append(j)
        return tuple(out)

    return chains if sg.family.endswith(("_bar", "_flags")) else tuples


def _up_sets(leq):
    """The packed form of an order, bits in its linear extension."""
    return posets.UpSets(leq, posets.linear_extension(leq))


def _chain_mult(D):
    """Each step [lo, hi] of a refined through every y of b, to the
    values lo v (y ^ hi), repeats dropped: the lattice product.  Meets
    are the joins of the dual order."""
    join = D.join.tolist()
    meet = posets.join_table(_up_sets(numpy.ascontiguousarray(D.leq.T)))
    meet = meet.tolist()

    def mult(a, b):
        out = [a[0]]
        for lo, hi in zip(a, a[1:]):
            for y in b:
                g = join[lo][meet[y][hi]]
                if g != out[-1]:
                    out.append(g)
        return tuple(out)

    return mult


def _oracle_table(sg, mult):
    at = {o: i for i, o in enumerate(sg.objects)}
    return [[at[mult(a, b)] for b in sg.objects] for a in sg.objects]


# the braid families with the vector encoding and the object product
# of their elements, the reference each kernel must reproduce
BRAID = {
    "free_lrb": (constructions.free_lrb, constructions._word_vector,
                 _free_mult),
    "free_lrb_bar": (constructions.free_lrb_bar,
                     constructions.face_vector, _face_mult),
    "ordered_partitions": (constructions.ordered_partitions,
                           constructions.face_vector, _face_mult),
}

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
    # braid kernel, closure kernel, the braid kernel over a chain band,
    # JSON and an explicit table: int32 rows before any table, then
    # tabulate gives one C-contiguous int32 array of those rows
    paths = [constructions.free_lrb(3), constructions.q_free_lrb(2, 2),
             constructions.distributive_chain_lrb(
                 constructions.DistributiveLattice.grid(1, 2)),
             core.Semigroup.from_json_dict(
                 constructions.free_lrb(3).to_json_dict()),
             core.Semigroup("explicit", ["e", "a"], 0,
                            table=[[0, 1], [1, 1]])]
    assert [sg.table is None for sg in paths] == [True] * 3 + [False] * 2
    for sg in paths:
        rows = sg.rows([1, 0])
        t = sg.tabulate()
        assert rows.dtype == numpy.int32
        assert numpy.array_equal(rows, t[[1, 0]])
        assert isinstance(t, numpy.ndarray) and t.dtype == numpy.int32
        assert t.flags.c_contiguous and t.shape == (sg.size, sg.size)
        # the package's one writer renders the table array as its lists
        text = serialize.dump_json(sg.to_json_dict())
        assert json.loads(text)["table"] == t.tolist()


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
    assert lat.size == 9 and lat.n == 4


def test_non_distributive_covers_are_rejected():
    with pytest.raises(MalformedInputError):
        constructions.DistributiveLattice.from_covers(
            ["b", "x", "y", "z", "t"],
            [["b", "x"], ["b", "y"], ["b", "z"],
             ["x", "t"], ["y", "t"], ["z", "t"]])
    # a cycle of covers, and a bounded order in which a and b have two
    # minimal upper bounds, are refused naming the labels
    for labels, covers, named in (
            ("abc", ["ab", "bc", "cb"], "through b and c"),
            ("0abcd1", ["0a", "0b", "ac", "ad", "bc", "bd", "c1", "d1"],
             r"join at \(a,b\)")):
        with pytest.raises(MalformedInputError, match=named):
            constructions.DistributiveLattice.from_covers(
                labels, [list(c) for c in covers])


def _ref_distributive(leq):
    """The certificate the Birkhoff check replaced: a partial order with
    a join and a meet (the join of the dual order) for every pair, a
    bottom and a top, and meet(a, join(b, c)) = join(meet(a, b),
    meet(a, c)) over every triple, one slice a at a time."""
    try:
        posets.check_partial_order(leq)
        join = posets.join_table(_up_sets(leq))
        meet = posets.join_table(_up_sets(numpy.ascontiguousarray(leq.T)))
    except AxiomViolationError:
        return False
    if posets.bottom_of(leq) is None or posets.top_of(leq) is None:
        return False
    return all((meets[join] == join[meets[:, None], meets]).all()
               for meets in meet)


@hs.composite
def _bounded_orders(draw):
    """A random relation on up to seven points, each pair related with
    chance 1/3, transitively closed, with a bottom and a top adjoined
    and the ids shuffled; an acyclic draw keeps only the pairs (a, b)
    with a < b."""
    k = draw(hs.integers(0, 7))
    cells = draw(hs.lists(hs.integers(0, 2).map(lambda v: v == 0),
                          min_size=k * k, max_size=k * k))
    inner = numpy.array(cells, dtype=bool).reshape(k, k)
    if draw(hs.booleans()):
        inner = numpy.triu(inner, 1)
    leq = numpy.eye(k + 2, dtype=bool)
    leq[0] = leq[:, -1] = True
    leq[1:-1, 1:-1] |= inner
    for m in range(k + 2):
        leq[leq[:, m]] |= leq[m]
    perm = draw(hs.permutations(range(k + 2)))
    return numpy.ascontiguousarray(leq[numpy.ix_(perm, perm)])


def _covers_order(labels, covers):
    return posets.order_from_covers(labels, [list(c) for c in covers])


# M3, N5, and a bounded order in which a and b have two minimal upper
# bounds
M3 = _covers_order("0xyz1", ["0x", "0y", "0z", "x1", "y1", "z1"])
N5 = _covers_order("0abc1", ["0a", "ab", "b1", "0c", "c1"])
TWO_UPPER = _covers_order("0abcd1", ["0a", "0b", "ac", "ad", "bc", "bd",
                                     "c1", "d1"])


@settings(max_examples=400, deadline=None)
@given(_bounded_orders())
@example(M3)
@example(N5)
@example(TWO_UPPER)
def test_birkhoff_certificate_decides_as_the_triple_loop(leq):
    want = _ref_distributive(leq)
    try:
        constructions.DistributiveLattice(
            [f"v{i}" for i in range(len(leq))], leq, "random")
    except MalformedInputError as exc:
        assert not want
        if exc.witness is not None:
            # a join-irreducible p below x v y but below neither
            x, y, p = exc.witness
            join = posets.join_table(_up_sets(leq))
            assert leq[p, join[x, y]] and not leq[p, x] and not leq[p, y]
            covers = posets.covers_of(_up_sets(leq))
            assert sum(p in up for up in covers) == 1
            assert str(exc).startswith(f"not distributive at (v{x},v{y}): "
                                       f"v{p} lies below their join")
    else:
        assert want


@pytest.mark.parametrize("leq, labels, named", [
    (M3, "0xyz1", r"at \(x,y\): z lies below their join 1"),
    (N5, "0abc1", r"at \(a,c\): b lies below their join 1"),
])
def test_non_distributive_lattices_name_their_witness(leq, labels, named):
    with pytest.raises(MalformedInputError, match=named):
        constructions.DistributiveLattice(list(labels), leq, "lattice")


def test_negative_grid_sides_are_malformed():
    for p, q in ((-2, -3), (-1, 0), (0, -1)):
        with pytest.raises(MalformedInputError, match="needs sides >= 0"):
            constructions.DistributiveLattice.grid(p, q)
    with pytest.raises(MalformedInputError, match="needs sides >= 0"):
        constructions.construction_from_spec(
            {"type": "dist_chain", "grid": [-2, -3]})


def test_grids_over_the_lattice_cap_are_refused_before_allocating():
    # 64 x 64 grid points are the cap, refused by their chain count; one
    # more row is refused by the grid, and a side of a million without
    # its 10^12 elements
    with pytest.raises(SizeGuardError, match="distributive_chain_lrb has"):
        constructions.construction_from_spec(
            {"type": "dist_chain", "grid": [63, 63]})
    with pytest.raises(SizeGuardError, match="has 4160 elements"):
        constructions.DistributiveLattice.grid(64, 63)
    start = time.perf_counter()
    with pytest.raises(SizeGuardError, match="above the cap 4096"):
        constructions.construction_from_spec(
            {"type": "dist_chain", "grid": [10 ** 6, 10 ** 6]})
    assert time.perf_counter() - start < 0.1


def test_grid_specs_are_counted_before_the_lattice_is_checked():
    # the chain counts of the 31 x 31 and 61 x 61 grids refuse them
    # before the join table of their 961 and 3721 elements is built
    for p in (30, 60):
        start = time.perf_counter()
        with pytest.raises(SizeGuardError,
                           match=r"distributive_chain_lrb has \d{30,} "):
            constructions.construction_from_spec(
                {"type": "dist_chain", "grid": [p, p]})
        assert time.perf_counter() - start < 1


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
    # 109,601 and 69,281 words and 545,835 faces on 8 letters: counted,
    # not listed
    for build, count in ((constructions.free_lrb, 109601),
                         (constructions.free_lrb_bar, 69281),
                         (constructions.ordered_partitions, 545835)):
        start = time.perf_counter()
        with pytest.raises(SizeGuardError, match=f"has {count} elements"):
            build(8)
        assert time.perf_counter() - start < 0.1
    # a million letters: refused by the count stopped past the cap
    for build in (constructions.free_lrb, constructions.free_lrb_bar,
                  constructions.ordered_partitions):
        start = time.perf_counter()
        with pytest.raises(SizeGuardError, match="has more than"):
            build(10 ** 6)
        assert time.perf_counter() - start < 0.1
    # S_5 has 5! = 120 permutations, over a cap of 100
    with pytest.raises(SizeGuardError, match="has 120 permutations"):
        descent.top_to_random_idempotents(
            5, replace(DEFAULT_GUARDS, elements_cap=100))


def test_matroid_rank_table_is_capped_at_twelve_elements():
    assert matroid.Matroid.free(12).full_rank == 12
    with pytest.raises(SizeGuardError, match="2\\^13 entries"):
        matroid.Matroid.free(13)
    with pytest.raises(SizeGuardError):
        matroid.build_matroid({"kind": "uniform", "k": 2, "m": 13})


@pytest.mark.parametrize("build", [
    constructions.free_lrb, constructions.free_lrb_bar,
    constructions.ordered_partitions, descent.coxeter_complex,
    descent.top_to_random_idempotents, derangement.partition_lattice])
@pytest.mark.parametrize("n", [0, -1])
def test_nonpositive_n_is_malformed_not_oversized(build, n):
    with pytest.raises(MalformedInputError):
        build(n)


def test_matroid_interface():
    u24 = matroid.Matroid.uniform(2, 4)
    assert u24.full_rank == 2
    assert u24.rank(frozenset()) == 0
    assert u24.rank(frozenset({0, 1, 2})) == 2
    for s, closure in (({0}, {0}), ({0, 1}, {0, 1, 2, 3})):
        s = frozenset(s)
        assert _first_flat(u24, s) == _oracle_closure(u24, s) == closure
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
    # the flag-chain band reads the rank of each flat off its lattice
    assert posets.flat_lattice(m, name).rank \
        == [_oracle_rank(m, f) for f in m.flats()]
    for r in range(m.n + 1):
        for s in map(frozenset, itertools.combinations(range(m.n), r)):
            assert m.rank(s) == _oracle_rank(m, s)
            assert _first_flat(m, s) == _oracle_closure(m, s)


_SYSTEMS = {**MATROIDS,
            "free(6)": lambda: matroid.Matroid.free(6),
            "U(0,3)": lambda: matroid.Matroid.uniform(0, 3),
            "GF(2)^3": lambda: fields.VectorSpace(2, 3),
            "GF(3)^2": lambda: fields.VectorSpace(3, 2),
            "GF(4)^2": lambda: fields.VectorSpace(4, 2)}


@pytest.mark.parametrize("name", list(_SYSTEMS))
def test_flat_lattices_take_covers_and_ranks_from_the_system(name):
    # a lattice of flats is graded by rank, so the covers and ranks read
    # from the system's ranks are those the order derives
    system = _SYSTEMS[name]()
    lattice = posets.flat_lattice(system, name)
    assert lattice.rank == [system.rank(f) for f in system.flats()]
    fresh = posets.Poset(lattice.labels, lattice.leq, name)
    assert lattice.rank == fresh.rank
    assert lattice.covers == fresh.covers
    assert lattice.join_irreducibles.tolist() \
        == fresh.join_irreducibles.tolist()
    assert lattice.coatoms() == fresh.coatoms() and lattice.n == fresh.n


class _SpanOracle:
    """Independence in GF(q)^n by brute force: k vectors are independent
    when their linear combinations give q^k distinct vectors."""

    def __init__(self, space, q):
        self.n = space.n
        self._points = space.points
        self._fld = fields.field(q)
        self._dim = space.full_rank
        self._seen = {}

    def is_independent(self, subset):
        subset = frozenset(subset)
        if subset not in self._seen:
            add, mul = self._fld.add_t, self._fld.mul_t
            span = {(0,) * self._dim}
            for x in subset:
                v = self._points[x]
                span = {tuple(add[a][mul[c][b]] for a, b in zip(w, v))
                        for w in span for c in range(self._fld.q)}
            self._seen[subset] = len(span) == self._fld.q ** len(subset)
        return self._seen[subset]


def test_prime_fields_above_nine_compute_mod_p_without_tables():
    # orders up to 9 keep their tables of at most 81 cells
    assert all(fields.field(q).add_t is not None for q in (2, 4, 7, 8, 9))
    for q in (11, 10007, 2 ** 61 - 1):
        start = time.perf_counter()
        fld = fields.field(q)
        assert time.perf_counter() - start < 0.1
        assert fld.add_t is None
        for a, b in ((3, 5), (q - 1, q - 2), (0, 7)):
            assert fld.add(a, b) == (a + b) % q
            assert fld.sub(a, b) == (a - b) % q
            assert fld.mul(a, b) == a * b % q
        assert fld.mul(fld.inv(q - 2), q - 2) == 1


def test_field_orders_are_decided_exactly():
    def trial(m):
        return m > 1 and all(m % d for d in range(2, math.isqrt(m) + 1))

    assert [m for m in range(3000) if fields._is_prime(m)] \
        == [m for m in range(3000) if trial(m)]
    # strong pseudoprimes to the first 4 and the first 9 prime bases
    for m, factor in ((3215031751, 151), (3825123056546413051, 149491)):
        assert m % factor == 0 and not fields._is_prime(m)
    assert fields._is_prime(2 ** 31 - 1) and fields._is_prime(2 ** 61 - 1)
    # a prime past the range the bases decide is not a supported order
    for q in (6, 2 ** 89 - 1):
        with pytest.raises(MalformedInputError, match="unsupported field"):
            fields.field(q)


def test_vector_spaces_count_their_points_before_the_field():
    # GF(q)^1 has 2 subspaces and one flag chain for every q, so its
    # q - 1 points are held to the cap before the field is built
    with pytest.raises(SizeGuardError, match=r"GF\(10007\)\^1 has 10006 "
                                             "points, above the cap 4096"):
        derangement.subspace_lattice(1, 10007)
    assert derangement.subspace_lattice(1, 4093).size == 2
    with pytest.raises(SizeGuardError, match="has 50002 points"):
        constructions.q_free_lrb(1, 50003, reduced=True)
    # an order that is no field is refused once the band is counted
    with pytest.raises(MalformedInputError, match="unsupported field"):
        constructions.q_free_lrb(2, 6)
    with pytest.raises(SizeGuardError, match="q_free_lrb_bar"):
        constructions.q_free_lrb(9, 6, reduced=True)


def test_vectors_over_two_digit_fields_are_labelled_apart():
    # over GF(13) the coordinates of (1,12) and (11,2) both run together
    # to "112", so from q = 11 on they are joined by "."
    space = fields.VectorSpace(13, 2)
    assert {"1.12", "11.2"} <= set(space.ground)
    assert len(set(space.ground)) == space.n == 168
    assert constructions.q_free_lrb(2, 13).size == 26377
    # the lines spanned by the basis rows (1,1,12) and (1,11,2)
    lattice = derangement.subspace_lattice(3, 13)
    assert {"1.1.12", "1.11.2"} <= set(lattice.labels)
    assert len(set(lattice.labels)) == lattice.size == 368
    assert constructions.q_free_lrb(3, 13, reduced=True).size == 2746
    # two columns that read alike run together, and one repeated column
    assert matroid.Matroid.from_vectors(
        13, [[1, 12], [11, 2], [1, 12]]).ground == ["1.12", "11.2", "1.12#2"]
    # up to q = 9 the digits still run together
    assert fields.VectorSpace(3, 2).ground[:3] == ["01", "02", "10"]
    assert matroid.Matroid.from_vectors(
        9, [[1, 8], [1, 8]]).ground == ["18", "18#2"]


def test_matroids_over_a_large_prime_field_are_built_at_once():
    q = 2 ** 61 - 1
    start = time.perf_counter()
    m = matroid.build_matroid({"kind": "vectors", "q": q, "columns": [
        [1, 0], [0, 1], [1, 1], [q - 1, 5]]})
    assert m.full_rank == 2 and len(m.flats()) == 6       # U(2,4)
    assert constructions.matroid_lrb(m, "flag-chains").size == 5
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("q, n", [(2, 3), (3, 2), (4, 2)])
def test_vector_space_flats_match_the_span_enumeration(q, n):
    space = fields.VectorSpace(q, n)
    oracle = _SpanOracle(space, q)
    flats = space.flats()
    assert space.n == q ** n - 1 and space.full_rank == n
    assert sorted(flats, key=sorted) == sorted(_oracle_flats(oracle),
                                               key=sorted)
    # bottom first, by dimension, then by the rref rows of the label
    rows = [tuple(tuple(map(int, r)) for r in space.flat_label(f).split("+"))
            if f else () for f in flats]
    assert rows == sorted(rows, key=lambda b: (len(b), b))
    # the rank of a flat, and so of every set of points, is read off the
    # lattice of flats, as the flag-chain band reads it
    rank = posets.flat_lattice(space, "subspaces").rank
    for f, basis, r in zip(flats, rows, rank):
        assert r == len(basis) == _oracle_rank(oracle, f)
        assert {space.points.index(v) for v in basis} <= f
    for r in range(n + 2):
        for s in map(frozenset,
                     itertools.combinations(range(space.n), r)):
            closure = _first_flat(space, s)
            assert closure == _oracle_closure(oracle, s)
            assert rank[flats.index(closure)] == _oracle_rank(oracle, s)


def test_flag_chains_sort_by_the_tuple_of_flat_labels():
    # rank 2, every pair independent; "a}," sorts after "a" as a label
    # but puts its chain key before that of {a}
    m = matroid.Matroid.from_independent_sets(
        ["a", "a},", "b"], [[], ["a"], ["a},"], ["b"], ["a", "a},"],
                            ["a", "b"], ["a},", "b"]])
    top = "{a,a},,b}"
    assert constructions.matroid_lrb(m, "flag-chains").keys == [
        "{}<" + top, "{}<{a}<" + top, "{}<{a},}<" + top, "{}<{b}<" + top]


@pytest.mark.parametrize("build, keys", [
    (lambda: matroid.Matroid.from_independent_sets(["a", "b"], [[]]),
     ["{a,b}"]),
    (lambda: matroid.Matroid.uniform(1, 3), ["{}<{1,2,3}"]),
    (lambda: matroid.Matroid.uniform(0, 0), ["{}"])],
    ids=["rank-0", "U(1,3)", "U(0,0)"])
def test_flag_bands_of_rank_below_two_are_one_chain(build, keys):
    # every element a loop, one point, no point: the only chain is the
    # identity, and no flat lies strictly between bottom and top
    sg = constructions.matroid_lrb(build(), "flag-chains")
    assert sg.keys == keys and sg.identity == 0 and sg.generators == []
    assert constructions.matroid_lrb(
        build(), "flag-chains", replace(DEFAULT_GUARDS, elements_cap=1)
    ).keys == keys
    with pytest.raises(SizeGuardError, match="has 1 elements"):
        constructions.matroid_lrb(build(), "flag-chains",
                                  replace(DEFAULT_GUARDS, elements_cap=0))


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
    build, _, mult = BRAID[family]
    sg = build(n)
    assert sg.tabulate().tolist() == _oracle_table(sg, mult)


_big_bands = {}


def _big_band(family, n):
    if (family, n) not in _big_bands:
        _big_bands[family, n] = BRAID[family][0](n)
    return _big_bands[family, n]


@settings(max_examples=300, deadline=None)
@given(hs.sampled_from(sorted(BRAID)), hs.sampled_from([5, 6]), hs.data())
def test_braid_kernel_product_matches_the_object_rule(family, n, data):
    # no table: each product reads one row of the kernel
    sg = _big_band(family, n)
    _, encode, mult = BRAID[family]
    i, j = (data.draw(hs.integers(0, sg.size - 1)) for _ in range(2))
    a, b = sg.objects[i], sg.objects[j]
    assert sg.objects[sg.rows([i])[0, j]] == mult(a, b)
    got = _braid_product(numpy.array(encode(a, n)), numpy.array(encode(b, n)))
    assert got.tolist() == encode(mult(a, b), n)
    assert sg.table is None


def _braid_product(u, v):
    """Vectors of the products u v, broadcast over leading axes, by
    sorting: each entry is the dense lexicographic rank of the pair
    (u[x], v[x]) within its row, and the pair (n, n) of a letter absent
    from both words stays n."""
    n = u.shape[-1]
    pairs = u * (n + 1) + v
    order = numpy.argsort(pairs, axis=-1, kind="stable")
    ranked = numpy.take_along_axis(pairs, order, axis=-1)
    fresh = numpy.zeros(ranked.shape, dtype=numpy.int64)
    fresh[..., 1:] = ranked[..., 1:] != ranked[..., :-1]
    rank = numpy.empty_like(fresh)
    numpy.put_along_axis(rank, order, numpy.cumsum(fresh, axis=-1), axis=-1)
    return numpy.where(pairs == n * (n + 1) + n, n, rank)


def _dense(v, n):
    """The values of v below n renumbered densely in order; n stays."""
    present = sorted({x for x in v if x < n})
    return [present.index(x) if x < n else n for x in v]


@settings(max_examples=200, deadline=None)
@given(hs.integers(1, 9), hs.sampled_from(["faces", "words", "mixed"]),
       hs.data())
def test_braid_rows_match_the_sorting_oracle(n, kind, data):
    # up to three random faces (block-index vectors), injective words
    # (position vectors, absent letters at n) or mixed vectors (block
    # indices with some letters at n), and every product they reach
    if kind == "words":
        vector = hs.permutations(range(n)).flatmap(
            lambda order: hs.integers(0, n).map(
                lambda k: [order.index(x) if x in order[:k] else n
                           for x in range(n)]))
    else:
        top = n - 1 if kind == "faces" else n
        vector = hs.lists(hs.integers(0, top), min_size=n,
                          max_size=n).map(lambda v: _dense(v, n))
    vecs = {tuple(v) for v in data.draw(hs.lists(vector, min_size=1,
                                                  max_size=3))}
    while True:
        arr = numpy.array(sorted(vecs))
        table = _braid_product(arr[:, None, :], arr[None, :, :])
        reached = vecs | set(map(tuple, table.reshape(-1, n).tolist()))
        if reached == vecs:
            break
        vecs = reached
    index = {v: i for i, v in enumerate(sorted(vecs))}
    rows = constructions.braid_rows(sorted(vecs), list(map(str, index)))
    want = [[index[tuple(p)] for p in row] for row in table.tolist()]
    assert rows(range(len(vecs))).tolist() == want
    # any ids, in any order, repeated, read the same rows
    ids = data.draw(hs.lists(hs.integers(0, len(vecs) - 1), max_size=6))
    assert rows(ids).tolist() == [want[i] for i in ids]


def _braid_vectors(family, n):
    build, encode, _ = BRAID[family]
    sg = build(n)
    return sg, [encode(o, n) for o in sg.objects]


def test_braid_table_is_independent_of_the_chunk_size(monkeypatch):
    monkeypatch.setattr(constructions, "TABLE_CHUNK", 7)
    for family in sorted(BRAID):
        sg, vectors = _braid_vectors(family, 3)
        want = sg.tabulate()
        rows = constructions.braid_rows(vectors, sg.keys)
        # unsorted and repeated ids, before and after the full table
        ids = [5, 0, 5, sg.size - 1, 2, 2, 1]
        assert numpy.array_equal(rows(ids), want[ids])
        assert numpy.array_equal(rows(range(sg.size)), want)
        assert numpy.array_equal(rows(ids[::-1]), want[ids[::-1]])


@pytest.mark.parametrize("family", sorted(BRAID))
def test_dense_and_sorted_code_lookups_agree(monkeypatch, family):
    # (n+1)^n = 625 codes for four letters: at most 64 per element
    # reads ids off the dense array, none per element searches
    sg, vectors = _braid_vectors(family, 4)
    assert 5 ** 4 <= constructions.DENSE_CODES_PER_ELEMENT * sg.size
    dense = constructions.braid_rows(vectors, sg.keys)(range(sg.size))
    monkeypatch.setattr(constructions, "DENSE_CODES_PER_ELEMENT", 0)
    searched = constructions.braid_rows(vectors, sg.keys)(range(sg.size))
    assert numpy.array_equal(dense, searched)
    assert numpy.array_equal(dense, sg.tabulate())


def _missing_product_error(vectors, keys, ids):
    with pytest.raises(MalformedInputError,
                       match="leaves the element") as caught:
        constructions.braid_rows(vectors, keys)(ids)
    return str(caught.value)


def test_braid_table_rejects_products_outside_the_list(monkeypatch):
    # the free band on two letters without its chamber 2,1; both code
    # lookups name the first missing pair of the rows asked for
    sg = constructions.free_lrb(2)
    keep = [i for i, k in enumerate(sg.keys) if k != "2,1"]
    vectors = [constructions._word_vector(sg.objects[i], 2) for i in keep]
    keys = [sg.keys[i] for i in keep]
    for ids in (range(len(keep)), [3, 2, 0], [0, 3, 1, 2]):
        dense = _missing_product_error(vectors, keys, ids)
        with monkeypatch.context() as patch:
            patch.setattr(constructions, "DENSE_CODES_PER_ELEMENT", 0)
            assert _missing_product_error(vectors, keys, ids) == dense
        first = next(f"{keys[i]} * {keys[j]}" for i in ids
                     for j in range(len(keep))
                     if _free_mult(sg.objects[keep[i]],
                                   sg.objects[keep[j]]) == (2, 1))
        assert dense.endswith(first)


# q_free(2,5) has 505 elements, so its oracle table takes seconds; the
# hypothesis test below samples it instead
@pytest.mark.parametrize("name", [k for k in CLOSURE if k != "q_free(2,5)"])
def test_closure_kernel_table_matches_the_object_rule(name):
    sg = CLOSURE[name](DEFAULT_GUARDS)
    assert sg.tabulate().tolist() == _oracle_table(sg, _closure_mult(sg))


_q25 = {}


@settings(max_examples=300, deadline=None)
@given(hs.data())
def test_closure_kernel_product_matches_the_object_rule(data):
    if not _q25:
        sg = constructions.q_free_lrb(2, 5)
        _q25.update(sg=sg, table=sg.tabulate(), mult=_closure_mult(sg))
    sg, mult = _q25["sg"], _q25["mult"]
    assert sg.size == 505
    i, j = (data.draw(hs.integers(0, sg.size - 1)) for _ in range(2))
    assert sg.objects[_q25["table"][i][j]] \
        == mult(sg.objects[i], sg.objects[j])


_u78 = {}


@settings(max_examples=50, deadline=None)
@given(hs.data())
def test_wide_flag_chains_are_coded_past_the_table_cap(data):
    # U(7,8): chains of 8 of its 255 flats, which would overflow an
    # int64 code in base 256; 28,961 chains, past the table cap
    if not _u78:
        sg = constructions.matroid_lrb(matroid.Matroid.uniform(7, 8),
                                       "flag-chains")
        _u78.update(sg=sg, mult=_closure_mult(sg))
    sg, mult = _u78["sg"], _u78["mult"]
    assert sg.size == 28961
    i, j = (data.draw(hs.integers(0, sg.size - 1)) for _ in range(2))
    assert sg.objects[sg.rows([i])[0, j]] == mult(sg.objects[i],
                                                  sg.objects[j])


@pytest.mark.parametrize("name", ["q_free(2,3)", "q_free(3,2)-reduced",
                                  "K4-ordered-bases", "K4-flag-chains"])
def test_closure_table_is_independent_of_the_chunk_size(monkeypatch, name):
    want = CLOSURE[name](DEFAULT_GUARDS).tabulate()
    monkeypatch.setattr(constructions, "TABLE_CHUNK", 7)
    assert numpy.array_equal(CLOSURE[name](DEFAULT_GUARDS).tabulate(), want)


def test_closure_table_rejects_products_outside_the_list():
    # the free matroid on {0, 1}: flats {}, {0}, {1}, {0,1}; the tuples
    # without 1,0, which is the product of 1 by 0
    join = numpy.array([[1, 2], [1, 3], [3, 2], [3, 3]])
    tuples = [(), (0,), (1,), (0, 1)]
    keys = [str(t) for t in tuples]
    assert constructions.closure_rows(tuples + [(1, 0)], keys + ["1,0"],
                                      join, chains=False)([2])[0][1] == 4
    rows = constructions.closure_rows(tuples, keys, join, chains=False)
    with pytest.raises(MalformedInputError, match=r"\(1,\) \* \(0,\)"):
        rows(range(4))
    # without both chambers the product 0,1 is longer than every element
    rows = constructions.closure_rows(tuples[:3], keys[:3], join,
                                      chains=False)
    with pytest.raises(MalformedInputError, match=r"\(0,\) \* \(1,\)"):
        rows(range(3))


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
    # 43,046,720 vectors of GF(9)^8: counted, not listed
    for reduced in (False, True):
        start = time.perf_counter()
        with pytest.raises(SizeGuardError, match="above the cap"):
            constructions.q_free_lrb(8, 9, reduced)
        assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("name", [k for k in CLOSURE
                                  if k.endswith(("-reduced", "flag-chains"))])
def test_chain_counts_equal_the_enumerated_bands(name):
    # refused by the count, before enumeration, exactly one below |S|
    size = CLOSURE[name](DEFAULT_GUARDS).size
    assert CLOSURE[name](replace(DEFAULT_GUARDS, elements_cap=size)).size \
        == size
    with pytest.raises(SizeGuardError, match=f"has {size} elements"):
        CLOSURE[name](replace(DEFAULT_GUARDS, elements_cap=size - 1))


def _boolean_covers(n):
    """The Boolean lattice of subsets of an n-set, from its covers, with
    each subset labelled by its bit mask."""
    return constructions.DistributiveLattice.from_covers(
        [str(m) for m in range(1 << n)],
        [[str(m), str(m | 1 << i)] for m in range(1 << n) for i in range(n)
         if not m >> i & 1])


def _ideals_n():
    """The order ideals of the N poset a < c, b < c, b < d, by covers."""
    return constructions.DistributiveLattice.from_covers(
        ["0", "a", "b", "ab", "bd", "abc", "abd", "abcd"],
        [["0", "a"], ["0", "b"], ["a", "ab"], ["b", "ab"], ["b", "bd"],
         ["ab", "abc"], ["ab", "abd"], ["bd", "abd"], ["abc", "abcd"],
         ["abd", "abcd"]])


def _chain_covers(n):
    """The n-element chain 0 < 1 < ... < n-1, from its covers."""
    return constructions.DistributiveLattice.from_covers(
        [str(i) for i in range(n)], [[str(i), str(i + 1)]
                                     for i in range(n - 1)])


def test_oversized_chain_bands_are_refused_before_enumerating():
    # 3,112,896 and 34,013,312 chains of the 8 x 8 and 9 x 9 grids, and
    # the 545,835 ordered partitions of 8 as the chains of B_8
    for lattice, count in (
            (constructions.DistributiveLattice.grid(7, 7), 3112896),
            (constructions.DistributiveLattice.grid(8, 8), 34013312),
            (_boolean_covers(8), constructions.face_count(8))):
        start = time.perf_counter()
        with pytest.raises(SizeGuardError, match=f"has {count} elements"):
            constructions.distributive_chain_lrb(lattice)
        assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("lattice", [
    lambda: constructions.DistributiveLattice.grid(0, 0),
    lambda: constructions.DistributiveLattice.grid(2, 2),
    lambda: constructions.DistributiveLattice.grid(4, 2),
    lambda: _boolean_covers(4),
    lambda: _ideals_n()])
def test_distributive_chain_counts_equal_the_enumerated_bands(lattice):
    # refused by the count, before enumeration, exactly one below |S|
    lat = lattice()
    size = constructions.distributive_chain_lrb(lat).size
    capped = constructions.distributive_chain_lrb(
        lat, replace(DEFAULT_GUARDS, elements_cap=size))
    assert capped.size == size
    with pytest.raises(SizeGuardError, match=f"has {size} elements"):
        constructions.distributive_chain_lrb(
            lat, replace(DEFAULT_GUARDS, elements_cap=size - 1))


# the lattices whose chain bands the braid kernel must reproduce, the
# one-point lattice, with no join-irreducibles, among them
CHAIN_LATTICES = {
    **{f"grid({p},{q})": (lambda p=p, q=q:
                          constructions.DistributiveLattice.grid(p, q))
       for p, q in [(0, 0), (1, 1), (2, 2), (2, 3), (3, 3), (3, 4), (4, 2)]},
    "B_4": lambda: _boolean_covers(4),
    "ideals-N": _ideals_n,
}


@pytest.mark.parametrize("name", sorted(CHAIN_LATTICES))
def test_chain_kernel_table_matches_the_lattice_product(name):
    lat = CHAIN_LATTICES[name]()
    sg = constructions.distributive_chain_lrb(lat)
    assert sg.tabulate().tolist() == _oracle_table(sg, _chain_mult(lat))


def _ideal_lattice(k, below):
    """J(P) from its covers, for P on 0..k-1 with `below` the set of
    pairs (a, b), a < b: ideals as bit masks, an ideal covered by each
    ideal with one more point."""
    ideals = [m for m in range(1 << k)
              if all(m >> a & 1 for a, b in below if m >> b & 1)]
    return constructions.DistributiveLattice.from_covers(
        [f"I{m}" for m in ideals],
        [[f"I{m}", f"I{m | 1 << x}"] for m in ideals for x in range(k)
         if not m >> x & 1 and m | 1 << x in ideals])



def _closed(k, pairs):
    """The strict order on 0..k-1 generated by pairs (a, b), a < b."""
    below = set(pairs)
    for m in range(k):
        below |= {(a, b) for a, x in below if x == m
                  for y, b in below if y == m}
    return below


@settings(max_examples=60, deadline=None)
@given(hs.integers(1, 5).flatmap(lambda k: hs.tuples(
    hs.just(k), hs.sets(hs.tuples(hs.integers(0, k - 1),
                                  hs.integers(0, k - 1)).filter(
                                      lambda ab: ab[0] < ab[1])))))
def test_chain_bands_of_random_ideal_lattices_match_the_oracle(case):
    # the chambers of the chain band of J(P) are its maximal chains, one
    # for each linear extension of P
    k, pairs = case
    below = _closed(k, pairs)
    lat = _ideal_lattice(k, below)
    sg = constructions.distributive_chain_lrb(lat)
    assert sg.tabulate().tolist() == _oracle_table(sg, _chain_mult(lat))
    extensions = sum(
        all(order.index(a) < order.index(b) for a, b in below)
        for order in itertools.permutations(range(k)))
    assert len(core.derive_support(sg).chambers) == extensions


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_boolean_chain_band_is_the_ordered_partition_band(n):
    # a chain of subsets m_0 < ... < m_l and an ordered partition of
    # {1..n} match when letter x + 1 lies in block #{i >= 1 : x not in
    # m_i} of the partition
    chains = constructions.distributive_chain_lrb(_boolean_covers(n))
    faces = constructions.ordered_partitions(n)
    face_of = {tuple(constructions.face_vector(o, n)): i
               for i, o in enumerate(faces.objects)}
    lat = chains.meta["lattice"]
    to_face = [face_of[tuple(
        sum(not int(lat.labels[m]) >> x & 1 for m in ch[1:])
        for x in range(n))] for ch in chains.objects]
    assert sorted(to_face) == list(range(faces.size))
    t, u = chains.tabulate(), faces.tabulate()
    assert [[to_face[c] for c in row] for row in t.tolist()] \
        == [[u[to_face[a], to_face[b]] for b in range(chains.size)]
            for a in range(chains.size)]


@pytest.mark.parametrize("p, q", [(1, 1), (1, 3), (2, 2), (2, 3), (4, 2)])
def test_grid_chain_band_has_a_chamber_per_lattice_path(p, q):
    sg = constructions.distributive_chain_lrb(
        constructions.DistributiveLattice.grid(p, q))
    assert len(core.derive_support(sg).chambers) == math.comb(p + q, p)


def test_the_one_point_lattice_is_served_on_no_letters():
    sg = constructions.distributive_chain_lrb(
        constructions.DistributiveLattice.grid(0, 0))
    assert sg.keys == ["(0,0)"] and sg.tabulate().tolist() == [[0]]
    rows = constructions.braid_rows(numpy.zeros((1, 0)), ["e"])
    assert rows([0, 0]).tolist() == [[0], [0]]


_chain16 = {}


@settings(max_examples=50, deadline=None)
@given(hs.data())
def test_fifteen_join_irreducibles_are_coded_in_int64(data):
    # the 16-element chain: 16,384 chains on 15 letters, coded below
    # 16^15 = 2^60, past the table cap
    if not _chain16:
        lat = _chain_covers(16)
        _chain16.update(sg=constructions.distributive_chain_lrb(lat),
                        mult=_chain_mult(lat))
    sg, mult = _chain16["sg"], _chain16["mult"]
    assert sg.size == 16384
    i, j = (data.draw(hs.integers(0, sg.size - 1)) for _ in range(2))
    assert sg.objects[sg.rows([i])[0, j]] == mult(sg.objects[i],
                                                  sg.objects[j])


def test_sixteen_letters_overflow_the_braid_code_and_are_refused():
    # 17^16 > 2^63: the 17-element chain, 32,768 chains under the
    # elements cap, and any 16-letter braid band
    with pytest.raises(SizeGuardError, match="16 letters in radix 17"):
        constructions.distributive_chain_lrb(_chain_covers(17))
    with pytest.raises(SizeGuardError, match="overflow int64"):
        constructions.braid_rows(numpy.zeros((1, 16)), ["e"])
