"""The derivations of `posets`, read from packed up-sets, against the
list loops they replaced."""

import random
import time
from unittest import mock

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from bandwalk import constructions, core, derangement, posets, selftest
from bandwalk.errors import (AxiomViolationError, MalformedInputError,
                             SizeGuardError)
from bandwalk.posets import LATTICE_CAP


# ------------------------------------------------ list-based reference


def _ref_check_partial_order(leq):
    n = len(leq)
    for a in range(n):
        if not leq[a][a]:
            raise AxiomViolationError("order not reflexive", witness=(a,))
    for a in range(n):
        for b in range(n):
            if a != b and leq[a][b] and leq[b][a]:
                raise AxiomViolationError("order not antisymmetric",
                                          witness=(a, b))
    for a in range(n):
        la = leq[a]
        for b in range(n):
            if la[b]:
                lb = leq[b]
                for c in range(n):
                    if lb[c] and not la[c]:
                        raise AxiomViolationError(
                            "order not transitive", witness=(a, b, c))


def _ref_covers_of(leq):
    n = len(leq)
    covers = []
    for a in range(n):
        ups = [b for b in range(n) if leq[a][b] and a != b]
        cov = []
        for b in ups:
            if not any(leq[a][c] and leq[c][b] and c != a and c != b
                       for c in ups):
                cov.append(b)
        covers.append(sorted(cov))
    return covers


def _ref_linear_extension(leq):
    n = len(leq)
    below = [sum(1 for b in range(n) if leq[b][a]) for a in range(n)]
    return sorted(range(n), key=lambda a: (below[a], a))


def _ref_join_table(leq):
    n = len(leq)
    table = [[-1] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            ubs = [c for c in range(n) if leq[a][c] and leq[b][c]]
            least = [c for c in ubs if all(leq[c][d] for d in ubs)]
            if len(least) != 1:
                raise AxiomViolationError("pair has no unique join",
                                          witness=(a, b))
            table[a][b] = table[b][a] = least[0]
    return table


def _ref_rank(leq):
    """The length of the longest chain of covers up to each element, or
    None unless every cover raises it by exactly one."""
    covers = _ref_covers_of(leq)
    rank = {}

    def rank_of(b):
        if b not in rank:
            rank[b] = max((rank_of(a) + 1 for a in range(len(leq))
                           if b in covers[a]), default=0)
        return rank[b]

    ranks = [rank_of(b) for b in range(len(leq))]
    if any(ranks[b] != ranks[a] + 1
           for a in range(len(leq)) for b in covers[a]):
        return None
    return ranks


def _ref_moebius_row(leq, a):
    """mu(a, b) for every b >= a, by the defining recursion over the
    elements in order of how many lie below them."""
    mu = {}
    for b in _ref_linear_extension(leq):
        if leq[a][b]:
            mu[b] = 1 if b == a else -sum(
                m for z, m in mu.items() if leq[z][b])
    return mu


def _ref_closure(labels, pairs):
    """The depth-first closure `poset_from_json` ran on cover pairs."""
    index = {lab: i for i, lab in enumerate(labels)}
    size = len(labels)
    up = [set() for _ in range(size)]
    for a, b in pairs:
        up[index[a]].add(index[b])
    leq = [[a == b for b in range(size)] for a in range(size)]
    for a in range(size):
        frontier = list(up[a])
        while frontier:
            c = frontier.pop()
            if not leq[a][c]:
                leq[a][c] = True
                frontier.extend(up[c])
    for a in range(size):
        for b in range(size):
            if a != b and leq[a][b] and leq[b][a]:
                raise MalformedInputError(
                    f"cover cycle through {labels[a]} and {labels[b]}")
    return leq


def _up_sets(leq):
    """The packed form of an order, bits in its linear extension."""
    return posets.UpSets(leq, posets.linear_extension(leq))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (AxiomViolationError, MalformedInputError) as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)


# ------------------------------------------------------------ strategies


@hs.composite
def relations(draw):
    n = draw(hs.integers(0, 7))
    cells = draw(hs.lists(hs.booleans(), min_size=n * n, max_size=n * n))
    return numpy.array(cells, dtype=bool).reshape(n, n)


@hs.composite
def closed_dags(draw, max_flips=0):
    """A random partial order: the closure of a DAG on a shuffled
    vertex order, with up to `max_flips` cells off the diagonal toggled
    afterwards."""
    n = draw(hs.integers(0, 7))
    rank = draw(hs.permutations(range(n)))
    leq = numpy.eye(n, dtype=bool)
    for a in range(n):
        for b in range(n):
            if rank[a] < rank[b]:
                leq[a, b] = draw(hs.booleans())
    for k in range(n):
        leq[leq[:, k]] |= leq[k]
    for _ in range(draw(hs.integers(0, max_flips)) if n > 1 else 0):
        a, b = draw(hs.lists(hs.integers(0, n - 1), min_size=2, max_size=2,
                             unique=True))
        leq[a, b] = not leq[a, b]
    return leq


@hs.composite
def bounded_dags(draw):
    """A random bounded poset: a closed DAG with a bottom and a top
    adjoined, the ids shuffled."""
    inner = draw(closed_dags())
    n = len(inner) + 2
    leq = numpy.zeros((n, n), dtype=bool)
    leq[0] = leq[:, -1] = True
    leq[1:-1, 1:-1] = inner
    perm = draw(hs.permutations(range(n)))
    return numpy.ascontiguousarray(leq[numpy.ix_(perm, perm)])


# ------------------------------------------------------------------ tests


@settings(max_examples=300, deadline=None)
@given(hs.one_of(relations(), closed_dags(max_flips=3)))
def test_validity_reports_the_reference_witness(leq):
    want = _outcome(_ref_check_partial_order, leq.tolist())
    assert _outcome(posets.check_partial_order, leq) == want


@settings(max_examples=300, deadline=None)
@given(closed_dags())
def test_derivations_match_the_reference_loops(leq):
    lists = leq.tolist()
    posets.check_partial_order(leq)
    assert posets.covers_of(_up_sets(leq)) == _ref_covers_of(lists)
    assert posets.linear_extension(leq) == _ref_linear_extension(lists)
    # meets are the joins of the dual order
    for order, flip in ((leq, False),
                        (numpy.ascontiguousarray(leq.T), True)):
        ref = [list(col) for col in zip(*lists)] if flip else lists
        want = _outcome(_ref_join_table, ref)
        got = _outcome(posets.join_table, _up_sets(order))
        if isinstance(want, tuple):
            assert got == want
        else:
            assert got.tolist() == want


def _random_order(n, seed):
    """The closure of a sparse random DAG on n shuffled ids."""
    rng = random.Random(seed)
    leq = numpy.eye(n, dtype=bool)
    for a in range(n):
        for b in range(a + 1, n):
            leq[a, b] = rng.random() < 0.05
    for k in range(n):
        leq[leq[:, k]] |= leq[k]
    perm = list(range(n))
    rng.shuffle(perm)
    return numpy.ascontiguousarray(leq[numpy.ix_(perm, perm)])


def _boolean_order(k):
    """The subsets of k points by inclusion, a graded lattice."""
    ids = numpy.arange(2 ** k)
    return (ids[:, None] & ids) == ids[:, None]


@pytest.mark.parametrize("leq", [
    _random_order(63, 0), _random_order(64, 1), _random_order(65, 2),
    _random_order(130, 3), _boolean_order(7)],
    ids=["63", "64", "65", "130", "B7"])
def test_covers_and_ranks_past_one_word_match_the_reference(leq):
    # the up-sets are packed 64 ids to a word: orders of more than one
    # word, and of sizes on both sides of a word boundary
    lists = leq.tolist()
    covers = posets.covers_of(_up_sets(leq))
    assert covers == _ref_covers_of(lists)
    assert posets.rank_function(covers, posets.linear_extension(leq)) \
        == _ref_rank(lists)


@hs.composite
def wide_orders(draw):
    """A random order on 65 to 144 ids, so that every up-set spans two or
    three words: the closure of a random DAG, maybe with a bottom and a
    top adjoined, or a grid, a lattice; the ids shuffled and up to two
    cells off the diagonal toggled afterwards."""
    rng = random.Random(draw(hs.integers(0, 2 ** 32 - 1)))
    kind = draw(hs.sampled_from(["dag", "bounded", "grid"]))
    if kind == "grid":
        p = draw(hs.integers(4, 11))
        q = draw(hs.integers(-(-65 // (p + 1)) - 1, 144 // (p + 1) - 1))
        i, j = numpy.divmod(numpy.arange((p + 1) * (q + 1)), q + 1)
        leq = (i[:, None] <= i) & (j[:, None] <= j)
    else:
        n = draw(hs.integers(65, 142))
        chance = draw(hs.sampled_from([0.01, 0.04, 0.15]))
        leq = numpy.eye(n, dtype=bool)
        for a in range(n):
            for b in range(a + 1, n):
                leq[a, b] = rng.random() < chance
        if kind == "bounded":
            leq[0] = leq[:, -1] = True
        for k in range(n):
            leq[leq[:, k]] |= leq[k]
    perm = list(range(len(leq)))
    rng.shuffle(perm)
    leq = numpy.ascontiguousarray(leq[numpy.ix_(perm, perm)])
    for _ in range(draw(hs.sampled_from([0, 0, 1, 2]))):
        a, b = rng.sample(range(len(leq)), 2)
        leq[a, b] = not leq[a, b]
    return leq


@settings(max_examples=60, deadline=None)
@given(wide_orders(), hs.sampled_from([1, 5, 64, posets.JOIN_BLOCK_WORDS]),
       hs.randoms(use_true_random=False))
def test_the_reference_oracles_hold_past_one_word(leq, block, rng):
    # every derivation read from the packed up-sets, on orders whose
    # up-sets span several words; the join table a block of rows at a
    # time, with blocks of one row up to all of them
    lists = leq.tolist()
    want = _outcome(_ref_check_partial_order, lists)
    assert _outcome(posets.check_partial_order, leq) == want
    if want is not None:
        return
    packed = _up_sets(leq)
    covers = posets.covers_of(packed)
    assert covers == _ref_covers_of(lists)
    assert posets.rank_function(covers, packed.order) == _ref_rank(lists)
    for a in rng.sample(range(len(leq)), 3):
        row = posets.moebius_row(packed, a)
        assert list(row.items()) == list(_ref_moebius_row(lists, a).items())
    with mock.patch.object(posets, "JOIN_BLOCK_WORDS", block):
        got = _outcome(posets.join_table, packed)
    want = _outcome(_ref_join_table, lists)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert got.tolist() == want


@settings(max_examples=300, deadline=None)
@given(bounded_dags())
def test_the_poset_type_matches_the_reference_loops(leq):
    lists = leq.tolist()
    p = posets.Poset([f"v{i}" for i in range(len(leq))], leq, "dag")
    assert [a for a, row in enumerate(lists) if all(row)] == [p.bottom]
    assert [b for b in range(p.size)
            if all(row[b] for row in lists)] == [p.top]
    covers = _ref_covers_of(lists)
    assert p.covers == covers
    assert p.coatoms() == [a for a, up in enumerate(covers) if p.top in up]
    assert p.order == _ref_linear_extension(lists)
    assert p.rank == _ref_rank(lists)
    for a in range(p.size):
        row = _ref_moebius_row(lists, a)
        assert [p.moebius(a, b) for b in range(p.size)] \
            == [row.get(b, 0) for b in range(p.size)]
        assert p.index_of(f"v{a}") == a
    # meets are the joins of the dual order
    dual = posets.Poset(p.labels, numpy.ascontiguousarray(leq.T), "dual")
    for poset, flip in ((p, False), (dual, True)):
        ref = [list(col) for col in zip(*lists)] if flip else lists
        want = _outcome(_ref_join_table, ref)
        got = _outcome(getattr, poset, "join")
        if isinstance(want, tuple):
            assert got == want
        else:
            assert got.tolist() == want


@pytest.mark.parametrize("build", [
    lambda: constructions.free_lrb(3),
    lambda: constructions.free_lrb_bar(4),
    lambda: constructions.ordered_partitions(4),
    lambda: constructions.q_free_lrb(2, 2, True)],
    ids=["free(3)", "free_bar(4)", "faces(4)", "q_free_bar(2,2)"])
def test_the_support_lattice_is_the_poset_built_afresh(build):
    st = core.derive_support(build())
    p = derangement.from_support_structure(st)
    fresh = posets.Poset(st.labels, st.leq.copy(), "fresh")
    for name in ("labels", "bottom", "top", "covers", "order", "rank"):
        assert getattr(p, name) == getattr(fresh, name), name
    for name in ("leq", "join"):
        assert numpy.array_equal(getattr(p, name), getattr(fresh, name))
    for name in ("order", "masks", "ups", "downs"):
        assert getattr(p.packed, name) == getattr(fresh.packed, name), name
    assert numpy.array_equal(p.packed.words, fresh.packed.words)
    pairs = [(a, b) for a in range(p.size) for b in range(p.size)]
    assert [p.moebius(a, b) for a, b in pairs] \
        == [fresh.moebius(a, b) for a, b in pairs]
    assert derangement.upper_derangements(p) \
        == derangement.upper_derangements(fresh)


@settings(max_examples=200, deadline=None)
@given(hs.integers(1, 7).flatmap(lambda n: hs.tuples(
    hs.just(n), hs.lists(hs.tuples(hs.integers(0, n - 1),
                                   hs.integers(0, n - 1)), max_size=12))))
def test_closure_of_covers_matches_the_depth_first_reference(case):
    n, edges = case
    labels = [f"v{i}" for i in range(n)]
    pairs = [[labels[a], labels[b]] for a, b in edges]
    want = _outcome(_ref_closure, labels, pairs)
    got = _outcome(posets.order_from_covers, labels, pairs)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert got.tolist() == want


def _brute_maximal_chains(p):
    """Every chain from bottom to top, kept when nothing fits between two
    of its consecutive elements."""
    leq = p.leq.tolist()
    n = p.size

    def between(a, b):
        return any(leq[a][z] and leq[z][b] and z not in (a, b)
                   for z in range(n))

    def chains(chain):
        if chain[-1] == p.top:
            yield chain
            return
        for z in range(n):
            if z != chain[-1] and leq[chain[-1]][z]:
                yield from chains(chain + [z])

    return sum(1 for chain in chains([p.bottom])
               if not any(between(a, b) for a, b in zip(chain, chain[1:])))


def test_maximal_chain_count_matches_enumeration():
    for p in selftest.derangement_corpus():
        assert derangement.maximal_chain_count(p) \
            == _brute_maximal_chains(p), p.name


def test_refinement_is_block_containment():
    # the one refinement order, against its definition on the 15 x 15
    # pairs of set partitions of {1..4}
    parts = list(posets.set_partitions((1, 2, 3, 4)))
    assert len(parts) == 15
    leq = posets.refinement_order(parts)
    for i, a in enumerate(parts):
        for j, b in enumerate(parts):
            want = all(any(set(x) <= set(y) for y in b) for x in a)
            assert leq[i, j] == want


@settings(max_examples=100, deadline=None)
@given(hs.lists(hs.frozensets(hs.integers(0, 150), max_size=40),
                max_size=90),
       hs.integers(0, 3))
def test_inclusion_is_the_frozenset_order_across_words(sets, blank):
    # holder masks of more than one word of 64 sets, points past 64,
    # and empty sets
    sets = sets + [frozenset()] * blank
    leq = posets.inclusion_order(sets)
    assert leq.dtype == bool and leq.shape == (len(sets), len(sets))
    assert leq.tolist() == [[a <= b for b in sets] for a in sets]


@hs.composite
def partitions_of_one_set(draw):
    """Up to 90 set partitions of one set of up to 8 points, each a list
    of blocks in a drawn order, each block a list in a drawn order."""
    points = draw(hs.lists(hs.integers(0, 300), unique=True, max_size=8))
    parts = []
    for _ in range(draw(hs.integers(0, 90))):
        tags = draw(hs.lists(hs.integers(0, 3), min_size=len(points),
                             max_size=len(points)))
        blocks = {}
        for x, t in zip(draw(hs.permutations(points)), tags):
            blocks.setdefault(t, []).append(x)
        parts.append(draw(hs.permutations(list(blocks.values()))))
    return parts


@settings(max_examples=100, deadline=None)
@given(partitions_of_one_set())
def test_refinement_is_the_frozenset_order(parts):
    # a <= b when every block of a, as a frozenset, lies inside one of b
    leq = posets.refinement_order(parts)
    assert leq.dtype == bool and leq.shape == (len(parts), len(parts))
    blocks = [[frozenset(block) for block in p] for p in parts]
    assert leq.tolist() == [[all(any(x <= y for y in b) for x in a)
                             for b in blocks] for a in blocks]


def _brute_derangements(leq, top):
    """d([x, top]) for every x by the defining recurrence: the maximal
    chains of [x, top], each listed along the covers, less d([y, top])
    over every y > x."""
    covers = _ref_covers_of(leq)

    def chains(x):
        return [[x]] if x == top else \
            [[x] + rest for y in covers[x] for rest in chains(y)]

    d = {}

    def value(x):
        if x not in d:
            d[x] = len(chains(x)) - sum(
                value(y) for y in range(len(leq)) if leq[x][y] and y != x)
        return d[x]

    return [value(x) for x in range(len(leq))]


@settings(max_examples=300, deadline=None)
@given(bounded_dags())
def test_the_derangement_routes_agree_with_the_brute_recurrence(leq):
    # derangement_number raises unless its three routes agree; the
    # value and the interval values are those of the recurrence
    p = posets.Poset([f"v{i}" for i in range(len(leq))], leq, "dag")
    want = _brute_derangements(leq.tolist(), p.top)
    assert derangement.upper_derangements(p) == want
    assert derangement.derangement_number(p) == want[p.bottom]


def test_oversized_cover_lists_are_refused_before_allocating():
    # a 100,000-element chain given by covers: its order would be a
    # 10 GB bool array, closed in cubic time
    n = 100_000
    labels = [str(i) for i in range(n)]
    covers = [[str(i), str(i + 1)] for i in range(n - 1)]
    for build in (
            lambda: constructions.DistributiveLattice.from_covers(
                labels, covers),
            lambda: derangement.poset_from_json(
                {"elements": labels, "covers": covers})):
        start = time.perf_counter()
        with pytest.raises(SizeGuardError, match="100000 poset elements"):
            build()
        assert time.perf_counter() - start < 0.1
    with pytest.raises(SizeGuardError, match=f"above the cap {LATTICE_CAP}"):
        posets.order_from_covers(labels[:LATTICE_CAP + 1], [])
