"""Axiom checking, support derivation, and chamber identification."""

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from bandwalk import constructions, core, posets
from bandwalk.errors import (AxiomViolationError, MalformedInputError,
                             SizeGuardError)


def test_free_band_passes_every_axiom():
    sg = constructions.free_lrb(3)
    rep = core.verify_lrb(sg)
    assert rep.ok and rep.message == ""
    assert rep.assoc_mode == "exhaustive"
    assert rep.witness is None


@pytest.mark.parametrize("build", [constructions.free_lrb,
                                   constructions.ordered_partitions])
def test_every_default_table_band_is_swept_exhaustively(build):
    # 326 and 541 elements: the triple cap, not |S|, decides
    sg = build(5)
    rep = core.verify_lrb(sg)
    assert rep.ok and rep.assoc_mode == "exhaustive"
    assert sg.size in (326, 541)
    assert rep.checked_triples == sg.size ** 3


def _assoc_witnesses(t):
    t = t.tolist()
    n = len(t)
    return {(x, y, z) for x in range(n) for y in range(n) for z in range(n)
            if t[t[x][y]][z] != t[x][t[y][z]]}


@settings(max_examples=100, deadline=None)
@given(hs.integers(0, 15), hs.integers(0, 15), hs.integers(0, 15))
def test_associativity_sweep_finds_a_real_witness(x, y, value):
    # one entry of the free_lrb(3) table overwritten
    t = constructions.free_lrb(3).table.copy()
    t[x, y] = value
    bad = _assoc_witnesses(t)
    got = core._assoc_exhaustive(t)
    assert (got is None) == (not bad)
    assert got is None or got in bad


@settings(max_examples=300, deadline=None)
@given(hs.data())
def test_light_test_agrees_with_every_triple_on_random_magmas(data):
    n = data.draw(hs.integers(1, 5))
    ids = hs.integers(0, n - 1)
    t = numpy.array(data.draw(hs.lists(hs.lists(ids, min_size=n, max_size=n),
                                       min_size=n, max_size=n)),
                    dtype=numpy.int32)
    hint = data.draw(hs.lists(ids, max_size=4))
    bad = _assoc_witnesses(t)
    got = core._assoc_exhaustive(t, hint)
    assert (got is None) == (not bad)
    assert got is None or got in bad


@pytest.mark.parametrize("hint", [[], [0], [1]])
def test_generators_that_do_not_reach_the_band_still_decide(hint):
    # the identity and the letter 1 each reach only themselves
    t = constructions.free_lrb(3).table.copy()
    assert core._assoc_exhaustive(t, hint) is None
    # 1 * (2,3) = 1,3,2 fails only on triples with middle 2 or 2,3
    t[1, 7] = 11
    bad = _assoc_witnesses(t)
    assert {a for _, a, _ in bad} == {2, 7}
    assert core._assoc_exhaustive(t, hint) in bad


def test_idempotence_violation_is_reported_with_witness():
    # b*b = a breaks x^2 = x
    sg = core.Semigroup("broken", ["e", "a", "b"], 0,
                        table=[[0, 1, 2], [1, 1, 2], [2, 2, 1]])
    rep = core.verify_lrb(sg)
    assert not rep.ok
    assert rep.message == "idempotence fails"
    assert rep.witness is not None


def test_deletion_violation_is_reported():
    # the opposite of a free band is right regular: xyx = yx, not xy
    sg = constructions.free_lrb(2)
    t = sg.tabulate()
    opp = [[t[j][i] for j in range(sg.size)] for i in range(sg.size)]
    rep = core.verify_lrb(core.Semigroup("opp", list(sg.keys), sg.identity,
                                         table=opp))
    assert not rep.ok
    assert rep.message == "deletion law xyx = xy fails"


def test_missing_identity_is_reported():
    sg = constructions.free_lrb(2)
    t = sg.tabulate()
    rep = core.verify_lrb(core.Semigroup("shifted", list(sg.keys), 1,
                                         table=t))
    assert not rep.ok
    assert rep.message == "identity law fails"


def test_semigroup_handle_validation():
    with pytest.raises(MalformedInputError):
        core.Semigroup("dup", ["a", "a"], 0, table=[[0, 1], [1, 1]])
    with pytest.raises(MalformedInputError):
        core.Semigroup("noop", ["a"], 0)
    with pytest.raises(MalformedInputError):
        core.Semigroup.from_json_dict({"elements": ["a"], "identity": 0,
                                       "table": [[3]]})
    # a short row, and a bool read as an id, name the first bad cell
    with pytest.raises(MalformedInputError, match="row 1 "):
        core.Semigroup("s", ["e", "a"], 0, table=[[0, 1], [1]])
    with pytest.raises(MalformedInputError, match=r"\(0, 1\) is True"):
        core.Semigroup.from_json_dict({"elements": ["e", "a"], "identity": 0,
                                       "table": [[0, True], [True, True]]})


def test_json_round_trip_preserves_the_table():
    sg = constructions.free_lrb_bar(3)
    back = core.Semigroup.from_json_dict(sg.to_json_dict())
    assert back.keys == sg.keys
    assert numpy.array_equal(back.table, sg.tabulate())
    assert core.verify_lrb(back).ok


# Row-major reference loops for the pointwise laws and the support
# derivation, on a table of lists; the library runs them as array
# expressions and must agree law for law and witness for witness.


def _reference_laws(t, e):
    n = len(t)
    for x in range(n):
        if t[e][x] != x or t[x][e] != x:
            return "identity law fails", (e, x)
    for x in range(n):
        if t[x][x] != x:
            return "idempotence fails", (x,)
    for x in range(n):
        for y in range(n):
            xy = t[x][y]
            if t[xy][x] != xy:
                return "deletion law xyx = xy fails", (x, y)
    return None


def _reference_support(sg, t):
    n = len(t)
    reps, members, cls_of = [], [], [-1] * n
    for x in range(n):
        for c, r in enumerate(reps):
            if t[x][r] == x and t[r][x] == r:
                cls_of[x] = c
                members[c].append(x)
                break
        else:
            cls_of[x] = len(reps)
            reps.append(x)
            members.append([x])
    order = sorted(range(len(reps)), key=lambda c: min(members[c]))
    relabel = {old: new for new, old in enumerate(order)}
    reps = [reps[c] for c in order]
    members = [sorted(members[c]) for c in order]
    supp = [relabel[cls_of[x]] for x in range(n)]
    f = len(reps)
    leq = numpy.array([[t[reps[b]][reps[a]] == reps[b] for b in range(f)]
                       for a in range(f)], dtype=bool)
    posets.check_partial_order(leq)
    for x in range(n):
        for y in range(n):
            if (t[x][y] == x) != leq[supp[y]][supp[x]]:
                raise AxiomViolationError("absorption", witness=(x, y))
    structure = core.SupportStructure(sg, leq, supp, members)
    for x in range(n):
        for y in range(n):
            if supp[t[x][y]] != structure.join[supp[x]][supp[y]]:
                raise AxiomViolationError("join", witness=(x, y))
    if supp[sg.identity] != structure.bottom:
        raise AxiomViolationError("identity support")
    return structure


def _outcome(fn):
    try:
        return fn()
    except AxiomViolationError as exc:
        return type(exc), exc.witness


_BANDS = {name: build(3) for name, build in
          (("free", constructions.free_lrb),
           ("faces", constructions.ordered_partitions))}


@settings(max_examples=300, deadline=None)
@given(hs.sampled_from(sorted(_BANDS)), hs.data())
def test_vector_laws_match_the_reference_loops_on_a_corrupted_table(name,
                                                                    data):
    band = _BANDS[name]
    ids = hs.integers(0, band.size - 1)
    x, y, value = data.draw(ids), data.draw(ids), data.draw(ids)
    t = band.table.tolist()
    t[x][y] = value

    def handle():
        return core.Semigroup(band.label, band.keys, band.identity, table=t,
                              generators=band.generators)

    want = _reference_laws(t, band.identity)
    rep = core.verify_lrb(handle())
    if want is None:
        assert rep.message in ("", "associativity fails")
    else:
        assert not rep.ok and (rep.message, rep.witness) == want

    sg = handle()
    want = _outcome(lambda: _reference_support(sg, t))
    got = _outcome(lambda: core.derive_support(handle(), verify=False))
    if isinstance(want, tuple):
        assert got == want
    else:
        assert not isinstance(got, tuple)
        assert (got.supp, got.leq.tolist()) == (want.supp, want.leq.tolist())


def test_support_map_is_a_join_homomorphism():
    sg = constructions.free_lrb(3)
    st = core.derive_support(sg)
    for a in range(sg.size):
        for b in range(sg.size):
            ab = sg.product(a, b)
            assert st.supp[ab] == st.join[st.supp[a]][st.supp[b]]


def test_support_fibre_of_the_bottom_is_the_identity():
    sg = constructions.ordered_partitions(3)
    st = core.derive_support(sg)
    fibre = [x for x in range(sg.size) if st.supp[x] == st.bottom]
    assert fibre == [sg.identity]


def test_chambers_absorb_every_right_factor():
    # c is a chamber iff cx = c for every x, iff supp c is the top flat
    sg = constructions.free_lrb_bar(3)
    st = core.derive_support(sg)
    chambers = set(st.chambers)
    for c in range(sg.size):
        absorbing = all(sg.product(c, x) == c for x in range(sg.size))
        assert absorbing == (c in chambers)
        assert (st.supp[c] == st.top) == (c in chambers)


def test_expected_lattice_is_matched_on_the_free_band():
    sg = constructions.free_lrb(3)
    st = core.derive_support(sg)
    labels = core.check_expected_lattice(st)
    assert labels is not None
    assert len(labels) == 8


def test_moebius_values_on_the_boolean_support_lattice():
    # mu(bottom, X) = (-1)^|X| on the cube of subsets
    sg = constructions.free_lrb(3)
    st = core.derive_support(sg)
    labels = core.check_expected_lattice(st)
    for x in range(st.n_flats):
        size = labels[x].count(",") + 1 if labels[x] != "{}" else 0
        assert st.moebius(st.bottom, x) == (-1) ** size
    total = sum(st.moebius(st.bottom, x) for x in range(st.n_flats))
    assert total == 0


def test_coatoms_of_the_free_band_lattice():
    sg = constructions.free_lrb(3)
    st = core.derive_support(sg)
    coatoms = st.coatoms()
    assert len(coatoms) == 3
    for h in coatoms:
        assert st.leq[h][st.top] and h != st.top


def test_element_cap_guard_fires():
    from dataclasses import replace
    from bandwalk.guards import DEFAULT_GUARDS
    small = replace(DEFAULT_GUARDS, elements_cap=5)
    with pytest.raises(SizeGuardError):
        constructions.free_lrb(3, guards=small)
