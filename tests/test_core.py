"""Axiom checking, support derivation, and chamber identification."""

import json
import numbers
from dataclasses import replace

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from bandwalk import cli, constructions, core, posets, serialize
from bandwalk.errors import (AxiomViolationError, FalsificationError,
                             MalformedInputError, SizeGuardError)


def test_free_band_passes_every_axiom():
    sg = constructions.free_lrb(3)
    rep = core.verify_lrb(sg)
    assert rep.ok and rep.message == ""
    assert rep.assoc_mode == "exhaustive"
    assert rep.witness is None


@pytest.mark.parametrize("build, size", [
    pytest.param(lambda: constructions.free_lrb(5), 326, id="free_lrb"),
    pytest.param(lambda: constructions.ordered_partitions(5), 541,
                 id="ordered_partitions"),
    pytest.param(lambda: constructions.free_lrb(6), 1957, id="free_lrb(6)"),
    pytest.param(lambda: constructions.free_lrb_bar(6), 1237,
                 id="free_lrb_bar(6)"),
    pytest.param(lambda: constructions.distributive_chain_lrb(
        constructions.DistributiveLattice.grid(3, 4)), 768,
                 id="grid(3,4)")])
def test_every_default_table_band_is_swept_exhaustively(build, size):
    # Light's test reads |A|*|S|^2 cells, at most 2.3e7 here for |A| of
    # 5 to 30: the cell count, not |S|^3, decides, so every band the
    # default table cap admits is certified on all |S|^3 triples
    sg = build()
    rep = core.verify_lrb(sg)
    assert rep.ok and rep.assoc_mode == "exhaustive"
    assert sg.size == size
    assert rep.checked_triples == sg.size ** 3


def test_band_past_the_light_cell_cap_is_refused(monkeypatch, tmp_path):
    # the identity and 29 left zeros, z x = z for every x: no product is
    # another element, so every id is in A, the identity aside, and
    # Light's test would read 29 * 30^2 cells
    sg = core.Semigroup("left_zero", ["e"] + [f"z{i}" for i in range(29)],
                        0, table=[list(range(30))]
                        + [[z] * 30 for z in range(1, 30)])
    assert len(core._light_generators(sg.tabulate(), [])) == 30
    assert core._light_generators(sg.tabulate(), [], 0) == list(range(1, 30))
    monkeypatch.setattr(core, "LIGHT_CELLS_CAP", 29 * 30 ** 2 - 1)
    with pytest.raises(SizeGuardError, match=f"= {29 * 30 ** 2} cells"):
        core.verify_lrb(sg)
    spec = tmp_path / "left_zero.json"
    text = serialize.dump_json({"type": "table", **sg.to_json_dict()})
    assert json.loads(text)["table"] == sg.tabulate().tolist()
    spec.write_text(text, encoding="utf-8")
    assert cli.main(["build", "--spec", str(spec)]) == 4
    monkeypatch.setattr(core, "LIGHT_CELLS_CAP", 29 * 30 ** 2)
    assert core.verify_lrb(sg).ok


def test_light_set_leaves_out_the_identity():
    # the identity law, checked first, certifies every triple with the
    # identity in the middle, so A is the 6 letters of free_lrb(6) alone
    sg = constructions.free_lrb(6)
    gens = core._light_generators(sg.tabulate(), sg.generators, sg.identity)
    assert len(gens) == 6 and sg.identity not in gens
    assert sorted(sg.keys[g] for g in gens) == list("123456")
    assert len(core._light_generators(sg.tabulate(), sg.generators)) == 7


def _assoc_witnesses(t):
    t = t.tolist()
    n = len(t)
    return {(x, y, z) for x in range(n) for y in range(n) for z in range(n)
            if t[t[x][y]][z] != t[x][t[y][z]]}


@settings(max_examples=100, deadline=None)
@given(hs.integers(0, 15), hs.integers(0, 15), hs.integers(0, 15))
def test_associativity_sweep_finds_a_real_witness(x, y, value):
    # one entry of the free_lrb(3) table overwritten
    t = constructions.free_lrb(3).tabulate().copy()
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
    t = constructions.free_lrb(3).tabulate().copy()
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


def _cellwise_table(table, n):
    """The cell-by-cell checks of an explicit table, the reference for
    the array checks: the first bad row or cell in row-major order."""
    if len(table) != n:
        raise MalformedInputError(f"table has {len(table)} rows for {n} ids")
    for i, row in enumerate(table):
        if len(row) != n:
            raise MalformedInputError(f"table row {i} has {len(row)} cells")
        for j, v in enumerate(row):
            if isinstance(v, bool) or not isinstance(v, numbers.Integral) \
                    or not 0 <= v < n:
                raise MalformedInputError(
                    f"table entry ({i}, {j}) is {v!r}, not an element id")
    return numpy.array(table, dtype=numpy.int32)


def _table_outcome(check, table, n):
    try:
        return check(table, n).tolist()
    except MalformedInputError as exc:
        return str(exc)


_BAD_TABLES = [
    ("ragged", [[0, 1], [1]]),
    ("short first row", [[0], [1, 1]]),
    ("long row", [[0, 1, 1], [1, 1]]),
    ("rows", [[0, 1]]),
    ("bool", [[0, True], [True, True]]),
    ("numpy bool", [[0, numpy.True_], [1, 1]]),
    ("bool array", numpy.ones((2, 2), dtype=bool)),
    ("float", [[0, 1.0], [1, 1]]),
    ("float array", numpy.zeros((2, 2))),
    ("string", [[0, "1"], [1, 1]]),
    ("none", [[0, None], [1, 1]]),
    ("negative", [[0, 1], [-1, 1]]),
    ("out of range", [[0, 2], [1, 1]]),
    ("past int64", [[0, 2 ** 70], [1, 1]]),
    ("out of range array", numpy.array([[0, 1], [1, 9]])),
    ("bad cell before a short row", [[0, 5], [1]]),
    ("short row before a bad cell", [[0], [1, 7]]),
    ("numpy ints", [[numpy.int64(0), numpy.int32(1)], [1, 1]]),
    ("good", [[0, 1], [1, 1]]),
]


@pytest.mark.parametrize("table", [t for _, t in _BAD_TABLES],
                         ids=[name for name, _ in _BAD_TABLES])
def test_table_checks_name_the_cell_the_cellwise_checks_name(table):
    assert _table_outcome(core._table_array, table, 2) \
        == _table_outcome(_cellwise_table, table, 2)


_cell = hs.one_of(hs.integers(-2, 5), hs.booleans(),
                  hs.sampled_from([1.0, "0", None]))


@settings(max_examples=200, deadline=None)
@given(hs.integers(1, 4).flatmap(lambda n: hs.tuples(hs.just(n), hs.lists(
    hs.lists(hs.one_of(hs.integers(0, n - 1), _cell), min_size=n - 1,
             max_size=n + 1), min_size=n, max_size=n))))
def test_random_tables_are_refused_as_the_cellwise_checks_refuse(case):
    n, table = case
    assert _table_outcome(core._table_array, table, n) \
        == _table_outcome(_cellwise_table, table, n)


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
    t = band.tabulate().tolist()
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


# The law expressions on the int32 table, as they read before the laws
# moved to the narrow copy; on a band of more than 256 elements that
# copy is uint16, and the witnesses must not move.


def _int32_laws(t, e):
    n = len(t)
    ids = numpy.arange(n)
    bad = numpy.flatnonzero((t[e] != ids) | (t[:, e] != ids))
    if bad.size:
        return "identity law fails", (e, int(bad[0]))
    bad = numpy.flatnonzero(t.diagonal() != ids)
    if bad.size:
        return "idempotence fails", (int(bad[0]),)
    bad = numpy.argwhere(t[t, ids[:, None]] != t)
    if len(bad):
        return "deletion law xyx = xy fails", tuple(map(int, bad[0]))
    return None


def _int32_light(t, gens):
    for a in gens:
        bad = t[t[:, a]] != t[:, t[a]]
        if bad.any():
            x, y = numpy.argwhere(bad)[0]
            return (int(x), a, int(y))
    return None


def _int32_support(sg, t):
    n = len(t)
    ids = numpy.arange(n)
    supp = numpy.full(n, -1)
    reps = []
    for r in range(n):
        if supp[r] < 0:
            fibre = (supp < 0) & (t[:, r] == ids) & (t[r] == r)
            fibre[r] = True
            supp[fibre] = len(reps)
            reps.append(r)
    members = [numpy.flatnonzero(supp == c).tolist()
               for c in range(len(reps))]
    reps = numpy.array(reps)
    leq = numpy.ascontiguousarray(
        (t[numpy.ix_(reps, reps)] == reps[:, None]).T)
    posets.check_partial_order(leq)
    bad = numpy.argwhere((t == ids[:, None])
                         != leq[supp[None, :], supp[:, None]])
    if len(bad):
        raise AxiomViolationError("absorption",
                                  witness=tuple(map(int, bad[0])))
    structure = core.SupportStructure(sg, leq, supp.tolist(), members)
    bad = numpy.argwhere(
        supp[t] != structure.join[supp[:, None], supp[None, :]])
    if len(bad):
        raise AxiomViolationError("join", witness=tuple(map(int, bad[0])))
    if supp[sg.identity] != structure.bottom:
        raise AxiomViolationError("identity support")
    return structure


_FREE5 = constructions.free_lrb(5)


@settings(max_examples=60, deadline=None)
@given(hs.data())
def test_uint16_laws_match_the_int32_expressions_on_a_corrupted_table(data):
    band = _FREE5
    assert core._narrow(band.tabulate(), band.size).dtype == numpy.uint16
    ids = hs.integers(0, band.size - 1)
    x, y, value = data.draw(ids), data.draw(ids), data.draw(ids)
    t = band.tabulate().copy()
    t[x, y] = value

    def handle():
        return core.Semigroup(band.label, band.keys, band.identity, table=t,
                              generators=band.generators)

    gens = core._light_generators(t, band.generators, band.identity)
    light = _int32_light(t, gens)
    assert core._assoc_exhaustive(t, band.generators, band.identity) \
        == light
    rep = core.verify_lrb(handle())
    want = _int32_laws(t, band.identity)
    if want is None and light is not None:
        want = "associativity fails", light
    if want is None:
        assert rep.ok
    else:
        assert (rep.message, rep.witness) == want

    want = _outcome(lambda: _int32_support(handle(), t))
    got = _outcome(lambda: core.derive_support(handle(), verify=False))
    if isinstance(want, tuple):
        assert got == want
    else:
        assert not isinstance(got, tuple)
        assert (got.supp, got.members, got.leq.tolist()) \
            == (want.supp, want.members, want.leq.tolist())


def test_support_map_is_a_join_homomorphism():
    sg = constructions.free_lrb(3)
    st = core.derive_support(sg)
    table = sg.tabulate().tolist()
    for a in range(sg.size):
        for b in range(sg.size):
            ab = table[a][b]
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
    table = sg.tabulate().tolist()
    for c in range(sg.size):
        absorbing = all(table[c][x] == c for x in range(sg.size))
        assert absorbing == (c in chambers)
        assert (st.supp[c] == st.top) == (c in chambers)


def test_expected_lattice_is_matched_on_the_free_band():
    sg = constructions.free_lrb(3)
    st = core.derive_support(sg)
    labels = core.check_expected_lattice(st)
    assert labels is not None
    assert len(labels) == 8


def _relabel(exp, xs, label):
    """The expected lattice `exp` with the elements xs labelled `label`."""
    if callable(exp.label_of):
        # the labelling as a function of element ids
        old = exp.label_of
        return replace(exp, label_of=lambda x: label if x in xs else old(x))
    label_of = numpy.array(exp.label_of)
    label_of[list(xs)] = list(exp.labels).index(label)
    return replace(exp, label_of=label_of)


def _flip(exp, a, b):
    """The expected lattice `exp` with the order at labels (a, b) flipped."""
    if callable(exp.leq):
        # the order as a predicate on labels
        old = exp.leq
        return replace(exp, leq=lambda x, y: old(x, y) != ((x, y) == (a, b)))
    leq = numpy.array(exp.leq)
    i, j = list(exp.labels).index(a), list(exp.labels).index(b)
    leq[i, j] = not leq[i, j]
    return replace(exp, leq=leq)


@pytest.mark.parametrize("build, corrupt, message, witness", [
    # the second member of the first flat with two takes the bottom label
    (constructions.free_lrb, "split",
     "free_lrb(3): one derived flat carries two expected labels "
     "'{1,2}' and '{}'", 4),
    (constructions.ordered_partitions, "split",
     "ordered_partitions(3): one derived flat carries two expected labels "
     "'1/2/3' and '1,2,3'", 0),
    # every member of the top flat takes the bottom label
    (constructions.free_lrb, "merge",
     "free_lrb(3): derived flats ['{1,2}', '{1,3}', '{1}', '{2,3}', '{2}', "
     "'{3}', '{}', '{}'] differ from expected ['{1,2,3}', '{1,2}', "
     "'{1,3}', '{1}', '{2,3}', '{2}', '{3}', '{}']", None),
    (constructions.ordered_partitions, "merge",
     "ordered_partitions(3): derived flats ['1,2,3', '1,2,3', '1,2/3', "
     "'1,3/2', '1/2,3'] differ from expected ['1,2,3', '1,2/3', '1,3/2', "
     "'1/2,3', '1/2/3']", None),
    # the first two atoms become comparable
    (constructions.free_lrb, "flip",
     "free_lrb(3): derived order disagrees with the expected order at "
     "('{1}', '{2}')", (1, 2)),
    (constructions.ordered_partitions, "flip",
     "ordered_partitions(3): derived order disagrees with the expected "
     "order at ('1/2,3', '1,2/3')", (1, 2)),
], ids=["free-split", "faces-split", "free-merge", "faces-merge",
        "free-flip", "faces-flip"])
def test_a_corrupted_expected_lattice_is_falsified(build, corrupt, message,
                                                   witness):
    sg = build(3)
    st = core.derive_support(sg)
    labels = core.check_expected_lattice(st)
    exp = sg.expected
    if corrupt == "split":
        c = next(c for c in range(st.n_flats) if len(st.members[c]) > 1)
        sg.expected = _relabel(exp, {st.members[c][1]}, labels[st.bottom])
    elif corrupt == "merge":
        sg.expected = _relabel(exp, set(st.members[st.top]),
                               labels[st.bottom])
    else:
        sg.expected = _flip(exp, labels[1], labels[2])
    with pytest.raises(FalsificationError) as info:
        core.check_expected_lattice(st)
    assert str(info.value) == message
    assert info.value.witness == witness


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
