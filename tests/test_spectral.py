"""Transition matrices, eigenvalue bookkeeping, and certificates.

The Lagrange projectors of a Krylov sequence are kept here as a
reference oracle: the library builds every idempotent family in the
support pass or in closed form and certifies it with
`spectral.certify_family`; these tests check that the families it
certifies are the projectors.  The deflation of a holding probability
is an oracle too: the library reaches it as the walk of signed weights.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from bandwalk import algebra, constructions, core, descent, selftest, spectral
from bandwalk.errors import (FalsificationError, MalformedInputError,
                             PreconditionError)
from test_algebra import (alg_power, alg_scale, alg_sum, flat_lambdas,
                          power_formula_by_words, residue_members,
                          weight_element)
from test_linalg import eigenspace_dimensions


F = Fraction


def lagrange_projectors(vs, nodes):
    """Per node r, (numerator, denominator) of the Lagrange projector,
    the product over s != r of (a - s)/(r - s), a^j read off vs[j]."""
    return [(spectral.apply_roots(vs, [s for s in nodes if s != r]),
             math.prod(r - s for s in nodes if s != r)) for r in nodes]


def remove_holding_probability(rows, alpha):
    """The lazy-part deflation (P - alpha I) / (1 - alpha) of dense rows."""
    alpha = Fraction(alpha)
    if alpha == 1:
        raise PreconditionError("cannot deflate a holding probability of 1")
    scale = 1 / (1 - alpha)
    return [[(v - (alpha if i == j else 0)) * scale
             for j, v in enumerate(row)]
            for i, row in enumerate(rows)]


def _f3():
    sg = constructions.free_lrb(3)
    return sg, core.derive_support(sg)


def test_weight_vector_validation():
    sg, _ = _f3()
    with pytest.raises(PreconditionError):
        spectral.WeightVector(sg, {sg.generators[0]: F(1, 2)})
    with pytest.raises(PreconditionError):
        spectral.WeightVector(sg, {sg.generators[0]: F(3, 2),
                                   sg.generators[1]: F(-1, 2)})
    with pytest.raises(MalformedInputError):
        spectral.WeightVector(sg, {10 ** 6: F(1)})
    with pytest.raises(MalformedInputError):
        spectral.WeightVector.from_keys(sg, {"zzz": "1/1"})
    w = spectral.WeightVector(sg, {sg.generators[0]: F(1, 2)},
                              require_probability=False)
    assert not w.is_probability and w.total == F(1, 2)


def test_uniform_and_seeded_weight_factories():
    sg, _ = _f3()
    u = spectral.uniform_on_generators(sg)
    assert u.is_probability
    assert u.support_ids() == sorted(sg.generators)
    s1 = spectral.seeded_generator_weights(sg, 5)
    s2 = spectral.seeded_generator_weights(sg, 5)
    assert s1.coeffs == s2.coeffs
    assert s1.is_probability


def test_transition_matrix_rows_are_stochastic():
    sg, st = _f3()
    P = spectral.transition_matrix(st, spectral.uniform_on_generators(sg))
    assert P.size == 6
    assert [sum(r, F(0)) for r in P.rows] == [F(1)] * 6


def _records_by_subset_label(sg, st, spec):
    pretty = core.check_expected_lattice(st)
    return {pretty[r.flat]: r for r in spec.records}


def test_uniform_free_band_spectrum():
    # lambda_X = |X| / 3 with multiplicities 1, 0, 1, 2 down the ranks
    sg, st = _f3()
    spec = spectral.spectrum(st, spectral.uniform_on_generators(sg))
    assert spec.n_chambers == 6
    assert spec.eigenvalues() == {F(1): 1, F(1, 3): 3, F(0): 2}
    by_label = _records_by_subset_label(sg, st, spec)
    assert by_label["{1,2,3}"].multiplicity == 1
    assert by_label["{1,2}"].multiplicity == 0
    assert by_label["{1}"].multiplicity == 1
    assert by_label["{}"].multiplicity == 2
    assert sum(r.multiplicity for r in spec.records) == 6


def test_chambers_above_counts():
    sg, st = _f3()
    spec = spectral.spectrum(st, spectral.uniform_on_generators(sg))
    by_label = _records_by_subset_label(sg, st, spec)
    assert by_label["{}"].chambers_above == 6
    assert by_label["{1}"].chambers_above == 2
    assert by_label["{1,2,3}"].chambers_above == 1


def test_diagonalizability_certificate_passes():
    sg, st = _f3()
    w = spectral.uniform_on_generators(sg)
    P = spectral.transition_matrix(st, w)
    cert = spectral.verify_diagonalizable(P, spectral.spectrum(st, w))
    assert cert.ok
    assert cert.total_observed == cert.total_expected == 6
    assert all(expected == observed for _, expected, observed in cert.entries)


def test_certificate_rejects_a_mismatched_spectrum():
    # eigenvalue data of one walk against the matrix of another
    sg, st = _f3()
    uni = spectral.uniform_on_generators(sg)
    skew = spectral.WeightVector(sg, {sg.generators[0]: F(1, 2),
                                      sg.generators[1]: F(1, 3),
                                      sg.generators[2]: F(1, 6)})
    P = spectral.transition_matrix(st, skew)
    spec = spectral.spectrum(st, uni)
    with pytest.raises(FalsificationError):
        spectral.verify_diagonalizable(P, spec, strict=True)
    cert = spectral.verify_diagonalizable(P, spec, strict=False)
    assert not cert.ok


def test_generic_weights_are_detected():
    sg, st = _f3()
    k = len(sg.generators)
    den = 2 ** k - 1
    w = spectral.WeightVector(
        sg, {g: F(2 ** i, den) for i, g in enumerate(sg.generators)})
    spec = spectral.spectrum(st, w)
    assert spec.is_generic
    assert len(spec.eigenvalues()) == len(
        [r for r in spec.records if r.multiplicity])


def test_remove_holding_probability():
    sg, st = _f3()
    P = spectral.transition_matrix(st, spectral.uniform_on_generators(sg))
    Q = remove_holding_probability(P.rows, F(1, 3))
    assert [sum(r, F(0)) for r in Q] == [F(1)] * 6
    assert all(Q[i][i] == 0 for i in range(6))
    with pytest.raises(PreconditionError):
        remove_holding_probability(P.rows, F(1))


def test_matrix_permutation_match():
    sg, st = _f3()
    P = spectral.transition_matrix(st, spectral.uniform_on_generators(sg))
    perm = list(reversed(range(P.size)))
    shuffled = [[P.rows[i][j] for j in perm] for i in perm]
    assert spectral.matrix_permutation_match(P.rows, shuffled)
    skew = spectral.seeded_generator_weights(sg, 1)
    R = spectral.transition_matrix(st, skew)
    assert not spectral.matrix_permutation_match(P.rows, R.rows)


def test_character_sums_weights_below_a_flat():
    sg, st = _f3()
    w = spectral.seeded_generator_weights(sg, 2)
    nodes = spectral.flat_nodes(st, w)
    assert len(nodes) == st.n_flats
    for flat in range(st.n_flats):
        manual = sum(v for x, v in w.items() if st.leq[st.supp[x]][flat])
        assert type(nodes[flat]) is int
        assert F(nodes[flat], w.den) == manual


def test_certificate_failure_names_its_witness():
    sg, st = _f3()
    uni = spectral.uniform_on_generators(sg)
    skew = spectral.seeded_generator_weights(sg, 1)
    P = spectral.transition_matrix(st, skew)
    with pytest.raises(FalsificationError) as info:
        spectral.verify_diagonalizable(P, spectral.spectrum(st, uni))
    assert info.value.witness in sg.keys
    cert = spectral.verify_diagonalizable(P, spectral.spectrum(st, uni),
                                          strict=False)
    assert cert.total_observed == 0
    assert all(o is None for _, _, o in cert.entries)


def test_krylov_helpers_on_a_small_polynomial():
    # a = 2 x on a two-cell "row" that sends 0 to 1 and 1 to 1
    vs = spectral.krylov_sequence([([1, 1], 2)], 0, 2, 3)
    assert vs == [[1, 0], [0, 2], [0, 4], [0, 8]]
    # (x - 1)(x - 2)(x + 3) = x^3 - 7x + 6 applied: 6 v_0 - 7 v_1 + v_3
    assert spectral.apply_roots(vs, [1, 2, -3]) == [6, -6]
    assert spectral.apply_roots(vs, [0, 2]) == [0, 0]
    (num0, den0), (num2, den2) = lagrange_projectors(vs, [0, 2])
    assert (num0, den0) == ([-2, 2], -2) and (num2, den2) == ([0, 2], 2)


# ------------------------------------------- random bands and weights


def _small_bands():
    return [(sg, st) for _, sg, st, _ in selftest.corpus()
            if sg.size <= 80 and len(st.chambers) > 1]


@hs.composite
def _walks(draw):
    """A corpus band with |S| <= 80 and positive rational weights on an
    arbitrary set of its elements, the identity allowed."""
    sg, st = draw(hs.sampled_from(_small_bands()))
    ids = draw(hs.lists(hs.integers(0, sg.size - 1), min_size=1,
                        max_size=6, unique=True))
    nums = draw(hs.lists(hs.integers(1, 40), min_size=len(ids),
                         max_size=len(ids)))
    total = sum(nums)
    return sg, st, spectral.WeightVector(
        sg, {i: F(a, total) for i, a in zip(ids, nums)})


@settings(max_examples=60, deadline=None)
@given(_walks())
def test_krylov_certificate_matches_the_nullity_oracle(walk):
    sg, st, w = walk
    P = spectral.transition_matrix(st, w)
    spec = spectral.spectrum(st, w)
    cert = spectral.verify_diagonalizable(P, spec)
    lams = [l for l, _, _ in cert.entries]
    assert [o for _, _, o in cert.entries] == eigenspace_dimensions(P, lams)
    assert cert.total_observed == P.size

    # each distinct lambda is a root of the minimal polynomial of w
    for drop in lams:
        rest = [l for l in lams if l != drop]
        assert spectral.annihilated(st, w, rest)[2] is not None


@settings(max_examples=60, deadline=None)
@given(_walks(), hs.data())
def test_krylov_certificate_rejects_a_corrupted_table_cell(walk, data):
    sg, st, w = walk
    P = spectral.transition_matrix(st, w)
    spec = spectral.spectrum(st, w)
    # x times the identity is x; send it to an element z fixing another
    # number of chambers, which moves the trace of P (or, when w is the
    # identity alone, leaves w - 1 nonzero)
    x = data.draw(hs.sampled_from(w.support_ids()))
    fixed = [spec.records[f].chambers_above for f in st.supp]
    z = next(z for z in range(sg.size) if fixed[z] != fixed[x])
    table = sg.table
    corrupted = table.copy()
    corrupted[x, sg.identity] = z
    sg.table = corrupted
    try:
        cert = spectral.verify_diagonalizable(P, spec, strict=False)
    finally:
        sg.table = table
    assert not cert.ok


@settings(max_examples=40, deadline=None)
@given(_walks())
def test_lagrange_members_equal_the_reduced_word_members(walk):
    sg, st, w = walk
    fam = algebra.primitive_idempotents(st, w, restrict=True)
    if not fam.is_generic:
        return
    dfs = residue_members(st, w, fam.flat_ids, flat_lambdas(st, w))
    assert fam.members == dfs


@settings(max_examples=60, deadline=None)
@given(_walks(), hs.data())
def test_the_support_pass_sums_the_reduced_words(walk, data):
    sg, st, w = walk
    if sg.generators and data.draw(hs.booleans()):
        # equal weights on some generators tie the lambda of the flats
        # that hold the same number of them
        w = spectral.uniform_on(sg, data.draw(hs.lists(
            hs.sampled_from(sg.generators), min_size=1, unique=True)))
    nodes = spectral.flat_nodes(st, w)
    feas = algebra.feasible_flats(st, w)
    dfs = residue_members(st, w, feas, flat_lambdas(st, w))
    assert {x: _fractions(*algebra.residue_idempotent(st, w, x, nodes))
            for x in feas} == dfs
    fam = algebra.primitive_idempotents(st, w, restrict=True)
    assert fam.members == dfs
    elem = weight_element(w)
    for m, power in enumerate(algebra.power_formula(st, w, 6)):
        by_words = power_formula_by_words(st, w, m)
        assert power == alg_scale(by_words, w.den ** m)
        assert by_words == alg_power(sg, elem, m)


def _fractions(den, e):
    return {a: F(c, den) for a, c in e.items()}


def _outcome(fn):
    """fn(), or FalsificationError if it raises one."""
    try:
        return fn()
    except FalsificationError:
        return FalsificationError


@settings(max_examples=40, deadline=None)
@given(hs.data())
def test_signed_weights_through_the_integer_pass(data):
    # signed weights can tie the lambda of two flats on a chain, and
    # make the product Q of the residue denominators negative
    sg, st = data.draw(hs.sampled_from(_small_bands()))
    ids = data.draw(hs.lists(hs.integers(0, sg.size - 1), min_size=1,
                             max_size=5, unique=True))
    nums = data.draw(hs.lists(hs.integers(-40, 40).filter(bool),
                              min_size=len(ids), max_size=len(ids)))
    den = data.draw(hs.integers(1, 12))
    w = spectral.WeightVector(sg, {i: F(a, den) for i, a in zip(ids, nums)},
                              require_probability=False)
    nodes = spectral.flat_nodes(st, w)
    lam = flat_lambdas(st, w)
    for x in algebra.feasible_flats(st, w):
        got = _outcome(lambda: algebra.residue_idempotent(st, w, x, nodes))
        if got is not FalsificationError:
            assert got[0] > 0
            got = _fractions(*got)
        assert got == _outcome(
            lambda: residue_members(st, w, [x], lam)[x])
    elem = weight_element(w)
    for m, power in enumerate(algebra.power_formula(st, w, 4)):
        assert power == alg_scale(alg_power(sg, elem, m), w.den ** m)


@settings(max_examples=25, deadline=None)
@given(_walks(), hs.data())
def test_certified_families_pass_the_pairwise_reference(walk, data):
    # what certify_family proves by its lemma, checked pair by pair:
    # e_k e_l = [k = l] e_k and sum lambda_k e_k = w, ties included
    sg, st, w = walk
    if sg.generators and data.draw(hs.booleans()):
        w = spectral.uniform_on(sg, data.draw(hs.lists(
            hs.sampled_from(sg.generators), min_size=1, unique=True)))
    fam = algebra.primitive_idempotents(st, w, restrict=True)
    rows = sg.tabulate().tolist()
    ints = {}
    for x, e in fam.members.items():
        den, (nums,) = spectral.scaled([e.values()])
        ints[x] = den, list(zip(e, nums))
    for x, (dx, ex) in ints.items():
        for y, (_, ey) in ints.items():
            want = [0] * sg.size
            if x == y:
                for i, c in ex:
                    want[i] = dx * c
            assert spectral.sparse_product(
                [(rows[i], c) for i, c in ex], ey, sg.size) == want
    rebuilt = alg_sum(*(alg_scale(fam.members[x], fam.lam[x])
                        for x in fam.flat_ids))
    assert rebuilt == weight_element(w)


@settings(max_examples=40, deadline=None)
@given(_walks())
def test_generic_members_are_the_lagrange_projectors(walk):
    sg, st, w = walk
    fam = algebra.primitive_idempotents(st, w, restrict=True)
    if not fam.is_generic:
        return
    lams = [fam.lam[x] for x in fam.flat_ids]
    vs, nodes, bad = spectral.annihilated(st, w, lams)
    assert bad is None
    for x, (num, den) in zip(fam.flat_ids, lagrange_projectors(vs, nodes)):
        assert fam.members[x] == {
            i: F(a, den) for i, a in enumerate(num) if a}


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_top_to_random_family_is_the_lagrange_projectors(n):
    fam = descent.top_to_random_idempotents(n)
    group = descent._SymmetricGroupTable(n)
    moves = [w for w in group.perms if set(descent.descent_set(w)) <= {1}]
    nodes = [i for i in range(n + 1) if i != n - 1]
    vs = spectral.krylov_sequence(
        [(group.comp[group.index[w]].tolist(), 1) for w in moves],
        group.index[tuple(range(1, n + 1))], len(group.perms), len(nodes))
    assert not any(spectral.apply_roots(vs, nodes))
    for i, (num, den) in zip(nodes, lagrange_projectors(vs, nodes)):
        assert fam.es[i] == {w: F(a, den)
                             for w, a in zip(group.perms, num) if a}
    assert not fam.es[n - 1]
