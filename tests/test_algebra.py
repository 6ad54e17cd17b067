"""Walk-algebra idempotents, power formula, and closed forms.

The paper's sums over reduced words are kept here as reference
oracles: a depth-first walk over the words, the residue members and
the word-sum power formula.  The library sums the same words per
element in one pass in support order (`algebra.support_pass`);
tests/test_spectral.py checks it against these oracles on random
bands and weights.  The Fraction convolution product of the semigroup
algebra is an oracle too: the library multiplies only in integers,
through `spectral.sparse_product`.
"""

from collections import Counter
from fractions import Fraction

import pytest

from bandwalk import algebra, constructions, core, selftest, spectral, walks
from bandwalk.errors import FalsificationError, PreconditionError


F = Fraction


def alg_identity(sg):
    return {sg.identity: F(1)}


def alg_multiply(sg, a, b):
    """Convolution product in the semigroup algebra."""
    out = {}
    for x, va in a.items():
        for y, vb in b.items():
            _accumulate(out, sg.product(x, y), va * vb)
    return out


def alg_power(sg, a, m):
    out = alg_identity(sg)
    for _ in range(m):
        out = alg_multiply(sg, out, a)
    return out


def weight_element(w):
    """The element sum of w_x x for a WeightVector."""
    return dict(w.items())


def reduced_word_walk(sg, structure, w, visit):
    """DFS over reduced words of weighted letters.

    Calls visit(letters, chain, product_id, weight_product) at every
    node, including the empty word; `chain` is the support chain
    starting at the bottom flat.
    """
    letters = w.support_ids()
    supp = structure.supp
    join = structure.join.tolist()
    prod = sg.product

    def rec(word, chain, elem, wprod):
        visit(word, chain, elem, wprod)
        top = chain[-1]
        for x in letters:
            nxt = join[top][supp[x]]
            if nxt != top:
                word.append(x)
                chain.append(nxt)
                rec(word, chain, prod(elem, x), wprod * w[x])
                word.pop()
                chain.pop()

    rec([], [structure.bottom], sg.identity, F(1))


def complete_homogeneous(degree, values):
    """h_degree(values) by the one-variable-at-a-time recurrence."""
    h = [F(1)] + [F(0)] * degree
    for v in values:
        if not v:
            continue
        for n in range(1, degree + 1):
            h[n] += v * h[n - 1]
    return h[degree]


def _accumulate(out, elem, value):
    s = out.get(elem, F(0)) + value
    if s:
        out[elem] = s
    else:
        out.pop(elem, None)


def power_formula_by_words(structure, w, m):
    """w^m as the sum of h_{m-l}(lambda_{c_0..c_l}) * w_x over the
    reduced words x of length l <= m."""
    lam = spectral.flat_eigenvalues(structure, w)
    out = {}

    def visit(word, chain, elem, wprod):
        l = len(word)
        if l > m:
            return
        h = complete_homogeneous(m - l, [lam[x] for x in chain])
        if h and wprod:
            _accumulate(out, elem, h * wprod)

    reduced_word_walk(structure.semigroup, structure, w, visit)
    return out


def residue_members(structure, w, feas, lam):
    """e_X as the sum over the reduced words whose chain passes X of
    their residue coefficients times w_x."""
    members = {x: {} for x in feas}

    def visit(word, chain, elem, wprod):
        if not wprod:
            return
        l = len(word)
        # residues of the partial-fraction split along this word's chain
        for i, x in enumerate(chain):
            den = F(1)
            for j in range(i):
                den *= lam[x] - lam[chain[j]]
            for j in range(i + 1, l + 1):
                den *= lam[chain[j]] - lam[x]
            if den == 0:
                raise FalsificationError(
                    "equal eigenvalues along a feasible chain")
            _accumulate(members[x], elem, F((-1) ** (l - i), 1) / den * wprod)

    reduced_word_walk(structure.semigroup, structure, w, visit)
    return members


def _band(ctor, *args, **kw):
    sg = ctor(*args, **kw)
    return sg, core.derive_support(sg)


def _generic_weights(sg):
    k = len(sg.generators)
    den = 2 ** k - 1
    return spectral.WeightVector(
        sg, {g: F(2 ** i, den) for i, g in enumerate(sg.generators)})


def test_algebra_primitives():
    sg, _ = _band(constructions.free_lrb, 2)
    one = alg_identity(sg)
    a = weight_element(spectral.uniform_on_generators(sg))
    assert algebra.alg_equal(alg_multiply(sg, one, a), a)
    assert algebra.alg_equal(alg_multiply(sg, a, one), a)
    twice = algebra.alg_add(a, a)
    assert algebra.alg_equal(twice, algebra.alg_scale(a, 2))
    assert algebra.alg_equal(alg_power(sg, a, 0), one)
    assert algebra.alg_equal(alg_power(sg, a, 2),
                             alg_multiply(sg, a, a))


def test_idempotent_family_certificates():
    sg, st = _band(constructions.free_lrb, 3)
    w = _generic_weights(sg)
    fam = algebra.primitive_idempotents(st, w)
    assert fam.is_generic and fam.lattice_covered
    assert sorted(fam.flat_ids) == list(range(st.n_flats))
    # orthogonality and completeness
    total = {}
    for x in fam.flat_ids:
        total = algebra.alg_add(total, fam.members[x])
    assert algebra.alg_equal(total, alg_identity(sg))
    for x in fam.flat_ids:
        for y in fam.flat_ids:
            prod = alg_multiply(sg, fam.members[x], fam.members[y])
            want = fam.members[x] if x == y else {}
            assert algebra.alg_equal(prod, want)


def test_generic_family_needs_no_reduced_words_or_pair_sweep(monkeypatch):
    sg, st = _band(constructions.ordered_partitions, 3)
    w = _generic_weights(sg)
    dfs = residue_members(st, w, list(range(st.n_flats)),
                          spectral.flat_eigenvalues(st, w))
    calls = []
    product = spectral.sparse_product

    def counted(*args):
        calls.append(1)
        return product(*args)

    monkeypatch.setattr(spectral, "sparse_product", counted)
    # distinct lambda: one left product with w per member and no more
    fam = algebra.primitive_idempotents(st, w)
    assert fam.is_generic and fam.members == dfs
    assert len(calls) == len(fam.flat_ids)
    # tied lambda: the member x member products inside each tie group
    # on top
    calls.clear()
    fam = algebra.primitive_idempotents(st, spectral.uniform_on_generators(sg))
    sizes = Counter(fam.lam.values()).values()
    assert not fam.is_generic and max(sizes) > 1
    assert len(calls) == len(fam.flat_ids) + sum(g * (g - 1) for g in sizes)


def _tied_walk():
    sg, st = _band(constructions.free_lrb, 3)
    w = spectral.uniform_on_generators(sg)
    lam = spectral.flat_eigenvalues(st, w)
    members = algebra.primitive_idempotents(st, w).members
    return st, w, lam, {x: dict(e) for x, e in members.items()}


def test_family_certificate_rejects_a_doubled_coefficient():
    st, w, lam, members = _tied_walk()
    algebra.certify_members(st, w, members, lam)
    e = members[st.top]
    a = min(e)
    e[a] *= 2
    with pytest.raises(FalsificationError, match="sum to 1"):
        algebra.certify_members(st, w, members, lam)


def _move(members, x, y, c):
    """c e_X moved from member X to member Y; the sum is unchanged."""
    part = algebra.alg_scale(members[x], c)
    members[x] = algebra.alg_add(members[x], algebra.alg_scale(part, -1))
    members[y] = algebra.alg_add(members[y], part)


def test_family_certificate_catches_a_move_inside_a_tie_group():
    # e_X and e_Y share lambda, so (1 - c) e_X and e_Y + c e_X still sum
    # right and are eigenvectors of w; only their product,
    # c (1 - c) e_X, shows the move
    st, w, lam, members = _tied_walk()
    x, y = sorted(f for f in members if lam[f] == F(1, 3))[:2]
    _move(members, x, y, F(1, 2))
    with pytest.raises(FalsificationError, match="share an eigenvalue"):
        algebra.certify_members(st, w, members, lam)


def test_family_certificate_catches_a_move_across_eigenvalues():
    st, w, lam, members = _tied_walk()
    y = next(f for f in members if lam[f] != lam[st.bottom])
    _move(members, st.bottom, y, F(1, 3))
    with pytest.raises(FalsificationError, match="eigenvector"):
        algebra.certify_members(st, w, members, lam)
    # and so with generic weights
    sg = st.semigroup
    w = _generic_weights(sg)
    lam = spectral.flat_eigenvalues(st, w)
    members = {x: dict(e)
               for x, e in algebra.primitive_idempotents(st, w).members.items()}
    _move(members, st.top, st.bottom, F(1, 5))
    with pytest.raises(FalsificationError, match="eigenvector"):
        algebra.certify_members(st, w, members, lam)


def test_idempotents_diagonalize_the_weight_element():
    sg, st = _band(constructions.free_lrb_bar, 3)
    w = _generic_weights(sg)
    fam = algebra.primitive_idempotents(st, w)
    a = weight_element(w)
    for x in fam.flat_ids:
        left = alg_multiply(sg, a, fam.members[x])
        want = algebra.alg_scale(fam.members[x], fam.lam[x])
        assert algebra.alg_equal(left, want)


def test_power_formula_matches_convolution():
    sg, st = _band(constructions.ordered_partitions, 3)
    w = spectral.seeded_generator_weights(sg, 4)
    a = weight_element(w)
    powers = algebra.power_formula(st, w, 5)
    assert len(powers) == 6
    for m, assembled in enumerate(powers):
        direct = alg_power(sg, a, m)
        assert algebra.alg_equal(assembled, direct)


def test_criterion_4_catches_a_perturbed_power_formula(monkeypatch):
    real = algebra.power_formula

    def perturbed(*args):
        powers = real(*args)
        top = powers[-1]
        top[min(top)] += F(1, 10 ** 9)
        return powers

    monkeypatch.setattr(algebra, "power_formula", perturbed)
    with pytest.raises(FalsificationError,
                       match=r"power formula differs from w\^6"):
        selftest.criterion_4()


def test_non_generic_family_past_the_reach_of_the_word_walk():
    # 52 flats, 37 distinct lambda and 203431 reduced words
    sg, st = _band(constructions.ordered_partitions, 5)
    w = spectral.seeded_generator_weights(sg, 1)
    fam = algebra.primitive_idempotents(st, w)
    assert not fam.is_generic and fam.lattice_covered
    assert len(set(fam.lam.values())) < len(fam.flat_ids)
    pi = algebra.stationary_from_idempotents(st, fam)
    P = spectral.transition_matrix(st, w)
    assert pi == walks.stationary_exact(P).probs


def test_stationary_from_idempotents_matches_exact_solve():
    sg, st = _band(constructions.free_lrb, 3)
    w = spectral.seeded_generator_weights(sg, 7)
    fam = algebra.primitive_idempotents(st, w)
    pi = algebra.stationary_from_idempotents(st, fam)
    P = spectral.transition_matrix(st, w)
    assert pi == walks.stationary_exact(P).probs


def test_idempotents_require_generating_weights():
    sg, st = _band(constructions.free_lrb, 3)
    w = spectral.uniform_on(sg, [sg.generators[0]])
    with pytest.raises(PreconditionError):
        algebra.primitive_idempotents(st, w)
    fam = algebra.primitive_idempotents(st, w, restrict=True)
    assert not fam.lattice_covered
    assert len(fam.flat_ids) < st.n_flats


def test_feasible_flats_of_restricted_weights():
    sg, st = _band(constructions.free_lrb, 3)
    w = spectral.uniform_on(sg, [sg.generators[0]])
    flats = algebra.feasible_flats(st, w)
    assert st.bottom in flats
    assert st.top not in flats
    full = algebra.feasible_flats(st, spectral.uniform_on_generators(sg))
    assert full == list(range(st.n_flats))


def test_uniform_move_to_front_closed_form():
    sg, st = _band(constructions.free_lrb_bar, 4)
    closed = algebra.uniform_tsetlin_idempotents(st)
    assert len(closed) == 5
    # the eigenvalue (n-1)/n never occurs, so that member vanishes
    assert closed[3] == {}
    w = spectral.uniform_on_generators(sg)
    fam = algebra.primitive_idempotents(st, w)
    grouped = {lam: elem for lam, elem in fam.grouped}
    for i in (0, 1, 2, 4):
        lam = F(i, 4)
        assert algebra.alg_equal(closed[i], grouped[lam])


def test_closed_form_requires_the_deletion_quotient():
    sg, st = _band(constructions.free_lrb, 3)
    with pytest.raises(PreconditionError):
        algebra.uniform_tsetlin_idempotents(st)


def test_sampling_measure_reconstruction():
    sg, st = _band(constructions.free_lrb, 3)
    labels = core.check_expected_lattice(st)
    w = spectral.seeded_generator_weights(sg, 3)
    nu = algebra.tsetlin_nu_family(st, w)
    fam = algebra.primitive_idempotents(st, w)
    for flat in range(st.n_flats):
        inner = labels[flat].strip("{}")
        subset = tuple(int(s) for s in inner.split(",")) if inner else ()
        got = algebra.nu_reconstruction(st, nu, subset)
        assert algebra.alg_equal(got, fam.members[flat])


def test_complete_homogeneous_recurrence():
    vals = [F(1, 2), F(1, 3)]
    # h_2(a, b) = a^2 + ab + b^2
    assert complete_homogeneous(2, vals) == F(1, 4) + F(1, 6) + F(1, 9)
    assert complete_homogeneous(0, vals) == 1
