"""Walk-algebra idempotents, power formula, and closed forms."""

from fractions import Fraction

import pytest

from bandwalk import algebra, constructions, core, spectral, walks
from bandwalk.errors import PreconditionError


F = Fraction


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
    one = algebra.alg_identity(sg)
    a = algebra.weight_element(spectral.uniform_on_generators(sg))
    assert algebra.alg_equal(algebra.alg_multiply(sg, one, a), a)
    assert algebra.alg_equal(algebra.alg_multiply(sg, a, one), a)
    twice = algebra.alg_add(a, a)
    assert algebra.alg_equal(twice, algebra.alg_scale(a, 2))
    assert algebra.alg_equal(algebra.alg_power(sg, a, 0), one)
    assert algebra.alg_equal(algebra.alg_power(sg, a, 2),
                             algebra.alg_multiply(sg, a, a))


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
    assert algebra.alg_equal(total, algebra.alg_identity(sg))
    for x in fam.flat_ids:
        for y in fam.flat_ids:
            prod = algebra.alg_multiply(sg, fam.members[x], fam.members[y])
            want = fam.members[x] if x == y else {}
            assert algebra.alg_equal(prod, want)


def test_generic_family_needs_no_reduced_words_or_pair_sweep(monkeypatch):
    sg, st = _band(constructions.ordered_partitions, 3)
    w = _generic_weights(sg)
    dfs = algebra._residue_members(st, w, list(range(st.n_flats)),
                                   spectral.flat_eigenvalues(st, w),
                                   algebra.DEFAULT_GUARDS)

    def forbidden(*args, **kw):
        raise AssertionError("the generic path reached the DFS")

    monkeypatch.setattr(algebra, "_reduced_word_walk", forbidden)
    monkeypatch.setattr(algebra, "_certify_family", forbidden)
    fam = algebra.primitive_idempotents(st, w)
    assert fam.is_generic and fam.members == dfs
    # non-generic weights still take the reduced words
    with pytest.raises(AssertionError):
        algebra.primitive_idempotents(st, spectral.uniform_on_generators(sg))


def test_idempotents_diagonalize_the_weight_element():
    sg, st = _band(constructions.free_lrb_bar, 3)
    w = _generic_weights(sg)
    fam = algebra.primitive_idempotents(st, w)
    a = algebra.weight_element(w)
    for x in fam.flat_ids:
        left = algebra.alg_multiply(sg, a, fam.members[x])
        want = algebra.alg_scale(fam.members[x], fam.lam[x])
        assert algebra.alg_equal(left, want)


def test_power_formula_matches_convolution():
    sg, st = _band(constructions.ordered_partitions, 3)
    w = spectral.seeded_generator_weights(sg, 4)
    a = algebra.weight_element(w)
    for m in range(6):
        direct = algebra.alg_power(sg, a, m)
        assert algebra.alg_equal(algebra.power_formula(st, w, m), direct)


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
    assert algebra.complete_homogeneous(2, vals) == \
        F(1, 4) + F(1, 6) + F(1, 9)
    assert algebra.complete_homogeneous(0, vals) == 1
