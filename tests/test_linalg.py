"""Exact elimination, kernels, and the one rational-to-integer scaling.

`nullity` and `eigenspace_dimensions` are reference oracles: the
library certifies multiplicities in the semigroup algebra instead, and
tests/test_spectral.py checks that certificate against these.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as hs

from bandwalk import constructions, core, linalg, spectral


F = Fraction


def nullity(rows):
    rows = list(rows)
    if not rows:
        return 0
    return len(rows[0]) - len(linalg.echelon_int_rows(rows))


def eigenspace_dimensions(P, lams):
    """Exact dim ker(P - lambda I) for each lambda in `lams`, in order.

    P and the lambdas are scaled to integers together, once; each shift
    then subtracts the integer D lambda on the diagonal of a row copy.
    """
    _, rows = linalg.scaled(P.rows + [list(lams)])
    dims = []
    for dlam in rows.pop():
        shifted = [list(r) for r in rows]
        for i, r in enumerate(shifted):
            r[i] -= dlam
        dims.append(nullity(shifted))
    return dims


def _rank(m):
    return len(linalg.echelon_int_rows(linalg.scaled(m)[1]))


def test_rank_of_designed_matrices():
    assert _rank([[F(1), F(2)], [F(2), F(4)]]) == 1
    assert _rank([[F(1, 3), F(0)], [F(0), F(5, 7)]]) == 2
    assert _rank([[0, 0], [0, 0]]) == 0
    # outer product has rank one regardless of size
    u = [F(1), F(-2), F(3), F(5, 2)]
    v = [F(7), F(1, 3), F(-1)]
    m = [[a * b for b in v] for a in u]
    assert _rank(m) == 1


def test_rank_plus_nullity_is_width():
    m = [[1, 2, 3],
         [2, 4, 6],
         [1, 0, 1]]
    assert len(linalg.echelon_int_rows(m)) + nullity(m) == 3


def test_kernel_vectors_actually_annihilate():
    m = [[1, 2, 3],
         [4, 5, 6]]
    basis = linalg.kernel_basis(m)
    assert len(basis) == nullity(m) == 1
    for v in basis:
        for row in m:
            assert sum(a * b for a, b in zip(row, v)) == 0


def test_eigenspace_dimensions_match_multiplicities():
    sg = constructions.free_lrb(3)
    structure = core.derive_support(sg)
    w = spectral.seeded_generator_weights(sg, 1)
    P = spectral.transition_matrix(structure, w)
    spec = spectral.spectrum(structure, w)
    lams = sorted(spec.grouped)
    dims = eigenspace_dimensions(P, lams + [F(-1, 7)])
    assert dims[:-1] == [spec.grouped[l] for l in lams]
    assert sum(dims) == P.size
    # a lambda outside the spectrum has a trivial eigenspace
    assert dims[-1] == 0


def test_echelon_pivots_are_consistent_with_rank():
    m = [[0, 1, 2],
         [0, 2, 4],
         [1, 1, 1]]
    ech = linalg.echelon_int_rows(m)
    assert len(ech) == 2 == 3 - nullity(m)
    cols = [c for c, _ in ech]
    assert cols == sorted(cols)


def test_scaled_uses_the_least_common_denominator():
    m = [[F(1, 2), F(1, 3)], [F(1, 5), 2]]
    den, rows = linalg.scaled(m)
    assert den == 30
    assert rows == [[15, 10], [6, 60]]
    assert all(type(v) is int for row in rows for v in row)
    assert linalg.scaled([[1, -4]]) == (1, [[1, -4]])
    assert linalg.scaled([[]]) == (1, [[]])


_entries = hs.builds(F, hs.integers(-3, 3), hs.integers(1, 4))


@hs.composite
def _matrices(draw):
    n_rows = draw(hs.integers(1, 4))
    n_cols = draw(hs.integers(1, 4))
    row = hs.lists(_entries, min_size=n_cols, max_size=n_cols)
    return draw(hs.lists(row, min_size=n_rows, max_size=n_rows))


@settings(max_examples=200, deadline=None)
@given(_matrices(), _entries.filter(bool))
def test_kernel_and_nullity_of_random_rational_matrices(m, c):
    _, rows = linalg.scaled(m)
    basis = linalg.kernel_basis(rows)
    for v in basis:
        for row in m:
            assert sum(a * b for a, b in zip(row, v)) == 0
    assert len(basis) == nullity(rows)
    _, rescaled = linalg.scaled([[c * v for v in row] for row in m])
    assert nullity(rescaled) == nullity(rows)
