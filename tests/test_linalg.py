"""Exact elimination and kernels over the integers, kept as reference
oracles, and the one rational-to-integer scaling.

The library certifies multiplicities and stationary laws in the
semigroup algebra instead: tests/test_spectral.py checks the
multiplicity certificate against `eigenspace_dimensions`, and
tests/test_walks.py checks `walks.stationary_exact` against
`stationary_kernel`.  Elimination uses the two-term integer
cross-multiplication update plus a gcd squeeze per produced row, with
pivots chosen smallest in magnitude to keep the integers small.
"""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as hs

from bandwalk import constructions, core, spectral


F = Fraction


def _squeeze(row):
    g = 0
    for v in row:
        if v:
            g = gcd(g, v)
            if g == 1:
                return row
    if g > 1:
        return [v // g for v in row]
    return row


def echelon_int_rows(rows):
    """Row echelon form with pivot bookkeeping.

    Returns a list of (pivot_col, row) pairs with strictly increasing
    pivot columns; rows are integer, gcd-reduced, not back-eliminated.
    """
    rows = [_squeeze(list(r)) for r in rows if any(r)]
    ncols = len(rows[0]) if rows else 0
    ech = []
    for col in range(ncols):
        best = -1
        for idx, r in enumerate(rows):
            v = r[col]
            if v and (best < 0 or abs(v) < abs(rows[best][col])):
                best = idx
        if best < 0:
            continue
        prow = rows.pop(best)
        piv = prow[col]
        nxt = []
        for r in rows:
            f = r[col]
            if f:
                g = gcd(piv, f)
                a, b = piv // g, f // g
                nr = _squeeze([a * x - b * y for x, y in zip(r, prow)])
                if any(nr):
                    nxt.append(nr)
            else:
                nxt.append(r)
        rows = nxt
        ech.append((col, prow))
        if not rows:
            break
    return ech


def kernel_basis(rows):
    """Exact right-kernel basis of an integer matrix, as Fraction vectors.

    One basis vector per free column: the free variable is set to 1,
    the other free variables to 0, and the pivot variables are found by
    back-substitution through the echelon rows.
    """
    rows = list(rows)
    if not rows:
        return []
    ncols = len(rows[0])
    ech = echelon_int_rows(rows)
    pivots = [c for c, _ in ech]
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        x = [Fraction(0)] * ncols
        x[fc] = Fraction(1)
        for col, row in reversed(ech):
            s = sum((row[j] * x[j] for j in range(col + 1, ncols)
                     if row[j] and x[j]), Fraction(0))
            x[col] = -s / row[col]
        basis.append(x)
    return basis


def stationary_kernel(P):
    """The kernel of D P^T - D I, D the common denominator of P: a basis
    of the stationary vectors, each scaled to sum 1 when it can be."""
    den, rows = spectral.scaled(P.rows)
    tr = [list(col) for col in zip(*rows)]
    for i, r in enumerate(tr):
        r[i] -= den
    basis = kernel_basis(tr)
    return [[v / sum(b) for v in b] if sum(b) else b for b in basis]


def nullity(rows):
    rows = list(rows)
    if not rows:
        return 0
    return len(rows[0]) - len(echelon_int_rows(rows))


def eigenspace_dimensions(P, lams):
    """Exact dim ker(P - lambda I) for each lambda in `lams`, in order.

    P and the lambdas are scaled to integers together, once; each shift
    then subtracts the integer D lambda on the diagonal of a row copy.
    """
    _, rows = spectral.scaled(P.rows + [list(lams)])
    dims = []
    for dlam in rows.pop():
        shifted = [list(r) for r in rows]
        for i, r in enumerate(shifted):
            r[i] -= dlam
        dims.append(nullity(shifted))
    return dims


def _rank(m):
    return len(echelon_int_rows(spectral.scaled(m)[1]))


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
    assert len(echelon_int_rows(m)) + nullity(m) == 3


def test_kernel_vectors_actually_annihilate():
    m = [[1, 2, 3],
         [4, 5, 6]]
    basis = kernel_basis(m)
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
    ech = echelon_int_rows(m)
    assert len(ech) == 2 == 3 - nullity(m)
    cols = [c for c, _ in ech]
    assert cols == sorted(cols)


def test_scaled_uses_the_least_common_denominator():
    m = [[F(1, 2), F(1, 3)], [F(1, 5), 2]]
    den, rows = spectral.scaled(m)
    assert den == 30
    assert rows == [[15, 10], [6, 60]]
    assert all(type(v) is int for row in rows for v in row)
    assert spectral.scaled([[1, -4]]) == (1, [[1, -4]])
    assert spectral.scaled([[]]) == (1, [[]])


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
    _, rows = spectral.scaled(m)
    basis = kernel_basis(rows)
    for v in basis:
        for row in m:
            assert sum(a * b for a, b in zip(row, v)) == 0
    assert len(basis) == nullity(rows)
    _, rescaled = spectral.scaled([[c * v for v in row] for row in m])
    assert nullity(rescaled) == nullity(rows)
