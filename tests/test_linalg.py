"""Exact elimination, kernels, and matrix helpers."""

from fractions import Fraction

from bandwalk import linalg


F = Fraction


def test_rank_of_designed_matrices():
    assert linalg.rank([[F(1), F(2)], [F(2), F(4)]]) == 1
    assert linalg.rank([[F(1, 3), F(0)], [F(0), F(5, 7)]]) == 2
    assert linalg.rank([[F(0), F(0)], [F(0), F(0)]]) == 0
    # outer product has rank one regardless of size
    u = [F(1), F(-2), F(3), F(5, 2)]
    v = [F(7), F(1, 3), F(-1)]
    m = [[a * b for b in v] for a in u]
    assert linalg.rank(m) == 1


def test_rank_plus_nullity_is_width():
    m = [[F(1), F(2), F(3)],
         [F(2), F(4), F(6)],
         [F(1), F(0), F(1)]]
    assert linalg.rank(m) + linalg.nullity(m) == 3


def test_kernel_vectors_actually_annihilate():
    m = [[F(1), F(2), F(3)],
         [F(4), F(5), F(6)]]
    basis = linalg.kernel_basis(m)
    assert len(basis) == linalg.nullity(m) == 1
    for v in basis:
        for row in m:
            assert sum(a * b for a, b in zip(row, v)) == 0


def test_identity_and_subtraction_helpers():
    m = [[F(2), F(1)], [F(1), F(2)]]
    shifted = linalg.mat_sub_scaled_identity(m, F(2))
    assert shifted[0][0] == 0 and shifted[1][1] == 0
    assert shifted[0][1] == 1


def test_vec_mat_product():
    a = [[F(1), F(2)], [F(3), F(4)]]
    assert linalg.vec_mat([F(1), F(1)], a) == [F(4), F(6)]


def test_echelon_pivots_are_consistent_with_rank():
    m = [[F(0), F(1), F(2)],
         [F(0), F(2), F(4)],
         [F(1), F(1), F(1)]]
    ech = linalg.echelon_int_rows(linalg.int_rows(m))
    assert len(ech) == linalg.rank(m) == 2
    cols = [c for c, _ in ech]
    assert cols == sorted(cols)


def test_int_rows_scaling_preserves_rank():
    m = [[F(1, 2), F(1, 3)], [F(1, 5), F(1, 7)]]
    scaled = linalg.int_rows(m)
    assert all(isinstance(v, int) for row in scaled for v in row)
    assert len(linalg.echelon_int_rows(scaled)) == linalg.rank(m) == 2
