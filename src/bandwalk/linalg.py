"""Exact linear algebra over the rationals.

Everything here is fraction-free where it counts: matrices come in as
Fractions, rows are scaled to integers once, and elimination proceeds
with the two-term integer cross-multiplication update plus a gcd
squeeze per produced row.  Pivots are chosen smallest-in-magnitude to
keep the integers from blowing up.  Ranks, nullities and kernels are
exact; nothing in this module touches floats.
"""

from fractions import Fraction
from math import gcd


# ------------------------------------------------------- conversions


def int_rows(matrix):
    """Scale each row by the lcm of its denominators.

    Row scaling by a nonzero rational preserves rank and kernel, so the
    integer matrix returned here is interchangeable with the input for
    everything this module computes.
    """
    out = []
    for row in matrix:
        den = 1
        for v in row:
            f = Fraction(v)
            den = den * f.denominator // gcd(den, f.denominator)
        out.append([int(Fraction(v) * den) for v in row])
    return out


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


# ------------------------------------------------------- elimination


def rank(matrix):
    return len(echelon_int_rows(int_rows(matrix)))


def nullity(matrix):
    matrix = list(matrix)
    if not matrix:
        return 0
    return len(matrix[0]) - rank(matrix)


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


def kernel_basis(matrix):
    """Exact right-kernel basis of a Fraction matrix.

    One basis vector per free column: the free variable is set to 1,
    the other free variables to 0, and the pivot variables are found by
    back-substitution through the echelon rows.
    """
    matrix = list(matrix)
    if not matrix:
        return []
    ncols = len(matrix[0])
    ech = echelon_int_rows(int_rows(matrix))
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


# --------------------------------------------------- matrix utilities


def mat_sub_scaled_identity(matrix, lam):
    lam = Fraction(lam)
    return [[Fraction(v) - (lam if i == j else 0)
             for j, v in enumerate(row)]
            for i, row in enumerate(matrix)]


def vec_mat(v, a):
    n = len(a[0])
    out = [Fraction(0)] * n
    for i, vi in enumerate(v):
        if vi:
            row = a[i]
            for j in range(n):
                if row[j]:
                    out[j] += vi * row[j]
    return out
