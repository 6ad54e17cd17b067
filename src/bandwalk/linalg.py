"""Exact linear algebra on integer matrices.

Every function here takes integer rows.  Rational data comes in through
`scaled`, the one place a rational is turned into an integer: it
multiplies the whole matrix by the least common denominator of its
entries.  Elimination proceeds with the two-term integer
cross-multiplication update plus a gcd squeeze per produced row, and
pivots are chosen smallest-in-magnitude to keep the integers from
blowing up.  Nullities and kernels are exact; nothing in this module
touches floats.
"""

from fractions import Fraction
from math import gcd, lcm


# ------------------------------------------------------- conversions


def scaled(rows):
    """(D, integer rows): D is the least common denominator of every
    entry, and the integer rows are D times the input.

    Entries may be ints or Fractions.  Scaling by a nonzero rational
    preserves nullity and kernel, so the integer matrix stands in for
    the rational one everywhere in this module.
    """
    rows = [list(r) for r in rows]
    den = lcm(*{v.denominator for r in rows for v in r})
    return den, [[v.numerator * (den // v.denominator) for v in r]
                 for r in rows]


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


def nullity(rows):
    rows = list(rows)
    if not rows:
        return 0
    return len(rows[0]) - len(echelon_int_rows(rows))


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
