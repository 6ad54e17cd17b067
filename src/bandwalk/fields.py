"""Small finite fields, exact linear algebra over them, and the vector
space GF(q)^n as a closure system.

Supports GF(q) for prime q and for q in {4, 8, 9}; that covers every
vector-space construction the package builds.  Prime-power elements are
encoded as base-p digit strings of polynomials modulo a fixed monic
irreducible, so each element is just an int in range(q).

`VectorSpace` is GF(q)^n read like a matroid: points are the nonzero
vectors and flats are the subspaces.  The q-analogue bands are the
matroid bands of this closure system (see `constructions`), and the
subspace lattice of `derangement` is its lattice of flats.
"""

import itertools
from functools import lru_cache

from .errors import MalformedInputError

# ascending coefficients of a monic irreducible over the prime subfield
_IRREDUCIBLE = {
    4: (1, 1, 1),        # x^2 + x + 1 over GF(2)
    8: (1, 1, 0, 1),     # x^3 + x + 1 over GF(2)
    9: (1, 0, 1),        # x^2 + 1 over GF(3)
}


def _is_prime(m):
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


class GF:
    """Arithmetic tables for GF(q)."""

    def __init__(self, q):
        if _is_prime(q):
            self.q = q
            self.p = q
            self.deg = 1
        elif q in _IRREDUCIBLE:
            self.q = q
            self.p = 2 if q in (4, 8) else 3
            self.deg = len(_IRREDUCIBLE[q]) - 1
        else:
            raise MalformedInputError(
                f"unsupported field order {q}: need a prime or one of 4, 8, 9")
        self.add_t = [[self._add(a, b) for b in range(q)] for a in range(q)]
        self.mul_t = [[self._mul(a, b) for b in range(q)] for a in range(q)]
        self.neg_t = [next(b for b in range(q) if self.add_t[a][b] == 0)
                      for a in range(q)]
        self.inv_t = [0] + [next(b for b in range(1, q)
                                 if self.mul_t[a][b] == 1)
                            for a in range(1, q)]

    def _digits(self, a):
        out = []
        for _ in range(self.deg):
            out.append(a % self.p)
            a //= self.p
        return out

    def _undigits(self, ds):
        a = 0
        for d in reversed(ds):
            a = a * self.p + d
        return a

    def _add(self, a, b):
        if self.deg == 1:
            return (a + b) % self.p
        return self._undigits([(x + y) % self.p
                               for x, y in zip(self._digits(a), self._digits(b))])

    def _mul(self, a, b):
        if self.deg == 1:
            return (a * b) % self.p
        da, db = self._digits(a), self._digits(b)
        raw = [0] * (2 * self.deg - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    raw[i + j] = (raw[i + j] + x * y) % self.p
        irr = _IRREDUCIBLE[self.q]
        for i in range(len(raw) - 1, self.deg - 1, -1):
            c = raw[i]
            if c:
                raw[i] = 0
                for j in range(self.deg):
                    raw[i - self.deg + j] = (raw[i - self.deg + j]
                                             - c * irr[j]) % self.p
        return self._undigits(raw[:self.deg])

    def sub(self, a, b):
        return self.add_t[a][self.neg_t[b]]

    def mul(self, a, b):
        return self.mul_t[a][b]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self.inv_t[a]


@lru_cache(maxsize=None)
def field(q):
    return GF(q)


def rref(fld, rows):
    """Reduced row echelon form with zero rows dropped.

    Rows are int tuples; the result is a canonical tuple of tuples, so
    equal row spans give equal values.
    """
    work = [list(r) for r in rows if any(r)]
    ncols = len(rows[0]) if rows else 0
    out = []
    col = 0
    while work and col < ncols:
        piv = next((i for i, r in enumerate(work) if r[col]), None)
        if piv is None:
            col += 1
            continue
        row = work.pop(piv)
        inv = fld.inv(row[col])
        row = [fld.mul(inv, v) for v in row]
        for r in work:
            c = r[col]
            if c:
                for k in range(ncols):
                    r[k] = fld.sub(r[k], fld.mul(c, row[k]))
        for r in out:
            c = r[col]
            if c:
                for k in range(ncols):
                    r[k] = fld.sub(r[k], fld.mul(c, row[k]))
        out.append(row)
        work = [r for r in work if any(r)]
        col += 1
    return tuple(tuple(r) for r in out)


def all_vectors(fld, n):
    stack = [()]
    for _ in range(n):
        stack = [v + (c,) for v in stack for c in range(fld.q)]
    return stack


def _rref_bases(fld, n):
    """The reduced row-echelon basis of every subspace of GF(q)^n: per
    set of pivot columns, every filling of the free entries, those right
    of a row's pivot and outside the pivot columns."""
    for k in range(n + 1):
        for pivots in itertools.combinations(range(n), k):
            free = [(i, c) for i, p in enumerate(pivots)
                    for c in range(p + 1, n) if c not in pivots]
            for values in itertools.product(range(fld.q), repeat=len(free)):
                rows = [[int(c == p) for c in range(n)] for p in pivots]
                for (i, c), a in zip(free, values):
                    rows[i][c] = a
                yield tuple(map(tuple, rows))


def _span(fld, basis, n):
    """Every vector of the span of `basis`, zero included."""
    out = [(0,) * n]
    for row in basis:
        out = [tuple(fld.add_t[a][fld.mul_t[c][r]] for a, r in zip(v, row))
               for v in out for c in range(fld.q)]
    return out


class VectorSpace:
    """GF(q)^n as a closure system, read like a `Matroid`.

    The points are the nonzero vectors in lexicographic order, ids
    0..N-1, labelled by their digit strings; `n` is N, as on a Matroid,
    and `full_rank` is the dimension.  The flats are the subspaces, each
    the frozenset of its point ids, listed by dimension and then by
    reduced row-echelon basis, and labelled by that basis: its rows
    joined by "+", the zero space "0".  `closure` and `rank` run one
    `rref` on the given points; nothing is kept per subset of points.
    """

    def __init__(self, q, n):
        fld = field(q)
        self._fld = fld
        self.points = [v for v in all_vectors(fld, n) if any(v)]
        self.ground = ["".join(map(str, v)) for v in self.points]
        self.n = len(self.points)
        self.full_rank = n
        point_id = {v: x for x, v in enumerate(self.points)}
        self._flats = []
        self._flat_of = {}
        self._label = {}
        for basis in sorted(_rref_bases(fld, n), key=lambda b: (len(b), b)):
            flat = frozenset(point_id[v] for v in _span(fld, basis, n)
                             if any(v))
            self._flats.append(flat)
            self._flat_of[basis] = flat
            self._label[flat] = "+".join(
                "".join(map(str, r)) for r in basis) or "0"

    def _basis(self, subset):
        return rref(self._fld, [self.points[x] for x in subset])

    def rank(self, subset):
        return len(self._basis(subset))

    def closure(self, subset):
        return self._flat_of[self._basis(subset)]

    def flats(self):
        return self._flats

    def flat_label(self, flat):
        return self._label[flat]
