"""Small finite fields, exact linear algebra over them, and the vector
space GF(q)^n as a closure system.

Supports GF(q) for prime q and for q in {4, 8, 9}; that covers every
vector-space construction the package builds.  Prime-power elements are
encoded as base-p digit strings of polynomials modulo a fixed monic
irreducible, so each element is just an int in range(q).  A field of
order at most 9 reads tables of at most 81 cells; a larger prime field
computes mod p, so building one costs nothing that grows with q.

`VectorSpace` is GF(q)^n read like a matroid: points are the nonzero
vectors and flats are the subspaces, listed by dimension, so the first
flat holding a set of points is its closure; it has no `closure`.  The
q-analogue bands are the matroid bands of this closure system (see
`constructions`), and the subspace lattice of `derangement` is its
lattice of flats.  `vector_label` names a vector, here and in
`Matroid.from_vectors`.
"""

import itertools
from functools import lru_cache

from .errors import MalformedInputError
from .guards import check_counts
from .posets import LATTICE_CAP

# ascending coefficients of a monic irreducible over the prime subfield
_IRREDUCIBLE = {
    4: (1, 1, 1),        # x^2 + x + 1 over GF(2)
    8: (1, 1, 0, 1),     # x^3 + x + 1 over GF(2)
    9: (1, 0, 1),        # x^2 + 1 over GF(3)
}

# Miller-Rabin on the first 13 primes decides every m below _WITNESSED
# (J. Sorenson, J. Webster, Math. Comp. 86, 2017, 985-1003)
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_WITNESSED = 3317044064679887385961981


def _is_prime(m):
    """Whether m is a prime below _WITNESSED, by the Miller-Rabin test
    on every base of _WITNESSES, which is exact there."""
    if m < 2 or m >= _WITNESSED:
        return False
    s = ((m - 1) & (1 - m)).bit_length() - 1     # 2^s exactly divides m-1
    for a in _WITNESSES:
        x = pow(a, (m - 1) >> s, m)
        if a % m and x != 1 and all(pow(x, 2 ** i, m) != m - 1
                                    for i in range(s)):
            return False
    return True


class GF:
    """Arithmetic in GF(q): `add`, `sub`, `mul` and `inv` on ints in
    range(q).  A field of order at most 9 reads its tables `add_t` and
    `mul_t`; a larger one, which is prime, computes mod q."""

    def __init__(self, q):
        if q in _IRREDUCIBLE:
            p, irr = (2 if q in (4, 8) else 3), _IRREDUCIBLE[q]
        elif _is_prime(q):
            p, irr = q, (0, 1)
        else:
            raise MalformedInputError(
                f"unsupported field order {q}: need a prime below "
                f"{_WITNESSED} or one of 4, 8, 9")
        self.q, self.add_t = q, None
        if q > 9:
            return
        # an element is the polynomial of its base-p digits, lowest first
        digits = [[a // p ** i % p for i in range(len(irr) - 1)]
                  for a in range(q)]

        def poly(coefficients):
            return sum(c * p ** i for i, c in enumerate(coefficients))

        def mul(a, b):
            # Horner on the digits of a: out x + digit b, with x^deg
            # reduced by the monic irreducible
            out = digits[0]
            for x in reversed(digits[a]):
                out = [(lo - out[-1] * c + x * y) % p for lo, c, y
                       in zip([0] + out[:-1], irr, digits[b])]
            return poly(out)

        self.add_t = [[poly([(x + y) % p for x, y in zip(da, db)])
                       for db in digits] for da in digits]
        self.mul_t = [[mul(a, b) for b in range(q)] for a in range(q)]

    def add(self, a, b):
        return (a + b) % self.q if self.add_t is None else self.add_t[a][b]

    def sub(self, a, b):
        # the c with b + c = a
        return (a - b) % self.q if self.add_t is None else \
            self.add_t[b].index(a)

    def mul(self, a, b):
        return a * b % self.q if self.add_t is None else self.mul_t[a][b]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, -1, self.q) if self.add_t is None else \
            self.mul_t[a].index(1)


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


def vector_label(v, q):
    """The name of a vector over GF(q): the digits of its coordinates
    run together up to q = 9, and joined by "." above, where a
    coordinate may take two digits and "1.12" differs from "11.2"."""
    return ("" if q <= 9 else ".").join(map(str, v))


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
        out = [tuple(fld.add(a, fld.mul(c, r)) for a, r in zip(v, row))
               for v in out for c in range(fld.q)]
    return out


class VectorSpace:
    """GF(q)^n as a closure system, read like a `Matroid`.

    The points are the nonzero vectors in lexicographic order, ids
    0..N-1, named by `vector_label`; `n` is N, as on a Matroid, and
    `full_rank` is the dimension.  The flats are the subspaces, each the
    frozenset of its point ids, listed by dimension and then by reduced
    row-echelon basis, and labelled by the `vector_label`s of its rows
    joined by "+", the zero space "0"; the rank of a flat is the length
    of that basis, kept from the listing.
    The q^k - 1 points of GF(q)^k, k = 1..n, are counted first and held
    to posets.LATTICE_CAP (`check_counts`), so q is bounded before the
    field is built and tested prime; an order below 2 is left to the
    field to refuse.
    """

    def __init__(self, q, n):
        if n > 0 and q > 1:
            points = (q ** k - 1 for k in itertools.count(1))
            check_counts(f"GF({q})^{n}", points, LATTICE_CAP, n, "points")
        fld = self._fld = field(q)
        self.points = [v for v in all_vectors(fld, n) if any(v)]
        self.ground = [vector_label(v, q) for v in self.points]
        self.n = len(self.points)
        self.full_rank = n
        point_id = {v: x for x, v in enumerate(self.points)}
        self._flats = []
        self._label = {}
        self._rank = {}
        for basis in sorted(_rref_bases(fld, n), key=lambda b: (len(b), b)):
            flat = frozenset(point_id[v] for v in _span(fld, basis, n)
                             if any(v))
            self._flats.append(flat)
            self._label[flat] = "+".join(
                vector_label(r, q) for r in basis) or "0"
            self._rank[flat] = len(basis)

    def flats(self):
        return self._flats

    def rank(self, flat):
        """The dimension of a flat."""
        return self._rank[flat]

    def flat_label(self, flat):
        return self._label[flat]
