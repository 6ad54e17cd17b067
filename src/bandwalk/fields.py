"""Small finite fields and exact linear algebra over them.

Supports GF(q) for prime q and for q in {4, 8, 9}; that covers every
vector-space construction the package builds.  Prime-power elements are
encoded as base-p digit strings of polynomials modulo a fixed monic
irreducible, so each element is just an int in range(q).
"""

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

    def add(self, a, b):
        return self.add_t[a][b]

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


def in_span(fld, rref_rows, v):
    """Membership of v in the row span of an rref basis."""
    v = list(v)
    for row in rref_rows:
        lead = next(i for i, x in enumerate(row) if x)
        c = v[lead]
        if c:
            for k in range(len(v)):
                v[k] = fld.sub(v[k], fld.mul(c, row[k]))
    return not any(v)


def all_vectors(fld, n):
    stack = [()]
    for _ in range(n):
        stack = [v + (c,) for v in stack for c in range(fld.q)]
    return stack


def all_subspaces(fld, n):
    """Every subspace of GF(q)^n as its rref basis, by dimension and
    then basis."""
    seen = {()}
    frontier = [()]
    vectors = [v for v in all_vectors(fld, n) if any(v)]
    while frontier:
        nxt = []
        for s in frontier:
            for v in vectors:
                if not in_span(fld, s, v):
                    t = rref(fld, s + (v,))
                    if t not in seen:
                        seen.add(t)
                        nxt.append(t)
        frontier = nxt
    return sorted(seen, key=lambda s: (len(s), s))


def space_contains(fld, big, small):
    """Whether the span of rref basis `small` lies inside that of `big`."""
    return all(in_span(fld, big, v) for v in small)
