"""Finite partial orders, and the enumeration of set partitions.

A partial order on the ids 0..n-1 has one form: a square, C-contiguous
numpy bool array ``leq``, ``leq[a, b]`` meaning a <= b.  A bounded
poset has one type, `Poset`: the support lattices, the expected
lattices, the derangement posets and the distributive lattices are all
Posets.  This module is the one place that derives anything from an
order, by array expressions or one numpy step per element: validity
with the first witness (`check_partial_order`), the one transitive
closure (`order_from_covers`), the inclusion and refinement orders,
the lattice of flats of a closure system (`flat_lattice`, whose covers
and ranks come from the system's ranks), the cover
matrix (`covers_of`, over up-sets packed into words), a linear
extension, bottom and top, the join table (an int array of ids), the
join-irreducibles, ranks (one step per cover, in Python ints) and rows
of the Moebius function, whose values stay Python ints.  Set
partitions live here too: their enumeration and the refinement order.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (AxiomViolationError, MalformedInputError,
                     PreconditionError, SizeGuardError)

# the most elements a lattice factory or a cover list builds; its leq
# matrix has the square of that many entries
LATTICE_CAP = 4096


def _two_way_pair(leq):
    """The first (a, b) in row-major order with a != b, a <= b and
    b <= a, or None."""
    both = leq & leq.T
    np.fill_diagonal(both, False)
    pairs = np.argwhere(both)
    return tuple(map(int, pairs[0])) if len(pairs) else None


def check_partial_order(leq):
    """Raise unless leq is reflexive, antisymmetric and transitive.

    The witness is the first element off the diagonal, the first
    two-way pair in row-major order, or the lexicographically first
    (a, b, c) with a <= b <= c and not a <= c.
    """
    loose = np.flatnonzero(~leq.diagonal())
    if len(loose):
        raise AxiomViolationError("order not reflexive",
                                  witness=(int(loose[0]),))
    pair = _two_way_pair(leq)
    if pair is not None:
        raise AxiomViolationError("order not antisymmetric", witness=pair)
    for a, row in enumerate(leq):
        # everything above something above a must be above a
        if (leq[row].any(0) & ~row).any():
            i, c = np.argwhere(leq[row] & ~row)[0]
            b = np.flatnonzero(row)[i]
            raise AxiomViolationError("order not transitive",
                                      witness=(a, int(b), int(c)))


def order_from_covers(labels, pairs):
    """The order generated by cover pairs [a, b], a below b, given by
    label: their reflexive transitive closure, by Warshall's algorithm.

    Refuses more than LATTICE_CAP labels before the order is allocated,
    a pair that is not two labels, and a cycle of covers, naming the
    first two-way pair of the closure.
    """
    labels = list(labels)
    if len(labels) > LATTICE_CAP:
        raise SizeGuardError(f"{len(labels)} poset elements, above the cap "
                             f"{LATTICE_CAP}")
    index = {lab: i for i, lab in enumerate(labels)}
    if len(index) != len(labels):
        raise MalformedInputError("duplicate poset elements")
    leq = np.eye(len(labels), dtype=bool)
    for pair in pairs:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise MalformedInputError(f"cover {pair!r} is not a pair")
        a, b = str(pair[0]), str(pair[1])
        if a not in index or b not in index:
            raise MalformedInputError(f"cover {pair!r} names a non-element")
        leq[index[a], index[b]] = True
    for k in range(len(labels)):
        leq[leq[:, k]] |= leq[k]
    pair = _two_way_pair(leq)
    if pair is not None:
        a, b = pair
        raise MalformedInputError(
            f"cover cycle through {labels[a]} and {labels[b]}")
    return leq


def _packed(rows):
    """The bool matrix `rows` packed 64 columns to a uint64 word."""
    words = np.packbits(rows, axis=1, bitorder="little")
    return np.pad(words, ((0, 0), (0, -words.shape[1] % 8))).view(np.uint64)


def inclusion_order(sets):
    """Sets ordered by inclusion: a <= b when no point of a lies outside
    b, that is, when a & ~b is zero in every word of their point sets
    packed 64 to a word, a block of rows at a time."""
    index = {}
    for members in sets:
        for x in members:
            index.setdefault(x, len(index))
    inc = np.zeros((len(sets), len(index)), dtype=bool)
    for i, members in enumerate(sets):
        inc[i, [index[x] for x in members]] = True
    n = len(sets)
    leq = np.ones((n, n), dtype=bool)
    rows = max(1, (1 << 18) // max(n, 1))
    for word in _packed(inc).T:
        outside = ~word
        for s in range(0, n, rows):
            leq[s:s + rows] &= (word[s:s + rows, None] & outside) == 0
    return leq


def refinement_order(parts):
    """Set partitions, each a sequence of blocks, ordered by refinement:
    leq[a, b] when every block of parts[a] lies inside a block of
    parts[b], that is, when every pair of points sharing a block of
    parts[a] shares one of parts[b], the inclusion of those pair sets."""
    return inclusion_order([[(x, y) for block in p for x in block
                             for y in block if x != y] for p in parts])


def covers_of(leq):
    """Cover matrix: cover[a, b] iff a < b with nothing strictly between.

    The strict up-sets are packed 64 to a word, so that the elements
    above something above a, the OR of the up-sets of everything above
    a, read n / 64 words a row."""
    n = len(leq)
    strict = leq & ~np.eye(n, dtype=bool)
    words = _packed(strict)
    beyond = np.zeros_like(words)
    for a, up in enumerate(strict):
        np.bitwise_or.reduce(words[up], axis=0, out=beyond[a])
    return strict & ~np.unpackbits(beyond.view(np.uint8), axis=1, count=n,
                                   bitorder="little").astype(bool)


def linear_extension(leq):
    """Ids by the number of elements below them, ties by id, so that
    smaller elements come first."""
    return np.argsort(leq.sum(0), kind="stable").tolist()


def bottom_of(leq):
    ids = np.flatnonzero(leq.all(1))
    return int(ids[0]) if len(ids) == 1 else None


def top_of(leq):
    ids = np.flatnonzero(leq.all(0))
    return int(ids[0]) if len(ids) == 1 else None


def join_table(leq):
    """Least-upper-bound table, or raise at the first pair (a, b), a <= b
    as ids, that has no join.

    Of the common upper bounds, the least one, if any, has the largest
    up-set, so that one is taken and checked to lie below all the
    others.
    """
    n = len(leq)
    height = leq.sum(1)
    join = np.empty((n, n), dtype=np.int64)
    for a in range(n):
        ubs = leq[a:] & leq[a]            # row i: upper bounds of a, a + i
        best = np.where(ubs, height, -1).argmax(1)
        ok = ubs[np.arange(n - a), best] & ~(ubs & ~leq[best]).any(1)
        if not ok.all():
            raise AxiomViolationError("pair has no unique join",
                                      witness=(a, a + int(ok.argmin())))
        join[a, a:] = join[a:, a] = best
    return join


def rank_function(cover, order):
    """Ranks if the poset is graded, else None.

    The rank of an element is the length of the longest chain of covers
    up to it, read along the linear extension `order` from the lists of
    lower covers; graded means every cover raises it by exactly one.
    """
    lo, hi = np.nonzero(cover)
    below = [[] for _ in order]
    for a, b in zip(lo.tolist(), hi.tolist()):
        below[b].append(a)
    rank = [0] * len(order)
    for b in order:
        if below[b]:
            rank[b] = max(rank[a] for a in below[b]) + 1
    graded = (np.take(rank, hi) == np.take(rank, lo) + 1).all()
    return rank if graded else None


def moebius_row(leq, order, a):
    """mu(a, b) for every b >= a, as a dict b -> mu(a, b) in the order
    of the linear extension `order`.

    mu(a, a) = 1 and mu(a, b) = -(sum of mu(a, z) over a <= z < b); the
    values are Python ints.
    """
    up = leq[a]
    mu = {}
    for b in np.asarray(order)[up[order]].tolist():
        if b == a:
            mu[b] = 1
            continue
        inside = up & leq[:, b]
        inside[b] = False
        mu[b] = -sum(mu[z] for z in np.flatnonzero(inside).tolist())
    return mu


@dataclass(eq=False)
class Poset:
    """A finite poset with a bottom and a top: the label of each id,
    the order `leq` and a name for errors.  Building one finds the
    bottom and the top and runs `check`; the rest is derived on first
    read, once: the cover matrix `cover`, the up-cover lists `covers`
    (covers[a] the ids that cover a, ascending), the join-irreducibles
    `join_irreducibles`, a linear extension `order`, `rank` (None unless
    graded), the `join` table, the Moebius rows and the label index of
    `index_of`.
    """

    labels: tuple
    leq: np.ndarray
    name: str

    def __post_init__(self):
        self.labels = tuple(self.labels)
        self.bottom = bottom_of(self.leq)
        self.top = top_of(self.leq)
        self._mu = {}
        self.check()

    def check(self):
        """Raise unless the order has a bottom and a top; a poset that
        checks more, or raises another error, overrides this."""
        if self.bottom is None or self.top is None:
            raise MalformedInputError(
                f"{self.name} lacks a unique bottom or top")

    @classmethod
    def from_covers(cls, labels, pairs, name="poset"):
        """The poset generated by cover pairs [a, b], a below b, given by
        label, each label made a string (`order_from_covers`)."""
        labels = [str(x) for x in labels]
        return cls(labels, order_from_covers(labels, pairs), name)

    @classmethod
    def grid(cls, p, q):
        """The grid {0..p} x {0..q} by components, refused for a negative
        side or over LATTICE_CAP elements before any is listed."""
        if p < 0 or q < 0:
            raise MalformedInputError(f"grid({p},{q}) needs sides >= 0")
        if (p + 1) * (q + 1) > LATTICE_CAP:
            raise SizeGuardError(f"grid({p},{q}) has {(p + 1) * (q + 1)} "
                                 f"elements, above the cap {LATTICE_CAP}")
        i, j = np.divmod(np.arange((p + 1) * (q + 1)), q + 1)
        labels = [f"({a},{b})" for a, b in zip(i.tolist(), j.tolist())]
        return cls(labels, (i[:, None] <= i) & (j[:, None] <= j),
                   f"grid({p},{q})")

    @property
    def size(self):
        return len(self.labels)

    @property
    def n(self):
        """The rank of the top; the poset must be graded."""
        if self.rank is None:
            raise PreconditionError(f"{self.name} is not graded")
        return self.rank[self.top]

    @cached_property
    def cover(self):
        return covers_of(self.leq)

    @cached_property
    def join_irreducibles(self):
        """The ids with exactly one lower cover, ascending: in a lattice,
        the join-irreducibles."""
        return np.flatnonzero(self.cover.sum(0) == 1)

    @cached_property
    def covers(self):
        return [np.flatnonzero(row).tolist() for row in self.cover]

    @cached_property
    def order(self):
        return linear_extension(self.leq)

    @cached_property
    def rank(self):
        return rank_function(self.cover, self.order)

    @cached_property
    def join(self):
        return join_table(self.leq)

    def moebius(self, a, b):
        """The Moebius function, 0 unless a <= b; row a is read once."""
        if a not in self._mu:
            self._mu[a] = moebius_row(self.leq, self.order, a)
        return self._mu[a].get(b, 0)

    def coatoms(self):
        """The ids covered by the top."""
        return np.flatnonzero(self.cover[:, self.top]).tolist()

    @cached_property
    def _index(self):
        return {label: i for i, label in enumerate(self.labels)}

    def index_of(self, label):
        try:
            return self._index[label]
        except KeyError:
            raise MalformedInputError(
                f"{self.name} has no element {label!r}") from None


def flat_lattice(system, name):
    """The flats of a closure system, listed by rank, as a Poset ordered
    by inclusion, whose join table is the flat join.

    A lattice of flats is graded by the rank of the system, so its
    ranks are the system's ranks of the flats and G is covered by F
    exactly when G < F and rank F = rank G + 1: both are read that way,
    not derived from the order by `covers_of` and `rank_function`."""
    flats = system.flats()
    leq = inclusion_order(flats)
    lattice = Poset([system.flat_label(f) for f in flats], leq, name)
    rank = np.array([system.rank(f) for f in flats])
    # filled in place of the derived cached properties
    lattice.rank = rank.tolist()
    lattice.cover = leq & (rank[:, None] + 1 == rank)
    return lattice


def partition_label(blocks):
    """A set partition named by its blocks, each sorted, in order of
    their least points: 1,3/2."""
    return "/".join(",".join(map(str, sorted(b)))
                    for b in sorted(blocks, key=min))


def set_partitions(items):
    """All partitions of a sequence, each a tuple of tuple blocks."""
    if not items:
        yield ()
        return
    head, rest = items[0], items[1:]
    for part in set_partitions(rest):
        yield ((head,),) + part
        for i, block in enumerate(part):
            yield part[:i] + ((head,) + block,) + part[i + 1:]
