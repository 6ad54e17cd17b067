"""Finite partial orders, and the enumeration of set partitions.

A partial order on the ids 0..n-1 is given as a square, C-contiguous
numpy bool array ``leq``, ``leq[a, b]`` meaning a <= b: the constructor
argument of every order, and the form that array readers use.  A
bounded poset has one type, `Poset`: the support lattices, the expected
lattices, the derangement posets and the distributive lattices are all
Posets.  This module is the one place that derives anything from an
order.

Everything past a bottom, a top and a linear extension (each one array
expression) is read from one packed form, `UpSets`, taken off ``leq``
by one `np.packbits` pass with the columns in linear-extension order:
the up-set of each id as uint64 words and as a Python int, and, on
first read, the ids above and below each id as lists, each cut from one
np.nonzero of the order.  Bit i of the up-set of a stands for
the i-th id of the linear extension, so everything above a comes after
a's own bit.  From it, with no numpy call per element:

- `covers_of`, the up-covers: the lowest set bit of the strict up-set
  of a is a cover, and dropping the up-set of each cover found leaves
  the next one lowest;
- `rank_function`, along the covers;
- `moebius_row`, mu(a, b) = -(sum of mu(a, z) over the z of the down
  list of b already in row a), b along the up list of a;
- `join_table`, the lowest set bit of up(a) & up(b), a block of rows
  of words at a time, certified by up(join) == up(a) & up(b): the least
  upper bound comes first among the upper bounds in any linear
  extension, and the certificate fails exactly when there is no join;
- `check_partial_order`, which runs before any order is trusted:
  transitivity as the OR of the up-sets of up(a) being up(a), over the
  up-sets as Python ints in id order.

The inclusion and refinement orders come from holder masks: the items
holding each point (the pairs of points sharing a block, for
partitions) as a Python int, and up(a) is the AND of the holder masks
of a's points.  The one transitive closure (`order_from_covers`) and
the lattice of flats of a closure system (`flat_lattice`, whose covers
and ranks come from the system's ranks) live here too, and so do set
partitions: their enumeration and labels.
"""

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import accumulate, pairwise
from operator import or_

import numpy as np

from .errors import (AxiomViolationError, MalformedInputError,
                     PreconditionError, SizeGuardError)

# the most elements a lattice factory or a cover list builds; its leq
# matrix has the square of that many entries
LATTICE_CAP = 4096

# the most uint64 words one block of the join table reads at a time
JOIN_BLOCK_WORDS = 1 << 16


def _two_way_pair(leq):
    """The first (a, b) in row-major order with a != b, a <= b and
    b <= a, or None."""
    both = leq & leq.T
    np.fill_diagonal(both, False)
    pairs = np.argwhere(both)
    return tuple(map(int, pairs[0])) if len(pairs) else None


def _packed(rows):
    """The bool matrix `rows` packed 64 columns to a uint64 word."""
    n, m = rows.shape
    words = np.zeros((n, -(-m // 64)), dtype=np.uint64)
    words.view(np.uint8)[:, :-(-m // 8)] = np.packbits(rows, axis=1,
                                                       bitorder="little")
    return words


def _row_ints(words):
    """Each row of a packed matrix as a Python int, its first column
    the lowest bit."""
    raw = words.tobytes()
    width = words.shape[1] * words.itemsize
    return [int.from_bytes(raw[i * width:(i + 1) * width], "little")
            for i in range(len(words))]


def _split(flat, counts):
    """The list `flat` cut into consecutive runs of the given lengths."""
    return [flat[s:e] for s, e in pairwise(accumulate(counts, initial=0))]


class UpSets:
    """An order packed by up-sets, with its bits in the order `order`, a
    permutation of the ids: `words[a]`, the up-set of a as uint64 words
    with bit i set when a <= order[i], from one packbits pass, and
    `masks[a]`, the same bits as a Python int; then, on first read,
    `ups[a]` and `downs[a]`, the ids above and below a (a itself
    included) in the order of `order`, each list cut from one np.nonzero
    of the order."""

    def __init__(self, leq, order):
        self.order = list(order)
        self._leq = leq
        self._ids = np.asarray(self.order, dtype=np.intp)
        self.words = _packed(leq.take(self._ids, axis=1))
        self.masks = _row_ints(self.words)

    @cached_property
    def ups(self):
        cols = self._leq.take(self._ids, axis=1)
        return _split(self._ids[np.nonzero(cols)[1]].tolist(),
                      self._leq.sum(1, dtype=np.int32).tolist())

    @cached_property
    def downs(self):
        rows = self._leq.take(self._ids, axis=0)
        return _split(self._ids[np.nonzero(rows.T)[1]].tolist(),
                      self._leq.sum(0, dtype=np.int32).tolist())


def check_partial_order(leq):
    """Raise unless leq is reflexive, antisymmetric and transitive.

    The witness is the first element off the diagonal, the first
    two-way pair in row-major order, or the lexicographically first
    (a, b, c) with a <= b <= c and not a <= c: transitivity asks that
    up(b) lie inside up(a) for every b in up(a), that is, that the OR of
    the up-sets of up(a), Python ints in id order, be up(a).
    """
    loose = np.flatnonzero(~leq.diagonal())
    if len(loose):
        raise AxiomViolationError("order not reflexive",
                                  witness=(int(loose[0]),))
    pair = _two_way_pair(leq)
    if pair is not None:
        raise AxiomViolationError("order not antisymmetric", witness=pair)
    masks = _row_ints(_packed(leq))
    ups = _split(np.nonzero(leq)[1].tolist(),
                 leq.sum(1, dtype=np.int32).tolist())
    for a, up in enumerate(ups):
        if reduce(or_, map(masks.__getitem__, up)) != masks[a]:
            outside = ~masks[a]
            b = next(b for b in up if masks[b] & outside)
            beyond = masks[b] & outside
            c = (beyond & -beyond).bit_length() - 1
            raise AxiomViolationError("order not transitive",
                                      witness=(a, b, c))


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


def _holder_order(holds, needs):
    """The order on the items 0..n-1, n = len(holds), in which up(a) is
    the AND over the keys k of needs[a] of the holder mask of k, the
    items b whose holds[b] has k, a Python int.  Every key needed is
    held by its own item, and an item that needs no key lies below
    all."""
    holders = {}
    for b, keys in enumerate(holds):
        bit = 1 << b
        for k in keys:
            holders[k] = holders.get(k, 0) | bit
    n = len(holds)
    width = (n + 7) // 8
    ups = []
    for keys in needs:
        up = (1 << n) - 1
        for k in keys:
            up &= holders[k]
        ups.append(up.to_bytes(width, "little"))
    rows = np.frombuffer(b"".join(ups), dtype=np.uint8).reshape(n, width)
    return np.unpackbits(rows, axis=1, count=n,
                         bitorder="little").view(bool)


def inclusion_order(sets):
    """Sets ordered by inclusion: up(a), the sets holding a, is the AND
    of the holder masks of a's points."""
    return _holder_order(sets, sets)


def refinement_order(parts):
    """Set partitions, each a sequence of blocks, ordered by refinement:
    a <= b when every block of a lies inside a block of b, that is, when
    b puts the first point of each block of a together with each other
    point of it.  The holder mask of a pair of points is the partitions
    that share a block between them."""
    holds = [[(x, y) for block in p for x in block for y in block if x != y]
             for p in parts]
    needs = [[(block[0], y) for block in p for y in block[1:]]
             for p in parts]
    return _holder_order(holds, needs)


def linear_extension(leq):
    """Ids by the number of elements below them, ties by id, so that
    smaller elements come first."""
    return np.argsort(leq.sum(0, dtype=np.int32), kind="stable").tolist()


def bottom_of(leq):
    ids = np.flatnonzero(leq.all(1))
    return int(ids[0]) if len(ids) == 1 else None


def top_of(leq):
    ids = np.flatnonzero(leq.all(0))
    return int(ids[0]) if len(ids) == 1 else None


def covers_of(packed):
    """The up-cover lists, covers[a] the ids that cover a, ascending, of
    an order packed in a linear extension (`UpSets`).

    The lowest bit of the strict up-set of a is a minimal element above
    a, a cover; dropping the up-set of each cover found leaves the next
    minimal element lowest, so each cover costs one AND of words."""
    order, masks = packed.order, packed.masks
    covers = []
    for m in masks:
        rest = m & (m - 1)      # a's own bit is the lowest of its up-set
        found = []
        while rest:
            c = order[(rest & -rest).bit_length() - 1]
            found.append(c)
            rest &= ~masks[c]
        covers.append(sorted(found))
    return covers


def join_table(packed):
    """Least-upper-bound table, or raise at the first pair (a, b), a <= b
    as ids, that has no join, of an order packed in a linear extension.

    The least upper bound comes first among the upper bounds in a linear
    extension, so the join of a and b is the lowest set bit of up(a) &
    up(b), certified by up(join) == up(a) & up(b); with no join, the
    lowest common upper bound, or the last id when there is none, fails
    the certificate.  Rows a..a + k - 1 are read against the ids from a
    on, at most JOIN_BLOCK_WORDS words a block.
    """
    words = packed.words
    order = np.asarray(packed.order, dtype=np.int64)
    n, width = words.shape
    join = np.empty((n, n), dtype=np.int64)
    step = max(1, JOIN_BLOCK_WORDS // max(1, n * width))
    for s in range(0, n, step):
        e = min(s + step, n)
        common = words[s:e, None] & words[None, s:]
        first = (common != 0).argmax(2)[..., None]
        word = np.take_along_axis(common, first, 2)[..., 0]
        low = word & (~word + np.uint64(1))
        # the exponent of a power of two, exact in a float64
        bit = np.frexp(low.astype(np.float64))[1] - 1
        best = order[first[..., 0] * 64 + bit]
        ok = (words[best] == common).all(2)
        if not ok.all():
            # (a, b) fails exactly when (b, a) does, so the first
            # failure in row-major order has a <= b
            i, j = np.argwhere(~ok)[0].tolist()
            raise AxiomViolationError("pair has no unique join",
                                      witness=(s + i, s + j))
        join[s:e, s:] = best
        join[s:, s:e] = best.T
    return join


def rank_function(covers, order):
    """Ranks if the poset is graded, else None.

    The rank of an element is the length of the longest chain of covers
    up to it, read along the linear extension `order` from the up-cover
    lists; graded means every cover raises it by exactly one.
    """
    rank = [0] * len(order)
    for a in order:
        up = rank[a] + 1
        for c in covers[a]:
            if rank[c] < up:
                rank[c] = up
    graded = all(rank[c] == rank[a] + 1
                 for a in order for c in covers[a])
    return rank if graded else None


def moebius_row(packed, a):
    """mu(a, b) for every b >= a, as a dict b -> mu(a, b) in the order
    of the linear extension.

    mu(a, a) = 1 and mu(a, b) = -(sum of mu(a, z) over a <= z < b): the
    z of the down list of b already in the row, since every such z
    comes before b; the values are Python ints.
    """
    up, downs = packed.ups[a], packed.downs
    mu = {a: 1}
    for b in up[1:]:
        mu[b] = -sum(mu[z] for z in downs[b] if z in mu)
    return mu


@dataclass(eq=False)
class Poset:
    """A finite poset with a bottom and a top: the label of each id,
    the order `leq` and a name for errors.  Building one finds the
    bottom and the top and runs `check`; the rest is derived on first
    read, once: a linear extension `order`, the packed form `packed`
    (`UpSets`: up-set words and masks in the bits of `order`, up and
    down lists), and from it the up-cover lists `covers` (covers[a] the
    ids that cover a, ascending, off the masks), the join-irreducibles
    `join_irreducibles` and `rank` (None unless graded), both along the
    covers, the `join` table (off the words, each entry certified by
    up(join) == up(a) & up(b)) and the Moebius rows (off the up and down
    lists); the label index of `index_of`; and, through `derived`, any
    value another module computes from the poset.
    """

    labels: tuple
    leq: np.ndarray
    name: str

    def __post_init__(self):
        self.labels = tuple(self.labels)
        self.bottom = bottom_of(self.leq)
        self.top = top_of(self.leq)
        self._mu = {}
        self._derived = {}
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
    def order(self):
        return linear_extension(self.leq)

    @cached_property
    def packed(self):
        return UpSets(self.leq, self.order)

    @cached_property
    def covers(self):
        return covers_of(self.packed)

    @cached_property
    def join_irreducibles(self):
        """The ids with exactly one lower cover, ascending: in a lattice,
        the join-irreducibles."""
        lower = np.bincount(
            np.array([c for up in self.covers for c in up], dtype=np.intp),
            minlength=self.size)
        return np.flatnonzero(lower == 1)

    @cached_property
    def rank(self):
        return rank_function(self.covers, self.order)

    @cached_property
    def join(self):
        return join_table(self.packed)

    def moebius(self, a, b):
        """The Moebius function, 0 unless a <= b; row a is read once."""
        if a not in self._mu:
            self._mu[a] = moebius_row(self.packed, a)
        return self._mu[a].get(b, 0)

    def derived(self, fn):
        """fn(self), computed on the first call and kept for this poset,
        so that what another module reads off the order (the derangement
        routes, say) runs once per poset however often it is asked for;
        a value that raises is not kept.  The caller keeps the value
        immutable or hands out copies."""
        if fn not in self._derived:
            self._derived[fn] = fn(self)
        return self._derived[fn]

    def coatoms(self):
        """The ids covered by the top."""
        return [a for a, up in enumerate(self.covers) if self.top in up]

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
    not derived from the order by `covers_of` and `rank_function`.  The
    flats of each rank are a run of ids, so the covers of the flats of
    one rank are read off one block of the order."""
    flats = system.flats()
    leq = inclusion_order(flats)
    lattice = Poset([system.flat_label(f) for f in flats], leq, name)
    rank = [system.rank(f) for f in flats]
    # the flats of rank r are the ids first[r] to first[r + 1] - 1
    first = [bisect_left(rank, r) for r in range(rank[-1] + 3)]
    covers = []
    for lo, mid, hi in zip(first, first[1:], first[2:]):
        block = leq[lo:mid, mid:hi]
        covers += _split((np.nonzero(block)[1] + mid).tolist(),
                         block.sum(1).tolist())
    # filled in place of the derived cached properties
    lattice.rank = rank
    lattice.covers = covers
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
