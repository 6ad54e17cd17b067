"""The worked family of left-regular bands.

free_lrb(n)              injective tuples over {1..n}, concatenate and
                         drop repeats; support = underlying set
free_lrb_bar(n)          ordered partitions of {1..n} with every block a
                         singleton except possibly the last; the image
                         of free_lrb(n) under forgetting order inside
                         the final block
ordered_partitions(n)    all ordered set partitions of {1..n}; blockwise
                         intersection product; support = unordered
                         partition
q_free_lrb(n, q)         linearly independent tuples of vectors in
                         GF(q)^n; support = span
q_free_lrb(n, q, True)   chains of subspaces 0 = X_0 < ... < X_l = V
                         with dim X_i = i below the last step
matroid_lrb(M, kind)     ordered independent tuples of a matroid
                         ("ordered-bases") or chains of flats with full
                         ranks below the last step ("flag-chains")
distributive_chain_lrb   chains from bottom to top of a finite
                         distributive lattice, multiplied by refining
                         each step of the left factor through the right

The q-analogues are the two matroid bands of one closure system,
fields.VectorSpace(q, n): its points are the nonzero vectors and its
flats the subspaces.  `_closure_tuples` and `_closure_chains` build the
tuple band and the flag-chain band of a Matroid or a VectorSpace alike;
`q_free_lrb` and `matroid_lrb` only count, name and label them.  They
read a closure system through its ground labels, `n`, and its flats,
listed by rank, with their labels: the first flat holding a set is its
closure, so the lattice of flats answers the rest, ranks and joins.

Every constructor attaches the generating set it is usually driven by
and an ExpectedLattice describing what the derived support lattice must
be isomorphic to: a `posets.Poset` of named flats, ordered by inclusion
(`posets.inclusion_order`) or by refinement (`posets.refinement_order`),
with each element's flat as an index into the names.  The input of a
distributive chain band, a `DistributiveLattice`, is a Poset too.

Every constructor counts its elements before it lists any, and that
count is its one check against the elements cap (`guards.check_counts`).

Each band has one product implementation, an integer kernel, which
serves its `Semigroup.rows(ids)`: elements become integer vectors,
stored as mixed-radix integer codes; the products of the requested rows
are computed over numpy arrays, one block of rows at a time, and
`coded_products` looks their codes up, in an id array over the whole
code space where that is at most DENSE_CODES_PER_ELEMENT codes per
element and among the sorted element codes past it, rejecting a
product outside the list.

`braid_rows` serves the first three, bands of faces of the braid
arrangement, and the distributive chain bands, which are sub-bands of
them by Birkhoff's theorem (see `distributive_chain_lrb`).  A face on
{1..n} becomes its block-index vector v, v[x-1] = index of the block
holding x; a free-LRB word becomes its position vector, v[x-1] =
position of x in the word, with absent letters in a trailing sentinel
block v[x-1] = n.  The product of u and v is then the lexicographic
rank of the pairs (u[x], v[x]) among the pairs present, except that a
letter absent from both factors stays in the sentinel block.  The
kernel ranks without sorting, block by block of the left factor: a
singleton block of u adds a constant to the code of u v, and any other
block B, or u's set of absent letters, adds rows of its restriction
tables, indexed by the letter set B and holding for every right factor
v the code of v's dense ranks on B, their count, and for absent sets
the place weight of the letters v holds.  A band has a few dozen such
letter sets (26 for S_5, 32 for free_lrb(5)), so each product row is a
handful of table rows added together.

`closure_rows` serves the bands of a closure system.  Its flats are
numbered once per band, bottom first, with small integer tables for
the join of a flat with another flat, the join table of the flats as a
`posets.Poset` (`posets.flat_lattice`), and with a point, the join with
the point's flat; a tuple becomes its point ids and a chain its flat
ids, and each product runs a fixed number of table lookups.

One walker, `_chains`, lists every chain band, the flag chains of a
closure system and the chains of a distributive lattice, once its count
is refused over the cap: the flag chains are counted in Python ints
over the cover lists, and the chains of a distributive lattice, which
step to any element above, over bool rows of an object array.
Birkhoff's ideals of join-irreducibles both certify a distributive
lattice and code its chain band (see `DistributiveLattice`).
"""

import itertools
import math

import numpy

from . import fields, posets
from .core import ExpectedLattice, Semigroup, spec_int
from .errors import AxiomViolationError, MalformedInputError, SizeGuardError
from .guards import DEFAULT_GUARDS, check_counts
from .matroid import Matroid, build_matroid


# ---------------------------------------------------------------- free


def _tuple_key(t):
    return ",".join(map(str, t)) if t else "e"


def _words(count):
    """a(1), a(2), ... for a(k) = k a(k-1) + 1 and a(0) = count: 1 for
    the words of free_lrb, 0 for the faces of free_lrb_bar."""
    for k in itertools.count(1):
        count = k * count + 1
        yield count


def _ordered_bell():
    """The ordered Bell numbers f(1), f(2), ...: by the size j of the
    first block, f(m) = sum_j C(m, j) f(m - j)."""
    f = [1]
    for m in itertools.count(1):
        f.append(sum(math.comb(m, j) * f[m - j] for j in range(1, m + 1)))
        yield f[m]


def face_count(n, cap=math.inf):
    """The faces of ordered_partitions(n), the ordered set partitions of
    {1..n}, refused over `cap` by `check_counts`."""
    return check_counts(f"ordered_partitions({n})", _ordered_bell(), cap, n)


# ------------------------------------------------------ table kernels


# array elements per numpy temporary while tabulating: small enough that
# the temporaries add little to peak memory, large enough to amortize
# calls
TABLE_CHUNK = 2 ** 15

# product codes map to ids through an array over the whole code space
# while it holds at most this many codes per element, and through a
# search of the sorted element codes past that
DENSE_CODES_PER_ELEMENT = 64


def coded_products(codes, keys, width, product_codes, space=None,
                   order=None):
    """The product rows of a band whose elements carry integer codes.

    codes: integer code of each element, in id order.  product_codes(us)
    gives the codes of the products of the elements at the index array
    us with every element, shape (len(us), size); a pair costs about
    `width` array elements.  Returns rows(ids), the int32 ids of those
    products for the elements at ids, filled one block of about
    TABLE_CHUNK array elements at a time; a product outside the list is
    malformed input naming its pair, the first in row-major order.

    space: a bound on the product codes, all in range(space); an int32
    array over that range then reads the ids, as long as it holds at
    most DENSE_CODES_PER_ELEMENT codes per element, and otherwise (or
    without a bound) the sorted element codes are searched.  order: a
    callable giving, for the ids of one rows call, the order in which
    their rows are computed, which each block hands to product_codes.
    """
    size = len(codes)
    if space is not None and space <= DENSE_CODES_PER_ELEMENT * size:
        id_of = numpy.full(space, -1, dtype=numpy.int32)
        id_of[codes] = numpy.arange(size, dtype=numpy.int32)

        def lookup(got):
            return id_of.take(got)
    else:
        by_code = numpy.argsort(codes).astype(numpy.int32)
        sorted_codes = codes[by_code]

        def lookup(got):
            at = numpy.minimum(numpy.searchsorted(sorted_codes, got),
                               size - 1)
            ids = by_code.take(at)
            ids[sorted_codes.take(at) != got] = -1
            return ids

    def rows(ids):
        ids = numpy.asarray(ids, dtype=numpy.intp)
        out = numpy.empty((len(ids), size), dtype=numpy.int32)
        block = max(1, TABLE_CHUNK // (size * width))
        sequence = None if order is None else order(ids)
        missing = False
        for lo in range(0, len(ids), block):
            at = slice(lo, lo + block) if sequence is None \
                else sequence[lo:lo + block]
            got = lookup(product_codes(ids[at]))
            missing |= bool(got.min() < 0)
            out[at] = got
        if missing:
            i, j = numpy.argwhere(out < 0)[0]
            raise MalformedInputError(
                "product leaves the element list: "
                f"{keys[ids[i]]} * {keys[j]}")
        return out

    return rows


def face_vector(blocks, n):
    """Block-index vector of an ordered partition of {1..n}: entry
    x - 1 is the index of the block holding x."""
    v = [0] * n
    for b, block in enumerate(blocks):
        for x in block:
            v[x - 1] = b
    return v


def _word_vector(word, n):
    """Position vector of an injective word; absent letters get n."""
    v = [n] * n
    for pos, x in enumerate(word):
        v[x - 1] = pos
    return v


def braid_rows(vectors, keys):
    """The product rows of a band of braid faces or words.

    vectors: one vector per element, in id order, with entries in 0..n:
    a block-index vector, a position vector with absent letters at n,
    or a mix of the two, stored as the base-(n+1) code sum_x v[x] P_x,
    P_x = (n+1)^(n-1-x).  Entry x of a product u v is the dense rank of
    the pair (u[x], v[x]) among the pairs of its row, and n for the
    pair (n, n) of a letter absent from both.

    Split the letters into u's blocks by value, ascending, with the
    letters at n, u's absent set G, last.  Entry x of a letter in the
    block B is the number of distinct values that v takes on the blocks
    before B, plus the dense rank of v[x] among v's values on B.  So
    each product code is a constant c_u, from u's singleton blocks,
    plus rows of the restriction tables of u's other blocks and of G,
    which hold, for a letter set B and every right factor v at once:
    the local code L_B(v) = sum over x in B of that rank times P_x; the
    distinct-value count N_B(v); and, for G, the place weight Q_G(v) of
    the letters of G present in v, whose L_G ranks only the values
    below n and puts n P_x for the others.  With T_B the place weight
    of the letters after B outside G, the code of u v is

        c_u + sum_B (L_B(v) + N_B(v) T_B)
            + L_G(v) + Q_G(v) (m_u + sum_B N_B(v)),

    the sums over u's blocks of two or more letters, where c_u sums T
    over u's singleton blocks and m_u counts them.  Each table is built
    over every element on the first rows call that needs its letter
    set, in int32 while (n+1)^n < 2^31 (n <= 9), and the rows are
    computed in descending number of blocks, absent letters breaking
    ties, so that each step runs over a prefix of a block of rows.
    `coded_products` reads the ids off the dense array over the
    (n+1)^n codes where that is small enough.
    """
    vecs = numpy.asarray(vectors, dtype=numpy.int64)
    size, n = vecs.shape
    if (n + 1) ** n >= 2 ** 63:
        raise SizeGuardError(f"{n} letters in radix {n + 1} overflow int64")
    space = (n + 1) ** n
    dtype = numpy.int32 if space < 2 ** 31 else numpy.int64
    powers = (n + 1) ** numpy.arange(n - 1, -1, -1, dtype=numpy.int64)
    kernel = {}

    def tables(sets, at):
        # the letter sets met (bit x - 1 for letter x), each element's
        # index into them, built flags, L, and N or Q; a set's rows are
        # zero until it is built, as the empty absent set's stay
        return (sets, at, numpy.zeros(len(sets), dtype=bool),
                numpy.zeros((len(sets), size), dtype=dtype),
                numpy.zeros((len(sets), size), dtype=dtype))

    def distinct(sets):
        # the letter sets met, ascending, and the index of each among them
        met = numpy.zeros(1 << n, dtype=bool)
        met[sets] = True
        return numpy.flatnonzero(met), (numpy.cumsum(met) - 1)[sets]

    def setup():
        # each element's letter set, place weight and size per value 0..n
        weigh = numpy.stack([1 << numpy.arange(n, dtype=numpy.int64),
                             powers, numpy.ones(n, dtype=numpy.int64)])
        per_value = numpy.zeros((3, size * (n + 1)), dtype=numpy.int64)
        cells = vecs + numpy.arange(0, size * (n + 1), n + 1)[:, None]
        for x in range(n):
            # one cell of each row per letter, so no index repeats
            per_value[:, cells[:, x]] += weigh[:, x, None]
        sets, place, count = per_value.reshape(3, size, n + 1)
        single, wide = count[:, :n] == 1, count[:, :n] > 1
        # T: the place weight of the present letters after each block
        after = place[:, :n].cumsum(axis=1)
        after = after[:, -1:] - after
        slots = wide.sum(axis=1)
        has_absent = sets[:, n] != 0
        kernel.update(const=(after * single).sum(axis=1).astype(dtype),
                      singles=single.sum(axis=1).astype(dtype),
                      slots=slots, has_absent=has_absent,
                      shape=-(2 * slots + has_absent))
        if slots.any():
            # each element's wide blocks in order, by value: slot k holds
            # the k-th of them
            row, value = numpy.nonzero(wide)
            k = numpy.cumsum(wide, axis=1)[row, value] - 1
            wide_sets, at = distinct(sets[row, value])
            slot = numpy.zeros((size, slots.max()), dtype=numpy.intp)
            slot[row, k] = at
            slot_after = numpy.zeros(slot.shape, dtype=dtype)
            slot_after[row, k] = after[row, value]
            kernel.update(held=numpy.arange(slot.shape[1]) < slots[:, None],
                          after=slot_after,
                          blocks=tables(wide_sets, slot))
        if has_absent.any():
            kernel["absent"] = tables(*distinct(sets[:, n]))

    def restrict(kind, fresh):
        # fill the rows at `fresh` of the blocks' or the absent sets'
        # tables, a few letter sets at a time; a rank is the number of
        # bits of the set's value mask below the value, read off a table
        # of popcounts
        sets, _, built, local, count = kernel[kind]
        absent = vecs == n
        bits = 1 << vecs
        if kind == "absent":
            bits[absent] = 0
        below = bits - 1
        ones = numpy.zeros(1, dtype=numpy.int64)
        for _ in range(n + 1):
            ones = numpy.concatenate([ones, ones + 1])
        step = max(1, TABLE_CHUNK // size)
        for lo in range(0, len(fresh), step):
            at = fresh[lo:lo + step]
            member = (sets[at, None] >> numpy.arange(n)) & 1
            seen = numpy.zeros((len(at), size), dtype=numpy.int64)
            for x in range(n):
                seen |= member[:, x, None] * bits[:, x]
            code = numpy.zeros((len(at), size), dtype=numpy.int64)
            for x in range(n):
                rank = ones.take(seen & below[:, x])
                if kind == "absent":
                    rank[:, absent[:, x]] = n
                code += rank * (member[:, x, None] * powers[x])
            local[at] = code
            count[at] = member @ (~absent * powers).T if kind == "absent" \
                else ones.take(seen)
        built[fresh] = True

    def order(ids):
        if not kernel:
            setup()
        for kind, held in (("blocks", "held"), ("absent", "has_absent")):
            if kind in kernel:
                sets, at, built, _, _ = kernel[kind]
                fresh = numpy.zeros(len(sets), dtype=bool)
                fresh[at[ids][kernel[held][ids]]] = True
                fresh = numpy.flatnonzero(fresh & ~built)
                if fresh.size:
                    restrict(kind, fresh)
        return numpy.argsort(kernel["shape"][ids])

    def product_codes(us):
        # us come in descending shape: rows with a j-th block of two or
        # more letters first, then among equals those with absent
        # letters, so each step below runs over a prefix of the rows
        k = kernel
        code = numpy.empty((len(us), size), dtype=dtype)
        code[:] = k["const"][us, None]
        slots = k["slots"][us]
        has_absent = k["has_absent"][us]
        g = len(us) - int(numpy.argmax(has_absent[::-1])) \
            if has_absent.any() else 0
        total = numpy.zeros((g, size), dtype=dtype) \
            if g and slots[0] else None
        if slots[0]:
            _, slot, _, local, count = k["blocks"]
            for j in range(slots[0]):
                r = int(numpy.count_nonzero(slots > j))
                at = slot[us[:r], j]
                wide = count.take(at, axis=0)
                code[:r] += local.take(at, axis=0)
                code[:r] += wide * k["after"][us[:r], j, None]
                if total is not None:
                    total[:r] += wide[:g]
        if g:
            _, at, _, local, weight = k["absent"]
            at = at[us[:g]]
            factor = k["singles"][us[:g], None]
            if total is not None:
                factor = factor + total
            code[:g] += local.take(at, axis=0)
            code[:g] += weight.take(at, axis=0) * factor
        return code

    return coded_products(vecs @ powers, keys, 1, product_codes, space,
                          order)


def closure_rows(elements, keys, join, chains):
    """The product rows of a band driven by a closure operator.

    Flats are numbered 0..F-1 with the bottom flat 0, and `join` is an
    integer array with F rows: join[f, x] is the flat spanned by f and
    x.  Each element, a sequence of ints, is padded to the longest with
    the value P = join.shape[1], a step that joins to nothing new, and
    coded in mixed radix by digits that number densely the values met
    at each position, one more digit standing for every other value.

    chains=False: elements are tuples of letters, join is the point
    join F x N (P = N), and a b appends each letter x of b with
    join[f, x] != f, where f is the flat spanned so far, starting from
    the flat of a.

    chains=True: elements are chains of flat ids from bottom to top,
    join is the flat join F x F (P = F), and a b keeps a minus its last
    step, then appends the join of a's penultimate flat with each later
    member of b, dropping repeats.  Since b increases, that join equals
    the join of the previous one with the member, so both shapes run
    the same loop: one step per position of b, over every pair of a
    block of rows at once, adding each appended value's digit to the
    code of the kept prefix.  A product longer than every element is
    outside the list.
    """
    flats, pad = join.shape
    width = max(map(len, elements))
    vecs = numpy.array([list(e) + [pad] * (width - len(e)) for e in elements],
                       dtype=numpy.int64)
    size = len(vecs)
    # digit[k, v]: the value v at position k, times the place of k
    digit = numpy.empty((width, pad + 1), dtype=numpy.int64)
    radix = []
    for k, column in enumerate(vecs.T):
        seen = numpy.unique(column)
        digit[k] = len(seen)
        digit[k, seen] = numpy.arange(len(seen))
        radix.append(len(seen) + 1)
    if math.prod(radix) >= 2 ** 63:
        raise SizeGuardError(f"{width} digits in radices {radix} overflow "
                             "an int64 code")
    digit *= numpy.array([math.prod(radix[k + 1:]) for k in range(width)],
                         dtype=numpy.int64)[:, None]
    at = numpy.arange(width)
    join = numpy.hstack([join, numpy.arange(flats)[:, None]])
    length = (vecs != pad).sum(axis=1)
    if chains:
        keep = numpy.maximum(length - 1, 1)
        start = vecs[numpy.arange(size), keep - 1]
        steps = vecs[:, 1:]
    else:
        # the flat of a tuple: its letters joined into the bottom flat
        keep = length
        start = numpy.zeros(size, dtype=numpy.int64)
        for x in vecs.T:
            start = join[start, x]
        steps = vecs
    kept = digit[at, numpy.where(at < keep[:, None], vecs, pad)].sum(axis=1)
    # a value put at position k, over the pad there; a value put past the
    # longest element makes count exceed width, whatever it adds
    rise = digit - digit[:, pad:]

    def product_codes(us):
        code = numpy.repeat(kept[us][:, None], size, axis=1)
        count = numpy.repeat(keep[us][:, None], size, axis=1)
        flat = numpy.repeat(start[us][:, None], size, axis=1)
        for x in steps.T:
            joined = join[flat, x]
            new = joined != flat
            code += new * rise[numpy.minimum(count, width - 1),
                               joined if chains else x]
            count += new
            flat = joined
        return numpy.where(count > width, -1, code)

    return coded_products(digit[at, vecs].sum(axis=1), keys, width + 1,
                          product_codes)


def free_lrb(n, guards=DEFAULT_GUARDS):
    """Injective tuples over {1..n} under concatenation with repeats
    dropped.  Chambers are the n! full-length tuples; the support
    lattice is the boolean lattice of subsets."""
    check_counts(f"free_lrb({n})", _words(1), guards.elements_cap, n)
    universe = range(1, n + 1)
    elements = [tuple(t) for r in range(n + 1)
                for t in itertools.permutations(universe, r)]

    label = f"free_lrb({n})"
    subsets = [c for r in range(n + 1)
               for c in itertools.combinations(universe, r)]
    expected = _expected(label, subsets, posets.inclusion_order(subsets),
                         _set_label, elements)
    return _braid_band(label, elements, n, _tuple_key, _word_vector, (),
                       [(x,) for x in universe], expected, "free_lrb")


def _set_label(t):
    return "{" + ",".join(map(str, sorted(t))) + "}"


def _expected(label, flats, leq, name, element_flats):
    """The support lattice a band claims: `flats` ordered by `leq`, each
    named by name(flat), with element x in the flat element_flats[x].
    A flat is matched by its set of members (letters, points or blocks),
    in any order, and only the flats are named."""
    index = {frozenset(f): i for i, f in enumerate(flats)}
    return ExpectedLattice(
        [name(f) for f in flats], leq, label + " expected",
        numpy.array([index[frozenset(f)] for f in element_flats]))


def _braid_band(label, elements, n, key_of, vector_of, identity,
                generators, expected, family):
    """A band of braid faces or words on {1..n}, its rows from the braid
    kernel over vector_of(element, n).  The identity and the generators
    are given on elements, not ids."""
    keys = [key_of(o) for o in elements]
    return Semigroup.from_objects(
        label, elements, keys,
        braid_rows([vector_of(o, n) for o in elements], keys),
        key_of(identity), generators=[key_of(g) for g in generators],
        expected=expected, family=family, meta={"n": n})


# ------------------------------------------------- ordered partitions


def _op_key(blocks):
    return "|".join(",".join(map(str, b)) for b in blocks)


def ordered_partitions(n, guards=DEFAULT_GUARDS):
    """All ordered set partitions of {1..n}.  The product intersects the
    right factor's blocks into the left factor's blocks in lexicographic
    order and drops empties.  Chambers are the n! all-singleton
    partitions; the support lattice is the lattice of unordered
    partitions ordered by 'is refined by'."""
    face_count(n, guards.elements_cap)
    universe = tuple(range(1, n + 1))
    elements = []
    for part in posets.set_partitions(universe):
        blocks = [tuple(sorted(b)) for b in part]
        for order in itertools.permutations(blocks):
            elements.append(tuple(order))
    elements = sorted(set(elements))

    label = f"ordered_partitions({n})"
    # blocks are sorted tuples here as in the elements; a coarser
    # partition is the lower flat
    flats = list(posets.set_partitions(universe))
    expected = _expected(
        label, flats,
        numpy.ascontiguousarray(posets.refinement_order(flats).T),
        posets.partition_label, elements)
    generators = [(tuple(sorted(c)),
                   tuple(sorted(set(universe) - set(c))))
                  for r in range(1, n)
                  for c in itertools.combinations(universe, r)]
    return _braid_band(label, elements, n, _op_key, face_vector,
                       (universe,), generators, expected,
                       "ordered_partitions")


def free_lrb_bar(n, guards=DEFAULT_GUARDS):
    """Ordered partitions of {1..n} whose blocks are singletons except
    possibly the last.  This is the quotient of free_lrb(n) that forgets
    the order inside the final block; each (n-1)-tuple is identified
    with its unique full extension.  Support lattice: subsets of size
    different from n-1."""
    check_counts(f"free_lrb_bar({n})", _words(0), guards.elements_cap, n)
    universe = tuple(range(1, n + 1))
    elements = []
    for r in range(n - 1):
        for t in itertools.permutations(universe, r):
            rest = tuple(sorted(set(universe) - set(t)))
            elements.append(tuple((x,) for x in t) + (rest,))
    for t in itertools.permutations(universe):
        elements.append(tuple((x,) for x in t))

    def support(blocks):
        head = [b[0] for b in blocks[:-1]]
        return head + list(blocks[-1]) if len(blocks[-1]) == 1 else head

    label = f"free_lrb_bar({n})"
    subsets = [c for r in range(n + 1) if r != n - 1
               for c in itertools.combinations(universe, r)]
    expected = _expected(label, subsets, posets.inclusion_order(subsets),
                         _set_label, [support(o) for o in elements])
    generators = [((x,), tuple(sorted(set(universe) - {x})))
                  for x in universe]
    if n == 1:
        generators = []
    return _braid_band(label, elements, n, _op_key, face_vector,
                       (universe,), generators, expected, "free_lrb_bar")


# -------------------------------------------------------------- chains


def _chains(steps, bottom, top):
    """The chains bottom = x_0 < ... < x_k, each step from x_i to an id
    of the list steps[x_i], each closed by top unless it ends there.
    Callers count them first, chains(a) = 1 + sum of chains(b) over b in
    steps[a], and refuse the count over the cap (`check_counts`)."""
    chains, stack = [], [(bottom,)]
    while stack:
        chain = stack.pop()
        chains.append(chain if chain[-1] == top else chain + (top,))
        stack.extend(chain + (b,) for b in steps[chain[-1]])
    return chains


# ---------------------------------------------------- closure systems


def q_free_lrb(n, q, reduced=False, guards=DEFAULT_GUARDS):
    """Vector-space analogue of the free constructions over GF(q): the
    two bands of the closure system fields.VectorSpace(q, n), whose
    points are the nonzero vectors and whose flats are the subspaces.

    reduced=False: tuples of linearly independent vectors in GF(q)^n,
    concatenation dropping vectors already in the span of the prefix.
    Support = span; lattice = all subspaces.

    reduced=True: chains of subspaces 0 = X_0 < ... < X_l = V with
    dim X_i = i for i < l.  The product of X by Y refines the last step
    of X through Y's members: X_0 < ... < X_{l-1} <= X_{l-1}+Y_1 <= ...
    with repeats dropped.  Lattice = subspaces of dimension != n-1.

    Both are counted in closed form and refused over the elements cap,
    and the q^n - 1 points of the space over posets.LATTICE_CAP
    (`fields.VectorSpace`), before the field is built.
    """
    if n < 1:
        raise MalformedInputError("q_free_lrb needs n >= 1")
    meta = {"n": n, "q": q}
    if not reduced:
        # the k-tuples number (q^n - 1)(q^n - q)...(q^n - q^(k-1))
        count = tuples = 1
        for i in range(n):
            tuples *= q ** n - q ** i
            count += tuples
        label = f"q_free_lrb({n},{q})"
        check_counts(label, [count], guards.elements_cap)
        return _closure_tuples(fields.VectorSpace(q, n), label,
                               "q_free_lrb", meta)
    # a chain with i proper steps before V is a flag of i lines in
    # successive quotients, [n][n-1]...[n-i+1] of them, where
    # [m] = 1 + q + ... + q^(m-1) counts the lines of a space of dim m
    count, flags = 0, 1
    for i in range(n):
        count += flags              # the chains with i proper steps
        flags *= sum(q ** j for j in range(n - i))
    label = f"q_free_lrb_bar({n},{q})"
    check_counts(label, [count], guards.elements_cap)
    return _closure_chains(fields.VectorSpace(q, n), label,
                           "q_free_lrb_bar", meta, "<".join,
                           guards.elements_cap)


def matroid_lrb(m, kind, guards=DEFAULT_GUARDS):
    """The two semigroups of a matroid: the bands of its closure, built
    as `q_free_lrb` builds those of a vector space.

    kind="ordered-bases": tuples of distinct elements with independent
    underlying set; products append and drop elements falling in the
    closure of the prefix; chambers are the ordered bases; the support
    lattice is the lattice of flats.

    kind="flag-chains": chains of flats bottom = X_0 < ... < X_l = top
    with rank(X_i) = i for i < l; products refine the last step through
    joins; chambers are complete flag chains; the support lattice is
    the flats of rank != r-1 (r = matroid rank).
    """
    if not isinstance(m, Matroid):
        raise MalformedInputError("matroid_lrb needs a Matroid")
    label = f"matroid_lrb({m.kind},{kind})"
    meta = {"matroid": m, "kind": kind}
    if kind == "ordered-bases":
        # each independent set I gives |I|! tuples
        count = sum(math.factorial(r) for r in range(m.full_rank + 1)
                    for s in itertools.combinations(range(m.n), r)
                    if m.is_independent(s))
        check_counts(label, [count], guards.elements_cap)
        return _closure_tuples(m, label, "matroid_lrb", meta)
    if kind == "flag-chains":
        # sorted by the tuple of flat labels, not by the key string
        return _closure_chains(m, label, "matroid_flags", meta, tuple,
                               guards.elements_cap)
    raise MalformedInputError(f"unknown matroid_lrb kind {kind!r}")


def _closure_tuples(system, label, family, meta):
    """The tuples of points of a closure system (a Matroid or a
    fields.VectorSpace), each outside the flat of those before it, under
    concatenation dropping points in that flat; sorted by point ids.
    The walk carries each tuple's flat id.  As the flats are listed by
    rank, the first one holding a set is its closure: the empty tuple
    sits at the bottom flat, which holds the loops, and appending x to a
    tuple at flat f moves to the join of f with the first flat holding
    x."""
    flats = system.flats()
    lattice = posets.flat_lattice(system, label)
    point_flat = [next(f for f, flat in enumerate(flats) if x in flat)
                  for x in range(system.n)]
    join = lattice.join[:, point_flat]
    steps = join.tolist()
    outside = [[x for x in range(system.n) if x not in flat]
               for flat in flats]
    pairs, stack = [], [((), lattice.bottom)]
    while stack:
        tup, f = stack.pop()
        pairs.append((tup, f))
        stack.extend((tup + (x,), steps[f][x]) for x in outside[f])
    # tuples are unique, so the flat ids never take part in the order
    pairs.sort()
    elements = [tup for tup, _ in pairs]

    def key_of(tup):
        return ",".join(system.ground[x] for x in tup) if tup else "e"

    keys = [key_of(t) for t in elements]
    return Semigroup.from_objects(
        label, elements, keys,
        closure_rows(elements, keys, join, chains=False),
        key_of(()),
        generators=[key_of((x,)) for x, f in enumerate(point_flat)
                    if f != lattice.bottom],
        expected=_expected(label, flats, lattice.leq, system.flat_label,
                           [flats[f] for _, f in pairs]),
        family=family, meta=meta)


def _closure_chains(system, label, family, meta, order, cap):
    """The flag chains bottom = X_0 < ... < X_l = top of a closure
    system, rank X_i = i for i < l, under refining the last step through
    joins: `_chains` steps from a flat to the flats of the next rank
    above it, not the top, once more than `cap` chains are refused by
    their count.  Elements sort by order(labels of their flats): the key
    string and the label tuple differ when a ground label holds "}" or
    ","."""
    flats = system.flats()
    lattice = posets.flat_lattice(system, label)
    rank = numpy.array(lattice.rank)
    bottom, top = lattice.bottom, lattice.top
    steps = [[f for f in up if f != top] for up in lattice.covers]
    # the count in Python ints over the step lists, along the linear
    # extension from its end
    count = [0] * lattice.size
    for f in reversed(lattice.order):
        count[f] = 1 + sum(count[g] for g in steps[f])
    check_counts(label, [count[bottom]], cap)
    chains = _chains(steps, bottom, top)
    chains.sort(key=lambda ch: order([lattice.labels[f] for f in ch]))

    def key_of(chain):
        return "<".join(lattice.labels[f] for f in chain)

    keys = [key_of(ch) for ch in chains]
    kept = numpy.flatnonzero(rank != rank[top] - 1)
    return Semigroup.from_objects(
        label, [tuple(flats[f] for f in ch) for ch in chains], keys,
        closure_rows(chains, keys, lattice.join, chains=True),
        key_of((bottom, top) if bottom != top else (bottom,)),
        generators=[key_of((bottom, f, top)) for f in steps[bottom]],
        expected=_expected(
            label, [flats[f] for f in kept],
            lattice.leq[numpy.ix_(kept, kept)], system.flat_label,
            [flats[ch[-1] if len(ch) == rank[top] + 1 else ch[-2]]
             for ch in chains]),
        family=family, meta=meta)


# ------------------------------------------- distributive chain bands


class DistributiveLattice(posets.Poset):
    """Finite distributive lattice over labeled elements: a Poset (see
    `posets`, whose `grid` and `from_covers` it inherits), refused
    unless it is a partial order with a join for every pair (naming the
    first pair without one), a bottom and a top, and distributive.

    Distributivity is certified by Birkhoff's theorem: a finite lattice
    is distributive exactly when the ideal of join-irreducibles (the
    elements with one lower cover) below x v y is the union of those
    below x and y.  `ideals` keeps them, row p of leq for each
    join-irreducible p; every pair is checked, one slice x at a time in
    O(|P| n^2), and a failure names x, y and a p below x v y but below
    neither.  The same ideals code the chain band.
    """

    def check(self):
        try:
            posets.check_partial_order(self.leq)
            # deriving the table names the first pair without a join
            self.join
        except AxiomViolationError as exc:
            named = ",".join(self.labels[i] for i in exc.witness)
            raise MalformedInputError(f"{exc} at ({named})") from None
        if self.bottom is None or self.top is None:
            raise MalformedInputError("lattice must be bounded")
        ideals = self.ideals = self.leq[self.join_irreducibles]
        for x, joins in enumerate(self.join):
            lost = numpy.argwhere(
                (ideals[:, joins] != (ideals[:, x, None] | ideals)).T)
            if len(lost):
                y, p = lost[0].tolist()
                p, name = int(self.join_irreducibles[p]), self.labels
                raise MalformedInputError(
                    f"not distributive at ({name[x]},{name[y]}): {name[p]} "
                    f"lies below their join {name[joins[y]]} but below "
                    "neither", witness=(x, y, p))


def distributive_chain_lrb(lattice, guards=DEFAULT_GUARDS):
    """Chains bottom = x_0 < ... < x_l = top of a distributive lattice.

    The product of E = (x_0..x_l) by F = (y_0..y_m) refines every step
    [x_{i-1}, x_i] of E through the values x_{i-1} v (y_j ^ x_i) and
    drops repeats.  By Birkhoff's theorem x is the ideal I of the
    join-irreducibles P below it, column x of the lattice's `ideals`,
    so a chain is the ordered partition (I_1, I_2 - I_1, ...) of P, the
    product is that of `ordered_partitions`, and the braid kernel serves
    the rows over the vectors v[p] = #{i >= 1 : not p <= x_i}.  Chambers
    are the maximal chains.  `_chains` steps to any element above, not
    the top, once a band over the elements cap is refused by its count.
    No expected support lattice is attached: two chains share a support
    when they absorb each other, and the resulting lattice is coarser
    than the input lattice in general (for a Boolean lattice the chain
    band is the band of ordered set partitions, whose support lattice
    is the partition lattice).
    """
    if not isinstance(lattice, DistributiveLattice):
        raise MalformedInputError("needs a DistributiveLattice")
    return _chain_band(lattice, guards)


def _chain_band(poset, guards):
    """The chain band of a bounded Poset, whose chains are counted
    before it is checked to be a DistributiveLattice (unless it is one),
    so a spec over the cap is refused before its join table."""
    # every element above but the top is a step, up to n^2 / 2 pairs of
    # a grid, so the count sums bool rows of an object array, in C
    top = poset.top
    up = poset.leq.copy()
    numpy.fill_diagonal(up, False)
    up[:, top] = False
    count = numpy.zeros(poset.size, dtype=object)
    for a in reversed(poset.order):
        count[a] = 1 + count[up[a]].sum()
    check_counts("distributive_chain_lrb", [count[poset.bottom]],
                 guards.elements_cap)
    steps = [sorted(b for b in above if b != a and b != top)
             for a, above in enumerate(poset.packed.ups)]
    chains = _chains(steps, poset.bottom, top)
    D = poset if isinstance(poset, DistributiveLattice) else \
        DistributiveLattice(poset.labels, poset.leq, poset.name)
    chains.sort(key=lambda ch: tuple(D.labels[x] for x in ch))

    def key_of(chain):
        return "<".join(D.labels[x] for x in chain)

    keys = [key_of(ch) for ch in chains]
    # the top, padding every chain past x_0 to one width, lies above
    # every join-irreducible
    width = max(map(len, chains))
    steps = numpy.array([ch[1:] + (D.top,) * (width - len(ch))
                         for ch in chains], dtype=numpy.intp)
    vectors = (~D.ideals[:, steps]).sum(axis=2).T
    return Semigroup.from_objects(
        "distributive_chain_lrb", chains, keys, braid_rows(vectors, keys),
        key_of((D.bottom, D.top) if D.bottom != D.top else (D.bottom,)),
        generators=[key_of((D.bottom, x, D.top)) for x in range(D.size)
                    if x not in (D.bottom, D.top)],
        family="dist_chain", meta={"lattice": D})


# ---------------------------------------------------------- dispatch


def construction_from_spec(spec, guards=DEFAULT_GUARDS):
    """Build a semigroup from a construction spec dict.

    {"type": "free_lrb", "n": 3}
    {"type": "free_lrb_bar", "n": 3}
    {"type": "q_free", "n": 2, "q": 2}
    {"type": "q_free_bar", "n": 3, "q": 2}
    {"type": "ordered_partitions", "n": 3}
    {"type": "matroid", "matroid": {...}}          (ordered-bases)
    {"type": "matroid_flags", "matroid": {...}}    (flag-chains)
    {"type": "dist_chain", "grid": [p, q]}
    {"type": "dist_chain", "elements": [...], "covers": [[a, b], ...]}
    {"type": "table", "label": ..., "elements": [...], "identity": i,
     "table": [[...]]}
    """
    if not isinstance(spec, dict) or "type" not in spec:
        raise MalformedInputError("construction spec needs a 'type' field")
    kind = spec["type"]
    try:
        if kind == "free_lrb":
            return free_lrb(spec_int("n", spec["n"]), guards)
        if kind == "free_lrb_bar":
            return free_lrb_bar(spec_int("n", spec["n"]), guards)
        if kind == "q_free":
            return q_free_lrb(spec_int("n", spec["n"]),
                              spec_int("q", spec["q"]), False, guards)
        if kind == "q_free_bar":
            return q_free_lrb(spec_int("n", spec["n"]),
                              spec_int("q", spec["q"]), True, guards)
        if kind == "ordered_partitions":
            return ordered_partitions(spec_int("n", spec["n"]), guards)
        if kind == "matroid":
            return matroid_lrb(build_matroid(spec["matroid"]), "ordered-bases",
                               guards)
        if kind == "matroid_flags":
            return matroid_lrb(build_matroid(spec["matroid"]), "flag-chains",
                               guards)
        if kind == "dist_chain":
            # a bare bounded order, checked once its chains are counted
            if "grid" in spec:
                p, q = spec["grid"]
                poset = posets.Poset.grid(spec_int("grid", p),
                                          spec_int("grid", q))
            else:
                poset = posets.Poset.from_covers(spec["elements"],
                                                 spec["covers"], "lattice")
            return _chain_band(poset, guards)
        if kind == "table":
            return Semigroup.from_json_dict(spec)
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInputError(f"bad construction spec: {exc}") from exc
    raise MalformedInputError(f"unknown construction type {kind!r}")
