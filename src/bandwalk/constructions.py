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

Every constructor attaches the generating set it is usually driven by
and an ExpectedLattice describing what the derived support lattice must
be isomorphic to.

While |S| <= table_cap, every band but the distributive chains gets
its dense table at build time from an integer kernel in place of the
object rule.  Elements become integer vectors, stored as mixed-radix
integer codes; products are computed over numpy arrays of pairs, one
block of rows at a time, and `coded_products` looks their codes up
among the sorted element codes and writes the ids straight into the
band's int32 table, rejecting a product outside the list.  Above
table_cap the object rule serves product() one pair at a time, and it
stays the reference the tests compare against.

`braid_table` serves the first three, bands of faces of the braid
arrangement.  A face on {1..n} becomes its block-index vector v,
v[x-1] = index of the block holding x; a free-LRB word becomes its
position vector, v[x-1] = position of x in the word, with absent
letters in a trailing sentinel block v[x-1] = n.  The product of u and
v is then the lexicographic rank of the pairs (u[x], v[x]) among the
pairs present, except that a letter absent from both factors stays in
the sentinel block.

`closure_table` serves the q-analogues and the matroid bands, whose
products are driven by a closure operator on a finite ground set (the
nonzero vectors of GF(q)^n, or the matroid's elements).  The flats are
numbered once per band, with small integer tables for the join of a
flat with a point and with another flat; a tuple becomes its letters
and a chain its flat ids, and each product runs a fixed number of
table lookups.
"""

import itertools
from math import factorial

import numpy

from . import fields, posets
from .core import ExpectedLattice, Semigroup
from .errors import MalformedInputError, SizeGuardError
from .guards import DEFAULT_GUARDS
from .matroid import Matroid, build_matroid


# ---------------------------------------------------------------- free


def _tuple_key(t):
    return ",".join(map(str, t)) if t else "e"


def _check_count(label, count, guards):
    """Refuse a band whose element count, known before it is
    enumerated, exceeds the elements cap."""
    if count > guards.elements_cap:
        raise SizeGuardError(
            f"{label} has {count} elements, above the cap "
            f"{guards.elements_cap}")


def check_n(label, n, cap):
    """n below 1 is malformed input; n above the guard cap is refused."""
    if n < 1:
        raise MalformedInputError(f"{label} needs n >= 1")
    if n > cap:
        raise SizeGuardError(f"{label} needs n <= {cap}")


# ------------------------------------------------------ table kernels


# array elements per numpy temporary while tabulating: small enough that
# the temporaries add little to peak memory, large enough to amortize
# calls
TABLE_CHUNK = 2 ** 15


def coded_products(codes, keys, width, product_codes):
    """Ids of every product, as a C-contiguous int32 size x size table.

    codes: integer code of each element, in id order.
    product_codes(lo, hi) gives the codes of the products of elements
    lo..hi-1 with every element, shape (hi - lo, size); a pair costs
    about `width` array elements, and a block holds about TABLE_CHUNK of
    them.  Codes are mapped to ids through the sorted element codes and
    written into the table one block of rows at a time; a product
    outside the list is malformed input naming the pair.
    """
    size = len(codes)
    by_code = numpy.argsort(codes).astype(numpy.int32)
    sorted_codes = codes[by_code]
    table = numpy.empty((size, size), dtype=numpy.int32)
    rows = max(1, TABLE_CHUNK // (size * width))
    for lo in range(0, size, rows):
        got = product_codes(lo, lo + rows)
        at = numpy.minimum(numpy.searchsorted(sorted_codes, got), size - 1)
        missing = numpy.argwhere(sorted_codes[at] != got)
        if len(missing):
            i, j = missing[0]
            raise MalformedInputError(
                "product leaves the element list: "
                f"{keys[lo + i]} * {keys[j]}")
        table[lo:lo + rows] = by_code[at]
    return table


def _tabulated(sg, guards, build_table):
    """Give a band its kernel-built table when it fits the cap."""
    if sg.size <= guards.table_cap:
        sg.table = build_table()
    return sg


def _face_vector(blocks, n):
    """Block-index vector of an ordered partition of {1..n}."""
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


def braid_product(u, v):
    """Vectors of the products u v, broadcast over leading axes.

    Each output entry is the dense lexicographic rank of the pair
    (u[x], v[x]) within its row; the pair (n, n) of a letter absent
    from both words stays n.
    """
    n = u.shape[-1]
    pairs = u * (n + 1) + v
    order = numpy.argsort(pairs, axis=-1, kind="stable")
    ranked = numpy.take_along_axis(pairs, order, axis=-1)
    fresh = numpy.zeros(ranked.shape, dtype=numpy.int64)
    fresh[..., 1:] = ranked[..., 1:] != ranked[..., :-1]
    rank = numpy.empty_like(fresh)
    numpy.put_along_axis(rank, order, numpy.cumsum(fresh, axis=-1), axis=-1)
    return numpy.where(pairs == n * (n + 1) + n, n, rank)


def braid_table(vectors, keys):
    """Dense Cayley table of a band of braid faces or words.

    vectors: one block-index or position vector per element, in id
    order, stored as base-(n+1) codes.
    """
    vecs = numpy.asarray(vectors, dtype=numpy.int64)
    n = vecs.shape[1]
    powers = (n + 1) ** numpy.arange(n - 1, -1, -1, dtype=numpy.int64)

    def product_codes(lo, hi):
        return braid_product(vecs[lo:hi, None, :], vecs[None, :, :]) @ powers

    return coded_products(vecs @ powers, keys, n, product_codes)


def closure_table(elements, keys, join, chains):
    """Dense Cayley table of a band driven by a closure operator.

    Flats are numbered 0..F-1 with the bottom flat 0, and `join` is an
    integer array with F rows: join[f, x] is the flat spanned by f and
    x.  Each element, a sequence of ints, is padded to the longest with
    the value P = join.shape[1], a step that joins to nothing new, and
    stored as its base-(P+1) code.

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
    block of rows at once.  A product longer than every element is
    outside the list.
    """
    flats, pad = join.shape
    width = max(map(len, elements))
    if (pad + 1) ** width >= 2 ** 63:
        raise SizeGuardError(
            f"{width} digits in base {pad + 1} overflow an int64 code")
    vecs = numpy.array([list(e) + [pad] * (width - len(e)) for e in elements],
                       dtype=numpy.int64)
    size = len(vecs)
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
    # one spare slot takes the writes past the longest element
    prefix = numpy.full((size, width + 1), pad, dtype=numpy.int64)
    prefix[:, :width] = numpy.where(
        numpy.arange(width) < keep[:, None], vecs, pad)
    powers = (pad + 1) ** numpy.arange(width - 1, -1, -1, dtype=numpy.int64)

    def product_codes(lo, hi):
        out = numpy.repeat(prefix[lo:hi, None, :], size, axis=1)
        count = numpy.repeat(keep[lo:hi, None], size, axis=1)
        flat = numpy.repeat(start[lo:hi, None], size, axis=1)
        for x in steps.T:
            joined = join[flat, x]
            new = joined != flat
            put = numpy.where(new, joined if chains else x, pad)
            numpy.put_along_axis(out, numpy.minimum(count, width)[..., None],
                                 put[..., None], axis=-1)
            count += new
            flat = joined
        codes = out[..., :width] @ powers
        return numpy.where(count > width, -1, codes)

    return coded_products(vecs @ powers, keys, width + 1, product_codes)


def _flat_join(point_join, members):
    """Flat join from the point join: join[f, g] folds the points
    members[g] of flat g into flat f, for every f at once."""
    out = numpy.empty((len(point_join), len(members)), dtype=numpy.int64)
    for g, points in enumerate(members):
        f = numpy.arange(len(point_join))
        for x in points:
            f = point_join[f, x]
        out[:, g] = f
    return out


def free_lrb(n, guards=DEFAULT_GUARDS):
    """Injective tuples over {1..n} under concatenation with repeats
    dropped.  Chambers are the n! full-length tuples; the support
    lattice is the boolean lattice of subsets."""
    check_n("free_lrb", n, guards.free_n_cap)
    universe = range(1, n + 1)
    elements = [tuple(t) for r in range(n + 1)
                for t in itertools.permutations(universe, r)]

    def mult(a, b):
        seen = set(a)
        out = list(a)
        for x in b:
            if x not in seen:
                seen.add(x)
                out.append(x)
        return tuple(out)

    def set_label(t):
        return "{" + ",".join(map(str, sorted(t))) + "}"

    subsets = [set_label(c) for r in range(n + 1)
               for c in itertools.combinations(universe, r)]
    expected = ExpectedLattice(
        labels=tuple(subsets),
        label_of=lambda t: set_label(t),
        leq=lambda a, b: _set_of(a) <= _set_of(b),
    )
    sg = Semigroup.from_objects(
        f"free_lrb({n})", elements, mult, _tuple_key, (),
        generators=[(x,) for x in universe],
        expected=_wrap_expected(expected, elements),
        family="free_lrb", meta={"n": n}, guards=guards)
    return _tabulated(sg, guards, lambda: braid_table(
        [_word_vector(o, n) for o in sg.objects], sg.keys))


def _set_of(label):
    inner = label.strip("{}")
    return frozenset(int(x) for x in inner.split(",") if x)


def _wrap_expected(expected, elements):
    """Adapt an object-level label_of to element ids at build time."""
    labels_by_id = [expected.label_of(o) for o in elements]
    return ExpectedLattice(
        labels=expected.labels,
        label_of=lambda i: labels_by_id[i],
        leq=expected.leq,
    )


# ------------------------------------------------- ordered partitions


def _op_key(blocks):
    return "|".join(",".join(map(str, b)) for b in blocks)


def _op_mult(a, b):
    out = []
    for blk in a:
        s = set(blk)
        for other in b:
            piece = tuple(x for x in other if x in s)
            if piece:
                out.append(piece)
    return tuple(out)


def _partition_label(blocks):
    return "/".join(",".join(map(str, sorted(b)))
                    for b in sorted(blocks, key=lambda blk: min(blk)))


def _refines(fine, coarse):
    """fine refines coarse (both are '/'-joined block labels)."""
    coarse_of = {}
    for i, blk in enumerate(coarse.split("/")):
        for x in blk.split(","):
            coarse_of[x] = i
    for blk in fine.split("/"):
        xs = blk.split(",")
        if len({coarse_of[x] for x in xs}) != 1:
            return False
    return True


def ordered_partitions(n, guards=DEFAULT_GUARDS):
    """All ordered set partitions of {1..n}.  The product intersects the
    right factor's blocks into the left factor's blocks in lexicographic
    order and drops empties.  Chambers are the n! all-singleton
    partitions; the support lattice is the lattice of unordered
    partitions ordered by 'is refined by'."""
    check_n("ordered_partitions", n, guards.partitions_n_cap)
    universe = tuple(range(1, n + 1))
    elements = []
    for part in posets.set_partitions(universe):
        blocks = [tuple(sorted(b)) for b in part]
        for order in itertools.permutations(blocks):
            elements.append(tuple(order))
    elements = sorted(set(elements))

    partition_labels = sorted(
        {_partition_label(p) for p in posets.set_partitions(universe)})
    expected = ExpectedLattice(
        labels=tuple(partition_labels),
        label_of=_partition_label,
        leq=lambda a, b: _refines(b, a),
    )
    generators = [(tuple(sorted(c)),
                   tuple(sorted(set(universe) - set(c))))
                  for r in range(1, n)
                  for c in itertools.combinations(universe, r)]
    sg = Semigroup.from_objects(
        f"ordered_partitions({n})", elements, _op_mult, _op_key,
        (universe,), generators=generators,
        expected=_wrap_expected(expected, elements),
        family="ordered_partitions", meta={"n": n}, guards=guards)
    return _tabulated(sg, guards, lambda: braid_table(
        [_face_vector(o, n) for o in sg.objects], sg.keys))


def free_lrb_bar(n, guards=DEFAULT_GUARDS):
    """Ordered partitions of {1..n} whose blocks are singletons except
    possibly the last.  This is the quotient of free_lrb(n) that forgets
    the order inside the final block; each (n-1)-tuple is identified
    with its unique full extension.  Support lattice: subsets of size
    different from n-1."""
    check_n("free_lrb_bar", n, guards.free_n_cap)
    universe = tuple(range(1, n + 1))
    elements = []
    for r in range(n - 1):
        for t in itertools.permutations(universe, r):
            rest = tuple(sorted(set(universe) - set(t)))
            elements.append(tuple((x,) for x in t) + (rest,))
    for t in itertools.permutations(universe):
        elements.append(tuple((x,) for x in t))

    def label_of(blocks):
        head = [b[0] for b in blocks[:-1]]
        if len(blocks[-1]) == 1:
            head.append(blocks[-1][0])
        return "{" + ",".join(map(str, sorted(head))) + "}"

    size_ok = [r for r in range(n + 1) if r != n - 1]
    labels = ["{" + ",".join(map(str, c)) + "}"
              for r in size_ok for c in itertools.combinations(universe, r)]
    expected = ExpectedLattice(
        labels=tuple(labels),
        label_of=label_of,
        leq=lambda a, b: _set_of(a) <= _set_of(b),
    )
    generators = [((x,), tuple(sorted(set(universe) - {x})))
                  for x in universe]
    if n == 1:
        generators = []
    sg = Semigroup.from_objects(
        f"free_lrb_bar({n})", elements, _op_mult, _op_key,
        (universe,), generators=generators,
        expected=_wrap_expected(expected, elements),
        family="free_lrb_bar", meta={"n": n}, guards=guards)
    return _tabulated(sg, guards, lambda: braid_table(
        [_face_vector(o, n) for o in sg.objects], sg.keys))


# ------------------------------------------------------- vector spaces


def _space_key(rref_rows):
    if not rref_rows:
        return "0"
    return "+".join("".join(map(str, r)) for r in rref_rows)


def _chain_key(chain):
    return "<".join(_space_key(s) for s in chain)


def q_free_lrb(n, q, reduced=False, guards=DEFAULT_GUARDS):
    """Vector-space analogue of the free constructions over GF(q).

    reduced=False: tuples of linearly independent vectors in GF(q)^n,
    concatenation dropping vectors already in the span of the prefix.
    Support = span; lattice = all subspaces.

    reduced=True: chains of subspaces 0 = X_0 < ... < X_l = V with
    dim X_i = i for i < l.  The product of X by Y refines the last step
    of X through Y's members: X_0 < ... < X_{l-1} <= X_{l-1}+Y_1 <= ...
    with repeats dropped.  Lattice = subspaces of dimension != n-1.
    """
    if n < 1:
        raise MalformedInputError("q_free_lrb needs n >= 1")
    fld = fields.field(q)
    if not reduced:
        # the k-tuples number (q^n - 1)(q^n - q)...(q^n - q^(k-1))
        count = tuples = 1
        for i in range(n):
            tuples *= q ** n - q ** i
            count += tuples
        _check_count(f"q_free_lrb({n},{q})", count, guards)
    else:
        # a chain with i proper steps before V is a flag of i lines in
        # successive quotients, [n][n-1]...[n-i+1] of them, where
        # [m] = (q^m - 1)/(q - 1) counts the lines of a space of dim m
        count, flags = 0, 1
        for i in range(n):
            count += flags          # the chains with i proper steps
            flags *= (q ** (n - i) - 1) // (q - 1)
        _check_count(f"q_free_lrb_bar({n},{q})", count, guards)
    nonzero = [v for v in fields.all_vectors(fld, n) if any(v)]

    if not reduced:
        elements = []
        stack = [((), ())]          # (tuple of vectors, rref of prefix)
        while stack:
            tup, basis = stack.pop()
            elements.append(tup)
            if len(basis) == n:
                continue            # a chamber: no vector leaves its span
            for v in nonzero:
                if not fields.in_span(fld, basis, v):
                    stack.append((tup + (v,), fields.rref(fld, basis + (v,))))
        elements = sorted(elements)

        def mult(a, b):
            basis = fields.rref(fld, a)
            out = list(a)
            for v in b:
                if not fields.in_span(fld, basis, v):
                    out.append(v)
                    basis = fields.rref(fld, basis + (v,))
            return tuple(out)

        def key_of(tup):
            return ",".join("".join(map(str, v)) for v in tup) if tup else "e"

        spaces = fields.all_subspaces(fld, n)
        expected = ExpectedLattice(
            labels=tuple(_space_key(s) for s in spaces),
            label_of=lambda tup: _space_key(fields.rref(fld, tup)),
            leq=lambda a, b: _space_leq(fld, n, a, b),
        )
        sg = Semigroup.from_objects(
            f"q_free_lrb({n},{q})", elements, mult, key_of, (),
            generators=[(v,) for v in nonzero],
            expected=_wrap_expected(expected, elements),
            family="q_free_lrb", meta={"n": n, "q": q}, guards=guards)

        def table():
            letter = {v: x for x, v in enumerate(nonzero)}
            return closure_table(
                [[letter[v] for v in tup] for tup in elements], sg.keys,
                _space_join(fld, spaces, nonzero), chains=False)

        return _tabulated(sg, guards, table)

    # reduced: subspace chains
    spaces = fields.all_subspaces(fld, n)
    by_dim = {}
    for s in spaces:
        by_dim.setdefault(len(s), []).append(s)
    full = by_dim[n][0]
    elements = []

    def extend(chain, dim):
        if chain[-1] == full:
            elements.append(tuple(chain))
            return
        elements.append(tuple(chain) + (full,))
        for s in by_dim.get(dim + 1, ()):
            if s != full and fields.space_contains(fld, s, chain[-1]):
                extend(chain + [s], dim + 1)

    extend([()], 0)
    elements = sorted(set(elements), key=_chain_key)

    def mult(a, b):
        last = a[-2] if len(a) > 1 else a[-1]
        out = list(a[:-1]) if len(a) > 1 else list(a)
        for s in b[1:]:
            joined = fields.rref(fld, last + s)
            if joined != out[-1]:
                out.append(joined)
        return tuple(out)

    sub_labels = [_space_key(s) for s in spaces if len(s) != n - 1]
    expected = ExpectedLattice(
        labels=tuple(sub_labels),
        label_of=lambda ch: _space_key(ch[-1] if len(ch) == n + 1
                                       else ch[-2]),
        leq=lambda a, b: _space_leq(fld, n, a, b),
    )
    lines = [s for s in by_dim.get(1, ())]
    gens = [((), ln, full) for ln in lines if ln != full]
    if n == 1:
        gens = []
    sg = Semigroup.from_objects(
        f"q_free_lrb_bar({n},{q})", elements, mult, _chain_key,
        ((), full) if n >= 1 else ((),),
        generators=gens,
        expected=_wrap_expected(expected, elements),
        family="q_free_lrb_bar", meta={"n": n, "q": q}, guards=guards)

    def table():
        space_id = {s: i for i, s in enumerate(spaces)}
        letter = {v: x for x, v in enumerate(nonzero)}
        join = _flat_join(_space_join(fld, spaces, nonzero),
                          [[letter[v] for v in s] for s in spaces])
        return closure_table(
            [[space_id[s] for s in chain] for chain in elements], sg.keys,
            join, chains=True)

    return _tabulated(sg, guards, table)


def _space_join(fld, spaces, points):
    """Point join over subspaces listed by dimension: join[f, x] is the
    id of the span of spaces[f] and the vector points[x]."""
    space_id = {s: i for i, s in enumerate(spaces)}

    def join(f, v):
        s = spaces[f]
        return f if fields.in_span(fld, s, v) else \
            space_id[fields.rref(fld, s + (v,))]

    return numpy.array([[join(f, v) for v in points]
                        for f in range(len(spaces))], dtype=numpy.int64)


def _space_leq(fld, n, label_a, label_b):
    def rows(label):
        if label == "0":
            return ()
        return tuple(tuple(int(c) for c in part)
                     for part in label.split("+"))
    return fields.space_contains(fld, rows(label_b), rows(label_a))


# ------------------------------------------------------------ matroids


def matroid_lrb(m, kind, guards=DEFAULT_GUARDS):
    """The two semigroups of a matroid.

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
    if kind == "ordered-bases":
        return _matroid_tuples(m, guards)
    if kind == "flag-chains":
        return _matroid_flags(m, guards)
    raise MalformedInputError(f"unknown matroid_lrb kind {kind!r}")


def _matroid_tuples(m, guards):
    # each independent set I gives |I|! tuples
    _check_count(f"matroid_lrb({m.kind},ordered-bases)",
                 sum(factorial(r)
                     for r in range(m.full_rank + 1)
                     for s in itertools.combinations(range(m.n), r)
                     if m.is_independent(s)), guards)
    elements = []
    stack = [()]
    while stack:
        tup = stack.pop()
        elements.append(tup)
        cl = m.closure(frozenset(tup))
        for x in range(m.n):
            if x not in cl:
                stack.append(tup + (x,))
    elements = sorted(elements)

    def mult(a, b):
        out = list(a)
        cl = m.closure(frozenset(a))
        for x in b:
            if x not in cl:
                out.append(x)
                cl = m.closure(frozenset(out))
        return tuple(out)

    def key_of(tup):
        return ",".join(m.ground[i] for i in tup) if tup else "e"

    expected = ExpectedLattice(
        labels=tuple(m.flat_label(f) for f in m.flats()),
        label_of=lambda tup: m.flat_label(m.closure(frozenset(tup))),
        leq=lambda a, b: _flat_set(a) <= _flat_set(b),
    )
    nonloops = [x for x in range(m.n)
                if m.is_independent(frozenset([x]))]
    sg = Semigroup.from_objects(
        f"matroid_lrb({m.kind},ordered-bases)", elements, mult, key_of, (),
        generators=[(x,) for x in nonloops],
        expected=_wrap_expected(expected, elements),
        family="matroid_lrb", meta={"matroid": m, "kind": "ordered-bases"},
        guards=guards)
    return _tabulated(sg, guards, lambda: closure_table(
        elements, sg.keys, _matroid_join(m), chains=False))


def _flat_set(label):
    inner = label.strip("{}")
    return frozenset(x for x in inner.split(",") if x)


def _matroid_flags(m, guards):
    flats = m.flats()
    rank_of = {f: m.rank(f) for f in flats}
    r = m.full_rank
    by_rank = {}
    for f in flats:
        by_rank.setdefault(rank_of[f], []).append(f)
    bottom = by_rank[0][0]
    top = by_rank[r][0]
    # an element is a chain bottom < X_1 < ... < X_k with rank X_i = i
    # below the top, closed by the top; chains[i] counts those ending at
    # the i-th flat of rank k, found by containment of flat bitmasks
    def masks(k):
        return numpy.array([sum(1 << x for x in f) for f in by_rank[k]],
                           dtype=numpy.int64)

    chains = numpy.ones(1, dtype=numpy.int64)
    count = 1
    below = masks(0)
    for k in range(1, r):
        above = masks(k)
        chains = chains @ ((below[:, None] & above) == below[:, None])
        count += int(chains.sum())
        below = above
    _check_count(f"matroid_lrb({m.kind},flag-chains)", count, guards)
    elements = []

    def extend(chain, k):
        if chain[-1] == top:
            elements.append(tuple(chain))
            return
        elements.append(tuple(chain) + (top,))
        for f in by_rank.get(k + 1, ()):
            if f != top and chain[-1] <= f:
                extend(chain + [f], k + 1)

    extend([bottom], 0)
    elements = sorted(set(elements),
                      key=lambda ch: tuple(m.flat_label(f) for f in ch))

    def join(a, b):
        return m.closure(a | b)

    def mult(a, b):
        last = a[-2] if len(a) > 1 else a[-1]
        out = list(a[:-1]) if len(a) > 1 else list(a)
        for f in b[1:]:
            j = join(last, f)
            if j != out[-1]:
                out.append(j)
        return tuple(out)

    def key_of(chain):
        return "<".join(m.flat_label(f) for f in chain)

    sub = [f for f in flats if rank_of[f] != r - 1]
    expected = ExpectedLattice(
        labels=tuple(m.flat_label(f) for f in sub),
        label_of=lambda ch: m.flat_label(
            ch[-1] if len(ch) == r + 1 else ch[-2]),
        leq=lambda a, b: _flat_set(a) <= _flat_set(b),
    )
    gens = [(bottom, f, top) for f in by_rank.get(1, ()) if f != top]
    sg = Semigroup.from_objects(
        f"matroid_lrb({m.kind},flag-chains)", elements, mult, key_of,
        (bottom, top) if bottom != top else (bottom,),
        generators=gens,
        expected=_wrap_expected(expected, elements),
        family="matroid_flags", meta={"matroid": m, "kind": "flag-chains"},
        guards=guards)

    def table():
        flat_id = {f: i for i, f in enumerate(flats)}
        join = _flat_join(_matroid_join(m), [sorted(f) for f in flats])
        return closure_table(
            [[flat_id[f] for f in chain] for chain in elements], sg.keys,
            join, chains=True)

    return _tabulated(sg, guards, table)


def _matroid_join(m):
    """Point join over the flats of m, bottom first: join[f, x] is the
    id of the closure of flat f and element x."""
    flats = m.flats()
    flat_id = {f: i for i, f in enumerate(flats)}
    return numpy.array(
        [[i if x in f else flat_id[m.closure(f | {x})] for x in range(m.n)]
         for i, f in enumerate(flats)], dtype=numpy.int64)


# ------------------------------------------- distributive chain bands


class DistributiveLattice:
    """Finite distributive lattice over labeled elements.

    Built from an explicit order; checks boundedness, the lattice
    property and distributivity over all triples.
    """

    def __init__(self, labels, leq):
        self.labels = list(labels)
        self.n = len(labels)
        self.leq = leq
        posets.check_partial_order(leq)
        self.join = posets.join_table(leq)
        self.meet = posets.meet_table(leq)
        self.bottom = posets.bottom_of(leq)
        self.top = posets.top_of(leq)
        if self.bottom is None or self.top is None:
            raise MalformedInputError("lattice must be bounded")
        for a in range(self.n):
            for b in range(self.n):
                for c in range(self.n):
                    lhs = self.meet[a][self.join[b][c]]
                    rhs = self.join[self.meet[a][b]][self.meet[a][c]]
                    if lhs != rhs:
                        raise MalformedInputError(
                            f"not distributive at "
                            f"({self.labels[a]},{self.labels[b]},"
                            f"{self.labels[c]})")

    @classmethod
    def from_covers(cls, labels, cover_pairs):
        n = len(labels)
        pos = {lab: i for i, lab in enumerate(labels)}
        leq = [[a == b for b in range(n)] for a in range(n)]
        try:
            edges = [(pos[str(a)], pos[str(b)]) for a, b in cover_pairs]
        except KeyError as exc:
            raise MalformedInputError(f"unknown cover label {exc}") from exc
        for a, b in edges:
            leq[a][b] = True
        for k in range(n):
            for a in range(n):
                if leq[a][k]:
                    row_k = leq[k]
                    row_a = leq[a]
                    for b in range(n):
                        if row_k[b]:
                            row_a[b] = True
        return cls([str(x) for x in labels], leq)

    @classmethod
    def grid(cls, p, q):
        """Divisor-style grid {0..p} x {0..q} under componentwise order."""
        pts = [(i, j) for i in range(p + 1) for j in range(q + 1)]
        labels = [f"({i},{j})" for i, j in pts]
        leq = [[a[0] <= b[0] and a[1] <= b[1] for b in pts] for a in pts]
        return cls(labels, leq)

    @classmethod
    def boolean(cls, n):
        subs = [frozenset(c) for r in range(n + 1)
                for c in itertools.combinations(range(1, n + 1), r)]
        labels = ["{" + ",".join(map(str, sorted(s))) + "}" for s in subs]
        leq = [[a <= b for b in subs] for a in subs]
        return cls(labels, leq)


def distributive_chain_lrb(lattice, guards=DEFAULT_GUARDS):
    """Chains bottom = x_0 < ... < x_l = top of a distributive lattice.

    The product of E = (x_0..x_l) by F = (y_0..y_m) refines every step
    [x_{i-1}, x_i] of E through the values x_{i-1} v (y_j ^ x_i) and
    drops repeats.  Chambers are the maximal chains.  No expected
    support lattice is attached: two chains share a support when they
    absorb each other, and the resulting lattice is coarser than the
    input lattice in general (for a Boolean lattice the chain band is
    the band of ordered set partitions, whose support lattice is the
    partition lattice).
    """
    if not isinstance(lattice, DistributiveLattice):
        raise MalformedInputError("needs a DistributiveLattice")
    D = lattice
    chains = []

    def grow(chain):
        if chain[-1] == D.top:
            chains.append(tuple(chain))
            return
        for x in range(D.n):
            if D.leq[chain[-1]][x] and x != chain[-1]:
                grow(chain + [x])

    grow([D.bottom])
    if D.bottom == D.top:
        chains = [(D.bottom,)]
    if len(chains) > guards.elements_cap:
        raise SizeGuardError("distributive_chain_lrb too large")
    chains = sorted(set(chains),
                    key=lambda ch: tuple(D.labels[x] for x in ch))

    def mult(a, b):
        out = [a[0]]
        for i in range(1, len(a)):
            lo, hi = a[i - 1], a[i]
            for y in b:
                g = D.join[lo][D.meet[y][hi]]
                if g != out[-1]:
                    out.append(g)
        return tuple(out)

    def key_of(chain):
        return "<".join(D.labels[x] for x in chain)

    interior = [x for x in range(D.n) if x != D.bottom and x != D.top]
    gens = [(D.bottom, x, D.top) for x in interior]
    identity = (D.bottom, D.top) if D.bottom != D.top else (D.bottom,)
    return Semigroup.from_objects(
        "distributive_chain_lrb", chains, mult, key_of, identity,
        generators=gens,
        family="dist_chain", meta={"lattice": D}, guards=guards)


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
            return free_lrb(int(spec["n"]), guards)
        if kind == "free_lrb_bar":
            return free_lrb_bar(int(spec["n"]), guards)
        if kind == "q_free":
            return q_free_lrb(int(spec["n"]), int(spec["q"]), False, guards)
        if kind == "q_free_bar":
            return q_free_lrb(int(spec["n"]), int(spec["q"]), True, guards)
        if kind == "ordered_partitions":
            return ordered_partitions(int(spec["n"]), guards)
        if kind == "matroid":
            return matroid_lrb(build_matroid(spec["matroid"], guards),
                               "ordered-bases", guards)
        if kind == "matroid_flags":
            return matroid_lrb(build_matroid(spec["matroid"], guards),
                               "flag-chains", guards)
        if kind == "dist_chain":
            if "grid" in spec:
                p, q = spec["grid"]
                lat = DistributiveLattice.grid(int(p), int(q))
            else:
                lat = DistributiveLattice.from_covers(
                    spec["elements"], spec["covers"])
            return distributive_chain_lrb(lat, guards)
        if kind == "table":
            return Semigroup.from_json_dict(spec)
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInputError(f"bad construction spec: {exc}") from exc
    raise MalformedInputError(f"unknown construction type {kind!r}")
