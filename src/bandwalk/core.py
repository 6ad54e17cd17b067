"""Finite left-regular bands.

A left-regular band (LRB) here is a finite semigroup with identity
satisfying x*x = x and x*y*x = x*y.  Every such semigroup carries a
support lattice L and a surjection supp: S -> L with

    supp(xy) = supp(x) v supp(y)        (join)
    xy = x  <=>  supp(y) <= supp(x)

Both facts are derived, not assumed: `derive_support` quotients S by
the mutual-absorption relation and verifies the two displayed laws on
all pairs, so a handle that is not an LRB is rejected with a witness.
The class order comes off the table as the numpy bool matrix that
`posets` reads, and the support lattice is a `posets.Poset` over it,
`SupportStructure`, which derives its join table, covers, linear
extension and Moebius rows there; the join law is checked against that
join table as an array.  A construction's claim about the lattice,
`ExpectedLattice`, is a Poset too, compared with the derived one by
array comparisons.

Elements are addressed by integer ids into a list of canonical string
keys.  Every product comes from one source, `Semigroup.rows(ids)`: the
int32 array whose row k holds x y for x = ids[k] and every y.  Every
construction serves it with an integer kernel (see `constructions`),
and an explicit table serves itself.  The dense Cayley table is that
source read over every id, built lazily by `tabulate` behind
table_cap, which `verify_lrb` and `derive_support` call first; so
table_cap is the one gate on the |S|^2 work of their laws, array
expressions that report the first failing pair in row-major order.
`Semigroup.table` is int32, but the laws read a copy of it in the
narrowest unsigned dtype that holds its ids (`_narrow`: uint8 up to
256 elements, uint16 up to 65,536), and the support laws the flat ids
likewise; each law gathers with `take` and tests with `array_equal`,
and locates its witness only when that fails.

Associativity has one certificate, exhaustive: every one of the |S|^3
triples is certified, by Light's test on the dense table.  It reads
|A|*|S|^2 cells for a set A that generates S (the construction's
generators, completed where they fall short), so the work scales with
|A|, not |S|, and that count is what LIGHT_CELLS_CAP bounds.
"""

import itertools
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import posets
from .errors import (
    AxiomViolationError,
    FalsificationError,
    MalformedInputError,
    SizeGuardError,
)
from .guards import DEFAULT_GUARDS

# most table cells Light's test may read, |A|*|S|^2; since |A| <= |S|,
# no band with |S|^3 within it is refused
LIGHT_CELLS_CAP = 200_000_000

# table cells per block of the laws whose gathers take one index per
# cell, so that their index temporaries stay small
LAW_CELLS = 2 ** 15


def spec_int(field, value):
    """An integer field of a construction, matroid or table spec.
    Floats and bools are refused, naming the field and the value,
    rather than truncated."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise MalformedInputError(
            f"spec field {field!r} must be an integer, got {value!r}")
    return int(value)


@dataclass(eq=False)
class ExpectedLattice(posets.Poset):
    """Construction-supplied description of what the support lattice
    should look like, used by the foundation checks: the expected flats
    `labels` ordered by `leq`, a Poset, and label_of, an int array whose
    entry x is the index in `labels` of element x's expected flat.
    """

    label_of: np.ndarray


class Semigroup:
    """Handle to a finite semigroup with identity.

    keys: canonical element keys, unique and deterministic
    identity: id of the two-sided identity
    rows(ids): the int32 product rows of `ids`, shape (len(ids), |S|),
    served by the callable `rows=` or by an explicit `table=`
    table: the C-contiguous int32 Cayley table, rows over every id, or
    None before `tabulate`
    generators: ids of the construction's distinguished generating set
    """

    def __init__(self, label, keys, identity, *, table=None, rows=None,
                 generators=None, expected=None, family=None, meta=None):
        if (table is None) == (rows is None):
            raise MalformedInputError("need product rows or a table")
        if len(set(keys)) != len(keys):
            raise MalformedInputError("element keys are not unique")
        if not 0 <= identity < len(keys):
            raise MalformedInputError("identity id out of range")
        self.label = label
        self.keys = list(keys)
        self.identity = identity
        self.index = {k: i for i, k in enumerate(self.keys)}
        self._source = rows
        self.table = None if table is None else _table_array(table, len(keys))
        self.generators = list(generators) if generators else []
        self.expected = expected
        self.family = family
        self.meta = meta or {}

    @property
    def size(self):
        return len(self.keys)

    def rows(self, ids):
        """The product rows of `ids` as an int32 array: row k holds the
        ids of x y for x = ids[k] and every y, read off the table once
        there is one."""
        if self.table is not None:
            return self.table[ids]
        return self._source(ids)

    def tabulate(self, guards=DEFAULT_GUARDS):
        """The dense Cayley table, `rows` over every id, built on first
        call (subject to the guard)."""
        if self.table is None:
            n = self.size
            if n > guards.table_cap:
                raise SizeGuardError(
                    f"|S|={n} exceeds table cap {guards.table_cap}")
            self.table = self._source(np.arange(n))
            # every row is read off the table from now on, so the
            # kernel and what it keeps are let go
            self._source = None
        return self.table

    def id_lists(self, cells):
        """The rows of a 2-d int32 array of ids as lists that share one
        int object per id (a plain tolist() makes a fresh int per cell
        past 256), gathered through an object array of the ids."""
        step = max(1, 2 ** 15 // max(1, cells.shape[1]))
        out = []
        for lo in range(0, len(cells), step):
            out += self._ids[cells[lo:lo + step]].tolist()
        return out

    @cached_property
    def _ids(self):
        return np.array(range(self.size), dtype=object)

    @classmethod
    def from_objects(cls, label, objects, keys, rows, identity, *,
                     generators=(), expected=None, family=None, meta=None):
        """Wrap explicit element objects, their keys and their product
        rows; the identity and the generators are given by key.  The
        constructions count and cap their elements before listing."""
        index = {k: i for i, k in enumerate(keys)}
        sg = cls(label, keys, index[identity], rows=rows,
                 generators=[index[g] for g in generators],
                 expected=expected, family=family, meta=meta)
        sg.objects = list(objects)
        return sg

    def to_json_dict(self):
        """The band as a JSON tree for `serialize.dump_json`: its label,
        element keys and identity, and the Cayley table as the int32
        array `tabulate` returns (subject to the default guards), which
        the writer renders as nested lists without a Python int per
        cell; `from_json_dict` reads the tree back."""
        return {
            "label": self.label,
            "elements": list(self.keys),
            "identity": self.identity,
            "table": self.tabulate(),
        }

    @classmethod
    def from_json_dict(cls, data):
        try:
            keys = data["elements"]
            table = [list(row) for row in data["table"]]
            identity = spec_int("identity", data["identity"])
            label = str(data.get("label", "table"))
        except (KeyError, TypeError) as exc:
            raise MalformedInputError(f"bad semigroup dict: {exc}") from exc
        if not isinstance(keys, list) \
                or not all(isinstance(k, str) for k in keys):
            raise MalformedInputError(
                f"spec field 'elements' must be a list of strings, "
                f"got {keys!r}")
        return cls(label, keys, identity, table=table)


def _table_array(table, n):
    """An explicit table as an int32 array, after checking that it is n
    rows of n element ids (bools are not ids); names the first bad row
    or cell in row-major order.  A table whose cells are all integers
    is checked by its shape and its least and greatest cell; any other,
    or one that fails, is read a cell at a time for the message."""
    if len(table) != n:
        raise MalformedInputError(f"table has {len(table)} rows for {n} ids")
    ids = _integer_array(table)
    if ids is None or ids.shape != (n, n) \
            or (n and not 0 <= ids.min() <= ids.max() < n):
        _check_cells(table, n)
        return np.array(table, dtype=np.int32)
    return ids.astype(np.int32)


def _integer_array(table):
    """The table as an int64 array when every cell is an integer and
    no bool, else None."""
    if isinstance(table, np.ndarray):
        return table if table.dtype.kind in "iu" else None
    try:
        kinds = set(map(type, itertools.chain.from_iterable(table)))
        if not all(issubclass(k, numbers.Integral)
                   and not issubclass(k, bool) for k in kinds):
            return None
        return np.array(table, dtype=np.int64)
    except (TypeError, ValueError, OverflowError):
        return None


def _check_cells(table, n):
    """Raise at the first short or long row, or the first cell that is
    not an element id, in row-major order."""
    for i, row in enumerate(table):
        if len(row) != n:
            raise MalformedInputError(f"table row {i} has {len(row)} cells")
        for j, v in enumerate(row):
            if isinstance(v, bool) or not isinstance(v, numbers.Integral) \
                    or not 0 <= v < n:
                raise MalformedInputError(
                    f"table entry ({i}, {j}) is {v!r}, not an element id")


def _narrow(ids, count):
    """An id array in the narrowest unsigned dtype holding ids below
    count: uint8 up to 256 ids, uint16 up to 65,536."""
    return np.asarray(ids).astype(np.min_scalar_type(max(count - 1, 0)),
                                  copy=False)


@dataclass
class AxiomReport:
    """The outcome of `verify_lrb`: when not ok, `message` names the
    first law that fails and `witness` its first counterexample."""

    ok: bool
    assoc_mode: str            # "exhaustive"; "none" if a law before fails
    checked_triples: int
    witness: tuple = None
    message: str = ""


def verify_lrb(sg, guards=DEFAULT_GUARDS):
    """Check identity, idempotence, deletion (xyx = xy) and
    associativity on the dense table, built first; each pointwise law
    is one array comparison reporting its first failure in row-major
    order.  Associativity is always exhaustive: Light's test over the
    generators (`_assoc_exhaustive`) certifies all |S|^3 triples, and a
    band whose test would read more than LIGHT_CELLS_CAP cells is
    refused with SizeGuardError.  Returns a report; never raises on a
    mere axiom failure.
    """
    n = sg.size
    e = sg.identity
    t = _narrow(sg.tabulate(guards), n)
    ids = np.arange(n, dtype=t.dtype)

    if not (np.array_equal(t[e], ids) and np.array_equal(t[:, e], ids)):
        bad = np.flatnonzero((t[e] != ids) | (t[:, e] != ids))
        return AxiomReport(False, "none", 0,
                           witness=(e, int(bad[0])),
                           message="identity law fails")
    if not np.array_equal(t.diagonal(), ids):
        bad = np.flatnonzero(t.diagonal() != ids)
        return AxiomReport(False, "none", 0,
                           witness=(int(bad[0]),),
                           message="idempotence fails")
    # (xy)x against xy, over every pair (x, y), a block of rows x at a
    # time: column x of t, as a row, read at the cells of row x
    step = max(1, LAW_CELLS // n)
    for lo in range(0, n, step):
        xy = t[lo:lo + step]
        columns = np.ascontiguousarray(t[:, lo:lo + step].T)
        xyx = columns.ravel().take(xy + np.arange(0, xy.size, n)[:, None])
        if not np.array_equal(xyx, xy):
            x, y = np.argwhere(xyx != xy)[0]
            return AxiomReport(False, "none", 0,
                               witness=(lo + int(x), int(y)),
                               message="deletion law xyx = xy fails")

    bad = _assoc_exhaustive(t, sg.generators, e)
    if bad is not None:
        return AxiomReport(False, "exhaustive", n ** 3, witness=bad,
                           message="associativity fails")
    return AxiomReport(True, "exhaustive", n ** 3)


def _assoc_exhaustive(t, generators=(), identity=None):
    """Return a witness triple (x, a, y) with (xa)y != x(ay), or None.

    Light's associativity test (Clifford and Preston, The Algebraic
    Theory of Semigroups I, 1961, section 1.2).  The set B of all b with
    (xb)y = x(by) for every x, y is closed under the product: for a, a'
    in B both bracketings of x(aa')y equal (xa)(a'y).  So checking every
    a of a set A whose left-nested products ((a1 a2) a3)... reach every
    element certifies all |S|^3 triples while reading |A|*|S|^2 of them.
    A is `generators` (ids) plus, while some element is unreached, the
    least unreached id; with no generators at worst A = S.  `identity`,
    an id whose identity law the caller has checked, is in B already
    ((xe)y = xy = x(ey)), so it counts as reached and never joins A.  A
    table whose |A|*|S|^2 exceeds LIGHT_CELLS_CAP is refused before any
    is read.  Per a, one comparison of two |S| x |S| row gathers on the
    narrow table and its transpose: the rows t[t[x, a]] against the
    rows x of the columns t[:, t[a, y]].
    """
    n = len(t)
    t = _narrow(t, n)
    gens = _light_generators(t, generators, identity)
    cells = len(gens) * n * n
    if cells > LIGHT_CELLS_CAP:
        raise SizeGuardError(f"Light's test reads |A|*|S|^2 = {cells} "
                             f"cells, above the cap {LIGHT_CELLS_CAP}")
    tt = np.ascontiguousarray(t.T)
    for a in gens:
        left = t.take(tt[a], axis=0)
        right = tt.take(t[a], axis=0)
        if not np.array_equal(left.T, right):
            x, y = np.argwhere(left != right.T)[0]
            return (int(x), a, int(y))
    return None


def _light_generators(t, generators, identity=None):
    """Ids A whose left-nested products reach every id of the table t
    but `identity`, which starts reached and is never in A: the
    generators, de-duplicated, closed under right multiplication by A,
    with the least unreached id added while one is left."""
    n = len(t)
    gens = [g for g in dict.fromkeys(int(g) for g in generators)
            if g != identity]
    reached = np.zeros(n, dtype=bool)
    reached[gens] = True
    if identity is not None:
        reached[identity] = True
    frontier = np.array(gens, dtype=np.intp)
    while True:
        while frontier.size:
            fresh = np.zeros(n, dtype=bool)
            fresh[t[np.ix_(frontier, gens)]] = True
            fresh &= ~reached
            reached |= fresh
            frontier = np.flatnonzero(fresh)
        unreached = np.flatnonzero(~reached)
        if not unreached.size:
            return gens
        g = int(unreached[0])
        # the reached ids times the old generators are reached already;
        # times g they are new, and g itself is still to be multiplied
        fresh = np.zeros(n, dtype=bool)
        fresh[t[reached, g]] = True
        gens.append(g)
        reached[g] = True
        fresh &= ~reached
        reached |= fresh
        fresh[g] = True
        frontier = np.flatnonzero(fresh)


class SupportStructure(posets.Poset):
    """Support lattice of a verified LRB: a Poset (see `posets`) plus
    the band, its supp map, the fibre of each flat and the chamber set
    (fibre of the top flat, sorted by element key).

    flats are labeled X0, X1, ... ordered by the minimum element id of
    their fibre.  `axioms` is the AxiomReport that derive_support
    checked, or None when it was told not to verify.
    """

    def __init__(self, sg, leq, supp, members, axioms=None):
        self.semigroup = sg
        self.axioms = axioms
        self.supp = supp
        self.members = members
        super().__init__([f"X{i}" for i in range(len(leq))], leq,
                         sg.label + " lattice")
        self.chambers = sorted(members[self.top], key=sg.keys.__getitem__)

    def check(self):
        """Raise at the first pair of flats without a join, then if the
        order is not bounded."""
        self.join
        if self.bottom is None or self.top is None:
            raise AxiomViolationError("support order is not bounded")

    n_flats = posets.Poset.size

    def to_json_dict(self):
        return {
            "flats": list(self.labels),
            # the bool order as the integers 0 and 1, not copied
            "leq": self.leq.view(np.uint8),
            "supp": list(self.supp),
            "chambers": list(self.chambers),
        }


def derive_support(sg, guards=DEFAULT_GUARDS, verify=True):
    """Derive the support lattice of `sg` from products alone.

    On the dense table, built first, quotients S by  x ~ y  iff  xy = x
    and yx = y, orders the classes by absorption, and checks on every
    pair of elements that

        xy = x  <=>  supp(y) <= supp(x)
        supp(xy) = supp(x) v supp(y)

    plus that the class order is a lattice.  Raises with a witness when
    any of this fails, the first failing pair in row-major order, so
    success certifies the LRB structure.
    """
    t = sg.tabulate(guards)
    report = None
    if verify:
        report = verify_lrb(sg, guards)
        if not report.ok:
            raise AxiomViolationError(
                f"not an LRB: {report.message}", witness=report.witness)
    n = sg.size
    # absorbs[x, y]: xy = x
    absorbs = t == np.arange(n, dtype=t.dtype)[:, None]
    supp, reps = _classes(absorbs)
    order = np.argsort(supp, kind="stable").tolist()
    ends = np.cumsum(np.bincount(supp)).tolist()
    members = [order[lo:hi] for lo, hi in zip([0] + ends, ends)]

    # class order: A <= B  iff  rep(B) * rep(A) = rep(B)
    leq = np.ascontiguousarray((t[np.ix_(reps, reps)] == reps[:, None]).T)
    posets.check_partial_order(leq)

    # absorption law on every pair of elements: xy = x against
    # leq[supp(y), supp(x)], the rows supp(x) of leq^T read at supp(y)
    flats = _narrow(supp, len(reps))
    law = leq.T.take(flats, axis=1).take(flats, axis=0)
    if not np.array_equal(absorbs, law):
        raise AxiomViolationError(
            "xy = x does not match supp(y) <= supp(x)",
            witness=tuple(map(int, np.argwhere(absorbs != law)[0])))
    del absorbs, law

    structure = SupportStructure(sg, leq, supp.tolist(), members, report)

    # join law on every pair of elements, a block of rows x at a time:
    # supp(xy) against the rows supp(x) of the join read at supp(y)
    joins = _narrow(structure.join, len(reps)).take(flats, axis=1)
    step = max(1, LAW_CELLS // n)
    for lo in range(0, n, step):
        got = flats.take(t[lo:lo + step])
        law = joins.take(flats[lo:lo + step], axis=0)
        if not np.array_equal(got, law):
            x, y = np.argwhere(got != law)[0]
            raise AxiomViolationError(
                "supp(xy) is not the join of supports",
                witness=(lo + int(x), int(y)))

    if supp[sg.identity] != structure.bottom:
        raise AxiomViolationError("identity support is not the bottom flat")
    return structure


def _classes(absorbs):
    """The classes of x ~ y iff xy = x and yx = y, from the absorption
    matrix: each id's class index and each class's least id, classes
    numbered by least id.  That is the greedy reading in which each id
    r not yet placed opens a class of every unplaced x with x ~ r.  It
    comes in one pass when the least id related to each id (or the id
    itself) is its own least, which certifies the greedy reading (by
    induction on x, every least is a class opener, and the least opener
    related to x); a relation that is no equivalence, as on a corrupted
    table, may fail that, and then the greedy loop runs."""
    n = len(absorbs)
    mutual = absorbs & absorbs.T
    np.fill_diagonal(mutual, True)
    least = mutual.argmax(axis=1)
    if np.array_equal(least[least], least):
        reps = np.flatnonzero(least == np.arange(n))
        return np.searchsorted(reps, least), reps
    supp = np.full(n, -1)
    reps = []
    for r in range(n):
        if supp[r] < 0:
            fibre = (supp < 0) & mutual[:, r]
            fibre[r] = True
            supp[fibre] = len(reps)
            reps.append(r)
    return supp, np.array(reps)


def check_expected_lattice(structure):
    """Compare a derived support lattice against the builder's claim.

    Each construction that knows its support lattice in closed form
    attaches an ExpectedLattice; this verifies, by array comparisons,
    that the derived fibres agree with the expected labelling element
    by element, that the derived flats biject with the expected labels,
    and that the two orders coincide under the bijection.  Raises
    FalsificationError with a witness on any mismatch; returns the
    label list (derived flat id -> expected label) on success.
    Semigroups without a claim pass trivially with None.
    """
    sg = structure.semigroup
    exp = sg.expected
    if exp is None:
        return None
    supp = np.asarray(structure.supp)
    # the expected label of each flat, by its least member
    first = exp.label_of[[m[0] for m in structure.members]]
    bad = np.flatnonzero(exp.label_of != first[supp])
    if bad.size:
        c = supp[bad].min()
        x = bad[supp[bad] == c][0]
        raise FalsificationError(
            f"{sg.label}: one derived flat carries two expected "
            f"labels {exp.labels[first[c]]!r} and "
            f"{exp.labels[exp.label_of[x]]!r}",
            witness=structure.members[c][0])
    flat_label = [exp.labels[i] for i in first.tolist()]
    if sorted(flat_label) != sorted(exp.labels):
        raise FalsificationError(
            f"{sg.label}: derived flats {sorted(flat_label)} differ from "
            f"expected {sorted(exp.labels)}")
    bad = np.argwhere(structure.leq != exp.leq[np.ix_(first, first)])
    if len(bad):
        a, b = map(int, bad[0])
        raise FalsificationError(
            f"{sg.label}: derived order disagrees with the expected "
            f"order at ({flat_label[a]!r}, {flat_label[b]!r})",
            witness=(a, b))
    return flat_label
