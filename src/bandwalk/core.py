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
`posets` reads, and the join law is checked against the join table
`posets` derives from it, both as arrays.

Elements are addressed by integer ids into a list of canonical string
keys.  The Cayley table is one C-contiguous int32 array of ids.  The
braid-arrangement, q-analogue and matroid constructions fill it at
build time with the integer kernels (see `constructions`); the
distributive chain bands fill it from their per-pair rule, by
`tabulate`, which `verify_lrb` and `derive_support` call first, so
table_cap is the one gate on the |S|^2 work of their laws, array
expressions that report the first failing pair in row-major order.
`product` reads a memoryview of the table, which gives plain ints,
and calls the rule directly while there is no table.

"Exhaustive" associativity means every one of the |S|^3 triples is
certified.  Light's test does it while reading |A|*|S|^2 of them, for
a set A that generates S (the construction's generators, completed
where they fall short), so the work scales with |A|, not |S|.
"""

import numbers
import random
from dataclasses import dataclass

import numpy as np

from . import posets
from .errors import (
    AxiomViolationError,
    FalsificationError,
    MalformedInputError,
    SizeGuardError,
)
from .guards import DEFAULT_GUARDS


@dataclass(frozen=True)
class ExpectedLattice:
    """Construction-supplied description of what the support lattice
    should look like, used by the foundation checks.

    labels: canonical labels of all expected flats
    label_of: element id -> expected flat label
    leq: (label, label) -> bool, the expected order
    """

    labels: tuple
    label_of: object
    leq: object


class Semigroup:
    """Handle to a finite semigroup with identity.

    keys: canonical element keys, unique and deterministic
    identity: id of the two-sided identity
    table: C-contiguous int32 Cayley table, or None before `tabulate`
    product(i, j): id of the product, from the table, or from the rule
    before `tabulate`
    generators: ids of the construction's distinguished generating set
    """

    def __init__(self, label, keys, identity, *, table=None, rule=None,
                 generators=None, expected=None, family=None, meta=None):
        if table is None and rule is None:
            raise MalformedInputError("need a product table or rule")
        if len(set(keys)) != len(keys):
            raise MalformedInputError("element keys are not unique")
        if not 0 <= identity < len(keys):
            raise MalformedInputError("identity id out of range")
        self.label = label
        self.keys = list(keys)
        self.identity = identity
        self.index = {k: i for i, k in enumerate(self.keys)}
        self.table = None if table is None else _table_array(table, len(keys))
        self._rule = rule
        self.generators = list(generators) if generators else []
        self.expected = expected
        self.family = family
        self.meta = meta or {}

    @property
    def table(self):
        return self._table

    @table.setter
    def table(self, table):
        self._table = table
        self._cells = None if table is None else memoryview(table)

    @property
    def size(self):
        return len(self.keys)

    def product(self, i, j):
        if self._cells is not None:
            return self._cells[i, j]
        return self._rule(i, j)

    def tabulate(self, guards=DEFAULT_GUARDS):
        """Materialize the dense Cayley table (subject to the guard)."""
        if self.table is None:
            n = self.size
            if n > guards.table_cap:
                raise SizeGuardError(
                    f"|S|={n} exceeds table cap {guards.table_cap}")
            rule = self._rule
            self.table = np.array([[rule(i, j) for j in range(n)]
                                   for i in range(n)], dtype=np.int32)
        return self.table

    @classmethod
    def from_objects(cls, label, objects, mult, key_of, identity_obj, *,
                     generators=(), expected=None, family=None, meta=None,
                     guards=DEFAULT_GUARDS):
        """Wrap explicit element objects and an object-level product.

        The object product must be closed over `objects`; a product that
        leaves the listed elements is reported as a malformed handle.
        """
        if len(objects) > guards.elements_cap:
            raise SizeGuardError(
                f"{len(objects)} elements exceed cap {guards.elements_cap}")
        keys = [key_of(o) for o in objects]
        index = {}
        for i, k in enumerate(keys):
            if k in index:
                raise MalformedInputError(f"duplicate element key {k!r}")
            index[k] = i
        objs = list(objects)

        def rule(i, j):
            out = key_of(mult(objs[i], objs[j]))
            got = index.get(out)
            if got is None:
                raise MalformedInputError(
                    f"product leaves the element list: {keys[i]} * {keys[j]}")
            return got

        gen_ids = [index[key_of(g)] for g in generators]
        sg = cls(label, keys, index[key_of(identity_obj)], rule=rule,
                 generators=gen_ids, expected=expected, family=family,
                 meta=meta)
        sg.objects = objs
        return sg

    def to_json_dict(self, guards=DEFAULT_GUARDS):
        ids = list(range(self.size))    # one int object per id, shared
        return {
            "label": self.label,
            "elements": list(self.keys),
            "identity": self.identity,
            "table": [list(map(ids.__getitem__, row.tolist()))
                      for row in self.tabulate(guards)],
        }

    @classmethod
    def from_json_dict(cls, data):
        try:
            keys = list(data["elements"])
            table = [list(row) for row in data["table"]]
            identity = int(data["identity"])
            label = str(data.get("label", "table"))
        except (KeyError, TypeError) as exc:
            raise MalformedInputError(f"bad semigroup dict: {exc}") from exc
        return cls(label, keys, identity, table=table)


def _table_array(table, n):
    """An explicit table as an int32 array, after checking that it is n
    rows of n element ids (bools are not ids); names the first bad row
    or cell."""
    if len(table) != n:
        raise MalformedInputError(f"table has {len(table)} rows for {n} ids")
    for i, row in enumerate(table):
        if len(row) != n:
            raise MalformedInputError(f"table row {i} has {len(row)} cells")
        for j, v in enumerate(row):
            if isinstance(v, bool) or not isinstance(v, numbers.Integral) \
                    or not 0 <= v < n:
                raise MalformedInputError(
                    f"table entry ({i}, {j}) is {v!r}, not an element id")
    return np.array(table, dtype=np.int32)


@dataclass
class AxiomReport:
    """The outcome of `verify_lrb`: when not ok, `message` names the
    first law that fails and `witness` its first counterexample."""

    ok: bool
    assoc_mode: str            # "exhaustive" | "sampled"
    checked_triples: int
    witness: tuple = None
    message: str = ""


def verify_lrb(sg, guards=DEFAULT_GUARDS, seed=0):
    """Check identity, idempotence, deletion (xyx = xy) and
    associativity on the dense table, built first; each pointwise law
    is one array comparison reporting its first failure in row-major
    order.  Associativity is exhaustive while the |S|^3 triples fit
    assoc_triples_cap, and sampled (seeded) beyond.  Exhaustive means
    every triple is certified, by Light's test over the generators
    (`_assoc_exhaustive`), which reads |A|*|S|^2 of them.  Returns a
    report; never raises on a mere axiom failure.
    """
    n = sg.size
    e = sg.identity
    t = sg.tabulate(guards)
    ids = np.arange(n)

    bad = np.flatnonzero((t[e] != ids) | (t[:, e] != ids))
    if bad.size:
        return AxiomReport(False, "none", 0,
                           witness=(e, int(bad[0])),
                           message="identity law fails")
    bad = np.flatnonzero(t.diagonal() != ids)
    if bad.size:
        return AxiomReport(False, "none", 0,
                           witness=(int(bad[0]),),
                           message="idempotence fails")
    # (xy)x against xy, over every pair (x, y)
    bad = np.argwhere(t[t, ids[:, None]] != t)
    if len(bad):
        return AxiomReport(False, "none", 0,
                           witness=tuple(map(int, bad[0])),
                           message="deletion law xyx = xy fails")

    if n ** 3 <= guards.assoc_triples_cap:
        bad = _assoc_exhaustive(t, sg.generators)
        if bad is not None:
            return AxiomReport(False, "exhaustive", n ** 3, witness=bad,
                               message="associativity fails")
        return AxiomReport(True, "exhaustive", n ** 3)

    prod = sg.product
    rng = random.Random(seed)
    m = guards.assoc_samples
    for _ in range(m):
        x = rng.randrange(n)
        y = rng.randrange(n)
        z = rng.randrange(n)
        if prod(prod(x, y), z) != prod(x, prod(y, z)):
            return AxiomReport(False, "sampled", m,
                               witness=(x, y, z),
                               message="associativity fails")
    return AxiomReport(True, "sampled", m)


def _assoc_exhaustive(t, generators=()):
    """Return a witness triple (x, a, y) with (xa)y != x(ay), or None.

    Light's associativity test (Clifford and Preston, The Algebraic
    Theory of Semigroups I, 1961, section 1.2).  The set B of all b with
    (xb)y = x(by) for every x, y is closed under the product: for a, a'
    in B both bracketings of x(aa')y equal (xa)(a'y).  So checking every
    a of a set A whose left-nested products ((a1 a2) a3)... reach every
    element certifies all |S|^3 triples while reading |A|*|S|^2 of them.
    A is `generators` (ids) plus, while some element is unreached, the
    least unreached id; with no generators at worst A = S.  Per a, one
    comparison of two |S| x |S| gathers: t[t[x, a], y] against
    t[x, t[a, y]].
    """
    for a in _light_generators(t, generators):
        bad = t[t[:, a]] != t[:, t[a]]
        if bad.any():
            x, y = np.argwhere(bad)[0]
            return (int(x), a, int(y))
    return None


def _light_generators(t, generators):
    """Ids A whose left-nested products reach every id of the table t:
    the generators, de-duplicated, closed under right multiplication
    by A, with the least unreached id added while one is left."""
    n = len(t)
    gens = list(dict.fromkeys(int(g) for g in generators))
    reached = np.zeros(n, dtype=bool)
    reached[gens] = True
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


class SupportStructure:
    """Support lattice of a verified LRB.

    flats are labeled X0, X1, ... ordered by the minimum element id of
    their fibre.  Exposes the order `leq` (a numpy bool matrix, see
    `posets`), the cover matrix, a linear extension `order`, the join
    table (an int array), the supp map, the chamber set (fibre of the
    top flat, sorted by element key) and the Moebius function of the
    lattice, each derived once, here.  `axioms` is the AxiomReport that
    derive_support checked, or None when it was told not to verify.
    """

    def __init__(self, sg, leq, supp, members, axioms=None):
        self.semigroup = sg
        self.axioms = axioms
        self.leq = leq
        self.supp = supp
        self.members = members
        self.n_flats = len(leq)
        self.labels = [f"X{i}" for i in range(self.n_flats)]
        self.join = posets.join_table(leq)
        self.bottom = posets.bottom_of(leq)
        self.top = posets.top_of(leq)
        if self.bottom is None or self.top is None:
            raise AxiomViolationError("support order is not bounded")
        self.cover = posets.covers_of(leq)
        self.order = posets.linear_extension(leq)
        self._mu = [posets.moebius_row(leq, self.order, a)
                    for a in range(self.n_flats)]
        keys = sg.keys
        self.chambers = sorted(members[self.top], key=lambda i: keys[i])

    def moebius(self, a, b):
        """Moebius function of the support lattice; 0 unless a <= b."""
        return self._mu[a].get(b, 0)

    def coatoms(self):
        """Flats covered by the top flat."""
        return np.flatnonzero(self.cover[:, self.top]).tolist()

    def to_json_dict(self):
        return {
            "flats": list(self.labels),
            "leq": self.leq.astype(int).tolist(),
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
    ids = np.arange(n)

    # x ~ r  iff  each absorbs the other on the left; a class is named
    # by its least id r, so the flats come ordered by it
    supp = np.full(n, -1)
    reps = []
    for r in range(n):
        if supp[r] < 0:
            fibre = (supp < 0) & (t[:, r] == ids) & (t[r] == r)
            fibre[r] = True
            supp[fibre] = len(reps)
            reps.append(r)
    members = [np.flatnonzero(supp == c).tolist()
               for c in range(len(reps))]

    # class order: A <= B  iff  rep(B) * rep(A) = rep(B)
    reps = np.array(reps)
    leq = np.ascontiguousarray((t[np.ix_(reps, reps)] == reps[:, None]).T)
    posets.check_partial_order(leq)

    # absorption law on every pair of elements
    bad = np.argwhere((t == ids[:, None])
                      != leq[supp[None, :], supp[:, None]])
    if len(bad):
        raise AxiomViolationError(
            "xy = x does not match supp(y) <= supp(x)",
            witness=tuple(map(int, bad[0])))

    structure = SupportStructure(sg, leq, supp.tolist(), members, report)

    # join law on every pair of elements
    bad = np.argwhere(
        supp[t] != structure.join[supp[:, None], supp[None, :]])
    if len(bad):
        raise AxiomViolationError(
            "supp(xy) is not the join of supports",
            witness=tuple(map(int, bad[0])))

    if supp[sg.identity] != structure.bottom:
        raise AxiomViolationError("identity support is not the bottom flat")
    return structure


def check_expected_lattice(structure):
    """Compare a derived support lattice against the builder's claim.

    Each construction that knows its support lattice in closed form
    attaches an ExpectedLattice; this verifies that the derived flats
    biject with the expected labels, that the derived fibres agree with
    the expected labelling element by element, and that the two orders
    coincide under the bijection.  Raises FalsificationError with a
    witness on any mismatch; returns the label list (derived flat id ->
    expected label) on success.  Semigroups without a claim pass
    trivially with None.
    """
    sg = structure.semigroup
    exp = sg.expected
    if exp is None:
        return None
    f = structure.n_flats
    leq = structure.leq.tolist()
    flat_label = [None] * f
    for c in range(f):
        for x in structure.members[c]:
            lab = exp.label_of(x)
            if flat_label[c] is None:
                flat_label[c] = lab
            elif flat_label[c] != lab:
                raise FalsificationError(
                    f"{sg.label}: one derived flat carries two expected "
                    f"labels {flat_label[c]!r} and {lab!r}",
                    witness=structure.members[c][0])
    if sorted(flat_label) != sorted(exp.labels):
        raise FalsificationError(
            f"{sg.label}: derived flats {sorted(flat_label)} differ from "
            f"expected {sorted(exp.labels)}")
    for a in range(f):
        for b in range(f):
            if leq[a][b] != bool(exp.leq(flat_label[a], flat_label[b])):
                raise FalsificationError(
                    f"{sg.label}: derived order disagrees with the expected "
                    f"order at ({flat_label[a]!r}, {flat_label[b]!r})",
                    witness=(a, b))
    return flat_label
