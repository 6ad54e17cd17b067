"""Finite left-regular bands.

A left-regular band (LRB) here is a finite semigroup with identity
satisfying x*x = x and x*y*x = x*y.  Every such semigroup carries a
support lattice L and a surjection supp: S -> L with

    supp(xy) = supp(x) v supp(y)        (join)
    xy = x  <=>  supp(y) <= supp(x)

Both facts are derived, not assumed: `derive_support` quotients S by
the mutual-absorption relation and verifies the two displayed laws on
all pairs, so a handle that is not an LRB is rejected with a witness.

Elements are addressed by integer ids into a list of canonical string
keys.  Products come either from a dense Cayley table or from a
memoized rule.
"""

import random
from dataclasses import dataclass

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
    product(i, j): id of the product, table-backed or rule+memo
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
        self.table = table
        self._rule = rule
        self._memo = {} if table is None else None
        self.generators = list(generators) if generators else []
        self.expected = expected
        self.family = family
        self.meta = meta or {}

    @property
    def size(self):
        return len(self.keys)

    def product(self, i, j):
        if self.table is not None:
            return self.table[i][j]
        key = i * len(self.keys) + j
        got = self._memo.get(key)
        if got is None:
            got = self._rule(i, j)
            self._memo[key] = got
        return got

    def tabulate(self, guards=DEFAULT_GUARDS):
        """Materialize the dense Cayley table (subject to the guard)."""
        if self.table is None:
            n = self.size
            if n > guards.table_cap:
                raise SizeGuardError(
                    f"|S|={n} exceeds table cap {guards.table_cap}")
            rule = self._rule
            self.table = [[rule(i, j) for j in range(n)] for i in range(n)]
            self._memo = None
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
        if len(objects) <= guards.assoc_exhaustive_cap:
            sg.tabulate(guards)
        return sg

    def to_json_dict(self, guards=DEFAULT_GUARDS):
        table = self.table or self.tabulate(guards)
        return {
            "label": self.label,
            "elements": list(self.keys),
            "identity": self.identity,
            "table": [list(row) for row in table],
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
        n = len(keys)
        if len(table) != n or any(len(row) != n for row in table):
            raise MalformedInputError("table shape does not match elements")
        for row in table:
            for v in row:
                if not isinstance(v, int) or not 0 <= v < n:
                    raise MalformedInputError("table entry out of range")
        return cls(label, keys, identity, table=table)


@dataclass
class AxiomReport:
    ok: bool
    identity_ok: bool
    idempotent_ok: bool
    deletion_ok: bool
    associative_ok: bool
    assoc_mode: str            # "exhaustive" | "sampled"
    checked_triples: int
    witness: tuple = None
    message: str = ""


def verify_lrb(sg, guards=DEFAULT_GUARDS, seed=0):
    """Check identity, idempotence, deletion (xyx = xy) and
    associativity.  Associativity is exhaustive up to the guard cap and
    sampled (seeded) beyond it.  Returns a report; never raises on a
    mere axiom failure.
    """
    n = sg.size
    e = sg.identity
    prod = sg.product

    for x in range(n):
        if prod(e, x) != x or prod(x, e) != x:
            return AxiomReport(False, False, True, True, True, "none", 0,
                               witness=(e, x), message="identity law fails")
    for x in range(n):
        if prod(x, x) != x:
            return AxiomReport(False, True, False, True, True, "none", 0,
                               witness=(x,), message="idempotence fails")
    for x in range(n):
        for y in range(n):
            xy = prod(x, y)
            if prod(xy, x) != xy:
                return AxiomReport(False, True, True, False, True, "none", 0,
                                   witness=(x, y),
                                   message="deletion law xyx = xy fails")

    if n <= guards.assoc_exhaustive_cap:
        table = sg.table or sg.tabulate(guards)
        bad = _assoc_exhaustive(table)
        if bad is not None:
            return AxiomReport(False, True, True, True, False, "exhaustive",
                               n ** 3, witness=bad,
                               message="associativity fails")
        return AxiomReport(True, True, True, True, True, "exhaustive", n ** 3)

    rng = random.Random(seed)
    m = guards.assoc_samples
    for _ in range(m):
        x = rng.randrange(n)
        y = rng.randrange(n)
        z = rng.randrange(n)
        if prod(prod(x, y), z) != prod(x, prod(y, z)):
            return AxiomReport(False, True, True, True, False, "sampled", m,
                               witness=(x, y, z),
                               message="associativity fails")
    return AxiomReport(True, True, True, True, True, "sampled", m)


def _assoc_exhaustive(table):
    """Return a witness triple or None.  numpy slab sweep."""
    import numpy as np

    n = len(table)
    t = np.asarray(table, dtype=np.int32)
    slab = max(1, (2 ** 22) // max(n * n, 1))
    for k0 in range(0, n, slab):
        k1 = min(n, k0 + slab)
        left = t[:, k0:k1][t, :]          # left[i,j,k] = t[t[i,j], k]
        right = t[:, t[:, k0:k1]]         # right[i,j,k] = t[i, t[j, k]]
        if not np.array_equal(left, right):
            i, j, k = np.argwhere(left != right)[0]
            return (int(i), int(j), int(k + k0))
    return None


class SupportStructure:
    """Support lattice of a verified LRB.

    flats are labeled X0, X1, ... ordered by the minimum element id of
    their fibre.  Exposes the order matrix, join table, supp map,
    chamber set (fibre of the top flat, sorted by element key) and the
    Moebius function of the lattice.  `axioms` is the AxiomReport that
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
        self._mu = posets.moebius_table(leq)
        keys = sg.keys
        self.chambers = sorted(members[self.top], key=lambda i: keys[i])

    def moebius(self, a, b):
        """Moebius function of the support lattice; 0 unless a <= b."""
        return self._mu.get((a, b), 0)

    def coatoms(self):
        """Flats covered by the top flat."""
        t = self.top
        cands = [x for x in range(self.n_flats) if self.leq[x][t] and x != t]
        return [x for x in cands
                if not any(self.leq[x][y] and self.leq[y][t]
                           and y != x and y != t for y in cands)]

    def to_json_dict(self):
        return {
            "flats": list(self.labels),
            "leq": [[1 if v else 0 for v in row] for row in self.leq],
            "supp": list(self.supp),
            "chambers": list(self.chambers),
        }


def derive_support(sg, guards=DEFAULT_GUARDS, verify=True):
    """Derive the support lattice of `sg` from products alone.

    Quotients S by  x ~ y  iff  xy = x and yx = y, orders the classes by
    absorption, and checks on every pair of elements that

        xy = x  <=>  supp(y) <= supp(x)
        supp(xy) = supp(x) v supp(y)

    plus that the class order is a lattice.  Raises with a witness when
    any of this fails, so success certifies the LRB structure.
    """
    n = sg.size
    if n > guards.derive_cap:
        raise SizeGuardError(
            f"support derivation scans |S|^2 pairs; |S|={n} exceeds "
            f"cap {guards.derive_cap}")
    report = None
    if verify:
        report = verify_lrb(sg, guards)
        if not report.ok:
            raise AxiomViolationError(
                f"not an LRB: {report.message}", witness=report.witness)
    prod = sg.product

    # x ~ y  iff  each absorbs the other on the left
    reps = []           # representative id per class
    members = []
    cls_of = [-1] * n
    for x in range(n):
        for c, r in enumerate(reps):
            if prod(x, r) == x and prod(r, x) == r:
                cls_of[x] = c
                members[c].append(x)
                break
        else:
            cls_of[x] = len(reps)
            reps.append(x)
            members.append([x])

    # canonical flat order: by minimum element id of the fibre
    order = sorted(range(len(reps)), key=lambda c: min(members[c]))
    relabel = {old: new for new, old in enumerate(order)}
    reps = [reps[c] for c in order]
    members = [sorted(members[c]) for c in order]
    supp = [relabel[cls_of[x]] for x in range(n)]
    f = len(reps)

    # class order: A <= B  iff  rep(B) * rep(A) = rep(B)
    leq = [[prod(reps[b], reps[a]) == reps[b] for b in range(f)]
           for a in range(f)]
    posets.check_partial_order(leq)

    # absorption law on every pair of elements
    for x in range(n):
        for y in range(n):
            if (prod(x, y) == x) != leq[supp[y]][supp[x]]:
                raise AxiomViolationError(
                    "xy = x does not match supp(y) <= supp(x)",
                    witness=(x, y))

    structure = SupportStructure(sg, leq, supp, members, report)

    # join law on every pair of elements
    join = structure.join
    for x in range(n):
        sx = supp[x]
        for y in range(n):
            if supp[prod(x, y)] != join[sx][supp[y]]:
                raise AxiomViolationError(
                    "supp(xy) is not the join of supports", witness=(x, y))

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
            if structure.leq[a][b] != bool(exp.leq(flat_label[a],
                                                   flat_label[b])):
                raise FalsificationError(
                    f"{sg.label}: derived order disagrees with the expected "
                    f"order at ({flat_label[a]!r}, {flat_label[b]!r})",
                    witness=(a, b))
    return flat_label
