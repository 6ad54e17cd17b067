"""Finite matroids given by an independence oracle, with the rank table
and the flats that build the two matroid semigroups.

Matroids can be specified by explicit independent sets, by vector
configurations over GF(q), by multigraphs (edge sets, forests
independent) or as uniform matroids U_{k,m}.
"""

import itertools

from . import fields
from .core import spec_int
from .errors import AxiomViolationError, MalformedInputError, SizeGuardError

# most entries of the rank table, one per subset of the ground set: a
# ground set of at most 12 elements
RANK_TABLE_CAP = 4096


def _numbered(labels):
    """The labels with the k-th repeat of each, k >= 2, suffixed "#k"."""
    seen = {}
    out = []
    for lab in labels:
        seen[lab] = seen.get(lab, 0) + 1
        out.append(lab if seen[lab] == 1 else f"{lab}#{seen[lab]}")
    return out


def _mask(subset):
    """The bitmask of a set of ground ids."""
    mask = 0
    for x in subset:
        mask |= 1 << x
    return mask


class Matroid:
    """ground: canonical labels of the ground set (ids 0..n-1),
    indep: callable frozenset[int] -> bool.  The axioms are checked on
    construction over the rank table of all 2^|E| subsets, refused above
    RANK_TABLE_CAP entries, and every later question reads that table."""

    def __init__(self, ground, indep, kind="oracle"):
        if 1 << len(ground) > RANK_TABLE_CAP:
            raise SizeGuardError(
                f"ground set of {len(ground)} needs a rank table of "
                f"2^{len(ground)} entries, above the cap {RANK_TABLE_CAP}")
        if len(set(ground)) != len(ground):
            raise MalformedInputError("ground labels are not unique")
        self.ground = list(ground)
        self.n = len(ground)
        self.kind = kind
        self._flats = None
        if not indep(frozenset()):
            raise AxiomViolationError("empty set is not independent")
        self._rank = self._ranks(indep)
        self._check_exchange()
        self.full_rank = self._rank[-1]

    def is_independent(self, subset):
        subset = frozenset(subset)
        return self.rank(subset) == len(subset)

    def _ranks(self, indep):
        """r(X), the largest size of an independent subset of X, for
        every subset X as a bitmask.  r(X) is |X| when X is independent
        and the largest r(X-x) otherwise, and an independent X with a
        dependent X-x is reported as a failure of downward closure."""
        n = self.n
        bits = [1 << x for x in range(n)]
        rank = [0] * (1 << n)
        for mask in range(1, 1 << n):
            members = [x for x in range(n) if mask & bits[x]]
            below = [rank[mask ^ bits[x]] for x in members]
            if not indep(frozenset(members)):
                rank[mask] = max(below)
            elif min(below) < len(members) - 1:
                raise AxiomViolationError(
                    "independence is not downward closed",
                    witness=(members, members[below.index(min(below))]))
            else:
                rank[mask] = len(members)
        return rank

    def _check_exchange(self):
        """Submodularity of the rank, given downward closure.  A
        hereditary family is the independent sets of a matroid exactly
        when r is submodular, and as r rises by at most one per element
        it is enough that r(X+a) + r(X+b) >= r(X+a+b) + r(X) for every X
        and a, b outside X.  An exchange failure is reported as a pair of
        independent sets I, J with |J| = |I| + 1 and no x of J - I making
        I + x independent.
        """
        n = self.n
        bits = [1 << x for x in range(n)]
        rank = self._rank

        def independent_part(mask):
            # drop elements that keep the rank until the set is independent
            while rank[mask] < bin(mask).count("1"):
                mask = next(mask ^ b for b in bits
                            if mask & b and rank[mask ^ b] == rank[mask])
            return [x for x in range(n) if mask & bits[x]]

        for a, b in itertools.combinations(bits, 2):
            for x in range(1 << n):
                if not x & (a | b) and \
                        rank[x | a] + rank[x | b] < rank[x | a | b] + rank[x]:
                    # r(X) = r(X+a) = r(X+b) = r(X+a+b) - 1
                    raise AxiomViolationError(
                        "exchange axiom fails",
                        witness=(independent_part(x),
                                 independent_part(x | a | b)))

    def rank(self, subset):
        return self._rank[_mask(subset)]

    def flats(self):
        """All flats, sorted by (rank, labels); computed once and kept
        on the instance, so that the matroid can still be freed.

        Read off the rank table: a set F is a flat when adding any x
        outside F raises its rank.
        """
        if self._flats is not None:
            return self._flats
        rank = self._rank
        n = self.n
        bits = [1 << x for x in range(n)]
        found = []
        for mask, r in enumerate(rank):
            if all(rank[mask | b] > r for b in bits if not mask & b):
                found.append((r, [x for x in range(n) if mask & bits[x]]))
        found.sort()
        self._flats = [frozenset(members) for _, members in found]
        return self._flats

    def flat_label(self, flat):
        return "{" + ",".join(self.ground[i] for i in sorted(flat)) + "}"

    # constructors -----------------------------------------------------

    @classmethod
    def from_independent_sets(cls, ground, independent):
        labels = [str(g) for g in ground]
        pos = {g: i for i, g in enumerate(labels)}
        try:
            sets = {frozenset(pos[str(x)] for x in s) for s in independent}
        except KeyError as exc:
            raise MalformedInputError(f"unknown ground element {exc}") from exc
        return cls(labels, lambda a: a in sets, kind="sets")

    @classmethod
    def from_vectors(cls, q, columns):
        fld = fields.field(q)
        cols = [tuple(int(c) % q for c in col) for col in columns]
        if len({len(c) for c in cols}) > 1:
            raise MalformedInputError("vector columns have mixed lengths")
        labels = _numbered([fields.vector_label(c, q) for c in cols])

        def indep(subset):
            rows = [cols[i] for i in sorted(subset)]
            return len(fields.rref(fld, rows)) == len(rows)

        return cls(labels, indep, kind="vectors")

    @classmethod
    def from_graph(cls, edges):
        """Edges as (u, v) pairs; loops and parallel edges allowed."""
        pairs = [(str(u), str(v)) for u, v in edges]
        labels = _numbered([f"{u}-{v}" for u, v in pairs])

        def indep(subset):
            parent = {}

            def find(a):
                while parent.get(a, a) != a:
                    parent[a] = parent.get(parent[a], parent[a])
                    a = parent[a]
                return a

            for i in sorted(subset):
                u, v = pairs[i]
                ru, rv = find(u), find(v)
                if ru == rv:
                    return False
                parent[ru] = rv
            return True

        return cls(labels, indep, kind="graph")

    @classmethod
    def uniform(cls, k, m):
        if not 0 <= k <= m:
            raise MalformedInputError("uniform matroid needs 0 <= k <= m")
        labels = [str(i + 1) for i in range(m)]
        return cls(labels, lambda a: len(a) <= k, kind="uniform")

    @classmethod
    def free(cls, n):
        return cls.uniform(n, n)


def build_matroid(spec):
    """Matroid from a spec dict: {"kind": "sets"|"vectors"|"graph"|
    "uniform"|"free", ...}."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise MalformedInputError("matroid spec needs a 'kind' field")
    kind = spec["kind"]
    try:
        if kind == "sets":
            return Matroid.from_independent_sets(
                spec["ground"], spec["independent"])
        if kind == "vectors":
            columns = [[spec_int("columns", c) for c in col]
                       for col in spec["columns"]]
            return Matroid.from_vectors(spec_int("q", spec["q"]), columns)
        if kind == "graph":
            return Matroid.from_graph(spec["edges"])
        if kind == "uniform":
            return Matroid.uniform(spec_int("k", spec["k"]),
                                   spec_int("m", spec["m"]))
        if kind == "free":
            return Matroid.free(spec_int("n", spec["n"]))
    except (KeyError, TypeError) as exc:
        raise MalformedInputError(f"bad matroid spec: {exc}") from exc
    raise MalformedInputError(f"unknown matroid kind {kind!r}")
