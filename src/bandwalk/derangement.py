"""Generalized derangement numbers of bounded posets.

Every finite poset with a bottom and a top carries an integer d(L)
pinned down by the recurrence

    sum over X of d([X, top]) = number of maximal chains of L.

On the Boolean lattice d(L) is the classical derangement number, on
the subspace lattice it is the q-analogue, and on the lattice of
contractions of a graph it is a graph invariant.  For the lattice of
flats of a matroid the interval values d([X, top]) are exactly the
eigenvalue multiplicities of the maximal-chain random walk, which is
why the module exposes them separately.

Three independent computations of d(L) are run: the defining
recurrence, the Moebius-inversion sum, and the sign-free cover
recurrence d(L) = sum over X < top of (c(X) - 1) d([bottom, X]).
They are provably equal, so any disagreement is raised as a
falsification rather than returned.

The chain counts, the interval derangements, the three-route check and
the flag vectors call on one another, so each is computed once per
poset and kept on it (`Poset.derived`), as a tuple, an int or a
FlagVectors that only this module reads; the public functions hand out
fresh lists and dicts.

The flag-vector half of the module (flag f and h vectors, the descent
family identity d(L) = sum of h_J over the family J whose first gap is
even, and the rank-profile refinement) requires a graded poset.

Every poset here is a `posets.Poset`, which derives its linear
extension, its packed up-sets (`posets.UpSets`) and from them its
covers, ranks and Moebius rows once; `from_support_structure` hands
back the support lattice a band already holds.  Nothing here reads the
order matrix an element at a time: the chain counts follow the up-cover
lists, the defining recurrence sums over the up list of each X, the
cover recurrence counts the covers of each Y inside the down list of
X, the flag counts sum over down lists and `interval` intersects an
up list with a down list.
"""

from dataclasses import dataclass, replace
from functools import cache
from itertools import accumulate, combinations, permutations

import numpy as np

from . import fields, posets
from .errors import (FalsificationError, MalformedInputError,
                     PreconditionError, SizeGuardError)
from .guards import check_counts
from .posets import LATTICE_CAP


# ---------------------------------------------------------------- posets


def interval(p, lo, hi):
    """The subposet [lo, hi], with lo and hi given as element indices."""
    if not p.leq[lo, hi]:
        raise PreconditionError(
            f"{p.labels[lo]} is not below {p.labels[hi]} in {p.name}")
    inside = sorted(set(p.packed.ups[lo]).intersection(p.packed.downs[hi]))
    name = f"{p.name}[{p.labels[lo]},{p.labels[hi]}]"
    return posets.Poset([p.labels[c] for c in inside],
                        p.leq[np.ix_(inside, inside)], name)


def from_support_structure(structure):
    """The support lattice of a band, which is a Poset already."""
    return structure


# ---------------------------------------------------------------- factories


def boolean_lattice(n):
    if n < 0:
        raise MalformedInputError("boolean_lattice needs n >= 0")
    if n >= LATTICE_CAP.bit_length():           # 2^n > LATTICE_CAP
        raise SizeGuardError(f"boolean_lattice({n}) has 2^{n} elements")
    subsets = [[i for i in range(n) if m >> i & 1] for m in range(1 << n)]
    labels = ["{" + ",".join(str(i + 1) for i in sub) + "}"
              for sub in subsets]
    return posets.Poset(labels, posets.inclusion_order(subsets),
                        f"boolean({n})")


def subspace_lattice(n, q):
    """All subspaces of GF(q)^n ordered by inclusion: the lattice of
    flats of fields.VectorSpace(q, n).

    Elements carry their reduced row-echelon basis as the label, the
    zero space being "0".  The subspaces, sum over k of the Gaussian
    binomials [n k]_q, and then the q^n - 1 points of the space are
    counted before the field is built or anything is listed, and more
    than LATTICE_CAP of either are refused.
    """
    if n < 0:
        raise MalformedInputError("subspace_lattice needs n >= 0")
    # there are at least 2^n subspaces, the spans of subsets of a basis,
    # so a large n is refused without running the count
    if n >= LATTICE_CAP.bit_length() or sum(
            poly_eval(q_binomial(n, k), q)
            for k in range(n + 1)) > LATTICE_CAP:
        raise SizeGuardError(
            f"subspace_lattice({n},{q}) has over {LATTICE_CAP} elements")
    return posets.flat_lattice(fields.VectorSpace(q, n), f"subspace({n},{q})")


def _bell_numbers():
    """The Bell numbers B(1), B(2), ...: B(m) begins row m of Bell's
    triangle, the running sums of row m - 1 from its last entry."""
    row = [1]
    while True:
        row = list(accumulate(row, initial=row[-1]))
        yield row[0]


def partition_lattice(n):
    """Partitions of {1..n} ordered by refinement, singletons at bottom:
    the contraction lattice of the complete graph on 1..n, counted
    before the graph is listed."""
    check_counts(f"partition_lattice({n})", _bell_numbers(), LATTICE_CAP, n)
    vertices = range(1, n + 1)
    p = contraction_lattice(combinations(vertices, 2), vertices)
    return replace(p, name=f"partitions({n})")


def contraction_lattice(edges, vertices=None):
    """Partitions of the vertex set whose blocks induce connected
    subgraphs, ordered by refinement.

    The top is the partition into connected components, so a
    disconnected graph is fine; a discrete graph gives the one-element
    poset.  Every set partition of the vertices is tested, so their
    count, a Bell number, is held to LATTICE_CAP.
    """
    adj = {}
    for v in vertices or ():
        adj.setdefault(str(v), set())
    pairs = set()
    for e in edges:
        if len(e) != 2:
            raise MalformedInputError(f"edge {e!r} is not a pair")
        a, b = str(e[0]), str(e[1])
        if a == b:
            raise MalformedInputError(f"loop at {a!r}; the graph must be simple")
        if (min(a, b), max(a, b)) in pairs:
            raise MalformedInputError(f"repeated edge {a!r}-{b!r}")
        pairs.add((min(a, b), max(a, b)))
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    verts = sorted(adj)
    if verts:
        check_counts(f"the graph on {len(verts)} vertices", _bell_numbers(),
                     LATTICE_CAP, len(verts), "set partitions")

    # blocks recur across the partitions, so each is searched once
    @cache
    def connected(block):
        block = set(block)
        seen = {next(iter(block))}
        frontier = list(seen)
        while frontier:
            nxt = [u for v in frontier for u in adj[v]
                   if u in block and u not in seen]
            seen.update(nxt)
            frontier = nxt
        return seen == block

    parts = []
    for p in posets.set_partitions(verts):
        canon = tuple(sorted(tuple(sorted(b)) for b in p))
        if all(connected(b) for b in canon):
            parts.append(canon)
    parts = sorted(set(parts), key=lambda p: (-len(p), p))
    return posets.Poset([posets.partition_label(p) for p in parts],
                        posets.refinement_order(parts),
                        f"contractions({len(verts)}v,{len(pairs)}e)")


def matroid_flats_lattice(m):
    """Lattice of flats of a matroid, ordered by inclusion.

    The flag-chain band's support lattice omits the flats of rank
    r - 1, so interval derangement numbers must be taken here, in the
    full lattice, to reproduce the walk multiplicities.
    """
    return posets.flat_lattice(m, f"flats({m.n})")


def poset_from_json(obj):
    """Poset from {"elements": [...], "covers": [[a, b], ...]}."""
    if not isinstance(obj, dict) or "elements" not in obj \
            or "covers" not in obj:
        raise MalformedInputError("poset JSON needs elements and covers")
    for key in ("elements", "covers"):
        if not isinstance(obj[key], list):
            raise MalformedInputError(f"poset JSON {key} must be a list")
    return posets.Poset.from_covers(obj["elements"], obj["covers"])


# ------------------------------------------------------------ chain counts


def maximal_chain_count(p):
    """Number of maximal chains of a bounded poset, graded or not."""
    return p.derived(_chains_to_top)[p.bottom]


def _chains_to_top(p):
    """f([X, top]) for every X, by one pass over the linear extension."""
    cnt = [0] * p.size
    cnt[p.top] = 1
    for a in reversed(p.order):
        if a != p.top:
            cnt[a] = sum(cnt[b] for b in p.covers[a])
    return tuple(cnt)


def upper_derangements(p):
    """d([X, top]) for every X, via the defining recurrence, as a new
    list.

    For the lattice of flats of a matroid these are the eigenvalue
    multiplicities m_X of the maximal-chain walk.
    """
    return list(p.derived(_upper_derangements))


def _upper_derangements(p):
    cnt = p.derived(_chains_to_top)
    ups = p.packed.ups
    d = [0] * p.size
    for a in reversed(p.order):
        # d[a] is still 0, so the up list of a may include a itself
        d[a] = cnt[a] - sum(d[b] for b in ups[a])
    if sum(d) != cnt[p.bottom]:
        raise FalsificationError(
            f"{p.name}: interval derangements do not resum to the "
            "maximal-chain count")
    return tuple(d)


def derangement_number(p):
    """d(L) by three provably equal routes, which must agree.

    Accepts any bounded poset; gradedness is not required here.
    """
    return p.derived(_derangement_number)


def _derangement_number(p):
    cnt = p.derived(_chains_to_top)
    via_recurrence = p.derived(_upper_derangements)[p.bottom]

    via_moebius = sum(p.moebius(p.bottom, x) * cnt[x] for x in p.order)

    covers, downs = p.covers, p.packed.downs
    low = [0] * p.size
    low[p.bottom] = 1
    for x in p.order:
        if x == p.bottom:
            continue
        below = set(downs[x])
        low[x] = sum((len(below.intersection(covers[y])) - 1) * low[y]
                     for y in downs[x] if y != x)
    via_covers = low[p.top]

    if not via_recurrence == via_moebius == via_covers:
        raise FalsificationError(
            f"{p.name}: derangement routes disagree "
            f"(recurrence {via_recurrence}, moebius {via_moebius}, "
            f"covers {via_covers})")
    atoms = len(p.covers[p.bottom])
    if (via_recurrence == 0) != (atoms == 1) or via_recurrence < 0:
        raise FalsificationError(
            f"{p.name}: d={via_recurrence} with {atoms} atoms breaks the "
            "one-atom criterion")
    return via_recurrence


# ------------------------------------------------------------ flag vectors


@dataclass
class FlagVectors:
    """Flag f and h vectors, keyed by sorted rank subsets of [n-1]."""

    n: int
    f: dict
    h: dict


def _subsets(pool):
    for r in range(len(pool) + 1):
        yield from combinations(pool, r)


def flag_h_vector(f):
    """h_J = sum over K inside J of (-1)^{|J - K|} f_K, for every J in f.

    f must be keyed by sorted tuples and closed under taking subsets.
    """
    return {j_set: sum((-1) ** (len(j_set) - len(k)) * f[k]
                       for k in _subsets(j_set))
            for j_set in f}


def flag_vectors(p):
    """Count rank-selected flags and invert to the flag h-vector.

    f_J is the number of chains hitting exactly the ranks in J (the
    bottom and top are not part of the flag); h is the inclusion-
    exclusion transform, re-checked against f before returning.  The
    dicts are new on every call.
    """
    fv = p.derived(_flag_vectors)
    return FlagVectors(fv.n, dict(fv.f), dict(fv.h))


def _flag_vectors(p):
    n = p.n
    downs = p.packed.downs
    by_rank = {}
    for x in range(p.size):
        by_rank.setdefault(p.rank[x], []).append(x)

    f = {}
    for j_set in _subsets(range(1, n)):
        if not j_set:
            f[j_set] = 1
            continue
        acc = {x: 1 for x in by_rank.get(j_set[0], ())}
        for j in j_set[1:]:
            acc = {y: sum(acc[x] for x in downs[y] if x in acc)
                   for y in by_rank.get(j, ())}
        f[j_set] = sum(acc.values())

    h = flag_h_vector(f)
    for j_set in f:
        if f[j_set] != sum(h[k] for k in _subsets(j_set)):
            raise FalsificationError(
                f"{p.name}: flag h-vector fails to invert at {j_set}")
    return FlagVectors(n, f, h)


def first_gap(j_set):
    """Smallest l >= 1 outside the set."""
    l = 1
    inside = set(j_set)
    while l in inside:
        l += 1
    return l


def stanley_identity_check(p):
    """(d(L), sum of h_J over J with even first gap, agreement flag)."""
    fv = p.derived(_flag_vectors)
    total = sum(hv for j_set, hv in fv.h.items()
                if first_gap(j_set) % 2 == 0)
    d = derangement_number(p)
    return d, total, d == total


def gamma_of(j_set, n):
    """Rank label of a subset: i or i-1 by the parity of the initial
    run i, i+1, ..., i+l-1; the empty set has i=n, l=0."""
    if not j_set:
        return n
    i = j_set[0]
    inside = set(j_set)
    l = 1
    while i + l in inside:
        l += 1
    return i if l % 2 == 0 else i - 1


@dataclass
class MahajanRow:
    r: int
    d_sum: int
    h_sum: int
    ok: bool


def mahajan_profile(p):
    """Per rank r: sum of d([X, top]) over rank-r elements against the
    gamma-filtered flag h-sum, plus the two forced edge values."""
    fv = p.derived(_flag_vectors)
    ups = p.derived(_upper_derangements)
    n = fv.n
    rows = []
    for r in range(n + 1):
        d_sum = sum(ups[x] for x in range(p.size) if p.rank[x] == r)
        h_sum = sum(hv for j_set, hv in fv.h.items()
                    if gamma_of(j_set, n) == r)
        ok = d_sum == h_sum
        if r == n - 1:
            ok = ok and d_sum == 0
        if r == n:
            ok = ok and d_sum == 1
        rows.append(MahajanRow(r, d_sum, h_sum, ok))
    return rows


# ----------------------------------------------------- q-analogue helpers

# Dense integer polynomials in q, ascending degree.


def poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_add(a, b):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return poly_trim(out)


def poly_sub(a, b):
    return poly_add(a, [-c for c in b])


def poly_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return poly_trim(out)


def poly_eval(p, x):
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def q_int(n):
    return [1] * n


def q_factorial(n):
    out = [1]
    for i in range(1, n + 1):
        out = poly_mul(out, q_int(i))
    return out


def q_binomial(n, k):
    """Gaussian binomial via the q-Pascal recurrence."""
    if k < 0 or k > n:
        return []
    row = [[1]]
    for m in range(1, n + 1):
        nxt = [[1]]
        for i in range(1, m):
            nxt.append(poly_add(row[i - 1], [0] * i + row[i]))
        nxt.append([1])
        row = nxt
    return row[k]


def q_derangement(n):
    """d_n(q) from the subspace-lattice recurrence
    sum over i of qbinom(n, i) d_i = [n]!."""
    d = [[1]]
    for m in range(1, n + 1):
        rest = []
        for i in range(m):
            rest = poly_add(rest, poly_mul(q_binomial(m, i), d[i]))
        d.append(poly_sub(q_factorial(m), rest))
    return d[n]


def desarrangements(n):
    """Permutations whose maximal initial descending run has even
    length, as tuples."""
    out = []
    for perm in permutations(range(1, n + 1)):
        l = 1
        while l < n and perm[l - 1] > perm[l]:
            l += 1
        if l % 2 == 0:
            out.append(perm)
    if n == 0:
        out.append(())
    return out


def inversion_count(perm):
    return sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
               if perm[i] > perm[j])


def wachs_polynomial(n):
    """Inversion generating function of the desarrangements."""
    out = []
    for perm in desarrangements(n):
        k = inversion_count(perm)
        if len(out) <= k:
            out.extend([0] * (k + 1 - len(out)))
        out[k] += 1
    return poly_trim(out)
