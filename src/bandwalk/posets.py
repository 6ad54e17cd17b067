"""Order-theoretic helpers shared by the support structure, the graded
poset type and the constructions: cover relations, Moebius functions,
join/meet tables, validity checks and set-partition enumeration.

Posets are handled as a boolean ``leq`` matrix over element ids
``0..n-1`` with ``leq[a][b]`` meaning ``a <= b``.
"""

from .errors import AxiomViolationError


def check_partial_order(leq):
    """Raise unless leq is reflexive, antisymmetric and transitive."""
    n = len(leq)
    for a in range(n):
        if not leq[a][a]:
            raise AxiomViolationError("order not reflexive", witness=(a,))
    for a in range(n):
        for b in range(n):
            if a != b and leq[a][b] and leq[b][a]:
                raise AxiomViolationError("order not antisymmetric", witness=(a, b))
    for a in range(n):
        la = leq[a]
        for b in range(n):
            if la[b]:
                lb = leq[b]
                for c in range(n):
                    if lb[c] and not la[c]:
                        raise AxiomViolationError(
                            "order not transitive", witness=(a, b, c)
                        )


def covers_of(leq):
    """cover lists: covers[a] = sorted ids b with a < b and nothing between."""
    n = len(leq)
    covers = []
    for a in range(n):
        ups = [b for b in range(n) if leq[a][b] and a != b]
        cov = []
        for b in ups:
            if not any(leq[a][c] and leq[c][b] and c != a and c != b for c in ups):
                cov.append(b)
        covers.append(sorted(cov))
    return covers


def linear_extension(leq):
    """Element ids ordered so that smaller elements come first."""
    n = len(leq)
    below = [sum(1 for b in range(n) if leq[b][a]) for a in range(n)]
    return sorted(range(n), key=lambda a: (below[a], a))


def moebius_table(leq):
    """Full Moebius function as a dict (a, b) -> mu(a, b) for a <= b."""
    n = len(leq)
    order = linear_extension(leq)
    mu = {}
    for a in range(n):
        ups = [b for b in order if leq[a][b]]
        for b in ups:
            if a == b:
                mu[(a, b)] = 1
            else:
                mu[(a, b)] = -sum(
                    mu[(a, z)] for z in ups if leq[z][b] and z != b
                )
    return mu


def join_table(leq):
    """Least-upper-bound table, or raise if some pair has no join."""
    n = len(leq)
    table = [[-1] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            ubs = [c for c in range(n) if leq[a][c] and leq[b][c]]
            least = [c for c in ubs if all(leq[c][d] for d in ubs)]
            if len(least) != 1:
                raise AxiomViolationError("pair has no unique join", witness=(a, b))
            table[a][b] = table[b][a] = least[0]
    return table


def meet_table(leq):
    """Greatest-lower-bound table, or raise if some pair has no meet."""
    flipped = [[leq[b][a] for b in range(len(leq))] for a in range(len(leq))]
    return join_table(flipped)


def bottom_of(leq):
    n = len(leq)
    bottoms = [a for a in range(n) if all(leq[a][b] for b in range(n))]
    return bottoms[0] if len(bottoms) == 1 else None


def top_of(leq):
    n = len(leq)
    tops = [a for a in range(n) if all(leq[b][a] for b in range(n))]
    return tops[0] if len(tops) == 1 else None


def rank_function(leq, bottom):
    """Ranks if the poset is graded from bottom, else None.

    Graded means every cover step raises the longest-chain rank by
    exactly one.
    """
    n = len(leq)
    order = linear_extension(leq)
    rank = [0] * n
    covers = covers_of(leq)
    below_covers = [[] for _ in range(n)]
    for a in range(n):
        for b in covers[a]:
            below_covers[b].append(a)
    for a in order:
        if a == bottom:
            rank[a] = 0
        elif below_covers[a]:
            rank[a] = 1 + max(rank[b] for b in below_covers[a])
    for a in range(n):
        for b in covers[a]:
            if rank[b] != rank[a] + 1:
                return None
    return rank


def count_saturated_chains(leq, lo, hi):
    """Number of maximal chains of the interval [lo, hi]."""
    if lo == hi:
        return 1
    if not leq[lo][hi]:
        return 0
    n = len(leq)
    inside = [c for c in range(n) if leq[lo][c] and leq[c][hi]]
    sub = {c: i for i, c in enumerate(inside)}
    sub_leq = [[leq[a][b] for b in inside] for a in inside]
    covers = covers_of(sub_leq)
    counts = [0] * len(inside)
    counts[sub[lo]] = 1
    for a in linear_extension(sub_leq):
        for b in covers[a]:
            counts[b] += counts[a]
    return counts[sub[hi]]


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
