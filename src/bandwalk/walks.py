"""Running and analyzing the chamber walk.

Two product orders matter and are easy to confuse.  The walk itself
multiplies each new draw on the LEFT of the current chamber (c goes to
xc).  The stationary distribution is realized by the a.s. limit of the
infinite product x1 x2 x3 ..., which grows by multiplying new draws on
the RIGHT of the accumulator; the accumulator becomes a chamber at the
first time T its support hits the top flat.  `simulate` runs the
walk; the stationary and stopping-time samplers share one
draw-until-top loop, and `stationary_exact` computes the law of that
same loop exactly, one element at a time in support order, with the
pass that gives the residue idempotents in `algebra`.

Exact paths (stationary law, matrix powers, total variation, the
stopping-time tail, the coatom bound) compute in the integers
a_x = D w_x of `spectral.WeightVector` and n_X = D lambda_X of
`spectral.flat_nodes`, with every product by w in the semigroup algebra
kS through `spectral.sparse_product`, and return Fractions.  Empirical
paths replay the seeded standard generator in blocks: `_draw_blocks`
rebuilds its `random()` stream, double for double, from `getrandbits`
words and draws a whole block with one sorted search, so every sampled
artifact is the one a draw-at-a-time loop would give.  A draw is a
position k into the weighted ids, and the loops read everything per
draw off rows indexed by k, built once per call: the walk steps along
the table row of ids[k]; the draw-until-top loop tests a rise of the
support with one rise row per flat, and only the stationary sampler,
which needs the landing chamber, multiplies the accumulator in, from
the table columns of the weighted ids.  Empirical values are floats,
checked against exact values within the DKW band of `dkw_epsilon`,
whose false-alarm rate does not depend on the seed.
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import residue_idempotent
from .errors import (
    FalsificationError,
    MalformedInputError,
    NonUniqueStationaryError,
    PreconditionError,
    StagnationError,
)
from .guards import DEFAULT_GUARDS
from .spectral import (flat_nodes, krylov_sequence, sparse_product,
                       weighted_rows)


# --------------------------------------------------------- trajectory


@dataclass
class WalkTrajectory:
    start: int
    seed: int
    steps: list            # (drawn element id, resulting chamber id)

    @property
    def final(self):
        return self.steps[-1][1] if self.steps else self.start


# draws per block of the sampler stream
DRAW_BLOCK = 4096


def _draw_blocks(w, seed):
    """(ids, blocks): the weighted element ids w.support_ids(), and the
    draws from w by inverse CDF as an endless stream of lists of
    DRAW_BLOCK positions into ids.

    Draw k is ids[bisect_left(cum, u_k * acc)], with cum the float
    running sums of w, acc their total and u_k the k-th rng.random() of
    random.Random(seed).  A block takes 64 bits per draw from that
    generator with one getrandbits call, whose integer holds the 32-bit
    Mersenne Twister outputs in order from its low end, and rebuilds
    each double as random() does, ((a >> 5) 2^26 + (b >> 6)) / 2^53
    from two consecutive words a, b.  The weights are checked at the
    call, and nothing is drawn before the first block is asked for.
    """
    ids = w.support_ids()
    if any(w[i] < 0 for i in ids):
        raise PreconditionError("cannot sample from negative weights")
    cum = []
    acc = 0.0
    for i in ids:
        acc += float(w[i])
        cum.append(acc)
    cum = np.array(cum)
    rng = random.Random(seed)

    def blocks():
        nbytes = 8 * DRAW_BLOCK
        while True:
            words = np.frombuffer(
                rng.getrandbits(8 * nbytes).to_bytes(nbytes, "little"),
                dtype="<u4")
            u = ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) \
                * (1.0 / 9007199254740992.0)
            # u < 1, so the scaled point never passes cum[-1] == acc
            yield np.searchsorted(cum, u * acc, side="left").tolist()

    return ids, blocks()


def simulate(structure, w, c0, steps, seed):
    """Seeded left-multiplication walk from chamber c0.

    A draw at position k of the weighted ids moves the chamber along
    the product row of ids[k], read as a memoryview."""
    if c0 not in structure.chambers:
        raise MalformedInputError(f"start {c0} is not a chamber")
    if steps < 0:
        raise MalformedInputError(f"negative step count {steps}")
    ids, draws = _draw_blocks(w, seed)
    left = list(map(memoryview, structure.semigroup.rows(ids)))
    out = []
    cur = c0
    while len(out) < steps:
        for k in next(draws)[:steps - len(out)]:
            cur = left[k][cur]
            out.append((ids[k], cur))
    return WalkTrajectory(c0, seed, out)


# ------------------------------------------------------ distributions


@dataclass
class DistributionOnChambers:
    chamber_keys: list
    probs: list
    provenance: str

    def __len__(self):
        return len(self.probs)


def total_variation(p, q):
    """(1/2) L1 distance; exact when both sides are exact."""
    if len(p) != len(q):
        raise MalformedInputError("distributions over different chamber sets")
    diff = sum(abs(a - b) for a, b in zip(p, q))
    return diff / 2


def stationary_exact(P):
    """The unique pi with pi P = pi and sum pi = 1, exact (Theorem 0),
    for the walk behind the transition matrix P; see `_stationary_law`.
    """
    q, nums = _stationary_law(P.structure, P.weights)
    return DistributionOnChambers(
        P.chamber_keys, [Fraction(a, q) for a in nums], "stationary-exact")


def _stationary_law(st, w):
    """(q, nums): pi over the chambers of `st`, a support structure, in
    their order, is nums / q, in integers.

    pi is the law of the right product x1 x2 ... of draws from w at the
    first time its support reaches X_w, the join of the supports of the
    weighted elements, applied to any chamber.  A draw supported below
    the current product a is absorbed (ax = a); otherwise it is drawn
    with probability w_x / (1 - lambda_f), f = supp a.  Since
    lambda_{X_w} = 1, that is the residue pass of
    `algebra.residue_idempotent` for X = X_w: the mass of each element
    comes from the elements below it in one pass over the flats in
    support order, summed per element instead of per reduced word, and
    the mass at each a with supp a = X_w lands on a c0 for a chamber c0.

    Every flat not above X_w must have lambda != 1: probability weights
    ensure it, and signed weights are refused without it.  Then the
    stationary vectors span c = |a C| dimensions for any a with
    supp a = X_w, and c != 1 is refused.  The result is certified by
    D nums = (D w) nums in kS, with nums as the element sum nums_c c:
    kC is a left ideal, so that is pi P = pi.
    """
    if w.total != 1:
        raise PreconditionError(f"weights sum to {w.total}, not 1")
    leq = st.leq
    supp = st.supp
    nodes = flat_nodes(st, w)
    top = st.bottom
    for x in w.support_ids():
        top = int(st.join[top, supp[x]])
    stuck = next((f for f in range(st.n_flats)
                  if nodes[f] == w.den and not leq[top, f]), None)
    if stuck is not None:
        raise PreconditionError(
            f"lambda is 1 at {st.labels[stuck]}, which is not above "
            f"{st.labels[top]}")
    sg = st.semigroup
    table = sg.tabulate()
    chambers = st.chambers
    c = len(set(table[st.members[top][0], chambers].tolist()))
    if c != 1:
        raise NonUniqueStationaryError(
            f"stationary space has dimension {c}")

    pos = {d: i for i, d in enumerate(chambers)}
    nums = [0] * len(chambers)
    # every weighted x has supp x <= X_w, so the mass stops at X_w
    q, e = residue_idempotent(st, w, top, nodes)
    for a, m in e.items():
        nums[pos[int(table[a, chambers[0]])]] += m

    held = [(d, a) for d, a in zip(chambers, nums) if a]
    want = [0] * sg.size
    for d, a in held:
        want[d] = w.den * a
    if sum(nums) != q or min(nums) < 0 \
            or sparse_product(weighted_rows(st, w), held, sg.size) != want:
        raise FalsificationError(
            "the absorbed right product is not a stationary law of the walk")
    return q, nums


def _sample_until_top(structure, w, seed, samples, guards, landing):
    """Draw from w until the joined support of the draws reaches the top
    flat, `samples` times over.

    Returns (stopping time T -> count, landing chamber -> count), where
    a sample lands on the product x1 .. xT of its draws; with `landing`
    false the landings are not computed and the second count is None.
    The samples run back to back through one loop over the blocks of
    `_draw_blocks`, whose draws are positions k into the weighted ids.
    The rise rows rise[f][k] = f v supp ids[k], one per flat f, turn a
    draw into one list index and one compare: the draw raises the
    support exactly when the flat changes.  A draw whose support lies
    below the running join is absorbed (xy = x when supp y <= supp x),
    so only the draws that raise the support are multiplied in, the
    accumulator a going to rows[a][k] = a ids[k]; rows holds one
    memoryview per element over one contiguous int32 copy of the table
    columns of the weighted ids, at most the size of the table.  A
    sample still short of the top after `sample_step_cap` draws raises
    StagnationError; a band whose bottom flat is its top has T = 0 for
    every sample and draws nothing.
    """
    if samples < 1:
        raise MalformedInputError(f"need at least one sample, got {samples}")
    sg = structure.semigroup
    bottom = structure.bottom
    top = structure.top
    ids, draws = _draw_blocks(w, seed)   # checks the weights, drawing nothing
    if bottom == top:
        return {0: samples}, {sg.identity: samples} if landing else None
    # one int object per flat, shared by every row: past 256 flats a
    # plain tolist() would hold a fresh int in every cell
    flats = np.array(range(structure.n_flats), dtype=object)
    supps = np.asarray(structure.supp)[ids]
    rise = [flats[r[supps]].tolist() for r in structure.join]
    if landing:
        columns = np.ascontiguousarray(sg.tabulate(guards)[:, ids])
        rows = [memoryview(r) for r in columns]
    cap = guards.sample_step_cap
    times = {}
    landed = {} if landing else None
    left = samples
    acc = sg.identity
    flat = bottom
    row = rise[bottom]
    t = 0
    while left:
        for k in next(draws):
            t += 1
            up = row[k]
            if up != flat:
                if landing:
                    acc = rows[acc][k]
                flat = up
                row = rise[up]
                if up == top:
                    if t > cap:
                        break
                    times[t] = times.get(t, 0) + 1
                    if landing:
                        landed[acc] = landed.get(acc, 0) + 1
                    left -= 1
                    if not left:
                        break
                    acc = sg.identity
                    flat = bottom
                    row = rise[bottom]
                    t = 0
        if t > cap:
            raise StagnationError(
                f"support never reached the top flat within {cap} draws; "
                "the weights likely cannot reach a chamber")
    return dict(sorted(times.items())), landed


def sample_stationary(structure, w, seed, samples, guards=DEFAULT_GUARDS):
    """Empirical pi via Theorem-0 right-accumulation.

    Each sample draws from w until the accumulated product x1 x2 ...
    carries top support, then records the chamber it landed on and the
    stopping time T.  Returns (distribution, stopping time counts).
    """
    times, landed = _sample_until_top(structure, w, seed, samples, guards,
                                      landing=True)
    chambers = structure.chambers
    probs = [landed.get(c, 0) / samples for c in chambers]
    keys = structure.semigroup.keys
    dist = DistributionOnChambers([keys[c] for c in chambers], probs,
                                  "stationary-sampled")
    return dist, times


def sample_stopping_times(structure, w, seed, samples,
                          guards=DEFAULT_GUARDS):
    """Stopping-time counts only; no landing product is computed."""
    return _sample_until_top(structure, w, seed, samples, guards,
                             landing=False)[0]


# --------------------------------------------------------- convergence


def generated_ids(sg, ids):
    """Closure of `ids` (plus the identity) under the product: the
    products x1 .. xk of ids, grown one right factor at a time from the
    product rows of the newest ones."""
    ids = sorted(set(ids))
    seen = {sg.identity, *ids}
    frontier = ids
    while frontier:
        frontier = set(sg.rows(frontier)[:, ids].ravel().tolist()) - seen
        seen |= frontier
        frontier = sorted(frontier)
    return sorted(seen)


def support_generates(structure, w):
    return len(generated_ids(structure.semigroup, w.support_ids())) \
        == structure.semigroup.size


# false-alarm rate of a sampled CDF checked against its exact values,
# for any seed
DKW_ALPHA = 1e-9


def dkw_epsilon(samples):
    """The Dvoretzky-Kiefer-Wolfowitz-Massart band: the empirical CDF of
    `samples` independent draws lies within eps of the exact CDF at
    every point at once, except with probability at most DKW_ALPHA."""
    return math.sqrt(math.log(2 / DKW_ALPHA) / (2 * samples))


@dataclass
class ConvergenceRow:
    m: int
    exact_tv: Fraction
    coatom_bound: Fraction
    exact_tail: Fraction
    empirical_tail: float = None


@dataclass
class ConvergenceReport:
    start_key: str
    rows: list
    coatom_lambdas: list
    bound_holds: bool


def convergence_report(structure, w, c0, m_max, samples=0, seed=0,
                       guards=DEFAULT_GUARDS):
    """Exact TV distance vs the Theorem-0 coatom bound, per step.

    exactTV(m) = TV(row c0 of P^m, pi); bound(m) = sum over coatoms H
    of lambda_H^m; tail(m) = Pr{T > m} for the first time T that the
    joined support of the draws reaches the top flat, which is
    1 - sum over flats Y of mu(Y, top) lambda_Y^m by Moebius inversion
    of Pr{supp <= Y after m draws} = lambda_Y^m.  Row c0 of P^m is the
    chamber part of w^m c0 in kS, read off one Krylov sequence
    (D w)^m c0 over D^m, and pi is the certified law of
    `stationary_exact`; every value is an integer over a power of D
    until it is stored.  The claim checked, `bound_holds`, is the exact
    sandwich exactTV <= tail <= bound for every m.  When `samples` > 0
    the empirical tail of the stopping time joins the table; it is
    reported, not asserted.
    """
    if not w.is_probability:
        raise PreconditionError("convergence analysis needs a probability")
    if m_max < 0:
        raise MalformedInputError(f"negative step bound {m_max}")
    chambers = structure.chambers
    if c0 not in chambers:
        raise MalformedInputError("start must be a chamber")
    q, pi_num = _stationary_law(structure, w)
    den = w.den
    nodes = flat_nodes(structure, w)
    coatoms = [nodes[h] for h in structure.coatoms()]
    mobius = [(structure.moebius(y, structure.top), n)
              for y, n in enumerate(nodes)]

    times = (sample_stopping_times(structure, w, seed, samples, guards)
             if samples else None)

    # row c0 of P^m is the chamber part of vs[m] over den^m, pi is
    # pi_num / q, and the tail and the bound are integers over den^m
    vs = krylov_sequence(weighted_rows(structure, w), c0,
                         structure.semigroup.size, m_max)
    rows = []
    ok = True
    for m, v in enumerate(vs):
        dm = den ** m
        gap = sum(abs(v[c] * q - dm * b) for c, b in zip(chambers, pi_num))
        tail = dm - sum(mu * n ** m for mu, n in mobius)
        bound = sum(n ** m for n in coatoms)
        emp = None
        if times is not None:
            emp = sum(c for t, c in times.items() if t > m) / samples
        ok = ok and gap <= 2 * q * tail and tail <= bound
        rows.append(ConvergenceRow(m, Fraction(gap, 2 * dm * q),
                                   Fraction(bound, dm), Fraction(tail, dm),
                                   emp))
    return ConvergenceReport(structure.semigroup.keys[c0], rows,
                             [Fraction(n, den) for n in coatoms], ok)
