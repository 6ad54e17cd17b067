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
paths draw from the seeded standard generator and give, draw for draw,
the samples of a loop that calls rng.random() once per draw.
`_drawer` keeps the 53-bit integer behind each random(), built from
`getrandbits` words, and turns it into a position k into the weighted
ids by integer thresholds that put it where a sorted search of the
float running sums would.  A table of 2^16 buckets, indexed by the top
16 bits of the integer, places every draw at once but those in the
few buckets that a threshold splits, which fall back to the sorted
search of the thresholds; numpy.random, whose generator would give
the same words, stays unloaded.  The walk steps along the table row of
ids[k].  The draw-until-top samples run back to back through one
stream, and `_until_top` replays it a round at a time in lanes: lane c
starts a sample at draw c B, and every lane steps its flat through a
join table in one lock-step numpy loop, starting over at the bottom
each time it reaches the top.  Lane 0 starts where a sample truly
starts, and two neighbouring lanes that start a sample at the same
draw agree from there on, so the true sample ends are read off each
lane up to where it meets the next; a pair that does not meet within
its overlap ends the round, and the next round starts after the last
true end.  Each sample then lands on the product of its draws, taken
in lock step over the samples of a round, since a draw below the
support of the product so far is absorbed.  A round that would hold
too few lanes to pay for the lock-step loop, as when T runs long, is
walked a draw at a time instead.  Empirical values are
floats, checked against exact values within the DKW band of
`dkw_epsilon`, whose false-alarm rate does not depend on the seed.
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


# most draws taken from the generator with one getrandbits call
DRAW_CHUNK = 1 << 14
# a draw's 53-bit integer N lies in bucket N >> BUCKET_SHIFT of 2^16
BUCKET_SHIFT = 37


def _threshold(c, acc):
    """The least N < 2^53 with (N 2^-53) acc > c, or 2^53 if none: the
    product rounds monotonically in N, so bisection finds it."""
    lo, hi = 0, 1 << 53
    while lo < hi:
        mid = (lo + hi) >> 1
        if mid * 2.0 ** -53 * acc > c:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _placer(thresholds, dtype):
    """place(x, out): write into `out`, of `dtype`, the position of the
    draw made from each 64-bit word of x, a C-contiguous "<u8" array:
    the number of `thresholds` (ascending, uint64) <= N, where
    N = (a >> 5) 2^26 + (b >> 6) for the low 32-bit half a of the word
    and its high half b.

    The 2^16 buckets j of N, N >> BUCKET_SHIFT = j, index a table of
    the count of thresholds in bucket j or below, one np.repeat over the
    buckets of the thresholds.  A bucket that no threshold splits, one
    with no threshold inside it past its lower edge, gives every N in it
    that count.  The bucket of N is a >> 16, the second of the four
    little-endian 16-bit halves of the word, read as a strided view with
    no arithmetic.  Only a draw in a split bucket, at most one per
    threshold, builds N and takes the sorted search.
    """
    edge = np.uint64(BUCKET_SHIFT)
    table = np.repeat(np.arange(len(thresholds) + 1, dtype=dtype),
                      np.diff((thresholds >> edge).astype(np.intp),
                              prepend=0, append=1 << 16))
    split = np.zeros(1 << 16, dtype=bool)
    inside = thresholds & np.uint64((1 << BUCKET_SHIFT) - 1) != 0
    split[(thresholds[inside] >> edge).astype(np.intp)] = True

    def place(x, out):
        bucket = x.view("<u2")[1::4]       # a >> 16 = N >> BUCKET_SHIFT
        np.take(table, bucket, out=out, mode="clip")
        fix = np.flatnonzero(split.take(bucket, mode="clip"))
        if len(fix):
            y = x[fix]
            big = y & 0xFFFFFFE0     # (a >> 5) << 5
            big <<= 21
            big |= y >> 38           # b >> 6
            out[fix] = np.searchsorted(thresholds, big, side="right")

    return place


def _drawer(w, seed):
    """(ids, draw): the weighted element ids w.support_ids(), and
    draw(n), the next n draws from w by inverse CDF as an array of
    positions into ids, of the narrowest unsigned dtype.

    Draw k is ids[bisect_left(cum, u_k * acc)], with cum the float
    running sums of w, acc their total and u_k the k-th rng.random() of
    random.Random(seed).  Each draw takes 64 bits from getrandbits,
    whose integer holds the 32-bit Mersenne Twister outputs in order
    from its low end, and keeps the integer of random(),
    N = (a >> 5) 2^26 + (b >> 6) from two consecutive words a, b, so
    that u = N 2^-53.  The position is the number of c with
    cum[c] < u acc, which is the number of thresholds t_c <= N, t_c the
    least N with (N 2^-53) acc > cum[c] in the same float arithmetic
    (`_threshold`); acc itself is never passed, since u < 1.  `_placer`
    counts them from a table of 2^16 buckets of N, read off the top 16
    bits of a, and only the draws that fall in a bucket split by a
    threshold, about |ids| in 2^16, take a sorted search of the
    thresholds; the positions are those of the float search, with no
    float pass.  The table is built here, once per call, in about 40
    us.  The words stay those of getrandbits: numpy.random's MT19937
    would give the same stream, but loading numpy.random was measured
    to raise the peak memory of a converge benchmark run from 45.6 to
    48.8 MiB, so the package never imports it.  Each float running sum
    is within about |ids| 2^-53 of its exact value, relative to acc,
    which bounds how far the law of a draw is off w.
    The weights are checked at the call, and nothing is drawn before
    draw is called.
    """
    ids = w.support_ids()
    if any(w[i] < 0 for i in ids):
        raise PreconditionError("cannot sample from negative weights")
    cum = []
    acc = 0.0
    for i in ids:
        acc += float(w[i])
        cum.append(acc)
    dtype = np.min_scalar_type(max(len(ids) - 1, 0))
    place = _placer(np.array([_threshold(c, acc) for c in cum[:-1]],
                             dtype=np.uint64), dtype)
    rng = random.Random(seed)

    def draw(n):
        out = np.empty(n, dtype)
        for i in range(0, n, DRAW_CHUNK):
            m = min(DRAW_CHUNK, n - i)
            place(np.frombuffer(rng.getrandbits(64 * m).to_bytes(8 * m,
                                                                  "little"),
                                dtype="<u8"), out[i:i + m])
        return out

    return ids, draw


def simulate(structure, w, c0, steps, seed):
    """Seeded left-multiplication walk from chamber c0.

    A draw at position k of the weighted ids moves the chamber along
    the product row of ids[k], read as a memoryview."""
    if c0 not in structure.chambers:
        raise MalformedInputError(f"start {c0} is not a chamber")
    if steps < 0:
        raise MalformedInputError(f"negative step count {steps}")
    ids, draw = _drawer(w, seed)
    left = list(map(memoryview, structure.semigroup.rows(ids)))
    out = []
    cur = c0
    while len(out) < steps:
        for k in draw(min(ROUND_DRAWS, steps - len(out))).tolist():
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


# most draws taken from the stream per round of the lane replay
ROUND_DRAWS = 1 << 18
# the stride of the replay lanes, which is also their overlap, in mean
# stopping times
LANE_MEANS = 16
# a round that holds fewer lanes than this is walked a draw at a time:
# every lane makes two lock-step numpy steps for each draw it adds, and
# near 128 lanes a draw costs the same either way, 75-100 ns with its
# drawing (mean T of 15 to 1500 draws, 2-core VM)
WALK_LANES = 128


def _lane_ends(pos, step, stop, span):
    """(ends, known, mean): the last draws of the samples that run back
    to back from the start of the positions `pos`, ascending, all of
    them before the position `known`, and the mean stopping time over
    every lane, an estimate to size the next round by.

    A state is a flat premultiplied by |ids|, and a draw at position k
    moves state s to step[s + k]; `stop`, the top, is also the start
    state, since its step row is the bottom's.  Lane c replays the
    draws from c span on for 2 span draws, starting a sample there; a
    lock-step numpy loop runs every lane, and a lane ends a sample
    wherever it stops.  Lane 0 starts where a sample truly starts.
    Once lanes c and c + 1 start a sample at the same position, they
    read the same draws in the same way from there on, so the true
    ends are lane 0's before its first common start with lane 1, then
    lane 1's before its first common start with lane 2, and so on.
    The first lane that shares no start with the next within their
    overlap of span draws cuts the replay at its own last draw.
    """
    lanes = len(pos) // span - 1     # at least one
    last = (lanes - 1) * span + 1
    state = np.full(lanes, stop, dtype=np.intp)
    ended = np.empty((2 * span, lanes), dtype=bool)
    for r in range(2 * span):
        state = step[state + pos[r:r + last:span]]
        ended[r] = state == stop
    # row j: lane c starts a sample at offset span + j of its own, and
    # lane c + 1 at offset j, which it does at j = 0
    common = ended[span - 1:, :-1].copy()
    common[1:] &= ended[:span, 1:]
    first = common.argmax(0)
    joined = common[first, np.arange(lanes - 1)]
    cut = lanes - 1 if joined.all() else int(joined.argmin())
    # draw c span + j is lane c's j-th, or lane c - 1's (span + j)-th
    # while the two have not met, j < first[c - 1]
    mine = ended[:span, :cut + 1].copy()
    np.copyto(mine[:, 1:], ended[span:, :cut],
              where=np.arange(span)[:, None] < first[:cut])
    ends = np.concatenate((np.flatnonzero(mine.T), (cut + 1) * span
                           + np.flatnonzero(ended[span:, cut])))
    return ends, (cut + 2) * span, ended.size / max(1, np.count_nonzero(ended))


def _landings(pos, ends, times, columns, one):
    """The product x_s .. x_e of the draws of each sample, which ends
    at e after T draws, longest T first; the product a x of a draw at
    position k is columns[a, k].

    The samples run in lock step, longest first, one draw at a time,
    and each leaves the loop after its own T draws.
    """
    order = np.argsort(times)[::-1]
    at = (ends - times + 1)[order]
    acc = np.full(len(at), one, dtype=np.intp)
    alive = len(times) - np.cumsum(np.bincount(times))
    for m in alive[:-1].tolist():
        acc[:m] = columns[acc[:m], pos.take(at[:m])]
        at[:m] += 1
    return acc


def _walk(pos, step, start, stop, rows, one, wanted):
    """(ends, landings): the last draws of the first `wanted` samples
    that run back to back from the start of the positions `pos`, or of
    as many as end in them, and the product of the draws of each, the
    draw-at-a-time loop that the lanes replay.

    A state is a flat premultiplied by |ids|, as in `_lane_ends`, with
    `start` the bottom.  Only a draw that raises the flat is multiplied
    in, since a draw below the running join is absorbed; the product
    a x of a draw at position k is rows[a][k], and with `rows` None no
    product is taken.
    """
    ends = []
    landings = []
    state, acc = start, one
    for i, k in enumerate(pos.tolist()):
        up = step[state + k]
        if up == state:
            continue
        if rows is not None:
            acc = rows[acc][k]
        if up != stop:
            state = up
            continue
        ends.append(i)
        landings.append(acc)
        if len(ends) == wanted:
            break
        state, acc = start, one
    return ends, landings


def _until_top(structure, ids, draw, samples, guards, landing):
    """Draw until the joined support of the draws reaches the top flat,
    `samples` times over, reading positions into `ids` from the stream
    draw(n).

    Returns (stopping time T -> count, landing chamber -> count), where
    a sample lands on the product x1 .. xT of its draws; with `landing`
    false the landings are not computed and the second count is None.
    The samples run back to back through the stream, a round at a
    time: the draws kept from the round before and at most ROUND_DRAWS
    new ones, more only while one sample outruns them.  A round is
    replayed in lanes (`_lane_ends`) whose stride and overlap are
    LANE_MEANS times the mean T over the round before, or the draws
    known to end no sample if that is more, and the landings follow
    from the start and T of each sample (`_landings`): a draw whose
    support lies below the running join is absorbed (xy = x when
    supp y <= supp x), so every draw may be multiplied in.  A round
    that would hold fewer than WALK_LANES lanes, which happens once the
    mean T nears ROUND_DRAWS / (LANE_MEANS WALK_LANES), is walked a
    draw at a time instead (`_walk`).  A round folds its samples into
    the counts at once and keeps the draws past its last end for the
    next.  A sample still short of the top after `sample_step_cap`
    draws raises StagnationError, and so does a weighting whose
    supports join below the top, without drawing; a band whose bottom
    flat is its top has T = 0 for every sample and draws nothing.
    """
    sg = structure.semigroup
    bottom = structure.bottom
    top = structure.top
    if bottom == top:
        return {0: samples}, {sg.identity: samples} if landing else None
    supps = np.asarray(structure.supp)[ids]
    reach = bottom
    for f in set(supps.tolist()):
        reach = int(structure.join[reach, f])
    if reach != top:
        raise StagnationError(
            f"the weighted supports join to {structure.labels[reach]}, "
            "below the top flat; the weights cannot reach a chamber")
    size = len(ids)
    again = structure.join.copy()
    again[top] = again[bottom]
    step = (again[:, supps] * size).astype(np.intp).ravel()
    steps = step.tolist()
    start, stop = bottom * size, top * size
    rows = None
    if landing:
        columns = np.ascontiguousarray(sg.tabulate(guards)[:, ids])
        rows = list(map(memoryview, columns))
    landed = np.zeros(sg.size, dtype=np.int64) if landing else None
    cap = guards.sample_step_cap
    times = {}
    left = samples
    mean = 1.0               # until the first round has measured it
    held = np.empty(0, dtype=np.uint8)   # the draws past the last end
    known = 0                # how many of them end no sample
    while left:
        span = max(int(LANE_MEANS * mean) + 1, known)
        # the draws of the samples left and four deviations more, taking
        # the deviation of T to be its mean
        want = int(mean * (left + 4 * math.sqrt(left))) + 2 * span
        pos = np.concatenate((held, draw(
            max(min(ROUND_DRAWS, want - len(held)), known + 2))))
        if len(pos) // span - 1 < WALK_LANES:
            ends, lands = _walk(pos, steps, start, stop, rows, sg.identity,
                                left)
            ends = np.array(ends, dtype=np.intp)
            known = len(pos)
            mean = known / max(1, len(ends))
        else:
            ends, known, mean = _lane_ends(pos, step, stop, span)
            ends = ends[:left]
            lands = None
        start_at = 0
        if len(ends):
            t = np.diff(ends, prepend=-1)
            if t.max() > cap:
                raise _stagnation(cap)
            counts = np.bincount(t)
            for k in np.flatnonzero(counts).tolist():
                times[k] = times.get(k, 0) + int(counts[k])
            if landing:
                if lands is None:
                    lands = _landings(pos, ends, t, columns, sg.identity)
                landed += np.bincount(lands, minlength=sg.size)
            start_at = int(ends[-1]) + 1
            left -= len(ends)
        known -= start_at
        if left and known >= cap:
            raise _stagnation(cap)
        held = pos[start_at:].copy()   # and let the round go
    if landing:
        landed = {c: n for c, n in enumerate(landed.tolist()) if n}
    return dict(sorted(times.items())), landed


def _stagnation(cap):
    return StagnationError(
        f"support never reached the top flat within {cap} draws, "
        "the sample_step_cap")


def _sample_until_top(structure, w, seed, samples, guards, landing):
    """Draw from w with random.Random(seed) until the joined support
    of the draws reaches the top flat, `samples` times over, by the
    lane replay of `_until_top` on the stream of `_drawer`.

    Lanes started a stride apart replay the one stream in lock step.
    Two lanes that start a sample at the same draw agree from there on,
    so the true sample ends are read off each lane up to its first
    common start with the next, and each sample gets the draws a
    draw-at-a-time loop would give it; a round of too few lanes is
    that loop (`_walk`).
    """
    if samples < 1:
        raise MalformedInputError(f"need at least one sample, got {samples}")
    ids, draw = _drawer(w, seed)   # checks the weights, drawing nothing
    return _until_top(structure, ids, draw, samples, guards, landing)


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
