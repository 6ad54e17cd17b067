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
coatom bound) return Fractions; the products by w behind them run in
the semigroup algebra kS, on the integer D w of `spectral.weighted_rows`
through `spectral.sparse_product`, with rationals scaled once by
`spectral.scaled`.  Empirical paths replay the seeded standard
generator in blocks: `_draw_blocks` rebuilds its `random()` stream,
double for double, from `getrandbits` words and draws a whole block of
elements with one sorted search, so every sampled artifact is the one
a draw-at-a-time loop would give.  They report floats.
"""

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
from .spectral import (flat_eigenvalues, krylov_sequence, scaled,
                       sparse_product, weighted_rows)


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
    """Element ids drawn from w by inverse CDF, as an endless stream of
    int64 arrays of DRAW_BLOCK draws each.

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
    ids = np.array(ids, dtype=np.int64)
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
            yield ids[np.searchsorted(cum, u * acc, side="left")]

    return blocks()


def simulate(structure, w, c0, steps, seed):
    """Seeded left-multiplication walk from chamber c0."""
    sg = structure.semigroup
    if c0 not in structure.chambers:
        raise MalformedInputError(f"start {c0} is not a chamber")
    if steps < 0:
        raise MalformedInputError(f"negative step count {steps}")
    draws = _draw_blocks(w, seed)
    prod = sg.product
    out = []
    cur = c0
    while len(out) < steps:
        for x in next(draws)[:steps - len(out)].tolist():
            cur = prod(x, cur)
            out.append((x, cur))
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
    return DistributionOnChambers(
        P.chamber_keys, _stationary_law(P.structure, P.weights),
        "stationary-exact")


def _stationary_law(st, w):
    """pi over the chambers of `st`, a support structure, in their order.

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
    D pi = (D w) pi in kS, with pi as the element sum pi_c c: kC is a
    left ideal, so that is pi P = pi.
    """
    if w.total != 1:
        raise PreconditionError(f"weights sum to {w.total}, not 1")
    leq = st.leq
    supp = st.supp
    lam = flat_eigenvalues(st, w)
    top = st.bottom
    for x in w.support_ids():
        top = int(st.join[top, supp[x]])
    stuck = next((f for f in range(st.n_flats)
                  if lam[f] == 1 and not leq[top, f]), None)
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
    pi = [Fraction(0)] * len(chambers)
    # every weighted x has supp x <= X_w, so the mass stops at X_w
    for a, m in residue_idempotent(st, w, top, lam).items():
        pi[pos[int(table[a, chambers[0]])]] += m

    den, rows, _ = weighted_rows(st, w)
    q, (nums,) = scaled([pi])
    held = [(d, a) for d, a in zip(chambers, nums) if a]
    want = [0] * sg.size
    for d, a in held:
        want[d] = den * a
    if sum(nums) != q or min(nums) < 0 \
            or sparse_product(rows, held, sg.size) != want:
        raise FalsificationError(
            "the absorbed right product is not a stationary law of the walk")
    return pi


def _sample_until_top(structure, w, seed, samples, guards):
    """Draw from w until the joined support of the draws reaches the top
    flat, `samples` times over.

    Returns (stopping time T -> count, landing chamber -> count), where
    a sample lands on the product x1 .. xT of its draws.  A draw whose
    support lies below the running join is absorbed (xy = x when
    supp y <= supp x), so only the draws that raise the support are
    multiplied in.  The samples run back to back through one loop over
    the blocks of `_draw_blocks`, with the supports of a block looked up
    at once and the join row of the current flat kept at hand.  A
    sample still short of the top after `sample_step_cap` draws raises
    StagnationError; a band whose bottom flat is its top has T = 0 for
    every sample and draws nothing.
    """
    if samples < 1:
        raise MalformedInputError(f"need at least one sample, got {samples}")
    sg = structure.semigroup
    cells = memoryview(sg.tabulate(guards))
    supp = np.array(structure.supp, dtype=np.int64)
    join = structure.join.tolist()
    bottom = structure.bottom
    top = structure.top
    draws = _draw_blocks(w, seed)      # checks the weights, drawing nothing
    if bottom == top:
        return {0: samples}, {sg.identity: samples}
    cap = guards.sample_step_cap
    times = {}
    landed = {}
    left = samples
    acc = sg.identity
    flat = bottom
    row = join[bottom]
    t = 0
    while left:
        block = next(draws)
        for x, s in zip(block.tolist(), supp[block].tolist()):
            t += 1
            up = row[s]
            if up != flat:
                acc = cells[acc, x]
                flat = up
                row = join[up]
                if up == top:
                    if t > cap:
                        break
                    times[t] = times.get(t, 0) + 1
                    landed[acc] = landed.get(acc, 0) + 1
                    left -= 1
                    if not left:
                        break
                    acc = sg.identity
                    flat = bottom
                    row = join[bottom]
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
    times, landed = _sample_until_top(structure, w, seed, samples, guards)
    chambers = structure.chambers
    probs = [landed.get(c, 0) / samples for c in chambers]
    keys = structure.semigroup.keys
    dist = DistributionOnChambers([keys[c] for c in chambers], probs,
                                  "stationary-sampled")
    return dist, times


def sample_stopping_times(structure, w, seed, samples,
                          guards=DEFAULT_GUARDS):
    """Stopping-time counts only."""
    return _sample_until_top(structure, w, seed, samples, guards)[0]


# --------------------------------------------------------- convergence


def generated_ids(sg, ids):
    """Closure of `ids` (plus the identity) under the product."""
    seen = {sg.identity}
    frontier = sorted(set(ids))
    seen.update(frontier)
    prod = sg.product
    while frontier:
        nxt = []
        for a in list(seen):
            for b in frontier:
                for c in (prod(a, b), prod(b, a)):
                    if c not in seen:
                        seen.add(c)
                        nxt.append(c)
        frontier = nxt
    return sorted(seen)


def support_generates(structure, w):
    return len(generated_ids(structure.semigroup, w.support_ids())) \
        == structure.semigroup.size


@dataclass
class ConvergenceRow:
    m: int
    exact_tv: Fraction
    coatom_bound: Fraction
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
    of lambda_H^m.  Row c0 of P^m is the chamber part of w^m c0 in kS,
    read off one Krylov sequence (D w)^m c0 over D^m, and pi is the
    certified law of `stationary_exact`.  When `samples` > 0 the
    empirical tail Pr{T > m} of the stopping time joins the table.  The
    claim checked is exactTV <= bound for every m; the empirical tail
    sits between the two only up to Monte Carlo noise, so it is
    reported, not asserted.
    """
    if not w.is_probability:
        raise PreconditionError("convergence analysis needs a probability")
    if m_max < 0:
        raise MalformedInputError(f"negative step bound {m_max}")
    chambers = structure.chambers
    if c0 not in chambers:
        raise MalformedInputError("start must be a chamber")
    pi = _stationary_law(structure, w)
    lam = flat_eigenvalues(structure, w)
    lams = [lam[h] for h in structure.coatoms()]
    # the bound at m is sum(lam_num^m) / lam_den^m
    lam_den, (lam_num,) = scaled([lams])

    times = (sample_stopping_times(structure, w, seed, samples, guards)
             if samples else None)

    # row c0 of P^m is the chamber part of vs[m] over den^m; pi is
    # pi_num / q
    den, walk, _ = weighted_rows(structure, w)
    vs = krylov_sequence(walk, c0, structure.semigroup.size, m_max)
    q, (pi_num,) = scaled([pi])
    rows = []
    ok = True
    for m, v in enumerate(vs):
        dm = den ** m
        tv = Fraction(sum(abs(v[c] * q - dm * b)
                          for c, b in zip(chambers, pi_num)), 2 * dm * q)
        bound = Fraction(sum(a ** m for a in lam_num), lam_den ** m)
        emp = None
        if times is not None:
            emp = sum(c for t, c in times.items() if t > m) / samples
        if tv > bound:
            ok = False
        rows.append(ConvergenceRow(m, tv, bound, emp))
    return ConvergenceReport(structure.semigroup.keys[c0], rows, lams, ok)
