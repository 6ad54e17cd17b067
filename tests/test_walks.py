"""Simulation, stationary distributions, and convergence control."""

import itertools
import math
import os
import random
import subprocess
import sys
import tracemalloc
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from bandwalk import constructions, core, matroid, selftest, spectral, walks
from bandwalk.errors import (FalsificationError, MalformedInputError,
                             NonUniqueStationaryError, PreconditionError,
                             StagnationError)
from bandwalk.guards import DEFAULT_GUARDS
from test_linalg import stationary_kernel
from test_spectral import _small_bands, remove_holding_probability


F = Fraction


def _f3():
    sg = constructions.free_lrb(3)
    return sg, core.derive_support(sg)


def test_simulation_is_seed_deterministic_and_stays_in_chambers():
    sg, st = _f3()
    w = spectral.uniform_on_generators(sg)
    t1 = walks.simulate(st, w, st.chambers[0], 50, seed=11)
    t2 = walks.simulate(st, w, st.chambers[0], 50, seed=11)
    t3 = walks.simulate(st, w, st.chambers[0], 50, seed=12)
    assert t1.steps == t2.steps
    assert t1.steps != t3.steps
    assert len(t1.steps) == 50
    chambers = set(st.chambers)
    for x, c in t1.steps:
        assert c in chambers
        assert x in w.coeffs
    assert t1.final == t1.steps[-1][1]


def test_simulate_rejects_a_non_chamber_start():
    sg, st = _f3()
    w = spectral.uniform_on_generators(sg)
    with pytest.raises(MalformedInputError):
        walks.simulate(st, w, sg.identity, 5, seed=0)


def test_total_variation_basics():
    p = [F(1, 2), F(1, 2), F(0)]
    q = [F(1, 3)] * 3
    assert walks.total_variation(p, p) == 0
    assert walks.total_variation(p, q) == walks.total_variation(q, p)
    assert walks.total_variation(p, q) == F(1, 3)
    with pytest.raises(MalformedInputError):
        walks.total_variation(p, [F(1)])


def test_uniform_walk_has_uniform_stationary_distribution():
    sg, st = _f3()
    P = spectral.transition_matrix(st, spectral.uniform_on_generators(sg))
    pi = walks.stationary_exact(P)
    assert pi.probs == [F(1, 6)] * 6


def test_exact_power_distribution_converges_monotonically():
    sg, st = _f3()
    w = spectral.uniform_on_generators(sg)
    rep = walks.convergence_report(st, w, st.chambers[0], 7)
    tvs = [rep.rows[m].exact_tv for m in range(8)]
    assert tvs == sorted(tvs, reverse=True)


def test_convergence_tv_matches_fraction_matrix_powers():
    sg, st = _f3()
    w = spectral.seeded_generator_weights(sg, 9)
    P = spectral.transition_matrix(st, w)
    rows = P.rows
    pi = walks.stationary_exact(P)
    for start, c0 in enumerate(st.chambers):
        rep = walks.convergence_report(st, w, c0, 5)
        assert rep.start_key == sg.keys[c0]
        row = [F(0)] * P.size
        row[start] = F(1)
        for m in range(6):
            assert rep.rows[m].exact_tv == walks.total_variation(row,
                                                                 pi.probs)
            row = [sum(row[i] * rows[i][j] for i in range(P.size))
                   for j in range(P.size)]


def fraction_matrix(st, w):
    """P(c, d) = sum of w_x over x with xc = d, one Fraction at a time."""
    table = st.semigroup.tabulate().tolist()
    pos = {c: i for i, c in enumerate(st.chambers)}
    rows = [[F(0)] * len(pos) for _ in pos]
    for i, c in enumerate(st.chambers):
        for x, v in w.items():
            rows[i][pos[table[x][c]]] += v
    return rows


def test_integer_cells_agree_with_the_rows_they_are_built_with():
    sg, st = _f3()
    w = spectral.seeded_generator_weights(sg, 9)
    P = spectral.transition_matrix(st, w)
    assert P.rows == fraction_matrix(st, w)
    assert all(a for row in P.cells for _, a in row)
    assert max(len(row) for row in P.cells) <= len(w.support_ids())
    pi = walks.stationary_exact(P).probs
    # deflating the holding probability alpha is the walk of the signed
    # weights (w - alpha 1) / (1 - alpha), and keeps the stationary law
    alpha = F(1, 3)
    coeffs = {x: v / (1 - alpha) for x, v in w.items()}
    coeffs[sg.identity] = coeffs.get(sg.identity, 0) - alpha / (1 - alpha)
    signed = spectral.WeightVector(sg, coeffs, require_probability=False)
    Q = spectral.transition_matrix(st, signed)
    assert Q.rows == remove_holding_probability(P.rows, alpha)
    assert Q.rows == fraction_matrix(st, signed)
    assert all(a for row in Q.cells for _, a in row)
    assert walks.stationary_exact(Q).probs == pi


def test_identity_weights_make_the_stationary_solve_fail():
    sg, st = _f3()
    w = spectral.WeightVector(sg, {sg.identity: F(1)})
    P = spectral.transition_matrix(st, w)
    with pytest.raises(NonUniqueStationaryError, match="dimension 6$"):
        walks.stationary_exact(P)


def test_a_walk_below_the_top_lands_where_its_first_draw_says():
    sg, st = _f3()
    w = spectral.WeightVector.from_keys(sg, {"1,2": F(1, 3), "2,1": F(2, 3)})
    P = spectral.transition_matrix(st, w)
    pi = walks.stationary_exact(P)
    assert dict(zip(pi.chamber_keys, pi.probs)) == {
        "1,2,3": F(1, 3), "1,3,2": 0, "2,1,3": F(2, 3), "2,3,1": 0,
        "3,1,2": 0, "3,2,1": 0}
    assert [pi.probs] == stationary_kernel(P)
    # weight on one letter leaves the order of the other two open
    w = spectral.WeightVector.from_keys(sg, {"1": F(1)})
    P = spectral.transition_matrix(st, w)
    with pytest.raises(NonUniqueStationaryError, match="dimension 2$"):
        walks.stationary_exact(P)


def test_signed_weights_with_lambda_one_below_the_join_are_refused():
    sg, st = _f3()
    a, b, c = sg.generators
    w = spectral.WeightVector(sg, {a: F(1), b: F(1), c: F(-1)},
                              require_probability=False)
    P = spectral.transition_matrix(st, w)
    with pytest.raises(PreconditionError, match="lambda is 1"):
        walks.stationary_exact(P)
    half = spectral.WeightVector(sg, {a: F(1, 2)}, require_probability=False)
    with pytest.raises(PreconditionError, match="not 1"):
        walks.stationary_exact(spectral.transition_matrix(st, half))


def test_moved_mass_fails_the_stationary_certificate(monkeypatch):
    # the absorbed right product lands its mass at X_w on the chambers;
    # moving part of it between two of them keeps pi a distribution
    # with positive entries, and only pi P = pi can tell
    sg, st = _f3()
    P = spectral.transition_matrix(st, spectral.seeded_generator_weights(sg,
                                                                         9))
    real = walks.residue_idempotent

    def moved(*args):
        den, e = real(*args)
        e = {x: 2 * c for x, c in e.items()}
        a, b = sorted(e)[:2]
        assert st.supp[a] == st.supp[b] == st.top
        e[a], e[b] = e[a] // 2, e[b] + e[a] // 2
        return 2 * den, e

    monkeypatch.setattr(walks, "residue_idempotent", moved)
    with pytest.raises(FalsificationError, match="not a stationary law"):
        walks.stationary_exact(P)
    with pytest.raises(FalsificationError, match="not a stationary law"):
        walks.convergence_report(st, P.weights, st.chambers[0], 3)


@hs.composite
def _walks(draw):
    """A corpus band with |S| <= 80 and positive rational weights on a
    random set of its elements, the identity drawn in half the time; the
    supports often join below the top."""
    sg, st = draw(hs.sampled_from(_small_bands()))
    ids = set(draw(hs.lists(hs.integers(0, sg.size - 1), min_size=1,
                            max_size=6)))
    if draw(hs.booleans()):
        ids.add(sg.identity)
    nums = draw(hs.lists(hs.integers(1, 40), min_size=len(ids),
                         max_size=len(ids)))
    total = sum(nums)
    return sg, st, spectral.WeightVector(
        sg, {i: F(a, total) for i, a in zip(sorted(ids), nums)})


@settings(max_examples=80, deadline=None)
@given(_walks())
def test_stationary_law_matches_the_kernel_oracle(walk):
    sg, st, w = walk
    P = spectral.transition_matrix(st, w)
    basis = stationary_kernel(P)
    if len(basis) == 1:
        assert walks.stationary_exact(P).probs == basis[0]
    else:
        with pytest.raises(NonUniqueStationaryError,
                           match=f"dimension {len(basis)}$"):
            walks.stationary_exact(P)


def test_support_generation_detection():
    sg, st = _f3()
    assert walks.support_generates(st, spectral.uniform_on_generators(sg))
    assert not walks.support_generates(
        st, spectral.uniform_on(sg, [sg.generators[0]]))


def test_sampled_stationary_agrees_with_exact():
    sg, st = _f3()
    w = spectral.seeded_generator_weights(sg, 9)
    P = spectral.transition_matrix(st, w)
    pi = walks.stationary_exact(P)
    dist, times = walks.sample_stationary(st, w, seed=21, samples=20000)
    assert dist.chamber_keys == pi.chamber_keys
    assert sum(times.values()) == 20000
    tv = walks.total_variation(dist.probs, pi.probs)
    assert float(tv) < 0.02


def test_sampling_rejects_negative_weights():
    sg, st = _f3()
    a, b, c = sg.generators
    w = spectral.WeightVector(sg, {a: F(1), b: F(1), c: F(-1)},
                              require_probability=False)
    with pytest.raises(PreconditionError):
        walks.simulate(st, w, st.chambers[0], 5, seed=0)
    # checked up front, not on the first draw
    with pytest.raises(PreconditionError):
        walks.simulate(st, w, st.chambers[0], 0, seed=0)
    with pytest.raises(PreconditionError):
        walks.sample_stationary(st, w, seed=0, samples=5)
    with pytest.raises(PreconditionError):
        walks.sample_stopping_times(st, w, seed=0, samples=5)


def test_sampling_stalls_out_when_weights_cannot_reach_a_chamber():
    sg, st = _f3()
    w = spectral.uniform_on(sg, [sg.generators[0]])
    tight = replace(DEFAULT_GUARDS, sample_step_cap=64)
    with pytest.raises(StagnationError):
        walks.sample_stationary(st, w, seed=1, samples=1, guards=tight)


def test_convergence_report_on_the_uniform_free_band():
    sg, st = _f3()
    w = spectral.uniform_on_generators(sg)
    rep = walks.convergence_report(st, w, st.chambers[0], 6)
    assert rep.bound_holds
    assert rep.coatom_lambdas == [F(2, 3)] * 3
    by_m = {r.m: r for r in rep.rows}
    # first steps of distance to uniform, worked out by hand
    assert by_m[0].exact_tv == F(5, 6)
    assert by_m[1].exact_tv == F(1, 2)
    assert by_m[2].exact_tv == F(1, 6)
    assert by_m[3].exact_tv == F(1, 18)
    for r in rep.rows:
        assert r.coatom_bound == 3 * F(2, 3) ** r.m
        # coupon collector: some letter is still missing after m draws
        assert r.exact_tail == 3 * F(2, 3) ** r.m - 3 * F(1, 3) ** r.m \
            + (r.m == 0)
        assert r.exact_tv <= r.exact_tail <= r.coatom_bound
        assert r.empirical_tail is None


@settings(max_examples=40, deadline=None)
@given(hs.data())
def test_exact_tail_counts_the_draw_sequences(data):
    # Pr{T > m}: the total weight of the m-draw sequences whose joined
    # support stays below the top flat
    sg, st = data.draw(hs.sampled_from(_small_bands()))
    ids = data.draw(hs.lists(hs.integers(0, sg.size - 1), min_size=1,
                             max_size=5, unique=True))
    ids += [g for g in sg.generators if g not in ids]
    nums = data.draw(hs.lists(hs.integers(1, 9), min_size=len(ids),
                              max_size=len(ids)))
    w = spectral.WeightVector(
        sg, {i: F(a, sum(nums)) for i, a in zip(ids, nums)})
    rep = walks.convergence_report(st, w, st.chambers[0], 3)
    assert rep.bound_holds
    below = {st.bottom: F(1)}
    for r in rep.rows:
        assert r.exact_tail == sum(p for f, p in below.items()
                                   if f != st.top)
        nxt = {}
        for f, p in below.items():
            for x, v in w.items():
                g = int(st.join[f, st.supp[x]])
                nxt[g] = nxt.get(g, 0) + p * v
        below = nxt


@pytest.mark.parametrize("seed", [4, 5])
def test_criterion_5_passes_at_seeds_that_failed_the_old_allowance(
        monkeypatch, seed):
    monkeypatch.setattr(selftest, "TAIL_SEED", seed)
    selftest.criterion_5()


def test_criterion_5_catches_shifted_stopping_times(monkeypatch):
    real = walks.sample_stopping_times

    def shifted(*args, **kw):
        return {t + 1: c for t, c in real(*args, **kw).items()}

    monkeypatch.setattr(walks, "sample_stopping_times", shifted)
    with pytest.raises(FalsificationError, match="from the exact tail"):
        selftest.criterion_5()


def test_convergence_report_with_sampling_fills_the_tail():
    sg, st = _f3()
    w = spectral.uniform_on_generators(sg)
    rep = walks.convergence_report(st, w, st.chambers[0], 5,
                                   samples=4000, seed=3)
    tails = [r.empirical_tail for r in rep.rows]
    assert all(t is not None for t in tails)
    assert all(0.0 <= t <= 1.0 for t in tails)
    assert tails == sorted(tails, reverse=True)
    assert tails[0] == 1.0


def test_stopping_time_sampler_matches_report_tail():
    sg, st = _f3()
    w = spectral.uniform_on_generators(sg)
    times = walks.sample_stopping_times(st, w, seed=3, samples=4000)
    rep = walks.convergence_report(st, w, st.chambers[0], 5,
                                   samples=4000, seed=3)
    total = sum(times.values())
    for r in rep.rows:
        tail = sum(c for t, c in times.items() if t > r.m) / total
        assert abs(tail - r.empirical_tail) < 1e-12


def test_generated_ids_closure():
    sg, st = _f3()
    got = walks.generated_ids(sg, sg.generators)
    assert got == list(range(sg.size))
    only_first = walks.generated_ids(sg, [sg.generators[0]])
    assert set(only_first) == {sg.identity, sg.generators[0]}


def _two_sided_closure(sg, ids):
    """The identity and ids, closed under products in either order, one
    product at a time."""
    table = sg.tabulate().tolist()
    seen = {sg.identity, *ids}
    while True:
        new = {table[a][b] for a in seen for b in seen} - seen
        if not new:
            return sorted(seen)
        seen |= new


_CLOSURE_BANDS = {"free": lambda: constructions.free_lrb(3),
                  "faces": lambda: constructions.ordered_partitions(3),
                  "flags": lambda: constructions.q_free_lrb(3, 2, True)}


@settings(max_examples=100, deadline=None)
@given(hs.sampled_from(sorted(_CLOSURE_BANDS)), hs.data())
def test_generated_ids_match_the_two_sided_closure(name, data):
    sg = _CLOSURE_BANDS[name]()
    sg.tabulate()
    ids = data.draw(hs.lists(hs.integers(0, sg.size - 1), max_size=4))
    assert walks.generated_ids(sg, ids) == _two_sided_closure(sg, ids)


# ---------------------------------------------------- the lane sampler


def _oracle_draw(w, rng):
    """One draw at a time: the sampler the block stream must replay."""
    ids = w.support_ids()
    cum = []
    acc = 0.0
    for i in ids:
        acc += float(w[i])
        cum.append(acc)

    def draw():
        return ids[bisect_left(cum, rng.random() * acc)]

    return draw


def _oracle_until_top(structure, w, seed, samples):
    sg = structure.semigroup
    table = sg.tabulate().tolist()
    draw = _oracle_draw(w, random.Random(seed))
    times = {}
    landed = {}
    for _ in range(samples):
        acc = sg.identity
        flat = structure.bottom
        t = 0
        while flat != structure.top:
            x = draw()
            t += 1
            up = structure.join[flat][structure.supp[x]]
            if up != flat:
                acc = table[acc][x]
                flat = up
        times[t] = times.get(t, 0) + 1
        landed[acc] = landed.get(acc, 0) + 1
    return dict(sorted(times.items())), landed


def _oracle_simulate(structure, w, c0, steps, seed):
    draw = _oracle_draw(w, random.Random(seed))
    table = structure.semigroup.tabulate().tolist()
    out = []
    cur = c0
    for _ in range(steps):
        x = draw()
        cur = table[x][cur]
        out.append((x, cur))
    return out


@contextmanager
def _block_size(n):
    """Rounds and draw chunks of n draws, and lanes that overlap by 1-2
    draws, so that neighbours rarely meet, replayed however few they
    are; for "walk", every round walked a draw at a time; the defaults
    for None."""
    saved = (walks.ROUND_DRAWS, walks.DRAW_CHUNK, walks.LANE_MEANS,
             walks.WALK_LANES)
    if n == "walk":
        walks.WALK_LANES = 1 << 62
    elif n:
        walks.ROUND_DRAWS = walks.DRAW_CHUNK = n
        walks.LANE_MEANS = 0.1
        walks.WALK_LANES = 1
    try:
        yield
    finally:
        (walks.ROUND_DRAWS, walks.DRAW_CHUNK, walks.LANE_MEANS,
         walks.WALK_LANES) = saved


@lru_cache(maxsize=None)
def _band(name):
    if name == "free_lrb(3)":
        sg = constructions.free_lrb(3)
    elif name == "ordered_partitions(3)":
        sg = constructions.ordered_partitions(3)
    else:
        sg = constructions.matroid_lrb(
            matroid.Matroid.from_graph(
                [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
            "ordered-bases")
    return core.derive_support(sg)


def _spread_weights(sg):
    """Unequal weights on every element, so the float CDF has rounding."""
    total = sg.size * (sg.size + 1) // 2
    return spectral.WeightVector(
        sg, {i: F(i + 1, total) for i in range(sg.size)})


def _heavy_weights(sg):
    """Nearly all weight on one generator: T runs to thousands of draws,
    far past a round of the small sizes."""
    a, b, c = sg.generators
    return spectral.WeightVector(sg, {a: F(998, 1000), b: F(1, 1000),
                                      c: F(1, 1000)})


@pytest.mark.parametrize("block", [None, 7])
@pytest.mark.parametrize("seed", [0, -3, 2 ** 40 + 7, 2 ** 64 + 13])
def test_draw_blocks_replay_the_standard_generator(seed, block):
    # pins the word order of getrandbits that the draws are built from,
    # across draw chunks and calls of every length
    sg, _ = _f3()
    w = _spread_weights(sg)
    draw = _oracle_draw(w, random.Random(seed))
    with _block_size(block):
        ids, stream = walks._drawer(w, seed)
        assert ids == w.support_ids()
        for n in (0, 1, 5, 7, 8, 30, 0, 3):
            got = stream(n)
            assert got.dtype == np.uint8 and len(got) == n
            assert [ids[k] for k in got.tolist()] == [draw() for _ in got]


@pytest.mark.parametrize("weights", [
    [F(1, 3)] * 3, [F(1, 10), F(2, 10), F(3, 10), F(4, 10)],
    [F(1, 7)] * 7, [F(1, 2 ** 60), F(1, 2) - F(1, 2 ** 60), F(1, 2)],
    [F(i + 1, 2080) for i in range(64)],
    [F(1, 300)] * 300])
def test_thresholds_place_every_boundary_as_the_float_search(weights):
    # the integer N of random() = N 2^-53 lands where bisect_left of
    # N 2^-53 acc lands in the float running sums, on both sides of
    # every threshold: the number of thresholds <= N
    cum = []
    acc = 0.0
    for v in weights:
        acc += float(v)
        cum.append(acc)
    thresholds = [walks._threshold(c, acc) for c in cum[:-1]]
    big = sorted({0, 2 ** 53 - 1} | {t + d for t in thresholds
                                      for d in (-1, 0, 1)
                                      if 0 <= t + d < 2 ** 53})
    got = np.searchsorted(np.array(thresholds, dtype=np.uint64),
                          np.array(big, dtype=np.uint64), side="right")
    assert got.tolist() == [sum(t <= n for t in thresholds) for n in big]
    assert got.tolist() == [bisect_left(cum, n * 2.0 ** -53 * acc)
                            for n in big]


def _words(big, seed):
    """The 64-bit words whose random() integer is each N of `big`: the
    low 32-bit half a carries N >> 26 above 5 dropped bits and the high
    half b carries the low 26 bits of N above 6, the dropped bits
    random."""
    rng = random.Random(seed)
    return np.array([((n >> 26) << 5 | rng.getrandbits(5))
                     | ((n & (1 << 26) - 1) << 6 | rng.getrandbits(6)) << 32
                     for n in big], dtype="<u8")


@pytest.mark.parametrize("weights", [
    [F(1)], [F(1, 3)] * 3, [F(1, 10), F(2, 10), F(3, 10), F(4, 10)],
    [F(1, 2 ** 60), F(1, 2) - F(1, 2 ** 60), F(1, 2)],
    # both thresholds in bucket 0
    [F(1, 2 ** 40), F(1, 2 ** 40), 1 - F(2, 2 ** 40)],
    [F(i + 1, 2080) for i in range(64)],
    [F(1, 300)] * 300])
def test_the_bucket_table_places_crafted_words_as_the_float_search(weights):
    # words fed straight to the placer: N on both sides of every
    # threshold and of the edges of the buckets that a threshold splits,
    # of their neighbours and of a spread of unsplit buckets
    cum = []
    acc = 0.0
    for v in weights:
        acc += float(v)
        cum.append(acc)
    thresholds = [walks._threshold(c, acc) for c in cum[:-1]]
    width = 1 << walks.BUCKET_SHIFT
    split = {t // width for t in thresholds if t % width}
    if len(weights) == 3 and weights[0] == F(1, 2 ** 40):
        assert split == {0} and len(thresholds) == 2
    buckets = split | {j + d for j in split for d in (-1, 1)} \
        | set(range(0, 1 << 16, 4099)) | {(1 << 16) - 1}
    big = sorted({n for n in {0, 2 ** 53 - 1}
                  | {t + d for t in thresholds for d in (-1, 0, 1)}
                  | {j * width + d for j in buckets for d in (-1, 0)}
                  if 0 <= n < 2 ** 53})
    want = [bisect_right(thresholds, n) for n in big]
    assert want == [bisect_left(cum, n * 2.0 ** -53 * acc) for n in big]
    dtype = np.min_scalar_type(len(weights) - 1)
    assert dtype == (np.uint16 if len(weights) > 256 else np.uint8)
    out = np.empty(len(big), dtype)
    walks._placer(np.array(thresholds, dtype=np.uint64), dtype)(
        _words(big, len(weights)), out)
    assert out.tolist() == want


@pytest.mark.parametrize("block", [None, 7])
@pytest.mark.parametrize("n, ids", [(3, 1), (5, 326)])
def test_draws_over_one_id_or_over_256_replay_the_standard_generator(
        n, ids, block):
    # one id has no threshold; the 326 elements of free_lrb(5) draw
    # uint16 positions, about one draw in 200 in a split bucket
    sg = constructions.free_lrb(n)
    w = (spectral.WeightVector(sg, {sg.generators[1]: F(1)}) if ids == 1
         else _spread_weights(sg))
    draw = _oracle_draw(w, random.Random(11))
    with _block_size(block):
        got_ids, stream = walks._drawer(w, 11)
        assert len(got_ids) == ids
        for size in (0, 1, 7, 5000, 3):
            got = stream(size)
            assert len(got) == size
            assert got.dtype == (np.uint16 if ids > 256 else np.uint8)
            assert [got_ids[k] for k in got.tolist()] \
                == [draw() for _ in got]


def _check_against_the_oracle(st, w, seed, samples, block):
    c0 = st.chambers[seed % len(st.chambers)]
    with _block_size(block):
        got = walks._sample_until_top(st, w, seed, samples, DEFAULT_GUARDS,
                                      landing=True)
        only_times = walks.sample_stopping_times(st, w, seed, samples)
        traj = walks.simulate(st, w, c0, samples, seed)
    times, landed = got
    want_times, want_landed = _oracle_until_top(st, w, seed, samples)
    assert times == want_times
    assert list(times) == list(want_times)
    assert landed == want_landed
    assert only_times == want_times
    assert list(only_times) == list(want_times)
    assert traj.steps == _oracle_simulate(st, w, c0, samples, seed)


@settings(max_examples=60, deadline=None)
@given(band=hs.sampled_from(["free_lrb(3)", "ordered_partitions(3)",
                             "K4-bases"]),
       weights=hs.one_of(hs.none(), hs.integers(0, 15)),
       seed=hs.integers(-2 ** 70, 2 ** 70),
       samples=hs.integers(1, 300),
       block=hs.sampled_from([None, 1, 2, 7, 64, "walk"]))
def test_block_samplers_match_the_per_draw_oracle(band, weights, seed,
                                                  samples, block):
    st = _band(band)
    sg = st.semigroup
    w = (spectral.uniform_on_generators(sg) if weights is None
         else spectral.seeded_generator_weights(sg, weights))
    _check_against_the_oracle(st, w, seed, samples, block)


@pytest.mark.parametrize("block", [1, 7, 4096, "walk"])
@pytest.mark.parametrize("seed", [0, 2 ** 40 + 7])
def test_block_samplers_match_the_oracle_with_weight_on_every_element(
        seed, block):
    # |supp w| = |S|: the identity, which never raises the support, and
    # the chambers, which reach the top in one draw, are drawn too
    st = _band("ordered_partitions(3)")
    w = _spread_weights(st.semigroup)
    assert w.support_ids() == list(range(st.semigroup.size))
    _check_against_the_oracle(st, w, seed, 300, block)


@pytest.mark.parametrize("block", [None, 7, 4096, "walk"])
@pytest.mark.parametrize("samples", [1, 2, 40])
def test_samples_that_outrun_the_lanes_match_the_oracle(samples, block):
    # T near 1500 draws on average: a sample spans many rounds, which
    # the defaults walk a draw at a time, and in which the small sizes
    # replay lanes that grow with the draws known to end no sample
    st = _band("free_lrb(3)")
    _check_against_the_oracle(st, _heavy_weights(st.semigroup), 5,
                              samples, block)


@pytest.mark.parametrize("block", [None, 7])
@pytest.mark.parametrize("seed", [3, 2 ** 40 + 7])
def test_one_sample_matches_the_oracle(seed, block):
    for band in ("free_lrb(3)", "ordered_partitions(3)", "K4-bases"):
        st = _band(band)
        _check_against_the_oracle(
            st, spectral.uniform_on_generators(st.semigroup), seed, 1, block)


def test_a_one_flat_band_stops_at_once_without_drawing(monkeypatch):
    sg = core.Semigroup.from_json_dict(
        {"label": "point", "elements": ["e"], "identity": 0,
         "table": [[0]]})
    st = core.derive_support(sg)
    w = spectral.WeightVector(sg, {0: F(1)})
    real = walks._drawer

    def no_draws(w, seed):
        ids, _ = real(w, seed)

        def draw(n):
            raise AssertionError(f"drew {n} positions")

        return ids, draw

    monkeypatch.setattr(walks, "_drawer", no_draws)
    dist, times = walks.sample_stationary(st, w, seed=3, samples=50)
    assert times == {0: 50}
    assert dist.probs == [1.0]
    assert walks.sample_stopping_times(st, w, seed=4, samples=7) == {0: 7}


def test_weights_below_the_top_stall_out_without_drawing(monkeypatch):
    sg, st = _f3()
    w = spectral.uniform_on(sg, sg.generators[:2])

    def no_draws(w, seed):
        return w.support_ids(), None   # calling it would raise TypeError

    monkeypatch.setattr(walks, "_drawer", no_draws)
    with pytest.raises(StagnationError, match="below the top flat"):
        walks.sample_stopping_times(st, w, seed=0, samples=3)


@pytest.mark.parametrize("block", [None, 7, "walk"])
def test_the_step_cap_admits_a_sample_of_exactly_cap_draws(block):
    sg, st = _f3()
    w = spectral.seeded_generator_weights(sg, 9)
    with _block_size(block):
        times = walks.sample_stopping_times(st, w, seed=4, samples=200)
        longest = max(times)
        at_cap = replace(DEFAULT_GUARDS, sample_step_cap=longest)
        assert walks.sample_stopping_times(st, w, 4, 200, at_cap) == times
        below = replace(DEFAULT_GUARDS, sample_step_cap=longest - 1)
        with pytest.raises(StagnationError,
                           match=f"within {longest - 1} draws"):
            walks.sample_stopping_times(st, w, 4, 200, below)
        # the landing path counts the same draws against the same cap
        dist, got = walks.sample_stationary(st, w, 4, 200, at_cap)
        assert got == times
        assert (dist, got) == walks.sample_stationary(st, w, 4, 200)
        with pytest.raises(StagnationError,
                           match=f"within {longest - 1} draws"):
            walks.sample_stationary(st, w, 4, 200, below)


@pytest.mark.parametrize("block", [None, 7])
def test_a_sample_in_progress_past_the_cap_stalls_out(block):
    # no sample ends within the cap: the one in progress raises, however
    # many rounds it spans
    st = _band("free_lrb(3)")
    w = _heavy_weights(st.semigroup)
    want, _ = _oracle_until_top(st, w, 5, 1)
    (t,) = want
    with _block_size(block):
        for cap in (t - 1, t // 3):
            with pytest.raises(StagnationError, match=f"within {cap} draws"):
                walks.sample_stopping_times(
                    st, w, 5, 1, replace(DEFAULT_GUARDS, sample_step_cap=cap))
        assert walks.sample_stopping_times(
            st, w, 5, 1, replace(DEFAULT_GUARDS, sample_step_cap=t)) == want


# -------------------------------- the exact law of the draw-until-top loop


def _stream(seq, size):
    """draw(n) over the positions `seq`, then 0, 1, .., size - 1 over
    and over, which joins every weighted support."""
    taken = 0

    def draw(n):
        nonlocal taken
        out = np.arange(taken, taken + n) % size
        head = seq[taken:taken + n]
        out[:len(head)] = head
        taken += n
        return out.astype(np.uint8)

    return draw


@pytest.mark.parametrize("block", [7, "walk"])
@pytest.mark.parametrize("band, weights, length", [
    ("free_lrb(3)", None, 7), ("free_lrb(3)", 9, 7),
    ("ordered_partitions(3)", None, 4)])
def test_the_replay_gives_the_exact_stopping_time_law(band, weights, length,
                                                      block):
    # Every sequence of L positions, weighted by its exact probability,
    # fed to the replay as its own stream: one sample gives the law of
    # min(T, L + 1), which must be the exact tail at every t <= L, and a
    # landing law on T <= L within Pr{T > L} of pi below it; two samples
    # give the law of the pair of stopping times when T1 + T2 <= L.  A
    # sequence decides each of these, so no false alarm is possible.
    st = _band(band)
    sg = st.semigroup
    w = (spectral.uniform_on_generators(sg) if weights is None
         else spectral.seeded_generator_weights(sg, weights))
    ids = w.support_ids()
    rep = walks.convergence_report(st, w, st.chambers[0], length)
    tail = [r.exact_tail for r in rep.rows]
    law = [None] + [tail[t - 1] - tail[t] for t in range(1, length + 1)]
    pi = walks.stationary_exact(spectral.transition_matrix(st, w)).probs
    one = {}
    landed = {}
    two = {}
    with _block_size(block):
        for seq in itertools.product(range(len(ids)), repeat=length):
            p = math.prod((w[ids[k]] for k in seq), start=F(1))
            times, land = walks._until_top(st, ids, _stream(seq, len(ids)),
                                           1, DEFAULT_GUARDS, landing=True)
            (t,) = times
            one[min(t, length + 1)] = one.get(min(t, length + 1), 0) + p
            if t <= length:
                (c,) = land
                landed[c] = landed.get(c, 0) + p
            pair, _ = walks._until_top(st, ids, _stream(seq, len(ids)), 2,
                                       DEFAULT_GUARDS, landing=False)
            if sum(a * n for a, n in pair.items()) <= length:
                key = tuple(sorted(pair.items()))
                two[key] = two.get(key, 0) + p
    assert sum(one.values()) == 1
    assert one.get(length + 1, 0) == tail[length]
    for t in range(1, length + 1):
        assert one.get(t, 0) == law[t]
    for c, q in zip(st.chambers, pi):
        assert 0 <= q - landed.get(c, 0) <= tail[length]
    want = {}
    for a in range(1, length):
        for b in range(a, length + 1 - a):
            key = ((a, 2),) if a == b else ((a, 1), (b, 1))
            want[key] = law[a] * law[b] * (1 if a == b else 2)
    assert two == {k: v for k, v in want.items() if v}


# ------------------------------------------------------------- memory


def test_sampler_memory_does_not_grow_with_the_samples():
    # a round holds at most about ROUND_DRAWS draws, and each round is
    # folded into the counts before the next is drawn
    sg = constructions.free_lrb(4)
    st = core.derive_support(sg)
    w = spectral.uniform_on_generators(sg)
    walks.sample_stationary(st, w, 1, 100)   # tabulate outside the trace
    peaks = []
    for samples in (20000, 400000):
        for sampler in (walks.sample_stopping_times, walks.sample_stationary):
            tracemalloc.start()
            try:
                sampler(st, w, 5, samples)
                peaks.append(tracemalloc.get_traced_memory()[1] / 2 ** 20)
            finally:
                tracemalloc.stop()
    assert max(peaks) < 6, peaks
    assert max(peaks[2:]) < min(peaks[:2]) + 3, peaks


def test_the_samplers_leave_numpy_random_unloaded():
    # loading numpy.random costs about 3 MiB of resident memory
    src = str(Path(walks.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = (
        "import sys\n"
        "from bandwalk import constructions, core, spectral, walks\n"
        "sg = constructions.free_lrb(3)\n"
        "st = core.derive_support(sg)\n"
        "w = spectral.uniform_on_generators(sg)\n"
        "walks.sample_stationary(st, w, seed=1, samples=500)\n"
        "walks.simulate(st, w, st.chambers[0], 500, seed=2)\n"
        "walks.convergence_report(st, w, st.chambers[0], 5, samples=500)\n"
        "assert 'numpy.random' not in sys.modules\n")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
