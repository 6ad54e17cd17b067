"""Simulation, stationary distributions, and convergence control."""

import os
import random
import subprocess
import sys
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from bandwalk import constructions, core, matroid, spectral, walks
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
    sg = st.semigroup
    pos = {c: i for i, c in enumerate(st.chambers)}
    rows = [[F(0)] * len(pos) for _ in pos]
    for i, c in enumerate(st.chambers):
        for x, v in w.items():
            rows[i][pos[sg.product(x, c)]] += v
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
        e = real(*args)
        a, b = sorted(e)[:2]
        assert st.supp[a] == st.supp[b] == st.top
        e[a], e[b] = e[a] / 2, e[b] + e[a] / 2
        return e

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
        assert r.exact_tv <= r.coatom_bound
        assert r.empirical_tail is None


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


# --------------------------------------------------- the block sampler


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
                acc = sg.product(acc, x)
                flat = up
        times[t] = times.get(t, 0) + 1
        landed[acc] = landed.get(acc, 0) + 1
    return dict(sorted(times.items())), landed


def _oracle_simulate(structure, w, c0, steps, seed):
    draw = _oracle_draw(w, random.Random(seed))
    out = []
    cur = c0
    for _ in range(steps):
        x = draw()
        cur = structure.semigroup.product(x, cur)
        out.append((x, cur))
    return out


@contextmanager
def _block_size(n):
    saved = walks.DRAW_BLOCK
    walks.DRAW_BLOCK = n
    try:
        yield
    finally:
        walks.DRAW_BLOCK = saved


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


@pytest.mark.parametrize("block", [None, 7])
@pytest.mark.parametrize("seed", [0, -3, 2 ** 40 + 7, 2 ** 64 + 13])
def test_draw_blocks_replay_the_standard_generator(monkeypatch, seed, block):
    # pins the word order of getrandbits that the blocks are built from
    if block:
        monkeypatch.setattr(walks, "DRAW_BLOCK", block)
    sg, _ = _f3()
    w = _spread_weights(sg)
    draw = _oracle_draw(w, random.Random(seed))
    blocks = walks._draw_blocks(w, seed)
    for _ in range(3):
        got = next(blocks).tolist()
        assert len(got) == walks.DRAW_BLOCK
        assert got == [draw() for _ in got]


@settings(max_examples=60, deadline=None)
@given(band=hs.sampled_from(["free_lrb(3)", "ordered_partitions(3)",
                             "K4-bases"]),
       weights=hs.one_of(hs.none(), hs.integers(0, 15)),
       seed=hs.integers(-2 ** 70, 2 ** 70),
       samples=hs.integers(1, 300),
       block=hs.sampled_from([1, 7, walks.DRAW_BLOCK]))
def test_block_samplers_match_the_per_draw_oracle(band, weights, seed,
                                                  samples, block):
    st = _band(band)
    sg = st.semigroup
    w = (spectral.uniform_on_generators(sg) if weights is None
         else spectral.seeded_generator_weights(sg, weights))
    c0 = st.chambers[seed % len(st.chambers)]
    with _block_size(block):
        got = walks._sample_until_top(st, w, seed, samples, DEFAULT_GUARDS)
        traj = walks.simulate(st, w, c0, samples, seed)
    times, landed = got
    want_times, want_landed = _oracle_until_top(st, w, seed, samples)
    assert times == want_times
    assert list(times) == list(want_times)
    assert landed == want_landed
    assert traj.steps == _oracle_simulate(st, w, c0, samples, seed)


def test_a_one_flat_band_stops_at_once_without_drawing(monkeypatch):
    sg = core.Semigroup.from_json_dict(
        {"label": "point", "elements": ["e"], "identity": 0,
         "table": [[0]]})
    st = core.derive_support(sg)
    w = spectral.WeightVector(sg, {0: F(1)})
    real = walks._draw_blocks

    def no_draws(w, seed):
        real(w, seed)
        return iter(())        # a draw would raise StopIteration

    monkeypatch.setattr(walks, "_draw_blocks", no_draws)
    dist, times = walks.sample_stationary(st, w, seed=3, samples=50)
    assert times == {0: 50}
    assert dist.probs == [1.0]
    assert walks.sample_stopping_times(st, w, seed=4, samples=7) == {0: 7}


@pytest.mark.parametrize("block", [None, 7])
def test_the_step_cap_admits_a_sample_of_exactly_cap_draws(monkeypatch,
                                                          block):
    if block:
        monkeypatch.setattr(walks, "DRAW_BLOCK", block)
    sg, st = _f3()
    w = spectral.seeded_generator_weights(sg, 9)
    times = walks.sample_stopping_times(st, w, seed=4, samples=200)
    longest = max(times)
    at_cap = replace(DEFAULT_GUARDS, sample_step_cap=longest)
    assert walks.sample_stopping_times(st, w, 4, 200, at_cap) == times
    below = replace(DEFAULT_GUARDS, sample_step_cap=longest - 1)
    with pytest.raises(StagnationError, match=f"within {longest - 1} draws"):
        walks.sample_stopping_times(st, w, 4, 200, below)


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
