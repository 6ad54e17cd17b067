"""Simulation, stationary distributions, and convergence control."""

from dataclasses import replace
from fractions import Fraction

import pytest

from bandwalk import constructions, core, spectral, walks
from bandwalk.errors import (MalformedInputError, NonUniqueStationaryError,
                             PreconditionError, StagnationError)
from bandwalk.guards import DEFAULT_GUARDS


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


def test_identity_weights_make_the_stationary_solve_fail():
    sg, st = _f3()
    w = spectral.WeightVector(sg, {sg.identity: F(1)})
    P = spectral.transition_matrix(st, w)
    with pytest.raises(NonUniqueStationaryError):
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
    with pytest.raises(PreconditionError):
        walks.sample_stationary(st, w, seed=0, samples=5)


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
