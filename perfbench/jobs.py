"""The benchmark's workloads: certification jobs with exact output checks.

A job is one user request, handled the way the bandwalk CLI handles
it: build the band from its spec, derive the support lattice, run the
requested certificates and serialize the artifact with
``serialize.dump_json``.  Every band is constructed inside its job, so
no job sees another job's tables or memo.  Every call into bandwalk
goes through ``Recorder.call`` so that a traced run can time each layer
from outside; counters come from return values.

A job raises ``CheckFailed`` when an output is wrong.  The SHA-256 of
the serialized exact artifact is compared with ``digests.json`` by the
runner, not here.
"""

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path

from bandwalk import (algebra, constructions, core, derangement, descent,
                      selftest, serialize, spectral, walks)

WORKLOADS = ("build", "certify", "converge")

DIGESTS = Path(__file__).with_name("digests.json")

# d_k for k = 0..5: multiplicity at a flat of size |X| in a free band on
# n letters is d_{n-|X|}
FREE_DERANGEMENTS = (1, 0, 1, 2, 9, 44)

K4 = {"kind": "graph", "edges": [list(e) for e in selftest.K4_EDGES]}

SPECS = {
    "free_lrb(3)": {"type": "free_lrb", "n": 3},
    "free_lrb(4)": {"type": "free_lrb", "n": 4},
    "free_lrb(5)": {"type": "free_lrb", "n": 5},
    "free_lrb_bar(5)": {"type": "free_lrb_bar", "n": 5},
    "ordered_partitions(4)": {"type": "ordered_partitions", "n": 4},
    "q_free_lrb(3,2)": {"type": "q_free", "n": 3, "q": 2},
    "q_free_lrb_bar(3,2)": {"type": "q_free_bar", "n": 3, "q": 2},
    "K4_bases": {"type": "matroid", "matroid": K4},
    "K4_flags": {"type": "matroid_flags", "matroid": K4},
}

# Seeded weights are drawn from this many seeds, and digests.json holds
# the artifact digest of every job under each of them.
WEIGHT_POOL = 16

# False-alarm rate of each Dvoretzky-Kiefer-Wolfowitz-Massart check;
# a run makes at most a few hundred, whatever the seed.
DKW_ALPHA = 1e-9
M_MAX = 30
SAMPLES = 20000
SIM_STEPS = 5000


class CheckFailed(Exception):
    """An output of the program is not what it must be."""


def check(ok, message):
    if not ok:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Job:
    key: str        # digest key: workload, job name, weight seed if any
    run: object     # run(rec, ctx) -> (exact artifact, sampled artifact)
    small: bool     # kept in the reduced job list of the self-check


@dataclass
class Context:
    """What jobs share within a run: guards in force and provenance."""

    guards: object
    assoc_mode: dict


# ------------------------------------------------------------- helpers


def _construct(rec, name, ctx):
    sg = rec.call("constructions.build",
                  constructions.construction_from_spec, SPECS[name],
                  ctx.guards)
    rec.count("constructions.elements", sg.size)
    return sg


def _derive(rec, sg, ctx):
    """Tabulate, check the axioms, derive and name the support lattice."""
    fresh = sg.table is None
    rec.call("core.tabulate", sg.tabulate, ctx.guards)
    if fresh:
        rec.count("core.table_cells", sg.size ** 2)
    report = rec.call("core.verify_lrb", core.verify_lrb, sg, ctx.guards)
    check(report.ok, f"{sg.label}: {report.message}")
    ctx.assoc_mode[sg.label] = report.assoc_mode
    rec.count("core.bands")
    rec.count("core.assoc_exhaustive", report.assoc_mode == "exhaustive")
    rec.count("core.assoc_triples", report.checked_triples)
    st = rec.call("core.derive_support", core.derive_support, sg,
                  ctx.guards, verify=False)
    rec.count("core.flats", st.n_flats)
    labels = rec.call("core.expected_lattice", core.check_expected_lattice,
                      st)
    check(labels is not None, f"{sg.label}: no closed-form lattice")
    return st, labels


def _set_size(label):
    inner = label.strip("{}")
    return len(inner.split(",")) if inner else 0


def _reference_multiplicities(rec, sg, st, labels):
    """Closed-form multiplicity per flat, or None where none is known.

    Free bands give d_{n-|X|}; the free band's own Boolean lattice and
    the flag-chain band's lattice of flats give interval derangement
    numbers; the hyperplane face band gives |mu(X, top)|.  The q-free
    and ordered-basis bands have no closed form here; their spectra
    are pinned by the digest.
    """
    flats = range(st.n_flats)
    if sg.family == "free_lrb":
        n = sg.meta["n"]
        d = rec.call("derangement.number", derangement.upper_derangements,
                     derangement.from_support_structure(st))
        rec.count("derangement.lattices")
        check(all(d[x] == FREE_DERANGEMENTS[n - _set_size(labels[x])]
                  for x in flats),
              f"{sg.label}: interval derangements of the Boolean lattice "
              "are not d_(n-|X|)")
        return d
    if sg.family == "free_lrb_bar":
        n = sg.meta["n"]
        return [FREE_DERANGEMENTS[n - _set_size(labels[x])] for x in flats]
    if sg.family == "matroid_flags":
        full = derangement.matroid_flats_lattice(sg.meta["matroid"])
        d = rec.call("derangement.number", derangement.upper_derangements,
                     full)
        rec.count("derangement.lattices")
        return [d[full.index_of(labels[x])] for x in flats]
    if sg.family == "ordered_partitions":
        return [abs(st.moebius(x, st.top)) for x in flats]
    return None


def _weightings(sg, kinds, weight_seed):
    out = []
    for kind in kinds:
        if kind == "uniform":
            out.append((kind, spectral.uniform_on_generators(sg)))
        elif kind == "seeded":
            out.append((f"seed{weight_seed}",
                        spectral.seeded_generator_weights(sg, weight_seed)))
        else:
            out.append((kind, selftest.generic_weights(sg)))
    return out


def _dkw_epsilon(samples):
    return math.sqrt(math.log(2 / DKW_ALPHA) / (2 * samples))


# ----------------------------------------------------------- build jobs


def _band_structure(rec, sg, st, labels):
    """Uniform spectrum of a band, checked against its closed form."""
    w = spectral.uniform_on_generators(sg)
    spec = rec.call("spectral.spectrum", spectral.spectrum, st, w)
    m = [r.multiplicity for r in spec.records]
    check(sum(m) == len(st.chambers),
          f"{sg.label}: multiplicities miss |C|")
    want = _reference_multiplicities(rec, sg, st, labels)
    check(want is None or m == want,
          f"{sg.label}: multiplicities {m} differ from the closed form "
          f"{want}")
    return {"semigroup": sg.to_json_dict(), "support": st.to_json_dict(),
            "lattice": labels,
            "spectrum": serialize.spectrum_rows(spec, labels)}


def build_band(name, rec, ctx):
    sg = _construct(rec, name, ctx)
    st, labels = _derive(rec, sg, ctx)
    return _band_structure(rec, sg, st, labels), None


def _phi_suite(rec, cx, ctx):
    n = cx.n
    rows = rec.call("descent.beta_and_h", descent.beta_and_h, n, cx,
                    ctx.guards)
    check(all(r.ok for r in rows), f"S_{n}: beta != h")
    phi = rec.call("descent.certify_phi", descent.certify_phi, cx)
    check(all(phi.values()), f"S_{n}: phi certification failed: {phi}")
    return {"beta_h": [[list(r.j_set), r.beta, r.f, r.h] for r in rows],
            "phi": phi}


def build_coxeter(n, with_band, rec, ctx):
    """S_n: the ordered-partition band taken from the Coxeter complex,
    so that one table serves both the band checks and phi."""
    cx = rec.call("descent.coxeter_complex", descent.coxeter_complex, n,
                  ctx.guards)
    sg = cx.semigroup
    rec.count("constructions.elements", sg.size)
    artifact = {}
    if with_band:
        st, labels = _derive(rec, sg, ctx)
        artifact["band"] = _band_structure(rec, sg, st, labels)
    artifact.update(_phi_suite(rec, cx, ctx))
    return artifact, None


def _lattice_identities(rec, p):
    """d(L) by three routes, then the even-gap and rank-threaded sums."""
    d = rec.call("derangement.number", derangement.derangement_number, p)
    rec.count("derangement.lattices")
    if p.size > 1:
        d2, total, ok = rec.call("derangement.identities",
                                 derangement.stanley_identity_check, p)
        check(ok and d2 == d, f"{p.name}: even-gap h-sum {total} != {d}")
    profile = rec.call("derangement.identities", derangement.mahajan_profile,
                       p)
    check(all(r.ok for r in profile), f"{p.name}: D_r identity failed")
    return {"lattice": p.name, "d": d}


def build_derangements(rec, ctx):
    """The criterion-6 lattice corpus."""
    lattices = rec.call("derangement.build", selftest.derangement_corpus,
                        ctx.guards)
    rows = [_lattice_identities(rec, p) for p in lattices]
    boolean = [r["d"] for r in rows if r["lattice"].startswith("boolean(")]
    check(tuple(boolean[:6]) == FREE_DERANGEMENTS,
          f"Boolean derangements {boolean[:6]}")
    return {"derangements": rows}, None


# --------------------------------------------------------- certify jobs


def _certify_walk(rec, ctx, sg, st, labels, tag, w):
    P = rec.call("spectral.transition_matrix", spectral.transition_matrix,
                 st, w)
    spec = rec.call("spectral.spectrum", spectral.spectrum, st, w)
    cert = rec.call("spectral.certificate", spectral.verify_diagonalizable,
                    P, spec, strict=False)
    rec.count("spectral.eigenvalues", len(cert.entries))
    rec.count("spectral.chambers", P.size)
    check(cert.ok and cert.total_observed == len(st.chambers),
          f"{sg.label} {tag}: certificate failed {cert.entries}")
    pi = rec.call("walks.stationary_exact", walks.stationary_exact, P)
    out = {"matrix": serialize.matrix_dict(P),
           "spectrum": serialize.spectrum_rows(spec, labels),
           "certificate": serialize.certificate_dict(cert),
           "stationary": serialize.distribution_dict(pi)}
    if tag == "generic":
        fam = rec.call("algebra.idempotents", algebra.primitive_idempotents,
                       st, w, guards=ctx.guards)
        rec.count("algebra.idempotent_terms",
                  sum(len(e) for e in fam.members.values()))
        top = rec.call("algebra.idempotents",
                       algebra.stationary_from_idempotents, st, fam)
        check(top == pi.probs,
              f"{sg.label}: top idempotent and kernel solve disagree on pi")
        out["idempotents"] = serialize.idempotent_rows(st, fam, labels)
        out["grouped"] = serialize.grouped_idempotent_rows(st, fam)
    return out


def certify_band(name, kinds, weight_seed, rec, ctx):
    sg = _construct(rec, name, ctx)
    st, labels = _derive(rec, sg, ctx)
    return {tag: _certify_walk(rec, ctx, sg, st, labels, tag, w)
            for tag, w in _weightings(sg, kinds, weight_seed)}, None


def _perm_key(w):
    return "".join(map(str, w))


def certify_top_to_random(n, rec, ctx):
    fam = rec.call("descent.top_to_random",
                   descent.top_to_random_idempotents, n, ctx.guards)
    check(len(fam.es) == n + 1 and not fam.es[n - 1],
          f"S_{n}: E_(n-1) does not vanish")
    return {"E": [{_perm_key(w): serialize.frac_str(v)
                   for w, v in sorted(e.items())} for e in fam.es]}, None


def certify_descent_walk(n, rec, ctx):
    """Uniform move-to-front on the faces of S_n, carried to the group."""
    cx = rec.call("descent.coxeter_complex", descent.coxeter_complex, n,
                  ctx.guards)
    p = spectral.uniform_on(cx.semigroup, cx.type_classes[(1,)])
    mu, ok = rec.call("descent.descent_walk", descent.descent_walk, p, n,
                      cx, ctx.guards)
    check(ok, f"S_{n}: group measure does not reproduce the chamber walk")
    want = {(i,) + tuple(x for x in range(1, n + 1) if x != i):
            Fraction(1, n) for i in range(1, n + 1)}
    check(mu == want, f"S_{n}: move-to-front image measure is wrong")
    return {"mu": {_perm_key(w): serialize.frac_str(v)
                   for w, v in sorted(mu.items())}}, None


# -------------------------------------------------------- converge jobs


def _count_draws(rec, times):
    rec.count("walks.draws", sum(t * c for t, c in times.items()))


def _converge_walk(rec, ctx, sg, st, tag, w, seed, samples):
    """Exact TV against the coatom bound, then three seeded samplers.

    The samplers are checked against exact values with the DKW-Massart
    bound: for every m, TV(m) - eps <= empirical P(T > m) <= bound(m) +
    eps, and the empirical stationary CDF lies within eps of the exact
    one, each failing with probability at most DKW_ALPHA for any seed.
    """
    P = rec.call("spectral.transition_matrix", spectral.transition_matrix,
                 st, w)
    pi = rec.call("walks.stationary_exact", walks.stationary_exact, P)
    c0 = st.chambers[0]
    report = rec.call("walks.convergence", walks.convergence_report, st, w,
                      c0, M_MAX, guards=ctx.guards)
    check(report.bound_holds
          and all(r.exact_tv <= r.coatom_bound for r in report.rows),
          f"{sg.label} {tag}: exact TV exceeds the coatom bound")

    eps = _dkw_epsilon(samples)
    times = rec.call("walks.sampler", walks.sample_stopping_times, st, w,
                     seed, samples, ctx.guards)
    _count_draws(rec, times)
    for r in report.rows:
        tail = sum(c for t, c in times.items() if t > r.m) / samples
        check(float(r.exact_tv) - eps <= tail <= float(r.coatom_bound) + eps,
              f"{sg.label} {tag} m={r.m}: sampled tail {tail} outside "
              f"[TV - {eps:.4f}, bound + {eps:.4f}]")
    dist, times = rec.call("walks.sampler", walks.sample_stationary, st, w,
                           seed + 1, samples, ctx.guards)
    _count_draws(rec, times)
    gap = cdf = 0.0
    for got, want in zip(dist.probs, pi.probs):
        cdf += got - float(want)
        gap = max(gap, abs(cdf))
    check(gap <= eps, f"{sg.label} {tag}: sampled stationary CDF is {gap} "
          f"from the exact one, above {eps:.4f}")

    traj = rec.call("walks.simulate", walks.simulate, st, w, c0, SIM_STEPS,
                    seed + 2)
    rec.count("walks.simulate_steps", len(traj.steps))
    chambers = set(st.chambers)
    cur = c0
    for x, c in traj.steps:
        check(c == sg.table[x][cur] and c in chambers,
              f"{sg.label} {tag}: trajectory step {x} * {cur} -> {c}")
        cur = c

    exact = {"stationary": serialize.distribution_dict(pi),
             "coatom_lambdas": [serialize.frac_str(l)
                                for l in report.coatom_lambdas],
             "rows": serialize.convergence_rows(report)}
    sampled = {"stopping_times": {str(t): c for t, c in times.items()},
               "stationary": serialize.distribution_dict(dist),
               "trajectory": serialize.trajectory_dict(sg, traj)}
    return exact, sampled


def converge_band(name, weight_seed, sample_seed, rec, ctx):
    sg = _construct(rec, name, ctx)
    st, _ = _derive(rec, sg, ctx)
    exact, sampled = {}, {}
    for i, (tag, w) in enumerate(_weightings(sg, ("uniform", "seeded"),
                                             weight_seed)):
        exact[tag], sampled[tag] = _converge_walk(
            rec, ctx, sg, st, tag, w, sample_seed * 16 + 4 * i, SAMPLES)
    return exact, sampled


# ---------------------------------------------------------------- smoke


def smoke(sample_seed, rec, ctx):
    """Every layer once, on free_lrb(3) and S_3.

    Part of every workload, so that each per-layer metric is measured
    on each workload; it costs a few tens of milliseconds.
    """
    sg = _construct(rec, "free_lrb(3)", ctx)
    st, labels = _derive(rec, sg, ctx)
    exact = {"band": _band_structure(rec, sg, st, labels)}
    for tag, w in _weightings(sg, ("uniform", "generic"), None):
        exact[tag] = _certify_walk(rec, ctx, sg, st, labels, tag, w)
    w = spectral.uniform_on_generators(sg)
    exact["converge"], sampled = _converge_walk(
        rec, ctx, sg, st, "uniform", w, sample_seed * 16, 2000)
    exact["B3"] = _lattice_identities(
        rec, rec.call("derangement.build", derangement.boolean_lattice, 3))
    exact["S3"] = build_coxeter(3, False, rec, ctx)[0]
    exact["S3_walk"] = certify_descent_walk(3, rec, ctx)[0]
    exact["S3_E"] = certify_top_to_random(3, rec, ctx)[0]
    return exact, sampled


# ---------------------------------------------------------------- plans


BUILD_BANDS = ("free_lrb(5)", "free_lrb_bar(5)", "q_free_lrb(3,2)",
               "K4_bases", "K4_flags")

# (band, weightings, in the reduced list).  Seeded weights go on the
# small bands only: their certificate cost varies with the weights, and
# on the large bands that would make wall_s depend on the seed.
CERTIFY_BANDS = (
    ("free_lrb(4)", ("uniform", "seeded", "generic"), False),
    ("ordered_partitions(4)", ("uniform", "seeded", "generic"), False),
    ("q_free_lrb_bar(3,2)", ("uniform", "seeded", "generic"), True),
    ("K4_flags", ("uniform", "seeded", "generic"), True),
    ("K4_bases", ("uniform",), False),
    ("free_lrb_bar(5)", ("uniform", "generic"), False),
    ("q_free_lrb(3,2)", ("uniform",), False),
)

CONVERGE_BANDS = ("free_lrb(4)", "ordered_partitions(4)", "K4_bases",
                  "free_lrb_bar(5)", "q_free_lrb(3,2)", "free_lrb(5)")


def plan(workload, seed, small=False):
    """The job list of one pass; the seed picks weight and sampler seeds."""
    def weight_seed(i):
        return (seed + i) % WEIGHT_POOL

    jobs = []
    if workload == "build":
        jobs += [Job(f"build/{name}", partial(build_band, name),
                     name == "K4_flags") for name in BUILD_BANDS]
        jobs.append(Job("build/S5", partial(build_coxeter, 5, True), False))
        jobs.append(Job("build/S4", partial(build_coxeter, 4, False), True))
        jobs.append(Job("build/derangements", build_derangements, True))
    elif workload == "certify":
        for i, (name, kinds, small_job) in enumerate(CERTIFY_BANDS):
            ws = weight_seed(i) if "seeded" in kinds else None
            key = f"certify/{name}" + ("" if ws is None else f"/w{ws}")
            jobs.append(Job(key, partial(certify_band, name, kinds, ws),
                            small_job))
        jobs.append(Job("certify/S6_top_to_random",
                        partial(certify_top_to_random, 6), False))
        jobs.append(Job("certify/S4_descent_walk",
                        partial(certify_descent_walk, 4), True))
    elif workload == "converge":
        for i, name in enumerate(CONVERGE_BANDS):
            ws = weight_seed(i)
            jobs.append(Job(f"converge/{name}/w{ws}",
                            partial(converge_band, name, ws, seed * 64 + i),
                            name == "free_lrb(4)"))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    jobs.append(Job("smoke", partial(smoke, seed * 64 + 63), True))
    return [j for j in jobs if j.small] if small else jobs


def load_digests():
    with open(DIGESTS, "r", encoding="utf-8") as fh:
        return json.load(fh)
