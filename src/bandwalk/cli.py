"""Command-line front end.

Exit codes: 0 success, 2 parse or precondition failure, 3 mathematical
falsification (a certificate failed), 4 size-guard refusal.  Identical
inputs and seed produce byte-identical artifacts.
"""

import argparse
import os
import sys

from . import algebra, constructions, core, derangement, descent, serialize
from . import spectral, walks
from .errors import (AxiomViolationError, FalsificationError,
                     MalformedInputError, NonUniqueStationaryError,
                     PreconditionError, SizeGuardError, StagnationError)
from .guards import load_guards


def _add_common(p):
    p.add_argument("--out", metavar="DIR",
                   help="write artifacts under DIR instead of stdout")
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   dest="fmt", help="matrix artifact format")
    p.add_argument("--guard", action="append", default=[],
                   metavar="NAME=VALUE",
                   help="override a size cap (also via LRB_GUARD_NAME)")
    p.add_argument("--verbose", action="store_true",
                   help="print full tables, not just summaries")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="bandwalk",
        description="Exact spectral analysis of random walks on "
                    "left-regular bands.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct and verify a band")
    p.add_argument("--spec", required=True, help="construction spec JSON")
    _add_common(p)

    p = sub.add_parser("spectrum", help="eigenvalues and multiplicities "
                                        "of the chamber walk")
    p.add_argument("--spec", required=True)
    _add_weight_opts(p)
    p.add_argument("--certify", action="store_true",
                   help="certify diagonalizability in the semigroup algebra")
    _add_common(p)

    p = sub.add_parser("idempotents", help="primitive idempotents of the "
                                           "walk algebra")
    p.add_argument("--spec", required=True)
    _add_weight_opts(p)
    p.add_argument("--grouped", action="store_true",
                   help="also emit idempotents grouped by eigenvalue")
    p.add_argument("--check-nu", action="store_true", dest="check_nu",
                   help="cross-check against the sampling-measure "
                        "construction (free band only)")
    p.add_argument("--restrict", action="store_true",
                   help="allow weights whose supports span only part of "
                        "the lattice; analyzes the generated sub-band")
    _add_common(p)

    p = sub.add_parser("simulate", help="run the seeded chamber walk")
    p.add_argument("--spec", required=True)
    _add_weight_opts(p)
    p.add_argument("--start", required=True, metavar="KEY")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)

    p = sub.add_parser("stationary", help="stationary distribution")
    p.add_argument("--spec", required=True)
    _add_weight_opts(p)
    p.add_argument("--method", choices=("exact", "sample", "idempotent"),
                   default="exact")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)

    p = sub.add_parser("converge", help="total-variation decay against "
                                        "the coatom bound")
    p.add_argument("--spec", required=True)
    _add_weight_opts(p)
    p.add_argument("--start", metavar="KEY",
                   help="start chamber (default: first)")
    p.add_argument("--mmax", type=int, default=30)
    p.add_argument("--samples", type=int, default=0,
                   help="also estimate the stopping-time tail")
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)

    p = sub.add_parser("derangement", help="generalized derangement "
                                           "numbers of a bounded poset")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--poset", metavar="FILE",
                     help="poset JSON {elements, covers}")
    src.add_argument("--boolean", type=int, metavar="N")
    src.add_argument("--subspace", nargs=2, type=int, metavar=("N", "Q"))
    src.add_argument("--graph", metavar="FILE",
                     help="edge JSON or edge-list CSV; uses the lattice "
                          "of contractions")
    p.add_argument("--stanley", action="store_true",
                   help="check d(L) against the alternating flag h-sum")
    p.add_argument("--mahajan", action="store_true",
                   help="check the rank-threaded D_r identities")
    _add_common(p)

    p = sub.add_parser("descent", help="descent algebra of the symmetric "
                                       "group")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--beta", action="store_true",
                   help="descent counts against the complex h-vector")
    p.add_argument("--phi-check", action="store_true", dest="phi_check",
                   help="certify the anti-isomorphism on all basis pairs")
    p.add_argument("--idempotents", action="store_true",
                   help="top-to-random idempotent family E_i")
    p.add_argument("--walk", metavar="FILE",
                   help="invariant face weights; emits the group-walk "
                        "measure and the correspondence check")
    _add_common(p)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.add_argument("--only", type=int, action="append", default=[],
                   metavar="N", help="run a single criterion (repeatable)")
    _add_common(p)
    return parser


def _add_weight_opts(p):
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--weights", metavar="FILE",
                   help="JSON mapping element keys to rationals")
    g.add_argument("--uniform-on", dest="uniform_on", metavar="SELECTOR",
                   help="'generators', 'length:k', or 'type:i,j,...'")


# --------------------------------------------------------------- helpers


def _guard_overrides(args):
    """NAME=VALUE flags as keywords; `load_guards` checks both halves."""
    pairs = (item.partition("=") for item in getattr(args, "guard", []))
    return {name.strip().lower(): value for name, _, value in pairs}


def _emit(args, name, text):
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, name)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        print(f"wrote {path}")
    else:
        sys.stdout.write(text)


def _built(args, guards):
    spec = serialize.load_json_file(args.spec)
    sg = constructions.construction_from_spec(spec, guards)
    st = core.derive_support(sg, guards)
    labels = core.check_expected_lattice(st)
    return sg, st, labels


def _flat_labels(st, labels):
    return labels if labels else st.labels


def _weights(args, sg, st):
    if getattr(args, "weights", None):
        table = serialize.weight_table(serialize.load_json_file(args.weights))
        return spectral.WeightVector.from_keys(sg, table)
    return _uniform_selector(sg, args.uniform_on)


def _uniform_selector(sg, selector):
    sel = selector.strip()
    if sel == "generators":
        return spectral.uniform_on_generators(sg)
    kind, sep, rest = sel.partition(":")
    if sep and kind == "length":
        if not hasattr(sg, "objects"):
            raise MalformedInputError(
                f"{sg.label} has no length structure for {selector!r}")
        k = _selector_int(selector, rest)
        ids = [i for i, obj in enumerate(sg.objects) if len(obj) == k]
        if not ids:
            raise MalformedInputError(f"no elements of length {k}")
        return spectral.uniform_on(sg, ids)
    if sep and kind == "type":
        if sg.family != "ordered_partitions":
            raise MalformedInputError(
                "type selectors apply to the ordered-partition band")
        want = tuple(sorted(_selector_int(selector, x)
                            for x in rest.split(",") if x.strip()))
        ids = [i for i, obj in enumerate(sg.objects)
               if descent.type_of_partition(obj) == want]
        if not ids:
            raise MalformedInputError(f"no faces of type {want}")
        return spectral.uniform_on(sg, ids)
    raise MalformedInputError(
        f"unknown selector {selector!r}; use 'generators', 'length:k' "
        "or 'type:i,j,...'")


def _selector_int(selector, text):
    try:
        return int(text)
    except ValueError:
        raise MalformedInputError(
            f"selector {selector!r}: {text.strip()!r} is not an integer"
        ) from None


def _print_rows(rows):
    for row in rows:
        print("  " + "  ".join(f"{k}={v}" for k, v in row.items()))


# ------------------------------------------------------------- commands


def _cmd_build(args, guards):
    sg, st, labels = _built(args, guards)
    _emit(args, "semigroup.json", serialize.dump_json(sg.to_json_dict()))
    _emit(args, "support.json", serialize.dump_json(st.to_json_dict()))
    print(f"{sg.label}: {sg.size} elements, {st.n_flats} flats, "
          f"{len(st.chambers)} chambers; axioms {st.axioms.assoc_mode} ok"
          + ("; expected lattice matched" if labels else ""))
    return 0


def _cmd_spectrum(args, guards):
    sg, st, labels = _built(args, guards)
    w = _weights(args, sg, st)
    P = spectral.transition_matrix(st, w)
    spec = spectral.spectrum(st, w)
    flat_labels = _flat_labels(st, labels)
    artifact = {
        "construction": sg.label,
        "chambers": spec.n_chambers,
        "generic": spec.is_generic,
        "spectrum": serialize.spectrum_rows(spec, flat_labels),
    }
    if args.certify:
        cert = spectral.verify_diagonalizable(P, spec)
        artifact["certificate"] = serialize.certificate_dict(cert)
    _emit(args, "spectrum.json", serialize.dump_json(artifact))
    if args.fmt == "csv":
        _emit(args, "matrix.csv", serialize.matrix_csv(P))
    else:
        _emit(args, "matrix.json",
              serialize.dump_json(serialize.matrix_dict(P)))
    eig = ", ".join(f"{serialize.frac_str(l)} (m={m})"
                    for l, m in sorted(spec.eigenvalues().items(),
                                       reverse=True))
    print(f"{sg.label}: {spec.n_chambers} chambers; spectrum {eig}"
          + ("; certificate ok" if args.certify else ""))
    return 0


def _cmd_idempotents(args, guards):
    sg, st, labels = _built(args, guards)
    w = _weights(args, sg, st)
    fam = algebra.primitive_idempotents(st, w, restrict=args.restrict,
                                        guards=guards)
    flat_labels = _flat_labels(st, labels)
    artifact = {
        "construction": sg.label,
        "generic": fam.is_generic,
        "lattice_covered": fam.lattice_covered,
        "idempotents": serialize.idempotent_rows(st, fam, flat_labels),
    }
    if args.grouped:
        artifact["grouped"] = serialize.grouped_idempotent_rows(st, fam)
    notes = []
    if args.check_nu:
        nu = algebra.tsetlin_nu_family(st, w)
        for x in fam.flat_ids:
            rebuilt = algebra.nu_reconstruction(st, nu, _letters_of(sg, st, x))
            if not algebra.alg_equal(rebuilt, fam.members[x]):
                raise FalsificationError(
                    "sampling-measure reconstruction differs from the "
                    f"residue idempotent at flat {flat_labels[x]}")
        artifact["nu_reconstruction_ok"] = True
        notes.append("nu reconstruction ok")
    _emit(args, "idempotents.json", serialize.dump_json(artifact))
    print(f"{sg.label}: {len(fam.flat_ids)} idempotents"
          + (" (generic weights)" if fam.is_generic else " (ties grouped)")
          + ("" if fam.lattice_covered else "; restricted sublattice")
          + ("; " + "; ".join(notes) if notes else ""))
    return 0


def _letters_of(sg, st, flat):
    anchor = st.members[flat][0]
    key = sg.keys[anchor]
    if key == "e":
        return ()
    return tuple(sorted(int(x) for x in key.split(",")))


def _cmd_simulate(args, guards):
    sg, st, _ = _built(args, guards)
    w = _weights(args, sg, st)
    if args.start not in sg.index:
        raise MalformedInputError(f"unknown start key {args.start!r}")
    c0 = sg.index[args.start]
    traj = walks.simulate(st, w, c0, args.steps, args.seed)
    _emit(args, "trajectory.json",
          serialize.dump_json(serialize.trajectory_dict(sg, traj)))
    counts = {}
    for _, c in traj.steps:
        counts[sg.keys[c]] = counts.get(sg.keys[c], 0) + 1
    top = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
    print(f"{sg.label}: {args.steps} steps from {args.start} "
          f"(seed {args.seed}); final {sg.keys[traj.final]}; "
          "most visited " + ", ".join(f"{k}:{c}" for k, c in top))
    return 0


def _cmd_stationary(args, guards):
    sg, st, _ = _built(args, guards)
    w = _weights(args, sg, st)
    if args.method == "exact":
        P = spectral.transition_matrix(st, w)
        dist = walks.stationary_exact(P)
    elif args.method == "sample":
        dist, _times = walks.sample_stationary(st, w, args.seed,
                                               args.samples, guards)
    else:
        fam = algebra.primitive_idempotents(st, w, guards=guards)
        pi = algebra.stationary_from_idempotents(st, fam)
        dist = walks.DistributionOnChambers(
            [sg.keys[c] for c in st.chambers], pi, "stationary-idempotent")
    _emit(args, "stationary.json",
          serialize.dump_json(serialize.distribution_dict(dist)))
    if args.verbose:
        for k, p in zip(dist.chamber_keys, dist.probs):
            print(f"  {k}: {serialize.value_str(p)}")
    peak = max(range(len(dist.probs)), key=lambda i: dist.probs[i])
    print(f"{sg.label}: stationary via {args.method}; mode "
          f"{dist.chamber_keys[peak]} = "
          f"{serialize.value_str(dist.probs[peak])}")
    return 0


def _cmd_converge(args, guards):
    sg, st, _ = _built(args, guards)
    w = _weights(args, sg, st)
    if args.start is None:
        c0 = st.chambers[0]
    elif args.start in sg.index:
        c0 = sg.index[args.start]
    else:
        raise MalformedInputError(f"unknown start key {args.start!r}")
    report = walks.convergence_report(st, w, c0, args.mmax,
                                      samples=args.samples, seed=args.seed,
                                      guards=guards)
    artifact = {
        "construction": sg.label,
        "start": report.start_key,
        "coatom_lambdas": [serialize.frac_str(l)
                           for l in report.coatom_lambdas],
        "bound_holds": report.bound_holds,
        "rows": serialize.convergence_rows(report),
    }
    _emit(args, "converge.json", serialize.dump_json(artifact))
    if args.verbose:
        _print_rows(artifact["rows"])
    if not report.bound_holds:
        raise FalsificationError(
            "exact TV exceeded the coatom bound; see converge.json")
    last = report.rows[-1]
    print(f"{sg.label}: TV({args.mmax}) = "
          f"{serialize.frac_str(last.exact_tv)} <= bound "
          f"{serialize.frac_str(last.coatom_bound)}; bound holds at "
          f"every step")
    return 0


def _read_graph_edges(path):
    try:
        obj = serialize.load_json_file(path)
    except MalformedInputError:
        obj = None
    if obj is not None:
        edges = obj.get("edges") if isinstance(obj, dict) else obj
        if not isinstance(edges, list) or not all(
                isinstance(e, list) and len(e) == 2 for e in edges):
            raise MalformedInputError(
                f"{path}: graph JSON must be a list of [u, v] edges, "
                "alone or under \"edges\"")
        return [(u, v) for u, v in edges]
    edges = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != 2:
                raise MalformedInputError(
                    f"{path}: edge lines must be 'u,v', got {line!r}")
            edges.append((parts[0], parts[1]))
    if not edges:
        raise MalformedInputError(f"{path}: no edges found")
    return edges


def _cmd_derangement(args, guards):
    if args.poset:
        p = derangement.poset_from_json(serialize.load_json_file(args.poset))
    elif args.boolean is not None:
        p = derangement.boolean_lattice(args.boolean)
    elif args.subspace:
        n, q = args.subspace
        p = derangement.subspace_lattice(n, q)
    else:
        p = derangement.contraction_lattice(_read_graph_edges(args.graph),
                                            guards=guards)
    d = derangement.derangement_number(p)
    artifact = {"poset": p.name, "size": p.size, "d": d,
                "maximal_chains": derangement.maximal_chain_count(p)}
    failures = []
    if args.stanley:
        d_again, total, ok = derangement.stanley_identity_check(p)
        fv = derangement.flag_vectors(p)
        artifact["stanley"] = {
            "d": d_again, "even_gap_h_sum": total, "ok": ok,
            "flags": [{"J": list(j), "f": fv.f[j], "h": fv.h[j]}
                      for j in sorted(fv.f)],
        }
        if not ok:
            failures.append("even-gap h-sum differs from d")
    if args.mahajan:
        rows = derangement.mahajan_profile(p)
        artifact["mahajan"] = [{"r": r.r, "d_sum": r.d_sum,
                                "h_sum": r.h_sum, "ok": r.ok}
                               for r in rows]
        if not all(r.ok for r in rows):
            failures.append("rank-threaded D_r identity failed")
    _emit(args, "derangement.json", serialize.dump_json(artifact))
    if failures:
        raise FalsificationError(
            f"{p.name}: " + "; ".join(failures) + "; see derangement.json")
    checks = "".join(
        f"; {k} ok" for k in ("stanley", "mahajan") if k in artifact)
    print(f"{p.name}: d = {d} ({p.size} elements, "
          f"{artifact['maximal_chains']} maximal chains{checks})")
    return 0


def _perm_key(w):
    return ",".join(map(str, w))


def _cmd_descent(args, guards):
    n = args.n
    cx = descent.coxeter_complex(n, guards)
    artifact = {"n": n, "faces": cx.semigroup.size,
                "chambers": len(cx.chamber_id)}
    failures = []
    summary = [f"S_{n}: {artifact['faces']} faces, "
               f"{artifact['chambers']} chambers"]
    if args.beta:
        rows = descent.beta_and_h(n, cx, guards)
        artifact["beta"] = [{"J": list(r.j_set), "beta": r.beta,
                             "f": r.f, "h": r.h, "ok": r.ok}
                            for r in rows]
        if all(r.ok for r in rows):
            summary.append("beta == h")
        else:
            failures.append("beta(J) != h_J for some J")
    if args.phi_check:
        checks = descent.certify_phi(cx)
        artifact["phi"] = checks
        if all(checks.values()):
            summary.append("phi anti-isomorphism certified")
        else:
            failures.append("phi check failed")
    if args.idempotents:
        fam = descent.top_to_random_idempotents(n, guards)
        artifact["top_to_random"] = [
            {"i": i,
             "coefficients": {
                 _perm_key(w): serialize.frac_str(v)
                 for w, v in sorted(fam.es[i].items())}}
            for i in range(n + 1)]
        summary.append(f"E_0..E_{n} certified, E_{n - 1} = 0")
    if args.walk:
        table = serialize.weight_table(serialize.load_json_file(args.walk))
        w = spectral.WeightVector.from_keys(cx.semigroup, table)
        mu, ok = descent.descent_walk(w, n, cx, guards)
        artifact["walk"] = {
            "mu": {_perm_key(u): serialize.frac_str(v)
                   for u, v in sorted(mu.items())},
            "matches_chamber_walk": ok,
        }
        if ok:
            summary.append("group-walk correspondence holds")
        else:
            failures.append("group measure does not reproduce the "
                            "chamber walk")
    _emit(args, "descent.json", serialize.dump_json(artifact))
    if failures:
        raise FalsificationError(
            f"S_{n}: " + "; ".join(failures) + "; see descent.json")
    print("; ".join(summary))
    return 0


def _cmd_selftest(args, guards):
    from . import selftest
    results = selftest.run_all(only=args.only or None, guards=guards)
    artifact = []
    worst = 0
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        print(f"criterion {r.number}: {status} ({r.seconds:.1f} s) "
              f"- {r.detail}")
        artifact.append({"criterion": r.number, "name": r.name,
                         "ok": r.ok, "seconds": round(r.seconds, 3),
                         "detail": r.detail})
        if not r.ok:
            worst = 3
    if args.out:
        _emit(args, "selftest.json", serialize.dump_json(artifact))
    print("all criteria passed" if worst == 0
          else "at least one criterion failed")
    return worst


_DISPATCH = {
    "build": _cmd_build,
    "spectrum": _cmd_spectrum,
    "idempotents": _cmd_idempotents,
    "simulate": _cmd_simulate,
    "stationary": _cmd_stationary,
    "converge": _cmd_converge,
    "derangement": _cmd_derangement,
    "descent": _cmd_descent,
    "selftest": _cmd_selftest,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        guards = load_guards(**_guard_overrides(args))
        return _DISPATCH[args.command](args, guards)
    except (MalformedInputError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SizeGuardError as exc:
        print(f"size guard: {exc}", file=sys.stderr)
        return 4
    except (FalsificationError, AxiomViolationError,
            NonUniqueStationaryError, StagnationError) as exc:
        print(f"falsified: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
