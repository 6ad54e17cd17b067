"""The bandwalk benchmark.

    python3 perfbench/run.py --workload build --seed 0 --seconds 20 --trace 0

Runs the workload's job list (see jobs.py) again and again in one
process on one thread, a closed loop with one client, for about
--seconds: it stops before a pass that would end more than half a pass
late, and always runs at least one pass.  wall_s and cpu_s are medians
over the passes; setup_s is the median of several fresh interpreters
that import the package and plan the jobs.  The last line of standard
output is one JSON object: correct, attempted, failed and the metrics,
which are the end-to-end metrics with --trace 0 and the per-layer
metrics with --trace 1.  The line before it carries the run's
provenance.  The exit code is 1 when any job failed.

With --trace 1, untraced and traced passes alternate: the traced ones
give each layer's self time and counters, and the difference of the
two medians is the tracing overhead.  The spans are written to
.perfbench/ under the working directory when the run ends.
"""

import os

# one thread: numpy must see these before it is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import dataclasses
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bandwalk"
sys.path.insert(0, str(PACKAGE.parent))

import bandwalk  # noqa: E402
from bandwalk import serialize  # noqa: E402
from bandwalk.guards import load_guards  # noqa: E402

import jobs  # noqa: E402
from spans import Recorder, self_times  # noqa: E402

SETUP_PROBES = 7
TRACE_DIR = Path(".perfbench")

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("passed_frac", "frac"),
)

# layer spans, reported as seconds of self time per pass
SPAN_NAMES = (
    "constructions.build",
    "core.tabulate", "core.verify_lrb", "core.derive_support",
    "core.expected_lattice",
    "descent.coxeter_complex", "descent.beta_and_h", "descent.certify_phi",
    "descent.top_to_random", "descent.descent_walk",
    "derangement.build", "derangement.number", "derangement.identities",
    "spectral.transition_matrix", "spectral.spectrum",
    "spectral.certificate",
    "algebra.idempotents",
    "walks.stationary_exact", "walks.convergence", "walks.sampler",
    "walks.simulate",
    "serialize.dump",
    "bench.job",
)

# counters, reported per pass
COUNTS = (
    "constructions.elements", "core.table_cells", "core.assoc_triples",
    "core.flats", "derangement.lattices", "spectral.eigenvalues",
    "spectral.chambers", "algebra.idempotent_terms", "walks.draws",
    "walks.simulate_steps", "serialize.bytes",
)

PER_LAYER = (
    tuple((f"{name}_s", "s") for name in SPAN_NAMES)
    + tuple((name, "count") for name in COUNTS)
    + (("core.cells_per_s", "1/s"), ("core.assoc_exhaustive_frac", "frac"),
       ("walks.draws_per_s", "1/s"), ("trace.spans", "count"),
       ("trace.overhead_s", "s"))
)


def run_job(job, rec, ctx):
    """Run one job, serialize its artifacts, return the exact one's digest."""
    exact, sampled = job.run(rec, ctx)
    data = rec.call("serialize.dump", serialize.dump_json, exact).encode()
    rec.count("serialize.bytes", len(data))
    if sampled is not None:
        rec.count("serialize.bytes", len(rec.call(
            "serialize.dump", serialize.dump_json, sampled).encode()))
    return hashlib.sha256(data).hexdigest()


def run_pass(job_list, rec, ctx, digests):
    """Run every job once; return one message per failed job."""
    failures = []
    for job in job_list:
        rec.job = job.key
        try:
            with rec.span("bench.job"):
                digest = run_job(job, rec, ctx)
                jobs.check(digest == digests.get(job.key),
                           f"artifact digest {digest} is not the "
                           "reference")
        except Exception as exc:  # a failed job is counted, not fatal
            failures.append(f"{job.key}: {type(exc).__name__}: {exc}")
    return failures


def measure_setup(args):
    """Median wall time of fresh interpreters that import and plan."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def layer_metrics(rec, traced, untraced):
    """Per-pass self times, counters and ratios of the traced passes."""
    n = len(traced)
    own = self_times(rec.spans)
    out = {f"{name}_s": own.get(name, 0.0) / n for name in SPAN_NAMES}
    counts = {name: rec.counters.get(name, 0) / n for name in COUNTS}
    out.update(counts)
    tab = out["core.tabulate_s"]
    out["core.cells_per_s"] = counts["core.table_cells"] / tab if tab else 0.0
    bands = rec.counters.get("core.bands", 0)
    out["core.assoc_exhaustive_frac"] = (
        rec.counters.get("core.assoc_exhaustive", 0) / bands if bands else 0.0)
    sampler = out["walks.sampler_s"]
    out["walks.draws_per_s"] = counts["walks.draws"] / sampler if sampler \
        else 0.0
    out["trace.spans"] = len(rec.spans) / n
    out["trace.overhead_s"] = statistics.median(traced) \
        - statistics.median(untraced)
    return out


def write_trace(args, rec, provenance):
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"{args.workload}-seed{args.seed}-trace.json"
    spans = [{"name": name, "start": start, "end": end, "parent": parent,
              "job": job} for name, start, end, parent, job in rec.spans]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"provenance": provenance, "spans": spans}, fh)
    return path


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "small"), default="full",
                   help="small keeps a few cheap jobs per workload, for "
                   "the self-check")
    p.add_argument("--setup-only", action="store_true",
                   help="import and plan, then exit (the setup_s probe)")
    return p.parse_args(argv)


def main(argv=None):
    args = _parse(argv)
    if Path(bandwalk.__file__).resolve().parent != PACKAGE:
        print(f"bandwalk imported from {bandwalk.__file__}, not from "
              f"{PACKAGE}", file=sys.stderr)
        return 2
    ctx = jobs.Context(load_guards(), {})
    job_list = jobs.plan(args.workload, args.seed, args.size == "small")
    if args.setup_only:
        return 0
    setup_s = None if args.trace else measure_setup(args)
    digests = jobs.load_digests()

    plain, tracer = Recorder(False), Recorder(True)
    walls = {False: [], True: []}
    cpus = []
    failures = []
    attempted = 0
    deadline = time.perf_counter() + args.seconds
    while True:
        rec = tracer if args.trace and len(walls[False]) > len(walls[True]) \
            else plain
        wall0, cpu0 = time.perf_counter(), time.process_time()
        failures += run_pass(job_list, rec, ctx, digests)
        walls[rec.tracing].append(time.perf_counter() - wall0)
        if not rec.tracing:
            cpus.append(time.process_time() - cpu0)
        attempted += len(job_list)
        # stop when another pass would end more than half a pass late
        typical = statistics.median(walls[False] + walls[True])
        if time.perf_counter() + typical / 2 >= deadline and \
                len(walls[True]) == (len(walls[False]) if args.trace else 0):
            break

    provenance = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "version": bandwalk.__version__,
        "guards": dataclasses.asdict(ctx.guards),
        "assoc_mode": ctx.assoc_mode,
        "jobs": [job.key for job in job_list],
        "dkw_alpha": jobs.DKW_ALPHA,
        "pass_wall_s": {"untraced": walls[False], "traced": walls[True]},
        "python": sys.version.split()[0],
    }
    for message in sorted(set(failures)):
        print(f"FAILED {message}", file=sys.stderr)

    if args.trace:
        metrics = layer_metrics(tracer, walls[True], walls[False])
        units = dict(PER_LAYER)
        wall = statistics.median(walls[True])
        for name in SPAN_NAMES:
            share = metrics[f"{name}_s"] / wall
            print(f"{name + '_s':32s} {metrics[name + '_s']:10.4f} s "
                  f"{100 * share:6.2f}% of traced wall_s", file=sys.stderr)
        print(f"spans written to {write_trace(args, tracer, provenance)}",
              file=sys.stderr)
    else:
        metrics = {
            "wall_s": statistics.median(walls[False]),
            "cpu_s": statistics.median(cpus),
            "setup_s": setup_s,
            "peak_rss_mib":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "passed_frac": (attempted - len(failures)) / attempted,
        }
        units = dict(END_TO_END)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
