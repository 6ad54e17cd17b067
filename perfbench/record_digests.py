"""Record the reference digest of every job's exact artifact.

    python3 perfbench/record_digests.py

Runs each distinct job of the three workloads once, under every weight
seed of the pool, and writes perfbench/digests.json.  Run it only when
a change to the program is meant to change the artifacts.
"""

import json
import sys
import time

import run  # puts the package's source on the path
from bandwalk.guards import load_guards
from jobs import DIGESTS, WEIGHT_POOL, WORKLOADS, Context, plan
from spans import Recorder


def main():
    ctx = Context(load_guards(), {})
    rec = Recorder(False)
    digests = {}
    for workload in WORKLOADS:
        for seed in range(WEIGHT_POOL):
            for job in plan(workload, seed):
                if job.key in digests:
                    continue
                start = time.perf_counter()
                digests[job.key] = run.run_job(job, rec, ctx)
                print(f"{job.key:45s} {time.perf_counter() - start:7.3f} s",
                      file=sys.stderr)
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(digests.items())), fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
