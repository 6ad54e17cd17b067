"""Self-check of the benchmark:  python3 -m pytest perfbench

Runs every workload at reduced size through the command line, checks
the printed metric names and units against BENCHMARK.json, and shows
that corrupted outputs are counted as failed jobs.
"""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts the package's source on the path)
import jobs  # noqa: E402
from spans import Recorder  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEED = 3


def _cli(tmp_path, workload, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace),
         "--size", "small"],
        cwd=tmp_path, capture_output=True, text=True, timeout=600)
    return out.returncode, json.loads(out.stdout.splitlines()[-1]), out


def _small_pass(workload, digests):
    ctx = jobs.Context(run.load_guards(), {})
    return run.run_pass(jobs.plan(workload, SEED, small=True),
                        Recorder(False), ctx, digests)


def test_benchmark_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(jobs.WORKLOADS)
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == \
        [name for name, _ in run.END_TO_END]


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_reduced_run_prints_every_metric_with_its_unit(
        tmp_path, workload, trace, section):
    code, result, out = _cli(tmp_path, workload, trace)
    assert code == 0, out.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())
    provenance = json.loads(out.stdout.splitlines()[-2])["provenance"]
    assert provenance["seed"] == SEED and provenance["assoc_mode"]


def test_corrupted_digest_is_counted_as_failed(tmp_path, monkeypatch):
    digests = dict(jobs.load_digests())
    digests["smoke"] = "0" * 64
    monkeypatch.setattr(jobs, "load_digests", lambda: digests)
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "build", "--seed", str(SEED),
                     "--seconds", "0", "--size", "small"]) == 1


def test_perturbed_stationary_law_is_counted_as_failed(monkeypatch):
    real = jobs.walks.stationary_exact

    def perturbed(P):
        dist = real(P)
        dist.probs[0] += Fraction(1, 10 ** 9)
        dist.probs[-1] -= Fraction(1, 10 ** 9)
        return dist

    monkeypatch.setattr(jobs.walks, "stationary_exact", perturbed)
    failures = _small_pass("certify", jobs.load_digests())
    uses_pi = {j.key for j in jobs.plan("certify", SEED, small=True)
               if "descent_walk" not in j.key}
    assert {f.split(": ")[0] for f in failures} == uses_pi
    assert any("top idempotent and kernel solve disagree" in f
               for f in failures)


def test_shifted_sampler_is_counted_as_failed(monkeypatch):
    real = jobs.walks.sample_stationary

    def shifted(*args, **kwargs):
        dist, times = real(*args, **kwargs)
        dist.probs[0] += 0.25
        dist.probs[-1] -= 0.25
        return dist, times

    monkeypatch.setattr(jobs.walks, "sample_stationary", shifted)
    failures = _small_pass("converge", jobs.load_digests())
    assert failures and all("sampled stationary CDF" in f for f in failures)

