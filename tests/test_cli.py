"""Exit codes and artifact layout of the command-line front end."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bandwalk import cli
from bandwalk.errors import MalformedInputError
from bandwalk.guards import load_guards


def _spec(tmp_path, payload, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _f3(tmp_path):
    return _spec(tmp_path, {"type": "free_lrb", "n": 3})


def test_build_writes_stable_artifacts(tmp_path, capsys):
    spec = _f3(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["build", "--spec", spec, "--out", str(out1)]) == 0
    assert cli.main(["build", "--spec", spec, "--out", str(out2)]) == 0
    for name in ("semigroup.json", "support.json"):
        b1 = (out1 / name).read_bytes()
        b2 = (out2 / name).read_bytes()
        assert b1 == b2
    support = json.loads((out1 / "support.json").read_text())
    assert len(support["flats"]) == 8
    assert len(support["chambers"]) == 6


def test_spectrum_json_and_certificate(tmp_path):
    spec = _f3(tmp_path)
    out = tmp_path / "out"
    code = cli.main(["spectrum", "--spec", spec, "--uniform-on",
                     "generators", "--certify", "--out", str(out)])
    assert code == 0
    rows = json.loads((out / "spectrum.json").read_text())["spectrum"]
    lams = {r["lambda"] for r in rows}
    assert lams == {"1/1", "2/3", "1/3", "0/1"}
    assert sum(r["m"] for r in rows) == 6
    assert (out / "matrix.json").exists()


def test_spectrum_csv_matrix(tmp_path):
    spec = _f3(tmp_path)
    out = tmp_path / "out"
    code = cli.main(["spectrum", "--spec", spec, "--uniform-on",
                     "generators", "--format", "csv", "--out", str(out)])
    assert code == 0
    text = (out / "matrix.csv").read_text()
    header = text.splitlines()[0]
    assert header.count(",") >= 5
    assert "1/3" in text


def test_weights_file_path(tmp_path):
    spec = _f3(tmp_path)
    weights = _spec(tmp_path, {"1": "1/2", "2": "1/4", "3": "1/4"},
                    "w.json")
    assert cli.main(["spectrum", "--spec", spec,
                     "--weights", weights]) == 0


def test_non_probability_weights_exit_2(tmp_path):
    spec = _f3(tmp_path)
    weights = _spec(tmp_path, {"1": "1/2", "2": "1/4"}, "w.json")
    assert cli.main(["spectrum", "--spec", spec,
                     "--weights", weights]) == 2


def test_idempotents_grouped_and_closed_form(tmp_path):
    spec = _spec(tmp_path, {"type": "free_lrb_bar", "n": 3})
    out = tmp_path / "out"
    assert cli.main(["idempotents", "--spec", spec, "--uniform-on",
                     "generators", "--grouped", "--out", str(out)]) == 0
    data = json.loads((out / "idempotents.json").read_text())
    assert data["grouped"]


def test_idempotents_nu_check(tmp_path):
    spec = _f3(tmp_path)
    assert cli.main(["idempotents", "--spec", spec, "--uniform-on",
                     "generators", "--check-nu"]) == 0


def test_simulate_and_stationary(tmp_path):
    spec = _f3(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--spec", spec, "--uniform-on",
                     "generators", "--start", "1,2,3", "--steps", "12",
                     "--seed", "4", "--out", str(out)]) == 0
    traj = json.loads((out / "trajectory.json").read_text())
    assert len(traj["steps"]) == 12
    for method in ("exact", "idempotent"):
        assert cli.main(["stationary", "--spec", spec, "--uniform-on",
                         "generators", "--method", method]) == 0
    assert cli.main(["stationary", "--spec", spec, "--uniform-on",
                     "generators", "--method", "sample", "--samples",
                     "500", "--seed", "2"]) == 0


def test_converge_bound_report(tmp_path):
    spec = _f3(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["converge", "--spec", spec, "--uniform-on",
                     "generators", "--start", "1,2,3", "--mmax", "8",
                     "--out", str(out)]) == 0
    data = json.loads((out / "converge.json").read_text())
    assert data["bound_holds"]
    assert data["rows"][0]["exact_tv"] == "5/6"
    assert data["rows"][2]["exact_tv"] == "1/6"


def test_uniform_on_selectors(tmp_path):
    spec = _spec(tmp_path, {"type": "ordered_partitions", "n": 3})
    assert cli.main(["spectrum", "--spec", spec, "--uniform-on",
                     "type:1"]) == 0
    assert cli.main(["spectrum", "--spec", spec, "--uniform-on",
                     "length:3"]) == 0
    assert cli.main(["spectrum", "--spec", spec, "--uniform-on",
                     "type:9"]) == 2
    assert cli.main(["spectrum", "--spec", spec, "--uniform-on",
                     "sideways"]) == 2


def test_derangement_routes(tmp_path):
    assert cli.main(["derangement", "--boolean", "4"]) == 0
    assert cli.main(["derangement", "--subspace", "2", "3",
                     "--stanley", "--mahajan"]) == 0
    graph = tmp_path / "g.csv"
    graph.write_text("0,1\n1,2\n0,2\n", encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["derangement", "--graph", str(graph),
                     "--out", str(out)]) == 0
    data = json.loads((out / "derangement.json").read_text())
    assert data["d"] == 2
    poset = _spec(tmp_path, {"elements": ["a", "b"],
                             "covers": [["a", "b"]]}, "p.json")
    assert cli.main(["derangement", "--poset", poset]) == 0
    bad = _spec(tmp_path, {"elements": ["a", "b"]}, "bad.json")
    assert cli.main(["derangement", "--poset", bad]) == 2


def test_descent_subcommand(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["descent", "--n", "3", "--beta", "--phi-check",
                     "--idempotents", "--out", str(out)]) == 0
    chambers = ["1|2|3", "1|3|2", "2|1|3", "2|3|1", "3|1|2", "3|2|1"]
    walk = _spec(tmp_path, {c: "1/6" for c in chambers}, "walk.json")
    assert cli.main(["descent", "--n", "3", "--walk", walk]) == 0
    # weights that break type-class invariance have no group measure
    lopsided = _spec(tmp_path, {"1|2|3": "1/3", "2|1|3": "1/3",
                                "3|1|2": "1/3"}, "bad_walk.json")
    assert cli.main(["descent", "--n", "3", "--walk", lopsided]) == 2


def test_malformed_inputs_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json", encoding="utf-8")
    assert cli.main(["build", "--spec", str(bad)]) == 2
    unknown = _spec(tmp_path, {"type": "nope"})
    assert cli.main(["build", "--spec", unknown]) == 2
    assert cli.main(["build", "--spec", str(tmp_path / "ghost.json")]) == 2
    # explicit tables with a short row, and with JSON true for an id
    for table in ([[0, 1], [1]], [[0, True], [True, True]]):
        assert cli.main(["build", "--spec", _spec(tmp_path, {
            "type": "table", "elements": ["e", "a"], "identity": 0,
            "table": table})]) == 2
    # counts that are zero or negative
    walk = ["--spec", _f3(tmp_path), "--uniform-on", "generators"]
    for samples in ("0", "-5"):
        assert cli.main(["stationary", *walk, "--method", "sample",
                         "--samples", samples]) == 2
    assert cli.main(["converge", *walk, "--mmax", "-1"]) == 2
    assert cli.main(["converge", *walk, "--samples", "-5"]) == 2
    assert cli.main(["simulate", *walk, "--start", "1,2,3",
                     "--steps", "-1"]) == 2
    # sizes below one
    for n in (0, -2):
        assert cli.main(["build", "--spec", _spec(
            tmp_path, {"type": "free_lrb", "n": n})]) == 2
    assert cli.main(["descent", "--n", "0"]) == 2
    # selectors whose counts are not integers
    assert cli.main(["spectrum", "--spec", _f3(tmp_path), "--uniform-on",
                     "length:abc"]) == 2
    op3 = _spec(tmp_path, {"type": "ordered_partitions", "n": 3})
    assert cli.main(["spectrum", "--spec", op3, "--uniform-on",
                     "type:1,x"]) == 2
    # chain bands over a cycle of covers and over a bounded order that
    # is not a lattice: bad input, not a falsified band
    for elements, covers in (
            ("abc", ["ab", "bc", "cb"]),
            ("0abcd1", ["0a", "0b", "ac", "ad", "bc", "bd", "c1", "d1"])):
        assert cli.main(["build", "--spec", _spec(tmp_path, {
            "type": "dist_chain", "elements": list(elements),
            "covers": [list(c) for c in covers]})]) == 2


@pytest.mark.parametrize("flag, payload", [
    ("--poset", {"elements": 5, "covers": []}),
    ("--poset", {"elements": ["a", "b"], "covers": 3}),
    ("--graph", {"nodes": [1, 2]}),
    ("--graph", [[1, 2, 3]]),
    ("--graph", 7),
])
def test_malformed_poset_and_graph_json_exit_2(tmp_path, flag, payload):
    assert cli.main(["derangement", flag, _spec(tmp_path, payload)]) == 2


def test_axiom_violation_exits_3(tmp_path):
    spec = _spec(tmp_path, {
        "type": "table", "label": "broken",
        "elements": ["e", "a", "b"], "identity": 0,
        "table": [[0, 1, 2], [1, 1, 2], [2, 2, 1]]})
    assert cli.main(["build", "--spec", spec]) == 3


def test_size_guards_exit_4(tmp_path):
    spec = _spec(tmp_path, {"type": "free_lrb", "n": 9})
    assert cli.main(["build", "--spec", spec]) == 4
    small = _f3(tmp_path)
    assert cli.main(["build", "--spec", small,
                     "--guard", "elements_cap=5"]) == 4
    assert cli.main(["derangement", "--subspace", "7", "2"]) == 4


def test_bad_guard_name_exits_2(tmp_path):
    spec = _f3(tmp_path)
    for guard in ("mystery=1", "word_cap=1"):
        assert cli.main(["build", "--spec", spec, "--guard", guard]) == 2


def test_unknown_guard_variables_exit_2(tmp_path, monkeypatch, capsys):
    spec = _f3(tmp_path)
    for var in ("LRB_GUARD_WORD_CAP", "LRB_GUARD_TABLE_CAPP"):
        monkeypatch.setenv(var, "5")
        assert cli.main(["build", "--spec", spec]) == 2
        err = capsys.readouterr().err
        assert var in err and "table_cap" in err
        monkeypatch.delenv(var)
    with pytest.raises(MalformedInputError):
        load_guards({}, word_cap=5)


def test_bad_guard_values_exit_2(tmp_path, monkeypatch, capsys):
    spec = _f3(tmp_path)
    assert cli.main(["build", "--spec", spec,
                     "--guard", "table_cap=-5"]) == 2
    for raw in ("abc", "-1"):
        monkeypatch.setenv("LRB_GUARD_TABLE_CAP", raw)
        assert cli.main(["build", "--spec", spec]) == 2
        assert "LRB_GUARD_TABLE_CAP" in capsys.readouterr().err


def test_missing_required_flags_exit_2(tmp_path):
    spec = _f3(tmp_path)
    with pytest.raises(SystemExit) as err:
        cli.main(["spectrum", "--spec", spec])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        cli.main(["nonsense"])
    assert err.value.code == 2


def test_selftest_subset(capsys):
    assert cli.main(["selftest", "--only", "8"]) == 0
    out = capsys.readouterr().out
    assert "criterion 8: PASS" in out


def test_module_entry_point_runs_the_cli(tmp_path):
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-m", "bandwalk", "build", "--spec", _f3(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "axioms exhaustive ok" in done.stdout
