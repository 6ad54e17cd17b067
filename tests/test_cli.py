"""Exit codes and artifact layout of the command-line front end."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bandwalk import cli, descent
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


def test_ungraded_poset_counts_its_maximal_chains(tmp_path):
    # the pentagon 0 < a < b < 1, 0 < c < 1 is bounded but not graded:
    # its two maximal chains are counted, the flag-vector checks refuse
    pentagon = _spec(tmp_path, {
        "elements": ["0", "a", "b", "c", "1"],
        "covers": [["0", "a"], ["a", "b"], ["b", "1"], ["0", "c"],
                   ["c", "1"]]}, "pentagon.json")
    out = tmp_path / "out"
    assert cli.main(["derangement", "--poset", pentagon,
                     "--out", str(out)]) == 0
    data = json.loads((out / "derangement.json").read_text())
    assert data["maximal_chains"] == 2
    for flag in ("--stanley", "--mahajan"):
        assert cli.main(["derangement", "--poset", pentagon, flag]) == 2


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


def test_descent_idempotents_build_no_complex(tmp_path, monkeypatch):
    # the counts are closed forms, and the E_i live in the group alone
    def refuse(*args, **kwargs):
        raise AssertionError("the complex was built")

    monkeypatch.setattr(descent, "coxeter_complex", refuse)
    out = tmp_path / "out"
    assert cli.main(["descent", "--n", "4", "--idempotents",
                     "--out", str(out)]) == 0
    data = json.loads((out / "descent.json").read_text())
    assert (data["faces"], data["chambers"]) == (75, 24)
    assert cli.main(["descent", "--n", "4"]) == 0
    assert cli.main(["descent", "--n", "8", "--idempotents"]) == 4


def _move_to_front(tmp_path, n):
    return _spec(tmp_path, {
        f"{i}|" + ",".join(str(x) for x in range(1, n + 1) if x != i):
        f"1/{n}" for i in range(1, n + 1)}, f"walk{n}.json")


def test_descent_tabulates_through_the_guards(tmp_path):
    # S_5 has 541 faces: phi needs the face table; beta and the walk,
    # which reads the product rows of the weighted faces, do not
    capped = ["--n", "5", "--guard", "table_cap=100", "--out",
              str(tmp_path / "out")]
    assert cli.main(["descent", *capped, "--phi-check"]) == 4
    assert cli.main(["descent", *capped, "--beta"]) == 0
    assert cli.main(["descent", *capped,
                     "--walk", _move_to_front(tmp_path, 5)]) == 0


def test_descent_walk_runs_past_the_table_cap(tmp_path):
    # S_6 has 4683 faces, more than the default table cap of 2048
    out = tmp_path / "out"
    assert cli.main(["descent", "--n", "6", "--walk",
                     _move_to_front(tmp_path, 6), "--out", str(out)]) == 0
    data = json.loads((out / "descent.json").read_text())
    assert data["faces"] == 4683
    assert data["walk"]["matches_chamber_walk"] is True


@pytest.mark.parametrize("field, value", [
    ("identity", 0.9), ("identity", "0"), ("identity", True),
    ("elements", "ea"), ("elements", [0, 1]),
])
def test_table_spec_fields_are_read_strictly(tmp_path, capsys, field, value):
    # each of these used to build: the identity truncated or cast, the
    # elements split into characters or left as ints no key can name
    spec = {"type": "table", "elements": ["e", "a"], "identity": 0,
            "table": [[0, 1], [1, 1]]}
    spec[field] = value
    assert cli.main(["build", "--spec", _spec(tmp_path, spec)]) == 2
    assert repr(field) in capsys.readouterr().err


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


def test_oversized_grids_and_field_orders_exit_at_once(tmp_path, capsys):
    # a negative grid side is malformed, a grid over posets.LATTICE_CAP
    # and the chains of a 61 x 61 grid are refused before the lattice is
    # checked; a field order is counted by the points it lists
    q = 2 ** 61 - 1
    for payload, code, named in (
            ({"type": "dist_chain", "grid": [-2, -3]}, 2, "sides >= 0"),
            ({"type": "dist_chain", "grid": [64, 64]}, 4, "4225 elements"),
            ({"type": "dist_chain", "grid": [60, 60]}, 4,
             "distributive_chain_lrb has 3646197746809872246698909038840"),
            ({"type": "q_free", "n": 1, "q": 10007}, 4, "10006 points"),
            ("--subspace 1 10007", 4, "10006 points"),
            ({"type": "matroid", "matroid": {
                "kind": "vectors", "q": q,
                "columns": [[1, 0], [0, 1], [1, q - 1]]}}, 0, "")):
        args = ["derangement"] + payload.split() if isinstance(payload, str) \
            else ["build", "--spec", _spec(tmp_path, payload)]
        start = time.perf_counter()
        assert cli.main(args + ["--out", str(tmp_path / "out")]) == code
        assert time.perf_counter() - start < 1
        assert named in capsys.readouterr().err


@pytest.mark.parametrize("payload, named", [
    ({"type": "free_lrb", "n": 3.7}, "'n' must be an integer, got 3.7"),
    ({"type": "q_free", "n": 2, "q": 2.5}, "'q' must be an integer, got 2.5"),
    ({"type": "free_lrb", "n": True}, "'n' must be an integer, got True"),
    ({"type": "dist_chain", "grid": [1, 1.0]}, "'grid' must be an integer"),
    ({"type": "matroid", "matroid": {"kind": "uniform", "k": 2.9, "m": 4}},
     "'k' must be an integer, got 2.9"),
    ({"type": "matroid", "matroid": {"kind": "vectors", "q": 2,
                                     "columns": [[1, 0], [0, 1.5]]}},
     "'columns' must be an integer, got 1.5"),
])
def test_non_integer_spec_sizes_exit_2(tmp_path, capsys, payload, named):
    # truncating them would build a different band and exit 0
    assert cli.main(["build", "--spec", _spec(tmp_path, payload)]) == 2
    assert named in capsys.readouterr().err


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
    # ordered_partitions(3) has 13 faces
    op3 = _spec(tmp_path, {"type": "ordered_partitions", "n": 3})
    assert cli.main(["build", "--spec", op3,
                     "--guard", "elements_cap=12"]) == 4
    assert cli.main(["build", "--spec", op3,
                     "--guard", "elements_cap=13"]) == 0


def test_descent_is_refused_by_its_face_count(capsys):
    # a million letters: the ordered Bell numbers are counted only up
    # to the first past the cap, whatever the flags
    start = time.perf_counter()
    assert cli.main(["descent", "--n", "1000000"]) == 4
    assert time.perf_counter() - start < 0.1
    assert "has more than 545835 elements" in capsys.readouterr().err
    for flags in ([], ["--beta"], ["--phi-check"], ["--idempotents"]):
        assert cli.main(["descent", "--n", "8", *flags]) == 4
        assert "has 545835 elements" in capsys.readouterr().err


def test_bad_guard_name_exits_2(tmp_path):
    spec = _f3(tmp_path)
    # a cap that left Guards is an unknown name, not ignored
    for guard in ("mystery=1", "word_cap=1", "assoc_triples_cap=9",
                  "assoc_samples=1", "free_n_cap=9",
                  "matroid_ground_cap=13", "partitions_n_cap=7"):
        assert cli.main(["build", "--spec", spec, "--guard", guard]) == 2


def test_unknown_guard_variables_exit_2(tmp_path, monkeypatch, capsys):
    spec = _f3(tmp_path)
    for var in ("LRB_GUARD_WORD_CAP", "LRB_GUARD_TABLE_CAPP",
                "LRB_GUARD_PARTITIONS_N_CAP"):
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


def test_flags_are_refused_where_nothing_reads_them(tmp_path, capsys):
    # --verbose is read by stationary and converge, --format by spectrum
    spec = _f3(tmp_path)
    uniform = ["--spec", spec, "--uniform-on", "generators"]
    for argv in (["build", "--spec", spec, "--verbose"],
                 ["converge", *uniform, "--format", "csv"],
                 ["descent", "--n", "3", "--beta", "--verbose"]):
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    out = str(tmp_path / "out")
    assert cli.main(["stationary", *uniform, "--verbose", "--out", out]) == 0
    assert cli.main(["converge", *uniform, "--mmax", "3", "--verbose",
                     "--out", out]) == 0
    assert cli.main(["spectrum", *uniform, "--format", "csv",
                     "--out", out]) == 0


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
