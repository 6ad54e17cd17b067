"""Stable artifact rendering: rational strings, CSV, and JSON."""

import csv
import io
from fractions import Fraction

import pytest

from bandwalk import constructions, core, selftest, serialize, spectral, walks
from bandwalk.errors import MalformedInputError


F = Fraction


def test_fraction_strings_always_carry_a_denominator():
    assert serialize.frac_str(F(1, 3)) == "1/3"
    assert serialize.frac_str(F(2)) == "2/1"
    assert serialize.frac_str(0) == "0/1"
    assert serialize.frac_str(F(-5, 6)) == "-5/6"


def test_parse_frac_accepts_rationals_only():
    assert serialize.parse_frac("1/3") == F(1, 3)
    assert serialize.parse_frac("7") == F(7)
    assert serialize.parse_frac(4) == F(4)
    assert serialize.parse_frac(F(2, 9)) == F(2, 9)
    for bad in (0.5, True, "1/0", "a/b", None, [1]):
        with pytest.raises(MalformedInputError):
            serialize.parse_frac(bad)


def test_round_trip_through_strings():
    for f in (F(0), F(22, 7), F(-3, 11), F(10 ** 12, 17)):
        assert serialize.parse_frac(serialize.frac_str(f)) == f


def test_float_strings_use_twelve_significant_digits():
    assert serialize.float_str(0.1234567890123456) == "0.123456789012"
    assert serialize.float_str(1.0) == "1"
    assert serialize.float_str(0.25) == "0.25"


def test_matrix_csv_quotes_comma_keys_and_is_stable():
    sg = constructions.free_lrb(2)
    st = core.derive_support(sg)
    P = spectral.transition_matrix(st, spectral.uniform_on_generators(sg))
    text = serialize.matrix_csv(P)
    assert text == '"1,2","2,1"\n1/2,1/2\n1/2,1/2\n'
    assert serialize.matrix_csv(P) == text


def _signed(sg, coeffs):
    return spectral.WeightVector(sg, coeffs, require_probability=False)


def test_matrix_render_matches_the_dense_fractions():
    pairs = [(st, w) for _, sg, st, _ in selftest.corpus()
             for _, w in selftest.walk_weights(sg)]
    # criterion 2's signed walk, whose diagonal cells cancel to zero
    sg = constructions.distributive_chain_lrb(
        constructions.DistributiveLattice.grid(2, 2))
    alpha = F(3, 7)
    coeffs = {x: v / (1 - alpha)
              for x, v in spectral.uniform_on_generators(sg).items()}
    coeffs[sg.identity] = -alpha / (1 - alpha)
    pairs.append((core.derive_support(sg), _signed(sg, coeffs)))
    # and a walk with a negative weight, so negative cells
    sg = constructions.free_lrb(3)
    a, b, c = sg.generators
    pairs.append((core.derive_support(sg),
                  _signed(sg, {a: F(1), b: F(1), c: F(-1)})))
    values = set()
    for st, w in pairs:
        P = spectral.transition_matrix(st, w)
        rows = [[serialize.frac_str(v) for v in row] for row in P.rows]
        values.update(v for row in P.rows for v in row)
        assert serialize.matrix_dict(P) == {"chambers": P.chamber_keys,
                                            "rows": rows}
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(
            [P.chamber_keys] + rows)
        assert serialize.matrix_csv(P) == buf.getvalue()
    assert 0 in values and min(values) < 0


def test_dump_json_is_byte_stable_and_ordered():
    one = serialize.dump_json({"z": "1/2", "a": 2})
    two = serialize.dump_json({"z": "1/2", "a": 2})
    assert one == two
    assert one.endswith("\n")
    # insertion order is preserved, not sorted
    assert one.index('"z"') < one.index('"a"')


def test_spectrum_rows_render_rationals_as_strings():
    sg = constructions.free_lrb(3)
    st = core.derive_support(sg)
    spec = spectral.spectrum(st, spectral.uniform_on_generators(sg))
    rows = serialize.spectrum_rows(spec)
    assert all(set(r) == {"flat", "lambda", "c", "m"} for r in rows)
    lams = {r["lambda"] for r in rows}
    assert lams == {"1/1", "2/3", "1/3", "0/1"}
    assert all(isinstance(r["c"], int) and isinstance(r["m"], int)
               for r in rows)


def test_distribution_and_trajectory_dicts():
    sg = constructions.free_lrb(2)
    st = core.derive_support(sg)
    w = spectral.uniform_on_generators(sg)
    P = spectral.transition_matrix(st, w)
    pi = walks.stationary_exact(P)
    d = serialize.distribution_dict(pi)
    assert d["chambers"] == ["1,2", "2,1"]
    assert d["probs"] == ["1/2", "1/2"]
    assert d["provenance"] == "stationary-exact"
    traj = walks.simulate(st, w, st.chambers[0], 3, seed=5)
    td = serialize.trajectory_dict(sg, traj)
    assert td["seed"] == 5
    assert len(td["steps"]) == 3
    assert td["final"] == td["steps"][-1]["chamber"]


def test_convergence_rows_mix_exact_and_float_fields():
    sg = constructions.free_lrb(2)
    st = core.derive_support(sg)
    w = spectral.uniform_on_generators(sg)
    rep = walks.convergence_report(st, w, st.chambers[0], 3,
                                   samples=100, seed=1)
    rows = serialize.convergence_rows(rep)
    for row in rows:
        assert "/" in row["exact_tv"]
        assert "/" in row["coatom_bound"]
        float(row["empirical_tail"])


def test_weight_table_accepts_both_shapes():
    flat = {"a": "1/2", "b": "1/2"}
    parsed = {"a": Fraction(1, 2), "b": Fraction(1, 2)}
    assert serialize.weight_table(flat) == parsed
    assert serialize.weight_table({"weights": flat}) == parsed
    with pytest.raises(MalformedInputError):
        serialize.weight_table([1, 2])


def test_load_json_file_reports_location(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\n  broken\n", encoding="utf-8")
    with pytest.raises(MalformedInputError) as err:
        serialize.load_json_file(str(bad))
    assert "bad.json" in str(err.value)
    with pytest.raises(MalformedInputError):
        serialize.load_json_file(str(tmp_path / "missing.json"))
