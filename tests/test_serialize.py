"""Stable artifact rendering: rational strings, CSV, and JSON."""

import csv
import enum
import io
import json
import math
import tracemalloc
from fractions import Fraction

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
from hypothesis.extra import numpy as hnp

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


class _Size(enum.IntEnum):
    SMALL = 1
    HUGE = 2 ** 70


# text with control characters, quotes, non-ASCII and lone surrogates
_TEXT = hs.text(hs.one_of(
    hs.characters(exclude_categories=()),
    hs.sampled_from(["\x00", "\x1f", "\x7f", '"', "\\", "é", "\u2028",
                     "\ud800", "\udfff"])), max_size=8)
_INTS = hs.one_of(hs.integers(), hs.integers(-2 ** 80, 2 ** 80))
_FLOATS = hs.one_of(hs.floats(), hs.sampled_from(
    [-0.0, float("nan"), float("inf"), -float("inf")]))
_SCALARS = hs.one_of(
    hs.none(), hs.booleans(), _INTS, _FLOATS, _TEXT,
    hs.sampled_from(list(_Size)), _FLOATS.map(numpy.float64))
_KEYS = hs.one_of(_TEXT, _INTS, _FLOATS, hs.booleans(), hs.none(),
                  hs.sampled_from(list(_Size)))


class _Str(str):
    pass


# text that a row template must not read as a format or escape twice:
# %, braces, quotes, backslashes, non-ASCII and lone surrogates
_ROW_TEXT = hs.lists(hs.sampled_from(
    ["%", "%s", "%%", "{", "}", "{0}", '"', "\\", "\n", "é", "\u2028",
     "\ud800", "\udfff", "a"]), max_size=3).map("".join)
# values of other types, one of which an odd row may carry
_ODD_VALUES = hs.sampled_from([1, 1.5, None, True, ["x"], {"a": "b"},
                               _Str("x"), _Str("")])


@hs.composite
def _flat_rows(draw):
    """Lists of flat str-to-str dicts with the same keys, drawn from a
    pool of a few values so that rows repeat, the first row repeated
    once more, then maybe one odd row."""
    keys = draw(hs.lists(_ROW_TEXT, min_size=1, max_size=3, unique=True))
    pool = draw(hs.lists(_ROW_TEXT, min_size=1, max_size=3))
    rows = [dict(zip(keys, draw(hs.lists(hs.sampled_from(pool),
                                         min_size=len(keys),
                                         max_size=len(keys)))))
            for _ in range(draw(hs.integers(1, 6)))]
    rows.append(dict(rows[0]))
    odd = dict(rows[0])
    how = draw(hs.sampled_from(["none", "reorder", "drop", "add", "value",
                                "key"]))
    if how == "reorder":
        odd = dict(reversed(odd.items()))
    elif how == "drop":
        odd.popitem()
    elif how == "add":
        odd[draw(_ROW_TEXT) + "+"] = draw(_ROW_TEXT)
    elif how == "value":
        odd[draw(hs.sampled_from(keys))] = draw(_ODD_VALUES)
    elif how == "key":
        odd = {_Str(k): v for k, v in odd.items()}
    if how != "none":
        rows.insert(draw(hs.integers(1, len(rows))), odd)
    return rows


_INT_DTYPES = [numpy.int8, numpy.int16, numpy.int32, numpy.int64,
               numpy.uint8, numpy.uint16, numpy.uint32, numpy.uint64]


@hs.composite
def _int_arrays(draw):
    """Integer arrays of every dtype, 0 to 3 dimensions with sides of 0
    to 5, holding either ids below the size (the writer's array rows)
    or any value of the dtype (so negatives and values past the size
    take the tolist fallback); then maybe a transpose, a strided or a
    reversed view."""
    dtype = numpy.dtype(draw(hs.sampled_from(_INT_DTYPES)))
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0,
                                  max_side=5))
    size = math.prod(shape)
    if draw(hs.booleans()):
        elements = hs.integers(0, max(0, min(size - 1,
                                             numpy.iinfo(dtype).max)))
    else:
        elements = hnp.from_dtype(dtype)
    arr = draw(hnp.arrays(dtype, shape, elements=elements))
    view = draw(hs.sampled_from(["plain", "transpose", "strided",
                                 "reversed"]))
    if view == "transpose":
        arr = arr.T
    elif view == "strided" and arr.ndim:
        arr = arr[::2]
    elif view == "reversed" and arr.ndim:
        arr = arr[..., ::-1]
    return arr


def _listed(tree):
    """`tree` with every numpy array replaced by its tolist()."""
    if isinstance(tree, numpy.ndarray):
        return tree.tolist()
    if isinstance(tree, list):
        return [_listed(v) for v in tree]
    if isinstance(tree, tuple):
        return tuple(_listed(v) for v in tree)
    if isinstance(tree, dict):
        return {k: _listed(v) for k, v in tree.items()}
    return tree


def _stdlib_text(tree):
    return json.dumps(_listed(tree), indent=2, ensure_ascii=False) + "\n"


_TREES = hs.recursive(
    _SCALARS,
    lambda kids: hs.one_of(
        hs.lists(kids, max_size=5),
        hs.lists(kids, max_size=5).map(tuple),
        hs.dictionaries(_KEYS, kids, max_size=5),
        # one-type lists (the writer's fast paths), str-to-str dicts,
        # and bools among 0s and 1s
        hs.lists(_INTS, max_size=6),
        hs.lists(_TEXT, max_size=6),
        hs.dictionaries(_TEXT, _TEXT, max_size=4),
        hs.lists(hs.sampled_from([0, 1, True, False, 1.0]), max_size=6),
        # lists of flat rows (the memoized rows), as lists and tuples
        _flat_rows(),
        _flat_rows().map(tuple),
        # integer arrays, written as their tolist()
        _int_arrays()),
    max_leaves=40)


@settings(max_examples=500, deadline=None)
@given(_TREES)
def test_dump_json_equals_the_stdlib_indented_encoder(tree):
    assert serialize.dump_json(tree) == _stdlib_text(tree)


_BLOCK = serialize.ARRAY_BLOCK_CELLS


def _first_difference(got, want):
    """None if the texts are equal, else where they part, so that a
    failure on megabytes of text is not diffed in full."""
    if got == want:
        return None
    at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
              min(len(got), len(want)))
    lo = max(0, at - 40)
    return at, got[lo:at + 40], want[lo:at + 40]


@pytest.mark.parametrize("cols", [1, 3, 1000, _BLOCK, _BLOCK + 1])
def test_int_tables_on_both_sides_of_the_block_boundary(cols):
    # a block holds ARRAY_BLOCK_CELLS // cols whole rows, at least one
    step = max(1, _BLOCK // cols)
    rng = numpy.random.default_rng(cols)
    for rows in sorted({1, step - 1, step, step + 1, 2 * step + 1} - {0}):
        t = rng.integers(0, rows * cols, size=(rows, cols), dtype=numpy.int32)
        for arr in (t, t[0] % cols, {"t": [t]}):
            assert _first_difference(serialize.dump_json(arr),
                                     _stdlib_text(arr)) is None


@pytest.fixture(scope="module")
def s5_band():
    sg = constructions.ordered_partitions(5)
    sg.tabulate()
    return sg


def test_a_real_band_is_written_as_its_lists(s5_band):
    data = s5_band.to_json_dict()
    assert isinstance(data["table"], numpy.ndarray)
    assert _first_difference(serialize.dump_json(data),
                             _stdlib_text(data)) is None


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_table_is_not_copied_again_before_the_last_join(s5_band):
    # S_5's 541^2 table is 3.16 MB of text.  The traced peak of
    # dump_json is the row strings plus the joined text, 2.01 times the
    # text; a writer that joins the table into a string first peaks at
    # 2.01 times as well, since its row strings are freed before the
    # last join, so the writer's own pass is bounded too: 1.20 times the
    # text when the rows go straight into its list, 2.01 when they are
    # joined first.  Both bounds leave room for the block of cells.
    obj = {"table": s5_band.tabulate()}
    size = len(serialize.dump_json(obj))
    assert _traced_peak(lambda: serialize.dump_json(obj)) < 2.5 * size
    assert _traced_peak(lambda: serialize._write(obj, "\n", {}, [])) \
        < 1.6 * size


@pytest.mark.parametrize("bad", [
    Fraction(1, 2), numpy.int64(3), {1, 2}, object(), {(1, 2): 3},
    [1, [numpy.int64(1)]], {"a": [Fraction(1)]},
    # refused after a row that fills the row memo
    [{"a": "x"}, {"a": Fraction(1)}], [{"a": "x"}, {"a": numpy.int64(1)}],
    [{"a": "x"}, {"a": "x"}, {"a": object()}],
    # arrays other than integer ones, and numpy scalars, are refused;
    # integer arrays are the one extension, written as their tolist()
    numpy.array([True, False]), numpy.zeros((2, 2), dtype=bool),
    numpy.arange(3.0), numpy.array([1, 2], dtype=object),
    numpy.array(["a"]), numpy.array(3.0), numpy.array([1j]),
    {"a": [numpy.array([0.5])]}, numpy.uint8(1)])
def test_dump_json_refuses_what_the_stdlib_refuses(bad):
    with pytest.raises(TypeError):
        json.dumps(bad, indent=2, ensure_ascii=False)
    with pytest.raises(TypeError):
        serialize.dump_json(bad)


def test_only_rows_of_exact_str_keys_and_values_take_the_row_memo():
    rows = [{"drew": "a", "chamber": "b"}, {"drew": "a", "chamber": "c"}] * 3
    assert list(serialize._flat_rows(rows, "\n  ")) == [
        json.dumps(r, indent=2).replace("\n", "\n  ") for r in rows]
    for odd in ({"chamber": "b", "drew": "a"}, {"drew": "a"},
                {"drew": "a", "chamber": "b", "x": "y"},
                {"drew": "a", "chamber": 1}, {"drew": "a", "chamber": None},
                {"drew": "a", "chamber": _Str("b")},
                {_Str("drew"): "a", "chamber": "b"}):
        assert serialize._flat_rows(rows + [odd], "\n  ") is None
    assert serialize._flat_rows([{}, {}], "\n") is None


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
