"""Canonical artifact rendering.

Every exact value is rendered as the string "p/q" in lowest terms with
q > 0, never as a float; empirical values (and only those) are floats,
rendered with 12 significant digits.  All tables are built in a fixed
order so that identical inputs produce byte-identical artifacts.

Every JSON artifact is written by `dump_json`, whose output equals
`json.dumps(tree, indent=2, ensure_ascii=False)` plus a newline, byte
for byte, where `tree` is the object with every integer numpy array
replaced by its `tolist()`.  The writer is hand-written because the
stdlib runs its C encoder only when `indent` is None: with an indent
every token goes through the pure-Python encoder.  A Cayley table stays
one int32 array until it becomes text: each value's cell text is built
once, and a block of cells at a time is gathered from those texts into
one string per row.  A list of flat str-to-str rows, such as the steps
of a trajectory, is rendered through one template per list with each
distinct row memoized.  This is the one package module that imports
`json`, so no artifact bypasses the writer.
"""

import csv
import io
import json
import math
from fractions import Fraction
from itertools import chain
from operator import itemgetter

import numpy as np

from .errors import MalformedInputError


def frac_str(x):
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def parse_frac(value):
    """Accept ints, "p/q" and "p" strings; reject floats.

    Float literals in exact inputs are refused rather than rounded, so
    that a typo cannot silently change a certificate.
    """
    if isinstance(value, bool):
        raise MalformedInputError(f"{value!r} is not a rational")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise MalformedInputError(
                f"cannot read {value!r} as p/q: {exc}") from exc
    raise MalformedInputError(
        f"exact values must be ints or 'p/q' strings, got {value!r}")


def float_str(x):
    return format(float(x), ".12g")


def value_str(x):
    if isinstance(x, float):
        return float_str(x)
    return frac_str(x)


# ------------------------------------------------------------- matrices


def _matrix_rows(P):
    """Per row of P, its "p/q" entries, rendered from the integer cells;
    every other entry is "0/1"."""
    den = P.den
    for cells in P.cells:
        row = ["0/1"] * P.size
        for j, a in cells:
            g = math.gcd(a, den)
            row[j] = f"{a // g}/{den // g}"
        yield row


def matrix_csv(P):
    """Chamber-key header row, then one row of "p/q" entries per chamber."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(P.chamber_keys)
    writer.writerows(_matrix_rows(P))
    return buf.getvalue()


def matrix_dict(P):
    return {"chambers": P.chamber_keys, "rows": list(_matrix_rows(P))}


# -------------------------------------------------------------- spectra


def spectrum_rows(spec, labels=None):
    out = []
    for r in spec.records:
        label = labels[r.flat] if labels else r.label
        out.append({"flat": label, "lambda": frac_str(r.lam),
                    "c": r.chambers_above, "m": r.multiplicity})
    return out


def certificate_dict(cert):
    return {
        "entries": [{"lambda": frac_str(l), "expected": e, "observed": o}
                    for l, e, o in cert.entries],
        "total_expected": cert.total_expected,
        "total_observed": cert.total_observed,
        "ok": cert.ok,
    }


# ----------------------------------------------------------- idempotents


def _coeff_table(sg, elem):
    pairs = sorted((sg.keys[i], v) for i, v in elem.items() if v)
    return {k: frac_str(v) for k, v in pairs}


def idempotent_rows(structure, fam, labels=None):
    sg = structure.semigroup
    out = []
    for x in fam.flat_ids:
        label = labels[x] if labels else structure.labels[x]
        out.append({"flat": label, "lambda": frac_str(fam.lam[x]),
                    "coefficients": _coeff_table(sg, fam.members[x])})
    return out


def grouped_idempotent_rows(structure, fam):
    sg = structure.semigroup
    return [{"lambda": frac_str(lam),
             "coefficients": _coeff_table(sg, elem)}
            for lam, elem in fam.grouped]


# ---------------------------------------------------------- walk output


def distribution_dict(dist):
    return {"provenance": dist.provenance,
            "chambers": list(dist.chamber_keys),
            "probs": [value_str(p) for p in dist.probs]}


def trajectory_dict(sg, traj):
    return {"start": sg.keys[traj.start], "seed": traj.seed,
            "steps": [{"drew": sg.keys[x], "chamber": sg.keys[c]}
                      for x, c in traj.steps],
            "final": sg.keys[traj.final]}


def convergence_rows(report):
    out = []
    for r in report.rows:
        row = {"m": r.m, "exact_tv": frac_str(r.exact_tv),
               "coatom_bound": frac_str(r.coatom_bound)}
        if r.empirical_tail is not None:
            row["empirical_tail"] = float_str(r.empirical_tail)
        out.append(row)
    return out


# ----------------------------------------------------------------- JSON


_encode_str = json.encoder.encode_basestring


def dump_json(obj):
    """`obj` as JSON text: exactly `json.dumps(tree, indent=2,
    ensure_ascii=False) + "\n"`, byte for byte, where `tree` is `obj`
    with every integer numpy array replaced by its `tolist()`.

    Strings go through the stdlib's own C escaper, and ints, floats,
    NaN and the infinities, bools, None and non-str keys are spelled as
    the stdlib spells them; tuples are written as lists.  Integer
    arrays (int8 to uint64) are the one type the stdlib refuses that is
    written here; bool, float and object arrays, numpy scalars and any
    other type raise TypeError, as `json.dumps` does.  The writer is
    hand-written because the stdlib runs its C encoder only when
    `indent` is None, and its pure-Python one yields one small string
    per token.  Here a list of only ints or only strs is one join, and
    the int texts come from a memo that lives for this call.  A list of
    dicts with the same str keys in the same order and only str values,
    all exact types, is one join too: its rows fill one template built
    from the keys, each distinct tuple of values once (`_flat_rows`).
    A 1-d or 2-d integer array whose values lie in 0..size-1, such as a
    Cayley table, is written row by row from its cells (`_int_rows`).
    Every piece goes into one list, joined once, so a large table is
    not copied again at each level of nesting.
    """
    out = []
    _write(obj, "\n", {}, out)
    out.append("\n")
    return "".join(out)


def _float_text(x):
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _key_text(key):
    """A dict key as the string `json.dumps` quotes for it."""
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _float_text(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError("keys must be str, int, float, bool or None, "
                    f"not {type(key).__name__}")


def _flat_rows(rows, nl):
    """The texts of `rows`, a list of dicts that are items on lines
    starting with `nl`, if they have the same keys in the same order and
    every key and value is exactly a str; else None.

    One template, built once from the keys, takes each row's escaped
    values, and each distinct tuple of values is rendered once: a
    trajectory of 5000 steps holds at most |supp w| |C| of them.  The
    types of every key and value are checked, so a key or value of
    another type that compares equal never reads a memoized text.
    """
    keys = tuple(rows[0])
    if not keys or set(map(tuple, rows)) != {keys} \
            or set(map(type, chain.from_iterable(rows))) != {str}:
        return None
    get = itemgetter(*keys)
    # one key gets a value, not a tuple of one
    values = list(map(get, rows) if len(keys) > 1 else zip(map(get, rows)))
    if set(map(type, chain.from_iterable(values))) != {str}:
        return None
    inner = nl + "  "
    template = "{" + ",".join(inner + _encode_str(k).replace("%", "%%")
                              + ": %s" for k in keys) + nl + "}"
    texts = {v: template % tuple(map(_encode_str, v)) for v in set(values)}
    return map(texts.__getitem__, values)


# the most cells of an integer array gathered into texts at a time
ARRAY_BLOCK_CELLS = 1 << 15


def _int_rows(arr, nl, out):
    """Append the text of the integer array `arr`, a value on a line
    starting with `nl`, to `out`, if it is 1-d or 2-d, not empty, and
    its values lie in 0..arr.size-1; else return False.

    The text of each cell, "," and the line start and the value, is
    built once per value as an object array; the cells of a block of
    about ARRAY_BLOCK_CELLS at a time, whole rows, are gathered from it,
    each row's first cell swapped for the text that closes the row
    before and opens this one, and each row joined into one string.
    A 1-d array is one such row.  The table is never joined into a
    string of its own, so `dump_json`'s one join is its one copy.
    """
    if arr.ndim not in (1, 2) or not arr.size:
        return False
    top = int(arr.max())
    if arr.min() < 0 or top >= arr.size:
        return False
    nested = arr.ndim == 2
    if nested:
        row_nl = nl + "  "
        out.append("[" + row_nl)
    else:
        arr, row_nl = arr[None], nl
    cell_nl = row_nl + "  "
    values = range(top + 1)
    texts = np.array([f",{cell_nl}{v}" for v in values], dtype=object)
    heads = np.array([f"{row_nl}],{row_nl}[{cell_nl}{v}" for v in values],
                     dtype=object)
    step = max(1, ARRAY_BLOCK_CELLS // arr.shape[1])
    for lo in range(0, len(arr), step):
        block = arr[lo:lo + step]
        cells = texts[block]
        cells[:, 0] = heads[block[:, 0]]
        if not lo:
            cells[0, 0] = f"[{cell_nl}{int(block[0, 0])}"
        out.extend(map("".join, cells.tolist()))
    out.append(row_nl + "]")
    if nested:
        out.append(nl + "]")
    return True


def _write(obj, nl, memo, out):
    """Append the text of `obj` to `out`, its inner lines indented past
    `nl`; `memo` maps ints to their text."""
    if isinstance(obj, str):
        out.append(_encode_str(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        out.append(_float_text(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = nl + "  "
        # type() is exact, so bools and int subclasses miss the memo
        types = set(map(type, obj))
        items = None
        if types == {int}:
            for v in set(obj).difference(memo):
                memo[v] = int.__repr__(v)
            items = map(memo.__getitem__, obj)
        elif types == {str}:
            items = map(_encode_str, obj)
        elif types == {dict}:
            items = _flat_rows(obj, inner)
        if items is None:
            sep = "[" + inner
            for v in obj:
                out.append(sep)
                sep = "," + inner
                _write(v, inner, memo, out)
            out.append(nl + "]")
            return
        out.append("[" + inner + ("," + inner).join(items) + nl + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for k, v in obj.items():
            out.append(sep + _encode_str(_key_text(k)) + ": ")
            sep = "," + inner
            _write(v, inner, memo, out)
        out.append(nl + "}")
    elif isinstance(obj, np.ndarray) and obj.dtype.kind in "iu":
        if not _int_rows(obj, nl, out):
            _write(obj.tolist(), nl, memo, out)
    else:
        raise TypeError(
            f"Object of type {type(obj).__name__} is not JSON serializable")


def load_json_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise MalformedInputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MalformedInputError(
            f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


def weight_table(obj):
    """Element-key to rational mapping from a parsed weight file."""
    if not isinstance(obj, dict):
        raise MalformedInputError("weight file must map keys to rationals")
    table = obj.get("weights", obj)
    if not isinstance(table, dict) or not table:
        raise MalformedInputError("weight file must map keys to rationals")
    return {str(k): parse_frac(v) for k, v in table.items()}
