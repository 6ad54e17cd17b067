"""Canonical artifact rendering.

Every exact value is rendered as the string "p/q" in lowest terms with
q > 0, never as a float; empirical values (and only those) are floats,
rendered with 12 significant digits.  All tables are built in a fixed
order so that identical inputs produce byte-identical artifacts.
"""

import csv
import io
import json
from fractions import Fraction

from .errors import MalformedInputError


def frac_str(x):
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


def matrix_csv(P):
    """Chamber-key header row, then one row of "p/q" entries per chamber."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(P.chamber_keys)
    for row in P.rows:
        writer.writerow([frac_str(v) for v in row])
    return buf.getvalue()


def matrix_dict(P):
    return {"chambers": list(P.chamber_keys),
            "rows": [[frac_str(v) for v in row] for row in P.rows]}


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


def dump_json(obj):
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


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
