"""Versioned JSON schemas with bit-exact integers and "p/q" rationals."""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

from .errors import ValidationError
from .polytope import convex_hull
from .semigroup import BoundRule, StaircaseSpec
from .algebra import MonomialAlgebra
from .ideals import BodyFamily, ExplicitFamily, PowersFamily, monomial_ideal

SCHEMA_VERSION = 1


def frac_to_str(x):
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 \
        else str(f.numerator)


def str_to_frac(s):
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"bad rational literal {s!r}") from exc


def _check_version(obj):
    if not isinstance(obj, dict):
        raise ValidationError(
            f"expected a JSON object, got {type(obj).__name__}")
    v = obj.get("schema_version", SCHEMA_VERSION)
    if v != SCHEMA_VERSION:
        raise ValidationError(f"unsupported schema_version {v}")


# What indexing and int()/Fraction() raise on a value of the wrong shape.
_SCHEMA_ERRORS = (AttributeError, KeyError, TypeError, ValueError)


def _schema_error(what, exc):
    return ValidationError(f"bad {what} schema: {type(exc).__name__}: {exc}")


# -- staircase rules ---------------------------------------------------------

def _rule_to_json(rule):
    out = {"kind": rule.kind}
    if rule.forms:
        out["forms"] = [[frac_to_str(c) for c in f] for f in rule.forms]
    if rule.quadratic:
        out["quadratic"] = [list(row) for row in rule.quadratic]
    return out


def _rows(obj, key, cast, s):
    """The rows under ``key`` (none when absent), each of length s."""
    rows = obj.get(key, [])
    if not isinstance(rows, list) or not all(
            isinstance(row, list) and len(row) == s for row in rows):
        raise ValidationError(f"staircase rule {key!r} must be a list of "
                              f"rows of length s = {s}, got {rows!r}")
    return tuple(tuple(cast(x) for x in row) for row in rows)


def _rule_from_json(obj, s):
    """A rule whose forms and matrix rows have length s; ``BoundRule``
    itself checks that the forms are present and the matrix square."""
    return BoundRule(kind=obj.get("kind"),
                     forms=_rows(obj, "forms", str_to_frac, s),
                     quadratic=_rows(obj, "quadratic", int, s))


# -- algebras / semigroups ---------------------------------------------------

def algebra_to_json(algebra):
    sg = algebra.semigroup
    out = {"schema_version": SCHEMA_VERSION, "r": sg.r, "s": sg.s}
    if sg.is_generated:
        out["generators"] = [{"exp": list(v), "deg": list(d)}
                             for v, d in sg.generators]
    else:
        src = sg.source
        if not isinstance(src, StaircaseSpec):
            raise ValidationError("only generator and staircase sources "
                                  "serialize")
        out["staircase"] = {"lower": _rule_to_json(src.lower),
                            "upper": _rule_to_json(src.upper)}
    return out


def algebra_from_json(obj):
    _check_version(obj)
    try:
        s = int(obj["s"])
        if "staircase" in obj:
            stair = obj["staircase"]
            spec = StaircaseSpec(s=s,
                                 lower=_rule_from_json(stair["lower"], s),
                                 upper=_rule_from_json(stair["upper"], s))
        else:
            r = int(obj["r"])
            gens = [(tuple(int(x) for x in g["exp"]),
                     tuple(int(x) for x in g["deg"]))
                    for g in obj["generators"]]
    except _SCHEMA_ERRORS as exc:
        raise _schema_error("algebra", exc) from exc
    if "staircase" in obj:
        return MonomialAlgebra.from_staircase(spec)
    return MonomialAlgebra.from_generators(r, s, gens)


# -- polytopes ---------------------------------------------------------------

def polytope_to_json(poly):
    return {"schema_version": SCHEMA_VERSION,
            "vertices": [[frac_to_str(x) for x in v]
                         for v in poly.vertices]}


def polytope_from_json(obj):
    _check_version(obj)
    try:
        verts = [tuple(str_to_frac(x) for x in v) for v in obj["vertices"]]
    except _SCHEMA_ERRORS as exc:
        raise _schema_error("polytope", exc) from exc
    if not verts:
        raise ValidationError("polytope needs at least one vertex")
    return convex_hull(verts)


# -- ideals and families -----------------------------------------------------

def ideal_to_json(ideal):
    return {"schema_version": SCHEMA_VERSION,
            "ideal": {"vars": ideal.num_vars,
                      "gens": [list(g) for g in ideal.min_gens]}}


def _ideal_fields(body):
    """(vars, gens) of an ideal object; raises one of _SCHEMA_ERRORS."""
    return int(body["vars"]), [tuple(int(x) for x in g) for g in body["gens"]]


def ideal_from_json(obj):
    _check_version(obj)
    try:
        fields = _ideal_fields(obj["ideal"])
    except _SCHEMA_ERRORS as exc:
        raise _schema_error("ideal", exc) from exc
    return monomial_ideal(*fields)


def family_to_json(family):
    out = {"schema_version": SCHEMA_VERSION}
    if isinstance(family, PowersFamily):
        out["family"] = {"powers": ideal_to_json(family.base)["ideal"]}
    elif isinstance(family, BodyFamily):
        out["family"] = {"from_body": {
            "vertices": polytope_to_json(family.body)["vertices"],
            "h": family.h}}
    elif isinstance(family, ExplicitFamily):
        out["family"] = {"explicit": [ideal_to_json(i)["ideal"]
                                      for i in family.ideals]}
    else:
        raise ValidationError(f"unknown family type {type(family).__name__}")
    return out


def family_from_json(obj):
    _check_version(obj)
    try:
        body = obj["family"]
        kind = next((k for k in ("powers", "from_body", "explicit")
                     if k in body), None)
        if kind == "powers":
            ideals = [_ideal_fields(body["powers"])]
        elif kind == "explicit":
            ideals = [_ideal_fields(i) for i in body["explicit"]]
        elif kind == "from_body":
            vertices = body["from_body"]["vertices"]
            h = str_to_frac(body["from_body"]["h"])
    except _SCHEMA_ERRORS as exc:
        raise _schema_error("family", exc) from exc
    if kind == "powers":
        return PowersFamily(monomial_ideal(*ideals[0]))
    if kind == "explicit":
        return ExplicitFamily([monomial_ideal(*f) for f in ideals])
    if kind == "from_body":
        return BodyFamily(polytope_from_json({"vertices": vertices}), h)
    raise ValidationError("family schema needs powers, from_body, or "
                          "explicit")


# -- report writers ----------------------------------------------------------

def _scalar(value):
    if isinstance(value, Fraction):
        return frac_to_str(value)
    if isinstance(value, float):
        return repr(value)
    return value


def render_table(result):
    """Deterministic key: value lines, keys sorted."""
    lines = []
    for key in sorted(result):
        val = result[key]
        if isinstance(val, (list, tuple)):
            val = json.dumps(_jsonable(val))
        else:
            val = _scalar(val)
        lines.append(f"{key}: {val}")
    return "\n".join(lines) + "\n"


def _jsonable(value):
    if isinstance(value, Fraction):
        return frac_to_str(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def render_json(result):
    payload = {"schema_version": SCHEMA_VERSION}
    payload.update({k: _jsonable(v) for k, v in sorted(result.items())})
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def render_csv(result):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if "ladder" in result and isinstance(result["ladder"], (list, tuple)):
        writer.writerow(["p", "value_num", "value_den", "float"])
        for p, v in result["ladder"]:
            f = Fraction(v)
            writer.writerow([p, f.numerator, f.denominator, float(f)])
        return buf.getvalue()
    writer.writerow(["key", "value"])
    for key in sorted(result):
        val = result[key]
        if isinstance(val, (list, tuple, dict)):
            val = json.dumps(_jsonable(val))
        else:
            val = _scalar(val)
        writer.writerow([key, val])
    return buf.getvalue()


RENDERERS = {"table": render_table, "json": render_json, "csv": render_csv}
