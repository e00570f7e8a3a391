"""Command-line interface.

Exit codes: 0 success, 2 validation error, 3 resource limit,
4 internal-consistency failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction

from .errors import (InternalConsistencyError, OklabError,
                     RegularityNotReachedError, ResourceLimitError,
                     ValidationError, memory_limit_bytes)
from .ideals import mixed_volume_via_ideals, family_mixed_multiplicities
from .presets import PRESETS, preset
from .serialize import (RENDERERS, algebra_from_json, family_from_json,
                        frac_to_str, polytope_from_json, str_to_frac)


def _parse_vector(text, cast):
    try:
        return tuple(cast(part) for part in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"bad vector {text!r}: {exc}") from exc


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc


def _load_algebra(args):
    if args.example:
        return algebra_from_json(preset(args.example))
    if args.input:
        return algebra_from_json(_load_json(args.input))
    raise ValidationError("need --example or --input")


def _require(args, name):
    value = getattr(args, name.replace("-", "_"), None)
    if value is None:
        raise ValidationError(f"command {args.command} needs --{name}")
    return value


def _emit(args, result):
    text = RENDERERS[args.format](result)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValidationError(
                f"cannot write {args.output}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _cmd_hilbert(args):
    algebra = _load_algebra(args)
    x = _parse_vector(_require(args, "x"), int)
    return {"command": "hilbert", "degree": list(x),
            "value": algebra.hilbert_function(x)}


def _cmd_volume_fn(args):
    algebra = _load_algebra(args)
    x = _parse_vector(_require(args, "x"), str_to_frac)
    fv = algebra.volume_fn_fiber(x)
    return {"command": "volume-fn", "x": [frac_to_str(v) for v in x],
            "value": fv.value, "method": fv.method}


def _cmd_no_body(args):
    algebra = _load_algebra(args)
    cone, exact = algebra.global_no_cone(bound=args.bound)
    return {"command": "no-body", "exact": exact,
            "rays": [list(r) for r in cone.rays]}


def _cmd_fiber(args):
    from .polytope import cone_fiber
    algebra = _load_algebra(args)
    x = _parse_vector(_require(args, "x"), str_to_frac)
    cone, exact = algebra.global_no_cone(bound=args.bound)
    fiber = cone_fiber(cone, (algebra.r, algebra.s), x)
    return {"command": "fiber", "x": [frac_to_str(v) for v in x],
            "exact": exact,
            "vertices": [[frac_to_str(c) for c in v]
                         for v in fiber.vertices]}


def _cmd_mixed_mult(args):
    algebra = _load_algebra(args)
    dtype = _parse_vector(_require(args, "type"), int)
    report = algebra.mixed_multiplicities(
        dtype, p_schedule=args.pschedule, decomp_bound=args.bound)
    return {"command": "mixed-mult", "type": list(dtype),
            "value": report.value, "provenance": report.provenance,
            "positive": report.positive, "ladder": list(report.ladder)}


def _cmd_positivity(args):
    algebra = _load_algebra(args)
    dtype = _parse_vector(_require(args, "type"), int)
    positive, certificate = algebra.positivity(dtype)
    return {"command": "positivity", "type": list(dtype),
            "positive": positive,
            "certificate": list(certificate) if certificate else None}


def _cmd_ideal_family(args):
    obj = _load_json(_require(args, "input"))
    try:
        ispec, jspecs = obj["I"], list(obj["J"])
    except (KeyError, TypeError) as exc:
        raise ValidationError("ideal-family input needs an object with a "
                              f"family I and a list J: {exc!r}") from exc
    ifam = family_from_json(ispec)
    jfams = [family_from_json(j) for j in jspecs]
    dtype = _parse_vector(_require(args, "type"), int)
    report = family_mixed_multiplicities(
        ifam, jfams, dtype, p_schedule=args.pschedule)
    return {"command": "ideal-family", "type": list(dtype),
            "value": report.value, "provenance": report.provenance,
            "positive": report.positive, "ladder": list(report.ladder)}


def _cmd_mixed_volume(args):
    obj = _load_json(_require(args, "input"))
    try:
        specs = list(obj["bodies"])
    except (KeyError, TypeError) as exc:
        raise ValidationError("mixed-volume input needs an object with a "
                              f"bodies list: {exc!r}") from exc
    bodies = [polytope_from_json(b) for b in specs]
    dtype = _parse_vector(_require(args, "type"), int)
    out = mixed_volume_via_ideals(bodies, dtype,
                                  p_schedule=args.pschedule)
    agree = abs(out["ideal_side"] - float(out["geometric_side"])) <= \
        0.05 * max(float(out["geometric_side"]), 1.0)
    return {"command": "mixed-volume", "type": list(dtype),
            "geometric": out["geometric_side"],
            "ideal": out["ideal_side"],
            "verdict": "AGREE" if agree else "DISAGREE",
            "geometric_positive": out["geometric_positive"],
            "family_positive": out["family_positive"]}


def _cmd_verify_example(args):
    name = _require(args, "example")
    algebra = algebra_from_json(preset(name))
    if name == "nonpoly":
        x = _parse_vector(args.x or "3,4", int)
        estimate = algebra.volume_fn_count(x, n_max=args.nmax)
        target = 2 * (x[0] + x[1]) - 2 * math.sqrt(x[0] ** 2 + x[1] ** 2)
        ok = abs(estimate - target) <= 0.05
        return {"command": "verify-example", "example": name,
                "x": list(x), "estimate": estimate, "target": target,
                "result": "PASS" if ok else "FAIL"}
    if name in ("min", "concave-pl"):
        x = _parse_vector(args.x or "2,3", str_to_frac)
        fv = algebra.volume_fn_fiber(x)
        if name == "min":
            target = min(x)
        else:
            target = min(2 * x[0] + x[1], x[0] + 2 * x[1])
        ok = fv.value == target
        return {"command": "verify-example", "example": name,
                "x": [frac_to_str(v) for v in x], "value": fv.value,
                "target": target, "result": "PASS" if ok else "FAIL"}
    if name == "segre":
        poly, mixed = algebra.hilbert_polynomial()
        expected = {(0, 0): Fraction(1), (1, 0): Fraction(1),
                    (0, 1): Fraction(1), (1, 1): Fraction(1)}
        ok = poly.coeffs == expected and mixed[(1, 1)] == 1
        return {"command": "verify-example", "example": name,
                "polynomial": sorted(
                    (list(e), frac_to_str(c))
                    for e, c in poly.coeffs.items()),
                "result": "PASS" if ok else "FAIL"}
    if name == "golden":
        ladder = []
        for p in (5, 11, 55):
            ap = algebra.p_subalgebra(p)
            _, mixed = ap.hilbert_polynomial()
            ladder.append((p, Fraction(mixed[(1,)], p)))
        ok = ladder[-1][1] == Fraction(89, 55)
        return {"command": "verify-example", "example": name,
                "ladder": ladder, "sup": ladder[-1][1],
                "result": "PASS" if ok else "FAIL"}
    raise ValidationError(f"no verification defined for preset {name!r}")


COMMANDS = {
    "hilbert": _cmd_hilbert,
    "volume-fn": _cmd_volume_fn,
    "no-body": _cmd_no_body,
    "fiber": _cmd_fiber,
    "mixed-mult": _cmd_mixed_mult,
    "positivity": _cmd_positivity,
    "ideal-family": _cmd_ideal_family,
    "mixed-volume": _cmd_mixed_volume,
    "verify-example": _cmd_verify_example,
}


@functools.cache  # parsing leaves the parser as it was
def build_parser():
    parser = argparse.ArgumentParser(
        prog="oklab",
        description="Exact computations with multigraded monomial "
                    "algebras, Newton-Okounkov bodies, and graded "
                    "families of monomial ideals.")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("example_pos", nargs="?", default=None,
                        help="preset name (verify-example shorthand)")
    parser.add_argument("--input", help="path to a JSON input")
    parser.add_argument("--output", help="write the report here instead "
                                         "of stdout")
    parser.add_argument("--format", choices=sorted(RENDERERS),
                        default="table")
    parser.add_argument("--example", choices=sorted(PRESETS),
                        help="use a built-in preset input")
    parser.add_argument("--x", help="degree vector or evaluation point, "
                                    "comma-separated (rationals allowed)")
    parser.add_argument("--type", dest="type",
                        help="multiplicity type vector, comma-separated")
    parser.add_argument("--nmax", type=int, default=500,
                        help="cap for limit fits (default 500)")
    parser.add_argument("--pschedule", default="1,2,4,8",
                        help="comma-separated p ladder (default 1,2,4,8)")
    parser.add_argument("--bound", type=int, default=8,
                        help="degree bound for the enumerated cone of a "
                             "non-polyhedral staircase (no-body, fiber) "
                             "and for the decomposability check of a "
                             "staircase (mixed-mult); default 8")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.example_pos and not args.example:
            args.example = args.example_pos
        memory_limit_bytes()  # a bad OKLAB_MEMORY_LIMIT_MB exits 2 up front
        args.pschedule = _parse_vector(args.pschedule, int)
        result = COMMANDS[args.command](args)
        _emit(args, result)
        return 0
    except ValidationError as exc:
        print(f"error ({args.command}): {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit ({args.command}): {exc}", file=sys.stderr)
        return 3
    except (InternalConsistencyError, RegularityNotReachedError) as exc:
        print(f"internal consistency failure ({args.command}): {exc}",
              file=sys.stderr)
        return 4
    except OklabError as exc:
        print(f"error ({args.command}): {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
