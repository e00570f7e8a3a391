import contextlib
import io
import json
import os
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from oklab.cli import main
from oklab.serialize import (algebra_from_json, algebra_to_json,
                             family_from_json, family_to_json,
                             ideal_from_json, ideal_to_json,
                             polytope_from_json, polytope_to_json)
from oklab.ideals import (PowersFamily, maximal_ideal, monomial_ideal,
                          body_to_family)
from oklab.polytope import convex_hull
from oklab.presets import PRESETS, preset
from oklab.errors import ValidationError

from fractions import Fraction

F = Fraction


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_hilbert_preset(capsys):
    code, out, _ = run(capsys, "hilbert", "--example", "segre", "--x", "2,3")
    assert code == 0
    assert "value: 12" in out


def test_volume_fn_min(capsys):
    code, out, _ = run(capsys, "volume-fn", "--example", "min",
                       "--x", "2,3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "2"
    assert payload["method"] == "fiber"


def test_volume_fn_rational_point(capsys):
    code, out, _ = run(capsys, "volume-fn", "--example", "min",
                       "--x", "3/2,5", "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] == "3/2"


def test_volume_fn_segre_reads_the_lattice_of_the_algebra(capsys):
    # F_A(x) = x1 * x2 for Segre; the lattice and index come from the
    # algebra's group, with nothing enumerated along the ray.
    code, out, _ = run(capsys, "volume-fn", "--example", "segre",
                       "--x", "5,4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "20"
    assert payload["method"] == "fiber"


def test_no_body_min(capsys):
    code, out, _ = run(capsys, "no-body", "--example", "min",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] is True
    assert sorted(map(tuple, payload["rays"])) == [
        (0, 0, 1), (0, 1, 0), (1, 1, 1)]


def test_fiber_json(capsys):
    code, out, _ = run(capsys, "fiber", "--example", "min",
                       "--x", "2,3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    verts = {tuple(v) for v in payload["vertices"]}
    assert verts == {("0",), ("2",)}


def test_mixed_mult_segre(capsys):
    code, out, _ = run(capsys, "mixed-mult", "--example", "segre",
                       "--type", "1,1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "1"
    assert payload["positive"] is True
    assert payload["provenance"] == "exact"


def test_mixed_mult_names_an_undecomposable_generator(tmp_path, capsys):
    # (2|9,1) is not a sum of axis-piece points; no scan of degrees up to
    # the bound reaches (9, 1).
    gens = [([0], [1, 0]), ([0], [0, 1]), ([1], [0, 1]), ([2], [9, 1])]
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps({
        "schema_version": 1, "r": 1, "s": 2,
        "generators": [{"exp": v, "deg": d} for v, d in gens]}))
    code, _, err = run(capsys, "mixed-mult", "--input", str(path),
                       "--type", "0,1")
    assert code == 2
    assert "(9, 1)" in err


def test_positivity_certificate(capsys):
    code, out, _ = run(capsys, "positivity", "--example", "segre",
                       "--type", "2,0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["positive"] is False
    assert payload["certificate"] == [1]


def test_ideal_family_command(tmp_path, capsys):
    m = maximal_ideal(2)
    payload = {"I": family_to_json(PowersFamily(m)),
               "J": [family_to_json(PowersFamily(m))]}
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "ideal-family", "--input", str(path),
                       "--type", "1,0", "--pschedule", "1,2",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] == "1"


@pytest.mark.parametrize("schedule", [[], ["--pschedule", "1,2"]])
def test_body_family_answers_its_certified_rung(tmp_path, capsys, schedule):
    # J is the body family of [2/3, 1] with h = 1, so D = 3: the rungs at
    # p = 1, 2 read 0 and the one at p = 4 reads 1/4, but the limit is
    # rung(3) = 1/3 whatever the schedule.
    payload = {"I": family_to_json(PowersFamily(maximal_ideal(2))),
               "J": [{"family": {"from_body": {
                   "vertices": [["2/3"], ["1"]], "h": 1}}}]}
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "ideal-family", "--input", str(path),
                       "--type", "0,1", "--format", "json", *schedule)
    assert code == 0
    report = json.loads(out)
    assert (report["value"], report["provenance"]) == ("1/3", "exact")
    assert [p for p, _ in report["ladder"]] == \
        ([1, 2] if schedule else [1, 2, 4, 8])


@pytest.mark.parametrize("h", [1.5, "3/2"])
def test_fractional_body_family_level_exits_2(tmp_path, capsys, h):
    body = {"family": {"from_body": {"vertices": [["0"], ["1"]], "h": h}}}
    payload = {"I": family_to_json(PowersFamily(maximal_ideal(2))),
               "J": [body]}
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "ideal-family", "--input", str(path),
                         "--type", "0,1")
    assert (code, out) == (2, "")
    assert "h = 3/2 must be an integer" in err


def test_mixed_volume_command(tmp_path, capsys):
    seg1 = convex_hull([(F(0), F(0)), (F(1), F(0))])
    seg2 = convex_hull([(F(0), F(0)), (F(0), F(1))])
    payload = {"bodies": [polytope_to_json(seg1), polytope_to_json(seg2)]}
    path = tmp_path / "bodies.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "mixed-volume", "--input", str(path),
                       "--type", "1,1", "--pschedule", "1,2")
    assert code == 0
    assert "verdict: AGREE" in out


def test_mixed_volume_body_without_lattice_points_at_p1(tmp_path, capsys):
    # The first segment's J_1 is the zero ideal (x = 1/2 holds no lattice
    # point), so the spread search starts at p = 2.
    payload = {"bodies": [{"vertices": [["1/2", "0"], ["1/2", "1"]]},
                          {"vertices": [["0", "0"], ["1", "0"]]}]}
    path = tmp_path / "bodies.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "mixed-volume", "--input", str(path),
                       "--type", "1,1", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["geometric"] == "1"
    assert report["family_positive"] is True


def test_mixed_volume_family_positivity_at_the_homogeneity_index(
        tmp_path, capsys):
    # T and T/3: J_1 and J_2 of T/3 hold one point each, so the spreads
    # at p = 1 and 2 agree and would read MV(T, T/3) = 1/3 as zero.  The
    # families have homogeneity indices 1 and 3, so the spreads are
    # taken at p = 3.  The ideal side is rung(3) = 1/3 too, though the
    # schedule's rungs 1 and 2 read 0.
    payload = {"bodies": [
        {"vertices": [["0", "0"], ["1", "0"], ["0", "1"]]},
        {"vertices": [["0", "0"], ["1/3", "0"], ["0", "1/3"]]}]}
    path = tmp_path / "bodies.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "mixed-volume", "--input", str(path),
                       "--type", "1,1", "--pschedule", "1,2",
                       "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["geometric"] == "1/3"
    assert report["geometric_positive"] is True
    assert report["family_positive"] is True
    assert report["ideal"] == pytest.approx(1 / 3)
    assert report["verdict"] == "AGREE"


def test_verify_example_positional(capsys):
    code, out, _ = run(capsys, "verify-example", "golden")
    assert code == 0
    assert "result: PASS" in out


def test_verify_example_min(capsys):
    code, out, _ = run(capsys, "verify-example", "--example", "min",
                       "--x", "2,3")
    assert code == 0
    assert "result: PASS" in out


def test_csv_ladder_format(capsys):
    code, out, _ = run(capsys, "mixed-mult", "--example", "segre",
                       "--type", "1,1", "--format", "csv",
                       "--pschedule", "1,2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,value_num,value_den,float"
    assert lines[1].startswith("1,1,1,")


def test_output_file(tmp_path, capsys):
    dest = tmp_path / "report.json"
    code, out, _ = run(capsys, "hilbert", "--example", "segre",
                       "--x", "1,1", "--format", "json",
                       "--output", str(dest))
    assert code == 0 and out == ""
    assert json.loads(dest.read_text())["value"] == 4


def test_deterministic_output(capsys):
    _, out1, _ = run(capsys, "no-body", "--example", "min",
                     "--format", "json")
    _, out2, _ = run(capsys, "no-body", "--example", "min",
                     "--format", "json")
    assert out1 == out2


def test_missing_x_exits_2(capsys):
    code, _, err = run(capsys, "hilbert", "--example", "segre")
    assert code == 2
    assert "needs --x" in err


def test_missing_source_exits_2(capsys):
    code, _, _ = run(capsys, "hilbert", "--x", "1,1")
    assert code == 2


def test_bad_input_path_exits_2(capsys):
    code, _, _ = run(capsys, "hilbert", "--input", "/nonexistent.json",
                     "--x", "1,1")
    assert code == 2


@pytest.mark.parametrize("limit", ["abc", "0", "-5"])
def test_bad_memory_limit_exits_2(monkeypatch, capsys, limit):
    monkeypatch.setenv("OKLAB_MEMORY_LIMIT_MB", limit)
    code, _, err = run(capsys, "hilbert", "--example", "segre",
                       "--x", "1,1")
    assert code == 2
    assert "OKLAB_MEMORY_LIMIT_MB" in err


@pytest.mark.parametrize("payload", [
    {"r": 1, "generators": [{"exp": [1], "deg": [1]}]},
    {"r": "a", "s": 1, "generators": [{"exp": [1], "deg": [1]}]},
    [{"r": 1, "s": 1}],
    {"s": 1, "staircase": {"lower": {"kind": "linear", "forms": [["0"]]}}},
], ids=["missing-s", "bad-r", "top-level-list", "staircase-no-upper"])
def test_malformed_algebra_exits_2(tmp_path, capsys, payload):
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(payload))
    code, _, err = run(capsys, "hilbert", "--input", str(path), "--x", "1")
    assert code == 2
    assert "Traceback" not in err


MIN_UPPER = {"kind": "min", "forms": [["1", "0"], ["0", "1"]]}
ZERO_LOWER = {"kind": "linear", "forms": [["0", "0"]]}


def _staircase(lower, upper):
    return {"s": 2, "staircase": {"lower": lower, "upper": upper}}


MALFORMED_STAIRCASES = {
    "linear-without-forms": _staircase({"kind": "linear"}, MIN_UPPER),
    "max-empty-forms": _staircase(ZERO_LOWER, {"kind": "max", "forms": []}),
    "min-empty-forms": _staircase(ZERO_LOWER, {"kind": "min", "forms": []}),
    "quadratic-larger-than-s": _staircase(
        {"kind": "ceil_sqrt_quadratic",
         "quadratic": [[4, 0, 0], [0, 4, 0], [0, 0, 4]]}, MIN_UPPER),
    "quadratic-ragged": _staircase(
        {"kind": "ceil_sqrt_quadratic", "quadratic": [[4, 0], [0]]},
        MIN_UPPER),
    "quadratic-not-square": _staircase(
        {"kind": "ceil_sqrt_quadratic", "quadratic": [[4, 0]]}, MIN_UPPER),
    "form-longer-than-s": _staircase(
        {"kind": "linear", "forms": [["0", "0", "1"]]}, MIN_UPPER),
    "forms-not-a-list": _staircase({"kind": "linear", "forms": "00"},
                                   MIN_UPPER),
}


@pytest.mark.parametrize("command", ["hilbert", "volume-fn"])
@pytest.mark.parametrize("name", sorted(MALFORMED_STAIRCASES))
def test_malformed_staircase_rule_exits_2(tmp_path, capsys, command, name):
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(MALFORMED_STAIRCASES[name]))
    code, _, err = run(capsys, command, "--input", str(path), "--x", "1,1")
    assert code == 2
    assert err.startswith(f"error ({command}): ")
    assert "Traceback" not in err


UNCERTIFIED_STAIRCASES = {
    # Pieces {0, 1} at (20, 0), (0, 20) and (20, 20): 1 + 1 is missing,
    # though every pair with |m|, |n| <= 8 adds up.
    "upper-max-not-dominated": (_staircase(ZERO_LOWER, {
        "kind": "max", "forms": [["1/20", "0"], ["0", "1/20"]]}),
        "no form of the upper max rule dominates"),
    "lower-q-not-psd": (_staircase({
        "kind": "ceil_sqrt_quadratic", "quadratic": [[1, -4], [0, 1]]},
        MIN_UPPER), "not positive semidefinite"),
    "upper-ceil-sqrt": (_staircase(ZERO_LOWER, {
        "kind": "ceil_sqrt_quadratic", "quadratic": [[4, 0], [0, 4]]}),
        "upper ceil_sqrt_quadratic"),
    # sqrt(Q(n)) = |n1 - 2 n2|, the upper max of (1, -2) and (-1, 2); the
    # message names the rule as written as well.
    "upper-ceil-sqrt-mixed-sign": (_staircase(ZERO_LOWER, {
        "kind": "ceil_sqrt_quadratic", "quadratic": [[1, -2], [-2, 4]]}),
        "upper max rule dominates the others coordinatewise (the upper "
        "rule as written: ceil_sqrt_quadratic [1, -2; -2, 4])"),
}


@pytest.mark.parametrize("name", sorted(UNCERTIFIED_STAIRCASES))
def test_uncertified_staircase_exits_2(tmp_path, capsys, name):
    payload, reason = UNCERTIFIED_STAIRCASES[name]
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "volume-fn", "--input", str(path),
                         "--x", "1,1")
    assert (code, out) == (2, "")
    assert "closure cannot be certified" in err and reason in err


# Rules in disguise, each linear on N^2 in normal form, and the item-11
# staircase they stand for: (spec, point, exact F_A there).
LOWER_MIN = _staircase({"kind": "min", "forms": [["0", "0"], ["1", "1"]]},
                       {"kind": "linear", "forms": [["1", "1"]]})
ITEM_11_UPPER = {"kind": "linear", "forms": [["21/20", "1/20"]]}
ITEM_11 = _staircase({"kind": "linear", "forms": [["1", "0"]]}, ITEM_11_UPPER)
RANK_ONE_LOWER = _staircase({"kind": "ceil_sqrt_quadratic",
                             "quadratic": [[1, 0], [0, 0]]}, ITEM_11_UPPER)
RANK_ONE_UPPER = _staircase(ZERO_LOWER, {"kind": "ceil_sqrt_quadratic",
                                         "quadratic": [[1, 2], [2, 4]]})


@pytest.mark.parametrize("payload, value", [
    (LOWER_MIN, "2"), (RANK_ONE_LOWER, "1/10"), (RANK_ONE_UPPER, "3"),
], ids=["lower-min", "rank-one-lower", "rank-one-upper"])
def test_rules_in_disguise_answer_by_fiber(tmp_path, capsys, payload, value):
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "volume-fn", "--input", str(path),
                       "--x", "1,1", "--format", "json")
    assert code == 0
    assert (json.loads(out)["value"], json.loads(out)["method"]) == \
        (value, "fiber")


def test_lower_min_in_disguise_has_the_exact_cone(tmp_path, capsys):
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(LOWER_MIN))
    code, out, _ = run(capsys, "no-body", "--input", str(path),
                       "--format", "json")
    payload = json.loads(out)
    assert code == 0 and payload["exact"] is True
    assert {tuple(r) for r in payload["rays"]} == {
        (1, 0, 1), (0, 0, 1), (1, 1, 0), (0, 1, 0)}


@pytest.mark.parametrize("payload", [ITEM_11, RANK_ONE_LOWER],
                         ids=["linear", "rank-one-quadratic"])
def test_exact_ladder_against_positivity_exits_4(tmp_path, capsys, payload):
    # The ladder reads 0, 0, 0, 0, though F_A = (x1 + x2)/20 and the
    # criterion says e(1, 0) > 0: the grading is not decomposable from
    # (10, 10) on, past the default --bound 8.
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "mixed-mult", "--input", str(path),
                         "--type", "1,0")
    assert (code, out) == (4, "")
    assert "type (1, 0): exact value 0 > 0 is False, but the positivity " \
        "criterion says True" in err


@pytest.mark.parametrize("name, x", [
    ("min", "-1,1"), ("segre", "-1,2"), ("concave-pl", "-1,3"),
    ("golden", "-2"), ("nonpoly", "-1,2"),
])
def test_volume_fn_outside_the_orthant_exits_2(capsys, name, x):
    code, out, err = run(capsys, "volume-fn", "--example", name, f"--x={x}")
    assert (code, out) == (2, "")
    assert "negative coordinate" in err


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_every_preset_is_accepted(capsys, name):
    code, out, _ = run(capsys, "hilbert", "--example", name, "--x",
                       ",".join(["1"] * PRESETS[name]["s"]))
    assert code == 0 and "value:" in out


def test_bound_help_names_what_it_reaches(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "1000")  # no line breaks at hyphens
    with pytest.raises(SystemExit):
        main(["--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "closure/decomposability" not in text
    assert ("--bound BOUND degree bound for the enumerated cone of a "
            "non-polyhedral staircase (no-body, fiber) and for the "
            "decomposability check of a staircase (mixed-mult); default 8")\
        in text
    assert "closure" not in text


POWERS_BAD_VARS = {"family": {"powers": {"vars": "a", "gens": [[1]]}}}


@pytest.mark.parametrize("command, payload", [
    ("ideal-family", {"I": POWERS_BAD_VARS, "J": [POWERS_BAD_VARS]}),
    ("ideal-family", [POWERS_BAD_VARS]),
    ("ideal-family", {"I": POWERS_BAD_VARS, "J": 5}),
    ("ideal-family", {"I": {"family": {"from_body": [1]}}, "J": []}),
    ("mixed-volume", [{"vertices": [[0], [1]]}]),
    ("mixed-volume", {"bodies": 5}),
    ("mixed-volume", {"bodies": [{"vertices": [[[0]]]}]}),
], ids=["powers-bad-vars", "family-top-level-list", "J-not-a-list",
        "from-body-list", "bodies-top-level-list", "bodies-int",
        "vertex-list-entry"])
def test_malformed_family_and_bodies_exit_2(tmp_path, capsys, command,
                                            payload):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    code, _, err = run(capsys, command, "--input", str(path),
                       "--type", "1")
    assert code == 2
    assert "Traceback" not in err


def test_schema_readers_are_total():
    for reader, payload in [(ideal_from_json, {"ideal": {"vars": "a"}}),
                            (ideal_from_json, {"ideal": []}),
                            (family_from_json, {"family": 5}),
                            (polytope_from_json, {"vertices": None})]:
        with pytest.raises(ValidationError):
            reader(payload)


def test_counting_guard_exits_3(monkeypatch, capsys):
    monkeypatch.setenv("OKLAB_MEMORY_LIMIT_MB", "1")
    code, _, err = run(capsys, "hilbert", "--example", "segre",
                       "--x", "300,300")
    assert code == 3
    assert "memory guard" in err


def test_single_rung_mixed_mult_exits_2(capsys):
    code, _, err = run(capsys, "mixed-mult", "--example", "segre",
                       "--type", "1,1", "--pschedule", "3")
    assert code == 2
    assert "two rungs" in err


def test_single_rung_ideal_family_exits_2(tmp_path, capsys):
    m = maximal_ideal(2)
    payload = {"I": family_to_json(PowersFamily(m)),
               "J": [family_to_json(PowersFamily(m))]}
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(payload))
    code, _, err = run(capsys, "ideal-family", "--input", str(path),
                       "--type", "1,0", "--pschedule", "3")
    assert code == 2
    assert "two rungs" in err


SEGMENTS = {"bodies": [{"vertices": [[0, 0], [1, 0]]},
                       {"vertices": [[0, 0], [0, 1]]}]}
MIXED_RINGS = {"I": {"family": {"powers": {"vars": 2,
                                            "gens": [[1, 0], [0, 1]]}}},
               "J": [{"family": {"powers": {"vars": 1, "gens": [[1]]}}}]}


@pytest.mark.parametrize("argv, payload", [
    (["positivity", "--example", "segre", "--type", "1"], None),
    (["positivity", "--example", "segre", "--type", "1,0,0"], None),
    (["mixed-mult", "--example", "segre", "--type", "1,1,0"], None),
    (["mixed-mult", "--example", "segre", "--type=-1,3"], None),
    (["mixed-mult", "--example", "segre", "--type", "1,1",
      "--pschedule", "0,1"], None),
    (["mixed-volume", "--type", "1,1,0"], SEGMENTS),
    (["mixed-volume", "--type", "2"], SEGMENTS),
    (["ideal-family", "--type", "0,1"], MIXED_RINGS),
], ids=["positivity-short", "positivity-long", "mixed-mult-long",
        "mixed-mult-negative", "rung-zero", "mixed-volume-long",
        "mixed-volume-short", "ideal-family-rings"])
def test_malformed_type_exits_2(tmp_path, capsys, argv, payload):
    if payload is not None:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        argv = argv + ["--input", str(path)]
    code, out, err = run(capsys, *argv)
    assert code == 2, out
    assert "Traceback" not in err


def test_unknown_preset_listed():
    with pytest.raises(ValidationError) as info:
        preset("nope")
    assert "segre" in str(info.value)


def test_algebra_roundtrip():
    for name in ("segre", "min", "nonpoly", "golden"):
        obj = preset(name)
        algebra = algebra_from_json(obj)
        again = algebra_from_json(algebra_to_json(algebra))
        assert algebra_to_json(again) == algebra_to_json(algebra)


def test_polytope_roundtrip():
    tri = convex_hull([(F(0), F(0)), (F(1), F(0)), (F(0), F(1, 2))])
    obj = polytope_to_json(tri)
    assert set(polytope_from_json(obj).vertices) == set(tri.vertices)


def test_ideal_and_family_roundtrip():
    m = maximal_ideal(2)
    assert ideal_from_json(ideal_to_json(m)).min_gens == m.min_gens
    seg = convex_hull([(F(0), F(0)), (F(1), F(0))])
    fam = body_to_family(seg, 1)
    fam2 = family_from_json(family_to_json(fam))
    assert fam2.ideal(2).min_gens == fam.ideal(2).min_gens


@pytest.mark.parametrize("gens", [[(1, 0)], [(1, 0, 0), (0, 1, 0)]],
                         ids=["x-in-2-vars", "x-y-in-3-vars"])
def test_non_m_primary_ideal_family_exits_2(tmp_path, capsys, gens):
    # No power of the last variable lies in I, so every colength is
    # infinite; this is rejected before any grid is built.
    d = len(gens[0])
    payload = {"I": family_to_json(PowersFamily(monomial_ideal(d, gens))),
               "J": [family_to_json(PowersFamily(maximal_ideal(d)))]}
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(payload))
    code, _, err = run(capsys, "ideal-family", "--input", str(path),
                       "--type", f"1,{d - 2}", "--pschedule", "1,2")
    assert code == 2
    assert "not m-primary" in err


# -- exit-code contract under random input ------------------------------------

_N = st.integers(0, 2)
_RAT = st.sampled_from(["0", "1", "2", "1/2", "3/2", "-1"])


def _points(cell, length, min_size=0):
    return st.lists(st.lists(cell, min_size=length, max_size=length),
                    min_size=min_size, max_size=3)


@st.composite
def _algebra(draw):
    s = draw(st.integers(1, 2))
    if draw(st.booleans()):
        rule = st.fixed_dictionaries(
            {"kind": st.sampled_from(["linear", "max", "min",
                                      "ceil_sqrt_quadratic"])},
            optional={"forms": _points(_RAT, s, 1),
                      "quadratic": _points(_N, s, s)})
        return {"s": s, "staircase": {"lower": draw(rule),
                                      "upper": draw(rule)}}
    r = draw(st.integers(0, 2))
    gens = st.fixed_dictionaries({"exp": st.lists(_N, min_size=r,
                                                  max_size=r),
                                  "deg": st.lists(_N, min_size=s,
                                                  max_size=s)})
    return {"r": r, "s": s,
            "generators": draw(st.lists(gens, min_size=1, max_size=4))}


def _family(d):
    ideal = st.fixed_dictionaries({"vars": st.just(d),
                                   "gens": _points(_N, d, 1)})
    unit = {"vars": d, "gens": [[0] * d]}
    body = st.fixed_dictionaries({
        "vertices": _points(st.sampled_from(["0", "1", "1/2"]), d - 1, 1),
        "h": st.integers(0, 3)})
    return st.fixed_dictionaries({"family": st.one_of(
        st.fixed_dictionaries({"powers": ideal}),
        st.fixed_dictionaries({"explicit": st.lists(ideal, max_size=3).map(
            lambda rest: [unit] + rest)}),
        st.fixed_dictionaries({"from_body": body}))})


@st.composite
def _families(draw):
    """I and J families in one ring of 2 or 3 variables."""
    d = draw(st.integers(2, 3))
    return {"I": draw(_family(d)),
            "J": draw(st.lists(_family(d), min_size=1, max_size=2))}


_BODY = st.fixed_dictionaries(
    {"vertices": _points(st.sampled_from(["0", "1", "2", "1/2"]), 2, 1)})
_JSON = st.recursive(st.none() | st.booleans() | _N | _RAT,
                     lambda inner: st.lists(inner, max_size=3) |
                     st.dictionaries(st.sampled_from(["s", "r", "I", "J"]),
                                     inner, max_size=3), max_leaves=6)
_VECTOR = st.one_of(
    st.lists(st.sampled_from(["0", "1", "2", "1/2"]), min_size=1,
             max_size=3).map(",".join),
    st.sampled_from(["-1,1", "1,a", "1/0", ""]))

# Per command: the input it reads, or None for the presets.
_FUZZ_INPUTS = {
    "hilbert": _algebra(), "volume-fn": _algebra(), "no-body": _algebra(),
    "fiber": _algebra(), "mixed-mult": _algebra(),
    "positivity": _algebra(),
    "ideal-family": _families(),
    "mixed-volume": st.fixed_dictionaries(
        {"bodies": st.lists(_BODY, min_size=1, max_size=2)}),
    "verify-example": None,
}


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.json"


@pytest.mark.parametrize("command", sorted(_FUZZ_INPUTS))
@settings(max_examples=40, derandomize=True)
@given(data=st.data())
def test_random_input_keeps_exit_contract(fuzz_path, command, data):
    """Any input exits 0, 2, 3 or 4, under a small memory guard."""
    argv = [command]
    strategy = _FUZZ_INPUTS[command]
    if strategy is None or not data.draw(st.integers(0, 3)):
        argv.append("--example=" + data.draw(st.sampled_from(
            sorted(PRESETS))))
    if strategy is not None:
        payload = data.draw(strategy if data.draw(st.integers(0, 3))
                            else _JSON)
        fuzz_path.write_text(json.dumps(payload))
        argv.append(f"--input={fuzz_path}")
    argv += [f"--x={data.draw(_VECTOR)}", f"--type={data.draw(_VECTOR)}"]
    if data.draw(st.booleans()):
        argv.append("--pschedule=" + data.draw(st.sampled_from(
            ["1,2", "1,2,4", "2,4", "1", "0,1", "1,a"])))
    for flag in ("--bound", "--nmax"):
        if data.draw(st.booleans()):
            argv.append(f"{flag}={data.draw(st.integers(-1, 4))}")
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"OKLAB_MEMORY_LIMIT_MB": "16"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
