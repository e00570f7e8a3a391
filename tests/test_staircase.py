"""Compiled staircase rules against the Fraction reference.

``staircase_reference`` keeps the rules as they were evaluated before
they were compiled to integers and put in normal form.  Each property
draws random rules of all four kinds: Fraction forms (sometimes of the
wrong length, which both read as zip does) and integer quadratic forms,
positive semidefinite or not.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import staircase_reference as ref
from oklab.algebra import MonomialAlgebra
from oklab.errors import ValidationError
from oklab.presets import preset
from oklab.serialize import algebra_from_json
from oklab.semigroup import BoundRule, GradedSemigroup, StaircaseSpec, \
    _positive_semidefinite, closure_doubt

F = Fraction
KINDS = ("linear", "max", "min", "ceil_sqrt_quadratic")


@st.composite
def rules(draw, s, kinds=KINDS, psd=None, coeff=3):
    kind = draw(st.sampled_from(kinds))
    if kind == "ceil_sqrt_quadratic":
        entries = st.integers(-coeff, coeff)
        if psd is None:
            psd = draw(st.booleans())
        if psd:
            a = [[draw(entries) for _ in range(s)] for _ in range(s)]
            rows = [[sum(a[k][i] * a[k][j] for k in range(s))
                     for j in range(s)] for i in range(s)]
        else:
            rows = [[draw(entries) for _ in range(s)] for _ in range(s)]
        return BoundRule(kind, quadratic=tuple(map(tuple, rows)))
    length = draw(st.sampled_from([s, s, s, s + 1, max(s - 1, 0)]))
    fracs = st.fractions(-coeff, coeff, max_denominator=6)
    count = 1 if kind == "linear" else draw(st.integers(1, 3))
    return BoundRule(kind, tuple(
        tuple(draw(fracs) for _ in range(length)) for _ in range(count)))


@st.composite
def specs(draw, max_s=3, lower=KINDS, upper=KINDS, psd=None, coeff=3):
    s = draw(st.integers(1, max_s))
    return StaircaseSpec(s, draw(rules(s, lower, psd, coeff)),
                         draw(rules(s, upper, psd, coeff)))


def outcome(fn, *args):
    """fn(*args), or the message of the ValidationError it raises."""
    try:
        return fn(*args)
    except ValidationError as exc:
        return ("raised", str(exc))


@settings(max_examples=300)
@given(specs(), st.data())
def test_compiled_value_matches_reference(spec, data):
    n = data.draw(st.tuples(*[st.integers(0, 20)] * spec.s))
    for rule, side in ((spec.lower, "lower"), (spec.upper, "upper")):
        assert outcome(rule.value, n, side) == \
            outcome(ref.value, rule, n, side)


@settings(max_examples=300)
@given(specs(), st.data())
def test_ray_staircase_matches_reference(spec, data):
    ray = data.draw(st.tuples(*[st.integers(1, 4)] * spec.s))
    n_max = data.draw(st.integers(0, 30))
    on_ray = GradedSemigroup(1, spec.s, spec).veronese_ray(ray)
    assert isinstance(on_ray.source, StaircaseSpec) and on_ray.s == 1
    try:
        want = [ref.bounds(spec, tuple(k * x for x in ray))
                for k in range(n_max + 1)]
    except ValidationError:
        with pytest.raises(ValidationError, match="not positive"):
            on_ray.counts_upto(n_max)
        return
    assert on_ray.counts_upto(n_max) == {
        k: max(0, up - lo + 1) for k, (lo, up) in enumerate(want)}
    assert [on_ray.source.bounds((k,)) for k in range(n_max + 1)] == want


@st.composite
def rank_one_quadratics(draw, s):
    """Q = g g^T plus an antisymmetric part: sqrt(Q(n)) = |g . n|."""
    g = draw(st.lists(st.integers(-3, 3), min_size=s, max_size=s))
    a = [[draw(st.integers(-3, 3)) if i < j else 0 for j in range(s)]
         for i in range(s)]
    return BoundRule("ceil_sqrt_quadratic", quadratic=tuple(
        tuple(g[i] * g[j] + a[i][j] - a[j][i] for j in range(s))
        for i in range(s)))


@settings(max_examples=200)
@given(st.integers(1, 3).flatmap(lambda s: st.tuples(
    st.just(s), st.one_of(rules(s), rank_one_quadratics(s)))))
@example((2, BoundRule("ceil_sqrt_quadratic", quadratic=((2, 2), (2, 2)))))
@example((2, BoundRule("ceil_sqrt_quadratic", quadratic=((1, 0), (0, 0)))))
def test_normal_form_is_the_rule_on_the_orthant(case):
    s, rule = case
    normal = rule.normal(s)
    assert normal.normal(s) == normal
    assert normal.kind == "linear" or len(normal.forms) > 1 or \
        normal.quadratic == rule.quadratic
    for t in range(13):
        for n in itertools.product(range(t + 1), repeat=s):
            if sum(n) == t:
                for side in ("lower", "upper"):
                    assert outcome(normal.value, n, side) == \
                        outcome(ref.value, rule, n, side), (n, side)


@pytest.mark.parametrize("rule, kind, forms", [
    (("ceil_sqrt_quadratic", (), ((1, 0), (0, 0))), "linear", ((1, 0),)),
    (("ceil_sqrt_quadratic", (), ((1, 3), (1, 4))), "linear", ((1, 2),)),
    (("ceil_sqrt_quadratic", (), ((4, -4), (-4, 4))), "max",
     ((2, -2), (-2, 2))),
    (("ceil_sqrt_quadratic", (), ((0, 1), (-1, 0))), "linear", ((0, 0),)),
    (("ceil_sqrt_quadratic", (), ((2, 2), (2, 2))), "ceil_sqrt_quadratic",
     ()),
    (("ceil_sqrt_quadratic", (), ((4, 0), (0, 4))), "ceil_sqrt_quadratic",
     ()),
    (("min", ((0, 0), (1, 1)), ()), "linear", ((0, 0),)),
    (("max", ((1, 0), (0, 1), (1, 0), (0, 0)), ()), "max",
     ((1, 0), (0, 1))),
    (("min", ((1, 2, 9), (1,)), ()), "linear", ((1, 0),)),
    (("linear", ((F(1, 2),),), ()), "linear", ((F(1, 2), 0),)),
])
def test_normal_forms(rule, kind, forms):
    normal = BoundRule(*rule).normal(2)
    assert (normal.kind, normal.forms) == (kind, forms)
    spec = StaircaseSpec(2, BoundRule(*rule), BoundRule(*rule))
    assert (spec.lower, spec.upper) == (normal, normal)
    assert spec.written == (BoundRule(*rule), BoundRule(*rule))


# Closed by construction: convex lower rules, concave upper rules.
closed_specs = specs(lower=("linear", "max", "ceil_sqrt_quadratic"),
                     upper=("linear", "min"), psd=True)


@settings(max_examples=300)
@given(st.one_of(closed_specs, specs()))
# Q(0, 1) = Q(1, 0) = 1 but Q(1, 1) = -2: not positive semidefinite.
@example(StaircaseSpec(2, BoundRule("ceil_sqrt_quadratic",
                                    quadratic=((1, -4), (0, 1))),
                       BoundRule("linear", ((F(2), F(2)),))))
# The presets: nonpoly and min are closed, a convex upper rule is not.
@example(StaircaseSpec(2, BoundRule("ceil_sqrt_quadratic",
                                    quadratic=((4, 0), (0, 4))),
                       BoundRule("linear", ((F(2), F(2)),))))
@example(StaircaseSpec(2, BoundRule("linear", ((F(0), F(0)),)),
                       BoundRule("min", ((F(1), F(0)), (F(0), F(1))))))
@example(StaircaseSpec(2, BoundRule("linear", ((F(0), F(0)),)),
                       BoundRule("max", ((F(1), F(0)), (F(0), F(1))))))
# A dominated upper max and lower min are their dominant forms.
@example(StaircaseSpec(2, BoundRule("min", ((F(1, 2), F(1)), (F(1), F(1)))),
                       BoundRule("max", ((F(2), F(3)), (F(2), F(5, 2))))))
# Numbers past int64.
@example(StaircaseSpec(2, BoundRule("linear", ((F(-10 ** 30), F(0)),)),
                       BoundRule("max", ((F(10 ** 30, 7), F(1)),
                                         (F(1), F(10 ** 30))))))
@example(StaircaseSpec(2, BoundRule("ceil_sqrt_quadratic",
                                    quadratic=((10 ** 30, 0), (0, 10 ** 30))),
                       BoundRule("min", ((F(10 ** 30, 7), F(10 ** 30)),
                                         (F(10 ** 30), F(10 ** 30))))))
def test_certified_staircases_pass_the_reference_scan(spec):
    # The scan at bound 8 tests every pair that the bounds 1..7 test.
    if closure_doubt(spec) is None:
        ref.check_closure(spec, 8)
        GradedSemigroup.from_staircase(spec)
    else:
        with pytest.raises(ValidationError, match="cannot be certified"):
            GradedSemigroup.from_staircase(spec)


@settings(max_examples=100)
@given(closed_specs)
def test_closed_by_construction_is_certified(spec):
    assert closure_doubt(spec) is None


def test_from_staircase_evaluates_no_bound(monkeypatch):
    def refuse(*args):
        raise AssertionError("a bound was evaluated")

    monkeypatch.setattr(BoundRule, "value", refuse)
    monkeypatch.setattr(BoundRule, "line", refuse)
    for name in ("nonpoly", "min", "concave-pl", "golden"):
        algebra_from_json(preset(name))
    with pytest.raises(ValidationError, match="cannot be certified"):
        GradedSemigroup.from_staircase(StaircaseSpec(
            2, BoundRule("linear", ((F(0), F(0)),)),
            BoundRule("max", ((F(1, 20), F(0)), (F(0), F(1, 20))))))


@pytest.mark.parametrize("rows, psd", [
    (((4, 0), (0, 4)), True),
    (((1, 1), (1, 1)), True),       # singular
    (((1, 3), (-3, 1)), True),      # only the symmetric part counts
    (((1, -4), (0, 1)), False),
    (((0, 1), (1, 0)), False),      # nonnegative on N^2 all the same
    (((0, 0), (0, -1)), False),     # leading minors 0, 0 miss it
    (((2, -1, 0), (-1, 2, -1), (0, -1, 2)), True),
    (((1, 2, 0), (2, 1, 0), (0, 0, 1)), False),
])
def test_positive_semidefinite_by_principal_minors(rows, psd):
    assert _positive_semidefinite(rows) is psd


def test_negative_form_along_the_ray_is_a_validation_error():
    # Q(1, 1) = -2, so every k >= 1 along (1, 1) raises; no ValueError of
    # math.isqrt may leak past the 0/2/3/4 exit codes.
    spec = StaircaseSpec(2, BoundRule("ceil_sqrt_quadratic",
                                      quadratic=((1, -4), (0, 1))),
                         BoundRule("linear", ((F(2), F(2)),)))
    on_ray = GradedSemigroup(1, 2, spec).veronese_ray((1, 1))
    assert on_ray.counts_upto(0) == {0: 1}
    for n_max in (1, 5):
        with pytest.raises(ValidationError, match="not positive"):
            on_ray.counts_upto(n_max)
    with pytest.raises(ValidationError, match="not positive"):
        on_ray.source.lower.line(5, "lower")


# Non-polyhedral: a concave lower rule or a convex upper rule.
nonpolyhedral = st.one_of(
    specs(max_s=2, lower=("min", "ceil_sqrt_quadratic"), coeff=2),
    specs(max_s=2, upper=("max", "ceil_sqrt_quadratic"), coeff=2))


@settings(max_examples=60)
@given(nonpolyhedral)
def test_dimensions_from_endpoints_match_cone_rays(spec):
    # Built the one way in: uncertified rules are refused.  A rule that is
    # piecewise linear in normal form gets the exact cone, whose rank can
    # exceed the reference's degree-8 reading, never fall short of it.
    if closure_doubt(spec) is not None:
        with pytest.raises(ValidationError, match="cannot be certified"):
            MonomialAlgebra.from_staircase(spec)
        return
    algebra = MonomialAlgebra.from_staircase(spec)
    exact = algebra.global_no_cone()[1]
    axes = range(1, spec.s + 1)
    subsets = [set(c) for size in axes
               for c in itertools.combinations(axes, size)]
    got = [algebra.krull_dim()] + [algebra.dim_subalgebra(j)
                                   for j in subsets]
    want = [ref.dim_subalgebra(spec, j) for j in [set(axes)] + subsets]
    assert exact == ("ceil_sqrt_quadratic" not in
                     (spec.lower.kind, spec.upper.kind))
    if exact:
        assert all(w <= g <= 1 + len(j) for g, w, j in
                   zip(got, want, [set(axes)] + subsets))
    else:
        assert got == want


def test_veronese_of_polyhedral_staircase_has_exact_cone():
    # The ray of a staircase is a staircase, so a polyhedral one gets the
    # exact DD cone and fiber volumes; an enumerated inner cone over
    # degrees <= 8 would stop at slope 25/8 < 178/55.
    golden = MonomialAlgebra.from_staircase(StaircaseSpec(
        1, BoundRule("linear", ((F(0),),)),
        BoundRule("linear", ((F(89, 55),),))))
    double = golden.veronese((2,))
    cone, exact = double.global_no_cone()
    assert exact and sorted(cone.rays) == [(0, 1), (178, 55)]
    fv = double.volume_fn_fiber((1,))
    assert (fv.value, fv.method) == (F(178, 55), "fiber")
    min_alg = MonomialAlgebra.from_staircase(StaircaseSpec(
        2, BoundRule("linear", ((F(0), F(0)),)),
        BoundRule("min", ((F(1), F(0)), (F(0), F(1))))))
    cone, exact = min_alg.veronese((2, 3)).global_no_cone()
    assert exact and sorted(cone.rays) == [(0, 1), (2, 1)]


def test_restricted_rules_in_closed_form():
    rule = BoundRule("max", ((F(1, 2), F(1, 3)), (F(1), F(0))))
    assert rule.restrict((2, 3)) == BoundRule("max", ((F(2),), (F(2),)))
    quad = BoundRule("ceil_sqrt_quadratic", quadratic=((4, 1), (1, 4)))
    assert quad.restrict((3, 4)).quadratic == ((4 * 9 + 2 * 12 + 4 * 16,),)
    on_ray = StaircaseSpec(2, quad, rule).restrict((3, 4))
    assert [on_ray.bounds((k,)) for k in range(4)] == [
        (math.isqrt(124 * k * k - 1) + 1 if k else 0, 3 * k)
        for k in range(4)]


@pytest.mark.parametrize("kind, forms, quadratic", [
    ("linear", (), ()),
    ("max", (), ()),
    ("min", (), ()),
    ("ceil_sqrt_quadratic", (), ()),
    ("ceil_sqrt_quadratic", (), ((4, 0), (0,))),
    ("ceil_sqrt_quadratic", (), ((4, 0),)),
    ("cubic", ((F(1),),), ()),
    (None, ((F(1),),), ()),
])
def test_malformed_rules_raise_when_built(kind, forms, quadratic):
    with pytest.raises(ValidationError):
        BoundRule(kind, forms, quadratic)
