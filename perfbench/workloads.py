"""Seeded task generators for the ``count``, ``exact`` and ``bridge`` workloads.

A task is one call into oklab.  Its inputs (and the CLI input file, when
the call goes through a subcommand) are made before timing; the call
builds its algebra, semigroup or family objects itself, so per-object
memos start cold, as they do in a CLI call.  Each task carries an oracle
from ``oracles``, run after the timed region.

Every generator takes a stratum ``u`` in [0, 1) besides the seeded
random source.  ``u`` fixes the input's size class (dimension, point
count, work estimate, case from a list) and the seed draws the rest, so
each seed gets the same mix of sizes and the run's percentiles do not
hinge on which seed was drawn.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from . import oracles as orc

# Seed of the warm-up tasks: fixed, so set-up work does not depend on --seed.
WARMUP_SEED = 7919


@dataclass
class Task:
    """One timed call and the oracle for its answer.

    ``run(ok)`` gets the imported ``oklab`` package.  CLI tasks write their
    report to ``report`` and return the exit code; the harness reads the
    file after the timer stops and hands ``(code, text)`` to ``check``.
    ``check`` raises ``AssertionError`` on a wrong answer.
    """

    kind: str
    run: Callable
    check: Callable
    report: Optional[str] = None
    label: str = ""


@dataclass
class Ctx:
    rng: object
    workdir: str
    report: str
    serial: list = field(default_factory=lambda: [0])

    def path(self, kind):
        self.serial[0] += 1
        return os.path.join(self.workdir, f"{kind}-{self.serial[0]}.json")


def _write(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _cli_task(ctx, kind, argv, check, label):
    argv = list(argv) + ["--format", "json", "--output", ctx.report]

    def run(ok):
        return ok.cli.main(argv)

    def checked(result):
        code, text = result
        assert code == 0, f"exit code {code}"
        check(json.loads(text))

    return Task(kind, run, checked, report=ctx.report, label=label)


def _frac(x):
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 \
        else str(f.numerator)


def _close(value, target, rel):
    assert abs(value - float(target)) <= rel * abs(float(target)), \
        f"{value} not within {rel:.0%} of {float(target)}"


def _pick(cases, u):
    return cases[min(int(u * len(cases)), len(cases) - 1)]


def _split(u, k):
    """(stratum index in range(k), position inside that stratum)."""
    i = min(int(u * k), k - 1)
    return i, u * k - i


def _nearest(candidates, work, target, rng, keep=6):
    """One of the ``keep`` candidates whose work is closest to ``target``."""
    ranked = sorted(candidates, key=lambda c: abs(math.log(work(c) / target)))
    return rng.choice(ranked[:keep])


# ---------------------------------------------------------------------------
# count: Segre-Veronese algebras, whose x-monomials of degree a1 in r1
# variables sit in degree (1, 0) and y-monomials of degree a2 in r2
# variables in degree (0, 1); random singly graded semigroups; the
# non-polyhedral staircase preset.

def sv_generators(r1, a1, r2, a2):
    return [(tuple(e) + (0,) * r2, (1, 0)) for e in orc.compositions(a1, r1)] \
        + [((0,) * r1 + tuple(e), (0, 1)) for e in orc.compositions(a2, r2)]


def sv_json(r1, a1, r2, a2):
    return {"schema_version": 1, "r": r1 + r2, "s": 2,
            "generators": [{"exp": list(v), "deg": list(d)}
                           for v, d in sv_generators(r1, a1, r2, a2)]}


def _ngens(r, a):
    return math.comb(a + r - 1, r - 1)


def hilbert_work(r1, a1, r2, a2, n1, n2):
    """Points the piece DP touches: generators times the box's points."""
    box = [sum(math.comb(a * k + r - 1, r - 1) for k in range(n + 1))
           for r, a, n in ((r1, a1, n1), (r2, a2, n2))]
    return (_ngens(r1, a1) + _ngens(r2, a2)) * box[0] * box[1]


def ray_work(r1, a1, r2, a2, ray, n_max):
    """Nodes of the composition recursion that counts pieces on a ray."""
    g1, g2 = _ngens(r1, a1), _ngens(r2, a2)
    return sum(math.comb(k * ray[0] + g1, g1) *
               math.comb(k * ray[1] + g2 - 1, g2 - 1)
               for k in range(n_max + 1))


# Work bands (units of the estimates above), drawn log-uniformly by stratum.
HILBERT_BAND = (20_000, 45_000)
RAY_BAND = (3_000, 7_000)
SV_PARAMS = [(r1, a1, r2, a2) for r1 in range(1, 4) for a1 in range(1, 4)
             for r2 in range(1, 4) for a2 in range(1, 4)]
HILBERT_CASES = [cfg + (n1, n2) for cfg in SV_PARAMS
                 for n1 in range(6, 13) for n2 in range(6, 13)]
# q = r1 + r2 - 2 <= 2 keeps the two-term tail fit within tolerance.
RAY_CASES = [(cfg, (k1, k2), n_max) for cfg in SV_PARAMS
             if cfg[0] + cfg[2] <= 4
             for k1 in (1, 2) for k2 in (1, 2) for n_max in range(8, 25)]


def _band(band, u):
    return band[0] * (band[1] / band[0]) ** u


def gen_hilbert(ctx, u):
    case = _nearest(HILBERT_CASES, lambda c: hilbert_work(*c),
                    _band(HILBERT_BAND, u), ctx.rng)
    cfg, (n1, n2) = case[:4], case[4:]
    path = ctx.path("sv")
    _write(path, sv_json(*cfg))
    want = orc.sv_hilbert(*case)

    def check(out):
        assert out["value"] == want, (out["value"], want)

    return _cli_task(ctx, "hilbert",
                     ["hilbert", "--input", path, "--x", f"{n1},{n2}"],
                     check, f"SV{cfg} at {(n1, n2)}")


def gen_ray_count(ctx, u):
    cfg, ray, n_max = _nearest(RAY_CASES,
                               lambda c: ray_work(*c[0], c[1], c[2]),
                               _band(RAY_BAND, u), ctx.rng)
    gens = sv_generators(*cfg)
    want = orc.sv_ray_limit(*cfg, ray)

    def run(ok):
        algebra = ok.algebra.MonomialAlgebra.from_generators(
            cfg[0] + cfg[2], 2, gens)
        return algebra.volume_fn_count(ray, n_max=n_max)

    return Task("ray_count", run,
                lambda est: _close(est, want, orc.RAY_REL_TOL),
                label=f"SV{cfg} ray {ray} n_max {n_max}")


def _hnf(rows):
    """Row-style Hermite normal form (unique, so it matches oklab's)."""
    rows, rank = [list(r) for r in rows], 0
    for col in range(len(rows[0])):
        while True:
            live = [i for i in range(rank, len(rows)) if rows[i][col]]
            if not live:
                break
            piv = min(live, key=lambda i: abs(rows[i][col]))
            rows[rank], rows[piv] = rows[piv], rows[rank]
            for i in range(rank + 1, len(rows)):
                q = rows[i][col] // rows[rank][col]
                rows[i] = [a - q * b for a, b in zip(rows[i], rows[rank])]
            if not any(rows[i][col] for i in range(rank + 1, len(rows))):
                break
        if not rows[rank:] or not rows[rank][col]:
            continue
        if rows[rank][col] < 0:
            rows[rank] = [-a for a in rows[rank]]
        for i in range(rank):
            q = rows[i][col] // rows[rank][col]
            rows[i] = [a - q * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rows[:rank]


def kk_work(gens, n_max=500):
    """Size of the bitset count: m times the box that the generators'
    lattice-coordinate slopes span at degree m * n_max."""
    vecs = [v + d for v, d in gens]
    basis = _hnf(vecs)
    coords = []
    for vec in vecs:
        vec, c = list(vec), []
        for row in basis:
            col = next(i for i, x in enumerate(row) if x)
            c.append(vec[col] // row[col])
            vec = [a - c[-1] * b for a, b in zip(vec, row)]
        coords.append(c)
    j0 = next(j for j, row in enumerate(basis) if row[-1])
    m = math.gcd(*(d[0] for _, d in gens))
    work = m
    for t in range(len(basis)):
        if t != j0:
            slopes = [Fraction(c[t], d[0]) for c, (_, d) in zip(coords, gens)]
            low = math.floor(min(slopes))
            work *= math.floor(m * n_max * (max(slopes) - low)) + 1
    return work


KK_BAND = (300_000, 600_000)


def gen_kk_limit(ctx, u):
    """Three generators spanning a rank-3 lattice: a 2-D bitset count."""
    rng = ctx.rng
    r = 2 + _split(u, 2)[0]
    candidates = []
    while len(candidates) < 40:
        gens = sorted({tuple(rng.randint(0, 2) for _ in range(r)):
                       (rng.randint(1, 3),) for _ in range(3)}.items())
        if orc.rank([v + d for v, d in gens]) == 3:
            candidates.append(gens)
    gens = _nearest(candidates, kk_work, _band(KK_BAND, _split(u, 2)[1]),
                    rng, keep=1)
    m = math.gcd(*(d[0] for _, d in gens))

    def run(ok):
        sg = ok.semigroup.GradedSemigroup.from_generators(r, 1, gens)
        return sg.kk_limit_check(n_max=500)

    def check(out):
        assert out["m"] == m and out["q"] == 2, out
        assert out["predicted"] > 0
        _close(out["estimate"], out["predicted"], orc.KK_REL_TOL)

    return Task("kk_limit", run, check, label=f"{gens}")


def gen_nonpoly(ctx, u):
    x = (ctx.rng.randint(1, 6), ctx.rng.randint(1, 6))
    target = 2 * (x[0] + x[1]) - 2 * math.hypot(*x)

    def check(out):
        assert out["result"] == "PASS" and out["x"] == list(x), out
        assert abs(out["estimate"] - target) <= orc.NONPOLY_ABS_TOL

    return _cli_task(ctx, "nonpoly",
                     ["verify-example", "nonpoly", "--x", f"{x[0]},{x[1]}"],
                     check, f"x {x}")


# ---------------------------------------------------------------------------
# exact: lattice point clouds, polygons, staircases, small algebras, lattices

CLOUDS = {2: (16, 22, 10), 3: (12, 15, 5), 4: (9, 11, 3)}  # points, box


def _cloud(rng, u):
    """A full-dimensional lattice point cloud; ``u`` sets dim and size."""
    dim, rest = _split(u, 3)
    dim += 2
    lo, hi, box = CLOUDS[dim]
    size = lo + min(int(rest * (hi - lo + 1)), hi - lo)
    while True:
        pts = set()
        while len(pts) < size:
            pts.add(tuple(rng.randint(0, box) for _ in range(dim)))
        pts = sorted(pts)
        if orc.full_dimensional(pts):
            return dim, pts


def gen_hull(ctx, u):
    dim, pts = _cloud(ctx.rng, u)
    want = functools.cache(lambda: orc.vertices(pts))

    def run(ok):
        return ok.polytope.convex_hull(pts)

    def check(poly):
        assert poly.affine_dim == dim
        assert set(poly.vertices) == want(), sorted(poly.vertices)

    return Task("hull", run, check, label=f"{dim}-D, {len(pts)} points")


def _polytope_task(ctx, u, kind, call, oracle, normalize=None):
    """A task on a Polytope built fresh from a cloud's brute-force vertices;
    ``normalize`` puts the answer in the oracle's form, untimed."""
    dim, pts = _cloud(ctx.rng, u)
    verts = tuple(sorted(orc.vertices(pts)))
    want = functools.cache(lambda: oracle(verts))

    def run(ok):
        return call(ok, ok.polytope.Polytope(verts, dim, dim), dim)

    def check(out):
        got = normalize(out) if normalize else out
        assert got == want(), (got, want())

    return Task(kind, run, check, label=f"{dim}-D, {len(verts)} vertices")


def _primitive_facets(hrep):
    """oklab's (equalities, inequalities) as {(primitive a, b)}: a.x >= b."""
    eqs, ineqs = hrep
    assert eqs == (), eqs
    out = set()
    for a, b in ineqs:
        g = math.gcd(*a)
        out.add((tuple(x // g for x in a), Fraction(b) / g))
    return out


def gen_halfspaces(ctx, u):
    return _polytope_task(ctx, u, "halfspaces",
                          lambda ok, poly, dim: poly.halfspaces(),
                          orc.facets, _primitive_facets)


def gen_volume(ctx, u):
    def call(ok, poly, dim):
        return ok.polytope.integral_volume(
            poly, ok.polytope.standard_lattice(dim))

    return _polytope_task(ctx, u, "volume", call, orc.volume)


def _polygon(rng, size):
    while True:
        pts = {(rng.randint(0, 5), rng.randint(0, 5)) for _ in range(size)}
        pts = sorted(pts)
        if len(pts) > 2 and orc.full_dimensional(pts):
            return tuple(sorted(orc.vertices(pts)))


def gen_mixed_volume(ctx, u):
    sizes = _pick([(3, 3), (3, 4), (4, 4)], u)
    p, q = (_polygon(ctx.rng, k) for k in sizes)
    want = orc.planar_mixed_volume(p, q)

    def run(ok):
        bodies = [ok.polytope.Polytope(v, 2, 2) for v in (p, q)]
        return ok.polytope.mixed_volume(bodies, (1, 1))

    def check(out):
        assert out == want, (out, want)

    return Task("mixed_volume", run, check,
                label=f"{len(p)}-gon + {len(q)}-gon")


def staircase_json(forms):
    return {"schema_version": 1, "r": 1, "s": 2,
            "staircase": {
                "lower": {"kind": "linear", "forms": [["0", "0"]]},
                "upper": {"kind": "min",
                          "forms": [[str(c) for c in f] for f in forms]}}}


def _staircase(ctx, u):
    """Pieces {0 <= j <= min_f f . n}: 2 or 3 positive forms, a point x."""
    rng = ctx.rng
    count = 2 + _split(u, 2)[0]
    forms = set()
    while len(forms) < count:
        forms.add((rng.randint(1, 3), rng.randint(1, 3)))
    forms = sorted(forms)
    path = ctx.path("staircase")
    _write(path, staircase_json(forms))
    x = tuple(Fraction(rng.randint(1, 3), rng.randint(1, 2))
              for _ in range(2))
    return forms, path, x, f"forms {forms} at {tuple(map(_frac, x))}"


def gen_volume_fn(ctx, u):
    forms, path, x, label = _staircase(ctx, u)
    want = _frac(orc.staircase_volume(forms, x))

    def check(out):
        assert out["value"] == want and out["method"] == "fiber", out

    return _cli_task(ctx, "volume-fn",
                     ["volume-fn", "--input", path,
                      "--x", ",".join(map(_frac, x))], check, label)


def gen_fiber(ctx, u):
    forms, path, x, label = _staircase(ctx, u)
    want = sorted([["0"], [_frac(orc.staircase_volume(forms, x))]])

    def check(out):
        assert out["exact"] is True and sorted(out["vertices"]) == want, out

    return _cli_task(ctx, "fiber",
                     ["fiber", "--input", path,
                      "--x", ",".join(map(_frac, x))], check, label)


def gen_no_body(ctx, u):
    forms, path, _, label = _staircase(ctx, u)
    want = orc.cone_extreme_rays_3d(orc.staircase_cone_normals(forms))

    def check(out):
        assert out["exact"] is True
        assert {tuple(r) for r in out["rays"]} == want, (out["rays"], want)

    return _cli_task(ctx, "no-body", ["no-body", "--input", path], check,
                     label)


def _sv_cases(max_q, max_gens):
    return [cfg for cfg in SV_PARAMS
            if cfg[0] + cfg[2] - 2 <= max_q and
            _ngens(*cfg[:2]) + _ngens(*cfg[2:]) <= max_gens]


MIXED_MULT_CASES = _sv_cases(2, 4)
POSITIVITY_CASES = _sv_cases(4, 12)


def gen_mixed_mult(ctx, u):
    r1, a1, r2, a2 = cfg = _pick(MIXED_MULT_CASES, u)
    d = ctx.rng.choice(orc.compositions(r1 + r2 - 2, 2))
    path = ctx.path("sv")
    _write(path, sv_json(*cfg))
    want = _frac(orc.sv_mixed_multiplicity(*cfg, d))
    positive = orc.sv_positivity_certificate(r1, r2, d) is None

    def check(out):
        assert out["value"] == want and out["provenance"] == "exact", out
        assert out["positive"] is positive, out

    return _cli_task(ctx, "mixed-mult",
                     ["mixed-mult", "--input", path,
                      "--type", f"{d[0]},{d[1]}", "--pschedule", "1,2",
                      "--bound", "2"], check, f"SV{cfg} type {d}")


def gen_positivity(ctx, u):
    r1, a1, r2, a2 = cfg = _pick(POSITIVITY_CASES, u)
    d = ctx.rng.choice(orc.compositions(r1 + r2 - 2, 2))
    path = ctx.path("sv")
    _write(path, sv_json(*cfg))
    cert = orc.sv_positivity_certificate(r1, r2, d)

    def check(out):
        assert out["positive"] is (cert is None), out
        assert out["certificate"] == cert, out

    return _cli_task(ctx, "positivity",
                     ["positivity", "--input", path,
                      "--type", f"{d[0]},{d[1]}"], check,
                     f"SV{cfg} type {d}")


def gen_ladder(ctx, u):
    """Fujita ladder of a slope-a/b staircase, the golden preset widened."""
    b = 2 + _split(u, 12)[0]
    while True:
        a = ctx.rng.randint(b + 1, 2 * b - 1) if b > 2 else 3
        if math.gcd(a, b) == 1:
            break
    ps = sorted({1, (b + 1) // 2, b})
    want = [Fraction((a * p) // b, p) for p in ps]

    def run(ok):
        rule = ok.semigroup.BoundRule
        algebra = ok.algebra.MonomialAlgebra.from_staircase(
            ok.semigroup.StaircaseSpec(
                s=1, lower=rule("linear", forms=((Fraction(0),),)),
                upper=rule("linear", forms=((Fraction(a, b),),))))
        ladder = []
        for p in ps:
            _, mixed = algebra.p_subalgebra(p).hilbert_polynomial()
            ladder.append(Fraction(mixed[(1,)], p))
        return ladder

    def check(ladder):
        assert ladder == want and ladder[-1] == Fraction(a, b), ladder

    return Task("ladder", run, check, label=f"slope {a}/{b} at p {ps}")


def _matrix(rng, rows, cols, bound):
    return [tuple(rng.randint(-bound, bound) for _ in range(cols))
            for _ in range(rows)]


def gen_hnf(ctx, u):
    n = 4 + _split(u, 3)[0]
    rows = _matrix(ctx.rng, ctx.rng.randint(2, n + 1), n, 30)

    def run(ok):
        return ok.lattice.hermite_normal_form(rows, ncols=n)

    def check(out):
        basis, rk = out
        assert rk == len(basis) == orc.rank(rows)
        assert orc.is_hnf(basis)          # an HNF reduces to itself
        assert all(orc.in_row_lattice(basis, r) for r in rows)
        assert orc.minor_gcd(basis, rk) == orc.minor_gcd(rows, rk)

    return Task("hnf", run, check, label=f"{len(rows)}x{n}")


def gen_kernel(ctx, u):
    n = 4 + _split(u, 3)[0]
    cons = _matrix(ctx.rng, ctx.rng.randint(1, n - 1), n, 9)

    def run(ok):
        return ok.lattice.integer_kernel(cons, n)

    def check(lat):
        basis = lat.basis
        assert len(basis) == n - orc.rank(cons) and orc.is_hnf(basis)
        assert all(sum(c * x for c, x in zip(row, v)) == 0
                   for row in cons for v in basis)
        assert orc.minor_gcd(basis, len(basis)) == 1      # saturated

    return Task("kernel", run, check, label=f"{len(cons)}x{n}")


def gen_index(ctx, u):
    n = 3 + _split(u, 3)[0]
    while True:
        rows = _matrix(ctx.rng, n, n, 9)
        want = abs(orc.det(rows))
        if want:
            break

    def run(ok):
        lat = ok.lattice.group_generated(rows, n)
        return ok.lattice.subgroup_index(lat, ok.polytope.standard_lattice(n))

    def check(out):
        assert out == want, (out, want)

    return Task("index", run, check, label=f"{n}x{n}")


# ---------------------------------------------------------------------------
# bridge: graded families of monomial ideals

def _m_power_cases(sizes2, sizes3):
    return [(2, a, b) for a, b in sizes2] + [(3, a, b) for a, b in sizes3]


PAIRS3 = [(a, b) for a in (1, 2, 3) for b in (1, 2, 3)]
FIXED_MM_CASES = _m_power_cases(PAIRS3, [(1, 1), (1, 2), (2, 1), (2, 2)])
BHATTACHARYA_CASES = _m_power_cases(
    [(a, b) for a in (1, 2, 3) for b in (1, 2)], [(1, 1), (1, 2), (2, 1)])
IDEAL_FAMILY_CASES = _m_power_cases(PAIRS3, [(1, 1)] * 3)
RANDOM_IDEAL_CASES = [(p, q, b) for p in (1, 2, 3, 4) for q in (1, 2, 3, 4)
                      for b in (1, 2)]


def _ideals(ok, d, *gens):
    return [ok.ideals.monomial_ideal(d, g) for g in gens]


def gen_fixed_mm(ctx, u):
    d, a, b = _pick(FIXED_MM_CASES, u)
    gi, gj = orc.m_power_gens(d, a), orc.m_power_gens(d, b)
    want = orc.fixed_mixed_multiplicities(d, a, b)

    def run(ok):
        i, j = _ideals(ok, d, gi, gj)
        return ok.ideals.fixed_ideal_mixed_multiplicities(i, [j])

    def check(out):
        assert out == want, (out, want)

    return Task("fixed_mm", run, check, label=f"m^{a} | m^{b}, {d} vars")


def gen_fixed_mm_random(ctx, u):
    """A random m-primary ideal in 2 variables against m^b."""
    p, q, b = _pick(RANDOM_IDEAL_CASES, u)
    gens = {(p, 0), (0, q)}
    for _ in range(ctx.rng.randint(0, 2)):
        g = (ctx.rng.randint(0, p - 1), ctx.rng.randint(0, q - 1))
        if any(g):
            gens.add(g)
    gens = sorted(gens)
    gj = orc.m_power_gens(2, b)
    want = {(1, 0): orc.planar_ideal_multiplicity(gens),
            (0, 1): b * orc.ideal_order(gens)}

    def run(ok):
        i, j = _ideals(ok, 2, gens, gj)
        return ok.ideals.fixed_ideal_mixed_multiplicities(i, [j])

    def check(out):
        assert out == want, (out, want)

    return Task("fixed_mm_random", run, check, label=f"{gens} | m^{b}")


def gen_bhattacharya(ctx, u):
    d, a, b = _pick(BHATTACHARYA_CASES, u)
    n_max = 40 if d == 2 else 20
    gi, gj = orc.m_power_gens(d, a), orc.m_power_gens(d, b)
    want = orc.bhattacharya_m_powers(d, a, b)

    def run(ok):
        i, j = _ideals(ok, d, gi, gj)
        return ok.ideals.bhattacharya_limit(
            ok.ideals.PowersFamily(i), [ok.ideals.PowersFamily(j)], (1, 1),
            n_max=n_max)

    return Task("bhattacharya", run,
                lambda est: _close(est, want, orc.BHATTACHARYA_REL_TOL),
                label=f"m^{a} | m^{b}, {d} vars, n_max {n_max}")


def _powers_json(d, a):
    return {"schema_version": 1,
            "family": {"powers": {"vars": d, "gens": [
                list(g) for g in orc.m_power_gens(d, a)]}}}


def gen_ideal_family(ctx, u):
    d, a, b = _pick(IDEAL_FAMILY_CASES, u)
    d0 = ctx.rng.randint(0, d - 1)
    path = ctx.path("families")
    _write(path, {"I": _powers_json(d, a), "J": [_powers_json(d, b)]})
    want = _frac(a ** (d0 + 1) * b ** (d - 1 - d0))

    def check(out):
        assert out["value"] == want and out["provenance"] == "exact", out

    return _cli_task(ctx, "ideal-family",
                     ["ideal-family", "--input", path,
                      "--type", f"{d0},{d - 1 - d0}", "--pschedule", "1,2"],
                     check, f"m^{a} | m^{b}, {d} vars, type {(d0, d - 1 - d0)}")


BRIDGE_BODIES = {
    "seg_x": ((0, 0), (1, 0)),
    "seg_y": ((0, 0), (0, 1)),
    "tri": ((0, 0), (1, 0), (0, 1)),
}
BRIDGE_PAIRS = [("seg_x", "seg_y"), ("seg_y", "seg_x"), ("seg_x", "seg_x"),
                ("tri", "seg_x"), ("tri", "seg_y")]


def gen_mixed_volume_bridge(ctx, u):
    names = _pick(BRIDGE_PAIRS, u)
    bodies = [BRIDGE_BODIES[n] for n in names]
    path = ctx.path("bodies")
    _write(path, {"bodies": [{"schema_version": 1,
                              "vertices": [[str(c) for c in v] for v in b]}
                             for b in bodies]})
    want = orc.planar_mixed_volume(*bodies)

    def check(out):
        assert out["geometric"] == _frac(want), out
        assert abs(out["ideal"] - float(want)) <= \
            orc.BRIDGE_REL_TOL * max(float(want), 1.0), out
        assert out["verdict"] == "AGREE", out
        assert out["geometric_positive"] is out["family_positive"] is \
            (want > 0), out

    return _cli_task(ctx, "mixed-volume",
                     ["mixed-volume", "--input", path, "--type", "1,1",
                      "--pschedule", "1,2"], check, "+".join(names))


# ---------------------------------------------------------------------------
# workload mixes: (kind, generator, tasks per round).  Each mix puts its
# 50th and 90th percentiles inside a dense band of task costs; the
# staircase subcommands (about 100-200 ms, closure checks in semigroup)
# share one slot per exact round.

WORKLOADS = {
    "count": [
        ("hilbert", gen_hilbert, 3),
        ("ray_count", gen_ray_count, 3),
        ("kk_limit", gen_kk_limit, 3),
        ("nonpoly", gen_nonpoly, 1),
    ],
    "exact": [
        ("hull", gen_hull, 10),
        ("mixed_volume", gen_mixed_volume, 10),
        ("volume", gen_volume, 6),
        ("halfspaces", gen_halfspaces, 3),
        ("mixed-mult", gen_mixed_mult, 3),
        ("ladder", gen_ladder, 3),
        ("positivity", gen_positivity, 2),
        ("hnf", gen_hnf, 1),
        ("kernel", gen_kernel, 1),
        ("index", gen_index, 1),
        ("volume-fn", gen_volume_fn, Fraction(1, 3)),
        ("fiber", gen_fiber, Fraction(1, 3)),
        ("no-body", gen_no_body, Fraction(1, 3)),
    ],
    "bridge": [
        ("fixed_mm", gen_fixed_mm, 4),
        ("fixed_mm_random", gen_fixed_mm_random, 8),
        ("bhattacharya", gen_bhattacharya, 4),
        ("ideal-family", gen_ideal_family, 8),
        ("mixed-volume", gen_mixed_volume_bridge, 1),
    ],
}


def build(workload, rng, warm_rng, workdir, rounds):
    """(pool, warmups) for one workload.

    A kind of weight w gets n = rounds * w tasks, spread evenly through
    the pool; its k-th task gets stratum (k + 1/2) / n in a seeded order,
    so every seed covers the same size classes.  Warm-ups are one
    mid-stratum task per kind from ``warm_rng``.
    """
    report = os.path.join(workdir, "report.json")
    ctx = Ctx(rng, workdir, report)
    slots = []
    for order, (kind, gen, weight) in enumerate(WORKLOADS[workload]):
        n = int(rounds * weight)
        strata = [(k + 0.5) / n for k in range(n)]
        rng.shuffle(strata)
        slots += [((j + 0.5) / n, order, gen, u) for j, u in enumerate(strata)]
    pool = [gen(ctx, u) for _, _, gen, u in sorted(slots)]
    wctx = Ctx(warm_rng, workdir, report, ctx.serial)
    warmups = [gen(wctx, 0.5) for _, gen, _ in WORKLOADS[workload]]
    return pool, warmups
