"""The benchmark's own tests: oracles against brute-force enumeration on
small inputs, warm-up tasks against the library, and clean tracing.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from perfbench import oracles as orc
from perfbench import run, tracing, workloads

F = Fraction
ROOT = Path(__file__).resolve().parent.parent


def forward_difference(f, point, orders):
    """Mixed forward difference: prod_i Delta_i^orders[i] of f at point."""
    terms = [(tuple(point), 1)]
    for axis, k in enumerate(orders):
        terms = [(p[:axis] + (p[axis] + j,) + p[axis + 1:],
                  c * (-1) ** (k - j) * math.comb(k, j))
                 for p, c in terms for j in range(k + 1)]
    return sum(c * f(p) for p, c in terms)


def monomials(d, max_total):
    return [u for u in itertools.product(range(max_total + 1), repeat=d)
            if sum(u) <= max_total]


# -- Segre-Veronese ----------------------------------------------------------

def sv_piece_brute(r1, a1, r2, a2, n1, n2):
    gens = workloads.sv_generators(r1, a1, r2, a2)
    pts = {(0,) * (r1 + r2)}
    for deg, times in (((1, 0), n1), ((0, 1), n2)):
        block = [v for v, d in gens if d == deg]
        for _ in range(times):
            pts = {tuple(x + y for x, y in zip(p, g))
                   for p in pts for g in block}
    return len(pts)


SV_CASES = [(1, 2, 2, 1), (2, 2, 1, 3), (3, 1, 2, 2), (2, 3, 2, 1)]


@pytest.mark.parametrize("cfg", SV_CASES)
def test_sv_hilbert_matches_enumeration(cfg):
    for n in [(0, 0), (1, 2), (3, 2), (2, 4)]:
        assert orc.sv_hilbert(*cfg, *n) == sv_piece_brute(*cfg, *n)


@pytest.mark.parametrize("cfg", SV_CASES)
def test_sv_multiplicities_match_differences(cfg):
    r1, _, r2, _ = cfg
    q = r1 + r2 - 2

    def hilbert(n):
        return sv_piece_brute(*cfg, *n)

    for d in orc.compositions(q, 2):
        assert orc.sv_mixed_multiplicity(*cfg, d) == \
            forward_difference(hilbert, (1, 1), d)
    for ray in [(1, 1), (2, 1)]:
        along = forward_difference(
            lambda k: hilbert((k[0] * ray[0], k[0] * ray[1])), (1,), (q,))
        assert orc.sv_ray_limit(*cfg, ray) * math.factorial(q) == along


@pytest.mark.parametrize("cfg", SV_CASES)
def test_sv_positivity_matches_subset_dimensions(cfg):
    r1, _, r2, _ = cfg
    vecs = [v + d for v, d in workloads.sv_generators(*cfg)]
    dims = {(1,): orc.rank([v for v in vecs if v[-1] == 0]),
            (2,): orc.rank([v for v in vecs if v[-2] == 0]),
            (1, 2): orc.rank(vecs)}
    for d in orc.compositions(r1 + r2 - 2, 2):
        violated = [list(sub) for sub in ((1,), (2,), (1, 2))
                    if sum(d[j - 1] for j in sub) > dims[sub] - len(sub)]
        want = violated[0] if violated else None
        assert orc.sv_positivity_certificate(r1, r2, d) == want


# -- polytopes and cones -----------------------------------------------------

def ehrhart_volume(points):
    """Leading Ehrhart coefficient from lattice-point counts of kP."""
    d = len(points[0])
    fs = orc.facets(points)
    hi = max(max(p) for p in points)

    def count(k):
        k = k[0]
        return sum(all(sum(a * x for a, x in zip(n, u)) >= k * b
                       for n, b in fs)
                   for u in itertools.product(range(k * hi + 1), repeat=d))

    return F(forward_difference(count, (0,), (d,)), math.factorial(d))


def test_polytope_oracles_match_lattice_point_counts():
    rng = random.Random(11)
    for dim, box, n in [(2, 4, 6), (2, 5, 8), (3, 2, 7), (3, 3, 6)]:
        for _ in range(3):
            while True:
                pts = list({tuple(rng.randint(0, box) for _ in range(dim))
                            for _ in range(n)})
                if len(pts) > dim and orc.full_dimensional(pts):
                    break
            assert orc.volume(pts) == ehrhart_volume(pts)
            verts = orc.vertices(pts)
            if dim == 2:
                assert orc.polygon_area(pts) == orc.volume(pts)
            for p in pts:
                others = [q for q in pts if q != tuple(p)]
                inside = all(sum(a * x for a, x in zip(n_, p)) >= b
                             for n_, b in orc.facets(others)) \
                    if orc.full_dimensional(others) else False
                assert (tuple(map(F, p)) in verts) is not inside


def test_mixed_volume_oracle_on_acceptance_pairs():
    sq = [(0, 0), (1, 0), (0, 1), (1, 1)]
    tri = [(0, 0), (1, 0), (0, 1)]
    seg1, seg2 = [(0, 0), (1, 0)], [(0, 0), (0, 1)]
    assert orc.planar_mixed_volume(sq, tri) == 2
    assert orc.planar_mixed_volume(seg1, seg2) == 1
    assert orc.planar_mixed_volume(seg1, seg1) == 0
    assert orc.planar_mixed_volume(sq, [(0, 0), (2, 0), (0, 2), (2, 2)]) == 4


def test_cone_rays_and_fiber_length_match_enumeration():
    normals = orc.staircase_cone_normals([(1, 0), (0, 1)])
    assert orc.cone_extreme_rays_3d(normals) == {(0, 0, 1), (0, 1, 0),
                                                 (1, 1, 1)}
    forms = [(2, 1), (1, 2)]
    assert orc.cone_extreme_rays_3d(orc.staircase_cone_normals(forms)) == \
        {(0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (3, 1, 1)}
    for forms in ([(2, 1), (1, 2)], [(1, 3), (3, 1), (2, 2)]):
        for n in [(1, 1), (2, 3), (3, 1)]:
            counts = [sum(1 for j in range(100)
                          if all(j <= k * (f[0] * n[0] + f[1] * n[1])
                                 for f in forms))
                      for k in range(1, 6)]
            slope = {b - a for a, b in zip(counts, counts[1:])}
            assert slope == {orc.staircase_volume(forms, n)}


def test_lattice_oracles_match_enumeration():
    basis = [(2, 0, 1), (0, 3, 1)]
    assert orc.is_hnf(basis)
    assert not orc.is_hnf([(2, 0, 1), (0, -3, 1)])
    assert not orc.is_hnf([(2, 5, 1), (0, 3, 1)])
    combos = {tuple(c1 * x + c2 * y for x, y in zip(*basis))
              for c1 in range(-8, 9) for c2 in range(-8, 9)}
    for v in itertools.product(range(-4, 5), repeat=3):
        assert orc.in_row_lattice(basis, v) == (v in combos)
    assert orc.minor_gcd([(1, 0, 2), (0, 1, 3)], 2) == 1
    assert orc.minor_gcd([(2, 0), (0, 2)], 2) == 4
    assert orc.rank([(1, 2, 3), (2, 4, 6), (0, 1, 0)]) == 2
    assert orc.det([(2, 1), (1, 3)]) == 5


# -- monomial ideals ---------------------------------------------------------

def test_m_power_multiplicities_match_differences():
    for d, a, b in [(2, 1, 2), (2, 3, 1), (3, 2, 1), (3, 1, 2)]:
        box = monomials(d, 3 * (a + b) + 4)

        def g(n):
            lo, hi = b * n[1], a * n[0] + b * n[1]
            return sum(lo <= sum(u) < hi for u in box)

        for (d0, d1), e in orc.fixed_mixed_multiplicities(d, a, b).items():
            assert forward_difference(g, (1, 1), (d0 + 1, d1)) == e
        assert forward_difference(lambda k: g((k[0], k[0])), (1,), (d,)) == \
            orc.bhattacharya_m_powers(d, a, b) * math.factorial(d)


def test_planar_ideal_invariants_match_differences():
    rng = random.Random(5)
    for _ in range(6):
        p, q = rng.randint(1, 3), rng.randint(1, 3)
        gens = {(p, 0), (0, q)} | {(rng.randint(0, p), rng.randint(0, q))
                                   for _ in range(2)}
        gens = sorted(g for g in gens if any(g))

        def powers(n):
            out = {(0, 0)}
            for _ in range(n):
                out = {(x + u, y + v) for x, y in out for u, v in gens}
            return out

        def g(n):
            gi = powers(n[0])
            side = max(p, q) * n[0] + n[1] + 1
            return sum(1 for u in itertools.product(range(side), repeat=2)
                       if sum(u) >= n[1] and not any(
                           x <= u[0] and y <= u[1] and
                           sum(u) - x - y >= n[1] for x, y in gi))

        assert forward_difference(g, (6, 6), (2, 0)) == \
            orc.planar_ideal_multiplicity(gens)
        assert forward_difference(g, (6, 6), (1, 1)) == orc.ideal_order(gens)


# -- the harness -------------------------------------------------------------

@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_warmup_tasks_pass_on_the_library(workload, tmp_path):
    pool, warmups = workloads.build(workload, random.Random(3),
                                    random.Random(4), str(tmp_path), 3)
    ok = run.import_oklab()
    kinds = {kind for kind, _, _ in workloads.WORKLOADS[workload]}
    assert {t.kind for t in warmups} == kinds == {t.kind for t in pool}
    for task in warmups:
        _, out, err = run.run_task(ok, task)
        assert run.verdict(task, out, err) is None, task.label


def _snapshot():
    snap = {}
    for module in tracing.oklab_modules():
        for key, obj in vars(module).items():
            snap[(module.__name__, key)] = obj
            if type(obj) is dict:
                for k, v in obj.items():
                    snap[(module.__name__, key, k)] = v
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                for k, v in vars(obj).items():
                    snap[(module.__name__, key, "attr", k)] = v
    return snap


def test_tracer_installs_and_uninstalls_cleanly():
    ok = run.import_oklab()
    before = _snapshot()
    original_hull = ok.polytope.convex_hull
    tracer = tracing.Tracer()
    assert tracer.install() > 100
    try:
        # Aliases in other layers point at the same wrapper.
        assert ok.polytope.convex_hull is not original_hull
        assert ok.ideals.convex_hull is ok.polytope.convex_hull
        assert ok.semigroup.convex_hull is ok.polytope.convex_hull
        assert ok.convex_hull is ok.polytope.convex_hull
        assert ok.algebra._stable_fit is ok.ideals._stable_fit
        assert ok.serialize.RENDERERS["json"] is ok.serialize.render_json
        tracer.begin_task(0, "probe")
        poly = ok.polytope.convex_hull([(0, 0), (1, 0), (0, 1), (F(1, 4),
                                                                F(1, 4))])
        tracer.end_task()
        assert len(poly.vertices) == 3
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.uninstall()
    assert _snapshot() == before
    assert ok.polytope.convex_hull is original_hull
    names = [tracer.names[i] for i in tracer.name]
    assert names[0] == "task.probe" and "polytope.convex_hull" in names
    hull = names.index("polytope.convex_hull")
    assert tracer.parent[hull] == 0
    assert "lp.in_convex_hull" in names[hull + 1:]
    assert tracer.counts["polytope.convex_hull.points_in"] == 4
    assert tracer.counts["polytope.convex_hull.vertices_out"] == 3
    root = tracer.end[0] - tracer.start[0]
    assert abs(sum(tracer.self_s.values()) - root) < 1e-6


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.per_layer_units()
