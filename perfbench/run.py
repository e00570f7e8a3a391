"""Run one oklab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload count --seed 1 --seconds 30 --trace 0

Closed loop, one client: a single process calls oklab once per task and
waits for each answer, the way a researcher's script drives the library.
Inputs come from ``--seed``; every answer is checked against an oracle
after the timed region.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` prints the per-layer metrics of a traced run, with the
tracing overhead measured against an untraced run of the same tasks.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import os

# One BLAS thread: np.linalg.lstsq must not start a pool of its own.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import random
import resource
import shutil
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

SETUP_REPS = 5         # set-up is measured this many times; median reported
MIN_TASKS = 100        # leaves at least ten samples beyond p90
# Rounds of each workload's mix in its task pool: a pool pass takes 3-8 s.
POOL_ROUNDS = {"count": 12, "exact": 3, "bridge": 5}

END_TO_END = {
    "task_ms.p50": "ms",
    "task_ms.p90": "ms",
    "tasks_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def per_layer_units():
    """Every per-layer metric the traced run reports, with its unit."""
    from perfbench.tracing import LAYERS
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    for name, unit in (
            ("semigroup.counts_upto.self_s", "s"),
            ("semigroup.counts_upto.degrees_out", "count"),
            ("semigroup.piece_size.self_s", "s"),
            ("semigroup.kk_limit_check.self_s", "s"),
            ("semigroup.graded_piece.calls", "count"),
            ("semigroup.graded_piece.self_s", "s"),
            ("semigroup.graded_piece.points_out", "count"),
            ("semigroup.truncate.self_s", "s"),
            ("algebra.is_decomposable.self_s", "s"),
            ("algebra.stable_fit.calls", "count"),
            ("algebra.stable_fit.self_s", "s"),
            ("algebra.stable_fit.fn_calls", "count"),
            ("algebra.stable_fit.fn_distinct_ratio", "ratio"),
            ("algebra.volume_fn_count.self_s", "s"),
            ("ideals.product.calls", "count"),
            ("ideals.product.self_s", "s"),
            ("ideals.product.sums_in", "count"),
            ("ideals.product.kept_ratio", "ratio"),
            ("ideals.quotient_dim.self_s", "s"),
            ("ideals.body_family.self_s", "s"),
            ("polytope.dd_extreme_rays.calls", "count"),
            ("polytope.dd_extreme_rays.self_s", "s"),
            ("polytope.dd_extreme_rays.rays_out", "count"),
            ("polytope.convex_hull.self_s", "s"),
            ("polytope.convex_hull.points_in", "count"),
            ("polytope.convex_hull.kept_ratio", "ratio"),
            ("polytope.contains.calls", "count"),
            ("polytope.integral_volume.self_s", "s"),
            ("polytope.solve_square.self_s", "s"),
            ("lp.feasible_nonneg.calls", "count"),
            ("lattice.hermite_normal_form.calls", "count"),
            ("trace.tasks", "count"),
            ("trace.traced_tasks_per_s", "1/s"),
            ("trace.untraced_tasks_per_s", "1/s")):
        units[name] = unit
    return units


# ---------------------------------------------------------------------------

def import_oklab():
    """Import oklab and its CLI from this checkout's ``src``, freshly."""
    for name in [m for m in sys.modules
                 if m == "oklab" or m.startswith("oklab.")]:
        del sys.modules[name]
    importlib.import_module("oklab.cli")
    return sys.modules["oklab"]


def run_task(ok, task):
    """(seconds, output, error) of one call; the report is read untimed."""
    if task.report and os.path.exists(task.report):
        os.remove(task.report)
    t0 = perf_counter()
    try:
        out, err = task.run(ok), None
    except (Exception, SystemExit) as exc:
        out, err = None, exc
    elapsed = perf_counter() - t0
    if err is None and task.report:
        try:
            with open(task.report, encoding="utf-8") as fh:
                out = (out, fh.read())
        except OSError as exc:
            err = exc
    return elapsed, out, err


def verdict(task, out, err):
    """None when the answer is right, else the reason it is not."""
    if err is not None:
        return f"raised {type(err).__name__}: {err}"
    try:
        task.check(out)
    except Exception as exc:  # an oracle rejection or a malformed answer
        return f"oracle: {type(exc).__name__}: {exc}"[:300]
    return None


def set_up(warmups):
    """Median over SETUP_REPS of: import oklab + one warm-up task per kind."""
    times, failures = [], []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        ok = import_oklab()
        outs = [run_task(ok, task)[1:] for task in warmups]
        times.append(perf_counter() - t0)
        failures += [f"warm-up {task.kind}: {why}"
                     for task, (out, err) in zip(warmups, outs)
                     if (why := verdict(task, out, err))]
    return statistics.median(times), ok, failures


def loop(ok, pool, seconds=None, count=None, tracer=None):
    """Closed loop over the pool: until ``seconds`` (and MIN_TASKS) or
    ``count`` tasks.  Returns ([(pool index, seconds, out, err)], wall)."""
    results = []
    start = perf_counter()
    while True:
        i = len(results) % len(pool)
        if tracer is not None:
            tracer.begin_task(len(results), pool[i].kind)
        elapsed, out, err = run_task(ok, pool[i])
        if tracer is not None:
            tracer.end_task()
        results.append((i, elapsed, out, err))
        if count is not None:
            if len(results) >= count:
                break
        elif perf_counter() - start >= seconds and \
                len(results) >= MIN_TASKS:
            break
    return results, perf_counter() - start


def judge(pool, results):
    """Failure reasons, and per-kind latency samples in ms."""
    failures, by_kind = [], defaultdict(list)
    for i, elapsed, out, err in results:
        by_kind[pool[i].kind].append(elapsed * 1e3)
        why = verdict(pool[i], out, err)
        if why:
            failures.append(f"{pool[i].kind} [{pool[i].label}]: {why}")
    return failures, by_kind


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def untraced(ok, pool, seconds, setup_s):
    results, wall = loop(ok, pool, seconds=seconds)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failures, by_kind = judge(pool, results)
    ms = [elapsed * 1e3 for _, elapsed, _, _ in results]
    for kind, vals in sorted(by_kind.items()):
        print(f"  {kind:16s} n={len(vals):4d}  "
              f"median={statistics.median(vals):9.2f} ms  "
              f"max={max(vals):9.2f} ms")
    print(f"samples={len(ms)}  error_rate={len(failures) / len(ms):.4f}")
    values = {
        "task_ms.p50": percentile(ms, 50),
        "task_ms.p90": percentile(ms, 90),
        "tasks_per_s": len(results) / wall,
        "peak_rss_mb": peak_kb / 1024,
        "setup_s": setup_s,
    }
    return values, len(results), failures


def traced(ok, pool, seconds, label):
    from perfbench.tracing import LAYERS, SPANS, Tracer
    plain, plain_wall = loop(ok, pool, seconds=seconds / 2)
    tracer = Tracer()
    try:
        patches = tracer.install()
        results, wall = loop(ok, pool, count=len(plain), tracer=tracer)
    finally:
        tracer.uninstall()
    print(f"trace: {patches} patches, {len(tracer.start)} spans")
    failures = judge(pool, plain)[0] + judge(pool, results)[0]
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write(OUT / f"spans-{label}.tsv.gz")

    calls, self_s = tracer.layer_totals()
    counts = tracer.counts
    values = {}
    for layer in LAYERS:
        values[f"{layer}.calls"] = calls.get(layer, 0)
        values[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    for metric, span in SPANS.items():
        values[f"{metric}.calls"] = tracer.calls.get(span, 0)
        values[f"{metric}.self_s"] = tracer.self_s.get(span, 0.0)
    values.update(counts)
    values["algebra.stable_fit.fn_distinct_ratio"] = _ratio(
        counts["algebra.stable_fit.fn_distinct"],
        counts["algebra.stable_fit.fn_calls"])
    values["ideals.product.kept_ratio"] = _ratio(
        counts["ideals.product.kept"], counts["ideals.product.sums_in"])
    values["polytope.convex_hull.kept_ratio"] = _ratio(
        counts["polytope.convex_hull.vertices_out"],
        counts["polytope.convex_hull.points_in"])
    values["trace.tasks"] = len(results)
    values["trace.traced_tasks_per_s"] = len(results) / wall
    values["trace.untraced_tasks_per_s"] = len(plain) / plain_wall
    total = sum(self_s.values()) or 1.0
    print("self-time share: " + ", ".join(
        f"{layer} {self_s.get(layer, 0.0) / total:.1%}"
        for layer in sorted(self_s, key=self_s.get, reverse=True)))
    return values, len(plain) + len(results), failures


def _ratio(num, den):
    return num / den if den else 0.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("count", "exact", "bridge"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "oklab" / "__init__.py").is_file():
        print(f"error: no oklab sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    import numpy  # noqa: F401  -- oklab's dependency, loaded before set-up

    from perfbench.workloads import WARMUP_SEED, build

    label = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir = OUT / f"work-{label}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        pool, warmups = build(
            args.workload, random.Random(f"{args.workload}:{args.seed}"),
            random.Random(f"{args.workload}:{WARMUP_SEED}"), str(workdir),
            POOL_ROUNDS[args.workload])
        setup_s, ok, failures = set_up(warmups)
        if args.trace:
            values, attempted, run_failures = traced(
                ok, pool, args.seconds, label)
            units = per_layer_units()
        else:
            values, attempted, run_failures = untraced(
                ok, pool, args.seconds, setup_s)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for why in (failures + run_failures)[:20]:
        print("FAILED " + why)
    result = {
        "correct": not failures and not run_failures,
        "attempted": attempted,
        "failed": len(run_failures),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
