"""Per-layer spans recorded from outside the program.

``Tracer.install`` wraps the functions and methods of each oklab layer
module, in the module that defines them and at every other name an
oklab module holds them under (imported aliases, dispatch dicts and the
package namespace), so calls between layers are seen.  ``uninstall``
puts every original back and checks that it did.

Spans live in memory as parallel arrays (task id, name, start, end,
parent) and are written out once, after the traced run.  A span's self
time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
from array import array
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "serialize", "algebra", "semigroup", "ideals", "polytope",
          "lp", "lattice")

# Private functions that carry a named metric.
PRIVATE = {"algebra": {"_stable_fit"}, "polytope": {"_solve_square"}}

# Span behind each named per-layer metric.
SPANS = {
    "semigroup.counts_upto": "semigroup.GradedSemigroup.counts_upto",
    "semigroup.piece_size": "semigroup.GradedSemigroup.piece_size",
    "semigroup.kk_limit_check": "semigroup.GradedSemigroup.kk_limit_check",
    "semigroup.graded_piece": "semigroup.GradedSemigroup.graded_piece",
    "semigroup.truncate": "semigroup.GradedSemigroup.truncate",
    "algebra.is_decomposable": "algebra.MonomialAlgebra.is_decomposable",
    "algebra.stable_fit": "algebra._stable_fit",
    "algebra.volume_fn_count": "algebra.MonomialAlgebra.volume_fn_count",
    "ideals.product": "ideals.product",
    "ideals.quotient_dim": "ideals.quotient_dim",
    "ideals.body_family": "ideals.BodyFamily.ideal",
    "polytope.dd_extreme_rays": "polytope.dd_extreme_rays",
    "polytope.convex_hull": "polytope.convex_hull",
    "polytope.contains": "polytope.Polytope.contains",
    "polytope.integral_volume": "polytope.integral_volume",
    "polytope.solve_square": "polytope._solve_square",
    "lp.feasible_nonneg": "lp.feasible_nonneg",
    "lattice.hermite_normal_form": "lattice.hermite_normal_form",
}


# -- boundary counts: before(tracer, args) -> args; after(tracer, args, out)

def _count_fit_calls(tracer, args):
    fn, seen = args[0], set()

    def counted(point):
        tracer.counts["algebra.stable_fit.fn_calls"] += 1
        if point not in seen:
            seen.add(point)
            tracer.counts["algebra.stable_fit.fn_distinct"] += 1
        return fn(point)

    return (counted,) + tuple(args[1:])


def _materialize_points(tracer, args):
    points = list(args[0])
    tracer.counts["polytope.convex_hull.points_in"] += len(points)
    return (points,) + tuple(args[1:])


def _product_in(tracer, args):
    i1, i2 = args[0], args[1]
    tracer.counts["ideals.product.sums_in"] += \
        len(i1.min_gens) * len(i2.min_gens)
    return args


def _add(key, measure):
    def after(tracer, args, out):
        tracer.counts[key] += measure(out)
    return after


COUNTERS = (
    "semigroup.counts_upto.degrees_out", "semigroup.graded_piece.points_out",
    "algebra.stable_fit.fn_calls", "algebra.stable_fit.fn_distinct",
    "ideals.product.sums_in", "ideals.product.kept",
    "polytope.dd_extreme_rays.rays_out", "polytope.convex_hull.points_in",
    "polytope.convex_hull.vertices_out",
)

BEFORE = {
    "algebra._stable_fit": _count_fit_calls,
    "polytope.convex_hull": _materialize_points,
    "ideals.product": _product_in,
}
AFTER = {
    "semigroup.GradedSemigroup.counts_upto":
        _add("semigroup.counts_upto.degrees_out", len),
    "semigroup.GradedSemigroup.graded_piece":
        _add("semigroup.graded_piece.points_out", len),
    "polytope.dd_extreme_rays":
        _add("polytope.dd_extreme_rays.rays_out", lambda out: len(out[1])),
    "polytope.convex_hull":
        _add("polytope.convex_hull.vertices_out", lambda p: len(p.vertices)),
    "ideals.product": _add("ideals.product.kept", lambda i: len(i.min_gens)),
}


def _targets(module):
    """(owner, attribute, function, span name) for one layer module."""
    layer = module.__name__.rsplit(".", 1)[1]
    out = []
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) and (not name.startswith("_") or
                                        name in PRIVATE.get(layer, ())):
            out.append((module, name, obj, f"{layer}.{name}"))
        elif inspect.isclass(obj):
            for mname, member in vars(obj).items():
                if mname.startswith("_"):
                    continue
                func = getattr(member, "__func__", member)
                if inspect.isfunction(func):
                    out.append((obj, mname, member,
                                f"{layer}.{obj.__name__}.{mname}"))
    return [t for t in out
            if not inspect.isgeneratorfunction(
                getattr(t[2], "__func__", t[2]))]


class Tracer:
    """Spans and boundary counts for one traced run."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.task = array("i")
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack = []          # [span index, child time]
        self._task_id = -1
        self._patches = []        # (owner, key, original, replacement)

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id):
        idx = len(self.start)
        self.task.append(self._task_id)
        self.name.append(name_id)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append([idx, 0.0])
        self.start.append(perf_counter())
        return idx

    def _close(self):
        now = perf_counter()
        idx, child = self._stack.pop()
        self.end[idx] = now
        duration = now - self.start[idx]
        name = self.names[self.name[idx]]
        self.calls[name] += 1
        self.self_s[name] += duration - child
        if self._stack:
            self._stack[-1][1] += duration

    def begin_task(self, task_id, kind):
        self._task_id = task_id
        self._open(self._name_id(f"task.{kind}"))

    def end_task(self):
        self._close()
        assert not self._stack, "unbalanced spans"

    def _wrap(self, fn, span):
        name_id = self._name_id(span)
        before, after = BEFORE.get(span), AFTER.get(span)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(tracer, args)
            tracer._open(name_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close()
            if after is not None:
                after(tracer, args, out)
            return out

        return wrapper

    # -- install / uninstall -------------------------------------------------

    def _patch(self, owner, key, original, replacement):
        if isinstance(owner, dict):
            owner[key] = replacement
        else:
            setattr(owner, key, replacement)
        self._patches.append((owner, key, original, replacement))

    def install(self):
        """Wrap every layer function; returns the number of patches."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrapped = {}                     # id(original) -> (original, wrapper)
        for layer in LAYERS:
            module = sys.modules[f"oklab.{layer}"]
            for owner, key, member, span in _targets(module):
                if isinstance(member, (classmethod, staticmethod)):
                    wrapper = type(member)(self._wrap(member.__func__, span))
                else:
                    wrapper = self._wrap(member, span)
                    wrapped[id(member)] = (member, wrapper)
                self._patch(owner, key, member, wrapper)
        for module in oklab_modules():
            for key, obj in list(vars(module).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(module, key, obj, hit[1])
                elif type(obj) is dict:
                    for k, v in list(obj.items()):
                        hit = wrapped.get(id(v))
                        if hit is not None and hit[0] is v:
                            self._patch(obj, k, v, hit[1])
        return len(self._patches)

    def uninstall(self):
        """Restore every original and check that nothing is left wrapped."""
        for owner, key, original, _ in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        for owner, key, original, _ in self._patches:
            now = owner[key] if isinstance(owner, dict) else \
                inspect.getattr_static(owner, key)
            if now is not original:
                raise RuntimeError(f"{owner!r}.{key} was not restored")
        self._patches = []

    # -- results -------------------------------------------------------------

    def layer_totals(self):
        calls, self_s = defaultdict(int), defaultdict(float)
        for name, n in self.calls.items():
            layer = name.split(".", 1)[0]
            if layer in LAYERS:
                calls[layer] += n
                self_s[layer] += self.self_s[name]
        return calls, self_s

    def write(self, path):
        """Spans as gzip TSV: task, name, start_us, end_us, parent."""
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span\ttask\tname\tstart_us\tend_us\tparent\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.task[i]}\t{self.names[self.name[i]]}\t"
                         f"{(self.start[i] - t0) * 1e6:.1f}\t"
                         f"{(self.end[i] - t0) * 1e6:.1f}\t"
                         f"{self.parent[i]}\n")


def oklab_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "oklab" or name.startswith("oklab."))]
