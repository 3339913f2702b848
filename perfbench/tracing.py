"""Span tracing of fatoulab's public functions, installed from outside.

`Tracer.install` replaces each measured function by a wrapper that records a
span (name, start, end, parent, case label, points). It patches:

* the module attribute, e.g. ``fatoulab.groups.mul``, and every other name
  in a ``fatoulab`` module bound to the same function object (the names
  ``extension`` and ``scenarios`` import with ``from .measures import ...``);
* the methods ``HeatExtension.__call__`` and ``DensityMeasure.density_at``
  on their classes;
* ``gamma`` and ``gamma_accurate`` on each kernel profile instance.

Spans stay in memory until `write` dumps them. Nothing under ``src/`` is
changed. `oracle` and `cli` are not measured.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

_perf = time.perf_counter


# Each points function returns (points, extra counts or None).
def _one(out, args):
    return 1, None


def _size(out, args):
    return int(np.size(out)), None


def _point_rows(out, args):
    a = np.asarray(out)
    return (int(a.size // a.shape[-1]) if a.ndim else 1), None


def _key_len(key):
    return lambda out, args: (len(out[key]), None)


def _gamma_points(spec: dict):
    """Points of a gamma call, split by the branch that evaluates them.

    The Mehler-cosine profile reads a point from its spline table when
    |z| <= table_rho_max and |s| <= table_sig_max; otherwise by direct
    quadrature, with the contour shifted when |s| > contour_sigma.
    Closed-form profiles have no branches; only their zeros are counted.
    """
    branches = "table_rho_max" in spec

    def count(out, args):
        vals = np.atleast_1d(out)
        extra = {"zero_points": int(np.count_nonzero(vals == 0.0))}
        if branches:
            c = np.atleast_2d(np.asarray(args[0], dtype=float))
            rho = np.hypot(c[..., 0], c[..., 1])
            sig = np.abs(c[..., 2])
            table = (rho <= spec["table_rho_max"]) & (
                sig <= spec["table_sig_max"])
            far = ~table & (sig > spec["contour_sigma"])
            extra["table_points"] = int(np.count_nonzero(table))
            extra["far_points"] = int(np.count_nonzero(far))
            extra["near_points"] = int(table.size) - extra[
                "table_points"] - extra["far_points"]
        return int(vals.size), extra

    return count


# (module, function, points-of-call); points count the query points a call
# handles, or 1 for calls that handle one case, ball, time or scale.
MODULE_FUNCS = [
    ("groups", "mul", _point_rows),
    ("groups", "inverse", _point_rows),
    ("groups", "dilate", _point_rows),
    ("groups", "norm", _size),
    ("groups", "dist", _size),
    ("groups", "ball_contains", _size),
    ("kernels", "kernel_mass", _one),
    ("kernels", "check_semigroup", _one),
    ("kernels", "certify_gaussian", _one),
    ("kernels", "pde_residual", _one),
    ("kernels", "eval_kernel", _size),
    ("kernels", "validate_profile", _one),
    ("measures", "measure_ball", _one),
    ("measures", "translate_measure", _one),
    ("measures", "restrict", _one),
    ("measures", "restrict_complement", _one),
    ("measures", "strong_derivative",
     lambda out, args: (int(out.quotients.size), None)),
    ("extension", "parabolic_limit",
     lambda out, args: (int(out.values.size), None)),
    ("extension", "tail_vanishing_check", _key_len("sup_values")),
    ("maximal", "hardy_littlewood", _key_len("radii")),
    ("maximal", "radial_max", _key_len("scales")),
    ("maximal", "nontangential_max", _key_len("scales")),
    ("maximal", "heat_max", _key_len("scales")),
    ("maximal", "check_sandwich", _one),
    ("maximal", "check_heat_chain", _one),
    ("scenarios", "run_scenario", _one),
    ("scenarios", "run_maximal_case", _one),
    ("scenarios", "build_measure", _one),
    ("scenarios", "report_to_json", _one),
]
KINDS = ("atomic", "density", "mixture")
KIND_SPLIT = ("measures.measure_ball", "extension.u")
GAMMA_BRANCHES = ("table_points", "near_points", "far_points", "zero_points")
SETUP_METRICS = ("groups.construct_s", "kernels.profile_build_s")
TRACE_METRICS = (
    ("trace.overhead_s", "s", "lower"),
    ("trace.self_cover", "ratio", "higher"),
    ("trace.spans", "count", "lower"),
)


def span_names() -> list[str]:
    """Every span name a traced run can report."""
    names = []
    for mod, fn, _ in MODULE_FUNCS:
        name = f"{mod}.{fn}"
        if name in KIND_SPLIT:
            names += [f"{name}.{k}" for k in KINDS]
        else:
            names.append(name)
    return names + ["kernels.gamma", "kernels.gamma_accurate",
                    "measures.density_at"] + [
        f"extension.u.{k}" for k in KINDS]


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    specs = [(m, "s", "lower") for m in SETUP_METRICS]
    for name in span_names():
        specs += [(f"{name}.calls", "count", "lower"),
                  (f"{name}.points", "count", "lower"),
                  (f"{name}.self_s", "s", "lower")]
        if name == "kernels.gamma":
            specs += [(f"{name}.{b}", "count",
                       "higher" if b == "table_points" else "lower")
                      for b in GAMMA_BRANCHES]
    return specs + list(TRACE_METRICS)


def _kind(mu) -> str:
    return type(mu).__name__.replace("Measure", "").lower()


class Tracer:
    """In-memory span recorder; one per traced process.

    Spans are stored column-wise in flat lists of numbers and strings, so
    recording one allocates no container the garbage collector must scan.
    """

    def __init__(self):
        self.name, self.start, self.end = [], [], []
        self.parent, self.case_of, self.points = [], [], []
        self.extra = {}      # span index -> branch counts (gamma spans)
        self._stack = []
        self.case = ""

    def _wrap(self, name, fn, points, name_of=None):
        names, starts, ends = self.name, self.start, self.end
        parents, cases, pts, extras = (self.parent, self.case_of,
                                       self.points, self.extra)
        stack = self._stack

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name_of(args) if name_of else name)
            parents.append(stack[-1] if stack else -1)
            cases.append(self.case)
            ends.append(0.0)
            pts.append(0)
            stack.append(idx)
            out = None
            t0 = _perf()
            starts.append(t0)
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                if out is not None:
                    pts[idx], extra = points(out, args)
                    if extra:
                        extras[idx] = extra
                ends[idx] = _perf()
                stack.pop()

        return wrapper

    def install(self) -> None:
        """Wrap the module functions and class methods of ``fatoulab``."""
        import fatoulab.extension as E
        import fatoulab.measures as MS

        pkg = [mod for key, mod in sys.modules.items()
               if key == "fatoulab" or key.startswith("fatoulab.")]
        for mod_name, fn_name, points in MODULE_FUNCS:
            orig = getattr(sys.modules[f"fatoulab.{mod_name}"], fn_name)
            name = f"{mod_name}.{fn_name}"
            name_of = None
            if name in KIND_SPLIT:
                name_of = lambda a, _n=name: f"{_n}.{_kind(a[0])}"
            wrapped = self._wrap(name, orig, points, name_of)
            for mod in pkg:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapped)
        E.HeatExtension.__call__ = self._wrap(
            "extension.u", E.HeatExtension.__call__, _size,
            lambda a: f"extension.u.{_kind(a[0].mu)}")
        MS.DensityMeasure.density_at = self._wrap(
            "measures.density_at", MS.DensityMeasure.density_at, _size)

    def wrap_profile(self, profile) -> None:
        """Wrap a kernel profile's gamma callables, counting gamma branches."""
        profile.gamma = self._wrap("kernels.gamma", profile.gamma,
                                   _gamma_points(profile.quadrature_spec))
        profile.gamma_accurate = self._wrap(
            "kernels.gamma_accurate", profile.gamma_accurate, _size)

    def summary(self, run_s: float) -> dict:
        """Per-span-name calls, points, self time and gamma branch counts."""
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        self_s = list(dur)
        for i, parent in enumerate(self.parent):
            if parent >= 0:
                self_s[parent] -= dur[i]
        acc = {nm: {"calls": 0, "points": 0, "self_s": 0.0}
               for nm in span_names()}
        for b in GAMMA_BRANCHES:
            acc["kernels.gamma"][b] = 0
        for i, nm in enumerate(self.name):
            rec = acc[nm]
            rec["calls"] += 1
            rec["points"] += self.points[i]
            rec["self_s"] += self_s[i]
            for key, val in self.extra.get(i, {}).items():
                rec[key] += val
        total_self = sum(self_s)
        return {"layers": acc, "self_sum_s": total_self,
                "self_cover": total_self / run_s if run_s > 0 else 0.0,
                "spans": n}

    def write(self, path: str) -> None:
        """Dump spans as JSON lines: name, start, end, parent, case, points
        and, for gamma spans, the branch counts."""
        with open(path, "w") as fh:
            for i in range(len(self.name)):
                row = [self.name[i], self.start[i], self.end[i],
                       self.parent[i], self.case_of[i], self.points[i]]
                if i in self.extra:
                    row.append(self.extra[i])
                fh.write(json.dumps(row, separators=(",", ":")) + "\n")
