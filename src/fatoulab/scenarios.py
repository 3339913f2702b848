"""Scenario configs, the boundary-behaviour pipeline, and preset suites.

A scenario fixes a group, a measure, a boundary vertex, and apertures, and
asks one question: does the strong derivative of the measure at the vertex
exist exactly when its heat extension has parabolic limits there, with the
same value? The pipeline normalizes the vertex to the origin by group
translation, localizes the measure to a ball whose discarded tail is
checked to contribute vanishing heat, then runs both sides and compares:

* both sides converge and agree  -> verdict "equivalent";
* both sides fail to converge    -> verdict "both-diverge";
* one converges, the other not,
  or the values disagree         -> verdict "MISMATCH".

``decisions.scenario_decision`` makes that call, and checks the
expectations, from the traces alone; every bar is ``decisions.TABLE``'s.

Configs are declarative JSON with a strict schema: unknown keys are
rejected everywhere, densities come from a named whitelist, and reports are
byte-reproducible (canonical JSON, no timestamps, provenance = config hash
+ package version + certified constants).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from ._version import __version__
from .errors import ConfigError
from . import groups as G
from . import kernels as K
from .decisions import (
    SCALES,
    VERDICT_BOTH_DIVERGE,
    VERDICT_EQUIVALENT,
    VERDICT_MISMATCH,
    TraceDecision,
    scenario_decision,
    trailing_window,
)
from .measures import (
    AtomicMeasure,
    DensityMeasure,
    MixtureMeasure,
    restrict,
    strong_derivative,
    trace_to_csv,
    translate_measure,
)
from .extension import (
    HeatExtension,
    ParabolicRegion,
    limit_trace_to_csv,
    parabolic_limit,
    tail_vanishing_check,
)
from . import maximal as M

__all__ = [
    "SCHEMA_VERSION",
    "VERDICT_EQUIVALENT",
    "VERDICT_BOTH_DIVERGE",
    "VERDICT_MISMATCH",
    "Scenario",
    "ScenarioReport",
    "build_measure",
    "run_scenario",
    "run_suite",
    "summarize_suite",
    "preset_suite",
    "suite_names",
    "emit_report",
    "report_to_json",
]

SCHEMA_VERSION = 1


def _check_keys(obj: dict, allowed: set, required: set, where: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")


def _number(v, where: str, minimum=None, strict=False) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {v!r}")
    v = float(v)
    if not math.isfinite(v):
        raise ConfigError(f"{where}: must be finite")
    if minimum is not None and (v <= minimum if strict else v < minimum):
        op = ">" if strict else ">="
        raise ConfigError(f"{where}: must be {op} {minimum}")
    return v


# ---------------------------------------------------------------------------
# measure construction (whitelisted density families)
# ---------------------------------------------------------------------------

def _constant_fn(g: G.GroupDescriptor, c: float):
    """(the density c at every point, without the gauge; c; no singular
    point). A family whose gauge term has coefficient 0 gives c + 0 * g =
    c bit for bit for a finite gauge term g; adding 0.0 maps a c of -0.0
    to 0.0, as that sum does. The constant is declared to the
    `DensityMeasure`, and so is analyticity everywhere."""
    c = c + 0.0

    def fn(pts, _c=c):
        return np.full(np.shape(pts)[:-1], _c)

    return fn, c, np.zeros((0, g.total_dim))


def _radial_fn(g: G.GroupDescriptor, radial):
    """(radial of the gauge; no constant; the base origin). The gauge is
    not smooth at the origin (on H1 not even its square is), so the origin
    is declared singular and is the only such point."""
    def fn(pts):
        return radial(np.asarray(G.norm(g, pts)))

    return fn, None, np.zeros((1, g.total_dim))


def _density_fn(g: G.GroupDescriptor, family: str, params: dict, where: str):
    """(density function, its declared constant or None, its declared
    singular points) of a family."""
    if family == "polynomial":
        _check_keys(params, {"constant", "quadratic"}, {"constant"}, where)
        c0 = _number(params["constant"], f"{where}.constant", minimum=0.0)
        c2 = _number(params.get("quadratic", 0.0), f"{where}.quadratic",
                     minimum=0.0)
        if c2 == 0.0:
            return _constant_fn(g, c0)

        def radial(rho, _c0=c0, _c2=c2):
            return _c0 + _c2 * rho ** 2

        return _radial_fn(g, radial)
    if family == "gaussian-bump":
        _check_keys(params, {"baseline", "amplitude", "width"},
                    {"baseline", "amplitude", "width"}, where)
        base = _number(params["baseline"], f"{where}.baseline", minimum=0.0)
        amp = _number(params["amplitude"], f"{where}.amplitude", minimum=0.0)
        width = _number(params["width"], f"{where}.width", minimum=0.0,
                        strict=True)
        if amp == 0.0:
            return _constant_fn(g, base)

        def radial(rho, _b=base, _a=amp, _w=width):
            return _b + _a * np.exp(-(rho / _w) ** 2)

        return _radial_fn(g, radial)
    if family == "log-oscillatory":
        _check_keys(params, {"baseline", "amplitude"},
                    {"baseline", "amplitude"}, where)
        base = _number(params["baseline"], f"{where}.baseline", minimum=0.0)
        amp = _number(params["amplitude"], f"{where}.amplitude", minimum=0.0)
        if amp > base:
            raise ConfigError(
                f"{where}: amplitude must not exceed baseline (nonnegativity)"
            )
        if amp == 0.0:
            return _constant_fn(g, base)

        def radial(rho, _b=base, _a=amp):
            return _b + _a * np.sin(np.log(1.0 / np.maximum(rho, 1e-300)))

        return _radial_fn(g, radial)
    raise ConfigError(f"{where}: unknown density family {family!r}")


def build_measure(g: G.GroupDescriptor, spec: dict, where: str = "measure"):
    """Construct a measure from a validated config fragment."""
    _check_keys(
        spec,
        {"type", "points", "weights", "family", "params", "box", "components"},
        {"type"},
        where,
    )
    kind = spec["type"]
    if kind == "atomic":
        _check_keys(spec, {"type", "points", "weights"},
                    {"type", "points", "weights"}, where)
        pts = np.asarray(spec["points"], dtype=float)
        w = np.asarray(spec["weights"], dtype=float)
        if pts.ndim != 2 or pts.shape[1] != g.total_dim:
            raise ConfigError(
                f"{where}.points: expected shape (k, {g.total_dim})"
            )
        return AtomicMeasure(g, pts, w)
    if kind == "density":
        _check_keys(spec, {"type", "family", "params", "box"},
                    {"type", "family"}, where)
        fam = spec["family"]
        params = spec.get("params", {})
        box = np.asarray(spec.get("box", g.default_box), dtype=float)
        if box.shape != (g.total_dim, 2):
            raise ConfigError(f"{where}.box: expected shape ({g.total_dim}, 2)")
        fn, constant, singular = _density_fn(g, fam, params,
                                             f"{where}.params")
        return DensityMeasure(g, fn, box, constant, singular)
    if kind == "mixture":
        _check_keys(spec, {"type", "components"}, {"type", "components"}, where)
        comps = spec["components"]
        if not isinstance(comps, list) or not comps:
            raise ConfigError(f"{where}.components: expected a non-empty list")
        return MixtureMeasure(
            g,
            [build_measure(g, c, f"{where}.components[{i}]")
             for i, c in enumerate(comps)],
        )
    raise ConfigError(f"{where}.type: unknown measure type {kind!r}")


# ---------------------------------------------------------------------------
# scenario config
# ---------------------------------------------------------------------------

_SCENARIO_KEYS = {
    "schema_version", "label", "group", "measure", "vertex", "apertures",
    "restrict_radius", "expected_verdict", "expected_limit", "seed",
}
# objects whose every key is gone: the scale schedule is decisions.SCALES
_REMOVED_OBJECTS = ("derivative", "limit")


def _reject_removed(cfg: dict) -> None:
    for side in _REMOVED_OBJECTS:
        if side in cfg:
            opts = cfg[side]
            keys = sorted(opts) if isinstance(opts, dict) else []
            raise ConfigError(
                f"config.{side}: removed (keys {keys}); both traces read "
                f"the scale schedule decisions.SCALES"
            )


@dataclass(eq=False)
class Scenario:
    """Validated scenario ready to run."""

    label: str
    group: G.GroupDescriptor
    measure_spec: dict
    vertex: np.ndarray
    apertures: tuple
    restrict_radius: float | None
    expected_verdict: str | None
    expected_limit: float | None
    seed: int
    config: dict = field(repr=False, default=None)
    config_sha256: str = ""

    @classmethod
    def from_config(cls, cfg: dict) -> "Scenario":
        _check_keys(cfg, _SCENARIO_KEYS | set(_REMOVED_OBJECTS),
                    {"schema_version", "label", "group", "measure"}, "config")
        _reject_removed(cfg)
        if cfg["schema_version"] != SCHEMA_VERSION:
            raise ConfigError(
                f"config.schema_version: expected {SCHEMA_VERSION}, "
                f"got {cfg['schema_version']!r}"
            )
        if not isinstance(cfg["label"], str) or not cfg["label"]:
            raise ConfigError("config.label: expected a non-empty string")
        if cfg["group"] not in G.GROUP_LABELS:
            raise ConfigError(
                f"config.group: expected one of {G.GROUP_LABELS}, "
                f"got {cfg['group']!r}"
            )
        g = G.get_group(cfg["group"])
        # build once now to validate the measure fragment eagerly
        build_measure(g, cfg["measure"])
        vertex = np.asarray(cfg.get("vertex", [0.0] * g.total_dim), dtype=float)
        if vertex.shape != (g.total_dim,):
            raise ConfigError(f"config.vertex: expected {g.total_dim} coords")
        if not np.all(np.isfinite(vertex)):
            raise ConfigError("config.vertex: coordinates must be finite")
        aps = cfg.get("apertures", [0.5, 1.0])
        if not isinstance(aps, list) or not aps:
            raise ConfigError("config.apertures: expected a non-empty list")
        apertures = tuple(
            _number(a, "config.apertures[]", minimum=0.0, strict=True)
            for a in aps
        )
        rr = cfg.get("restrict_radius")
        if rr is not None:
            rr = _number(rr, "config.restrict_radius", minimum=0.0, strict=True)
        ev = cfg.get("expected_verdict")
        if ev is not None and ev not in (
            VERDICT_EQUIVALENT, VERDICT_BOTH_DIVERGE, VERDICT_MISMATCH
        ):
            raise ConfigError(f"config.expected_verdict: unknown verdict {ev!r}")
        el = cfg.get("expected_limit")
        if el is not None:
            el = _number(el, "config.expected_limit")
        seed = cfg.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ConfigError("config.seed: expected an integer")
        canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
        sha = hashlib.sha256(canonical.encode()).hexdigest()
        return cls(
            label=cfg["label"],
            group=g,
            measure_spec=cfg["measure"],
            vertex=vertex,
            apertures=apertures,
            restrict_radius=rr,
            expected_verdict=ev,
            expected_limit=el,
            seed=seed,
            config=cfg,
            config_sha256=sha,
        )


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class ScenarioReport:
    label: str
    group_label: str
    verdict: str
    derivative: dict
    limits: dict          # aperture (str) -> summary dict
    tail: dict
    reductions: list
    agreement: dict
    provenance: dict
    expected_verdict: str | None
    expected_limit: float | None
    matches_expected: bool
    traces: dict = field(repr=False, default_factory=dict)


def run_scenario(scenario: Scenario | dict) -> ScenarioReport:
    """Run the full boundary-behaviour pipeline for one scenario."""
    if isinstance(scenario, dict):
        scenario = Scenario.from_config(scenario)
    g = scenario.group
    profile = K.profile_for(g)
    c0 = K.gaussian_certificate(profile).c0
    mu = build_measure(g, scenario.measure_spec)
    reductions = []

    mu_v = translate_measure(mu, scenario.vertex)
    reductions.append({
        "op": "translate-vertex-to-origin",
        "vertex": scenario.vertex.tolist(),
    })

    radius = scenario.restrict_radius or g.restrict_radius
    tail = tail_vanishing_check(mu_v, profile, radius)
    reductions.append({
        "op": "tail-heat-check",
        "radius": radius,
        "outer_mass": tail["outer_mass"],
        "vanishes": tail["vanishes"],
    })

    mu_loc = restrict(mu_v, G.Ball(np.zeros(g.total_dim), radius))
    reductions.append({"op": "restrict-to-ball", "radius": radius})

    dtrace = strong_derivative(mu_loc, np.zeros(g.total_dim),
                               radii=SCALES.radii(radius))

    u = HeatExtension(mu_loc, profile)
    t_first = SCALES.first_time(radius)
    limits, ltraces = {}, {}
    for alpha in scenario.apertures:
        region = ParabolicRegion(np.zeros(g.total_dim), aperture=alpha,
                                 t_max=t_first)
        lt = parabolic_limit(u, region)
        key = repr(float(alpha))
        limits[key] = {
            "aperture": alpha,
            "estimate": lt.estimate,
            "oscillation": lt.oscillation,
            "converged": lt.converged,
        }
        ltraces[key] = lt

    decision = scenario_decision(
        TraceDecision(dtrace.estimate, dtrace.oscillation, dtrace.converged),
        {key: TraceDecision(lt.estimate, lt.oscillation, lt.converged)
         for key, lt in ltraces.items()},
        expected_verdict=scenario.expected_verdict,
        expected_limit=scenario.expected_limit,
        tail_vanishes=tail["vanishes"],
    )

    provenance = {
        "schema_version": SCHEMA_VERSION,
        "config_sha256": scenario.config_sha256,
        "package_version": __version__,
        "seed": scenario.seed,
        "constants": {
            "quasi_triangle_const": g.quasi_triangle_const,
            "unit_ball_volume": g.unit_ball_volume,
            "gauss_c0": c0,
        },
        "scales": {
            "n_scales": SCALES.n_scales,
            "kappa": SCALES.kappa,
            "r_first": float(dtrace.radii[0]),
            "r_last": float(dtrace.radii[-1]),
            "t_first": t_first,
            "t_last": float(lt.t_values[-1]),  # every aperture's last t
        },
    }
    traces = {"derivative": trace_to_csv(dtrace)}
    for key, lt in ltraces.items():
        traces[f"limit-{key}"] = limit_trace_to_csv(lt)
    return ScenarioReport(
        label=scenario.label,
        group_label=g.label,
        verdict=decision.verdict,
        derivative={
            "estimate": dtrace.estimate,
            "oscillation": dtrace.oscillation,
            "converged": dtrace.converged,
            "quadrature_error": float(trailing_window(dtrace.errors).max()),
        },
        limits=limits,
        tail={
            "radius": tail["radius"],
            "outer_mass": tail["outer_mass"],
            "sup_at_smallest_t": float(tail["sup_values"][-1]),
            "vanishes": tail["vanishes"],
            "monotone": tail["monotone"],
        },
        reductions=reductions,
        agreement=decision.agreement,
        provenance=provenance,
        expected_verdict=scenario.expected_verdict,
        expected_limit=scenario.expected_limit,
        matches_expected=decision.matches_expected,
        traces=traces,
    )


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------

def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    # bool before int: bool is a subclass of int
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    return obj


def report_to_json(report: ScenarioReport) -> str:
    """Canonical JSON for a scenario report (no timestamps, sorted keys)."""
    payload = {
        "label": report.label,
        "group": report.group_label,
        "verdict": report.verdict,
        "derivative": report.derivative,
        "limits": report.limits,
        "tail": report.tail,
        "reductions": report.reductions,
        "agreement": report.agreement,
        "provenance": report.provenance,
        "expected_verdict": report.expected_verdict,
        "expected_limit": report.expected_limit,
        "matches_expected": report.matches_expected,
    }
    return json.dumps(_jsonify(payload), sort_keys=True, indent=2) + "\n"


def emit_report(report: ScenarioReport, out_dir: str) -> list[str]:
    """Write the JSON report and CSV traces; returns written paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    jpath = os.path.join(out_dir, f"{report.label}.json")
    with open(jpath, "w") as fh:
        fh.write(report_to_json(report))
    paths.append(jpath)
    for name, csv in report.traces.items():
        cpath = os.path.join(out_dir, f"{report.label}-{name}.csv")
        with open(cpath, "w") as fh:
            fh.write(csv)
        paths.append(cpath)
    return paths


# ---------------------------------------------------------------------------
# preset suites
# ---------------------------------------------------------------------------

def _scn(label, group, measure, expected_verdict, expected_limit=None,
         **extra):
    cfg = {
        "schema_version": SCHEMA_VERSION,
        "label": label,
        "group": group,
        "measure": measure,
        "expected_verdict": expected_verdict,
    }
    if expected_limit is not None:
        cfg["expected_limit"] = expected_limit
    cfg.update(extra)
    return cfg


_EUCLIDEAN_SUITE = [
    _scn("eg-lebesgue-constant", "euclidean:1",
         {"type": "density", "family": "polynomial",
          "params": {"constant": 2.0}},
         VERDICT_EQUIVALENT, 2.0),
    _scn("eg-quadratic", "euclidean:1",
         {"type": "density", "family": "polynomial",
          "params": {"constant": 1.0, "quadratic": 1.0}},
         VERDICT_EQUIVALENT, 1.0),
    _scn("eg-oscillatory", "euclidean:1",
         {"type": "density", "family": "log-oscillatory",
          "params": {"baseline": 1.0, "amplitude": 0.9}},
         VERDICT_BOTH_DIVERGE),
    _scn("eg-remote-atom", "euclidean:1",
         {"type": "atomic", "points": [[0.8]], "weights": [1.0]},
         VERDICT_EQUIVALENT, 0.0),
    _scn("eg-atom-at-vertex", "euclidean:1",
         {"type": "atomic", "points": [[0.0]], "weights": [1.0]},
         VERDICT_BOTH_DIVERGE),
    _scn("eg-bump", "euclidean:1",
         {"type": "density", "family": "gaussian-bump",
          "params": {"baseline": 0.5, "amplitude": 1.0, "width": 0.5}},
         VERDICT_EQUIVALENT, 1.5),
    _scn("eg-translated-vertex", "euclidean:1",
         {"type": "density", "family": "polynomial",
          "params": {"constant": 1.0, "quadratic": 1.0},
          "box": [[-3.0, 3.0]]},
         VERDICT_EQUIVALENT, 3.25, vertex=[1.5]),
    _scn("eg-plane-mixture", "euclidean:2",
         {"type": "mixture", "components": [
             {"type": "density", "family": "polynomial",
              "params": {"constant": 1.0},
              "box": [[-1.5, 1.5], [-1.5, 1.5]]},
             {"type": "atomic", "points": [[1.2, 0.0]], "weights": [2.0]},
         ]},
         VERDICT_EQUIVALENT, 1.0),
]

_HEISENBERG_SUITE = [
    _scn("hc-lebesgue", "heisenberg:1",
         {"type": "density", "family": "polynomial",
          "params": {"constant": 1.0}},
         VERDICT_EQUIVALENT, 1.0),
    _scn("hc-quadratic", "heisenberg:1",
         {"type": "density", "family": "polynomial",
          "params": {"constant": 1.0, "quadratic": 0.3333333333333333}},
         VERDICT_EQUIVALENT, 1.0),
    _scn("hc-remote-atom", "heisenberg:1",
         {"type": "atomic", "points": [[1.0, 0.0, 0.0]], "weights": [1.0]},
         VERDICT_EQUIVALENT, 0.0),
    _scn("hc-atom-at-vertex", "heisenberg:1",
         {"type": "atomic", "points": [[0.0, 0.0, 0.0]], "weights": [1.0]},
         VERDICT_BOTH_DIVERGE),
    _scn("hc-bump", "heisenberg:1",
         {"type": "density", "family": "gaussian-bump",
          "params": {"baseline": 0.5, "amplitude": 1.0, "width": 0.6}},
         VERDICT_EQUIVALENT, 1.5),
    _scn("hc-translated-vertex", "heisenberg:1",
         {"type": "density", "family": "polynomial",
          "params": {"constant": 1.0, "quadratic": 0.3333333333333333},
          "box": [[-2.0, 2.0], [-2.0, 2.0], [-2.0, 2.0]]},
         VERDICT_EQUIVALENT, 1.1401986642196623,
         vertex=[0.3, -0.2, 0.1]),
]

_PRESETS = {
    "euclidean-gehring": _EUCLIDEAN_SUITE,
    "heisenberg-core": _HEISENBERG_SUITE,
}

_MAXIMAL_CASES = [
    {"label": "ms-eu1-atoms", "group": "euclidean:1",
     "measure": {"type": "atomic",
                 "points": [[0.3], [-0.7], [1.4], [-0.2], [0.05]],
                 "weights": [0.5, 1.0, 0.25, 0.75, 1.5]},
     "points": [[0.0], [0.5]]},
    {"label": "ms-eu2-atoms", "group": "euclidean:2",
     "measure": {"type": "atomic",
                 "points": [[0.2, -0.3], [-0.6, 0.1], [1.0, 1.0],
                            [0.0, 0.8], [-0.4, -0.9]],
                 "weights": [1.0, 0.5, 2.0, 0.3, 0.7]},
     "points": [[0.0, 0.0], [0.3, 0.3]]},
    {"label": "ms-eu3-atoms", "group": "euclidean:3",
     "measure": {"type": "atomic",
                 "points": [[0.1, 0.2, -0.3], [-0.5, 0.4, 0.2],
                            [0.9, -0.8, 0.1], [0.0, 0.0, 1.1],
                            [-0.2, -0.2, -0.2]],
                 "weights": [1.0, 1.0, 0.5, 0.25, 2.0]},
     "points": [[0.0, 0.0, 0.0]]},
    {"label": "ms-h1-atoms", "group": "heisenberg:1",
     "measure": {"type": "atomic",
                 "points": [[0.3, 0.1, 0.05], [-0.4, 0.2, -0.1],
                            [0.8, -0.6, 0.2], [0.0, 0.9, 0.0],
                            [-0.1, -0.1, 0.3]],
                 "weights": [1.0, 0.8, 0.4, 1.2, 0.6]},
     "points": [[0.0, 0.0, 0.0], [0.2, -0.1, 0.0]]},
    {"label": "ms-eu1-density", "group": "euclidean:1",
     "measure": {"type": "density", "family": "polynomial",
                 "params": {"constant": 1.0, "quadratic": 0.5}},
     "points": [[0.0], [0.4]]},
    {"label": "ms-eu2-density", "group": "euclidean:2",
     "measure": {"type": "density", "family": "gaussian-bump",
                 "params": {"baseline": 0.2, "amplitude": 1.0, "width": 0.7}},
     "points": [[0.0, 0.0]]},
    {"label": "ms-h1-density", "group": "heisenberg:1",
     "measure": {"type": "density", "family": "polynomial",
                 "params": {"constant": 1.0}},
     "points": [[0.0, 0.0, 0.0]]},
]


def suite_names() -> list[str]:
    return sorted(_PRESETS) + ["maximal-sandwich", "kernel-battery"]


def preset_suite(name: str) -> list[dict]:
    """Scenario configs of a preset scenario suite."""
    if name not in _PRESETS:
        raise ConfigError(
            f"unknown scenario suite {name!r}; available: {sorted(_PRESETS)}"
        )
    return [dict(cfg) for cfg in _PRESETS[name]]


def _atoms_plus_noise(base_cfg: dict, k: int, seed: int) -> list[dict]:
    """Deterministic perturbed variants of an atomic measure config."""
    rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
    out = []
    pts = np.asarray(base_cfg["measure"]["points"], dtype=float)
    w = np.asarray(base_cfg["measure"]["weights"], dtype=float)
    for i in range(k):
        jitter = 0.15 * rng.standard_normal(pts.shape)
        scale = np.exp(0.2 * rng.standard_normal(w.shape))
        cfg = dict(base_cfg)
        cfg["label"] = f"{base_cfg['label']}-v{i}"
        cfg["measure"] = {
            "type": "atomic",
            "points": (pts + jitter).tolist(),
            "weights": (w * scale).tolist(),
        }
        out.append(cfg)
    return out


def _query_points_plus_noise(base_cfg: dict, seed: int) -> dict:
    """A case config with its query points moved by a deterministic
    jitter, as `_atoms_plus_noise` moves atoms."""
    rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
    pts = np.asarray(base_cfg["points"], dtype=float)
    return dict(base_cfg,
                points=(pts + 0.15 * rng.standard_normal(pts.shape)).tolist())


def maximal_cases(n_atomic: int = 20, n_density: int = 5) -> list[dict]:
    """Deterministic case list for the maximal-sandwich suite: atomic
    variants with jittered atoms, then the density bases, then density
    variants with jittered query points."""
    atomic_bases = [c for c in _MAXIMAL_CASES if c["measure"]["type"] == "atomic"]
    density_bases = [c for c in _MAXIMAL_CASES if c["measure"]["type"] == "density"]
    cases = []
    for i in range(n_atomic):
        base = atomic_bases[i % len(atomic_bases)]
        variant = _atoms_plus_noise(base, 1, seed=1000 + i)[0]
        cases.append(dict(variant, label=f"{base['label']}-v{i}"))
    for j in range(n_density):
        base = density_bases[j % len(density_bases)]
        if j >= len(density_bases):
            base = _query_points_plus_noise(base, seed=2000 + j)
        cases.append(dict(base, label=f"{base['label']}-v{j}"))
    return cases


def run_maximal_case(cfg: dict, alphas=(0.5, 1.0, 2.0)) -> dict:
    """Maximal sandwich plus heat chain for one case config."""
    g = G.get_group(cfg["group"])
    mu = build_measure(g, cfg["measure"])
    profile = K.profile_for(g)
    reports = []
    ok = True
    for x in cfg["points"]:
        r = M.check_sandwich(mu, np.asarray(x, dtype=float), alphas=alphas)
        ok &= r["chain_ok"]
        reports.append(r)
    heat = M.check_heat_chain(mu, profile,
                              np.asarray(cfg["points"][0], dtype=float))
    ok &= heat["chain_ok"]
    return {
        "label": cfg["label"],
        "group": cfg["group"],
        "passed": bool(ok),
        "sandwich": reports,
        "heat_chain": heat,
    }


def _suite_result(name: str, cases: list) -> dict:
    """Suite result {suite, cases, n_mismatch, passed} of cases that each
    carry their own ``passed``."""
    n_mismatch = sum(not c["passed"] for c in cases)
    return {"suite": name, "cases": cases, "n_mismatch": n_mismatch,
            "passed": n_mismatch == 0}


def _maximal_suite(n_atomic: int = 20, n_density: int = 5) -> dict:
    """The maximal-sandwich suite result of `maximal_cases` (n_atomic,
    n_density): ``fatou suite maximal-sandwich`` at the defaults and
    ``fatou maximal-check`` at its counts."""
    return _suite_result("maximal-sandwich", [
        {"label": r["label"], "passed": r["passed"]}
        for r in map(run_maximal_case, maximal_cases(n_atomic, n_density))])


def summarize_suite(name: str, reports) -> dict:
    """Suite result {suite, cases, n_mismatch, passed} from scenario reports.

    A case fails on a MISMATCH verdict or when it does not match its
    expectations.
    """
    return _suite_result(name, [
        {"label": rep.label, "verdict": rep.verdict,
         "expected": rep.expected_verdict,
         "passed": bool(rep.verdict != VERDICT_MISMATCH
                        and rep.matches_expected)}
        for rep in reports])


def run_suite(name: str, out_dir: str | None = None) -> dict:
    """Run a preset suite; returns {suite, cases, n_mismatch, passed}."""
    if name in _PRESETS:
        reports = [run_scenario(c) for c in preset_suite(name)]
        if out_dir:
            for rep in reports:
                emit_report(rep, out_dir)
        return summarize_suite(name, reports)
    if name == "maximal-sandwich":
        return _maximal_suite()
    if name == "kernel-battery":
        cases = []
        for label in G.GROUP_LABELS:
            profile = K.profile_for(G.get_group(label))
            report = K.validate_profile(profile)
            cases.append({"label": label, "passed": report["passed"],
                          "checks": report["checks"]})
        return _suite_result(name, cases)
    raise ConfigError(f"unknown suite {name!r}; available: {suite_names()}")
