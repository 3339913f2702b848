"""Workload inputs: the frozen preset configs, jittered by the run seed.

Seed 0 gives exactly the preset configs stored in ``inputs.json`` (copied
from ``fatoulab.scenarios`` so that the benchmark's inputs do not move when
the presets do). Any other seed jitters atom positions and the vertex of the
translated-vertex scenario; the program only ever sees the generated configs.
This module uses the standard library only, so the parent process never
imports the program.
"""

from __future__ import annotations

import copy
import json
import os
import random

WORKLOADS = ("scenario-mix", "maximal-sandwich", "kernel-battery")

# One aperture keeps the maximal workload inside the run budget; the density
# variants beyond the first three are identical copies and are not repeated.
MAXIMAL_ALPHAS = (1.0,)

BATTERY_GROUPS = ("euclidean:1", "euclidean:2", "euclidean:3")
# The full Heisenberg battery takes ~90 s and 3.8 GB; the workload runs its
# normalization at t = 1 (the same mass-grid pass as every t) and the PDE
# residual order check, with the tolerances `validate_profile` uses.
HEISENBERG_BATTERY = {
    "group": "heisenberg:1",
    "mass_t": 1.0,
    "normalization_tol": 1e-3,
    "pde_point": [0.3, 0.3, 0.3],
    "pde_t": 1.0,
    "pde_h": 2e-2,
    "pde_ratio": [2.5, 6.0],
}
VALIDATE_DEFAULT_SEED = 1234

_ATOM_JITTER = 0.1       # scenario atoms, per coordinate
_MAXIMAL_JITTER = 0.05   # maximal-case atoms, per coordinate
_VERTEX_JITTER = 0.1     # translated-vertex scenario, per coordinate
_PDE_JITTER = 0.05


def _inputs() -> dict:
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "inputs.json")) as fh:
        return json.load(fh)


def heisenberg_gauge(v) -> float:
    """Koranyi gauge (|z|^4 + 16 s^2)^(1/4) of a point (x, y, s)."""
    z2 = v[0] ** 2 + v[1] ** 2
    return (z2 * z2 + 16.0 * v[2] ** 2) ** 0.25


def _jitter(point, rng: random.Random, amount: float) -> list:
    return [float(c) + rng.uniform(-amount, amount) for c in point]


def _jitter_atoms(measure: dict, rng: random.Random, amount: float) -> None:
    if measure["type"] == "atomic":
        measure["points"] = [_jitter(p, rng, amount) for p in measure["points"]]
    elif measure["type"] == "mixture":
        for comp in measure["components"]:
            _jitter_atoms(comp, rng, amount)


def _scenario_configs(seed: int) -> list[dict]:
    configs = copy.deepcopy(_inputs()["scenario-mix"])
    if seed == 0:
        return configs
    rng = random.Random(seed)
    for cfg in configs:
        measure = cfg["measure"]
        dim = 3 if cfg["group"] == "heisenberg:1" else int(cfg["group"][-1])
        vertex = cfg.get("vertex", [0.0] * dim)
        if measure["type"] == "atomic" and measure["points"] == [vertex]:
            # an atom at the vertex stays there: jitter both together
            moved = _jitter(vertex, rng, _ATOM_JITTER)
            measure["points"] = [moved]
            cfg["vertex"] = moved
        elif cfg["label"] == "hc-translated-vertex":
            v = _jitter(vertex, rng, _VERTEX_JITTER)
            params = measure["params"]
            cfg["vertex"] = v
            cfg["expected_limit"] = (
                params["constant"]
                + params.get("quadratic", 0.0) * heisenberg_gauge(v) ** 2
            )
        else:
            _jitter_atoms(measure, rng, _ATOM_JITTER)
    return configs


def _maximal_configs(seed: int) -> list[dict]:
    configs = copy.deepcopy(_inputs()["maximal-sandwich"])
    if seed != 0:
        rng = random.Random(seed)
        for cfg in configs:
            _jitter_atoms(cfg["measure"], rng, _MAXIMAL_JITTER)
    return configs


def _battery_config(seed: int) -> dict:
    heis = dict(HEISENBERG_BATTERY)
    if seed == 0:
        validate_seed = VALIDATE_DEFAULT_SEED
    else:
        validate_seed = seed
        rng = random.Random(seed)
        heis["pde_point"] = _jitter(heis["pde_point"], rng, _PDE_JITTER)
    return {"groups": list(BATTERY_GROUPS), "validate_seed": validate_seed,
            "heisenberg": heis}


def make_job(workload: str, seed: int) -> dict:
    """Inputs of one workload run, as passed to the measured process."""
    if workload == "scenario-mix":
        cases = _scenario_configs(seed)
        groups = sorted({c["group"] for c in cases})
    elif workload == "maximal-sandwich":
        cases = _maximal_configs(seed)
        groups = sorted({c["group"] for c in cases})
    elif workload == "kernel-battery":
        cases = _battery_config(seed)
        groups = list(BATTERY_GROUPS) + [HEISENBERG_BATTERY["group"]]
    else:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    return {"workload": workload, "seed": seed, "groups": groups,
            "cases": cases, "maximal_alphas": list(MAXIMAL_ALPHAS)}


