"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Criteria (tolerances and runtime budgets are asserted, not aspirational):

1. group axioms: 1e4 random cases per axiom, error <= 1e-12, < 5 s;
2. kernel battery: normalization <= 1e-3 at t in {0.25, 1, 4}, symmetry
   <= 1e-8 relative, semigroup <= 1e-6 (lines/planes/space) or <= 1e-2
   (Heisenberg), scaling <= 1e-13 relative, PDE residual second order in h,
   Gaussian certificate with max_violation <= 0, < 10 min;
3. Monte Carlo agreement: KDE from 5e5 Heisenberg paths at t=1 vs the
   quadrature kernel on a 3x3x3 grid, |z| <= 3 at >= 25 of 27 points,
   < 10 min;
4. maximal sandwich chain with explicit constants on 20 atomic + 5 density
   measures, apertures {0.5, 1, 2}, <= 2% grid slack, < 5 min;
5. dilation/translation commutation: residual <= 1e-10 atomic / <= 1e-4
   density, 100 random samples each, < 2 min;
6. scenario suites "euclidean-gehring" and "heisenberg-core": zero MISMATCH,
   converged scenarios agree within max(1e-2, 2 * oscillation sum),
   oscillatory scenario flagged both-diverge, < 15 min;
7. reduction invariance: translation and restriction reductions change no
   verdict; the tail check vanishes on every preset, so it is "monotone"
   too (``monotone`` holds through its ``or vanishes`` clause: the tail
   bound rises over the schedule's first steps on every preset with outer
   mass);
8. determinism: rerunning a command with the same seed yields byte-identical
   report files.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

import fatoulab as F
from conftest import ensure_validated


def announce(capsys, ok: bool, text: str):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {text}", flush=True)
    assert ok, text


@pytest.fixture(scope="module")
def preset_reports():
    """One full run of every preset scenario, shared by criteria 6 and 7."""
    reports = {}
    t0 = time.time()
    for suite in ("euclidean-gehring", "heisenberg-core"):
        for cfg in F.preset_suite(suite):
            reports[cfg["label"]] = F.run_scenario(cfg)
    return reports, time.time() - t0


# ---------------------------------------------------------------------------
# criterion 1
# ---------------------------------------------------------------------------

def test_criterion_1_group_axioms(capsys):
    n = 10_000
    t0 = time.time()
    worst = {}
    for label in F.GROUP_LABELS:
        g = F.get_group(label)
        rng = np.random.default_rng(101)
        dim = g.total_dim
        x = rng.normal(size=(n, dim)) * 1.5
        y = rng.normal(size=(n, dim)) * 1.5
        z = rng.normal(size=(n, dim)) * 1.5
        e = np.zeros(dim)

        assoc = np.max(np.abs(
            F.mul(g, F.mul(g, x, y), z) - F.mul(g, x, F.mul(g, y, z))
        ))
        ident = max(
            np.max(np.abs(F.mul(g, x, e) - x)),
            np.max(np.abs(F.mul(g, e, x) - x)),
        )
        inv = max(
            np.max(np.abs(F.mul(g, x, F.inverse(g, x)))),
            np.max(np.abs(F.mul(g, F.inverse(g, x), x))),
        )
        dil_auto = 0.0
        norm_hom = 0.0
        for rr in (0.5, 2.0, 3.7):
            dil_auto = max(dil_auto, np.max(np.abs(
                F.dilate(g, rr, F.mul(g, x, y))
                - F.mul(g, F.dilate(g, rr, x), F.dilate(g, rr, y))
            )))
            norm_hom = max(norm_hom, np.max(np.abs(
                np.asarray(F.norm(g, F.dilate(g, rr, x))) - rr * np.asarray(F.norm(g, x))
            )))
        norm_sym = np.max(np.abs(
            np.asarray(F.norm(g, F.inverse(g, x))) - np.asarray(F.norm(g, x))
        ))
        worst[label] = max(assoc, ident, inv, dil_auto, norm_hom, norm_sym)
    elapsed = time.time() - t0
    bad = max(worst.values())
    ok = bad <= 1e-12 and elapsed < 5.0
    announce(capsys, ok,
             f"criterion 1: group axioms, {n} cases/axiom, "
             f"max error {bad:.2e} <= 1e-12, {elapsed:.2f}s < 5s")


# ---------------------------------------------------------------------------
# criterion 2
# ---------------------------------------------------------------------------

def test_criterion_2_kernel_battery(capsys, p1, p2, p3, ph):
    total = 0.0
    failures = []
    for k in (p1, p2, p3, ph):
        report, elapsed = ensure_validated(k)
        total += elapsed
        label = report["group"]
        euclidean = label.startswith("euclidean")
        bounds = {
            "symmetry": 1e-8,
            "normalization t=0.25": 1e-3,
            "normalization t=1.0": 1e-3,
            "normalization t=4.0": 1e-3,
            "scaling": 1e-13,
            "semigroup": 1e-6 if euclidean else 1e-2,
            "gaussian_certificate": 0.0,
        }
        for c in report["checks"]:
            name = c["property"]
            if name in bounds:
                if not (c["max_residual"] <= bounds[name] and c["pass"]):
                    failures.append((label, name, c["max_residual"]))
            elif name == "pde_residual_order":
                if not (2.5 <= c["max_residual"] <= 6.0 and c["pass"]):
                    failures.append((label, name, c["max_residual"]))
            elif not c["pass"]:
                failures.append((label, name, c["max_residual"]))
        if not report["passed"]:
            failures.append((label, "overall", float("nan")))
    ok = not failures and total < 600.0
    announce(capsys, ok,
             f"criterion 2: kernel battery on 4 profiles, "
             f"all checks at stated tolerances"
             f"{'' if not failures else ' FAILED ' + repr(failures)}, "
             f"{total:.1f}s < 600s")


# ---------------------------------------------------------------------------
# criterion 3
# ---------------------------------------------------------------------------

def test_criterion_3_oracle_agreement(capsys, gh, ph):
    t0 = time.time()
    ens = F.simulate_horizontal_bm(gh, 500_000, t_final=1.0, n_steps=800,
                                   seed=20260823)
    axis_xy = np.array([-1.0, 0.0, 1.0])
    axis_s = np.array([-2.0, 0.0, 2.0])
    grid = np.array([[x, y, s] for x in axis_xy for y in axis_xy
                     for s in axis_s])
    kde = F.kde_density(ens, grid)
    target = np.asarray(ph.gamma_accurate(grid))
    zscores = (kde["values"] - target) / kde["stderr"]
    n_ok = int(np.sum(np.abs(zscores) <= 3.0))
    elapsed = time.time() - t0
    ok = n_ok >= 25 and elapsed < 600.0
    announce(capsys, ok,
             f"criterion 3: KDE (5e5 paths) vs quadrature kernel, "
             f"|z|<=3 at {n_ok}/27 points (need >= 25), "
             f"max |z| {np.max(np.abs(zscores)):.2f}, {elapsed:.1f}s < 600s")


# ---------------------------------------------------------------------------
# criterion 4
# ---------------------------------------------------------------------------

def test_criterion_4_maximal_sandwich(capsys):
    t0 = time.time()
    cases = F.maximal_cases(20, 5)
    kinds = [c["measure"]["type"] for c in cases]
    assert kinds.count("atomic") == 20 and kinds.count("density") == 5
    results = [F.run_maximal_case(c, alphas=(0.5, 1.0, 2.0)) for c in cases]
    bad = [r["label"] for r in results if not r["passed"]]
    elapsed = time.time() - t0
    ok = not bad and elapsed < 300.0
    announce(capsys, ok,
             f"criterion 4: maximal sandwich chain on 20 atomic + 5 density "
             f"measures, alphas (0.5, 1, 2), 2% slack"
             f"{'' if not bad else ' FAILED ' + repr(bad)}, "
             f"{elapsed:.1f}s < 300s")


# ---------------------------------------------------------------------------
# criterion 5
# ---------------------------------------------------------------------------

def _random_atomic(g, rng):
    k = int(rng.integers(2, 7))
    pts = rng.normal(size=(k, g.total_dim))
    w = rng.uniform(0.2, 2.0, size=k)
    return F.AtomicMeasure(g, pts, w)


def _random_density(g, rng):
    dim = g.total_dim
    half = 1.5 if g.label == "heisenberg:1" else 2.0
    box = [[-half, half]] * dim
    a = float(rng.uniform(0.5, 2.0))
    b = float(rng.uniform(0.0, 1.0))

    def fn(p, _a=a, _b=b):
        rho = np.asarray(F.norm(g, p))
        return _a + _b * rho ** 2

    return F.DensityMeasure(g, fn, box)


def test_criterion_5_commutation(capsys):
    t0 = time.time()
    rng = np.random.default_rng(555)
    worst_atomic = 0.0
    for i in range(100):
        g = F.get_group(F.GROUP_LABELS[i % 4])
        profile = F.profile_for(g)
        mu = _random_atomic(g, rng)
        x = rng.normal(size=g.total_dim) * 0.7
        t = float(rng.uniform(0.2, 1.5))
        if i % 2 == 0:
            r = float(np.exp(rng.uniform(-0.8, 0.8)))
            out = F.dilation_commutation_check(mu, profile, r, x, t)
        else:
            x0 = rng.normal(size=g.total_dim) * 0.5
            out = F.translation_commutation_check(mu, profile, x0, x, t)
        worst_atomic = max(worst_atomic, out["rel_diff"])

    # density sample mix keeps the runtime bounded while covering all groups
    density_labels = (["euclidean:1"] * 40 + ["euclidean:2"] * 30
                      + ["euclidean:3"] * 20 + ["heisenberg:1"] * 10)
    worst_density = 0.0
    for i, label in enumerate(density_labels):
        g = F.get_group(label)
        profile = F.profile_for(g)
        mu = _random_density(g, rng)
        x = rng.normal(size=g.total_dim) * 0.3
        t = float(rng.uniform(0.2, 0.8))
        if i % 2 == 0:
            r = float(np.exp(rng.uniform(-0.5, 0.5)))
            out = F.dilation_commutation_check(mu, profile, r, x, t)
        else:
            x0 = rng.normal(size=g.total_dim) * 0.3
            out = F.translation_commutation_check(mu, profile, x0, x, t)
        worst_density = max(worst_density, out["rel_diff"])
    elapsed = time.time() - t0
    ok = worst_atomic <= 1e-10 and worst_density <= 1e-4 and elapsed < 120.0
    announce(capsys, ok,
             f"criterion 5: commutation residuals, 100 atomic "
             f"(max {worst_atomic:.2e} <= 1e-10) + 100 density "
             f"(max {worst_density:.2e} <= 1e-4) samples, "
             f"{elapsed:.1f}s < 120s")


# ---------------------------------------------------------------------------
# criterion 6
# ---------------------------------------------------------------------------

def test_criterion_6_scenario_suites(capsys, preset_reports):
    reports, fixture_elapsed = preset_reports
    t0 = time.time()
    eu, h1 = (
        F.summarize_suite(
            suite, [reports[cfg["label"]] for cfg in F.preset_suite(suite)]
        )
        for suite in ("euclidean-gehring", "heisenberg-core")
    )
    elapsed = time.time() - t0 + fixture_elapsed
    problems = []
    if eu["n_mismatch"] or not eu["passed"]:
        problems.append(f"euclidean-gehring mismatches: {eu['cases']}")
    if h1["n_mismatch"] or not h1["passed"]:
        problems.append(f"heisenberg-core mismatches: {h1['cases']}")
    if len(eu["cases"]) < 6:
        problems.append("euclidean suite has fewer than 6 scenarios")
    if len(h1["cases"]) < 5:
        problems.append("heisenberg suite has fewer than 5 scenarios")

    osc = next(c for c in eu["cases"] if c["label"] == "eg-oscillatory")
    if osc["verdict"] != F.VERDICT_BOTH_DIVERGE:
        problems.append(f"oscillatory scenario verdict {osc['verdict']}")

    # converged scenarios agree within the decision table's agreement bar,
    # re-decided from the report's own estimates and oscillations
    def decided(summary):
        return F.TraceDecision(summary["estimate"], summary["oscillation"],
                               summary["converged"])

    for label, rep in reports.items():
        if rep.verdict != F.VERDICT_EQUIVALENT:
            continue
        dec = F.scenario_decision(
            decided(rep.derivative),
            {key: decided(summary) for key, summary in rep.limits.items()})
        agreement = dec.agreement["per_aperture"]
        if dec.verdict != F.VERDICT_EQUIVALENT or set(agreement) != set(
                rep.limits):
            problems.append(f"{label}: re-decided verdict {dec.verdict}")
        for key, rec in agreement.items():
            if not rec["agree"]:
                problems.append(f"{label} aperture {key}: delta "
                                f"{rec['delta']:.3e} > {rec['threshold']:.3e}")
    ok = not problems and elapsed < 900.0
    announce(capsys, ok,
             f"criterion 6: suites euclidean-gehring ({len(eu['cases'])} "
             f"scenarios) + heisenberg-core ({len(h1['cases'])}), zero "
             f"mismatch, agreement within the decision table's bar"
             f"{'' if not problems else ' FAILED ' + '; '.join(problems)}, "
             f"{elapsed:.1f}s < 900s")


def _read_csv(path):
    lines = path.read_text().strip().split("\n")
    return [line.split(",") for line in lines[1:]]


def _by_first_seen(rows, key, value):
    """Rows grouped by ``key`` in order of appearance: (groups, steps)."""
    groups = {}
    for row in rows:
        groups.setdefault(key(row), []).append(float(value(row)))
    return np.array(list(groups.values()))


def test_verdicts_rederive_from_written_files(tmp_path, preset_reports):
    # every preset's verdict, agreement and expectation bit follow from its
    # written JSON and CSV traces alone, through the decision functions
    reports, _ = preset_reports
    assert len(reports) == 14
    for label, rep in reports.items():
        F.emit_report(rep, str(tmp_path))
        js = json.loads((tmp_path / f"{label}.json").read_text())
        quot = _by_first_seen(
            _read_csv(tmp_path / f"{label}-derivative.csv"),
            lambda r: r[0], lambda r: r[2])
        deriv = F.trace_decision(quot)
        assert js["derivative"]["estimate"] == deriv.estimate, label
        assert js["derivative"]["oscillation"] == deriv.oscillation, label
        assert js["derivative"]["converged"] == deriv.converged, label
        limits = {}
        for key, summary in js["limits"].items():
            vals = _by_first_seen(
                _read_csv(tmp_path / f"{label}-limit-{key}.csv"),
                lambda r: (r[1], r[2]), lambda r: r[4])
            limits[key] = lim = F.trace_decision(vals)
            assert summary["estimate"] == lim.estimate, (label, key)
            assert summary["oscillation"] == lim.oscillation, (label, key)
            assert summary["converged"] == lim.converged, (label, key)
        dec = F.scenario_decision(
            deriv, limits, expected_verdict=js["expected_verdict"],
            expected_limit=js["expected_limit"],
            tail_vanishes=js["tail"]["vanishes"])
        assert dec.verdict == js["verdict"], label
        assert dec.agreement == js["agreement"], label
        assert dec.matches_expected == js["matches_expected"], label


# ---------------------------------------------------------------------------
# criterion 7
# ---------------------------------------------------------------------------

def test_criterion_7_reduction_invariance(capsys, gh, preset_reports):
    reports, _ = preset_reports
    t0 = time.time()
    problems = []

    # every preset's tail must vanish; "monotone" then holds through it
    for label, rep in reports.items():
        if not rep.tail["monotone"]:
            problems.append(f"{label}: tail not monotone")
        if not rep.tail["vanishes"]:
            problems.append(f"{label}: tail does not vanish")

    # translation reduction: moving the vertex into the measure is a no-op
    base_eu = {
        "schema_version": 1, "label": "inv-eu-base", "group": "euclidean:1",
        "measure": {"type": "atomic", "points": [[0.8]], "weights": [1.0]},
    }
    moved_eu = dict(base_eu, label="inv-eu-moved", vertex=[0.7],
                    measure={"type": "atomic", "points": [[1.5]],
                             "weights": [1.0]})
    x0 = np.array([0.3, -0.2, 0.1])
    atom_h = F.mul(gh, x0, np.array([1.0, 0.0, 0.0]))
    base_h = {
        "schema_version": 1, "label": "inv-h-base", "group": "heisenberg:1",
        "measure": {"type": "atomic", "points": [[1.0, 0.0, 0.0]],
                    "weights": [1.0]},
    }
    moved_h = dict(base_h, label="inv-h-moved", vertex=x0.tolist(),
                   measure={"type": "atomic", "points": [atom_h.tolist()],
                            "weights": [1.0]})
    for base_cfg, moved_cfg in ((base_eu, moved_eu), (base_h, moved_h)):
        rb, rm = F.run_scenario(base_cfg), F.run_scenario(moved_cfg)
        if rb.verdict != rm.verdict:
            problems.append(
                f"translation changed verdict: {rb.verdict} != {rm.verdict}"
            )
        if abs(rb.derivative["estimate"] - rm.derivative["estimate"]) > 1e-10:
            problems.append("translation changed the derivative estimate")

    # restriction reduction: a different localization radius, same verdict
    for label, radius in (("eg-quadratic", 0.8), ("hc-remote-atom", 0.55)):
        cfg = next(
            c for suite in ("euclidean-gehring", "heisenberg-core")
            for c in F.preset_suite(suite) if c["label"] == label
        )
        shrunk = dict(cfg, label=f"{label}-shrunk", restrict_radius=radius)
        rv = F.run_scenario(shrunk)
        if rv.verdict != reports[label].verdict:
            problems.append(
                f"restriction changed verdict for {label}: "
                f"{reports[label].verdict} -> {rv.verdict}"
            )
        if not (rv.tail["vanishes"] and rv.matches_expected):
            problems.append(
                f"{label} at radius {radius}: tail vanishes "
                f"{rv.tail['vanishes']}, matches expected {rv.matches_expected}"
            )
    elapsed = time.time() - t0
    ok = not problems
    announce(capsys, ok,
             f"criterion 7: reductions preserve verdicts, tails vanish "
             f"(hence monotone) on all {len(reports)} presets"
             f"{'' if not problems else ' FAILED ' + '; '.join(problems)}, "
             f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 8
# ---------------------------------------------------------------------------

def test_criterion_8_determinism(capsys, tmp_path):
    cfg = {
        "schema_version": 1,
        "label": "det-check",
        "group": "euclidean:1",
        "measure": {"type": "density", "family": "gaussian-bump",
                    "params": {"baseline": 0.5, "amplitude": 1.0,
                               "width": 0.7}},
        "seed": 42,
        "expected_verdict": "equivalent",
    }
    cfg_path = tmp_path / "det.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = []
    for run in ("a", "b"):
        out_dir = tmp_path / run
        proc = subprocess.run(
            [sys.executable, "-m", "fatoulab.cli", "run", str(cfg_path),
             "--out", str(out_dir)],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(sorted(out_dir.iterdir()))
    assert len(outs[0]) == 4
    identical = all(
        f1.name == f2.name and f1.read_bytes() == f2.read_bytes()
        for f1, f2 in zip(*outs)
    )
    announce(capsys, identical,
             f"criterion 8: rerun with same seed produced byte-identical "
             f"report files ({len(outs[0])} files compared)")
