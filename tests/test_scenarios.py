"""Scenario config validation, determinism, suites, and CLI exit codes."""

import copy
import json
import os

import numpy as np
import pytest

import fatoulab as F
from fatoulab import cli, scenarios as S


def line_config(label="t-constant"):
    return {
        "schema_version": 1,
        "label": label,
        "group": "euclidean:1",
        "measure": {
            "type": "density",
            "family": "polynomial",
            "params": {"constant": 2.0},
        },
        "expected_verdict": "equivalent",
        "expected_limit": 2.0,
    }


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_valid_config_builds():
    s = F.Scenario.from_config(line_config())
    assert s.label == "t-constant"
    assert s.apertures == (0.5, 1.0)
    assert len(s.config_sha256) == 64


@pytest.mark.parametrize("mutate, fragment", [
    (lambda c: c.__setitem__("typo_key", 1), "typo_key"),
    (lambda c: c.pop("measure"), "measure"),
    (lambda c: c.__setitem__("schema_version", 99), "schema_version"),
    (lambda c: c.__setitem__("group", "euclidean:7"), "group"),
    (lambda c: c.__setitem__("label", ""), "label"),
    (lambda c: c.__setitem__("vertex", [0.0, 0.0]), "vertex"),
    (lambda c: c.__setitem__("apertures", []), "apertures"),
    (lambda c: c.__setitem__("apertures", [0.5, -1.0]), "apertures"),
    (lambda c: c.__setitem__("seed", "7"), "seed"),
    (lambda c: c.__setitem__("seed", True), "seed"),
    (lambda c: c.__setitem__("expected_verdict", "maybe"), "verdict"),
    (lambda c: c.__setitem__("restrict_radius", 0.0), "restrict_radius"),
    (lambda c: c["measure"].__setitem__("surprise", 1), "surprise"),
    (lambda c: c["measure"].__setitem__("family", "cauchy"), "cauchy"),
    # the schedule's objects are gone: any key in them is rejected by name
    (lambda c: c.__setitem__("derivative", {"extra": 1}), "extra"),
    (lambda c: c.__setitem__("limit", {"n_steps": 3}), "steps"),
])
def test_config_rejection(mutate, fragment):
    cfg = line_config()
    mutate(cfg)
    with pytest.raises(F.ConfigError) as err:
        F.Scenario.from_config(cfg)
    assert fragment in str(err.value)


def test_oscillatory_amplitude_bound():
    cfg = line_config()
    cfg["measure"] = {
        "type": "density",
        "family": "log-oscillatory",
        "params": {"baseline": 1.0, "amplitude": 1.5},
    }
    with pytest.raises(F.ConfigError, match="amplitude"):
        F.Scenario.from_config(cfg)


def test_mixture_component_errors_are_located(g1):
    spec = {
        "type": "mixture",
        "components": [
            {"type": "atomic", "points": [[0.5]], "weights": [1.0]},
            {"type": "density", "family": "nope"},
        ],
    }
    with pytest.raises(F.ConfigError, match=r"components\[1\]"):
        F.build_measure(g1, spec)
    good = dict(spec)
    good["components"] = [
        {"type": "atomic", "points": [[0.5]], "weights": [1.0]},
        {"type": "density", "family": "polynomial", "params": {"constant": 1.0}},
    ]
    mu = F.build_measure(g1, good)
    assert isinstance(mu, F.MixtureMeasure)


def test_atomic_spec_shape_checked(g1):
    with pytest.raises(F.ConfigError, match="points"):
        F.build_measure(
            g1, {"type": "atomic", "points": [0.5], "weights": [1.0]}
        )


# ---------------------------------------------------------------------------
# running scenarios
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family, params, constant", [
    ("polynomial", {"constant": 2.0}, 2.0),
    ("polynomial", {"constant": 2.0, "quadratic": 0.0}, 2.0),
    ("polynomial", {"constant": 2.0, "quadratic": 0.5}, None),
    ("gaussian-bump", {"baseline": 1.0, "amplitude": 0.0, "width": 0.3}, 1.0),
    ("gaussian-bump", {"baseline": 1.0, "amplitude": 0.2, "width": 0.3}, None),
    ("log-oscillatory", {"baseline": -0.0, "amplitude": 0.0}, 0.0),
    ("log-oscillatory", {"baseline": 1.0, "amplitude": 0.1}, None),
])
def test_only_constant_families_declare_a_constant(gh, family, params,
                                                   constant):
    mu = F.build_measure(gh, {"type": "density", "family": family,
                              "params": params})
    _, declared, singular = S._density_fn(gh, family, params, "measure")
    assert declared == constant
    # a gauge family declares the base origin singular, a constant nothing
    assert mu.singular.tobytes() == singular.tobytes()
    assert singular.shape == ((1, 3) if constant is None else (0, 3))
    assert not np.any(singular)
    if constant is None:
        assert mu.constant is None
    else:
        assert mu.constant == constant
        assert not np.signbit(mu.constant)     # c + 0 * g maps -0.0 to 0.0
        vals = mu.density_inside(np.array([[0.3, -0.2, 0.1]]))
        assert vals.tobytes() == np.array([constant]).tobytes()


def test_run_scenario_constant_density():
    report = F.run_scenario(line_config())
    assert report.verdict == "equivalent"
    assert report.matches_expected
    assert report.derivative["estimate"] == pytest.approx(2.0, abs=1e-2)
    for summary in report.limits.values():
        assert summary["converged"]
        assert summary["estimate"] == pytest.approx(2.0, abs=2e-2)
    assert report.tail["vanishes"] and report.tail["monotone"]
    assert set(report.traces) == {"derivative", "limit-0.5", "limit-1.0"}


def test_report_carries_the_ball_mass_error():
    # 1 + x^2 at the vertex 0.3: the derivative trace's quotients have exact
    # values, and the report's quadrature_error bounds their errors over
    # the trailing window
    cfg = line_config("t-quadratic")
    cfg["measure"]["params"] = {"constant": 1.0, "quadratic": 1.0}
    cfg["vertex"] = [0.3]
    cfg["expected_limit"] = 1.09
    report = F.run_scenario(cfg)
    q_err = report.derivative["quadrature_error"]
    assert 0.0 < q_err < 1e-12
    assert json.loads(F.report_to_json(report))["derivative"][
        "quadrature_error"] == q_err
    family = F.default_ball_family(F.euclidean_group(1))
    rows = [line.split(",") for line in
            report.traces["derivative"].strip().split("\n")[1:]]
    radii = sorted({float(r) for _, r, _ in rows})[:5]
    worst = 0.0
    for ball_id, r, quotient in rows:
        r = float(r)
        if r not in radii:
            continue
        ball = family[int(ball_id[len("ball"):])]
        exact = 1.0 + ((0.3 + r * ball.center[0]) ** 2
                       + (r * ball.radius) ** 2 / 3.0)
        worst = max(worst, abs(float(quotient) - exact))
    assert worst <= q_err


def test_report_json_deterministic():
    a = F.report_to_json(F.run_scenario(line_config()))
    b = F.report_to_json(F.run_scenario(line_config()))
    assert a == b
    payload = json.loads(a)
    assert payload["label"] == "t-constant"
    assert payload["provenance"]["config_sha256"]
    assert "np.float64" not in a


def test_report_json_writes_booleans_as_booleans():
    # bool is a subclass of int: the canonical JSON must not turn a flag
    # into 1 or 0
    cfg = F.preset_suite("euclidean-gehring")[0]
    payload = json.loads(F.report_to_json(F.run_scenario(cfg)))
    flags = [payload["derivative"]["converged"], payload["matches_expected"],
             payload["tail"]["vanishes"], payload["tail"]["monotone"]]
    flags += [lim["converged"] for lim in payload["limits"].values()]
    flags += [a["agree"]
              for a in payload["agreement"]["per_aperture"].values()]
    assert len(flags) == 8
    assert all(type(f) is bool for f in flags), flags


def test_emit_report_files_deterministic(tmp_path):
    report = F.run_scenario(line_config())
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    paths1 = F.emit_report(report, str(d1))
    paths2 = F.emit_report(F.run_scenario(line_config()), str(d2))
    names = sorted(os.path.basename(p) for p in paths1)
    assert names == [
        "t-constant-derivative.csv",
        "t-constant-limit-0.5.csv",
        "t-constant-limit-1.0.csv",
        "t-constant.json",
    ]
    for p1, p2 in zip(sorted(paths1), sorted(paths2)):
        assert open(p1, "rb").read() == open(p2, "rb").read()


def test_scenario_seed_changes_hash_only():
    cfg = line_config()
    cfg2 = copy.deepcopy(cfg)
    cfg2["seed"] = 123
    r1, r2 = F.run_scenario(cfg), F.run_scenario(cfg2)
    assert r1.provenance["config_sha256"] != r2.provenance["config_sha256"]
    assert r1.derivative == r2.derivative  # pipeline itself is deterministic


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def test_suite_registry():
    names = F.suite_names()
    assert names == ["euclidean-gehring", "heisenberg-core",
                     "maximal-sandwich", "kernel-battery"]
    assert len(F.preset_suite("euclidean-gehring")) >= 6
    assert len(F.preset_suite("heisenberg-core")) >= 5
    with pytest.raises(F.ConfigError):
        F.preset_suite("no-such-suite")
    with pytest.raises(F.ConfigError):
        F.run_suite("no-such-suite")


def test_preset_configs_all_validate():
    for name in ("euclidean-gehring", "heisenberg-core"):
        for cfg in F.preset_suite(name):
            s = F.Scenario.from_config(cfg)
            assert s.label == cfg["label"]


def test_maximal_case_list():
    cases = F.maximal_cases(20, 5)
    assert len(cases) == 25
    kinds = [c["measure"]["type"] for c in cases]
    assert kinds.count("atomic") == 20 and kinds.count("density") == 5
    labels = [c["label"] for c in cases]
    assert len(set(labels)) == 25
    # deterministic regeneration
    again = F.maximal_cases(20, 5)
    assert cases == again


def test_maximal_cases_are_distinct_apart_from_their_labels():
    # density variants past the bases were copies of them; each now has
    # its base's query points jittered, and the bases keep theirs
    cases = F.maximal_cases(20, 5)
    bodies = [json.dumps(dict(c, label=None), sort_keys=True) for c in cases]
    assert len(set(bodies)) == len(cases)
    assert F.maximal_cases(20, 3) == cases[:23]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_run_scenario(tmp_path, capsys):
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(line_config()))
    out_dir = tmp_path / "out"
    code = cli.main(["run", str(cfg_path), "--out", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 0
    assert "equivalent" in captured.out
    assert (out_dir / "t-constant.json").exists()


def test_cli_rejects_bad_config(tmp_path, capsys):
    cfg = line_config()
    cfg["group"] = "euclidean:9"
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(cfg_path)]) == 2
    assert "error" in capsys.readouterr().err.lower()


def test_cli_missing_file_and_bad_json(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path / "absent.json")]) == 2
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert cli.main(["run", str(bad)]) == 2


def test_cli_kernel_check_euclidean(capsys):
    code = cli.main(["kernel-check", "--group", "euclidean:1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "euclidean:1" in out and "pass" in out.lower()


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == F.__version__


def test_cli_usage_error(capsys):
    with pytest.raises(SystemExit):
        cli.main(["suite", "not-a-suite"])  # argparse choices reject


# ---------------------------------------------------------------------------
# one scale axis: probes that split scales decided wrongly
# ---------------------------------------------------------------------------

def _preset(label):
    for name in ("euclidean-gehring", "heisenberg-core"):
        for cfg in F.preset_suite(name):
            if cfg["label"] == label:
                return copy.deepcopy(cfg)
    raise KeyError(label)


def _bump_probe(width, vertex):
    # 0.5 + exp(-(x / width)^2) at x = vertex, which sits half a width out
    cfg = _preset("eg-bump")
    cfg["label"] = f"probe-bump-{width}"
    cfg["measure"]["params"]["width"] = width
    cfg["vertex"] = [vertex]
    cfg["expected_limit"] = 0.5 + np.exp(-(vertex / width) ** 2)
    return cfg


def _steep_h1_probe():
    # hc-translated-vertex with 1 + N(y)^2: the limit is 1 + N(vertex)^2
    cfg = _preset("hc-translated-vertex")
    cfg["label"] = "probe-hc-quadratic-1"
    cfg["measure"]["params"]["quadratic"] = 1.0
    g = F.get_group("heisenberg:1")
    cfg["expected_limit"] = 1.0 + float(F.groups.norm(g, np.array(cfg["vertex"]))) ** 2
    return cfg


@pytest.mark.parametrize("make", [
    _steep_h1_probe,
    lambda: _bump_probe(0.1, 0.05),
    lambda: _bump_probe(0.05, 0.025),
], ids=["hc-quadratic-1", "bump-width-0.1", "bump-width-0.05"])
def test_steep_smooth_densities_are_equivalent(make):
    # by the paper's theorem both limits exist and agree; with the parabolic
    # side read at large t these were MISMATCH
    report = F.run_scenario(make())
    assert report.verdict == "equivalent"
    assert report.matches_expected


def test_small_log_oscillation_is_pinned_as_equivalent():
    # the paper says both-diverge: 1 + 0.005 sin(log(1/|x|)) has no limit.
    # A 1e-2 spread bar cannot see an oscillation this small at any scale;
    # ROADMAP item 9 (converged means the trace contracts) is the fix. This
    # pins today's answer so that a change to it is seen.
    cfg = _preset("eg-oscillatory")
    cfg["measure"]["params"]["amplitude"] = 0.005
    cfg["expected_verdict"] = "equivalent"
    report = F.run_scenario(cfg)
    assert report.verdict == "equivalent"


def test_split_scales_decide_the_bump_probe_wrongly():
    # negative control: the old split schedule, radii 0.5^k * 0.5 for
    # k < 16 and t = 0.25 * 4^-k for k < 12, built from library calls and
    # decided by the same rules, reads MISMATCH on the width-0.1 probe
    cfg = _bump_probe(0.1, 0.05)
    g = F.get_group(cfg["group"])
    mu = F.translate_measure(F.build_measure(g, cfg["measure"]),
                             np.array(cfg["vertex"]))
    mu = F.restrict(mu, F.groups.Ball(np.zeros(1), 1.0))
    dtrace = F.strong_derivative(mu, np.zeros(1),
                                 radii=0.5 ** np.arange(16) * 0.5)
    u = F.HeatExtension(mu, F.profile_for(g))
    limits = {}
    for alpha in (0.5, 1.0):
        lt = F.parabolic_limit(u, F.ParabolicRegion(np.zeros(1), aperture=alpha,
                                                    t_max=0.25))
        assert np.array_equal(lt.t_values, 0.25 * 4.0 ** -np.arange(12))
        limits[repr(alpha)] = F.TraceDecision(lt.estimate, lt.oscillation,
                                              lt.converged)
    decision = F.scenario_decision(
        F.TraceDecision(dtrace.estimate, dtrace.oscillation, dtrace.converged),
        limits)
    assert decision.verdict == "MISMATCH"
    # the same measure on the shared schedule is equivalent
    assert F.run_scenario(cfg).verdict == "equivalent"


@pytest.mark.parametrize("label", ["eg-bump", "hc-remote-atom"])
def test_apertures_share_the_central_axis_values(label, monkeypatch):
    # every trace evaluates its own placements, the beta = 0 one included,
    # at each of the 12 times; that placement does not depend on the
    # aperture, so every trace's CSV has the same central rows
    from fatoulab import extension as E
    cfg = next(c for name in F.suite_names()
               for c in S.preset_suite(name) if c["label"] == label)
    rows = []
    real_eval = E.HeatExtension._eval

    def counting(self, pts, times):
        rows.append(pts.shape[0])
        return real_eval(self, pts, times)

    monkeypatch.setattr(E.HeatExtension, "_eval", counting)
    report = F.run_scenario(cfg)
    n_apertures = len(report.limits)
    assert n_apertures == 2
    assert rows == [F.SCALES.n_scales * len(E._PLACEMENTS)] * n_apertures
    assert len(E._PLACEMENTS) == 17
    central = [[line for line in csv.split("\n")[1:] if line.split(",")[1:2] == ["0.0"]]
               for key, csv in report.traces.items() if key.startswith("limit-")]
    assert len(central) == n_apertures
    assert len(central[0]) == F.SCALES.n_scales and central[0] == central[1]
