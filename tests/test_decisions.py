"""Negative controls for the decision table, one rule at a time.

Every rule of ``fatoulab.decisions`` is a pure function of plain arrays, so
each is checked here on synthetic inputs placed just inside and just outside
its bar; nothing below runs a quadrature.
"""

import dataclasses
import inspect

import numpy as np
import pytest

import fatoulab as F
from fatoulab import decisions as D

EPS = np.finfo(float).eps


def _trace(window_values, rows=3, head=(7.0, -3.0)):
    """A (rows, steps) trace whose trailing window cycles through
    ``window_values`` and whose earlier steps are far off."""
    w = D.TABLE.window
    tail = np.resize(np.asarray(window_values, dtype=float), rows * w)
    vals = np.empty((rows, len(head) + w))
    vals[:, :len(head)] = head
    vals[:, len(head):] = tail.reshape(rows, w)
    return vals


# ---------------------------------------------------------------------------
# the table
# ---------------------------------------------------------------------------

def test_table_holds_the_bars_and_is_frozen():
    t = D.TABLE
    assert (t.window, t.spread_tol) == (5, 1e-2)
    assert (t.agreement_floor, t.agreement_osc_factor) == (1e-2, 2.0)
    assert (t.expected_floor, t.expected_osc_factor) == (2e-2, 5.0)
    assert (t.tail_tol, t.monotone_slack) == (1e-8, 1e-12)
    assert D.sandwich_slacks(True) == (0.02, 1e-9)
    assert D.sandwich_slacks(False) == (0.02, 1e-2)
    assert (D.heat_chain_slack(True), D.heat_chain_slack(False)) == (1e-9, 0.02)
    assert (t.decade_growth, t.argmax_ulps) == (10.0, 4)
    assert t.eta_rule_tol == 1e-6
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.spread_tol = 1.0


def test_removed_knobs_stay_removed():
    gone = {
        F.strong_derivative: {"window", "tol"},
        F.parabolic_limit: {"window", "tol", "n_steps", "ratio", "betas",
                            "n_directions"},
        F.tail_vanishing_check: {"tol", "t_schedule", "n_directions"},
        F.check_sandwich: {"slack_upper", "slack_lower"},
        F.check_heat_chain: {"slack"},
    }
    for fn, names in gone.items():
        assert not names & set(inspect.signature(fn).parameters), fn.__name__
    for cls in (F.DerivativeTrace, F.LimitTrace):
        fields = {f.name for f in dataclasses.fields(cls)}
        assert not {"window", "tol"} & fields, cls.__name__


@pytest.mark.parametrize("side", ["derivative", "limit"])
@pytest.mark.parametrize("key", ["tol", "window"])
def test_config_rejects_the_removed_trace_keys(side, key):
    cfg = {"schema_version": 1, "label": "knob", "group": "euclidean:1",
           "measure": {"type": "atomic", "points": [[0.5]], "weights": [1.0]},
           side: {key: 5 if key == "window" else 1e-2}}
    with pytest.raises(F.ConfigError) as err:
        F.Scenario.from_config(cfg)
    assert key in str(err.value) and side in str(err.value)


@pytest.mark.parametrize("side, key", [
    ("derivative", "n_radii"), ("limit", "t_max"), ("limit", "n_steps")])
def test_config_rejects_the_schedule_keys(side, key):
    cfg = {"schema_version": 1, "label": "knob", "group": "euclidean:1",
           "measure": {"type": "atomic", "points": [[0.5]], "weights": [1.0]},
           side: {key: 0.25 if key == "t_max" else 8}}
    with pytest.raises(F.ConfigError) as err:
        F.Scenario.from_config(cfg)
    assert key in str(err.value) and side in str(err.value)


# ---------------------------------------------------------------------------
# the scale schedule
# ---------------------------------------------------------------------------

def test_schedule_is_frozen_and_its_radii_are_the_old_finest_twelve():
    s = D.SCALES
    assert (s.n_scales, s.first, s.kappa) == (12, 4, 1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.kappa = 2.0
    for label in F.GROUP_LABELS:
        radius = 1.0 / F.get_group(label).quasi_triangle_const
        old = 0.5 ** np.arange(16) * min(0.5, radius / 2.0)
        assert np.array_equal(s.radii(radius), old[4:])


@pytest.mark.parametrize("radius", [1.0, 0.6865537407193872, 0.3, 2.0])
def test_schedule_times_are_the_squared_radii_bit_for_bit(radius):
    s = D.SCALES
    t = s.times(s.first_time(radius))
    assert np.array_equal(t, (s.radii(radius) / s.kappa) ** 2)
    assert np.all(np.diff(t) < 0)


def test_schedule_first_time_on_each_group():
    # 4^-5 on R^n; 4.6e-4 on H1, whose restrict radius is 1 / C_L
    for label in F.GROUP_LABELS:
        radius = 1.0 / F.get_group(label).quasi_triangle_const
        t0 = D.SCALES.first_time(radius)
        if label.startswith("euclidean"):
            assert t0 == 4.0 ** -5
        else:
            assert t0 == pytest.approx(4.6e-4, rel=1e-3)


@pytest.mark.parametrize("label", ["euclidean:1", "heisenberg:1"])
def test_library_defaults_read_the_one_scale_axis(label):
    # without radii or t_max, both traces read SCALES at the default
    # restrict radius 1 / C_L, as a scenario does
    g = F.get_group(label)
    mu = F.AtomicMeasure(g, [[0.5] + [0.0] * (g.total_dim - 1)], [1.0])
    radii = D.SCALES.radii(1.0 / g.quasi_triangle_const)
    trace = F.strong_derivative(mu, np.zeros(g.total_dim))
    assert np.array_equal(trace.radii, radii)
    u = F.HeatExtension(mu, F.profile_for(g))
    limit = F.parabolic_limit(u, F.ParabolicRegion(np.zeros(g.total_dim)))
    assert np.array_equal(limit.t_values, (radii / D.SCALES.kappa) ** 2)


# ---------------------------------------------------------------------------
# trace convergence
# ---------------------------------------------------------------------------

def test_spread_equal_to_the_bar_does_not_converge():
    # estimate < 1, so the bar is spread_tol itself: a tie is not converged
    dec = D.trace_decision(_trace([0.0, 0.01]))
    assert dec.estimate < 1.0
    assert dec.oscillation == 0.01 and not dec.converged


def test_spread_just_below_the_bar_converges():
    dec = D.trace_decision(_trace([0.0, 0.0099]))
    assert dec.oscillation == 0.0099 and dec.converged


def test_spread_bar_scales_with_a_large_estimate():
    # around 2 the bar is 1e-2 * |estimate|, about 2.0e-2
    assert D.trace_decision(_trace([2.0, 2.015])).converged
    assert not D.trace_decision(_trace([2.0, 2.025])).converged


def test_trace_reads_only_the_trailing_window():
    vals = _trace([0.5, 0.5])
    dec = D.trace_decision(vals)
    assert dec == D.TraceDecision(0.5, 0.0, True)
    assert np.array_equal(D.trailing_window(vals), vals[:, -D.TABLE.window:])


def test_non_finite_trace_does_not_converge():
    for bad in (np.nan, np.inf, -np.inf):
        dec = D.trace_decision(_trace([0.5, bad]))
        assert dec == D.TraceDecision(np.inf, np.inf, False)
    # a non-finite value before the window does not count
    assert D.trace_decision(_trace([0.5], head=(np.nan,))).converged


# ---------------------------------------------------------------------------
# verdict, agreement and expected limit
# ---------------------------------------------------------------------------

def _tr(estimate, oscillation=0.0, converged=True):
    return D.TraceDecision(estimate, oscillation, converged)


def test_agreement_just_inside_and_just_outside():
    # 2 (osc_d + osc_p) = 2^-6 > 1e-2 sets the bar; |estimate| < 1
    osc = 2.0 ** -8
    thr = 2.0 ** -6
    inside = D.scenario_decision(
        _tr(0.5, osc), {"1.0": _tr(0.5 + thr, osc)})
    assert inside.verdict == D.VERDICT_EQUIVALENT
    assert inside.agreement == {"threshold": None, "per_aperture": {
        "1.0": {"delta": thr, "threshold": thr, "agree": True}}}
    outside = D.scenario_decision(
        _tr(0.5, osc), {"0.5": _tr(0.5), "1.0": _tr(0.5 + thr + 2.0 ** -20,
                                                    osc)})
    assert outside.verdict == D.VERDICT_MISMATCH
    per = outside.agreement["per_aperture"]
    assert per["0.5"]["agree"] and not per["1.0"]["agree"]


def test_agreement_floor_and_scale():
    # no oscillation: the floor 1e-2 times max(1, |estimate|) = 4
    assert D.scenario_decision(
        _tr(4.0), {"1.0": _tr(4.039)}).verdict == D.VERDICT_EQUIVALENT
    assert D.scenario_decision(
        _tr(4.0), {"1.0": _tr(4.041)}).verdict == D.VERDICT_MISMATCH


def test_verdict_needs_both_sides():
    div = _tr(np.inf, np.inf, False)
    assert D.scenario_decision(div, {"1.0": div}).verdict == \
        D.VERDICT_BOTH_DIVERGE
    one = D.scenario_decision(_tr(1.0), {"0.5": _tr(1.0), "1.0": div})
    assert one.verdict == D.VERDICT_MISMATCH
    assert one.agreement == {"threshold": None, "per_aperture": {}}
    assert D.scenario_decision(div, {"1.0": _tr(1.0)}).verdict == \
        D.VERDICT_MISMATCH


def test_expected_limit_bar():
    # 5 osc_d = 5 * 2^-7 = 0.0390625 > 2e-2 sets the bar; |expected| < 1
    osc = 2.0 ** -7
    lim = {"1.0": _tr(0.5)}
    close = D.scenario_decision(_tr(0.5 + 5.0 * osc, osc), lim,
                                expected_limit=0.5)
    assert close.matches_expected
    far = D.scenario_decision(_tr(0.5 + 5.0 * osc + 2.0 ** -20, osc), lim,
                              expected_limit=0.5)
    assert not far.matches_expected
    # the floor 2e-2, scaled by max(1, |expected|) = 2
    assert D.scenario_decision(_tr(2.039), {}, expected_limit=2.0
                               ).matches_expected
    assert not D.scenario_decision(_tr(2.041), {}, expected_limit=2.0
                                   ).matches_expected
    # a derivative that does not converge is not held to the limit
    assert D.scenario_decision(_tr(9.0, 1.0, False), {},
                               expected_limit=0.5).matches_expected


def test_expectation_needs_the_verdict_and_a_vanishing_tail():
    ok = D.scenario_decision(_tr(1.0), {"1.0": _tr(1.0)},
                             expected_verdict=D.VERDICT_EQUIVALENT)
    assert ok.matches_expected
    assert not D.scenario_decision(
        _tr(1.0), {"1.0": _tr(1.0)},
        expected_verdict=D.VERDICT_BOTH_DIVERGE).matches_expected
    assert not D.scenario_decision(
        _tr(1.0), {"1.0": _tr(1.0)}, tail_vanishes=False).matches_expected


# ---------------------------------------------------------------------------
# tail
# ---------------------------------------------------------------------------

def test_tail_needs_domination():
    assert D.tail_decision(np.zeros(4), False, 1.0) == (False, True)
    assert D.tail_decision(np.zeros(4), True, 1.0) == (True, True)


def test_tail_at_its_bar():
    # bar tail_tol * max(1, total mass): 1e-8 for mass 0.5, 3e-8 for 3
    at = np.array([1.0, 1e-3, 1e-8])
    assert D.tail_decision(at, True, 0.5)[0]
    assert not D.tail_decision(at * (1.0 + 1e-6), True, 0.5)[0]
    assert D.tail_decision(3.0 * at, True, 3.0)[0]


def test_tail_monotone():
    rising = np.array([1.0, 2.0, 1.0])
    assert D.tail_decision(rising, True, 1.0) == (False, False)
    # a rise that vanishes by the last t passes through ``vanishes``
    assert D.tail_decision(np.array([1.0, 2.0, 0.0]), True, 1.0) == \
        (True, True)
    # rises within monotone_slack of the largest value are flat
    flat = np.array([2.0, 2.0 + 1e-12, 1.0])
    assert D.tail_decision(flat, True, 1.0) == (False, True)
    assert D.tail_decision(np.array([2.0, 2.0 + 1e-11, 1.0]), True, 1.0) == \
        (False, False)


# ---------------------------------------------------------------------------
# maximal chains
# ---------------------------------------------------------------------------

def test_atomic_and_density_slacks():
    _, atom_lower = D.sandwich_slacks(True)
    _, dens_lower = D.sandwich_slacks(False)
    # a lower inequality off by 5e-3 holds for a density, not for atoms
    assert D.holds_with_slack(1.005, 1.0, dens_lower)
    assert not D.holds_with_slack(1.005, 1.0, atom_lower)
    assert D.holds_with_slack(1.0 + 1e-10, 1.0, atom_lower)
    # the heat chain: 1.5e-2 passes the density slack, not the atomic one
    assert D.holds_with_slack(1.015, 1.0, D.heat_chain_slack(False))
    assert not D.holds_with_slack(1.015, 1.0, D.heat_chain_slack(True))
    assert not D.holds_with_slack(1.025, 1.0, D.heat_chain_slack(False))


def test_maximal_checks_pick_the_slack_from_the_measure_kind(g1, p1):
    s = F.geometric_grid(0.1, 1.0, 4)
    atom = F.AtomicMeasure(g1, [[0.5]], [1.0])
    line = F.DensityMeasure(g1, lambda p: np.ones(p.shape[:-1]), [[-1.0, 1.0]])
    mix = F.MixtureMeasure(g1, [atom, line])
    for mu, atomic in ((atom, True), (line, False), (mix, False)):
        rep = F.check_sandwich(mu, np.zeros(1), alphas=(1.0,), s_grid=s)
        assert (rep["slack_upper"], rep["slack_lower"]) == \
            D.sandwich_slacks(atomic)
    heat = F.check_heat_chain(atom, p1, np.zeros(1), s_grid=s)
    assert heat["slack"] == D.heat_chain_slack(True)


def test_decade_flag():
    # ten times the value a decade up flags, just under ten does not
    scales = np.geomspace(1e-3, 1e-1, 9)
    grow = np.ones(9)
    grow[0] = 10.0
    assert D.decade_flag(scales, grow)
    grow[0] = 9.99
    assert not D.decade_flag(scales, grow)
    grow[5] = np.nan
    assert D.decade_flag(scales, grow)
    # a grid shorter than a decade compares with its last value
    short = np.geomspace(1e-3, 5e-3, 3)
    assert D.decade_flag(short, np.array([10.0, 5.0, 1.0]))
    assert not D.decade_flag(short, np.array([9.0, 5.0, 1.0]))


def test_argmax_tie_within_four_ulps():
    assert D.tied_argmax(np.array([1.0, 1.0 + 4 * EPS, 0.5])) == 0
    assert D.tied_argmax(np.array([1.0, 1.0 + 8 * EPS, 0.5])) == 1
    assert D.tied_argmax(np.array([0.5, 1.0, 1.0 + 2 * EPS])) == 1
    # a non-finite maximum is its own argmax
    assert D.tied_argmax(np.array([1.0, np.inf, 2.0])) == 1
