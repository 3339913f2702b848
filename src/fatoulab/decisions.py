"""Every bar that decides a verdict, and one pure function per decision.

The paper's theorem is an equivalence with equal values: the parabolic
limit of the heat extension exists at a boundary point exactly when the
strong derivative of the boundary measure does, and the two agree. So a
scenario's verdict comes from three decisions over the traces a report
writes (the derivative quotients and the parabolic values of its CSVs):
the derivative trace converges, every parabolic trace converges, and the
two estimates agree. The tail check and the maximal chains decide from the
arrays their result dicts carry.

``TABLE`` holds every bar, once. The functions below read it and nothing
else: each takes plain arrays, numbers and flags and returns plain data,
so a verdict can be re-derived from written files alone. The maximal
checks pick their slacks by the measure kind: atoms carry rounding only,
densities two quadratures.

``SCALES`` is the one scale axis both traces of a scenario are read on:
the derivative's radii r_k and the parabolic times t_k = (r_k / kappa)^2.
The paper's proof compares u(x, t) with ball averages at a radius
comparable to sqrt(t), through the kernel's Gaussian bounds (Varopoulos,
Saloff-Coste and Coulhon, *Analysis and Geometry on Groups*, 1992), so the
two decision windows cover the same scales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "VERDICT_EQUIVALENT",
    "VERDICT_BOTH_DIVERGE",
    "VERDICT_MISMATCH",
    "DecisionTable",
    "TABLE",
    "ScaleSchedule",
    "SCALES",
    "TraceDecision",
    "ScenarioDecision",
    "trailing_window",
    "trace_decision",
    "scenario_decision",
    "tail_decision",
    "sandwich_slacks",
    "heat_chain_slack",
    "holds_with_slack",
    "decade_flag",
    "tied_argmax",
]

VERDICT_EQUIVALENT = "equivalent"
VERDICT_BOTH_DIVERGE = "both-diverge"
VERDICT_MISMATCH = "MISMATCH"


@dataclass(frozen=True)
class DecisionTable:
    """The bars behind every verdict."""

    # derivative and parabolic traces
    window: int = 5
    spread_tol: float = 1e-2
    # derivative against each aperture's parabolic limit
    agreement_floor: float = 1e-2
    agreement_osc_factor: float = 2.0
    # derivative against a config's expected limit
    expected_floor: float = 2e-2
    expected_osc_factor: float = 5.0
    # tail heat outside the localization ball
    tail_tol: float = 1e-8
    monotone_slack: float = 1e-12
    # maximal sandwich and heat chain
    sandwich_upper_slack: float = 0.02
    sandwich_lower_slack_atomic: float = 1e-9
    sandwich_lower_slack_density: float = 1e-2
    heat_chain_slack_atomic: float = 1e-9
    heat_chain_slack_density: float = 0.02
    decade_growth: float = 10.0
    argmax_ulps: int = 4
    # inside heat values: the compressed eta-rule's value is kept where its
    # embedded estimate |Q6 - Q4| is at most this times |Q6|, a tenth of the
    # 9.96e-6 mass the H1 eta-box already leaves out
    eta_rule_tol: float = 1e-6


TABLE = DecisionTable()


@dataclass(frozen=True)
class ScaleSchedule:
    """The scales both traces of a scenario read.

    For a restrict radius R the radii are r_k = min(0.5, R/2) 2^-(k + first)
    for k < n_scales, and the parabolic times t_k = (r_k / kappa)^2, so t_0
    is 4^-5 on R^n and 4.6e-4 on H1 (R = 1 / C_L). The decision windows
    read the last ``TABLE.window`` scales; larger t, where the eta-box image
    of a slice cuts a density's support box, are not sampled at all.
    """

    n_scales: int = 12
    first: int = 4
    kappa: float = 1.0

    def radii(self, restrict_radius: float) -> np.ndarray:
        """r_k, k < n_scales, for a restrict radius R."""
        top = min(0.5, restrict_radius / 2.0)
        return top * 0.5 ** (np.arange(self.n_scales) + self.first)

    def times(self, t_first: float) -> np.ndarray:
        """t_first 4^-k, k < n_scales: the t_k = (r_k / kappa)^2 of the
        radii whose first time is t_first. Each r_k is r_0 times a power
        of two, so these equal (r_k / kappa)^2 bit for bit."""
        return t_first * 0.25 ** np.arange(self.n_scales)

    def first_time(self, restrict_radius: float) -> float:
        """t_0 = (r_0 / kappa)^2 for a restrict radius R."""
        return float((self.radii(restrict_radius)[0] / self.kappa) ** 2)


SCALES = ScaleSchedule()


@dataclass(frozen=True)
class TraceDecision:
    """Estimate, spread and convergence of one trace's trailing window."""

    estimate: float
    oscillation: float
    converged: bool


@dataclass(frozen=True)
class ScenarioDecision:
    """A scenario's verdict, its agreement record and its expectation bit."""

    verdict: str
    agreement: dict
    matches_expected: bool


def trailing_window(values) -> np.ndarray:
    """The last ``TABLE.window`` steps of every row of ``values``."""
    return np.asarray(values)[..., -TABLE.window:]


def trace_decision(values) -> TraceDecision:
    """Decide a trace of shape (rows, steps).

    The estimate is the trailing window's mean, the oscillation its spread
    over ALL rows, and the trace converges when that spread is strictly
    below spread_tol * max(1, |estimate|): a tie does not converge, nor
    does a window with a non-finite value.
    """
    tail = trailing_window(values)
    finite = np.all(np.isfinite(tail))
    est = float(tail.mean()) if finite else math.inf
    osc = float(tail.max() - tail.min()) if finite else math.inf
    converged = bool(finite and osc < TABLE.spread_tol * max(1.0, abs(est)))
    return TraceDecision(estimate=est, oscillation=osc, converged=converged)


def scenario_decision(derivative: TraceDecision, limits: dict,
                      expected_verdict: str | None = None,
                      expected_limit: float | None = None,
                      tail_vanishes: bool = True) -> ScenarioDecision:
    """Verdict, agreement and expectation bit of one scenario.

    ``limits`` maps each aperture key to its parabolic `TraceDecision`.
    Both sides converged and every aperture within max(agreement_floor,
    agreement_osc_factor * (osc_d + osc_p)) * max(1, |derivative|) gives
    "equivalent"; neither side converged "both-diverge"; anything else
    "MISMATCH". The agreement record is {"threshold": None,
    "per_aperture": {key: {"delta", "threshold", "agree"}}}, filled only
    when both sides converged; each threshold is the bar before its
    max(1, |derivative|) scale.

    The report matches its expectations when the verdict is the expected
    one, a converged derivative lies within max(expected_floor,
    expected_osc_factor * osc_d) * max(1, |expected|) of the expected
    limit, and the tail vanishes.
    """
    deriv_conv = derivative.converged
    parab_conv = all(lim.converged for lim in limits.values())
    agreement = {"threshold": None, "per_aperture": {}}
    if deriv_conv and parab_conv:
        agree_all = True
        for key, lim in limits.items():
            thr = max(TABLE.agreement_floor, TABLE.agreement_osc_factor
                      * (derivative.oscillation + lim.oscillation))
            delta = abs(lim.estimate - derivative.estimate)
            ok = delta <= thr * max(1.0, abs(derivative.estimate))
            agreement["per_aperture"][key] = {
                "delta": delta, "threshold": thr, "agree": bool(ok),
            }
            agree_all &= ok
        verdict = VERDICT_EQUIVALENT if agree_all else VERDICT_MISMATCH
    elif not deriv_conv and not parab_conv:
        verdict = VERDICT_BOTH_DIVERGE
    else:
        verdict = VERDICT_MISMATCH

    matches = True
    if expected_verdict is not None:
        matches &= verdict == expected_verdict
    if expected_limit is not None and deriv_conv:
        tol = max(TABLE.expected_floor,
                  TABLE.expected_osc_factor * derivative.oscillation)
        matches &= (abs(derivative.estimate - expected_limit)
                    <= tol * max(1.0, abs(expected_limit)))
    matches &= tail_vanishes
    return ScenarioDecision(verdict=verdict, agreement=agreement,
                            matches_expected=bool(matches))


def tail_decision(values, dominated: bool,
                  total_mass: float) -> tuple[bool, bool]:
    """(vanishes, monotone) of a tail bound sampled along a decreasing t
    schedule.

    It vanishes when its envelope rate exists (``dominated``) and the last
    value is at most tail_tol * max(1, total_mass); it is monotone when no
    step rises by more than monotone_slack of the largest value, or when
    it vanishes.
    """
    values = np.asarray(values, dtype=float)
    slack = TABLE.monotone_slack * max(1.0, float(values.max(initial=0.0)))
    vanishes = dominated and bool(
        values[-1] <= TABLE.tail_tol * max(1.0, total_mass))
    monotone = bool(np.all(np.diff(values) <= slack)) or vanishes
    return vanishes, monotone


def sandwich_slacks(atomic: bool) -> tuple[float, float]:
    """(upper, lower) slacks of the maximal sandwich for a measure that is
    purely atomic or not."""
    lower = (TABLE.sandwich_lower_slack_atomic if atomic
             else TABLE.sandwich_lower_slack_density)
    return TABLE.sandwich_upper_slack, lower


def heat_chain_slack(atomic: bool) -> float:
    """Slack of both heat-chain inequalities for a purely atomic measure or
    one with a density part."""
    return (TABLE.heat_chain_slack_atomic if atomic
            else TABLE.heat_chain_slack_density)


def holds_with_slack(lhs: float, rhs: float, slack: float) -> bool:
    """lhs <= rhs up to the relative slack."""
    return bool(lhs <= rhs * (1.0 + slack))


def decade_flag(scales, values) -> bool:
    """True when values keep growing by at least ``decade_growth`` per
    decade at the smallest scale, or are not all finite."""
    scales, values = np.asarray(scales), np.asarray(values)
    if not np.all(np.isfinite(values)):
        return True
    i10 = int(np.searchsorted(scales, scales[0] * 10.0))
    if i10 >= values.size:
        i10 = values.size - 1
    return bool(values[0] >= TABLE.decade_growth * max(values[i10], 1e-300))


def tied_argmax(values) -> int:
    """First index within ``argmax_ulps`` ulps (relative) of the maximum.

    On a flat stretch the values differ by rounding only; a plain argmax
    would let the last bits pick the scale.
    """
    values = np.asarray(values)
    i = int(np.argmax(values))
    top = float(values[i])
    if not math.isfinite(top):
        return i
    tie = TABLE.argmax_ulps * np.finfo(float).eps * abs(top)
    return int(np.argmax(values >= top - tie))
