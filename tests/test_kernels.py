"""Kernel-layer tests against independently derived closed-form values.

Oracles used here (derived by hand / with mpmath, frozen as constants):

* Euclidean time-1 profile at 0 in R^1: (4 pi)^(-1/2) = 0.28209479177387814.
* Heisenberg profile on the center line: gamma(0, 0, s) = sech(pi s / 8)^2 / 64,
  in particular gamma(0) = 1/64.
* Marginals of the Heisenberg profile:
  integral over s     -> exp(-|z|^2/4) / (4 pi),
  integral over z     -> sech(pi s / 8) / 8,
  integral of gamma^2 -> 1/256.
"""

import copy
import math
import os
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from scipy.integrate import quad

import fatoulab as F
from fatoulab import kernels as K, quadrature
from conftest import ensure_validated
from references import (complex_key_pairs, heisenberg_gamma,
                        imaginary_residue, panel_width)

GAMMA_EU1_ZERO = 0.28209479177387814  # (4 pi)^(-1/2)
GAMMA_H_ZERO = 0.015625  # 1/64
GAMMA_H_CENTER_S2 = 0.008905218184271523  # sech(pi/4)^2 / 64


def center_line(s):
    return (1.0 / math.cosh(math.pi * s / 8.0)) ** 2 / 64.0


# ---------------------------------------------------------------------------
# Euclidean profiles: pure closed form
# ---------------------------------------------------------------------------

def test_euclidean_profile_closed_form(p1, p3):
    assert p1.gamma(np.array([0.0])) == pytest.approx(GAMMA_EU1_ZERO, rel=1e-15)
    # gamma_n(x) = (4 pi)^(-n/2) exp(-|x|^2/4)
    x = np.array([1.0, -2.0, 0.5])
    expected = (4 * math.pi) ** -1.5 * math.exp(-(1 + 4 + 0.25) / 4)
    assert p3.gamma(x) == pytest.approx(expected, rel=1e-14)


def test_euclidean_mass_and_semigroup(p1, p2):
    for t in (0.25, 1.0, 4.0):
        assert F.kernel_mass(p1, t) == pytest.approx(1.0, abs=1e-6)
    assert F.check_semigroup(p1, np.array([0.7]), 1.0, 0.5) < 1e-8
    assert F.check_semigroup(p2, np.array([0.3, -0.4]), 1.0, 1.0) < 1e-8


# (call on the R^1 profile, error, the argument and value it must name)
_BAD_ENTRIES = {
    "kernel-mass-negative": (lambda p: F.kernel_mass(p, -1.0),
                             F.NumericsError, "t=-1.0"),
    "kernel-mass-zero": (lambda p: F.kernel_mass(p, 0.0),
                         F.NumericsError, "t=0.0"),
    "kernel-mass-inf": (lambda p: F.kernel_mass(p, math.inf),
                        F.NumericsError, "t=inf"),
    "kernel-mass-nan": (lambda p: F.kernel_mass(p, math.nan),
                        F.NumericsError, "t=nan"),
    "semigroup-inf": (lambda p: F.check_semigroup(p, [0.0], 1.0, math.inf),
                      F.NumericsError, "tau=inf"),
    "semigroup-nan-point": (lambda p: F.check_semigroup(p, [math.nan], 1.0,
                                                        1.0),
                            F.GroupError, "x=[nan]"),
    "pde-zero-step": (lambda p: F.pde_residual(p, [0.0], 1.0, 0.0),
                      F.NumericsError, "h=0.0"),
    # a point of the wrong width (the narrow ones on the R^2 profile), or
    # a NaN coordinate, used to give a number: 0.2697, 0.0761, 3.47e-6, NaN
    "kernel-wide-point": (lambda p: F.eval_kernel(p, [0.3, 0.3], 1.0),
                          F.GroupError, "shape (2,)"),
    "kernel-narrow-point": (lambda p: F.eval_kernel(
        F.profile_for(F.euclidean_group(2)), [0.3], 1.0),
        F.GroupError, "shape (1,)"),
    "pde-narrow-point": (lambda p: F.pde_residual(
        F.profile_for(F.euclidean_group(2)), [0.3], 1.0, 1e-2),
        F.GroupError, "x=[0.3]"),
    "pde-nan-point": (lambda p: F.pde_residual(p, [math.nan], 1.0, 1e-2),
                      F.GroupError, "x=[nan]"),
    # a profile read points of the wrong width: H1 dropped a fourth
    # coordinate or raised a bare IndexError on two, R^2 summed three
    "gamma-h1-wide": (lambda p: F.gamma_heisenberg([0.1, 0.2, 0.3, 0.4]),
                      F.GroupError, "shape (4,)"),
    "gamma-h1-narrow": (lambda p: F.gamma_heisenberg([0.1, 0.2]),
                        F.GroupError, "shape (2,)"),
    "profile-h1-wide": (lambda p: F.heisenberg_profile().gamma(
        np.zeros((5, 4))), F.GroupError, "shape (5, 4)"),
    "profile-h1-narrow": (lambda p: F.heisenberg_profile().gamma(
        np.zeros((5, 2))), F.GroupError, "shape (5, 2)"),
    "gamma-r2-wide": (lambda p: F.gamma_euclidean(2, [0.1, 0.2, 0.3]),
                      F.GroupError, "shape (3,)"),
    # battery seeds numpy refuses used to raise its bare ValueError or
    # TypeError
    "battery-seed-negative": (lambda p: F.validate_profile(p, seed=-1),
                              F.NumericsError, "seed=-1"),
    "battery-seed-fraction": (lambda p: F.validate_profile(p, seed=1.5),
                              F.NumericsError, "seed=1.5"),
    "battery-seed-text": (lambda p: F.validate_profile(p, seed="a"),
                          F.NumericsError, "seed='a'"),
    "sandwich-negative": (lambda p: F.sandwich_constants(
        p.group, F.default_profile(), -1.0), F.MeasureError, "alpha=-1.0"),
    "sandwich-inf": (lambda p: F.sandwich_constants(
        p.group, F.default_profile(), math.inf), F.MeasureError, "alpha=inf"),
    "sandwich-zero": (lambda p: F.sandwich_constants(
        p.group, F.default_profile(), 0.0), F.MeasureError, "alpha=0.0"),
    "grid-zero": (lambda p: F.geometric_grid(0.0, 1.0),
                  F.MeasureError, "r_min=0.0"),
    "grid-reversed": (lambda p: F.geometric_grid(1.0, 1e-3),
                      F.MeasureError, "r_max=0.001"),
    "grid-negative-density": (lambda p: F.geometric_grid(1e-3, 1.0, -1),
                              F.MeasureError, "per_decade=-1"),
    "grid-zero-density": (lambda p: F.geometric_grid(1e-3, 1.0, 0),
                          F.MeasureError, "per_decade=0"),
}


@pytest.mark.parametrize("case", sorted(_BAD_ENTRIES))
def test_public_helpers_check_their_input_at_entry(case, p1):
    # kernel times, steps and battery seeds are NumericsErrors, as in
    # eval_kernel; points of the wrong width GroupErrors;
    # apertures and grid bounds MeasureErrors, as in nontangential_max;
    # a point with a non-finite coordinate is a GroupError. They used to
    # raise math, division or numpy errors, a GroupError from a dilation,
    # or return a constant of the wrong sign, a NaN or a one-point grid
    call, error, named = _BAD_ENTRIES[case]
    with pytest.raises(error, match=re.escape(named)):
        call(p1)


def test_kernel_mass_integrates_on_the_eta_grid(p1, p2, p3, ph):
    # sqrt(t) is a power of 2, so the dilated nodes give back the eta-grid's
    # own gamma values, and only the order of the sum differs
    for k in (p1, p2, p3, ph):
        total = math.fsum(k.eta_grid.gamma_w)
        for t in (0.25, 1.0, 4.0):
            assert abs(F.kernel_mass(k, t) - total) <= 1e-14, (k.group.label, t)


def _h1_box_tail(s_edge, z_edge):
    """gamma's mass outside the H1 eta-box |s| <= s_edge, |z_i| <= z_edge,
    to first order in the two tails: the s-marginal is Levy's area law
    (1/8) sech(pi s / 8), whose mass past |s| = S is (4/pi) arctan
    e^(-pi S / 8), and each z_i is normal with variance 2, whose mass past
    |z_i| = Z is erfc(Z / 2)."""
    return (4.0 / math.pi * math.atan(math.exp(-math.pi * s_edge / 8.0))
            + 2.0 * math.erfc(z_edge / 2.0))


def test_h1_eta_box_loses_the_closed_form_tail(gh, ph):
    # 1 - kernel_mass (9.9619e-6) is the box's tail (9.9661e-6) within
    # 1e-8; negative control: the tail of a box with s out to 25 (6.96e-5)
    # fails the same check
    (_, z_edge, _, _), _, (_, s_edge, _, _) = gh.eta_grid
    deficit = 1.0 - F.kernel_mass(ph, 1.0)
    assert abs(deficit - _h1_box_tail(s_edge, z_edge)) <= 1e-8
    assert abs(deficit - _h1_box_tail(25.0, z_edge)) > 1e-8


def test_compressed_rule_keeps_the_eta_grid_mass(ph):
    # Q6's weights sum to the grid's gamma * w within 1e-15 relative
    grid = ph.eta_grid
    total = math.fsum(grid.gamma_w)
    assert abs(math.fsum(ph.eta_rule.w) - total) <= 1e-15 * total


def test_battery_and_heat_extension_build_one_grid_per_profile(p1, p2, p3, ph,
                                                               monkeypatch):
    built = []
    make = K._EtaGrid

    def counting(*args):
        built.append(args)
        return make(*args)

    monkeypatch.setattr(K, "_EtaGrid", counting)
    for real in (p1, p2, p3, ph):
        k = F.KernelProfile(group=real.group, gamma=real.gamma,
                            gamma_accurate=real.gamma_accurate,
                            quadrature_spec=dict(real.quadrature_spec))
        built.clear()
        assert F.validate_profile(k)["passed"]
        n = k.group.total_dim
        mu = F.DensityMeasure(k.group, lambda p: np.ones(p.shape[:-1]),
                              [[-1.0, 1.0]] * n)
        assert F.HeatExtension(mu, k)(np.zeros(n), 0.5) > 0.0
        assert len(built) == 1, k.group.label


def test_certificate_evaluates_its_grid_once(p1, p2, p3, ph, monkeypatch):
    calls = []
    real = K.eval_kernel

    def counting(k, x, t):
        calls.append(t)
        return real(k, x, t)

    monkeypatch.setattr(K, "eval_kernel", counting)
    for k in (p1, p2, p3, ph):
        kept = k.certificate
        try:
            calls.clear()
            cert = K.certify_gaussian(k)
        finally:
            k.certificate = kept
        # 3 times x 25 distances, one call each
        assert len(calls) == 75, k.group.label
        # d = 0 binds: the lower constant there is 1 / gamma(0)
        v0 = float(k.gamma(np.zeros(k.group.total_dim)))
        assert cert.c0 == 1.02 * (1.0 / v0), k.group.label


def test_euclidean_pde_order(p1):
    r1 = F.pde_residual(p1, np.array([0.3]), 1.0, 2e-2)
    r2 = F.pde_residual(p1, np.array([0.3]), 1.0, 1e-2)
    assert 2.5 <= r1 / r2 <= 6.0


# ---------------------------------------------------------------------------
# Heisenberg profile: frozen center-line values
# ---------------------------------------------------------------------------

def test_heisenberg_origin_value(ph):
    spline = ph.gamma(np.zeros(3))
    direct = ph.gamma_accurate(np.zeros(3))
    assert direct == pytest.approx(GAMMA_H_ZERO, rel=1e-12)
    assert spline == pytest.approx(GAMMA_H_ZERO, rel=1e-7)


def test_heisenberg_center_line(ph):
    assert ph.gamma_accurate(np.array([0.0, 0.0, 2.0])) == pytest.approx(
        GAMMA_H_CENTER_S2, rel=1e-12
    )
    for s in (0.5, 2.0, 7.0):
        got = ph.gamma_accurate(np.array([0.0, 0.0, s]))
        assert got == pytest.approx(center_line(s), rel=1e-10), f"s={s}"
        # table-backed evaluation agrees to spline accuracy
        assert ph.gamma(np.array([0.0, 0.0, s])) == pytest.approx(
            center_line(s), rel=1e-6
        )


def test_heisenberg_far_field_matches_center_line(ph):
    # past the spline table (|s| > 32): shifted-contour quadrature
    s = 40.0
    got = ph.gamma(np.array([0.0, 0.0, s]))
    assert got == pytest.approx(center_line(s), rel=1e-8)
    # deep tail is cut off to exact zero (value ~ exp(-0.98*pi/8*500) ~ 1e-84)
    assert ph.gamma(np.array([0.0, 0.0, 500.0])) == 0.0
    assert ph.gamma(np.array([60.0, 0.0, 40.0])) == 0.0


# Far-field values past the table, converged with both the real-axis and the
# shifted-contour rule (mpmath, 50 digits).
FAR_FIELD = {
    (10.0, 0.0, 28.0): 6.25430770746e-15,
    (12.0, 0.0, 30.0): 1.16605384177e-19,
    (9.0, 0.0, 25.0): 8.23112929324e-13,
    (3.0, 0.0, 60.0): 3.94182417878e-16,
}

# table, near-field (past the table, |s| <= 24), far-field on both rules,
# and underflow-to-zero points
MIXED_BATCH = np.array([
    [0.3, -0.2, 1.0],
    [5.0, 6.0, -20.0],
    [10.5, 0.0, 3.0],
    [-7.0, 8.0, 22.0],
    [10.0, 0.0, 28.0],
    [12.0, 0.0, -30.0],
    [2.0, 1.0, 40.0],
    [3.0, 0.0, 60.0],
    [0.5, -0.5, 300.0],
    [60.0, 0.0, 40.0],
    [0.0, 0.0, 500.0],
])


def test_heisenberg_far_field_anchors(ph):
    for (x, y, s), expected in FAR_FIELD.items():
        pt = np.array([x, y, s])
        assert ph.gamma(pt) == pytest.approx(expected, rel=1e-6), (x, y, s)
        assert ph.gamma_accurate(pt) == pytest.approx(expected, rel=1e-6)


def test_heisenberg_gamma_is_batch_independent(ph):
    rng = np.random.default_rng(11)
    batch = np.concatenate([MIXED_BATCH, rng.normal(size=(40, 3)) * [6, 6, 40]])
    for gam in (ph.gamma, ph.gamma_accurate):
        full = np.asarray(gam(batch))
        for i in range(batch.shape[0]):
            assert gam(batch[i:i + 1])[0] == full[i], batch[i]
            assert gam(batch[i]) == full[i], batch[i]
        half = batch.shape[0] // 2
        halves = np.concatenate([gam(batch[:half]), gam(batch[half:])])
        assert np.array_equal(halves, full)


def test_heisenberg_gamma_exact_on_images(ph):
    signs = np.array([[a, b, c] for a in (1, -1) for b in (1, -1)
                      for c in (1, -1)], dtype=float)
    for p in MIXED_BATCH:
        images = np.concatenate([signs * p, signs * p[[1, 0, 2]]])
        for gam in (ph.gamma, ph.gamma_accurate):
            value = gam(p)
            assert all(gam(q) == value for q in images), p
            assert np.all(gam(images) == value), p


def test_heisenberg_mass_pass_evaluates_distinct_pairs_once(ph, monkeypatch):
    # the mass pass runs on the eta-grid, 32 x 32 x 64 = 65,536 nodes,
    # symmetric on each axis: 136 values of |z| x 32 of |s| at t = 1
    counted = []

    def counting(fn):
        def wrapped(rho, sigma, *at):
            counted.append(np.size(at[0] if at else rho))
            return fn(rho, sigma, *at)
        return wrapped

    ph.eta_grid  # built first: its own gamma pass is not counted
    monkeypatch.setattr(K, "_direct_gamma_rho_sigma",
                        counting(K._direct_gamma_rho_sigma))
    monkeypatch.setattr(ph.gamma.spline, "ev", counting(ph.gamma.spline.ev))
    F.kernel_mass(ph, 1.0)
    assert 0 < sum(counted) <= 4352


def _pair_map_inputs(ph):
    """Coordinate arrays for the H1 pair map, by name: the eta-grid and a
    row block of it, where the (#|z| x #|s|) table marks the pairs; clouds
    whose |z| repeat, with points past the kernel table, where the codes
    are sorted; clouds whose every point has its own |z|, one of them
    with more |s| values than a spline pass holds bases for; and edge
    shapes and values."""
    grid = K.tensor_rule(ph.eta_grid.axes)[0]
    rng = np.random.default_rng(5)
    cloud = rng.normal(size=(300, 3)) * 2.0
    wide = rng.normal(size=(300, 3)) * [6.0, 6.0, 30.0]
    flips = np.array([[-1.0, 1.0, 1.0], [1.0, 1.0, -1.0], [1.0, -1.0, 1.0]])
    return {
        "mass-grid": grid,
        "eta-block": grid[:1 << 15],
        "repeated-cloud": np.concatenate([cloud, cloud * flips[0],
                                          cloud[::-1] * flips[1]]),
        "repeated-beyond-table": np.concatenate([wide, wide * flips[2]]),
        "scattered": rng.normal(size=(432, 3)) * 1.5,
        "scattered-many": rng.normal(size=(3 * K._SPLINE_CHUNK, 3)) * 1.5,
        "signed-zeros": np.array([[0.0, 0.0, 0.0], [-0.0, 0.0, -0.0],
                                  [0.0, -0.0, 0.5], [-0.0, -0.0, -0.5]]),
        "one-point": np.array([0.3, -0.2, 0.7]),
        "no-points": np.zeros((0, 3)),
        "nested": rng.normal(size=(2, 2, 3)),
        "infinite": np.array([[math.inf, 0.0, 0.0], [0.0, 0.0, math.inf],
                              [1.0, 1.0, -math.inf], [0.1, 0.2, 0.3]]),
    }


@pytest.mark.parametrize("name", ["mass-grid", "eta-block", "repeated-cloud",
                                  "repeated-beyond-table", "scattered",
                                  "scattered-many", "signed-zeros",
                                  "one-point", "no-points", "nested",
                                  "infinite"])
def test_pair_map_matches_the_complex_key_reference(ph, name):
    # the pairs come in the reference's ascending (|z|, |s|) order, and
    # gamma keeps its bits, on every branch of the map
    coords = _pair_map_inputs(ph)[name]
    rho, sig, at_rho, at_sig, inverse, scalar = K._distinct_pairs(coords)
    ref_rho, ref_sig, ref_inverse, ref_scalar = complex_key_pairs(coords)
    assert rho[at_rho].tobytes() == ref_rho.tobytes()
    assert sig[at_sig].tobytes() == ref_sig.tobytes()
    assert np.array_equal(inverse, ref_inverse) and scalar == ref_scalar
    n = max(1, inverse.size)
    table = rho.size * sig.size <= K._PAIR_TABLE_SHARE * n
    branch = ("own |z|" if rho.size == inverse.size else
              "table" if table else "sorted codes")
    assert branch == {"mass-grid": "table", "eta-block": "table",
                      "repeated-cloud": "sorted codes",
                      "repeated-beyond-table": "sorted codes",
                      "scattered": "own |z|",
                      "scattered-many": "own |z|"}.get(name, branch)
    if name == "scattered-many":
        assert sig.size > K._SPLINE_CHUNK
    got, want = ph.gamma(coords), heisenberg_gamma(ph.gamma, coords)
    assert type(got) is type(want) and np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    if name == "infinite":
        assert np.all(got[:3] == 0.0)


def test_pair_map_reads_nan_as_nan(ph):
    coords = np.array([[math.nan, 0.0, 0.0], [0.0, 0.0, math.nan],
                       [0.1, 0.2, 0.3], [math.nan] * 3])
    nan = [True, True, False, True]
    for gam in (ph.gamma, K.gamma_heisenberg):
        got = gam(coords)
        assert np.isnan(got).tolist() == nan
        assert got[2] == gam(coords[2])
    assert ph.gamma(coords)[2] == heisenberg_gamma(ph.gamma, coords)[2]


# ---------------------------------------------------------------------------
# the direct branch's lambda-rule cutoff: each point keeps the panels whose
# dropped tail is bounded below 2^-60 of its first term
# ---------------------------------------------------------------------------

EPS = np.finfo(float).eps
CONTOURS = {"real": (0.0, K._plain_terms),
            "shifted": (K._TAU_SHIFT, K._shifted_terms)}


def test_leading_panels_are_the_full_rules_own_nodes():
    counts = np.array([1, 3, 28, 29, 97, 467, 1001, 4673])
    for k in (1, 2, 28):
        n = counts[counts >= k]
        lam, wt = quadrature.leading_panels(K._LAM_MAX, n, k)
        for row, count in enumerate(n):
            full_lam, full_wt = quadrature.gauss_legendre(0.0, K._LAM_MAX,
                                                          int(count))
            assert np.array_equal(lam[row], full_lam[:16 * k]), (count, k)
            assert np.array_equal(wt[row], full_wt[:16 * k]), (count, k)
    # k = n takes the rule's exact right end, as linspace does
    lam, wt = quadrature.leading_panels(K._LAM_MAX, counts, int(counts[-1]))
    ref = quadrature.gauss_legendre(0.0, K._LAM_MAX, int(counts[-1]))
    assert np.array_equal(lam[-1], ref[0]) and np.array_equal(wt[-1], ref[1])


@pytest.mark.parametrize("contour", sorted(CONTOURS))
def test_lambda_envelope_bounds_the_integrand(contour):
    # on lam = u + i tau: |lam / sinh 4 lam| <= (u + tau) / sinh 4u and
    # Re(lam coth 4 lam) >= u tanh 4u, so the integrand's modulus is at most
    # the envelope, which decreases in u
    tau, _ = CONTOURS[contour]
    u = np.linspace(1e-4, K._LAM_MAX, 200_001)
    lam = u + 1j * tau
    four = 4.0 * lam
    assert np.all(np.abs(lam / np.sinh(four))
                  <= (u + tau) / np.sinh(4.0 * u) * (1.0 + 4.0 * EPS))
    re = (lam / np.tanh(four)).real
    assert np.all(re >= u * np.tanh(4.0 * u) * (1.0 - 4.0 * EPS))
    for rho2 in (0.0, 1.0, 100.0, 2670.0):
        env = K._lambda_envelope(u, rho2, tau)
        modulus = np.abs(lam / np.sinh(four)
                         * np.exp(-rho2 * (lam / np.tanh(four))))
        # up to the rounding of exp at an exponent of size rho2 u, on the
        # moduli that are normal numbers
        normal = modulus >= np.finfo(float).tiny
        slack = 1.0 + 8.0 * EPS * (1.0 + rho2 * u)
        assert np.all((modulus <= env * slack)[normal]), rho2
        assert np.all(np.diff(env) <= 0.0), rho2


def test_shifted_contour_real_part_and_the_bound_it_does_not_give():
    # Re(lam coth 4 lam) = (u sinh 8u + tau sin 8 tau) / (cosh 8u - cos 8 tau)
    # on the shifted contour; negative control: it is not >= u, which the
    # real axis gives (0.483 at u = 0.5), so the envelope takes u tanh 4u
    tau = K._TAU_SHIFT
    u = np.linspace(1e-4, 10.0, 20_001)
    lam = u + 1j * tau
    re = (lam / np.tanh(4.0 * lam)).real
    closed = ((u * np.sinh(8.0 * u) + tau * math.sin(8.0 * tau))
              / (np.cosh(8.0 * u) - math.cos(8.0 * tau)))
    assert np.max(np.abs(re - closed) / closed) <= 1e-13
    half = (0.5 + 1j * tau) / np.tanh(4.0 * (0.5 + 1j * tau))
    assert half.real == pytest.approx(0.483, abs=1e-3)
    assert np.any(re < u)
    real_axis = u / np.tanh(4.0 * u)
    assert np.all(real_axis >= u)


def _full_rule_terms(terms, rho2, sigma, n):
    """Every term (n panels x 16) of one point's full lambda rule."""
    lam, wt = quadrature.leading_panels(K._LAM_MAX, np.array([n]), int(n))
    return terms(np.array([rho2]), np.array([sigma]), lam, wt).reshape(-1, 16)


@pytest.mark.parametrize("contour", sorted(CONTOURS))
def test_discrete_tail_bound_covers_every_dropped_tail(contour):
    # for every cut k: h * sum_(j >= k) envelope(j h) >= the absolute sum of
    # the full rule's terms on panels k .. n - 1, and `_kept_panels` takes
    # the least k whose bound is at most 2^-60 of the rule's first term
    tau, terms = CONTOURS[contour]
    for rho2 in (0.0, 1.0, 10.0, 100.0, 1000.0, 2670.0):
        for sigma in (0.5, 25.0, 40.0, 100.0, 300.0):
            freq = sigma + 1.5 * rho2 if tau else sigma
            n = int(K._panel_counts(np.array([freq]))[0])
            full = np.abs(_full_rule_terms(terms, rho2, sigma, n))
            dropped = np.cumsum(full.sum(axis=1)[::-1])[::-1][1:]
            h = K._LAM_MAX / n
            env = K._lambda_envelope(np.arange(1, n) * h, rho2, tau)
            bound = np.cumsum(env[::-1])[::-1] * h
            assert np.all(bound >= dropped), (contour, rho2, sigma)
            first = full[0, 0]
            k = int(K._kept_panels(np.array([rho2]), np.array([n]), tau,
                                   np.array([first]))[0])
            bound_at = np.append(bound, 0.0)  # bound_at[k - 1]: panels k ..
            assert bound_at[k - 1] <= K._TAIL_SHARE * first
            assert k == 1 or bound_at[k - 2] > K._TAIL_SHARE * first


def _cut_and_full(monkeypatch, rho, sigma):
    """Direct-branch values with the cutoff and with every panel kept, and
    each point's absolute sum of its full rule's terms, scaled as its value
    (0 for the exact zeros, which take no rule)."""
    cut = K._direct_gamma_rho_sigma(rho, sigma)
    l1 = {}
    rows = K._cut_rows

    def recording(terms, rho2, sig, n_panels, k):
        for r2, s, n in zip(rho2, sig, n_panels):
            scale = math.exp(-K._TAU_SHIFT * s) if terms is K._shifted_terms else 1.0
            total = np.abs(_full_rule_terms(terms, r2, s, n)).sum()
            l1[(r2, s)] = total * scale / math.pi ** 2
        return rows(terms, rho2, sig, n_panels, k)

    monkeypatch.setattr(K, "_kept_panels", lambda rho2, n, tau, first: n.copy())
    monkeypatch.setattr(K, "_cut_rows", recording)
    full = K._direct_gamma_rho_sigma(rho, sigma)
    monkeypatch.undo()
    return cut, full, np.array([l1.get((r * r, s), 0.0)
                                for r, s in zip(rho, sigma)])


def test_cut_values_agree_with_the_full_rule(monkeypatch):
    # MIXED_BATCH, a seeded random batch and FAR_FIELD, on the direct branch
    # at every point: the cut moves a value by at most 4 eps of its terms'
    # absolute sum, and no exact zero moves
    rng = np.random.default_rng(28)
    pts = np.concatenate([MIXED_BATCH, np.array(list(FAR_FIELD)),
                          rng.normal(size=(60, 3)) * [6, 6, 40],
                          rng.normal(size=(20, 3)) * [3, 3, 150]])
    rho, sigma = np.hypot(pts[:, 0], pts[:, 1]), np.abs(pts[:, 2])
    cut, full, l1 = _cut_and_full(monkeypatch, rho, sigma)
    assert np.all(np.abs(cut - full) <= 4.0 * EPS * l1)
    assert np.array_equal(cut == 0.0, full == 0.0)
    assert np.count_nonzero(l1) >= 90


def _direct_plain(rho2, sigma):
    """Reference column of the kernel table: its own lambda rule per sigma."""
    lam, wt = quadrature.gauss_legendre(
        0.0, K._LAM_MAX, max(1, math.ceil(K._LAM_MAX / panel_width(sigma))))
    four = 4.0 * lam
    amp = (lam / np.sinh(four)) * wt * np.cos(lam * sigma)
    cth = lam / np.tanh(four)
    return np.exp(-np.outer(np.atleast_1d(rho2), cth)) @ amp / math.pi ** 2


def test_heisenberg_table_matches_per_column_quadrature(ph):
    machine = ph.gamma
    r2 = machine.rho_grid ** 2
    assert machine.table.shape == (241, 481)
    # both lambda-rule regimes: one shared rule up to |s| = 24, then
    # rules narrowing with |s|
    assert machine.sig_grid.min() <= 24.0 < machine.sig_grid.max()
    for j, sg in enumerate(machine.sig_grid):
        reference = _direct_plain(r2, float(sg))
        assert np.array_equal(machine.table[:, j], reference), sg


def test_heisenberg_table_builds_each_lambda_rule_once(ph, monkeypatch):
    built = []

    def counting(a, b, n_panels, *args, **kwargs):
        built.append(n_panels)
        return quadrature.gauss_legendre(a, b, n_panels, *args, **kwargs)

    monkeypatch.setattr(K, "gauss_legendre", counting)
    fresh = K._HeisenbergGamma()
    rules = {max(1, math.ceil(K._LAM_MAX / panel_width(float(sg))))
             for sg in fresh.sig_grid}
    widths = {panel_width(float(sg)) for sg in fresh.sig_grid}
    assert sorted(built) == sorted(rules)
    assert len(rules) < len(widths)
    assert np.array_equal(fresh.table, ph.gamma.table)


# ---------------------------------------------------------------------------
# in-house spline and Lambert W against SciPy's FITPACK and lambertw; the
# certificate's closed-form constants against brentq roots
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def fitpack(ph):
    from scipy.interpolate import RectBivariateSpline

    machine = ph.gamma
    return RectBivariateSpline(machine.rho_grid, machine.sig_grid,
                               np.log(machine.table), kx=3, ky=3, s=0)


def test_spline_knots_equal_fitpack(ph, fitpack):
    tx, ty = fitpack.get_knots()
    assert np.array_equal(ph.gamma.spline.tx, tx)
    assert np.array_equal(ph.gamma.spline.ty, ty)


def test_spline_matches_fitpack(ph, fitpack):
    machine = ph.gamma
    rho, sig = machine.rho_grid, machine.sig_grid
    nodes = np.meshgrid(rho, sig, indexing="ij")
    fine_r = np.linspace(0.0, K._TABLE_RHO_MAX, 997)
    fine_s = np.linspace(0.0, K._TABLE_SIG_MAX, 1999)
    edges = (
        np.concatenate([fine_r, fine_r, np.zeros(fine_s.size),
                        np.full(fine_s.size, K._TABLE_RHO_MAX)]),
        np.concatenate([np.zeros(fine_r.size),
                        np.full(fine_r.size, K._TABLE_SIG_MAX), fine_s, fine_s]),
    )
    corners = (np.array([0.0, 0.0, K._TABLE_RHO_MAX, K._TABLE_RHO_MAX]),
               np.array([0.0, K._TABLE_SIG_MAX, 0.0, K._TABLE_SIG_MAX]))
    rng = np.random.default_rng(12)
    random = (rng.uniform(0.0, K._TABLE_RHO_MAX, 400_000),
              rng.uniform(0.0, K._TABLE_SIG_MAX, 400_000))
    def ours(r, s):
        at = np.arange(np.size(r))
        return machine.spline.ev(np.ravel(r), np.ravel(s), at, at)

    for name, (r, s) in {"nodes": nodes, "edges": edges, "corners": corners,
                         "random": random}.items():
        ref = fitpack.ev(np.ravel(r), np.ravel(s))
        assert np.max(np.abs(ours(r, s) - ref)) <= 1e-13, name
    # an interpolant: the table is reproduced at its nodes
    assert np.max(np.abs(ours(*nodes) - np.log(machine.table).ravel())) <= 1e-13


def test_lambert_w0_equals_scipy():
    from scipy.special import lambertw

    z = np.logspace(-12, 300, 20_001)
    ref = lambertw(z).real
    assert np.max(np.abs(K._lambert_w0(z) - ref) / np.spacing(ref)) <= 2.0
    assert K._lambert_w0(np.array([math.e]))[0] == pytest.approx(1.0, rel=1e-15)


def _brent_constant(f, increasing):
    """Smallest c >= 1 with f(c) >= 0 (increasing f) or f(c) <= 0, by
    doubling a bracket from [1, 2] and solving it with brentq."""
    from scipy.optimize import brentq

    sign = 1.0 if increasing else -1.0
    if sign * f(1.0) >= 0.0:
        return 1.0
    hi = 2.0
    while sign * f(hi) < 0.0:
        hi *= 2.0
    return brentq(f, 1.0, hi, xtol=1e-12, rtol=1e-14)


def test_closed_form_constants_equal_brent_roots(p1, p2, p3, ph):
    for k in (p1, p2, p3, ph):
        _, d, v = K._grid_values(k)
        r = K._envelope_ratio(d, v)
        for di, vi, ri in zip(d, v, r):
            up = _brent_constant(
                lambda c: math.log(c) - di * di / c - math.log(vi), True)
            low = _brent_constant(
                lambda c: -math.log(c) - c * di * di - math.log(vi), False)
            for ours, ref in ((max(1.0, ri), up), (max(1.0, 1.0 / ri), low)):
                assert abs(ours - ref) <= 1e-12 + 1e-14 * ref, (
                    k.group.label, di, vi)


def _profile_with(k, gamma):
    return F.KernelProfile(group=k.group, gamma=gamma,
                           gamma_accurate=gamma,
                           quadrature_spec=dict(k.quadrature_spec))


def test_certificate_rejects_a_constant_past_its_limit(p1, p2, p3, ph):
    # negative control: gamma x 1e10 needs c0 = 1e10 gamma(0) > 1e8
    for k in (p1, p2, p3, ph):
        loud = _profile_with(k, lambda c, k=k: 1e10 * k.gamma(c))
        with pytest.raises(F.CertificationError, match="requires c0"):
            K.certify_gaussian(loud)
        assert loud.certificate is None


@pytest.mark.parametrize("bad", [math.nan, 0.0])
def test_certificate_rejects_a_value_that_is_not_positive(p1, ph, bad):
    # negative control: one grid value NaN or 0, at the 8th scaled distance
    for k in (p1, ph):
        g = k.group
        target = [0.0, *np.geomspace(0.05, 8.0, 24).tolist()][7]
        hit = []

        def spoiled(coords, k=k, g=g):
            vals = np.array(k.gamma(coords), dtype=float)
            on = np.flatnonzero(np.isclose(F.norm(g, coords), target))
            if on.size and not hit:
                hit.append(on[0])
                vals.flat[on[0]] = bad
            return vals

        with pytest.raises(F.CertificationError,
                           match=f"at scaled distance {target} is not finite"):
            K.certify_gaussian(_profile_with(k, spoiled))
        assert len(hit) == 1


def test_runtime_needs_no_scipy():
    code = textwrap.dedent("""
        import sys
        sys.modules["scipy"] = None  # any scipy import now raises ImportError
        import numpy as np
        import fatoulab as F
        from fatoulab import groups as G, kernels as K
        for label in G.GROUP_LABELS:
            K.certify_gaussian(K.profile_for(G.get_group(label)))
        gh = G.get_group("heisenberg:1")
        mu = F.AtomicMeasure(gh, [[0.6, 0.2, 0.1]], [1.0])
        u = F.HeatExtension(mu, K.profile_for(gh))(np.zeros(3), 0.5)
        m = F.mollifier_convolution(mu, F.default_profile(), np.zeros(3), 0.5)
        assert u > 0.0 and m > 0.0
        loaded = [name for name, mod in sys.modules.items()
                  if name.split(".")[0] == "scipy" and mod is not None]
        assert not loaded, loaded
    """)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_spline_vs_direct_row_catches_a_bad_table_column(ph):
    err, n_held = K._spline_vs_direct(ph)
    assert n_held == 7200
    assert err <= K._SPLINE_VS_DIRECT_TOL
    # negative control: one column of the table 0.1% off
    bad = K._HeisenbergGamma()
    bad.table[:, 100] *= 1.0 + 1e-3
    bad.spline = K._BicubicSpline(bad.rho_grid, bad.sig_grid, np.log(bad.table))
    scaled = F.KernelProfile(group=ph.group, gamma=bad, gamma_accurate=K.gamma_heisenberg,
                             quadrature_spec=dict(ph.quadrature_spec))
    bad_err, _ = K._spline_vs_direct(scaled)
    assert bad_err > K._SPLINE_VS_DIRECT_TOL
    assert K._spline_vs_direct(F.euclidean_profile(2)) is None


def test_validation_catches_a_kernel_with_the_wrong_homogeneous_dimension(p2):
    # negative control: a copy of the euclidean:2 group that reports Q + 1,
    # so Gamma(x, t) = t^(-(Q+1)/2) gamma(delta_(1/sqrt t) x) is off by
    # t^(-1/2). The normalization and scaling rows carry the same exponent
    # on both sides and cancel it; the PDE residual keeps a first-order
    # term (ratio near 1), and the semigroup's direct side is off by
    # (t + tau)^(-1/2) while its convolution at t = 1 is not.
    g = copy.copy(p2.group)
    object.__setattr__(g, "hom_dim", p2.group.hom_dim + 1)
    vars(g).pop("unit_ball_rule", None)
    wrong = F.KernelProfile(group=g, gamma=p2.gamma,
                            gamma_accurate=p2.gamma_accurate,
                            quadrature_spec=dict(p2.quadrature_spec))
    report = F.validate_profile(wrong)
    failed = {c["property"] for c in report["checks"] if not c["pass"]}
    assert not report["passed"]
    assert failed == {"pde_residual_order", "semigroup"}
    ratio = next(c["max_residual"] for c in report["checks"]
                 if c["property"] == "pde_residual_order")
    assert ratio == pytest.approx(1.0, abs=0.05)


def test_heisenberg_marginals(ph):
    # integral over the center coordinate at fixed z
    for rho in (0.0, 0.7, 1.5):
        val, err = quad(
            lambda s: F.gamma_heisenberg(np.array([rho, 0.0, s])), 0, 30.0,
            limit=200,
        )
        expected = math.exp(-rho * rho / 4.0) / (4.0 * math.pi)
        assert 2 * val == pytest.approx(expected, rel=5e-6), f"rho={rho}"
    # integral over z in polar form at fixed s
    for s in (0.0, 3.0):
        val, err = quad(
            lambda r: 2 * math.pi * r * F.gamma_heisenberg(np.array([r, 0.0, s])),
            0, 12.0, limit=200,
        )
        expected = (1.0 / math.cosh(math.pi * s / 8.0)) / 8.0
        assert val == pytest.approx(expected, rel=5e-6), f"s={s}"


def _h1_marginals(gamma, grid):
    """gamma's s-marginal at 81 points of |s| <= 20 on the eta-grid's
    z-rule, and its z-marginal at 15 points of |z| <= 1 on its s-rule, with
    the closed forms (1/8) sech(pi s / 8) and e^(-|z|^2 / 4) / (4 pi)."""
    (zx, wx), (zy, wy), (s_nodes, s_w) = grid.axes
    z_nodes, z_w = quadrature.tensor_rule([(zx, wx), (zy, wy)])
    s = np.linspace(-20.0, 20.0, 81)
    pts = np.concatenate([np.column_stack([z_nodes, np.full(z_w.size, v)])
                          for v in s])
    s_marg = (gamma(pts).reshape(s.size, -1) * z_w).sum(axis=1)
    z = np.array([(r * math.cos(a), r * math.sin(a))
                  for r in (0.0, 0.25, 0.5, 0.75, 1.0)
                  for a in (0.0, 0.7, 2.0)])
    pts = np.concatenate([np.column_stack([np.tile(c, (s_w.size, 1)),
                                           s_nodes]) for c in z])
    z_marg = (gamma(pts).reshape(len(z), -1) * s_w).sum(axis=1)
    return (np.abs(s_marg - 0.125 / np.cosh(math.pi * s / 8.0)).max(),
            np.abs(z_marg - np.exp(-(z * z).sum(axis=1) / 4.0)
                   / (4.0 * math.pi)).max())


def test_heisenberg_marginals_on_the_eta_grid(ph):
    # the s-marginal is Levy's area law and the z-marginal the planar
    # Gaussian: measured 7.2e-9 and 3.8e-10 on the grid's axis rules.
    # Negative controls: gamma with s scaled by 1.01 (Jacobian included)
    # misses the s-law by 1.2e-3, and gamma with z scaled by 1.01 the
    # z-law by 1.6e-3; scaling s keeps the z-marginal, so it is no control
    # for it
    grid = ph.eta_grid
    s_err, z_err = _h1_marginals(ph.gamma, grid)
    assert s_err <= 1e-8 and z_err <= 1e-9, (s_err, z_err)
    s_scaled = _h1_marginals(
        lambda p: 1.01 * ph.gamma(p * [1.0, 1.0, 1.01]), grid)[0]
    z_scaled = _h1_marginals(
        lambda p: 1.01 ** 2 * ph.gamma(p * [1.01, 1.01, 1.0]), grid)[1]
    assert s_scaled > 1e-4 and z_scaled > 1e-4, (s_scaled, z_scaled)


def test_heisenberg_l2_norm(ph):
    # integral of gamma^2 over the group = 1/256
    inner, _ = quad(
        lambda s: quad(
            lambda r: 2 * math.pi * r
            * F.gamma_heisenberg(np.array([r, 0.0, s])) ** 2,
            0, 9.0, limit=100,
        )[0],
        0, 25.0, limit=100,
    )
    assert 2 * inner == pytest.approx(1.0 / 256.0, rel=1e-5)


def test_heisenberg_against_mpmath(ph):
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30

    def reference(rho, sigma):
        def f(lam):
            four = 4 * lam
            if lam == 0:
                return mp.mpf(1) / 4 * mp.cos(0)
            return (lam / mp.sinh(four)) * mp.exp(
                -lam / mp.tanh(four) * rho * rho
            ) * mp.cos(lam * sigma)

        return float(mp.quad(f, [0, mp.inf]) / mp.pi ** 2)

    for rho, sigma in ((0.7, 0.5), (1.5, 3.0), (0.3, 10.0)):
        got = ph.gamma_accurate(np.array([rho, 0.0, sigma]))
        assert got == pytest.approx(reference(rho, sigma), rel=1e-10), (rho, sigma)


def test_imaginary_residue_negligible():
    assert imaginary_residue() <= 1e-10


# ---------------------------------------------------------------------------
# structural identities
# ---------------------------------------------------------------------------

def test_kernel_symmetry(gh, ph):
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(64, 3)) * 1.5
    a = np.asarray(ph.gamma(pts))
    b = np.asarray(ph.gamma(F.inverse(gh, pts)))
    assert np.max(np.abs(a - b) / a) <= 1e-8


def test_kernel_scaling_exact(gh, ph, p2):
    rng = np.random.default_rng(8)
    for k in (ph, p2):
        g = k.group
        for _ in range(20):
            x = rng.normal(size=g.total_dim)
            r = float(np.exp(rng.uniform(-1.0, 1.0)))
            t = float(np.exp(rng.uniform(-1.0, 1.0)))
            a = float(F.eval_kernel(k, F.dilate(g, r, x), r * r * t))
            b = r ** (-g.hom_dim) * float(F.eval_kernel(k, x, t))
            assert abs(a - b) <= 1e-13 * abs(b)


def test_eval_kernel_rejects_bad_time(p1):
    with pytest.raises(F.NumericsError):
        F.eval_kernel(p1, np.array([0.0]), 0.0)
    with pytest.raises(F.NumericsError):
        F.eval_kernel(p1, np.array([0.0]), -1.0)


@pytest.mark.parametrize("q, least", [(1, 5e-324), (2, 5.56e-309),
                                      (3, 3.14e-206), (4, 7.46e-155)])
def test_least_kernel_time_is_where_the_power_overflows(q, least):
    t = K._least_time(q)
    assert t == pytest.approx(least, rel=1e-3)
    assert math.isfinite(K._time_power(q, t))
    if t > math.ulp(0.0):
        below = math.nextafter(t, 0.0)
        with pytest.raises(F.NumericsError, match=repr(below)):
            K._time_power(q, below)


def test_eval_kernel_names_the_least_time(gh, ph, p3):
    # below it t^(-Q/2) overflows: a NumericsError, not an OverflowError
    with pytest.raises(F.NumericsError, match="1e-160") as err:
        F.eval_kernel(ph, np.zeros(3), 1e-160)
    assert repr(K._least_time(4)) in str(err.value)
    with pytest.raises(F.NumericsError, match="1e-207"):
        F.eval_kernel(p3, np.zeros(3), 1e-207)
    assert math.isfinite(float(F.eval_kernel(ph, np.zeros(3), 1e-154)))


@pytest.mark.parametrize("call", ["heat-extension", "heat-max",
                                  "pde-residual"])
def test_very_small_times_name_the_least_time(call, gh, ph):
    # at t = 1e-320 the dilation factor (1 / sqrt t)^2 overflows as a
    # Python float before t^(-Q/2) would: each call takes the power first,
    # so it is a NumericsError naming the least time, not an OverflowError
    mu = F.AtomicMeasure(gh, [[0.0, 0.0, 0.0]], [1.0])
    x = np.array([0.1, 0.0, 0.2])
    calls = {
        "heat-extension": lambda: F.HeatExtension(mu, ph)(x, 1e-320),
        "heat-max": lambda: F.heat_max(mu, ph, x, s_grid=[1e-160]),
        "pde-residual": lambda: F.pde_residual(ph, x, 1e-320, 1e-200),
    }
    with pytest.raises(F.NumericsError,
                       match=re.escape(repr(K._least_time(4)))) as err:
        calls[call]()
    assert not isinstance(err.value, OverflowError)


def test_profile_for_routing(g1, gh, p1, ph):
    assert F.profile_for(g1) is p1
    assert F.profile_for(gh) is ph


# ---------------------------------------------------------------------------
# certified Gaussian envelopes
# ---------------------------------------------------------------------------

# each equals 1.02 / gamma(0) = 1.02 * (4 pi)^(Q/2) (Euclidean) or 1.02 * 64
EXPECTED_C0 = {
    "euclidean:1": 3.615805855847253,
    "euclidean:2": 12.817698026646356,
    "euclidean:3": 45.43755645414674,
    "heisenberg:1": 65.27999999999997,
}


def test_certificates_hold(p1, p2, p3, ph):
    for k in (p1, p2, p3, ph):
        report, _ = ensure_validated(k)
        cert = k.certificate
        assert cert is not None
        assert cert.max_violation <= 0.0
        assert cert.c0 == pytest.approx(EXPECTED_C0[k.group.label], rel=1e-6)
        assert report["c0"] == cert.c0


def test_certificate_pointwise_beyond_grid(ph):
    ensure_validated(ph)
    c0 = ph.certificate.c0
    g = ph.group
    q = g.hom_dim
    rng = np.random.default_rng(99)
    worst = -np.inf
    for _ in range(200):
        x = rng.normal(size=3) * rng.uniform(0.2, 2.0)
        t = float(np.exp(rng.uniform(-1.5, 1.5)))
        d2 = float(F.norm(g, x)) ** 2
        val = float(F.eval_kernel(ph, x, t))
        lower = t ** (-q / 2.0) * math.exp(-c0 * d2 / t) / c0
        upper = c0 * t ** (-q / 2.0) * math.exp(-d2 / (c0 * t))
        assert lower <= val * (1 + 1e-9)
        assert val <= upper * (1 + 1e-9)
        worst = max(worst, lower - val, val - upper)
    assert worst <= 1e-9


# ---------------------------------------------------------------------------
# full battery (shared across the session; heavy parts run once)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["euclidean:1", "euclidean:2", "euclidean:3",
                                  "heisenberg:1"])
def test_validation_battery_passes(name, p1, p2, p3, ph):
    profile = {"euclidean:1": p1, "euclidean:2": p2, "euclidean:3": p3,
               "heisenberg:1": ph}[name]
    report, _ = ensure_validated(profile)
    failed = [c["property"] for c in report["checks"] if not c["pass"]]
    assert report["passed"], f"failed checks: {failed}"
    assert profile.validation_state == "validated"


@pytest.mark.parametrize("name", ["heisenberg:1", "euclidean:2"])
def test_normalization_check_fails_on_scaled_kernel(name, p2, ph):
    # negative control: a kernel with 5% too much mass must fail the battery
    real = {"heisenberg:1": ph, "euclidean:2": p2}[name]
    scaled = F.KernelProfile(
        group=real.group,
        gamma=lambda c: 1.05 * real.gamma(c),
        gamma_accurate=lambda c: 1.05 * real.gamma_accurate(c),
        quadrature_spec=dict(real.quadrature_spec),
    )
    report = F.validate_profile(scaled)
    checks = {c["property"]: c for c in report["checks"]}
    assert not checks["normalization t=1.0"]["pass"]
    assert checks["normalization t=1.0"]["max_residual"] == pytest.approx(
        0.05, abs=1e-3)
    assert not report["passed"]
    assert scaled.validation_state == "failed"
