"""Maximal-operator tests.

Closed-form oracles frozen here (unit atom at gauge distance L from the
query point, Gaussian profile phi(r) = exp(-r^2)):

* Hardy-Littlewood maximal value on the line: sup_(r>L) 1/(2r) = 1/(2L);
  the geometric grid (40 points/decade) can undershoot by at most the grid
  ratio 10^(1/40) - 1 < 6%.
* mollifier maximal value on the line: sup_s s^(-1) exp(-(L/s)^2) is
  attained at s = L sqrt(2) with value exp(-1/2) / (L sqrt(2)).
* lower sandwich constant c_phi = phi(1) m(B(0,1)): 2/e on the line,
  exp(-1) pi^2/8 on the Heisenberg group.
* smearing Lebesgue measure with phi_s recovers, on the Heisenberg group,
  integral of phi = sigma(S) int phi r^3 dr = (pi^2/2) * (1/2) = pi^2/4.
"""

import dataclasses
import math

import numpy as np
import pytest

import fatoulab as F
from fatoulab import groups as G

C_PHI_EU1 = 0.7357588823428847  # 2/e
C_PHI_H1 = 0.4538530689569951   # exp(-1) pi^2 / 8


def test_profile_validation():
    with pytest.raises(F.MeasureError):
        F.RadialProfile(lambda r: -np.ones_like(np.asarray(r)), "negative")
    with pytest.raises(F.MeasureError):
        F.RadialProfile(lambda r: np.asarray(r) ** 2, "increasing")
    with pytest.raises(F.MeasureError):
        F.RadialProfile(lambda r: np.zeros_like(np.asarray(r)), "zero")
    phi = F.default_profile()
    assert phi(1.0) == pytest.approx(math.exp(-1.0))
    assert 5.0 < phi.support_radius < 7.0  # exp(-r^2) < 1e-14 near r = 5.7


def test_geometric_grid_density():
    grid = F.geometric_grid(1e-2, 1e2, 10)
    assert len(grid) == 41
    assert grid[0] == pytest.approx(1e-2) and grid[-1] == pytest.approx(1e2)
    ratios = grid[1:] / grid[:-1]
    assert np.allclose(ratios, 10 ** 0.1)


# ---------------------------------------------------------------------------
# single-atom oracles
# ---------------------------------------------------------------------------

def test_hardy_littlewood_atom_oracle(g1):
    mu = F.AtomicMeasure(g1, [[0.5]], [1.0])
    out = F.hardy_littlewood(mu, np.zeros(1))
    # grid sup never exceeds the true sup 1/(2 * 0.5) = 1
    assert out["value"] <= 1.0 + 1e-12
    assert out["value"] >= 1.0 / 10 ** (1 / 40)  # one grid step below
    assert out["argmax_r"] == pytest.approx(0.5, rel=10 ** (1 / 40) - 1)
    assert not out["divergent"]


def test_radial_max_atom_oracle(g1):
    mu = F.AtomicMeasure(g1, [[0.5]], [1.0])
    out = F.radial_max(mu, F.default_profile(), np.zeros(1))
    exact = math.exp(-0.5) / (0.5 * math.sqrt(2.0))
    assert out["value"] == pytest.approx(exact, rel=1e-3)
    assert out["argmax_s"] == pytest.approx(0.5 * math.sqrt(2.0), rel=3e-2)
    assert not out["divergent"]


def test_divergence_flag_for_atom_at_query_point(g1):
    mu = F.AtomicMeasure(g1, [[0.0]], [1.0])
    hl = F.hardy_littlewood(mu, np.zeros(1))
    assert hl["divergent"]
    rad = F.radial_max(mu, F.default_profile(), np.zeros(1))
    assert rad["divergent"]


# ---------------------------------------------------------------------------
# sandwich constants
# ---------------------------------------------------------------------------

def test_lower_constant_closed_form(g1, gh):
    phi = F.default_profile()
    assert F.sandwich_constants(g1, phi, 1.0)["c_phi"] == pytest.approx(
        C_PHI_EU1, rel=1e-14
    )
    assert F.sandwich_constants(gh, phi, 1.0)["c_phi"] == pytest.approx(
        C_PHI_H1, rel=1e-14
    )


def test_upper_constant_matches_direct_series(g1, gh):
    phi = F.default_profile()
    for g, alpha in ((g1, 1.0), (g1, 0.5), (gh, 2.0)):
        v1 = F.ball_volume(g, 1.0)
        cl, q = g.quasi_triangle_const, g.hom_dim
        total = 2.0 ** q * float(phi(0.0))
        j = 1
        while True:
            term = float(phi(2.0 ** (j - 1) * alpha)) * 2.0 ** ((j + 1) * q)
            total += term
            if term < 1e-15 * total:
                break
            j += 1
        direct = v1 * (cl * alpha) ** q * total
        got = F.sandwich_constants(g, phi, alpha)
        assert got["c_alpha_phi"] == pytest.approx(direct, rel=1e-13), (g.label, alpha)


def test_upper_constant_frozen_value(g1):
    out = F.sandwich_constants(g1, F.default_profile(), 1.0)
    assert out["c_alpha_phi"] == pytest.approx(7.236089352716876, rel=1e-14)
    assert out["n_terms"] == 4


def test_series_divergence_raises(g1):
    slow = F.RadialProfile(lambda r: 1.0 / (1.0 + np.asarray(r)), "slow-decay")
    with pytest.raises(F.CertificationError):
        F.sandwich_constants(g1, slow, 1.0)


# ---------------------------------------------------------------------------
# full sandwich chains
# ---------------------------------------------------------------------------

def test_sandwich_atomic_line(g1):
    mu = F.AtomicMeasure(g1, [[0.5], [-1.2], [2.0]], [1.0, 0.5, 2.0])
    report = F.check_sandwich(mu, np.zeros(1))
    assert report["chain_ok"] and not report["all_divergent"]
    for alpha, entry in report["alphas"].items():
        assert entry["radial_le_nt"] and entry["nt_le_c_hl"]


def test_sandwich_density_line(g1):
    mu = F.DensityMeasure(
        g1, lambda x: 1.0 + 0.5 * x[..., 0] ** 2, [[-2.0, 2.0]]
    )
    report = F.check_sandwich(mu, np.array([0.3]))
    assert report["chain_ok"]


def test_sandwich_vacuous_when_all_divergent(g1):
    mu = F.AtomicMeasure(g1, [[0.0]], [1.0])
    report = F.check_sandwich(mu, np.zeros(1))
    assert report["all_divergent"] and report["chain_ok"]


def test_nontangential_dominates_radial(g2):
    mu = F.DensityMeasure(
        g2,
        lambda p: np.exp(-p[..., 0] ** 2 - p[..., 1] ** 2),
        [[-2.0, 2.0], [-2.0, 2.0]],
    )
    phi = F.default_profile()
    x = np.array([0.4, -0.2])
    s = F.geometric_grid(1e-2, 10.0, 20)
    rad = F.radial_max(mu, phi, x, s_grid=s)
    nt = F.nontangential_max(mu, phi, x, 1.0, s_grid=s)
    # beta = 0 placements reproduce the radial values exactly
    assert nt["value"] >= rad["value"]


@pytest.mark.parametrize("label", F.GROUP_LABELS)
def test_cone_points_share_one_factor_table(label):
    # every direction's rows from one table and one product, and one
    # direction's rows alone, with the bits of x * dilate(r_i, omega) for
    # each row
    g = F.get_group(label)
    n = g.total_dim
    x = np.array([0.3, -0.7, 0.2])[:n]
    r = 0.6 * F.geometric_grid(1e-2, 10.0, 9)
    dirs = G.unit_directions(g, 4)
    many = G.images(g, x, r, dirs).swapaxes(0, 1).reshape(-1, n)
    want = np.array([G.mul(g, x, G.dilate(g, float(ri), d))
                     for d in dirs for ri in r])
    assert many.tobytes() == want.tobytes()
    assert np.concatenate([G.images(g, x, r, d[None])[:, 0]
                           for d in dirs]).tobytes() == want.tobytes()


def test_mollifier_recovers_profile_mass(gh):
    mu = F.DensityMeasure(
        gh, lambda p: np.ones(p.shape[:-1]),
        [[-1.5, 1.5], [-1.5, 1.5], [-1.5, 1.5]],
    )
    got = F.mollifier_convolution(mu, F.default_profile(), np.zeros(3), 0.5)
    assert got == pytest.approx(math.pi ** 2 / 4.0, rel=1e-3)
    with pytest.raises(F.MeasureError):
        F.mollifier_convolution(mu, F.default_profile(), np.zeros(3), 0.0)


def test_profiles_sharing_a_label_keep_their_own_grids(g2):
    # the phi-weighted grid belongs to the profile, not to its label:
    # integral of exp(-a r^2) over the plane is pi / a
    mu = F.DensityMeasure(g2, lambda p: np.ones(p.shape[:-1]),
                          [[-1.0, 1.0], [-1.0, 1.0]])
    wide = F.RadialProfile(lambda r: np.exp(-np.asarray(r) ** 2), "p")
    narrow = F.RadialProfile(lambda r: np.exp(-4.0 * np.asarray(r) ** 2), "p")
    x = np.zeros(2)
    got_wide = F.mollifier_convolution(mu, wide, x, 0.1)
    got_narrow = F.mollifier_convolution(mu, narrow, x, 0.1)
    assert got_wide == pytest.approx(math.pi, rel=1e-9)
    assert got_narrow == pytest.approx(math.pi / 4.0, rel=1e-9)


# ---------------------------------------------------------------------------
# heat maximal chain
# ---------------------------------------------------------------------------

def test_heat_chain_line_atom(g1, p1):
    mu = F.AtomicMeasure(g1, [[0.5]], [1.0])
    report = F.check_heat_chain(mu, p1, np.zeros(1))
    assert report["chain_ok"] and not report["divergent"]
    assert report["lower"]["value"] <= report["heat"]["value"] * 1.02
    assert report["heat"]["value"] <= report["upper"]["value"] * 1.02


def test_heat_chain_heisenberg_atoms(gh, ph):
    mu = F.AtomicMeasure(
        gh, [[0.6, 0.2, 0.1], [-0.3, 0.5, -0.2]], [1.0, 0.7]
    )
    report = F.check_heat_chain(mu, ph, np.zeros(3))
    assert report["chain_ok"] and not report["divergent"]


@pytest.mark.parametrize("label", ["ms-h1-atoms-v3", "ms-eu2-atoms-v1",
                                   "ms-h1-density-v2", "ms-eu1-density-v0"])
def test_heat_chain_fails_with_swapped_envelope(label):
    # negative control: c0 -> 1/c0 swaps the lower and upper Gaussians
    cfg = next(c for c in F.maximal_cases(20, 3) if c["label"] == label)
    g = F.get_group(cfg["group"])
    mu = F.build_measure(g, cfg["measure"])
    profile = F.profile_for(g)
    real = F.gaussian_certificate(profile)
    profile.certificate = dataclasses.replace(real, c0=1.0 / real.c0)
    try:
        report = F.check_heat_chain(
            mu, profile, np.asarray(cfg["points"][0], dtype=float))
    finally:
        profile.certificate = real
    assert not report["chain_ok"]
    assert not report["divergent"]


# ---------------------------------------------------------------------------
# density convolutions above the scale switch against a split reference
# ---------------------------------------------------------------------------

def _h1_density_v2(gh):
    cfg = next(c for c in F.maximal_cases(0, 3)
               if c["label"] == "ms-h1-density-v2")
    return F.build_measure(gh, cfg["measure"])


def _split_panels(a, b, c, order):
    """Gauss-Legendre nodes and weights on [a, b]: one panel of ``order``
    nodes on each side of c when c is inside, else one panel."""
    from fatoulab.quadrature import gauss_legendre

    if not a < c < b:
        return gauss_legendre(a, b, 1, order)
    (n1, w1), (n2, w2) = gauss_legendre(a, c, 1, order), gauss_legendre(
        c, b, 1, order)
    return np.concatenate([n1, n2]), np.concatenate([w1, w2])


def _h1_split_reference(part, phi, x, s, order=40):
    """(part * phi_s)(x) on the Heisenberg group by a rule split at the kink.

    The gauge d(x, y) is not smooth at y = x: on the vertical line through
    y = (z, t) it has its kink at t = s*(z), where x^-1 * y has last
    coordinate 0. The horizontal axes of the support box, clipped to
    x +- R with R = phi.support_radius * s, break at x's coordinates, and
    each vertical line's range, clipped to s* +- R^2 / 4 (the vertical
    reach of B(x, R) for d^4 = |z|^4 + 16 t^2), breaks at s*.
    """
    from fatoulab.quadrature import weighted_sum

    g = part.group
    box = part.support_box
    reach = phi.support_radius * s
    lo = np.maximum(box[:2, 0], x[:2] - reach)
    hi = np.minimum(box[:2, 1], x[:2] + reach)
    if np.any(hi <= lo):
        return 0.0
    (z1, w1), (z2, w2) = (_split_panels(lo[i], hi[i], x[i], order)
                          for i in range(2))
    heads = np.stack([np.repeat(z1, z2.size), np.tile(z2, z1.size),
                      np.zeros(z1.size * z2.size)], axis=1)
    w_cols = np.multiply.outer(w1, w2).ravel()
    kink = -G.mul(g, G.inverse(g, x), heads)[:, 2]
    a = np.maximum(box[2, 0], kink - reach ** 2 / 4.0)
    b = np.minimum(box[2, 1], kink + reach ** 2 / 4.0)
    mid = np.clip(kink, a, b)
    xs, ws = np.polynomial.legendre.leggauss(order)
    total = 0.0
    for u, v in ((a, mid), (mid, b)):
        live = v > u
        half, centre = 0.5 * (v - u)[live], 0.5 * (v + u)[live]
        pts = np.stack([np.repeat(heads[live, 0], order),
                        np.repeat(heads[live, 1], order),
                        (centre[:, None] + half[:, None] * xs).ravel()], axis=1)
        w = ((w_cols[live] * half)[:, None] * ws).ravel()
        rho = np.asarray(G.dist(g, pts, x))
        total += weighted_sum(w * part.density_at(pts), phi(rho / s))
    return s ** (-g.hom_dim) * total


_CONV_SCALES = (1.004, 1.2, 3.0, 10.0, 100.0)

# largest error of a convolution row above the scale switch, relative to
# the reference value at x = 0 on the same scale, over x = 0 and the four
# cone placements at distance 0.9 s (bounds about twice the measured ones)
_CONV_BOUNDS = {
    "default": (1.5e-4, 1.5e-4, 1.5e-5, 2e-9, 1e-10),
    "lower": (3e-4, 3e-4, 1.5e-3, 1e-6, 1e-9),
    "upper": (2e-7, 3e-7, 1.5e-7, 3e-11, 1e-12),
}


def _gauss_profiles(c0):
    """The default profile and the heat chain's two Gaussians."""
    return {
        "default": F.default_profile(),
        "lower": F.RadialProfile(
            lambda r: np.exp(-c0 * np.asarray(r) ** 2) / c0, "lower"),
        "upper": F.RadialProfile(
            lambda r: c0 * np.exp(-np.asarray(r) ** 2 / c0), "upper"),
    }


def _conv_errors(mu, phi, scales):
    """Largest |_conv_rows - reference| at each scale over x = 0 and the
    cone placements, relative to the reference at x = 0."""
    from fatoulab import maximal as M

    g = mu.group
    part, = mu.parts()
    x0 = np.zeros(g.total_dim)
    dirs = G.unit_directions(g, 4)
    rows = [np.broadcast_to(x0, (scales.size, 3))] + [
        G.images(g, x0, 0.9 * scales, d[None])[:, 0] for d in dirs]
    errs, base = np.zeros(scales.size), None
    for pts in rows:
        got = M._conv_rows(mu, phi, np.ascontiguousarray(pts), scales)
        ref = np.array([_h1_split_reference(part, phi, p, s)
                        for p, s in zip(pts, scales)])
        base = ref if base is None else base
        errs = np.maximum(errs, np.abs(got - ref) / base)
    return errs


@pytest.mark.parametrize("name", sorted(_CONV_BOUNDS))
def test_density_convolution_matches_split_reference(gh, ph, name):
    mu = _h1_density_v2(gh)
    c0 = F.gaussian_certificate(ph).c0
    phi = _gauss_profiles(c0)[name]
    errs = _conv_errors(mu, phi, np.array(_CONV_SCALES))
    assert np.all(errs <= _CONV_BOUNDS[name]), errs


# scales at or below the switch where the upper Gaussian's ball,
# B(x, 46.5 s), holds the support box for every placement: the phi-grid's
# nodes spread over that ball, so only a few of them fall on the box
_COVERING_SCALES = (0.1, 0.2, 0.5, 0.85, 1.0)


def test_covering_rows_below_the_switch_match_split_reference(gh, ph):
    mu = _h1_density_v2(gh)
    phi = _gauss_profiles(F.gaussian_certificate(ph).c0)["upper"]
    errs = _conv_errors(mu, phi, np.array(_COVERING_SCALES))
    assert np.all(errs <= 1e-5), errs


def test_unclipped_rule_misses_the_sharp_lower_profile(gh, ph, monkeypatch):
    # negative control: every row on the support box's cached rule
    mu = _h1_density_v2(gh)
    c0 = F.gaussian_certificate(ph).c0
    whole = F.DensityMeasure._convolution_rule
    monkeypatch.setattr(F.DensityMeasure, "_convolution_rule",
                        lambda self, ball=None: whole(self))
    errs = _conv_errors(mu, _gauss_profiles(c0)["lower"], np.array([1.004]))
    assert errs[0] > 10.0 * _CONV_BOUNDS["lower"][0]


def test_heat_chain_lower_values_above_the_switch(gh, ph):
    # phi(r) = exp(-c0 r^2) / c0 is below 1e-14 of its peak past 0.70, and
    # B(0, 0.70 s) lies in the support box [-1.5, 1.5]^3 for s <= 2, so on
    # those scales the lower value at x = 0 is the profile's whole integral
    # 2 m(B(0, 1)) / c0^3 = pi^2 / (4 c0^3) = 8.8695e-6
    mu = _h1_density_v2(gh)
    report = F.check_heat_chain(mu, ph, np.zeros(3))
    exact = math.pi ** 2 / (4.0 * report["c0"] ** 3)
    assert exact == pytest.approx(8.8695e-6, rel=1e-4)
    s = report["lower"]["scales"]
    vals = report["lower"]["values"][(s > 1.0) & (s <= 2.0)]
    assert vals.size > 5
    assert np.all(np.abs(vals / exact - 1.0) <= 2e-4), vals / exact - 1.0


def test_heat_max_atom_value(g1, p1):
    # sup_s u(0, s^2) for a unit atom at 0.5: (4 pi s^2)^(-1/2) e^(-1/(16 s^2))
    # maximized at s = 1 / (2 sqrt 2): value = sqrt(2 / pi) e^(-1/2)
    mu = F.AtomicMeasure(g1, [[0.5]], [1.0])
    out = F.heat_max(mu, p1, np.zeros(1))
    exact = math.sqrt(2.0 / math.pi) * math.exp(-0.5)
    assert out["value"] == pytest.approx(exact, rel=1e-3)


# ---------------------------------------------------------------------------
# argmax on flat stretches
# ---------------------------------------------------------------------------

# values 1 +- 1 ulp on a flat stretch, the largest (1 + ulp) late in it
_UP, _DOWN = np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0)
_FLAT = np.array([0.5, 1.0, _DOWN, 1.0, _UP, _DOWN, 1.0, 0.25])
# increasing powers of two: m(B(x, r)) = 2r exact
_SCALES = 2.0 ** np.arange(-_FLAT.size + 1, 1)


class _FlatMeasure(F.BoundaryMeasure):
    """Ball quotients mu(B(x, r)) / m(B(x, r)) = _FLAT at r = _SCALES."""

    def _ball_masses(self, centers, radii):
        i = np.searchsorted(_SCALES, radii)
        assert np.array_equal(_SCALES[i], radii)
        return 2.0 * radii * _FLAT[i], np.zeros(radii.size)


class _FlatExtension:
    """u(x, s^2) = _FLAT at s = _SCALES."""

    def __init__(self, mu, profile):
        pass

    def _eval(self, pts, times):
        s = np.sqrt(times)
        assert np.array_equal(_SCALES, s)
        return _FLAT.copy()


def test_argmax_takes_the_first_scale_within_ulps_of_the_max(g1, p1,
                                                             monkeypatch):
    from fatoulab import maximal as M

    mu = _FlatMeasure(g1)
    x = np.zeros(1)
    # every placement of every scale takes the flat value of its scale
    monkeypatch.setattr(M, "_conv_rows", lambda mu, phi, pts, s:
                        _FLAT[np.searchsorted(_SCALES, s)])
    monkeypatch.setattr(M, "HeatExtension", _FlatExtension)
    phi = F.default_profile()
    outs = {
        "hardy_littlewood": F.hardy_littlewood(mu, x, radii=_SCALES),
        "radial": F.radial_max(mu, phi, x, s_grid=_SCALES),
        "nontangential": F.nontangential_max(mu, phi, x, 1.0, s_grid=_SCALES),
        "heat": F.heat_max(mu, p1, x, s_grid=_SCALES),
    }
    for name, out in outs.items():
        # the value is still the largest; the scale is the first that ties
        assert out["value"] == _UP, name
        assert out.get("argmax_r", out.get("argmax_s")) == _SCALES[1], name


# ---------------------------------------------------------------------------
# one convolution path: batched rows equal single calls, bit for bit
# ---------------------------------------------------------------------------

def _batch_measures(g):
    n = g.total_dim
    rng = np.random.default_rng(5)
    atoms = F.AtomicMeasure(g, rng.uniform(-1.0, 1.0, size=(9, n)),
                            rng.uniform(0.2, 2.0, size=9))
    density = F.DensityMeasure(
        g, lambda p: 1.0 + 0.3 * np.cos(p[..., 0]) + 0.2 * p[..., -1] ** 2,
        [[-1.0, 1.0]] * n)
    mixture = F.MixtureMeasure(g, [atoms, density])
    return {"atomic": atoms, "density": density, "mixture": mixture}


def _small_blocks(monkeypatch, rows):
    """Blocks of ``rows`` rows in both `maximal._node_sums` and the
    measures module: at 20, two rows of the nine atoms in `_node_sums`,
    where every covering row of a density's section rule is then a block
    of its own, and two atom centers in the atoms' ball masses; at twice a
    node rule's size plus one, two rows of that rule in
    `DensityMeasure._image_sums` (phi-grid rows or unit-ball rules). Either
    way batched rows straddle block boundaries."""
    from fatoulab import maximal as M, measures as MS

    monkeypatch.setattr(M, "_BLOCK_ROWS", rows)
    monkeypatch.setattr(MS, "_BLOCK_ROWS", rows)


def _grid_values(monkeypatch, mu, phi, pts, s):
    """(rows, s, values) of the one `_grid_rows` call of a density's
    `_conv_rows` on rows (pts, s)."""
    from fatoulab import maximal as M

    calls, grid_rows = [], M._grid_rows

    def spy(part, phi, pts, s):
        calls.append((pts, s, grid_rows(part, phi, pts, s)))
        return calls[-1][2]

    monkeypatch.setattr(M, "_grid_rows", spy)
    M._conv_rows(mu, phi, pts, s)
    monkeypatch.setattr(M, "_grid_rows", grid_rows)
    (rows,) = calls
    return rows


def _grid_reference(mu, phi, pts, s):
    """phi-grid values of density rows with `density_at` at every node, one
    row at a time."""
    from fatoulab import maximal as M
    from fatoulab.quadrature import weighted_sum

    g = mu.group
    eta_inv, w, _ = M._phi_grid(g, phi)
    return np.array([
        weighted_sum(w, mu.density_at(F.mul(g, x, F.dilate(g, ss, eta_inv))))
        for x, ss in zip(pts, s.tolist())])


def _cone_rows(g, x, s, alpha, k_dirs):
    """Cone placements x * delta_(0.6 alpha s)(omega_k) of every scale,
    after the rows of x itself, each row built one at a time."""
    dirs = F.unit_directions(g, k_dirs)
    return [[x] * s.size] + [
        [F.mul(g, x, F.dilate(g, 0.6 * alpha * ss, dirs[k]))
         for ss in s.tolist()] for k in range(k_dirs)]


# block rows of `_small_blocks`: None keeps the default, 20 splits the
# atoms' rows and centers, "rules" the phi-grid rows
@pytest.mark.parametrize("rows", [None, 20, "rules"])
@pytest.mark.parametrize("label", F.GROUP_LABELS)
def test_batched_values_equal_single_calls_bitwise(label, rows, monkeypatch):
    from fatoulab import maximal as M

    g = F.get_group(label)
    phi = F.default_profile()
    if rows is not None:
        _small_blocks(monkeypatch, 2 * M._phi_grid(g, phi)[1].size + 1
                      if rows == "rules" else rows)
    x = np.array([0.2, -0.1, 0.05])[:g.total_dim]
    s = F.geometric_grid(0.05, 5.0, 8)     # both sides of the scale switch
    alpha, betas, k_dirs = 1.0, (0.0, 0.6), 2
    dirs = F.unit_directions(g, k_dirs)
    cone = _cone_rows(g, x, s, alpha, k_dirs)
    for kind, mu in _batch_measures(g).items():
        single = np.array([[F.mollifier_convolution(mu, phi, xp, float(ss))
                            for xp, ss in zip(row, s)] for row in cone])
        rad = F.radial_max(mu, phi, x, s_grid=s)
        nt = F.nontangential_max(mu, phi, x, alpha, s_grid=s, betas=betas,
                                 n_directions=k_dirs)
        assert rad["values"].tobytes() == single[0].tobytes(), kind
        assert nt["values"].tobytes() == single.max(axis=0).tobytes(), kind
        # each placement row, as nontangential_max builds it
        for k in range(k_dirs):
            pts = G.images(g, x, 0.6 * alpha * s, dirs[k][None])[:, 0]
            assert pts.tobytes() == np.array(cone[k + 1]).tobytes(), kind
            got = M._conv_rows(mu, phi, pts, s)
            assert got.tobytes() == single[k + 1].tobytes(), kind
        hl = F.hardy_littlewood(mu, x, radii=s)
        quot = [F.measure_ball(mu, F.Ball(x, float(r)))[0]
                / F.ball_volume(g, float(r)) for r in s]
        assert hl["quotients"].tobytes() == np.array(quot).tobytes(), kind

    # the density's phi-grid rows, inside and cut, against density_at at
    # every node
    mu = _batch_measures(g)["density"]
    rows, ss, got = _grid_values(monkeypatch, mu, phi, np.concatenate(cone),
                                 np.tile(s, len(cone)))
    assert got.tobytes() == _grid_reference(mu, phi, rows, ss).tobytes()

    # a cone placement whose mollifier ball misses the support: 0.0, and
    # no density value is taken for it
    far = G.images(g, x, [0.9 * 40.0 * 0.5], dirs[:1])[:, 0]
    seen = []
    for name in ("density_at", "density_inside"):
        method = getattr(F.DensityMeasure, name)
        monkeypatch.setattr(
            F.DensityMeasure, name,
            lambda self, p, _m=method: seen.append(p) or _m(self, p))
    assert M._conv_rows(mu, phi, far, np.array([0.5])).tobytes() == \
        np.zeros(1).tobytes()
    assert F.mollifier_convolution(mu, phi, far[0], 0.5) == 0.0
    assert seen == []


@pytest.mark.parametrize("label", ["euclidean:2", "heisenberg:1"])
def test_bitwise_check_fails_when_every_hull_counts_inside(label,
                                                           monkeypatch):
    # negative control: with every hull "inside", the cut phi-grid rows
    # skip the box and clip tests, and their values leave the reference
    from fatoulab import maximal as M

    g = F.get_group(label)
    phi = F.default_profile()
    x = np.array([0.2, -0.1, 0.05])[:g.total_dim]
    s = F.geometric_grid(0.05, 5.0, 4)
    cone = _cone_rows(g, x, s, 1.0, 2)
    mu = _batch_measures(g)["density"]
    pts, ss = np.concatenate(cone), np.tile(s, len(cone))
    rows, rs, got = _grid_values(monkeypatch, mu, phi, pts, ss)
    ref = _grid_reference(mu, phi, rows, rs)
    assert got.tobytes() == ref.tobytes()
    corners = M._phi_grid(g, phi)[2]
    state = np.array([mu.hull_state(F.mul(g, p, F.dilate(g, r, corners)))
                      for p, r in zip(rows, rs.tolist())])
    assert {"inside", "cut"} <= set(state)
    monkeypatch.setattr(F.DensityMeasure, "hull_state",
                        lambda self, c: np.full(np.shape(c)[:-2], "inside"))
    _, _, forced = _grid_values(monkeypatch, mu, phi, pts, ss)
    differ = forced != ref
    assert np.any(differ[state == "cut"])
    assert not np.any(differ[state == "inside"])


@pytest.mark.parametrize("label", F.GROUP_LABELS)
def test_heat_max_equals_heat_extension_per_scale_bitwise(label):
    g = F.get_group(label)
    profile = F.profile_for(g)
    x = np.array([0.2, -0.1, 0.05])[:g.total_dim]
    s = F.geometric_grid(0.05, 3.0, 2)
    for kind, mu in _batch_measures(g).items():
        u = F.HeatExtension(mu, profile)
        ref = np.array([u(x, float(ss) ** 2) for ss in s])
        got = F.heat_max(mu, profile, x, s_grid=s)["values"]
        assert got.tobytes() == ref.tobytes(), kind


def test_heat_max_names_a_scale_whose_square_overflows(gh, ph):
    # 1e160 is finite, but its square is not a float: a NumericsError
    # naming the scale, not a bare OverflowError; the scale below it keeps
    # its value
    mu = F.AtomicMeasure(gh, [[0.0, 0.0, 0.0]], [1.0])
    x = [0.1, 0.0, 0.0]
    with pytest.raises(F.NumericsError, match="1e[+]?160") as err:
        F.heat_max(mu, ph, x, s_grid=[1.0, 1e160])
    assert not isinstance(err.value, OverflowError)
    assert F.heat_max(mu, ph, x, s_grid=[1.0])["values"][0] == \
        F.HeatExtension(mu, ph)(x, 1.0)


# True: blocks of 20 rows (`_small_blocks`), "rules": of two unit-ball rules
@pytest.mark.parametrize("small", [False, True, "rules"])
@pytest.mark.parametrize("label", F.GROUP_LABELS)
def test_strong_derivative_equals_per_ball_masses_bitwise(label, small,
                                                          monkeypatch):
    g = F.get_group(label)
    if small:
        _small_blocks(monkeypatch, 2 * G.unit_ball_rule(g)[0].shape[0] + 1
                      if small == "rules" else 20)
    radii = 3.7 * 0.61 ** np.arange(8)
    fam = F.default_ball_family(g)
    # near the support: covering, cut and inside balls, and in the hole's
    # "outside" balls; far from it: cut balls and balls that miss the box
    near, far = (np.array(p)[:g.total_dim]
                 for p in ([0.2, -0.1, 0.05], [2.4, 0.3, -0.2]))
    measures = _batch_measures(g)
    measures["hole"] = F.restrict_complement(measures["density"],
                                             F.Ball(near, 0.6))
    for x0 in (near, far):
        for kind, mu in measures.items():
            tr = F.strong_derivative(mu, x0, radii=radii)
            mu0 = F.translate_measure(mu, x0)
            quot, errs = np.empty((2, len(fam), radii.size))
            for bi, ball in enumerate(fam):
                for ri, rr in enumerate(radii):
                    small_ball = F.dilate_ball(g, rr, ball)
                    val, err = F.measure_ball(mu0, small_ball)
                    vol = F.ball_volume(g, small_ball.radius)
                    quot[bi, ri], errs[bi, ri] = val / vol, err / vol
            assert tr.quotients.tobytes() == quot.tobytes(), (kind, x0)
            assert tr.errors.tobytes() == errs.tobytes(), (kind, x0)


# conv rows of the check_sandwich below on the density: the 9 radial rows
# and the cone rows (of 2 apertures x 8 placements x 9 scales = 144) that
# are not bounded below the radial value
_DENSITY_ROWS = {"euclidean:2": 101, "heisenberg:1": 114}


@pytest.mark.parametrize("label", ["euclidean:2", "heisenberg:1"])
def test_check_sandwich_equals_separate_maximal_calls_bitwise(label,
                                                              monkeypatch):
    from fatoulab import maximal as M

    g = F.get_group(label)
    phi = F.default_profile()
    x = np.array([0.2, -0.1, 0.05])[:g.total_dim]
    s = F.geometric_grid(0.05, 5.0, 4)     # both sides of the scale switch
    alphas = (0.5, 2.0)
    rows = []
    conv_rows = M._conv_rows

    def counting(mu, phi, pts, ss):
        rows.append(ss.size)
        return conv_rows(mu, phi, pts, ss)

    for kind in ("atomic", "density"):
        mu = _batch_measures(g)[kind]
        rad = F.radial_max(mu, phi, x, s_grid=s)
        nts = {a: F.nontangential_max(mu, phi, x, a, s_grid=s) for a in alphas}
        monkeypatch.setattr(M, "_conv_rows", counting)
        rows.clear()
        rep = F.check_sandwich(mu, x, phi, alphas=alphas, s_grid=s)
        monkeypatch.setattr(M, "_conv_rows", conv_rows)
        # two calls: the radial rows, once for every aperture, then every
        # aperture's cone rows; of the two betas > 0 times four directions
        # per aperture, the density skips the cone rows bounded below the
        # radial value
        assert len(rows) == 2 and rows[0] == s.size, (kind, rows)
        full = s.size * (1 + 8 * len(alphas))
        assert sum(rows) == {"atomic": full,
                             "density": _DENSITY_ROWS[label]}[kind], kind
        for key in ("value", "argmax_s", "divergent"):
            assert rep["radial"][key] == rad[key], (kind, key)
        assert rep["radial"]["values"].tobytes() == rad["values"].tobytes()
        for a in alphas:
            got = rep["alphas"][a]["nontangential"]
            for key in ("value", "argmax_s", "alpha", "divergent"):
                assert got[key] == nts[a][key], (kind, a, key)
            assert got["values"].tobytes() == nts[a]["values"].tobytes()
        assert rep["chain_ok"], kind


# ---------------------------------------------------------------------------
# work skipped where it cannot change a value
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("label", F.GROUP_LABELS)
def test_declared_constant_grid_rows_match_undeclared_bitwise(label,
                                                              monkeypatch):
    # inside phi-grid rows of a declared constant take one sum for all
    # rows and no density value; every row keeps the undeclared bits
    from fatoulab import maximal as M

    g = F.get_group(label)
    phi = F.default_profile()
    n = g.total_dim
    box = [[-1.0, 1.2]] * n
    fn = lambda p: np.full(p.shape[:-1], 1.5)  # noqa: E731
    declared = F.DensityMeasure(g, fn, box, constant=1.5)
    plain = F.DensityMeasure(g, fn, box)
    x = np.array([0.2, -0.1, 0.05])[:n]
    s = F.geometric_grid(0.01, 1.0, 8)
    cone = _cone_rows(g, x, s, 1.0, 2)
    pts, ss = np.concatenate(cone), np.tile(s, len(cone))
    corners = M._phi_grid(g, phi)[2]
    state = np.array([plain.hull_state(F.mul(g, p, F.dilate(g, r, corners)))
                      for p, r in zip(pts, ss.tolist())])
    assert {"inside", "cut"} <= set(state)
    for a, b in ((declared, plain),
                 (declared.translate(x), plain.translate(x)),
                 (declared.dilate(1.3), plain.dilate(1.3))):
        assert M._grid_rows(a, phi, pts, ss).tobytes() == \
            M._grid_rows(b, phi, pts, ss).tobytes()
    inside = state == "inside"
    want = M._grid_rows(plain, phi, pts[inside], ss[inside])
    monkeypatch.setattr(F.DensityMeasure, "density_inside", None)
    got = M._grid_rows(declared, phi, pts[inside], ss[inside])
    assert got.tobytes() == want.tobytes()


def _face_density(g):
    """A smooth density on the box [2, 3]^n, off the query point 0: at
    covering scales the cone placements toward the box beat the radial
    value, and those away from it are bounded below it."""
    return F.DensityMeasure(g, lambda p: 1.0 + 0.3 * np.cos(p[..., 0]),
                            [[2.0, 3.0]] * g.total_dim)


def _nt_rows(monkeypatch, mu, x, s, **patch):
    """nontangential_max at aperture 1 and the number of rows that
    `_conv_rows` evaluates, with the maximal module's names in ``patch``
    replaced."""
    from fatoulab import maximal as M

    rows, conv_rows = [], M._conv_rows
    with monkeypatch.context() as m:
        for name, value in patch.items():
            m.setattr(M, name, value)
        m.setattr(M, "_conv_rows", lambda mu, phi, p, ss: rows.append(
            ss.size) or conv_rows(mu, phi, p, ss))
        out = F.nontangential_max(mu, F.default_profile(), x, 1.0, s_grid=s)
    return out, sum(rows)


def _unbounded(mu, phi, pts, s, cells=False):
    return np.full(s.size, np.inf)


@pytest.mark.parametrize("label", F.GROUP_LABELS)
def test_pruned_cone_rows_keep_the_bits(label, monkeypatch):
    from fatoulab import maximal as M

    g = F.get_group(label)
    phi = F.default_profile()
    mu = _face_density(g)
    x = np.zeros(g.total_dim)
    s = F.geometric_grid(0.05, 5.0, 8)
    pruned, n_pruned = _nt_rows(monkeypatch, mu, x, s)
    full, n_full = _nt_rows(monkeypatch, mu, x, s, _row_bounds=_unbounded)
    assert n_full == s.size * (1 + 2 * M._N_DIRECTIONS)
    assert s.size < n_pruned < n_full      # some cone rows, not all, skipped
    rad = F.radial_max(mu, phi, x, s_grid=s)["values"]
    covering = mu._covered(np.broadcast_to(x, (s.size, x.size)),
                           phi.support_radius * s)
    # a cone placement is the max at covering scales, so pruning every
    # cone row there would move the values
    assert np.any((full["values"] > rad) & covering)
    for key in ("value", "argmax_s", "divergent"):
        assert pruned[key] == full[key], key
    assert pruned["values"].tobytes() == full["values"].tobytes()

    # negative control: a gap twice the true one prunes rows that win
    wide = lambda g_, box, p, _gap=M._box_gap: 2.0 * _gap(g_, box, p)  # noqa
    inflated, _ = _nt_rows(monkeypatch, mu, x, s, _box_gap=wide)
    assert inflated["values"].tobytes() != full["values"].tobytes()


@pytest.mark.parametrize("label", F.GROUP_LABELS)
def test_pruned_cone_rows_keep_the_bits_on_cells(label, monkeypatch):
    # the cell bound prunes rows that the whole-box bound keeps, and no
    # value moves. Negative control: a gap twice the true one on the cells
    # alone, the whole box kept as it is, prunes rows that win
    from fatoulab import maximal as M

    g = F.get_group(label)
    mu = _face_density(g)
    x = np.zeros(g.total_dim)
    s = F.geometric_grid(0.05, 5.0, 8)
    full, _ = _nt_rows(monkeypatch, mu, x, s, _row_bounds=_unbounded)
    whole_box = lambda mu, phi, p, ss, cells=False, _b=M._row_bounds: (  # noqa
        _unbounded(mu, phi, p, ss) if cells else _b(mu, phi, p, ss))
    _, n_whole = _nt_rows(monkeypatch, mu, x, s, _row_bounds=whole_box)
    pruned, n_pruned = _nt_rows(monkeypatch, mu, x, s)
    # on R^1 the face rows the whole box keeps are kept by the cells too
    assert n_pruned < n_whole or (label == "euclidean:1"
                                  and n_pruned == n_whole)
    assert pruned["values"].tobytes() == full["values"].tobytes()

    wide = lambda g_, boxes, p, _gap=M._box_gap: (  # noqa: E731
        (2.0 if len(boxes) > 1 else 1.0) * _gap(g_, boxes, p))
    inflated, _ = _nt_rows(monkeypatch, mu, x, s, _box_gap=wide)
    assert inflated["values"].tobytes() != full["values"].tobytes()


@pytest.mark.parametrize("label", F.GROUP_LABELS)
def test_cone_rows_of_parts_without_positive_weight(label, monkeypatch):
    # a density that is 0 everywhere and a support box of zero width on
    # its last axis: rules without positive weight, which the bounds read
    # as adding 0, with no division by a zero count or width
    import warnings

    g = F.get_group(label)
    n = g.total_dim
    x = np.zeros(n)
    s = F.geometric_grid(0.05, 5.0, 8)
    zero = F.DensityMeasure(g, lambda p: np.zeros(p.shape[:-1]),
                            [[2.0, 3.0]] * n, constant=0.0)
    flat = F.DensityMeasure(g, lambda p: np.ones(p.shape[:-1]),
                            [[2.0, 3.0]] * (n - 1) + [[2.5, 2.5]])
    for mu in (zero, flat):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            pruned, _ = _nt_rows(monkeypatch, mu, x, s)
        full, _ = _nt_rows(monkeypatch, mu, x, s, _row_bounds=_unbounded)
        assert pruned["values"].tobytes() == full["values"].tobytes()
        assert not np.any(pruned["values"])


def test_cell_bounds_hold_on_the_maximal_density_presets(monkeypatch):
    # every covered cone row of the three density presets, at the suite's
    # apertures and scales: the whole-box and the cell bound are at least
    # the row's value
    from fatoulab import maximal as M, scenarios as S

    seen, row_bounds = [], M._row_bounds

    def recording(mu, phi, pts, s, cells=False):
        if not cells:
            seen.append((mu, phi, pts, s))
        return row_bounds(mu, phi, pts, s, cells)

    monkeypatch.setattr(M, "_row_bounds", recording)
    cases = S.maximal_cases(0, 3)
    assert {c["group"] for c in cases} == {"euclidean:1", "euclidean:2",
                                          "heisenberg:1"}
    for cfg in cases:
        seen.clear()
        S.run_maximal_case(cfg)
        n_rows = 0
        for mu, phi, pts, s in seen:
            whole = row_bounds(mu, phi, pts, s)
            rows = np.isfinite(whole)
            on_cells = row_bounds(mu, phi, pts[rows], s[rows], cells=True)
            vals = M._conv_rows(mu, phi, pts[rows], s[rows])
            assert np.all(whole[rows] >= vals) and np.all(on_cells >= vals)
            assert np.all(on_cells <= whole[rows] * (1.0 + 1e-12))
            n_rows += np.count_nonzero(rows)
        assert n_rows > 0, cfg["label"]


@pytest.mark.parametrize("label", F.GROUP_LABELS)
def test_box_gap_bounds_every_node_distance(label):
    from fatoulab import maximal as M

    g = F.get_group(label)
    n = g.total_dim
    rng = np.random.default_rng(11)
    mu = F.DensityMeasure(g, lambda p: np.ones(p.shape[:-1]),
                          [[-0.4, 0.9], [0.2, 1.1], [-1.3, -0.5]][:n])
    nodes = mu._convolution_rule()[0]
    inner = mu.support_box[:, 0] + rng.uniform(size=(500, n)) * np.ptp(
        mu.support_box, axis=1)
    pts = np.vstack([rng.normal(scale=2.0, size=(60, n)),
                     rng.uniform(-1.5, 1.5, size=(20, n)), inner[:5]])
    gap = M._box_gap(g, mu.support_box, pts)
    assert np.all(gap >= 0.0) and np.any(gap > 0.0) and np.any(gap == 0.0)
    for x, gx in zip(pts, gap):
        d = np.asarray(F.dist(g, np.vstack([nodes, inner]), x))
        assert gx <= d.min(), (x.tolist(), gx, d.min())


@pytest.mark.parametrize("label", F.GROUP_LABELS)
def test_ball_masses_and_convolution_rows_make_one_cover_call(label,
                                                              monkeypatch):
    # a ball whose farthest support corner lies within _TIE of its radius
    # is too close to tell: neither the ball mass nor the convolution row
    # reads it as holding the box. Control: a margin ten times _TIE makes
    # both read it so
    from fatoulab import measures as MS

    g = F.get_group(label)
    mu = F.DensityMeasure(g, lambda p: 1.0 + 0.3 * np.cos(p[..., 0]),
                          [[-1.0, 1.0]] * g.total_dim)
    phi = F.default_profile()
    x = np.zeros(g.total_dim)
    corner = float(np.max(F.dist(g, G.box_corners(mu.support_box), x)))
    whole, cut = [], []
    rule, section = mu._convolution_rule, mu._section_ball_mass
    monkeypatch.setattr(mu, "_convolution_rule", lambda ball=None:
                        whole.append(ball is None) or rule(ball))
    monkeypatch.setattr(mu, "_section_ball_mass", lambda *a:
                        cut.append(a) or section(*a))
    for margin, covered in ((0.1, False), (10.0, True)):
        radius = corner * (1.0 + margin * MS._TIE)
        assert corner < radius
        whole.clear()
        cut.clear()
        F.mollifier_convolution(mu, phi, x, radius / phi.support_radius)
        F.measure_ball(mu, F.Ball(x, radius))
        assert any(whole) == (not cut) == covered, (margin, whole, len(cut))


def test_rows_with_atoms_are_not_bounded(g2):
    from fatoulab import maximal as M

    phi = F.default_profile()
    mix = _batch_measures(g2)["mixture"]
    s = np.array([10.0, 50.0])
    pts = np.zeros((2, 2))
    assert np.all(mix.components[1]._covered(pts, phi.support_radius * s))
    assert np.all(M._row_bounds(mix, phi, pts, s) == np.inf)
    assert np.all(np.isfinite(
        M._row_bounds(mix.components[1], phi, pts, s)))


# ---------------------------------------------------------------------------
# input validation of the maximal functions
# ---------------------------------------------------------------------------

def _atom_line():
    return F.AtomicMeasure(F.euclidean_group(1), [[0.5]], [1.0])


_REVERSED = F.geometric_grid()[::-1]
_BAD_INPUTS = {
    "radial-reversed": lambda mu, phi, p: F.radial_max(
        mu, phi, [0.0], s_grid=_REVERSED),
    "radial-negative": lambda mu, phi, p: F.radial_max(
        mu, phi, [0.0], s_grid=[-1.0, 1.0]),
    "radial-nan": lambda mu, phi, p: F.radial_max(
        mu, phi, [0.0], s_grid=[np.nan]),
    "radial-inf": lambda mu, phi, p: F.radial_max(
        mu, phi, [0.0], s_grid=[np.inf]),
    "radial-empty": lambda mu, phi, p: F.radial_max(
        mu, phi, [0.0], s_grid=[]),
    "radial-repeated": lambda mu, phi, p: F.radial_max(
        mu, phi, [0.0], s_grid=[0.5, 0.5, 1.0]),
    "hl-reversed": lambda mu, phi, p: F.hardy_littlewood(
        mu, [0.0], radii=_REVERSED),
    "nt-reversed": lambda mu, phi, p: F.nontangential_max(
        mu, phi, [0.0], 1.0, s_grid=_REVERSED),
    "nt-beta-above-one": lambda mu, phi, p: F.nontangential_max(
        mu, phi, [0.0], 1.0, betas=(0.0, 1.5)),
    "nt-beta-negative": lambda mu, phi, p: F.nontangential_max(
        mu, phi, [0.0], 1.0, betas=(-0.2,)),
    "nt-no-directions": lambda mu, phi, p: F.nontangential_max(
        mu, phi, [0.0], 1.0, n_directions=0),
    "nt-infinite-aperture": lambda mu, phi, p: F.nontangential_max(
        mu, phi, [0.0], np.inf),
    "conv-infinite-scale": lambda mu, phi, p: F.mollifier_convolution(
        mu, phi, [0.0], np.inf),
    "conv-nan-scale": lambda mu, phi, p: F.mollifier_convolution(
        mu, phi, [0.0], np.nan),
    "sandwich-reversed": lambda mu, phi, p: F.check_sandwich(
        mu, [0.0], phi, s_grid=_REVERSED),
    "heat-reversed": lambda mu, phi, p: F.heat_max(
        mu, p, [0.0], s_grid=_REVERSED),
    "heat-chain-reversed": lambda mu, phi, p: F.check_heat_chain(
        mu, p, [0.0], s_grid=_REVERSED),
}


@pytest.mark.parametrize("case", sorted(_BAD_INPUTS))
def test_maximal_functions_reject_bad_inputs(case, p1):
    with pytest.raises(F.MeasureError):
        _BAD_INPUTS[case](_atom_line(), F.default_profile(), p1)


@pytest.mark.parametrize("call", ["hardy_littlewood", "check_sandwich"])
def test_a_query_point_of_the_wrong_width_is_named(call):
    # two coordinates on R^1 are a GroupError naming the query point, not
    # the ball center that the ball masses would be given
    with pytest.raises(F.GroupError, match="query point"):
        getattr(F, call)(_atom_line(), [0.0, 1.0])


def test_heat_chain_holds_on_the_kernels_cut_lambda_rules(monkeypatch):
    # an H1 atomic case whose heat values reach the kernel's direct branch,
    # with each point's lambda-rule cut (`kernels._kept_panels`) and with
    # every panel kept: every passed and chain_ok is the same, the heat
    # values above 1e-30 agree within 1e-10 relative (measured: 4.7e-16,
    # 13 of 140 values moved) and the cut rules keep at most a tenth of the
    # nodes (measured: 13,872 of 384,752)
    from fatoulab import kernels as K, scenarios as S
    cfg = next(c for c in S.maximal_cases(20, 0)
               if c["label"] == "ms-h1-atoms-v15")
    nodes = {"kept": 0, "full": 0}
    kept_panels = K._kept_panels

    def counting(rho2, n_panels, tau, first):
        kept = kept_panels(rho2, n_panels, tau, first)
        nodes["kept"] += 16 * int(kept.sum())
        nodes["full"] += 16 * int(n_panels.sum())
        return kept

    monkeypatch.setattr(K, "_kept_panels", counting)
    cut = S.run_maximal_case(cfg, alphas=(1.0,))
    monkeypatch.setattr(K, "_kept_panels",
                        lambda rho2, n_panels, tau, first: n_panels.copy())
    full = S.run_maximal_case(cfg, alphas=(1.0,))
    assert cut["passed"] == full["passed"]
    assert cut["heat_chain"]["chain_ok"] == full["heat_chain"]["chain_ok"]
    assert ([r["chain_ok"] for r in cut["sandwich"]]
            == [r["chain_ok"] for r in full["sandwich"]])
    a, b = cut["heat_chain"]["heat"]["values"], full["heat_chain"]["heat"]["values"]
    big = b > 1e-30
    assert np.count_nonzero(big) >= 80
    assert np.all(np.abs(a - b)[big] <= 1e-10 * b[big])
    assert not np.array_equal(a, b)
    assert 0 < 10 * nodes["kept"] <= nodes["full"]
