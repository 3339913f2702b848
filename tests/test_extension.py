"""Heat-extension tests.

Closed-form oracles frozen here:

* density 1 + x^2 on a line segment extends to u(x, t) = 1 + x^2 + 2t
  (up to box truncation, negligible for |x| <= 1, t <= 0.5, box +-8);
* density 1 + |x|^2 on a plane square extends to 1 + |x|^2 + 4t;
* a single atom extends to w * t^(-Q/2) gamma(delta_(1/sqrt t)(p^-1 x)).
"""

import dataclasses
import math

import numpy as np
import pytest

import fatoulab as F
from fatoulab import extension as E
from fatoulab import groups as G
from fatoulab import kernels as K
from fatoulab import quadrature
from fatoulab.decisions import TABLE
from fatoulab.quadrature import (_BLOCK_ROWS, gauss_legendre, tensor_rule,
                                 weighted_sum)
from references import duality_check


def line_quadratic():
    g = F.euclidean_group(1)
    return F.DensityMeasure(
        g, lambda x: 1.0 + x[..., 0] ** 2, [[-8.0, 8.0]]
    )


def plane_quadratic():
    g = F.euclidean_group(2)
    return F.DensityMeasure(
        g,
        lambda x: 1.0 + x[..., 0] ** 2 + x[..., 1] ** 2,
        [[-8.0, 8.0], [-8.0, 8.0]],
    )


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_extension_closed_form_line(p1):
    u = F.HeatExtension(line_quadratic(), p1)
    for x in (-1.0, 0.0, 0.5):
        for t in (0.1, 0.5):
            assert u(np.array([x]), t) == pytest.approx(
                1 + x * x + 2 * t, rel=1e-10
            ), (x, t)


def test_extension_closed_form_plane(p2):
    u = F.HeatExtension(plane_quadratic(), p2)
    for x, y in ((0.0, 0.0), (0.5, -0.3)):
        for t in (0.1, 0.4):
            got = u(np.array([x, y]), t)
            assert got == pytest.approx(1 + x * x + y * y + 4 * t, rel=1e-9)


def test_extension_atomic_exact(gh, ph):
    p = np.array([0.4, -0.3, 0.2])
    mu = F.AtomicMeasure(gh, [p], [2.5])
    u = F.HeatExtension(mu, ph)
    x = np.array([0.1, 0.2, -0.5])
    t = 0.7
    rel = F.mul(gh, F.inverse(gh, p), x)
    expected = 2.5 * F.eval_kernel(ph, rel, t)
    assert u(x, t) == expected


def test_extension_input_validation(p1, ph):
    mu = line_quadratic()
    with pytest.raises(F.MeasureError):
        F.HeatExtension(mu, ph)  # group mismatch
    u = F.HeatExtension(mu, p1)
    with pytest.raises(F.NumericsError):
        u(np.array([0.0]), 0.0)
    with pytest.raises(F.NumericsError):
        u(np.array([0.0]), -0.5)


def test_region_validation():
    with pytest.raises(F.MeasureError):
        F.ParabolicRegion(np.zeros(1), aperture=0.0)
    with pytest.raises(F.MeasureError):
        F.ParabolicRegion(np.zeros(1), t_max=-1.0)


@pytest.mark.parametrize("value", [math.inf, math.nan])
@pytest.mark.parametrize("name", ["aperture", "t_max"])
def test_region_rejects_non_finite_parameters(name, value):
    # they used to pass, and failed later as a dilation factor or a time
    with pytest.raises(F.MeasureError, match=f"region {name} must be "
                       "positive and finite"):
        F.ParabolicRegion(np.zeros(1), **{name: value})


@pytest.mark.parametrize("t", [math.inf, math.nan])
def test_extension_rejects_non_finite_times(p1, t):
    u = F.HeatExtension(line_quadratic(), p1)
    with pytest.raises(F.NumericsError, match="positive and finite"):
        u(np.array([0.0]), t)


_BAD_POINTS = {"nan": [np.nan, 0.0], "inf": [0.0, -np.inf],
               "length": [0.0, 0.0, 0.0]}


@pytest.mark.parametrize("case", sorted(_BAD_POINTS))
def test_points_and_vertices_are_checked(case):
    # a point of euclidean:2 needs two finite coordinates: u at such a point
    # and a region with such a vertex raise instead of giving 0
    g = F.euclidean_group(2)
    mu = F.DensityMeasure(g, lambda p: np.ones(p.shape[:-1]), [[-1, 1]] * 2)
    u = F.HeatExtension(mu, F.profile_for(g))
    bad = np.array(_BAD_POINTS[case])
    with pytest.raises(F.GroupError):
        u(bad, 0.5)
    with pytest.raises(F.GroupError):
        u(np.stack([np.zeros_like(bad), bad]), 0.5)
    with pytest.raises(F.GroupError):
        F.parabolic_limit(u, F.ParabolicRegion(bad))


# ---------------------------------------------------------------------------
# parabolic limits
# ---------------------------------------------------------------------------

def test_parabolic_limit_line(p1):
    u = F.HeatExtension(line_quadratic(), p1)
    region = F.ParabolicRegion(np.zeros(1), aperture=1.0, t_max=0.25)
    trace = F.parabolic_limit(u, region)
    assert trace.converged
    assert trace.estimate == pytest.approx(1.0, abs=1e-3)
    # placements: one central axis + 8 directions for each beta in {0.5, 0.9}
    assert trace.values.shape == (17, 12)
    # u = 1 + x^2 + 2t with |x| <= beta sqrt(t): every sample within 3t of 1
    dev = np.abs(trace.values - 1.0)
    assert np.all(dev <= 3.0 * trace.t_values[None, :] + 1e-12)


def test_parabolic_limit_aperture_invariance(p1):
    u = F.HeatExtension(line_quadratic(), p1)
    estimates = []
    for aperture in (0.5, 1.0, 2.0):
        region = F.ParabolicRegion(np.zeros(1), aperture=aperture, t_max=0.25)
        trace = F.parabolic_limit(u, region)
        assert trace.converged, f"aperture={aperture}"
        estimates.append(trace.estimate)
    assert max(estimates) - min(estimates) <= 1e-3


@pytest.mark.parametrize("label", F.GROUP_LABELS)
def test_slice_points_match_one_placement_at_a_time(label):
    # one product per slice, with the bits of vertex * dilate(r, omega) for
    # each placement and of vertex * 0 on the axis, signed zeros included
    g = F.get_group(label)
    n = g.total_dim
    dirs = G.unit_directions(g, E._N_DIRECTIONS)
    for vertex in (np.array([0.3, -0.2, 0.1])[:n],
                   np.array([-0.0, 0.0, -0.0])[:n]):
        region = F.ParabolicRegion(vertex, aperture=1.7)
        for t in (0.25, 1e-4, 3e-9):
            want = np.array([
                G.mul(g, vertex, G.dilate(g, beta * 1.7 * math.sqrt(t),
                                          dirs[k]))
                if beta > 0 else G.mul(g, vertex, np.zeros(n))
                for beta, k in E._PLACEMENTS])
            got = E._slice_points(g, region, dirs, t)
            assert got.tobytes() == want.tobytes(), (vertex, t)


def test_limit_trace_csv(p1):
    u = F.HeatExtension(line_quadratic(), p1)
    region = F.ParabolicRegion(np.zeros(1), t_max=0.25)
    trace = F.parabolic_limit(u, region)
    lines = F.limit_trace_to_csv(trace).strip().split("\n")
    assert lines[0] == "scale_t,beta,direction_id,x_coords,value"
    assert len(lines) == 1 + 17 * F.SCALES.n_scales
    t0, beta0, dir0, x0, v0 = lines[1].split(",")
    assert float(t0) == 0.25 and float(beta0) == 0.0 and int(dir0) == 0
    assert float(x0) == 0.0
    assert float(v0) == pytest.approx(1.5, rel=1e-9)


def test_uniform_ratio_near_boundary(p1):
    # the trace's first slice sits at t = 1e-4
    u = F.HeatExtension(line_quadratic(), p1)
    region = F.ParabolicRegion(np.zeros(1), aperture=1.0, t_max=1e-4)
    trace = F.parabolic_limit(u, region)
    assert trace.t_values[0] == 1e-4
    # u - 1 = x^2 + 2t <= (0.9)^2 t + 2t < 3t on the slice
    assert np.max(np.abs(trace.values[:, 0] - 1.0)) <= 5e-4


# ---------------------------------------------------------------------------
# independent-quadrature and symmetry cross-checks
# ---------------------------------------------------------------------------

def test_duality_atomic_exact(gh, ph):
    mu = F.AtomicMeasure(gh, [[0.5, 0.0, 0.1], [-0.2, 0.3, 0.0]], [1.0, 2.0])
    out = duality_check(mu, ph, np.array([0.1, -0.1, 0.2]), 0.8)
    assert out["rel_diff"] <= 1e-14


def test_duality_density_line(p1):
    out = duality_check(line_quadratic(), p1, np.array([0.3]), 0.5)
    assert out["rel_diff"] <= 1e-3


def test_duality_density_heisenberg(gh, ph):
    mu = F.DensityMeasure(
        gh, lambda p: np.ones(p.shape[:-1]),
        [[-1.5, 1.5], [-1.5, 1.5], [-1.5, 1.5]],
    )
    out = duality_check(mu, ph, np.array([0.2, 0.1, 0.0]), 0.5)
    assert out["rel_diff"] <= 1e-2


def test_commutation_atomic(gh, ph):
    rng = np.random.default_rng(21)
    mu = F.AtomicMeasure(gh, rng.normal(size=(5, 3)), rng.uniform(0.2, 1, 5))
    x = np.array([0.3, -0.1, 0.2])
    out = F.dilation_commutation_check(mu, ph, 1.7, x, 0.6)
    assert out["rel_diff"] <= 1e-10
    out = F.translation_commutation_check(mu, ph, np.array([0.5, 0.2, -0.1]),
                                          x, 0.6)
    assert out["rel_diff"] <= 1e-10


def test_commutation_density(p2):
    mu = plane_quadratic()
    x = np.array([0.2, 0.4])
    out = F.dilation_commutation_check(mu, p2, 1.3, x, 0.5)
    assert out["rel_diff"] <= 1e-4
    out = F.translation_commutation_check(mu, p2, np.array([0.6, -0.2]), x, 0.5)
    assert out["rel_diff"] <= 1e-4


def test_tail_vanishing_remote_atom(p1, g1):
    mu = F.AtomicMeasure(g1, [[3.0]], [1.0])
    out = F.tail_vanishing_check(mu, p1, radius=1.0)
    assert out["outer_mass"] == 1.0
    assert out["vanishes"] and out["monotone"]
    assert out["sup_values"][-1] <= 1e-50


def test_tail_check_refuses_a_profile_of_another_group(g1, ph):
    # an R^1 atom checked with the H1 profile would mix H1's envelope
    # constant with R^1's homogeneous dimension (it read "vanishes" at rate
    # 0.0153); like HeatExtension, the check refuses the pair
    mu = F.AtomicMeasure(g1, [[3.0]], [1.0])
    with pytest.raises(F.MeasureError, match="different groups"):
        F.tail_vanishing_check(mu, ph, radius=1.0)


def _translated_preset(label):
    """A preset's measure moved to its vertex, its certified kernel profile
    and its localization radius, as `run_scenario` builds them."""
    cfg = next(c for suite in ("euclidean-gehring", "heisenberg-core")
               for c in F.preset_suite(suite) if c["label"] == label)
    sc = F.Scenario.from_config(cfg)
    g = sc.group
    profile = F.profile_for(g)
    F.gaussian_certificate(profile)
    mu = F.translate_measure(F.build_measure(g, sc.measure_spec), sc.vertex)
    return mu, profile, sc.restrict_radius or g.restrict_radius


def _inner_points(g, inner_r, n_directions=6, n_radial=3):
    """The center and n_radial shells of n_directions points each, at
    fractions 0.3 .. 0.95 of ``inner_r``."""
    dirs = G.unit_directions(g, n_directions)
    pts = [np.zeros(g.total_dim)]
    for frac in np.linspace(0.3, 0.95, n_radial):
        pts.extend(G.dilate(g, frac * inner_r, dirs))
    return np.array(pts)


@pytest.mark.parametrize("label,radius", [
    ("eg-translated-vertex", None), ("eg-plane-mixture", None),
    ("hc-translated-vertex", None), ("hc-remote-atom", 0.55)])
def test_tail_bound_dominates_the_sampled_heat(label, radius):
    # the outer part's heat at inner points over the whole schedule, by
    # quadrature: what the check evaluated before the bound
    mu, profile, default = _translated_preset(label)
    radius = radius or default
    out = F.tail_vanishing_check(mu, profile, radius)
    g = mu.group
    outer = F.restrict_complement(mu, G.Ball(np.zeros(g.total_dim), radius))
    u = F.HeatExtension(outer, profile)
    pts = _inner_points(g, out["inner_radius"])
    sampled = np.array([u(pts, float(t)).max() for t in out["t_schedule"]])
    assert sampled[0] > 0.0
    assert np.all(out["sup_values"] >= sampled), (out["sup_values"], sampled)
    assert out["dominated"] and out["vanishes"]


def test_tail_bound_on_the_remote_atom_at_a_smaller_radius():
    # rho = 0.55 / (2 C_L) = 0.189; the atom at gauge 1 is at least
    # 1 / C_L - rho = 0.498 from B(0, rho), which the bound uses
    mu, profile, _ = _translated_preset("hc-remote-atom")
    out = F.tail_vanishing_check(mu, profile, 0.55)
    assert out["outer_mass"] == 1.0
    assert out["vanishes"] and out["monotone"]
    assert out["sup_values"][-1] <= 1e-80


def test_tail_rate_holds_past_the_certified_distances(p1, g1):
    # on R^1, c0 < 4: the certificate's rate 1 / c0 exceeds the kernel's
    # 1/4, so c0 exp(-d^2 / c0) falls below gamma past d ~ 10. The atom at
    # 3 is 2.525 from the inner point 0.475, and its exact heat there must
    # stay under the bound at every t
    mu = F.AtomicMeasure(g1, [[3.0]], [1.0])
    out = F.tail_vanishing_check(mu, p1, radius=1.0)
    assert out["rate"] < 0.25 < 1.0 / p1.certificate.c0
    t = out["t_schedule"]
    exact = np.exp(-(3.0 - 0.475) ** 2 / (4.0 * t)) / np.sqrt(4.0 * math.pi * t)
    assert np.all(out["sup_values"] >= exact), (out["sup_values"], exact)
    assert out["vanishes"]


@pytest.mark.parametrize("label, far", [
    ("euclidean:2", [3.0, 0.0]), ("heisenberg:1", [3.0, 0.0, 0.0])])
def test_tail_keeps_the_certificate_rate_where_it_holds(label, far):
    # on R^2 and H1 gamma stays under c0 exp(-N^2 / c0) at every gauge the
    # bound reads, so the rate is the certificate's own 1 / c0
    g = F.get_group(label)
    profile = F.profile_for(g)
    out = F.tail_vanishing_check(F.AtomicMeasure(g, [far], [1.0]), profile,
                                 radius=1.0)
    assert out["outer_mass"] == 1.0
    assert out["rate"] == 1.0 / F.gaussian_certificate(profile).c0


def _cached(profile):
    """The cached eta-grid and eta-rule of a kernel profile, None where
    not yet built."""
    return [vars(profile).get(name) for name in ("eta_grid", "eta_rule")]


def test_tail_check_fails_on_a_slow_envelope_rate():
    mu, profile, radius = _translated_preset("hc-translated-vertex")
    assert F.tail_vanishing_check(mu, profile, radius)["vanishes"]
    cached = _cached(profile)
    cert = profile.certificate
    slow = dataclasses.replace(
        profile, certificate=dataclasses.replace(cert, c0=100.0 * cert.c0))
    out = F.tail_vanishing_check(mu, slow, radius)
    assert out["dominated"] and not out["vanishes"]
    assert profile.certificate is cert
    assert all(a is b for a, b in zip(_cached(profile), cached))


def test_tail_check_fails_where_gamma_exceeds_the_envelope():
    mu, profile, radius = _translated_preset("hc-translated-vertex")
    cached = _cached(profile)
    cert = profile.certificate
    loud = dataclasses.replace(
        profile, gamma=lambda coords: 1e5 * profile.gamma(coords))
    out = F.tail_vanishing_check(mu, loud, radius)
    assert not out["dominated"] and not out["vanishes"]
    assert out["rate"] == 0.0
    assert profile.certificate is cert
    assert all(a is b for a, b in zip(_cached(profile), cached))


# ---------------------------------------------------------------------------
# eta-rules chosen by the hull of the eta-box image
# ---------------------------------------------------------------------------

# the 48 x 48 x 128 eta-grid that Heisenberg "cut" values used to take
_FINE_H1 = ((-7.5, 7.5, 3, 16),) * 2 + ((-30.0, 30.0, 8, 16),)


def _weighted_grid(profile, spec):
    """(eta_inverse, gamma * quad_weight) of an eta-grid spec."""
    g = profile.group
    eta, w = tensor_rule([gauss_legendre(*axis) for axis in spec])
    return G.inverse(g, eta), profile.gamma(eta) * w


def _grid_loop(mu, grid, pts, t):
    """Every point on a whole eta-grid, row block by row block, summed in
    the extension's fixed order."""
    g = mu.group
    eta_inv, gamma_w = grid
    sqrt_t = math.sqrt(t)
    out = np.empty(pts.shape[0])
    f = np.empty(gamma_w.size)
    for i, x in enumerate(pts):
        for start in range(0, f.size, 1 << 15):
            rows = slice(start, start + (1 << 15))
            f[rows] = mu.density_at(
                G.mul(g, x, G.dilate(g, sqrt_t, eta_inv[rows]))
            )
        out[i] = weighted_sum(gamma_w, f)
    return out


def _hull_states(mu, profile, pts, t):
    corner_inv = profile.eta_grid.corner_inv
    corners = G.dilate(mu.group, math.sqrt(t), corner_inv)
    return [mu.hull_state(G.mul(mu.group, x, corners)) for x in pts]


def _bump(p):
    return 1.0 + 0.5 * np.exp(-(p * p).sum(axis=-1))


_X0 = np.array([0.3, -0.2, 0.1])
_RADIUS = 0.7
_DILATION = 0.8


def _derived_densities(g):
    n = g.total_dim
    base = F.DensityMeasure(g, _bump, [[-1.5, 1.5]] * n)
    moved = F.translate_measure(base, _X0[:n])
    ball = F.Ball(np.zeros(n), _RADIUS)
    clipped = F.restrict(moved, ball)
    return {
        "base": base,
        "translated": moved,
        "restricted": clipped,
        "complement": F.restrict_complement(moved, ball),
        "dilated": F.dilate_measure(clipped, _DILATION),
    }


# ---------------------------------------------------------------------------
# exact-limit reference: u(x, t) = int Gamma(t, y^-1 x) f(y) dy, with the
# kernel evaluated directly
# ---------------------------------------------------------------------------

def _kernel_sum(profile, x, t, y, w, f):
    g = profile.group
    k = F.eval_kernel(profile, G.mul(g, G.inverse(g, y), x), t)
    return float(np.sum(w * k * f(y)))


def _ball_part(profile, x, t, k):
    """Over B(0, R) of the translated bump: polar in the first n - 1
    coordinates (rho = R sin phi), and Gauss-Legendre on each column's
    exact interval |y_n| < h(rho). B(0, R) lies inside the translated box
    on every group, so the ball is the whole domain."""
    g = profile.group
    n = g.total_dim
    R = _RADIUS

    def f(y):
        return _bump(G.mul(g, _X0[:n], y))

    col, w_col = gauss_legendre(-1.0, 1.0, 2 * k, 16)
    if n == 1:
        return _kernel_sum(profile, x, t, (R * col)[:, None], R * w_col, f)
    if n == 2:
        phi, w_phi = gauss_legendre(-0.5 * math.pi, 0.5 * math.pi, 2 * k, 16)
        heads = (R * np.sin(phi))[:, None]
        w_heads = R * np.cos(phi) * w_phi
    else:
        phi, w_phi = gauss_legendre(0.0, 0.5 * math.pi, 2 * k, 16)
        n_theta = 32 * k
        theta = np.arange(n_theta) * 2.0 * math.pi / n_theta
        rho = R * np.sin(phi)
        heads = np.stack([np.multiply.outer(rho, np.cos(theta)).ravel(),
                          np.multiply.outer(rho, np.sin(theta)).ravel()],
                         axis=1)
        w_heads = np.repeat(rho * R * np.cos(phi) * w_phi
                            * 2.0 * math.pi / n_theta, n_theta)
    rho = np.sqrt((heads ** 2).sum(axis=1))
    if g.step == 2:   # Koranyi ball: |z|^4 + 16 s^2 < R^4
        half = np.sqrt(R ** 4 - rho ** 4) / 4.0
    else:
        half = np.sqrt(R ** 2 - rho ** 2)
    y = np.empty((heads.shape[0], col.size, n))
    y[..., :-1] = heads[:, None, :]
    y[..., -1] = half[:, None] * col
    w = (w_heads * half)[:, None] * w_col
    return _kernel_sum(profile, x, t, y.reshape(-1, n), w.ravel(), f)


# box parts by (group, x, t, k): a translated value and the complement
# value at the same point share theirs
_BOX_PARTS = {}


def _box_part(profile, x, t, k):
    """Over the base box [-1.5, 1.5]^n of the bump, in eta: y = x *
    delta_sqrt(t)(eta^-1) and dy = t^(Q/2) d eta. The first-layer axes
    take Gauss-Legendre between the box faces' exact eta-images; each
    column then maps onto a vertical line, y_n = c - sqrt(t)^e eta_n, and
    takes Gauss-Legendre between the eta_n of its two faces. The kernel is
    evaluated directly at y^-1 x."""
    g = profile.group
    key = (g.label, tuple(x), t, k)
    if key in _BOX_PARTS:
        return _BOX_PARTS[key]
    n = g.total_dim
    sqrt_t = math.sqrt(t)
    k *= 1 if t >= 1.0 else 2
    outer = [gauss_legendre((x[i] - 1.5) / sqrt_t, (x[i] + 1.5) / sqrt_t,
                            k, 16) for i in range(n - 1)]
    heads, w_heads = tensor_rule(outer + [(np.zeros(1), np.ones(1))])
    c = G.mul(g, x, G.dilate(g, sqrt_t, G.inverse(g, heads)))[:, -1]
    scale = sqrt_t ** g.layer_exponents[-1]
    lo, hi = (c - 1.5) / scale, (c + 1.5) / scale
    col, w_col = gauss_legendre(-1.0, 1.0, 2 * k, 16)
    eta = np.repeat(heads, col.size, axis=0)
    eta[:, -1] = (0.5 * (lo + hi)[:, None]
                  + 0.5 * (hi - lo)[:, None] * col).ravel()
    w = ((w_heads * 0.5 * (hi - lo))[:, None] * w_col).ravel()
    y = G.mul(g, x, G.dilate(g, sqrt_t, G.inverse(g, eta)))
    _BOX_PARTS[key] = _kernel_sum(profile, x, t, y, w * t ** (g.hom_dim / 2),
                                  _bump)
    return _BOX_PARTS[key]


def _reference(profile, name, x, t):
    """The exact-limit value, checked against its own doubling to 1e-8."""
    g = profile.group
    moved = G.mul(g, _X0[:g.total_dim], x)   # u_(tau nu)(x) = u_nu(x0 * x)
    parts = {
        "base": lambda k: _box_part(profile, x, t, k),
        "translated": lambda k: _box_part(profile, moved, t, k),
        "restricted": lambda k: _ball_part(profile, x, t, k),
        "complement": lambda k: (_box_part(profile, moved, t, k)
                                 - _ball_part(profile, x, t, k)),
        # u_(nu_r)(x, t) = u_nu(delta_r x, r^2 t)
        "dilated": lambda k: _ball_part(profile, G.dilate(g, _DILATION, x),
                                        _DILATION ** 2 * t, k),
    }[name]
    coarse, value = parts(1), parts(2)
    assert abs(value - coarse) <= 1e-8 * abs(value), (name, x, t)
    return value


# Bounds on the column rule's relative error at the cut values below, per
# group, for the box-clipped measures (base, translated) and for those with
# a ball clip, each just above the worst error measured (heisenberg:1
# translated, t = 0.0625: 2.1e-6). The outer rules stop at the box faces
# but still integrate across the square-root kink where a clip sphere's
# sections shrink to zero (euclidean:2 complement: 1.07e-2).
_CUT_TOL = {
    "euclidean:1": (1e-12, 1e-12),
    "euclidean:2": (1e-12, 1.2e-2),
    "euclidean:3": (1e-12, 1e-2),
    "heisenberg:1": (5e-6, 1e-2),
}

# a point whose eta-image a face of the base box crosses along the first
# (outer) eta-axis at t = 4^-3, on R^n
_FACE_POINT = np.array([1.45, 0.2, 0.1])


def _face_errors(g):
    """Worst relative error of the box-clipped cut values at _FACE_POINT
    and t = 4^-3 against the exact-limit reference."""
    profile = F.profile_for(g)
    x, t = _FACE_POINT[:g.total_dim], 4.0 ** -3
    worst = 0.0
    for name in ("base", "translated"):
        mu = _derived_densities(g)[name]
        assert _hull_states(mu, profile, x[None], t) == ["cut"], name
        ref = _reference(profile, name, x, t)
        got = F.HeatExtension(mu, profile)(x, t)
        worst = max(worst, abs(got - ref) / abs(ref))
    return worst


@pytest.mark.parametrize("label", F.GROUP_LABELS)
def test_cut_and_outside_values_match_the_fine_loop(label):
    # "inside" and "outside" values are the eta-grid's bit for bit; "cut"
    # values integrate each eta-column between exact limits and must come
    # within _CUT_TOL of the exact-limit reference (the grid itself misses
    # it by up to 100% at the points below)
    g = F.get_group(label)
    profile = F.profile_for(g)
    n = g.total_dim
    pts = np.array([[0.0] * n, [0.1, 0.05, -0.02][:n], [5.0, 0.0, 0.0][:n]])
    grid = _weighted_grid(profile, g.eta_grid)
    seen = set()
    for name, mu in _derived_densities(g).items():
        u = F.HeatExtension(mu, profile)
        tol = _CUT_TOL[label][name not in ("base", "translated")]
        for t in (1e-4, 0.0625, 1.0):
            got = u(pts, t)
            want = _grid_loop(mu, grid, pts, t)
            states = _hull_states(mu, profile, pts, t)
            for x, state, a, b in zip(pts, states, got, want):
                seen.add(state)
                where = (name, t, x.tolist(), state)
                if state != "cut":
                    assert a == b, where
                else:
                    ref = _reference(profile, name, x, t)
                    assert abs(a - ref) <= tol * abs(ref), (where, a, ref)
    assert seen == {"inside", "cut", "outside"}
    if g.step == 1:
        assert _face_errors(g) <= _CUT_TOL[label][0]


def _erf_errors(n):
    """Worst relative error of u for density 1 on [-1.5, 1.5]^n at
    x = (x0, 0.2, 0.1)[:n], x0 in {1.1, 1.3, 1.45, 1.5, 1.6}, and
    t = 4^-1 .. 4^-8, against the erf product of the heat kernel
    (4 pi t)^(-n/2) exp(-|x|^2 / 4t). A face crosses the eta-box's first
    axis at most of these (x, t); the others are inside or outside."""
    g = F.euclidean_group(n)
    profile = F.profile_for(g)
    mu = F.DensityMeasure(g, lambda p: np.ones(p.shape[:-1]),
                          [[-1.5, 1.5]] * n)
    u = F.HeatExtension(mu, profile)
    worst = 0.0
    for x0 in (1.1, 1.3, 1.45, 1.5, 1.6):
        x = np.array([x0, 0.2, 0.1][:n])
        for t in 4.0 ** -np.arange(1, 9):
            h = 2.0 * math.sqrt(t)
            ref = math.prod(0.5 * (math.erf((1.5 - c) / h)
                                   + math.erf((1.5 + c) / h)) for c in x)
            got = u(x, t)
            # far past the face both vanish: there the error is |u|
            worst = max(worst, abs(got - ref) / ref if ref else abs(got))
    return worst


@pytest.mark.parametrize("n", [2, 3])
def test_cut_values_match_erf_products_across_faces(n):
    # a face across an outer eta-axis: each axis is clipped at the faces'
    # eta-images, so the values come within 1e-11 of the closed form (3.8e-12
    # measured; integrating across the face missed by 3.9e-2 and 5.9e-2)
    assert _erf_errors(n) <= 1e-11


def _h1_chain_errors():
    """Worst relative error of the heat-chain values u(0, s^2) of density 1
    on the H1 default box [-1.5, 1.5]^3 (the maximal suite's
    ms-h1-density-v2) at the cut scales s < 0.4, where the box's faces
    cross the first-layer eta-axes inside half their range, against a
    Gauss-Legendre product rule between the faces' eta-images (gamma is
    even in each coordinate, so 8 times an octant), itself checked against
    its refinement."""
    gh = F.heisenberg_group()
    ph = F.profile_for(gh)
    mu = F.build_measure(gh, {"type": "density", "family": "polynomial",
                              "params": {"constant": 1.0}})
    assert mu.support_box.tolist() == [[-1.5, 1.5]] * 3
    chain = F.heat_max(mu, ph, np.zeros(3))
    (lo, hi, _, _), _, (s_lo, s_hi, _, _) = gh.eta_grid
    worst, n_cut = 0.0, 0
    for s, value in zip(chain["scales"].tolist(), chain["values"].tolist()):
        if s >= 0.4 or _hull_states(mu, ph, np.zeros((1, 3)),
                                    s * s) != ["cut"]:
            continue
        a, c = min(hi, 1.5 / s), min(s_hi, 1.5 / s ** 2)
        refs = []
        for k in (2, 3):
            eta, w = tensor_rule([gauss_legendre(0.0, a, k)] * 2
                                 + [gauss_legendre(0.0, c, 2 * k)])
            refs.append(8.0 * weighted_sum(w, ph.gamma(eta)))
        assert abs(refs[1] - refs[0]) <= 1e-9 * refs[1], s
        worst = max(worst, abs(value - refs[1]) / refs[1])
        n_cut += 1
    assert n_cut == 13
    return worst


def test_h1_heat_chain_cut_values_match_the_product_rule():
    # the maximal suite's H1 heat chain reads u at scales whose eta-images
    # a face of the support box crosses along both first-layer axes; they
    # come within 1e-8 of the product rule (6.6e-10 measured; integrating
    # across the faces missed by 4.3e-3)
    assert _h1_chain_errors() <= 1e-8


def _half_range_rules(mu, x, sqrt_t):
    """`extension._outer_rules` with an axis whose faces leave more than
    half its range kept on the grid's own rule, across the faces."""
    g = mu.group
    rules = []
    for i, (lo, hi, n_panels, order) in enumerate(g.eta_grid[:-1]):
        scale = sqrt_t ** g.layer_exponents[i]
        a = max(lo, (x[i] - mu.support_box[i, 1]) / scale)
        b = min(hi, (x[i] - mu.support_box[i, 0]) / scale)
        if not a < b:
            return None
        if 2.0 * (b - a) > hi - lo:
            a, b = lo, hi
        rules.append(gauss_legendre(
            a, b, math.ceil(n_panels * (b - a) / (hi - lo)), order))
    return rules


def test_face_checks_fail_when_outer_axes_integrate_across_faces(
        monkeypatch):
    # negative control: with the half-range rule, which clips an outer axis
    # only where the faces leave at most half of it, every face check above
    # misses its bar
    monkeypatch.setattr(E, "_outer_rules", _half_range_rules)
    for n in (2, 3):
        assert _face_errors(F.euclidean_group(n)) > 1e-12
        assert _erf_errors(n) > 1e-11
    assert _h1_chain_errors() > 1e-8


@pytest.mark.parametrize("s_top", [7.0, 3.3])
def test_partial_panels_take_fresh_gamma(gh, ph, s_top):
    # a density equal to 1 on [-100, 100]^2 x [-100, s_top] at x = 0,
    # t = 1: every column keeps the grid's own z-rule and is cut at
    # eta_s = -s_top inside a panel of [-15, 0]. The reference is that
    # z-rule times 64 Gauss-Legendre panels on [-s_top, 30]. Gamma
    # interpolated from the panel's cached values missed by 2.2e-7 and
    # 1.0e-7; fresh gamma misses by 7.3e-11 and 2.2e-10
    mu = F.build_measure(gh, {"type": "density", "family": "polynomial",
                              "params": {"constant": 1.0},
                              "box": [[-100.0, 100.0], [-100.0, 100.0],
                                      [-100.0, s_top]]})
    x = np.zeros(3)
    assert _hull_states(mu, ph, x[None], 1.0) == ["cut"]
    grid = ph.eta_grid
    eta, w = tensor_rule(list(grid.axes[:2])
                         + [gauss_legendre(-s_top, 30.0, 64)])
    ref = weighted_sum(ph.gamma(eta), w)
    got = F.HeatExtension(mu, ph)(x, 1.0)
    assert abs(got - ref) <= 1e-9 * ref, (got, ref)


@pytest.mark.parametrize("label", F.GROUP_LABELS)
def test_declared_constant_values_match_undeclared_bitwise(label,
                                                           monkeypatch):
    # a declared constant sums the eta-grid once; every inside value, and
    # every cut and outside one, keeps the undeclared density's bits
    g = F.get_group(label)
    profile = F.profile_for(g)
    n = g.total_dim
    box = [[-1.0, 1.2]] * n
    fn = lambda p: np.full(p.shape[:-1], 1.5)  # noqa: E731
    declared = F.DensityMeasure(g, fn, box, constant=1.5)
    plain = F.DensityMeasure(g, fn, box)
    x0 = np.array([0.1, -0.05, 0.02])[:n]
    pts = np.array([[0.0] * n, [0.1, 0.05, -0.02][:n], [0.9, 0.0, 0.0][:n],
                    [5.0, 0.0, 0.0][:n]])
    seen = set()
    for a, b in ((declared, plain),
                 (declared.translate(x0), plain.translate(x0)),
                 (declared.dilate(1.3), plain.dilate(1.3))):
        assert a.constant == 1.5
        ua, ub = F.HeatExtension(a, profile), F.HeatExtension(b, profile)
        for t in (1e-4, 0.0625, 1.0):
            seen.update(_hull_states(a, profile, pts, t))
            assert ua(pts, t).tobytes() == ub(pts, t).tobytes(), t
    assert seen == {"inside", "cut", "outside"}
    # inside values take no density value
    inside = np.array([[0.0] * n, [0.1, 0.05, -0.02][:n]])
    assert set(_hull_states(declared, profile, inside, 1e-4)) == {"inside"}
    want = F.HeatExtension(plain, profile)(inside, 1e-4)
    monkeypatch.setattr(F.DensityMeasure, "density_inside", None)
    got = F.HeatExtension(declared, profile)(inside, 1e-4)
    assert got.tobytes() == want.tobytes()


# the three gauge families, each with a nonzero gauge term
_GAUGE_FAMILIES = {
    "polynomial": {"constant": 1.0, "quadratic": 0.7},
    "gaussian-bump": {"baseline": 1.0, "amplitude": 0.4, "width": 0.3},
    "log-oscillatory": {"baseline": 1.0, "amplitude": 0.5},
}


def _gauge_reductions(g, family, plain=False):
    """A gauge family's density and its reductions: name -> measure. The
    singular declaration is stripped, so every inside value takes the
    whole eta-grid; `plain` takes a DensityMeasure of the family's
    function alone in its place."""
    n = g.total_dim
    mu = F.build_measure(g, {"type": "density", "family": family,
                             "params": _GAUGE_FAMILIES[family]})
    mu.singular = None
    if plain:
        mu = F.DensityMeasure(g, mu.base_density, mu.support_box)
    x0 = np.array([0.1, -0.05, 0.02])[:n]
    ball = F.Ball(np.array([0.2, 0.1, 0.0])[:n], 0.9)
    moved = mu.translate(x0)
    return {"base": mu, "translated": moved, "dilated": mu.dilate(1.3),
            "restricted": moved.restrict(ball),
            "complement": moved.dilate(0.8).restrict_complement(ball)}


@pytest.mark.parametrize("label", F.GROUP_LABELS)
def test_declared_radial_values_match_undeclared_bitwise(label):
    # a gauge family from build_measure, f = r(N(y)), keeps the bits of a
    # DensityMeasure of its function alone in every reduction and hull
    # state; each value is the one a call at that point alone gives, also
    # in more inside points than two batches of `_inside_values` hold
    g = F.get_group(label)
    profile = F.profile_for(g)
    n = g.total_dim
    pts = np.array([[0.0, 0.0, 0.0], [0.1, 0.05, -0.02], [-0.3, 0.2, 0.1],
                    [0.05, -0.1, 0.3], [0.9, 0.0, 0.0],
                    [5.0, 0.0, 0.0]])[:, :n]
    seen = set()
    for family in _GAUGE_FAMILIES:
        for name, a in _gauge_reductions(g, family).items():
            b = _gauge_reductions(g, family, plain=True)[name]
            ua, ub = F.HeatExtension(a, profile), F.HeatExtension(b, profile)
            # at the larger t most hulls are cut: one family is enough there
            for t in (1e-4, 0.0625) if family == "polynomial" else (1e-4,):
                seen.update(_hull_states(a, profile, pts, t))
                assert ua(pts, t).tobytes() == ub(pts, t).tobytes(), \
                    (family, name, t)
    assert seen == {"inside", "cut", "outside"}
    per = max(1, _BLOCK_ROWS // profile.eta_grid.gamma_w.size)
    cloud = np.random.default_rng(5).uniform(-0.2, 0.2,
                                             size=(2 * per + 1, n))
    pts = np.vstack([pts[[0, 4, 5]], cloud])
    seen = set()
    for family in _GAUGE_FAMILIES:
        mu = _gauge_reductions(g, family)["translated"]
        assert set(_hull_states(mu, profile, cloud, 1e-4)) == {"inside"}
        u = F.HeatExtension(mu, profile)
        for t in (1e-4, 0.0625):
            seen.update(_hull_states(mu, profile, pts, t))
            assert u(pts, t).tobytes() == np.array(
                [u(x, t) for x in pts]).tobytes(), (family, t)
    assert seen == {"inside", "cut", "outside"}


def _axes_off_by_one_ulp(grid):
    """The eta-grid with one axis's nodes moved up by one ulp, for each
    axis in turn."""
    for j, (nodes, w) in enumerate(grid.axes):
        axes = (grid.axes[:j] + ((np.nextafter(nodes, np.inf), w),)
                + grid.axes[j + 1:])
        yield dataclasses.replace(grid, axes=axes)


# points on a leading axis, inside for every density below at t = 1e-4
_NODE_POINTS = np.array([[0.1, 0.05, -0.02], [-0.2, 0.1, 0.05],
                         [1.3, -0.2, 0.1], [-1.2, 0.3, -0.1]])


def _node_rows(mu, profile, grid, sqrt_t):
    """The inside points of `_NODE_POINTS` for mu, each at ``sqrt_t``
    (their per-row array), with `_inside_rows` and ``density_inside`` on
    their node images."""
    g = mu.group
    candidates = _NODE_POINTS[:, :g.total_dim]
    inside = np.array(_hull_states(mu, profile, candidates,
                                   sqrt_t ** 2)) == "inside"
    assert np.count_nonzero(inside) >= 2
    xs = candidates[inside]
    roots = np.full(xs.shape[0], sqrt_t)
    eta_t = G.dilate(g, sqrt_t, grid.eta_inv)
    want = np.stack([mu.density_inside(G.mul(g, x, eta_t)) for x in xs])
    return xs, E._inside_rows(mu, grid, xs, roots), want


@pytest.mark.parametrize("label", F.GROUP_LABELS)
def test_undeclared_inside_values_match_the_node_images_bitwise(label):
    # a density without a declared constant takes its inside values on the
    # eta-grid's axes; they equal density_inside on the node images, node
    # by node, for points on a leading axis: a bump's reductions and each
    # gauge family's five. Negative control: one eta axis moved by one ulp
    # moves the restricted bump's
    g = F.get_group(label)
    profile = F.profile_for(g)
    grid = profile.eta_grid
    bump = _derived_densities(g)
    mus = {("bump", name): bump[name]
           for name in ("base", "translated", "restricted", "dilated")}
    for family in _GAUGE_FAMILIES:
        mus.update({(family, name): mu for name, mu in
                    _gauge_reductions(g, family).items()})
    for key, mu in mus.items():
        assert mu.constant is None, key
        _, got, want = _node_rows(mu, profile, grid, 0.01)
        assert got.tobytes() == want.tobytes(), key
    xs, _, want = _node_rows(mus[("bump", "restricted")], profile, grid, 0.01)
    for moved in _axes_off_by_one_ulp(grid):
        assert E._inside_rows(mus[("bump", "restricted")], moved, xs,
                              np.full(xs.shape[0], 0.01)
                              ).tobytes() != want.tobytes()


def test_radial_node_values_see_a_one_ulp_change_of_an_axis():
    # each gauge family's restricted density takes the node images'
    # density values node by node; negative control: that equality can
    # fail, as one eta axis moved by one ulp moves them (far from a narrow
    # bump, f can hide an ulp of its argument)
    for label in F.GROUP_LABELS:
        g = F.get_group(label)
        profile = F.profile_for(g)
        grid = profile.eta_grid
        for family in _GAUGE_FAMILIES:
            mu = _gauge_reductions(g, family)["restricted"]
            xs, got, want = _node_rows(mu, profile, grid, 0.01)
            assert got.tobytes() == want.tobytes(), (label, family)
            for moved in _axes_off_by_one_ulp(grid):
                assert E._inside_rows(mu, moved, xs,
                                      np.full(xs.shape[0], 0.01)
                                      ).tobytes() != want.tobytes(), \
                    (label, family)


def test_small_times_fail_for_atoms_and_not_for_densities(gh, ph, g3, p3):
    # t^(-Q/2) overflows below about 7.5e-155 on H1 and 3.1e-206 on R^3:
    # atoms need it and raise a NumericsError naming the least time; a
    # density never forms it
    atom = F.HeatExtension(F.AtomicMeasure(gh, [[0.0, 0.0, 0.0]], [1.0]), ph)
    least = K._least_time(4)
    # heat_max's scale 1e-80 is the time 1e-160
    for call in (lambda: atom([0.0, 0.0, 0.0], 1e-160),
                 lambda: F.heat_max(atom.mu, ph, [0.0, 0.0, 0.0],
                                    s_grid=[1e-80, math.sqrt(1e-3)])):
        with pytest.raises(F.NumericsError, match=repr(least)) as err:
            call()
        assert "1e-160" in str(err.value)
    assert math.isfinite(atom([0.0, 0.0, 0.0], least))
    atom3 = F.HeatExtension(F.AtomicMeasure(g3, [[0.0] * 3], [1.0]), p3)
    with pytest.raises(F.NumericsError, match="1e-207"):
        atom3([0.0] * 3, 1e-207)
    mu = F.build_measure(gh, {"type": "density", "family": "polynomial",
                              "params": {"constant": 1.0, "quadratic": 0.5}})
    u = F.HeatExtension(mu, ph)
    x = np.array([0.3, 0.0, 0.0])
    value = u(x, 1e-160)
    # the eta-grid's gamma mass is 1 to about 1e-5
    assert value == pytest.approx(1.0 + 0.5 * 0.3 ** 2, rel=1e-4)
    assert F.heat_max(mu, ph, x, s_grid=[1e-80])["values"][0] == value


def _whole_panels(sections, edges):
    """``sections`` widened to the column panels each interval touches."""
    def widened(self, base, slope):
        lo, hi = sections(self, base, slope)
        live = lo < hi
        i = np.clip(np.searchsorted(edges, lo, "right") - 1, 0, edges.size - 1)
        j = np.clip(np.searchsorted(edges, hi, "left"), 0, edges.size - 1)
        return np.where(live, edges[i], lo), np.where(live, edges[j], hi)
    return widened


def test_forcing_the_smooth_rule_across_a_clip_misses(gh, ph, monkeypatch):
    # negative control: at t = 0.0625 the ball's sphere cuts the eta-image.
    # The column rule comes closer to the exact-limit reference than the
    # 48 x 48 x 128 grid does; integrating its partial panels as if they
    # were whole misses by more than that grid
    mu = _derived_densities(gh)["restricted"]
    x = np.zeros(3)
    t = 0.0625
    assert _hull_states(mu, ph, x[None], t) == ["cut"]
    ref = _reference(ph, "restricted", x, t)
    fine = _grid_loop(mu, _weighted_grid(ph, _FINE_H1), x[None], t)[0]
    rule = F.HeatExtension(mu, ph)(x, t)
    lo, hi, n_panels, _ = gh.eta_grid[-1]
    monkeypatch.setattr(
        F.DensityMeasure, "sections",
        _whole_panels(F.DensityMeasure.sections,
                      np.linspace(lo, hi, n_panels + 1)))
    forced = F.HeatExtension(mu, ph)(x, t)
    assert abs(rule - ref) < abs(fine - ref) < abs(forced - ref)


# A slice whose hulls are "inside" (the first two points at t = 1e-4),
# "cut" (near a support face or the clip sphere; past the face at
# (1.55, 0, 0) the outer rules narrow at t = 1e-4) and "outside" (far
# away) at once
_SLICE = np.array([[0.0, 0.0, 0.0], [0.1, 0.05, -0.02], [1.45, 0.0, 0.0],
                   [1.55, 0.0, 0.0], [0.69, 0.0, 0.0], [-0.3, 1.4, 0.2],
                   [0.0, 0.69, 0.0], [-0.69, 0.0, 0.01], [0.5, 0.48, 0.0],
                   [-1.45, 0.3, 0.0], [0.2, -1.47, 0.1], [5.0, 0.0, 0.0],
                   [20.0, 0.0, 0.0]])


def test_limit_trace_batches_match_pointwise_values(p2):
    # a slice call evaluates its points together (one hull test, batched
    # inside blocks, one kernel evaluation for every atom; cut points go
    # one at a time); every value must equal the point's own call bit for
    # bit, on every group, derived density, atomic measure and mixture
    u = F.HeatExtension(plane_quadratic(), p2)
    region = F.ParabolicRegion(np.array([0.2, -0.1]), aperture=1.0, t_max=0.25)
    trace = F.parabolic_limit(u, region)
    # the four largest t, where the slices cut the support box
    for pi in range(trace.values.shape[0]):
        for ti, t in enumerate(trace.t_values[:4]):
            assert trace.values[pi, ti] == u(trace.points[pi, ti], float(t))
    for label in F.GROUP_LABELS:
        g = F.get_group(label)
        profile = F.profile_for(g)
        pts = _SLICE[:, :g.total_dim]
        seen = set()
        for name, mu in _derived_densities(g).items():
            u = F.HeatExtension(mu, profile)
            for t in (1e-4, 0.0625, 1.0):
                states = _hull_states(mu, profile, pts, t)
                assert len(set(states)) > 1, (label, name, t, states)
                seen.update(states)
                for x, state, value in zip(pts, states, u(pts, t)):
                    assert value == u(x, t), (label, name, t, x, state)
        assert seen == {"inside", "cut", "outside"}, label
        # each point's atom sum is its own, in a fixed order, not a BLAS
        # product over the slice
        n = g.total_dim
        rng = np.random.default_rng(7)
        atoms = F.AtomicMeasure(g, rng.uniform(-0.3, 0.3, size=(5, n)),
                                rng.uniform(0.2, 2.0, size=5))
        mixture = F.MixtureMeasure(g, [atoms,
                                       _derived_densities(g)["restricted"]])
        for mu, n_pts in ((atoms, 141), (mixture, 64)):
            u = F.HeatExtension(mu, profile)
            cloud = rng.uniform(-0.3, 0.3, size=(n_pts, n))
            got = u(cloud, 0.01)
            assert np.all(got > 0.0), label
            assert got.tobytes() == np.array(
                [u(x, 0.01) for x in cloud]).tobytes(), label


# ---------------------------------------------------------------------------
# the compressed eta-rule of inside values
# ---------------------------------------------------------------------------

def _moment_errors(g, grid, idx, w, degree):
    """Per graded monomial of degree <= ``degree`` (coordinates scaled by
    the eta-box), |rule - grid| over the grid's sum of gamma * w * |m|,
    one monomial at a time so that no N x dim array is held."""
    eta, _ = tensor_rule(grid.axes)
    half = np.abs(eta).max(axis=0)
    out = []
    for a in quadrature.graded_indices(g.layer_exponents, degree):
        m = np.prod((eta / half) ** a, axis=1)
        full = weighted_sum(grid.gamma_w, m)
        scale = weighted_sum(grid.gamma_w, np.abs(m))
        out.append(abs(weighted_sum(w, m[idx]) - full) / scale)
    return np.array(out)


@pytest.mark.parametrize("label", F.GROUP_LABELS)
def test_compressed_rules_keep_the_eta_grid_moments(label):
    # Q6 and its nested Q4: positive weights on at most dim P_D of the
    # grid's own nodes, Q4's among Q6's, every moment of graded degree <= D
    # the grid's within 1e-13. Negative control: one Q6 weight off by 1e-3
    # fails the moment check
    g = F.get_group(label)
    profile = F.profile_for(g)
    grid = profile.eta_grid
    (i6, w6), (i4, w4) = quadrature.compressed_rules(
        grid.axes, grid.gamma_w, g.layer_exponents, K._RULE_DEGREES)
    dims = [len(quadrature.graded_indices(g.layer_exponents, d))
            for d in K._RULE_DEGREES]
    if label == "heisenberg:1":
        assert dims == [50, 22]
    assert i6.size <= dims[0] and i4.size <= dims[1]
    assert np.all(w6 > 0.0) and np.all(w4 > 0.0)
    assert np.all(np.diff(i6) > 0) and np.all(np.isin(i4, i6))
    for (idx, w), degree in zip(((i6, w6), (i4, w4)), K._RULE_DEGREES):
        assert _moment_errors(g, grid, idx, w, degree).max() <= 1e-13, degree
    off = w6.copy()
    off[np.argmax(off)] *= 1.0 + 1e-3
    assert _moment_errors(g, grid, i6, off, 6).max() > 1e-13
    # the heat extension's cached rule is this one, on the grid's nodes
    rule = profile.eta_rule
    assert np.array_equal(rule.eta_inv, grid.eta_inv[i6])
    assert rule.w.tobytes() == w6.tobytes()
    assert np.array_equal(i6[rule.sub], i4)
    assert rule.w_sub.tobytes() == w4.tobytes()


def _gauge_density(g, family, params, vertex):
    """A gauge family's density (base origin declared singular) seen from
    ``vertex``, and the same with the declaration stripped."""
    declared = F.translate_measure(
        F.build_measure(g, {"type": "density", "family": family,
                            "params": params}), vertex)
    stripped = F.translate_measure(
        F.build_measure(g, {"type": "density", "family": family,
                            "params": params}), vertex)
    stripped.singular = None
    return declared, stripped


@pytest.mark.parametrize("label", F.GROUP_LABELS)
def test_hulls_that_box_a_declared_point_take_the_full_grid(label):
    # the vertex at the declared point: the hull holds it, and the value is
    # the full grid's bit for bit. Off it, the hull is clear and the value
    # is the compressed rule's, within the bar of the full grid's
    g = F.get_group(label)
    profile = F.profile_for(g)
    n = g.total_dim
    params = _GAUGE_FAMILIES["gaussian-bump"]
    t = 1e-4
    for vertex, clear in ((np.zeros(n), False),
                          (np.array([0.3, -0.2, 0.1])[:n], True)):
        a, b = _gauge_density(g, "gaussian-bump", params, vertex)
        x = np.array([0.01, 0.0, 0.0])[:n]
        assert _hull_states(a, profile, x[None], t) == ["inside"]
        corners = G.dilate(g, math.sqrt(t), profile.eta_grid.corner_inv)
        hull = G.mul(g, x, corners)
        assert bool(a.analytic_hulls(hull)) == clear
        assert not b.analytic_hulls(hull)
        got = F.HeatExtension(a, profile)(x, t)
        want = F.HeatExtension(b, profile)(x, t)
        if clear:
            assert got != want
            assert abs(got - want) <= TABLE.eta_rule_tol * abs(want)
        else:
            assert got == want


@pytest.mark.parametrize("label", F.GROUP_LABELS)
def test_a_narrow_bump_trips_the_estimate(label):
    # a gaussian bump of width 0.02 seen from a vertex off its centre: the
    # hull is clear of the centre, but Q4 and Q6 disagree by more than the
    # bar, so the value is the full grid's bit for bit
    g = F.get_group(label)
    profile = F.profile_for(g)
    n = g.total_dim
    params = {"baseline": 1.0, "amplitude": 2.0, "width": 0.02}
    a, b = _gauge_density(g, "gaussian-bump", params,
                          np.array([0.06, 0.0, 0.0])[:n])
    x, sqrt_t = np.zeros((1, n)), 0.004
    corners = G.dilate(g, sqrt_t, profile.eta_grid.corner_inv)
    hull = G.mul(g, x[0], corners)
    assert a.hull_state(hull) == "inside" and a.analytic_hulls(hull)
    rule = profile.eta_rule
    q6, q4 = a._image_sums(x, np.full(1, sqrt_t), rule.eta_inv, rule.rules).T
    assert abs(q6 - q4)[0] > TABLE.eta_rule_tol * abs(q6)[0]
    got = F.HeatExtension(a, profile)(x[0], sqrt_t ** 2)
    assert got == F.HeatExtension(b, profile)(x[0], sqrt_t ** 2)
    assert got != q6[0]


@pytest.mark.parametrize("label", F.GROUP_LABELS)
def test_compressed_batches_match_pointwise_values(label):
    # a slice that mixes hulls holding the declared point, hulls the
    # compressed rule keeps and hulls whose estimate trips: every value is
    # the point's own call bit for bit, and the slice takes every rule
    g = F.get_group(label)
    profile = F.profile_for(g)
    n = g.total_dim
    vertex = np.array([0.06, 0.0, 0.0])[:n]
    # the declared point's preimage, and the narrow bump's tripping point
    cloud = np.vstack([G.inverse(g, vertex), np.zeros(n),
                       np.random.default_rng(11).uniform(-0.12, 0.12,
                                                         size=(40, n))])
    seen = set()
    for family, params in (("gaussian-bump", _GAUGE_FAMILIES[
                                "gaussian-bump"]),
                           ("gaussian-bump", {"baseline": 1.0,
                                              "amplitude": 2.0,
                                              "width": 0.02})):
        a, b = _gauge_density(g, family, params, vertex)
        u, full = F.HeatExtension(a, profile), F.HeatExtension(b, profile)
        t = 1.6e-5
        got, want = u(cloud, t), full(cloud, t)
        assert got.tobytes() == np.array([u(x, t) for x in cloud]).tobytes()
        same = got == want
        assert np.all(abs(got - want) <= TABLE.eta_rule_tol * abs(want))
        corners = G.dilate(g, math.sqrt(t), profile.eta_grid.corner_inv)
        clear = a.analytic_hulls(G.mul(g, cloud[:, None, :], corners))
        assert np.all(same[~clear])
        seen.update({"guarded"} if np.any(~clear) else set())
        seen.update({"compressed"} if np.any(~same) else set())
        seen.update({"tripped"} if np.any(same & clear) else set())
    assert seen == {"guarded", "compressed", "tripped"}


def _trace_values(report):
    """Every limit-trace value of a report, in CSV order, per aperture."""
    return {key: np.array([float(line.rsplit(",", 1)[1])
                           for line in csv.splitlines()[1:]])
            for key, csv in report.traces.items() if key.startswith("limit")}


@pytest.mark.parametrize("label", ["hc-translated-vertex",
                                   "eg-translated-vertex"])
def test_compressed_values_match_the_full_grid_on_the_translated_presets(
        label, monkeypatch):
    # with the singular declaration and with it stripped (every inside
    # value on the full grid), each trace value agrees within the bar, the
    # verdicts are equal and the limit estimates within 1e-12; and the
    # compressed rule did take part
    cfg = {c["label"]: c for s in ("euclidean-gehring", "heisenberg-core")
           for c in F.preset_suite(s)}[label]
    with_rule = F.run_scenario(cfg)
    init = F.DensityMeasure.__init__

    def stripped(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.singular = None

    monkeypatch.setattr(F.DensityMeasure, "__init__", stripped)
    full = F.run_scenario(cfg)
    assert with_rule.verdict == full.verdict
    moved = 0
    for key, vals in _trace_values(with_rule).items():
        ref = _trace_values(full)[key]
        assert np.all(abs(vals - ref) <= TABLE.eta_rule_tol * abs(ref)), key
        moved += int(np.count_nonzero(vals != ref))
    assert moved > 0
    for key, lim in with_rule.limits.items():
        assert abs(lim["estimate"] - full.limits[key]["estimate"]) <= \
            1e-12 * abs(full.limits[key]["estimate"]), key
