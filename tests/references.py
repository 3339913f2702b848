"""Reference computations that check the program by an independent route.

Each helper recomputes something the program computes, by another rule,
and is used only by the tests that compare the two:

* `duality_check`: a density's heat extension in the original variable,
  on midpoint cells over its support box, against the scaled eta-grid;
* `surface_rule` and `polar_integrate`: the unit sphere's surface rule from
  the group's polar chart, and integrals over gauge balls in polar form;
* `oracle_strong_derivative`: Monte Carlo ball quotients, atoms counted
  exactly and densities sampled over the clipped bounding box;
* `imaginary_residue`: the imaginary part of the Heisenberg kernel's
  unsymmetrized inverse transform, which the cosine form drops;
* `panel_width`: the lambda-panel width of one |s|, which
  `kernels._panel_counts` computes for many;
* `complex_key_pairs` and `heisenberg_gamma`: the Heisenberg profile's
  distinct (|z|, |s|) pairs by one ``np.unique`` on a complex key, and the
  table-backed gamma on them with the spline's basis taken point by point.
"""

import math

import numpy as np

import fatoulab as F
from fatoulab import groups as G, kernels as K
from fatoulab.oracle import _step_rng
from fatoulab.quadrature import gauss_legendre, point_array


# ---------------------------------------------------------------------------
# the heat extension by a second quadrature
# ---------------------------------------------------------------------------

def _midpoint_cells(box: np.ndarray, cells: int):
    """Centers (N, n) of ``cells`` midpoint cells per axis of ``box`` and
    the cell volume."""
    steps = (box[:, 1] - box[:, 0]) / cells
    axes = [lo + h * (np.arange(cells) + 0.5) for (lo, _), h in zip(box, steps)]
    return point_array(np.meshgrid(*axes, indexing="ij")), np.prod(steps)


def duality_check(mu, profile, x, t: float) -> dict:
    """Evaluate the extension by two independent quadratures and compare.

    Route A is the scaled eta-grid used by HeatExtension; route B integrates
    in the original variable with a midpoint rule over the support box
    (exact resummation for atomic parts). Agreement bounds the quadrature
    error without assuming either route is right.
    """
    g = mu.group
    x = np.asarray(x, dtype=float)
    route_a = F.HeatExtension(mu, profile)(x, t)
    route_b = 0.0
    for part in mu.parts():
        if isinstance(part, F.AtomicMeasure):
            if part.points.shape[0] == 0:
                continue
            rel = G.mul(g, G.inverse(g, part.points), x)
            route_b += float(
                part.weights @ np.atleast_1d(K.eval_kernel(profile, rel, t)))
        else:
            ys, vol = _midpoint_cells(part.support_box,
                                      {1: 600, 2: 150, 3: 60}[g.total_dim])
            kv = K.eval_kernel(profile, G.mul(g, G.inverse(g, ys), x), t)
            route_b += float((part.density_at(ys) * kv).sum() * vol)
    denom = max(abs(route_a), abs(route_b), 1e-300)
    return {
        "scaled_grid": route_a,
        "direct_grid": route_b,
        "rel_diff": abs(route_a - route_b) / denom,
    }


# ---------------------------------------------------------------------------
# the sphere chart's surface rule and polar integration
# ---------------------------------------------------------------------------

# (polar, azimuth) node counts of the surface rule per unit of resolution,
# by homogeneous dimension: R^1 (two points), R^2, R^3 and the Heisenberg
# group
_SURFACE_COUNTS = {1: (0, 0), 2: (0, 64), 3: (32, 64), 4: (48, 64)}


def surface_rule(g, resolution: int = 0):
    """Quadrature rule (nodes, weights) on the unit sphere {d = 1}.

    Total weight equals the surface constant sigma(S) = Q * m(B(0,1)).
    ``resolution`` > 0 scales the node counts (for refinement studies).
    """
    mult = max(1, resolution)
    return g.sphere.rule(tuple(n * mult for n in _SURFACE_COUNTS[g.hom_dim]))


def polar_integrate(g, f, r_max: float, n_radial: int = 256,
                    resolution: int = 0) -> float:
    """Integrate f over {d(x) < r_max} in polar form.

    Uses Int_0^rmax Int_S f(delta_r(w)) r^(Q-1) dsigma(w) dr with the
    surface rule and composite Gauss-Legendre radial panels. Raises
    ``NumericsError`` with a location if f produces non-finite values.
    """
    if r_max <= 0:
        raise F.GroupError(f"r_max must be positive, got {r_max}")
    omega, w_s = surface_rule(g, resolution)
    r, w_r = gauss_legendre(0.0, r_max, max(1, n_radial // 16))
    exps = np.array(g.layer_exponents, dtype=float)
    pts = r[:, None, None] ** exps[None, None, :] * omega[None, :, :]
    vals = np.asarray(f(pts), dtype=float)
    if not np.all(np.isfinite(vals)):
        bad = np.argwhere(~np.isfinite(vals))[0]
        raise F.NumericsError(
            "integrand returned a non-finite value",
            location=pts[tuple(bad)].tolist(),
        )
    radial = vals @ w_s
    return float(np.sum(w_r * r ** (g.hom_dim - 1) * radial))


# ---------------------------------------------------------------------------
# Monte Carlo derivative quotients
# ---------------------------------------------------------------------------

def _mc_ball_mass(mu, ball, n_samples: int, seed: int):
    """(estimate, stderr) for nu(ball); exact for atomic parts.

    Density part i samples with seed + 7 * i.
    """
    g = mu.group
    vals, errs = [], []
    for i, part in enumerate(mu.parts()):
        if isinstance(part, F.AtomicMeasure):
            vals.append(F.measure_ball(part, ball)[0])
            continue
        bb = G.ball_bounding_box(g, ball)
        lo = np.maximum(bb[:, 0], part.support_box[:, 0])
        hi = np.minimum(bb[:, 1], part.support_box[:, 1])
        if np.any(hi <= lo):
            vals.append(0.0)
            continue
        vol = float(np.prod(hi - lo))
        rng = _step_rng(seed + 7 * i, 1)
        pts = rng.uniform(lo, hi, size=(n_samples, g.total_dim))
        f = part.density_at(pts) * G.ball_contains(g, ball, pts)
        vals.append(float(f.mean() * vol))
        errs.append(float(f.std(ddof=1) / math.sqrt(n_samples) * vol))
    return float(sum(vals)), math.hypot(*errs)


def oracle_strong_derivative(mu, x0, radii, n_samples: int = 200_000,
                             seed: int = 5) -> dict:
    """Monte Carlo ball-quotient estimates nu(x0 * B_r) / m(B_r).

    An independent check on the deterministic quotient quadrature: atoms are
    counted exactly, densities sampled uniformly over the clipped bounding
    box. Standard errors refer to the quotients.
    """
    g = mu.group
    mu0 = F.translate_measure(mu, np.asarray(x0, dtype=float))
    r = np.asarray(radii, dtype=float)
    quot = np.empty(r.size)
    err = np.empty(r.size)
    for i, rr in enumerate(r):
        ball = G.Ball(np.zeros(g.total_dim), float(rr))
        v, e = _mc_ball_mass(mu0, ball, n_samples, seed + 13 * i)
        vol = G.ball_volume(g, float(rr))
        quot[i] = v / vol
        err[i] = e / vol
    return {"radii": r, "quotients": quot, "stderr": err}


# ---------------------------------------------------------------------------
# the Heisenberg kernel's lambda rules
# ---------------------------------------------------------------------------

def panel_width(sigma: float) -> float:
    """Width of the lambda panels for an integrand oscillating at sigma."""
    return 0.5 if sigma <= 24.0 else min(0.5, 12.0 / sigma)


def imaginary_residue() -> float:
    """Max |imag| of the unsymmetrized inverse transform over symmetric nodes.

    The shipped evaluation uses the analytically symmetrized cosine form;
    this verifies that the full two-sided integral has negligible imaginary
    part on a symmetric rule, at |z| = 0.7 and s = 0.5, 3, 10.
    """
    rho = 0.7
    worst = 0.0
    for s in (0.5, 3.0, 10.0):
        n_panels = max(1, math.ceil(2.0 * K._LAM_MAX / panel_width(abs(s))))
        lam, wt = gauss_legendre(-K._LAM_MAX, K._LAM_MAX, n_panels)
        mask = np.abs(lam) > 1e-14
        lam, wt = lam[mask], wt[mask]
        four = 4.0 * lam
        g = (lam / np.sinh(four)) * np.exp(-(lam / np.tanh(four)) * rho ** 2)
        val = np.sum(wt * g * np.exp(1j * lam * s)) / (2.0 * math.pi ** 2)
        worst = max(worst, abs(float(val.imag)))
    return worst


# ---------------------------------------------------------------------------
# the Heisenberg profile's distinct pairs and table-backed gamma
# ---------------------------------------------------------------------------

def complex_key_pairs(coords):
    """Distinct (|z|, |s|) pairs of a coordinate array, ascending, by
    ``np.unique`` on the complex key |z| + i |s|: (rho, sigma, inverse,
    scalar), gamma over the input being ``vals[inverse]``."""
    c = np.asarray(coords, dtype=float)
    scalar = c.ndim == 1
    c = np.atleast_2d(c)
    key = np.hypot(c[..., 0], c[..., 1]).astype(complex)
    key.imag = np.abs(c[..., 2])
    pairs, inverse = np.unique(key.ravel(), return_inverse=True)
    return pairs.real, pairs.imag, inverse.reshape(key.shape), scalar


def _spline_points(spline, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The bicubic spline at the points (x[i], y[i]), each point's basis on
    its own: 16 gathered coefficients times the two bases, summed term by
    term in C order."""
    lx, hx = K._cubic_basis(spline.tx, x)
    ly, hy = K._cubic_basis(spline.ty, y)
    ny = spline.coeffs.shape[1]
    offsets = (np.arange(4)[:, None] * ny + np.arange(4)).reshape(16, 1)
    c = spline.coeffs.ravel()[(lx - 3) * ny + (ly - 3) + offsets]
    terms = (c.reshape(4, 4, -1) * hx[:, None] * hy[None, :]).reshape(16, -1)
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def heisenberg_gamma(machine, coords):
    """The table-backed Heisenberg gamma of ``machine`` on the pairs of
    `complex_key_pairs`: the spline inside the table, the direct quadrature
    beyond it."""
    rho, sig, inverse, scalar = complex_key_pairs(coords)
    vals = np.empty(rho.size)
    inside = (rho <= K._TABLE_RHO_MAX) & (sig <= K._TABLE_SIG_MAX)
    if np.any(inside):
        vals[inside] = np.exp(_spline_points(machine.spline, rho[inside],
                                             sig[inside]))
    if not np.all(inside):
        vals[~inside] = K._direct_gamma_rho_sigma(rho[~inside], sig[~inside])
    out = vals[inverse]
    return float(out[0]) if scalar else out
