"""Heat kernels on the shipped groups and their validation battery.

Every kernel is represented by its time-1 profile ``gamma`` and extended by the
exact parabolic scaling Gamma(x, t) = t^(-Q/2) gamma(delta_(1/sqrt t)(x)), so
the scaling identity holds by construction.

Euclidean: gamma(x) = (4 pi)^(-n/2) exp(-|x|^2 / 4), the kernel of d/dt = Lap.

Heisenberg: the sub-Laplacian is the sum of squares of the two horizontal
fields; a partial Fourier transform in the central variable turns it into a
two-dimensional magnetic oscillator (d_x + 2 i lam y)^2 + (d_y - 2 i lam x)^2,
whose time-1 kernel at the origin is given by a Mehler formula. Inverting the
transform (analytically symmetrized to a cosine integral, killing the
imaginary part) gives

    gamma(z, s) = pi^(-2) Int_0^inf (lam / sinh 4 lam)
                  exp(-lam coth(4 lam) |z|^2) cos(lam s) dlam.

The integral is evaluated by composite Gauss-Legendre panels sized to the
oscillation wavelength of each point's own |s|; for |s| > 24 and |z|^2 small
against |s| the contour is shifted to lam -> lam + i tau (tau < pi/8, inside
the analyticity strip) which extracts the e^(-tau |s|) decay before
quadrature, and past that the real-axis rule is kept, because the shifted
integrand picks up an oscillation of frequency ~|z|^2 that its panels do not
resolve. The rule is chosen per point, so a value never depends on what else
is in the call. Bulk evaluation goes through a bicubic spline of log gamma in
(|z|, |s|); the direct quadrature backs the PDE-residual and certification
paths and points outside the table. The table's |s|-columns share lambda
rules (one for every |s| <= 24, one per panel count beyond), so each rule's
nodes and exponentials exp(-lam coth(4 lam) |z|^2) are built once and a
column is one matrix-vector product with its own cosine weights. gamma
depends only on (|z|, |s|), so each call evaluates every distinct pair once
and scatters the values back.

Constants are fixed by this construction and must pass the validation battery
(`validate_profile`): positivity, symmetry, normalization, semigroup property,
parabolic scaling, PDE residual with second-order signature, and a two-sided
Gaussian envelope certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.interpolate import RectBivariateSpline
from scipy.optimize import brentq

from .errors import CertificationError, GroupError, NumericsError
from . import groups as G
from .quadrature import gauss_legendre, tensor_rule

__all__ = [
    "KernelProfile",
    "GaussianCertificate",
    "gamma_euclidean",
    "gamma_heisenberg",
    "euclidean_profile",
    "heisenberg_profile",
    "profile_for",
    "eval_kernel",
    "kernel_mass",
    "check_semigroup",
    "pde_residual",
    "certify_gaussian",
    "validate_profile",
]

_TABLE_RHO_MAX = 9.5
_TABLE_SIG_MAX = 32.0
_LAM_MAX = 14.0
_CONTOUR_SIGMA = 24.0
_TAU_SHIFT = 0.98 * math.pi / 8.0
# entries of one (points x nodes) quadrature matrix in the direct branches
_CHUNK_ENTRIES = 1 << 20


@dataclass
class GaussianCertificate:
    """Two-sided Gaussian envelope certificate for a kernel profile.

    Certifies c0 >= 1 with, for every grid point (x, t),
    c0^-1 t^(-Q/2) exp(-c0 d(x)^2 / t) <= Gamma(x,t)
    <= c0 t^(-Q/2) exp(-d(x)^2 / (c0 t)).
    ``max_violation`` <= 0 means both bounds hold everywhere on the grid.
    """

    c0: float
    grid: dict
    max_violation: float
    log: dict = field(default_factory=dict)


@dataclass(eq=False)
class KernelProfile:
    """A heat kernel: group, time-1 profile, and its validation state."""

    group: G.GroupDescriptor
    gamma: object  # callable coords (..., N) -> (...)
    gamma_accurate: object  # high-accuracy pointwise callable, same signature
    quadrature_spec: dict
    validation: dict | None = None
    certificate: GaussianCertificate | None = None
    _caches: dict = field(default_factory=dict, repr=False)

    @property
    def validation_state(self) -> str:
        if self.validation is None:
            return "unchecked"
        return "validated" if self.validation.get("passed") else "failed"


# ---------------------------------------------------------------------------
# Euclidean profile
# ---------------------------------------------------------------------------

def gamma_euclidean(n: int, x) -> np.ndarray | float:
    """Time-1 Euclidean heat profile (4 pi)^(-n/2) exp(-|x|^2/4)."""
    c = np.asarray(x, dtype=float)
    r2 = (c * c).sum(axis=-1)
    return (4.0 * math.pi) ** (-n / 2.0) * np.exp(-r2 / 4.0)


@lru_cache(maxsize=None)
def euclidean_profile(n: int) -> KernelProfile:
    g = G.euclidean_group(n)

    def gam(coords):
        return gamma_euclidean(n, coords)

    return KernelProfile(
        group=g,
        gamma=gam,
        gamma_accurate=gam,
        quadrature_spec={"form": "closed", "n": n, "semigroup_tol": 1e-6},
    )


# ---------------------------------------------------------------------------
# Heisenberg profile
# ---------------------------------------------------------------------------

def _gl_panels(a: float, b: float, width: float):
    """Composite Gauss-Legendre rule on [a, b], panels no wider than width."""
    return gauss_legendre(a, b, max(1, int(math.ceil((b - a) / width))))


def _panel_width(sigma: float) -> float:
    return 0.5 if sigma <= 24.0 else min(0.5, 12.0 / sigma)


def _panel_counts(freq: np.ndarray) -> np.ndarray:
    """Panels on [0, lambda_max] for integrands oscillating at ``freq``.

    The width is `_panel_width(freq)`: 12 radians of oscillation per panel.
    """
    width = np.minimum(0.5, 12.0 / np.fmax(freq, 24.0))
    return np.ceil(_LAM_MAX / width).astype(np.int64)


def _row_chunks(n_rows: int, n_nodes: int):
    """Row slices whose (rows x nodes) quadrature matrices stay bounded."""
    step = max(1, _CHUNK_ENTRIES // n_nodes)
    for start in range(0, n_rows, step):
        yield slice(start, start + step)


def _plain_rows(rho2: np.ndarray, sigma: np.ndarray, n_panels: int) -> np.ndarray:
    """Cosine-transform quadrature on the real lambda axis, one row per point."""
    lam, wt = gauss_legendre(0.0, _LAM_MAX, n_panels)
    four = 4.0 * lam
    base = lam / np.sinh(four)
    cth = lam / np.tanh(four)
    out = np.empty(sigma.size)
    for rows in _row_chunks(sigma.size, lam.size):
        ex = np.exp(-np.outer(rho2[rows], cth))
        cos = np.cos(np.outer(sigma[rows], lam))
        out[rows] = (ex * cos * (base * wt)[None, :]).sum(axis=1) / math.pi ** 2
    return out


def _shifted_rows(rho2: np.ndarray, sigma: np.ndarray, n_panels: int) -> np.ndarray:
    """Contour-shifted quadrature (lam -> lam + i tau), one row per point.

    The shift extracts the e^(-tau sigma) decay before quadrature.
    """
    tau = _TAU_SHIFT
    u, wt = gauss_legendre(0.0, _LAM_MAX, n_panels)
    lam = u + 1j * tau
    four = 4.0 * lam
    base = (lam / np.sinh(four)) * wt
    cth = lam / np.tanh(four)
    out = np.empty(sigma.size)
    for rows in _row_chunks(sigma.size, u.size):
        envelope = np.exp(-np.outer(rho2[rows], cth))
        phase = np.exp(1j * np.outer(sigma[rows], u))
        out[rows] = (envelope * phase * base[None, :]).real.sum(axis=1)
    return out * np.exp(-tau * sigma) / math.pi ** 2


def _direct_gamma_rho_sigma(rho: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Direct quadrature of gamma on (|z|, |s|) pairs.

    Each point gets its own lambda rule from its own (rho, sigma). Past
    contour_sigma it takes the contour whose integrand is smaller at lam = 0,
    which is the one that loses fewer digits to cancellation: the shifted one
    while rho^2 is below ~1.6 sigma, the real axis beyond. Panels resolve the
    oscillation in lam: frequency sigma on the real axis, and sigma + 1.5 rho^2
    on the shifted contour, where Im(lam coth 4 lam) turns rho^2 into a phase.
    Points sharing a rule are batched, and every row is summed on its own, so
    a value never depends on what else is in the call. Far points whose shift
    factor exp(-tau sigma - rho^2/4) underflows double precision are exact
    zeros.
    """
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    sigma = np.atleast_1d(np.asarray(sigma, dtype=float))
    rho, sigma = np.broadcast_arrays(rho, sigma)
    flat_r, flat_s = rho.ravel(), sigma.ravel()
    r2 = flat_r ** 2
    out = np.zeros(flat_s.size)
    far = flat_s > _CONTOUR_SIGMA
    tau = _TAU_SHIFT
    zero = far & ((tau * flat_s + 0.25 * r2 > 700.0) | (flat_s > 400.0))
    # log of the integrand at lam = 0 (real axis) and lam = i tau (shifted)
    log_real = math.log(0.25) - 0.25 * r2
    log_shifted = (math.log(tau / math.sin(4.0 * tau)) - tau * flat_s
                   - r2 * tau / math.tan(4.0 * tau))
    shifted = far & ~zero & (log_shifted < log_real)
    freq = np.where(shifted, flat_s + 1.5 * r2, flat_s)
    n_panels = _panel_counts(np.where(zero, 0.0, freq))  # zeros need no rule
    for rule, use in ((_plain_rows, ~zero & ~shifted), (_shifted_rows, shifted)):
        idx = np.nonzero(use)[0]
        idx = idx[np.argsort(n_panels[idx], kind="stable")]
        cuts = np.nonzero(np.diff(n_panels[idx]))[0] + 1
        for sel in np.split(idx, cuts):
            if sel.size:
                out[sel] = rule(r2[sel], flat_s[sel], int(n_panels[sel[0]]))
    # oscillatory cancellation floor: a strictly positive resolution limit
    low = far & ~zero & (out <= 0.0)
    out[low] = 1e-18 * np.exp(-tau * flat_s[low] - 0.25 * r2[low])
    return out.reshape(rho.shape)


def _distinct_pairs(coords):
    """Distinct (|z|, |s|) pairs of a coordinate array, and the map back.

    Returns (rho, sigma, inverse, scalar): gamma over the input is
    ``vals[inverse]`` for vals evaluated on the distinct pairs.
    """
    c = np.asarray(coords, dtype=float)
    scalar = c.ndim == 1
    c = np.atleast_2d(c)
    key = np.hypot(c[..., 0], c[..., 1]).astype(complex)
    key.imag = np.abs(c[..., 2])
    pairs, inverse = np.unique(key.ravel(), return_inverse=True)
    return pairs.real, pairs.imag, inverse.reshape(key.shape), scalar


class _HeisenbergGamma:
    """Table-backed evaluation of the Heisenberg time-1 profile.

    gamma depends only on (|z|, |s|): each call evaluates every distinct pair
    once and scatters the values back to the input's shape. The table's
    columns are grouped by their lambda rule (`_panel_counts`); a rule's
    (rho, lambda) exponential matrix serves all of its columns, and each
    column is summed by its own matrix-vector product.
    """

    def __init__(self, n_rho: int = 241, n_sig: int = 481):
        self.rho_grid = np.linspace(0.0, _TABLE_RHO_MAX, n_rho)
        self.sig_grid = np.linspace(0.0, _TABLE_SIG_MAX, n_sig)
        table = np.empty((n_rho, n_sig))
        r2 = self.rho_grid ** 2
        n_panels = _panel_counts(self.sig_grid)
        for n in np.unique(n_panels):
            lam, wt = gauss_legendre(0.0, _LAM_MAX, int(n))
            four = 4.0 * lam
            base = (lam / np.sinh(four)) * wt
            ex = np.exp(-np.outer(r2, lam / np.tanh(four)))
            for j in np.flatnonzero(n_panels == n):
                amp = base * np.cos(lam * self.sig_grid[j])
                table[:, j] = ex @ amp / math.pi ** 2
        if table.min() <= 0.0:
            raise NumericsError("kernel table contains non-positive entries")
        self.table = table
        self.spline = RectBivariateSpline(
            self.rho_grid, self.sig_grid, np.log(table), kx=3, ky=3, s=0
        )

    def __call__(self, coords) -> np.ndarray | float:
        rho, sig, inverse, scalar = _distinct_pairs(coords)
        vals = np.empty(rho.size)
        inside = (rho <= _TABLE_RHO_MAX) & (sig <= _TABLE_SIG_MAX)
        if np.any(inside):
            vals[inside] = np.exp(self.spline.ev(rho[inside], sig[inside]))
        if not np.all(inside):
            vals[~inside] = _direct_gamma_rho_sigma(rho[~inside], sig[~inside])
        out = vals[inverse]
        return float(out[0]) if scalar else out

    def accurate(self, coords) -> np.ndarray | float:
        rho, sig, inverse, scalar = _distinct_pairs(coords)
        out = _direct_gamma_rho_sigma(rho, sig)[inverse]
        return float(out[0]) if scalar else out


def gamma_heisenberg(z, s=None) -> np.ndarray | float:
    """Heisenberg time-1 profile gamma(z, s) by direct quadrature.

    Accepts a complex z plus real s, or a coordinate array (..., 3).
    """
    if s is None:
        c = np.asarray(z, dtype=float)
        scalar = c.ndim == 1
        rho = np.hypot(c[..., 0], c[..., 1])
        sig = np.abs(c[..., 2])
    else:
        zz = np.asarray(z, dtype=complex)
        scalar = zz.ndim == 0 and np.ndim(s) == 0
        rho = np.abs(zz)
        sig = np.abs(np.asarray(s, dtype=float))
    out = _direct_gamma_rho_sigma(rho, sig)
    return float(out.reshape(-1)[0]) if scalar else out


def imaginary_residue(s_values=(0.5, 3.0, 10.0), rho: float = 0.7) -> float:
    """Max |imag| of the unsymmetrized inverse transform over symmetric nodes.

    The shipped evaluation uses the analytically symmetrized cosine form; this
    diagnostic verifies that the full two-sided integral has negligible
    imaginary part on a symmetric rule.
    """
    worst = 0.0
    for s in s_values:
        lam, wt = _gl_panels(-_LAM_MAX, _LAM_MAX, _panel_width(abs(s)))
        mask = np.abs(lam) > 1e-14
        lam, wt = lam[mask], wt[mask]
        four = 4.0 * lam
        g = (lam / np.sinh(four)) * np.exp(-(lam / np.tanh(four)) * rho ** 2)
        val = np.sum(wt * g * np.exp(1j * lam * s)) / (2.0 * math.pi ** 2)
        worst = max(worst, abs(float(val.imag)))
    return worst


@lru_cache(maxsize=None)
def heisenberg_profile() -> KernelProfile:
    g = G.heisenberg_group()
    machine = _HeisenbergGamma()
    return KernelProfile(
        group=g,
        gamma=machine,
        gamma_accurate=machine.accurate,
        quadrature_spec={
            "form": "mehler-cosine",
            "lambda_max": _LAM_MAX,
            "panel_order": 16,
            "contour_sigma": _CONTOUR_SIGMA,
            "table_shape": machine.table.shape,
            "table_rho_max": _TABLE_RHO_MAX,
            "table_sig_max": _TABLE_SIG_MAX,
            "semigroup_tol": 1e-2,
        },
    )


_PROFILES = {
    "euclidean:1": lambda: euclidean_profile(1),
    "euclidean:2": lambda: euclidean_profile(2),
    "euclidean:3": lambda: euclidean_profile(3),
    "heisenberg:1": heisenberg_profile,
}


def profile_for(g: G.GroupDescriptor) -> KernelProfile:
    """Kernel profile for a shipped group, looked up by its registry label."""
    try:
        return _PROFILES[g.label]()
    except KeyError:
        raise GroupError(f"no kernel profile for group {g.label}") from None


# ---------------------------------------------------------------------------
# kernel evaluation and checks
# ---------------------------------------------------------------------------

def eval_kernel(k: KernelProfile, x, t: float) -> np.ndarray | float:
    """Gamma(x, t) = t^(-Q/2) gamma(delta_(1/sqrt t)(x)); requires t > 0."""
    if not (t > 0) or not math.isfinite(t):
        raise NumericsError(f"kernel time must be positive and finite, got {t}")
    q = k.group.hom_dim
    scaled = G.dilate(k.group, 1.0 / math.sqrt(t), x)
    return t ** (-q / 2.0) * k.gamma(scaled)


def _mass_grid(k: KernelProfile):
    """Cached scaled-coordinate quadrature grid covering the kernel mass."""
    if "mass_grid" not in k._caches:
        k._caches["mass_grid"] = tensor_rule(
            [gauss_legendre(*axis) for axis in k.group.mass_grid]
        )
    return k._caches["mass_grid"]


def kernel_mass(k: KernelProfile, t: float) -> float:
    """Total integral of Gamma(. , t) over the group (truncated quadrature)."""
    pts, w = _mass_grid(k)
    nodes = G.dilate(k.group, math.sqrt(t), pts)
    vals = eval_kernel(k, nodes, t)
    return float(np.sum(w * vals) * t ** (k.group.hom_dim / 2.0))


def check_semigroup(k: KernelProfile, x, t: float, tau: float) -> float:
    """Residual |Gamma(x, t+tau) - Int Gamma(xi^-1 x, t) Gamma(xi, tau) dm(xi)|.

    The convolution is computed in coordinates scaled by sqrt(tau) so the
    inner factor becomes the time-1 profile on a fixed grid.
    """
    if not (t > 0 and tau > 0):
        raise NumericsError("semigroup check requires positive times")
    g = k.group
    pts, w = _mass_grid(k)
    if "mass_gamma" not in k._caches:
        k._caches["mass_gamma"] = np.asarray(k.gamma(pts))
    gam_eta = k._caches["mass_gamma"]
    xi = G.dilate(g, math.sqrt(tau), pts)
    args = G.mul(g, G.inverse(g, xi), np.asarray(x, dtype=float))
    outer = eval_kernel(k, args, t)
    conv = float(np.sum(w * gam_eta * outer))
    direct = float(eval_kernel(k, np.asarray(x, dtype=float), t + tau))
    return abs(conv - direct)


def pde_residual(k: KernelProfile, x, t: float, h: float) -> float:
    """|L_h Gamma - d_t,h Gamma| at (x, t).

    L_h uses centered second differences along the exact horizontal flows,
    x -> x * (h e_i) by the group law; d_t,h is a centered time difference
    with step h^2 (so the residual is second order in h). Requires
    t > 2 h^2.
    """
    if not (t > 2.0 * h * h):
        raise NumericsError(f"pde_residual requires t > 2 h^2, got t={t}, h={h}")
    g = k.group
    q = g.hom_dim
    gam = k.gamma_accurate

    def ev(pt, tt):
        scaled = G.dilate(g, 1.0 / math.sqrt(tt), pt)
        return float(gam(scaled)) * tt ** (-q / 2.0)

    x = np.asarray(x, dtype=float)
    center = ev(x, t)
    spatial = 0.0
    for step in h * np.eye(g.total_dim)[: g.n_horizontal]:
        up = ev(G.mul(g, x, step), t)
        dn = ev(G.mul(g, x, -step), t)
        spatial += (up - 2.0 * center + dn) / (h * h)
    dt = (ev(x, t + h * h) - ev(x, t - h * h)) / (2.0 * h * h)
    return abs(spatial - dt)


# ---------------------------------------------------------------------------
# Gaussian certificate
# ---------------------------------------------------------------------------

def _c0_upper(value: float, d: float) -> float:
    """Smallest c0 >= 1 with c0 exp(-d^2/c0) >= value."""
    def f(c):
        return math.log(c) - d * d / c - math.log(value)
    if f(1.0) >= 0.0:
        return 1.0
    hi = 2.0
    while f(hi) < 0.0:
        hi *= 2.0
        if hi > 1e8:
            raise CertificationError("upper Gaussian bound requires c0 > 1e8")
    return brentq(f, 1.0, hi, xtol=1e-12, rtol=1e-14)


def _c0_lower(value: float, d: float) -> float:
    """Smallest c0 >= 1 with c0^-1 exp(-c0 d^2) <= value."""
    def f(c):
        return -math.log(c) - c * d * d - math.log(value)
    if f(1.0) <= 0.0:
        return 1.0
    hi = 2.0
    while f(hi) > 0.0:
        hi *= 2.0
        if hi > 1e8:
            raise CertificationError("lower Gaussian bound requires c0 > 1e8")
    return brentq(f, 1.0, hi, xtol=1e-12, rtol=1e-14)


def certify_gaussian(k: KernelProfile, grid_spec: dict | None = None) -> GaussianCertificate:
    """Certify the two-sided Gaussian envelope on a geometric (d, t) grid.

    Solves, per grid point, the minimal constant making each bound hold, takes
    the maximum, and applies a 2% margin so refinement keeps the certificate
    valid. ``max_violation`` is re-evaluated at the certified c0.
    """
    g = k.group
    spec = {
        "d_values": [0.0] + np.geomspace(0.05, 8.0, 24).tolist(),
        "t_values": [0.25, 1.0, 4.0],
        "n_directions": 12,
        "margin": 1.02,
    }
    if grid_spec:
        spec.update(grid_spec)
    dirs = G.unit_directions(g, int(spec["n_directions"]))

    def _grid_points(d: float, rt: float) -> np.ndarray:
        if d == 0.0:
            return np.zeros((1, g.total_dim))
        return G.dilate(g, d * rt, dirs)

    need = 1.0
    for t in spec["t_values"]:
        rt = math.sqrt(t)
        for d in spec["d_values"]:
            pts = _grid_points(d, rt)
            vals = np.atleast_1d(eval_kernel(k, pts, t)) * t ** (g.hom_dim / 2.0)
            for v in vals:
                v = float(v)
                if v <= 0.0:
                    raise CertificationError(
                        f"kernel non-positive at scaled distance {d}"
                    )
                need = max(need, _c0_upper(v, d), _c0_lower(v, d))
    c0 = need * float(spec["margin"])
    worst = -math.inf
    for t in spec["t_values"]:
        rt = math.sqrt(t)
        for d in spec["d_values"]:
            pts = _grid_points(d, rt)
            vals = np.atleast_1d(eval_kernel(k, pts, t)) * t ** (g.hom_dim / 2.0)
            up = c0 * math.exp(-d * d / c0)
            lo = math.exp(-c0 * d * d) / c0
            worst = max(worst, float(np.max(vals - up)), float(np.max(lo - vals)))
    cert = GaussianCertificate(
        c0=float(c0),
        grid={kk: vv for kk, vv in spec.items() if kk != "margin"},
        max_violation=float(worst),
        log={"raw_c0": float(need), "margin": float(spec["margin"])},
    )
    k.certificate = cert
    return cert


# ---------------------------------------------------------------------------
# validation battery
# ---------------------------------------------------------------------------

def validate_profile(k: KernelProfile, t_values=(0.25, 1.0, 4.0),
                     tolerances: dict | None = None, seed: int = 1234) -> dict:
    """Run the full validation battery and record the result on the profile.

    Checks: positivity, inversion symmetry, normalization at each t, parabolic
    scaling identity, semigroup property, PDE residual with second-order
    Richardson signature, and the Gaussian envelope certificate.
    """
    tol = {
        "symmetry": 1e-8,
        "normalization": 1e-3,
        "scaling": 1e-13,
        "semigroup": k.quadrature_spec["semigroup_tol"],
        "pde_ratio": (2.5, 6.0),
    }
    if tolerances:
        tol.update(tolerances)
    g = k.group
    rng = np.random.default_rng(seed)
    checks = []

    def record(name, grid, resid, bound, passed):
        checks.append(
            {
                "property": name,
                "grid": grid,
                "max_residual": float(resid),
                "tolerance": bound,
                "pass": bool(passed),
            }
        )

    n_pts = 400
    pts = rng.normal(size=(n_pts, g.total_dim)) * 1.5
    pts[:, -1] *= 2.0 if g.step == 2 else 1.0
    vals = np.asarray(k.gamma(pts))
    record("positivity", f"{n_pts} random points", -float(vals.min()),
           0.0, bool(np.all(vals > 0.0)))

    inv_vals = np.asarray(k.gamma(G.inverse(g, pts)))
    sym = float(np.max(np.abs(vals - inv_vals) / vals))
    record("symmetry", f"{n_pts} random points", sym, tol["symmetry"],
           sym <= tol["symmetry"])

    for t in t_values:
        m = kernel_mass(k, t)
        resid = abs(1.0 - m)
        record(f"normalization t={t}", "mass grid", resid,
               tol["normalization"], resid <= tol["normalization"])

    worst_sc = 0.0
    for _ in range(50):
        x = rng.normal(size=g.total_dim) * 1.2
        r = float(np.exp(rng.uniform(-1.2, 1.2)))
        t = float(np.exp(rng.uniform(-1.0, 1.0)))
        a = float(eval_kernel(k, G.dilate(g, r, x), r * r * t))
        b = r ** (-g.hom_dim) * float(eval_kernel(k, x, t))
        worst_sc = max(worst_sc, abs(a - b) / abs(b))
    record("scaling", "50 random (x, r, t)", worst_sc, tol["scaling"],
           worst_sc <= tol["scaling"])

    x0 = np.zeros(g.total_dim)
    x1 = rng.normal(size=g.total_dim) * 0.4
    sg = max(check_semigroup(k, x0, 1.0, 1.0), check_semigroup(k, x1, 1.0, 0.5))
    record("semigroup", "x in {0, random}, (t,tau) in {(1,1),(1,0.5)}", sg,
           tol["semigroup"], sg <= tol["semigroup"])

    xp = np.full(g.total_dim, 0.3)
    h0 = 2e-2
    r1 = pde_residual(k, xp, 1.0, h0)
    r2 = pde_residual(k, xp, 1.0, h0 / 2.0)
    ratio = r1 / r2 if r2 > 0 else math.inf
    ok = tol["pde_ratio"][0] <= ratio <= tol["pde_ratio"][1]
    record("pde_residual_order", f"x=0.3..., t=1, h={h0} vs {h0/2}", ratio,
           list(tol["pde_ratio"]), ok)

    cert = certify_gaussian(k)
    record("gaussian_certificate", cert.grid, cert.max_violation, 0.0,
           cert.max_violation <= 0.0)

    report = {
        "group": g.label,
        "checks": checks,
        "c0": cert.c0,
        "passed": bool(all(c["pass"] for c in checks)),
    }
    k.validation = report
    return report
