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
is in the call. Each point keeps only the first k panels of its rule on
[0, lambda_max]: with lam = u + i tau, every term is at most its weight times
the envelope (u + tau) / sinh(4u) exp(-|z|^2 u tanh 4u), which decreases in
u, so the dropped panels' terms are at most the panel width times the
envelope's sum over their left edges, and k is the least count whose bound
is at most 2^-60 of the rule's first term, below the full rule's own
rounding (see `_direct_gamma_rho_sigma`). On the maximal sandwich's heat
chains, where |z|^2 reaches the thousands, that keeps 0.13M of 1.82M lambda
nodes. Bulk evaluation goes through a bicubic spline of log gamma in
(|z|, |s|); the direct quadrature backs the PDE-residual and certification
paths and points outside the table. The table's |s|-columns share lambda
rules (one for every |s| <= 24, one per panel count beyond), so each rule's
nodes and exponentials exp(-lam coth(4 lam) |z|^2) are built once and a
column is one matrix-vector product with its own cosine weights. gamma
depends only on (|z|, |s|), so each call evaluates every distinct pair once
and scatters the values back.

The spline is the not-a-knot bicubic interpolant that FITPACK builds for an
s = 0 fit, with the same knots; its coefficients are solved here by banded
elimination and it is evaluated by a vectorized de Boor recursion, so it
needs no SciPy at run time.

The Gaussian certificate's per-point constants are in closed form. At a grid
value v and scaled distance d > 0, w = d^2/c turns c exp(-d^2/c) = v and
w = c d^2 turns exp(-c d^2)/c = v into the same w e^w = d^2/v, so with
Lambert's W = W0(d^2/v) they are c_up = d^2/W and c_low = W/d^2 = 1/c_up
(v and 1/v at d = 0). Each bound holds from its root on.

`profile_for` reads a descriptor's structure, not its label: step 1 takes
the Euclidean profile of its dimension, the Heisenberg descriptor the
Heisenberg profile.

Each profile caches its group's one gamma-weighted eta-grid
(``KernelProfile.eta_grid``) and the compressed rule on its nodes
(``KernelProfile.eta_rule``). The heat extension of a density sums against
them, and `kernel_mass` and `check_semigroup` against the grid: the battery
checks the rule that u uses.

Constants are fixed by this construction and must pass the validation battery
(`validate_profile`): positivity, symmetry, normalization, semigroup property,
parabolic scaling, PDE residual with second-order signature, the spline
against direct quadrature at held-out points (table-backed profiles), and a
two-sided Gaussian envelope certificate.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import CertificationError, GroupError, NumericsError
from . import groups as G
from .quadrature import (_BLOCK_ROWS, compressed_rules, gauss_legendre,
                         leading_panels, point_array, tensor_rule,
                         weighted_sum)

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
    "gaussian_certificate",
    "validate_profile",
]

_TABLE_RHO_MAX = 9.5
_TABLE_SIG_MAX = 32.0
_TABLE_SHAPE = (241, 481)  # (|z|, |s|) nodes of the kernel table
_LAM_MAX = 14.0
_CONTOUR_SIGMA = 24.0
_TAU_SHIFT = 0.98 * math.pi / 8.0
# entries of one (points x nodes) quadrature matrix in the direct branches
_CHUNK_ENTRIES = 1 << 20
# a direct-branch lambda rule drops the panels whose terms are bounded by at
# most this share of its first term: below the full rule's own rounding
_TAIL_SHARE = 2.0 ** -60
# pairs per pass of the spline evaluator, and most axis values whose bases
# a pass holds: its (16 x pairs) temporaries and the de Boor recursion's
# (6 x values) stay at 512 kB, below glibc's mmap threshold after set-up, so
# they reuse heap memory instead of faulting in fresh pages on every call
_SPLINE_CHUNK = 1 << 12
# the distinct (|z|, |s|) pairs of a call are marked in a (#|z| x #|s|)
# table while it has at most this many entries per point (`_distinct_pairs`)
_PAIR_TABLE_SHARE = 4
# largest relative error of the kernel-table spline against direct
# quadrature at held-out cell midpoints (measured: 1.59e-5, near rho = 0,
# |s| = 31.8, where gamma ~ 9e-13)
_SPLINE_VS_DIRECT_TOL = 2e-5


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

    @property
    def validation_state(self) -> str:
        if self.validation is None:
            return "unchecked"
        return "validated" if self.validation.get("passed") else "failed"

    @cached_property
    def eta_grid(self) -> _EtaGrid:
        """The group's gamma-weighted eta-grid (``eta_grid`` on its
        descriptor), built at its first use."""
        g = self.group
        axes = tuple(gauss_legendre(*axis) for axis in g.eta_grid)
        eta, w = tensor_rule(axes)
        # gamma first, in row blocks (its values do not depend on the
        # batch): its temporaries then share memory with eta alone, a block
        # at a time
        gamma_w = np.empty(w.size)
        for start in range(0, w.size, _BLOCK_ROWS):
            rows = slice(start, start + _BLOCK_ROWS)
            gamma_w[rows] = self.gamma(eta[rows]) * w[rows]
        corners = G.box_corners([axis[:2] for axis in g.eta_grid])
        return _EtaGrid(G.inverse(g, eta), gamma_w, G.inverse(g, corners),
                        axes)

    @cached_property
    def eta_rule(self) -> _EtaRule:
        """The compressed eta-rule, built at its first use:
        `quadrature.compressed_rules` of the eta-grid's gamma * w at graded
        degrees _RULE_DEGREES (50 and 22 nodes on H1)."""
        grid = self.eta_grid
        (i6, w6), (i4, w4) = compressed_rules(
            grid.axes, grid.gamma_w, self.group.layer_exponents,
            _RULE_DEGREES)
        return _EtaRule(point_array(col[i6] for col in grid.eta_inv.T), w6,
                        np.searchsorted(i6, i4), w4)


# ---------------------------------------------------------------------------
# Euclidean profile
# ---------------------------------------------------------------------------

def _check_width(x: np.ndarray, n: int) -> None:
    """A GroupError unless the last axis of ``x`` holds n coordinates; only
    the width is checked, so a large point array pays nothing."""
    if x.shape[-1:] != (n,):
        raise GroupError(f"kernel points need {n} coordinates along the "
                         f"last axis, got shape {x.shape}")


def gamma_euclidean(n: int, x) -> np.ndarray | float:
    """Time-1 Euclidean heat profile (4 pi)^(-n/2) exp(-|x|^2/4), at the
    points along the last axis of ``x``, which must hold n coordinates (a
    GroupError otherwise)."""
    c = np.asarray(x, dtype=float)
    _check_width(c, n)
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

def _panel_counts(freq: np.ndarray) -> np.ndarray:
    """Panels on [0, lambda_max] for integrands oscillating at ``freq``.

    The width is min(0.5, 12 / freq), and 0.5 for freq <= 24: 12 radians
    of oscillation per panel.
    """
    width = np.minimum(0.5, 12.0 / np.fmax(freq, 24.0))
    return np.ceil(_LAM_MAX / width).astype(np.int64)


def _row_chunks(n_rows: int, n_nodes: int):
    """Row slices whose (rows x nodes) quadrature matrices stay bounded."""
    step = max(1, _CHUNK_ENTRIES // n_nodes)
    for start in range(0, n_rows, step):
        yield slice(start, start + step)


def _plain_terms(rho2: np.ndarray, sigma: np.ndarray, lam: np.ndarray,
                 wt: np.ndarray) -> np.ndarray:
    """Cosine-transform terms on the real lambda axis: row i holds point i's
    terms at its own nodes ``lam[i]`` and weights ``wt[i]``."""
    four = 4.0 * lam
    base = lam / np.sinh(four)
    cth = lam / np.tanh(four)
    ex = np.exp(-(rho2[:, None] * cth))
    return ex * np.cos(sigma[:, None] * lam) * (base * wt)


def _shifted_terms(rho2: np.ndarray, sigma: np.ndarray, u: np.ndarray,
                   wt: np.ndarray) -> np.ndarray:
    """Contour-shifted terms (lam = u + i tau), row by row as `_plain_terms`.

    The shift extracts the e^(-tau sigma) decay before quadrature; the terms
    leave that factor out.
    """
    lam = u + 1j * _TAU_SHIFT
    four = 4.0 * lam
    base = (lam / np.sinh(four)) * wt
    cth = lam / np.tanh(four)
    envelope = np.exp(-(rho2[:, None] * cth))
    phase = np.exp(1j * (sigma[:, None] * u))
    return (envelope * phase * base).real


def _lambda_envelope(u: np.ndarray, rho2: np.ndarray, tau: float) -> np.ndarray:
    """(u + tau) / sinh(4u) exp(-rho2 u tanh 4u) for u > 0: a bound on the
    integrand's modulus at lam = u + i tau, decreasing in u (see
    `_direct_gamma_rho_sigma`)."""
    four = 4.0 * u
    return (u + tau) / np.sinh(four) * np.exp(-rho2 * u * np.tanh(four))


def _kept_panels(rho2: np.ndarray, n_panels: np.ndarray, tau: float,
                 first: np.ndarray) -> np.ndarray:
    """Per point, the least k >= 1 whose dropped panels k .. n - 1 are
    bounded by at most _TAIL_SHARE * ``first``.

    Panel j's terms are bounded by its width h = lambda_max / n times the
    envelope at its left edge j h, where `_lambda_envelope` is largest.
    Points are taken in order of n, in chunks of at most _CHUNK_ENTRIES
    (point, panel) bounds.
    """
    kept = np.empty(n_panels.size, dtype=np.int64)
    order = np.argsort(n_panels, kind="stable")
    for rows in _row_chunks(order.size, int(n_panels.max())):
        sel = order[rows]
        n = n_panels[sel, None]
        # column c bounds panel c + 1: left edge (c + 1) * (lambda_max / n)
        j = np.arange(1, int(n.max()) + 1)
        dropped = j < n
        env = np.zeros(dropped.shape)
        edges = j * (_LAM_MAX / n)
        env[dropped] = _lambda_envelope(
            edges[dropped], np.broadcast_to(rho2[sel, None], env.shape)[dropped],
            tau)
        tail = np.cumsum(env[:, ::-1], axis=1)[:, ::-1] * (_LAM_MAX / n)
        kept[sel] = 1 + np.argmax(tail <= _TAIL_SHARE * first[sel, None], axis=1)
    return kept


def _cut_rows(terms, rho2: np.ndarray, sigma: np.ndarray,
              n_panels: np.ndarray, k: int) -> np.ndarray:
    """Row sums of ``terms`` on the first k panels of each point's rule
    ``gauss_legendre(0, lambda_max, n)``: one fixed-length C-order sum a row."""
    out = np.empty(sigma.size)
    for rows in _row_chunks(sigma.size, 16 * k):
        lam, wt = leading_panels(_LAM_MAX, n_panels[rows], k)
        out[rows] = terms(rho2[rows], sigma[rows], lam, wt).sum(axis=1)
    return out


def _direct_gamma_rho_sigma(rho: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Direct quadrature of gamma on (|z|, |s|) pairs.

    Each point gets its own lambda rule from its own (rho, sigma). Past
    contour_sigma it takes the contour whose integrand is smaller at lam = 0,
    which is the one that loses fewer digits to cancellation: the shifted one
    while rho^2 is below ~1.6 sigma, the real axis beyond. Panels resolve the
    oscillation in lam: frequency sigma on the real axis, and sigma + 1.5 rho^2
    on the shifted contour, where Im(lam coth 4 lam) turns rho^2 into a phase.
    Far points whose shift factor exp(-tau sigma - rho^2/4) underflows double
    precision are exact zeros.

    Each point keeps only the first k of its rule's n panels, node for node
    the full rule's (`quadrature.leading_panels`). With lam = u + i tau
    (tau = 0 on the real axis), |lam / sinh 4 lam| <= (u + tau) / sinh 4u,
    since |sinh(x + iy)|^2 = sinh^2 x + sin^2 y, and Re(lam coth 4 lam) >=
    u tanh 4u: it is u coth 4u on the real axis, and (u sinh 8u + tau sin
    8 tau) / (cosh 8u - cos 8 tau) on the shifted contour, where sin 8 tau
    > 0. So every term of panel j is at most its weight times the envelope
    (u + tau) / sinh(4u) exp(-rho^2 u tanh 4u) at the panel's left edge, and
    the terms of panels k .. n - 1 at most h times the sum of those edge
    values, h the panel width. k is the least count whose bound is at most
    2^-60 (_TAIL_SHARE) of the rule's first term, so at most 2^-60 of the
    kept terms' absolute sum, where the full rule rounds at about 2^-52. k
    comes from these closed forms and that one term, before the rule is
    built, and points sharing (contour, k) are batched, each row on its own
    nodes. Every row is summed on its own, so a value never depends on what
    else is in the call.
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
    for terms, use, shift in ((_plain_terms, ~zero & ~shifted, 0.0),
                              (_shifted_terms, shifted, tau)):
        idx = np.flatnonzero(use)
        if not idx.size:
            continue
        lam, wt = leading_panels(_LAM_MAX, n_panels[idx], 1)
        first = np.abs(terms(r2[idx], flat_s[idx], lam[:, :1], wt[:, :1])[:, 0])
        kept = _kept_panels(r2[idx], n_panels[idx], shift, first)
        for k in np.unique(kept):
            sel = idx[kept == k]
            sums = _cut_rows(terms, r2[sel], flat_s[sel], n_panels[sel], int(k))
            if shift:
                sums = sums * np.exp(-tau * flat_s[sel])
            out[sel] = sums / math.pi ** 2
    # oscillatory cancellation floor: a strictly positive resolution limit
    low = far & ~zero & (out <= 0.0)
    out[low] = 1e-18 * np.exp(-tau * flat_s[low] - 0.25 * r2[low])
    return out.reshape(rho.shape)


def _ranks(x: np.ndarray):
    """The distinct values of ``x`` (m,), ascending, and the position of
    each entry of ``x`` among them."""
    order = np.argsort(x)
    ordered = x[order]
    new = np.empty(x.size, dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    at = np.empty(x.size, dtype=np.intp)
    at[order] = np.cumsum(new) - 1
    return ordered[new], at


def _distinct_pairs(coords):
    """Distinct (|z|, |s|) pairs of a coordinate array, and the map back.

    Returns (rho, sigma, at_rho, at_sigma, inverse, scalar): the distinct
    |z| and the distinct |s| values, each ascending; for each distinct
    pair, in ascending (|z|, |s|) order, the positions of its |z| in rho
    and of its |s| in sigma; and ``inverse``, so that gamma over the input
    is ``vals[inverse]`` for vals evaluated on the pairs.

    Each axis is sorted on its own, as floats (`_ranks`), and a point's
    code is its two positions, i * #sigma + j. Where every point has its
    own |z|, the points are the pairs, in the order of |z|. Otherwise the
    codes present are marked in a (#rho x #sigma) table while it has at
    most _PAIR_TABLE_SHARE entries per point, and sorted past that.
    """
    c = np.asarray(coords, dtype=float)
    _check_width(c, 3)
    scalar = c.ndim == 1
    c = np.atleast_2d(c)
    rho, i = _ranks(np.hypot(c[..., 0], c[..., 1]).ravel())
    sigma, j = _ranks(np.abs(c[..., 2]).ravel())
    if rho.size == i.size:
        at_rho, inverse = np.arange(i.size), i
        at_sigma = np.empty_like(j)
        at_sigma[i] = j
    else:
        code = i * sigma.size + j
        cells = rho.size * sigma.size
        if cells <= _PAIR_TABLE_SHARE * code.size:
            seen = np.zeros(cells, dtype=bool)
            seen[code] = True
            pairs = np.flatnonzero(seen)
            index = np.empty(cells, dtype=np.intp)
            index[pairs] = np.arange(pairs.size)
            inverse = index[code]
        else:
            pairs, inverse = np.unique(code, return_inverse=True)
        at_rho, at_sigma = np.divmod(pairs, sigma.size)
    return rho, sigma, at_rho, at_sigma, inverse.reshape(c.shape[:-1]), scalar


def _not_a_knot_knots(x: np.ndarray) -> np.ndarray:
    """Knots of the cubic interpolant at x: the ends four-fold, x[2:-2] inside.

    These are the knots FITPACK chooses for an s = 0 fit (not-a-knot).
    """
    return np.concatenate([np.full(4, x[0]), x[2:-2], np.full(4, x[-1])])


# offsets of the knots t[l-2] .. t[l+3] that `_cubic_basis` reads
_NEAR_KNOTS = np.arange(-2, 4)[:, None]


def _cubic_basis(t: np.ndarray, x: np.ndarray):
    """Interval index and the four cubic B-splines that are nonzero at x.

    Returns (l, h) with t[l] <= x < t[l + 1], the right end counted in the
    last interval, and h[i] = B_(l-3+i)(x), by the de Boor-Cox recursion in
    the order of FITPACK's fpbspl.
    """
    l = np.searchsorted(t, x, side="right") - 1
    np.maximum(l, 3, out=l)
    np.minimum(l, t.size - 5, out=l)
    near = t[l + _NEAR_KNOTS]  # t[l-2] .. t[l+3]
    from_left = x - near[:3]
    to_right = near[3:] - x
    h = np.ones((1, x.size))
    for j in range(1, 4):
        # the pairs (t[l+i], t[l+i-j]) for i = 1..j
        right, left = slice(3, 3 + j), slice(3 - j, 3)
        f = h / (near[right] - near[left])
        h = np.zeros((j + 1, x.size))
        np.multiply(f, from_left[left], out=h[1:])
        h[:-1] += f * to_right[:j]
    return l, h


def _collocation_solve(x: np.ndarray, t: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Coefficients c with sum_j B_j(x_i) c_j = rhs_i, for every column of rhs.

    The collocation matrix is totally positive and banded, with at most 4
    nonzeros a row, so Gaussian elimination without pivoting is stable
    (de Boor, A Practical Guide to Splines, 1978). Each step is an
    elementwise array operation in a fixed order, so the coefficients do
    not depend on the BLAS library.
    """
    m = x.size
    l, h = _cubic_basis(t, x)
    a = np.zeros((m, m))
    rows = np.arange(m)
    for i in range(4):
        a[rows, l - 3 + i] = h[i]
    nz_rows, nz_cols = np.nonzero(a)
    lower = int(np.max(nz_rows - nz_cols))
    upper = int(np.max(nz_cols - nz_rows))
    b = np.array(rhs, dtype=float)
    for k in range(m - 1):
        band = slice(k, min(k + upper + 1, m))
        for i in range(k + 1, min(k + lower + 1, m)):
            f = a[i, k] / a[k, k]
            if f != 0.0:
                a[i, band] -= f * a[k, band]
                b[i] -= f * b[k]
    for k in range(m - 1, -1, -1):
        for j in range(k + 1, min(k + upper + 1, m)):
            b[k] -= a[k, j] * b[j]
        b[k] /= a[k, k]
    return b


class _BicubicSpline:
    """Not-a-knot bicubic interpolant of values z on the grid x times y.

    It is the spline FITPACK's ``RectBivariateSpline(x, y, z, s=0)`` builds,
    with the same knots, so values differ from it only by rounding. The
    coefficients are solved along x, then along y.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, z: np.ndarray):
        self.tx = _not_a_knot_knots(x)
        self.ty = _not_a_knot_knots(y)
        c = _collocation_solve(x, self.tx, z)
        self.coeffs = np.ascontiguousarray(_collocation_solve(y, self.ty, c.T).T)
        ny = self.coeffs.shape[1]
        # positions in the flat coefficients of a pair's 4 x 4 block, from
        # that of its intervals' (l_x, l_y): the B-splines l - 3 .. l
        near = np.arange(-3, 1)
        self.offsets = (near[:, None] * ny + near).reshape(16, 1)

    def ev(self, x, y, at_x, at_y) -> np.ndarray:
        """Spline values at the pairs (x[at_x[k]], y[at_y[k]]), ``at_x``
        nondecreasing, every x and y inside the grid.

        A tensor-product spline needs each axis value's basis
        (`_cubic_basis`) once (de Boor, A Practical Guide to Splines,
        1978, ch. XVII). The pairs go _SPLINE_CHUNK a pass, and a pass
        takes the basis of each x in the run of ``x`` that its pairs span.
        The basis of each y is taken once per call while ``y`` has at most
        _SPLINE_CHUNK values, and once per pair past that, so a scattered
        call holds no more bases than one pass's. Each pair gathers its 16
        coefficients and sums its 16 terms in one fixed order, so its
        value does not depend on the other pairs.
        """
        ny = self.coeffs.shape[1]
        flat = self.coeffs.ravel()
        few_y = y.size <= _SPLINE_CHUNK
        if few_y:
            ly, hy = _cubic_basis(self.ty, y)
        out = np.empty(at_x.size)
        for start in range(0, out.size, _SPLINE_CHUNK):
            part = slice(start, start + _SPLINE_CHUNK)
            i, j = at_x[part], at_y[part]
            lx, hx = _cubic_basis(self.tx, x[i[0]:i[-1] + 1])
            i = i - i[0]
            lj, hj = (ly[j], hy[:, j]) if few_y else _cubic_basis(self.ty, y[j])
            c = flat[lx[i] * ny + lj + self.offsets]
            terms = (c.reshape(4, 4, -1) * hx[:, i][:, None]
                     * hj[None, :]).reshape(16, -1)
            total = terms[0]
            for term in terms[1:]:
                total += term
            out[part] = total
        return out


class _HeisenbergGamma:
    """Table-backed evaluation of the Heisenberg time-1 profile.

    gamma depends only on (|z|, |s|): each call evaluates every distinct pair
    once (`_distinct_pairs`) and scatters the values back to the input's
    shape. Inside the table the spline takes the B-spline basis of each
    distinct |z| once, and of each distinct |s| once while a call has at
    most _SPLINE_CHUNK of them (`_BicubicSpline.ev`); beyond the table the
    direct quadrature takes each pair on its own. The table's
    columns are grouped by their lambda rule (`_panel_counts`); a rule's
    (rho, lambda) exponential matrix serves all of its columns, and each
    column is summed by its own matrix-vector product.
    """

    def __init__(self):
        n_rho, n_sig = _TABLE_SHAPE
        self.rho_grid = np.linspace(0.0, _TABLE_RHO_MAX, n_rho)
        self.sig_grid = np.linspace(0.0, _TABLE_SIG_MAX, n_sig)
        table = np.empty(_TABLE_SHAPE)
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
        self.spline = _BicubicSpline(self.rho_grid, self.sig_grid, np.log(table))

    def __call__(self, coords) -> np.ndarray | float:
        rho, sig, at_rho, at_sig, inverse, scalar = _distinct_pairs(coords)
        # the axis values inside the table lead their ascending lists
        n_rho = np.searchsorted(rho, _TABLE_RHO_MAX, side="right")
        n_sig = np.searchsorted(sig, _TABLE_SIG_MAX, side="right")
        inside = (at_rho < n_rho) & (at_sig < n_sig)
        vals = np.empty(at_rho.size)
        if np.any(inside):
            vals[inside] = np.exp(self.spline.ev(
                rho[:n_rho], sig[:n_sig], at_rho[inside], at_sig[inside]))
        if not np.all(inside):
            beyond = ~inside
            vals[beyond] = _direct_gamma_rho_sigma(rho[at_rho[beyond]],
                                                   sig[at_sig[beyond]])
        out = vals[inverse]
        return float(out[0]) if scalar else out


def gamma_heisenberg(coords) -> np.ndarray | float:
    """Heisenberg time-1 profile gamma by direct quadrature, at a point (3,)
    or at the points of a coordinate array (..., 3), each distinct
    (|z|, |s|) pair once: the profile's ``gamma_accurate``."""
    rho, sig, at_rho, at_sig, inverse, scalar = _distinct_pairs(coords)
    out = _direct_gamma_rho_sigma(rho[at_rho], sig[at_sig])[inverse]
    return float(out[0]) if scalar else out


@lru_cache(maxsize=None)
def heisenberg_profile() -> KernelProfile:
    g = G.heisenberg_group()
    machine = _HeisenbergGamma()
    return KernelProfile(
        group=g,
        gamma=machine,
        gamma_accurate=gamma_heisenberg,
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


def profile_for(g: G.GroupDescriptor) -> KernelProfile:
    """Kernel profile for a shipped group, read from its structure: the
    Euclidean profile of its dimension at step 1, the Heisenberg profile
    for the Heisenberg descriptor, a GroupError naming the label
    otherwise."""
    if g.step == 1:
        return euclidean_profile(g.total_dim)
    if g == G.heisenberg_group():
        return heisenberg_profile()
    raise GroupError(f"no kernel profile for group {g.label}")


# ---------------------------------------------------------------------------
# kernel evaluation and checks
# ---------------------------------------------------------------------------

def _least_time(q: int) -> float:
    """The least t > 0 at which the Python float t^(-q/2) is finite."""
    def finite(t):
        try:
            t ** (-q / 2.0)
        except OverflowError:
            return False
        return True

    t = max(sys.float_info.max ** (-2.0 / q), math.ulp(0.0))
    while not finite(t):
        t = math.nextafter(t, math.inf)
    while t > math.ulp(0.0) and finite(math.nextafter(t, 0.0)):
        t = math.nextafter(t, 0.0)
    return t


def _time_power(q: int, t: float) -> float:
    """The kernel's factor t^(-Q/2) as a Python float, for Q = ``q`` and a
    time t > 0. Below `_least_time` it overflows: NumericsError naming t
    and that least time."""
    try:
        return t ** (-q / 2.0)
    except OverflowError:
        raise NumericsError(
            f"kernel time {t!r} is below {_least_time(q)!r}, the least time "
            f"at which t^(-Q/2) is finite for Q = {q}", estimate=t) from None


def eval_kernel(k: KernelProfile, x, t: float) -> np.ndarray | float:
    """Gamma(x, t) = t^(-Q/2) gamma(delta_(1/sqrt t)(x)) at the points
    along the last axis of ``x``, which must hold total_dim coordinates (a
    GroupError otherwise; only the width is checked, so a large node array
    pays nothing); requires t > 0 and t^(-Q/2) finite (see
    `_time_power`)."""
    if not (t > 0) or not math.isfinite(t):
        raise NumericsError(f"kernel time must be positive and finite, got {t}")
    x = np.asarray(x, dtype=float)
    _check_width(x, k.group.total_dim)
    power = _time_power(k.group.hom_dim, t)
    scaled = G.dilate(k.group, 1.0 / math.sqrt(t), x)
    return power * k.gamma(scaled)


@dataclass(frozen=True, eq=False)
class _EtaGrid:
    """A group's gamma-weighted eta-grid, cached on the kernel profile
    (``KernelProfile.eta_grid``).

    Rows are in `quadrature.tensor_rule` order, the last (column) axis
    fastest, which the inside values' column product (``_inside_rows`` of
    the extension module) reproduces axis by axis.
    """

    eta_inv: np.ndarray     # (N, n) inverted nodes
    gamma_w: np.ndarray     # (N,) gamma * quadrature weight
    corner_inv: np.ndarray  # (2^n, n) inverted corners of the eta-box
    axes: tuple             # per axis: (nodes, weights) of its rule


# Graded degrees of the compressed eta-rule and of the nested rule whose
# difference from it is the rule's error estimate
_RULE_DEGREES = (6, 4)


@dataclass(frozen=True)
class _EtaRule:
    """The compressed eta-rule of a kernel profile
    (``KernelProfile.eta_rule``): Q6 on a subset of the eta-grid's nodes,
    and Q4 on a subset of Q6's."""

    eta_inv: np.ndarray     # (q, n) inverted nodes of Q6
    w: np.ndarray           # (q,) Q6 weights
    sub: np.ndarray         # positions in Q6 of Q4's nodes, ascending
    w_sub: np.ndarray       # Q4 weights

    @property
    def rules(self) -> tuple:
        """Q6 and Q4 as the (weights, node positions) pairs of
        `DensityMeasure._image_sums`."""
        return (self.w, slice(None)), (self.w_sub, self.sub)


def kernel_mass(k: KernelProfile, t: float) -> float:
    """Total integral of Gamma(. , t) over the group, on the eta-grid's
    nodes and weights dilated by sqrt(t) (truncated quadrature); t must be
    positive and finite."""
    if not 0 < t < math.inf:
        raise NumericsError(
            f"kernel_mass needs a positive finite time, got t={t!r}")
    pts, w = tensor_rule(k.eta_grid.axes)
    nodes = G.dilate(k.group, math.sqrt(t), pts)
    vals = eval_kernel(k, nodes, t)
    return float(np.sum(w * vals) * t ** (k.group.hom_dim / 2.0))


def check_semigroup(k: KernelProfile, x, t: float, tau: float) -> float:
    """Residual |Gamma(x, t+tau) - Int Gamma(xi^-1 x, t) Gamma(xi, tau) dm(xi)|.

    With xi = delta_sqrt(tau)(eta) the inner factor is the time-1 profile:
    the eta-grid's cached gamma * w, against Gamma(xi^-1 * x, t). Both
    times must be positive and finite, and x a point: total_dim finite
    coordinates.
    """
    for name, value in (("t", t), ("tau", tau)):
        if not 0 < value < math.inf:
            raise NumericsError("semigroup check needs positive finite "
                                f"times, got {name}={value!r}")
    g = k.group
    x = np.asarray(x, dtype=float)
    if x.shape != (g.total_dim,) or not np.all(np.isfinite(x)):
        raise GroupError(f"semigroup check needs {g.total_dim} finite "
                         f"coordinates, got x={x.tolist()}")
    grid = k.eta_grid
    args = G.mul(g, G.dilate(g, math.sqrt(tau), grid.eta_inv), x)
    conv = weighted_sum(grid.gamma_w, eval_kernel(k, args, t))
    direct = float(eval_kernel(k, x, t + tau))
    return abs(conv - direct)


def pde_residual(k: KernelProfile, x, t: float, h: float) -> float:
    """|L_h Gamma - d_t,h Gamma| at (x, t).

    L_h uses centered second differences along the exact horizontal flows,
    x -> x * (h e_i) by the group law; d_t,h is a centered time difference
    with step h^2 (so the residual is second order in h). Requires t and h
    positive and finite, t > 2 h^2, and x a point: total_dim finite
    coordinates.
    """
    for name, value in (("t", t), ("h", h)):
        if not 0 < value < math.inf:
            raise NumericsError("pde_residual needs a positive finite time "
                                f"and step, got {name}={value!r}")
    if not (t > 2.0 * h * h):
        raise NumericsError(f"pde_residual requires t > 2 h^2, got t={t}, h={h}")
    g = k.group
    x = np.asarray(x, dtype=float)
    if x.shape != (g.total_dim,) or not np.all(np.isfinite(x)):
        raise GroupError(f"pde_residual needs {g.total_dim} finite "
                         f"coordinates, got x={x.tolist()}")
    q = g.hom_dim
    gam = k.gamma_accurate

    def ev(pt, tt):
        # the power first: where it is finite, so is every (1/sqrt t)^e
        power = _time_power(q, tt)
        scaled = G.dilate(g, 1.0 / math.sqrt(tt), pt)
        return float(gam(scaled)) * power

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

_C0_MARGIN = 1.02  # headroom so refinement keeps the certificate valid


def _lambert_w0(z: np.ndarray) -> np.ndarray:
    """W0(z), the root w >= 0 of w e^w = z >= 0: Halley's iteration (Corless
    et al., Adv. Comput. Math. 5, 1996) divided through by e^w, so nothing
    overflows, from log1p(z) for z <= e and log z - log log z above. Three
    of its six steps reach rounding on 1e-12 <= z <= 1e300."""
    big = np.log(np.fmax(z, math.e))
    w = np.where(z <= math.e, np.log1p(z), big - np.log(big))
    for _ in range(6):
        f = w - z * np.exp(-w)
        w = w - f / (w + 1.0 - 0.5 * (w + 2.0) * f / (w + 1.0))
    return w


def _grid_values(k: KernelProfile) -> tuple[dict, np.ndarray, np.ndarray]:
    """The certificate's grid, and at each point x the scaled distance
    d = N(x) / sqrt(t) and v = t^(Q/2) Gamma(x, t), one call per (t, d)."""
    g = k.group
    grid = {"d_values": [0.0] + np.geomspace(0.05, 8.0, 24).tolist(),
            "t_values": [0.25, 1.0, 4.0], "n_directions": 12}
    dirs = G.unit_directions(g, grid["n_directions"])
    dist, vals = [], []
    for t, d in itertools.product(grid["t_values"], grid["d_values"]):
        pts = (G.dilate(g, d * math.sqrt(t), dirs) if d > 0.0
               else np.zeros((1, g.total_dim)))
        vals.append(np.atleast_1d(eval_kernel(k, pts, t)) * t ** (g.hom_dim / 2.0))
        dist.append(np.full(vals[-1].size, d))
    return grid, np.concatenate(dist), np.concatenate(vals)


def _envelope_ratio(d: np.ndarray, v: np.ndarray) -> np.ndarray:
    """r = d^2 / W0(d^2 / v), and v at d = 0: the smallest c >= 1 with
    c exp(-d^2 / c) >= v is max(1, r), and with exp(-c d^2) / c <= v it is
    max(1, 1 / r) (see the module docstring)."""
    r = v.copy()
    far = d > 0.0
    r[far] = d[far] ** 2 / _lambert_w0(d[far] ** 2 / v[far])
    return r


def certify_gaussian(k: KernelProfile) -> GaussianCertificate:
    """Certify the two-sided Gaussian envelope on a geometric (d, t) grid.

    c0 is the largest per-point constant, max(1, r, 1 / r) over the grid
    with r from `_envelope_ratio`, times the margin. ``max_violation`` is
    re-evaluated at c0 on the same kernel values: the grid is evaluated once.
    """
    grid, d, v = _grid_values(k)
    bad = ~(np.isfinite(v) & (v > 0.0))
    if np.any(bad):
        raise CertificationError(f"kernel value {v[bad][0]} at scaled distance "
                                 f"{d[bad][0]} is not finite and positive")
    r = _envelope_ratio(d, v)
    need = float(np.max(np.concatenate([[1.0], r, 1.0 / r])))
    if not need <= 1e8:
        raise CertificationError(f"Gaussian envelope requires c0 = {need:.3g} > 1e8")
    c0 = need * _C0_MARGIN
    worst = max(float(np.max(v - c0 * np.exp(-d * d / c0))),
                float(np.max(np.exp(-c0 * d * d) / c0 - v)))
    k.certificate = GaussianCertificate(
        c0=c0, grid=grid, max_violation=worst,
        log={"raw_c0": need, "margin": _C0_MARGIN})
    return k.certificate


def gaussian_certificate(k: KernelProfile) -> GaussianCertificate:
    """The profile's Gaussian certificate, certified on first use."""
    return k.certificate or certify_gaussian(k)


# ---------------------------------------------------------------------------
# validation battery
# ---------------------------------------------------------------------------

def _spline_vs_direct(k: KernelProfile) -> tuple[float, int] | None:
    """Largest relative error of a table-backed gamma against direct
    quadrature, and the number of held-out points.

    The held-out points are the midpoints of every 4th table cell on each
    axis, where the spline is farthest from its nodes. None for a profile
    without a kernel table.
    """
    machine = k.gamma
    if not isinstance(machine, _HeisenbergGamma):
        return None
    rho = 0.5 * (machine.rho_grid[:-1:4] + machine.rho_grid[1::4])
    sig = 0.5 * (machine.sig_grid[:-1:4] + machine.sig_grid[1::4])
    r, s = np.meshgrid(rho, sig, indexing="ij")
    pts = np.stack([r.ravel(), np.zeros(r.size), s.ravel()], axis=1)
    direct = np.asarray(k.gamma_accurate(pts))
    err = np.abs(np.asarray(machine(pts)) - direct) / direct
    return float(np.max(err)), len(pts)


def validate_profile(k: KernelProfile, seed: int = 1234) -> dict:
    """Run the full validation battery and record the result on the profile.

    Checks: positivity, inversion symmetry, normalization at each t, parabolic
    scaling identity, semigroup property, PDE residual with second-order
    Richardson signature, for a table-backed profile the spline against
    direct quadrature at held-out points, and the Gaussian envelope
    certificate. ``seed`` draws the held-out points: any seed of
    ``numpy.random.default_rng``, a NumericsError for another value.
    """
    try:
        rng = np.random.default_rng(seed)
    except (TypeError, ValueError):
        raise NumericsError("the battery's seed must be a numpy seed: a "
                            "nonnegative integer or a sequence of them, "
                            f"got seed={seed!r}") from None
    tol = {
        "symmetry": 1e-8,
        "normalization": 1e-3,
        "scaling": 1e-13,
        "semigroup": k.quadrature_spec["semigroup_tol"],
        "pde_ratio": (2.5, 6.0),
        "spline_vs_direct": _SPLINE_VS_DIRECT_TOL,
    }
    g = k.group
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

    for t in (0.25, 1.0, 4.0):
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

    held_out = _spline_vs_direct(k)
    if held_out is not None:
        err, n_held = held_out
        record("spline_vs_direct", f"{n_held} midpoints of every 4th table cell",
               err, tol["spline_vs_direct"], err <= tol["spline_vs_direct"])

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
