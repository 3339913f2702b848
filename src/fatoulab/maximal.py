"""Maximal operators and the sandwich between them.

Three maximal functions of a measure nu at a point x:

* Hardy-Littlewood: sup over r of nu(B(x, r)) / m(B(x, r));
* radial: sup over s of (nu * phi_s)(x) for a decreasing radial profile phi,
  with phi_s(y) = s^(-Q) phi(rho(y) / s);
* nontangential: sup of (nu * phi_s)(x') over the cone d(x, x') < alpha * s.

For decreasing phi these are equivalent up to explicit constants:

    c_phi * M_HL <= M_rad <= M_nt <= c_(alpha,phi) * M_HL,

with c_phi = phi(1) * m(B(0,1)) from the trivial minorization on the unit
ball, and c_(alpha,phi) from a dyadic-shell majorization whose shells are
inflated by the quasi-triangle constant. All sups here are over shared
finite grids, so the two lower inequalities hold grid-pointwise (exactly
for atomic measures; densities carry a small quadrature allowance), while
the upper one is checked with a disclosed slack covering the gap between a
grid sup and the true sup. The slacks, the divergence flag and the argmax
tie rule are ``decisions``'s; each check picks its slacks from the measure
kind and reports them.

All convolutions go through one function over rows (point, scale): the
radial maximum's scales, every cone placement of the nontangential maximum
at every scale, and a single `mollifier_convolution`, which is one row, so
a maximal value equals the single convolution bit for bit. One pass,
`_cone_maxima`, gives the radial maximum at a point and the nontangential
maximum of each of its apertures: the radial rows, then every aperture's
cone rows at once. `nontangential_max` is its one-aperture case, and
`check_sandwich` reads both sides of its chain from it. Atoms and a
density's section rules are fixed weighted nodes (y_i, w_i), and every sum
over such nodes is one function, `_node_sums`: sum_i w_i phi(d(x, y_i) /
s), each caller with its own factor s^(-Q). A density row whose mollifier
support B(x, phi.support_radius * s) holds the support box (the density's
one cover test, ``DensityMeasure._covered``, which its ball masses read
too) uses the density's section rule in the original variable
(Gauss-Legendre panels whose edges sit on the support faces, see
``DensityMeasure._convolution_rule``) on the whole box, cached with its
density values, at every scale: the box may cover only a few nodes of a
grid spread over the profile's support. Other rows switch quadrature by
scale: for small s the mollifier is sharp, so a fixed phi-weighted polar
grid in the scaled variable is used; above s = 1 the section rule on the
part of the box in that ball resolves phi_s directly. Scale and radius
grids must be finite, positive and strictly increasing.

Each density row is classified once, and no quadrature is spent on a value
that is already known. One ``hull_state`` call takes the images of the
phi-grid's bounding-box corners for every grid row: "inside" rows take
``density_inside`` without the box and clip tests (a density that declares
a constant, one sum for all of them), "cut" rows ``density_at``, and
"outside" rows are 0.0 with nothing evaluated. Both are
``DensityMeasure._image_sums``, the node-rule sum that the polar ball
masses take too. Ball masses of the Hardy-Littlewood radii come from one
``measures.ball_masses`` call, and the heat maximum's scales from one
``HeatExtension._eval`` call with x at each scale's time, whose atomic
parts take one kernel evaluation over every (scale, atom) pair. Every
value keeps the bits of its one-row, one-ball or one-time call.

The cone placements x * delta_(beta alpha s)(omega) of the nontangential
maximum are `groups.images` of the directions, one factor table per
aperture and beta.
The radial, nontangential and heat maxima report one grid sup record
(`_grid_sup`); the Hardy-Littlewood maximum keeps its own keys.

A cone row of the nontangential maximum is not evaluated where it cannot
be the max. On the whole-box rule its value is at most s^(-Q) sum_k
phi(gap_k / s) times the positive weight of cell k of the rule's nodes,
gap_k a lower bound on the distance from the placement to the bounding
box of the cell's nodes (`_row_bounds`); `_cone_maxima` takes the radial
values first, as the floor the bounds are compared with. The cells split
each panel of the rule in two on every axis (4 x 4 x 8 on the Heisenberg
group) and are cached on the part (`DensityMeasure._rule_cells`). Every
row is bounded first with all cells as one, then the rows that bound
keeps on the cells; a row whose bound is below the radial value at its
scale enters the max as -inf, so the max keeps its bits. The bound reads phi as nonincreasing,
the profile's contract, which `RadialProfile` checks on a dense grid.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import CertificationError, MeasureError, NumericsError
from . import groups as G
from . import kernels as K
from .decisions import (decade_flag, heat_chain_slack, holds_with_slack,
                        sandwich_slacks, tied_argmax)
from .extension import HeatExtension
from .quadrature import _BLOCK_ROWS, ball_rule, row_sums
from .measures import (
    AtomicMeasure,
    BoundaryMeasure,
    DensityMeasure,
    _point,
    ball_masses,
)

__all__ = [
    "RadialProfile",
    "geometric_grid",
    "default_profile",
    "hardy_littlewood",
    "mollifier_convolution",
    "radial_max",
    "nontangential_max",
    "sandwich_constants",
    "check_sandwich",
    "heat_max",
    "check_heat_chain",
]

_SCALE_SWITCH = 1.0  # density conv: scaled grid below, section rule above

# Relative margin of a pruned cone row's distance bound and value bound
# (`_row_bounds`): a weighted sum of 27,648 terms rounds by less than 3e-12.
_PRUNE_MARGIN = 1e-9

# default cone placements of nontangential_max: beta values and directions
_BETAS = (0.0, 0.6, 0.9)
_N_DIRECTIONS = 4


@dataclass(eq=False)
class RadialProfile:
    """Decreasing radial mollifier profile r -> phi(r), r >= 0.

    Validated at construction: finite, nonnegative, phi(0) > 0, and
    nonincreasing on a dense check grid. ``support_radius`` is where phi
    drops below 1e-14 of its peak (capped at 50).
    """

    fn: object
    label: str

    def __post_init__(self):
        r = np.concatenate([[0.0], np.geomspace(1e-3, 50.0, 600)])
        v = np.asarray(self.fn(r), dtype=float)
        if not np.all(np.isfinite(v)) or np.any(v < 0):
            raise MeasureError(f"profile {self.label!r} must be finite and >= 0")
        if not v[0] > 0:
            raise MeasureError(f"profile {self.label!r} must have phi(0) > 0")
        if np.any(np.diff(v) > 1e-12 * v[0]):
            raise MeasureError(f"profile {self.label!r} must be nonincreasing")
        below = np.nonzero(v <= 1e-14 * v[0])[0]
        self.support_radius = float(r[below[0]]) if below.size else 50.0
        self._grids = {}  # phi-weighted convolution grids, one per group

    def __call__(self, r):
        return np.asarray(self.fn(np.asarray(r, dtype=float)), dtype=float)


def default_profile() -> RadialProfile:
    return RadialProfile(lambda r: np.exp(-np.asarray(r) ** 2), "gauss-unit")


def geometric_grid(r_min: float = 1e-3, r_max: float = 1e3,
                   per_decade: int = 40) -> np.ndarray:
    """Geometric scale grid with a fixed density of points per decade,
    from r_min to r_max, 0 < r_min <= r_max < inf, per_decade a positive
    integer."""
    if not 0 < r_min <= r_max < math.inf:
        raise MeasureError("a geometric grid needs 0 < r_min <= r_max < inf, "
                           f"got r_min={r_min!r}, r_max={r_max!r}")
    if not (isinstance(per_decade, numbers.Integral) and per_decade >= 1):
        raise MeasureError("a geometric grid needs a positive integer "
                           f"per_decade, got per_decade={per_decade!r}")
    decades = math.log10(r_max / r_min)
    n = int(round(decades * per_decade)) + 1
    return np.geomspace(r_min, r_max, n)


def _grid_sup(s: np.ndarray, vals: np.ndarray) -> dict:
    """The grid sup of ``vals`` over the scales ``s``: its value, its
    scale (the `decisions.tied_argmax` tie rule), the grid, the values and
    the `decisions.decade_flag` divergence flag."""
    return {
        "value": float(vals.max()),
        "argmax_s": float(s[tied_argmax(vals)]),
        "scales": s,
        "values": vals,
        "divergent": decade_flag(s, vals),
    }


def _scale_grid(grid, r_max: float = 1e3) -> np.ndarray:
    """A scale or radius grid: ``grid``, or the geometric grid on
    [1e-3, r_max] when None.

    It must be a non-empty 1-d array of finite, positive and strictly
    increasing values: the divergence flag reads its first entry as the
    smallest scale.
    """
    s = np.asarray(geometric_grid(1e-3, r_max) if grid is None else grid,
                   dtype=float)
    if (s.ndim != 1 or s.size == 0 or not np.all(np.isfinite(s))
            or not s[0] > 0 or np.any(np.diff(s) <= 0)):
        raise MeasureError("a scale grid must be a non-empty 1-d array of "
                           "finite, positive, strictly increasing values, "
                           f"got {np.array2string(s, threshold=8)}")
    return s


# ---------------------------------------------------------------------------
# Hardy-Littlewood
# ---------------------------------------------------------------------------

def hardy_littlewood(mu: BoundaryMeasure, x, radii=None) -> dict:
    """Grid sup of ball-mass quotients; flags divergence at small radii.

    The masses are ``measure_ball``'s, bit for bit; an atomic part takes
    its distances to x once for all radii (see ``ball_masses``).
    """
    g = mu.group
    x = _point(g, x, "query point")
    r = _scale_grid(radii)
    masses = ball_masses(mu, x, r)
    quot = masses / np.array([G.ball_volume(g, float(rr)) for rr in r])
    return {
        "value": float(quot.max()),
        "argmax_r": float(r[tied_argmax(quot)]),
        "radii": r,
        "quotients": quot,
        "divergent": decade_flag(r, quot),
    }


# ---------------------------------------------------------------------------
# mollifier convolutions
# ---------------------------------------------------------------------------

def _phi_grid(g: G.GroupDescriptor, phi: RadialProfile):
    """phi-weighted polar grid in the scaled variable: (eta_inverse,
    weights, corners).

    `quadrature.ball_rule` with radial weight phi, up to its support
    radius. ``corners`` are the 2^n corners of the nodes' bounding box:
    eta -> x * delta_s(eta) is affine, so their images span the images of
    every node. Cached on the profile, so two profiles never share a grid.
    """
    if g in phi._grids:
        return phi._grids[g]
    eta, w = ball_rule(g.sphere, (16, *g.sphere.coarse), g.layer_exponents,
                       g.hom_dim, r_max=min(phi.support_radius, 50.0),
                       n_panels=4, radial_weight=phi)
    eta_inv = G.inverse(g, eta)
    corners = G.box_corners(np.stack([eta_inv.min(axis=0),
                                      eta_inv.max(axis=0)], axis=1))
    phi._grids[g] = out = (eta_inv, w, corners)
    return out


def _grid_rows(part: DensityMeasure, phi: RadialProfile, pts: np.ndarray,
               s: np.ndarray) -> np.ndarray:
    """(nu * phi_s)(x) of a density on the phi-weighted grid, for rows
    (x, s) of ``pts`` and ``s``.

    One `hull_state` call classifies the images x * delta_s(corners) of
    every row's grid box: "inside" and "cut" rows are
    `DensityMeasure._image_sums` of the grid, inside ones without the box
    and clip tests, and "outside" rows are 0.0 with nothing evaluated.
    """
    g = part.group
    eta_inv, w, corners = _phi_grid(g, phi)
    state = part.hull_state(G.images(g, pts, s, corners))
    out = np.zeros(s.size)
    for name in ("inside", "cut"):
        rows = state == name
        if np.any(rows):
            out[rows] = part._image_sums(pts[rows], s[rows], eta_inv,
                                         ((w, slice(None)),),
                                         name == "inside")[:, 0]
    return out


def _node_sums(g: G.GroupDescriptor, nodes: np.ndarray, w: np.ndarray,
               phi: RadialProfile, pts: np.ndarray,
               s: np.ndarray) -> np.ndarray:
    """sum_i w_i phi(d(x, y_i) / s) over fixed weighted nodes (y_i, w_i),
    for each row (x, s) of ``pts`` (m, n) and ``s`` (m,): the one sum of
    atoms and of a density's section rules, without the factor s^(-Q).

    Rows share blocks of at most _BLOCK_ROWS (row, node) pairs, one row at
    least; a block whose rows sit at one point takes its node distances
    once, and so does a run of one-row blocks at one point. Each row's sum
    is its own `quadrature.row_sums`, so a row's value does not depend on
    the other rows.
    """
    out = np.empty(s.size)
    per = max(1, _BLOCK_ROWS // max(1, w.size))
    x = None
    for start in range(0, s.size, per):
        block = slice(start, start + per)
        p = pts[block]
        if not np.all(p == p[0]):
            x, rho = None, np.asarray(G.dist(g, nodes[None], p[:, None]))
        elif x is None or not np.array_equal(p[0], x):
            x, rho = p[0], np.asarray(G.dist(g, nodes, p[0]))
        out[block] = row_sums(w, phi(rho / s[block, None]))
    return out


def _box_gap(g: G.GroupDescriptor, boxes: np.ndarray,
             pts: np.ndarray) -> np.ndarray:
    """A lower bound on d(x, y) over y in each box of ``boxes`` (..., n, 2),
    for each row x of ``pts`` (m, n): (m, ...), the gauge of the point
    nearest 0 in the bounding box of x^-1 * (box corners).

    Left translation is affine, so that bounding box holds x^-1 * box, and
    the gauge does not decrease as any coordinate grows in magnitude (on
    R^n and for the Koranyi gauge), so no point of it is nearer 0.
    """
    corners = G.box_corners(boxes)
    inv = G.inverse(g, pts).reshape(pts.shape[0], *[1] * (corners.ndim - 1),
                                    pts.shape[1])
    moved = G.mul(g, inv, corners)
    nearest = np.clip(0.0, moved.min(axis=-2), moved.max(axis=-2))
    return np.asarray(G.norm(g, nearest))


def _row_bounds(mu, phi: RadialProfile, pts: np.ndarray, s: np.ndarray,
                cells: bool = False) -> np.ndarray:
    """Upper bounds on `_conv_rows` (x, s) of rows on the whole-box rule;
    inf on any other row.

    A row bounded here has every part a density whose ball holds its
    support box (`DensityMeasure._covered`), so each part's value is
    s^(-Q) sum_i wf_i phi(d(x, y_i) / s) over the cached whole-box rule
    (y_i, wf_i). Its nodes fall in cells k (`DensityMeasure._rule_cells`,
    all of them one cell unless ``cells``), phi is nonincreasing and
    d(x, y_i) >= gap_k for the nodes of cell k (`_box_gap` of their
    bounding box), so each part is at most
    s^(-Q) sum_k phi(gap_k / s) sum_(i in k) max(wf_i, 0); a part without
    positive weight adds 0. Each gap is shrunk and the bound grown by
    _PRUNE_MARGIN, far above the rounding of either side. Rows share
    blocks of at most _BLOCK_ROWS (row, cell corner) pairs.
    """
    parts = mu.parts()
    if not all(isinstance(p, DensityMeasure) for p in parts):
        return np.full(s.size, np.inf)
    g = mu.group
    bound = np.zeros(s.size)
    for part in parts:
        covers = part._covered(pts, phi.support_radius * s)
        if not np.any(covers):
            return np.full(s.size, np.inf)
        bound[~covers] = np.inf
        boxes, weight = part._rule_cells
        if not weight.size:
            continue
        if not cells:
            boxes = np.stack([boxes[..., 0].min(axis=0),
                              boxes[..., 1].max(axis=0)], axis=-1)[None]
            weight = weight.sum(keepdims=True)
        rows = np.flatnonzero(covers)
        per = max(1, _BLOCK_ROWS // (weight.size << g.total_dim))
        for start in range(0, rows.size, per):
            block = rows[start:start + per]
            ss = s[block, None]
            gap = _box_gap(g, boxes, pts[block]) * (1.0 - _PRUNE_MARGIN)
            bound[block] += (ss[:, 0] ** (-g.hom_dim)
                             * (phi(gap / ss) * weight).sum(axis=1))
    return bound * (1.0 + _PRUNE_MARGIN)


def _conv_rows(mu, phi: RadialProfile, pts: np.ndarray,
               s: np.ndarray) -> np.ndarray:
    """(nu * phi_s)(x) for each row (x, s) of ``pts`` (m, n) and ``s`` (m,).

    Atomic parts are `_node_sums` over the atoms, times the numpy factor
    s^(-Q). A density row whose ball B(x, R), R = phi.support_radius * s,
    holds the support box (`DensityMeasure._covered`; phi_s is below
    1e-14 of its peak past R) is `_node_sums` over the section rule of
    ``DensityMeasure._convolution_rule`` on the whole support box, at any
    scale, times the Python-float factor s^(-Q). Other rows take, below
    ``_SCALE_SWITCH``, the phi-weighted grid in the scaled variable
    (`_grid_rows`), and above it the section rule on the support box's
    part in the ball, one rule per row, so a sharp profile keeps its nodes
    where phi_s lives.
    """
    g = mu.group
    total = np.zeros(s.size)
    for part in mu.parts():
        if isinstance(part, AtomicMeasure):
            if part.points.shape[0]:
                total += s ** (-g.hom_dim) * _node_sums(
                    g, part.points, part.weights, phi, pts, s)
            continue
        vals = np.empty(s.size)
        reach = phi.support_radius * s
        covers = part._covered(pts, reach)
        if np.any(covers):
            vals[covers] = np.array(
                [float(ss) ** (-g.hom_dim) for ss in s[covers]]) * _node_sums(
                g, *part._convolution_rule(), phi, pts[covers], s[covers])
        grid = (s <= _SCALE_SWITCH) & ~covers
        if np.any(grid):
            vals[grid] = _grid_rows(part, phi, pts[grid], s[grid])
        for i in np.flatnonzero((s > _SCALE_SWITCH) & ~covers):
            rule = part._convolution_rule(G.Ball(pts[i], float(reach[i])))
            vals[i] = float(s[i]) ** (-g.hom_dim) * _node_sums(
                g, *rule, phi, pts[i:i + 1], s[i:i + 1])[0]
        total += vals
    return total


def mollifier_convolution(mu: BoundaryMeasure, phi: RadialProfile, x,
                          s: float) -> float:
    """(nu * phi_s)(x) with phi_s(y) = s^(-Q) phi(rho(y)/s)."""
    if not (s > 0) or not math.isfinite(s):
        raise MeasureError(f"scale must be positive and finite, got {s}")
    x = _point(mu.group, x, "convolution point")
    return float(_conv_rows(mu, phi, x[None, :], np.array([float(s)]))[0])


def radial_max(mu: BoundaryMeasure, phi: RadialProfile, x,
               s_grid=None) -> dict:
    """Grid sup over scales of (nu * phi_s)(x)."""
    x = _point(mu.group, x, "query point")
    s = _scale_grid(s_grid)
    vals = _conv_rows(mu, phi, np.broadcast_to(x, (s.size, x.size)), s)
    return _grid_sup(s, vals)


def nontangential_max(mu: BoundaryMeasure, phi: RadialProfile, x,
                      alpha: float, s_grid=None, betas=_BETAS,
                      n_directions: int = _N_DIRECTIONS) -> dict:
    """Grid sup of (nu * phi_s)(x') over the cone d(x, x') < alpha * s.

    Samples x' = x * delta_(beta * alpha * s)(omega) for beta in [0, 1) and
    ``n_directions`` >= 1 unit directions; beta = 0 is x itself and
    reproduces the radial value, so the nontangential grid sup dominates
    the radial one by construction. The one-aperture case of
    `_cone_maxima`.
    """
    x = _point(mu.group, x, "query point")
    return _cone_maxima(mu, phi, x, [alpha], _scale_grid(s_grid), betas,
                        n_directions)[1][0]


def _cone_maxima(mu: BoundaryMeasure, phi: RadialProfile, x: np.ndarray,
                 alphas, s: np.ndarray, betas, n_directions) -> tuple:
    """The radial record at the point x over the scales ``s`` and each
    aperture's nontangential record, in one pass: (radial, [record per
    alpha of ``alphas``]).

    The radial values are one `_conv_rows` call; they are the beta = 0 row
    of every aperture and the floor of each scale's max. The cone rows of
    every aperture are placed at once; a cone row whose `_row_bounds`
    bound, on the whole box or on its cells, is below its scale's floor
    cannot be the max and is not evaluated: it enters the max as -inf. The
    rows that are left are one more `_conv_rows` call. Rows of
    `_conv_rows` do not depend on each other, so every value has the bits
    of the max over all rows.
    """
    g = mu.group
    alphas = list(alphas)
    for alpha in alphas:
        if not (alpha > 0) or not math.isfinite(alpha):
            raise MeasureError(
                f"aperture must be positive and finite, got {alpha}")
    betas = [float(b) for b in betas]
    if not all(0.0 <= b < 1.0 for b in betas):
        raise MeasureError(f"cone placements need beta in [0, 1), got {betas}")
    betas = [b for b in betas if b > 0]
    if not (isinstance(n_directions, numbers.Integral) and n_directions >= 1):
        raise MeasureError(
            f"n_directions must be an integer >= 1, got {n_directions!r}")
    radial = _conv_rows(mu, phi, np.broadcast_to(x, (s.size, x.size)), s)
    dirs = G.unit_directions(g, n_directions)
    # x * delta_(beta alpha s)(omega), one factor table per (alpha, beta),
    # rows direction by direction
    pts = np.array([G.images(g, x, beta * alpha * s, dirs).swapaxes(0, 1)
                    for alpha in alphas for beta in betas]).reshape(-1, x.size)
    n_place = len(betas) * n_directions
    floor = np.tile(radial, len(alphas) * n_place)
    ss = np.tile(s, len(alphas) * n_place)
    # the whole-box bound, then cells of its rule on the rows it keeps
    bound = _row_bounds(mu, phi, pts, ss)
    keep = ~(bound < floor)
    again = keep & np.isfinite(bound)
    keep[again] = ~(_row_bounds(mu, phi, pts[again], ss[again], cells=True)
                    < floor[again])
    vals = np.full(ss.size, -np.inf)
    vals[keep] = _conv_rows(mu, phi, pts[keep], ss[keep])
    return _grid_sup(s, radial), [
        dict(_grid_sup(s, np.max([radial, *cone], axis=0)), alpha=alpha)
        for alpha, cone in zip(alphas,
                               vals.reshape(len(alphas), n_place, s.size))]


# ---------------------------------------------------------------------------
# sandwich constants and chain checks
# ---------------------------------------------------------------------------

def sandwich_constants(g: G.GroupDescriptor, phi: RadialProfile,
                       alpha: float) -> dict:
    """Explicit constants for the maximal sandwich.

    Lower: phi_s >= phi(1) s^(-Q) on B(x, s) gives c_phi = phi(1) m(B(0,1)).
    Upper: dyadic shells around the cone point, inflated into balls around
    the cone vertex by the quasi-triangle constant, give

        c_(alpha,phi) = m(B(0,1)) (C_L alpha)^Q
                        [2^Q phi(0) + sum_(j>=1) phi(2^(j-1) alpha) 2^((j+1) Q)].

    The series must converge (phi decaying faster than 2^(-j Q)); truncation
    stops when a term falls below 1e-15 of the partial sum. The aperture
    alpha must be positive and finite.
    """
    if not 0 < alpha < math.inf:
        raise MeasureError(
            f"aperture must be positive and finite, got alpha={alpha!r}")
    c_phi = float(phi(1.0)) * g.unit_ball_volume
    q = g.hom_dim
    total = 2.0 ** q * float(phi(0.0))
    prev = math.inf
    for j in range(1, 10001):
        if (j + 1) * q > 1000:  # shell weight would overflow a double
            raise CertificationError(
                f"shell series for profile {phi.label!r} did not converge"
            )
        term = float(phi(2.0 ** (j - 1) * alpha)) * 2.0 ** ((j + 1) * q)
        total += term
        if term < 1e-15 * total:
            break
        if j >= 8 and term >= prev:
            raise CertificationError(
                f"shell series for profile {phi.label!r} did not converge "
                f"(terms stopped decreasing at shell {j})"
            )
        prev = term
    else:
        raise CertificationError(
            f"shell series for profile {phi.label!r} did not converge"
        )
    c_alpha = g.unit_ball_volume * (g.quasi_triangle_const * alpha) ** q * total
    return {"c_phi": c_phi, "c_alpha_phi": c_alpha, "n_terms": j}


def _is_atomic(mu: BoundaryMeasure) -> bool:
    return all(isinstance(p, AtomicMeasure) for p in mu.parts())


def check_sandwich(mu: BoundaryMeasure, x, phi: RadialProfile | None = None,
                   alphas=(0.5, 1.0, 2.0), s_grid=None) -> dict:
    """Verify the maximal sandwich at a point over shared scale grids.

    The two lower inequalities hold grid-pointwise; their slack
    ``slack_lower`` absorbs only floating-point and quadrature error, and
    is larger for densities, whose two convolution quadratures differ.
    ``slack_upper`` covers the gap between the grid sup and the true sup on
    the Hardy-Littlewood side. Both are `decisions.sandwich_slacks` of the
    measure kind. The radial maximum and every aperture's nontangential
    maximum are one `_cone_maxima` pass.
    """
    g = mu.group
    x = _point(g, x, "query point")
    phi = phi or default_profile()
    s = _scale_grid(s_grid)
    slack_upper, slack_lower = sandwich_slacks(_is_atomic(mu))
    hl = hardy_littlewood(mu, x, radii=s)
    rad, nts = _cone_maxima(mu, phi, x, alphas, s, _BETAS, _N_DIRECTIONS)
    report = {
        "x": x.tolist(),
        "group": g.label,
        "profile": phi.label,
        "hardy_littlewood": hl,
        "radial": rad,
        "alphas": {},
        "slack_upper": slack_upper,
        "slack_lower": slack_lower,
    }
    all_div = hl["divergent"] and rad["divergent"]
    chain_ok = True
    c_phi = sandwich_constants(g, phi, 1.0)["c_phi"]
    if not all_div:
        chain_ok &= holds_with_slack(c_phi * hl["value"], rad["value"],
                                     slack_lower)
    for nt in nts:
        alpha = nt["alpha"]
        consts = sandwich_constants(g, phi, alpha)
        if all_div and nt["divergent"]:
            ok_low, ok_up = True, True
        else:
            ok_low = holds_with_slack(rad["value"], nt["value"], slack_lower)
            ok_up = holds_with_slack(
                nt["value"], consts["c_alpha_phi"] * hl["value"], slack_upper)
        chain_ok &= ok_low and ok_up
        report["alphas"][alpha] = {
            "nontangential": nt,
            "c_alpha_phi": consts["c_alpha_phi"],
            "radial_le_nt": ok_low,
            "nt_le_c_hl": ok_up,
        }
    report["c_phi"] = c_phi
    report["all_divergent"] = all_div
    report["chain_ok"] = bool(chain_ok)
    return report


# ---------------------------------------------------------------------------
# heat maximal function
# ---------------------------------------------------------------------------

def heat_max(mu: BoundaryMeasure, profile: K.KernelProfile, x,
             s_grid=None) -> dict:
    """Grid sup over s of the heat extension u(x, s^2).

    The substitution t = s^2 aligns the heat semigroup with the mollifier
    convention phi_s = s^(-Q) phi(delta_(1/s) argument). Every scale comes
    from one ``HeatExtension._eval`` call at x once per scale, with the
    bits of u(x, s^2) at each. A scale whose square overflows is a
    NumericsError naming it, as one whose square underflows to 0 is in
    ``_eval``.
    """
    x = _point(mu.group, x, "query point")
    s = _scale_grid(s_grid, 3.0)
    u = HeatExtension(mu, profile)
    times = []
    for ss in s:
        try:
            times.append(float(ss) ** 2)
        except OverflowError:
            raise NumericsError(f"scale {float(ss)!r} has no finite time "
                                "s^2") from None
    vals = u._eval(np.broadcast_to(x, (s.size, x.size)), times)
    return _grid_sup(s, vals)


def check_heat_chain(mu: BoundaryMeasure, profile: K.KernelProfile, x,
                     s_grid=None) -> dict:
    """Sandwich the heat maximal function between two Gaussian radial maxima.

    The kernel certificate provides c0 with
    phi_low(r) = exp(-c0 r^2) / c0 <= gamma <= c0 exp(-r^2 / c0) = psi_high(r)
    pointwise in the gauge; convolving preserves the order scale by scale, so
    on a shared grid M_(phi_low) <= sup_s u(x, s^2) <= M_(psi_high) up to
    the quadrature slack `decisions.heat_chain_slack` picks from the
    measure kind.
    """
    c0 = K.gaussian_certificate(profile).c0
    g = mu.group
    x = np.asarray(x, dtype=float)
    s = _scale_grid(s_grid, 3.0)
    lo = RadialProfile(
        lambda r: np.exp(-c0 * np.asarray(r) ** 2) / c0,
        f"gauss-lower-{g.label}-{c0:.6g}",
    )
    hi = RadialProfile(
        lambda r: c0 * np.exp(-np.asarray(r) ** 2 / c0),
        f"gauss-upper-{g.label}-{c0:.6g}",
    )
    m_lo = radial_max(mu, lo, x, s_grid=s)
    m_hi = radial_max(mu, hi, x, s_grid=s)
    u_max = heat_max(mu, profile, x, s_grid=s)
    slack = heat_chain_slack(_is_atomic(mu))
    divergent = m_lo["divergent"] and u_max["divergent"] and m_hi["divergent"]
    if divergent:
        ok = True
    else:
        ok = (holds_with_slack(m_lo["value"], u_max["value"], slack)
              and holds_with_slack(u_max["value"], m_hi["value"], slack))
    return {
        "c0": c0,
        "lower": m_lo,
        "heat": u_max,
        "upper": m_hi,
        "slack": slack,
        "divergent": divergent,
        "chain_ok": bool(ok),
    }
