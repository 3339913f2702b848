"""Heat extensions of measures and parabolic boundary behaviour.

The heat extension of a measure nu is u(x, t) = integral of
Gamma(t, y^-1 * x) d nu(y), where Gamma is the group heat kernel. Atomic
measures are extended exactly as weighted kernel sums. Densities are
extended with a scaled quadrature: substituting y = x * delta_sqrt(t)(eta^-1)
turns the integral into

    u(x, t) = integral gamma(eta) f(x * delta_sqrt(t)(eta^-1)) dm(eta),

so one fixed gamma-weighted grid in eta serves every (x, t). This keeps the
quadrature error independent of t, which matters when chasing limits along
shrinking parabolic regions.

Each group carries one eta-grid (``GroupDescriptor.eta_grid``), built once
per kernel profile (``KernelProfile.eta_grid``), which the kernel battery
reads too. The map eta -> x * delta_sqrt(t)(eta^-1) is affine, so the images of
the eta-box's 2^n corners span the image of the whole grid. The corner
images of every (point, time) row are one `groups.images` call, and the
density's ``hull_state`` classifies each hull. Where a hull lies inside
the density's smooth region the whole grid is summed (Gauss-Legendre
converges geometrically on smooth integrands), with
``DensityMeasure.density_inside``: every box and clip test passes there, so
they are skipped. Those values are taken on the grid's own axes, by the
group's column product (see `_inside_rows`), with the bits of the node
images; a density that declares a constant sums the grid once. Where the
density is zero on it, u is 0.0 without evaluating anything. Where a
support face or a clip sphere cuts it, the value takes one cut rule:

* every outer (non-column) axis takes Gauss-Legendre panels between the
  support box's faces' eta-images and the eta-box's ends
  (`_outer_rules`); where no face cuts the axis this is the grid's own
  rule;
* each eta-column then maps onto a vertical line on which y_last is affine
  in eta_last, ``DensityMeasure.sections`` gives the intervals of that
  line where the density may be nonzero, and the covered piece of each
  column panel takes fresh gamma at its own nodes (`_column_rule`).

An inside value may instead take the compressed eta-rule
(``KernelProfile.eta_rule``): a positive rule Q6 on at most dim P_6 of the
grid's own nodes (50 on H1) whose moments of graded degree <= 6 (a + b + 2c
<= 6 on H1) are those of the grid's gamma * w, and a nested Q4 (22 nodes on
H1) on Q6's nodes. Tchakaloff's theorem guarantees such rules and
Caratheodory recombination finds them (`quadrature.compressed_rules`); they
are built at the first inside sum that can use them. Both are sums of one
density pass at Q6's node images, taken by ``DensityMeasure._image_sums``,
the one node-rule sum, which the polar ball masses and the maximal module's
phi-grid rows take too. On an analytic integrand Q6 misses by the Taylor
remainder past degree 6. So a point takes Q6 only where its hull,
mapped into the base frame, boxes none of the points where the density
declares it may fail to be analytic (``DensityMeasure.singular``, with the
_TIE margin of the hull test; a density that declares nothing takes the
whole grid), and keeps Q6's value only where |Q6 - Q4| <=
``TABLE.eta_rule_tol`` |Q6| (1e-6, a tenth of the 9.96e-6 mass the H1
eta-box leaves out). Every other point takes the whole grid, with the bits
it had without the rule.

One evaluator, ``HeatExtension._eval``, takes rows: each point with its
own time, as ball masses and convolution rows take each center with its
own radius. A slice at one t, a limit trace's placements at all of its
times and the heat maximum's scales at one point are each one call. An
atomic part is one kernel evaluation over every (point, atom) pair, each
row summed in a fixed order. A density part takes one pass over every row,
each at its own sqrt(t), and one pass per rule: one ``hull_state`` call
classifies every row's hull; "inside" rows share blocks of about
``quadrature._BLOCK_ROWS`` rows of compressed node images, then of the
grid's axes (scaled by the rows of `groups.dilation_factors`) for the
rows that take the whole grid; "cut" rows take ``_column_rule`` one at a
time. Every step is row by row and each row keeps its own fixed-order sum,
so each value is the one a call at that point and time alone gives, bit
for bit.

Parabolic approach regions have a boundary vertex and an aperture: the
sampled points are vertex * delta_(beta * aperture * sqrt(t))(omega) for
beta in [0, 1) and unit directions omega (`groups.images` of the
directions), with t shrinking geometrically
along ``decisions.SCALES``: t_k = (r_k / kappa)^2 for the radii r_k the
strong derivative reads, so both traces decide on one scale axis. A
scenario, and a region without its own t_max, starts at t_0 = 4^-5 on R^n
and 4.6e-4 on H1; there no slice of any preset scenario reaches the column
rule, which serves the larger t of other callers. A limit trace
evaluates all of its placements, the central axis included, and records
every sampled value, and the one rule of ``decisions.trace_decision`` that
the strong derivative uses decides its estimate and convergence;
``decisions.tail_decision`` decides the tail check.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GroupError, MeasureError, NumericsError
from . import groups as G
from . import kernels as K
from .decisions import SCALES, TABLE, tail_decision, trace_decision
from .quadrature import (_BLOCK_ROWS, gauss_legendre, row_sums,
                         section_pieces, tensor_rule, weighted_sum)
from .measures import (
    AtomicMeasure,
    BoundaryMeasure,
    DensityMeasure,
    _point,
    restrict_complement,
)

__all__ = [
    "HeatExtension",
    "ParabolicRegion",
    "LimitTrace",
    "parabolic_limit",
    "limit_trace_to_csv",
    "dilation_commutation_check",
    "translation_commutation_check",
    "tail_vanishing_check",
]


# ---------------------------------------------------------------------------
# density values on the eta-grid (``KernelProfile.eta_grid``)
# ---------------------------------------------------------------------------

def _inside_values(mu: DensityMeasure, profile: K.KernelProfile,
                   xs: np.ndarray, hulls: np.ndarray,
                   sqrt_t: np.ndarray) -> np.ndarray:
    """u at points whose eta-image hull (corners ``hulls`` (p, 2^n, n)) is
    "inside", each at its own sqrt(t) of ``sqrt_t`` (p,), with
    `DensityMeasure.density_inside`.

    A declared constant takes one `constant_sum` for every point. A point
    whose hull `DensityMeasure.analytic_hulls` clears takes the compressed
    rule: Q6 and Q4 are `DensityMeasure._image_sums` of Q6's nodes, Q4 on
    its subset of them, and the point keeps its Q6 value where |Q6 - Q4| <=
    ``TABLE.eta_rule_tol`` |Q6|. Every other point takes the whole grid on
    its axes (`_inside_rows`), p points at a time while p x nodes fit in
    _BLOCK_ROWS rows. Each point's sum is its own (see
    `quadrature.row_sums`), and so is its choice of rule.
    """
    grid = profile.eta_grid
    if mu.constant is not None:
        return np.full(xs.shape[0], mu.constant_sum(grid.gamma_w))
    out = np.empty(xs.shape[0])
    full = ~mu.analytic_hulls(hulls)
    free = np.flatnonzero(~full)
    if free.size:
        rule = profile.eta_rule
        q6, q4 = mu._image_sums(xs[free], sqrt_t[free], rule.eta_inv,
                                rule.rules).T
        kept = abs(q6 - q4) <= TABLE.eta_rule_tol * abs(q6)
        out[free[kept]] = q6[kept]
        full[free[~kept]] = True
    full = np.flatnonzero(full)
    per = max(1, _BLOCK_ROWS // grid.gamma_w.size)
    for start in range(0, full.size, per):
        rows = full[start:start + per]
        out[rows] = row_sums(grid.gamma_w, _inside_rows(mu, grid, xs[rows],
                                                        sqrt_t[rows]))
    return out


def _inside_rows(mu: DensityMeasure, grid: K._EtaGrid, xs: np.ndarray,
                 sqrt_t: np.ndarray) -> np.ndarray:
    """`DensityMeasure._inside_cols` at xs[i] * delta_sqrt(t_i)(eta^-1) for
    each point i of ``xs`` (k, n), at its sqrt(t_i) of ``sqrt_t`` (k,), and
    each node eta of the grid: (k, N), nodes in `quadrature.tensor_rule`
    order, with the bits of ``density_inside`` on the node images.

    The grid is a tensor product and the inverse negates (see
    `groups.GroupDescriptor`), so coordinate j of row i's scaled inverted
    nodes is -nodes_j times the factor sqrt(t_i)^e_j of
    `groups.dilation_factors`, along axis j alone: the bits of
    ``G.dilate(g, sqrt_t[i], grid.eta_inv)``. The points run along a
    leading axis, and the product goes by columns
    (``GroupDescriptor.mul_cols``), so a coordinate that varies along one
    or two axes is computed once per axis or pair, in the order of the
    node images. Blocks of about _BLOCK_ROWS rows run along the first grid
    axis.
    """
    g = mu.group
    k, n = xs.shape
    shape = (k,) + tuple(nodes.size for nodes, _ in grid.axes)
    factors = G.dilation_factors(g, sqrt_t)
    eta = [(-nodes * factors[:, j:j + 1]).reshape(
               (k,) + (1,) * j + (-1,) + (1,) * (n - j - 1))
           for j, (nodes, _) in enumerate(grid.axes)]
    x = [col.reshape((k,) + (1,) * n) for col in xs.T]
    f = np.empty(shape)
    step = max(1, _BLOCK_ROWS * shape[1] // f.size)
    for start in range(0, shape[1], step):
        block = slice(start, start + step)
        f[:, block] = mu._inside_cols(
            g.mul_cols(x, [eta[0][:, block]] + eta[1:]))
    return f.reshape(k, -1)


def _outer_rules(mu: DensityMeasure, x: np.ndarray, sqrt_t: float):
    """Rules of the non-column axes for a cut value at the point x; None
    when the support box misses the eta-box.

    First-layer coordinates add, so y_i = x_i - sqrt(t) eta_i and the
    support box's faces on axis i map to two values of eta_i. Each axis
    takes Gauss-Legendre panels, no wider than the grid's, between those
    values and the eta-box's ends, so its integrand never jumps at a face
    (Stroud, Approximate Calculation of Multiple Integrals, 1971). Where no
    face cuts the axis, this is the grid's own rule, bit for bit.
    """
    g = mu.group
    rules = []
    for i, (lo, hi, n_panels, order) in enumerate(g.eta_grid[:-1]):
        scale = sqrt_t ** g.layer_exponents[i]
        a = max(lo, (x[i] - mu.support_box[i, 1]) / scale)
        b = min(hi, (x[i] - mu.support_box[i, 0]) / scale)
        if not a < b:
            return None
        rules.append(gauss_legendre(
            a, b, math.ceil(n_panels * (b - a) / (hi - lo)), order))
    return rules


def _cut_values(mu: DensityMeasure, profile: K.KernelProfile,
                xs: np.ndarray, sqrt_t: np.ndarray) -> np.ndarray:
    """u at points whose eta-image hull is "cut", each at its own sqrt(t)
    of ``sqrt_t``, one point at a time by `_column_rule` on its
    `_outer_rules`; 0.0 where the support box misses the eta-box."""
    out = np.zeros(xs.shape[0])
    for i, (x, root) in enumerate(zip(xs, sqrt_t.tolist())):
        outer = _outer_rules(mu, x, root)
        if outer is not None:
            out[i] = _column_rule(mu, profile, x, root, outer)
    return out


def _column_rule(mu: DensityMeasure, profile: K.KernelProfile,
                 x: np.ndarray, sqrt_t: float, outer: list) -> float:
    """u(x, t) at the point x, a density whose clips cut the eta-image, on
    the outer rules ``outer`` (see `_outer_rules`).

    Under eta -> x * delta_sqrt(t)(eta^-1) the eta-column over (eta_1, ..,
    eta_(n-1)) maps onto a vertical line on which y_last = c - sqrt(t)^e
    eta_last, and ``mu.sections`` gives the eta_last-intervals of that line
    where the density may be nonzero. Each column is integrated between
    those exact limits on the grid's column panels: the covered piece of
    each panel takes the panel's number of Gauss-Legendre nodes
    (`quadrature.section_pieces`, as the section rules of density masses
    take them) and fresh gamma at the piece's own nodes. Rows outside the
    intervals are never evaluated.

    gamma and the density are taken one _BLOCK_ROWS block of pieces at a
    time, in column order, and the block sums are added in
    `weighted_sum`'s order.
    """
    g = mu.group
    col_lo, col_hi, n_panels, order = g.eta_grid[-1]
    heads, w_cols = tensor_rule(outer + [(np.zeros(1), np.ones(1))])
    heads_t = G.dilate(g, sqrt_t, G.inverse(g, heads))
    lo, hi = mu.sections(G.mul(g, x, heads_t),
                         -sqrt_t ** g.layer_exponents[-1])
    # the covered piece of each (column, interval, panel)
    edges = np.linspace(col_lo, col_hi, n_panels + 1)
    p_lo = np.maximum(lo[:, :, None], edges[:-1])
    p_hi = np.minimum(hi[:, :, None], edges[1:])
    eta, w = section_pieces(heads, w_cols, p_lo, p_hi, p_lo < p_hi, 1, order)
    total = 0.0
    for start in range(0, w.size, _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        f = mu.density_at(G.mul(g, x, G.dilate(g, sqrt_t,
                                               G.inverse(g, eta[rows]))))
        total += weighted_sum(profile.gamma(eta[rows]) * w[rows], f)
    return total


# ---------------------------------------------------------------------------
# heat extension
# ---------------------------------------------------------------------------

class HeatExtension:
    """Callable u(x, t) extending a measure into positive time."""

    def __init__(self, mu: BoundaryMeasure, profile: K.KernelProfile):
        if mu.group.label != profile.group.label:
            raise MeasureError("measure and kernel profile use different groups")
        self.mu = mu
        self.profile = profile
        self.group = mu.group

    def _points(self, x) -> np.ndarray:
        """``x`` as an array of points: total_dim finite coordinates along
        its last axis."""
        x = np.asarray(x, dtype=float)
        n = self.group.total_dim
        if x.shape[-1:] != (n,) or not np.all(np.isfinite(x)):
            raise GroupError(f"points must have {n} finite coordinates, got "
                             f"{np.array2string(x, threshold=8)}")
        return x

    def __call__(self, x, t: float):
        """u at the point x (total_dim finite coordinates) or at each point
        of an array of them along its last axis, at time t > 0."""
        x = self._points(x)
        scalar = x.ndim == 1
        pts = x[None, :] if scalar else x.reshape(-1, self.group.total_dim)
        out = self._eval(pts, [t] * pts.shape[0])
        if scalar:
            return float(out[0])
        return out.reshape(x.shape[:-1])

    def _eval(self, pts: np.ndarray, times) -> np.ndarray:
        """u at each point of ``pts`` (p, n) at its own time of ``times``
        (p of them, each positive and finite): a slice for one time at
        many points, a limit trace's placements at all of its times, the
        heat maximum's scales for one point at many times.

        An atomic part takes every (point, atom) pair in one kernel
        evaluation, with `kernels.eval_kernel`'s Python-float factors
        (1 / sqrt t)^e and t^(-Q/2) (`_time_power`: a NumericsError where
        that overflows), and sums each point's row with
        `quadrature.row_sums`. A density part takes every row in one
        `_density` pass, and no such power. So every value has the bits of
        a call at its point and time alone.
        """
        times = [float(t) for t in times]
        for t in times:
            if not 0 < t < math.inf:
                raise NumericsError(
                    f"time must be positive and finite, got {t}")
        g = self.group
        roots = np.array([math.sqrt(t) for t in times])
        total = np.zeros(pts.shape[0])
        for part in self.mu.parts():
            if not isinstance(part, AtomicMeasure):
                total += self._density(part, pts, roots)
            elif part.points.shape[0]:
                # the powers first: where t^(-Q/2) is finite, so is every
                # (1 / sqrt t)^e, e <= Q
                power = np.array([K._time_power(g.hom_dim, t) for t in times])
                rel = G.mul(g, G.inverse(g, part.points), pts[:, None, :])
                scale = G.dilation_factors(g, 1.0 / roots)
                kern = power[:, None] * self.profile.gamma(
                    rel * scale[:, None, :])
                total += row_sums(part.weights, kern)
        return total

    def _density(self, mu: DensityMeasure, pts: np.ndarray,
                 sqrt_t: np.ndarray):
        """The eta-grid rule the hull of each point's eta-image calls for,
        each row at its own sqrt(t) of ``sqrt_t``: one hull test for every
        row, then one pass per rule over the rows that take it."""
        g = self.group
        grid = self.profile.eta_grid
        hulls = G.images(g, pts, sqrt_t, grid.corner_inv)
        states = mu.hull_state(hulls)
        out = np.zeros(pts.shape[0])
        inside = np.flatnonzero(states == "inside")
        out[inside] = _inside_values(mu, self.profile, pts[inside],
                                     hulls[inside], sqrt_t[inside])
        cut = np.flatnonzero(states == "cut")
        if cut.size:
            out[cut] = _cut_values(mu, self.profile, pts[cut], sqrt_t[cut])
        return out


# ---------------------------------------------------------------------------
# parabolic regions and limit traces
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class ParabolicRegion:
    """Approach region {(x, t): d(vertex, x) < aperture * sqrt(t), t < t_max}.

    `parabolic_limit` samples it at ``decisions.SCALES.times(t_max)``. A
    region without t_max starts at ``SCALES.first_time`` of the group's
    default restrict radius (``GroupDescriptor.restrict_radius``), (r_0 /
    kappa)^2 for the first radius `measures.strong_derivative` reads by
    default; `scenarios.run_scenario` sets t_max to ``SCALES.first_time``
    of its own restrict radius.
    """

    vertex: np.ndarray
    aperture: float = 1.0
    t_max: float | None = None

    def __post_init__(self):
        self.vertex = np.asarray(self.vertex, dtype=float)
        if self.vertex.ndim != 1 or not np.all(np.isfinite(self.vertex)):
            raise GroupError(f"region vertex must be finite coordinates, "
                             f"got {self.vertex.tolist()}")
        if not 0 < self.aperture < math.inf:
            raise MeasureError("region aperture must be positive and finite, "
                               f"got {self.aperture}")
        if self.t_max is not None and not 0 < self.t_max < math.inf:
            raise MeasureError("region t_max must be positive and finite, "
                               f"got {self.t_max}")


@dataclass(eq=False)
class LimitTrace:
    """Sampled values of u along a shrinking parabolic region."""

    t_values: np.ndarray          # (n_scales,)
    betas: np.ndarray             # (n_placements,) fractional offsets
    direction_ids: np.ndarray     # (n_placements,)
    points: np.ndarray            # (n_placements, n_scales, dim)
    values: np.ndarray            # (n_placements, n_scales)
    estimate: float
    oscillation: float
    converged: bool
    aperture: float
    vertex: np.ndarray = field(default=None)


# (beta, direction index) of each placement of a limit trace: beta = 0 is
# the central axis and appears once, every other beta in each of
# _N_DIRECTIONS directions
_BETAS = (0.0, 0.5, 0.9)
_N_DIRECTIONS = 8
_PLACEMENTS = tuple((beta, k) for beta in _BETAS
                    for k in range(1 if beta == 0.0 else _N_DIRECTIONS))


def _slice_points(g: G.GroupDescriptor, region: ParabolicRegion,
                  dirs: np.ndarray, t: float) -> np.ndarray:
    """Points (len(_PLACEMENTS), n) of the region's slice at time t, in
    _PLACEMENTS order: the vertex times the zero offset for beta = 0, then
    `groups.images` of the directions at each beta > 0, so each row has the
    bits of ``G.mul(g, vertex, G.dilate(g, r, omega))``."""
    root = math.sqrt(t)
    radii = [beta * region.aperture * root for beta in _BETAS if beta > 0.0]
    return np.concatenate([
        G.mul(g, region.vertex, np.zeros((1, g.total_dim))),
        G.images(g, region.vertex, radii, dirs).reshape(-1, g.total_dim)])


def parabolic_limit(u: HeatExtension, region: ParabolicRegion) -> LimitTrace:
    """Follow u into the vertex along the region; returns the full trace.

    The times are ``decisions.SCALES.times(t_max)``: t_max 4^-k for
    k < SCALES.n_scales, the t_k = (r_k / kappa)^2 of the derivative's
    radii when t_max is ``SCALES.first_time`` of the restrict radius, as it
    is for a region without t_max. Placement (beta, omega) at time t sits
    at vertex * delta_(beta * aperture * sqrt(t))(omega) for beta in
    _BETAS and _N_DIRECTIONS directions omega; beta = 0 is the central
    axis and appears once, first. Every (placement, time) row is one
    ``HeatExtension._eval`` call, each value u at its own point and time.
    `decisions.trace_decision` of the values gives the estimate and the
    convergence call.
    """
    g = u.group
    _point(g, region.vertex, "region vertex")
    dirs = G.unit_directions(g, _N_DIRECTIONS)
    t_max = (SCALES.first_time(g.restrict_radius) if region.t_max is None
             else region.t_max)
    t_vals = SCALES.times(t_max)
    pts = np.stack([_slice_points(g, region, dirs, t)
                    for t in t_vals.tolist()], axis=1)
    # every (placement, time) row in one call, the times fastest
    vals = u._eval(u._points(pts).reshape(-1, g.total_dim),
                   t_vals.tolist() * len(_PLACEMENTS)).reshape(-1, t_vals.size)
    dec = trace_decision(vals)
    return LimitTrace(
        t_values=t_vals,
        betas=np.array([b for b, _ in _PLACEMENTS]),
        direction_ids=np.array([k for _, k in _PLACEMENTS]),
        points=pts,
        values=vals,
        estimate=dec.estimate,
        oscillation=dec.oscillation,
        converged=dec.converged,
        aperture=region.aperture,
        vertex=region.vertex.copy(),
    )


def limit_trace_to_csv(trace: LimitTrace) -> str:
    """CSV with columns scale_t, beta, direction_id, x_coords, value."""
    buf = io.StringIO()
    buf.write("scale_t,beta,direction_id,x_coords,value\n")
    for pi in range(trace.values.shape[0]):
        for ti, t in enumerate(trace.t_values):
            coords = ";".join(repr(float(c)) for c in trace.points[pi, ti])
            buf.write(
                f"{float(t)!r},{float(trace.betas[pi])!r},"
                f"{int(trace.direction_ids[pi])},"
                f"{coords},{float(trace.values[pi, ti])!r}\n"
            )
    return buf.getvalue()


# ---------------------------------------------------------------------------
# consistency checks
# ---------------------------------------------------------------------------

def dilation_commutation_check(mu: BoundaryMeasure, profile: K.KernelProfile,
                               r: float, x, t: float) -> dict:
    """Extension of the dilated measure vs dilated evaluation of the original.

    The exact identity is u_(nu_r)(x, t) = u_nu(delta_r x, r^2 t).
    """
    from .measures import dilate_measure

    g = mu.group
    x = np.asarray(x, dtype=float)
    lhs = HeatExtension(dilate_measure(mu, r), profile)(x, t)
    rhs = HeatExtension(mu, profile)(G.dilate(g, r, x), r ** 2 * t)
    denom = max(abs(lhs), abs(rhs), 1e-300)
    return {"dilated_measure": lhs, "dilated_point": rhs,
            "rel_diff": abs(lhs - rhs) / denom}


def translation_commutation_check(mu: BoundaryMeasure, profile: K.KernelProfile,
                                  x0, x, t: float) -> dict:
    """Extension of the translated measure vs translated evaluation.

    The exact identity is u_(tau_x0 nu)(x, t) = u_nu(x0 * x, t).
    """
    from .measures import translate_measure

    g = mu.group
    x = np.asarray(x, dtype=float)
    lhs = HeatExtension(translate_measure(mu, x0), profile)(x, t)
    rhs = HeatExtension(mu, profile)(G.mul(g, np.asarray(x0, float), x), t)
    denom = max(abs(lhs), abs(rhs), 1e-300)
    return {"translated_measure": lhs, "translated_point": rhs,
            "rel_diff": abs(lhs - rhs) / denom}


def _outer_terms(outer: BoundaryMeasure, rho: float):
    """Masses m_j and distances d_j of the parts of ``outer``, with
    N(x^-1 y) >= d_j for x in B(0, rho) and y in part j.

    Each atom is a part of its own at d_j = max(rho, N(y) / C_L - rho). Each
    density part sits at rho, the least the quasi-triangle inequality gives
    outside B(0, 2 C_L rho), and carries its mass plus its quadrature error.
    Parts of zero mass are dropped.
    """
    g = outer.group
    masses, dists = [], []
    for p in outer.parts():
        if isinstance(p, AtomicMeasure):
            masses.append(p.weights)
            dists.append(np.maximum(
                rho, G.norm(g, p.points) / g.quasi_triangle_const - rho))
        else:
            masses.append([sum(p._support_mass)])
            dists.append([rho])
    m, d = np.concatenate(masses), np.concatenate(dists)
    keep = m > 0.0
    return m[keep], d[keep]


# gauges on which `tail_vanishing_check` samples its envelope rate, in
# _TAIL_DIRECTIONS directions each, and the steps of its t schedule,
# t = 4^0 .. 4^-(_TAIL_STEPS - 1)
_ENVELOPE_GAUGES = 25
_TAIL_DIRECTIONS = 6
_TAIL_STEPS = 9


def _envelope_rate(profile: K.KernelProfile, s: np.ndarray) -> float:
    """Largest rate b <= 1 / c0 with gamma(z) <= c0 exp(-b N(z)^2) at
    _TAIL_DIRECTIONS points of each gauge in ``s``, shrunk by the
    certificate's margin; 0.0 where gamma reaches c0 (no Gaussian rate
    exists there).

    The certificate samples d <= 8 only; this samples the distances a tail
    bound reads, as far out as they go.
    """
    g = profile.group
    cert = K.gaussian_certificate(profile)
    dirs = G.unit_directions(g, _TAIL_DIRECTIONS)
    pts = np.concatenate([G.dilate(g, float(r), dirs) for r in s])
    vals = np.asarray(profile.gamma(pts), dtype=float).reshape(s.size, -1)
    vals = vals.max(axis=1)
    if np.any(vals >= cert.c0):
        return 0.0
    pos = vals > 0.0
    rates = (math.log(cert.c0) - np.log(vals[pos])) / s[pos] ** 2
    return min(1.0 / cert.c0,
               float(rates.min(initial=math.inf)) / cert.log.get("margin", 1.0))


def tail_vanishing_check(mu: BoundaryMeasure, profile: K.KernelProfile,
                         radius: float) -> dict:
    """Heat of the measure outside a ball, bounded near the center.

    The paper's localization: for x in B(0, rho), rho = radius / (2 C_L),
    and y outside B(0, radius), N(x^-1 y) >= N(y) / C_L - N(x) >= rho. With
    the upper Gaussian envelope Gamma(y, t) <= A t^(-Q/2) exp(-b N(y)^2 / t)
    (Varopoulos, Saloff-Coste and Coulhon, *Analysis and Geometry on
    Groups*, 1992) the outer part's heat obeys, uniformly on B(0, rho),

        u_outer(x, t) <= B(t) = A t^(-Q/2) sum_j m_j exp(-b d_j^2 / t),

    over the parts j of `_outer_terms`: every atom at its own distance,
    every density part at rho with its mass plus its quadrature error.
    ``sup_values[k]`` is B(t_k), computed in logs.

    A = c0 comes from the profile's Gaussian certificate and C_L from the
    group descriptor. The certificate's rate 1 / c0 holds only on its grid,
    d <= 8, and fails beyond it on R^1, where c0 < 4. So b (``rate``) is
    `_envelope_rate` on _ENVELOPE_GAUGES gauges spanning the scaled
    distances d_j / sqrt(t_k) that B reads, _TAIL_DIRECTIONS points each:
    1 / c0 on the shipped H1 and R^2 profiles, and just under 1/4 on R^1.
    All of these constants are sampled, not proved, so B is a bound only as
    far as they are. ``dominated`` says a positive rate exists there, that
    is gamma stays below c0 at every sampled point; ``vanishes`` needs it.

    The rate 1 / c0 is loose on H1 (c0 = 65.28), so the schedule
    (``t_schedule``) runs t = 4^0 .. 4^-8. It still bounds the outer heat
    at the smaller t the parabolic trace now reads (``decisions.SCALES``,
    from 4^-5 on R^n and 4.6e-4 on H1), because B falls past its peak, near
    4.3e-4 on H1, and keeps falling as t shrinks. ``vanishes`` and
    ``monotone`` are `decisions.tail_decision` of B: ``vanishes`` reads B
    at the last t, so it says the bound is below tolerance by then, which a
    long enough schedule always reaches. ``monotone`` asks B to decrease along the
    schedule. B rises while t is above about 2 b d^2 / Q, which is below
    t_0 = 1 on every preset, so there ``monotone`` holds through its
    ``or vanishes`` clause alone and says nothing that ``vanishes`` does
    not. (The sampled sups B replaces rose from t = 1 to t = 1/4 on 7 of
    the 14 presets too.)

    The measure and the profile must share a group, as in `HeatExtension`:
    a MeasureError otherwise.
    """
    g = mu.group
    if g.label != profile.group.label:
        raise MeasureError("measure and kernel profile use different groups")
    t_schedule = 4.0 ** -np.arange(0, _TAIL_STEPS)
    c0 = K.gaussian_certificate(profile).c0
    outer = restrict_complement(mu, G.Ball(np.zeros(g.total_dim), radius))
    inner_r = radius / (2.0 * g.quasi_triangle_const)
    m, d = _outer_terms(outer, inner_r)
    values = np.zeros(t_schedule.size)
    rate, dominated = 1.0 / c0, True
    if m.size:
        s = np.geomspace(d.min() / math.sqrt(t_schedule.max()),
                         d.max() / math.sqrt(t_schedule.min()),
                         _ENVELOPE_GAUGES)
        rate = _envelope_rate(profile, s)
        dominated = rate > 0.0
        # log of sum_j m_j exp(-b d_j^2 / t), shifted by its largest term
        terms = np.log(m) - rate * np.outer(1.0 / t_schedule, d * d)
        top = terms.max(axis=1)
        log_b = (math.log(c0) - 0.5 * g.hom_dim * np.log(t_schedule) + top
                 + np.log(np.exp(terms - top[:, None]).sum(axis=1)))
        values = np.exp(log_b)
    vanishes, monotone = tail_decision(values, dominated, mu.total_mass)
    return {
        "radius": radius,
        "inner_radius": inner_r,
        "t_schedule": t_schedule,
        "sup_values": values,
        "rate": rate,
        "outer_mass": outer.total_mass,
        "dominated": dominated,
        "vanishes": vanishes,
        "monotone": monotone,
    }
