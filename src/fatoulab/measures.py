"""Nonnegative boundary measures and the strong-derivative estimator.

Measures come in three kinds: finite atomic combinations, densities against
Haar measure supported on a finite coordinate box, and finite mixtures. Each
kind has the reductions as methods: dilation nu_r(E) = r^(-Q) nu(delta_r(E)),
translation (tau_x0 nu)(E) = nu(x0 * E), restriction to a ball and to its
complement; a mixture maps its components, and ``parts`` lists the atomic
and density measures it sums, so consumers branch once per part.

A derived density is data: the base f and its box, one map
A(y) = a * delta_s(y) into the base frame, and clip balls, each in the
measure's own frame with a complement flag. Its density at y is f(A(y))
where A(y) lies in the base box and y passes every clip, else 0. Dilations
are automorphisms and left translations isometries, so translating by x0
composes a <- a * delta_s(x0) and moves a clip B(c, R) to B(x0^-1 * c, R),
and dilating by r composes s <- s * r and moves it to
B(delta_(1/r)(c), R / r). The own ``support_box`` (translated corners'
hull, dilated box, box clipped to a ball's bounding box) carries the
section rules. Densities are validated at construction: finite and
nonnegative at the nodes of the support box's section rules, whose mass of
the box is the total mass.

A density is assumed smooth inside its base box, so it may jump only at its
box faces and clip spheres. ``DensityMeasure.hull_state`` tells whether the
convex hull of a few points (or each of many such hulls, in one call) lies
where the density is smooth, where it is zero, or across a jump; where it
is smooth, ``DensityMeasure.density_inside`` gives the density without the
box and clip tests. ``DensityMeasure.sections`` gives the exact limits
of the same boundaries along vertical lines (the last coordinate is the
group's central column axis): a box or a ball meets such a line in one
interval and a complement clip removes one, so the density is smooth
between the ends it returns.

Ball masses come many balls at a time: each kind has one
``_ball_masses(centers, radii)``, and `measure_ball` is its one-ball case.
Atoms take their distances once per distinct center, in blocks of at most
``quadrature._BLOCK_ROWS`` (center, atom) pairs. A density asks one
``hull_state`` call about the corners (`groups.box_corners`) of every
ball's bounding box. A ball in the smooth region ("inside") is integrated
with the group's unit-ball polar rule mapped onto it, mu(B(c, R)) = R^Q
int_(B(0,1)) f(c * delta_R(xi)) dxi: 3,456 nodes on the Heisenberg group,
with the 1,024-node coarse rule's difference as the error; such balls
share blocks of density evaluations at the node images of
`groups.images`. A ball where the density is zero has mass 0. A ball
across a jump ("cut") is an iterated integral with exact inner limits
(Stroud, Approximate Calculation of Multiple Integrals, 1971): Gauss-Legendre
panels on the horizontal axes of its bounding box clipped to the support
box, and on each vertical line Gauss-Legendre nodes on every interval that
``sections`` and the ball's own section leave (see
``DensityMeasure._section_rule`` and `quadrature.section_pieces`). A ball
that holds the support box gets the same rule's mass of the whole box,
which is the total mass, computed once at construction. Whether a ball
holds the box is one test, ``DensityMeasure._covered``: every corner of
the box nearer the center than the radius by a _TIE margin. The
mollifier convolutions of the maximal module read the same test and the
same rule, with more panels per vertical section
(``DensityMeasure._convolution_rule``).

The strong derivative at a point is estimated over a finite ball family along
a shrinking radius schedule, by default ``decisions.SCALES``' radii at the
group's default restrict radius 1 / C_L; the trace records all quotients,
and ``decisions.trace_decision`` decides its estimate and convergence from
them (the bars are ``decisions.TABLE``'s).
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from functools import cached_property, partialmethod

import numpy as np

from .errors import GroupError, MeasureError
from . import groups as G
from .decisions import SCALES, TABLE, trace_decision
from .quadrature import (_BLOCK_ROWS, gauss_legendre, row_sums,
                         section_pieces, tensor_rule, weighted_sum)

__all__ = [
    "BoundaryMeasure",
    "AtomicMeasure",
    "DensityMeasure",
    "MixtureMeasure",
    "DerivativeTrace",
    "measure_ball",
    "ball_masses",
    "dilate_measure",
    "translate_measure",
    "restrict",
    "restrict_complement",
    "strong_derivative",
    "default_ball_family",
    "trace_to_csv",
]

# A coordinate or a distance within _TIE times the scale of the values
# tested of a box face or a sphere is too close to tell: the hull counts as
# cut, and a support corner that ties does not make a ball cover the support.
_TIE = 1e-6

# (Gauss-Legendre panels per horizontal axis, nodes per panel, panels per
# section interval) of the fine and the coarse section rule of a cut ball
# and of the support box
_SECTION_RULES = ((4, 16, 1), (2, 8, 1))

# the same for a density's mollifier convolutions above the maximal
# module's scale switch: 27,648 nodes on the Heisenberg group
_CONVOLUTION_RULE = (2, 12, 4)
# cells of the whole-box convolution rule that bound its sums
# (`DensityMeasure._rule_cells`): each panel of _CONVOLUTION_RULE split in
# two on every axis, 4 x 4 x 8 cells on the Heisenberg group
_CELL_SPLIT = 2

# Rounding floor of a ball mass by a rule, relative to the value: the
# rule's nodes and weights, the density values and the fixed-order sum each
# round at ~1e-16 relative, and |fine - coarse| can come out below that.
_ROUNDING = 1e-13


# Hull states by index, ordered so that the state of a product of factors is
# the least of theirs: zero on one factor makes it zero, and it is smooth only
# where every factor is. A complement clip's state is _INSIDE minus the ball's.
_STATES = np.array(["outside", "cut", "inside"])
_OUTSIDE, _CUT, _INSIDE = range(3)


def _box_state(corners: np.ndarray, box: np.ndarray) -> np.ndarray:
    """Hull state indices of ``corners`` (..., k, n) against a box, one per
    hull along the leading axes.

    "inside": strictly inside; "outside": beyond one face; else "cut". A
    coordinate within _TIE times the spread of its axis (the hull's corners
    and the box) of a face is too close to tell, so it counts as neither.
    """
    lo, hi = box[:, 0], box[:, 1]
    top, bottom = corners.max(axis=-2), corners.min(axis=-2)
    tie = _TIE * (np.maximum(top, hi) - np.minimum(bottom, lo))
    beyond = np.any((top < lo - tie) | (bottom > hi + tie), axis=-1)
    within = np.all((bottom > lo + tie) & (top < hi - tie), axis=-1)
    return np.where(beyond, _OUTSIDE, np.where(within, _INSIDE, _CUT))


def _ball_state(g: G.GroupDescriptor, corners: np.ndarray,
                ball: G.Ball) -> np.ndarray:
    """Hull state indices of ``corners`` (..., k, n) against a ball.

    "inside": every corner is, with a _TIE margin (balls are convex);
    "outside": the corners' bounding box misses the ball's; else "cut".
    """
    d = np.asarray(G.dist(g, corners, ball.center))
    within = np.all(
        d < ball.radius - _TIE * (ball.radius + d.max(axis=-1, keepdims=True)),
        axis=-1)
    if np.all(within):
        return np.full(within.shape, _INSIDE)
    beyond = _box_state(corners, G.ball_bounding_box(g, ball)) == _OUTSIDE
    return np.where(within, _INSIDE, np.where(beyond, _OUTSIDE, _CUT))


# Section intervals (lo, hi) come as (k, m) arrays: m intervals on each of k
# lines, disjoint on a line; an interval with lo >= hi is empty, and
# (inf, inf) stands for "none".


def _box_section(base: np.ndarray, slope: float, box: np.ndarray):
    """Parameters tau where base + tau * slope * e_last lies in ``box``."""
    a = (box[-1, 0] - base[:, -1]) / slope
    b = (box[-1, 1] - base[:, -1]) / slope
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    off = np.any((base[:, :-1] < box[:-1, 0]) | (base[:, :-1] > box[:-1, 1]),
                 axis=1)
    lo[off] = hi[off] = np.inf
    return lo[:, None], hi[:, None]


def _ball_section(g: G.GroupDescriptor, base: np.ndarray, slope: float,
                  ball: G.Ball):
    """Parameters tau where base + tau * slope * e_last lies in ``ball``.

    c^-1 * (p + v e_last) = c^-1 * p + v e_last, and the ball B(0, R) is
    delta_R of the unit ball, whose sections ``g.section`` gives.
    """
    q = G.mul(g, G.inverse(g, ball.center), base)
    rho = np.sqrt((q[:, :-1] ** 2).sum(axis=1)) / ball.radius
    half = ball.radius ** g.layer_exponents[-1] * g.section(rho)
    a = (-half - q[:, -1]) / slope
    b = (half - q[:, -1]) / slope
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    off = ~(rho < 1.0)
    lo[off] = hi[off] = np.inf
    return lo[:, None], hi[:, None]


def _cap(lo, hi, lo2, hi2):
    """Intersections of every interval of (lo, hi) with every one of (lo2, hi2)."""
    k = lo.shape[0]
    return (np.maximum(lo[:, :, None], lo2[:, None, :]).reshape(k, -1),
            np.minimum(hi[:, :, None], hi2[:, None, :]).reshape(k, -1))


def _cut_out(lo, hi, lo2, hi2):
    """The intervals (lo, hi) less one interval (lo2, hi2) (k, 1) per line."""
    return (np.concatenate([lo, np.maximum(lo, hi2)], axis=1),
            np.concatenate([np.minimum(hi, lo2), hi], axis=1))


class BoundaryMeasure:
    """Base class for nonnegative measures on a stratified group.

    Each kind has the methods ``translate(x0)`` (x0 nonzero),
    ``dilate(r)``, ``restrict(ball)`` and ``restrict_complement(ball)``; the
    module functions of the same names check their input and call them.
    """

    def __init__(self, group: G.GroupDescriptor):
        self.group = group

    def parts(self) -> tuple:
        """The atomic and density measures this measure sums, depth first."""
        return (self,)

    @property
    def total_mass(self) -> float:
        raise NotImplementedError

    def _ball_masses(self, centers: np.ndarray, radii: np.ndarray):
        """(values, errors) of the masses of the balls B(centers[i],
        radii[i]), ``centers`` (m, n) and ``radii`` (m,) positive and
        finite: the one ball-mass path of every kind (see `measure_ball`)."""
        raise NotImplementedError


class AtomicMeasure(BoundaryMeasure):
    """Finite sum of point masses: sum_i w_i delta_(p_i), w_i >= 0."""

    def __init__(self, group: G.GroupDescriptor, points, weights):
        super().__init__(group)
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        w = np.atleast_1d(np.asarray(weights, dtype=float))
        if w.ndim != 1 or pts.shape != (w.size, group.total_dim):
            raise MeasureError(
                f"points must have shape (k, {group.total_dim}) and weights "
                f"(k,), got {pts.shape} and {w.shape}")
        if not np.all(np.isfinite(pts)) or not np.all(np.isfinite(w)):
            raise MeasureError("atoms must be finite")
        if np.any(w < 0):
            raise MeasureError("atomic weights must be nonnegative")
        self.points = pts
        self.weights = w

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    def _in(self, ball: G.Ball) -> np.ndarray:
        """Mask of the atoms in ``ball``."""
        if self.points.shape[0] == 0:
            return np.zeros(0, dtype=bool)
        return G.ball_contains(self.group, ball, self.points)

    def _ball_masses(self, centers: np.ndarray, radii: np.ndarray):
        """The weight of the atoms in each ball, error 0: one pass of atom
        distances per distinct center, in blocks of at most _BLOCK_ROWS
        (center, atom) pairs, one center at least."""
        vals, k = np.zeros(radii.size), self.points.shape[0]
        if k == 0:
            return vals, np.zeros(radii.size)
        uniq, which = np.unique(centers, axis=0, return_inverse=True)
        which = which.ravel()
        step = max(1, _BLOCK_ROWS // k)
        for start in range(0, uniq.shape[0], step):
            d = np.asarray(G.dist(self.group, self.points[None, :, :],
                                  uniq[start:start + step, None, :]))
            for i in np.flatnonzero((which >= start) & (which < start + step)):
                vals[i] = self.weights[d[which[i] - start] < radii[i]].sum()
        return vals, np.zeros(radii.size)

    def translate(self, x0):
        """Atoms move by p -> x0^-1 * p."""
        g = self.group
        return AtomicMeasure(g, G.mul(g, G.inverse(g, x0), self.points),
                             self.weights.copy())

    def dilate(self, r):
        """Atoms move by delta_(1/r), weights scale by r^(-Q)."""
        g = self.group
        return AtomicMeasure(g, G.dilate(g, 1.0 / r, self.points),
                             self.weights * r ** (-g.hom_dim))

    def restrict(self, ball):
        return self._keep(self._in(ball))

    def restrict_complement(self, ball):
        return self._keep(~self._in(ball))

    def _keep(self, mask: np.ndarray) -> "AtomicMeasure":
        return AtomicMeasure(self.group, self.points[mask], self.weights[mask])


class DensityMeasure(BoundaryMeasure):
    """Absolutely continuous measure f dm supported on a finite box.

    ``density`` is assumed smooth inside ``support_box``; a density that
    jumps inside it should be built with ``restrict``/``restrict_complement``
    so that ``hull_state`` and ``sections`` see the jump.

    A derived density (see the module docstring) keeps the base f and box
    as ``base_density`` and ``base_box``, the map A(y) = shift *
    delta_scale(y) into the base frame (``shift`` None: no translation),
    and ``clips``, (ball, complement) pairs in its own frame.
    ``support_box`` is its own box, which the section rules cover.

    ``constant`` declares that f is that value at every point of the base
    box; construction checks it at every validation node. Translation,
    dilation and restriction keep it, as they leave f(A(y)) unchanged
    where the density is nonzero. Where a rule's nodes all lie in the
    smooth region ("inside"), a rule's sum is then `constant_sum`, without
    a density value.

    ``singular`` declares the points (k, n) of the base frame where f may
    fail to be analytic; an empty array declares f analytic everywhere,
    and None (the default) declares nothing. The reductions keep it, as
    they keep ``constant``. The heat extension reads it through
    `analytic_hulls`: a hull whose image under A boxes no declared point
    may take the compressed eta-rule, whose error estimate then decides
    (see :mod:`fatoulab.extension`); an undeclared density always takes
    the full eta-grid.
    """

    def __init__(self, group: G.GroupDescriptor, density, support_box,
                 constant: float | None = None, singular=None):
        super().__init__(group)
        box = np.asarray(support_box, dtype=float)
        if box.shape != (group.total_dim, 2):
            raise MeasureError(
                f"support_box must have shape ({group.total_dim}, 2)"
            )
        if not np.all(np.isfinite(box)) or np.any(box[:, 1] < box[:, 0]):
            raise MeasureError("support_box must be finite with lo <= hi")
        self.base_density = density
        self.base_box = self.support_box = box
        self.constant = None if constant is None else float(constant)
        if singular is not None:
            singular = np.array(singular, dtype=float)
            if (singular.ndim != 2 or singular.shape[1] != group.total_dim
                    or not np.all(np.isfinite(singular))):
                raise MeasureError("singular must be finite points of shape "
                                   f"(k, {group.total_dim})")
        self.singular = singular
        self.shift, self.scale, self.clips = None, 1.0, ()
        self._support_mass = self._validate()

    def _derive(self, support_box: np.ndarray, shift, scale: float,
                clips: tuple) -> "DensityMeasure":
        """This density's base f and box under a new map and clips."""
        out = object.__new__(DensityMeasure)
        BoundaryMeasure.__init__(out, self.group)
        out.base_density, out.base_box = self.base_density, self.base_box
        out.constant, out.singular = self.constant, self.singular
        out.support_box, out.shift, out.scale, out.clips = (
            support_box, shift, scale, clips)
        out._support_mass = out._validate()
        return out

    def _to_base(self, pts: np.ndarray) -> np.ndarray:
        """A(y) = shift * delta_scale(y) of each point."""
        g = self.group
        if self.scale != 1.0:
            pts = G.dilate(g, self.scale, pts)
        return pts if self.shift is None else G.mul(g, self.shift, pts)

    def density_at(self, pts: np.ndarray) -> np.ndarray:
        """f(A(y)) where A(y) is in the base box and y passes every clip,
        else 0."""
        pts = np.asarray(pts, dtype=float)
        q = self._to_base(pts)
        keep = np.ones(pts.shape[:-1], dtype=bool)
        for i, (lo, hi) in enumerate(self.base_box):
            keep &= (q[..., i] >= lo) & (q[..., i] <= hi)
        for ball, complement in self.clips:
            keep &= G.ball_contains(self.group, ball, pts) != complement
        return np.where(keep, self._base_values(q), 0.0)

    def density_inside(self, pts: np.ndarray) -> np.ndarray:
        """f(A(y)) without the box and clip tests: `density_at`, bit for
        bit, on points in a hull that `hull_state` calls "inside". Boxes and
        balls are convex, A is affine and the hull test keeps a _TIE
        margin, so every test passes there."""
        return self._base_values(self._to_base(np.asarray(pts, dtype=float)))

    def _base_values(self, q: np.ndarray) -> np.ndarray:
        return np.asarray(self.base_density(q), dtype=float)

    def _inside_cols(self, cols: list) -> np.ndarray:
        """`density_inside`, bit for bit, at the points whose n coordinate
        columns ``cols`` broadcast against each other: `_to_base`'s
        dilation and shift by columns (``GroupDescriptor.mul_cols``), in
        `_to_base`'s operation order, then the broadcast columns written
        once into one column-major point array (see
        `quadrature.point_array`) for the base f."""
        g = self.group
        if self.scale != 1.0:
            cols = [c * self.scale ** e
                    for c, e in zip(cols, g.layer_exponents)]
        if self.shift is not None:
            cols = g.mul_cols(self.shift, cols)
        shape = np.broadcast_shapes(*(np.shape(c) for c in cols))
        q = np.empty((len(cols),) + shape)
        for out, c in zip(q, cols):
            out[...] = c
        return self._base_values(q.reshape(len(cols), -1).T).reshape(shape)

    def constant_sum(self, w: np.ndarray) -> float:
        """`quadrature.row_sums` of ``w`` (N,) against the declared
        constant: the bits of every row of `density_inside` values on nodes
        in the smooth region, as `row_sums` sums each row as it sums that
        row alone and f(A(y)) is the constant there."""
        return float(row_sums(w, np.full((1, w.size), self.constant))[0])

    def hull_state(self, corners: np.ndarray):
        """Where the convex hull of ``corners`` (k, n) lies for this density;
        for ``corners`` (..., k, n), an array of the states of each hull
        along the leading axes.

        "inside": strictly inside the support box, the base box (through A)
        and every clip, where the density is smooth; "outside": where it is
        zero (off a box or inside a complement clip); "cut": anything else.
        Boxes and balls are convex and A is affine, so the corners decide
        for the whole hull.
        """
        corners = np.asarray(corners, dtype=float)
        state = np.minimum(
            _box_state(corners, self.support_box),
            _box_state(self._to_base(corners), self.base_box))
        for ball, complement in self.clips:
            clip = _ball_state(self.group, corners, ball)
            state = np.minimum(state, _INSIDE - clip if complement else clip)
        names = _STATES[state]
        return str(names) if names.ndim == 0 else names

    def analytic_hulls(self, corners: np.ndarray) -> np.ndarray:
        """For ``corners`` (..., k, n), whether each hull along the leading
        axes is clear of every declared ``singular`` point: the box spanned
        by the corners' images under A (which holds the hull's image, A
        being affine) misses it by more than _TIE times the spread, as
        `_box_state` tests a face. All False where nothing is declared."""
        corners = np.asarray(corners, dtype=float)
        clear = np.full(corners.shape[:-2], self.singular is not None)
        if self.singular is not None:
            q = self._to_base(corners)
            for p in self.singular:
                clear &= _box_state(q, np.stack([p, p], axis=1)) == _OUTSIDE
        return clear

    def sections(self, base: np.ndarray, slope: float):
        """Where the density may be nonzero on vertical lines.

        Line j is y(tau) = base[j] + tau * slope * e_last (``base`` (k, n),
        ``slope`` nonzero). Returns (lo, hi), each (k, m): the tau-intervals
        of line j that lie in both boxes and every clip, disjoint, an
        interval with lo >= hi being empty. Between its ends the density is
        as smooth as the base f. A maps the line onto the vertical line
        through A(base[j]) with slope * scale^(last layer exponent).
        """
        g = self.group
        lo, hi = _cap(
            *_box_section(base, slope, self.support_box),
            *_box_section(self._to_base(base),
                          slope * self.scale ** g.layer_exponents[-1],
                          self.base_box))
        for ball, complement in self.clips:
            lo, hi = (_cut_out if complement else _cap)(
                lo, hi, *_ball_section(g, base, slope, ball))
        return lo, hi

    def translate(self, x0):
        """f(A(x0 * y)): a <- a * delta_s(x0); the support box becomes the
        hull of its corners moved by x0^-1."""
        g = self.group
        step = x0 if self.scale == 1.0 else G.dilate(g, self.scale, x0)
        shift = step if self.shift is None else G.mul(g, self.shift, step)
        back = G.inverse(g, x0)
        moved = G.mul(g, back, G.box_corners(self.support_box))
        box = np.stack([moved.min(axis=0), moved.max(axis=0)], axis=1)
        clips = tuple((G.translate_ball(g, back, ball), complement)
                      for ball, complement in self.clips)
        return self._derive(box, shift, self.scale, clips)

    def dilate(self, r):
        """f(A(delta_r y)) on delta_(1/r)(support box): s <- s * r."""
        g = self.group
        clips = tuple((G.dilate_ball(g, 1.0 / r, ball), complement)
                      for ball, complement in self.clips)
        return self._derive(G.dilate(g, 1.0 / r, self.support_box.T).T,
                            self.shift, self.scale * r, clips)

    def restrict(self, ball):
        """The density on ``ball``; the support box is clipped to the ball's
        bounding box, and a ball that misses it gives the zero measure."""
        g = self.group
        clipped = self._clip_box(G.ball_bounding_box(g, ball))
        if clipped is None:
            return AtomicMeasure(g, np.zeros((0, g.total_dim)), np.zeros(0))
        clip = G.Ball(ball.center.copy(), ball.radius)
        return self._derive(np.stack(clipped, axis=1), self.shift,
                            self.scale, self.clips + ((clip, False),))

    def restrict_complement(self, ball):
        clip = G.Ball(ball.center.copy(), ball.radius)
        return self._derive(self.support_box, self.shift, self.scale,
                            self.clips + ((clip, True),))

    def _validate(self):
        """Check the density at the nodes of the support box's section
        rules, and a declared constant against f(A(y)) there; returns
        their mass of the box and its error (see `_section_ball_mass`),
        which is the value on any ball that holds the box, where the
        ball's cap removes nothing."""
        def checked(pts):
            vals = self.density_at(pts)
            for bad, what in ((~np.isfinite(vals), "non-finite"),
                              (vals < -1e-12, "negative")):
                if np.any(bad):
                    raise MeasureError(
                        f"density {what} at {pts[bad][0].tolist()}")
            if self.constant is not None:
                f = self._base_values(self._to_base(pts))
                off = f != self.constant
                if np.any(off):
                    raise MeasureError(
                        f"density declared constant {self.constant!r} is "
                        f"{f[off][0]!r} at {pts[off][0].tolist()}")
            return vals

        mass = self._section_ball_mass(None, *self.support_box.T, checked)
        if not math.isfinite(mass[0]):
            raise MeasureError("density has non-finite total mass")
        return mass

    @property
    def total_mass(self) -> float:
        """The fine section rule's mass of the support box."""
        return self._support_mass[0]

    def _clip_box(self, bb: np.ndarray):
        """(lo, hi) of the support box clipped to the box ``bb`` (n, 2), or
        None where they do not overlap."""
        lo = np.maximum(bb[:, 0], self.support_box[:, 0])
        hi = np.minimum(bb[:, 1], self.support_box[:, 1])
        return None if np.any(hi <= lo) else (lo, hi)

    def _covered(self, centers: np.ndarray, radii: np.ndarray) -> np.ndarray:
        """Mask of the balls B(centers[i], radii[i]) that hold the support
        box: every corner is nearer the center than the radius by more
        than _TIE times the spread of the distances, and balls are convex.
        The box center is tested only so that the distances have a spread
        when all corners are equally far."""
        sb = self.support_box
        d = np.asarray(G.dist(self.group,
                              np.vstack([G.box_corners(sb), sb.mean(axis=1)]),
                              centers[:, None, :]))
        return np.all(
            d[:, :-1] < (radii - _TIE * np.ptp(d, axis=1))[:, None], axis=1)

    def _ball_masses(self, centers: np.ndarray, radii: np.ndarray):
        """Every ball classified at once, then one rule per class.

        A ball whose bounding box misses the support box has mass 0. A
        ball that holds the support box (`_covered`) gets the support box's
        mass. Of the rest, one `hull_state` call on the corners of their
        bounding boxes sends "inside" balls to the polar rule, in shared
        blocks, leaves "outside" balls at 0 and gives each "cut" ball the
        section rule on its bounding box clipped to the support box.
        """
        g, sb = self.group, self.support_box
        m = radii.size
        vals, errs = np.zeros(m), np.zeros(m)
        boxes = G.ball_bounding_boxes(g, centers, radii)
        lo = np.maximum(boxes[:, :, 0], sb[:, 0])
        hi = np.minimum(boxes[:, :, 1], sb[:, 1])
        meets = ~np.any(hi <= lo, axis=1)
        covers = meets & self._covered(centers, radii)
        vals[covers], errs[covers] = self._support_mass
        rest = np.flatnonzero(meets & ~covers)
        state = self.hull_state(G.box_corners(boxes[rest]))
        inside = rest[state == "inside"]
        if inside.size:
            vals[inside], errs[inside] = self._polar_ball_mass(
                centers[inside], radii[inside])
        for i in rest[state == "cut"]:
            vals[i], errs[i] = self._section_ball_mass(
                G.Ball(centers[i], radii[i]), lo[i], hi[i])
        return vals, errs

    def _polar_ball_mass(self, centers: np.ndarray, radii: np.ndarray):
        """(values, errors) of balls in the smooth region, by the unit-ball
        polar rule.

        The value is the fine rule's; the error is its distance from the
        coarse rule's plus a rounding floor. The balls' bounding boxes are
        "inside", so both rules are `_image_sums` of the shared nodes.
        """
        g = self.group
        nodes, w_fine, w_coarse = G.unit_ball_rule(g)
        k = w_fine.size
        fine, coarse = self._image_sums(
            centers, radii, nodes,
            ((w_fine, slice(k)), (w_coarse, slice(k, None)))).T
        scale = np.array([r ** g.hom_dim for r in radii])
        fine, coarse = scale * fine, scale * coarse
        return fine, abs(fine - coarse) + _ROUNDING * abs(fine)

    def _image_sums(self, centers: np.ndarray, radii: np.ndarray,
                    nodes: np.ndarray, rules: tuple,
                    inside: bool = True) -> np.ndarray:
        """Each rule's sum of the density at the node images
        c_i * delta_(r_i)(nodes) of each center c_i and radius r_i (see
        `groups.images`): (m, len(rules)). Rule j is a pair (w_j, at_j)
        of weights and the positions in ``nodes`` of their nodes, a slice
        or an index array: the fine and coarse unit-ball rules on their
        own runs of nodes, or the compressed eta-rule's Q4 on a subset of
        Q6's nodes.

        ``inside`` images lie in the smooth region and take
        `density_inside`; a declared constant there takes each rule's
        `constant_sum`, with no density value. Other images take
        `density_at`. Images share blocks of at most _BLOCK_ROWS nodes, and
        each image's sums are its own (see `quadrature.row_sums`).
        """
        g, n_nodes = self.group, nodes.shape[0]
        out = np.empty((radii.size, len(rules)))
        if inside and self.constant is not None:
            out[:] = [self.constant_sum(w) for w, _ in rules]
            return out
        density = self.density_inside if inside else self.density_at
        per = max(1, _BLOCK_ROWS // n_nodes)
        for start in range(0, radii.size, per):
            block = slice(start, start + per)
            y = G.images(g, centers[block], radii[block], nodes)
            f = density(y.reshape(-1, g.total_dim)).reshape(-1, n_nodes)
            for j, (w, at) in enumerate(rules):
                out[block, j] = row_sums(w, f[:, at])
        return out

    def _section_ball_mass(self, ball: G.Ball | None, lo: np.ndarray,
                           hi: np.ndarray, density=None):
        """Mass of a ball across a jump (``ball`` None: of the box), by
        vertical sections of the box [lo, hi] (see `_section_rule`).

        The value is the fine rule's of _SECTION_RULES; the error is its
        distance from the coarse rule's plus a rounding floor. ``density``
        evaluates the density at the nodes (default `density_at`).
        """
        density = density or self.density_at
        fine, coarse = (weighted_sum(w, density(pts)) for pts, w in (
            self._section_rule(lo, hi, r, ball) for r in _SECTION_RULES))
        return fine, abs(fine - coarse) + _ROUNDING * abs(fine)

    def _section_rule(self, lo: np.ndarray, hi: np.ndarray, rule: tuple,
                      ball: G.Ball | None = None):
        """Nodes (N, n) and weights (N,) of a section rule on the box
        [lo, hi], ``ball`` None or its part in ``ball``.

        ``rule`` is (panels per horizontal axis, nodes per panel, panels
        per section interval). The horizontal axes of the box take
        Gauss-Legendre panels, so its horizontal faces are panel edges.
        Each vertical line meets the density in the intervals of
        ``sections``, capped by the ball's own section, and every interval
        takes its panels of Gauss-Legendre nodes
        (`quadrature.section_pieces`).
        """
        n_panels, order, n_sub = rule
        heads, w_cols = tensor_rule(
            [gauss_legendre(a, b, n_panels, order)
             for a, b in zip(lo[:-1], hi[:-1])] + [(np.zeros(1), np.ones(1))])
        s_lo, s_hi = self.sections(heads, 1.0)
        if ball is not None:
            s_lo, s_hi = _cap(s_lo, s_hi,
                              *_ball_section(self.group, heads, 1.0, ball))
        return section_pieces(heads, w_cols, s_lo, s_hi, s_lo < s_hi, n_sub,
                              order)

    @cached_property
    def _support_convolution_rule(self):
        """`_convolution_rule` of the whole support box."""
        pts, w = self._section_rule(*self.support_box.T, _CONVOLUTION_RULE)
        return pts, w * self.density_at(pts)

    @cached_property
    def _rule_cells(self):
        """Cells of the whole-box rule (y_i, wf_i) of `_convolution_rule`:
        the bounding boxes (K, n, 2) of their nodes and their sums of
        max(wf_i, 0) (K,), cells without positive weight left out.

        A node's cell on each axis is its slot among _CELL_SPLIT times that
        axis's panels of _CONVOLUTION_RULE (horizontal panels, section
        panels on the last axis), laid evenly over the support box; an axis
        of zero width is one slot.
        """
        y, wf = self._support_convolution_rule
        n_panels, _, n_sub = _CONVOLUTION_RULE
        n = self.group.total_dim
        box = self.support_box
        width = np.ptp(box, axis=1)
        counts = np.where(width > 0.0, np.array([n_panels] * (n - 1) + [n_sub])
                          * _CELL_SPLIT, 1)
        per_unit = np.divide(counts, width, out=np.zeros(n), where=width > 0.0)
        slot = ((y - box[:, 0]) * per_unit).astype(np.intp)
        cell = np.ravel_multi_index(np.clip(slot, 0, counts - 1).T, counts)
        lo = np.full((n, counts.prod()), np.inf)
        hi = np.full((n, counts.prod()), -np.inf)
        for axis in range(n):
            np.minimum.at(lo[axis], cell, y[:, axis])
            np.maximum.at(hi[axis], cell, y[:, axis])
        weight = np.bincount(cell, np.maximum(wf, 0.0), counts.prod())
        keep = weight > 0.0
        return np.stack([lo.T[keep], hi.T[keep]], axis=-1), weight[keep]

    def _convolution_rule(self, ball: G.Ball | None = None):
        """Nodes (N, n) and weights times density values of the section
        rule _CONVOLUTION_RULE on the support box (cached), or on its part
        in ``ball``: the support box clipped to the ball's bounding box,
        each vertical section capped by the ball's."""
        if ball is None:
            return self._support_convolution_rule
        clipped = self._clip_box(G.ball_bounding_box(self.group, ball))
        if clipped is None:
            return np.zeros((0, self.group.total_dim)), np.zeros(0)
        pts, w = self._section_rule(*clipped, _CONVOLUTION_RULE, ball)
        return pts, w * self.density_at(pts)


class MixtureMeasure(BoundaryMeasure):
    """Finite sum of component measures; each operation maps every one."""

    def __init__(self, group: G.GroupDescriptor, components):
        super().__init__(group)
        comps = tuple(components)
        if not comps:
            raise MeasureError("mixture needs at least one component")
        for c in comps:
            if c.group.label != group.label:
                raise MeasureError("mixture components must share the group")
        self.components = comps

    def parts(self) -> tuple:
        return tuple(p for c in self.components for p in c.parts())

    @property
    def total_mass(self) -> float:
        return float(sum(c.total_mass for c in self.components))

    def _ball_masses(self, centers: np.ndarray, radii: np.ndarray):
        """The components' values and errors, summed in component order."""
        vals, errs = zip(*(c._ball_masses(centers, radii)
                           for c in self.components))
        return sum(vals), sum(errs)

    def _each(self, op: str, arg) -> "MixtureMeasure":
        """The mixture of ``op(arg)`` of every component."""
        return MixtureMeasure(
            self.group, [getattr(c, op)(arg) for c in self.components])

    translate = partialmethod(_each, "translate")
    dilate = partialmethod(_each, "dilate")
    restrict = partialmethod(_each, "restrict")
    restrict_complement = partialmethod(_each, "restrict_complement")


# ---------------------------------------------------------------------------
# measure operations
# ---------------------------------------------------------------------------

def _point(g: G.GroupDescriptor, x, what: str) -> np.ndarray:
    """``x`` as a point of ``g``: total_dim finite coordinates."""
    x = np.array(x, dtype=float)
    if x.shape != (g.total_dim,) or not np.all(np.isfinite(x)):
        raise GroupError(
            f"{what} must be {g.total_dim} finite coordinates, got {x.tolist()}")
    return x


def measure_ball(mu: BoundaryMeasure, ball: G.Ball):
    """Mass of a quasi-metric ball; returns (value, error_estimate).

    The one-ball case of the measure's ``_ball_masses``, which
    `ball_masses` and `strong_derivative` call once for many balls: a
    ball's value and error do not depend on the other balls of a call.
    """
    center = _point(mu.group, ball.center, "ball center")
    vals, errs = mu._ball_masses(center[None, :],
                                 np.array([ball.radius], dtype=float))
    return float(vals[0]), float(errs[0])


def ball_masses(mu: BoundaryMeasure, center, radii) -> np.ndarray:
    """Masses of the balls B(center, r), r in ``radii``, without error
    estimates, from one ``_ball_masses`` call: the values of `measure_ball`,
    bit for bit. Atoms take their distances to the center once, and a
    density classifies every ball in one hull test."""
    center = _point(mu.group, center, "ball center")
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or radii.size == 0:
        raise GroupError(f"ball radii must be a non-empty 1-d array, got "
                         f"shape {radii.shape}")
    if not np.all((radii > 0) & (radii < math.inf)):
        raise GroupError(f"ball radii must be positive and finite, got "
                         f"{np.array2string(radii, threshold=8)}")
    return mu._ball_masses(np.broadcast_to(center, (radii.size, center.size)),
                           radii)[0]


def dilate_measure(mu: BoundaryMeasure, r: float) -> BoundaryMeasure:
    """nu_r(E) = r^(-Q) nu(delta_r(E)).

    Atoms move by delta_(1/r) with weights scaled by r^(-Q); a density f
    becomes f o delta_r on the box delta_(1/r)(box).
    """
    if not (r > 0) or not math.isfinite(r):
        raise GroupError(f"dilation factor must be positive, got {r}")
    return mu.dilate(r)


def translate_measure(mu: BoundaryMeasure, x0) -> BoundaryMeasure:
    """(tau_x0 nu)(E) = nu(x0 * E); atoms move by p -> x0^-1 * p."""
    x0 = _point(mu.group, x0, "translation")
    if np.all(x0 == 0.0):
        return mu
    return mu.translate(x0)


def restrict(mu: BoundaryMeasure, ball: G.Ball) -> BoundaryMeasure:
    """Restriction of the measure to a ball."""
    _point(mu.group, ball.center, "ball center")
    return mu.restrict(ball)


def restrict_complement(mu: BoundaryMeasure, ball: G.Ball) -> BoundaryMeasure:
    """Restriction to the complement of a ball (no cancellation in tails)."""
    _point(mu.group, ball.center, "ball center")
    return mu.restrict_complement(ball)




# ---------------------------------------------------------------------------
# strong derivative
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class DerivativeTrace:
    """Quotient trace mu(x0 * delta_r(B)) / m(x0 * delta_r(B)) over a family.

    ``errors`` are the ball-mass error estimates divided by the same ball
    volumes. ``estimate``, ``oscillation`` and ``converged`` are
    ``decisions.trace_decision`` of the quotients.
    """

    ball_ids: tuple
    radii: np.ndarray
    quotients: np.ndarray  # shape (n_balls, n_radii)
    errors: np.ndarray     # ball-mass error / m(ball), same shape
    estimate: float
    oscillation: float
    converged: bool
    vertex: np.ndarray = field(default=None)


def default_ball_family(g: G.GroupDescriptor) -> list[G.Ball]:
    """Centered unit ball plus eight off-center balls at varied scales."""
    dirs = G.unit_directions(g, 8)
    centers_d = [0.3, 0.6, 0.9, 1.2, 0.5, 0.8, 1.1, 0.4]
    radii = [0.5, 0.75, 1.25, 0.6, 1.0, 0.9, 0.7, 1.1]
    fam = [G.Ball(np.zeros(g.total_dim), 1.0)]
    for k in range(8):
        fam.append(G.Ball(G.dilate(g, centers_d[k], dirs[k]), radii[k]))
    return fam


def strong_derivative(mu: BoundaryMeasure, x0, ball_family=None,
                      radii=None) -> DerivativeTrace:
    """Estimate the strong derivative of mu at x0 over a finite ball family.

    Quotients are mu(x0 * delta_r(B)) / m(x0 * delta_r(B)) for each family
    ball B along the radius schedule, which must be positive, finite,
    strictly decreasing and at least the decision window long. Without
    ``radii`` it is ``decisions.SCALES.radii`` at the group's default
    restrict radius (``GroupDescriptor.restrict_radius``), the radii a
    scenario without its own restrict radius reads. Every ball's mass
    comes from one ``_ball_masses`` call, with `measure_ball`'s bits. `decisions.trace_decision` gives the
    estimate and the convergence call; the universal-quantifier side is
    approximated by the family, which the trace discloses.
    """
    g = mu.group
    x0 = np.asarray(x0, dtype=float)
    fam = list(ball_family) if ball_family is not None else default_ball_family(g)
    if not fam:
        raise MeasureError("ball family must be non-empty")
    if not any(
        np.all(b.center == 0.0) and b.radius == 1.0 for b in fam
    ):
        raise MeasureError("ball family must include the centered unit ball")
    r = np.asarray(radii if radii is not None
                   else SCALES.radii(g.restrict_radius), dtype=float)
    if r.ndim != 1:
        raise MeasureError(f"radius schedule must be a 1-d array, got shape "
                           f"{r.shape}")
    if not np.all((r > 0) & (r < math.inf)):
        raise MeasureError("radius schedule must be positive and finite, got "
                           f"{np.array2string(r, threshold=8)}")
    if r.size < TABLE.window or np.any(np.diff(r) >= 0):
        raise MeasureError("radius schedule must be decreasing, >= window long")
    for ball in fam:
        _point(g, ball.center, "ball center")
    mu0 = translate_measure(mu, x0)
    # delta_r(B(c, s)) = B(delta_r(c), r s) for each family ball and radius,
    # ball-major, with the bits of `groups.dilate_ball`
    centers = (np.array([b.center for b in fam])[:, None, :]
               * G.dilation_factors(g, r)).reshape(-1, g.total_dim)
    radii = (r * np.array([[b.radius] for b in fam])).ravel()
    vol = np.array([G.ball_volume(g, rr) for rr in radii])
    vals, errs = mu0._ball_masses(centers, radii)
    quot = (vals / vol).reshape(len(fam), r.size)
    errs = (errs / vol).reshape(len(fam), r.size)
    dec = trace_decision(quot)
    return DerivativeTrace(
        ball_ids=tuple(f"ball{i}" for i in range(len(fam))),
        radii=r,
        quotients=quot,
        errors=errs,
        estimate=dec.estimate,
        oscillation=dec.oscillation,
        converged=dec.converged,
        vertex=x0,
    )


def trace_to_csv(trace: DerivativeTrace) -> str:
    """CSV serialization with columns ball_id, r, quotient."""
    buf = io.StringIO()
    buf.write("ball_id,r,quotient\n")
    for bi, bid in enumerate(trace.ball_ids):
        for ri, rr in enumerate(trace.radii):
            buf.write(f"{bid},{float(rr)!r},{float(trace.quotients[bi, ri])!r}\n")
    return buf.getvalue()
