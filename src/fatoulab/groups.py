"""Stratified (Carnot) group descriptors and their homogeneous geometry.

A stratified group is described in exponential coordinates of the first and
second layer: group multiplication, inverse, anisotropic dilations delta_r
(scaling layer j by r^j), a homogeneous quasi-norm, Lebesgue measure as Haar
measure, and the homogeneous dimension Q (so m(delta_r E) = r^Q m(E)).

A group is one factory. It fills in a `GroupDescriptor` with everything that
is particular to the group: its law, its gauge, the dimension of each
layer (which fixes the rest of its grading), a polar chart of the unit
sphere {d = 1} (with the node counts of its convolution rule and of the
unit-ball rules that density ball masses use), a box containing the unit
ball, and the axis specs of its one eta-grid, which serves every gamma
integral. Every other module reads these fields and never asks which group
it has; the quadrature rules themselves are built by
:mod:`fatoulab.quadrature`. Horizontal flows and Brownian increments follow
from the law: the flow of the i-th horizontal field is x -> x * (h e_i).

Every sum the library compares runs over fixed nodes moved by the two
symmetries of a homogeneous group, left translation and dilation:
y = c * delta_r(eta). `images` is the one builder of such images, for many
(c, r) at once, with the factor table `dilation_factors` (Python-float
powers r^j, as `dilate` takes them), so an image has the same bits alone
or in a batch. `box_corners` is the one builder of box corners, and a
ball's bounding box is the hull of the `images` of the unit box's corners.

Shipped instances:

* ``euclidean_group(n)`` for n in {1, 2, 3}: abelian, step 1, Euclidean norm,
  Q = n.
* ``heisenberg_group()``: the first Heisenberg group, coordinates (x, y, s)
  with product s'' = s + s' + 2(y x' - x y'), dilations (r x, r y, r^2 s),
  Koranyi gauge (|z|^4 + 16 s^2)^(1/4), Q = 4.

The quasi-triangle constant of the Heisenberg gauge is NOT assumed to be 1.
It was found numerically (large-sample maximization of d(x*y)/(d(x)+d(y))
plus local refinement, `_certify_quasi_triangle`); the descriptor stores the
result and the search's log, and a tier-1 test reruns the search and checks
that it reproduces both bit for bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .errors import GroupError, NumericsError
from .quadrature import SphereChart, ball_rule, point_array

__all__ = [
    "GROUP_LABELS",
    "GroupDescriptor",
    "Ball",
    "euclidean_group",
    "heisenberg_group",
    "get_group",
    "mul",
    "inverse",
    "dilate",
    "norm",
    "dist",
    "ball_volume",
    "ball_contains",
    "ball_bounding_box",
    "ball_bounding_boxes",
    "box_corners",
    "dilation_factors",
    "images",
    "dilate_ball",
    "translate_ball",
    "unit_ball_rule",
    "unit_directions",
]


@dataclass(frozen=True)
class GroupDescriptor:
    """Immutable description of a stratified group instance.

    ``quasi_triangle_const`` is the constant C with
    d(x*y) <= C (d(x) + d(y)); ``certification`` records how it was
    obtained. On R^n it is the triangle inequality. On the Heisenberg group
    it is the stored log of the search that found C: method, seed,
    n_samples, the sampled and refined maxima, the argmax (x, y) and the
    relative margin added on top of the refined maximum.
    ``unit_box`` holds rows (lo, hi) of an axis-aligned box containing
    B(0,1); ``sphere`` is the polar chart of {d = 1}, and carries the
    (radial, polar, azimuth) node counts of the fine and coarse unit-ball
    rules (`unit_ball_rule`: 12 x (12 x 24) = 3,456 and 8 x (8 x 16) = 1,024
    nodes on the Heisenberg group and on R^3). ``eta_grid`` gives, per
    axis, the composite Gauss-Legendre rule (lo, hi, n_panels, order) of the
    eta-grid, the one gamma-weighted grid of the heat extension,
    `kernel_mass` and `check_semigroup`.

    ``layer_dims`` holds dim V_j of each layer j, and fixes the rest of the
    grading (Folland-Stein, Hardy Spaces on Homogeneous Groups, 1982): the
    ``step``, the dimension ``total_dim``, the homogeneous dimension
    ``hom_dim`` Q = sum_j j dim V_j, each coordinate's dilation exponent
    ``layer_exponents`` and the first layer's dimension ``n_horizontal``,
    whose coordinates come first. They are derived at first use, and so is
    the descriptor's `unit_ball_rule`.

    The last coordinate is the column axis: it is central, so a left
    translation moves the vertical line {p + v e_last} onto the vertical
    line {x * p + v e_last}, point for point, and a dilation delta_r scales
    v by r^(last exponent). ``section`` is the half-height of the unit
    ball's vertical sections: B(0, 1) meets the line through (w, 0) in
    |v| < section(rho), rho = |w| the Euclidean norm of the other
    coordinates, and misses it for rho >= 1: sqrt(1 - rho^4) / 4 on the
    Heisenberg group and sqrt(1 - rho^2) on R^n. B(c, R) = c * delta_R(B(0, 1))
    then meets every vertical line in one interval of known ends.
    ``default_box`` holds rows (lo, hi) of the support box of a scenario
    density whose config gives none.

    A density is assumed smooth inside its support box: its clips (the box
    edges, and the balls of ``restrict`` and ``restrict_complement``) are
    where it may jump. The heat extension integrates each eta-column
    between the exact limits of these clips (see
    ``DensityMeasure.sections``) wherever the image of the eta-box meets
    one of them. A ball mass uses the unit-ball rule only where the ball's
    bounding box lies strictly inside all of them; a ball they cut is
    integrated section by section, each vertical line between the exact
    limits of the clips and of the ball itself.

    Every ball is convex in exponential coordinates: the gauge's sublevel
    set B(0, r) is convex (on H^1, |z|^4 + 16 s^2 is a convex function) and
    left translation x -> c * x is affine, so B(c, r) = c * B(0, r) is
    convex. A new gauge must keep this: ball masses of densities treat a
    ball that holds the corners of a box as holding the whole box, and a
    ball's vertical sections as single intervals.

    ``mul_fn`` and ``norm_fn`` act row by row on arrays whose last axis
    holds the coordinates, broadcasting over the leading axes, and keep
    their operands' layout: on the column-major point arrays of
    :mod:`fatoulab.quadrature` they return column-major arrays, and a row's
    value does not depend on the layout, nor on whether the row is alone
    or one of many. The coordinates are exponential coordinates of a
    nilpotent group, where exp(X)^-1 = exp(-X) (Folland-Stein, Hardy
    Spaces on Homogeneous Groups, 1982): the inverse is negation, exact,
    and `inverse` and `dist` take it so. The gauge must be symmetric,
    N(-x) = N(x), so that d(x, y) = N(y^-1 * x) and d(y, x) give the same
    bits; `dist` to many points passes them first, so that only the single
    point is negated.

    ``mul_cols`` is the same product on points given as n coordinate
    columns that broadcast against each other (on a tensor grid, a
    coordinate that varies along one axis is an array along that axis
    alone), with the bits of ``mul_fn`` on the broadcast points: each
    column is computed in the operation order of its row form. On a tensor
    grid this takes each sum or product once per axis, or per pair of
    axes, instead of once per node.
    """

    label: str
    layer_dims: tuple[int, ...]
    quasi_triangle_const: float
    unit_ball_volume: float
    certification: dict = field(compare=False, repr=False)
    mul_fn: Callable = field(compare=False, repr=False)
    norm_fn: Callable = field(compare=False, repr=False)
    mul_cols: Callable = field(compare=False, repr=False)
    unit_box: tuple = field(compare=False, repr=False)
    sphere: SphereChart = field(compare=False, repr=False)
    eta_grid: tuple = field(compare=False, repr=False)
    section: Callable = field(compare=False, repr=False)
    default_box: tuple = field(compare=False, repr=False)

    @property
    def restrict_radius(self) -> float:
        """The default localization radius 1 / C_L: a scenario without its
        own restricts its measure to B(0, 1 / C_L), and the library's
        traces read ``decisions.SCALES`` at this radius by default."""
        return 1.0 / self.quasi_triangle_const

    @cached_property
    def step(self) -> int:
        """The number of layers."""
        return len(self.layer_dims)

    @cached_property
    def total_dim(self) -> int:
        """The topological dimension, sum_j dim V_j."""
        return sum(self.layer_dims)

    @cached_property
    def hom_dim(self) -> int:
        """The homogeneous dimension Q = sum_j j dim V_j."""
        return sum(j * d for j, d in enumerate(self.layer_dims, 1))

    @cached_property
    def layer_exponents(self) -> tuple[int, ...]:
        """The dilation exponent j of each coordinate, in layer j."""
        return tuple(j for j, d in enumerate(self.layer_dims, 1)
                     for _ in range(d))

    @cached_property
    def n_horizontal(self) -> int:
        """The dimension of the first layer, whose coordinates come
        first."""
        return self.layer_dims[0]

    @cached_property
    def unit_ball_rule(self) -> tuple:
        """`unit_ball_rule` of the descriptor, built at its first use."""
        nodes, weights = [], []
        for counts in (self.sphere.ball_fine, self.sphere.ball_coarse):
            x, w = ball_rule(self.sphere, counts, self.layer_exponents,
                             self.hom_dim)
            total = math.fsum(w)
            if (abs(total - self.unit_ball_volume)
                    > 1e-12 * self.unit_ball_volume):
                raise NumericsError(
                    f"unit-ball rule {counts} of {self.label} has total "
                    f"weight {total!r}, not m(B(0,1)) = "
                    f"{self.unit_ball_volume!r}", estimate=total)
            nodes.append(x)
            weights.append(w)
        return point_array(np.vstack(nodes).T), *weights


@dataclass(frozen=True, eq=False)
class Ball:
    """Quasi-metric ball B(center, radius) = {y : d(center, y) < radius}."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        center = np.asarray(self.center, dtype=float)
        if not 0 < self.radius < math.inf or not np.all(np.isfinite(center)):
            raise GroupError("ball needs a finite center and a positive finite "
                             f"radius, got {center.tolist()}, {self.radius}")
        object.__setattr__(self, "center", center)


# ---------------------------------------------------------------------------
# group operations (vectorized over leading axes)
# ---------------------------------------------------------------------------

def mul(g: GroupDescriptor, x, y) -> np.ndarray:
    """Group product x * y, broadcasting over leading axes."""
    return g.mul_fn(np.asarray(x, dtype=float), np.asarray(y, dtype=float))


def inverse(g: GroupDescriptor, x) -> np.ndarray:
    """Group inverse x^(-1) = -x (see `GroupDescriptor`)."""
    return -np.asarray(x, dtype=float)


def dilate(g: GroupDescriptor, r: float, x) -> np.ndarray:
    """Anisotropic dilation delta_r(x); layer j scales by r^j. Requires r > 0."""
    if not (r > 0) or not math.isfinite(r):
        raise GroupError(f"dilation factor must be positive and finite, got {r}")
    scale = np.array([r ** e for e in g.layer_exponents])
    return np.asarray(x, dtype=float) * scale


def norm(g: GroupDescriptor, x) -> np.ndarray | float:
    """Homogeneous quasi-norm d(x); vectorized over leading axes."""
    return g.norm_fn(np.asarray(x, dtype=float))


def dist(g: GroupDescriptor, x, y) -> np.ndarray | float:
    """Quasi-distance d(x, y) = d(y^(-1) * x).

    Symmetric, so the distances from one point to many are taken with the
    many as ``x``: only the one point is negated.
    """
    return g.norm_fn(g.mul_fn(-np.asarray(y, dtype=float),
                              np.asarray(x, dtype=float)))


def ball_volume(g: GroupDescriptor, radius: float) -> float:
    """Haar measure of a quasi-metric ball: m(B(x, r)) = m(B(0,1)) r^Q."""
    if not 0 < radius < math.inf:
        raise GroupError(f"ball radius must be positive and finite, "
                         f"got {radius}")
    return g.unit_ball_volume * radius ** g.hom_dim


def ball_contains(g: GroupDescriptor, ball: Ball, pts) -> np.ndarray:
    """Boolean membership mask for points (strict inequality)."""
    return np.asarray(dist(g, pts, ball.center)) < ball.radius


def dilate_ball(g: GroupDescriptor, r: float, ball: Ball) -> Ball:
    """delta_r(B(c, s)) = B(delta_r(c), r s)."""
    return Ball(dilate(g, r, ball.center), r * ball.radius)


def translate_ball(g: GroupDescriptor, x0, ball: Ball) -> Ball:
    """x0 * B(c, s) = B(x0 * c, s)."""
    return Ball(mul(g, x0, ball.center), ball.radius)


def dilation_factors(g: GroupDescriptor, radii) -> np.ndarray:
    """The dilation factors r^e of each radius r of ``radii``: a table
    (m, n), row i scaling layer j by r_i^j.

    The factors are Python-float powers, so a point scaled by row i has
    the bits of `dilate` at r_i, and a row does not depend on the others.
    A factor past the largest float is a GroupError naming the radius.
    """
    radii = np.asarray(radii, dtype=float).tolist()
    try:
        return np.array([r ** e for r in radii for e in g.layer_exponents]
                        ).reshape(-1, g.total_dim)
    except OverflowError:
        raise GroupError(f"dilation factors of radius {max(radii)!r} "
                         "overflow") from None


def images(g: GroupDescriptor, centers, radii, nodes) -> np.ndarray:
    """c_i * delta_(r_i)(nodes) for each center c_i and radius r_i: points
    (m, N, n) for ``centers`` (m, n), or one center (n,) for every radius,
    and ``nodes`` (N, n).

    Each coordinate is one contiguous block, so that ``reshape(m * N, n)``
    is column-major (see `quadrature.point_array`). The factors are
    `dilation_factors`, so each image has the bits of ``mul(g, c_i,
    dilate(g, r_i, nodes))``, whether its row is alone or in a batch.
    """
    # both operands coordinate-major (n, m, N), so that the product is too
    scaled = np.multiply(dilation_factors(g, radii).T[:, :, None],
                         np.asarray(nodes, dtype=float).T[:, None, :],
                         order="C")
    c = np.ascontiguousarray(np.asarray(centers, dtype=float).T)
    return mul(g, c.reshape(g.total_dim, -1, 1).transpose(1, 2, 0),
               scaled.transpose(1, 2, 0))


def ball_bounding_box(g: GroupDescriptor, ball: Ball) -> np.ndarray:
    """Axis-aligned bounding box of a ball, shape (N, 2).

    Left translation is affine in exponential coordinates, so the box is the
    hull of the translated corners of the centered ball's box (exact).
    """
    return ball_bounding_boxes(g, ball.center[None, :], [ball.radius])[0]


def ball_bounding_boxes(g: GroupDescriptor, centers, radii) -> np.ndarray:
    """`ball_bounding_box` of each ball B(centers[i], radii[i]), shape
    (m, N, 2), in one pass: the hull of the `images` of the unit box's
    corners, so each box has the bits of a call with its ball alone."""
    moved = images(g, centers, radii, box_corners(np.array(g.unit_box)))
    return np.stack([moved.min(axis=1), moved.max(axis=1)], axis=-1)


def box_corners(boxes) -> np.ndarray:
    """The 2^n corners (..., 2^n, n) of each box (..., n, 2) along the
    leading axes, the first axis slowest: the one corner builder of the
    package."""
    boxes = np.asarray(boxes, dtype=float)
    n = boxes.shape[-2]
    choice = np.array(list(itertools.product((0, 1), repeat=n)))
    return boxes[..., np.arange(n), choice]


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------

def _eu_mul(a, b):
    return a + b


def _eu_norm(a):
    return np.sqrt((a * a).sum(axis=-1))


def _eu_mul_cols(a, b):
    return [ai + bi for ai, bi in zip(a, b)]


def _h1_mul(a, b):
    # the coordinate sums, in the operands' layout, then 2 (y x' - x y')
    # added in place to the last column: s'' = (s + s') + 2 (y x' - x y')
    out = np.add(a, b, order="K")
    c = a[..., 1] * b[..., 0]
    c -= a[..., 0] * b[..., 1]
    c *= 2.0
    out[..., 2] += c
    return out


def _h1_mul_cols(a, b):
    # `_h1_mul` by columns: s'' = (s + s') + 2 (y x' - x y')
    c = a[1] * b[0] - a[0] * b[1]
    return [a[0] + b[0], a[1] + b[1], (a[2] + b[2]) + c * 2.0]


def _h1_norm(a):
    # ((x^2 + y^2)^2 + 16 s^2)^(1/4), updated in place; one point goes as a
    # row of an array, as numpy's scalar power has other bits than its
    # array power
    if a.ndim == 1:
        return _h1_norm(a[None])[0]
    x, y, s = a[..., 0], a[..., 1], a[..., 2]
    n4 = x * x
    n4 += y * y
    n4 *= n4
    s2 = s * s
    s2 *= 16.0
    n4 += s2
    n4 **= 0.25
    return n4


def _certify_quasi_triangle(mul_fn, norm_fn, dim, center_slots, seed=20260823,
                            n_samples=1_200_000, n_refine=24):
    """Empirically certify C with d(x*y) <= C (d(x)+d(y)).

    Maximizes the ratio over a large mixed-scale sample, then refines the top
    candidates with Nelder-Mead. Returns (C, log). A diagnostic: the group
    factories store its result and never call it.
    """
    from scipy.optimize import minimize

    rng = np.random.default_rng(seed)
    scale_vec = np.ones(dim)
    best_ratio = 0.0
    best_pairs = []
    per_batch = n_samples // 6
    for scale in (0.3, 1.0, 3.0):
        sv = scale_vec * scale
        sv[center_slots] = scale ** 2
        for _ in range(2):
            x = rng.normal(size=(per_batch, dim)) * sv
            y = rng.normal(size=(per_batch, dim)) * sv
            ratio = norm_fn(mul_fn(x, y)) / (norm_fn(x) + norm_fn(y))
            order = np.argsort(ratio)[-4:]
            for i in order:
                best_pairs.append((float(ratio[i]), x[i].copy(), y[i].copy()))
            best_ratio = max(best_ratio, float(ratio[order[-1]]))

    def neg(v):
        xx, yy = v[:dim], v[dim:]
        denom = norm_fn(xx) + norm_fn(yy)
        if denom <= 0:
            return 0.0
        return -float(norm_fn(mul_fn(xx, yy)) / denom)

    best_pairs.sort(key=lambda t: -t[0])
    refined = best_ratio
    argmax = None
    for _, x0, y0 in best_pairs[:n_refine]:
        res = minimize(
            neg,
            np.concatenate([x0, y0]),
            method="Nelder-Mead",
            options={"xatol": 1e-12, "fatol": 1e-15, "maxiter": 8000, "maxfev": 16000},
        )
        if -res.fun > refined:
            refined = -res.fun
            argmax = res.x.copy()
    const = refined * (1.0 + 1e-9)
    log = {
        "method": "sampled-max + Nelder-Mead refinement",
        "n_samples": n_samples,
        "seed": seed,
        "sampled_max": best_ratio,
        "refined_max": refined,
        "argmax": None if argmax is None else argmax.tolist(),
        "margin": 1e-9,
    }
    return const, log


def _circle(p, phi):
    """Unit circle; it has no polar parameter."""
    return np.stack([np.cos(phi), np.sin(phi)], axis=-1)


def _round_section(rho):
    """Half-height sqrt(1 - rho^2) of the unit Euclidean ball's sections."""
    return np.sqrt(np.maximum(1.0 - rho * rho, 0.0))


def _koranyi_section(rho):
    """Half-height sqrt(1 - rho^4) / 4 of the Koranyi unit ball's sections."""
    return 0.25 * np.sqrt(np.maximum(1.0 - rho ** 4, 0.0))


def _polar_stack(rho, phi, last):
    """Points (rho cos phi, rho sin phi, last), broadcast over p and phi."""
    shape = np.broadcast_shapes(np.shape(rho), np.shape(phi))
    return np.stack(
        [rho * np.cos(phi), rho * np.sin(phi), np.broadcast_to(last, shape)],
        axis=-1,
    )


def _round_sphere(u, phi):
    """Unit 2-sphere with u = cos(polar angle)."""
    return _polar_stack(np.sqrt(1.0 - u ** 2), phi, u)


def _koranyi_sphere(psi, phi):
    """Koranyi sphere z = sqrt(cos psi) e^{i phi}, s = sin(psi) / 4."""
    return _polar_stack(np.sqrt(np.cos(psi)), phi, np.sin(psi) / 4.0)


_EUCLIDEAN_SPHERES = {
    1: SphereChart(None, ball_fine=(12, 0, 0), ball_coarse=(8, 0, 0)),
    2: SphereChart(_circle, coarse=(0, 48),
                   ball_fine=(12, 0, 24), ball_coarse=(8, 0, 16)),
    3: SphereChart(_round_sphere, polar=(-1.0, 1.0), spread=(-1.0, 1.0),
                   coarse=(16, 24),
                   ball_fine=(12, 12, 24), ball_coarse=(8, 8, 16)),
}


@lru_cache(maxsize=None)
def euclidean_group(n: int) -> GroupDescriptor:
    """Abelian group R^n with Euclidean norm; n in {1, 2, 3}."""
    if n not in (1, 2, 3):
        raise GroupError(f"euclidean instances ship for n in 1..3, got {n}")
    vols = {1: 2.0, 2: math.pi, 3: 4.0 * math.pi / 3.0}
    eta_panels = {1: 12, 2: 6, 3: 4}[n]
    return GroupDescriptor(
        label=f"euclidean:{n}",
        layer_dims=(n,),
        quasi_triangle_const=1.0,
        unit_ball_volume=vols[n],
        certification={"method": "triangle inequality holds exactly", "value": 1.0},
        mul_fn=_eu_mul,
        norm_fn=_eu_norm,
        mul_cols=_eu_mul_cols,
        unit_box=((-1.0, 1.0),) * n,
        sphere=_EUCLIDEAN_SPHERES[n],
        eta_grid=((-12.0, 12.0, eta_panels, 16),) * n,
        section=_round_section,
        default_box=((-2.0, 2.0),) * n,
    )


# _certify_quasi_triangle(_h1_mul, _h1_norm, 3, center_slots=[2]) returns
# this constant and this log, bit for bit.
_H1_QUASI_TRIANGLE = 1.4565502169606948
_H1_CERTIFICATION = {
    "method": "sampled-max + Nelder-Mead refinement",
    "n_samples": 1_200_000,
    "seed": 20260823,
    "sampled_max": 1.4555451820040473,
    "refined_max": 1.4565502155041443,
    "argmax": [-2.8385956403765906, -2.81418606997304, -0.9377840421727641,
               2.6305742434795105, -3.0095427472301486, -0.9377839272741952],
    "margin": 1e-9,
}


@lru_cache(maxsize=None)
def heisenberg_group() -> GroupDescriptor:
    """First Heisenberg group with Koranyi gauge; Q = 4, m(B(0,1)) = pi^2/8."""
    return GroupDescriptor(
        label="heisenberg:1",
        layer_dims=(2, 1),
        quasi_triangle_const=_H1_QUASI_TRIANGLE,
        unit_ball_volume=math.pi ** 2 / 8.0,
        certification=_H1_CERTIFICATION,
        mul_fn=_h1_mul,
        norm_fn=_h1_norm,
        mul_cols=_h1_mul_cols,
        unit_box=((-1.0, 1.0), (-1.0, 1.0), (-0.25, 0.25)),
        # the coarea Jacobian of the chart is the constant r^3/4, so the
        # surface density is 1/4
        sphere=SphereChart(_koranyi_sphere, density=0.25,
                           polar=(-0.5 * np.pi, 0.5 * np.pi),
                           spread=(-1.25, 1.25),
                           coarse=(20, 24),
                           ball_fine=(12, 12, 24), ball_coarse=(8, 8, 16)),
        eta_grid=((-7.5, 7.5, 2, 16),) * 2 + ((-30.0, 30.0, 4, 16),),
        section=_koranyi_section,
        default_box=((-1.5, 1.5),) * 3,
    )


_REGISTRY = {
    "euclidean:1": lambda: euclidean_group(1),
    "euclidean:2": lambda: euclidean_group(2),
    "euclidean:3": lambda: euclidean_group(3),
    "heisenberg:1": heisenberg_group,
}
GROUP_LABELS = tuple(_REGISTRY)


def get_group(label: str) -> GroupDescriptor:
    """Look up a shipped group instance by label."""
    try:
        return _REGISTRY[label]()
    except KeyError:
        raise GroupError(
            f"unknown group {label!r}; available: {sorted(_REGISTRY)}"
        ) from None


# ---------------------------------------------------------------------------
# unit-ball rules and directions
# ---------------------------------------------------------------------------

def unit_ball_rule(g: GroupDescriptor):
    """The unit ball's polar rules: (nodes, fine weights, coarse weights).

    ``nodes`` holds the fine rule's nodes followed by the coarse rule's, so
    one evaluation serves both. Built once per descriptor, as its cached
    ``unit_ball_rule``, from the sphere chart's ``ball_fine`` and
    ``ball_coarse`` counts. Raises ``NumericsError`` if either rule's total
    weight misses ``unit_ball_volume`` by more than 1e-12 relative.
    """
    return g.unit_ball_rule


def unit_directions(g: GroupDescriptor, k: int = 8) -> np.ndarray:
    """Deterministic spread of k points on the unit sphere {d = 1}."""
    return g.sphere.directions(k)
