"""The quadrature layer: every grid in fatoulab is built from these rules.

* `point_array`: the one layout of bulk point arrays, (N, n) stored
  column-major, so that each coordinate of every point is one contiguous
  column;
* `gauss_legendre`: composite Gauss-Legendre panels on an interval (radial
  rules, kernel lambda rules, each axis of the eta-grid, and the section
  rules of density masses and convolutions);
* `tensor_rule`: tensor products of one-dimensional rules;
* `SphereChart`: a polar chart of a group's unit sphere {d = 1}, which
  yields its quadrature rules at any node count and its spread of
  deterministic directions;
* `ball_rule`: a ball {d < r_max} in homogeneous polar coordinates,
  radial Gauss-Legendre (optionally weighted by a radial profile) times a
  sphere rule: the unit-ball rules of density ball masses and the
  mollifier's phi-weighted grid;
* `weighted_sum`: sum_i w_i f_i in a fixed order, so that a quadrature
  value does not depend on how many threads the BLAS library runs;
  `row_sums` is the same sum for each row of a block of rows.

Which rule a group uses is data carried by its descriptor (see
:mod:`fatoulab.groups`); nothing here knows about particular groups.

Layout: every rule's nodes, and every other bulk point array (the
section-rule nodes of density masses and convolutions, the mollifier
grid), come out of `point_array`.
The group primitives act row by row and keep their operands' layout, so a
product, gauge or dilation over such an array reads and writes whole
contiguous columns (the Heisenberg law and gauge are written per
coordinate), where a row-major (N, n) array would be read with a stride
of n. Layout moves no value: every primitive computes each
row the same way in either layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

__all__ = ["point_array", "gauss_legendre", "tensor_rule", "SphereChart",
           "ball_rule", "weighted_sum", "row_sums"]

# Rows per block of a long pass over a grid: `weighted_sum`, the eta-grid's
# gamma values and every density pass of the heat extension. Whole-grid
# temporaries (6 MB each on the 262,144-node euclidean:3 eta-grid) can make
# the C allocator hand the heap back to the OS after every evaluation and
# fault it in again on the next; blocks this size are reused in place.
# Every blocked step is row by row, so blocks change no value.
_BLOCK_ROWS = 1 << 15


def point_array(columns) -> np.ndarray:
    """Points (N, n) from their n coordinate columns, stored column-major.

    ``columns`` holds n arrays of N values each; an array of any shape is
    read in C order, so ``np.moveaxis(a, -1, 0)`` of an array ``a`` with
    coordinates on its last axis gives its points in C order of the leading
    axes.
    """
    return np.stack([np.ravel(c) for c in columns]).T


@lru_cache(maxsize=None)
def _leggauss(order: int):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order."""
    return np.polynomial.legendre.leggauss(order)


@lru_cache(maxsize=None)
def _legendre_projection(order: int) -> np.ndarray:
    """The (order, order) matrix taking values at the ``order``
    Gauss-Legendre nodes on [-1, 1] to the Legendre coefficients of their
    interpolant (exact below degree ``order``), computed once per order."""
    xs, ws = gauss_legendre(-1.0, 1.0, 1, order)
    out = ((np.polynomial.legendre.legvander(xs, order - 1) * ws[:, None]).T
           * (np.arange(order)[:, None] + 0.5))
    out.flags.writeable = False
    return out


def gauss_legendre(a: float, b: float, n_panels: int, order: int = 16):
    """Composite Gauss-Legendre rule: ``n_panels`` equal panels on [a, b].

    Returns (nodes, weights), panel by panel, each panel carrying ``order``
    nodes.
    """
    xs, ws = _leggauss(order)
    edges = np.linspace(a, b, n_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (half[:, None] * xs[None, :] + mid[:, None]).ravel()
    weights = (half[:, None] * ws[None, :]).ravel()
    return nodes, weights


def weighted_sum(w: np.ndarray, f: np.ndarray) -> float:
    """sum_i w_i f_i for 1-d arrays, reduced in an order fixed by the length.

    A BLAS dot product splits its sum by thread count, so its last bits
    depend on the thread setting. Here each block of 2^15 products is
    reduced by numpy's pairwise ``add.reduce`` and the block sums are added
    in order; a block's products are the only temporary.
    """
    total = 0.0
    for start in range(0, w.size, _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        total += float(np.add.reduce(w[rows] * f[rows]))
    return total


def row_sums(w: np.ndarray, f: np.ndarray) -> np.ndarray:
    """`weighted_sum` of ``w`` (N,) against each row of ``f`` (k, N), bit
    for bit.

    Up to _BLOCK_ROWS nodes a row is one block: numpy's ``add.reduce``
    along the contiguous rows of ``w * f`` sums each row as it sums that
    row alone, and adding 0.0 maps -0.0 to 0.0 as `weighted_sum`'s start
    does. Longer rows take `weighted_sum` one at a time.
    """
    if w.size > _BLOCK_ROWS:
        return np.array([weighted_sum(w, row) for row in f])
    return 0.0 + np.add.reduce(np.multiply(w, f, order="C"), axis=1)


def tensor_rule(rules):
    """Tensor product of one-dimensional (nodes, weights) rules.

    Returns points (N, d) (see `point_array`) and weights (N,), the first
    axis varying slowest.
    """
    mesh = np.meshgrid(*(nodes for nodes, _ in rules), indexing="ij")
    weights = rules[0][1]
    for _, w in rules[1:]:
        weights = np.multiply.outer(weights, w)
    return point_array(mesh), weights.ravel()


@dataclass(frozen=True, eq=False)
class SphereChart:
    """Polar chart (p, phi) of a unit sphere {d = 1}.

    ``embed(p, phi)`` maps a polar parameter p and an azimuth phi (arrays
    that broadcast against each other) to coordinates, with surface density
    ``density`` = dsigma / (dp dphi). On a circle there is no polar
    parameter: ``polar`` is None and ``embed`` ignores p. ``embed`` None
    marks the sphere of a line, the two points 1 and -1.

    ``polar`` is the range of p that the quadrature rules cover and
    ``spread`` the band of p that `directions` samples. ``coarse`` holds
    the (polar, azimuth) node counts of the mollifier convolution grids.
    ``ball_fine`` and ``ball_coarse`` are (radial, polar, azimuth) node
    counts of the two unit-ball rules (see `ball_rule`) that density ball
    masses use, the coarse one only for the error estimate.
    """

    embed: Callable | None
    density: float = 1.0
    polar: tuple | None = None
    spread: tuple | None = None
    coarse: tuple = (0, 0)
    ball_fine: tuple = (0, 0, 0)
    ball_coarse: tuple = (0, 0, 0)
    _rules: dict = field(default_factory=dict, init=False, repr=False)

    def rule(self, counts: tuple):
        """Cached rule (nodes, weights) with (polar, azimuth) node counts.

        Gauss-Legendre in p times the equispaced azimuth; the total weight
        is the surface measure of the sphere.
        """
        if counts in self._rules:
            return self._rules[counts]
        if self.embed is None:
            out = np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
        else:
            n_polar, n_phi = counts
            phi = np.arange(n_phi) * 2.0 * np.pi / n_phi
            w_phi = np.full(n_phi, 2.0 * np.pi / n_phi)
            if self.polar is None:
                nodes, w = self.embed(None, phi), self.density * w_phi
            else:
                p, w_p = gauss_legendre(self.polar[0], self.polar[1], 1, n_polar)
                nodes = self.embed(p[:, None], phi[None, :])
                w = np.multiply.outer(self.density * w_p, w_phi).ravel()
            out = point_array(np.moveaxis(nodes, -1, 0)), w
        self._rules[counts] = out
        return out

    def directions(self, k: int) -> np.ndarray:
        """Deterministic spread of k points on the sphere.

        Alternating signs on a line, equispaced angles on a circle, and
        otherwise p equispaced over ``spread`` with golden-angle azimuths.
        """
        if self.embed is None:
            return np.array([[1.0] if i % 2 == 0 else [-1.0] for i in range(k)])
        i = np.arange(k)
        if self.polar is None:
            return self.embed(None, i * 2.0 * np.pi / k)
        lo, hi = self.spread
        p = lo + (hi - lo) * (i + 0.5) / k
        return self.embed(p, i * np.pi * (3.0 - np.sqrt(5.0)))


def ball_rule(chart: SphereChart, counts: tuple, exponents, hom_dim: int,
              r_max: float = 1.0, n_panels: int = 1, radial_weight=None):
    """Rule (nodes, weights) on the ball {d < r_max} of a homogeneous group.

    Homogeneous polar coordinates x = delta_r(omega) give
    dx = r^(Q-1) dr dsigma(omega) (Folland-Stein, Hardy Spaces on
    Homogeneous Groups, 1982, Prop. 1.15), so the rule is ``n_panels``
    Gauss-Legendre panels of ``counts[0]`` nodes in r on [0, r_max] with
    weight r^(Q-1), times ``radial_weight(r)`` if given, times the chart's
    sphere rule with (polar, azimuth) counts ``counts[1:]``. On the unit
    ball without a radial weight its total weight is m(B(0, 1)); the ball
    B(c, R) takes nodes c * delta_R(x) and weights R^Q w.
    """
    omega, w_s = chart.rule(tuple(counts[1:]))
    r, w_r = gauss_legendre(0.0, r_max, n_panels, counts[0])
    exps = np.asarray(exponents, dtype=float)
    nodes = r[:, None, None] ** exps * omega[None, :, :]
    w_r = w_r * r ** (hom_dim - 1)
    if radial_weight is not None:
        w_r = w_r * radial_weight(r)
    weights = np.multiply.outer(w_r, w_s)
    return point_array(np.moveaxis(nodes, -1, 0)), weights.ravel()
