"""The quadrature layer: every grid in fatoulab is built from these rules.

* `point_array`: the one layout of bulk point arrays, (N, n) stored
  column-major, so that each coordinate of every point is one contiguous
  column;
* `gauss_legendre`: composite Gauss-Legendre panels on an interval (radial
  rules, kernel lambda rules, each axis of the eta-grid, and the section
  rules of density masses and convolutions); `leading_panels` gives the
  first panels of many such rules at once, each with its full rule's bits;
* `tensor_rule`: tensor products of one-dimensional rules;
* `section_pieces`: Gauss-Legendre panels on pieces of vertical lines
  between exact limits, the inner rule of the section rules of density
  masses and convolutions and of the heat extension's cut values;
* `SphereChart`: a polar chart of a group's unit sphere {d = 1}, which
  yields its quadrature rules at any node count and its spread of
  deterministic directions;
* `ball_rule`: a ball {d < r_max} in homogeneous polar coordinates,
  radial Gauss-Legendre (optionally weighted by a radial profile) times a
  sphere rule: the unit-ball rules of density ball masses and the
  mollifier's phi-weighted grid;
* `weighted_sum`: sum_i w_i f_i in a fixed order, so that a quadrature
  value does not depend on how many threads the BLAS library runs;
  `row_sums` is the same sum for each row of a block of rows;
* `compressed_rules`: nested positive rules on a few nodes of a tensor
  rule that keep its moments up to a graded degree (the heat extension's
  compressed eta-rule), found by Caratheodory recombination in elementwise
  NumPy steps, so that they too do not depend on the BLAS thread count.

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

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

__all__ = ["point_array", "gauss_legendre", "leading_panels", "tensor_rule",
           "section_pieces", "SphereChart", "ball_rule", "weighted_sum",
           "row_sums", "graded_indices", "compressed_rules"]

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


def _panel_nodes(edges: np.ndarray, order: int):
    """Nodes and weights of ``order``-point Gauss-Legendre panels between
    consecutive ``edges`` along the last axis, panel by panel."""
    xs, ws = _leggauss(order)
    half = 0.5 * (edges[..., 1:] - edges[..., :-1])
    mid = 0.5 * (edges[..., 1:] + edges[..., :-1])
    shape = edges.shape[:-1] + (-1,)
    return ((half[..., None] * xs + mid[..., None]).reshape(shape),
            (half[..., None] * ws).reshape(shape))


def gauss_legendre(a: float, b: float, n_panels: int, order: int = 16):
    """Composite Gauss-Legendre rule: ``n_panels`` equal panels on [a, b].

    Returns (nodes, weights), panel by panel, each panel carrying ``order``
    nodes.
    """
    return _panel_nodes(np.linspace(a, b, n_panels + 1), order)


def leading_panels(b: float, n_panels: np.ndarray, k: int, order: int = 16):
    """The first ``k`` panels of each row's rule ``gauss_legendre(0, b, n)``.

    ``n_panels`` holds one panel count n >= k per row. Returns (nodes,
    weights), each (rows, k * order): row i is the first k * order nodes and
    weights of its own full rule, bit for bit, since the edges are those of
    numpy's linspace, j * (b / n) with the last one b.
    """
    n = np.asarray(n_panels)[:, None]
    j = np.arange(k + 1)
    edges = j * (b / n)
    edges[j == n] = b
    return _panel_nodes(edges, order)


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


def section_pieces(heads: np.ndarray, w_cols: np.ndarray, lo: np.ndarray,
                   hi: np.ndarray, keep: np.ndarray, n_panels: int,
                   order: int):
    """Nodes (N, n) and weights (N,) of the pieces [lo, hi] of vertical
    lines where ``keep`` is set, each piece ``n_panels`` Gauss-Legendre
    panels of ``order`` nodes in the last coordinate: the inner rule of an
    iterated integral with exact limits (Stroud, Approximate Calculation
    of Multiple Integrals, 1971).

    ``heads`` (k, n) and ``w_cols`` (k,) are the outer rule, one vertical
    line per row; ``lo``, ``hi`` and ``keep`` share a shape whose first
    axis runs over those lines, so a piece sits on the line of its first
    index and carries that line's weight. Pieces come in C order of
    ``keep``.
    """
    col = np.nonzero(keep)[0]
    a, b = lo[keep], hi[keep]
    ref_x, ref_w = gauss_legendre(-1.0, 1.0, n_panels, order)
    pts = point_array(np.repeat(h[col], ref_x.size) for h in heads.T)
    pts[:, -1] = ((0.5 * (a + b))[:, None]
                  + 0.5 * (b - a)[:, None] * ref_x).ravel()
    return pts, ((w_cols[col] * 0.5 * (b - a))[:, None] * ref_w).ravel()


# ---------------------------------------------------------------------------
# compressed rules: positive subrules of a tensor rule that keep its moments
# ---------------------------------------------------------------------------

def graded_indices(exponents, degree: int) -> np.ndarray:
    """Multi-indices a (D, n) with sum_j a_j e_j <= ``degree`` for the
    coordinate weights e = ``exponents``, ordered by that graded degree,
    so that those of any lower degree come first. D = dim P_degree: 50 on
    the Heisenberg group (e = (1, 1, 2)) at degree 6, 22 at degree 4."""
    exps = tuple(int(e) for e in exponents)
    found = [a for a in itertools.product(*(range(degree // e + 1)
                                            for e in exps))
             if sum(k * e for k, e in zip(a, exps)) <= degree]
    found.sort(key=lambda a: sum(k * e for k, e in zip(a, exps)))
    return np.array(found, dtype=int).reshape(-1, len(exps))


def _orthonormal_table(x: np.ndarray, m: np.ndarray, top: int) -> np.ndarray:
    """p_0 .. p_top at each node of ``x`` (k,): the polynomials orthonormal
    for the weights ``m`` (k,) >= 0, by the Stieltjes procedure (Gautschi,
    Orthogonal Polynomials, 2004, Sec. 2.2.3): (k, top + 1)."""
    out = np.zeros((x.size, top + 1))
    out[:, 0] = 1.0 / math.sqrt(np.add.reduce(m))
    prev, b = np.zeros(x.size), 0.0
    for k in range(top):
        p = out[:, k]
        a = np.add.reduce(m * x * p * p)
        q = (x - a) * p - b * prev
        b = math.sqrt(np.add.reduce(m * q * q))
        prev, out[:, k + 1] = p, q / b
    return out


def _axis_tables(rules, weights: np.ndarray, alphas: np.ndarray) -> list:
    """Per axis, the table of `_orthonormal_table` on its nodes for the
    marginal of ``weights`` on that axis, up to the largest power
    ``alphas`` take there. Their products are near orthonormal for the
    whole rule (exactly so where it is a product), which keeps the
    moment rows of `_recombine` well scaled."""
    sizes = tuple(nodes.size for nodes, _ in rules)
    w = np.reshape(weights, sizes)
    out = []
    for j, ((nodes, _), top) in enumerate(zip(rules, alphas.max(axis=0))):
        other = tuple(i for i in range(len(sizes)) if i != j)
        marginal = np.add.reduce(w, axis=other) if other else w
        out.append(_orthonormal_table(nodes, marginal, int(top)))
    return out


def _null_space(a: np.ndarray) -> np.ndarray:
    """A basis (k, k - rank) of the null space of ``a`` (D, k), by
    Gauss-Jordan elimination with full pivoting.

    Every step is elementwise or a reduction along one row, so the result
    does not depend on how many threads the BLAS library runs. A pivot
    below 1e-13 of the largest entry ends the elimination.
    """
    a = np.array(a, dtype=float)
    n_rows, k = a.shape
    cols = np.arange(k)
    floor = 1e-13 * np.abs(a).max()
    rank = 0
    for r in range(min(n_rows, k)):
        sub = np.abs(a[r:, r:])
        i, j = np.unravel_index(np.argmax(sub), sub.shape)
        if not sub[i, j] > floor:
            break
        a[[r, r + i]] = a[[r + i, r]]
        a[:, [r, r + j]] = a[:, [r + j, r]]
        cols[[r, r + j]] = cols[[r + j, r]]
        a[r] /= a[r, r]
        factor = a[:, r].copy()
        factor[r] = 0.0
        a -= np.multiply.outer(factor, a[r])
        rank += 1
    basis = np.zeros((k, k - rank))
    basis[cols[:rank]] = -a[:rank, rank:]
    basis[cols[rank:], np.arange(k - rank)] = 1.0
    return basis


def _caratheodory(m: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Weights w' >= 0 on the k points of ``m`` (k, D), at most rank(m) of
    them nonzero, with sum_i w'_i m_i = sum_i w_i m_i; ``m``'s first column
    is a nonzero constant, so the total weight is kept.

    Each null vector v of m^T moves the weights to w - alpha v, alpha the
    largest step that keeps them nonnegative, which zeroes one of them; the
    null vectors still to come are then made zero there too (Caratheodory's
    theorem, as in Piazzon, Sommariva and Vianello, Dolomites Res. Notes
    Approx. 10, 2017).
    """
    # each point's row scaled to largest entry 1, so that the pivot floor
    # of `_null_space` reads every point on one scale
    scale = 1.0 / np.abs(m).max(axis=1)
    basis = _null_space((m * scale[:, None]).T) * scale[:, None]
    w = w.copy()
    for j in range(basis.shape[1]):
        v = basis[:, j]
        if not np.any(v > 0.0):
            v = -v
        pos = v > 0.0
        ratio = np.full(w.size, np.inf)
        ratio[pos] = w[pos] / v[pos]
        i = int(np.argmin(ratio))
        w = np.maximum(w - ratio[i] * v, 0.0)
        w[i] = 0.0
        basis[:, j + 1:] -= np.multiply.outer(v / v[i], basis[i, j + 1:])
    return w


def _recombine(m: np.ndarray, w: np.ndarray):
    """(indices, weights) of at most D of the k points of ``m`` (k, D)
    with positive weights whose moments sum_i w_i m_i equal those of
    ``w`` (k,) > 0; ``m``'s first column is a nonzero constant.

    Fast Caratheodory recombination (Maalouf, Jubran and Feldman, NeurIPS
    2019): while more than 2D points remain, they are split into 2D runs
    of consecutive points, each run is reduced to its total weight and
    weighted mean, `_caratheodory` keeps at most D runs, and the points of
    a kept run are reweighted by its new total over its old. Each round
    halves the points at the cost of one (2D, D) elimination; the last one
    runs on the points themselves.
    """
    idx = np.flatnonzero(w > 0.0)
    w = np.array(w, dtype=float)
    n_runs = 2 * m.shape[1]
    while idx.size > n_runs:
        starts = np.linspace(0, idx.size, n_runs + 1).astype(int)[:-1]
        total = np.add.reduceat(w[idx], starts)
        mean = np.add.reduceat(w[idx, None] * m[idx], starts) / total[:, None]
        kept = _caratheodory(mean, total)
        ratio = np.repeat(kept / total, np.diff(np.append(starts, idx.size)))
        w[idx] *= ratio
        idx = idx[ratio > 0.0]
    out = _caratheodory(m[idx], w[idx])
    return idx[out > 0.0], out[out > 0.0]


def _refine(m: np.ndarray, w: np.ndarray, target: np.ndarray) -> np.ndarray:
    """``w`` after one step of iterative refinement of sum_i w_i m_i =
    ``target`` in the least-squares sense: the normal equations G d = r
    (G = m m^T, nonsingular on the independent rows Caratheodory leaves)
    solved as the null vector (d, 1) of [G, -r]. It takes the rounding of
    the eliminations out of the moments."""
    resid = target - np.add.reduce(np.ascontiguousarray((w[:, None] * m).T),
                                   axis=1)
    gram = np.add.reduce(m[:, None, :] * m[None, :, :], axis=2)
    v = _null_space(np.column_stack([gram, -np.add.reduce(m * resid,
                                                          axis=1)]))[:, 0]
    return w + v[:-1] / v[-1]


def compressed_rules(rules, weights: np.ndarray, exponents, degrees):
    """Nested positive rules on the nodes of the tensor rule ``rules``
    (its ``tensor_rule`` order) with node weights ``weights`` (N,): for
    each degree D of ``degrees`` (descending), (indices, weights) of at
    most dim P_D nodes whose moments of graded degree <= D (coordinate
    weights ``exponents``, see `graded_indices`) are the full rule's. Each
    rule's nodes are a subset of the one before, and the indices ascend.

    Tchakaloff's theorem gives such rules on the grid's own nodes. For the
    first degree, `_recombine` finds one in two stages and never holds an
    N x dim array: first the columns of the last axis, each as one point of
    its summed moments, then the nodes of the columns that survive. Each
    further rule recombines the one before. Moments are taken on products
    of per-axis polynomials orthonormal for the rule's marginals (see
    `_axis_tables`), which span the graded monomials' space.
    """
    alphas = graded_indices(exponents, degrees[0])
    order = (alphas * np.asarray(exponents, dtype=int)).sum(axis=1)
    tables = _axis_tables(rules, weights, alphas)
    sizes = [nodes.size for nodes, _ in rules]
    col = np.reshape(weights, (-1, sizes[-1]))
    # per column: sum over the last axis of w * p_k, for each power k
    last = np.stack([np.add.reduce(col * p, axis=1) for p in tables[-1].T],
                    axis=1)
    heads = np.unravel_index(np.arange(col.shape[0]), sizes[:-1] or (1,))
    col_m = last[:, alphas[:, -1]]
    for table, at, a in zip(tables[:-1], heads, alphas[:, :-1].T):
        col_m = col_m * table[at][:, a]
    target = np.add.reduce(np.ascontiguousarray(col_m.T), axis=1)
    mass = col_m[:, 0]
    live = np.flatnonzero(mass > 0.0)
    keep, kept = _recombine(col_m[live] / mass[live, None], mass[live])
    cols = live[keep]
    nodes = (cols[:, None] * sizes[-1] + np.arange(sizes[-1])).ravel()
    w = (weights[nodes].reshape(cols.size, -1)
         * (kept / mass[cols])[:, None]).ravel()
    m = np.ones((nodes.size, alphas.shape[0]))
    for table, at, a in zip(tables, np.unravel_index(nodes, sizes), alphas.T):
        m *= table[at][:, a]
    out = []
    for degree in degrees:
        dim = int(np.count_nonzero(order <= degree))
        pick, w = _recombine(m[:, :dim], w)
        nodes, m = nodes[pick], m[pick]
        w = _refine(m[:, :dim], w, target[:dim])
        out.append((nodes, w))
    return out


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
