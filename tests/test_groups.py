"""Group layer: exact algebra, gauge geometry, certified constants.

Frozen oracles (worked out independently before implementation):

* step-2 product: (1,0,0) * (0,1,0) = (1, 1, -2);
* dilation delta_2(1,1,1) = (2, 2, 4) (vertical coordinate scales by r^2);
* gauge norms: |(1,0,0)| = 1, |(0,0,1)| = (16)^(1/4) = 2, |(1,1,0)| = 2^(1/2);
* unit ball volume on the step-2 group: pi^2/8 (cross-checked by Monte
  Carlo rejection sampling); surface constant Q * m(B(0,1)) = pi^2/2;
* quasi-triangle constant approx 1.4565502 for the quartic gauge.
"""

import dataclasses
import math

import numpy as np
import pytest

import fatoulab as F
from fatoulab import groups as G
from references import polar_integrate, surface_rule


def test_heisenberg_product_oracle(gh):
    out = F.mul(gh, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    assert np.array_equal(out, [1.0, 1.0, -2.0])
    # the reversed product flips the vertical sign
    out2 = F.mul(gh, [0.0, 1.0, 0.0], [1.0, 0.0, 0.0])
    assert np.array_equal(out2, [1.0, 1.0, 2.0])


def test_identity_and_inverse(gh):
    rng = np.random.default_rng(3)
    x = rng.normal(size=(100, 3))
    e = np.zeros(3)
    assert np.allclose(F.mul(gh, x, e), x, atol=0)
    assert np.allclose(F.mul(gh, e, x), x, atol=0)
    prod = F.mul(gh, x, F.inverse(gh, x))
    assert np.max(np.abs(prod)) <= 1e-12


def test_associativity(gh):
    rng = np.random.default_rng(4)
    x, y, z = rng.normal(size=(3, 500, 3)) * 1.5
    lhs = F.mul(gh, F.mul(gh, x, y), z)
    rhs = F.mul(gh, x, F.mul(gh, y, z))
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_dilation_oracle_and_automorphism(gh):
    assert np.array_equal(F.dilate(gh, 2.0, [1.0, 1.0, 1.0]), [2.0, 2.0, 4.0])
    rng = np.random.default_rng(5)
    x, y = rng.normal(size=(2, 200, 3))
    for r in (0.3, 2.7):
        lhs = F.dilate(gh, r, F.mul(gh, x, y))
        rhs = F.mul(gh, F.dilate(gh, r, x), F.dilate(gh, r, y))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_dilate_rejects_nonpositive(gh):
    with pytest.raises(F.GroupError):
        F.dilate(gh, 0.0, [1.0, 0.0, 0.0])
    with pytest.raises(F.GroupError):
        F.dilate(gh, -1.0, [1.0, 0.0, 0.0])


def test_overflowing_dilation_factors_are_group_errors(gh):
    # (1e160)^2 is past the largest float: the factor table names the
    # radius, and so do the strong derivative's dilated balls and the
    # nontangential maximum's cone placements, not a bare OverflowError
    mu = F.AtomicMeasure(gh, [[0.1, 0.0, 0.0]], [1.0])
    calls = [
        lambda: G.dilation_factors(gh, [1.0, 1e160]),
        lambda: F.strong_derivative(mu, np.zeros(3),
                                    radii=np.geomspace(1e160, 1e150, 12)),
        lambda: F.nontangential_max(mu, F.default_profile(), np.zeros(3),
                                    1.0, s_grid=[1e170]),
    ]
    for call in calls:
        with pytest.raises(F.GroupError, match="overflow"):
            call()
    assert G.dilation_factors(gh, [1e150]).tolist() == [[1e150, 1e150,
                                                         1e150 ** 2]]


def test_norm_oracles(gh):
    assert F.norm(gh, np.array([1.0, 0.0, 0.0])) == 1.0
    assert F.norm(gh, np.array([0.0, 0.0, 1.0])) == 2.0
    assert abs(F.norm(gh, np.array([1.0, 1.0, 0.0])) - math.sqrt(2.0)) <= 1e-15


def test_norm_homogeneity_and_symmetry(gh, g2):
    rng = np.random.default_rng(6)
    for g in (gh, g2):
        x = rng.normal(size=(300, g.total_dim))
        n0 = F.norm(g, x)
        for r in (0.2, 5.0):
            nr = F.norm(g, F.dilate(g, r, x))
            assert np.max(np.abs(nr - r * n0) / np.maximum(n0, 1e-12)) <= 1e-12
        assert np.max(np.abs(F.norm(g, F.inverse(g, x)) - n0)) <= 1e-12


def test_ball_volume_oracle(gh, g1, g3):
    assert gh.unit_ball_volume == pytest.approx(math.pi ** 2 / 8.0, rel=1e-14)
    assert F.ball_volume(gh, 2.0) == pytest.approx(2.0 * math.pi ** 2, rel=1e-14)
    assert g1.unit_ball_volume == pytest.approx(2.0, rel=1e-14)
    assert g3.unit_ball_volume == pytest.approx(4.0 * math.pi / 3.0, rel=1e-13)


@pytest.mark.parametrize("radius", [math.nan, math.inf, 0.0])
def test_ball_volume_rejects_bad_radii(gh, radius):
    # NaN and inf radii used to return NaN and inf
    with pytest.raises(F.GroupError, match="positive and finite"):
        F.ball_volume(gh, radius)


def test_ball_volume_vs_monte_carlo(gh):
    mc = F.mc_ball_volume(gh, 1.0, n_samples=400_000, seed=11)
    z = (mc["estimate"] - gh.unit_ball_volume) / mc["stderr"]
    assert abs(z) <= 4.0


def test_surface_rule_total_weight(g1, g2, g3, gh):
    for g in (g1, g2, g3, gh):
        total = g.hom_dim * g.unit_ball_volume
        rules = (surface_rule(g), surface_rule(g, resolution=2),
                 g.sphere.rule(g.sphere.coarse))  # coarse: convolution grids
        for _, w in rules:
            assert w.sum() == pytest.approx(total, rel=1e-12)


def test_unit_ball_rule_total_weight(g1, g2, g3, gh):
    for g in (g1, g2, g3, gh):
        nodes, w_fine, w_coarse = G.unit_ball_rule(g)
        assert nodes.shape == (w_fine.size + w_coarse.size, g.total_dim)
        assert np.all(np.asarray(F.norm(g, nodes)) < 1.0)
        for w in (w_fine, w_coarse):
            assert np.all(w > 0.0)
            assert math.fsum(w) == pytest.approx(g.unit_ball_volume,
                                                 rel=1e-12)
    # 12 x (12 x 24) and 8 x (8 x 16) nodes on the Heisenberg group
    _, w_fine, w_coarse = G.unit_ball_rule(gh)
    assert (w_fine.size, w_coarse.size) == (3456, 1024)


@pytest.mark.parametrize("label, dims", [
    # step, total_dim, hom_dim, layer_exponents, n_horizontal
    ("euclidean:1", (1, 1, 1, (1,), 1)),
    ("euclidean:2", (1, 2, 2, (1, 1), 2)),
    ("euclidean:3", (1, 3, 3, (1, 1, 1), 3)),
    ("heisenberg:1", (2, 3, 4, (1, 1, 2), 2)),
])
def test_layer_dims_fix_the_grading(label, dims):
    # every dimension follows from layer_dims, Q = sum_j j dim V_j; a
    # replaced copy derives its own, and builds its own unit-ball rule
    g = F.get_group(label)
    names = ("step", "total_dim", "hom_dim", "layer_exponents",
             "n_horizontal")
    assert tuple(getattr(g, name) for name in names) == dims
    wide = dataclasses.replace(g, layer_dims=g.layer_dims + (1,))
    assert (wide.step, wide.total_dim, wide.hom_dim) == (
        dims[0] + 1, dims[1] + 1, dims[2] + dims[0] + 1)
    assert wide.layer_exponents == dims[3] + (dims[0] + 1,)
    assert tuple(getattr(g, name) for name in names) == dims
    rule = G.unit_ball_rule(g)
    copy = dataclasses.replace(g)
    assert copy == g and G.unit_ball_rule(copy) is not rule
    assert all(a.tobytes() == b.tobytes()
               for a, b in zip(G.unit_ball_rule(copy), rule))
    assert G.unit_ball_rule(g) is rule


def test_unit_ball_rule_rejects_a_wrong_unit_ball_volume(gh):
    # negative control: the rule's weights sum to the true volume, so a
    # descriptor claiming 1% more fails the self-check when it is built
    wrong = dataclasses.replace(gh, unit_ball_volume=1.01 * gh.unit_ball_volume)
    with pytest.raises(F.NumericsError, match="total weight"):
        G.unit_ball_rule(wrong)
    assert G.unit_ball_rule(gh)[1].size == 3456


def test_surface_nodes_on_unit_sphere(gh):
    nodes, _ = surface_rule(gh)
    assert np.max(np.abs(F.norm(gh, nodes) - 1.0)) <= 1e-12


def test_polar_integrate_indicator(gh):
    # constant 1 over B(0,1) gives the ball volume
    val = polar_integrate(gh, lambda p: np.ones(p.shape[:-1]), 1.0)
    assert val == pytest.approx(math.pi ** 2 / 8.0, rel=1e-12)
    # indicator of the half-radius ball: volume scales by (1/2)^Q = 1/16
    val2 = polar_integrate(
        gh, lambda p: (F.norm(gh, p) < 0.5).astype(float), 1.0
    )
    assert val2 == pytest.approx(math.pi ** 2 / 128.0, rel=1e-3)


def test_polar_integrate_line(g1):
    # integral of |x| over [-1, 1] equals 1
    val = polar_integrate(g1, lambda p: np.abs(p[..., 0]), 1.0)
    assert val == pytest.approx(1.0, rel=1e-12)


def test_polar_integrate_reports_bad_integrand(gh):
    def bad(p):
        out = np.ones(p.shape[:-1])
        out[np.asarray(F.norm(gh, p)) > 0.5] = np.nan
        return out

    with pytest.raises(F.NumericsError) as err:
        polar_integrate(gh, bad, 1.0)
    assert err.value.location is not None


def _triangle_sample():
    """A fresh sample of pairs (x, y), independent of the search's."""
    rng = np.random.default_rng(77)
    return rng.normal(size=(2, 100_000, 3)) * 2.0


def _triangle_sides(g, x, y):
    """(d(x*y), C (d(x) + d(y))) with the descriptor's constant C."""
    lhs = F.norm(g, F.mul(g, x, y))
    return lhs, g.quasi_triangle_const * (F.norm(g, x) + F.norm(g, y))


def test_quasi_triangle_certificate(gh, g1):
    c = gh.quasi_triangle_const
    assert 1.45 < c < 1.47
    assert abs(c - 1.4565502) <= 1e-5
    assert c == 1.4565502169606948
    assert g1.quasi_triangle_const == 1.0
    # the search feeds 1.2M samples through the product and the gauge, so
    # reproducing the stored constant and log pins both bit for bit
    const, log = G._certify_quasi_triangle(G._h1_mul, G._h1_norm, 3,
                                           center_slots=[2])
    assert const == 1.4565502169606948
    assert log == gh.certification
    # no violation on a fresh random sample
    lhs, rhs = _triangle_sides(gh, *_triangle_sample())
    assert np.all(lhs <= rhs * (1.0 + 1e-12))
    # the constant is not wastefully large: some pair comes close
    assert np.max(lhs / rhs) > 0.95


def test_heisenberg_group_runs_no_search(gh, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("heisenberg_group() ran the quasi-triangle search")

    monkeypatch.setattr(G, "_certify_quasi_triangle", refuse)
    fresh = G.heisenberg_group.__wrapped__()
    assert fresh == gh
    assert fresh.certification == gh.certification


def test_quasi_triangle_check_catches_a_small_constant(gh):
    # negative control: C = 1.40 is below the sampled maximum 1.4555
    wrong = dataclasses.replace(gh, quasi_triangle_const=1.40)
    lhs, rhs = _triangle_sides(wrong, *_triangle_sample())
    assert not np.all(lhs <= rhs * (1.0 + 1e-12))


def test_reverse_triangle_euclidean(g2):
    rng = np.random.default_rng(8)
    x, y = rng.normal(size=(2, 20_000, 2))
    lhs = F.norm(g2, F.mul(g2, x, y))
    rhs = F.norm(g2, x) + F.norm(g2, y)
    assert np.all(lhs <= rhs * (1.0 + 1e-12))


def test_ball_membership_strict(gh):
    ball = F.Ball(np.zeros(3), 1.0)
    on_sphere = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.25]])
    assert not G.ball_contains(gh, ball, on_sphere).any()
    inside = np.array([[0.99, 0.0, 0.0]])
    assert G.ball_contains(gh, ball, inside).all()


def test_ball_bounding_box_contains_ball(gh):
    ball = F.Ball(np.array([0.5, -0.3, 0.2]), 0.7)
    box = G.ball_bounding_box(gh, ball)
    rng = np.random.default_rng(10)
    # rejection-sample points of the ball, check they land in the box
    cand = rng.uniform(-3, 3, size=(200_000, 3))
    pts = cand[G.ball_contains(gh, ball, cand)]
    assert pts.shape[0] > 100
    assert np.all(pts >= box[:, 0] - 1e-12)
    assert np.all(pts <= box[:, 1] + 1e-12)


@pytest.mark.parametrize("label", F.GROUP_LABELS)
def test_node_images_and_bounding_boxes_keep_their_rows_bits(label):
    # a row of `images` alone has the bits it has in a batch, and those of
    # c * dilate(r, nodes); the boxes of m balls are each ball's box
    g = F.get_group(label)
    rng = np.random.default_rng(32)
    n = g.total_dim
    centers = rng.normal(size=(7, n)) * rng.choice([1e-3, 1.0, 30.0],
                                                   size=(7, 1))
    radii = rng.uniform(1e-3, 5.0, size=7)
    nodes = rng.normal(size=(11, n))
    batch = G.images(g, centers, radii, nodes)
    assert batch.shape == (7, 11, n)
    for c, r, row in zip(centers, radii, batch):
        alone = G.images(g, c[None], [r], nodes)[0]
        assert alone.tobytes() == row.tobytes()
        assert row.tobytes() == G.mul(g, c, G.dilate(g, r, nodes)).tobytes()
    boxes = G.ball_bounding_boxes(g, centers, radii)
    for c, r, box in zip(centers, radii, boxes):
        assert box.tobytes() == G.ball_bounding_box(g, G.Ball(c, r)).tobytes()


def test_dilate_translate_ball_semantics(gh):
    ball = F.Ball(np.array([0.4, 0.1, -0.2]), 0.8)
    rng = np.random.default_rng(12)
    pts = rng.normal(size=(5_000, 3))
    member = G.ball_contains(gh, ball, pts)
    r = 1.7
    dball = G.dilate_ball(gh, r, ball)
    assert np.array_equal(
        member, G.ball_contains(gh, dball, F.dilate(gh, r, pts))
    )
    x0 = np.array([0.3, -0.5, 0.1])
    tball = G.translate_ball(gh, x0, ball)
    moved = F.mul(gh, x0, pts)
    member_t = G.ball_contains(gh, tball, moved)
    assert np.mean(member == member_t) > 0.999  # float roundoff at the shell


def test_unit_directions(gh, g3):
    for g in (gh, g3):
        dirs = F.unit_directions(g, 8)
        assert dirs.shape == (8, g.total_dim)
        assert np.max(np.abs(F.norm(g, dirs) - 1.0)) <= 1e-12
        # directions are pairwise distinct
        pair = np.linalg.norm(dirs[:, None] - dirs[None, :], axis=-1)
        assert np.min(pair[~np.eye(8, dtype=bool)]) > 0.1


def test_get_group_registry(gh):
    assert F.get_group("heisenberg:1") is gh
    assert F.get_group("euclidean:2").total_dim == 2
    with pytest.raises(F.GroupError):
        F.get_group("euclidean:7")


@pytest.mark.parametrize("label", F.GROUP_LABELS)
def test_every_group_label_has_a_kernel_profile_and_a_default_box(label):
    # every registered label has its kernel profile, and a scenario
    # density without a box takes the descriptor's
    g = F.get_group(label)
    assert F.profile_for(g).group is g
    box = np.array(g.default_box, dtype=float)
    assert box.shape == (g.total_dim, 2) and np.all(box[:, 0] < box[:, 1])
    mu = F.build_measure(g, {"type": "density", "family": "polynomial",
                             "params": {"constant": 1.0}})
    assert mu.support_box.tobytes() == box.tobytes()


def test_rules_come_from_the_descriptor_not_the_label(g2, gh):
    # a relabelled copy carries the same fields, so every rule is identical
    for g, name in ((g2, "plane-copy"), (gh, "heisenberg-copy")):
        copy = dataclasses.replace(g, label=name)
        for res in (0, 2):
            for a, b in zip(surface_rule(g, res), surface_rule(copy, res)):
                assert np.array_equal(a, b)
        assert np.array_equal(F.unit_directions(g, 7),
                              F.unit_directions(copy, 7))

        def f(p):
            return np.exp(-(p * p).sum(axis=-1)) * (1.0 + p[..., 0])

        assert polar_integrate(g, f, 1.3) == polar_integrate(copy, f, 1.3)
        b = F.Ball(np.array([0.3, -0.2, 0.1])[: g.total_dim], 0.7)
        assert np.array_equal(G.ball_bounding_box(g, b),
                              G.ball_bounding_box(copy, b))
        paths = F.simulate_horizontal_bm(g, 500, n_steps=20, seed=4)
        paths_copy = F.simulate_horizontal_bm(copy, 500, n_steps=20, seed=4)
        assert np.array_equal(paths.endpoints, paths_copy.endpoints)


# ---------------------------------------------------------------------------
# Heisenberg primitives: the in-place forms are the plain expressions
# ---------------------------------------------------------------------------

def _h1_mul_expression(a, b):
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    out[..., 0] = a[..., 0] + b[..., 0]
    out[..., 1] = a[..., 1] + b[..., 1]
    out[..., 2] = (
        a[..., 2]
        + b[..., 2]
        + 2.0 * (a[..., 1] * b[..., 0] - a[..., 0] * b[..., 1])
    )
    return out


def _h1_norm_expression(a):
    if a.ndim == 1:
        # a lone point is a row: numpy's scalar power has other bits
        return _h1_norm_expression(a[None])[0]
    z2 = a[..., 0] ** 2 + a[..., 1] ** 2
    return (z2 * z2 + 16.0 * a[..., 2] ** 2) ** 0.25


def _same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def test_h1_primitives_match_the_expressions_bitwise():
    rng = np.random.default_rng(31)

    def sample(*shape, order="C"):
        return np.asarray(rng.normal(size=shape) * rng.choice([1e-3, 1.0, 30.0]),
                          order=order)

    pairs = [
        (sample(3), sample(4097, 3)),
        (sample(4097, 3), sample(3)),
        (sample(257, 1, 3), sample(1, 129, 3)),
        (sample(3), sample(3)),
        (sample(5001, 3), sample(5001, 3, order="F")),
        (sample(5001, 3, order="F"), sample(5001, 3)),
        (sample(5001, 3, order="F"), sample(5001, 3, order="F")),
    ]
    for a, b in pairs:
        got = G._h1_mul(a, b)
        assert _same_bits(got, _h1_mul_expression(a, b))
        # the product keeps its operands' layout: column-major only when
        # every operand of more than one row is
        big = [v for v in (a, b) if v.ndim > 1 and v.shape[0] > 1]
        if all(v.flags.f_contiguous for v in big):
            assert got.flags.f_contiguous
        if all(v.flags.c_contiguous for v in big):
            assert got.flags.c_contiguous
    for a in (sample(4097, 3), sample(257, 129, 3), sample(3),
              sample(5001, 3, order="F")):
        assert _same_bits(G._h1_norm(a), _h1_norm_expression(a))
    # one point gives a scalar, as the expression does
    assert np.ndim(G._h1_norm(sample(3))) == 0


def _columns(p):
    """The coordinate columns of points ``p`` (..., n)."""
    return [p[..., j] for j in range(p.shape[-1])]


def _along(values, j, n, lead=0):
    """``values`` as the column of grid axis j: shape (1,) * lead, then
    one axis per coordinate with values on axis j alone."""
    return values.reshape((1,) * (lead + j) + (-1,) + (1,) * (n - j - 1))


def _assert_column_forms(g, a_cols, b_cols, a, b):
    """mul_cols on columns equals mul_fn on the broadcast points, bit for
    bit."""
    want = g.mul_fn(a, b)
    got = g.mul_cols(a_cols, b_cols)
    shape = want.shape[:-1]
    for j, col in enumerate(got):
        assert _same_bits(np.broadcast_to(col, shape), want[..., j]), j


@pytest.mark.parametrize("label", F.GROUP_LABELS)
def test_column_forms_match_the_row_forms_bitwise(label):
    # the column product gives mul_fn's bits where each coordinate varies
    # along its own axis, as on a tensor grid
    g = F.get_group(label)
    n = g.total_dim
    rng = np.random.default_rng(41)
    spread = rng.choice([1e-3, 1.0, 30.0], size=(4001, 1))
    a = rng.normal(size=(4001, n)) * spread
    b = rng.normal(size=(4001, n)) * spread[::-1]
    # random points, row against row, and one point
    _assert_column_forms(g, _columns(a), _columns(b), a, b)
    _assert_column_forms(g, _columns(a[0]), _columns(b[0]), a[0], b[0])
    # one point (n,) against a tensor grid, on either side
    axes = [rng.normal(size=m) * 3.0 for m in (17, 19, 23)[:n]]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    along = [_along(v, j, n) for j, v in enumerate(axes)]
    x = rng.normal(size=n)
    _assert_column_forms(g, list(x), along, x, grid)
    _assert_column_forms(g, along, list(x), grid, x)
    # points (k, 1, .., 1) on a leading axis against the grid
    xs = rng.normal(size=(5, n))
    lead = [c.reshape((5,) + (1,) * n) for c in xs.T]
    _assert_column_forms(g, lead, [_along(v, j, n, 1)
                                   for j, v in enumerate(axes)],
                         xs.reshape((5,) + (1,) * n + (n,)), grid[None])
    # a product of column forms, then a point times it (a shift)
    moved = g.mul_cols(lead, [_along(v, j, n, 1) for j, v in enumerate(axes)])
    rows = g.mul_fn(xs.reshape((5,) + (1,) * n + (n,)), grid[None])
    _assert_column_forms(g, list(x), moved, x, rows)


# ---------------------------------------------------------------------------
# convexity of balls (density ball masses rely on it)
# ---------------------------------------------------------------------------

def _midpoint_failures(g, ball, n_candidates=200_000, seed=41):
    """Midpoints of sampled pairs of ball points that fall outside the ball."""
    rng = np.random.default_rng(seed)
    box = G.ball_bounding_box(g, ball)
    cand = rng.uniform(box[:, 0], box[:, 1], size=(n_candidates, g.total_dim))
    pts = cand[G.ball_contains(g, ball, cand)]
    half = pts.shape[0] // 2
    assert half > 2000
    mid = 0.5 * (pts[:half] + pts[half:2 * half])
    return int(np.count_nonzero(~G.ball_contains(g, ball, mid)))


def test_balls_are_midpoint_convex(g1, g2, g3, gh):
    for g in (g1, g2, g3, gh):
        n = g.total_dim
        for center, radius in ((np.zeros(n), 1.0),
                               (np.array([0.7, -1.2, 0.4])[:n], 0.6),
                               (np.array([-2.0, 0.5, 3.0])[:n], 1.7)):
            assert _midpoint_failures(g, F.Ball(center, radius)) == 0


def test_midpoint_convexity_check_catches_a_nonconvex_gauge(g2):
    def astroid(a):
        return (np.sqrt(np.abs(a[..., 0])) + np.sqrt(np.abs(a[..., 1]))) ** 2

    g = dataclasses.replace(g2, label="astroid", norm_fn=astroid)
    assert _midpoint_failures(g, F.Ball(np.zeros(2), 1.0)) > 0


# ---------------------------------------------------------------------------
# layout: bulk point arrays are column-major, and layout moves no bits
# ---------------------------------------------------------------------------

def test_bulk_point_arrays_are_column_major(g1, g2, g3, gh, p1, p2, p3, ph):
    from fatoulab import maximal as M

    phi = F.default_profile()
    for g, profile in ((g1, p1), (g2, p2), (g3, p3), (gh, ph)):
        n = g.total_dim
        mu = F.DensityMeasure(g, lambda p: np.ones(p.shape[:-1]),
                              [[-1.0, 1.0]] * n)
        arrays = {
            "eta-grid": profile.eta_grid.eta_inv,
            "phi-grid": M._phi_grid(g, phi)[0],
            "convolution-rule": mu._convolution_rule()[0],
            "unit-ball": G.unit_ball_rule(g)[0],
        }
        for name, pts in arrays.items():
            assert pts.ndim == 2 and pts.shape[1] == n, (g.label, name)
            assert pts.shape[0] > 1, (g.label, name)
            assert pts.flags.f_contiguous, (g.label, name)
        # the primitives keep the layout of the grid they are given
        pts = arrays["convolution-rule"]
        x = np.linspace(0.1, 0.3, n)
        for out in (G.mul(g, x, pts), G.mul(g, pts, x), G.inverse(g, pts),
                    G.dilate(g, 0.7, pts)):
            assert out.flags.f_contiguous, g.label


def test_a_lone_point_has_the_bits_of_its_row(gh):
    # the gauge and the distance of one point alone are those of the same
    # point as a row of an array, where numpy's scalar power would differ
    # in the last bit at about 5% of them
    rng = np.random.default_rng(26)
    n = 200_001
    p = rng.normal(size=(n, 3)) * rng.choice([1e-3, 1.0, 30.0], size=(n, 1))
    q = rng.normal(size=(n, 3)) * rng.choice([1e-3, 1.0, 30.0], size=(n, 1))
    lone = [G.norm(gh, x) for x in p]
    assert all(np.ndim(v) == 0 for v in lone)
    assert np.array(lone).tobytes() == G.norm(gh, p).tobytes()
    lone = [G.dist(gh, x, y) for x, y in zip(p, q)]
    assert np.array(lone).tobytes() == G.dist(gh, p, q).tobytes()


def test_primitives_give_the_same_bits_in_either_layout(g1, g2, g3, gh):
    rng = np.random.default_rng(8)
    for g in (g1, g2, g3, gh):
        n = g.total_dim
        c = rng.normal(size=(4099, n)) * rng.choice([1e-3, 1.0, 30.0],
                                                    size=(4099, 1))
        f = np.asfortranarray(c)
        assert f.flags.f_contiguous and not f.flags.c_contiguous or n == 1
        x = rng.normal(size=n)
        pairs = [
            (G.mul(g, x, c), G.mul(g, x, f)),
            (G.mul(g, c, x), G.mul(g, f, x)),
            (G.mul(g, c, c[::-1]), G.mul(g, f, f[::-1])),
            (G.inverse(g, c), G.inverse(g, f)),
            (G.dilate(g, 0.37, c), G.dilate(g, 0.37, f)),
            (G.norm(g, c), G.norm(g, f)),
            (G.dist(g, c, x), G.dist(g, f, x)),
            # the gauge is symmetric and the inverse exact, so the grid may
            # be either argument
            (G.dist(g, x, c), G.dist(g, f, x)),
            (G.dist(g, c, c[::-1]), G.dist(g, f[::-1], f)),
        ]
        for i, (got_c, got_f) in enumerate(pairs):
            assert _same_bits(got_c, got_f), (g.label, i)
