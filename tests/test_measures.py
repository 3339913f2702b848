"""Measure-layer tests.

Closed-form oracles frozen here:

* density 1 + x^2 on R^1: mu(B(0,r)) / m(B(0,r)) = 1 + r^2/3 exactly;
* dilation of an atomic measure: atom p, factor r -> atom delta_(1/r) p with
  weight w r^(-Q); on the Heisenberg group (1,0,0) with r=1/2 -> (2,0,0), w=16;
* translation moving atoms by p -> x0^(-1) * p; on the Heisenberg group the
  (1,0,0)-translate of an atom at (1,1,-2) sits at (0,1,0);
* unit-ball volume pi^2/8 on the Heisenberg group.
"""

import itertools
import math

import numpy as np
import pytest

import fatoulab as F
from fatoulab import groups as G, measures as M, quadrature
from references import oracle_strong_derivative

V1_H = math.pi ** 2 / 8.0


def quadratic_line_measure(scale=1.0, half_width=2.0):
    g = F.euclidean_group(1)
    return F.DensityMeasure(
        g,
        lambda x: scale * (1.0 + x[..., 0] ** 2),
        [[-half_width, half_width]],
    )


# ---------------------------------------------------------------------------
# atomic measures: exact arithmetic
# ---------------------------------------------------------------------------

def test_atomic_ball_mass_exact_and_strict(g1):
    mu = F.AtomicMeasure(g1, [[0.2], [1.0], [-3.0]], [2.0, 5.0, 1.0])
    assert mu.total_mass == 8.0
    val, err = F.measure_ball(mu, F.Ball([0.0], 1.0))
    # the atom at distance exactly 1 is OUTSIDE the open ball
    assert val == 2.0 and err == 0.0
    val, _ = F.measure_ball(mu, F.Ball([0.0], 1.0000001))
    assert val == 7.0


def test_atomic_validation_errors(g1, gh):
    with pytest.raises(F.MeasureError):
        F.AtomicMeasure(g1, [[0.0], [1.0]], [1.0])
    with pytest.raises(F.MeasureError):
        F.AtomicMeasure(g1, [[0.0]], [-1.0])
    with pytest.raises(F.MeasureError):
        F.AtomicMeasure(g1, [[np.nan]], [1.0])
    with pytest.raises(F.MeasureError):
        F.AtomicMeasure(gh, [[0.0, 0.0]], [1.0])


def test_atomic_points_and_weights_need_their_shapes(g1, gh):
    # points with extra axes whose shape[1] matches, 2-d weights, and no
    # points with a weight were kept as given
    for points, weights in ((np.zeros((1, 1, 1)), [1.0]),
                            ([[0.0], [1.0]], [[1.0], [2.0]]),
                            ([], [1.0])):
        with pytest.raises(F.MeasureError, match="shape"):
            F.AtomicMeasure(g1, points, weights)
    assert F.AtomicMeasure(gh, np.zeros((0, 3)), []).points.shape == (0, 3)
    with pytest.raises(F.MeasureError, match="shape"):
        F.AtomicMeasure(gh, np.zeros((0, 2)), [])


def test_dilate_atomic_oracle(gh):
    mu = F.AtomicMeasure(gh, [[1.0, 0.0, 0.0]], [1.0])
    nu = F.dilate_measure(mu, 0.5)
    assert np.allclose(nu.points, [[2.0, 0.0, 0.0]], atol=0)
    assert nu.weights[0] == 16.0  # (1/2)^(-Q), Q = 4


def test_translate_atomic_oracle(gh):
    mu = F.AtomicMeasure(gh, [[1.0, 1.0, -2.0]], [3.0])
    nu = F.translate_measure(mu, np.array([1.0, 0.0, 0.0]))
    assert np.allclose(nu.points, [[0.0, 1.0, 0.0]], atol=1e-15)
    assert nu.weights[0] == 3.0


def test_translate_by_zero_is_identity(g2):
    mu = F.AtomicMeasure(g2, [[0.5, 0.5]], [1.0])
    assert F.translate_measure(mu, np.zeros(2)) is mu


def test_dilation_identity_on_balls(gh):
    # nu_r(B) = r^(-Q) nu(delta_r B) for atomic measures, exactly
    rng = np.random.default_rng(3)
    mu = F.AtomicMeasure(gh, rng.normal(size=(20, 3)), rng.uniform(0.1, 1, 20))
    ball = F.Ball([0.3, -0.2, 0.1], 1.3)
    for r in (0.5, 2.0):
        lhs, _ = F.measure_ball(F.dilate_measure(mu, r), ball)
        rhs, _ = F.measure_ball(mu, F.dilate_ball(gh, r, ball))
        assert lhs == pytest.approx(r ** -4.0 * rhs, rel=1e-14)


# ---------------------------------------------------------------------------
# density measures
# ---------------------------------------------------------------------------

def test_density_ball_mass_line():
    mu = quadratic_line_measure()
    val, err = F.measure_ball(mu, F.Ball([0.0], 1.0))
    exact = 2.0 + 2.0 / 3.0
    assert val == pytest.approx(exact, abs=1e-5)
    assert abs(val - exact) <= max(err, 1e-6)


def test_density_ball_mass_heisenberg(gh):
    mu = F.DensityMeasure(
        gh, lambda p: np.ones(p.shape[:-1]),
        [[-1.5, 1.5], [-1.5, 1.5], [-1.5, 1.5]],
    )
    val, err = F.measure_ball(mu, F.Ball(np.zeros(3), 1.0))
    assert val == pytest.approx(V1_H, rel=1e-12)
    assert abs(val - V1_H) <= err


def _refined_section_mass(mu, ball):
    """Reference: the section rule with 4x its panels per horizontal axis."""
    g = mu.group
    bb = G.ball_bounding_box(g, ball)
    lo = np.maximum(bb[:, 0], mu.support_box[:, 0])
    hi = np.minimum(bb[:, 1], mu.support_box[:, 1])
    (panels, order, sub), _ = F.measures._SECTION_RULES
    pts, w = mu._section_rule(lo, hi, (4 * panels, order, sub), ball)
    return quadrature.weighted_sum(w, mu.density_at(pts))


def _smooth(p):
    return 1.0 + 0.4 * np.sin(2.0 * p[..., 0]) + 0.2 * np.cos(p.sum(axis=-1))


_POLAR, _SECTION = "_polar_ball_mass", "_section_ball_mass"


def _record_paths(monkeypatch):
    """List that collects which ball-mass rule each density call runs."""
    taken = []
    for name in (_POLAR, _SECTION):
        method = getattr(F.DensityMeasure, name)

        def wrapped(self, *args, _method=method, _name=name):
            taken.append(_name)
            return _method(self, *args)

        monkeypatch.setattr(F.DensityMeasure, name, wrapped)
    return taken


def _ball_cases(g, f):
    """Measures and balls shared by the ball-mass tests: {name: (mu, ball)}."""
    n = g.total_dim

    def at(*coords):
        return np.array(coords[:n], dtype=float)

    mu = F.DensityMeasure(g, f, [[-1.0, 1.3]] * n)
    clip = F.Ball(at(-0.1, 0.2, 0.05), 0.9)
    derived = F.restrict(F.translate_measure(mu, at(0.3, -0.2, 0.1)), clip)
    hole = F.restrict_complement(mu, F.Ball(at(0.1, 0.2, -0.1), 0.9))
    # 0.3 of a 48th (three axes), 128th (two) or 512th (one) of the box width
    cell = 2.3 / {1: 512, 2: 128, 3: 48}[n]
    return {
        # the smooth region: the polar rule
        "inside": (mu, F.Ball(at(0.1, 0.2, -0.1), 0.5)),
        "below-cell": (mu, F.Ball(at(0.4, 0.5, 0.2), 0.3 * cell)),
        "wide-centered": (F.DensityMeasure(g, f, [[-3.0, 3.0]] * n),
                          F.Ball(np.zeros(n), 1.0)),
        "derived-inside": (derived, F.Ball(clip.center, 0.1)),
        # across a jump: the section rule
        "straddling": (mu, F.Ball(at(1.3, 0.1, 0.0), 0.6)),
        "derived-cut-1": (derived, F.Ball(at(0.2, 0.0, 0.1), 0.6)),
        "derived-cut-2": (derived, F.Ball(at(-0.8, 0.4, -0.2), 0.5)),
        # the ball touches the low support faces from inside: its bounding
        # box ties with the support box, so the hull test says cut, and the
        # ball's sections end on the faces in exact arithmetic
        "nodes-on-sphere": (F.DensityMeasure(g, f, [[-1.0, 3.0]] * n),
                            F.Ball(np.zeros(n), 1.0)),
        # where the density is zero: no rule runs
        "disjoint": (mu, F.Ball(at(5.0, -4.0, 9.0), 0.5)),
        "in-hole": (hole, F.Ball(at(0.1, 0.2, -0.1), 0.1)),
    }


_POLAR_CASES = ("inside", "below-cell", "wide-centered", "derived-inside")


@pytest.mark.parametrize("label", F.GROUP_LABELS)
def test_density_ball_mass_matches_refined_section_rule(label, monkeypatch):
    g = F.get_group(label)
    cases = _ball_cases(g, _smooth)
    paths = {"straddling": [_SECTION], "derived-cut-1": [_SECTION],
             "derived-cut-2": [_SECTION], "nodes-on-sphere": [_SECTION],
             "disjoint": [], "in-hole": []}
    assert set(paths) | set(_POLAR_CASES) == set(cases)
    taken = _record_paths(monkeypatch)
    for name, path in paths.items():
        measure, ball = cases[name]
        taken.clear()
        val, err = F.measure_ball(measure, ball)
        assert taken == path, name
        if not path:
            assert (val, err) == (0.0, 0.0), name
            continue
        ref = _refined_section_mass(measure, ball)
        assert abs(val - ref) <= err < 1e-2 * val, name

    # a ball covering the support returns the section rule's mass of the
    # support box, which is the total mass, computed once at construction
    mu = cases["inside"][0]
    expected = mu._section_ball_mass(None, *mu.support_box.T)
    assert 0.0 < expected[1] < 1e-12 * expected[0]
    assert mu.total_mass == expected[0]
    taken.clear()
    cover = F.Ball(np.array([0.2, -0.1, 0.3][:g.total_dim]), 6.0)
    assert F.measure_ball(mu, cover) == expected
    assert taken == []
    assert F.measure_ball(mu, G.dilate_ball(g, 2.0, cover)) == expected
    assert taken == []


@pytest.mark.parametrize("label", F.GROUP_LABELS)
def test_half_ball_on_a_support_face(label, monkeypatch):
    # f = 1 and the center c on the support's low face of the first or of
    # the last axis, no other face near: the mass is m(B) / 2. The ball is
    # c * B(0, R), q -> -q keeps B(0, R), and the face coordinate of c * q
    # is odd in q (q_1, or q_last + 2(c_2 q_1 - c_1 q_2) on the Heisenberg
    # group), so q -> -q swaps the two sides of the face
    g = F.get_group(label)
    n = g.total_dim
    exact = 0.5 * G.ball_volume(g, 0.7)
    taken = _record_paths(monkeypatch)
    for axis in sorted({0, n - 1}):
        box = np.array([[-3.0, 3.0]] * n)
        box[axis, 0] = 0.0
        mu = F.DensityMeasure(g, lambda p: np.ones(p.shape[:-1]), box)
        center = np.array([0.1, -0.05, 0.05][:n])
        center[axis] = 0.0
        taken.clear()
        val, err = F.measure_ball(mu, F.Ball(center, 0.7))
        assert taken == [_SECTION], axis
        assert abs(val - exact) <= err < 1e-2 * exact, axis


def _refined_rule_mass(mu, ball, factor):
    """R^Q sum w f(c * delta_R(x)) on the fine unit-ball rule with its node
    counts multiplied by ``factor`` along every axis."""
    g = mu.group
    counts = tuple(factor * c for c in g.sphere.ball_fine)
    nodes, w = quadrature.ball_rule(g.sphere, counts, g.layer_exponents,
                                    g.hom_dim)
    f = mu.density_at(G.mul(g, ball.center, G.dilate(g, ball.radius, nodes)))
    return ball.radius ** g.hom_dim * math.fsum(w * f)


@pytest.mark.parametrize("label", F.GROUP_LABELS)
def test_density_ball_mass_polar_rule_inside(label, monkeypatch):
    g = F.get_group(label)
    taken = _record_paths(monkeypatch)
    ones = _ball_cases(g, lambda p: np.ones(p.shape[:-1]))
    smooth = _ball_cases(g, _smooth)
    for name in _POLAR_CASES:
        # f = 1 gives the ball's volume
        measure, ball = ones[name]
        taken.clear()
        val, err = F.measure_ball(measure, ball)
        assert taken == [_POLAR], name
        exact = G.ball_volume(g, ball.radius)
        assert val == pytest.approx(exact, rel=1e-13), name
        assert abs(val - exact) <= err, name
        # a smooth density: converged, and the error bounds the distance
        # to the rule at doubled node counts
        measure, ball = smooth[name]
        taken.clear()
        val, err = F.measure_ball(measure, ball)
        assert taken == [_POLAR], name
        ref = _refined_rule_mass(measure, ball, 2)
        assert val == pytest.approx(ref, rel=1e-12), name
        assert abs(val - ref) <= err < 1e-6 * val, name

    # a sharp bump, on which the fine rule misses by more than rounding
    # (up to 7e-10 relative on the Heisenberg group): the coarse rule's
    # difference still covers the miss
    n = g.total_dim
    peak = np.array([0.2, -0.1, 0.05][:n])
    bump = F.DensityMeasure(
        g, lambda p: np.exp(-8.0 * ((p - peak) ** 2).sum(axis=-1)),
        [[-3.0, 3.0]] * n)
    ball = F.Ball(np.zeros(n), 1.0)
    val, err = F.measure_ball(bump, ball)
    assert abs(val - _refined_rule_mass(bump, ball, 4)) <= err < 1e-4 * val


@pytest.mark.parametrize("label", F.GROUP_LABELS)
def test_ball_just_holding_the_support_agrees_across_the_reach(label,
                                                              monkeypatch):
    # one ulp over the support's reach the far corner is inside, one ulp
    # under it is not; the corner test ties either way, so both balls take
    # the section rule, and they agree with a ball that covers the support
    taken = _record_paths(monkeypatch)
    g = F.get_group(label)
    n = g.total_dim
    mu = F.DensityMeasure(g, _smooth, [[-0.7, 0.9]] * n)
    center = np.array([0.1, -0.2, 0.05][:n])
    corners = np.array(list(itertools.product(*mu.support_box)))
    reach = float(np.max(G.dist(g, corners, center)))
    over, under = (F.measure_ball(mu, F.Ball(center, float(np.nextafter(
        reach, way)))) for way in (np.inf, -np.inf))
    cover = F.measure_ball(mu, F.Ball(center, 2.0 * reach))
    assert taken == [_SECTION] * 3
    assert over[0] == pytest.approx(under[0], rel=1e-12, abs=0.0)
    assert over[0] == pytest.approx(cover[0], rel=1e-12, abs=0.0)


def test_density_validation_errors(g1):
    with pytest.raises(F.MeasureError):
        F.DensityMeasure(g1, lambda x: -np.ones(x.shape[:-1]), [[-1, 1]])
    with pytest.raises(F.MeasureError):
        F.DensityMeasure(g1, lambda x: np.full(x.shape[:-1], np.nan), [[-1, 1]])
    with pytest.raises(F.MeasureError):
        F.DensityMeasure(g1, lambda x: np.ones(x.shape[:-1]), [[1, -1]])
    with pytest.raises(F.MeasureError):
        F.DensityMeasure(g1, lambda x: np.ones(x.shape[:-1]), [[-1, 1], [-1, 1]])


def test_declared_constant_is_checked(g1, gh):
    with pytest.raises(F.MeasureError, match="declared constant"):
        F.DensityMeasure(g1, lambda x: 1.0 + 0.1 * x[..., 0], [[-1, 1]],
                         constant=1.0)
    with pytest.raises(F.MeasureError, match="declared constant"):
        F.DensityMeasure(gh, lambda x: np.ones(x.shape[:-1]),
                         [[-1, 1]] * 3, constant=2.0)
    # a contradiction away from a validation node is not seen, so the
    # constant must come from the family, not from the values
    mu = F.DensityMeasure(g1, lambda x: np.full(x.shape[:-1], 0.5),
                          [[-1, 1]], constant=0.5)
    assert mu.constant == 0.5


def _declared_pair(g):
    """The constant 1.5 on a box, declared and undeclared."""
    box = [[-1.0, 1.2]] * g.total_dim
    fn = lambda p: np.full(p.shape[:-1], 1.5)  # noqa: E731
    return (F.DensityMeasure(g, fn, box, constant=1.5),
            F.DensityMeasure(g, fn, box))


def _derived(mu, g):
    """The four reductions of a density, each keeping f(A(y))."""
    x0 = np.array([0.1, -0.05, 0.02])[:g.total_dim]
    ball = F.Ball(np.array([0.2, 0.1, 0.0])[:g.total_dim], 0.9)
    return {"translate": mu.translate(x0), "dilate": mu.dilate(1.3),
            "restrict": mu.restrict(ball),
            "restrict_complement": mu.restrict_complement(ball)}


@pytest.mark.parametrize("label", F.GROUP_LABELS)
def test_declared_constant_ball_masses_match_undeclared_bitwise(label,
                                                                monkeypatch):
    g = F.get_group(label)
    declared, plain = _declared_pair(g)
    x = np.array([0.1, -0.2, 0.05])[:g.total_dim]
    radii = np.geomspace(0.01, 3.0, 12)
    pairs = {"base": (declared, plain)}
    for name, mu in _derived(declared, g).items():
        assert mu.constant == 1.5, name
        pairs[name] = (mu, _derived(plain, g)[name])
    centers = np.broadcast_to(x, (radii.size, x.size))
    for name, (a, b) in pairs.items():
        for u, v in zip(a._ball_masses(centers, radii),
                        b._ball_masses(centers, radii)):
            assert u.tobytes() == v.tobytes(), name
    # the inside balls, by the polar rule, without a density value
    state = declared.hull_state(G.box_corners(
        G.ball_bounding_boxes(g, centers, radii)))
    inside = state == "inside"
    assert np.any(inside)
    want = plain._polar_ball_mass(centers[inside], radii[inside])
    monkeypatch.setattr(F.DensityMeasure, "density_inside", None)
    got = declared._polar_ball_mass(centers[inside], radii[inside])
    for u, v in zip(got, want):
        assert u.tobytes() == v.tobytes()


@pytest.mark.parametrize("label", F.GROUP_LABELS)
def test_declared_singular_points_are_checked_and_kept(label):
    # finite (k, n) points, kept by every reduction; anything else is a
    # MeasureError
    g = F.get_group(label)
    n = g.total_dim
    box = [[-1.0, 1.2]] * n
    fn = lambda p: 1.0 + (p * p).sum(axis=-1)  # noqa: E731
    assert F.DensityMeasure(g, fn, box).singular is None
    mu = F.DensityMeasure(g, fn, box, singular=[[0.1] * n])
    for name, derived in _derived(mu, g).items():
        assert derived.singular is mu.singular, name
    assert F.DensityMeasure(g, fn, box, singular=np.zeros((0, n))
                            ).singular.shape == (0, n)
    for bad in ([0.1] * n, [[0.1] * (n + 1)], [[np.nan] * n],
                [[np.inf] * n]):
        with pytest.raises(F.MeasureError, match="singular"):
            F.DensityMeasure(g, fn, box, singular=bad)


def test_restrict_and_complement_additivity(g1, g2):
    mu = quadratic_line_measure()
    ball = F.Ball([0.0], 1.0)
    inside = F.restrict(mu, ball)
    outside = F.restrict_complement(mu, ball)
    total = 2 * (2.0 + 8.0 / 3.0)
    assert inside.total_mass == pytest.approx(2.0 + 2.0 / 3.0, rel=1e-3)
    assert inside.total_mass + outside.total_mass == pytest.approx(total, rel=1e-2)

    atoms = F.AtomicMeasure(g2, [[0.0, 0.0], [2.0, 0.0], [0.5, 0.5]], [1, 2, 4])
    b2 = F.Ball([0.0, 0.0], 1.0)
    ins = F.restrict(atoms, b2)
    outs = F.restrict_complement(atoms, b2)
    assert ins.total_mass == 5.0 and outs.total_mass == 2.0


def test_restrict_disjoint_gives_empty(g1):
    mu = quadratic_line_measure(half_width=1.0)
    empty = F.restrict(mu, F.Ball([10.0], 0.5))
    assert isinstance(empty, F.AtomicMeasure)
    assert empty.total_mass == 0.0


def test_mixture_measure(g1):
    mu = F.MixtureMeasure(
        g1, [quadratic_line_measure(), F.AtomicMeasure(g1, [[0.5]], [2.0])]
    )
    val, err = F.measure_ball(mu, F.Ball([0.0], 1.0))
    assert val == pytest.approx(2.0 + 2.0 / 3.0 + 2.0, abs=1e-4)
    with pytest.raises(F.MeasureError):
        F.MixtureMeasure(g1, [])
    with pytest.raises(F.MeasureError):
        F.MixtureMeasure(
            g1,
            [quadratic_line_measure(),
             F.AtomicMeasure(F.euclidean_group(2), [[0.0, 0.0]], [1.0])],
        )


# ---------------------------------------------------------------------------
# strong derivative
# ---------------------------------------------------------------------------

# sixteen halvings from r = 1: the largest balls reach the support's edge,
# which the default radii (decisions.SCALES, from r = 2^-5) never do
_OLD_RADII = 0.5 ** np.arange(16)


def test_derivative_quotient_oracle_line():
    mu = quadratic_line_measure()
    trace = F.strong_derivative(mu, np.zeros(1), radii=_OLD_RADII)
    # centered unit ball row must follow 1 + r^2/3
    for ri, r in enumerate(trace.radii):
        assert trace.quotients[0, ri] == pytest.approx(1 + r * r / 3, abs=1e-5)
    assert trace.converged
    assert trace.estimate == pytest.approx(1.0, abs=1e-4)


def _quadratic_quotient(lo, hi, center, radius):
    """Exact mean of 1 + x^2 over (center +- radius) clipped to [lo, hi]."""
    a, b = max(center - radius, lo), min(center + radius, hi)
    if (a, b) == (center - radius, center + radius):
        # unclipped: the closed form, without cancellation in b - a
        return 1.0 + center ** 2 + radius ** 2 / 3.0
    return ((b - a) + (b ** 3 - a ** 3) / 3.0) / (2.0 * radius)


def test_derivative_errors_bound_the_quotient_errors():
    # every ball of 1 + x^2 on [-2, 2] has an exact mass, polar-rule balls
    # and section-rule balls (the off-center ones that reach past the
    # support at the largest radii) alike
    mu = quadratic_line_measure()
    x0 = 0.3
    trace = F.strong_derivative(mu, np.array([x0]), radii=_OLD_RADII)
    assert trace.errors.shape == trace.quotients.shape
    fam = F.default_ball_family(mu.group)
    for bi, ball in enumerate(fam):
        for ri, r in enumerate(trace.radii):
            exact = _quadratic_quotient(-2.0, 2.0, x0 + r * ball.center[0],
                                        r * ball.radius)
            got, err = trace.quotients[bi, ri], trace.errors[bi, ri]
            assert abs(got - exact) <= err
    # the largest balls are cut by the support edge; both rules integrate
    # the quadratic exactly, so every error is a rounding floor
    assert 0.0 < trace.errors.max() < 1e-12


def test_derivative_lebesgue_heisenberg(gh):
    mu = F.DensityMeasure(
        gh, lambda p: np.ones(p.shape[:-1]),
        [[-1.5, 1.5], [-1.5, 1.5], [-1.5, 1.5]],
    )
    trace = F.strong_derivative(mu, np.zeros(3), radii=_OLD_RADII[:8])
    assert trace.converged
    assert trace.estimate == pytest.approx(1.0, rel=2e-3)


def test_derivative_strict_convergence_rule():
    # the trace's call is the decision table's rule on its quotients; the
    # tie and loose bars themselves are checked on synthetic traces in
    # test_decisions.py
    mu = quadratic_line_measure(scale=0.5)
    base = F.strong_derivative(mu, np.zeros(1))
    osc = base.oscillation
    assert 0.0 < osc < 1e-4
    assert base.estimate == pytest.approx(0.5, abs=1e-4)
    assert base.converged
    assert F.trace_decision(base.quotients) == F.TraceDecision(
        base.estimate, osc, True)


def test_derivative_family_and_radii_validation(g1):
    mu = quadratic_line_measure()
    off_center = [F.Ball([0.5], 1.0)]
    with pytest.raises(F.MeasureError):
        F.strong_derivative(mu, np.zeros(1), ball_family=off_center)
    with pytest.raises(F.MeasureError):
        F.strong_derivative(mu, np.zeros(1), radii=np.array([1.0, 0.5, 0.25]))
    with pytest.raises(F.MeasureError):
        F.strong_derivative(mu, np.zeros(1), radii=np.linspace(0.1, 1.0, 16))


@pytest.mark.parametrize("radii", [
    [math.nan] * 6,
    [-1.0, -2.0, -3.0, -4.0, -5.0, -6.0],
    [math.inf, 1.0, 0.5, 0.25, 0.125, 0.0625],
    [0.5, 0.25, 0.125, 0.0625, 0.03125, 0.0],
], ids=["nan", "negative", "inf-first", "zero-last"])
def test_derivative_rejects_non_positive_or_non_finite_radii(g1, radii):
    # rejected up front, naming the schedule, not later in groups.dilate
    mu = F.AtomicMeasure(g1, [[0.3]], [1.0])
    with pytest.raises(F.MeasureError, match="radius schedule must be "
                       "positive and finite"):
        F.strong_derivative(mu, np.zeros(1), radii=radii)


def test_radii_must_be_a_non_empty_1d_array(g1):
    # a scalar, a 2-d or an empty array raised bare numpy errors in
    # ball_masses (an empty one gave [] on atoms), and a 2-d schedule
    # numpy's ambiguous-truth-value ValueError in strong_derivative
    atom = F.AtomicMeasure(g1, [[0.3]], [1.0])
    for mu in (atom, quadratic_line_measure()):
        for radii in (0.5, [[0.5, 0.2]], []):
            with pytest.raises(F.GroupError, match="non-empty 1-d"):
                M.ball_masses(mu, [0.0], radii)
    with pytest.raises(F.MeasureError, match="1-d"):
        F.strong_derivative(atom, np.zeros(1),
                            radii=np.stack([_OLD_RADII[:6]] * 2, axis=1))


def test_default_family_shape(g1, gh):
    for g in (g1, gh):
        fam = F.default_ball_family(g)
        assert len(fam) == 9
        assert np.all(fam[0].center == 0.0) and fam[0].radius == 1.0


def test_trace_csv_format():
    mu = quadratic_line_measure()
    trace = F.strong_derivative(mu, np.zeros(1), radii=_OLD_RADII[:6])
    lines = F.trace_to_csv(trace).strip().split("\n")
    assert lines[0] == "ball_id,r,quotient"
    assert len(lines) == 1 + 9 * 6
    first = lines[1].split(",")
    assert first[0] == "ball0" and float(first[1]) == 1.0
    assert float(first[2]) == pytest.approx(4.0 / 3.0, abs=1e-5)


def test_dilated_measure_weak_limit():
    # r^(-Q) mu(delta_r B(0,1)) -> (strong derivative) * m(B(0,1))
    mu = quadratic_line_measure()
    nu = F.dilate_measure(mu, 2.0 ** -8)
    val, _ = F.measure_ball(nu, F.Ball([0.0], 1.0))
    assert val == pytest.approx(2.0, abs=1e-4)


# ---------------------------------------------------------------------------
# hull classification
# ---------------------------------------------------------------------------

def _cube(center, half):
    """The 2^n corners of the cube of half-width ``half`` around a point."""
    n = len(center)
    offs = np.stack(np.meshgrid(*[np.array([-1.0, 1.0])] * n, indexing="ij"),
                    axis=-1).reshape(-1, n)
    return np.asarray(center, dtype=float) + half * offs


@pytest.mark.parametrize("label", F.GROUP_LABELS)
def test_hull_state_against_box_and_balls(label):
    g = F.get_group(label)
    n = g.total_dim
    mu = F.DensityMeasure(g, _smooth, [[-1.0, 1.0]] * n)
    ball = F.Ball(np.zeros(n), 0.5)
    inner = F.restrict(mu, ball)
    hole = F.restrict_complement(mu, ball)
    on_face = np.zeros(n)
    on_face[0] = 1.0
    on_sphere = G.dilate(g, 0.5, G.unit_directions(g, 3)[1])
    tiny = 1e-3

    assert mu.hull_state(_cube(np.zeros(n), tiny)) == "inside"
    assert mu.hull_state(_cube(5.0 + np.zeros(n), tiny)) == "outside"
    # negative controls: hulls straddling a box face or a sphere are cut
    assert mu.hull_state(_cube(on_face, tiny)) == "cut"
    assert inner.hull_state(_cube(on_sphere, tiny)) == "cut"
    assert hole.hull_state(_cube(on_sphere, tiny)) == "cut"
    # a hull inside the ball is smooth for the restriction and zero for the
    # complement; one beside it the other way round
    assert inner.hull_state(_cube(np.zeros(n), tiny)) == "inside"
    assert hole.hull_state(_cube(np.zeros(n), tiny)) == "outside"
    beside = np.full(n, 0.9)
    assert inner.hull_state(_cube(beside, tiny)) == "outside"
    assert hole.hull_state(_cube(beside, tiny)) == "inside"
    # derived measures map the corners: translation by x0 moves the support
    # to x0^-1 * support, dilation by r to delta_(1/r)(support)
    x0 = np.full(n, 0.7)
    moved = F.translate_measure(mu, x0)
    assert moved.hull_state(_cube(G.inverse(g, x0), tiny)) == "inside"
    assert moved.hull_state(
        _cube(G.mul(g, G.inverse(g, x0), on_face), tiny)) == "cut"
    assert F.dilate_measure(inner, 4.0).hull_state(
        _cube(G.dilate(g, 0.25, on_sphere), tiny)) == "cut"
    assert F.dilate_measure(inner, 4.0).hull_state(
        _cube(G.dilate(g, 0.25, beside), tiny)) == "outside"


# ---------------------------------------------------------------------------
# input checks of the measure operations
# ---------------------------------------------------------------------------

_BAD_INPUT = {
    "ball-nan-radius": lambda mu: F.Ball(np.zeros(3), np.nan),
    "ball-inf-radius": lambda mu: F.Ball(np.zeros(3), np.inf),
    "ball-nan-center": lambda mu: F.Ball([np.nan, 0.0, 0.0], 1.0),
    "ball-inf-center": lambda mu: F.Ball([0.0, -np.inf, 0.0], 1.0),
    "translate-length": lambda mu: F.translate_measure(mu, [0.1, 0.2]),
    "translate-nan": lambda mu: F.translate_measure(mu, [0.1, np.nan, 0.0]),
    "restrict-length": lambda mu: F.restrict(mu, F.Ball([0.0, 0.0], 1.0)),
    "complement-length": lambda mu: F.restrict_complement(
        mu, F.Ball([0.0, 0.0, 0.0, 0.0], 1.0)),
    "measure-ball-length": lambda mu: F.measure_ball(
        mu, F.Ball([0.0, 0.0], 1.0)),
}


@pytest.mark.parametrize("case", sorted(_BAD_INPUT))
def test_measure_operations_reject_bad_input(gh, case):
    mu = F.MixtureMeasure(gh, [
        F.DensityMeasure(gh, _smooth, [[-1.0, 1.0]] * 3),
        F.AtomicMeasure(gh, [[0.1, 0.2, 0.0]], [1.0]),
    ])
    with pytest.raises(F.GroupError):
        _BAD_INPUT[case](mu)


# ---------------------------------------------------------------------------
# derived-density geometry: sections and hull states against density_at
# ---------------------------------------------------------------------------

_CHAIN_R = 1.7


def _chains(g):
    """Derived densities of a positive base f, by chain name."""
    n = g.total_dim

    def at(*coords):
        return np.array(coords[:n], dtype=float)

    base = F.DensityMeasure(g, _smooth, [[-1.0, 1.2]] * n)
    return {
        "translate-translate": F.translate_measure(
            F.translate_measure(base, at(0.3, -0.2, 0.1)),
            at(-0.1, 0.25, -0.2)),
        "restrict-dilate": F.dilate_measure(
            F.restrict(base, F.Ball(at(0.1, 0.2, -0.1), 0.8)), _CHAIN_R),
        "complement-translate": F.translate_measure(
            F.restrict_complement(base, F.Ball(at(-0.2, 0.1, 0.05), 0.6)),
            at(0.2, 0.3, -0.1)),
    }


def _section_misses(mu, sections, n_lines=60, n_tau=200, seed=0):
    """Samples along random vertical lines where the density disagrees with
    the intervals of ``sections``: nonzero outside them or zero strictly
    inside one. Samples within 1e-9 of an interval end are skipped."""
    g = mu.group
    rng = np.random.default_rng(seed)
    box = mu.support_box
    pad = 0.2 * (box[:, 1] - box[:, 0])
    base = rng.uniform(box[:, 0] - pad, box[:, 1] + pad, (n_lines, g.total_dim))
    slope = rng.choice([-1.0, 1.0], n_lines) * rng.uniform(0.5, 2.0, n_lines)
    misses = 0
    for j in range(n_lines):
        lo, hi = sections(base[j:j + 1], slope[j])
        lo, hi = lo[0][lo[0] < hi[0]], hi[0][lo[0] < hi[0]]
        # the line meets the support box for tau in this range
        ends = (box[-1] - base[j, -1]) / slope[j]
        span = ends.max() - ends.min()
        tau = rng.uniform(ends.min() - 0.2 * span, ends.max() + 0.2 * span,
                          n_tau)
        pts = np.repeat(base[j:j + 1], n_tau, axis=0)
        pts[:, -1] += tau * slope[j]
        f = mu.density_at(pts)
        eps = 1e-9 * max(span, 1.0)
        inside = np.any((tau[:, None] > lo + eps) & (tau[:, None] < hi - eps),
                        axis=1)
        near = np.any((np.abs(tau[:, None] - lo) <= eps)
                      | (np.abs(tau[:, None] - hi) <= eps), axis=1)
        misses += int(np.sum(inside & ~(f > 0.0)))
        misses += int(np.sum(~inside & ~near & (f != 0.0)))
    return misses


@pytest.mark.parametrize("label", ["euclidean:2", "heisenberg:1"])
@pytest.mark.parametrize("chain", ["translate-translate", "restrict-dilate",
                                   "complement-translate"])
def test_sections_bound_the_density_on_vertical_lines(label, chain):
    mu = _chains(F.get_group(label))[chain]
    assert _section_misses(mu, mu.sections) == 0


def test_sections_negative_control_wrong_dilation_power(gh):
    # the dilated line's slope scaled by r instead of r^2 (the column axis
    # of heisenberg:1 is in the second layer; on R^n the two coincide)
    mu = _chains(gh)["restrict-dilate"]
    e = gh.layer_exponents[-1]
    assert e == 2

    def wrong(base, slope):
        return mu.sections(base, slope * _CHAIN_R ** (1 - e))

    assert _section_misses(mu, wrong) > 0


@pytest.mark.parametrize("label", ["euclidean:2", "heisenberg:1"])
@pytest.mark.parametrize("chain", ["translate-translate", "restrict-dilate",
                                   "complement-translate"])
def test_hull_state_matches_density_samples(label, chain):
    g = F.get_group(label)
    n = g.total_dim
    mu = _chains(g)[chain]
    rng = np.random.default_rng(3)
    box = mu.support_box
    width = box[:, 1] - box[:, 0]
    seen = {"inside": 0, "outside": 0, "cut": 0}
    cubes, states, cut_differs = [], [], 0
    for _ in range(200):
        center = rng.uniform(box[:, 0] - 0.3 * width, box[:, 1] + 0.3 * width)
        half = rng.uniform(0.005, 0.05, n) * width
        cubes.append(_cube(center, half))
        state = mu.hull_state(cubes[-1])
        states.append(state)
        seen[state] += 1
        y = center + half * rng.uniform(-1.0, 1.0, (300, n))
        f = mu.density_at(y)
        # the mask-free values, bit for bit
        bare = mu.density_inside(y).tobytes() == f.tobytes()
        if state == "outside":
            assert np.all(f == 0.0), (center, half)
        elif state == "inside":
            assert np.all(f > 0.0), (center, half)
            assert bare, (center, half)
        else:
            cut_differs += not bare
    assert seen["inside"] and seen["outside"] and seen["cut"], seen
    # one call on all 200 hulls gives each hull's own state
    assert mu.hull_state(np.array(cubes)).tolist() == states
    # negative control: across a jump the box and clip tests do matter
    assert cut_differs


# ---------------------------------------------------------------------------
# mixtures: every consumer sums over the parts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("label", ["euclidean:2", "heisenberg:1"])
def test_mixture_consumers_sum_over_components(label):
    g = F.get_group(label)
    n = g.total_dim

    def at(*coords):
        return np.array(coords[:n], dtype=float)

    def reduce(mu):
        mu = F.translate_measure(mu, at(0.2, -0.1, 0.05))
        mu = F.restrict(mu, F.Ball(np.zeros(n), 1.2))
        mu = F.restrict_complement(mu, F.Ball(at(0.5, 0.4, 0.0), 0.25))
        return F.dilate_measure(mu, 1.5)

    atoms = F.AtomicMeasure(
        g, [at(0.25, -0.05, 0.1), at(-0.1, 0.3, 0.0), at(0.6, -0.4, 0.2)],
        [1.0, 2.0, 0.5])
    dens = F.DensityMeasure(g, _smooth, [[-1.0, 1.2]] * n)
    mix = reduce(F.MixtureMeasure(g, [atoms, dens]))
    comps = [reduce(atoms), reduce(dens)]
    assert [type(p) for p in mix.parts()] == [F.AtomicMeasure, F.DensityMeasure]
    assert comps[0].points.shape[0] == 3

    def summed(values):
        return pytest.approx(sum(values), rel=1e-12, abs=1e-300)

    ball = F.Ball(at(0.05, 0.1, 0.0), 0.4)
    val, err = F.measure_ball(mix, ball)
    assert val == summed(F.measure_ball(c, ball)[0] for c in comps)
    assert err == summed(F.measure_ball(c, ball)[1] for c in comps)
    assert val > F.measure_ball(comps[0], ball)[0] > 0.0

    profile = F.profile_for(g)
    x, t = at(0.05, -0.02, 0.01), 0.05
    assert F.HeatExtension(mix, profile)(x, t) == summed(
        F.HeatExtension(c, profile)(x, t) for c in comps)

    phi = F.default_profile()
    for s in (0.3, 2.0):  # the scaled grid and the cell grid
        assert F.mollifier_convolution(mix, phi, x, s) == summed(
            F.mollifier_convolution(c, phi, x, s) for c in comps)

    # part i samples with seed + 7 i; atoms are counted exactly
    radii = np.array([0.4, 0.2])
    out = oracle_strong_derivative(mix, x, radii, n_samples=20_000, seed=3)
    per = [oracle_strong_derivative(c, x, radii, n_samples=20_000,
                                    seed=3 + 7 * i)
           for i, c in enumerate(comps)]
    assert list(out["quotients"]) == [
        summed(q) for q in zip(*(p["quotients"] for p in per))]
    assert np.all(per[0]["stderr"] == 0.0)
    assert list(out["stderr"]) == [summed([e]) for e in per[1]["stderr"]]
    moved = F.translate_measure(comps[0], x)
    assert list(per[0]["quotients"]) == [
        F.measure_ball(moved, F.Ball(np.zeros(n), r))[0] / F.ball_volume(g, r)
        for r in radii]
