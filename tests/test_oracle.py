"""Monte Carlo oracle tests.

Statistical identities used as oracles (diffusion generated by the sum of
squared horizontal fields, started at the identity, run to time t):

* each horizontal coordinate is a Brownian motion with E[x^2] = 2t;
* on the Heisenberg group the center coordinate satisfies E[s^2] = 16 t^2
  and is uncorrelated with the horizontal coordinates;
* the time-1 density at the origin on the line is (4 pi)^(-1/2).

All assertions are z-tests with |z| <= 4 on frozen seeds, so they are
deterministic reruns of a single pre-checked draw.
"""

import math
import re

import numpy as np
import pytest
from scipy import stats

import fatoulab as F
from references import oracle_strong_derivative


def sem(v):
    return float(np.std(v, ddof=1) / math.sqrt(len(v)))


def test_line_moments(g1):
    ens = F.simulate_horizontal_bm(g1, 20_000, t_final=1.0, n_steps=400, seed=2)
    x = ens.endpoints[:, 0]
    assert abs(np.mean(x)) <= 4 * sem(x)
    x2 = x * x
    z = (np.mean(x2) - 2.0) / sem(x2)
    assert abs(z) <= 4.0
    # endpoint distribution is N(0, 2): Kolmogorov-Smirnov sanity check
    _, pval = stats.kstest(x / math.sqrt(2.0), "norm")
    assert pval > 1e-4


def test_heisenberg_moments(gh):
    ens = F.simulate_horizontal_bm(gh, 20_000, t_final=1.0, n_steps=800, seed=3)
    x, y, s = ens.endpoints.T
    for coord in (x, y, s):
        assert abs(np.mean(coord)) <= 4 * sem(coord)
    for coord in (x, y):
        c2 = coord * coord
        assert abs((np.mean(c2) - 2.0) / sem(c2)) <= 4.0
    s2 = s * s
    assert abs((np.mean(s2) - 16.0) / sem(s2)) <= 4.0
    xy = x * y
    assert abs(np.mean(xy)) <= 4 * sem(xy)


def test_scaled_time_moments(gh):
    # E[s^2] = 16 t^2 at t = 0.25
    ens = F.simulate_horizontal_bm(gh, 20_000, t_final=0.25, n_steps=400, seed=4)
    s2 = ens.endpoints[:, 2] ** 2
    assert abs((np.mean(s2) - 1.0) / sem(s2)) <= 4.0


def test_determinism_and_prefix_stability(gh):
    a = F.simulate_horizontal_bm(gh, 1_000, n_steps=50, seed=9)
    b = F.simulate_horizontal_bm(gh, 1_000, n_steps=50, seed=9)
    assert np.array_equal(a.endpoints, b.endpoints)
    big = F.simulate_horizontal_bm(gh, 4_000, n_steps=50, seed=9)
    # each path reads fixed random-stream slots: a longer run keeps the prefix
    assert np.array_equal(big.endpoints[:1_000], a.endpoints)
    other = F.simulate_horizontal_bm(gh, 1_000, n_steps=50, seed=10)
    assert not np.array_equal(other.endpoints, a.endpoints)


# (call on the R^1 group and a small ensemble of it, the argument and
# value the MeasureError must name)
_BAD_ORACLE_INPUTS = {
    "paths-infinite-time": (lambda g, ens: F.simulate_horizontal_bm(
        g, 10, t_final=math.inf), "t_final=inf"),
    "paths-float-count": (lambda g, ens: F.simulate_horizontal_bm(g, 10.0),
                          "n_paths=10.0"),
    "ball-volume-no-samples": (lambda g, ens: F.mc_ball_volume(
        g, n_samples=0), "n_samples=0"),
    "kde-negative-bandwidth": (lambda g, ens: F.kde_density(
        ens, [[0.0]], bandwidth_factor=-1.0), "bandwidth_factor=-1.0"),
    "kde-nan-bandwidth": (lambda g, ens: F.kde_density(
        ens, [[0.0]], bandwidth_factor=math.nan), "bandwidth_factor=nan"),
    "kde-nan-query": (lambda g, ens: F.kde_density(ens, [[math.nan]]),
                      "[[nan]]"),
}


@pytest.mark.parametrize("case", sorted(_BAD_ORACLE_INPUTS))
def test_oracle_checks_its_input_at_entry(case, g1):
    # these used to return NaN endpoints, raise a TypeError or a
    # ZeroDivisionError, or return a negative or NaN density
    ens = F.simulate_horizontal_bm(g1, 200, n_steps=10, seed=1)
    call, named = _BAD_ORACLE_INPUTS[case]
    with pytest.raises(F.MeasureError, match=re.escape(named)):
        call(g1, ens)


def test_kde_line_density(g1):
    ens = F.simulate_horizontal_bm(g1, 50_000, t_final=1.0, n_steps=200, seed=6)
    out = F.kde_density(ens, np.zeros((1, 1)))
    target = (4.0 * math.pi) ** -0.5
    z = (out["values"][0] - target) / out["stderr"][0]
    assert abs(z) <= 4.0
    assert abs(out["values"][0] / target - 1.0) <= 0.05
    assert not out["low_ess"][0]


def test_kde_flags_low_ess(g1):
    ens = F.simulate_horizontal_bm(g1, 2_000, t_final=1.0, n_steps=100, seed=7)
    out = F.kde_density(ens, np.array([[40.0]]))
    assert out["low_ess"][0]


def test_mc_ball_volume_heisenberg(gh):
    out = F.mc_ball_volume(gh, n_samples=200_000, seed=11)
    target = math.pi ** 2 / 8.0
    z = (out["estimate"] - target) / out["stderr"]
    assert abs(z) <= 4.0
    assert out["box_volume"] == pytest.approx(2.0 * 2.0 * 0.5)


def test_oracle_quotients_match_quadrature(g1):
    mu = F.DensityMeasure(
        g1, lambda x: 1.0 + x[..., 0] ** 2, [[-2.0, 2.0]]
    )
    radii = np.array([1.0, 0.5, 0.25])
    out = oracle_strong_derivative(mu, np.zeros(1), radii,
                                   n_samples=100_000, seed=5)
    for r, q, se in zip(radii, out["quotients"], out["stderr"]):
        expected = 1.0 + r * r / 3.0
        assert abs(q - expected) <= 4.0 * se + 1e-9, (r, q, expected, se)
