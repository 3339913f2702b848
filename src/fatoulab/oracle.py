"""Monte Carlo cross-checks, independent of the deterministic pipeline.

The diffusion generated by the sum of squares of the horizontal fields is
simulated with Euler-Maruyama steps; its time-t law is exactly the heat
kernel the deterministic side computes by quadrature, so kernel values can
be cross-validated by kernel density estimation on simulated endpoints, and
ball volumes by rejection counting. The tests' Monte Carlo derivative
quotients (``tests/references.py``) draw from the same counter-based
streams.

Reproducibility: the stream for step j of a simulation is keyed by
(seed, j), and path i always reads slot i of each step's draw. Growing the
ensemble therefore extends it without perturbing existing paths, and
results are independent of chunking.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import MeasureError, NumericsError
from . import groups as G

__all__ = [
    "PathEnsemble",
    "simulate_horizontal_bm",
    "kde_density",
    "mc_ball_volume",
]


@dataclass(eq=False)
class PathEnsemble:
    """Endpoints of simulated horizontal Brownian paths."""

    group_label: str
    endpoints: np.ndarray  # (n_paths, dim)
    t_final: float
    n_steps: int
    seed: int
    generator_tag: str


def _step_rng(seed: int, step: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, step]))


def _count(name: str, value) -> int:
    """``value`` as a positive integer; a MeasureError otherwise."""
    if not (isinstance(value, numbers.Integral) and value >= 1):
        raise MeasureError(f"{name} must be a positive integer, "
                           f"got {name}={value!r}")
    return int(value)


def simulate_horizontal_bm(g: G.GroupDescriptor, n_paths: int,
                           t_final: float = 1.0, n_steps: int = 800,
                           seed: int = 0) -> PathEnsemble:
    """Euler-Maruyama paths of the horizontal diffusion started at identity.

    The generator is the sum of squares of the horizontal fields, so each
    horizontal coordinate gains variance 2 dt per step. A step is the group
    product pos * increment with the increment in the first layer; on the
    step-2 group the vertical increment therefore uses the pre-update
    horizontal coordinates, and the Ito correction vanishes because the two
    horizontal drivers are independent.
    """
    n_paths, n_steps = _count("n_paths", n_paths), _count("n_steps", n_steps)
    if not 0 < t_final < math.inf:
        raise MeasureError("t_final must be positive and finite, "
                           f"got t_final={t_final!r}")
    dt = t_final / n_steps
    amp = math.sqrt(2.0 * dt)
    m = g.n_horizontal
    # column-major, so that filling the first layer writes contiguous
    # columns and each product reads and writes whole columns
    pos = np.zeros((n_paths, g.total_dim), order="F")
    increment = np.zeros((n_paths, g.total_dim), order="F")
    for j in range(n_steps):
        increment[:, :m] = amp * _step_rng(seed, j).standard_normal((n_paths, m))
        pos = G.mul(g, pos, increment)
    return PathEnsemble(
        group_label=g.label,
        # handed out row-major: the column sums of `kde_density` (std over
        # axis 0) are reduced in another order on a column-major array
        endpoints=np.ascontiguousarray(pos),
        t_final=t_final,
        n_steps=n_steps,
        seed=seed,
        generator_tag=f"sum of squares of the {m} horizontal fields",
    )


def kde_density(ensemble: PathEnsemble, points,
                bandwidth_factor: float = 0.6) -> dict:
    """Product-Gaussian kernel density estimate at query points.

    Bandwidths are per-coordinate Scott rates sigma_i n^(-1/(d+4)) scaled by
    ``bandwidth_factor`` (< 1 undersmooths, trading variance for bias so
    that pointwise z-scores against a smooth target stay centered).
    Returns values, empirical standard errors, and effective sample sizes;
    ``low_ess`` flags queries resting on fewer than ~30 effective paths.
    The factor must be positive and finite, and the query points finite.
    """
    X = ensemble.endpoints
    n, d = X.shape
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != d:
        raise MeasureError(f"query points must have dimension {d}")
    if not np.all(np.isfinite(pts)):
        raise MeasureError("query points must be finite, "
                           f"got {np.array2string(pts, threshold=8)}")
    if not 0 < bandwidth_factor < math.inf:
        raise MeasureError("bandwidth_factor must be positive and finite, "
                           f"got bandwidth_factor={bandwidth_factor!r}")
    sigma = X.std(axis=0, ddof=1)
    if np.any(sigma <= 0):
        raise NumericsError("degenerate ensemble: zero variance coordinate")
    h = bandwidth_factor * sigma * n ** (-1.0 / (d + 4))
    norm = (2.0 * math.pi) ** (d / 2.0) * float(np.prod(h))
    values = np.empty(pts.shape[0])
    stderr = np.empty(pts.shape[0])
    ess = np.empty(pts.shape[0])
    for i, q in enumerate(pts):
        u = (X - q) / h
        k = np.exp(-0.5 * (u ** 2).sum(axis=1)) / norm
        values[i] = k.mean()
        stderr[i] = k.std(ddof=1) / math.sqrt(n)
        ksum = k.sum()
        ksq = float((k ** 2).sum())
        ess[i] = ksum ** 2 / ksq if ksq > 0 else 0.0
    return {
        "values": values,
        "stderr": stderr,
        "ess": ess,
        "low_ess": ess < 30.0,
        "bandwidth": h,
        "n_paths": n,
    }


def mc_ball_volume(g: G.GroupDescriptor, radius: float = 1.0,
                   n_samples: int = 400_000, seed: int = 11) -> dict:
    """Haar volume of a gauge ball by rejection from its bounding box, on
    ``n_samples`` (a positive integer) uniform points."""
    n_samples = _count("n_samples", n_samples)
    ball = G.Ball(np.zeros(g.total_dim), radius)
    box = G.ball_bounding_box(g, ball)
    box_vol = float(np.prod(box[:, 1] - box[:, 0]))
    rng = _step_rng(seed, 0)
    pts = rng.uniform(box[:, 0], box[:, 1], size=(n_samples, g.total_dim))
    p = float(G.ball_contains(g, ball, pts).mean())
    return {
        "estimate": p * box_vol,
        "stderr": box_vol * math.sqrt(max(p * (1.0 - p), 0.0) / n_samples),
        "box_volume": box_vol,
        "n_samples": n_samples,
    }
