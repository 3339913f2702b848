"""Quadrature sums do not depend on the BLAS thread count.

A BLAS dot product splits a long sum across threads, so its last bits move
with ``OPENBLAS_NUM_THREADS``. The heat extension, the mollifier
convolution (the section rule above s = 1, the phi-weighted polar grid at
s <= 1), the polar ball mass and the kernel battery's eta-grid sums
(``kernel_mass``, ``check_semigroup``) give the same bits at any thread
count instead, the column rule of "cut" heat-extension values and a slice
call that mixes "inside", "cut" and "outside" points included; the same
script run at one and at two BLAS threads must print the same bytes.
"""

import os
import subprocess
import sys

import fatoulab as F

SCRIPT = r"""
import numpy as np
import fatoulab as F
from fatoulab import groups as G, kernels as K, scenarios as S

gh = F.heisenberg_group()
profile = K.profile_for(gh)
spec = {"type": "density", "family": "polynomial",
        "params": {"constant": 1.0, "quadratic": 0.3333333333333333},
        "box": [[-2.0, 2.0], [-2.0, 2.0], [-2.0, 2.0]]}
mu = F.translate_measure(S.build_measure(gh, spec), [0.3, -0.2, 0.1])
mu_loc = F.restrict(mu, F.Ball(np.zeros(3), 1.0 / gh.quasi_triangle_const))
u = F.HeatExtension(mu_loc, profile)
corner_inv = profile.eta_grid.corner_inv
x = np.zeros(3)
for t in (1e-3, 0.0625):
    state = mu_loc.hull_state(G.dilate(gh, t ** 0.5, corner_inv))
    print(state, repr(u(x, t)))
# the hole cuts the cached columns: partial panels with fresh gamma,
# whole panels from the cache
mu_tail = F.restrict_complement(mu, F.Ball(np.zeros(3), 0.6))
t = 0.015625
state = mu_tail.hull_state(G.dilate(gh, t ** 0.5, corner_inv))
print(state, repr(F.HeatExtension(mu_tail, profile)(x, t)))
flat = S.build_measure(gh, {"type": "density", "family": "polynomial",
                            "params": {"constant": 1.0}})
print(repr(F.mollifier_convolution(flat, F.default_profile(), x, 2.0)))
print(repr(F.measure_ball(mu_loc, F.Ball([0.05, -0.02, 0.01], 0.2))))
# one slice whose hulls are inside, cut and outside: a batched call
pts = np.array([[0.0, 0.0, 0.0], [0.6, 0.0, 0.0], [3.0, 0.0, 0.0]])
t = 1e-3
states = mu_loc.hull_state(
    G.mul(gh, pts[:, None, :], G.dilate(gh, t ** 0.5, corner_inv)))
print(" ".join(states), repr(u(pts, t).tolist()))
print(repr(K.kernel_mass(profile, 1.0)))
print(repr(K.check_semigroup(profile, np.array([0.2, -0.1, 0.3]), 1.0, 0.5)))
print(repr(F.mollifier_convolution(flat, F.default_profile(), x, 0.5)))
"""


def _run(threads: int) -> str:
    src = os.path.dirname(os.path.dirname(os.path.abspath(F.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               OMP_NUM_THREADS=str(threads), PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_sums_are_bitwise_equal_at_one_and_two_blas_threads():
    one, two = _run(1), _run(2)
    lines = one.splitlines()
    assert [line.split()[0] for line in lines[:3]] == ["inside", "cut", "cut"]
    assert len(lines) == 9
    assert lines[5].split()[:3] == ["inside", "cut", "outside"]
    assert one == two
