"""Shared builders and independent brute-force oracles.

The oracles here deliberately avoid the package's evaluation paths: direct
box enumeration for dual sums, plain Python series for theta values, and
trial division for primality.  Tests freeze expected values computed from
these, then compare the implementation against them.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from korobov import WeightFamily, WeightModel


def make_model(omega=0.5, a=("constant", 1.0), b=("constant", 1.0), prefix_a=(), prefix_b=()):
    def fam(spec):
        if spec[0] == "explicit":
            return WeightFamily("explicit", values=tuple(spec[1]))
        if spec[0] == "power":
            return WeightFamily("power", kappa=spec[1], p=spec[2])
        return WeightFamily(spec[0], kappa=spec[1])

    return WeightModel(omega=omega, a=fam(a), b=fam(b), prefix_a=prefix_a, prefix_b=prefix_b)


def brute_theta(t, omega, a, b, lam=1.0, horizon=400):
    """Oversized direct summation of the one-dimensional kernel factor."""
    return 1.0 + 2.0 * math.fsum(
        omega ** (lam * a * h**b) * math.cos(2.0 * math.pi * h * t)
        for h in range(1, horizon + 1)
    )


def brute_dual_e2(n, g, model, lam=1.0, box=60):
    """Box-enumerated dual sum: sum of rho over h in [-box, box]^d, h.g=0."""
    d = len(g)
    axes = [np.arange(-box, box + 1, dtype=np.int64)] * d
    grids = np.meshgrid(*axes, indexing="ij")
    h = np.stack([gr.ravel() for gr in grids], axis=1)
    dot = (h @ np.asarray(g, dtype=np.int64)) % n
    keep = (dot == 0) & ~np.all(h == 0, axis=1)
    h = h[keep]
    expo = np.zeros(h.shape[0])
    for j in range(d):
        expo += lam * model.a_j(j + 1) * np.abs(h[:, j]).astype(float) ** model.b_j(j + 1)
    return float(np.sum(model.omega**expo))


def brute_dominant_frequency(n, g, model, box):
    """Box-enumerated nonzero dual h in [-box, box]^d maximizing rho, i.e.
    minimizing sum_j a_j * |h_j|**b_j summed in coordinate order; ties go to
    the lexicographically smallest h (the first one met in product order)."""
    best = None
    for h in itertools.product(range(-box, box + 1), repeat=len(g)):
        if sum(hj * gj for hj, gj in zip(h, g)) % n != 0 or not any(h):
            continue
        expo = 0.0
        for j, hj in enumerate(h, start=1):
            expo += model.a_j(j) * float(abs(hj)) ** model.b_j(j)
        if best is None or expo < best[0]:
            best = (expo, h)
    return best[1]


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


@pytest.fixture
def unit_model():
    """omega = 1/2, a_j = 1, b_j = 1: every series is geometric."""
    return make_model()


@pytest.fixture
def linear_model():
    """omega = 1/2, a_j = j, b_j = 1: the canonical decaying-weight model."""
    return make_model(a=("linear", 1.0))


def brute_korobov_survivors(n, d, model, t_cut):
    """Every g in [0, n) whose Korobov vector (1, g, ..., g^(d-1)) has no
    nonzero dual h with E(h) <= t_cut, by enumerating the box
    |h_j| <= (t_cut / a_j)**(1/b_j), which holds {E <= t_cut}."""
    reach = [int((t_cut / model.a_j(j)) ** (1.0 / model.b_j(j))) for j in range(1, d + 1)]
    axes = [np.arange(-r, r + 1, dtype=np.int64) for r in reach]
    h = np.stack([gr.ravel() for gr in np.meshgrid(*axes, indexing="ij")], axis=1)
    expo = np.zeros(h.shape[0])
    for j in range(d):
        expo += model.a_j(j + 1) * np.abs(h[:, j]).astype(float) ** model.b_j(j + 1)
    h = h[(expo <= t_cut) & np.any(h != 0, axis=1)]
    survivors = []
    for g in range(n):
        v = np.array([pow(g, j, n) for j in range(d)], dtype=np.int64)
        if not np.any(h @ v % n == 0):
            survivors.append(g)
    return survivors


def first_sieved_prime(n, d, model, t_cut):
    """The first prime above n whose Korobov family keeps a generator with
    no nonzero dual h of E(h) <= t_cut, by trial division and box
    enumeration."""
    n += 1
    while not (trial_division_is_prime(n) and brute_korobov_survivors(n, d, model, t_cut)):
        n += 1
    return n
