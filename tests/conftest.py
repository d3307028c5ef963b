import numpy as np
import pytest

from copulakit import GridCopula, cube_copula, independence, new_grid, rcube_copula
from copulakit.verify import random_copula_grid


@pytest.fixture(scope="session")
def cube():
    return cube_copula()


@pytest.fixture(scope="session")
def rcube():
    return rcube_copula()


@pytest.fixture(scope="session")
def pi2():
    return independence(3, [2, 2, 2])


@pytest.fixture(scope="session")
def pi4():
    return independence(3, [4, 4, 4])


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture()
def random_grid(rng):
    def make(resolutions=(3, 2, 4), seed=None):
        local = rng if seed is None else np.random.default_rng(seed)
        return random_copula_grid(local, resolutions)

    return make


def nonuniform_grid(rng, dim, sizes=None):
    """Random checkerboard of ``sizes`` cells per axis (1 to 4 each when not
    given) on random breaks: a positive tensor fitted to the cell widths by
    iterative proportional fitting."""
    sizes = rng.integers(1, 5, size=dim) if sizes is None else sizes
    breaks = [np.concatenate(([0.0], np.sort(rng.random(n - 1)), [1.0])) for n in sizes]
    m = rng.random([len(b) - 1 for b in breaks]) + 0.05
    for _ in range(400):
        for ax, b in enumerate(breaks):
            rest = tuple(a for a in range(dim) if a != ax)
            m = m * np.expand_dims(np.diff(b) / m.sum(axis=rest), rest)
    return GridCopula(breaks, m)


def a1_cdf(u, v):
    """Hand-written cdf of the diagonal 2x2 block copula (test oracle)."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    lo = 2.0 * np.minimum(u, 0.5) * np.minimum(v, 0.5)
    hi = 2.0 * np.maximum(u - 0.5, 0.0) * np.maximum(v - 0.5, 0.0)
    return lo + hi


def a2_cdf(u, v):
    """Hand-written cdf of the antidiagonal 2x2 block copula (test oracle)."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    tl = 2.0 * np.minimum(u, 0.5) * np.maximum(v - 0.5, 0.0)
    br = 2.0 * np.maximum(u - 0.5, 0.0) * np.minimum(v, 0.5)
    return tl + br


def checkerboard_cdf_oracle(grid, pts):
    """Direct mass-summation cdf, independent of the cumulative-tensor path."""
    pts = np.asarray(pts, dtype=float)
    out = np.zeros(len(pts))
    for ci in np.ndindex(grid.shape):
        m = grid.masses[ci]
        if m == 0.0:
            continue
        frac = np.ones(len(pts))
        for j, c in enumerate(ci):
            lo, hi = grid.breaks[j][c], grid.breaks[j][c + 1]
            frac *= np.clip((pts[:, j] - lo) / (hi - lo), 0.0, 1.0)
        out += m * frac
    return out


def f3pi_member(rng):
    """Random resolution-2 grid with all pairwise margins independent."""
    a0 = rng.uniform(0.0, 0.25)
    a1 = rng.uniform(0.0, 0.25)
    m = np.zeros((2, 2, 2))
    for k, a in enumerate((a0, a1)):
        m[0, 0, k] = m[1, 1, k] = a
        m[0, 1, k] = m[1, 0, k] = 0.25 - a
    return new_grid(3, [2, 2, 2], m)
