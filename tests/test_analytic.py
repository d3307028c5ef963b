import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from copulakit import (
    comonotone,
    countermonotone,
    efgm_quadratic,
    example54_copula,
    independence_analytic,
    shuffle_d,
)
from copulakit.analytic import AnalyticCopula
from copulakit.errors import DimensionMismatch, KernelUnavailable

FAMILIES = {
    "pi3": independence_analytic(3),
    "m2": comonotone(2),
    "w2": countermonotone(),
    "shuffle1": shuffle_d(1),
    "composite": example54_copula(),
}


@pytest.mark.parametrize("name", sorted(FAMILIES))
class TestCopulaAxioms:
    def test_grounded(self, name):
        cop = FAMILIES[name]
        for j in range(cop.dim):
            u = np.full(cop.dim, 0.7)
            u[j] = 0.0
            assert cop.cdf(u) == pytest.approx(0.0, abs=1e-14)

    def test_normalized(self, name):
        cop = FAMILIES[name]
        assert cop.cdf(np.ones(cop.dim)) == pytest.approx(1.0, abs=1e-14)

    def test_lipschitz_on_sampled_pairs(self, name):
        cop = FAMILIES[name]
        rng = np.random.default_rng(17)
        a = rng.random((60, cop.dim))
        b = rng.random((60, cop.dim))
        lhs = np.abs(cop.cdf_many(a) - cop.cdf_many(b))
        rhs = np.abs(a - b).sum(axis=1)
        assert np.all(lhs <= rhs + 1e-12)


class TestFrechetBounds:
    def test_min_cdf(self):
        assert comonotone(3).cdf([0.2, 0.7, 0.5]) == 0.2

    def test_w_cdf(self):
        w = countermonotone()
        assert w.cdf([0.3, 0.5]) == 0.0
        assert w.cdf([0.7, 0.5]) == pytest.approx(0.2, abs=1e-15)

    def test_m_kernel_diagonal(self):
        m = comonotone(2)
        assert m.kernel([0.4], [0.5])[0] == 1.0
        assert m.kernel([0.6], [0.5])[0] == 0.0


class TestProtocol:
    def test_dimension_check(self):
        with pytest.raises(DimensionMismatch):
            independence_analytic(3).cdf_many(np.zeros((4, 2)))

    def test_kernel_unavailable(self):
        bare = AnalyticCopula(2, lambda p: p.prod(axis=1))
        with pytest.raises(KernelUnavailable):
            bare.kernel([0.5], [0.5])

    def test_lattice_matches_pointwise(self):
        cop = example54_copula()
        axes = [np.linspace(0, 1, 9)] * 3
        lat = cop.cdf_on_lattice(axes)
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, 3)
        assert_allclose(lat.ravel(), cop.cdf_many(pts), atol=0)

    @pytest.mark.parametrize("nodes, calls_per_slab", [(25, 1), (41, 2), (60, 4)])
    def test_an_oversized_slab_streams_in_row_blocks(self, nodes, calls_per_slab):
        # 25^3 points fit one call, 41^3 and 60^3 exceed 2**16; the values
        # equal one evaluation of the whole slab bit for bit
        efgm = efgm_quadratic(4)
        sizes = []
        counted = AnalyticCopula(4, lambda p: sizes.append(len(p)) or efgm.cdf_many(p))
        axes = [np.array([0.3, 0.9]), *[np.linspace(0, 1, nodes)] * 3]
        tail = np.stack(np.meshgrid(*axes[1:], indexing="ij"), -1).reshape(-1, 3)
        for x, slab in zip(axes[0], counted.cdf_slabs(axes)):
            whole = efgm.cdf_many(np.column_stack([np.full(len(tail), x), tail]))
            assert np.array_equal(slab.ravel(), whole)
        assert len(sizes) == 2 * calls_per_slab and max(sizes) <= 2**16

    @given(st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=50, deadline=None)
    def test_shuffle_cdf_within_frechet_bounds(self, u, v):
        sh = FAMILIES["shuffle1"]
        val = sh.cdf([u, v])
        assert max(u + v - 1, 0) - 1e-12 <= val <= min(u, v) + 1e-12
