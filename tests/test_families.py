import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from copulakit import (
    EfgmSpec,
    ShuffleSpec,
    box_mass,
    bstar,
    bstarstar,
    cube_copula,
    discretize,
    efgm,
    efgm_quadratic,
    efgm_sequence_member,
    example54_copula,
    independence,
    kernel_cdf,
    rcube_copula,
    shuffle_d,
    shuffle_of_w,
)
from copulakit.errors import BadIndex, InvalidShuffle, NonCopulaInput
from conftest import a1_cdf


class TestIndependence:
    def test_uniform_cells(self):
        pi = independence(3, [2, 2, 2])
        assert_allclose(pi.masses, 1 / 8, atol=0)

    def test_center_value(self):
        assert independence(3, [2, 2, 2]).cdf([0.5, 0.5, 0.5]) == 0.125

    def test_margin(self):
        assert_allclose(independence(3, [2, 2, 2]).margin((0, 1)).masses, 0.25, atol=0)


class TestBlockCopulas:
    def test_cube_box_list(self, cube):
        assert box_mass(cube, [0.5, 0.5, 0], [1, 1, 0.5]) == 0.25

    def test_cube_margins_independent(self, cube):
        for axes in [(0, 1), (0, 2), (1, 2)]:
            assert_allclose(cube.margin(axes).masses, 0.25, atol=0)

    def test_reflection_involution(self, cube):
        assert_allclose(rcube_copula().reflect(2).masses, cube.masses, atol=0)


# Per-point values of the four built-in shuffles at the probe arguments used
# by the composite construction; the group sums are 1/4, 1/4, 5/4, 5/4.
SHUFFLE_PROBES = [
    ((0.25, 0.50), [0.25, 0.0, 0.0, 0.0], 0.25),
    ((0.50, 0.25), [0.0, 0.25, 0.0, 0.0], 0.25),
    ((0.50, 0.75), [0.25, 0.25, 0.50, 0.25], 1.25),
    ((0.75, 0.50), [0.25, 0.25, 0.25, 0.50], 1.25),
]


class TestShuffles:
    @pytest.mark.parametrize("point,values,total", SHUFFLE_PROBES)
    def test_probe_values(self, point, values, total):
        got = [shuffle_d(i).cdf(point) for i in (1, 2, 3, 4)]
        assert_allclose(got, values, atol=1e-15)
        assert sum(got) == pytest.approx(total, abs=1e-15)

    @pytest.mark.parametrize("i", [1, 2, 3, 4])
    def test_uniform_margins_on_fine_grid(self, i):
        sh = shuffle_d(i)
        g = np.linspace(0, 1, 101)
        ones = np.ones_like(g)
        assert np.max(np.abs(sh.cdf_many(np.stack([g, ones], -1)) - g)) <= 1e-12
        assert np.max(np.abs(sh.cdf_many(np.stack([ones, g], -1)) - g)) <= 1e-12

    def test_kernel_is_point_mass_indicator(self):
        sh = shuffle_d(1)
        # the first segment maps (0, 1/4) descending onto (1/4, 1/2): v = 0.3
        # sits above x = 0.2
        x = 0.2
        assert sh.kernel([0.3], [x + 1e-9])[0] == 1.0
        assert sh.kernel([0.3], [x - 1e-9])[0] == 0.0

    def test_invalid_shuffle_rejected(self):
        with pytest.raises(InvalidShuffle):
            ShuffleSpec(((0.0, 0.5, 0.0, 0.5, False),))
        with pytest.raises(InvalidShuffle):
            ShuffleSpec(((0.0, 0.5, 0.0, 0.6, False), (0.5, 1.0, 0.6, 1.0, False)))

    def test_ascending_segments_supported(self):
        spec = ShuffleSpec(((0.0, 0.5, 0.5, 1.0, True), (0.5, 1.0, 0.0, 0.5, True)))
        sh = shuffle_of_w(spec)
        assert sh.cdf([0.25, 0.75]) == pytest.approx(0.25, abs=1e-15)

    def test_bad_index(self):
        with pytest.raises(BadIndex):
            shuffle_d(5)


class TestEfgm:
    def test_quadratic_center_value(self):
        e = efgm_quadratic(3)
        assert e.cdf([0.5, 0.5, 0.5]) == pytest.approx(9 / 64, abs=1e-16)

    def test_zero_perturbation_is_independence(self):
        spec = EfgmSpec(3, lambda v: 0.0 * v, lambda v: 0.0 * v)
        e = efgm(spec)
        pts = np.random.default_rng(0).random((30, 3))
        assert_allclose(e.cdf_many(pts), pts.prod(axis=1), atol=1e-15)

    def test_sequence_kernel_inside_window(self):
        e = efgm_sequence_member(3, 2, 3)
        lo, hi = 1 / 8, 2 / 8
        v_in = (lo + hi) / 2
        assert e.kernel([v_in], [0.5, 0.5])[0] == pytest.approx(5 / 16, abs=1e-15)
        assert e.kernel([0.9], [0.5, 0.5])[0] == pytest.approx(1 / 4, abs=1e-15)

    def test_kernel_matches_numerical_v_derivative(self):
        e = efgm_quadratic(3)
        h = 1e-6
        for v in (0.21, 0.63):
            for u in ([0.3, 0.7], [0.5, 0.5]):
                num = (e.cdf([*u, v + h]) - e.cdf([*u, v - h])) / (2 * h)
                assert e.kernel([v], u)[0] == pytest.approx(num, abs=1e-6)

    def test_bad_indices(self):
        with pytest.raises(BadIndex):
            efgm_sequence_member(2, 5, 3)
        with pytest.raises(BadIndex):
            EfgmSpec(3, lambda v: v, lambda v: 2.0 + 0 * v)

    @given(st.floats(0.01, 0.99), st.floats(0.01, 0.99), st.floats(0.01, 0.99),
           st.floats(0.01, 0.99), st.floats(0.01, 0.99), st.floats(0.01, 0.99))
    @settings(max_examples=40, deadline=None)
    def test_lipschitz_in_each_coordinate(self, u1, u2, v, w1, w2, t):
        e = efgm_quadratic(3)
        a = np.array([u1, u2, v])
        b = np.array([w1, w2, t])
        assert abs(e.cdf(a) - e.cdf(b)) <= np.abs(a - b).sum() + 1e-12


class TestSteppedCheckerboards:
    def test_bstar_kernel_values(self):
        b = bstar()
        assert kernel_cdf(b, 0.1, [0.5]) == 0.25
        assert kernel_cdf(b, 0.4, [0.5]) == 0.5
        assert kernel_cdf(b, 0.9, [0.5]) == 0.75

    def test_bstarstar_kernel_values(self):
        b = bstarstar()
        assert kernel_cdf(b, 0.1, [0.5]) == 0.5
        assert kernel_cdf(b, 0.3, [0.5]) == 0.25
        assert kernel_cdf(b, 0.6, [0.5]) == 0.75

    def test_both_are_valid_copulas(self):
        assert bstar().masses.sum() == 1.0
        assert bstarstar().masses.sum() == 1.0


class TestComposite:
    def test_witness_value(self):
        ex = example54_copula()
        assert ex.cdf([0.5, 0.5, 1.0]) == 0.375

    def test_univariate_margins(self):
        ex = example54_copula()
        for u in (0.2, 0.7):
            assert ex.cdf([u, 1, 1]) == pytest.approx(u, abs=1e-12)
            assert ex.cdf([1, 1, u]) == pytest.approx(u, abs=1e-12)
            assert ex.cdf([1, u, 1]) == pytest.approx(u, abs=1e-12)

    def test_pair_margins_are_the_stepped_checkerboards(self):
        d8 = discretize(example54_copula(), [8, 8, 8])
        b8 = bstar().refine_to([np.linspace(0, 1, 9)] * 2)
        bb8 = bstarstar().refine_to([np.linspace(0, 1, 9)] * 2)
        assert_allclose(d8.margin((0, 2)).masses, b8.masses, atol=1e-12)
        assert_allclose(d8.margin((1, 2)).masses, bb8.masses, atol=1e-12)

    def test_kernel_piecewise_in_t(self):
        ex = example54_copula()
        # within the first quarter the conditional pair copula is the first
        # shuffle composed with the stepped margins
        val = ex.kernel([0.1], [0.5, 0.5])[0]
        assert val == pytest.approx(shuffle_d(1).cdf([0.25, 0.5]), abs=1e-15)


class TestDiscretize:
    def test_independence_trivial(self):
        from copulakit.analytic import independence_analytic

        d = discretize(independence_analytic(3), [2, 2, 2])
        assert_allclose(d.masses, 1 / 8, atol=1e-15)

    def test_node_agreement_with_shuffle(self):
        sh = shuffle_d(1)
        d = discretize(sh, [4, 4])
        nodes = np.linspace(0, 1, 5)
        for x in nodes:
            for y in nodes:
                assert d.cdf([x, y]) == pytest.approx(sh.cdf([x, y]), abs=1e-14)

    def test_composite_witness_preserved(self):
        d = discretize(example54_copula(), [4, 4, 4])
        assert d.cdf([0.5, 0.5, 1.0]) == 0.375

    def test_sup_gap_bounded_by_mesh(self):
        # two 1-Lipschitz-per-coordinate functions agreeing on nodes differ
        # at most by half the cell diameter in the 1-norm
        sh = shuffle_d(2)
        n = 8
        d = discretize(sh, [n, n])
        g = np.linspace(0, 1, 40)
        pts = np.stack(np.meshgrid(g, g, indexing="ij"), -1).reshape(-1, 2)
        gap = np.max(np.abs(d.cdf_many(pts) - sh.cdf_many(pts)))
        assert gap <= 2 / (2 * n) + 1e-12

    def test_non_copula_rejected(self):
        from copulakit.analytic import AnalyticCopula

        bad = AnalyticCopula(2, lambda p: np.maximum(p[:, 0], p[:, 1]))
        with pytest.raises(NonCopulaInput):
            discretize(bad, [4, 4])


def test_a1_oracle_matches_cube_conditional(cube):
    # the hand-written diagonal-block cdf equals the first slab kernel
    for u in np.linspace(0, 1, 9):
        for v in np.linspace(0, 1, 9):
            assert kernel_cdf(cube, 0.25, [u, v]) == pytest.approx(
                a1_cdf(u, v), abs=1e-14
            )
