import numpy as np
import pytest
from numpy.testing import assert_allclose

from copulakit import (
    GridCopula,
    bstar,
    conditional_copula,
    conditional_margin,
    d1,
    d_inf_kernel,
    discretize,
    disintegration_residual,
    efgm_quadratic,
    empirical_copula,
    example54_copula,
    independence,
    is_simplified,
    j_functional,
    kernel_cdf,
    partial_copula,
    pvc3,
    sample,
    slab_family,
)
from copulakit.conditioning import (
    BilinearSurface,
    PiecewiseLinearCdf,
    _surface_from_joint,
    average_surfaces,
    preimage_union,
)
from copulakit.families import example54_margins
from copulakit.errors import BadAxis, DegenerateMargins, DimensionMismatch, ZeroMassSlab
from copulakit.verify import random_copula_grid
from conftest import a1_cdf, a2_cdf


def riemann_l1(f, g, n=400):
    """Midpoint-rule oracle for the integral of |f - g| over the unit square."""
    mids = (np.arange(n) + 0.5) / n
    U, V = np.meshgrid(mids, mids, indexing="ij")
    return float(np.abs(f(U, V) - g(U, V)).mean())


# Frozen constants, computed from the hand-written block cdfs:
# each quadrant of the unit square contributes 1/32 to the integral of
# |diagonal - antidiagonal|, and half of that to |block - product|.
DELTA_CUBE = 4 * (1 / 32)          # = 1/8
L1_BLOCK_VS_PRODUCT = 4 * (1 / 64)  # = 1/16


def test_oracle_constants_are_consistent():
    pi = lambda u, v: u * v
    assert riemann_l1(a1_cdf, a2_cdf) == pytest.approx(DELTA_CUBE, abs=2e-3)
    assert riemann_l1(a1_cdf, pi) == pytest.approx(L1_BLOCK_VS_PRODUCT, abs=2e-3)
    assert riemann_l1(a2_cdf, pi) == pytest.approx(L1_BLOCK_VS_PRODUCT, abs=2e-3)


class TestKernel:
    def test_cube_first_slab(self, cube):
        assert kernel_cdf(cube, 0.25, [0.5, 0.5]) == 0.5

    def test_bstar_last_slab(self):
        assert kernel_cdf(bstar(), 0.9, [0.5]) == 0.75

    def test_all_ones(self, cube):
        assert kernel_cdf(cube, 0.7, [1.0, 1.0]) == 1.0

    def test_piecewise_constant_in_t(self, cube):
        vals = {kernel_cdf(cube, t, [0.3, 0.8]) for t in (0.01, 0.2, 0.49)}
        assert len(vals) == 1

    def test_zero_mass_cell_raises(self, cube):
        # conditioning on the first two axes: the (0,1/2)x(1/2,1) cell holds
        # mass, but a diagonal fiber of the empty cells does not exist;
        # build a grid with an empty conditioning cell instead
        m = np.zeros((2, 2, 2))
        m[0, 0] = [0.25, 0.25]
        m[1, 1] = [0.25, 0.25]
        g = GridCopula([np.array([0.0, 0.5, 1.0])] * 3, m)
        with pytest.raises(ZeroMassSlab):
            kernel_cdf(g, [0.25, 0.75], [0.5], cond_axes=(0, 1))

    def test_block_conditioning(self, cube):
        # conditioning on the first two coordinates of the block copula:
        # inside a diagonal cell the third coordinate is uniform on (0, 1/2)
        val = kernel_cdf(cube, [0.25, 0.25], [0.25], cond_axes=(0, 1))
        assert val == pytest.approx(0.5, abs=1e-15)

    def test_analytic_conditions_on_last_axis(self):
        # u1 u2 + f'(t) u1 (1 - u1) u2 (1 - u2) with f'(t) = 1 - 2t
        efgm = efgm_quadratic(3)
        assert kernel_cdf(efgm, 0.3, [0.3, 0.6]) == pytest.approx(0.20016, abs=1e-15)
        with pytest.raises(BadAxis):
            kernel_cdf(efgm, 0.3, [0.3, 0.6], cond_axes=(0,))

    def test_empirical_matches_dense_grid(self, cube):
        # the rank-form family gives the kernel of the dense checkerboard view,
        # inside slabs, on slab edges and at the ends
        rng = np.random.default_rng(17)
        for n, seed in ((1, 0), (7, 1), (33, 2), (64, 3)):
            emp = empirical_copula(sample(cube, n, seed=seed))
            grid = emp.to_grid()
            ts = np.concatenate([rng.random(20), np.arange(n + 1) / n])
            for t in ts:
                u = rng.random(2)
                assert kernel_cdf(emp, t, u) == pytest.approx(
                    kernel_cdf(grid, t, u), abs=1e-15)
        with pytest.raises(BadAxis):
            kernel_cdf(emp, 0.3, [0.3, 0.6], cond_axes=(0,))

    def test_empirical_needs_three_dimensions(self):
        pts = np.random.default_rng(4).random((6, 2))
        with pytest.raises(DimensionMismatch, match="kernel"):
            kernel_cdf(empirical_copula(pts), 0.3, [0.5])

    def test_margin_identity(self, cube, random_grid):
        # kernel of a margin = kernel of the full copula with dropped
        # coordinates pushed to 1
        for g in (cube, random_grid((3, 2, 4))):
            for t in (0.1, 0.55, 0.93):
                for u in (0.2, 0.8):
                    assert kernel_cdf(g.margin((0, 2)), t, [u]) == pytest.approx(
                        kernel_cdf(g, t, [u, 1.0]), abs=1e-14
                    )


class TestConditionalMargin:
    def test_cube_margin_is_identity(self, cube):
        f = conditional_margin(cube, 0, 0.25)
        assert_allclose(f([0.1, 0.5, 0.9]), [0.1, 0.5, 0.9], atol=1e-15)

    def test_bstar_slopes(self):
        f = conditional_margin(bstar(), 0, 0.1)
        # slope 1/2 before the midpoint, 3/2 after
        assert f(0.5) == pytest.approx(0.25, abs=1e-15)
        assert f(0.25) == pytest.approx(0.125, abs=1e-15)
        assert f(0.75) == pytest.approx(0.625, abs=1e-15)

    def test_ends_at_one(self, random_grid):
        g = random_grid((3, 3, 3))
        for t in (0.1, 0.5, 0.9):
            assert conditional_margin(g, 1, t)(1.0) == 1.0

    def test_bad_axis(self, cube):
        with pytest.raises(BadAxis):
            conditional_margin(cube, 2, 0.5)


class TestConditionalCopula:
    def test_cube_slabs_are_the_two_block_copulas(self, cube):
        s0 = conditional_copula(cube, 0)
        s1 = conditional_copula(cube, 1)
        g = np.linspace(0, 1, 9)
        u, v = np.meshgrid(g, g, indexing="ij")
        assert_allclose(s0.eval_lattice(g, g), a1_cdf(u, v), rtol=0, atol=1e-14)
        assert_allclose(s1.eval_lattice(g, g), a2_cdf(u, v), rtol=0, atol=1e-14)

    def test_independence_slabs(self, pi4):
        s = conditional_copula(pi4, 2)
        assert s.eval_lattice([0.3], [0.8])[0, 0] == pytest.approx(0.24, abs=1e-14)

    def test_uniform_margins_at_nodes(self, random_grid):
        fam = slab_family(random_grid((4, 3, 3)))
        for s in fam.surfaces:
            s.check_margins(1e-12)

    def test_degenerate_margin_reported(self):
        # nondecreasing-from-0-to-1 is enforced on conditional margins; a
        # decreasing candidate is reported, never silently repaired
        with pytest.raises(DegenerateMargins):
            PiecewiseLinearCdf(np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.8, 0.5]))
        # flat margins over positive joint mass cannot come from nonnegative
        # cells; a signed fiber (internal misuse) is caught by the inversion
        joint = np.array([[0.5, 0.5], [1.0, -1.0]])
        with pytest.raises(DegenerateMargins):
            _surface_from_joint(np.array([0.0, 0.5, 1.0]),
                                np.array([0.0, 0.5, 1.0]), joint)


def preimages_loop_oracle(cdf, targets):
    """Per piece and target, the preimage of each target crossed strictly
    inside a rising piece, plus every breakpoint."""
    pts = set(cdf.xs.tolist())
    for a in range(len(cdf.xs) - 1):
        v0, v1 = cdf.values[a], cdf.values[a + 1]
        if v1 <= v0:
            continue
        for s in targets:
            if v0 < s < v1:
                pts.add(float(cdf.xs[a] + (s - v0) / (v1 - v0) * (cdf.xs[a + 1] - cdf.xs[a])))
    return np.array(sorted(pts))


def random_cdf(rng):
    """A piecewise-linear cdf of 1 to 8 pieces on random breaks, some flat."""
    k = int(rng.integers(1, 9))
    xs = np.concatenate(([0.0], np.sort(rng.random(k - 1)), [1.0]))
    steps = rng.random(k) * (rng.random(k) < 0.7)
    steps[-1] += 0.1
    vs = np.concatenate(([0.0], np.cumsum(steps) / steps.sum()))
    vs[-1] = 1.0
    return PiecewiseLinearCdf(xs, vs)


class TestPreimages:
    def check(self, cdf, targets):
        got, want = cdf.preimages(targets), preimages_loop_oracle(cdf, targets)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_example54_margins(self):
        quarters = [0.25, 0.5, 0.75]
        for fm in (m for margins in example54_margins() for m in margins):
            for targets in (quarters, np.linspace(0.0, 1.0, 33), [], [0.25, 0.25, 1.0]):
                self.check(fm, targets)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_cdfs_with_flat_pieces(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(20):
            cdf = random_cdf(rng)
            targets = np.concatenate((rng.random(int(rng.integers(0, 12))), cdf.values[1:-1]))
            self.check(cdf, targets)


def preimage_union_loop_oracle(margins, targets):
    """The union folded in one margin at a time, each fold re-sorting it, then
    the 1e-13 merge."""
    pts = np.array([0.0, 1.0])
    for fm in margins:
        pts = np.union1d(pts, fm.preimages(targets))
    keep = [pts[0]]
    for x in pts[1:]:
        if x - keep[-1] > 1e-13:
            keep.append(x)
    keep[-1] = 1.0
    return np.asarray(keep)


class TestPreimageUnion:
    @pytest.mark.parametrize("seed", range(6))
    def test_one_sort_equals_the_folded_union(self, seed):
        rng = np.random.default_rng([26, seed])
        margins = [random_cdf(rng) for _ in range(int(rng.integers(1, 30)))]
        # copies moved by less than the merge distance, so some points merge
        margins += [PiecewiseLinearCdf(m.xs + np.where((m.xs > 0) & (m.xs < 1), 4e-14, 0.0),
                                       m.values) for m in margins[: seed]]
        targets = rng.random(int(rng.integers(0, 12)))
        union, meshes = preimage_union(margins, targets)
        want = preimage_union_loop_oracle(margins, targets)
        assert np.array_equal(union.view(np.int64), want.view(np.int64))
        assert len(meshes) == len(margins)
        for fm, idx in zip(margins, meshes):
            pre = fm.preimages(targets)
            assert np.all(np.diff(idx) > 0) and idx[0] == 0 and idx[-1] == len(union) - 1
            # each preimage sits on its mesh point, or merged within 1e-13 after it
            near = union[idx][np.searchsorted(union[idx], pre, side="right") - 1]
            assert np.all((pre - near >= 0) & (pre - near <= 1e-13) | (pre == 1.0))
            if seed == 0:  # no merge: the mesh is the preimages themselves
                assert np.array_equal(union[idx].view(np.int64), pre.view(np.int64))


def average_surfaces_fold_oracle(weights, surfaces):
    """The surface average on its node union folded in one surface at a time."""
    xs, ys = surfaces[0].xs, surfaces[0].ys
    for s in surfaces[1:]:
        xs, ys = np.union1d(xs, s.xs), np.union1d(ys, s.ys)
    acc = np.zeros((len(xs), len(ys)))
    for w, s in zip(weights, surfaces):
        if w > 0:
            acc += w * s.eval_lattice(xs, ys)
    return xs, ys, acc / float(np.sum(weights))


class TestAverageSurfaces:
    @pytest.mark.parametrize("seed", range(4))
    def test_one_sort_equals_the_folded_union(self, seed):
        # surfaces of random grids' slabs, some sharing nodes, and a zero weight
        rng = np.random.default_rng([27, seed])
        C = random_copula_grid(rng, [int(n) for n in rng.integers(2, 6, size=3)])
        fam = slab_family(C)
        surfaces = fam.surfaces + slab_family(random_copula_grid(rng, [3, 3, 2])).surfaces
        weights = np.r_[fam.weights, 0.0, rng.random()]
        got = average_surfaces(weights, surfaces)
        for a, b in zip((got.xs, got.ys, got.values),
                        average_surfaces_fold_oracle(weights, surfaces)):
            assert np.array_equal(a.view(np.int64), b.view(np.int64))


    def test_a_recurring_surface_is_evaluated_once(self, monkeypatch):
        # the ladder repeats each source cell's surface over its mesh cells
        rng = np.random.default_rng([30, 1])
        distinct = slab_family(random_copula_grid(rng, [3, 4, 3])).surfaces
        picks = rng.integers(0, 3, size=20)
        surfaces = [distinct[i] for i in picks]
        weights = np.r_[rng.random(18), 0.0, rng.random()]
        want = average_surfaces_fold_oracle(weights, surfaces)
        calls, real = [], BilinearSurface.eval_lattice

        def spy(self, xs, ys):
            calls.append(id(self))
            return real(self, xs, ys)

        monkeypatch.setattr(BilinearSurface, "eval_lattice", spy)
        got = average_surfaces(weights, surfaces)
        for a, b in zip((got.xs, got.ys, got.values), want):
            assert np.array_equal(a.view(np.int64), b.view(np.int64))
        assert sorted(calls) == sorted({id(s) for s in surfaces})


class TestPartialCopula:
    def test_cube_partial_is_independence(self, cube):
        p = partial_copula(cube)
        x, y = np.random.default_rng(3).random((2, 50))
        assert_allclose(p.eval_lattice(x, y), np.outer(x, y), atol=1e-14)

    def test_independence_fixed(self, pi4):
        p = partial_copula(pi4)
        x, y = np.random.default_rng(4).random((2, 20))
        assert_allclose(p.eval_lattice(x, y), np.outer(x, y), atol=1e-14)

    def test_composite_closed_form_partial(self):
        # the average of the four shuffles at (1/4, 1/2)
        p = partial_copula(example54_copula())
        assert p(np.array([[0.25, 0.5]]))[0] == pytest.approx(1 / 16, abs=1e-15)

    def test_composite_partial_value(self):
        # the partial copula of the composite construction averages the four
        # shuffles; at (1/4, 1/2) the average is 1/16
        d = discretize(example54_copula(), [64, 64, 4])
        p = partial_copula(d)
        assert p.eval_lattice([0.25], [0.5])[0, 0] == pytest.approx(1 / 16, abs=2e-2)


class TestIsSimplified:
    def test_cube_gap(self, cube):
        flag, delta = is_simplified(cube)
        assert not flag
        assert delta == pytest.approx(DELTA_CUBE, abs=1e-9)

    def test_independence_simplified(self, pi4):
        flag, delta = is_simplified(pi4)
        assert flag and delta <= 1e-12

    def test_empirical_always_simplified(self, cube):
        pts = sample(cube, 50, seed=11)
        flag, delta = is_simplified(empirical_copula(pts))
        assert flag and delta == 0.0

    def test_empirical_family_matches_dense_route(self, cube):
        emp = empirical_copula(sample(cube, 12, seed=13))
        rank, dense = slab_family(emp), slab_family(emp.to_grid())
        assert np.array_equal(rank.t_breaks, dense.t_breaks)
        nodes = dense.t_breaks
        for margins in ("margins1", "margins2"):
            assert len(list(getattr(rank, margins))) == len(getattr(dense, margins)) == 12
            for f, g in zip(getattr(rank, margins), getattr(dense, margins)):
                assert_allclose(f(nodes), g(nodes), atol=1e-15)

    def test_small_empirical_grid_route(self, cube):
        # same statement through the dense checkerboard machinery
        pts = sample(cube, 12, seed=12)
        flag, delta = is_simplified(empirical_copula(pts).to_grid())
        assert flag and delta <= 1e-12


class TestJFunctional:
    def test_identical_is_zero(self, cube):
        val, err = j_functional(cube, cube)
        assert val == 0.0 and err == 0.0

    def test_independence_vs_cube(self, cube, pi2):
        val, err = j_functional(pi2, cube)
        assert val == pytest.approx(L1_BLOCK_VS_PRODUCT, abs=1e-9)
        assert err <= 1e-9

    def test_lower_bound_for_simplified_operands(self, cube):
        # any simplified operand keeps distance >= delta / slab count
        _, delta = is_simplified(cube)
        for seed in (1, 2, 3):
            emp = empirical_copula(sample(cube, 64, seed=seed))
            val, _ = j_functional(emp, cube)
            assert val >= delta / 2 - 1e-9

    def test_symmetric(self, cube, pi2):
        a, _ = j_functional(pi2, cube)
        b, _ = j_functional(cube, pi2)
        assert a == pytest.approx(b, abs=1e-12)


class TestZeroMassSlab:
    """A validated grid may hold a last-axis slab narrower than the margin
    tolerance that carries no mass: conditioning on it raises, its
    conditional copula is undefined, the kernel metrics read its kernel as 0
    and the disintegration check skips it."""

    @pytest.fixture
    def thin(self):
        indep = np.full((2, 2), 0.125)
        diag = np.array([[0.25, 0.0], [0.0, 0.25]])
        masses = np.stack([indep, np.zeros((2, 2)), diag], axis=-1)
        return GridCopula([[0, 0.5, 1], [0, 0.5, 1], [0, 0.5, 0.5 + 1e-13, 1]], masses)

    def test_conditioning_on_it_raises(self, thin):
        t = 0.5 + 5e-14
        with pytest.raises(ZeroMassSlab):
            kernel_cdf(thin, t, [0.5, 0.5])
        with pytest.raises(ZeroMassSlab):
            conditional_margin(thin, 0, t)
        assert kernel_cdf(thin, 0.9, [0.5, 0.5]) == 0.5

    def test_its_conditional_copula_raises(self, thin):
        with pytest.raises(ZeroMassSlab):
            slab_family(thin)
        with pytest.raises(ZeroMassSlab):
            is_simplified(thin)
        with pytest.raises(ZeroMassSlab):
            j_functional(thin, independence(3, [2, 2, 2]))
        with pytest.raises(ZeroMassSlab):
            pvc3(thin)

    def test_kernel_metrics_read_zero(self, thin):
        # the thin slab adds its width times |0 - uv| = 1/4 at (1/2, 1/2)
        pi = independence(3, [2, 2, 2])
        assert d_inf_kernel(thin, pi).value == pytest.approx(
            (0.5 - 1e-13) * 0.25 + 1e-13 * 0.25, abs=1e-16)
        assert d1(thin, thin).value == 0.0

    def test_disintegration_skips_it(self, thin):
        # what is left is the last slab's width deficit times its kernel, 1/2
        width = 1.0 - (0.5 + 1e-13)
        assert disintegration_residual(thin, [0, 0, 0], [0.5, 0.5, 1.0]) == pytest.approx(
            (0.5 - width) * 0.5, abs=1e-18)


class TestDisintegrationResidual:
    def test_cube_octant(self, cube):
        assert disintegration_residual(cube, [0, 0, 0], [0.5, 0.5, 0.5]) <= 1e-12

    def test_composite_box(self):
        d = discretize(example54_copula(), [8, 8, 4])
        assert disintegration_residual(d, [0, 0, 0], [0.5, 0.5, 0.75]) <= 1e-12

    def test_random_grid_aligned_boxes(self, random_grid, rng):
        g = random_grid((4, 3, 4))
        for _ in range(100):
            lo, hi = [], []
            for b in g.breaks:
                i, j = sorted(rng.choice(len(b), 2, replace=False))
                lo.append(b[i])
                hi.append(b[j])
            assert disintegration_residual(g, lo, hi) <= 1e-12


class TestReconstruction:
    def test_slab_sum_reproduces_cdf(self, cube, random_grid):
        # summing the per-slab conditional surfaces against the margins
        # reproduces the copula at grid nodes
        for g in (cube, random_grid((3, 2, 3))):
            fam = slab_family(g)
            for u1 in g.breaks[0]:
                for u2 in g.breaks[1]:
                    for ti, t_hi in enumerate(fam.t_breaks[1:]):
                        total = 0.0
                        for k in range(ti + 1):
                            s = fam.surfaces[k]
                            total += fam.weights[k] * s.eval_lattice(
                                [fam.margins1[k](u1)], [fam.margins2[k](u2)]
                            )[0, 0]
                        assert total == pytest.approx(
                            g.cdf([u1, u2, t_hi]), abs=1e-12
                        )
