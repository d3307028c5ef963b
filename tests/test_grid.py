import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from copulakit import (
    GridCopula,
    box_mass,
    common_refinement,
    convex_combine,
    cube_copula,
    discretize,
    example54_copula,
    independence,
    new_grid,
    product_extend,
    pvc3,
    uniform_breaks,
)
from copulakit.errors import (
    BadDimension,
    BadIndexSet,
    DimensionMismatch,
    InvertedBox,
    MarginViolation,
    NegativeMass,
    ResolutionOverflow,
    TotalMassViolation,
    WeightError,
)
import copulakit.grid as grid_mod
from copulakit.grid import _locate, cell_index, cum_nodes, multilinear_interp
from copulakit.verify import random_copula_grid
from conftest import checkerboard_cdf_oracle, nonuniform_grid


class TestNewGrid:
    def test_cube_masses_are_valid(self, cube):
        assert cube.dim == 3
        assert cube.masses.sum() == 1.0

    def test_resolution_one_is_independence(self):
        c = new_grid(2, [1, 1], [1.0])
        assert c.cdf([0.3, 0.5]) == pytest.approx(0.15, abs=1e-15)

    def test_margin_violation(self):
        with pytest.raises(MarginViolation):
            new_grid(2, [2, 2], [0.6, 0.0, 0.0, 0.4])

    def test_negative_mass(self):
        with pytest.raises(NegativeMass):
            new_grid(2, [2, 2], [0.6, -0.1, -0.1, 0.6])

    def test_total_mass_violation(self):
        m = np.full((2, 2), 0.3)
        with pytest.raises((TotalMassViolation, MarginViolation)):
            new_grid(2, [2, 2], m)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            new_grid(2, [2, 2], [0.5, 0.5])

    def test_dim_below_two(self):
        with pytest.raises(BadDimension):
            new_grid(1, [4], [0.25] * 4)


class TestValidation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_mass_is_negative_mass(self, bad):
        m = np.full((2, 2), 0.25)
        m[1, 0] = bad
        with pytest.raises(NegativeMass, match="finite"):
            GridCopula([uniform_breaks(2)] * 2, m)

    @pytest.mark.parametrize("axis", range(4))
    def test_each_axis_margin_is_checked(self, axis):
        # moving mass along one axis breaks that axis's margin alone
        g = nonuniform_grid(np.random.default_rng(axis), 4, sizes=[2, 3, 2, 3])
        m = np.array(g.masses)
        lo, hi = [0] * 4, [0] * 4
        hi[axis] = 1
        eps = 0.5 * m[tuple(lo)]
        m[tuple(lo)] -= eps
        m[tuple(hi)] += eps
        with pytest.raises(MarginViolation, match=f"axis {axis}:"):
            GridCopula(g.breaks, m)


class TestMassBuilder:
    """A grid given a function for its masses calls it on the first read of
    ``masses`` and checks the tensor then, as it checks a given one at once."""

    def test_built_on_first_read_once(self):
        calls = []
        g = GridCopula([uniform_breaks(2)] * 2,
                       lambda: calls.append(1) or np.array([[0.5, 0.0], [0.0, 0.5]]))
        assert (g.shape, g.dim, g.multilinear_breaks()) == ((2, 2), 2, g.breaks)
        assert repr(g) == "GridCopula(dim=2, shape=(2, 2), uniform)" and calls == []
        assert g.cdf([0.5, 0.5]) == 0.5 and g.masses is g.masses and calls == [1]
        assert not g.masses.flags.writeable

    @pytest.mark.parametrize("masses, error", [
        ([[0.6, -0.1], [-0.1, 0.6]], NegativeMass),
        ([0.5, 0.5], DimensionMismatch),
        ([[0.6, 0.0], [0.0, 0.4]], MarginViolation),
    ], ids=["negative", "misshapen", "margin"])
    def test_bad_tensor_raises_on_read_not_at_construction(self, masses, error):
        g = GridCopula([uniform_breaks(2)] * 2, lambda: np.array(masses))
        assert g.shape == (2, 2) and "uniform" in repr(g)
        for _ in range(2):  # nothing is kept from a failed build
            with pytest.raises(error):
                g.masses

    def test_unvalidated_builder_checks_the_shape_alone(self):
        g = GridCopula([uniform_breaks(2)] * 2, lambda: np.full((2, 2), 0.3),
                       validate=False)
        assert g.masses.sum() == pytest.approx(1.2)
        with pytest.raises(DimensionMismatch):
            GridCopula([uniform_breaks(2)] * 2, lambda: np.ones(3), validate=False).masses


class TestCdf:
    def test_cube_center(self, cube):
        assert cube.cdf([0.5, 0.5, 0.5]) == 0.25

    def test_all_ones(self, cube, random_grid):
        assert cube.cdf([1, 1, 1]) == 1.0
        assert random_grid().cdf([1, 1, 1]) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_grid_product(self):
        c = independence(3, [4, 4, 4])
        assert c.cdf([0.25, 0.5, 0.5]) == pytest.approx(1 / 16, abs=1e-15)

    def test_matches_mass_summation_oracle(self, cube, random_grid):
        rg = random_grid((3, 4, 2))
        pts = np.random.default_rng(5).random((40, 3))
        for g in (cube, rg):
            assert_allclose(g.cdf_many(pts), checkerboard_cdf_oracle(g, pts),
                            atol=1e-13)

    def test_lattice_matches_pointwise(self, cube):
        axes = [np.linspace(0, 1, 7)] * 3
        lat = cube.cdf_on_lattice(axes)
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
        assert_allclose(lat.ravel(), cube.cdf_many(grid), atol=0)

    @given(st.lists(st.floats(0, 1), min_size=3, max_size=3),
           st.integers(0, 2), st.floats(0, 1))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_each_coordinate(self, base, axis, bump):
        cube = cube_copula()
        u = np.asarray(base)
        v = u.copy()
        v[axis] = min(1.0, v[axis] + bump)
        assert cube.cdf(v) >= cube.cdf(u) - 1e-12


def lone_kernel_nodes(g, cond_axes, cell):
    """One slab's kernel nodes, built alone: the fiber's cdf over its sum."""
    index = [slice(None)] * g.dim
    for a, i in zip(cond_axes, cell):
        index[a] = i
    fiber = g.masses[tuple(index)]
    w = float(fiber.sum())
    return cum_nodes(fiber) / w if w > 0 else cum_nodes(fiber)


class TestCellsAndKernelNodes:
    def test_cell_index_closes_cells_on_the_left_and_clips(self):
        b = np.array([0.0, 0.25, 0.5, 1.0])
        xs = [-0.1, 0.0, 0.2, 0.25, 0.7, 1.0, 1.3]
        assert cell_index(b, xs).tolist() == [0, 0, 0, 1, 2, 2, 2]
        assert cell_index(b, 0.5) == 2

    def test_kernel_nodes_are_fiber_cdf_over_mass(self, cube):
        K = cube.kernel_nodes((2,), (0,))
        assert K.shape == (3, 3)
        assert K.tolist() == [[0, 0, 0], [0, 0.5, 0.5], [0, 0.5, 1.0]]
        # conditioning on the first two axes leaves the third free
        assert cube.kernel_nodes((0, 1), (1, 0)).tolist() == [0.0, 0.0, 1.0]

    def test_massless_fiber_gives_zero_nodes(self):
        g = GridCopula([uniform_breaks(2), [0.0, 0.5, 0.5 + 1e-13, 1.0]],
                       [[0.5, 0.0, 0.0], [0.0, 0.0, 0.5]])
        assert not g.kernel_nodes((1,), (1,)).any()

    def test_a_run_of_slabs_stacks_the_lone_slabs_bit_for_bit(self):
        # each slab of a run is divided by its own strided fiber's sum, as a
        # lone slab is; the middle slab of the last axis has no mass
        rng = np.random.default_rng(8)
        masses = rng.random((3, 4, 5)) * 10.0 ** rng.integers(-3, 3, size=(3, 4, 5))
        masses[:, :, 2] = 0.0
        g = GridCopula([np.sort(np.r_[0.0, rng.random(n - 1), 1.0]) for n in (3, 4, 5)],
                       masses / masses.sum(), validate=False)
        for cond, cell, runs in [((0,), (slice(None),), [(k,) for k in range(3)]),
                                 ((1,), (slice(1, 3),), [(1,), (2,)]),
                                 ((2,), (slice(None),), [(k,) for k in range(5)]),
                                 ((2, 0), (slice(1, 4), 2), [(k, 2) for k in (1, 2, 3)]),
                                 ((0, 2), (slice(None), slice(2, 4)),
                                  [(i, k) for i in range(3) for k in (2, 3)])]:
            stack = g.kernel_nodes(cond, cell)
            lone = np.stack([lone_kernel_nodes(g, cond, c) for c in runs])
            assert all(np.array_equal(g.kernel_nodes(cond, c), k) for c, k in zip(runs, lone))
            assert stack.reshape(lone.shape).view(np.int64).tolist() == \
                lone.view(np.int64).tolist()
        # a run is a read-only view of the one stack its lone slabs view too
        run = g.kernel_nodes((2,), (slice(1, 4),))
        assert not run[1].any() and not run.flags.writeable
        assert run.base is g.kernel_nodes((2,), (0,)).base is not None
        # fibers of 91 x 91 cells, whose sums over the run at once round otherwise
        masses = rng.random((91, 91, 3)) * 10.0 ** rng.integers(-3, 3, size=(91, 91, 3))
        big = GridCopula([uniform_breaks(n) for n in masses.shape], masses / masses.sum(),
                         validate=False)
        lone = np.stack([lone_kernel_nodes(big, (2,), (k,)) for k in range(3)])
        assert big.kernel_nodes((2,), (slice(0, 3),)).view(np.int64).tolist() == \
            lone.view(np.int64).tolist()

    @pytest.mark.parametrize("seed", range(6))
    def test_every_cell_and_run_views_one_stack_of_lone_cells(self, seed):
        # random 2- to 4-D masses with zero cells and a zero slab, not copulas:
        # every conditioning set of one or two axes (in either order) leaving
        # a free axis, every cell and a run along the first conditioning axis
        rng = np.random.default_rng([27, seed])
        shape = tuple(rng.integers(1, 5, size=2 + seed % 3))
        masses = rng.random(shape) * 10.0 ** rng.integers(-3, 3, size=shape)
        masses[rng.random(shape) < 0.3] = 0.0
        masses[(slice(None),) * (seed % len(shape)) + (0,)] = 0.0
        g = GridCopula([np.sort(np.r_[0.0, rng.random(n - 1), 1.0]) for n in shape],
                       masses / max(masses.sum(), 1.0), validate=False)
        sets = [c for r in (1, 2) if r < g.dim for c in itertools.permutations(range(g.dim), r)]
        for cond in sets:
            cells = list(np.ndindex(*(shape[a] for a in cond)))
            lone = {c: lone_kernel_nodes(g, cond, c) for c in cells}
            for c in cells:
                K = g.kernel_nodes(cond, c)
                assert K.view(np.int64).tolist() == lone[c].view(np.int64).tolist(), (cond, c)
                assert not K.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    K[...] = 0.0
            rest = cells[0][1:]
            run = g.kernel_nodes(cond, (slice(0, shape[cond[0]]),) + rest)
            want = np.stack([lone[(i,) + rest] for i in range(shape[cond[0]])])
            assert run.view(np.int64).tolist() == want.view(np.int64).tolist(), cond
            assert not run.flags.writeable

    def test_kernel_interpolates_each_slab_and_broadcasts_u(self, cube):
        v = np.array([0.25, 0.75, 0.75])
        u = np.array([[0.5, 0.5], [0.5, 0.5], [1.0, 0.25]])
        assert cube.kernel(v, u).tolist() == [0.5, 0.0, 0.25]
        # one row of u serves every v
        assert cube.kernel(v, [0.5, 0.5]).tolist() == [0.5, 0.0, 0.0]
        assert cube.kernel_v_breaks.tolist() == [0.0, 0.5, 1.0]
        assert [b.tolist() for b in cube.kernel_u_breaks] == [[0.0, 0.5, 1.0]] * 2

    def test_massless_slab_reads_zero_kernel(self):
        g = GridCopula([uniform_breaks(2), [0.0, 0.5, 0.5 + 1e-13, 1.0]],
                       [[0.5, 0.0, 0.0], [0.0, 0.0, 0.5]])
        assert g.kernel([0.5 + 5e-14, 0.9], [[1.0], [0.75]]).tolist() == [0.0, 0.5]


def chained_cumsum_oracle(masses):
    """The cumulative tensor as a chain of fresh cumsums, then a zero pad."""
    c = masses
    for ax in range(c.ndim):
        c = np.cumsum(c, axis=ax)
    return np.pad(c, [(1, 0)] * c.ndim)


@st.composite
def strided_masses(draw):
    """A 1- to 4-D tensor with one-cell axes allowed and signed zeros among
    its entries, read as the strided view ``base[..., k]`` of a tensor with
    one more axis (a kernel fiber is such a view)."""
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)))
    extra = draw(st.integers(1, 3))
    base = draw(arrays(np.float64, shape + (extra,),
                       elements=st.floats(0.0, 1.0) | st.sampled_from([0.0, -0.0])))
    return base[..., draw(st.integers(0, extra - 1))]


class TestCumNodes:
    @given(strided_masses())
    @settings(max_examples=200, deadline=None)
    def test_equals_the_padded_chain_of_cumsums_bit_for_bit(self, masses):
        got, want = cum_nodes(masses), chained_cumsum_oracle(masses)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert not np.shares_memory(got, masses)


class TestBoxMass:
    def test_cube_octant(self, cube):
        assert box_mass(cube, [0, 0, 0], [0.5, 0.5, 0.5]) == 0.25

    def test_whole_box(self, random_grid):
        assert box_mass(random_grid(), [0, 0, 0], [1, 1, 1]) == pytest.approx(1.0, abs=1e-12)

    def test_rcube_block(self, rcube):
        assert box_mass(rcube, [0, 0, 0.5], [0.5, 0.5, 1.0]) == 0.25

    def test_inverted_box(self, cube):
        with pytest.raises(InvertedBox):
            box_mass(cube, [0.6, 0, 0], [0.5, 1, 1])

    def test_nonnegative_on_random_boxes(self, random_grid, rng):
        g = random_grid((4, 3, 2))
        for _ in range(50):
            lo = rng.random(3) * 0.6
            hi = lo + rng.random(3) * (1 - lo)
            assert box_mass(g, lo, hi) >= -1e-12

    def test_grid_aligned_equals_tensor_sum(self, cube):
        # direct tensor summation oracle for an aligned box
        val = box_mass(cube, [0.5, 0.0, 0.0], [1.0, 0.5, 1.0])
        assert val == cube.masses[1, 0, :].sum()


class TestMargin:
    def test_cube_pairwise_margins_are_independence(self, cube):
        for axes in [(0, 1), (0, 2), (1, 2)]:
            m = cube.margin(axes)
            assert_allclose(m.masses, 0.25, atol=0)

    def test_identity_margin(self, random_grid):
        g = random_grid()
        m = g.margin((0, 1, 2))
        assert_allclose(m.masses, g.masses, atol=0)

    def test_nested_margins_commute(self, random_grid):
        g = random_grid((2, 3, 2))
        assert_allclose(
            g.margin((0, 1, 2)).margin((0, 2)).masses,
            g.margin((0, 2)).masses,
            atol=1e-15,
        )

    def test_bad_index_set(self, cube):
        with pytest.raises(BadIndexSet):
            cube.margin((2, 0))
        with pytest.raises(BadIndexSet):
            cube.margin((0, 3))


class TestReflect:
    def test_reflect_cube_gives_rcube(self, cube, rcube):
        assert_allclose(cube.reflect(2).masses, rcube.masses, atol=0)

    def test_involution(self, random_grid):
        g = random_grid((3, 2, 4))
        assert_allclose(g.reflect(1).reflect(1).masses, g.masses, atol=0)

    def test_reflect_independence(self):
        pi = independence(3, [2, 2, 2])
        assert_allclose(pi.reflect(0).masses, pi.masses, atol=0)

    def test_preserves_untouched_margins(self, random_grid):
        g = random_grid((2, 2, 3))
        assert_allclose(
            g.reflect(2).margin((0, 1)).masses, g.margin((0, 1)).masses, atol=1e-15
        )


class TestConvexCombine:
    def test_identity(self, pi2):
        c = convex_combine([0.5, 0.5], [pi2, pi2])
        assert_allclose(c.masses, pi2.masses, atol=0)

    def test_half_mix_with_cube(self, cube, pi2):
        c = convex_combine([0.5, 0.5], [pi2, cube])
        expected = np.where(cube.masses > 0, 3 / 16, 1 / 16)
        assert_allclose(c.masses, expected, atol=0)

    def test_weight_error(self, cube, pi2):
        with pytest.raises(WeightError):
            convex_combine([0.7, 0.4], [pi2, cube])


class TestProductExtend:
    def test_cube_times_independent(self, cube):
        c4 = product_extend(cube, 4)
        assert c4.cdf([0.5, 0.5, 0.5, 1.0]) == 0.25

    def test_pi_extension(self):
        c = product_extend(independence(2, [2, 2]), 3)
        assert_allclose(c.cdf([0.5, 0.5, 0.25]), 1 / 16, atol=1e-15)

    def test_margin_recovers_base(self, cube):
        c5 = product_extend(cube, 5)
        assert_allclose(c5.margin((0, 1, 2)).masses, cube.masses, atol=0)

    def test_bad_dimension(self, cube):
        with pytest.raises(BadDimension):
            product_extend(cube, 3)


class TestCommonRefinement:
    def test_lcm_of_uniform(self):
        a = independence(2, [3, 3])
        b = independence(2, [2, 2])
        ra, rb = common_refinement(a, b)
        assert ra.resolutions == [6, 6] and rb.resolutions == [6, 6]

    def test_cdf_preserved(self, cube):
        fine = independence(3, [4, 4, 4])
        rc, rf = common_refinement(cube, fine)
        assert rc.cdf([0.5, 0.5, 0.5]) == 0.25
        pts = np.random.default_rng(0).random((25, 3))
        assert_allclose(rc.cdf_many(pts), cube.cdf_many(pts), atol=1e-14)

    def test_identical_resolutions_unchanged(self, cube):
        ra, rb = common_refinement(cube, cube)
        assert ra.resolutions == cube.resolutions

    @pytest.mark.parametrize("seed", range(4))
    def test_equal_breaks_return_the_operands_untouched(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        a = nonuniform_grid(rng, 3) if seed % 2 else random_copula_grid(rng, [2, 3, 4])
        # the other operand's breaks are equal copies, not the same arrays
        b = GridCopula([bk.copy() for bk in a.breaks], a.masses.copy())
        # no uniformity test, no lcm or union, no refine_to
        for name in ("uniform_breaks", "_as_breaks"):
            monkeypatch.setattr(grid_mod, name, lambda *args: pytest.fail("refined"))
        monkeypatch.setattr(GridCopula, "refine_to", lambda *args: pytest.fail("refined"))
        ra, rb = common_refinement(a, b)
        assert ra is a and rb is b

    def test_refine_to_needs_nested_breakpoints(self, cube):
        with pytest.raises(DimensionMismatch):
            cube.refine_to([np.array([0.0, 0.3, 1.0])] * 3)

    def test_overflow_guard(self):
        a = independence(3, [97, 97, 97])
        b = independence(3, [89, 89, 89])
        # 8633 cells per axis, the lcm: 6.4e11 cells, past the limit of 10^8
        with pytest.raises(ResolutionOverflow):
            common_refinement(a, b)


def _joined(rng, b, lo=1):
    """``b`` with ``lo`` to 3 random breaks added, one beside a thin cell."""
    extra = rng.random(rng.integers(lo, 4))
    return np.union1d(b, np.concatenate([extra, np.nextafter(extra[:1], 1.0)]))


def _transfer(old, new):
    """Dense mass transfer matrix (new cells x old cells)."""
    src = cell_index(old, new[:-1])
    T = np.zeros((len(new) - 1, len(old) - 1))
    T[np.arange(len(new) - 1), src] = np.diff(new) / np.diff(old)[src]
    return T


def _interpolation(b, xs):
    """Dense node-interpolation matrix W with W @ nodevalues = values at xs."""
    idx = cell_index(b, xs)
    frac = np.clip((xs - b[idx]) / (b[idx + 1] - b[idx]), 0.0, 1.0)
    W = np.zeros((len(xs), len(b)))
    W[np.arange(len(xs)), idx] = 1.0 - frac
    W[np.arange(len(xs)), idx + 1] += frac
    return W


def _dense(tensor, matrices):
    """Contract every axis with its matrix, axis 0 first."""
    for j, W in enumerate(matrices):
        tensor = np.moveaxis(np.tensordot(W, tensor, axes=(1, j)), 0, j)
    return tensor


def _nonuniform(rng):
    """A random checkerboard re-expressed on a random nested break union."""
    base = random_copula_grid(rng, rng.integers(1, 5, size=rng.integers(2, 5)))
    breaks = [_joined(rng, b) for b in base.breaks]
    return GridCopula(breaks, _dense(base.masses, [_transfer(b, nb)
                                                   for b, nb in zip(base.breaks, breaks)]))


SEEDS = st.integers(0, 2**32 - 1)


class TestAxisMaps:
    """Refinement and lattice evaluation gather the axes a matrix would only
    copy, bit-identically to the dense matrix products."""

    @given(SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_refine_to_equals_the_transfer_matrix_product(self, seed):
        rng = np.random.default_rng(seed)
        C = _nonuniform(rng)
        new = [_joined(rng, b, lo=0) for b in C.breaks]  # some axes unchanged
        dense = _dense(C.masses, [_transfer(b, nb) for b, nb in zip(C.breaks, new)])
        assert np.array_equal(C.refine_to(new).masses, dense)

    @given(SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_lattice_equals_the_interpolation_matrix_contraction(self, seed):
        rng = np.random.default_rng(seed)
        C = _nonuniform(rng)
        axes = []
        for b in C.breaks:
            nodes = [b[rng.random(len(b)) < 0.5], [0.0, 1.0]]
            if rng.random() < 0.5:  # interior nodes: this axis interpolates
                nodes.append(rng.random(3))
            axes.append(rng.permutation(np.concatenate(nodes)))
        dense = _dense(C.cum, [_interpolation(b, xs) for b, xs in zip(C.breaks, axes)])
        assert np.array_equal(C.cdf_on_lattice(axes), dense)

    @given(SEEDS)
    @settings(max_examples=20, deadline=None)
    def test_unchanged_breaks_keep_the_operand(self, seed):
        C = _nonuniform(np.random.default_rng(seed))
        assert C.refine_to(C.breaks) is C
        r1, r2 = common_refinement(C, C)
        assert r1 is C and r2 is C

    @given(SEEDS)
    @settings(max_examples=20, deadline=None)
    def test_non_nested_breaks_raise(self, seed):
        rng = np.random.default_rng(seed)
        C = _nonuniform(rng)
        new = [_joined(rng, b, lo=0) for b in C.breaks]
        j = rng.integers(C.dim)
        new[j] = np.setdiff1d(new[j], C.breaks[j][1:-1][rng.integers(len(C.breaks[j]) - 2)])
        with pytest.raises(DimensionMismatch):
            C.refine_to(new)


def slice_gather_interp(nodes, breaks_list, pts):
    """Multilinear interpolation by slices: the first axis gathers a whole node
    slice per point, each later axis picks from it along its own axis."""
    pts = np.asarray(pts, dtype=float)
    m = len(pts)
    if m == 0:
        return np.empty(0)
    acc = None
    for j, b in enumerate(breaks_list):
        idx, frac = _locate(np.asarray(b, dtype=float), pts[:, j])
        if acc is None:
            lo = nodes[idx]
            hi = nodes[idx + 1]
        else:
            rest = acc.shape[2:]
            flat = acc.reshape(m, acc.shape[1], -1)
            lo = np.take_along_axis(flat, idx[:, None, None], axis=1)[:, 0, :]
            hi = np.take_along_axis(flat, (idx + 1)[:, None, None], axis=1)[:, 0, :]
            lo = lo.reshape((m,) + rest)
            hi = hi.reshape((m,) + rest)
        w = frac.reshape((m,) + (1,) * (lo.ndim - 1))
        acc = lo * (1.0 - w) + hi * w
    return acc if acc.ndim == 1 else acc.reshape(m)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


class TestPointwise:
    """Pointwise evaluation blends each point's 2^d cell-corner nodes, bit for
    bit the values of the slice gather, in memory of a few doubles per point."""

    @given(SEEDS)
    @settings(max_examples=80, deadline=None)
    def test_corner_blend_equals_the_slice_gather(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 5))
        breaks = [np.union1d([0.0, 1.0], rng.random(rng.integers(0, 5))) for _ in range(d)]
        nodes = rng.normal(size=[len(b) for b in breaks])
        m = int(rng.integers(0, 40))
        pts = rng.uniform(-0.25, 1.25, (m, d))  # some outside [0, 1]
        for j, b in enumerate(breaks):
            on = rng.random(m) < 0.4  # on a node, 0 and 1 among them
            pts[on, j] = rng.choice(b, on.sum())
        for p in (pts, pts[:0]):
            got = multilinear_interp(nodes, breaks, p)
            assert got.shape == (len(p),)
            assert np.array_equal(_bits(got), _bits(slice_gather_interp(nodes, breaks, p)))

    @given(SEEDS)
    @settings(max_examples=5, deadline=None)
    def test_cdf_many_of_more_than_4096_points_equals_each_cdf(self, seed):
        rng = np.random.default_rng(seed)
        C = _nonuniform(rng)
        pts = rng.random((4100, C.dim))
        pts[::7] = 1.0  # the last node of every axis
        assert np.array_equal(_bits(C.cdf_many(pts)), _bits([C.cdf(p) for p in pts]))

    def test_cdf_many_peak_memory_is_a_few_doubles_per_point(self):
        psi = pvc3(discretize(example54_copula(), [64, 64, 4])).psi
        assert psi.shape == (226, 226, 4)
        pts = np.random.default_rng(0).random((4096, 3))
        psi.cum  # cached with the copula, not evaluation memory
        tracemalloc.start()
        try:
            values = psi.cdf_many(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert np.array_equal(_bits(values), _bits(slice_gather_interp(psi.cum, psi.breaks, pts)))


class TestSerialization:
    def test_round_trip_bit_exact(self, cube, random_grid):
        for g in (cube, random_grid((3, 2, 2))):
            back = GridCopula.from_json(g.to_json())
            assert all(np.array_equal(a, b) for a, b in zip(back.breaks, g.breaks))
            assert np.array_equal(back.masses, g.masses)

    def test_format_fields(self, cube):
        payload = json.loads(cube.to_json())
        assert payload["dim"] == 3
        assert payload["resolutions"] == [2, 2, 2]
        assert payload["order"] == "row-major-last-fastest"
        assert len(payload["masses"]) == 8

    def test_nonuniform_round_trip(self):
        g = GridCopula(
            [np.array([0.0, 0.25, 1.0]), np.array([0.0, 0.5, 1.0])],
            np.array([[0.125, 0.125], [0.375, 0.375]]),
        )
        back = GridCopula.from_json(g.to_json())
        assert np.array_equal(back.masses, g.masses)


class TestUniformMarginInvariant:
    def test_every_axis_slab(self, random_grid):
        g = random_grid((4, 2, 3))
        for j in range(3):
            axes = tuple(k for k in range(3) if k != j)
            assert_allclose(g.masses.sum(axis=axes), np.diff(g.breaks[j]), atol=1e-12)
