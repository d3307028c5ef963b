import os
import signal
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from copulakit import (
    AnalyticCopula,
    bstar,
    box_mass,
    d_inf,
    efgm_quadratic,
    empirical_copula,
    example54_copula,
    independence_analytic,
    is_simplified,
    load_sample,
    product_extend,
    pvc3,
    sample,
    save_sample,
)
from copulakit.empirical import EmpiricalCopula, step_cdf_slabs
from copulakit import metrics
from copulakit.errors import (
    BadDimension,
    BadOperand,
    ClosedFormUnavailable,
    DimensionMismatch,
    ResolutionOverflow,
    TiesDetected,
)
from copulakit.grid import GridCopula, uniform_breaks
from copulakit.metrics import _lattice_axes, d_inf_many, slab_sup_distances
from copulakit.verify import random_copula_grid
from conftest import nonuniform_grid


def _dominated_fraction(points, axes):
    """Brute-force step cdf: the share of points at or below each node."""
    nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    below = np.all(points[:, None, :] <= nodes.reshape(-1, len(axes))[None], axis=2)
    return below.sum(axis=0).reshape(nodes.shape[:-1]) / len(points)


def _d_linear(emp, axes):
    """The d-linear cdf on a lattice: the brute-force step counts on the rank
    grid {k/n}, elsewhere the clip-weight formula of ``cdf_many`` at each node."""
    if _on_rank_grid(axes, emp.n):
        return _dominated_fraction(emp.ranks / emp.n, axes)
    nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    return emp.cdf_many(nodes.reshape(-1, len(axes))).reshape(nodes.shape[:-1])


def _on_rank_grid(axes, n):
    """Whether every node is a float k/n, as ``uniform_breaks(n)`` holds it."""
    return all(np.array_equal(np.round(np.multiply(a, n)) / n, a) for a in axes)


def _nonuniform_axes(rng, n, d):
    """Sorted random nodes per axis, some on the rank grid, so that ranks hit
    nodes exactly; the first axis starts above 0, the last ends below 1."""
    axes = []
    for j in range(d):
        pts = np.union1d(rng.random(rng.integers(3, 9)), rng.integers(1, n + 1, 3) / n)
        axes.append(pts[1:] if j == 0 else pts[:-1] if j == d - 1 else pts)
    return axes


class TestEmpiricalConstruction:
    def test_rank_layout_diagonal(self):
        emp = empirical_copula([[0.1, 0.2, 0.3], [0.9, 0.8, 0.7]])
        g = emp.to_grid()
        assert g.masses[0, 0, 0] == 0.5
        assert g.masses[1, 1, 1] == 0.5
        assert g.masses.sum() == 1.0

    def test_single_point(self):
        emp = empirical_copula([[0.4, 0.6]])
        assert emp.to_grid().masses[0, 0] == 1.0

    def test_ties_detected(self):
        with pytest.raises(TiesDetected):
            empirical_copula([[0.5, 0.1], [0.5, 0.9]])

    def test_stable_tie_break(self):
        emp = empirical_copula([[0.5, 0.1], [0.5, 0.9]], tie_break="stable")
        assert sorted(emp.ranks[:, 0].tolist()) == [1, 2]

    def test_grid_view_is_valid_copula(self, cube):
        emp = empirical_copula(sample(cube, 20, seed=3))
        g = emp.to_grid()  # constructor validates margins and total mass
        assert g.resolutions == [20, 20, 20]

    def test_always_simplified(self, cube):
        for seed in (1, 2):
            emp = empirical_copula(sample(cube, 100, seed=seed))
            flag, delta = is_simplified(emp)
            assert flag and delta == 0.0


class TestEmpiricalEvaluation:
    def test_cdf_matches_dense_grid(self, cube):
        emp = empirical_copula(sample(cube, 24, seed=5))
        g = emp.to_grid()
        pts = np.random.default_rng(0).random((50, 3))
        assert_allclose(emp.cdf_many(pts), g.cdf_many(pts), atol=1e-13)

    def test_lattice_exact_route(self, cube):
        emp = empirical_copula(sample(cube, 30, seed=6))
        axes = [np.linspace(0, 1, 11)] * 3
        lat = emp.cdf_on_lattice(axes)
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, 3)
        assert_allclose(lat.ravel(), emp.cdf_many(grid), atol=1e-13)

    def test_lattice_in_six_dimensions(self):
        # 10 points on 11 nodes per axis against the 10^6-cell dense view
        emp = empirical_copula(np.random.default_rng(4).random((10, 6)))
        axes = [np.linspace(0, 1, 11)] * 6
        assert_allclose(emp.cdf_on_lattice(axes), emp.to_grid().cdf_on_lattice(axes),
                        atol=1e-15)

    def test_lattice_is_exact_on_large_lattices(self, cube):
        # 64 points on 113 nodes per axis: every lattice value is the d-linear
        # cdf, so the distance to the same copula refined is rounding only
        from copulakit import d_inf

        emp = empirical_copula(sample(cube, 64, seed=3))
        axis = np.union1d(np.arange(65) / 64, np.arange(51) / 50)
        rep = d_inf(emp, emp.to_grid().refine_to([axis] * 3))
        assert rep.exactness == "exact" and rep.error == 0.0
        assert rep.value <= 1e-15

    def test_step_lattice_at_aligned_nodes(self, cube):
        emp = empirical_copula(sample(cube, 40, seed=7))
        axes = [np.arange(5) / 4.0] * 3  # quarters align with the 40-grid
        step = np.stack(list(step_cdf_slabs(emp.ranks / emp.n, axes)))
        exact = emp.cdf_on_lattice(axes)
        assert_allclose(step, exact, atol=1e-13)

    def test_scan_matches_exact_small_n(self, cube, pi2):
        # 100 points: the 101 rank nodes per axis fit the 251-node scan axis,
        # so the sample is read on its merged breaks, exactly, as its dense
        # grid view of 10^6 cells is; on a 51-node scan axis it is certified
        emp = empirical_copula(sample(cube, 100, seed=8))
        exact = [d_inf(emp.to_grid(), t) for t in (cube, pi2)]
        for rep, oracle in zip(d_inf_many(emp, [cube, pi2], scan_m=250), exact):
            assert (rep.exactness, rep.error, oracle.exactness) == ("exact", 0.0, "exact")
            assert rep.value == pytest.approx(oracle.value, rel=0, abs=1e-14)
        for rep, oracle in zip(d_inf_many(emp, [cube, pi2], scan_m=50), exact):
            assert rep.exactness == "certified"
            assert rep.error == pytest.approx(3 / 50, rel=0, abs=1e-15)
            # every node value is the d-linear cdf: a lower bound and a bracket
            assert rep.value <= oracle.value + 1e-14
            assert oracle.value <= rep.value + rep.error + 1e-14

    def test_scan_aligned_node_values_are_exact(self, cube, pi2):
        emp = empirical_copula(sample(cube, 120, seed=9))
        scan, _ = d_inf_many(emp, [cube, pi2], scan_m=40)
        # 40 divides 120: node values are exact, so the node max is a
        # certified lower bound and nodemax + the Lipschitz width an upper one
        exact = d_inf(emp.to_grid(), cube)
        assert exact.exactness == "exact"
        assert scan.error == pytest.approx(3 / 40, rel=0, abs=1e-15)
        assert scan.value <= exact.value + 1e-12
        assert exact.value <= scan.value + scan.error + 1e-12


def _scan_oracle(emp, targets, axes):
    """Node maxima of |empirical - target| on the lattice ``axes``: the
    d-linear cdf (:func:`_d_linear`) against one target lattice per slab."""
    E = _d_linear(emp, axes)
    maxima = [0.0] * len(targets)
    for k in range(len(axes[0])):
        slab = [axes[0][k : k + 1], *axes[1:]]
        for t_i, target in enumerate(targets):
            T = target.cdf_on_lattice(slab)[0]
            maxima[t_i] = max(maxima[t_i], float(np.max(np.abs(E[k] - T))))
    return maxima


class TestStepSlabs:
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("n, seed", [(1, 0), (17, 1), (200, 2)])
    def test_stream_equals_brute_force_counts_bit_for_bit(self, d, n, seed):
        rng = np.random.default_rng(seed)
        emp = empirical_copula(rng.random((n, d)))
        axes = _nonuniform_axes(rng, n, d)
        stream = np.stack(list(step_cdf_slabs(emp.ranks / emp.n, axes)))
        assert np.array_equal(stream, _dominated_fraction(emp.ranks / emp.n, axes))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_rank_form_slabs_are_the_step_counts(self, d):
        emp = empirical_copula(np.random.default_rng(d).random((70, d)))
        axes = [np.arange(6) / 5] * d
        slabs = np.stack(list(emp.cdf_slabs(axes)))
        assert np.array_equal(slabs, _dominated_fraction(emp.ranks / emp.n, axes))
        # the step counts are the d-linear cdf on the rank grid {k/70} only;
        # off it, by thirds or by an ulp (linspace's 0.6000000000000001 for
        # 42/70), the slabs interpolate them
        for off in ([np.arange(11) / 10] * (d - 1) + [np.arange(4) / 3],
                    [np.linspace(0.0, 1.0, 6)] * d):
            slabs = np.stack(list(emp.cdf_slabs(off)))
            assert_allclose(slabs, _d_linear(emp, off), rtol=0, atol=1e-14)
            assert not np.array_equal(slabs, _dominated_fraction(emp.ranks / emp.n, off))

    def test_small_samples_stream_their_d_linear_cdf(self, cube):
        emp = empirical_copula(sample(cube, 30, seed=4))
        axes = [np.linspace(0.0, 1.0, 7)] * 3
        assert_allclose(np.stack(list(emp.cdf_slabs(axes))),
                        emp.to_grid().cdf_on_lattice(axes), rtol=0, atol=1e-15)


class TestCheckerboardOnTheRankGrid:
    # sample sizes from 1 to 200 points, some past the default 128-node scan axis
    sizes = st.sampled_from([1, 5, 17, 64, 65, 90, 200])

    @given(st.integers(0, 2**32 - 1), st.integers(2, 4), sizes)
    @settings(max_examples=60, deadline=None)
    def test_slabs_are_the_d_linear_cdf_on_mixed_lattices(self, seed, d, n):
        rng = np.random.default_rng(seed)
        emp = empirical_copula(rng.random((n, d)))
        axes = [np.union1d(rng.random(rng.integers(1, 6)),
                           rng.integers(0, n + 1, rng.integers(0, 4)) / n) for _ in range(d)]
        # the dense view holds n^d cells: the clip-weight formula above 2^22
        want = (emp.to_grid().cdf_on_lattice(axes) if n**d <= 2**22
                else _d_linear(emp, axes))
        assert_allclose(emp.cdf_on_lattice(axes), want, rtol=0, atol=1e-14)
        assert_allclose(np.stack(list(emp.cdf_slabs(axes))), want, rtol=0, atol=1e-14)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 4), sizes)
    @settings(max_examples=60, deadline=None)
    def test_slabs_are_the_step_counts_on_the_rank_grid(self, seed, d, n):
        rng = np.random.default_rng(seed)
        emp = empirical_copula(rng.random((n, d)))
        axes = [np.unique(rng.integers(0, n + 1, rng.integers(1, 8))) / n for _ in range(d)]
        want = list(step_cdf_slabs(emp.ranks / n, axes))
        assert all(np.array_equal(a, b) for a, b in zip(emp.cdf_slabs(axes), want, strict=True))
        # a part of a split scan starts at an inner node of the first axis
        k = int(rng.integers(0, len(axes[0])))
        part = emp.cdf_slabs([axes[0][k:], *axes[1:]])
        assert all(np.array_equal(a, b) for a, b in zip(part, want[k:], strict=True))

    def test_any_node_order_and_an_empty_axis(self):
        rng = np.random.default_rng(5)
        emp = empirical_copula(rng.random((30, 3)))
        # a node below the one before restarts the rank stream
        axes = [rng.random(6), rng.random(4), np.array([1.0, 0.0, 0.5])]
        assert_allclose(emp.cdf_on_lattice(axes), emp.to_grid().cdf_on_lattice(axes),
                        rtol=0, atol=1e-15)
        for j in range(3):
            empty = [np.array([0.5])] * 3
            empty[j] = np.array([])
            assert emp.cdf_on_lattice(empty).shape == (1, 1, 1)[:j] + (0,) + (1, 1, 1)[j + 1 :]


class TestRankFormDInf:
    # the node maximum of the d-linear cdf on the whole scan lattice, the same
    # bit for bit from cdf_many node by node, and the Lipschitz width alone
    @pytest.mark.parametrize("source, target, n, seed, value, error", [
        ("cube", "cube", 300, 5, 0.05083333333333334, 0.0234375),
        ("cube", "efgm", 300, 5, 0.11370253026485444, 0.0234375),
        ("bstar", "bstar", 200, 7, 0.030917968750000024, 0.015625),
    ])
    def test_pinned_to_the_whole_lattice_values(self, cube, source, target, n, seed,
                                                value, error):
        families = {"cube": cube, "bstar": bstar(), "efgm": efgm_quadratic(3)}
        emp = empirical_copula(sample(families[source], n, seed=seed))
        rep = d_inf(emp, families[target])
        assert (rep.value, rep.error, rep.exactness) == (value, error, "certified")

    def test_no_rank_gap_when_every_node_is_on_the_rank_grid(self, cube):
        # 128 divides 256, and the cube's breaks lie on the 256-grid as well,
        # so the step counts are exact and only the Lipschitz width remains
        rep = d_inf(empirical_copula(sample(cube, 256, seed=1)), cube)
        assert rep.exactness == "certified"
        assert 0.0 <= rep.error - 3 / 128 <= np.spacing(3 / 128)

    @pytest.mark.parametrize("target", ["grid", "analytic"])
    def test_four_dimensions_against_a_whole_lattice_oracle(self, cube, target):
        rng = np.random.default_rng(11)
        emp = empirical_copula(rng.random((100, 4)))
        # every break of both targets is on the 8-lattice
        other = product_extend(cube, 4) if target == "grid" else efgm_quadratic(4)
        axes = [np.arange(9) / 8] * 4
        oracle = np.max(np.abs(_d_linear(emp, axes) - other.cdf_on_lattice(axes)))
        rep = d_inf(emp, other, scan_m=8)
        assert rep.value == pytest.approx(oracle, rel=0, abs=1e-15)
        assert rep.error == 4 / 8
        assert rep.n_evaluations == 2 * 9**4


class TestTheExactnessRule:
    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]), st.integers(1, 300),
           st.integers(8, 200))
    @settings(max_examples=30, deadline=None)
    @example(seed=0, d=3, n=100, m=128)  # exact
    @example(seed=0, d=2, n=300, m=8)  # certified
    def test_exact_when_the_merged_breaks_fit_the_scan(self, seed, d, n, m):
        rng = np.random.default_rng(seed)
        emp = empirical_copula(rng.random((n, d)))
        grid = nonuniform_grid(rng, d)
        rep = d_inf(emp, grid, scan_m=m)
        scan = _lattice_axes([emp, grid], m)
        merged = [np.union1d(uniform_breaks(n), b) for b in grid.breaks]
        fits = all(len(a) <= len(b) for a, b in zip(merged, scan))
        assert (rep.exactness == "exact") == fits
        if fits:
            assert rep.error == 0.0
            assert abs(rep.value - d_inf(emp.to_grid(), grid).value) <= 1e-14
        else:
            assert rep.error == _width(scan)
        # the scan lattice holds none of the sample's rank nodes
        for a, b in zip(scan, grid.breaks):
            assert np.setdiff1d(a, np.union1d(uniform_breaks(m), b)).size == 0


def _width(axes):
    """Lipschitz width of a scan lattice: the largest step, summed over axes."""
    return sum(float(np.max(np.diff(a))) for a in axes)


def _fields(rep):
    return rep.value, rep.exactness, rep.error, rep.n_evaluations


def _d_inf_lattice(emp, t, m):
    """The lattice ``d_inf(emp, t, scan_m=m)`` reads and whether it is exact:
    the merged breaks when ``t`` is multilinear and no merged axis is longer
    than the scan axis, else the scan lattice."""
    scan = _lattice_axes([emp, t], m)
    if t.multilinear_breaks() is None:
        return scan, False
    merged = [np.union1d(a, b) for a, b in zip(emp.multilinear_breaks(), t.multilinear_breaks())]
    if any(len(a) > len(b) for a, b in zip(merged, scan)):
        return scan, False
    return merged, True


class TestSupScan:
    @pytest.mark.parametrize("n, m, seed", [
        (120, 40, 0), (120, 24, 1), (400, 40, 2),  # m divides n
        (120, 37, 3), (97, 25, 4), (53, 40, 5), (7, 11, 6),  # it does not
    ])
    def test_maxima_equal_brute_force_oracle_bit_for_bit(self, cube, pi2, n, m, seed):
        rng = np.random.default_rng(seed)
        source = random_copula_grid(rng, [2, 3, 4])
        emp = empirical_copula(sample(source, n, seed=seed))
        nonuniform = random_copula_grid(rng, rng.integers(1, 6, size=3))
        # a closed form is never exact; a grid target is exact on the merged
        # breaks when no merged axis is longer than the scan axis
        efgm = efgm_quadratic(3)
        for targets in ([cube], [pi2, nonuniform, efgm], [nonuniform, source, cube, efgm]):
            reports = d_inf_many(emp, targets, scan_m=m)
            for t, rep in zip(targets, reports):
                # each target on its own lattice, exact or certified by its
                # width; on the rank grid the slabs are the step counts bit for bit
                axes, exact = _d_inf_lattice(emp, t, m)
                (oracle,) = _scan_oracle(emp, [t], axes)
                if _on_rank_grid(axes, n):
                    assert rep.value == oracle
                else:
                    assert rep.value == pytest.approx(oracle, rel=0, abs=1e-14)
                assert (rep.exactness, rep.error) == (
                    ("exact", 0.0) if exact else ("certified", _width(axes)))

    def test_the_rank_gap_follows_the_lattice(self, cube):
        # 40 divides 120 and the cube's breaks lie on the 120-grid; 37 does not
        # divide 120, yet every node is exact there too: no gap on either
        emp = empirical_copula(sample(cube, 120, seed=0))
        for m in (40, 37):
            (rep,) = d_inf_many(emp, [cube], scan_m=m)
            axes = _lattice_axes([emp, cube], m)
            assert rep.error == _width(axes)
            assert rep.value == pytest.approx(_scan_oracle(emp, [cube], axes)[0],
                                              rel=0, abs=1e-14)

    def test_one_stream_of_the_operand_serves_every_target(self, cube, pi2, monkeypatch,
                                                           cpus):
        emp = empirical_copula(sample(cube, 200, seed=4))
        calls = []
        stream = type(emp).cdf_slabs
        monkeypatch.setattr(type(emp), "cdf_slabs",
                            lambda self, axes: calls.append(axes) or stream(self, axes))
        cpus(3)
        both = d_inf_many(emp, [cube, pi2], scan_m=20)
        # each part streams its own nodes of the first axis, each node once
        firsts = sorted((axes[0] for axes in calls), key=lambda a: a[0])
        assert len(calls) == 3
        assert np.array_equal(np.concatenate(firsts), _lattice_axes([emp, cube], 20)[0])
        # cube and pi2 share their breaks, so the shared lattice is each one's own
        monkeypatch.undo()
        assert [_fields(rep) for rep in both] == [_fields(d_inf(emp, t, scan_m=20))
                                                  for t in (cube, pi2)]

    def test_a_certificate_does_not_grow_with_the_other_targets(self, pi2):
        # the source's breaks lie off the 400-grid: pi2 is still scanned on
        # its own lattice, which holds no node of the source's
        source = random_copula_grid(np.random.default_rng(2), [2, 3, 4])
        emp = empirical_copula(sample(source, 400, seed=2))
        both = d_inf_many(emp, [pi2, source], scan_m=40)
        assert [_fields(rep) for rep in both] == [_fields(d_inf(emp, t, scan_m=40))
                                                  for t in (pi2, source)]
        assert both[0].error == _width(_lattice_axes([emp, pi2], 40))
        assert both[0].n_evaluations < both[1].n_evaluations

    def test_accepts_any_dimension_and_rejects_a_target_of_another(self, cube):
        rng = np.random.default_rng(1)
        for pts, target in ((rng.random((90, 4)), product_extend(cube, 4)),
                            (rng.random((90, 2)), bstar())):
            emp = empirical_copula(pts)
            (rep,) = d_inf_many(emp, [target], scan_m=8)
            axes = _lattice_axes([emp, target], 8)  # 8 does not divide 90
            assert rep.value == pytest.approx(_scan_oracle(emp, [target], axes)[0],
                                              rel=0, abs=1e-14)
            assert rep.error == _width(axes)
        emp = empirical_copula(rng.random((40, 3)))
        with pytest.raises(DimensionMismatch):
            d_inf_many(emp, [cube, cube.margin((0, 1))], scan_m=8)

    def test_a_slab_over_the_budget_overflows_before_any_work(self):
        # 301^3 nodes per slab of a 4-D scan, 129^5 per slab of a 6-D d_inf
        emp = empirical_copula(np.random.default_rng(3).random((100, 4)))
        with pytest.raises(ResolutionOverflow, match="slab"):
            d_inf_many(emp, [efgm_quadratic(4)], scan_m=300)
        emp6 = empirical_copula(np.random.default_rng(3).random((100, 6)))
        with pytest.raises(ResolutionOverflow, match="slab"):
            d_inf(emp6, efgm_quadratic(6))

    @pytest.mark.parametrize("m", [2.5, 2.0, "8", None])
    def test_rejects_a_scan_m_that_is_not_an_integer(self, m):
        # 2.5 scanned the nodes 0, 0.4, 0.8 and 1.2 and certified the result
        with pytest.raises(BadOperand, match="integer scan_m >= 1"):
            d_inf(efgm_quadratic(3), independence_analytic(3), scan_m=m)

    def test_a_numpy_integer_scan_m_is_an_integer(self):
        pair = efgm_quadratic(3), independence_analytic(3)
        assert _fields(d_inf(*pair, scan_m=np.int64(8))) == _fields(d_inf(*pair, scan_m=8))

    def test_a_huge_scan_m_overflows_before_the_lattice_is_built(self, cube, pi2):
        pair = efgm_quadratic(3), independence_analytic(3)
        d_inf(*pair, scan_m=4)
        tracemalloc.start()
        try:
            with pytest.raises(ResolutionOverflow, match="slab"):
                d_inf(*pair, scan_m=10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        # a pair whose merged breaks are exact needs no scan lattice at all
        rep = d_inf(cube, pi2, scan_m=10**6)
        assert rep.exactness == "exact" and rep.value == d_inf(cube, pi2).value

    @pytest.mark.parametrize("m", [0, -3])
    def test_rejects_an_empty_lattice(self, cube, m):
        emp = empirical_copula(np.random.default_rng(2).random((40, 3)))
        with pytest.raises(BadOperand, match="m >= 1"):
            d_inf_many(emp, [cube], scan_m=m)
        with pytest.raises(BadOperand, match="m >= 1"):
            d_inf(emp, cube, scan_m=m)


@pytest.fixture()
def blas(monkeypatch):
    """A stand-in for OpenBLAS's thread count, ``blas[0]``, 4 to start with,
    so a split scan does not depend on the BLAS that numpy loads."""
    threads = [4]
    monkeypatch.setattr(metrics, "_openblas_threads", lambda: (
        lambda: threads[0], lambda k: threads.__setitem__(0, k)))
    return threads


@pytest.fixture()
def cpus(monkeypatch, blas):
    """Set the number of CPUs a scan may split across; the small lattices
    here split too, with the split threshold at one node."""
    monkeypatch.setattr(metrics, "_SPLIT_SLAB", 1)

    def pin(k):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)
    return pin


def _operands(kind, d, n):
    """An operand of each kind in dimension ``d``; the sample has ``n`` points."""
    rng = np.random.default_rng(10 * d + n)
    return {"grid": lambda: random_copula_grid(rng, [2, 3, 4, 3][:d]),
            "closed": lambda: efgm_quadratic(d),
            "rank": lambda: empirical_copula(rng.random((n, d)))}[kind]()


class TestSplitScan:
    # a rank-form operand streams its d-linear cdf at small and large n alike
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("n", [40, 150])
    @pytest.mark.parametrize("kind", ["grid", "closed", "rank"])
    def test_maxima_do_not_depend_on_the_number_of_parts(self, cpus, d, n, kind):
        op = _operands(kind, d, n)
        others = [_operands(k, d, n) for k in ("grid", "closed", "rank") if k != kind]
        axes = _lattice_axes([op, *others], 9)
        found = []
        # more parts than cores, switching often: the grid's lazily built
        # node tensor is the one state the parts share
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for k in (1, 2, 3, 7):
                cpus(k)
                found.append(slab_sup_distances(op, others, axes))
        finally:
            sys.setswitchinterval(interval)
        assert all(m == found[0] for m in found[1:])
        assert all(v > 0.0 for v in found[0])

    def test_slab_mixture_maxima_do_not_depend_on_the_number_of_parts(self, cpus):
        # each part builds the conditional-copula tables of its own rows only
        ex = example54_copula()
        others = [pvc3(ex).psi, _operands("grid", 3, 150), _operands("rank", 3, 150)]
        axes = _lattice_axes([ex, *others], 16)
        found = []
        for k in (1, 2, 3):
            cpus(k)
            found.append(slab_sup_distances(ex, others, axes))
        assert all(m == found[0] for m in found[1:])
        assert found[0][0] == 3 / 16

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("n, seed", [(1, 0), (17, 1), (200, 2)])
    def test_a_stream_from_an_inner_node_seeds_its_first_slab(self, d, n, seed):
        rng = np.random.default_rng(seed)
        points = empirical_copula(rng.random((n, d))).ranks / n
        axes = _nonuniform_axes(rng, n, d)
        full = list(step_cdf_slabs(points, axes))
        for k in range(len(axes[0])):
            assert axes[0][k] > 0
            tail = list(step_cdf_slabs(points, [axes[0][k:], *axes[1:]]))
            assert len(tail) == len(full) - k
            assert all(np.array_equal(a, b) for a, b in zip(tail, full[k:]))

    def test_parts_run_on_worker_threads_with_one_blas_thread(self, cpus, blas, cube,
                                                               monkeypatch):
        emp = empirical_copula(sample(cube, 200, seed=4))
        axes = _lattice_axes([emp, cube], 20)
        seen = []
        stream = type(cube).cdf_slabs
        monkeypatch.setattr(type(cube), "cdf_slabs", lambda self, axes: seen.append(
            (threading.get_ident(), blas[0])) or stream(self, axes))
        cpus(2)
        split = slab_sup_distances(emp, [cube], axes)
        # a worker that is done with its part may take the next one
        assert len(seen) == 2
        assert all(t != threading.get_ident() and k == 1 for t, k in seen)
        assert blas == [4]
        # inline, BLAS untouched: a slab budget that holds one slab, one CPU,
        # or a BLAS whose thread count cannot be set
        budget = metrics._SLAB_BUDGET
        for attr, value, k in (("_SLAB_BUDGET", len(axes[1]) ** 2, 2),
                               ("_SLAB_BUDGET", budget, 1),
                               ("_openblas_threads", lambda: None, 2)):
            seen.clear()
            monkeypatch.setattr(metrics, attr, value)
            cpus(k)
            assert slab_sup_distances(emp, [cube], axes) == split
            assert seen == [(threading.get_ident(), 4)]

    @staticmethod
    def _threshold_scan(blas, monkeypatch, nodes):
        """A 2-D scan whose slab, the second axis, has ``nodes`` nodes, run
        at the module's split threshold on two CPUs: its maxima and the
        (thread, BLAS thread count) of each stream drawn."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        rng = np.random.default_rng(5)
        emp, grid = empirical_copula(rng.random((300, 2))), random_copula_grid(rng, [5, 7])
        axes = [uniform_breaks(6), np.linspace(0.0, 1.0, nodes)]
        seen = []
        stream = GridCopula.cdf_slabs
        monkeypatch.setattr(GridCopula, "cdf_slabs", lambda self, axes: seen.append(
            (threading.get_ident(), blas[0])) or stream(self, axes))
        return slab_sup_distances(emp, [grid, efgm_quadratic(2)], axes), seen

    def test_a_slab_below_the_split_threshold_scans_inline(self, blas, monkeypatch):
        _, seen = self._threshold_scan(blas, monkeypatch, metrics._SPLIT_SLAB - 1)
        # no worker thread, and BLAS's thread count never set
        assert seen == [(threading.get_ident(), 4)]
        assert blas == [4]

    def test_a_slab_at_the_split_threshold_splits_with_the_inline_maxima(self, blas,
                                                                         monkeypatch):
        at = metrics._SPLIT_SLAB
        split, seen = self._threshold_scan(blas, monkeypatch, at)
        assert len(seen) == 2
        assert all(t != threading.get_ident() and k == 1 for t, k in seen)
        assert blas == [4]
        # the same lattice, one node below a raised threshold
        monkeypatch.setattr(metrics, "_SPLIT_SLAB", at + 1)
        inline, seen = self._threshold_scan(blas, monkeypatch, at)
        assert seen == [(threading.get_ident(), 4)]
        assert [v.hex() for v in split] == [v.hex() for v in inline]
        assert all(v > 0.0 for v in split)

    def test_the_loaded_openblas_thread_count_is_set(self):
        threads = metrics._openblas_threads()
        if threads is None:
            pytest.skip("numpy's BLAS is not an OpenBLAS")
        get, put = threads
        n = get()
        put(1)
        try:
            assert get() == 1
        finally:
            put(n)
        assert get() == n >= 1

    def test_an_error_in_the_last_part_reaches_the_caller(self, cpus, blas, cube):
        err = ClosedFormUnavailable("no value at x = 1")

        def cdf(pts):
            if np.any(pts[:, 0] == 1.0):
                raise err
            return np.prod(pts, axis=1)

        emp = empirical_copula(sample(cube, 200, seed=4))
        axes = _lattice_axes([emp, cube], 20)
        for k in (1, 3):
            cpus(k)
            with pytest.raises(ClosedFormUnavailable) as caught:
                slab_sup_distances(emp, [cube, AnalyticCopula(3, cdf)], axes)
            assert caught.value is err
        assert blas == [4]

    @pytest.mark.parametrize("stop", ["error", "interrupt"])
    def test_an_error_or_an_interrupt_stops_the_other_parts(self, cpus, blas, cube, stop):
        err = ClosedFormUnavailable("no value below x = 1/2")
        drawn = []

        def cdf(pts):
            if stop == "error" and pts[0, 0] < 0.5:
                raise err  # the first part, at its first slab
            if stop == "interrupt" and not drawn:  # Ctrl-C while the parts run
                signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
            drawn.append(pts[0, 0])
            time.sleep(0.005)
            return np.prod(pts, axis=1)

        emp = empirical_copula(sample(cube, 200, seed=4))
        axes = _lattice_axes([emp, cube], 200)
        cpus(2)
        with pytest.raises(KeyboardInterrupt if stop == "interrupt" else ClosedFormUnavailable):
            slab_sup_distances(emp, [AnalyticCopula(3, cdf)], axes)
        # unstopped, a part draws 100 slabs of 5 ms each
        assert len(drawn) < 20
        assert blas == [4]


class TestSampling:
    def test_deterministic_for_fixed_seed(self, cube):
        a = sample(cube, 100, seed=42)
        b = sample(cube, 100, seed=42)
        assert np.array_equal(a, b)

    def test_no_ties_in_batch(self, cube):
        pts = sample(cube, 2000, seed=1)
        for j in range(3):
            assert len(np.unique(pts[:, j])) == 2000

    def test_box_frequencies_concentrate(self, cube, pi2):
        # binomial concentration around the box-mass oracle
        for g, expected in ((cube, 0.25), (pi2, 0.125)):
            pts = sample(g, 10_000, seed=9)
            freq = np.mean(np.all(pts < 0.5, axis=1))
            assert abs(freq - box_mass(g, [0, 0, 0], [0.5, 0.5, 0.5])) <= 0.02
            assert abs(freq - expected) <= 0.02

    def test_rejects_bad_n(self, cube):
        with pytest.raises(DimensionMismatch):
            sample(cube, 0, seed=0)

    @pytest.mark.parametrize("seed", [-1, -(2**40), [3, -1]])
    def test_a_negative_seed_is_a_bad_operand(self, cube, seed):
        with pytest.raises(BadOperand, match="non-negative"):
            sample(cube, 5, seed)


class TestSampleIo:
    def test_round_trip_bit_exact(self, cube, tmp_path):
        pts = sample(cube, 64, seed=11)
        path = tmp_path / "sample.csv"
        save_sample(path, pts)
        back = load_sample(path)
        assert np.array_equal(back, pts)
        header = path.read_text().splitlines()[0]
        assert header == "x1,x2,x3"

    @pytest.mark.parametrize("data, message", [
        (b"", "empty"),
        (b"x1,x2\n0.1,0.2\n0.3,abc\n", "not a number"),
        (b"x1,x2\n0.1,0.2\n0.3,\n", "not a number"),
        (b"x1,x2\n0.1,0.2\n\xff\xfe,0.3\n", "not a number"),
    ], ids=["empty", "word", "blank-cell", "not-utf-8"])
    def test_an_empty_file_or_a_non_numeric_cell_is_a_bad_operand(self, tmp_path, data,
                                                                   message):
        path = tmp_path / "s.csv"
        path.write_bytes(data)
        with pytest.raises(BadOperand, match=message):
            load_sample(path)

    def test_one_column_is_not_a_copula_sample(self, tmp_path):
        path = tmp_path / "one.csv"
        save_sample(path, np.array([[0.1], [0.5], [0.9]]))
        with pytest.raises(BadOperand, match="two columns"):
            load_sample(path)
        with pytest.raises(BadDimension):
            empirical_copula(np.array([[0.1], [0.5], [0.9]]))
        with pytest.raises(BadDimension):
            EmpiricalCopula(np.array([[1], [2], [3]]))
