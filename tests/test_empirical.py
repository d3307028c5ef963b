import numpy as np
import pytest
from numpy.testing import assert_allclose

from copulakit import (
    box_mass,
    empirical_copula,
    is_simplified,
    load_sample,
    sample,
    save_sample,
)
from copulakit.errors import BadOperand, DimensionMismatch, TiesDetected
from copulakit.verify import empirical_sup_scan, random_copula_grid


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
        step = emp.step_cdf_on_lattice(axes)
        exact = emp.cdf_on_lattice(axes)
        assert_allclose(step, exact, atol=1e-13)

    def test_scan_matches_exact_small_n(self, cube, pi2):
        emp = empirical_copula(sample(cube, 50, seed=8))
        (mx_cube, gap), (mx_pi, _) = empirical_sup_scan(emp, [cube, pi2], m=250)
        from copulakit import d_inf

        exact = d_inf(emp, cube)
        assert exact.value <= mx_cube + gap + 1e-12
        # unaligned lattice: the step shortcut may overshoot by at most 3/n
        assert mx_cube <= exact.value + 3 / emp.n + 1e-12

    def test_scan_aligned_node_values_are_exact(self, cube, pi2):
        emp = empirical_copula(sample(cube, 64, seed=9))
        (mx_cube, gap), _ = empirical_sup_scan(emp, [cube, pi2], m=32)
        from copulakit import d_inf

        # 32 divides 64: node values are exact, so the node max is a
        # certified lower bound and nodemax + gap an upper bound
        exact = d_inf(emp, cube)
        assert exact.exactness == "exact"
        assert mx_cube <= exact.value + 1e-12
        assert exact.value <= mx_cube + gap + 1e-12


def _scan_oracle(emp, targets, m):
    """Node maxima of |step subcopula - target| from the full (m+1)^3 step
    lattice and one target lattice per x-slab."""
    nodes = np.arange(m + 1) / m
    step = emp.step_cdf_on_lattice([nodes] * 3)
    maxima = [0.0] * len(targets)
    for k in range(m + 1):
        for t_i, target in enumerate(targets):
            T = target.cdf_on_lattice([nodes[k : k + 1], nodes, nodes])[0]
            maxima[t_i] = max(maxima[t_i], float(np.max(np.abs(step[k] - T))))
    return maxima


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
        for targets in ([cube], [pi2, nonuniform], [nonuniform, source, cube]):
            scan = empirical_sup_scan(emp, targets, m=m)
            assert [mx for mx, _ in scan] == _scan_oracle(emp, targets, m)
            gap = 3 / m + (0.0 if n % m == 0 else 3 / n)
            assert all(g == gap for _, g in scan)

    def test_rejects_operands_that_are_not_three_dimensional(self, cube):
        rng = np.random.default_rng(1)
        for pts in (rng.random((40, 4)), rng.random((40, 2))):
            with pytest.raises(DimensionMismatch):
                empirical_sup_scan(empirical_copula(pts), [cube], m=8)
        emp = empirical_copula(rng.random((40, 3)))
        with pytest.raises(DimensionMismatch):
            empirical_sup_scan(emp, [cube, cube.margin((0, 1))], m=8)

    @pytest.mark.parametrize("m", [0, -3])
    def test_rejects_an_empty_lattice(self, cube, m):
        emp = empirical_copula(np.random.default_rng(2).random((40, 3)))
        with pytest.raises(BadOperand, match="m >= 1"):
            empirical_sup_scan(emp, [cube], m=m)


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


class TestSampleIo:
    def test_round_trip_bit_exact(self, cube, tmp_path):
        pts = sample(cube, 64, seed=11)
        path = tmp_path / "sample.csv"
        save_sample(path, pts)
        back = load_sample(path)
        assert np.array_equal(back, pts)
        header = path.read_text().splitlines()[0]
        assert header == "x1,x2,x3"
