import numpy as np
import pytest
from numpy.testing import assert_allclose

from copulakit import (
    bstar,
    box_mass,
    d_inf,
    efgm_quadratic,
    empirical_copula,
    is_simplified,
    load_sample,
    product_extend,
    sample,
    save_sample,
)
from copulakit.empirical import step_cdf_slabs
from copulakit.errors import BadOperand, DimensionMismatch, ResolutionOverflow, TiesDetected
from copulakit.verify import empirical_sup_scan, random_copula_grid


def _dominated_fraction(points, axes):
    """Brute-force step cdf: the share of points at or below each node."""
    nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    below = np.all(points[:, None, :] <= nodes.reshape(-1, len(axes))[None], axis=2)
    return below.sum(axis=0).reshape(nodes.shape[:-1]) / len(points)


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
    """Node maxima of |empirical - target|: the brute-force step cdf for
    n > 64, the d-linear cdf per slab below, against one target lattice per
    slab."""
    nodes = np.arange(m + 1) / m
    axes = [nodes] * emp.dim
    step = _dominated_fraction(emp.ranks / emp.n, axes)
    maxima = [0.0] * len(targets)
    for k in range(m + 1):
        slab = [nodes[k : k + 1], *axes[1:]]
        E = step[k] if emp.n > 64 else emp.cdf_on_lattice(slab)[0]
        for t_i, target in enumerate(targets):
            T = target.cdf_on_lattice(slab)[0]
            maxima[t_i] = max(maxima[t_i], float(np.max(np.abs(E - T))))
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
        axes = [np.linspace(0.0, 1.0, 6)] * d
        slabs = np.stack(list(emp.cdf_slabs(axes)))
        assert np.array_equal(slabs, _dominated_fraction(emp.ranks / emp.n, axes))
        assert emp.lattice_gap == d / 70

    def test_small_samples_stream_their_d_linear_cdf(self, cube):
        emp = empirical_copula(sample(cube, 30, seed=4))
        axes = [np.linspace(0.0, 1.0, 7)] * 3
        assert_allclose(np.stack(list(emp.cdf_slabs(axes))), emp.cdf_on_lattice(axes),
                        atol=1e-15)
        assert emp.lattice_gap == 0.0


class TestRankFormDInf:
    # value and error of the whole-lattice evaluation this scan replaced
    @pytest.mark.parametrize("source, target, n, seed, value, error", [
        ("cube", "cube", 300, 5, 0.05539143880208336, 0.0334375),
        ("cube", "efgm", 300, 5, 0.11370253026485444, 0.0334375),
        ("bstar", "bstar", 200, 7, 0.031269531249999996, 0.025625000000000002),
    ])
    def test_pinned_to_the_whole_lattice_values(self, cube, source, target, n, seed,
                                                value, error):
        families = {"cube": cube, "bstar": bstar(), "efgm": efgm_quadratic(3)}
        emp = empirical_copula(sample(families[source], n, seed=seed))
        rep = d_inf(emp, families[target])
        assert (rep.value, rep.error, rep.exactness) == (value, error, "certified")

    @pytest.mark.parametrize("target", ["grid", "analytic"])
    def test_four_dimensions_against_a_whole_lattice_oracle(self, cube, target):
        rng = np.random.default_rng(11)
        emp = empirical_copula(rng.random((100, 4)))
        # every break of both targets is on the 8-lattice
        other = product_extend(cube, 4) if target == "grid" else efgm_quadratic(4)
        axes = [np.arange(9) / 8] * 4
        oracle = np.max(np.abs(_dominated_fraction(emp.ranks / emp.n, axes)
                               - other.cdf_on_lattice(axes)))
        rep = d_inf(emp, other, scan_m=8)
        assert rep.value == pytest.approx(oracle, rel=0, abs=1e-15)
        assert rep.error == 4 / 8 + 4 / 100
        assert rep.n_evaluations == 2 * 9**4


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

    def test_accepts_any_dimension_and_rejects_a_target_of_another(self, cube):
        rng = np.random.default_rng(1)
        for pts, target in ((rng.random((90, 4)), product_extend(cube, 4)),
                            (rng.random((90, 2)), bstar())):
            emp = empirical_copula(pts)
            ((mx, gap),) = empirical_sup_scan(emp, [target], m=8)
            assert mx == _scan_oracle(emp, [target], 8)[0]
            assert gap == emp.dim / 8 + emp.dim / 90  # 8 does not divide 90
        emp = empirical_copula(rng.random((40, 3)))
        with pytest.raises(DimensionMismatch):
            empirical_sup_scan(emp, [cube, cube.margin((0, 1))], m=8)

    def test_a_slab_over_the_budget_overflows_before_any_work(self):
        # 301^3 nodes per slab of a 4-D scan, 129^5 per slab of a 6-D d_inf
        emp = empirical_copula(np.random.default_rng(3).random((100, 4)))
        with pytest.raises(ResolutionOverflow, match="slab"):
            empirical_sup_scan(emp, [efgm_quadratic(4)], m=300)
        emp6 = empirical_copula(np.random.default_rng(3).random((100, 6)))
        with pytest.raises(ResolutionOverflow, match="slab"):
            d_inf(emp6, efgm_quadratic(6))

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
