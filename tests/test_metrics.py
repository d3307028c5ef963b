import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from copulakit import (
    box_mass,
    comonotone,
    common_refinement,
    convex_combine,
    countermonotone,
    d1,
    d2,
    d_inf,
    d_inf_kernel,
    discretize,
    efgm_quadratic,
    efgm_sequence_member,
    empirical_copula,
    example54_copula,
    independence,
    independence_analytic,
    kl,
    metric_chain_check,
    pvc3,
    sample,
    tv,
    wcc_profile,
)
from copulakit import grid as grid_mod
from copulakit import metrics as metrics_mod
from copulakit import verify
from copulakit.conditioning import conditional_margin, disintegration_residual, kernel_cdf
from copulakit.errors import (
    BadAxis,
    ChainViolation,
    ClosedFormUnavailable,
    KernelUnavailable,
    ResolutionOverflow,
    SupportViolation,
)
from copulakit.grid import GridCopula, cum_nodes, uniform_breaks
from copulakit.quadrature import integrate_abs_multilinear, integrate_square_multilinear
from copulakit.verify import random_copula_grid
from conftest import a1_cdf, a2_cdf, nonuniform_grid


def riemann_d1_oracle(n=500):
    """Slabwise quadrature oracle for the kernel-L1 distance between the
    block copula and independence: average the two per-slab integrals."""
    mids = (np.arange(n) + 0.5) / n
    U, V = np.meshgrid(mids, mids, indexing="ij")
    pi = U * V
    return 0.5 * np.abs(a1_cdf(U, V) - pi).mean() + 0.5 * np.abs(a2_cdf(U, V) - pi).mean()


# Frozen from the slabwise oracle (exact value 1/16; the oracle reproduces it
# to its resolution).  The kernel fields of the two operands sit at average
# distance (|A1 - pi| + |A2 - pi|) / 2 with pi the exact midpoint of A1, A2.
D1_CUBE_PI = 1 / 16


def test_d1_oracle_consistency():
    assert riemann_d1_oracle() == pytest.approx(D1_CUBE_PI, abs=2e-3)


class TestDInf:
    def test_cube_vs_pi_exact(self, cube, pi2):
        rep = d_inf(cube, pi2)
        assert rep.value == 0.125 and rep.exactness == "exact"

    def test_identity(self, cube):
        assert d_inf(cube, cube).value == 0.0

    def test_frechet_bounds_gap(self):
        rep = d_inf(comonotone(2), countermonotone())
        assert rep.value == 0.5  # attained at the center node of the scan

    def test_efgm_distance(self):
        rep = d_inf(efgm_quadratic(3), independence_analytic(3))
        assert abs(rep.value - 1 / 64) <= 1e-6
        assert rep.exactness == "certified" and rep.error > 0

    def test_brute_force_node_max_bit_exact(self, cube, pi2):
        r1, r2 = common_refinement(cube, pi2)
        axes = r1.breaks
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
        brute = np.max(np.abs(r1.cdf_many(grid) - r2.cdf_many(grid)))
        assert d_inf(cube, pi2).value == brute

    def test_symmetry_and_triangle(self, random_grid):
        a = random_grid((2, 3, 2), seed=1)
        b = random_grid((3, 2, 2), seed=2)
        c = random_grid((2, 2, 3), seed=3)
        dab = d_inf(a, b).value
        assert dab == d_inf(b, a).value
        assert dab <= d_inf(a, c).value + d_inf(c, b).value + 1e-12


class TestStreamedMergedBreaks:
    """With the slab budget at one slab of the lattice a multilinear pair
    streams its merged breaks through the slab scan: still exact, with error
    0, and the value of the whole evaluation of the same nodes up to
    rounding, since the two take different float paths (over 2,400 such
    pairs and orders, 40 differed, by at most 1.2e-16)."""

    @staticmethod
    def streamed(c1, c2):
        b1, b2 = c1.multilinear_breaks(), c2.multilinear_breaks()
        axes = ([np.union1d(a, b) for a, b in zip(b1, b2)] if b1 and b2
                else metrics_mod._lattice_axes([c1, c2], metrics_mod._SCAN_M))
        scan, scans = metrics_mod.slab_sup_distances, []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics_mod, "_SLAB_BUDGET", int(np.prod([len(a) for a in axes[1:]])))
            mp.setattr(metrics_mod, "slab_sup_distances",
                       lambda *args: scans.append(args) or scan(*args))
            rep = d_inf(c1, c2)
        # the merged lattice went through the slab scan, once
        assert [len(args[1]) for args in scans] == [1]
        return rep

    def check(self, c1, c2, stream=None):
        dense = d_inf(c1, c2)
        assert dense.exactness == "exact"
        s1, s2 = stream or (c1, c2)
        for rep in (self.streamed(s1, s2), self.streamed(s2, s1)):
            assert (rep.exactness, rep.error, rep.target_met) == ("exact", 0.0, True)
            assert abs(rep.value - dense.value) <= 1e-15
            # a stream and a whole evaluation both count both operands' nodes
            assert rep.n_evaluations == dense.n_evaluations

    @given(st.integers(0, 2**32 - 1), st.integers(2, 4))
    @settings(max_examples=40, deadline=None)
    def test_nonuniform_grid_pairs(self, seed, dim):
        rng = np.random.default_rng(seed)
        self.check(nonuniform_grid(rng, dim), nonuniform_grid(rng, dim))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_grid_against_its_image(self, seed):
        rng = np.random.default_rng(seed)
        C = random_copula_grid(rng, rng.integers(1, 5, size=3))
        psi = pvc3(C).psi
        # the stream reads the image's cum, as it would without its tables,
        # while the whole evaluation sums the tables one conditioning node at a time
        self.check(C, psi, stream=(C, GridCopula(psi.breaks, psi.masses)))

    @given(st.integers(0, 2**32 - 1), st.integers(2, 4))
    @settings(max_examples=20, deadline=None)
    def test_grid_against_closed_form_independence(self, seed, dim):
        self.check(nonuniform_grid(np.random.default_rng(seed), dim), independence_analytic(dim))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 120))
    @settings(max_examples=20, deadline=None)
    def test_small_sample_against_a_grid(self, seed, n):
        # at most 121 rank nodes and 3 breaks per axis fit the 129-node scan axis
        g = nonuniform_grid(np.random.default_rng(seed), 3)
        self.check(empirical_copula(sample(g, n, seed)), g)

    def test_a_closed_form_that_is_not_multilinear_stays_certified(self, random_grid):
        g = random_grid((3, 2, 4))
        for rep in (self.streamed(efgm_quadratic(3), g), self.streamed(g, efgm_quadratic(3))):
            assert rep.exactness == "certified" and rep.error > 0
            assert rep.value == d_inf(efgm_quadratic(3), g).value


class TestKernelMetrics:
    def test_d1_cube_pi_matches_oracle(self, cube, pi2):
        rep = d1(cube, pi2)
        assert rep.value == pytest.approx(D1_CUBE_PI, abs=1e-9)
        assert rep.exactness == "exact"

    def test_d1_efgm_sequence(self):
        pi_a = independence_analytic(3)
        for m in range(1, 7):
            rep = d1(efgm_sequence_member(m, 1, 3), pi_a)
            assert rep.value == pytest.approx(2.0**-m / 36, abs=1e-8)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_d2_efgm_sequence(self, m):
        # K1 - K2 = f'(v) u1(1-u1) u2(1-u2) with the integral of f'^2 equal to
        # 2^-m and that of u^2 (1-u)^2 equal to 1/30: d2 = 2^-m / 900
        rep = d2(efgm_sequence_member(m, 1), independence_analytic(3))
        assert rep.exactness == "estimated"
        assert abs(rep.value - 2.0**-m / 900) <= rep.error

    def test_d2_and_sup_zero_on_identity(self, cube):
        assert d2(cube, cube).value == 0.0
        assert d_inf_kernel(cube, cube).value == 0.0

    def test_sup_kernel_cube_pi(self, cube, pi2):
        assert d_inf_kernel(cube, pi2).value == 0.25

    def test_axis_flag_on_exchangeable_input(self, cube, pi2):
        # the block copula is exchangeable: conditioning axis is immaterial
        vals = {d1(cube, pi2, axis=a).value for a in (0, 1, 2)}
        assert max(vals) - min(vals) <= 1e-12

    def test_d1_symmetry(self, random_grid):
        a = random_grid((2, 2, 3), seed=4)
        b = random_grid((2, 3, 2), seed=5)
        assert d1(a, b).value == pytest.approx(d1(b, a).value, abs=1e-10)


class TestCubeKernelL1:
    """d1(cube, psi(cube)) against a brute-force oracle from the cdfs."""

    @staticmethod
    def midpoint_oracle(c1, c2, k):
        """Midpoint sum of |K1 - K2| on the 2^k x 2^k mesh of the free square,
        slab by slab: on a conditioning slab [lo, hi] a checkerboard kernel
        is (C(u, hi) - C(u, lo)) / (hi - lo), read here from the cdfs."""
        mids = (np.arange(2**k) + 0.5) / 2**k
        vb = np.union1d(c1.breaks[2], c2.breaks[2])
        total = 0.0
        for lo, hi in zip(vb[:-1], vb[1:]):
            axes = [mids, mids, np.array([lo, hi])]
            k1, k2 = (np.diff(c.cdf_on_lattice(axes), axis=2)[..., 0] / (hi - lo)
                      for c in (c1, c2))
            total += (hi - lo) * float(np.abs(k1 - k2).mean())
        return total

    def test_psi_of_cube_is_independence(self, cube):
        psi = pvc3(cube).psi
        assert d_inf(psi, independence(3, [1, 1, 1])).value == 0.0

    def test_oracle_converges_to_one_sixteenth(self, cube):
        # on each quadrant |A_k - Pi| is bilinear and sign-definite, so the
        # midpoint sums hit 1/16 on every dyadic mesh; O(h) is the bound
        psi = pvc3(cube).psi
        for k in range(6, 10):
            assert abs(self.midpoint_oracle(cube, psi, k) - 1 / 16) <= 2.0**-k

    def test_d1_is_exact_one_sixteenth(self, cube):
        rep = d1(cube, pvc3(cube).psi, eps=1e-9)
        assert rep.exactness == "exact" and rep.error == 0.0
        assert rep.value == 1 / 16

    def test_case_passes(self):
        case = verify.case_cube_kernel_l1()
        assert case.passed
        assert case.computed["d1"] == 1 / 16


class TestTargetMet:
    def test_scan_fallback_misses_eps(self):
        ex = example54_copula()
        rep = d_inf(ex, ex, eps=1e-8, scan_m=16)
        assert rep.value == 0.0 and rep.error > 1e-8
        assert rep.target_met is False
        assert rep.to_dict()["target_met"] is False

    def test_grid_pair_meets_eps(self, cube, pi2):
        for rep in (d_inf(cube, pi2), d1(cube, pi2), tv(cube, pi2)):
            assert rep.target_met is True


class TestTv:
    def test_cube_pi(self, cube, pi2):
        assert tv(cube, pi2).value == 0.5

    def test_identity(self, cube):
        assert tv(cube, cube).value == 0.0

    def test_mix_linearity(self, cube, pi2):
        mixed = convex_combine([0.75, 0.25], [pi2, cube])
        assert tv(mixed, pi2).value == pytest.approx(0.25 / 2, abs=1e-15)

    def test_dominates_random_aligned_events(self, cube, pi2, rng):
        # the optimal event dominates any probe set of refined cells
        r1, r2 = common_refinement(cube, pi2)
        diff = (r1.masses - r2.masses).ravel()
        best = tv(cube, pi2).value
        for _ in range(10_000):
            mask = rng.random(diff.size) < 0.5
            assert abs(diff[mask].sum()) <= best + 1e-12


class TestKl:
    def test_cube_pi(self, cube, pi2):
        assert kl(cube, pi2).value == pytest.approx(math.log(2), abs=1e-15)

    def test_identity(self, cube):
        assert kl(cube, cube).value == 0.0

    def test_support_violation(self, cube, pi2):
        with pytest.raises(SupportViolation):
            kl(pi2, cube)

    def test_pinsker_on_positive_pairs(self, rng):
        for _ in range(20):
            a = random_copula_grid(rng, (3, 3, 3))
            b = random_copula_grid(rng, (3, 3, 3))
            assert kl(a, b).value >= 2 * tv(a, b).value ** 2 - 1e-12


class TestWccProfile:
    def test_identical_zeros(self, cube):
        prof = wcc_profile(cube, cube, [0.2, 0.8])
        assert all(p == 0 for _, p in prof)

    def test_efgm_window_height(self):
        cop = efgm_sequence_member(2, 1, 3)
        prof = dict(wcc_profile(cop, independence_analytic(3), [0.1, 0.9]))
        assert prof[0.1] == pytest.approx(1 / 16, abs=1e-12)
        assert prof[0.9] == 0.0

    def test_cube_slab_distance(self, cube, pi2):
        prof = dict(wcc_profile(cube, pi2, [0.25]))
        assert prof[0.25] == 0.25


class TestMixedKernelOperands:
    """A grid against a multilinear closed form: the closed form is read as
    the grid on its multilinear breaks, so every kernel metric is exact and
    equals the one against the one-cell grid, in either order."""

    @pytest.mark.parametrize("seed, res", [(0, [3, 3, 3]), (1, [2, 4, 3]), (2, [4, 4, 4])])
    def test_grid_against_analytic_independence(self, seed, res):
        g = random_copula_grid(np.random.default_rng(seed), res)
        pi, pi_grid = independence_analytic(3), independence(3, [1, 1, 1])
        for metric in (d1, d2, d_inf_kernel):
            exact = metric(g, pi_grid)
            for rep in (metric(g, pi), metric(pi, g)):
                assert rep.exactness == "exact" and rep.error == 0.0 and rep.target_met
                assert rep.value == exact.value


    def test_a_grid_kernel_builds_one_stack_across_slabs(self, monkeypatch):
        built, calls = [], []
        real_kernel = GridCopula.kernel
        monkeypatch.setattr(grid_mod, "cum_nodes", lambda m, lead=0: (
            lead and built.append((m.shape, lead))) or cum_nodes(m, lead))
        monkeypatch.setattr(GridCopula, "kernel",
                            lambda g, v, u: calls.append(v) or real_kernel(g, v, u))
        g = random_copula_grid(np.random.default_rng(0), [4] * 3)
        rep = d_inf_kernel(g, efgm_quadratic(3))
        # the value the rebuild on every call gave; one stack for all four slabs
        assert float(rep.value).hex() == "0x1.a83c839027b82p-5"
        assert len(calls) == 96 and built == [((4, 4, 4), 1)]
        for v in (0.1, 0.2, 0.6, 0.6, 0.1, 0.9):
            g.kernel(v, [0.5, 0.5])
        assert len(built) == 1


class TestChain:
    def test_cube_pi_chain(self, cube, pi2):
        rep = metric_chain_check(cube, pi2)
        assert rep["ok"]

    def test_disjoint_supports_report_no_kl(self, cube, rcube):
        rep = metric_chain_check(cube, rcube)
        assert rep["ok"] and rep["reports"]["kl"] is None

    @pytest.mark.parametrize("kind", ["lcm", "nonuniform", "mixed"])
    def test_reports_equal_the_standalone_metrics(self, kind):
        # the chain refines the pair once; each report is still the metric
        # on the operands, field for field but the time
        rng = np.random.default_rng(["lcm", "nonuniform", "mixed"].index(kind))
        for _ in range(4):
            if kind == "lcm":
                c1, c2 = random_copula_grid(rng, [2, 2, 3]), random_copula_grid(rng, [3, 4, 2])
            elif kind == "nonuniform":
                c1, c2 = nonuniform_grid(rng, 3), nonuniform_grid(rng, 3)
            else:
                c1 = random_copula_grid(rng, rng.integers(1, 5, size=3))
                c2 = nonuniform_grid(rng, 3)
            eps = 1e-8
            rep = metric_chain_check(c1, c2, eps=eps)
            standalone = {"d_inf": d_inf(c1, c2), "d1": d1(c1, c2, eps=eps),
                          "d2": d2(c1, c2, eps=eps),
                          "d_inf_kernel": d_inf_kernel(c1, c2, eps=eps),
                          "tv": tv(c1, c2), "kl": kl(c1, c2)}
            assert list(rep["reports"]) == list(standalone)
            for name, want in standalone.items():
                got = dict(rep["reports"][name])
                want = want.to_dict()
                del got["elapsed_s"], want["elapsed_s"]
                assert got == want, name

    def test_operand_errors_are_kept(self, cube):
        # no Markov kernel: a sample; not a grid: a closed form
        with pytest.raises(KernelUnavailable):
            metric_chain_check(cube, empirical_copula(sample(cube, 50, seed=3)))
        with pytest.raises(ClosedFormUnavailable):
            metric_chain_check(cube, independence_analytic(3))

    def test_d2_above_d1_is_a_violation(self, cube, pi2, monkeypatch):
        d1_value = d1(cube, pi2).value
        real = metrics_mod.d2
        monkeypatch.setattr(metrics_mod, "d2", lambda c1, c2, eps: replace(
            real(c1, c2, eps=eps), value=2 * d1_value + 1.0))
        with pytest.raises(ChainViolation, match="d2 <= d1"):
            metric_chain_check(cube, pi2)

    def test_random_pairs_with_doubled_budget_oracle(self, rng):
        # metrics recomputed at a tighter budget agree within the reported
        # certificates (independent quadrature route)
        for _ in range(10):
            a = random_copula_grid(rng, tuple(rng.integers(1, 5, size=3)))
            b = random_copula_grid(rng, tuple(rng.integers(1, 5, size=3)))
            coarse = d1(a, b, eps=1e-6)
            fine = d1(a, b, eps=1e-10)
            assert abs(coarse.value - fine.value) <= coarse.error + fine.error + 1e-12

    def test_case_records_violation_messages(self, monkeypatch):
        def violated(c1, c2, eps):
            raise ChainViolation("metric relations violated: ['d2 <= d1']")

        monkeypatch.setattr(verify, "metric_chain_check", violated)
        case = verify.case_metric_chain()
        assert not case.passed
        assert case.computed["violations"] == 100
        assert case.computed["messages"][0] == "metric relations violated: ['d2 <= d1']"

    def test_case_propagates_other_errors(self, monkeypatch):
        def broken(c1, c2, eps):
            raise ZeroDivisionError("bug")

        monkeypatch.setattr(verify, "metric_chain_check", broken)
        with pytest.raises(ZeroDivisionError):
            verify.case_metric_chain()

    def test_dinf_below_sup_kernel(self, rng):
        for _ in range(20):
            a = random_copula_grid(rng, (2, 3, 2))
            b = random_copula_grid(rng, (4, 2, 2))
            assert d_inf(a, b).value <= d_inf_kernel(a, b).value + 1e-10


def slab_by_slab(c1, c2, eps, axis):
    """(value, error, n_evaluations, exactness) of d1, d2 and d_inf_kernel on
    a grid pair, computed one conditioning slab at a time: each slab's kernel
    nodes cumulated alone and integrated in their own call, the oracle of the
    runs of slabs."""
    order = [j for j in range(c1.dim) if j != axis] + [axis]
    r1, r2 = common_refinement(c1.permute(order), c2.permute(order))

    def kernel(g, k):
        fiber = g.masses[..., k]
        w = float(fiber.sum())
        return cum_nodes(fiber) / w if w > 0 else cum_nodes(fiber)

    free = r1.breaks[:-1]
    diffs = [(float(w), kernel(r1, k) - kernel(r2, k))
             for k, w in enumerate(np.diff(r1.breaks[-1]))]
    total, err, cells = 0.0, 0.0, 0
    for w, dK in diffs:
        val, half = integrate_abs_multilinear(dK, free, tol=eps / len(diffs))
        total += w * val
        err += w * half
        cells += dK.size
    acc = np.zeros(diffs[0][1].shape)
    for w, dK in diffs:
        acc += w * np.abs(dK)
    return {"d1": (total, err, cells, "exact" if err == 0.0 else "certified"),
            "d2": (sum(w * integrate_square_multilinear(dK, free) for w, dK in diffs), 0.0,
                   cells, "exact"),
            "d_inf_kernel": (float(acc.max()), 0.0, acc.size, "exact")}


def _bits(value, error, n_evaluations, exactness):
    return float(max(value, 0.0)).hex(), float(error).hex(), n_evaluations, exactness


class TestSlabRuns:
    """The kernel metrics of a grid pair take runs of consecutive slabs at
    once; values and errors are the slab-by-slab ones bit for bit."""

    @staticmethod
    def check(c1, c2, axis, eps=1e-8):
        want = slab_by_slab(c1, c2, eps, axis)
        for metric in (d1, d2, d_inf_kernel):
            rep = metric(c1, c2, eps=eps, axis=axis)
            got = _bits(rep.value, rep.error, rep.n_evaluations, rep.exactness)
            assert got == _bits(*want[rep.name]), (rep.name, axis)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_nonuniform_pairs_on_every_axis(self, dim, seed):
        rng = np.random.default_rng([25, dim, seed])
        c1, c2 = nonuniform_grid(rng, dim), nonuniform_grid(rng, dim)
        for axis in range(dim):
            # three free axes bisect: a loose eps keeps the meshes small
            self.check(c1, c2, axis, eps=1e-8 if dim < 4 else 1e-3)

    @pytest.mark.parametrize("split", [1, 100, 2**40])
    def test_runs_of_one_slab_of_some_and_of_all(self, monkeypatch, split):
        # 12 slabs of 7, 49 or 343 nodes: runs of one, of 14, 2 or 1, and of all
        monkeypatch.setattr(metrics_mod, "_SPLIT_SLAB", split)
        rng = np.random.default_rng(split)
        for dim in (2, 3, 4):
            c1 = random_copula_grid(rng, [3] * (dim - 1) + [4])
            c2 = random_copula_grid(rng, [2] * (dim - 1) + [6])
            self.check(c1, c2, dim - 1, eps=1e-8 if dim < 4 else 1e-3)

    def test_a_slab_without_mass(self):
        # not a copula: the middle conditioning slab is empty, its kernel zero
        rng = np.random.default_rng(5)
        m = rng.random((3, 2, 3))
        m[..., 1] = 0.0
        empty = GridCopula([uniform_breaks(3), uniform_breaks(2), uniform_breaks(3)],
                           m / m.sum(), validate=False)
        assert not empty.kernel_nodes((2,), (slice(0, 3),))[1].any()
        self.check(empty, random_copula_grid(rng, (2, 4, 3)), 2)

    def test_the_chain_builds_each_operands_stack_once(self, monkeypatch):
        built = []
        monkeypatch.setattr(grid_mod, "cum_nodes", lambda m, lead=0: (
            lead and built.append((m, lead))) or cum_nodes(m, lead))
        rng = np.random.default_rng(6)
        c1, c2 = random_copula_grid(rng, (2, 3, 4)), random_copula_grid(rng, (3, 2, 6))
        rep = metric_chain_check(c1, c2)
        # one stack per refined operand, read by d1, d2 and d_inf_kernel
        assert [(m.shape, lead) for m, lead in built] == [((12, 6, 6), 1)] * 2
        assert not np.shares_memory(built[0][0], built[1][0])
        for name, metric in (("d1", d1), ("d2", d2), ("d_inf_kernel", d_inf_kernel)):
            got, want = dict(rep["reports"][name]), metric(c1, c2).to_dict()
            del got["elapsed_s"], want["elapsed_s"]
            assert got == want, name

    @pytest.mark.parametrize("seed", range(3))
    def test_each_grid_and_conditioning_set_is_cumulated_once(self, monkeypatch, seed):
        # every kernel reader, called twice, reads views of one stack per
        # (grid, conditioning set): c1 on (2,), (0, 1) and (1, 2), c2 on (2,)
        built = []
        monkeypatch.setattr(grid_mod, "cum_nodes", lambda m, lead=0: (
            lead and built.append((m.shape, lead))) or cum_nodes(m, lead))
        rng = np.random.default_rng([27, seed])
        c1, c2 = random_copula_grid(rng, (3, 4, 5)), random_copula_grid(rng, (3, 4, 5))
        for _ in range(2):
            c1.kernel([0.1, 0.5, 0.9], [0.3, 0.6])
            kernel_cdf(c1, [0.7], [0.2, 0.4])
            kernel_cdf(c1, [0.2, 0.8], [0.5], cond_axes=(0, 1))
            conditional_margin(c1, 0, [0.4])
            conditional_margin(c1, 0, [0.3, 0.6], cond_axes=(1, 2))
            disintegration_residual(c1, [0.1, 0.2, 0.3], [0.6, 0.9, 0.8])
            for metric in (d1, d2, d_inf_kernel):
                metric(c1, c2)
            metric_chain_check(c1, c2)
        assert sorted(built) == [((3, 4, 5), 2), ((4, 5, 3), 2), ((5, 3, 4), 1),
                                 ((5, 3, 4), 1)]

    @pytest.mark.parametrize("axis", [-1, 3, 7])
    def test_an_axis_out_of_range_is_a_bad_axis(self, cube, pi2, axis):
        # for every operand kind, before the grid or closed-form path is chosen
        pairs = [(cube, pi2), (cube, independence_analytic(3)),
                 (efgm_quadratic(3), independence_analytic(3)),
                 (cube, empirical_copula(sample(cube, 50, seed=3)))]
        for metric in (d1, d2, d_inf_kernel):
            for c1, c2 in pairs:
                with pytest.raises(BadAxis, match=f"^axis {axis} out of range for dim 3$"):
                    metric(c1, c2, axis=axis)


class TestImagePairs:
    """A pair with an operator image takes each merged slab on the union of
    the two slab meshes; the oracle is the dense path, on the same image
    rebuilt without its tables."""

    @staticmethod
    def dense(g):
        return GridCopula(g.breaks, g.masses) if g.slab_tables is not None else g

    @staticmethod
    def operands(seed):
        rng = np.random.default_rng([26, seed])
        if seed % 2:
            return random_copula_grid(rng, (4, 3, 5)), random_copula_grid(rng, (3, 4, 2))
        return nonuniform_grid(rng, 3), nonuniform_grid(rng, 3)

    @pytest.mark.parametrize("seed", range(6))
    def test_values_are_the_dense_images_within_1e_15(self, seed):
        C, D = self.operands(seed)
        pc, pd = pvc3(C).psi, pvc3(D).psi
        for a, b in ((C, pc), (pc, C), (pc, pd), (D, pc)):
            for metric in (d1, d2, d_inf_kernel):
                got, want = metric(a, b), metric(self.dense(a), self.dense(b))
                assert got.exactness == "exact" and got.error == 0.0
                assert abs(got.value - want.value) <= 1e-15, (metric.__name__, seed)

    def test_the_other_operand_is_not_refined(self, monkeypatch):
        C, _ = self.operands(1)
        psi = pvc3(C).psi
        refined = []
        real = GridCopula.refine_to
        monkeypatch.setattr(GridCopula, "refine_to",
                            lambda self, nb: refined.append(self) or real(self, nb))
        rep = d1(C, psi)
        assert refined == []
        # the slab-mesh node count, below the dense image's
        assert rep.n_evaluations == sum(
            int(np.prod([len(m) for m in psi.slab_kernel(k)[0]])) for k in range(5))
        assert rep.n_evaluations < psi.shape[2] * (psi.shape[0] + 1) * (psi.shape[1] + 1)

    @pytest.mark.parametrize("seed", range(2))
    def test_an_image_without_its_tables_takes_the_dense_path(self, seed):
        C, _ = self.operands(seed)
        psi = pvc3(C).psi
        plain = GridCopula(psi.breaks, psi.masses)
        finer = [np.union1d(b, [0.3 + 0.1 * j]) for j, b in enumerate(psi.breaks)]
        order = [1, 0, 2]
        views = [(C, psi, plain, axis) for axis in (0, 1)]
        views += [(C.permute(order), psi.permute(order), plain.permute(order), 2),
                  (C, psi.refine_to(finer), plain.refine_to(finer), 2),
                  (C, GridCopula.from_json(psi.to_json()), plain, 2)]
        for a, b, oracle, axis in views:
            assert b.slab_tables is None or axis != 2
            for metric in (d1, d2, d_inf_kernel):
                got, want = metric(a, b, axis=axis), metric(a, oracle, axis=axis)
                assert _bits(got.value, got.error, got.n_evaluations, got.exactness) == _bits(
                    want.value, want.error, want.n_evaluations, want.exactness)


class TestImageNodeSlabs:
    """d_inf with an operator image sums the image's slab tables one node of
    the conditioning axis at a time, on the same merged lattice; the oracle
    is the whole evaluation of the image rebuilt without its tables."""

    @staticmethod
    def operands(seed):
        # n = 2 ... 8 cells per axis, odd seeds nonsquare; D has other t-breaks
        rng = np.random.default_rng([28, seed])
        n = 2 + seed % 7
        sizes = [n] * 3 if seed % 2 == 0 else rng.integers(2, 9, size=3)
        return nonuniform_grid(rng, 3, sizes), nonuniform_grid(rng, 3, rng.integers(2, 9, size=3))

    @pytest.mark.parametrize("seed", range(8))
    def test_values_are_the_dense_images_within_1e_15(self, seed):
        C, D = self.operands(seed)
        pc, pd = pvc3(C).psi, pvc3(D).psi
        for a, b in ((C, pc), (pc, C), (pc, pd), (D, pc)):
            got, want = d_inf(a, b), d_inf(TestImagePairs.dense(a), TestImagePairs.dense(b))
            assert (got.exactness, got.error, got.target_met) == ("exact", 0.0, True)
            assert got.n_evaluations == want.n_evaluations
            assert abs(got.value - want.value) <= 1e-15, seed
        assert pc._cum is None and pd._cum is None

    def test_the_image_cum_is_never_built(self, monkeypatch):
        C = random_copula_grid(np.random.default_rng(0), [6] * 3)
        psi = pvc3(C).psi
        scans = []
        monkeypatch.setattr(metrics_mod, "slab_sup_distances", lambda *a: scans.append(a))
        # the node slab, not the whole lattice, has to fit the budget
        free = (psi.shape[0] + 1) * (psi.shape[1] + 1)
        monkeypatch.setattr(metrics_mod, "_SLAB_BUDGET", free)
        rep = d_inf(C, psi)
        assert (rep.exactness, rep.error) == ("exact", 0.0)
        assert rep.n_evaluations == 2 * free * (psi.shape[2] + 1)
        assert psi._cum is None and scans == []

    @pytest.mark.parametrize("seed", range(2))
    def test_an_image_without_its_tables_takes_the_dense_path(self, seed, monkeypatch):
        C, D = self.operands(seed)
        psi = pvc3(C).psi
        plain = GridCopula(psi.breaks, psi.masses)
        finer = [np.union1d(b, [0.3 + 0.1 * j]) for j, b in enumerate(psi.breaks)]
        order = [1, 0, 2]
        views = [(C, GridCopula.from_json(psi.to_json()), plain),
                 (C.permute(order), psi.permute(order), plain.permute(order)),
                 (D, psi.refine_to(finer), plain.refine_to(finer))]
        monkeypatch.setattr(metrics_mod, "_last_axis_slabs", lambda *a: pytest.fail("node slabs"))
        for a, b, oracle in views:
            assert b.slab_tables is None
            got, want = d_inf(a, b), d_inf(a, oracle)
            assert _bits(got.value, got.error, got.n_evaluations, got.exactness) == _bits(
                want.value, want.error, want.n_evaluations, want.exactness)


class TestReportFields:
    def test_exact_reports_are_reproducible(self, cube, pi2):
        r1 = d_inf(cube, pi2)
        r2 = d_inf(cube, pi2)
        assert r1.value == r2.value and r1.exactness == r2.exactness

    def test_report_dict(self, cube, pi2):
        d = tv(cube, pi2).to_dict()
        assert d["metric"] == "tv" and d["exactness"] == "exact"
        assert d["value"] >= 0 and d["elapsed_s"] >= 0
