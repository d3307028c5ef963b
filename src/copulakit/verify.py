"""Reproducible verification cases and experiments.

Every quantitative claim the package is built around is bound to a named
case that computes the value, compares against the expected constant at a
fixed tolerance and reports pass/fail with runtime.  The experiment
commands (discontinuity, non-optimality, nowhere-dense diagnostics,
convergence lab) are seeded and deterministic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .analytic import independence_analytic
from .conditioning import disintegration_residual, is_simplified, j_functional, kernel_cdf
from .empirical import empirical_copula, sample
from .errors import BadMode, ChainViolation, UnknownCase
from .families import (
    bstar,
    bstarstar,
    cube_copula,
    discretize,
    efgm_quadratic,
    efgm_sequence_member,
    example54_copula,
    independence,
    rcube_copula,
    shuffle_d,
)
from .grid import (
    GridCopula,
    common_refinement,
    convex_combine,
    new_grid,
    product_extend,
)
from .metrics import d1, d_inf, d_inf_many, metric_chain_check, wcc_profile
from .pvc import pvc3, pvc_dvine


@dataclass
class VerificationCase:
    """One executable check: computed value(s) against a pinned expectation."""

    case_id: str
    description: str
    expected: str
    computed: dict
    tolerance: str
    passed: bool
    runtime_s: float

    def to_dict(self) -> dict:
        return {
            "case_id": self.case_id,
            "description": self.description,
            "expected": self.expected,
            "computed": self.computed,
            "tolerance": self.tolerance,
            "passed": bool(self.passed),
            "runtime_s": self.runtime_s,
        }


def _case(case_id, description, expected, tolerance, computed, passed, t0):
    return VerificationCase(case_id, description, expected, computed, tolerance,
                            bool(passed), time.perf_counter() - t0)


def random_copula_grid(rng, resolutions) -> GridCopula:
    """Random checkerboard copula via iterative proportional fitting of a
    positive random tensor to uniform margins."""
    shape = tuple(int(n) for n in resolutions)
    m = rng.random(shape) + 0.05
    targets = [np.full(n, 1.0 / n) for n in shape]
    for _ in range(400):
        worst = 0.0
        for ax, tgt in enumerate(targets):
            axes = tuple(a for a in range(len(shape)) if a != ax)
            slab = m.sum(axis=axes)
            scale = tgt / slab
            m = m * np.expand_dims(scale, axes)
            worst = max(worst, float(np.max(np.abs(slab - tgt))))
        if worst < 1e-15:
            break
    m /= m.sum()
    return new_grid(len(shape), shape, m)


def family_battery():
    """Named grid copulas exercising every construction."""
    cube = cube_copula()
    return {
        "pi_1": independence(3, [1, 1, 1]),
        "pi_4": independence(3, [4, 4, 4]),
        "cube": cube,
        "rcube": rcube_copula(),
        "mix": convex_combine([0.5, 0.5], [independence(3, [2, 2, 2]), cube]),
        "bstar3": product_extend(bstar(), 3),
        "bstarstar3": product_extend(bstarstar(), 3),
        "efgm_d": discretize(efgm_quadratic(3), [4, 4, 4]),
        "efgm_seq_d": discretize(efgm_sequence_member(2, 3, 3), [4, 4, 4]),
        "composite_d": discretize(example54_copula(), [8, 8, 4]),
        "shuffle_d1_x": product_extend(discretize(shuffle_d(1), [8, 8]), 3),
    }


# -- experiments ----------------------------------------------------------------


def discontinuity_experiment(n_list, seed: int = 20_000, scan_m: int = 500):
    """Sample the block copula, build the empirical copula and measure both
    the sampling error and the distance of the operator images.

    The operator image of an empirical copula is itself, and the image of
    the block copula is independence, so the second column stays above 1/8
    minus the sampling error no matter how small the first gets.
    """
    cube = cube_copula()
    pi = independence(3, [2, 2, 2])
    rows = []
    for i, n in enumerate(n_list):
        emp = empirical_copula(sample(cube, int(n), seed + i))
        d_cube, d_pi = d_inf_many(emp, [cube, pi], scan_m=scan_m)
        rows.append({
            "n": int(n),
            "d_emp_cube": d_cube.value,
            "d_emp_cube_upper": d_cube.value + d_cube.error,
            "d_psi_emp_psi_cube": d_pi.value,
            "d_psi_gap": d_pi.error,
        })
    return rows


def nonopt_experiment(n: int = 10_000, seed: int = 40_000, scan_m: int = 500):
    """Exhibit a simplified copula strictly closer to the block copula than
    its partial vine image (which sits at distance 1/8)."""
    cube = cube_copula()
    pts = sample(cube, int(n), seed)
    emp = empirical_copula(pts)
    flag, delta = is_simplified(emp)
    rep = d_inf(emp, cube, scan_m=scan_m)
    return {
        "n": int(n),
        "delta": delta,
        "simplified": bool(flag),
        "d_cube": rep.value,
        "d_cube_upper": rep.value + rep.error,
        "d_psi": 0.125,
        "beats_operator": bool(rep.value + rep.error < 0.125),
    }


def nowheredense_experiment(seed: int = 60_000):
    """Lower-bound check: the integrated conditional-difference functional
    between any simplified copula and the block copula stays above half the
    block copula's simplifiedness gap."""
    cube = cube_copula()
    _, delta = is_simplified(cube)
    rng = np.random.default_rng(seed)
    diag = new_grid(2, [2, 2], [[0.5, 0.0], [0.0, 0.5]])
    battery = {
        "emp_pi": empirical_copula(rng.random((200, 3))),
        "emp_cube": empirical_copula(sample(cube, 200, seed + 1)),
        "product_diag": product_extend(diag, 3),
        "pi": independence(3, [2, 2, 2]),
    }
    rows = {name: j_functional(D, cube) for name, D in battery.items()}
    return {"delta_cube": delta, "j_values": {k: v[0] for k, v in rows.items()},
            "j_errors": {k: v[1] for k, v in rows.items()},
            "bound": delta / 2.0}


def convergence_lab(mode: str, max_m: int = 6):
    """Emit plot-ready rows for the two convergence experiments."""
    if mode == "efgm-seq":
        pi = independence_analytic(3)
        rows = []
        for m in range(1, max_m + 1):
            cop = efgm_sequence_member(m, 1, 3)
            rep = d1(cop, pi)
            vb = cop.kernel_v_breaks
            probes = np.concatenate([(vb[:-1] + vb[1:]) / 2, [0.5]])
            prof = wcc_profile(cop, pi, probes)
            rows.append({
                "m": m,
                "d1": rep.value,
                "d1_expected": 2.0 ** (-m) / 36.0,
                "d1_error": rep.error,
                "wcc_sup": max(p for _, p in prof),
            })
        return rows
    if mode == "d1-continuity":
        # C_n = (1 - 1/n) C + D/n tends to C in D1; so do the images, as the
        # operator is D1-continuous
        rng = np.random.default_rng(5)
        C, D = (random_copula_grid(rng, [3, 3, 3]) for _ in range(2))
        psi_limit = pvc3(C).psi
        rows = []
        for n in (2, 4, 8, 16, 32):
            cn = convex_combine([1 - 1 / n, 1 / n], [C, D])
            rows.append({
                "n": n,
                "d1_input": d1(cn, C).value,
                "d1_psi": d1(pvc3(cn).psi, psi_limit).value,
            })
        return rows
    raise BadMode(f"unknown convergence-lab mode {mode!r}")


# -- verification cases -----------------------------------------------------------


def case_cube_worst_case() -> VerificationCase:
    t0 = time.perf_counter()
    cube = cube_copula()
    res = pvc3(cube)
    pi = independence(3, [2, 2, 2])
    d_pair = d_inf(cube, res.psi)
    d_pi = d_inf(res.psi, pi)
    passed = abs(d_pair.value - 0.125) <= 1e-12 and d_pi.value <= 1e-12
    return _case(
        "cube-worst-case",
        "block copula: uniform distance to its operator image is 1/8 and the image is independence",
        "d_inf = 0.125 exactly; image = independence",
        "1e-12",
        {"d_inf": d_pair.value, "d_image_pi": d_pi.value},
        passed, t0,
    )


def case_cube_kernel_l1() -> VerificationCase:
    t0 = time.perf_counter()
    cube = cube_copula()
    res = pvc3(cube)
    rep = d1(cube, res.psi, eps=1e-9)
    expected = 1.0 / 16.0
    passed = abs(rep.value - expected) <= 1e-6
    return _case(
        "cube-kernel-l1",
        "block copula: integrated kernel distance to its operator image, which is "
        "independence; on each of the four quadrants of the free square "
        "|A_k - Pi| integrates to 1/64 in either slab, so d1 = 4 x 1/64",
        "d1 = 1/16 = 0.0625",
        "1e-6",
        {"d1": rep.value, "d1_error": rep.error},
        passed, t0,
    )


def case_composite_worst_case() -> VerificationCase:
    t0 = time.perf_counter()
    ex = example54_copula()
    res = pvc3(ex)
    c_val = ex.cdf([0.5, 0.5, 1.0])
    p_val = res.psi.cdf([0.5, 0.5, 1.0])
    disc = discretize(ex, [64, 64, 4])
    res_d = pvc3(disc)
    c_d = disc.cdf([0.5, 0.5, 1.0])
    p_d = res_d.psi.cdf([0.5, 0.5, 1.0])
    passed = (
        abs(c_val - 0.375) <= 1e-12
        and abs(p_val - 0.1875) <= 1e-9
        and (c_val - p_val) >= 0.1875 - 1e-9
        and abs(c_d - 0.375) <= 2e-2
        and abs(p_d - 0.1875) <= 2e-2
    )
    return _case(
        "composite-worst-case",
        "composite shuffle construction: value 3/8 at the witness, operator image 3/16",
        "C(.5,.5,1) = 0.375; image value 0.1875; gap >= 3/16",
        "1e-12 / 1e-9 analytic, 2e-2 discretized [64,64,4]",
        {"c": c_val, "psi": p_val, "c_disc": c_d, "psi_disc": p_d,
         # the gap's share of the d_inf diameter 2/3 of the 3-copulas
         "diameter_share": (c_val - p_val) / (2 / 3)},
        passed, t0,
    )


def case_efgm_approximation() -> VerificationCase:
    t0 = time.perf_counter()
    e = efgm_quadratic(3)
    pi_a = independence_analytic(3)
    rep = d_inf(e, pi_a, scan_m=128)
    res = pvc3(e)
    axes = [np.linspace(0.0, 1.0, 21)] * 3
    probe = float(np.max(np.abs(res.psi.cdf_on_lattice(axes) - pi_a.cdf_on_lattice(axes))))
    passed = abs(rep.value - 1.0 / 64.0) <= 1e-6 and probe <= 1e-12
    return _case(
        "efgm-approximation",
        "cubic perturbation family: distance 1/64 from independence, operator image is independence",
        "d_inf = 1/64 = 0.015625; image-vs-independence <= 1e-12 on 21^3",
        "1e-6 / 1e-12",
        {"d_inf": rep.value, "d_inf_certificate": rep.error, "probe": probe},
        passed, t0,
    )


def case_dvine_product() -> VerificationCase:
    t0 = time.perf_counter()
    cube = cube_copula()
    computed = {}
    ok = True
    for d in (4, 5):
        C = product_extend(cube, d)
        res = pvc_dvine(C)
        pi_d = independence(d, [1] * d)
        gap_pi = d_inf(res.psi, pi_d).value
        gap = d_inf(C, res.psi).value
        witness = np.array([0.5, 0.5, 0.5] + [1.0] * (d - 3))
        wit_val = C.cdf(witness) - res.psi.cdf(witness)
        computed[f"d{d}"] = {"image_vs_pi": gap_pi, "d_inf": gap, "witness": wit_val}
        ok = ok and gap_pi <= 1e-9 and abs(gap - 0.125) <= 1e-9 and abs(wit_val - 0.125) <= 1e-9
    return _case(
        "dvine-product",
        "product extension of the block copula: ladder image is independence, distance 1/8",
        "image = independence (1e-9); d_inf = 0.125 attained at (.5,.5,.5,1,...)",
        "1e-9",
        computed, ok, t0,
    )


def case_operator_discontinuity() -> VerificationCase:
    t0 = time.perf_counter()
    rows = [discontinuity_experiment([10_000], seed=20_000 + 37 * i)[0] for i in range(20)]
    close = sum(r["d_emp_cube_upper"] < 0.03 for r in rows)
    far = sum(r["d_psi_emp_psi_cube"] >= 0.09 for r in rows)
    passed = close >= 18 and far == 20
    return _case(
        "operator-discontinuity",
        "empirical copulas converge to the block copula while their operator images stay near independence",
        ">= 18/20 runs with input distance < 0.03 and 20/20 with image distance >= 0.09",
        "certified bounds, n = 10^4, 20 seeds",
        {"close_runs": close, "far_runs": far,
         "max_input_upper": max(r["d_emp_cube_upper"] for r in rows),
         "min_image_dist": min(r["d_psi_emp_psi_cube"] for r in rows)},
        passed, t0,
    )


def case_operator_nonoptimality() -> VerificationCase:
    t0 = time.perf_counter()
    results = [nonopt_experiment(10_000, seed=40_000 + 11 * i) for i in range(20)]
    passed = all(r["simplified"] and r["delta"] <= 1e-12 and r["beats_operator"]
                 for r in results)
    return _case(
        "operator-nonoptimality",
        "a simplified copula (empirical) approximates the block copula strictly better than the operator image",
        "simplifiedness gap 0 and certified distance < 0.125 in 20/20 runs",
        "1e-12 gap; certified upper bound; 20 seeds",
        {"max_delta": max(r["delta"] for r in results),
         "max_d_upper": max(r["d_cube_upper"] for r in results),
         "all_beat": all(r["beats_operator"] for r in results)},
        passed, t0,
    )


def case_nowhere_dense() -> VerificationCase:
    t0 = time.perf_counter()
    out = nowheredense_experiment(60_000)
    passed = abs(out["delta_cube"] - 0.125) <= 1e-9 and all(
        v >= 1.0 / 16.0 - 1e-6 for v in out["j_values"].values()
    )
    return _case(
        "nowhere-dense",
        "simplifiedness gap of the block copula is 1/8 and every simplified copula keeps the conditional-field distance >= 1/16",
        "delta = 0.125; all j >= 0.0625 - 1e-6",
        "1e-9 / 1e-6",
        out, passed, t0,
    )


def case_metric_chain() -> VerificationCase:
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    messages = []
    pinsker_ok = True
    for _ in range(100):
        res1 = [int(rng.integers(1, 5)) for _ in range(3)]
        res2 = [int(rng.integers(1, 5)) for _ in range(3)]
        c1 = random_copula_grid(rng, res1)
        c2 = random_copula_grid(rng, res2)
        try:
            rep = metric_chain_check(c1, c2, eps=1e-8)
        except ChainViolation as exc:
            messages.append(str(exc))
            continue
        klrep = rep["reports"]["kl"]
        tvrep = rep["reports"]["tv"]
        if klrep is not None and klrep["value"] < 2 * tvrep["value"] ** 2 - 1e-12:
            pinsker_ok = False
    passed = not messages and pinsker_ok
    return _case(
        "metric-chain",
        "metric order relations on 100 seeded random grid pairs",
        "d1 <= sup-kernel <= 2 tv, d_inf <= sup-kernel, d2 <= d1, kl >= 2 tv^2; zero violations",
        "summed certified budgets",
        {"violations": len(messages), "pinsker_ok": pinsker_ok, "messages": messages},
        passed, t0,
    )


def case_kernel_l1_convergence() -> VerificationCase:
    t0 = time.perf_counter()
    rows = convergence_lab("efgm-seq", max_m=6)
    passed = all(
        abs(r["d1"] - r["d1_expected"]) <= 1e-6
        and abs(r["wcc_sup"] - 1.0 / 16.0) <= 1e-6
        for r in rows
    )
    return _case(
        "kernel-l1-convergence",
        "sliding-window perturbations: kernel distance halves each step while the per-slice sup stays 1/16",
        "d1 = 2^-m/36 for m=1..6; wcc sup = 0.0625 throughout",
        "1e-6",
        {"rows": rows}, passed, t0,
    )


def case_invariants() -> VerificationCase:
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    battery = family_battery()
    worst_margin = 0.0
    worst_residual = 0.0
    worst_idem = 0.0
    worst_marg_pres = 0.0
    worst_kernel_id = 0.0
    for name, C in battery.items():
        for j in range(C.dim):
            axes = tuple(k for k in range(C.dim) if k != j)
            slab = C.masses.sum(axis=axes)
            worst_margin = max(worst_margin, float(np.max(np.abs(slab - np.diff(C.breaks[j])))))
    three_dim = {k: v for k, v in battery.items() if v.dim == 3}
    for name, C in three_dim.items():
        for _ in range(9):
            lo, hi = _random_aligned_box(rng, C)
            worst_residual = max(worst_residual, disintegration_residual(C, lo, hi))
        res = pvc3(C)
        res2 = pvc3(res.psi)
        worst_idem = max(worst_idem, d_inf(res.psi, res2.psi).value)
        for axes in ((0, 2), (1, 2)):
            m_in = C.margin(axes)
            m_out = res.psi.margin(axes)
            r1, r2 = common_refinement(m_in, m_out)
            worst_marg_pres = max(worst_marg_pres, float(np.max(np.abs(r1.masses - r2.masses))))
        # kernel of a margin = kernel of the full copula with dropped coordinates at 1
        for t in (0.2, 0.7):
            full = kernel_cdf(C, t, [0.3, 1.0])
            marg = kernel_cdf(C.margin((0, 2)), t, [0.3])
            worst_kernel_id = max(worst_kernel_id, abs(full - marg))
    extra_boxes = 100 - 9 * len(three_dim)
    cube = battery["cube"]
    for _ in range(max(extra_boxes, 0)):
        lo, hi = _random_aligned_box(rng, cube)
        worst_residual = max(worst_residual, disintegration_residual(cube, lo, hi))
    passed = (
        worst_margin <= 1e-12
        and worst_residual <= 1e-12
        and worst_idem <= 1e-12
        and worst_marg_pres <= 1e-12
        and worst_kernel_id <= 1e-12
    )
    return _case(
        "invariants",
        "uniform margins, disintegration residuals, operator idempotence, margin preservation and the kernel-margin identity on the family battery",
        "all gaps <= 1e-12",
        "1e-12",
        {
            "worst_margin": worst_margin,
            "worst_residual": worst_residual,
            "worst_idempotence": worst_idem,
            "worst_margin_preservation": worst_marg_pres,
            "worst_kernel_identity": worst_kernel_id,
        },
        passed, t0,
    )


def _random_aligned_box(rng, C: GridCopula):
    lo, hi = [], []
    for b in C.breaks:
        i, j = sorted(rng.choice(len(b), size=2, replace=False))
        lo.append(b[i])
        hi.append(b[j])
    return np.array(lo), np.array(hi)


CASES = {
    "cube-worst-case": case_cube_worst_case,
    "cube-kernel-l1": case_cube_kernel_l1,
    "composite-worst-case": case_composite_worst_case,
    "efgm-approximation": case_efgm_approximation,
    "dvine-product": case_dvine_product,
    "operator-discontinuity": case_operator_discontinuity,
    "operator-nonoptimality": case_operator_nonoptimality,
    "nowhere-dense": case_nowhere_dense,
    "metric-chain": case_metric_chain,
    "kernel-l1-convergence": case_kernel_l1_convergence,
    "invariants": case_invariants,
}


def run_case(case_id: str) -> VerificationCase:
    if case_id not in CASES:
        raise UnknownCase(f"unknown case {case_id!r}; known: {sorted(CASES)}")
    return CASES[case_id]()


def run_all():
    return [case() for case in CASES.values()]
