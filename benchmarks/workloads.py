"""The benchmark's workloads, their ops and the checks on every op.

A workload is a cycle of op kinds.  Op ``i`` of a run with seed ``s`` has
kind ``cycle[i % len(cycle)]`` and draws its inputs from
``default_rng([s, i])``: the inputs of an op depend on the seed and its
index only, never on how many ops a run gets through.  Operand sizes
follow a fixed schedule and the seed draws their contents, because op cost
depends mostly on sizes, and sizes drawn per op made the run-to-run spread
of ``grid-small`` wider than any bound a metric may have.  Every op gets
freshly built operands, because a grid copula caches its cumulative tensor
and an operand reused across ops would time a warm cache.

An op returns a record, a dict of tagged values:

* ``("exact", v)``: labelled exact by the program; pinned bit for bit;
* ``("certified", v, e)``: the truth lies within ``e`` of ``v``; a pin
  holds when the two brackets overlap;
* ``("flag", b)``: a boolean outcome; pinned by equality;
* ``("value", v)``: an unlabelled number; checked by oracles only.

Checks use oracles that hold for every seed.  They run outside the timed
region; the run counts an op as failed when it raises or a check fails.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# ops call through the module objects, so the tracer's wrappers see them
from copulakit import analytic, conditioning, families, grid, metrics, pvc, verify
from copulakit.errors import CopulaError

EPS = 1e-8  # accuracy requested from every metric call
MARGIN_TOL = 1e-12
# is_simplified integrates each surface pair to min(1e-11, tol / 10) and
# returns the midpoint only; that tolerance is the bracket of its delta
SIMPLIFIED_QUAD_TOL = 1e-11
SCAN_N = 10_000  # sample size of the operator-discontinuity/-nonoptimality cases
SCAN_M = 500  # their scan lattice
WITNESS = np.array([0.5, 0.5, 1.0])
WARMUP_INDEX = 1 << 40  # rng index of the warm-up op, outside any run's op range
REFERENCE = Path(__file__).resolve().parent / "reference.json"


def exact(v):
    return ("exact", float(v))


def certified(v, e):
    return ("certified", float(v), float(e))


def flag(b):
    return ("flag", bool(b))


def value(v):
    return ("value", float(v))


def metric(rep):
    """Record entry of a MetricReport (or its ``to_dict``), keeping its label."""
    if isinstance(rep, dict):
        v, kind, e = rep["value"], rep["exactness"], rep["error"]
    else:
        v, kind, e = rep.value, rep.exactness, rep.error
    return exact(v) if kind == metrics.EXACT else certified(v, e)


def _error(entry) -> float:
    return entry[2] if entry[0] == "certified" else 0.0


def _lattice_width(scan_m: int) -> float:
    # d_inf's fallback certificate: three axes, two unit-Lipschitz operands,
    # half a lattice step each
    return 3.0 / scan_m


def _bracket_problems(name, entry, truth, max_error):
    v, e = entry[1], _error(entry)
    problems = []
    if abs(v - truth) > e:
        problems.append(f"{name}: bracket {v!r} +- {e!r} misses {truth!r}")
    if e > max_error:
        problems.append(f"{name}: certificate {e!r} wider than {max_error!r}")
    return problems


def _copula_problems(psi) -> list:
    try:
        grid.GridCopula(psi.breaks, psi.masses)
    except CopulaError as exc:
        return [f"psi is not a copula: {exc}"]
    return []


def _margin_problems(C, psi) -> list:
    problems = []
    for axes in ((0, 2), (1, 2)):
        r1, r2 = grid.common_refinement(C.margin(axes), psi.margin(axes))
        gap = float(np.max(np.abs(r1.masses - r2.masses)))
        if gap > MARGIN_TOL:
            problems.append(f"psi margin {axes} differs from the input's by {gap:.3e}")
    return problems


def _scan_gap_problems(name, gap) -> list:
    # the gap is recovered as upper - value, which may round up by an ulp
    if gap > 3.0 / SCAN_M + 1e-15:
        return [f"{name}: scan certificate {gap!r} wider than 3/m"]
    return []


# -- grid-operator --------------------------------------------------------------


class GridOperator:
    """psi = pvc3(C), then d_inf(C, psi) and d1(C, psi) on a random n^3 grid."""

    def __init__(self, n: int):
        self.n = n
        self.name = f"operator-{n}"

    def make(self, rng, round_):
        return verify.random_copula_grid(rng, [self.n] * 3)

    def run(self, C):
        psi = pvc.pvc3(C).psi
        record = {"d_inf": metric(metrics.d_inf(C, psi, eps=EPS)),
                  "d1": metric(metrics.d1(C, psi, eps=EPS))}
        return record, psi

    def check(self, C, record, psi):
        problems = _copula_problems(psi) + _margin_problems(C, psi)
        if record["d_inf"][0] != "exact":
            problems.append("d_inf(C, psi) is not labelled exact")
        if _error(record["d1"]) > EPS:
            problems.append(f"d1 error {_error(record['d1'])!r} exceeds eps {EPS}")
        return problems


# -- grid-small -------------------------------------------------------------------


# per-axis resolution pairs (r1, r2) of the chain ops: every pair in 1..4 x 1..4
# once per 16 chain ops on each axis, the axes offset so the ops differ
_PAIRS = [(a, b) for a in range(1, 5) for b in range(1, 5)]


class MetricChain:
    """metric_chain_check on a random pair; per-axis resolutions run
    through every pair in 1..4 x 1..4.  ``slot`` numbers the chain ops of
    one cycle."""

    name = "metric-chain"

    def __init__(self, slot: int, per_cycle: int):
        self.slot = slot
        self.per_cycle = per_cycle

    def make(self, rng, round_):
        t = round_ * self.per_cycle + self.slot
        pairs = [_PAIRS[(t + 5 * axis) % len(_PAIRS)] for axis in range(3)]
        return tuple(verify.random_copula_grid(rng, [p[k] for p in pairs]) for k in (0, 1))

    def run(self, pair):
        out = metrics.metric_chain_check(*pair, eps=EPS)
        record = {"ok": flag(out["ok"]), "kl_defined": flag(out["reports"]["kl"] is not None)}
        for key, rep in out["reports"].items():
            if rep is not None:
                record[key] = metric(rep)
        return record, None

    def check(self, pair, record, _):
        # the call raises ChainViolation when a relation fails
        return [] if record["ok"][1] else ["metric_chain_check reported not ok"]


class Simplified:
    """is_simplified on a random n^3 grid."""

    def __init__(self, n: int):
        self.n = n
        self.name = f"simplified-{n}"

    def make(self, rng, round_):
        return verify.random_copula_grid(rng, [self.n] * 3)

    def run(self, C):
        simplified, delta = conditioning.is_simplified(C)
        return {"simplified": flag(simplified),
                "delta": certified(delta, SIMPLIFIED_QUAD_TOL)}, None

    def check(self, C, record, _):
        delta = record["delta"][1]
        if not 0.0 <= delta <= 1.0:
            return [f"simplifiedness gap {delta!r} outside [0, 1]"]
        if record["simplified"][1] != (delta <= 1e-9):
            return ["flag disagrees with the gap"]
        return []


class JFunctional:
    """j_functional between two random n^3 grids."""

    def __init__(self, n: int):
        self.n = n
        self.name = f"j-functional-{n}"

    def make(self, rng, round_):
        return tuple(verify.random_copula_grid(rng, [self.n] * 3) for _ in range(2))

    def run(self, pair):
        val, err = conditioning.j_functional(*pair, tol=EPS)
        return {"j": certified(val, err)}, None

    def check(self, pair, record, _):
        val, err = record["j"][1], record["j"][2]
        problems = [] if 0.0 <= val <= 1.0 else [f"j = {val!r} outside [0, 1]"]
        if err > EPS:
            problems.append(f"j error {err!r} exceeds tol {EPS}")
        return problems


# -- empirical-scan ------------------------------------------------------------------


def _scan_seed(rng) -> int:
    return int(rng.integers(1 << 31))


class Discontinuity:
    """One operator-discontinuity seed: n = 10^4 sample, sup scan at m = 500."""

    name = "discontinuity"

    def make(self, rng, round_):
        return _scan_seed(rng)

    def run(self, seed):
        row = verify.discontinuity_experiment([SCAN_N], seed=seed, scan_m=SCAN_M)[0]
        d = row["d_emp_cube"]
        return {"d_emp_cube": certified(d, row["d_emp_cube_upper"] - d),
                "d_psi": certified(row["d_psi_emp_psi_cube"], row["d_psi_gap"])}, None

    def check(self, seed, record, _):
        problems = _scan_gap_problems("d_emp_cube", record["d_emp_cube"][2])
        problems += _scan_gap_problems("d_psi", record["d_psi"][2])
        if record["d_psi"][1] < 0.09:
            problems.append(f"image distance {record['d_psi'][1]!r} below 0.09")
        return problems


class NonOptimality:
    """One operator-nonoptimality seed: n = 10^4 sample, sup scan at m = 500."""

    name = "nonoptimality"

    def make(self, rng, round_):
        return _scan_seed(rng)

    def run(self, seed):
        r = verify.nonopt_experiment(SCAN_N, seed=seed, scan_m=SCAN_M)
        d = r["d_cube"]
        return {"simplified": flag(r["simplified"]),
                "delta": certified(r["delta"], SIMPLIFIED_QUAD_TOL),
                "d_cube": certified(d, r["d_cube_upper"] - d),
                "beats_operator": flag(r["beats_operator"])}, None

    def check(self, seed, record, _):
        problems = _scan_gap_problems("d_cube", record["d_cube"][2])
        if not record["simplified"][1]:
            problems.append("empirical copula not recognised as simplified")
        if record["delta"][1] > 1e-12:
            problems.append(f"simplifiedness gap {record['delta'][1]!r} above 1e-12")
        if not record["beats_operator"][1]:
            problems.append("certified distance not below the operator's 1/8")
        return problems


# -- analytic-scan -------------------------------------------------------------------


class Example54Distance:
    """d_inf(example54, pvc3_analytic(example54).psi) on the scan fallback."""

    name = "example54-dinf"
    scan_m = 64

    def make(self, rng, round_):
        return families.example54_copula()

    def run(self, ex):
        psi = pvc.pvc3_analytic(ex).psi
        return {"d_inf": metric(metrics.d_inf(ex, psi, eps=EPS, scan_m=self.scan_m))}, None

    def check(self, ex, record, _):
        return _bracket_problems("d_inf", record["d_inf"], 3.0 / 16.0,
                                 _lattice_width(self.scan_m))


class EfgmDistance:
    """d_inf between a seeded EFGM member and independence (truth |a|/64)."""

    name = "efgm-dinf"
    scan_m = 128

    def make(self, rng, round_):
        a = float(rng.uniform(-1.0, 1.0))
        spec = families.EfgmSpec(3, lambda v: a * v * (1.0 - v),
                                 lambda v: a * (1.0 - 2.0 * v), label="efgm_a")
        return a, families.efgm(spec), analytic.independence_analytic(3)

    def run(self, inputs):
        _, cop, pi = inputs
        return {"d_inf": metric(metrics.d_inf(cop, pi, eps=EPS, scan_m=self.scan_m))}, None

    def check(self, inputs, record, _):
        return _bracket_problems("d_inf", record["d_inf"], abs(inputs[0]) / 64.0,
                                 _lattice_width(self.scan_m))


class ConvergenceRow:
    """One kernel-l1-convergence row: d1 and the wcc profile of a seeded
    sliding-window member against independence."""

    name = "convergence-row"

    def make(self, rng, round_):
        m = int(rng.integers(1, 7))
        k = int(rng.integers(1, 2**m + 1))
        return m, families.efgm_sequence_member(m, k, 3), analytic.independence_analytic(3)

    def run(self, inputs):
        _, cop, pi = inputs
        rep = metrics.d1(cop, pi, eps=EPS)
        vb = cop.kernel_v_breaks
        probes = np.concatenate([(vb[:-1] + vb[1:]) / 2, [0.5]])
        prof = metrics.wcc_profile(cop, pi, probes)
        return {"d1": metric(rep), "wcc_sup": value(max(p for _, p in prof))}, None

    def check(self, inputs, record, _):
        m = inputs[0]
        problems = []
        if abs(record["d1"][1] - 2.0 ** (-m) / 36.0) > 1e-6:
            problems.append(f"d1 {record['d1'][1]!r} is not 2^-{m}/36")
        if abs(record["wcc_sup"][1] - 1.0 / 16.0) > 1e-6:
            problems.append(f"wcc sup {record['wcc_sup'][1]!r} is not 1/16")
        return problems


class Example54Discretized:
    """discretize(example54, [64, 64, 4]) followed by pvc3."""

    name = "example54-grid"

    def make(self, rng, round_):
        return families.example54_copula()

    def run(self, ex):
        disc = families.discretize(ex, [64, 64, 4])
        psi = pvc.pvc3(disc).psi
        return {"c": value(disc.cdf(WITNESS)), "psi": value(psi.cdf(WITNESS))}, (disc, psi)

    def check(self, ex, record, extra):
        disc, psi = extra
        problems = _copula_problems(psi) + _margin_problems(disc, psi)
        # composite-worst-case's tolerance for this discretization
        if abs(record["c"][1] - 0.375) > 2e-2:
            problems.append(f"C(.5,.5,1) = {record['c'][1]!r} is not 3/8 within 2e-2")
        if abs(record["psi"][1] - 0.1875) > 2e-2:
            problems.append(f"psi(.5,.5,1) = {record['psi'][1]!r} is not 3/16 within 2e-2")
        return problems


# -- workloads ---------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: tuple
    trace_ops: int  # fixed op count of one traced pass, so its counts repeat exactly


_conv = ConvergenceRow()


def _small_cycle() -> tuple:
    """grid-small's 24 ops: 12 chain ops, j_functional at n = 2, 3, 4 three
    times each and is_simplified at n = 2, 3, 4 once each.

    is_simplified on 4^3 takes about as long as the other 23 ops together,
    so running it once per 24 ops leaves a 25 s run about 650 ops over which
    to average the seeded op costs: a chain op of one size costs up to six
    times more on one seed's masses than on another's."""
    ops = []
    for simplified in (Simplified(2), Simplified(3), Simplified(4)):
        ops += [JFunctional(2), simplified, JFunctional(3), JFunctional(4)]
    chains = [MetricChain(slot, len(ops)) for slot in range(len(ops))]
    return tuple(op for pair in zip(chains, ops) for op in pair)


WORKLOADS = {w.name: w for w in (
    Workload("grid-operator", (GridOperator(4), GridOperator(6), GridOperator(8)),
             trace_ops=6),
    Workload("grid-small", _small_cycle(), trace_ops=24),
    Workload("empirical-scan", (Discontinuity(), NonOptimality()), trace_ops=2),
    # the convergence case evaluates a row per m while the other cases
    # evaluate their large operand once, so rows fill four of seven slots
    Workload("analytic-scan", (Example54Distance(), _conv, EfgmDistance(), _conv,
                               Example54Discretized(), _conv, _conv),
             trace_ops=7),
)}


def kind_of(workload: Workload, index: int):
    return workload.cycle[index % len(workload.cycle)]


def make_inputs(workload: Workload, seed: int, index: int):
    """Inputs of op ``index``; the warm-up op uses ``WARMUP_INDEX``."""
    if index == WARMUP_INDEX:
        return workload.cycle[0].make(np.random.default_rng([seed, index]), 0)
    return kind_of(workload, index).make(np.random.default_rng([seed, index]),
                                         index // len(workload.cycle))


def record_error(record) -> float:
    """Largest error bound in a record (0 for exact values)."""
    return max((_error(e) for e in record.values()), default=0.0)


def load_pins(workload: str, seed: int) -> list:
    """Pinned records of the workload's first ops, when ``seed`` is the pinned seed."""
    ref = json.loads(REFERENCE.read_text())
    return ref["pins"].get(workload, []) if seed == ref["seed"] else []


def pin_problems(record, pinned) -> list:
    """Differences between a record and the pinned record of the same op."""
    problems = []
    for key, ref in pinned.items():
        new = record.get(key)
        if new is None:
            problems.append(f"{key}: missing")
        elif ref[0] == "exact":
            if float(new[1]).hex() != float(ref[1]).hex():
                problems.append(f"{key}: {new[1]!r} is not bit-identical to pinned {ref[1]!r}")
        elif ref[0] == "certified":
            if abs(new[1] - ref[1]) > _error(new) + ref[2]:
                problems.append(f"{key}: {new[1]!r} +- {_error(new)!r} misses pinned "
                                f"{ref[1]!r} +- {ref[2]!r}")
        elif ref[0] == "flag" and bool(new[1]) != bool(ref[1]):
            problems.append(f"{key}: {new[1]!r} differs from pinned {ref[1]!r}")
    return problems


def pinnable(record) -> dict:
    """The entries of a record that a reference pins."""
    return {k: list(v) for k, v in record.items() if v[0] in ("exact", "certified", "flag")}
