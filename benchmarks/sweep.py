"""Scaling sweep of the two heaviest ops: a report, not gated.

Usage (from the root of a checkout)::

    python3 benchmarks/sweep.py [--seed 0]

It runs the grid-operator op (pvc3, then d_inf and d1 against the image)
on random n^3 grids for n in 4, 8, 16 and 32, and the two empirical-scan
ops (operator-discontinuity and operator-nonoptimality seeds) for samples
of 10^3, 10^4 and 10^5 points at scan lattice m = 500.  It prints one JSON
document with each point's stage timings, sizes and outcome; an error such
as ``ResolutionOverflow`` is recorded as the point's outcome.
"""

import argparse
import json
import resource
import sys
import time

import checkout

checkout.prepare()

import numpy as np  # noqa: E402

from copulakit import metrics, pvc, verify  # noqa: E402
from copulakit.errors import CopulaError  # noqa: E402

GRID_SIZES = (4, 8, 16, 32)
SAMPLE_SIZES = (1_000, 10_000, 100_000)
SCAN_M = 500


def _timed(stages, name, fn):
    t0 = time.perf_counter()
    try:
        return fn()
    finally:
        stages[name] = time.perf_counter() - t0


def _rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def grid_point(seed: int, n: int) -> dict:
    C = verify.random_copula_grid(np.random.default_rng([seed, n]), [n] * 3)
    stages, point = {}, {"n": n, "input_cells": n**3}
    try:
        psi = _timed(stages, "pvc3_s", lambda: pvc.pvc3(C).psi)
        point["psi_shape"] = list(psi.shape)
        point["psi_cells"] = int(psi.masses.size)
        rep = _timed(stages, "d_inf_s", lambda: metrics.d_inf(C, psi))
        point["d_inf"] = rep.to_dict()
        rep = _timed(stages, "d1_s", lambda: metrics.d1(C, psi))
        point["d1"] = rep.to_dict()
        point["outcome"] = "ok"
    except CopulaError as exc:
        point["outcome"] = f"{type(exc).__name__}: {exc}"
    point.update(stages, op_s=sum(stages.values()), peak_rss_mib_so_far=_rss_mib())
    return point


def sample_point(seed: int, n: int) -> dict:
    stages = {}
    disc = _timed(stages, "discontinuity_s", lambda: verify.discontinuity_experiment(
        [n], seed=seed, scan_m=SCAN_M)[0])
    nonopt = _timed(stages, "nonoptimality_s", lambda: verify.nonopt_experiment(
        n, seed=seed + 1, scan_m=SCAN_M))
    return {"n": n, "m": SCAN_M, "discontinuity": disc, "nonoptimality": nonopt,
            **stages, "peak_rss_mib_so_far": _rss_mib()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    grid = []
    for n in GRID_SIZES:
        grid.append(grid_point(args.seed, n))
        print(f"grid-operator n={n}: {grid[-1]['outcome']} in {grid[-1]['op_s']:.3f} s",
              file=sys.stderr)
    samples = []
    for n in SAMPLE_SIZES:
        samples.append(sample_point(args.seed, n))
        print(f"empirical-scan n={n}: {samples[-1]['discontinuity_s']:.3f} s + "
              f"{samples[-1]['nonoptimality_s']:.3f} s", file=sys.stderr)
    print(json.dumps({"grid_operator": grid, "empirical_scan": samples,
                      "provenance": checkout.provenance(args.seed)}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
