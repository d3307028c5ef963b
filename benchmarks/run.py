"""copulakit benchmark: seeded workloads, checked ops, end-to-end and per-layer metrics.

Usage (from the root of a checkout)::

    python3 benchmarks/run.py --workload grid-operator --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 25

Load: closed loop, one client.  One process and one thread issue ops back
to back; BLAS is pinned to one thread.  Op ``i`` draws its inputs from the
seed and ``i`` (see ``workloads.py``); inputs are built and outputs checked
outside the timed region.

``--trace 0`` runs ops until their summed wall time reaches ``--seconds``
and reports the end-to-end metrics.  ``--trace 1`` runs a fixed list of the
workload's first ops in pairs of passes, one plain and one traced, for
about ``--seconds``; it reports per-layer calls, self-time shares and work
counts, the tracing overhead, and fails any op whose traced output is not
bit-identical to its plain one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
is a JSON report with provenance and the metrics that are not gated.
"""

import time

T_START = time.perf_counter()  # set-up is timed from here

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import checkout  # noqa: E402

checkout.prepare()

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

# setup_s is the median of the run's own set-up and those of processes that
# only set up: at least SETUP_PROBES_MIN of them, and up to SETUP_PROBES_MAX
# while they have taken less than SETUP_PROBE_BUDGET_S in all
SETUP_PROBES_MIN, SETUP_PROBES_MAX = 2, 4
SETUP_PROBE_BUDGET_S = 2.0
P90_MIN_OPS = 100  # op_p90_s needs ten samples beyond it
MAX_LISTED_FAILURES = 20

# name -> unit of the metrics gated in BENCHMARK.json, then of those only reported
END_TO_END = {"ops_per_s": "1/s", "op_iqm_s": "s", "setup_s": "s"}
REPORTED = {"op_p50_s": "s", "op_p90_s": "s", "peak_rss_mib": "MiB", "fail_frac": "ratio",
            "cert_error_max": "abs"}


def run_op(workload, index, inputs, pins, tracer=None):
    """Time one op and check it.  Returns (seconds, record or None, problems).

    A traced op is timed inside a root span and not checked, because the
    checks call traced functions too.
    """
    kind = wl.kind_of(workload, index)
    with tracer.span() if tracer is not None else contextlib.nullcontext():
        t0 = time.perf_counter()
        try:
            record, extra = kind.run(inputs)
        except Exception as exc:  # a failed op is counted and reported; the run goes on
            return time.perf_counter() - t0, None, [f"{type(exc).__name__}: {exc}"]
        seconds = time.perf_counter() - t0
    if tracer is not None:
        return seconds, record, []
    problems = kind.check(inputs, record, extra)
    if index < len(pins):
        problems += wl.pin_problems(record, pins[index])
    return seconds, record, problems


def set_up(workload, seed) -> float:
    """Build the warm-up inputs and run one untimed op; seconds since start."""
    kind = workload.cycle[0]
    kind.run(wl.make_inputs(workload, seed, wl.WARMUP_INDEX))
    return time.perf_counter() - T_START


def probe_setup(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def interquartile_mean(values) -> float:
    """Mean of the middle half of ``values``: the n // 4 smallest and the
    n // 4 largest are left out."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seed, seconds, pins):
    durations, failures = [], []
    cert_error_max = 0.0
    busy = 0.0
    index = 0
    while busy < seconds:
        inputs = wl.make_inputs(workload, seed, index)
        dt, record, problems = run_op(workload, index, inputs, pins)
        durations.append(dt)
        busy += dt
        if record is not None:
            cert_error_max = max(cert_error_max, wl.record_error(record))
        if problems:
            failures.append(f"op {index} ({wl.kind_of(workload, index).name}): "
                            + "; ".join(problems))
        index += 1
    return durations, failures, cert_error_max


def end_to_end(args, workload, pins):
    setup_main = set_up(workload, args.seed)
    durations, failures, cert_error_max = measure(workload, args.seed, args.seconds, pins)
    rss = peak_rss_mib()
    probes = []
    probes_start = time.perf_counter()
    while len(probes) < SETUP_PROBES_MIN or (
            len(probes) < SETUP_PROBES_MAX
            and time.perf_counter() - probes_start < SETUP_PROBE_BUDGET_S):
        probes.append(probe_setup(args))
    setups = [setup_main] + probes
    n = len(durations)
    busy = sum(durations)
    metrics = {
        "ops_per_s": n / busy,
        "op_iqm_s": interquartile_mean(durations),
        "setup_s": statistics.median(setups),
    }
    reported = {
        "op_p50_s": statistics.median(durations),
        "op_p90_s": statistics.quantiles(durations, n=10)[8] if n >= P90_MIN_OPS else None,
        "peak_rss_mib": rss,
        "fail_frac": len(failures) / n,
        "cert_error_max": cert_error_max,
    }
    print(f"workload {workload.name}, seed {args.seed}: {n} ops in {busy:.3f} s timed")
    for name, val in {**metrics, **reported}.items():
        unit = END_TO_END.get(name) or REPORTED[name]
        shown = f"{val:.6g} {unit}" if val is not None else f"n/a (fewer than {P90_MIN_OPS} ops)"
        print(f"  {name:<16} {shown}" + (f"  (n={n})" if name.startswith("op_") else ""))
    report = dict(reported, ops=n, timed_wall_s=busy, setup_samples_s=setups,
                  ops_per_kind=Counter(wl.kind_of(workload, i).name for i in range(n)))
    return n, failures, metrics, report


def _run_pass(workload, seed, pins, tracer=None):
    """One pass over the workload's fixed trace list.  Returns (wall, records, problems)."""
    indices = range(workload.trace_ops)
    inputs = [wl.make_inputs(workload, seed, i) for i in indices]
    wall, records, problems = 0.0, [], []
    for i in indices:
        dt, record, probs = run_op(workload, i, inputs[i], pins, tracer)
        inputs[i] = None
        wall += dt
        records.append(record)
        problems.append(probs)
    return wall, records, problems


def traced(args, workload, pins):
    set_up(workload, args.seed)
    start = time.perf_counter()
    plain_wall, traced_wall = [], []
    calls_first = counts_first = None
    self_s = {}
    counts_repeat = True
    failures, attempted = [], 0
    while True:
        pair_start = time.perf_counter()
        tracer = tracing.Tracer()
        # alternate which pass goes first, so order effects cancel in the overhead
        if len(plain_wall) % 2:
            with tracer:
                wall_t, recs_t, _ = _run_pass(workload, args.seed, pins, tracer)
            wall_p, recs_p, problems = _run_pass(workload, args.seed, pins)
        else:
            wall_p, recs_p, problems = _run_pass(workload, args.seed, pins)
            with tracer:
                wall_t, recs_t, _ = _run_pass(workload, args.seed, pins, tracer)
        plain_wall.append(wall_p)
        traced_wall.append(wall_t)
        attempted += 2 * workload.trace_ops
        for i, (rp, rt, probs) in enumerate(zip(recs_p, recs_t, problems)):
            if repr(rp) != repr(rt):
                probs = probs + ["traced output differs from the plain run"]
            if probs:
                failures.append(f"op {i}: " + "; ".join(probs))
        calls, selfs = tracer.self_times()
        for name, s in selfs.items():
            self_s[name] = self_s.get(name, 0.0) + s
        counts = tracer.work_counts()
        if calls_first is None:
            calls_first, counts_first = calls, counts
        elif calls != calls_first or counts != counts_first:
            counts_repeat = False
        now = time.perf_counter()
        if now - start + (now - pair_start) > args.seconds:
            break
    total_traced = sum(traced_wall)
    metrics = {}
    for name in tracing.TRACED:
        metrics[f"{name}.calls"] = (float(calls_first.get(name, 0)), "count")
        metrics[f"{name}.self_frac"] = (self_s.get(name, 0.0) / total_traced, "ratio")
    metrics[f"{tracing.ROOT_SPAN}.self_frac"] = (self_s.get(tracing.ROOT_SPAN, 0.0) / total_traced,
                                                 "ratio")
    for name, unit in tracing.COUNT_METRICS:
        metrics[name] = (counts_first[name], unit)
    metrics["trace.op_wall_s"] = (statistics.median(plain_wall), "s")
    metrics["trace.overhead_frac"] = (total_traced / sum(plain_wall) - 1.0, "ratio")
    report = {
        "trace_ops": workload.trace_ops,
        "trace_passes": len(plain_wall),
        "plain_pass_wall_s": plain_wall,
        "traced_pass_wall_s": traced_wall,
        "counts_repeat_exactly": counts_repeat,
        "untraced_missing_functions": tracer.missing,
        "self_s_per_pass": {name: s / len(traced_wall) for name, s in sorted(self_s.items())},
    }
    print(f"workload {workload.name}, seed {args.seed}: traced {workload.trace_ops} ops "
          f"x {len(plain_wall)} passes, overhead {metrics['trace.overhead_frac'][0]:+.3%}")
    top = sorted(report["self_s_per_pass"].items(), key=lambda kv: -kv[1])[:8]
    for name, s in top:
        print(f"  {name:<40} self {s:.4f} s/pass  calls {calls_first.get(name, 0)}")
    return attempted, failures, metrics, report


def run_all(args) -> int:
    """Run every workload in its own process, one after another."""
    results = {}
    for name in wl.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if out.returncode != 0 or not lines:
            print(out.stderr, file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {name: r["metrics"] for name, r in results.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, print the set-up time and exit")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return run_all(args)
    workload = wl.WORKLOADS[args.workload]
    if args.setup_probe:
        print(json.dumps({"setup_s": set_up(workload, args.seed)}))
        return 0
    pins = wl.load_pins(workload.name, args.seed)
    if args.trace:
        attempted, failures, metrics, report = traced(args, workload, pins)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    else:
        attempted, failures, values, report = end_to_end(args, workload, pins)
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    for line in failures[:MAX_LISTED_FAILURES]:
        print(f"  FAILED {line}")
    report.update(workload=workload.name, pinned_ops=len(pins),
                  failures=failures[:MAX_LISTED_FAILURES],
                  provenance=checkout.provenance(args.seed))
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
