"""Self-test of the benchmark's checks, pinned reference and tracer.

Usage (from the root of a checkout)::

    python3 benchmarks/selftest.py           # run the self-test
    python3 benchmarks/selftest.py --write   # re-pin reference.json from this checkout

The self-test runs the first cycle of ops of every workload at the pinned
seed and shows that

1. every op passes its oracle checks and matches its pinned record;
2. a wrong reference (one pinned value moved off its bracket, or one exact
   value moved by one ulp) makes the workload's fail_frac positive;
3. traced ops return records bit-identical to the plain ones, and leaving
   the tracer restores every patched attribute.

It exits with status 1 when any of these fails.  Re-pin only when a change
is meant to move a pinned value, and say so where the change is recorded.
"""

import argparse
import copy
import json
import math
import sys

import checkout

checkout.prepare()

import tracing  # noqa: E402
import workloads as wl  # noqa: E402


def first_cycle(workload, seed, tracer=None):
    """Records and check problems of ops 0 .. len(cycle) - 1."""
    out = []
    for i in range(len(workload.cycle)):
        kind = wl.kind_of(workload, i)
        inputs = wl.make_inputs(workload, seed, i)
        if tracer is None:
            record, extra = kind.run(inputs)
            out.append((record, kind.check(inputs, record, extra)))
        else:
            with tracer.span():
                record, _ = kind.run(inputs)
            out.append((record, []))
    return out


def failures(records, pins) -> list:
    """One line per op that fails its checks or its pinned record."""
    lines = []
    for i, (record, problems) in enumerate(records):
        if i < len(pins):
            problems = problems + wl.pin_problems(record, pins[i])
        if problems:
            lines.append(f"op {i}: " + "; ".join(problems))
    return lines


def wrong_reference(pins):
    """Copy of ``pins`` with the first pinned entry of op 0 made wrong."""
    wrong = copy.deepcopy(pins)
    entry = next(iter(wrong[0].values()))
    if entry[0] == "exact":
        entry[1] = math.nextafter(entry[1], math.inf)
    elif entry[0] == "certified":
        entry[1] += 2.0 * (entry[2] + abs(entry[1])) + 1e-3
    else:
        entry[1] = not entry[1]
    return wrong


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="re-pin reference.json from this checkout and exit")
    args = parser.parse_args()
    seed = json.loads(wl.REFERENCE.read_text())["seed"]

    if args.write:
        pins = {name: [wl.pinnable(record) for record, _ in first_cycle(w, seed)]
                for name, w in wl.WORKLOADS.items()}
        wl.REFERENCE.write_text(json.dumps({"seed": seed, "pins": pins}, indent=1) + "\n")
        print(f"pinned {sum(map(len, pins.values()))} ops at seed {seed} in {wl.REFERENCE.name}")
        return 0

    ok = True
    summary = {}
    for name, workload in wl.WORKLOADS.items():
        pins = wl.load_pins(name, seed)
        plain = first_cycle(workload, seed)
        with tracing.Tracer() as tracer:
            traced = first_cycle(workload, seed, tracer)
        calls, _ = tracer.self_times()
        problems = failures(plain, pins)
        result = {
            "ops": len(plain),
            "pinned_ops": len(pins),
            "fail_frac": len(problems) / len(plain),
            "fail_frac_wrong_reference":
                len(failures(plain, wrong_reference(pins))) / len(plain) if pins else None,
            "traced_bit_identical": all(repr(p[0]) == repr(t[0]) for p, t in zip(plain, traced)),
            "traced_calls": sum(n for span, n in calls.items() if span != tracing.ROOT_SPAN),
            "tracer_restored": tracing.is_clean(),
        }
        passed = (result["pinned_ops"] == result["ops"] and result["fail_frac"] == 0.0
                  and (result["fail_frac_wrong_reference"] or 0.0) > 0.0
                  and result["traced_bit_identical"] and result["traced_calls"] > 0
                  and result["tracer_restored"])
        ok = ok and passed
        summary[name] = dict(result, passed=passed, problems=problems)
        print(f"{name:<15} {'ok' if passed else 'FAILED'}  {json.dumps(result)}")
        for line in problems:
            print(f"  {line}")
    print(json.dumps({"passed": ok, "workloads": summary,
                      "provenance": checkout.provenance(seed)}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
