"""The benchmark's pinned first cycles of ``grid-small`` and ``grid-operator``
hold: a change that moves a pinned value by one ulp fails the test suite,
not only the benchmark's self-test."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# checkout.prepare() runs before numpy loads, pinning BLAS to one thread as
# in a benchmark run; each failure prints one line
SCRIPT = """
import json, sys
sys.dont_write_bytecode = True
sys.path.insert(0, sys.argv[1])
import checkout
checkout.prepare()
import selftest
import workloads as wl
seed = json.loads(wl.REFERENCE.read_text())["seed"]
for name in ("grid-small", "grid-operator"):
    pins = wl.load_pins(name, seed)
    if len(pins) != len(wl.WORKLOADS[name].cycle):
        print(name, "pins", len(pins), "ops of", len(wl.WORKLOADS[name].cycle))
    for line in selftest.failures(selftest.first_cycle(wl.WORKLOADS[name], seed), pins):
        print(name, line)
"""


def test_pinned_first_cycles_of_the_grid_workloads_hold():
    out = subprocess.run([sys.executable, "-c", SCRIPT, str(ROOT / "benchmarks")],
                         capture_output=True, text=True, timeout=600, cwd=ROOT)
    assert out.returncode == 0, out.stderr
    assert out.stdout == ""
