"""Process preparation shared by the benchmark entry points.

``prepare()`` must run before numpy is imported: it pins BLAS to one
thread and puts this checkout's ``src`` directory first on ``sys.path``,
so the benchmark always measures the source next to it and never an
installed copy.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "copulakit"

# one thread for every BLAS build numpy may link against
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare() -> None:
    """Pin BLAS threads and make ``import copulakit`` load ``src/copulakit``.

    Exits with status 2 when the checkout holds no source tree.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no copulakit source tree at {PACKAGE}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(PACKAGE).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _blas() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        vendor = "unknown"
    return {"vendor": vendor,
            "threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS}}


def provenance(seed=None) -> dict:
    """Where and on what a result was measured."""
    import numpy as np

    import copulakit

    return {
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "copulakit_file": str(Path(copulakit.__file__).resolve().relative_to(ROOT)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "load": "closed loop, one client: one process, one thread, ops back to back",
        "seed": seed,
    }
