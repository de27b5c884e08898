"""Fresh-interpreter probes and machine facts.

setup_s is the time from spawning a fresh interpreter to the end of its
`import mimoiwf.cli`: the cost every CLI invocation pays before work
starts. import_ms splits that import by package module with
`python -X importtime`.
"""
from __future__ import annotations

import os
import platform
import statistics
import subprocess
import sys
import time

MODULES = ("netmodel", "precode", "waterfill", "contraction", "engine", "expharness", "cli")
PROBE_TIMEOUT_S = 60


def _env(src) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    return env


def setup_seconds(src) -> float:
    """Spawn-to-imported time of one fresh interpreter."""
    # CLOCK_MONOTONIC is system-wide on Linux, so the child's reading after
    # its import and the parent's reading before the spawn share a clock.
    code = "import time\nimport mimoiwf.cli\nprint(repr(time.monotonic()))"
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=_env(src),
        capture_output=True,
        text=True,
        check=True,
        timeout=PROBE_TIMEOUT_S,
    )
    return float(done.stdout.strip().splitlines()[-1]) - start


def _attributed(lines: list[tuple[int, str, int]]) -> dict[str, float]:
    """Cumulative import time of each package module minus the package
    modules it imports itself, so each third-party import is charged to the
    module that pulled it in first and the parts sum to the whole."""
    out = {}
    for i, (depth, name, cumulative) in enumerate(lines):
        if not name.startswith("mimoiwf."):
            continue
        # importtime prints children before their parent, deeper indented,
        # so walking back from a module visits its subtree; a counted
        # package module's own subtree is skipped.
        j = i - 1
        nested = 0
        counted_depth = None
        while j >= 0 and lines[j][0] > depth:
            d, child, cum = lines[j]
            j -= 1
            if counted_depth is not None and d > counted_depth:
                continue
            counted_depth = None
            if child.startswith("mimoiwf"):
                nested += cum
                counted_depth = d
        out[name.split(".", 1)[1]] = (cumulative - nested) / 1000.0
    return out


def import_ms(src, repeats: int) -> dict[str, float]:
    """Median attributed import time in ms of each package module."""
    env = _env(src)
    runs = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import mimoiwf.cli"],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=PROBE_TIMEOUT_S,
        )
        lines = []
        for raw in done.stderr.splitlines():
            if not raw.startswith("import time:") or "cumulative" in raw:
                continue
            _, cumulative, name = raw[len("import time:"):].split("|")
            lines.append(((len(name) - len(name.lstrip())) // 2, name.strip(), int(cumulative)))
        runs.append(_attributed(lines))
    return {m: statistics.median(r[m] for r in runs) for m in MODULES if all(m in r for r in runs)}


def machine_facts() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas}
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "num_threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }
