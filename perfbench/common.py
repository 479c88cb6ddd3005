"""Plumbing shared by the benchmark's parent and child processes.

Only the standard library is imported here: the parent process never
imports ``repro``, so nothing it inherits can change which backend the
program runs.  Every program process is started through
:func:`hermetic_env`.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
#: Scratch directory inside the checkout; removed when a run ends.
TMP_NAME = ".perfbench_tmp"

#: Stands in for the latency of a failed request ("infinitely late")
#: so that results stay valid JSON.
FAILED_LATENCY_MS = 1e9


def hermetic_env(run_dir: Path, trace: bool = False) -> Dict[str, str]:
    """Environment for one program process.

    Every inherited ``REPRO_*`` variable is dropped, so a host's tuned
    thresholds, fitted cost model or worker count cannot change which
    backend runs; the cache, trace file and cost dataset point into
    ``run_dir``, so nothing is read from or written to the host's
    cache or the checkout's ``results/``.
    """
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    run_dir.mkdir(parents=True, exist_ok=True)
    env.update({
        "PYTHONPATH": str(SRC),
        "PYTHONDONTWRITEBYTECODE": "1",
        "PYTHONHASHSEED": "0",
        "REPRO_CACHE_DIR": str(run_dir / "cache"),
        "REPRO_TRACE_FILE": str(run_dir / "serve-trace.jsonl"),
        "REPRO_COST_DATASET": str(run_dir / "cost-dataset.jsonl"),
    })
    if trace:
        env["REPRO_TRACE"] = "1"
    return env


def python_cmd(script: str, *args: str) -> List[str]:
    return [sys.executable, str(BENCH_DIR / script), *args]


class Scratch:
    """Fresh per-run directories under ``<checkout>/.perfbench_tmp``."""

    def __init__(self) -> None:
        self.base = ROOT / TMP_NAME / ("run-%d" % os.getpid())
        self._count = 0

    def fresh(self, label: str) -> Path:
        self._count += 1
        path = self.base / ("%02d-%s" % (self._count, label))
        path.mkdir(parents=True)
        return path

    def remove(self) -> None:
        shutil.rmtree(self.base, ignore_errors=True)
        try:
            (ROOT / TMP_NAME).rmdir()
        except OSError:
            pass


# -- hermeticity check --------------------------------------------------------

_SKIP_DIRS = {".git", TMP_NAME, ".bench_build", "__pycache__"}


def tree_state() -> Dict[str, object]:
    """What a run must leave unchanged: every file of the checkout
    (size and mtime) and, in a git work tree, ``git status``."""
    files = {}
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = [name for name in dirnames if name not in _SKIP_DIRS]
        for name in filenames:
            path = os.path.join(dirpath, name)
            stat = os.lstat(path)
            files[os.path.relpath(path, ROOT)] = (stat.st_size,
                                                  stat.st_mtime_ns)
    state: Dict[str, object] = {"files": files}
    if (ROOT / ".git").exists():
        try:
            state["git"] = subprocess.run(
                ["git", "status", "--porcelain"], cwd=ROOT,
                capture_output=True, text=True, timeout=30).stdout
        except (OSError, subprocess.SubprocessError):
            pass
    return state


def tree_changes(before: Dict[str, object],
                 after: Dict[str, object]) -> List[str]:
    """Human-readable differences between two :func:`tree_state`s."""
    changes = []
    old, new = before["files"], after["files"]
    for path in sorted(set(old) | set(new)):
        if old.get(path) != new.get(path):
            changes.append(path)
    if before.get("git") != after.get("git"):
        changes.append("git status --porcelain changed")
    return changes


# -- statistics ---------------------------------------------------------------

def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of ``values`` (q in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    position = q * (len(ordered) - 1)
    low = int(math.floor(position))
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


def beyond(count: int, q: float) -> int:
    """Samples beyond the q-th percentile of ``count`` samples."""
    return int(count - math.floor(q * (count - 1)) - 1)


def median(values: Iterable[float]) -> float:
    return percentile(list(values), 0.5)


# -- child-process protocol ---------------------------------------------------

def read_json(path: Path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def write_json(path: Path, payload) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def log(message: str, *args: object) -> None:
    """Progress lines go to stderr; stdout ends with the result line."""
    print("perfbench: " + (message % args if args else message),
          file=sys.stderr, flush=True)


#: Seconds the calibration probe takes on the reference host speed.
PROBE_REFERENCE_S = 0.0125


def speed_probe() -> float:
    """Seconds for a fixed pure-Python loop: the host's speed right now.

    The benchmark's hosts change speed by up to ~1.5x within seconds
    (other tenants share the CPUs).  Run in the same process as the
    measured work, between items, the probe tracks those changes;
    item times are reported scaled by ``PROBE_REFERENCE_S / mean
    probe``.  It is benchmark code, so no program change moves it.
    """
    started = time.perf_counter()
    total = 0
    for value in range(150_000):
        total += value * value % 7
    return time.perf_counter() - started


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (VmHWM) of a live process, in MB."""
    status = Path("/proc/%s/status" % (pid if pid is not None else "self"))
    for line in status.read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in %s" % status)
