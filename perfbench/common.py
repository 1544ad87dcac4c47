"""Helpers shared by every perfbench workload: paths, statistics, memory,
child processes and the result line.

Nothing here imports ``repro``: the orchestrating process stays free of
the program until a workload needs it, and a checkout without ``src/``
is refused before anything runs.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Everything a run writes (checkpoints, server run dirs, span dumps).
WORK = ROOT / ".perfbench-work"


class BenchError(RuntimeError):
    """The benchmark cannot run or measure (not a failed check)."""


def require_source() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source under {SRC}; run from a full checkout")


def import_program() -> None:
    """Put ``src/`` first on ``sys.path`` (the checkout's program, never an
    installed copy)."""
    require_source()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for every process the benchmark starts.

    Temporary files, registries and rule directories all point inside the
    checkout, and the hash seed is pinned so set and dict layouts do not
    differ from one process to the next.
    """
    for sub in ("tmp", "workloads", "rules"):
        (WORK / sub).mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(WORK / "tmp")
    env["MCCM_WORKLOAD_DIR"] = str(WORK / "workloads")
    env["MCCM_RULE_DIR"] = str(WORK / "rules")
    env["PYTHONHASHSEED"] = "0"
    for name in ("MCCM_POPULATION_KERNEL", "MCCM_TENSOR"):
        env.pop(name, None)
    return env


def median(values: Sequence[float]) -> float:
    if not values:
        raise BenchError("median of no samples")
    return float(statistics.median(values))


def peak_rss_mib(pid: Optional[int] = None) -> float:
    """Peak resident set (``VmHWM``) of a process, in MiB."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    with open(path, "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM in {path}")


def host_metadata() -> Dict[str, object]:
    try:
        import numpy  # noqa: F401

        has_numpy = True
    except ImportError:
        has_numpy = False
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=str(ROOT), capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None  # a plain checkout has no git metadata
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": has_numpy,
        "commit": commit,
    }


class Child:
    """A worker process speaking line-delimited JSON on stdout; use it as a
    context manager so it is always waited for (and killed on an error).

    The parent stamps the launch time, so a child's ``ready`` line measures
    set-up from process start, interpreter start-up included.
    """

    def __init__(self, argv: List[str], timeout: float = 170.0) -> None:
        self.timeout = timeout
        self.launched = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable] + argv,
            stdout=subprocess.PIPE,
            text=True,
            env=child_env(),
            cwd=str(ROOT),
        )

    def read(self) -> dict:
        assert self.proc.stdout is not None
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait(timeout=self.timeout)
            raise BenchError(f"worker exited with {self.proc.returncode} before answering")
        return json.loads(line)

    def __enter__(self) -> "Child":
        return self

    def __exit__(self, exc_type, _exc, _tb) -> None:
        if exc_type is not None and self.proc.poll() is None:
            self.proc.kill()
        try:
            self.proc.wait(timeout=self.timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        if exc_type is None and self.proc.returncode != 0:
            raise BenchError(f"worker exited with {self.proc.returncode}")


def emit(correct: bool, attempted: int, failed: int, metrics: Dict[str, tuple]) -> None:
    """Print the result line: ``metrics`` maps name -> (value, unit)."""
    payload = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def note(message: str) -> None:
    """Progress and diagnostics go to stderr; stdout ends in the result."""
    sys.stderr.write(f"perfbench: {message}\n")
    sys.stderr.flush()

