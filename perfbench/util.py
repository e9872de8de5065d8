"""Shared helpers: paths, statistics, process-tree RSS sampling, host fingerprint."""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import sysconfig
import threading
import time
from pathlib import Path
from typing import Any, Iterable

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
SRC = REPO / "src"
SERVE_SCRIPT = REPO / "scripts" / "aomp_serve.py"
BENCH_HELPERS = REPO / "benchmarks"
#: run output (span dumps, per-run detail); listed in the root .gitignore.
OUT_DIR = REPO / ".perfbench_out"

#: the tail rule: the highest of these percentiles with at least
#: ``TAIL_BEYOND`` samples above it.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)
TAIL_BEYOND = 10


def program_present() -> bool:
    """Whether the program under test (``src/repro`` and the serve script) is here."""
    return (SRC / "repro" / "__init__.py").is_file() and SERVE_SCRIPT.is_file()


def use_program_path() -> None:
    """Make ``repro`` importable from the checkout's ``src``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env(**extra: str) -> "dict[str, str]":
    """Environment for a program process: ``src`` on the path, no stray AOMP_/OMP_ settings."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("AOMP_", "OMP_"))}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.update(extra)
    return env


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def median(values: "Iterable[float]") -> float:
    data = list(values)
    return statistics.median(data) if data else 0.0


def percentile(values: "Iterable[float]", pct: float) -> float:
    """Linear-interpolated percentile (numpy's default definition)."""
    data = sorted(values)
    if not data:
        return 0.0
    if len(data) == 1:
        return data[0]
    rank = (len(data) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (rank - low)


def kind_median_geomean(samples: "Iterable[tuple[str, float]]") -> float:
    """Geometric mean over kinds of each kind's median: a typical latency that a mix cannot skew."""
    by_kind: "dict[str, list[float]]" = {}
    for kind, value in samples:
        by_kind.setdefault(kind, []).append(value)
    if not by_kind:
        return 0.0
    return statistics.geometric_mean(statistics.median(values) for values in by_kind.values())


def tail(values: "Iterable[float]") -> "tuple[float, float]":
    """``(percentile, value)``: the highest ladder percentile with >= 10 samples beyond it."""
    data = list(values)
    for pct in TAIL_LADDER:
        if len(data) * (1.0 - pct / 100.0) >= TAIL_BEYOND:
            return pct, percentile(data, pct)
    return 50.0, percentile(data, 50.0)


# ---------------------------------------------------------------------------
# process-tree RSS
# ---------------------------------------------------------------------------


def _ppid_map() -> "dict[int, int]":
    parents: "dict[int, int]" = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue
        # "pid (comm) state ppid ..." — comm may hold spaces/parens.
        fields = stat[stat.rfind(b")") + 2 :].split()
        parents[int(entry)] = int(fields[1])
    return parents


def _rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", "rb") as handle:
            for line in handle:
                if line.startswith(b"VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_rss_mb(roots: "Iterable[int]") -> float:
    """Summed resident set size of ``roots`` and all their descendants (MB)."""
    parents = _ppid_map()
    members = set(roots)
    grew = True
    while grew:
        grew = False
        for pid, ppid in parents.items():
            if ppid in members and pid not in members:
                members.add(pid)
                grew = True
    return sum(_rss_kb(pid) for pid in members) / 1024.0


#: seconds between RSS samples: each scans ``/proc``, so it is kept off the
#: program's two cores.
RSS_INTERVAL = 1.0


class RssSampler:
    """Peak summed RSS of a set of process trees, sampled at most once per :data:`RSS_INTERVAL`.

    Use as a context manager for a background sampling thread, or call
    :meth:`maybe_sample` from a thread with idle time.
    """

    def __init__(self) -> None:
        self.roots: "set[int]" = set()
        self.peak_mb = 0.0
        self._last = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="rss-sampler", daemon=True)

    def sample(self) -> None:
        if self.roots:
            self._last = time.perf_counter()
            self.peak_mb = max(self.peak_mb, tree_rss_mb(self.roots))

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= RSS_INTERVAL:
            self.sample()

    def _loop(self) -> None:
        while not self._stop.wait(RSS_INTERVAL):
            self.sample()

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._stop.set()
        self._thread.join()


# ---------------------------------------------------------------------------
# host fingerprint
# ---------------------------------------------------------------------------


def host_fingerprint() -> "dict[str, Any]":
    model = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a program dependency
        numpy_version = None
    gil_check = getattr(sys, "_is_gil_enabled", None)
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": model,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy_version,
        "free_threaded_build": bool(sysconfig.get_config_var("Py_GIL_DISABLED")),
        "gil_enabled": bool(gil_check()) if gil_check is not None else True,
    }


# ---------------------------------------------------------------------------
# spans and result lines
# ---------------------------------------------------------------------------


class Spans:
    """In-memory span log (name, operation id, start, end, attributes); dumped at the end."""

    def __init__(self) -> None:
        self.records: "list[tuple[str, int, float, float, dict[str, Any]]]" = []
        self._origin = time.perf_counter()

    def add(self, name: str, op_id: int, start: float, end: float, **attrs: Any) -> None:
        self.records.append((name, op_id, start - self._origin, end - self._origin, attrs))

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {"name": name, "op": op_id, "start_s": start, "end_s": end, **attrs}
            for name, op_id, start, end, attrs in self.records
        ]
        path.write_text(json.dumps(rows), encoding="utf-8")


RESULT_PREFIX = "PERFBENCH-RESULT "


def emit(payload: "dict[str, Any]") -> None:
    """Hand a child's result to the orchestrator (one tagged stdout line)."""
    print(RESULT_PREFIX + json.dumps(payload), flush=True)


def parse_result(stdout: str) -> "dict[str, Any]":
    for line in reversed(stdout.splitlines()):
        if line.startswith(RESULT_PREFIX):
            return json.loads(line[len(RESULT_PREFIX) :])
    raise RuntimeError("child process printed no result line")
