"""Observe the program's layers from outside, and calibrate their unit costs.

Nothing here changes ``src/``: spans come from wrappers that benchmark code
places around public callables (``parallel_region``, ``Weaver.weave_all`` /
``unweave_all``), the region paths from :class:`repro.runtime.team.watch_teams`,
and the counts from :func:`repro.obs.stats` (``AOMP_METRICS=1``).
"""

from __future__ import annotations

import functools
import importlib.util
import sys
import threading
import time
from typing import Any, Callable

from util import BENCH_HELPERS, Spans

PATHS = ("threads", "pooled", "forked", "distributed", "fallback")
SCHEDULES = ("static_block", "static_cyclic", "dynamic", "guided")


# ---------------------------------------------------------------------------
# wrapping public callables
# ---------------------------------------------------------------------------


def replace_everywhere(original: Callable, replacement: Callable) -> int:
    """Rebind every loaded module attribute that *is* ``original``."""
    replaced = 0
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not namespace:
            continue
        for name, value in list(namespace.items()):
            if value is original:
                setattr(module, name, replacement)
                replaced += 1
    return replaced


def delay_regions(millis: float) -> None:
    """Sleep ``millis`` before every ``parallel_region`` call.

    Used by the sensitivity self-check to plant a known regression in one
    layer from benchmark code.
    """
    from repro.runtime import team

    original = team.parallel_region
    delay = float(millis) / 1000.0

    @functools.wraps(original)
    def delayed(*args: Any, **kwargs: Any) -> Any:
        time.sleep(delay)
        return original(*args, **kwargs)

    replace_everywhere(original, delayed)


class Tracer:
    """Spans around the driver, weaving and region boundaries; region paths; warnings."""

    def __init__(self) -> None:
        self.spans = Spans()
        self.op_id = 0
        self.requested = "threads"
        self.paths = {path: 0 for path in PATHS}
        self.region_names: "dict[str, int]" = {}
        self._local = threading.local()
        self._teams: "list[Any]" = []

    # -- wrappers ------------------------------------------------------------

    def install(self) -> None:
        from repro.core.weaver.weaver import Weaver
        from repro.runtime import team

        original = team.parallel_region
        tracer = self

        @functools.wraps(original)
        def traced_region(*args: Any, **kwargs: Any) -> Any:
            depth = getattr(tracer._local, "depth", 0)
            tracer._local.depth = depth + 1
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                tracer._local.depth = depth
                tracer.spans.add("parallel_region", tracer.op_id, start, time.perf_counter(), depth=depth)

        replace_everywhere(original, traced_region)
        for method in ("weave_all", "unweave_all"):
            setattr(Weaver, method, self._wrap_weaver(getattr(Weaver, method), method))

    def _wrap_weaver(self, method: Callable, name: str) -> Callable:
        tracer = self

        @functools.wraps(method)
        def traced(*args: Any, **kwargs: Any) -> Any:
            start = time.perf_counter()
            try:
                return method(*args, **kwargs)
            finally:
                tracer.spans.add(f"weaver.{name}", tracer.op_id, start, time.perf_counter())

        return traced

    # -- region paths --------------------------------------------------------

    def note_team(self, team: Any) -> None:
        self._teams.append(team)

    def settle_paths(self) -> "list[str]":
        """Classify the regions the last operation entered by the path each took."""
        taken = []
        for team in self._teams:
            if team.nesting_level > 0:
                continue
            self.region_names[team.name] = self.region_names.get(team.name, 0) + 1
            sync = team.process_sync
            backend = team.backend_name
            if backend == "threads":
                path = "threads" if self.requested == "threads" else "fallback"
            elif backend == "distributed":
                path = "distributed"
            elif sync is None:
                path = "fallback"
            else:
                path = "pooled" if sync.pooled else "forked"
            self.paths[path] += 1
            taken.append(path)
        self._teams.clear()
        return taken

    def span_totals(self) -> "dict[str, float]":
        totals = {"region_s": 0.0, "weave_s": 0.0, "weaves": 0}
        for name, _op, start, end, attrs in self.spans.records:
            if name == "parallel_region" and attrs.get("depth", 0) == 0:
                totals["region_s"] += end - start
            elif name.startswith("weaver."):
                totals["weave_s"] += end - start
                totals["weaves"] += 1
        return totals


# ---------------------------------------------------------------------------
# registry deltas
# ---------------------------------------------------------------------------


def obs_flat() -> "dict[str, float]":
    """The summable part of :func:`repro.obs.stats` as flat ``name[.label]`` keys."""
    from repro.obs import stats

    snapshot = stats()
    flat: "dict[str, float]" = {}
    for name, value in snapshot["counters"].items():
        if isinstance(value, dict):
            for label, count in value.items():
                flat[f"{name}.{label}"] = float(count)
        else:
            flat[name] = float(value)
    for name, hist in snapshot["histograms"].items():
        flat[f"{name}.count"] = float(hist["count"])
        flat[f"{name}.sum"] = float(hist["sum"])
    return flat


def barrier_wait_s() -> float:
    """Summed barrier wait of every team member so far (``aomp_barrier_wait_seconds``)."""
    return obs_flat().get("aomp_barrier_wait_seconds.sum", 0.0)


def delta(after: "dict[str, float]", before: "dict[str, float]") -> "dict[str, float]":
    return {key: after[key] - before.get(key, 0.0) for key in after}


# ---------------------------------------------------------------------------
# calibration (same-run unit costs)
# ---------------------------------------------------------------------------


def _load_helper(name: str):
    """Import ``benchmarks/<name>.py`` read-only (tier-1 tests import these modules too)."""
    module_name = f"_perfbench_{name}"
    if module_name in sys.modules:
        return sys.modules[module_name]
    spec = importlib.util.spec_from_file_location(module_name, BENCH_HELPERS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[module_name] = module
    spec.loader.exec_module(module)
    return module


class _EmptyRegion:
    """An empty SPMD body the warm pool and socket workers accept (picklable, process-safe)."""

    process_safe = True

    def run(self) -> None:
        return None


def _region_cost(backend: str, body: Callable[[], None], regions: int) -> "tuple[float, set]":
    from repro.runtime.team import parallel_region, watch_teams

    paths: "set[tuple[str, Any]]" = set()

    def note(team: Any) -> None:
        sync = team.process_sync
        paths.add((team.backend_name, None if sync is None else sync.pooled))

    parallel_region(body, num_threads=2, backend=backend, name="perfbench.calibrate")  # warm
    samples = []
    with watch_teams(note):
        for _ in range(regions):
            start = time.perf_counter()
            parallel_region(body, num_threads=2, backend=backend, name="perfbench.calibrate")
            samples.append(time.perf_counter() - start)
    samples.sort()
    return samples[len(samples) // 2], paths


def calibrate() -> "dict[str, Any]":
    """Unit costs measured in this process: region entry per path, chunk, barrier, call, RPC, weave."""
    overhead = _load_helper("bench_overhead")
    dataplane = _load_helper("bench_dataplane")
    units: "dict[str, Any]" = {}

    entry: "dict[str, float]" = {}
    observed: "dict[str, list]" = {}
    for path, backend, body, regions in (
        ("threads", "threads", _EmptyRegion().run, 40),
        ("pooled", "processes", _EmptyRegion().run, 20),
        ("forked", "processes", lambda: None, 10),  # not pool-eligible: fork per region
        ("distributed", "distributed", _EmptyRegion().run, 3),
    ):
        seconds, paths = _region_cost(backend, body, regions)
        entry[path] = seconds * 1000.0
        observed[path] = sorted(str(p) for p in paths)
    units["region_entry_ms"] = entry
    units["region_paths_seen"] = observed

    chunks = overhead.measure_chunk_dispatch(4000, 3)
    units["chunk_dispatch_us"] = {s: chunks[s]["overhead_seconds_per_chunk"] * 1e6 for s in SCHEDULES}
    units["barrier_round_us"] = overhead.measure_barrier(200, 3)["seconds_per_barrier"] * 1e6
    woven = overhead.measure_woven_call(20000, 3)
    units["woven_call_us"] = woven["woven_seconds_per_call"] * 1e6
    units["woven_call_overhead_us"] = woven["overhead_seconds_per_call"] * 1e6
    units["rpc_ping_us"] = dataplane.run_suite("smoke", repeats=3)["metrics"]["ping"]["rtt_seconds"] * 1e6

    from repro.core import Weaver
    from repro.jgf.crypt import parallel as crypt
    from repro.jgf.crypt.kernel import CryptBenchmark

    samples = []
    for _ in range(20):
        weaver = Weaver()
        start = time.perf_counter()
        weaver.weave_all(crypt.build_aspects(2), CryptBenchmark)
        weaver.unweave_all()
        samples.append(time.perf_counter() - start)
    samples.sort()
    units["weave_ms"] = samples[len(samples) // 2] * 1000.0
    return units
