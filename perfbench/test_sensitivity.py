"""Sensitivity self-check: a regression planted in one layer moves what it should.

The check adds a fixed delay before every ``parallel_region`` call (from
benchmark code, ``--region-delay-ms``) and asserts the predicted interaction:

* on ``jgf_fine`` the region-entry unit costs and the threads lane's time
  per pass move, and the end-to-end median operation latency moves past its
  bound — the bound catches the regression;
* on ``jgf_coarse`` (few, long regions) every end-to-end metric stays within
  its bound.

Slow (a few minutes) and not part of the repository's tier-1 suite::

    python3 -m pytest perfbench/test_sensitivity.py -q
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
SPEC = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
DELAY_MS = "10"
SECONDS = "8"
SEEDS = (11, 12)


def _run(workload: str, seed: int, trace: int, delay: "str | None" = None) -> "dict[str, float]":
    """The run's metrics, plus ``solve_s.<lane>`` from the detail line of an end-to-end run."""
    command = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", SECONDS, "--trace", str(trace)]
    if delay:
        command += ["--region-delay-ms", delay]
    done = subprocess.run(command, cwd=REPO, capture_output=True, text=True, timeout=300, check=True)
    *_, detail_line, result_line = done.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert result["correct"]
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    detail = json.loads(detail_line.split(": ", 1)[1])
    values.update({f"solve_s.{lane}": s for lane, s in detail.get("solve_s_by_lane", {}).items()})
    return values


def _medians(workload: str, trace: int, delay: "str | None" = None) -> "dict[str, float]":
    runs = [_run(workload, seed, trace, delay) for seed in SEEDS]
    return {name: statistics.median(run[name] for run in runs) for name in runs[0]}


@pytest.mark.slow
def test_region_delay_moves_fine_grained_layers_past_the_bound():
    base = _medians("jgf_fine", 1)
    slow = _medians("jgf_fine", 1, DELAY_MS)
    for path in ("threads", "pooled"):
        name = f"runtime.team.entry_ms.{path}"
        assert slow[name] - base[name] > 4.0, (name, base[name], slow[name])

    base = _medians("jgf_fine", 0)
    slow = _medians("jgf_fine", 0, DELAY_MS)
    # 12 threads regions per pass: +120 ms on a ~0.7 s lane.
    assert slow["solve_s.threads"] > base["solve_s.threads"] * 1.08, (base["solve_s.threads"], slow["solve_s.threads"])
    assert slow["solve_s"] > base["solve_s"]
    assert slow["latency_p50_ms"] > base["latency_p50_ms"] * (1.0 + BOUNDS["latency_p50_ms"])


@pytest.mark.slow
def test_region_delay_stays_inside_the_coarse_bounds():
    base = _medians("jgf_coarse", 0)
    slow = _medians("jgf_coarse", 0, DELAY_MS)
    for name in ("solve_s", "latency_p50_ms", "latency_tail_ms"):
        assert slow[name] <= base[name] * (1.0 + BOUNDS[name]), (name, base[name], slow[name])
