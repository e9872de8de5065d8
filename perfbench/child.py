"""One JGF workload process: set up, warm, then measure passes of the batch.

Run by ``run.py`` (never by hand)::

    python perfbench/child.py '<json options>'

Options: ``workload``, ``seed``, ``seconds``, ``mode`` (``setup`` stops once
warm; ``measure`` times passes; ``traced`` also records spans, region paths
and registry deltas, and measures unit costs after the passes),
``oracle_file`` (serial results shared by the run's processes) and
``region_delay_ms`` (a planted delay, for the sensitivity self-check).

Prints ``WARM`` when set up, then one tagged result line.
"""

from __future__ import annotations

import json
import pickle
import random
import sys
import time
import traceback
import warnings
from pathlib import Path
from typing import Any

from util import OUT_DIR, emit, use_program_path

use_program_path()

import ops  # noqa: E402
import layers  # noqa: E402


def _run_op(op: "ops.Op", tracer: "layers.Tracer | None") -> "dict[str, Any]":
    """Call one driver; never raises — a failure is a recorded outcome."""
    from repro.runtime.team import watch_teams

    record: "dict[str, Any]" = {"label": op.label, "lane": op.lane}
    waited = layers.barrier_wait_s() if tracer is not None else 0.0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            if tracer is None:
                result = ops.run(op)
            else:
                tracer.requested = op.lane
                with watch_teams(tracer.note_team):
                    result = ops.run(op)
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            result = None
            record["error"] = f"{type(exc).__name__}: {exc}"[:300]
        end = time.perf_counter()
    record["wall"] = end - start
    record["result"] = result
    record["warnings"] = [str(w.message).split(":", 1)[0] for w in caught if issubclass(w.category, RuntimeWarning)]
    if tracer is not None:
        tracer.spans.add("driver", tracer.op_id, start, end, label=op.label, lane=op.lane, ok="error" not in record)
        record["paths"] = tracer.settle_paths()
        record["barrier_wait"] = layers.barrier_wait_s() - waited
        tracer.op_id += 1
    return record


def _oracles(batch: "list[ops.Op]", path: "str | None") -> "dict[tuple, Any]":
    """Serial ``(value, wall, elapsed)`` per distinct operation, shared through ``path``."""
    if path and Path(path).is_file():
        return pickle.loads(Path(path).read_bytes())
    table: "dict[tuple, Any]" = {}
    for op in batch:
        if op.oracle_key not in table:
            start = time.perf_counter()
            reference = ops.oracle(op)
            wall = time.perf_counter() - start
            table[op.oracle_key] = (reference.value, wall, float(reference.elapsed))
    if path:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_bytes(pickle.dumps(table))
    return table


def _finish(record: "dict[str, Any]", op: "ops.Op", table: "dict[tuple, Any]") -> "dict[str, Any]":
    result = record.pop("result")
    if result is not None:
        record["elapsed"] = float(result.elapsed)
        if not ops.check(result, table[op.oracle_key][0]):
            record["error"] = "result disagrees with the serial oracle"
    record["ok"] = "error" not in record
    return record


def main(options: "dict[str, Any]") -> int:
    workload = options["workload"]
    mode = options["mode"]
    batch = ops.batch(workload)
    for op in batch:  # import every driver before any wrapper is placed
        ops.module(op.kernel)

    if options.get("region_delay_ms"):
        layers.delay_regions(options["region_delay_ms"])
    tracer = None
    if mode == "traced":
        tracer = layers.Tracer()
        tracer.install()

    rng = random.Random(options["seed"])
    warm_start = time.perf_counter()
    warm = [(op, _run_op(op, tracer)) for op in rng.sample(batch, len(batch))]
    warm_pass = time.perf_counter() - warm_start
    print("WARM", flush=True)
    if tracer is not None:
        tracer.spans.records.clear()
        tracer.paths = dict.fromkeys(tracer.paths, 0)
        tracer.region_names.clear()

    table = _oracles(batch, options.get("oracle_file"))
    records = [_finish(record, op, table) for op, record in warm]
    payload: "dict[str, Any]" = {"warm_pass_s": warm_pass, "warm_ops": records}
    if mode == "setup":
        emit(payload)
        return 0

    obs_before = layers.obs_flat() if tracer is not None else None
    passes: "list[float]" = []
    measured: "list[dict[str, Any]]" = []
    deadline = time.perf_counter() + float(options["seconds"])
    while time.perf_counter() < deadline:
        start = time.perf_counter()
        pass_records = [(op, _run_op(op, tracer)) for op in rng.sample(batch, len(batch))]
        passes.append(time.perf_counter() - start)
        measured.extend(_finish(record, op, table) for op, record in pass_records)
    payload.update(
        passes=passes,
        ops=measured,
        serial_pass_s=sum(table[op.oracle_key][1] for op in batch),
        serial_compute_s={op.label: table[op.oracle_key][2] for op in batch},
    )
    if tracer is not None:
        payload["obs"] = layers.delta(layers.obs_flat(), obs_before)
        payload["paths"] = tracer.paths
        payload["region_names"] = tracer.region_names
        payload["spans"] = tracer.span_totals()
        trace_path = OUT_DIR / f"spans-{workload}-{options['seed']}.json"
        tracer.spans.dump(trace_path)
        payload["span_file"] = str(trace_path)
        payload["units"] = layers.calibrate()
    emit(payload)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(json.loads(sys.argv[1])))
    except Exception:  # noqa: BLE001 - the orchestrator reports the failure
        traceback.print_exc()
        sys.exit(1)
