"""The JGF operation batches of the ``jgf_coarse`` and ``jgf_fine`` workloads.

An *operation* is one call of a public JGF driver.  Each carries the lane
(backend) it asks for and its serial oracle: ``run_sequential`` at the same
size, compared with :func:`repro.jgf.common.values_match`.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any

#: team size of every operation (the host has two cores).
TEAM = 2

#: agreement with the serial oracle (the JGF tests' tolerance).
TOLERANCE = 1e-6

LANES = ("threads", "processes", "distributed")


@dataclass(frozen=True)
class Op:
    label: str
    kernel: str  # package under repro.jgf
    driver: str  # driver function in repro.jgf.<kernel>.parallel
    size: Any
    lane: str  # backend the operation asks for
    kwargs: "dict[str, Any]" = field(default_factory=dict)

    @property
    def oracle_key(self) -> "tuple[str, str]":
        return self.kernel, repr(self.size)


def _coarse() -> "list[Op]":
    # The paper's woven path on processes; sizes give 0.1-1 s per call and
    # no kernel more than half the batch.
    return [
        Op("series.aomp", "series", "run_aomp", 400, "processes", {"backend": "processes"}),
        Op("crypt.aomp", "crypt", "run_aomp", 8 * 8192, "processes", {"backend": "processes"}),
        Op("sor.aomp.auto", "sor", "run_aomp", 450, "processes", {"backend": "processes", "schedule": "auto"}),
        Op("sparse.aomp.auto", "sparse", "run_aomp", (10000, 100000), "processes",
           {"backend": "processes", "schedule": "auto"}),
    ]


def _fine() -> "list[Op]":
    ops = [
        Op("moldyn.aomp", "moldyn", "run_aomp", "small", "threads", {"strategy": "jgf"}),
        Op("lufact.collapse", "lufact", "run_collapse", "small", "threads", {"backend": "threads"}),
        Op("raytracer.taskloop", "raytracer", "run_aomp_taskloop", "small", "threads"),
    ]
    for lane in LANES:
        for kernel in ("crypt", "sor", "sparse"):
            ops.append(Op(f"{kernel}.backend.{lane}", kernel, "run_backend", "small", lane, {"backend": lane}))
    return ops


#: per pass, how many times each lane's operations run: the threads and
#: processes operations are short, so they repeat to keep region entry,
#: dispatch and barrier costs visible next to the distributed spawns.
FINE_REPEATS = {"threads": 2, "processes": 3, "distributed": 1}


def _service_kernels() -> "list[Op]":
    # What one compute-service request runs, called in-process: the traced
    # run of ``service_open`` reads driver overhead and region paths here.
    return [
        Op(f"{kernel}.backend.processes", kernel, "run_backend", "small", "processes", {"backend": "processes"})
        for kernel in ("series", "crypt", "sor", "sparse")
    ]


BATCHES = {"jgf_coarse": _coarse, "jgf_fine": _fine, "service_kernels": _service_kernels}


def batch(workload: str) -> "list[Op]":
    ops = BATCHES[workload]()
    if workload == "jgf_fine":
        ops = [op for op in ops for _ in range(FINE_REPEATS[op.lane])]
    return ops


def module(kernel: str):
    return importlib.import_module(f"repro.jgf.{kernel}.parallel")


def run(op: Op) -> Any:
    """Call the operation's driver; returns its ``BenchmarkResult``."""
    driver = getattr(module(op.kernel), op.driver)
    return driver(op.size, num_threads=TEAM, **op.kwargs)


def oracle(op: Op) -> Any:
    return module(op.kernel).run_sequential(op.size)


def check(result: Any, reference_value: Any) -> bool:
    """Whether a driver result agrees with the serial oracle's value (and its own validation)."""
    from repro.jgf.common import values_match

    if result.details.get("valid") is False:
        return False
    return values_match(result.value, reference_value, TOLERANCE)
