"""The ``service_open`` workload: ``scripts/aomp_serve.py`` under a seeded open loop.

The service runs as its own process (``processes`` backend, one dispatch
worker, team of two).  This process is the only load generator: the main
thread submits on one connection at each request's due time, a second
thread waits for results on a second connection, in submission order.  With
one dispatch worker requests finish in admission order, so the waiting
thread is already blocked on a request when it finishes.
"""

from __future__ import annotations

import json
import math
import random
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from util import SERVE_SCRIPT, child_env, tree_rss_mb

KERNELS = ("series", "crypt", "sor", "sparse")
TENANTS = ("tenant-a", "tenant-b", "tenant-c")
SIZE = "small"
#: share of requests followed at once by an identical (coalescable) submission.
DUPLICATE_SHARE = 0.2
#: closed-loop capacity on the reference host: a burst of the same mix through
#: one dispatch worker with a team of two (requests per second).
CAPACITY_RPS = 30.0
#: the two open-loop phases, as fixed rates (requests per second).
RATES = {"low": 0.25 * CAPACITY_RPS, "high": 0.60 * CAPACITY_RPS}
#: closed bursts per run (``solve_s`` is their median makespan).
BURSTS = 8
#: the open-loop phases and their shares of the run's seconds.  The low phase
#: is long enough for 100+ samples at 30 s, so its tail is p90: series, a
#: quarter of the mix, is several times slower than the other kernels, and a
#: lower percentile sits on the edge between the two groups and jumps.
PHASES = (("low", 0.45), ("high", 0.4))
#: the run alternates bursts and phase windows this many times, so a slow
#: spell of the host touches every phase alike instead of one whole phase.
ROUNDS = 4
WAIT_TIMEOUT = 60.0


@dataclass
class Outcome:
    kernel: str
    phase: str
    due: float
    duplicate: bool
    sent: float = 0.0
    done: float = 0.0
    ok: bool = False
    coalesced: bool = False
    error: str = ""
    payload: "dict[str, Any]" = field(default_factory=dict)

    @property
    def latency(self) -> float:
        return self.done - self.due


class Service:
    """One ``aomp_serve.py`` process; ``start()`` returns when it listens."""

    def __init__(self, *, metrics: bool = False) -> None:
        self.metrics = metrics
        self.proc: "subprocess.Popen | None" = None
        self.port = 0
        self.metrics_port: "int | None" = None

    def start(self) -> None:
        extra = {"AOMP_METRICS": "1", "AOMP_METRICS_PORT": "0"} if self.metrics else {}
        self.proc = subprocess.Popen(
            [sys.executable, str(SERVE_SCRIPT), "--port", "0", "--workers", "1", "--backend", "processes",
             "--num-threads", "2", "--queue", "256"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=child_env(**extra),
        )
        for line in self.proc.stdout:
            if line.startswith("metrics "):
                self.metrics_port = int(line.rsplit(":", 1)[1].split("/")[0])
            if line.startswith("listening "):
                self.port = int(line.split()[1].rsplit(":", 1)[1])
                return
        raise RuntimeError(f"service exited with code {self.proc.wait()} before listening")

    def client(self):
        from repro.service.client import ServiceClient

        return ServiceClient("127.0.0.1", self.port, timeout=WAIT_TIMEOUT + 10.0)

    def rss_mb(self) -> float:
        return tree_rss_mb([self.proc.pid]) if self.proc and self.proc.poll() is None else 0.0

    def scrape(self) -> "dict[str, float]":
        """The service's registry (Prometheus text) as flat ``name[.label]`` keys."""
        with urllib.request.urlopen(f"http://127.0.0.1:{self.metrics_port}/metrics", timeout=10) as response:
            text = response.read().decode("utf-8")
        flat: "dict[str, float]" = {}
        for line in text.splitlines():
            match = re.match(r'^(\w+)(?:\{(\w+)="([^"]*)"\})? (\S+)$', line)
            if not match or line.startswith("#"):
                continue
            name, label, value, number = match.groups()
            if label == "le":
                continue
            for suffix in ("_sum", "_count"):
                if name.endswith(suffix) and name.startswith("aomp_") and "seconds" in name:
                    name = f"{name[: -len(suffix)]}.{suffix[1:]}"
            flat[f"{name}.{value}" if label else name] = float(number)
        return flat

    def stop(self) -> None:
        """Graceful drain (SIGTERM), escalating to a kill; waits until the process is gone."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.proc = None


def dump(outcomes: "list[Outcome]", path: "Any") -> None:
    """One span per request (due time to result, with the submit time and the
    service's own queued/elapsed split), in memory until now."""
    origin = min((o.due for o in outcomes), default=0.0)
    rows = [
        {
            "op": index,
            "phase": o.phase,
            "kernel": o.kernel,
            "tenant": o.payload.get("tenant"),
            "due_s": o.due - origin,
            "sent_s": o.sent - origin,
            "done_s": o.done - origin,
            "queued_s": o.payload.get("queued_seconds"),
            "elapsed_s": o.payload.get("elapsed"),
            "duplicate": o.duplicate,
            "coalesced": o.coalesced,
            "ok": o.ok,
            "error": o.error,
        }
        for index, o in enumerate(outcomes)
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(rows), encoding="utf-8")


def references() -> "dict[str, tuple[Any, float]]":
    """Serial oracle value and wall time per kernel at the workload's size."""
    from repro.service.kernels import KERNELS as CATALOGUE

    table = {}
    for kernel in KERNELS:
        start = time.perf_counter()
        value = CATALOGUE[kernel].reference(SIZE)
        table[kernel] = (value, time.perf_counter() - start)
    return table


def warm(service: Service) -> None:
    """The warm-up pass: every kernel once, waited."""
    with service.client() as client:
        for kernel in KERNELS:
            client.submit(kernel, size=SIZE, tenant=TENANTS[0], coalesce=False, wait=True, timeout=WAIT_TIMEOUT)


def _check(outcome: Outcome, refs: "dict[str, tuple[Any, float]]") -> None:
    from repro.jgf.common import values_match

    payload = outcome.payload
    if payload.get("timed_out"):
        outcome.error = "timed out"
    elif payload.get("status") != "done":
        outcome.error = f"status {payload.get('status')}: {payload.get('error', '')}"[:200]
    elif not values_match(payload.get("value"), refs[outcome.kernel][0], 1e-6):
        outcome.error = "result disagrees with the serial oracle"
    outcome.ok = not outcome.error


def schedule(rng: random.Random, phase: str, rate: float, start: float, seconds: float) -> "list[Outcome]":
    """Seeded Poisson arrivals of the mixed requests, with duplicate submissions.

    Stratified: the inter-arrival gaps are the exponential distribution's
    quantiles at ``n`` evenly spaced probabilities, the kernels and tenants
    an exactly balanced mix and the duplicates an exact share of each
    kernel — all in a seeded order.  Every seed offers the same rate, mix
    and burstiness profile; seeds differ in the order of arrivals only.
    """
    count = max(1, round(rate * seconds))
    gaps = [-math.log(1.0 - (i + 0.5) / count) / rate for i in range(count)]
    kernels = [KERNELS[i % len(KERNELS)] for i in range(count)]
    tenants = [TENANTS[i % len(TENANTS)] for i in range(count)]
    for column in (gaps, kernels, tenants):
        rng.shuffle(column)
    duplicated: "set[int]" = set()
    for kernel in KERNELS:
        positions = [i for i in range(count) if kernels[i] == kernel]
        duplicated.update(rng.sample(positions, round(DUPLICATE_SHARE * len(positions))))
    plan: "list[Outcome]" = []
    due = start
    for i in range(count):
        due += gaps[i]
        plan.append(Outcome(kernels[i], phase, due, False, payload={"tenant": tenants[i]}))
        if i in duplicated:
            plan.append(Outcome(kernels[i], phase, due, True, payload={"tenant": tenants[i]}))
    return plan


def drive(
    service: Service,
    plan: "list[Outcome]",
    refs: "dict[str, tuple[Any, float]]",
    on_idle: "Any" = None,
) -> None:
    """Submit each planned request at its due time; collect every result (open loop)."""
    from repro.service.client import ServiceError

    pending: "deque[tuple[Outcome, str]]" = deque()
    ready = threading.Condition()
    finished = threading.Event()

    def collect() -> None:
        with service.client() as waiter:
            while True:
                with ready:
                    while not pending and not finished.is_set():
                        ready.wait()
                    if not pending:
                        return
                    outcome, request_id = pending.popleft()
                try:
                    response = waiter.wait(request_id, timeout=WAIT_TIMEOUT)
                    outcome.done = time.perf_counter()
                    outcome.payload.update(response)
                    _check(outcome, refs)
                except (ServiceError, OSError, ValueError) as exc:
                    outcome.done = time.perf_counter()
                    outcome.error = f"{type(exc).__name__}: {exc}"[:200]

    collector = threading.Thread(target=collect, name="perfbench-collector")
    collector.start()
    try:
        with service.client() as submitter:
            for outcome in plan:
                if on_idle is not None and outcome.due - time.perf_counter() > 0.1:
                    on_idle()
                gap = outcome.due - time.perf_counter()
                if gap > 0:
                    time.sleep(gap)
                outcome.sent = time.perf_counter()
                try:
                    reply = submitter.submit(
                        outcome.kernel, size=SIZE, tenant=outcome.payload["tenant"], coalesce=True
                    )
                except (ServiceError, OSError, ValueError) as exc:
                    outcome.done = time.perf_counter()
                    outcome.error = f"refused: {type(exc).__name__}: {exc}"[:200]
                    continue
                outcome.coalesced = bool(reply.get("coalesced"))
                with ready:
                    pending.append((outcome, reply["id"]))
                    ready.notify()
    finally:
        with ready:
            finished.set()
            ready.notify()
        collector.join()


def burst(service: Service, rng: random.Random, refs: "dict[str, tuple[Any, float]]") -> "tuple[float, list[Outcome]]":
    """A closed batch: every (kernel, tenant) pair once, in a seeded order, all due at once.

    The keys are distinct, so nothing coalesces; returns the makespan.
    """
    pairs = [(kernel, tenant) for kernel in KERNELS for tenant in TENANTS]
    rng.shuffle(pairs)
    start = time.perf_counter()
    plan = [Outcome(kernel, "burst", start, False, payload={"tenant": tenant}) for kernel, tenant in pairs]
    drive(service, plan, refs)
    return max(o.done for o in plan) - start, plan
