"""Distributed backend: team members in independent processes over sockets.

Runs each non-master team member in its own *spawned* worker process —
``sys.executable -c`` bootstrap, no fork, no inherited address space — and
connects every worker to the master's data-plane
:class:`~repro.runtime.dataplane.Coordinator` over loopback TCP.  This is
the runtime's sharding story: OpenMP constructs on top, an MPI-shaped
message plane underneath, with nothing in the worker's world but the wire
protocol (the same shape a multi-host deployment would need).

Workers are spawned once and reused (see :func:`_worker_loop`).
Coordinators stay per region, so authentication, dropped-connection-as-death,
heartbeats and member identity are the same for a warm worker as for a
fresh one.

Division of labour with :mod:`repro.runtime.dataplane`:

* the data plane owns *state and transport* — coordinator, arenas,
  barrier, array mirrors, proxies;
* this module owns *membership* — keeping workers warm, handing each
  region's record to them, shipping the region descriptor, collecting
  results, and converting a dropped connection or missed heartbeats into
  the same :class:`~repro.runtime.exceptions.WorkerProcessError`
  diagnostics the forked path produces.

Round-trip economics mirror the paper's worksharing split: static/cyclic
schedules are pure functions of the member id and cost **zero** messages;
dynamic/guided claims go through the batched ``_claim_batch`` /
``guided_claim_batch`` shapes (one RPC claims many chunks); taskloop
steals ride the same per-tile RPCs the shm deck uses per-lock-round-trip.
Eligibility matches the persistent pool's contract: only picklable
``process_safe`` SPMD bodies can cross the wire; everything else runs on
the thread fallback.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
import weakref
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.runtime import dataplane, faults, shm
from repro.runtime.barrier import _default_barrier_timeout
from repro.runtime.backend import (
    Backend,
    apply_member_payloads,
    collect_member_payloads,
    region_descriptor,
    run_shipped_member,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.team import Team


def _path_prelude() -> str:
    """Bootstrap fragment replaying this process's ``sys.path`` in a worker.

    Spawned workers initialise ``sys.path`` from the installation alone;
    entries added by the embedding application (``PYTHONPATH=src``, test
    harness insertions) must be replayed for ``repro`` to be importable.
    """
    paths = [p for p in sys.path if p]
    return (
        "import sys\n"
        f"for _p in reversed({paths!r}):\n"
        "    if _p not in sys.path:\n"
        "        sys.path.insert(0, _p)\n"
    )


def _bootstrap_source() -> str:
    """Self-contained ``python -c`` source of a warm worker (no per-region data)."""
    return _path_prelude() + "from repro.runtime import distributed as _dist\n_dist._worker_loop()\n"


# ---------------------------------------------------------------------------
# Worker side: runs in the spawned process.
# ---------------------------------------------------------------------------


def _worker_loop() -> None:
    """Serve regions until the master closes the control pipe or dies.

    Each region arrives as one rendezvous record on stdin (``host port token
    member``), so the per-region token never appears in this process's argv.
    A forked child of the master can hold the pipe's write end open past the
    master's death, so EOF alone is not enough: a watchdog also exits the
    worker once it has been reparented.
    """
    parent = os.getppid()

    def exit_when_orphaned() -> None:
        while os.getppid() == parent:
            time.sleep(0.2)
        os._exit(0)

    threading.Thread(target=exit_when_orphaned, name="aomp-dist-orphan-watch", daemon=True).start()
    for record in sys.stdin.buffer:
        host, port, token, member = record.decode("ascii").split()
        _worker_main(host, int(port), token, int(member))


def _worker_main(host: str, port: int, token: str, member: int) -> None:
    """Execute one team member in a spawned worker process.

    Connect and handshake (the hello response carries the region
    descriptor), run the member over proxy synchronisation, and ship the
    encoded result or exception back as the connection's final ``result``
    frame.
    """
    import repro.obs.registry as obsreg
    from repro.obs.exposition import suppress_exporter

    # Only the master aggregates team-wide counts; a worker must never race
    # it for the scrape port.
    suppress_exporter()
    session = dataplane.WorkerSession(host, port, token, member)
    try:
        descriptor = session.descriptor
        # The RPC hot path instruments iff the master does.
        session.metrics = descriptor["config"]["metrics"]
        sync = dataplane.worker_process_sync(session, descriptor["size"])
        result, exc = run_shipped_member(descriptor, member, sync)
        session.flush_arrays()
        # Final flush rides the result frame: counts accumulated since the
        # last barrier piggyback (including the barrier RPCs themselves).
        # Drained even when not shipped, so a warm worker carries no counts
        # into its next region.
        delta = obsreg.flush_delta()
        session.call("result", member, result, exc, delta if session.metrics else None)
    finally:
        session.close()


# ---------------------------------------------------------------------------
# Master side: the backend.
# ---------------------------------------------------------------------------


def _retire(procs: "Iterable[subprocess.Popen]", *, kill: bool) -> None:
    """Stop and reap workers: closing the control pipe ends an idle worker's
    loop; ``kill`` ends one that may be busy or wedged."""
    procs = list(procs)
    for proc in procs:
        if kill:
            proc.kill()
        proc.stdin.close()  # unbuffered: nothing left to flush into a dead pipe
    for proc in procs:
        try:
            proc.wait(timeout=5.0)
        except subprocess.TimeoutExpired:  # pragma: no cover - wedged worker
            proc.kill()
            proc.wait()


class DistributedBackend(Backend):
    """Run team members in independent socket-connected worker processes.

    Capability-wise a process backend without the fork dependency: no shared
    Python heap (regions needing one fall back to threads) and true
    parallelism (separate interpreters).  Workers are spawned once and kept
    warm: a region takes idle workers first and spawns only the shortfall,
    so after the first region entry costs one control-pipe write and one TCP
    handshake per worker instead of interpreter start + import.  Workers of a
    region that ended cleanly go back to the idle list (bounded by the
    largest team this instance has run); a region with any member exception,
    death, stall or abort kills and reaps its workers, and the next region
    spawns fresh ones.
    """

    name = "distributed"
    supports_shared_locals = False
    is_process_based = True
    #: priced at a full interpreter spawn + package import per worker, the
    #: cost of a cold region; warm regions are far cheaper.
    spinup_cost_scale = 8.0

    def __init__(self) -> None:
        self._plane = dataplane.SocketDataPlane()
        #: warm workers between regions; mutated in place so the finalizer
        #: below retires whatever it holds when the backend is collected.
        self._idle: "list[subprocess.Popen]" = []
        self._idle_lock = threading.Lock()
        self._largest = 0  # most workers one region (or prewarm) has needed
        weakref.finalize(self, _retire, self._idle, kill=False)

    @property
    def plane(self) -> dataplane.SocketDataPlane:
        """The socket data plane this backend constructs teams through."""
        return self._plane

    @property
    def true_parallel(self) -> bool:
        """Independent worker interpreters: genuinely parallel everywhere."""
        return True

    # -- strategy hooks -------------------------------------------------------

    def create_process_sync(self, size: int, body: "Callable[[], Any] | None") -> "shm.ProcessSync | None":
        if size <= 1:
            return None
        body_bytes = self._body_payload(body)
        if body_bytes is None:
            # run_team will see sync=None and delegate to the thread fallback.
            self._warn_once(
                "body",
                "region body is not a picklable process_safe SPMD callable; "
                "socket-plane workers cannot receive it — using thread backend",
            )
            return None
        sync = self._plane.create_sync(size)
        sync.body_bytes = body_bytes  # type: ignore[attr-defined]
        return sync

    def finish_region(self, team: "Team") -> None:
        sync = team.process_sync
        if sync is not None:
            self._plane.release_sync(sync)

    # -- execution ------------------------------------------------------------

    def run_team(self, team: "Team", run_member: Callable[[int], Any], body: "Callable[[], Any] | None" = None) -> Any:
        sync = team.process_sync
        if sync is None:
            return self.fallback.run_team(team, run_member, body)
        coordinator: dataplane.Coordinator = sync.coordinator  # type: ignore[attr-defined]
        coordinator.descriptor = region_descriptor(team, sync.body_bytes)  # type: ignore[attr-defined]

        members = [member.thread_id for member in team.members[1:]]
        workers = dict(zip(members, self._acquire(len(members))))
        record = f"{dataplane.LOOPBACK_HOST} {coordinator.port} {coordinator.token}"
        for member_id, proc in workers.items():
            try:
                proc.stdin.write(f"{record} {member_id}\n".encode("ascii"))  # < PIPE_BUF: atomic
            except OSError:
                pass  # died idle after the liveness check: the monitor reports it

        def dead_workers() -> list:
            # A warm worker never exits during a region, so any exit is a
            # death; so is a connection the coordinator saw drop before a
            # result frame (a worker wedged after losing its socket, which
            # poll() alone would miss).
            dead = [
                (member_id, proc.pid, proc.poll())
                for member_id, proc in workers.items()
                if proc.poll() is not None
            ]
            seen = {member_id for member_id, _pid, _code in dead}
            for member_id, pid in coordinator.lost_members():
                if member_id not in seen:
                    proc = workers.get(member_id)
                    dead.append((member_id, pid, proc.poll() if proc is not None else None))
            return dead

        monitor = faults.WorkerMonitor(team, dead_workers, heartbeat=coordinator.heartbeat)
        monitor.start()
        master_result: Any = None
        try:
            master_result = run_member(0)
        except BaseException:
            # Recorded on the member record; run_member already aborted the
            # coordinator barrier so workers fail fast.
            pass
        finally:
            # Track the *effective* barrier bound (AOMP_BARRIER_TIMEOUT), like
            # the workers' RPC timeout: a healthy worker legitimately blocked
            # in a long barrier must not be declared lost by a join deadline
            # shorter than the barrier's own.  With the bound disabled the
            # dead-worker and monitor-tripped checks still end the wait.
            barrier_bound = _default_barrier_timeout()
            payloads = collect_member_payloads(
                coordinator.results,
                expected=team.size - 1,
                alive=lambda: any(proc.poll() is None for proc in workers.values()),
                abort=team.abort,
                timeout=float("inf") if barrier_bound is None else barrier_bound + self.JOIN_GRACE,
                accept=lambda item: (item[0], item[1]),
                tripped=lambda: monitor.tripped,
            )
            monitor.stop()
            apply_member_payloads(
                team, payloads, deaths=monitor.deaths, stalled=monitor.stalled, heartbeat=coordinator.heartbeat
            )
            clean = not (monitor.deaths or monitor.stalled or team.broken) and all(
                member.exception is None for member in team.members
            )
            if clean:
                self._release(workers.values())
            else:
                # A failed region's workers may be wedged mid-body or hold
                # stale state: never reuse them.
                _retire(workers.values(), kill=True)
        return master_result

    # -- warm workers ---------------------------------------------------------

    def prewarm(self, workers: int) -> bool:
        """Spawn ``workers`` idle workers now so the first region finds them warm.

        The compute service's start-up hook (as for the process backend's
        pool).  Returns whether every worker is alive.
        """
        procs = self._acquire(max(0, workers))
        self._release(procs)
        return bool(procs) and all(proc.poll() is None for proc in procs)

    def shutdown(self) -> None:
        """Stop and reap the idle workers (busy ones retire with their region)."""
        with self._idle_lock:
            idle, self._idle[:] = self._idle[:], []
        _retire(idle, kill=False)

    def _acquire(self, count: int) -> "list[subprocess.Popen]":
        """Take ``count`` workers: idle warm ones first, spawning the shortfall."""
        warm: "list[subprocess.Popen]" = []
        dead: "list[subprocess.Popen]" = []
        with self._idle_lock:
            self._largest = max(self._largest, count)
            for proc in self._idle:
                (warm if proc.poll() is None else dead).append(proc)
            self._idle[:] = warm[count:]
        _retire(dead, kill=True)
        procs = warm[:count]
        try:
            while len(procs) < count:
                procs.append(
                    subprocess.Popen([sys.executable, "-c", _bootstrap_source()], stdin=subprocess.PIPE, bufsize=0)
                )
        except BaseException:
            # A failed spawn (fd exhaustion, fork failure) must not leak the
            # workers already taken.
            _retire(procs, kill=True)
            raise
        return procs

    def _release(self, procs: "Iterable[subprocess.Popen]") -> None:
        """Return healthy workers to the idle list, retiring any surplus."""
        with self._idle_lock:
            self._idle.extend(procs)
            surplus = self._idle[self._largest :]
            del self._idle[self._largest :]
        _retire(surplus, kill=False)
