"""Persistent worker-process pool for the process backend.

Forking per region is cheap on Linux but not free; regions whose bodies are
*picklable* SPMD callables (bound methods of kernels whose arrays live in
shared memory) can instead be dispatched to this pool of long-lived worker
processes.  The pool owns the cross-process synchronisation objects — one
reusable :class:`~repro.runtime.shm.SharedBarrier` and one
:class:`~repro.runtime.shm.SyncArena` — created *before* the workers fork so
every worker inherits them; they are reset between regions.

Only one region executes on the pool at a time (the backend serialises
access); arbitrary non-picklable region bodies always use the backend's
fork-per-region path instead.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Tuple

import repro.obs.registry as obsreg
from repro.runtime import shm
from repro.runtime.backend import run_shipped_member
from repro.runtime.config import get_config
from repro.runtime.dataplane import ShmDataPlane

#: sentinel telling workers to exit
_STOP = None


def _pool_worker(task_queue, result_queue, sync: "shm.ProcessSync") -> None:
    """Worker loop: run one shipped team member per task message."""
    from repro.obs.exposition import suppress_exporter

    # Pool workers never serve scrapes: only the master holds the team-wide
    # aggregated counts (and the inherited exporter state must stay dormant).
    suppress_exporter()
    while True:
        task = task_queue.get()
        if task is _STOP:
            break
        ticket, member, descriptor = task
        result, exc = run_shipped_member(descriptor, member, sync)
        # Pool members run the body directly (not run_member), so the
        # team-wide aggregation flush happens here, before the result frame
        # signals completion to the master.
        if descriptor["config"]["metrics"] and sync.metrics is not None:
            sync.metrics.flush_member(member, obsreg.flush_delta())
        # The task's segments were attached for its body alone; a worker that
        # kept them mapped would pin every unlinked region's pages.
        shm.detach_all()
        result_queue.put((ticket, member, result, exc))


class PersistentProcessPool:
    """A fixed-size pool of forked worker processes executing team members."""

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"pool needs at least 1 worker, got {workers}")
        # The pool's contract is fork inheritance: barrier, arenas and queues
        # below are created first and handed to the children by address-space
        # inheritance.  Fail loudly (BackendError) rather than let a spawn/
        # forkserver platform break the handoff silently — _mp_context() pins
        # the explicit "fork" context, never the ambient default.
        shm.require_fork("the persistent process pool")
        ctx = shm._mp_context()
        self.workers = workers
        # Constructed through the shm data plane (the barrier starts with one
        # party and is reset per region; the steal arena gets the full
        # 64-worker width because pool team sizes vary region to region).
        self._sync = ShmDataPlane().create_sync(1, pooled=True, max_workers=64)
        self.barrier = self._sync.barrier
        self.arena = self._sync.arena
        self.steal = self._sync.steal
        self.tune = self._sync.tune
        self.heartbeat = self._sync.heartbeat
        self.metrics = self._sync.metrics
        self._tasks = ctx.SimpleQueue()
        self._results = ctx.SimpleQueue()
        self._tickets = itertools.count(1)
        self._procs = [
            ctx.Process(
                target=_pool_worker,
                args=(self._tasks, self._results, self._sync),
                daemon=True,
                name=f"aomp-pool-{i}",
            )
            for i in range(workers)
        ]
        for proc in self._procs:
            proc.start()
        self._shutdown = False
        self._broken = False
        self._condemned = False

    @property
    def healthy(self) -> bool:
        """Whether the pool is usable: not shut down, not timed out, workers alive."""
        return (
            not self._shutdown
            and not self._broken
            and all(proc.is_alive() for proc in self._procs)
        )

    def prepare(self, team_size: int) -> None:
        """Reset the shared barrier/arenas for a region of ``team_size`` members."""
        self.barrier.reset(team_size)
        self.arena.reset()
        self.steal.reset()
        self.tune.reset()
        self.heartbeat.reset()
        if self._sync.metrics is not None:
            # Orphaned counts from an aborted region's dead workers must not
            # leak into the next region's drain.
            self._sync.metrics.reset()

    def submit_region(self, team, descriptor: dict) -> int:
        """Dispatch one task per non-master member; returns the region ticket."""
        ticket = next(self._tickets)
        for member in team.members[1:]:
            self._tasks.put((ticket, member.thread_id, descriptor))
        return ticket

    def dead_workers(self) -> "list[tuple[int | None, int | None, int | None]]":
        """``(member, pid, exitcode)`` per exited worker (member via heartbeat).

        Unlike the fork path, a pool worker has no fixed member identity —
        the heartbeat arena's pid cells, written at region entry, provide
        the mapping; a worker that died before claiming a member maps to
        ``None`` (the monitor still aborts the team).
        """
        dead = []
        for proc in self._procs:
            if proc.exitcode is not None:
                dead.append((self.heartbeat.member_for_pid(proc.pid), proc.pid, proc.exitcode))
        return dead

    def condemn(self) -> None:
        """Mark the pool unhealable (a live worker is wedged in a dead region).

        :meth:`heal` can only replace *exited* workers; a member that stopped
        heartbeating but never died would survive a heal still stuck in the
        old region's body, then collide with the next region's reset barrier.
        Condemning forces the backend down the shutdown-and-rebuild path.
        """
        self._broken = True
        self._condemned = True

    def heal(self) -> bool:
        """Rebuild the pool's workers in place; ``False`` if it cannot be saved.

        A worker killed *while holding* one of the shared synchronisation
        locks (an arena lock, the barrier's condition) leaves it locked
        forever; each is probed with a short timeout and any poisoned lock
        vetoes healing — those are the warm, preallocated primitives whose
        reuse the pool exists for.  The task/result queues cannot be probed
        the same way: an idle worker blocks inside ``SimpleQueue.get()``
        *holding* the queue's reader lock by design, so a worker SIGKILLed
        while idle may have poisoned it undetectably.  They are therefore
        replaced wholesale, every worker (dead or alive) is reaped, and a
        fresh generation is forked against the new queues — forks are cheap,
        and a survivor still wedged in the old region's body must not meet
        the next region's reset barrier anyway.
        """
        if self._shutdown or self._condemned:
            return False
        if not self._probe_locks():
            return False
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - unkillable worker
                proc.kill()
                proc.join(timeout=1.0)
        ctx = shm._mp_context()
        self._tasks = ctx.SimpleQueue()
        self._results = ctx.SimpleQueue()
        self._procs = [
            ctx.Process(
                target=_pool_worker,
                args=(self._tasks, self._results, self._sync),
                daemon=True,
                name=f"aomp-pool-{i}",
            )
            for i in range(self.workers)
        ]
        for proc in self._procs:
            proc.start()
        self._broken = False
        if get_config().metrics:
            obsreg.inc(obsreg.POOL_HEALS)
        return self.healthy

    def _probe_locks(self, timeout: float = 0.5) -> bool:
        locks = (
            getattr(self.barrier, "_cond", None),
            getattr(self.arena, "_lock", None),
            getattr(self.steal, "_lock", None),
            getattr(self.tune, "_lock", None),
        )
        for lock in locks:
            acquire = getattr(lock, "acquire", None)
            if acquire is None:
                continue
            try:
                acquired = acquire(timeout=timeout)
            except TypeError:  # pragma: no cover - lock without timeout support
                continue
            if not acquired:
                return False
            lock.release()
        return True

    def collect(
        self,
        ticket: int,
        *,
        expected: int,
        abort: Callable[[], None],
        timeout: float,
        tripped: "Callable[[], bool] | None" = None,
    ) -> Dict[int, Tuple[Any, Any]]:
        """Gather ``expected`` member payloads for ``ticket``.

        Stale payloads from earlier (aborted) regions are discarded.  If
        workers die or the deadline passes, the remaining members are left
        unreported (the backend converts them into ``WorkerProcessError``)
        and the pool poisons itself — a worker still stuck in the old
        region's body would otherwise hit the *next* region's reset
        barrier/arena — so the backend replaces it.
        """
        from repro.runtime.backend import collect_member_payloads

        def give_up() -> None:
            self._broken = True

        return collect_member_payloads(
            self._results,
            expected=expected,
            alive=lambda: self.healthy,
            abort=abort,
            timeout=timeout,
            accept=lambda item: (item[1], (item[2], item[3])) if item[0] == ticket else None,
            on_give_up=give_up,
            tripped=tripped,
        )

    def shutdown(self) -> None:
        """Stop all workers and release the queues."""
        if self._shutdown:
            return
        self._shutdown = True
        for _ in self._procs:
            try:
                self._tasks.put(_STOP)
            except Exception:  # pragma: no cover - queue already closed
                break
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
