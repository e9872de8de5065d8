"""Execution backends for parallel regions.

The backend is a strategy object deciding *how* team members execute:

* :class:`ThreadBackend` — spawns real OS threads (``threading.Thread``), one
  per team member beyond the master.  Correct concurrent semantics; actual
  wall-clock speedup is limited by the CPython GIL for pure-Python work, which
  is why :mod:`repro.perf` exists (see README.md).
* :class:`SerialBackend` — forces a team of one and runs the body inline.
  Useful for debugging and as the embodiment of the paper's *sequential
  semantics* claim: a program composed with aspects still runs correctly
  with parallelism disabled.
* :class:`ProcessBackend` — runs team members in worker *processes*, escaping
  the GIL for genuine multi-core speedups.  Shared state must live in
  :mod:`repro.runtime.shm` shared-memory arrays; constructs that require a
  shared Python heap (single/master broadcast, ordered, critical sections,
  thread-local reductions) transparently fall back to the thread backend via
  the :attr:`Backend.supports_shared_locals` capability flag, which the
  weaver and the worksharing layer consult.
* :class:`~repro.runtime.distributed.DistributedBackend` (registered as
  ``distributed``) — runs team members in spawned worker processes over the
  socket data plane; no fork needed.

The two isolated-heap backends share one fallback policy
(:meth:`Backend.resolve_for_region`) and ship picklable region bodies to
their workers as one region descriptor (:func:`region_descriptor`), which
every worker runs through one member entry (:func:`run_shipped_member`).

Capability flags describe what each backend can honour; the
:attr:`Backend.true_parallel` flag additionally reports whether members can
execute Python bytecode *simultaneously* — which for the thread backend is a
property of the build (free-threaded CPython, PEP 703), detected live via
:func:`gil_enabled`, not a constant.

Backends are selected (in increasing precedence): the ``AOMP_BACKEND``
environment variable / :class:`repro.runtime.config.RuntimeConfig` field, a
global :func:`set_backend` override, and the per-region ``backend=`` argument
of :func:`repro.runtime.team.parallel_region` (a backend instance or name).
"""

from __future__ import annotations

import functools
import os
import pickle
import signal
import sys
import sysconfig
import threading
import time
import warnings
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional

from repro.runtime import faults, shm
from repro.runtime.dataplane import ShmDataPlane
from repro.runtime.exceptions import WorkerProcessError

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.team import Team


def free_threaded_build() -> bool:
    """Whether this CPython was built with ``Py_GIL_DISABLED`` (PEP 703)."""
    return bool(sysconfig.get_config_var("Py_GIL_DISABLED"))


def gil_enabled() -> bool:
    """Whether the GIL is actually active in this process.

    On free-threaded builds the GIL can still be re-enabled at runtime
    (``PYTHON_GIL=1``, or an incompatible extension forcing it back on), so
    the live :func:`sys._is_gil_enabled` answer is authoritative where it
    exists; regular builds lack the probe and always hold the GIL.
    """
    probe = getattr(sys, "_is_gil_enabled", None)
    if probe is not None:
        return bool(probe())
    return True


class Backend:
    """Interface for parallel-region execution backends.

    The fallback policy of the isolated-heap backends (processes,
    distributed) lives here once: teams of one stay put, nested regions
    become thread sub-teams inside the worker that spawned them, and regions
    the backend cannot honour run on :attr:`fallback` with a one-time
    warning naming the backend class.
    """

    name = "abstract"

    #: Whether team members share one Python heap: mutations of ordinary
    #: Python objects made by one member are visible to the others.  Process
    #: and distributed backends set this to ``False``; constructs that need
    #: shared locals (single/master broadcast, ordered, critical sections,
    #: reductions) are routed to the :attr:`fallback` backend when it is
    #: unset.
    supports_shared_locals = True

    #: Whether members can block in multi-party barriers (False only for the
    #: serial backend, which runs members one after another).
    supports_blocking_sync = True

    #: Whether members execute in separate OS processes.
    is_process_based = False

    #: Rough cost of spinning up this backend's team relative to spawning
    #: threads (1.0).  The adaptive tuner multiplies its serial-fallback
    #: cutoff by this, so an expensive-to-start backend serialises small
    #: loops sooner and a thread team is not charged a fork's price.
    spinup_cost_scale = 1.0

    #: Seconds granted to workers beyond the barrier timeout before the
    #: master declares them lost.
    JOIN_GRACE = 30.0

    @property
    def true_parallel(self) -> bool:
        """Whether team members can execute Python bytecode simultaneously.

        ``False`` for GIL-bound threads (pure-Python bodies serialise even on
        many cores); ``True`` for process teams and threads on a live
        free-threaded build.  Consumers — the tuner's arbitration, the
        benchmark report — must ask the *backend*, not assume thread ⇒
        GIL-bound.
        """
        return False

    @functools.cached_property
    def fallback(self) -> "Backend | None":
        """The thread backend running regions this backend cannot honour
        (``None`` for backends whose members share one heap)."""
        if self.supports_shared_locals:
            return None
        return ThreadBackend(name_prefix=f"aomp-{self.name}-fallback")

    def run_team(self, team: "Team", run_member: Callable[[int], Any], body: Callable[[], Any] | None = None) -> Any:
        """Execute ``run_member(thread_id)`` for every member of ``team``.

        Must return the master's (thread id 0) return value.  Exceptions
        raised by members must *not* propagate from this method: they are
        recorded on the corresponding :class:`~repro.runtime.team.TeamMember`
        by the region driver, which converts them into a
        :class:`~repro.runtime.exceptions.BrokenTeamError` after all members
        have finished.  ``body`` is the raw region body (before the context
        bookkeeping that ``run_member`` adds); process backends use it to
        decide whether the region can be shipped to a persistent worker pool.
        """
        raise NotImplementedError

    def unavailable_reason(self) -> "str | None":
        """Why this backend cannot run multi-member teams here, or ``None``."""
        return None

    def resolve_for_region(self, *, size: int, nesting_level: int, requires_shared_locals: bool) -> "Backend":
        """Return the backend that will actually execute the region."""
        if size <= 1 or self.supports_shared_locals:
            return self
        reason = self.unavailable_reason()
        if reason is not None:
            self._warn_once("platform", f"{reason}; using thread backend")
            return self.fallback
        if nesting_level > 0:
            # Designed hierarchy, not a degradation: the isolated team forms
            # the outer level and nested regions spawned inside its workers
            # run as thread sub-teams within each worker (new workers could
            # not share the enclosing team's heap or its synchronisation).
            return self.fallback
        if requires_shared_locals:
            self._warn_once(
                "shared-locals",
                "region needs a shared Python heap (constructs like single/master "
                "broadcast, ordered, critical or reductions — or a woven target whose "
                "mutable state is not shared-memory backed / marked process_safe); "
                "using thread backend",
            )
            return self.fallback
        return self

    def _body_payload(self, body: Callable[[], Any] | None) -> bytes | None:
        """Pickle ``body`` for a worker outside this heap, or ``None`` when ineligible.

        Shipping a body copies its by-value state into the worker, where
        mutations would be lost; only bound methods whose owner declares
        itself ``process_safe`` (all mutable state in shared memory) are
        eligible.
        """
        owner = getattr(body, "__self__", None)
        if owner is None or not getattr(owner, "process_safe", False):
            return None
        try:
            return pickle.dumps(body)
        except Exception:
            return None

    def _warn_once(self, key: str, message: str) -> None:
        warned = self.__dict__.setdefault("_warned_fallback", set())
        if key not in warned:
            warned.add(key)
            warnings.warn(f"{type(self).__name__}: {message}", RuntimeWarning, stacklevel=3)

    def create_process_sync(self, size: int, body: Callable[[], Any] | None) -> "shm.ProcessSync | None":
        """Create cross-process team synchronisation, or ``None`` for in-process backends."""
        return None

    def finish_region(self, team: "Team") -> None:
        """Hook called after a region completes (releases pooled resources)."""


class ThreadBackend(Backend):
    """Run each non-master member on its own OS thread; the master runs inline.

    This mirrors the paper's Figure 9: spawn ``numberOfThreads - 1`` threads,
    have the master execute the body itself, then join all spawned threads.
    """

    name = "threads"

    def __init__(self, daemon: bool = True, name_prefix: str = "aomp-worker") -> None:
        self.daemon = daemon
        self.name_prefix = name_prefix

    @property
    def true_parallel(self) -> bool:
        """Threads run Python in parallel exactly when the GIL is off (PEP 703
        free-threaded builds); on regular builds pure-Python bodies serialise."""
        return not gil_enabled()

    def run_team(self, team: "Team", run_member: Callable[[int], Any], body: Callable[[], Any] | None = None) -> Any:
        def worker(thread_id: int) -> None:
            try:
                run_member(thread_id)
            except BaseException:
                # The exception is recorded on the member by the region
                # driver; swallowing it here keeps the thread from printing
                # an unraisable-traceback message.
                pass

        threads: list[threading.Thread] = []
        for member in team.members[1:]:
            thread = threading.Thread(
                target=worker,
                args=(member.thread_id,),
                name=f"{self.name_prefix}-{team.name}-{member.thread_id}",
                daemon=self.daemon,
            )
            member.thread = thread
            threads.append(thread)
        for thread in threads:
            thread.start()

        master_result: Any = None
        try:
            master_result = run_member(0)
        except BaseException:
            # Recorded on the member; do not propagate until workers joined.
            pass
        finally:
            for thread in threads:
                thread.join()
        return master_result


class SerialBackend(Backend):
    """Run every member sequentially on the calling thread.

    With a team of size 1 this is exactly sequential execution.  With a larger
    team it runs members one after another, which only works for regions
    without cross-member blocking synchronisation (no multi-party barriers);
    the region driver therefore clamps the team size to 1 when this backend is
    selected globally, unless ``allow_multi`` is set (used by tests that check
    the clamping behaviour itself).
    """

    name = "serial"
    supports_blocking_sync = False

    def __init__(self, allow_multi: bool = False) -> None:
        self.allow_multi = allow_multi

    def run_team(self, team: "Team", run_member: Callable[[int], Any], body: Callable[[], Any] | None = None) -> Any:
        member_ids = range(team.size) if self.allow_multi else range(min(1, team.size))
        master_result: Any = None
        for thread_id in member_ids:
            try:
                result = run_member(thread_id)
            except BaseException:
                continue
            if thread_id == 0:
                master_result = result
        return master_result


class ProcessBackend(Backend):
    """Run team members in worker *processes* for true multi-core execution.

    Two execution paths, chosen per region:

    * **Persistent pool** — when the region body is a picklable SPMD callable
      whose owner opts in (``process_safe`` attribute, set by the JGF kernels
      when their arrays live in shared memory), the members are dispatched to
      a pool of long-lived worker processes.  The pool's barrier and claim
      arena are reused across regions, so steady-state region startup costs
      one task message per member instead of a fork.
    * **Fork-per-region** — arbitrary region bodies (closures over local
      state, woven classes) cannot be pickled; they are shipped to workers by
      address-space inheritance instead: ``size - 1`` processes are forked at
      region entry and exit at region end.  Requires the ``fork`` start
      method (anything POSIX).

    In both paths the master executes inline in the parent, worksharing
    chunks mutate :class:`~repro.runtime.shm.SharedArray` data in place, team
    barriers are :class:`~repro.runtime.shm.SharedBarrier` instances, and
    dynamic/guided loop claims go through a pre-allocated
    :class:`~repro.runtime.shm.SyncArena`.  Member results and exceptions are
    shipped back over a result channel, so ``BrokenTeamError`` semantics are
    identical to the thread backend.

    Regions the backend cannot honour — regions whose aspects require a
    shared Python heap (``supports_shared_locals``) — run on the ``fallback``
    thread backend instead.  Nested regions spawned inside a process team's
    workers also resolve to the thread fallback: the process team forms the
    outer level of the hierarchy and each worker hosts thread sub-teams
    (see ``resolve_for_region``).
    """

    name = "processes"
    supports_shared_locals = False
    is_process_based = True
    #: fork + channel setup per region (amortised by the persistent pool, but
    #: the first region and non-picklable bodies pay full price).
    spinup_cost_scale = 4.0

    @property
    def true_parallel(self) -> bool:
        """Each worker process has its own interpreter and GIL — genuinely
        parallel wherever the backend can run at all (fork available)."""
        return shm.fork_available()

    def __init__(self) -> None:
        self._plane = ShmDataPlane()
        self._pool = None
        self._pool_lock = threading.Lock()

    # -- strategy hooks -------------------------------------------------------

    def unavailable_reason(self) -> "str | None":
        return None if shm.fork_available() else "fork start method unavailable"

    def create_process_sync(self, size: int, body: Callable[[], Any] | None) -> "shm.ProcessSync | None":
        if size <= 1 or not shm.fork_available():
            return None
        body_bytes = self._body_payload(body)
        if body_bytes is not None and self._pool_lock.acquire(blocking=False):
            pool = self._ensure_pool(size - 1)
            if pool is not None:
                pool.prepare(size)
                sync = shm.ProcessSync(
                    pool.barrier,
                    pool.arena,
                    pooled=True,
                    steal=pool.steal,
                    tune=pool.tune,
                    heartbeat=pool.heartbeat,
                    metrics=pool.metrics,
                )
                sync.body_bytes = body_bytes  # type: ignore[attr-defined]
                return sync
            self._pool_lock.release()
        return self._plane.create_sync(size)

    def finish_region(self, team: "Team") -> None:
        sync = team.process_sync
        if sync is not None and sync.pooled and not getattr(sync, "released", False):
            sync.released = True  # type: ignore[attr-defined]
            self._pool_lock.release()

    # -- execution ------------------------------------------------------------

    def run_team(self, team: "Team", run_member: Callable[[int], Any], body: Callable[[], Any] | None = None) -> Any:
        sync = team.process_sync
        if sync is None:
            return self.fallback.run_team(team, run_member, body)
        if sync.pooled:
            return self._run_pooled(team, run_member, sync)
        return self._run_forked(team, run_member)

    def _run_forked(self, team: "Team", run_member: Callable[[int], Any]) -> Any:
        ctx = shm._mp_context()
        channel = ctx.SimpleQueue()

        def child(thread_id: int) -> None:
            try:
                result = run_member(thread_id)
            except BaseException as exc:
                channel.put((thread_id, None, _encode_exception(exc)))
            else:
                channel.put((thread_id, _encode_result(result), None))

        workers = [
            ctx.Process(target=child, args=(member.thread_id,), daemon=True, name=f"aomp-proc-{member.thread_id}")
            for member in team.members[1:]
        ]
        for worker in workers:
            worker.start()

        def dead_workers() -> list:
            # Fork path: worker i *is* member i+1, and a worker that finished
            # cleanly exits 0 — only abnormal exits are deaths.
            return [
                (member.thread_id, worker.pid, worker.exitcode)
                for member, worker in zip(team.members[1:], workers)
                if worker.exitcode not in (None, 0)
            ]

        monitor = faults.WorkerMonitor(team, dead_workers, heartbeat=team.process_sync.heartbeat)
        monitor.start()
        master_result: Any = None
        try:
            master_result = run_member(0)
        except BaseException:
            # Recorded on the member record; run_member already aborted the
            # (cross-process) barrier so workers fail fast.
            pass
        finally:
            payloads = collect_member_payloads(
                channel,
                expected=team.size - 1,
                alive=lambda: any(worker.is_alive() for worker in workers),
                abort=team.abort,
                timeout=shm.BARRIER_TIMEOUT + self.JOIN_GRACE,
                accept=lambda item: (item[0], (item[1], item[2])),
                tripped=lambda: monitor.tripped,
            )
            monitor.stop()
            apply_member_payloads(team, payloads, deaths=monitor.deaths, stalled=monitor.stalled)
            # A failed region may leave a wedged worker behind (e.g. a member
            # stalled in a long sleep): don't wait out its sleep, reap it.
            failed = any(member.exception is not None for member in team.members)
            for worker in workers:
                worker.join(timeout=0.5 if failed else 5.0)
                if worker.is_alive():
                    worker.terminate()
                    worker.join(timeout=1.0)
        return master_result

    def _run_pooled(self, team: "Team", run_member: Callable[[int], Any], sync: "shm.ProcessSync") -> Any:
        pool = self._pool
        assert pool is not None
        ticket = pool.submit_region(team, region_descriptor(team, sync.body_bytes))  # type: ignore[attr-defined]
        monitor = faults.WorkerMonitor(team, pool.dead_workers, heartbeat=pool.heartbeat)
        monitor.start()
        master_result: Any = None
        try:
            master_result = run_member(0)
        except BaseException:
            pass
        finally:
            payloads = pool.collect(
                ticket,
                expected=team.size - 1,
                abort=team.abort,
                timeout=shm.BARRIER_TIMEOUT + self.JOIN_GRACE,
                tripped=lambda: monitor.tripped,
            )
            monitor.stop()
            if monitor.stalled:
                pool.condemn()
            apply_member_payloads(team, payloads, deaths=monitor.deaths, stalled=monitor.stalled)
        return master_result

    # -- pool lifecycle -------------------------------------------------------

    def _ensure_pool(self, needed_workers: int):
        from repro.runtime.procpool import PersistentProcessPool

        pool = self._pool
        if pool is not None and pool.workers < needed_workers:
            pool.shutdown()
            pool = self._pool = None
        elif pool is not None and not pool.healthy:
            # Self-healing first: respawn dead workers in place, keeping the
            # warm shared primitives — unless a casualty poisoned them (died
            # holding an arena lock), in which case rebuild from scratch.
            if not pool.heal():
                pool.shutdown()
                pool = self._pool = None
        if pool is None:
            try:
                pool = PersistentProcessPool(max(needed_workers, (os.cpu_count() or 2) - 1))
            except Exception:  # pragma: no cover - pool creation failure
                return None
            self._pool = pool
        return pool

    def prewarm(self, workers: int) -> bool:
        """Spawn the persistent pool now so the first region finds it hot.

        The compute service calls this at startup for each dispatch worker's
        private backend instance: pool construction *is* the warm-up (workers
        fork eagerly), so a prewarmed backend serves its first request
        without paying the spawn cost.  Returns whether a healthy pool is up
        (``False`` when construction failed — regions then fall back to
        fork-per-region exactly as before).
        """
        if workers < 1:
            return False
        with self._pool_lock:
            pool = self._ensure_pool(workers)
            return pool is not None and pool.healthy

    def condemn_pool(self) -> bool:
        """Condemn the live pool so an in-flight pooled region fails fast.

        External cancellation hook (fault-recovery machinery): marking the pool
        condemned makes ``collect()`` stop waiting on its workers, the region
        surfaces a :class:`BrokenTeamError`, and the *next* region rebuilds a
        fresh pool via ``_ensure_pool`` — the wedged team is torn down, not
        leaked.  Returns whether there was a pool to condemn.
        """
        pool = self._pool  # snapshot, not lock: the region in flight holds _pool_lock
        if pool is None:
            return False
        pool.condemn()
        return True

    def shutdown(self) -> None:
        """Stop the persistent worker pool (used by tests and at interpreter exit)."""
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown()
                self._pool = None


def apply_member_payloads(
    team: "Team",
    payloads: dict,
    *,
    deaths: "list | None" = None,
    stalled: "list | None" = None,
    heartbeat=None,
) -> None:
    """Record collected member payloads (results/exceptions) on the team.

    A member without a payload is diagnosed as a silent death or — when the
    worker monitor flagged it — a heartbeat stall, and receives a
    :class:`WorkerProcessError`.  Shared by every process-based backend
    (forked, pooled, and socket-distributed); ``heartbeat`` overrides the
    team sync's arena for backends whose authoritative liveness cells live
    elsewhere (the distributed coordinator).
    """
    death_info = {m: (pid, code) for m, pid, code in (deaths or ()) if m is not None}
    if heartbeat is None:
        sync = team.process_sync
        heartbeat = sync.heartbeat if sync is not None else None
    for member in team.members[1:]:
        payload = payloads.get(member.thread_id)
        if payload is None:
            pid, exitcode = death_info.get(member.thread_id, (None, None))
            if pid is None and heartbeat is not None:
                pid = heartbeat.pid(member.thread_id) or None
            if stalled and member.thread_id in stalled:
                message = (
                    f"worker process (pid {pid}) for member {member.thread_id} of team "
                    f"{team.name!r} (level {team.nesting_level}) stopped heartbeating "
                    "past AOMP_HEARTBEAT_TIMEOUT and was abandoned"
                )
            else:
                message = _worker_death_message(team, member.thread_id, pid, exitcode)
            member.exception = WorkerProcessError(
                message,
                member=member.thread_id,
                pid=pid,
                exitcode=exitcode,
            )
            continue
        result, exc = payload
        if exc is not None:
            member.exception = _decode_exception(exc)
        else:
            member.result = _decode_result(result)


def _worker_death_message(team: "Team", member: int, pid: "int | None", exitcode: "int | None") -> str:
    """Diagnose a worker that died before reporting: who, where, and how."""
    where = f"member {member} of team {team.name!r} (level {team.nesting_level})"
    who = f"worker process (pid {pid})" if pid else "worker process"
    if exitcode is not None and exitcode < 0:
        number = -exitcode
        try:
            signame = signal.Signals(number).name
        except ValueError:  # pragma: no cover - unknown signal number
            signame = f"signal {number}"
        return f"{who} for {where} was killed by {signame} (signal {number}) before reporting"
    if exitcode is not None:
        return f"{who} for {where} exited with code {exitcode} before reporting"
    return f"{who} for {where} died without reporting"


# ---------------------------------------------------------------------------
# Shared member-payload collection (fork path and persistent pool).
# ---------------------------------------------------------------------------


def collect_member_payloads(
    channel,
    *,
    expected: int,
    alive: Callable[[], bool],
    abort: Callable[[], None],
    timeout: float,
    accept: Callable[[tuple], "tuple[int, tuple] | None"],
    on_give_up: Callable[[], None] | None = None,
    give_up_grace: float = 2.0,
    tripped: Callable[[], bool] | None = None,
) -> dict:
    """Drain ``expected`` member payloads from a result channel.

    ``accept`` maps a raw queue item to ``(thread_id, payload)`` or ``None``
    to discard it (the pool uses this to filter stale region tickets).  When
    the workers die, ``timeout`` passes, or ``tripped`` reports that the
    worker monitor already aborted the team (a *stalled* member stays alive
    but will never report, so waiting out the deadline would reintroduce the
    very hang the monitor exists to prevent), ``on_give_up`` fires (the pool
    poisons itself) and the team is aborted to release any members still
    blocked in a barrier.  Survivors of a sibling's death then need a moment
    to error out of the broken barrier and report: the give-up path keeps
    draining for up to ``give_up_grace`` seconds — exiting early once the
    channel has been idle for half a second — so late reporters are not
    misclassified as having died silently, while a genuinely dead member
    costs well under the barrier timeout (the monitor's abort makes the
    whole detection path land in fractions of a second).
    """
    payloads: dict[int, tuple] = {}

    def drain() -> bool:
        got_any = False
        while not channel.empty():
            accepted = accept(channel.get())
            got_any = True
            if accepted is not None:
                payloads[accepted[0]] = accepted[1]
        return got_any

    deadline = time.monotonic() + timeout
    while len(payloads) < expected:
        drained = drain()
        if len(payloads) >= expected:
            break
        if not alive() or (tripped is not None and tripped()) or time.monotonic() > deadline:
            if on_give_up is not None:
                on_give_up()
            abort()
            grace_deadline = time.monotonic() + give_up_grace
            last_progress = time.monotonic()
            while len(payloads) < expected and time.monotonic() < grace_deadline:
                if drain():
                    last_progress = time.monotonic()
                elif time.monotonic() - last_progress > 0.5:
                    break
                else:
                    time.sleep(0.01)
            break
        if not drained:
            time.sleep(0.001)
    return payloads


# ---------------------------------------------------------------------------
# Payload encoding: results/exceptions must cross a process boundary.  The
# object graph is pickled exactly once, in the worker; the channel then only
# ships the resulting bytes (re-pickling bytes is a cheap copy).
# ---------------------------------------------------------------------------


def _encode_result(result: Any) -> bytes | None:
    try:
        return pickle.dumps(result)
    except Exception:
        return None  # non-picklable member results are dropped (master's is inline)


def _decode_result(payload: bytes | None) -> Any:
    if payload is None:
        return None
    return pickle.loads(payload)


def _encode_exception(exc: BaseException) -> "bytes | str":
    try:
        return pickle.dumps(exc)
    except Exception:
        return f"{type(exc).__name__}: {exc}"


def _decode_exception(payload: "bytes | str") -> BaseException:
    if isinstance(payload, bytes):
        try:
            return pickle.loads(payload)
        except Exception:  # pragma: no cover - unpicklable in the parent
            return WorkerProcessError("worker exception could not be reconstructed")
    return WorkerProcessError(str(payload))


# ---------------------------------------------------------------------------
# Shipped-body members: the persistent pool's forked workers and the socket
# plane's spawned workers receive a region as one descriptor dict, built by
# region_descriptor() on the master, and run it through run_shipped_member().
# Each caller keeps only its transport: how the descriptor arrives, and how
# the encoded (result, exception) pair goes back.
# ---------------------------------------------------------------------------


def _spmd_config_fields() -> dict:
    """The master's configuration fields workers must mirror for SPMD agreement."""
    from repro.runtime.config import get_config

    config = get_config()
    return {
        "num_threads": config.num_threads,
        "default_schedule": config.default_schedule,
        "default_chunk": config.default_chunk,
        "nested": config.nested,
        "max_active_levels": config.max_active_levels,
        # Workers must instrument iff the master does, and bucket layout must
        # match the master's so flushed slot deltas mean the same thing.
        "metrics": config.metrics,
        "metrics_buckets": config.metrics_buckets,
    }


def _fault_fields() -> "tuple[str, int] | None":
    """The master's installed fault plan as ``(spec, origin_pid)``, or ``None``."""
    plan = faults.current_plan()
    if plan is None:
        return None
    spec = ";".join(repr(rule) for rule in plan.rules)
    if plan.seed is not None:
        spec = f"{spec};seed:{plan.seed}" if spec else f"seed:{plan.seed}"
    return spec, plan.origin_pid


def region_descriptor(team: "Team", body_bytes: bytes) -> dict:
    """Everything a worker outside the master's heap needs to run a member of ``team``.

    The live SPMD configuration and fault plan travel with every region, so
    a long-lived worker never acts on the settings it was started under.
    """
    return {
        "size": team.size,
        "region_id": team.region_id,
        "name": team.name,
        "nesting_level": team.nesting_level,
        "fault_region": team.fault_region,
        "backend": team.backend_name,
        "body": body_bytes,
        "config": _spmd_config_fields(),
        "faults": _fault_fields(),
    }


def _install_fault_plan(shipped: "tuple[str, int] | None") -> None:
    """Arm this worker with the master's fault plan (or disarm explicitly).

    The plan is shipped as its round-trippable rule spec plus the *master's*
    pid as ``origin_pid`` — freshly parsing here would stamp the worker's own
    pid and silently downgrade every ``kill`` to an in-process exception.
    Shipping ``None`` still disarms explicitly, so a worker never acts on a
    plan it inherited or resolved from ``AOMP_FAULTS`` on its own.
    """
    if shipped is None:
        faults.set_fault_plan(None)
        return
    spec, origin_pid = shipped
    plan = faults.parse_fault_spec(spec)
    plan.origin_pid = origin_pid
    faults.set_fault_plan(plan)


def run_shipped_member(descriptor: dict, member: int, sync: "shm.ProcessSync") -> "tuple[bytes | None, Any]":
    """Run member ``member`` of the region ``descriptor`` describes, in this worker.

    Rebuilds the team over ``sync`` under the master's SPMD configuration
    (nested regions run as untraced thread sub-teams), claims the member's
    heartbeat cell, fires the member fault site and runs the unpickled body.
    A failing member aborts the team barrier so its siblings fail fast.
    Returns the encoded ``(result, exception)`` pair for the caller to ship.
    """
    from repro.runtime import context as ctx
    from repro.runtime.config import config_override
    from repro.runtime.team import Team

    _install_fault_plan(descriptor["faults"])
    try:
        body = pickle.loads(descriptor["body"])
        with config_override(tracing=False, backend="threads", **descriptor["config"]):
            team = Team(
                descriptor["size"],
                region_id=descriptor["region_id"],
                name=descriptor["name"],
                nesting_level=descriptor["nesting_level"],
                process_sync=sync,
            )
            team.fault_region = descriptor["fault_region"]
            team.backend_name = descriptor["backend"]
            if sync.heartbeat is not None:
                # Workers take members per region: the heartbeat cell is how
                # the master maps this process back to the member it ran.
                sync.heartbeat.register(member)
            ctx.push_context(ctx.ExecutionContext(team=team, thread_id=member, nesting_level=team.nesting_level))
            try:
                if faults.active():
                    # Worker pid != the plan's origin pid, so an injected
                    # "kill" is a real SIGKILL of this worker.
                    faults.fire("member", member=member, region=team.fault_region, backend=team.backend_name, team=team)
                result = body()
            finally:
                ctx.pop_context()
    except BaseException as exc:  # noqa: BLE001 - shipped to the master
        try:
            sync.barrier.abort()
        except Exception:
            pass  # a socket member whose connection is gone: the loss path reports it
        return None, _encode_exception(exc)
    return _encode_result(result), None


# ---------------------------------------------------------------------------
# Backend registry and selection
# ---------------------------------------------------------------------------

_backend_lock = threading.Lock()
_backend: Optional[Backend] = None  # explicit global override (set_backend)

_BACKEND_FACTORIES: Dict[str, Callable[[], Backend]] = {}
_BACKEND_ALIASES = {
    "serial": "serial",
    "sequential": "serial",
    "thread": "threads",
    "threads": "threads",
    "threading": "threads",
    "process": "processes",
    "processes": "processes",
    "proc": "processes",
    "multiprocessing": "processes",
}
_named_instances: Dict[str, Backend] = {}


def register_backend(name: str, factory: Callable[[], Backend], *, aliases: tuple = ()) -> None:
    """Register a backend factory under ``name`` (plus optional aliases)."""
    _BACKEND_FACTORIES[name] = factory
    _BACKEND_ALIASES[name] = name
    for alias in aliases:
        _BACKEND_ALIASES[alias] = name
    _named_instances.pop(name, None)


def _distributed_backend() -> Backend:
    # Imported lazily: distributed.py imports this module for the Backend
    # base class, so a module-level import would be circular.
    from repro.runtime.distributed import DistributedBackend

    return DistributedBackend()


register_backend("serial", SerialBackend)
register_backend("threads", ThreadBackend)
register_backend("processes", ProcessBackend)
register_backend("distributed", _distributed_backend, aliases=("dist", "sockets", "socket"))


def available_backends() -> list[str]:
    """Canonical names of the registered backends."""
    return sorted(_BACKEND_FACTORIES)


def backend_by_name(name: str) -> Backend:
    """Return the (cached) backend instance registered under ``name``."""
    try:
        canonical = _BACKEND_ALIASES[name.strip().lower()]
    except (KeyError, AttributeError):
        raise ValueError(
            f"unknown backend {name!r}; valid backends: {', '.join(available_backends())}"
        ) from None
    with _backend_lock:
        if canonical not in _named_instances:
            _named_instances[canonical] = _BACKEND_FACTORIES[canonical]()
        return _named_instances[canonical]


def resolve_backend(spec: "Backend | str | None" = None) -> Backend:
    """Normalise a backend specification (instance, name, or ``None``).

    ``None`` resolves to the global override installed with
    :func:`set_backend`, falling back to the backend named by the runtime
    configuration (``AOMP_BACKEND`` environment variable).
    """
    if isinstance(spec, Backend):
        return spec
    if spec is None:
        return get_backend()
    if isinstance(spec, str):
        return backend_by_name(spec)
    raise TypeError(f"backend must be a Backend, name or None, got {type(spec).__name__}")


def get_backend() -> Backend:
    """Return the globally configured backend."""
    if _backend is not None:
        return _backend
    from repro.runtime.config import get_config

    return backend_by_name(get_config().backend)


def set_backend(backend: Optional[Backend]) -> Optional[Backend]:
    """Install ``backend`` as the global override and return the previous override.

    Passing ``None`` clears the override, restoring configuration-driven
    selection (the ``AOMP_BACKEND`` environment variable).
    """
    global _backend
    with _backend_lock:
        previous, _backend = _backend, backend
    return previous
