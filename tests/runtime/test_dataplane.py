"""The data-plane abstraction and its socket transport.

Three layers of proof, cheapest first:

* **wire/unit** — framing round-trips, token auth, proxy-vs-real arena
  equivalence and RemoteArray coherence, all against an in-process
  :class:`~repro.runtime.dataplane.Coordinator` (no worker processes);
* **conformance** — Series and Crypt on ``backend="distributed"`` (real
  spawned, non-forked worker processes talking TCP) must produce results
  identical to ``backend="processes"`` across static/cyclic/dynamic
  schedules, which is the acceptance bar for the socket plane;
* **liveness** — a SIGKILLed remote member must surface as a diagnosed
  :class:`~repro.runtime.exceptions.WorkerProcessError` within seconds via
  the dropped-connection signal, not the barrier timeout;
* **warm workers** — spawned workers serve consecutive regions, a failed
  region's workers are never reused, per-region state (fault plan,
  schedule) does not leak between regions, and idle workers never outlive
  the master.
"""

from __future__ import annotations

import os
import pickle
import signal
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.runtime import dataplane, get_thread_id, shm
from repro.runtime.backend import available_backends, backend_by_name
from repro.runtime.barrier import BrokenBarrierError
from repro.runtime.config import config_override
from repro.runtime.distributed import DistributedBackend
from repro.runtime.exceptions import BrokenTeamError, WorkerProcessError
from repro.runtime.faults import parse_fault_spec, set_fault_plan
from repro.runtime.team import parallel_region

#: acceptance bound for dead-member detection (against a 120s barrier timeout).
DETECTION_BOUND = 5.0

#: records calls made *by unpickling* — a module-level function pickles by
#: reference, so loading the payload anywhere in this process appends here.
_UNPICKLED: "list[str]" = []


def _record_unpickle(tag: str) -> None:
    _UNPICKLED.append(tag)


class _UnpicklePayload:
    """Stand-in RCE payload: deserialising it calls :func:`_record_unpickle`."""

    def __reduce__(self):
        return (_record_unpickle, ("pwned",))

#: schedules the conformance acceptance criterion names explicitly.
CONFORMANCE_SCHEDULES = ("static_block", "static_cyclic", "dynamic,2")


@pytest.fixture(autouse=True)
def _isolated_fault_plan():
    previous = set_fault_plan(None)
    yield
    set_fault_plan(previous)


@pytest.fixture
def dist_backend():
    """A private distributed backend whose warm workers are reaped afterwards."""
    backend = DistributedBackend()
    yield backend
    backend.shutdown()


@pytest.fixture
def coordinator():
    coord = dataplane.Coordinator(2)
    coord.start()
    yield coord
    coord.shutdown()


@pytest.fixture
def session(coordinator):
    sess = dataplane.WorkerSession(
        dataplane.LOOPBACK_HOST, coordinator.port, coordinator.token, 1, install_hook=False
    )
    yield sess
    sess.close()


class TestWireFraming:
    def test_round_trip(self):
        a, b = socket.socketpair()
        try:
            for payload in (("ping",), ("op", 1, None, b"\x00bytes"), {"k": [1.5, "v"]}, 0):
                dataplane.send_message(a, payload)
                assert dataplane.recv_message(b) == payload
        finally:
            a.close()
            b.close()

    def test_closed_peer_is_eof(self):
        a, b = socket.socketpair()
        a.close()
        try:
            with pytest.raises(EOFError, match="closed"):
                dataplane.recv_message(b)
        finally:
            b.close()

    def test_oversized_frame_is_refused(self):
        """A corrupt length header must not make the receiver allocate GBs."""
        a, b = socket.socketpair()
        try:
            a.sendall(dataplane._HEADER.pack(dataplane.MAX_FRAME_BYTES + 1))
            with pytest.raises(ConnectionError, match="exceeds"):
                dataplane.recv_message(b)
        finally:
            a.close()
            b.close()


class TestShmPlane:
    """The shm plane is a constructor shim: components are the historical types."""

    def test_components_are_the_historical_types(self):
        plane = dataplane.ShmDataPlane()
        sync = plane.create_sync(3)
        assert isinstance(sync.barrier, shm.SharedBarrier)
        assert isinstance(sync.arena, shm.SyncArena)
        assert isinstance(sync.steal, shm.TaskStealArena)
        assert isinstance(sync.tune, shm.TunePlanArena)
        assert isinstance(sync.heartbeat, shm.HeartbeatArena)
        assert sync.barrier.parties == 3
        assert sync.pooled is False

    def test_pool_construction_knobs(self):
        sync = dataplane.ShmDataPlane().create_sync(1, pooled=True, max_workers=64)
        assert sync.pooled is True
        assert sync.steal.max_workers == 64

    def test_release_is_a_no_op(self):
        plane = dataplane.ShmDataPlane()
        plane.release_sync(plane.create_sync(2))  # must not raise


class TestCoordinatorRPC:
    def test_ping_echo(self, session):
        assert session.call("ping", "marco") == "marco"

    def test_pickled_frame_without_token_preamble_is_rejected(self, coordinator):
        """A peer that skips the raw-token preamble and leads with a pickled
        frame must be refused: its bytes are consumed as a (mismatching)
        preamble, never as pickle."""
        sock = socket.create_connection((dataplane.LOOPBACK_HOST, coordinator.port), timeout=5.0)
        try:
            dataplane.send_message(sock, ("ping", "x" * len(coordinator.token)))
            ok, payload = dataplane.recv_message(sock)
            assert not ok and isinstance(payload, PermissionError)
        finally:
            sock.close()

    def test_authenticated_hello_must_come_first(self, coordinator):
        sock = socket.create_connection((dataplane.LOOPBACK_HOST, coordinator.port), timeout=5.0)
        try:
            sock.sendall(coordinator.token.encode("ascii"))
            dataplane.send_message(sock, ("ping",))
            ok, payload = dataplane.recv_message(sock)
            assert not ok and isinstance(payload, PermissionError)
        finally:
            sock.close()

    def test_unauthenticated_bytes_are_never_unpickled(self, coordinator):
        """The high-severity guarantee: a crafted pickle from a peer without
        the token must be rejected *without* being deserialised — reaching
        ``pickle.loads`` would execute arbitrary reduce callables."""
        _UNPICKLED.clear()
        evil = pickle.dumps(_UnpicklePayload())
        frame = dataplane._HEADER.pack(len(evil)) + evil
        # Pad so the server's fixed-length preamble read completes even for a
        # small bomb; the padding is garbage, never a valid token.
        frame += b"\x00" * max(0, len(coordinator.token) - len(frame))
        sock = socket.create_connection((dataplane.LOOPBACK_HOST, coordinator.port), timeout=5.0)
        try:
            sock.sendall(frame)
            ok, payload = dataplane.recv_message(sock)
            assert not ok and isinstance(payload, PermissionError)
            assert _UNPICKLED == []  # the pickle was never loaded
        finally:
            sock.close()

    def test_bad_token_rejected_without_marking_a_member_lost(self, coordinator):
        with pytest.raises(PermissionError, match="token"):
            dataplane.WorkerSession(
                dataplane.LOOPBACK_HOST, coordinator.port, "wrong-token", 1, install_hook=False
            )
        # The impostor's disconnect must not be mistaken for a worker death.
        time.sleep(0.05)
        assert coordinator.lost_members() == []

    def test_shutdown_ends_the_accept_thread(self):
        """A leftover accept thread would keep every region's coordinator
        (arenas, body bytes) alive for the life of the master."""
        before = threading.active_count()
        coord = dataplane.Coordinator(2)
        coord.start()
        coord.shutdown()
        deadline = time.monotonic() + 2.0
        while threading.active_count() > before and time.monotonic() < deadline:
            time.sleep(0.01)
        assert threading.active_count() == before

    def test_unknown_op_raises_client_side(self, session):
        with pytest.raises(ValueError, match="unknown data-plane op"):
            session.call("no-such-op")

    def test_proxy_and_real_arena_share_one_counter(self, coordinator, session):
        proxy = dataplane.ProxySyncArena(session).slot(0)
        real = coordinator.arena.slot(0)
        assert proxy.fetch_add(4) == 0
        assert real.fetch_add(4) == 4
        assert proxy.fetch_add(0) == 8

    def test_claim_sequences_match_a_private_shm_arena(self, coordinator, session):
        """The coordinator hosts the *same* arena code, so any interleaved
        claim sequence through the proxy must equal the sequence a plain
        in-process arena produces — chunk boundaries identical by construction."""
        reference = shm.SyncArena(cells=[0] * (shm.SyncArena.CELLS_PER_SLOT * 256), lock=threading.Lock())
        proxy = dataplane.ProxySyncArena(session).slot(1)
        ref = reference.slot(1)
        for _ in range(10):
            assert proxy.claim_batch(3, 2, 25) == ref.claim_batch(3, 2, 25)
        proxy_g, ref_g = dataplane.ProxySyncArena(session).slot(2), reference.slot(2)
        while True:
            mine, theirs = proxy_g.claim_guided(100, 4, 2), ref_g.claim_guided(100, 4, 2)
            assert mine == theirs
            if mine is None:
                break

    def test_steal_slot_round_trip(self, coordinator, session):
        deck = dataplane.ProxyStealArena(session).slot(0, 2, 8)
        tiles = []
        while (tile := deck.claim_local(1)) is not None:
            tiles.append(tile)
            deck.mark_done()
        assert tiles == [4, 5, 6, 7]  # worker 1's half of the 8-tile deck
        stolen = deck.claim_steal(1)
        assert stolen is not None and stolen[0] == 0  # victim is worker 0
        assert deck.finished() is False

    def test_tune_slot_publish_and_read(self, coordinator, session):
        coordinator.tune.slot(0).publish((2, 7, 1, 3))
        assert dataplane.ProxyTuneArena(session).slot(0).read(timeout=2.0) == (2, 7, 1, 3)

    def test_rpcs_refresh_the_heartbeat(self, coordinator, session):
        session.call("ping")
        assert coordinator.heartbeat.pid(1) != 0
        age = coordinator.heartbeat.age(1)
        assert age is not None and age < 2.0


class TestRemoteArrayCoherence:
    def test_gather_flush_refresh(self, coordinator, session):
        master = shm.shared_zeros(8)
        try:
            master.np[:] = np.arange(8.0)
            mirror = session.attach_array(master.name, (8,), master.np.dtype.str)
            assert np.array_equal(np.asarray(mirror), np.arange(8.0))
            mirror[3] = 99.0
            session.flush_arrays()
            assert master.np[3] == 99.0
            master.np[0] = -1.0
            session.refresh_arrays()
            assert mirror[0] == -1.0 and mirror[3] == 99.0
        finally:
            coordinator.shutdown()  # release the master-side attachment first
            master.close()

    def test_refresh_keeps_buffer_identity(self, coordinator, session):
        """A kernel may cache ``arr.np`` across a barrier (valid under the shm
        plane, whose mapping is stable): refresh must overwrite in place, so
        the cached reference keeps seeing — and writing — the live mirror."""
        master = shm.shared_zeros(4)
        try:
            mirror = session.attach_array(master.name, (4,), master.np.dtype.str)
            cached = mirror.np  # what a kernel would hold across a barrier
            master.np[1] = 3.0
            session.refresh_arrays()
            assert mirror.np is cached
            assert cached[1] == 3.0  # refreshed data visible through the cache
            cached[2] = 8.0  # writes through the cache must flush
            session.flush_arrays()
            assert master.np[2] == 8.0
        finally:
            coordinator.shutdown()
            master.close()

    def test_untouched_elements_are_never_republished(self, coordinator, session):
        """The stale-overwrite guard: a concurrent master write to an element
        this worker never touched must survive the worker's flush."""
        master = shm.shared_zeros(4)
        try:
            mirror = session.attach_array(master.name, (4,), master.np.dtype.str)
            mirror[1] = 5.0  # worker's own chunk
            master.np[2] = 7.0  # master races ahead on a different element
            session.flush_arrays()
            assert master.np[1] == 5.0
            assert master.np[2] == 7.0  # not clobbered back to the stale 0.0
        finally:
            coordinator.shutdown()
            master.close()


class TestSocketBarrier:
    def test_master_and_remote_meet_at_the_barrier(self, coordinator, session):
        barrier = dataplane.SocketBarrier(session, 2)
        indices = []

        def master_side():
            indices.append(coordinator.barrier.wait())

        thread = threading.Thread(target=master_side)
        thread.start()
        indices.append(barrier.wait(timeout=10.0))
        thread.join(timeout=10.0)
        assert sorted(indices) == [0, 1]
        assert barrier.parties == 2 and barrier.broken is False
        # The handler counted the remote member's arrival server-side.
        assert coordinator.heartbeat.arrivals(2)[1] == 1

    def test_dropped_connection_marks_the_member_lost_and_breaks_the_barrier(self, coordinator, session):
        session._sock.close()  # simulate a worker dying mid-region
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and not coordinator.lost_members():
            time.sleep(0.01)
        lost = coordinator.lost_members()
        assert lost and lost[0][0] == 1
        assert coordinator.barrier.broken

    def test_rpc_timeout_tracks_the_barrier_bound(self, monkeypatch):
        """A worker's socket timeout must sit above the *effective* barrier
        timeout (AOMP_BARRIER_TIMEOUT), not the 120s constant — and vanish
        entirely when the bound is disabled."""
        monkeypatch.setenv("AOMP_BARRIER_TIMEOUT", "600")
        assert dataplane._effective_rpc_timeout() == 600.0 + dataplane._RPC_GRACE
        monkeypatch.setenv("AOMP_BARRIER_TIMEOUT", "0")
        assert dataplane._effective_rpc_timeout() is None
        monkeypatch.delenv("AOMP_BARRIER_TIMEOUT")
        assert dataplane._effective_rpc_timeout() == 120.0 + dataplane._RPC_GRACE

    def test_session_socket_honours_a_raised_barrier_bound(self, coordinator, monkeypatch):
        monkeypatch.setenv("AOMP_BARRIER_TIMEOUT", "300")
        sess = dataplane.WorkerSession(
            dataplane.LOOPBACK_HOST, coordinator.port, coordinator.token, 1, install_hook=False
        )
        try:
            assert sess._sock.gettimeout() == 300.0 + dataplane._RPC_GRACE
        finally:
            sess.close()

    def test_reply_send_failure_after_result_does_not_break_the_barrier(self, coordinator, session):
        """A worker whose connection dies *after* its result frame was
        recorded is not lost: the payload is already queued, so aborting the
        barrier would only punish the survivors."""
        session.call("result", 1, b"payload", None)
        session._sock.close()
        time.sleep(0.2)  # let the handler observe the EOF
        assert coordinator.lost_members() == []
        assert not coordinator.barrier.broken
        assert coordinator.results.get_nowait() == (1, (b"payload", None))

    def test_timeout_message_names_the_socket_transport(self):
        barrier = dataplane.CyclicBarrier(2, timeout=0.05, transport=dataplane.SOCKET_TRANSPORT)
        with pytest.raises(BrokenBarrierError, match=r"socket data plane"):
            barrier.wait()

    def test_shm_barrier_timeout_names_its_plane(self):
        if not shm.fork_available():
            pytest.skip("shm barrier needs multiprocessing primitives")
        barrier = shm.SharedBarrier(2, timeout=0.05)
        with pytest.raises(BrokenBarrierError, match=r"shm data plane"):
            barrier.wait()


class TestTransportNamedDiagnostics:
    def test_require_fork_names_both_planes(self, monkeypatch):
        monkeypatch.setattr(shm, "fork_available", lambda: False)
        with pytest.raises(Exception, match="shm data plane") as excinfo:
            shm.require_fork("the persistent process pool")
        assert "socket data plane" in str(excinfo.value)  # points at the alternative


class TestDistributedBackendResolution:
    def test_registered_with_aliases(self):
        assert "distributed" in available_backends()
        backend = backend_by_name("distributed")
        assert isinstance(backend, DistributedBackend)
        for alias in ("dist", "sockets", "socket"):
            assert isinstance(backend_by_name(alias), DistributedBackend)

    def test_size_one_runs_inline(self, dist_backend):
        backend = dist_backend
        assert backend.resolve_for_region(size=1, requires_shared_locals=False, nesting_level=0) is backend
        assert backend.create_process_sync(1, lambda: None) is None

    def test_nested_regions_fall_back_to_threads(self, dist_backend):
        backend = dist_backend
        resolved = backend.resolve_for_region(size=2, requires_shared_locals=False, nesting_level=1)
        assert resolved is backend.fallback

    def test_shared_locals_warn_and_fall_back(self, dist_backend):
        backend = dist_backend
        with pytest.warns(RuntimeWarning, match="DistributedBackend"):
            resolved = backend.resolve_for_region(size=2, requires_shared_locals=True, nesting_level=0)
        assert resolved is backend.fallback

    def test_unpicklable_body_warns_and_runs_on_threads(self, dist_backend):
        backend = dist_backend
        lock = threading.Lock()  # closures over locks cannot pickle

        def body():
            with lock:
                return 42

        with pytest.warns(RuntimeWarning, match="DistributedBackend"):
            result = parallel_region(body, num_threads=2, backend=backend, name="dist-unpicklable")
        assert result == 42  # parallel_region returns the master's result


class _SharedFillBody:
    """Picklable ``process_safe`` SPMD owner writing disjoint shared slots."""

    process_safe = True
    retry_safe = True

    def __init__(self, n: int) -> None:
        self.out = shm.shared_zeros(n)

    def run(self) -> None:
        from repro.runtime.worksharing import run_for

        run_for(self.fill, 0, len(self.out.view()), 1, loop_name="dataplane.fill")

    def fill(self, start: int, end: int, step: int) -> None:
        view = self.out.view()
        for i in range(start, end, step):
            view[i] = i * 2.0

    def close(self) -> None:
        self.out.close()


class _PidBody:
    """Picklable ``process_safe`` SPMD owner recording each member's pid."""

    process_safe = True

    def __init__(self, size: int) -> None:
        self.pids = shm.shared_zeros(size)

    def run(self) -> None:
        self.pids[get_thread_id()] = os.getpid()

    def members(self) -> "list[int]":
        """Pids of the non-master members of the last region."""
        return [int(pid) for pid in self.pids.view()[1:]]

    def close(self) -> None:
        self.pids.close()


class TestDistributedExecution:
    def test_spmd_loop_fills_a_shared_array(self, dist_backend):
        backend = dist_backend
        body = _SharedFillBody(24)
        try:
            parallel_region(body.run, num_threads=3, backend=backend, name="dist-fill")
            assert np.array_equal(body.out.view(), np.arange(24) * 2.0)
        finally:
            body.close()

    @pytest.mark.parametrize("schedule", CONFORMANCE_SCHEDULES)
    def test_series_matches_processes(self, schedule):
        from repro.jgf.series import parallel as series

        with config_override(default_schedule=schedule):
            expected = series.run_backend("tiny", num_threads=3, backend="processes")
            actual = series.run_backend("tiny", num_threads=3, backend="distributed")
        assert actual.value == expected.value

    @pytest.mark.parametrize("schedule", CONFORMANCE_SCHEDULES)
    def test_crypt_matches_processes(self, schedule):
        from repro.jgf.crypt import parallel as crypt

        with config_override(default_schedule=schedule):
            expected = crypt.run_backend("tiny", num_threads=3, backend="processes")
            actual = crypt.run_backend("tiny", num_threads=3, backend="distributed")
        assert actual.value == expected.value

    @pytest.mark.parametrize("kernel", ("python", "vector"))
    @pytest.mark.parametrize("schedule", CONFORMANCE_SCHEDULES)
    def test_sparse_matches_processes(self, schedule, kernel):
        """The worker's output vector is a RemoteArray mirror, not a
        SharedArray: the scatter must still reach its live buffer."""
        from repro.jgf.sparse import parallel as sparse

        with config_override(default_schedule=schedule):
            expected = sparse.run_backend("tiny", num_threads=3, backend="processes", kernel=kernel)
            actual = sparse.run_backend("tiny", num_threads=3, backend="distributed", kernel=kernel)
        assert actual.value == expected.value


class TestDeadMemberDetection:
    def test_sigkilled_remote_member_is_diagnosed_fast(self, dist_backend):
        """Acceptance bar: socket close + missed beats -> WorkerProcessError
        well inside 5s, with the member and signal named."""
        set_fault_plan(parse_fault_spec("kill:member=1,region=0"))
        backend = dist_backend
        body = _SharedFillBody(16)
        try:
            start = time.monotonic()
            with pytest.raises(BrokenTeamError) as excinfo:
                parallel_region(body.run, num_threads=3, backend=backend, name="dist-kill")
            elapsed = time.monotonic() - start
            assert elapsed < DETECTION_BOUND, f"detection took {elapsed:.1f}s"
            cause = excinfo.value.__cause__
            assert isinstance(cause, WorkerProcessError)
            assert cause.member == 1
            assert "SIGKILL" in str(cause)
        finally:
            set_fault_plan(None)
            body.close()

    def test_region_after_a_death_still_works(self, dist_backend):
        """Coordinators are per-region and a failed region's workers are
        replaced: the next region runs on fresh pids to the right answer."""
        assert dist_backend.prewarm(2)
        warm = {proc.pid for proc in dist_backend._idle}
        set_fault_plan(parse_fault_spec("kill:member=1,region=0"))
        body = _SharedFillBody(8)
        pids = _PidBody(3)
        try:
            with pytest.raises(BrokenTeamError):
                parallel_region(body.run, num_threads=3, backend=dist_backend, name="dist-kill-1")
            set_fault_plan(None)
            body.out.view()[:] = 0.0
            parallel_region(body.run, num_threads=3, backend=dist_backend, name="dist-after")
            assert np.array_equal(body.out.view(), np.arange(8) * 2.0)
            parallel_region(pids.run, num_threads=3, backend=dist_backend, name="dist-after-pids")
            assert not warm & set(pids.members())
        finally:
            body.close()
            pids.close()


def _process_alive(pid: int) -> bool:
    """Whether ``pid`` runs (a zombie awaiting its reaper has exited)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (FileNotFoundError, ProcessLookupError):
        return False


requires_proc = pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs Linux /proc")

#: a master process for the exit tests: runs one region, prints the idle
#: worker pids, then exits (``exit``), or, holding the workers' control pipes
#: open in a forked child so EOF never arrives, waits to be SIGKILLed
#: (``kill``).
_MASTER_SCRIPT = """
import os, sys, time
from repro.jgf.series import parallel as series
from repro.runtime.distributed import DistributedBackend

backend = DistributedBackend()
series.run_backend("tiny", num_threads=3, backend=backend)
holder = 0
if sys.argv[1] == "kill":
    holder = os.fork()
    if holder == 0:
        time.sleep(60)
        os._exit(0)
print(holder, *[proc.pid for proc in backend._idle], flush=True)
if sys.argv[1] == "kill":
    time.sleep(60)
"""


class TestWarmWorkers:
    def test_one_worker_serves_consecutive_regions(self, dist_backend):
        body = _PidBody(2)
        try:
            parallel_region(body.run, num_threads=2, backend=dist_backend, name="warm-1")
            first = body.members()
            parallel_region(body.run, num_threads=2, backend=dist_backend, name="warm-2")
            assert body.members() == first
            assert [proc.pid for proc in dist_backend._idle] == first
        finally:
            body.close()

    def test_prewarm_spawns_the_workers_the_next_region_uses(self, dist_backend):
        assert dist_backend.prewarm(2)
        warm = sorted(proc.pid for proc in dist_backend._idle)
        body = _PidBody(3)
        try:
            parallel_region(body.run, num_threads=3, backend=dist_backend, name="warm-prewarmed")
            assert sorted(body.members()) == warm
        finally:
            body.close()

    def test_idle_list_is_bounded_by_the_largest_team(self, dist_backend):
        body = _SharedFillBody(12)
        try:
            parallel_region(body.run, num_threads=2, backend=dist_backend, name="warm-small")
            assert len(dist_backend._idle) == 1
            parallel_region(body.run, num_threads=3, backend=dist_backend, name="warm-large")
            parallel_region(body.run, num_threads=2, backend=dist_backend, name="warm-small-again")
            assert len(dist_backend._idle) == 2
        finally:
            body.close()

    def test_stalled_worker_is_never_reused(self, dist_backend, monkeypatch):
        monkeypatch.setenv("AOMP_HEARTBEAT_TIMEOUT", "0.5")
        monkeypatch.setenv("AOMP_HEARTBEAT_INTERVAL", "0.1")
        assert dist_backend.prewarm(2)
        warm = list(dist_backend._idle)
        set_fault_plan(parse_fault_spec("stall:member=1,region=0,seconds=30"))
        body = _SharedFillBody(8)
        pids = _PidBody(3)
        try:
            with pytest.raises(BrokenTeamError):
                parallel_region(body.run, num_threads=3, backend=dist_backend, name="warm-stall")
            set_fault_plan(None)
            assert all(proc.poll() is not None for proc in warm)  # killed and reaped
            parallel_region(pids.run, num_threads=3, backend=dist_backend, name="warm-after-stall")
            assert not {proc.pid for proc in warm} & set(pids.members())
        finally:
            body.close()
            pids.close()

    def test_concurrent_regions_on_one_backend(self, dist_backend):
        bodies = [_SharedFillBody(30), _SharedFillBody(30)]
        errors: "list[BaseException]" = []

        def run(body: _SharedFillBody) -> None:
            try:
                for _ in range(3):
                    parallel_region(body.run, num_threads=3, backend=dist_backend, name="warm-concurrent")
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(body,)) for body in bodies]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not errors, errors
            for body in bodies:
                assert np.array_equal(body.out.view(), np.arange(30) * 2.0)
            assert len(dist_backend._idle) <= 2
        finally:
            for body in bodies:
                body.close()

    def test_shutdown_reaps_every_worker(self, dist_backend):
        assert dist_backend.prewarm(2)
        warm = list(dist_backend._idle)
        dist_backend.shutdown()
        assert dist_backend._idle == []
        assert all(proc.returncode is not None for proc in warm)

    @requires_proc
    def test_token_never_appears_on_the_command_line(self, dist_backend, monkeypatch):
        tokens: "list[str]" = []
        start = dataplane.Coordinator.start

        def recording_start(coordinator) -> None:
            tokens.append(coordinator.token)
            start(coordinator)

        monkeypatch.setattr(dataplane.Coordinator, "start", recording_start)
        body = _SharedFillBody(8)
        try:
            parallel_region(body.run, num_threads=2, backend=dist_backend, name="warm-token")
        finally:
            body.close()
        assert tokens
        (proc,) = dist_backend._idle
        with open(f"/proc/{proc.pid}/cmdline", "rb") as fh:
            cmdline = fh.read().decode("utf-8", "replace")
        assert "_worker_loop" in cmdline  # the live worker, not some other process
        assert not any(token in cmdline for token in tokens)

    def test_fault_plan_does_not_outlive_its_region(self, dist_backend):
        """``chunk=1`` never fires in a region where member 1 dispatches one
        chunk, but a plan surviving into the next region would count on and
        fire there."""
        body = _SharedFillBody(8)
        try:
            set_fault_plan(parse_fault_spec("raise:chunk=1,member=1"))
            parallel_region(body.run, num_threads=2, backend=dist_backend, name="warm-faults-1")
            (worker,) = dist_backend._idle
            set_fault_plan(None)
            body.out.view()[:] = 0.0
            parallel_region(body.run, num_threads=2, backend=dist_backend, name="warm-faults-2")
            assert np.array_equal(body.out.view(), np.arange(8) * 2.0)
            assert dist_backend._idle == [worker]
        finally:
            body.close()

    def test_schedule_change_between_regions_reaches_the_worker(self, dist_backend):
        from repro.jgf.series import parallel as series

        workers = []
        for schedule in ("static_block", "dynamic,2", "static_cyclic"):
            with config_override(default_schedule=schedule):
                expected = series.run_backend("tiny", num_threads=2, backend="processes")
                actual = series.run_backend("tiny", num_threads=2, backend=dist_backend)
            assert actual.value == expected.value, schedule
            workers.append([proc.pid for proc in dist_backend._idle])
        assert workers[0] == workers[1] == workers[2]

    @requires_proc
    @pytest.mark.parametrize("how", ("exit", "kill"))
    def test_idle_workers_do_not_outlive_the_master(self, how):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        master = subprocess.Popen(
            [sys.executable, "-c", _MASTER_SCRIPT, how], stdout=subprocess.PIPE, text=True, env=env
        )
        holder = 0
        try:
            holder, *workers = (int(field) for field in master.stdout.readline().split())
            assert workers
            if how == "kill":
                master.send_signal(signal.SIGKILL)
            master.wait(timeout=30)
            deadline = time.monotonic() + 2.0
            while any(_process_alive(pid) for pid in workers) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not [pid for pid in workers if _process_alive(pid)]
        finally:
            master.kill()
            master.wait()
            master.stdout.close()
            if holder:
                os.kill(holder, signal.SIGKILL)
