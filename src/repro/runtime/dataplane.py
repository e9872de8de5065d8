"""Pluggable data planes: where a team's shared state physically lives.

Every process-backed team needs the same five services — bulk array
segments, claim/fetch-add slots, a cyclic barrier, heartbeat cells and the
locks guarding them — but *where* those live is a transport decision, not a
runtime one.  This module separates the two:

* :class:`DataPlane` — the constructor-level abstraction.  A plane builds
  the :class:`~repro.runtime.shm.ProcessSync` bundle a team synchronises
  through; everything above it (worksharing, tasks, tuning, fault
  monitoring) is plane-agnostic because it only ever touches the
  ``ArenaSlot`` / ``TaskStealSlot`` / ``TunePlanSlot`` / barrier surfaces.

* :class:`ShmDataPlane` — today's machinery, unchanged: arenas over
  ``multiprocessing`` shared memory and locks, handed to forked workers by
  address-space inheritance.  The process backend and the persistent pool
  construct through it, bit-identical to their historical direct
  construction.

* :class:`SocketDataPlane` — a message-passing plane for members in
  *independent* (non-forked, possibly remote-capable) processes.  A
  :class:`Coordinator` in the master process hosts the **real** arena
  instances over plain heap cells (the arenas' ``cells=``/``lock=``
  storage pluggability) and serves claim / barrier /
  heartbeat RPCs over length-prefixed TCP on localhost.  Workers hold
  duck-typed proxies; the master, living in the coordinator's process,
  uses the arenas directly and pays zero round-trips.  Claim *policy*
  (``claim_cap``, ``guided_claim_batch``, steal-deck seeding) therefore
  runs exactly once, master-side, through exactly the same code the shm
  plane uses — which is what makes chunk boundaries identical across
  planes by construction rather than by testing luck.

Bulk arrays do not stream through the RPC channel.  Workers mirror each
:class:`~repro.runtime.shm.SharedArray` locally (:class:`RemoteArray`) and
move data in bulk-synchronous steps pinned to the team barrier: dirty
elements are *published* (flat indices + values) before the barrier RPC and
the mirror is *gathered* fresh after release.  Region bodies are SPMD with
barrier-separated phases, so everything a member may read after a barrier
was written — and therefore published — before it.

Wire protocol (see ``send_message``/``recv_message``): a connection opens
with the coordinator's one-time token as a **raw fixed-length preamble**,
constant-time-compared *before* any pickled frame is read — an
unauthenticated peer never reaches ``pickle.loads``, so a crafted frame
cannot execute code in the master.  After authentication, every frame is a
4-byte little-endian length followed by a pickled payload: first a
``hello`` carrying the member id and pid, then ``(op, *args)`` request
tuples answered by ``(ok, payload)`` pairs where a falsy ``ok`` carries an
encoded exception to re-raise client-side.
"""

from __future__ import annotations

import os
import pickle
import queue
import secrets
import socket
import struct
import threading
import time
from typing import Any, Optional

import numpy as np

import repro.obs.registry as obsreg
from repro.runtime import shm
from repro.runtime.barrier import BrokenBarrierError, CyclicBarrier, _default_barrier_timeout
from repro.runtime.config import get_config

#: Socket planes bind to loopback only: the raw token preamble (verified
#: before anything is unpickled) guards against port-scanning neighbours,
#: not a hostile network.
LOOPBACK_HOST = "127.0.0.1"

#: Frame header: little-endian unsigned 32-bit payload length.
_HEADER = struct.Struct("<I")

#: Upper bound on a single frame (guards against a corrupt header making the
#: receiver try to allocate gigabytes).  Generous: gathers of benchmark-sized
#: arrays are a few MB.
MAX_FRAME_BYTES = 1 << 30

#: Bound on how long the coordinator waits for a connecting peer to present
#: its token preamble — an idle port-scanner must not pin a handler thread
#: (and its accepted socket) forever.
HANDSHAKE_TIMEOUT = 10.0


# ---------------------------------------------------------------------------
# Wire framing
# ---------------------------------------------------------------------------


def send_message(sock: socket.socket, payload: Any) -> int:
    """Write one length-prefixed pickled frame; return the bytes written."""
    data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    frame = _HEADER.pack(len(data)) + data
    sock.sendall(frame)
    return len(frame)


def recv_message(sock: socket.socket) -> Any:
    """Read one length-prefixed pickled frame; ``EOFError`` on a closed peer."""
    payload, _ = recv_message_counted(sock)
    return payload


def recv_message_counted(sock: socket.socket) -> "tuple[Any, int]":
    """Like :func:`recv_message`, also returning the frame size in bytes."""
    header = _recv_exact(sock, _HEADER.size)
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ConnectionError(f"data-plane frame of {length} bytes exceeds the {MAX_FRAME_BYTES} byte bound")
    return pickle.loads(_recv_exact(sock, length)), _HEADER.size + length


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    while count:
        chunk = sock.recv(count)
        if not chunk:
            raise EOFError("data-plane peer closed the connection")
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


def _encode_error(exc: BaseException) -> Any:
    """Best-effort exception transfer: the object when picklable, else a repr."""
    try:
        pickle.dumps(exc)
        return exc
    except Exception:
        return RuntimeError(f"unpicklable data-plane error: {exc!r}")


# ---------------------------------------------------------------------------
# The abstraction + the shm plane
# ---------------------------------------------------------------------------


class DataPlane:
    """Where a team's shared state lives and how members reach it."""

    #: short identifier (``shm`` / ``socket``) used in error messages.
    name = "abstract"
    #: human-readable transport description for diagnostics.
    transport = "unspecified transport"

    def create_sync(self, size: int, *, pooled: bool = False, max_workers: Optional[int] = None) -> shm.ProcessSync:
        """Build the ``ProcessSync`` bundle a ``size``-member team runs on."""
        raise NotImplementedError

    def release_sync(self, sync: shm.ProcessSync) -> None:
        """Tear down plane resources held by ``sync`` (no-op by default)."""


class ShmDataPlane(DataPlane):
    """Today's shared-memory/fork machinery, constructed through the plane API.

    Deliberately nothing but a constructor shim: the arenas, barrier and
    heartbeat cells are exactly the objects the process backend and the
    persistent pool built directly before the data-plane split, so existing
    backends are bit-identical through it.
    """

    name = "shm"
    transport = "fork-inherited shared memory"

    def create_sync(self, size: int, *, pooled: bool = False, max_workers: Optional[int] = None) -> shm.ProcessSync:
        capacity = max_workers if max_workers is not None else max(size, 2)
        metrics = None
        if pooled or get_config().metrics:
            # Pool syncs always carry an arena: pooled workers are forked once
            # at pool construction and can only ever flush into cells that
            # existed at fork time, so the arena must exist even if metrics
            # are enabled later via ``config_override``.
            from repro.obs.arena import MetricsArena

            metrics = MetricsArena(capacity)
        return shm.ProcessSync(
            shm.SharedBarrier(size),
            shm.SyncArena(),
            pooled=pooled,
            steal=shm.TaskStealArena(max_workers=capacity),
            tune=shm.TunePlanArena(),
            heartbeat=shm.HeartbeatArena(),
            metrics=metrics,
        )


# ---------------------------------------------------------------------------
# Socket plane: master-side coordinator
# ---------------------------------------------------------------------------

#: transport label threaded into barrier-timeout messages (satellite of the
#: "name the active data plane" fix — a distributed failure must not
#: misreport itself as a fork/shm problem).
SOCKET_TRANSPORT = f"socket data plane, tcp://{LOOPBACK_HOST}"


class Coordinator:
    """Master-side server hosting a socket-plane team's real shared state.

    One instance per region.  Hosts the *actual* :class:`~repro.runtime.shm`
    arenas over plain ``list`` cells guarded by ``threading.Lock`` (every
    mutation happens in this process — either directly by the master member
    or by a per-connection handler thread acting for a remote worker), plus
    an in-process :class:`CyclicBarrier` whose remote parties are represented
    by their handler threads blocking in ``wait`` on their behalf.

    Connection lifecycle is the liveness signal: a worker that dies mid-region
    drops its socket before sending its ``result`` frame.  The handler marks
    the member *lost* and breaks the barrier immediately, so detection is
    bounded by the monitor poll interval, not by a barrier timeout.
    """

    def __init__(self, size: int) -> None:
        self.size = size
        self.token = secrets.token_hex(16)
        self.barrier = CyclicBarrier(size, transport=SOCKET_TRANSPORT)
        self.arena = shm.SyncArena(cells=self._cells(shm.SyncArena.CELLS_PER_SLOT * 256), lock=threading.Lock())
        steal_workers = max(size, 2)
        self.steal = shm.TaskStealArena(
            max_workers=steal_workers,
            cells=self._cells(shm.TaskStealArena.cells_needed(steal_workers, 64)),
            lock=threading.Lock(),
        )
        self.tune = shm.TunePlanArena(cells=self._cells(shm.TunePlanArena.CELLS_PER_SLOT * 256), lock=threading.Lock())
        self.heartbeat = shm.HeartbeatArena(cells=self._cells(shm.HeartbeatArena.CELLS_PER_MEMBER * 64))
        #: worker result frames, drained by ``collect_member_payloads`` —
        #: ``queue.Queue`` deliberately matches the ``empty()``/``get()``
        #: channel surface the forked path uses.
        self.results: "queue.Queue[tuple[int, tuple[bytes | None, bytes | None]]]" = queue.Queue()
        #: region descriptor served to workers in the hello response; the
        #: backend fills it in before spawning.
        self.descriptor: "dict[str, Any] | None" = None
        self._lost: "dict[int, int]" = {}  # member -> last known pid
        self._reported: "set[int]" = set()
        self._segments: "dict[str, shm.SharedArray]" = {}
        self._segments_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._conns: "list[socket.socket]" = []
        self._closing = False
        self._listener: "socket.socket | None" = None
        self.port: "int | None" = None

    @staticmethod
    def _cells(count: int) -> "list[int]":
        return [0] * count

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Bind the loopback listener and start accepting worker connections."""
        self._listener = socket.create_server((LOOPBACK_HOST, 0))
        self.port = self._listener.getsockname()[1]
        threading.Thread(target=self._accept_loop, name="aomp-dataplane-accept", daemon=True).start()

    def shutdown(self) -> None:
        """Stop serving and release master-side attachments."""
        self._closing = True
        if self._listener is not None:
            try:
                # close() alone does not wake a thread blocked in accept() on
                # Linux; without shutdown() every region would leave its
                # accept thread, and with it this coordinator, alive.
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # not every platform allows shutdown() on a listener
            try:
                self._listener.close()
            except OSError:
                pass
        with self._state_lock:
            conns, self._conns = self._conns, []
        for conn in conns:
            try:
                conn.close()
            except OSError:
                pass
        with self._segments_lock:
            segments, self._segments = self._segments, {}
        for segment in segments.values():
            segment.close()

    def lost_members(self) -> "list[tuple[int, int]]":
        """``(member, pid)`` pairs whose connection dropped before a result."""
        with self._state_lock:
            return list(self._lost.items())

    # -- server loop ---------------------------------------------------------

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._closing:
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return
            with self._state_lock:
                self._conns.append(conn)
            threading.Thread(target=self._serve, args=(conn,), name="aomp-dataplane-serve", daemon=True).start()

    def _serve(self, conn: socket.socket) -> None:
        member = None
        pid = 0
        try:
            # Authenticate BEFORE deserialising anything: the preamble is the
            # raw token bytes, fixed length, compared in constant time.  An
            # unauthenticated peer never reaches pickle.loads, so a crafted
            # pickle frame cannot execute code in the master.
            conn.settimeout(HANDSHAKE_TIMEOUT)
            preamble = _recv_exact(conn, len(self.token))
            if not secrets.compare_digest(preamble, self.token.encode("ascii")):
                send_message(conn, (False, _encode_error(PermissionError("data-plane token rejected"))))
                return  # member is still None: an impostor is never marked lost
            conn.settimeout(None)
            hello = recv_message(conn)
            if not (isinstance(hello, tuple) and len(hello) == 3 and hello[0] == "hello"):
                send_message(conn, (False, _encode_error(PermissionError("data-plane hello frame expected"))))
                return
            _op, member, pid = hello
            self.heartbeat.register(member, pid=pid)
            send_message(conn, (True, self.descriptor))
            while True:
                request = recv_message(conn)
                op, args = request[0], request[1:]
                if member is not None:
                    self.heartbeat.beat(member)
                try:
                    reply = self._dispatch(member, op, args)
                except BaseException as exc:  # noqa: BLE001 - shipped to the worker
                    send_message(conn, (False, _encode_error(exc)))
                else:
                    send_message(conn, (True, reply))
                    if op == "result":
                        return  # worker is done; a subsequent EOF is a clean goodbye
        except (EOFError, ConnectionError, OSError):
            if member is not None:
                with self._state_lock:
                    # _dispatch adds to _reported under this lock; a member
                    # whose result is already queued is not lost — only the
                    # reply (or goodbye) failed after the payload landed, and
                    # breaking the barrier would punish the survivors.
                    reported = member in self._reported
                    if not reported:
                        self._lost[member] = pid
                if not reported:
                    # Break the barrier now: surviving members must not sit
                    # out the full barrier timeout waiting for a peer that is
                    # gone.
                    self.barrier.abort()
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def _dispatch(self, member: "int | None", op: str, args: tuple) -> Any:
        if op == "ping":
            return args[0] if args else None
        if op == "barrier_wait":
            timeout = args[0]
            if len(args) > 1 and args[1]:
                # Metrics delta piggybacked on the barrier frame: the handler
                # thread runs in the master process, so fold the worker's
                # counts straight into the master registry.
                obsreg.absorb(args[1])
            self.heartbeat.note_arrival(member)
            return self.barrier.wait() if timeout is None else self.barrier.wait(timeout)
        if op == "barrier_abort":
            self.barrier.abort()
            return None
        if op == "barrier_broken":
            return self.barrier.broken
        if op == "arena_attach":
            ordinal, level = args
            self.arena.slot(ordinal, level=level)
            return None
        if op == "arena_fetch_add":
            ordinal, level, amount = args
            return self.arena.slot(ordinal, level=level).fetch_add(amount)
        if op == "arena_claim_batch":
            ordinal, level, limit, num_threads, total_chunks = args
            return self.arena.slot(ordinal, level=level).claim_batch(limit, num_threads, total_chunks)
        if op == "arena_claim_guided":
            ordinal, level, total, min_chunk, num_threads = args
            return self.arena.slot(ordinal, level=level).claim_guided(total, min_chunk, num_threads)
        if op == "arena_claim_guided_batch":
            ordinal, level, total, min_chunk, num_threads, limit = args
            return self.arena.slot(ordinal, level=level).claim_guided_batch(total, min_chunk, num_threads, limit)
        if op == "steal_claim_local":
            ordinal, level, num_workers, ntiles, worker = args
            return self.steal.slot(ordinal, num_workers, ntiles, level=level).claim_local(worker)
        if op == "steal_claim_steal":
            ordinal, level, num_workers, ntiles, worker = args
            return self.steal.slot(ordinal, num_workers, ntiles, level=level).claim_steal(worker)
        if op == "steal_mark_done":
            ordinal, level, num_workers, ntiles, amount = args
            return self.steal.slot(ordinal, num_workers, ntiles, level=level).mark_done(amount)
        if op == "steal_finished":
            ordinal, level, num_workers, ntiles = args
            return self.steal.slot(ordinal, num_workers, ntiles, level=level).finished()
        if op == "tune_publish":
            ordinal, level, plan = args
            self.tune.slot(ordinal, level=level).publish(plan)
            return None
        if op == "tune_read":
            ordinal, level, timeout = args
            return self.tune.slot(ordinal, level=level).read(timeout)
        if op == "gather":
            name, shape, dtype_str = args
            return self._segment(name, shape, dtype_str).np.tobytes()
        if op == "publish":
            name, shape, dtype_str, index_bytes, value_bytes = args
            segment = self._segment(name, shape, dtype_str)
            flat = segment.np.reshape(-1)
            indices = np.frombuffer(index_bytes, dtype=np.int64)
            flat[indices] = np.frombuffer(value_bytes, dtype=segment.np.dtype)
            return None
        if op == "result":
            member_id, result_bytes, exc_bytes = args[:3]
            if len(args) > 3 and args[3]:
                obsreg.absorb(args[3])
            with self._state_lock:
                self._reported.add(member_id)
            self.results.put((member_id, (result_bytes, exc_bytes)))
            return None
        raise ValueError(f"unknown data-plane op {op!r}")

    def _segment(self, name: str, shape: tuple, dtype_str: str) -> shm.SharedArray:
        """Master-side view of a named segment (attach once, close on shutdown).

        The coordinator never owns these segments — the region body created
        them — so the attachment is close-only and can never unlink data out
        from under the master.
        """
        with self._segments_lock:
            segment = self._segments.get(name)
            if segment is None:
                segment = shm._attach_shared_array(name, shape, dtype_str)
                self._segments[name] = segment
            return segment


# ---------------------------------------------------------------------------
# Socket plane: worker-side session, array mirrors and proxies
# ---------------------------------------------------------------------------

#: generous slack on top of the *effective* barrier timeout: a worker whose
#: RPC reply never arrives (coordinator process died) must unblock itself
#: eventually, but only after every legitimate barrier wait could have
#: completed server-side.
_RPC_GRACE = 30.0


def _effective_rpc_timeout() -> "float | None":
    """Socket timeout for worker RPCs, tracking ``AOMP_BARRIER_TIMEOUT``.

    The longest legitimate RPC is a ``barrier_wait`` held open server-side
    for the coordinator barrier's bound, so the socket timeout must sit
    *above* that bound — pinning it to the 120 s default would make a
    healthy worker spuriously break the barrier whenever the user raises
    ``AOMP_BARRIER_TIMEOUT`` past it.  When the bound is disabled (``<= 0``:
    wait forever) there is no meaningful RPC deadline either; liveness then
    rests on the connection itself (a dead coordinator closes the socket,
    surfacing as ``EOFError``/``ConnectionError``).
    """
    bound = _default_barrier_timeout()
    return None if bound is None else bound + _RPC_GRACE

#: the active worker session of this process, if any.  Installed by
#: :class:`WorkerSession` so ``shm._attach_shared_array`` can route unpickled
#: SharedArray references to socket-backed mirrors.
_worker_session: "WorkerSession | None" = None


def current_worker_session() -> "WorkerSession | None":
    """The socket-plane session this process runs under, or ``None``."""
    return _worker_session


class WorkerSession:
    """A worker process's connection to the coordinator.

    One socket, one lock: requests are strictly serialised, so the ordered
    stream guarantees every ``publish`` lands before the ``barrier_wait``
    that follows it.  The session also owns the process's array mirrors and
    (when ``install_hook`` is set) registers itself as the shm attach hook so
    unpickling a :class:`~repro.runtime.shm.SharedArray` reference yields a
    :class:`RemoteArray` instead of a doomed ``/dev/shm`` attach.
    """

    def __init__(
        self,
        host: str,
        port: int,
        token: str,
        member: int,
        *,
        install_hook: bool = True,
        rpc_timeout: "float | None" = None,
    ) -> None:
        self.member = member
        self._sock = socket.create_connection((host, port), timeout=10.0)
        self._sock.settimeout(rpc_timeout if rpc_timeout is not None else _effective_rpc_timeout())
        self._lock = threading.Lock()
        self._arrays: "dict[str, RemoteArray]" = {}
        #: one-predicate metrics guard for the RPC hot path; ``_worker_main``
        #: sets it from the master's configuration in the region descriptor.
        self.metrics = get_config().metrics
        try:
            with self._lock:
                # Raw token preamble first (authenticated before the server
                # unpickles anything), then the pickled hello frame.
                self._sock.sendall(token.encode("ascii"))
                send_message(self._sock, ("hello", member, os.getpid()))
                ok, payload = recv_message(self._sock)
        except BaseException:
            self._sock.close()
            raise
        if not ok:
            self._sock.close()
            raise payload
        self.descriptor = payload
        if install_hook:
            self.install()

    # -- hook management -----------------------------------------------------

    def install(self) -> None:
        global _worker_session
        _worker_session = self
        shm._attach_hook = self.attach_array

    def close(self) -> None:
        global _worker_session
        if _worker_session is self:
            _worker_session = None
            shm._attach_hook = None
        try:
            self._sock.close()
        except OSError:
            pass

    # -- RPC -----------------------------------------------------------------

    def call(self, op: str, *args: Any) -> Any:
        metrics = self.metrics
        start = time.perf_counter() if metrics else 0.0
        try:
            with self._lock:
                sent = send_message(self._sock, (op, *args))
                (ok, payload), received = recv_message_counted(self._sock)
        except (TimeoutError, socket.timeout) as exc:
            raise BrokenBarrierError(
                f"data-plane RPC {op!r} timed out ({SOCKET_TRANSPORT}); the coordinator may be gone"
            ) from exc
        if metrics:
            obsreg.inc(obsreg.RPC_CALLS)
            obsreg.inc(obsreg.RPC_BYTES_SENT, sent)
            obsreg.inc(obsreg.RPC_BYTES_RECEIVED, received)
            obsreg.observe("aomp_rpc_rtt_seconds", time.perf_counter() - start)
        if ok:
            return payload
        raise payload

    # -- array mirrors -------------------------------------------------------

    def attach_array(self, name: str, shape: tuple, dtype_str: str) -> "RemoteArray":
        mirror = self._arrays.get(name)
        if mirror is None:
            mirror = RemoteArray(self, name, shape, dtype_str)
            self._arrays[name] = mirror
        return mirror

    def flush_arrays(self) -> None:
        """Publish every mirror's dirty elements to the coordinator."""
        for mirror in self._arrays.values():
            mirror.flush()

    def refresh_arrays(self) -> None:
        """Re-gather every mirror from the coordinator's authoritative copy."""
        for mirror in self._arrays.values():
            mirror.refresh()


class RemoteArray:
    """Worker-side mirror of a master-process :class:`~repro.runtime.shm.SharedArray`.

    Duck-types the ``SharedArray`` surface kernels use (indexing, ``__array__``,
    attribute delegation to the ndarray).  Coherence is bulk-synchronous and
    pinned to the team barrier: :meth:`flush` publishes exactly the elements
    *this* worker changed since the last gather (diff against a baseline
    copy), :meth:`refresh` overwrites mirror and baseline *in place* with the
    coordinator's current data — ``self.np`` keeps its buffer identity, so a
    kernel that caches it across a barrier stays coherent just as it would
    with a shared mapping.  Because members write disjoint chunks
    between barriers, diffs from different workers never overlap, and a
    concurrently-racing master write can never be clobbered by a stale
    value — an element the worker did not touch is never republished.
    """

    def __init__(self, session: WorkerSession, name: str, shape: tuple, dtype_str: str) -> None:
        self._session = session
        self._name = name
        self._shape = tuple(shape)
        self._dtype = np.dtype(dtype_str)
        self.np: np.ndarray = np.zeros(self._shape, dtype=self._dtype)
        self._baseline = self.np.copy()
        self.refresh()

    @property
    def name(self) -> str:
        return self._name

    def refresh(self) -> None:
        data = self._session.call("gather", self._name, self._shape, self._dtype.str)
        fresh = np.frombuffer(data, dtype=self._dtype).reshape(self._shape)
        # Copy into the existing buffer instead of rebinding self.np: a kernel
        # that caches ``arr.np`` across a barrier (valid under the shm plane,
        # whose mapping is stable) must keep seeing — and writing — the live
        # mirror, not an orphaned buffer whose writes never flush.
        np.copyto(self.np, fresh)
        np.copyto(self._baseline, fresh)

    def flush(self) -> None:
        current = self.np.reshape(-1)
        baseline = self._baseline.reshape(-1)
        # != is elementwise-safe for every dtype the kernels use; NaN compares
        # unequal to itself, which only means an untouched NaN republishes its
        # own value — harmless.
        dirty = np.flatnonzero(current != baseline)
        if dirty.size:
            self._session.call(
                "publish",
                self._name,
                self._shape,
                self._dtype.str,
                dirty.astype(np.int64).tobytes(),
                np.ascontiguousarray(current[dirty]).tobytes(),
            )
            np.copyto(baseline, current)

    # -- ndarray-ish surface (mirrors SharedArray) ---------------------------

    def __array__(self, dtype=None) -> np.ndarray:
        return self.np.astype(dtype) if dtype is not None else self.np

    def __getitem__(self, key):
        return self.np[key]

    def __setitem__(self, key, value) -> None:
        self.np[key] = value

    def __len__(self) -> int:
        return len(self.np)

    def __getattr__(self, name):
        return getattr(object.__getattribute__(self, "np"), name)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"RemoteArray(name={self._name!r}, shape={self._shape}, dtype={self._dtype})"

    def close(self) -> None:
        """Mirror of ``SharedArray.close`` — nothing to detach worker-side."""


class SocketBarrier:
    """Worker-side barrier proxy: the coherence point of the socket plane.

    ``wait`` publishes this worker's dirty array elements, blocks in the
    coordinator's barrier via RPC (the handler thread waits on the worker's
    behalf), then re-gathers the mirrors — so after every team barrier the
    worker sees exactly what a fork-inherited member would see in shared
    pages.
    """

    def __init__(self, session: WorkerSession, parties: int) -> None:
        self._session = session
        self._parties = parties

    @property
    def parties(self) -> int:
        return self._parties

    @property
    def broken(self) -> bool:
        return bool(self._session.call("barrier_broken"))

    def wait(self, timeout: Optional[float] = None) -> int:
        self._session.flush_arrays()
        # Piggyback this worker's metric delta on the barrier frame it is
        # sending anyway — team-wide aggregation costs zero extra round trips.
        delta = obsreg.flush_delta() if self._session.metrics else None
        index = self._session.call("barrier_wait", timeout, delta)
        self._session.refresh_arrays()
        return int(index)

    def abort(self) -> None:
        self._session.call("barrier_abort")


class _ProxySlotBase:
    __slots__ = ("_session", "_ordinal", "_level")

    def __init__(self, session: WorkerSession, ordinal: int, level: int) -> None:
        self._session = session
        self._ordinal = ordinal
        self._level = level


class ProxyArenaSlot(_ProxySlotBase):
    """RPC twin of :class:`~repro.runtime.shm.ArenaSlot` (claim counters)."""

    __slots__ = ()

    def __init__(self, session: WorkerSession, ordinal: int, level: int) -> None:
        super().__init__(session, ordinal, level)
        session.call("arena_attach", ordinal, level)

    def fetch_add(self, amount: int = 1) -> int:
        return self._session.call("arena_fetch_add", self._ordinal, self._level, amount)

    def claim_batch(self, limit: int, num_threads: int, total_chunks: int) -> "tuple[int, int] | None":
        return self._session.call("arena_claim_batch", self._ordinal, self._level, limit, num_threads, total_chunks)

    def claim_guided(self, total: int, min_chunk: int, num_threads: int) -> "tuple[int, int] | None":
        return self._session.call("arena_claim_guided", self._ordinal, self._level, total, min_chunk, num_threads)

    def claim_guided_batch(
        self, total: int, min_chunk: int, num_threads: int, limit: int
    ) -> "list[tuple[int, int]] | None":
        return self._session.call(
            "arena_claim_guided_batch", self._ordinal, self._level, total, min_chunk, num_threads, limit
        )


class ProxySyncArena:
    """Worker-side stand-in for :class:`~repro.runtime.shm.SyncArena`."""

    def __init__(self, session: WorkerSession) -> None:
        self._session = session

    def slot(self, ordinal: int, *, level: int = 0) -> ProxyArenaSlot:
        return ProxyArenaSlot(self._session, ordinal, level)


class ProxyStealSlot(_ProxySlotBase):
    """RPC twin of :class:`~repro.runtime.shm.TaskStealSlot` (taskloop decks)."""

    __slots__ = ("_num_workers", "_ntiles")

    def __init__(self, session: WorkerSession, ordinal: int, num_workers: int, ntiles: int, level: int) -> None:
        super().__init__(session, ordinal, level)
        self._num_workers = num_workers
        self._ntiles = ntiles

    def _call(self, op: str, *args: Any) -> Any:
        return self._session.call(op, self._ordinal, self._level, self._num_workers, self._ntiles, *args)

    def claim_local(self, worker: int) -> "int | None":
        return self._call("steal_claim_local", worker)

    def claim_steal(self, worker: int) -> "tuple[int, int] | None":
        return self._call("steal_claim_steal", worker)

    def mark_done(self, amount: int = 1) -> int:
        return self._call("steal_mark_done", amount)

    def finished(self) -> bool:
        return self._call("steal_finished")


class ProxyStealArena:
    """Worker-side stand-in for :class:`~repro.runtime.shm.TaskStealArena`."""

    def __init__(self, session: WorkerSession) -> None:
        self._session = session

    def slot(self, ordinal: int, num_workers: int, ntiles: int, *, level: int = 0) -> ProxyStealSlot:
        return ProxyStealSlot(self._session, ordinal, num_workers, ntiles, level)


class ProxyTuneSlot(_ProxySlotBase):
    """RPC twin of :class:`~repro.runtime.shm.TunePlanSlot` (auto-schedule plans)."""

    __slots__ = ()

    def publish(self, plan: "tuple[int, int, int, int]") -> None:
        self._session.call("tune_publish", self._ordinal, self._level, tuple(plan))

    def read(self, timeout: float = shm.BARRIER_TIMEOUT) -> "tuple[int, int, int, int]":
        return tuple(self._session.call("tune_read", self._ordinal, self._level, timeout))


class ProxyTuneArena:
    """Worker-side stand-in for :class:`~repro.runtime.shm.TunePlanArena`."""

    def __init__(self, session: WorkerSession) -> None:
        self._session = session

    def slot(self, ordinal: int, *, level: int = 0) -> ProxyTuneSlot:
        return ProxyTuneSlot(self._session, ordinal, level)


class SessionHeartbeat:
    """Worker-side heartbeat stub: liveness is *observed* by the coordinator.

    Every RPC the worker makes refreshes its beat server-side and the barrier
    handler counts its arrivals, so there is nothing for the worker to write;
    the master's monitor reads the coordinator's real arena.  The read
    surface answers conservatively for the (diagnostic-only) worker-side
    error enrichment paths.
    """

    def register(self, member: int, pid: "int | None" = None) -> None:
        pass

    def beat(self, member: int) -> None:
        pass

    def note_arrival(self, member: int) -> None:
        pass

    def pid(self, member: int) -> int:
        return 0

    def age(self, member: int) -> "float | None":
        return None

    def arrivals(self, size: int) -> "list[int]":
        return [0] * size

    def member_for_pid(self, pid: int) -> "int | None":
        return None


def worker_process_sync(session: WorkerSession, size: int) -> shm.ProcessSync:
    """The proxy ``ProcessSync`` bundle a socket-plane worker member runs on."""
    return shm.ProcessSync(
        SocketBarrier(session, size),
        ProxySyncArena(session),
        pooled=False,
        steal=ProxyStealArena(session),
        tune=ProxyTuneArena(session),
        heartbeat=SessionHeartbeat(),
    )


class SocketDataPlane(DataPlane):
    """Message-passing plane: coordinator-hosted state, TCP-connected members."""

    name = "socket"
    transport = SOCKET_TRANSPORT

    def create_sync(self, size: int, *, pooled: bool = False, max_workers: Optional[int] = None) -> shm.ProcessSync:
        coordinator = Coordinator(size)
        coordinator.start()
        sync = shm.ProcessSync(
            coordinator.barrier,
            coordinator.arena,
            pooled=pooled,
            steal=coordinator.steal,
            tune=coordinator.tune,
            heartbeat=coordinator.heartbeat,
        )
        sync.coordinator = coordinator
        return sync

    def release_sync(self, sync: shm.ProcessSync) -> None:
        coordinator = getattr(sync, "coordinator", None)
        if coordinator is not None:
            coordinator.shutdown()
