"""Tests for the shared-memory primitives behind the process backend."""

from __future__ import annotations

import os
import pickle
import threading

import numpy as np
import pytest

from repro.runtime import shm
from repro.runtime.barrier import BrokenBarrierError
from repro.runtime.shm import (
    ProcessDynamicState,
    ProcessGuidedState,
    SharedArray,
    SharedBarrier,
    SyncArena,
    as_shared,
    fork_available,
    is_shared,
    shared_zeros,
)


class TestSharedArray:
    def test_zeros_shape_dtype(self):
        with shared_zeros((3, 4), np.int64) as arr:
            assert arr.shape == (3, 4)
            assert arr.dtype == np.int64
            assert arr.np.sum() == 0

    def test_from_array_copies_data(self):
        source = np.arange(10, dtype=np.float64)
        with SharedArray.from_array(source) as arr:
            assert np.array_equal(arr.np, source)
            source[0] = 99  # the copy is independent of the source...
            assert arr[0] == 0.0

    def test_ndarray_like_surface(self):
        with shared_zeros((4, 4)) as arr:
            arr[1, 1:3] = 5.0
            assert arr[1].tolist() == [0.0, 5.0, 5.0, 0.0]
            assert float(arr.sum()) == 10.0
            assert np.allclose(np.asarray(arr)[1, 1:3], 5.0)
            assert len(arr) == 4

    def test_as_shared_passthrough_and_is_shared(self):
        with shared_zeros(4) as arr:
            assert as_shared(arr) is arr
            assert is_shared(arr)
        assert not is_shared(np.zeros(4))

    def test_pickle_reattaches_same_memory(self):
        with shared_zeros(8, np.int64) as arr:
            clone = pickle.loads(pickle.dumps(arr))
            try:
                clone[3] = 42
                assert arr[3] == 42  # same physical pages
            finally:
                clone.close()

    def test_close_is_idempotent(self):
        arr = shared_zeros(4)
        arr.close()
        arr.close()


class TestSharedBarrier:
    def test_wait_releases_all_parties(self):
        barrier = SharedBarrier(3)
        released = []
        lock = threading.Lock()

        def party():
            barrier.wait()
            with lock:
                released.append(1)

        threads = [threading.Thread(target=party) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert len(released) == 3

    def test_reusable_across_rounds(self):
        barrier = SharedBarrier(2)
        rounds = []

        def party():
            for r in range(3):
                barrier.wait()
                rounds.append(r)

        threads = [threading.Thread(target=party) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert sorted(rounds) == [0, 0, 1, 1, 2, 2]

    def test_abort_breaks_waiters(self):
        barrier = SharedBarrier(2)
        errors = []

        def party():
            try:
                barrier.wait()
            except BrokenBarrierError:
                errors.append(1)

        thread = threading.Thread(target=party)
        thread.start()
        barrier.abort()
        thread.join(timeout=10)
        assert errors == [1]
        with pytest.raises(BrokenBarrierError):
            barrier.wait()

    def test_reset_restores_and_changes_parties(self):
        barrier = SharedBarrier(4)
        barrier.abort()
        barrier.reset(1)
        assert barrier.parties == 1 and not barrier.broken
        barrier.wait()  # single party: returns immediately

    def test_timeout_marks_broken(self):
        barrier = SharedBarrier(2, timeout=0.05)
        with pytest.raises(BrokenBarrierError):
            barrier.wait()

    def test_invalid_parties(self):
        with pytest.raises(ValueError):
            SharedBarrier(0)
        with pytest.raises(ValueError):
            SharedBarrier(2).reset(0)


class TestSyncArena:
    def test_fetch_add_is_cumulative(self):
        arena = SyncArena(capacity=8)
        slot = arena.slot(0)
        assert [slot.fetch_add() for _ in range(4)] == [0, 1, 2, 3]

    def test_slots_are_independent(self):
        arena = SyncArena(capacity=16)
        a, b = arena.slot(0), arena.slot(1)
        a.fetch_add()
        a.fetch_add()
        assert b.fetch_add() == 0

    def test_levels_are_independent(self):
        """The same ordinal at different team levels must never share a cell."""
        arena = SyncArena(capacity=16)
        outer = arena.slot(0, level=0)
        inner = arena.slot(0, level=1)
        outer.fetch_add()
        outer.fetch_add()
        assert inner.fetch_add() == 0

    def test_level_outside_namespace_rejected(self):
        arena = SyncArena(capacity=8)
        with pytest.raises(ValueError):
            arena.slot(0, level=shm.MAX_TEAM_LEVELS)

    def test_capacity_must_be_level_aligned(self):
        with pytest.raises(ValueError):
            SyncArena(capacity=7)

    def test_new_ordinal_resets_recycled_cell(self):
        # Ordinals recycle cells modulo capacity / MAX_TEAM_LEVELS per level:
        # with capacity 8 every level-0 ordinal lands on the same cell, and a
        # fresh ordinal must reset the recycled counter.
        arena = SyncArena(capacity=8)
        old = arena.slot(1)
        old.fetch_add()
        old.fetch_add()
        recycled = arena.slot(2)
        assert recycled.fetch_add() == 0

    def test_dynamic_state_exhausts_exactly(self):
        arena = SyncArena(capacity=8)
        state = ProcessDynamicState(arena.slot(0), total_chunks=3)
        claims = [state.next_chunk() for _ in range(5)]
        assert claims == [0, 1, 2, None, None]

    def test_guided_state_covers_range_with_decaying_chunks(self):
        arena = SyncArena(capacity=8)
        state = ProcessGuidedState(arena.slot(0), total=100, min_chunk=2, num_threads=4)
        claims = []
        while (claim := state.next_range()) is not None:
            claims.append(claim)
        # Exhaustive and disjoint:
        covered = sorted(i for begin, count in claims for i in range(begin, begin + count))
        assert covered == list(range(100))
        # Decaying chunk sizes, bounded below by min_chunk (except the tail,
        # which takes whatever remains — same as the in-process scheduler):
        sizes = [count for _, count in claims]
        assert sizes[0] == 25 and min(sizes[:-1]) >= 2
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))


def test_fork_available_reports_platform_truth():
    import multiprocessing

    assert fork_available() == ("fork" in multiprocessing.get_all_start_methods())


def test_require_fork_is_silent_where_fork_exists():
    if fork_available():
        shm.require_fork("a component under test")  # must not raise


class _PoolFill:
    """Picklable ``process_safe`` SPMD owner: each member marks its slot."""

    process_safe = True

    def __init__(self) -> None:
        self.out = shared_zeros(4)

    def run(self) -> None:
        from repro.runtime.context import get_thread_id

        self.out[get_thread_id()] = 1.0


class TestSharedArrayLifecycle:
    """Regressions for the owner-only-unlink / atexit-symmetry contract."""

    def test_owner_close_unlinks_the_segment(self):
        arr = shared_zeros(4)
        name = arr.name
        arr.close()
        with pytest.raises(FileNotFoundError):
            shm._attach_shared_array(name, (4,), "<f8")

    def test_non_owner_close_never_unlinks(self):
        arr = shared_zeros(4)
        try:
            clone = pickle.loads(pickle.dumps(arr))
            clone.close()
            # The segment survives the attached party's close: a fresh attach
            # still reaches the same pages.
            again = pickle.loads(pickle.dumps(arr))
            try:
                again[0] = 7.0
                assert arr[0] == 7.0
            finally:
                again.close()
        finally:
            arr.close()

    def test_double_close_safe_for_owner_and_attached(self):
        arr = shared_zeros(4)
        clone = pickle.loads(pickle.dumps(arr))
        # Explicit close unregisters the atexit net for both roles, so the
        # second close (what the net would have done) must be a no-op.
        clone.close()
        clone.close()
        arr.close()
        arr.close()

    def test_interpreter_exit_without_close_leaves_no_residue(self):
        """The atexit net unlinks segments a raising body never closed."""
        import subprocess
        import sys
        from pathlib import Path

        if not Path("/dev/shm").is_dir():
            pytest.skip("no /dev/shm on this platform")
        src = str(Path(shm.__file__).resolve().parents[2])
        script = (
            "import sys\n"
            f"sys.path.insert(0, {src!r})\n"
            "from repro.runtime import shm\n"
            "arr = shm.shared_zeros(64)\n"
            "print(arr.name, flush=True)\n"
            "raise ValueError('body raised before cleanup')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode != 0
        name = proc.stdout.strip()
        assert name.startswith("aomp_")
        assert not (Path("/dev/shm") / name).exists()

    @pytest.mark.skipif(not fork_available(), reason="process backend needs fork")
    def test_failing_process_region_leaves_no_new_segments(self):
        from pathlib import Path

        from repro.runtime.team import parallel_region

        if not Path("/dev/shm").is_dir():
            pytest.skip("no /dev/shm on this platform")
        before = {path.name for path in Path("/dev/shm").glob("aomp_*")}

        def body():
            raise ValueError("boom")

        with pytest.raises(Exception):
            parallel_region(body, num_threads=2, backend="processes")
        after = {path.name for path in Path("/dev/shm").glob("aomp_*")}
        assert after <= before

    def test_detach_all_closes_attachments_only(self):
        arr = shared_zeros(4)
        try:
            clone = pickle.loads(pickle.dumps(arr))
            shm.detach_all()
            assert clone.np is None
            arr[0] = 1.0  # the owner stays attached
            assert arr[0] == 1.0
        finally:
            arr.close()

    @pytest.mark.skipif(not fork_available() or not os.path.isdir("/proc"), reason="needs fork and /proc")
    def test_pool_worker_unmaps_a_finished_region_segments(self):
        """A persistent pool worker must not keep every region's unlinked
        segments mapped (their pages would never be freed)."""
        from repro.runtime.backend import ProcessBackend
        from repro.runtime.team import parallel_region

        backend = ProcessBackend()
        assert backend.prewarm(1)  # fork first: the segment must be attached, not inherited
        body = _PoolFill()
        try:
            parallel_region(body.run, num_threads=2, backend=backend, name="pool-detach")
            assert body.out.np.tolist() == [1.0, 1.0, 0.0, 0.0]
            for proc in backend._pool._procs:
                with open(f"/proc/{proc.pid}/maps", encoding="utf-8") as fh:
                    assert body.out.name not in fh.read()
        finally:
            backend.shutdown()
            body.out.close()
