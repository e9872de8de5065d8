"""Work-sharing executor for *for methods*.

A *for method* exposes a loop's iteration range as its first three integer
parameters ``(start, end, step)`` (paper Section III.A).  The executor in this
module rewrites that range according to the calling thread's position in the
team and the selected schedule, then invokes the original method once per
assigned chunk — exactly the behaviour of the ``around`` advice in the paper's
Figures 10 (static) and 11 (dynamic).

The executor also:

* records one ``CHUNK`` trace event per executed chunk (consumed by
  :mod:`repro.perf`),
* optionally installs an :class:`~repro.runtime.ordered.OrderedRegion`,
* optionally performs the implicit end-of-loop barrier (``nowait=False``).

Outside a parallel region the full range is executed directly — the paper's
sequential-semantics guarantee.

Hot-path design: per-chunk dispatch is the cost the paper's claim lives or
dies by, so the executor splits into a *traced* path (timestamps + one
``CHUNK`` event per chunk) and an *untraced* path that does nothing per chunk
beyond the claim and the body call.  Static plans come from the memoised
:func:`~repro.runtime.scheduler.cached_partition`; dynamic/guided claims are
batched (several chunks per lock or arena round-trip).
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Hashable

import repro.obs.registry as obsreg
from repro.runtime import context as ctx
from repro.runtime import faults
from repro.runtime.config import get_config
from repro.runtime.barrier import BrokenBarrierError
from repro.runtime.exceptions import BackendCapabilityError, SchedulingError
from repro.runtime.ordered import OrderedRegion, install_ordered_region
from repro.runtime.shm import ProcessDynamicState, ProcessGuidedState
from repro.runtime.scheduler import (
    PARTITION_CACHE_MAX_CHUNKS,
    CollapsedRange,
    DynamicScheduler,
    GuidedScheduler,
    LoopChunk,
    Schedule,
    cached_partition,
    make_scheduler,
    parse_schedule_spec,
    partition_chunk_count,
)
from repro.runtime.trace import EventKind, NO_REGION, TraceRecorder, get_global_recorder, global_tracing_active

#: metric slot per concrete schedule — resolved once at import so the hot
#: paths pay a dict-free constant lookup.
_CHUNK_SLOTS = {
    Schedule.STATIC_BLOCK: obsreg.CHUNK_SLOTS["static_block"],
    Schedule.STATIC_CYCLIC: obsreg.CHUNK_SLOTS["static_cyclic"],
    Schedule.DYNAMIC: obsreg.CHUNK_SLOTS["dynamic"],
    Schedule.GUIDED: obsreg.CHUNK_SLOTS["guided"],
}
_SERIAL_SLOT = obsreg.CHUNK_SLOTS["serial"]


def _loop_encounter_key(loop_name: str) -> Hashable:
    """Key identifying this *execution* of the loop across the whole team.

    The region body is SPMD, so the *n*-th time each member reaches the loop
    corresponds to the same logical loop execution; a per-member counter keyed
    by loop name therefore yields matching keys on every member.
    """
    context = ctx.current_context()
    assert context is not None
    counters: dict[str, int] = context.scratch.setdefault("loop_counters", {})
    occurrence = counters.get(loop_name, 0)
    counters[loop_name] = occurrence + 1
    return ("for", loop_name, occurrence)


def _loop_ordinal(context: ctx.ExecutionContext) -> int:
    """Monotone per-member counter of workshared loops in this region.

    SPMD execution makes the counter identical on every member, so it can
    index the team's pre-allocated cross-process claim arena (process teams
    cannot create new shared state after their workers exist).
    """
    ordinal = context.scratch.get("loop_ordinal", 0)
    context.scratch["loop_ordinal"] = ordinal + 1
    return ordinal


def collapse_loop(
    body: Callable[..., Any],
    start: int,
    end: int,
    step: int,
    args: tuple,
    collapse: int,
    *,
    pin_rows: bool = False,
) -> "tuple[Callable[..., Any], int, int, int, tuple, CollapsedRange]":
    """Linearise a ``collapse(n)`` for method into a flat 1-D for method.

    The collapsed for method exposes ``n`` ``(start, end, step)`` triples as
    its first ``3n`` parameters; the first triple arrives through the normal
    ``run_for`` range arguments and the remaining ``3 * (n - 1)`` lead
    ``args``.  Returns ``(flat_body, 0, units, 1, rest_args, crange)`` where
    ``flat_body`` decodes each flat sub-range back into rectangular calls of
    the original method (:meth:`CollapsedRange.segments`) — so every
    scheduler, claim arena and the adaptive tuner compose with collapse
    untouched, simply by working on the flat range.

    With ``pin_rows`` the schedulable unit is a whole row (the innermost
    range with outer indices fixed) instead of a single index tuple.
    """
    if collapse < 2:
        raise SchedulingError(f"collapse must be >= 2, got {collapse}")
    needed = 3 * (collapse - 1)
    if len(args) < needed:
        raise SchedulingError(
            f"collapse({collapse}) for method must receive {3 * collapse} range "
            f"parameters; only {3 + len(args)} positional arguments were passed"
        )
    dims = [(int(start), int(end), int(step))]
    for d in range(collapse - 1):
        lo, hi, st = args[3 * d : 3 * d + 3]
        dims.append((int(lo), int(hi), int(st)))
    rest = tuple(args[needed:])
    crange = CollapsedRange(tuple(dims))
    decode = crange.row_segments if pin_rows else crange.segments
    units = crange.outer_total if pin_rows else crange.total

    def flat_body(flat_start: int, flat_end: int, flat_step: int, *extra: Any, **kwargs: Any) -> Any:
        # flat_step is always 1: the linearised space is dense by construction.
        result: Any = None
        for params in decode(flat_start, flat_end):
            result = body(*params, *extra, **kwargs)
        return result

    flat_body.__name__ = getattr(body, "__name__", "<loop>")
    return flat_body, 0, units, 1, rest, crange


def run_for(
    body: Callable[..., Any],
    start: int,
    end: int,
    step: int,
    *args: Any,
    schedule: "str | Schedule | None" = None,
    chunk: int = 1,
    loop_name: str | None = None,
    collapse: int = 1,
    pin_rows: bool = False,
    ordered: bool = False,
    nowait: bool = False,
    weight: Callable[[int], float] | None = None,
    **kwargs: Any,
) -> Any:
    """Execute for-method ``body`` with its range distributed over the team.

    Parameters
    ----------
    body:
        The original for method; called as ``body(chunk_start, chunk_end,
        step, *args, **kwargs)`` for each chunk assigned to this thread.
    start, end, step:
        The full loop range as passed by the caller of the for method.
    schedule, chunk:
        Loop schedule and chunk size (``chunk`` applies to cyclic, dynamic and
        guided schedules).  ``None`` uses the configured default
        (``AOMP_SCHEDULE``); OpenMP-style ``"kind,chunk"`` specs are accepted.
        ``"auto"`` defers the choice to the adaptive tuner (:mod:`repro.tune`):
        each invocation runs a concrete schedule the tuner picked for this
        loop site — or the serial fallback when the loop is too small to
        amortise team spin-up — and the measured wall time feeds the search.
    loop_name:
        Name recorded in trace events; defaults to ``body.__name__``.
    collapse:
        Number of perfectly nested loop dimensions the for method exposes
        (OpenMP's ``collapse(n)`` clause).  With ``collapse=n`` the method's
        first ``3n`` parameters are ``n`` ``(start, end, step)`` triples
        (the first through the normal range arguments, the rest leading
        ``*args``); the combined iteration space is linearised and shared
        under ``schedule`` exactly like a 1-D loop — every schedule,
        including ``"auto"``, batched claims and the process arenas, composes
        unchanged.  Trace ``CHUNK`` events and ``weight`` then refer to flat
        linearised indices.
    pin_rows:
        With ``collapse``: make whole *rows* (the innermost range with outer
        indices fixed) the schedulable unit, so no row is ever split across
        chunks.  Implied by ``ordered``.
    ordered:
        Whether an ordered region spanning the full range should be installed
        while the loop runs (needed when the loop body uses ``@Ordered``).
        With ``collapse=2`` the ordered index is the outer dimension's and
        rows are pinned; deeper ordered collapses are rejected.
    nowait:
        Skip the implicit barrier at the end of the work-shared loop.
    weight:
        Optional per-iteration weight function recorded with each chunk so the
        performance model can account for non-uniform iteration costs.

    Returns the result of the last chunk invocation on this thread (for
    methods are normally ``void``, mirroring the paper).
    """
    context = ctx.current_context()

    ordered_range = (start, end, step)
    if collapse > 1:
        if ordered and collapse > 2:
            raise SchedulingError(
                "ordered is only supported with collapse=2 (the ordered index is "
                f"the outer dimension's), got collapse={collapse}"
            )
        body, start, end, step, args, _crange = collapse_loop(
            body, start, end, step, args, collapse, pin_rows=pin_rows or ordered
        )

    # Zero-trip fast path: nothing to execute means no scheduler state, no
    # CHUNK trace events and no tuner observation — a zero-trip "auto"
    # invocation would otherwise poison the site's timing samples.  The body
    # is not invoked at all (matching what a team member with no chunks
    # does), and in a team the loop ordinal is still claimed and the implicit
    # barrier still performed, so SPMD alignment and synchronisation
    # semantics are unchanged.
    zero_trip = LoopChunk(start, end, step).count == 0

    if context is None or context.team.size == 1:
        if zero_trip:
            return None
        return _run_sequential(body, start, end, step, args, kwargs, context, loop_name, weight)

    team = context.team
    name = loop_name or getattr(body, "__name__", "<loop>")
    parsed, spec_chunk = parse_schedule_spec(
        schedule if schedule is not None else get_config().default_schedule
    )
    if spec_chunk is not None and chunk == 1:
        chunk = spec_chunk
    # Claimed unconditionally so the ordinal stays aligned across members and
    # across schedule kinds (the body is SPMD: every member sees the same
    # loops in the same order).
    ordinal = _loop_ordinal(context)

    if zero_trip:
        if not nowait:
            team.barrier(label=f"for:{name}")
        return None

    if ordered and team.is_process_team:
        raise BackendCapabilityError(
            f"loop {name!r}: ordered execution needs a shared Python heap; "
            "isolated-heap teams (process or distributed backends) cannot "
            "honour it (weave with threads, or mark the region as requiring "
            "shared locals to get the automatic fallback)"
        )

    if faults.active():
        # One wrapper install per loop while a fault plan is armed: each chunk
        # dispatch then passes the "chunk" injection site.  Inactive runs pay
        # exactly the active() flag check above.
        body = faults.wrap_chunk_body(body, member=context.thread_id, team=team)

    ordered_region: OrderedRegion | None = None
    previous_ordered: OrderedRegion | None = None
    if ordered:
        loop_key = _loop_encounter_key(f"{name}#ordered")
        ordered_region = team.shared_slot(loop_key, lambda: OrderedRegion(*ordered_range))
        previous_ordered = install_ordered_region(ordered_region)

    result: Any = None
    barrier_done = False
    try:
        if parsed is Schedule.AUTO:
            # The auto path runs the implicit barrier itself, *inside* its
            # measurement window: the master's wall time then approximates
            # the loop phase makespan, which is what the tuner compares.
            result = _run_auto(
                body, start, end, step, args, kwargs, context, team, name, ordinal, nowait, weight
            )
            barrier_done = not nowait
        else:
            result = _dispatch_schedule(
                body, parsed, chunk, start, end, step, args, kwargs, context, team, name, ordinal, weight
            )
    finally:
        if ordered:
            install_ordered_region(previous_ordered)

    if not nowait and not barrier_done:
        team.barrier(label=f"for:{name}")
    return result


# ---------------------------------------------------------------------------
# execution paths
# ---------------------------------------------------------------------------


def _dispatch_schedule(
    body: Callable[..., Any],
    parsed: Schedule,
    chunk: int,
    start: int,
    end: int,
    step: int,
    args: tuple,
    kwargs: dict,
    context: "ctx.ExecutionContext",
    team,
    name: str,
    ordinal: int,
    weight: Callable[[int], float] | None,
) -> Any:
    """Execute this member's share of the loop under a *concrete* schedule.

    Shared by the normal ``run_for`` path and the adaptive (``auto``) path,
    which calls it with whatever schedule the tuner decided for this
    invocation.
    """
    if parsed is Schedule.GUIDED:
        scheduler = make_scheduler(parsed, chunk=chunk)
        if (slot := team.proc_loop_slot(ordinal)) is not None:
            total = LoopChunk(start, end, step).count
            state = ProcessGuidedState(slot, total, scheduler.min_chunk, team.size)
        else:
            loop_key = _loop_encounter_key(name)
            state = team.shared_slot(
                loop_key, lambda: scheduler.new_guided_state(start, end, step, team.size)
            )
        return _run_guided(body, scheduler, state, start, end, step, args, kwargs, team, name, weight)
    if parsed is Schedule.DYNAMIC:
        scheduler = make_scheduler(parsed, chunk=chunk)
        if (slot := team.proc_loop_slot(ordinal)) is not None:
            total = LoopChunk(start, end, step).count
            total_chunks = (total + scheduler.chunk - 1) // scheduler.chunk
            state = ProcessDynamicState(slot, total_chunks, team.size)
        else:
            loop_key = _loop_encounter_key(name)
            state = team.shared_slot(
                loop_key, lambda: scheduler.new_state(start, end, step, team.size)
            )
        return _run_dynamic(body, scheduler, state, start, end, step, args, kwargs, team, name, weight)
    return _run_chunk_list(
        body,
        _static_chunks(parsed, chunk, team.size, context.thread_id, start, end, step),
        args,
        kwargs,
        team,
        name,
        weight,
        slot=_CHUNK_SLOTS.get(parsed, obsreg.CHUNKS_OTHER),
    )


def _run_auto(
    body: Callable[..., Any],
    start: int,
    end: int,
    step: int,
    args: tuple,
    kwargs: dict,
    context: "ctx.ExecutionContext",
    team,
    name: str,
    ordinal: int,
    nowait: bool,
    weight: Callable[[int], float] | None,
) -> Any:
    """One invocation of an adaptively scheduled loop.

    Every member must execute the *same* concrete schedule, so the decision
    is agreed on before dispatch: in-process teams share the tuner's ticket
    through a team slot (first arriver asks the tuner); process teams cannot
    share the ticket object, so the master — whose process hosts the
    authoritative tuner — publishes the encoded plan through the shm
    plan-publication arena and workers wait for it.

    The master measures wall time from its dispatch start to the far side of
    the implicit barrier (≈ the loop phase makespan) and feeds it back to the
    tuner, recording the acted-on decision as a ``TUNE_DECISION`` event.
    """
    # Imported here, not at module level: repro.tune imports runtime modules
    # (config, scheduler), so a module-level import would make
    # ``import repro.tune`` as the first repro import a circular-import crash.
    from repro.tune.tuner import Candidate, tuner_for_team

    total = LoopChunk(start, end, step).count
    thread_id = context.thread_id
    ticket = None
    ticket_key = None
    if (slot := team.proc_tune_slot(ordinal)) is not None:
        if thread_id == 0:
            ticket = tuner_for_team(team).begin_invocation(
                name,
                total,
                team.size,
                backend=team.backend_name,
                spinup_scale=team.backend_spinup_scale,
            )
            code, size, flags = ticket.encode()
            slot.publish((code, size, flags, ticket.invocation))
            candidate = ticket.candidate
        else:
            code, size, flags, _invocation = slot.read()
            candidate = Candidate.decode(code, size, flags)
    else:
        ticket_key = _loop_encounter_key(f"{name}#auto")
        ticket = team.shared_slot(
            ticket_key,
            lambda: tuner_for_team(team).begin_invocation(
                name,
                total,
                team.size,
                backend=team.backend_name,
                spinup_scale=team.backend_spinup_scale,
            ),
        )
        candidate = ticket.candidate

    began = time.perf_counter()
    result: Any = None
    if candidate.serial:
        # Serial fallback: the loop is too small to amortise team spin-up —
        # the master executes the untouched range, everyone else falls
        # through to the barrier.
        if thread_id == 0:
            result = _run_chunk_list(
                body, (LoopChunk(start, end, step),), args, kwargs, team, name, weight, slot=_SERIAL_SLOT
            )
    else:
        result = _dispatch_schedule(
            body,
            candidate.schedule,
            candidate.chunk,
            start,
            end,
            step,
            args,
            kwargs,
            context,
            team,
            name,
            ordinal,
            weight,
        )
    if not nowait:
        team.barrier(label=f"for:{name}")
    elapsed = time.perf_counter() - began

    if ticket is not None and thread_id == 0:
        payload = tuner_for_team(team).observe(ticket, elapsed)
        if team.metrics:
            obsreg.inc(obsreg.TUNE_DECISIONS)
        if team.tracing:
            team.record(EventKind.TUNE_DECISION, **payload)
        if ticket_key is not None and not nowait:
            # Each invocation has its own slot key; after the implicit
            # barrier every member has long since fetched the ticket, so the
            # master can drop it — otherwise a long-lived region running an
            # auto loop in a while-loop grows team._shared without bound.
            # (nowait loops keep the slot: a slow member may not have
            # fetched it yet, and re-creating it would double-decide.)
            team.drop_slot(ticket_key)
    return result


def _run_sequential(
    body: Callable[..., Any],
    start: int,
    end: int,
    step: int,
    args: tuple,
    kwargs: dict,
    context: "ctx.ExecutionContext | None",
    loop_name: str | None,
    weight: Callable[[int], float] | None,
) -> Any:
    """Sequential semantics: run the untouched range (team of one / no team).

    With a recorder attached (the team's, or — outside any region — the
    process-global one, honouring the global tracing switch) the execution is
    recorded as a single full-range chunk; without one the body is invoked
    with no per-call bookkeeping at all.
    """
    recorder: TraceRecorder | None = None
    region_id = NO_REGION
    thread_id = 0
    if context is not None:
        team = context.team
        metrics = team.metrics
        if team.tracing:
            recorder = team.recorder
            region_id = team.region_id
            thread_id = context.thread_id
    else:
        metrics = get_config().metrics
        if global_tracing_active() and get_config().tracing:
            recorder = get_global_recorder()
    if metrics:
        # The whole range runs as one chunk; account it under "serial" so
        # sequential-semantics executions are visible next to team schedules.
        obsreg.inc(_SERIAL_SLOT)

    if recorder is None:
        return body(start, end, step, *args, **kwargs)

    name = loop_name or getattr(body, "__name__", "<loop>")
    began = time.perf_counter()
    result = body(start, end, step, *args, **kwargs)
    elapsed = time.perf_counter() - began
    _record_chunk(recorder, region_id, thread_id, name, LoopChunk(start, end, step), weight, elapsed)
    return result


def _static_chunks(
    parsed: Schedule, chunk: int, team_size: int, thread_id: int, start: int, end: int, step: int
):
    """This member's chunks for a static schedule: cached plan or stream.

    Small plans come from the shared :func:`cached_partition` memo; plans too
    large to pin (fine-grained cyclic over a huge range) are streamed from the
    scheduler generator instead of being materialised for the whole team.
    """
    total = LoopChunk(start, end, step).count
    if partition_chunk_count(parsed, chunk, team_size, total) > PARTITION_CACHE_MAX_CHUNKS:
        return make_scheduler(parsed, chunk).chunks_for(thread_id, team_size, start, end, step)
    return cached_partition(team_size, start, end, step, schedule=parsed, chunk=chunk)[thread_id]


def _run_chunk_list(
    body: Callable[..., Any],
    pieces,
    args: tuple,
    kwargs: dict,
    team,
    name: str,
    weight: Callable[[int], float] | None,
    slot: int = obsreg.CHUNKS_OTHER,
) -> Any:
    """Execute this member's chunks (materialised plan or streamed generator)."""
    result: Any = None
    if not team.tracing:
        executed = 0
        for piece in pieces:
            result = body(piece.start, piece.end, piece.step, *args, **kwargs)
            executed += 1
        # One batched increment per loop, not one per chunk: the untraced
        # path's per-chunk cost stays a local integer add.
        if executed and team.metrics:
            obsreg.inc(slot, executed)
        return result
    for piece in pieces:
        result = _run_traced_chunk(body, piece, args, kwargs, team, name, weight, slot)
    return result


def _check_abort(team, name: str) -> None:
    """Fail fast between chunk claims when the team barrier was aborted.

    External cancellation (``Team.abort`` — the compute service's cancel
    path, the worker monitor's death diagnosis) breaks the barrier, but a
    member deep in a dynamic/guided claim loop would otherwise keep claiming
    until the range runs dry and only notice at the closing barrier.  One
    ``team.broken`` read per claim round-trip bounds cancellation latency to
    a single batch instead of the loop remainder.
    """
    if team.broken:
        raise BrokenBarrierError(
            f"loop {name!r} aborted: team {team.name!r} barrier is broken"
        )


def _run_dynamic(
    body: Callable[..., Any],
    scheduler: DynamicScheduler,
    state,
    start: int,
    end: int,
    step: int,
    args: tuple,
    kwargs: dict,
    team,
    name: str,
    weight: Callable[[int], float] | None,
) -> Any:
    """Claim batched chunk indices and run them; per-chunk cost is the goal.

    The untraced loop touches only integers: one ``next_chunks`` round-trip
    per batch, then pure arithmetic and the body call per chunk.
    """
    total = LoopChunk(start, end, step).count
    size = scheduler.chunk
    batch = scheduler.batch
    result: Any = None
    if not team.tracing:
        executed = 0
        while True:
            _check_abort(team, name)
            claim = state.next_chunks(batch)
            if claim is None:
                if executed and team.metrics:
                    obsreg.inc(_CHUNK_SLOTS[Schedule.DYNAMIC], executed)
                return result
            first, count = claim
            executed += count
            for index in range(first, first + count):
                begin = index * size
                span = total - begin
                if span > size:
                    span = size
                chunk_start = start + begin * step
                result = body(chunk_start, chunk_start + span * step, step, *args, **kwargs)
    for piece in scheduler.chunks_from(state, start, end, step):
        _check_abort(team, name)
        result = _run_traced_chunk(body, piece, args, kwargs, team, name, weight, _CHUNK_SLOTS[Schedule.DYNAMIC])
    return result


def _run_guided(
    body: Callable[..., Any],
    scheduler: GuidedScheduler,
    state,
    start: int,
    end: int,
    step: int,
    args: tuple,
    kwargs: dict,
    team,
    name: str,
    weight: Callable[[int], float] | None,
) -> Any:
    """Claim batched guided blocks and run them."""
    batch = scheduler.batch
    result: Any = None
    if not team.tracing:
        executed = 0
        while True:
            _check_abort(team, name)
            blocks = state.next_ranges(batch)
            if not blocks:
                if executed and team.metrics:
                    obsreg.inc(_CHUNK_SLOTS[Schedule.GUIDED], executed)
                return result
            executed += len(blocks)
            for begin, count in blocks:
                chunk_start = start + begin * step
                result = body(chunk_start, chunk_start + count * step, step, *args, **kwargs)
    for piece in scheduler.chunks_from_guided(state, start, end, step):
        _check_abort(team, name)
        result = _run_traced_chunk(body, piece, args, kwargs, team, name, weight, _CHUNK_SLOTS[Schedule.GUIDED])
    return result


def _run_traced_chunk(
    body: Callable[..., Any],
    piece: LoopChunk,
    args: tuple,
    kwargs: dict,
    team,
    name: str,
    weight: Callable[[int], float] | None,
    slot: int = obsreg.CHUNKS_OTHER,
) -> Any:
    """Timed body invocation recording one ``CHUNK`` event."""
    began = time.perf_counter()
    try:
        return body(piece.start, piece.end, piece.step, *args, **kwargs)
    finally:
        if team.metrics:
            obsreg.inc(slot)
        _record_chunk(
            team.recorder,
            team.region_id,
            ctx.get_thread_id(),
            name,
            piece,
            weight,
            time.perf_counter() - began,
        )


def _record_chunk(
    recorder: TraceRecorder,
    region_id: int,
    thread_id: int,
    name: str,
    piece: LoopChunk,
    weight: Callable[[int], float] | None,
    elapsed: float | None = None,
) -> None:
    total_weight: float | None = None
    if weight is not None:
        total_weight = float(sum(weight(i) for i in piece.indices()))
    recorder.record(
        EventKind.CHUNK,
        region_id,
        thread_id,
        loop=name,
        start=piece.start,
        end=piece.end,
        step=piece.step,
        count=piece.count,
        weight=total_weight,
        elapsed=elapsed,
    )


class _ClaimOnce:
    """Team-shared cell granting exactly one successful claim."""

    __slots__ = ("_lock", "_claimed")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._claimed = False

    def try_claim(self) -> bool:
        with self._lock:
            if self._claimed:
                return False
            self._claimed = True
            return True


def claim_section(name: str = "section") -> bool:
    """First-arriver claim for one SPMD encounter of a section-style construct.

    Every team member is expected to reach the call (the region body is
    SPMD); exactly one member — the first to arrive — gets ``True`` and
    should execute the construct, the rest get ``False`` and skip it.
    Outside a parallel region (or in a team of one) the caller always wins.

    Works on every backend: in-process teams claim through a team-shared
    cell, process teams through the pre-allocated cross-process claim arena
    (the construct consumes one loop ordinal either way, keeping SPMD
    ordinal alignment with work-shared loops).  This is the claim primitive
    behind the ``@Section`` annotation.
    """
    context = ctx.current_context()
    if context is None or context.team.size == 1:
        return True
    team = context.team
    ordinal = _loop_ordinal(context)
    if (slot := team.proc_loop_slot(ordinal)) is not None:
        return slot.fetch_add() == 0
    key = _loop_encounter_key(f"{name}#section")
    cell: _ClaimOnce = team.shared_slot(key, _ClaimOnce)
    return cell.try_claim()


def run_sections(
    *sections: Callable[[], Any],
    schedule: "str | Schedule" = Schedule.DYNAMIC,
    chunk: int = 1,
    nowait: bool = False,
    name: str | None = None,
) -> "dict[int, Any]":
    """Execute each of ``sections`` exactly once, distributed over the team.

    The OpenMP ``sections`` construct: ``sections`` are zero-argument
    callables (use closures/``functools.partial`` to bind arguments); every
    one of them is executed by exactly one team member, with the assignment
    decided by ``schedule`` over the section indices — the construct is
    dispatched through the same schedule machinery as work-shared loops, so
    dynamic claiming (the default: first-free member takes the next
    section), static distributions and the cross-process claim arenas all
    apply unchanged.  Ends with the implicit team barrier unless ``nowait``.

    Outside a parallel region (or with a team of one) every section runs on
    the calling thread, in order — the paper's sequential-semantics
    guarantee.

    Returns a dict mapping section index to result **for the sections the
    calling member executed** (sequentially: all of them).  On process teams
    a section's side effects must go through shared memory, exactly like
    work-shared loop bodies.

    Tracing records one ``SECTION`` event per executed section (index +
    elapsed time) in addition to the scheduler's ``CHUNK`` events.
    """
    from repro.runtime.trace import EventKind as _EventKind

    context = ctx.current_context()
    label = name or "sections"
    results: dict[int, Any] = {}

    if context is None or context.team.size == 1:
        recorder: TraceRecorder | None = None
        region_id = NO_REGION
        thread_id = 0
        if context is not None:
            metrics = context.team.metrics
            if context.team.tracing:
                recorder = context.team.recorder
                region_id = context.team.region_id
                thread_id = context.thread_id
        else:
            metrics = get_config().metrics
            if global_tracing_active() and get_config().tracing:
                recorder = get_global_recorder()
        if metrics and sections:
            # Mirrors the CHUNK cost carrier below: one serial chunk for the
            # whole construct.
            obsreg.inc(_SERIAL_SLOT)
        total_began = time.perf_counter()
        for index, section in enumerate(sections):
            began = time.perf_counter()
            results[index] = section()
            if recorder is not None:
                recorder.record(
                    _EventKind.SECTION,
                    region_id,
                    thread_id,
                    sections=label,
                    index=index,
                    elapsed=time.perf_counter() - began,
                )
        if recorder is not None and sections:
            # Cost carrier, mirroring _run_sequential: the perf model prices
            # sections through CHUNK events (the SECTION events above are
            # markers), so the sequential path must emit one too or the work
            # would vanish from sequential/parallel comparisons.
            _record_chunk(
                recorder,
                region_id,
                thread_id,
                label,
                LoopChunk(0, len(sections), 1),
                None,
                time.perf_counter() - total_began,
            )
        return results

    team = context.team
    # Claimed even for an empty construct so ordinals stay SPMD-aligned.
    ordinal = _loop_ordinal(context)
    if not sections:
        if not nowait:
            team.barrier(label=f"sections:{label}")
        return results

    tracing = team.tracing

    def run_claimed(claim_start: int, claim_end: int, claim_step: int) -> None:
        for index in range(claim_start, claim_end, claim_step):
            began = time.perf_counter()
            results[index] = sections[index]()
            if tracing:
                team.record(
                    _EventKind.SECTION,
                    sections=label,
                    index=index,
                    elapsed=time.perf_counter() - began,
                )

    run_claimed.__name__ = label
    parsed, spec_chunk = parse_schedule_spec(schedule)
    if parsed is Schedule.AUTO:
        raise SchedulingError(
            "sections cannot be scheduled 'auto': the adaptive tuner keys on "
            "homogeneous loop sites; pick a concrete schedule (default: dynamic)"
        )
    if spec_chunk is not None and chunk == 1:
        chunk = spec_chunk
    _dispatch_schedule(
        run_claimed,
        parsed,
        chunk,
        0,
        len(sections),
        1,
        (),
        {},
        context,
        team,
        label,
        ordinal,
        None,
    )
    if not nowait:
        team.barrier(label=f"sections:{label}")
    return results


def static_partition(
    num_threads: int,
    start: int,
    end: int,
    step: int,
    *,
    schedule: "str | Schedule" = Schedule.STATIC_BLOCK,
    chunk: int = 1,
) -> list[list[LoopChunk]]:
    """Return the per-thread chunk lists for a static schedule.

    Convenience wrapper used by the hand-written threaded baselines and by
    the performance model's analytic mode (large problem sizes that are not
    actually executed).  Backed by the shared
    :func:`~repro.runtime.scheduler.cached_partition` memo; the returned
    lists are fresh copies the caller may mutate.
    """
    parsed = Schedule.parse(schedule)
    if parsed not in (Schedule.STATIC_BLOCK, Schedule.STATIC_CYCLIC):
        raise ValueError(f"schedule {schedule!r} has no static partition")
    plan = cached_partition(num_threads, start, end, step, schedule=parsed, chunk=chunk)
    return [list(chunks) for chunks in plan]
