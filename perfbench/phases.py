"""The phases of one benchmark run against one ``StreamingUpdateService``.

A run drives the service in library mode from one event loop.  After
the set-up it goes through several *cycles*; each cycle times more
set-ups and cold recoveries (on throwaway services), then runs a
*backlogged* closed-loop chunk and a *paced* open-loop chunk with
readers on the run's service.  Cycling spreads every measurement over
the whole run, so a slow stretch of a shared host weighs on each metric
alike instead of on whichever phase it happened to fall in.  The run
ends with the correctness gate, a crash with a cold recovery of the
run's own journal, and a memory measurement.

Set-up, recovery and backlogged throughput are timed in CPU seconds of
the process (both of its threads): on a shared virtual host the wall
time of the same work changes up to twofold with the time the host
takes the CPU away, which the CPU time does not count.
Only the paced chunks, whose latencies include waits by design, are
timed on the wall clock.
"""

from __future__ import annotations

import asyncio
import bisect
import gc
import random
import shutil
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy

from repro.matching import MatchResult, bounded_simulation, top_k_matches
from repro.service import ServiceConfig, StreamingUpdateService
from repro.service.delta import UpdateData
from repro.spl.matrix import SLenMatrix
from repro.versioning import GraphHistory

from perfbench.workloads import GRAPH_KEY, TAIL_DELTAS, PatternDef, Workload, crash_tail, payload

clock = time.perf_counter
cpu_clock = time.process_time

#: A paced chunk is invalid when the generator's p99 lateness exceeds this.
LATENESS_LIMIT_S = 0.1
#: Percentile tails must rest on at least this many distinct samples.
MIN_TAIL = 10
#: Longest wait for a paced chunk's last payloads to become visible.
SETTLE_WAIT_S = 30.0
#: One-delta settles the memory measurement makes after its set-up: more
#: than the service retains versions (8 by default), so the ring is full.
MEMORY_SETTLES = 12


def percentile(values, q: float) -> float:
    return float(numpy.percentile(numpy.asarray(values, dtype=float), q))


@dataclass
class RunState:
    """Inputs and bookkeeping shared by the phases of one run."""

    workload: Workload
    seed: int
    base: object
    patterns: list[PatternDef]
    stream: list
    workdir: Path
    cursor: int = 0
    sent: list = field(default_factory=list)
    failed: int = 0
    attempted: int = 0
    invalid: list = field(default_factory=list)
    #: Findings that make the paced figures (reported, not metrics) invalid.
    paced_invalid: list = field(default_factory=list)
    #: (publish time, cumulative deltas settled or quarantined), one
    #: entry per settle of the run's service.
    publishes: list = field(default_factory=list)
    undo: list = field(default_factory=list)

    def config(self, journal_dir: Optional[Path] = None) -> ServiceConfig:
        extra = {"journal_dir": str(journal_dir)} if journal_dir is not None else {}
        return ServiceConfig(**self.workload.config, **extra)

    def take(self, count: int) -> dict:
        """The next ``count`` stream deltas as one payload (recorded as sent)."""
        if self.cursor + count > len(self.stream):
            raise RuntimeError("update stream exhausted")
        body = payload(self.stream[self.cursor:self.cursor + count])
        self.cursor += count
        self.sent.append(body)
        self.attempted += count
        return body

    def ledger(self):
        """The graph every acknowledged payload so far should produce."""
        return applied(self.base, self.sent)


def applied(graph, bodies):
    """A copy of ``graph`` with every payload in ``bodies`` applied."""
    graph = graph.copy()
    for body in bodies:
        for update in UpdateData(body).updates():
            update.apply(graph)
    return graph


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
async def build(state: RunState, capture_dir: Optional[Path] = None) -> tuple[StreamingUpdateService, float, float]:
    """One timed set-up: construct, register, subscribe every pattern.

    Returns the service and the set-up's CPU and wall seconds.

    With ``capture_dir`` the set-up ends by starting a journal there
    with ``start_capture``, which writes a snapshot of the registered
    graph first.  A journal opened empty by ``register`` would hold no
    snapshot until its first compaction, and a run appends too little
    for one to come around.
    """
    gc.collect()
    started, started_cpu = clock(), cpu_clock()
    service = StreamingUpdateService(state.config())
    await service.register(GRAPH_KEY, state.base)
    for definition in state.patterns:
        await service.subscribe(GRAPH_KEY, definition.pattern_id, definition.pattern, k=definition.k)
    if capture_dir is not None:
        await service.start_capture(GRAPH_KEY, capture_dir)
    return service, cpu_clock() - started_cpu, clock() - started


def _journal_dir(state: RunState, name: str) -> Optional[Path]:
    return state.workdir / name if state.workload.journaled else None


async def set_up(state: RunState) -> tuple[StreamingUpdateService, float, float]:
    """The run's service, watched for publishes, and its set-up's CPU and wall seconds."""
    service, seconds, wall = await build(state, _journal_dir(state, "journal"))
    watch_publishes(service, state)
    return service, seconds, wall


async def setup_sample(state: RunState, index: int) -> tuple[float, float]:
    """CPU and wall seconds of one more set-up, on a throwaway service."""
    capture = _journal_dir(state, f"setup{index}")
    service, seconds, wall = await build(state, capture)
    await service.close()
    if capture is not None:
        shutil.rmtree(capture)
    return seconds, wall


def watch_publishes(service: StreamingUpdateService, state: RunState) -> None:
    """Timestamp every settle of ``service`` at its publish.

    The service has no publish hook.  It stamps the graph history with
    the settled batch in the same event-loop step that swaps in the new
    version, so wrapping ``GraphHistory.record`` for this one history
    gives the publish time and the batch size.  Quarantined deltas never
    reach the history; they count as covered from the next publish on,
    so a quarantine neither stalls nor shifts the payloads behind it.
    (``GraphHistory`` has slots, so the wrapper sits on the class and
    ignores every other instance.)
    """
    watched = service.graph_history(GRAPH_KEY)
    record = GraphHistory.record
    settled = 0

    def stamped(history, updates, version):
        nonlocal settled
        record(history, updates, version)
        if history is watched:
            now = clock()
            settled += len(updates)
            state.publishes.append((now, settled + service.stats(GRAPH_KEY)["quarantined"]))

    GraphHistory.record = stamped
    state.undo.append(lambda: setattr(GraphHistory, "record", record))


# ----------------------------------------------------------------------
# Backlogged chunk: one closed-loop client, cuts at the workload's size
# ----------------------------------------------------------------------
async def submit_round(service: StreamingUpdateService, bodies: list) -> int:
    """Submit one round's payloads at once; the number of deltas rejected.

    The payloads queue on the graph in submission order before the first
    of them is ingested, so the round's cut (on its last payload) is
    queued ahead of any deadline the first one arms: no timer, however
    slow the host or the fsyncs, can set a boundary here.
    """
    loop = asyncio.get_running_loop()
    receipts = await asyncio.gather(*[
        loop.create_task(service.submit(GRAPH_KEY, body)) for body in bodies
    ])
    return sum(receipt.rejected for receipt in receipts)


async def backlogged(state: RunState, service: StreamingUpdateService, rounds: int) -> dict:
    """``rounds`` closed-loop rounds of one cut each; the raw figures.

    Each round is submitted at once (see :func:`submit_round`) and awaits
    every receipt before the next.  The chunk's time is the CPU time of
    the process.
    """
    workload = state.workload
    size = workload.backlogged_payload
    per_round = workload.cut_size // size
    before = service.stats(GRAPH_KEY)
    gc.collect()
    started, started_cpu = clock(), cpu_clock()
    for _ in range(rounds):
        state.failed += await submit_round(service, [state.take(size) for _ in range(per_round)])
    await service.quiesce()
    elapsed, wall = cpu_clock() - started_cpu, clock() - started
    if service.backlog(GRAPH_KEY):
        # A cut fell off the payload grid (the run is invalid below);
        # settle the rest so the next chunk starts empty.
        await service.drain()
    after = service.stats(GRAPH_KEY)
    cuts = {
        reason: after["cut_reasons"].get(reason, 0) - before["cut_reasons"].get(reason, 0)
        for reason in after["cut_reasons"]
    }
    return {
        "rounds": rounds,
        "seconds": elapsed,
        "wall_seconds": wall,
        "deltas": after["settled"] - before["settled"],
        "settles": after["settles"] - before["settles"],
        "cuts": {reason: count for reason, count in cuts.items() if count},
    }


async def tracing_overhead(state: RunState, tracer, rounds: int) -> float:
    """Percent more CPU time the same backlogged rounds take traced.

    Each pass sets up a fresh service (untimed) and settles the stream's
    first ``rounds`` rounds from the base graph, so every pass does the
    same work.  The passes run untraced, traced, traced, untraced, so a
    steady drift of the host's speed cancels.  ``tracer`` is a tracer of
    its own, so these passes add nothing to the layer metrics.
    """
    workload = state.workload
    size = workload.backlogged_payload
    per_round = workload.cut_size // size
    bodies = [payload(state.stream[start:start + size])
              for start in range(0, rounds * workload.cut_size, size)]
    seconds = {False: 0.0, True: 0.0}
    for index, traced in enumerate((False, True, True, False)):
        capture = _journal_dir(state, f"overhead{index}")
        service, _, _ = await build(state, capture)
        gc.collect()
        if traced:
            tracer.install()
        try:
            started = cpu_clock()
            for start in range(0, len(bodies), per_round):
                state.failed += await submit_round(service, bodies[start:start + per_round])
            await service.quiesce()
            seconds[traced] += cpu_clock() - started
        finally:
            if traced:
                tracer.uninstall()
        state.attempted += rounds * workload.cut_size
        await service.close()
        if capture is not None:
            shutil.rmtree(capture)
    return 100 * (seconds[True] / seconds[False] - 1)


def summarize_backlogged(state: RunState, chunks: list[dict]) -> dict:
    """``ingest_dps`` (deltas per CPU second) over every chunk, and the exact-cut guard."""
    rounds = sum(chunk["rounds"] for chunk in chunks)
    settles = sum(chunk["settles"] for chunk in chunks)
    cuts: dict[str, int] = {}
    for chunk in chunks:
        for reason, count in chunk["cuts"].items():
            cuts[reason] = cuts.get(reason, 0) + count
    expected = {state.workload.cut_reason: rounds}
    if settles != rounds or cuts != expected:
        state.invalid.append(
            f"backlogged phase cut {cuts} over {settles} settles; expected {expected}"
        )
    seconds = sum(chunk["seconds"] for chunk in chunks)
    wall = sum(chunk["wall_seconds"] for chunk in chunks)
    deltas = sum(chunk["deltas"] for chunk in chunks)
    return {
        "rounds": rounds,
        "seconds": seconds,
        "wall_seconds": wall,
        "deltas": deltas,
        "settles": settles,
        "cuts": cuts,
        "chunk_dps": [chunk["deltas"] / chunk["seconds"] for chunk in chunks],
        "ingest_dps": deltas / seconds if seconds > 0 else 0.0,
        "wall_dps": deltas / wall if wall > 0 else 0.0,
    }


# ----------------------------------------------------------------------
# Paced chunk: open-loop payloads and reads on a fixed schedule
# ----------------------------------------------------------------------
async def paced(state: RunState, service: StreamingUpdateService, count: int, rng: random.Random) -> dict:
    """``count`` open-loop payloads, and reads beside them; the raw samples.

    A payload is visible at the first publish whose covered count
    (deltas settled or quarantined, which go in acceptance order) reaches
    the accepted count at it.  A payload that never becomes visible is
    left out of the sample; the gate counts its deltas in ``failed``.
    """
    workload = state.workload
    loop = asyncio.get_running_loop()
    reads = max(1, int(count / workload.paced_rate * workload.read_rate))
    bodies = [state.take(workload.paced_payload) for _ in range(count)]
    covered_at_start = service.stats(GRAPH_KEY)["accepted"]

    offset_send, offset_read = rng.random(), rng.random()
    gc.collect()
    start = clock() + 0.05
    events = [(start + (i + offset_send) / workload.paced_rate, 0, i) for i in range(count)]
    events += [(start + (j + offset_read) / workload.read_rate, 1, j) for j in range(reads)]
    events.sort()

    acks = [0.0] * count
    accepted = [0] * count
    read_latency, read_service = [], []
    lateness = []
    tasks = []

    async def send(index: int) -> None:
        receipt = await service.submit(GRAPH_KEY, bodies[index])
        acks[index] = clock()
        accepted[index] = receipt.accepted
        state.failed += receipt.rejected

    read_targets = [definition.pattern_id for definition in state.patterns]
    for due, kind, index in events:
        now = clock()
        if due > now:
            await asyncio.sleep(due - now)
            now = clock()
        lateness.append(now - due)
        if kind == 0:
            tasks.append(loop.create_task(send(index)))
            continue
        began = clock()
        try:
            _read(service, workload.read_mix[index % len(workload.read_mix)],
                  read_targets[rng.randrange(len(read_targets))])
        except Exception as exc:  # noqa: BLE001 - a failed read is counted, not fatal
            state.failed += 1
            state.invalid.append(f"read failed: {exc!r}")
        finished = clock()
        read_latency.append(finished - due)
        read_service.append(finished - began)
    state.attempted += reads
    backlog_end = service.backlog(GRAPH_KEY)
    await asyncio.gather(*tasks)

    # The queue takes submissions in the order the tasks were created.
    targets, running = [], covered_at_start
    for index in range(count):
        running += accepted[index]
        targets.append(running if accepted[index] else None)
    last = max((target for target in targets if target is not None), default=0)
    deadline = clock() + SETTLE_WAIT_S
    while (not state.publishes or state.publishes[-1][1] < last) and clock() < deadline:
        await asyncio.sleep(0.01)
    await service.drain()

    times = [entry[0] for entry in state.publishes]
    covered = [entry[1] for entry in state.publishes]
    dues = [event[0] for event in events if event[1] == 0]
    visible, visible_settle, ack = [], [], []
    unsettled = 0
    for index, target in enumerate(targets):
        if target is None:
            continue
        position = bisect.bisect_left(covered, target)
        if position == len(times):
            unsettled += 1
            continue
        visible.append(times[position] - dues[index])
        visible_settle.append(position)
        ack.append(acks[index] - dues[index])
    return {
        "payloads": count,
        "unsettled": unsettled,
        "reads": reads,
        "backlog_end": backlog_end,
        "visible": visible,
        "visible_settle": visible_settle,
        "ack": ack,
        "read_latency": read_latency,
        "read_service": read_service,
        "lateness": lateness,
    }


def summarize_paced(state: RunState, chunks: list[dict]) -> dict:
    """Percentiles over every chunk's samples, and the validity guards.

    The paced figures are reported, not metrics: a guard that fails
    marks them invalid (``state.paced_invalid``) without failing the run.
    """

    def pooled(name: str) -> list:
        return [value for chunk in chunks for value in chunk[name]]

    visible, visible_settle = pooled("visible"), pooled("visible_settle")
    read_latency, lateness, ack = pooled("read_latency"), pooled("lateness"), pooled("ack")
    if not visible:
        visible = visible_settle = ack = [0.0]
    report = {
        "payloads": sum(chunk["payloads"] for chunk in chunks),
        "unsettled": sum(chunk["unsettled"] for chunk in chunks),
        "reads": len(read_latency),
        "settles": len(set(visible_settle)),
        "backlog_end": max(chunk["backlog_end"] for chunk in chunks),
        "lateness_p99_ms": 1000 * percentile(lateness, 99),
        "visible_p50_ms": 1000 * percentile(visible, 50),
        "visible_p90_ms": 1000 * percentile(visible, 90),
        "ack_p50_ms": 1000 * percentile(ack, 50),
        "ack_p90_ms": 1000 * percentile(ack, 90),
        "read_p50_ms": 1000 * percentile(read_latency, 50),
        "read_p99_ms": 1000 * percentile(read_latency, 99),
        "read_service_ms": 1000 * statistics.fmean(pooled("read_service")),
        "visible_tail_settles": _tail_groups(visible, visible_settle, 90),
        "read_tail_samples": _tail_groups(read_latency, list(range(len(read_latency))), 99),
    }
    findings = state.paced_invalid
    if report["lateness_p99_ms"] > 1000 * LATENESS_LIMIT_S:
        findings.append(f"generator fell behind: lateness p99 {report['lateness_p99_ms']:.1f} ms")
    if report["backlog_end"] > state.workload.cut_size:
        findings.append(f"backlog grew: {report['backlog_end']} pending at a chunk's end")
    for name in ("visible_tail_settles", "read_tail_samples"):
        if report[name] < MIN_TAIL:
            findings.append(f"{name} = {report[name]} < {MIN_TAIL}")
    report["valid"] = not findings
    return report


def _tail_groups(values: list[float], groups: list[int], q: float) -> int:
    """How many distinct groups (settles, or single reads) lie beyond the ``q`` percentile."""
    cut = percentile(values, q)
    return len({group for value, group in zip(values, groups) if value > cut})


def _read(service: StreamingUpdateService, kind: str, pattern_id: str) -> None:
    if kind == "top_k":
        service.top_k(GRAPH_KEY, 5, pattern_id=pattern_id)
    elif kind == "as_of":
        version = service.snapshot(GRAPH_KEY).version
        service.matches(GRAPH_KEY, as_of=max(0, version - 3), pattern_id=pattern_id)
    else:
        service.matches(GRAPH_KEY, pattern_id=pattern_id)


# ----------------------------------------------------------------------
# Correctness gate
# ----------------------------------------------------------------------
def check_correctness(snapshot, patterns: list[PatternDef], ledger) -> list[str]:
    """Problems with a published snapshot, judged from scratch.

    The graph must equal the ledger of acknowledged payloads, and every
    pattern's matches (and top-k, where subscribed with ``k``) must equal
    a from-scratch bounded simulation on that graph, collapsed to the
    empty relation when some pattern node has no match.
    """
    problems = []
    if snapshot.data != ledger:
        problems.append("published graph differs from the acknowledged ledger")
    slen = SLenMatrix.from_graph(snapshot.data)
    for definition in patterns:
        state = snapshot.state_for(definition.pattern_id)
        oracle = MatchResult(
            bounded_simulation(definition.pattern, snapshot.data, slen), enforce_totality=True
        )
        if state.result.as_dict() != oracle.as_dict():
            problems.append(f"pattern {definition.pattern_id!r}: matches differ from the oracle")
        if definition.k is not None:
            expected = top_k_matches(oracle, definition.pattern, snapshot.data, slen, definition.k)
            published = {node: list(entries) for node, entries in (state.top_k or {}).items()}
            if published != expected:
                problems.append(f"pattern {definition.pattern_id!r}: top-{definition.k} differs")
    return problems


def gate(state: RunState, service: StreamingUpdateService) -> list[str]:
    """Count the service's failures in ``failed``; judge its final snapshot.

    Deltas accepted but neither settled nor quarantined were lost; they
    count as failed alongside the quarantined ones and the queue errors.
    """
    stats = service.stats(GRAPH_KEY)
    lost = stats["accepted"] - stats["settled"] - stats["quarantined"] - stats["pending"]
    state.failed += stats["quarantined"] + stats["queue_errors"] + max(0, lost)
    return check_correctness(service.snapshot(GRAPH_KEY), state.patterns, state.ledger())


# ----------------------------------------------------------------------
# Crash and cold recovery
# ----------------------------------------------------------------------
async def crash(state: RunState, service: StreamingUpdateService, crash_dir: Path, graph,
                journaled: bool) -> dict:
    """Journal a fixed tail on ``service`` from a fresh capture, then crash it.

    Recovery replays everything journaled since the last compaction, so
    a crash at an arbitrary point would replay a varying amount.  A fresh
    capture (ending any journal the service kept so far) makes the
    crashed journal one snapshot plus the fixed tail, and recovery goes
    through journal open, ``SLen`` build, subscription recompute and the
    tail's replay.  Returns the tail payload.
    """
    if journaled:
        await service.stop_capture(GRAPH_KEY)
    await service.start_capture(GRAPH_KEY, crash_dir)
    tail = crash_tail(graph, state.workload.seed)
    receipt = await service.submit(GRAPH_KEY, tail)
    state.failed += receipt.rejected
    await service.abort()
    return tail


async def prepare_crash(state: RunState) -> tuple[Path, object]:
    """The crashed journal every recovery sample opens, and its graph.

    It is the base graph with the fixed tail, so every sample of every
    run recovers the same journal.
    """
    crash_dir = state.workdir / "crashed"
    service, _, _ = await build(state)
    tail = await crash(state, service, crash_dir, state.base, journaled=False)
    state.attempted += TAIL_DELTAS
    return crash_dir, applied(state.base, [tail])


async def recovery_sample(state: RunState, crash_dir: Path, expected,
                          name: str) -> tuple[float, float, list[str]]:
    """Time one cold recovery of a copy of ``crash_dir`` through ``drain()``.

    Returns its CPU and wall seconds and the problems found.
    """
    copy = state.workdir / f"recover-{name}"
    shutil.copytree(crash_dir, copy)
    gc.collect()
    started, started_cpu = clock(), cpu_clock()
    recovered = StreamingUpdateService(state.config(copy))
    await recovered.register(GRAPH_KEY, state.base)
    await recovered.drain()
    seconds, wall = cpu_clock() - started_cpu, clock() - started
    problems = []
    snapshot = recovered.snapshot(GRAPH_KEY)
    if snapshot.data != expected:
        problems.append(f"recovery {name}: recovered graph differs from the acknowledged ledger")
    if set(snapshot.pattern_ids) != {definition.pattern_id for definition in state.patterns}:
        problems.append(f"recovery {name}: recovered subscriptions differ from the subscribed patterns")
    await recovered.close()
    shutil.rmtree(copy)
    return seconds, wall, problems


async def crash_and_recover(state: RunState, service: StreamingUpdateService) -> tuple[float, float, list[str]]:
    """Crash the run's service with the tail on its final graph; recover it."""
    crash_dir = state.workdir / "capture"
    tail = await crash(state, service, crash_dir, state.ledger(), state.workload.journaled)
    state.sent.append(tail)
    state.attempted += TAIL_DELTAS
    return await recovery_sample(state, crash_dir, state.ledger(), "final")


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------
async def memory_peak(state: RunState) -> float:
    """Peak memory, in MiB, that a fresh service allocates.

    ``tracemalloc`` follows every Python and NumPy allocation of the
    set-up and of ``MEMORY_SETTLES`` one-delta settles of the stream's
    first deltas, after the timed phases (tracing slows allocation).  The
    work is the same on every run, and the interpreter, the imports and
    the benchmark's own inputs are not counted.
    """
    capture = _journal_dir(state, "memory")
    tracemalloc.start()
    try:
        service, _, _ = await build(state, capture)
        for delta in state.stream[:MEMORY_SETTLES]:
            receipt = await service.submit(GRAPH_KEY, payload([delta]))
            state.attempted += 1
            state.failed += receipt.rejected
            await service.drain()
        peak = tracemalloc.get_traced_memory()[1]
        await service.close()
    finally:
        tracemalloc.stop()
    if capture is not None:
        shutil.rmtree(capture)
    return peak / 2**20
