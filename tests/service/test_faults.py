"""Fault injection: kill-and-recover differentials, retries, quarantine.

The central claim of the durability layer — *no accepted delta is ever
lost, and none is applied twice* — is proven here differentially: a
service is crashed (deterministically, at every named crash point) and
recovered from its journal, and the recovered graph, SLen and match
state must equal an uninterrupted oracle run over exactly the payloads
the crashed run accepted (plus any journaled-but-unreceipted payload:
durability is decided at the fsync, not at the receipt).
"""

import asyncio
import logging
import threading

import pytest

from repro.graph import DataGraph, PatternGraph
from repro.graph.updates import EdgeInsertion
from repro.service import (
    CRASH_POINTS,
    POST_APPEND,
    PRE_SETTLE,
    FaultInjector,
    InjectedCrash,
    KernelFault,
    ServiceConfig,
    StreamingUpdateService,
    flaky_algorithm_factory,
)
from repro.service.journal import DeadLetterJournal, journal_slug
from repro.service.service import default_algorithm_factory


def make_data(num_nodes: int = 8) -> DataGraph:
    data = DataGraph()
    for i in range(num_nodes):
        data.add_node(f"n{i}", "A" if i % 2 == 0 else "B")
    for i in range(num_nodes):
        data.add_edge(f"n{i}", f"n{(i + 1) % num_nodes}")
    return data


def make_pattern() -> PatternGraph:
    pattern = PatternGraph()
    pattern.add_node("p0", "A")
    pattern.add_node("p1", "B")
    pattern.add_edge("p0", "p1", 2)
    return pattern


def edge_spec(source: str, target: str) -> dict:
    return {"type": "edge", "source": source, "target": target}


#: The differential workload: a mix of inserts and deletes, one payload
#: per line, applied in order.  With ``deadline_seconds=0`` every
#: payload cuts (and settles) individually, so every crash point is
#: exercised between payloads.
WORKLOAD = [
    {"inserts": [edge_spec("n0", "n2")]},
    {"inserts": [edge_spec("n0", "n3"), edge_spec("n1", "n4")]},
    {"deletes": [edge_spec("n0", "n2")]},
    {"inserts": [edge_spec("n2", "n5")]},
    {"deletes": [edge_spec("n1", "n4")]},
    {"inserts": [edge_spec("n3", "n6")]},
]

QUIET = dict(deadline_seconds=30.0, max_buffer=10_000, coalesce_min_batch=10_000)
#: Every payload cuts and settles on its own.
EAGER = dict(deadline_seconds=0.0, max_buffer=10_000, coalesce_min_batch=10_000)


def run(coro):
    return asyncio.run(coro)


async def oracle_state(payloads):
    """The uninterrupted run: apply ``payloads`` with no journal/faults."""
    service = StreamingUpdateService(ServiceConfig(**QUIET))
    await service.register("g", make_data())
    await service.subscribe("g", "p", make_pattern())
    for payload in payloads:
        receipt = await service.submit("g", payload)
        assert receipt.rejected == 0
    await service.drain()
    snapshot = service.snapshot("g")
    state = (snapshot.data, snapshot.slen, snapshot.state_for("p").result.as_dict())
    await service.close()
    return state


# ----------------------------------------------------------------------
# The FaultInjector itself
# ----------------------------------------------------------------------
def test_injector_counts_hits_and_fires_on_schedule():
    faults = FaultInjector()
    faults.arm(PRE_SETTLE, after=2)
    faults.hit(PRE_SETTLE)
    faults.hit(PRE_SETTLE)
    with pytest.raises(InjectedCrash) as excinfo:
        faults.hit(PRE_SETTLE)
    assert excinfo.value.point == PRE_SETTLE
    faults.hit(PRE_SETTLE)  # disarmed after firing
    assert faults.hits[PRE_SETTLE] == 4


def test_injector_rejects_unknown_points():
    with pytest.raises(ValueError):
        FaultInjector().arm("post-apocalypse")


def test_injected_crash_is_not_an_exception():
    # The whole design rests on this: Exception-catching retry logic
    # must never absorb a simulated process death.
    assert not issubclass(InjectedCrash, Exception)
    assert issubclass(InjectedCrash, BaseException)


# ----------------------------------------------------------------------
# Kill-and-recover differential, every named crash point
# ----------------------------------------------------------------------
async def crash_run(journal_dir, arm, payloads=WORKLOAD):
    """Run ``payloads`` against a journaled service until the armed
    fault fires, abandon the instance, and return the payloads that
    must survive recovery (receipted ones, plus a
    journaled-but-unreceipted one for post-append crashes)."""
    faults = FaultInjector()
    arm(faults)
    service = StreamingUpdateService(
        ServiceConfig(journal_dir=str(journal_dir), **EAGER), faults=faults
    )
    await service.register("g", make_data())
    await service.subscribe("g", "p", make_pattern())
    durable = []
    crashed = False
    for payload in payloads:
        try:
            receipt = await service.submit("g", payload)
        except InjectedCrash as crash:
            # No receipt was issued.  The payload is durable anyway iff
            # the crash hit after the fsync.
            if crash.point == POST_APPEND:
                durable.append(payload)
            crashed = True
            break
        assert receipt.rejected == 0
        durable.append(payload)
        await service.quiesce()
        if any(isinstance(exc, InjectedCrash) for _, exc in service.errors):
            crashed = True
            break
    assert crashed, "the armed fault never fired"
    await service.abort()
    return durable


async def recover_and_snapshot(journal_dir):
    service = StreamingUpdateService(
        ServiceConfig(journal_dir=str(journal_dir), **QUIET)
    )
    await service.register("g", make_data())
    await service.drain()
    snapshot = service.snapshot("g")
    stats = service.stats("g")
    state = (snapshot.data, snapshot.slen, snapshot.state_for("p").result.as_dict())
    await service.close()
    return state, stats


@pytest.mark.parametrize("point", CRASH_POINTS)
def test_kill_and_recover_equals_uninterrupted_oracle(tmp_path, point):
    async def scenario():
        durable = await crash_run(tmp_path, lambda f: f.arm(point, after=1))
        recovered, stats = await recover_and_snapshot(tmp_path)
        expected = await oracle_state(durable)
        # Zero accepted-delta loss, no double application: the recovered
        # graph, SLen and match state are *equal* to the oracle's.
        assert recovered[0] == expected[0]
        assert recovered[1] == expected[1]
        assert recovered[2] == expected[2]
        assert stats["quarantined"] == 0

    run(scenario())


def test_torn_append_is_truncated_and_only_unreceipted_data_lost(tmp_path):
    async def scenario():
        durable = await crash_run(tmp_path, lambda f: f.arm_torn_append(after=1))
        recovered, stats = await recover_and_snapshot(tmp_path)
        expected = await oracle_state(durable)
        assert recovered[0] == expected[0]
        assert recovered[1] == expected[1]
        assert recovered[2] == expected[2]
        assert stats["journal"]["torn_lines"] == 1

    run(scenario())


def test_recovered_service_keeps_accepting_and_checkpointing(tmp_path):
    # Recovery is not read-only: the revived service must accept new
    # deltas, checkpoint them, and a third boot must see everything.
    async def scenario():
        await crash_run(tmp_path, lambda f: f.arm(PRE_SETTLE, after=0))
        config = ServiceConfig(journal_dir=str(tmp_path), **QUIET)
        revived = StreamingUpdateService(config)
        await revived.register("g", make_data())
        await revived.drain()
        receipt = await revived.submit("g", {"inserts": [edge_spec("n4", "n6")]})
        assert receipt.accepted == 1
        await revived.close()

        third = StreamingUpdateService(config)
        await third.register("g", make_data())
        await third.drain()
        assert third.snapshot("g").data.has_edge("n4", "n6")
        await third.close()

    run(scenario())


# ----------------------------------------------------------------------
# Kernel failures: transient retry, poison quarantine, cascade
# ----------------------------------------------------------------------
def test_transient_settle_failure_is_retried_to_success(tmp_path):
    async def scenario():
        factory = flaky_algorithm_factory(default_algorithm_factory, fail_times=2)
        service = StreamingUpdateService(
            ServiceConfig(
                journal_dir=str(tmp_path),
                settle_retries=2,
                settle_backoff_seconds=0.001,
                **QUIET,
            ),
            algorithm_factory=factory,
        )
        await service.register("g", make_data())
        await service.subscribe("g", "p", make_pattern())
        await service.submit("g", {"inserts": [edge_spec("n0", "n2")]})
        await service.drain()
        stats = service.stats("g")
        assert stats["settle_failures"] == 2
        assert stats["settle_retries"] == 2
        assert stats["rebuilds"] == 2
        assert stats["quarantined"] == 0
        assert stats["settled"] == 1
        assert service.snapshot("g").data.has_edge("n0", "n2")
        assert service.errors == []
        await service.close()

    run(scenario())


def test_failure_after_the_kernel_restores_the_engine_for_the_retry(caplog):
    # The batch ran through the engine, then building the published
    # snapshot raised.  The attempt must still roll the engine back:
    # otherwise the retry applies the batch a second time, dies with
    # DuplicateEdgeError and burns the retry budget on good deltas.
    async def scenario():
        service = StreamingUpdateService(
            ServiceConfig(settle_retries=2, settle_backoff_seconds=0.001, **QUIET)
        )
        await service.register("g", make_data())
        await service.subscribe("g", "p", make_pattern())
        build_snapshot = service._settled_snapshot
        calls = []

        def fail_first_build(session, events):
            calls.append(session.key)
            if len(calls) == 1:
                raise RuntimeError("injected snapshot failure")
            return build_snapshot(session, events)

        service._settled_snapshot = fail_first_build
        for payload in WORKLOAD:
            assert (await service.submit("g", payload)).rejected == 0
        await service.drain()
        stats = service.stats("g")
        assert stats["settle_failures"] == 1
        assert stats["settle_retries"] == 1  # the first retry succeeded
        assert stats["quarantined"] == 0
        assert stats["settled"] == stats["accepted"]
        snapshot = service.snapshot("g")
        state = (snapshot.data, snapshot.slen, snapshot.state_for("p").result.as_dict())
        await service.close()
        return state

    with caplog.at_level(logging.WARNING, logger="repro.service"):
        state = run(scenario())
    assert "DuplicateEdgeError" not in caplog.text
    assert state == run(oracle_state(WORKLOAD))


def test_poison_delta_is_quarantined_and_the_graph_lives_on(tmp_path):
    async def scenario():
        def is_poison(update):
            return (
                isinstance(update, EdgeInsertion)
                and update.source == "n0"
                and update.target == "n2"
            )

        factory = flaky_algorithm_factory(
            default_algorithm_factory, poison=is_poison, message="poison kernel bug"
        )
        service = StreamingUpdateService(
            ServiceConfig(
                journal_dir=str(tmp_path),
                settle_retries=1,
                settle_backoff_seconds=0.001,
                **QUIET,
            ),
            algorithm_factory=factory,
        )
        await service.register("g", make_data())
        await service.subscribe("g", "p", make_pattern())
        # One batch: the poison delta plus two innocents.
        await service.submit(
            "g",
            {
                "inserts": [
                    edge_spec("n0", "n2"),  # poison
                    edge_spec("n0", "n3"),
                    edge_spec("n1", "n4"),
                ]
            },
        )
        await service.drain()
        stats = service.stats("g")
        assert stats["quarantined"] == 1
        assert stats["settle_retries"] == 1
        snapshot = service.snapshot("g")
        # The innocents settled, the poison did not.
        assert not snapshot.data.has_edge("n0", "n2")
        assert snapshot.data.has_edge("n0", "n3")
        assert snapshot.data.has_edge("n1", "n4")
        # ...and it is durably dead-lettered with the kernel's error.
        dead = DeadLetterJournal(
            tmp_path / f"{journal_slug('g')}.deadletter.jsonl"
        ).load()
        assert len(dead) == 1
        assert dead[0]["kind"] == "poison"
        assert dead[0]["update"] == {
            "op": "insert_edge",
            "source": "n0",
            "target": "n2",
        }
        assert "poison kernel bug" in dead[0]["error"]

        # Subsequent deltas on the same graph still settle and reads
        # still answer.
        receipt = await service.submit("g", {"inserts": [edge_spec("n2", "n5")]})
        assert receipt.accepted == 1
        await service.drain()
        assert service.snapshot("g").data.has_edge("n2", "n5")
        assert service.matches("g", pattern_id="p") is not None
        await service.close()

    run(scenario())


def test_quarantine_cascades_to_buffered_dependents(tmp_path):
    # A delta buffered *behind* a poison batch can depend on it (here: a
    # delete of the edge the poison insert never materialised).  When
    # the poison is quarantined, the dependent must be dead-lettered as
    # a cascade, not silently dropped.
    #
    # Queue choreography: both ingests are scheduled in the same tick,
    # so the order on the graph's queue is [ingest1, ingest2, settle1].
    # Payload 1 (two inserts) hits the max_buffer=2 capacity cut at
    # ingest1; payload 2 (the dependent delete) is then validated
    # against the staged state — which still contains the poison edge —
    # and is sitting in the buffer when settle1 fails.
    async def scenario():
        def is_poison(update):
            return (
                isinstance(update, EdgeInsertion)
                and update.source == "n0"
                and update.target == "n2"
            )

        factory = flaky_algorithm_factory(
            default_algorithm_factory, poison=is_poison, message="poison kernel bug"
        )
        service = StreamingUpdateService(
            ServiceConfig(
                journal_dir=str(tmp_path),
                settle_retries=0,
                deadline_seconds=30.0,
                max_buffer=2,
                coalesce_min_batch=10_000,
            ),
            algorithm_factory=factory,
        )
        await service.register("g", make_data())
        await service.subscribe("g", "p", make_pattern())
        first = service.submit_nowait(
            "g", {"inserts": [edge_spec("n0", "n2"), edge_spec("n1", "n4")]}
        )
        second = service.submit_nowait("g", {"deletes": [edge_spec("n0", "n2")]})
        receipt1 = await first
        receipt2 = await second
        assert receipt1.accepted == 2 and receipt1.cut == "capacity"
        assert receipt2.accepted == 1  # valid against the staged state
        await service.drain()

        stats = service.stats("g")
        assert stats["quarantined"] == 2  # the poison + its dependent
        dead = DeadLetterJournal(
            tmp_path / f"{journal_slug('g')}.deadletter.jsonl"
        ).load()
        kinds = sorted(record["kind"] for record in dead)
        assert kinds == ["cascade", "poison"]
        snapshot = service.snapshot("g")
        # The innocent half of the poison batch settled; the poison and
        # its dependent did not.
        assert not snapshot.data.has_edge("n0", "n2")
        expected = make_data()
        expected.add_edge("n1", "n4")
        assert snapshot.data == expected
        await service.close()

    run(scenario())


# ----------------------------------------------------------------------
# Scheduler errors surface through stats (and the log)
# ----------------------------------------------------------------------
def test_queue_errors_surface_in_stats_and_log(tmp_path, caplog):
    async def scenario():
        faults = FaultInjector()
        faults.arm(PRE_SETTLE)
        service = StreamingUpdateService(
            ServiceConfig(journal_dir=str(tmp_path), **EAGER), faults=faults
        )
        await service.register("g", make_data())
        await service.subscribe("g", "p", make_pattern())
        await service.submit("g", {"inserts": [edge_spec("n0", "n2")]})
        await service.quiesce()
        assert len(service.errors) == 1
        key, exc = service.errors[0]
        assert key == "g" and isinstance(exc, InjectedCrash)
        assert service.stats("g")["queue_errors"] == 1
        assert any(
            "action on queue 'g' failed" in record.message
            for record in caplog.records
        )
        await service.abort()

    with caplog.at_level(logging.ERROR, logger="repro.service"):
        run(scenario())


# ----------------------------------------------------------------------
# Seeded random workloads, settle provenance, replay as the oracle
# ----------------------------------------------------------------------
#: Root seed of the randomized crash differentials below.  Per-case
#: seeds derive from it via :func:`derive_seed` — the same cross-process
#: stable contract tests/versioning/test_isolation.py pins — so a
#: failing crash point reproduces its exact workload in any process.
ROOT_SEED = 20260807


@pytest.mark.parametrize("point", CRASH_POINTS)
def test_kill_and_recover_differential_under_seeded_workloads(tmp_path, point):
    from repro.workloads.update_gen import derive_seed, generate_payload_stream

    async def scenario():
        payloads = list(
            generate_payload_stream(
                make_data(),
                payloads=8,
                updates_per_payload=3,
                seed=derive_seed(ROOT_SEED, "faults", point),
            )
        )
        durable = await crash_run(
            tmp_path, lambda f: f.arm(point, after=2), payloads=payloads
        )
        recovered, _stats = await recover_and_snapshot(tmp_path)
        expected = await oracle_state(durable)
        assert recovered[0] == expected[0]
        assert recovered[1] == expected[1]
        assert recovered[2] == expected[2]

    run(scenario())


def test_seeded_workload_derivation_is_pinned():
    from repro.workloads.update_gen import derive_seed

    # The per-point seed must never silently change between processes
    # or releases: recorded crash reproductions depend on it.
    assert derive_seed(ROOT_SEED, "faults", PRE_SETTLE) == 12497881693818095501


def test_recovery_splits_settle_provenance(tmp_path):
    # stats() tells recovered (journal-replayed) settles apart from
    # live ones — the operator's signal for "how much of this boot was
    # catch-up".
    async def scenario():
        await crash_run(tmp_path, lambda f: f.arm(PRE_SETTLE, after=1))
        service = StreamingUpdateService(
            ServiceConfig(journal_dir=str(tmp_path), **QUIET)
        )
        await service.register("g", make_data())
        await service.drain()
        stats = service.stats("g")
        # The journaled-but-unsettled tail settled as *recovered*.
        assert stats["recovered"] >= 1
        assert stats["recovered_settles"] >= 1
        assert stats["live_settles"] == 0
        assert stats["settles"] == stats["recovered_settles"]

        # Fresh traffic settles as *live*; the split stays exhaustive.
        receipt = await service.submit("g", {"inserts": [edge_spec("n4", "n6")]})
        assert receipt.accepted == 1
        await service.drain()
        stats = service.stats("g")
        assert stats["live_settles"] == 1
        assert stats["settles"] == stats["recovered_settles"] + stats["live_settles"]
        await service.close()

    run(scenario())


def test_replayed_window_is_an_oracle_for_recovery(tmp_path):
    # The journal a crashed run leaves behind replays — through a fresh
    # un-journaled service — into exactly the state recovery serves,
    # including the journaled-but-unreceipted tail payload.  Replay is
    # the recovery oracle: no scripted second live run required.
    from repro.replay import ReplayLog, replay

    async def scenario():
        await crash_run(tmp_path, lambda f: f.arm(POST_APPEND, after=1))
        recovered, _stats = await recover_and_snapshot(tmp_path)

        window = ReplayLog(
            tmp_path / f"{journal_slug('g')}.journal.jsonl"
        ).window(base_graph=make_data())
        result = await replay(window)
        assert list(result.final.nodes) == sorted(
            str(node) for node in recovered[0].nodes()
        )
        assert [tuple(edge) for edge in result.final.edges] == sorted(
            (str(s), str(t)) for s, t in recovered[0].edges()
        )
        expected_matches = {
            str(u): sorted(str(v) for v in vs) for u, vs in recovered[2].items()
        }
        replayed = {
            u: list(vs) for u, vs in result.final.as_of[0]["p"].items()
        }
        assert replayed == expected_matches

    run(scenario())
