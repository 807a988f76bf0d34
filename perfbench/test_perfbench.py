"""The benchmark's own tests: smoke runs, the correctness gate, refusal.

Run from the repository root with ``PYTHONPATH=src python3 -m pytest perfbench``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import phases
from perfbench.phases import check_correctness
from perfbench.workloads import GRAPH_KEY, WORKLOADS, build_graph, build_patterns, build_stream, payload
from repro.matching import MatchResult
from repro.service import StreamingUpdateService, default_algorithm_factory
from repro.service.faults import flaky_algorithm_factory

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [entry["name"] for entry in SPEC["workloads"]])
def test_smoke_reports_every_metric_with_its_unit(workload, trace):
    done = _run("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", trace, "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        entry["name"]: entry["unit"] for entry in declared
    }
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))


def test_spec_workloads_match_the_benchmark():
    assert [entry["name"] for entry in SPEC["workloads"]] == list(WORKLOADS)


def _settled_snapshot():
    """A half-size fanout-topk graph after a few settled payloads."""
    workload = WORKLOADS["fanout-topk"]
    base = build_graph(workload, 0.5)
    patterns = build_patterns(workload)
    stream = build_stream(workload, base, 64)

    async def drive():
        service = StreamingUpdateService()
        await service.register(GRAPH_KEY, base)
        for definition in patterns:
            await service.subscribe(GRAPH_KEY, definition.pattern_id, definition.pattern, k=definition.k)
        for start in range(0, 64, 8):
            receipt = await service.submit(GRAPH_KEY, payload(stream[start:start + 8]))
            assert receipt.rejected == 0
        await service.drain()
        snapshot = service.snapshot(GRAPH_KEY)
        await service.close()
        return snapshot

    snapshot = asyncio.run(drive())
    return snapshot, patterns


def test_gate_passes_the_service_and_catches_tampering():
    snapshot, patterns = _settled_snapshot()
    ledger = snapshot.data.copy()
    assert check_correctness(snapshot, patterns, ledger) == []

    # A ledger that disagrees with the published graph.
    tampered_ledger = ledger.copy()
    source, target = next(iter(tampered_ledger.edges()))
    tampered_ledger.remove_edge(source, target)
    assert any("ledger" in problem for problem in check_correctness(snapshot, patterns, tampered_ledger))

    # A published match set with one match dropped.
    pattern_id, state = next(
        (pid, st) for pid, st in snapshot.subscriptions.items()
        if any(st.result.as_dict().values())
    )
    relation = state.result.as_dict()
    node = next(u for u, matches in relation.items() if matches)
    relation[node] = frozenset(sorted(relation[node], key=repr)[1:])
    forged = dataclasses.replace(state, result=MatchResult(relation, enforce_totality=False))
    tampered = dataclasses.replace(
        snapshot, subscriptions={**snapshot.subscriptions, pattern_id: forged}
    )
    problems = check_correctness(tampered, patterns, ledger)
    assert any(pattern_id in problem and "matches" in problem for problem in problems)

    # A published top-k ranking with its best entry dropped.
    ranking = {u: entries[1:] for u, entries in state.top_k.items()}
    tampered = dataclasses.replace(
        snapshot,
        subscriptions={**snapshot.subscriptions,
                       pattern_id: dataclasses.replace(state, top_k=ranking)},
    )
    problems = check_correctness(tampered, patterns, ledger)
    assert any(pattern_id in problem and "top-" in problem for problem in problems)


def test_paced_chunk_survives_a_quarantined_delta(tmp_path):
    """A poison delta is quarantined: counted as failed, and the payloads
    behind it are still timed from their own publishes."""
    workload = WORKLOADS["durable-recover"]
    base = build_graph(workload, 0.25)
    count = 8
    stream = build_stream(workload, base, count)
    poisoned = stream[2][1]

    def poison(update) -> bool:
        return (getattr(update, "source", None), getattr(update, "target", None)) == (
            poisoned["source"], poisoned["target"])

    async def drive():
        state = phases.RunState(workload=workload, seed=1, base=base,
                                patterns=build_patterns(workload), stream=stream, workdir=tmp_path)
        service = StreamingUpdateService(
            state.config(),
            algorithm_factory=flaky_algorithm_factory(default_algorithm_factory, poison=poison),
        )
        await service.register(GRAPH_KEY, base)
        for definition in state.patterns:
            await service.subscribe(GRAPH_KEY, definition.pattern_id, definition.pattern, k=definition.k)
        phases.watch_publishes(service, state)
        try:
            chunk = await phases.paced(state, service, count, random.Random(1))
            problems = phases.gate(state, service)
        finally:
            for undo in reversed(state.undo):
                undo()
            await service.close()
        return state, chunk, problems

    state, chunk, problems = asyncio.run(drive())
    assert state.failed == 1
    assert chunk["unsettled"] == 0 and len(chunk["visible"]) == count
    assert max(chunk["visible"]) < phases.SETTLE_WAIT_S / 2
    # The published graph lacks the quarantined delta, so the run is incorrect.
    assert any("ledger" in problem for problem in problems)


def test_refuses_to_run_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "maintain-churn", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
