"""Workload definitions: graph, standing patterns, service settings, streams.

Each workload runs on a synthetic social graph (320 nodes / 1500 edges,
or smaller where noted).  The graph, the patterns and the update stream
come from a seed fixed per workload, so every run and every commit
measures the same work; the run's ``--seed`` drives the open-loop
schedule offsets and the read targets.  Streams are
*stationary*: the graph keeps its size and reachability however long the
stream runs.

A stream is a list of *generation blocks*.  The deltas inside one block
were generated against the same graph state and are listed
deletes-first, so any consecutive slice of a block is a valid payload
(the service lowers a payload deletes-first as well).  Payload sizes
therefore always divide the block size.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from repro.graph import DataGraph, PatternGraph
from repro.workloads import (
    PatternSpec,
    SocialGraphSpec,
    generate_pattern,
    generate_social_graph,
)
from repro.workloads.generators import DEFAULT_LABEL_ORDER
from repro.workloads.update_gen import derive_seed, generate_payload_stream

GRAPH_KEY = "bench"
NUM_NODES = 320
NUM_EDGES = 1500
#: Deltas per generation block; every payload size divides it.
BLOCK = 8


@dataclass(frozen=True)
class PatternDef:
    pattern_id: str
    pattern: PatternGraph
    k: Optional[int] = None


@dataclass(frozen=True)
class Workload:
    """One traffic mix and the service settings it runs under.

    ``config`` holds the only :class:`ServiceConfig` fields that differ
    from the defaults; each override is explained where it is set.  Why
    each workload exists is recorded in ``BENCHMARK.json`` and the README.
    """

    name: str
    #: Seed of the graph, the patterns and the update stream.
    seed: int
    stream: str
    #: Deltas per payload in the backlogged (closed-loop) chunks, and how
    #: many deltas the service cuts at there.  Cuts must fall on payload
    #: boundaries so the settle count per round is exact.
    backlogged_payload: int
    cut_size: int
    cut_reason: str
    #: Backlogged rounds (one cut each) per second of backlogged budget,
    #: about the rate measured at the commit that introduced the
    #: benchmark on a 2-vCPU Xeon host, and chosen so that every cycle
    #: gets a whole number of rounds.  The round count is fixed from it,
    #: so the chunks do the same work on every run and a faster commit
    #: does it in less CPU time.
    rounds_per_second: float
    #: Paced (open-loop) chunks: deltas per payload and payloads per
    #: second.  The rate keeps the executor under ~40% busy, below the
    #: knee where a slower host would start queueing payloads, and one
    #: payload's settle publishes before the next payload is due.
    paced_payload: int
    paced_rate: float
    #: Open-loop reads per second during the paced chunks.
    read_rate: float
    read_mix: tuple[str, ...]
    journaled: bool = False
    config: dict = field(default_factory=dict)
    num_nodes: int = NUM_NODES
    num_edges: int = NUM_EDGES


#: Deltas left uncheckpointed before the crash: one payload, below every
#: workload's cut size, so no cut can settle part of it.
TAIL_DELTAS = 12

WORKLOADS: dict[str, Workload] = {
    "maintain-churn": Workload(
        name="maintain-churn",
        seed=11,
        stream="churn",
        backlogged_payload=8,
        cut_size=64,
        cut_reason="crossover",
        rounds_per_second=1.5,
        paced_payload=1,
        paced_rate=10.0,
        read_rate=200.0,
        read_mix=("matches", "as_of"),
    ),
    "fanout-topk": Workload(
        name="fanout-topk",
        seed=11,
        stream="social-burst",
        backlogged_payload=8,
        cut_size=32,
        cut_reason="capacity",
        rounds_per_second=8.5,
        paced_payload=2,
        paced_rate=6.0,
        read_rate=120.0,
        read_mix=("top_k", "matches", "as_of"),
        # Top-k over 16 patterns costs ~1 s per settle on the 320-node
        # graph, which leaves too few settles in the paced chunks for a
        # p90 that rests on ten of them.  On 90 nodes a settle of one
        # payload takes ~45 ms, and 14 of the 16 patterns match.
        num_nodes=90,
        num_edges=375,
        # The planner never crosses over on an insert-dominated stream
        # (it routes such batches per-update), so by default only the
        # 50 ms deadline timer would cut the backlogged chunks.  A
        # capacity cut at 32 deltas is the one timer-free boundary.
        config={"max_buffer": 32},
    ),
    "durable-recover": Workload(
        name="durable-recover",
        seed=11,
        stream="edges",
        # The closed-loop client sends 8-delta payloads (one fsync
        # each), the block size, like the other workloads.
        backlogged_payload=8,
        cut_size=64,
        cut_reason="crossover",
        rounds_per_second=1.0,
        paced_payload=1,
        paced_rate=10.0,
        read_rate=200.0,
        read_mix=("matches", "as_of"),
        journaled=True,
        # The snapshot record (graph plus lifetime stamps) is ~127 KiB
        # and a 20 s run appends ~50 KiB of deltas and checkpoints, so a
        # threshold 13 KiB above the snapshot rewrites the journal about
        # three times per run.
        config={"journal_compact_bytes": 140 * 1024},
    ),
}


def build_graph(workload: Workload, scale: float = 1.0) -> DataGraph:
    return generate_social_graph(
        SocialGraphSpec(
            name=GRAPH_KEY,
            num_nodes=int(workload.num_nodes * scale),
            num_edges=int(workload.num_edges * scale),
            seed=workload.seed,
        )
    )


def build_patterns(workload: Workload) -> list[PatternDef]:
    labels = tuple(DEFAULT_LABEL_ORDER)

    def make(position: int, size: int, star: float) -> PatternGraph:
        return generate_pattern(
            PatternSpec(
                num_nodes=size,
                num_edges=size,
                labels=labels,
                max_bound=3,
                star_probability=star,
                respect_label_order=True,
                seed=derive_seed(workload.seed, workload.name, "pattern", position),
            )
        )

    if workload.name == "maintain-churn":
        return [PatternDef("churn", make(0, 4, 0.0))]
    if workload.name == "fanout-topk":
        defs = []
        for position in range(16):
            # Pattern 0 is all-'*': the registry's largest bound stays
            # unbounded, so no horizon derived from it can cap SLen.
            star = 1.0 if position == 0 else 0.0
            defs.append(PatternDef(f"q{position:02d}", make(position, 3 + position % 3, star), k=5))
        return defs
    return [PatternDef("audit", make(0, 3, 0.0)), PatternDef("ledger", make(1, 4, 0.0))]


# ----------------------------------------------------------------------
# Streams
# ----------------------------------------------------------------------
def _edge(source, target) -> dict:
    return {"type": "edge", "source": source, "target": target}


def _churn_blocks(base: DataGraph, seed: int, blocks: int) -> list[list[tuple[str, dict]]]:
    """Delete-dominated, clustered churn that keeps the graph's size.

    The repository's ``churn-heavy`` persona deletes 2 nodes net per 10
    deltas, which would empty a 320-node graph within one run.  This
    stream keeps its shape (about 62% deletions, aimed at one
    neighbourhood at a time) but lets purged accounts rejoin later under
    a *new* id with the neighbourhood they had, and restores deleted
    edges.  Insertions only ever restore structure, never invent it, so
    neither the graph's size nor its reachability drifts with the seed.
    """
    rng = random.Random(derive_seed(seed, "churn"))
    working = base.copy()
    departed: deque = deque()
    dead_edges: deque = deque()
    successor: dict = {}
    rejoined = itertools.count()
    cluster: list = []

    def current(node):
        while node in successor:
            node = successor[node]
        return node

    def delete_one(block: list) -> None:
        alive = [node for node in cluster if working.has_node(node)]
        if alive and rng.random() < 0.25:
            node = alive[0]
            cluster.remove(node)
            labels = sorted(working.labels_of(node))
            # It rejoins with the neighbourhood it had in the base graph,
            # plus any ties it gained since.
            root = node.split("~")[0]
            departed.append((
                node, labels,
                sorted(working.successors(node) | base.successors(root), key=repr),
                sorted(working.predecessors(node) | base.predecessors(root), key=repr),
            ))
            block.append(("delete", {"type": "node", "node": node, "labels": labels}))
            working.remove_node(node)
            return
        incident = sorted(
            {(node, other) for node in alive for other in working.successors(node)}
            | {(other, node) for node in alive for other in working.predecessors(node)},
            key=repr,
        ) or sorted(working.edges(), key=repr)
        source, target = rng.choice(incident)
        working.remove_edge(source, target)
        dead_edges.append((source, target))
        block.append(("delete", _edge(source, target)))

    def rejoin(block: list) -> None:
        old, labels, successors, predecessors = departed.popleft()
        node = f"{old.split('~')[0]}~{next(rejoined)}"
        successor[old] = node
        edges = sorted(
            {(node, current(other)) for other in successors}
            | {(current(other), node) for other in predecessors},
            key=repr,
        )
        edges = [edge for edge in edges
                 if working.has_node(edge[0] if edge[1] == node else edge[1])]
        working.add_node(node, *labels)
        for source, target in edges:
            working.add_edge(source, target)
        block.append(("insert", {"type": "node", "node": node, "labels": labels,
                                 "edges": [list(edge) for edge in edges]}))

    def restorable(source, target) -> bool:
        return (source != target and working.has_node(source) and working.has_node(target)
                and not working.has_edge(source, target))

    def restore_edge(block: list) -> bool:
        edge = None
        while dead_edges and edge is None:
            candidate = tuple(map(current, dead_edges.popleft()))
            if restorable(*candidate):
                edge = candidate
        if edge is None:
            # The graveyard is spent: bring back a missing base edge.
            edge = next(
                (edge for edge in (tuple(map(current, e)) for e in sorted(base.edges(), key=repr))
                 if restorable(*edge)),
                None,
            )
        if edge is None:
            return False
        working.add_edge(*edge)
        block.append(("insert", _edge(*edge)))
        return True

    out = []
    for index in range(blocks):
        if index % 2 == 0 or not any(working.has_node(node) for node in cluster):
            cluster = _cluster(working, rng)
        deletes = sum(rng.random() < 0.62 for _ in range(BLOCK))
        block: list[tuple[str, dict]] = []
        for _ in range(deletes):
            delete_one(block)
        # Insertions only restore, so delete more first if there is not
        # enough deleted structure to fill the block.
        while len(departed) + len({tuple(map(current, edge)) for edge in dead_edges}) < BLOCK - len(block):
            delete_one(block)
        while len(block) < BLOCK:
            if departed and rng.random() < 0.5:
                rejoin(block)
            elif not restore_edge(block):
                if departed:
                    rejoin(block)
                else:
                    _random_edge(working, rng, block)
        out.append(block)
    return out


def _random_edge(graph: DataGraph, rng: random.Random, block: list) -> None:
    """Last resort when nothing deleted is left to restore (rare)."""
    nodes = sorted(graph.nodes(), key=repr)
    while True:
        source, target = rng.sample(nodes, 2)
        if not graph.has_edge(source, target):
            graph.add_edge(source, target)
            block.append(("insert", _edge(source, target)))
            return


def _cluster(graph: DataGraph, rng: random.Random, size: int = 24) -> list:
    """Breadth-first neighbourhood (up to ``size`` nodes) of a random node."""
    start = rng.choice(sorted(graph.nodes(), key=repr))
    order, seen, queue = [start], {start}, deque([start])
    while queue and len(order) < size:
        node = queue.popleft()
        for other in sorted(graph.successors(node) | graph.predecessors(node), key=repr):
            if other not in seen:
                seen.add(other)
                order.append(other)
                queue.append(other)
    return order


def _edge_blocks(base: DataGraph, seed: int, blocks: int) -> list[list[tuple[str, dict]]]:
    """A balanced edge stream: half deletions of existing edges, half
    insertions of absent ones, uniformly over the graph.

    Node churn is left out on purpose: it makes ``SLen`` maintenance so
    costly (a node arriving with nine edges, or leaving with them) that
    the journal's share of a settle would vanish in it.
    """
    rng = random.Random(derive_seed(seed, "edges"))
    working = base.copy()
    nodes = sorted(working.nodes(), key=repr)
    out = []
    for _ in range(blocks):
        doomed = rng.sample(sorted(working.edges(), key=repr), BLOCK // 2)
        added: set = set()
        while len(added) < BLOCK - BLOCK // 2:
            edge = tuple(rng.sample(nodes, 2))
            if not working.has_edge(*edge) and edge not in doomed:
                added.add(edge)
        added_edges = sorted(added, key=repr)
        for edge in doomed:
            working.remove_edge(*edge)
        for edge in added_edges:
            working.add_edge(*edge)
        out.append([("delete", _edge(*edge)) for edge in doomed]
                   + [("insert", _edge(*edge)) for edge in added_edges])
    return out


def _persona_blocks(base: DataGraph, seed: int, blocks: int, *, persona, new_node_degree: int):
    """Blocks from the repository's own payload generator.

    Within one generated payload every delta was chosen against the same
    graph state and none depends on another, so its deltas may be split
    into smaller payloads in any grouping.
    """
    out = []
    for payload in generate_payload_stream(
        base,
        payloads=blocks,
        updates_per_payload=BLOCK,
        seed=derive_seed(seed, "stream"),
        persona=persona,
        new_node_degree=new_node_degree,
    ):
        out.append([("delete", spec) for spec in payload["deletes"]]
                   + [("insert", spec) for spec in payload["inserts"]])
    return out


def build_stream(workload: Workload, base: DataGraph, deltas: int) -> list[tuple[str, dict]]:
    """At least ``deltas`` deltas of the workload's stream, block-aligned."""
    seed = workload.seed
    blocks = -(-deltas // BLOCK)
    if workload.stream == "churn":
        generated = _churn_blocks(base, seed, blocks)
    elif workload.stream == "social-burst":
        # Degree 6 on inserted nodes balances the edges that the
        # persona's node deletions take away (measured: edge count
        # stays within ~10% of 1500 over 2000 deltas).
        generated = _persona_blocks(base, seed, blocks, persona="social-burst", new_node_degree=6)
    else:
        generated = _edge_blocks(base, seed, blocks)
    return [delta for block in generated for delta in block]


def payload(deltas: list[tuple[str, dict]]) -> dict:
    """One wire payload from consecutive stream deltas (deletes first)."""
    return {
        "deletes": [spec for kind, spec in deltas if kind == "delete"],
        "inserts": [spec for kind, spec in deltas if kind == "insert"],
    }


def crash_tail(graph: DataGraph, seed: int) -> dict:
    """The payload left in the journal when the run crashes.

    Generated against the final acknowledged graph with the repository's
    balanced generator, so every workload crashes with the same kind of
    tail and its deltas are independent of one another.
    """
    return next(generate_payload_stream(
        graph,
        payloads=1,
        updates_per_payload=TAIL_DELTAS,
        seed=derive_seed(seed, "tail"),
        new_node_degree=9,
    ))
