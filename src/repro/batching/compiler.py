"""The update-batch compiler: canonicalise ``ΔG`` before processing it.

The compiler folds an arbitrary (self-consistent) update stream into its
*net effect*:

* **duplicates** — a second insertion of an edge/node that the batch has
  already inserted (or a second deletion of something already deleted)
  is dropped;
* **cancellation** — an insertion followed by the matching deletion (or
  a deletion followed by the matching re-insertion) nets out to nothing
  and both operations are removed.  A pattern-edge delete/re-insert pair
  only cancels when the re-inserted bound equals the recorded deleted
  bound — otherwise the pair survives as a bound change;
* **subsumption** — edge operations touching a node that the batch
  deletes are redundant (the node deletion removes incident edges
  anyway) and are dropped.  Edges carried by a node insertion whose
  other endpoint never durably exists are stripped from the payload.

Survivors are emitted per graph in the canonical order

    node insertions → edge deletions → edge insertions → node deletions

(data updates before pattern updates), which is always applicable: new
nodes exist before edges reference them, re-inserted edges are deleted
before being re-added, and node deletions run last so no surviving edge
operation references a removed node.

Re-inserting a node that the same batch deleted ("resurrection") is
canonicalised payload-aware: intermediate churn on the node cancels, the
*first* deletion and the *final* insertion survive as a pair (the
deletion removes the old incarnation's incident edges, the insertion
carries the new labels), and every surviving edge insertion touching the
reborn node — its payload edges included — is emitted *after* the
re-insertion as a standalone edge insertion so the compiled stream stays
directly applicable.  Edge deletions aimed at the old incarnation are
subsumed by the node deletion exactly like those of a plainly deleted
node.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator
from dataclasses import dataclass

from repro.graph.pattern import normalise_bound
from repro.graph.updates import (
    EdgeDeletion,
    EdgeInsertion,
    GraphKind,
    NodeInsertion,
    Update,
    UpdateBatch,
)

NodeId = Hashable


@dataclass(frozen=True)
class CompilationReport:
    """What the compiler eliminated from one batch.

    Attributes
    ----------
    input_size / output_size:
        Update counts before and after compilation.
    duplicates_dropped:
        Operations repeating the previous effective operation on the same
        entity (e.g. inserting an edge the batch already inserted).
    cancelled_ops:
        Operations removed because an insertion and a deletion of the
        same entity netted out.
    subsumed_ops:
        Edge operations dropped because a node deletion in the same batch
        makes them redundant (including carried-edge payload entries).
    resurrections:
        Nodes the batch deleted and re-inserted; each survives as a
        delete + re-insert pair (counted once per node, not per op).
    """

    input_size: int
    output_size: int
    duplicates_dropped: int = 0
    cancelled_ops: int = 0
    subsumed_ops: int = 0
    resurrections: int = 0

    @property
    def eliminated(self) -> int:
        """Total updates removed by compilation."""
        return self.input_size - self.output_size

    @property
    def is_noop(self) -> bool:
        """``True`` when compilation changed nothing."""
        return self.eliminated == 0


@dataclass(frozen=True)
class CompiledBatch:
    """A canonicalised batch plus the report of what compilation removed."""

    batch: UpdateBatch
    report: CompilationReport

    def data_updates(self) -> list[Update]:
        """Surviving data-graph updates, in canonical order."""
        return self.batch.data_updates()

    def pattern_updates(self) -> list[Update]:
        """Surviving pattern-graph updates, in canonical order."""
        return self.batch.pattern_updates()

    def __len__(self) -> int:
        return len(self.batch)

    def __iter__(self) -> Iterator[Update]:
        return iter(self.batch)


def compile_batch(updates: Iterable[Update]) -> CompiledBatch:
    """Canonicalise ``updates`` into their net effect.

    The input may be an :class:`~repro.graph.updates.UpdateBatch` or any
    iterable of updates; unlike ``UpdateBatch`` construction the compiler
    tolerates duplicate operations (that is part of what it removes).
    """
    stream = list(updates)
    compiled: list[Update] = []
    duplicates = 0
    cancelled = 0
    subsumed = 0
    resurrections = 0
    for kind in (GraphKind.DATA, GraphKind.PATTERN):
        survivors, counts = _compile_one_graph(
            [(pos, u) for pos, u in enumerate(stream) if u.graph is kind]
        )
        compiled.extend(survivors)
        duplicates += counts[0]
        cancelled += counts[1]
        subsumed += counts[2]
        resurrections += counts[3]
    report = CompilationReport(
        input_size=len(stream),
        output_size=len(compiled),
        duplicates_dropped=duplicates,
        cancelled_ops=cancelled,
        subsumed_ops=subsumed,
        resurrections=resurrections,
    )
    return CompiledBatch(batch=UpdateBatch(compiled), report=report)


class _Entry:
    """One event in an edge timeline.

    Either a real edge :class:`Update` (``update`` set, ``payload``
    ``None``) or an edge carried by a :class:`NodeInsertion` payload
    (``update`` ``None``, ``payload = (parent_pos, edge_tuple)``, always
    an insertion).  Treating payload edges as first-class timeline
    entries is what lets a later deletion of a carried edge (or of its
    endpoint) cancel correctly instead of leaving a stale payload.
    """

    __slots__ = ("pos", "is_insertion", "update", "payload")

    def __init__(self, pos: int, is_insertion: bool, update, payload) -> None:
        self.pos = pos
        self.is_insertion = is_insertion
        self.update = update
        self.payload = payload


def _compile_one_graph(
    stream: list[tuple[int, Update]]
) -> tuple[list[Update], tuple[int, int, int, int]]:
    """Compile the updates of one target graph; returns (survivors, counts)."""
    duplicates = 0
    cancelled = 0
    subsumed = 0
    graph_kind = stream[0][1].graph if stream else GraphKind.DATA

    # Per-entity timelines.  Node duplicates (a repeat of the previous
    # direction on the same node) are dropped as they arrive.  Edge
    # duplicates are not: an edge re-inserted after its endpoint was
    # deleted is a new edge, not a repeat, so edge entries are
    # deduplicated only by the resolution pass below, once the node
    # decisions have dropped the entries of dead incarnations.  Carried
    # payload edges of node insertions enter the edge timelines
    # alongside real edge updates.
    node_timelines: dict[NodeId, list[tuple[int, Update]]] = {}
    edge_timelines: dict[tuple[NodeId, NodeId], list[_Entry]] = {}
    #: parent_pos -> payload edge tuples that must not stay in the payload
    payload_strip: dict[int, set[tuple]] = {}

    def strip(entry: _Entry) -> None:
        parent_pos, edge = entry.payload
        payload_strip.setdefault(parent_pos, set()).add(edge)

    for pos, update in stream:
        if update.is_edge_update:
            edge_timelines.setdefault((update.source, update.target), []).append(
                _Entry(pos, update.is_insertion, update, None)
            )
        else:
            node_timeline = node_timelines.setdefault(update.node, [])
            if node_timeline and node_timeline[-1][1].is_insertion == update.is_insertion:
                duplicates += 1
                continue
            node_timeline.append((pos, update))
            if isinstance(update, NodeInsertion):
                for edge in update.edges:
                    edge_timelines.setdefault((edge[0], edge[1]), []).append(
                        _Entry(pos, True, None, (pos, tuple(edge)))
                    )

    # Resolve node timelines first: they decide which edge operations are
    # subsumed.  ``last_delete_pos`` marks, per node, the stream position
    # of its final deletion; edge operations before that position touch an
    # incarnation of the node that does not survive.  A node deleted *and*
    # re-inserted ("resurrection") keeps its first deletion and its final
    # insertion as a pair; every surviving edge insertion touching it must
    # apply after the re-insertion and is routed to a dedicated group.
    node_survivors: list[tuple[int, Update]] = []
    resurrection_survivors: list[tuple[int, Update]] = []
    surviving_insert_pos: set[int] = set()
    vanished: set[NodeId] = set()  # inserted then deleted: never durably exists
    net_deleted: set[NodeId] = set()  # pre-existing, deleted by the batch
    resurrected: set[NodeId] = set()  # pre-existing, deleted then re-inserted
    last_delete_pos: dict[NodeId, int] = {}
    for node, timeline in node_timelines.items():
        pre_existed = timeline[0][1].is_deletion
        final_exists = timeline[-1][1].is_insertion
        deletions = [pos for pos, u in timeline if u.is_deletion]
        if deletions:
            last_delete_pos[node] = max(deletions)
        if pre_existed == final_exists:
            if pre_existed:
                # Resurrection: the first deletion removes the old
                # incarnation (labels and incident edges), the final
                # insertion creates the new one.  Intermediate churn
                # cancels; the insertion's payload edges are re-emitted
                # standalone after it (see the edge resolution below).
                cancelled += len(timeline) - 2
                node_survivors.append(timeline[0])
                resurrection_survivors.append(timeline[-1])
                resurrected.add(node)
            else:
                cancelled += len(timeline)
                vanished.add(node)
        else:
            cancelled += len(timeline) - 1
            node_survivors.append(timeline[-1])
            if final_exists:
                surviving_insert_pos.add(timeline[-1][0])
            else:
                net_deleted.add(node)

    # Resolve edge timelines, cascading the node decisions.  A surviving
    # payload entry normally stays in its parent's payload; it becomes a
    # standalone EdgeInsertion when the parent was cancelled (the edge
    # outlives the parent node insertion) or when it must apply *after*
    # an edge deletion of the same pair (bound change).  Insertions that
    # touch a resurrected node are emitted *late* — after the node's
    # re-insertion — so the compiled stream stays directly applicable.
    edge_survivors: list[tuple[int, Update]] = []
    late_edge_survivors: list[tuple[int, Update]] = []

    def emit(entry: _Entry, force_standalone: bool = False, late: bool = False) -> None:
        destination = late_edge_survivors if late else edge_survivors
        if entry.payload is None:
            destination.append((entry.pos, entry.update))
            return
        parent_pos, edge = entry.payload
        if parent_pos in surviving_insert_pos and not force_standalone and not late:
            return  # stays in the surviving parent's payload
        strip(entry)
        bound = edge[2] if len(edge) > 2 else None
        destination.append(
            (entry.pos, EdgeInsertion(graph_kind, edge[0], edge[1], bound))
        )

    def drop(entry: _Entry, as_subsumed: bool = False) -> None:
        nonlocal cancelled, subsumed
        if as_subsumed:
            subsumed += 1
        else:
            cancelled += 1
        if entry.payload is not None:
            strip(entry)

    for (source, target), timeline in edge_timelines.items():
        kept: list[_Entry] = []
        for entry in timeline:
            dropped = False
            for endpoint in (source, target):
                if endpoint in vanished or endpoint in net_deleted:
                    dropped = True
                elif endpoint in last_delete_pos and entry.pos < last_delete_pos[endpoint]:
                    dropped = True
            if dropped:
                drop(entry, as_subsumed=True)
                continue
            if kept and kept[-1].is_insertion == entry.is_insertion:
                duplicates += 1
                if entry.payload is not None:
                    strip(entry)
                continue
            kept.append(entry)
        if not kept:
            continue
        if source in resurrected or target in resurrected:
            # Every kept entry postdates the reborn endpoint's final
            # deletion, which already removed all incident edges — so the
            # edge exists at the end iff the last entry is an insertion,
            # and that insertion must apply after the re-insertion.
            if kept[-1].is_insertion:
                for entry in kept[:-1]:
                    drop(entry, as_subsumed=not entry.is_insertion)
                emit(kept[-1], late=True)
            else:
                for entry in kept:
                    drop(entry, as_subsumed=True)
            continue
        pre_existed = not kept[0].is_insertion
        final_exists = kept[-1].is_insertion
        if pre_existed != final_exists:
            for entry in kept[:-1]:
                drop(entry)
            emit(kept[-1])
        elif not pre_existed:
            # Inserted and deleted within the batch: pure no-op.
            for entry in kept:
                drop(entry)
        elif graph_kind is GraphKind.DATA or _same_bound(kept[0], kept[-1]):
            # Deleted and re-inserted identically: pure no-op.
            for entry in kept:
                drop(entry)
        else:
            # A pattern-edge bound change: keep the delete/re-insert pair.
            # The re-insert must apply after the delete, so a payload
            # re-insert is converted to a standalone edge insertion.
            for entry in kept[1:-1]:
                drop(entry)
            edge_survivors.append((kept[0].pos, kept[0].update))
            emit(kept[-1], force_standalone=True)

    # Materialise the payload strips on the surviving node insertions.
    def materialise(survivor_list: list[tuple[int, Update]]) -> list[tuple[int, Update]]:
        cleaned: list[tuple[int, Update]] = []
        for pos, update in survivor_list:
            to_strip = payload_strip.get(pos)
            if to_strip and isinstance(update, NodeInsertion):
                edges = tuple(edge for edge in update.edges if tuple(edge) not in to_strip)
                update = NodeInsertion(update.graph, update.node, update.labels, edges)
            cleaned.append((pos, update))
        return cleaned

    survivors = _canonical_order(
        materialise(node_survivors),
        edge_survivors,
        materialise(resurrection_survivors),
        late_edge_survivors,
    )
    return survivors, (duplicates, cancelled, subsumed, len(resurrected))


def _canonical_order(
    node_ops: list[tuple[int, Update]],
    edge_ops: list[tuple[int, Update]],
    resurrection_ops: list[tuple[int, Update]] = (),
    late_edge_ops: list[tuple[int, Update]] = (),
) -> list[Update]:
    """Order survivors: node inserts, edge deletes, edge inserts, node
    deletes — then resurrection re-inserts and finally the edge
    insertions that must apply after a resurrection."""
    groups: tuple[list[tuple[int, Update]], ...] = ([], [], [], [])
    for pos, update in node_ops:
        groups[0 if update.is_insertion else 3].append((pos, update))
    for pos, update in edge_ops:
        groups[2 if update.is_insertion else 1].append((pos, update))
    ordered: list[Update] = []
    for group in groups + (list(resurrection_ops), list(late_edge_ops)):
        group.sort(key=lambda entry: entry[0])
        ordered.extend(update for _pos, update in group)
    return ordered


def _same_bound(deletion_entry: "_Entry", insertion_entry: "_Entry") -> bool:
    """Whether a pattern-edge delete/re-insert pair restores the same bound."""
    deletion = deletion_entry.update  # deletions are always real updates
    assert isinstance(deletion, EdgeDeletion)
    if deletion.bound is None:
        return False  # unknown recorded bound: keep the pair, to be safe
    if insertion_entry.payload is not None:
        edge = insertion_entry.payload[1]
        if len(edge) < 3:
            return False
        return normalise_bound(deletion.bound) == normalise_bound(edge[2])
    return normalise_bound(deletion.bound) == insertion_entry.update.bound
