"""Unit tests for the update-batch compiler."""

import pytest

from repro.batching.compiler import compile_batch
from repro.graph.digraph import DataGraph
from repro.graph.errors import UpdateError
from repro.graph.pattern import PatternGraph
from repro.graph.updates import (
    NodeInsertion,
    UpdateKind,
    delete_data_edge,
    delete_data_node,
    delete_pattern_edge,
    insert_data_edge,
    insert_data_node,
    insert_pattern_edge,
)


def small_data_graph() -> DataGraph:
    return DataGraph(
        {name: "X" for name in "abcde"},
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")],
    )


class TestDuplicates:
    def test_repeated_edge_insertion_is_dropped(self):
        compiled = compile_batch([insert_data_edge("a", "c"), insert_data_edge("a", "c")])
        assert len(compiled) == 1
        assert compiled.report.duplicates_dropped == 1
        assert compiled.report.eliminated == 1

    def test_repeated_edge_deletion_is_dropped(self):
        compiled = compile_batch([delete_data_edge("a", "b"), delete_data_edge("a", "b")])
        assert len(compiled) == 1
        assert compiled.report.duplicates_dropped == 1

    def test_distinct_edges_survive(self):
        compiled = compile_batch([insert_data_edge("a", "c"), insert_data_edge("c", "a")])
        assert len(compiled) == 2
        assert compiled.report.is_noop


class TestCancellation:
    def test_insert_then_delete_cancels(self):
        compiled = compile_batch([insert_data_edge("a", "c"), delete_data_edge("a", "c")])
        assert len(compiled) == 0
        assert compiled.report.cancelled_ops == 2

    def test_delete_then_reinsert_cancels(self):
        compiled = compile_batch([delete_data_edge("a", "b"), insert_data_edge("a", "b")])
        assert len(compiled) == 0
        assert compiled.report.cancelled_ops == 2

    def test_insert_delete_insert_keeps_last(self):
        stream = [
            insert_data_edge("a", "c"),
            delete_data_edge("a", "c"),
            insert_data_edge("a", "c"),
        ]
        compiled = compile_batch(stream)
        assert list(compiled) == [stream[-1]]
        assert compiled.report.cancelled_ops == 2

    def test_node_insert_then_delete_cancels_and_cascades(self):
        stream = [
            insert_data_node("n", "X", [("a", "n")]),
            insert_data_edge("n", "b"),
            delete_data_node("n"),
        ]
        compiled = compile_batch(stream)
        assert len(compiled) == 0
        assert compiled.report.cancelled_ops == 2  # the node pair
        # the (n, b) edge insert and the carried (a, n) payload edge
        assert compiled.report.subsumed_ops == 2

    def test_pattern_bound_change_does_not_cancel(self):
        stream = [
            delete_pattern_edge("A", "B", bound=2),
            insert_pattern_edge("A", "B", bound=3),
        ]
        compiled = compile_batch(stream)
        assert len(compiled) == 2
        kinds = [update.kind for update in compiled]
        assert kinds == [UpdateKind.EDGE_DELETE, UpdateKind.EDGE_INSERT]

    def test_pattern_same_bound_cancels(self):
        stream = [
            delete_pattern_edge("A", "B", bound=2),
            insert_pattern_edge("A", "B", bound=2),
        ]
        compiled = compile_batch(stream)
        assert len(compiled) == 0

    def test_pattern_unknown_bound_is_kept(self):
        stream = [
            delete_pattern_edge("A", "B"),  # recorded bound unknown
            insert_pattern_edge("A", "B", bound=2),
        ]
        compiled = compile_batch(stream)
        assert len(compiled) == 2

    def test_node_resurrection_compiles(self):
        """Regression: delete-then-re-insert used to raise UpdateError."""
        compiled = compile_batch([delete_data_node("a", "X"), insert_data_node("a", "X")])
        kinds = [update.kind for update in compiled]
        assert kinds == [UpdateKind.NODE_DELETE, UpdateKind.NODE_INSERT]
        assert compiled.report.resurrections == 1


class TestSubsumption:
    def test_edge_delete_subsumed_by_node_delete(self):
        stream = [delete_data_edge("a", "b"), delete_data_node("b", "X")]
        compiled = compile_batch(stream)
        assert list(compiled) == [stream[1]]
        assert compiled.report.subsumed_ops == 1

    def test_edge_insert_to_deleted_node_is_dropped(self):
        stream = [insert_data_edge("c", "b"), delete_data_node("b", "X")]
        compiled = compile_batch(stream)
        assert list(compiled) == [stream[1]]
        assert compiled.report.subsumed_ops == 1

    def test_carried_edge_to_vanished_node_is_stripped(self):
        stream = [
            insert_data_node("ghost", "X"),
            insert_data_node("n", "X", [("n", "ghost"), ("n", "a")]),
            delete_data_node("ghost"),
        ]
        compiled = compile_batch(stream)
        assert len(compiled) == 1
        survivor = list(compiled)[0]
        assert isinstance(survivor, NodeInsertion)
        assert survivor.edges == (("n", "a"),)
        assert compiled.report.subsumed_ops == 1

    def test_carried_edge_to_net_deleted_node_is_stripped(self):
        """A later deletion of a payload edge's endpoint strips the payload."""
        stream = [
            insert_data_node("n", "X", [("n", "b")]),
            delete_data_node("b", "X"),
        ]
        compiled = compile_batch(stream)
        survivors = list(compiled)
        assert len(survivors) == 2
        node_insert = next(u for u in survivors if isinstance(u, NodeInsertion))
        assert node_insert.edges == ()
        assert compiled.report.subsumed_ops == 1

    def test_carried_edge_cancelled_by_later_edge_delete(self):
        """Deleting a payload-created edge cancels against the payload."""
        stream = [
            insert_data_node("n", "X", [("n", "a")]),
            delete_data_edge("n", "a"),
        ]
        compiled = compile_batch(stream)
        survivors = list(compiled)
        assert len(survivors) == 1
        assert isinstance(survivors[0], NodeInsertion)
        assert survivors[0].edges == ()
        assert compiled.report.cancelled_ops == 2

    def test_orphaned_payload_edge_survives_parent_cancellation(self):
        """A payload edge between pre-existing nodes outlives its parent.

        Deleting a node removes only its incident edges, so the carried
        (a, b) edge stays even though the inserting node vanishes.
        """
        stream = [
            insert_data_node("n", "X", [("a", "c")]),
            delete_data_node("n"),
        ]
        compiled = compile_batch(stream)
        survivors = list(compiled)
        assert len(survivors) == 1
        assert survivors[0].kind is UpdateKind.EDGE_INSERT
        assert (survivors[0].source, survivors[0].target) == ("a", "c")

        graph = small_data_graph()
        sequential = graph.copy()
        for update in stream:
            update.apply(sequential)
        coalesced = graph.copy()
        for update in compiled:
            update.apply(coalesced)
        assert coalesced == sequential


def apply_equivalent(base: DataGraph, stream, compiled) -> None:
    """Applying the compiled stream must produce the sequential graph."""
    sequential = base.copy()
    for update in stream:
        update.apply(sequential)
    coalesced = base.copy()
    for update in compiled:
        update.apply(coalesced)
    assert coalesced == sequential


class TestResurrection:
    """Within-batch delete-then-re-insert of a node (payload-aware)."""

    def test_same_labels(self):
        """The reborn node loses its old incident edges but keeps existing."""
        graph = small_data_graph()
        stream = [delete_data_node("b", "X"), insert_data_node("b", "X")]
        compiled = compile_batch(stream)
        apply_equivalent(graph, stream, compiled)
        result = graph.copy()
        for update in compiled:
            update.apply(result)
        assert result.has_node("b")
        assert not result.has_edge("a", "b")
        assert not result.has_edge("b", "c")

    def test_different_labels(self):
        graph = small_data_graph()
        stream = [delete_data_node("c", "X"), insert_data_node("c", "Y")]
        compiled = compile_batch(stream)
        apply_equivalent(graph, stream, compiled)
        result = graph.copy()
        for update in compiled:
            update.apply(result)
        assert result.labels_of("c") == ("Y",)
        assert compiled.report.resurrections == 1

    def test_payload_edges_are_emitted_after_the_rebirth(self):
        graph = small_data_graph()
        stream = [
            delete_data_node("b", "X"),
            insert_data_node("b", "X", [("b", "d"), ("a", "b")]),
        ]
        compiled = compile_batch(stream)
        survivors = list(compiled)
        # delete -> re-insert (payload stripped) -> standalone edge inserts
        assert [u.kind for u in survivors[:2]] == [
            UpdateKind.NODE_DELETE,
            UpdateKind.NODE_INSERT,
        ]
        assert survivors[1].edges == ()
        assert {(u.source, u.target) for u in survivors[2:]} == {("b", "d"), ("a", "b")}
        apply_equivalent(graph, stream, compiled)

    def test_late_edge_insert_to_reborn_node(self):
        graph = small_data_graph()
        stream = [
            delete_data_node("b", "X"),
            insert_data_node("b", "X"),
            insert_data_edge("b", "e"),
        ]
        compiled = compile_batch(stream)
        survivors = list(compiled)
        assert survivors[-1].kind is UpdateKind.EDGE_INSERT
        assert (survivors[-1].source, survivors[-1].target) == ("b", "e")
        apply_equivalent(graph, stream, compiled)

    def test_intermediate_churn_cancels(self):
        """del/ins/del/ins collapses to the first delete + final insert."""
        graph = small_data_graph()
        stream = [
            delete_data_node("d", "X"),
            insert_data_node("d", "X"),
            delete_data_node("d", "X"),
            insert_data_node("d", "Y"),
        ]
        compiled = compile_batch(stream)
        assert len(compiled) == 2
        assert compiled.report.cancelled_ops == 2
        assert compiled.report.resurrections == 1
        apply_equivalent(graph, stream, compiled)

    def test_edge_ops_on_old_incarnation_are_subsumed(self):
        graph = small_data_graph()
        stream = [
            delete_data_edge("a", "b"),
            delete_data_node("b", "X"),
            insert_data_node("b", "X"),
        ]
        compiled = compile_batch(stream)
        kinds = [update.kind for update in compiled]
        assert kinds == [UpdateKind.NODE_DELETE, UpdateKind.NODE_INSERT]
        assert compiled.report.subsumed_ops == 1
        apply_equivalent(graph, stream, compiled)

    def test_edge_between_two_resurrected_nodes(self):
        graph = small_data_graph()
        stream = [
            delete_data_node("b", "X"),
            delete_data_node("c", "X"),
            insert_data_node("c", "X"),
            insert_data_node("b", "X", [("b", "c")]),
        ]
        compiled = compile_batch(stream)
        survivors = list(compiled)
        # The (b, c) edge must apply after *both* rebirths.
        assert survivors[-1].kind is UpdateKind.EDGE_INSERT
        assert (survivors[-1].source, survivors[-1].target) == ("b", "c")
        apply_equivalent(graph, stream, compiled)

    def test_resurrection_interacts_with_fresh_inserts(self):
        graph = small_data_graph()
        stream = [
            insert_data_node("n", "X"),
            delete_data_node("e", "X"),
            insert_data_node("e", "X", [("n", "e")]),
            insert_data_edge("e", "a"),
        ]
        compiled = compile_batch(stream)
        apply_equivalent(graph, stream, compiled)

    @pytest.mark.parametrize("labels", ["X", "Y"])
    def test_resurrection_idempotent(self, labels):
        """Metamorphic: compile(compile(b)) == compile(b)."""
        stream = [
            delete_data_node("b", "X"),
            insert_data_node("b", labels, [("b", "d")]),
            insert_data_edge("a", "b"),
        ]
        once = compile_batch(stream)
        twice = compile_batch(once.batch)
        assert list(twice) == list(once)
        assert twice.report.is_noop


class TestIdempotence:
    """Metamorphic property: compilation is idempotent on any stream."""

    @pytest.mark.parametrize("seed", range(12))
    def test_randomised_streams(self, seed):
        from repro.workloads.generators import SocialGraphSpec, generate_social_graph
        from repro.workloads.pattern_gen import PatternSpec, generate_pattern
        from repro.workloads.update_gen import UpdateWorkloadSpec, generate_update_batch

        data = generate_social_graph(
            SocialGraphSpec(name=f"idem{seed}", num_nodes=30, num_edges=80, seed=seed)
        )
        pattern = generate_pattern(
            PatternSpec(num_nodes=4, num_edges=4, labels=("PM", "SE", "TE"), seed=seed)
        )
        batch = generate_update_batch(
            data,
            pattern,
            UpdateWorkloadSpec(num_pattern_updates=3, num_data_updates=16, seed=seed),
        )
        stream = list(batch)
        # Inject a resurrection on a third of the seeds: delete and
        # re-insert a node the generated batch does not delete.
        if seed % 3 == 0:
            deleted = {u.node for u in stream if u.kind is UpdateKind.NODE_DELETE}
            victim = sorted(
                (n for n in data.nodes() if n not in deleted), key=repr
            )[0]
            stream = stream + [
                delete_data_node(victim, data.labels_of(victim)),
                insert_data_node(victim, "PM"),
            ]
        once = compile_batch(stream)
        twice = compile_batch(once.batch)
        assert list(twice) == list(once)
        assert twice.report.is_noop


def _stream_with_resurrections(rng, names=tuple(f"n{i}" for i in range(6)), max_len=9):
    """A random valid data-update stream over a small graph.

    Node ids are drawn from a fixed pool, so deleted nodes get
    re-inserted (with fresh labels and edges) and deleted edges come
    back, often several times in one stream.  Returns ``(base, stream,
    expected)``: the starting graph, the stream, and the graph the raw
    stream produces when applied in order.
    """
    graph = DataGraph({name: rng.choice("XY") for name in names[:4]}, [])
    for source in names[:4]:
        for target in names[:4]:
            if source != target and rng.random() < 0.3:
                graph.add_edge(source, target)
    base = graph.copy()
    stream = []
    for _ in range(rng.randint(1, max_len)):
        nodes = sorted(graph.nodes())
        absent = [name for name in names if name not in graph.nodes()]
        choice = rng.random()
        if choice < 0.3 and len(nodes) >= 2:
            source, target = rng.sample(nodes, 2)
            if graph.has_edge(source, target):
                continue
            update = insert_data_edge(source, target)
        elif choice < 0.55 and graph.number_of_edges:
            update = delete_data_edge(*rng.choice(sorted(graph.edges())))
        elif choice < 0.75 and nodes:
            victim = rng.choice(nodes)
            update = delete_data_node(victim, graph.labels_of(victim))
        elif absent:
            node = rng.choice(absent)
            neighbours = rng.sample(nodes, min(len(nodes), rng.randint(0, 2)))
            edges = tuple(
                (other, node) if rng.random() < 0.5 else (node, other)
                for other in neighbours
            )
            update = insert_data_node(node, rng.choice("XY"), edges=edges)
        else:
            continue
        update.apply(graph)
        stream.append(update)
    return base, stream, graph


class TestCompiledEquivalence:
    """Metamorphic property: applying the compiled stream yields the
    same graph as applying the raw stream, resurrections included."""

    def test_edge_reinserted_after_endpoint_resurrection(self):
        stream = [
            insert_data_edge("a", "b"),
            delete_data_node("b", ("X",)),
            insert_data_node("b", "X", edges=(("a", "b"),)),
        ]
        for tail in ([], [delete_data_edge("a", "b"), insert_data_edge("a", "b")]):
            graph = DataGraph({"a": "X", "b": "X"}, [])
            expected = graph.copy()
            for update in stream + tail:
                update.apply(expected)
            assert expected.has_edge("a", "b")
            compile_batch(stream + tail).batch.apply_all(graph)
            assert graph == expected

    def test_randomised_streams_with_resurrections(self):
        import random

        resurrecting = 0
        for seed in range(2000):
            base, stream, expected = _stream_with_resurrections(random.Random(seed))
            compiled = compile_batch(stream)
            resurrecting += compiled.report.resurrections > 0
            got = base.copy()
            compiled.batch.apply_all(got)
            assert got == expected, (seed, stream, list(compiled))
        assert resurrecting > 100  # the property is exercised, not vacuous


class TestCanonicalOrderAndApplicability:
    def test_group_order(self):
        stream = [
            delete_data_node("e", "X"),
            insert_data_edge("a", "c"),
            delete_data_edge("a", "b"),
            insert_data_node("n", "X", [("n", "a")]),
        ]
        compiled = compile_batch(stream)
        kinds = [update.kind for update in compiled]
        assert kinds == [
            UpdateKind.NODE_INSERT,
            UpdateKind.EDGE_DELETE,
            UpdateKind.EDGE_INSERT,
            UpdateKind.NODE_DELETE,
        ]

    def test_data_before_pattern(self):
        stream = [insert_pattern_edge("A", "B", 2), insert_data_edge("a", "c")]
        compiled = compile_batch(stream)
        graphs = [update.graph.value for update in compiled]
        assert graphs == ["data", "pattern"]

    def test_compiled_stream_is_applicable(self):
        """A messy but valid stream compiles to a directly applicable one."""
        graph = small_data_graph()
        stream = [
            insert_data_edge("a", "c"),
            delete_data_edge("a", "c"),  # cancels
            insert_data_node("n", "X", [("e", "n")]),
            insert_data_edge("n", "a"),
            delete_data_edge("b", "c"),
            insert_data_edge("b", "c"),  # cancels the delete
            delete_data_node("d", "X"),
            insert_data_edge("a", "e"),
        ]
        sequential = graph.copy()
        for update in stream:
            update.apply(sequential)
        compiled = compile_batch(stream)
        coalesced = graph.copy()
        for update in compiled:
            update.apply(coalesced)
        assert coalesced == sequential
        assert len(compiled) < len(stream)

    def test_idempotent(self):
        stream = [
            insert_data_edge("a", "c"),
            delete_data_edge("a", "c"),
            insert_data_node("n", "X"),
            delete_data_edge("c", "d"),
        ]
        once = compile_batch(stream)
        twice = compile_batch(once.batch)
        assert list(twice) == list(once)
        assert twice.report.is_noop

    def test_empty_batch(self):
        compiled = compile_batch([])
        assert len(compiled) == 0
        assert compiled.report.is_noop

    def test_pattern_survivors_apply(self):
        pattern = PatternGraph({"A": "X", "B": "Y"}, [("A", "B", 2)])
        stream = [
            delete_pattern_edge("A", "B", bound=2),
            insert_pattern_edge("A", "B", bound=3),  # survives as a bound change
            insert_pattern_edge("B", "A", 1),
            delete_pattern_edge("B", "A", bound=1),  # cancels
        ]
        compiled = compile_batch(stream)
        for update in compiled.pattern_updates():
            update.apply(pattern)
        assert pattern.bound("A", "B") == 3
        assert not pattern.has_edge("B", "A")
