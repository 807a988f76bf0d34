"""Span tracing for the traced run, recorded from the benchmark's own files.

:class:`Tracer` wraps the public functions of each layer *where their
caller looks them up* (``repro.algorithms.base.update_slen``, not
``repro.spl.incremental.update_slen``: the caller holds its own
reference, so wrapping the defining module would miss every call).
Spans stay in memory as ``[id, parent, name, start, end]`` and become
metrics when the run ends.

Parent ids: a synchronous span's parent is the innermost open span on
its own thread.  Coroutine spans (a settle, an ingest action, a submit)
stay open across ``await`` and live in a context variable, so each
asyncio task sees only its own.  Executor threads start with an empty
context, so a span opened there with no enclosing span on its thread is
parented to the queue action running at that moment: the graph's queue
runs one action at a time, and a settle's executor work is exactly that
action's work.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Optional

import repro.algorithms.base as algorithms_base
import repro.algorithms.ua_gpnm as ua_gpnm
import repro.service.service as service_module
import repro.service.subscriptions as subscriptions_module
from repro.service.journal import GraphJournal
from repro.versioning import VersionStore

_clock = time.perf_counter


class Tracer:
    """In-memory span recorder plus the counts taken at the same boundaries."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.values: dict[str, list[float]] = defaultdict(list)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._task_span: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._action_span: Optional[int] = None
        self._loop_thread = threading.get_ident()
        self._undo: list[Callable[[], None]] = []
        self._cut_times: dict[int, float] = {}

    # -- recording -----------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self) -> Optional[int]:
        stack = self._stack()
        if stack:
            return stack[-1]
        if threading.get_ident() == self._loop_thread:
            return self._task_span.get()
        return self._action_span

    def wrap(self, fn: Callable, name: str, observe: Optional[Callable] = None) -> Callable:
        """A synchronous wrapper recording one ``name`` span per call.

        ``observe(args, result)`` runs after the span closes, so the
        counting it does is not charged to the layer.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [next(self._ids), self._parent(), name, _clock(), 0.0]
            stack = self._stack()
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[4] = _clock()
                self.spans.append(span)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def wrap_async(
        self, fn: Callable, name: str, action: bool = False, on_start: Optional[Callable] = None
    ) -> Callable:
        """A coroutine wrapper; ``action`` marks a graph-queue action."""

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            if on_start is not None:
                on_start(args)
            span = [next(self._ids), self._parent(), name, _clock(), 0.0]
            token = self._task_span.set(span[0])
            if action:
                previous, self._action_span = self._action_span, span[0]
            try:
                return await fn(*args, **kwargs)
            finally:
                if action:
                    self._action_span = previous
                self._task_span.reset(token)
                span[4] = _clock()
                self.spans.append(span)

        return traced

    # -- installation --------------------------------------------------
    def _patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        original = vars(owner)[attribute]
        setattr(owner, attribute, replacement)
        self._undo.append(lambda: setattr(owner, attribute, original))

    def _patch_method(self, owner: type, attribute: str, name: str, observe=None) -> None:
        self._patch(owner, attribute, self.wrap(vars(owner)[attribute], name, observe))

    def install(self) -> None:
        """Wrap every layer boundary the per-layer metrics read."""
        self._loop_thread = threading.get_ident()
        patch, wrap = self._patch, self.wrap
        # spl + batching, as the engine (algorithms.base) calls them.
        for attribute, name, observe in (
            ("update_slen", "spl.update_slen", None),
            ("coalesce_slen", "spl.coalesce", None),
            ("coalesce_slen_partitioned", "spl.coalesce_partitioned", None),
            ("plan_batch", "batching.plan", self._observe_plan),
            ("compile_batch", "batching.compile", self._observe_compile),
        ):
            patch(algorithms_base, attribute, wrap(getattr(algorithms_base, attribute), name, observe))
        self._patch_method(algorithms_base.GPNMAlgorithm, "subsequent_query",
                           "algorithms.subsequent_query", self._observe_query)
        # elimination, as UA-GPNM calls it.
        patch(ua_gpnm, "detect_all", wrap(ua_gpnm.detect_all, "elimination.detect"))
        patch(ua_gpnm, "EHTree", type("EHTree", (), {
            "build": staticmethod(wrap(ua_gpnm.EHTree.build, "elimination.eh_tree")),
        }))
        # matching, as the settle fan-out and Subscription.state call it.
        patch(service_module, "amend_match", wrap(service_module.amend_match, "matching.amend"))
        patch(subscriptions_module, "top_k_matches",
              wrap(subscriptions_module.top_k_matches, "matching.topk"))
        # versioning: fork_state (inside _settled_snapshot) + the store.
        service_class = service_module.StreamingUpdateService
        patch(service_class, "_settled_snapshot",
              staticmethod(wrap(service_class._settled_snapshot, "versioning.fork")))
        self._patch_method(VersionStore, "publish", "versioning.store_publish")
        # service: queue actions, submit, payload parsing, the journal.
        patch(service_class, "_cut", self._wrap_cut(service_class._cut))
        patch(service_class, "_settle", self.wrap_async(
            service_class._settle, "service.settle", action=True, on_start=self._settle_started))
        patch(service_class, "_ingest",
              self.wrap_async(service_class._ingest, "service.ingest", action=True))
        patch(service_class, "submit", self.wrap_async(service_class.submit, "service.submit"))
        patch(service_module, "UpdateData", self._traced_update_data(service_module.UpdateData))
        patch(GraphJournal, "append_delta", self._wrap_append(GraphJournal.append_delta))
        self._patch_method(GraphJournal, "checkpoint", "service.journal.checkpoint")
        self._patch_method(GraphJournal, "compact", "service.journal.compact")
        self._patch_method(GraphJournal, "open", "service.journal.open")

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- counts taken where the work happens ----------------------------
    def _observe_plan(self, args, plan) -> None:
        self.counters[f"route.{plan.strategy}"] += 1

    def _observe_compile(self, args, compiled) -> None:
        self.counters["compile.input"] += compiled.report.input_size
        self.counters["compile.eliminated"] += compiled.report.eliminated

    def _observe_query(self, args, result) -> None:
        stats = result.stats
        self.counters["query.updates"] += stats.updates_processed
        self.counters["query.rows_recomputed"] += stats.recomputed_rows
        self.counters["query.eliminated"] += stats.eliminated_updates

    def _wrap_cut(self, cut: Callable) -> Callable:
        @functools.wraps(cut)
        def traced(service, session, reason):
            self._cut_times[id(session.buffer)] = _clock()
            return cut(service, session, reason)

        return traced

    def _settle_started(self, args) -> None:
        cut_at = self._cut_times.pop(id(args[2]), None)
        if cut_at is not None:
            self.values["cut_to_settle"].append(_clock() - cut_at)

    def _wrap_append(self, append: Callable) -> Callable:
        traced_append = self.wrap(append, "service.journal.append")

        @functools.wraps(append)
        def traced(journal, updates):
            before = journal.path.stat().st_size
            seq = traced_append(journal, updates)
            self.counters["journal.bytes"] += journal.path.stat().st_size - before
            self.counters["journal.deltas"] += len(updates)
            return seq

        return traced

    def _traced_update_data(self, update_data: type) -> type:
        wrap = self.wrap

        class UpdateData(update_data):
            __init__ = wrap(update_data.__init__, "service.delta.parse")
            updates = wrap(update_data.updates, "service.delta.parse")

        return UpdateData


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """How much of ``[start, end]`` the union of ``intervals`` covers."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total
