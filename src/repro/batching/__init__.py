"""Batch-update compilation and coalesced ``SLen`` maintenance.

UA-GPNM's premise is that the updates arriving between two queries
should be handled *jointly*.  This package supplies the two pieces that
make the joint handling cheap:

* :mod:`repro.batching.compiler` — the **update-batch compiler**.  It
  canonicalises an update stream: exact duplicates are dropped, inverse
  insert/delete pairs cancel, edge operations subsumed by a node
  deletion disappear, and the survivors are emitted in a canonical
  order (node insertions, edge deletions, edge insertions, node
  deletions) that is always applicable.  A
  :class:`~repro.batching.compiler.CompilationReport` records what was
  eliminated.
* :mod:`repro.batching.coalesce` — **single-pass SLen maintenance**.
  Instead of one :func:`~repro.spl.incremental.update_slen` call per
  update, all surviving deletions are folded into one affected-region
  recompute per source and all surviving insertions into one
  multi-source relaxation sweep, yielding a single merged
  :class:`~repro.spl.incremental.SLenDelta` equal to the composition of
  the per-update deltas.

* :mod:`repro.batching.planner` — the **adaptive execution planner**.
  One decision point that routes each batch to per-update, coalesced or
  partitioned-coalesced maintenance via an explicit, serializable
  :class:`~repro.batching.planner.CostModel`; algorithms expose it as
  ``batch_plan="auto" | "per-update" | "coalesced" | "partitioned"``
  (``"auto"`` is the default — see
  :class:`repro.algorithms.base.GPNMAlgorithm`) and surface each
  decision as a :class:`~repro.batching.planner.PlanReport`.

* :mod:`repro.batching.telemetry` / :mod:`repro.batching.calibrate` —
  the planner's **self-calibration loop**.  Every maintained batch
  emits a :class:`~repro.batching.telemetry.PlanObservation` (predicted
  cost vs measured maintenance time) into a bounded, persistable
  :class:`~repro.batching.telemetry.TelemetryLog`;
  :func:`~repro.batching.calibrate.refit_cost_model` least-squares
  refits the cost model from those observations (guarded against fits
  that predict held-out observations worse than the incumbent), either
  offline (the CI calibration job) or online
  (``recalibrate_every`` / ``--recalibrate-every``).

With a coalescing route chosen, the cost of a subsequent query scales
with the *net* delta of the batch instead of the raw update count.
"""

from repro.batching.compiler import CompilationReport, CompiledBatch, compile_batch
from repro.batching.coalesce import CoalescedMaintenance, coalesce_slen
from repro.batching.planner import (
    DEFAULT_COST_MODEL,
    PLAN_CHOICES,
    STRATEGIES,
    BatchStatistics,
    CostModel,
    PlanReport,
    plan_batch,
)
from repro.batching.telemetry import PlanObservation, TelemetryLog

__all__ = [
    "CompilationReport",
    "CompiledBatch",
    "compile_batch",
    "CoalescedMaintenance",
    "coalesce_slen",
    "PLAN_CHOICES",
    "STRATEGIES",
    "BatchStatistics",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "PlanReport",
    "plan_batch",
    "PlanObservation",
    "TelemetryLog",
]

# NOTE: repro.batching.calibrate (refit_cost_model, refit_report,
# planner_choice_accuracy, RefitReport) is deliberately not re-exported
# here: the module doubles as `python -m repro.batching.calibrate`, and
# importing it from the package __init__ would leave it pre-imported in
# sys.modules when runpy executes it.  Import it directly.
