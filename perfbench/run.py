"""End-to-end benchmark of the streaming GPNM service.

Usage (from the repository root)::

    python3 perfbench/run.py --workload maintain-churn --seed 1 --seconds 20 --trace 0

Each run drives one ``StreamingUpdateService`` in library mode on one
event loop (the service's executor is the only other thread).  After
the set-up it goes through four cycles at 20 s (one per 5 s, two to
six); each cycle times set-ups and cold recoveries of a fixed crashed
journal, then runs a backlogged closed-loop chunk (a fixed number of
rounds, together about a quarter of ``--seconds`` at the calibrated
speed) and a paced open-loop chunk with readers (a fixed number of
payloads at the workload's rate, together about 11 to 14 s at 20 s).
The correctness gate, a crash and recovery of the run's own service
and a memory measurement close the run.  Set-up, recovery and
backlogged throughput are timed in CPU seconds of the process; the
paced latencies, on the wall clock, are reported but are not metrics.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
same phases with layer spans recorded and reports the per-layer metrics
instead.  The last line of standard output is the JSON result; the line
before it carries the provenance and the phase report.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Share of ``--seconds`` given to the backlogged chunks.
BACKLOGGED_SHARE = 0.25
#: Paced payloads per second of ``--seconds``: 112 at 20 s, so that at
#: least ten distinct settles lie beyond the visible p90.  The workload's
#: paced rate sets how long the paced chunks take.
PACED_PAYLOADS_PER_SECOND = 5.6
#: Cycles per run: one per ``SECONDS_PER_CYCLE`` of ``--seconds``, at
#: least two and at most ``CYCLES``.
CYCLES = 6
SECONDS_PER_CYCLE = 5
#: CPU seconds each cycle spends on set-up and on recovery samples, at
#: least.  Set-ups of the same work vary by up to ±25% within one run,
#: so ``setup_s`` is the median of at least two per cycle.  A quick
#: recovery (0.15 s on ``fanout-topk``) falls into one of two speeds
#: about 30% apart, so ``recovery_s`` is the mean of its samples.
SETUP_SAMPLE_SECONDS = 0.6
RECOVERY_SAMPLE_SECONDS = 0.5


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="smoke size: a quarter-size graph; validity guards reported, not enforced",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        result, report = asyncio.run(run(args, WORKLOADS[args.workload], workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


async def run(args, workload, workdir: Path):
    from perfbench import phases
    from perfbench.workloads import BLOCK, build_graph, build_patterns, build_stream

    base = build_graph(workload, 0.25 if args.tiny else 1.0)
    cycles = max(2, min(CYCLES, int(args.seconds / SECONDS_PER_CYCLE)))
    # At least two rounds per chunk, so that ``ingest_dps`` on
    # ``durable-recover`` (the slowest rounds) rests on eight settles.
    rounds = max(2, round(BACKLOGGED_SHARE * args.seconds * workload.rounds_per_second / cycles))
    # Each paced chunk consumes whole generation blocks of the stream,
    # so the next chunk's payloads stay on the block grid.
    per_block = BLOCK // workload.paced_payload
    blocks = max(cycles, round(PACED_PAYLOADS_PER_SECOND * args.seconds / per_block))
    payloads = [per_block * (blocks // cycles + (cycle < blocks % cycles)) for cycle in range(cycles)]
    state = phases.RunState(
        workload=workload,
        seed=args.seed,
        base=base,
        patterns=build_patterns(workload),
        stream=build_stream(workload, base, cycles * rounds * workload.cut_size + blocks * BLOCK),
        workdir=workdir,
    )
    try:
        return await _measure(args, state, cycles, rounds, payloads)
    finally:
        for undo in reversed(state.undo):
            undo()


async def _measure(args, state, cycles: int, rounds: int, payloads: list[int]):
    from perfbench import phases
    from perfbench.spans import Tracer
    from perfbench.workloads import GRAPH_KEY
    from repro.workloads.update_gen import derive_seed

    workload = state.workload
    service, seconds, wall = await phases.set_up(state)
    setup_seconds, setup_wall, problems = [seconds], [wall], []
    recovery_seconds, recovery_wall = [], []
    crash_dir, crashed_graph = await phases.prepare_crash(state)
    # The traced run records layer spans in the recoveries, the
    # backlogged and the paced chunks; set-ups stay untraced.
    tracer = Tracer() if args.trace else None
    rng = random.Random(derive_seed(args.seed, workload.name, "paced"))
    backlog_chunks, paced_chunks = [], []
    for cycle in range(cycles):
        # At least one sample of each per cycle; more while they are quick.
        started = len(setup_seconds)
        while len(setup_seconds) == started or sum(setup_seconds[started:]) < SETUP_SAMPLE_SECONDS:
            seconds, wall = await phases.setup_sample(state, len(setup_seconds))
            setup_seconds.append(seconds)
            setup_wall.append(wall)
        started = len(recovery_seconds)
        with traced(tracer):
            while len(recovery_seconds) == started or sum(recovery_seconds[started:]) < RECOVERY_SAMPLE_SECONDS:
                seconds, wall, found = await phases.recovery_sample(
                    state, crash_dir, crashed_graph, str(len(recovery_seconds)))
                recovery_seconds.append(seconds)
                recovery_wall.append(wall)
                problems += found
        with traced(tracer):
            backlog_chunks.append(await phases.backlogged(state, service, rounds))
        with traced(tracer):
            paced_chunks.append(await phases.paced(state, service, payloads[cycle], rng))
    backlog = phases.summarize_backlogged(state, backlog_chunks)
    paced = phases.summarize_paced(state, paced_chunks)
    stats = service.stats(GRAPH_KEY)
    problems += phases.gate(state, service)
    with traced(tracer):
        final_recovery, final_recovery_wall, found = await phases.crash_and_recover(state, service)
    problems += found
    memory_mb = None if args.trace else await phases.memory_peak(state)
    for problem in problems:
        print(f"perfbench: INCORRECT: {problem}", file=sys.stderr)
    for reason in state.invalid:
        print(f"perfbench: INVALID RUN: {reason}", file=sys.stderr)
    for reason in state.paced_invalid:
        print(f"perfbench: paced figures invalid (not metrics): {reason}", file=sys.stderr)
    valid = not state.invalid or args.tiny

    if args.trace:
        from perfbench.layers import layer_metrics

        overhead = await phases.tracing_overhead(state, Tracer(), rounds)
        metrics = layer_metrics(tracer, stats, paced, overhead)
    else:
        metrics = {
            "setup_s": (statistics.median(setup_seconds), "s"),
            "ingest_dps": (backlog["ingest_dps"], "1/s"),
            "recovery_s": (statistics.fmean(recovery_seconds), "s"),
            "service_peak_mb": (memory_mb, "MB"),
        }
    result = {
        "correct": not problems and valid,
        "attempted": state.attempted,
        "failed": state.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    report = {
        "provenance": provenance(service, workload),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cycles": cycles,
        "setup_seconds": setup_seconds,
        "setup_wall_seconds": setup_wall,
        "backlogged": backlog,
        "paced": paced,
        "recovery_seconds": recovery_seconds,
        "recovery_wall_seconds": recovery_wall,
        "final_recovery_seconds": final_recovery,
        "final_recovery_wall_seconds": final_recovery_wall,
        "journal": stats["journal"],
        "problems": problems,
        "invalid": state.invalid,
        "paced_invalid": state.paced_invalid,
    }
    return result, report


@contextlib.contextmanager
def traced(tracer):
    """Record layer spans inside the block when the run is traced."""
    if tracer is None:
        yield
        return
    tracer.install()
    try:
        yield
    finally:
        tracer.uninstall()


def provenance(service, workload) -> dict:
    """Where and on what these numbers were measured."""
    import numpy

    commit = "unknown"
    try:
        # Only this checkout's own commit: git must not look for a
        # repository in the directories around it.
        lines = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        lines = []
    if len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
        commit = lines[1]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    config = service.config
    return {
        "commit": commit,
        "host": platform.node(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "config": {
            "slen_backend": config.slen_backend,
            "horizon": str(service.snapshot(service.graphs[0]).slen.horizon),
            "deadline_seconds": config.deadline_seconds,
            "coalesce_min_batch": config.coalesce_min_batch,
            "max_buffer": config.max_buffer,
            "journaled": workload.journaled,
            "journal_compact_bytes": config.journal_compact_bytes,
        },
    }


if __name__ == "__main__":
    sys.exit(main())
