"""Metric tables, the metric-name grammar, and the percentile rules.

``BENCHMARK.json`` at the repository root is the one source of every
metric's name, unit, direction and bound:

* :data:`GATE_METRICS` — its ``end_to_end`` list, the metrics of the final
  JSON line (``--trace 0``).  Each is defined on *every* workload and never
  reads 0, so a regression gate can compare any workload on any of them.  An
  "operation" is the workload's unit of work: one
  ``Pretrainer.train_iteration`` on the training workloads, one query of the
  session on ``search_session``.
* :data:`LAYER_METRICS` — its ``per_layer`` list, the metrics of the traced
  run (``--trace 1``).  A layer a workload bypasses reports a measured 0
  there.

:data:`LAYER_EFFECTS` adds what ``BENCHMARK.json`` has no room for: for
each per-layer metric, the layer it belongs to, the public call whose spans
it sums, and the end-to-end metric and workload it should move.

The workload-specific end-to-end metrics (``tokens_per_s``, ``val_ppl``,
``query_cold_s_p50`` and so on) are printed in the human-readable report and
stored with the run's result file (see ``README.md``).
"""

from __future__ import annotations

import json
import math
import pathlib
import re
from typing import NamedTuple, Sequence

#: Metric names: a letter or digit first, then letters, digits, ``_``, ``.``
#: and ``-``, at most 64 characters.
NAME_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")

#: Percentiles the tail rule may pick from, highest first.
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def valid_name(name: str) -> bool:
    """Whether ``name`` follows the metric-name grammar."""
    return NAME_PATTERN.fullmatch(name) is not None


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``pct``% at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    return sorted(samples)[_rank(pct, len(samples)) - 1]


def _rank(pct: float, count: int) -> int:
    """1-based nearest rank of ``pct`` among ``count`` samples (float-noise safe)."""
    return max(1, math.ceil(round(pct * count / 100.0, 9)))


def samples_beyond(samples: Sequence[float], pct: float) -> int:
    """How many sample positions lie above the nearest-rank ``pct`` percentile."""
    return len(samples) - _rank(pct, len(samples))


def tail_percentile(
    samples: Sequence[float], ladder: Sequence[float] = PERCENTILE_LADDER
) -> tuple[float, float, int] | None:
    """The highest ladder percentile with at least :data:`MIN_BEYOND` samples beyond it.

    Returns ``(percentile, value, samples_beyond)``, or ``None`` when even the
    lowest rung leaves fewer than :data:`MIN_BEYOND` samples above it.
    """
    for pct in sorted(ladder, reverse=True):
        beyond = samples_beyond(samples, pct)
        if beyond >= MIN_BEYOND:
            return pct, percentile(samples, pct), beyond
    return None


class LayerEffect(NamedTuple):
    """Where a per-layer metric comes from and what it should move."""

    layer: str
    call: str
    moves: str
    workloads: str


BENCHMARK = json.loads(
    (pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8")
)
#: End-to-end metrics of the final JSON line: ``{"name", "unit", "better", "bound"}``.
GATE_METRICS: list[dict] = BENCHMARK["end_to_end"]
#: Per-layer metrics of the traced run: ``{"name", "unit", "better"}``.
LAYER_METRICS: list[dict] = BENCHMARK["per_layer"]

TRAINING = "optimus_long, zb1_process_wide"

#: Per-layer metric name -> its layer, timed call, and expected effect.
#: Times are busy milliseconds per operation (outermost spans of the call
#: only, so a call that re-enters itself is not counted twice) unless the
#: call column says otherwise.
LAYER_EFFECTS: dict[str, LayerEffect] = {
    "data.batches_ms": LayerEffect(
        "data", "LanguageModelingDataLoader.iteration_batches", "tokens_per_s",
        "zb1_process_wide"),
    "engine.iteration_ms": LayerEffect(
        "parallel.engine", "ThreeDParallelEngine.run_iteration", "iter_ms_p50", TRAINING),
    "engine.self_ms": LayerEffect(
        "parallel.engine", "ThreeDParallelEngine.run_iteration (self time: engine time no "
        "traced child layer covers)", "iter_ms_p50", TRAINING),
    "pipeline.self_ms": LayerEffect(
        "parallel.pipeline_engine", "PipelineParallelEngine.run_iteration (self time)",
        "iter_ms_p90, peak_rss_mb", "optimus_long"),
    "comm_log.records": LayerEffect(
        "parallel.collectives", "len(CommunicationLog.records) at the end of the run",
        "iter_ms_p90, peak_rss_mb", "optimus_long"),
    "nn.forward_ms": LayerEffect("nn", "GPTStage.forward", "tokens_per_s", "optimus_long"),
    "nn.backward_ms": LayerEffect(
        "nn", "GPTStage.backward / backward_input / backward_weight", "tokens_per_s",
        "optimus_long"),
    "cb.ms": LayerEffect(
        "core.compressed_backprop", "CompressedBackpropagation.__call__",
        "tokens_per_s, wire_mb_per_iter, val_ppl", "optimus_long"),
    "cb.calls": LayerEffect(
        "core.compressed_backprop", "CompressedBackpropagation.__call__ (calls per iteration)",
        "tokens_per_s", "optimus_long"),
    "wire.pp_mb_per_iter": LayerEffect(
        "core.compressed_backprop", "axis_wire_bytes pipeline_forward + pipeline_backward",
        "wire_mb_per_iter", "optimus_long"),
    "dp_codec.ms": LayerEffect(
        "core.selective_stage", "SelectiveStageCompression.reduce_bucket",
        "tokens_per_s, wire_mb_per_iter", "optimus_long"),
    "dp_codec.calls": LayerEffect(
        "core.selective_stage", "SelectiveStageCompression.reduce_bucket (calls per iteration)",
        "tokens_per_s", "optimus_long"),
    "dp_sync.ms": LayerEffect(
        "parallel.data_parallel", "BucketedDataParallelSync.synchronize", "iter_ms_p50",
        TRAINING),
    "wire.dp_mb_per_iter": LayerEffect(
        "parallel.data_parallel", "axis_wire_bytes data_parallel", "wire_mb_per_iter",
        TRAINING),
    "wire.dp_exposed_fraction": LayerEffect(
        "parallel.data_parallel", "dp_exposed_wire_bytes / data_parallel wire bytes",
        "iter_ms_p50", TRAINING),
    "embedding_sync.ms": LayerEffect(
        "core.fused_embedding", "EmbeddingSynchronizer.synchronize", "wire_mb_per_iter",
        "optimus_long"),
    "wire.embedding_mb_per_iter": LayerEffect(
        "core.fused_embedding", "axis_wire_bytes embedding", "wire_mb_per_iter",
        "optimus_long"),
    "wire.total_mb_per_iter": LayerEffect(
        "parallel.engine", "sum of axis_wire_bytes", "wire_mb_per_iter", TRAINING),
    "optim.step_ms": LayerEffect("optim", "FusedAdam.step", "tokens_per_s", TRAINING),
    "guard.snapshot_ms": LayerEffect(
        "resilience", "ParameterArena.snapshot", "iter_ms_p50", "optimus_long"),
    "guard.skipped_steps": LayerEffect(
        "resilience", "ResilienceReport.skipped_steps", "error_rate", "optimus_long"),
    "ckpt.save_ms": LayerEffect(
        "training.checkpoint", "save_rotating_checkpoint (ms per save)",
        "iter_ms_p90, tokens_per_s", "optimus_long"),
    "ckpt.bytes": LayerEffect(
        "training.checkpoint", "size of the last checkpoint file", "tokens_per_s",
        "optimus_long"),
    "quality.val_ppl": LayerEffect(
        "training.trainer", "Pretrainer.validation_perplexity", "val_ppl", TRAINING),
    "exec.wait_ms": LayerEffect(
        "exec", "ProcessExecutor.run / WorkerSupervisor.run", "tokens_per_s, setup_s",
        "zb1_process_wide"),
    "exec.respawns": LayerEffect(
        "exec", "WorkerSupervisor.total_respawns", "tokens_per_s", "zb1_process_wide"),
    "search.expand_ms": LayerEffect(
        "search.query", "SearchQuery.expand", "query_warm_s_p50", "search_session"),
    "search.frontier_ms": LayerEffect(
        "search.frontier", "pareto_frontier + rank_frontier", "query_warm_s_p50",
        "search_session"),
    "search.cache_get_ms": LayerEffect(
        "search.cache", "SearchCache.get", "query_warm_s_p50", "search_session"),
    "search.cache_put_ms": LayerEffect(
        "search.cache", "SearchCache.put", "query_cold_s_p50", "search_session"),
    "search.cache_hit_ratio": LayerEffect(
        "search.cache", "SearchCache.get hits / lookups", "query_warm_s_p50, query_cold_s_p50",
        "search_session"),
    "search.pool_run_ms": LayerEffect(
        "search.pool", "EvaluationPool.run", "candidates_per_s", "search_session"),
    "search.evaluated": LayerEffect(
        "search.pool", "simulator evaluations per session", "candidates_per_s",
        "search_session"),
    "search.eval_errors": LayerEffect(
        "search.pool", "candidate errors per session", "error_rate", "search_session"),
    "sim.evaluate_plan_ms": LayerEffect(
        "simulator", "evaluate_plan, every evaluation of the session (ms per evaluation)",
        "candidates_per_s", "search_session"),
    "trace.overhead_fraction": LayerEffect(
        "benchmark", "1 - traced ops_per_s / untraced ops_per_s over the same operations",
        "ops_per_s", "all"),
    "trace.spans_per_op": LayerEffect(
        "benchmark", "spans recorded per operation", "ops_per_s", "all"),
}
