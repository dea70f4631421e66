"""The three benchmark workloads, driven through the public ``repro`` APIs.

``optimus_long``
    Full Optimus-CC (``cb_fe_sc``, proxy-scaled) on the CLI-sized proxy GPT,
    PP4 x DP2 with 4 micro-batches, serial executor, guarded loop, rotating
    checkpoint every :data:`CHECKPOINT_EVERY` iterations.  Per-call dispatch
    and per-iteration bookkeeping dominate at this size, every compression
    path runs every iteration, and one long run exposes costs that grow with
    the iterations done (the communication log is never trimmed).  Bypasses
    ``exec``, ``simulator`` and ``search``.
``zb1_process_wide``
    Uncompressed ``zb1`` schedule on the process executor (2 forked workers),
    PP4 x DP2, on a wider proxy GPT.  Split-backward compute and worker IPC
    do most of the work; every codec layer is idle, so a codec change must
    leave it unchanged.
``search_session``
    Repeated copies of one seeded capacity-planning session, one
    ``run_queries`` call per query with an inline pool, on a cache that
    starts empty for every copy.  Exercises the simulator, pool, cache and
    frontier; bypasses the engine.

Each workload has the same shape: ``setup`` builds the system and runs its
first operation untimed, ``measure`` runs a fixed number of timed
operations (:func:`operations_for`) and checks their outputs, ``teardown``
releases workers.  Only the generated inputs (corpus,
weight-init seed, queries) depend on ``seed``.
"""

from __future__ import annotations

import dataclasses
import math
import os
import pathlib
import random
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from statistics import median
from typing import Any, Callable

from perfbench.calibration import Reference, scaled
from perfbench.metrics import percentile
from perfbench.tracing import Tracer, layer_totals

from repro.core.compressed_backprop import CompressedBackpropagation
from repro.core.fused_embedding import EmbeddingSynchronizer
from repro.core.selective_stage import SelectiveStageCompression
from repro.data import LanguageModelingDataLoader, SyntheticCorpus, SyntheticCorpusConfig
from repro.exec import ProcessExecutor, WorkerSupervisor
from repro.models.gpt_configs import functional_config
from repro.nn.gpt_stage import GPTStage
from repro.optim import FusedAdam
from repro.parallel.arena import ParameterArena
from repro.parallel.data_parallel import BucketedDataParallelSync
from repro.parallel.engine import ThreeDParallelEngine
from repro.parallel.pipeline_engine import PipelineParallelEngine
from repro.plan import ParallelPlan, ResilienceSpec, Topology
from repro.search import pool as search_pool
from repro.search import service as search_service
from repro.search.cache import SearchCache
from repro.search.query import SearchQuery
from repro.training import checkpoint
from repro.training.trainer import Pretrainer

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 9
#: A run makes at least this many operations, so the 90th percentile has
#: at least 10 samples beyond it.
MIN_OPS = 100
#: Hard limit on one measuring phase.  A phase cut short by it fails its
#: ``ops_reached_target`` check: fewer operations would grow the
#: communication log less and flatter the tail latency and memory.
MAX_PHASE_S = 75.0
CHECKPOINT_EVERY = 50
VALIDATION_EVERY = 100
#: Pool workers of the search workload.  Inline: with forked workers the
#: parent's cache writes and the workers' evaluations put three busy
#: processes on a two-CPU host, and the cold queries' times then follow
#: the scheduler more than the program.
SEARCH_WORKERS = 0
MB = 1e6


@dataclass
class Measurement:
    """What one measuring phase produced."""

    latencies_s: list[float] = field(default_factory=list)
    #: Reference-kernel time measured next to each operation (see calibration.py).
    references_s: list[float] = field(default_factory=list)
    #: Wall time of the timed steps (operations and their stalls) as measured,
    wall_s: float = 0.0
    #: and scaled to the nominal reference speed.
    scaled_wall_s: float = 0.0
    failed: int = 0
    #: Run-level checks (name -> passed).
    checks: dict[str, bool] = field(default_factory=dict)
    #: Workload-specific end-to-end report: name -> (value, unit).
    report: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: Raw facts the per-layer metrics are computed from.
    facts: dict[str, float] = field(default_factory=dict)

    @property
    def ops(self) -> int:
        return len(self.latencies_s)

    @property
    def ops_per_s(self) -> float:
        """Operations per scaled second of the timed steps."""
        return self.ops / self.scaled_wall_s

    @property
    def scaled_latencies_s(self) -> list[float]:
        return [scaled(latency, ref) for latency, ref in zip(self.latencies_s, self.references_s)]

    def end_step(self, seconds: float, reference_s: float) -> None:
        """Book a timed step of one operation and the reference time taken after it."""
        self.wall_s += seconds
        self.scaled_wall_s += scaled(seconds, reference_s)
        self.references_s.append(reference_s)


def operations_for(seconds: float, nominal_ops_per_s: float) -> int:
    """The fixed operation count of a ``seconds`` run (at least :data:`MIN_OPS`).

    The work of a run is fixed by ``--seconds`` at a nominal rate instead of
    by the clock: with a time limit, a faster program would run more
    iterations and grow the never-trimmed communication log further, so
    its tail latency and memory would read worse for being faster.
    """
    return max(MIN_OPS, round(seconds * nominal_ops_per_s))


def _keep_going(started: float, ops: int, target: int) -> bool:
    """Phase loop condition: ``target`` operations, within :data:`MAX_PHASE_S`."""
    return ops < target and time.perf_counter() - started < MAX_PHASE_S


def _per_op(totals: dict[str, dict[str, float]], name: str, key: str, ops: int) -> float:
    """``totals[name][key]`` per operation (0 for a span name never recorded)."""
    return totals.get(name, {}).get(key, 0.0) / ops


def _reference(workers: int) -> Reference:
    """The host-speed reference for a workload forking ``workers`` workers.

    Without workers the run stays on its one pinned CPU: one kernel pass,
    random reads included, per operation, smoothed over the last eight.
    With workers the operation spans every CPU, so the kernel is timed on
    each, three passes apiece; it reads no table there, whose pages every
    forked worker would map and count in its own peak RSS.
    """
    if not workers:
        return Reference(window=8, memory=True)
    return Reference(cpus=sorted(os.sched_getaffinity(0)), passes=3)


def _log_failure(what: str) -> None:
    print(f"[perfbench] {what} failed:\n{traceback.format_exc()}", file=sys.stderr)


# ----------------------------------------------------------------------- training --


@dataclass(frozen=True)
class TrainingShape:
    """One training workload: plan, proxy model, data and loop policy."""

    plan: ParallelPlan
    vocab_size: int
    model_sequence_length: int
    num_layers: int
    hidden_size: int
    num_heads: int
    sequence_length: int
    micro_batch_size: int
    checkpoint_every: int | None
    #: Whether the PP-backward and DP axes must carry compressed records.
    compressed: bool
    #: Iterations per second of ``--seconds`` (about this host's pace).
    nominal_ops_per_s: float

    @property
    def workers(self) -> int:
        """Worker processes the plan forks (one per DP replica under ``process``)."""
        return self.plan.topology.dp if self.plan.executor == "process" else 0

    @property
    def tokens_per_iteration(self) -> int:
        topology = self.plan.topology
        return topology.dp * topology.micro_batches * self.micro_batch_size * self.sequence_length


OPTIMUS_LONG = TrainingShape(
    plan=ParallelPlan.cb_fe_sc(Topology(dp=2, pp=4, micro_batches=4))
    .proxy_scaled()
    .with_resilience(ResilienceSpec()),
    vocab_size=64,
    model_sequence_length=16,
    num_layers=4,
    hidden_size=16,
    num_heads=2,
    sequence_length=12,
    micro_batch_size=2,
    checkpoint_every=CHECKPOINT_EVERY,
    compressed=True,
    nominal_ops_per_s=20.0,
)

ZB1_PROCESS_WIDE = TrainingShape(
    plan=ParallelPlan.zb1(Topology(dp=2, pp=4, micro_batches=4)).with_executor("process"),
    vocab_size=256,
    model_sequence_length=32,
    num_layers=8,
    hidden_size=64,
    num_heads=4,
    sequence_length=32,
    micro_batch_size=4,
    checkpoint_every=None,
    compressed=False,
    nominal_ops_per_s=3.4,
)

TRAINING_TARGETS = (
    (LanguageModelingDataLoader, "iteration_batches", "data.batches"),
    (ThreeDParallelEngine, "run_iteration", "engine.iteration"),
    (PipelineParallelEngine, "run_iteration", "pipeline.iteration"),
    (GPTStage, "forward", "nn.forward"),
    (GPTStage, "backward", "nn.backward"),
    (GPTStage, "backward_input", "nn.backward"),
    (GPTStage, "backward_weight", "nn.backward"),
    (CompressedBackpropagation, "__call__", "cb"),
    (SelectiveStageCompression, "reduce_bucket", "dp_codec"),
    (BucketedDataParallelSync, "synchronize", "dp_sync"),
    (EmbeddingSynchronizer, "synchronize", "embedding_sync"),
    (FusedAdam, "step", "optim.step"),
    (ParameterArena, "snapshot", "guard.snapshot"),
    (ProcessExecutor, "run", "exec.wait"),
    (WorkerSupervisor, "run", "exec.wait"),
    (checkpoint, "save_rotating_checkpoint", "ckpt.save"),
)


class TrainingWorkload:
    """A long training run through :class:`Pretrainer`, timed per iteration."""

    trace_targets = TRAINING_TARGETS

    def __init__(self, name: str, shape: TrainingShape, seed: int, workdir: pathlib.Path) -> None:
        self.name = name
        self.shape = shape
        self.nominal_ops_per_s = shape.nominal_ops_per_s
        self.seed = seed
        self.workdir = workdir
        self.workers = shape.workers
        self.reference = _reference(self.workers)

    def setup(self) -> Pretrainer:
        shape = self.shape
        model = functional_config(
            vocab_size=shape.vocab_size,
            sequence_length=shape.model_sequence_length,
            num_layers=shape.num_layers,
            hidden_size=shape.hidden_size,
            num_heads=shape.num_heads,
        )
        corpus = SyntheticCorpus(SyntheticCorpusConfig(vocab_size=shape.vocab_size, seed=self.seed))
        loader = LanguageModelingDataLoader(
            corpus,
            sequence_length=shape.sequence_length,
            micro_batch_size=shape.micro_batch_size,
            num_micro_batches=shape.plan.topology.micro_batches,
            data_parallel_degree=shape.plan.topology.dp,
        )
        trainer = Pretrainer(model, loader, plan=shape.plan, seed=self.seed)
        try:
            trainer.train_iteration()
        except BaseException:
            trainer.close()
            raise
        return trainer

    def teardown(self, trainer: Pretrainer) -> None:
        trainer.close()

    def _iteration_ok(self, trainer: Pretrainer, loss: float, skipped_before: int) -> bool:
        result = trainer.last_iteration_result
        if not math.isfinite(loss) or trainer.resilience_report.skipped_steps != skipped_before:
            return False
        fractions = result.axis_compressed_fraction
        if self.shape.compressed:
            return fractions["pipeline_backward"] > 0 and fractions["data_parallel"] > 0
        return all(value == 0 for value in fractions.values())

    def measure(self, trainer: Pretrainer, target: int, tracer: Tracer | None = None) -> Measurement:
        shape = self.shape
        run = Measurement()
        wire = {"total": 0.0, "pp": 0.0, "dp": 0.0, "dp_exposed": 0.0, "embedding": 0.0}
        checkpoint_dir = self.workdir / "checkpoints"
        saves = 0
        checkpoint_path = None
        started = time.perf_counter()
        while _keep_going(started, run.ops, target):
            if tracer is not None:
                tracer.trace_id = run.ops
            skipped_before = trainer.resilience_report.skipped_steps
            begin = time.perf_counter()
            try:
                loss = trainer.train_iteration()
            except Exception:
                _log_failure(f"{self.name} iteration {run.ops}")
                run.latencies_s.append(time.perf_counter() - begin)
                run.end_step(run.latencies_s[-1], self.reference.measure())
                run.failed += 1
                break
            run.latencies_s.append(time.perf_counter() - begin)
            if not self._iteration_ok(trainer, loss, skipped_before):
                run.failed += 1
            result = trainer.last_iteration_result
            axes = result.axis_wire_bytes
            wire["total"] += result.total_wire_bytes
            wire["pp"] += axes["pipeline_forward"] + axes["pipeline_backward"]
            wire["dp"] += axes["data_parallel"]
            wire["dp_exposed"] += result.dp_exposed_wire_bytes
            wire["embedding"] += axes["embedding"]
            iteration = run.ops + 1  # the set-up ran the first iteration
            if shape.checkpoint_every is not None and iteration % shape.checkpoint_every == 0:
                checkpoint_path = checkpoint.save_rotating_checkpoint(
                    trainer, checkpoint_dir, keep_last=2
                )
                saves += 1
            if iteration % VALIDATION_EVERY == 0:
                trainer.history.record_validation(iteration, trainer.validation_loss())
            run.end_step(time.perf_counter() - begin, self.reference.measure())
        run.checks["ops_reached_target"] = run.ops >= target

        val_ppl = trainer.validation_perplexity()
        ops = max(run.ops, 1)
        run.checks["weights_in_sync"] = trainer.weights_in_sync()
        run.checks["val_ppl_below_uniform"] = math.isfinite(val_ppl) and val_ppl < shape.vocab_size
        run.report = {
            "tokens_per_s": (run.ops * shape.tokens_per_iteration / run.wall_s, "tokens/s"),
            "iter_ms_p50": (median(run.latencies_s) * 1e3, "ms"),
            "iter_ms_p90": (percentile(run.latencies_s, 90) * 1e3, "ms"),
            "val_ppl": (val_ppl, "ppl"),
            "wire_mb_per_iter": (wire["total"] / ops / MB, "MB"),
        }
        run.facts = {
            "comm_log.records": float(len(trainer.log.records)),
            "wire.pp_mb_per_iter": wire["pp"] / ops / MB,
            "wire.dp_mb_per_iter": wire["dp"] / ops / MB,
            "wire.dp_exposed_fraction": wire["dp_exposed"] / wire["dp"] if wire["dp"] else 0.0,
            "wire.embedding_mb_per_iter": wire["embedding"] / ops / MB,
            "wire.total_mb_per_iter": wire["total"] / ops / MB,
            "guard.skipped_steps": float(trainer.resilience_report.skipped_steps),
            "exec.respawns": float(trainer.resilience_report.respawns),
            "quality.val_ppl": val_ppl,
            "ckpt.saves": float(saves),
            "ckpt.bytes": float(checkpoint_path.stat().st_size) if checkpoint_path else 0.0,
        }
        return run

    def layer_metrics(self, run: Measurement, tracer: Tracer) -> dict[str, float]:
        totals = layer_totals(tracer.spans)
        ops = max(run.ops, 1)

        def busy_ms(name: str) -> float:
            return _per_op(totals, name, "busy_s", ops) * 1e3

        def self_ms(name: str) -> float:
            return _per_op(totals, name, "self_s", ops) * 1e3

        def calls(name: str) -> float:
            return _per_op(totals, name, "calls", ops)

        saves = run.facts["ckpt.saves"]
        metrics = {
            "data.batches_ms": busy_ms("data.batches"),
            "engine.iteration_ms": busy_ms("engine.iteration"),
            "engine.self_ms": self_ms("engine.iteration"),
            "pipeline.self_ms": self_ms("pipeline.iteration"),
            "nn.forward_ms": busy_ms("nn.forward"),
            "nn.backward_ms": busy_ms("nn.backward"),
            "cb.ms": busy_ms("cb"),
            "cb.calls": calls("cb"),
            "dp_codec.ms": busy_ms("dp_codec"),
            "dp_codec.calls": calls("dp_codec"),
            "dp_sync.ms": busy_ms("dp_sync"),
            "embedding_sync.ms": busy_ms("embedding_sync"),
            "optim.step_ms": busy_ms("optim.step"),
            "guard.snapshot_ms": busy_ms("guard.snapshot"),
            "ckpt.save_ms": busy_ms("ckpt.save") * ops / saves if saves else 0.0,
            "exec.wait_ms": busy_ms("exec.wait"),
        }
        for name in (
            "comm_log.records", "wire.pp_mb_per_iter", "wire.dp_mb_per_iter",
            "wire.dp_exposed_fraction", "wire.embedding_mb_per_iter", "wire.total_mb_per_iter",
            "guard.skipped_steps", "exec.respawns", "quality.val_ppl", "ckpt.bytes",
        ):
            metrics[name] = run.facts[name]
        return metrics


# ------------------------------------------------------------------------- search --

@dataclass(frozen=True)
class Family:
    """One query family's fixed shape: its opener's axes and its refinement budgets."""

    model: str
    gpus: int
    tp_degrees: tuple[int, ...]
    hardware: str
    micro_batch_size: int
    dp_rank: int
    dp_bits: int
    stage_fraction: float
    pp_rank: int
    embedding: str
    #: ``(max_memory_gb, max_compression_loss)`` of the refinements, in an
    #: order the seed shuffles.
    budgets: tuple[tuple[float | None, float | None], ...]


#: The query families: the paper's three models.  Each leaves at most 32
#: GPUs per TP group, below every model's layer count.  Everything that
#: sets the amount of work is fixed here, not drawn from the seed: the
#: model (a candidate's simulator cost varies with it by up to 2x), the
#: other axes and hardware (they move simulated memory and loss, so which
#: candidates are within budget), and the budgets (they set the frontier
#: each warm query ranks and serialises).  The seed draws the objective
#: weights and the order of the budgets.
FAMILIES = (
    Family("GPT-2.5B", 32, (1, 2, 4), "infiniband", 4, 64, 4, 0.75, 16, "fused",
           ((None, None), (40.0, None), (None, 0.3), (60.0, 0.45))),
    Family("GPT-8.3B", 64, (2, 4, 8), "ethernet", 8, 128, 2, 1.0, 8, "none",
           ((None, None), (32.0, None), (None, 0.2), (72.0, 0.5))),
    Family("GPT-175B", 128, (4, 8), "infiniband", 4, 32, 8, 0.5, 32, "fused",
           ((None, None), (80.0, None), (None, 0.4), (64.0, 0.3))),
)


def make_session(seed: int) -> list[tuple[str, SearchQuery]]:
    """The seeded query session: ``[(kind, query), ...]`` in order.

    Each family opens with a ``cold`` query whose candidates all miss (the
    families differ in GPU count, so they share no cache keys), then
    ``warm`` refinements that change only budgets and objective weights.
    A ``partial`` query widens family 0's micro-batch axis (half its
    candidates are cached), and a ``repeat`` re-asks family 1's opener.  The
    seed draws the weights and the order of each family's budgets; the
    session's shape and work are fixed.
    """
    rng = random.Random(seed)
    session: list[tuple[str, SearchQuery]] = []
    openers = []
    for family in FAMILIES:
        opener = SearchQuery(
            model=family.model,
            gpus=family.gpus,
            hardware=(family.hardware,),
            micro_batch_size=family.micro_batch_size,
            tp_degrees=family.tp_degrees,
            micro_batches=(8,),
            schedules=("1f1b", "zb1"),
            dp_codecs=("none", "powersgd", "qsgd"),
            dp_ranks=(family.dp_rank,),
            dp_bits=(family.dp_bits,),
            stage_fractions=(family.stage_fraction,),
            pp_codecs=("none", "powersgd"),
            pp_ranks=(family.pp_rank,),
            embedding=(family.embedding,),
            weight_throughput=round(rng.uniform(0.5, 2.0), 3),
            weight_wire=round(rng.uniform(0.0, 1.0), 3),
            weight_memory=round(rng.uniform(0.0, 0.5), 3),
        )
        openers.append(opener)
        session.append(("cold", opener))
        for max_memory_gb, max_compression_loss in rng.sample(family.budgets, len(family.budgets)):
            refined = dataclasses.replace(
                opener,
                max_memory_gb=max_memory_gb,
                max_compression_loss=max_compression_loss,
                weight_throughput=round(rng.uniform(0.5, 2.0), 3),
                weight_wire=round(rng.uniform(0.0, 1.0), 3),
                weight_memory=round(rng.uniform(0.0, 0.5), 3),
            )
            session.append(("warm", refined))
    session.append(("partial", dataclasses.replace(openers[0], micro_batches=(8, 16))))
    session.append(("repeat", openers[1]))
    return session


def _query_ok(kind: str, outcome) -> bool:
    """Per-query correctness: no candidate errors and the expected cache behaviour."""
    if outcome.errors != 0 or outcome.evaluated + outcome.cache_hits != outcome.candidates:
        return False
    if kind == "cold":
        return outcome.cache_hits == 0
    if kind == "partial":
        return 0 < outcome.evaluated < outcome.candidates
    return outcome.evaluated == 0


SEARCH_TARGETS = (
    (SearchQuery, "expand", "search.expand"),
    (search_service, "pareto_frontier", "search.frontier"),
    (search_service, "rank_frontier", "search.frontier"),
    (SearchCache, "get", "search.cache_get"),
    (SearchCache, "put", "search.cache_put"),
    (search_pool.EvaluationPool, "run", "search.pool_run"),
    (search_pool, "evaluate_plan", "sim.evaluate_plan"),
)


class SearchWorkload:
    """Copies of the query session through :func:`run_queries`, each on an empty cache.

    Every query is one ``run_queries`` call over the copy's cache, so the
    reference kernel is timed after each query, as after each training
    iteration.
    """

    trace_targets = SEARCH_TARGETS
    #: Queries per second of ``--seconds``; whole sessions are run.
    nominal_ops_per_s = 6.8

    def __init__(self, name: str, seed: int, workdir: pathlib.Path) -> None:
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.workers = SEARCH_WORKERS
        self.reference = _reference(self.workers)
        self.session = make_session(seed)
        self._caches = 0

    def _fresh_cache(self) -> SearchCache:
        self._caches += 1
        root = self.workdir / f"cache-{self._caches}"
        shutil.rmtree(root, ignore_errors=True)
        return SearchCache(root)

    def _drop_cache(self, cache: SearchCache) -> None:
        shutil.rmtree(cache.root, ignore_errors=True)

    def setup(self) -> list[str]:
        """Pool construction plus one untimed query, on a throwaway cache."""
        _, opener = self.session[0]
        warmup = dataclasses.replace(opener, max_candidates=8)
        cache = self._fresh_cache()
        try:
            search_service.run_queries([warmup], workers=self.workers, cache=cache)
        finally:
            self._drop_cache(cache)
        return []

    def teardown(self, state: Any) -> None:
        """Nothing outlives a query: ``run_queries`` closes its own pool."""

    def measure(
        self, reference: list[str], target: int, tracer: Tracer | None = None
    ) -> Measurement:
        """Run whole sessions until ``target`` queries; ``reference`` keeps session 1's answers."""
        run = Measurement()
        session_times: list[float] = []
        cold, warm = [], []
        evaluated = hits = lookups = errors = 0
        repeat_of = next(
            index for index, (kind, query) in enumerate(self.session)
            if kind == "cold" and query == self.session[-1][1]
        )
        # Caches are deleted after the phase, so no deletion is timed.
        caches = []
        failed_query = False
        started = time.perf_counter()
        while not failed_query and _keep_going(started, run.ops, target):
            caches.append(self._fresh_cache())
            answers: list[str] = []
            for index, (kind, query) in enumerate(self.session):
                if tracer is not None:
                    tracer.trace_id = run.ops
                begin = time.perf_counter()
                try:
                    [outcome] = search_service.run_queries(
                        [query], workers=self.workers, cache=caches[-1]
                    )
                except Exception:
                    _log_failure(f"{self.name} query {run.ops}")
                    outcome = None
                run.latencies_s.append(time.perf_counter() - begin)
                run.end_step(run.latencies_s[-1], self.reference.measure())
                if outcome is None:
                    run.failed += 1
                    failed_query = True
                    break
                answers.append(outcome.to_json())
                if len(reference) <= index:
                    reference.append(answers[index])
                ok = _query_ok(kind, outcome) and answers[index] == reference[index]
                if kind == "repeat":
                    ok = ok and answers[index] == answers[repeat_of]
                run.failed += 0 if ok else 1
                (cold if outcome.evaluated else warm).append(run.latencies_s[-1])
                evaluated += outcome.evaluated
                hits += outcome.cache_hits
                lookups += outcome.candidates
                errors += outcome.errors
            else:
                session_times.append(sum(run.latencies_s[-len(self.session):]))
        for cache in caches:
            self._drop_cache(cache)
        run.checks["ops_reached_target"] = run.ops >= target
        sessions = max(len(session_times), 1)
        run.report = {
            "search_session_s": (median(session_times) if session_times else run.wall_s, "s"),
            "query_cold_s_p50": (median(cold) if cold else 0.0, "s"),
            "query_warm_s_p50": (median(warm) if warm else 0.0, "s"),
            "candidates_per_s": (evaluated / sum(cold) if cold else 0.0, "1/s"),
        }
        run.facts = {
            "search.cache_hit_ratio": hits / lookups if lookups else 0.0,
            "search.evaluated": evaluated / sessions,
            "search.eval_errors": errors / sessions,
        }
        return run

    def layer_metrics(self, run: Measurement, tracer: Tracer) -> dict[str, float]:
        totals = layer_totals(tracer.spans)
        ops = max(run.ops, 1)

        def busy_ms(name: str) -> float:
            return _per_op(totals, name, "busy_s", ops) * 1e3

        sim = totals.get("sim.evaluate_plan", {"calls": 0, "busy_s": 0.0})
        metrics = {
            "search.expand_ms": busy_ms("search.expand"),
            "search.frontier_ms": busy_ms("search.frontier"),
            "search.cache_get_ms": busy_ms("search.cache_get"),
            "search.cache_put_ms": busy_ms("search.cache_put"),
            "search.pool_run_ms": busy_ms("search.pool_run"),
            "sim.evaluate_plan_ms": sim["busy_s"] * 1e3 / sim["calls"] if sim["calls"] else 0.0,
        }
        for name in ("search.cache_hit_ratio", "search.evaluated", "search.eval_errors"):
            metrics[name] = run.facts[name]
        return metrics


WORKLOADS: dict[str, Callable[[int, pathlib.Path], Any]] = {
    "optimus_long": lambda seed, workdir: TrainingWorkload(
        "optimus_long", OPTIMUS_LONG, seed, workdir
    ),
    "zb1_process_wide": lambda seed, workdir: TrainingWorkload(
        "zb1_process_wide", ZB1_PROCESS_WIDE, seed, workdir
    ),
    "search_session": lambda seed, workdir: SearchWorkload("search_session", seed, workdir),
}
