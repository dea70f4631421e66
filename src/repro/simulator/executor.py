"""Event-driven timing simulation of one 3D-parallel training iteration.

The simulator times the op stream
(:func:`~repro.parallel.pipeline_schedule.op_stream`) of the pipeline schedule
(plain 1F1B, Megatron's interleaved 1F1B with multiple model chunks per stage —
the paper's configuration — or the split-backward zb1 and auto schedules) across
the pipeline stages of one data-parallel replica.  Point-to-point transfers delay the
receiving stage; data-parallel all-reduces start as soon as a stage finishes its
last backward pass (the property selective stage compression exploits); the
embedding synchronisation runs after the first and last stages have finished their
embedding all-reduces (or as one fused all-reduce when fused embedding
synchronisation is enabled).

Compression changes two things: the bytes on the wire (smaller) and the kernel
overhead (compress + decompress time added to the transfer latency), exactly the
trade-off the paper's Fig. 13 (rank sweep) exposes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.selective_stage import compressed_stages_of
from repro.parallel.pipeline_schedule import (
    BACKWARD_SEND_KINDS,
    PipelineOp,
    op_stream,
)
from repro.plan import Boundary, ParallelPlan, SPLIT_BACKWARD_KINDS
from repro.simulator.cost_model import CostModel, TrainingJob

#: Modelled latency of respawning one worker after a crash or hang: fork the
#: replacement over the existing shared segment, verify it with a heartbeat,
#: and rewind the pre-iteration state.  The replay of the interrupted
#: iteration is costed separately (one extra iteration per respawn).
WORKER_RESPAWN_LATENCY_S = 2.0


@dataclass(frozen=True)
class ComponentToggles:
    """Multipliers used by the CPI-stack style breakdown (1.0 = enabled, 0.0 = off)."""

    forward: float = 1.0
    backward: float = 1.0
    interstage: float = 1.0
    data_parallel: float = 1.0
    embedding: float = 1.0


@dataclass
class IterationTiming:
    """Timing of one simulated iteration."""

    iteration_time: float
    stage_backward_finish: list[float]
    stage_finish: list[float]
    dp_times: list[float]
    embedding_time: float
    compression_overhead: float
    forward_compute: float
    backward_compute: float
    interstage_wire_bytes: float
    dp_wire_bytes: float
    embedding_wire_bytes: float
    tp_wire_bytes: float = 0.0
    #: Split of ``dp_wire_bytes`` by whether the stage's all-reduce fits inside the
    #: pipeline cool-down window (time between the stage's own backward finish and
    #: the moment the whole pipeline has drained).  Late stages finish backward
    #: early, so their DP traffic is overlapped; stage 0's is exposed.
    dp_exposed_wire_bytes: float = 0.0
    dp_overlapped_wire_bytes: float = 0.0
    #: Fraction of device-seconds idle inside the pipeline phase (t=0 until the
    #: last backward-side op drains) — the quantity the zero-bubble schedule
    #: attacks.  Reported per schedule kind so 1f1b and zb1 runs compare
    #: directly.
    bubble_fraction: float = 0.0
    #: Makespan of the pipeline phase (excludes the DP/embedding epilogue).
    pipeline_time: float = 0.0
    #: The schedule that produced this timing (``"1f1b"``, ``"zb1"``, or ``"auto"``).
    schedule_kind: str = "1f1b"
    #: Amortised resilience cost folded into ``iteration_time`` (guardrail
    #: validation, snapshot copies, retry backoff, recovery replay) — zero for
    #: unguarded runs.
    recovery_overhead: float = 0.0

    @property
    def dp_overlapped_fraction(self) -> float:
        """Fraction of DP wire bytes hidden inside the pipeline cool-down."""
        if self.dp_wire_bytes <= 0:
            return 0.0
        return self.dp_overlapped_wire_bytes / self.dp_wire_bytes

    def days_for(self, num_iterations: int) -> float:
        """Wall-clock days for ``num_iterations`` iterations at this rate."""
        return self.iteration_time * num_iterations / 86400.0

    def speedup_over(self, baseline: "IterationTiming") -> float:
        """Relative speedup versus a baseline timing (paper's convention: old/new - 1)."""
        return baseline.iteration_time / self.iteration_time - 1.0

    def wire_bytes_by_axis(self) -> dict[str, float]:
        """Per-axis wire bytes, matching the unified engine's traffic axes.

        Keys mirror :data:`repro.parallel.engine.TRAFFIC_AXES` (the simulator does
        not split the pipeline axis by direction: forward and backward transfers
        are both counted under ``"pipeline"``).
        """
        return {
            "pipeline": self.interstage_wire_bytes,
            "data_parallel": self.dp_wire_bytes,
            "embedding": self.embedding_wire_bytes,
            "tensor_parallel": self.tp_wire_bytes,
        }


class PipelineTimingSimulator:
    """Times the pipeline schedule's op stream with communication and compression costs.

    ``job`` owns the shape (layout, micro-batches, schedule kind); ``plan``
    contributes the compression specs of its three boundaries.  Without a plan
    nothing is compressed.
    """

    def __init__(
        self,
        job: TrainingJob,
        plan: ParallelPlan | None = None,
        toggles: ComponentToggles | None = None,
    ) -> None:
        self.job = job
        self.cost = CostModel(job)
        self.plan = plan if plan is not None else ParallelPlan()
        self.toggles = toggles if toggles is not None else ComponentToggles()
        #: The engine's selective-stage rule, so both layers compress the same stages.
        self.compressed_dp_stages = compressed_stages_of(
            self.plan.spec(Boundary.DP), job.num_stages
        )

    # -- helpers --------------------------------------------------------------------

    def with_toggles(self, **kwargs: float) -> "PipelineTimingSimulator":
        """Return a copy with some component toggles changed (for breakdowns)."""
        return PipelineTimingSimulator(self.job, self.plan, replace(self.toggles, **kwargs))

    @staticmethod
    def _epilogue_sets(schedule: list[list[PipelineOp]]) -> list[set[tuple[int, int]]]:
        """Per-stage set of (micro_batch, chunk) whose backward runs in the cool-down.

        The cool-down of a stage is everything after its last forward op: there is no
        forward computation left to hide the incoming activation-gradient transfer,
        so those transfers sit on the critical path — the paper's epilogue
        (Section 5.2, Fig. 6).  This definition applies uniformly to the plain and
        interleaved schedules.
        """
        epilogue: list[set[tuple[int, int]]] = []
        for ops in schedule:
            last_forward = max(
                (index for index, op in enumerate(ops) if op.kind == "forward"), default=-1
            )
            stage_set = {
                (op.micro_batch, op.chunk)
                for op in ops[last_forward + 1 :]
                if op.kind in BACKWARD_SEND_KINDS
            }
            epilogue.append(stage_set)
        return epilogue

    def _transfer(self, compressed: bool, rank: int) -> tuple[float, float, float]:
        """Return ``(delay_seconds, wire_bytes, compression_overhead)`` of a transfer."""
        overhead = 0.0
        if compressed:
            wire = self.cost.compressed_activation_bytes(rank)
            overhead = self.cost.activation_compression_overhead(rank)
        else:
            wire = self.cost.interstage_message_bytes()
        delay = self.cost.p2p_time(wire) * self.toggles.interstage + overhead
        return delay, wire * self.toggles.interstage, overhead

    # -- main simulation ---------------------------------------------------------------

    def run(self, resilience_overhead_s: float = 0.0, respawns: float = 0.0) -> IterationTiming:
        """Simulate one iteration and return its timing.

        ``resilience_overhead_s`` is an additive per-iteration cost for guarded
        runs (snapshot copies + gradient validation + amortised retry backoff,
        e.g. measured by the ``resilience_overhead`` benchmark section); it is
        folded into ``iteration_time`` and reported as ``recovery_overhead``.

        ``respawns`` is the *expected worker respawns per iteration* under the
        supervised process executor (e.g. MTBF-derived); each one costs a
        re-fork (:data:`WORKER_RESPAWN_LATENCY_S`) plus a full replay of the
        iteration it interrupted, and is amortised into the same overhead.
        """
        if resilience_overhead_s < 0:
            raise ValueError("resilience_overhead_s must be non-negative")
        if respawns < 0:
            raise ValueError("respawns must be non-negative")
        num_stages = self.job.num_stages
        num_micro = self.job.num_micro_batches
        chunks = self.job.num_model_chunks if num_stages > 1 else 1
        # Every boundary knob is read once here, never per op.
        pp = self.plan.spec(Boundary.PP)
        dp = self.plan.spec(Boundary.DP)
        fuse_embedding = self.plan.spec(Boundary.EMBEDDING).codec == "fused"
        compress_backward = pp.compresses
        epilogue_only = pp.epilogue_only
        plain_transfer = self._transfer(False, pp.rank)
        compressed_transfer = self._transfer(True, pp.rank)
        forward_transfer = compressed_transfer if pp.compress_forward else plain_transfer
        # The same op lists the memory model reads, so the two layers cannot
        # disagree about them.
        schedule = self.cost.stage_ops()
        epilogue_sets = self._epilogue_sets(schedule)

        # Per-chunk compute times: a stage's layers are split evenly across chunks.
        forward_times = [
            self.cost.forward_time(s) * self.toggles.forward / chunks for s in range(num_stages)
        ]
        backward_times = [
            self.cost.backward_time(s) * self.toggles.backward / chunks for s in range(num_stages)
        ]
        # Split-backward (zb1) op times: B + W == the fused backward exactly.
        backward_weight_times = [
            self.cost.backward_weight_time(s) * self.toggles.backward / chunks
            for s in range(num_stages)
        ]
        backward_input_times = [
            full - weight for full, weight in zip(backward_times, backward_weight_times)
        ]
        op_durations = {
            "forward": forward_times,
            "backward": backward_times,
            "backward_input": backward_input_times,
            "backward_weight": backward_weight_times,
        }

        stage_backward_finish = [0.0] * num_stages
        compression_overhead_total = 0.0
        interstage_wire_total = 0.0
        device_free = [0.0] * num_stages
        stream = op_stream(schedule, chunks)
        ends: list[float] = []
        # sends[i]: the transfer that carried op i's output to its consumer.
        sends: list[tuple[float, float, float] | None] = [None] * len(stream)
        for stage, op, producer in stream:
            ready = 0.0
            if producer >= 0:
                if op.kind == "forward":
                    transfer = forward_transfer
                else:
                    # A backward send into ``stage``: compressed always, or under
                    # epilogue-only when either end of it runs in the receiving
                    # stage's cool-down.
                    compressed = compress_backward and (
                        not epilogue_only
                        or (op.micro_batch, stream[producer][1].chunk) in epilogue_sets[stage]
                        or (op.micro_batch, op.chunk) in epilogue_sets[stage]
                    )
                    transfer = compressed_transfer if compressed else plain_transfer
                sends[producer] = transfer
                ready = ends[producer] + transfer[0]
            end = max(device_free[stage], ready) + op_durations[op.kind][stage]
            device_free[stage] = end
            ends.append(end)
            if op.kind != "forward":
                stage_backward_finish[stage] = end
        # Add the sends up in the order they were issued, so the float totals
        # do not depend on the order their consumers ran in.
        for transfer in sends:
            if transfer is not None:
                interstage_wire_total += transfer[1]
                compression_overhead_total += transfer[2]

        # ---------------- pipeline bubble accounting ------------------------------
        # The pipeline makespan runs from t=0 (stage 0's first forward) to the
        # last backward-side op draining anywhere; every second a device is not
        # computing inside that span is bubble.  This is the quantity the
        # zero-bubble schedule attacks: splitting the backward lets W passes
        # fill the cool-down, so zb1's fraction is strictly below 1F1B's for
        # pp >= 2 (asserted by the simulator tests).
        pipeline_makespan = max(stage_backward_finish) if stage_backward_finish else 0.0
        total_compute = sum(
            op_durations[op.kind][stage]
            for stage, ops in enumerate(schedule)
            for op in ops
        )
        if pipeline_makespan > 0.0:
            bubble_fraction = 1.0 - total_compute / (num_stages * pipeline_makespan)
        else:
            bubble_fraction = 0.0

        # ---------------- data-parallel gradient all-reduce -----------------------
        compressed_stages = self.compressed_dp_stages
        dp_times = []
        dp_wires = []
        dp_wire_total = 0.0
        stage_finish = []
        for stage in range(num_stages):
            if stage in compressed_stages and self.job.layout.data_parallel > 1:
                dp_wire = self.cost.dp_compressed_gradient_bytes(
                    stage,
                    dp.rank,
                    codec=dp.codec,
                    qsgd_bits=dp.bits,
                    topk_fraction=dp.fraction,
                )
                dp_time = self.cost.collective_time(dp_wire)
                dp_overhead = self.cost.dp_compression_overhead(stage, dp.rank, codec=dp.codec)
            else:
                dp_time = self.cost.dp_time(stage)
                dp_overhead = 0.0
                dp_wire = (
                    self.cost.dp_gradient_bytes(stage)
                    if self.job.layout.data_parallel > 1
                    else 0.0
                )
            dp_time = dp_time * self.toggles.data_parallel
            dp_wire = dp_wire * self.toggles.data_parallel
            compression_overhead_total += dp_overhead
            dp_times.append(dp_time + dp_overhead)
            dp_wires.append(dp_wire)
            dp_wire_total += dp_wire
            stage_finish.append(stage_backward_finish[stage] + dp_time + dp_overhead)

        # The cool-down window of stage s: the time between its own backward finish
        # and the pipeline fully draining.  DP traffic fitting in that window is
        # overlapped (hidden); the remainder — all of stage 0's, since it drains
        # last — is exposed.  This is the schedule property selective stage
        # compression exploits by compressing the earliest stages.  With
        # micro-batch-granular firing (``job.dp_fire == "micro_batch"``) a
        # stage's buckets start leaving while its *own* final backward op is
        # still computing, so the window opens one backward-op duration earlier
        # (one W-pass duration under zb1, whose final op is a weight pass).
        backward_end = max(stage_backward_finish) if stage_backward_finish else 0.0
        dp_exposed_wire = 0.0
        dp_overlapped_wire = 0.0
        for stage in range(num_stages):
            window = max(0.0, backward_end - stage_backward_finish[stage])
            if self.job.dp_fire == "micro_batch":
                window += (
                    backward_weight_times[stage]
                    if self.job.schedule_kind in SPLIT_BACKWARD_KINDS
                    else backward_times[stage]
                )
            if dp_times[stage] > 0.0:
                hidden_fraction = min(1.0, window / dp_times[stage])
            else:
                hidden_fraction = 0.0
            dp_overlapped_wire += dp_wires[stage] * hidden_fraction
            dp_exposed_wire += dp_wires[stage] * (1.0 - hidden_fraction)

        # ---------------- embedding synchronisation -------------------------------
        # Baseline (Fig. 4a): each stage's NIC serialises DP all-reduce, then the
        # embedding DP all-reduce, then the 2-way synchronisation.  With fused
        # embedding synchronisation the single 2D-way all-reduce is issued as soon
        # as the embedding gradients are ready (right after the backward pass) and
        # runs alongside the stage's bulk DP all-reduce.
        embedding_time = 0.0
        embedding_wire = 0.0
        first, last = 0, num_stages - 1
        if num_stages == 1:
            # Single stage: the embedding gradient is just part of DP traffic.
            if self.job.layout.data_parallel > 1:
                extra = self.cost.embedding_dp_time() * self.toggles.embedding
                stage_finish[0] += extra
                embedding_time = extra
                embedding_wire = self.cost.embedding_gradient_bytes() * self.toggles.embedding
        elif fuse_embedding:
            # The fused all-reduce is issued as soon as both embedding gradients are
            # ready.  The last stage (whose backward drains early) runs its bulk DP
            # all-reduce inside that waiting window; the first stage performs the
            # fused collective first and its own DP afterwards (NIC serialisation).
            fused = self.cost.fused_embedding_time() * self.toggles.embedding
            fused_start = max(stage_backward_finish[first], stage_backward_finish[last])
            fused_end = fused_start + fused
            stage_finish[first] = fused_end + dp_times[first]
            stage_finish[last] = max(fused_end, stage_backward_finish[last] + dp_times[last])
            embedding_time = fused
            embedding_wire = self.cost.embedding_gradient_bytes() * self.toggles.embedding
        else:
            emb_dp = self.cost.embedding_dp_time() * self.toggles.embedding
            emb_sync = self.cost.embedding_sync_time() * self.toggles.embedding
            first_ready = stage_finish[first] + emb_dp
            last_ready = stage_finish[last] + emb_dp
            finish = max(first_ready, last_ready) + emb_sync
            stage_finish[first] = finish
            stage_finish[last] = finish
            embedding_time = emb_dp + emb_sync
            embedding_wire = 2.0 * self.cost.embedding_gradient_bytes() * self.toggles.embedding

        # ---------------- steady-state iteration period -----------------------------
        # The next iteration's forward pass starts as soon as stage 0 is done; stage
        # s only needs its updated weights when its first forward arrives, i.e.
        # after s (forward + transfer) hops.  In the pipelined steady state the
        # iteration period is therefore the largest finish time minus that slack —
        # this is why the data-parallel traffic of *later* stages can stay
        # uncompressed under selective stage compression (Section 7, Fig. 8).
        forward_delay = forward_transfer[0]
        warmup_offset = [0.0] * num_stages
        for stage in range(1, num_stages):
            warmup_offset[stage] = warmup_offset[stage - 1] + forward_times[stage - 1] + forward_delay

        iteration_time = max(
            stage_finish[stage] - warmup_offset[stage] for stage in range(num_stages)
        )
        iteration_time = max(iteration_time, max(stage_backward_finish))
        forward_compute = sum(
            forward_times[s] * chunks * num_micro for s in range(num_stages)
        ) / num_stages
        backward_compute = sum(
            backward_times[s] * chunks * num_micro for s in range(num_stages)
        ) / num_stages

        tp_wire_total = sum(
            self.cost.tensor_parallel_wire_bytes(stage) for stage in range(num_stages)
        )

        # A respawn re-forks the worker and replays the interrupted iteration
        # from the pre-step snapshot, so each one costs the fork latency plus
        # one extra (undisturbed) iteration.
        recovery_overhead = resilience_overhead_s + respawns * (
            WORKER_RESPAWN_LATENCY_S + iteration_time
        )
        return IterationTiming(
            iteration_time=iteration_time + recovery_overhead,
            stage_backward_finish=stage_backward_finish,
            stage_finish=stage_finish,
            dp_times=dp_times,
            embedding_time=embedding_time,
            compression_overhead=compression_overhead_total,
            forward_compute=forward_compute,
            backward_compute=backward_compute,
            interstage_wire_bytes=interstage_wire_total,
            dp_wire_bytes=dp_wire_total,
            embedding_wire_bytes=embedding_wire,
            tp_wire_bytes=tp_wire_total,
            dp_exposed_wire_bytes=dp_exposed_wire,
            dp_overlapped_wire_bytes=dp_overlapped_wire,
            bubble_fraction=bubble_fraction,
            pipeline_time=pipeline_makespan,
            schedule_kind=self.job.schedule_kind,
            recovery_overhead=recovery_overhead,
        )
