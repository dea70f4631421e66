"""Functional pipeline-parallel training engine.

The engine runs one pipeline (one data-parallel replica) over a mini-batch split
into micro-batches, producing exactly the gradients the single-device reference
model would produce when no compression is enabled.  All inter-stage traffic flows
through an :class:`InterStageChannel`, whose backward path exposes the hook that the
paper's compressed backpropagation plugs into.

Execution order
---------------
Every schedule kind replays its real per-stage op lists
(:func:`~repro.parallel.pipeline_schedule.stage_ops`): 1F1B for ``"1f1b"`` and
``"serial"`` (which differ only at the DP boundary), the handcrafted ZB-H1 for
``"zb1"`` and the synthesizer's output for ``"auto"`` — the same lists the
timing simulator times.  The engine runs them in the dependency order of
:func:`~repro.parallel.pipeline_schedule.op_stream`, executing each entry's
forward, fused backward, activation-gradient pass
(:meth:`~repro.nn.gpt_stage.GPTStage.backward_input`) or deferred
weight-gradient pass (:meth:`~repro.nn.gpt_stage.GPTStage.backward_weight`).

Within a single iteration no weights change, so the numerical result depends only
on (1) which micro-batches are processed, (2) the per-boundary *order* of
backward communications (which matters when lazy error propagation carries
residuals from one micro-batch to the next) and (3) the per-stage order in which
weight gradients accumulate.  Every valid op list presents each boundary's
transfers in ascending micro-batch order and accumulates each stage's weight
gradients in ascending micro-batch order, so the weights are bit-for-bit
identical whichever kind is replayed (asserted by the parity tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.nn.gpt_stage import GPTStage, StageCache
from repro.parallel.collectives import (
    WIRE_BYTES_PER_ELEMENT,
    CommunicationLog,
    TrafficRecord,
)
from repro.parallel.pipeline_schedule import StreamEntry, op_stream, stage_ops
from repro.plan import validate_schedule_kind

#: Hook applied to every backward inter-stage transfer.
#:
#: ``hook(grad, boundary, micro_batch, num_micro_batches) -> (delivered, payload_bytes, compressed)``
#: where ``boundary`` is the index of the *receiving* stage (the gradient flows from
#: stage ``boundary + 1`` to stage ``boundary``).
BackwardCommHook = Callable[
    [np.ndarray, int, int, int], tuple[np.ndarray, int, bool]
]

#: Hook applied to every forward inter-stage transfer (same signature).
ForwardCommHook = Callable[
    [np.ndarray, int, int, int], tuple[np.ndarray, int, bool]
]

@dataclass
class IterationResult:
    """Outcome of one pipeline iteration (before the optimiser step)."""

    mean_loss: float
    num_micro_batches: int
    forward_bytes: int
    backward_bytes: int


class InterStageChannel:
    """Carries activations (forward) and activation gradients (backward) between stages."""

    def __init__(
        self,
        log: CommunicationLog | None = None,
        backward_hook: BackwardCommHook | None = None,
        forward_hook: ForwardCommHook | None = None,
    ) -> None:
        self.log = log if log is not None else CommunicationLog()
        self.backward_hook = backward_hook
        self.forward_hook = forward_hook

    def send_forward(
        self, activation: np.ndarray, boundary: int, micro_batch: int, num_micro_batches: int
    ) -> tuple[np.ndarray, int]:
        """Transfer an activation from stage ``boundary`` to stage ``boundary + 1``.

        Returns the delivered activation and the wire bytes the transfer logged.
        """
        delivered = activation
        payload_bytes = int(activation.size * WIRE_BYTES_PER_ELEMENT)
        compressed = False
        if self.forward_hook is not None:
            delivered, payload_bytes, compressed = self.forward_hook(
                activation, boundary, micro_batch, num_micro_batches
            )
        self.log.add(
            TrafficRecord(
                operation="p2p",
                category="inter_stage_forward",
                payload_bytes=payload_bytes,
                wire_bytes=float(payload_bytes),
                ranks=(boundary, boundary + 1),
                compressed=compressed,
                description=f"fwd activation mb={micro_batch}",
            )
        )
        return delivered, payload_bytes

    def send_backward(
        self, gradient: np.ndarray, boundary: int, micro_batch: int, num_micro_batches: int
    ) -> tuple[np.ndarray, int]:
        """Transfer an activation gradient from stage ``boundary + 1`` to stage ``boundary``.

        Returns the delivered gradient and the wire bytes the transfer logged.
        """
        delivered = gradient
        payload_bytes = int(gradient.size * WIRE_BYTES_PER_ELEMENT)
        compressed = False
        if self.backward_hook is not None:
            delivered, payload_bytes, compressed = self.backward_hook(
                gradient, boundary, micro_batch, num_micro_batches
            )
        self.log.add(
            TrafficRecord(
                operation="p2p",
                category="inter_stage_backward",
                payload_bytes=payload_bytes,
                wire_bytes=float(payload_bytes),
                ranks=(boundary + 1, boundary),
                compressed=compressed,
                description=f"bwd gradient mb={micro_batch}",
            )
        )
        return delivered, payload_bytes


class PipelineParallelEngine:
    """Runs forward/backward over a list of :class:`GPTStage` objects.

    Parameters
    ----------
    stages:
        The pipeline stages in order (stage 0 first).
    channel:
        The inter-stage channel (owns the compression hooks and the traffic log).
    schedule_kind:
        A :data:`repro.plan.SCHEDULE_KINDS` value: ``"1f1b"``/``"serial"``
        replay the 1F1B op lists, ``"zb1"`` the ZB-H1 split-backward ones and
        ``"auto"`` the synthesized ones (bit-for-bit identical weights either
        way).
    memory_cap_factor:
        Activation-memory cap handed to the synthesizer when
        ``schedule_kind == "auto"`` (1.0 = ZB-H1's footprint; ignored otherwise).
    """

    def __init__(
        self,
        stages: Sequence[GPTStage],
        channel: InterStageChannel | None = None,
        schedule_kind: str = "1f1b",
        memory_cap_factor: float = 1.0,
    ) -> None:
        if not stages:
            raise ValueError("a pipeline needs at least one stage")
        if not stages[0].is_first or not stages[-1].is_last:
            raise ValueError("stages[0] must be the first stage and stages[-1] the last stage")
        validate_schedule_kind(schedule_kind, context="PipelineParallelEngine")
        if memory_cap_factor < 1.0:
            raise ValueError(f"memory_cap_factor must be >= 1.0, got {memory_cap_factor}")
        self.stages: list[GPTStage] = list(stages)
        self.channel = channel if channel is not None else InterStageChannel()
        self.schedule_kind = schedule_kind
        self.memory_cap_factor = memory_cap_factor
        #: The op stream per micro-batch count (a pure function of the kind,
        #: the stage count, the micro-batch count and the cap).
        self._streams: dict[int, list[StreamEntry]] = {}

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    def parameters(self):
        """All parameters of every stage (stable order: stage 0 first)."""
        params = []
        for stage in self.stages:
            params.extend(stage.parameters())
        return params

    def zero_grad(self) -> None:
        """Zero gradients on every stage."""
        for stage in self.stages:
            stage.zero_grad()

    # -- training -----------------------------------------------------------------

    def run_iteration(
        self, micro_batches: Sequence[tuple[np.ndarray, np.ndarray]]
    ) -> IterationResult:
        """Run forward+backward for one mini-batch split into micro-batches.

        ``micro_batches`` is a list of ``(token_ids, targets)`` pairs.  Gradients are
        accumulated into the stage parameters (already averaged over the whole
        mini-batch via the ``1/num_micro_batches`` loss scale).
        """
        num_micro_batches = len(micro_batches)
        if num_micro_batches == 0:
            raise ValueError("run_iteration requires at least one micro-batch")
        loss_scale = 1.0 / num_micro_batches
        # Wire bytes of this iteration's own transfers (the log is never scanned).
        forward_bytes = backward_bytes = 0
        # Per-stage, per-micro-batch caches; index [stage][micro_batch].
        caches: list[list[StageCache | None]] = [
            [None] * num_micro_batches for _ in range(self.num_stages)
        ]
        losses: list[float] = [0.0] * num_micro_batches
        # Delivered activations/gradients, keyed by the stream index of the op
        # that sent them; each is popped by its one consumer.
        delivered: dict[int, np.ndarray] = {}
        for index, (stage_index, op, producer) in enumerate(self._stream(num_micro_batches)):
            stage = self.stages[stage_index]
            mb = op.micro_batch
            if op.kind == "forward":
                if producer < 0:
                    activation = np.asarray(micro_batches[mb][0])
                else:
                    activation = delivered.pop(producer)
                if stage.is_last:
                    loss, caches[stage_index][mb] = stage.forward(
                        activation, targets=micro_batches[mb][1]
                    )
                    losses[mb] = float(loss)
                else:
                    activation, caches[stage_index][mb] = stage.forward(activation)
                    delivered[index], sent = self.channel.send_forward(
                        activation, stage_index, mb, num_micro_batches
                    )
                    forward_bytes += sent
            elif op.kind == "backward_weight":
                stage.backward_weight(caches[stage_index][mb])
                caches[stage_index][mb] = None  # release the W stash
            else:  # fused backward or B pass
                run = stage.backward if op.kind == "backward" else stage.backward_input
                if stage.is_last:
                    grad = run(None, caches[stage_index][mb], loss_scale=loss_scale)
                else:
                    grad = run(delivered.pop(producer), caches[stage_index][mb])
                if op.kind == "backward":
                    caches[stage_index][mb] = None  # release activation memory
                if stage_index > 0 and grad is not None:
                    delivered[index], sent = self.channel.send_backward(
                        grad, stage_index - 1, mb, num_micro_batches
                    )
                    backward_bytes += sent

        return IterationResult(
            mean_loss=float(np.mean(losses)),
            num_micro_batches=num_micro_batches,
            forward_bytes=int(forward_bytes),
            backward_bytes=int(backward_bytes),
        )

    def _stream(self, num_micro_batches: int) -> list[StreamEntry]:
        """The dependency-ordered op stream of this engine's schedule kind.

        ``"auto"`` synthesizes with the analytic unit-cost split (F=1, B=2,
        W=1 — the recompute-free transformer ratio) and the engine's memory
        cap.  The functional engine is timing-free, so any dependency-valid
        list yields identical weights; the costs only shape which valid list
        is chosen.
        """
        stream = self._streams.get(num_micro_batches)
        if stream is None:
            auto_spec = None
            if self.schedule_kind == "auto":
                from repro.parallel.scheduler import StageCosts, SynthesisSpec

                auto_spec = SynthesisSpec(
                    num_stages=self.num_stages,
                    num_micro_batches=num_micro_batches,
                    costs=tuple(StageCosts(1.0, 2.0, 1.0) for _ in range(self.num_stages)),
                    memory_cap_factor=self.memory_cap_factor,
                )
            schedule = stage_ops(
                self.schedule_kind, self.num_stages, num_micro_batches, auto_spec=auto_spec
            )
            stream = self._streams[num_micro_batches] = op_stream(schedule)
        return stream

    # -- inference ------------------------------------------------------------------

    def evaluate_loss(self, token_ids: np.ndarray, targets: np.ndarray) -> float:
        """Compute the loss of a batch without touching gradients."""
        for stage in self.stages:
            stage.eval()
        activation: np.ndarray = np.asarray(token_ids)
        try:
            for stage in self.stages:
                if stage.is_last:
                    loss, _ = stage.forward(activation, targets=targets)
                    return float(loss)
                activation, _ = stage.forward(activation)
        finally:
            for stage in self.stages:
                stage.train()
        raise RuntimeError("pipeline had no last stage")  # pragma: no cover - guarded in __init__

    def forward_logits(self, token_ids: np.ndarray) -> np.ndarray:
        """Full inference pass returning logits (used by zero-shot evaluation)."""
        activation: np.ndarray = np.asarray(token_ids)
        for stage in self.stages:
            activation = stage.forward_only(activation)
        return activation
