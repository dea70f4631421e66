"""Pipeline-parallel schedules: GPipe, 1F1B, interleaved 1F1B, and ZB-H1.

A schedule is, per pipeline stage, an ordered list of :class:`PipelineOp` values.
:func:`stage_ops` is the one place a plan's schedule kind becomes op lists, and
:func:`op_stream` is the one place op lists become an execution order: it walks
them in dependency order and names, for every op, the op whose output it
consumes.  Every backend is a plain loop over that stream:

* the schedule validator and the synthesizer's makespan evaluation
  (:mod:`repro.parallel.scheduler`) time it with unit or synthesis costs;
* the event-driven performance simulator times it with compute and
  communication costs to compute iteration time;
* the functional engine runs each entry's real forward/backward pass.

The epilogue analysis (:func:`epilogue_micro_batches`) derives *which* backward
communications sit on the critical path — the set the paper's epilogue-only
compression targets (Section 5.2).

The 1F1B schedule follows Megatron-LM / PipeDream-Flush: stage ``k`` (0-indexed, of
``p`` stages) performs ``p-1-k`` warm-up forwards, then alternates one forward and
one backward, and finally drains ``p-1-k`` cool-down backwards.

The zero-bubble schedule (:func:`build_zb1_schedule`, ``Schedule.kind = "zb1"``)
follows the handcrafted ZB-H1 of the zero-bubble pipeline-parallelism work
(Qi et al.): each full backward pass is split into an activation-gradient pass B
(``"backward_input"``, on the inter-stage critical path) and a weight-gradient
pass W (``"backward_weight"``, purely local).  Stage ``k`` defers exactly ``k``
W passes, so B passes cascade upstream every ``T_B`` instead of every
``T_B + T_W`` and the deferred W passes fill what would otherwise be the
cool-down bubble — shrinking the per-stage bubble from ``(p-1)(T_F + T_B + T_W)``
to ``(p-1)(T_F + T_B - T_W)`` at the same peak in-flight activation count as
1F1B.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.plan import validate_schedule_kind

if TYPE_CHECKING:  # pragma: no cover - typing only (the scheduler imports this module)
    from repro.parallel.scheduler import SynthesisSpec

#: Op kinds a schedule may emit.  ``"backward"`` is the fused full backward
#: (input + weight gradients in one op); the zero-bubble schedules split it into
#: ``"backward_input"`` (B) and ``"backward_weight"`` (W).
OP_KINDS = ("forward", "backward", "backward_input", "backward_weight")

#: Kinds that carry the activation gradient upstream (trigger a backward send).
BACKWARD_SEND_KINDS = ("backward", "backward_input")


@dataclass(frozen=True)
class PipelineOp:
    """One unit of pipeline work on a stage.

    Attributes
    ----------
    kind:
        ``"forward"``, ``"backward"`` (fused full backward), ``"backward_input"``
        (B: activation gradient only), or ``"backward_weight"`` (W: deferred
        weight gradient).
    micro_batch:
        Zero-based micro-batch index.
    chunk:
        Model-chunk index (always 0 except for interleaved schedules).
    """

    kind: str
    micro_batch: int
    chunk: int = 0

    def __post_init__(self) -> None:
        if self.kind not in OP_KINDS:
            raise ValueError(f"op kind must be one of {OP_KINDS}, got {self.kind!r}")
        if self.micro_batch < 0:
            raise ValueError(f"micro_batch must be non-negative, got {self.micro_batch}")


def _validate(num_stages: int, num_micro_batches: int) -> None:
    if num_stages <= 0:
        raise ValueError(f"num_stages must be positive, got {num_stages}")
    if num_micro_batches <= 0:
        raise ValueError(f"num_micro_batches must be positive, got {num_micro_batches}")


def build_gpipe_schedule(num_stages: int, num_micro_batches: int) -> list[list[PipelineOp]]:
    """GPipe: all forwards, then all backwards, per stage."""
    _validate(num_stages, num_micro_batches)
    schedule = []
    for _stage in range(num_stages):
        ops = [PipelineOp("forward", mb) for mb in range(num_micro_batches)]
        ops.extend(PipelineOp("backward", mb) for mb in range(num_micro_batches))
        schedule.append(ops)
    return schedule


def build_1f1b_schedule(num_stages: int, num_micro_batches: int) -> list[list[PipelineOp]]:
    """Non-interleaved 1F1B (PipeDream-Flush), the paper's baseline schedule."""
    _validate(num_stages, num_micro_batches)
    schedule = []
    for stage in range(num_stages):
        num_warmup = min(num_stages - 1 - stage, num_micro_batches)
        ops: list[PipelineOp] = []
        forward_mb = 0
        backward_mb = 0
        for _ in range(num_warmup):
            ops.append(PipelineOp("forward", forward_mb))
            forward_mb += 1
        while forward_mb < num_micro_batches:
            ops.append(PipelineOp("forward", forward_mb))
            forward_mb += 1
            ops.append(PipelineOp("backward", backward_mb))
            backward_mb += 1
        while backward_mb < num_micro_batches:
            ops.append(PipelineOp("backward", backward_mb))
            backward_mb += 1
        schedule.append(ops)
    return schedule


def zb1_deferred_weight_passes(stage: int, num_stages: int, num_micro_batches: int) -> int:
    """How many weight-gradient (W) passes stage ``stage`` keeps pending under ZB-H1.

    Stage ``k`` defers exactly ``k`` W passes (capped by the micro-batch count):
    the last stage defers the most — its B passes then cascade upstream back to
    back — and stage 0, which drains last, defers none.  The deferred W passes
    are exactly what fills each stage's cool-down gaps.
    """
    if not 0 <= stage < num_stages:
        raise ValueError(f"stage {stage} out of range [0, {num_stages})")
    return min(stage, num_micro_batches)


def build_zb1_schedule(num_stages: int, num_micro_batches: int) -> list[list[PipelineOp]]:
    """Zero-bubble ZB-H1: 1F1B with the backward split into B and W passes.

    Per stage ``k`` the op order is: ``p-1-k`` warm-up forwards (as in 1F1B),
    then the 1F1B steady state with the full backward replaced by a B pass and
    the matching W pass emitted once more than ``k`` W passes are pending, then
    the cool-down B passes interleaved with the deferred W passes, and finally
    the remaining W drain.  Properties (asserted by the tests):

    * every micro-batch gets exactly one F, one B, and one W, with B after its F
      and W after its B — so gradient *accumulation order per parameter* is the
      ascending micro-batch order, identical to 1F1B (bit-for-bit weights);
    * the peak number of in-flight *forward-activation* caches equals 1F1B's
      (:func:`count_in_flight_micro_batches`) — ZB-H1's memory claim.  The B
      pass releases every forward activation (the nn layers' ``backward_input``
      clears them); between B and W only the small W stash (Linear inputs and
      output gradients, LayerNorm parameter-gradient vectors) stays alive, and
      stage ``k`` holds at most ``k + 1`` such stashes;
    * with ``num_stages == 1`` the schedule degenerates to the serial
      ``F, B, W`` loop (the split 1F1B), and ``num_micro_batches < num_stages``
      just shortens warm-up/steady phases.
    """
    _validate(num_stages, num_micro_batches)
    schedule = []
    for stage in range(num_stages):
        num_warmup = min(num_stages - 1 - stage, num_micro_batches)
        deferred = zb1_deferred_weight_passes(stage, num_stages, num_micro_batches)
        ops: list[PipelineOp] = []
        forward_mb = 0
        backward_mb = 0
        weight_mb = 0
        for _ in range(num_warmup):
            ops.append(PipelineOp("forward", forward_mb))
            forward_mb += 1
        while forward_mb < num_micro_batches:
            ops.append(PipelineOp("forward", forward_mb))
            forward_mb += 1
            ops.append(PipelineOp("backward_input", backward_mb))
            backward_mb += 1
            while backward_mb - weight_mb > deferred:
                ops.append(PipelineOp("backward_weight", weight_mb))
                weight_mb += 1
        while backward_mb < num_micro_batches:
            ops.append(PipelineOp("backward_input", backward_mb))
            backward_mb += 1
            while backward_mb - weight_mb > deferred and weight_mb < num_micro_batches:
                ops.append(PipelineOp("backward_weight", weight_mb))
                weight_mb += 1
        while weight_mb < num_micro_batches:
            ops.append(PipelineOp("backward_weight", weight_mb))
            weight_mb += 1
        schedule.append(ops)
    return schedule


def build_interleaved_1f1b_schedule(
    num_stages: int, num_micro_batches: int, num_chunks: int = 2
) -> list[list[PipelineOp]]:
    """Interleaved 1F1B with ``num_chunks`` model chunks per stage.

    This follows the structure of Megatron-LM's interleaved schedule: forward units
    are issued in groups of ``num_stages`` micro-batches per chunk, warm-up length is
    ``(num_stages - 1 - stage) * 2 + (num_chunks - 1) * num_stages`` units, and the
    remainder alternates forward/backward units before draining the backwards.
    """
    _validate(num_stages, num_micro_batches)
    if num_chunks <= 0:
        raise ValueError(f"num_chunks must be positive, got {num_chunks}")
    if num_chunks == 1:
        return build_1f1b_schedule(num_stages, num_micro_batches)
    if num_micro_batches % num_stages != 0:
        # Megatron requires the micro-batch count to be a multiple of the pipeline
        # size for the interleaved schedule; we keep the same constraint explicit.
        raise ValueError(
            f"interleaved schedule requires num_micro_batches ({num_micro_batches}) to be a "
            f"multiple of num_stages ({num_stages})"
        )

    total_units = num_micro_batches * num_chunks

    def unit_to_op(unit_index: int, forward: bool) -> PipelineOp:
        """Map the ``unit_index``-th forward (or backward) unit to (micro_batch, chunk)."""
        group = unit_index // (num_stages * num_chunks)
        within = unit_index % (num_stages * num_chunks)
        chunk = within // num_stages
        micro_in_group = within % num_stages
        micro_batch = group * num_stages + micro_in_group
        if not forward:
            chunk = num_chunks - 1 - chunk
        return PipelineOp("forward" if forward else "backward", micro_batch, chunk)

    schedule = []
    for stage in range(num_stages):
        num_warmup = min((num_stages - 1 - stage) * 2 + (num_chunks - 1) * num_stages, total_units)
        ops: list[PipelineOp] = []
        forward_unit = 0
        backward_unit = 0
        for _ in range(num_warmup):
            ops.append(unit_to_op(forward_unit, forward=True))
            forward_unit += 1
        while forward_unit < total_units:
            ops.append(unit_to_op(forward_unit, forward=True))
            forward_unit += 1
            ops.append(unit_to_op(backward_unit, forward=False))
            backward_unit += 1
        while backward_unit < total_units:
            ops.append(unit_to_op(backward_unit, forward=False))
            backward_unit += 1
        schedule.append(ops)
    return schedule


def stage_ops(
    kind: str,
    num_stages: int,
    num_micro_batches: int,
    num_chunks: int = 1,
    auto_spec: "SynthesisSpec | None" = None,
) -> list[list[PipelineOp]]:
    """Per-stage op lists of a plan schedule kind (:data:`repro.plan.SCHEDULE_KINDS`).

    ``"1f1b"`` and ``"serial"`` (which differs from 1f1b only at the DP
    boundary) are 1F1B — interleaved when ``num_chunks > 1``; ``"zb1"`` is the
    handcrafted ZB-H1; ``"auto"`` is whatever the synthesizer picks for
    ``auto_spec``, which the caller supplies because only it knows the costs.
    """
    validate_schedule_kind(kind, context="stage_ops")
    if kind == "auto":
        if auto_spec is None:
            raise ValueError('stage_ops: schedule kind "auto" needs an auto_spec')
        from repro.parallel.scheduler import synthesize_schedule

        return synthesize_schedule(auto_spec).stage_ops()
    if kind == "zb1":
        return build_zb1_schedule(num_stages, num_micro_batches)
    return build_interleaved_1f1b_schedule(num_stages, num_micro_batches, num_chunks)


#: One entry of :func:`op_stream`: ``(stage, op, producer)``.
StreamEntry = tuple[int, PipelineOp, int]


def op_stream(
    schedule: Sequence[Sequence[PipelineOp]], num_chunks: int = 1
) -> list[StreamEntry]:
    """Every op of ``schedule`` once, in dependency order, as ``(stage, op, producer)``.

    Each stage runs its list in order; an op can run once its input has been
    produced.  A forward consumes the activation of the same micro-batch and
    chunk one stage upstream (stage 0 of chunk ``c > 0`` consumes the last
    stage's chunk ``c - 1``); a backward (fused or B) consumes the activation
    gradient one stage downstream (the last stage of chunk ``c`` consumes
    stage 0's chunk ``c + 1``).  ``producer`` is the stream index of that
    upstream op, or ``-1`` when the input is local: the data loader feeds
    stage 0's first chunk, the loss seeds the last stage's last chunk, and a W
    pass reads only its own stage's earlier B pass, which list order already
    sequences.

    The walk visits the stages round-robin and advances each one as far as
    its inputs allow, so the stream order is the order a timing replay that
    starts every ready op greedily would issue them in.  Raises
    ``RuntimeError`` when no stage can advance (a cyclic cross-stage
    dependency, which per-stage checks cannot see).
    """
    num_stages = len(schedule)
    last_stage, last_chunk = num_stages - 1, num_chunks - 1
    stream: list[StreamEntry] = []
    append = stream.append
    # (stage, micro_batch, chunk) of a produced-but-unconsumed activation
    # (forward) or activation gradient (backward) -> the stream index of the
    # op that produced it.
    activations: dict[tuple[int, int, int], int] = {}
    gradients: dict[tuple[int, int, int], int] = {}
    pointers = [0] * num_stages
    total = sum(len(ops) for ops in schedule)
    issued = 0
    while issued < total:
        swept = issued
        for stage, ops in enumerate(schedule):
            pointer = pointers[stage]
            end = len(ops)
            while pointer < end:
                op = ops[pointer]
                kind, mb, chunk = op.kind, op.micro_batch, op.chunk
                if kind == "backward_weight":
                    producer = -1
                elif kind == "forward":
                    if stage == 0 and chunk == 0:
                        producer = -1
                    else:
                        producer = activations.pop((stage, mb, chunk), None)
                        if producer is None:
                            break
                    if stage < last_stage:
                        activations[(stage + 1, mb, chunk)] = issued
                    elif chunk < last_chunk:
                        activations[(0, mb, chunk + 1)] = issued
                else:
                    if stage == last_stage and chunk == last_chunk:
                        producer = -1
                    else:
                        producer = gradients.pop((stage, mb, chunk), None)
                        if producer is None:
                            break
                    if stage > 0:
                        gradients[(stage - 1, mb, chunk)] = issued
                    elif chunk > 0:
                        gradients[(last_stage, mb, chunk - 1)] = issued
                append((stage, op, producer))
                issued += 1
                pointer += 1
            pointers[stage] = pointer
        if issued == swept:
            raise RuntimeError("pipeline schedule deadlocked (cyclic cross-stage dependency)")
    return stream


def warmup_micro_batches(stage: int, num_stages: int, num_micro_batches: int) -> int:
    """Number of warm-up forwards stage ``stage`` performs under 1F1B."""
    if not 0 <= stage < num_stages:
        raise ValueError(f"stage {stage} out of range [0, {num_stages})")
    return min(num_stages - 1 - stage, num_micro_batches)


def epilogue_micro_batches(
    receiving_stage: int, num_stages: int, num_micro_batches: int
) -> set[int]:
    """Micro-batches whose backward communication *into* ``receiving_stage`` is exposed.

    Under 1F1B, stage ``k`` finishes its forwards ``num_stages - 1 - k`` backwards
    before the end of the iteration; during that cool-down there is no forward
    computation left to hide the incoming activation-gradient transfer, so those
    transfers sit on the critical path.  They are exactly the backward communications
    of the last ``num_stages - 1 - k`` micro-batches — the pipeline *epilogue* the
    paper compresses (Section 5.2, Fig. 6).

    Returns a set of zero-based micro-batch indices.  The last stage receives no
    backward traffic, so its set is empty.
    """
    if not 0 <= receiving_stage < num_stages:
        raise ValueError(f"receiving_stage {receiving_stage} out of range [0, {num_stages})")
    cooldown = min(num_stages - 1 - receiving_stage, num_micro_batches)
    if cooldown <= 0:
        return set()
    return set(range(num_micro_batches - cooldown, num_micro_batches))


def count_in_flight_micro_batches(stage: int, num_stages: int, num_micro_batches: int) -> int:
    """Peak number of activations stage ``stage`` holds simultaneously under 1F1B.

    Used by the memory model: earlier stages keep more in-flight micro-batches
    (``num_stages - stage``), which is why 1F1B bounds activation memory compared to
    GPipe's ``num_micro_batches``.
    """
    return min(num_stages - stage, num_micro_batches)
