"""Tests for the pipeline schedules and the epilogue analysis."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel.pipeline_schedule import (
    PipelineOp,
    build_1f1b_schedule,
    build_gpipe_schedule,
    build_interleaved_1f1b_schedule,
    build_zb1_schedule,
    count_in_flight_micro_batches,
    epilogue_micro_batches,
    op_stream,
    stage_ops,
    warmup_micro_batches,
    zb1_deferred_weight_passes,
)
from repro.parallel.scheduler import StageCosts, SynthesisSpec, synthesize_schedule


def op_counts(ops):
    forwards = [(op.micro_batch, op.chunk) for op in ops if op.kind == "forward"]
    backwards = [(op.micro_batch, op.chunk) for op in ops if op.kind == "backward"]
    return forwards, backwards


class TestGPipe:
    def test_all_forwards_before_backwards(self):
        schedule = build_gpipe_schedule(3, 5)
        for ops in schedule:
            kinds = [op.kind for op in ops]
            assert kinds == ["forward"] * 5 + ["backward"] * 5


class Test1F1B:
    @pytest.mark.parametrize("num_stages,num_micro", [(1, 4), (2, 4), (4, 8), (4, 16), (3, 7)])
    def test_each_micro_batch_forward_and_backward_once(self, num_stages, num_micro):
        schedule = build_1f1b_schedule(num_stages, num_micro)
        for ops in schedule:
            forwards, backwards = op_counts(ops)
            assert sorted(forwards) == [(mb, 0) for mb in range(num_micro)]
            assert sorted(backwards) == [(mb, 0) for mb in range(num_micro)]

    def test_backward_never_precedes_forward_of_same_micro_batch(self):
        schedule = build_1f1b_schedule(4, 8)
        for ops in schedule:
            seen_forward = set()
            for op in ops:
                if op.kind == "forward":
                    seen_forward.add(op.micro_batch)
                else:
                    assert op.micro_batch in seen_forward

    def test_warmup_counts(self):
        assert warmup_micro_batches(0, 4, 16) == 3
        assert warmup_micro_batches(3, 4, 16) == 0
        assert warmup_micro_batches(0, 4, 2) == 2  # capped by micro-batch count

    def test_in_flight_bound(self):
        """1F1B keeps at most (num_stages - stage) activations alive."""
        schedule = build_1f1b_schedule(4, 16)
        for stage, ops in enumerate(schedule):
            outstanding = 0
            peak = 0
            for op in ops:
                if op.kind == "forward":
                    outstanding += 1
                else:
                    outstanding -= 1
                peak = max(peak, outstanding)
            assert peak == count_in_flight_micro_batches(stage, 4, 16)

    def test_invalid_arguments_raise(self):
        with pytest.raises(ValueError):
            build_1f1b_schedule(0, 4)
        with pytest.raises(ValueError):
            build_1f1b_schedule(2, 0)


class TestInterleaved:
    def test_requires_divisible_micro_batches(self):
        with pytest.raises(ValueError):
            build_interleaved_1f1b_schedule(4, 6, num_chunks=2)

    def test_single_chunk_falls_back_to_1f1b(self):
        assert build_interleaved_1f1b_schedule(4, 8, num_chunks=1) == build_1f1b_schedule(4, 8)

    @pytest.mark.parametrize("num_stages,num_micro,chunks", [(2, 4, 2), (4, 8, 2), (4, 8, 3)])
    def test_each_unit_appears_once(self, num_stages, num_micro, chunks):
        schedule = build_interleaved_1f1b_schedule(num_stages, num_micro, chunks)
        expected = sorted((mb, chunk) for mb in range(num_micro) for chunk in range(chunks))
        for ops in schedule:
            forwards, backwards = op_counts(ops)
            assert sorted(forwards) == expected
            assert sorted(backwards) == expected

    def test_backward_chunk_order_is_reversed(self):
        """Backward units start from the last model chunk (deepest layers first)."""
        schedule = build_interleaved_1f1b_schedule(4, 8, 2)
        for ops in schedule:
            first_backward = next(op for op in ops if op.kind == "backward")
            assert first_backward.chunk == 1


class TestZB1:
    """The handcrafted zero-bubble ZB-H1 schedule (split B/W backward)."""

    @staticmethod
    def op_lists(ops):
        forwards = [op.micro_batch for op in ops if op.kind == "forward"]
        inputs = [op.micro_batch for op in ops if op.kind == "backward_input"]
        weights = [op.micro_batch for op in ops if op.kind == "backward_weight"]
        return forwards, inputs, weights

    @pytest.mark.parametrize(
        "num_stages,num_micro",
        [(1, 4), (2, 4), (4, 8), (4, 16), (3, 7), (4, 2), (4, 1), (8, 3)],
    )
    def test_every_micro_batch_has_f_b_w_once_in_order(self, num_stages, num_micro):
        """Includes the micro_batches < pp edge cases (4,2), (4,1), (8,3)."""
        schedule = build_zb1_schedule(num_stages, num_micro)
        assert len(schedule) == num_stages
        for ops in schedule:
            forwards, inputs, weights = self.op_lists(ops)
            # Each phase visits every micro-batch exactly once, in ascending
            # order — ascending W order is what makes the per-parameter
            # gradient accumulation order identical to 1F1B's.
            assert forwards == list(range(num_micro))
            assert inputs == list(range(num_micro))
            assert weights == list(range(num_micro))
            seen_forward, seen_input = set(), set()
            for op in ops:
                if op.kind == "forward":
                    seen_forward.add(op.micro_batch)
                elif op.kind == "backward_input":
                    assert op.micro_batch in seen_forward
                    seen_input.add(op.micro_batch)
                else:
                    assert op.kind == "backward_weight"
                    assert op.micro_batch in seen_input

    def test_single_stage_degenerates_to_serial_split_backward(self):
        """pp == 1: F, B, W per micro-batch back to back — serial/1f1b order."""
        (ops,) = build_zb1_schedule(1, 3)
        assert ops == [
            PipelineOp(kind, mb)
            for mb in range(3)
            for kind in ("forward", "backward_input", "backward_weight")
        ]

    @pytest.mark.parametrize("num_stages,num_micro", [(2, 4), (4, 8), (4, 2), (3, 7)])
    def test_same_warmup_as_1f1b(self, num_stages, num_micro):
        """The first B sits at the same op index as 1F1B's first backward."""
        schedule = build_zb1_schedule(num_stages, num_micro)
        reference = build_1f1b_schedule(num_stages, num_micro)
        for zb_ops, ref_ops in zip(schedule, reference):
            zb_first_b = next(i for i, op in enumerate(zb_ops) if op.kind == "backward_input")
            ref_first_b = next(i for i, op in enumerate(ref_ops) if op.kind == "backward")
            assert zb_first_b == ref_first_b

    def test_stage_k_defers_k_weight_passes(self):
        num_stages, num_micro = 4, 8
        schedule = build_zb1_schedule(num_stages, num_micro)
        for stage, ops in enumerate(schedule):
            pending = peak_pending = 0
            for op in ops:
                if op.kind == "backward_input":
                    pending += 1
                elif op.kind == "backward_weight":
                    pending -= 1
                peak_pending = max(peak_pending, pending)
            assert peak_pending == zb1_deferred_weight_passes(stage, num_stages, num_micro) + 1
            assert zb1_deferred_weight_passes(stage, num_stages, num_micro) == min(
                stage, num_micro
            )

    def test_deferred_passes_out_of_range_stage_raises(self):
        with pytest.raises(ValueError):
            zb1_deferred_weight_passes(4, 4, 8)

    @settings(max_examples=40, deadline=None)
    @given(
        num_stages=st.integers(min_value=1, max_value=8),
        num_micro=st.integers(min_value=1, max_value=24),
    )
    def test_same_peak_in_flight_activations_as_1f1b(self, num_stages, num_micro):
        """ZB-H1's memory claim: peak in-flight micro-batches match 1F1B."""
        schedule = build_zb1_schedule(num_stages, num_micro)
        for stage, ops in enumerate(schedule):
            outstanding = peak = 0
            pending_w = peak_pending_w = 0
            for op in ops:
                if op.kind == "forward":
                    outstanding += 1
                elif op.kind == "backward_input":
                    # B consumes the forward activation (backward_input clears
                    # the caches), leaving only the W stash alive.
                    outstanding -= 1
                    pending_w += 1
                else:
                    pending_w -= 1
                peak = max(peak, outstanding)
                peak_pending_w = max(peak_pending_w, pending_w)
            assert peak == count_in_flight_micro_batches(stage, num_stages, num_micro)
            # The W stash held between B and W is bounded by the deferral depth.
            assert peak_pending_w <= min(stage + 1, num_micro)

    @settings(max_examples=40, deadline=None)
    @given(
        num_stages=st.integers(min_value=1, max_value=8),
        num_micro=st.integers(min_value=1, max_value=24),
    )
    def test_total_op_count_is_three_per_micro_batch(self, num_stages, num_micro):
        schedule = build_zb1_schedule(num_stages, num_micro)
        assert all(len(ops) == 3 * num_micro for ops in schedule)

    def test_invalid_arguments_raise(self):
        with pytest.raises(ValueError):
            build_zb1_schedule(0, 4)
        with pytest.raises(ValueError):
            build_zb1_schedule(2, 0)


class TestStageOps:
    def test_kinds_map_to_their_builders(self):
        assert stage_ops("1f1b", 2, 4) == build_1f1b_schedule(2, 4)
        assert stage_ops("serial", 2, 4) == build_1f1b_schedule(2, 4)
        assert stage_ops("1f1b", 2, 4, num_chunks=2) == build_interleaved_1f1b_schedule(2, 4, 2)
        assert stage_ops("zb1", 2, 4) == build_zb1_schedule(2, 4)
        spec = SynthesisSpec(2, 4, (StageCosts(1.0, 2.0, 1.0),) * 2, memory_cap_factor=2.0)
        assert stage_ops("auto", 2, 4, auto_spec=spec) == synthesize_schedule(spec).stage_ops()

    def test_unknown_kind_and_missing_auto_spec_raise(self):
        with pytest.raises(ValueError, match="schedule kind"):
            stage_ops("gpipe", 2, 4)
        with pytest.raises(ValueError, match="auto_spec"):
            stage_ops("auto", 2, 4)


@st.composite
def schedules(draw):
    """``(op lists, num_chunks)`` of every schedule family the repo builds."""
    family = draw(st.sampled_from(["1f1b", "interleaved", "zb1", "synthesized"]))
    if family == "interleaved":
        num_stages = draw(st.integers(min_value=2, max_value=4))
        chunks = draw(st.integers(min_value=2, max_value=3))
        num_micro = num_stages * draw(st.integers(min_value=1, max_value=3))
        return build_interleaved_1f1b_schedule(num_stages, num_micro, chunks), chunks
    num_stages = draw(st.integers(min_value=1, max_value=6))
    num_micro = draw(st.integers(min_value=1, max_value=10))
    if family == "1f1b":
        return build_1f1b_schedule(num_stages, num_micro), 1
    if family == "zb1":
        return build_zb1_schedule(num_stages, num_micro), 1
    cost = st.floats(min_value=0.1, max_value=4.0)
    spec = SynthesisSpec(
        num_stages,
        num_micro,
        tuple(StageCosts(draw(cost), draw(cost), draw(cost)) for _ in range(num_stages)),
        transfer_delay=draw(st.floats(min_value=0.0, max_value=0.5)),
        memory_cap_factor=draw(st.floats(min_value=1.0, max_value=4.0)),
    )
    return synthesize_schedule(spec).stage_ops(), 1


class TestOpStream:
    @settings(max_examples=60, deadline=None)
    @given(case=schedules())
    def test_every_op_once_after_its_producer_in_list_order(self, case):
        schedule, chunks = case
        stream = op_stream(schedule, chunks)
        last_stage, last_chunk = len(schedule) - 1, chunks - 1
        # Every op appears once, and each stage's ops keep their list order.
        assert len(stream) == sum(len(ops) for ops in schedule)
        for stage, ops in enumerate(schedule):
            assert [op for s, op, _ in stream if s == stage] == ops
        consumed = set()
        for index, (stage, op, producer) in enumerate(stream):
            mb, chunk = op.micro_batch, op.chunk
            if op.kind == "forward":
                local = stage == 0 and chunk == 0
                upstream = (stage - 1, mb, chunk) if stage > 0 else (last_stage, mb, chunk - 1)
            elif op.kind == "backward_weight":
                local, upstream = True, None
            else:
                local = stage == last_stage and chunk == last_chunk
                upstream = (stage + 1, mb, chunk) if stage < last_stage else (0, mb, chunk + 1)
            if local:
                assert producer == -1
                continue
            # The producer ran earlier, is the op whose output this one reads,
            # and feeds nobody else.
            assert 0 <= producer < index
            assert producer not in consumed
            consumed.add(producer)
            producer_stage, producer_op, _ = stream[producer]
            assert (producer_stage, producer_op.micro_batch, producer_op.chunk) == upstream
            assert (producer_op.kind == "forward") == (op.kind == "forward")

    def test_single_stage_stream_is_the_list(self):
        (ops,) = build_1f1b_schedule(1, 3)
        assert op_stream([ops]) == [(0, op, -1) for op in ops]


class TestEpilogue:
    def test_paper_example(self):
        """p=4, m=8: the first stage's epilogue is the last 3 micro-batches (Fig. 6)."""
        assert epilogue_micro_batches(0, 4, 8) == {5, 6, 7}
        assert epilogue_micro_batches(1, 4, 8) == {6, 7}
        assert epilogue_micro_batches(2, 4, 8) == {7}
        assert epilogue_micro_batches(3, 4, 8) == set()

    def test_matches_schedule_cooldown(self):
        """The analytic epilogue is the cool-down tail of the schedule.

        The op list places the backward paired with the final forward right after
        it, so the "after the last forward" set may contain one extra micro-batch
        (whose transfer can still be hidden by that last forward); the analytic set
        must be exactly the remaining, fully exposed tail.
        """
        num_stages, num_micro = 4, 16
        schedule = build_1f1b_schedule(num_stages, num_micro)
        for stage, ops in enumerate(schedule):
            last_forward = max(i for i, op in enumerate(ops) if op.kind == "forward")
            cooldown = {op.micro_batch for op in ops[last_forward + 1 :] if op.kind == "backward"}
            analytic = epilogue_micro_batches(stage, num_stages, num_micro)
            assert analytic.issubset(cooldown)
            assert len(cooldown) - len(analytic) <= 1
            if analytic:
                assert max(cooldown) == max(analytic) == num_micro - 1

    def test_out_of_range_stage_raises(self):
        with pytest.raises(ValueError):
            epilogue_micro_batches(4, 4, 8)

    @settings(max_examples=30, deadline=None)
    @given(
        num_stages=st.integers(min_value=1, max_value=8),
        extra=st.integers(min_value=0, max_value=24),
        stage=st.integers(min_value=0, max_value=7),
    )
    def test_epilogue_size_property(self, num_stages, extra, stage):
        """|epilogue(stage)| == min(num_stages - 1 - stage, m) for every valid stage."""
        num_micro = num_stages + extra
        stage = stage % num_stages
        epilogue = epilogue_micro_batches(stage, num_stages, num_micro)
        assert len(epilogue) == min(num_stages - 1 - stage, num_micro)
        assert all(mb >= num_micro - (num_stages - 1 - stage) for mb in epilogue)


class TestScheduleProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        num_stages=st.integers(min_value=1, max_value=6),
        num_micro=st.integers(min_value=1, max_value=24),
    )
    def test_1f1b_total_op_count(self, num_stages, num_micro):
        schedule = build_1f1b_schedule(num_stages, num_micro)
        assert len(schedule) == num_stages
        assert all(len(ops) == 2 * num_micro for ops in schedule)

    @settings(max_examples=20, deadline=None)
    @given(
        num_stages=st.integers(min_value=2, max_value=5),
        groups=st.integers(min_value=1, max_value=4),
        chunks=st.integers(min_value=2, max_value=3),
    )
    def test_interleaved_total_op_count(self, num_stages, groups, chunks):
        num_micro = num_stages * groups
        schedule = build_interleaved_1f1b_schedule(num_stages, num_micro, chunks)
        assert all(len(ops) == 2 * num_micro * chunks for ops in schedule)
