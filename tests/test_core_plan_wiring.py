"""Tests for how a ParallelPlan wires the Optimus-CC techniques into each layer."""

from __future__ import annotations

import pytest

from repro import ParallelPlan
from repro.core.compressed_backprop import CompressedBackpropagation
from repro.core.selective_stage import SelectiveStageCompression
from repro.models import GPT_2_5B
from repro.nn.transformer import GPTModelConfig
from repro.parallel.engine import ThreeDParallelEngine
from repro.plan import Boundary, CompressionSpec, Topology
from repro.simulator import PipelineTimingSimulator, TrainingJob, compute_breakdown


class TestPresets:
    def test_baseline_has_nothing_enabled(self):
        plan = ParallelPlan.baseline()
        assert not plan.spec(Boundary.PP).compresses
        assert plan.spec(Boundary.EMBEDDING).codec == "none"
        assert not plan.spec(Boundary.DP).compresses
        assert plan.stack_label() == "Baseline"

    def test_named_configurations_describe_paper_labels(self):
        assert ParallelPlan.cb().stack_label() == "CB"
        assert ParallelPlan.cb_fe().stack_label() == "CB+FE"
        assert ParallelPlan.cb_fe_sc().stack_label() == "CB+FE+SC"
        assert ParallelPlan.naive_dp().stack_label() == "DP(all)"
        assert "Non-LEP" in ParallelPlan.cb_non_lep().stack_label()
        assert "naive" in ParallelPlan.naive_cb().stack_label()
        assert "TopK" in ParallelPlan.optimus_topk().stack_label()

    def test_paper_default_hyperparameters(self):
        plan = ParallelPlan.cb_fe_sc()
        assert plan.spec(Boundary.PP).rank == 16
        assert plan.spec(Boundary.DP).rank == 128
        assert plan.spec(Boundary.DP).stage_fraction == 0.75

    def test_with_boundary_returns_modified_copy(self):
        plan = ParallelPlan.cb()
        modified = plan.with_boundary(Boundary.PP, rank=32)
        assert modified.spec(Boundary.PP).rank == 32 and plan.spec(Boundary.PP).rank == 16

    def test_validation(self):
        with pytest.raises(ValueError):
            ParallelPlan(compression={Boundary.PP: CompressionSpec(codec="qsgd")})
        with pytest.raises(ValueError):
            CompressionSpec(stage_fraction=2.0)
        with pytest.raises(ValueError):
            CompressionSpec(rank=-1)
        with pytest.raises(ValueError):
            CompressionSpec(fraction=0.0)

    def test_preset_knobs_land_on_their_boundaries(self):
        plan = ParallelPlan.cb_fe_sc(cb_rank=8, dp_rank=64, stage_fraction=0.5)
        assert plan.spec(Boundary.PP).compresses
        assert plan.spec(Boundary.EMBEDDING).codec == "fused"
        assert plan.spec(Boundary.PP).rank == 8 and plan.spec(Boundary.DP).rank == 64
        assert plan.spec(Boundary.DP).stage_fraction == 0.5


def four_stage_engine(plan: ParallelPlan) -> ThreeDParallelEngine:
    config = GPTModelConfig(
        vocab_size=32, max_sequence_length=12, num_layers=4, hidden_size=16, num_heads=2
    )
    return ThreeDParallelEngine(config, plan.with_topology(pp=4, dp=2))


class TestEngineHooks:
    def test_baseline_produces_no_hooks(self):
        engine = four_stage_engine(ParallelPlan.baseline())
        assert engine.cb_hooks == [None, None]
        assert engine.dp_reduce.powersgd is None
        assert all(p.channel.forward_hook is None for p in engine.pipeline_engines)

    def test_full_config_produces_all_hooks(self):
        engine = four_stage_engine(ParallelPlan.cb_fe_sc())
        backward = engine.cb_hooks[0]
        assert isinstance(backward, CompressedBackpropagation)
        assert backward.epilogue_only and backward.lazy_error_propagation
        assert isinstance(engine.dp_reduce.powersgd, SelectiveStageCompression)
        assert engine.dp_reduce.powersgd.compressed_stages == {0, 1, 2}

    def test_non_lep_flag_propagates(self):
        engine = four_stage_engine(ParallelPlan.cb_non_lep())
        assert not engine.cb_hooks[0].lazy_error_propagation

    def test_forward_hook_only_when_asked(self):
        plan = ParallelPlan.cb().with_boundary(Boundary.PP, compress_forward=True)
        engine = four_stage_engine(plan)
        forward = engine.pipeline_engines[0].channel.forward_hook
        assert isinstance(forward, CompressedBackpropagation)
        assert not forward.epilogue_only

    def test_embedding_synchroniser_respects_fusion_flag(self):
        assert four_stage_engine(ParallelPlan.cb_fe()).embedding_sync.fused
        assert not four_stage_engine(ParallelPlan.baseline()).embedding_sync.fused


class TestSimulation:
    @pytest.fixture(scope="class")
    def job(self) -> TrainingJob:
        return TrainingJob(model=GPT_2_5B)

    def test_simulate_and_speedup(self, job):
        baseline = PipelineTimingSimulator(job, ParallelPlan.baseline()).run()
        timing = PipelineTimingSimulator(job, ParallelPlan.cb_fe_sc()).run()
        assert timing.iteration_time > 0
        assert timing.speedup_over(baseline) > 0
        assert baseline.speedup_over(baseline) == pytest.approx(0.0)

    def test_no_plan_simulates_the_baseline(self, job):
        default = PipelineTimingSimulator(job).run()
        baseline = PipelineTimingSimulator(job, ParallelPlan.baseline()).run()
        assert default.iteration_time == baseline.iteration_time

    def test_breakdown_shrinks_under_compression(self, job):
        base = compute_breakdown(job, ParallelPlan.baseline())
        optimus = compute_breakdown(job, ParallelPlan.cb_fe_sc())
        assert optimus.total < base.total


def test_pretrainer_takes_the_plan(small_config, loader):
    from repro.training.trainer import Pretrainer

    plan = ParallelPlan.cb(Topology(dp=2, pp=2, micro_batches=2), rank=4)
    trainer = Pretrainer(small_config, loader, plan, learning_rate=1e-3)
    assert trainer.plan is plan
    assert trainer.cb_hooks[0] is not None
    loss = trainer.train_iteration()
    assert loss > 0
