"""Tests of the benchmark's own code: percentiles, self time, sessions, names, clean-up."""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys
import textwrap

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench.metrics import (  # noqa: E402
    GATE_METRICS,
    LAYER_EFFECTS,
    LAYER_METRICS,
    percentile,
    samples_beyond,
    tail_percentile,
    valid_name,
)
from perfbench.tracing import NO_PARENT, Tracer, layer_totals, self_times  # noqa: E402


def span(span_id, parent, name, start, end):
    return [span_id, parent, 0, name, float(start), float(end)]


# -- percentile selection ---------------------------------------------------------------


@pytest.mark.parametrize(
    "count, expected",
    [(20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0), (199, 90.0),
     (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_is_highest_rung_with_ten_samples_beyond(count, expected):
    samples = [float(value) for value in range(count)]
    pct, value, beyond = tail_percentile(samples)
    assert pct == expected
    assert beyond >= 10
    assert value == percentile(samples, pct)
    higher = [rung for rung in (50.0, 75.0, 90.0, 95.0, 99.0, 99.9) if rung > pct]
    assert all(samples_beyond(samples, rung) < 10 for rung in higher)


def test_tail_percentile_none_below_twenty_samples():
    assert tail_percentile([1.0] * 5 + [2.0] * 14) is None


def test_percentile_is_nearest_rank():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(samples, 50) == 3.0
    assert percentile(samples, 90) == 5.0
    assert percentile(samples, 0) == 1.0
    assert samples_beyond(list(range(100)), 90) == 10


def test_operation_count_follows_seconds_with_a_floor():
    from perfbench.workloads import MIN_OPS, operations_for

    assert operations_for(30, 20.0) == 600
    assert operations_for(30, 3.4) == 102
    assert operations_for(1, 20.0) == MIN_OPS


# -- self time --------------------------------------------------------------------------


def test_self_time_subtracts_nested_children():
    spans = [
        span(0, NO_PARENT, "engine", 0, 10),
        span(1, 0, "stage", 1, 5),
        span(2, 1, "codec", 2, 3),
        span(3, 0, "sync", 6, 8),
    ]
    assert self_times(spans) == pytest.approx([10 - 4 - 2, 4 - 1, 1, 2])


def test_self_time_counts_overlapping_children_once_and_clips_to_parent():
    spans = [
        span(0, NO_PARENT, "wait", 0, 10),
        span(1, 0, "worker", 1, 4),
        span(2, 0, "worker", 3, 6),   # overlaps the first child by 1
        span(3, 0, "worker", 8, 12),  # runs past the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10 - 5 - 2)


def test_layer_totals_count_reentrant_calls_once():
    spans = [
        span(0, NO_PARENT, "nn.backward", 0, 6),
        span(1, 0, "nn.backward", 0, 4),
        span(2, 0, "nn.backward", 4, 6),
        span(3, NO_PARENT, "nn.backward", 7, 8),
    ]
    totals = layer_totals(spans)["nn.backward"]
    assert totals["calls"] == 2
    assert totals["busy_s"] == pytest.approx(7)
    assert totals["self_s"] == pytest.approx(7)


class _Layer:
    def work(self, fail=False):
        if fail:
            raise RuntimeError("boom")
        return self.inner()

    def inner(self):
        return 7


def test_instrument_records_parents_and_restores_originals():
    tracer = Tracer()
    original = _Layer.__dict__["work"]
    with tracer.instrument([(_Layer, "work", "outer"), (_Layer, "inner", "inner")]):
        tracer.trace_id = 3
        assert _Layer().work() == 7
        with pytest.raises(RuntimeError):
            _Layer().work(fail=True)
    assert _Layer.__dict__["work"] is original
    names = [(record[3], record[1], record[2]) for record in tracer.spans]
    assert names == [("outer", NO_PARENT, 3), ("inner", 0, 3), ("outer", NO_PARENT, 3)]
    assert all(record[5] >= record[4] for record in tracer.spans)


# -- host-speed reference --------------------------------------------------------------


def test_scaled_time_divides_out_the_reference_speed():
    from perfbench.calibration import REFERENCE_S, scaled

    assert scaled(0.2, REFERENCE_S) == pytest.approx(0.2)
    assert scaled(0.2, 2 * REFERENCE_S) == pytest.approx(0.1)


def test_reference_kernel_triggers_no_collection_and_restores_affinity():
    import gc
    import os

    from perfbench.calibration import TABLE_SIZE, Reference

    allowed = os.sched_getaffinity(0)
    reference = Reference(cpus=sorted(allowed)[:1], passes=2)
    assert reference.measure() > 0
    assert os.sched_getaffinity(0) == allowed
    with_reads = Reference(window=4, memory=True)
    assert with_reads.nbytes > TABLE_SIZE * 8 > reference.nbytes
    gc.disable()
    try:
        before = gc.get_count()[0]
        reference.measure()
        with_reads.measure()
        assert gc.get_count()[0] == before
    finally:
        gc.enable()


# -- query session ----------------------------------------------------------------------


def test_query_session_is_seed_deterministic_with_fixed_shape():
    from perfbench.workloads import make_session

    first, again, other = make_session(7), make_session(7), make_session(8)
    as_dicts = [(kind, query.to_dict()) for kind, query in first]
    assert as_dicts == [(kind, query.to_dict()) for kind, query in again]
    assert as_dicts != [(kind, query.to_dict()) for kind, query in other]
    kinds = [kind for kind, _ in first]
    assert kinds == [kind for kind, _ in other]
    assert kinds.count("cold") == 3 and kinds[-2:] == ["partial", "repeat"]
    # The seed picks values, never the amount of work: the same candidates,
    # and each family's warm queries carry the same budgets in some order.
    def budgets(session):
        return sorted(
            (query.model, str(query.max_memory_gb), str(query.max_compression_loss))
            for kind, query in session if kind == "warm"
        )

    assert budgets(first) == budgets(other)
    for (kind, query), (_, twin) in zip(first, other):
        assert query.expand() == twin.expand()


# -- metric names -----------------------------------------------------------------------


@pytest.mark.parametrize("name", ["ops_per_s", "nn.forward_ms", "a-b.c_d", "9lives"])
def test_valid_metric_names(name):
    assert valid_name(name)


@pytest.mark.parametrize("name", ["", "_lead", ".dot", "has space", "slash/name", "x" * 65, "ppl%"])
def test_invalid_metric_names(name):
    assert not valid_name(name)


def test_benchmark_json_names_workloads_and_every_layer_effect():
    from perfbench.workloads import WORKLOADS

    document = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [workload["name"] for workload in document["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in LAYER_METRICS] == list(LAYER_EFFECTS)
    names = [m["name"] for m in GATE_METRICS] + [m["name"] for m in LAYER_METRICS]
    assert all(valid_name(name) for name in names)
    assert len(set(names)) == len(names)


# -- clean-up ---------------------------------------------------------------------------


def test_stop_children_leaves_no_process_behind():
    # In a child interpreter, so no process of the test session is touched.
    script = textwrap.dedent(
        """
        import os, sys, time
        from multiprocessing import shared_memory
        sys.path[:0] = [sys.argv[1]]
        from perfbench.run import child_pids, stop_children

        segment = shared_memory.SharedMemory(create=True, size=64)  # starts the tracker
        segment.close()
        segment.unlink()
        sleeper = os.fork()
        if sleeper == 0:
            time.sleep(60)
            os._exit(0)
        assert sleeper in child_pids() and len(child_pids()) == 2
        stop_children()
        assert child_pids() == [], child_pids()
        """
    )
    result = subprocess.run(
        [sys.executable, "-c", script, str(ROOT)], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
