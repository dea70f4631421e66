"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload optimus_long --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
first repeats that untraced measurement, then sets up afresh and runs the
same number of operations with spans recorded around each layer's public
calls; it reports the per-layer metrics and the tracing overhead, and writes
the spans to ``.perfbench/traces/``.  Every run also writes its full report
to ``.perfbench/results/``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

The BLAS thread pools are pinned to one thread here, before NumPy loads, so
forked workers inherit the pin.
"""

from __future__ import annotations

import os

for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from statistics import median  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent


def parse_arguments(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)
    if arguments.seconds <= 0:
        parser.error("--seconds must be positive")
    return arguments


def machine_facts() -> dict[str, object]:
    """The uncontrolled parameters every result is recorded with."""
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {name: os.environ.get(name) for name in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


def pin_cpus(workers: int) -> None:
    """Pin this process, and each worker it forks, to one CPU apiece.

    Without workers the process runs on the last CPU it may use.  With
    workers this process stays free to move, and the forked workers take
    the allowed CPUs in turn, so each stays on one CPU's caches.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if not workers:
        os.sched_setaffinity(0, {cpus[-1]})
        return
    forks = [0]

    def pin_child() -> None:
        os.sched_setaffinity(0, {cpus[forks[0] % len(cpus)]})

    def count_fork() -> None:
        forks[0] += 1

    os.register_at_fork(after_in_child=pin_child, after_in_parent=count_fork)


def peak_rss_mb(workers: int, reference_bytes: int) -> float:
    """Peak RSS of this process plus ``workers`` times its largest reaped child's.

    ``reference_bytes``, the host-speed reference's arrays, resident in this
    process from before the first set-up to the end, is not counted.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024
    return (own - reference_bytes + workers * child) / 2**20


def child_pids() -> list[int]:
    """Process ids of this process's living children, read from ``/proc``."""
    children = []
    for stat in pathlib.Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # ended while being read
        if int(fields[1]) == os.getpid():
            children.append(int(stat.parent.name))
    return children


def stop_children() -> None:
    """Stop every process this run started and wait for each to end.

    The workloads' owners join their workers on close; this also kills and
    reaps anything else still parented here, and then ends the resource
    tracker that ``multiprocessing.shared_memory`` starts on first use,
    which would otherwise outlive the run by a moment.  The tracker goes
    last: it ends once every process holding its pipe has.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    for pid in child_pids():
        if pid == tracker._pid:
            continue
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
    tracker._stop()


def run(arguments: argparse.Namespace) -> dict:
    from perfbench.calibration import scaled
    from perfbench.metrics import GATE_METRICS, LAYER_METRICS, percentile, tail_percentile
    from perfbench.tracing import Tracer
    from perfbench.workloads import SETUP_REPEATS, WORKLOADS, operations_for

    stem = f"{arguments.workload}-seed{arguments.seed}"
    state_dir = ROOT / ".perfbench"
    workdir = state_dir / f"work-{os.getpid()}"
    workload = WORKLOADS[arguments.workload](arguments.seed, workdir)
    pin_cpus(workload.workers)
    try:
        setup_times = []
        for repeat in range(SETUP_REPEATS):
            begin = time.perf_counter()
            state = workload.setup()
            setup_times.append(scaled(time.perf_counter() - begin, workload.reference.measure()))
            if repeat < SETUP_REPEATS - 1:
                workload.teardown(state)
        try:
            target = operations_for(arguments.seconds, workload.nominal_ops_per_s)
            measured = workload.measure(state, target)
        finally:
            workload.teardown(state)

        attempted, failed = measured.ops, measured.failed
        checks = dict(measured.checks)
        report = dict(measured.report)
        report["setup_s"] = (median(setup_times), "s")
        report["error_rate"] = (measured.failed / max(measured.ops, 1), "fraction")
        report["host.reference_ms"] = (median(measured.references_s) * 1e3, "ms")
        latencies_ms = [latency * 1e3 for latency in measured.scaled_latencies_s]
        report["op_samples"] = (len(latencies_ms), "count")
        tail = tail_percentile(latencies_ms)
        if tail is not None:
            report[f"op_ms_p{tail[0]:g}"] = (tail[1], "ms")
        values = {
            "ops_per_s": measured.ops_per_s,
            "op_ms_p50": median(latencies_ms),
            "op_ms_p90": percentile(latencies_ms, 90),
            "setup_s": median(setup_times),
        }
        units = {metric["name"]: metric["unit"] for metric in GATE_METRICS}
        names = list(units)

        if arguments.trace:
            tracer = Tracer()
            state = workload.setup()
            try:
                with tracer.instrument(workload.trace_targets):
                    traced = workload.measure(state, measured.ops, tracer)
                    layers = workload.layer_metrics(traced, tracer)
            finally:
                workload.teardown(state)
            attempted += traced.ops
            failed += traced.failed
            checks.update({f"traced.{name}": ok for name, ok in traced.checks.items()})
            report.update({
                name: value for name, value in traced.report.items() if name.startswith("trace.")
            })
            layers["trace.overhead_fraction"] = 1.0 - traced.ops_per_s / measured.ops_per_s
            layers["trace.spans_per_op"] = len(tracer.spans) / max(traced.ops, 1)
            units = {metric["name"]: metric["unit"] for metric in LAYER_METRICS}
            names = list(units)
            values = {name: float(layers.get(name, 0.0)) for name in names}
            tracer.write(
                state_dir / "traces" / f"{stem}.json",
                {"workload": arguments.workload, "seed": arguments.seed, "ops": traced.ops},
            )
        else:
            values["peak_rss_mb"] = peak_rss_mb(workload.workers, workload.reference.nbytes)
            report["peak_rss_mb"] = (values["peak_rss_mb"], "MB")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {name: {"value": values[name], "unit": units[name]} for name in names}
    correct = failed == 0 and all(checks.values())
    document = {
        "workload": arguments.workload,
        "seed": arguments.seed,
        "trace": arguments.trace,
        "machine": machine_facts(),
        "checks": checks,
        "report": {name: {"value": value, "unit": unit} for name, (value, unit) in report.items()},
        "operations": attempted,
    }
    results = state_dir / "results" / f"{stem}-trace{arguments.trace}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps({**document, "metrics": metrics}, indent=2), encoding="utf-8")

    for key, value in document["machine"].items():
        print(f"machine.{key}: {value}")
    for name, passed in checks.items():
        print(f"check {name}: {'ok' if passed else 'FAILED'}")
    for name, (value, unit) in report.items():
        print(f"{arguments.workload} {name} = {value:.6g} {unit}")
    for name in names:
        if name not in report:
            print(f"{arguments.workload} {name} = {values[name]:.6g} {units[name]}")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    arguments = parse_arguments(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.workloads import WORKLOADS

    if arguments.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {arguments.workload!r}; "
            f"choose from {', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    try:
        result = run(arguments)
    finally:
        stop_children()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
