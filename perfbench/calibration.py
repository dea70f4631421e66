"""A host-speed reference that the gate's time metrics are scaled by.

A shared host can change speed while a run goes on: a busy neighbour on a
sibling hyper-thread or on the shared cache, frequency scaling, a migrated
vCPU.  Runs of the same code a few minutes apart then differ by more than a
program change the gate should catch.  So the benchmark times a fixed kernel
of its own next to every operation, and scales the operation's time by
``REFERENCE_S / reference time``.  A slower host slows the operation and the
kernel alike, and the two cancel.  A slower program leaves the kernel as it
was, so its cost shows in full.

The kernel mixes small NumPy products with an interpreter loop, as the
program does.  It leaves no container object alive, so it never triggers the
cyclic garbage collector, whose cost grows with the program's heap: a
program that grows its heap cannot slow the reference.  With ``memory`` it
also gathers random entries of a table larger than the per-core caches, so
a busy neighbour on the shared cache and memory slows it as it slows the
program.  Each timing is preceded by an untimed pass, which brings the
kernel's code and data back into the caches.  Without it the kernel read
about twice its idle time inside ``optimus_long`` runs (and after streaming
128 MiB), so a program that thrashed the caches more would have slowed the
reference and flattered its own scaled times; with it the kernel reads
within host noise of its idle time there.
"""

from __future__ import annotations

import os
import time
from collections import deque
from statistics import fmean, median
from typing import Sequence

import numpy

#: Nominal time of one kernel pass.  Scaled times read as seconds on a host
#: where one pass takes this long.
REFERENCE_S = 0.5e-3
#: Matrix products and interpreter-loop steps in one kernel pass.
PRODUCTS = 40
LOOP_STEPS = 2000
#: Random reads of one pass with ``memory``, from a table of this many
#: float64 entries (32 MiB).
GATHERS = 1 << 15
TABLE_SIZE = 1 << 22


class Reference:
    """Times the reference kernel on the CPUs the measured work runs on.

    ``cpus`` lists the CPUs to time it on, one after the other (the process
    moves to each in turn and then back); ``None`` times it where the
    process runs.  ``passes`` kernel passes are timed per CPU, after one
    untimed warm-up pass.  A
    measurement is the median of the last ``window`` timings, which smooths
    the noise of one short timing yet follows a speed change within a few
    measurements.  ``memory`` adds the random reads.
    """

    def __init__(
        self,
        cpus: Sequence[int] | None = None,
        passes: int = 1,
        window: int = 1,
        memory: bool = False,
    ) -> None:
        generator = numpy.random.default_rng(0)
        self._input = generator.standard_normal((16, 64))
        self._weight = generator.standard_normal((64, 64))
        self._hidden = numpy.empty((16, 64))
        table_size, gathers = (TABLE_SIZE, GATHERS) if memory else (1, 0)
        self._table = generator.standard_normal(table_size)
        self._index = generator.integers(0, table_size, gathers)
        self._gathered = numpy.empty(gathers)
        self.cpus = tuple(cpus) if cpus else ()
        self.passes = passes
        self._recent: deque[float] = deque(maxlen=window)

    @property
    def nbytes(self) -> int:
        """Bytes of the kernel's arrays, all resident from construction on."""
        arrays = (
            self._input, self._weight, self._hidden, self._table, self._index, self._gathered
        )
        return sum(array.nbytes for array in arrays)

    def _pass(self) -> float:
        begin = time.perf_counter()
        total = 0.0
        for _ in range(PRODUCTS):
            numpy.matmul(self._input, self._weight, out=self._hidden)
            numpy.maximum(self._hidden, 0.0, out=self._hidden)
            total += float(self._hidden.sum())
        step = 0
        for value in range(LOOP_STEPS):
            step += value * value
        numpy.take(self._table, self._index, out=self._gathered)
        return time.perf_counter() - begin

    def _timed(self) -> float:
        self._pass()  # warm-up, untimed
        return median(self._pass() for _ in range(self.passes))

    def _time_cpus(self) -> float:
        if not self.cpus:
            return self._timed()
        allowed = os.sched_getaffinity(0)
        try:
            per_cpu = []
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                per_cpu.append(self._timed())
        finally:
            os.sched_setaffinity(0, allowed)
        return fmean(per_cpu)

    def measure(self) -> float:
        """Seconds one kernel pass takes now (mean over ``cpus``)."""
        self._recent.append(self._time_cpus())
        return median(self._recent)


def scaled(seconds: float, reference_s: float) -> float:
    """``seconds`` as it would read on a host at the nominal reference speed."""
    return seconds * REFERENCE_S / reference_s
