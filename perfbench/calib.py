"""Host-speed calibration: a fixed pure-Python kernel sampled beside the work.

On a small shared virtual machine the speed of one vCPU drifts by up to 2x
from one second to the next (another guest on the same physical core), so a
raw wall-clock interval does not repeat within a tenth.  The drift is
invisible to the guest (no steal time is accounted) and uncorrelated between
the two vCPUs, so it cannot be measured from another process.

The calibrator therefore pins the benchmark to one vCPU and times short
slices of :func:`kernel` -- a fixed loop that touches no ``repro`` code --
in the process doing the work:

* a sampler thread wakes every :data:`SAMPLE_PERIOD_S` and times one slice.
  The GIL serialises the slice with the work, so the slice measures the
  vCPU the work runs on, not contention with the work itself.  The gateway
  server runs the same sampler in its own process (see ``serve.py``);
* the C-heavy YARA scan path of ``yara-stream`` does not follow the
  kernel's drift; its scan time is reported raw, with the sampler paused.

A timed interval ``[a, b]`` of raw length ``b - a`` is reported as
``(b - a) * NOMINAL_SLICE_S / mean(slices around [a, b])``: seconds on a
host whose kernel slice takes :data:`NOMINAL_SLICE_S`.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from bisect import bisect_left, bisect_right

#: Kernel iterations per slice (about a millisecond on a 2 GHz Xeon vCPU).
SLICE_ITERATIONS = 2500
#: Reference slice time: the fast-state median of one slice on the host the
#: reference figures in README.md were taken on.  Only its constancy matters.
NOMINAL_SLICE_S = 0.00066
#: Sampler cadence (sleep between slices).
SAMPLE_PERIOD_S = 0.025
#: A calibration window holds at least this many slices.
MIN_SLICES = 6


def kernel(iterations: int = SLICE_ITERATIONS) -> int:
    """The fixed interpreter workload: dict updates, int->str, arithmetic."""
    table: dict = {}
    acc = 0
    for i in range(iterations):
        key = i & 1023
        table[key] = table.get(key, 0) + i
        acc += len(str(i)) + (i * 7 % 13)
    return acc


#: The vCPUs the process could use before :func:`pin_to_one_cpu`.
CPUS: list[int] = []


def pin_to_one_cpu() -> int:
    """Pin the calling process (and the threads and children it starts
    afterwards) to one vCPU; returns the vCPU, or -1 where unsupported."""
    try:
        CPUS[:] = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {CPUS[-1]})
        return CPUS[-1]
    except (AttributeError, OSError):
        return -1


def spare_cpu() -> int:
    """A vCPU other than the pinned one (for a server process), or -1."""
    return CPUS[0] if len(CPUS) > 1 else -1


class Calibrator:
    """Kernel slices over time, and calibrated lengths of timed intervals."""

    def __init__(self) -> None:
        self._times: list[float] = []  # slice midpoints (perf_counter)
        self._slices: list[float] = []  # slice durations over their nominal
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._running = threading.Event()
        self._thread: threading.Thread | None = None

    # -- sampling -----------------------------------------------------------------
    def slice(self) -> None:
        """Time one kernel slice; recorded as its time over the nominal."""
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        with self._lock:
            self._times.append((start + end) / 2)
            self._slices.append((end - start) / NOMINAL_SLICE_S)

    def start(self) -> "Calibrator":
        """Start the background sampler thread (running)."""
        self._running.set()
        self._thread = threading.Thread(
            target=self._sample, name="calibration-sampler", daemon=True
        )
        self._thread.start()
        return self

    def pause(self) -> None:
        self._running.clear()

    def resume(self) -> None:
        self._running.set()

    def stop(self) -> None:
        self._stop.set()
        self._running.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def _sample(self) -> None:
        while not self._stop.is_set():
            self._running.wait()
            if self._stop.wait(SAMPLE_PERIOD_S):
                break
            if self._running.is_set():
                self.slice()

    def samples(self) -> dict:
        with self._lock:
            return {"times": list(self._times), "slices": list(self._slices)}

    def absorb(self, samples: dict) -> None:
        """Add slices taken in another process (the clocks agree:
        ``perf_counter`` is the system-wide monotonic clock)."""
        with self._lock:
            merged = sorted(
                zip(self._times + list(samples["times"]),
                    self._slices + list(samples["slices"]))
            )
            self._times = [t for t, _ in merged]
            self._slices = [s for _, s in merged]

    # -- calibration --------------------------------------------------------------
    def slices_around(self, start: float, end: float) -> list[float]:
        """Slices inside ``[start, end]``, widened to the nearest
        :data:`MIN_SLICES` when the interval holds fewer."""
        with self._lock:
            times = list(self._times)
            slices = list(self._slices)
        if not slices:
            raise RuntimeError("no calibration slices recorded")
        lo = bisect_left(times, start)
        hi = bisect_right(times, end)
        while hi - lo < MIN_SLICES and (lo > 0 or hi < len(times)):
            before = start - times[lo - 1] if lo > 0 else float("inf")
            after = times[hi] - end if hi < len(times) else float("inf")
            if before <= after:
                lo -= 1
            else:
                hi += 1
        return slices[lo:hi]

    def factor(self, start: float, end: float) -> float:
        """Nominal / measured slice time around ``[start, end]``."""
        return 1.0 / statistics.fmean(self.slices_around(start, end))

    def seconds(self, start: float, end: float) -> float:
        """Calibrated length of the raw interval ``[start, end]``."""
        return (end - start) * self.factor(start, end)


class Stopwatch:
    """Accumulates raw and calibrated seconds over many timed intervals."""

    def __init__(self, calibrator: Calibrator) -> None:
        self.calibrator = calibrator
        self.intervals: list[tuple[float, float]] = []

    def add(self, start: float, end: float) -> None:
        self.intervals.append((start, end))

    @property
    def raw(self) -> float:
        return sum(end - start for start, end in self.intervals)

    @property
    def calibrated(self) -> float:
        return sum(self.calibrator.seconds(a, b) for a, b in self.intervals)

    def calibrated_each(self) -> list[float]:
        return [self.calibrator.seconds(a, b) for a, b in self.intervals]
