"""Timing corrected for the speed the machine runs at, moment to moment.

On a shared machine the same code can take half as long again from one
second to the next, and the slow and fast stretches last from seconds to
minutes, so neither the fastest nor the median of a run's passes reads the
same from run to run. Every timed unit is therefore bracketed by a short
reference probe: a fixed mix of the kind of work the package does (blake2b
over short strings, dict counting, a numpy reduction), independent of the
package. A unit's wall time is divided by the median of the probes taken
around it and multiplied by ``PROBE_REF_S``, which states it in seconds on a
machine where the probe takes 20 ms. A change to the package moves the unit
and not the probe, so it shows in full.

Training needs a probe of its own. It allocates and frees dense (K, 2^18)
arrays on every batch, so its speed follows page faults and memory
bandwidth, which the CPU probe does not track. ``train_probe`` makes the
same kind of dense Adam steps with plain numpy.
"""

from __future__ import annotations

import bisect
import hashlib
import statistics
import threading
import time

import numpy

PROBE_REF_S = 0.02
TRAIN_PROBE_REF_S = 0.1
# a unit is compared with the probes taken this close to it: slow and fast
# stretches last seconds, and one probe is itself noisy, so the median of
# the several probes around a unit is steadier than the two that bracket it
WINDOW_S = 1.5
# after a unit, probe again only if the last probe is older than this, so
# short units (most explanations) do not spend their time probing
_GAP_S = 0.2
_WORDS = tuple(f"w{i}x" for i in range(200))
_SQUARES = numpy.arange(200_000, dtype=numpy.float64)
_TRAIN_SHAPE = (5, 2**18)
_TRAIN_COLUMNS = numpy.arange(0, 2**18, 997)


def probe() -> float:
    """Wall time of one fixed reference workload, about 20 ms."""
    started = time.perf_counter()
    counts: dict = {}
    for i in range(12_000):
        word = _WORDS[i % 200] + str(i & 15)
        key = int.from_bytes(hashlib.blake2b(word.encode(), digest_size=8).digest(),
                             "little") & 1023
        counts[key] = counts.get(key, 0) + 1.0
    float((_SQUARES * _SQUARES).sum())
    return time.perf_counter() - started


def train_probe() -> float:
    """Wall time of three dense Adam steps on fresh (5, 2^18) arrays, with
    the temporaries numpy makes for them, about 0.1 s."""
    started = time.perf_counter()
    w = numpy.zeros(_TRAIN_SHAPE)
    m = numpy.zeros_like(w)
    v = numpy.zeros_like(w)
    for step in range(1, 4):
        grad = numpy.zeros_like(w)
        grad[:, _TRAIN_COLUMNS] += 0.5
        grad /= 8
        m *= 0.9
        m += 0.1 * grad
        v *= 0.999
        v += 0.001 * grad * grad
        w -= 0.01 * (m / (1 - 0.9**step)) / (numpy.sqrt(v / (1 - 0.999**step)) + 1e-8)
    return time.perf_counter() - started


def probe_threads(threads: int) -> float:
    """The probe run in this many threads at once, per thread.

    Under the interpreter lock the threads take turns, so this is about one
    probe's time on a quiet machine; like a thread pool, it slows down when
    any CPU the threads land on is slow."""
    started = time.perf_counter()
    workers = [threading.Thread(target=probe) for _ in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    return (time.perf_counter() - started) / threads


class Clock:
    """Times calls, probing the machine after each, and states a call's
    time at reference speed once the probes around it are known.

    A call's probe kind is the number of threads that run the CPU probe at
    once (as many as the call's thread pool), or "train" for
    ``train_probe``."""

    def __init__(self):
        # per probe kind: probe midpoints (ascending) and probe times
        self._series: dict = {}

    def _probe(self, kind) -> None:
        times, probes = self._series.setdefault(kind, ([], []))
        started = time.perf_counter()
        if kind == "train":
            seconds = train_probe()
        else:
            seconds = probe() if kind == 1 else probe_threads(kind)
        times.append(started + (time.perf_counter() - started) / 2)
        probes.append(seconds)

    def measure(self, fn, *args, kind=1):
        """Returns (result, (start, end)) of one call."""
        times, _ = self._series.setdefault(kind, ([], []))
        if not times or time.perf_counter() - times[-1] > WINDOW_S:
            self._probe(kind)
        start = time.perf_counter()
        result = fn(*args)
        end = time.perf_counter()
        if end - times[-1] > _GAP_S:
            self._probe(kind)
        return result, (start, end)

    def reference_seconds(self, span, kind=1) -> float:
        """The span's length divided by the median probe of its kind within
        WINDOW_S of it, times that probe's reference time."""
        start, end = span
        times, probes = self._series[kind]
        lo = bisect.bisect_left(times, start - WINDOW_S)
        hi = bisect.bisect_right(times, end + WINDOW_S)
        ref = TRAIN_PROBE_REF_S if kind == "train" else PROBE_REF_S
        return (end - start) * ref / statistics.median(probes[lo:hi])
