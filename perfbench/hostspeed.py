"""Host-speed probe: how fast the workload's CPU runs while it is timed.

The shared 2-vCPU VMs this benchmark was tuned on change speed by up to
2x within a minute, with no steal time: the same repetition of a workload
took 3.7 s and 8.8 s minutes apart. That is far beyond the bounds of the
end-to-end metrics, so run.py reports times at a reference speed instead:

  reported = measured / factor
  factor = (median probe duration in the window / REFERENCE_PROBE_S) ** SENSITIVITY

The probe is a separate process pinned to the CPU the workload's process
is pinned to. Every PERIOD_S seconds it wakes, runs one fixed piece of
pure-Python work and records when it ended and how long it took. The
scheduler interleaves it with the workload on that one CPU, so the probe
durations inside a timed window measure the CPU's speed during it. The
probe's work mixes the two kinds of work the simulator does: a small
event loop over a heap of objects, and random lookups in a table larger
than the caches. The simulator slows more than the probe: in four
sessions of 8 to 20 minutes its times grew as the probe's to the power
1.0 to 1.6, and SENSITIVITY = 1.3 kept the worst per-repetition spread
of run_s lowest (about 0.12 where 1.0 gave 0.20). Other probes tracked
worse: a small heap loop alone, lookups in an 80 MB table, fresh
allocations, and a 20-peer relaysim run; so did a mean in place of the
median. The probe costs the workload about 5% of its CPU, the same on
every commit.

Run as a script (run.py does this): python3 hostspeed.py --cpu N. It
prints "ready" once its table is built, samples until SIGTERM (or until
its parent exits), then prints [[end, duration], ...] as one JSON line.
"""

from __future__ import annotations

import bisect
import heapq
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time

PERIOD_S = 0.03
# Median probe duration on a 2-vCPU Xeon VM (Python 3.11.7); it only sets
# the scale of the reported times.
REFERENCE_PROBE_S = 1.5e-3
# How much more the workloads slow than the probe, as an exponent.
SENSITIVITY = 1.3
# Fewest samples a factor is taken from; shorter windows are widened.
MIN_SAMPLES = 15

EVENT_OBJECTS = 1 << 13
TABLE_OBJECTS = 1 << 17


class _Item:
    __slots__ = ("key", "value", "mark")

    def __init__(self, key: int):
        self.key = key
        self.value = key * 0.5
        self.mark = None


class Probe:
    """The fixed work one sample times."""

    def __init__(self):
        self.rng = random.Random(7)
        self.items = [_Item(i) for i in range(EVENT_OBJECTS)]
        objs = [_Item(i) for i in range(TABLE_OBJECTS)]
        self.table = {i * 2654435761 % (1 << 31): objs[i] for i in range(TABLE_OBJECTS)}
        self.keys = list(self.table)

    def events(self) -> int:
        heap, out, r, n = [], [], self.rng.random, EVENT_OBJECTS
        for i in range(200):
            item = self.items[int(r() * n)]
            heapq.heappush(heap, (item.value + r(), i, item))
        while heap:
            t, _, item = heapq.heappop(heap)
            if item.mark is None or t > 1.0:
                out.append(item.key)
        out.sort()
        return len(out)

    def lookups(self) -> float:
        acc, keys, pick = 0.0, self.keys, self.rng.randrange
        for _ in range(150):
            item = self.table[keys[pick(TABLE_OBJECTS)]]
            acc += item.value
            item.mark = acc
        return acc

    def __call__(self) -> None:
        for _ in range(3):
            self.events()
        self.lookups()


class HostSpeed:
    """A running probe process pinned to `cpu`; stop() before factor()."""

    def __init__(self, cpu: int):
        self.proc = subprocess.Popen([sys.executable, os.path.abspath(__file__),
                                      "--cpu", str(cpu)],
                                     stdout=subprocess.PIPE, text=True)
        self.ends: list[float] = []
        self.durations: list[float] = []
        if self.proc.stdout.readline().strip() != "ready":
            self.stop()
            raise RuntimeError("host-speed probe did not start")

    def stop(self) -> None:
        """Ends the probe, waits for it and keeps its samples."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        try:
            samples = json.loads(out.strip().splitlines()[-1]) if out.strip() else []
        except ValueError:
            samples = []
        self.ends = [e for e, _ in samples]
        self.durations = [d for _, d in samples]

    def factor(self, start: float, end: float) -> float:
        """Median probe duration over [start, end] (time.monotonic) over
        the reference, to the power SENSITIVITY; a window with fewer than
        MIN_SAMPLES samples is widened on both sides to that many."""
        n = len(self.ends)
        if n == 0:
            raise RuntimeError("host-speed probe recorded no samples")
        i, j = bisect.bisect_left(self.ends, start), bisect.bisect_right(self.ends, end)
        while j - i < min(MIN_SAMPLES, n):
            i, j = max(0, i - 1), min(n, j + 1)
        return (statistics.median(self.durations[i:j]) / REFERENCE_PROBE_S) ** SENSITIVITY


def main() -> int:
    import argparse
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cpu", required=True, type=int)
    args = ap.parse_args()
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(1))
    parent = os.getppid()
    os.sched_setaffinity(0, {args.cpu})
    probe = Probe()
    samples = []
    print("ready", flush=True)
    # Also ends when run.py is gone, so a killed run leaves no probe behind.
    while not stop and os.getppid() == parent:
        time.sleep(PERIOD_S)
        t = time.perf_counter()
        probe()
        samples.append((time.monotonic(), time.perf_counter() - t))
    print(json.dumps(samples), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
