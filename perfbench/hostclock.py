"""How fast the shared host runs right now, from fixed pure-Python tasks.

The host's speed drifts by tens of percent over minutes, alike for every
pure-Python program on it.  The benchmark therefore times, after each timed
step, two fixed tasks that do not touch autorel, and scales its times by how
much slower than their reference times those tasks ran.  Memory-bound and
cache-bound code slow down by different amounts, so there is one task of
each kind, and the slowdown is the geometric mean of the two.

The tasks run in a child process (``python3 hostclock.py`` serves requests
on stdin), one at a time while the benchmark waits for them, so that their
memory does not count towards the benchmark's peak RSS and their garbage
does not meet the program's heap.
"""

from __future__ import annotations

import gc
import math
import os
import subprocess
import sys
import time


def small_unit() -> int:
    """A task in the style of a subset construction: frozensets of small
    ints, dict look-ups, a work list; it stays in the caches."""
    seen = {}
    frontier = [frozenset({0})]
    while frontier and len(seen) < 50:
        s = frontier.pop()
        if s in seen:
            continue
        seen[s] = len(seen)
        for x in range(4):
            t = frozenset((q * 3 + x) % 97 for q in s) | {len(seen) % 97}
            if t not in seen:
                frontier.append(t)
    return len(seen)


def large_unit() -> int:
    """A task in the style of a large transition set: a hash set of 60 000
    tuples, some megabytes, built and probed; it misses the caches."""
    s = set()
    for i in range(60000):
        s.add((i * 2654435761 % 1000003, ("x", i & 255), i & 7))
    return sum(1 for t in s if t[2] == 3 and (t[0] + 1, t[1], 3) in s)


# each unit with its time on the reference host, in seconds
HOST_UNITS = ((small_unit, 1.2e-3), (large_unit, 65e-3))


def serve(inp, out) -> None:
    """For each request line of owed seconds, one number per unit, run each
    unit until its time covers what is owed; reply with the units run and
    the seconds they took, per unit."""
    gc.disable()  # the units make no cycles
    for line in inp:
        reply = []
        for (unit, _), owed in zip(HOST_UNITS, map(float, line.split())):
            n, spent = 0, 0.0
            while spent < owed:
                t0 = time.perf_counter()
                unit()
                spent += time.perf_counter() - t0
                n += 1
            reply += [n, spent]
        out.write(" ".join(map(repr, reply)) + "\n")
        out.flush()


class Probe:
    """The child process that runs the units; use it as a context manager."""

    def __enter__(self) -> "Probe":
        # the caller and the probe share one CPU, so the probe sees the
        # caches and the neighbours that the timed work sees
        self.cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self.cpus)})
        self.proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        return self

    def pay(self, owed: list) -> list:
        """Run the units for the owed seconds; [(units run, seconds)]."""
        self.proc.stdin.write(" ".join(map(repr, owed)) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline().split()
        if len(reply) != 2 * len(HOST_UNITS):
            raise RuntimeError(f"host probe exited with {self.proc.poll()}")
        return [(int(reply[i]), float(reply[i + 1])) for i in range(0, len(reply), 2)]

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        os.sched_setaffinity(0, self.cpus)


class HostClock:
    """The host's slowdown against the reference host over a phase."""

    def __init__(self, probe: Probe, share: float):
        self.probe = probe
        self.share = share  # probe time per second of timed work
        self.owed = [0.0] * len(HOST_UNITS)
        self.units = [0] * len(HOST_UNITS)
        self.seconds = [0.0] * len(HOST_UNITS)

    def sample(self, step_s: float) -> None:
        """Owe `share` of a step that took step_s, split evenly among the
        units, and pay what is owed in whole units."""
        for k in range(len(HOST_UNITS)):
            self.owed[k] += self.share * step_s / len(HOST_UNITS)
        self._pay(self.owed)

    def _pay(self, owed: list) -> None:
        for k, (n, spent) in enumerate(self.probe.pay(owed)):
            self.owed[k] -= spent
            self.units[k] += n
            self.seconds[k] += spent

    def unit_slowdowns(self) -> list:
        """Each unit's mean time over its reference time."""
        if not all(self.units):
            self._pay([0.0 if n else 1e-9 for n in self.units])
        return [s / n / ref for s, n, (_, ref) in zip(self.seconds, self.units, HOST_UNITS)]

    def slowdown(self) -> float:
        """Geometric mean of the units' slowdowns."""
        logs = [math.log(x) for x in self.unit_slowdowns()]
        return math.exp(sum(logs) / len(logs))


if __name__ == "__main__":
    serve(sys.stdin, sys.stdout)
