"""Measurement helpers: percentiles, the boundary rule, spans, memory.

Everything here is benchmark-side.  The program under test is only
called through its public functions; nothing in ``src/`` is patched.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

#: A percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10
#: A percentile must sit at least this many points from any boundary.
BOUNDARY_MARGIN = 10.0
#: Adjacent request classes whose median latencies differ by less than
#: this factor overlap, so no percentile can jump between them.
CLASS_SEPARATION = 1.25
#: Work counts that jump by at least this factor start a new work mode
#: (the adaptive check grid doubles, so its modes are 2x apart).
MODE_GAP = 1.5
#: The speed probe's work, and its time on the reference machine
#: (2 vCPUs, Python 3.11) at its usual speed.
SPIN_STEPS = 800
SPIN_NOMINAL_S = 0.0005
#: Probe the machine's speed once per this many seconds of requests,
#: and scale each request by the probes within this many seconds of it.
PROBE_EVERY_S = 0.05
SMOOTH_S = 0.25
#: No child interpreter of the benchmark may run longer than this.
CHILD_TIMEOUT_S = 120


class BenchError(Exception):
    """A correctness or steadiness check failed: the run has no result."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise BenchError(message)


@dataclass
class Outcome:
    """One answered (or missed) request of a timed loop."""

    cls: str
    latency: float  # seconds
    ok: bool
    work: Optional[int] = None  # a count: samples drawn, nodes expanded


def median(values: Sequence[float]) -> float:
    check(len(values) > 0, "median of no values")
    return statistics.median(values)


def tail(values: Sequence[float]) -> Dict[str, float]:
    """The highest percentile with ``TAIL_BEYOND`` samples beyond it."""
    n = len(values)
    check(
        n > 2 * TAIL_BEYOND,
        f"{n} samples leave no tail with {TAIL_BEYOND} samples beyond it",
    )
    ordered = sorted(values)
    return {
        "value": ordered[n - TAIL_BEYOND - 1],
        "pct": 100.0 * (n - TAIL_BEYOND) / n,
    }


def boundaries(outcomes: Sequence[Outcome]) -> List[Dict]:
    """Class and work-mode boundaries of a pooled latency distribution.

    Classes are ordered by median latency; a class boundary counts when
    the next class is at least ``CLASS_SEPARATION`` slower.  Inside a
    class, requests are ordered by work; a mode boundary sits wherever
    the work count jumps by ``MODE_GAP`` or more.  Positions are
    percentages of all requests.
    """
    by_class: Dict[str, List[Outcome]] = {}
    for outcome in outcomes:
        by_class.setdefault(outcome.cls, []).append(outcome)
    order = sorted(
        by_class, key=lambda c: median([o.latency for o in by_class[c]])
    )
    total = len(outcomes)
    found = []
    start = 0
    previous_median = None
    for cls in order:
        members = by_class[cls]
        cls_median = median([o.latency for o in members])
        if (
            previous_median is not None
            and cls_median >= CLASS_SEPARATION * previous_median
        ):
            found.append(
                {"kind": "class", "at": 100.0 * start / total, "below": cls}
            )
        works = sorted(o.work for o in members if o.work is not None)
        below = 0
        for low, high in zip(works, works[1:]):
            below += 1
            if low > 0 and high >= MODE_GAP * low:
                found.append(
                    {
                        "kind": "mode",
                        "at": 100.0 * (start + below) / total,
                        "below": f"{cls} work {low}->{high}",
                    }
                )
            elif low == 0 and high > 0:
                found.append(
                    {
                        "kind": "mode",
                        "at": 100.0 * (start + below) / total,
                        "below": f"{cls} work 0->{high}",
                    }
                )
        start += len(members)
        previous_median = cls_median
    return found


def check_percentiles(
    label: str, outcomes: Sequence[Outcome], percentiles: Sequence[float]
) -> None:
    """Fail unless every percentile keeps its margin from every boundary."""
    for found in boundaries(outcomes):
        for pct in percentiles:
            check(
                abs(pct - found["at"]) >= BOUNDARY_MARGIN,
                f"{label}: p{pct:.1f} sits {abs(pct - found['at']):.1f} "
                f"points from a {found['kind']} boundary at "
                f"{found['at']:.1f}% ({found['below']})",
            )


def latency_summary(
    label: str, outcomes: Sequence[Outcome], window: Optional[int] = None
) -> Dict:
    """p50 and tail latency, each the median over consecutive windows.

    A window holds ``window`` requests (all of them when ``None``); a
    window's tail is its highest percentile with ``TAIL_BEYOND``
    samples beyond it.  Taking the median over windows keeps one slow
    second on a shared machine from setting the tail.  Every window
    must pass the boundary rule.
    """
    size = window or len(outcomes)
    starts = range(0, len(outcomes) - size + 1, size)
    check(starts, f"{label}: {len(outcomes)} requests fill no window of {size}")
    p50s, tails = [], []
    for first in starts:
        chunk = outcomes[first:first + size]
        latencies = [o.latency for o in chunk]
        worst = tail(latencies)
        check_percentiles(label, chunk, (50.0, worst["pct"]))
        p50s.append(median(latencies))
        tails.append(worst["value"])
    return {
        "p50_ms": 1e3 * median(p50s),
        "tail_ms": 1e3 * median(tails),
        "tail_pct": worst["pct"],
        "window": size,
        "windows": len(starts),
    }


def spin() -> float:
    """Seconds for a fixed piece of pure-Python work — small integers,
    rationals, a dict, and 4096-bit masks like the sampling kernels' —
    a probe of how fast this shared machine runs right now."""
    start = time.perf_counter()
    total = Fraction(0)
    seen = {}
    mask = (1 << 4096) - 1
    lanes = mask // 3
    x = 1
    for i in range(SPIN_STEPS):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        seen[x & 1023] = i
        if i % 16 == 0:
            total += Fraction(x & 255, 1 + (i & 63))
            lanes = ((lanes << 1) ^ (lanes >> 3) ^ x) & mask
            seen[lanes.bit_count() & 1023] = i
    return time.perf_counter() - start


class Clock:
    """Interleaved machine-speed probes, to scale requests' timings.

    A timing divided by its speed factor — the median probe time near
    it over ``SPIN_NOMINAL_S`` — reads as seconds on a machine running
    at the speed it had when the benchmark was calibrated.
    """

    def __init__(self):
        self.probes: List[float] = []

    def probe(self, busy: float = 0.0) -> None:
        """Probe after a whole request pattern that took ``busy`` seconds:
        once per ``PROBE_EVERY_S`` of requests, at least once; the
        pattern's probe is the median of these."""
        count = max(1, math.ceil(busy / PROBE_EVERY_S))
        self.probes.append(statistics.median(spin() for _ in range(count)))

    def factor(self, first: int, last: int) -> float:
        """Speed factor over patterns ``first .. last - 1``."""
        inside = self.probes[first:last]
        check(inside, "no speed probe inside a window")
        return median(inside) / SPIN_NOMINAL_S

    def factors(self, busy: Sequence[float]) -> List[float]:
        """Per pattern, the factor over the whole patterns that fit within
        ``SMOOTH_S / 2`` seconds of it on either side (none, for patterns
        that long: their own probes already span them)."""
        half = int(SMOOTH_S / 2 / (sum(busy) / len(busy)))
        return [
            self.factor(max(0, i - half), i + half + 1)
            for i in range(len(self.probes))
        ]


def cpu_ticks(cpu: Optional[int] = None) -> Optional[Tuple[int, int]]:
    """(busy, stolen) clock ticks since boot of one CPU, or of all when
    ``cpu`` is ``None``; ``None`` where the kernel's ``/proc/stat`` does
    not report them.

    Stolen ticks are time a virtual CPU wanted to run but the host ran
    something else; busy ticks are user, system and interrupt time.
    """
    label = "cpu" if cpu is None else f"cpu{cpu}"
    try:
        with open("/proc/stat") as handle:
            line = next(l for l in handle if l.split()[0] == label)
        fields = [int(x) for x in line.split()[1:]]
    except (OSError, StopIteration, ValueError):
        return None
    if len(fields) < 8:
        return None
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields[:8]
    return user + nice + system + irq + softirq, steal


def steal_factor(before, after) -> float:
    """``1 + stolen / busy`` ticks between two :func:`cpu_ticks` readings:
    how much longer than its own CPU time work took because the host
    held the virtual CPUs back; 1 where ticks are unavailable."""
    if before is None or after is None:
        return 1.0
    busy = after[0] - before[0]
    stolen = after[1] - before[1]
    return 1.0 + stolen / busy if busy > 0 else 1.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def python_env(root: str) -> Dict[str, str]:
    """The environment for child interpreters: the checkout's ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.pop("REPRO_CACHE_DIR", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def timed_child(args: Sequence[str], env: Dict[str, str], cwd: str):
    """Run a child interpreter to completion; (seconds, completed)."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, *args],
        env=env,
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    return time.perf_counter() - start, done


class Spans:
    """In-memory spans around the benchmark's calls into each layer.

    Each span has a request id, a parent and a name; spans are kept in
    memory and written out as JSON lines when the run ends.  A layer's
    self time is its duration minus the time its child spans cover.
    """

    def __init__(self):
        self.records: List[Dict] = []
        self._stack: List[int] = []
        self.request = ""

    def open(self, name: str) -> int:
        index = len(self.records)
        self.records.append(
            {
                "id": index,
                "parent": self._stack[-1] if self._stack else None,
                "request": self.request,
                "name": name,
                "start": time.perf_counter(),
                "end": None,
            }
        )
        self._stack.append(index)
        return index

    def close(self, index: int) -> float:
        check(self._stack and self._stack[-1] == index, "unbalanced span")
        self._stack.pop()
        record = self.records[index]
        record["end"] = time.perf_counter()
        return record["end"] - record["start"]

    def call(self, name: str, fn, *args, **kwargs):
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    def self_times(self) -> Dict[str, List[float]]:
        """Per span name, the self time of every span of that name."""
        child_time: Dict[int, float] = {}
        for record in self.records:
            if record["parent"] is not None:
                child_time[record["parent"]] = child_time.get(
                    record["parent"], 0.0
                ) + (record["end"] - record["start"])
        out: Dict[str, List[float]] = {}
        for record in self.records:
            own = record["end"] - record["start"] - child_time.get(
                record["id"], 0.0
            )
            out.setdefault(record["name"], []).append(own)
        return out

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            for record in self.records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")


@dataclass
class Counts:
    """Deltas of the program's own ``repro.obs`` counters."""

    values: Dict[str, int] = field(default_factory=dict)

    def add(self, before: Dict[str, int], after: Dict[str, int]) -> Dict:
        delta = {
            name: after.get(name, 0) - before.get(name, 0)
            for name in set(after) | set(before)
        }
        for name, amount in delta.items():
            if amount:
                self.values[name] = self.values.get(name, 0) + amount
        return delta

    def get(self, name: str) -> int:
        return self.values.get(name, 0)
