"""The open-loop workload: scripted arrivals into one ``repro.serve.Server``.

Requests arrive on a fixed schedule whatever the server's state, so a
slow server builds a queue.  Latency is timed from each request's due
time, which counts the wait a stall imposes on the requests behind it;
how late the driver accepted each request is reported separately.
"""

from __future__ import annotations

import os
import random
import time
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.serve.admission import DegradationLadder
from repro.serve.request import REJECTED_CODES, SHED_CODES, ServeRequest
from repro.serve.scheduler import Server

from perfbench import inputs
from perfbench.closed import Read, TracedPass, DrawLog, counter_layers
from perfbench.measure import (
    Counts,
    Outcome,
    check,
    cpu_ticks,
    latency_summary,
    median,
    steal_factor,
    tail,
)

#: safe 3, exact 5, sampled 2 in every ten requests, two tenants; one
#: query per class.  The mix is synthetic, chosen only so that the p50
#: sits mid-class in the exact queries and the p90 tail in the sampled
#: ones, clear of the class boundaries.
SERVE_PATTERN = (
    "safe", "exact", "sampled", "exact", "safe",
    "exact", "exact", "safe", "sampled", "exact",
)
TENANTS = ("alpha", "beta")
SERVE_SHAPE = (5, 8)
POOL_SIZE = 2
QUEUE_CAPACITY = 64
SAMPLED_EPSILON = 0.15
#: The fixed offered rate of the end-to-end run (requests per second):
#: synthetic, a sixth to a quarter of the measured ``max_rate_rps``,
#: so service rather than queueing sets most latencies.
REFERENCE_RATE = 30.0
#: A rate meets the limit when its tail latency stays under this.
TAIL_LIMIT_MS = 250.0
#: Requests per latency window: 10 patterns, so a window's tail is p90.
SERVE_WINDOW = 100
#: Offered rates tried in order when searching for the highest one
#: that meets the limit (steps of 1.25x); the search then bisects the
#: failing step three times, to within about 3%.
LADDER = (40.0, 50.0, 62.5, 78.0, 98.0, 122.0, 153.0, 191.0, 238.0, 298.0)
BISECTIONS = 3
RUNG_SECONDS = 1.5


class _Stamped(list):
    """``Server.responses`` that also stamps when each was appended."""

    def __init__(self):
        super().__init__()
        self.at: List[float] = []

    def append(self, item) -> None:
        self.at.append(time.monotonic())
        super().append(item)


class ServeOpen:
    """Pins this process, and so the server's threads, to one CPU.

    Python runs one thread at a time, so the pin costs the server little
    parallelism; it keeps every hand-off between the driver and the
    workers on the CPU whose stolen ticks ``timed`` reads.  On a shared
    2-vCPU virtual machine that narrowed the run-to-run spread of
    ``latency_p50_ms`` from 7% and 14% to 5% and 8% (quartile distance
    over median, two sets of five runs, pinned and unpinned runs
    interleaved).  A server that ran work in child processes would
    inherit the pin, and the benchmark should then lift it.
    """

    name = "serve_open"
    pattern = SERVE_PATTERN

    def __init__(self):
        self.cpu: Optional[int] = None
        if hasattr(os, "sched_setaffinity"):
            self.cpu = max(os.sched_getaffinity(0))
            os.sched_setaffinity(0, {self.cpu})

    def setup(self, seed: int) -> None:
        rng = random.Random(f"serve_open:{seed}")
        self.seed_key = rng.getrandbits(64)
        self.db = inputs.build_db(rng, *SERVE_SHAPE, 0, f_atoms=True)
        db = self.db
        self.mix: Dict[str, List[Tuple[str, float, str]]] = {
            "safe": [(q, float(inputs.dnf_reference(db, q)), "safe_lifted")
                     for q in inputs.SAFE[:1]],
            "exact": [(q, float(inputs.bdd_reference(db, q)), "exact")
                      for q in inputs.UNSAFE[1:]],
            "sampled": [(inputs.FO, float(inputs.fo_reference(db)), "montecarlo")],
        }
        # No degradation rungs: every admitted request keeps its exact
        # engine, so the answering path never depends on queue depth.
        self.server = Server(
            db,
            pool_size=POOL_SIZE,
            queue_capacity=QUEUE_CAPACITY,
            ladder=DegradationLadder(relative_at=None, additive_at=None),
            adaptive=True,
        )
        # Warm the compilation cache and the serving path.
        self.rung(REFERENCE_RATE, 0.5)

    def databases(self):
        return [self.db]

    def requests(
        self, rate: float, seconds: float, first: int = 0
    ) -> List[Tuple[ServeRequest, str, float, str]]:
        """The script of one run at ``rate``, its requests numbered from
        ``first``.  Each request's seed comes from the workload's seed,
        the rate and the request's number alone, so a run's draws never
        depend on how many runs came before it."""
        count = max(len(self.pattern), int(rate * seconds))
        count -= count % len(self.pattern)
        taken = {cls: 0 for cls in self.mix}
        out = []
        for i in range(count):
            cls = self.pattern[i % len(self.pattern)]
            choices = self.mix[cls]
            text, reference, engine = choices[taken[cls] % len(choices)]
            taken[cls] += 1
            request = ServeRequest(
                id=f"r{i}",
                query=text,
                tenant=TENANTS[i % len(TENANTS)],
                quantity="probability",
                epsilon=SAMPLED_EPSILON,
                seed=random.Random(
                    f"{self.seed_key}:{rate}:{first + i}"
                ).getrandbits(32),
                arrival=i / rate,
            )
            out.append((request, cls, reference, engine))
        return out

    def rung(self, rate: float, seconds: float, recorder=None, first: int = 0) -> Dict:
        """One scripted run at ``rate``: per-request outcomes and timings."""
        script = self.requests(rate, seconds, first)
        server = self.server
        server.responses = _Stamped()
        base = server.scheduler.now()
        if recorder is None:
            responses = server.run([r for r, _, _, _ in script])
        else:
            with obs.use(recorder):
                responses = server.run([r for r, _, _, _ in script])
        stamps = server.responses.at
        check(len(responses) == len(script), "serve: a request got no response")
        by_id = {r.id: (r, at) for r, at in zip(responses, stamps)}
        outcomes, lateness, service, queued, retries = [], [], [], [], 0
        shed = refused = answered = 0
        last = base
        for request, cls, reference, engine in script:
            response, done_at = by_id[request.id]
            due = base + request.arrival
            last = max(last, done_at)
            if response.code in SHED_CODES:
                shed += 1
            if response.code in REJECTED_CODES:
                refused += 1
            retries += response.retries
            answered += response.ok
            ok = response.ok and response.engine == engine
            if ok and cls == "sampled":
                ok = abs(response.value - reference) <= SAMPLED_EPSILON
            elif ok:
                check(
                    response.value == reference,
                    f"serve: {cls} answer differs from the reference",
                )
            outcomes.append(Outcome(cls, done_at - due, ok))
            lateness.append(done_at - response.elapsed - due)
            if response.ok:
                queued.append(response.queued)
                service.append(response.elapsed - response.queued)
        return {
            "outcomes": outcomes,
            "elapsed": last - base,
            "lateness": lateness,
            "queued": queued,
            "service": service,
            "shed": shed,
            "refused": refused,
            "retries": retries,
            "answered": answered,
        }

    def timed(self, seconds: float):
        """The reference rate, as consecutive windows of ``SERVE_WINDOW``
        requests.  A window's timings are divided by its
        :func:`~perfbench.measure.steal_factor`: on a shared virtual
        machine the host holds the CPUs back for a share of the time
        that drifts over minutes, and the server's hand-offs between
        threads feel it where single-thread speed probes (``Clock``,
        as in the closed loops) do not."""
        windows = max(1, round(seconds * REFERENCE_RATE / SERVE_WINDOW))
        outcomes, correct, elapsed = [], 0, 0.0
        for window in range(windows):
            before = cpu_ticks(self.cpu)
            run = self.rung(
                REFERENCE_RATE, SERVE_WINDOW / REFERENCE_RATE,
                first=window * SERVE_WINDOW,
            )
            factor = steal_factor(before, cpu_ticks(self.cpu))
            outcomes += [
                Outcome(o.cls, o.latency / factor, o.ok) for o in run["outcomes"]
            ]
            correct += sum(o.ok for o in run["outcomes"])
            elapsed += run["elapsed"]
        summary = latency_summary(self.name, outcomes, SERVE_WINDOW)
        metrics = {
            "latency_p50_ms": summary["p50_ms"],
            "latency_tail_ms": summary["tail_ms"],
            "throughput_ops_s": correct / elapsed,
            "ok_share": correct / len(outcomes),
        }
        return metrics, summary, len(outcomes), len(outcomes) - correct

    def meets_limit(self, rate: float) -> bool:
        run = self.rung(rate, RUNG_SECONDS)
        outcomes = run["outcomes"]
        if run["answered"] < len(outcomes):
            return False
        latencies = [o.latency for o in outcomes]
        quarter = len(latencies) // 4
        growing = median(latencies[-quarter:]) > 2 * median(latencies[:quarter]) + 0.02
        return 1e3 * tail(latencies)["value"] <= TAIL_LIMIT_MS and not growing

    def max_rate(self) -> float:
        """The highest offered rate meeting the tail limit with no backlog
        growth: up the ladder to the first failing rate, then bisect."""
        low = 0.0
        high = None
        for rate in LADDER:
            if not self.meets_limit(rate):
                high = rate
                break
            low = rate
        if high is None:
            return low
        check(low > 0, f"serve: even {LADDER[0]} rps misses the tail limit")
        for _ in range(BISECTIONS):
            middle = (low + high) / 2
            if self.meets_limit(middle):
                low = middle
            else:
                high = middle
        return low

    def traced(self, seconds: float) -> Dict[str, float]:
        """The reference rate untraced and then traced, on the same
        script; then the search for ``max_rate_rps``, whose number of
        runs depends on the machine, so it comes last."""
        plain = self.rung(REFERENCE_RATE, seconds)
        recorder = obs.StatsRecorder()
        tp = TracedPass(DrawLog())
        tp.spans.request = "reference-rate"
        index = tp.spans.open("serve.run")
        traced = self.rung(REFERENCE_RATE, seconds, recorder)
        tp.spans.close(index)
        out: Dict[str, float] = {"max_rate_rps": self.max_rate()}
        counts = Counts()
        counts.add({}, recorder.summary()["counters"])
        total = len(traced["outcomes"])
        out.update(
            {
                "serve.queue_wait_p50_ms": 1e3 * median(traced["queued"]),
                "serve.queue_wait_tail_ms": 1e3 * tail(traced["queued"])["value"],
                "serve.service_ms": 1e3 * median(traced["service"]),
                "serve.shed_share": traced["shed"] / total,
                "serve.refused_share": traced["refused"] / total,
                "serve.retries_per_request": traced["retries"] / total,
                "serve.generator_lateness_ms": 1e3 * median(traced["lateness"]),
                "obs.traced_overhead_share": 1.0
                - sum(plain["service"]) / sum(traced["service"]),
            }
        )
        # The layers, called directly on each query of the mix.
        for cls, choices in self.mix.items():
            for i, (text, _reference, engine) in enumerate(choices):
                read = Read(cls, self.db, text, 0, i, "none", engine,
                            epsilon=SAMPLED_EPSILON)
                tp.read(read, f"{cls}.{i}")
        self.spans = tp.spans
        layers = tp.metrics()
        layers.pop("obs.traced_overhead_share")
        out.update(layers)
        out.update(counter_layers(counts))
        return out
