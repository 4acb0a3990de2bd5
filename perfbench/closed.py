"""The two closed-loop workloads: ``exact_rw`` and ``sampled_read``.

One client issues the next request only when the previous one has
answered.  Requests are issued round-robin over a fixed pattern of
request classes, so drift on the machine hits every class alike, and a
timed run always stops at the end of a whole pattern so class shares
are exact.  The traced run issues a fixed number of patterns instead,
so the program's counters repeat exactly for a seed.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import Budget, FOQuery, obs
from repro.delta.session import DeltaSession
from repro.kernels.cache import clear_caches
from repro.logic.conjunctive import ConjunctiveQuery
from repro.logic.safety import classify_dichotomy
from repro.reliability.approx import existential_probability
from repro.reliability.exact import truth_probability
from repro.reliability.grounding import ground_existential_to_dnf
from repro.reliability.lifted import lifted_probability
from repro.reliability.montecarlo import (
    estimate_truth_probability,
    hoeffding_samples,
)
from repro.runtime import adaptive
from repro.runtime.costmodel import plan_chain
from repro.runtime.executor import run_with_fallback

from perfbench import inputs
from perfbench.measure import (
    Clock,
    Counts,
    Outcome,
    Spans,
    check,
    check_percentiles,
    latency_summary,
    median,
)

ENGINE_KIND = {
    "safe_lifted": "safe",
    "exact": "exact",
    "karp_luby": "sampled",
    "montecarlo": "sampled",
}


def pattern_loop(
    pattern: Sequence[str],
    seconds: float,
    issue: Callable[[str], Outcome],
    clock: Optional[Clock],
) -> Tuple[List[Outcome], List[float]]:
    """Issue whole patterns until ``seconds`` have passed, probing the
    machine's speed after each when there is a ``clock``; returns the
    outcomes and each pattern's seconds."""
    outcomes: List[Outcome] = []
    busy: List[float] = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        began = time.perf_counter()
        for cls in pattern:
            outcomes.append(issue(cls))
        busy.append(time.perf_counter() - began)
        if clock is not None:
            clock.probe(busy[-1])
    return outcomes, busy


class RoundRobin:
    """Per class, the next item of that class's list, cyclically."""

    def __init__(self, items: Dict[str, Sequence]):
        self._items = items
        self._next = {cls: 0 for cls in items}

    def take(self, cls: str):
        items = self._items[cls]
        index = self._next[cls]
        self._next[cls] = index + 1
        return items[index % len(items)]


def closed_metrics(
    label: str,
    outcomes: List[Outcome],
    pattern: Sequence[str],
    busy: List[float],
    window: Optional[int],
    clock: Optional[Clock],
) -> Tuple[Dict[str, float], Dict]:
    """End-to-end metrics of a closed loop.

    ``outcomes`` come pattern by pattern and may leave some classes
    out of the latency; throughput counts every request of a pattern.
    With a ``clock`` each pattern's timings are divided by its speed
    factor.  p50, tail and throughput are medians over the same
    windows of patterns.
    """
    per_pattern = len(outcomes) // len(busy)
    factors = clock.factors(busy) if clock else [1.0] * len(busy)
    scaled = [
        Outcome(o.cls, o.latency / factors[i // per_pattern], o.ok, o.work)
        for i, o in enumerate(outcomes)
    ]
    summary = latency_summary(label, scaled, window)
    span = (window or len(outcomes)) // per_pattern
    rates = [
        len(pattern) * span
        / sum(b / f for b, f in zip(busy[first:first + span], factors[first:first + span]))
        for first in range(0, len(busy) - span + 1, span)
    ]
    ok = sum(1 for o in outcomes if o.ok)
    return {
        "latency_p50_ms": summary["p50_ms"],
        "latency_tail_ms": summary["tail_ms"],
        "throughput_ops_s": median(rates),
        "ok_share": ok / len(outcomes),
    }, summary


def layer_medians(spans: Spans, scale: Dict[str, Tuple[str, float]]):
    """Median self time of each named span, in the metric's unit."""
    self_times = spans.self_times()
    return {
        metric: factor * median(self_times[name]) if self_times.get(name) else 0.0
        for metric, (name, factor) in scale.items()
    }


IN_PROCESS_LAYERS = {
    "logic.parse_us": ("logic.parse", 1e6),
    "logic.classify_us": ("logic.classify", 1e6),
    "runtime.plan_ms": ("runtime.plan", 1e3),
    "reliability.lifted_ms": ("engine.safe_lifted", 1e3),
    "reliability.exact_ms": ("engine.exact", 1e3),
    "reliability.grounding_ms": ("reliability.grounding", 1e3),
}


def counter_layers(counts: Counts) -> Dict[str, float]:
    """Per-layer ratios and totals from the program's own counters."""
    hits, misses = counts.get("kernels.cache.hits"), counts.get("kernels.cache.misses")
    drawn = counts.get("adaptive.samples_drawn")
    saved = counts.get("adaptive.samples_saved")
    completed = counts.get("runtime.completed")
    return {
        "runtime.attempts_per_answer": (
            counts.get("runtime.attempts") / completed if completed else 0.0
        ),
        "kernels.cache.hit_share": hits / (hits + misses) if hits + misses else 0.0,
        "adaptive.drawn_share": drawn / (drawn + saved) if drawn + saved else 0.0,
        "counts.samples": counts.get("karp_luby.samples")
        + counts.get("montecarlo.samples"),
        "counts.attempts": counts.get("runtime.attempts"),
        "counts.cache_hits": hits,
        "counts.cache_misses": misses,
        "counts.grounding_clauses": counts.get("grounding.clauses_kept"),
        "counts.nodes_reevaluated": counts.get("delta.nodes_reevaluated"),
    }


# ---------------------------------------------------------------------- #
# in-process reads (exact_rw, sampled_read)
# ---------------------------------------------------------------------- #


@dataclass
class Read:
    cls: str
    db: object
    text: str
    reference: Fraction
    seed: int
    guarantee: str  # "exact", "relative" or "additive"
    engine: str  # the engine expected to answer
    epsilon: float = 0.05
    delta: float = 0.05
    max_atoms: Optional[int] = None
    work: Optional[int] = None
    cold: bool = False  # every request misses the compilation cache

    def budget(self) -> Optional[Budget]:
        if self.max_atoms is None:
            return None
        return Budget(max_atoms=self.max_atoms)

    def run(self):
        return run_with_fallback(
            self.db,
            self.text,
            quantity="probability",
            epsilon=self.epsilon,
            delta=self.delta,
            rng=self.seed,
            budget=self.budget(),
            adaptive=True,
        )

    def correct(self, result) -> bool:
        if result.engine != self.engine:
            return False
        if self.guarantee == "exact":
            return result.fraction == self.reference
        error = abs(result.value - float(self.reference))
        if self.guarantee == "relative":
            return error <= self.epsilon * float(self.reference)
        return error <= self.epsilon


def check_misses(reads: Sequence[Read], outcomes: Sequence[Outcome]) -> None:
    """Exact answers never miss; sampled ones may, at rate ``delta``.

    Fails when sampled misses exceed what a binomial with that rate
    reaches with probability above one in a million.
    """
    sampled = [(r, o) for r, o in zip(reads, outcomes) if r.guarantee != "exact"]
    for read, outcome in zip(reads, outcomes):
        check(
            outcome.ok or read.guarantee != "exact",
            f"{read.cls}: exact answer differs from the reference",
        )
    misses = sum(1 for _, o in sampled if not o.ok)
    if not misses:
        return
    rate = max(r.delta for r, _ in sampled)
    n = len(sampled)
    # In log space: comb(n, k) overflows a float for n past about 1000.
    beyond = sum(
        math.exp(
            math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            + k * math.log(rate) + (n - k) * math.log1p(-rate)
        )
        for k in range(misses, n + 1)
    )
    check(beyond > 1e-6, f"{misses} sampled misses of {n} exceed delta={rate}")


def direct_engine(read: Read, engine: str):
    """The answering engine called directly, with the executor's rng."""
    base = random.Random(read.seed).getrandbits(64)
    rng = random.Random(f"{base:x}:attempt:{engine}")
    query = FOQuery(read.text)
    if engine == "safe_lifted":
        return lifted_probability(
            read.db, ConjunctiveQuery.from_formula(query.formula)
        )
    if engine == "exact":
        return truth_probability(read.db, query)
    if engine == "karp_luby":
        return existential_probability(
            read.db, query, read.epsilon, read.delta, rng, adaptive=True
        )
    return estimate_truth_probability(
        read.db, query, rng, epsilon=read.epsilon, delta=read.delta,
        adaptive=True,
    )


class DrawLog(adaptive.CostSurrogate):
    """The active surrogate, also keeping each adaptive run's draws."""

    def __init__(self):
        super().__init__()
        self.drawn: List[int] = []

    def observe(self, kind: str, drawn: int, worst: int) -> None:
        self.drawn.append(drawn)
        super().observe(kind, drawn, worst)


def timed_read(read: Read, log: DrawLog) -> Outcome:
    """One request; its outcome's class names the query as well, since
    two queries of one class can cost differently."""
    if read.cold:
        clear_caches()
    mark = len(log.drawn)
    start = time.perf_counter()
    result = read.run()
    latency = time.perf_counter() - start
    if read.guarantee == "exact":
        work = read.work
    elif len(log.drawn) > mark:
        work = sum(log.drawn[mark:])
    else:  # fixed-budget Monte-Carlo draws its Hoeffding count
        work = hoeffding_samples(read.epsilon, read.delta)
    return Outcome(f"{read.cls}:{read.text}", latency, read.correct(result), work)


class TracedPass:
    """Per-layer measurement of in-process reads (the ``--trace 1`` run).

    Each read runs untraced and then traced on the same cache state,
    which gives the tracing overhead; then the benchmark calls each
    layer directly inside its own spans, again on that cache state.
    """

    def __init__(self, log: DrawLog):
        self.log = log
        self.spans = Spans()
        self.recorder = obs.StatsRecorder()
        self.counts = Counts()
        self.untraced = 0.0
        self.traced = 0.0
        self.run_by_kind: Dict[str, List[float]] = {}
        self.engine_time = 0.0
        self.run_time = 0.0
        self.sampling_time = 0.0

    def read(self, read: Read, rid: str) -> None:
        def fresh():
            if read.cold:
                clear_caches()

        spans = self.spans
        spans.request = rid
        root = spans.open("request")
        query = spans.call("logic.parse", FOQuery, read.text)
        spans.call("logic.classify", classify_dichotomy, query)
        fresh()
        spans.call(
            "runtime.plan", plan_chain, read.db, query,
            budget=read.budget(), quantity="probability",
            epsilon=read.epsilon, delta=read.delta, adaptive=True,
        )
        fresh()
        mark = len(self.log.drawn)
        start = time.perf_counter()
        read.run()
        self.untraced += time.perf_counter() - start
        untraced_draws = self.log.drawn[mark:]
        fresh()
        mark = len(self.log.drawn)
        with obs.use(self.recorder):
            before = self.recorder.summary()["counters"]
            index = spans.open("runtime.run")
            result = read.run()
            elapsed = spans.close(index)
            self.counts.add(before, self.recorder.summary()["counters"])
        self.traced += elapsed
        check(
            self.log.drawn[mark:] == untraced_draws,
            f"{read.cls}: samples drawn differ between two runs of one seed",
        )
        check(read.correct(result) or read.guarantee != "exact",
              f"{read.cls}: traced answer differs from the reference")
        kind = ENGINE_KIND[result.engine]
        self.run_by_kind.setdefault(kind, []).append(elapsed)
        fresh()
        index = spans.open(f"engine.{result.engine}")
        direct_engine(read, result.engine)
        direct = spans.close(index)
        self.engine_time += direct
        self.run_time += elapsed
        if kind == "sampled":
            self.sampling_time += direct
        if read.text in inputs.UNSAFE:
            fresh()
            spans.call(
                "reliability.grounding", ground_existential_to_dnf,
                read.db, query.formula,
            )
        spans.close(root)

    def metrics(self) -> Dict[str, float]:
        out = layer_medians(self.spans, IN_PROCESS_LAYERS)
        for kind in ("safe", "exact", "sampled"):
            runs = self.run_by_kind.get(kind)
            out[f"runtime.run_ms.{kind}"] = 1e3 * median(runs) if runs else 0.0
        out["runtime.overhead_share"] = (
            1.0 - self.engine_time / self.run_time if self.run_time else 0.0
        )
        out["obs.traced_overhead_share"] = (
            1.0 - self.untraced / self.traced if self.traced else 0.0
        )
        out.update(counter_layers(self.counts))
        samples = out["counts.samples"]
        out["kernels.ns_per_sample"] = (
            1e9 * self.sampling_time / samples if samples else 0.0
        )
        return out


# ---------------------------------------------------------------------- #
# exact_rw
# ---------------------------------------------------------------------- #

#: A synthetic mix, 6 exact : 2 safe : 2 write, chosen only so that the
#: p50 and the tail each land inside one class of reads, clear of the
#: class boundaries (writes are timed apart, see ``traced``).
EXACT_RW_PATTERN = (
    "exact", "safe", "exact", "write", "exact",
    "exact", "safe", "exact", "write", "exact",
)
#: Reads per latency window: 25 patterns, so a window's tail is p95.
EXACT_RW_WINDOW = 200
#: (universe size, edges) of the read and the write databases.
READ_SHAPE = (5, 8)
READ_DATABASES = 8
WRITE_SHAPE = (5, 8)
#: Write atoms must re-evaluate at least this share of the most
#: expensive write of their diagram, which keeps writes in one mode.
DEEP_WRITE_SHARE = 0.6


@dataclass
class Write:
    session: int
    atom: object
    value: Fraction
    nodes: int  # nodes the probe write re-evaluated


def write_plan(rng: random.Random, query: FOQuery):
    """Two delta sessions and a cyclic write plan over their deep atoms.

    A probe session writes every diagram atom once under a recorder to
    count re-evaluated nodes; atoms that re-evaluate nothing, or far
    less than the deepest write, are left out.  Each planned write
    alternates its atom between two errors, so it always changes it.
    """
    sessions, plans = [], []
    # Write shapes start past the read shapes, so no structure repeats.
    for shape in range(100, 140):
        if len(sessions) == 2:
            break
        db = inputs.build_db(rng, *WRITE_SHAPE, shape)
        probe = DeltaSession(db, query)
        recorder = obs.StatsRecorder()
        nodes = {}
        variables = sorted(ground_existential_to_dnf(db, query.formula).dnf.variables)
        with obs.use(recorder):
            for atom in variables:
                before = recorder.summary()["counters"]
                probe.set_mu(atom, db.mu(atom) + Fraction(1, 50))
                probe.probability()
                after = recorder.summary()["counters"]
                nodes[atom] = after.get("delta.nodes_reevaluated", 0) - before.get(
                    "delta.nodes_reevaluated", 0
                )
        deepest = max(nodes.values())
        deep = [a for a in variables if nodes[a] >= DEEP_WRITE_SHARE * deepest]
        if deepest == 0 or len(deep) < 4:
            continue
        index = len(sessions)
        sessions.append(db)
        plans.append(
            [
                (Write(index, a, db.mu(a) + Fraction(1, 50), nodes[a]),
                 Write(index, a, db.mu(a), nodes[a]))
                for a in deep
            ]
        )
    check(len(sessions) == 2, "no database gave a diagram with deep writes")
    # Interleave the two sessions; each atom's two values alternate by
    # cycle so every write changes the atom's error.
    writes = []
    for cycle in range(2):
        for pair in zip(*plans):
            for first, second in pair:
                writes.append(first if cycle == 0 else second)
    return sessions, writes


class Writer:
    """Applies the write plan, in order, to its own delta sessions.

    It also keeps each session's errors as written, apart from the
    session, so that checks can rebuild the database independently.
    """

    def __init__(self, dbs, query: FOQuery, plan: List[Write]):
        self.sessions = [DeltaSession(db, query) for db in dbs]
        self.errors: List[Dict] = [{} for _ in dbs]
        self.plan = plan
        self.done = 0

    def step(self) -> Tuple[Write, Fraction]:
        write = self.plan[self.done % len(self.plan)]
        self.done += 1
        session = self.sessions[write.session]
        session.set_mu(write.atom, write.value)
        self.errors[write.session][write.atom] = write.value
        return write, session.probability()

    def at_checkpoint(self) -> bool:
        """At every quarter of the plan: after one quarter half of each
        session's deep atoms have changed, after two all of them."""
        return self.done % (len(self.plan) // 4) == 0

    def state(self) -> List[Tuple[int, Dict, Fraction]]:
        """Per session: its index, its errors as written, its answer."""
        return [
            (i, dict(errors), session.probability())
            for i, (errors, session) in enumerate(zip(self.errors, self.sessions))
        ]


def check_delta(dbs, query: FOQuery, originals, states) -> None:
    """Each delta answer equals a cold DNF recompute on the database its
    writes describe, and some answer differs from its session's
    original one, so a session whose answer never moved cannot pass."""
    check(states, "exact_rw: no delta checkpoint was reached")
    for index, errors, value in states:
        db = dbs[index].with_errors(errors)
        check(
            truth_probability(db, query, method="dnf") == value,
            "delta answer differs from a cold recompute",
        )
    check(
        any(value != originals[index] for index, _, value in states),
        "exact_rw: no checked delta answer moved from its original value",
    )


class ExactRw:
    name = "exact_rw"
    pattern = EXACT_RW_PATTERN

    def setup(self, seed: int) -> None:
        rng = random.Random(f"exact_rw:{seed}")
        seeds = iter(inputs.derived_seeds(rng, 64))
        reads: Dict[str, List[Read]] = {"safe": [], "exact": []}
        self.dbs = [inputs.build_db(rng, *READ_SHAPE, shape) for shape in range(READ_DATABASES)]
        for db in self.dbs:
            for text in inputs.SAFE:
                reads["safe"].append(
                    Read("safe", db, text, inputs.dnf_reference(db, text),
                         next(seeds), "exact", "safe_lifted")
                )
            for text in inputs.UNSAFE:
                read = Read("exact", db, text, inputs.bdd_reference(db, text),
                            next(seeds), "exact", "exact")
                # The exact engine's work: nodes of its Shannon expansion.
                recorder = obs.StatsRecorder()
                with obs.use(recorder):
                    read.run()
                read.work = recorder.summary()["counters"]["shannon.nodes"]
                reads["exact"].append(read)
        self.reads = reads
        self.query = FOQuery(inputs.UNSAFE[0])
        self.write_dbs, self.plan = write_plan(rng, self.query)
        self.write_originals = [
            truth_probability(db, self.query, method="dnf") for db in self.write_dbs
        ]
        # Fill the compilation cache: every (db, query) pair fits in it.
        for read in reads["safe"] + reads["exact"]:
            check(read.correct(read.run()), f"{read.cls}: warm-up answer is wrong")

    def databases(self):
        return self.dbs + self.write_dbs

    def timed(self, seconds: float):
        rr = RoundRobin(self.reads)
        log = DrawLog()
        writer = Writer(self.write_dbs, self.query, self.plan)
        checkpoints = []

        def issue(cls: str) -> Outcome:
            if cls != "write":
                return timed_read(rr.take(cls), log)
            start = time.perf_counter()
            write, _ = writer.step()
            latency = time.perf_counter() - start
            if writer.at_checkpoint():
                checkpoints.append(writer.state())
            return Outcome("write", latency, True, write.nodes)

        clock = Clock()
        with adaptive.use_surrogate(log):
            outcomes, busy = pattern_loop(self.pattern, seconds, issue, clock)
        # The last whole plan: both sessions at four quarter marks.
        check_delta(
            self.write_dbs, self.query, self.write_originals,
            [state for states in checkpoints[-4:] for state in states],
        )
        reads = [o for o in outcomes if o.cls != "write"]
        check(all(o.ok for o in reads), "exact_rw: a read answer is wrong")
        metrics, summary = closed_metrics(
            self.name, reads, self.pattern, busy, EXACT_RW_WINDOW, clock
        )
        metrics["ok_share"] = sum(o.ok for o in outcomes) / len(outcomes)
        return metrics, summary, len(outcomes), 0

    def traced(self, patterns: int) -> Dict[str, float]:
        """Reads as in :class:`TracedPass`; each planned write runs on
        two identical session sets, untraced on one and traced on the
        other, so both do the same work."""
        rr = RoundRobin(self.reads)
        log = DrawLog()
        tp = TracedPass(log)
        plain = Writer(self.write_dbs, self.query, self.plan)
        traced = Writer(self.write_dbs, self.query, self.plan)
        write_nodes, write_times, plain_writes, checkpoints = [], [], [], []
        with adaptive.use_surrogate(log):
            for p in range(patterns):
                for i, cls in enumerate(self.pattern):
                    rid = f"{p}.{i}"
                    if cls != "write":
                        tp.read(rr.take(cls), rid)
                        continue
                    start = time.perf_counter()
                    write, plain_value = plain.step()
                    latency = time.perf_counter() - start
                    tp.untraced += latency
                    tp.spans.request = rid
                    with obs.use(tp.recorder):
                        before = tp.recorder.summary()["counters"]
                        index = tp.spans.open("delta.write")
                        _, value = traced.step()
                        elapsed = tp.spans.close(index)
                        delta = tp.counts.add(
                            before, tp.recorder.summary()["counters"]
                        )
                    tp.traced += elapsed
                    check(value == plain_value, "delta writes disagree")
                    if traced.at_checkpoint():
                        checkpoints.append(traced.state())
                    nodes = delta.get("delta.nodes_reevaluated", 0)
                    check(nodes > 0, "a delta write re-evaluated no node")
                    write_nodes.append(nodes)
                    write_times.append(elapsed)
                    plain_writes.append(Outcome("write", latency, True, nodes))
        check_delta(
            self.write_dbs, self.query, self.write_originals,
            [state for states in checkpoints[-4:] + [traced.state()]
             for state in states],
        )
        self.spans = tp.spans
        out = tp.metrics()
        latencies = [o.latency for o in plain_writes]
        check_percentiles("exact_rw writes", plain_writes, (50.0,))
        out["write_latency_p50_ms"] = 1e3 * median(latencies)
        clear_caches()
        compile_times = []
        for db in self.write_dbs:
            start = time.perf_counter()
            DeltaSession(db, self.query)
            compile_times.append(time.perf_counter() - start)
        out["delta.compile_ms"] = 1e3 * median(compile_times)
        out["delta.nodes_per_write"] = sum(write_nodes) / len(write_nodes)
        out["delta.ns_per_node"] = 1e9 * sum(write_times) / sum(write_nodes)
        return out


# ---------------------------------------------------------------------- #
# sampled_read
# ---------------------------------------------------------------------- #

#: A synthetic mix, 3 + 3 Karp–Luby (two queries) : 2 Monte-Carlo,
#: chosen only so that the p50 and the tail land clear of the class
#: and work-mode boundaries.
SAMPLED_PATTERN = ("kl_h0", "kl_sj", "kl_h0", "mc", "kl_sj", "kl_h0", "kl_sj", "mc")
#: Requests per latency window: 10 patterns, so a window's tail is p87.5.
SAMPLED_WINDOW = 80
#: Every sampled request's database exceeds this world-enumeration cap.
SAMPLED_MAX_ATOMS = 8
KL_EPSILON = 0.15
MC_EPSILON = 0.1
#: (universe size, edges) of the Karp–Luby and Monte-Carlo databases.
KL_SHAPE = (7, 20)
MC_SHAPE = (4, 4)
#: Bases per Karp–Luby class, and how many classes' worth of perturbed
#: copies to prepare per second of run (well above the request rate).
KL_BASES = 6
MC_BASES = 3
MAX_REQUESTS_PER_S = 80
#: The adaptive stopping rule must clear its threshold at the stopping
#: check, and miss it at the check before, by this factor.  Then every
#: perturbed copy and seed stops at the same check: one work mode.
STOP_MARGIN = 1.08
#: The check every Karp–Luby request stops at: the one work mode.
KL_STOP_SAMPLES = 4096
#: Error draws tried per shape before moving to the next shape.
KL_DRAWS = 4


def stop_ratios(read: Read) -> Tuple[str, List[Tuple[int, float]]]:
    """Run ``read`` once with events on; per adaptive check, the ratio of
    the confidence half-width to what the relative stopping rule needs."""
    sink = obs.ListSink()
    with obs.use(obs.StatsRecorder(sink=sink)):
        result = read.run()
    ratios = []
    for event in sink.by_name("adaptive.batch"):
        fields = event["fields"]
        lower = fields["estimate"] - fields["half_width"]
        ratio = (
            fields["half_width"] / (read.epsilon * lower)
            if lower > 0
            else math.inf
        )
        ratios.append((fields["samples"], ratio))
    return result.engine, ratios


def kl_bases(rng: random.Random, cls: str, text: str, copies: int, seeds):
    """Bases whose Karp–Luby runs stop clear of the check grid's edges.

    Base ``i`` takes shape ``i`` of the family and redraws its errors
    until the first and the last perturbed copy both stop at the check
    after ``KL_STOP_SAMPLES`` samples with ``STOP_MARGIN`` to spare on
    either side; a shape that never does gives way to a later one.
    """
    bases = []
    shapes = iter(range(1 << 10))
    while len(bases) < KL_BASES:
        shape = next(shapes)
        for _draw in range(KL_DRAWS):
            db = inputs.build_db(rng, *KL_SHAPE, shape)
            atom = db.uncertain_atoms()[0]
            variants = inputs.perturbed(db, atom, copies)
            stops = {
                stop_check(cls, text, copy, next(seeds))
                for copy, _nu in (variants[0], variants[-1])
            }
            if stops == {KL_STOP_SAMPLES}:
                bases.append((db, atom, variants))
                break
        check(shape < 8 * KL_BASES, f"{cls}: no database stops clear of the check grid")
    return bases


def stop_check(cls: str, text: str, db, seed: int) -> Optional[int]:
    """The samples drawn at the stopping check, or ``None`` when the
    run stops within ``STOP_MARGIN`` of either side of a check."""
    read = Read(cls, db, text, Fraction(0), seed, "relative", "karp_luby",
                epsilon=KL_EPSILON, max_atoms=SAMPLED_MAX_ATOMS)
    engine, ratios = stop_ratios(read)
    if (
        engine == "karp_luby"
        and len(ratios) >= 2
        and ratios[-1][1] * STOP_MARGIN <= 1.0
        and ratios[-2][1] >= STOP_MARGIN
    ):
        return ratios[-1][0]
    return None


class SampledRead:
    name = "sampled_read"
    pattern = SAMPLED_PATTERN

    def setup(self, seed: int, seconds: float) -> None:
        rng = random.Random(f"sampled_read:{seed}")
        seeds = iter(inputs.derived_seeds(rng, 1 << 16))
        slots = {cls: self.pattern.count(cls) for cls in set(self.pattern)}
        requests = math.ceil(seconds * MAX_REQUESTS_PER_S)
        reads: Dict[str, List[Read]] = {}
        for cls, text in (("kl_h0", inputs.UNSAFE[0]), ("kl_sj", inputs.UNSAFE[1])):
            per_base = math.ceil(
                requests * slots[cls] / len(self.pattern) / KL_BASES
            )
            columns = []
            for db, atom, variants in kl_bases(rng, cls, text, per_base, seeds):
                high, low = inputs.affine_reference(db, text, atom)
                columns.append(
                    [
                        Read(cls, copy, text, nu * high + (1 - nu) * low,
                             next(seeds), "relative", "karp_luby",
                             epsilon=KL_EPSILON, max_atoms=SAMPLED_MAX_ATOMS,
                             cold=True)
                        for copy, nu in variants
                    ]
                )
            # Round-robin over bases: base 0's first copy, base 1's ...
            reads[cls] = [read for row in zip(*columns) for read in row]
        per_base = math.ceil(requests * slots["mc"] / len(self.pattern) / MC_BASES)
        columns = []
        for shape in range(MC_BASES):
            db = inputs.build_db(rng, *MC_SHAPE, shape, f_atoms=True)
            atom = next(a for a in db.uncertain_atoms() if a.relation == "F")
            columns.append(
                [
                    Read("mc", copy, inputs.FO, inputs.fo_reference(copy),
                         next(seeds), "additive", "montecarlo",
                         epsilon=MC_EPSILON, max_atoms=SAMPLED_MAX_ATOMS,
                         cold=True)
                    for copy, _nu in inputs.perturbed(db, atom, per_base)
                ]
            )
        reads["mc"] = [read for row in zip(*columns) for read in row]
        self.reads = reads
        clear_caches()

    def _issue(self, log: DrawLog, issued: List[Read]):
        rr = RoundRobin(self.reads)

        def issue(cls: str) -> Outcome:
            read = rr.take(cls)
            issued.append(read)
            return timed_read(read, log)

        return issue

    def timed(self, seconds: float):
        log = DrawLog()
        issued: List[Read] = []
        clock = Clock()
        with adaptive.use_surrogate(log):
            outcomes, busy = pattern_loop(
                self.pattern, seconds, self._issue(log, issued), clock
            )
        for cls, reads in self.reads.items():
            check(
                sum(read.cls == cls for read in issued) <= len(reads),
                "sampled_read: ran out of distinct requests; raise MAX_REQUESTS_PER_S",
            )
        check_misses(issued, outcomes)
        metrics, summary = closed_metrics(
            self.name, outcomes, self.pattern, busy, SAMPLED_WINDOW, clock
        )
        return metrics, summary, len(outcomes), sum(not o.ok for o in outcomes)

    def traced(self, patterns: int) -> Dict[str, float]:
        log = DrawLog()
        tp = TracedPass(log)
        rr = RoundRobin(self.reads)
        with adaptive.use_surrogate(log):
            for p in range(patterns):
                for i, cls in enumerate(self.pattern):
                    tp.read(rr.take(cls), f"{p}.{i}")
        self.spans = tp.spans
        return tp.metrics()

    def databases(self):
        return [reads[0].db for reads in self.reads.values()]
