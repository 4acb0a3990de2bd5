"""Benchmark of the query-reliability engine, end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload exact_rw --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with the program's
tracing off; ``--trace 1`` is a separate run with ``repro.obs``
recording on and the benchmark's own spans around each layer call, and
reports the per-layer metrics.  The last line of standard output is one
JSON object; the lines before it are the same metrics for a reader.
Any wrong answer, or any steadiness check that fails, ends the run with
a non-zero exit code and no result line.

Workloads (times in ms or s, rates in 1/s, shares in [0, 1]).  Their
request mixes and the serving rate are synthetic: no recorded traffic
exists for this engine, so each mix was chosen only so that every
percentile lands inside one request class and one work mode, clear of
the boundaries between them (see ``measure.check_percentiles``).

``exact_rw``
    In-process closed loop: safe reads answered by ``safe_lifted``,
    small unsafe reads by ``exact``, on (db, query) pairs that stay in
    the compilation cache, and ``DeltaSession`` writes that change an
    atom deep in a diagram of hundreds of nodes.  Loads parsing,
    ``classify_dichotomy``, ``plan_chain``, the executor, lifted and
    exact inference and delta maintenance; bypasses the samplers.
``sampled_read``
    In-process closed loop, ``adaptive=True``: unsafe existential
    queries (Karp–Luby) and an alternating FO query (Monte-Carlo) on
    databases past the request's ``Budget(max_atoms=8)``, every request
    on a database of its own, so the compilation cache misses.  The
    sampling kernels and adaptive stopping take most of each request;
    planning is under 1%.
``serve_open``
    Open loop: scripted arrivals at 30 requests/s into one
    ``repro.serve.Server`` (2 workers, thread scheduler, two tenants;
    safe, exact and Monte-Carlo queries).  Latency runs from each
    request's due time, so queueing, admission and contention for the
    interpreter lock show; ``max_rate_rps`` (traced run) is the highest
    offered rate whose tail stays under 250 ms with no backlog growth.

Timings are divided by a speed factor from probes of a fixed
pure-Python task (``measure.spin``), so a slow spell on a shared
machine does not read as a slower program: the in-process closed loops
probe between request patterns.  ``serve_open`` runs on one CPU and
divides each window's timings by ``1 + stolen / busy`` ticks of that
CPU over the window (``measure.steal_factor``, from ``/proc/stat``):
speed probes did not track its thread hand-offs, the host's CPU steal
did.

Every workload's traced run also measures the start-up layers
(``cli.interpreter_ms``, ``cli.import_ms``) in fresh interpreters on
compiled bytecode, and ``relational.decode_ms`` on its own databases.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("exact_rw", "sampled_read", "serve_open")
#: What a fresh process imports before the workload's first request.
IMPORTS = {
    "exact_rw": "import repro, repro.delta.session, repro.runtime.executor",
    "sampled_read": "import repro, repro.runtime.executor, repro.runtime.adaptive",
    "serve_open": "import repro, repro.serve.scheduler",
}
#: Whole request patterns per second of ``--seconds`` in the traced
#: run, which issues a fixed count so its counters repeat for a seed.
TRACE_PATTERNS_PER_S = {
    "exact_rw": 3.0,
    "sampled_read": 0.6,
}
SETUP_REPEATS = 5
#: Each set-up's speed probes spin as often as ``Clock.probe`` does
#: after this many seconds of requests.
SETUP_PROBE_S = 1.0
PROBE_REPEATS = 5

END_TO_END = {
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_ops_s": "1/s",
    "ok_share": "share",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "relational.decode_ms": "ms",
    "logic.parse_us": "us",
    "logic.classify_us": "us",
    "runtime.plan_ms": "ms",
    "runtime.run_ms.safe": "ms",
    "runtime.run_ms.exact": "ms",
    "runtime.run_ms.sampled": "ms",
    "runtime.overhead_share": "share",
    "runtime.attempts_per_answer": "count",
    "reliability.lifted_ms": "ms",
    "reliability.exact_ms": "ms",
    "reliability.grounding_ms": "ms",
    "kernels.ns_per_sample": "ns",
    "kernels.cache.hit_share": "share",
    "adaptive.drawn_share": "share",
    "delta.compile_ms": "ms",
    "delta.nodes_per_write": "count",
    "delta.ns_per_node": "ns",
    "write_latency_p50_ms": "ms",
    "serve.queue_wait_p50_ms": "ms",
    "serve.queue_wait_tail_ms": "ms",
    "serve.service_ms": "ms",
    "serve.shed_share": "share",
    "serve.refused_share": "share",
    "serve.retries_per_request": "count",
    "serve.generator_lateness_ms": "ms",
    "max_rate_rps": "1/s",
    "obs.traced_overhead_share": "share",
    "counts.samples": "count",
    "counts.attempts": "count",
    "counts.cache_hits": "count",
    "counts.cache_misses": "count",
    "counts.grounding_clauses": "count",
    "counts.nodes_reevaluated": "count",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def make_workload(name: str):
    from perfbench import closed, serve_open

    if name == "exact_rw":
        return closed.ExactRw()
    if name == "sampled_read":
        return closed.SampledRead()
    return serve_open.ServeOpen()


def set_up(name: str, seed: int, seconds: float):
    """Set the workload up ``SETUP_REPEATS`` times; keep the last.

    One set-up is a fresh interpreter importing what the workload
    needs, plus this process generating inputs and reference answers
    from an empty compilation cache.  Each set-up's seconds are divided
    by the speed factor of probes just before and just after it, as
    request timings are (see ``measure.Clock``).  Returns the workload
    and the median set-up seconds.
    """
    from repro.kernels.cache import clear_caches
    from perfbench.measure import Clock, python_env, timed_child, check

    env = python_env(ROOT)
    clock = Clock()
    times = []
    workload = None
    for _ in range(SETUP_REPEATS):
        workload = make_workload(name)
        clock.probe(SETUP_PROBE_S)
        seconds_import, done = timed_child(["-c", IMPORTS[name]], env, ROOT)
        check(done.returncode == 0, f"import failed: {done.stderr.strip()}")
        clear_caches()
        start = time.perf_counter()
        if name == "sampled_read":
            workload.setup(seed, seconds)
        else:
            workload.setup(seed)
        seconds_setup = seconds_import + time.perf_counter() - start
        clock.probe(SETUP_PROBE_S)
        last = len(clock.probes)
        times.append(seconds_setup / clock.factor(last - 2, last))
    return workload, statistics.median(times)


def startup_probes() -> dict:
    """A bare interpreter start, and ``import repro.cli`` on top of it.

    Bytecode is compiled and the import warmed first, as on an installed
    system: without cached bytecode the import takes about 1.7 times as
    long.
    """
    from perfbench.measure import check, python_env, timed_child

    env = python_env(ROOT)
    _, done = timed_child(
        ["-m", "compileall", "-q", os.path.join(ROOT, "src", "repro")], env, ROOT
    )
    check(done.returncode == 0, f"compileall failed: {done.stderr.strip()}")
    timed_child(["-c", "import repro.cli"], env, ROOT)
    bare, cli = [], []
    for _ in range(PROBE_REPEATS):
        bare.append(timed_child(["-c", "pass"], env, ROOT)[0])
        cli.append(timed_child(["-c", "import repro.cli"], env, ROOT)[0])
    interpreter = statistics.median(bare)
    return {
        "cli.interpreter_ms": 1e3 * interpreter,
        "cli.import_ms": 1e3 * (statistics.median(cli) - interpreter),
    }


def decode_probe(workload) -> float:
    """Median ``decode_unreliable_database`` time over the workload's DBs."""
    from repro.relational.encoding import (
        decode_unreliable_database,
        encode_unreliable_database,
    )

    times = []
    for db in workload.databases():
        text = encode_unreliable_database(db)
        for _ in range(PROBE_REPEATS):
            start = time.perf_counter()
            decode_unreliable_database(text)
            times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def source_digest() -> str:
    """A digest of the program's and the benchmark's sources."""
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for folder, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(f for f in files if f.endswith(".py")):
                with open(os.path.join(folder, name), "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def check_counts(name: str, seed: int, patterns: int, metrics: dict) -> None:
    """Counts must repeat exactly between runs of one seed and size on
    the same sources; the first such run records them."""
    from perfbench.measure import check

    counts = {k: v for k, v in metrics.items() if PER_LAYER[k] == "count"}
    path = os.path.join(
        OUT, "counts", f"{name}-{seed}-{patterns}-{source_digest()}.json"
    )
    if os.path.exists(path):
        with open(path) as handle:
            previous = json.load(handle)
        changed = sorted(k for k in counts if previous.get(k) != counts[k])
        check(not changed, f"counts differ from an earlier run of seed {seed}: {changed}")
    else:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump(counts, handle, sort_keys=True)


def measure(args):
    """Set up, then run the workload; (metrics by name, attempted, failed)."""
    from perfbench.measure import check, peak_rss_mb

    workload, setup_s = set_up(args.workload, args.seed, args.seconds)
    if not args.trace:
        metrics, summary, attempted, failed = workload.timed(args.seconds)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = peak_rss_mb()
        print(
            f"# {args.workload}: p50 and tail (p{summary['tail_pct']:.1f}, "
            f"10 requests beyond it) are medians over {summary['windows']} "
            f"windows of {summary['window']} requests"
        )
        return (
            {name: (metrics[name], unit) for name, unit in END_TO_END.items()},
            attempted,
            failed,
        )
    if args.workload == "serve_open":
        patterns = round(args.seconds)
        layers = workload.traced(args.seconds / 2)
    else:
        patterns = max(2, round(args.seconds * TRACE_PATTERNS_PER_S[args.workload]))
        layers = workload.traced(patterns)
    workload.spans.write(
        os.path.join(OUT, "spans", f"{args.workload}-{args.seed}.jsonl")
    )
    layers.update(startup_probes())
    layers["relational.decode_ms"] = decode_probe(workload)
    unknown = sorted(set(layers) - set(PER_LAYER))
    check(not unknown, f"undeclared per-layer metrics: {unknown}")
    metrics = {name: layers.get(name, 0.0) for name in PER_LAYER}
    check_counts(args.workload, args.seed, patterns, metrics)
    traced = len({r["request"] for r in workload.spans.records})
    return (
        {name: (metrics[name], unit) for name, unit in PER_LAYER.items()},
        traced,
        0,
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: no src/repro next to the benchmark", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.measure import BenchError

    try:
        metrics, attempted, failed = measure(args)
    except BenchError as exc:
        print(f"perfbench: FAILED: {exc}", file=sys.stderr)
        return 1
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
