"""crdyn benchmark: one seeded workload of exact queries, timed end to end.

Run from the repository root:

    python3 perfbench/run.py --workload walk-search --seed 1 --seconds 25 --trace 0

A single client issues the workload's queries one after another (a closed
loop in one single-threaded process).  The seed's query list is a number of
rounds of the same mix; the run issues whole rounds, wrapping around the list
if it must, until --seconds have passed and at least 100 queries were issued.
With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics.  With --trace 1 the first rounds run untraced, traced (span wrappers
installed) and untraced again, and the JSON holds the per-layer metrics.
Outputs are checked outside the timed intervals: certificates for every seed,
and a golden file for the committed seed.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MIN_QUERIES = 100
# Every run issues at least this many rounds, and peak_rss_mb is read after
# them, so it covers the same work however many rounds the run gets through.
RSS_ROUNDS = 2
SETUP_REPEATS = 15
CHILD_TIMEOUT_S = 60


def _import_library():
    """Import crdyn from this checkout's src/, never from anywhere else."""
    if not (SRC / "crdyn" / "__init__.py").is_file():
        sys.exit(f"error: no crdyn package under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import crdyn

    if Path(crdyn.__file__).resolve().parent != (SRC / "crdyn").resolve():
        sys.exit(f"error: crdyn imported from {crdyn.__file__}, not from {SRC}")


def _parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--max-queries", type=int, default=None,
                   help="keep only the first N queries of the list (short self-test runs)")
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print 'ready' and exit (used to time set-up)")
    p.add_argument("--write-golden", action="store_true",
                   help="write the golden summaries for the committed seed")
    return p.parse_args(argv)


class Rounds:
    """The seed's query list, built one round at a time as the run reaches it.

    Only the latest round is held, so the inputs of other rounds count
    neither in memory nor in peak_rss_mb.  With --max-queries the list is
    one round, cut to its first N queries.
    """

    def __init__(self, args, docs, workloads):
        self._build = lambda r: workloads.build_round(args.workload, args.seed, r, docs)
        self._limit = args.max_queries
        self.count = 1 if args.max_queries is not None else workloads.ROUNDS[args.workload]
        self._index = self._queries = None

    def get(self, r: int) -> list:
        """Round r, wrapping around the list."""
        r %= self.count
        if r != self._index:
            self._index = self._queries = None  # drop the held round before building the next
            self._queries = self._build(r)[: self._limit]
            self._index = r
        return self._queries


def _setup(args):
    """Parse the workload's documents, draw its first round, run its warm-up."""
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    docs = workloads.load_documents(args.workload)
    rounds = Rounds(args, docs, workloads)
    rounds.get(0)
    for q in workloads.warmup_queries(args.workload, docs):
        workloads.run_query(q, docs)
    return docs, rounds


def _time_setups(args) -> list[float]:
    """Wall time from process start to ready, in fresh processes."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    if args.max_queries is not None:
        cmd += ["--max-queries", str(args.max_queries)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            try:
                if not select.select([proc.stdout], [], [], CHILD_TIMEOUT_S)[0]:
                    raise subprocess.TimeoutExpired(cmd, CHILD_TIMEOUT_S)
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                proc.communicate(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise
        if proc.returncode != 0 or line.strip() != "ready":
            sys.exit("error: set-up process failed")
        times.append(elapsed)
    return times


class Outcomes:
    """Summary and certificate evidence of each query's first result, and which
    queries gave another result later.

    Results are reduced and dropped as they arrive, so memory, and with it
    peak_rss_mb, does not grow with the number of rounds a run gets through.
    """

    def __init__(self, checks, workloads):
        self._checks = checks
        self._workloads = workloads
        self.summary: dict[str, object] = {}
        self.evidence: dict[str, object] = {}
        self.decided: dict[str, bool] = {}
        self.runs: dict[str, int] = {}
        self.unstable: set[str] = set()

    def record(self, q, result) -> None:
        if isinstance(result, Exception):
            summary, kept = ("raised", type(result).__name__, str(result)), result
        else:
            summary, kept = self._checks.summarize(q, result), None
        self.runs[q.qid] = self.runs.get(q.qid, 0) + 1
        if q.qid not in self.summary:
            self.summary[q.qid] = summary
            if kept is None:
                kept = self._checks.evidence(q, result)
                self.decided[q.qid] = self._workloads.decided(q, result)
            self.evidence[q.qid] = kept
        elif summary != self.summary[q.qid]:
            self.unstable.add(q.qid)


def _quiet_heap() -> None:
    """Collect garbage and move every live object out of the collector's view.

    Results and inputs the benchmark holds would otherwise make each later
    collection slower, so later rounds would pay for earlier ones.
    """
    gc.collect()
    gc.freeze()


def _run_pass(queries, docs, outcomes: Outcomes, latencies: list, workloads) -> float:
    """Run queries once, recording each latency; return the time spent inside queries."""
    spent = 0.0
    clock = time.perf_counter
    for q in queries:
        t0 = clock()
        try:
            result = workloads.run_query(q, docs)
        except Exception as exc:  # a crashing query is a failed query, not a crashed run
            result = exc
        dt = clock() - t0
        spent += dt
        latencies.append(dt)
        outcomes.record(q, result)
    return spent


def _check(queries, docs, outcomes: Outcomes, args, checks):
    """Return (failed executions, decided executions, messages)."""
    golden = None
    if args.seed == checks.GOLDEN_SEED and not args.write_golden:
        golden = checks.load_golden(args.workload)
    failed = decided = 0
    messages = []
    summaries = {}
    for q in queries:
        kept = outcomes.evidence[q.qid]
        runs = outcomes.runs[q.qid]
        if isinstance(kept, Exception):
            errors = [f"raised {type(kept).__name__}: {kept}"]
        else:
            errors = checks.certify(q, kept, docs)
            summary = summaries[q.qid] = outcomes.summary[q.qid]
            if golden is not None and golden.get(q.qid) != summary:
                errors.append(f"differs from golden: {summary} != {golden.get(q.qid)}")
            if q.qid in outcomes.unstable:
                errors.append("a repeated run gave another result")
        if errors:
            failed += runs
            messages.append(f"{q.qid} {q.label()}: {'; '.join(errors)}")
        elif outcomes.decided[q.qid]:
            decided += runs
    if args.write_golden:
        checks.write_golden(args.workload, summaries)
    return failed, decided, messages


def _quantile(values, fraction):
    """Harrell-Davis estimate of a quantile: a weighted mean of every order statistic.

    The weights are the Beta((n + 1) f, (n + 1) (1 - f)) probability of each
    1/n-wide interval.  Latencies of a mixed query list fall in clusters with
    gaps between them; a single order statistic jumps across a gap when a few
    queries change cluster from seed to seed, where this estimate moves little.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = fraction * (n + 1), (1 - fraction) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 8  # midpoint rule inside each interval
    weights = []
    for i in range(n):
        total = 0.0
        for k in range(steps):
            x = (i + (k + 0.5) / steps) / n
            total += math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
        weights.append(total)
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def _emit(correct, attempted, failed, metrics):
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main(argv=None) -> int:
    args = _parse_args(argv)
    os.chdir(ROOT)
    _import_library()
    import checks
    import workloads

    docs, rounds = _setup(args)
    if args.setup_only:
        print("ready", flush=True)
        return 0
    outcomes = Outcomes(checks, workloads)
    latencies: list[float] = []

    if args.write_golden:
        for r in range(rounds.count):
            _run_pass(rounds.get(r), docs, outcomes, [], workloads)
        queries = (q for r in range(rounds.count) for q in rounds.get(r))
        failed, _, messages = _check(queries, docs, outcomes, args, checks)
        print("\n".join(f"FAIL {line}" for line in messages) or "golden file written")
        return 1 if failed else 0
    if args.trace:
        traced_rounds = min(workloads.TRACE_ROUNDS[args.workload], rounds.count)
        queries = [q for r in range(traced_rounds) for q in rounds.get(r)]
        return _traced(args, docs, queries, outcomes, checks, workloads)

    done = 0
    start = time.perf_counter()
    while done < RSS_ROUNDS or len(latencies) < MIN_QUERIES or time.perf_counter() - start < args.seconds:
        queries = rounds.get(done)
        _quiet_heap()
        _run_pass(queries, docs, outcomes, latencies, workloads)
        del queries
        done += 1
        if done == RSS_ROUNDS:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = len(latencies)
    query_s = sum(latencies)
    queries = (q for r in range(min(done, rounds.count)) for q in rounds.get(r))
    setup_times = _time_setups(args)
    t0 = time.perf_counter()
    failed, decided, messages = _check(queries, docs, outcomes, args, checks)
    check_s = time.perf_counter() - t0

    metrics = {
        "throughput_qps": (attempted / query_s, "1/s"),
        "latency_p50_ms": (_quantile(latencies, 0.5) * 1e3, "ms"),
        "latency_p90_ms": (_quantile(latencies, 0.9) * 1e3, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "decided_frac": (decided / attempted, "ratio"),
    }
    print(f"# crdyn perfbench workload={args.workload} seed={args.seed} "
          f"rounds={done} queries={len(outcomes.summary)} attempted={attempted} "
          f"latency_samples={len(latencies)} "
          f"query_time_s={query_s:.3f} setup_samples={len(setup_times)} "
          f"check_s={check_s:.1f}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<16} {value:12.4f} {unit}")
    print(f"{'fail_frac':<16} {failed / attempted:12.4f} ratio")
    for line in messages:
        print(f"FAIL {line}")
    _emit(not messages, attempted, failed, metrics)
    return 0


def _traced(args, docs, queries, outcomes, checks, workloads) -> int:
    """Untraced, traced, untraced pass; per-layer metrics from the traced one."""
    import trace

    _quiet_heap()
    before = _run_pass(queries, docs, outcomes, [], workloads)
    tracer = trace.Tracer()
    tracer.install(extra_modules=(workloads, checks, sys.modules[__name__]))
    try:
        docs = workloads.load_documents(args.workload)  # traced document parsing
        first_query_span = len(tracer.spans)
        _quiet_heap()
        traced = _run_pass(queries, docs, outcomes, [], workloads)
    finally:
        tracer.uninstall()
    _quiet_heap()
    after = _run_pass(queries, docs, outcomes, [], workloads)
    untraced = (before + after) / 2
    failed, decided, messages = _check(queries, docs, outcomes, args, checks)

    relation_kinds = ("classify_all", "branch_summary_all")
    relations = sum(1 for q in queries if q.kind in relation_kinds
                    or (q.kind == "cli" and q.args[0] == "classify"))
    agg = trace.aggregate(tracer.spans)
    for name in workloads.ISOLATION[args.workload]:
        if agg["calls"][name]:
            messages.append(f"isolation: {args.workload} called {name} {agg['calls'][name]} times")
    metrics = trace.per_layer_metrics(agg, relations, traced, untraced)
    shares = trace.layer_shares(trace.aggregate(tracer.spans, first_query_span), int(traced * 1e9))
    path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    tracer.write(path)

    attempted = 3 * len(queries)
    print(f"# crdyn perfbench traced workload={args.workload} seed={args.seed} "
          f"queries={len(queries)} spans={len(tracer.spans)} untraced_s={untraced:.3f} "
          f"traced_s={traced:.3f} decided_frac={decided / attempted:.4f} "
          f"fail_frac={failed / attempted:.4f}")
    print(f"# spans written to {path.relative_to(ROOT)}")
    print("# self-time share of traced query time by layer (bounds the gain of "
          "speeding that layer alone):")
    for layer, share in shares.items():
        print(f"#   {layer:<26} {share:8.4f}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<58} {value:14.4f} {unit}")
    for line in messages:
        print(f"FAIL {line}")
    _emit(not messages, attempted, failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
