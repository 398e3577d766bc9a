"""bdsweyl benchmark: seeded CLI query streams, timed end to end or traced per layer.

    python3 bench/run.py --workload sr-facets --seed 3 --seconds 30 --trace 0

Run from anywhere; the program is imported from ../src relative to this file.

--trace 0   end-to-end metrics.  The stream runs again and again, each pass
            in a fresh process, until the next pass would end after
            `--seconds` (at least MIN_PASSES passes).  On a machine whose
            cores are shared, CPU speed jumps in bursts and drifts over
            minutes, so each pass also times a fixed reference loop between
            its queries (worker._reference), and its latencies are scaled to
            the reference speed by the mean of those timings.  Each query's
            latency is the mean of its scaled executions.  `setup_s`
            times fresh processes that import bdsweyl and build every root
            system the stream uses, in SETUP_ROUNDS rounds of
            SETUP_PROBES_PER_ROUND probes, one round before each of the first
            passes and one after the last.  Each probe is scaled by the
            reference timing it takes right after its set-up, and `setup_s`
            is the median of the scaled probes.
--trace 1   per-layer metrics.  The stream runs untraced, traced, untraced,
            traced (see probes.py); the counters of the two traced runs must
            agree exactly, and every answer must match the first run's.

The first pass's answers are checked after its timed region (see checks.py);
on the default seed they are also compared byte for byte, by SHA-256, with
goldens.json.  Every other execution must print the same bytes.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics;
attempted and failed count query executions.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from probes import DETERMINISTIC_KINDS, LAYERS  # noqa: E402

DEFAULT_SECONDS = 30.0  # the run_seconds of BENCHMARK.json
MIN_PASSES = 3
SETUP_ROUNDS = MIN_PASSES + 1
SETUP_PROBES_PER_ROUND = 5
# Mean time of worker._reference() on the machine the benchmark was defined on.
REF_NOMINAL_S = 0.028
QUERY_TIMEOUT_S = 30.0
RUN_BUDGET_S = 170.0
OUT_DIR = os.path.join(ROOT, ".bench_out")
GOLDENS = os.path.join(HERE, "goldens.json")


class Budget:
    """Wall-clock allowance shared by every child process of one run."""

    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        return self.end - time.monotonic()


def child(job: dict, budget: Budget) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON report."""
    job = dict(job, budget_s=max(1.0, budget.left() - 10.0))
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")],
                          input=json.dumps(job), capture_output=True, text=True,
                          timeout=max(1.0, budget.left() - 2.0), cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout)


def run_stream(queries, systems, budget: Budget, *, trace: bool, checked: bool, tag: str) -> dict:
    """One fresh process running the whole stream; `checked` also checks every answer."""
    spool = os.path.join(OUT_DIR, f"spool-{tag}-{os.getpid()}.bin") if checked else None
    job = {"mode": "stream", "queries": [q.as_dict() for q in queries], "systems": systems,
           "trace": trace, "timeout_s": QUERY_TIMEOUT_S, "spool": spool,
           "trace_file": os.path.join(OUT_DIR, f"trace-{tag}.json")}
    try:
        return child(job, budget)
    finally:
        if spool and os.path.exists(spool):
            os.remove(spool)


def load_goldens(args) -> list[str]:
    """Recorded stdout hashes of this stream, or [] when none were recorded for it."""
    with open(GOLDENS) as fh:
        goldens = json.load(fh)
    if args.seed != goldens["seed"]:
        return []
    return goldens["workloads"][args.workload]


def wrong_answers(reports: list[dict], goldens: list[str]) -> tuple[int, dict[int, str]]:
    """Failed executions over all reports, and a reason per failing query.

    reports[0] is the checked run.  An execution fails when that query failed
    its check or its golden, or when it printed other bytes than reports[0].
    """
    reasons = {int(k): v for k, v in reports[0]["failures"].items()}
    reference = reports[0]["queries"]
    for qid, (row, want) in enumerate(zip(reference, goldens)):
        if row["sha256"] != want:
            reasons.setdefault(qid, "stdout differs from the recorded golden")
    failed = 0
    for report in reports:
        for qid, (row, ref) in enumerate(zip(report["queries"], reference)):
            if row["code"] != ref["code"] or row["sha256"] != ref["sha256"]:
                reasons.setdefault(qid, "stdout differs between two runs of the query")
                failed += 1
            elif qid in reasons:
                failed += 1
    return failed, reasons


def per_query(reports: list[dict], scaled: bool = True) -> list[float]:
    """Each query's latency: the mean of its executions in `reports`.

    `scaled` latencies are at the reference speed: the times of a pass are
    multiplied by REF_NOMINAL_S over the mean of the pass's reference timings.
    """
    def times(report):
        scale = REF_NOMINAL_S / statistics.fmean(report["refs"]) if scaled else 1.0
        return [row["s"] * scale for row in report["queries"]]

    return [statistics.fmean(col) for col in zip(*map(times, reports))]


def end_to_end(args, queries, systems, budget: Budget) -> tuple[dict, list[dict], list[str]]:
    deadline = min(time.monotonic() + args.seconds, budget.end - 20.0)
    setup_job = {"mode": "setup", "systems": systems}
    child(setup_job, budget)  # warm-up: byte-compiles and fills the file cache
    rounds, reports, longest = [], [], 0.0

    def setup_round():
        rounds.append([child(setup_job, budget) for _ in range(SETUP_PROBES_PER_ROUND)])

    while len(reports) < MIN_PASSES or time.monotonic() + longest < deadline:
        if len(rounds) < SETUP_ROUNDS - 1:
            setup_round()
        t0 = time.monotonic()
        reports.append(run_stream(queries, systems, budget, trace=False, checked=not reports,
                                  tag=args.workload))
        longest = max(longest, time.monotonic() - t0)
    setup_round()
    with open(os.path.join(OUT_DIR, f"timings-{args.workload}.json"), "w") as fh:
        json.dump([{"s": [row["s"] for row in r["queries"]], "refs": r["refs"]} for r in reports], fh)
    setups = [p["setup_s"] * REF_NOMINAL_S / p["ref_s"] for r in rounds for p in r]
    lat, raw = per_query(reports), per_query(reports, scaled=False)
    walls = ", ".join(f"{sum(row['s'] for row in r['queries']):.4f}" for r in reports)
    refs = statistics.fmean(ref for r in reports for ref in r["refs"])
    print(f"# {len(reports)} passes, unscaled wall_s per pass {walls}")
    print(f"# unscaled: wall_s {sum(raw):.4f} s, query_p50_s {statistics.median(raw):.6f} s; "
          f"reference timing {refs * 1000:.3f} ms (nominal {REF_NOMINAL_S * 1000:.3f} ms)")
    print("# setup probes, unscaled ms / reference ms, one round per line:")
    for r in rounds:
        print("#   " + " ".join(f"{p['setup_s'] * 1000:.1f}/{p['ref_s'] * 1000:.1f}" for p in r))
    if args.workload == "pair-sweep":
        p90 = statistics.quantiles(lat, n=10, method="inclusive")[-1]
        print(f"# query_p90_s {p90:.6f} s (n={len(lat)}, "
              f"{len(lat) - int(0.9 * len(lat))} samples above p90)")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(lat), "s"),
        "query_p50_s": (statistics.median(lat), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reports), "MB"),
    }
    return metrics, reports, []


def traced(args, queries, systems, budget: Budget) -> tuple[dict, list[dict], list[str]]:
    tag = args.workload
    plain, spans = [], []
    for k in "ab":
        plain.append(run_stream(queries, systems, budget, trace=False, checked=k == "a", tag=tag))
        spans.append(run_stream(queries, systems, budget, trace=True, checked=False,
                                tag=f"{tag}-{k}"))
    problems = []
    a, b = spans[0]["layers"], spans[1]["layers"]
    for name in sorted(a):
        if LAYERS[name][0] in DETERMINISTIC_KINDS and a[name] != b.get(name):
            problems.append(f"nondeterministic counter {name}: {a[name]} vs {b.get(name)}")
    for name in spans[0]["absent"]:
        print(f"# absent: {name} (its target is not in the program)")
    metrics = {}
    for name, value in a.items():
        kind = LAYERS[name][0]
        unit = "s" if kind == "self_s" else "ratio" if kind == "hit_ratio" else "count"
        metrics[name] = ((value + b[name]) / 2 if kind == "self_s" else value, unit)
    untraced_s, traced_s = sum(per_query(plain)), sum(per_query(spans))
    metrics["trace_overhead_s"] = (traced_s - untraced_s, "s")
    print(f"# wall_s, mean of two per query: untraced {untraced_s:.4f}, traced "
          f"{traced_s:.4f}; their difference, trace_overhead_s, carries the run-to-run "
          f"noise of wall_s too; spans in {os.path.relpath(OUT_DIR, ROOT)}/trace-{tag}-[ab].json")
    return metrics, plain + spans, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds through subprocess.run, which kills and reaps the running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if sys.flags.optimize:
        print("run.py: refusing to run under python -O: the asserts carry the closed-form "
              "and series/recursion cross-checks", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "bdsweyl", "cli.py")):
        print(f"run.py: no bdsweyl sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    queries = workloads.generate(args.workload, args.seed)
    print(f"# {len(queries)} queries per pass, closed loop, 1 client; share whose root "
          f"system repeats an earlier query's: {workloads.repeat_share(queries):.4f}")
    measure = traced if args.trace else end_to_end
    metrics, reports, problems = measure(args, queries, workloads.root_systems(queries),
                                         Budget(RUN_BUDGET_S))
    failed, reasons = wrong_answers(reports, load_goldens(args))
    attempted = len(queries) * len(reports)
    for qid in sorted(reasons)[:20]:
        print(f"# FAIL query {qid}: {queries[qid].key()}: {reasons[qid]}")
    for problem in problems:
        print(f"# FAIL {problem}")
    print(f"# error_rate {failed / attempted:.6f} ({failed} failed / {attempted} attempted)")
    for name, (value, unit) in metrics.items():
        print(f"# {name} {value} {unit}")
    print(json.dumps({
        "correct": not failed and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
