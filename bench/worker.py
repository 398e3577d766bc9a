"""One benchmark process: a set-up probe or a whole query stream.

Started by run.py with a JSON job on stdin; prints one JSON result on stdout.

    setup   import bdsweyl and build the listed root systems, report the time
            and a reference timing taken right after
    stream  set up, run the queries in a closed loop through bdsweyl.cli.main
            (one client, next query when the previous one returns), with a
            reference timing before the first query, before any query that
            starts REF_EVERY_S or more after the previous one, and after the last
            query; then check the outputs outside the timed region
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

REF_EVERY_S = 0.5


class QueryTimeout(BaseException):
    """Raised by SIGALRM inside a query; a BaseException so no handler in the program eats it."""


def _on_alarm(signum, frame):
    raise QueryTimeout()


def _setup(systems: list[list], tracer=None) -> float:
    """Seconds from before `import bdsweyl` to every root system built.

    A tracer is installed between the import and the builds, so that the
    traced run sees the set-up builds too.
    """
    t0 = time.perf_counter()
    import bdsweyl

    if tracer:
        tracer.install()
    for t, n in systems:
        bdsweyl.build(t, n)
    return time.perf_counter() - t0


def _reference() -> float:
    """Seconds a fixed pure-Python loop takes now: the CPU speed next to a query.

    The loop does the kind of work the program does (Fraction arithmetic,
    frozenset hashing, dict updates) and about 25 ms of it, so run.py can
    scale the latencies of a pass by how fast the shared CPU ran during it.
    """
    t0 = time.perf_counter()
    acc, table = Fraction(0), {}
    for i in range(1, 6000):
        acc += Fraction(i % 13, i % 29 + 1)
        key = frozenset((i % 31, i % 17, i % 7))
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - t0


def _run_query(main, argv: list[str], timeout: float) -> tuple[int | str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, timeout)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse rejects a request this way
        code = exc.code
    except QueryTimeout:
        code = "timeout"
    except Exception as exc:  # a crash is a failed query, not a failed run
        code = f"raised {type(exc).__name__}: {exc}"
    finally:
        elapsed = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
    return code, out.getvalue(), elapsed


def stream(job: dict) -> dict:
    tracer = None
    if job["trace"]:
        from probes import Tracer

        tracer = Tracer()
    setup_s = _setup(job["systems"], tracer)
    from bdsweyl import cli

    signal.signal(signal.SIGALRM, _on_alarm)
    deadline = time.perf_counter() + job["budget_s"]
    spool = open(job["spool"], "w+b") if job["spool"] else None
    results = []
    refs = [_reference()]
    last_ref = time.perf_counter()
    try:
        for qid, q in enumerate(job["queries"]):
            if time.perf_counter() > deadline:
                results.append({"code": "skipped: run budget exhausted", "s": 0.0, "sha256": ""})
                continue
            if time.perf_counter() - last_ref >= REF_EVERY_S:
                refs.append(_reference())
                last_ref = time.perf_counter()
            if tracer:
                tracer.qid = qid
            code, out, elapsed = _run_query(cli.main, q["argv"], job["timeout_s"])
            data = out.encode()
            row = {"code": code, "s": elapsed, "sha256": hashlib.sha256(data).hexdigest()}
            if spool:
                row["at"] = spool.tell()
                row["len"] = len(data)
                spool.write(data)
            results.append(row)
        refs.append(_reference())
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        report = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb, "queries": results,
                  "refs": refs}
        if tracer:
            report["layers"], report["absent"] = tracer.metrics()
            tracer.dump(job["trace_file"])
        if spool:
            report["failures"] = _check_all(job["queries"], results, spool)
    finally:
        if spool:
            spool.close()
    return report


def _check_all(queries: list[dict], results: list[dict], spool) -> dict[int, str]:
    import checks

    failures = {}
    for qid, (q, row) in enumerate(zip(queries, results)):
        if "at" not in row:
            failures[qid] = str(row["code"])
            continue
        spool.seek(row["at"])
        stdout = spool.read(row["len"]).decode()
        try:
            reason = checks.check(q["argv"], q["expect"], row["code"], stdout)
        except Exception as exc:  # a check that cannot run fails the query
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason:
            failures[qid] = reason
    return failures


def main() -> int:
    if sys.flags.optimize:
        print("worker: refusing to run under python -O (asserts carry the cross-checks)",
              file=sys.stderr)
        return 2
    job = json.load(sys.stdin)
    if job["mode"] == "setup":
        report = {"setup_s": _setup(job["systems"]), "ref_s": _reference()}
    else:
        report = stream(job)
    sys.stdout.write(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
