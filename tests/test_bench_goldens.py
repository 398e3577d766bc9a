"""Replay of the benchmark's seed-0 goldens.

Every query of the seed-0 stream of each workload runs through
`bdsweyl.cli.main` in process, as the benchmark's worker runs it, and must
return the expected exit code and print stdout whose SHA-256 is the one
recorded in `bench/goldens.json`; the `pair-sweep` stream also runs in
reverse order.  This reads `bench/` without changing it."""

import contextlib
import hashlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from bdsweyl.cli import main

BENCH = Path(__file__).parents[1] / "bench"
GOLDENS = json.loads((BENCH / "goldens.json").read_text())


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


def _run(query) -> str:
    """Run one query as the benchmark's worker does; the SHA-256 of its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(query.argv)
        except SystemExit as exc:  # argparse rejects a request this way
            code = exc.code
    assert code == query.expect, query.key()
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed0_stream_matches_goldens(workload):
    queries = workloads.generate(workload, GOLDENS["seed"])
    digests = GOLDENS["workloads"][workload]
    assert len(queries) == len(digests)
    for query, digest in zip(queries, digests):
        assert _run(query) == digest, query.key()


def test_pair_sweep_reversed_matches_goldens():
    # The pairs and root systems are shared by every query of the process, so
    # the other order meets every cache in another state; no answer may change.
    queries = workloads.generate("pair-sweep", GOLDENS["seed"])
    digests = GOLDENS["workloads"]["pair-sweep"]
    for query, digest in reversed(list(zip(queries, digests))):
        assert _run(query) == digest, query.key()
