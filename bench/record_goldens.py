"""Record goldens.json: the stdout SHA-256 of every query, in stream order, of
the default-seed stream of every workload, as the current program prints them.

    python3 bench/record_goldens.py

Each answer must pass its checks before it is recorded.  Re-record only when
a change to the output is intended; run.py fails any query whose stdout no
longer matches.
"""

from __future__ import annotations

import json
import os
import sys

from run import GOLDENS, OUT_DIR, RUN_BUDGET_S, Budget, run_stream
import workloads

DEFAULT_SEED = 0


def main() -> int:
    os.makedirs(OUT_DIR, exist_ok=True)
    goldens: dict[str, list[str]] = {}
    for name in workloads.WORKLOADS:
        queries = workloads.generate(name, DEFAULT_SEED)
        report = run_stream(queries, workloads.root_systems(queries), Budget(RUN_BUDGET_S),
                            trace=False, checked=True, tag=name)
        if report["failures"]:
            print(f"{name}: not recorded, failing queries: {report['failures']}", file=sys.stderr)
            return 1
        goldens[name] = [row["sha256"] for row in report["queries"]]
        print(f"{name}: {len(queries)} queries")
    with open(GOLDENS, "w") as fh:
        json.dump({"seed": DEFAULT_SEED, "workloads": goldens},
                  fh, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
