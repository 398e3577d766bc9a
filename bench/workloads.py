"""Seeded query streams for the bdsweyl benchmark.

Each workload is a list of CLI queries (argv lists) built from a seed; the
program only ever sees the argv.  A stream is a fixed list of queries, about
6 s of work at the commit the benchmark was defined on; the amount of work is
fixed by the seed, not by the clock.

Run-to-run spread across seeds must stay small, so the three streams of
large queries have a fixed cost profile: the shape and order of the queries
are fixed, and the seed decides every choice the cost does not depend on
(which values go to which nodes of equal comark, which node of a type a
Garland check uses, B4 or C4).  Most queries of a stream cost about the same,
so the median latency is not set by one query.  In `pair-sweep` the seed
draws weights, parameters and the order, and the pairs are stratified: every
pair of all_pairs(8) is used once per command.
"""

from __future__ import annotations

import random

WORKLOADS = ("sr-facets", "sr-series", "garland-series", "pair-sweep")

# Eligible nodes (mark >= 2) of every type with rank <= 8, Bourbaki numbering.
_ELIGIBLE = {
    "B": lambda n: range(2, n + 1),
    "C": lambda n: range(1, n),
    "D": lambda n: range(2, n - 1),
    "E": lambda n: {6: (2, 3, 4, 5), 7: (1, 2, 3, 4, 5, 6), 8: tuple(range(1, 9))}[n],
    "F": lambda n: (1, 2, 3, 4),
    "G": lambda n: (1, 2),
}
_RANKS = {"A": range(1, 9), "B": range(2, 9), "C": range(2, 9), "D": range(3, 9),
          "E": range(6, 9), "F": (4,), "G": (2,)}


def all_pairs_8() -> list[tuple[str, int, int]]:
    """(type, rank, node) of every pair that `all_pairs(8)` enumerates."""
    return [(t, n, j) for t in "BCDEFG" for n in _RANKS[t] for j in _ELIGIBLE[t](n)]


def verify_all_systems(max_rank: int) -> list[tuple[str, int]]:
    """Root systems that `verify-all --max-rank m` builds (all_pairs(m) walks every type)."""
    return [(t, n) for t in "ABCDEFG" for n in _RANKS[t] if n <= max_rank]


class Query:
    """One CLI invocation and the exit code it must return."""

    __slots__ = ("argv", "expect")

    def __init__(self, argv: list[str], expect: int = 0):
        self.argv = argv
        self.expect = expect

    def key(self) -> str:
        return " ".join(self.argv)

    def as_dict(self) -> dict:
        return {"argv": self.argv, "expect": self.expect}


def _weight(values: dict[int, int]) -> str:
    items = sorted(((k, v) for k, v in values.items() if v), key=lambda kv: (kv[0] == 0, kv[0]))
    return ",".join(f"h{k}={v}" for k, v in items) or "h0=0"


def _pair_args(cmd: str, t: str, n: int, j: int) -> list[str]:
    return [cmd, t, str(n), "--node", str(j)]


def _deal(rng: random.Random, nodes: list[int], values: list[int]) -> dict[int, int]:
    """Assign a fixed multiset of values to nodes in a seeded order."""
    if len(nodes) != len(values):
        raise ValueError(f"{len(values)} values for {len(nodes)} nodes")
    vals = list(values)
    rng.shuffle(vals)
    return dict(zip(nodes, vals))


# -- sr-facets: D_n at the middle node, comark 2 at j -------------------------

# (rank, h0, values on the comark-2 nodes other than j, on the comark-1 nodes,
#  on the comark-0 nodes); the comark-2 group sets the facet count.
_SR_FACETS_SHAPES = (
    (12, 12, [3, 3, 3, 3], [3, 3, 3], [3, 3, 3, 3]),
    (12, 11, [3, 3, 2, 3], [3, 2, 3], [1, 2, 3, 3]),
    (11, 11, [3, 3, 2, 3], [3, 3, 3], [3, 1, 2]),
    (10, 12, [3, 3, 3], [3, 3, 3], [3, 3, 3]),
)


def _sr_facets_stream(rng: random.Random) -> list[Query]:
    out = []
    for n, h0, c2, c1, c0 in _SR_FACETS_SHAPES:
        j = n // 2
        vals = {0: h0}
        vals.update(_deal(rng, list(range(j + 1, n - 1)), c2))
        vals.update(_deal(rng, [j - 1, n - 1, n], c1))
        vals.update(_deal(rng, list(range(1, j - 1)), c0))
        out.append(Query(_pair_args("alambda", "D", n, j)
                         + ["--weight", _weight(vals), "--degree", "48", "--format", "json"]))
    return out


# -- sr-series: B_n at node n and C_n at the middle node, comark 1 at j -------

# (command, type, rank, h0, degree, values on the comark-1 nodes other than j,
#  values on the comark-0 nodes)
_SR_SERIES_SHAPES = (
    ("alambda", "B", 6, 36, 72, [3], [3, 1, 1, 0]),
    ("alambda", "C", 8, 30, 64, [3, 2, 1, 2], [1, 2, 3]),
    ("hilbert", "B", 8, 38, 76, [2], [1, 2, 1, 0, 2, 1]),
    ("alambda", "C", 7, 30, 64, [3, 2, 1, 2], [2, 1]),
    ("hilbert", "C", 7, 32, 64, [2, 2, 2, 2], [1, 2]),
)


def _sr_series_stream(rng: random.Random) -> list[Query]:
    out = []
    for cmd, t, n, h0, degree, c1, c0 in _SR_SERIES_SHAPES:
        j = n if t == "B" else n // 2
        constrained = [i for i in range(j, n + 1) if i != j] if t == "C" else [n - 1]
        free = [i for i in range(1, n + 1) if i != j and i not in constrained]
        vals = {0: h0}
        vals.update(_deal(rng, constrained, c1))
        vals.update(_deal(rng, free, c0))
        out.append(Query(_pair_args(cmd, t, n, j)
                         + ["--weight", _weight(vals), "--degree", str(degree), "--format", "json"]))
    return out


# -- garland-series: generating-series identities ------------------------------

# Each slot is (types to pick from, rank, order).  The cost of garland-check
# depends on the root system and the order only, so the seed picks the node
# freely, and the type among B4/C4, which cost the same at order 4.  At order
# 5, C3 costs about 10 % more than B3, so both are always present.  Repeated
# types share coroots.
_GARLAND_SLOTS = (
    (("B",), 3, 5), (("B", "C"), 4, 4), (("D",), 4, 4), (("F",), 4, 4),
    (("C",), 3, 5), (("G",), 2, 5), (("F",), 4, 3),
)


def _garland_stream(rng: random.Random) -> list[Query]:
    out = []
    for types, n, order in _GARLAND_SLOTS:
        t = rng.choice(types)
        j = rng.choice(list(_ELIGIBLE[t](n)))
        out.append(Query(_pair_args("garland-check", t, n, j)
                         + ["--order", str(order), "--format", "json"]))
    return out


# -- pair-sweep: many small queries over all_pairs(8) --------------------------


def _small_weight(rng: random.Random, t: str, n: int, j: int) -> str:
    vals = {i: rng.choice((0, 0, 1, 2)) for i in range(1, n + 1) if i != j}
    vals[0] = rng.randrange(0, 5)
    return _weight(vals)


def _malformed(rng: random.Random) -> Query:
    """A request the CLI must reject with exit 2 (usage or input error)."""
    n = rng.randrange(3, 9)
    choices = [
        ["pair", "A", str(n), "--node", str(rng.randrange(1, n + 1))],   # no node of mark >= 2
        ["pair", "B", str(n), "--node", "1"],                            # mark 1
        ["pair", "E", str(rng.choice((4, 5, 9))), "--node", "2"],        # rank out of range
        ["pair", "D", str(n)],                                           # --node missing
        ["alambda", "B", str(n), "--node", str(n), "--weight", f"h{n}=1"],  # j is no Delta_0 label
        ["alambda", "C", str(n), "--node", "1", "--weight", "bogus"],
        ["hilbert", "B", str(n), "--node", str(n), "--degree", "-1"],
        ["localdim", "C", str(n), "--node", "1", "--fundamental", "1"],  # localdim needs B_n
        ["pair", "H", str(n), "--node", "1"],                            # unknown type letter
    ]
    return Query(rng.choice(choices) + ["--format", "json"], expect=2)


def _pair_sweep_stream(rng: random.Random) -> list[Query]:
    """One verify-all; every pair of all_pairs(8) once per command; localdim; rejected requests."""
    pairs = all_pairs_8()
    out = [Query(["verify-all", "--max-rank", "8", "--seed", str(rng.randrange(1000)),
                  "--format", "json"])]
    for t, n, j in pairs:
        out.append(Query(_pair_args("pair", t, n, j) + ["--format", "json"]))
    for cmd in ("alambda", "hilbert", "idealpoint"):
        for t, n, j in pairs:
            argv = _pair_args(cmd, t, n, j) + ["--weight", _small_weight(rng, t, n, j)]
            if cmd == "idealpoint":
                argv += ["--seed", str(rng.randrange(10 ** 6)), "--points", str(rng.randrange(2, 5))]
            else:
                argv += ["--degree", str(rng.randrange(12, 21))]
            out.append(Query(argv + ["--format", "json"]))
    for n in range(3, 9):
        for _ in range(3):
            out.append(Query(_pair_args("localdim", "B", n, n)
                             + ["--fundamental", str(rng.randrange(0, n)),
                                "--power", str(rng.randrange(1, 4)), "--format", "json"]))
    out.extend(_malformed(rng) for _ in range(len(out) // 20))
    rng.shuffle(out)
    return out


_STREAMS = {
    "sr-facets": _sr_facets_stream,
    "sr-series": _sr_series_stream,
    "garland-series": _garland_stream,
    "pair-sweep": _pair_sweep_stream,
}


def generate(workload: str, seed: int) -> list[Query]:
    """The query stream of a workload; identical for identical arguments."""
    if workload not in _STREAMS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
    return _STREAMS[workload](random.Random(f"{workload}:{seed}"))


def root_systems(queries: list[Query]) -> list[tuple[str, int]]:
    """Every root system the stream builds, in first-use order."""
    seen: dict[tuple[str, int], None] = {}
    for q in queries:
        a = q.argv
        if a[0] == "verify-all":
            for ts in verify_all_systems(int(a[a.index("--max-rank") + 1])):
                seen.setdefault(ts, None)
        elif q.expect == 0:
            seen.setdefault((a[1], int(a[2])), None)
    return list(seen)


def repeat_share(queries: list[Query]) -> float:
    """Share of successful-path queries whose root system already occurred earlier."""
    seen: set[tuple[str, int]] = set()
    repeats = total = 0
    for q in queries:
        if q.expect != 0 or q.argv[0] == "verify-all":
            continue
        ts = (q.argv[1], int(q.argv[2]))
        total += 1
        repeats += ts in seen
        seen.add(ts)
    return repeats / total if total else 0.0
