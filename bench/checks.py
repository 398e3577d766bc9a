"""Output checks for benchmark queries, run after the timed stream.

Every query is checked against its expected exit code.  Successful queries
must print schema-v1 JSON with the documented keys and, where the command
reports one, `status == "pass"`.  Hilbert coefficients are compared with the
brute-force oracle `hilbert_series_bruteforce` at a low degree, and every
facet of an `alambda` answer must be a face (`face_predicate`) to which no
further vertex can be added.  Rejected queries must print nothing on stdout.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

from bdsweyl.bdspair import build_pair
from bdsweyl.srring import SRVariable, Weight0, hilbert_series_bruteforce, presentation

SCHEMA_KEYS = {
    "pair": {"type", "rank", "node", "a_j", "alpha0", "alpha0_str", "delta0_labels", "delta0",
             "marks_alpha0", "comarks_alpha0", "g0_components", "graded_sizes", "graded_dims",
             "thetas", "chain_nodes", "chain_roots"},
    "alambda": {"pair", "weight", "caps", "variables", "generators", "presentation", "krull_dim",
                "d_lambda", "facets", "hilbert", "flags", "verdicts"},
    "hilbert": {"weight", "degree", "coefficients", "closed_form"},
    "localdim": {"fundamental", "power", "value", "displayed_value", "displayed_mismatch",
                 "spin_value"},
    "idealpoint": {"weight", "seed", "mu", "mu_h0", "points", "pi", "degrees", "verified"},
    "garland-check": {"order", "roots_checked", "failures", "status"},
    "verify-all": {"max_rank", "seed", "results", "status"},
}

# Monomial counts grow fast with the degree; this keeps the oracle cheap.
ORACLE_DEGREE = 8


def check(argv: list[str], expect: int, code: int, stdout: str) -> str | None:
    """None when the answer is correct, otherwise the reason it is not."""
    if code != expect:
        return f"exit code {code}, expected {expect}"
    if expect != 0:
        return "rejected query printed to stdout" if stdout else None
    try:
        payload = json.loads(stdout)
    except ValueError as exc:
        return f"stdout is not JSON: {exc}"
    cmd = argv[0]
    if payload.get("schema_version") != 1 or payload.get("command") != cmd:
        return "missing schema_version 1 or command"
    missing = SCHEMA_KEYS[cmd] - payload.keys()
    if missing:
        return f"missing keys {sorted(missing)}"
    if "status" in SCHEMA_KEYS[cmd] and payload["status"] != "pass":
        return f"status {payload['status']!r}"
    if cmd == "idealpoint" and payload["verified"] is not True:
        return "ideal point not verified"
    if cmd in ("alambda", "hilbert"):
        return _check_presentation(argv, payload)
    return None


def _option(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _check_presentation(argv: list[str], payload: dict) -> str | None:
    pair = build_pair(argv[1], int(_option(argv, "--node")), int(argv[2]))
    pres = presentation(pair, Weight0.parse(_option(argv, "--weight")))
    hilbert = payload["hilbert"] if argv[0] == "alambda" else payload
    coeffs = hilbert["coefficients"]
    low = min(ORACLE_DEGREE, len(coeffs) - 1)
    if argv[0] == "alambda":
        # The oracle only reads variables and generators: give it the printed
        # ones, so the answer is checked for consistency with itself.
        printed = SimpleNamespace(
            variables=tuple(SRVariable(*v) for v in payload["variables"]),
            generators=tuple(frozenset(_var(pair, nl) for nl in g) for g in payload["generators"]))
        oracle = hilbert_series_bruteforce(printed, low)
    else:
        oracle = hilbert_series_bruteforce(pres, low)
    if tuple(coeffs[:low + 1]) != oracle:
        return f"Hilbert prefix {coeffs[:low + 1]} != oracle {list(oracle)}"
    if argv[0] == "alambda":
        return _check_facets(pres, payload)
    return None


def _var(pair, node_level) -> SRVariable:
    node, level = node_level
    return SRVariable(node, level, pair.a_j * level)


def _check_facets(pres, payload: dict) -> str | None:
    """Each facet is a face, and adding any other vertex leaves the complex."""
    vertices = [tuple(v[:2]) for v in payload["variables"]]
    for facet in payload["facets"]:
        members = {tuple(nl) for nl in facet}
        face = [_var(pres.pair, nl) for nl in members]
        if not pres.face_predicate(face):
            return f"facet {facet} is not a face"
        for node, level in vertices:
            if (node, level) not in members and pres.face_predicate(
                    face + [_var(pres.pair, (node, level))]):
                return f"facet {facet} is not maximal: P({node},{level}) can be added"
    return None
