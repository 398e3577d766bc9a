"""Command-line frontend.

Subcommands: pair, alambda, hilbert, localdim, idealpoint, garland-check,
verify-all.  Output is deterministic text or JSON (schema documented in
docs/json-schema-v1.md; rationals are rendered as exact 'p/q' strings).  The
arguments of every subcommand are declared once, in `COMMANDS`: `_plain_args`
reads an argv in the plain form from it, and any other argv goes to the
argparse parser `build_parser` makes from it.
Exit codes: 0 success, 1 property failure, 2 usage error.

Every `cmd_*` returns (payload, text, code): one payload for both formats,
and `text` a callable that makes the text report's lines from it.  `main`
alone reads `--format`, and calls `text` only for `--format text`, so JSON
never builds the text report.  `main` writes to stdout only once the answer
is computed: every flag, the Hilbert series, and for alambda the facet and
generator tuples with their checks.  A failure in a subcommand or in its
text report is caught by the same handler, so an exit of 1 or 2 leaves
stdout empty.  Both formats are then written by one writer, `_write`: the
JSON as the parts `_json` makes of the payload, the text report as its
lines.  A part is a str or an iterator of strs.  The alambda presentation
string C[vars] / (gens) and the facet and generator lists are generators
made by one renderer, `_rows`.  It builds a list's string tables
(`SRPresentation.facet_tables`, `generator_tables`) when the writer reaches
the list, and joins each prefix of the walk's groups once and each shared
suffix list once; a group's rows are one join.  While they are written,
memory holds the payload without them, the presentation's groups and those
tables, and about `_CHUNK` characters or one group's rows in writes.
"""

from __future__ import annotations

import os
import random
import sys
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from operator import getitem
from types import GeneratorType, SimpleNamespace
from typing import Callable, Iterable, Iterator, NamedTuple

from . import garland, weylcrit
from .bdspair import BdsPair, build_pair, eligible_nodes
from .rootsys import build, format_root
from .srring import (HilbertSeries, SRPresentation, SRVariable, Weight0, parse_weight_spec,
                     presentation)
from .verify import draw_eval_params, run_all

SCHEMA_VERSION = 1


def _render(obj, pad: str) -> str:
    """`json.dumps(obj, sort_keys=True, indent=2)` for the payload types only,
    as the text of obj at a place that closes with `pad`.

    Dicts with str keys, lists and tuples, str (escaped to ASCII by json's own
    encoder), exact int, True, False and None; anything else, a float, a
    non-str key or a generator included, raises TypeError (a key, from that
    encoder).  `pad` is the newline and indent that close obj; each item of a
    container goes one level deeper.  A list of exact ints is written with one
    join.  The f-strings build each container in one allocation.
    """
    t = type(obj)
    if t is list or t is tuple:
        if not obj:
            return "[]"
        inner = pad + "  "
        if [x for x in obj if type(x) is not int]:
            body = [_render(x, inner) for x in obj]
        else:
            body = map(int.__repr__, obj)
        sep = "," + inner
        return f"[{inner}{sep.join(body)}{pad}]"
    if t is str:
        return encode_basestring_ascii(obj)
    if t is int:
        return int.__repr__(obj)
    if t is dict:
        if not obj:
            return "{}"
        inner = pad + "  "
        body = [encode_basestring_ascii(k) + ": " + _render(v, inner) for k, v in sorted(obj.items())]
        sep = "," + inner
        return f"{{{inner}{sep.join(body)}{pad}}}"
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    raise TypeError(f"{t.__name__} is not written as JSON")


# Characters of text gathered before a `write`.
_CHUNK = 1 << 16


def _write(parts: Iterable[str | Iterator[str]], write: Callable[[str], object]) -> None:
    """Write the parts, each a str or an iterator of strs, through `write`:
    the pieces are gathered, and written joined each time they reach about
    `_CHUNK` characters.  So about a chunk of text, or one longer piece, is
    held, and a small payload takes one write."""
    text, size = [], 0  # pieces not yet written, and their length
    for part in parts:
        for piece in (part,) if type(part) is str else part:
            text.append(piece)
            size += len(piece)
            if size >= _CHUNK:
                write("".join(text))
                text.clear()
                size = 0
    write("".join(text))


def _json(obj) -> list[str | Iterator[str]]:
    """The parts of `json.dumps(obj, sort_keys=True, indent=2)` for `_write`.

    A generator value of obj (the presentation, facets and generators of the
    alambda payload, each from `_rows`) stays a part: no row list and no
    whole document is ever held.  Every key and every other value is
    rendered by `_render` here, so a TypeError comes before the first write.
    """
    if type(obj) is not dict or not obj:
        return [_render(obj, "\n")]
    parts, lead = [], "{"
    for key, value in sorted(obj.items()):
        parts += (f"{lead}\n  {encode_basestring_ascii(key)}: ",
                  value if type(value) is GeneratorType else _render(value, "\n  "))
        lead = ","
    parts.append("\n}")
    return parts


def _resolve_pair(args) -> BdsPair:
    rs = build(args.type, args.rank)
    if args.node is None:
        raise ValueError(f"--node is required; eligible nodes: {list(eligible_nodes(rs))}")
    return build_pair(rs, args.node)


def _resolve_weight(pair: BdsPair, args) -> Weight0:
    if args.delta_weight is not None:
        dw = weylcrit.DeltaWeight.of(pair.rs.rank, parse_weight_spec(args.delta_weight))
        return weylcrit.weight_restrict(pair, dw)
    return Weight0.parse(args.weight or "")


def _pair_payload(pair: BdsPair) -> dict:
    chain = pair.reflection_chain()
    return {
        "type": pair.rs.type_letter,
        "rank": pair.rs.rank,
        "node": pair.j,
        "a_j": pair.a_j,
        "alpha0": list(pair.alpha0),
        "alpha0_str": format_root(pair.alpha0),
        "delta0_labels": list(pair.delta0_labels),
        "delta0": [list(r) for r in pair.delta0],
        "marks_alpha0": list(pair.marks_alpha0),
        "comarks_alpha0": list(pair.comarks_alpha0),
        "g0_components": list(pair.g0_components),
        "graded_sizes": [len(pair.graded_roots(k)) for k in range(pair.a_j)],
        "graded_dims": [pair.graded_dim(s) for s in range(2 * pair.a_j)],
        "thetas": [list(pair.theta_k(k)) for k in range(1, pair.a_j)],
        "chain_nodes": list(chain.node_sequence),
        "chain_roots": [list(beta) for _, beta in chain.entries],
    }


def cmd_pair(args):
    pair = _resolve_pair(args)
    payload = _pair_payload(pair)
    return payload, lambda: [
        f"pair: {pair.rs.type_letter}{pair.rs.rank}, node {pair.j}, a_j = {pair.a_j}",
        f"alpha0 = {format_root(pair.alpha0)}",
        "delta0 = " + ", ".join(
            f"[{label}] {format_root(r)}" for label, r in zip(pair.delta0_labels, pair.delta0)),
        f"g0 components: {', '.join(pair.g0_components)}",
        f"comarks of alpha0: {list(pair.comarks_alpha0)}",
        "graded root counts: " + ", ".join(
            f"|R_{k}| = {size}" for k, size in enumerate(payload["graded_sizes"])),
        *(f"theta_{k} = {format_root(th)}" for k, th in enumerate(payload["thetas"], start=1)),
        "reflection chain nodes: " + "-".join(map(str, payload["chain_nodes"])),
        "graded dims s=0..%d: %s" % (2 * pair.a_j - 1, payload["graded_dims"]),
    ], 0


def _hilbert_payload(hs: HilbertSeries) -> dict:
    cf = hs.closed_form
    return {
        "degree": hs.truncation_degree,
        "coefficients": list(hs.coefficients),
        "closed_form": None if cf is None else {
            "numerator": list(cf.numerator),
            "denominator": list(cf.denominator),
            "display": cf.format(),
        },
    }


# The brackets of a row or of a list: open, sep, close, empty.  The "facets"
# and "generators" lists of the alambda payload are top-level values: each
# row closes at _ROW_PAD, and each [node, level] in it at _ITEM_PAD.
_ROW_PAD = "\n    "
_ITEM_PAD = _ROW_PAD + "  "
_JSON_ROW = ("[" + _ITEM_PAD, "," + _ITEM_PAD, _ROW_PAD + "]", "[]")
# The brackets of a top-level list of such rows.
_JSON_LIST = ("[" + _ROW_PAD, "," + _ROW_PAD, "\n  ]", "[]")
# A facet of the text report.
_TEXT_ROW = ("{", ", ", "}", "{}")


def _json_unit(v: SRVariable) -> str:
    """[node, level] as an item of a JSON row, after its separator."""
    return _JSON_ROW[1] + _render([v.node, v.level], _ITEM_PAD)


def _text_unit(v: SRVariable) -> str:
    """P(node,level) as an item of a text facet, after its separator."""
    return _TEXT_ROW[1] + v.label()


def _rows(encoding: Callable[[Callable, str], tuple], unit: Callable[[SRVariable], str],
          row: tuple[str, str, str, str], brackets: tuple[str, str, str, str]) -> Iterator[str]:
    """The list of the rows, in `brackets` (open, sep, close, empty), as
    pieces of text made when the iteration reaches them.

    `encoding` (`SRPresentation.facet_tables` or `generator_tables`) is
    called here with `unit`, whose strings start with their separator.  The
    row of tuple t is its body, the entries `tables[k][t[k]]` and the tail
    with the first separator cut, in the brackets `row` (`empty` for a body
    ""); each prefix and each shared suffix list of the walk's groups is
    joined once, and a group's rows make one piece, led by the list's open
    or sep.  The list's close ends it, or its `empty` stands for no row.
    """
    tables, groups, tail = encoding(unit, "")
    open_, sep, close, empty = row
    first, later, end, none = brackets
    cut, glue, lead, joined = len(sep), close + later, first, {}
    for prefix, tails in groups:
        strs = joined.get(id(tails))
        if strs is None:
            rest = tables[len(prefix):]
            strs = joined[id(tails)] = ["".join(map(getitem, rest, t)) + tail for t in tails]
        if strs:
            pre = "".join(map(getitem, tables, prefix))
            if pre:
                pre = open_ + pre[cut:]
                yield f"{lead}{pre}{(glue + pre).join(strs)}{close}"
            else:
                yield lead + later.join([open_ + s[cut:] + close if s else empty for s in strs])
            lead = later
    yield end if any(joined.values()) else none


def _presentation(pres: SRPresentation, lead: str, tail: str) -> Iterator[str]:
    """lead + "C[vars] / (gens)" + tail, gens (or "-") the monomials of the
    generators in their order, joined from the label tables of
    `SRPresentation.generator_tables` when the iteration reaches them.  Its
    label units carry no separator, so a monomial's brackets are empty."""
    head = f"{lead}C[{', '.join(v.label() for v in pres.variables) or '-'}] / ("
    return _rows(pres.generator_tables, SRVariable.label, ("", "", "", ""),
                 (head, ", ", ")" + tail, head + "-)" + tail))


def _presentation_payload(pres: SRPresentation, degree: int) -> dict:
    """The alambda payload but its pair, with the presentation and the facet
    and generator lists as `_rows` generators.  The labels of the presentation
    are ASCII without '"' or '\\', so in quotes it is already its JSON string."""
    flags = pres.flags()
    pair = pres.pair
    return {
        "weight": pres.lam.format(),
        "caps": {str(i): pres.caps[i] for i in pair.rs.nodes},
        "variables": [[v.node, v.level, v.degree] for v in pres.variables],
        "krull_dim": pres.krull_dim(),
        "d_lambda": pres.d_lambda() if pres.jac_zero else None,
        "hilbert": _hilbert_payload(pres.hilbert_series(degree)),
        "flags": {**flags, "koszul": "true" if flags["koszul"] else "unknown"},
        "verdicts": {
            "alambda_trivial": weylcrit.is_alambda_trivial(pair, pres.lam),
            "global_weyl_irreducible": weylcrit.is_global_weyl_irreducible(pair, pres.lam),
        },
        "presentation": _presentation(pres, '"', '"'),
        "facets": _rows(pres.facet_tables, _json_unit, _JSON_ROW, _JSON_LIST),
        "generators": _rows(pres.generator_tables, _json_unit, _JSON_ROW, _JSON_LIST),
    }


def cmd_alambda(args):
    pair = _resolve_pair(args)
    pres = presentation(pair, _resolve_weight(pair, args))
    payload = {"pair": _pair_payload(pair), **_presentation_payload(pres, args.degree)}
    hs, v = payload["hilbert"], payload["verdicts"]
    lower = lambda b: str(b).lower() if isinstance(b, bool) else b
    return payload, lambda: [
        f"pair: {pair.describe()}",
        f"weight: {payload['weight']}",
        _presentation(pres, "presentation: ", "" if pres.variables else "   (A_lambda = C)"),
        f"Krull dimension: {payload['krull_dim']}",
        _rows(pres.facet_tables, _text_unit, _TEXT_ROW, ("facets: ", "; ", "", "facets: {}")),
        f"Hilbert coefficients to degree {args.degree}: {hs['coefficients']}",
        *([f"Hilbert closed form: {hs['closed_form']['display']}"] if hs["closed_form"] else []),
        "flags: " + " ".join(f"{k}={lower(flag)}" for k, flag in payload["flags"].items()),
        f"A_lambda trivial (one-dimensional modulo radical): {lower(v['alambda_trivial'])}",
        f"W(lambda) irreducible: {lower(v['global_weyl_irreducible'])}",
    ], 0


def cmd_hilbert(args):
    pair = _resolve_pair(args)
    lam = _resolve_weight(pair, args)
    pres = presentation(pair, lam)
    payload = {"weight": lam.format(), **_hilbert_payload(pres.hilbert_series(args.degree))}
    cf = payload["closed_form"]
    return payload, lambda: [
        f"Hilbert coefficients to degree {args.degree}: {payload['coefficients']}",
        *([f"closed form: {cf['display']}"] if cf else []),
    ], 0


def cmd_localdim(args):
    pair = _resolve_pair(args)
    rep = weylcrit.local_weyl_dim_report(pair, args.fundamental, args.power)
    payload = {
        "fundamental": rep.node,
        "power": rep.multiplicity,
        "value": rep.value,
        "displayed_value": rep.displayed_value,
        "displayed_mismatch": rep.mismatch,
        "spin_value": rep.spin_value,
    }
    shown, spin = payload["displayed_value"], payload["spin_value"]
    mismatch = " (MISMATCH with the telescoped value)" if payload["displayed_mismatch"] else ""
    return payload, lambda: [
        f"dim W_loc({payload['power']} * lambda_{payload['fundamental']}) = {payload['value']}",
        *([f"displayed closed form gives {shown}{mismatch}"] if shown is not None else []),
        *([f"graded fiber at the spin node is irreducible of dimension {spin}"]
          if spin is not None else []),
    ], 0


def cmd_idealpoint(args):
    pair = _resolve_pair(args)
    lam = _resolve_weight(pair, args)
    rng = random.Random(args.seed)
    params = draw_eval_params(pair, lam, rng, args.points)
    point = weylcrit.ideal_point_from_params(pair, lam, params)
    payload = {
        "weight": lam.format(),
        "seed": args.seed,
        "mu": params.mu.format(),
        "mu_h0": point.mu_h0,
        "points": [{"z_power": str(p.z_power), "weight": list(p.weight.values)}
                   for p in params.points],
        "pi": {f"{i},{r}": str(c) for (i, r), c in sorted(point.nonzero_entries().items())},
        "degrees": [point.degree(i) for i in pair.rs.nodes],
        "verified": True,
    }
    return payload, lambda: [
        f"weight: {lam.format()}  mu: {params.mu.format()}",
        "points: " + ("; ".join(
            f"z^a_j={p.z_power}, weight={list(p.weight.values)}" for p in params.points) or "none"),
        "pi entries: " + (", ".join(f"pi[{k}]={v}" for k, v in payload["pi"].items()) or "all zero"),
        "presentation relations and degree identity: verified",
    ], 0


def cmd_garland_check(args):
    pair = _resolve_pair(args)
    garland.check_order(pair.rs.rank, args.order)
    failures = [f for alpha in pair.rs.positive_roots
                for f in garland.root_failures(pair, alpha, args.order)]
    payload = {
        "order": args.order,
        "roots_checked": len(pair.rs.positive_roots),
        "failures": failures,
        "status": "pass" if not failures else "fail",
    }
    return payload, lambda: [
        f"garland checks at order {args.order} over {payload['roots_checked']} positive roots: "
        + payload["status"],
        *(f"  FAIL {f['check']} at root {f['root']}, first differing coefficient u^{f.get('order')}"
          for f in failures),
    ], 0 if not failures else 1


def cmd_verify_all(args):
    results = run_all(max_rank=args.max_rank, seed=args.seed)
    payload = {
        "max_rank": args.max_rank,
        "seed": args.seed,
        "results": [{"name": r.name, "ok": r.ok, "detail": r.detail} for r in results],
        "status": "pass" if all(r.ok for r in results) else "fail",
    }
    code = 0 if payload["status"] == "pass" else 1
    return payload, lambda: [
        *(f"{'pass' if r['ok'] else 'FAIL'}  {r['name']}"
          + (f"  [{r['detail']}]" if r["detail"] else "") for r in payload["results"]),
        f"overall: {payload['status']}",
    ], code


class _Arg(NamedTuple):
    """One argument of a subcommand: a positional, or an option when `name` is
    a `--flag`.  `type` converts the token (None keeps the string); `exclusive`
    puts the option in the subcommand's one mutually exclusive group."""

    name: str
    type: Callable[[str], int] | None = None
    default: object = None
    choices: tuple[str, ...] | None = None
    required: bool = False
    help: str | None = None
    exclusive: bool = False

    @property
    def dest(self) -> str:
        return self.name.lstrip("-").replace("-", "_")


class _Command:
    """A subcommand: its name, its help, the name of its `cmd_*` function and
    its arguments in the order the help lists them; then what `_plain_args`
    reads of them.  The function is looked up in the module at parse time, so
    a wrapper bound to that name is what runs."""

    __slots__ = ("name", "help", "func", "args", "positionals", "options", "defaults",
                 "required", "exclusive")

    def __init__(self, name: str, help: str, func: str, *args: _Arg):
        self.name, self.help, self.func, self.args = name, help, func, args
        self.positionals = tuple(a for a in args if not a.name.startswith("-"))
        self.options = {a.name: a for a in args if a.name.startswith("-")}
        self.defaults = {"command": name, **{a.dest: a.default for a in args}}
        self.required = frozenset(flag for flag, a in self.options.items() if a.required)
        self.exclusive = frozenset(flag for flag, a in self.options.items() if a.exclusive)


_PAIR_ARGS = (
    _Arg("type", choices=tuple("ABCDEFG"), help="simple type letter"),
    _Arg("rank", int, help="rank of the root system"),
    _Arg("--node", int, help="node j with mark >= 2"),
)
_WEIGHT_ARGS = (
    _Arg("--weight", help="subalgebra weight, e.g. 'h2=1,h0=1' (default 0)", exclusive=True),
    _Arg("--delta-weight", help="ambient dominant weight, e.g. 'h1=0,h2=1,h3=0'; "
                                "converted to subalgebra coordinates", exclusive=True),
)
_DEGREE = _Arg("--degree", int, 24, help="Hilbert truncation degree")
_FORMAT = _Arg("--format", default="text", choices=("text", "json"))
_SEED = _Arg("--seed", int, 0)

COMMANDS = {c.name: c for c in (
    _Command("pair", "structure constants of the pair (g, g0)", "cmd_pair",
             *_PAIR_ARGS, _FORMAT),
    _Command("alambda", "presentation, facets, Hilbert series, flags, criteria", "cmd_alambda",
             *_PAIR_ARGS, *_WEIGHT_ARGS, _DEGREE, _FORMAT),
    _Command("hilbert", "Hilbert series only", "cmd_hilbert",
             *_PAIR_ARGS, *_WEIGHT_ARGS, _DEGREE, _FORMAT),
    _Command("localdim", "local Weyl module dimension for (B_n, D_n)", "cmd_localdim",
             *_PAIR_ARGS, _FORMAT,
             _Arg("--fundamental", int, required=True,
                  help="index i of the fundamental subalgebra weight (0..n-1)"),
             _Arg("--power", int, 1, help="multiplicity r")),
    _Command("idealpoint", "random evaluation-parameter point, verified", "cmd_idealpoint",
             *_PAIR_ARGS, *_WEIGHT_ARGS, _FORMAT, _SEED,
             _Arg("--points", int, 2, help="number of evaluation points")),
    _Command("garland-check", "generating-series identities for P[alpha,r]", "cmd_garland_check",
             *_PAIR_ARGS, _FORMAT, _Arg("--order", int, 3, help="truncation order N")),
    _Command("verify-all", "run the whole invariant suite", "cmd_verify_all",
             _Arg("--max-rank", int, 5), _SEED, _FORMAT),
)}


@lru_cache(maxsize=1)
def build_parser():
    """The argparse parser of `COMMANDS`, built on the first call and shared by
    every `main` whose argv `_plain_args` does not take."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="bdsweyl",
        description="Exact computations for Borel-de Siebenthal pairs, the "
                    "Stanley-Reisner presentation of global Weyl module endomorphism "
                    "algebras, and local Weyl module dimensions.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS.values():
        p = sub.add_parser(command.name, help=command.help)
        group = None
        for arg in command.args:
            kwargs = {"type": arg.type, "default": arg.default, "choices": arg.choices,
                      "help": arg.help}
            if arg in command.positionals:
                p.add_argument(arg.name, **kwargs)
            elif arg.exclusive:
                group = group or p.add_mutually_exclusive_group()
                group.add_argument(arg.name, required=arg.required, **kwargs)
            else:
                p.add_argument(arg.name, required=arg.required, **kwargs)
        p.set_defaults(func=globals()[command.func])
    return parser


_NOT_PLAIN = object()


def _plain_value(arg: _Arg, token: str):
    """`token` read as `arg`, or `_NOT_PLAIN` for a token that starts with '-',
    fails `int` or is not one of the choices."""
    if token.startswith("-"):
        return _NOT_PLAIN
    if arg.type is not None:
        try:
            token = arg.type(token)
        except ValueError:
            return _NOT_PLAIN
    if arg.choices is not None and token not in arg.choices:
        return _NOT_PLAIN
    return token


def _plain_args(argv) -> SimpleNamespace | None:
    """The namespace `build_parser().parse_args(argv)` returns, for an argv in
    the plain form; None for any other argv, which argparse then reads.

    The plain form is an exact subcommand name, its positionals in order, then
    `--flag value` pairs of its exact flags, each flag at most once.  No token
    after the name starts with '-', every int reads by `int`, every choice is
    one of its list, at most one flag of the exclusive group is given and every
    required flag is.  So help, abbreviations, `--flag=value`, repeated flags,
    negative values and every usage error are left to argparse.
    """
    command = COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    start = len(command.positionals) + 1
    if len(argv) < start or (len(argv) - start) % 2:
        return None
    values = dict(command.defaults)
    for arg, token in zip(command.positionals, argv[1:]):
        value = values[arg.dest] = _plain_value(arg, token)
        if value is _NOT_PLAIN:
            return None
    seen = set()
    for k in range(start, len(argv), 2):
        flag = argv[k]
        arg = command.options.get(flag)
        if arg is None or flag in seen:
            return None
        seen.add(flag)
        value = values[arg.dest] = _plain_value(arg, argv[k + 1])
        if value is _NOT_PLAIN:
            return None
    if not command.required <= seen or len(command.exclusive & seen) > 1:
        return None
    values["func"] = globals()[command.func]
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _plain_args(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        payload, text, code = args.func(args)
        if args.format == "json":
            parts = [*_json({"schema_version": SCHEMA_VERSION, "command": args.command, **payload}),
                     "\n"]
        else:
            parts = [part for line in text() for part in (line, "\n")]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"property failure: {exc}", file=sys.stderr)
        return 1
    try:
        _write(parts, sys.stdout.write)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left: send the flush at interpreter exit to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
