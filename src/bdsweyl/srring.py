"""Stanley-Reisner presentation of the highest-weight endomorphism algebra.

For a pair (g, g0) and a dominant weight lam of the fixed-point subalgebra
(values on h_i for i in I(j) and on h_0), the semisimple quotient of the
endomorphism algebra of the global Weyl module is the quotient of a
polynomial ring in finitely many surviving generators P[i,r] by a squarefree
monomial ideal.  This module computes the surviving variables, the minimal
monomial generators, the associated simplicial complex with its facets and
shellings, and the graded Hilbert series (with a brute-force counting oracle).

The t-degree of P[i,r] is a_j * r.  A set sigma of variables is a face iff

    sum_i comark_i(alpha_0) * max{r : P[i,r] in sigma} <= lam(h_0),

and the minimal generators are the inclusion-minimal violating sets, which
take at most one variable per node.  So every degree is a multiple of a_j:
the Hilbert route works in q = t^{a_j} and spreads its result to t at the end.
"""

from __future__ import annotations

import re
from collections import Counter
from functools import cached_property, reduce
from itertools import accumulate, chain, compress, repeat
from operator import add, and_, ge, getitem, gt, lt, mul, neg, sub
from typing import Callable, Hashable, Iterable, Mapping, NamedTuple, Sequence

from .bdspair import BdsPair
from .rootsys import format_terms, frozen, require

# Largest accepted sum of the variable degrees, sum_i a_j * cap_i (cap_i + 1) / 2.
# That sum is the t-degree of the Hilbert series denominator and bounds the
# length of the unreduced numerator, so a presentation over it is refused
# before anything is enumerated.  It also bounds the truncation degree, the
# length of every expanded series.  It is stated in t; the q-lists of the
# Hilbert route are that length over a_j.
MAX_NUMERATOR_LENGTH = 100_000

# Largest accepted number of facets.  `facet_count` counts them by a DP before
# the walk lists them, so a presentation over it is refused at once.  The
# facet list is printed whole by `alambda`: at 8418 facets (D12 at node 6,
# weight 4 on every node, h0 = 16) the JSON is 12.9 MB.
MAX_FACETS = 10_000


def parse_weight_spec(spec: str) -> dict[int, int]:
    """Parse comma-separated 'hN=V' components into {N: V}; V may be signed.
    '' and '0' (the zero weight as `Weight0.format` prints it) give {}; a
    malformed component or a repeated key raises ValueError."""
    vals: dict[int, int] = {}
    if spec.strip() in ("", "0"):
        return vals
    for part in spec.split(","):
        m = re.fullmatch(r"\s*h(\d+)\s*=\s*([+-]?\d+)\s*", part)
        if not m:
            raise ValueError(f"bad weight component {part!r}; expected like 'h2=1'")
        node = int(m.group(1))
        if node in vals:
            raise ValueError(f"weight key h{node} given more than once")
        vals[node] = int(m.group(2))
    return vals


class Weight0(Mapping[int, int]):
    """Dominant integral weight for the fixed-point subalgebra.

    Keys are the Delta_0 labels: nodes i in I(j) for the values lam(h_i)
    and 0 for lam(h_0).  A missing key reads 0 but is not `in` the weight.
    """

    def __init__(self, values: Mapping[int, int] | None = None):
        vals = {int(k): int(v) for k, v in (values or {}).items() if v != 0}
        if any(v < 0 for v in vals.values()):
            raise ValueError(f"weight values must be non-negative, got {values}")
        self._values = vals

    @classmethod
    def parse(cls, spec: str) -> "Weight0":
        """Parse a spec like 'h2=1,h0=1'; see `parse_weight_spec`."""
        return cls(parse_weight_spec(spec))

    def __getitem__(self, key: int) -> int:
        return self._values.get(key, 0)

    def get(self, key: int, default: int = 0) -> int:
        return self._values.get(key, default)

    def __contains__(self, key) -> bool:
        return key in self._values

    def __iter__(self):
        return iter(sorted(self._values))

    def __len__(self) -> int:
        return len(self._values)

    def __eq__(self, other) -> bool:
        if isinstance(other, Weight0):
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._values.items()))

    def format(self) -> str:
        items = sorted(self._values.items(), key=lambda kv: (kv[0] == 0, kv[0]))
        return ",".join(f"h{k}={v}" for k, v in items) or "0"

    def __repr__(self) -> str:
        return f"Weight0({self.format()})"


class SRVariable(NamedTuple):
    """A surviving polynomial generator P[node, level] of t-degree a_j * level."""

    node: int
    level: int
    degree: int

    def label(self) -> str:
        return f"P({self.node},{self.level})"


@frozen
class SimplicialComplex(NamedTuple):
    """A finite simplicial complex given by its facet list."""

    facets: tuple[frozenset, ...]

    def __post_init__(self):
        # Facet b contains a iff bit b is set in the mask of every vertex of a,
        # so a is maximal iff that AND leaves only its own bit.  Facets are
        # told apart by identity: the same object listed twice is one facet.
        facets = list({id(f): f for f in self.facets}.values())
        masks: dict = {}
        for bit, f in enumerate(facets):
            for v in f:
                masks[v] = masks.get(v, 0) | 1 << bit
        everything = (1 << len(facets)) - 1
        for bit, a in enumerate(facets):
            if reduce(and_, map(masks.__getitem__, a), everything) != 1 << bit:
                raise ValueError("facet list contains a non-maximal face")


def _attaches(earlier: Iterable[frozenset], cand: frozenset) -> bool:
    """The shelling step: every maximal intersection of cand with an earlier
    facet has len(cand) - 1 vertices.  True when nothing came earlier."""
    inters = {f & cand for f in earlier}
    maximal = [a for a in inters if not any(a < b for b in inters)]
    return all(len(a) == len(cand) - 1 for a in maximal)


def verify_shelling(complex_: SimplicialComplex, order: Sequence[frozenset]) -> bool:
    """Literal shelling test: each facet must meet the union of the earlier
    ones in a pure subcomplex of dimension dim(F_r) - 1."""
    if sorted(map(sorted, order)) != sorted(map(sorted, complex_.facets)):
        raise ValueError("order is not a permutation of the facet list")
    return all(_attaches(order[:r], order[r]) for r in range(1, len(order)))


def find_shelling(complex_: SimplicialComplex) -> tuple[frozenset, ...] | None:
    """Backtracking search for a shelling order, bounded by `budget` candidate
    steps; None means 'not found within budget', never 'not shellable'."""
    budget = 20000
    facets = list(complex_.facets)
    steps = [0]

    def extend(prefix: list[frozenset], rest: list[frozenset]):
        if steps[0] > budget:
            return None
        if not rest:
            return tuple(prefix)
        for k, cand in enumerate(rest):
            steps[0] += 1
            if _attaches(prefix, cand):
                got = extend(prefix + [cand], rest[:k] + rest[k + 1:])
                if got is not None:
                    return got
        return None

    return extend([], facets)


@frozen
class ClosedForm(NamedTuple):
    """Rational form numerator / prod_d (1 - x^d), d over `denominator`; x is q = t^{a_j} or t."""

    numerator: tuple[int, ...]
    denominator: tuple[int, ...]

    def coefficients(self, D: int) -> tuple[int, ...]:
        out = list(self.numerator[:D + 1])
        out += [0] * (D + 1 - len(out))
        for d in self.denominator:
            for k in range(d, D + 1):
                out[k] += out[k - d]
        return tuple(out)

    def format(self) -> str:
        num = _format_poly(self.numerator)
        if not self.denominator:
            return num
        den = "".join(f"(1-t^{d})" for d in sorted(self.denominator))
        return f"({num}) / {den}"


@frozen
class HilbertSeries(NamedTuple):
    """Exact truncated Hilbert series, with a closed rational form when available."""

    truncation_degree: int
    coefficients: tuple[int, ...]
    closed_form: ClosedForm | None = None

    def __post_init__(self):
        coeffs = self.coefficients
        require(coeffs[0] == 1, "Hilbert series: constant coefficient {} != 1", coeffs[0])
        require(all(c >= 0 for c in coeffs), "Hilbert series: negative coefficient in {}", coeffs)


def _walk(n: int, children: Callable[[int, Hashable], list[tuple[int, Hashable]]],
          start: Hashable) -> list[tuple[tuple[int, ...], list[tuple[int, ...]]]]:
    """The level tuples of a walk over n nodes from `start`, in child order, as (prefix, suffixes) groups.

    `children(idx, state)` lists the (level, next state) pairs node idx offers
    in state, in output order.  They depend on idx and the state alone, so
    every prefix that reaches a state shares its suffixes (the meet-in-the-
    middle split of Horowitz and Sahni).  The prefixes over the first n // 2
    nodes are built once each, level by level, and grouped with the suffix
    list of their state, which `_suffixes` memoizes per (idx, state): one list
    object a state, maybe empty.  A memo from the first node on held every
    state's list, and was slower.  The memo dies with the call, and
    `_suffixes` is a module function, not a closure over itself or a
    presentation, so no reference cycle outlives the call.
    """
    half, memo = n // 2, {}
    level = [((), start)]
    for idx in range(half):
        level = [(prefix + (r,), nxt) for prefix, state in level for r, nxt in children(idx, state)]
    return [(p, _suffixes(half, state, n, children, memo)) for p, state in level] if n else [((), [()])]


def _suffixes(idx: int, state: Hashable, n: int, children: Callable, memo: dict) -> list:
    """The level tuples of nodes idx..n - 1 from state, in child order, memoized by (idx, state)."""
    key = (idx, state)
    if key not in memo:
        memo[key] = [(r,) for r, _ in children(idx, state)] if idx == n - 1 else [
            (r, *tail) for r, nxt in children(idx, state)
            for tail in _suffixes(idx + 1, nxt, n, children, memo)]
    return memo[key]


class SRPresentation:
    """Surviving variables and minimal relations for a pair and a weight."""

    def __init__(self, pair: BdsPair, lam: Weight0):
        pair.check_delta0_keys(lam)
        self.pair = pair
        self.lam = lam
        self.h0 = lam[0]
        self.comarks = pair.comarks_alpha0
        self.caps = self._caps()
        length = pair.a_j * sum(c * (c + 1) // 2 for c in self.caps.values())
        if length > MAX_NUMERATOR_LENGTH:
            raise ValueError(f"weight too large: the variable degrees sum to {length}, above the "
                             f"limit {MAX_NUMERATOR_LENGTH} on the Hilbert numerator length")

    def _caps(self) -> dict[int, int]:
        pair = self.pair
        caps = {}
        for i in pair.rs.nodes:
            c = self.comarks[i - 1]
            if i == pair.j:
                caps[i] = self.h0 // c
            elif c == 0:
                caps[i] = self.lam[i]
            else:
                caps[i] = min(self.lam[i], self.h0 // c)
        return caps

    @cached_property
    def variables(self) -> tuple[SRVariable, ...]:
        return tuple(v for i in self.pair.rs.nodes for v in self._by_node[i])

    @cached_property
    def _by_node(self) -> dict[int, tuple[SRVariable, ...]]:
        """The variables of each node by level: `_by_node[i][r - 1]` is P[i, r].
        Facets and generators are built from these objects, never from copies."""
        a_j = self.pair.a_j
        return {i: tuple(SRVariable(i, r, a_j * r) for r in range(1, self.caps[i] + 1))
                for i in self.pair.rs.nodes}

    @cached_property
    def _variable_set(self) -> frozenset:
        return frozenset(self.variables)

    @property
    def free_nodes(self) -> tuple[int, ...]:
        return tuple(i for i in self.pair.rs.nodes
                     if self.comarks[i - 1] == 0 and self.caps[i] > 0)

    @property
    def constrained_nodes(self) -> tuple[int, ...]:
        return tuple(i for i in self.pair.rs.nodes
                     if self.comarks[i - 1] > 0 and self.caps[i] > 0)

    @property
    def support_nodes(self) -> tuple[int, ...]:
        """Nodes carried by alpha_0 (positive mark); always includes j."""
        return tuple(i for i in self.pair.rs.nodes if self.pair.marks_alpha0[i - 1] > 0)

    @property
    def two_support_nodes(self) -> bool:
        return len(self.support_nodes) == 2

    @property
    def jac_zero(self) -> bool:
        return self.comarks[self.pair.j - 1] == 1

    # -- relations ---------------------------------------------------------

    @cached_property
    def _walk_bounds(self) -> tuple[list[int], list[int], list[int]]:
        """At each constrained node, in order: its comark w, its cap, and rest,
        the most the nodes after it can take (the sum of their w * cap)."""
        nodes = self.constrained_nodes
        weights = [self.comarks[i - 1] for i in nodes]
        caps = [self.caps[i] for i in nodes]
        rests = list(accumulate(reversed([w * c for w, c in zip(weights, caps)]), initial=0))
        return weights, caps, rests[-2::-1]

    @cached_property
    def generators(self) -> tuple[frozenset, ...]:
        """Minimal generators of the monomial ideal: the inclusion-minimal
        sets of variables (one per node) whose weighted level sum exceeds
        lam(h_0), in the order of `_generator_levels`."""
        tables = self.generator_tables(lambda v: v, None)[0]
        return tuple(frozenset(filter(None, map(getitem, tables, g))) for g in self._generator_levels)

    def generator_tables(self, unit: Callable[[SRVariable], object], empty) -> tuple:
        """The generator encoding (tables, groups, tail), the groups of `_generator_levels`:
        the k-th table holds `empty` at level 0, then unit(P[i, r]), and the tail is
        `empty`.  So generator g (a group's prefix + suffix) is the entries `tables[k][g[k]]`."""
        return ([[empty, *map(unit, self._by_node[i])] for i in self.constrained_nodes],
                self._generator_walk[1], empty)

    @cached_property
    def _generator_walk(self) -> tuple[tuple[tuple[int, ...], ...], list]:
        """The levels of each generator at the constrained nodes (0: none), and their groups.

        Single-variable violations are absorbed into the caps, so every
        generator has at least two variables.  A violating level tuple is
        minimal iff total - h0 <= least, the smallest w * r chosen; along the
        walk total only grows and least only shrinks, so a prefix with
        total - h0 > least is pruned, and so is a prefix with total + rest <=
        h0, which no later levels take over h0.  For r >= 1 both bounds are
        one range: the prefix stays minimal iff total <= h0 and r <= (h0 +
        least - total) // w, and it is kept iff r > (h0 - rest - total) // w.
        So every tuple `_walk` lists over the state (total, least) is a
        generator, and every generator is listed.

        The tuples come out in mixed-radix order, the levels read with 0 as
        cap + 1: each node offers its levels from the lowest up, then 0.  That
        is the order of the generators sorted as sorted variable lists: at the
        first node where two generators differ, the one without a variable
        there has one of a later node, which sorts after P[i, r]; neither can
        end there, since no generator contains another.
        """
        weights, caps, rests = self._walk_bounds
        h0 = self.h0

        def children(idx: int, state: tuple[int, int]) -> list:
            total, least = state
            w, rest = weights[idx], rests[idx]
            # the levels r >= 1 that keep the prefix minimal and can still violate
            kept = range(max(1, (h0 - rest - total) // w + 1),
                         min(caps[idx], (h0 + least - total) // w) + 1 if total <= h0 else 1)
            out = [(r, (total + w * r, min(least, w * r))) for r in kept]
            if total - h0 <= least and total + rest > h0:
                out.append((0, state))
            return out

        # every w * r is at most h0, so h0 + 1 stands for "nothing chosen yet"
        groups = _walk(len(weights), children, (0, h0 + 1)) if weights else []
        return tuple(p + s for p, tails in groups for s in tails), groups

    _generator_levels = property(lambda self: self._generator_walk[0])

    def face_predicate(self, sigma: Iterable[SRVariable]) -> bool:
        """Whether sigma is a face: no generator divides its product."""
        sigma = frozenset(sigma)
        stray = sigma - self._variable_set
        if stray:
            raise ValueError(f"{sorted(stray)} are not surviving variables")
        tops: dict[int, int] = {}
        for v in sigma:
            tops[v.node] = max(tops.get(v.node, 0), v.level)
        weighted = sum(self.comarks[i - 1] * r for i, r in tops.items())
        return weighted <= self.h0

    # -- simplicial complex --------------------------------------------------

    def facet_count(self) -> int:
        """The number of facets, counted without the walk of `_tops`: its
        independent check, so it stays its own DP.

        A top-level tuple t is a facet iff the budget it leaves, lam(h_0) -
        sum_i w_i t_i, is below the least weight of a node not at its cap.  A DP
        over the constrained nodes maps (budget left, that least weight) to the
        number of tuples of the nodes placed so far.
        """
        states = {(self.h0, self.h0 + 1): 1}  # h0 + 1: every node so far at its cap
        for w, cap, _ in zip(*self._walk_bounds):
            new: dict[tuple[int, int], int] = {}
            for (left, least), n in states.items():
                for m in range(min(cap, left // w) + 1):
                    key = (left - w * m, least if m == cap else min(least, w))
                    new[key] = new.get(key, 0) + n
            states = new
        return sum(n for (left, least), n in states.items() if left < least)

    @cached_property
    def _facet_walk(self) -> tuple[tuple[tuple[int, ...], ...], list]:
        """Top levels of the maximal faces on the constrained nodes, one tuple
        per facet, listed by `_walk` over the state (budget left, least
        weight of a node not at its cap), and the walk's groups they expand.
        A presentation with more than MAX_FACETS facets is refused first.

        A tuple is maximal iff the budget it leaves is below the least weight
        of a node not at its cap (`facet_count`).  The later nodes can take at
        most rest, so a level that would leave at least that weight with every
        later node at its cap is never offered, and every leaf is a facet.

        Each node offers its levels from the highest down, so the tuples come
        out in descending lexicographic order.  That is the order of the
        facets sorted as sorted variable lists: at the first node where two
        tuples differ, the larger top puts P[i, s + 1] where the other facet
        has a variable of a later node (it cannot end there, being maximal).

        The facets stay these tuples on the query path, and their groups in
        `facet_tables`.  After the walk each tuple is checked maximal by that
        rule, the list strictly descending (`_check_tops`) and as long as
        `facet_count`, so it is every facet once.  The checks go through
        `require`, so they hold under `python -O`."""
        count = self.facet_count()
        if count > MAX_FACETS:
            raise ValueError(f"too many facets: the complex has {count}, above the limit "
                             f"{MAX_FACETS}")
        weights, caps, rests = self._walk_bounds

        def children(idx: int, state: tuple[int, int]) -> list:
            budget, least = state
            w, cap, rest = weights[idx], caps[idx], rests[idx]
            return [(m, (left, below)) for m in range(min(cap, budget // w), -1, -1)
                    if (left := budget - w * m) - rest < (below := least if m == cap else min(least, w))]

        groups = _walk(len(weights), children, (self.h0, self.h0 + 1))
        out = [p + s for p, tails in groups for s in tails]
        self._check_tops(out)
        require(len(out) == count, "facets: the walk listed {} tuples, the count is {}",
                len(out), count)
        return tuple(out), groups

    _tops = property(lambda self: self._facet_walk[0])

    def _check_tops(self, tops: Sequence[tuple[int, ...]]) -> None:
        """Require each top-level tuple maximal and the list strictly descending.

        Tuple t, with 0 <= t_i <= cap_i, is maximal iff it leaves budget left =
        lam(h_0) - sum_i w_i t_i >= 0, and left < w_i at every node with t_i <
        cap_i.  Distinct maximal tuples form an antichain, the guarantee of the
        bitmask check in `SimplicialComplex`, and none of this repeats the
        walk's pruning.  The budgets are summed a node column at a time, and
        only a tuple that leaves at least the least weight is read node by node.
        """
        weights, caps, _ = self._walk_bounds
        columns = list(zip(*tops))
        require(all(min(column) >= 0 and max(column) <= cap for column, cap in zip(columns, caps)),
                "facets: a top level outside 0..cap")
        lefts = [self.h0] * len(tops)
        for w, column in zip(weights, columns):
            lefts = list(map(sub, lefts, map(mul, column, repeat(w))))
        bad = next(compress(tops, map(lt, lefts, repeat(0))), None)
        require(bad is None, "facets: top levels {} exceed lam(h_0)", bad)
        least = min(weights, default=0)
        for t, left in compress(zip(tops, lefts), map(ge, lefts, repeat(least))):
            require(all(left < w for w, m, cap in zip(weights, t, caps) if m < cap),
                    "facets: top levels {} are not maximal", t)
        require(all(map(gt, tops, tops[1:])), "facets: top-level tuples not strictly descending")

    def facet_tables(self, unit: Callable[[SRVariable], object], empty) -> tuple:
        """The facet encoding (tables, groups, tail), the groups of `_tops`.  Entry
        m of the k-th table, at constrained node i, sums from `empty` the units of
        the free nodes since the constrained node before i, then of P[i, 1..m]; the
        tail sums those after the last one.  So facet t, a group's prefix + suffix,
        is the entries `tables[k][t[k]]` and the tail; a node of cap 0 adds `empty`."""
        groups, constrained = self._facet_walk[1], set(self.constrained_nodes)
        tables, fixed = [], empty  # fixed: the free nodes not yet in a table
        for i in self.pair.rs.nodes:
            prefixes = list(accumulate(map(unit, self._by_node[i]), initial=empty))
            if i in constrained:
                tables.append([fixed + p for p in prefixes])
                fixed = empty
            else:
                fixed += prefixes[-1]
        return tables, groups, fixed

    @cached_property
    def _complex(self) -> SimplicialComplex:
        """The facets as frozensets in walk order, which is their sorted order
        (`_tops`), built from 1-tuple units; `SimplicialComplex` checks them
        maximal by bitmasks."""
        tables, _, tail = self.facet_tables(lambda v: (v,), ())
        facets = tuple(frozenset(chain(tail, *map(getitem, tables, t))) for t in self._tops)
        return SimplicialComplex(facets)

    def facets(self) -> SimplicialComplex:
        """The simplicial complex of the presentation, built once: the
        frozenset view of `_tops` for the shelling code and the oracles.  The
        query path (`krull_dim`, `flags`, the `alambda` rows) reads the tuples."""
        return self._complex

    def krull_dim(self) -> int:
        """Krull dimension = maximal facet cardinality, read from `_tops`;
        checked against the closed form lam(h_0) + sum over mark-zero nodes
        when it applies."""
        dim = sum(self.caps[i] for i in self.free_nodes) + max(map(sum, self._tops))
        if self.jac_zero:
            d = self.d_lambda()
            require(dim == d, "krull_dim: maximal facet size {} != d_lambda {}", dim, d)
        return dim

    def d_lambda(self) -> int:
        return self.h0 + sum(self.lam[i] for i in self.pair.rs.nodes
                             if self.pair.marks_alpha0[i - 1] == 0 and i != self.pair.j)

    # -- Hilbert series --------------------------------------------------------

    def hilbert_series(self, D: int) -> HilbertSeries:
        """Graded dimensions to degree D, expanded once from the rational form
        N(q) / prod_v (1 - q^level v) in q = t^{a_j} built by `_closed_form`.

        N is truncated at q-degree D // a_j unless jac_zero holds.  Then the
        form is reduced by cancelling factors, checked by the exact identity
        N_red * prod(cancelled) = N (so the two agree at every degree) and
        expanded; it is spread to t, as the series is, and is `closed_form`.
        """
        if D < 0:
            raise ValueError("truncation degree must be >= 0")
        if D > MAX_NUMERATOR_LENGTH:
            raise ValueError(f"truncation degree {D} is above the limit {MAX_NUMERATOR_LENGTH}")
        a_j = self.pair.a_j
        form, closed = self._closed_form(D // a_j), None
        if self.jac_zero:
            num, left = _cancel(form.numerator, form.denominator)
            cancelled = Counter(form.denominator)
            cancelled.subtract(left)  # a negative count: a factor left that was never there
            back = reduce(_times_one_minus_td, cancelled.elements(), num)
            require(min(cancelled.values(), default=0) >= 0
                    and _trim(back) == _trim(list(form.numerator)),
                    "hilbert_series: closed form != expansion")
            form = ClosedForm(tuple(num), tuple(left))
            closed = ClosedForm(_spread(num, a_j, a_j * len(num) - a_j + 1), tuple(a_j * d for d in left))
        return HilbertSeries(D, _spread(form.coefficients(D // a_j), a_j, D + 1), closed)

    def _closed_form(self, D: int) -> ClosedForm:
        """Unreduced rational form in q = t^{a_j}: a budget DP over the constrained nodes.

        A monomial in the quotient is nonzero iff its support is a face, and a
        face is fixed by its top level m at each constrained node.  Over the
        denominator prod_{r<=cap} (1 - q^r), top level m at node i contributes
        q^m Q_m = Q_m - Q_{m-1}, where Q_M = prod_{M<r<=cap} (1 - q^r) and Q_{-1}
        = 0; free nodes contribute 1.

        The DP maps the budget of lam(h_0) still left, clamped to rest (the sum
        of w * cap over the constrained nodes not yet placed), to the sum of
        the products of the terms of the nodes already placed: any budget of at
        least rest allows every later level, so those states merge.  At each
        node, a new key below rest is reached at level m only from the old
        state s_m at key + w m, so by Abel summation its coefficient of Q_m is
        s_m - s_{m+1} (0 for an absent state or m > cap).  Key rest takes each
        old state once, at the largest level whose key is clamped (those levels
        telescope).  Each new key sums its coefficients times the Q_m by
        Horner's rule, in sparse steps (1 - q^d), so no product is dense.  At
        the last node rest is 0 and key 0 holds N, truncated at q-degree D
        unless jac_zero.  The nodes go in order of cap, the largest last, so the
        largest cap takes one Horner pass.
        """
        cut = None if self.jac_zero else D
        nodes = sorted(self.constrained_nodes, key=lambda i: self.caps[i])
        rest = sum(self.comarks[i - 1] * self.caps[i] for i in nodes)
        states = {min(self.h0, rest): [1]}
        for i in nodes:
            w, cap = self.comarks[i - 1], self.caps[i]
            rest -= w * cap
            at_rest: dict[int, list[int]] = {}  # level -> sum of the states clamped there
            below: set[int] = set()  # the new keys under rest
            for left, acc in states.items():
                top = min(cap, left // w)
                clamped = min(top, (left - rest) // w)  # levels <= clamped go to key rest
                if clamped >= 0:
                    at_rest[clamped] = _add(at_rest[clamped], acc) if clamped in at_rest else acc
                below.update(range(left - w * max(clamped + 1, 0), left - w * top - 1, -w))
            num = None
            for m in range(cap + 1):  # key rest: the coefficient of Q_m is at_rest[m]
                if num is not None:
                    num = _times_one_minus_td(num, m, cut)
                if m in at_rest:
                    num = at_rest[m] if num is None else _add(num, at_rest[m])
            new = {} if num is None else {rest: num}
            for key in below:
                num, s = None, states.get(key)
                for m in range(cap + 1):  # the coefficient of Q_m is s - nxt
                    nxt = states.get(key + w * (m + 1)) if m < cap else None
                    if num is not None:
                        num = _times_one_minus_td(num, m, cut)
                    if s is not None or nxt is not None:
                        c = s if nxt is None else _sub(s or [], nxt)
                        num = c if num is None else _add(num, c)
                    s = nxt
                new[key] = num
            states = new
        return ClosedForm(tuple(states[0]), tuple(sorted(v.level for v in self.variables)))

    # -- shelling ---------------------------------------------------------------

    def canonical_shelling(self) -> tuple[frozenset, ...]:
        """The explicit shelling available when the comark of alpha_0 at j is 1
        and alpha_0 is supported on exactly two nodes {s, j}: facet r has top
        level h0 - r at j and r at s, r = 0..min(h0, lam(h_s)).  Those are the
        top-level tuples of sum h0, and `_tops` lists each facet once in
        descending lexicographic order, so the shelling is the walk order when
        j < s and its reverse when s < j."""
        if not self.jac_zero:
            raise ValueError("canonical shelling needs comark 1 at node j")
        if not self.two_support_nodes:
            raise ValueError(
                f"canonical shelling needs exactly two support nodes, got {self.support_nodes}")
        require(all(sum(t) == self.h0 for t in self._tops), "canonical shelling: not the facet set")
        s = next(i for i in self.support_nodes if i != self.pair.j)
        complex_ = self.facets()
        order = complex_.facets if self.pair.j < s else complex_.facets[::-1]
        require(verify_shelling(complex_, order), "canonical shelling: order fails the shelling test")
        return order

    def flags(self) -> dict:
        """Derived flags: jac_zero, koszul (True or None for unknown), purity,
        and a Cohen-Macaulay certificate (a shelling was exhibited).  Purity
        and the shelling-search guard are read from `_tops`: the facets all
        have one size iff every top-level tuple has one sum."""
        pure = len(set(map(sum, self._tops))) <= 1
        # a generator has one variable at each node of nonzero level
        koszul = True if all(len(t) - t.count(0) == 2 for t in self._generator_levels) else None
        cm = False
        if pure:
            if self.jac_zero and self.two_support_nodes:
                self.canonical_shelling()
                cm = True
            elif len(self._tops) <= 9:
                cm = find_shelling(self.facets()) is not None
        return {
            "jac_zero": self.jac_zero,
            "koszul": koszul,
            "pure": pure,
            "cohen_macaulay_certified": cm,
        }


def presentation(pair: BdsPair, lam: Weight0) -> SRPresentation:
    return SRPresentation(pair, lam)


def hilbert_series_bruteforce(pres: SRPresentation, D: int) -> tuple[int, ...]:
    """Count monomials degree by degree by direct enumeration.

    A monomial survives iff no minimal generator divides it; the check is the
    literal divisibility test against `pres.generators`, independent of the
    weighted-top-level face predicate, so this is a genuine oracle for
    `hilbert_series`.
    """
    variables = sorted(pres.variables)
    gens = pres.generators
    by_var: dict[SRVariable, list[frozenset]] = {v: [] for v in variables}
    for g in gens:
        for v in g:
            by_var[v].append(g)
    coeffs = [0] * (D + 1)

    def rec(idx: int, deg: int, support: frozenset):
        if idx == len(variables):
            coeffs[deg] += 1
            return
        v = variables[idx]
        rec(idx + 1, deg, support)
        if deg + v.degree > D:
            return
        new_support = support | {v}
        if any(g <= new_support for g in by_var[v]):
            return
        step = v.degree
        total = step
        while deg + total <= D:
            rec(idx + 1, deg + total, new_support)
            total += step

    rec(0, 0, frozenset())
    return tuple(coeffs)


# -- small integer-polynomial helpers (coefficient lists in q or t) ----------


def _add(a: list[int], b: list[int]) -> list[int]:
    """a + b as a new list (one of the two tails is empty); writes to neither."""
    return [*map(add, a, b), *a[len(b):], *b[len(a):]]


def _sub(a: list[int], b: list[int]) -> list[int]:
    """a - b as a new list (one of the two tails is empty); writes to neither."""
    return [*map(sub, a, b), *a[len(b):], *map(neg, b[len(a):])]


def _times_one_minus_td(p: list[int], d: int, D: int | None = None) -> list[int]:
    """p * (1 - x^d) in O(len(p)) steps, truncated at degree D when D is given."""
    n = len(p) + d if D is None else min(len(p) + d, D + 1)
    h = min(d, n)  # the head, where the product is p alone
    return [*p[:h], *repeat(0, h - len(p)),
            *map(sub, p[d:n], p), *map(neg, p[max(len(p) - d, 0):n - h])]


def _spread(p: Sequence[int], a: int, n: int) -> tuple[int, ...]:
    """The first n coefficients of p(t^a): a - 1 zeros after each entry of p."""
    out = [0] * n
    out[::a] = p
    return tuple(out)


def _trim(p: list[int]) -> list[int]:
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def _cancel(num: Sequence[int], denom: Sequence[int]) -> tuple[list[int], list[int]]:
    """Cancel from num / prod (1 - x^d) every factor that divides num, the
    largest d first; returns the numerator and the factors left, sorted.

    (1 - x^d) divides N iff each residue class N[r::d] sums to 0, and then the
    quotient is the running sums of each class with its last (zero) entry
    dropped.  A failed division costs at most d sums over slices, and most
    stop at the first class, N[::d]; no Python loop runs over the
    coefficients.  A zero numerator is divided by every factor; an empty one
    by none.
    """
    num = _trim(list(num))
    remaining: list[int] = []
    for d in sorted(denom, reverse=True):
        n = len(num)
        if not num or sum(num[::d]) or any(sum(num[r::d]) for r in range(1, min(d, n))):
            remaining.append(d)
            continue
        q = num[:]
        for r in range(min(d, n)):
            q[r::d] = accumulate(num[r::d])
        num = _trim(q[:max(1, n - d)])
    return num, sorted(remaining)


def _format_poly(coeffs: Sequence[int]) -> str:
    return format_terms([(c, f"t^{k}" if k > 1 else "t" if k else "") for k, c in enumerate(coeffs) if c])
