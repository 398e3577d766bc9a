"""Borel-de Siebenthal pairs (g, g0) attached to a node j with mark >= 2.

Given a simple root system and a node j whose mark a_j is at least 2, this
module constructs the fixed-point data of the associated finite-order
automorphism: the simple system Delta_0 = {alpha_i : i != j} u {alpha_0}
with alpha_0 = w_J(theta), J = I(j), the grading of the roots by a_j(alpha)
mod a_j, the dominant elements theta_k of each graded piece, and the
reflection chain from alpha_0 down to a simple root.  All of it is fixed by
the value (type, rank, j), so `build_pair` builds one pair per value and
keeps it; every pairing it reads is a row of the root system's table.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property, lru_cache
from typing import Mapping, NamedTuple, Sequence

from .rootsys import (RANKS, ROOT_COUNTS, Root, RootSystem, build, cartan_matrix, exact_quotient,
                      format_root, frozen, require, weyl_product)


@frozen
class ReflectionChain(NamedTuple):
    """Chain (i_r, beta_r) with beta_0 = alpha_0, beta_{r+1} = s_{i_r}(beta_r);
    its length is `len(chain.entries)`."""

    entries: tuple[tuple[int, Root], ...]

    @property
    def node_sequence(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.entries)

    def node_counts(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for i in self.node_sequence:
            counts[i] = counts.get(i, 0) + 1
        return counts


class BdsPair:
    """The pair (g, g0) determined by a root system and a node with mark >= 2."""

    def __init__(self, rs: RootSystem, j: int):
        if j not in rs.nodes:
            raise ValueError(f"node {j} out of range 1..{rs.rank}")
        a_j = rs.marks[j - 1]
        if a_j < 2:
            raise ValueError(
                f"mark a_{j} = {a_j}; the fixed-point construction requires a node of mark >= 2"
            )
        self.rs = rs
        self.j = j
        self.a_j = a_j
        self.i_complement = tuple(i for i in rs.nodes if i != j)
        # alpha_0 = w_J(theta), J = I(j), the lowest weight of the irreducible Levi module
        # {alpha : a_j(alpha) = a_j}: its root of least height, as `_check_alpha0` certifies
        self.alpha0: Root = min((a for a in rs.positive_roots if a[j - 1] == a_j), key=sum)
        self._check_alpha0()
        self.marks_alpha0 = self.alpha0
        self.comarks_alpha0 = rs.coroot_coordinates(self.alpha0)
        self._thetas: dict[int, Root] = {}  # theta_k by k, each scanned once
        self._default_chain: ReflectionChain | None = None  # reflection_chain(), built once

    def _check_alpha0(self) -> None:
        rs, j = self.rs, self.j
        a0 = self.alpha0
        require(rs.is_root(a0) and min(a0) >= 0, "alpha_0 must be a positive root")
        require(a0[j - 1] == self.a_j, "a_j(alpha_0) must equal a_j")
        require(rs.d_alpha(a0) == 1, "alpha_0 must be long")
        row = rs.pairings(a0)
        for i in self.i_complement:
            require(row[i - 1] <= 0, "alpha_0 must pair non-positively with alpha_{}^vee", i)
        require(row[j - 1] > 0, "alpha_0 must pair positively with alpha_{}^vee", j)

    # -- simple system of the fixed-point subalgebra -----------------------

    @property
    def delta0_labels(self) -> tuple[int, ...]:
        """Node labels for Delta_0: the nodes of I(j) in order, then 0 for alpha_0."""
        return self.i_complement + (0,)

    @cached_property
    def delta0(self) -> tuple[Root, ...]:
        return tuple(self.rs.simple_root(i) for i in self.i_complement) + (self.alpha0,)

    @cached_property
    def g0_cartan(self) -> tuple[tuple[int, ...], ...]:
        """Cartan matrix of Delta_0 (entries <delta_q, delta_p^vee>), column q from
        `g0_weight_values(delta_q)`; the 2s on the diagonal check the comark sum at alpha_0."""
        cartan = tuple(zip(*(self.g0_weight_values(d).values() for d in self.delta0)))
        require(all(row[p] == 2 for p, row in enumerate(cartan)), "g0_cartan: diagonal entry != 2: {}", cartan)
        return cartan

    @cached_property
    def g0_components(self) -> tuple[str, ...]:
        """Simple types of the fixed-point subalgebra, e.g. ('A3',) or ('A1', 'A1')."""
        comps = _connected_components(self.g0_cartan)
        names = []
        for comp in comps:
            sub = tuple(tuple(self.g0_cartan[p][q] for q in comp) for p in comp)
            names.append(_classify_component(sub))
        return tuple(sorted(names))

    # -- grading of the roots ----------------------------------------------

    @cached_property
    def _graded(self) -> tuple[tuple[Root, ...], ...]:
        buckets: list[list[Root]] = [[] for _ in range(self.a_j)]
        for a in self.rs.roots:
            buckets[a[self.j - 1] % self.a_j].append(a)
        return tuple(tuple(b) for b in buckets)

    def graded_roots(self, k: int) -> tuple[Root, ...]:
        """R_k, the roots with a_j(alpha) congruent to k mod a_j (0 <= k < a_j)."""
        if not 0 <= k < self.a_j:
            raise ValueError(f"grade {k} out of range 0..{self.a_j - 1}")
        return self._graded[k]

    def graded_positive(self, k: int) -> tuple[Root, ...]:
        return tuple(a for a in self.graded_roots(k) if min(a) >= 0)

    def graded_dim(self, s: int) -> int:
        """Dimension of the degree-s piece of the graded fixed-point algebra."""
        if s < 0:
            raise ValueError("degree must be non-negative")
        k = s % self.a_j
        return len(self.graded_roots(k)) + (self.rs.rank if k == 0 else 0)

    def theta_k(self, k: int) -> Root:
        """The unique Delta_0-dominant alpha in R_k^+ (every <alpha, delta^vee> >= 0)
        with alpha + delta never a root (the dominant element of the graded piece).
        Scanned and checked once per pair and grade, then kept."""
        if not 1 <= k < self.a_j:
            raise ValueError(f"grade {k} out of range 1..{self.a_j - 1}")
        if k in self._thetas:
            return self._thetas[k]
        rs = self.rs
        positive = self.graded_positive(k)
        cands = [a for a in positive
                 if min(self.g0_weight_values(a).values()) >= 0
                 and not any(rs.is_root(tuple(x + y for x, y in zip(a, d))) for d in self.delta0)]
        require(len(cands) == 1, "theta_{}: expected a unique dominant element, got {}", k, cands)
        th = cands[0]
        require(all(c > 0 for c in th), "theta_{}: dominant graded element must have full support", k)
        up = tuple(x + y for x, y in zip(th, rs.simple_root(self.j)))
        require(rs.is_root(up) and min(up) >= 0,
                "theta_{}: theta_k + alpha_j must be a positive root", k)
        heights = [sum(a) for a in positive]
        require(heights.count(max(heights)) == 1 and sum(th) == max(heights),
                "theta_{}: must be the unique highest root of R_k^+", k)
        self._thetas[k] = th
        return th

    # -- reflection chain ----------------------------------------------------

    def reflection_chain(self, prefer: Sequence[int] | None = None) -> ReflectionChain:
        """Chain of reflections carrying alpha_0 to a simple root.

        At each step the next node i must satisfy (beta, alpha_i) > 0 and,
        when beta is not simple, beta + alpha_i must not be a root.  Ties are
        broken by the priority order `prefer` (default: smallest node first);
        the per-node visit counts are independent of this choice.  The default
        chain is built once per pair; a `prefer` order is always walked afresh.
        """
        if prefer is None and self._default_chain is not None:
            return self._default_chain
        rs = self.rs
        order = tuple(prefer) if prefer is not None else tuple(rs.nodes)
        if sorted(order) != list(rs.nodes):
            raise ValueError("prefer must be a permutation of the nodes")
        entries: list[tuple[int, Root]] = []
        beta = self.alpha0
        i = self.j
        while True:
            simple_node = _simple_index(beta)
            if simple_node is not None and entries:
                entries.append((simple_node, beta))
                break
            row = rs.pairings(beta)
            if entries:
                admissible = [
                    p for p in order
                    if row[p - 1] > 0
                    and not rs.is_root(tuple(x + y for x, y in zip(beta, rs.simple_root(p))))
                ]
                require(admissible, "reflection chain: no admissible reflection from {}", beta)
                i = admissible[0]
            else:
                require(row[self.j - 1] > 0, "reflection chain: <alpha_0, alpha_j^vee> <= 0")
                i = self.j
            entries.append((i, beta))
            beta = rs.reflect(i, beta)
            require(rs.is_root(beta) and min(beta) >= 0, "reflection chain left the positive roots")
        chain = ReflectionChain(tuple(entries))
        if prefer is None:
            self._default_chain = chain
        return chain

    # -- the fixed-point subalgebra as a root subsystem ----------------------

    def delta0_coordinates(self, v: Sequence[int]) -> tuple[int, ...]:
        """Coordinates of a root-lattice vector in the Delta_0 basis.

        alpha_0 is the only member of Delta_0 with a nonzero j-coordinate, and
        that coordinate is a_j, so v_j / a_j is the alpha_0 coefficient and the
        rest of v lies on the simple roots of I(j)."""
        m, r = divmod(v[self.j - 1], self.a_j)
        if r:
            raise ValueError(f"{tuple(v)} is not in the Delta_0 lattice")
        return tuple(v[i - 1] - m * self.alpha0[i - 1] for i in self.i_complement) + (m,)

    def g0_weight_values(self, v: Sequence[int]) -> dict[int, int]:
        """Values <v, delta^vee> over Delta_0, keyed by the Delta_0 labels, with no quotient:
        the Cartan row at i in I(j), and at alpha_0 the comark sum sum_i c_i <v, alpha_i^vee>."""
        row = self.rs.pairings(v)
        values = {i: row[i - 1] for i in self.i_complement}
        values[0] = sum(c * r for c, r in zip(self.comarks_alpha0, row))
        return values

    def g0_coroot_coordinates(self, a: Sequence[int]) -> tuple[int, ...]:
        """Expansion of the coroot of a (a in R_0) over the coroots of Delta_0: each
        Delta_0 coefficient times d_alpha(a) / d_delta, with d_delta = 1 at alpha_0 (long)."""
        d_a = self.rs.d_alpha(a)
        d_delta = [self.rs.d[i - 1] for i in self.i_complement] + [1]
        return tuple(exact_quotient(m * d_a, d, "Delta_0 coroot coefficient")
                     for m, d in zip(self.delta0_coordinates(a), d_delta))

    def g0_weyl_dim(self, weight: Mapping[int, int]) -> int:
        """Weyl dimension formula for the fixed-point subalgebra.

        `weight` maps Delta_0 labels (I(j) and 0) to non-negative values;
        the result is multiplicative over the simple components.
        """
        bad = [k for k in weight if k not in self.delta0_labels]
        if bad:
            raise ValueError(f"weight keys {bad} are not Delta_0 labels")
        vals = [int(weight.get(label, 0)) for label in self.delta0_labels]
        if any(v < 0 for v in vals):
            raise ValueError(f"weight {weight} is not dominant for the subalgebra")
        coroots = [self.g0_coroot_coordinates(a) for a in self.graded_positive(0)]
        require(all(c >= 0 for cor in coroots for c in cor), "g0_weyl_dim: negative Delta_0 coroot")
        return weyl_product(coroots, vals)

    def gk_irreducibility_check(self, k: int) -> bool:
        """Whether the degree-k piece has the dimension of the irreducible
        subalgebra module generated by its dominant element theta_k."""
        th = self.theta_k(k)
        weight = self.g0_weight_values(th)
        require(all(v >= 0 for v in weight.values()), "theta_{} is not Delta_0-dominant: {}", k, weight)
        return self.g0_weyl_dim(weight) == len(self.graded_roots(k))

    def bracket_weight_check(self, k: int, m: int) -> bool:
        """Weight-level necessary condition for R_k = R_{k-m} + R_m (1 <= m < k).

        Checks only that every root of grade k splits as a sum of roots of
        grades k-m and m; surjectivity of the bracket itself would need
        structure constants and is not verified here.
        """
        if not 1 <= m < k < self.a_j:
            raise ValueError("need 1 <= m < k < a_j")
        lower = set(self.graded_roots(m))
        target = set(self.graded_roots(k - m))
        for a in self.graded_roots(k):
            if not any(tuple(x - y for x, y in zip(a, d)) in target for d in lower):
                return False
        return True

    # ------------------------------------------------------------------

    def describe(self) -> str:
        return (f"{self.rs.type_letter}{self.rs.rank}, node {self.j} (a_j={self.a_j}), "
                f"alpha0={format_root(self.alpha0)}, g0={'+'.join(self.g0_components)}")

    def __repr__(self) -> str:
        return f"BdsPair({self.describe()})"


def build_pair(rs: RootSystem | str, j: int, rank: int | None = None) -> BdsPair:
    """The pair for a root system (or a (type, rank) spec) and node j, built
    once per (root system, j) and shared."""
    if isinstance(rs, str):
        if rank is None:
            raise ValueError("rank is required when passing a type letter")
        rs = build(rs, rank)
    return _pair(rs, j)


@lru_cache(maxsize=256)
def _pair(rs: RootSystem, j: int) -> BdsPair:
    """The one cache of pairs, keyed by (root system, j).  `build` gives one
    system per (type, rank), so its pairs are one per (type, rank, j); 256 is
    above the 201 valid pairs of all_pairs(12), so none of them is evicted by
    another.  An invalid node raises and is never cached."""
    return BdsPair(rs, j)


def eligible_nodes(rs: RootSystem) -> tuple[int, ...]:
    """Nodes with mark >= 2, i.e. the valid choices of j."""
    return tuple(i for i in rs.nodes if rs.marks[i - 1] >= 2)


def all_pairs(max_rank: int) -> list[BdsPair]:
    """Every pair over every simple type up to the given rank, in a fixed order."""
    out = []
    for letter, (lo, hi) in RANKS.items():
        for n in range(lo, min(hi, max_rank) + 1):
            rs = build(letter, n)
            for j in eligible_nodes(rs):
                out.append(_pair(rs, j))
    return out


def alpha0_by_scan(rs: RootSystem, j: int) -> Root:
    """Independent recomputation of alpha_0: scan R_0^+ for its simple system.

    The simple system of R_0 ^+ consists of the elements that are not sums of
    two elements of R_0^+; exactly one of them is not a simple root of R.  Only
    a b of lower height can give a - b in R_0^+, so each a scans the roots
    below its height in the height-sorted list.
    """
    a_j = rs.marks[j - 1]
    r0_pos = sorted((a for a in rs.positive_roots if a[j - 1] % a_j == 0), key=sum)
    heights = [sum(a) for a in r0_pos]
    pos_set = set(r0_pos)
    simple_sys = []
    for a, h in zip(r0_pos, heights):
        lower = r0_pos[:bisect_left(heights, h)]
        if not any(tuple(x - y for x, y in zip(a, b)) in pos_set for b in lower):
            simple_sys.append(a)
    extras = [a for a in simple_sys if sum(a) > 1]
    require(len(extras) == 1, "alpha0_by_scan: expected one non-simple element, got {}", extras)
    return extras[0]


# -- classification helpers --------------------------------------------------


def _simple_index(a: Root) -> int | None:
    if sum(a) == 1 and min(a) >= 0:
        return a.index(1) + 1
    return None


def _connected_components(cartan: Sequence[Sequence[int]]) -> list[list[int]]:
    n = len(cartan)
    seen: set[int] = set()
    comps = []
    for s in range(n):
        if s in seen:
            continue
        comp = []
        stack = [s]
        seen.add(s)
        while stack:
            p = stack.pop()
            comp.append(p)
            for q in range(n):
                if q not in seen and p != q and cartan[p][q] != 0:
                    seen.add(q)
                    stack.append(q)
        comps.append(sorted(comp))
    return comps


def _cartan_isomorphic(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> bool:
    n = len(a)
    if len(b) != n:
        return False
    if sorted(sorted(row) for row in a) != sorted(sorted(row) for row in b):
        return False
    perm: list[int] = []
    used = [False] * n

    def extend(p: int) -> bool:
        if p == n:
            return True
        for q in range(n):
            if used[q]:
                continue
            if all(a[p][r] == b[q][perm[r]] and a[r][p] == b[perm[r]][q] for r in range(p)):
                used[q] = True
                perm.append(q)
                if extend(p + 1):
                    return True
                perm.pop()
                used[q] = False
        return False

    return extend(0)


def _classify_component(cartan: Sequence[Sequence[int]]) -> str:
    """Match one connected Cartan matrix against the simple types.

    Rank-2 double edges report as B2 (= C2) and rank-3 D-shapes as A3;
    candidates are tried in the order A, B, C, D, E, F, G.
    """
    m = len(cartan)
    name = None
    for letter in "ABCDEFG":
        try:
            template = cartan_matrix(letter, m)
        except ValueError:
            continue
        if _cartan_isomorphic(cartan, template):
            name = f"{letter}{m}"
            break
    require(name is not None, "component {} matches no simple type", cartan)
    return name


def component_root_count(name: str) -> int:
    return ROOT_COUNTS[name[0]](int(name[1:]))

