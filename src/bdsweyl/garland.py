"""Exact symbolic arithmetic in the commutative algebra generated by h tensor t^k.

The generator H[i,p] stands for h_i tensor t^{a_j * p} (p >= 1).  A positive
root alpha enters only through its coroot h_alpha = sum_i c_i h_i, which
expands these into H_alpha[p] = sum_i c_i H[i,p].  The elements P[alpha, r]
are defined by the recursion

    P[alpha, 0] = 1,
    P[alpha, r] = -(1/r) * sum_{p=1}^{r} H_alpha[p] * P[alpha, r-p],

equivalently as coefficients of the exponential series
exp(- sum_{p>=1} H_alpha[p] u^p / p).  This module verifies the generating
identities for these elements: recursion vs exponential, the product formula
over simple roots, and the group-like coproduct property.  Every identity
takes the coroot vector c; `coroot(pair, alpha)` is the entry point from a
positive root of a pair.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from typing import Iterable, Mapping, Sequence

from .bdspair import BdsPair
from .rootsys import require

Key = tuple  # (i, p) for plain generators, (side, i, p) inside tensor squares
Monomial = tuple  # sorted tuple of keys, with repetition
Coroot = tuple  # (c_1, ..., c_n) with h_alpha = sum_i c_i h_i


class HPoly:
    """Multivariate polynomial with exact rational coefficients in commuting
    generators; monomials are kept as sorted key tuples (graded lex order)."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Fraction] | None = None):
        self.terms: dict[Monomial, Fraction] = {m: c for m, c in (terms or {}).items() if c}

    @classmethod
    def sum(cls, polys: Iterable["HPoly"]) -> "HPoly":
        """Collect the terms of all the polynomials in one dict."""
        out: dict[Monomial, Fraction] = {}
        for poly in polys:
            for m, c in poly.terms.items():
                out[m] = out[m] + c if m in out else c
        return cls(out)

    @classmethod
    def const(cls, c) -> "HPoly":
        return cls({(): Fraction(c)})

    @classmethod
    def variable(cls, key: Key) -> "HPoly":
        return cls({(key,): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if isinstance(other, HPoly):
            return self.terms == other.terms
        return NotImplemented

    def __add__(self, other: "HPoly") -> "HPoly":
        return HPoly.sum((self, other))

    def __sub__(self, other: "HPoly") -> "HPoly":
        return self + other.scale(-1)

    def scale(self, c) -> "HPoly":
        c = Fraction(c)
        return HPoly({m: x * c for m, x in self.terms.items()})

    def __mul__(self, other: "HPoly") -> "HPoly":
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(sorted(m1 + m2))
                c = c1 * c2
                out[m] = out[m] + c if m in out else c
        return HPoly(out)

    def substitute(self, mapping: Mapping[Key, "HPoly"]) -> "HPoly":
        return HPoly.sum(reduce(lambda term, key: term * mapping[key], m, HPoly.const(c))
                         for m, c in self.terms.items())

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for m in sorted(self.terms, key=lambda m: (len(m), m)):
            c = self.terms[m]
            mono = "*".join(f"H{list(k)}" for k in m) or "1"
            bits.append(f"{c}*{mono}")
        return " + ".join(bits)


def coroot(pair: BdsPair, alpha: Sequence[int]) -> Coroot:
    """Coordinates c of h_alpha = sum_i c_i h_i for a positive root alpha."""
    if not (pair.rs.is_root(alpha) and min(alpha) >= 0):
        raise ValueError(f"{tuple(alpha)} is not a positive root")
    return pair.rs.coroot_coordinates(alpha)


def h_alpha(c: Coroot, p: int) -> HPoly:
    """H_alpha[p] = sum_i c_i H[i,p]."""
    return HPoly({((i, p),): Fraction(ci) for i, ci in enumerate(c, 1)})


# Both caches are keyed by (coroot, order), so they are shared by every pair
# and query with the same coroot.  The largest root system, E8, has 120
# positive roots, hence at most 120 coroots: one garland-check on it keeps
# 120 * (N + 1) P elements (4096 covers N <= 33) and 120 series.
@lru_cache(maxsize=4096)
def p_element(c: Coroot, r: int) -> HPoly:
    """P[alpha, r] by the defining recursion."""
    if r < 0:
        raise ValueError("order must be non-negative")
    if r == 0:
        return HPoly.const(1)
    total = HPoly.sum(h_alpha(c, p) * p_element(c, r - p) for p in range(1, r + 1))
    return total.scale(Fraction(-1, r))


@lru_cache(maxsize=1024)
def exp_series(c: Coroot, N: int) -> tuple[HPoly, ...]:
    """Truncated exponential exp(- sum_p H_alpha[p] u^p / p), coefficients of u^r.

    The coefficients are checked against the recursion before returning, so
    the two independent routes can never drift apart silently.
    """
    if N < 0:
        raise ValueError("truncation order must be non-negative")
    a = [HPoly()] + [h_alpha(c, p).scale(Fraction(-1, p)) for p in range(1, N + 1)]
    powers = [[HPoly.const(1)] + [HPoly()] * N]  # a^m / m! for m = 0..N
    for m in range(1, N + 1):
        powers.append([x.scale(Fraction(1, m)) for x in _series_mul(powers[-1], a, N)])
    out = tuple(HPoly.sum(col) for col in zip(*powers))
    for r in range(N + 1):
        require(out[r] == p_element(c, r), "series/recursion mismatch at u^{}", r)
    return out


def _series_mul(a: Sequence[HPoly], b: Sequence[HPoly], N: int) -> list[HPoly]:
    return [HPoly.sum(a[i] * b[r - i] for i in range(r + 1)) for r in range(N + 1)]


def product_formula_diff(c: Coroot, N: int):
    """First coefficient where P_alpha(u) differs from the product over simple
    roots of P_{alpha_i}(u)^{c_i}; None when they agree to order N.  The
    coroot of the simple root alpha_i is the unit vector e_i."""
    lhs = exp_series(c, N)
    rhs = [HPoly.const(1)] + [HPoly()] * N
    for i, ci in enumerate(c):
        e_i = tuple(int(k == i) for k in range(len(c)))
        for _ in range(ci):
            rhs = _series_mul(rhs, exp_series(e_i, N), N)
    for r in range(N + 1):
        if lhs[r] != rhs[r]:
            return r, lhs[r], rhs[r]
    return None


def _embed(poly: HPoly, side: int) -> HPoly:
    return HPoly({tuple((side,) + k for k in m): c for m, c in poly.terms.items()})


def grouplike_diff(c: Coroot, N: int):
    """Check the coproduct identity: applying H -> H(x)1 + 1(x)H to P[alpha,r]
    must give sum_{s+t=r} P[alpha,s] (x) P[alpha,t].  Returns the first failing
    order and the two sides, or None."""
    ps = [p_element(c, r) for r in range(N + 1)]
    keys = {k for p in ps for m in p.terms for k in m}
    split = {k: HPoly.variable((0,) + k) + HPoly.variable((1,) + k) for k in keys}
    left, right = [_embed(p, 0) for p in ps], [_embed(p, 1) for p in ps]
    for r in range(N + 1):
        lhs = ps[r].substitute(split)
        rhs = HPoly.sum(left[s] * right[r - s] for s in range(r + 1))
        if lhs != rhs:
            return r, lhs, rhs
    return None


def newton_identity_holds(c: Coroot, r: int) -> bool:
    """r * P[alpha,r] + sum_p H_alpha[p] * P[alpha,r-p] = 0 as polynomials."""
    terms = [h_alpha(c, p) * p_element(c, r - p) for p in range(1, r + 1)]
    return HPoly.sum([p_element(c, r).scale(r)] + terms).is_zero()


def root_failures(pair: BdsPair, alpha: tuple, N: int) -> list[dict]:
    """Run the product-formula, group-like and Newton checks at order N for one
    positive root; returns one record per failing check, [] when all hold."""
    c = coroot(pair, alpha)
    out = []
    for check, diff in (("product_formula", product_formula_diff), ("grouplike", grouplike_diff)):
        d = diff(c, N)
        if d is not None:
            out.append({"root": list(alpha), "check": check,
                        "order": d[0], "lhs": repr(d[1]), "rhs": repr(d[2])})
    if not newton_identity_holds(c, N):
        out.append({"root": list(alpha), "check": "newton", "order": N})
    return out
