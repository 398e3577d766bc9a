"""Exact symbolic arithmetic in the commutative algebra generated by h tensor t^k.

The generator H[i,p] stands for h_i tensor t^{a_j * p} (p >= 1); the coroot
of any positive root alpha expands these into H_alpha[p].  The elements
P[alpha, r] are defined by the recursion

    P[alpha, 0] = 1,
    P[alpha, r] = -(1/r) * sum_{p=1}^{r} H_alpha[p] * P[alpha, r-p],

equivalently as coefficients of the exponential series
exp(- sum_{p>=1} H_alpha[p] u^p / p).  This module verifies the generating
identities for these elements: recursion vs exponential, the product formula
over simple roots, and the group-like coproduct property.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

from .bdspair import BdsPair

Key = tuple  # (i, p) for plain generators, (side, i, p) inside tensor squares
Monomial = tuple  # sorted tuple of keys, with repetition


class HPoly:
    """Multivariate polynomial with exact rational coefficients in commuting
    generators; monomials are kept as sorted key tuples (graded lex order)."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Fraction] | None = None):
        self.terms: dict[Monomial, Fraction] = {m: c for m, c in (terms or {}).items() if c}

    @classmethod
    def zero(cls) -> "HPoly":
        return cls()

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

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "HPoly") -> "HPoly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, Fraction(0)) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return HPoly(out)

    def __sub__(self, other: "HPoly") -> "HPoly":
        return self + other.scale(-1)

    def scale(self, c) -> "HPoly":
        c = Fraction(c)
        if c == 0:
            return HPoly()
        return HPoly({m: x * c for m, x in self.terms.items()})

    def __mul__(self, other: "HPoly") -> "HPoly":
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(sorted(m1 + m2))
                s = out.get(m, Fraction(0)) + c1 * c2
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return HPoly(out)

    def substitute(self, mapping: Mapping[Key, "HPoly"]) -> "HPoly":
        out = HPoly()
        for m, c in self.terms.items():
            term = HPoly.const(c)
            for key in m:
                term = term * mapping[key]
            out = out + term
        return out

    def t_degrees(self, a_j: int) -> set[int]:
        """Total t-degrees of the monomials, with H[i,p] of degree a_j * p."""
        return {a_j * sum(key[-1] for key in m) for m in self.terms}

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for m in sorted(self.terms, key=lambda m: (len(m), m)):
            c = self.terms[m]
            mono = "*".join(f"H{list(k)}" for k in m) or "1"
            bits.append(f"{c}*{mono}")
        return " + ".join(bits)


def h_alpha(pair: BdsPair, alpha: Sequence[int], p: int) -> HPoly:
    """H_alpha[p] = sum_i comark_i(alpha) H[i,p]."""
    if not (pair.rs.is_root(alpha) and min(alpha) >= 0):
        raise ValueError(f"{tuple(alpha)} is not a positive root")
    out = HPoly()
    for i in pair.rs.nodes:
        c = pair.rs.comark(i, alpha)
        if c:
            out = out + HPoly.variable((i, p)).scale(c)
    return out


@lru_cache(maxsize=None)
def p_element(pair: BdsPair, alpha: tuple, r: int) -> HPoly:
    """P[alpha, r] by the defining recursion."""
    if r < 0:
        raise ValueError("order must be non-negative")
    if r == 0:
        return HPoly.const(1)
    total = HPoly()
    for p in range(1, r + 1):
        total = total + h_alpha(pair, alpha, p) * p_element(pair, alpha, r - p)
    return total.scale(Fraction(-1, r))


@lru_cache(maxsize=None)
def exp_series(pair: BdsPair, alpha: tuple, N: int) -> tuple[HPoly, ...]:
    """Truncated exponential exp(- sum_p H_alpha[p] u^p / p), coefficients of u^r.

    The coefficients are checked against the recursion before returning, so
    the two independent routes can never drift apart silently.
    """
    if N < 0:
        raise ValueError("truncation order must be non-negative")
    a = [HPoly.zero()] + [h_alpha(pair, alpha, p).scale(Fraction(-1, p)) for p in range(1, N + 1)]
    out = [HPoly.const(1)] + [HPoly.zero()] * N
    term = [HPoly.const(1)] + [HPoly.zero()] * N
    for m in range(1, N + 1):
        term = _series_mul(term, a, N)
        term = [p.scale(Fraction(1, m)) for p in term]
        out = [x + y for x, y in zip(out, term)]
    for r in range(N + 1):
        assert out[r] == p_element(pair, alpha, r), f"series/recursion mismatch at u^{r}"
    return tuple(out)


def _series_mul(a: Sequence[HPoly], b: Sequence[HPoly], N: int) -> list[HPoly]:
    out = [HPoly.zero()] * (N + 1)
    for i, ai in enumerate(a):
        if ai.is_zero() or i > N:
            continue
        for k in range(0, N - i + 1):
            if not b[k].is_zero():
                out[i + k] = out[i + k] + ai * b[k]
    return out


def _series_pow(base: Sequence[HPoly], e: int, N: int) -> list[HPoly]:
    out = [HPoly.const(1)] + [HPoly.zero()] * N
    for _ in range(e):
        out = _series_mul(out, base, N)
    return out


def product_formula_diff(pair: BdsPair, alpha: tuple, N: int):
    """First coefficient where P_alpha(u) differs from the product over simple
    roots of P_{alpha_i}(u)^{comark_i(alpha)}; None when they agree to order N."""
    lhs = exp_series(pair, alpha, N)
    rhs = [HPoly.const(1)] + [HPoly.zero()] * N
    for i in pair.rs.nodes:
        c = pair.rs.comark(i, alpha)
        if c:
            rhs = _series_mul(rhs, _series_pow(exp_series(pair, pair.rs.simple_root(i), N), c, N), N)
    for r in range(N + 1):
        if lhs[r] != rhs[r]:
            return r, lhs[r], rhs[r]
    return None


def _embed(poly: HPoly, side: int) -> HPoly:
    return HPoly({tuple((side,) + k for k in m): c for m, c in poly.terms.items()})


def grouplike_diff(pair: BdsPair, alpha: tuple, N: int):
    """Check the coproduct identity: applying H -> H(x)1 + 1(x)H to P[alpha,r]
    must give sum_{s+t=r} P[alpha,s] (x) P[alpha,t].  Returns the first failing
    order and the two sides, or None."""
    keys = {k for r in range(N + 1) for m in p_element(pair, alpha, r).terms for k in m}
    split = {k: HPoly.variable((0,) + k) + HPoly.variable((1,) + k) for k in keys}
    for r in range(N + 1):
        lhs = p_element(pair, alpha, r).substitute(split)
        rhs = HPoly.zero()
        for s in range(r + 1):
            rhs = rhs + _embed(p_element(pair, alpha, s), 0) * _embed(p_element(pair, alpha, r - s), 1)
        if lhs != rhs:
            return r, lhs, rhs
    return None


def newton_identity_holds(pair: BdsPair, alpha: tuple, r: int) -> bool:
    """r * P[alpha,r] + sum_p H_alpha[p] * P[alpha,r-p] = 0 as polynomials."""
    total = p_element(pair, alpha, r).scale(r)
    for p in range(1, r + 1):
        total = total + h_alpha(pair, alpha, p) * p_element(pair, alpha, r - p)
    return total.is_zero()


def root_failures(pair: BdsPair, alpha: tuple, N: int) -> list[dict]:
    """Run the product-formula, group-like and Newton checks at order N for one
    positive root; returns one record per failing check, [] when all hold."""
    out = []
    for check, diff in (("product_formula", product_formula_diff), ("grouplike", grouplike_diff)):
        d = diff(pair, alpha, N)
        if d is not None:
            out.append({"root": list(alpha), "check": check,
                        "order": d[0], "lhs": repr(d[1]), "rhs": repr(d[2])})
    if not newton_identity_holds(pair, alpha, N):
        out.append({"root": list(alpha), "check": "newton", "order": N})
    return out
