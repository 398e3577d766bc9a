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

In the tensor square, node i of the second factor is named i + n.  The
coproduct H -> H (x) 1 + 1 (x) H is the ring map H[i,p] -> H[i,p] + H[i+n,p],
which sends H_alpha[p] to H_{c+c}[p], so the coproduct of P[alpha, r] is the
recursion run on the doubled coroot c + c.

An `HPoly` keeps integer numerators over one denominator per polynomial, so
the identities are checked in integer arithmetic.  The largest polynomial a
check at order N builds is the doubled series at u^N; its monomials are
counted before anything is built (`tensor_square_sizes`), and `check_order`
refuses an order whose count is above MAX_TENSOR_TERMS.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Iterator, Mapping, Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import gcd, lcm

from .bdspair import BdsPair
from .rootsys import require

Key = tuple  # (i, p) for H[i,p]; in a tensor square, i > n is node i - n of the second factor
Monomial = tuple  # sorted tuple of keys, with repetition
Coroot = tuple  # (c_1, ..., c_n) with h_alpha = sum_i c_i h_i


class HPoly:
    """Multivariate polynomial with exact rational coefficients in commuting
    generators; monomials are kept as sorted key tuples (graded lex order).

    The coefficients are stored as integer numerators over one positive
    denominator `den`, in lowest terms: gcd(den, every numerator) = 1, and no
    numerator is 0.  So equal polynomials have equal (den, nums), and `*` and
    `sum` are integer arithmetic with one gcd per result.  `Fraction` enters
    only at the edges: the constructor's input, `scale`'s argument, `terms`
    and `repr`.
    """

    __slots__ = ("den", "nums")

    def __init__(self, terms: Mapping[Monomial, Fraction | int] | None = None):
        fracs = {m: Fraction(c) for m, c in (terms or {}).items() if c}
        # Each Fraction is in lowest terms, so over the lcm of the
        # denominators the numerators are already reduced.
        self.den = lcm(*(c.denominator for c in fracs.values()))
        self.nums = {m: c.numerator * (self.den // c.denominator) for m, c in fracs.items()}

    @classmethod
    def _make(cls, den: int, nums: dict[Monomial, int]) -> "HPoly":
        """A polynomial from numerators already in lowest terms over den."""
        poly = object.__new__(cls)
        poly.den, poly.nums = den, nums
        return poly

    @classmethod
    def _reduced(cls, den: int, nums: dict[Monomial, int]) -> "HPoly":
        """nums / den brought to lowest terms, with the zero numerators dropped."""
        if 0 in nums.values():
            nums = {m: c for m, c in nums.items() if c}
        g = gcd(den, *nums.values()) if den > 1 else 1
        if g > 1:
            den //= g
            nums = {m: c // g for m, c in nums.items()}
        return cls._make(den, nums)

    @property
    def terms(self) -> Mapping[Monomial, Fraction]:
        """Read-only view of the coefficients as Fractions."""
        return _Terms(self)

    @classmethod
    def sum(cls, polys: Iterable["HPoly"]) -> "HPoly":
        """Collect the terms of all the polynomials over the lcm of their
        denominators, taking the polynomials one at a time."""
        den = 1
        out: dict[Monomial, int] = {}
        get = out.get
        for poly in polys:
            if den % poly.den:
                k = lcm(den, poly.den) // den
                den *= k
                for m in out:
                    out[m] *= k
            k = den // poly.den
            for m, c in poly.nums.items():
                out[m] = get(m, 0) + c * k
        return cls._reduced(den, out)

    @classmethod
    def const(cls, c) -> "HPoly":
        return cls({(): c})

    def is_zero(self) -> bool:
        return not self.nums

    def __eq__(self, other) -> bool:
        if isinstance(other, HPoly):
            return self.den == other.den and self.nums == other.nums
        return NotImplemented

    def __add__(self, other: "HPoly") -> "HPoly":
        return HPoly.sum((self, other))

    def __sub__(self, other: "HPoly") -> "HPoly":
        return self + other.scale(-1)

    def scale(self, c) -> "HPoly":
        c = Fraction(c)
        return HPoly._reduced(self.den * c.denominator,
                              {m: x * c.numerator for m, x in self.nums.items()})

    def __mul__(self, other: "HPoly") -> "HPoly":
        out: dict[Monomial, int] = {}
        get = out.get
        for m1, c1 in self.nums.items():
            if len(m1) == 1:  # placed into each m2 by bisection
                key = m1[0]
                for m2, c2 in other.nums.items():
                    i = bisect_right(m2, key)
                    m = m2[:i] + m1 + m2[i:]
                    out[m] = get(m, 0) + c1 * c2
                continue
            for m2, c2 in other.nums.items():
                m = _monomial_product(m1, m2)
                out[m] = get(m, 0) + c1 * c2
        return HPoly._reduced(self.den * other.den, out)

    def __repr__(self) -> str:
        if not self.nums:
            return "0"
        bits = []
        terms = self.terms
        for m in sorted(self.nums, key=lambda m: (len(m), m)):
            mono = "*".join(f"H{list(k)}" for k in m) or "1"
            bits.append(f"{terms[m]}*{mono}")
        return " + ".join(bits)


def _monomial_product(m1: Monomial, m2: Monomial) -> Monomial:
    """The sorted key tuple of m1 * m2.  An empty factor gives the other one,
    and a one-key factor is placed into the other by bisection; only a product
    of two longer monomials is sorted whole."""
    if len(m1) > len(m2):
        m1, m2 = m2, m1
    if len(m1) > 1:
        return tuple(sorted(m1 + m2))
    if not m1:
        return m2
    i = bisect_right(m2, m1[0])
    return m2[:i] + m1 + m2[i:]


class _Terms(Mapping):
    """The monomial -> Fraction mapping of an HPoly, built on access, so that
    `len` and iteration cost no Fraction."""

    __slots__ = ("_poly",)

    def __init__(self, poly: HPoly):
        self._poly = poly

    def __getitem__(self, m: Monomial) -> Fraction:
        return Fraction(self._poly.nums[m], self._poly.den)

    def __iter__(self):
        return iter(self._poly.nums)

    def __len__(self) -> int:
        return len(self._poly.nums)


def coroot(pair: BdsPair, alpha: Sequence[int]) -> Coroot:
    """Coordinates c of h_alpha = sum_i c_i h_i for a positive root alpha."""
    if not (pair.rs.is_root(alpha) and min(alpha) >= 0):
        raise ValueError(f"{tuple(alpha)} is not a positive root")
    return pair.rs.coroot_coordinates(alpha)


def h_alpha(c: Coroot, p: int) -> HPoly:
    """H_alpha[p] = sum_i c_i H[i,p]."""
    return HPoly._make(1, {((i, p),): ci for i, ci in enumerate(c, 1) if ci})


# Largest number of monomials in the doubled series at u^N, the largest
# polynomial a check at order N builds: the b_N of `tensor_square_sizes`.  It
# admits B3 at order 8 (15525) and E8 at order 4 (6460), and refuses E8 at
# order 5 (33440).
MAX_TENSOR_TERMS = 20_000


def tensor_square_sizes(s: int) -> Iterator[int]:
    """For N = 0, 1, ..., the number b_N of monomials of weight N in the tensor
    square generators H[i,p], i <= 2s: the coefficient of u^N in
    prod_p (1 - u^p)^(-2s), by the Euler transform recurrence
    N b_N = 2s * sum_{k=1}^{N} sigma(k) b_{N-k}, sigma the divisor sum.  The
    doubled series of a coroot with full support has b_N monomials at u^N."""
    sizes, sigma = [1], [0]
    yield 1
    for n in count(1):
        sigma.append(sum(d for d in range(1, n + 1) if n % d == 0))
        sizes.append(2 * s * sum(sigma[k] * sizes[n - k] for k in range(1, n + 1)) // n)
        yield sizes[-1]


def check_order(rank: int, N: int) -> None:
    """Refuse an order N whose doubled series, for a root system of this rank,
    has more than MAX_TENSOR_TERMS monomials at some u^n, n <= N.  The highest
    coroot has support on every node, so s is the rank.  The sizes increase
    with n, and b_n > n, so this takes at most MAX_TENSOR_TERMS steps whatever
    N is, and it builds no polynomial."""
    for n, size in zip(range(N + 1), tensor_square_sizes(rank)):
        if size > MAX_TENSOR_TERMS:
            raise ValueError(f"order {N} is too large for rank {rank}: the tensor square has "
                             f"{size} monomials at u^{n}, above the limit {MAX_TENSOR_TERMS}")


# Both caches are keyed by (coroot, order), so they are shared by every pair
# and query with the same coroot.  The largest root systems, B12 and C12, have
# 144 positive roots, hence at most 144 coroots, and one garland-check keeps
# |R+| * (N + 1) P elements and |R+| series.  Under MAX_TENSOR_TERMS that is
# at most 605 P elements (B11 or C11 at order 4), so 4096 holds several checks.
@lru_cache(maxsize=4096)
def p_element(c: Coroot, r: int) -> HPoly:
    """P[alpha, r] by the defining recursion."""
    if r < 0:
        raise ValueError("order must be non-negative")
    if r == 0:
        return HPoly.const(1)
    return _next_p(c, [p_element(c, k) for k in range(r)])


def _next_p(c: Coroot, ps: Sequence[HPoly]) -> HPoly:
    """One step of the recursion: P[r] from ps = P[0..r-1]."""
    r = len(ps)
    return HPoly.sum(h_alpha(c, p) * ps[r - p] for p in range(1, r + 1)).scale(Fraction(-1, r))


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


def _first_diff(lhs: Iterable[HPoly], rhs: Iterable[HPoly]):
    """The first order where two series differ, with both coefficients, or None."""
    for r, (a, b) in enumerate(zip(lhs, rhs)):
        if a != b:
            return r, a, b
    return None


def product_formula_diff(c: Coroot, N: int):
    """First coefficient where P_alpha(u) differs from the product over simple
    roots of P_{alpha_i}(u)^{c_i}; None when they agree to order N.  The
    coroot of the simple root alpha_i is the unit vector e_i."""
    rhs = [HPoly.const(1)] + [HPoly()] * N
    for i, ci in enumerate(c):
        e_i = tuple(int(k == i) for k in range(len(c)))
        for _ in range(ci):
            rhs = _series_mul(rhs, exp_series(e_i, N), N)
    return _first_diff(exp_series(c, N), rhs)


def _doubled_series(c: Coroot, N: int) -> list[HPoly]:
    """The coproduct of P[alpha, 0..N]: the recursion on c + c, never cached."""
    ps = [HPoly.const(1)]
    for _ in range(N):
        ps.append(_next_p(c + c, ps))
    return ps


def grouplike_diff(c: Coroot, N: int):
    """Check the coproduct identity: applying H -> H(x)1 + 1(x)H to P[alpha,r],
    which is the recursion on c + c, must give sum_{s+t=r} P[alpha,s] (x)
    P[alpha,t].  Returns the first failing order and the two sides, or None."""
    n, ps = len(c), [p_element(c, r) for r in range(N + 1)]
    shifted = [HPoly._make(p.den, {tuple((i + n, q) for i, q in m): v for m, v in p.nums.items()})
               for p in ps]
    return _first_diff(_doubled_series(c, N), _series_mul(ps, shifted, N))


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
