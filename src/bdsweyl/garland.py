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

An `HPoly` keeps integer numerators over one denominator per polynomial and
packs each monomial into one int (packed exponent vectors): 12 p-slots per
node, a 4-bit field per exponent, so p <= 12 and total degree <= 15.  A
product of monomials is one addition, every sum of products is one kernel,
`_dot`, and key tuples appear only at the edges.  The largest polynomial a
check at order N builds is the doubled series at u^N; its monomials are
counted before anything is built (`tensor_square_sizes`), and `check_order`
refuses an order whose count is above MAX_TENSOR_TERMS.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import gcd, lcm

from .bdspair import BdsPair
from .rootsys import require

# A key (i, p) is H[i,p]; in a tensor square, i > n is node i - n of the second factor.
Monomial = tuple  # sorted tuple of keys, with repetition: the edge form of a packed monomial
Coroot = tuple  # (c_1, ..., c_n) with h_alpha = sum_i c_i h_i

# H[i,p] is field i * P_SLOTS + p - 1.  `check_order` admits at most order 11
# (rank 2), and P[alpha, r] has weight r, so p and the total degree stay <= 11.
FIELD_BITS = 4
MAX_EXPONENT = (1 << FIELD_BITS) - 1
P_SLOTS = 12
NODE_BITS = FIELD_BITS * P_SLOTS


def _encode(m: Monomial) -> int:
    """The packed int of a key tuple; a monomial outside the layout is refused."""
    require(len(m) <= MAX_EXPONENT and all(i >= 0 and 1 <= p <= P_SLOTS for i, p in m),
            "HPoly layout: monomial {} needs nodes >= 0, p in 1..{} and degree <= {}",
            m, P_SLOTS, MAX_EXPONENT)
    return sum(1 << FIELD_BITS * (i * P_SLOTS + p - 1) for i, p in m)


def _decode(packed: int) -> Monomial:
    """The sorted key tuple of a packed monomial, lowest field first."""
    fields = range((packed.bit_length() + FIELD_BITS - 1) // FIELD_BITS)
    return tuple((f // P_SLOTS, f % P_SLOTS + 1) for f in fields
                 for _ in range(packed >> FIELD_BITS * f & MAX_EXPONENT))


class HPoly:
    """Multivariate polynomial with exact rational coefficients in commuting
    generators.  `nums` maps each packed monomial (an int; the monomial 1 is 0)
    to its integer numerator over one positive denominator `den`, in lowest
    terms: gcd(den, every numerator) = 1, and no numerator is 0, so equal
    polynomials have equal (den, nums).  `deg` bounds the total degree from
    above.  Key tuples and `Fraction` appear only at the edges: the
    constructor's input, `scale`'s argument, the `terms` dict and `repr`.
    """

    __slots__ = ("den", "nums", "deg")

    def __init__(self, terms: Mapping[Monomial, Fraction | int] | None = None):
        terms = terms or {}
        # key tuples naming one monomial in different orders add up
        sums: dict[int, Fraction] = {}
        for m, c in terms.items():
            if c:
                packed = _encode(m)
                sums[packed] = sums[packed] + c if packed in sums else Fraction(c)
        fracs = {m: c for m, c in sums.items() if c}
        # Fractions are in lowest terms, so over the lcm of their denominators so are the numerators.
        self.den = lcm(*(c.denominator for c in fracs.values()))
        self.nums = {m: c.numerator * (self.den // c.denominator) for m, c in fracs.items()}
        self.deg = max(map(len, terms), default=0)

    @classmethod
    def _make(cls, den: int, nums: dict[int, int], deg: int) -> "HPoly":
        """A polynomial from numerators already in lowest terms over den."""
        poly = object.__new__(cls)
        poly.den, poly.nums, poly.deg = den, nums, deg
        return poly

    @classmethod
    def _reduced(cls, den: int, nums: dict[int, int], deg: int) -> "HPoly":
        """nums / den brought to lowest terms, with the zero numerators dropped."""
        if 0 in nums.values():
            nums = {m: c for m, c in nums.items() if c}
        g = gcd(den, *nums.values()) if den > 1 else 1
        if g > 1:
            den //= g
            nums = {m: c // g for m, c in nums.items()}
        return cls._make(den, nums, deg)

    @property
    def terms(self) -> dict[Monomial, Fraction]:
        """The coefficients as Fractions, keyed by sorted key tuples, in a new dict."""
        return {_decode(m): Fraction(c, self.den) for m, c in self.nums.items()}

    @classmethod
    def sum(cls, polys: Iterable["HPoly"]) -> "HPoly":
        return _dot((_ONE, poly) for poly in polys)

    @classmethod
    def const(cls, c) -> "HPoly":
        return cls({(): c})

    def is_zero(self) -> bool:
        return not self.nums

    def __eq__(self, other) -> bool:
        if isinstance(other, HPoly):
            return self.den == other.den and self.nums == other.nums
        return NotImplemented

    def scale(self, c) -> "HPoly":
        c = Fraction(c)
        return HPoly._reduced(self.den * c.denominator,
                              {m: x * c.numerator for m, x in self.nums.items()}, self.deg)

    def __mul__(self, other: "HPoly") -> "HPoly":
        return _dot(((self, other),))

    def __repr__(self) -> str:
        """Terms by (degree, key tuple), each coefficient as str(Fraction)."""
        rows = sorted((len(m), m, c) for m, c in self.terms.items())
        return " + ".join(f"{c}*" + ("*".join(f"H{list(k)}" for k in m) or "1")
                          for _, m, c in rows) or "0"


_ONE = HPoly._make(1, {0: 1}, 0)


def _dot(pairs: Iterable[tuple[HPoly, HPoly]]) -> HPoly:
    """sum_k a_k * b_k, the one product kernel: one dict over the lcm of the
    a_k.den * b_k.den, one gcd.  A product of packed monomials is the sum of
    their ints, so no degree bound may pass MAX_EXPONENT, lest a field carry."""
    pairs = [(a, b) for a, b in pairs if a.nums and b.nums]
    deg = max((a.deg + b.deg for a, b in pairs), default=0)
    require(deg <= MAX_EXPONENT, "HPoly layout: product of degree up to {} above {}", deg, MAX_EXPONENT)
    den = lcm(*(a.den * b.den for a, b in pairs))
    out: dict[int, int] = {}
    get = out.get
    for a, b in pairs:
        k = den // (a.den * b.den)
        items = b.nums.items()
        for m1, c1 in a.nums.items():
            c1 *= k
            for m2, c2 in items:
                m = m1 + m2
                out[m] = get(m, 0) + c1 * c2
    return HPoly._reduced(den, out, deg)


def coroot(pair: BdsPair, alpha: Sequence[int]) -> Coroot:
    """Coordinates c of h_alpha = sum_i c_i h_i for a positive root alpha."""
    if not (pair.rs.is_root(alpha) and min(alpha) >= 0):
        raise ValueError(f"{tuple(alpha)} is not a positive root")
    return pair.rs.coroot_coordinates(alpha)


def h_alpha(c: Coroot, p: int) -> HPoly:
    """H_alpha[p] = sum_i c_i H[i,p]: H[0,p] shifted to node i."""
    unit = _encode(((0, p),))
    return HPoly._make(1, {unit << NODE_BITS * i: ci for i, ci in enumerate(c, 1) if ci}, 1)


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
    return _dot((h_alpha(c, p).scale(Fraction(-1, r)), ps[r - p]) for p in range(1, r + 1))


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
        powers.append(_series_mul(powers[-1], [x.scale(Fraction(1, m)) for x in a], N))
    out = tuple(HPoly.sum(col) for col in zip(*powers))
    for r in range(N + 1):
        require(out[r] == p_element(c, r), "series/recursion mismatch at u^{}", r)
    return out


def _series_mul(a: Sequence[HPoly], b: Sequence[HPoly], N: int) -> list[HPoly]:
    return [_dot((a[i], b[r - i]) for i in range(r + 1)) for r in range(N + 1)]


def _first_diff(lhs: Iterable[HPoly], rhs: Iterable[HPoly]):
    """The first order where two series differ, with both coefficients, or None."""
    return next(((r, a, b) for r, (a, b) in enumerate(zip(lhs, rhs)) if a != b), None)


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
    ps, shift = [p_element(c, r) for r in range(N + 1)], NODE_BITS * len(c)
    shifted = [HPoly._make(p.den, {m << shift: v for m, v in p.nums.items()}, p.deg) for p in ps]
    return _first_diff(_doubled_series(c, N), _series_mul(ps, shifted, N))


def newton_identity_holds(c: Coroot, r: int) -> bool:
    """r * P[alpha,r] + sum_p H_alpha[p] * P[alpha,r-p] = 0 as polynomials."""
    pairs = [(h_alpha(c, p), p_element(c, r - p)) for p in range(1, r + 1)]
    return _dot([(HPoly.const(r), p_element(c, r))] + pairs).is_zero()


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
