"""Decision procedures and closed-form dimensions for global and local Weyl modules.

Contents: conversion between subalgebra weights (values on h_i, i in I(j),
and h_0) and full weights (values on all h_i, possibly negative at j), the
finite-dimensionality test for the endomorphism algebra, the irreducibility
criterion for global Weyl modules, evaluation-parameter points of the
variety of the endomorphism algebra, and the local Weyl module dimension
formulas for the pair (B_n, D_n).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb
from typing import Mapping, NamedTuple

from .bdspair import BdsPair
from .rootsys import frozen, require
from .srring import Weight0


@frozen
class DeltaWeight(NamedTuple):
    """Weight given by its values on every h_i, i in I; the value at j may be negative.
    Indexed by node, from 1."""

    values: tuple[int, ...]

    @classmethod
    def of(cls, rank: int, vals: Mapping[int, int]) -> "DeltaWeight":
        bad = [k for k in vals if not 1 <= k <= rank]
        if bad:
            raise ValueError(f"weight keys {bad} out of range 1..{rank}")
        return cls(tuple(int(vals.get(i, 0)) for i in range(1, rank + 1)))

    def __getitem__(self, i: int) -> int:
        return self.values[i - 1]

    def is_dominant(self) -> bool:
        return all(v >= 0 for v in self.values)


def weight_convert(pair: BdsPair, lam: Weight0) -> DeltaWeight:
    """Recover the value lam(h_j) from the expansion of h_0 over the h_i.

    Fails when the result is not an integer, which happens exactly when lam
    lies outside the weight lattice of the ambient algebra.
    """
    c = pair.comarks_alpha0
    rest = sum(c[i - 1] * lam[i] for i in pair.i_complement)
    num = lam[0] - rest
    cj = c[pair.j - 1]
    if num % cj != 0:
        raise ValueError(
            f"lam(h_{pair.j}) = {num}/{cj} is not integral; "
            "the weight does not lie in the ambient weight lattice")
    vals = {i: lam[i] for i in pair.i_complement}
    vals[pair.j] = num // cj
    return DeltaWeight.of(pair.rs.rank, vals)


def weight_restrict(pair: BdsPair, dw: DeltaWeight) -> Weight0:
    """Inverse direction: values on I(j) plus lam(h_0) = sum_i comark_i * lam(h_i)."""
    c = pair.comarks_alpha0
    h0 = sum(c[i - 1] * dw[i] for i in pair.rs.nodes)
    vals = {i: dw[i] for i in pair.i_complement}
    vals[0] = h0
    if any(v < 0 for v in vals.values()):
        raise ValueError(f"restricted weight {vals} is not dominant for the subalgebra")
    return Weight0(vals)


def is_alambda_trivial(pair: BdsPair, lam: Weight0) -> bool:
    """Whether the semisimple quotient of the endomorphism algebra is just C.

    Holds iff (i) lam(h_i) > 0 only at nodes where alpha_0 has a positive
    comark, and (ii) lam(h_0) is smaller than the comark at j and at every
    node in the support of lam.  Equivalent to the presentation having no
    surviving variables.  Since lam(h_0) >= 0, (ii) implies (i).
    """
    c = pair.comarks_alpha0
    h0 = lam[0]
    return h0 < c[pair.j - 1] and all(lam[i] == 0 or h0 < c[i - 1] for i in pair.i_complement)


def is_global_weyl_irreducible(pair: BdsPair, lam: Weight0) -> bool:
    """Irreducibility criterion for the global Weyl module of weight lam.

    Requires lam(h_0) = 0, and for every i in I(j) in the support of lam the
    coordinates of theta_{a_j - 1} and alpha_0 at i must agree.
    """
    if lam[0] != 0:
        return False
    th = pair.theta_k(pair.a_j - 1)
    for i in pair.i_complement:
        if lam[i] > 0 and th[i - 1] != pair.alpha0[i - 1]:
            return False
    return True


# -- evaluation parameters and ideal points -----------------------------------


@frozen
class EvalPoint(NamedTuple):
    """One evaluation point: the a_j-th power of the parameter and a dominant weight."""

    z_power: Fraction
    weight: DeltaWeight


@frozen
class EvalParams(NamedTuple):
    mu: Weight0
    points: tuple[EvalPoint, ...]


@frozen
class IdealPoint(NamedTuple):
    """Exact scalars pi[i][r] satisfying the presentation relations at weight lam."""

    lam: Weight0
    mu_h0: int
    pi: tuple[tuple[Fraction, ...], ...]  # coefficient list of pi_i(u), per node

    def degree(self, i: int) -> int:
        return len(self.pi[i - 1]) - 1

    def nonzero_entries(self) -> dict[tuple[int, int], Fraction]:
        out = {}
        for i, row in enumerate(self.pi, start=1):
            for r, c in enumerate(row):
                if r >= 1 and c != 0:
                    out[(i, r)] = c
        return out


def ideal_point_from_params(pair: BdsPair, lam: Weight0, params: EvalParams) -> IdealPoint:
    """Evaluate the generators P[i,r] on the tensor product of evaluation modules.

    pi_i(u) = prod_s (1 - z_s^{a_j} u)^{lam_s(h_i)}.  The returned point is
    verified against the presentation relations and the degree identity
    mu(h_0) = lam(h_0) - sum_i comark_i * deg pi_i.
    """
    powers = [p.z_power for p in params.points]
    if any(z == 0 for z in powers):
        raise ValueError("violated invariant: evaluation parameters must be nonzero")
    if len(set(powers)) != len(powers):
        raise ValueError("violated invariant: repeated z powers")
    for p in params.points:
        if len(p.weight.values) != pair.rs.rank:
            raise ValueError("evaluation weight has the wrong rank")
        if not p.weight.is_dominant():
            raise ValueError(f"violated invariant: non-dominant evaluation weight {p.weight}")
    c = pair.comarks_alpha0
    for i in pair.i_complement:
        if params.mu[i] + sum(p.weight[i] for p in params.points) != lam[i]:
            raise ValueError(f"violated invariant: weight sum mismatch at h_{i}")
    point_h0 = sum(c[i - 1] * p.weight[i] for p in params.points for i in pair.rs.nodes)
    if params.mu[0] + point_h0 != lam[0]:
        raise ValueError("violated invariant: weight sum mismatch at h_0")

    rows = []
    for i in pair.rs.nodes:
        poly = [Fraction(1)]
        for p in params.points:
            z = p.z_power
            for _ in range(p.weight[i]):
                poly = [a - z * b for a, b in zip(poly + [0], [0] + poly)]  # poly * (1 - z u)
        rows.append(tuple(poly))
    point = IdealPoint(lam, params.mu[0], tuple(rows))
    verify_ideal_point(pair, point)
    return point


def verify_ideal_point(pair: BdsPair, point: IdealPoint) -> None:
    """Check the presentation relations and the degree identity; raises on failure.

    Products over the relation family vanish iff the weighted degree bound
    sum_i comark_i * deg pi_i <= lam(h_0) holds: any violating level tuple
    must exceed the degree of some pi_i, and scalars have no zero divisors.
    """
    lam = point.lam
    c = pair.comarks_alpha0
    for i in pair.i_complement:
        require(point.degree(i) <= lam[i], "relation violated: deg pi_{} > lam(h_{})", i, i)
    weighted = sum(c[i - 1] * point.degree(i) for i in pair.rs.nodes)
    require(weighted <= lam[0], "relation violated: weighted degree exceeds lam(h_0)")
    require(weighted == lam[0] - point.mu_h0,
            "degree identity violated: mu(h_0) != lam(h_0) - weighted degree")


# -- local Weyl module dimensions for (B_n, D_n) -------------------------------


def sl2_local_weyl_basis(m: int) -> list[tuple[int, ...]]:
    """Index set of the rank-1 local Weyl module basis at highest weight m:
    the empty sequence and all 0 <= r_1 <= ... <= r_k <= m - k, 1 <= k <= m."""
    if m < 0:
        raise ValueError("weight must be non-negative")
    out: list[tuple[int, ...]] = [()]
    for k in range(1, m + 1):
        out.extend(combinations_with_replacement(range(m - k + 1), k))
    return out


def untwisted_fundamental_local_dim(n: int, i: int) -> int:
    """Local Weyl module dimension at a fundamental weight for the plain
    current algebra of type B_n: sum of binom(2n+1, i-2k) for i < n, 2^n at i = n."""
    if not 1 <= i <= n:
        raise ValueError(f"fundamental index {i} out of range 1..{n}")
    if i == n:
        return 2 ** n
    return sum(comb(2 * n + 1, i - 2 * k) for k in range(i // 2 + 1))


# The most decimal digits of a local dimension: CPython's default
# `int_max_str_digits`, so that every accepted value can be printed.
MAX_LOCAL_DIM_DIGITS = 4300
_DIGITS_LIMIT = 10 ** MAX_LOCAL_DIM_DIGITS


def displayed_sum_dim(n: int, i: int, r: int) -> int:
    """The closed form (binom(2n,i) + ... + binom(2n,1))^r; kept separate
    because it lacks the binom(2n,0) term of the telescoped value."""
    return sum(comb(2 * n, s) for s in range(1, i + 1)) ** r


def is_bn_pair_at_node_n(pair: BdsPair) -> bool:
    """Whether the pair is (B_n, j = n) with n >= 3, the pair (B_n, D_n)."""
    return pair.rs.type_letter == "B" and pair.j == pair.rs.rank >= 3


def _check_bn_pair(pair: BdsPair) -> int:
    if not is_bn_pair_at_node_n(pair):
        raise ValueError(f"local dimensions implemented for (B_n, j=n), n >= 3; got {pair!r}")
    return pair.rs.rank


def local_weyl_dim_bn(pair: BdsPair, i: int, r: int) -> int:
    """Local Weyl module dimension for the multiple r of the i-th fundamental
    subalgebra weight of the pair (B_n, D_n), 0 <= i <= n-1.

    The value is the graded-pullback closed form (2^n)^r at i = 0 and
    (sum_{k} binom(2n+1, i-2k))^r otherwise, i.e. the dimension of the
    corresponding local Weyl module of the plain current algebra.  For
    i <= n-2 this is the dimension at every maximal ideal; for i = n-1 it is
    the pullback value at a generic point, while the graded fiber is the
    irreducible module whose dimension `spin_module_dim` gives.  A value of
    more than MAX_LOCAL_DIM_DIGITS digits is refused, a large r before any power.
    """
    n = _check_bn_pair(pair)
    if not 0 <= i <= n - 1:
        raise ValueError(f"fundamental index {i} out of range 0..{n - 1}")
    if r < 0:
        raise ValueError("multiplicity must be non-negative")
    base = 2 ** n if i == 0 else untwisted_fundamental_local_dim(n, i)
    # base ** r >= 2 ** (r * (bits of base - 1)), so a large r is refused from the
    # size of the base alone, and a power that is taken has under twice the limit's bits
    if r * (base.bit_length() - 1) < _DIGITS_LIMIT.bit_length():
        value = base ** r
        if value < _DIGITS_LIMIT:
            return value
    raise ValueError(f"dim W_loc({r} * lambda_{i}) = {base}^{r} has more than "
                     f"{MAX_LOCAL_DIM_DIGITS} digits, the limit of a local dimension")


def spin_module_dim(pair: BdsPair, r: int) -> int:
    """Dimension of the irreducible module of weight r times the spin-node
    fundamental weight of the fixed-point subalgebra (Weyl dimension formula)."""
    n = _check_bn_pair(pair)
    return pair.g0_weyl_dim({n - 1: r})


@frozen
class LocalDimReport(NamedTuple):
    """Both closed forms for a local Weyl dimension, with the mismatch surfaced."""

    node: int
    multiplicity: int
    value: int
    displayed_value: int | None
    mismatch: bool
    spin_value: int | None

    def lines(self) -> list[str]:
        out = [f"dim W_loc({self.multiplicity} * lambda_{self.node}) = {self.value}"]
        if self.displayed_value is not None:
            out.append(f"displayed closed form gives {self.displayed_value}"
                       + (" (MISMATCH with the telescoped value)" if self.mismatch else ""))
        if self.spin_value is not None:
            out.append(f"graded fiber at the spin node is irreducible of dimension {self.spin_value}")
        return out


def local_weyl_dim_report(pair: BdsPair, i: int, r: int) -> LocalDimReport:
    """Compute the telescoped value and the displayed sum side by side."""
    n = _check_bn_pair(pair)
    value = local_weyl_dim_bn(pair, i, r)
    displayed = displayed_sum_dim(n, i, r) if i >= 1 else None
    mismatch = displayed is not None and displayed != value
    spin = spin_module_dim(pair, r) if i == n - 1 else None
    return LocalDimReport(i, r, value, displayed, mismatch, spin)


# -- recorded constants ---------------------------------------------------------


@frozen
class RecordedConstant(NamedTuple):
    pair_name: str
    weight: str
    ideal_kind: str
    dim: int
    computed: bool
    note: str


_RECORDED = (
    RecordedConstant("B3", "h2=1,h0=1", "generic", 22, False,
                     "pullback local Weyl module at a generic maximal ideal"),
    RecordedConstant("B3", "h2=1,h0=1", "special", 32, False,
                     "special maximal ideal; value cited from an external thesis"),
)


def record_constants() -> tuple[RecordedConstant, ...]:
    """Regression constants recorded from the source analysis, not computed here."""
    return _RECORDED
