"""Exact root-system engine for the simple types A-G.

Roots are stored as integer coordinate vectors in the simple-root basis
(Bourbaki node numbering, nodes are 1-based).  The bilinear form is the
symmetrized Cartan form normalized so that long roots have squared length 2.
With L = lcm(d_i) the scaled form L * (a, b) = sum_p a_p (L / d_p) <b, alpha_p^vee>
is an integer on the root lattice (`RootSystem.form`), read from the pairing
row of b, and it only measures lengths: d_alpha, the check (theta, theta) = 2
and the value of `inner`.  Pairings are Cartan-row sums,
not quotients: <v, alpha_i^vee> is a Cartan row, and a pairing with any
coroot sums the rows over its coroot coefficients.  The reflection closure
that finds the roots computes the row (<alpha, alpha_i^vee>)_i of each root
to reflect it, and keeps it: `pairings` reads that table, bounded by |R|,
for a root and sums the Cartan rows for any other lattice vector.  A coroot
coefficient a_i(alpha) d_alpha / d_i, d_alpha and a Weyl dimension are integer
quotients taken by `exact_quotient`, the one integrality check.  Every
internal invariant of the package, that one included, fails through
`require`, which raises by name and the same under `python -O`.  Here
`Fraction` is left only in the symmetrizer ratios and the value of `inner`;
in the package, only the Garland coefficients and the evaluation parameters
are rational.  There is no Euclidean embedding anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Iterable, Sequence, Tuple

Root = Tuple[int, ...]

CLASSICAL_MAX_RANK = 12

# the lowest and highest admitted rank of each type letter, in the order of `all_pairs`
RANKS = {"A": (1, CLASSICAL_MAX_RANK), "B": (2, CLASSICAL_MAX_RANK), "C": (2, CLASSICAL_MAX_RANK),
         "D": (3, CLASSICAL_MAX_RANK), "E": (6, 8), "F": (4, 4), "G": (2, 2)}

# closed-form |R| per type, used as a construction cross-check
ROOT_COUNTS = {
    "A": lambda n: n * (n + 1),
    "B": lambda n: 2 * n * n,
    "C": lambda n: 2 * n * n,
    "D": lambda n: 2 * n * (n - 1),
    "E": lambda n: {6: 72, 7: 126, 8: 240}[n],
    "F": lambda n: 48,
    "G": lambda n: 12,
}


def _chain_edges(n: int) -> list[tuple[int, int, int, int]]:
    return [(i, i + 1, -1, -1) for i in range(1, n)]


def _edges(type_letter: str, n: int) -> list[tuple[int, int, int, int]]:
    """Dynkin edges as (p, q, C[p][q], C[q][p]) with C[p][q] = <alpha_q, alpha_p^vee>."""
    if type_letter == "A":
        return _chain_edges(n)
    if type_letter == "B":
        # alpha_n is short: <alpha_{n-1}, alpha_n^vee> = -2
        return _chain_edges(n - 1) + [(n - 1, n, -1, -2)]
    if type_letter == "C":
        # alpha_n is long: <alpha_n, alpha_{n-1}^vee> = -2
        return _chain_edges(n - 1) + [(n - 1, n, -2, -1)]
    if type_letter == "D":
        return _chain_edges(n - 2) + [(n - 2, n - 1, -1, -1), (n - 2, n, -1, -1)]
    if type_letter == "E":
        spine = [(1, 3, -1, -1)] + [(i, i + 1, -1, -1) for i in range(3, n)]
        return spine + [(2, 4, -1, -1)]
    if type_letter == "F":
        return [(1, 2, -1, -1), (2, 3, -1, -2), (3, 4, -1, -1)]
    if type_letter == "G":
        # alpha_1 short, alpha_2 long, highest root 3*a1 + 2*a2
        return [(1, 2, -3, -1)]
    raise ValueError(f"unknown type letter {type_letter!r}")


def validate_type(type_letter: str, rank: int) -> None:
    """Reject invalid (type, rank) combinations."""
    if type_letter not in RANKS:
        raise ValueError(f"unknown type letter {type_letter!r}; expected one of A-G")
    lo, hi = RANKS[type_letter]
    if not lo <= rank <= hi:
        raise ValueError(f"type {type_letter} requires rank in [{lo}, {hi}], got {rank}")


def cartan_matrix(type_letter: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix with C[p][q] = <alpha_q, alpha_p^vee> (1-based nodes into 0-based rows)."""
    validate_type(type_letter, rank)
    c = [[2 if p == q else 0 for q in range(rank)] for p in range(rank)]
    for p, q, cpq, cqp in _edges(type_letter, rank):
        c[p - 1][q - 1] = cpq
        c[q - 1][p - 1] = cqp
    return tuple(tuple(row) for row in c)


def symmetrizer(cartan: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Integers d_i = 2/(alpha_i, alpha_i) with min d_i = 1, so long roots have length^2 = 2."""
    n = len(cartan)
    d: list[Fraction | None] = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        stack = [start]
        while stack:
            p = stack.pop()
            for q in range(n):
                if p != q and cartan[p][q] != 0 and d[q] is None:
                    # symmetry of (alpha_p, alpha_q): C[p][q]/d_p = C[q][p]/d_q
                    d[q] = d[p] * Fraction(cartan[q][p], cartan[p][q])
                    stack.append(q)
    scale = min(x for x in d)  # type: ignore[type-var]
    out = [x / scale for x in d]  # type: ignore[operator]
    if any(x.denominator != 1 for x in out):
        raise ValueError("Cartan matrix is not symmetrizable with integer ratios")
    return tuple(int(x) for x in out)


class RootSystem:
    """Immutable root system of a simple Lie algebra, nodes numbered per Bourbaki."""

    def __init__(self, type_letter: str, rank: int):
        self.type_letter = type_letter
        self.rank = rank
        self.cartan = cartan_matrix(type_letter, rank)
        self.d = symmetrizer(self.cartan)
        # L * (alpha_p, b) = (L / d_p) * <b, alpha_p^vee>, with L = lcm(d)
        self.scale = lcm(*self.d)
        self._l_over_d = tuple(self.scale // dp for dp in self.d)
        self._simple_roots = tuple(tuple(1 if k == i else 0 for k in range(rank)) for i in range(rank))
        self._rows = self._close_roots()
        self.roots = tuple(sorted(self._rows))
        self.positive_roots = tuple(a for a in self.roots if min(a) >= 0)
        neg = frozenset(self._neg(a) for a in self.positive_roots)
        require(len(self.positive_roots) * 2 == len(self.roots) and neg.isdisjoint(self.positive_roots),
                "roots do not split into positive and negative halves")
        self.theta = max(self.positive_roots, key=sum)
        heights = [sum(a) for a in self.positive_roots]
        require(heights.count(sum(self.theta)) == 1, "highest root is not unique")
        require(min(self.pairings(self.theta)) >= 0, "highest root is not dominant")
        require(self.form(self.theta, self.theta) == 2 * self.scale, "(theta, theta) != 2")
        self.marks = self.theta

    # -- basic structure -------------------------------------------------

    @property
    def nodes(self) -> range:
        return range(1, self.rank + 1)

    def simple_root(self, i: int) -> Root:
        if not 1 <= i <= self.rank:
            raise ValueError(f"node {i} out of range 1..{self.rank}")
        return self._simple_roots[i - 1]

    def _neg(self, a: Root) -> Root:
        return tuple(-x for x in a)

    def _close_roots(self) -> dict[Root, tuple[int, ...]]:
        """Every root with its row of pairings, by closing the simple roots under
        the simple reflections; s_i fixes a root whose i-th pairing is 0.  The
        row of s_p(a) = a - c alpha_p is row(a) - c (Cartan column p)."""
        columns = tuple(zip(*self.cartan))
        rows: dict[Root, tuple[int, ...]] = {}
        seen = set(self._simple_roots)
        queue = list(zip(self._simple_roots, columns))
        while queue:
            a, row = queue.pop()
            rows[a] = row
            for p, c in enumerate(row):
                if c:
                    b = list(a)
                    b[p] -= c
                    b = tuple(b)
                    if b not in seen:
                        seen.add(b)
                        queue.append((b, tuple([x - c * y for x, y in zip(row, columns[p])])))
        expected = ROOT_COUNTS[self.type_letter](self.rank)
        require(len(rows) == expected, "reflection closure gave {} roots, expected {}",
                len(rows), expected)
        return rows

    def is_root(self, v: Sequence[int]) -> bool:
        return tuple(v) in self._rows

    # -- bilinear form and coroots ---------------------------------------

    def form(self, a: Sequence[int], b: Sequence[int]) -> int:
        """L * (a, b) = sum_p a_p (L / d_p) <b, alpha_p^vee>: the integer form on the
        root lattice, L = `scale`, read from the pairing row of b."""
        return sum(ap * w * c for ap, w, c in zip(a, self._l_over_d, self.pairings(b)))

    def inner(self, a: Sequence[int], b: Sequence[int]) -> Fraction:
        """Bilinear form on the root lattice, (theta, theta) = 2."""
        return Fraction(self.form(a, b), self.scale)

    def _row_sum(self, v: Sequence[int]) -> tuple[int, ...]:
        terms = [(q, vq) for q, vq in enumerate(v) if vq]
        return tuple(sum(row[q] * vq for q, vq in terms) for row in self.cartan)

    def pairings(self, v: Sequence[int]) -> tuple[int, ...]:
        """The row (<v, alpha_i^vee>)_i for i = 1..n, v in root coordinates: kept
        for a root, a Cartan-row sum for any other lattice vector."""
        v = tuple(v)
        row = self._rows.get(v)
        return self._row_sum(v) if row is None else row

    def d_alpha(self, a: Sequence[int]) -> int:
        """d_alpha = 2/(alpha, alpha); 1 for long roots, 2 or 3 for short ones."""
        if not self.is_root(a):
            raise ValueError(f"{tuple(a)} is not a root")
        return exact_quotient(2 * self.scale, self.form(a, a), "d_alpha")

    def coroot_coordinates(self, a: Sequence[int]) -> tuple[int, ...]:
        """Expansion h_alpha = sum_i c_i h_i over all nodes, c_i = a_i(alpha) * d_alpha / d_i."""
        d_a = self.d_alpha(a)
        return tuple(exact_quotient(ai * d_a, di, "coroot coefficient") for ai, di in zip(a, self.d))

    # -- Weyl group -------------------------------------------------------

    def reflect(self, i: int, v: Sequence[int]) -> Root:
        """Simple reflection s_i on a root-lattice vector."""
        coeff = self.pairings(v)[i - 1]
        out = list(v)
        out[i - 1] -= coeff
        return tuple(out)

    def __repr__(self) -> str:
        return f"RootSystem({self.type_letter}{self.rank}, {len(self.roots)} roots)"


def weyl_product(coroots: Iterable[Sequence[int]], vals: Sequence[int]) -> int:
    """Weyl dimension formula prod_c (ht c + <c, vals>) / prod_c ht c over the
    positive coroots c, given in simple-coroot coordinates (ht c = sum of c)."""
    num = 1
    den = 1
    for cor in coroots:
        s = sum(cor)
        num *= s + sum(c * v for c, v in zip(cor, vals))
        den *= s
    return exact_quotient(num, den, "Weyl dimension")


def exact_quotient(num: int, den: int, what: str) -> int:
    """num / den for a quantity `what` that must be an integer."""
    q, r = divmod(num, den)
    require(not r, "non-integral {}: {}/{}", what, num, den)
    return q


def require(ok: bool, message: str, *args) -> None:
    """Raise AssertionError(message) unless `ok`; the one way an invariant fails, kept by
    `python -O`.  `message` leads with the invariant's name and takes `args` only on failure."""
    if not ok:
        raise AssertionError(message.format(*args) if args else message)


def frozen(cls):
    """Give a `NamedTuple` class the semantics of `@dataclass(frozen=True)`.

    The record equals only a record of its own class (never a plain tuple, nor
    a record of another class with the same values) and hashes by its fields;
    the tuple refuses assignment.  When the class defines `__post_init__`,
    every construction runs it, `copy` and `pickle` included; it is read from
    the class at call time, so it can be rebound there.  `_make` and
    `_replace` are not part of a record's API."""

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return tuple.__eq__(self, other)
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        eq = __eq__(self, other)
        return eq if eq is NotImplemented else not eq

    cls.__eq__, cls.__ne__, cls.__hash__ = __eq__, __ne__, tuple.__hash__
    if hasattr(cls, "__post_init__"):
        make = cls.__new__

        def __new__(cls, *args, **kwargs):
            self = make(cls, *args, **kwargs)
            self.__post_init__()
            return self

        cls.__new__ = staticmethod(__new__)
    return cls


@lru_cache(maxsize=None)
def build(type_letter: str, rank: int) -> RootSystem:
    """Build (and cache) the root system of the given simple type: one
    object per valid (type, rank), a finite domain."""
    return RootSystem(type_letter, rank)


def format_terms(pairs: Sequence[tuple[int, str]]) -> str:
    """Render (coefficient, name) pairs, each coefficient nonzero, as a signed sum
    like '2a1-a3' or '1-t^2'; an empty name is the constant term, no pair is '0'."""
    text = "".join([("-" if c < 0 else "+") + (name if abs(c) == 1 and name else f"{abs(c)}{name}")
                    for c, name in pairs])
    return text.removeprefix("+") or "0"


def format_root(a: Sequence[int]) -> str:
    """Render a root-lattice vector like 'a2+2a3'."""
    return format_terms([(c, f"a{i}") for i, c in enumerate(a, start=1) if c])
