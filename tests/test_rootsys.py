import importlib
import pkgutil
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bdsweyl
from bdsweyl.rootsys import (CLASSICAL_MAX_RANK, ROOT_COUNTS, RootSystem, build, cartan_matrix,
                              format_root, validate_type, weyl_product)
from bdsweyl.srring import _format_poly
from test_records import FIELDS

ALL_TYPES = [("A", range(1, 9)), ("B", range(2, 9)), ("C", range(2, 9)),
             ("D", range(3, 9)), ("E", range(6, 9)), ("F", [4]), ("G", [2])]


def all_systems(max_rank=8):
    for letter, ranks in ALL_TYPES:
        for n in ranks:
            if n <= max_rank:
                yield build(letter, n)


def test_root_counts_match_closed_forms():
    for rs in all_systems():
        assert len(rs.roots) == ROOT_COUNTS[rs.type_letter](rs.rank)
        assert len(rs.positive_roots) * 2 == len(rs.roots)


def test_b3_example():
    rs = build("B", 3)
    assert len(rs.roots) == 18
    assert rs.theta == (1, 2, 2)
    assert rs.marks == (1, 2, 2)


def test_a1_trivial():
    rs = build("A", 1)
    assert set(rs.roots) == {(1,), (-1,)}
    assert rs.theta == (1,)


def test_g2_count_and_marks():
    rs = build("G", 2)
    assert len(rs.roots) == 12
    assert rs.theta == (3, 2)


def test_invalid_types_rejected():
    for letter, rank in [("D", 2), ("B", 1), ("E", 5), ("E", 9), ("F", 3), ("G", 3), ("X", 4), ("A", 0)]:
        with pytest.raises(ValueError):
            build(letter, rank)


def test_inner_products():
    b3 = build("B", 3)
    a3 = b3.simple_root(3)
    assert b3.inner(a3, a3) == 1  # short root
    a2 = build("A", 2)
    assert a2.inner(a2.simple_root(1), a2.simple_root(2)) == -1
    for rs in all_systems(max_rank=6):
        assert rs.inner(rs.theta, rs.theta) == 2


def test_root_lengths_and_dalpha():
    for rs in all_systems(max_rank=6):
        for a in rs.roots:
            sq = rs.inner(a, a)
            assert sq in (Fraction(2), Fraction(1), Fraction(2, 3))
            assert rs.d_alpha(a) * sq == 2


def test_comark_examples():
    b3 = build("B", 3)
    a0 = (0, 1, 2)  # alpha_2 + 2 alpha_3
    assert b3.is_root(a0)
    assert b3.coroot_coordinates(a0)[3 - 1] == 1
    assert b3.coroot_coordinates(a0)[2 - 1] == 1
    assert b3.coroot_coordinates(b3.theta)[3 - 1] == 1
    for rs in all_systems(max_rank=5):
        for i in rs.nodes:
            cor = rs.coroot_coordinates(rs.simple_root(i))
            assert cor == tuple(1 if k == i else 0 for k in rs.nodes)


def test_comark_rejects_non_root():
    b3 = build("B", 3)
    with pytest.raises(ValueError):
        b3.coroot_coordinates((1, 0, 1))


def test_comark_additive_on_equal_length_triples():
    for rs in [build("B", 3), build("C", 3), build("G", 2), build("F", 4)]:
        pos = rs.positive_roots
        for a, b in combinations(pos, 2):
            c = tuple(x + y for x, y in zip(a, b))
            if not rs.is_root(c):
                continue
            if rs.inner(a, a) == rs.inner(b, b) == rs.inner(c, c):
                for i in rs.nodes:
                    assert rs.coroot_coordinates(c)[i - 1] == (rs.coroot_coordinates(a)[i - 1]
                                                               + rs.coroot_coordinates(b)[i - 1])


def test_reflections():
    b3 = build("B", 3)
    assert b3.reflect(3, b3.simple_root(3)) == (0, 0, -1)
    assert b3.reflect(3, b3.simple_root(2)) == (0, 1, 2)  # <a2, a3^vee> = -2
    for rs in all_systems(max_rank=5):
        rng = random.Random(11)
        for _ in range(20):
            a = rng.choice(rs.roots)
            i = rng.randrange(1, rs.rank + 1)
            assert rs.reflect(i, rs.reflect(i, a)) == a


def cartan_row_sums(rs, v):
    """Oracle: (<v, alpha_i^vee>)_i, each the full sum over the Cartan row."""
    c = cartan_matrix(rs.type_letter, rs.rank)
    return tuple(sum(c[i][q] * v[q] for q in range(rs.rank)) for i in range(rs.rank))


def valid_systems(max_rank):
    """Every valid (type, rank) with rank <= max_rank."""
    for letter in "ABCDEFG":
        for n in range(1, max_rank + 1):
            try:
                validate_type(letter, n)
            except ValueError:
                continue
            yield letter, n


def test_pairing_table_matches_cartan_rows():
    # the row kept for each root by the reflection closure, stepped from its
    # parent's row by one Cartan column, is the Cartan-row sum, for every
    # (type, rank) of RANKS; any other lattice vector is summed on the spot
    rng = random.Random(3)
    for letter, n in valid_systems(CLASSICAL_MAX_RANK):
        rs = build(letter, n)
        assert set(rs._rows) == set(rs.roots)
        for a in rs.roots:
            want = cartan_row_sums(rs, a)
            assert rs.pairings(a) == want
            assert rs.pairings(list(a)) == want
            assert tuple(rs.pairings(a)[i - 1] for i in rs.nodes) == want
        for _ in range(10):
            v = tuple(rng.randrange(-4, 5) for _ in rs.nodes)
            assert rs.pairings(v) == cartan_row_sums(rs, v)
            i = rng.randrange(1, n + 1)
            assert rs.reflect(i, v)[i - 1] == v[i - 1] - cartan_row_sums(rs, v)[i - 1]


def test_build_is_one_system_per_value():
    assert build("B", 3) is build("B", 3)
    own = RootSystem("B", 3)
    assert own is not build("B", 3) and own.roots == build("B", 3).roots
    with pytest.raises(ValueError, match="out of range"):
        own.simple_root(0)
    with pytest.raises(ValueError, match="out of range"):
        own.simple_root(4)


def weyl_dim(rs, lam):
    """The dimension of the irreducible module whose dominant highest weight
    takes the values lam (node -> value, zeros omitted), by `weyl_product`
    over the positive coroots."""
    vals = [lam.get(i, 0) for i in rs.nodes]
    return weyl_product((rs.coroot_coordinates(a) for a in rs.positive_roots), vals)


def test_weyl_dim_examples():
    for n in range(2, 7):
        assert weyl_dim(build("B", n), {n: 1}) == 2 ** n
    assert weyl_dim(build("B", 3), {}) == 1
    for n in range(4, 7):
        for i in range(1, n - 1):
            from math import comb
            assert weyl_dim(build("D", n), {i: 1}) == comb(2 * n, i)
    # adjoint of A2 has dimension 8, natural has 3
    a2 = build("A", 2)
    assert weyl_dim(a2, {1: 1, 2: 1}) == 8
    assert weyl_dim(a2, {1: 1}) == 3
    assert weyl_dim(build("G", 2), {1: 1}) == 7


def test_weyl_dim_monotone_on_samples():
    rng = random.Random(5)
    for rs in [build("A", 3), build("B", 3), build("C", 4), build("D", 4)]:
        for _ in range(10):
            lam = {i: rng.randrange(0, 3) for i in rs.nodes}
            mu = {i: rng.randrange(0, 2) for i in rs.nodes}
            if all(v == 0 for v in mu.values()):
                mu[rng.randrange(1, rs.rank + 1)] = 1
            both = {i: lam.get(i, 0) + mu.get(i, 0) for i in rs.nodes}
            assert weyl_dim(rs, both) > weyl_dim(rs, lam)


def test_cartan_matrix_shapes():
    c = cartan_matrix("G", 2)
    assert c == ((2, -3), (-1, 2))
    c = cartan_matrix("B", 3)
    assert c[2][1] == -2 and c[1][2] == -1
    c = cartan_matrix("C", 3)
    assert c[2][1] == -1 and c[1][2] == -2


def test_format_root():
    assert format_root((0, 1, 2)) == "a2+2a3"
    assert format_root((0, 0, 0)) == "0"
    assert format_root((-1, 1, 0)) == "-a1+a2"


def format_root_by_terms(a):
    """Oracle: a root-lattice vector rendered one term at a time."""
    parts = []
    for i, c in enumerate(a, start=1):
        if c == 0:
            continue
        if c == 1:
            term = f"a{i}"
        elif c == -1:
            term = f"-a{i}"
        else:
            term = f"{c}a{i}"
        parts.append(term if not parts or term.startswith("-") else "+" + term)
    return "".join(parts) if parts else "0"


def format_poly_by_terms(coeffs):
    """Oracle: a polynomial in t rendered one term at a time."""
    parts = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        if k == 0:
            parts.append(str(c))
        else:
            mono = "t" if k == 1 else f"t^{k}"
            if c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}{mono}")
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += p if p.startswith("-") else "+" + p
    return out


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from([-2, -1, 0, 1, 2]) | st.integers(-10**30, 10**30), max_size=14))
def test_format_terms_matches_the_term_by_term_oracles(coeffs):
    # both renderers go through rootsys.format_terms; +-1 drop their digit
    # except as the constant term of a polynomial
    assert format_root(coeffs) == format_root_by_terms(coeffs)
    assert _format_poly(coeffs) == format_poly_by_terms(coeffs)


# the tuple classes of the package that are not records: they equal a plain tuple
PLAIN_TUPLES = {"srring.SRVariable", "cli._Arg"}


def test_every_tuple_class_is_a_frozen_record_or_a_listed_plain_tuple():
    # a new record left without @frozen would silently equal a plain tuple
    found = {}
    for info in pkgutil.iter_modules(bdsweyl.__path__):
        module = importlib.import_module(f"bdsweyl.{info.name}")
        for cls in vars(module).values():
            if isinstance(cls, type) and issubclass(cls, tuple) and cls.__module__ == module.__name__:
                found[f"{info.name}.{cls.__qualname__}"] = cls
    records = {f"{cls.__module__.removeprefix('bdsweyl.')}.{cls.__qualname__}" for cls in FIELDS}
    assert len(records) == 11 and set(found) == records | PLAIN_TUPLES
    for name, cls in found.items():
        if name in records:
            assert cls.__eq__.__qualname__ == "frozen.<locals>.__eq__", name
            assert cls.__hash__ is tuple.__hash__, name
        else:
            assert cls.__eq__ is tuple.__eq__, name
