import os
import subprocess
import sys
from fractions import Fraction
from functools import reduce
from itertools import islice
from math import gcd, lcm
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bdsweyl
from bdsweyl import garland
from bdsweyl.bdspair import all_pairs, build_pair
from bdsweyl.garland import (
    HPoly,
    coroot,
    exp_series,
    grouplike_diff,
    h_alpha,
    newton_identity_holds,
    p_element,
    product_formula_diff,
    root_failures,
    tensor_square_sizes,
)

B3 = build_pair("B", 3, rank=3)


def plus(p, q):
    """Test helper: p + q, by `HPoly.sum` as production code adds."""
    return HPoly.sum((p, q))


def minus(p, q):
    """Test helper: p - q, by `HPoly.sum` and `scale` as production code subtracts."""
    return HPoly.sum((p, q.scale(-1)))


def variable(key):
    """The generator H[key] as a polynomial."""
    return HPoly({(key,): 1})


def substitute(poly, mapping):
    """Oracle: the literal substitution of mapping[key] for every key of every
    monomial, one product per key.  Production code never substitutes: the
    coproduct goes by the recursion on the doubled coroot."""
    return HPoly.sum(reduce(lambda term, key: term * mapping[key], m, HPoly.const(c))
                     for m, c in poly.terms.items())


def coproduct(poly, n):
    """Oracle: H[i,p] -> H[i,p] + H[i+n,p] by literal substitution, node i of
    the second tensor factor named i + n."""
    split = {k: plus(variable(k), variable((k[0] + n, k[1]))) for m in poly.terms for k in m}
    return substitute(poly, split)


def shift(poly, n):
    """poly in the second tensor factor: node i renamed i + n."""
    return HPoly({tuple((i + n, p) for i, p in m): c for m, c in poly.terms.items()})


def test_hpoly_arithmetic():
    x = variable((1, 1))
    y = variable((2, 1))
    assert plus(x, y) * minus(x, y) == minus(x * x, y * y)
    assert minus(x, x).is_zero()
    assert HPoly.const(Fraction(1, 2)).scale(2) == HPoly.const(1)


def test_p_element_small_orders():
    a0 = B3.alpha0
    assert p_element(coroot(B3, a0), 0) == HPoly.const(1)
    h1 = h_alpha(coroot(B3, a0), 1)
    assert p_element(coroot(B3, a0), 1) == h1.scale(-1)
    h2 = h_alpha(coroot(B3, a0), 2)
    expected = minus((h1 * h1).scale(Fraction(1, 2)), h2.scale(Fraction(1, 2)))
    assert p_element(coroot(B3, a0), 2) == expected


def test_h_alpha_expansion():
    # h of alpha_0 = h_2 + h_3 for B_3
    poly = h_alpha(coroot(B3, B3.alpha0), 1)
    assert poly == plus(variable((2, 1)), variable((3, 1)))
    with pytest.raises(ValueError):
        coroot(B3, (1, 0, 1))


def test_simple_root_series_uses_single_node():
    a1 = B3.rs.simple_root(1)
    series = exp_series(coroot(B3, a1), 3)
    for poly in series:
        for mono in poly.terms:
            assert all(key[0] == 1 for key in mono)


def test_exp_series_matches_recursion():
    for pair in [B3, build_pair("G", 1, rank=2)]:
        for alpha in (pair.alpha0, pair.rs.theta):
            series = exp_series(coroot(pair, alpha), 6)
            for r in range(7):
                assert series[r] == p_element(coroot(pair, alpha), r)


def test_newton_identity():
    for pair in [B3, build_pair("G", 2, rank=2)]:
        for alpha in pair.rs.positive_roots:
            for r in range(1, 5):
                assert newton_identity_holds(coroot(pair, alpha), r)


def test_degree_grading():
    for pair in [B3, build_pair("C", 1, rank=3)]:
        for r in range(0, 5):
            poly = p_element(coroot(pair, pair.alpha0), r)
            assert {pair.a_j * sum(k[-1] for k in m) for m in poly.terms} == ({pair.a_j * r} if r else {0})


def test_product_formula_examples():
    assert product_formula_diff(coroot(B3, B3.rs.simple_root(2)), 4) is None
    assert product_formula_diff(coroot(B3, B3.alpha0), 4) is None
    g2 = build_pair("G", 1, rank=2)
    assert product_formula_diff(coroot(g2, g2.rs.theta), 3) is None


def test_product_formula_all_small_pairs():
    for pair in all_pairs(3):
        for alpha in pair.rs.positive_roots:
            assert product_formula_diff(coroot(pair, alpha), 4) is None


def test_grouplike():
    assert grouplike_diff(coroot(B3, B3.alpha0), 3) is None
    assert grouplike_diff(coroot(B3, B3.rs.theta), 0) is None
    g2 = build_pair("G", 2, rank=2)
    assert grouplike_diff(coroot(g2, g2.rs.theta), 3) is None


def test_grouplike_order_one_is_primitivity():
    # at order 1 the identity is exactly primitivity of -H_alpha[1]
    alpha = B3.alpha0
    p1 = p_element(coroot(B3, alpha), 1)
    lhs = coproduct(p1, 3)
    left, right = p1, shift(p1, 3)
    assert lhs == plus(left, right)


def test_caches_are_shared_by_equal_coroots_and_bounded():
    # B3 at node 2 and at node 3 have the same positive roots, hence the same
    # coroots: the second pass is answered from the caches.
    p_element.cache_clear()
    exp_series.cache_clear()
    sizes = []
    for j in (2, 3):
        pair = build_pair("B", j, rank=3)
        for alpha in pair.rs.positive_roots:
            assert root_failures(pair, alpha, 3) == []
        sizes.append((p_element.cache_info().currsize, exp_series.cache_info().currsize))
    assert sizes[0] == sizes[1]
    assert p_element.cache_info().maxsize is not None
    assert exp_series.cache_info().maxsize is not None


def test_series_check_survives_optimized_mode():
    code = ("from bdsweyl import garland\n"
            "garland.p_element = lambda c, r: garland.HPoly()\n"
            "garland.exp_series((1,), 1)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(bdsweyl.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode != 0
    assert "series/recursion mismatch" in proc.stderr


KEYS = [(1, 1), (1, 2), (2, 1)]
small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
monomials = st.lists(st.sampled_from(KEYS), max_size=3).map(lambda ks: tuple(sorted(ks)))
polys = st.dictionaries(monomials, small_fractions, max_size=4).map(HPoly)
points = st.fixed_dictionaries({k: small_fractions for k in KEYS})


def evaluate(poly, point):
    """Value of the polynomial at a point, term by term without HPoly arithmetic."""
    total = Fraction(0)
    for m, c in poly.terms.items():
        for key in m:
            c *= point[key]
        total += c
    return total


@settings(max_examples=100, deadline=None)
@given(st.lists(polys, max_size=4), polys, polys, st.fixed_dictionaries({k: polys for k in KEYS}),
       points)
def test_evaluation_is_a_ring_homomorphism(summands, p, q, mapping, point):
    assert evaluate(HPoly.sum(summands), point) == sum(evaluate(x, point) for x in summands)
    assert evaluate(plus(p, q), point) == evaluate(p, point) + evaluate(q, point)
    assert evaluate(p * q, point) == evaluate(p, point) * evaluate(q, point)
    inner = {k: evaluate(v, point) for k, v in mapping.items()}
    assert evaluate(substitute(p, mapping), point) == evaluate(p, inner)


def fraction_product(a, b):
    """Oracle: the product of two key tuple -> Fraction mappings, term by term,
    with every concatenated key tuple sorted whole."""
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(sorted(m1 + m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def reference_repr(poly):
    """The rendering of the Fraction terms, each coefficient as str(Fraction)."""
    terms = dict(poly.terms)
    if not terms:
        return "0"
    return " + ".join(f"{terms[m]}*" + ("*".join(f"H{list(k)}" for k in m) or "1")
                      for m in sorted(terms, key=lambda m: (len(m), m)))


def no_fraction(*args):
    raise AssertionError("a Fraction was built")


def in_lowest_terms(poly):
    return poly.den > 0 and gcd(poly.den, *poly.nums.values()) == 1 and 0 not in poly.nums.values()


@settings(max_examples=100, deadline=None)
@given(polys, polys, st.lists(polys, max_size=4), small_fractions, points)
def test_integer_numerators_agree_with_fraction_terms(p, q, summands, c, point):
    assert dict((p * q).terms) == fraction_product(p.terms, q.terms)
    assert evaluate(p * q, point) == evaluate(p, point) * evaluate(q, point)
    assert evaluate(p.scale(c), point) == c * evaluate(p, point)
    assert evaluate(minus(p, q), point) == evaluate(p, point) - evaluate(q, point)
    assert evaluate(HPoly.sum(summands), point) == sum(evaluate(x, point) for x in summands)
    with mock.patch.object(garland, "Fraction", no_fraction):
        product, total = p * q, HPoly.sum(summands)  # integer arithmetic only
    for poly in (product, total, p.scale(c), minus(p, q)):
        assert type(poly.den) is int and all(type(v) is int for v in poly.nums.values())
        assert in_lowest_terms(poly)
        assert all(isinstance(v, Fraction) for v in poly.terms.values())


# Monomials over more keys, up to degree 5, each key possibly repeated.
long_monomials = st.lists(st.sampled_from(KEYS + [(0, 3), (2, 2), (4, 1)]),
                          max_size=5).map(lambda ks: tuple(sorted(ks)))
long_polys = st.dictionaries(long_monomials, small_fractions, max_size=6).map(HPoly)


@settings(max_examples=100, deadline=None)
@given(long_polys, long_polys)
def test_product_matches_the_full_sort_oracle(x, y):
    for p, q in ((x, y), (y, x)):
        product, expected = p * q, fraction_product(p.terms, q.terms)
        assert product.den == lcm(*(c.denominator for c in expected.values()))
        assert dict(product.terms) == expected
        assert all(type(m) is tuple and list(m) == sorted(m) for m in product.terms)


@settings(max_examples=100, deadline=None)
@given(long_polys)
def test_key_tuples_round_trip_through_the_packed_monomials(x):
    # keys with node 0 and repeated keys included
    assert HPoly(dict(x.terms)) == x
    assert repr(HPoly(dict(x.terms))) == repr(x) == reference_repr(x)


def test_repr_bytes_of_a_repeated_node_zero_key():
    poly = HPoly({((0, 3), (0, 3), (1, 1)): Fraction(1, 2), (): -1, ((2, 1),): 3})
    assert repr(poly) == "-1*1 + 3*H[2, 1] + 1/2*H[0, 3]*H[0, 3]*H[1, 1]"
    assert dict(poly.terms) == {(): -1, ((2, 1),): 3, ((0, 3), (0, 3), (1, 1)): Fraction(1, 2)}


def test_key_tuples_of_one_monomial_in_any_order_add_up():
    # two orders of one monomial are one packed key: the coefficients add, and
    # a sum of 0 leaves no numerator
    poly = HPoly({((1, 1), (2, 1)): 1, ((2, 1), (1, 1)): 1})
    assert repr(poly) == "2*H[1, 1]*H[2, 1]"
    assert poly == HPoly({((1, 1), (2, 1)): 2})
    zero = HPoly({((1, 1), (2, 1)): Fraction(1, 3), ((2, 1), (1, 1)): Fraction(-1, 3)})
    assert zero == HPoly() and zero.nums == {} and zero.den == 1


def admitted(rank, N):
    try:
        garland.check_order(rank, N)
    except ValueError:
        return False
    return True


def test_layout_holds_at_every_admitted_order():
    # The largest order the CLI admits per rank, at the highest node of the
    # tensor square and the highest p: the key fits its slot, the degree-N
    # monomial fits its field, and so does every product of degree N.
    for rank in range(2, 13):
        N = max(n for n in range(garland.P_SLOTS + 2) if admitted(rank, n))
        assert not admitted(rank, N + 1)
        assert N <= garland.P_SLOTS and N <= garland.MAX_EXPONENT
        top = (2 * rank, N)
        assert dict(HPoly({(top,) * N: 1}).terms) == {(top,) * N: 1}
        for k in range(N + 1):
            assert HPoly({(top,) * k: 1}) * HPoly({(top,) * (N - k): 1}) == HPoly({(top,) * N: 1})


@pytest.mark.parametrize("code, message", [
    ("x = HPoly({((1, 1),) * 8: 1})\nx * x\n", "HPoly layout: product of degree up to 16 above 15"),
    ("HPoly({((1, 13),): 1})\n", "HPoly layout: monomial ((1, 13),) needs nodes >= 0, p in 1..12"),
])
def test_layout_guard_survives_optimized_mode(code, message):
    env = dict(os.environ, PYTHONPATH=str(Path(bdsweyl.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", "from bdsweyl.garland import HPoly\n" + code],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode != 0
    assert message in proc.stderr


@settings(max_examples=50, deadline=None)
@given(polys, polys)
def test_equal_values_compare_equal_however_built(x, y):
    assert (x.scale(Fraction(1, 3)) * y).scale(3) == x * y
    assert HPoly.sum([x, y, x.scale(-1), y.scale(-1)]) == HPoly()
    assert HPoly.sum([x, y]).scale(Fraction(2, 7)) == plus(x.scale(Fraction(2, 7)), y.scale(Fraction(2, 7)))
    assert HPoly(dict(x.terms)) == x
    assert x.scale(0).is_zero() and x.scale(0) == HPoly()


@settings(max_examples=50, deadline=None)
@given(polys, polys, small_fractions)
def test_repr_renders_each_coefficient_as_str_fraction(x, y, c):
    for poly in (x, x * y, minus(x, y).scale(c), HPoly()):
        assert repr(poly) == reference_repr(poly)


def test_tensor_square_sizes_count_the_coproduct_monomials():
    assert list(islice(tensor_square_sizes(3), 9))[8] == 15525
    assert list(islice(tensor_square_sizes(8), 6))[4:] == [6460, 33440]
    # The coroot of the highest root has full support, so the coproduct of its
    # P[alpha, r] has every monomial of weight r in the 2s tensor generators.
    for pair, N in ((B3, 5), (build_pair("G", 2, rank=2), 6)):
        c = coroot(pair, pair.rs.theta)
        assert all(c)
        sizes = list(islice(tensor_square_sizes(pair.rs.rank), N + 1))
        doubled = garland._doubled_series(c, N)
        for r in range(N + 1):
            assert len(coproduct(p_element(c, r), len(c)).terms) == sizes[r]
            assert len(doubled[r].terms) == sizes[r]


# every distinct coroot of a positive root over the pairs up to rank 6
COROOTS = sorted({coroot(pair, alpha) for pair in all_pairs(6) for alpha in pair.rs.positive_roots})


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(COROOTS), st.integers(min_value=0, max_value=4))
def test_doubled_series_is_the_coproduct_by_substitution(c, N):
    doubled = garland._doubled_series(c, N)
    assert len(doubled) == N + 1
    for r in range(N + 1):
        assert doubled[r] == coproduct(p_element(c, r), len(c))
