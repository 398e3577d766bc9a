from fractions import Fraction

import pytest

from bdsweyl.bdspair import all_pairs, build_pair
from bdsweyl.garland import (
    HPoly,
    exp_series,
    grouplike_diff,
    h_alpha,
    newton_identity_holds,
    p_element,
    product_formula_diff,
)

B3 = build_pair("B", 3, rank=3)


def test_hpoly_arithmetic():
    x = HPoly.variable((1, 1))
    y = HPoly.variable((2, 1))
    assert (x + y) * (x - y) == x * x - y * y
    assert (x - x).is_zero()
    assert HPoly.const(Fraction(1, 2)).scale(2) == HPoly.const(1)


def test_p_element_small_orders():
    a0 = B3.alpha0
    assert p_element(B3, a0, 0) == HPoly.const(1)
    h1 = h_alpha(B3, a0, 1)
    assert p_element(B3, a0, 1) == h1.scale(-1)
    h2 = h_alpha(B3, a0, 2)
    expected = (h1 * h1).scale(Fraction(1, 2)) - h2.scale(Fraction(1, 2))
    assert p_element(B3, a0, 2) == expected


def test_h_alpha_expansion():
    # h of alpha_0 = h_2 + h_3 for B_3
    poly = h_alpha(B3, B3.alpha0, 1)
    assert poly == HPoly.variable((2, 1)) + HPoly.variable((3, 1))
    with pytest.raises(ValueError):
        h_alpha(B3, (1, 0, 1), 1)


def test_simple_root_series_uses_single_node():
    a1 = B3.rs.simple_root(1)
    series = exp_series(B3, a1, 3)
    for poly in series:
        for mono in poly.terms:
            assert all(key[0] == 1 for key in mono)


def test_exp_series_matches_recursion():
    for pair in [B3, build_pair("G", 1, rank=2)]:
        for alpha in (pair.alpha0, pair.rs.theta):
            series = exp_series(pair, alpha, 6)
            for r in range(7):
                assert series[r] == p_element(pair, alpha, r)


def test_newton_identity():
    for pair in [B3, build_pair("G", 2, rank=2)]:
        for alpha in pair.rs.positive_roots:
            for r in range(1, 5):
                assert newton_identity_holds(pair, alpha, r)


def test_degree_grading():
    for pair in [B3, build_pair("C", 1, rank=3)]:
        for r in range(0, 5):
            poly = p_element(pair, pair.alpha0, r)
            assert poly.t_degrees(pair.a_j) == ({pair.a_j * r} if r else {0})


def test_product_formula_examples():
    assert product_formula_diff(B3, B3.rs.simple_root(2), 4) is None
    assert product_formula_diff(B3, B3.alpha0, 4) is None
    g2 = build_pair("G", 1, rank=2)
    assert product_formula_diff(g2, g2.rs.theta, 3) is None


def test_product_formula_all_small_pairs():
    for pair in all_pairs(3):
        for alpha in pair.rs.positive_roots:
            assert product_formula_diff(pair, alpha, 4) is None


def test_grouplike():
    assert grouplike_diff(B3, B3.alpha0, 3) is None
    assert grouplike_diff(B3, B3.rs.theta, 0) is None
    g2 = build_pair("G", 2, rank=2)
    assert grouplike_diff(g2, g2.rs.theta, 3) is None


def test_grouplike_order_one_is_primitivity():
    # at order 1 the identity is exactly primitivity of -H_alpha[1]
    alpha = B3.alpha0
    p1 = p_element(B3, alpha, 1)
    keys = {k for m in p1.terms for k in m}
    split = {k: HPoly.variable((0,) + k) + HPoly.variable((1,) + k) for k in keys}
    lhs = p1.substitute(split)
    left = HPoly({tuple((0,) + k for k in m): c for m, c in p1.terms.items()})
    right = HPoly({tuple((1,) + k for k in m): c for m, c in p1.terms.items()})
    assert lhs == left + right
