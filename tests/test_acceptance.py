"""Acceptance suite: one test per criterion, exact arithmetic, zero tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
"""

import random

from itertools import product
from math import comb

from bdsweyl.bdspair import all_pairs, build_pair
from bdsweyl.garland import coroot, exp_series, grouplike_diff, newton_identity_holds, product_formula_diff
from bdsweyl.rootsys import build
from bdsweyl.srring import (
    SimplicialComplex,
    Weight0,
    hilbert_series_bruteforce,
    presentation,
    verify_shelling,
)
from bdsweyl.verify import _random_weight, distinct_fractions
from bdsweyl.weylcrit import (
    DeltaWeight,
    EvalParams,
    EvalPoint,
    ideal_point_from_params,
    is_alambda_trivial,
    is_global_weyl_irreducible,
    local_weyl_dim_bn,
    local_weyl_dim_report,
    spin_module_dim,
    weight_convert,
)
from test_rootsys import weyl_dim

ORACLE_PAIRS = [("B", 3, 3), ("B", 4, 4), ("C", 3, 1), ("G", 2, 1), ("G", 2, 2),
                ("F", 4, 1), ("F", 4, 2), ("F", 4, 3), ("F", 4, 4)]


def _pairs():
    return [build_pair(t, j, rank=n) for t, n, j in ORACLE_PAIRS]


def _report(num, text):
    print(f"ACCEPTANCE {num:2d}: PASS  {text}")


def test_criterion_01_bn_structure_constants():
    for n in range(3, 7):
        pair = build_pair("B", n, rank=n)
        assert pair.alpha0 == tuple([0] * (n - 2) + [1, 2])
        assert pair.g0_components == (("A3",) if n == 3 else (f"D{n}",))
        assert pair.theta_k(1) == (1,) * n
        assert pair.comarks_alpha0 == tuple([0] * (n - 2) + [1, 1])
        assert len(pair.graded_roots(1)) == 2 * n
    _report(1, "(B_n, j=n) structure constants for n = 3..6")


def test_criterion_02_presentation_example():
    pair = build_pair("B", 3, rank=3)
    pres = presentation(pair, Weight0({2: 1, 0: 1}))
    assert [(v.node, v.level) for v in pres.variables] == [(2, 1), (3, 1)]
    assert [sorted((v.node, v.level) for v in g) for g in pres.generators] == [[(2, 1), (3, 1)]]
    assert pres.krull_dim() == 1
    facets = sorted(sorted((v.node, v.level) for v in f) for f in pres.facets().facets)
    assert facets == [[(2, 1)], [(3, 1)]]
    hs = pres.hilbert_series(12)
    assert hs.coefficients == (1, 0) + (2, 0) * 5 + (2,)
    assert hs.coefficients == hilbert_series_bruteforce(pres, 12)
    _report(2, "two-variable presentation with Hilbert series (1,0,2,0,2,...)")


def test_criterion_03_hilbert_oracle_equivalence():
    rng = random.Random(2024)
    pairs = _pairs()
    instances = 0
    while instances < 50:
        pair = pairs[instances % len(pairs)]
        pres = presentation(pair, _random_weight(pair, rng))
        assert pres.hilbert_series(24).coefficients == hilbert_series_bruteforce(pres, 24)
        instances += 1
    _report(3, f"{instances} randomized instances, face-sum DP == brute force to degree 24")


def test_criterion_04_krull_dimension():
    rng = random.Random(77)
    seen_comark_one = seen_comark_big = 0
    for pair in _pairs():
        for _ in range(6):
            pres = presentation(pair, _random_weight(pair, rng))
            max_facet = max(len(f) for f in pres.facets().facets)
            assert pres.krull_dim() == max_facet
            if pres.jac_zero:
                seen_comark_one += 1
                assert max_facet == pres.d_lambda()
            else:
                seen_comark_big += 1
    assert seen_comark_one and seen_comark_big
    _report(4, f"max facet size ({seen_comark_one} closed-form / {seen_comark_big} reported-only instances)")


def test_criterion_05_comark_bound_exhaustive():
    pairs = all_pairs(8)
    hits = 0
    for pair in pairs:
        if pair.comarks_alpha0[pair.j - 1] == 1:
            hits += 1
            assert max(pair.comarks_alpha0) <= 1, pair.describe()
    assert hits > 0
    _report(5, f"comark-1 bound over {len(pairs)} pairs of rank <= 8 ({hits} applicable)")


def test_criterion_06_chain_counts_all_tie_breaks():
    pairs = all_pairs(8)
    for pair in pairs:
        nodes = list(pair.rs.nodes)
        orders = [None, tuple(reversed(nodes)), tuple(nodes[1:] + nodes[:1])]
        for prefer in orders:
            counts = pair.reflection_chain(prefer).node_counts()
            assert all(counts.get(i, 0) == pair.comarks_alpha0[i - 1] for i in nodes), \
                f"{pair.describe()} order={prefer}"
    _report(6, f"chain index counts equal comarks over {len(pairs)} pairs, 3 tie-break orders")


def test_criterion_07_shellings():
    rng = random.Random(55)
    checked = 0
    for n in (3, 4, 5):
        pair = build_pair("B", n, rank=n)
        for _ in range(20):
            pres = presentation(pair, _random_weight(pair, rng))
            sc = pres.facets()
            order = pres.canonical_shelling()
            assert sorted(map(sorted, order)) == sorted(map(sorted, sc.facets))
            assert len({len(f) for f in sc.facets}) == 1
            assert verify_shelling(sc, order)
            checked += 1
    bad = SimplicialComplex((), (frozenset({1, 2, 3}), frozenset({3, 4, 5})))
    assert verify_shelling(bad, list(bad.facets)) is False
    _report(7, f"{checked} canonical shellings verified; bad order rejected")


def test_criterion_08_criteria_consistency():
    for pair in all_pairs(5):
        labels = pair.delta0_labels
        for combo in product(range(4), repeat=len(labels)):
            lam = Weight0(dict(zip(labels, combo)))
            trivial = is_alambda_trivial(pair, lam)
            assert trivial == (len(presentation(pair, lam).variables) == 0)
            if is_global_weyl_irreducible(pair, lam):
                assert trivial
    for n in (3, 4, 5):
        pair = build_pair("B", n, rank=n)
        for combo in product(range(4), repeat=n):
            lam = Weight0(dict(zip(pair.delta0_labels, combo)))
            expected = all(lam[k] == 0 for k in pair.delta0_labels if k != n - 1)
            assert is_global_weyl_irreducible(pair, lam) == expected
    _report(8, "predicate equivalences exhaustive for rank <= 5, entries <= 3")


def test_criterion_09_ideal_points():
    rng = random.Random(31337)
    pairs = _pairs()
    for trial in range(100):
        pair = pairs[trial % len(pairs)]
        mu = _random_weight(pair, rng, bound=2)
        k = rng.randrange(0, 3)
        points = tuple(
            EvalPoint(z, DeltaWeight.of(pair.rs.rank,
                                        {i: rng.randrange(0, 3) for i in pair.rs.nodes}))
            for z in distinct_fractions(rng, k))
        c = pair.comarks_alpha0
        vals = {i: mu[i] + sum(p.weight[i] for p in points) for i in pair.i_complement}
        vals[0] = mu[0] + sum(c[i - 1] * p.weight[i] for p in points for i in pair.rs.nodes)
        lam = Weight0(vals)
        point = ideal_point_from_params(pair, lam, points and EvalParams(mu, points) or EvalParams(mu, ()))
        weighted = sum(c[i - 1] * point.degree(i) for i in pair.rs.nodes)
        assert weighted == lam[0] - mu[0]
        for i in pair.i_complement:
            assert point.degree(i) <= lam[i]
    _report(9, "100 randomized parameter points satisfy all relations and the degree identity")


def test_criterion_10_dimensions():
    b3 = build_pair("B", 3, rank=3)
    for n in (3, 4, 5):
        pair = build_pair("B", n, rank=n)
        for r in range(0, 4):
            assert local_weyl_dim_bn(pair, 0, r) == 2 ** (n * r)
    assert local_weyl_dim_bn(b3, 2, 1) == 22
    for i in range(0, 3):
        base = local_weyl_dim_bn(b3, i, 1)
        for r in range(0, 5):
            assert local_weyl_dim_bn(b3, i, r) == base ** r
    assert weyl_dim(build("D", 3), {2: 1}) == 4
    assert spin_module_dim(b3, 1) == 4
    for i in (1, 2):
        rep = local_weyl_dim_report(b3, i, 2)
        assert rep.mismatch == (rep.displayed_value != rep.value)
        assert rep.mismatch  # the displayed sum drops the constant binomial term
    _report(10, "2^(nr), the value 22, multiplicativity, spin dimension 4, mismatch surfaced")


def test_criterion_11_garland_identities():
    roots = 0
    for pair in all_pairs(4):
        for alpha in pair.rs.positive_roots:
            exp_series(coroot(pair, alpha), 6)  # asserts agreement with the recursion to order 6
            for r in range(1, 7):
                assert newton_identity_holds(coroot(pair, alpha), r)
            assert product_formula_diff(coroot(pair, alpha), 4) is None
            assert grouplike_diff(coroot(pair, alpha), 4) is None
            roots += 1
    _report(11, f"series identities over {roots} positive roots of all rank <= 4 pairs at order 4")


def test_criterion_12_weight_conversion():
    for n in range(3, 7):
        pair = build_pair("B", n, rank=n)
        dw = weight_convert(pair, Weight0({n - 1: 1}))
        assert dw[n] == -1
        dw0 = weight_convert(pair, Weight0({0: 1}))
        assert dw0.values == tuple(int(i == n) for i in range(1, n + 1))
    _report(12, "spin-node value -1 for n = 3..6 and lambda_0 = omega_n")
