import random
from fractions import Fraction
from itertools import product
from math import comb, log10

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdsweyl.bdspair import all_pairs, build_pair
from bdsweyl.verify import FRACTION_POOL, distinct_fractions, draw_eval_params
from bdsweyl.rootsys import build
from bdsweyl.srring import Weight0, presentation
from bdsweyl.weylcrit import (
    MAX_LOCAL_DIM_DIGITS,
    DeltaWeight,
    EvalParams,
    EvalPoint,
    displayed_sum_dim,
    ideal_point_from_params,
    is_alambda_trivial,
    is_global_weyl_irreducible,
    local_weyl_dim_bn,
    local_weyl_dim_report,
    record_constants,
    sl2_local_weyl_basis,
    spin_module_dim,
    untwisted_fundamental_local_dim,
    weight_convert,
    weight_restrict,
)

B3 = build_pair("B", 3, rank=3)


def small_weights(pair, bound):
    labels = pair.delta0_labels
    for combo in product(range(bound + 1), repeat=len(labels)):
        yield Weight0(dict(zip(labels, combo)))


def test_weight_convert_spin_examples():
    for n in range(3, 7):
        pair = build_pair("B", n, rank=n)
        dw = weight_convert(pair, Weight0({n - 1: 1}))
        assert dw[n] == -1
        assert all(dw[i] == (1 if i == n - 1 else 0) for i in range(1, n))
        # lambda_0 is the n-th fundamental weight of the ambient algebra
        dw0 = weight_convert(pair, Weight0({0: 1}))
        assert dw0.values == tuple(0 if i < n else 1 for i in range(1, n + 1))
    assert weight_convert(B3, Weight0()).values == (0, 0, 0)


def test_weight_convert_rejects_non_integral():
    pair = build_pair("G", 2, rank=2)  # comark at j = 2 is 2
    assert pair.comarks_alpha0[1] == 2
    with pytest.raises(ValueError, match="integral"):
        weight_convert(pair, Weight0({0: 1}))


def test_weight_restrict_round_trip():
    rng = random.Random(2)
    for pair in [B3, build_pair("C", 1, rank=3), build_pair("G", 1, rank=2)]:
        for _ in range(10):
            dw = DeltaWeight.of(pair.rs.rank, {i: rng.randrange(0, 3) for i in pair.rs.nodes})
            lam = weight_restrict(pair, dw)
            assert weight_convert(pair, lam) == dw


def test_trivial_predicate_examples():
    for n in (3, 4, 5):
        pair = build_pair("B", n, rank=n)
        for r in range(4):
            assert is_alambda_trivial(pair, Weight0({n - 1: r}))
    assert not is_alambda_trivial(B3, Weight0({0: 1}))
    assert is_alambda_trivial(B3, Weight0())


def test_trivial_iff_no_variables():
    for pair in all_pairs(5):
        for lam in small_weights(pair, 2):
            assert is_alambda_trivial(pair, lam) == (len(presentation(pair, lam).variables) == 0)


ALL_PAIRS_6 = all_pairs(6)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_trivial_iff_no_variables_property(data):
    pair = data.draw(st.sampled_from(ALL_PAIRS_6), label="pair")
    lam = Weight0({k: data.draw(st.integers(0, 5), label=f"h{k}") for k in pair.delta0_labels})
    assert is_alambda_trivial(pair, lam) == (presentation(pair, lam).variables == ())


def test_irreducible_examples():
    for n in (3, 4, 5):
        pair = build_pair("B", n, rank=n)
        for lam in small_weights(pair, 2):
            expected = all(lam[k] == 0 for k in pair.delta0_labels if k != n - 1)
            assert is_global_weyl_irreducible(pair, lam) == expected
    assert is_global_weyl_irreducible(B3, Weight0())
    assert not is_global_weyl_irreducible(B3, Weight0({1: 1}))


def test_irreducible_implies_trivial_with_converse_counterexample():
    counterexamples = []
    for pair in all_pairs(5):
        for lam in small_weights(pair, 2):
            irr = is_global_weyl_irreducible(pair, lam)
            triv = is_alambda_trivial(pair, lam)
            if irr:
                assert triv, f"{pair!r} {lam!r}"
            elif triv:
                counterexamples.append((pair.describe(), lam.format()))
    assert counterexamples, "expected the converse to fail somewhere in this range"


def test_ideal_point_graded_maximal_ideal():
    lam = Weight0({2: 1, 0: 1})
    point = ideal_point_from_params(B3, lam, EvalParams(mu=lam, points=()))
    assert point.nonzero_entries() == {}
    assert point.mu_h0 == 1


def test_ideal_point_section78_component():
    lam = Weight0({2: 1, 0: 1})
    params = EvalParams(
        mu=Weight0({2: 1}),
        points=(EvalPoint(Fraction(5, 3), DeltaWeight.of(3, {3: 1})),),
    )
    point = ideal_point_from_params(B3, lam, params)
    assert point.nonzero_entries() == {(3, 1): Fraction(-5, 3)}
    # exactly one surviving variable carries a nonzero scalar
    pres = presentation(B3, lam)
    nz = {(i, r) for (i, r) in point.nonzero_entries()}
    assert nz <= {(v.node, v.level) for v in pres.variables}
    assert len(nz) == 1


def test_ideal_point_validation_errors():
    lam = Weight0({2: 1, 0: 1})
    with pytest.raises(ValueError, match="repeated z powers"):
        ideal_point_from_params(B3, Weight0({2: 2, 0: 2}), EvalParams(
            mu=Weight0(),
            points=(EvalPoint(Fraction(1), DeltaWeight.of(3, {3: 1})),
                    EvalPoint(Fraction(1), DeltaWeight.of(3, {2: 1, 3: 0}))),
        ))
    with pytest.raises(ValueError, match="nonzero"):
        ideal_point_from_params(B3, lam, EvalParams(
            mu=Weight0({2: 1}), points=(EvalPoint(Fraction(0), DeltaWeight.of(3, {3: 1})),)))
    with pytest.raises(ValueError, match="non-dominant"):
        ideal_point_from_params(B3, lam, EvalParams(
            mu=Weight0({2: 1}), points=(EvalPoint(Fraction(2), DeltaWeight.of(3, {3: -1})),)))
    with pytest.raises(ValueError, match="weight sum"):
        ideal_point_from_params(B3, lam, EvalParams(
            mu=Weight0({2: 1}), points=(EvalPoint(Fraction(2), DeltaWeight.of(3, {1: 1})),)))


def random_params(pair, rng, max_points=2):
    """Draw a random valid (lam, params) pair: lam = mu + sum of restrictions."""
    labels = pair.delta0_labels
    mu = Weight0({k: rng.randrange(0, 3) for k in labels})
    k = rng.randrange(0, max_points + 1)
    points = tuple(
        EvalPoint(z,
                  DeltaWeight.of(pair.rs.rank, {i: rng.randrange(0, 3) for i in pair.rs.nodes}))
        for z in distinct_fractions(rng, k))
    c = pair.comarks_alpha0
    vals = {i: mu[i] + sum(p.weight[i] for p in points) for i in pair.i_complement}
    vals[0] = mu[0] + sum(c[i - 1] * p.weight[i] for p in points for i in pair.rs.nodes)
    return Weight0(vals), EvalParams(mu=mu, points=points)


def test_distinct_fractions_pool_bound():
    # The whole pool can be drawn; one more is rejected up front, not looped on.
    assert len(set(distinct_fractions(random.Random(5), FRACTION_POOL))) == FRACTION_POOL
    with pytest.raises(ValueError):
        distinct_fractions(random.Random(5), FRACTION_POOL + 1)
    with pytest.raises(ValueError):
        distinct_fractions(random.Random(5), -1)


def test_ideal_point_randomized():
    rng = random.Random(99)
    pairs = [B3, build_pair("B", 4, rank=4), build_pair("C", 1, rank=3),
             build_pair("G", 1, rank=2), build_pair("G", 2, rank=2)]
    for _ in range(60):
        pair = rng.choice(pairs)
        lam, params = random_params(pair, rng)
        point = ideal_point_from_params(pair, lam, params)  # verifies on return
        c = pair.comarks_alpha0
        weighted = sum(c[i - 1] * point.degree(i) for i in pair.rs.nodes)
        assert weighted == lam[0] - params.mu[0]
        for i in pair.i_complement:
            assert point.degree(i) <= lam[i]
        # spot-check the scalar at the generic point against the binomial form
        if params.points:
            p0 = params.points[0]
            i = pair.rs.rank
            if all(p.weight[i] == 0 for p in params.points[1:]):
                m = p0.weight[i]
                for r in range(m + 1):
                    assert point.pi[i - 1][r] == comb(m, r) * (-p0.z_power) ** r


def test_sl2_basis():
    assert sl2_local_weyl_basis(0) == [()]
    assert sorted(sl2_local_weyl_basis(2)) == [(), (0,), (0, 0), (1,)]
    for m in range(0, 17):
        basis = sl2_local_weyl_basis(m)
        assert len(basis) == 2 ** m
        assert len(set(basis)) == len(basis)
        for seq in basis:
            k = len(seq)
            assert list(seq) == sorted(seq)
            if k:
                assert seq[-1] <= m - k


def test_untwisted_fundamental_dims():
    assert untwisted_fundamental_local_dim(3, 1) == 7
    assert untwisted_fundamental_local_dim(3, 2) == comb(7, 2) + comb(7, 0)
    assert untwisted_fundamental_local_dim(3, 3) == 8
    # the telescoped value equals the row-sum form
    for n in range(3, 7):
        for i in range(1, n):
            assert untwisted_fundamental_local_dim(n, i) == sum(comb(2 * n, s) for s in range(0, i + 1))


def test_local_weyl_dims_bn():
    assert local_weyl_dim_bn(B3, 0, 1) == 8
    assert local_weyl_dim_bn(B3, 0, 2) == 64
    assert local_weyl_dim_bn(B3, 2, 1) == 22
    assert local_weyl_dim_bn(B3, 1, 2) == 49
    b5 = build_pair("B", 5, rank=5)
    for i in range(0, 5):
        for r in range(0, 4):
            assert local_weyl_dim_bn(b5, i, r) == local_weyl_dim_bn(b5, i, 1) ** r
    with pytest.raises(ValueError):
        local_weyl_dim_bn(B3, 3, 1)
    with pytest.raises(ValueError):
        local_weyl_dim_bn(build_pair("G", 1, rank=2), 1, 1)


def test_local_dims_refused_exactly_above_the_digit_limit():
    # for every (B_n, n) and index i, the largest accepted power is the last one
    # whose value has at most MAX_LOCAL_DIM_DIGITS digits
    limit = 10 ** MAX_LOCAL_DIM_DIGITS
    for n in range(3, 13):
        pair = build_pair("B", n, rank=n)
        for i in range(n):
            base = 2 ** n if i == 0 else untwisted_fundamental_local_dim(n, i)
            r = int(MAX_LOCAL_DIM_DIGITS / log10(base))
            while base ** (r + 1) < limit:
                r += 1
            while base ** r >= limit:
                r -= 1
            assert local_weyl_dim_bn(pair, i, r) == base ** r
            with pytest.raises(ValueError, match=f"more than {MAX_LOCAL_DIM_DIGITS} digits"):
                local_weyl_dim_bn(pair, i, r + 1)


def test_spin_module_dim():
    assert spin_module_dim(B3, 1) == 4
    assert spin_module_dim(B3, 2) == 10  # Sym^2 of the A3 natural module
    for n in (3, 4, 5):
        pair = build_pair("B", n, rank=n)
        assert spin_module_dim(pair, 1) == 2 ** (n - 1)


def test_local_dim_report_surfaces_mismatch():
    rep = local_weyl_dim_report(B3, 2, 1)
    assert rep.value == 22
    assert rep.displayed_value == 21  # missing binom(2n, 0) term
    assert rep.mismatch
    assert rep.spin_value == 4
    assert displayed_sum_dim(3, 2, 1) == 21
    rep0 = local_weyl_dim_report(B3, 0, 3)
    assert rep0.value == 512 and rep0.displayed_value is None and not rep0.mismatch
    assert any("MISMATCH" in line for line in rep.lines())


def test_record_constants():
    assert all(not rec.computed for rec in record_constants())
    special = next(r for r in record_constants() if r.ideal_kind == "special")
    assert "thesis" in special.note


ALL_PAIRS_5 = all_pairs(5)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_weight_restrict_inverts_weight_convert(data):
    pair = data.draw(st.sampled_from(ALL_PAIRS_5), label="pair")
    c = pair.comarks_alpha0
    vals = {i: data.draw(st.integers(0, 4), label=f"h{i}") for i in pair.i_complement}
    rest = sum(c[i - 1] * v for i, v in vals.items())
    cj = c[pair.j - 1]
    # lam(h_0) = rest + cj * m keeps lam integral, i.e. in the ambient weight lattice
    vals[0] = rest + cj * data.draw(st.integers(-(rest // cj), 4), label="m")
    lam = Weight0(vals)
    assert weight_restrict(pair, weight_convert(pair, lam)) == lam


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_drawn_eval_params_give_verified_ideal_points(data):
    pair = data.draw(st.sampled_from(ALL_PAIRS_5), label="pair")
    lam = Weight0({k: data.draw(st.integers(0, 4), label=f"h{k}") for k in pair.delta0_labels})
    k = data.draw(st.integers(0, 3), label="k")
    params = draw_eval_params(pair, lam, random.Random(data.draw(st.integers(0, 10 ** 6))), k)
    assert len(params.points) == k
    ideal_point_from_params(pair, lam, params)  # raises unless every relation holds
