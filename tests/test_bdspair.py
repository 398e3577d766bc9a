from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdsweyl import verify
from bdsweyl.bdspair import (
    BdsPair,
    _pair,
    all_pairs,
    alpha0_by_scan,
    build_pair,
    component_root_count,
    eligible_nodes,
)
from bdsweyl.cli import _pair_payload, _presentation_payload, main
from bdsweyl.rootsys import RootSystem, build
from bdsweyl.srring import Weight0, presentation
from helpers import dumps


def b3_pair():
    return build_pair("B", 3, rank=3)


def test_pair_query_scans_each_theta_once(capsys, monkeypatch):
    # E6 at node 4 has a_j = 3; the JSON payload and the text both ask for
    # theta_1 and theta_2, and each scan reads R_k^+ through graded_positive.
    # The pair is built once per value, so a cold query scans each theta once
    # and a warm repeat of it scans nothing.
    scans = Counter()
    graded_positive = BdsPair.graded_positive

    def counting(self, k):
        scans[k] += 1
        return graded_positive(self, k)

    monkeypatch.setattr(BdsPair, "graded_positive", counting)
    for fmt in ("text", "json"):
        _pair.cache_clear()
        scans.clear()
        assert main(["pair", "E", "6", "--node", "4", "--format", fmt]) == 0
        assert scans == {1: 1, 2: 1}
        scans.clear()
        assert main(["pair", "E", "6", "--node", "4", "--format", fmt]) == 0
        assert scans == {}
    capsys.readouterr()


def test_build_pair_is_one_object_per_value():
    e6 = build("E", 6)
    pair = build_pair("E", 4, rank=6)
    assert build_pair("E", 4, rank=6) is pair
    assert build_pair(e6, 4) is pair
    assert pair.rs is e6
    other_node = build_pair(e6, 3)
    assert other_node is not pair and other_node.j == 3
    assert all(p is build_pair(p.rs, p.j) for p in all_pairs(8))
    # a root system that did not come from `build` is another key, with a pair of its own
    own = RootSystem("E", 6)
    mine = build_pair(own, 4)
    assert mine is not pair and mine.rs is own and build_pair(own, 4) is mine
    # an invalid node raises every time and is never cached
    size = _pair.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ValueError, match="mark"):
            build_pair(e6, 1)
    assert _pair.cache_info().currsize == size


def _pair_and_alambda_json(pair):
    lam = Weight0({k: 1 for k in pair.i_complement} | {0: 2})
    return dumps({"pair": _pair_payload(pair), **_presentation_payload(presentation(pair, lam), 12)})


def test_cached_pairs_answer_as_fresh_ones():
    # the shared pair, cold and then warm, writes the same pair and alambda
    # JSON as a pair built anew for the query
    for cached in all_pairs(8):
        fresh = BdsPair(build(cached.rs.type_letter, cached.rs.rank), cached.j)
        assert fresh is not cached
        want = _pair_and_alambda_json(fresh)
        assert _pair_and_alambda_json(cached) == want
        assert _pair_and_alambda_json(cached) == want


def test_rejects_mark_one_node():
    with pytest.raises(ValueError, match="mark"):
        build_pair("B", 1, rank=3)
    with pytest.raises(ValueError):
        build_pair("A", 2, rank=4)  # all marks of A_n are 1


def test_b3_example():
    pair = b3_pair()
    assert pair.alpha0 == (0, 1, 2)
    assert pair.delta0 == ((1, 0, 0), (0, 1, 0), (0, 1, 2))
    assert pair.g0_components == ("A3",)  # D3 = A3
    assert pair.comarks_alpha0 == (0, 1, 1)
    short = [a for a in pair.rs.roots if pair.rs.inner(a, a) == 1]
    assert sorted(pair.graded_roots(1)) == sorted(short)
    assert len(pair.graded_roots(1)) == 6


def test_bn_family_structure():
    for n in range(3, 7):
        pair = build_pair("B", n, rank=n)
        expected_alpha0 = tuple(0 if i < n - 1 else (1 if i == n - 1 else 2) for i in range(1, n + 1))
        assert pair.alpha0 == expected_alpha0
        assert pair.comarks_alpha0 == tuple([0] * (n - 2) + [1, 1])
        assert pair.theta_k(1) == (1,) * n
        assert len(pair.graded_roots(1)) == 2 * n
        if n == 3:
            assert pair.g0_components == ("A3",)
        else:
            assert pair.g0_components == (f"D{n}",)


def test_g2_pairs():
    p1 = build_pair("G", 1, rank=2)
    assert p1.a_j == 3
    assert p1.g0_components == ("A2",)
    assert len(p1.graded_roots(0)) == 6
    assert p1.theta_k(1) == (1, 1)
    assert p1.theta_k(2) == (2, 1)
    p2 = build_pair("G", 2, rank=2)
    assert p2.a_j == 2
    assert p2.alpha0 == (3, 2)
    assert p2.g0_components == ("A1", "A1")
    assert p2.comarks_alpha0 == (1, 2)


def test_alpha0_matches_scan_oracle():
    for pair in all_pairs(12):
        assert pair.alpha0 == alpha0_by_scan(pair.rs, pair.j)


def test_delta0_closure_is_r0():
    for pair in all_pairs(5):
        rs = pair.rs
        seen = set(pair.delta0)
        queue = list(seen)
        while queue:
            v = queue.pop()
            for d in pair.delta0:
                w = oracle_reflect(rs, d, v)
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        assert seen == set(pair.graded_roots(0))


def test_g0_component_sizes():
    for pair in all_pairs(6):
        total = sum(component_root_count(c) for c in pair.g0_components)
        assert total == len(pair.graded_roots(0))


def test_grading_partitions_roots():
    for pair in all_pairs(6):
        pieces = [pair.graded_roots(k) for k in range(pair.a_j)]
        assert sum(len(p) for p in pieces) == len(pair.rs.roots)
        assert len(set().union(*map(set, pieces))) == len(pair.rs.roots)
        for k in range(1, pair.a_j):
            assert len(pair.graded_roots(k)) == len(pair.graded_roots(pair.a_j - k))


def test_theta_k_properties():
    for pair in all_pairs(8):
        rs = pair.rs
        for k in range(1, pair.a_j):
            th = pair.theta_k(k)
            assert th in pair.graded_positive(k)
            diff = tuple(x - y for x, y in zip(rs.theta, th))
            if any(diff):
                assert rs.is_root(diff) and min(diff) >= 0
                assert diff in pair.graded_roots((pair.a_j - k) % pair.a_j)
            assert all(c > 0 for c in th)


def test_relok_alpha0_plus_graded_root_never_a_root():
    for pair in all_pairs(5):
        rs = pair.rs
        for k in range(1, pair.a_j):
            for b in pair.graded_positive(k):
                s = tuple(x + y for x, y in zip(pair.alpha0, b))
                assert not rs.is_root(s)


def test_height_of_alpha0_minimal_in_top_grade_of_r0():
    for pair in all_pairs(6):
        for a in pair.graded_positive(0):
            if a[pair.j - 1] == pair.a_j and a != pair.alpha0:
                assert sum(a) > sum(pair.alpha0)


def test_top_theta_relation():
    # theta_{a_j - 1} + alpha_j - alpha_0 lies in R_0^+ or is zero
    for pair in all_pairs(6):
        rs = pair.rs
        th = pair.theta_k(pair.a_j - 1)
        v = tuple(x + y - z for x, y, z in zip(th, rs.simple_root(pair.j), pair.alpha0))
        if any(v):
            assert rs.is_root(v) and min(v) >= 0 and v in pair.graded_roots(0)


def test_graded_dim():
    pair = b3_pair()
    assert pair.graded_dim(0) == 15
    assert pair.graded_dim(1) == 6
    for s in range(1, 7):
        assert pair.graded_dim(s) == pair.graded_dim(s + pair.a_j)
    with pytest.raises(ValueError):
        pair.graded_dim(-1)


def test_reflection_chain_counts_match_comarks():
    for pair in all_pairs(8):
        rs = pair.rs
        nodes = list(rs.nodes)
        tie_breaks = [None, tuple(reversed(nodes)), tuple(nodes[1:] + nodes[:1])]
        for prefer in tie_breaks:
            chain = pair.reflection_chain(prefer)
            counts = chain.node_counts()
            for i in rs.nodes:
                assert counts.get(i, 0) == pair.comarks_alpha0[i - 1]
            assert len(chain.entries) == sum(pair.comarks_alpha0)
            assert chain.entries[0] == (pair.j, pair.alpha0)
            # chain invariants: positivity and the step conditions
            for r, (i, beta) in enumerate(chain.entries):
                assert rs.is_root(beta) and min(beta) >= 0
                assert rs.inner(beta, rs.simple_root(i)) > 0
                if sum(beta) > 1:
                    assert not rs.is_root(tuple(x + y for x, y in zip(beta, rs.simple_root(i))))
                if r + 1 < len(chain.entries):
                    assert chain.entries[r + 1][1] == rs.reflect(i, beta)
            last_i, last_beta = chain.entries[-1]
            assert last_beta == rs.simple_root(last_i)


def test_default_chain_is_kept_once_per_pair_and_equals_a_fresh_walk():
    for pair in all_pairs(8):
        chain = pair.reflection_chain()
        assert pair.reflection_chain() is chain
        # a new object has no kept chain, and an explicit order walks afresh
        assert BdsPair(pair.rs, pair.j).reflection_chain() == chain
        assert pair.reflection_chain(pair.rs.nodes) == chain
        assert pair.reflection_chain(pair.rs.nodes) is not chain


def test_b3_chain_example():
    chain = b3_pair().reflection_chain()
    seq = chain.node_sequence
    assert seq.count(3) == 1 and seq.count(2) == 1 and seq.count(1) == 0


def test_gk_irreducibility():
    pair = b3_pair()
    assert pair.gk_irreducibility_check(1)
    assert pair.g0_weyl_dim(pair.g0_weight_values(pair.theta_k(1))) == 6
    b4 = build_pair("B", 4, rank=4)
    assert b4.gk_irreducibility_check(1)
    assert b4.g0_weyl_dim(b4.g0_weight_values(b4.theta_k(1))) == 8
    g2 = build_pair("G", 1, rank=2)
    assert g2.gk_irreducibility_check(1)
    assert g2.gk_irreducibility_check(2)
    for pair in all_pairs(5):
        for k in range(1, pair.a_j):
            assert pair.gk_irreducibility_check(k)


def test_bracket_weight_check(monkeypatch):
    for pair in all_pairs(5):
        for k in range(2, pair.a_j):
            for m in range(1, k):
                assert pair.bracket_weight_check(k, m)
    assert verify.check_graded_pieces(all_pairs(2)).ok
    monkeypatch.setattr(BdsPair, "bracket_weight_check", lambda self, k, m: False)
    result = verify.check_graded_pieces(all_pairs(2))  # G2 at node 1 is the pair with a_j = 3
    assert not result.ok
    assert result.detail.endswith("R_2 != R_1 + R_1")


def test_comark_one_forces_all_comarks_small():
    for pair in all_pairs(8):
        if pair.comarks_alpha0[pair.j - 1] == 1:
            assert max(pair.comarks_alpha0) <= 1


def test_eligible_nodes():
    assert eligible_nodes(build("B", 3)) == (2, 3)
    assert eligible_nodes(build("A", 5)) == ()
    assert eligible_nodes(build("E", 8)) == (1, 2, 3, 4, 5, 6, 7, 8)
    assert eligible_nodes(build("C", 4)) == (1, 2, 3)


def test_g0_weyl_dim_validates():
    pair = b3_pair()
    with pytest.raises(ValueError):
        pair.g0_weyl_dim({3: 1})  # 3 = j is not a Delta_0 label
    with pytest.raises(ValueError):
        pair.g0_weyl_dim({1: -1})


# Oracle: the rational form (a, b) = sum_pq a_p C[p][q] b_q / d_p and the
# structure constants as Fraction quotients of it, without the integer form:
# the pairing <v, alpha^vee> = 2 (v, alpha) / (alpha, alpha) and the reflection
# s_alpha(v) = v - <v, alpha^vee> alpha by any root alpha.
def oracle_inner(rs, a, b):
    return sum(Fraction(ap * rs.cartan[p][q] * bq, rs.d[p])
               for p, ap in enumerate(a) for q, bq in enumerate(b) if rs.cartan[p][q])


def oracle_pairing(rs, v, alpha):
    return 2 * oracle_inner(rs, v, alpha) / oracle_inner(rs, alpha, alpha)


def oracle_reflect(rs, alpha, v):
    c = oracle_pairing(rs, v, alpha)
    return tuple(x - c * a for x, a in zip(v, alpha))


ALL_PAIRS_8 = all_pairs(8)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_integer_structure_constants_match_fraction_oracle(data):
    pair = data.draw(st.sampled_from(ALL_PAIRS_8), label="pair")
    rs = pair.rs
    alpha = data.draw(st.sampled_from(rs.roots), label="alpha")
    v = tuple(data.draw(st.lists(st.integers(-4, 4), min_size=rs.rank, max_size=rs.rank),
                        label="v"))
    i = data.draw(st.sampled_from(rs.nodes), label="i")
    a0 = data.draw(st.sampled_from(pair.graded_roots(0)), label="a0")
    # an int equals a Fraction only when the Fraction is that integer
    assert rs.inner(v, alpha) == oracle_inner(rs, v, alpha)
    # <v, alpha^vee> by the comark rule: coroot coefficients times Cartan rows
    c = sum(ck * rs.pairings(v)[k - 1] for k, ck in zip(rs.nodes, rs.coroot_coordinates(alpha)))
    assert c == oracle_pairing(rs, v, alpha)
    d_alpha = 2 / oracle_inner(rs, alpha, alpha)
    assert rs.d_alpha(alpha) == d_alpha
    assert rs.coroot_coordinates(alpha)[i - 1] == alpha[i - 1] * d_alpha / rs.d[i - 1]
    assert tuple(x - c * a for x, a in zip(v, alpha)) == oracle_reflect(rs, alpha, v)
    assert oracle_reflect(rs, rs.simple_root(i), v) == rs.reflect(i, v)
    delta = pair.delta0
    assert pair.g0_cartan == tuple(tuple(oracle_pairing(rs, dq, dp) for dq in delta)
                                   for dp in delta)
    assert pair.g0_weight_values(v) == {label: oracle_pairing(rs, v, d)
                                        for label, d in zip(pair.delta0_labels, delta)}
    sq = oracle_inner(rs, a0, a0)
    assert pair.g0_coroot_coordinates(a0) == tuple(
        m * oracle_inner(rs, d, d) / sq for m, d in zip(pair.delta0_coordinates(a0), delta))


def test_delta0_dominance_matches_fraction_oracle():
    # Delta_0-dominance by g0_weight_values (Cartan rows and the comark sum at
    # alpha_0) against the signs of the Fraction form; theta_k is the oracle's
    # unique dominant element with alpha + delta never a root
    for pair in ALL_PAIRS_8:
        rs = pair.rs
        for k in range(1, pair.a_j):
            oracle_cands = []
            for a in pair.graded_positive(k):
                dominant = all(oracle_inner(rs, a, d) >= 0 for d in pair.delta0)
                assert (min(pair.g0_weight_values(a).values()) >= 0) == dominant
                if dominant and not any(rs.is_root(tuple(x + y for x, y in zip(a, d)))
                                        for d in pair.delta0):
                    oracle_cands.append(a)
            assert oracle_cands == [pair.theta_k(k)]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_delta0_coordinates_round_trip(data):
    pair = data.draw(st.sampled_from(ALL_PAIRS_8), label="pair")
    n = pair.rs.rank

    def combine(coords):
        return tuple(sum(c * d[p] for c, d in zip(coords, pair.delta0)) for p in range(n))

    # every root of R_0 is a one-signed integer combination of its simple system
    a0 = data.draw(st.sampled_from(pair.graded_roots(0)), label="a0")
    coords = pair.delta0_coordinates(a0)
    assert combine(coords) == a0
    assert min(coords) >= 0 or max(coords) <= 0
    m = tuple(data.draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n), label="m"))
    v = combine(m)
    assert pair.delta0_coordinates(v) == m
    # off the Delta_0 lattice exactly when v_j is not a multiple of a_j
    off = list(v)
    off[pair.j - 1] += data.draw(st.integers(1, pair.a_j - 1), label="shift")
    with pytest.raises(ValueError, match="not in the Delta_0 lattice"):
        pair.delta0_coordinates(off)
