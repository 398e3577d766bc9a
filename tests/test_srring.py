import gc
import json
import random
import tracemalloc
import weakref
from functools import reduce
from itertools import combinations, product, zip_longest
from operator import getitem, mul, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdsweyl.bdspair import all_pairs, build_pair
from bdsweyl.cli import _presentation_payload
from bdsweyl.srring import (
    MAX_FACETS,
    MAX_NUMERATOR_LENGTH,
    ClosedForm,
    SimplicialComplex,
    SRVariable,
    Weight0,
    find_shelling,
    hilbert_series_bruteforce,
    presentation,
    verify_shelling,
    _add,
    _cancel,
    _spread,
    _sub,
    _times_one_minus_td,
    _trim,
    _walk,
)
from bdsweyl.verify import _random_weight
from helpers import dumps, stdout_of

B3 = build_pair("B", 3, rank=3)
EXAMPLE_578 = Weight0({2: 1, 0: 1})  # lam(h_2) = lam(h_0) = 1


def sample_pairs():
    return [build_pair("B", 3, rank=3), build_pair("B", 4, rank=4),
            build_pair("C", 1, rank=3), build_pair("G", 1, rank=2),
            build_pair("G", 2, rank=2), build_pair("F", 1, rank=4),
            build_pair("F", 4, rank=4)]


def test_weight0_parse_and_format():
    w = Weight0.parse("h2=1,h0=1")
    assert w == EXAMPLE_578
    assert w[2] == 1 and w[0] == 1 and w[1] == 0
    assert not Weight0.parse("")
    assert w.format() == "h2=1,h0=1"
    with pytest.raises(ValueError):
        Weight0.parse("x=1")
    with pytest.raises(ValueError):
        Weight0.parse("h2=1,h2=5,h0=1")
    with pytest.raises(ValueError):
        Weight0({1: -1})


def test_weight0_membership_is_its_keys():
    # a missing key reads 0, but is not in the mapping
    w = Weight0.parse("h2=1")
    assert 2 in w and 0 not in w and 5 not in w and "x" not in w
    assert w[5] == 0 and 5 not in w.keys()
    assert set(w.keys()) == set(w) == {2}


@settings(deadline=None)
@given(st.dictionaries(st.integers(0, 9), st.integers(0, 30), max_size=5))
def test_weight0_parse_round_trips_format(vals):
    w = Weight0(vals)
    assert Weight0.parse(w.format()) == w


def test_example_presentation():
    pres = presentation(B3, EXAMPLE_578)
    assert [(v.node, v.level) for v in pres.variables] == [(2, 1), (3, 1)]
    assert [v.degree for v in pres.variables] == [2, 2]
    gens = pres.generators
    assert len(gens) == 1
    assert sorted((v.node, v.level) for v in next(iter(gens))) == [(2, 1), (3, 1)]
    code, out = stdout_of(["alambda", "B", "3", "--node", "3", "--weight", EXAMPLE_578.format()])
    assert code == 0 and "\npresentation: C[P(2,1), P(3,1)] / (P(2,1)P(3,1))\n" in out


def test_zero_weight_presentation():
    pres = presentation(B3, Weight0())
    assert pres.variables == ()
    assert pres.generators == ()
    assert pres.krull_dim() == 0
    sc = pres.facets()
    assert sc.facets == (frozenset(),)
    flags = pres.flags()
    assert flags == {"jac_zero": True, "koszul": True, "pure": True,
                     "cohen_macaulay_certified": True}


def test_lambda2_has_no_variables():
    # lam = lambda_2 alone: lam(h_0) = 0 kills every constrained node
    pres = presentation(B3, Weight0({2: 1}))
    assert pres.variables == ()


def test_bn_generators_are_quadratic_on_the_last_two_nodes():
    rng = random.Random(7)
    for n in (3, 4, 5):
        pair = build_pair("B", n, rank=n)
        for _ in range(5):
            lam = _random_weight(pair, rng)
            pres = presentation(pair, lam)
            for g in pres.generators:
                nodes = sorted(v.node for v in g)
                assert nodes == [n - 1, n]
                levels = {v.node: v.level for v in g}
                assert levels[n - 1] + levels[n] > lam[0]


def test_face_predicate_examples():
    pres = presentation(B3, EXAMPLE_578)
    v21, v31 = pres.variables
    assert pres.face_predicate(())
    assert pres.face_predicate({v21})
    assert not pres.face_predicate({v21, v31})
    with pytest.raises(ValueError):
        pres.face_predicate({SRVariable(2, 5, 10)})


def test_face_predicate_agrees_with_divisibility():
    rng = random.Random(13)
    for pair in sample_pairs():
        for _ in range(4):
            pres = presentation(pair, _random_weight(pair, rng, bound=2))
            variables = pres.variables
            if len(variables) > 10:
                continue
            gens = pres.generators
            for k in range(len(variables) + 1):
                for sigma in combinations(variables, k):
                    s = frozenset(sigma)
                    divisible = any(g <= s for g in gens)
                    assert pres.face_predicate(s) == (not divisible)


def test_facets_example():
    pres = presentation(B3, EXAMPLE_578)
    sc = pres.facets()
    assert sorted(sorted((v.node, v.level) for v in f) for f in sc.facets) == [[(2, 1)], [(3, 1)]]
    assert pres.krull_dim() == 1

    pres2 = presentation(B3, Weight0({1: 1, 2: 2, 0: 2}))
    sc2 = pres2.facets()
    assert {len(f) for f in sc2.facets} == {3}  # lam(h_0) + lam(h_1)


def test_facets_are_maximal_faces():
    rng = random.Random(3)
    for pair in sample_pairs():
        pres = presentation(pair, _random_weight(pair, rng, bound=2))
        sc = pres.facets()
        assert pres.facets() is sc
        for f in sc.facets:
            assert pres.face_predicate(f)
            for v in pres.variables:
                if v not in f:
                    assert not pres.face_predicate(f | {v})


def test_krull_dim_closed_form():
    pres = presentation(build_pair("B", 4, rank=4), Weight0({1: 2, 3: 1, 0: 3}))
    assert pres.krull_dim() == 5
    rng = random.Random(17)
    for pair in sample_pairs():
        for _ in range(6):
            pres = presentation(pair, _random_weight(pair, rng))
            dim = pres.krull_dim()
            if pres.jac_zero:
                assert dim == pres.d_lambda()


def test_hilbert_example_series():
    pres = presentation(B3, EXAMPLE_578)
    hs = pres.hilbert_series(8)
    assert hs.coefficients == (1, 0, 2, 0, 2, 0, 2, 0, 2)
    assert hs.closed_form is not None
    assert hs.closed_form.numerator == (1, 0, 1)
    assert hs.closed_form.denominator == (2,)
    assert hs.closed_form.format() == "(1+t^2) / (1-t^2)"


def test_hilbert_zero_weight():
    hs = presentation(B3, Weight0()).hilbert_series(6)
    assert hs.coefficients == (1, 0, 0, 0, 0, 0, 0)


def test_hilbert_matches_bruteforce():
    rng = random.Random(23)
    for pair in sample_pairs():
        for _ in range(4):
            pres = presentation(pair, _random_weight(pair, rng))
            D = 18
            assert pres.hilbert_series(D).coefficients == hilbert_series_bruteforce(pres, D)
    # Comark 2 (D6, node 3) and 3 (E6, node 4) at j: the numerator is truncated.
    for pair in (build_pair("D", 3, rank=6), build_pair("E", 4, rank=6)):
        assert pair.comarks_alpha0[pair.j - 1] >= 2
        for _ in range(4):
            pres = presentation(pair, _random_weight(pair, rng, bound=2))
            D = 14
            assert pres.hilbert_series(D).coefficients == hilbert_series_bruteforce(pres, D)


def test_hilbert_prefix_independent_of_truncation():
    rng = random.Random(31)
    pairs = sample_pairs() + [build_pair("D", 3, rank=6), build_pair("E", 4, rank=6)]
    sides = set()
    for pair in pairs:
        for _ in range(3):
            pres = presentation(pair, _random_weight(pair, rng))
            sides.add(pres.jac_zero)
            for D in (0, 3, 10):
                short, longer = pres.hilbert_series(D), pres.hilbert_series(D + 7)
                assert short.coefficients == longer.coefficients[:D + 1]
                assert short.closed_form == longer.closed_form
    assert sides == {True, False}


ALL_PAIRS_5 = all_pairs(5)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_hilbert_property_matches_bruteforce(data):
    pair = data.draw(st.sampled_from(ALL_PAIRS_5), label="pair")
    lam = Weight0({k: data.draw(st.integers(0, 2), label=f"h{k}") for k in pair.delta0_labels})
    D = data.draw(st.integers(0, 14), label="D")
    pres = presentation(pair, lam)
    assert pres.hilbert_series(D).coefficients == hilbert_series_bruteforce(pres, D)


def test_hilbert_closed_form_only_when_jac_zero():
    pres = presentation(build_pair("G", 2, rank=2), Weight0({1: 1, 0: 2}))
    assert not pres.jac_zero
    assert pres.hilbert_series(6).closed_form is None


def test_canonical_shelling_example():
    pres = presentation(B3, EXAMPLE_578)
    order = pres.canonical_shelling()
    # F_0 puts everything on node j, F_1 moves one level to node s = 2
    assert sorted((v.node, v.level) for v in order[0]) == [(3, 1)]
    assert sorted((v.node, v.level) for v in order[1]) == [(2, 1)]


def test_canonical_shelling_zero_h0():
    pres = presentation(B3, Weight0({1: 2}))
    order = pres.canonical_shelling()
    assert len(order) == 1
    assert len(order[0]) == 2  # the free variables P(1,1), P(1,2)


def test_canonical_shelling_three_facets():
    pres = presentation(B3, Weight0({1: 1, 2: 2, 0: 2}))
    order = pres.canonical_shelling()
    assert len(order) == 3
    assert verify_shelling(pres.facets(), order)


def test_canonical_shelling_hypotheses_checked():
    pres = presentation(build_pair("G", 2, rank=2), Weight0({1: 1, 0: 1}))
    with pytest.raises(ValueError, match="comark"):
        pres.canonical_shelling()
    c3 = presentation(build_pair("C", 1, rank=3), Weight0({2: 1, 0: 1}))
    assert c3.jac_zero and not c3.two_support_nodes
    with pytest.raises(ValueError, match="support"):
        c3.canonical_shelling()


def test_canonical_shelling_randomized():
    rng = random.Random(31)
    for n in (3, 4, 5):
        pair = build_pair("B", n, rank=n)
        for _ in range(8):
            pres = presentation(pair, _random_weight(pair, rng))
            order = pres.canonical_shelling()
            sc = pres.facets()
            assert len({len(f) for f in sc.facets}) == 1
            assert len(order) == min(pres.h0, pres.lam[n - 1]) + 1
            assert verify_shelling(sc, order)


@pytest.mark.parametrize("type_, rank, node, spec, facets", [
    # lam(h_s) = 0: s drops out of the constrained nodes
    ("B", 3, 3, "h1=1,h0=2", [[(1, 1), (3, 1), (3, 2)]]),
    ("B", 4, 4, "h1=1,h2=1,h0=2", [[(1, 1), (2, 1), (4, 1), (4, 2)]]),
    # lam(h_0) = 0: both j and s drop out
    ("B", 3, 3, "h1=1,h2=2", [[(1, 1)]]),
    ("B", 4, 4, "h1=1,h2=1,h3=2", [[(1, 1), (2, 1)]]),
    # both 0
    ("B", 3, 3, "h1=1", [[(1, 1)]]),
    ("B", 4, 4, "h2=1", [[(2, 1)]]),
    # C3 at node 2: s = 3 comes after j among the constrained nodes
    ("C", 3, 2, "h1=1,h0=2", [[(1, 1), (2, 1), (2, 2)]]),
    ("C", 3, 2, "h3=2,h0=2", [[(2, 1), (2, 2)], [(2, 1), (3, 1)], [(3, 1), (3, 2)]]),
])
def test_canonical_shelling_with_a_cap_at_zero(type_, rank, node, spec, facets):
    # the (j, s) levels of each facet are read at the constrained nodes only
    pres = presentation(build_pair(type_, node, rank=rank), Weight0.parse(spec))
    order = pres.canonical_shelling()
    assert [sorted((v.node, v.level) for v in f) for f in order] == facets
    assert verify_shelling(pres.facets(), order)


PAIRS_12_TWO_SUPPORT_JAC_ZERO = [p for p in all_pairs(12) if p.comarks_alpha0[p.j - 1] == 1
                                 and sum(m > 0 for m in p.marks_alpha0) == 2]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_canonical_shelling_is_the_papers_order(data):
    # facet r has level h0 - r at j and r at s, r = 0..min(h0, lam(h_s)), both
    # read at the constrained nodes only; B_n has s < j, C_n and G2 have j < s
    pair = data.draw(st.sampled_from(PAIRS_12_TWO_SUPPORT_JAC_ZERO), label="pair")
    lam = Weight0({k: data.draw(st.integers(0, 6), label=f"h{k}") for k in pair.delta0_labels})
    pres = presentation(pair, lam)
    s = next(i for i in pres.support_nodes if i != pair.j)
    levels = [{pair.j: pres.h0 - r, s: r} for r in range(min(pres.h0, lam[s]) + 1)]
    paper = [tuple(lv[i] for i in pres.constrained_nodes) for lv in levels]
    order = pres.canonical_shelling()
    assert [tuple(max((v.level for v in f if v.node == i), default=0) for i in pres.constrained_nodes)
            for f in order] == paper
    facets = pres.facets().facets
    assert order in (facets, facets[::-1])


def test_verify_shelling_single_facet():
    sc = SimplicialComplex((frozenset({1}),))
    assert verify_shelling(sc, [frozenset({1})])


def test_verify_shelling_counterexample():
    # two triangles glued at one vertex are not shellable in any order
    t1 = frozenset({1, 2, 3})
    t2 = frozenset({3, 4, 5})
    sc = SimplicialComplex((t1, t2))
    assert not verify_shelling(sc, [t1, t2])
    assert not verify_shelling(sc, [t2, t1])
    assert find_shelling(sc) is None
    with pytest.raises(ValueError):
        verify_shelling(sc, [t1, t1])


def _pairwise_maximal(facets):
    """The literal O(F^2) maximality test: no facet lies in another object."""
    return not any(a is not b and a <= b for a in facets for b in facets)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.frozensets(st.integers(0, 5), max_size=4), min_size=1, max_size=6),
       st.lists(st.tuples(st.integers(0, 5), st.booleans()), max_size=8))
def test_maximality_check_matches_pairwise_loop(pool, picks):
    # a pick either repeats an object of the pool or makes an equal copy of it
    facets = tuple(frozenset(list(pool[i % len(pool)])) if copy else pool[i % len(pool)]
                   for i, copy in picks)
    try:
        SimplicialComplex(facets)
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == _pairwise_maximal(facets)


@settings(max_examples=300, deadline=None)
@given(st.sets(st.frozensets(st.integers(0, 6), min_size=1, max_size=4), min_size=1, max_size=7))
def test_find_shelling_result_is_a_shelling(faces):
    sc = SimplicialComplex(tuple(f for f in faces if not any(f < g for g in faces)))
    order = find_shelling(sc)
    if order is not None:
        assert verify_shelling(sc, order)  # raises unless a permutation of the facets


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=1, max_size=8),
       st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=2))
def test_find_shelling_orders_a_connected_graph(targets, chords):
    # a tree grown one edge at a time, plus chords between its vertices, is a
    # connected graph, and a connected graph is shellable as a 1-complex
    n = len(targets) + 1
    edges = {frozenset({k, t % k}) for k, t in enumerate(targets, 1)}
    edges |= {frozenset({a % n, b % n}) for a, b in chords if a % n != b % n}
    sc = SimplicialComplex(tuple(edges))
    order = find_shelling(sc)
    assert order is not None
    assert verify_shelling(sc, order)


def test_verify_shelling_disjoint_points_both_orders():
    pres = presentation(B3, EXAMPLE_578)
    sc = pres.facets()
    f0, f1 = sc.facets
    assert verify_shelling(sc, [f0, f1])
    assert verify_shelling(sc, [f1, f0])


def test_flags_bn():
    rng = random.Random(37)
    for n in (3, 4):
        pair = build_pair("B", n, rank=n)
        for _ in range(5):
            flags = presentation(pair, _random_weight(pair, rng)).flags()
            assert flags["jac_zero"] is True
            assert flags["koszul"] is True
            assert flags["pure"] is True
            assert flags["cohen_macaulay_certified"] is True


def test_flags_g2_node1_jac_zero():
    pres = presentation(build_pair("G", 1, rank=2), Weight0({2: 1, 0: 1}))
    assert pres.flags()["jac_zero"] is True
    pres = presentation(build_pair("G", 2, rank=2), Weight0({1: 1, 0: 1}))
    assert pres.flags()["jac_zero"] is False


def test_c3_node1_can_have_cubic_generators():
    pair = build_pair("C", 1, rank=3)
    assert pair.comarks_alpha0 == (1, 1, 1)
    pres = presentation(pair, Weight0({2: 2, 3: 2, 0: 2}))
    sizes = sorted(len(g) for g in pres.generators)
    assert 3 in sizes
    assert pres.flags()["koszul"] is None


def test_variables_empty_iff_caps_zero():
    rng = random.Random(41)
    for pair in sample_pairs():
        for _ in range(10):
            pres = presentation(pair, _random_weight(pair, rng, bound=2))
            assert (len(pres.variables) == 0) == all(c == 0 for c in pres.caps.values())


def test_generator_levels_within_caps_and_one_per_node():
    rng = random.Random(43)
    for pair in sample_pairs():
        pres = presentation(pair, _random_weight(pair, rng))
        for g in pres.generators:
            nodes = [v.node for v in g]
            assert len(nodes) == len(set(nodes))
            assert len(g) >= 2
            for v in g:
                assert 1 <= v.level <= pres.caps[v.node]


# Oracle: every level tuple of the constrained nodes, kept when it violates
# lam(h_0) and dropping any one of its variables does not.
def generators_by_product(pres):
    nodes = pres.constrained_nodes
    weights = [pres.comarks[i - 1] for i in nodes]
    out = set()
    for levels in product(*(range(pres.caps[i] + 1) for i in nodes)):
        total = sum(w * r for w, r in zip(weights, levels))
        if total > pres.h0 and all(r == 0 or total - w * r <= pres.h0
                                   for w, r in zip(weights, levels)):
            out.add(frozenset(SRVariable(i, r, pres.pair.a_j * r)
                              for i, r in zip(nodes, levels) if r))
    return out


# Oracle: every top-level tuple t with 0 <= t_i <= cap_i that leaves left =
# lam(h_0) - sum_i w_i t_i >= 0, and left < w_i at every node with t_i < cap_i,
# in descending order.
def tops_by_product(pres):
    nodes = pres.constrained_nodes
    weights, caps = [pres.comarks[i - 1] for i in nodes], [pres.caps[i] for i in nodes]
    out = []
    for tops in product(*(range(cap + 1) for cap in caps)):
        left = pres.h0 - sum(w * m for w, m in zip(weights, tops))
        if left >= 0 and all(left < w for w, m, cap in zip(weights, tops, caps) if m < cap):
            out.append(tops)
    return tuple(sorted(out, reverse=True))


def test_walk_lists_every_path_and_shares_the_suffixes_of_a_state():
    # one state everywhere and two levels at each node, offered 1 before 0
    calls = []

    def children(idx, state):
        calls.append(idx)
        return [(1, state), (0, state)]

    groups = _walk(8, children, "s")
    assert [p for p, _ in groups] == list(product((1, 0), repeat=4))
    assert expand(groups) == tuple(product((1, 0), repeat=8))
    # the prefixes over nodes 0-3 take 1 + 2 + 4 + 8 calls, and the suffix
    # list of nodes 4-7 is built once, one call a node, and shared by all 16
    # prefixes; a walk without the memo calls children at each of the 255
    # inner nodes of the tree
    assert sorted(calls) == [0, 1, 1, 2, 2, 2, 2, *[3] * 8, 4, 5, 6, 7]
    assert len({id(tails) for _, tails in groups}) == 1
    calls.clear()
    assert (_walk(0, children, "s"), _walk(1, children, "s")) == ([((), [()])],
                                                                 [((), [(1,), (0,)])])
    assert calls == [0]


def expand(groups):
    """Oracle: the level tuples of the walk's groups, each prefix joined to each of its suffixes."""
    return tuple(prefix + tail for prefix, tails in groups for tail in tails)


def facet_state(pres, prefix):
    """The facet walk's state after prefix: (budget left, least weight of a node not at its cap)."""
    weights, caps, _ = pres._walk_bounds
    return (pres.h0 - sum(map(mul, weights, prefix)),
            min((w for w, m, cap in zip(weights, prefix, caps) if m < cap), default=pres.h0 + 1))


def generator_state(pres, prefix):
    """The generator walk's state after prefix: (level sum, least w * r chosen)."""
    chosen = [w * r for w, r in zip(pres._walk_bounds[0], prefix) if r]
    return sum(chosen), min(chosen, default=pres.h0 + 1)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_walk_groups_expand_to_the_tuples_and_share_a_suffix_list_per_state(data):
    # the tuples the checks and the flags read are the expansion of the groups
    # the rows are rendered from, and the groups of one state share one suffix
    # list object, so a renderer that goes by identity joins each suffix once
    pair = data.draw(st.sampled_from(ALL_PAIRS_8), label="pair")
    lam = Weight0({k: data.draw(st.integers(0, 4), label=f"h{k}") for k in pair.delta0_labels})
    pres = presentation(pair, lam)
    for encoding, levels, state in ((pres.facet_tables, pres._tops, facet_state),
                                    (pres.generator_tables, pres._generator_levels,
                                     generator_state)):
        groups = encoding(lambda v: (v,), ())[1]
        assert expand(groups) == levels
        lists = {}
        for prefix, tails in groups:
            assert lists.setdefault(state(pres, prefix), tails) is tails
        assert len({id(tails) for tails in lists.values()}) == len(lists)


ALL_PAIRS_6 = all_pairs(6)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_generators_match_product_enumeration(data):
    pair = data.draw(st.sampled_from(ALL_PAIRS_6), label="pair")
    lam = {k: data.draw(st.integers(0, 4), label=f"h{k}") for k in pair.i_complement}
    lam[0] = data.draw(st.integers(0, 8), label="h0")
    pres = presentation(pair, Weight0(lam))
    gens = pres.generators
    assert set(gens) == generators_by_product(pres)
    assert list(gens) == sorted(gens, key=sorted)
    # the Koszul flag, read from the generator levels, is the quadratic test
    assert pres.flags()["koszul"] is (True if all(len(g) == 2 for g in gens) else None)


@pytest.mark.parametrize("derive", [lambda pres: pres.facets(), lambda pres: pres.generators,
                                    lambda pres: pres.flags(), lambda pres: pres.hilbert_series(12)],
                         ids=["facets", "generators", "flags", "hilbert_series"])
def test_presentation_is_freed_by_refcount(derive):
    # With the cycle collector off, a reference cycle through the presentation,
    # such as a recursive closure that reads self, would keep it alive.
    cases = [(B3, Weight0({1: 1, 2: 2, 0: 3})),  # canonical shelling
             (build_pair("C", 1, rank=3), Weight0({2: 2, 3: 2, 0: 2})),  # shelling search
             (build_pair("G", 2, rank=2), Weight0({1: 1, 0: 2}))]  # comark 2 at j
    gc.disable()
    try:
        for pair, lam in cases:
            pres = presentation(pair, lam)
            derive(pres)
            ref = weakref.ref(pres)
            del pres
            assert ref() is None
    finally:
        gc.enable()


ALL_PAIRS_8 = all_pairs(8)


def facets_by_sorting(pres):
    """Oracle: the facet order before the walk order was kept, a set of the
    walk's facets, summed from the tuple tables of `facet_tables`, sorted as
    sorted variable lists."""
    tables, groups, tail = pres.facet_tables(lambda v: (v,), ())
    return tuple(sorted({frozenset(sum(map(getitem, tables, t), tail)) for t in expand(groups)},
                        key=lambda f: sorted(f)))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_facets_come_in_sorted_order(data):
    pair = data.draw(st.sampled_from(ALL_PAIRS_8), label="pair")
    lam = Weight0({k: data.draw(st.integers(0, 4), label=f"h{k}") for k in pair.delta0_labels})
    pres = presentation(pair, lam)
    facets = pres.facets().facets
    assert facets == facets_by_sorting(pres)
    # the payload rows, read back from their JSON, against the rows once sorted twice over
    old_rows = sorted(sorted([v.node, v.level] for v in f) for f in facets)
    rows = _presentation_payload(pres, 0)["facets"]
    assert json.loads(dumps({"facets": rows}))["facets"] == old_rows
    # every facet and generator holds the presentation's own variable objects
    own = {id(v) for v in pres.variables}
    assert all(id(v) in own for f in facets + pres.generators for v in f)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_facet_count_is_the_number_of_facets(data):
    pair = data.draw(st.sampled_from(ALL_PAIRS_8), label="pair")
    lam = Weight0({k: data.draw(st.integers(0, 4), label=f"h{k}") for k in pair.delta0_labels})
    pres = presentation(pair, lam)
    assert pres.facet_count() == len(pres.facets().facets)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_tops_match_the_product_enumeration(data):
    pair = data.draw(st.sampled_from(ALL_PAIRS_8), label="pair")
    lam = Weight0({k: data.draw(st.integers(0, 4), label=f"h{k}") for k in pair.delta0_labels})
    pres = presentation(pair, lam)
    assert pres._tops == tops_by_product(pres)


def test_facet_limit_is_checked_before_the_walk():
    # D12 at node 6, weight w on every node and h0 = 4 w: the weight-4 case is
    # the largest frontier golden, and the weight-5 case is refused
    pair = build_pair("D", 6, rank=12)
    counts = {}
    for w in (4, 5):
        lam = Weight0({**{i: w for i in pair.delta0_labels}, 0: 4 * w})
        counts[w] = presentation(pair, lam).facet_count()
    assert counts == {4: 8418, 5: 27474}
    assert counts[4] <= MAX_FACETS < counts[5]
    pres = presentation(pair, lam)
    with pytest.raises(ValueError, match=f"has 27474, above the limit {MAX_FACETS}"):
        pres.facets()
    assert "_facet_walk" not in vars(pres)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_tuple_reads_match_the_frozenset_oracle(data):
    # krull_dim, purity and the facet count are read from the top-level tuples;
    # building facets() afterwards runs the bitmask maximality check on the facets
    pair = data.draw(st.sampled_from(ALL_PAIRS_8), label="pair")
    lam = Weight0({k: data.draw(st.integers(0, 4), label=f"h{k}") for k in pair.delta0_labels})
    pres = presentation(pair, lam)
    dim, pure, count = pres.krull_dim(), pres.flags()["pure"], len(pres._tops)
    complex_ = pres.facets()
    assert dim == max(len(f) for f in complex_.facets)
    assert pure is (len({len(f) for f in complex_.facets}) <= 1)
    assert count == len(complex_.facets)


def test_alambda_payload_builds_no_frozensets():
    # comark 2 at j, pure, and 10 facets: one above the shelling-search guard
    pres = presentation(build_pair("B", 3, rank=7), Weight0.parse("h1=1,h4=2,h5=2,h6=3,h0=4"))
    assert not pres.jac_zero and len(pres._tops) == 10
    payload = _presentation_payload(pres, 12)
    assert payload["flags"]["pure"] and not payload["flags"]["cohen_macaulay_certified"]
    assert "_complex" not in vars(pres)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_generators_come_in_sorted_order(data):
    # the walk's push order of the level tuples is the order of the generators
    # sorted as sorted variable lists
    pair = data.draw(st.sampled_from(ALL_PAIRS_8), label="pair")
    lam = Weight0({k: data.draw(st.integers(0, 4), label=f"h{k}") for k in pair.delta0_labels})
    pres = presentation(pair, lam)
    gens = pres.generators
    assert list(gens) == sorted(gens, key=lambda g: sorted(g))
    levels = [tuple(next((v.level for v in g if v.node == i), 0) for i in pres.constrained_nodes)
              for g in gens]
    assert levels == list(pres._generator_levels)


def test_rejects_weight_with_bad_keys():
    with pytest.raises(ValueError):
        presentation(B3, Weight0({3: 1}))  # 3 = j is not a Delta_0 label


def test_size_limit_is_the_sum_of_variable_degrees():
    pair = build_pair("B", 12, rank=12)
    pres = presentation(pair, Weight0({11: 20, 0: 314}))
    assert sum(v.degree for v in pres.variables) == 99330 <= MAX_NUMERATOR_LENGTH
    with pytest.raises(ValueError, match="sum to 100592, above the limit"):
        presentation(pair, Weight0({11: 20, 0: 316}))


def _poly_sum(polys):
    return [sum(c) for c in zip_longest(*polys, fillvalue=0)]


# Oracle helper: the dense schoolbook product of a and b, truncated at degree
# D when D is given.
def _mul(a, b, D=None):
    n = len(a) + len(b) - 1 if D is None else min(len(a) + len(b) - 1, D + 1)
    out = [0] * n
    for i, ai in enumerate(a[:n]):
        if ai == 0:
            continue
        for k, bk in enumerate(b[:n - i]):
            if bk:
                out[i + k] += ai * bk
    return out


# Oracle: the budget DP with one dense product per (state, top level m), as
# the numerator was built before the telescoping, over any order of the
# constrained nodes.  Top level m at a node contributes
# t^{a_j m} prod_{m<r<=cap} (1 - t^{a_j r}).
def closed_form_by_levels(pres, D, nodes):
    cut = None if pres.jac_zero else D
    a_j = pres.pair.a_j
    states = {0: [1]}
    for i in nodes:
        w, cap = pres.comarks[i - 1], pres.caps[i]
        terms, above = [], [1]
        for m in range(cap, 0, -1):
            terms.append(_mul([0] * (a_j * m) + [1], above, cut))
            above = _mul(above, [1] + [0] * (a_j * m - 1) + [-1], cut)
        terms.append(above)
        terms.reverse()
        new = {}
        for used, acc in states.items():
            for m in range(min(cap, (pres.h0 - used) // w) + 1):
                new.setdefault(used + w * m, []).append(_mul(acc, terms[m], cut))
        states = {key: _poly_sum(polys) for key, polys in new.items()}
    return ClosedForm(tuple(_poly_sum(states.values())),
                      tuple(sorted(v.degree for v in pres.variables)))


def spread_to_t(form, a_j):
    """A form in q = t^{a_j} written in t."""
    num = form.numerator
    return ClosedForm(_spread(num, a_j, a_j * len(num) - a_j + 1), tuple(a_j * d for d in form.denominator))


PAIRS_6_BY_JAC_ZERO = {side: [p for p in ALL_PAIRS_6 if (p.comarks_alpha0[p.j - 1] == 1) == side]
                       for side in (True, False)}


@pytest.mark.parametrize("jac_zero", [True, False], ids=["jac_zero", "comark_above_1"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_telescoped_closed_form_matches_level_dp(jac_zero, data):
    pair = data.draw(st.sampled_from(PAIRS_6_BY_JAC_ZERO[jac_zero]), label="pair")
    lam = Weight0({k: data.draw(st.integers(0, 3), label=f"h{k}") for k in pair.delta0_labels})
    D = data.draw(st.integers(0, 30), label="D")
    pres = presentation(pair, lam)
    assert pres.jac_zero == jac_zero
    order = data.draw(st.permutations(pres.constrained_nodes), label="order")
    # the DP runs in q = t^{a_j}, truncated at q-degree D // a_j; the oracle in t
    a_j = pair.a_j
    q_form, oracle = pres._closed_form(D // a_j), closed_form_by_levels(pres, D, order)
    # the step shares state lists by reference, so no list helper may write to
    # an argument: a second run gives the same form, and the helpers leave
    # both arguments as they were
    assert pres._closed_form(D // a_j) == q_form
    num = list(q_form.numerator)
    head = num[:len(num) // 2 + 1]
    kept = (num[:], head[:])
    for helper in (_add, _sub):
        helper(num, head)
        helper(head, num)
    assert (num, head) == kept
    form = spread_to_t(q_form, a_j)
    assert form.denominator == oracle.denominator
    assert form.coefficients(D) == oracle.coefficients(D)
    assert _trim(list(form.numerator)) == _trim(list(oracle.numerator))
    if jac_zero:
        assert _cancel(form.numerator, form.denominator) == _cancel(oracle.numerator, oracle.denominator)
        # cancelling in q and spreading is cancelling in t
        reduced = spread_to_t(ClosedForm(*map(tuple, _cancel(q_form.numerator, q_form.denominator))), a_j)
        assert (list(reduced.numerator), list(reduced.denominator)) == _cancel(oracle.numerator,
                                                                               oracle.denominator)


PAIRS_8_JAC_ZERO = [p for p in all_pairs(8) if p.comarks_alpha0[p.j - 1] == 1]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_q_route_matches_level_dp_and_closed_form_holds_past_the_truncation(data):
    # D need not be a multiple of a_j (2 or 3 here): the series has zeros there
    pair = data.draw(st.sampled_from(PAIRS_8_JAC_ZERO), label="pair")
    lam = Weight0({k: data.draw(st.integers(0, 6), label=f"h{k}") for k in pair.delta0_labels})
    D = data.draw(st.integers(0, 40), label="D")
    pres = presentation(pair, lam)
    hs = pres.hilbert_series(D)
    assert hs.coefficients == closed_form_by_levels(pres, D, pres.constrained_nodes).coefficients(D)
    # the printed closed form is the whole series, not only its first D + 1 terms
    assert hs.closed_form.coefficients(3 * D + 10) == pres.hilbert_series(3 * D + 10).coefficients


def test_closed_form_holds_no_per_level_coefficient_lists():
    # C8 at the middle node, four constrained nodes of cap 12: holding a
    # coefficient list per (new key, level) until the Horner pass peaks at
    # about 2.5 MiB here in t; the old and new states alone took about 0.6 MiB
    # in t.  a_j = 2, so t-degree 20 is q-degree 10.
    pres = presentation(build_pair("C", 4, rank=8), Weight0({5: 12, 6: 12, 7: 12, 8: 12, 0: 24}))
    tracemalloc.start()
    try:
        pres._closed_form(10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 2**20


# Oracle for `_cancel`: one Python pass over the numerator per factor, the
# long division that `_cancel` replaced by residue-class sums.
def _divide_one_minus_td(num, d):
    """Exact quotient num / (1 - t^d), or None when the division is inexact."""
    num = _trim(list(num))
    if len(num) <= d and num != [0]:
        return None
    q = [0] * len(num)
    for k in range(len(num)):
        q[k] = num[k] + (q[k - d] if k >= d else 0)
    for k in range(max(0, len(num) - d), len(num)):
        if q[k] != 0:
            return None
    return _trim(q[:max(1, len(num) - d)])


def _cancel_by_division(num, denom):
    num = _trim(list(num))
    remaining = []
    for d in sorted(denom, reverse=True):
        q = _divide_one_minus_td(num, d)
        if q is not None:
            num = q
        else:
            remaining.append(d)
    return num, sorted(remaining)


@settings(max_examples=300, deadline=None)
@given(base=st.lists(st.integers(-3, 3), max_size=12),
       factors=st.lists(st.integers(1, 8), max_size=5),
       extra=st.lists(st.integers(1, 8), max_size=4))
def test_cancel_matches_long_division(base, factors, extra):
    # base * prod (1 - t^d) over `factors` divides exactly by those factors;
    # `extra` adds factors that may or may not divide.
    num = reduce(lambda p, d: _mul(p, [1] + [0] * (d - 1) + [-1]), factors, base)
    for denom in (factors + extra, extra):
        assert _cancel(num, denom) == _cancel_by_division(num, denom)
        assert _cancel(base, denom) == _cancel_by_division(base, denom)


def times_one_minus_td_by_slices(p, d, D=None):
    """Oracle: the slice-assignment form of p * (1 - t^d), truncated at D."""
    n = len(p) + d if D is None else min(len(p) + d, D + 1)
    out = p[:n] + [0] * (n - len(p))
    out[d:] = map(sub, out[d:], p)
    return out


@settings(max_examples=400, deadline=None)
@given(p=st.lists(st.integers(-10**30, 10**30), min_size=1, max_size=14),
       d=st.integers(0, 18), D=st.none() | st.integers(0, 30))
def test_times_one_minus_td_matches_the_slice_oracle(p, d, D):
    # covers d >= len(p) (a gap of zeros) and D inside the head, overlap or tail
    before = list(p)
    assert _times_one_minus_td(p, d, D) == times_one_minus_td_by_slices(p, d, D)
    assert p == before
