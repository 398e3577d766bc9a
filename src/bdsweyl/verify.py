"""Cross-cutting invariant suite, runnable from the CLI as `verify-all`.

Each check walks a family of pairs (the pairs of `all_pairs` up to a rank
bound, built once per run) or a seeded random family of weights and returns
a named pass/fail result.  The suite is deterministic for a fixed seed:
identical inputs give identical reports.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple

from . import garland, weylcrit
from .bdspair import BdsPair, all_pairs, alpha0_by_scan, component_root_count
from .rootsys import CLASSICAL_MAX_RANK, frozen
from .srring import SimplicialComplex, Weight0, hilbert_series_bruteforce, presentation, verify_shelling


@frozen
class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str = ""


def _random_weight(pair: BdsPair, rng: random.Random, bound: int = 3) -> Weight0:
    return Weight0({k: rng.randrange(0, bound + 1) for k in pair.delta0_labels})


# Number of distinct values +-a/b (1 <= a < 60, 1 <= b < 5) that
# distinct_fractions draws from.
FRACTION_POOL = 2 * len({Fraction(a, b) for a in range(1, 60) for b in range(1, 5)})


def distinct_fractions(rng: random.Random, k: int) -> list[Fraction]:
    """k pairwise distinct nonzero rationals, deterministic for a fixed rng."""
    if k < 0:
        raise ValueError(f"the number of evaluation points must be non-negative, got {k}")
    if k > FRACTION_POOL:
        raise ValueError(f"at most {FRACTION_POOL} distinct evaluation points can be drawn, got {k}")
    out: list[Fraction] = []
    while len(out) < k:
        z = Fraction(rng.randrange(1, 60), rng.randrange(1, 5))
        if rng.randrange(2):
            z = -z
        if z not in out:
            out.append(z)
    return out


def draw_eval_params(pair: BdsPair, lam: Weight0, rng: random.Random, k: int) -> weylcrit.EvalParams:
    """k evaluation points with distinct z powers and dominant weights, plus the
    remainder mu, whose weights sum to lam; deterministic for a fixed rng."""
    c = pair.comarks_alpha0
    remaining = {i: lam[i] for i in pair.i_complement}
    remaining_h0 = lam[0]
    points = []
    powers = distinct_fractions(rng, k)
    for s in range(k):
        vals = {}
        for i in pair.i_complement:
            cap = remaining[i]
            if c[i - 1] > 0:
                cap = min(cap, remaining_h0 // c[i - 1])
            vals[i] = rng.randrange(0, cap + 1)
            remaining[i] -= vals[i]
            remaining_h0 -= c[i - 1] * vals[i]
        cap_j = remaining_h0 // c[pair.j - 1]
        vals[pair.j] = rng.randrange(0, cap_j + 1)
        remaining_h0 -= c[pair.j - 1] * vals[pair.j]
        points.append(weylcrit.EvalPoint(powers[s], weylcrit.DeltaWeight.of(pair.rs.rank, vals)))
    mu_vals = dict(remaining)
    mu_vals[0] = remaining_h0
    return weylcrit.EvalParams(mu=Weight0(mu_vals), points=tuple(points))


def check_pair_structure(pairs: list[BdsPair]) -> CheckResult:
    count = 0
    for pair in pairs:
        count += 1
        if pair.alpha0 != alpha0_by_scan(pair.rs, pair.j):
            return CheckResult("pair structure", False, f"alpha0 oracle mismatch for {pair.describe()}")
        sizes = [len(pair.graded_roots(k)) for k in range(pair.a_j)]
        if sum(sizes) != len(pair.rs.roots):
            return CheckResult("pair structure", False, f"grading does not partition {pair.describe()}")
        for k in range(1, pair.a_j):
            if sizes[k] != sizes[pair.a_j - k]:
                return CheckResult("pair structure", False, f"|R_k| asymmetry for {pair.describe()}")
            pair.theta_k(k)  # requires uniqueness and the dominance conditions
        # each delta in Delta_0 reflects v to v - <v, delta^vee> delta, with the
        # pairings of one g0_weight_values call: Cartan rows and the alpha_0 comark
        # sum; a pairing of 0 leaves v fixed.  The simple root alpha_i changes the
        # one coordinate i of v; alpha_0 (label 0) changes its whole support.
        closure = set(pair.delta0)
        queue = list(closure)
        while queue:
            v = queue.pop()
            for label, c in pair.g0_weight_values(v).items():
                if not c:
                    continue
                if label:
                    w = list(v)
                    w[label - 1] -= c
                    w = tuple(w)
                else:
                    w = tuple(x - c * y for x, y in zip(v, pair.alpha0))
                if w not in closure:
                    closure.add(w)
                    queue.append(w)
        if closure != set(pair.graded_roots(0)):
            return CheckResult("pair structure", False, f"Delta_0 closure != R_0 for {pair.describe()}")
        if sum(component_root_count(c) for c in pair.g0_components) != sizes[0]:
            return CheckResult("pair structure", False, f"component sizes for {pair.describe()}")
    return CheckResult("pair structure", True, f"{count} pairs")


def check_comark_bound(pairs: list[BdsPair]) -> CheckResult:
    hits = 0
    for pair in pairs:
        if pair.comarks_alpha0[pair.j - 1] == 1:
            hits += 1
            if max(pair.comarks_alpha0) > 1:
                return CheckResult("comark bound", False, pair.describe())
    return CheckResult("comark bound", True, f"{hits} pairs with comark 1 at j")


def check_reflection_chains(pairs: list[BdsPair]) -> CheckResult:
    for pair in pairs:
        nodes = list(pair.rs.nodes)
        orders = [None, tuple(reversed(nodes)), tuple(nodes[1:] + nodes[:1])]
        for prefer in orders:
            counts = pair.reflection_chain(prefer).node_counts()
            for i in pair.rs.nodes:
                if counts.get(i, 0) != pair.comarks_alpha0[i - 1]:
                    return CheckResult("reflection chains", False,
                                       f"{pair.describe()} with order {prefer}")
    return CheckResult("reflection chains", True, "3 tie-break orders per pair")


def check_graded_pieces(pairs: list[BdsPair]) -> CheckResult:
    for pair in pairs:
        for k in range(1, pair.a_j):
            if not pair.gk_irreducibility_check(k):
                return CheckResult("graded piece dimensions", False, f"{pair.describe()} k={k}")
            for m in range(1, k):
                if not pair.bracket_weight_check(k, m):
                    return CheckResult("graded piece dimensions", False,
                                       f"{pair.describe()} R_{k} != R_{k - m} + R_{m}")
    return CheckResult("graded piece dimensions", True)


def check_criteria_consistency(pairs: list[BdsPair], rng: random.Random, samples: int) -> CheckResult:
    for pair in pairs:
        for _ in range(samples):
            lam = _random_weight(pair, rng)
            trivial = weylcrit.is_alambda_trivial(pair, lam)
            empty = len(presentation(pair, lam).variables) == 0
            if trivial != empty:
                return CheckResult("criteria consistency", False,
                                   f"trivial != empty at {pair.describe()} lam={lam.format()}")
            if weylcrit.is_global_weyl_irreducible(pair, lam) and not trivial:
                return CheckResult("criteria consistency", False,
                                   f"irreducible without trivial at {pair.describe()} lam={lam.format()}")
    return CheckResult("criteria consistency", True)


def check_krull(pairs: list[BdsPair], rng: random.Random, samples: int) -> CheckResult:
    for pair in pairs:
        for _ in range(samples):
            pres = presentation(pair, _random_weight(pair, rng))
            dim = pres.krull_dim()  # requires the closed form when jac_zero
            if dim != max(len(f) for f in pres.facets().facets):
                return CheckResult("Krull dimension", False, pair.describe())
    return CheckResult("Krull dimension", True)


def check_hilbert_oracle(pairs: list[BdsPair], rng: random.Random, samples: int, degree: int) -> CheckResult:
    done = 0
    for _ in range(samples):
        pair = rng.choice(pairs)
        pres = presentation(pair, _random_weight(pair, rng))
        got = pres.hilbert_series(degree).coefficients
        want = hilbert_series_bruteforce(pres, degree)
        if got != want:
            return CheckResult("Hilbert oracle", False,
                               f"{pair.describe()} lam={pres.lam.format()}: {got} vs {want}")
        done += 1
    return CheckResult("Hilbert oracle", True, f"{done} instances to degree {degree}")


def check_shellings(rng: random.Random, samples: int, pairs: list[BdsPair]) -> CheckResult:
    """The canonical shelling of B_n at node n, for each such pair with n >= 3;
    `canonical_shelling` certifies its order by `verify_shelling` itself."""
    for pair in filter(weylcrit.is_bn_pair_at_node_n, pairs):
        for _ in range(samples):
            presentation(pair, _random_weight(pair, rng)).canonical_shelling()
    bad = SimplicialComplex((frozenset({1, 2, 3}), frozenset({3, 4, 5})))
    if verify_shelling(bad, list(bad.facets)):
        return CheckResult("shellings", False, "counterexample order accepted")
    return CheckResult("shellings", True)


def check_ideal_points(pairs: list[BdsPair], rng: random.Random, samples: int) -> CheckResult:
    for _ in range(samples):
        pair = rng.choice(pairs)
        lam = _random_weight(pair, rng)
        params = draw_eval_params(pair, lam, rng, rng.randrange(0, 3))
        try:
            weylcrit.ideal_point_from_params(pair, lam, params)
        except AssertionError as exc:
            return CheckResult("ideal points", False, f"{pair.describe()}: {exc}")
    return CheckResult("ideal points", True, f"{samples} parameter draws")


def check_garland(pairs: list[BdsPair], order: int) -> CheckResult:
    roots = 0
    for pair in pairs:
        for alpha in pair.rs.positive_roots:
            roots += 1
            failures = garland.root_failures(pair, alpha, order)
            if failures:
                return CheckResult("garland identities", False,
                                   f"{failures[0]['check']} at {pair.describe()} alpha={alpha}")
    return CheckResult("garland identities", True, f"{roots} roots at order {order}")


def run_all(max_rank: int, seed: int) -> list[CheckResult]:
    if max_rank < 2:
        raise ValueError(f"max rank must be at least 2, the smallest rank of a pair, got {max_rank}")
    if max_rank > CLASSICAL_MAX_RANK:
        raise ValueError(f"max rank must be at most {CLASSICAL_MAX_RANK}, the largest classical rank, "
                         f"got {max_rank}")
    rng = random.Random(seed)
    samples = 6  # seeded weights per pair in each weight-driven check
    pairs = all_pairs(max_rank)

    def up_to(k: int) -> list[BdsPair]:
        """all_pairs(k), in its order, from the one family of the run."""
        return [p for p in pairs if p.rs.rank <= k]

    return [
        check_pair_structure(pairs),
        check_comark_bound(pairs),
        check_reflection_chains(pairs),
        check_graded_pieces(up_to(6)),
        check_criteria_consistency(up_to(5), rng, samples),
        check_krull(up_to(5), rng, samples),
        check_hilbert_oracle(up_to(5), rng, samples=10, degree=16),
        check_shellings(rng, samples, up_to(5)),
        check_ideal_points(up_to(5), rng, samples=40),
        check_garland(up_to(3), order=3),
    ]
