"""Acceptance suite: one test per release criterion, one printed verdict each.

Every criterion is checked against an independent oracle or an explicitly
frozen expected value; tolerances and runtime budgets are asserted as stated
in each test. Run with `pytest tests/test_acceptance.py -v`.
"""

import itertools
import math
import time
from fractions import Fraction

from edgegames import (
    GameRules,
    HasEdgeProperty,
    JumbleGStrategy,
    NotKColorableProperty,
    RandomStrategy,
    SubgraphProperty,
    check_p1,
    check_p2,
    complete_graph,
    contains_induced,
    contains_subgraph,
    find_induced_embedding,
    graph_from_edges,
    is_regular_pair,
    mask_of,
    play_match,
    replay,
    solve_tau,
    turan_number,
)
from edgegames.harness import margin_violation_fraction, match_seed
from edgegames.regularity import (
    ConstantSchedule,
    check_density_lemma,
    round_robin_partition,
    validate_constants,
    verify_slicing,
)
from edgegames.strategies import FirstAvailableStrategy, TuranAvoiderStrategy

from test_solver import oracle_value, triangle_hit, odd_cycle_hit, edge_hit
from test_graphs import oracle_turan

import random


def verdict(name, ok):
    print("ACCEPTANCE %-28s %s" % (name + ":", "PASS" if ok else "FAIL"), flush=True)
    assert ok, name


def triangle_rules(n):
    return GameRules(n=n, prop=SubgraphProperty([complete_graph(3)], "subgraph:K3"))


# ---------------------------------------------------------------------------
# 1. trivial game values
# ---------------------------------------------------------------------------

def test_trivial_tau():
    t0 = time.perf_counter()
    ok = True
    for n in range(2, 7):
        res = solve_tau(GameRules(n=n, prop=HasEdgeProperty()))
        ok = ok and res.value == "exact" and res.t == 1
    res = solve_tau(triangle_rules(3))
    ok = ok and res.value == "never"
    elapsed = time.perf_counter() - t0
    verdict("trivial-tau", ok and elapsed < 1.0)


# ---------------------------------------------------------------------------
# 2. solver vs plain-recursion oracle
# ---------------------------------------------------------------------------

def test_solver_oracle_equivalence():
    t0 = time.perf_counter()
    cases = [
        (HasEdgeProperty(), edge_hit),
        (SubgraphProperty([complete_graph(3)], "subgraph:K3"), triangle_hit),
        (NotKColorableProperty(2), odd_cycle_hit),
    ]
    ok = True
    for prop, hit in cases:
        for n in (3, 4, 5):
            expected = oracle_value(n, hit)
            res = solve_tau(GameRules(n=n, prop=prop))
            got = math.inf if res.value == "never" else res.t
            ok = ok and got == expected
    elapsed = time.perf_counter() - t0
    verdict("solver-oracle", ok and elapsed < 300)


# ---------------------------------------------------------------------------
# 3. Turan machinery
# ---------------------------------------------------------------------------

def test_turan_machinery():
    t0 = time.perf_counter()
    ok = True
    # exact match against the independent minimum clique-edge-cover search
    for n in range(2, 9):
        for k in (1, 2, 3):
            ok = ok and turan_number(n, k) == oracle_turan(n, k)
    # sandwich (k-1)/k * n^2/2 - k/8 <= t(n,k) <= (k-1)/k * n^2/2, full grid
    for k in range(1, 11):
        for n in range(0, 10**4 + 1):
            t = turan_number(n, k)
            main = Fraction(k - 1, k) * n * n / 2
            ok = ok and main - Fraction(k, 8) <= t <= main
    elapsed = time.perf_counter() - t0
    verdict("turan-machinery", ok and elapsed < 300)


# ---------------------------------------------------------------------------
# 4. Avoider lower-bound mechanism
# ---------------------------------------------------------------------------

def test_avoider_lower_bound():
    t0 = time.perf_counter()
    ok = True
    total = 0
    for n in range(6, 31):
        bound = turan_number(n, 2) // 2
        opponents = [RandomStrategy(s) for s in range(50)]
        opponents.append(FirstAvailableStrategy())
        opponents.append(JumbleGStrategy(Fraction(1, 10)))
        for opp in opponents:
            tr = play_match(
                TuranAvoiderStrategy(2),
                opp,
                triangle_rules(n),
                max_rounds=bound,  # only the first floor(t(n,2)/2) rounds matter
            )
            total += 1
            if tr.result == "hit" and tr.t <= bound:
                ok = False
    elapsed = time.perf_counter() - t0
    assert total == 25 * 52
    verdict("avoider-lower-bound", ok and elapsed < 60)


# ---------------------------------------------------------------------------
# 5. pseudo-randomness of the greedy enforcer
# ---------------------------------------------------------------------------

def test_enforcer_pseudo_randomness():
    t0 = time.perf_counter()
    n, eps, games = 100, Fraction(1, 10), 100
    # nc:100 can never fire on 100 vertices, so every board fills completely
    rules = GameRules(n=n, prop=NotKColorableProperty(n))
    p1_passes = p2_passes = 0
    margin_bad = Fraction(0)
    for g in range(games):
        seed = match_seed(2024, n, g)
        tr = play_match(
            RandomStrategy(seed),
            JumbleGStrategy(eps),
            rules,
            seed=seed,
        )
        board = replay(tr, rules.prop)
        G_enf = board.opponent_graph()
        if check_p1(G_enf, eps)[0]:
            p1_passes += 1
        rep = check_p2(
            G_enf, eps, mode="sampled", trials=2000, seed=seed ^ 0xA5A5, set_size=25
        )
        if rep.passed:
            p2_passes += 1
        margin_bad += margin_violation_fraction(board, eps, 200, seed ^ 0x5A5A)
    margin_fraction = margin_bad / games
    elapsed = time.perf_counter() - t0
    print(
        "  p1 %d/100, p2 %d/100, margin violations %.4f, %.0fs"
        % (p1_passes, p2_passes, float(margin_fraction), elapsed)
    )
    ok = (
        p1_passes >= 95
        and p2_passes >= 90
        and margin_fraction <= Fraction(1, 100)
        and elapsed < 300
    )
    verdict("enforcer-pseudorandom", ok)


# ---------------------------------------------------------------------------
# 6. lemma-level property suites (zero tolerance, exact arithmetic)
# ---------------------------------------------------------------------------

def test_density_lemma_suite():
    rng = random.Random(60)
    checked = 0
    ok = True
    while checked < 200:
        E = rng.choice([Fraction(1, 2), Fraction(2, 5), Fraction(1, 3)])
        ell = rng.randrange(math.ceil(1 / E), 6)
        n_min = math.ceil(2 * ell / E)
        n = rng.randrange(n_min, 61)
        G = graph_from_edges(
            n,
            [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < rng.choice([0.3, 0.5, 0.8])
            ],
        )
        outer = round_robin_partition(n, ell)
        L = rng.randrange(1, min(m.bit_count() for m in outer) + 1)
        inner = [mask_of(rng.sample(sorted_bits(m), L)) for m in outer]
        rep = check_density_lemma(G, outer, inner, E)
        if not rep.hypotheses_ok:
            continue  # only hypothesis-satisfying instances count
        checked += 1
        ok = ok and rep.conclusion_ok
    verdict("density-lemma-suite", ok and checked == 200)


def sorted_bits(mask):
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def test_slicing_suite():
    # structured sources whose pairs verify exactly 1/3-regular; random
    # pairs at this scale essentially never do
    alpha = Fraction(1, 3)
    sources = []
    for L0, c in [(8, 2), (8, 6), (10, 2), (10, 3), (10, 7), (10, 8)]:
        edges = [
            (i, L0 + j) for i in range(L0) for j in range(L0) if (i + j) % L0 < c
        ]
        sources.append((graph_from_edges(2 * L0, edges), L0))
    for L0 in (7, 8, 9, 10):
        edges = [(i, L0 + j) for i in range(L0) for j in range(L0)]
        sources.append((graph_from_edges(2 * L0, edges), L0))  # complete pair
    instances = 0
    violations = 0
    for idx, (G, L0) in enumerate(sources):
        A, B = mask_of(range(L0)), mask_of(range(L0, 2 * L0))
        assert is_regular_pair(G, A, B, alpha).passed
        Li = Lj = L0 // 2 + 1  # comfortably above alpha * L0
        v, t = verify_slicing(G, A, B, alpha, Li, Lj, trials=10, seed=idx)
        instances += t
        violations += v
    verdict("slicing-suite", instances == 100 and violations == 0)


def test_embedding_suite():
    rng = random.Random(66)
    ok = True
    for trial in range(200):
        f = rng.randrange(2, 5)
        H = graph_from_edges(
            f, [(a, b) for a in range(f) for b in range(a + 1, f) if rng.random() < 0.5]
        )
        sizes = [rng.randrange(1, 6) for _ in range(f)]
        parts_verts, at = [], 0
        for s in sizes:
            parts_verts.append(list(range(at, at + s)))
            at += s
        G = graph_from_edges(
            at, [(a, b) for a in range(at) for b in range(a + 1, at) if rng.random() < 0.5]
        )
        mine = find_induced_embedding(G, H, [mask_of(p) for p in parts_verts])
        # full product enumeration
        oracle = None
        for choice in itertools.product(*parts_verts):
            if all(
                H.has_edge(i, j) == G.has_edge(choice[i], choice[j])
                for i in range(f)
                for j in range(i + 1, f)
            ):
                oracle = choice
                break
        ok = ok and (mine is None) == (oracle is None)
        if mine is not None:
            ok = ok and all(
                H.has_edge(i, j) == G.has_edge(mine[i], mine[j])
                for i in range(f)
                for j in range(i + 1, f)
            )
    verdict("embedding-suite", ok)


def test_induced_implies_subgraph_suite():
    rng = random.Random(77)
    ok = True
    for _ in range(500):
        n = rng.randrange(2, 11)
        G = graph_from_edges(
            n, [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.5]
        )
        fn = rng.randrange(1, min(n, 5) + 1)
        F = graph_from_edges(
            fn, [(a, b) for a in range(fn) for b in range(a + 1, fn) if rng.random() < 0.5]
        )
        if contains_induced(G, F) is not None:
            ok = ok and contains_subgraph(G, F) is not None
    verdict("induced-implies-subgraph", ok)


# ---------------------------------------------------------------------------
# 7. constants validator
# ---------------------------------------------------------------------------

def test_constants_validator():
    t0 = time.perf_counter()

    def schedule(**overrides):
        base = dict(
            epsilon=Fraction(1, 100000),  # 1e-5
            E0=Fraction(9, 1000000),  # 9e-6
            E1=Fraction(1, 1000),
            eta=Fraction(1, 100),
            delta=Fraction(1, 20),  # 0.05
            gamma=Fraction(1, 1000),  # 1e-3
            f=3,
            k=3,
            S0=1000,
            S1=100,
            m=1,
        )
        base.update(overrides)
        return ConstantSchedule(**base)

    valid, violations = validate_constants(schedule())
    ok = valid and violations == []

    # single-inequality perturbations; (4) cannot be broken alone because any
    # E0 > delta/2 + eps already violates (2), so its case expects both labels
    cases = [
        (dict(delta=Fraction(2, 100000)), ["(2)"]),
        (dict(epsilon=Fraction(101, 10**7)), ["(3)"]),
        (dict(E0=Fraction(101, 10**7)), ["(5)"]),  # gamma/S1 * 1.01
        (dict(E0=Fraction(3, 100), gamma=Fraction(9, 10), S1=1), ["(2)", "(4)"]),
    ]
    for overrides, expected in cases:
        valid, violations = validate_constants(schedule(**overrides))
        ok = ok and not valid and violations == expected
    elapsed = time.perf_counter() - t0
    verdict("constants-validator", ok and elapsed < 1.0)


# ---------------------------------------------------------------------------
# 8. sweep determinism
# ---------------------------------------------------------------------------

def test_sweep_determinism(tmp_path):
    from edgegames.cli import main

    argv_base = [
        "sweep", "--n", "6:14:4", "--trials", "3", "--seed", "11",
        "--avoider", "turan:2", "--enforcer", "random",
        "--property", "subgraph:K3",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv_base + ["--out", str(out1)]) == 0
    assert main(argv_base + ["--out", str(out2)]) == 0
    verdict("sweep-determinism", out1.read_bytes() == out2.read_bytes())
