"""Regularity / pseudo-randomness checks.

Oracles here re-enumerate the quantifiers with plain itertools + Fractions,
independently of the bitmask/numpy implementations under test.
"""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from edgegames.graphs import (
    complete_graph,
    complete_multipartite,
    density,
    empty_graph,
    graph_from_edges,
    mask_of,
    path_graph,
)
from edgegames import regularity
from edgegames.regularity import (
    ConstantSchedule,
    _meets_jumbleg_eps,
    _p2_exact_scan,
    _random_disjoint_pairs,
    _samples,
    _subset_table,
    check_density_lemma,
    check_p1,
    check_p2,
    is_equipartition,
    is_regular_pair,
    jumbleg_margin,
    round_robin_partition,
    slicing_alpha,
    validate_constants,
    verify_slicing,
)

HALF = Fraction(1, 2)


def random_graph(n, p, rng):
    return graph_from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    )


def random_bipartite(a_list, b_list, p, rng, n):
    edges = []
    for u in a_list:
        for v in b_list:
            if rng.random() < p:
                edges.append((min(u, v), max(u, v)))
    return graph_from_edges(n, edges)


# ---------------------------------------------------------------------------
# unbiasedness, P1, P2
# ---------------------------------------------------------------------------

def test_check_p1():
    ok, mindeg = check_p1(complete_graph(10), Fraction(1, 10))
    assert ok and mindeg == 9
    ok, mindeg = check_p1(empty_graph(10), Fraction(1, 10))
    assert not ok and mindeg == 0
    # path: min degree 1, need (1/2 - eps)*4 <= 1  <=>  eps >= 1/4
    assert check_p1(path_graph(4), Fraction(1, 4))[0]
    assert not check_p1(path_graph(4), Fraction(1, 5))[0]


def oracle_p2(G, eps):
    """Second enumerator over qualifying disjoint pairs in (|S|, S, |T|, T)
    order: (worst deviation, pair count, first pair at the worst deviation)."""
    n = G.n
    sizes = [k for k in range(1, n + 1) if Fraction(k) > eps * n]
    worst, count, first = Fraction(0), 0, None
    for s_size in sizes:
        for S in itertools.combinations(range(n), s_size):
            rest = sorted(set(range(n)) - set(S))
            for t_size in sizes:
                for T in itertools.combinations(rest, t_size):
                    count += 1
                    dev = abs(density(G, mask_of(S), mask_of(T)) - HALF)
                    if dev > worst:
                        worst, first = dev, (mask_of(S), mask_of(T))
    return worst, count, first


def test_p2_exact_empty_graph():
    rep = check_p2(empty_graph(6), Fraction(1, 4), mode="exact")
    assert not rep.passed
    assert rep.deviation == HALF
    assert rep.witness_S is not None and rep.witness_T is not None
    # vacuously unbiased at huge eps
    assert check_p2(empty_graph(6), Fraction(9, 10), mode="exact").passed


def test_p2_exact_matches_oracle():
    rng = random.Random(7)
    for trial in range(6):
        G = random_graph(7, 0.5, rng)
        # at eps = 1/2 sets need 4 of the 7 vertices, so no pair qualifies
        for eps in (Fraction(1, 7), Fraction(1, 4), Fraction(2, 5), HALF):
            worst, count, first = oracle_p2(G, eps)
            want = first if worst > eps else (None, None)
            rep = check_p2(G, eps, mode="exact")
            assert rep.deviation == worst, (trial, eps)
            assert rep.samples == count, (trial, eps)
            assert rep.passed == (worst <= eps)
            assert (rep.witness_S, rep.witness_T) == want, (trial, eps)
            if eps == HALF:
                assert count == 0 and rep.passed and rep.witness_S is None


@st.composite
def p2_cases(draw):
    n = draw(st.integers(min_value=2, max_value=9))
    edges = [e for e in itertools.combinations(range(n), 2) if draw(st.booleans())]
    # below 1/2, so pairs can fail by less than the largest deviation
    return n, edges, draw(st.fractions(0, Fraction(9, 20), max_denominator=20))


@settings(max_examples=150, deadline=None)
@given(p2_cases())
# in the witness row S = {0, 3}, T = {1, 5} ties with T = {2, 4}, which comes
# later in (|T|, sorted T) order but earlier as a bitmask of the vertices
# outside S
@example((6, [(0, 1), (0, 5), (1, 2), (1, 3), (1, 4), (2, 4), (3, 5)], Fraction(3, 10)))
def test_p2_exact_matches_oracle_any_graph(case):
    n, edges, eps = case
    G = graph_from_edges(n, edges)
    worst, count, first = oracle_p2(G, eps)
    want = first if worst > eps else (None, None)
    rep = check_p2(G, eps, mode="exact")
    assert (rep.deviation, rep.samples) == (worst, count)
    assert rep.passed == (worst <= eps)
    assert (rep.witness_S, rep.witness_T) == want


def test_p2_exact_k16_pin():
    # every pair of K16 deviates by 1/2; at eps = 1/10 both sets need 2 vertices
    n, f = 16, math.factorial
    count = sum(
        f(n) // (f(s) * f(t) * f(n - s - t))
        for s in range(2, n + 1)
        for t in range(2, n - s + 1)
    )
    assert count == 41_867_346
    rep = check_p2(complete_graph(n), Fraction(1, 10), mode="exact")
    assert rep.to_json() == {
        "passed": False,
        "mode": "exact",
        "deviation_num": 1,
        "deviation_den": 2,
        "samples": count,
        "witness_S": [0, 1],
        "witness_T": [2, 3],
    }


# Reports recorded before the exact scans' weight rows became one float64
# matmul, on seeded G(n, 1/2) above the brute-force oracles' reach.
@pytest.mark.parametrize(
    "n, eps, samples, deviation, S, T",
    [
        (14, Fraction(1, 10), 4_521_036, HALF, [0, 1], [3, 7]),
        (14, Fraction(1, 4), 2_401_828, HALF, [2, 6, 10, 12], [3, 4, 5, 9]),
        (16, Fraction(1, 10), 41_867_346, HALF, [0, 1], [3, 7]),
        (16, Fraction(1, 4), 16_117_686, Fraction(23, 50), [0, 3, 6, 12, 13], [1, 2, 4, 7, 11]),
        # recorded through _p2_exact_scan before it took its rows in chunks
        (18, Fraction(1, 10), 382_177_952, HALF, [0, 1], [5, 9]),
        (18, Fraction(1, 4), 214_908_254, Fraction(21, 50), [0, 2, 5, 10, 13], [1, 6, 7, 12, 15]),
        (20, Fraction(1, 10), 3_364_137_720, HALF, [0, 1, 3], [4, 8, 12]),
        (20, Fraction(1, 4), 1_537_622_766, Fraction(5, 12), [1, 3, 4, 5, 11, 12], [2, 6, 7, 10, 13, 15]),
    ],
)
def test_p2_exact_pins_on_random_graphs(n, eps, samples, deviation, S, T):
    G = random_graph(n, 0.5, random.Random(n))
    assert check_p2(G, eps, mode="exact").to_json() == {
        "passed": False,
        "mode": "exact",
        "deviation_num": deviation.numerator,
        "deviation_den": deviation.denominator,
        "samples": samples,
        "witness_S": S,
        "witness_T": T,
    }


def test_p2_witness_is_a_violation():
    rep = check_p2(complete_graph(8), Fraction(1, 5), mode="exact")
    assert not rep.passed
    dev = abs(density(complete_graph(8), rep.witness_S, rep.witness_T) - HALF)
    assert dev > Fraction(1, 5) and dev == rep.deviation


def test_p2_exact_size_cap():
    with pytest.raises(ValueError):
        check_p2(empty_graph(21), Fraction(1, 10), mode="exact")


@pytest.mark.parametrize("k", [0, 1, 5, 12, 17])
def test_subset_table_rows_are_the_bits_of_their_ids(k):
    table = _subset_table(k, 0, 1 << k)
    ids = np.arange(1 << k)
    assert table.shape == (1 << k, k)
    assert (table == ids[:, None] >> np.arange(k) & 1).all()
    start, stop = (1 << k) // 3, (1 << k) // 2  # a chunk from the middle
    assert (_subset_table(k, start, stop) == table[start:stop]).all()


def test_p2_exact_scan_past_16_vertices():
    # at n = 17, where the 16-bit subset ids of an earlier scan overflowed;
    # the scan now lists each size's sets in combinations order instead
    rep = _p2_exact_scan(complete_graph(17), 2, lambda dev: dev > Fraction(1, 10))
    assert rep.deviation == HALF and not rep.passed
    assert (rep.witness_S, rep.witness_T) == (mask_of([0, 1]), mask_of([2, 3]))
    assert rep.samples == 126_650_102


def test_p2_sampled_one_sided():
    # sampled deviation can never exceed the exact worst case
    rng = random.Random(11)
    G = random_graph(10, 0.5, rng)
    eps = Fraction(1, 5)
    exact = check_p2(G, eps, mode="exact")
    sampled = check_p2(G, eps, mode="sampled", trials=400, seed=3)
    assert sampled.deviation <= exact.deviation
    if exact.passed:
        assert sampled.passed


def test_p2_sampled_validation():
    G = empty_graph(10)
    with pytest.raises(ValueError):
        check_p2(G, Fraction(1, 10), mode="sampled", set_size=1)  # below qualifying
    with pytest.raises(ValueError):
        check_p2(G, Fraction(1, 10), mode="sampled", set_size=6)  # no disjoint fit
    with pytest.raises(ValueError):
        check_p2(G, Fraction(1, 10), mode="middle")


def test_p2_sampled_deterministic():
    rng = random.Random(2)
    G = random_graph(12, 0.5, rng)
    a = check_p2(G, Fraction(1, 6), mode="sampled", trials=200, seed=5)
    b = check_p2(G, Fraction(1, 6), mode="sampled", trials=200, seed=5)
    assert a.deviation == b.deviation and a.passed == b.passed


def sample_pool_limit(k):
    # `sample` shuffles a pool when n <= 21 + (the smallest power of 4 that
    # is at least 3k, for k > 5), and tracks picks in a set above that
    table = 1
    while k > 5 and table < 3 * k:
        table *= 4
    return 21 + (table if k > 5 else 0)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_disjoint_pairs_are_sample_draws_on_both_paths(data):
    # sampled P2's pairs against one `sample` call per pair, at n on both
    # sides of the pool/set threshold and over long runs of draws; both
    # generators must also end in the same state
    s, t = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 12))
    limit = sample_pool_limit(s + t)
    n = data.draw(st.one_of(st.sampled_from([limit, limit + 1]), st.integers(s + t, 2 * limit)))
    count = data.draw(st.one_of(st.integers(0, 7), st.sampled_from([1023, 1024, 1025, 2049])))
    seed = data.draw(st.integers(min_value=0, max_value=2**64))
    rng, ref = random.Random(seed), random.Random(seed)
    got = list(_random_disjoint_pairs(rng, n, s, t, count))
    want = []
    for _ in range(count):
        picks = ref.sample(range(n), s + t)
        want.append((mask_of(picks[:s]), mask_of(picks[s:])))
    assert got == want
    assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("n, eps", [(40, Fraction(1, 10)), (120, Fraction(1, 40))])
def test_p2_sampled_scans_the_sample_draws(n, eps):
    # pairs of 5 + 5 of 40 take the pool path, 4 + 4 of 120 the set path:
    # the report must be a reference scan's over one `sample` call per pair,
    # worst deviation and first worst pair as the witness
    G = random_graph(n, 0.5, random.Random(n))
    trials, seed = 300, 7
    size = math.floor(eps * n) + 1
    rep = check_p2(G, eps, mode="sampled", trials=trials, seed=seed)
    rng, worst, witness = random.Random(seed), Fraction(0), None
    for _ in range(trials):
        picks = rng.sample(range(n), 2 * size)
        S, T = mask_of(picks[:size]), mask_of(picks[size:])
        dev = abs(density(G, S, T) - HALF)
        if dev > worst:
            worst, witness = dev, (S, T)
    assert worst > eps  # so the report names a witness
    assert (rep.deviation, rep.passed, rep.samples) == (worst, False, trials)
    assert (rep.witness_S, rep.witness_T) == witness


# ---------------------------------------------------------------------------
# margin lemma and threshold
# ---------------------------------------------------------------------------

def test_jumbleg_margin():
    margin, bound, ok = jumbleg_margin(30, 20, 5, 5, Fraction(1, 10))
    assert margin == 10 and bound == 6 and not ok
    margin, bound, ok = jumbleg_margin(23, 20, 5, 5, Fraction(1, 25))
    assert margin == 3 and bound == 3 and ok  # boundary is inclusive
    with pytest.raises(ValueError):
        jumbleg_margin(1, 1, 0, 5, HALF)


# ---------------------------------------------------------------------------
# regular pairs
# ---------------------------------------------------------------------------

def oracle_regular_pair(G, A_verts, B_verts, alpha):
    """(worst density deviation, sub-pair count, first pair at the worst
    deviation) over qualifying sub-pairs, by full enumeration in (X index,
    Y index) order, an index being the bitmask over the positions of the
    sorted side."""
    A_verts, B_verts = sorted(A_verts), sorted(B_verts)
    a, b = len(A_verts), len(B_verts)
    d = density(G, mask_of(A_verts), mask_of(B_verts))
    subsets = lambda side, index: [v for i, v in enumerate(side) if index >> i & 1]
    worst, count, first = Fraction(0), 0, None
    for xi in range(1, 1 << a):
        X = subsets(A_verts, xi)
        if Fraction(len(X)) <= alpha * a:
            continue
        for yi in range(1, 1 << b):
            Y = subsets(B_verts, yi)
            if Fraction(len(Y)) <= alpha * b:
                continue
            count += 1
            dev = abs(d - density(G, mask_of(X), mask_of(Y)))
            if dev > worst:
                worst, first = dev, (mask_of(X), mask_of(Y))
    return worst, count, first


def test_regular_pair_complete_bipartite():
    G = complete_multipartite([5, 5])
    rep = is_regular_pair(G, mask_of(range(5)), mask_of(range(5, 10)), Fraction(1, 10))
    assert rep.passed and rep.deviation == 0


def test_regular_pair_half_graph_witness():
    # A = {0..4}, B = {5..9}, edges only from {0,1} to all of B: d = 2/5
    edges = [(u, v) for u in (0, 1) for v in range(5, 10)]
    G = graph_from_edges(10, edges)
    A, B = mask_of(range(5)), mask_of(range(5, 10))
    rep = is_regular_pair(G, A, B, Fraction(1, 3))
    assert not rep.passed
    # worst: X = {0,1} gives density 1, deviation 3/5
    assert rep.deviation == Fraction(3, 5)
    assert rep.witness_S is not None
    d = density(G, A, B)
    dev = abs(d - density(G, rep.witness_S, rep.witness_T))
    assert dev == rep.deviation


def test_regular_pair_matches_oracle():
    rng = random.Random(21)
    for trial in range(8):
        A_verts, B_verts = list(range(4)), list(range(4, 9))
        G = random_bipartite(A_verts, B_verts, 0.5, rng, 9)
        for alpha in (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)):
            worst, count, first = oracle_regular_pair(G, A_verts, B_verts, alpha)
            want = first if worst >= alpha and worst else (None, None)
            rep = is_regular_pair(G, mask_of(A_verts), mask_of(B_verts), alpha)
            assert rep.deviation == worst, (trial, alpha)
            assert rep.samples == count, (trial, alpha)
            assert rep.passed == (worst < alpha)  # strict threshold
            assert (rep.witness_S, rep.witness_T) == want, (trial, alpha)


@st.composite
def pair_cases(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    edges = [e for e in itertools.combinations(range(n), 2) if draw(st.booleans())]
    # each vertex goes to A, to B or to neither, so the sides interleave and
    # either one may be the smaller (the exact scan enumerates the smaller)
    side = draw(
        st.lists(st.sampled_from("AB-"), min_size=n, max_size=n).filter(
            lambda s: "A" in s and "B" in s
        )
    )
    A_verts = [v for v in range(n) if side[v] == "A"]
    B_verts = [v for v in range(n) if side[v] == "B"]
    return n, edges, A_verts, B_verts, draw(st.fractions(0, Fraction(2, 3), max_denominator=20))


@settings(max_examples=150, deadline=None)
@given(pair_cases())
def test_regular_pair_matches_oracle_any_graph(case):
    n, edges, A_verts, B_verts, alpha = case
    G = graph_from_edges(n, edges)
    worst, count, first = oracle_regular_pair(G, A_verts, B_verts, alpha)
    want = first if worst >= alpha and worst else (None, None)
    rep = is_regular_pair(G, mask_of(A_verts), mask_of(B_verts), alpha)
    assert (rep.deviation, rep.samples) == (worst, count)
    assert rep.passed == (worst < alpha)
    assert (rep.witness_S, rep.witness_T) == want


@pytest.mark.parametrize("swap", [False, True])
def test_regular_pair_cap_corners(swap):
    # 23 + 1 vertices, at the exact cap: the 23-vertex side has 2^23 subsets,
    # but the scan enumerates only the subsets of the one-vertex side.
    # d = 12/23, and every X of odd vertices has density 0 to {23}.
    G = graph_from_edges(24, [(u, 23) for u in range(0, 23, 2)])
    big, small = list(range(23)), [23]
    A, B = (small, big) if swap else (big, small)
    rep = is_regular_pair(G, mask_of(A), mask_of(B), Fraction(1, 10))
    X, Y = ([23], [1, 3, 5]) if swap else ([1, 3, 5], [23])
    assert rep.to_json() == {
        "passed": False,
        "mode": "exact",
        "deviation_num": 12,
        "deviation_den": 23,
        "samples": 2**23 - 1 - 23 - 253,  # subsets of 3 or more of the 23
        "witness_S": X,
        "witness_T": Y,
    }


@pytest.mark.parametrize(
    "alpha, samples, deviation, X, Y",
    [
        (Fraction(1, 10), 16_670_889, Fraction(9, 16), [2, 5], [3, 4]),
        (Fraction(1, 4), 14_417_209, HALF, [7, 9, 12, 16], [3, 4, 10, 11]),
    ],
)
def test_regular_pair_exact_pins_on_a_random_graph(alpha, samples, deviation, X, Y):
    # a seeded 12 + 12 split of G(24, 1/2); reports recorded as in the P2 pins
    G = random_graph(24, 0.5, random.Random(24))
    perm = random.Random(2424).sample(range(24), 24)
    A, B = sorted(perm[:12]), sorted(perm[12:])
    assert A == [0, 2, 5, 7, 9, 12, 13, 14, 15, 16, 21, 23]
    rep = is_regular_pair(G, mask_of(A), mask_of(B), alpha, mode="exact")
    assert rep.to_json() == {
        "passed": False,
        "mode": "exact",
        "deviation_num": deviation.numerator,
        "deviation_den": deviation.denominator,
        "samples": samples,
        "witness_S": X,
        "witness_T": Y,
    }


# Reports recorded through _pair_exact_scan before it took its rows in
# chunks, past the |A| + |B| <= 24 cap of that time: seeded k + k splits of
# G(2k, 1/2), seeded as the 12 + 12 pins are.
@pytest.mark.parametrize(
    "k, alpha, samples, deviation, X, Y",
    [
        (16, Fraction(1, 10), 4_292_739_361, Fraction(129, 256), [1, 2], [4, 7]),
        (16, Fraction(1, 4), 3_971_394_361, Fraction(2969, 6400), [2, 21, 23, 26, 30], [4, 9, 11, 14, 27]),
        (18, Fraction(1, 10), 68_709_515_625, Fraction(14, 27), [0, 3], [8, 14]),
        (18, Fraction(1, 4), 66_613_545_216, Fraction(298, 675), [2, 5, 7, 9, 18], [12, 14, 22, 23, 33]),
    ],
)
def test_regular_pair_exact_pins_past_24_vertices(k, alpha, samples, deviation, X, Y):
    G = random_graph(2 * k, 0.5, random.Random(2 * k))
    perm = random.Random(int(str(2 * k) * 2)).sample(range(2 * k), 2 * k)
    A, B = sorted(perm[:k]), sorted(perm[k:])
    rep = is_regular_pair(G, mask_of(A), mask_of(B), alpha, mode="exact")
    assert rep.to_json() == {
        "passed": False,
        "mode": "exact",
        "deviation_num": deviation.numerator,
        "deviation_den": deviation.denominator,
        "samples": samples,
        "witness_S": X,
        "witness_T": Y,
    }


def reference_pair_scan(G, A_verts, B_verts, alpha):
    """(worst deviation, sub-pair count) of exact regular-pair, from every
    subset R of the smaller side and, for each size t, the t smallest and
    the t largest of the other side's weights |N(c) & R|, in Python ints."""
    d = density(G, mask_of(A_verts), mask_of(B_verts))
    rows, cols = sorted((A_verts, B_verts), key=len)
    least = [math.floor(alpha * len(side)) + 1 for side in (rows, cols)]
    worst, count = Fraction(0), 0
    for size in range(least[0], len(rows) + 1):
        for R in itertools.combinations(rows, size):
            count += 1
            w = sorted((G.adj[c] & mask_of(R)).bit_count() for c in cols)
            for t in range(least[1], len(cols) + 1):
                for e in (sum(w[:t]), sum(w[-t:])):
                    worst = max(worst, abs(Fraction(e, size * t) - d))
    return worst, count * sum(math.comb(len(cols), t) for t in range(least[1], len(cols) + 1))


@pytest.mark.parametrize("swap", [False, True])
def test_regular_pair_exact_past_63_columns(swap):
    # 8 + 100 vertices: the column sets of the 100-vertex side are bitmasks
    # wider than an int64; the report must be the reference scan's, and the
    # witness a qualifying sub-pair at the worst deviation
    G = random_graph(108, 0.5, random.Random(108))
    small, big = list(range(8)), list(range(8, 108))
    A, B = (big, small) if swap else (small, big)
    alpha = Fraction(1, 4)
    worst, count = reference_pair_scan(G, A, B, alpha)
    rep = is_regular_pair(G, mask_of(A), mask_of(B), alpha, mode="exact")
    assert (rep.deviation, rep.samples, rep.passed) == (worst, count, False)
    X, Y = rep.witness_S, rep.witness_T
    assert X & ~mask_of(A) == 0 and Y & ~mask_of(B) == 0
    assert Fraction(X.bit_count()) > alpha * len(A) and Fraction(Y.bit_count()) > alpha * len(B)
    assert abs(density(G, X, Y) - density(G, mask_of(A), mask_of(B))) == worst


@pytest.mark.parametrize("small_first", [False, True])
def test_regular_pair_exact_wide_side_in_bounded_memory(small_first):
    # 1989 + 11 vertices, the first of the 1989 joined to all 11, alpha
    # 1/400: with the 11 as rows every row is at the worst, 1/5 - 1/1989 at
    # the five earliest columns; both ways the witness is the least qualifying
    # pair. The scan's traced peak stays under 4 MB: one chunk of about
    # SCAN_CELLS weights, and one packed column set per worst row
    big, small = list(range(1989)), list(range(1989, 2000))
    G = graph_from_edges(2000, [(0, v) for v in small])
    A, B = (small, big) if small_first else (big, small)
    tracemalloc.start()
    try:
        rep = is_regular_pair(G, mask_of(A), mask_of(B), Fraction(1, 400))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    least = (mask_of(small[:1]), mask_of(big[:5]))  # the least qualifying sets
    columns = sum(math.comb(1989, t) for t in range(5, 1990))
    assert (rep.deviation, rep.passed, rep.samples) == (Fraction(1984, 9945), False, 2047 * columns)
    assert (rep.witness_S, rep.witness_T) == (least if small_first else least[::-1])
    assert peak < 4 * 2**20, peak


@pytest.mark.parametrize("cells", [1, 12])
@pytest.mark.parametrize(
    "oracle_test",
    [
        test_p2_exact_matches_oracle,
        test_p2_exact_matches_oracle_any_graph,
        test_regular_pair_matches_oracle,
        test_regular_pair_matches_oracle_any_graph,
    ],
    ids=lambda f: f.__name__,
)
def test_exact_scans_match_the_oracles_in_small_chunks(oracle_test, cells, monkeypatch):
    # chunks of one row, and of 12 // (columns) rows, 1 to 6 here: ties
    # across chunk edges, chunks with no row of the size, and the witness
    # rule with B as rows
    monkeypatch.setattr(regularity, "SCAN_CELLS", cells)
    oracle_test()


def test_regular_pair_strictness():
    # deviation exactly equal to alpha must fail (strict <):
    # A={0,1,2}, B={3,4,5}, edges only from 0, so d = 1/3; the qualifying
    # sub-pair X={1,2} (any Y) has density 0, deviation exactly 1/3
    edges = [(0, v) for v in (3, 4, 5)]
    G = graph_from_edges(6, edges)
    rep = is_regular_pair(G, mask_of([0, 1, 2]), mask_of([3, 4, 5]), Fraction(1, 3))
    assert rep.deviation == Fraction(1, 3)
    assert not rep.passed


def test_regular_pair_validation():
    G = complete_graph(6)
    with pytest.raises(ValueError):
        is_regular_pair(G, mask_of([0, 1]), mask_of([1, 2]), HALF)  # overlap
    with pytest.raises(ValueError):
        is_regular_pair(G, 0, mask_of([1, 2]), HALF)
    for sizes in ([19, 19], [12, 1153], [7, 18725]):  # over the exact caps
        with pytest.raises(ValueError):
            is_regular_pair(
                empty_graph(sum(sizes)),
                mask_of(range(sizes[0])),
                mask_of(range(sizes[0], sum(sizes))),
                HALF,
            )
    for mode in ("exact", "sampled"):
        with pytest.raises(ValueError):
            is_regular_pair(G, mask_of([0, 1]), mask_of([2, 99]), HALF, mode=mode)


def test_regular_pair_sampled_one_sided():
    rng = random.Random(31)
    A_verts, B_verts = list(range(6)), list(range(6, 12))
    G = random_bipartite(A_verts, B_verts, 0.5, rng, 12)
    A, B = mask_of(A_verts), mask_of(B_verts)
    exact = is_regular_pair(G, A, B, Fraction(1, 3), mode="exact")
    sampled = is_regular_pair(G, A, B, Fraction(1, 3), mode="sampled", trials=300, seed=9)
    assert sampled.deviation <= exact.deviation
    if exact.passed:
        assert sampled.passed


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_regular_pair_sampled_draws_are_sample_draws(data):
    # X and then Y each trial, against two `sample` calls on the sorted
    # sides: sides on both sides of the pool/set threshold, and draws larger
    # than their side, which raise as `sample` does; the report, and the
    # generator's state after the draws, must be the reference's
    n = data.draw(st.integers(2, 130))
    side = data.draw(
        st.lists(st.sampled_from("AB-"), min_size=n, max_size=n).filter(
            lambda s: "A" in s and "B" in s
        )
    )
    A = [v for v in range(n) if side[v] == "A"]
    B = [v for v in range(n) if side[v] == "B"]
    alpha = data.draw(st.fractions(0, 1, max_denominator=20))
    trials, seed = data.draw(st.integers(1, 30)), data.draw(st.integers(0, 2**64))
    G = random_graph(n, 0.5, random.Random(seed))
    x, y = math.floor(alpha * len(A)) + 1, math.floor(alpha * len(B)) + 1
    if x > len(A) or y > len(B):
        with pytest.raises(ValueError):
            is_regular_pair(G, mask_of(A), mask_of(B), alpha, mode="sampled", trials=trials, seed=seed)
        return
    rng, ref = random.Random(seed), random.Random(seed)
    xs, ys = _samples(rng, A, x), _samples(rng, B, y)
    for _ in range(trials):
        assert (next(xs), next(ys)) == (ref.sample(A, x), ref.sample(B, y))
    assert rng.getstate() == ref.getstate()
    d = density(G, mask_of(A), mask_of(B))
    ref, worst, witness = random.Random(seed), Fraction(0), (None, None)
    for _ in range(trials):
        X, Y = mask_of(ref.sample(A, x)), mask_of(ref.sample(B, y))
        if abs(density(G, X, Y) - d) > worst:
            worst, witness = abs(density(G, X, Y) - d), (X, Y)
    rep = is_regular_pair(G, mask_of(A), mask_of(B), alpha, mode="sampled", trials=trials, seed=seed)
    passed = worst < alpha
    assert (rep.deviation, rep.passed, rep.samples) == (worst, passed, trials)
    assert (rep.witness_S, rep.witness_T) == ((None, None) if passed or not worst else witness)


def test_report_json_shape():
    rep = check_p2(empty_graph(6), Fraction(1, 4), mode="exact")
    payload = rep.to_json()
    assert set(payload) == {
        "passed",
        "mode",
        "deviation_num",
        "deviation_den",
        "samples",
        "witness_S",
        "witness_T",
    }
    assert Fraction(payload["deviation_num"], payload["deviation_den"]) == rep.deviation
    assert isinstance(payload["witness_S"], list)


# ---------------------------------------------------------------------------
# slicing
# ---------------------------------------------------------------------------

def test_slicing_alpha():
    a = Fraction(1, 10)
    assert slicing_alpha(a, 10, 10, 10) == Fraction(1, 5)  # 2a dominates
    assert slicing_alpha(a, 10, 2, 10) == HALF  # L0/Li = 5 dominates
    assert slicing_alpha(a, 12, 4, 3) == Fraction(2, 5)  # L0/Lj = 4 dominates
    with pytest.raises(ValueError):
        slicing_alpha(a, 4, 5, 4)  # Li > L0


def circulant_bipartite(L0, c):
    """Bipartite circulant: (i, L0+j) an edge iff (i+j) mod L0 < c.

    Every vertex has degree c, and the algebraic structure keeps subset
    densities close to c/L0 -- random bipartite graphs at this scale almost
    never form an exactly 1/3-regular pair, these do for moderate c.
    """
    edges = [(i, L0 + j) for i in range(L0) for j in range(L0) if (i + j) % L0 < c]
    return graph_from_edges(2 * L0, edges)


def test_verify_slicing_on_regular_source():
    G = circulant_bipartite(10, 3)
    A, B = mask_of(range(10)), mask_of(range(10, 20))
    assert is_regular_pair(G, A, B, Fraction(1, 3)).passed
    violations, trials = verify_slicing(
        G, A, B, Fraction(1, 3), 5, 5, trials=40, seed=1
    )
    assert trials == 40
    assert violations == 0


def test_verify_slicing_rejects_irregular_source():
    edges = [(u, v) for u in (0, 1) for v in range(5, 10)]
    G = graph_from_edges(10, edges)
    with pytest.raises(ValueError):
        verify_slicing(
            G, mask_of(range(5)), mask_of(range(5, 10)), Fraction(1, 3), 3, 3
        )


def test_verify_slicing_rejects_trials_below_one():
    G = circulant_bipartite(6, 2)
    A, B = mask_of(range(6)), mask_of(range(6, 12))
    for trials in (0, -5):
        with pytest.raises(ValueError, match="trials"):
            verify_slicing(G, A, B, Fraction(1, 3), 3, 3, trials=trials)


def test_verify_slicing_rejects_small_slices():
    G = complete_multipartite([6, 6])
    with pytest.raises(ValueError):
        verify_slicing(
            G, mask_of(range(6)), mask_of(range(6, 12)), Fraction(1, 2), 3, 3
        )


# ---------------------------------------------------------------------------
# partitions, density inequality
# ---------------------------------------------------------------------------

def test_round_robin_partition():
    parts = round_robin_partition(10, 3)
    assert is_equipartition(parts, (1 << 10) - 1)
    assert [p.bit_count() for p in parts] == [4, 3, 3]
    assert not is_equipartition([mask_of([0, 1, 2]), mask_of([3])], (1 << 4) - 1)
    assert not is_equipartition([mask_of([0, 1]), mask_of([1, 2, 3])], (1 << 4) - 1)


def naive_cross_edges(G, inner):
    total = 0
    ell = len(inner)
    for i in range(ell):
        for j in range(i + 1, ell):
            for u in range(G.n):
                for v in range(G.n):
                    if inner[i] >> u & 1 and inner[j] >> v & 1 and G.has_edge(u, v):
                        total += 1
    return total


def test_density_lemma_full_inner_parts():
    # inner = outer (restricted to equal size): densities match, no deviants
    rng = random.Random(41)
    G = random_graph(24, 0.5, rng)
    outer = round_robin_partition(24, 4)
    rep = check_density_lemma(G, outer, outer, HALF)
    assert rep.hypotheses_ok
    assert rep.deviant_pairs == 0
    assert rep.lhs == naive_cross_edges(G, outer)
    assert rep.conclusion_ok
    # rhs exactness: e(G) * l^2 L^2 / n^2 - 3 E l^2 L^2 with l=4, L=6, n=24
    assert rep.rhs == Fraction(G.edge_count() * 16 * 36, 576) - Fraction(3, 2) * 16 * 36


def test_density_lemma_scale_hypotheses():
    G = complete_graph(8)
    outer = round_robin_partition(8, 2)
    rep = check_density_lemma(G, outer, outer, Fraction(1, 4))
    # l=2 < 1/E=4 and l/n = 1/4 > E/2 = 1/8
    assert not rep.hypotheses_ok
    assert "l < 1/E" in rep.failures
    assert "l/n > E/2" in rep.failures


def test_density_lemma_deviant_hypothesis():
    # outer dense everywhere, inner parts chosen edgeless: both pairs deviant
    G = complete_multipartite([4, 4, 4])
    outer = [mask_of(range(0, 4)), mask_of(range(4, 8)), mask_of(range(8, 12))]
    inner = [mask_of([0]), mask_of([4]), mask_of([8])]
    G2 = graph_from_edges(12, [e for e in G.edges() if 0 not in e and 4 not in e and 8 not in e])
    rep = check_density_lemma(G2, outer, inner, Fraction(1, 2))
    assert rep.deviant_pairs == 3
    assert "deviant-pair count exceeds E*C(l,2)" in rep.failures


def test_density_lemma_validation():
    G = complete_graph(8)
    outer = round_robin_partition(8, 2)
    with pytest.raises(ValueError):
        check_density_lemma(G, outer, [outer[0]], HALF)  # length mismatch
    with pytest.raises(ValueError):
        check_density_lemma(G, outer, [mask_of([0]), mask_of([0])], HALF)  # overlap
    with pytest.raises(ValueError):
        check_density_lemma(G, outer, [mask_of([1]), mask_of([0])], HALF)  # containment
    with pytest.raises(ValueError):
        check_density_lemma(G, [outer[0], outer[0]], outer, HALF)  # not a partition
    for E in (0, Fraction(-1, 2)):  # 1/E would divide by zero, or l >= 1/E hold vacuously
        with pytest.raises(ValueError, match="E must be > 0"):
            check_density_lemma(G, outer, outer, E)


# ---------------------------------------------------------------------------
# constant schedule
# ---------------------------------------------------------------------------

def good_schedule(**overrides):
    base = dict(
        epsilon=Fraction(1, 100000),
        E0=Fraction(9, 1000000),
        E1=Fraction(1, 1000),
        eta=Fraction(1, 100),
        delta=Fraction(1, 20),
        gamma=Fraction(1, 1000),
        f=3,
        k=3,
        S0=1000,
        S1=100,
        m=1,
    )
    base.update(overrides)
    return ConstantSchedule(**base)


def test_constants_valid_schedule():
    valid, violations = validate_constants(good_schedule())
    assert valid and violations == []


def test_constants_each_inequality_label():
    cases = {
        "(2)": dict(delta=Fraction(1, 100000)),  # delta < 2*E0 + eps/3
        "(3)": dict(epsilon=Fraction(1, 10)),  # eps > 1/(S0*S1)
        "(5)": dict(E0=Fraction(101, 10000000)),  # E0*S1 > gamma, barely
    }
    for label, overrides in cases.items():
        valid, violations = validate_constants(good_schedule(**overrides))
        assert not valid and label in violations, label


def test_constants_inequality_4():
    # (4) needs E0 > delta/2 + eps while (2) may also break; check the label
    valid, violations = validate_constants(
        good_schedule(E0=Fraction(3, 10), delta=Fraction(1, 10), gamma=Fraction(99, 100),
                      S1=1)
    )
    assert "(4)" in violations


def test_constants_jumbleg_eps_check():
    valid, violations = validate_constants(good_schedule(), n=100)
    assert not valid and violations == ["jumbleg-eps"]
    big = good_schedule(epsilon=Fraction(2, 5), S0=2, S1=1, delta=Fraction(9, 10),
                        E0=Fraction(1, 10), gamma=Fraction(1, 2))
    valid, violations = validate_constants(big, n=10**9)
    assert valid, violations


def _exp_exceeds(q, n):
    """Whether exp(q) > n, for rational q >= 0 and integer n >= 2, by Taylor
    bounds in fixed point: exp(q) = exp(q / 2^k)^(2^k) with q / 2^k <= 1/2, the
    series of exp(q / 2^k) summed with floor (lower) and ceiling (upper)
    rounding, then squared k times, each bound rounded outward. The precision
    doubles until n falls outside the bounds; exp(q) is irrational for q > 0,
    so it never equals n and the loop ends."""
    k = 0
    while q > Fraction(1, 2) * 2**k:
        k += 1
    x, bits = q / 2**k, 64
    while True:
        one = 1 << bits
        x_lo, x_hi = math.floor(x * one), math.ceil(x * one)
        lo = t = one
        i = 1
        while t:  # every term rounded down, the tail left out
            t = t * x_lo // (i * one)
            lo, i = lo + t, i + 1
        hi = t = one
        i = 1
        while t > 1:  # every term rounded up
            t = -(-t * x_hi // (i * one))
            hi, i = hi + t, i + 1
        hi += 2  # the tail after a term of 1 is at most x / (1 - x) < 2
        for _ in range(k):
            lo, hi = lo * lo >> bits, -(-hi * hi >> bits)
        if lo > n * one or hi < n * one:
            return lo > n * one
        bits *= 2


@pytest.mark.parametrize("q, n, expected", [
    (Fraction(0), 2, False), (Fraction(1, 2), 2, False), (Fraction(7, 10), 2, True),
    (Fraction(3), 20, True), (Fraction(3), 21, False), (Fraction(27), 532_048_240_601, True),
    (Fraction(27), 532_048_240_602, False),
])
def test_exp_exceeds_oracle(q, n, expected):
    # ln 2 = 0.693..., e^3 = 20.08..., e^27 = 532048240601.79...
    assert _exp_exceeds(q, n) == expected


def float_jumbleg_eps(n):
    """The JumbleG threshold 2*(ln n / n)^(1/3) in floats: a start near the
    exact one, which the tests below step away from."""
    return 2.0 * (math.log(n) / n) ** (1 / 3)


@settings(max_examples=200, deadline=None)
@given(st.integers(27, 10**12), st.integers(-(2**12), 2**12))
# the float threshold itself at n = 30: n*eps^3/8 = 3.40119738166215520... lies
# below ln 30 = 3.40119738166215537..., which a float comparison missed
@example(30, 0)
def test_constants_jumbleg_eps_matches_an_exact_oracle(n, step):
    # eps within a few float ulps of the float threshold, which is below 1 for
    # n >= 27; (2) to (5) hold for every eps in (0, 1), so only jumbleg-eps can fail
    eps = Fraction(float_jumbleg_eps(n)) + Fraction(step, 2**62)
    assume(0 < eps < 1)
    meets = _exp_exceeds(n * eps**3 / 8, n)
    schedule = ConstantSchedule(epsilon=eps, E0=Fraction(1, 100), E1=Fraction(1, 10), eta=HALF,
                                delta=HALF, gamma=HALF, f=3, k=3, S0=1, S1=1, m=1)
    valid, violations = validate_constants(schedule, n=n)
    assert valid == meets
    assert violations == ([] if meets else ["jumbleg-eps"])


@pytest.mark.parametrize("n", [30, 1000, 10**9])
def test_jumbleg_eps_refines_past_the_first_precision(n):
    # the two 40-digit neighbours of the threshold put n*eps^3/8 within about
    # 1e-39 of ln n, closer than one unit in the last of 32 digits; they are
    # found by bisection on the oracle, from a bracket around the float threshold
    scale = 10**40
    meets = lambda digits: _exp_exceeds(n * Fraction(digits, scale) ** 3 / 8, n)
    guess = math.floor(Fraction(float_jumbleg_eps(n)) * scale)
    lo, hi = guess - 10**27, guess + 10**27
    assert not meets(lo) and meets(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if meets(mid) else (mid, hi)
    assert not _meets_jumbleg_eps(Fraction(lo, scale), n)
    assert _meets_jumbleg_eps(Fraction(hi, scale), n)


def test_constants_strict_e1():
    valid, violations = validate_constants(good_schedule(), strict_e1=True)
    assert valid  # E1 == gamma in the base schedule
    valid, violations = validate_constants(
        good_schedule(E1=Fraction(1, 999)), strict_e1=True
    )
    assert not valid and "E1!=gamma" in violations


def test_constants_domain_validation():
    with pytest.raises(ValueError):
        good_schedule(epsilon=Fraction(0))
    with pytest.raises(ValueError):
        good_schedule(delta=Fraction(3, 2))
    with pytest.raises(ValueError):
        good_schedule(f=0)
    with pytest.raises(ValueError):
        good_schedule(S0=-5)
