"""Graph core: edge indexing, counting, containment, coloring, Turan machinery.

Derived expectations are computed by independent brute-force oracles kept in
this file (naive double loops, exhaustive subset enumeration, a minimum
clique-edge-cover search for Turan numbers) rather than by the code under test.
"""

import bisect
import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import edgegames.graphs as graphs
from edgegames.graphs import (
    MAX_N,
    Graph,
    chromatic_number,
    complete_graph,
    complete_multipartite,
    contains_induced,
    contains_subgraph,
    contains_subgraph_with_edge,
    cycle_graph,
    density,
    edge_index,
    edge_of,
    edges_between,
    empty_graph,
    graph_from_edges,
    graph_from_name,
    graph_from_text,
    graph_to_text,
    is_k_colorable,
    k_coloring,
    mask_of,
    path_graph,
    petersen_graph,
    turan_bounds,
    turan_graph,
    turan_number,
)


def random_graph(n, p, rng):
    return graph_from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    )


# ---------------------------------------------------------------------------
# edge indexing
# ---------------------------------------------------------------------------

def test_edge_index_examples():
    assert edge_index(0, 1, 4) == 0
    assert edge_index(2, 3, 4) == 5


def test_edge_index_roundtrip_n10():
    for u in range(10):
        for v in range(u + 1, 10):
            assert edge_of(edge_index(u, v, 10), 10) == (u, v)


def test_edge_index_bijection_all_n_up_to_64():
    for n in range(2, 65):
        m = n * (n - 1) // 2
        seen = {edge_index(u, v, n) for u in range(n) for v in range(u + 1, n)}
        assert seen == set(range(m))


def test_edge_of_inverts_edge_index_all_n_up_to_64():
    for n in range(2, 65):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        assert [edge_of(edge_index(u, v, n), n) for u, v in pairs] == pairs


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=2, max_value=2000), st.data())
def test_edge_of_matches_edge_index_large_n(n, data):
    i = data.draw(st.integers(min_value=0, max_value=n * (n - 1) // 2 - 1))
    u, v = edge_of(i, n)
    assert 0 <= u < v < n
    assert edge_index(u, v, n) == i


def test_edge_of_rejects_out_of_range_ids():
    for n, i in ((4, -1), (4, 6), (2, 1), (1, 0), (0, 0)):
        with pytest.raises(ValueError):
            edge_of(i, n)


def test_edge_index_rejects_bad_edges():
    with pytest.raises(ValueError):
        edge_index(1, 1, 4)
    with pytest.raises(ValueError):
        edge_index(2, 1, 4)
    with pytest.raises(ValueError):
        edge_index(0, 4, 4)


# ---------------------------------------------------------------------------
# edges_between / density
# ---------------------------------------------------------------------------

def naive_edges_between(G, S, T):
    return sum(
        1
        for u in range(G.n)
        for v in range(G.n)
        if S >> u & 1 and T >> v & 1 and G.has_edge(u, v)
    )


def test_edges_between_k4():
    assert edges_between(complete_graph(4), mask_of([0, 1]), mask_of([2, 3])) == 4


def test_edges_between_empty():
    assert edges_between(empty_graph(6), mask_of([0, 1]), mask_of([4, 5])) == 0


def test_edges_between_matches_naive_loop():
    rng = random.Random(12)
    for _ in range(30):
        G = random_graph(12, 0.5, rng)
        verts = rng.sample(range(12), 8)
        S, T = mask_of(verts[:4]), mask_of(verts[4:])
        assert edges_between(G, S, T) == naive_edges_between(G, S, T)


def test_edges_between_rejects_overlap():
    with pytest.raises(ValueError):
        edges_between(complete_graph(4), mask_of([0, 1]), mask_of([1, 2]))


def test_density_extremes():
    G = complete_multipartite([2, 2])
    A, B = mask_of([0, 1]), mask_of([2, 3])
    assert density(G, A, B) == 1
    assert density(empty_graph(4), A, B) == 0
    assert density(complete_graph(4), A, B) == 1


def test_density_rejects_empty_side():
    with pytest.raises(ValueError):
        density(complete_graph(4), 0, mask_of([2, 3]))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**30), st.data())
def test_density_times_sizes_is_edge_count(seed, data):
    rng = random.Random(seed)
    G = random_graph(10, 0.5, rng)
    verts = rng.sample(range(10), 6)
    A, B = mask_of(verts[:3]), mask_of(verts[3:])
    assert density(G, A, B) * 3 * 3 == edges_between(G, A, B)


# ---------------------------------------------------------------------------
# subgraph containment
# ---------------------------------------------------------------------------

def exhaustive_contains(G, F, induced):
    """Independent oracle: scan all vertex tuples."""
    for sub in itertools.permutations(range(G.n), F.n):
        ok = True
        for a in range(F.n):
            for b in range(a + 1, F.n):
                fe = F.has_edge(a, b)
                ge = G.has_edge(sub[a], sub[b])
                if (induced and fe != ge) or (not induced and fe and not ge):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return sub
    return None


def check_witness(G, F, witness, induced):
    assert len(set(witness)) == F.n
    for a in range(F.n):
        for b in range(a + 1, F.n):
            if F.has_edge(a, b):
                assert G.has_edge(witness[a], witness[b])
            elif induced:
                assert not G.has_edge(witness[a], witness[b])


def test_k3_in_k4():
    w = contains_subgraph(complete_graph(4), complete_graph(3))
    assert w is not None
    check_witness(complete_graph(4), complete_graph(3), w, induced=False)


def test_no_triangle_in_c4():
    assert contains_subgraph(cycle_graph(4), complete_graph(3)) is None


def test_c5_in_random_g20_matches_exhaustive():
    rng = random.Random(99)
    G = random_graph(20, 0.5, rng)
    F = cycle_graph(5)
    mine = contains_subgraph(G, F)
    oracle = exhaustive_contains(G, F, induced=False)
    assert (mine is None) == (oracle is None)
    if mine is not None:
        check_witness(G, F, mine, induced=False)


def test_induced_k3_in_k4():
    w = contains_induced(complete_graph(4), complete_graph(3))
    assert w is not None


def test_no_induced_path_in_k4():
    assert contains_induced(complete_graph(4), path_graph(3)) is None


def test_induced_matches_exhaustive_small():
    rng = random.Random(5)
    for _ in range(40):
        G = random_graph(7, 0.4, rng)
        F = random_graph(4, 0.5, rng)
        mine = contains_induced(G, F)
        oracle = exhaustive_contains(G, F, induced=True)
        assert (mine is None) == (oracle is None)
        if mine is not None:
            check_witness(G, F, mine, induced=True)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**30))
def test_induced_implies_subgraph(seed):
    rng = random.Random(seed)
    G = random_graph(rng.randrange(4, 11), 0.5, rng)
    F = random_graph(rng.randrange(2, 5), 0.5, rng)
    if contains_induced(G, F) is not None:
        assert contains_subgraph(G, F) is not None


def test_embedding_past_the_recursion_limit():
    # a matcher recursing once per pattern vertex died on a 1000-vertex path
    P = path_graph(1000)
    w = contains_subgraph(P, P)
    assert w is not None
    check_witness(P, P, w, induced=False)
    w = contains_subgraph_with_edge(P, P, 0, 1)
    assert w is not None
    check_witness(P, P, w, induced=False)
    assert any({w[a], w[b]} == {0, 1} for a, b in P.edges())


# ---------------------------------------------------------------------------
# coloring
# ---------------------------------------------------------------------------

def brute_force_colorable(G, k):
    return any(
        all(colors[u] != colors[v] for u, v in G.edges())
        for colors in itertools.product(range(k), repeat=G.n)
    )


def test_c5_not_2_colorable():
    assert not is_k_colorable(cycle_graph(5), 2)


def test_cliques_need_all_colors():
    for k in range(1, 5):
        assert not is_k_colorable(complete_graph(k + 1), k)
        assert is_k_colorable(complete_graph(k + 1), k + 1)


def test_petersen_3_colorable_matches_brute_force():
    G = petersen_graph()
    assert brute_force_colorable(G, 3)
    assert is_k_colorable(G, 3)
    witness = k_coloring(G, 3)
    assert max(witness) + 1 <= 3
    assert all(witness[u] != witness[v] for u, v in G.edges())


def test_coloring_matches_brute_force_random():
    rng = random.Random(3)
    for _ in range(25):
        G = random_graph(7, 0.5, rng)
        for k in (2, 3):
            assert is_k_colorable(G, k) == brute_force_colorable(G, k)


def test_clique_blocks_coloring():
    rng = random.Random(8)
    for _ in range(20):
        G = random_graph(8, 0.6, rng)
        for k in (2, 3):
            if contains_subgraph(G, complete_graph(k + 1)) is not None:
                assert not is_k_colorable(G, k)


def test_chromatic_number_examples():
    assert chromatic_number(cycle_graph(5)) == 3
    assert chromatic_number(complete_graph(4)) == 4
    assert chromatic_number(empty_graph(3)) == 1


def test_chromatic_number_counts_down_with_one_failed_search(monkeypatch):
    # DSATUR's first descent colours K300 with 300 colours and the one
    # backtracking search, for 299, fails; counting up from 1 ran 297 failed
    # ones, and no two-colour test runs first
    searches = []

    def counted(G, k):
        searches.append((k, is_k_colorable(G, k)))
        return searches[-1][1]

    monkeypatch.setattr(graphs, "is_k_colorable", counted)
    start = time.perf_counter()
    assert chromatic_number(complete_graph(300)) == 300
    assert time.perf_counter() - start < 1.0
    assert searches == [(299, False)]


def brute_force_chi(G):
    """The fewest independent sets that cover V(G), by a DP over every
    vertex subset S and every independent subset of S holding its lowest
    vertex."""
    full = 1 << G.n
    independent = [
        all(not S >> u & 1 or not G.adj[u] & S for u in range(G.n)) for S in range(full)
    ]
    best = [0] + [G.n] * (full - 1)
    for S in range(1, full):
        low, T = S & -S, S
        while T:
            if T & low and independent[T]:
                best[S] = min(best[S], best[S ^ T] + 1)
            T = (T - 1) & S
    return best[-1]


@st.composite
def small_graphs(draw, max_n=8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = list(itertools.combinations(range(n), 2))
    p = draw(st.sampled_from([0.2, 0.5, 0.8]))
    keep = draw(st.lists(st.floats(0, 1), min_size=len(pairs), max_size=len(pairs)))
    return graph_from_edges(n, [e for e, x in zip(pairs, keep) if x < p])


def assert_proper_classes(G, classes, k):
    """At most k disjoint independent classes that cover V(G)."""
    assert len(classes) <= k
    assert sum(C.bit_count() for C in classes) == G.n
    cover = 0
    for C in classes:
        cover |= C
        assert not any(G.adj[w] & C for w in range(G.n) if C >> w & 1)
    assert cover == (1 << G.n) - 1


# Graphs whose first DSATUR descent misses a colouring that exists, so
# the exact search must backtrack; random graphs this small rarely do.
FIRST_DESCENT_MISSES = [
    (graph_from_edges(8, [(0, 1), (0, 5), (0, 7), (1, 2), (1, 5), (1, 6), (2, 3), (2, 6),
                          (3, 5), (3, 7), (6, 7)]), 3),
    (graph_from_edges(8, [(0, 1), (0, 2), (0, 3), (0, 5), (1, 3), (1, 5), (1, 6), (2, 3),
                          (2, 4), (2, 5), (2, 6), (2, 7), (3, 6), (4, 5), (4, 6), (4, 7),
                          (5, 7), (6, 7)]), 4),
]


@settings(max_examples=300, deadline=None)
@given(small_graphs(), st.integers(min_value=1, max_value=5))
@example(*FIRST_DESCENT_MISSES[0])
@example(*FIRST_DESCENT_MISSES[1])
def test_colouring_kernel_against_brute_force(G, k):
    # exact: None exactly when no k-colouring exists; the first descent
    # alone may miss one but never returns an improper colouring
    chi = brute_force_chi(G)
    exact = graphs._colouring(G.adj, k, exact=True)
    assert (exact is None) == (chi > k)
    if exact is not None:
        assert_proper_classes(G, exact, k)
    first = graphs._colouring(G.adj, k)
    if first is not None:
        assert_proper_classes(G, first, k)
    assert chromatic_number(G) == chi
    witness = k_coloring(G, k)
    assert (witness is None) == (chi > k)
    if witness is not None:
        assert all(0 <= c < k for c in witness)
        assert all(witness[u] != witness[v] for u, v in G.edges())


@pytest.mark.parametrize("G, k", FIRST_DESCENT_MISSES)
def test_exact_colouring_backtracks_past_a_failed_first_descent(G, k):
    assert graphs._colouring(G.adj, k) is None
    assert_proper_classes(G, graphs._colouring(G.adj, k, exact=True), k)


def scan_colouring(adj, k, exact=False):
    """`graphs._colouring` as it was with a linear scan for the DSATUR pick,
    kept as the oracle of the level masks: the uncoloured vertex of highest
    rank, n * (colours seen) + degree, and the lowest label among equals."""
    n = len(adj)
    if k <= 2:
        return graphs._colouring(adj, k, exact)
    classes, seen, near = [0] * k, [0] * n, [0] * k
    rank = [a.bit_count() for a in adj]
    left = list(range(n))
    every, used, stack = (1 << k) - 1, 0, []
    while left:
        w = max(left, key=rank.__getitem__)
        untried = every & ~seen[w] & ((2 << used) - 1)
        while not untried:
            if not exact or not stack:
                return None
            w, c, untried, newly = stack.pop()
            i = c.bit_length() - 1
            classes[i] ^= 1 << w
            if not classes[i]:
                used = i
            near[i] ^= newly
            for x in graphs.bits(newly):
                seen[x] ^= c
                rank[x] -= n
            bisect.insort(left, w)
        c = untried & -untried
        i = c.bit_length() - 1
        classes[i] |= 1 << w
        used = max(used, i + 1)
        newly = adj[w] & ~near[i]
        near[i] |= newly
        for x in graphs.bits(newly):
            seen[x] |= c
            rank[x] += n
        left.remove(w)
        stack.append((w, c, untried ^ c, newly))
    return classes


@settings(max_examples=400, deadline=None)
@given(small_graphs(max_n=14), st.integers(min_value=1, max_value=6), st.booleans())
@example(*FIRST_DESCENT_MISSES[0], True)
@example(*FIRST_DESCENT_MISSES[1], True)
def test_colouring_level_pick_matches_the_scan(G, k, exact):
    # the same classes, or the same None, as the scan for every k, and for
    # the uncapped first descent that greedy_coloring runs (k = n)
    assert graphs._colouring(G.adj, k, exact) == scan_colouring(G.adj, k, exact)
    assert graphs._colouring(G.adj, G.n) == scan_colouring(G.adj, G.n)


def test_colouring_past_the_recursion_limit():
    # a crown graph (K_{4,4} minus a perfect matching, sides interleaved so
    # that a degree-order greedy needs 4 colours) padded with isolated
    # vertices to 1100: a backtracker recursing once per vertex died here
    G = graph_from_edges(1100, [(2 * i, 2 * j + 1) for i in range(4) for j in range(4) if i != j])
    assert is_k_colorable(G, 2)
    assert chromatic_number(G) == 2
    assert chromatic_number(cycle_graph(1101)) == 3


def test_exact_colouring_does_not_backtrack_across_components():
    # K4 beside six disjoint stars K_{1,5}: DSATUR colours the stars first
    # (their centres have the higher degree), then fails on K4. Backtracking
    # into the finished stars cost a factor per star: 3 stars took about
    # 10 s, and 4 ran past 60 s
    edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    for s in range(6):
        centre = 4 + 6 * s
        edges += [(centre, centre + i) for i in range(1, 6)]
    G = graph_from_edges(40, edges)
    start = time.perf_counter()
    assert k_coloring(G, 3) is None
    assert chromatic_number(G) == 4
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# Turan machinery
# ---------------------------------------------------------------------------

def min_clique_cover_edges(n, k):
    """Minimum number of K_n edges meeting every K_{k+1}; exact branch and bound.

    t(n,k) = C(n,2) - this value, which is an oracle independent of the
    closed formula.
    """
    cliques = [
        frozenset(itertools.combinations(c, 2))
        for c in itertools.combinations(range(n), k + 1)
    ]
    all_edges = list(itertools.combinations(range(n), 2))

    # greedy upper bound first
    def greedy():
        chosen = set()
        remaining = [c for c in cliques]
        while remaining:
            counts = {}
            for c in remaining:
                for e in c:
                    counts[e] = counts.get(e, 0) + 1
            e_best = max(counts, key=lambda e: (counts[e], e))
            chosen.add(e_best)
            remaining = [c for c in remaining if e_best not in c]
        return chosen

    best = [len(greedy())]

    def bnb(chosen, remaining):
        if not remaining:
            best[0] = min(best[0], len(chosen))
            return
        if len(chosen) + 1 >= best[0]:
            return
        target = remaining[0]
        for e in sorted(target):
            rest = [c for c in remaining if e not in c]
            bnb(chosen | {e}, rest)

    bnb(set(), cliques)
    return best[0]


def oracle_turan(n, k):
    if k >= n:
        return n * (n - 1) // 2
    return n * (n - 1) // 2 - min_clique_cover_edges(n, k)


def test_turan_k1_is_zero():
    for n in range(0, 20):
        assert turan_number(n, 1) == 0


def test_turan_5_2_brute_force_all_graphs():
    # exhaustive over all 2^10 graphs on 5 vertices
    best = 0
    pairs = list(itertools.combinations(range(5), 2))
    for bitsmask in range(1 << 10):
        edges = [pairs[i] for i in range(10) if bitsmask >> i & 1]
        G = graph_from_edges(5, edges)
        if contains_subgraph(G, complete_graph(3)) is None:
            best = max(best, len(edges))
    assert best == 6
    assert turan_number(5, 2) == 6


def test_turan_6_3_partite_maximization():
    best = 0
    for a in range(7):
        for b in range(7 - a):
            c = 6 - a - b
            best = max(best, a * b + a * c + b * c)
    assert best == 12
    assert turan_number(6, 3) == 12


def test_turan_matches_clique_cover_oracle():
    for n in range(2, 8):
        for k in (1, 2, 3):
            assert turan_number(n, k) == oracle_turan(n, k), (n, k)


def test_turan_sandwich():
    for k in range(1, 11):
        for n in range(0, 500):
            t = turan_number(n, k)
            main = Fraction(k - 1, k) * n * n / 2
            assert main - Fraction(k, 8) <= t <= main, (n, k)


def test_turan_graph_examples():
    assert turan_graph(4, 2).edge_count() == 4
    assert turan_graph(5, 2).edge_count() == 6
    assert turan_graph(6, 3).edge_count() == 12


def cross_pair_graph(part):
    """The graph joining every two vertices in different parts, listed
    pair by pair: the reference for the multipartite builders."""
    n = len(part)
    return graph_from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if part[u] != part[v]])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 6), max_size=7), st.integers(0, 30), st.integers(1, 40))
@example([0, 3, 0, 0, 2, 0], 3, 5)  # empty parts, and k > n
@example([], 0, 1)
def test_multipartite_builders_match_the_cross_pair_lists(sizes, n, k):
    part = [i for i, size in enumerate(sizes) for _ in range(size)]
    G = complete_multipartite(sizes)
    assert G == cross_pair_graph(part) == checked(G)
    T = turan_graph(n, k)
    assert T == cross_pair_graph([i % k for i in range(n)]) == checked(T)


def test_multipartite_builders_build_one_mask_per_part():
    # listing the cross pairs took 0.4-0.55 s for Kpartite:1000,1000 and
    # 0.15-0.24 s for turan_graph(1000, 3) on a 2-core x86-64 VM
    start = time.perf_counter()
    G, T = graph_from_name("Kpartite:1000,1000"), turan_graph(1000, 3)
    assert time.perf_counter() - start < 0.05
    assert G.adj[0] == G.adj[999] == ((1 << 1000) - 1) << 1000 and G.edge_count() == 10**6
    assert T.edge_count() == turan_number(1000, 3) and T.adj[3] == T.adj[996]


def test_turan_graph_is_extremal_and_clique_free():
    # absence proofs get slow fast; keep the clique search range modest
    for n in range(1, 15):
        for k in range(1, 5):
            T = turan_graph(n, k)
            assert T.edge_count() == turan_number(n, k)
            if k + 1 <= n:
                assert contains_subgraph(T, complete_graph(k + 1)) is None


def test_turan_graph_colorable():
    for n in range(2, 19, 4):
        for k in range(1, 6):
            assert is_k_colorable(turan_graph(n, k), k)


def test_turan_rejects_k0():
    with pytest.raises(ValueError):
        turan_number(5, 0)
    with pytest.raises(ValueError):
        turan_graph(5, 0)


def test_theorem_bounds():
    # a family of minimum chromatic number k
    assert turan_bounds(100, 3) == (1250, Fraction(1250))
    assert turan_bounds(4, 3)[0] == 2  # t(4,2) = 4
    with pytest.raises(ValueError):
        turan_bounds(10, 1)


def test_nc_theorem_bounds():
    # nc:k takes the family bound at k + 1
    assert turan_bounds(100, 2) == (0, Fraction(0))  # nc:1
    lower, upper = turan_bounds(100, 3)  # nc:2
    assert lower == 1250 and upper == 1250


# ---------------------------------------------------------------------------
# text format and generators
# ---------------------------------------------------------------------------

def test_text_roundtrip():
    G = petersen_graph()
    assert graph_from_text(graph_to_text(G)) == G


def test_text_errors():
    with pytest.raises(ValueError):
        graph_from_text("3 1\n1 0\n")  # u >= v
    with pytest.raises(ValueError):
        graph_from_text("3 2\n0 1\n")  # wrong count
    with pytest.raises(ValueError):
        graph_from_text("")


def test_text_repeated_edge_line():
    with pytest.raises(ValueError, match="repeated edge line: '0 1'"):
        graph_from_text("3 2\n0 1\n0 1\n")


def test_parsers_reject_graphs_above_max_n():
    assert MAX_N == 2000
    assert graph_from_name("P2000").n == 2000
    for name in ("K2001", "C2001", "P2001", "Kpartite:1000,1001", "K1000000000"):
        with pytest.raises(ValueError, match="graph needs n <= 2000"):
            graph_from_name(name)
    # the header is checked before any row is built
    with pytest.raises(ValueError, match="graph needs n <= 2000, got 1000000000000"):
        graph_from_text("1000000000000 0\n")


def test_named_generators():
    assert graph_from_name("K4") == complete_graph(4)
    assert graph_from_name("C5") == cycle_graph(5)
    assert graph_from_name("P3") == path_graph(3)
    assert graph_from_name("Kpartite:2,2,2") == complete_multipartite([2, 2, 2])
    assert graph_from_name("petersen").edge_count() == 15
    with pytest.raises(ValueError):
        graph_from_name("Q3")


def test_graph_invariants():
    G = petersen_graph()
    assert sum(row.bit_count() for row in G.adj) == 2 * G.edge_count()
    with pytest.raises(ValueError):
        Graph(2, (1, 0))  # self loop at vertex 0
    with pytest.raises(ValueError):
        Graph(2, (2, 0))  # asymmetric


def checked(G):
    """G rebuilt through Graph's full check, which raises on a bad row."""
    return Graph(G.n, tuple(G.adj))


def test_generators_pass_the_full_check():
    # the builders skip Graph's per-bit check, so their rows must pass it
    assert checked(petersen_graph()) == petersen_graph()
    for n in range(41):
        named = [complete_graph(n), path_graph(n), empty_graph(n), graph_from_name("K%d" % n)]
        named += [cycle_graph(n) for _ in range(n >= 3)]
        named += [turan_graph(n, k) for k in range(1, 6)]
        named += [complete_multipartite([n // 3, n - n // 3]), complete_multipartite([1] * n)]
        named += [graph_from_text(graph_to_text(G)) for G in named]
        for G in named:
            assert checked(G) == G
    with pytest.raises(ValueError, match="negative vertex count"):
        graph_from_edges(-1, [])
    with pytest.raises(ValueError, match="negative shift count"):
        complete_graph(-1)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_graph_from_edges_passes_the_full_check(data):
    n = data.draw(st.integers(min_value=0, max_value=40))
    vertex = st.integers(min_value=0, max_value=max(n - 1, 0))
    pair = st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1])
    edges = data.draw(st.lists(pair, max_size=3 * n)) if n >= 2 else []
    G = graph_from_edges(n, edges)
    assert checked(G) == G
    assert set(G.edges()) == {(min(e), max(e)) for e in edges}
