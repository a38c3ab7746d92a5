"""Exact solver: alpha-beta values, the bound-tagged symmetric memo,
budgets, best_move.

The oracle is a deliberately plain no-memo, no-relabelling, no-pruning
recursion over the claim tree with its own bitmask hit checks -- slower but
structurally independent of the solver's windows, canonicalization and undo
machinery. The canonical key has its own oracle: the minimum relabelled
claim string over all vertex permutations, built edge by edge.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgegames.engine import (
    BUILDER,
    OPPONENT,
    UNCLAIMED,
    GameRules,
    GameState,
    InducedSubgraphProperty,
    NotKColorableProperty,
    SubgraphProperty,
    apply_move,
)
from edgegames.graphs import complete_graph, edge_index, edge_pairs, graph_from_name, num_edges
from edgegames.harness import parse_property
from edgegames.solver import NEVER, _Search, _weights, best_move, canonical_claims, solve_tau
from test_engine import FullRecomputeInduced, undo


def triangle_rules(n):
    return GameRules(n=n, prop=SubgraphProperty([complete_graph(3)], "subgraph:K3"))


# ---------------------------------------------------------------------------
# oracle: plain minimax
# ---------------------------------------------------------------------------

def _has_odd_cycle(adj, n):
    color = [-1] * n
    for s in range(n):
        if color[s] >= 0:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            x = stack.pop()
            for y in range(n):
                if adj[x] >> y & 1:
                    if color[y] < 0:
                        color[y] = color[x] ^ 1
                        stack.append(y)
                    elif color[y] == color[x]:
                        return True
    return False


def oracle_value(n, hit, start=()):
    """Plain minimax from `start`, one claim code per edge id (the empty
    board by default): `hit(adj, u, v)` checks the builder's graph after a
    builder move on (u, v). Returns the game value (rounds or inf)."""
    pairs = edge_pairs(n)
    m = num_edges(n)
    claims = list(start) or [0] * m
    adj = [0] * n
    counts = [0, 0, 0]  # by claim code; counts[0] is unused
    for eid, c in enumerate(claims):
        counts[c] += 1
        if c == BUILDER:
            u, v = pairs[eid]
            adj[u] |= 1 << v
            adj[v] |= 1 << u

    def turn():
        return BUILDER if counts[BUILDER] == counts[OPPONENT] else OPPONENT

    def rec():
        if counts[BUILDER] + counts[OPPONENT] == m:
            return math.inf
        t = turn()
        best = -1 if t == BUILDER else math.inf
        for eid in range(m):
            if claims[eid]:
                continue
            u, v = pairs[eid]
            claims[eid] = t
            counts[t] += 1
            if t == BUILDER:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
                val = counts[BUILDER] if hit(adj, u, v) else rec()
                adj[u] &= ~(1 << v)
                adj[v] &= ~(1 << u)
                best = max(best, val)
            else:
                best = min(best, rec())
            counts[t] -= 1
            claims[eid] = 0
        return best

    return rec()


def triangle_hit(adj, u, v):
    return bool(adj[u] & adj[v])


def odd_cycle_hit(adj, u, v):
    return _has_odd_cycle(adj, len(adj))


def edge_hit(adj, u, v):
    return True


def c4_hit(adj, u, v):
    # some two vertices share two neighbours
    n = len(adj)
    return any(bin(adj[x] & adj[y]).count("1") >= 2 for x in range(n) for y in range(x))


ORACLE_HITS = {
    "edge": edge_hit,
    "subgraph:K3": triangle_hit,
    "nc:2": odd_cycle_hit,
    "subgraph:C4": c4_hit,
}


# ---------------------------------------------------------------------------
# values
# ---------------------------------------------------------------------------

def test_edge_game_is_always_round_one():
    # the family {K2}: the builder's first move hits, a leaf, so no node is
    # searched and the lowest id is the move
    for n in range(2, 8):
        res = solve_tau(GameRules(n=n, prop=parse_property("edge")))
        assert (res.value, res.t, res.nodes, res.best_move) == ("exact", 1, 0, 0)


def test_triangle_impossible_on_tiny_boards():
    # with the opponent answering, the builder can always dodge a triangle
    # on up to 4 vertices
    for n in (3, 4):
        res = solve_tau(triangle_rules(n))
        assert res.value == "never", n


def test_triangle_n5_matches_oracle():
    assert oracle_value(5, triangle_hit) == 5
    res = solve_tau(triangle_rules(5))
    assert res.value == "exact" and res.t == 5


def test_nc2_matches_oracle_n4():
    assert oracle_value(4, odd_cycle_hit) == math.inf
    res = solve_tau(GameRules(n=4, prop=NotKColorableProperty(2)))
    assert res.value == "never"


def test_nc2_n5():
    res = solve_tau(GameRules(n=5, prop=NotKColorableProperty(2)))
    assert res.value == "exact" and res.t == 5


@pytest.mark.parametrize(
    "n, prop, value, nodes",
    [
        (5, "subgraph:K3", 5, 314),
        (5, "nc:2", 5, 188),
        (6, "subgraph:K3", 7, 3_137),
        (6, "nc:2", 7, 2_877),
        # the embedding kernel, anchored, under the solver's claims and restores
        (6, "subgraph:C4", 7, 4_805),
        (6, "induced:C4", 8, 6_697),
        (6, "induced:P4", 7, 1_142),
        (6, "subgraph:C5", 8, 2_141),
    ],
)
def test_pinned_values_and_node_counts(n, prop, value, nodes):
    res = solve_tau(GameRules(n=n, prop=parse_property(prop)))
    assert (res.value, res.t, res.nodes) == ("exact", value, nodes)


def test_nc3_exact_recolouring_under_claim_and_undo():
    # nc:3 recolours exactly, with backtracking, whenever its kept colouring
    # breaks, and remembers the last graph that failed across undos; the
    # value and the node count pin that down
    res = solve_tau(GameRules(n=6, prop=parse_property("nc:3")))
    assert (res.value, res.t, res.nodes) == ("never", None, 1_409)


@pytest.mark.parametrize("name", ["P3", "P4", "C4", "Kpartite:1,2", "K3"])
def test_induced_anchored_solve_matches_full_recompute(name):
    F = graph_from_name(name)
    for n in (4, 5):
        a = solve_tau(GameRules(n=n, prop=InducedSubgraphProperty([F])))
        b = solve_tau(GameRules(n=n, prop=FullRecomputeInduced([F])))
        assert (a.value, a.t, a.nodes) == (b.value, b.t, b.nodes)


@pytest.mark.parametrize("prop", sorted(ORACLE_HITS))
def test_memo_bounds_are_sound(prop):
    # every memo entry (lo, hi) must bracket the oracle value of the position
    # its key spells: base 3, edge 0 the most significant digit
    hit = ORACLE_HITS[prop]
    for n in (4, 5):
        search = _Search(GameRules(n=n, prop=parse_property(prop)), None)
        search.best()
        m = search.m
        for key, (lo, hi) in search.memo.items():
            claims = [key // 3 ** (m - 1 - eid) % 3 for eid in range(m)]
            assert lo <= oracle_value(n, hit, claims) <= hi, (n, claims, lo, hi)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_no_hit_before_the_builders_next_move(data):
    # the a priori bound an unseen position starts at: from a reachable
    # position, the oracle value is at least the round of the builder's
    # next move, and so is every memo lo the search proves below it
    n = data.draw(st.integers(min_value=3, max_value=5))
    prop = data.draw(st.sampled_from(sorted(ORACLE_HITS)))
    hit = ORACLE_HITS[prop]
    state = GameState(GameRules(n=n, prop=parse_property(prop)))
    # two claims or more at n = 5 keep the oracle to a fraction of a second
    for _ in range(data.draw(st.integers(min_value=n - 3, max_value=num_edges(n)))):
        player = state.whose_turn()
        free = [e for e in range(state.m) if state.claims[e] == UNCLAIMED]
        if not free:
            break
        eid = data.draw(st.sampled_from(free))
        apply_move(state, player, eid)
        if player == BUILDER and state.rules.prop.hit_after_state(state, eid):
            undo(state, eid, player)
            break
    assert oracle_value(n, hit, state.claims) >= state.claims.count(BUILDER) + 1
    if state.whose_turn() is None:
        return
    search = _Search(state.rules, None, state.claims)
    search.best()
    m = search.m
    for key, (lo, hi) in search.memo.items():
        builder_claims = sum(key // 3 ** (m - 1 - eid) % 3 == BUILDER for eid in range(m))
        assert lo >= builder_claims + 1, (key, lo, hi)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_best_move_is_lowest_id_oracle_optimal(data):
    # a random position reached without a hit, then each legal move valued
    # by the oracle: best_move must name the lowest-id optimal one
    n = 5
    prop = data.draw(st.sampled_from(sorted(ORACLE_HITS)))
    hit = ORACLE_HITS[prop]
    state = GameState(GameRules(n=n, prop=parse_property(prop)))

    def hits(eid):
        adj = list(state.adj)
        u, v = state.us[eid], state.vs[eid]
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        return hit(adj, u, v)

    for _ in range(data.draw(st.integers(min_value=2, max_value=8))):
        player = state.whose_turn()
        free = [e for e in range(state.m) if state.claims[e] == UNCLAIMED]
        safe = [e for e in free if player == OPPONENT or not hits(e)]
        if not safe:
            break
        apply_move(state, player, data.draw(st.sampled_from(safe)))
    player = state.whose_turn()
    values = {}
    for eid in range(state.m):
        if state.claims[eid] != UNCLAIMED:
            continue
        if player == BUILDER and hits(eid):
            values[eid] = state.claims.count(BUILDER) + 1
        else:
            child = list(state.claims)
            child[eid] = player
            values[eid] = oracle_value(n, hit, child)
    target = (max if player == BUILDER else min)(values.values())
    assert best_move(state, player) == min(e for e, v in values.items() if v == target)


# ---------------------------------------------------------------------------
# canonicalization
# ---------------------------------------------------------------------------

def brute_canonical(claims, n) -> bytes:
    """Smallest relabelled claim string: position j of permutation p's string
    holds the claim on (p(u), p(v)), where (u, v) is edge j."""
    pairs = edge_pairs(n)
    return min(
        bytes(claims[edge_index(*sorted((p[u], p[v])), n)] for u, v in pairs)
        for p in itertools.permutations(range(n))
    )


def base3(digits: bytes) -> int:
    value = 0
    for d in digits:
        value = 3 * value + d
    return value


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_canonical_key_matches_brute_force(data):
    n = data.draw(st.integers(min_value=2, max_value=6))
    m = num_edges(n)
    claims = bytearray(data.draw(st.lists(st.sampled_from([0, 1, 2]), min_size=m, max_size=m)))
    expected = brute_canonical(claims, n)
    assert canonical_claims(claims, n) == expected
    # nc:n never holds on n vertices, so any claim map is a legal start
    search = _Search(GameRules(n=n, prop=NotKColorableProperty(n)), None, claims)
    assert int(search.key.min()) == base3(expected)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_incremental_key_through_claims_and_undos(data):
    # the search writes a child's key row from its parent's before valuing
    # it, and a hitting builder move writes none: at every valued position
    # the key must spell the canonical claim map, and after the search the
    # start position's row must still be its own
    n = data.draw(st.integers(min_value=3, max_value=5))
    prop = parse_property(data.draw(st.sampled_from(["subgraph:K3", "nc:2"])))
    state = GameState(GameRules(n=n, prop=prop))
    for _ in range(data.draw(st.integers(min_value=0, max_value=num_edges(n) - 1))):
        player = state.whose_turn()
        free = [e for e in range(state.m) if state.claims[e] == UNCLAIMED]
        eid = data.draw(st.sampled_from(free))
        apply_move(state, player, eid)
        if player == BUILDER and prop.hit_after_state(state, eid):
            undo(state, eid, player)
            break
    search = _Search(state.rules, None, state.claims)
    valued = []

    def value(depth, alpha, beta, real=search._value):
        valued.append((depth, int(search.keys[depth].min()), bytes(search.claims)))
        return real(depth, alpha, beta)

    search._value = value
    search.best()
    assert len(valued) == search.nodes
    for depth, key, claims in valued:
        assert depth == search.m - claims.count(UNCLAIMED)
        assert key == base3(brute_canonical(claims, n))
    assert bytes(search.claims) == bytes(state.claims)
    assert (search.key == np.frombuffer(search.claims, dtype=np.int8) @ _weights(n)).all()


class ScratchKeySearch(_Search):
    """The solver's alpha-beta with every memo key computed from scratch as
    the minimum of claims @ W, never from the per-depth key rows, and the
    full board and the a priori bound read off the node's claim bytes, not
    its depth."""

    def _value(self, depth, alpha, beta):
        self.nodes += 1
        if UNCLAIMED not in self.claims:
            return NEVER
        key = int((np.frombuffer(self.claims, dtype=np.int8) @ _weights(self.n)).min())
        lo, hi = self.memo.get(key) or (self.claims.count(BUILDER) + 1, NEVER)
        if lo == hi or lo >= beta:
            return lo
        if hi <= alpha:
            return hi
        alpha, beta = max(alpha, lo), min(beta, hi)
        val = self._best(depth, alpha, beta)[0]
        if val > alpha:
            lo = val
        if val < beta:
            hi = val
        self.memo[key] = (lo, hi)
        return val


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_key_rows_against_keys_from_scratch(data):
    # from a random start position: valuing a node's children writes only
    # deeper rows, a second best() repeats the first, and the search agrees
    # with one that computes each key from scratch, memo and node count too
    n = data.draw(st.integers(min_value=3, max_value=5))
    prop = parse_property(data.draw(st.sampled_from(["subgraph:K3", "nc:2"])))
    state = GameState(GameRules(n=n, prop=prop))
    for _ in range(data.draw(st.integers(min_value=0, max_value=num_edges(n) - 1))):
        player = state.whose_turn()
        free = [e for e in range(state.m) if state.claims[e] == UNCLAIMED]
        eid = data.draw(st.sampled_from(free))
        apply_move(state, player, eid)
        if player == BUILDER and prop.hit_after_state(state, eid):
            undo(state, eid, player)
            break
    search = _Search(state.rules, None, state.claims)
    shallower_rows_kept = []

    def value(depth, alpha, beta, real=search._value):
        before = search.keys[: depth + 1].copy()
        val = real(depth, alpha, beta)
        shallower_rows_kept.append((search.keys[: depth + 1] == before).all())
        return val

    search._value = value
    result = search.best()
    memo, nodes = dict(search.memo), search.nodes
    assert search.best() == result
    assert all(shallower_rows_kept) and len(shallower_rows_kept) == search.nodes
    scratch = ScratchKeySearch(state.rules, None, state.claims)
    assert scratch.best() == result
    assert (scratch.memo, scratch.nodes) == (memo, nodes)
    assert best_move(state, state.whose_turn()) == result[1]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_best_restores_the_start(data):
    # the search writes the claim bytes and the builder's masks of its own
    # board below the start and restores them: after best() the board, its
    # unclaimed total and the start's key row are what they were before
    n = data.draw(st.integers(min_value=3, max_value=5))
    prop = parse_property(data.draw(st.sampled_from(["subgraph:K3", "nc:2", "subgraph:C4"])))
    state = GameState(GameRules(n=n, prop=prop))
    for _ in range(data.draw(st.integers(min_value=0, max_value=num_edges(n) - 1))):
        player = state.whose_turn()
        free = [e for e in range(state.m) if state.claims[e] == UNCLAIMED]
        eid = data.draw(st.sampled_from(free))
        apply_move(state, player, eid)
        if player == BUILDER and prop.hit_after_state(state, eid):
            undo(state, eid, player)
            break
    search = _Search(state.rules, None, state.claims)
    before = (bytes(search.claims), list(search.adj), search.unclaimed)
    key = search.key.copy()
    search.best()
    assert (bytes(search.claims), search.adj, search.unclaimed) == before
    assert before == (bytes(state.claims), state.adj, state.unclaimed)
    assert (search.key == key).all()


@pytest.mark.parametrize(
    "moves",
    [
        [(BUILDER, (0, 1)), (BUILDER, (2, 3))],  # the builder two ahead
        [(OPPONENT, (0, 1))],  # the opponent ahead
        [(BUILDER, (0, 1)), (OPPONENT, (1, 2)), (OPPONENT, (2, 3))],
    ],
)
def test_best_refuses_a_start_alternate_play_cannot_reach(moves):
    # whose turn it is follows from the depth's parity, so a start off the
    # alternating sequence has no turn to search under
    claims = bytearray(num_edges(5))
    for player, (u, v) in moves:
        claims[edge_index(u, v, 5)] = player
    search = _Search(triangle_rules(5), None, claims)
    with pytest.raises(ValueError, match="alternate play"):
        search.best()
    assert search.nodes == 0


def reference_weights(n):
    """A reference build of the weight table: the permutations through a
    list, and the transpose of the gathered edge ids."""
    m = num_edges(n)
    perms = np.array(list(itertools.permutations(range(n))))
    pairs = np.array(edge_pairs(n)).reshape(m, 2)
    us, vs = pairs[:, 0], pairs[:, 1]
    eid = np.zeros((n, n), dtype=np.int64)
    eid[us, vs] = eid[vs, us] = np.arange(m)
    return 3 ** (m - 1 - eid[perms[:, us], perms[:, vs]].T)


@pytest.mark.parametrize("n", range(2, 8))
def test_weight_table_is_contiguous_read_only_and_matches_the_reference(n):
    W = _weights(n)
    assert W.flags.c_contiguous and not W.flags.writeable
    ref = reference_weights(n)
    assert W.dtype == ref.dtype and np.array_equal(W, ref)


def test_canonical_claims_permutation_invariant():
    import random

    rng = random.Random(4)
    n = 5
    pairs = edge_pairs(n)
    for _ in range(20):
        claims = bytearray(rng.choice([0, 0, 1, 2]) for _ in range(len(pairs)))
        base = canonical_claims(claims, n)
        p = list(range(n))
        rng.shuffle(p)
        relabeled = bytearray(len(pairs))
        for eid, (u, v) in enumerate(pairs):
            pu, pv = p[u], p[v]
            if pu > pv:
                pu, pv = pv, pu
            relabeled[edge_index(pu, pv, n)] = claims[eid]
        assert canonical_claims(relabeled, n) == base


def test_canonicalization_size_cap():
    with pytest.raises(ValueError):
        canonical_claims(bytearray(num_edges(8)), 8)
    with pytest.raises(ValueError):
        solve_tau(triangle_rules(8))


# ---------------------------------------------------------------------------
# budget and best_move
# ---------------------------------------------------------------------------

def test_budget_exhaustion_is_reported():
    res = solve_tau(triangle_rules(5), budget=50)
    assert res.value == "unknown" and res.t is None
    assert res.nodes >= 50


def test_exhausted_budget_reports_exactly_the_nodes_valued():
    # the budget is checked before a node is counted: a run that stops
    # reports budget nodes, and one that needs exactly budget nodes ends
    for budget in range(41):
        res = solve_tau(triangle_rules(5), budget=budget)
        assert (res.value, res.nodes, res.best_move) == ("unknown", budget, None)
    res = solve_tau(triangle_rules(5), budget=314)
    assert (res.value, res.t, res.nodes) == ("exact", 5, 314)


def test_best_move_avoids_immediate_loss():
    # builder holds (0,1) and (0,2); a move on (1,2) completes the triangle.
    # nc/first checks: best_move for the builder must not pick (1,2) when a
    # safe alternative with equal value exists -- here every alternative is
    # "never" on n=4, while (1,2) is an immediate hit.
    state = GameState(triangle_rules(4))
    for player, (u, v) in zip([BUILDER, OPPONENT] * 2, [(0, 1), (2, 3), (0, 2), (0, 3)]):
        apply_move(state, player, edge_index(u, v, 4))
    mv = best_move(state, BUILDER)
    assert mv != edge_index(1, 2, 4)
    # and the game value from here is never
    apply_move(state, BUILDER, mv)


def test_best_move_enforcer_minimizes():
    # n=5 triangle game value is 5 with optimal play; after the builder's
    # first move the enforcer's reply must preserve value <= 5
    state = GameState(triangle_rules(5))
    apply_move(state, BUILDER, edge_index(0, 1, 5))
    mv = best_move(state, OPPONENT)
    apply_move(state, OPPONENT, mv)
    # finish the game: builder plays optimally from here on
    while state.whose_turn() is not None:
        player = state.whose_turn()
        m = best_move(state, player)
        apply_move(state, player, m)
        if player == BUILDER and state.rules.prop.hit_after_state(state, m):
            break
    assert state.claims.count(BUILDER) <= 5


def test_property_already_held_at_start_is_rejected():
    # K1 is in every graph, so the empty board already has the property
    with pytest.raises(ValueError):
        solve_tau(GameRules(n=4, prop=SubgraphProperty([complete_graph(1)], "subgraph:K1")))
    state = GameState(triangle_rules(5))
    for move in [(0, 1), (3, 4), (0, 2), (2, 4), (1, 2), (1, 4)]:
        apply_move(state, state.whose_turn(), edge_index(*move, 5))  # builder now holds 0-1-2
    with pytest.raises(ValueError):
        best_move(state, BUILDER)


def test_best_move_turn_check():
    state = GameState(triangle_rules(4))
    with pytest.raises(ValueError):
        best_move(state, OPPONENT)


def test_solver_result_best_move_is_optimal():
    res = solve_tau(triangle_rules(5))
    state = GameState(triangle_rules(5))
    apply_move(state, BUILDER, res.best_move)  # must at least be legal


def test_never_is_largest():
    assert NEVER > 10**9
    assert max(3, NEVER) == NEVER
