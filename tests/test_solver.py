"""Exact solver: minimax values, symmetry memoization, budgets, best_move.

The oracle is a deliberately plain no-memo, no-symmetry recursion over the
claim tree with its own bitmask hit checks -- slower but structurally
independent of the solver's canonicalization and undo machinery. The
canonical key has its own oracle: the minimum relabelled claim string over
all vertex permutations, built edge by edge.
"""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgegames import (
    BUILDER,
    GameRules,
    GameState,
    HasEdgeProperty,
    InducedSubgraphProperty,
    NotKColorableProperty,
    OPPONENT,
    SubgraphProperty,
    apply_move,
    best_move,
    complete_graph,
    graph_from_name,
    parse_property,
    solve_tau,
)
from edgegames.solver import NEVER, _Search, canonical_claims
from edgegames.graphs import edge_index, edge_pairs, num_edges
from test_engine import FullRecomputeInduced


def triangle_rules(n, **kw):
    return GameRules(n=n, prop=SubgraphProperty([complete_graph(3)], "subgraph:K3"), **kw)


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


def oracle_value(n, hit, first=BUILDER):
    """Plain minimax: `hit(adj, u, v)` checks the builder's graph after a
    builder move on (u, v). Returns the game value (rounds or inf)."""
    pairs = edge_pairs(n)
    m = num_edges(n)
    claims = [0] * m
    adj = [0] * n
    counts = [0, 0, 0]

    def turn():
        second = OPPONENT if first == BUILDER else BUILDER
        return first if counts[first] == counts[second] else second

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


# ---------------------------------------------------------------------------
# values
# ---------------------------------------------------------------------------

def test_edge_game_is_always_round_one():
    for n in range(2, 7):
        res = solve_tau(GameRules(n=n, prop=HasEdgeProperty()))
        assert res.value == "exact" and res.t == 1


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


def test_opponent_first_matches_oracle():
    assert oracle_value(4, triangle_hit, first=OPPONENT) == math.inf
    res = solve_tau(triangle_rules(4, first_mover=OPPONENT))
    assert res.value == "never"
    # edge game, opponent first: builder still hits at its first move
    res2 = solve_tau(GameRules(n=3, prop=HasEdgeProperty(), first_mover=OPPONENT))
    assert res2.value == "exact" and res2.t == 1


@pytest.mark.parametrize(
    "n, prop, value, nodes",
    [
        (5, "subgraph:K3", 5, 542),
        (6, "subgraph:K3", 7, 15_299),
        (6, "nc:2", 7, 14_273),
    ],
)
def test_pinned_values_and_node_counts(n, prop, value, nodes):
    res = solve_tau(GameRules(n=n, prop=parse_property(prop)))
    assert (res.value, res.t, res.nodes) == ("exact", value, nodes)


@pytest.mark.parametrize("name", ["P3", "P4", "C4", "Kpartite:1,2", "K3"])
def test_induced_anchored_solve_matches_full_recompute(name):
    F = graph_from_name(name)
    for n in (4, 5):
        a = solve_tau(GameRules(n=n, prop=InducedSubgraphProperty([F])))
        b = solve_tau(GameRules(n=n, prop=FullRecomputeInduced([F])))
        assert (a.value, a.t, a.nodes) == (b.value, b.t, b.nodes)


def test_symmetry_off_agrees():
    for n in (3, 4):
        a = solve_tau(triangle_rules(n), symmetry=True)
        b = solve_tau(triangle_rules(n), symmetry=False)
        assert (a.value, a.t) == (b.value, b.t)
        assert b.nodes >= a.nodes  # memoization can only prune


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
    search = _Search(GameRules(n=n, prop=NotKColorableProperty(n)), None, True, claims)
    assert int(search.key.min()) == base3(expected)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_incremental_key_through_claims_and_undos(data):
    n = data.draw(st.integers(min_value=2, max_value=6))
    search = _Search(GameRules(n=n, prop=NotKColorableProperty(n)), None, True)
    played = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=25))):
        free = [e for e in range(search.m) if search.claims[e] == 0]
        if played and (not free or data.draw(st.booleans())):
            search.undo(*played.pop())
        else:
            move = (data.draw(st.sampled_from(free)), data.draw(st.sampled_from([BUILDER, OPPONENT])))
            search.claim(*move)
            played.append(move)
        expected = brute_canonical(search.claims, n)
        assert int(search.key.min()) == base3(expected)
        assert canonical_claims(search.claims, n) == expected


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
    solve_tau(triangle_rules(8), symmetry=False, budget=10)  # allowed without symmetry


# ---------------------------------------------------------------------------
# budget and best_move
# ---------------------------------------------------------------------------

def test_budget_exhaustion_is_reported():
    res = solve_tau(triangle_rules(5), budget=50)
    assert res.value == "unknown" and res.t is None
    assert res.nodes >= 50


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
    assert state.counts[BUILDER] <= 5


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
