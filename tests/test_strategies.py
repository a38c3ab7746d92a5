"""Move-selection policies and the descriptor DSL."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgegames import (
    BUILDER,
    FirstAvailableStrategy,
    GameRules,
    GameState,
    HasEdgeProperty,
    JumbleGStrategy,
    NotKColorableProperty,
    OPPONENT,
    RandomStrategy,
    SubgraphProperty,
    TuranAvoiderStrategy,
    apply_move,
    complete_graph,
    is_k_colorable,
    parse_strategy,
    play_match,
    replay,
)
from edgegames.graphs import edge_index, edge_of
from edgegames.strategies import Strategy, match_players


def fresh_state(n):
    return GameState(GameRules(n=n, prop=HasEdgeProperty()))


def triangle_rules(n):
    return GameRules(n=n, prop=SubgraphProperty([complete_graph(3)], "subgraph:K3"))


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------

def test_first_available_order():
    state = fresh_state(4)
    s = FirstAvailableStrategy()
    assert s.next_move(state, BUILDER) == 0  # (0,1)
    apply_move(state, BUILDER, 0)
    assert s.next_move(state, OPPONENT) == 1  # (0,2)


def test_random_strategy_seeded_reproducible():
    a = RandomStrategy(123)
    b = RandomStrategy(123)
    sa, sb = fresh_state(8), fresh_state(8)
    for _ in range(5):
        ma = a.next_move(sa, BUILDER)
        mb = b.next_move(sb, BUILDER)
        assert ma == mb
        apply_move(sa, BUILDER, ma)
        apply_move(sb, BUILDER, mb)
        oa = FirstAvailableStrategy().next_move(sa, OPPONENT)
        apply_move(sa, OPPONENT, oa)
        apply_move(sb, OPPONENT, oa)


def test_random_fork_semantics():
    # an explicit seed wins; a bare "random" adopts the match seed
    assert parse_strategy("random:7", 99).seed == 7
    assert parse_strategy("random", 99).seed == 99


def test_match_players_seeds_the_enforcer_apart():
    avoider, enforcer = match_players("random", "random", 99)
    assert avoider.seed == 99 and enforcer.seed == 99 ^ 0x5DEECE66D
    avoider, enforcer = match_players("turan:2", "random:5", 99)
    assert isinstance(avoider, TuranAvoiderStrategy) and enforcer.seed == 5


def test_random_moves_are_legal():
    s = RandomStrategy(3)
    state = fresh_state(6)
    for player in (BUILDER, OPPONENT) * 7:
        apply_move(state, player, s.next_move(state, player))  # raises if illegal


# ---------------------------------------------------------------------------
# cluster-avoiding strategy
# ---------------------------------------------------------------------------

def test_turan_claims_cross_cluster_edges():
    s = TuranAvoiderStrategy(2)
    state = fresh_state(6)
    u, v = edge_of(s.next_move(state, BUILDER), 6)
    assert u % 2 != v % 2
    assert s.last_note is None


def test_turan_graph_stays_colorable_through_cross_phase():
    # alone on the board, the avoider claims every cross edge first; at each
    # point its graph respects the 2-clustering, hence is bipartite
    s = TuranAvoiderStrategy(2)
    rules = GameRules(n=6, prop=SubgraphProperty([complete_graph(7)], "subgraph:K7"))
    state = GameState(rules)
    opp = TuranAvoiderStrategy(2)  # mirror: also exhausts cross edges first
    cross_total = sum(
        1 for a in range(6) for b in range(a + 1, 6) if a % 2 != b % 2
    )
    seen_cross = 0
    while state.whose_turn() is not None and seen_cross < cross_total:
        player = state.whose_turn()
        strat = s if player == BUILDER else opp
        eid = strat.next_move(state, player)
        u, v = edge_of(eid, 6)
        if u % 2 != v % 2:
            seen_cross += 1
        apply_move(state, player, eid)
        assert is_k_colorable(state.builder_graph(), 2)


def test_turan_fallback_note():
    s = TuranAvoiderStrategy(1)  # no cross edges at all: immediate fallback
    state = fresh_state(4)
    assert s.next_move(state, BUILDER) == 0
    assert s.last_note == "fallback"


def test_turan_validation():
    with pytest.raises(ValueError):
        TuranAvoiderStrategy(0)


def test_turan_avoider_never_builds_triangle_unassisted():
    # against a quiet opponent the 2-cluster avoider's graph is bipartite
    # for the entire cross phase, so no triangle can appear before fallback
    tr = play_match(
        TuranAvoiderStrategy(2),
        RandomStrategy(11),
        triangle_rules(8),
    )
    if tr.result == "hit":
        # the avoider moves first, so its moves are the even indices
        fallback_round = next(
            (i // 2 + 1 for i, note in sorted(tr.notes.items()) if note == "fallback"), None
        )
        assert fallback_round is not None and tr.t >= fallback_round


# ---------------------------------------------------------------------------
# discrepancy-greedy strategy
# ---------------------------------------------------------------------------

def oracle_jumbleg_move(state, player):
    """Reference implementation: scan edges in id order, strict maximization."""
    best_key, best_eid = None, None
    n = state.n
    other = BUILDER if player == OPPONENT else OPPONENT
    deg = {p: [state.adj[p][w].bit_count() for w in range(n)] for p in (BUILDER, OPPONENT)}
    for u in range(n):
        for v in range(u + 1, n):
            eid = edge_index(u, v, n)
            if state.claims[eid] != 0:
                continue
            key = deg[other][u] - deg[player][u] + deg[other][v] - deg[player][v]
            if best_key is None or key > best_key:
                best_key, best_eid = key, eid
    return best_eid


def test_jumbleg_matches_reference_scan():
    rng = random.Random(13)
    s = JumbleGStrategy(Fraction(1, 10))
    for _ in range(20):
        state = fresh_state(7)
        # random prefix of a game
        r = RandomStrategy(rng.randrange(10**6))
        for _ in range(rng.randrange(0, 18)):
            player = state.whose_turn()
            if player is None:
                break
            apply_move(state, player, r.next_move(state, player))
        player = state.whose_turn()
        if player is None:
            continue
        assert s.next_move(state, player) == oracle_jumbleg_move(state, player)


def pick_free(state, rng):
    """RandomStrategy's pick, read afresh from the board: the reference."""
    free = np.flatnonzero(state.codes == 0)
    return int(free[rng.randrange(len(free))])


class _Checked(Strategy):
    """Plays `strat` once `start` edges are claimed (picks with `warm`
    before that), asserting at every move that it picks what the
    from-scratch `oracle` picks on the same board."""

    def __init__(self, strat, oracle, start, warm):
        self.strat, self.oracle, self.start, self.warm = strat, oracle, start, warm
        self.descriptor = strat.descriptor

    def next_move(self, state, player):
        self.state = state
        if state.m - state.unclaimed < self.start:
            return pick_free(state, self.warm)
        move = self.strat.next_move(state, player)
        assert move == self.oracle(state, player)
        return move


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(
        st.tuples(
            st.integers(2, 12),
            st.sampled_from([BUILDER, OPPONENT]),
            st.sampled_from(["builder", "opponent", "both", "shared"]),
            st.integers(0, 8),
            st.integers(0, 8),
        ),
        min_size=1,
        max_size=3,
    ),
)
def test_incremental_strategies_match_from_scratch_oracles(seed, games):
    # whole games on full boards (nc:n never fires on n vertices); the same
    # instances play every game, and each may first be called on a board
    # that already has moves; "shared" is one JumbleG instance on both sides
    jumbleg, jumbleg2 = JumbleGStrategy(Fraction(1, 10)), JumbleGStrategy(Fraction(1, 5))
    rand, oracle_rng = RandomStrategy(seed), random.Random(seed)
    rand_oracle = lambda state, player: pick_free(state, oracle_rng)  # noqa: E731
    warm = random.Random(seed ^ 1)
    for n, first, side, start_b, start_o in games:
        if side == "opponent":
            builder = _Checked(rand, rand_oracle, start_b, warm)
        else:
            builder = _Checked(jumbleg, oracle_jumbleg_move, start_b, warm)
        if side == "builder":
            opponent = _Checked(rand, rand_oracle, start_o, warm)
        else:
            other = jumbleg if side == "shared" else jumbleg2
            opponent = _Checked(other, oracle_jumbleg_move, start_o, warm)
        rules = GameRules(n=n, prop=NotKColorableProperty(n), first_mover=first)
        tr = play_match(builder, opponent, rules)
        assert tr.result == "never"
        state = next(s.state for s in (builder, opponent) if hasattr(s, "state"))
        assert state.unclaimed == 0
        assert replay(tr, rules.prop).claims == state.claims


def test_incremental_strategies_rekey_a_new_board_with_a_longer_log():
    # board B's log is already longer than what the instances saw on board
    # A, so only the board's identity tells them to read B afresh
    jumbleg, rand, oracle_rng = JumbleGStrategy(Fraction(1, 10)), RandomStrategy(3), random.Random(3)
    warm = random.Random(4)
    for n, moves in ((6, 3), (6, 9), (7, 12)):
        state = fresh_state(n)
        for _ in range(moves):
            apply_move(state, state.whose_turn(), pick_free(state, warm))
        player = state.whose_turn()
        assert jumbleg.next_move(state, player) == oracle_jumbleg_move(state, player)
        assert rand.next_move(state, player) == pick_free(state, oracle_rng)


def oracle_turan_move(parts):
    """TuranAvoiderStrategy's pick, gathered afresh from the board."""

    def pick(state, player):
        u, v = np.triu_indices(state.n, 1)  # edge ids in order
        free = np.flatnonzero((u % parts != v % parts) & (state.codes == 0))
        return int(free[0]) if len(free) else state.claims.find(0)

    return pick


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 4),
    st.lists(
        st.tuples(st.integers(2, 12), st.sampled_from([BUILDER, OPPONENT]), st.integers(0, 8)),
        min_size=1,
        max_size=3,
    ),
    st.integers(0, 6),
)
def test_turan_pointer_matches_from_scratch_gather(seed, parts, games, back):
    # one instance plays every game, on both sides of the first one, and may
    # first be called on a board that already has moves; then moves are
    # undone on the last board, so its log gets shorter
    turan, warm = TuranAvoiderStrategy(parts), random.Random(seed)
    oracle = oracle_turan_move(parts)
    for n, first, start in games:
        player = _Checked(turan, oracle, start, warm)
        rules = GameRules(n=n, prop=NotKColorableProperty(n), first_mover=first)
        tr = play_match(player, player, rules)
        assert tr.result == "never"
    state = player.state
    for _ in range(min(back, len(state.log))):
        eid = state.log.pop()
        state.undo(eid, state.claims[eid])
        if state.whose_turn() is not None:
            assert turan.next_move(state, state.whose_turn()) == oracle(state, None)


def test_jumbleg_balances_builder_degrees():
    # greedy enforcer vs random avoider keeps its own degrees near the
    # avoider's: max degree gap stays small on a full board
    # nc:12 can never fire on 12 vertices, so the board always fills up
    rules = GameRules(n=12, prop=NotKColorableProperty(12))
    tr = play_match(RandomStrategy(5), JumbleGStrategy(Fraction(1, 10)), rules)
    assert tr.result == "never"
    board = replay(tr, rules.prop)
    gaps = [abs(a.bit_count() - e.bit_count()) for a, e in zip(board.adj[BUILDER], board.adj[OPPONENT])]
    assert max(gaps) <= 4


def test_jumbleg_eps_domain():
    with pytest.raises(ValueError):
        JumbleGStrategy(Fraction(1, 2))
    with pytest.raises(ValueError):
        JumbleGStrategy(0)
    JumbleGStrategy(Fraction(49, 100))


# ---------------------------------------------------------------------------
# descriptor DSL
# ---------------------------------------------------------------------------

def test_parse_strategy():
    assert isinstance(parse_strategy("first"), FirstAvailableStrategy)
    r = parse_strategy("random")
    assert isinstance(r, RandomStrategy) and r.seed is None
    r2 = parse_strategy("random:17")
    assert r2.seed == 17 and r2.descriptor == "random:17"
    t = parse_strategy("turan:3")
    assert isinstance(t, TuranAvoiderStrategy) and t.parts == 3
    j = parse_strategy("jumbleg:1/10")
    assert isinstance(j, JumbleGStrategy) and j.eps == Fraction(1, 10)
    j2 = parse_strategy("jumbleg:0.25")
    assert j2.eps == Fraction(1, 4)
    with pytest.raises(ValueError):
        parse_strategy("greedy")
    with pytest.raises(ValueError):
        parse_strategy("turan:x")
