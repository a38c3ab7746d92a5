"""Game engine: detectors, turn order, move legality, transcripts, replay."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgegames import (
    AVOIDER_ENFORCER,
    BUILDER,
    MAKER_BREAKER,
    OPPONENT,
    FirstAvailableStrategy,
    GameRules,
    HasEdgeProperty,
    IllegalMoveError,
    InducedSubgraphProperty,
    NotKColorableProperty,
    RandomStrategy,
    SubgraphProperty,
    apply_move,
    avoider_graph,
    complete_graph,
    cycle_graph,
    enforcer_graph,
    graph_from_edges,
    graph_from_name,
    new_game,
    parse_property,
    path_graph,
    play_match,
    replay,
)
from edgegames.engine import PropertyDetector
from edgegames.graphs import Graph, edge_pairs, num_edges


def triangle_prop():
    return SubgraphProperty([complete_graph(3)], descriptor="subgraph:K3")


def rules(n, prop=None, **kw):
    return GameRules(n=n, prop=prop or HasEdgeProperty(), **kw)


# ---------------------------------------------------------------------------
# detectors
# ---------------------------------------------------------------------------

def test_has_edge_detector():
    p = HasEdgeProperty()
    assert not p.holds(graph_from_edges(3, []))
    assert p.holds(graph_from_edges(3, [(0, 1)]))


def test_subgraph_detector_triangle():
    p = triangle_prop()
    assert p.k == 3 and p.f == 3
    G = graph_from_edges(4, [(0, 1), (1, 2)])
    assert not p.holds(G)
    G2 = graph_from_edges(4, [(0, 1), (1, 2), (0, 2)])
    assert p.holds(G2)
    assert p.hit_after_masks(G2.n, G2.adj, 0, 2)


def _detector(descriptor):
    """`parse_property`, plus the two-member family `subgraph:K4+C5`."""
    if descriptor == "subgraph:K4+C5":
        return SubgraphProperty([complete_graph(4), cycle_graph(5)], descriptor)
    return parse_property(descriptor)


DETECTORS = [
    "edge",
    "subgraph:C4",
    "subgraph:C5",
    "subgraph:K4",
    "subgraph:K4+C5",
    "induced:P3",
    "induced:P4",
    "induced:C4",
    "nc:2",
    "nc:3",
]


@pytest.mark.parametrize("descriptor", DETECTORS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_hit_after_masks_matches_holds(descriptor, data):
    # the incremental check must equal a full recompute whenever the property
    # did not hold before the added edge; G is grown edge by edge, skipping
    # every edge that would give it the property (induced ones are not monotone)
    p = _detector(descriptor)
    n = data.draw(st.integers(min_value=2, max_value=8))
    order = data.draw(st.permutations(edge_pairs(n)))
    stop = data.draw(st.integers(min_value=0, max_value=len(order) - 1))
    adj = [0] * n
    for u, v in order[:stop]:
        adj[u] ^= 1 << v
        adj[v] ^= 1 << u
        if p.holds(Graph(n, tuple(adj))):
            adj[u] ^= 1 << v
            adj[v] ^= 1 << u
    assert not p.holds(Graph(n, tuple(adj)))
    u, v = order[stop]
    adj[u] |= 1 << v
    adj[v] |= 1 << u
    assert p.hit_after_masks(n, list(adj), u, v) == p.holds(Graph(n, tuple(adj)))


class FullRecomputeInduced(InducedSubgraphProperty):
    """The induced detector with the base class's full `holds` per move."""

    hit_after_masks = PropertyDetector.hit_after_masks


@pytest.mark.parametrize("name, n", [("P3", 8), ("P4", 12), ("C4", 12)])
def test_induced_anchored_transcripts_match_full_recompute(name, n):
    F = graph_from_name(name)
    for seed in range(4):
        out = []
        for prop in (InducedSubgraphProperty([F]), FullRecomputeInduced([F])):
            rules = GameRules(n=n, prop=prop)
            t = play_match(RandomStrategy(seed), RandomStrategy(seed + 100), rules, seed=seed)
            out.append(t.to_jsonl())
        assert out[0] == out[1]


def test_family_uses_min_chromatic_member():
    p = SubgraphProperty([complete_graph(4), cycle_graph(5)])
    assert p.k == 3  # C5 is the designated member
    assert p.f == 5


def test_induced_detector():
    p = InducedSubgraphProperty([path_graph(3)], descriptor="induced:P3")
    assert p.k == 2
    assert p.holds(graph_from_edges(3, [(0, 1), (1, 2)]))
    assert not p.holds(complete_graph(3))


def test_nc_detector():
    p = NotKColorableProperty(2)
    assert not p.holds(cycle_graph(4))
    assert p.holds(cycle_graph(5))
    assert p.holds(complete_graph(3))
    assert not NotKColorableProperty(3).holds(complete_graph(3))
    with pytest.raises(ValueError):
        NotKColorableProperty(0)


def test_empty_family_rejected():
    with pytest.raises(ValueError):
        SubgraphProperty([])
    with pytest.raises(ValueError):
        InducedSubgraphProperty([])


# ---------------------------------------------------------------------------
# rules and state
# ---------------------------------------------------------------------------

def test_rules_validation():
    with pytest.raises(ValueError):
        rules(1)
    with pytest.raises(ValueError):
        GameRules(n=4, prop=HasEdgeProperty(), convention="chooser-picker")
    with pytest.raises(ValueError):
        GameRules(n=4, prop=HasEdgeProperty(), first_mover=0)


def test_role_names():
    r = rules(4)
    assert r.role_name(BUILDER) == "avoider"
    assert r.role_name(OPPONENT) == "enforcer"
    r2 = rules(4, convention=MAKER_BREAKER)
    assert r2.role_name(BUILDER) == "maker"
    assert r2.role_name(OPPONENT) == "breaker"


def test_turn_alternation_builder_first():
    state = new_game(rules(3))
    assert state.whose_turn() == BUILDER
    apply_move(state, BUILDER, (0, 1))
    assert state.whose_turn() == OPPONENT
    apply_move(state, OPPONENT, (0, 2))
    assert state.whose_turn() == BUILDER
    apply_move(state, BUILDER, (1, 2))
    assert state.whose_turn() is None  # board exhausted (odd board, 3 edges)


def test_turn_alternation_opponent_first():
    state = new_game(rules(3, first_mover=OPPONENT))
    assert state.whose_turn() == OPPONENT
    apply_move(state, OPPONENT, (0, 1))
    assert state.whose_turn() == BUILDER


def test_illegal_moves():
    state = new_game(rules(4))
    apply_move(state, BUILDER, (0, 1))
    with pytest.raises(IllegalMoveError):
        apply_move(state, BUILDER, (0, 2))  # out of turn
    with pytest.raises(IllegalMoveError):
        apply_move(state, OPPONENT, (0, 1))  # already claimed
    with pytest.raises(ValueError):
        apply_move(state, OPPONENT, (2, 2))  # malformed edge
    with pytest.raises(ValueError):
        apply_move(state, OPPONENT, (0, 9))  # off the board
    with pytest.raises(IllegalMoveError):
        apply_move(state, 7, (0, 2))  # unknown player


def test_state_bookkeeping():
    state = new_game(rules(4))
    apply_move(state, BUILDER, (0, 1))
    apply_move(state, OPPONENT, (2, 3))
    assert state.round == 1
    assert state.counts == {BUILDER: 1, OPPONENT: 1}
    assert state.unclaimed == num_edges(4) - 2
    assert avoider_graph(state).has_edge(0, 1)
    assert not avoider_graph(state).has_edge(2, 3)
    assert enforcer_graph(state).has_edge(2, 3)
    assert list(state.deg[BUILDER]) == [1, 1, 0, 0]


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=2, max_value=12), st.data())
def test_state_graphs_equal_validated_graphs(n, data):
    # the state builds its graphs without re-validating symmetry; they must be
    # the same values, with the same hash, as fully validated graphs
    state = new_game(rules(n))
    order = data.draw(st.permutations(edge_pairs(n)))
    for edge in order[: data.draw(st.integers(min_value=0, max_value=len(order)))]:
        apply_move(state, state.whose_turn(), edge)
    for player, G in ((BUILDER, avoider_graph(state)), (OPPONENT, enforcer_graph(state))):
        validated = Graph(n, tuple(state.adj[player]))
        assert G == validated and hash(G) == hash(validated)
        assert G == graph_from_edges(n, G.edges())


def test_state_copy_is_independent():
    state = new_game(rules(4))
    apply_move(state, BUILDER, (0, 1))
    snap = state.copy()
    apply_move(state, OPPONENT, (2, 3))
    assert snap.counts[OPPONENT] == 0
    assert snap.unclaimed == state.unclaimed + 1
    assert not enforcer_graph(snap).has_edge(2, 3)


# ---------------------------------------------------------------------------
# matches, transcripts, replay
# ---------------------------------------------------------------------------

def test_has_edge_hits_round_one():
    tr = play_match(FirstAvailableStrategy(), FirstAvailableStrategy(), rules(5))
    assert tr.result == "hit" and tr.t == 1
    assert len(tr.moves) == 1


def test_property_checked_only_after_builder_moves():
    # opponent completing a triangle in their own graph must not end the game
    tr = play_match(
        FirstAvailableStrategy(),
        FirstAvailableStrategy(),
        rules(4, prop=triangle_prop()),
    )
    state = replay(tr, triangle_prop())
    # the hit, if any, is in the builder's graph
    if tr.result == "hit":
        assert triangle_prop().holds(avoider_graph(state))


def test_never_outcome_exhausts_board():
    # two vertices, single edge, triangle impossible
    tr = play_match(
        FirstAvailableStrategy(),
        FirstAvailableStrategy(),
        rules(2, prop=triangle_prop()),
    )
    assert tr.result == "never" and tr.t == -1
    assert len(tr.moves) == 1  # builder took the only edge


def test_max_rounds_cap():
    tr = play_match(
        FirstAvailableStrategy(),
        FirstAvailableStrategy(),
        rules(10, prop=triangle_prop()),
        max_rounds=2,
    )
    assert tr.result in ("hit", "never")
    builder_moves = [m for m in tr.moves if m[1] == "avoider"]
    assert len(builder_moves) <= 2
    for bad in (0, -3):
        with pytest.raises(ValueError):
            play_match(
                FirstAvailableStrategy(), FirstAvailableStrategy(), rules(5), max_rounds=bad
            )


@pytest.mark.parametrize("descriptor", ["subgraph:K1", "induced:K1", "induced:Kpartite:3"])
def test_property_held_by_empty_graph_is_rejected(descriptor):
    # every graph on >= 3 vertices holds K1 and three non-adjacent vertices;
    # no builder move can create them, so the match must not report "never"
    with pytest.raises(ValueError, match="already has the property"):
        play_match(FirstAvailableStrategy(), FirstAvailableStrategy(), rules(5, _detector(descriptor)))


def test_hit_round_is_builder_move_count():
    # first-available avoider on K4: claims (0,1); enforcer takes (0,2);
    # avoider (0,3); enforcer (1,2); avoider (1,3) -> triangle 0,1,3 at round 3
    tr = play_match(
        FirstAvailableStrategy(),
        FirstAvailableStrategy(),
        rules(4, prop=triangle_prop()),
    )
    assert tr.result == "hit" and tr.t == 3
    assert tr.moves[-1][1] == "avoider"


def test_transcript_jsonl_roundtrip():
    tr = play_match(
        RandomStrategy(5),
        RandomStrategy(6),
        rules(5, prop=triangle_prop()),
        seed=42,
    )
    lines = tr.to_jsonl().strip().split("\n")
    header = json.loads(lines[0])
    outcome = json.loads(lines[-1])
    assert header == {
        "type": "header",
        "n": 5,
        "convention": AVOIDER_ENFORCER,
        "first_mover": "avoider",
        "property": "subgraph:K3",
        "seed": 42,
    }
    assert outcome["type"] == "outcome"
    assert outcome["result"] == tr.result and outcome["t"] == tr.t
    for line in lines[1:-1]:
        rec = json.loads(line)
        assert rec["type"] == "move"
        assert rec["role"] in ("avoider", "enforcer")
        assert 0 <= rec["u"] < rec["v"] < 5


def test_replay_reproduces_final_claims():
    tr = play_match(
        RandomStrategy(1), RandomStrategy(2), rules(6, prop=triangle_prop())
    )
    state = replay(tr, triangle_prop())
    assert tuple(int(c) for c in state.claims) == tr.final_claims


def test_illegal_strategy_is_diagnosed():
    class Cheater:
        descriptor = "cheat"
        last_note = None

        def next_move(self, state, player):
            return (0, 1)  # repeats the same move

        def fork(self, seed):
            return self

    with pytest.raises(IllegalMoveError) as err:
        play_match(Cheater(), FirstAvailableStrategy(), rules(4, prop=triangle_prop()))
    assert "cheat" in str(err.value)


def test_maker_breaker_labels_in_transcript():
    tr = play_match(
        FirstAvailableStrategy(),
        FirstAvailableStrategy(),
        rules(4, convention=MAKER_BREAKER),
    )
    assert tr.first_mover == "maker"
    assert tr.moves[0][1] == "maker"
