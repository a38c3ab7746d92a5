"""Game engine: detectors, turn order, move legality, transcripts, replay."""

import json
import random

import pytest

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
    new_game,
    path_graph,
    play_match,
    replay,
)
from edgegames.graphs import num_edges


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
    assert p.hit_after(G2, 0, 2)


def test_subgraph_hit_after_agrees_with_holds():
    # anchored detection must agree with a full recompute when the property
    # first appears with the added edge
    p = SubgraphProperty([cycle_graph(4)], descriptor="subgraph:C4")
    rng = random.Random(6)
    for _ in range(50):
        n = 6
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
        G = graph_from_edges(n, edges)
        if p.holds(G):
            continue
        # add one random absent edge
        absent = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if not G.has_edge(u, v)
        ]
        u, v = absent[rng.randrange(len(absent))]
        G2 = graph_from_edges(n, edges + [(u, v)])
        assert p.hit_after(G2, u, v) == p.holds(G2)


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


def test_nc_hit_after_matches_holds():
    p = NotKColorableProperty(2)
    rng = random.Random(9)
    for _ in range(30):
        G = graph_from_edges(
            6, [(u, v) for u in range(6) for v in range(u + 1, 6) if rng.random() < 0.4]
        )
        for u in range(6):
            for v in range(u + 1, 6):
                if G.has_edge(u, v):
                    assert p.hit_after(G, u, v) == p.holds(G)
                    break


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
