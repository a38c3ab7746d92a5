"""Game engine: detectors, turn order, move legality, transcripts, replay."""

import json
import os
import random
import subprocess
import sys
from array import array

import networkx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import edgegames
from edgegames.engine import (
    BUILDER,
    OPPONENT,
    _CHUNK,
    Board,
    GameRules,
    GameState,
    IllegalMoveError,
    InducedSubgraphProperty,
    NotKColorableProperty,
    PropertyDetector,
    SubgraphProperty,
    Transcript,
    UNCLAIMED,
    _encode,
    _endpoints,
    apply_move,
    play_match,
    replay,
)
from edgegames.graphs import (
    MAX_N,
    Graph,
    complete_graph,
    cycle_graph,
    edge_index,
    edge_of,
    edge_pairs,
    graph_from_edges,
    graph_from_name,
    num_edges,
    path_graph,
)
from edgegames.harness import parse_property
from edgegames.strategies import FirstAvailableStrategy, RandomStrategy, match_players, parse_strategy


def triangle_prop():
    return SubgraphProperty([complete_graph(3)], descriptor="subgraph:K3")


def rules(n, prop=None):
    return GameRules(n=n, prop=prop or parse_property("edge"))


# ---------------------------------------------------------------------------
# detectors
# ---------------------------------------------------------------------------

def test_has_edge_detector():
    p = parse_property("edge")
    assert isinstance(p, SubgraphProperty) and p.members == [complete_graph(2)]
    assert (p.descriptor, p.chi) == ("edge", 2)
    assert not p.holds(graph_from_edges(3, []))
    assert p.holds(graph_from_edges(3, [(0, 1)]))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.data())
def test_edge_family_oracle(n, data):
    # the family {K2}: the graph has the property iff it has an edge, and
    # every builder claim is a hit, whatever the board held before
    p = parse_property("edge")
    adj = [0] * n
    for u, v in data.draw(st.lists(st.sampled_from(edge_pairs(n)), max_size=10)):
        assert p.holds(Graph(n, tuple(adj))) == any(adj)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        assert p.hit_after_masks(n, list(adj), u, v)
    assert p.holds(Graph(n, tuple(adj))) == any(adj)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.data())
def test_nc_at_k_at_least_n_never_holds(n, data):
    # a graph on n vertices is n-colourable: at k >= n the detector's
    # certificate must prove every graph colourable, dense ones included
    k = data.draw(st.integers(min_value=n, max_value=n + 2))
    edges = data.draw(st.lists(st.sampled_from(edge_pairs(n)), unique=True))
    G = graph_from_edges(n, edges)
    p = NotKColorableProperty(k)
    assert not p.holds(G) and not p.holds(complete_graph(n))
    for u, v in edges:
        assert not p.hit_after_masks(n, list(G.adj), u, v)


def test_subgraph_detector_triangle():
    p = triangle_prop()
    assert p.chi == 3
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
    assert p.chi == 3  # chi(C5) = 3 < chi(K4) = 4


def test_induced_detector():
    p = InducedSubgraphProperty([path_graph(3)], descriptor="induced:P3")
    assert p.chi == 2
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


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_nc1_nc2_holds_matches_networkx(data):
    # nc:1 answers "has an edge" and nc:2 a BFS 2-colouring, not the
    # colouring search; networkx is the independent oracle
    n = data.draw(st.integers(min_value=0, max_value=9))
    pairs = edge_pairs(n)
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    H = networkx.Graph()
    H.add_nodes_from(range(n))
    H.add_edges_from(edges)
    G = graph_from_edges(n, edges)
    assert NotKColorableProperty(2).holds(G) == (not networkx.is_bipartite(H))
    assert NotKColorableProperty(1).holds(G) == (H.number_of_edges() > 0)


def test_empty_family_rejected():
    with pytest.raises(ValueError):
        SubgraphProperty([])
    with pytest.raises(ValueError):
        InducedSubgraphProperty([])


# ---------------------------------------------------------------------------
# rules and state
# ---------------------------------------------------------------------------

def test_match_layer_imports_no_numpy():
    # a fresh interpreter: the package root imports no submodule, so the
    # match layer loads neither numpy nor the array layers
    src = os.path.dirname(os.path.dirname(edgegames.__file__))
    code = (
        "import sys; sys.path.insert(0, %r)\n"
        "import edgegames.engine, edgegames.strategies, edgegames.graphs\n"
        "print(*sys.modules)" % src
    )
    loaded = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60
    ).stdout.split()
    assert "edgegames.engine" in loaded
    for name in ("numpy", "edgegames.regularity", "edgegames.solver", "edgegames.harness",
                 "edgegames.cli"):
        assert name not in loaded


def test_rules_validation():
    with pytest.raises(ValueError):
        rules(1)
    with pytest.raises(ValueError, match="n <= %d" % MAX_N):
        rules(MAX_N + 1)
    assert rules(MAX_N).n == MAX_N  # the rules alone build no board


def test_turn_alternation_builder_first():
    state = GameState(rules(3))  # edge ids 0, 1, 2 are (0,1), (0,2), (1,2)
    assert state.whose_turn() == BUILDER
    apply_move(state, BUILDER, 0)
    assert state.whose_turn() == OPPONENT
    apply_move(state, OPPONENT, 1)
    assert state.whose_turn() == BUILDER
    apply_move(state, BUILDER, 2)
    assert state.whose_turn() is None  # board exhausted (odd board, 3 edges)


def test_illegal_moves():
    state = GameState(rules(4))  # m = 6
    apply_move(state, BUILDER, 0)
    with pytest.raises(IllegalMoveError):
        apply_move(state, BUILDER, 1)  # out of turn
    with pytest.raises(IllegalMoveError, match=r"edge \(0,1\) already claimed"):
        apply_move(state, OPPONENT, 0)
    for bad in (6, -1, (0, 2), 1.0, None, True, False):  # off the board, or not an id at all
        with pytest.raises(ValueError, match=r"a move is an int edge id in range\(6\)"):
            apply_move(state, OPPONENT, bad)
    with pytest.raises(IllegalMoveError):
        apply_move(state, 7, 1)  # unknown player
    assert state.log.tolist() == [0] and state.unclaimed == 5


def test_state_bookkeeping():
    state = GameState(rules(4))
    apply_move(state, BUILDER, edge_index(0, 1, 4))
    apply_move(state, OPPONENT, edge_index(2, 3, 4))
    assert (state.claims.count(BUILDER), state.claims.count(OPPONENT)) == (1, 1)
    assert state.unclaimed == num_edges(4) - 2 and state.whose_turn() == BUILDER
    assert state.builder_graph().has_edge(0, 1)
    assert not state.builder_graph().has_edge(2, 3)
    assert state.opponent_graph().has_edge(2, 3)
    assert [state.builder_graph().degree(w) for w in range(4)] == [1, 1, 0, 0]


def test_apply_move_logs_claims_in_order():
    state = GameState(rules(4))
    apply_move(state, BUILDER, 5)
    apply_move(state, OPPONENT, 0)
    with pytest.raises(IllegalMoveError):
        apply_move(state, BUILDER, 0)  # taken: nothing is logged
    with pytest.raises(IllegalMoveError):
        apply_move(state, OPPONENT, 1)  # out of turn
    apply_move(state, BUILDER, 4)
    assert state.log.tolist() == [5, 0, 4]


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=2, max_value=12), st.data())
def test_state_graphs_equal_validated_graphs(n, data):
    # the state builds its graphs without re-validating symmetry; they must be
    # the same values, with the same hash, as fully validated graphs
    state = GameState(rules(n))
    order = data.draw(st.permutations(range(num_edges(n))))
    for eid in order[: data.draw(st.integers(min_value=0, max_value=len(order)))]:
        apply_move(state, state.whose_turn(), eid)
    pairs = edge_pairs(n)
    for player, G in ((BUILDER, state.builder_graph()), (OPPONENT, state.opponent_graph())):
        validated = Graph(n, tuple(G.adj))
        assert G == validated and hash(G) == hash(validated)
        assert G == graph_from_edges(n, G.edges())
        claimed = [pairs[e] for e in range(num_edges(n)) if state.claims[e] == player]
        assert G == graph_from_edges(n, claimed)


def undo(board, eid: int, player: int) -> None:
    """Take back `player`'s claim of edge `eid`, the inverse of `Board.claim`,
    for the tests that walk a board back; play never undoes, and the
    solver's search restores its own claim bytes and masks."""
    board.claims[eid] = UNCLAIMED
    if player == BUILDER:
        u, v, adj = board.us[eid], board.vs[eid], board.adj
        adj[u] ^= 1 << v
        adj[v] ^= 1 << u
    board.unclaimed += 1


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.data())
def test_board_claim_undo_matches_rebuild(n, data):
    # any claim/undo sequence leaves the board equal to one rebuilt from its
    # claim codes alone, and it is the builder's turn iff an even number of
    # edges is claimed, whoever claimed them (play only reaches boards where
    # the builder holds as many as the opponent or one more); an opponent
    # claim or undo leaves the builder's masks untouched
    board = Board(n)
    claimed = {}
    for _ in range(data.draw(st.integers(min_value=0, max_value=30))):
        free = [e for e in range(num_edges(n)) if e not in claimed]
        before = list(board.adj)
        if claimed and (not free or data.draw(st.booleans())):
            eid = data.draw(st.sampled_from(sorted(claimed)))
            player = claimed.pop(eid)
            undo(board, eid, player)
        else:
            eid = data.draw(st.sampled_from(free))
            player = claimed[eid] = data.draw(st.sampled_from([BUILDER, OPPONENT]))
            board.claim(eid, player)
        if player == OPPONENT:
            assert board.adj == before
    codes = [claimed.get(e, 0) for e in range(num_edges(n))]
    adj = {BUILDER: [0] * n, OPPONENT: [0] * n}
    for eid, (u, v) in enumerate(edge_pairs(n)):
        if codes[eid]:
            adj[codes[eid]][u] |= 1 << v
            adj[codes[eid]][v] |= 1 << u
    assert list(board.claims) == codes
    assert board.builder_graph() == Graph(n, tuple(adj[BUILDER]))
    assert board.opponent_graph() == Graph(n, tuple(adj[OPPONENT]))
    assert board.unclaimed == codes.count(0)
    claimed_total = len(codes) - codes.count(0)
    expected_turn = None if 0 not in codes else (OPPONENT if claimed_total % 2 else BUILDER)
    assert board.whose_turn() == expected_turn


# ---------------------------------------------------------------------------
# matches, transcripts, replay
# ---------------------------------------------------------------------------

def test_has_edge_hits_round_one():
    tr = play_match(FirstAvailableStrategy(), FirstAvailableStrategy(), rules(5))
    assert tr.result == "hit" and tr.t == 1
    assert tr.log.tolist() == [0]


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
        assert triangle_prop().holds(state.builder_graph())


def test_never_outcome_exhausts_board():
    # two vertices, single edge, triangle impossible
    tr = play_match(
        FirstAvailableStrategy(),
        FirstAvailableStrategy(),
        rules(2, prop=triangle_prop()),
    )
    assert tr.result == "never" and tr.t == -1
    assert tr.log.tolist() == [0]  # builder took the only edge


def test_max_rounds_cap():
    tr = play_match(
        FirstAvailableStrategy(),
        FirstAvailableStrategy(),
        rules(10, prop=triangle_prop()),
        max_rounds=2,
    )
    assert tr.result == "capped" and tr.t == -1
    assert len(tr.log[::2]) == 2  # the builder moves first
    assert json.loads(tr.to_jsonl().strip().split("\n")[-1]) == {
        "type": "outcome", "result": "capped", "t": -1
    }
    # a cap reached on the move that exhausts the board is still "never",
    # and a hit on the last allowed move is still a hit
    tr = play_match(
        FirstAvailableStrategy(), FirstAvailableStrategy(), rules(2, prop=triangle_prop()), max_rounds=1
    )
    assert (tr.result, tr.t) == ("never", -1)
    tr = play_match(
        FirstAvailableStrategy(), FirstAvailableStrategy(), rules(4, prop=triangle_prop()), max_rounds=3
    )
    assert (tr.result, tr.t) == ("hit", 3)
    for bad in (0, -3):
        with pytest.raises(ValueError):
            play_match(
                FirstAvailableStrategy(), FirstAvailableStrategy(), rules(5), max_rounds=bad
            )


@pytest.mark.parametrize(
    "descriptor, n, runs",
    [
        ("nc:8", 8, False),  # chi 9 > 8
        ("subgraph:K7", 6, False),  # chi 7 > 6
        ("nc:7", 8, True),  # chi 8 <= 8, and only K8 would hit
        ("subgraph:K7", 7, True),
    ],
)
def test_play_skips_only_a_detector_whose_chi_exceeds_n(monkeypatch, descriptor, n, runs):
    # a graph on n vertices is n-colourable, so a detector with chi > n never
    # holds there; play must not call it, and must call every other detector
    # once per builder move, whatever its chi
    calls = [0]
    real = PropertyDetector.hit_after_state

    def counted(self, state, eid):
        calls[0] += 1
        return real(self, state, eid)

    monkeypatch.setattr(PropertyDetector, "hit_after_state", counted)

    def match(forced):
        prop = _detector(descriptor)
        if forced:
            prop.chi = 2  # at most n: play must run the detector
        calls[0] = 0
        avoider, enforcer = match_players("random", "jumbleg:1/10", 5)
        tr = play_match(avoider, enforcer, rules(n, prop), seed=5)
        return tr, calls[0]

    tr, seen = match(False)
    builder_moves = tr.final_codes().count(BUILDER)
    assert tr.result == "never" and builder_moves == (n * (n - 1) // 2 + 1) // 2
    assert seen == (builder_moves if runs else 0)
    # with its chi lowered the detector runs after every builder move, to the same end
    plain, seen = match(True)
    assert seen == builder_moves
    assert plain.to_jsonl() == tr.to_jsonl()


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
    assert len(tr.log) == 5  # odd: the builder, who moved first, moved last
    assert json.loads(tr.to_jsonl().split("\n")[-3])["role"] == "avoider"


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
        "convention": "avoider-enforcer",
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


class _Recorder:
    """Plays `strat` and records, per move, the player, the returned id and
    the strategy's note, plus the live board."""

    def __init__(self, strat, record):
        self.strat, self.record = strat, record
        self.descriptor = strat.descriptor

    def next_move(self, state, player):
        self.state = state
        eid = self.strat.next_move(state, player)
        self.last_note = self.strat.last_note
        self.record.append((player, eid, self.last_note))
        return eid


@settings(max_examples=150, deadline=None)
@given(
    st.integers(2, 9),
    st.sampled_from(["turan:1", "turan:2", "random", "first", "jumbleg:1/10"]),
    st.sampled_from(["turan:1", "turan:2", "random", "first", "jumbleg:1/5"]),
    st.sampled_from(["never", "subgraph:K3", "nc:2", "edge"]),
    st.one_of(st.none(), st.integers(1, 12)),
    st.integers(0, 2**31),
)
def test_transcript_lines_match_recorded_moves(n, a, b, prop, cap, seed):
    # the JSONL move records derived from the claim log equal what the
    # strategies returned, in order; rounds count each player's own moves,
    # and pairs come from the closed-form edge_of
    prop = "nc:%d" % n if prop == "never" else prop  # n-colourable: the board fills
    record = []
    builder = _Recorder(parse_strategy(a, seed), record)
    opponent = _Recorder(parse_strategy(b, seed + 1), record)
    r = GameRules(n=n, prop=parse_property(prop))
    tr = play_match(builder, opponent, r, max_rounds=cap, seed=seed)
    moves = [json.loads(line) for line in tr.to_jsonl().splitlines()[1:-1]]
    made = {BUILDER: 0, OPPONENT: 0}
    role = {BUILDER: "avoider", OPPONENT: "enforcer"}
    expected = []
    for player, eid, note in record:
        made[player] += 1
        u, v = edge_of(eid, n)
        rec = {"type": "move", "round": made[player], "role": role[player], "u": u, "v": v}
        if note:
            rec["note"] = note
        expected.append(rec)
    assert moves == expected
    live = next(s.state for s in (builder, opponent) if hasattr(s, "state"))
    assert replay(tr, r.prop).claims == live.claims


def reference_jsonl(tr):
    """The transcript's text, one sorted-key JSON record per line."""
    records = [{"type": "header", "n": tr.n, "convention": "avoider-enforcer",
                "first_mover": "avoider", "property": tr.property_descriptor, "seed": tr.seed}]
    for i, eid in enumerate(tr.log):
        u, v = edge_of(eid, tr.n)
        rec = {"type": "move", "round": i // 2 + 1, "role": ("avoider", "enforcer")[i % 2], "u": u, "v": v}
        if i in tr.notes:
            rec["note"] = tr.notes[i]
        records.append(rec)
    records.append({"type": "outcome", "result": tr.result, "t": tr.t})
    return "\n".join(map(_encode, records)) + "\n"


class Sink:
    """A text stream that keeps each write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


def test_to_jsonl_bytes_match_sorted_key_encoder():
    # to_jsonl fills a template for moves without a note; every line must be
    # the bytes the sorted-key JSON encoder gives the full record, returned
    # or streamed
    rng = random.Random(11)
    n = 9
    for note_share in (0, 0.3, 1):
        log = rng.sample(range(num_edges(n)), rng.randrange(num_edges(n) + 1))
        notes = {i: rng.choice(["fallback", 'a "quoted" note']) for i in range(len(log))
                 if rng.random() < note_share}
        seed = rng.choice([None, 0, 12345])
        tr = Transcript(n, "subgraph:K3", seed, array("i", log), notes,
                        "hit" if log else "never", len(log) // 2 if log else -1)
        sink = Sink()
        assert tr.to_jsonl(sink) is None
        assert tr.to_jsonl() == "".join(sink.writes) == reference_jsonl(tr)


@pytest.mark.parametrize("moves", [_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK, num_edges(150)])
def test_to_jsonl_streams_bounded_chunks(moves):
    # logs around and past one chunk, with notes on both sides of each chunk
    # edge: the writes join to the returned text, and none holds more than
    # one chunk of move lines
    n = 150
    log = random.Random(moves).sample(range(num_edges(n)), moves)
    edges = [i for c in range(_CHUNK, moves + 1, _CHUNK) for i in (c - 1, c)]
    notes = {i: "fallback" for i in [0, moves - 1, *edges] if i < moves}
    tr = Transcript(n, "nc:150", 7, array("i", log), notes, "never", -1)
    sink = Sink()
    tr.to_jsonl(sink)
    assert "".join(sink.writes) == tr.to_jsonl() == reference_jsonl(tr)
    assert len(sink.writes) == 2 + -(-moves // _CHUNK)
    assert max(w.count("\n") for w in sink.writes) <= _CHUNK


def test_endpoint_tables_match_edge_pairs():
    for n in range(2, 65):
        us, vs = Board(n).us, Board(n).vs
        assert us.typecode == vs.typecode == "H"
        assert list(zip(us, vs)) == edge_pairs(n)
        assert [(us[e], vs[e]) for e in range(num_edges(n))] == [edge_of(e, n) for e in range(num_edges(n))]
    us, vs = _endpoints(MAX_N)
    m = num_edges(MAX_N)
    assert len(us) == len(vs) == m
    for eid in (*range(MAX_N + 1), *range(m - MAX_N - 1, m)):
        assert (us[eid], vs[eid]) == edge_of(eid, MAX_N)


def test_replay_reproduces_final_claims():
    class Keeper(RandomStrategy):  # keeps the live board
        def next_move(self, state, player):
            self.state = state
            return super().next_move(state, player)

    builder = Keeper(1)
    tr = play_match(builder, RandomStrategy(2), rules(6, triangle_prop()))
    state = replay(tr, triangle_prop())
    assert state.claims == builder.state.claims
    assert state.log == tr.log and state.adj == builder.state.adj
    assert tr.final_codes() == state.claims


def test_final_codes_read_the_log_on_odd_ended_and_stopped_boards():
    # n = 5 has m = 10 edges, n = 6 an odd m = 15 that Avoider ends;
    # K3 stops a match early, and capped matches stop mid-board
    for n in (2, 5, 6, 9):
        for prop, cap in ((NotKColorableProperty(n), None), (triangle_prop(), None),
                          (NotKColorableProperty(n), 2)):
            tr = play_match(RandomStrategy(n), RandomStrategy(1), rules(n, prop), max_rounds=cap)
            assert tr.final_codes() == replay(tr, prop).claims


def test_illegal_strategy_is_diagnosed():
    class Cheater:
        descriptor = "cheat"
        last_note = None

        def __init__(self, moves):
            self.moves = iter(moves)

        def next_move(self, state, player):
            return next(self.moves)

    for moves, why in (
        ([0, 0], r"edge \(0,1\) already claimed"),  # a repeated id
        ([6], r"in range\(6\), not 6"),  # off the board
        ([(0, 2)], r"in range\(6\), not \(0, 2\)"),  # a pair is not a move
    ):
        with pytest.raises(IllegalMoveError, match="strategy 'cheat' returned illegal move .*" + why):
            play_match(Cheater(moves), FirstAvailableStrategy(), rules(4, prop=triangle_prop()))

