"""State machine for unbiased edge games on K_n.

Two players alternately claim edges of K_n. Under the avoider-enforcer
convention the property is evaluated on Avoider's graph immediately after
each Avoider move; under maker-breaker it is Maker's graph after each Maker
move. Internally the property-graph owner is "player 0" (the builder) and
the opponent is "player 1"; the convention only changes the role labels.

The builder moves first by default. Round r is complete once both players
hold r edges; with an odd board the first mover takes the final unpaired
edge and the match ends mid-round.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graphs import (
    Graph,
    contains_induced,
    contains_subgraph,
    contains_subgraph_with_edge,
    edge_index,
    edge_pairs,
    greedy_coloring,
    is_k_colorable,
    chromatic_number,
    num_edges,
)

AVOIDER_ENFORCER = "avoider-enforcer"
MAKER_BREAKER = "maker-breaker"

UNCLAIMED = 0
BUILDER = 1  # Avoider / Maker
OPPONENT = 2  # Enforcer / Breaker

_ROLE_NAMES = {
    AVOIDER_ENFORCER: {BUILDER: "avoider", OPPONENT: "enforcer"},
    MAKER_BREAKER: {BUILDER: "maker", OPPONENT: "breaker"},
}


class IllegalMoveError(Exception):
    """A strategy or caller produced an illegal move."""


# ---------------------------------------------------------------------------
# Property detectors (evaluated on the builder's graph)
# ---------------------------------------------------------------------------

class PropertyDetector:
    """Detects whether the builder's graph has acquired the target property.

    `holds` is a full recomputation; `hit_after` may use the newly added edge
    as an anchor, which is sound during play because the match stops at the
    first hit (so the property did not hold before the move).
    """

    descriptor = "?"

    def holds(self, G: Graph) -> bool:
        raise NotImplementedError

    def hit_after(self, G: Graph, u: int, v: int) -> bool:
        return self.holds(G)

    def hit_after_masks(self, n: int, adj, u: int, v: int) -> bool:
        """Same check on raw adjacency masks; overrides skip the per-move
        Graph construction on hot paths (engine loop, solver nodes)."""
        return self.hit_after(Graph(n, tuple(adj)), u, v)

    def hit_after_state(self, state: "GameState", u: int, v: int) -> bool:
        return self.hit_after_masks(state.n, state.adj[BUILDER], u, v)


class HasEdgeProperty(PropertyDetector):
    descriptor = "edge"

    def holds(self, G: Graph) -> bool:
        return any(G.adj)

    def hit_after(self, G: Graph, u: int, v: int) -> bool:
        return True


class SubgraphProperty(PropertyDetector):
    """Some member of the family occurs as a (not necessarily induced) subgraph."""

    def __init__(self, members, descriptor: Optional[str] = None):
        self.members = list(members)
        if not self.members:
            raise ValueError("empty family")
        self.k = min(chromatic_number(F) for F in self.members)
        designated = next(F for F in self.members if chromatic_number(F) == self.k)
        self.f = designated.n
        self.descriptor = descriptor or "subgraph:<family>"
        self._triangle_only = all(
            F.n == 3 and F.edge_count() == 3 for F in self.members
        )

    def holds(self, G: Graph) -> bool:
        return any(contains_subgraph(G, F) is not None for F in self.members)

    def hit_after(self, G: Graph, u: int, v: int) -> bool:
        if self._triangle_only:
            return bool(G.adj[u] & G.adj[v])
        return any(
            contains_subgraph_with_edge(G, F, u, v) is not None for F in self.members
        )

    def hit_after_masks(self, n: int, adj, u: int, v: int) -> bool:
        if self._triangle_only:
            return bool(adj[u] & adj[v])
        return self.hit_after(Graph(n, tuple(adj)), u, v)


class InducedSubgraphProperty(PropertyDetector):
    """Some member of the family occurs as an induced subgraph."""

    def __init__(self, members, descriptor: Optional[str] = None):
        self.members = list(members)
        if not self.members:
            raise ValueError("empty family")
        self.k = min(chromatic_number(F) for F in self.members)
        designated = next(F for F in self.members if chromatic_number(F) == self.k)
        self.f = designated.n
        self.descriptor = descriptor or "induced:<family>"

    def holds(self, G: Graph) -> bool:
        return any(contains_induced(G, F) is not None for F in self.members)


class NotKColorableProperty(PropertyDetector):
    def __init__(self, k: int):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.descriptor = "nc:%d" % k

    def holds(self, G: Graph) -> bool:
        return not is_k_colorable(G, self.k)

    def hit_after(self, G: Graph, u: int, v: int) -> bool:
        if self.k >= G.n:
            return False  # every graph on n vertices is n-colorable
        # cheap positive certificate first; exact search only when greedy fails
        colors = greedy_coloring(G)
        if max(colors, default=-1) + 1 <= self.k:
            return False
        return not is_k_colorable(G, self.k)

    def hit_after_masks(self, n: int, adj, u: int, v: int) -> bool:
        if self.k >= n:
            return False
        return self.hit_after(Graph(n, tuple(adj)), u, v)


# ---------------------------------------------------------------------------
# Rules, state, transcripts
# ---------------------------------------------------------------------------

@dataclass
class GameRules:
    n: int
    prop: PropertyDetector
    convention: str = AVOIDER_ENFORCER
    first_mover: int = BUILDER

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("board needs n >= 2")
        if self.convention not in (AVOIDER_ENFORCER, MAKER_BREAKER):
            raise ValueError("unknown convention %r" % self.convention)
        if self.first_mover not in (BUILDER, OPPONENT):
            raise ValueError("first_mover must be BUILDER or OPPONENT")

    def role_name(self, player: int) -> str:
        return _ROLE_NAMES[self.convention][player]


_ENDPOINT_CACHE: dict = {}


def _endpoints(n: int):
    """(u_idx, v_idx) numpy arrays over edge ids, cached per n."""
    if n not in _ENDPOINT_CACHE:
        pairs = edge_pairs(n)
        _ENDPOINT_CACHE[n] = (
            np.array([p[0] for p in pairs], dtype=np.int64),
            np.array([p[1] for p in pairs], dtype=np.int64),
        )
    return _ENDPOINT_CACHE[n]


class GameState:
    """Claim status per edge of K_n plus derived per-player structure.

    apply_move mutates in place (and returns self): full matches on boards of
    a few hundred vertices are too hot for copy-per-move. Use `copy()` when a
    snapshot is needed; the exact solver keeps its own undo stack instead.
    """

    def __init__(self, rules: GameRules):
        self.rules = rules
        n = rules.n
        self.n = n
        self.claims = np.zeros(num_edges(n), dtype=np.int8)
        self.adj = {BUILDER: [0] * n, OPPONENT: [0] * n}
        self.deg = {
            BUILDER: np.zeros(n, dtype=np.int64),
            OPPONENT: np.zeros(n, dtype=np.int64),
        }
        self.counts = {BUILDER: 0, OPPONENT: 0}
        self.unclaimed = num_edges(n)

    def copy(self) -> "GameState":
        other = GameState.__new__(GameState)
        other.rules = self.rules
        other.n = self.n
        other.claims = self.claims.copy()
        other.adj = {p: list(rows) for p, rows in self.adj.items()}
        other.deg = {p: d.copy() for p, d in self.deg.items()}
        other.counts = dict(self.counts)
        other.unclaimed = self.unclaimed
        return other

    @property
    def round(self) -> int:
        """Completed rounds: both players hold at least this many edges."""
        return min(self.counts[BUILDER], self.counts[OPPONENT])

    def whose_turn(self) -> Optional[int]:
        first = self.rules.first_mover
        second = OPPONENT if first == BUILDER else BUILDER
        if self.unclaimed == 0:
            return None
        return first if self.counts[first] == self.counts[second] else second

    def builder_graph(self) -> Graph:
        return Graph(self.n, tuple(self.adj[BUILDER]))

    def opponent_graph(self) -> Graph:
        return Graph(self.n, tuple(self.adj[OPPONENT]))


def new_game(rules: GameRules) -> GameState:
    return GameState(rules)


def apply_move(state: GameState, player: int, edge) -> GameState:
    u, v = edge
    if player not in (BUILDER, OPPONENT):
        raise IllegalMoveError("unknown player %r" % player)
    eid = edge_index(u, v, state.n)  # raises ValueError on malformed edges
    turn = state.whose_turn()
    if turn != player:
        raise IllegalMoveError(
            "out of turn: %s moved, %s expected"
            % (state.rules.role_name(player), state.rules.role_name(turn) if turn else "nobody")
        )
    if state.claims[eid] != UNCLAIMED:
        raise IllegalMoveError("edge (%d,%d) already claimed" % (u, v))
    state.claims[eid] = player
    state.adj[player][u] |= 1 << v
    state.adj[player][v] |= 1 << u
    state.deg[player][u] += 1
    state.deg[player][v] += 1
    state.counts[player] += 1
    state.unclaimed -= 1
    return state


def avoider_graph(state: GameState) -> Graph:
    return state.builder_graph()


def enforcer_graph(state: GameState) -> Graph:
    return state.opponent_graph()


@dataclass
class Transcript:
    n: int
    convention: str
    first_mover: str
    property_descriptor: str
    seed: Optional[int]
    moves: list  # (round, role_name, u, v, note)
    result: str  # "hit" | "never"
    t: int  # hitting round, -1 when never
    final_claims: tuple

    def to_jsonl(self) -> str:
        records = [
            {
                "type": "header",
                "n": self.n,
                "convention": self.convention,
                "first_mover": self.first_mover,
                "property": self.property_descriptor,
                "seed": self.seed,
            }
        ]
        for rnd, role, u, v, note in self.moves:
            rec = {"type": "move", "round": rnd, "role": role, "u": u, "v": v}
            if note:
                rec["note"] = note
            records.append(rec)
        records.append({"type": "outcome", "result": self.result, "t": self.t})
        return "\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n"


def replay(transcript: Transcript, prop: PropertyDetector) -> GameState:
    """Rebuild the final state from a transcript's move list."""
    first = BUILDER
    for player, name in _ROLE_NAMES[transcript.convention].items():
        if name == transcript.first_mover:
            first = player
    rules = GameRules(
        n=transcript.n, prop=prop, convention=transcript.convention, first_mover=first
    )
    state = new_game(rules)
    names = {v: k for k, v in _ROLE_NAMES[transcript.convention].items()}
    for _, role, u, v, _ in transcript.moves:
        apply_move(state, names[role], (u, v))
    return state


def play_match(
    builder_strategy,
    opponent_strategy,
    rules: GameRules,
    max_rounds: Optional[int] = None,
    seed: Optional[int] = None,
) -> Transcript:
    """Play a full match; the builder's graph is checked after each builder move.

    Returns a transcript with the hitting round of the first builder move that
    creates the property, or "never" if the board is exhausted (or max_rounds
    builder moves were made) without it. Raises ValueError if max_rounds < 1.
    """
    if max_rounds is None:
        max_rounds = num_edges(rules.n)
    elif max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    state = new_game(rules)
    strategies = {BUILDER: builder_strategy, OPPONENT: opponent_strategy}
    moves = []
    result, t = "never", -1
    while True:
        player = state.whose_turn()
        if player is None:
            break
        strat = strategies[player]
        u, v = strat.next_move(state, player)
        note = getattr(strat, "last_note", None)
        try:
            apply_move(state, player, (u, v))
        except (IllegalMoveError, ValueError) as exc:
            raise IllegalMoveError(
                "strategy %r returned illegal move (%r,%r): %s"
                % (strat.descriptor, u, v, exc)
            ) from exc
        rnd = state.counts[player]
        moves.append((rnd, rules.role_name(player), u, v, note))
        if player == BUILDER:
            if rules.prop.hit_after_state(state, u, v):
                result, t = "hit", state.counts[BUILDER]
                break
            if state.counts[BUILDER] >= max_rounds:
                break
    return Transcript(
        n=rules.n,
        convention=rules.convention,
        first_mover=rules.role_name(rules.first_mover),
        property_descriptor=rules.prop.descriptor,
        seed=seed,
        moves=moves,
        result=result,
        t=t,
        final_claims=tuple(int(c) for c in state.claims),
    )
