"""State machine for unbiased edge games on K_n.

Two players alternately claim edges of K_n. Under the avoider-enforcer
convention the property is evaluated on Avoider's graph immediately after
each Avoider move; under maker-breaker it is Maker's graph after each Maker
move. Internally the property-graph owner is the builder (claim code 1)
and the other player is the opponent (code 2); the convention only changes
the role labels.

The builder moves first by default. Round r is complete once both players
hold r edges; with an odd board the first mover takes the final unpaired
edge and the match ends mid-round.

One `Board` holds who claimed which edge for play, the strategies, the
exact solver and the sweep monitor; its `claim` and `undo` are the only
writers of claim codes, masks and counts.

A move is an edge id, the index of (u, v) in `edge_pairs(n)`, from the
strategy through `apply_move` to `GameState.log`, the match's record. Pairs
appear only where a person reads them: transcript lines and error messages.
"""

from __future__ import annotations

import functools
import json
from array import array
from dataclasses import dataclass
from typing import Optional

import numpy as np

# The detectors call the kernel by these names: bench/spans.py wraps them here.
from .graphs import (
    ColouringCertificate,
    Graph,
    _trusted_graph,
    contains_induced,
    contains_subgraph,
    contains_subgraph_with_edge,
    edge_pairs,
    greedy_coloring,  # noqa: F401 -- unused here, but bench/spans.py wraps it
    is_k_colorable,  # noqa: F401 -- unused here, but bench/spans.py wraps it
    k_coloring,
    chromatic_number,
)

AVOIDER_ENFORCER = "avoider-enforcer"
MAKER_BREAKER = "maker-breaker"

UNCLAIMED = 0
BUILDER = 1  # Avoider / Maker
OPPONENT = 2  # Enforcer / Breaker

MAX_N = 2000  # largest board: ~2 M edges; GameState plus _incidence peak near 300 MB

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
    """Detects whether the builder's graph has the target property.

    `holds(G)` is the full recomputation. `hit_after_masks(n, adj, u, v)` is
    `holds` on the builder's masks just after it claimed uv, and may look only
    for what uv created: its precondition is that the property did not hold
    before. Play keeps it (`require_absent` at the start, stop at the first
    hit). The engine calls only `hit_after_state`, after the builder claimed
    edge id eid; subclasses leave it alone.
    """

    descriptor = "?"

    def holds(self, G: Graph) -> bool:
        raise NotImplementedError

    def hit_after_masks(self, n: int, adj, u: int, v: int) -> bool:
        return self.holds(_trusted_graph(n, adj))

    def hit_after_state(self, state: "GameState", eid: int) -> bool:
        return self.hit_after_masks(state.n, state.adj[BUILDER], *state.pairs[eid])


def require_absent(prop: PropertyDetector, n: int, adj) -> None:
    """Raise ValueError unless the property is absent from the builder's masks."""
    if prop.holds(_trusted_graph(n, adj)):
        raise ValueError("the builder's graph already has the property")


class HasEdgeProperty(PropertyDetector):
    descriptor = "edge"

    def holds(self, G: Graph) -> bool:
        return any(G.adj)

    def hit_after_masks(self, n: int, adj, u: int, v: int) -> bool:
        return True


class SubgraphProperty(PropertyDetector):
    """Some member of the family occurs as a (not necessarily induced)
    subgraph, or as an induced subgraph when the class sets `induced`."""

    induced = False

    def __init__(self, members, descriptor: Optional[str] = None):
        self.members = list(members)
        if not self.members:
            raise ValueError("empty family")
        self.k = min(chromatic_number(F) for F in self.members)
        designated = next(F for F in self.members if chromatic_number(F) == self.k)
        self.f = designated.n
        self.descriptor = descriptor or ("induced" if self.induced else "subgraph") + ":<family>"
        self._triangle_only = all(F.n == 3 and F.edge_count() == 3 for F in self.members)
        # a (k-1)-colouring of the builder's graph proves every member absent
        self._cert = ColouringCertificate(self.k - 1) if self.k >= 3 else None

    def holds(self, G: Graph) -> bool:
        find = contains_induced if self.induced else contains_subgraph
        return any(find(G, F) is not None for F in self.members)

    def hit_after_masks(self, n: int, adj, u: int, v: int) -> bool:
        # a copy that is new after uv contains u and v; in an induced copy uv
        # is then the image of an F-edge, so the anchored search finds it
        if self._triangle_only:
            return bool(adj[u] & adj[v])
        if self._cert is not None and self._cert.proves(adj):
            return False
        G = _trusted_graph(n, adj)
        return any(
            contains_subgraph_with_edge(G, F, u, v, induced=self.induced) is not None
            for F in self.members
        )


class InducedSubgraphProperty(SubgraphProperty):
    """Some member of the family occurs as an induced subgraph."""

    induced = True


class NotKColorableProperty(PropertyDetector):
    """The builder's graph is not k-colourable. The k-colouring that last
    proved it colourable is kept across calls; only when it broke and
    recolouring (exact for k <= 2) fails does the exact search run, and a
    colouring it finds is kept in turn."""

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.descriptor = "nc:%d" % k
        self._cert = ColouringCertificate(k)

    def holds(self, G: Graph) -> bool:
        return not self._colourable(G.n, G.adj)

    def hit_after_masks(self, n: int, adj, u: int, v: int) -> bool:
        return not self._colourable(n, adj)

    def _colourable(self, n: int, adj) -> bool:
        # every graph on n vertices is n-colorable
        if self.k >= n or self._cert.proves(adj):
            return True
        if self.k <= 2:
            return False
        colours = k_coloring(_trusted_graph(n, adj), self.k)
        if colours is None:
            return False
        self._cert.keep(colours)
        return True


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
        if self.n > MAX_N:
            raise ValueError("board needs n <= %d" % MAX_N)
        if self.convention not in (AVOIDER_ENFORCER, MAKER_BREAKER):
            raise ValueError("unknown convention %r" % self.convention)
        if self.first_mover not in (BUILDER, OPPONENT):
            raise ValueError("first_mover must be BUILDER or OPPONENT")

    def role_name(self, player: int) -> str:
        return _ROLE_NAMES[self.convention][player]


@functools.lru_cache(maxsize=8)
def _pairs(n: int) -> list:
    """edge_pairs(n), shared by the boards on n vertices; never mutated."""
    return edge_pairs(n)


@functools.lru_cache(maxsize=8)
def _incidence(n: int):
    """The n x n edge-id table of K_n, shared and never mutated.

    `inc[w, x]` is the id of edge wx, and the diagonal `inc[w, w]` is m, one
    slot past the last edge id, so a row of `inc` lines up with a vertex
    vector. It is intp, the dtype numpy indexes with, since JumbleG gathers
    rows of it on every move.
    """
    m = n * (n - 1) // 2
    inc = np.full((n, n), m, dtype=np.intp)
    u, v = np.triu_indices(n, 1)  # edge ids in order
    inc[u, v] = inc[v, u] = np.arange(m)
    return inc


class Board:
    """Who claimed which edge of K_n; `claim` and `undo` are its only writers.

    `claims` holds one claim code per edge id (fast scalar reads) and `codes`
    is a zero-copy int8 numpy view of the same buffer (vector reads). `adj`
    holds both players' adjacency masks. The exact solver also sets `key` to
    `codes @ W` and `rows` to the weight rows per player; while `key` is set,
    claim and undo keep it equal to `codes @ W`.
    """

    def __init__(self, n: int, first_mover: int = BUILDER):
        self.n = n
        self.first = first_mover
        self.pairs = _pairs(n)
        self.m = len(self.pairs)
        self.claims = bytearray(self.m)
        self.codes = np.frombuffer(self.claims, dtype=np.int8)
        self.adj = {BUILDER: [0] * n, OPPONENT: [0] * n}
        self.counts = {BUILDER: 0, OPPONENT: 0}
        self.unclaimed = self.m
        self.key = self.rows = None

    def claim(self, eid: int, player: int) -> None:
        self.claims[eid] = player
        u, v = self.pairs[eid]
        adj = self.adj[player]
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        self.counts[player] += 1
        self.unclaimed -= 1
        if self.key is not None:
            self.key += self.rows[player][eid]

    def undo(self, eid: int, player: int) -> None:
        self.claims[eid] = UNCLAIMED
        u, v = self.pairs[eid]
        adj = self.adj[player]
        adj[u] ^= 1 << v
        adj[v] ^= 1 << u
        self.counts[player] -= 1
        self.unclaimed += 1
        if self.key is not None:
            self.key -= self.rows[player][eid]

    @property
    def round(self) -> int:
        """Completed rounds: both players hold at least this many edges."""
        return min(self.counts[BUILDER], self.counts[OPPONENT])

    def whose_turn(self) -> Optional[int]:
        if self.unclaimed == 0:
            return None
        if self.counts[BUILDER] == self.counts[OPPONENT]:
            return self.first
        return OPPONENT if self.first == BUILDER else BUILDER

    def builder_graph(self) -> Graph:
        return _trusted_graph(self.n, self.adj[BUILDER])

    def opponent_graph(self) -> Graph:
        return _trusted_graph(self.n, self.adj[OPPONENT])


class GameState(Board):
    """A board under a match's rules, plus `log`, the claimed edge ids in
    move order (an int32 array). apply_move is its only writer and mutates it
    in place; the incremental strategies read what it appended to `log`
    since their last call."""

    def __init__(self, rules: GameRules):
        super().__init__(rules.n, rules.first_mover)
        self.rules = rules
        self.log = array("i")  # int32 edge ids: a list would hold an int object per move


def apply_move(state: GameState, player: int, eid: int) -> GameState:
    """Claim edge id `eid` for `player` in place and append it to `state.log`.
    Raises IllegalMoveError out of turn or on a claimed edge, and ValueError
    on anything but an int in range(m)."""
    if player not in (BUILDER, OPPONENT):
        raise IllegalMoveError("unknown player %r" % player)
    if not isinstance(eid, int) or not 0 <= eid < state.m:
        raise ValueError("a move is an int edge id in range(%d), not %r" % (state.m, eid))
    turn = state.whose_turn()
    if turn != player:
        raise IllegalMoveError(
            "out of turn: %s moved, %s expected"
            % (state.rules.role_name(player), state.rules.role_name(turn) if turn else "nobody")
        )
    if state.claims[eid] != UNCLAIMED:
        raise IllegalMoveError("edge (%d,%d) already claimed" % state.pairs[eid])
    state.claim(eid, player)
    state.log.append(eid)
    return state


_encode = json.JSONEncoder(sort_keys=True).encode  # json.dumps builds one per call


@dataclass
class Transcript:
    """A match: header fields, the claim log, the strategies' notes by move
    index, and the outcome. Turns alternate, so move i is the first mover's
    iff i is even, and it is that player's (i // 2 + 1)-th."""
    n: int
    convention: str
    first_mover: int  # BUILDER or OPPONENT
    property_descriptor: str
    seed: Optional[int]
    log: array  # int32 edge ids
    notes: dict  # move index -> note
    result: str  # "hit" | "never" | "capped"
    t: int  # hitting round, -1 unless hit

    def to_jsonl(self) -> str:
        names = _ROLE_NAMES[self.convention]
        roles = (names[self.first_mover], names[BUILDER + OPPONENT - self.first_mover])
        header = {
            "type": "header",
            "n": self.n,
            "convention": self.convention,
            "first_mover": roles[0],
            "property": self.property_descriptor,
            "seed": self.seed,
        }
        # a move without a note, in the sorted-key layout _encode gives it
        plain = [
            '{"role": %s, "round": %%d, "type": "move", "u": %%d, "v": %%d}' % _encode(role)
            for role in roles
        ]
        lines = [_encode(header)]
        pairs = _pairs(self.n)
        for i, eid in enumerate(self.log):
            u, v = pairs[eid]
            if i in self.notes:
                rec = {"type": "move", "round": i // 2 + 1, "role": roles[i & 1], "u": u, "v": v,
                       "note": self.notes[i]}
                lines.append(_encode(rec))
            else:
                lines.append(plain[i & 1] % (i // 2 + 1, u, v))
        lines.append(_encode({"type": "outcome", "result": self.result, "t": self.t}))
        return "\n".join(lines) + "\n"


def replay(transcript: Transcript, prop: PropertyDetector) -> GameState:
    """The final position: the transcript's log applied move by move."""
    state = GameState(GameRules(transcript.n, prop, transcript.convention, transcript.first_mover))
    for eid in transcript.log:
        apply_move(state, state.whose_turn(), eid)
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
    creates the property, "never" if the board is exhausted without it, or
    "capped" (t = -1) if max_rounds builder moves were made without it while
    edges were still unclaimed. Raises ValueError if max_rounds < 1 or if the
    property holds on the empty graph.
    """
    if max_rounds is not None and max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    state = GameState(rules)
    require_absent(rules.prop, state.n, state.adj[BUILDER])
    strategies = {BUILDER: builder_strategy, OPPONENT: opponent_strategy}
    notes = {}
    result, t = "never", -1
    while True:
        player = state.whose_turn()
        if player is None:
            break
        strat = strategies[player]
        eid = strat.next_move(state, player)
        note = getattr(strat, "last_note", None)
        try:
            apply_move(state, player, eid)
        except (IllegalMoveError, ValueError) as exc:
            raise IllegalMoveError(
                "strategy %r returned illegal move %r: %s" % (strat.descriptor, eid, exc)
            ) from exc
        if note:
            notes[len(state.log) - 1] = note
        if player == BUILDER:
            if rules.prop.hit_after_state(state, eid):
                result, t = "hit", state.counts[BUILDER]
                break
            if state.counts[BUILDER] == max_rounds and state.unclaimed:
                result = "capped"
                break
    return Transcript(
        n=rules.n,
        convention=rules.convention,
        first_mover=rules.first_mover,
        property_descriptor=rules.prop.descriptor,
        seed=seed,
        log=state.log,
        notes=notes,
        result=result,
        t=t,
    )
