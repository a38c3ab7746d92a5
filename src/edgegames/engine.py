"""State machine for unbiased edge games on K_n.

Avoider and Enforcer alternately claim edges of K_n, and the property is
evaluated on Avoider's graph immediately after each Avoider move.
Internally Avoider is the builder (claim code 1), whose graph the property
is read on, and Enforcer the opponent (code 2).

Avoider always moves first. Round r is complete once both players hold r
edges; with an odd board Avoider takes the final unpaired edge and the
match ends mid-round.

One `Board` holds who claimed which edge for play, the strategies and the
exact solver, one claim code byte per edge id. Play writes it only through
`apply_move`, which calls `Board.claim`; the solver's search claims its
start through `Board.claim` and then writes the claim bytes and the
builder's masks of its own board itself, restoring them after each child.
The strategies rebuild their own state only by replaying `GameState.log`.
This layer needs no numpy: the solver and the sweep monitor view a claim
record themselves.

A move is an edge id, the index of (u, v) in `edge_pairs(n)`, from the
strategy through `apply_move` to `GameState.log`, the match's record. Its
endpoints are `us[eid]` and `vs[eid]`, two uint16 tables shared by every
board on n vertices. Pairs appear only where a person reads them:
transcript lines and error messages.
"""

from __future__ import annotations

import functools
import json
from array import array
from dataclasses import dataclass
from typing import Optional

# The detectors call the kernel by these names: bench/spans.py wraps them here.
from .graphs import (
    MAX_N,
    ColouringCertificate,
    Graph,
    _trusted_graph,
    contains_induced,
    contains_subgraph,
    contains_subgraph_with_edge,
    greedy_coloring,  # noqa: F401 -- unused here, but bench/spans.py wraps it
    is_k_colorable,  # noqa: F401 -- unused here, but bench/spans.py wraps it
    chromatic_number,
)

UNCLAIMED = 0
BUILDER = 1  # Avoider
OPPONENT = 2  # Enforcer

assert MAX_N < 2**16  # the endpoint tables hold vertices as uint16

_ROLES = (None, "avoider", "enforcer")  # role name by claim code

# The game fields of a transcript header and a `solve` record: one game,
# one turn order.
GAME_FIELDS = {"convention": "avoider-enforcer", "first_mover": _ROLES[BUILDER]}


class IllegalMoveError(Exception):
    """A strategy or caller produced an illegal move."""


# ---------------------------------------------------------------------------
# Property detectors (evaluated on the builder's graph)
# ---------------------------------------------------------------------------

class PropertyDetector:
    """Detects whether the builder's graph has the target property: a
    member of a pattern family occurs (`SubgraphProperty`, induced or not),
    or the graph is not k-colourable (`NotKColorableProperty`).

    `holds(G)` is the full recomputation. `hit_after_masks(n, adj, u, v)` is
    `holds` on the builder's masks just after it claimed uv, and may look only
    for what uv created: its precondition is that the property did not hold
    before. Play keeps it (`require_absent` at the start, stop at the first
    hit). The engine calls only `hit_after_state`, after the builder claimed
    edge id eid, and not at all on a board of fewer than `chi` vertices;
    subclasses leave it alone.

    The colouring certificate is the detectors', not the kernel's: one of
    `chi` >= 3 keeps a `ColouringCertificate` across calls and asks it
    before any search, as a (chi-1)-colourable graph lacks the property.
    """

    descriptor = "?"
    chi: int  # least chromatic number of a graph with the property; every detector sets it

    def holds(self, G: Graph) -> bool:
        raise NotImplementedError

    def hit_after_masks(self, n: int, adj, u: int, v: int) -> bool:
        return self.holds(_trusted_graph(n, adj))

    def hit_after_state(self, state: "GameState", eid: int) -> bool:
        return self.hit_after_masks(state.n, state.adj, state.us[eid], state.vs[eid])


def require_absent(prop: PropertyDetector, n: int, adj) -> None:
    """Raise ValueError unless the property is absent from the builder's masks."""
    if prop.holds(_trusted_graph(n, adj)):
        raise ValueError("the builder's graph already has the property")


class SubgraphProperty(PropertyDetector):
    """Some member of the family occurs as a (not necessarily induced)
    subgraph, or as an induced subgraph when the class sets `induced`."""

    induced = False

    def __init__(self, members, descriptor: Optional[str] = None):
        self.members = list(members)
        if not self.members:
            raise ValueError("empty family")
        self.chi = min(chromatic_number(F) for F in self.members)
        self.descriptor = descriptor or ("induced" if self.induced else "subgraph") + ":<family>"
        self._triangle_only = all(F.n == 3 and F.edge_count() == 3 for F in self.members)
        # a (chi-1)-colouring of the builder's graph proves every member absent
        self._cert = ColouringCertificate(self.chi - 1) if self.chi >= 3 else None

    def holds(self, G: Graph) -> bool:
        if self._cert is not None and self._cert.proves(G.adj):
            return False
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
    """The builder's graph is not k-colourable. Its certificate recolours
    exactly (DSATUR with backtracking for k >= 3): the k-colouring that
    last proved the graph colourable is kept across calls, and a graph that
    contains one the exact search failed on is not k-colourable either. At
    k >= n it proves every graph colourable with n colours: DSATUR's first
    descent opens at most one colour per vertex."""

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.chi = k + 1
        self.descriptor = "nc:%d" % k
        self._cert = ColouringCertificate(k, exact=True)

    def holds(self, G: Graph) -> bool:
        return not self._cert.proves(G.adj)

    def hit_after_masks(self, n: int, adj, u: int, v: int) -> bool:
        return not self._cert.proves(adj)


# ---------------------------------------------------------------------------
# Rules, state, transcripts
# ---------------------------------------------------------------------------

@dataclass
class GameRules:
    n: int
    prop: PropertyDetector

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("board needs n >= 2")
        if self.n > MAX_N:
            raise ValueError("board needs n <= %d" % MAX_N)


@functools.lru_cache(maxsize=8)
def _endpoints(n: int):
    """(us, vs): uint16 arrays with (us[e], vs[e]) == edge_pairs(n)[e],
    shared by the boards on n vertices and never mutated. An `array`, not
    numpy, so that indexing hands back plain ints."""
    ramp = array("H", range(n))
    us, vs = array("H"), array("H")
    for u in range(n - 1):
        us.extend(array("H", [u]) * (n - 1 - u))
        vs.extend(ramp[u + 1:])
    return us, vs


class Board:
    """Who claimed which edge of K_n. Play writes it through `apply_move`,
    which calls `claim`; the solver's search writes the claim bytes and
    masks of its own board below the start and restores them, leaving
    `unclaimed` at the start. Turns alternate from Avoider, so `whose_turn`
    is the parity of the claim total, also on a board that raw `claim`
    calls left off that sequence.

    `claims` holds one claim code per edge id, a bytearray: scalar reads
    index it, and `claims.find(code, start)` walks to the next edge with a
    code. Edge eid joins `us[eid]` and `vs[eid]`, read-only uint16 tables
    shared by the boards on n vertices. `adj` holds the builder's adjacency
    masks, the only graph the detectors read; the opponent's is built on
    demand. A board holds no Python object per edge.
    """

    def __init__(self, n: int):
        self.n = n
        self.us, self.vs = _endpoints(n)
        self.m = len(self.us)
        self.claims = bytearray(self.m)
        self.adj = [0] * n  # the builder's masks
        self.unclaimed = self.m

    def claim(self, eid: int, player: int) -> None:
        self.claims[eid] = player
        if player == BUILDER:
            u, v, adj = self.us[eid], self.vs[eid], self.adj
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.unclaimed -= 1

    def whose_turn(self) -> Optional[int]:
        if self.unclaimed == 0:
            return None
        return OPPONENT if (self.m - self.unclaimed) & 1 else BUILDER

    def builder_graph(self) -> Graph:
        return _trusted_graph(self.n, self.adj)

    def opponent_graph(self) -> Graph:
        """The opponent's graph, built from the claim codes."""
        adj, us, vs, find = [0] * self.n, self.us, self.vs, self.claims.find
        eid = find(OPPONENT)
        while eid >= 0:
            u, v = us[eid], vs[eid]
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            eid = find(OPPONENT, eid + 1)
        return _trusted_graph(self.n, adj)


class GameState(Board):
    """A board under a match's rules, plus `log`, the claimed edge ids in
    move order (an int32 array). `apply_move` is its only writer, so `log`
    lists every claim on the board, and the strategies build their state
    from it alone: the whole log on their first call on a board, then what
    it gained since."""

    def __init__(self, rules: GameRules):
        super().__init__(rules.n)
        self.rules = rules
        self.log = array("i")  # int32 edge ids: a list would hold an int object per move


def apply_move(state: GameState, player: int, eid: int) -> GameState:
    """Claim edge id `eid` for `player` in place and append it to `state.log`.
    Raises IllegalMoveError out of turn or on a claimed edge, and ValueError
    on anything but an int in range(m); a bool is not an edge id."""
    if player not in (BUILDER, OPPONENT):
        raise IllegalMoveError("unknown player %r" % player)
    if not isinstance(eid, int) or isinstance(eid, bool) or not 0 <= eid < state.m:
        raise ValueError("a move is an int edge id in range(%d), not %r" % (state.m, eid))
    turn = state.whose_turn()
    if turn != player:
        raise IllegalMoveError(
            "out of turn: %s moved, %s expected"
            % (_ROLES[player], _ROLES[turn] if turn else "nobody")
        )
    if state.claims[eid] != UNCLAIMED:
        raise IllegalMoveError("edge (%d,%d) already claimed" % (state.us[eid], state.vs[eid]))
    state.claim(eid, player)
    state.log.append(eid)
    return state


_encode = json.JSONEncoder(sort_keys=True).encode  # json.dumps builds one per call
_CHUNK = 4096  # move lines that to_jsonl formats per write


@dataclass
class Transcript:
    """A match: header fields, the claim log, the strategies' notes by move
    index, and the outcome. Turns alternate, so move i is Avoider's iff i
    is even, and it is that player's (i // 2 + 1)-th."""
    n: int
    property_descriptor: str
    seed: Optional[int]
    log: array  # int32 edge ids
    notes: dict  # move index -> note
    result: str  # "hit" | "never" | "capped"
    t: int  # hitting round, -1 unless hit

    def to_jsonl(self, out=None) -> Optional[str]:
        """The match as JSONL: a header line, a line per move and an outcome
        line, each the sorted-key JSON encoding of its record. With a text
        stream `out` the lines are written to it, at most _CHUNK move lines
        per write, so the whole text is never held at once; without one it
        is returned."""
        parts = []
        write = parts.append if out is None else out.write
        header = {
            "type": "header",
            "n": self.n,
            **GAME_FIELDS,
            "property": self.property_descriptor,
            "seed": self.seed,
        }
        write(_encode(header) + "\n")
        # a move in the sorted-key layout _encode gives it; a note sorts first
        move = [
            '{%%s"role": %s, "round": %%d, "type": "move", "u": %%d, "v": %%d}' % _encode(role)
            for role in _ROLES[1:]
        ]
        us, vs = _endpoints(self.n)
        log, notes = self.log, self.notes
        for start in range(0, len(log), _CHUNK):
            lines = []
            for i, eid in enumerate(log[start:start + _CHUNK], start):
                note = '"note": %s, ' % _encode(notes[i]) if i in notes else ""
                lines.append(move[i & 1] % (note, i // 2 + 1, us[eid], vs[eid]))
            lines.append("")
            write("\n".join(lines))
        write(_encode({"type": "outcome", "result": self.result, "t": self.t}) + "\n")
        return "".join(parts) if out is None else None

    def final_codes(self) -> bytearray:
        """The final board's claim code per edge id, a bytearray laid out
        like `Board.claims`, read straight off the log: even move indices
        are Avoider's."""
        codes = bytearray(self.n * (self.n - 1) // 2)
        player = (BUILDER, OPPONENT)
        for i, eid in enumerate(self.log):
            codes[eid] = player[i & 1]
        return codes


def replay(transcript: Transcript, prop: PropertyDetector) -> GameState:
    """The final position: the transcript's log applied move by move."""
    state = GameState(GameRules(transcript.n, prop))
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
    prop = rules.prop
    require_absent(prop, state.n, state.adj)
    # every graph on n vertices is n-colourable, so a property whose chi
    # exceeds n never holds on this board: its detector need not run
    can_hit = prop.chi <= state.n
    turns = [(BUILDER, builder_strategy), (OPPONENT, opponent_strategy)]  # move i: turns[i & 1]
    log, notes = state.log, {}
    result, t = "never", -1
    while state.unclaimed:
        player, strat = turns[len(log) & 1]
        eid = strat.next_move(state, player)
        note = getattr(strat, "last_note", None)
        try:
            apply_move(state, player, eid)
        except (IllegalMoveError, ValueError) as exc:
            raise IllegalMoveError(
                "strategy %r returned illegal move %r: %s" % (strat.descriptor, eid, exc)
            ) from exc
        if note:
            notes[len(log) - 1] = note
        if player == BUILDER:
            rnd = len(log) // 2 + 1
            if can_hit and prop.hit_after_state(state, eid):
                result, t = "hit", rnd
                break
            if rnd == max_rounds and state.unclaimed:
                result = "capped"
                break
    return Transcript(
        n=rules.n,
        property_descriptor=prop.descriptor,
        seed=seed,
        log=log,
        notes=notes,
        result=result,
        t=t,
    )
