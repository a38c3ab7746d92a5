"""Exact game values for tiny boards.

Fail-soft alpha-beta over the claim tree: the builder (Avoider) maximizes
the hitting round, the opponent (Enforcer) minimizes it, and "never" (board
exhausted without the property) sits above every finite round in the order.
Hitting is evaluated immediately after each builder move, exactly like the
engine. Children are tried in edge-id order and the root searches the full
window, so the move returned is the lowest-id optimal one. `nodes` counts
the positions valued below the root, memo hits and full boards included; a
builder move that hits is a leaf and costs no node.

The search is an engine `Board`: the start position is claimed through
`Board.claim`, and below it the search writes the board itself. A child
sets its claim byte and, for a builder move, XORs its two mask bits, and
both are restored once it is valued. So during a search `claims` and
`adj` describe the node, while `unclaimed` describes the start. Play
alternates from the empty board, so a node `depth` claims deep is the
builder's turn when depth is even, the builder then holds (depth + 1) // 2
edges, and a builder move there that hits is round depth // 2 + 1; a start
that alternate play cannot reach is refused.

Positions are memoized up to vertex relabelling (so n <= 7) as proven
bounds (lo, hi), exact when lo == hi (Knuth & Moore 1975). A lookup
answers at once when they are exact or outside the window, else searches
the window they narrow and tightens them. A position not in the memo
starts at the a priori bounds ((depth + 1) // 2 + 1, never): hits are
checked only after builder moves, so none comes before the builder's next
one. The claim map fixes the depth, so positions that share a key share
the bound, and one whose bound reaches beta fails high unsearched.

The key of a claim map is the smallest base-3 number, over all n! vertex
permutations, that the relabelled claim string spells. Beside its board
the search keeps one row of such numbers, one per permutation, for each
depth on the current path: a child that the search goes on to value gets
its row written as its parent's row plus claims[e] times e's weight row,
and nothing is ever subtracted, so a node costs one n!-wide add into a row
and one argmin instead of n! relabellings. A builder move that hits is a leaf and writes
no row. The claim map alone determines whose turn it is and the round, so
nothing else enters the key.

Assumes a detector whose property is absent at the start (checked with
the full `holds`), so its incremental hit checks are sound.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .engine import (
    BUILDER, Board, GameRules, GameState, OPPONENT, UNCLAIMED, _endpoints, require_absent,
)

NEVER = math.inf
MAX_SYMMETRY_N = 7  # n! permutations per weight table: 5040 at n = 7


class BudgetExhausted(Exception):
    """The node budget ran out before the value was determined."""


@dataclass
class SolveResult:
    value: str  # "exact" | "never" | "unknown"
    t: Optional[int]  # hitting round when value == "exact"
    nodes: int
    best_move: Optional[int]  # the edge id of an optimal first move, when known


@functools.lru_cache(maxsize=8)
def _weights(n: int) -> np.ndarray:
    """C-contiguous int64 table W of shape (m, n!): W[e, p] = 3**(m-1-j),
    where j is the id of the edge that vertex permutation p (in itertools
    order) maps edge e to, read off the engine's endpoint tables and their
    n x n inverse. So claims @ W[:, p] is the base-3 value of p's relabelled
    claim string, and its maximum, 3**m - 1 < 2**63 for n <= 7, cannot
    overflow."""
    if n > MAX_SYMMETRY_N:
        raise ValueError("symmetry canonicalization supports n <= %d" % MAX_SYMMETRY_N)
    m = n * (n - 1) // 2
    count = math.factorial(n)
    flat = itertools.chain.from_iterable(itertools.permutations(range(n)))
    perms_t = np.fromiter(flat, dtype=np.int64, count=count * n).reshape(count, n).T
    us, vs = (np.frombuffer(t, dtype=np.uint16) for t in _endpoints(n))
    eid = np.zeros((n, n), dtype=np.int64)  # eid[u, v]: the id of edge uv
    eid[us, vs] = eid[vs, us] = np.arange(m)
    W = np.ascontiguousarray(3 ** (m - 1 - eid[perms_t[us], perms_t[vs]]))
    W.flags.writeable = False  # rows are shared by every search
    return W


def canonical_claims(claims, n: int) -> bytes:
    """Minimum claim-map encoding over all vertex permutations."""
    W = _weights(n)
    claims = np.asarray(claims, dtype=np.int64)
    p = int((claims @ W).argmin())
    by_position = np.argsort(-W[:, p])
    return bytes(claims[by_position].astype(np.uint8))


class _Search(Board):
    """Alpha-beta from a start position, given as one claim code per edge id.
    During a search its `claims` and `adj` hold the node being searched,
    and its `unclaimed` the start (see the module docstring).

    `keys[d]` is `claims @ W` for the node at depth d on the current
    search path, one entry per vertex permutation of the weight table W of
    the board's n; the start's row is written once, and `_best` writes
    each child's row from its parent's. `rows[player][e]` is player's code
    times W[e].
    """

    def __init__(self, rules: GameRules, budget: Optional[int], start=()):
        if budget is not None and budget < 0:
            raise ValueError("budget must be >= 0")
        super().__init__(rules.n)
        self.prop = rules.prop
        self.limit = math.inf if budget is None else budget
        self.nodes = 0
        self.memo = {}
        W = _weights(self.n)
        for eid, c in enumerate(start):
            if c != UNCLAIMED:
                self.claim(eid, c)
        self.rows = {BUILDER: list(W), OPPONENT: list(OPPONENT * W)}
        self.keys = np.empty((self.m + 1, W.shape[1]), dtype=np.int64)
        self.key_rows = list(self.keys)  # views, faster to index than keys
        self.keys[self.m - self.unclaimed] = np.frombuffer(self.claims, dtype=np.int8) @ W
        require_absent(self.prop, self.n, self.adj)

    @property
    def key(self) -> np.ndarray:
        """The start position's key row, read-only."""
        row = self.keys[self.m - self.unclaimed]
        row.flags.writeable = False
        return row

    def best(self):
        """(value, first optimal edge id) for the player to move at the
        start position, which must have an unclaimed edge. Raises ValueError
        unless alternate play from the empty board reaches the start, that
        is unless the builder holds as many edges as the opponent or one
        more. The board is as it was once best returns; a search that the
        budget cuts leaves it mid-path."""
        held = self.claims.count(BUILDER), self.claims.count(OPPONENT)
        if held[0] - held[1] not in (0, 1):
            raise ValueError(
                "alternate play cannot reach a start where the builder holds %d edges "
                "and the opponent %d" % held
            )
        return self._best(self.m - self.unclaimed, -NEVER, NEVER)

    def _best(self, depth, alpha, beta):
        """(value, first optimal edge id) at the node `depth` claims deep.
        Fail-soft: a value <= alpha is only an upper bound on the true one,
        a value >= beta only a lower bound, and the edge id is then not
        meaningful."""
        builder = not depth & 1
        turn = BUILDER if builder else OPPONENT
        n, claims, us, vs, adj = self.n, self.claims, self.us, self.vs, self.adj
        find, hit, value = claims.find, self.prop.hit_after_masks, self._value
        hit_round = depth // 2 + 1  # the round of a builder move here
        parent, child = self.key_rows[depth], self.key_rows[depth + 1]
        rows, add = self.rows[turn], np.add
        best = move = None
        eid = find(UNCLAIMED)
        while eid >= 0:
            claims[eid] = turn
            if builder:
                u, v = us[eid], vs[eid]
                adj[u] ^= 1 << v
                adj[v] ^= 1 << u
                if hit(n, adj, u, v):
                    val = hit_round
                else:
                    add(parent, rows[eid], out=child)  # the row _value reads
                    val = value(depth + 1, alpha, beta)
                adj[u] ^= 1 << v
                adj[v] ^= 1 << u
            else:
                add(parent, rows[eid], out=child)
                val = value(depth + 1, alpha, beta)
            claims[eid] = UNCLAIMED
            if move is None or ((val > best) if builder else (val < best)):
                best, move = val, eid
                if builder:
                    if best > alpha:
                        alpha = best
                elif best < beta:
                    beta = best
                if alpha >= beta:
                    break
            eid = find(UNCLAIMED, eid + 1)
        return best, move

    def _value(self, depth, alpha, beta):
        """Fail-soft value of the node `depth` claims deep, just reached,
        within the window (alpha, beta); one search node."""
        if self.nodes >= self.limit:
            raise BudgetExhausted()
        self.nodes += 1
        if depth == self.m:
            return NEVER
        row = self.key_rows[depth]
        key = row.item(row.argmin())
        # unseen: no hit before the builder's next move
        lo, hi = self.memo.get(key) or ((depth + 1) // 2 + 1, NEVER)
        if lo == hi or lo >= beta:
            return lo
        if hi <= alpha:
            return hi
        if lo > alpha:
            alpha = lo
        if hi < beta:
            beta = hi
        val = self._best(depth, alpha, beta)[0]
        if val > alpha:  # not a fail-low: a lower bound, or exact
            lo = val
        if val < beta:  # not a fail-high: an upper bound, or exact
            hi = val
        self.memo[key] = (lo, hi)
        return val


def solve_tau(rules: GameRules, budget: Optional[int] = None) -> SolveResult:
    """Exact minimax value of the game from the empty board, by alpha-beta.

    Returns Exact(t) as value="exact", t=t; value="never" if the builder can
    exhaust the board without the property; value="unknown" when the node
    budget runs out. Raises ValueError if n > MAX_SYMMETRY_N, the budget is
    negative or the property holds on the empty graph.
    """
    search = _Search(rules, budget)
    try:
        val, eid = search.best()
    except BudgetExhausted:
        return SolveResult("unknown", None, search.nodes, None)
    if val == NEVER:
        return SolveResult("never", None, search.nodes, eid)
    return SolveResult("exact", int(val), search.nodes, eid)


def best_move(state: GameState, player: int, budget: Optional[int] = None) -> int:
    """The edge id of a minimax-optimal move for `player` at `state`, ties to
    the minimum id. Raises ValueError if it is not `player`'s turn, n >
    MAX_SYMMETRY_N, the budget is negative or the builder's graph already has
    the property."""
    if state.whose_turn() != player:
        raise ValueError("not this player's turn")
    return _Search(state.rules, budget, state.claims).best()[1]
