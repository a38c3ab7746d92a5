"""Exact game values for tiny boards.

Full minimax over the claim tree: the builder (Avoider) maximizes the hitting
round, the opponent (Enforcer) minimizes it, and "never" (board exhausted
without the property) sits above every finite round in the order. Hitting is
evaluated immediately after each builder move, exactly like the engine.

With symmetry on (n <= 7), positions are memoized up to vertex relabelling.
The key of a claim map is the smallest base-3 number, over all n!
vertex permutations, that the relabelled claim string spells. The search
keeps one such number per permutation in a vector and updates it
incrementally: claiming edge e for a player adds claims[e] times e's weight
row to it, and undoing the claim subtracts it again, so a node costs one
n!-wide add and one min instead of n! relabellings. The claim map alone
determines whose turn it is and the round, so nothing else enters the key.

Assumes a detector whose property is absent at the start (checked with
the full `holds`), so its incremental hit checks are sound.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .engine import BUILDER, GameRules, GameState, OPPONENT, UNCLAIMED, require_absent
from .graphs import edge_pairs, num_edges

NEVER = math.inf
MAX_SYMMETRY_N = 7  # n! permutations per weight table: 5040 at n = 7


class BudgetExhausted(Exception):
    """The node budget ran out before the value was determined."""


@dataclass
class SolveResult:
    value: str  # "exact" | "never" | "unknown"
    t: Optional[int]  # hitting round when value == "exact"
    nodes: int
    best_move: Optional[tuple]  # an optimal first move, when known


_WEIGHT_CACHE: dict = {}


def _weights(n: int) -> np.ndarray:
    """int64 table W of shape (m, n!): W[e, p] = 3**(m-1-j), where j is the
    id of the edge that vertex permutation p (in itertools order) maps edge
    e to. So claims @ W[:, p] is the base-3 value of p's relabelled claim
    string, and its maximum, 3**m - 1 < 2**63 for n <= 7, cannot overflow."""
    if n > MAX_SYMMETRY_N:
        raise ValueError("symmetry canonicalization supports n <= %d" % MAX_SYMMETRY_N)
    if n not in _WEIGHT_CACHE:
        pairs = edge_pairs(n)
        m = len(pairs)
        index = np.zeros((n, n), dtype=np.int64)
        for j, (u, v) in enumerate(pairs):
            index[u, v] = index[v, u] = j
        perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
        lo, hi = np.array(pairs, dtype=np.int64).T
        relabelled = index[perms[:, lo], perms[:, hi]]  # (n!, m)
        W = 3 ** (m - 1 - relabelled.T)
        W.flags.writeable = False  # rows are shared by every search
        _WEIGHT_CACHE[n] = W
    return _WEIGHT_CACHE[n]


def canonical_claims(claims, n: int) -> bytes:
    """Minimum claim-map encoding over all vertex permutations."""
    W = _weights(n)
    claims = np.asarray(claims, dtype=np.int64)
    p = int((claims @ W).argmin())
    by_position = np.argsort(-W[:, p])
    return bytes(claims[by_position].astype(np.uint8))


class _Search:
    """Minimax from a start position, given as one claim code per edge id."""

    def __init__(self, rules: GameRules, budget: Optional[int], symmetry: bool, start=()):
        self.n = rules.n
        self.prop = rules.prop
        self.first = rules.first_mover
        self.budget = budget
        self.pairs = edge_pairs(self.n)
        self.m = num_edges(self.n)
        self.claims = bytearray(self.m)
        self.adj = [0] * self.n  # builder's graph only
        self.counts = {BUILDER: 0, OPPONENT: 0}
        self.nodes = 0
        self.memo = {}
        self.key = None  # per-permutation key vector, when symmetry is on
        if symmetry:
            W = _weights(self.n)
            self.rows = {BUILDER: list(W), OPPONENT: list(OPPONENT * W)}
            self.key = np.zeros(W.shape[1], dtype=np.int64)
        for eid, c in enumerate(start):
            if c != UNCLAIMED:
                self.claim(eid, int(c))
        require_absent(self.prop, self.n, self.adj)

    def _turn(self) -> int:
        second = OPPONENT if self.first == BUILDER else BUILDER
        return self.first if self.counts[self.first] == self.counts[second] else second

    def claim(self, eid: int, player: int) -> None:
        self.claims[eid] = player
        self.counts[player] += 1
        if self.key is not None:
            self.key += self.rows[player][eid]
        if player == BUILDER:
            u, v = self.pairs[eid]
            self.adj[u] |= 1 << v
            self.adj[v] |= 1 << u

    def undo(self, eid: int, player: int) -> None:
        self.claims[eid] = UNCLAIMED
        self.counts[player] -= 1
        if self.key is not None:
            self.key -= self.rows[player][eid]
        if player == BUILDER:
            u, v = self.pairs[eid]
            self.adj[u] &= ~(1 << v)
            self.adj[v] &= ~(1 << u)

    def best(self):
        """(value, first optimal edge id) for the player to move at the
        current position, which must have an unclaimed edge."""
        turn = self._turn()
        builder = turn == BUILDER
        best = move = None
        for eid in range(self.m):
            if self.claims[eid] != UNCLAIMED:
                continue
            self.claim(eid, turn)
            if builder and self.prop.hit_after_masks(self.n, self.adj, *self.pairs[eid]):
                val = self.counts[BUILDER]
            else:
                val = self._value()
            self.undo(eid, turn)
            if move is None or ((val > best) if builder else (val < best)):
                best, move = val, eid
        return best, move

    def _value(self):
        """Value of the position just reached; one search node."""
        self.nodes += 1
        if self.budget is not None and self.nodes > self.budget:
            raise BudgetExhausted()
        if self.counts[BUILDER] + self.counts[OPPONENT] == self.m:
            return NEVER
        if self.key is None:
            return self.best()[0]
        key = int(self.key.min())
        if key not in self.memo:
            self.memo[key] = self.best()[0]
        return self.memo[key]


def solve_tau(
    rules: GameRules, budget: Optional[int] = None, symmetry: bool = True
) -> SolveResult:
    """Exact minimax value of the game from the empty board.

    Returns Exact(t) as value="exact", t=t; value="never" if the builder can
    exhaust the board without the property; value="unknown" when the node
    budget runs out. Raises ValueError if the property holds on the empty
    graph.
    """
    search = _Search(rules, budget, symmetry)
    try:
        val, eid = search.best()
    except BudgetExhausted:
        return SolveResult("unknown", None, search.nodes, None)
    move = search.pairs[eid]
    if val == NEVER:
        return SolveResult("never", None, search.nodes, move)
    return SolveResult("exact", int(val), search.nodes, move)


def best_move(
    state: GameState, player: int, budget: Optional[int] = None, symmetry: bool = True
):
    """A move achieving the minimax value for `player` at `state`; ties break
    to the minimum edge id. Raises ValueError if it is not `player`'s turn or
    the builder's graph already has the property."""
    if state.whose_turn() != player:
        raise ValueError("not this player's turn")
    search = _Search(state.rules, budget, symmetry, state.claims)
    return search.pairs[search.best()[1]]
