"""Exact game values for tiny boards.

Full minimax over the claim tree: the builder (Avoider) maximizes the hitting
round, the opponent (Enforcer) minimizes it, and "never" (board exhausted
without the property) sits above every finite round in the order. Hitting is
evaluated immediately after each builder move, exactly like the engine.

With symmetry on (n <= 7), positions are memoized up to vertex relabelling.
The key of a claim map is the smallest base-3 number, over all n!
vertex permutations, that the relabelled claim string spells. The search
is an engine `Board` that keeps one such number per permutation in a
vector, updated by the board's own claim and undo: claiming edge e for a
player adds claims[e] times e's weight row to it, and undoing the claim
subtracts it again, so a node costs one n!-wide add and one min instead of
n! relabellings. The claim map alone determines whose turn it is and the
round, so nothing else enters the key.

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
    BUILDER, Board, GameRules, GameState, OPPONENT, UNCLAIMED, _incidence, require_absent,
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
    """int64 table W of shape (m, n!): W[e, p] = 3**(m-1-j), where j is the
    id of the edge that vertex permutation p (in itertools order) maps edge
    e to. So claims @ W[:, p] is the base-3 value of p's relabelled claim
    string, and its maximum, 3**m - 1 < 2**63 for n <= 7, cannot overflow."""
    if n > MAX_SYMMETRY_N:
        raise ValueError("symmetry canonicalization supports n <= %d" % MAX_SYMMETRY_N)
    m = n * (n - 1) // 2
    perms = np.array(list(itertools.permutations(range(n))))
    lo, hi = np.triu_indices(n, 1)  # edge ids in order
    relabelled = _incidence(n)[perms[:, lo], perms[:, hi]].astype(np.int64, copy=False)
    W = 3 ** (m - 1 - relabelled.T)
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
    """Minimax from a start position, given as one claim code per edge id."""

    def __init__(self, rules: GameRules, budget: Optional[int], symmetry: bool, start=()):
        if budget is not None and budget < 0:
            raise ValueError("budget must be >= 0")
        super().__init__(rules.n, rules.first_mover)
        self.prop = rules.prop
        self.budget = budget
        self.nodes = 0
        self.memo = {}
        W = _weights(self.n) if symmetry else None
        for eid, c in enumerate(start):
            if c != UNCLAIMED:
                self.claim(eid, c)
        if W is not None:
            self.rows = {BUILDER: list(W), OPPONENT: list(OPPONENT * W)}
            self.key = self.codes @ W
        require_absent(self.prop, self.n, self.adj[BUILDER])

    def best(self):
        """(value, first optimal edge id) for the player to move at the
        current position, which must have an unclaimed edge."""
        turn = self.whose_turn()
        builder = turn == BUILDER
        n, claims, pairs, counts = self.n, self.claims, self.pairs, self.counts
        adj = self.adj[BUILDER]
        hit = self.prop.hit_after_masks
        claim, undo, value = self.claim, self.undo, self._value
        best = move = None
        for eid in range(self.m):
            if claims[eid] != UNCLAIMED:
                continue
            claim(eid, turn)
            if builder and hit(n, adj, *pairs[eid]):
                val = counts[BUILDER]
            else:
                val = value()
            undo(eid, turn)
            if move is None or ((val > best) if builder else (val < best)):
                best, move = val, eid
        return best, move

    def _value(self):
        """Value of the position just reached; one search node."""
        self.nodes += 1
        if self.budget is not None and self.nodes > self.budget:
            raise BudgetExhausted()
        if self.unclaimed == 0:
            return NEVER
        if self.key is None:
            return self.best()[0]
        key = int(self.key.min())
        val = self.memo.get(key)
        if val is None:
            val = self.memo[key] = self.best()[0]
        return val


def solve_tau(
    rules: GameRules, budget: Optional[int] = None, symmetry: bool = True
) -> SolveResult:
    """Exact minimax value of the game from the empty board.

    Returns Exact(t) as value="exact", t=t; value="never" if the builder can
    exhaust the board without the property; value="unknown" when the node
    budget runs out. Raises ValueError if the budget is negative or the
    property holds on the empty graph.
    """
    search = _Search(rules, budget, symmetry)
    try:
        val, eid = search.best()
    except BudgetExhausted:
        return SolveResult("unknown", None, search.nodes, None)
    if val == NEVER:
        return SolveResult("never", None, search.nodes, eid)
    return SolveResult("exact", int(val), search.nodes, eid)


def best_move(
    state: GameState, player: int, budget: Optional[int] = None, symmetry: bool = True
) -> int:
    """The edge id of a minimax-optimal move for `player` at `state`, ties to
    the minimum id. Raises ValueError if it is not `player`'s turn, the budget
    is negative or the builder's graph already has the property."""
    if state.whose_turn() != player:
        raise ValueError("not this player's turn")
    return _Search(state.rules, budget, symmetry, state.claims).best()[1]
