"""Move-selection policies.

The cluster-avoiding lower-bound strategy, a discrepancy-greedy
pseudo-randomizing opponent, and two baselines (seeded-random and
first-available). Descriptor DSL for the CLI:

    turan:<parts>    cross-cluster avoider
    jumbleg:<eps>    discrepancy-greedy opponent
    random[:<seed>]  uniform over unclaimed edges
    first            lowest edge id

`next_move(state, player)` returns the edge id to claim, the engine's one
move format. `parse_strategy(descriptor, seed)` returns a fresh per-match
instance: a bare `random` draws from `seed`, and `random:<s>` keeps its
own `s`.
`match_players` gives the two sides of one match their seeds.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from fractions import Fraction
from typing import Optional

import numpy as np

from .engine import GameState, UNCLAIMED, _incidence
from .graphs import edge_of  # noqa: F401 -- unused here, but bench/spans.py wraps it


class Strategy:
    descriptor = "?"
    last_note: Optional[str] = None

    def next_move(self, state: GameState, player: int) -> int:  # the edge id to claim
        raise NotImplementedError


class FirstAvailableStrategy(Strategy):
    descriptor = "first"

    def next_move(self, state, player):
        eid = state.claims.find(UNCLAIMED)
        if eid < 0:
            raise RuntimeError("no moves left")
        return eid


class RandomStrategy(Strategy):
    """Uniform choice among unclaimed edges from a seeded stream.

    Keeps the sorted free edge ids of the board it last played on, and drops
    the ids the board's log gained since; any other board is read afresh.
    """

    def __init__(self, seed: Optional[int] = None):
        self.seed = seed
        self.descriptor = "random" if seed is None else "random:%d" % seed
        self._rng = random.Random(seed)
        self._board, self._seen, self._free = None, 0, []

    def next_move(self, state, player):
        log, free = state.log, self._free
        if state is not self._board or len(log) < self._seen:
            self._board = state
            free = self._free = np.flatnonzero(state.codes == UNCLAIMED).tolist()
        else:
            for eid in log[self._seen:]:
                del free[bisect_left(free, eid)]
        self._seen = len(log)
        if not free:
            raise RuntimeError("no moves left")
        return free[self._rng.randrange(len(free))]


class TuranAvoiderStrategy(Strategy):
    """Round-robin clusters; claims only cross-cluster edges while any remain.

    While in the cross phase the claimed graph respects the cluster partition
    and so stays (parts)-colorable. Once cross edges run out it falls back to
    the lowest unclaimed edge id and flags the move for the transcript.
    """

    def __init__(self, parts: int):
        if parts < 1:
            raise ValueError("parts must be >= 1")
        self.parts = parts
        self.descriptor = "turan:%d" % parts
        self._cross_ids = {}  # n -> ndarray of cross-cluster edge ids

    def _cross(self, n: int):
        if n not in self._cross_ids:
            u_idx, v_idx = np.triu_indices(n, 1)  # edge ids in order
            self._cross_ids[n] = np.flatnonzero(u_idx % self.parts != v_idx % self.parts)
        return self._cross_ids[n]

    def next_move(self, state, player):
        cross = self._cross(state.n)
        free_cross = cross[state.codes[cross] == UNCLAIMED]
        if len(free_cross):
            self.last_note = None
            return int(free_cross[0])
        eid = state.claims.find(UNCLAIMED)
        if eid < 0:
            raise RuntimeError("no moves left")
        self.last_note = "fallback"
        return eid


_CLAIMED = np.iinfo(np.int64).min  # JumbleG key of a claimed edge


class JumbleGStrategy(Strategy):
    """Discrepancy-greedy pseudo-randomizer.

    Among unclaimed edges (u,v), picks one maximizing
    (d_A(u) - d_E(u)) + (d_A(v) - d_E(v)) where d_A/d_E are the current
    builder/opponent degrees; ties go to the minimum edge id. Deterministic,
    and a pure function of the claim map.

    Keeps the per-edge key of the board and player it last played for, that
    board's claimed flags and its per-vertex degree differences, read from
    the board's masks. A move changes the degrees at its two endpoints only,
    so each call recomputes just those vertices and the edges at them for
    the board's new log entries; any other board or player is keyed afresh.
    Claimed edges are keyed int64 min.
    """

    def __init__(self, eps):
        eps = Fraction(eps)
        if not 0 < eps < Fraction(1, 2):
            raise ValueError("eps must lie in (0, 1/2)")
        self.eps = eps
        self.descriptor = "jumbleg:%s" % eps
        self._board, self._player, self._seen = None, None, 0
        self._key = self._claimed = self._diff = None

    def next_move(self, state, player):
        # favor edges whose endpoints the other player leads on; for the
        # enforcer this is the spec'd (d_A(u)-d_E(u)) + (d_A(v)-d_E(v)) key
        if state.unclaimed == 0:
            raise RuntimeError("no moves left")
        log, claimed = state.log, self._claimed
        if state is not self._board or player != self._player or len(log) < self._seen:
            self._board, self._player = state, player
            # bool flags gather faster than the int8 codes; slot m, where the
            # incidence table's diagonal points, counts as claimed
            claimed = self._claimed = np.append(state.codes != UNCLAIMED, True)
            self._key = np.empty(state.m + 1, dtype=np.int64)
            self._diff = np.empty(state.n, dtype=np.int64)
            touched = range(state.n)
        else:
            touched = set()
            for eid in log[self._seen:]:
                claimed[eid] = True
                touched.update(state.pairs[eid])
        self._seen = len(log)
        ws, diff = list(touched), self._diff
        other, mine = state.adj[3 - player], state.adj[player]  # BUILDER=1, OPPONENT=2
        diff[ws] = [other[w].bit_count() - mine[w].bit_count() for w in ws]
        ids = _incidence(state.n).take(ws, axis=0)  # the edges at each w
        key = diff.take(ws)[:, None] + diff
        np.putmask(key, claimed.take(ids), _CLAIMED)
        self._key[ids] = key
        return int(self._key.argmax())


def parse_strategy(descriptor: str, seed: Optional[int] = None) -> Strategy:
    """A fresh instance for one match; a bare `random` draws from `seed`."""
    if descriptor == "first":
        return FirstAvailableStrategy()
    if descriptor == "random":
        return RandomStrategy(seed)
    if descriptor.startswith("random:"):
        return RandomStrategy(int(descriptor.split(":", 1)[1]))
    if descriptor.startswith("turan:"):
        return TuranAvoiderStrategy(int(descriptor.split(":", 1)[1]))
    if descriptor.startswith("jumbleg:"):
        return JumbleGStrategy(Fraction(descriptor.split(":", 1)[1]))
    raise ValueError("unknown strategy descriptor: %r" % descriptor)


def match_players(avoider: str, enforcer: str, seed: int):
    """The (avoider, enforcer) instances of the match with this seed."""
    return parse_strategy(avoider, seed), parse_strategy(enforcer, seed ^ 0x5DEECE66D)
