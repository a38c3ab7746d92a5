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

from .engine import GameState, UNCLAIMED
from .graphs import edge_index
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

    The lowest free cross id only grows while a match goes on, so it keeps a
    pointer into the sorted cross ids of the board it last played on and
    moves it past claimed ones; any other board, or a shorter log, starts
    it afresh.
    """

    def __init__(self, parts: int):
        if parts < 1:
            raise ValueError("parts must be >= 1")
        self.parts = parts
        self.descriptor = "turan:%d" % parts
        self._cross_ids = {}  # n -> sorted list of cross-cluster edge ids
        self._board, self._seen, self._at = None, 0, 0

    def _cross(self, n: int):
        if n not in self._cross_ids:
            u_idx, v_idx = np.triu_indices(n, 1)  # edge ids in order
            self._cross_ids[n] = np.flatnonzero(u_idx % self.parts != v_idx % self.parts).tolist()
        return self._cross_ids[n]

    def next_move(self, state, player):
        cross, claims, at = self._cross(state.n), state.claims, self._at
        if state is not self._board or len(state.log) < self._seen:
            self._board, at = state, 0
        self._seen = len(state.log)
        while at < len(cross) and claims[cross[at]] != UNCLAIMED:
            at += 1
        self._at = at
        if at < len(cross):
            self.last_note = None
            return cross[at]
        eid = state.claims.find(UNCLAIMED)
        if eid < 0:
            raise RuntimeError("no moves left")
        self.last_note = "fallback"
        return eid


class JumbleGStrategy(Strategy):
    """Discrepancy-greedy pseudo-randomizer.

    Among unclaimed edges (u,v), picks one maximizing
    (d_A(u) - d_E(u)) + (d_A(v) - d_E(v)) where d_A/d_E are the current
    builder/opponent degrees; ties go to the minimum edge id. Deterministic,
    and a pure function of the claim map.

    Keeps, for the board and player it last played for, each vertex's
    difference `diff[w]` (the other player's degree minus its own), the mask
    `free[w]` of its unclaimed partners, and `cls`, which maps each
    difference to the mask of the vertices with it that still have an
    unclaimed edge. A new log entry moves its two endpoints by one; any
    other board or player, or a shorter log, is read afresh from the masks.

    The move is the first hit of a downward search over the key S, from
    twice the largest class value: the rows a that have a partner class
    S - diff[a] with a vertex above a are scanned in increasing order for a
    free partner b > a in that class. The first hit (a, b) has the largest
    key and, among those, the smallest edge id, as an argmax over every edge
    would pick. Each S tried costs one pass over the set bits of its rows.
    """

    def __init__(self, eps):
        eps = Fraction(eps)
        if not 0 < eps < Fraction(1, 2):
            raise ValueError("eps must lie in (0, 1/2)")
        self.eps = eps
        self.descriptor = "jumbleg:%s" % eps
        self._board, self._player, self._seen = None, None, 0
        self._diff = self._free = self._cls = None

    def next_move(self, state, player):
        # favor edges whose endpoints the other player leads on; for the
        # enforcer this is the spec'd (d_A(u)-d_E(u)) + (d_A(v)-d_E(v)) key
        if state.unclaimed == 0:
            raise RuntimeError("no moves left")
        n, log = state.n, state.log
        if state is not self._board or player != self._player or len(log) < self._seen:
            self._board, self._player = state, player
            other, mine = state.adj[3 - player], state.adj[player]  # BUILDER=1, OPPONENT=2
            full = (1 << n) - 1
            self._diff = [o.bit_count() - m.bit_count() for o, m in zip(other, mine)]
            self._free = [full ^ (1 << w) ^ (other[w] | mine[w]) for w in range(n)]
            self._cls = cls = {}
            for w, (d, f) in enumerate(zip(self._diff, self._free)):
                if f:
                    cls[d] = cls.get(d, 0) | 1 << w
        else:
            diff, free, cls = self._diff, self._free, self._cls
            claims, pairs = state.claims, state.pairs
            for eid in log[self._seen:]:
                step = 1 if claims[eid] != player else -1
                u, v = pairs[eid]
                for w, x in (u, v), (v, u):
                    # w had the free edge wx, so it sat in its class until now
                    d, bit = diff[w], 1 << w
                    if cls[d] == bit:
                        del cls[d]
                    else:
                        cls[d] ^= bit
                    free[w] ^= 1 << x
                    diff[w] = d = d + step
                    if free[w]:
                        cls[d] = cls.get(d, 0) | bit
        self._seen = len(log)
        diff, free, cls = self._diff, self._free, self._cls
        # the differences on a board are nearly contiguous, so almost every S
        # in this range is a sum of two of them; one that is not has no rows
        for S in range(2 * max(cls), 2 * min(cls) - 1, -1):
            rows = 0
            for x, xs in cls.items():
                ys = cls.get(S - x)
                if ys:  # the rows below the top vertex of their partner class
                    rows |= xs & (1 << ys.bit_length() - 1) - 1
            while rows:
                low = rows & -rows
                a = low.bit_length() - 1
                hit = (free[a] & cls[S - diff[a]]) >> (a + 1)
                if hit:
                    return edge_index(a, a + (hit & -hit).bit_length(), n)
                rows ^= low
        raise AssertionError("an unclaimed edge joins two vertices with free edges")


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
