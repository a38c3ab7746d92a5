"""Move-selection policies.

The cluster-avoiding lower-bound strategy, a discrepancy-greedy
pseudo-randomizing opponent, and two baselines (seeded-random and
first-available). Descriptor DSL for the CLI:

    turan:<parts>    cross-cluster avoider
    jumbleg:<eps>    discrepancy-greedy opponent
    random[:<seed>]  uniform over unclaimed edges
    first            lowest edge id

`next_move(state, player)` returns the edge id to claim, the engine's one
move format. A strategy that keeps state builds it one way only: from the
empty board, by replaying the claim log (`Strategy._new_moves`); none reads
the builder's masks. `parse_strategy(descriptor, seed)`
returns a fresh per-match instance: a bare `random` draws from `seed`, and
`random:<s>` keeps its own `s`.
`match_players` gives the two sides of one match their seeds.
"""

from __future__ import annotations

import functools
import random
from array import array
from bisect import bisect_left
from fractions import Fraction
from typing import Optional

from .engine import GameState, UNCLAIMED
from .graphs import edge_index
from .graphs import edge_of  # noqa: F401 -- unused here, but bench/spans.py wraps it


@functools.lru_cache(maxsize=8)
def _row_bases(n):
    """base[u] for u < n - 1, shared by the strategies on n vertices: the
    edge id of uv, u < v, is base[u] + v."""
    return tuple(edge_index(u, u + 1, n) - u - 1 for u in range(n - 1))


class Strategy:
    descriptor = "?"
    last_note: Optional[str] = None
    _board, _key, _seen = None, None, 0  # the log cursor of _new_moves

    def next_move(self, state: GameState, player: int) -> int:  # the edge id to claim
        raise NotImplementedError

    def _new_moves(self, state: GameState, key=None):
        """The entries of `state.log` since the last call. On another board,
        another key, or a log shorter than then, it first calls `_reset(n)`,
        which puts the kept state back to that of the empty board on n
        vertices, and returns the whole log. Call it before reading any kept
        state: a fresh instance has none until `_reset` runs."""
        log, seen = state.log, self._seen
        self._seen = size = len(log)
        if state is not self._board or key != self._key or size < seen:
            self._board, self._key, seen = state, key, 0
            self._reset(state.n)
        return log[seen:]


class FirstAvailableStrategy(Strategy):
    descriptor = "first"

    def next_move(self, state, player):
        eid = state.claims.find(UNCLAIMED)
        if eid < 0:
            raise RuntimeError("no moves left")
        return eid


class RandomStrategy(Strategy):
    """Uniform choice among unclaimed edges from a seeded stream: the k-th
    smallest free edge id, for k = randrange(number of free edges). The
    draw is the one `Random.randrange(m)` makes, taken inline:
    `getrandbits(m.bit_length())`, redrawn until below m.

    Keeps, for the board it last played on, each row u's free partners
    v > u as a sorted uint16 array, and a Fenwick tree (Fenwick 1994) over
    the row lengths, padded to a power of two. A pick descends the tree to
    the row that holds the k-th free id. Each claimed id is a bisect and a
    delete in its row, of at most n - 1 entries, plus a decrement along the
    row's precomputed path of tree slots.
    """

    def __init__(self, seed: Optional[int] = None):
        self.seed = seed
        self.descriptor = "random" if seed is None else "random:%d" % seed
        self._getrandbits = random.Random(seed).getrandbits

    def _reset(self, n):
        ramp = array("H", range(n))
        self._rows = [ramp[u + 1:] for u in range(n - 1)]  # row u: n - 1 - u partners
        size = 1 << (n - 2).bit_length()  # rows 0..n-2 in tree slots 1..size
        self._steps = [size >> b for b in range(1, size.bit_length())]
        self._tree, self._paths = [0] * (size + 1), []  # paths[u]: the slots that count row u
        for u in range(n - 1):
            i, path = u + 1, []
            while i <= size:
                path.append(i)
                self._tree[i] += n - 1 - u
                i += i & -i
            self._paths.append(path)
        self._base = _row_bases(n)

    def next_move(self, state, player):
        new = self._new_moves(state)
        us, vs, rows, tree, paths = state.us, state.vs, self._rows, self._tree, self._paths
        for eid in new:
            u = us[eid]
            row = rows[u]
            del row[bisect_left(row, vs[eid])]
            for i in paths[u]:
                tree[i] -= 1
        if not state.unclaimed:
            raise RuntimeError("no moves left")
        m = state.unclaimed
        width = m.bit_length()
        k = self._getrandbits(width)
        while k >= m:
            k = self._getrandbits(width)
        u = 0
        for step in self._steps:  # u ends at the row that holds the k-th free id
            c = tree[u + step]
            if c <= k:
                u += step
                k -= c
        return self._base[u] + rows[u][k]


class TuranAvoiderStrategy(Strategy):
    """Round-robin clusters; claims only cross-cluster edges while any remain.

    Vertex w sits in cluster w % parts, so the claimed graph stays
    (parts)-colorable in the cross phase. Once cross edges run out it falls
    back to the lowest unclaimed edge id and flags the move for the transcript.

    The lowest free cross id only grows while a match goes on, so it keeps
    one edge id pointer, 0 on the empty board, and walks it over the claim
    bytes (`claims.find`) past claimed ids and free ids inside one cluster.
    """

    def __init__(self, parts: int):
        if parts < 1:
            raise ValueError("parts must be >= 1")
        self.parts = parts
        self.descriptor = "turan:%d" % parts

    def _reset(self, n):
        self._at = 0

    def next_move(self, state, player):
        self._new_moves(state)
        claims, us, vs, parts = state.claims, state.us, state.vs, self.parts
        at = claims.find(UNCLAIMED, self._at) if parts > 1 else -1  # one cluster: no cross edge
        while at >= 0 and (vs[at] - us[at]) % parts == 0:  # free, but inside a cluster
            at = claims.find(UNCLAIMED, at + 1)
        if at >= 0:
            self._at = at
            self.last_note = None
            return at
        self._at = state.m
        eid = claims.find(UNCLAIMED)
        if eid < 0:
            raise RuntimeError("no moves left")
        self.last_note = "fallback"
        return eid


class JumbleGStrategy(Strategy):
    """Discrepancy-greedy pseudo-randomizer.

    Among unclaimed edges (u,v), picks one maximizing
    (d_A(u) - d_E(u)) + (d_A(v) - d_E(v)) where d_A/d_E are the current
    builder/opponent degrees; ties go to the minimum edge id. Deterministic,
    and a pure function of the claim map. `eps` is checked and names the
    descriptor, but no move reads it: `jumbleg:1/10` and `jumbleg:1/4` play
    identical matches.

    Keeps, for the board and player it last played for, each vertex's
    difference (the other player's degree minus its own), the mask `free[w]`
    of its unclaimed partners, and `cls`, a flat table of 2n - 1 masks: slot
    i holds the vertices with difference i - (n - 1) that still have an
    unclaimed edge, and `diff[w]` is w's slot. `_lo` and `_hi` bound the
    nonempty slots. Each claim moves its two endpoints one slot; after a
    batch of claims `_hi` walks down and `_lo` up past empty slots.

    The move is the first hit of a downward search over the slot sum S, from
    2 * hi: the rows a in a slot x whose partner slot S - x has a vertex
    above a are scanned in increasing order for a free partner b > a in that
    slot. The first hit (a, b) has the largest key and, among those, the
    smallest edge id, as an argmax over every edge would pick. Each S tried
    costs one pass over the slots in range and the set bits of its rows. The
    edge id is `base[a] + b`, from the per-n table `_row_bases` that
    `RandomStrategy` shares.
    """

    def __init__(self, eps):
        eps = Fraction(eps)
        if not 0 < eps < Fraction(1, 2):
            raise ValueError("eps must lie in (0, 1/2)")
        self.eps = eps
        self.descriptor = "jumbleg:%s" % eps

    def _reset(self, n):
        full = (1 << n) - 1
        self._diff = [n - 1] * n  # difference 0 sits in the middle slot
        self._free = [full ^ (1 << w) for w in range(n)]
        self._cls = [0] * (2 * n - 1)
        self._cls[n - 1] = full
        self._lo = self._hi = n - 1
        self._base = _row_bases(n)

    def next_move(self, state, player):
        # favor edges whose endpoints the other player leads on; for the
        # enforcer this is the spec'd (d_A(u)-d_E(u)) + (d_A(v)-d_E(v)) key
        if state.unclaimed == 0:
            raise RuntimeError("no moves left")
        claims, us, vs = state.claims, state.us, state.vs
        new = self._new_moves(state, player)
        diff, free, cls, lo, hi = self._diff, self._free, self._cls, self._lo, self._hi
        for eid in new:
            step = 1 if claims[eid] != player else -1
            u, v = us[eid], vs[eid]
            bu, bv = 1 << u, 1 << v
            # each endpoint had the free edge uv, so it sat in its slot until
            # now; the two updates are written out, not looped over (u, v), (v, u)
            d = diff[u]
            cls[d] ^= bu
            diff[u] = d = d + step
            free[u] ^= bv
            if free[u]:
                cls[d] |= bu
                if d > hi:
                    hi = d
                elif d < lo:
                    lo = d
            d = diff[v]
            cls[d] ^= bv
            diff[v] = d = d + step
            free[v] ^= bu
            if free[v]:
                cls[d] |= bv
                if d > hi:
                    hi = d
                elif d < lo:
                    lo = d
        while not cls[hi]:  # an edge is free, so some slot is nonempty
            hi -= 1
        while not cls[lo]:
            lo += 1
        self._lo, self._hi = lo, hi
        base = self._base
        S, top = 2 * hi, cls[hi]  # the largest key pairs the top slot with itself
        rows = top & (1 << top.bit_length() - 1) - 1
        while True:
            while rows:
                low = rows & -rows
                a = low.bit_length() - 1
                hit = (free[a] & cls[S - diff[a]]) >> (a + 1)
                if hit:
                    return base[a] + a + (hit & -hit).bit_length()
                rows ^= low
            # the differences on a board are nearly contiguous, so almost
            # every S in this range is a sum of two of them; one that is not
            # has no rows
            S -= 1
            if S < 2 * lo:
                break
            rows = 0
            for x in range(S - hi if S - hi > lo else lo, (S - lo if S - lo < hi else hi) + 1):
                ys = cls[S - x]
                if ys:  # the rows below the top vertex of their partner slot
                    rows |= cls[x] & (1 << ys.bit_length() - 1) - 1
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
