"""Bitset graphs on labelled vertices, K_n edge indexing, and Turan machinery.

Vertices are 0-indexed integers. Vertex sets are plain Python ints used as
bitmasks, so set algebra is `&`, `|`, `~` and cardinality is `int.bit_count()`.
All densities are exact `Fraction`s; no floats enter any threshold comparison.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional


def bits(mask: int) -> Iterator[int]:
    """Iterate the set bit positions of a mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph: n vertices, one adjacency bitmask per vertex."""

    n: int
    adj: tuple

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("negative vertex count")
        if len(self.adj) != self.n:
            raise ValueError("adjacency length mismatch")
        full = (1 << self.n) - 1
        for u in range(self.n):
            row = self.adj[u]
            if row & ~full:
                raise ValueError("adjacency bit out of range")
            if row >> u & 1:
                raise ValueError("self loop at vertex %d" % u)
        for u in range(self.n):
            for v in bits(self.adj[u]):
                if not self.adj[v] >> u & 1:
                    raise ValueError("asymmetric adjacency at (%d,%d)" % (u, v))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, u: int) -> int:
        return self.adj[u].bit_count()

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self):
        return [(u, v) for u in range(self.n) for v in bits(self.adj[u]) if u < v]

    def min_degree(self) -> int:
        if self.n == 0:
            return 0
        return min(self.degree(u) for u in range(self.n))


def _trusted_graph(n: int, adj) -> Graph:
    """A Graph on adjacency masks the package keeps symmetric itself (game
    state, solver, sweep monitor), built without the O(n*deg) validation."""
    G = object.__new__(Graph)
    G.__dict__.update(n=n, adj=tuple(adj))
    return G


def graph_from_edges(n: int, edges) -> Graph:
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise ValueError("invalid edge (%r,%r) for n=%d" % (u, v, n))
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def empty_graph(n: int) -> Graph:
    return Graph(n, (0,) * n)


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << u) for u in range(n)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return graph_from_edges(n, [(u, (u + 1) % n) for u in range(n)])


def path_graph(n: int) -> Graph:
    return graph_from_edges(n, [(u, u + 1) for u in range(n - 1)])


def complete_multipartite(sizes) -> Graph:
    """Complete multipartite graph; parts are consecutive blocks of vertices."""
    sizes = list(sizes)
    if any(s < 0 for s in sizes):
        raise ValueError("negative part size")
    n = sum(sizes)
    part = []
    for i, s in enumerate(sizes):
        part.extend([i] * s)
    return graph_from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if part[u] != part[v]]
    )


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return graph_from_edges(10, outer + spokes + inner)


# ---------------------------------------------------------------------------
# Edge indexing for K_n: lexicographic bijection (u,v), u<v  <->  {0..C(n,2)-1}
# ---------------------------------------------------------------------------

def num_edges(n: int) -> int:
    return n * (n - 1) // 2


def edge_index(u: int, v: int, n: int) -> int:
    if not (0 <= u < v < n):
        raise ValueError("invalid edge (%r,%r) for n=%d" % (u, v, n))
    return u * (2 * n - u - 1) // 2 + (v - u - 1)


def edge_of(i: int, n: int):
    """Inverse of edge_index."""
    m = num_edges(n)
    if not 0 <= i < m:
        raise ValueError("edge id %d out of range for n=%d" % (i, n))
    # Counted from the end, the last r rows hold r(r+1)/2 ids; id i sits in
    # the r-th row from the end for r = floor((isqrt(8j+1)-1)/2), j = m-1-i.
    r = (math.isqrt(8 * (m - 1 - i) + 1) - 1) // 2
    u = n - 2 - r
    return (u, i - u * (2 * n - u - 1) // 2 + u + 1)


def edge_pairs(n: int):
    """All edges of K_n in edge_index order."""
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


# ---------------------------------------------------------------------------
# Counting and density
# ---------------------------------------------------------------------------

def edges_between(G: Graph, S: int, T: int) -> int:
    """e_G(S,T): edges with one endpoint in S, the other in T (disjoint masks)."""
    if S & T:
        raise ValueError("S and T overlap")
    return sum((G.adj[u] & T).bit_count() for u in bits(S))


def density(G: Graph, A: int, B: int) -> Fraction:
    """d(A,B) = e(A,B) / (|A||B|), exact."""
    if A & B:
        raise ValueError("A and B overlap")
    a, b = A.bit_count(), B.bit_count()
    if a == 0 or b == 0:
        raise ValueError("empty side")
    return Fraction(edges_between(G, A, B), a * b)


# ---------------------------------------------------------------------------
# Subgraph / induced-subgraph search: a colouring certificate, then one
# domain-mask matcher (Ullmann-style candidate masks, degree pruning)
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=1024)
def _pattern_chi(F: Graph) -> int:
    """chi(F), computed once per pattern (Graph is frozen and hashable)."""
    return chromatic_number(F)


@functools.lru_cache(maxsize=1024)
def _embed_order(F: Graph, first: tuple) -> tuple:
    """The pre-placed vertices `first`, then each vertex touching as many
    placed ones as possible, ties broken by degree, then by label."""
    order = list(first)
    placed = mask_of(first)
    remaining = [w for w in range(F.n) if w not in first]
    while remaining:
        nxt = max(
            remaining,
            key=lambda w: ((F.adj[w] & placed).bit_count(), F.degree(w)),
        )
        order.append(nxt)
        remaining.remove(nxt)
        placed |= 1 << nxt
    return tuple(order)


def _two_colouring(adj) -> Optional[list]:
    """BFS 2-colouring on the masks, one whole frontier per step: the two
    colour classes, or None on an odd cycle."""
    classes = [0, 0]
    unseen = (1 << len(adj)) - 1
    while unseen:
        frontier = side = unseen & -unseen  # side: the frontier's colour class
        other = 0
        while frontier:
            unseen &= ~frontier
            reach = 0
            for w in bits(frontier):
                reach |= adj[w]
            if reach & side:
                return None
            frontier = reach & unseen
            side, other = other | frontier, side
        classes[0] |= side
        classes[1] |= other
    return classes


def _dsatur(adj, k: int) -> Optional[list]:
    """DSATUR (Brelaz 1979) capped at k colours: the next vertex is the
    uncoloured one whose neighbours show the most colours, ties to the
    higher degree, then the lower label; it takes its lowest free colour.
    The k colour classes, or None once a vertex sees all k colours, which
    does not prove that the graph needs more than k."""
    n = len(adj)
    classes = [0] * k
    seen = [0] * n  # the colours on each vertex's coloured neighbours, as bits
    rank = [a.bit_count() for a in adj]  # n * (colours seen) + degree
    left = list(range(n))
    every = (1 << k) - 1
    while left:
        w = max(left, key=rank.__getitem__)
        free = every & ~seen[w]
        if not free:
            return None
        c = free & -free
        classes[c.bit_length() - 1] |= 1 << w
        for x in bits(adj[w]):
            if not seen[x] & c:
                seen[x] |= c
                rank[x] += n
        left.remove(w)
    return classes


def _own_classes(classes, n: int) -> tuple:
    """The class mask of each vertex 0..n-1, from disjoint class masks."""
    own = [0] * n
    for C in classes:
        for w in bits(C):
            own[w] = C
    return tuple(own)


def _colouring(adj, k: int) -> Optional[tuple]:
    """A proper colouring with at most k colours of the graph on the
    adjacency masks `adj`, as the class mask of each vertex, or None when
    none was found: exact for k <= 2 (k = 2 by BFS), and by DSATUR for
    k >= 3, which can miss a colouring."""
    n = len(adj)
    if k == 1:
        classes = None if any(adj) else [(1 << n) - 1]
    else:
        classes = _two_colouring(adj) if k == 2 else _dsatur(adj, k)
    return None if classes is None else _own_classes(classes, n)


class ColouringCertificate:
    """A proper colouring with at most k colours kept across calls; it
    proves absent every graph of chromatic number above k.

    `proves(adj)` re-verifies the kept colouring against the current masks,
    one mask AND per vertex. That assumes nothing about what changed since
    the last call, so it is sound on any graph, in play and in the solver.
    Only when the colouring broke does `_colouring` run. The last graph it
    failed on is kept too, and a graph that contains it is not recoloured:
    in play the builder's graph only grows, so a board that fails once
    skips recolouring for the rest of its match, and in the solver, which
    undoes moves, the skip holds at the failed position and above it.
    """

    def __init__(self, k: int):
        self.k = k
        self.own = None  # the class mask of each vertex
        self.failed = None  # the masks of the last graph that failed

    def proves(self, adj) -> bool:
        own, failed = self.own, self.failed
        if own is not None and len(own) == len(adj) and not any(map(int.__and__, adj, own)):
            return True
        if failed is not None and len(failed) == len(adj) and all(
            f & a == f for f, a in zip(failed, adj)
        ):
            return False
        own = _colouring(adj, self.k)
        if own is None:
            self.failed = tuple(adj)
            return False
        self.own = own
        return True

    def keep(self, colours) -> None:
        """Keep a proper colouring given as one colour per vertex."""
        classes = [0] * self.k
        for w, c in enumerate(colours):
            classes[c] |= 1 << w
        self.own = _own_classes(classes, len(colours))


def _certified_free(G: Graph, F: Graph) -> bool:
    """True when G has a proper (chi(F)-1)-colouring, so it holds no copy of F."""
    k = _pattern_chi(F) - 1
    return k >= 2 and _colouring(G.adj, k) is not None


def embed(G: Graph, F: Graph, induced: bool, domains=None, anchor=None) -> Optional[tuple]:
    """The embedding kernel: an injective map V(F)->V(G) preserving edges (and
    non-edges when `induced`), or None.

    `domains[i]` restricts F-vertex i to a mask of G-vertices (the transversal
    case); `anchor=(u, v)` asks for a copy through the G-edge uv, pre-placing
    u, v on each F-edge in both orientations. Unanchored, no search runs
    when G is certifiably (chi(F)-1)-colourable; the anchored search is the
    detectors' per-move check, and they keep their certificate across moves
    (`ColouringCertificate`) and ask it first. Otherwise each F-vertex, in
    connectivity order, draws its candidates from one mask: its domain minus
    the used vertices, ANDed with the adjacency of each placed F-neighbour
    and, for induced search, minus that of each placed F-non-neighbour.
    """
    if F.n == 0:
        return ()
    if F.n > G.n or (anchor and not G.has_edge(*anchor)):
        return None
    if anchor is None and _certified_free(G, F):
        return None
    adj = G.adj
    if domains is None:  # degree pruning for non-induced search: deg_G >= deg_F
        need = [0 if induced else F.degree(w) for w in range(F.n)]
        domains = [mask_of(g for g in range(G.n) if adj[g].bit_count() >= d) for d in need]
    image = [-1] * F.n

    def extend(pos: int, used: int) -> bool:
        if pos == len(order):
            return True
        fv = order[pos]
        cand = domains[fv] & ~used
        for w in order[:pos]:
            if F.adj[fv] >> w & 1:
                cand &= adj[image[w]]
            elif induced:
                cand &= ~adj[image[w]]
        while cand:
            low = cand & -cand
            image[fv] = low.bit_length() - 1
            if extend(pos + 1, used | low):
                return True
            cand ^= low
        return False

    if anchor is None:
        starts = [((), ())]
    else:
        u, v = anchor
        starts = [((a, b), gs) for a, b in F.edges() for gs in ((u, v), (v, u))]
    for first, pinned in starts:
        order = _embed_order(F, first)
        for a, g in zip(first, pinned):
            image[a] = g
        if extend(len(first), mask_of(pinned)):
            return tuple(image)
    return None


def contains_subgraph(G: Graph, F: Graph) -> Optional[tuple]:
    """Injective map V(F)->V(G) preserving edges, or None."""
    return embed(G, F, induced=False)


def contains_induced(G: Graph, F: Graph) -> Optional[tuple]:
    """Injective map preserving both edges and non-edges, or None."""
    return embed(G, F, induced=True)


def contains_subgraph_with_edge(
    G: Graph, F: Graph, u: int, v: int, induced: bool = False
) -> Optional[tuple]:
    """A copy of F in G (induced when `induced`) whose image uses the edge
    (u,v), or None.

    The kernel pre-places u and v on each F-edge and searches the rest, with
    no colouring certificate: the detectors that call it keep their own
    across moves. Sound as a full containment check only when G minus that
    edge holds no such copy (the in-game incremental case): a new copy
    contains u and v, so uv is the image of an F-edge even in an induced
    copy.
    """
    return embed(G, F, induced=induced, anchor=(u, v))


# ---------------------------------------------------------------------------
# Colorability
# ---------------------------------------------------------------------------

def greedy_coloring(G: Graph) -> list:
    """Greedy coloring in degree-descending order; an upper-bound witness."""
    colors = [-1] * G.n
    for u in sorted(range(G.n), key=G.degree, reverse=True):
        taken = {colors[v] for v in bits(G.adj[u]) if colors[v] >= 0}
        c = 0
        while c in taken:
            c += 1
        colors[u] = c
    return colors


def k_coloring(G: Graph, k: int) -> Optional[list]:
    """A proper coloring with at most k colors, or None (exact branch and bound)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if G.n == 0:
        return []
    greedy = greedy_coloring(G)
    if max(greedy) + 1 <= k:
        return greedy
    order = sorted(range(G.n), key=G.degree, reverse=True)
    colors = [-1] * G.n

    def backtrack(pos: int, used: int):
        if pos == G.n:
            return True
        u = order[pos]
        # symmetry break: allow at most one brand-new color
        limit = min(k, used + 1)
        taken = {colors[v] for v in bits(G.adj[u]) if colors[v] >= 0}
        for c in range(limit):
            if c in taken:
                continue
            colors[u] = c
            if backtrack(pos + 1, max(used, c + 1)):
                return True
            colors[u] = -1
        return False

    if backtrack(0, 0):
        return list(colors)
    return None


def is_k_colorable(G: Graph, k: int) -> bool:
    return k_coloring(G, k) is not None


def chromatic_number(G: Graph) -> int:
    if G.n == 0:
        return 0
    for k in itertools.count(1):
        if is_k_colorable(G, k):
            return k


# ---------------------------------------------------------------------------
# Turan machinery
# ---------------------------------------------------------------------------

def turan_number(n: int, k: int) -> int:
    """t(n,k): max edges in an n-vertex graph with no K_{k+1} (closed formula)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    q = Fraction(n, k)
    t = (
        Fraction(k - 1, k) * n * n / 2
        - Fraction(k, 2) * (math.ceil(q) - q) * (q - math.floor(q))
    )
    assert t.denominator == 1, "Turan formula must be integral"
    return int(t)


def turan_graph(n: int, k: int) -> Graph:
    """Balanced complete k-partite graph; vertex i lives in part i mod k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return graph_from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if u % k != v % k]
    )


def turan_bounds(n: int, k: int):
    """(floor(t(n,k-1)/2), (k-2)/(k-1) * n^2/4) for k >= 2: the lower bound and
    the leading term of the upper bound for a family of minimum chromatic
    number k. Every bound in the package is this formula.
    """
    if k < 2:
        raise ValueError("bounds need k >= 2")
    return turan_number(n, k - 1) // 2, Fraction(k - 2, k - 1) * n * n / 4


def theorem_bounds(n: int, k: int):
    """Family-variant bounds: (floor(t(n,k-1)/2), (k-2)/(k-1) * n^2/4).

    The upper value is the leading term only; any o(n^2) slack is a reporting
    parameter of the caller, not computed here.
    """
    if k < 3:
        raise ValueError("family variant needs k >= 3")
    return turan_bounds(n, k)


def nc_theorem_bounds(n: int, k: int):
    """Non-k-colorability bounds: (floor(t(n,k)/2), (k-1)/k * n^2/4)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return turan_bounds(n, k + 1)


# ---------------------------------------------------------------------------
# Text format and named generators
# ---------------------------------------------------------------------------

def graph_from_text(text: str) -> Graph:
    """Parse `n m` then m lines `u v` (0-indexed, u < v)."""
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty graph text")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("first line must be 'n m'")
    n, m = int(head[0]), int(head[1])
    if len(lines) - 1 != m:
        raise ValueError("expected %d edge lines, got %d" % (m, len(lines) - 1))
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError("malformed edge line: %r" % ln)
        u, v = int(parts[0]), int(parts[1])
        if not u < v:
            raise ValueError("edge must have u < v: %r" % ln)
        edges.append((u, v))
    return graph_from_edges(n, edges)


def graph_to_text(G: Graph) -> str:
    edges = G.edges()
    lines = ["%d %d" % (G.n, len(edges))]
    lines.extend("%d %d" % e for e in edges)
    return "\n".join(lines) + "\n"


def graph_from_name(name: str) -> Graph:
    """Named generators: K<n>, C<n>, P<n>, Kpartite:<s1>,<s2>,..., petersen."""
    if name == "petersen":
        return petersen_graph()
    m = re.fullmatch(r"K(\d+)", name)
    if m:
        return complete_graph(int(m.group(1)))
    m = re.fullmatch(r"C(\d+)", name)
    if m:
        return cycle_graph(int(m.group(1)))
    m = re.fullmatch(r"P(\d+)", name)
    if m:
        return path_graph(int(m.group(1)))
    m = re.fullmatch(r"Kpartite:([\d,]+)", name)
    if m:
        return complete_multipartite(int(s) for s in m.group(1).split(","))
    raise ValueError("unknown graph name: %r" % name)


def load_graph(spec: str) -> Graph:
    """A named generator, or a path to a graph text file."""
    if os.path.exists(spec):
        with open(spec) as fh:
            return graph_from_text(fh.read())
    return graph_from_name(spec)
