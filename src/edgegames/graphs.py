"""Bitset graphs on labelled vertices, K_n edge indexing, and Turan machinery.

Vertices are 0-indexed integers. Vertex sets are plain Python ints used as
bitmasks, so set algebra is `&`, `|`, `~` and cardinality is `int.bit_count()`.
All densities are exact `Fraction`s; no floats enter any threshold comparison.
"""

from __future__ import annotations

import functools
import heapq
import math
import os
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

# The largest board (~2 M edges; a full-board jumbleg match peaks near 55 MB)
# and the largest graph the parsers build (n-bit rows, about n^2/8 bytes).
MAX_N = 2000


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
    state, solver, sweep monitor, and the builders below, whose rows are
    symmetric, loop-free and in range by construction), built without the
    O(n*deg) validation."""
    G = object.__new__(Graph)
    G.__dict__.update(n=n, adj=tuple(adj))
    return G


def graph_from_edges(n: int, edges) -> Graph:
    """Checks every endpoint and sets both rows' bit for each edge, so the
    rows skip `Graph`'s per-bit check."""
    if n < 0:
        raise ValueError("negative vertex count")
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise ValueError("invalid edge (%r,%r) for n=%d" % (u, v, n))
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return _trusted_graph(n, adj)


def empty_graph(n: int) -> Graph:
    return Graph(n, (0,) * n)


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return _trusted_graph(n, (full ^ (1 << u) for u in range(n)))


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
    full, rows, start = (1 << n) - 1, [], 0
    for s in sizes:  # a vertex's row: every vertex outside its own part
        rows.extend([full ^ ((1 << s) - 1) << start] * s)
        start += s
    return _trusted_graph(n, rows)


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
# Subgraph / induced-subgraph search: one domain-mask matcher (Ullmann-style
# candidate masks, degree pruning)
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=1024)
def _embed_starts(F: Graph, anchored: bool) -> tuple:
    """F's degree per vertex, and (first, order) per start: nothing
    pre-placed, or, anchored, each F-edge."""
    starts = tuple((first, _embed_order(F, first)) for first in (F.edges() if anchored else [()]))
    return tuple(map(F.degree, range(F.n))), starts


def _embed_order(F: Graph, first: tuple) -> tuple:
    """The pre-placed vertices `first`, then each vertex touching as many
    placed ones as possible, ties broken by degree, then by label. A heap
    holds (-placed neighbours, -degree, label) per remaining vertex; placing
    a vertex pushes a fresh entry for each unplaced neighbour, and an entry
    whose count has since grown is stale and skipped."""
    order = list(first)
    placed = bytearray(F.n)
    for w in first:
        placed[w] = 1
    first_mask = mask_of(first)
    touching = [(row & first_mask).bit_count() for row in F.adj]
    heap = [(-touching[w], -F.degree(w), w) for w in range(F.n) if not placed[w]]
    heapq.heapify(heap)
    while heap:
        count, _, w = heapq.heappop(heap)
        if placed[w] or -count != touching[w]:
            continue
        order.append(w)
        placed[w] = 1
        for x in bits(F.adj[w]):
            if not placed[x]:
                touching[x] += 1
                heapq.heappush(heap, (-touching[x], -F.degree(x), x))
    return tuple(order)


def _degree_domains(adj, need) -> list:
    """For each d in `need`, the mask of the vertices whose row in `adj`
    has at least d bits: one mask per distinct degree, ORed downward."""
    of_degree = {}
    for g, row in enumerate(adj):
        d = row.bit_count()
        of_degree[d] = of_degree.get(d, 0) | 1 << g
    at_least, mask, i = {}, 0, 0
    levels = sorted(of_degree, reverse=True)
    for d in sorted(set(need), reverse=True):
        while i < len(levels) and levels[i] >= d:
            mask |= of_degree[levels[i]]
            i += 1
        at_least[d] = mask
    return [at_least[d] for d in need]


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


def _colouring(adj, k: int, exact: bool = False) -> Optional[list]:
    """The k colour classes of a proper colouring of the graph on the
    adjacency masks `adj`, or None when none was found.

    k = 1 is the edge test and k = 2 the BFS, both exact. For k >= 3 it runs
    DSATUR (Brelaz 1979): the next vertex is the uncoloured one whose
    neighbours show the most colours, ties to the higher degree, then the
    lower label, and it takes its lowest free colour, so at most one new
    colour per step. The uncoloured vertices are kept by that count, one
    mask per count with the bits in (degree, label) pick order, so a pick
    is the lowest bit of the highest nonempty mask. Alone, that first
    descent stops once a vertex sees all k colours, which does not prove
    that the graph needs more. With `exact` it then backtracks, on an
    explicit stack, to the latest vertex with another free colour (still at
    most one new colour), so None proves that no k-colouring exists. It
    stops on backtracking to a pick that saw no colour: that pick opened a
    component, the earlier ones all coloured, which has no k-colouring.
    """
    n = len(adj)
    if k == 1:
        return None if any(adj) else [(1 << n) - 1]
    if k == 2:
        return _two_colouring(adj)
    classes = [0] * k
    seen = [0] * n  # the colours on each vertex's coloured neighbours, as bits
    near = [0] * k  # the vertices that see each colour, as masks
    order = sorted(range(n), key=lambda w: (-adj[w].bit_count(), w))  # the pick order
    bit = [0] * n  # vertex w is bit order.index(w) of the level masks
    for p, w in enumerate(order):
        bit[w] = 1 << p
    level = [(1 << n) - 1] + [0] * k  # level[s]: the uncoloured vertices that see s colours
    top = 0  # the levels above it are empty
    coloured = bytearray(n)
    left = n  # the uncoloured vertices
    every = (1 << k) - 1
    used = 0  # the colours in use are 0..used-1
    # per coloured vertex: its colour bit, the free colours not yet tried,
    # and the neighbours that first saw that colour through it
    stack = []
    while left:
        while not level[top]:
            top -= 1
        w = order[(level[top] & -level[top]).bit_length() - 1]
        untried = every & ~seen[w] & ((2 << used) - 1)
        while not untried:
            if not exact or not stack:
                return None
            w, c, untried, newly = stack.pop()
            if not seen[w]:  # w opened its component, which then has no k-colouring
                return None
            i = c.bit_length() - 1
            classes[i] ^= 1 << w
            if not classes[i]:  # w brought colour i in, and all after it are undone
                used = i
            near[i] ^= newly
            coloured[w] = 0
            left += 1
            level[seen[w].bit_count()] |= bit[w]  # top is k: the last pick saw all k
            for x in bits(newly):
                seen[x] ^= c
                if not coloured[x]:  # x drops a level
                    s = seen[x].bit_count()
                    level[s + 1] ^= bit[x]
                    level[s] |= bit[x]
        c = untried & -untried
        i = c.bit_length() - 1
        classes[i] |= 1 << w
        used = max(used, i + 1)
        newly = adj[w] & ~near[i]
        near[i] |= newly
        coloured[w] = 1
        left -= 1
        level[seen[w].bit_count()] ^= bit[w]
        for x in bits(newly):
            seen[x] |= c
            if not coloured[x]:  # x rises a level
                s = seen[x].bit_count()
                level[s - 1] ^= bit[x]
                level[s] |= bit[x]
                if s > top:
                    top = s
        stack.append((w, c, untried ^ c, newly))
    return classes


def _colours(classes, n: int) -> list:
    """The colour of each vertex 0..n-1, from disjoint classes covering them."""
    colours = [0] * n
    for c, C in enumerate(classes):
        for w in bits(C):
            colours[w] = c
    return colours


class ColouringCertificate:
    """A proper colouring with at most k colours kept across calls; it
    proves absent every graph of chromatic number above k.

    `proves(adj)` re-verifies the kept colouring against the current masks,
    one mask AND per vertex. That assumes nothing about what changed since
    the last call, so it is sound on any graph, in play and in the solver.
    Only when the colouring broke does `_colouring` run, exact when
    `exact`, with at most as many colours as there are vertices. The last
    graph it failed on is kept too, and a graph that contains it is not
    recoloured: in play the builder's graph only grows, so a board that
    fails once skips recolouring for the rest of its match, and in the
    solver, which undoes moves, the skip holds at the failed position and
    above it. With `exact` that skip is exact too, since a graph that
    contains a non-k-colourable one is not k-colourable.
    """

    def __init__(self, k: int, exact: bool = False):
        self.k = k
        self.exact = exact
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
        classes = _colouring(adj, min(self.k, len(adj)), self.exact)
        if classes is None:
            self.failed = tuple(adj)
            return False
        own = [0] * len(adj)
        for C in classes:
            for w in bits(C):
                own[w] = C
        self.own = own
        return True


def embed(G: Graph, F: Graph, induced: bool, anchor=None) -> Optional[tuple]:
    """The embedding kernel: an injective map V(F)->V(G) preserving edges (and
    non-edges when `induced`), or None.

    `anchor=(u, v)` asks for a copy through the G-edge uv, pre-placing u, v
    on each F-edge in both orientations. Each F-vertex, in connectivity
    order, draws its candidates from one mask: its domain (the G-vertices of
    at least its degree, or all of them for induced search) minus the used
    vertices, ANDed with the adjacency of each placed F-neighbour and, for
    induced search, minus that of each placed F-non-neighbour. It only
    searches: a colouring certificate is the detectors' job.
    """
    if F.n == 0:
        return ()
    if F.n > G.n or (anchor and not G.has_edge(*anchor)):
        return None
    adj = G.adj
    need, starts = _embed_starts(F, anchor is not None)
    domains = [(1 << G.n) - 1] * F.n if induced else _degree_domains(adj, need)
    image = [-1] * F.n

    def extend(pos: int, used: int) -> bool:
        """Place order[pos:] depth first, lowest candidate first. The
        untried candidates of each placed vertex wait on an explicit stack,
        so a pattern of any size stays within the recursion limit."""
        start, stack, cand = pos, [], None
        while pos < len(order):
            fv = order[pos]
            if cand is None:  # fv's candidates, on arrival from the vertex before it
                cand = domains[fv] & ~used
                for w in order[:pos]:
                    if F.adj[fv] >> w & 1:
                        cand &= adj[image[w]]
                    elif induced:
                        cand &= ~adj[image[w]]
            if cand:
                low = cand & -cand
                image[fv] = low.bit_length() - 1
                stack.append(cand ^ low)
                used |= low
                pos, cand = pos + 1, None
            elif pos == start:
                return False
            else:  # back to the vertex before fv, at its next candidate
                pos -= 1
                used ^= 1 << image[order[pos]]
                cand = stack.pop()
        return True

    pins = (anchor, anchor[::-1]) if anchor else ((),)  # u, v on each F-edge both ways
    used = mask_of(pins[0])
    for first, order in starts:
        for pinned in pins:
            for a, g in zip(first, pinned):
                image[a] = g
            if extend(len(first), used):
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

    The kernel pre-places u and v on each F-edge and searches the rest.
    Sound as a full containment check only when G minus that edge holds no
    such copy (the in-game incremental case): a new copy contains u and v,
    so uv is the image of an F-edge even in an induced copy.
    """
    return embed(G, F, induced=induced, anchor=(u, v))


# ---------------------------------------------------------------------------
# Colorability
# ---------------------------------------------------------------------------

def greedy_coloring(G: Graph) -> list:
    """DSATUR's first descent with no cap on colours, one colour per
    vertex; an upper-bound witness."""
    return _colours(_colouring(G.adj, G.n), G.n)


def k_coloring(G: Graph, k: int) -> Optional[list]:
    """A proper coloring with at most k colors, one per vertex, or None
    (exact: `_colouring` with backtracking)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    classes = _colouring(G.adj, k, exact=True)
    return None if classes is None else _colours(classes, G.n)


def is_k_colorable(G: Graph, k: int) -> bool:
    return k_coloring(G, k) is not None


def chromatic_number(G: Graph) -> int:
    """chi(G), counted down from DSATUR's first descent, which 2-colours a bipartite G."""
    if G.n == 0:
        return 0
    k = max(greedy_coloring(G)) + 1
    while k > 1 and is_k_colorable(G, k - 1):
        k -= 1
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
    # r parts of q + 1 vertices and k - r of q: every pair minus the in-part pairs
    q, r = divmod(n, k)
    return (n * n - r * (q + 1) ** 2 - (k - r) * q * q) // 2


def turan_graph(n: int, k: int) -> Graph:
    """Balanced complete k-partite graph; vertex i lives in part i mod k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    full, stride = (1 << n) - 1, 0
    for i in range(0, n, k):  # part 0: the multiples of k below n
        stride |= 1 << i
    rows = [full ^ (stride << r & full) for r in range(min(k, n))]  # row of part r
    return _trusted_graph(n, [rows[i % k] for i in range(n)])


def turan_bounds(n: int, k: int):
    """(floor(t(n,k-1)/2), (k-2)/(k-1) * n^2/4) for k >= 2: the lower bound and
    the leading term of the upper bound for a family of minimum chromatic
    number k; the game of non-k-colourability takes k + 1. Every bound in the
    package is this formula. The upper value is the leading term only; any
    o(n^2) slack is a reporting parameter of the caller.
    """
    if k < 2:
        raise ValueError("bounds need k >= 2")
    return turan_number(n, k - 1) // 2, Fraction(k - 2, k - 1) * n * n / 4


# ---------------------------------------------------------------------------
# Text format and named generators
# ---------------------------------------------------------------------------

def _check_size(n: int) -> int:
    """n, if a graph on n vertices is within MAX_N; checked before any row is built."""
    if n > MAX_N:
        raise ValueError("graph needs n <= %d, got %d" % (MAX_N, n))
    return n


def graph_from_text(text: str) -> Graph:
    """Parse `n m` then m distinct lines `u v` (0-indexed, u < v)."""
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty graph text")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("first line must be 'n m'")
    n, m = _check_size(int(head[0])), int(head[1])
    if len(lines) - 1 != m:
        raise ValueError("expected %d edge lines, got %d" % (m, len(lines) - 1))
    edges = {}  # insertion-ordered, so a bad edge is reported in file order
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError("malformed edge line: %r" % ln)
        u, v = int(parts[0]), int(parts[1])
        if not u < v:
            raise ValueError("edge must have u < v: %r" % ln)
        if (u, v) in edges:
            raise ValueError("repeated edge line: %r" % ln)
        edges[u, v] = None
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
    m = re.fullmatch(r"([KCP])(\d+)", name)
    if m:
        build = {"K": complete_graph, "C": cycle_graph, "P": path_graph}[m.group(1)]
        return build(_check_size(int(m.group(2))))
    m = re.fullmatch(r"Kpartite:([\d,]+)", name)
    if m:
        sizes = [int(s) for s in m.group(1).split(",")]
        _check_size(sum(sizes))
        return complete_multipartite(sizes)
    raise ValueError("unknown graph name: %r" % name)


def load_graph(spec: str) -> Graph:
    """A named generator, or a path to a graph text file."""
    if os.path.exists(spec):
        with open(spec) as fh:
            return graph_from_text(fh.read())
    return graph_from_name(spec)
