"""The embedding kernel behind every containment entry point, against the
networkx VF2 matcher (Cordella et al. 2004) and brute-force oracles.

G has at most 9 vertices and F at most 5. Every witness is checked for
validity. The kernel only searches; the colouring certificate is the
detectors', and it is checked not to hide a copy: on bipartite (and
3-partite) graphs, after an odd edge is added, and kept across the claims
and undos of a board.
"""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from networkx import Graph as NxGraph
from networkx.algorithms.isomorphism import GraphMatcher

import edgegames.graphs as kernel
from edgegames.engine import (
    BUILDER,
    OPPONENT,
    Board,
    InducedSubgraphProperty,
    NotKColorableProperty,
    SubgraphProperty,
)
from edgegames.graphs import (
    chromatic_number,
    contains_induced,
    contains_subgraph,
    contains_subgraph_with_edge,
    graph_from_edges,
    graph_from_name,
    mask_of,
    path_graph,
)
from test_engine import undo
from test_graphs import brute_force_colorable


def to_nx(G):
    H = NxGraph()
    H.add_nodes_from(range(G.n))
    H.add_edges_from(G.edges())
    return H


def monomorphic(G, F):
    return GraphMatcher(to_nx(G), to_nx(F)).subgraph_is_monomorphic()


def copy_uses_edge(G, F, u, v, induced=False):
    """Some copy of F in G maps an F-edge onto uv (all VF2 monomorphisms, or
    all VF2 induced subgraph isomorphisms when `induced`)."""
    matcher = GraphMatcher(to_nx(G), to_nx(F))
    copies = matcher.subgraph_isomorphisms_iter() if induced else matcher.subgraph_monomorphisms_iter()
    return any(u in m and v in m and F.has_edge(m[u], m[v]) for m in copies)


def without_edge(G, u, v):
    return graph_from_edges(G.n, [e for e in G.edges() if e != (min(u, v), max(u, v))])


def check_witness(G, F, w, induced=False, edge=None):
    assert len(w) == F.n and len(set(w)) == F.n
    assert all(0 <= x < G.n for x in w)
    for a in range(F.n):
        for b in range(a + 1, F.n):
            if F.has_edge(a, b):
                assert G.has_edge(w[a], w[b])
            elif induced:
                assert not G.has_edge(w[a], w[b])
    if edge is not None:
        u, v = edge
        assert any(
            {w[a], w[b]} == {u, v} for a in range(F.n) for b in range(a + 1, F.n) if F.has_edge(a, b)
        )


@st.composite
def graphs(draw, min_n, max_n):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return graph_from_edges(n, [e for e, k in zip(pairs, keep) if k])


@st.composite
def partite_graphs(draw, parts, max_n=9):
    """A random graph on 2..max_n vertices whose edges all join different classes."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    cls = draw(st.lists(st.integers(0, parts - 1), min_size=n, max_size=n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if cls[u] != cls[v]]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return graph_from_edges(n, [e for e, k in zip(pairs, keep) if k]), cls


@st.composite
def patterns_with_cycle(draw, length):
    """A random F on up to 5 vertices containing the cycle 0..length-1 (or
    K_length when length is 4), so chi(F) >= 3 (>= 4)."""
    n = draw(st.integers(min_value=length, max_value=5))
    if length == 4:
        forced = {(a, b) for a in range(4) for b in range(a + 1, 4)}
    else:
        forced = {(min(i, (i + 1) % length), max(i, (i + 1) % length)) for i in range(length)}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in forced]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return graph_from_edges(n, sorted(forced) + [e for e, k in zip(pairs, keep) if k])


# (a) subgraph containment agrees with VF2 monomorphism
@settings(max_examples=300, deadline=None)
@given(graphs(0, 9), graphs(1, 5))
def test_contains_subgraph_matches_networkx(G, F):
    w = contains_subgraph(G, F)
    assert (w is not None) == monomorphic(G, F)
    if w is not None:
        check_witness(G, F, w)


# (b) induced containment agrees with VF2 subgraph isomorphism
@settings(max_examples=300, deadline=None)
@given(graphs(0, 9), graphs(1, 5))
def test_contains_induced_matches_networkx(G, F):
    w = contains_induced(G, F)
    assert (w is not None) == GraphMatcher(to_nx(G), to_nx(F)).subgraph_is_isomorphic()
    if w is not None:
        check_witness(G, F, w, induced=True)


# (c) the anchored search finds exactly the copies through uv, induced or not
@settings(max_examples=600, deadline=None)
@given(graphs(2, 9), graphs(1, 5), st.booleans(), st.data())
def test_with_edge_matches_networkx(G, F, induced, data):
    u = data.draw(st.integers(0, G.n - 1))
    v = data.draw(st.integers(0, G.n - 1).filter(lambda x: x != u))
    w = contains_subgraph_with_edge(G, F, u, v, induced=induced)
    assert (w is not None) == copy_uses_edge(G, F, u, v, induced)
    if w is not None:
        check_witness(G, F, w, induced=induced, edge=(u, v))
    # the in-game case: a copy that G - uv lacks holds u and v, so uv is an
    # F-edge of it; when G - uv has no copy, a hit through uv is one in G
    if not has_copy(without_edge(G, u, v), [F], induced):
        assert (w is not None) == has_copy(G, [F], induced)


# (d) the linear setup: search order and degree domains as the quadratic
# constructions it replaced built them
def scan_embed_order(F, first):
    """Each step rescans every remaining vertex: the most placed
    neighbours, then the highest degree, then the lowest label."""
    order = list(first)
    placed = mask_of(first)
    remaining = [w for w in range(F.n) if w not in first]
    while remaining:
        nxt = max(remaining, key=lambda w: ((F.adj[w] & placed).bit_count(), F.degree(w)))
        order.append(nxt)
        remaining.remove(nxt)
        placed |= 1 << nxt
    return tuple(order)


@settings(max_examples=300, deadline=None)
@given(graphs(0, 12), st.data())
def test_embed_order_matches_the_rescan(F, data):
    starts = [()] + [(a, b) for a, b in F.edges()] + [(b, a) for a, b in F.edges()]
    first = data.draw(st.sampled_from(starts))
    assert kernel._embed_order(F, first) == scan_embed_order(F, first)


@settings(max_examples=300, deadline=None)
@given(graphs(0, 12), st.lists(st.integers(0, 12), max_size=8))
def test_degree_domains_match_one_pass_per_pattern_vertex(G, need):
    expected = [mask_of(g for g in range(G.n) if G.adj[g].bit_count() >= d) for d in need]
    assert kernel._degree_domains(G.adj, need) == expected


def test_path_embedding_setup_is_linear():
    # the quadratic order rescan and per-vertex domain passes took 0.30-0.35 s
    # for this call on a 2-core x86-64 VM; the search itself never backtracks
    P = path_graph(1000)
    times = []
    for _ in range(3):
        kernel._embed_starts.cache_clear()
        start = time.perf_counter()
        w = contains_subgraph(P, P)
        times.append(time.perf_counter() - start)
    assert w == tuple(range(1000))
    assert min(times) < 0.1


def all_entry_points(G, F, u, v):
    return (
        contains_subgraph(G, F),
        contains_induced(G, F),
        contains_subgraph_with_edge(G, F, u, v),
        contains_subgraph_with_edge(G, F, u, v, induced=True),
    )


def check_entry_points_against_oracles(G, F, u, v):
    sub, ind, anchored, anchored_ind = all_entry_points(G, F, u, v)
    assert (sub is not None) == monomorphic(G, F)
    assert (ind is not None) == GraphMatcher(to_nx(G), to_nx(F)).subgraph_is_isomorphic()
    assert (anchored is not None) == copy_uses_edge(G, F, u, v)
    assert (anchored_ind is not None) == copy_uses_edge(G, F, u, v, induced=True)
    for w, kw in (
        (sub, {}),
        (ind, {"induced": True}),
        (anchored, {"edge": (u, v)}),
        (anchored_ind, {"induced": True, "edge": (u, v)}),
    ):
        if w is not None:
            check_witness(G, F, w, **kw)


# (e) the certificate never hides a copy
@settings(max_examples=300, deadline=None)
@given(partite_graphs(2), st.sampled_from([3, 5]), st.data())
def test_certificate_on_bipartite_then_odd_edge(Gc, length, data):
    G, side = Gc
    F = data.draw(patterns_with_cycle(length))
    assert chromatic_number(F) >= 3
    u = data.draw(st.integers(0, G.n - 1))
    v = data.draw(st.integers(0, G.n - 1).filter(lambda x: x != u))
    assert all_entry_points(G, F, u, v) == (None, None, None, None)
    assert SubgraphProperty([F]).holds(G) is False
    check_entry_points_against_oracles(G, F, u, v)
    # an edge inside one side may close an odd cycle; then search must run
    same = [x for x in range(G.n) if x != u and side[x] == side[u]]
    if same:
        x = data.draw(st.sampled_from(same))
        G2 = graph_from_edges(G.n, G.edges() + [(min(u, x), max(u, x))])
        check_entry_points_against_oracles(G2, F, u, x)
        # in-game: G2 - ux = G is F-free, so a hit through ux is F in G2
        assert (contains_subgraph_with_edge(G2, F, u, x) is not None) == monomorphic(G2, F)


@settings(max_examples=200, deadline=None)
@given(partite_graphs(3), patterns_with_cycle(4), st.data())
def test_certificate_on_tripartite(Gc, F, data):
    G, _ = Gc
    assert chromatic_number(F) >= 4
    u = data.draw(st.integers(0, G.n - 1))
    v = data.draw(st.integers(0, G.n - 1).filter(lambda x: x != u))
    assert all_entry_points(G, F, u, v) == (None, None, None, None)
    assert SubgraphProperty([F]).holds(G) is False
    check_entry_points_against_oracles(G, F, u, v)


# (f) the certificate the detectors keep across claims and undos
CERTIFIED_FAMILIES = [
    ("subgraph", ["C5"]),
    ("subgraph", ["K4"]),
    ("subgraph", ["K5"]),
    ("induced", ["C5", "K4"]),
    ("subgraph", ["C5", "K4"]),
]


def has_copy(G, members, induced):
    if induced:
        return any(GraphMatcher(to_nx(G), to_nx(F)).subgraph_is_isomorphic() for F in members)
    return any(monomorphic(G, F) for F in members)


def claim_or_undo(board, data, claimed):
    """One solver-like step on `board`: undo a random claim, or claim a
    random free edge for a random player. The edge and its player, or None
    after an undo."""
    if claimed and data.draw(st.integers(0, 3)) == 0:
        eid, player = claimed.pop(data.draw(st.integers(0, len(claimed) - 1)))
        undo(board, eid, player)
        return None
    free = [e for e in range(board.m) if board.claims[e] == 0]
    eid = data.draw(st.sampled_from(free))
    player = data.draw(st.sampled_from([BUILDER, BUILDER, OPPONENT]))
    board.claim(eid, player)
    claimed.append((eid, player))
    return eid, player


@pytest.mark.parametrize("kind, names", CERTIFIED_FAMILIES)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_kept_certificate_never_certifies_a_copy(kind, names, data):
    # random claims and undos, as the solver makes them, on one board; the
    # detector's certificate is asked after every step and must not prove a
    # graph free that holds a copy (networkx VF2), the detector's full check
    # must agree with VF2, and its check after a builder claim, made when
    # the graph before it had no copy, must find exactly the new copies
    members = [graph_from_name(x) for x in names]
    induced = kind == "induced"
    det = (InducedSubgraphProperty if induced else SubgraphProperty)(members)
    n = data.draw(st.integers(min_value=5, max_value=9))
    board, claimed = Board(n), []
    before = False
    for _ in range(data.draw(st.integers(min_value=1, max_value=45))):
        if board.unclaimed == 0:
            break
        step = claim_or_undo(board, data, claimed)
        G = board.builder_graph()
        now = has_copy(G, members, induced)
        if det._cert.proves(board.adj):
            assert not now
        if step is not None and step[1] == BUILDER and not before:
            u, v = board.us[step[0]], board.vs[step[0]]
            assert det.hit_after_masks(n, board.adj, u, v) == now
        assert det.holds(G) == now
        before = now


@pytest.mark.parametrize("k", [2, 3, 4])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_kept_nc_colouring_matches_brute_force(k, data):
    # the same steps for nc:k: the kept colouring, and the detector's answer
    # with it, against every colour assignment
    det = NotKColorableProperty(k)
    n = data.draw(st.integers(min_value=k + 1, max_value=7))
    board, claimed = Board(n), []
    for _ in range(data.draw(st.integers(min_value=1, max_value=30))):
        if board.unclaimed == 0:
            break
        claim_or_undo(board, data, claimed)
        G = board.builder_graph()
        colourable = brute_force_colorable(G, k)
        if det._cert.proves(board.adj):
            assert colourable
        assert det.holds(G) == (not colourable)


def test_certificate_survives_moves_and_remembers_failure(monkeypatch):
    # a colouring that stays proper is kept as it is; a graph that could not
    # be coloured is not recoloured while the graph contains it, and is
    # again once an undo leaves it
    calls = []
    real = kernel._colouring
    monkeypatch.setattr(
        kernel, "_colouring", lambda adj, k, exact=False: calls.append(k) or real(adj, k, exact)
    )
    cert = kernel.ColouringCertificate(2)
    adj = list(graph_from_edges(6, [(0, 1), (1, 2)]).adj)
    assert cert.proves(adj) and len(calls) == 1
    kept = cert.own
    for u, v in [(1, 3), (1, 4), (1, 5)]:  # a star at 1 keeps the classes {1}, the rest
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        assert cert.proves(adj) and cert.own is kept
    assert len(calls) == 1
    odd = list(graph_from_edges(6, [(0, 1), (1, 2), (0, 2)]).adj)
    assert not cert.proves(odd) and len(calls) == 2
    odd[3] |= 1 << 4
    odd[4] |= 1 << 3
    assert not cert.proves(odd) and len(calls) == 2  # contains the failed triangle
    assert cert.proves(list(graph_from_edges(6, [(0, 2), (2, 3)]).adj)) and len(calls) == 3
