"""The embedding kernel behind every containment entry point, against the
networkx VF2 matcher (Cordella et al. 2004) and brute-force oracles.

G has at most 9 vertices and F at most 5. Every witness is checked for
validity; the colouring certificate is checked not to hide a copy, on
bipartite (and 3-partite) graphs and after an odd edge is added.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from networkx import Graph as NxGraph
from networkx.algorithms.isomorphism import GraphMatcher

from edgegames import (
    BUILDER,
    OPPONENT,
    InducedSubgraphProperty,
    NotKColorableProperty,
    SubgraphProperty,
    chromatic_number,
    contains_induced,
    contains_subgraph,
    find_induced_embedding,
    graph_from_edges,
    graph_from_name,
    mask_of,
)
import edgegames.graphs as kernel
from edgegames.engine import Board
from edgegames.graphs import contains_subgraph_with_edge
from test_graphs import brute_force_colorable
from test_regularity import oracle_embedding


def to_nx(G):
    H = NxGraph()
    H.add_nodes_from(range(G.n))
    H.add_edges_from(G.edges())
    return H


def monomorphic(G, F):
    return GraphMatcher(to_nx(G), to_nx(F)).subgraph_is_monomorphic()


def copy_uses_edge(G, F, u, v):
    """Some copy of F in G maps an F-edge onto uv (all VF2 monomorphisms)."""
    for m in GraphMatcher(to_nx(G), to_nx(F)).subgraph_monomorphisms_iter():
        if u in m and v in m and F.has_edge(m[u], m[v]):
            return True
    return False


def without_edge(G, u, v):
    return graph_from_edges(G.n, [e for e in G.edges() if e != (min(u, v), max(u, v))])


def check_witness(G, F, w, induced=False, parts=None, edge=None):
    assert len(w) == F.n and len(set(w)) == F.n
    assert all(0 <= x < G.n for x in w)
    for a in range(F.n):
        for b in range(a + 1, F.n):
            if F.has_edge(a, b):
                assert G.has_edge(w[a], w[b])
            elif induced:
                assert not G.has_edge(w[a], w[b])
    if parts is not None:
        assert all(parts[i] >> w[i] & 1 for i in range(F.n))
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


@st.composite
def transversal_parts(draw, G, f):
    """f disjoint non-empty vertex classes of G (not necessarily covering it)."""
    order = draw(st.permutations(range(G.n)))
    rest = draw(st.lists(st.integers(-1, f - 1), min_size=G.n - f, max_size=G.n - f))
    label = dict(zip(order, list(range(f)) + rest))  # -1: in no class
    return [[v for v in range(G.n) if label[v] == i] for i in range(f)]


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


# (c) the anchored search finds exactly the copies through uv
@settings(max_examples=300, deadline=None)
@given(graphs(2, 9), graphs(1, 5), st.data())
def test_with_edge_matches_networkx(G, F, data):
    u = data.draw(st.integers(0, G.n - 1))
    v = data.draw(st.integers(0, G.n - 1).filter(lambda x: x != u))
    w = contains_subgraph_with_edge(G, F, u, v)
    assert (w is not None) == copy_uses_edge(G, F, u, v)
    if w is not None:
        check_witness(G, F, w, edge=(u, v))
    # the in-game case: when G - uv is F-free, a hit through uv is F in G
    if not monomorphic(without_edge(G, u, v), F):
        assert (w is not None) == monomorphic(G, F)


# (d) the transversal search agrees with the product-scan oracle
@settings(max_examples=300, deadline=None)
@given(graphs(1, 9), graphs(1, 5), st.data())
def test_find_induced_embedding_matches_oracle(G, H, data):
    if H.n > G.n:
        return
    parts_verts = data.draw(transversal_parts(G, H.n))
    parts = [mask_of(p) for p in parts_verts]
    w = find_induced_embedding(G, H, parts)
    assert (w is None) == (oracle_embedding(G, H, parts_verts) is None)
    if w is not None:
        check_witness(G, H, w, induced=True, parts=parts)


def all_entry_points(G, F, u, v, parts_verts):
    parts = [mask_of(p) for p in parts_verts]
    return (
        contains_subgraph(G, F),
        contains_induced(G, F),
        contains_subgraph_with_edge(G, F, u, v),
        find_induced_embedding(G, F, parts) if F.n <= G.n else None,
    )


def check_entry_points_against_oracles(G, F, u, v, parts_verts):
    sub, ind, anchored, trans = all_entry_points(G, F, u, v, parts_verts)
    assert (sub is not None) == monomorphic(G, F)
    assert (ind is not None) == GraphMatcher(to_nx(G), to_nx(F)).subgraph_is_isomorphic()
    assert (anchored is not None) == copy_uses_edge(G, F, u, v)
    if F.n <= G.n:
        assert (trans is None) == (oracle_embedding(G, F, parts_verts) is None)
    for w, kw in ((sub, {}), (ind, {"induced": True}), (anchored, {"edge": (u, v)})):
        if w is not None:
            check_witness(G, F, w, **kw)
    if trans is not None:
        check_witness(G, F, trans, induced=True, parts=[mask_of(p) for p in parts_verts])
    return sub, ind, anchored, trans


# (e) the certificate never hides a copy
@settings(max_examples=300, deadline=None)
@given(partite_graphs(2), st.sampled_from([3, 5]), st.data())
def test_certificate_on_bipartite_then_odd_edge(Gc, length, data):
    G, side = Gc
    F = data.draw(patterns_with_cycle(length))
    assert chromatic_number(F) >= 3
    u = data.draw(st.integers(0, G.n - 1))
    v = data.draw(st.integers(0, G.n - 1).filter(lambda x: x != u))
    parts_verts = data.draw(transversal_parts(G, F.n)) if F.n <= G.n else []
    assert all_entry_points(G, F, u, v, parts_verts) == (None, None, None, None)
    check_entry_points_against_oracles(G, F, u, v, parts_verts)
    # an edge inside one side may close an odd cycle; then search must run
    same = [x for x in range(G.n) if x != u and side[x] == side[u]]
    if same:
        x = data.draw(st.sampled_from(same))
        G2 = graph_from_edges(G.n, G.edges() + [(min(u, x), max(u, x))])
        check_entry_points_against_oracles(G2, F, u, x, parts_verts)
        # in-game: G2 - ux = G is F-free, so a hit through ux is F in G2
        assert (contains_subgraph_with_edge(G2, F, u, x) is not None) == monomorphic(G2, F)


@settings(max_examples=200, deadline=None)
@given(partite_graphs(3), patterns_with_cycle(4), st.data())
def test_certificate_on_tripartite(Gc, F, data):
    G, _ = Gc
    assert chromatic_number(F) >= 4
    u = data.draw(st.integers(0, G.n - 1))
    v = data.draw(st.integers(0, G.n - 1).filter(lambda x: x != u))
    parts_verts = data.draw(transversal_parts(G, F.n)) if F.n <= G.n else []
    assert all_entry_points(G, F, u, v, parts_verts) == (None, None, None, None)
    check_entry_points_against_oracles(G, F, u, v, parts_verts)


# (f) the certificate the detectors keep across claims and undos
CERTIFIED_FAMILIES = [
    ("subgraph", ["C5"]),
    ("subgraph", ["K4"]),
    ("subgraph", ["K5"]),
    ("induced", ["C5", "K4"]),
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
        board.undo(eid, player)
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
    # graph free that holds a copy (networkx VF2), and the detector's check
    # after a builder claim, made when the graph before it had no copy,
    # must find exactly the new copies
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
        if det._cert.proves(board.adj[BUILDER]):
            assert not now
        if step is not None and step[1] == BUILDER and not before:
            u, v = board.pairs[step[0]]
            assert det.hit_after_masks(n, board.adj[BUILDER], u, v) == now
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
        if det._cert.proves(board.adj[BUILDER]):
            assert colourable
        assert det.holds(G) == (not colourable)


def test_certificate_survives_moves_and_remembers_failure(monkeypatch):
    # a colouring that stays proper is kept as it is; a graph that could not
    # be coloured is not recoloured while the graph contains it, and is
    # again once an undo leaves it
    calls = []
    real = kernel._colouring
    monkeypatch.setattr(kernel, "_colouring", lambda adj, k: calls.append(k) or real(adj, k))
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
