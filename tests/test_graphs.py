import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    CORPUS,
    all_free_trees_brute,
    bfs_distances_oracle,
    brute_force_isomorphic,
    induced_subgraph_oracle,
    refuse_distance_matrix,
)
from treecube import _kernels
from treecube.errors import DisconnectedError, GraphParseError
from treecube.graphs import (
    MAX_EDGELIST_ORDER,
    CanonicalForm,
    LabeledGraph,
    _from_masks,
    canonical_form,
    complete_graph,
    cycle_graph,
    degree_sequence,
    delete_vertex,
    delete_vertices,
    diameter,
    eccentricity,
    edge_span,
    is_complete,
    is_connected,
    is_isomorphic,
    isomorphism,
    parse_graph,
    path_graph,
    peripheral_vertices,
    power,
    relabel,
    serialize_graph,
    star_graph,
    to_edgelist,
    to_graph6,
)
from treecube.trees import Tree, is_tree, leaf_extensions


@st.composite
def small_graphs(draw, max_p=8):
    p = draw(st.integers(min_value=1, max_value=max_p))
    pairs = [(u, v) for u in range(p) for v in range(u + 1, p)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return LabeledGraph(p, edges)


# ── construction and invariants ───────────────────────────────────────


def test_rejects_self_loops_and_range():
    with pytest.raises(ValueError):
        LabeledGraph(3, [(1, 1)])
    with pytest.raises(ValueError):
        LabeledGraph(3, [(0, 3)])


def test_duplicate_edges_collapse():
    G = LabeledGraph(3, [(0, 1), (1, 0)])
    assert len(G.edges) == 1


# ── parsing ───────────────────────────────────────────────────────────


def test_parse_path_on_three():
    G = parse_graph("3\n0 1\n1 2")
    assert G.p == 3 and G.edges == frozenset({(0, 1), (1, 2)})


def test_parse_single_vertex():
    G = parse_graph("1\n")
    assert G.p == 1 and not G.edges


def test_parse_rejects_self_loop():
    with pytest.raises(GraphParseError) as exc:
        parse_graph("2\n0 0")
    assert exc.value.line == 2


def test_parse_rejects_duplicates_and_garbage():
    with pytest.raises(GraphParseError) as exc:
        parse_graph("3\n0 1\n1 0")
    assert exc.value.message == "duplicate edge (1, 0)" and exc.value.line == 3
    with pytest.raises(GraphParseError):
        parse_graph("3\n0 x")
    with pytest.raises(GraphParseError):
        parse_graph("")
    with pytest.raises(GraphParseError):
        parse_graph("3\n0 1 2")


def test_parse_reports_blank_input_as_empty():
    for text in ("", "  \n\n", "\t"):
        with pytest.raises(GraphParseError) as exc:
            parse_graph(text)
        assert exc.value.message == "empty input"


def test_parse_caps_the_edgelist_header():
    # the header is checked before any per-vertex state is allocated
    with pytest.raises(GraphParseError) as exc:
        parse_graph("\n1000000000\n")
    assert exc.value.line == 2
    with pytest.raises(GraphParseError):
        parse_graph(f"{MAX_EDGELIST_ORDER + 1}\n")
    assert parse_graph("40000\n").p == 40000


def test_edgelist_round_trip():
    G = LabeledGraph(5, [(0, 2), (1, 4), (2, 3)])
    assert parse_graph(to_edgelist(G)) == G


def test_graph6_known_vector_k4():
    assert to_graph6(complete_graph(4)) == "C~"
    assert parse_graph("C~") == complete_graph(4)


def test_graph6_header_and_errors():
    assert parse_graph(">>graph6<<C~") == complete_graph(4)
    with pytest.raises(GraphParseError):
        parse_graph("C~~", fmt="graph6")  # payload too long
    with pytest.raises(GraphParseError):
        parse_graph("C\x1c", fmt="graph6")  # character below range


def test_graph6_cross_checked_against_networkx():
    rng = random.Random(11)
    for _ in range(50):
        p = rng.randint(1, 14)
        edges = [(u, v) for u in range(p) for v in range(u + 1, p) if rng.random() < 0.35]
        G = LabeledGraph(p, edges)
        s = to_graph6(G)
        H = nx.from_graph6_bytes(s.encode())
        assert set(map(frozenset, H.edges())) == set(map(frozenset, edges))
        assert parse_graph(s, fmt="graph6") == G


def test_serialize_graph_formats():
    G = path_graph(3)
    assert serialize_graph(G).startswith("3\n")
    assert serialize_graph(G, "graph6").strip() == to_graph6(G)
    with pytest.raises(ValueError):
        serialize_graph(G, "dot")


# ── distances and powers ──────────────────────────────────────────────


def _distances(G):
    return _kernels.all_pairs_distances(G.p, G._adj)


def test_distance_examples():
    assert _distances(path_graph(5))[0][4] == 4
    assert _distances(LabeledGraph(2))[0][1] == -1
    d = _distances(complete_graph(4))
    assert all(d[u][v] == 1 for u in range(4) for v in range(4) if u != v)


def test_distances_match_oracle_on_random_graphs():
    rng = random.Random(5)
    for _ in range(40):
        p = rng.randint(1, 12)
        edges = [(u, v) for u in range(p) for v in range(u + 1, p) if rng.random() < 0.3]
        G = LabeledGraph(p, edges)
        want = bfs_distances_oracle(G)
        got = _distances(G)
        for u in range(p):
            for v in range(p):
                assert got[u][v] == (-1 if want[u][v] is None else want[u][v])


def test_power_examples():
    assert power(path_graph(4), 3) == complete_graph(4)
    K5_minus_e = LabeledGraph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)
                                  if (u, v) != (0, 4)])
    assert power(path_graph(5), 3) == K5_minus_e
    G = LabeledGraph(6, [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5)])
    assert power(G, 1) == G
    with pytest.raises(ValueError):
        power(G, 0)


@settings(max_examples=60)
@given(small_graphs(), st.integers(min_value=1, max_value=5))
def test_power_adjacency_matches_distance_threshold(G, k):
    d = bfs_distances_oracle(G)
    P = power(G, k)
    for u in range(G.p):
        for v in range(u + 1, G.p):
            du = d[u][v]
            assert (v in P.neighbors(u)) == (du is not None and 1 <= du <= k)


@settings(max_examples=40)
@given(small_graphs(), st.integers(min_value=1, max_value=4))
def test_power_of_first_power_is_power(G, k):
    assert power(power(G, 1), k) == power(G, k)


def test_power_at_diameter_is_complete_on_connected():
    for G in [path_graph(6), cycle_graph(7), star_graph(5)]:
        assert is_complete(power(G, diameter(G)))


def test_is_complete_examples():
    assert is_complete(complete_graph(4))
    K5_minus = LabeledGraph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)][:-1])
    assert not is_complete(K5_minus)
    assert is_complete(LabeledGraph(1))


# ── edge spans and eccentricity ───────────────────────────────────────


def test_edge_span_examples():
    P7 = path_graph(7)
    assert edge_span(P7, (2, 3), 1) == {1, 2, 3, 4}
    assert edge_span(P7, (2, 3), 0) == {2, 3}
    assert edge_span(path_graph(5), (1, 2), 1) == {0, 1, 2, 3}
    with pytest.raises(ValueError):
        edge_span(P7, (2, 4), 1)
    with pytest.raises(ValueError):
        edge_span(P7, (2, 3), -1)


@settings(max_examples=50)
@given(small_graphs(), st.integers(min_value=0, max_value=4))
def test_edge_span_is_union_of_vertex_spans(G, k):
    d = bfs_distances_oracle(G)
    for u, v in sorted(G.edges):
        want = {w for w in range(G.p) for s in (u, v) if d[s][w] is not None and d[s][w] <= k}
        assert edge_span(G, (u, v), k) == want


def test_eccentricity_and_peripheral():
    P5 = path_graph(5)
    assert eccentricity(P5, 2) == 2
    assert peripheral_vertices(P5) == {0, 4}
    assert peripheral_vertices(complete_graph(4)) == {0, 1, 2, 3}
    assert peripheral_vertices(star_graph(5)) == {1, 2, 3, 4}
    with pytest.raises(DisconnectedError):
        eccentricity(LabeledGraph(3, [(0, 1)]), 0)


# ── certificates and isomorphism ──────────────────────────────────────


def test_certificate_invariant_under_relabelings():
    P4 = path_graph(4)
    assert canonical_form(relabel(P4, [2, 0, 3, 1])) == canonical_form(P4)
    assert canonical_form(relabel(P4, [3, 2, 1, 0])) == canonical_form(P4)


def test_certificates_distinguish_p4_from_star():
    assert canonical_form(path_graph(4)) != canonical_form(star_graph(4))


def test_three_free_trees_on_five_vertices_have_distinct_certificates():
    reps = all_free_trees_brute(5)
    assert len(reps) == 3
    certs = {canonical_form(G) for G in reps}
    assert len(certs) == 3


@settings(max_examples=80)
@given(small_graphs(), st.data())
def test_degree_sequence_is_sorted_and_invariant_under_relabeling(G, data):
    perm = data.draw(st.permutations(range(G.p)))
    assert degree_sequence(G) == tuple(sorted(G.degree(v) for v in range(G.p)))
    assert degree_sequence(relabel(G, perm)) == degree_sequence(G)


@settings(max_examples=80)
@given(small_graphs(), st.data())
def test_certificate_invariance_random(G, data):
    perm = data.draw(st.permutations(range(G.p)))
    assert canonical_form(relabel(G, perm)) == canonical_form(G)


def test_isomorphism_examples():
    C4 = cycle_graph(4)
    K4_minus_matching = LabeledGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert is_isomorphic(C4, K4_minus_matching)
    assert brute_force_isomorphic(C4, K4_minus_matching)
    G = LabeledGraph(5, [(0, 1), (2, 3), (3, 4)])
    assert is_isomorphic(G, G)
    assert not is_isomorphic(path_graph(4), path_graph(5))


def test_isomorphism_agrees_with_brute_force_small():
    rng = random.Random(3)
    pool = []
    for _ in range(36):
        p = rng.randint(1, 7)
        edges = [(u, v) for u in range(p) for v in range(u + 1, p) if rng.random() < 0.45]
        pool.append(LabeledGraph(p, edges))
    for i, G in enumerate(pool):
        for H in pool[i:]:
            if G.p != H.p:
                continue
            assert is_isomorphic(G, H) == brute_force_isomorphic(G, H)


def test_isomorphism_mapping_preserves_edges():
    G = relabel(path_graph(6), [5, 3, 1, 0, 2, 4])
    phi = isomorphism(G, path_graph(6))
    assert phi is not None
    for u, v in G.edges:
        assert phi[v] in path_graph(6).neighbors(phi[u])


def test_certificate_decodes_to_representative():
    for G in [path_graph(5), cycle_graph(6), star_graph(7), LabeledGraph(1)]:
        rep = canonical_form(G).to_graph()
        assert is_isomorphic(rep, G)
        assert canonical_form(rep) == canonical_form(G)


def test_certificate_hex_round_trip():
    c = canonical_form(cycle_graph(5))
    back = CanonicalForm.fromhex(c.hex())
    assert type(back) is CanonicalForm and back == c
    assert c.order == 5 and back.size == 5


def test_malformed_certificates_do_not_decode():
    # a certificate replayed from hex comes from outside the program: its
    # bytes must hold exactly the order's adjacency bits, padding clear
    p5 = canonical_form(path_graph(5))
    assert p5.hex() == "000000052c80"
    for raw in ("00000005", "000000052c", "000000052c80ff", "000000052c8000",
                "000000052c81", "000000", "000001", "00000002", "000000ff"):
        with pytest.raises(ValueError):
            CanonicalForm.fromhex(raw).to_graph()
    # no bit bytes at orders 0 and 1; one bit and seven padding bits at order 2
    for G in (LabeledGraph(0), LabeledGraph(1), LabeledGraph(2), path_graph(2), cycle_graph(8)):
        cert = canonical_form(G)
        assert canonical_form(CanonicalForm.fromhex(cert.hex()).to_graph()) == cert


def test_certificates_sort_hash_and_compare_as_their_bytes():
    import pickle
    certs = [canonical_form(G) for G in
             (path_graph(5), cycle_graph(5), star_graph(5), complete_graph(4), LabeledGraph(0))]
    raw = [bytes(c) for c in certs]
    assert sorted(certs) == sorted(raw)
    assert [hash(c) for c in certs] == [hash(b) for b in raw]
    assert all(c == b and not c < b for c, b in zip(certs, raw))
    assert {c: i for i, c in enumerate(certs)}[raw[2]] == 2
    for c in certs:
        back = pickle.loads(pickle.dumps(c))
        assert type(back) is CanonicalForm and back == c


def test_is_connected_runs_one_bfs(monkeypatch):
    refuse_distance_matrix(monkeypatch)
    G = path_graph(2000)
    assert is_connected(G)
    # enough edges to pass the edge-count shortcut, yet disconnected
    H = LabeledGraph(5, complete_graph(4).edges)
    assert len(H.edges) >= H.p - 1 and not is_connected(H)


def test_delete_vertex_relabels_densely():
    G = delete_vertex(path_graph(5), 2)
    assert G.p == 4 and G.edges == frozenset({(0, 1), (2, 3)})
    assert not is_connected(G)


def test_delete_vertices_refuses_vertices_out_of_range():
    G = path_graph(4)
    for vs in ([99], [-1], [0, 4]):
        with pytest.raises(ValueError, match="out of range"):
            delete_vertices(G, vs)
    # a list slice would quietly take -1 as the last vertex
    for v in (99, -1, G.p):
        with pytest.raises(ValueError, match="out of range"):
            delete_vertex(G, v)


def test_delete_vertices_matches_an_edge_filter_on_every_subset():
    rng = random.Random(7)
    graphs = [LabeledGraph(0), LabeledGraph(3), path_graph(6), cycle_graph(7),
              complete_graph(5), star_graph(6)]
    graphs += [LabeledGraph(7, [(u, v) for u in range(7) for v in range(u + 1, 7)
                                if rng.random() < 0.4]) for _ in range(3)]
    for G in graphs:
        for mask in range(1 << G.p):
            drop = [v for v in range(G.p) if mask >> v & 1]
            # the vertices may come in any order and repeat
            H = delete_vertices(G, drop[::-1] + drop)
            want = induced_subgraph_oracle(G, set(range(G.p)) - set(drop))
            assert H == want and hash(H) == hash(want) and H._adj == want._adj
        # one vertex by its own shift, against the set path and the oracle
        for v in range(G.p):
            H = delete_vertex(G, v)
            want = induced_subgraph_oracle(G, set(range(G.p)) - {v})
            assert H == delete_vertices(G, [v]) == want and H._adj == want._adj


@settings(max_examples=60)
@given(small_graphs(), st.integers(min_value=1, max_value=4))
def test_mask_built_graphs_equal_checked_ones(G, k):
    # memos and decks key derived graphs by equality, hash and masks
    for H in (power(G, k), delete_vertex(G, 0), delete_vertices(G, range(0, G.p, 2))):
        checked = LabeledGraph(H.p, H.edges)
        assert H == checked and hash(H) == hash(checked) and H._adj == checked._adj


def test_size_counts_the_edges_of_built_and_derived_graphs():
    for p, edges in CORPUS:
        G = LabeledGraph(p, edges)
        want = frozenset(tuple(sorted(e)) for e in edges)
        assert _from_masks(list(G._adj)).edges == LabeledGraph(p, edges).edges == want
        derived = [G, power(G, 2), power(G, 3), *(delete_vertex(G, v) for v in range(p))]
        if is_tree(G):
            derived += leaf_extensions([Tree(G)]).values()
        for H in derived:
            assert H.size == len(H.edges)
            listed = H.edge_list()
            assert listed == sorted(H.edges)
            assert all(a < b for a, b in zip(listed, listed[1:]))
        # relabel maps masks; the reference maps each edge and checks it
        rng = random.Random(p)
        for _ in range(3):
            perm = rng.sample(range(p), p)
            assert relabel(G, perm) == LabeledGraph(p, [(perm[u], perm[v]) for u, v in edges])


def test_parsers_relabel_and_certificates_build_masks(monkeypatch):
    # only hand-built graphs go through the checking constructor
    graphs = [LabeledGraph(p, edges) for p, edges in CORPUS]
    texts = [(to_edgelist(G), "edgelist") for G in graphs]
    texts += [(to_graph6(G), "graph6") for G in graphs]
    masks = [list(G._adj) for G in graphs]

    def refuse(*args):
        raise AssertionError("LabeledGraph.__init__ was called")

    monkeypatch.setattr(LabeledGraph, "__init__", refuse)
    assert "_edges" not in LabeledGraph.__slots__
    for (text, fmt), adj in zip(texts, masks + masks):
        assert parse_graph(text, fmt)._adj == adj
    for G in graphs:
        perm = list(range(G.p))[::-1]
        assert relabel(relabel(G, perm), perm) == G
        H = canonical_form(G).to_graph()
        assert canonical_form(H) == canonical_form(G)


def test_derived_graphs_of_a_tree_are_plain_graphs():
    # a Tree is only ever made by Tree(...), which checks it
    T = Tree(path_graph(5))
    for H in (power(T, 3), delete_vertex(T, 0), delete_vertices(T, [0, 4])):
        assert type(H) is LabeledGraph
