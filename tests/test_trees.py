import hashlib
import random

import pytest

from treecube import trees
from helpers import (
    all_free_trees_brute,
    binary_tree,
    induced_subgraph_oracle,
    random_prufer_tree,
    spider,
)
from treecube.errors import EnumerationLimitError, NotATreeError
from treecube.graphs import (
    LabeledGraph,
    _from_masks,
    canonical_form,
    cycle_graph,
    is_isomorphic,
    path_graph,
    peripheral_vertices,
    relabel,
    star_graph,
)
from treecube.trees import (
    Tree,
    ahu_code,
    end_deleted,
    enumerate_trees,
    is_tree,
    leaf_extensions,
    leaf_orders,
    leaves,
)


def P(p):
    return Tree(path_graph(p))


def S(p):
    return Tree(star_graph(p))


def double_star(a, b):
    edges = [(0, 1)]
    edges += [(0, i) for i in range(2, 2 + a)]
    edges += [(1, i) for i in range(2 + a, 2 + a + b)]
    return Tree(LabeledGraph(2 + a + b, edges))


def test_is_tree_examples():
    assert is_tree(path_graph(5))
    assert not is_tree(cycle_graph(4))
    assert not is_tree(LabeledGraph(4, [(0, 1), (2, 3)]))
    assert is_tree(LabeledGraph(0))
    with pytest.raises(NotATreeError):
        Tree(cycle_graph(5))


def test_leaves_examples():
    assert leaves(P(5)) == {0, 4}
    assert leaves(S(5)) == {1, 2, 3, 4}
    assert leaves(P(2)) == {0, 1}
    assert leaves(P(1)) == {0}


def test_end_deleted_examples():
    assert is_isomorphic(end_deleted(P(5)), path_graph(3))
    assert end_deleted(S(5)).p == 1
    assert is_isomorphic(end_deleted(end_deleted(P(7))), path_graph(3))
    assert end_deleted(P(2)).p == 0
    assert end_deleted(P(1)).p == 0
    assert end_deleted(Tree(LabeledGraph(0))).p == 0


def test_end_deleted_is_induced_complement_of_leaves():
    for p in range(1, 9):
        for T in enumerate_trees(p):
            assert end_deleted(T) == induced_subgraph_oracle(T, set(range(T.p)) - leaves(T))


def test_leaf_orders_examples():
    assert leaf_orders(P(7)) == (
        frozenset({0, 6}), frozenset({1, 5}), frozenset({2, 4}), frozenset({3}))
    assert leaf_orders(S(5)) == (frozenset({1, 2, 3, 4}), frozenset({0}))
    assert leaf_orders(P(2)) == (frozenset({0, 1}),)


def test_leaf_orders_refuses_a_cycle_instead_of_peeling_forever():
    # a tree is a LabeledGraph, so a graph with a cycle can reach the peeling
    with pytest.raises(NotATreeError, match="has a cycle"):
        leaf_orders(cycle_graph(6))
    # the cycle may hide behind pendant vertices that peel first
    with pytest.raises(NotATreeError):
        leaf_orders(LabeledGraph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]))


def test_leaf_orders_and_ahu_code_refuse_a_forest():
    # a forest peels to the end, so only its edge count gives it away
    forests = [
        LabeledGraph(6, [(0, 1), (1, 2), (3, 4), (4, 5)]),  # two P3s
        LabeledGraph(4, [(0, 1), (1, 2)]),  # P3 and an isolated vertex
        LabeledGraph(2),  # two isolated vertices
    ]
    for F in forests:
        with pytest.raises(NotATreeError, match="is a forest"):
            leaf_orders(F)
        with pytest.raises(NotATreeError, match="is a forest"):
            ahu_code(F)


def test_a_tree_is_its_own_graph():
    T = P(5)
    assert isinstance(T, LabeledGraph) and T.graph is T
    assert T == path_graph(5) and hash(T) == hash(path_graph(5))
    assert T.neighbors(2) == (1, 3) and T.degree(0) == 1
    assert repr(T) == "Tree(p=5, edges=[(0, 1), (1, 2), (2, 3), (3, 4)])"
    with pytest.raises(AttributeError):
        T.graph = path_graph(5)


def test_leaf_orders_partition_all_trees():
    for p in range(1, 10):
        for T in enumerate_trees(p):
            lo = leaf_orders(T)
            seen = set()
            for s in lo:
                assert not (seen & s)
                seen |= s
            assert seen == set(range(T.p))
            assert 1 <= len(lo[-1]) <= 2


def test_peripheral_vertices_are_leaves():
    for p in range(2, 10):
        for T in enumerate_trees(p):
            assert peripheral_vertices(T) <= leaves(T)


# ── enumeration ───────────────────────────────────────────────────────


def test_enumeration_counts_match_brute_force_oracle():
    for p in range(1, 7):
        want = all_free_trees_brute(p)
        got = enumerate_trees(p)
        assert len(got) == len(want)


def test_enumeration_counts_published_sequence():
    assert [len(enumerate_trees(p)) for p in range(1, 11)] == [
        1, 1, 1, 2, 3, 6, 11, 23, 47, 106]


def test_enumeration_small_shapes():
    got = enumerate_trees(4)
    assert len(got) == 2
    shapes = {ahu_code(t) for t in got}
    assert shapes == {ahu_code(P(4)), ahu_code(S(4))}
    assert len(enumerate_trees(5)) == 3
    assert len(enumerate_trees(1)) == 1


def test_enumeration_is_deterministic_and_nonisomorphic():
    a = [t.edge_list() for t in enumerate_trees(8)]
    b = [t.edge_list() for t in enumerate_trees(8)]
    assert a == b
    certs = [canonical_form(t) for t in enumerate_trees(8)]
    assert len(set(certs)) == len(certs)


def test_leaf_extensions_keep_the_first_tree_of_each_class():
    # P3 grows at vertex 0 (a P4), 1 (the star) and 2 (a second P4, dropped)
    got = [T.edge_list() for T in leaf_extensions([P(3)]).values()]
    assert got == [[(0, 1), (0, 3), (1, 2)], [(0, 1), (1, 2), (1, 3)]]
    # classes repeated by later inputs are dropped too
    assert [T.edge_list() for T in leaf_extensions([P(3), P(3)]).values()] == got
    assert list(leaf_extensions([])) == []
    for p in range(1, 9):
        ext = list(leaf_extensions(enumerate_trees(p)).values())
        assert sorted(map(ahu_code, ext)) == sorted(map(ahu_code, enumerate_trees(p + 1)))


def ahu_string(T):
    """The AHU code built as strings over one peel, as before codes were interned."""
    if T.p == 0:
        return ""
    code, done = [""] * T.p, set()
    for layer in leaf_orders(T):
        for v in layer:
            code[v] = "(" + "".join(sorted(code[u] for u in T.neighbors(v) if u in done)) + ")"
        done |= layer
    if len(layer) == 1:
        return code[next(iter(layer))]
    return "[" + "".join(sorted(code[v] for v in layer)) + "]"


def leaf_extensions_by_peeling(trees):
    """The reference: every candidate built and peeled afresh."""
    out = {}
    for small in trees:
        for attach in range(small.p):
            adj = [*small._adj, 1 << attach]
            adj[attach] |= 1 << small.p
            cand = _from_masks(adj)
            code = ahu_string(cand)
            if code not in out:
                out[code] = Tree(cand)
    return out


def assert_same_extensions(roots):
    want = leaf_extensions_by_peeling(roots)
    got = leaf_extensions(iter(roots))
    assert list(got) == list(want)
    assert [T.edge_list() for T in got.values()] == [T.edge_list() for T in want.values()]


def test_leaf_extensions_match_a_per_candidate_peel():
    for p in range(1, 12):
        assert_same_extensions(enumerate_trees(p))
    # root lists as reconstruct passes them: repeats, one class under two
    # labelings, and the smallest trees
    T = enumerate_trees(8)[5]
    perm = list(range(8))
    random.Random(3).shuffle(perm)
    for roots in ([T, T], [T, Tree(relabel(T, perm)), T], [Tree(LabeledGraph(0))], [P(1)], [P(2)],
                  [P(2), P(1), Tree(LabeledGraph(0)), P(1)], []):
        assert_same_extensions(roots)
    # one center and two, and new leaves at the greatest depth or not
    rng = random.Random(29)
    shaped = [Tree(random_prufer_tree(rng, rng.randint(30, 80))) for _ in range(40)]
    shaped += [P(p) for p in range(3, 40)] + [S(p) for p in range(3, 20)]
    shaped += [Tree(LabeledGraph(*spider(legs, length)))
               for legs in range(2, 6) for length in range(1, 5)]
    shaped += [Tree(LabeledGraph(*binary_tree(d))) for d in range(5)]
    shaped += [double_star(2, 3), double_star(4, 4)]
    assert {len(leaf_orders(T)[-1]) for T in shaped} == {1, 2}
    for T in shaped:
        assert_same_extensions([T])
        assert ahu_code(T) == ahu_string(T)


def test_enumeration_at_stretch_orders_keeps_its_representatives(monkeypatch):
    # sha256 of every representative's edge list, in order, as the
    # per-candidate peel enumerated them
    monkeypatch.setenv("TREECUBE_MAX_ORDER", "14")
    pinned = {
        13: (1301, "450a00c0887c5a8f0c8d27a9ceb1a67af776c0d64a167b6c2d8e5041b6cc7c13"),
        14: (3159, "a985c357c7a94932b667b79272199ab7c7670562ec42aff7b3644884571817ad"),
    }
    for p, (count, digest) in pinned.items():
        reps = enumerate_trees(p)
        assert len(reps) == count
        assert hashlib.sha256(repr([T.edge_list() for T in reps]).encode()).hexdigest() == digest


def test_enumeration_checks_one_tree_per_class(monkeypatch):
    # candidates are built on masks; only the tree kept for a class is checked
    trees._tree_reps.cache_clear()
    enumerate_trees(1)
    checked = []
    real = trees.is_tree
    monkeypatch.setattr(trees, "is_tree", lambda G: checked.append(G.p) or real(G))
    counts = [len(enumerate_trees(p)) for p in range(2, 11)]
    assert [checked.count(p) for p in range(2, 11)] == counts
    assert len(checked) == sum(counts) == 200


def test_enumeration_rejects_out_of_range(monkeypatch):
    with pytest.raises(ValueError):
        enumerate_trees(0)
    with pytest.raises(EnumerationLimitError):
        enumerate_trees(13)
    monkeypatch.setenv("TREECUBE_MAX_ORDER", "13")
    assert len(enumerate_trees(13)) == 1301
    monkeypatch.setenv("TREECUBE_MAX_ORDER", "eleven")
    with pytest.raises(ValueError):
        enumerate_trees(5)


def test_random_prufer_trees_hit_exactly_one_representative():
    rng = random.Random(17)
    for _ in range(120):
        p = rng.randint(1, 8)
        G = random_prufer_tree(rng, p)
        matches = [R for R in enumerate_trees(p) if is_isomorphic(G, R)]
        assert len(matches) == 1


def test_ahu_agreement_with_general_certificates():
    # the fast tree code and the backtracking certificate induce the same
    # equivalence on trees
    for p in range(1, 10):
        by_ahu = {}
        for T in enumerate_trees(p):
            by_ahu[ahu_code(T)] = canonical_form(T)
        assert len(set(by_ahu.values())) == len(by_ahu)
    rng = random.Random(23)
    for _ in range(60):
        p = rng.randint(2, 8)
        G1, G2 = random_prufer_tree(rng, p), random_prufer_tree(rng, p)
        t1, t2 = Tree(G1), Tree(G2)
        assert (ahu_code(t1) == ahu_code(t2)) == (canonical_form(G1) == canonical_form(G2))


def test_ahu_code_of_a_long_path_needs_no_recursion():
    # radius 1,500: a code built by recursing down from the centers would
    # pass Python's recursion limit
    perm = list(range(3000))
    random.Random(5).shuffle(perm)
    code = ahu_code(P(3000))
    assert len(code) == 6002
    assert ahu_code(Tree(relabel(path_graph(3000), perm))) == code
