"""The pure-Python kernels on a fixed corpus, and the names callers rely on."""

import ast
import gc
import importlib
import inspect
import random
from pathlib import Path

from helpers import (
    CORPUS,
    binary_tree,
    brute_force_maximal_cliques,
    is_chordal_oracle,
    spider,
    symmetric_corpus,
)
from treecube import _kernels
from treecube.graphs import LabeledGraph, complete_graph, delete_vertex, power
from treecube.trees import enumerate_trees


def adj_masks(p, edges):
    a = [0] * p
    for u, v in edges:
        a[u] |= 1 << v
        a[v] |= 1 << u
    return a


def test_backend_is_pure_python():
    assert _kernels.backend_name() == "python"


def traced_names():
    """``TRACED`` from bench/spans.py, read as a literal so bench stays unimported."""
    tree = ast.parse((Path(__file__).parents[1] / "bench" / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/spans.py defines no TRACED literal")


def test_kernel_names_stay_on_the_module():
    # callers look the kernels up on treecube._kernels, and the benchmark
    # tracer wraps every name it declares on the module it names
    for name in ("canonical_labeling", "all_pairs_distances", "maximal_cliques"):
        assert callable(getattr(_kernels, name))
    traced = traced_names()
    assert "treecube._kernels" in traced and "treecube.deck" in traced
    for module, names in traced.items():
        mod = importlib.import_module(module)
        for name in names:
            assert callable(getattr(mod, name, None)), f"{module}.{name}"
    # the sweep and census workloads call run_suite(suite, max_order=, workers=1)
    from treecube import run_suite
    assert {"max_order", "workers"} <= set(inspect.signature(run_suite).parameters)


def test_result_types_keep_the_surface_the_benchmark_reads():
    # bench/ is not in the tier-1 run, so the shapes its workloads and tests
    # build and read are pinned here
    import treecube
    tree = treecube.Tree(treecube.path_graph(5))
    assert tree.p == 5 and tree.edges == treecube.path_graph(5).edges
    root = treecube.RootResult.unique(tree)
    assert root.kind.value == "unique" and root.roots == (tree,) and root.tree is tree
    report = treecube.ReconstructionReport(True, None, tree, ())
    assert report.recognized and report.tree is tree
    verified = treecube.VerificationReport("thm32", 10, 1, (), 0.0)
    assert verified.passed and verified.checked == 1


def test_python_kernels_handle_large_orders():
    p = 70
    edges = [(i, i + 1) for i in range(p - 1)]
    a = adj_masks(p, edges)
    d = _kernels.all_pairs_distances(p, a)
    assert d[0][p - 1] == p - 1
    bits, perm = _kernels.canonical_labeling(p, a)
    assert sorted(perm) == list(range(p))
    assert len(_kernels.maximal_cliques(p, a)) == p - 1


def test_maximal_cliques_of_a_large_clique_need_no_recursion():
    # K_1100 minus the edge {0, 1}: two cliques of 1,099 vertices, past
    # Python's recursion limit
    p = 1100
    full = (1 << p) - 1
    a = [full & ~(1 << v) for v in range(p)]
    a[0] &= ~(1 << 1)
    a[1] &= ~1
    assert _kernels.maximal_cliques(p, a) == [full & ~(1 << 1), full & ~1]


def chordality_corpus():
    """Tree powers (k = 1..4) and their cards, K_p - e, p = 0 and 1, and
    seeded random graphs, chordal or not."""
    out = [LabeledGraph(0), LabeledGraph(1)]
    for p in range(1, 8):
        for T in enumerate_trees(p):
            for k in range(1, 5):
                G = power(T, k)
                out.append(G)
                out.extend(delete_vertex(G, v) for v in range(p))
    for p in range(2, 9):
        out.append(LabeledGraph(p, complete_graph(p).edges - {(0, p - 1)}))
    rng = random.Random(25)
    for _ in range(500):
        p = rng.randint(4, 9)
        density = rng.random()
        out.append(LabeledGraph(p, [(u, v) for u in range(p) for v in range(u + 1, p)
                                    if rng.random() < density]))
    return out


def test_maximal_cliques_match_brute_force_on_chordal_graphs_only():
    # the search lists the maximal cliques of a chordal graph, and answers
    # None exactly on the graphs that are not chordal
    chordal = other = 0
    for G in chordality_corpus():
        cliques = _kernels.maximal_cliques(G.p, G._adj)
        if is_chordal_oracle(G):
            chordal += 1
            assert [frozenset(_kernels.bits(c)) for c in cliques] == brute_force_maximal_cliques(G)
        else:
            other += 1
            assert cliques is None, G
    assert chordal > 900 and other > 150


def find(parents, x):
    """The root of x in a union-find list, halving the path on the way."""
    while parents[x] != x:
        parents[x] = parents[parents[x]]
        x = parents[x]
    return x


def test_clique_tree_of_every_chordal_graph():
    # the search also lists the clique tree: each separator is the
    # intersection of its two cliques, the edges form one tree per connected
    # component, and the cliques holding any one vertex form a subtree
    checked = 0
    for G in chordality_corpus():
        tree = []
        cliques = _kernels.maximal_cliques(G.p, G._adj, tree)
        if cliques is None:
            continue
        checked += 1
        component = list(range(G.p))  # union-find over G's vertices
        for u, v in G.edges:
            component[find(component, u)] = find(component, v)
        joined = list(range(len(cliques)))  # union-find over the tree's edges
        for child, parent, sep in tree:
            assert sep == cliques[child] & cliques[parent]
            a, b = find(joined, child), find(joined, parent)
            assert a != b, "the clique tree has a cycle"
            joined[a] = b
        component_of = [find(component, (c & -c).bit_length() - 1) for c in cliques]
        for i in range(len(cliques)):
            for j in range(i):
                assert (find(joined, i) == find(joined, j)) == (component_of[i] == component_of[j])
        for v in range(G.p):
            holding = sum(c >> v & 1 for c in cliques)
            inside = sum((cliques[a] & cliques[b]) >> v & 1 for a, b, _ in tree)
            assert inside == holding - 1, (G.edge_list(), v)
    assert checked > 900


def test_maximal_cliques_leaves_no_reference_cycle():
    p = 30
    a = adj_masks(p, [(u, v) for u in range(p) for v in range(u + 1, min(u + 4, p))])
    gc.collect()
    gc.disable()
    try:
        for _ in range(100):
            assert len(_kernels.maximal_cliques(p, a)) == p - 3
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_canonical_labeling_realizes_bits():
    for p, edges in CORPUS:
        if p == 0:
            continue
        a = adj_masks(p, edges)
        bits, perm = _kernels.canonical_labeling(p, a)
        out = bytearray()
        acc = nbits = 0
        for i in range(p):
            ai = a[perm[i]]
            for j in range(i + 1, p):
                acc = (acc << 1) | (ai >> perm[j] & 1)
                nbits += 1
                if nbits == 8:
                    out.append(acc)
                    acc = nbits = 0
        if nbits:
            out.append(acc << (8 - nbits))
        assert bytes(out) == bits


def test_canonical_bits_equal_across_relabelings():
    rng = random.Random(7)
    for name, p, edges in symmetric_corpus():
        want, _ = _kernels.canonical_labeling(p, adj_masks(p, edges))
        for _ in range(4):
            perm = list(range(p))
            rng.shuffle(perm)
            got, _ = _kernels.canonical_labeling(p, adj_masks(p, [(perm[u], perm[v]) for u, v in edges]))
            assert got == want, name


def refine_by_bits(p, adj, colors):
    """Color refinement that counts each vertex's neighbor colors one bit at a time."""
    while True:
        sigs = []
        for v in range(p):
            counts = [0] * (max(colors) + 1)
            for u in range(p):
                if adj[v] >> u & 1:
                    counts[colors[u]] += 1
            sigs.append((colors[v], tuple(counts)))
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [rank[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


def test_refine_matches_a_per_bit_count():
    # the long path refines over many rounds, most cells carried over
    for p, edges in CORPUS + [(40, [(i, i + 1) for i in range(39)])]:
        if p == 0:
            continue
        a = adj_masks(p, edges)
        stable, cells = _kernels._refine(p, a, [0] * p)
        assert stable == refine_by_bits(p, a, [0] * p)
        assert cells == [sum(1 << v for v in range(p) if stable[v] == c)
                         for c in range(max(stable) + 1)]
        # individualize one vertex, as the search does when it branches
        for v in range(p):
            colors = list(stable)
            colors[v] = max(stable) + 1
            assert _kernels._refine(p, a, list(colors))[0] == refine_by_bits(p, a, colors)


def refine_ranking_every_column(p, adj, colors):
    """``_refine`` as it was before ranking only fresh columns: every column, every round."""
    counts = {}
    while True:
        cells = [0] * (max(colors) + 1)
        for v in range(p):
            cells[colors[v]] |= 1 << v
        counts = {cell: counts[cell] if cell in counts
                  else list(map(int.bit_count, map(cell.__and__, adj))) for cell in cells}
        sigs = list(zip(colors, *counts.values()))
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = list(map(rank.__getitem__, sigs))
        if new == colors:
            return colors, cells
        colors = new


def test_refine_ranking_fresh_columns_matches_every_column():
    path = (255, [(i, i + 1) for i in range(254)])
    for p, edges in CORPUS + [path]:
        if p == 0:
            continue
        a = adj_masks(p, edges)
        stable, cells = _kernels._refine(p, a, [0] * p)
        assert (stable, cells) == refine_ranking_every_column(p, a, [0] * p)
        for v in range(0, p, 1 if p < 64 else 64):
            colors = list(stable)
            colors[v] = max(stable) + 1
            assert _kernels._refine(p, a, list(colors)) == refine_ranking_every_column(p, a, colors)


def cube_edges(p, edges):
    dist = _kernels.all_pairs_distances(p, adj_masks(p, edges))
    return [(u, v) for u in range(p) for v in range(u + 1, p) if dist[u][v] <= 3]


def test_search_nodes_stay_bounded_on_symmetric_trees(monkeypatch):
    # Without twin and automorphism pruning these searches branch factorially
    # (the depth-5 binary tree's cube passes 15,000 nodes, the 10-leg spider
    # 70,000); the bound counts search nodes, so it does not depend on speed.
    search = _kernels._canon_search
    nodes = [0]

    def counted(*args):
        nodes[0] += 1
        return search(*args)

    monkeypatch.setattr(_kernels, "_canon_search", counted)
    for name, (p, edges) in [("binary-4", binary_tree(4)), ("binary-5", binary_tree(5)),
                             ("spider-8", spider(8)), ("spider-10", spider(10))]:
        for kind, es in (("tree", edges), ("cube", cube_edges(p, edges))):
            nodes[0] = 0
            _kernels.canonical_labeling(p, adj_masks(p, es))
            assert nodes[0] <= 500, (name, kind, nodes[0])


def test_bfs_unreachable_marker():
    a = adj_masks(4, [(0, 1), (2, 3)])
    d = _kernels.all_pairs_distances(4, a)
    assert d[0][2] == -1 and d[1][3] == -1 and d[0][1] == 1
