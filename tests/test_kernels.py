"""The pure-Python kernels on a fixed corpus, and the names callers rely on."""

import ast
import gc
import importlib
import inspect
import itertools
import random
from pathlib import Path

from treecube import _kernels


def adj_masks(p, edges):
    a = [0] * p
    for u, v in edges:
        a[u] |= 1 << v
        a[v] |= 1 << u
    return a


def symmetric_corpus():
    """Vertex-transitive graphs, as (name, p, edges)."""
    petersen = [(i, (i + 1) % 5) for i in range(5)]
    petersen += [(5 + i, 5 + (i + 2) % 5) for i in range(5)] + [(i, 5 + i) for i in range(5)]
    q4 = [(u, u ^ 1 << b) for u in range(16) for b in range(4) if u < u ^ 1 << b]
    k55 = [(i, 5 + j) for i in range(5) for j in range(5)]
    c15 = [(i, (i + 1) % 15) for i in range(15)]
    triangles = [(3 * i + a, 3 * i + b) for i in range(4) for a, b in ((0, 1), (1, 2), (0, 2))]
    return [("petersen", 10, petersen), ("Q4", 16, q4), ("K5,5", 10, k55),
            ("C15", 15, c15), ("4K3", 12, triangles)]


def corpus():
    rng = random.Random(101)
    out = [(p, edges) for _, p, edges in symmetric_corpus()]
    for p in range(0, 12):
        path = [(i, i + 1) for i in range(p - 1)]
        out.append((p, path))
        if p >= 3:
            out.append((p, path + [(0, p - 1)]))
            out.append((p, [(0, i) for i in range(1, p)]))
            out.append((p, [(u, v) for u in range(p) for v in range(u + 1, p)]))
    for _ in range(80):
        p = rng.randint(1, 13)
        edges = [e for e in itertools.combinations(range(p), 2) if rng.random() < 0.4]
        out.append((p, edges))
    return out


CORPUS = corpus()


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
    # K_1100 minus the edge {0, 1}: the search goes one level deeper per
    # clique vertex, past Python's recursion limit
    p = 1100
    full = (1 << p) - 1
    a = [full & ~(1 << v) for v in range(p)]
    a[0] &= ~(1 << 1)
    a[1] &= ~1
    assert _kernels.maximal_cliques(p, a) == [full & ~(1 << 1), full & ~1]


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


def binary_tree(depth):
    p = 2 ** (depth + 1) - 1
    return p, [((v - 1) // 2, v) for v in range(1, p)]


def spider(legs, length=3):
    edges = [(0 if j == 0 else 1 + length * i + j - 1, 1 + length * i + j)
             for i in range(legs) for j in range(length)]
    return 1 + legs * length, edges


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
