import random

import pytest

from helpers import (
    brute_force_maximal_cliques,
    is_chordal_oracle,
    krausz_classes_oracle,
    random_prufer_tree,
    refuse_distance_matrix,
)
from treecube.cubes import (
    RootKind,
    clique_edges_of_tree,
    cliques_of_cube,
    cube_root,
    cube_root_oracle,
    is_tree_cube,
    maximal_cliques,
    tree_of_cliques,
)
from treecube.errors import (
    AmbiguousStructureError,
    EnumerationLimitError,
    NotACubeError,
)
from treecube.graphs import (
    LabeledGraph,
    canonical_form,
    complete_graph,
    cycle_graph,
    diameter,
    is_complete,
    is_isomorphic,
    parse_graph,
    path_graph,
    relabel,
    star_graph,
)
from treecube.trees import Tree, ahu_code, end_deleted, enumerate_trees, leaves
from treecube.graphs import power


def P(p):
    return Tree(path_graph(p))


def spider(*legs):
    """Legs of the given lengths joined at a fresh center vertex 0."""
    edges = []
    nxt = 1
    for length in legs:
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return Tree(LabeledGraph(nxt, edges))


def test_clique_edges_examples():
    assert clique_edges_of_tree(P(5)) == {(1, 2), (2, 3)}
    assert clique_edges_of_tree(Tree(star_graph(5))) == set()
    assert clique_edges_of_tree(P(7)) == {(1, 2), (2, 3), (3, 4), (4, 5)}


def test_clique_edges_equal_end_deleted_edge_count():
    for p in range(1, 10):
        for T in enumerate_trees(p):
            assert len(clique_edges_of_tree(T)) == len(end_deleted(T).edges)


def test_cliques_of_cube_examples():
    assert cliques_of_cube(P(5)) == {(1, 2): {0, 1, 2, 3}, (2, 3): {1, 2, 3, 4}}
    by_edge = cliques_of_cube(P(7))
    assert list(by_edge) == [(1, 2), (2, 3), (3, 4), (4, 5)]
    assert by_edge[(2, 3)] == {1, 2, 3, 4}


def test_maximal_cliques_examples():
    K5_minus_e = power(path_graph(5), 3)
    assert maximal_cliques(K5_minus_e) == [frozenset({0, 1, 2, 3}), frozenset({1, 2, 3, 4})]
    assert maximal_cliques(complete_graph(4)) == [frozenset({0, 1, 2, 3})]
    # the cliques are listed for chordal graphs only
    with pytest.raises(ValueError, match="not chordal"):
        maximal_cliques(cycle_graph(4))


def test_maximal_cliques_match_brute_force():
    rng = random.Random(9)
    for _ in range(25):
        p = rng.randint(1, 9)
        edges = [(u, v) for u in range(p) for v in range(u + 1, p) if rng.random() < 0.5]
        G = LabeledGraph(p, edges)
        if is_chordal_oracle(G):
            assert maximal_cliques(G) == brute_force_maximal_cliques(G)
        else:
            with pytest.raises(ValueError, match="not chordal"):
                maximal_cliques(G)


def test_cliques_of_cube_are_the_maximal_cliques():
    for p in range(5, 10):
        for T in enumerate_trees(p):
            if diameter(T) < 4:
                continue
            spans = sorted(sorted(s) for s in cliques_of_cube(T).values())
            cliques = sorted(sorted(c) for c in maximal_cliques(power(T, 3)))
            assert spans == cliques


def test_tree_of_cliques_examples():
    assert is_isomorphic(tree_of_cliques(power(path_graph(5), 3)),
                         end_deleted(P(5)))
    assert is_isomorphic(tree_of_cliques(power(path_graph(7), 3)), path_graph(5))
    with pytest.raises(AmbiguousStructureError):
        tree_of_cliques(complete_graph(5))
    with pytest.raises(NotACubeError):
        tree_of_cliques(cycle_graph(6))


def test_cube_root_examples():
    # ``roots`` holds every answer; ``tree`` is set for a unique root only
    r = cube_root(power(path_graph(5), 3))
    assert r.kind is RootKind.UNIQUE
    assert r.roots == (r.tree,)
    assert is_isomorphic(r.tree, path_graph(5))

    r = cube_root(complete_graph(4))
    assert r.kind is RootKind.AMBIGUOUS_COMPLETE
    assert r.tree is None
    certs = {canonical_form(T) for T in r.roots}
    assert certs == {canonical_form(path_graph(4)), canonical_form(star_graph(4))}

    r = cube_root(cycle_graph(6))
    assert r.kind is RootKind.NOT_A_CUBE
    assert r.tree is None and r.roots == ()


def test_cube_root_small_and_degenerate(monkeypatch):
    refuse_distance_matrix(monkeypatch)
    for G in (LabeledGraph(1), LabeledGraph(2, [(0, 1)])):
        r = cube_root(G)
        assert r.tree.p == G.p and r.roots == (r.tree,)
    assert cube_root(LabeledGraph(0)).kind is RootKind.NOT_A_CUBE
    assert cube_root(LabeledGraph(3, [(0, 1)])).kind is RootKind.NOT_A_CUBE  # disconnected
    # a header-only input has too few edges to be connected: no p x p
    # distance matrix may be built for it
    assert cube_root(parse_graph("40000\n")).kind is RootKind.NOT_A_CUBE


def test_power_and_cube_root_build_no_distance_matrix(monkeypatch):
    # power grows one bounded BFS per vertex, so long and large inputs stay cheap
    refuse_distance_matrix(monkeypatch)
    assert len(power(path_graph(3000), 3).edges) == 8994
    rng = random.Random(9)
    T = random_prufer_tree(rng, 200)
    perm = list(range(200))
    rng.shuffle(perm)
    assert cube_root(relabel(power(T, 3), perm)).kind is RootKind.UNIQUE


def test_cube_root_complete_roots_are_all_small_diameter_trees():
    # the closed-form roots are the enumeration's, edge for edge and in order
    for p in range(3, 13):
        r = cube_root(complete_graph(p))
        assert r.kind is RootKind.AMBIGUOUS_COMPLETE
        want = [T for T in enumerate_trees(p) if diameter(T) <= 3]
        assert [T.edge_list() for T in r.roots] == [T.edge_list() for T in want]
        for T in r.roots:
            assert diameter(T) <= 3
            assert is_complete(power(T, 3))


def test_cube_root_complete_roots_at_every_order(monkeypatch):
    # the closed form needs no enumeration, so the cap cannot change the answer
    import treecube.cubes as cubes
    from treecube.trees import ahu_code
    monkeypatch.delenv("TREECUBE_MAX_ORDER", raising=False)
    for p in range(13, 41):
        r = cube_root(complete_graph(p))
        assert r.kind is RootKind.AMBIGUOUS_COMPLETE and r.tree is None
        assert len(r.roots) == (p - 2) // 2 + 1
        assert r.roots[0].edges == star_graph(p).edges
        for T in r.roots:
            assert diameter(T) <= 3
            assert is_complete(power(T, 3))
        assert len({ahu_code(T) for T in r.roots}) == len(r.roots)
        monkeypatch.setenv("TREECUBE_MAX_ORDER", "3")
        cubes._complete_roots.cache_clear()
        assert cube_root(complete_graph(p)) == r
        monkeypatch.delenv("TREECUBE_MAX_ORDER")


def assert_maps_cube_onto(r, G):
    """The root's vertex map carries its cube onto G, edge for edge."""
    phi = r.vertex_map
    assert sorted(phi) == list(range(G.p))
    assert {tuple(sorted((phi[u], phi[v]))) for u, v in power(r.tree, 3).edges} == G.edges


def test_cube_root_oracle_matches_and_limits(monkeypatch):
    import random
    spider_cube = relabeled_cube(spider(3, 2, 2), random.Random(3))
    for G in [power(path_graph(5), 3), spider_cube, complete_graph(4), cycle_graph(6),
              LabeledGraph(1), LabeledGraph(2, [(0, 1)])]:
        a, b = cube_root(G), cube_root_oracle(G)
        assert a.kind is b.kind
        assert len(a.roots) == len(b.roots)
        if a.kind is RootKind.UNIQUE:
            assert b.roots == (b.tree,)
            assert is_isomorphic(a.tree, b.tree)
            assert_maps_cube_onto(a, G)
            assert_maps_cube_onto(b, G)
    # above the cap the enumeration refuses before any canonical labeling
    from treecube import _kernels

    def refuse(*args):
        raise AssertionError("the oracle ran a canonical labeling above the cap")

    monkeypatch.setenv("TREECUBE_MAX_ORDER", "6")
    monkeypatch.setattr(_kernels, "canonical_labeling", refuse)
    for G in (complete_graph(7), path_graph(7)):
        with pytest.raises(EnumerationLimitError):
            cube_root_oracle(G)
    assert cube_root_oracle(LabeledGraph(7)).kind is RootKind.NOT_A_CUBE


def test_oracle_labels_nothing_when_labeled_equality_decides(monkeypatch):
    # complete graphs and the cubes of the diameter <= 3 trees are K_p mask
    # for mask, and a cube alone in its degree-sequence bucket is its own
    # tree's cube: isomorphism answers all of them without a labeling
    from treecube import _kernels
    from treecube.cubes import _power_buckets

    def refuse(*args):
        raise AssertionError("the oracle ran a canonical labeling")

    monkeypatch.setattr(_kernels, "canonical_labeling", refuse)
    for p in range(3, 13):
        K = complete_graph(p)
        r = cube_root_oracle(K)
        assert r.kind is RootKind.AMBIGUOUS_COMPLETE
        assert r.roots == cube_root(K).roots
        for T in r.roots:
            assert cube_root_oracle(power(T, 3)) == r
    alone = 0
    for p in range(1, 11):
        for trees in _power_buckets(3, p).values():
            G = power(trees[0], 3)
            if len(trees) == 1 and not is_complete(G):
                r = cube_root_oracle(G)
                assert r.kind is RootKind.UNIQUE and r.tree is trees[0]
                assert r.vertex_map == tuple(range(p))
                alone += 1
    # 168 of the 201 cubes to order 10 are alone in their bucket: K1, K2, K3 and these
    assert alone == 165


def test_unique_root_verifies_by_recubing():
    for p in range(5, 11):
        for T in enumerate_trees(p):
            G = power(T, 3)
            if is_complete(G):
                continue
            r = cube_root(G)
            assert r.kind is RootKind.UNIQUE
            assert is_isomorphic(power(r.tree, 3), G)
            assert is_isomorphic(r.tree, T)


def test_is_tree_cube_examples():
    assert is_tree_cube(power(path_graph(5), 3))
    assert not is_tree_cube(path_graph(5))
    for p in range(3, 8):
        assert is_tree_cube(complete_graph(p))


def test_terminal_vertices_are_a_valid_root_leaf_set():
    # The labeled root embedding of a cube need not be unique (K7 minus one
    # edge has roots whose leaf sets differ outside the forced non-edge
    # endpoints), so check the embedding-invariant facts: the count matches
    # the isomorphism class, every root leaf mapped into the graph deletes to
    # a tree cube, and the answer is deterministic.
    from treecube.graphs import delete_vertex
    rng = random.Random(31)

    def mapped_leaves(H):
        r = cube_root(H)
        return {r.vertex_map[v] for v in leaves(r.tree)}

    for T in enumerate_trees(7):
        G = power(T, 3)
        if is_complete(G):
            continue
        perm = list(range(G.p))
        rng.shuffle(perm)
        H = relabel(G, perm)
        tv = mapped_leaves(H)
        assert len(tv) == len(leaves(T))
        for v in tv:
            assert is_tree_cube(delete_vertex(H, v))
        assert mapped_leaves(LabeledGraph(H.p, H.edges)) == tv


def test_theorem_31_leaf_deletion_equivalence_spot():
    for T in enumerate_trees(7):
        G = power(T, 3)
        leaf_set = leaves(T)
        for v in range(T.p):
            from treecube.graphs import delete_vertex
            lhs = power(delete_vertex(T, v), 3)
            rhs = delete_vertex(G, v)
            assert is_isomorphic(lhs, rhs) == (v in leaf_set)


def test_constructive_extraction_beyond_enumeration_cap():
    # no enumeration fallback exists above the cap, so the clique-structure
    # pass must succeed on its own
    import random
    rng = random.Random(42)
    for p in (20, 40):
        edges = [(rng.randrange(v), v) for v in range(1, p)]
        T = LabeledGraph(p, edges)
        G = power(T, 3)
        r = cube_root(G)
        assert r.kind is RootKind.UNIQUE
        assert is_isomorphic(power(r.tree, 3), G)
    assert cube_root(cycle_graph(30)).kind is RootKind.NOT_A_CUBE


def test_cube_root_of_a_large_clique_minus_an_edge():
    # the cube of this spider is K_1100 minus the edge between its two leg
    # ends: a clique search one level deeper per clique vertex would pass
    # Python's recursion limit
    legs = [(0, 1), (1, 2), (0, 3), (3, 4)]
    spider = Tree(LabeledGraph(1100, legs + [(0, v) for v in range(5, 1100)]))
    r = cube_root(power(spider, 3))
    assert r.kind is RootKind.UNIQUE
    assert ahu_code(r.tree) == ahu_code(spider)


def test_root_result_serializes():
    d = cube_root(power(path_graph(6), 3)).to_dict()
    assert d["kind"] == "unique" and "root_edges" in d
    d = cube_root(complete_graph(4)).to_dict()
    assert d["kind"] == "ambiguous-complete" and len(d["roots"]) == 2
    assert cube_root(cycle_graph(5)).to_dict() == {"kind": "not-a-cube"}


def complete_binary_tree(depth):
    p = 2 ** (depth + 1) - 1
    return Tree(LabeledGraph(p, [((v - 1) // 2, v) for v in range(1, p)]))


def relabeled_cube(T, rng):
    perm = list(range(T.p))
    rng.shuffle(perm)
    return relabel(power(T, 3), perm)


def test_cube_root_runs_no_canonical_labeling(monkeypatch):
    # symmetric roots whose certificates take the unpruned canonical search
    # minutes, and non-cubes within the enumeration cap: the labeled check
    # must get by without a canonical labeling or the tree enumeration
    import random
    import treecube.cubes as cubes
    from treecube import _kernels
    from treecube.harness import noncube_corpus
    from treecube.trees import ahu_code

    near_cube = power(path_graph(12), 3)
    non_cubes = [cycle_graph(12), LabeledGraph(12, near_cube.edges - {(4, 7)})]
    non_cubes += noncube_corpus(4, 12)
    for G in non_cubes:
        assert G.p <= 12 and not is_complete(G)
        assert cube_root_oracle(G).kind is RootKind.NOT_A_CUBE

    def refuse(*args):
        raise AssertionError("cube_root ran a canonical labeling or an enumeration")

    monkeypatch.setattr(_kernels, "canonical_labeling", refuse)
    assert not hasattr(cubes, "max_enumeration_order")
    for name in ("enumerate_trees", "_power_buckets"):
        monkeypatch.setattr(cubes, name, refuse)
    for G in non_cubes:
        # the oracle labeled these very graphs above: nothing is cached on them
        assert cube_root(G).kind is RootKind.NOT_A_CUBE
    rng = random.Random(7)
    for T in (spider(*[3] * 8), spider(*[3] * 10), complete_binary_tree(5),
              complete_binary_tree(6)):
        G = relabeled_cube(T, rng)
        r = cube_root(G)
        assert r.kind is RootKind.UNIQUE
        assert ahu_code(r.tree) == ahu_code(T)
        assert_maps_cube_onto(r, G)


def test_labeled_check_rejects_a_misplaced_vertex():
    from treecube.cubes import _constructive_root, _is_labeled_cube
    G = power(path_graph(7), 3)
    T, phi = _constructive_root(G)
    assert _is_labeled_cube(G, T, phi)
    # P7's cube has no twins, so any transposition misplaces two vertices
    swapped = list(phi)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    assert not _is_labeled_cube(G, T, tuple(swapped))
    assert not _is_labeled_cube(G, T, phi[:-1] + (phi[0],))
    # a map of another length, or a root of another order, answers False
    assert not _is_labeled_cube(G, T, phi + (7,))
    assert not _is_labeled_cube(G, P(8), tuple(range(8)))
    assert not _is_labeled_cube(G, P(8), tuple(range(7)))


def test_cube_root_rejects_non_chordal_near_cubes_before_recubing(monkeypatch):
    # a tree cube is chordal: a relabeled tree cube minus one edge that is
    # not chordal is refused by the clique search, with no labeled check
    import treecube.cubes as cubes

    rng = random.Random(25)
    near_cubes = []
    for p in range(6, 10):
        for T in enumerate_trees(p):
            G = relabeled_cube(T, rng)
            for e in G.edge_list():
                H = LabeledGraph(p, G.edges - {e})
                if not is_chordal_oracle(H):
                    near_cubes.append(H)

    def refuse(*args):
        raise AssertionError("a graph that is not chordal was recubed")

    monkeypatch.setattr(cubes, "_is_labeled_cube", refuse)
    for H in near_cubes:
        assert cube_root(H).kind is RootKind.NOT_A_CUBE
    assert len(near_cubes) > 500


def test_cube_root_needs_no_enumeration_fallback():
    # certifies the constructive pass at every order up to the default
    # enumeration cap: each non-complete tree cube of order 5..12, under
    # 3 seeded relabelings, gives back the planted root
    import random
    from treecube.trees import ahu_code
    rng = random.Random(11)
    for p in range(5, 13):
        for T in enumerate_trees(p):
            if diameter(T) < 4:
                continue
            code = ahu_code(T)
            for _ in range(3):
                G = relabeled_cube(T, rng)
                r = cube_root(G)
                assert r.kind is RootKind.UNIQUE
                assert ahu_code(r.tree) == code
                assert_maps_cube_onto(r, G)


def test_cube_root_agrees_with_oracle_on_perturbed_and_deleted_cubes():
    # the negative paths of the constructive pass: every copy of a relabeled
    # tree cube with one vertex pair toggled, and every vertex-deleted card,
    # gets the oracle's kind, and unique roots agree up to isomorphism
    import random
    from treecube.graphs import delete_vertex
    from treecube.trees import ahu_code
    rng = random.Random(5)
    checked = {kind: 0 for kind in RootKind}
    for p in range(5, 10):
        for T in enumerate_trees(p):
            G = relabeled_cube(T, rng)
            variants = [G] + [delete_vertex(G, v) for v in range(p)]
            variants += [LabeledGraph(p, G.edges ^ {(u, v)})
                         for u in range(p) for v in range(u + 1, p)]
            for H in variants:
                r, want = cube_root(H), cube_root_oracle(H)
                assert r.kind is want.kind, H.edge_list()
                if r.kind is RootKind.UNIQUE:
                    assert ahu_code(r.tree) == ahu_code(want.tree)
                checked[r.kind] += 1
    assert min(checked.values()) > 0 and sum(checked.values()) == 3_512


def separator_groups(G):
    """The clique-tree edges of G grouped by separator, as (sorted cliques, separator)."""
    from treecube import _kernels
    tree = []
    _kernels.maximal_cliques(G.p, G._adj, tree)
    groups = {}
    for child, parent, sep in tree:
        groups.setdefault(sep, set()).update((child, parent))
    return sorted((sorted(members), sep) for sep, members in groups.items())


def test_separator_groups_are_the_krausz_classes():
    # on a non-complete tree cube, the clique tree's edges grouped by
    # separator are the maximal groups of pairwise-overlapping cliques, in
    # the same order and with the same intersections
    rng = random.Random(27)
    checked = 0
    for p in range(5, 11):
        for T in enumerate_trees(p):
            if diameter(T) < 4:
                continue
            G = relabeled_cube(T, rng)
            cliques = [sum(1 << v for v in c) for c in maximal_cliques(G)]
            assert separator_groups(G) == krausz_classes_oracle(cliques)
            checked += 1
    assert checked == 175


def test_cube_root_runs_one_clique_search(monkeypatch):
    from treecube import _kernels
    search = _kernels.maximal_cliques
    calls = []

    def counted(*args):
        calls.append(args[0])
        return search(*args)

    monkeypatch.setattr(_kernels, "maximal_cliques", counted)
    rng = random.Random(3)
    for T in (P(9), spider(3, 3, 3), complete_binary_tree(4)):
        calls.clear()
        assert cube_root(relabeled_cube(T, rng)).kind is RootKind.UNIQUE
        assert calls == [T.p]
    calls.clear()
    assert cube_root(LabeledGraph(9, power(P(9), 3).edges - {(3, 5)})).kind is RootKind.NOT_A_CUBE
    assert len(calls) == 1


def test_cube_root_decides_connectivity_before_any_clique_search(monkeypatch):
    # a header-only input of a million vertices has no edges: the clique
    # search on it would run a million-bit maximum cardinality search
    from treecube import _kernels

    def refuse(*args):
        raise AssertionError("a clique search ran on a disconnected graph")

    monkeypatch.setattr(_kernels, "maximal_cliques", refuse)
    assert cube_root(parse_graph("1048576\n")).kind is RootKind.NOT_A_CUBE


def test_cube_root_of_a_long_path_cube_is_fast():
    # the relabeled cube of P8000 has 7,997 cliques: Krausz classes from the
    # clique tree need no comparison of every pair of cliques
    import time
    G = relabeled_cube(P(8000), random.Random(8000))
    start = time.perf_counter()
    r = cube_root(G)
    elapsed = time.perf_counter() - start
    assert r.kind is RootKind.UNIQUE
    assert ahu_code(r.tree) == ahu_code(P(8000))
    assert elapsed < 5.0, elapsed
