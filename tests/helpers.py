"""Independent test oracles: deliberately avoid the library's kernel paths."""

from __future__ import annotations

import itertools
import random
from collections import deque
from itertools import permutations

from treecube import _kernels
from treecube.graphs import LabeledGraph


def bfs_distances_oracle(G: LabeledGraph) -> list[list[int | None]]:
    """Plain deque BFS over an adjacency dict built from the edge set."""
    adj: dict[int, list[int]] = {v: [] for v in range(G.p)}
    for u, v in G.edges:
        adj[u].append(v)
        adj[v].append(u)
    out = []
    for s in range(G.p):
        dist: list[int | None] = [None] * G.p
        dist[s] = 0
        q = deque([s])
        while q:
            x = q.popleft()
            for y in adj[x]:
                if dist[y] is None:
                    dist[y] = dist[x] + 1
                    q.append(y)
        out.append(dist)
    return out


def induced_subgraph_oracle(G: LabeledGraph, keep) -> LabeledGraph:
    """Induced subgraph on ``keep``, relabeled in order, by filtering the edge set."""
    pos = {v: i for i, v in enumerate(sorted(keep))}
    return LabeledGraph(len(pos), [(pos[u], pos[v]) for u, v in G.edges
                                   if u in pos and v in pos])


def refuse_distance_matrix(monkeypatch) -> None:
    """Make any p x p distance-matrix build fail the test."""
    def refuse(*args):
        raise AssertionError("a p x p distance matrix was built")

    monkeypatch.setattr(_kernels, "all_pairs_distances", refuse)


def brute_force_isomorphic(G: LabeledGraph, H: LabeledGraph) -> bool:
    """Try every bijection; only usable for small orders."""
    if G.p != H.p or len(G.edges) != len(H.edges):
        return False
    target = {frozenset(e) for e in H.edges}
    for perm in permutations(range(G.p)):
        if {frozenset((perm[u], perm[v])) for u, v in G.edges} == target:
            return True
    return False


def brute_force_maximal_cliques(G: LabeledGraph) -> list[frozenset[int]]:
    """All maximal cliques by subset enumeration (p <= ~12)."""
    cliques = []
    nbrs = [G.neighbors(v) for v in range(G.p)]
    for mask in range(1, 1 << G.p):
        members = [v for v in range(G.p) if mask >> v & 1]
        if all(v in nbrs[u] for i, u in enumerate(members) for v in members[i + 1:]):
            if not any(all(w in nbrs[u] for u in members)
                       for w in range(G.p) if w not in members):
                cliques.append(frozenset(members))
    return sorted(cliques, key=sorted)


def krausz_classes_oracle(cliques: list[int]) -> list[tuple[list[int], int]]:
    """The Krausz classes of a tree cube's clique masks, from the overlap graph.

    The overlap graph joins two cliques that share 3 vertices or more; on a
    non-complete tree cube it is the line graph of the skeleton, and its
    maximal cliques are the classes. Each class is its sorted clique indices
    and the intersection of its cliques, in order of those index tuples.
    Every pair of cliques is compared, and the maximal cliques come from
    subset enumeration, so it suits only a few dozen cliques.
    """
    m = len(cliques)
    overlap = LabeledGraph(m, [(i, j) for i in range(m) for j in range(i + 1, m)
                               if (cliques[i] & cliques[j]).bit_count() >= 3])
    classes = []
    for members in brute_force_maximal_cliques(overlap):
        common = -1
        for e in members:
            common &= cliques[e]
        classes.append((sorted(members), common))
    return classes


def is_chordal_oracle(G: LabeledGraph) -> bool:
    """Chordality by repeated simplicial-vertex elimination on edge sets.

    A graph is chordal iff it can be emptied by deleting, one at a time, a
    vertex whose remaining neighbours are pairwise adjacent (Fulkerson &
    Gross, 1965; Dirac, 1961).
    """
    nbrs = {v: set() for v in range(G.p)}
    for u, v in G.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    while nbrs:
        for v, around in nbrs.items():
            if all(b in nbrs[a] for a, b in itertools.combinations(around, 2)):
                break
        else:
            return False
        for a in nbrs.pop(v):
            nbrs[a].discard(v)
    return True


def prufer_to_edges(seq: list[int]) -> list[tuple[int, int]]:
    """Decode a Pruefer sequence into labeled tree edges."""
    p = len(seq) + 2
    degree = [1] * p
    for x in seq:
        degree[x] += 1
    edges = []
    import heapq

    leaf_heap = [v for v in range(p) if degree[v] == 1]
    heapq.heapify(leaf_heap)
    for x in seq:
        leaf = heapq.heappop(leaf_heap)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaf_heap, x)
    u = heapq.heappop(leaf_heap)
    v = heapq.heappop(leaf_heap)
    edges.append((u, v))
    return edges


def random_prufer_tree(rng: random.Random, p: int) -> LabeledGraph:
    if p == 1:
        return LabeledGraph(1)
    if p == 2:
        return LabeledGraph(2, [(0, 1)])
    seq = [rng.randrange(p) for _ in range(p - 2)]
    return LabeledGraph(p, prufer_to_edges(seq))


def all_free_trees_brute(p: int) -> list[LabeledGraph]:
    """Every isomorphism class on p vertices via Pruefer enumeration plus
    brute-force deduplication; independent of the library's enumeration."""
    if p == 1:
        return [LabeledGraph(1)]
    if p == 2:
        return [LabeledGraph(2, [(0, 1)])]
    reps: list[LabeledGraph] = []
    # isomorphic trees share a sorted degree sequence, read off the Pruefer
    # code (a vertex's degree is one more than its occurrences), so a tree is
    # compared only with the representatives of its own sequence
    by_degrees: dict[tuple[int, ...], list[LabeledGraph]] = {}
    for code in range(p ** (p - 2)):
        seq = []
        x = code
        for _ in range(p - 2):
            seq.append(x % p)
            x //= p
        G = LabeledGraph(p, prufer_to_edges(seq))
        same = by_degrees.setdefault(tuple(sorted(1 + seq.count(v) for v in range(p))), [])
        if not any(brute_force_isomorphic(G, R) for R in same):
            same.append(G)
            reps.append(G)
    return reps


def binary_tree(depth: int) -> tuple[int, list[tuple[int, int]]]:
    """The complete binary tree of the given depth, as (p, edges)."""
    p = 2 ** (depth + 1) - 1
    return p, [((v - 1) // 2, v) for v in range(1, p)]


def spider(legs: int, length: int = 3) -> tuple[int, list[tuple[int, int]]]:
    """Legs of equal length joined at vertex 0, as (p, edges)."""
    edges = [(0 if j == 0 else 1 + length * i + j - 1, 1 + length * i + j)
             for i in range(legs) for j in range(length)]
    return 1 + legs * length, edges


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
    """The kernel corpus, as (p, edges): symmetric graphs, paths, cycles, stars,
    complete graphs and seeded random graphs."""
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
