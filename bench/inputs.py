"""Seeded inputs and their planted answers for the ``queries`` workload.

Everything here is plain Python with no treecube import: the benchmark makes
its inputs, and checks the program's answers, without the code under test.
Graphs are edge lists on vertices ``0..p-1``; inputs reach the program only as
text, in treecube's edge-list and deck formats.

The shapes (which trees, which edge a near-cube lacks, which non-cubes) come
from the fixed ``CORPUS_SEED``; the run's seed draws the vertex labels and the
order of a deck's cards. The cost of a query is wildly heavy-tailed in its
shape: without automorphism pruning, canonical labeling of a tree cube with a
few symmetric branches runs for minutes, so shapes drawn per seed would swing
a pass by several deadlines between seeds. With fixed shapes every run meets
the same hard inputs and the same ones overrun.

Planted truth:

* a relabeled cube of a tree of diameter >= 4 has that tree as its unique
  root, compared by AHU code (no canonical labeling, which hangs on the same
  inputs);
* K_p for p >= 3 is ambiguous, with 1 + (p - 2) // 2 roots (the star and the
  double stars);
* a connected graph that is not chordal is not a tree cube, because every
  power of a tree is chordal. Near-cubes and random non-cubes are made
  non-chordal on purpose.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass

CORPUS_SEED = 0

# Orders of the seeded random trees whose cubes are root queries.
ROOT_TREE_ORDERS = tuple(range(20, 201, 15))
SPIDER_LEGS = (4, 5, 6)
SPIDER_LEG_LENGTH = 3
BINARY_TREE_DEPTHS = (3, 4)
# Near-cubes on either side of the default enumeration cap (12): at or
# below it cube_root scans every tree of that order before answering.
NEAR_CUBE_ORDERS = (10, 12, 13, 20)
COMPLETE_ORDERS = tuple(range(3, 13))
# Deck queries: up to 13 vertices the cards fall inside the cap, so cards
# that are not cubes send cube_root through the enumeration fallback.
DECK_TREE_ORDERS = (10, 12, 14, 16, 18, 20)
NONCUBE_DECK_ORDERS = (8, 11, 14)


@dataclass(frozen=True)
class Query:
    """One input text for ``cube_root`` or ``reconstruct`` and its answer.

    ``expect`` is ``("unique", ahu)``, ``("complete", root_count)`` or
    ``("not_a_cube",)`` for roots; ``("tree", ahu)`` or ``("rejected",)``
    for decks.
    """

    kind: str
    name: str
    text: str
    expect: tuple


# ── small graph helpers ──────────────────────────────────────────────


def adjacency(p: int, edges) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(p)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def bfs(adj: list[list[int]], s: int) -> list[int]:
    dist = [-1] * len(adj)
    dist[s] = 0
    frontier = [s]
    while frontier:
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def is_connected(p: int, edges) -> bool:
    return p == 0 or min(bfs(adjacency(p, edges), 0)) >= 0


def diameter(p: int, edges) -> int:
    adj = adjacency(p, edges)
    return max(max(bfs(adj, s)) for s in range(p))


def cube_edges(p: int, edges) -> list[tuple[int, int]]:
    adj = adjacency(p, edges)
    out = []
    for u in range(p):
        d = bfs(adj, u)
        out.extend((u, v) for v in range(u + 1, p) if d[v] <= 3)
    return out


def is_chordal(p: int, edges) -> bool:
    """Maximum cardinality search, then a perfect-elimination check."""
    adj = [set(a) for a in adjacency(p, edges)]
    weight = [0] * p
    order: list[int] = []
    numbered = [False] * p
    for _ in range(p):
        v = max((u for u in range(p) if not numbered[u]), key=lambda u: weight[u])
        numbered[v] = True
        order.append(v)
        for w in adj[v]:
            if not numbered[w]:
                weight[w] += 1
    pos = {v: i for i, v in enumerate(order)}
    for v in order:
        earlier = [w for w in adj[v] if pos[w] < pos[v]]
        if earlier:
            parent = max(earlier, key=pos.__getitem__)
            if any(w != parent and w not in adj[parent] for w in earlier):
                return False
    return True


def ahu_code(p: int, edges) -> str:
    """Free-tree code: equal iff isomorphic (rooted at the centre or centres)."""
    if p == 0:
        return ""
    adj = adjacency(p, edges)
    deg = [len(a) for a in adj]
    layer = [v for v in range(p) if deg[v] <= 1]
    left = p
    while left > 2:
        left -= len(layer)
        nxt = []
        for v in layer:
            for w in adj[v]:
                deg[w] -= 1
                if deg[w] == 1:
                    nxt.append(w)
        layer = nxt

    def rooted(root: int, parent: int) -> str:
        return "(" + "".join(sorted(rooted(w, root) for w in adj[root] if w != parent)) + ")"

    if len(layer) == 1:
        return rooted(layer[0], -1)
    a, b = layer
    return "[" + "".join(sorted([rooted(a, b), rooted(b, a)])) + "]"


def edgelist_text(p: int, edges) -> str:
    lines = [str(p)]
    lines.extend(f"{u} {v}" for u, v in sorted((min(e), max(e)) for e in edges))
    return "\n".join(lines) + "\n"


def relabeled(rng: random.Random, p: int, edges) -> list[tuple[int, int]]:
    perm = list(range(p))
    rng.shuffle(perm)
    return [(perm[u], perm[v]) for u, v in edges]


def deck_text(rng: random.Random, p: int, edges) -> str:
    """Deck file of the graph: every vertex-deleted card, relabeled, shuffled."""
    cards = []
    for v in range(p):
        keep = {u: i for i, u in enumerate(w for w in range(p) if w != v)}
        card = [(keep[a], keep[b]) for a, b in edges if v not in (a, b)]
        cards.append(edgelist_text(p - 1, relabeled(rng, p - 1, card)).rstrip("\n"))
    rng.shuffle(cards)
    return f"deck {p}\n\n" + "\n\n".join(cards) + "\n"


# ── trees and graphs ─────────────────────────────────────────────────


def random_tree(rng: random.Random, p: int) -> list[tuple[int, int]]:
    """Uniform labeled tree on p vertices, decoded from a Pruefer sequence."""
    seq = [rng.randrange(p) for _ in range(p - 2)]
    deg = [1] * p
    for x in seq:
        deg[x] += 1
    heap = [v for v in range(p) if deg[v] == 1]
    heapq.heapify(heap)
    edges = []
    for x in seq:
        leaf = heapq.heappop(heap)
        edges.append((leaf, x))
        deg[x] -= 1
        if deg[x] == 1:
            heapq.heappush(heap, x)
    edges.append((heapq.heappop(heap), heapq.heappop(heap)))
    return edges


def random_deep_tree(rng: random.Random, p: int) -> list[tuple[int, int]]:
    # Diameter <= 3 trees cube to K_p, which the complete inputs cover.
    while True:
        edges = random_tree(rng, p)
        if diameter(p, edges) >= 4:
            return edges


def spider(legs: int, length: int) -> tuple[int, list[tuple[int, int]]]:
    edges = []
    n = 1
    for _ in range(legs):
        prev = 0
        for _ in range(length):
            edges.append((prev, n))
            prev = n
            n += 1
    return n, edges


def binary_tree(depth: int) -> tuple[int, list[tuple[int, int]]]:
    n = 2 ** (depth + 1) - 1
    return n, [((v - 1) // 2, v) for v in range(1, n)]


def near_cube(rng: random.Random, p: int) -> list[tuple[int, int]]:
    """Cube of a random tree minus one edge, kept connected and non-chordal."""
    while True:
        cube = cube_edges(p, random_deep_tree(rng, p))
        for i in rng.sample(range(len(cube)), len(cube)):
            rest = cube[:i] + cube[i + 1:]
            if is_connected(p, rest) and not is_chordal(p, rest):
                return rest


def random_noncube(rng: random.Random, p: int) -> list[tuple[int, int]]:
    """Connected, non-chordal, non-complete random graph."""
    while True:
        edges = set(random_tree(rng, p))
        density = rng.uniform(0.1, 0.5)
        for u in range(p):
            for v in range(u + 1, p):
                if (u, v) not in edges and (v, u) not in edges and rng.random() < density:
                    edges.add((u, v))
        edges = sorted(edges)
        if not is_chordal(p, edges):
            return edges


# ── the query set ────────────────────────────────────────────────────


def make_queries(seed: int) -> list[Query]:
    """Every root and reconstruct query of one seed, in a fixed order."""
    shapes = random.Random(CORPUS_SEED)
    labels = random.Random(seed)
    out = []

    def root_of_tree(name, p, tree):
        text = edgelist_text(p, relabeled(labels, p, cube_edges(p, tree)))
        out.append(Query("root", name, text, ("unique", ahu_code(p, tree))))

    for p in ROOT_TREE_ORDERS:
        root_of_tree(f"random-tree-{p}", p, random_deep_tree(shapes, p))
    for k in SPIDER_LEGS:
        root_of_tree(f"spider-{k}x{SPIDER_LEG_LENGTH}", *spider(k, SPIDER_LEG_LENGTH))
    for d in BINARY_TREE_DEPTHS:
        root_of_tree(f"binary-tree-depth-{d}", *binary_tree(d))
    for p in NEAR_CUBE_ORDERS:
        text = edgelist_text(p, relabeled(labels, p, near_cube(shapes, p)))
        out.append(Query("root", f"near-cube-{p}", text, ("not_a_cube",)))
    for p in COMPLETE_ORDERS:
        text = edgelist_text(p, [(u, v) for u in range(p) for v in range(u + 1, p)])
        out.append(Query("root", f"complete-{p}", text, ("complete", 1 + (p - 2) // 2)))

    def deck_of_tree(name, p, tree):
        text = deck_text(labels, p, cube_edges(p, tree))
        out.append(Query("reconstruct", name, text, ("tree", ahu_code(p, tree))))

    for p in DECK_TREE_ORDERS:
        deck_of_tree(f"deck-random-tree-{p}", p, random_deep_tree(shapes, p))
    deck_of_tree(f"deck-spider-4x{SPIDER_LEG_LENGTH}", *spider(4, SPIDER_LEG_LENGTH))
    for p in NONCUBE_DECK_ORDERS:
        text = deck_text(labels, p, random_noncube(shapes, p))
        out.append(Query("reconstruct", f"deck-noncube-{p}", text, ("rejected",)))
    return out
