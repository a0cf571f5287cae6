"""Trees: end-deletion, leaf orders, weighted equivalence, enumeration.

The enumeration of free trees (one representative per isomorphism class, in a
deterministic order) is the brute-force substrate used by the oracles and the
verification sweeps.
"""

from __future__ import annotations

import os
from functools import lru_cache
from typing import Iterable

from . import _kernels
from .errors import EnumerationLimitError, NotATreeError
from .graphs import LabeledGraph, induced_subgraph, is_connected

DEFAULT_MAX_ORDER = 12


class Tree:
    """A LabeledGraph satisfying the tree invariant (p=0 allowed: empty tree)."""

    __slots__ = ("graph",)

    def __init__(self, graph: LabeledGraph):
        if not is_tree(graph):
            raise NotATreeError(f"graph with p={graph.p}, m={len(graph.edges)} is not a tree")
        self.graph = graph

    @property
    def p(self) -> int:
        return self.graph.p

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.graph.neighbors(v)

    def degree(self, v: int) -> int:
        return self.graph.degree(v)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tree):
            return NotImplemented
        return self.graph == other.graph

    def __hash__(self) -> int:
        return hash(self.graph)

    def __repr__(self) -> str:
        return f"Tree(p={self.p}, edges={self.graph.edge_list()})"


class WeightedTree:
    """End-deleted skeleton plus per-vertex counts of attached leaves."""

    __slots__ = ("skeleton", "weights")

    def __init__(self, skeleton: Tree, weights: Iterable[int]):
        weights = tuple(weights)
        if skeleton.p == 0:
            raise ValueError("weighted tree needs a nonempty skeleton")
        if len(weights) != skeleton.p:
            raise ValueError("one weight per skeleton vertex required")
        if any(w < 0 for w in weights):
            raise ValueError("weights must be non-negative")
        for v in range(skeleton.p):
            deg = skeleton.degree(v)
            if deg == 1 and weights[v] < 1:
                raise ValueError(f"pendant skeleton vertex {v} needs weight >= 1")
            if deg == 0 and weights[v] < 2:
                # isolated skeleton (single vertex): anything less than a star
                # on 3 vertices would not survive end-deletion intact
                raise ValueError(f"isolated skeleton vertex {v} needs weight >= 2")
        self.skeleton = skeleton
        self.weights = weights

    @property
    def total_leaves(self) -> int:
        return sum(self.weights)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedTree):
            return NotImplemented
        return self.skeleton == other.skeleton and self.weights == other.weights

    def __repr__(self) -> str:
        return f"WeightedTree(skeleton={self.skeleton!r}, weights={self.weights})"


def is_tree(G: LabeledGraph) -> bool:
    """Connected with exactly p-1 edges; the empty graph counts as a tree."""
    if G.p == 0:
        return not G.edges
    return len(G.edges) == G.p - 1 and is_connected(G)


def leaves(T: Tree) -> frozenset[int]:
    """Degree-1 vertices; the sole vertex of a 1-vertex tree counts as a leaf."""
    if T.p == 0:
        return frozenset()
    if T.p == 1:
        return frozenset({0})
    return frozenset(v for v in range(T.p) if T.degree(v) == 1)


def end_deleted(T: Tree) -> Tree:
    """Induced subtree on the non-leaf vertices (densely relabeled).

    Both P1 and P2 end-delete to the empty tree.
    """
    return Tree(induced_subgraph(T.graph, core_vertices(T, 1))[0])


def leaf_orders(T: Tree) -> tuple[frozenset[int], ...]:
    """The layers L_0, L_1, ...: L_i holds the leaves of the i-times end-deleted tree.

    This is the one place a tree is peeled; every end-deletion notion derives
    from these layers.
    """
    adj = T.graph._adj
    deg = [a.bit_count() for a in adj]
    alive = set(range(T.p))
    orders = []
    while alive:
        layer = frozenset(v for v in alive if deg[v] <= 1)
        orders.append(layer)
        for v in layer:
            alive.discard(v)
            for u in _kernels.bits(adj[v]):
                if u in alive:
                    deg[u] -= 1
    return tuple(orders)


def core_vertices(T: Tree, k: int) -> frozenset[int]:
    """Vertices (original ids) surviving k rounds of end-deletion."""
    if k < 0:
        raise ValueError("deletion count must be non-negative")
    return frozenset().union(*leaf_orders(T)[k:])


def weighted_form(T: Tree) -> WeightedTree:
    """Collapse T to its end-deleted skeleton with per-vertex leaf counts."""
    if T.p <= 2:
        raise ValueError("weighted form needs a tree with at least 3 vertices")
    skeleton, old_ids = induced_subgraph(T.graph, core_vertices(T, 1))
    # a skeleton vertex's neighbors outside the skeleton are its leaves
    weights = (T.degree(v) - skeleton.degree(i) for i, v in enumerate(old_ids))
    return WeightedTree(Tree(skeleton), weights)


def expand(W: WeightedTree) -> Tree:
    """Reattach the counted leaves; inverse of weighted_form up to isomorphism."""
    q = W.skeleton.p
    edges = list(W.skeleton.graph.edges)
    nxt = q
    for v in range(q):
        for _ in range(W.weights[v]):
            edges.append((v, nxt))
            nxt += 1
    return Tree(LabeledGraph(nxt, edges))


def terminal_edges(T: Tree) -> frozenset[tuple[int, int]]:
    """Edges with at least one degree-1 endpoint."""
    return kth_order_terminal_edges(T, 0)


def kth_order_terminal_edges(T: Tree, k: int) -> frozenset[tuple[int, int]]:
    """Terminal edges of the k-times end-deleted tree, in original vertex ids."""
    return layer_terminal_edges(T, leaf_orders(T), k)


def layer_terminal_edges(T: Tree, orders: tuple[frozenset[int], ...],
                         k: int) -> frozenset[tuple[int, int]]:
    """Edges inside the k-core with an endpoint in L_k, given T's ``leaf_orders``."""
    core = frozenset().union(*orders[k:])
    if not core:
        raise ValueError(f"tree exhausted after {k} end-deletions")
    return frozenset(e for e in T.graph.edges if e[0] in core and e[1] in core
                     and (e[0] in orders[k] or e[1] in orders[k]))


# ── free-tree enumeration ─────────────────────────────────────────────


def _ahu_rooted(adj: list[int], root: int, parent: int) -> str:
    kids = sorted(_ahu_rooted(adj, w, root) for w in _kernels.bits(adj[root]) if w != parent)
    return "(" + "".join(kids) + ")"


def centers(T: Tree) -> frozenset[int]:
    """The 1- or 2-vertex core left by repeated leaf removal."""
    if T.p == 0:
        return frozenset()
    return leaf_orders(T)[-1]


def ahu_code(T: Tree) -> str:
    """Canonical string for free trees: equal iff isomorphic."""
    if T.p == 0:
        return ""
    adj = T.graph._adj
    c = sorted(centers(T))
    if len(c) == 1:
        return _ahu_rooted(adj, c[0], -1)
    a, b = c
    halves = sorted([_ahu_rooted(adj, a, b), _ahu_rooted(adj, b, a)])
    return "[" + "".join(halves) + "]"


def max_enumeration_order() -> int:
    """Enumeration safety cap; TREECUBE_MAX_ORDER overrides the default of 12."""
    raw = os.environ.get("TREECUBE_MAX_ORDER")
    if raw:
        try:
            return int(raw)
        except ValueError:
            raise ValueError(f"TREECUBE_MAX_ORDER must be an integer, got {raw!r}") from None
    return DEFAULT_MAX_ORDER


def leaf_extensions(trees: Iterable[Tree]) -> dict[str, Tree]:
    """Each tree made by joining a new last vertex to some vertex of a tree.

    Trees are extended in input order, attaching to vertex 0, 1, ... in turn.
    Returns the first tree generated in each isomorphism class, keyed by its
    AHU code, in generation order.
    """
    out: dict[str, Tree] = {}
    for small in trees:
        p = small.p + 1
        base = list(small.graph.edges)
        for attach in range(small.p):
            cand = Tree(LabeledGraph(p, base + [(attach, p - 1)]))
            out.setdefault(ahu_code(cand), cand)
    return out


@lru_cache(maxsize=None)
def _tree_reps(p: int) -> tuple[Tree, ...]:
    if p == 1:
        return (Tree(LabeledGraph(1)),)
    reps = leaf_extensions(_tree_reps(p - 1))
    return tuple(reps[code] for code in sorted(reps))


def enumerate_trees(p: int) -> list[Tree]:
    """One representative per isomorphism class of free trees on p vertices.

    Output order is deterministic (sorted by canonical tree code). Grows by
    leaf augmentation from the single 1-vertex tree, deduplicating by code.
    """
    if p < 1:
        raise ValueError("tree order must be at least 1")
    cap = max_enumeration_order()
    if p > cap:
        raise EnumerationLimitError(
            f"order {p} exceeds the enumeration cap {cap} (set TREECUBE_MAX_ORDER to raise it)")
    return list(_tree_reps(p))
