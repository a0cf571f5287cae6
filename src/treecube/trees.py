"""Trees: end-deletion, leaf orders, AHU codes, enumeration.

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


class Tree(LabeledGraph):
    """A LabeledGraph satisfying the tree invariant (p=0 allowed: empty tree)."""

    __slots__ = ()

    def __init__(self, graph: LabeledGraph):
        if not is_tree(graph):
            raise NotATreeError(f"graph with p={graph.p}, m={len(graph.edges)} is not a tree")
        # share the checked graph's state instead of rebuilding it
        self.p, self.edges, self._adj = graph.p, graph.edges, graph._adj

    @property
    def graph(self) -> "Tree":
        """The tree itself; kept only because ``bench/workloads.py`` reads it."""
        return self

    def __repr__(self) -> str:
        return f"Tree(p={self.p}, edges={self.edge_list()})"


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
    return Tree(induced_subgraph(T, frozenset().union(*leaf_orders(T)[1:]))[0])


def leaf_orders(T: Tree) -> tuple[frozenset[int], ...]:
    """The layers L_0, L_1, ...: L_i holds the leaves of the i-times end-deleted tree.

    This is the one place a tree is peeled; every end-deletion notion derives
    from these layers. A round with no vertex of degree at most 1 means a
    cycle, which would never peel, so it raises ``NotATreeError``; so does a
    forest, which peels but is acyclic with fewer than p - 1 edges.
    """
    adj = T._adj
    deg = [a.bit_count() for a in adj]
    alive = set(range(T.p))
    orders = []
    while alive:
        layer = frozenset(v for v in alive if deg[v] <= 1)
        if not layer:
            raise NotATreeError(f"graph with p={T.p}, m={len(T.edges)} has a cycle")
        orders.append(layer)
        for v in layer:
            alive.discard(v)
            for u in _kernels.bits(adj[v]):
                if u in alive:
                    deg[u] -= 1
    if T.p and len(T.edges) != T.p - 1:
        raise NotATreeError(f"graph with p={T.p}, m={len(T.edges)} is a forest")
    return tuple(orders)


def ahu_code(T: Tree) -> str:
    """Canonical string for free trees: equal iff isomorphic.

    The codes are built layer by layer over ``leaf_orders``: a vertex's
    children are its neighbors in earlier layers, and the last layer holds
    the one or two centers.
    """
    if T.p == 0:
        return ""
    adj = T._adj
    code = [""] * T.p
    done = 0
    for layer in leaf_orders(T):
        for v in layer:
            code[v] = "(" + "".join(sorted([code[u] for u in _kernels.bits(adj[v] & done)])) + ")"
        for v in layer:
            done |= 1 << v
    if len(layer) == 1:
        return code[next(iter(layer))]
    return "[" + "".join(sorted(code[v] for v in layer)) + "]"


# ── free-tree enumeration ─────────────────────────────────────────────


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
        base = list(small.edges)
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
