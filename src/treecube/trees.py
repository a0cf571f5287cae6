"""Trees: end-deletion, leaf orders, AHU codes, enumeration.

The enumeration of free trees (one representative per isomorphism class, in a
deterministic order) is the brute-force substrate used by the oracles and the
verification sweeps. It peels each tree once and tells the trees grown from it
by a leaf apart by interned AHU codes, re-derived along one path; only the
one it keeps per class gets masks and a ``Tree`` check.
"""

from __future__ import annotations

import os
from bisect import insort
from functools import lru_cache
from typing import Iterable, Sequence

from . import _kernels
from .errors import EnumerationLimitError, NotATreeError
from .graphs import LabeledGraph, _from_masks, delete_vertices, is_connected

DEFAULT_MAX_ORDER = 12


class Tree(LabeledGraph):
    """A LabeledGraph satisfying the tree invariant (p=0 allowed: empty tree)."""

    __slots__ = ()

    def __init__(self, graph: LabeledGraph):
        if not is_tree(graph):
            raise NotATreeError(f"graph with p={graph.p}, m={graph.size} is not a tree")
        # share the checked graph's masks instead of rebuilding them
        self.p, self._adj = graph.p, graph._adj

    @property
    def graph(self) -> "Tree":
        """The tree itself; kept only because ``bench/workloads.py`` reads it."""
        return self


def is_tree(G: LabeledGraph) -> bool:
    """Connected with exactly p-1 edges; the empty graph counts as a tree."""
    return G.p == 0 or G.size == G.p - 1 and is_connected(G)


def leaves(T: Tree) -> frozenset[int]:
    """Vertices of degree at most 1: the sole vertex of a 1-vertex tree is a leaf."""
    return frozenset(v for v, a in enumerate(T._adj) if a.bit_count() <= 1)


def end_deleted(T: Tree) -> Tree:
    """Induced subtree on the non-leaf vertices (densely relabeled).

    Both P1 and P2 end-delete to the empty tree, which end-deletes to itself.
    """
    return Tree(delete_vertices(T, leaves(T)))


def leaf_orders(T: Tree) -> tuple[frozenset[int], ...]:
    """The layers L_0, L_1, ...: L_i holds the leaves of the i-times end-deleted tree.

    This is the one place a tree is peeled past its leaves (L_0 is
    ``leaves(T)``, all that ``end_deleted`` needs). Each layer is found from
    the last one's neighbors, so peeling costs one pass over the edges. A
    cycle never peels, so vertices left over raise ``NotATreeError``; so does
    a forest, which peels but is acyclic with fewer than p - 1 edges.
    """
    adj = T._adj
    deg = [a.bit_count() for a in adj]
    m = sum(deg) >> 1
    layer = [v for v in range(T.p) if deg[v] <= 1]
    orders = []
    while layer:
        orders.append(frozenset(layer))
        # the next layer: the vertices this one brings down to one neighbor
        nxt = []
        for v in layer:
            for u in _kernels.bits(adj[v]):
                deg[u] -= 1
                if deg[u] == 1:
                    nxt.append(u)
        layer = nxt
    if sum(map(len, orders)) < T.p:
        raise NotATreeError(f"graph with p={T.p}, m={m} has a cycle")
    if T.p and m != T.p - 1:
        raise NotATreeError(f"graph with p={T.p}, m={m} is a forest")
    return tuple(orders)


class _Codes(dict):
    # Interned rooted codes: the sorted ids of a vertex's children map to its
    # id, and strs[id], its AHU string, is built once from older ids' strings.
    def __init__(self) -> None:
        self.strs: list[str] = []

    def __missing__(self, key: tuple[int, ...]) -> int:
        self.strs.append("(" + "".join(sorted([self.strs[i] for i in key])) + ")")
        i = self[key] = len(self.strs) - 1
        return i

    def root_string(self, ids: Sequence[int]) -> str:
        # a free tree's code from the ids of its one or two centers
        if len(ids) == 1:
            return self.strs[ids[0]]
        return "[" + "".join(sorted([self.strs[i] for i in ids])) + "]"


def _rooted_codes(T: Tree, codes: _Codes):
    # Each vertex's key and id, rooted at the center(s), over leaf_orders: a
    # vertex's children are its neighbors in earlier layers, and its parent
    # is its one neighbor in a later layer (-1 for a center).
    adj = T._adj
    layers = leaf_orders(T)
    key, code, parent = [()] * T.p, [0] * T.p, [-1] * T.p
    done = 0
    for layer in layers:
        for v in layer:
            kids = _kernels.bits(adj[v] & done)
            for u in kids:
                parent[u] = v
            key[v] = tuple(sorted([code[u] for u in kids]))
            code[v] = codes[key[v]]
        for v in layer:
            done |= 1 << v
    return layers, key, code, parent


def ahu_code(T: Tree) -> str:
    """Canonical string for free trees: equal iff isomorphic.

    Each vertex's code is "(" + its children's codes, sorted, + ")", rooted
    at the center; a tree with two centers is "[" + their two codes, sorted,
    + "]". The codes are interned layer by layer over ``leaf_orders``.
    """
    if T.p == 0:
        return ""
    codes = _Codes()
    layers, _, code, _ = _rooted_codes(T, codes)
    return codes.root_string([code[v] for v in layers[-1]])


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
    AHU code, in generation order. Each tree is peeled once; a leaf at ``a``
    re-interns only the codes on the path from ``a`` to the center, which
    moves only when ``a`` lies at the radius: one center c becomes the edge
    from c toward ``a``, two become the one on ``a``'s side. Only the first
    candidate of a class gets masks, a string and a ``Tree`` check.
    """
    out: dict[tuple[int, ...], Tree] = {}
    codes = _Codes()
    leaf = codes[()]
    for small in trees:
        if not small.p:
            continue
        layers, key, code, parent = _rooted_codes(small, codes)
        r, centers = len(layers) - 1, tuple(layers[-1])
        depth = [0] * small.p
        for layer in reversed(layers[:-1]):
            for v in layer:
                depth[v] = depth[parent[v]] + 1
        for a in range(small.p):
            deepest = depth[a] == r
            # re-intern the path up to the center, or below it if it moves
            end = centers[0] if deepest and len(centers) == 1 else -1
            new, old, v = leaf, -1, a
            while v != end:
                k = list(key[v])
                if old >= 0:
                    k.remove(old)
                insort(k, new)
                top, old, new, v = v, code[v], codes[tuple(k)], parent[v]
            if end >= 0:
                k = list(key[end])
                if old >= 0:
                    k.remove(old)
                root = tuple(sorted((new, codes[tuple(k)])))
            elif len(centers) == 1:
                root = (new,)
            else:
                other = code[centers[centers[0] == top]]
                if deepest:
                    insort(k, other)
                    root = (codes[tuple(k)],)
                else:
                    root = tuple(sorted((new, other)))
            if root not in out:
                adj = [*small._adj, 1 << a]
                adj[a] |= 1 << small.p
                out[root] = Tree(_from_masks(adj))
    return {codes.root_string(root): T for root, T in out.items()}


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
