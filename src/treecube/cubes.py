"""Clique structure of tree cubes and cube-root extraction.

A non-complete cube of a tree decomposes into maximal cliques that are the
1-spans of the internal tree edges. Root extraction inverts that structure
constructively: clique intersections recover the end-deleted skeleton, its
leaves, and where every root vertex sits among G's vertices. The
candidate is verified by labeled recubing, an exact edge-set equality between
the candidate's cube and G on G's own vertices, with no isomorphism test.
A non-complete graph with no candidate, or whose candidate fails the check,
is not a cube, at every order; the tests certify the constructive pass on
every non-complete tree cube up to the enumeration cap, and the brute-force
oracle stays as the independent reference. Complete graphs have many roots,
the star and the double stars, which are built in closed form.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import lru_cache

from . import _kernels
from .errors import AmbiguousStructureError, NotACubeError, NotATreeError
from .graphs import (
    CanonicalForm,
    LabeledGraph,
    _canonical,
    canonical_form,
    edge_span,
    is_complete,
    is_connected,
    power,
)
from .trees import (
    Tree,
    end_deleted,
    enumerate_trees,
    leaves,
)


@dataclass(frozen=True)
class CliqueRecord:
    """A maximal clique of a cube together with the tree edge it is centered on."""

    members: frozenset[int]
    clique_edge: tuple[int, int]


class RootKind(enum.Enum):
    UNIQUE = "unique"
    AMBIGUOUS_COMPLETE = "ambiguous-complete"
    NOT_A_CUBE = "not-a-cube"


@dataclass(frozen=True)
class RootResult:
    """Outcome of cube-root extraction.

    ``roots`` holds every root: one tree for a unique root, every
    diameter-<=3 tree of the order for a complete input on at least 3
    vertices (the star, then the double stars), none for a non-cube. For a
    unique root, ``vertex_map[v]`` is the vertex of the input graph that root
    vertex ``v`` stands for: the cube of the root, relabeled through that map,
    is the input graph edge for edge. The vertex map is not serialized and
    takes no part in equality.
    """

    kind: RootKind
    roots: tuple[Tree, ...] = ()
    vertex_map: tuple[int, ...] | None = field(default=None, compare=False, repr=False)

    @classmethod
    def unique(cls, tree: Tree, vertex_map: tuple[int, ...] | None = None) -> "RootResult":
        return cls(RootKind.UNIQUE, (tree,), vertex_map)

    @property
    def tree(self) -> Tree | None:
        """The root when it is unique, else None."""
        return self.roots[0] if self.kind is RootKind.UNIQUE else None

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind.value}
        if self.kind is RootKind.UNIQUE:
            out["root_edges"] = self.tree.edge_list()
            out["root_certificate"] = canonical_form(self.tree).hex()
        if self.kind is RootKind.AMBIGUOUS_COMPLETE:
            out["roots"] = [T.edge_list() for T in self.roots]
            out["root_certificates"] = [canonical_form(T).hex() for T in self.roots]
        return out


def maximal_cliques(G: LabeledGraph) -> list[frozenset[int]]:
    """All inclusion-maximal cliques, in a deterministic order."""
    return [frozenset(_kernels.bits(m)) for m in _kernels.maximal_cliques(G.p, G._adj)]


def clique_edges_of_tree(T: Tree) -> frozenset[tuple[int, int]]:
    """Tree edges with both endpoints internal; exactly the skeleton's edges."""
    leaf_set = leaves(T)
    return frozenset(e for e in T.edges if e[0] not in leaf_set and e[1] not in leaf_set)


def cliques_of_cube(T: Tree) -> list[CliqueRecord]:
    """One record per clique edge, members being its 1-span in T.

    For trees of diameter at least 4 these are exactly the maximal cliques of
    the cube.
    """
    return [CliqueRecord(edge_span(T, e, 1), e) for e in sorted(clique_edges_of_tree(T))]


# ── constructive root extraction ──────────────────────────────────────


def _constructive_root(G: LabeledGraph) -> tuple[Tree, tuple[int, ...]] | None:
    """Propose a root for a connected non-complete graph, or None.

    Rebuilds the end-deleted skeleton from the maximal cliques, all kept as
    vertex bitmasks: cliques sharing at least 3 vertices are centered on
    skeleton edges with a common endpoint, so the maximal groups of
    pairwise-overlapping cliques are the edge stars of the skeleton's
    internal vertices (Krausz classes). The cliques of a class intersect in
    the closed neighborhood N[x] of its center x, which places every root
    vertex among G's vertices:

    * x is the one vertex that N[x] shares with the neighborhoods of all
      neighboring classes (N[x] & N[z] = {x, z}). With fewer than two
      neighboring classes the candidates left are twins in G, so any fixed
      choice, the lowest, is right.
    * A pendant skeleton vertex takes the lowest vertex left in its class's
      neighborhood; its leaves are its clique minus that neighborhood.
    * x's own leaves are what its neighborhood has left after that.

    The root's vertices are the classes, then the pendant skeleton vertices,
    then each skeleton vertex's leaves in turn. Returns the root with the map
    from its vertices to G's, or None. One guard rejects early: a
    non-complete cube's skeleton has at least two edges, so each class holds
    two cliques or more, and a class of one is the cheap exit for about half
    the non-cubes. All else is judged by the root's ``Tree`` check and the
    caller's labeled recubing.
    """
    cliques = _kernels.maximal_cliques(G.p, G._adj)
    m = len(cliques)
    overlap = [0] * m
    for i in range(m):
        a = cliques[i]
        for j in range(i + 1, m):
            if (a & cliques[j]).bit_count() >= 3:
                overlap[i] |= 1 << j
                overlap[j] |= 1 << i
    classes = [_kernels.bits(mask) for mask in _kernels.maximal_cliques(m, overlap)]
    if any(len(members) < 2 for members in classes):
        return None
    cover: list[list[int]] = [[] for _ in range(m)]
    for ci, members in enumerate(classes):
        for e in members:
            cover[e].append(ci)
    if any(len(c) > 2 for c in cover):
        return None

    t = len(classes)
    neighborhoods = []
    for members in classes:
        nb = -1
        for e in members:
            nb &= cliques[e]
        neighborhoods.append(nb)
    centers = list(neighborhoods)
    edges = []
    pendants: list[tuple[int, int]] = []  # (clique index, class of its inner end)
    for e, cov in enumerate(cover):
        if len(cov) == 2:
            a, b = cov
            edges.append((a, b))
            centers[a] &= neighborhoods[b]
            centers[b] &= neighborhoods[a]
        else:
            edges.append((cov[0], t + len(pendants)))
            pendants.append((e, cov[0]))
    # where each skeleton vertex may stand: the centers, fewest candidates
    # first, so pinned centers are placed before their twins; then the
    # pendant vertices, each within its class's neighborhood
    spots = centers + [neighborhoods[b] for _, b in pendants]
    order = sorted(range(t), key=lambda ci: centers[ci].bit_count()) + list(range(t, len(spots)))
    vertex_map = [0] * len(spots)
    used = 0
    for v in order:
        free = spots[v] & ~used
        if not free:
            return None
        low = free & -free
        vertex_map[v] = low.bit_length() - 1
        used |= low
    leaf_sets = ([nb & ~used for nb in neighborhoods]
                 + [cliques[e] & ~neighborhoods[b] for e, b in pendants])
    for v, leaf_set in enumerate(leaf_sets):
        for u in _kernels.bits(leaf_set):
            edges.append((v, len(vertex_map)))
            vertex_map.append(u)
    try:
        root = Tree(LabeledGraph(len(vertex_map), edges))
    except NotATreeError:
        return None
    return root, tuple(vertex_map)


def _is_labeled_cube(G: LabeledGraph, T: Tree, vertex_map: tuple[int, ...]) -> bool:
    """True iff ``vertex_map`` is a bijection carrying T's cube onto G edge for edge."""
    if sorted(vertex_map) != list(range(G.p)):
        return False
    cube = power(T, 3)
    if len(cube.edges) != len(G.edges):
        return False
    adj = G._adj
    return all(adj[vertex_map[u]] >> vertex_map[v] & 1 for u, v in cube.edges)


@lru_cache(maxsize=None)
def _complete_roots(p: int) -> tuple[Tree, ...]:
    """The trees of diameter at most 3 on p >= 3 vertices, in enumeration order.

    The star (b = 0), then the double stars: vertex 0 keeps p - 2 - b leaves
    and its neighbor 1 takes the last b vertices.
    """
    return tuple(
        Tree(LabeledGraph(p, [(0, v) for v in range(1, p - b)]
                          + [(1, v) for v in range(p - b, p)]))
        for b in range((p - 2) // 2 + 1))


@lru_cache(maxsize=None)
def _cubes_by_certificate(p: int) -> dict[CanonicalForm, tuple[tuple[Tree, ...], tuple[int, ...]]]:
    """Each cube certificate of order p mapped to the trees that cube to it,
    in enumeration order, and the canonical order of the first one's cube."""
    table: dict = {}
    for T in enumerate_trees(p):
        cert, order = _canonical(power(T, 3))
        trees, first_order = table.get(cert, ((), order))
        table[cert] = (trees + (T,), first_order)
    return table


def cube_root(G: LabeledGraph) -> RootResult:
    """Extract the tree root of a cube.

    Unique for connected non-complete cubes; complete graphs on at least 3
    vertices are ambiguous (the star and the double stars, built in closed
    form); everything else is not a cube. Constructive extraction places
    every root vertex on a vertex of G, and the candidate is accepted only by
    labeled recubing, exact edge equality between its cube and G on G's own
    vertices. No canonical labeling or tree enumeration is involved, so the
    call is polynomial and every answer means the same at every order.
    """
    p = G.p
    if p == 0 or not is_connected(G):
        return RootResult(RootKind.NOT_A_CUBE)
    if p <= 2:
        root = Tree(LabeledGraph(p, [(0, 1)] if p == 2 else []))
        return RootResult.unique(root, tuple(range(p)))
    if is_complete(G):
        return RootResult(RootKind.AMBIGUOUS_COMPLETE, _complete_roots(p))
    found = _constructive_root(G)
    if found is not None and _is_labeled_cube(G, *found):
        return RootResult.unique(*found)
    return RootResult(RootKind.NOT_A_CUBE)


def cube_root_oracle(G: LabeledGraph) -> RootResult:
    """Brute-force root extraction: test every tree of the same order.

    Above the enumeration cap ``enumerate_trees`` refuses a connected graph
    before any canonical labeling runs.
    """
    p = G.p
    if p == 0 or not is_connected(G):
        return RootResult(RootKind.NOT_A_CUBE)
    # the cap refuses on every call, even when the table is cached, and
    # before any labeling
    enumerate_trees(p)
    table = _cubes_by_certificate(p)
    target, order_g = _canonical(G)
    if target not in table:
        return RootResult(RootKind.NOT_A_CUBE)
    matches, order_t = table[target]
    if p >= 3 and is_complete(G):
        return RootResult(RootKind.AMBIGUOUS_COMPLETE, matches)
    # the canonical orders of the root's cube and of G carry one onto the other
    vertex_map = [0] * p
    for i, v in enumerate(order_t):
        vertex_map[v] = order_g[i]
    return RootResult.unique(matches[0], tuple(vertex_map))


def is_tree_cube(G: LabeledGraph) -> bool:
    """True iff some tree cubes to G (unique or complete-ambiguous)."""
    return cube_root(G).kind is not RootKind.NOT_A_CUBE


def tree_of_cliques(G: LabeledGraph) -> Tree:
    """The tree formed by the clique edges, isomorphic to the root's skeleton."""
    if G.p and is_complete(G):
        raise AmbiguousStructureError("complete cube: clique structure is degenerate")
    root = cube_root(G).tree
    if root is None:
        raise NotACubeError("input graph is not the cube of a tree")
    return end_deleted(root)
