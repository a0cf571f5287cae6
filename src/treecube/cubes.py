"""Clique structure of tree cubes and cube-root extraction.

A non-complete cube of a tree decomposes into maximal cliques that are the
1-spans of the internal tree edges. Root extraction inverts that structure
constructively: the separators of the clique tree, which the clique search
builds in its one pass, recover the end-deleted skeleton, its leaves, and
where every root vertex sits among G's vertices. The candidate is verified
by labeled recubing, an exact edge-set equality between the candidate's
cube and G on G's own vertices, with no isomorphism test.
A tree cube is chordal (odd powers of chordal graphs are), and the clique
search, maximum cardinality search, rejects a graph that is not chordal
before any candidate is built or recubed. A non-complete graph with no
candidate, or whose candidate fails the check, is not a cube, at every
order; the tests certify the constructive pass on every non-complete tree
cube up to the enumeration cap, and the brute-force oracle stays as the
independent reference: it compares G with the cube of every tree of its
order whose cube shares G's sorted degree sequence, the grouping that the
power-collision search uses too. Complete graphs have many roots, the star
and the double stars, which are built in closed form.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import lru_cache

from . import _kernels
from .errors import AmbiguousStructureError, NotACubeError, NotATreeError
from .graphs import (
    LabeledGraph,
    canonical_form,
    degree_sequence,
    edge_span,
    is_complete,
    is_connected,
    isomorphism,
    power,
    relabel,
)
from .trees import (
    Tree,
    end_deleted,
    enumerate_trees,
    leaves,
)


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
    """All inclusion-maximal cliques of a chordal graph, sorted by vertex tuple.

    Tree cubes are chordal. Raises ``ValueError`` on a graph that is not.
    """
    cliques = _kernels.maximal_cliques(G.p, G._adj)
    if cliques is None:
        raise ValueError("graph is not chordal")
    return [frozenset(_kernels.bits(m)) for m in cliques]


def clique_edges_of_tree(T: Tree) -> frozenset[tuple[int, int]]:
    """Tree edges with both endpoints internal; exactly the skeleton's edges."""
    leaf_set = leaves(T)
    return frozenset(e for e in T.edges if e[0] not in leaf_set and e[1] not in leaf_set)


def cliques_of_cube(T: Tree) -> dict[tuple[int, int], frozenset[int]]:
    """Each clique edge, in increasing order, mapped to its 1-span in T.

    For trees of diameter at least 4 the spans are exactly the maximal
    cliques of the cube.
    """
    return {e: edge_span(T, e, 1) for e in sorted(clique_edges_of_tree(T))}


# ── constructive root extraction ──────────────────────────────────────


def _constructive_root(G: LabeledGraph) -> tuple[Tree, tuple[int, ...]] | None:
    """Propose a root for a connected non-complete graph, or None.

    Rebuilds the end-deleted skeleton from the maximal cliques, all kept as
    vertex bitmasks. Two cliques share at least 3 vertices iff their skeleton
    edges share an endpoint x, and then they share exactly N[x], its closed
    neighborhood. A clique tree is a maximum-weight spanning tree of the
    clique intersection graph (Blair & Peyton, 1993), so the one the clique
    search builds joins the cliques of x's edge star by edges whose
    separator is N[x]: grouped by separator, its edges give the stars of
    the skeleton's internal vertices (Krausz classes) with their N[x]. That
    places every root vertex among G's vertices:

    * x is the one vertex that N[x] shares with the neighborhoods of all
      neighboring classes (N[x] & N[z] = {x, z}). With fewer than two
      neighboring classes the candidates left are twins in G, so any fixed
      choice, the lowest, is right.
    * A pendant skeleton vertex takes the lowest vertex left in its class's
      neighborhood; its leaves are its clique minus that neighborhood.
    * x's own leaves are what its neighborhood has left after that.

    The root's vertices are the classes, then the pendant skeleton vertices,
    then each skeleton vertex's leaves in turn. Returns the root with the map
    from its vertices to G's, or None. A tree cube is chordal, so the
    clique search that finds G not chordal rejects, and so does a separator
    of fewer than 3 vertices. All else is judged by the root's ``Tree``
    check and the caller's labeled recubing.
    """
    tree: list[tuple[int, int, int]] = []
    cliques = _kernels.maximal_cliques(G.p, G._adj, tree)
    if cliques is None:
        return None
    groups: dict[int, set[int]] = {}
    for child, parent, sep in tree:
        if sep.bit_count() < 3:
            return None
        groups.setdefault(sep, set()).update((child, parent))
    classes = sorted((sorted(members), sep) for sep, members in groups.items())
    cover: list[list[int]] = [[] for _ in cliques]
    for ci, (members, _) in enumerate(classes):
        for e in members:
            cover[e].append(ci)
    if any(len(c) not in (1, 2) for c in cover):
        return None

    t = len(classes)
    neighborhoods = [sep for _, sep in classes]
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
    try:
        return power(relabel(T, vertex_map), 3) == G
    except ValueError:
        return False


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
def _power_buckets(n: int, p: int) -> dict[tuple[int, ...], tuple[Tree, ...]]:
    """The trees of order p grouped by the sorted degree sequence of their
    n-th powers, each group in enumeration order. Isomorphic powers share a
    group, and no labeling runs. Callers check the enumeration cap
    themselves, as this table is cached."""
    buckets: dict = {}
    for T in enumerate_trees(p):
        buckets.setdefault(degree_sequence(power(T, n)), []).append(T)
    return {key: tuple(trees) for key, trees in buckets.items()}


def cube_root(G: LabeledGraph) -> RootResult:
    """Extract the tree root of a cube.

    Unique for connected non-complete cubes; complete graphs on at least 3
    vertices are ambiguous (the star and the double stars, built in closed
    form); everything else is not a cube. A graph that is not chordal is
    rejected by the clique search, before any recubing. Otherwise
    constructive extraction places every root vertex on a vertex of G, and
    the candidate is accepted only by labeled recubing, exact edge equality
    between its cube and G on G's own vertices. No canonical labeling or
    tree enumeration is involved, so the call is polynomial and every answer
    means the same at every order.
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

    Only the trees whose cubes share G's degree sequence can match, and each
    of those is compared with G by ``isomorphism``: a cube equal to G mask
    for mask needs no labeling, any other is compared by certificates. No
    labeling runs above the enumeration cap, where ``enumerate_trees``
    refuses, or on a graph whose degree sequence no cube of its order has.
    """
    p = G.p
    if p == 0 or not is_connected(G):
        return RootResult(RootKind.NOT_A_CUBE)
    # the cap refuses on every call, even when the buckets are cached
    enumerate_trees(p)
    matches, vertex_map = [], None
    for T in _power_buckets(3, p).get(degree_sequence(G), ()):
        phi = isomorphism(power(T, 3), G)
        if phi is not None:
            matches.append(T)
            vertex_map = vertex_map or tuple(phi[v] for v in range(p))
    if not matches:
        return RootResult(RootKind.NOT_A_CUBE)
    if p >= 3 and is_complete(G):
        return RootResult(RootKind.AMBIGUOUS_COMPLETE, tuple(matches))
    return RootResult.unique(matches[0], vertex_map)


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
