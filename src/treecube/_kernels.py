"""Kernels: bounded BFS on masks, canonical labeling, maximal cliques.

Adjacency is passed as a list of integer bitmasks (``adj[v]`` has bit ``u``
set iff ``u`` and ``v`` are adjacent). All functions are deterministic and
label-independent where they claim to be. Callers look the kernels up on
this module at call time, so a tracer or a test can wrap them here.
"""

from __future__ import annotations

from typing import Iterator


def backend_name() -> str:
    """Always ``"python"``: the pure-Python kernels are the only backend."""
    return "python"


def ball(adj: list[int], reach: int, k: int) -> int:
    """The mask of vertices within distance ``k`` of the vertex mask ``reach``.

    The search stops at radius ``k``, or as soon as no new vertex is reached.
    """
    frontier = reach
    while k > 0 and frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & ~reach
        reach |= frontier
        k -= 1
    return reach


def layers(adj: list[int], reach: int) -> Iterator[int]:
    """BFS layers from the vertex mask ``reach``: the mask, then each new frontier."""
    seen = frontier = reach
    while frontier:
        yield frontier
        frontier = ball(adj, frontier, 1) & ~seen
        seen |= frontier


def all_pairs_distances(p: int, adj: list[int]) -> list[list[int]]:
    """BFS hop counts from every source; -1 marks unreachable pairs.

    Nothing in the package calls it: the benchmark tracer and the tests do.
    """
    dist = [[-1] * p for _ in range(p)]
    for s in range(p):
        row = dist[s]
        for d, layer in enumerate(layers(adj, 1 << s)):
            for v in bits(layer):
                row[v] = d
    return dist


def bits(mask: int) -> list[int]:
    """The set bits of ``mask`` in increasing order."""
    out = []
    while mask:
        v = (mask & -mask).bit_length() - 1
        mask &= mask - 1
        out.append(v)
    return out


def _refine(p: int, adj: list[int], colors: list[int]) -> tuple[list[int], list[int]]:
    # 1-D color refinement to a stable equitable partition, returned as the
    # colors and each color's cell as a vertex mask, in color order. New color
    # ids are ranks of (old color, neighbor color counts), so the result
    # depends only on the isomorphism class of the colored graph. A cell's
    # counts are one popcount per vertex. Only cells new this round are
    # counted and ranked: an older cell's counts were ranked when it was new,
    # so they are constant on every current cell and cannot change the ranks.
    last: set[int] = set()
    while True:
        cells = [0] * (max(colors) + 1)
        for v in range(p):
            cells[colors[v]] |= 1 << v
        fresh = [cell for cell in cells if cell not in last]
        last = set(cells)
        sigs = list(zip(colors, *[map(int.bit_count, map(cell.__and__, adj)) for cell in fresh]))
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = list(map(rank.__getitem__, sigs))
        if new == colors:
            return colors, cells
        colors = new


def _is_homogeneous(adj: list[int], cells: list[int]) -> bool:
    # A stable partition is homogeneous when every within-cell graph is
    # complete or empty and every cross-cell bipartite graph is complete or
    # empty; then any cell-respecting bijection is an automorphism. Cells are
    # disjoint masks, and a vertex is not its own neighbor. In an equitable
    # partition a singleton sees none or all of any cell, and a cell sees
    # none or all of a singleton, so only pairs of larger cells can fail.
    big = [cell for cell in cells if cell & (cell - 1)]
    for cell in big:
        nbrs = adj[(cell & -cell).bit_length() - 1]
        for other in big:
            cnt = (nbrs & other).bit_count()
            if cnt and cnt != other.bit_count() - (other == cell):
                return False
    return True


def _emit(p: int, adj: list[int], perm: list[int]) -> bytes:
    # Pack the upper triangle (row-major, i < j) of the relabeled adjacency
    # matrix, MSB-first.
    out = bytearray()
    acc = 0
    nbits = 0
    for i in range(p):
        ai = adj[perm[i]]
        for j in range(i + 1, p):
            acc = (acc << 1) | ((ai >> perm[j]) & 1)
            nbits += 1
            if nbits == 8:
                out.append(acc)
                acc = 0
                nbits = 0
    if nbits:
        out.append(acc << (8 - nbits))
    return bytes(out)


class _Search:
    # The first leaf (code, perm, path), the best leaf (code, perm), and the
    # automorphisms found so far as vertex maps.
    __slots__ = ("first", "first_perm", "first_path", "best", "best_perm", "autos")

    def __init__(self) -> None:
        self.first = self.first_perm = self.first_path = None
        self.best = self.best_perm = None
        self.autos: list[list[int]] = []


def _leaf(code: bytes, perm: list[int], path: list[int], st: _Search) -> int | None:
    # Record a leaf. Returns the depth to jump back to, or None.
    if st.first is None:
        st.first = st.best = code
        st.first_perm = st.best_perm = perm
        st.first_path = list(path)
        return None
    if code < st.best:
        st.best = code
        st.best_perm = perm
        return None
    if code == st.first:
        ref = st.first_perm
    elif code == st.best:
        ref = st.best_perm
    else:
        return None
    if perm == ref:
        return None
    # Equal codes: perm[i] -> ref[i] is an automorphism.
    gamma = [0] * len(perm)
    for u, w in zip(perm, ref):
        gamma[u] = w
    st.autos.append(gamma)
    if ref is not st.first_perm:
        return None
    # gamma fixes the common prefix of the two paths and sends this path's
    # next vertex onto the first path's: the rest of this branch is the image
    # of the first path's branch, which is fully searched.
    first = st.first_path
    d = 0
    while path[d] == first[d]:
        d += 1
    if gamma[path[d]] == first[d] and all(gamma[v] == v for v in path[:d]):
        return d
    return None


def _canon_search(p: int, adj: list[int], colors: list[int],
                  path: list[int], st: _Search) -> int | None:
    colors, cells = _refine(p, adj, colors)
    if len(cells) == p or _is_homogeneous(adj, cells):
        perm = [v for cell in cells for v in bits(cell)]
        return _leaf(_emit(p, adj, perm), perm, path, st)
    # Branch on the smallest non-singleton cell (ties: lowest color). A vertex
    # is skipped when an automorphism fixing the path maps an earlier vertex
    # of the cell onto it: its branch then repeats that vertex's codes.
    target = min((c for c in cells if c.bit_count() > 1), key=int.bit_count)
    fresh = len(cells)
    twins: set[int] = set()
    orbit = list(range(p))  # union-find, each root the least vertex of its orbit
    used = 0

    def find(v: int) -> int:
        while orbit[v] != v:
            orbit[v] = orbit[orbit[v]]
            v = orbit[v]
        return v

    for v in bits(target):
        # Open or closed twins are swapped by a transposition.
        nbrs = adj[v]
        closed = nbrs | 1 << v
        if nbrs in twins or closed in twins:
            continue
        twins.add(nbrs)
        twins.add(closed)
        for gamma in st.autos[used:]:
            if all(gamma[u] == u for u in path):
                for u in range(p):
                    a, b = find(u), find(gamma[u])
                    if a != b:
                        orbit[max(a, b)] = min(a, b)
        used = len(st.autos)
        if find(v) != v:
            continue
        branch = list(colors)
        branch[v] = fresh
        path.append(v)
        back = _canon_search(p, adj, branch, path, st)
        path.pop()
        if back is not None and back < len(path):
            return back
    return None


def canonical_labeling(p: int, adj: list[int]) -> tuple[bytes, list[int]]:
    """Canonical adjacency bits and a labeling realizing them.

    Returns ``(bits, perm)`` where ``perm[i]`` is the input vertex placed at
    canonical position ``i``. ``bits`` is equal for two graphs iff they are
    isomorphic; ``perm`` is one labeling achieving the minimum.

    The search skips twins in the target cell, vertices in the orbit of an
    earlier one under the automorphisms found so far that fix the path, and
    the rest of a branch whose leaf repeats the first leaf (see
    ``_canon_search``). Each skipped branch yields only codes already seen, so
    ``bits`` and ``perm`` are those of the search without pruning: the first
    leaf, in depth-first order, with the least code.
    """
    if p == 0:
        return b"", []
    st = _Search()
    _canon_search(p, adj, [0] * p, [], st)
    return st.best, st.best_perm


# the bits of each byte in reverse order: a mask's little-endian bytes
# translated through it read vertex 0 first, as the most significant bit
_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def maximal_cliques(p: int, adj: list[int], tree: list | None = None) -> list[int] | None:
    """The maximal cliques of a chordal graph as bitmasks, sorted by vertex
    tuple; None when the graph is not chordal.

    Maximum cardinality search (Tarjan & Yannakakis, 1984) visits next the
    unvisited vertex with the most visited neighbours, the lowest on ties;
    the unvisited vertices wait in buckets by that weight, each a mask. A
    clique starts at a vertex whose visited neighbours S are not the clique
    being built, and takes in each later vertex whose visited neighbours
    are exactly that clique. The graph is chordal iff every such S is one.

    A list ``tree`` receives the clique tree (Blair & Peyton, 1993), one per
    component, as ``(child, parent, S)`` for each clique that starts with
    S != {}: its parent is the clique that S's latest visited vertex
    joined, and S is their intersection.
    """
    buckets = [0] * (p + 1)
    buckets[0] = (1 << p) - 1
    top = seen = 0
    out: list[int] = []  # the cliques in the order they start
    links = []  # (clique, parent, separator) in the same indices
    k = -1  # the clique being built
    owner = [0] * p  # the clique each visited vertex joined, rising with the visits
    for _ in range(p):
        while not buckets[top]:
            top -= 1
        mask = buckets[top]
        low = mask & -mask
        buckets[top] = mask ^ low
        v = low.bit_length() - 1
        nbrs = adj[v]
        before = nbrs & seen
        if k < 0 or before != out[k]:
            # ``before`` is a clique when every member sees all the others;
            # its latest visited member joined the highest clique
            parent = -1
            check = before
            while check:
                b = check & -check
                u = b.bit_length() - 1
                if before & ~adj[u] != b:
                    return None
                if owner[u] > parent:
                    parent = owner[u]
                check ^= b
            k += 1
            out.append(before)
            if before:
                links.append((k, parent, before))
        out[k] |= low
        owner[v] = k
        seen |= low
        # each unvisited neighbour moves up one bucket; they all sit at or
        # below the top, and the top rises by at most one
        nbrs &= ~seen
        w = top
        while nbrs:
            moved = buckets[w] & nbrs
            if moved:
                buckets[w] ^= moved
                buckets[w + 1] |= moved
                nbrs ^= moved
            w -= 1
        if buckets[top + 1]:
            top += 1
    # in a family where no mask holds another, descending bit-reversed bytes
    # are ascending vertex tuples
    width = (p + 7) // 8
    keys = [m.to_bytes(width, "little").translate(_REVERSED) for m in out]
    order = sorted(range(len(out)), key=keys.__getitem__, reverse=True)
    if tree is not None:
        rank = sorted(range(len(out)), key=order.__getitem__)
        tree.extend((rank[c], rank[parent], sep) for c, parent, sep in links)
    return [out[c] for c in order]
