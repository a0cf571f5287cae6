"""Simple undirected graphs: parsing, vertex deletion, powers, distances, certificates.

Vertices are dense integers ``0..p-1``. A graph is its adjacency masks and
nothing else: ``size``, ``edges`` and ``edge_list`` are read off them on each
call. ``LabeledGraph(p, edges)`` checks hand-built edge lists; the parsers,
``relabel``, certificates, powers and deletions build masks directly. Values are
immutable after construction and safe to share across workers; every operation
here is a pure function.
"""

from __future__ import annotations

from typing import Iterable

from . import _kernels
from .errors import DisconnectedError, GraphParseError

Edge = tuple[int, int]


class LabeledGraph:
    """Simple undirected graph on 0..p-1: bit v of ``_adj[u]`` is set iff u, v are adjacent."""

    __slots__ = ("p", "_adj")

    def __init__(self, p: int, edges: Iterable[Iterable[int]] = ()):
        if p < 0:
            raise ValueError("vertex count must be non-negative")
        adj = [0] * p
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < p and 0 <= v < p):
                raise ValueError(f"edge ({u}, {v}) out of range for p={p}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.p, self._adj = p, adj

    @property
    def edges(self) -> frozenset[Edge]:
        """The edges as pairs ``(u, v)`` with ``u < v``."""
        return frozenset(self.edge_list())

    @property
    def size(self) -> int:
        """Edge count: half the degree sum."""
        return sum(map(int.bit_count, self._adj)) >> 1

    def neighbors(self, v: int) -> tuple[int, ...]:
        self._check_vertex(v)
        return tuple(_kernels.bits(self._adj[v]))

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self._adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self._adj[u] >> v & 1)

    def edge_list(self) -> list[Edge]:
        """The edges in increasing order: each once, from its lower end."""
        return [(u, v) for u, a in enumerate(self._adj) for v in _kernels.bits(a & -(2 << u))]

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.p):
            raise ValueError(f"vertex {v} out of range for p={self.p}")

    def _check_edge(self, e: Iterable[int]) -> Edge:
        u, v = sorted(e)
        if not (0 <= u and v < self.p and self._adj[u] >> v & 1):
            raise ValueError(f"edge {(u, v)} not present in the graph")
        return u, v

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabeledGraph):
            return NotImplemented
        return self._adj == other._adj

    def __hash__(self) -> int:
        return hash(tuple(self._adj))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(p={self.p}, edges={self.edge_list()})"


class CanonicalForm(bytes):
    """Byte certificate identifying an isomorphism class.

    Equal certificates iff isomorphic graphs; stable across runs and
    platforms. A certificate is its bytes, a 4-byte big-endian vertex count
    then the canonical adjacency bits, so it sorts, hashes and compares as a
    byte string. The encoding is invertible, see :meth:`to_graph`.
    """

    __slots__ = ()

    @property
    def order(self) -> int:
        return int.from_bytes(self[:4], "big")

    @property
    def size(self) -> int:
        """Edge count of the class: the set adjacency bits (padding is zero)."""
        return int.from_bytes(self[4:], "big").bit_count()

    def to_graph(self) -> LabeledGraph:
        """Decode the canonical representative of this isomorphism class."""
        p = self.order
        bits = self[4:]
        adj = [0] * p
        k = 0
        for i in range(p):
            for j in range(i + 1, p):
                if bits[k >> 3] >> (7 - (k & 7)) & 1:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
                k += 1
        return _from_masks(adj)


# ── construction helpers ──────────────────────────────────────────────


def path_graph(p: int) -> LabeledGraph:
    return LabeledGraph(p, [(i, i + 1) for i in range(p - 1)])


def cycle_graph(p: int) -> LabeledGraph:
    if p < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return LabeledGraph(p, [(i, (i + 1) % p) for i in range(p)])


def complete_graph(p: int) -> LabeledGraph:
    return LabeledGraph(p, [(i, j) for i in range(p) for j in range(i + 1, p)])


def star_graph(p: int) -> LabeledGraph:
    """Star on p vertices: center 0 joined to 1..p-1."""
    return LabeledGraph(p, [(0, i) for i in range(1, p)])


def complete_bipartite_graph(a: int, b: int) -> LabeledGraph:
    return LabeledGraph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def relabel(G: LabeledGraph, perm: Iterable[int]) -> LabeledGraph:
    """Apply a vertex permutation: vertex v becomes perm[v]."""
    perm = list(perm)
    if sorted(perm) != list(range(G.p)):
        raise ValueError("perm must be a permutation of 0..p-1")
    adj = [0] * G.p
    for u, a in enumerate(G._adj):
        adj[perm[u]] = sum(1 << perm[v] for v in _kernels.bits(a))
    return _from_masks(adj)


def _from_masks(adj: list[int]) -> LabeledGraph:
    """The graph of symmetric loop-free adjacency masks, built without edge checks."""
    G = LabeledGraph.__new__(LabeledGraph)
    G.p, G._adj = len(adj), adj
    return G


def delete_vertex(G: LabeledGraph, v: int) -> LabeledGraph:
    """Vertex-deleted subgraph, densely relabeled: bits above v move down one."""
    G._check_vertex(v)
    low = (1 << v) - 1
    return _from_masks([a & low | a >> 1 & ~low for a in G._adj[:v] + G._adj[v + 1:]])


def delete_vertices(G: LabeledGraph, vs: Iterable[int]) -> LabeledGraph:
    """Subgraph without the vertices ``vs``, densely relabeled (order-preserving).

    A shift per dropped vertex would be quadratic on large sparse graphs, so
    each run of kept vertices moves at once.
    """
    drop = sorted(set(vs))
    for v in drop:
        G._check_vertex(v)
    keep = (1 << G.p) - 1 - sum(1 << v for v in drop)
    # the run after the i-th dropped vertex moves down by i; a row pays one step per run it meets
    run: list[tuple[int, int] | None] = [None] * G.p
    for i, (lo, hi) in enumerate(zip([-1, *drop], [*drop, G.p])):
        run[lo + 1:hi] = [((1 << hi) - (1 << lo + 1), i)] * (hi - lo - 1)
    masks = []
    for a, r in zip(G._adj, run):
        if r is not None:
            a, out = a & keep, 0
            while a:
                m, i = run[(a & -a).bit_length() - 1]
                out |= (a & m) >> i
                a &= ~m
            masks.append(out)
    return _from_masks(masks)


# ── distances, powers, spans ──────────────────────────────────────────


def is_connected(G: LabeledGraph) -> bool:
    if G.p <= 1:
        return True
    # fewer than p - 1 edges cannot connect p vertices
    if G.size < G.p - 1:
        return False
    return _kernels.ball(G._adj, 1, G.p) == (1 << G.p) - 1


def power(G: LabeledGraph, k: int) -> LabeledGraph:
    """k-th power: joins distinct vertices at distance between 1 and k."""
    if k < 1:
        raise ValueError("power index must be at least 1")
    # every closed ball at once: a pass takes each ball to its union with
    # the neighbours' balls, one more hop, and stops when none grows
    adj = G._adj
    balls = [a | 1 << u for u, a in enumerate(adj)]
    for _ in range(k - 1):
        grown = []
        for b, a in zip(balls, adj):
            while a:
                low = a & -a
                b |= balls[low.bit_length() - 1]
                a ^= low
            grown.append(b)
        if grown == balls:
            break
        balls = grown
    return _from_masks([b ^ 1 << u for u, b in enumerate(balls)])


def is_complete(G: LabeledGraph) -> bool:
    return G.size == G.p * (G.p - 1) // 2


def degree_sequence(G: LabeledGraph) -> tuple[int, ...]:
    """The sorted vertex degrees, equal on isomorphic graphs."""
    return tuple(sorted(map(int.bit_count, G._adj)))


def eccentricity(G: LabeledGraph, v: int) -> int:
    """Maximum distance from v; requires a connected graph."""
    G._check_vertex(v)
    seen = 0
    for d, layer in enumerate(_kernels.layers(G._adj, 1 << v)):
        seen |= layer
    if seen != (1 << G.p) - 1:
        raise DisconnectedError("eccentricity is undefined on a disconnected graph")
    return d


def peripheral_vertices(G: LabeledGraph) -> frozenset[int]:
    """Vertices attaining the maximum eccentricity."""
    if G.p == 0:
        raise ValueError("peripheral vertices are undefined on the empty graph")
    ecc = [eccentricity(G, v) for v in range(G.p)]
    top = max(ecc)
    return frozenset(v for v in range(G.p) if ecc[v] == top)


def diameter(G: LabeledGraph) -> int:
    if G.p == 0:
        raise ValueError("diameter is undefined on the empty graph")
    return max(eccentricity(G, v) for v in range(G.p))


def edge_span(G: LabeledGraph, e: Iterable[int], k: int) -> frozenset[int]:
    """Vertices at distance at most k from either end of the edge."""
    u, v = G._check_edge(e)
    if k < 0:
        raise ValueError("span radius must be non-negative")
    return frozenset(_kernels.bits(_kernels.ball(G._adj, 1 << u | 1 << v, k)))


# ── isomorphism certificates ──────────────────────────────────────────


def _canonical(G: LabeledGraph) -> tuple[CanonicalForm, tuple[int, ...]]:
    """One canonical labeling: the certificate and the order realizing it."""
    bits, perm = _kernels.canonical_labeling(G.p, G._adj)
    return CanonicalForm(G.p.to_bytes(4, "big") + bits), tuple(perm)


def canonical_form(G: LabeledGraph) -> CanonicalForm:
    """Certificate equal across relabelings, distinct across classes."""
    return _canonical(G)[0]


def is_isomorphic(G: LabeledGraph, H: LabeledGraph) -> bool:
    """Equal labeled graphs answer without a canonical labeling."""
    return isomorphism(G, H) is not None


def isomorphism(G: LabeledGraph, H: LabeledGraph) -> dict[int, int] | None:
    """An explicit edge-preserving bijection G -> H, or None."""
    if G.p != H.p or G.size != H.size:
        return None
    if G._adj == H._adj:
        return {v: v for v in range(G.p)}
    (cert_g, pg), (cert_h, ph) = _canonical(G), _canonical(H)
    if cert_g != cert_h:
        return None
    return {pg[i]: ph[i] for i in range(G.p)}


# ── text formats ──────────────────────────────────────────────────────

# Largest vertex count an edge-list header may declare. The graph allocates
# per-vertex state before any edge is read, so an unbounded header would let a
# few bytes of input demand gigabytes. (graph6 needs no cap: its payload length
# already ties the order to the input size.)
MAX_EDGELIST_ORDER = 1 << 20


def to_edgelist(G: LabeledGraph) -> str:
    """Native format: vertex count line, then one "u v" line per edge."""
    lines = [str(G.p)]
    lines.extend(f"{u} {v}" for u, v in G.edge_list())
    return "\n".join(lines) + "\n"


def _parse_edgelist(text: str, line: int = 1) -> LabeledGraph:
    # ``line`` is the number of the text's first line, for error messages
    lines = text.splitlines()
    header = None
    header_no = 0
    for no, raw in enumerate(lines, start=line):
        if raw.strip():
            header = raw.strip()
            header_no = no
            break
    if header is None:
        raise GraphParseError("empty input")
    try:
        p = int(header)
    except ValueError:
        raise GraphParseError(f"expected vertex count, got {header!r}", line=header_no) from None
    if p < 0:
        raise GraphParseError("vertex count must be non-negative", line=header_no)
    if p > MAX_EDGELIST_ORDER:
        raise GraphParseError(
            f"vertex count {p} exceeds the edge-list limit {MAX_EDGELIST_ORDER}", line=header_no)
    adj = [0] * p
    for no, raw in enumerate(lines[header_no - line + 1:], start=header_no + 1):
        stripped = raw.strip()
        if not stripped:
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise GraphParseError(f"expected 'u v', got {stripped!r}", line=no)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(f"non-integer endpoint in {stripped!r}", line=no) from None
        if u == v:
            raise GraphParseError(f"self-loop at vertex {u}", line=no)
        if not (0 <= u < p and 0 <= v < p):
            raise GraphParseError(f"edge ({u}, {v}) out of range for p={p}", line=no)
        if adj[u] >> v & 1:
            raise GraphParseError(f"duplicate edge ({u}, {v})", line=no)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return _from_masks(adj)


def to_graph6(G: LabeledGraph) -> str:
    """Encode in the standard graph6 byte format."""
    n = G.p
    if n <= 62:
        head = [n]
    elif n <= 258047:
        head = [63, n >> 12 & 63, n >> 6 & 63, n & 63]
    else:
        head = [63, 63] + [n >> (6 * i) & 63 for i in range(5, -1, -1)]
    bits = []
    for j in range(1, n):
        aj = G._adj[j]
        for i in range(j):
            bits.append(aj >> i & 1)
    while len(bits) % 6:
        bits.append(0)
    groups = [int("".join(map(str, bits[i:i + 6])), 2) for i in range(0, len(bits), 6)]
    return "".join(chr(63 + x) for x in head + groups)


def _parse_graph6(text: str, line: int = 1) -> LabeledGraph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise GraphParseError("empty graph6 string", line=line)
    data = []
    for off, ch in enumerate(s):
        x = ord(ch) - 63
        if not (0 <= x <= 63):
            raise GraphParseError(f"invalid graph6 character {ch!r}", line=line, offset=off)
        data.append(x)
    if data[0] < 63:
        n, idx = data[0], 1
    elif len(data) >= 2 and data[1] < 63:
        if len(data) < 4:
            raise GraphParseError("truncated graph6 size field", line=line)
        n, idx = (data[1] << 12) | (data[2] << 6) | data[3], 4
    else:
        if len(data) < 8:
            raise GraphParseError("truncated graph6 size field", line=line)
        n = 0
        for x in data[2:8]:
            n = n << 6 | x
        idx = 8
    nbits = n * (n - 1) // 2
    if len(data) - idx != (nbits + 5) // 6:
        raise GraphParseError(
            f"graph6 payload length {len(data) - idx} does not match order {n}", line=line)
    adj = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if data[idx + k // 6] >> (5 - k % 6) & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            k += 1
    return _from_masks(adj)


def parse_graph(text: str, fmt: str | None = None) -> LabeledGraph:
    """Parse a graph from edge-list or graph6 text.

    With ``fmt=None`` the format is detected: edge-list input starts with a
    digit (the vertex count), anything else is treated as graph6.
    """
    if fmt not in (None, "edgelist", "graph6"):
        raise ValueError(f"unknown format {fmt!r}")
    if not text.strip():
        raise GraphParseError("empty input")
    if fmt is None:
        stripped = text.lstrip()
        fmt = "edgelist" if stripped[:1].isdigit() else "graph6"
    if fmt == "edgelist":
        return _parse_edgelist(text)
    return _parse_graph6(text)


def serialize_graph(G: LabeledGraph, fmt: str = "edgelist") -> str:
    if fmt == "edgelist":
        return to_edgelist(G)
    if fmt == "graph6":
        return to_graph6(G) + "\n"
    raise ValueError(f"unknown format {fmt!r}")
