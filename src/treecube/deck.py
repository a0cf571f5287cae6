"""Decks, deck checking, and the recognize/reconstruct pipeline for tree cubes.

Cards are stored as certificates (a deck is unlabeled by definition); the
certificate encoding is invertible, so card graphs are recovered on demand.
Reconstruction selects the cards that are tree cubes, extends the roots of
every selected card by a fresh leaf in every position (the reconstruction
black box), and accepts the first candidate whose cube reproduces the full
deck. Candidates are screened first by the multiset of card edge counts,
which the deck fixes (Kelly's lemma), so a wrong candidate is rejected
before any canonical labeling.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cubes import cube_root
from .errors import GraphParseError, OrderTooSmallError
from .graphs import (
    CanonicalForm,
    LabeledGraph,
    _parse_edgelist,
    _parse_graph6,
    canonical_form,
    complete_graph,
    delete_vertex,
    power,
    serialize_graph,
    star_graph,
)
from .trees import Tree, leaf_extensions

# Largest order a deck may have, read or built. A deck holds p certificates of
# (p - 1)(p - 2) / 2 bits each, so its cost grows as p^3 while the text of an
# edgeless deck grows only as p. At this cap, on a 2-core Xeon host, an
# edgeless deck (1.3 KB) parses in 0.6 s, but a 255-vertex path card labels
# in 0.1 s, so a deck of 256 path cards (0.47 MB) takes about 26 s.
MAX_DECK_ORDER = 256


@dataclass(frozen=True)
class Deck:
    """Multiset of the p single-vertex-deleted cards of a graph on p vertices."""

    cards: tuple[CanonicalForm, ...]

    def __post_init__(self):
        object.__setattr__(self, "cards", tuple(sorted(self.cards)))
        p = len(self.cards)
        for card in self.cards:
            if card.order != p - 1:
                raise ValueError(
                    f"deck of order {p} needs cards on {p - 1} vertices, got {card.order}")

    @property
    def order(self) -> int:
        return len(self.cards)


def deck(G: LabeledGraph) -> Deck:
    """The deck of G: one certificate per vertex-deleted subgraph.

    One card is labeled per twin class: vertices with equal open or closed
    masks are swapped by an automorphism, so their cards share a certificate.
    """
    if G.p < 1:
        raise ValueError("deck requires at least one vertex")
    # refused before any card is built: parse_deck could never read it back
    if G.p > MAX_DECK_ORDER:
        raise ValueError(f"deck order {G.p} exceeds the deck limit {MAX_DECK_ORDER}")
    # a twin class's card, keyed by its open or its closed mask
    by_open: dict[int, CanonicalForm] = {}
    by_closed: dict[int, CanonicalForm] = {}
    cards = []
    for v, a in enumerate(G._adj):
        card = by_open.get(a) or by_closed.get(a | 1 << v) or canonical_form(delete_vertex(G, v))
        cards.append(card)
        by_open[a] = by_closed[a | 1 << v] = card
    return Deck(tuple(cards))


def deck_check(G: LabeledGraph, S: Deck) -> bool:
    """True iff the deck of G equals S as multisets (order mismatch is False).

    Card v of G has |E| - deg(v) edges, so the deck fixes the multiset of
    card sizes (Kelly 1957): a G whose sizes differ from S's is rejected
    with no canonical labeling, and no G with deck S can be.
    """
    m = G.size
    sizes = sorted(m - a.bit_count() for a in G._adj)
    if sizes != sorted(card.size for card in S.cards):
        return False
    return deck(G) == S


def select_cube_cards(S: Deck) -> tuple[tuple[CanonicalForm, tuple[Tree, ...]], ...]:
    """The ``(card, roots)`` pairs of the cards that are cubes of some tree,
    in card order, a repeated card once per copy.

    Unique roots carry a single candidate; complete cards carry every tree of
    diameter below 4 on the card's order.
    """
    roots = {card: cube_root(card.to_graph()).roots for card in dict.fromkeys(S.cards)}
    return tuple((card, roots[card]) for card in S.cards if roots[card])


@dataclass(frozen=True)
class ReconstructionReport:
    """Outcome of deck recognition/reconstruction, with a step trace."""

    recognized: bool
    graph: LabeledGraph | None
    tree: Tree | None
    trace: tuple[str, ...]

    def to_dict(self) -> dict:
        out: dict = {"recognized": self.recognized, "trace": list(self.trace)}
        if self.graph is not None:
            out["graph_edges"] = self.graph.edge_list()
            out["graph_certificate"] = canonical_form(self.graph).hex()
        if self.tree is not None:
            out["tree_edges"] = self.tree.edge_list()
        return out


def reconstruct(S: Deck) -> ReconstructionReport:
    """Recognize and rebuild a tree cube from its deck.

    Success means the deck belongs to the class: the rebuilt graph's own deck
    equals the input. Complete decks short-circuit to the complete graph.
    """
    p = S.order
    if p < 3:
        raise OrderTooSmallError("reconstruction needs decks of order at least 3")
    trace = []
    # p - 1 vertices carry at most (p - 1)(p - 2) / 2 edges, and only K_{p-1}
    # has that many, so the count identifies a complete card
    if all(card.size == (p - 1) * (p - 2) // 2 for card in S.cards):
        trace.append(f"all cards complete: deck determines K_{p}")
        return ReconstructionReport(True, complete_graph(p), Tree(star_graph(p)), tuple(trace))
    selected = select_cube_cards(S)
    trace.append(f"selected {len(selected)} of {p} cards as tree cubes")
    if not selected:
        trace.append("no cube cards: deck is not from a tree cube")
        return ReconstructionReport(False, None, None, tuple(trace))
    # every selected card is extended: an internal vertex's card can be a
    # tree cube too, and only the endpoint cards' roots surely extend to the
    # tree; the deck fixes its class, so the accepted labeled tree (the
    # first generated in that class) does not depend on the order tried
    roots = (root for card_roots in dict(selected).values() for root in card_roots)
    candidates = list(leaf_extensions(roots).values())
    trace.append(f"{len(candidates)} candidate trees extend the roots of the selected cards")
    for cand in candidates:
        G = power(cand, 3)
        if deck_check(G, S):
            trace.append("deck check confirmed the reconstruction")
            return ReconstructionReport(True, G, cand, tuple(trace))
    trace.append("no candidate cube reproduced the deck")
    return ReconstructionReport(False, None, None, tuple(trace))


def recognize(S: Deck) -> bool:
    """Does the deck correspond to the cube of a tree?"""
    return reconstruct(S).recognized


# ── deck files ────────────────────────────────────────────────────────


def deck_to_text(S: Deck, fmt: str = "edgelist") -> str:
    """Serialize a deck: header line, then one card per block (or per line)."""
    if fmt not in ("edgelist", "graph6"):
        raise ValueError(f"unknown format {fmt!r}")
    lines = [f"deck {S.order}"]
    for card in S.cards:
        G = card.to_graph()
        if fmt == "graph6":
            lines.append(serialize_graph(G, "graph6").strip())
        else:
            lines.append("")
            lines.append(serialize_graph(G, "edgelist").rstrip("\n"))
    return "\n".join(lines) + "\n"


def parse_deck(text: str) -> Deck:
    """Parse a deck file (edge-list blocks or one graph6 string per line)."""
    lines = text.splitlines()
    idx = 0
    while idx < len(lines) and not lines[idx].strip():
        idx += 1
    if idx == len(lines):
        raise GraphParseError("empty deck input")
    header = lines[idx].split()
    if len(header) != 2 or header[0] != "deck":
        raise GraphParseError(f"expected 'deck <order>', got {lines[idx].strip()!r}", line=idx + 1)
    try:
        p = int(header[1])
    except ValueError:
        raise GraphParseError(f"bad deck order {header[1]!r}", line=idx + 1) from None
    if p < 1:
        raise GraphParseError(f"deck order must be at least 1, got {p}", line=idx + 1)
    if p > MAX_DECK_ORDER:
        raise GraphParseError(
            f"deck order {p} exceeds the deck limit {MAX_DECK_ORDER}", line=idx + 1)
    body = lines[idx + 1:]
    first = next((ln.strip() for ln in body if ln.strip()), "")
    graph6 = not first[:1].isdigit()
    # split the body into cards before parsing any, so the count is checked
    # first: a card is one graph6 line or one blank-line-separated edge-list
    # block, kept with the deck-file number of its first line
    cards: list[tuple[int, list[str]]] = []
    fresh = True
    for no, ln in enumerate(body, start=idx + 2):
        if not ln.strip():
            fresh = True
        elif fresh or graph6:
            cards.append((no, [ln]))
            fresh = False
        else:
            cards[-1][1].append(ln)
    if len(cards) != p:
        raise GraphParseError(f"deck of order {p} needs {p} cards, found {len(cards)}")
    parse = _parse_graph6 if graph6 else _parse_edgelist
    graphs: list[LabeledGraph] = []
    for n, (no, card) in enumerate(cards, start=1):
        try:
            G = parse("\n".join(card), line=no)
        except GraphParseError as exc:
            raise GraphParseError(f"card {n}: {exc.message}", exc.line, exc.offset) from None
        # each card's order is checked as soon as it is parsed, so a bad card
        # is never held
        if G.p != p - 1:
            raise GraphParseError(f"card on {G.p} vertices in a deck of order {p}", line=no)
        graphs.append(G)
    return Deck(tuple(canonical_form(G) for G in graphs))
