import pytest

from helpers import CORPUS
from treecube import _kernels
from treecube.cubes import is_tree_cube
from treecube.deck import (
    Deck,
    deck,
    deck_check,
    deck_to_text,
    parse_deck,
    recognize,
    reconstruct,
    select_cube_cards,
)
from treecube.errors import GraphParseError, OrderTooSmallError
from treecube.graphs import (
    LabeledGraph,
    canonical_form,
    complete_graph,
    cycle_graph,
    delete_vertex,
    is_complete,
    is_isomorphic,
    path_graph,
    power,
    star_graph,
)
from treecube.trees import Tree, enumerate_trees, leaves


def cube_of_path(p):
    return power(path_graph(p), 3)


def test_deck_examples():
    d = deck(complete_graph(3))
    assert d.order == 3
    assert all(card.to_graph() == LabeledGraph(2, [(0, 1)]) for card in d.cards)

    d = deck(path_graph(3))
    kinds = sorted(len(card.to_graph().edges) for card in d.cards)
    assert kinds == [0, 1, 1]  # two P2 cards and one edgeless pair

    d = deck(LabeledGraph(1))
    assert d.order == 1 and d.cards[0].order == 0


def test_deck_validation():
    with pytest.raises(ValueError):
        deck(LabeledGraph(0))
    with pytest.raises(ValueError):
        Deck((canonical_form(path_graph(3)),))  # card order mismatch


def test_deck_refuses_an_order_that_parse_deck_would_refuse(monkeypatch):
    # a deck above the cap could never be read back, so none is built
    from treecube.deck import MAX_DECK_ORDER

    def refuse(*args):
        raise AssertionError("a canonical labeling was run")

    monkeypatch.setattr(_kernels, "canonical_labeling", refuse)
    with pytest.raises(ValueError, match=f"exceeds the deck limit {MAX_DECK_ORDER}"):
        deck(path_graph(MAX_DECK_ORDER + 1))


def test_deck_check_examples():
    assert deck_check(complete_graph(3), deck(complete_graph(3)))
    assert not deck_check(path_graph(3), deck(complete_graph(3)))
    G = cube_of_path(5)
    assert deck_check(G, deck(G))
    assert not deck_check(path_graph(4), deck(G))  # order mismatch is False


def test_card_size_is_the_edge_count_of_the_card():
    graphs = [LabeledGraph(p, edges) for p, edges in CORPUS if p >= 1]
    graphs += [LabeledGraph(1), LabeledGraph(6)]
    for G in graphs:
        assert canonical_form(G).size == len(G.edges)
        for card in deck(G).cards:
            assert card.size == len(card.to_graph().edges)


def test_deck_check_rejects_by_card_sizes_without_labeling(monkeypatch):
    S = deck(star_graph(6))
    K6 = deck(complete_graph(6))

    def refuse(*args):
        raise AssertionError("a canonical labeling was run")

    monkeypatch.setattr(_kernels, "canonical_labeling", refuse)
    # P6 and the 6-star both have 5 edges, but their card sizes differ
    assert not deck_check(path_graph(6), S)
    report = reconstruct(K6)
    assert report.recognized and report.graph == complete_graph(6)


def test_deck_check_prefilter_only_filters():
    # every card of C6 (a P5) and of 2K3 (a K3 beside a K2) has 4 edges, yet
    # the decks differ: equal sizes must fall through to the full comparison
    C6 = cycle_graph(6)
    S = deck(LabeledGraph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]))
    assert [c.size for c in deck(C6).cards] == [c.size for c in S.cards] == [4] * 6
    assert deck(C6) != S and not deck_check(C6, S)
    cubes = [power(T, 3) for p in range(1, 9) for T in enumerate_trees(p)]
    decks = [deck(G) for G in cubes]
    for G, D in zip(cubes, decks):
        for H, S in zip(cubes, decks):
            if G.p == H.p:
                assert deck_check(G, S) == (D == S)


def test_select_cube_cards_examples():
    sel = select_cube_cards(deck(cube_of_path(5)))
    assert len(sel) == 2
    for card, roots in sel:
        card_graph = card.to_graph()
        assert is_complete(card_graph) and card_graph.p == 4
        assert len(roots) == 2  # complete K4 card: P4 and the star

    sel = select_cube_cards(deck(complete_graph(4)))
    assert len(sel) == 4  # a repeated card counts once per copy
    assert [card for card, _ in sel] == list(deck(complete_graph(4)).cards)

    sel = select_cube_cards(deck(cycle_graph(6)))
    assert len(sel) == 0


def test_internal_cards_of_path_cube_are_rejected():
    # K4 minus an edge is not the cube of any 4-vertex tree
    G = cube_of_path(5)
    internal_card = delete_vertex(G, 2)
    assert not is_complete(internal_card)
    assert not is_tree_cube(internal_card)


def test_reconstruct_examples():
    G = cube_of_path(6)
    report = reconstruct(deck(G))
    assert report.recognized and is_isomorphic(report.graph, G)
    assert is_isomorphic(power(report.tree, 3), G)
    assert deck_check(report.graph, deck(G))

    report = reconstruct(deck(complete_graph(5)))
    assert report.recognized and report.graph == complete_graph(5)

    report = reconstruct(deck(cycle_graph(6)))
    assert not report.recognized and report.graph is None


def test_reconstruct_uses_complete_card_roots_above_the_cap():
    # a star on 0 with the path 0-12-13-14: deleting 14 leaves K14, whose
    # roots (the star and six double stars) are fed to reconstruction even
    # though 14 exceeds the default enumeration cap
    T = Tree(LabeledGraph(15, [(0, v) for v in range(1, 13)] + [(12, 13), (13, 14)]))
    G = power(T, 3)
    assert not is_complete(G) and is_complete(delete_vertex(G, 14))
    k14 = canonical_form(complete_graph(14))
    complete_cards = [roots for card, roots in select_cube_cards(deck(G)) if card == k14]
    assert len(complete_cards) == 1 and len(complete_cards[0]) == 7
    report = reconstruct(deck(G))
    assert report.recognized and is_isomorphic(report.graph, G)


def test_reconstruct_order_too_small():
    with pytest.raises(OrderTooSmallError):
        reconstruct(deck(LabeledGraph(2, [(0, 1)])))


def test_reconstruct_is_deterministic():
    G = cube_of_path(7)
    a = reconstruct(deck(G))
    b = reconstruct(deck(G))
    assert canonical_form(a.graph) == canonical_form(b.graph)
    assert a.tree.edge_list() == b.tree.edge_list()
    assert a.trace == b.trace


def test_recognize_examples():
    for p in range(3, 8):
        for T in enumerate_trees(p):
            assert recognize(deck(power(T, 3)))
    assert not recognize(deck(cycle_graph(6)))
    assert recognize(deck(complete_graph(4)))  # K4 is the cube of the 4-star


def _internal_cube_cards(T):
    """Internal vertices of T whose cards of T's cube are themselves tree cubes."""
    G = power(T, 3)
    leaf_set = leaves(T)
    return [v for v in range(T.p) if v not in leaf_set and is_tree_cube(delete_vertex(G, v))]


def test_spurious_internal_cube_cards_are_harmless():
    # Cube of the spider with legs 2, 2, 1 is K6 minus an edge; all three
    # internal cards are K5 minus an edge, the cube of P5. The selection is
    # therefore strictly larger than the endpoint card multiset, yet the
    # deck-verified pipeline still reconstructs the right graph.
    T = Tree(LabeledGraph(6, [(0, 1), (0, 2), (0, 5), (1, 3), (2, 4)]))
    G = power(T, 3)
    assert not is_complete(G)
    assert _internal_cube_cards(T) == [0, 1, 2]
    sel = select_cube_cards(deck(G))
    assert len(sel) == 6 and len(leaves(T)) == 3
    report = reconstruct(deck(G))
    assert report.recognized and is_isomorphic(report.graph, G)


def test_endpoint_precision_counterexamples_catalog():
    # up to order 6, that spider is the only tree with a non-complete cube
    # and an internal card that is a tree cube
    hits = []
    for p in range(3, 7):
        for T in enumerate_trees(p):
            cards = [] if is_complete(power(T, 3)) else _internal_cube_cards(T)
            if cards:
                hits.append((T.edge_list(), cards))
    assert hits == [([(0, 1), (0, 2), (0, 5), (1, 3), (2, 4)], [0, 1, 2])]


def test_deck_file_round_trip_edgelist_and_graph6():
    d = deck(cube_of_path(6))
    assert parse_deck(deck_to_text(d)) == d
    assert parse_deck(deck_to_text(d, fmt="graph6")) == d


def test_deck_to_text_rejects_an_unknown_format():
    # as serialize_graph does, rather than writing edge lists under a wrong name
    d = deck(cube_of_path(6))
    for fmt in ("g6", "GRAPH6", ""):
        with pytest.raises(ValueError, match="unknown format"):
            deck_to_text(d, fmt=fmt)
    with pytest.raises(ValueError, match="unknown format"):
        deck_to_text(Deck(()), fmt="g6")


def test_parse_deck_errors():
    with pytest.raises(GraphParseError):
        parse_deck("")
    with pytest.raises(GraphParseError):
        parse_deck("deck x\n")
    with pytest.raises(GraphParseError):
        parse_deck("cards 3\n")
    with pytest.raises(GraphParseError):
        parse_deck("deck 3\n\n2\n0 1\n")  # wrong card count
    text = deck_to_text(deck(complete_graph(4)))
    with pytest.raises(GraphParseError):
        parse_deck(text.replace("deck 4", "deck 5"))


def test_parse_deck_rejects_an_order_below_one_at_its_header():
    # an empty deck would otherwise parse, and a negative order fail late
    for text, order, line in (("deck -2\n", -2, 1), ("\ndeck 0\n\n1\n", 0, 2)):
        with pytest.raises(GraphParseError) as info:
            parse_deck(text)
        assert info.value.message == f"deck order must be at least 1, got {order}"
        assert info.value.line == line


def test_parse_deck_errors_name_the_deck_file_line():
    with pytest.raises(GraphParseError) as info:
        parse_deck("deck 4\nBw\nBw\nB!\nBw\n")
    assert (info.value.line, info.value.offset) == (4, 1)
    assert str(info.value).startswith("card 3: ")
    with pytest.raises(GraphParseError) as info:
        parse_deck("deck 4\n\n3\n0 1\n\n3\n0 1\n\n3\n0 5\n\n3\n0 1\n")
    assert info.value.line == 10
    assert str(info.value).startswith("card 3: ")


def test_parse_deck_checks_each_card_order_when_parsed():
    # the first card's order error wins over a later card's parse error,
    # so a deck of oversized cards holds at most one of them
    with pytest.raises(GraphParseError) as info:
        parse_deck("deck 3\n\n5\n\nx y\n\n2\n0 1\n")
    assert info.value.message == "card on 5 vertices in a deck of order 3"
    assert info.value.line == 3
    # with a block too few, the count fails before any card is read
    with pytest.raises(GraphParseError) as info:
        parse_deck("deck 3\n\n5\n\nx y\n")
    assert info.value.message == "deck of order 3 needs 3 cards, found 2"


def counting_card_parses(monkeypatch) -> list:
    """Record every call of the deck module's two card parsers."""
    import sys
    deck_module = sys.modules["treecube.deck"]
    parsed = []
    for name in ("_parse_edgelist", "_parse_graph6"):
        real = getattr(deck_module, name)

        def counting(*args, real=real, **kwargs):
            parsed.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(deck_module, name, counting)
    return parsed


def test_parse_deck_counts_cards_before_parsing_any(monkeypatch):
    # a short header that declares more cards than it has must not get its
    # cards built
    parsed = counting_card_parses(monkeypatch)
    with pytest.raises(GraphParseError) as info:
        parse_deck("deck 256\n" + "\n255\n" * 12)
    assert info.value.message == "deck of order 256 needs 256 cards, found 12"
    assert parsed == []
    with pytest.raises(GraphParseError) as info:
        parse_deck("deck 4\nBw\nB!\nBw\n")
    assert info.value.message == "deck of order 4 needs 4 cards, found 3"
    assert parsed == []


def test_parse_deck_caps_the_order_at_its_header(monkeypatch):
    # a deck costs cubic time and memory in its order, so an order above the
    # cap fails on the header line before any card is parsed
    from treecube.deck import MAX_DECK_ORDER

    def edgeless_deck(p: int, cards: int) -> str:
        return f"deck {p}\n" + f"\n{p - 1}\n" * cards

    parsed = counting_card_parses(monkeypatch)
    for p, cards in ((MAX_DECK_ORDER + 1, MAX_DECK_ORDER + 1), (1048577, 12)):
        with pytest.raises(GraphParseError) as info:
            parse_deck(edgeless_deck(p, cards))
        assert info.value.message == f"deck order {p} exceeds the deck limit {MAX_DECK_ORDER}"
        assert info.value.line == 1
    assert parsed == []
    assert parse_deck(edgeless_deck(MAX_DECK_ORDER, MAX_DECK_ORDER)).order == MAX_DECK_ORDER
    assert len(parsed) == MAX_DECK_ORDER


def test_parse_deck_mixed_blank_lines():
    d = deck(complete_graph(4))
    text = "\n\ndeck 4\n\n\n" + "\n\n".join("3\n0 1\n0 2\n1 2" for _ in range(4)) + "\n\n"
    assert parse_deck(text) == d
