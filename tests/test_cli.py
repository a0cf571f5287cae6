import json

from treecube.cli import main
from treecube.deck import deck, deck_to_text
from treecube.graphs import (
    complete_graph,
    cycle_graph,
    parse_graph,
    path_graph,
    power,
    serialize_graph,
    to_graph6,
)


def write_graph(tmp_path, name, G, fmt="edgelist"):
    path = tmp_path / name
    path.write_text(serialize_graph(G, fmt))
    return str(path)


def test_power_writes_cube(tmp_path, capsys):
    src = write_graph(tmp_path, "p4.txt", path_graph(4))
    out = tmp_path / "out.txt"
    assert main(["power", src, "-k", "3", "-o", str(out)]) == 0
    assert parse_graph(out.read_text()) == complete_graph(4)


def test_power_k5_minus_edge(tmp_path, capsys):
    src = write_graph(tmp_path, "p5.txt", path_graph(5))
    assert main(["power", src, "-k", "3"]) == 0
    got = parse_graph(capsys.readouterr().out)
    assert got == power(path_graph(5), 3)


def test_power_identity(tmp_path, capsys):
    G = cycle_graph(5)
    src = write_graph(tmp_path, "c5.txt", G)
    assert main(["power", src, "-k", "1"]) == 0
    assert parse_graph(capsys.readouterr().out) == G


def test_power_graph6_format(tmp_path, capsys):
    src = write_graph(tmp_path, "p4.g6", path_graph(4), fmt="graph6")
    assert main(["power", src, "-k", "3", "--format", "graph6"]) == 0
    assert capsys.readouterr().out.strip() == to_graph6(complete_graph(4))


def test_root_unique(tmp_path, capsys):
    src = write_graph(tmp_path, "g.txt", power(path_graph(5), 3))
    report = tmp_path / "r.json"
    assert main(["root", src, "--json", str(report)]) == 0
    assert "unique root" in capsys.readouterr().out
    payload = json.loads(report.read_text())
    assert payload["kind"] == "unique" and payload["root_certificate"]


def test_root_without_json_runs_no_canonical_labeling(tmp_path, capsys, monkeypatch):
    # the root certificate is a canonical labeling, which the unpruned search
    # makes slow on symmetric roots; only --json may ask for it
    import random
    from treecube import _kernels
    from treecube.graphs import LabeledGraph, relabel

    def refuse(*args):
        raise AssertionError("root ran a canonical labeling without --json")

    legs = [(0, 1 + 3 * i) for i in range(8)]
    legs += [(1 + 3 * i + j, 2 + 3 * i + j) for i in range(8) for j in range(2)]
    perm = list(range(25))
    random.Random(5).shuffle(perm)
    src = write_graph(tmp_path, "spider.txt", relabel(power(LabeledGraph(25, legs), 3), perm))
    monkeypatch.setattr(_kernels, "canonical_labeling", refuse)
    assert main(["root", src]) == 0
    assert "unique root" in capsys.readouterr().out


def test_root_ambiguous_and_not_a_cube(tmp_path, capsys, monkeypatch):
    src = write_graph(tmp_path, "k4.txt", complete_graph(4))
    assert main(["root", src]) == 0
    assert "ambiguous" in capsys.readouterr().out
    # above the default enumeration cap every root is still listed
    monkeypatch.delenv("TREECUBE_MAX_ORDER", raising=False)
    src = write_graph(tmp_path, "k13.txt", complete_graph(13))
    assert main(["root", src]) == 0
    out = capsys.readouterr().out
    assert "(6 trees of diameter < 4)" in out and out.count("edges:") == 6
    src = write_graph(tmp_path, "c6.txt", cycle_graph(6))
    assert main(["root", src]) == 1
    assert "not the cube" in capsys.readouterr().out


def test_deck_then_reconstruct_round_trip(tmp_path, capsys):
    G = power(path_graph(6), 3)
    src = write_graph(tmp_path, "g.txt", G)
    deck_file = tmp_path / "deck.txt"
    assert main(["deck", src, "-o", str(deck_file)]) == 0
    report = tmp_path / "rec.json"
    out_graph = tmp_path / "rec.txt"
    assert main(["reconstruct", str(deck_file), "--json", str(report),
                 "-o", str(out_graph)]) == 0
    capsys.readouterr()
    payload = json.loads(report.read_text())
    assert payload["recognized"] is True
    from treecube.graphs import is_isomorphic
    assert is_isomorphic(parse_graph(out_graph.read_text()), G)


def test_deck_and_reconstruct_on_symmetric_cube(tmp_path, capsys):
    # one canonical labeling per card: the cube of the depth-4 complete binary
    # tree is symmetric enough to stall a search without automorphism pruning
    from treecube.graphs import LabeledGraph, is_isomorphic
    G = power(LabeledGraph(31, [((v - 1) // 2, v) for v in range(1, 31)]), 3)
    src = write_graph(tmp_path, "g.txt", G)
    deck_file = tmp_path / "deck.txt"
    assert main(["deck", src, "-o", str(deck_file)]) == 0
    out_graph = tmp_path / "rec.txt"
    assert main(["reconstruct", str(deck_file), "-o", str(out_graph)]) == 0
    assert "recognized: reconstruction is unique" in capsys.readouterr().out
    assert is_isomorphic(parse_graph(out_graph.read_text()), G)


def test_reconstruct_rejects_non_cube_deck(tmp_path, capsys):
    deck_file = tmp_path / "deck.txt"
    deck_file.write_text(deck_to_text(deck(cycle_graph(6))))
    assert main(["reconstruct", str(deck_file)]) == 1
    assert "not recognized" in capsys.readouterr().out


def test_recognize_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.txt"
    good.write_text(deck_to_text(deck(power(path_graph(5), 3))))
    assert main(["recognize", str(good)]) == 0
    assert capsys.readouterr().out.strip() == "true"
    bad = tmp_path / "bad.txt"
    bad.write_text(deck_to_text(deck(cycle_graph(6))))
    assert main(["recognize", str(bad)]) == 1
    assert capsys.readouterr().out.strip() == "false"


def test_verify_suite_pass_and_json(tmp_path, capsys):
    report = tmp_path / "v.json"
    assert main(["verify", "thm32", "--max-order", "8", "--json", str(report),
                 "--workers", "1"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    payload = json.loads(report.read_text())
    assert payload["suite"] == "thm32" and payload["passed"] is True


def test_verify_json_byte_identical_across_runs_and_workers(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify", "lemma21", "--max-order", "7", "--json", str(a),
                 "--workers", "1"]) == 0
    assert main(["verify", "lemma21", "--max-order", "7", "--json", str(b),
                 "--workers", "3"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_collide_cli(tmp_path, capsys):
    report = tmp_path / "c.json"
    assert main(["collide", "--n", "4", "--max-order", "5", "--json", str(report)]) == 0
    out = capsys.readouterr().out
    assert "colliding pair" in out
    payload = json.loads(report.read_text())
    assert payload["pairs"]
    assert main(["collide", "--n", "3", "--max-order", "8",
                 "--require-noncomplete"]) == 0


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("2\n0 0\n")
    assert main(["root", str(bad)]) == 3
    assert "parse error" in capsys.readouterr().err
    assert main(["root", str(tmp_path / "missing.txt")]) == 3


def test_reconstruct_fails_on_the_card_count_first(tmp_path, capsys):
    huge = tmp_path / "huge.txt"
    huge.write_text("deck 256\n" + "\n255\n" * 12)
    assert main(["reconstruct", str(huge)]) == 3
    assert "needs 256 cards, found 12" in capsys.readouterr().err


def test_deck_above_the_deck_limit_is_a_usage_error(tmp_path, capsys, monkeypatch):
    from treecube import _kernels

    def refuse(*args):
        raise AssertionError("a canonical labeling was run")

    src = write_graph(tmp_path, "p257.txt", path_graph(257))
    monkeypatch.setattr(_kernels, "canonical_labeling", refuse)
    assert main(["deck", src, "-o", str(tmp_path / "deck.txt")]) == 2
    assert "exceeds the deck limit 256" in capsys.readouterr().err
    assert not (tmp_path / "deck.txt").exists()


def test_usage_error_exit_codes(tmp_path, capsys):
    assert main(["verify", "nosuchsuite"]) == 2
    capsys.readouterr()
    small = tmp_path / "small.txt"
    small.write_text(deck_to_text(deck(parse_graph("2\n0 1"))))
    assert main(["reconstruct", str(small)]) == 2
    assert "at least 3" in capsys.readouterr().err


def test_a_worker_count_below_one_is_a_usage_error(capsys):
    assert main(["verify", "thm31", "--max-order", "5", "--workers", "0"]) == 2
    assert "workers must be at least 1" in capsys.readouterr().err
    # collide runs in one process and takes no worker count
    assert main(["collide", "--n", "3", "--max-order", "5", "--workers", "2"]) == 2
    assert "unrecognized arguments: --workers" in capsys.readouterr().err


def test_stdin_input(tmp_path, capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(serialize_graph(path_graph(4))))
    assert main(["power", "-", "-k", "3"]) == 0
    assert parse_graph(capsys.readouterr().out) == complete_graph(4)
