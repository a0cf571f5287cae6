import json

import pytest

from treecube import _kernels, harness
from treecube.cubes import RootKind, cube_root_oracle
from treecube.graphs import canonical_form, complete_graph, is_complete, is_connected, path_graph, power, star_graph
from treecube.harness import (
    DEFAULT_MAX_ORDER,
    SUITES,
    collide,
    noncube_corpus,
    recognition_negative_corpus,
    run_suite,
)


@pytest.mark.parametrize("suite", SUITES)
def test_suites_pass_at_reduced_order(suite):
    order = min(DEFAULT_MAX_ORDER[suite], 7)
    report = run_suite(suite, order)
    assert report.passed, report.failures[:3]
    assert report.checked > 0
    assert report.suite == suite and report.max_order == order


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("lemma99", 5)


def test_reports_are_deterministic_across_worker_counts():
    for suite in ("thm31", "rc-pipeline"):
        r1 = run_suite(suite, 6, workers=1)
        r2 = run_suite(suite, 6, workers=4)
        assert r1.to_json() == r2.to_json()


def test_thm31_runs_no_canonical_labeling(monkeypatch):
    # a leaf's cards are labeled-equal and an internal vertex's differ in edge
    # count, so neither side of the theorem needs an isomorphism test
    def refuse(*args):
        raise AssertionError("canonical labeling ran")

    monkeypatch.setattr(_kernels, "canonical_labeling", refuse)
    report = run_suite("thm31", 10, workers=1)
    assert report.passed and report.checked > 0


def test_lemma25_runs_no_canonical_labeling(monkeypatch):
    # the tree of cliques and the end-deleted tree are compared by AHU code
    def refuse(*args):
        raise AssertionError("canonical labeling ran")

    monkeypatch.setattr(_kernels, "canonical_labeling", refuse)
    report = run_suite("lemma25", 10, workers=1)
    assert report.passed and report.checked > 0


# canonical labelings per suite at order 8, counted on a cold start; a change
# that lowers a count updates this table
LABELINGS_AT_ORDER_8 = {
    "thm31": 0,
    "thm32": 48,
    "lemma21": 0,
    "lemma24": 0,
    "lemma25": 0,
    "rc-pipeline": 554,
    "recognition-negative": 317,
    "oracle-agreement": 296,
}


def test_labeling_counts_do_not_depend_on_earlier_suites(monkeypatch):
    # nothing a suite leaves behind may spare a later suite a labeling, so
    # the counts are the same in either order, from cold caches
    import sys
    calls = []
    labeling = _kernels.canonical_labeling

    def counted(*args):
        calls.append(None)
        return labeling(*args)

    monkeypatch.setattr(_kernels, "canonical_labeling", counted)
    for suites in (SUITES, SUITES[::-1]):
        for name, module in list(sys.modules.items()):
            if name == "treecube" or name.startswith("treecube."):
                for obj in list(vars(module).values()):
                    if callable(getattr(obj, "cache_clear", None)):
                        obj.cache_clear()
        counts = {}
        for suite in suites:
            calls.clear()
            assert run_suite(suite, 8).passed
            counts[suite] = len(calls)
        assert counts == LABELINGS_AT_ORDER_8


class RecordingContext:
    """Stands in for a multiprocessing context: records pool sizes, starts nothing."""

    def __init__(self):
        self.pool_sizes = []

    def Pool(self, processes):
        self.pool_sizes.append(processes)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, units, chunksize=1):
        return [fn(u) for u in units]


def test_worker_pool_is_capped_at_units_and_cores(monkeypatch):
    ctx = RecordingContext()
    monkeypatch.setattr(harness.multiprocessing, "get_context", lambda method: ctx)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
    serial = run_suite("thm31", 7, workers=1).to_json()
    assert ctx.pool_sizes == []
    for workers in (100_000, None, 3):
        assert run_suite("thm31", 7, workers=workers).to_json() == serial
    run_suite("thm31", 4, workers=100_000)  # 3 trees of order 3..4
    assert ctx.pool_sizes == [4, 4, 3, 3]


def test_report_json_payload_is_stable():
    r1 = run_suite("lemma25", 7)
    r2 = run_suite("lemma25", 7)
    assert r1.to_json() == r2.to_json()
    payload = json.loads(r1.to_json())
    assert payload["passed"] is True
    assert "elapsed" not in payload


def test_collide_finds_fourth_power_pair():
    result = collide(4, 5)
    want = {canonical_form(path_graph(5)), canonical_form(star_graph(5))}
    hits = [p for p in result.pairs
            if {canonical_form(p.tree1), canonical_form(p.tree2)} == want]
    assert len(hits) == 1 and hits[0].complete
    assert hits[0].power_certificate == canonical_form(complete_graph(5))


def test_collide_cube_noncomplete_is_empty():
    assert collide(3, 9, require_noncomplete=True).pairs == ()


def test_collide_fourth_power_noncomplete_first_appears_at_order_8():
    # as-found desk-scale record: distinct trees with isomorphic non-complete
    # fourth powers exist, the smallest on 8 vertices
    assert collide(4, 7, require_noncomplete=True).pairs == ()
    found = collide(4, 8, require_noncomplete=True)
    assert len(found.pairs) == 4
    for pair in found.pairs:
        assert not pair.complete
        assert canonical_form(power(pair.tree1, 4)) == pair.power_certificate
        assert canonical_form(pair.tree1) != canonical_form(pair.tree2)


def test_collide_validates_arguments():
    with pytest.raises(ValueError):
        collide(1, 5)
    with pytest.raises(ValueError):
        collide(4, 0)


def test_collide_json_deterministic():
    a = collide(4, 5).to_json()
    b = collide(4, 5).to_json()
    assert a == b
    payload = json.loads(a)
    assert payload["n"] == 4 and len(payload["pairs"]) == 4


def test_noncube_corpus_is_deterministic_and_labeled():
    from treecube.deck import deck, deck_check
    a = noncube_corpus(25, 8)
    b = noncube_corpus(25, 8)
    assert [g.edge_list() for g in a] == [g.edge_list() for g in b]
    for G in a:
        assert is_connected(G) and not is_complete(G)
        assert cube_root_oracle(G).kind is RootKind.NOT_A_CUBE
        assert deck_check(G, deck(G))


def test_recognition_negative_runs_above_the_enumeration_cap(monkeypatch, capsys):
    # the corpus is filtered by cube_root, so nothing in the suite enumerates
    from treecube.cli import main
    monkeypatch.delenv("TREECUBE_MAX_ORDER", raising=False)
    corpus = recognition_negative_corpus(13)
    assert len(corpus) == 10 + 1 + 50 and max(G.p for G in corpus) == 13
    report = run_suite("recognition-negative", 13)
    assert report.passed and report.checked == 61
    assert main(["verify", "recognition-negative", "--max-order", "13"]) == 0
    assert "checked 61" in capsys.readouterr().out


def test_recognition_corpus_contents():
    corpus = recognition_negative_corpus(8)
    assert len(corpus) == 5 + 1 + 50  # C4..C8, K33, 50 random
    sizes = sorted({g.p for g in corpus})
    assert sizes[0] >= 4 and sizes[-1] <= 8


def test_failures_are_replayable_descriptors():
    # force a failure by checking a deliberately wrong claim through the
    # replay path: descriptors must decode back into graphs
    report = run_suite("thm32", 6)
    assert report.passed
    # replay form: every descriptor value in a failure is hex-decodable; no
    # failures here, so exercise the encoding on a synthetic descriptor
    from treecube.graphs import CanonicalForm
    cert = canonical_form(power(path_graph(6), 3))
    assert CanonicalForm.from_hex(cert.hex()) == cert
