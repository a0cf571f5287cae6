import json

import pytest

from treecube import _kernels, harness
from treecube.cubes import RootKind, cube_root_oracle
from treecube.graphs import (
    canonical_form,
    complete_graph,
    degree_sequence,
    is_complete,
    is_connected,
    path_graph,
    power,
    star_graph,
)
from treecube.harness import (
    DEFAULT_MAX_ORDER,
    NONCUBE_CORPUS_SIZE,
    SUITES,
    CollisionPair,
    CollisionResult,
    collide,
    noncube_corpus,
    recognition_negative_corpus,
    run_suite,
)
from treecube.trees import enumerate_trees


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


def _count_labelings(monkeypatch) -> list:
    calls = []
    labeling = _kernels.canonical_labeling

    def counted(*args):
        calls.append(None)
        return labeling(*args)

    monkeypatch.setattr(_kernels, "canonical_labeling", counted)
    return calls


# canonical labelings per suite at order 8, counted on a cold start; a change
# that lowers a count updates this table (decks label one card per twin class)
LABELINGS_AT_ORDER_8 = {
    "thm31": 0,
    "thm32": 14,
    "lemma21": 0,
    "lemma24": 0,
    "lemma25": 0,
    "rc-pipeline": 273,
    "recognition-negative": 255,
    "oracle-agreement": 101,
}


def test_labeling_counts_do_not_depend_on_earlier_suites(monkeypatch):
    # nothing a suite leaves behind may spare a later suite a labeling, so
    # the counts are the same in either order, from cold caches
    import sys
    calls = _count_labelings(monkeypatch)
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


def test_a_worker_count_below_one_is_rejected():
    for workers in (0, -1):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            run_suite("thm31", 5, workers=workers)


def test_collide_and_thm32_start_no_pool(monkeypatch):
    # collide runs in one process, also inside a thm32 run given several workers
    ctx = RecordingContext()
    monkeypatch.setattr(harness.multiprocessing, "get_context", lambda method: ctx)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
    assert collide(3, 8).pairs
    assert run_suite("thm32", 8, workers=4).passed
    assert ctx.pool_sizes == []


def _lemma24_pairs(max_order):
    # the suite's (tree, leaf subset, leaf-deleted cube) triples, in its order
    from treecube.graphs import delete_vertices
    from treecube.trees import enumerate_trees, leaves
    for p in range(1, max_order + 1):
        for T in enumerate_trees(p):
            G = power(T, 3)
            leaf_list = sorted(leaves(T))
            for mask in range(1 << len(leaf_list)):
                subset = [leaf_list[i] for i in range(len(leaf_list)) if mask >> i & 1]
                if len(subset) < T.p:
                    yield T, subset, delete_vertices(G, subset)


def test_lemma24_reports_every_pair_that_reaches_a_rejected_graph(monkeypatch):
    # reject one labeled graph that many pairs from several trees reach and
    # that has an isomorphic, differently labeled sibling among the reached
    # graphs: each pair reaching it reports its own failure, in order, and a
    # memo keyed on isomorphism class would wrongly fail the sibling's pairs
    pairs = list(_lemma24_pairs(8))
    reached: dict = {}
    for T, _, H in pairs:
        reached.setdefault(H, []).append(T)
    classes: dict = {}
    for H in reached:
        classes.setdefault(canonical_form(H), []).append(H)
    rejected, trees = max(
        ((H, trees) for H, trees in reached.items() if len(classes[canonical_form(H)]) > 1),
        key=lambda item: len(item[1]))
    assert len({T.edges for T in trees}) > 1
    real = harness.is_tree_cube
    monkeypatch.setattr(harness, "is_tree_cube", lambda H: H != rejected and real(H))
    expected = [{"tree": canonical_form(T).hex(), "deleted": subset}
                for T, subset, H in pairs if not harness.is_tree_cube(H)]
    assert len(expected) == len(trees) > 1
    report = run_suite("lemma24", 8, workers=1)
    assert report.checked == len(pairs) == 1028
    assert list(report.failures) == expected


def test_lemma24_answers_each_labeled_graph_once_per_run(monkeypatch):
    # 1,028 (tree, subset) pairs at order 8 leave 75 distinct labeled graphs;
    # a second run asks again, so no answer outlives its run
    calls = []
    real = harness.is_tree_cube

    def counted(H):
        calls.append(None)
        return real(H)

    monkeypatch.setattr(harness, "is_tree_cube", counted)
    for _ in range(2):
        calls.clear()
        report = run_suite("lemma24", 8, workers=1)
        assert report.passed and report.checked == 1028
        assert len(calls) == 75


def test_lemma24_builds_each_subset_by_one_single_vertex_deletion(monkeypatch):
    # 1,028 pairs over the 48 trees of order at most 8: the empty subset is
    # the cube itself, and every other graph is one deletion from a smaller
    # subset's graph; no pair pays for a set deletion
    from treecube import graphs, trees
    calls = []
    real = harness.delete_vertex

    def refuse(*args):
        raise AssertionError("delete_vertices ran")

    monkeypatch.setattr(harness, "delete_vertex", lambda G, v: calls.append(v) or real(G, v))
    monkeypatch.setattr(graphs, "delete_vertices", refuse)
    monkeypatch.setattr(trees, "delete_vertices", refuse)
    report = run_suite("lemma24", 8, workers=1)
    assert report.passed and report.checked == 1028
    assert len(calls) == 1028 - 48


def test_lemma24_memo_hits_follow_the_enumerated_labelings(monkeypatch):
    # the memo shares answers between labeled-equal graphs only, so relabeled
    # representatives would pass every suite while asking far more often
    calls = []
    real = harness.is_tree_cube
    monkeypatch.setattr(harness, "is_tree_cube", lambda H: calls.append(None) or real(H))
    report = run_suite("lemma24", 10, workers=1)
    assert report.passed and report.checked == 9148
    assert len(calls) == 548


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


def _reference_collide(n, max_order, require_noncomplete):
    # labels every power, with no degree-sequence buckets
    pairs = []
    for p in range(1, max_order + 1):
        trees = enumerate_trees(p)
        buckets: dict = {}
        for T in trees:
            buckets.setdefault(canonical_form(power(T, n)), []).append(T)
        for cert, group in sorted(buckets.items()):
            complete = is_complete(power(group[0], n))
            if require_noncomplete and complete:
                continue
            pairs.extend(CollisionPair(a, b, cert, complete)
                         for i, a in enumerate(group) for b in group[i + 1:])
    return CollisionResult(n, max_order, require_noncomplete, tuple(pairs))


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("require_noncomplete", [False, True])
def test_collide_matches_a_reference_that_labels_every_power(n, require_noncomplete):
    for max_order in (1, 4, 8, 10):
        want = _reference_collide(n, max_order, require_noncomplete).to_json()
        assert collide(n, max_order, require_noncomplete).to_json() == want


def test_thm32_labels_only_cubes_that_share_a_degree_sequence(monkeypatch):
    # 33 of the 201 cubes to order 10 and 113 of the 987 to order 12 share
    # their degree sequence with another cube of their order
    calls = _count_labelings(monkeypatch)
    for order, labelings in ((10, 33), (12, 113)):
        calls.clear()
        assert run_suite("thm32", order).passed
        assert len(calls) == labelings


def _cube_degree_sequences(p):
    return {degree_sequence(power(T, 3)) for T in enumerate_trees(p)}


def test_oracle_rejects_an_unmatched_degree_sequence_without_labeling(monkeypatch):
    corpus = noncube_corpus(NONCUBE_CORPUS_SIZE, 10)
    unmatched = [G for G in corpus if degree_sequence(G) not in _cube_degree_sequences(G.p)]
    assert len(unmatched) == 198
    for p in range(4, 11):
        cube_root_oracle(power(path_graph(p), 3))  # builds the order's table

    def refuse(*args):
        raise AssertionError("canonical labeling ran")

    monkeypatch.setattr(_kernels, "canonical_labeling", refuse)
    for G in unmatched:
        assert cube_root_oracle(G).kind is RootKind.NOT_A_CUBE


def test_oracle_labels_and_rejects_a_non_cube_with_a_cubes_degree_sequence(monkeypatch):
    corpus = noncube_corpus(NONCUBE_CORPUS_SIZE, 10)
    matched = [G for G in corpus if degree_sequence(G) in _cube_degree_sequences(G.p)]
    assert sorted((G.p, G.size) for G in matched) == [(7, 16), (8, 21)]
    calls = _count_labelings(monkeypatch)
    for G in matched:
        cube_root_oracle(power(path_graph(G.p), 3))  # builds the order's table
        calls.clear()
        assert cube_root_oracle(G).kind is RootKind.NOT_A_CUBE
        assert len(calls) == 1


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


def test_noncube_suites_run_below_order_four():
    # the random non-cubes start at order 4; below it they are simply absent
    from treecube.cli import main
    for n in (1, 2, 3):
        assert noncube_corpus(5, n) == []
        negative = run_suite("recognition-negative", n)
        assert negative.passed and negative.checked == 0
        agreement = run_suite("oracle-agreement", n)
        assert agreement.passed and agreement.checked == n
        for suite in ("recognition-negative", "oracle-agreement"):
            assert main(["verify", suite, "--max-order", str(n)]) == 0


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
    assert CanonicalForm.fromhex(cert.hex()) == cert
