"""Tests of the benchmark itself: inputs, answer checks, deadline, tracing.

Run from the repository root with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import json
import time
from types import SimpleNamespace

import pytest

import inputs
import run
import spans
import workloads

treecube = run.load_treecube()


def _query(name: str, seed: int = 0) -> inputs.Query:
    return next(q for q in inputs.make_queries(seed) if q.name == name)


def test_same_seed_gives_identical_inputs():
    assert inputs.make_queries(5) == inputs.make_queries(5)


def test_different_seed_gives_different_inputs():
    a, b = inputs.make_queries(5), inputs.make_queries(6)
    assert [q.name for q in a] == [q.name for q in b]
    assert [q.expect for q in a] == [q.expect for q in b]
    assert sum(x.text != y.text for x, y in zip(a, b)) > len(a) // 2


def test_planted_truths_are_sound():
    assert not inputs.is_chordal(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    p, tree = inputs.spider(3, 2)
    assert inputs.is_chordal(p, inputs.cube_edges(p, tree))
    path = [(0, 1), (1, 2), (2, 3), (3, 4)]
    assert inputs.ahu_code(5, path) == inputs.ahu_code(5, [(4, 3), (3, 1), (1, 0), (0, 2)])
    assert inputs.ahu_code(5, path) != inputs.ahu_code(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
    for q in inputs.make_queries(1):
        if q.name.startswith("near-cube"):
            header, *lines = q.text.split("\n")
            edges = [tuple(map(int, ln.split())) for ln in lines if ln]
            assert inputs.is_connected(int(header), edges)
            assert not inputs.is_chordal(int(header), edges)


@pytest.mark.parametrize("name", ["random-tree-20", "spider-4x3", "near-cube-13",
                                  "complete-6", "deck-random-tree-14", "deck-noncube-8"])
def test_real_answers_pass_the_checks(name):
    ops = workloads.queries_pass(treecube, [_query(name)])
    assert ops[0].ok, ops[0]


def _fake(**overrides):
    return SimpleNamespace(**{**vars(treecube), **overrides})


def test_planted_wrong_root_is_failed():
    wrong = treecube.RootResult.unique(treecube.Tree(treecube.path_graph(20)))
    ops = workloads.queries_pass(_fake(cube_root=lambda G: wrong), [_query("random-tree-20")])
    assert not ops[0].ok and not ops[0].overrun


def test_planted_wrong_reconstruction_is_failed():
    def recognize_everything(S):
        return treecube.ReconstructionReport(True, None, treecube.Tree(treecube.path_graph(S.order)), ())
    ops = workloads.queries_pass(_fake(reconstruct=recognize_everything),
                                 [_query("deck-noncube-8"), _query("deck-random-tree-10")])
    assert [op.ok for op in ops] == [False, False]


def test_planted_wrong_suite_count_is_failed():
    def short_report(suite, max_order=None, workers=1):
        return treecube.VerificationReport(suite, max_order or 10, 1, (), 0.0)
    ops = workloads.census_pass(_fake(run_suite=short_report))
    assert not ops[0].ok


def test_wrong_answer_makes_the_run_incorrect(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "SWEEP_CHECKED", {"thm32": 1})
    code = run.main(["--workload", "sweep", "--seed", "0", "--seconds", "0"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert last["correct"] is False and last["failed"] == last["attempted"] == 1
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(last["metrics"]) == {m["name"] for m in spec["end_to_end"]}


def test_overrun_is_failed_and_does_not_stall(monkeypatch):
    def spin(G):
        while True:
            pass
    monkeypatch.setitem(workloads.DEADLINE_S, "root", 0.2)
    start = time.perf_counter()
    ops = workloads.queries_pass(_fake(cube_root=spin), [_query("complete-5")])
    assert time.perf_counter() - start < 5
    assert ops[0].overrun and not ops[0].ok


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.percentile_with_tail(list(range(100))) == (90, 89)
    assert run.percentile_with_tail(list(range(20))) == (50, 9)
    assert run.percentile_with_tail(list(range(10))) is None


def test_tracer_reports_every_declared_metric():
    tc = run.load_treecube()
    tracer = spans.Tracer()
    original = tc.cube_root
    tracer.install()
    try:
        assert tc.cube_root is not original
        assert tc.harness.cube_root is tc.cube_root
        ops = workloads.queries_pass(tc, [_query("random-tree-20"), _query("complete-5")], tracer)
    finally:
        tracer.uninstall()
    assert tc.cube_root is original and tc.harness.cube_root is original
    assert all(op.ok for op in ops)
    metrics = tracer.metrics()
    assert set(metrics) == set(spans.metric_units())
    assert metrics["cubes.cube_root.calls"] == 2
    assert metrics["cubes.cube_root.unique"] == metrics["cubes.cube_root.complete"] == 1
    assert metrics["graphs.parse_graph.calls"] == 2
    assert 0 < metrics["kernels.canonical_labeling.calls"]
    run.OUT.mkdir(exist_ok=True)
    tracer.write(run.OUT / "test.spans")
    recorded = spans.read_spans(run.OUT / "test.spans")
    assert len(recorded) == metrics["trace.spans"]
    for name, parent, op, start, end in recorded:
        assert start <= end and op in (0, 1)
        if parent >= 0:
            assert recorded[parent][3] <= start and end <= recorded[parent][4]


def test_spec_names_what_the_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
