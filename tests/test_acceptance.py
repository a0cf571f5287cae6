"""Acceptance suite: every criterion at its stated scope and tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion. Time limits are asserted where the criterion states one.
"""

import time
from contextlib import contextmanager

from helpers import bfs_distances_oracle
from treecube.graphs import (
    LabeledGraph,
    canonical_form,
    complete_graph,
    path_graph,
    power,
    star_graph,
)
from treecube.harness import collide, run_suite
from treecube.trees import enumerate_trees


@contextmanager
def criterion(num, description, time_limit=None):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"\n[FAIL] criterion {num}: {description}")
        raise
    elapsed = time.perf_counter() - start
    if time_limit is not None:
        assert elapsed < time_limit, (
            f"criterion {num} took {elapsed:.1f}s, limit {time_limit}s")
    print(f"\n[PASS] criterion {num}: {description} ({elapsed:.1f}s)")


def test_criterion_1_power_matches_distance_oracle():
    with criterion(1, "cube agrees with the BFS distance oracle, p <= 10", time_limit=10):
        for p in range(1, 11):
            for T in enumerate_trees(p):
                dist = bfs_distances_oracle(T)
                want = LabeledGraph(p, [
                    (u, v) for u in range(p) for v in range(u + 1, p)
                    if dist[u][v] is not None and 1 <= dist[u][v] <= 3])
                assert power(T, 3) == want


def test_criterion_2_leaf_deletion_equivalence_sweep():
    with criterion(2, "leaf <=> cube commutes with deletion, 3 <= p <= 10", time_limit=120):
        report = run_suite("thm31", 10)
        assert report.checked == sum(
            p * len(enumerate_trees(p)) for p in range(3, 11))
        assert report.failures == ()


def test_criterion_3_unique_cube_sweep():
    with criterion(3, "isomorphic cubes only when complete, p <= 10", time_limit=300):
        report = run_suite("thm32", 10)
        assert report.failures == ()


def test_criterion_4_oracle_agreement():
    with criterion(4, "cube_root agrees with the enumeration oracle"):
        report = run_suite("oracle-agreement", 10)
        n_trees = sum(len(enumerate_trees(p)) for p in range(1, 11))
        assert report.checked == n_trees + 200
        assert report.failures == ()


def test_criterion_5_tree_of_cliques_sweep():
    with criterion(5, "tree of cliques is the end-deleted tree, p <= 10"):
        report = run_suite("lemma25", 10)
        assert report.failures == ()


def test_criterion_6_clique_characterization_sweep():
    with criterion(6, "maximal cliques are the internal-edge 1-spans, p <= 10"):
        report = run_suite("lemma21", 10)
        assert report.failures == ()


def test_criterion_7_leaf_subset_deletion_sweep():
    with criterion(7, "leaf-subset deletion keeps the cube a tree cube, p <= 8"):
        report = run_suite("lemma24", 8)
        assert report.failures == ()


def test_criterion_8_rc_pipeline_sweep():
    with criterion(8, "deck reconstruction recovers every cube, 3 <= p <= 9",
                   time_limit=600):
        report = run_suite("rc-pipeline", 9)
        assert report.checked == sum(len(enumerate_trees(p)) for p in range(3, 10))
        assert report.failures == ()


def test_criterion_9_recognition_negatives():
    with criterion(9, "recognize rejects cycles, K_{3,3}, and 50 random non-cubes"):
        report = run_suite("recognition-negative", 9)
        assert report.checked == 6 + 1 + 50  # C4..C9, K33, 50 random
        assert report.failures == ()


def test_criterion_10_collision_harness():
    with criterion(10, "4th-power collision (P5, K1,4) found; no non-complete cube collisions"):
        result = collide(4, 5)
        want = {canonical_form(path_graph(5)),
                canonical_form(star_graph(5))}
        hits = [
            pair for pair in result.pairs
            if {canonical_form(pair.tree1),
                canonical_form(pair.tree2)} == want
        ]
        assert len(hits) == 1
        assert hits[0].complete
        assert hits[0].power_certificate == canonical_form(complete_graph(5))
        assert collide(3, 10, require_noncomplete=True).pairs == ()


def test_criterion_11_enumeration_cross_check():
    with criterion(11, "free-tree counts for p = 4..10"):
        assert [len(enumerate_trees(p)) for p in range(4, 11)] == [
            2, 3, 6, 11, 23, 47, 106]
