"""Exhaustive verification sweeps, collision search, and reports.

Each suite sweeps the free-tree enumeration (or a fixed deterministic graph
corpus) and returns a report whose payload is byte-reproducible: failures are
recorded as certificate hex strings that replay through the library. This is
the only module that spawns parallel workers; per-item work runs through
module-level functions so results merge in input order regardless of the
worker count.

lemma24 builds each leaf-deleted cube from a smaller subset's by one vertex
deletion, and answers each distinct one once per run, keyed by its labeled
adjacency: 548 ``is_tree_cube`` calls for 9,148 checks at order 10, 3,687 for
91,220 at order 12. Every (tree, subset) pair is still counted and reports
its own failure.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import random
import time
from dataclasses import dataclass
from functools import partial

from .cubes import (
    RootKind,
    cliques_of_cube,
    cube_root,
    cube_root_oracle,
    is_tree_cube,
    maximal_cliques,
    tree_of_cliques,
)
from .deck import deck, reconstruct
from .graphs import (
    CanonicalForm,
    LabeledGraph,
    canonical_form,
    complete_bipartite_graph,
    cycle_graph,
    degree_sequence,
    delete_vertex,
    is_complete,
    is_isomorphic,
    power,
)
from .trees import Tree, ahu_code, end_deleted, enumerate_trees, leaves

NONCUBE_CORPUS_SEED = 0x7C3
NONCUBE_CORPUS_SIZE = 200
RECOGNITION_RANDOM_COUNT = 50


@dataclass(frozen=True)
class VerificationReport:
    """Result of one sweep: counterexample descriptors are replayable."""

    suite: str
    max_order: int
    checked: int
    failures: tuple[dict, ...]
    elapsed: float

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        # elapsed stays out of the payload so reports are byte-identical
        # across repeated runs
        return {
            "suite": self.suite,
            "max_order": self.max_order,
            "checked": self.checked,
            "passed": self.passed,
            "failures": list(self.failures),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


@dataclass(frozen=True)
class CollisionPair:
    tree1: Tree
    tree2: Tree
    power_certificate: CanonicalForm
    complete: bool


@dataclass(frozen=True)
class CollisionResult:
    """Non-isomorphic tree pairs of equal order with isomorphic n-th powers."""

    n: int
    max_order: int
    require_noncomplete: bool
    pairs: tuple[CollisionPair, ...]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "max_order": self.max_order,
            "require_noncomplete": self.require_noncomplete,
            "pairs": [
                {
                    "tree1_edges": p.tree1.edge_list(),
                    "tree2_edges": p.tree2.edge_list(),
                    "power_certificate": p.power_certificate.hex(),
                    "complete": p.complete,
                }
                for p in self.pairs
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


# ── deterministic corpora ─────────────────────────────────────────────


def random_connected_graph(rng: random.Random, p: int) -> LabeledGraph:
    """Seeded connected graph: random recursive tree plus random extra edges."""
    edges = {(rng.randrange(v), v) for v in range(1, p)}
    density = rng.uniform(0.1, 0.6)
    for u in range(p):
        for v in range(u + 1, p):
            if (u, v) not in edges and rng.random() < density:
                edges.add((u, v))
    return LabeledGraph(p, edges)


def noncube_corpus(count: int, max_order: int, seed: int = NONCUBE_CORPUS_SEED) -> list[LabeledGraph]:
    """Fixed corpus of connected non-complete graphs that ``cube_root`` rejects.

    No canonical labeling or enumeration runs, so any order works; the
    oracle-agreement suite cross-checks the rejections. Orders are drawn from
    4 up, so below ``max_order`` 4 the corpus is empty.
    """
    rng = random.Random(seed)
    out = []
    while max_order >= 4 and len(out) < count:
        p = rng.randint(4, max_order)
        G = random_connected_graph(rng, p)
        if cube_root(G).kind is RootKind.NOT_A_CUBE:
            out.append(G)
    return out


# ── per-item workers (module level for picklability) ──────────────────


def _thm31_unit(T: Tree) -> tuple[int, list[dict]]:
    # leaf <=> cube commutes with vertex deletion (power taken per component)
    G = power(T, 3)
    leaf_set = leaves(T)
    checked = 0
    failures = []
    for v in range(T.p):
        checked += 1
        lhs = power(delete_vertex(T, v), 3)
        rhs = delete_vertex(G, v)
        if is_isomorphic(lhs, rhs) != (v in leaf_set):
            failures.append({"tree": canonical_form(T).hex(), "vertex": v})
    return checked, failures


def _lemma21_unit(T: Tree) -> tuple[int, list[dict]]:
    # the cube is complete exactly when diam(T) <= 3, outside the lemma's scope
    G = power(T, 3)
    if is_complete(G):
        return 0, []
    span_sets = sorted(map(sorted, cliques_of_cube(T).values()))
    clique_sets = sorted(map(sorted, maximal_cliques(G)))
    if span_sets != clique_sets:
        return 1, [{"tree": canonical_form(T).hex()}]
    return 1, []


def _lemma24_unit(seen: dict, T: Tree) -> tuple[int, list[dict]]:
    # every proper-or-full leaf subset whose deletion leaves a nonempty graph.
    # Trees grow by a leaf labeled p - 1, so many (tree, subset) pairs leave
    # the same labeled graph: `seen` maps each graph, whose equality and hash
    # are its adjacency masks, to its one is_tree_cube answer.
    G = power(T, 3)
    leaf_list = sorted(leaves(T))
    failures = []
    # graphs[mask] is G - S for the leaf subset S that mask picks. G - S is
    # G - S' less S's highest leaf, with S' = S minus that leaf, whose graph is
    # already built; the leaf sits at index leaf - |S'| in G - S'.
    graphs = []
    for mask in range(1 << len(leaf_list)):
        if mask.bit_count() >= T.p:
            continue
        top = mask.bit_length() - 1
        H = delete_vertex(graphs[mask ^ 1 << top], leaf_list[top] - mask.bit_count() + 1) if mask else G
        graphs.append(H)
        ok = seen.get(H)
        if ok is None:
            ok = seen[H] = is_tree_cube(H)
        if not ok:
            subset = [leaf_list[i] for i in range(len(leaf_list)) if mask >> i & 1]
            failures.append({"tree": canonical_form(T).hex(), "deleted": subset})
    return len(graphs), failures


def _lemma25_unit(T: Tree) -> tuple[int, list[dict]]:
    G = power(T, 3)
    if is_complete(G):
        return 0, []
    xi = tree_of_cliques(G)
    if ahu_code(xi) != ahu_code(end_deleted(T)):
        return 1, [{"tree": canonical_form(T).hex()}]
    return 1, []


def _rc_unit(T: Tree) -> tuple[int, list[dict]]:
    G = power(T, 3)
    S = deck(G)
    failures = []
    report = reconstruct(S)
    # isomorphic trees have isomorphic cubes, so no labeling is needed: the
    # rebuilt graph is the rebuilt tree's cube, and that tree is T's class
    # (a complete deck rebuilds K_p, labeled-equal to G, from one of its roots)
    if not (report.recognized and report.graph == power(report.tree, 3)
            and (report.graph == G or ahu_code(report.tree) == ahu_code(T))):
        failures.append({"reason": "reconstruction failed or mismatched"})
    # every endpoint-deleted card must pass the cube test
    for v in sorted(leaves(T)):
        if not is_tree_cube(delete_vertex(G, v)):
            failures.append({"vertex": v, "reason": "endpoint card rejected by the cube test"})
    # label the tree only for a failure
    return 1, [{"tree": canonical_form(T).hex(), **f} for f in failures]


def _recognition_negative_unit(G: LabeledGraph) -> tuple[int, list[dict]]:
    if reconstruct(deck(G)).recognized:
        return 1, [{"graph": canonical_form(G).hex()}]
    return 1, []


def _oracle_agreement_unit(G: LabeledGraph) -> tuple[int, list[dict]]:
    r1 = cube_root(G)
    r2 = cube_root_oracle(G)
    ok = r1.kind is r2.kind and sorted(map(ahu_code, r1.roots)) == sorted(map(ahu_code, r2.roots))
    if not ok:
        return 1, [{
            "graph": canonical_form(G).hex(),
            "cube_root": r1.kind.value,
            "oracle": r2.kind.value,
        }]
    return 1, []


# ── suite drivers ─────────────────────────────────────────────────────


def _sweep(fn, units, workers) -> tuple[int, list[dict]]:
    # never more processes than units or cores, whatever was asked for
    cores = os.cpu_count() or 1
    workers = min(cores if workers is None else workers, cores, len(units))
    if workers > 1:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(workers) as pool:
            results = pool.map(fn, units, chunksize=max(1, len(units) // (4 * workers)))
    else:
        results = map(fn, units)
    checked = 0
    failures: list[dict] = []
    for c, f in results:
        checked += c
        failures.extend(f)
    return checked, failures


def _trees_in_range(lo: int, hi: int) -> list[Tree]:
    out = []
    for p in range(lo, hi + 1):
        out.extend(enumerate_trees(p))
    return out


def _tree_sweep(fn, lo: int, max_order: int, workers) -> tuple[int, list[dict]]:
    return _sweep(fn, _trees_in_range(lo, max_order), workers)


def _suite_lemma24(max_order, workers):
    # a fresh memo per run, so no answer outlives it; each worker chunk
    # unpickles its own empty copy
    return _tree_sweep(partial(_lemma24_unit, {}), 1, max_order, workers)


def _suite_thm32(max_order, workers):
    # every equal-order pair is checked; the failures are the cube collisions.
    # collide runs in one process: it labels too few powers for a pool to pay
    checked = sum(math.comb(len(enumerate_trees(p)), 2) for p in range(1, max_order + 1))
    failures = [{
        "tree1": canonical_form(pair.tree1).hex(),
        "tree2": canonical_form(pair.tree2).hex(),
        "power_certificate": pair.power_certificate.hex(),
    } for pair in collide(3, max_order, require_noncomplete=True).pairs]
    return checked, failures


def recognition_negative_corpus(max_order: int) -> list[LabeledGraph]:
    """Cycles, K_{3,3}, and seeded random non-cubes."""
    corpus = [cycle_graph(p) for p in range(4, max_order + 1)]
    if max_order >= 6:
        corpus.append(complete_bipartite_graph(3, 3))
    return corpus + noncube_corpus(RECOGNITION_RANDOM_COUNT, max_order, NONCUBE_CORPUS_SEED + 1)


def _suite_recognition_negative(max_order, workers):
    return _sweep(_recognition_negative_unit, recognition_negative_corpus(max_order), workers)


def _suite_oracle_agreement(max_order, workers):
    units = [power(T, 3) for T in _trees_in_range(1, max_order)]
    units.extend(noncube_corpus(NONCUBE_CORPUS_SIZE, max_order))
    return _sweep(_oracle_agreement_unit, units, workers)


# suite -> (default max order, runner(max_order, workers) -> (checked, failures));
# structural suites default to order 10, deck suites pay an extra factor of p
# in isomorphism work and default to 9
_SUITE_TABLE = {
    "thm31": (10, partial(_tree_sweep, _thm31_unit, 3)),
    "thm32": (10, _suite_thm32),
    "lemma21": (10, partial(_tree_sweep, _lemma21_unit, 1)),
    "lemma24": (10, _suite_lemma24),
    "lemma25": (10, partial(_tree_sweep, _lemma25_unit, 1)),
    "rc-pipeline": (9, partial(_tree_sweep, _rc_unit, 3)),
    "recognition-negative": (9, _suite_recognition_negative),
    "oracle-agreement": (10, _suite_oracle_agreement),
}
SUITES = tuple(_SUITE_TABLE)
DEFAULT_MAX_ORDER = {suite: order for suite, (order, _) in _SUITE_TABLE.items()}


def run_suite(suite: str, max_order: int | None = None, workers: int | None = 1) -> VerificationReport:
    """Run one named invariant sweep up to the given order."""
    if suite not in _SUITE_TABLE:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    default_order, runner = _SUITE_TABLE[suite]
    if max_order is None:
        max_order = default_order
    if max_order < 1:
        raise ValueError("max order must be at least 1")
    # None means every core
    if workers is not None and workers < 1:
        raise ValueError("workers must be at least 1")
    start = time.perf_counter()
    checked, failures = runner(max_order, workers)
    elapsed = time.perf_counter() - start
    return VerificationReport(suite, max_order, checked, tuple(failures), elapsed)


def collide(n: int, max_order: int, require_noncomplete: bool = False) -> CollisionResult:
    """Find non-isomorphic equal-order tree pairs with isomorphic n-th powers."""
    if n < 2:
        raise ValueError("power index must be at least 2")
    if max_order < 1:
        raise ValueError("max order must be at least 1")
    pairs = []
    for p in range(1, max_order + 1):
        trees = enumerate_trees(p)
        # only powers that share a degree sequence can be isomorphic; those few
        # are built again, so that not every power is held at once
        by_degrees: dict = {}
        for i, T in enumerate(trees):
            by_degrees.setdefault(degree_sequence(power(T, n)), []).append(i)
        shared = sorted(i for idxs in by_degrees.values() if len(idxs) > 1 for i in idxs)
        powers = {i: power(trees[i], n) for i in shared}
        buckets: dict = {}
        for i, G in powers.items():
            buckets.setdefault(canonical_form(G), []).append(i)
        for cert, idxs in sorted(buckets.items()):
            if len(idxs) < 2:
                continue
            complete = is_complete(powers[idxs[0]])
            if require_noncomplete and complete:
                continue
            for a in range(len(idxs)):
                for b in range(a + 1, len(idxs)):
                    pairs.append(CollisionPair(trees[idxs[a]], trees[idxs[b]], cert, complete))
    return CollisionResult(n, max_order, require_noncomplete, tuple(pairs))
