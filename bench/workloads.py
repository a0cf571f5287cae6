"""The three workloads: one pass of each, every answer checked.

A pass is a list of ``Op`` records, one per call into treecube's public entry
points (``run_suite``, ``parse_graph`` + ``cube_root``, ``parse_deck`` +
``reconstruct``). The entry points are looked up on the package at call time,
so the tracer's wrappers see every call. A wrong answer, an exception or a
deadline overrun makes the op failed; it is never counted as a fast one.
"""

from __future__ import annotations

import signal
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

import inputs

# ``sweep``: the eight verify suites at their default orders, in the order
# ``treecube verify`` lists them, with the number of checks each must report.
SWEEP_CHECKED = {
    "thm31": 1806,
    "thm32": 6973,
    "lemma21": 175,
    "lemma24": 9148,
    "lemma25": 175,
    "rc-pipeline": 93,
    "recognition-negative": 57,
    "oracle-agreement": 401,
}
# ``census``: thm32 at the default enumeration cap. Pairs of trees of equal
# order, from the free-tree counts 1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551.
CENSUS_ORDER = 12
CENSUS_CHECKED = 185993

# Completing root queries take up to about 1.8 s (a near-cube at the cap scans
# every tree of its order) and reconstruct queries up to about 1.6 s; an
# overrun runs for minutes. The margins keep timing noise from moving an input
# across the deadline.
DEADLINE_S = {"root": 3.0, "reconstruct": 6.0}


class Overrun(BaseException):
    """Raised by the deadline alarm. A BaseException, so that no
    ``except Exception`` inside the program can swallow it."""


@dataclass(frozen=True)
class Op:
    kind: str
    name: str
    seconds: float
    ok: bool
    overrun: bool = False
    error: str = ""


def _alarm(signum, frame):
    raise Overrun


@contextmanager
def deadline(seconds: float):
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def clear_caches() -> None:
    """Empty every module-level cache of treecube, as a fresh process has."""
    for name, module in list(sys.modules.items()):
        if name == "treecube" or name.startswith("treecube."):
            for obj in list(vars(module).values()):
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()


# ── answer checks ────────────────────────────────────────────────────


def tree_code(tree) -> str:
    return inputs.ahu_code(tree.p, tree.graph.edges)


def check_root(result, expect: tuple) -> bool:
    kind = result.kind.value
    if expect[0] == "unique":
        return kind == "unique" and tree_code(result.tree) == expect[1]
    if expect[0] == "complete":
        codes = {tree_code(t) for t in result.roots}
        return (kind == "ambiguous-complete" and len(result.roots) == expect[1]
                and len(codes) == expect[1]
                and all(inputs.diameter(t.p, t.graph.edges) <= 3 for t in result.roots))
    return kind == "not-a-cube"


def check_reconstruct(report, expect: tuple) -> bool:
    if expect[0] == "tree":
        return report.recognized and report.tree is not None and tree_code(report.tree) == expect[1]
    return not report.recognized


# ── passes ───────────────────────────────────────────────────────────


def _timed(kind: str, name: str, call, check, tracer=None) -> Op:
    """Run ``call`` and judge its result with ``check``; errors fail the op."""
    if tracer is not None:
        tracer.begin_op()
    start = time.perf_counter()
    try:
        result = call()
    except Overrun:
        return Op(kind, name, time.perf_counter() - start, False, overrun=True)
    except Exception as exc:  # the op fails; the pass goes on
        return Op(kind, name, time.perf_counter() - start, False, error=repr(exc))
    seconds = time.perf_counter() - start
    return Op(kind, name, seconds, check(result))


def _query_call(tc, q: inputs.Query):
    def call():
        with deadline(DEADLINE_S[q.kind]):
            if q.kind == "root":
                return tc.cube_root(tc.parse_graph(q.text))
            return tc.reconstruct(tc.parse_deck(q.text))
    return call


def queries_pass(tc, queries: list[inputs.Query], tracer=None) -> list[Op]:
    ops = []
    for q in queries:
        clear_caches()
        check = check_root if q.kind == "root" else check_reconstruct
        ops.append(_timed(q.kind, q.name, _query_call(tc, q),
                          lambda r, e=q.expect: check(r, e), tracer))
    return ops


def _suite_op(tc, suite: str, max_order: int | None, checked: int, tracer) -> Op:
    return _timed("suite", f"{suite}@{max_order or 'default'}",
                  lambda: tc.run_suite(suite, max_order=max_order, workers=1),
                  lambda r: r.passed and r.checked == checked, tracer)


def sweep_pass(tc, tracer=None) -> list[Op]:
    clear_caches()
    return [_suite_op(tc, suite, None, checked, tracer) for suite, checked in SWEEP_CHECKED.items()]


def census_pass(tc, tracer=None) -> list[Op]:
    clear_caches()
    return [_suite_op(tc, "thm32", CENSUS_ORDER, CENSUS_CHECKED, tracer)]
