"""Per-layer tracing: spans around treecube's public functions.

``Tracer.install`` replaces each function in ``TRACED`` with a wrapper, in
every treecube module namespace that holds it (``cube_root`` is imported by
name into ``cubes``, ``deck``, ``harness``, ``cli`` and the package). The
kernel dispatchers live only in ``treecube._kernels``, where every caller
looks them up at call time. ``LabeledGraph`` is traced through its
``__init__``.

Spans stay in memory (name, parent span, op, start, end) and are written out
by ``Tracer.write``. A layer's self time is its span's duration minus the
time of the traced spans nested in it.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

from workloads import SWEEP_CHECKED

TRACED = {
    "treecube._kernels": ("canonical_labeling", "all_pairs_distances", "maximal_cliques"),
    "treecube.graphs": ("LabeledGraph", "parse_graph", "power", "diameter"),
    "treecube.trees": ("enumerate_trees",),
    "treecube.cubes": ("cube_root", "cube_root_oracle"),
    "treecube.deck": ("parse_deck", "deck", "select_cube_cards", "deck_check", "reconstruct"),
    "treecube.harness": ("run_suite", "noncube_corpus"),
}
LAYERS = ("kernels", "graphs", "trees", "cubes", "deck", "harness")
ROOT_OUTCOMES = {"unique": "unique", "not-a-cube": "not_a_cube", "ambiguous-complete": "complete"}
COLUMNS = (("name", "i"), ("parent", "i"), ("op", "i"), ("start", "d"), ("end", "d"))


def span_name(module: str, fn: str) -> str:
    return module.rsplit(".", 1)[1].lstrip("_") + "." + fn


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    out = {}
    for module, fns in TRACED.items():
        for fn in fns:
            name = span_name(module, fn)
            out[name + ".calls"] = "count"
            out[name + ".self_s"] = "s"
            if name == "kernels.canonical_labeling":
                out[name + ".max_ms"] = "ms"
            if name.startswith("cubes.cube_root"):
                for outcome in ROOT_OUTCOMES.values():
                    out[f"{name}.{outcome}"] = "count"
    for layer in LAYERS:
        out[layer + ".self_s"] = "s"
    out["deck.accept_ratio"] = "ratio"
    for suite in SWEEP_CHECKED:
        out[f"harness.{suite}_s"] = "s"
    out["trace.spans"] = "count"
    out["trace.untraced_wall_s"] = "s"
    out["trace.traced_wall_s"] = "s"
    out["trace.overhead_ratio"] = "ratio"
    return out


class Tracer:
    """Records spans while installed; counts outcomes at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self.columns = {col: array(code) for col, code in COLUMNS}
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.max_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[list] = []  # [span index, time of traced children]
        self._undo: list = []

    def begin_op(self) -> None:
        self.op += 1

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        cols = self.columns
        c_name, c_parent, c_op = cols["name"], cols["parent"], cols["op"]
        c_start, c_end = cols["start"], cols["end"]
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(c_start)
            c_name.append(nid)
            c_parent.append(stack[-1][0] if stack else -1)
            c_op.append(self.op)
            c_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            start = clock()
            c_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                c_end[idx] = end
                stack.pop()
                duration = end - start
                self.self_s[name] += duration - frame[1]
                self.calls[name] += 1
                self.max_s[name] = max(self.max_s[name], duration)
                if stack:
                    stack[-1][1] += duration
            self._count(name, args, result, duration)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, name: str, args: tuple, result, duration: float) -> None:
        if name.startswith("cubes.cube_root"):
            self.counts[f"{name}.{ROOT_OUTCOMES[result.kind.value]}"] += 1
        elif name == "deck.reconstruct" and result.recognized:
            self.counts["deck.recognized"] += 1
        elif name == "harness.run_suite":
            self.counts[f"harness.{args[0]}_s"] += duration

    def install(self) -> None:
        spaces = [m for n, m in sys.modules.items() if n == "treecube" or n.startswith("treecube.")]
        for module_name, fns in TRACED.items():
            home = sys.modules[module_name]
            for fn in fns:
                original = getattr(home, fn)
                name = span_name(module_name, fn)
                if isinstance(original, type):
                    init = original.__init__
                    original.__init__ = self.wrap(name, init)
                    self._undo.append((original, "__init__", init))
                    continue
                wrapper = self.wrap(name, original)
                for space in spaces:
                    for attr, value in list(vars(space).items()):
                        if value is original:
                            setattr(space, attr, wrapper)
                            self._undo.append((space, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    def metrics(self) -> dict[str, float]:
        """Per-layer numbers of everything traced so far (0 where nothing ran)."""
        out: dict[str, float] = {name: 0 for name in metric_units()}
        for name in self.names:
            out[name + ".calls"] = self.calls[name]
            out[name + ".self_s"] = self.self_s[name]
            out[name.split(".", 1)[0] + ".self_s"] += self.self_s[name]
        out["kernels.canonical_labeling.max_ms"] = self.max_s["kernels.canonical_labeling"] * 1e3
        for key, value in self.counts.items():
            if key in out:
                out[key] = value
        checks = self.calls["deck.deck_check"]
        out["deck.accept_ratio"] = self.counts["deck.recognized"] / checks if checks else 0.0
        out["trace.spans"] = len(self.columns["start"])
        return out

    def write(self, path: Path) -> None:
        """Write the spans to ``path`` (raw columns) and ``path.json`` (header)."""
        with open(path, "wb") as f:
            for col, _ in COLUMNS:
                self.columns[col].tofile(f)
        header = {"names": self.names, "count": len(self.columns["start"]),
                  "columns": [list(c) for c in COLUMNS]}
        Path(f"{path}.json").write_text(json.dumps(header) + "\n")


def read_spans(path: Path) -> list[tuple[str, int, int, float, float]]:
    """Load spans written by ``Tracer.write`` as (name, parent, op, start, end)."""
    header = json.loads(Path(f"{path}.json").read_text())
    n = header["count"]
    cols = []
    with open(path, "rb") as f:
        for _, code in header["columns"]:
            col = array(code)
            col.fromfile(f, n)
            cols.append(col)
    names = header["names"]
    return [(names[a], b, c, d, e) for a, b, c, d, e in zip(*cols)]
