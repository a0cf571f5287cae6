"""Golden canonical labelings: certificates and orders must not drift.

``data/golden_canon.jsonl`` holds one line per input, the sorted-key JSON of
its certificate hex and the canonical order realizing it, both taken from one
``graphs._canonical`` labeling. The inputs are every tree of order at most 12
from ``enumerate_trees`` and the cube of each, both as enumerated and under
one seeded relabeling per tree. A change to the
labeling search (pruning included) must keep every line byte-identical: the
certificate and the labeling that realizes it.

Regenerate (only when the answers are meant to change) with
``PYTHONPATH=src python tests/test_golden_canon.py``.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from treecube.graphs import _canonical, power, relabel
from treecube.trees import enumerate_trees

GOLDEN = Path(__file__).parent / "data" / "golden_canon.jsonl"
SEED = 20246
MAX_ORDER = 12


def golden_inputs():
    rng = random.Random(SEED)
    for p in range(1, MAX_ORDER + 1):
        for i, T in enumerate(enumerate_trees(p)):
            perm = list(range(p))
            rng.shuffle(perm)
            for kind, G in (("tree", T), ("cube", power(T, 3))):
                yield {"p": p, "tree": i, "kind": kind, "relabeled": False}, G
                yield {"p": p, "tree": i, "kind": kind, "relabeled": True}, relabel(G, perm)


def golden_lines() -> list[str]:
    lines = []
    for key, G in golden_inputs():
        cert, order = _canonical(G)
        key["cert"] = cert.hex()
        key["order"] = list(order)
        lines.append(json.dumps(key, sort_keys=True))
    return lines


def test_canonical_labelings_match_golden_file():
    want = GOLDEN.read_text().splitlines()
    got = golden_lines()
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"golden line {i + 1} differs"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("\n".join(golden_lines()) + "\n")
