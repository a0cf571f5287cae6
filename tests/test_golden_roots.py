"""Golden cube roots: the serialized ``cube_root`` answers must not drift.

``data/golden_roots.jsonl`` holds one line per input, the sorted-key JSON of
``cube_root(G).to_dict()``, for the cube of every tree of order at most 10
(each relabeled with a fixed seed) and for K3..K12. A refactor of root
extraction must keep every line byte-identical: root edges, certificates and
the order of complete roots included.

Regenerate (only when the answers are meant to change) with
``PYTHONPATH=src python tests/test_golden_roots.py``.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from treecube.cubes import cube_root
from treecube.graphs import complete_graph, power, relabel
from treecube.trees import enumerate_trees

GOLDEN = Path(__file__).parent / "data" / "golden_roots.jsonl"
SEED = 20240


def golden_inputs():
    rng = random.Random(SEED)
    for p in range(1, 11):
        for T in enumerate_trees(p):
            perm = list(range(p))
            rng.shuffle(perm)
            yield relabel(power(T.graph, 3), perm)
    for p in range(3, 13):
        yield complete_graph(p)


def golden_lines() -> list[str]:
    return [json.dumps(cube_root(G).to_dict(), sort_keys=True) for G in golden_inputs()]


def test_cube_roots_match_golden_file():
    want = GOLDEN.read_text().splitlines()
    got = golden_lines()
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"golden line {i + 1} differs"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("\n".join(golden_lines()) + "\n")
