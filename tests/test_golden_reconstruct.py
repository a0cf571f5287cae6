"""Golden reconstructions: the serialized ``reconstruct`` reports must not drift.

``data/golden_reconstruct.jsonl`` holds one line per deck, the sorted-key
JSON of ``reconstruct(S).to_dict()``, for the cube of every tree of order 3
to 9 (each relabeled with a fixed seed), for K3..K8 and for the
recognition-negative corpus at order 9. A refactor of reconstruction must
keep every line byte-identical: the trace, the graph and tree edges (their
labels included) and the certificates.

Regenerate (only when the answers are meant to change) with
``PYTHONPATH=src python tests/test_golden_reconstruct.py``.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from treecube.deck import deck, reconstruct
from treecube.graphs import complete_graph, power, relabel
from treecube.harness import recognition_negative_corpus
from treecube.trees import enumerate_trees

GOLDEN = Path(__file__).parent / "data" / "golden_reconstruct.jsonl"
SEED = 20241


def golden_inputs():
    rng = random.Random(SEED)
    for p in range(3, 10):
        for T in enumerate_trees(p):
            perm = list(range(p))
            rng.shuffle(perm)
            yield relabel(power(T, 3), perm)
    for p in range(3, 9):
        yield complete_graph(p)
    yield from recognition_negative_corpus(9)


def golden_lines() -> list[str]:
    return [json.dumps(reconstruct(deck(G)).to_dict(), sort_keys=True) for G in golden_inputs()]


def test_reconstructions_match_golden_file():
    want = GOLDEN.read_text().splitlines()
    got = golden_lines()
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"golden line {i + 1} differs"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("\n".join(golden_lines()) + "\n")
