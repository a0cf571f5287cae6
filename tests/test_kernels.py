"""The pure-Python kernels on a fixed corpus, and the names callers rely on."""

import itertools
import random

from treecube import _kernels


def adj_masks(p, edges):
    a = [0] * p
    for u, v in edges:
        a[u] |= 1 << v
        a[v] |= 1 << u
    return a


def corpus():
    rng = random.Random(101)
    out = []
    for p in range(0, 12):
        path = [(i, i + 1) for i in range(p - 1)]
        out.append((p, path))
        if p >= 3:
            out.append((p, path + [(0, p - 1)]))
            out.append((p, [(0, i) for i in range(1, p)]))
            out.append((p, [(u, v) for u in range(p) for v in range(u + 1, p)]))
    for _ in range(80):
        p = rng.randint(1, 13)
        edges = [e for e in itertools.combinations(range(p), 2) if rng.random() < 0.4]
        out.append((p, edges))
    return out


CORPUS = corpus()


def test_backend_is_pure_python():
    assert _kernels.backend_name() == "python"


def test_kernel_names_stay_on_the_module():
    # callers and the benchmark tracer look these up on treecube._kernels
    for name in ("canonical_labeling", "all_pairs_distances", "maximal_cliques"):
        assert callable(getattr(_kernels, name))


def test_python_kernels_handle_large_orders():
    p = 70
    edges = [(i, i + 1) for i in range(p - 1)]
    a = adj_masks(p, edges)
    d = _kernels.all_pairs_distances(p, a)
    assert d[0][p - 1] == p - 1
    bits, perm = _kernels.canonical_labeling(p, a)
    assert sorted(perm) == list(range(p))
    assert len(_kernels.maximal_cliques(p, a)) == p - 1


def test_canonical_labeling_realizes_bits():
    for p, edges in CORPUS:
        if p == 0:
            continue
        a = adj_masks(p, edges)
        bits, perm = _kernels.canonical_labeling(p, a)
        out = bytearray()
        acc = nbits = 0
        for i in range(p):
            ai = a[perm[i]]
            for j in range(i + 1, p):
                acc = (acc << 1) | (ai >> perm[j] & 1)
                nbits += 1
                if nbits == 8:
                    out.append(acc)
                    acc = nbits = 0
        if nbits:
            out.append(acc << (8 - nbits))
        assert bytes(out) == bits


def test_bfs_unreachable_marker():
    a = adj_masks(4, [(0, 1), (2, 3)])
    d = _kernels.all_pairs_distances(4, a)
    assert d[0][2] == -1 and d[1][3] == -1 and d[0][1] == 1
