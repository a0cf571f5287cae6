"""treecube benchmark: three closed-loop workloads, every answer checked.

Usage, from the repository root:

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py            # every workload, untraced then traced

Workloads (one caller, pure-Python kernels, ``workers=1``, no threads):

* ``sweep``: the eight verify suites at their default orders, in one
  process. Most calls of the small-graph layers happen here.
* ``census``: thm32 at the enumeration cap, enumeration cold. Tree
  enumeration and certificates only: no ``cube_root`` and no deck call.
* ``queries``: parse + ``cube_root`` and parse + ``reconstruct``, one query
  at a time, with treecube's module caches emptied before each, on seeded
  inputs (see ``inputs.py``). Each query has a deadline; an overrun is a
  failed op.

One run sets up (import plus input generation, repeated; the median counts),
then runs whole passes for ``--seconds``. ``wall_s`` is one pass: each op's
median over the passes, summed. ``queries`` also reports the failed share and
root and reconstruct latency (median, and the highest percentile with ten
samples beyond it). The run prints every metric by name and unit, writes a
record with the run's environment under ``bench/out/``, and prints one JSON
object, with the metrics BENCHMARK.json lists, as its last line. With
``--trace 1`` untraced passes alternate with passes that record spans around
each layer's public functions (``spans.py``); it reports the per-layer
numbers and the tracing overhead. It exits 1 on a wrong answer and 2 when it
cannot run at all.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("sweep", "census", "queries")
SETUP_REPEATS = 5


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def load_treecube():
    """(Re-)import treecube from ``src`` with the pure-Python kernels."""
    for name in [n for n in sys.modules if n == "treecube" or n.startswith("treecube.")]:
        del sys.modules[name]
    return importlib.import_module("treecube")


def percentile_with_tail(values: list[float], tail: int = 10) -> tuple[int, float] | None:
    """Highest whole percentile with at least ``tail`` samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in range(99, 0, -1):
        k = -(-pct * n // 100) - 1
        if n - 1 - k >= tail:
            return pct, ordered[k]
    return None


def src_lines() -> int:
    """Hand-written lines under src/ (no generated C, no egg-info)."""
    total = 0
    for path in (ROOT / "src").rglob("*"):
        if (path.is_file() and path.suffix in (".py", ".pyx")
                and not any(part.endswith(".egg-info") for part in path.parts)):
            total += len(path.read_text().splitlines())
    return total


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


# ── one workload in this process ─────────────────────────────────────


def setup(workload: str, seed: int):
    """Import treecube and build the inputs, SETUP_REPEATS times each."""
    import_s, gen_s = [], []
    generated = None
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        tc = load_treecube()
        import_s.append(time.perf_counter() - start)
        start = time.perf_counter()
        made = inputs.make_queries(seed) if workload == "queries" else []
        gen_s.append(time.perf_counter() - start)
        if generated is not None and made != generated:
            fail("input generation is not deterministic")
        generated = made
    if tc._kernels.backend_name() != "python":
        fail(f"expected the pure-Python backend, got {tc._kernels.backend_name()!r}")
    return tc, generated, statistics.median(import_s) + statistics.median(gen_s)


def one_pass(workload: str, tc, queries, tracer=None):
    if workload == "sweep":
        return workloads.sweep_pass(tc, tracer)
    if workload == "census":
        return workloads.census_pass(tc, tracer)
    return workloads.queries_pass(tc, queries, tracer)


def latency(passes: list[list], kind: str) -> dict:
    """Median and tail in ms over every op of one kind in every pass.

    A failed op counts as slower than any limit.
    """
    values = [op.seconds if op.ok else float("inf")
              for ops in passes for op in ops if op.kind == kind]
    out = {f"{kind}_p50_ms": (statistics.median(values) * 1e3, "ms", f"{len(values)} samples")}
    tail = percentile_with_tail(values)
    if tail is not None:
        out[f"{kind}_tail_ms"] = (tail[1] * 1e3, "ms", f"p{tail[0]} of {len(values)} samples")
    return out


def pass_seconds(passes: list[list]) -> float:
    """Time of one pass: each op's median over the passes, summed.

    An overrun counts its full deadline.
    """
    return sum(statistics.median(p[i].seconds for p in passes) for i in range(len(passes[0])))


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, then run whole passes for ``seconds``.

    With ``trace``, untraced and traced passes alternate; the per-layer
    numbers come from the first traced pass, the overhead from the medians.
    """
    tc, queries, setup_s = setup(workload, seed)
    passes, pass_s, traced_s, tracers = [], [], [], []
    begin = time.perf_counter()
    while not pass_s or (time.perf_counter() - begin
                         + statistics.median(pass_s) + (statistics.median(traced_s) if trace else 0)
                         <= seconds):
        start = time.perf_counter()
        passes.append(one_pass(workload, tc, queries))
        pass_s.append(time.perf_counter() - start)
        if trace:
            tracers.append(spans.Tracer())
            tracers[-1].install()
            try:
                start = time.perf_counter()
                passes.append(one_pass(workload, tc, queries, tracers[-1]))
                traced_s.append(time.perf_counter() - start)
            finally:
                tracers[-1].uninstall()
    untraced = passes[::2] if trace else passes
    ops = [op for p in passes for op in p]
    metrics = {
        "setup_s": (setup_s, "s", f"median of {SETUP_REPEATS}"),
        "wall_s": (pass_seconds(untraced), "s", f"{len(untraced)} passes"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", ""),
        "failed_frac": (sum(not op.ok for op in ops) / len(ops), "ratio", f"{len(ops)} ops"),
    }
    if workload == "queries":
        metrics.update(latency(untraced, "root"))
        metrics.update(latency(untraced, "reconstruct"))
    if trace:
        layer = tracers[0].metrics()
        layer["trace.untraced_wall_s"] = statistics.median(pass_s)
        layer["trace.traced_wall_s"] = statistics.median(traced_s)
        layer["trace.overhead_ratio"] = layer["trace.traced_wall_s"] / layer["trace.untraced_wall_s"] - 1
        metrics.update((name, (layer[name], unit, "")) for name, unit in spans.metric_units().items())
    return {
        "correct": all(op.ok or op.overrun for op in ops),
        "attempted": len(ops),
        "failed": sum(not op.ok for op in ops),
        "pass_s": pass_s,
        "op_s": [[op.seconds for op in p] for p in untraced],
        "first_pass": [vars(op) for op in passes[0]],
        "metrics": metrics,
        "tracer": tracers[0] if trace else None,
    }


def run_one(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    env = {"git_sha": git_sha(), "python": platform.python_version(),
           "nproc": os.cpu_count(), "src_lines": src_lines(), "backend": "python"}
    print(f"workload {args.workload}  seed {args.seed}  passes {len(result['pass_s'])}  "
          f"attempted {result['attempted']}  failed {result['failed']}")
    print("  " + "  ".join(f"{k} {v}" for k, v in env.items()))
    for op in result["first_pass"]:
        if not op["ok"]:
            what = "overrun" if op["overrun"] else (op["error"] or "wrong answer")
            print(f"  FAILED {op['kind']} {op['name']}: {what} after {op['seconds']:.3f}s")
    for name, (value, unit, note) in result["metrics"].items():
        print(f"  {name:44s} {value:14.6f} {unit} {note}".rstrip())
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "environment": env, **{k: result[k] for k in ("correct", "attempted", "failed",
                                                            "pass_s", "op_s", "first_pass")},
              "metrics": {k: {"value": v, "unit": u, "note": n}
                          for k, (v, u, n) in result["metrics"].items()}}
    (OUT / f"{stem}.result.json").write_text(json.dumps(record, indent=1) + "\n")
    if result["tracer"] is not None:
        result["tracer"].write(OUT / f"{stem}.spans")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": result["metrics"][m["name"]][0], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced."""
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            sys.stdout.write("\n".join(done.stdout.splitlines()[:-1]) + "\n")
            status = max(status, done.returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "treecube" / "__init__.py").is_file():
        fail(f"treecube sources not found under {ROOT / 'src'}")
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.workload is None:
        return run_all(args)
    return run_one(args)


os.environ["TREECUBE_PURE_PYTHON"] = "1"
sys.path.insert(0, str(ROOT / "src"))
import inputs  # noqa: E402  (bench/ is on sys.path as the script's directory)
import spans  # noqa: E402
import workloads  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
