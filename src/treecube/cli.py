"""Command-line surface: powers, roots, decks, reconstruction, sweeps.

Exit codes: 0 pass/recognized, 1 fail/not-recognized, 2 usage, 3 parse.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .cubes import RootKind, cube_root
from .deck import deck, deck_to_text, parse_deck, recognize, reconstruct
from .errors import EnumerationLimitError, GraphParseError, OrderTooSmallError
from .graphs import parse_graph, power, serialize_graph
from .harness import SUITES, collide, run_suite

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_PARSE = 3


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _write(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _write_json(result, path: str | None) -> None:
    # serialize only on request: a root's certificate is a canonical labeling
    if path:
        Path(path).write_text(json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n")


def _cmd_power(args) -> int:
    G = parse_graph(_read(args.input), fmt=args.format)
    out_fmt = args.format or "edgelist"
    _write(serialize_graph(power(G, args.k), out_fmt), args.output)
    return EXIT_PASS


def _cmd_root(args) -> int:
    G = parse_graph(_read(args.input), fmt=args.format)
    result = cube_root(G)
    _write_json(result, args.json)
    if result.kind is RootKind.UNIQUE:
        print("unique root")
        print("  edges:", result.tree.edge_list())
        return EXIT_PASS
    if result.kind is RootKind.AMBIGUOUS_COMPLETE:
        print(f"complete graph: ambiguous root ({len(result.roots)} trees of diameter < 4)")
        for T in result.roots:
            print("  edges:", T.edge_list())
        return EXIT_PASS
    print("not the cube of a tree")
    return EXIT_FAIL


def _cmd_deck(args) -> int:
    G = parse_graph(_read(args.input), fmt=args.format)
    _write(deck_to_text(deck(G), fmt=args.format or "edgelist"), args.output)
    return EXIT_PASS


def _cmd_reconstruct(args) -> int:
    S = parse_deck(_read(args.input))
    report = reconstruct(S)
    _write_json(report, args.json)
    for step in report.trace:
        print("*", step)
    if report.recognized:
        print("recognized: reconstruction is unique up to isomorphism")
        _write(serialize_graph(report.graph, args.format or "edgelist"), args.output)
        return EXIT_PASS
    print("not recognized: deck does not belong to a tree cube")
    return EXIT_FAIL


def _cmd_recognize(args) -> int:
    S = parse_deck(_read(args.input))
    ok = recognize(S)
    print("true" if ok else "false")
    return EXIT_PASS if ok else EXIT_FAIL


def _cmd_verify(args) -> int:
    report = run_suite(args.suite, args.max_order, workers=args.workers)
    _write_json(report, args.json)
    print(f"suite {report.suite}  max order {report.max_order}  "
          f"checked {report.checked}  failures {len(report.failures)}  "
          f"elapsed {report.elapsed:.2f}s")
    for f in report.failures:
        print("  counterexample:", json.dumps(f, sort_keys=True))
    print("PASS" if report.passed else "FAIL")
    return EXIT_PASS if report.passed else EXIT_FAIL


def _cmd_collide(args) -> int:
    result = collide(args.n, args.max_order, args.require_noncomplete)
    _write_json(result, args.json)
    print(f"power {result.n}  max order {result.max_order}  "
          f"{len(result.pairs)} colliding pair(s)")
    for pair in result.pairs:
        tag = "complete" if pair.complete else "non-complete"
        print(f"  {pair.tree1.edge_list()}  ~  {pair.tree2.edge_list()}  [{tag}]")
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treecube",
        description="Tree cubes: powers, cube roots, decks, and exhaustive verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, output=False):
        p.add_argument("--format", choices=["edgelist", "graph6"], default=None,
                       help="graph text format (default: auto-detect input, edge list output)")
        if output:
            p.add_argument("-o", "--output", default=None, help="output file (default stdout)")

    p = sub.add_parser("power", help="write the k-th power of a graph")
    p.add_argument("input", help="graph file, '-' for stdin")
    p.add_argument("-k", type=int, required=True, help="power index (k >= 1)")
    add_common(p, output=True)
    p.set_defaults(func=_cmd_power)

    p = sub.add_parser("root", help="extract the tree cube root")
    p.add_argument("input", help="graph file, '-' for stdin")
    p.add_argument("--json", default=None, help="write a JSON report to this path")
    add_common(p)
    p.set_defaults(func=_cmd_root)

    p = sub.add_parser("deck", help="write the deck of a graph")
    p.add_argument("input", help="graph file, '-' for stdin")
    add_common(p, output=True)
    p.set_defaults(func=_cmd_deck)

    p = sub.add_parser("reconstruct", help="rebuild a tree cube from its deck")
    p.add_argument("input", help="deck file, '-' for stdin")
    p.add_argument("--json", default=None, help="write a JSON report to this path")
    add_common(p, output=True)
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("recognize", help="does the deck belong to a tree cube?")
    p.add_argument("input", help="deck file, '-' for stdin")
    p.set_defaults(func=_cmd_recognize)

    p = sub.add_parser("verify", help="run an exhaustive verification sweep")
    p.add_argument("suite", choices=list(SUITES))
    p.add_argument("--max-order", type=int, default=None,
                   help="largest tree order to sweep (suite-specific default)")
    p.add_argument("--workers", type=int, default=None,
                   help="parallel workers (default: available cores)")
    p.add_argument("--json", default=None, help="write a JSON report to this path")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("collide", help="search for isomorphic n-th powers of distinct trees")
    p.add_argument("--n", type=int, required=True, help="power index (n >= 2)")
    p.add_argument("--max-order", type=int, default=10)
    p.add_argument("--require-noncomplete", action="store_true",
                   help="report only pairs whose common power is not complete")
    p.add_argument("--json", default=None, help="write a JSON report to this path")
    p.set_defaults(func=_cmd_collide)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except GraphParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except FileNotFoundError as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (OrderTooSmallError, EnumerationLimitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
