"""Command-line interface.

All inputs and outputs are JSON.  Composition is LEFT TO RIGHT throughout:
a map file for g composed with f as ``g then f``, and solver equations read
the same way (``solve-xgx`` solves x g x = f with x applied first).

Exit codes: 0 success (and verified where applicable), 1 no solution
(non-conjugate inputs), 2 input error, 3 verification failure.

Solutions other than PL maps have no finite knot list (their graphs have
infinitely many pieces), so they are emitted as sampled graphs at the
verification points plus a construction descriptor.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from decimal import Decimal

from . import __version__
from .automorphism import PLAutomorphism, compose, inverse, power
from .conjugacy import conjugation, solve_conjugacy, verify_pointwise
from .equations import (
    Word,
    commutator_decomposition,
    nth_root,
    solve_xgx,
    solve_word,
    word_automorphism,
)
from .oracle import measure_locate
from .rational import format_rational, parse_rational
from .samples import DEFAULT_SAMPLE_COUNT, default_samples
from .terrain import enumerate_color_sequences, realize, support_decompose

EXIT_OK = 0
EXIT_NO_SOLUTION = 1
EXIT_INPUT_ERROR = 2
EXIT_VERIFICATION_FAILED = 3


class InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reads negative rationals such as ``-3/2`` as values, not as options.

    argparse treats an argument that starts with ``-`` as an option unless it
    looks like a negative number, and by default only integers and decimals
    do.  Subparsers inherit the class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")


def _load(path: str, from_json_dict):
    """Read a JSON file, UTF-8 as RFC 8259 requires, and build a value with
    the class's ``from_json_dict``.  Integers are read exactly at any size."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh, parse_int=lambda digits: int(Decimal(digits)))
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from exc
    try:
        return from_json_dict(data)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _map(path: str) -> PLAutomorphism:
    return _load(path, PLAutomorphism.from_json_dict)


def _sample_count(text: str) -> int:
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"sample count must be at least 1; got {count}")
    return count


def _emit(payload: dict):
    print(json.dumps(payload, indent=2))


def _solution(x, samples, key: str) -> dict:
    """Construction descriptor and graph at the samples, the graph under ``key``."""
    return {"construction": getattr(x, "description", "piecewise-linear"),
            key: [{"x": format_rational(q), "y": format_rational(x.forward(q))}
                  for q in samples]}


def _report(payload: dict, lhs, rhs, samples) -> int:
    """Check lhs = rhs at the samples, emit the payload with the verdict, exit 0 or 3."""
    verified = verify_pointwise(lhs, rhs, samples)
    payload["verification"] = {"samples": len(samples), "verified": verified}
    _emit(payload)
    return EXIT_OK if verified else EXIT_VERIFICATION_FAILED


def _sample_set(args, *maps) -> list:
    terrains = tuple(support_decompose(m) for m in maps)
    try:
        return default_samples(args.samples, args.seed, terrains)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _mode(args) -> str:
    return args.mode.replace("-", "_")


def cmd_terrain(args) -> int:
    terrain = support_decompose(_map(args.map))
    _emit({"color_sequence": terrain.color_sequence(),
           "terrain": terrain.to_json_dict()})
    return EXIT_OK


def cmd_eval(args) -> int:
    g = _map(args.map)
    x = args.point
    y = g.backward(x) if args.inverse else g.forward(x)
    _emit({"x": format_rational(x), "y": format_rational(y)})
    return EXIT_OK


def cmd_conjugate(args) -> int:
    g, f = _map(args.g), _map(args.f)
    h = solve_conjugacy(g, f)
    if h is None:
        _emit({
            "conjugate": False,
            "color_sequences": {
                "g": support_decompose(g).color_sequence(),
                "f": support_decompose(f).color_sequence(),
            },
        })
        return EXIT_NO_SOLUTION
    samples = _sample_set(args, g, f)
    return _report({"conjugate": True, **_solution(h, samples, "solution_graph")},
                   conjugation(g, h), f, samples)


def cmd_solve_xgx(args) -> int:
    g, f = _map(args.g), _map(args.f)
    x = solve_xgx(g, f)
    samples = _sample_set(args, g, f, compose(f, g))
    return _report(_solution(x, samples, "solution_graph"),
                   compose(compose(x, g), x), f, samples)


def cmd_solve_word(args) -> int:
    word = _load(args.word, Word.from_json_dict)
    g = _map(args.g)
    try:
        assignment = solve_word(word, g)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    samples = _sample_set(args, g)
    return _report({"word": word.to_json_dict(),
                    "variables": {str(v): _solution(assignment[v], samples, "graph")
                                  for v in word.variables}},
                   word_automorphism(word, assignment), g, samples)


def cmd_root(args) -> int:
    g = _map(args.g)
    if args.n < 1:
        raise InputError("root order must be a positive integer")
    x = nth_root(g, args.n)
    samples = _sample_set(args, g)
    return _report({"n": args.n, **_solution(x, samples, "solution_graph")},
                   power(x, args.n), g, samples)


def cmd_commutator(args) -> int:
    g = _map(args.g)
    x, y = commutator_decomposition(g)
    samples = _sample_set(args, g)
    return _report({"x": _solution(x, samples, "graph"), "y": _solution(y, samples, "graph")},
                   compose(compose(compose(inverse(x), inverse(y)), x), y), g, samples)


def cmd_enumerate(args) -> int:
    if args.n < 1:
        raise InputError("terrain size must be a positive integer")
    seqs = enumerate_color_sequences(args.n)
    _emit({"n": args.n, "count": len(seqs), "sequences": seqs})
    return EXIT_OK


def cmd_realize(args) -> int:
    try:
        g = realize(args.sequence)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    roundtrip = support_decompose(g).color_sequence()
    _emit({
        "sequence": args.sequence,
        "automorphism": g.to_json_dict(),
        "roundtrip": roundtrip,
    })
    return EXIT_OK if roundtrip == args.sequence else EXIT_VERIFICATION_FAILED


def cmd_measure(args) -> int:
    g = _map(args.map)
    try:
        report = measure_locate(g, args.alpha, args.gamma, mode=_mode(args))
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    _emit(report.to_json_dict())
    return EXIT_OK


def _add_sample_flags(parser):
    parser.add_argument("--samples", type=_sample_count, default=DEFAULT_SAMPLE_COUNT,
                        help="number of verification sample points")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the randomized part of the sample set")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lineaut",
        description="Exact analysis and equation solving for order-automorphisms "
                    "of the line (composition is left to right).")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("terrain", help="support decomposition and color sequence")
    p.add_argument("map")
    p.set_defaults(func=cmd_terrain)

    p = sub.add_parser("eval", help="evaluate a map at a rational point")
    p.add_argument("map")
    p.add_argument("point", type=parse_rational)
    p.add_argument("--inverse", action="store_true", help="evaluate the inverse map")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("conjugate", help="decide conjugacy of g and f and build h "
                                         "with f = h^-1 g h")
    p.add_argument("g")
    p.add_argument("f")
    p.add_argument("--mode", choices=("linear", "fast-forward"), default="linear",
                   help="accepted for compatibility and ignored: h is evaluated by "
                        "one walk, at most 2|i| + 1 oracle calls at orbit index i")
    _add_sample_flags(p)
    p.set_defaults(func=cmd_conjugate)

    p = sub.add_parser("solve-xgx", help="solve x g x = f")
    p.add_argument("g")
    p.add_argument("f")
    _add_sample_flags(p)
    p.set_defaults(func=cmd_solve_xgx)

    p = sub.add_parser("solve-word", help="solve w(x_2, ..., x_n) = g for a reduced word")
    p.add_argument("word")
    p.add_argument("g")
    _add_sample_flags(p)
    p.set_defaults(func=cmd_solve_word)

    p = sub.add_parser("root", help="n-th root of a map")
    p.add_argument("g")
    p.add_argument("n", type=int)
    _add_sample_flags(p)
    p.set_defaults(func=cmd_root)

    p = sub.add_parser("commutator", help="write g as x^-1 y^-1 x y")
    p.add_argument("g")
    _add_sample_flags(p)
    p.set_defaults(func=cmd_commutator)

    p = sub.add_parser("enumerate-terrains", help="all color sequences of a given size")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("realize", help="build a map with a given color sequence")
    p.add_argument("sequence")
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("measure", help="orbit location cost report")
    p.add_argument("map")
    p.add_argument("--alpha", required=True, type=parse_rational, help="orbit anchor")
    p.add_argument("--gamma", required=True, type=parse_rational, help="query point")
    p.add_argument("--mode", choices=("linear", "fast-forward"), default="linear")
    p.set_defaults(func=cmd_measure)

    return parser


def _command_index(argv) -> int:
    """Position of the subcommand: the first argument that is not a global option."""
    i = 0
    while i < len(argv) and argv[i].startswith("-"):
        i += 1
    return i


# main's parser, built once per process: building it costs most of a short
# in-process command, and parsing leaves it unchanged
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    parser = _parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    # let color sequences such as "-+-" or "--" pass through as positionals,
    # unless the sequence already follows a "--" of its own
    i = _command_index(argv)
    rest = argv[i + 1:]
    if argv[i:i + 1] == ["realize"] and not (len(rest) > 1 and rest[0] == "--"):
        argv.insert(i + 1, "--")
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
