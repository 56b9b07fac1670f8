"""Command-line front door.

Exit codes: 0 success, 1 validation error, 2 resource or budget error,
3 property violation in a verification suite, 141 (128 + SIGPIPE) when
standard output is closed before the output is written, with nothing on
stderr.  Each option is declared once, in ``_OPTIONS``, and each command
takes, after its name, only the options its handler reads; argparse
refuses any other, and an option before the command's name, with one
``error:`` line.  Budgets come from flags alone: ``--orbit-budget`` on
the commands that walk an orbit, ``--coset-budget`` on ``decode``, each
a positive integer.  The orbit budget bounds the codes an orbit
walk admits, and so its work: the walk of U.C, U the unipotent part,
takes at most one canonicalisation per code plus one per strict
relation, and each later code at most one monomial image per generator
of Aut(P) and coordinate, plus one.  A primary decomposition on a
hierarchical poset is taken in closed form with no walk, so the orbit
budget never stops it.
The coset budget bounds the q^(n_i) vectors a table build scans for each
component.  The ``verify`` suites run at their own budgets.
Vectors on the command line are comma-separated residues; coordinates are
1-based.
"""

import argparse
import functools
import json
import os
import sys
import time

from . import decoder, search, suites
from .code import LinearCode, _check_length
from .decomposition import maximal_decomposition
from .errors import ResourceLimitError, ValidationError
from .field import parse_vector
from .metric import min_pdistance, pweight
from .poset import Poset, make_family

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RESOURCE = 2
EXIT_VIOLATION = 3
EXIT_CLOSED_OUTPUT = 141


def load_poset(spec: str) -> Poset:
    """A poset from a JSON file or a family spec such as ``chain:4`` or
    ``hierarchical:2,2``."""
    if ":" in spec and not os.path.exists(spec):
        kind, _, arg = spec.partition(":")
        try:
            sizes = tuple(int(part) for part in arg.split(","))
        except ValueError as exc:
            raise ValidationError(
                f"poset spec {spec!r} needs comma-separated integers after the colon"
            ) from exc
        n = sizes[0] if len(sizes) == 1 else None
        return make_family(kind, n=n, type_vector=sizes)
    return Poset.from_json_dict(_read_json(spec))


def load_code(path: str) -> LinearCode:
    return LinearCode.from_json_dict(_read_json(path))


def _read_json(path: str):
    """The JSON document in a file; text that is not UTF-8, not JSON, holds
    an int past the digit limit or nests too deeply is a ValidationError."""
    with open(path, encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except (ValueError, RecursionError) as exc:
            raise ValidationError(f"{path} is not a readable JSON document: {exc}") from exc


def emit(args, payload: dict, text_lines) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


# -- poset commands ----------------------------------------------------


def cmd_poset_info(args) -> int:
    poset = load_poset(args.poset)
    ls = poset.level_structure()
    hset = sorted(poset.hierarchical_levels())
    payload = {
        "n": poset.n,
        "covers": [list(c) for c in poset.covers()],
        "heights": list(ls.heights),
        "levels": [sorted(lv) for lv in ls.levels],
        "type": list(ls.type_vector),
        "hierarchical_levels": hset,
        "hierarchical": poset.is_hierarchical(),
    }
    emit(
        args,
        payload,
        [
            f"n = {poset.n}",
            f"type = {tuple(ls.type_vector)}",
            "levels = " + "; ".join(str(sorted(lv)) for lv in ls.levels),
            f"hierarchical levels = {hset}",
            f"hierarchical = {poset.is_hierarchical()}",
        ],
    )
    return EXIT_OK


def cmd_poset_neighbours(args) -> int:
    poset = load_poset(args.poset)
    upper = search.upper_neighbour(poset)
    lower = search.lower_neighbour(poset)
    payload = {"upper": upper.to_json_dict(), "lower": lower.to_json_dict()}
    emit(
        args,
        payload,
        [
            f"upper = {json.dumps(upper.to_json_dict())}",
            f"lower = {json.dumps(lower.to_json_dict())}",
        ],
    )
    return EXIT_OK


def cmd_poset_dot(args) -> int:
    print(load_poset(args.poset).to_dot())
    return EXIT_OK


def cmd_poset_compare(args) -> int:
    first = load_poset(args.first)
    second = load_poset(args.second)
    forward = first.is_finer_than(second)
    backward = second.is_finer_than(first)
    payload = {"first_finer": forward, "second_finer": backward, "equal": first == second}
    emit(
        args,
        payload,
        [f"first <= second: {forward}", f"second <= first: {backward}"],
    )
    return EXIT_OK


# -- analysis commands ---------------------------------------------------


def cmd_analyze_weight(args) -> int:
    poset = load_poset(args.poset)
    x = parse_vector(args.x, args.q)
    value = pweight(poset, x)
    emit(args, {"weight": value}, [f"weight = {value}"])
    return EXIT_OK


def cmd_analyze_mindist(args) -> int:
    poset = load_poset(args.poset)
    code = load_code(args.code)
    value = min_pdistance(poset, code)
    emit(args, {"min_distance": value}, [f"minimal distance = {value}"])
    return EXIT_OK


def cmd_analyze_decompose(args) -> int:
    poset = load_poset(args.poset)
    code = load_code(args.code)
    config = {"orbit_budget": args.orbit_budget}
    if args.primary:
        pd = search.primary_decomposition(code, poset, orbit_budget=args.orbit_budget)
        payload = {"config": config, "primary": pd.to_json_dict()}
        emit(
            args,
            payload,
            [
                f"complexity = {pd.complexity}",
                f"profile = {pd.dec.profile()}",
                f"witness sigma = {pd.witness.sigma}",
                f"witness matrix = {[list(r) for r in pd.witness.matrix_rows]}",
            ],
        )
    else:
        _check_length(code, poset)
        dec = maximal_decomposition(code)
        payload = {"config": config, "decomposition": dec.to_json_dict()}
        emit(
            args,
            payload,
            [
                f"components = {[sorted(c.support()) for c in dec.components]}",
                f"profile = {dec.profile()}",
                f"complexity = {dec.complexity()}",
            ],
        )
    return EXIT_OK


def cmd_analyze_bounds(args) -> int:
    poset = load_poset(args.poset)
    code = load_code(args.code)
    bounds = search.hierarchy_bounds(code, poset, orbit_budget=args.orbit_budget)
    payload = {"config": {"orbit_budget": args.orbit_budget}, "bounds": bounds.to_json_dict()}
    emit(
        args,
        payload,
        [
            f"upper-neighbour complexity = {bounds.o_upper}",
            f"poset complexity = {bounds.o_p}",
            f"lower-neighbour complexity = {bounds.o_lower}",
            f"sandwich holds = {bounds.sandwich_ok}",
        ],
    )
    return EXIT_OK


# -- decoding -------------------------------------------------------------


def cmd_decode(args) -> int:
    poset = load_poset(args.poset)
    code = load_code(args.code)
    config = {"orbit_budget": args.orbit_budget, "coset_budget": args.coset_budget}
    pd = search.primary_decomposition(code, poset, orbit_budget=args.orbit_budget)
    table = decoder.build_table(pd, poset, args.coset_budget)
    stats = decoder.table_stats(table)
    if args.stats_only:
        emit(
            args,
            {"config": config, "stats": stats},
            [
                f"total entries = {stats['total']}",
                f"complexity = {stats['complexity']}",
                f"matches complexity = {stats['matches_complexity']}",
            ],
        )
        return EXIT_OK
    if args.y is None:
        raise ValidationError("decode needs --y RECEIVED or --stats-only")
    y = parse_vector(args.y, code.q)
    word, flags = decoder.decode(table, y)
    payload = {
        "config": config,
        "codeword": list(word),
        "flags": list(flags),
        "stats": stats,
    }
    emit(
        args,
        payload,
        [
            f"codeword = {','.join(str(v) for v in word)}",
            f"flags = {list(flags)}",
            f"table entries = {stats['total']}",
        ],
    )
    return EXIT_OK


# -- verification ----------------------------------------------------------

_SAMPLED = ("--n", "--q", "--samples", "--seed")

# Suite name -> the options it takes, then its call.  Each call looks its
# suite up in ``suites`` when run.
VERIFY_SUITES = {
    "metric": (_SAMPLED, lambda a: suites.metric_suite(
        n=a.n, q=a.q, posets=a.samples, seed=a.seed
    )),
    "partition": (("--n",), lambda a: suites.partition_suite(max_n=a.n)),
    "profile": (_SAMPLED, lambda a: suites.profile_suite(
        n=a.n, q=a.q, samples=a.samples, seed=a.seed
    )),
    "monotone": (_SAMPLED, lambda a: suites.monotonicity_suite(
        n=a.n, q=a.q, samples=a.samples, seed=a.seed
    )),
    "bounds": (_SAMPLED, lambda a: suites.bounds_suite(
        n=a.n, q=a.q, samples=a.samples, seed=a.seed
    )),
    "neighbours": (("--n",), lambda a: suites.neighbour_suite(n=a.n)),
    "refinement-witness": (("--p", "--q-poset", "--q"), lambda a: (
        suites.refinement_witness_suite(
            finer=load_poset(a.p), coarser=load_poset(a.q_poset), q=a.q
        )
    )),
}


def cmd_verify(args) -> int:
    start = time.monotonic()
    report = VERIFY_SUITES[args.suite][1](args)
    report.elapsed = time.monotonic() - start
    payload = report.to_json_dict()
    emit(
        args,
        payload,
        [
            f"suite = {report.name}",
            f"checked = {report.checked}",
            f"seed = {report.seed}",
            *report.details,
            f"result = {'pass' if report.ok else 'FAIL'}",
        ]
        + ([f"counterexample = {json.dumps(report.counterexample)}"] if report.counterexample else []),
    )
    return EXIT_OK if report.ok else EXIT_VIOLATION


# -- parser ------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument error is one ``error:`` line and the validation exit code.
    ``commands`` maps each command name to its parser on a parser whose
    next argument names a command."""

    commands = None

    def add_subparsers(self, **kwargs):
        action = super().add_subparsers(**kwargs)
        self.commands = action.choices
        return action

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


# Option -> its settings; each command names the options it takes.
_OPTIONS = {
    "--format": dict(choices=("text", "json"), default="text"),
    "--orbit-budget": dict(type=_positive_int, default=search.DEFAULT_ORBIT_BUDGET),
    "--coset-budget": dict(type=_positive_int, default=decoder.COSET_BUDGET),
    "--primary": dict(action="store_true"),
    "--x": dict(required=True),
    "--y": dict(),
    "--stats-only": dict(action="store_true"),
    "--n": dict(type=int, default=4),
    "--q": dict(type=int, default=2),
    "--samples": dict(type=int, default=50),
    "--seed": dict(type=int, default=1),
    "--p": dict(required=True, help="finer poset"),
    "--q-poset": dict(required=True, help="coarser poset"),
}


def _command(parser, handler, positionals, options=("--format",)) -> None:
    for name in positionals:
        parser.add_argument(name)
    for option in options:
        parser.add_argument(option, **_OPTIONS[option])
    parser.set_defaults(handler=handler)


@functools.cache  # built once per process; parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="posetcodes",
        description="Linear codes with poset metrics: decomposition, bounds, decoding.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    pair = ("poset", "code")

    poset_sub = sub.add_parser("poset", help="inspect posets").add_subparsers(
        dest="subcommand", required=True
    )
    _command(poset_sub.add_parser("info"), cmd_poset_info, ("poset",))
    _command(poset_sub.add_parser("neighbours"), cmd_poset_neighbours, ("poset",))
    _command(poset_sub.add_parser("dot"), cmd_poset_dot, ("poset",), ())
    _command(poset_sub.add_parser("compare"), cmd_poset_compare, ("first", "second"))

    analyze_sub = sub.add_parser(
        "analyze", help="weights, distances, decompositions, bounds"
    ).add_subparsers(dest="subcommand", required=True)
    _command(analyze_sub.add_parser("weight"), cmd_analyze_weight, ("poset",),
             ("--x", "--q", "--format"))
    _command(analyze_sub.add_parser("mindist"), cmd_analyze_mindist, pair)
    _command(analyze_sub.add_parser("decompose"), cmd_analyze_decompose, pair,
             ("--primary", "--orbit-budget", "--format"))
    _command(analyze_sub.add_parser("bounds"), cmd_analyze_bounds, pair,
             ("--orbit-budget", "--format"))

    _command(sub.add_parser("decode", help="syndrome decoding"), cmd_decode, pair,
             ("--y", "--stats-only", "--orbit-budget", "--coset-budget", "--format"))

    verify_sub = sub.add_parser("verify", help="run a verification suite").add_subparsers(
        dest="suite", required=True
    )
    for name, (options, _) in VERIFY_SUITES.items():
        _command(verify_sub.add_parser(name), cmd_verify, (), (*options, "--format"))

    return parser


def _joined_vectors(argv) -> list:
    """The arguments with ``--x`` or ``--y`` and a vector that starts with a
    minus joined as ``--y=-1,0,1``: argparse would read such a vector after
    a space as an unknown option."""
    out = []
    for token in argv:
        if out and out[-1] in ("--x", "--y") and token[:1] == "-" and token[1:2].isdigit():
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _option_before_command(parser, argv):
    """The first option in ``argv`` that comes before the command's full
    name, as ``--format`` in ``--format json poset info``; None if there
    is none or the words before it name no command."""
    for token in argv:
        if parser.commands is None or token in ("-h", "--help"):
            return None
        if token.startswith("-"):
            return token
        parser = parser.commands.get(token)
        if parser is None:
            return None
    return None


def _drop_stdout() -> None:
    """Point standard output at the null device, so that the flush at exit
    meets no closed pipe."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def main(argv=None) -> int:
    parser = build_parser()
    argv = _joined_vectors(sys.argv[1:] if argv is None else argv)
    option = _option_before_command(parser, argv)
    if option is not None:
        parser.error(f"option {option} comes before the command; options go after the command's name")
    args = parser.parse_args(argv)
    try:
        status = args.handler(args)
        sys.stdout.flush()  # a closed stdout shows here, not at exit
        return status
    except BrokenPipeError:
        _drop_stdout()
        return EXIT_CLOSED_OUTPUT
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ResourceLimitError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        if exc.partial_result is not None:
            print(
                json.dumps({"partial": exc.partial_result.to_json_dict()}, indent=2),
                file=sys.stderr,
            )
        return EXIT_RESOURCE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
