"""Command-line front door.

Exit codes: 0 success, 1 validation error, 2 resource or budget error,
3 property violation in a verification suite.  Budgets come from flags,
falling back to POSETCODES_ORBIT_BUDGET / POSETCODES_COSET_BUDGET and then
to the built-in defaults.  The orbit budget bounds the codes an orbit
walk admits, and so its work: the walk of U.C, U the unipotent part,
takes at most one canonicalisation per code plus one per strict
relation, and each later code at most one monomial image per generator
of Aut(P) and coordinate, plus one.  A primary decomposition on a
hierarchical poset is taken in closed form with no walk, so the orbit
budget never stops it.
The coset budget bounds the q^(n_i) vectors a table build scans for each
component.  Every command but ``verify`` checks both budgets before it
starts; ``verify`` runs its suites at their own budgets, so it refuses
both budget flags and both budget environment variables.
Vectors on the command line are comma-separated residues; coordinates are
1-based.
"""

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import dataclass

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


@dataclass
class RunConfig:
    orbit_budget: int
    coset_budget: int
    seed: int
    output_format: str

    def to_json_dict(self) -> dict:
        return {
            "orbit_budget": self.orbit_budget,
            "coset_budget": self.coset_budget,
            "seed": self.seed,
            "format": self.output_format,
        }


def _env_int(name: str, fallback: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError as exc:
        raise ValidationError(f"environment variable {name}={raw!r} is not an integer") from exc


def _config(args) -> RunConfig:
    config = RunConfig(
        orbit_budget=args.orbit_budget
        if args.orbit_budget is not None
        else _env_int("POSETCODES_ORBIT_BUDGET", search.DEFAULT_ORBIT_BUDGET),
        coset_budget=args.coset_budget
        if args.coset_budget is not None
        else _env_int("POSETCODES_COSET_BUDGET", decoder.COSET_BUDGET),
        seed=args.seed,
        output_format=args.format,
    )
    for name in ("orbit_budget", "coset_budget"):
        if getattr(config, name) <= 0:
            raise ValidationError(f"{name} must be positive")
    return config


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
    config = args.config
    if args.primary:
        pd = search.primary_decomposition(code, poset, orbit_budget=config.orbit_budget)
        payload = {"config": config.to_json_dict(), "primary": pd.to_json_dict()}
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
        payload = {"config": config.to_json_dict(), "decomposition": dec.to_json_dict()}
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
    config = args.config
    bounds = search.hierarchy_bounds(code, poset, orbit_budget=config.orbit_budget)
    payload = {"config": config.to_json_dict(), "bounds": bounds.to_json_dict()}
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
    config = args.config
    pd = search.primary_decomposition(code, poset, orbit_budget=config.orbit_budget)
    table = decoder.build_table(pd, poset, config.coset_budget)
    stats = decoder.table_stats(table)
    if args.stats_only:
        emit(
            args,
            {"config": config.to_json_dict(), "stats": stats},
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
        "config": config.to_json_dict(),
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


def _refinement_witness(args):
    if not args.p or not args.q_poset:
        raise ValidationError("refinement-witness needs --p and --q-poset")
    return suites.refinement_witness_suite(
        finer=load_poset(args.p), coarser=load_poset(args.q_poset), q=args.q
    )


# Suite name -> call.  Each entry looks its suite up in ``suites`` when run.
VERIFY_SUITES = {
    "metric": lambda a: suites.metric_suite(
        n=a.n, q=a.q, posets=a.samples, seed=a.seed
    ),
    "partition": lambda a: suites.partition_suite(max_n=a.n),
    "profile": lambda a: suites.profile_suite(
        n=a.n, q=a.q, samples=a.samples, seed=a.seed
    ),
    "monotone": lambda a: suites.monotonicity_suite(
        n=a.n, q=a.q, samples=a.samples, seed=a.seed
    ),
    "bounds": lambda a: suites.bounds_suite(
        n=a.n, q=a.q, samples=a.samples, seed=a.seed
    ),
    "neighbours": lambda a: suites.neighbour_suite(n=a.n),
    "refinement-witness": _refinement_witness,
}


def cmd_verify(args) -> int:
    if args.orbit_budget is not None or args.coset_budget is not None:
        raise ValidationError("verify takes no --orbit-budget or --coset-budget")
    for name in ("POSETCODES_ORBIT_BUDGET", "POSETCODES_COSET_BUDGET"):
        if name in os.environ:
            raise ValidationError(f"verify takes no {name}; unset it to run the suites")
    start = time.monotonic()
    report = VERIFY_SUITES[args.suite](args)
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
    """Argument errors map to the validation exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


def _add_common_options(parser, suppress: bool) -> None:
    defaults = argparse.SUPPRESS if suppress else None
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default=defaults if suppress else "text",
    )
    parser.add_argument("--seed", type=int, default=defaults if suppress else 1)
    parser.add_argument("--orbit-budget", type=int, default=defaults)
    parser.add_argument("--coset-budget", type=int, default=defaults)


@functools.cache  # built once per process; parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="posetcodes",
        description="Linear codes with poset metrics: decomposition, bounds, decoding.",
    )
    _add_common_options(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    poset_cmd = sub.add_parser("poset", help="inspect posets")
    poset_sub = poset_cmd.add_subparsers(dest="subcommand", required=True)
    info = poset_sub.add_parser("info")
    info.add_argument("poset")
    info.set_defaults(handler=cmd_poset_info)
    neighbours = poset_sub.add_parser("neighbours")
    neighbours.add_argument("poset")
    neighbours.set_defaults(handler=cmd_poset_neighbours)
    dot = poset_sub.add_parser("dot")
    dot.add_argument("poset")
    dot.set_defaults(handler=cmd_poset_dot)
    compare = poset_sub.add_parser("compare")
    compare.add_argument("first")
    compare.add_argument("second")
    compare.set_defaults(handler=cmd_poset_compare)

    analyze = sub.add_parser("analyze", help="weights, distances, decompositions, bounds")
    analyze_sub = analyze.add_subparsers(dest="subcommand", required=True)
    weight = analyze_sub.add_parser("weight")
    weight.add_argument("poset")
    weight.add_argument("--x", required=True)
    weight.add_argument("--q", type=int, default=2)
    weight.set_defaults(handler=cmd_analyze_weight)
    mindist = analyze_sub.add_parser("mindist")
    mindist.add_argument("poset")
    mindist.add_argument("code")
    mindist.set_defaults(handler=cmd_analyze_mindist)
    decompose = analyze_sub.add_parser("decompose")
    decompose.add_argument("poset")
    decompose.add_argument("code")
    decompose.add_argument("--primary", action="store_true")
    decompose.set_defaults(handler=cmd_analyze_decompose)
    bounds = analyze_sub.add_parser("bounds")
    bounds.add_argument("poset")
    bounds.add_argument("code")
    bounds.set_defaults(handler=cmd_analyze_bounds)

    decode_cmd = sub.add_parser("decode", help="syndrome decoding")
    decode_cmd.add_argument("poset")
    decode_cmd.add_argument("code")
    decode_cmd.add_argument("--y", default=None)
    decode_cmd.add_argument("--stats-only", action="store_true")
    decode_cmd.set_defaults(handler=cmd_decode)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("suite", choices=tuple(VERIFY_SUITES))
    verify.add_argument("--n", type=int, default=4)
    verify.add_argument("--q", type=int, default=2)
    verify.add_argument("--samples", type=int, default=50)
    verify.add_argument("--p", default=None, help="finer poset (refinement-witness)")
    verify.add_argument("--q-poset", default=None, help="coarser poset (refinement-witness)")
    verify.set_defaults(handler=cmd_verify)

    for leaf in (
        info, neighbours, dot, compare,
        weight, mindist, decompose, bounds,
        decode_cmd, verify,
    ):
        _add_common_options(leaf, suppress=True)

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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_joined_vectors(sys.argv[1:] if argv is None else argv))
    try:
        if args.command != "verify":  # verify refuses budgets; see cmd_verify
            args.config = _config(args)
        return args.handler(args)
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
