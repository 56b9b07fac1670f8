import argparse
import contextlib
import io
import json
import os
import random
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import posetcodes
from posetcodes import cli, suites
from posetcodes.field import MAX_MODULUS
from posetcodes.poset import MAX_GROUND_SET
from posetcodes.suites import SUITE_CHECKS, SuiteReport

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # only the fuzz tests need hypothesis
    given = None


@pytest.fixture
def files(tmp_path):
    n_poset = tmp_path / "n_poset.json"
    n_poset.write_text(json.dumps({"n": 4, "covers": [[1, 3], [1, 4], [2, 4]]}))
    chain4 = tmp_path / "chain4.json"
    chain4.write_text(json.dumps({"n": 4, "covers": [[1, 2], [2, 3], [3, 4]]}))
    r4 = tmp_path / "r4.json"
    r4.write_text(json.dumps({"q": 2, "n": 4, "generators": [[1, 1, 1, 1]]}))
    two4 = tmp_path / "two4.json"
    two4.write_text(json.dumps({"q": 2, "n": 4, "generators": [[0, 1, 0, 1], [0, 0, 1, 1]]}))
    anti2 = tmp_path / "anti2.json"
    anti2.write_text(json.dumps({"n": 2, "covers": []}))
    chain2 = tmp_path / "chain2.json"
    chain2.write_text(json.dumps({"n": 2, "covers": [[1, 2]]}))
    return {
        "n_poset": str(n_poset),
        "chain4": str(chain4),
        "r4": str(r4),
        "two4": str(two4),
        "anti2": str(anti2),
        "chain2": str(chain2),
    }


def run(capsys, argv):
    """``cli.main`` on ``argv``, with an argument error's exit as its status,
    as the entry point reports it."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Command -> the options it takes, in the order it declares them: those its
# handler reads, and no other.
SURFACE = {
    "poset info": ("--format",),
    "poset neighbours": ("--format",),
    "poset dot": (),
    "poset compare": ("--format",),
    "analyze weight": ("--x", "--q", "--format"),
    "analyze mindist": ("--format",),
    "analyze decompose": ("--primary", "--orbit-budget", "--format"),
    "analyze bounds": ("--orbit-budget", "--format"),
    "decode": ("--y", "--stats-only", "--orbit-budget", "--coset-budget", "--format"),
    **{
        f"verify {suite}": ("--n", "--q", "--samples", "--seed", "--format")
        for suite in ("metric", "profile", "monotone", "bounds")
    },
    "verify partition": ("--n", "--format"),
    "verify neighbours": ("--n", "--format"),
    "verify refinement-witness": ("--p", "--q-poset", "--q", "--format"),
}


def leaf_of(argv):
    """The command that ``argv`` runs, as ``SURFACE`` names it."""
    return argv[0] if argv[0] == "decode" else " ".join(argv[:2])


def parser_leaves(parser, path=()):
    """(command, option strings) for each command under ``parser``."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from parser_leaves(child, (*path, name))
            return
    options = tuple(
        action.option_strings[0] for action in parser._actions
        if action.option_strings and action.dest != "help"
    )
    yield " ".join(path), options


def test_each_command_declares_the_options_its_handler_reads():
    """Each command takes only the options its handler reads: 45 option
    slots over 16 commands, ``verify`` having one command per suite."""
    leaves = dict(parser_leaves(cli.build_parser()))
    assert leaves == SURFACE
    assert sum(map(len, leaves.values())) == 45


def test_readme_lists_each_commands_options():
    """README's table of options per command is the parser's."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = text.split("| command | options |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    listed = {}
    for row in table.splitlines():
        command, options = re.fullmatch(r"\| `([^`]+)` \| (.*) \|", row).groups()
        listed[command] = tuple(re.findall(r"--[a-z-]+", options))
    assert listed == SURFACE


def test_poset_info(files, capsys):
    code, out, _ = run(capsys, ["poset", "info", files["n_poset"]])
    assert code == 0
    assert "type = (2, 2)" in out
    assert "hierarchical levels = [1]" in out
    assert "hierarchical = False" in out


def test_poset_info_json(files, capsys):
    code, out, _ = run(capsys, ["poset", "info", files["n_poset"], "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["type"] == [2, 2]
    assert data["hierarchical_levels"] == [1]


def test_poset_neighbours(files, capsys):
    code, out, _ = run(
        capsys, ["poset", "neighbours", files["n_poset"], "--format", "json"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["lower"]["covers"] == []
    upper_covers = {tuple(c) for c in data["upper"]["covers"]}
    assert upper_covers == {(1, 3), (1, 4), (2, 3), (2, 4)}


def test_poset_dot(files, capsys):
    code, out, _ = run(capsys, ["poset", "dot", files["chain4"]])
    assert code == 0
    assert out.count("->") == 3


def test_poset_compare(files, capsys):
    code, out, _ = run(capsys, ["poset", "compare", files["n_poset"], files["chain4"]])
    assert code == 0
    assert "first <= second: True" in out
    assert "second <= first: False" in out
    code, out, _ = run(capsys, ["poset", "compare", files["chain4"], files["n_poset"]])
    assert "first <= second: False" in out


def test_family_specs(capsys):
    code, out, _ = run(capsys, ["poset", "info", "hierarchical:2,2"])
    assert code == 0 and "hierarchical = True" in out


def test_analyze_weight(files, capsys):
    code, out, _ = run(capsys, ["analyze", "weight", files["chain4"], "--x", "0,1,0,0"])
    assert code == 0 and "weight = 2" in out


def test_analyze_mindist(files, capsys):
    code, out, _ = run(capsys, ["analyze", "mindist", files["chain4"], files["r4"]])
    assert code == 0 and "minimal distance = 4" in out


def test_analyze_decompose_primary(files, capsys):
    code, out, _ = run(
        capsys,
        ["analyze", "decompose", "--primary", files["chain4"], files["r4"], "--format", "json"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["primary"]["complexity"] == 1
    assert data["primary"]["witness"]["A"] == [
        [1, 0, 0, 1],
        [0, 1, 0, 1],
        [0, 0, 1, 1],
        [0, 0, 0, 1],
    ]


def test_analyze_decompose_maximal(files, capsys):
    code, out, _ = run(
        capsys, ["analyze", "decompose", files["chain4"], files["r4"], "--format", "json"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["decomposition"]["profile"] == [[0, 0], [4, 1]]


def test_analyze_bounds(files, capsys):
    code, out, _ = run(
        capsys, ["analyze", "bounds", files["n_poset"], files["r4"], "--format", "json"]
    )
    assert code == 0
    data = json.loads(out)["bounds"]
    assert (data["o_upper"], data["o_p"], data["o_lower"]) == (2, 2, 8)
    assert data["sandwich_ok"]


@pytest.mark.parametrize("budget", ["--orbit-budget"])
def test_analyze_bounds_budgets_bound_only_the_poset_value(files, capsys, budget):
    """The neighbour values come from the closed form, so a walk budget
    leaves them exact and turns only o_p into null: here U_Z.C0 has two
    codes, both of value 2, above the upper neighbour's 1."""
    code, out, err = run(
        capsys,
        ["analyze", "bounds", files["n_poset"], files["two4"], budget, "1", "--format", "json"],
    )
    assert code == 0
    assert err == ""
    data = json.loads(out)["bounds"]
    assert (data["o_upper"], data["o_p"], data["o_lower"]) == (1, None, 2)
    assert data["sandwich_ok"]


@pytest.mark.parametrize("budget, o_p", [("3", 6), ("2", None)])
def test_analyze_bounds_stops_at_the_upper_neighbours_value(tmp_path, capsys, budget, o_p):
    """No code of U_Z.C0 goes below the upper neighbour's value, so the
    walk for o_p stops at the first code that reaches it: here the third
    of U_Z.C0's 9 codes, of the values 9, 9, 6, ..., so a budget of 3 codes
    gives o_p and one of 2 does not.  The primary search, which walks all
    of U_Z.C0, stops at either budget."""
    poset = tmp_path / "poset.json"
    poset.write_text(json.dumps({"n": 5, "covers": [[3, 4], [5, 4]]}))
    code = tmp_path / "code.json"
    code.write_text(
        json.dumps(
            {"q": 3, "n": 5, "generators": [[1, 0, 0, 2, 2], [0, 1, 0, 0, 1], [0, 0, 1, 1, 1]]}
        )
    )
    status, out, err = run(
        capsys,
        ["analyze", "bounds", str(poset), str(code), "--orbit-budget", budget, "--format", "json"],
    )
    assert (status, err) == (0, "")
    data = json.loads(out)["bounds"]
    assert (data["o_upper"], data["o_p"], data["o_lower"]) == (6, o_p, 9)
    status, _, _ = run(
        capsys,
        ["analyze", "decompose", str(poset), str(code), "--primary", "--orbit-budget", budget],
    )
    assert status == 2


def test_analyze_bounds_on_a_hierarchical_poset_needs_no_walk(files, capsys):
    code, out, err = run(
        capsys,
        ["analyze", "bounds", "hierarchical:2,2", files["r4"], "--orbit-budget", "1",
         "--format", "json"],
    )
    assert code == 0
    assert err == ""
    data = json.loads(out)["bounds"]
    assert (data["o_upper"], data["o_p"], data["o_lower"]) == (2, 2, 2)


def test_analyze_bounds_length_mismatch(files, capsys):
    code, out, err = run(capsys, ["analyze", "bounds", "chain:5", files["r4"]])
    assert code == 1
    assert out == ""
    assert err == "error: poset size 5 != code length 4\n"


def test_analyze_decompose_length_mismatch(files, capsys):
    for primary in ([], ["--primary"]):
        code, out, err = run(capsys, ["analyze", "decompose", "chain:3", files["r4"], *primary])
        assert code == 1
        assert out == ""
        assert err == "error: poset size 3 != code length 4\n"


def test_decode(files, capsys):
    code, out, _ = run(
        capsys, ["decode", "antichain:4", files["r4"], "--y", "1,1,0,1"]
    )
    assert code == 0
    assert "codeword = 1,1,1,1" in out


def test_decode_same_word(files, capsys):
    code, out, _ = run(capsys, ["decode", "antichain:4", files["r4"], "--y", "1,1,1,1"])
    assert code == 0
    assert "codeword = 1,1,1,1" in out
    assert "flags = []" in out


def test_a_vector_that_starts_with_a_minus_is_read_after_a_space(tmp_path, capsys):
    """``--y -1,0,1`` decodes as ``--y=-1,0,1`` and ``--y 2,0,1`` over
    GF(3), and ``--x -1,0,1`` weighs as ``--x 2,0,1``; argparse alone would
    read the spaced vector as an unknown option and exit 1 with its usage."""
    path = tmp_path / "code.json"
    path.write_text(json.dumps({"q": 3, "n": 3, "generators": [[1, 1, 1]]}))
    want = run(capsys, ["decode", "chain:3", str(path), "--y", "2,0,1"])
    assert want[0] == 0 and want[2] == ""
    for received in (["--y", "-1,0,1"], ["--y=-1,0,1"]):
        assert run(capsys, ["decode", "chain:3", str(path), *received]) == want
    want = run(capsys, ["analyze", "weight", "chain:3", "--q", "3", "--x", "2,0,1"])
    assert want[0] == 0
    assert run(capsys, ["analyze", "weight", "chain:3", "--q", "3", "--x", "-1,0,1"]) == want
    with pytest.raises(SystemExit) as exit_:  # an option after --y is still no vector
        cli.main(["decode", "chain:3", str(path), "--y", "--stats-only"])
    assert exit_.value.code == 1
    assert capsys.readouterr().err.splitlines()[-1] == "error: argument --y: expected one argument"


def test_decode_stats_only(files, capsys):
    code, out, _ = run(
        capsys, ["decode", files["chain4"], files["r4"], "--stats-only", "--format", "json"]
    )
    assert code == 0
    stats = json.loads(out)["stats"]
    assert stats["total"] == stats["complexity"] == 1
    assert stats["matches_complexity"]


def test_decode_refuses_a_table_scan_above_the_coset_budget(tmp_path):
    """One coset over GF(10007), but 10007^2 vectors to scan for it."""
    full = tmp_path / "full.json"
    full.write_text(json.dumps({"q": 10007, "n": 2, "generators": [[1, 0], [0, 1]]}))
    result = run_process(["decode", "chain:2", str(full), "--stats-only"], timeout=10)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("budget exceeded: ") and result.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "budget, where",
    [
        pytest.param(flag, where, id=f"{flag}-{where}")
        for flag in ("--orbit-budget", "--coset-budget")
        for where in ("before", "after")
    ]
    + [
        pytest.param(name, "env", id=name)
        for name in ("POSETCODES_ORBIT_BUDGET", "POSETCODES_COSET_BUDGET")
    ],
)
def test_verify_rejects_budget_flags(capsys, monkeypatch, budget, where):
    """The suites run at their own budgets: ``verify`` refuses a budget flag
    after the suite name, the command takes no option before its name, and
    a budget variable in the environment is not read, so the suite prints
    what it prints without it."""
    suite = ["verify", "partition", "--n", "2"]
    if where == "env":
        want = run(capsys, suite)
        assert want[0] == 0
        monkeypatch.setenv(budget, "1")
        assert run(capsys, suite) == want
        return
    argv = suite + [budget, "1"] if where == "after" else [budget, "1"] + suite
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    if where == "after":
        assert err == f"error: unrecognized arguments: {budget} 1\n"


@pytest.mark.parametrize("suite", ["profile", "bounds", "monotone", "metric"])
@pytest.mark.parametrize("samples", ["0", "-1"])
def test_verify_refuses_a_sample_count_below_one(capsys, suite, samples):
    """A suite that samples nothing would pass vacuously, so it exits 1."""
    code, out, err = run(capsys, ["verify", suite, "--samples", samples])
    assert code == 1
    assert out == ""
    assert err == f"error: sample count must be a positive integer, got {samples}\n"


def test_verify_partition(capsys):
    code, out, _ = run(capsys, ["verify", "partition", "--n", "3"])
    assert code == 0
    assert "result = pass" in out


def test_verify_refinement_witness(files, capsys):
    code, out, _ = run(
        capsys,
        ["verify", "refinement-witness", "--p", files["anti2"], "--q-poset", files["chain2"]],
    )
    assert code == 0
    assert "witness generators [(1, 1)]" in out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["decode", "antichain:4", "r4"], "decode needs --y RECEIVED or --stats-only"),
        (["verify", "refinement-witness"], "the following arguments are required: --p, --q-poset"),
        (["verify", "refinement-witness", "--p", "anti2"], "the following arguments are required: --q-poset"),
    ],
    ids=["decode-without-y", "witness-without-posets", "witness-without-q-poset"],
)
def test_a_command_missing_its_required_option_is_one_error_line(files, capsys, argv, message):
    argv = [files.get(arg, arg) for arg in argv]
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


def test_verify_reports_violations_with_exit_three(capsys, monkeypatch):
    def failing_suite(**kwargs):
        return SuiteReport(
            "metric", ok=False, checked=1, seed=0,
            counterexample={"broken": True},
        )

    monkeypatch.setattr(suites, "metric_suite", failing_suite)
    code, out, _ = run(capsys, ["verify", "metric", "--samples", "1"])
    assert code == 3
    assert "FAIL" in out and "counterexample" in out


def test_verify_bounds_walks_its_own_o_p(capsys, monkeypatch):
    """``analyze bounds`` may take o_p from the sandwich or stop its walk at
    o_upper, so the suite checks the sandwich on the o_p it walks itself: a
    skewed walk on one sample is reported."""
    real = suites.minimal_complexity
    skewed = []

    def skew_first_sample(code, poset, **kwargs):
        if skewed or poset.n != 5 or poset.is_hierarchical():  # not the N poset or a neighbour
            return real(code, poset, **kwargs)
        skewed.append(suites.hierarchy_bounds(code, poset).o_lower + 1)
        return skewed[0]

    monkeypatch.setattr(suites, "minimal_complexity", skew_first_sample)
    argv = ["verify", "bounds", "--n", "5", "--samples", "50", "--seed", "7", "--format", "json"]
    code, out, _ = run(capsys, argv)
    assert code == 3
    counterexample = json.loads(out)["counterexample"]
    assert counterexample["walked_o_p"] == skewed[0] == counterexample["bounds"]["o_lower"] + 1


def test_validation_exit_code(capsys, tmp_path):
    missing = str(tmp_path / "nope.json")
    code, _, err = run(capsys, ["poset", "info", missing])
    assert code == 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 3, "covers": [[1, 2], [2, 1]]}))
    code, _, err = run(capsys, ["poset", "info", str(bad)])
    assert code == 1
    assert "not a partial order" in err


@pytest.mark.parametrize(
    "spec",
    [
        "chain:abc",
        "hierarchical:2,x",
        "chain:3,4",
        {"n": 3, "covers": [[1, 2, 3]]},
        {"n": 3, "covers": [["a", 2]]},
        {"n": True},
        b'{"n": 3, "covers": [[1, 2]]}\xff',
        b'{"n": 1' + b"0" * 4999 + b"}",
    ],
    ids=["chain-abc", "hierarchical-2-x", "chain-3-4", "triple", "string", "bool-n",
         "not-utf8", "5000-digits"],
)
def test_bad_poset_input_is_one_error_line(spec, capsys, tmp_path):
    path = tmp_path / "poset.json"
    if isinstance(spec, dict):
        path.write_text(json.dumps(spec))
        spec = str(path)
    elif isinstance(spec, bytes):
        path.write_bytes(spec)
        spec = str(path)
    code, out, err = run(capsys, ["poset", "info", spec])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_code_document_given_as_a_poset_is_refused(capsys, tmp_path):
    """A code document has no ``covers`` and keys a poset does not take,
    so ``poset info`` on it exits 1 with one error line instead of
    describing an antichain."""
    path = tmp_path / "code.json"
    path.write_text(json.dumps({"q": 2, "n": 4, "generators": [[1, 1, 0, 0]]}))
    code, out, err = run(capsys, ["poset", "info", str(path)])
    assert code == 1
    assert out == ""
    assert err.startswith("error: malformed poset document") and err.count("\n") == 1


def test_poset_document_mixed_into_a_code_is_refused(capsys, tmp_path):
    """A code document with a poset's ``covers`` key is refused, so
    ``analyze mindist`` on it exits 1 with one error line instead of
    ignoring the key."""
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps({"q": 2, "n": 4, "generators": [[1, 1, 0, 0]], "covers": [[1, 2]]}))
    code, out, err = run(capsys, ["analyze", "mindist", "chain:4", str(path)])
    assert code == 1
    assert out == ""
    assert err.startswith("error: malformed code document") and err.count("\n") == 1


def test_bad_code_file_is_one_error_line(capsys, tmp_path):
    path = tmp_path / "code.json"
    path.write_bytes(b'{"q": 2, "n": 3, "generators": [[1, 1, \xe9]]}')
    code, out, err = run(capsys, ["analyze", "decompose", "chain:3", str(path)])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def run_process(argv, timeout=20, **options):
    """The CLI in a child process, so that a hang fails the test instead of
    stalling it; ``options`` go to ``subprocess.run``."""
    env = dict(os.environ, PYTHONPATH=str(Path(posetcodes.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "posetcodes.cli", *argv],
        capture_output=True, text=True, timeout=timeout, env=env, **options,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "metric", "--n", "0"],
        ["verify", "profile", "--q", "4", "--samples", "1"],
        ["verify", "bounds", "--q", "1", "--samples", "1"],
        ["verify", "partition", "--n", "0"],
    ],
)
def test_suites_reject_bad_sizes_at_once(argv):
    result = run_process(argv)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "argv,found",
    [
        (["verify", "metric", "--n", "3"], 19),
        (["verify", "metric", "--n", "1"], 1),
        (["verify", "metric", "--n", "2", "--samples", "4"], 3),
    ],
    ids=["n3", "n1", "n2-samples4"],
)
def test_metric_suite_stops_when_too_few_posets_exist(argv, found):
    result = run_process(argv)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith(f"budget exceeded: found {found} distinct posets")
    assert result.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "argv,count",
    [
        (["verify", "partition", "--n", "7"], "partition suite up to n=7 needs 17952896"),
        (["verify", "metric", "--n", "12", "--samples", "2"], "metric suite needs 67108864"),
        (["verify", "metric", "--n", "10"], "metric suite needs 54525952"),
    ],
    ids=["partition-n7", "metric-n12", "metric-n10"],
)
def test_suite_over_the_check_cap_stops_before_it_starts(argv, count):
    result = run_process(argv)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == f"budget exceeded: {count} checks, above the cap of {SUITE_CHECKS}\n"


def test_field_modulus_above_the_maximum_stops_before_primality(tmp_path):
    q = 2**61 - 1  # prime; trial division would run for hours
    code = tmp_path / "code.json"
    code.write_text(json.dumps({"q": q, "n": 4, "generators": [[1, 1, 1, 1]]}))
    for argv in (
        ["analyze", "weight", "chain:4", "--x", "1,0,0,0", "--q", str(q)],
        ["analyze", "mindist", "chain:4", str(code)],
    ):
        result = run_process(argv)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == (
            f"budget exceeded: field modulus {q} exceeds supported maximum {MAX_MODULUS}\n"
        )


@pytest.mark.parametrize(
    "spec",
    ["hierarchical:99999999999", "hierarchical:20000000", "hierarchical:9,99999999999", "chain:99999999999"],
)
def test_an_oversized_family_spec_stops_before_it_is_built(spec):
    """The sum of a hierarchical type vector, and a chain's length, are
    checked against the size limit before the ranks or covers are built:
    exit 2 with one budget line, in a child whose address space is capped
    at 200 MB, where 20,000,000 ranks would raise a memory error."""

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (200 << 20, 200 << 20))

    total = sum(map(int, spec.partition(":")[2].split(",")))
    result = run_process(["poset", "info", spec], preexec_fn=cap_address_space)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == (
        f"budget exceeded: ground-set size {total} exceeds supported maximum {MAX_GROUND_SET}\n"
    )


def test_verify_neighbours_does_not_clamp_n():
    result = run_process(["verify", "neighbours", "--n", "9"])
    assert result.returncode == 2
    assert "result = pass" not in result.stdout
    assert "budget exceeded" in result.stderr


def test_resource_exit_code(files, capsys):
    """The budget counts the codes of U_Z.C0 per block: 2 here, one block,
    where U.C has 8, so a budget of 1 code exits 2 and one of 2 ends."""
    argv = ["analyze", "decompose", "--primary", files["n_poset"], files["two4"]]
    code, _, err = run(capsys, [*argv, "--orbit-budget", "1"])
    assert code == 2
    assert "budget" in err
    code, _, err = run(capsys, [*argv, "--orbit-budget", "2"])
    assert (code, err) == (0, "")


def test_primary_search_stopped_past_the_unipotent_orbit_is_proven_minimal(capsys, tmp_path):
    """On six points with 5 below 6 alone the unipotent orbit of the pair
    code is the code alone, so a budget of 5 stops the search inside the
    blocks: exit 2, one budget line, and a partial result of the minimal
    complexity, marked proven."""
    poset = tmp_path / "edge6.json"
    poset.write_text(json.dumps({"n": 6, "covers": [[5, 6]]}))
    path = tmp_path / "pair6.json"
    path.write_text(json.dumps({"q": 2, "n": 6, "generators": [[1, 1, 0, 0, 0, 0]]}))
    argv = ["analyze", "decompose", str(poset), str(path), "--primary", "--orbit-budget", "5"]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    first, _, rest = err.partition("\n")
    assert first == "budget exceeded: orbit exceeds budget of 5 codes"
    assert "budget exceeded" not in rest
    partial = json.loads(rest)["partial"]
    assert partial["proven_minimal"] is True
    assert partial["complexity"] == 2


def test_budget_validation(files, capsys):
    code, _, err = run(
        capsys,
        ["analyze", "decompose", "--primary", files["chain4"], files["r4"], "--orbit-budget", "-5"],
    )
    assert code == 1


NON_VERIFY_COMMANDS = {
    "poset info": ["poset", "info", "chain:3"],
    "poset neighbours": ["poset", "neighbours", "chain:3"],
    "poset dot": ["poset", "dot", "chain:3"],
    "poset compare": ["poset", "compare", "chain:3", "antichain:3"],
    "analyze weight": ["analyze", "weight", "chain:3", "--x", "1,1,1"],
    "analyze mindist": ["analyze", "mindist", "chain:4", "{r4}"],
    "analyze decompose": ["analyze", "decompose", "chain:4", "{r4}"],
    "analyze decompose --primary": ["analyze", "decompose", "chain:4", "{r4}", "--primary"],
    "analyze bounds": ["analyze", "bounds", "chain:4", "{r4}"],
    "decode": ["decode", "chain:4", "{r4}", "--stats-only"],
}


@pytest.mark.parametrize(
    "setting",
    [
        ["--orbit-budget", "0"],
        ["--orbit-budget", "-5"],
        ["--coset-budget", "0"],
        {"POSETCODES_ORBIT_BUDGET": "abc"},
        {"POSETCODES_COSET_BUDGET": "0"},
    ],
    ids=["orbit-0", "orbit-negative", "coset-0", "orbit-env-text", "coset-env-0"],
)
@pytest.mark.parametrize("command", tuple(NON_VERIFY_COMMANDS))
def test_every_command_but_verify_validates_its_budgets(files, capsys, monkeypatch, command, setting):
    """A budget flag that is not a positive integer ends every command but
    ``verify`` in one ``error:`` line and exit 1: a command that takes the
    flag refuses its value, any other refuses the flag.  A budget variable
    in the environment is not read, so the command prints what it prints
    without it; ``verify`` refuses budgets of its own accord."""
    argv = [arg.format(**files) for arg in NON_VERIFY_COMMANDS[command]]
    want = run(capsys, argv)
    assert want[0] == 0
    if isinstance(setting, dict):
        for name, value in setting.items():
            monkeypatch.setenv(name, value)
        assert run(capsys, argv) == want
        return
    flag, value = setting
    if flag in SURFACE[leaf_of(argv)]:
        message = f"argument {flag}: {value!r} is not a positive integer"
    else:
        message = f"unrecognized arguments: {flag} {value}"
    assert run(capsys, argv + setting) == (1, "", f"error: {message}\n")


DEEP_DOCUMENT = "[" * 100_000 + "]" * 100_000
BAD_CODES = {  # a bad code document -> a poset of the length it claims
    DEEP_DOCUMENT: "chain:4",
    json.dumps({"q": 2, "n": True, "generators": [[1]]}): "chain:1",
    json.dumps({"q": 2, "n": 4, "generators": [[1.0, 1, 0, 0], [0, 0, 1.0, 1]]}): "chain:4",
}


@pytest.mark.parametrize("command", tuple(NON_VERIFY_COMMANDS))
def test_every_command_but_verify_refuses_a_bad_document(capsys, tmp_path, command):
    """A document nested too deeply, a code length that is a bool and
    generator entries that are floats end every command but ``verify`` in
    one ``error:`` line and exit 1.  A command that reads a code reads
    each as its code, on a poset of the length it claims; the others read
    the deep document as their poset."""
    template = NON_VERIFY_COMMANDS[command]
    path = tmp_path / "bad.json"
    if "{r4}" in template:
        cases = [
            (text, [{"chain:4": poset, "{r4}": str(path)}.get(arg, arg) for arg in template])
            for text, poset in BAD_CODES.items()
        ]
    else:  # the poset is the third argument
        cases = [(DEEP_DOCUMENT, template[:2] + [str(path)] + template[3:])]
    for text, argv in cases:
        path.write_text(text)
        code, out, err = run(capsys, argv)
        assert code == 1, (text[:40], err)
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")


def test_group_budget_option_is_gone(files):
    result = run_process(
        ["analyze", "decompose", "--primary", files["chain4"], files["r4"], "--group-budget", "5"]
    )
    assert result.returncode == 1
    assert result.stdout == ""
    errors = [line for line in result.stderr.splitlines() if line.startswith("error: ")]
    assert len(errors) == 1


def test_budget_variables_are_not_read(files, capsys, monkeypatch):
    """Budgets come from flags alone.  ``POSETCODES_ORBIT_BUDGET=abc``
    leaves ``poset dot``, which never walks, at exit 0, and
    ``POSETCODES_ORBIT_BUDGET=1`` leaves the primary search that a budget
    flag of 1 stops (``test_resource_exit_code``) at the default budget."""
    monkeypatch.setenv("POSETCODES_ORBIT_BUDGET", "abc")
    monkeypatch.setenv("POSETCODES_COSET_BUDGET", "0")
    code, out, err = run(capsys, ["poset", "dot", "chain:2"])
    assert (code, err) == (0, "")
    assert out.count("->") == 1
    monkeypatch.setenv("POSETCODES_ORBIT_BUDGET", "1")
    argv = ["analyze", "decompose", "--primary", files["n_poset"], files["two4"]]
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "complexity = 2"


def test_a_suite_refuses_the_options_it_does_not_read(capsys):
    """``verify partition`` reads ``--n`` alone, so a ``--q`` that is not
    prime and a ``--samples`` of 0 end in one ``error:`` line instead of a
    pass."""
    argv = ["verify", "partition", "--n", "2", "--q", "4", "--samples", "0"]
    assert run(capsys, argv) == (1, "", "error: unrecognized arguments: --q 4 --samples 0\n")


def test_poset_dot_refuses_a_format(capsys):
    """``poset dot`` prints DOT alone, so it takes no ``--format``."""
    argv = ["poset", "dot", "chain:3", "--format", "json"]
    assert run(capsys, argv) == (1, "", "error: unrecognized arguments: --format json\n")


@pytest.mark.parametrize(
    "argv, option",
    [
        (["--format", "json", "poset", "info", "chain:2"], "--format"),
        (["poset", "--format", "json", "info", "chain:2"], "--format"),
        (["--orbit-budget", "1", "verify", "partition"], "--orbit-budget"),
        (["verify", "--n", "3", "partition"], "--n"),
    ],
)
def test_an_option_before_the_command_is_refused_as_such(capsys, argv, option):
    """An option before the command's full name would be read as the
    command; the one ``error:`` line says where options go instead."""
    message = f"error: option {option} comes before the command; options go after the command's name\n"
    assert run(capsys, argv) == (1, "", message)


def test_a_closed_stdout_ends_quietly():
    """A reader that has closed the pipe, as ``| head -1`` may before the
    command writes, stops the command with exit status 141 and nothing on
    stderr: no ``error:`` line, no traceback, no noise from the flush at
    exit."""
    env = dict(os.environ, PYTHONPATH=str(Path(posetcodes.__file__).parents[1]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "posetcodes.cli", "poset", "info", "chain:12", "--format", "json"],
            stdout=write_end, stderr=subprocess.PIPE, timeout=20, env=env,
        )
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (141, b"")


def test_walk_is_not_refused_for_its_group_size(tmp_path):
    """|G| = 9.2e8 on chain:6 over GF(3), yet this orbit has 81 codes."""
    code = tmp_path / "code.json"
    code.write_text(json.dumps({"q": 3, "n": 6, "generators": [[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0]]}))
    result = run_process(["analyze", "decompose", "--primary", "chain:6", str(code)])
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[0] == "complexity = 1"


def test_walk_takes_ten_to_sixteen_coordinates(tmp_path):
    """Aut(antichain:10) has 3,628,800 elements; the walk reaches the 45
    codes of a weight-2 word from nine generators, with no list of the
    group.  The orbit budget is the walk's one bound, so eleven and
    sixteen coordinates, 55 and 120 codes, are walked the same way."""
    for n in (10, 11, 16):
        code = tmp_path / f"pair{n}.json"
        code.write_text(json.dumps({"q": 2, "n": n, "generators": [[1, 1] + [0] * (n - 2)]}))
        argv = ["analyze", "decompose", "--primary", f"antichain:{n}", str(code)]
        result = run_process(argv, timeout=10)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[0] == "complexity = 2"


def test_full_space_over_a_large_field_walks_a_few_generators(tmp_path):
    """The full space over GF(1,048,573) on chain:3 is its own orbit; its
    walk tries three additions, then three scalings from the one block, so
    it ends at the default budget and at a budget of its one code."""
    code = tmp_path / "code.json"
    code.write_text(json.dumps({"q": 1048573, "n": 3, "generators": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}))
    for budget in ([], ["--orbit-budget", "1"]):
        result = run_process(["analyze", "decompose", "--primary", "chain:3", str(code), *budget])
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[0] == "complexity = 1"


def test_json_outputs_round_trip(files, capsys):
    code, out, _ = run(capsys, ["poset", "neighbours", files["n_poset"], "--format", "json"])
    assert code == 0
    from posetcodes.poset import Poset

    data = json.loads(out)
    upper = Poset.from_json_dict(data["upper"])
    assert upper.to_json_dict() == data["upper"]


@pytest.mark.parametrize("options_after_suite", [False, True])
def test_parser_is_built_once_and_leaks_no_options(capsys, options_after_suite):
    """Two calls in one process share the parser; options given to the
    first do not carry over to the second.  Options go after the suite
    name: before the command they are refused in one ``error:`` line."""
    suite = ["verify", "metric", "--n", "2", "--samples", "2"]
    options = ["--format", "json", "--seed", "5"]
    first = suite + options if options_after_suite else options + suite
    code, out, err = run(capsys, first)
    if options_after_suite:
        assert code == 0
        assert json.loads(out)["seed"] == 5
    else:
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
    code, out, _ = run(capsys, suite)
    assert code == 0
    assert out.splitlines()[:3] == ["suite = metric", "checked = 4", "seed = 1"]
    assert cli.build_parser() is cli.build_parser()


def test_analyze_bounds_reaches_sixteen_coordinates(tmp_path):
    """Bounds at twelve and sixteen coordinates: exact neighbours from the
    closed form, and o_p from it too on a hierarchical poset.  On the
    random 16-point poset the neighbours differ, and U.C has 3^36 codes,
    but the walk for o_p takes only U_Z.C0's 19,683, so o_p is 243."""
    ones = tmp_path / "ones12.json"
    ones.write_text(json.dumps({"q": 2, "n": 12, "generators": [[1] * 12]}))
    result = run_process(["analyze", "bounds", "chain:12", str(ones), "--format", "json"], timeout=10)
    assert result.returncode == 0, result.stderr
    data = json.loads(result.stdout)["bounds"]
    assert data["o_upper"] == data["o_p"] == data["o_lower"] == 1

    from posetcodes.search import hierarchical_decomposition, lower_neighbour, upper_neighbour

    rng = random.Random(16)
    poset = suites.random_poset(rng, 16)
    assert not poset.is_hierarchical()
    code = suites.random_code(rng, 3, 16)
    poset_path = tmp_path / "poset16.json"
    poset_path.write_text(json.dumps(poset.to_json_dict()))
    code_path = tmp_path / "code16.json"
    code_path.write_text(json.dumps(code.to_json_dict()))
    result = run_process(["analyze", "bounds", str(poset_path), str(code_path), "--format", "json"], timeout=10)
    assert result.returncode == 0, result.stderr
    data = json.loads(result.stdout)["bounds"]
    assert data["o_p"] == 243
    assert data["o_upper"] == hierarchical_decomposition(code, upper_neighbour(poset)).complexity
    assert data["o_lower"] == hierarchical_decomposition(code, lower_neighbour(poset)).complexity
    assert data["sandwich_ok"]


def test_primary_search_at_sixteen_coordinates_stops_at_the_budget(tmp_path, capsys):
    """The random 16-point poset and GF(3) code of the bounds test above:
    a primary search past a budget of 1,000 codes, inside U_Z.C0's 19,683,
    exits 2 with one budget line, then the best decomposition the walk had
    found, not proven minimal."""
    rng = random.Random(16)
    poset = suites.random_poset(rng, 16)
    code = suites.random_code(rng, 3, 16)
    poset_path = tmp_path / "poset16.json"
    poset_path.write_text(json.dumps(poset.to_json_dict()))
    code_path = tmp_path / "code16.json"
    code_path.write_text(json.dumps(code.to_json_dict()))
    argv = ["analyze", "decompose", "--primary", str(poset_path), str(code_path), "--orbit-budget", "1000"]
    status, out, err = run(capsys, argv)
    assert status == 2
    assert out == ""
    first, _, rest = err.partition("\n")
    assert first == "budget exceeded: orbit exceeds budget of 1000 codes"
    assert "budget exceeded" not in rest
    partial = json.loads(rest)["partial"]
    assert partial["complexity"] == 243
    assert partial["proven_minimal"] is False


def test_analyze_bounds_past_the_walks_reach_when_the_sandwich_fixes_o_p(tmp_path):
    """Equal neighbour values fix o_p with no walk, so a non-hierarchical
    12-point poset gets it at no orbit cost."""
    rng = random.Random(1)
    poset = suites.random_poset(rng, 12)
    assert not poset.is_hierarchical()
    code = suites.random_code(rng, 2, 12)
    poset_path = tmp_path / "poset12.json"
    poset_path.write_text(json.dumps(poset.to_json_dict()))
    code_path = tmp_path / "code12.json"
    code_path.write_text(json.dumps(code.to_json_dict()))
    result = run_process(["analyze", "bounds", str(poset_path), str(code_path), "--format", "json"], timeout=10)
    assert result.returncode == 0, result.stderr
    data = json.loads(result.stdout)["bounds"]
    assert data["o_upper"] == data["o_p"] == data["o_lower"] == 32
    assert data["sandwich_ok"]



@pytest.mark.skipif(given is None, reason="needs hypothesis")
def test_verify_fuzz_exits_cleanly():
    """Drawn values of the options each suite takes end in an exit code,
    never a traceback; a validation or budget exit prints exactly one
    stderr line and nothing else."""
    exits = set()

    def check(suite, n, q, samples, seed):
        values = {"--n": n, "--q": q, "--samples": samples, "--seed": seed,
                  "--p": f"antichain:{n}", "--q-poset": f"chain:{n}", "--format": "text"}
        argv = ["verify", suite]
        for option in SURFACE[f"verify {suite}"]:
            argv += [option, str(values[option])]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        exits.add(code)
        assert code in (0, 1, 2, 3)
        if code in (1, 2):
            assert out.getvalue() == ""
            assert err.getvalue().count("\n") == 1
        else:
            assert err.getvalue() == ""

    given(
        suite=st.sampled_from(tuple(cli.VERIFY_SUITES)),
        n=st.integers(-1, 3),
        q=st.integers(0, 4),
        samples=st.integers(-1, 2),
        seed=st.integers(),
    )(check)()
    assert {0, 1} <= exits


HUGE_SIZE = 99999999999


def _fuzz_spec(kind, sizes):
    return f"{kind}:{','.join(map(str, sizes))}"


@pytest.mark.skipif(given is None, reason="needs hypothesis")
def test_poset_and_weight_fuzz_exits_cleanly():
    """Drawn family specs (valid chains and antichains, or chain,
    antichain, hierarchical and unknown kinds with sizes -2 to 20 and one
    huge size) through ``poset info``, ``neighbours``, ``dot``, ``compare``
    and ``analyze weight`` with drawn ``--x``, often of the spec's length,
    and ``--q`` end in an exit code from 0 to 3, never a traceback; a
    validation or budget exit prints exactly one stderr line and nothing
    else."""
    exits, huge = set(), []

    def check(command, first, second, x, fit, q):
        kind, sizes = first
        first, second = _fuzz_spec(kind, sizes), _fuzz_spec(*second)
        if isinstance(x, list):  # residues, repeated to the spec's length when ``fit``
            x = ",".join(map(str, (x * 20)[: sum(sizes)] if fit and sum(sizes) <= 20 else x))
        if command == "compare":
            argv = ["poset", "compare", first, second]
        elif command == "weight":
            argv = ["analyze", "weight", first, f"--x={x}", "--q", str(q)]
        else:
            argv = ["poset", command, first]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        exits.add(code)
        huge.append(kind == "hierarchical" and HUGE_SIZE in sizes)
        assert code in (0, 1, 2, 3)
        if code in (1, 2):
            assert out.getvalue() == ""
            assert err.getvalue().count("\n") == 1
        else:
            assert err.getvalue() == ""

    check("info", ("hierarchical", [HUGE_SIZE]), ("chain", [1]), [], False, 2)
    spec = st.tuples(
        st.sampled_from(("chain", "antichain")), st.lists(st.integers(1, 16), min_size=1, max_size=1)
    ) | st.tuples(
        st.sampled_from(("chain", "antichain", "hierarchical", "ladder", "", "Chain")),
        st.lists(st.integers(-2, 20) | st.just(HUGE_SIZE), min_size=1, max_size=3),
    )
    given(
        command=st.sampled_from(("info", "neighbours", "dot", "compare", "weight")),
        first=spec,
        second=spec,
        x=st.lists(st.integers(-1, 5), min_size=1) | st.text(alphabet="0123456789,-x ", max_size=8),
        fit=st.booleans(),
        q=st.integers(-2, 20),
    )(check)()
    assert {0, 1, 2} <= exits
    assert sum(huge) > 1


CODE_FLAWS = {  # a flaw's name -> the document key it spoils and the value it puts there
    "non-prime q": ("q", 4),
    "huge q": ("q", MAX_MODULUS + 1),
    "huger q": ("q", 10**30),
    "bool q": ("q", True),
    "float q": ("q", 2.0),
    "str q": ("q", "2"),
    "n = 0": ("n", 0),
    "n = 17": ("n", 17),
    "bool n": ("n", True),
    "float n": ("n", 3.0),
    "str n": ("n", "3"),
}


@st.composite
def _fuzz_code_document(draw):
    """A drawn code document, valid or with one flaw, and the length its
    rows were drawn for.  The valid ones have q in {2, 3, 5}, 1 <= n <= 6
    and one to three rows of residues.  A flaw is a q that is not prime,
    is huge or is not an int; an n of 0, 17 or not an int; a row of
    another length; zero rows only; a bool, float or string entry; an
    extra or missing key; or a document that is not an object."""
    q = draw(st.sampled_from((2, 3, 5)))
    n = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n, max_size=n),
                         min_size=1, max_size=3))
    rows[0][draw(st.integers(0, n - 1))] = draw(st.integers(1, q - 1))
    document = {"q": q, "n": n, "generators": rows}
    flaw = draw(st.sampled_from(
        ("none",) * 12 + tuple(CODE_FLAWS) + ("length", "zero", "entry", "extra", "missing", "list")
    ))
    if flaw in CODE_FLAWS:
        key, value = CODE_FLAWS[flaw]
        document[key] = value
    elif flaw == "length":
        rows[-1] = rows[-1] + [1] if draw(st.booleans()) else rows[-1][:-1]
    elif flaw == "zero":
        document["generators"] = [[0] * n for _ in rows]
    elif flaw == "entry":
        rows[0][draw(st.integers(0, n - 1))] = draw(st.sampled_from((True, 1.0, 0.5, "1")))
    elif flaw == "extra":
        document["extra"] = 1
    elif flaw == "missing":
        del document["generators"]
    elif flaw == "list":
        document = [document]
    return document, n


@pytest.mark.skipif(given is None, reason="needs hypothesis")
def test_code_command_fuzz_exits_cleanly(tmp_path):
    """Drawn code documents and family specs, often of the document's
    length, through ``analyze mindist``, ``decompose`` with and without
    ``--primary``, ``bounds``, and ``decode`` with ``--stats-only`` or
    ``--y``, under the drawn orbit and coset budgets each command takes, end
    in an exit code from 0 to 3, never a traceback.  A nonzero exit prints nothing on stdout and
    exactly one ``error:`` or ``budget exceeded:`` line on stderr; exit 0
    prints nothing on stderr."""
    path = tmp_path / "code.json"
    exits = set()

    def check(drawn, kind, fit, size, budgets, y):
        document, n = drawn
        path.write_text(json.dumps(document))
        spec = f"{kind}:{n if fit else size}"
        received = ",".join(["1"] * n) if y is None else y
        for command, options in (
            (["analyze", "mindist"], []),
            (["analyze", "decompose"], []),
            (["analyze", "decompose"], ["--primary"]),
            (["analyze", "decompose"], ["--primary", "--format", "json"]),
            (["analyze", "bounds"], []),
            (["analyze", "bounds"], ["--format", "json"]),
            (["decode"], ["--stats-only"]),
            (["decode"], [f"--y={received}"]),
            (["decode"], ["--format", "json", f"--y={received}"]),
        ):
            argv = [*command, spec, str(path), *options]
            for flag, value in zip(budgets[::2], budgets[1::2]):
                if flag in SURFACE[leaf_of(argv)]:
                    argv += [flag, value]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            exits.add(code)
            assert code in (0, 1, 2, 3), argv
            if code:
                assert out.getvalue() == "", argv
                heads = [
                    line for line in err.getvalue().splitlines()
                    if line.startswith(("error: ", "budget exceeded: "))
                ]
                assert len(heads) == 1, (argv, err.getvalue())
                assert err.getvalue().startswith(heads[0]), (argv, err.getvalue())
            else:
                assert err.getvalue() == "", argv

    check(({"q": 3, "n": 4, "generators": [[1, 2, 0, 1], [0, 0, 1, 2]]}, 4), "antichain", True, 4,
          ["--orbit-budget", "400"], None)
    check(({"q": 2, "n": 4, "generators": [[1, 1, 1, 1]]}, 4), "chain", True, 4,
          ["--orbit-budget", "2"], None)
    settings(max_examples=150)(given(
        drawn=_fuzz_code_document(),
        kind=st.sampled_from(("chain", "antichain", "hierarchical", "ladder")),
        fit=st.integers(0, 3).map(lambda v: v < 3),
        size=st.integers(-1, 17),
        budgets=st.sampled_from((
            ["--orbit-budget", "400"],
            ["--orbit-budget", "400", "--coset-budget", "40"],
            ["--orbit-budget", "9"],
            ["--orbit-budget", "0"],
            ["--orbit-budget", "400", "--coset-budget", "-1"],
        )),
        y=st.none() | st.text(alphabet="0123456789,-x ", max_size=10),
    )(check))()
    assert {0, 1, 2} <= exits
