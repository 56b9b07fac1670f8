import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import posetcodes
from posetcodes import cli, suites
from posetcodes.field import MAX_MODULUS
from posetcodes.suites import SUITE_CHECKS, SuiteReport


@pytest.fixture
def files(tmp_path):
    n_poset = tmp_path / "n_poset.json"
    n_poset.write_text(json.dumps({"n": 4, "covers": [[1, 3], [1, 4], [2, 4]]}))
    chain4 = tmp_path / "chain4.json"
    chain4.write_text(json.dumps({"n": 4, "covers": [[1, 2], [2, 3], [3, 4]]}))
    r4 = tmp_path / "r4.json"
    r4.write_text(json.dumps({"q": 2, "n": 4, "generators": [[1, 1, 1, 1]]}))
    anti2 = tmp_path / "anti2.json"
    anti2.write_text(json.dumps({"n": 2, "covers": []}))
    chain2 = tmp_path / "chain2.json"
    chain2.write_text(json.dumps({"n": 2, "covers": [[1, 2]]}))
    return {
        "n_poset": str(n_poset),
        "chain4": str(chain4),
        "r4": str(r4),
        "anti2": str(anti2),
        "chain2": str(chain2),
    }


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_poset_info(files, capsys):
    code, out, _ = run(capsys, ["poset", "info", files["n_poset"]])
    assert code == 0
    assert "type = (2, 2)" in out
    assert "hierarchical levels = [1]" in out
    assert "hierarchical = False" in out


def test_poset_info_json(files, capsys):
    code, out, _ = run(capsys, ["--format", "json", "poset", "info", files["n_poset"]])
    assert code == 0
    data = json.loads(out)
    assert data["type"] == [2, 2]
    assert data["hierarchical_levels"] == [1]


def test_poset_neighbours(files, capsys):
    code, out, _ = run(
        capsys, ["--format", "json", "poset", "neighbours", files["n_poset"]]
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
        ["--format", "json", "analyze", "decompose", "--primary", files["chain4"], files["r4"]],
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
        capsys, ["--format", "json", "analyze", "decompose", files["chain4"], files["r4"]]
    )
    assert code == 0
    data = json.loads(out)
    assert data["decomposition"]["profile"] == [[0, 0], [4, 1]]


def test_analyze_bounds(files, capsys):
    code, out, _ = run(
        capsys, ["--format", "json", "analyze", "bounds", files["n_poset"], files["r4"]]
    )
    assert code == 0
    data = json.loads(out)["bounds"]
    assert (data["o_upper"], data["o_p"], data["o_lower"]) == (2, 2, 8)
    assert data["sandwich_ok"]


@pytest.mark.parametrize("budget", ["--orbit-budget"])
def test_analyze_bounds_budgets_bound_only_the_poset_value(files, capsys, budget):
    """The neighbour values come from the closed form, so a walk budget
    leaves them exact and turns only o_p into null."""
    code, out, err = run(
        capsys,
        ["--format", "json", "analyze", "bounds", files["n_poset"], files["r4"], budget, "1"],
    )
    assert code == 0
    assert err == ""
    data = json.loads(out)["bounds"]
    assert (data["o_upper"], data["o_p"], data["o_lower"]) == (2, None, 8)
    assert data["sandwich_ok"]


def test_analyze_bounds_on_a_hierarchical_poset_needs_no_walk(files, capsys):
    code, out, err = run(
        capsys,
        ["--format", "json", "analyze", "bounds", "hierarchical:2,2", files["r4"],
         "--orbit-budget", "1"],
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


def test_decode_stats_only(files, capsys):
    code, out, _ = run(
        capsys, ["--format", "json", "decode", files["chain4"], files["r4"], "--stats-only"]
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
    suite = ["verify", "partition", "--n", "2"]
    if where == "env":
        monkeypatch.setenv(budget, "1")
        argv = suite
    else:
        argv = suite + [budget, "1"] if where == "after" else [budget, "1"] + suite
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


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


def test_bad_code_file_is_one_error_line(capsys, tmp_path):
    path = tmp_path / "code.json"
    path.write_bytes(b'{"q": 2, "n": 3, "generators": [[1, 1, \xe9]]}')
    code, out, err = run(capsys, ["analyze", "decompose", "chain:3", str(path)])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def run_process(argv, timeout=20):
    """The CLI in a child process, so that a hang fails the test instead of
    stalling it."""
    env = dict(os.environ, PYTHONPATH=str(Path(posetcodes.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "posetcodes.cli", *argv],
        capture_output=True, text=True, timeout=timeout, env=env,
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
        (["verify", "metric", "--n", "12", "--samples", "2"], "metric suite needs 100671296"),
        (["verify", "metric", "--n", "7", "--q", "3", "--samples", "2"], "metric suite needs 28705814"),
    ],
    ids=["partition-n7", "metric-n12", "metric-n7-q3"],
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


def test_verify_neighbours_does_not_clamp_n():
    result = run_process(["verify", "neighbours", "--n", "9"])
    assert result.returncode == 2
    assert "result = pass" not in result.stdout
    assert "budget exceeded" in result.stderr


def test_resource_exit_code(files, capsys):
    code, _, err = run(
        capsys,
        ["--orbit-budget", "1", "analyze", "decompose", "--primary", files["chain4"], files["r4"]],
    )
    assert code == 2
    assert "budget" in err


def test_budget_validation(files, capsys):
    code, _, err = run(
        capsys,
        ["--orbit-budget", "-5", "analyze", "decompose", "--primary", files["chain4"], files["r4"]],
    )
    assert code == 1


def test_group_budget_option_is_gone(files):
    result = run_process(
        ["--group-budget", "5", "analyze", "decompose", "--primary", files["chain4"], files["r4"]]
    )
    assert result.returncode == 1
    assert result.stdout == ""
    errors = [line for line in result.stderr.splitlines() if line.startswith("error: ")]
    assert len(errors) == 1


def test_env_budget_override(files, capsys, monkeypatch):
    monkeypatch.setenv("POSETCODES_ORBIT_BUDGET", "1")
    code, _, err = run(
        capsys, ["analyze", "decompose", "--primary", files["chain4"], files["r4"]]
    )
    assert code == 2


def test_walk_is_not_refused_for_its_group_size(tmp_path):
    """|G| = 9.2e8 on chain:6 over GF(3), yet this orbit has 81 codes."""
    code = tmp_path / "code.json"
    code.write_text(json.dumps({"q": 3, "n": 6, "generators": [[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0]]}))
    result = run_process(["analyze", "decompose", "--primary", "chain:6", str(code)])
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[0] == "complexity = 1"


def test_walk_takes_ten_coordinates_and_refuses_eleven(tmp_path):
    """Aut(antichain:10) has 3,628,800 elements; the walk reaches the 45
    codes of a weight-2 word from nine generators, with no list of the
    group.  Past ten coordinates the walk stops before it starts."""
    def decompose(n):
        code = tmp_path / f"pair{n}.json"
        code.write_text(json.dumps({"q": 2, "n": n, "generators": [[1, 1] + [0] * (n - 2)]}))
        return run_process(["analyze", "decompose", "--primary", f"antichain:{n}", str(code)], timeout=10)

    result = decompose(10)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[0] == "complexity = 2"
    result = decompose(11)
    assert result.returncode == 2
    assert result.stderr.splitlines()[0] == "budget exceeded: orbit walk supports n <= 10, got 11"


def test_orbit_budget_bounds_the_walks_canonicalisations(tmp_path):
    """The full space is its own orbit, but over GF(1,048,573) its walk
    would apply 6.3 million generators; an orbit budget of 10 codes stops
    it after 200 canonicalisations."""
    code = tmp_path / "code.json"
    code.write_text(json.dumps({"q": 1048573, "n": 3, "generators": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}))
    result = run_process(["--orbit-budget", "10", "analyze", "decompose", "--primary", "chain:3", str(code)])
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.splitlines()[0] == (
        "budget exceeded: orbit walk exceeds budget of 200 canonicalisations after admitting 1 codes"
    )
    assert not json.loads(result.stderr.split("\n", 1)[1])["partial"]["proven_minimal"]


def test_json_outputs_round_trip(files, capsys):
    code, out, _ = run(capsys, ["--format", "json", "poset", "neighbours", files["n_poset"]])
    assert code == 0
    from posetcodes.poset import Poset

    data = json.loads(out)
    upper = Poset.from_json_dict(data["upper"])
    assert upper.to_json_dict() == data["upper"]


@pytest.mark.parametrize("options_after_suite", [False, True])
def test_parser_is_built_once_and_leaks_no_options(capsys, options_after_suite):
    """Two calls in one process share the parser; options given to the
    first do not carry over to the second."""
    suite = ["verify", "metric", "--n", "2", "--samples", "2"]
    options = ["--format", "json", "--seed", "5"]
    first = suite + options if options_after_suite else options + suite
    code, out, _ = run(capsys, first)
    assert code == 0
    assert json.loads(out)["seed"] == 5
    code, out, _ = run(capsys, suite)
    assert code == 0
    assert out.splitlines()[:3] == ["suite = metric", "checked = 4", "seed = 1"]
    assert cli.build_parser() is cli.build_parser()


def test_analyze_bounds_reaches_sixteen_coordinates(tmp_path):
    """Bounds beyond the orbit walk's reach (n = 10): exact neighbours from
    the closed form, and o_p from it too on a hierarchical poset."""
    ones = tmp_path / "ones12.json"
    ones.write_text(json.dumps({"q": 2, "n": 12, "generators": [[1] * 12]}))
    result = run_process(["--format", "json", "analyze", "bounds", "chain:12", str(ones)], timeout=10)
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
    result = run_process(["--format", "json", "analyze", "bounds", str(poset_path), str(code_path)], timeout=10)
    assert result.returncode == 0, result.stderr
    data = json.loads(result.stdout)["bounds"]
    assert data["o_p"] is None
    assert data["o_upper"] == hierarchical_decomposition(code, upper_neighbour(poset)).complexity
    assert data["o_lower"] == hierarchical_decomposition(code, lower_neighbour(poset)).complexity
    assert data["sandwich_ok"]
