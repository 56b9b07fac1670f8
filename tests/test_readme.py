"""The README's library example runs as written and prints what its
comments say, and its command-line examples exit 0."""

import ast
import contextlib
import io
import json
import re
from pathlib import Path

from posetcodes import cli

README = Path(__file__).parents[1] / "README.md"


def library_example():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_prints_its_commented_literals():
    source = library_example()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(source, "README.md", "exec"), {})
    printed = out.getvalue().splitlines()
    prints = [line for line in source.splitlines() if line.startswith("print(")]
    assert len(printed) == len(prints)
    checked = []
    for line, shown in zip(prints, printed):
        comment = line.partition("#")[2].strip()
        try:
            ast.literal_eval(comment)
        except (ValueError, SyntaxError):
            continue
        assert shown == comment, line
        checked.append(comment)
    assert checked == ["2", "((2, 2), (2, 1))"]


def command_line_examples():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    return [line.split()[1:] for line in block.splitlines() if line.startswith("posetcodes ")]


def test_command_line_examples_exit_zero(tmp_path, monkeypatch):
    """Each ``posetcodes`` line of the README's command-line block exits 0,
    given the files it names."""
    documents = {
        "n_poset.json": {"n": 4, "covers": [[1, 3], [1, 4], [2, 4]]},
        "r4.json": {"q": 2, "n": 4, "generators": [[1, 1, 1, 1]]},
        "a.json": {"n": 4, "covers": [[1, 3], [1, 4], [2, 4]]},
        "b.json": {"n": 4, "covers": [[1, 2], [2, 3], [3, 4]]},
        "anti2.json": {"n": 2, "covers": []},
        "chain2.json": {"n": 2, "covers": [[1, 2]]},
    }
    for name, document in documents.items():
        (tmp_path / name).write_text(json.dumps(document), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    examples = command_line_examples()
    assert len(examples) == 13
    for argv in examples:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0, argv
