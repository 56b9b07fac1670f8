"""The README's library example runs as written and prints what its
comments say."""

import ast
import contextlib
import io
import re
from pathlib import Path

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
