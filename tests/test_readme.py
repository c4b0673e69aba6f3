"""The README's library example runs and prints what its comments say."""
from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_prints_its_commented_values(capsys):
    code = _library_example()
    exec(compile(code, str(README), "exec"), {})
    printed = capsys.readouterr().out.split("\n")[:-1]
    # Comment lines holding only numbers show the expected output, one
    # printed line each, to the precision they are written with.
    expected = [
        line[1:].split()
        for line in code.splitlines()
        if re.fullmatch(r"#(\s+-?\d+\.\d+)+", line)
    ]
    assert expected and len(printed) == len(expected)
    for out, want in zip(printed, expected):
        got = out.split()
        assert len(got) == len(want), (out, want)
        for value, shown in zip(got, want):
            decimals = len(shown.split(".")[1])
            assert f"{float(value):.{decimals}f}" == shown, (out, want)
