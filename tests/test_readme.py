"""The README's console and Python examples, run and checked line for line."""
import json
import re
import shlex
from pathlib import Path

import pytest

from predcorr.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def console_examples():
    """(argv, expected stdout lines) for every ``$ predcorr`` block, in order."""
    examples = []
    for block in re.findall(r"```\n(\$ predcorr .*?)```", README, re.S):
        text = block.replace("\\\n", " ")
        command, *expected = text.splitlines()
        examples.append((shlex.split(command)[2:], expected))
    return examples


def test_console_examples(tmp_path, monkeypatch, capsys):
    # the examples share one directory: rates reads the trace run wrote
    monkeypatch.chdir(tmp_path)
    examples = console_examples()
    assert [argv[0] for argv, _ in examples] == ["certify", "run", "rates", "compare"]
    for argv, expected in examples:
        assert main(argv) == 0, argv
        assert capsys.readouterr().out.splitlines() == expected, argv


def test_python_example(capsys):
    (code,) = re.findall(r"```python\n(.*?)```", README, re.S)
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    assert len(printed) == len(prints)
    checked = 0
    for line, out in zip(prints, printed):
        if "# " in line:
            assert out == line.split("# ", 1)[1].strip()
            checked += 1
    assert checked == 1


def test_summary_names_its_measured_point(tmp_path):
    # the README's summary.json paragraph names each mode's measured point
    named = {mode: point for point, mode in
             re.findall(r"`(\w+)`\s+in\s+(baseline|faster)\s+mode", README)}
    assert named == {"baseline": "ergodic_average", "faster": "accelerated_iterate"}
    for mode, point in named.items():
        out = tmp_path / mode
        assert main(["run", "--generator", "two-block-l1", "--seed", "0", "--param", "n=5",
                     "--param", "mu=0.5", "--mode", mode, "--budget", "5",
                     "--out", str(out)]) == 0
        assert json.loads((out / "summary.json").read_text())["measured_at"] == point
