"""The README's Python API example runs as written, its command lines
parse, and its quoted error line is what the CLI prints."""

import pathlib
import re
import shlex

import pytest

from mildflow.cli import build_parser, main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    s_c, q = map(float, lines[0].split())
    assert abs(s_c - 0.1) < 1e-12 and q == 6.0
    assert abs(float(lines[1]) - 10.87) < 0.01
    assert lines[2].startswith("True ")


def test_readme_command_lines_parse():
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("mildflow ")]
    assert len(lines) >= 10
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command line does not parse: {line}")


def test_readme_error_example_is_what_the_cli_prints(tmp_path, capsys):
    pattern = r"\(`((?:simulate|exponents) [^`]*)`\):\n\n```\n(error: .*)\n```"
    examples = re.findall(pattern, README.read_text())
    assert [command.split()[0] for command, _ in examples] == [
        "exponents", "simulate"]
    for command, quoted in examples:
        assert main([*shlex.split(command), "--out",
                     str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == quoted + "\n"
