"""The README's Python quick tour and CLI block run as written."""

import re
import shlex
from pathlib import Path

from eulerseq.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_tour_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_cli_block_runs(tmp_path, monkeypatch, capsys):
    # each line exits 0 in a fresh directory, where generate writes the file
    # that the next line analyzes; two lines carry a fact in their comment
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", README.read_text(), re.DOTALL)
    monkeypatch.chdir(tmp_path)
    stdout = {}
    for line in block.group(1).splitlines():
        command, *argv = shlex.split(line, comments=True)
        assert command == "eulerseq"
        assert main(argv) == 0, line
        stdout[" ".join(argv)] = capsys.readouterr().out
    assert len(stdout) == 6
    assert "linear complexity: 11 " in stdout["analyze --p 3 --r 2 --kind level --j 1"]
    assert "refused" in stdout["verify --suite klc --p 7 --r 2"]
