"""The README's examples stay valid: every command line in its sh blocks
parses, and the "Library use" block compiles and imports names that exist."""

import ast
import re
import shlex
from pathlib import Path

import metacomment
from metacomment import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_command_examples_parse():
    # each `metacomment ...` line of the sh blocks, continuations joined
    blocks = re.findall(r"^```sh\n(.*?)^```", README, flags=re.M | re.S)
    commands = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("metacomment ")]
    assert len(commands) == 14
    parser = cli.build_parser()
    for command in commands:
        args = parser.parse_args(shlex.split(command, comments=True)[1:])
        assert args.func.__name__ == "cmd_" + args.command.replace("-", "_"), command


def test_library_use_imports_exist():
    section = README.split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, flags=re.S).group(1)
    tree = ast.parse(code, "README.md")
    compile(tree, "README.md", "exec")
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "metacomment"
                for alias in node.names]
    assert imported
    assert [name for name in imported if not hasattr(metacomment, name)] == []
