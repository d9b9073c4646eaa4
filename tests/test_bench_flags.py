"""Every flag ``bench/run.py`` passes to a ``sarv`` command is one that command accepts.

The bench script is read with ``ast``, not run.  Each list literal whose
first element names a command is an argv; each ``--flag`` string in it, or
in a list it splices in with ``*name``, must be an option of that
command's parser.  A CLI change that would make a bench run stop on a
usage error fails here, without a bench run.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from sarv.cli import build_parser

RUN_PY = Path(__file__).resolve().parent.parent / "bench" / "run.py"
COMMANDS = ("shard", "train", "eval", "predict")


def _flags(node: ast.AST) -> list[str]:
    return [n.value for n in ast.walk(node)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)
            and n.value.startswith("--")]


def bench_argvs() -> list[tuple[str, str, list[str]]]:
    """``(run.py:line, command, flags)`` of each argv list ``bench/run.py`` builds."""
    tree = ast.parse(RUN_PY.read_text("utf-8"), str(RUN_PY))
    assigned: dict[str, list[ast.AST]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    assigned.setdefault(target.id, []).append(node.value)
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.List) and node.elts
                and isinstance(node.elts[0], ast.Constant) and node.elts[0].value in COMMANDS):
            continue
        flags = _flags(node)
        for elt in node.elts:
            if isinstance(elt, ast.Starred) and isinstance(elt.value, ast.Name):
                for value in assigned.get(elt.value.id, []):
                    flags += _flags(value)
        found.append((f"run.py:{node.lineno}", node.elts[0].value, flags))
    return found


def command_options() -> dict[str, set[str]]:
    parser = build_parser()
    (commands,) = [a.choices for a in parser._actions if isinstance(a.choices, dict)]
    return {name: {s for a in sub._actions for s in a.option_strings}
            for name, sub in commands.items()}


ARGVS = bench_argvs()


def test_the_scan_finds_every_bench_command_and_its_spliced_flags():
    assert {command for _, command, _ in ARGVS} == set(COMMANDS)
    flags = {command: set(f) for _, command, f in ARGVS}
    assert {"--seed", "--shard-size"} <= flags["shard"]
    assert {"--seed", "--preset", "--lr"} <= flags["train"]  # "--lr" is spliced in


@pytest.mark.parametrize("where, command, flags", ARGVS,
                         ids=[f"{where}:{command}" for where, command, _ in ARGVS])
def test_each_bench_flag_is_accepted_by_its_command(where, command, flags):
    unknown = sorted(set(flags) - command_options()[command])
    assert not unknown, f"{where}: sarv {command} takes no {unknown}"
