"""Every ``sarv`` name the bench scripts import is still defined under ``src/``.

The bench scripts are read with ``ast``, not run, so a change under
``src/`` that would break one of their imports fails here, without a
bench run.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def sarv_imports() -> list[tuple[str, str, str | None]]:
    """``(file:line, module, name)`` of each import from ``sarv``; ``name`` is None for ``import``."""
    found = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"), str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                if node.module.split(".")[0] == "sarv":
                    found.extend((where, node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Import):
                found.extend((where, alias.name, None) for alias in node.names
                             if alias.name.split(".")[0] == "sarv")
    return found


IMPORTS = sarv_imports()


def test_the_scan_finds_the_bench_imports():
    names = {(module, name) for _, module, name in IMPORTS}
    assert {("sarv.train", "ShardReader"), ("sarv.corpus", "read_corpus"),
            ("sarv.embed", "embedding_matrix"), ("sarv.textproc", "unify_length"),
            ("sarv.cli", None)} <= names


@pytest.mark.parametrize("where, module, name", IMPORTS,
                         ids=[f"{where}:{name or module}" for where, module, name in IMPORTS])
def test_each_bench_import_from_sarv_resolves(where, module, name):
    mod = importlib.import_module(module)
    if name is not None:
        # ``from package import submodule`` also resolves to a module not yet imported.
        submodule = hasattr(mod, "__path__") and importlib.util.find_spec(f"{module}.{name}")
        assert hasattr(mod, name) or submodule, f"{where}: {module} defines no {name}"
