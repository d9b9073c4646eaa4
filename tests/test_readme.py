"""README's library example runs as written against the bundled fixtures."""

from __future__ import annotations

import re
from pathlib import Path

from conftest import REVIEWS_TSV, bundled_embedding_path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The first python block under README's "Library use" heading."""
    section = README.read_text("utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs(tmp_path, monkeypatch):
    code = library_example()
    for name, path in (("reviews.tsv", REVIEWS_TSV), ("vectors_50d.txt", bundled_embedding_path())):
        assert f'"{name}"' in code
        code = code.replace(f'"{name}"', repr(str(path)))
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(code, str(README), "exec"), namespace)
    labels, probs = namespace["labels"], namespace["probs"]
    assert probs.shape == (len(labels), 2)
    assert (tmp_path / "work" / "run" / "report.jsonl").read_text("utf-8")
