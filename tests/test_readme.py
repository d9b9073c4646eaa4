"""README's examples hold: the library example runs against the bundled fixtures, and the
INI example is a valid config file."""

from __future__ import annotations

import re
from dataclasses import replace
from pathlib import Path

from sarv.cli import RunConfig, config_from_ini

from conftest import REVIEWS_TSV, bundled_embedding_path

README = Path(__file__).resolve().parent.parent / "README.md"


def first_block(heading: str, lang: str) -> str:
    """The first ``lang`` code block under README's ``heading``."""
    section = README.read_text("utf-8").split(heading, 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs(tmp_path, monkeypatch):
    code = first_block("## Library use", "python")
    for name, path in (("reviews.tsv", REVIEWS_TSV), ("vectors_50d.txt", bundled_embedding_path())):
        assert f'"{name}"' in code
        code = code.replace(f'"{name}"', repr(str(path)))
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(code, str(README), "exec"), namespace)
    labels, probs = namespace["labels"], namespace["probs"]
    assert probs.shape == (len(labels), 2)
    assert (tmp_path / "work" / "run" / "report.jsonl").read_text("utf-8")


def test_readme_config_example_is_a_valid_config(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(first_block("### Configuration", "ini"), encoding="utf-8")
    values = config_from_ini(path)  # an unknown or re-sectioned key raises ConfigError
    cfg = replace(RunConfig(), **values)
    assert (cfg.seed, cfg.preset, cfg.classes, cfg.lr, cfg.epochs) == (1, "W2V_LSTM", 2, 0.001, 30)
    assert (cfg.corpus, cfg.embeddings) == ("reviews.tsv", "vectors_50d.txt")
