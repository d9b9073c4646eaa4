"""Seeded synthetic inputs for the sarv benchmark workloads.

Every file is built from the bundled ``mini_glove_50d.txt`` words plus
random words over the Persian alphabet, so nothing is downloaded.  Token
frequencies follow a Zipf law.  The label is carried by the marker word
that directly follows a cue word; a decoy marker of a random class sits
elsewhere in the review, so a model that ignores word order cannot read
the label off reliably.  The embedding file covers most of the corpus
vocabulary, always including the cue and the markers, and pads itself with words
the corpus never uses, as a real pretrained table would.

Generation depends only on ``(workload, seed)``: the same pair gives
byte-identical files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import zlib
from operator import itemgetter
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

PERSIAN_LETTERS = "آابپتثجچحخدذرزژسشصضطظعغفقکگلمنوهی"
CUE = "نهایتا"
POSITIVE = ("عالی", "خوب", "راضیم", "قوی")
NEGATIVE = ("افتضاح", "بد", "ناراضی", "ضعیف")
CLASSES = ("negative", "positive")
MAX_SLOT = 15  # the cue/marker pair must fall inside sarv's 15-token window
ZIPF_S = 1.05
EMBED_COVERAGE = 0.9  # share of the corpus vocabulary the embedding file covers
EMBED_DIM = 50
KEEP_CACHED = 2  # generated input sets kept per workload

# Normalizer noise for workloads with ``noise=True``: every variant below
# normalizes back to the clean token sequence.
PUNCT = "!?.،؛:"
DIGITS = "0123456789۰۱۲۳۴۵۶۷۸۹"
ZWNJ = "‌"


@dataclass(frozen=True)
class InputSpec:
    rows: int
    min_tokens: int
    max_tokens: int
    vocab: int
    embed_lines: int
    predict_lines: int
    noise: bool = False

    def __post_init__(self) -> None:
        if not 2 <= self.min_tokens <= self.max_tokens:
            raise ValueError("reviews need room for the cue and its marker: 2 <= min <= max")


def _bundled(src_root: Path) -> dict[str, str]:
    """word -> the 50 vector components as written in the bundled file."""
    path = src_root / "sarv" / "data" / "mini_glove_50d.txt"
    out = {}
    for line in path.read_text("utf-8").splitlines():
        word, _, vec = line.partition(" ")
        out[word] = vec
    return out


def _stopwords(src_root: Path) -> set[str]:
    text = (src_root / "sarv" / "data" / "stopwords_fa.txt").read_text("utf-8")
    return {w.strip() for w in text.splitlines() if w.strip()}


def _random_words(rng, count: int, lo: int, hi: int, taken: set[str]) -> list[str]:
    """``count`` distinct new words of ``lo..hi`` letters, none in ``taken``."""
    letters = np.array(list(PERSIAN_LETTERS))
    out: list[str] = []
    while len(out) < count:
        need = count - len(out)
        lens = rng.integers(lo, hi + 1, size=need)
        chars = letters[rng.integers(0, len(letters), size=int(lens.sum()))]
        pos = 0
        for n in lens.tolist():
            word = "".join(chars[pos:pos + n])
            pos += n
            if word not in taken:
                taken.add(word)
                out.append(word)
    return out


def _sentences(rng, spec: InputSpec, words: list[str], count: int, stopwords):
    """Yield ``(raw_text, label_index)`` for ``count`` reviews."""
    ranks = np.arange(1, len(words) + 1, dtype=np.float64)
    p = ranks ** -ZIPF_S
    p /= p.sum()
    lengths = rng.integers(spec.min_tokens, spec.max_tokens + 1, size=count)
    ids = rng.choice(len(words), size=int(lengths.sum()), p=p)
    labels = rng.integers(0, len(CLASSES), size=count)
    markers = POSITIVE + NEGATIVE
    stop = sorted(stopwords)
    pos = 0
    for n, y in zip(lengths.tolist(), labels.tolist()):
        toks = [words[i] for i in ids[pos:pos + n].tolist()]
        pos += n
        cue = int(rng.integers(0, min(n, MAX_SLOT) - 1))
        toks[cue] = CUE
        toks[cue + 1] = (POSITIVE if y == 1 else NEGATIVE)[int(rng.integers(len(POSITIVE)))]
        free = [k for k in range(n) if k not in (cue, cue + 1)]
        if free:
            toks[free[int(rng.integers(len(free)))]] = markers[int(rng.integers(len(markers)))]
        yield (_noisy(rng, toks, stop) if spec.noise else " ".join(toks)), y


def _noisy(rng, toks: list[str], stop: list[str]) -> str:
    n = len(toks)
    u = rng.random((n, 4))
    pick = rng.integers(0, 1 << 30, size=(n, 4)).tolist()
    parts = []
    for k, tok in enumerate(toks):
        if u[k, 0] < 0.15:
            parts += [stop[pick[k][0] % len(stop)], " "]
        if u[k, 1] < 0.08:
            tok += PUNCT[pick[k][1] % len(PUNCT)]
        if u[k, 2] < 0.05:
            tok += DIGITS[pick[k][2] % len(DIGITS)] + DIGITS[pick[k][3] % len(DIGITS)]
        parts += [tok, ZWNJ if u[k, 3] < 0.1 else " "]
    text = "".join(parts[:-1])
    if rng.random() < 0.3:
        text = text.replace("ی", "ي").replace("ک", "ك")
    return text


def _vector_lines(rng, words: list[str], bundled: dict[str, str]) -> list[str]:
    # Components are drawn as 5-decimal values in [-1, 1]; formatting from a
    # table keeps a 100k-line file at well under a second.
    table = [f"{v / 1e5:.5f}" for v in range(-100000, 100001)]
    draws = rng.integers(0, len(table), size=(len(words), EMBED_DIM)).tolist()
    out = []
    for word, row in zip(words, draws):
        vec = bundled.get(word) or " ".join(itemgetter(*row)(table))
        out.append(f"{word} {vec}\n")
    return out


def generate(name: str, spec: InputSpec, seed: int, out_dir: Path, src_root: Path) -> dict:
    """Write ``corpus.tsv``, ``vectors.txt`` and ``predict.txt``; return their counts."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(name.encode())]))
    bundled = _bundled(src_root)
    stopwords = _stopwords(src_root)
    reserved = {CUE, *POSITIVE, *NEGATIVE}
    words = [w for w in bundled if w not in reserved][: spec.vocab]
    taken = set(bundled) | stopwords | reserved
    words += _random_words(rng, spec.vocab - len(words), 2, 9, taken)
    order = rng.permutation(len(words))  # bundled words get random ranks too
    words = [words[i] for i in order.tolist()]

    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "corpus.tsv", "w", encoding="utf-8", newline="") as fh:
        fh.write("text\tlabel\n")
        for text, y in _sentences(rng, spec, words, spec.rows, stopwords):
            fh.write(f"{text}\t{CLASSES[y]}\n")
    with open(out_dir / "predict.txt", "w", encoding="utf-8", newline="") as fh:
        for text, _ in _sentences(rng, spec, words, spec.predict_lines, stopwords):
            fh.write(text + "\n")

    covered = [w for w, keep in zip(words, rng.random(len(words)) < EMBED_COVERAGE) if keep]
    vocab_words = [CUE, *POSITIVE, *NEGATIVE, *covered]
    fillers = _random_words(rng, max(spec.embed_lines - len(vocab_words), 0), 3, 10, taken)
    with open(out_dir / "vectors.txt", "w", encoding="utf-8", newline="") as fh:
        fh.writelines(_vector_lines(rng, vocab_words + fillers, bundled))

    return {
        "rows": spec.rows,
        "predict_lines": spec.predict_lines,
        "embed_lines": len(vocab_words) + len(fillers),
    }


def cached_inputs(name: str, spec: InputSpec, seed: int, cache_root: Path,
                  src_root: Path) -> tuple[Path, dict]:
    """Generate once per ``(workload, seed, spec)``; keep the newest few per workload.

    The cache key also covers this file and the bundled data it reads, so
    a change to either regenerates the inputs instead of reusing stale ones.

    Generation runs in a child process: a child inherits its parent's peak
    RSS as a floor, so the benchmark process must stay small for the
    steps' peak-RSS readings to mean anything.
    """
    spec_json = json.dumps(asdict(spec), sort_keys=True)
    key = zlib.crc32(spec_json.encode())
    for source in (Path(__file__), src_root / "sarv" / "data" / "mini_glove_50d.txt",
                   src_root / "sarv" / "data" / "stopwords_fa.txt"):
        key = zlib.crc32(source.read_bytes(), key)
    out = cache_root / f"{name}-{seed}-{key:08x}"
    meta_path = out / "meta.json"
    if meta_path.exists():
        meta_path.touch()
        return out, json.loads(meta_path.read_text())
    if out.exists():
        shutil.rmtree(out)  # left behind by an interrupted generation
    subprocess.run([sys.executable, __file__, name, str(seed), str(out), str(src_root),
                    spec_json], check=True, timeout=170)
    mine = sorted(
        (p for p in cache_root.glob(f"{name}-*") if (p / "meta.json").exists()),
        key=lambda p: (p / "meta.json").stat().st_mtime,
    )
    for old in mine[:-KEEP_CACHED]:
        shutil.rmtree(old, ignore_errors=True)
    return out, json.loads(meta_path.read_text())


if __name__ == "__main__":
    _name, _seed, _out, _src, _spec = sys.argv[1:]
    _meta = generate(_name, InputSpec(**json.loads(_spec)), int(_seed), Path(_out), Path(_src))
    (Path(_out) / "meta.json").write_text(json.dumps(_meta))
