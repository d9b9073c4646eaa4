"""Pinned sha256 digests of every artifact ``preprocess``, ``shard`` and ``predict`` write.

A change to the text front end, the encoder or the record layout must
leave these bytes alone: ``vocab.tsv``, ``chars.tsv``, ``stopwords.txt``,
``encoded.jsonl``, ``histogram.txt``, both manifests, every shard (with
and without ``--rus``) and ``predict``'s stdout.  The corpora are the
bundled review fixture and a noisy corpus built here from a fixed seed:
Arabic letter variants, ZWNJ, tashkeel, three digit scripts, Unicode
punctuation, Latin letters, control whitespace, stopwords in folded and
unfolded forms, over-long tokens, texts with embedded line feeds and
texts that normalise to nothing.
"""

from __future__ import annotations

import hashlib
import json
import re

import numpy as np
import pytest

from sarv.cli import main

from conftest import FILLERS, MARKER, REVIEWS_TSV, bundled_embedding_path

PIECES = (
    *FILLERS, *MARKER.values(),
    "از", "به", "که", "كه", "اين", "براي", "نمي", "Very", "OK", "iPhone12",  # stopwords, variants
    "مي‌شود", "كيفيت", "گوشي", "خوبِ", "عاليٌ", "بسیارً",  # yeh/kaf, ZWNJ, tashkeel
    "123", "۱۲۳", "١٢٣", "٤٥٦", "۴۵۶x",  # ASCII, Persian and Arabic-Indic digits
    "،", "؟", "!", ".", "«", "»", "(", ")", "-", "…", "؛", "٪", ":",  # punctuation
    "بببببببببببببببببببببببببب", "فوق‌العاده‌ترینِ‌کیفیت‌ممکن",  # longer than 20 chars
)
GLUE = (" ", " ", " ", "  ", "\t", "\x0b", "\x0c", "\x1c", "\x1f", "‌", "\r", "\n", "")


def noisy_texts(n: int, seed: int) -> list[str]:
    rng = np.random.default_rng(seed)
    texts = ["", "!!! ... 123 ۱۲۳", "از به که"]
    while len(texts) < n:
        length = int(rng.integers(1, 26))
        parts = []
        for _ in range(length):
            parts.append(PIECES[int(rng.integers(len(PIECES)))])
            parts.append(GLUE[int(rng.integers(len(GLUE)))])
        texts.append("".join(parts))
    return texts


def noisy_jsonl(path, n: int = 90, seed: int = 12) -> None:
    labels = ("positive", "positive", "negative")
    lines = [json.dumps({"text": t, "label": labels[k % 3], "category": "Noise"},
                        ensure_ascii=False)
             for k, t in enumerate(noisy_texts(n, seed))]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def digests(out_dir) -> dict[str, str]:
    """sha256 of every file the command wrote, except the path-bearing ``resolved.ini``."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir()) if p.name != "resolved.ini"}


def run(*argv) -> None:
    assert main([str(a) for a in argv]) == 0


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    base = tmp_path_factory.mktemp("digest_corpora")
    noisy = base / "noisy.jsonl"
    noisy_jsonl(noisy)
    empty = base / "empty_stopwords.txt"
    empty.write_text("", encoding="utf-8")
    return {"reviews": REVIEWS_TSV, "noisy": noisy}, empty


CASES = {
    "reviews-preprocess": ("reviews", "preprocess", ()),
    "reviews-preprocess-nostop": ("reviews", "preprocess", ("--stopwords", "EMPTY")),
    "reviews-shard": ("reviews", "shard", ("--seed", 4, "--shard-size", 2)),
    "reviews-shard-rus": ("reviews", "shard", ("--seed", 4, "--shard-size", 2, "--rus")),
    "noisy-preprocess": ("noisy", "preprocess", ()),
    "noisy-preprocess-nostop": ("noisy", "preprocess", ("--stopwords", "EMPTY")),
    "noisy-shard": ("noisy", "shard", ("--seed", 11, "--shard-size", 16, "--split", 0.75)),
    "noisy-shard-rus": ("noisy", "shard", ("--seed", 11, "--shard-size", 16, "--rus")),
}

PINNED: dict[str, dict[str, str]] = {
    "noisy-preprocess": {
        "chars.tsv": "01b081e932ec618e76998f707a5badbe2441cf315f498c12406d7d71a811c33e",
        "encoded.jsonl": "e37530c7d6a154c8610143a10d58df7e04187b0201dde842adeed5094be426a3",
        "histogram.txt": "a2aaa4119ccff9f2e104dd3ab2845555c4adecba408f6c0fe5062a974aacb85b",
        "stopwords.txt": "6a1550db5921f9904ddbbebb9a07a7fa59fe5e59921df8d87ec4a9b59a9a48ef",
        "vocab.tsv": "fa593ac6b7adf648f8d5f10459e6880851c5607f2de86a28f4aadf39be33acf9"
    },
    "noisy-preprocess-nostop": {
        "chars.tsv": "01b081e932ec618e76998f707a5badbe2441cf315f498c12406d7d71a811c33e",
        "encoded.jsonl": "500b5f6f3fa1cbb50008de04aa7bfaf719d0618822bbda683d512cfe49ab70c1",
        "histogram.txt": "0ded22b58e5f7ba38a4004740ea2ef6bc83ace030327863e86a50fef4c583a06",
        "stopwords.txt": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "vocab.tsv": "3246683a90d933ec4a876d265b4b3088cf880fc6e1ca6e63930ae7a2acdb92f6"
    },
    "noisy-shard": {
        "chars.tsv": "01b081e932ec618e76998f707a5badbe2441cf315f498c12406d7d71a811c33e",
        "stopwords.txt": "6a1550db5921f9904ddbbebb9a07a7fa59fe5e59921df8d87ec4a9b59a9a48ef",
        "test-00000.npy": "51595215d4c1fc7e7f7c4fc336dbe0f0f7e7418caf212bcfd16afd75713aa7dd",
        "test-00001.npy": "7217568c404a76fe734b12d65e425339239160a65e3fb0a649f6d39f6c505d44",
        "test.manifest.json": "fe3e7f0eb27ce9bbc2ca0384bb5906a33afea2535b2571bebac9ef114efe14ca",
        "train-00000.npy": "88e2f08aef8dedef5c140190b89ceed4f182bf9aff32656bc08604263b58014a",
        "train-00001.npy": "d7e8e3a085034f84cc598ad59c265d56147758807abace901a7ce8edab6d7326",
        "train-00002.npy": "9a56d6816a42b6b943d7d1a4f08db24b892fd1c226049ff00eecad975e923f3d",
        "train-00003.npy": "bd9e0043ee2ef6d85a6883513a228c1a62c2cbd04ec68d7e94df719ca3bf3ed3",
        "train-00004.npy": "d9be2971b7ab666f7b0860606ac8adef56b7cb6b2b779c18956fc6f007d6f8b6",
        "train.manifest.json": "d3bf95662223482d07122db9c98bffd8fac56cdab242df0498f035dc1511d4dd",
        "vocab.tsv": "fa593ac6b7adf648f8d5f10459e6880851c5607f2de86a28f4aadf39be33acf9"
    },
    "noisy-shard-rus": {
        "chars.tsv": "01b081e932ec618e76998f707a5badbe2441cf315f498c12406d7d71a811c33e",
        "stopwords.txt": "6a1550db5921f9904ddbbebb9a07a7fa59fe5e59921df8d87ec4a9b59a9a48ef",
        "test-00000.npy": "a854abc7f03d3816a46d49ba76ab4e89992a77420eb849edae21647540596607",
        "test-00001.npy": "9ef6b1808282cff44bb075371aadf1d2f5af3a7adbd130a2cfcc6cc2dd63b1fb",
        "test.manifest.json": "f8439739253131b92e29627e5a99fcf7ad7828e4c85c755492278ccd0a4f1a66",
        "train-00000.npy": "ade6b95cc96475fb64f948d15c2c87f4b8b53bca60ec9c60cd25f3dd27a95d80",
        "train-00001.npy": "403c9fc31553706fd34dc7eda383b7699f69e5e5260eb99873b472b8c61e156e",
        "train-00002.npy": "c75e250c8772ff80ae848100ab6c70468e9d40f6f1a32249d76daa075b06b809",
        "train-00003.npy": "c24bf18dd2ec50530a9ce0bfafee8d0284001009e8480775b4162561bbb494ba",
        "train.manifest.json": "13da42e46056840e95f2b84f5a3769069ff70863eccc672cef0254378b3c0616",
        "vocab.tsv": "fa593ac6b7adf648f8d5f10459e6880851c5607f2de86a28f4aadf39be33acf9"
    },
    "reviews-preprocess": {
        "chars.tsv": "46920d63da7d6d2777623c4cd07872d17127ddc6cbd7a25d750457e189f463cf",
        "encoded.jsonl": "bae49e01b75ff4b9a8b858a5c23a9f144b4239c94c4374d0d02df415f4765cfc",
        "histogram.txt": "e94834a74a1d1d2b59c994033b3ba433b059c71cb015fef59589d11db2c4d038",
        "stopwords.txt": "6a1550db5921f9904ddbbebb9a07a7fa59fe5e59921df8d87ec4a9b59a9a48ef",
        "vocab.tsv": "5f0730353a95522d32da718efd00bfad39722c29dfd01257f938a29fa01f7712"
    },
    "reviews-preprocess-nostop": {
        "chars.tsv": "5599079e2ec917b59a030380de73398153b17c5a15538b4e0e5fee9127f84763",
        "encoded.jsonl": "9fdb51931323b79ba72d3c9669125cb65a6d4fba40a9e684238971114112f751",
        "histogram.txt": "f09ef232a523c2bb3e1e6744cf05bb106bb28539788baa7b3e0f03efc9083601",
        "stopwords.txt": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "vocab.tsv": "4b06cb539776bce15a09882894b36ff24293a7756dc8af5cebab0ba6d5b69b14"
    },
    "reviews-shard": {
        "chars.tsv": "46920d63da7d6d2777623c4cd07872d17127ddc6cbd7a25d750457e189f463cf",
        "stopwords.txt": "6a1550db5921f9904ddbbebb9a07a7fa59fe5e59921df8d87ec4a9b59a9a48ef",
        "test-00000.npy": "c549136eb867371e3235bcc6565e5b13cde7d83f1b9ec7e3966c75df2411ca70",
        "test.manifest.json": "2e20f656796c3bebbd2f250fcb930936a7497afb62bfe676de814710d4316384",
        "train-00000.npy": "b6d631f154d60f37316045e2bb57ca20fbc29f2234ce7d7466e5853224da58d1",
        "train-00001.npy": "30c4a423ae6e91933f66ecfbf72ee9f922ca1552aaa7a6676820e964764313fb",
        "train.manifest.json": "fef0f6e0f923030a58fcbe0874c6185793b2793c1132c47cea8eab81ef654414",
        "vocab.tsv": "5f0730353a95522d32da718efd00bfad39722c29dfd01257f938a29fa01f7712"
    },
    "reviews-shard-rus": {
        "chars.tsv": "46920d63da7d6d2777623c4cd07872d17127ddc6cbd7a25d750457e189f463cf",
        "stopwords.txt": "6a1550db5921f9904ddbbebb9a07a7fa59fe5e59921df8d87ec4a9b59a9a48ef",
        "test-00000.npy": "c549136eb867371e3235bcc6565e5b13cde7d83f1b9ec7e3966c75df2411ca70",
        "test.manifest.json": "2e20f656796c3bebbd2f250fcb930936a7497afb62bfe676de814710d4316384",
        "train-00000.npy": "30c4a423ae6e91933f66ecfbf72ee9f922ca1552aaa7a6676820e964764313fb",
        "train-00001.npy": "fb8e477e520f8ce5a01d395444296aff1c2bf64b627f4257d01125836fbcca82",
        "train.manifest.json": "a87db72907bca971b949422fc05f98455e7f67f97eb6660cc2d28b37d02485c4",
        "vocab.tsv": "5f0730353a95522d32da718efd00bfad39722c29dfd01257f938a29fa01f7712"
    }
}

PINNED_PREDICT = "f846eb0d9355478cb84f324731d12328bad13d301f1b494611ea3e696aca1e23"


@pytest.mark.parametrize("case", sorted(CASES))
def test_artifact_digests_are_pinned(case, corpora, tmp_path):
    paths, empty = corpora
    corpus, command, extra = CASES[case]
    extra = [empty if a == "EMPTY" else a for a in extra]
    out = tmp_path / "out"
    run(command, "--corpus", paths[corpus], "--out-dir", out, *extra)
    assert digests(out) == PINNED[case]


def test_predict_stdout_digest_is_pinned(corpora, tmp_path, capsys):
    paths, _ = corpora
    shards, ckpt_dir = tmp_path / "shards", tmp_path / "run"
    run("shard", "--corpus", paths["noisy"], "--out-dir", shards, "--seed", 11)
    run("train", "--shard-dir", shards, "--out-dir", ckpt_dir, "--preset", "W2V_SOFTMAX",
        "--embeddings", bundled_embedding_path(), "--batch-size", 8, "--seed", 11)
    lines = noisy_texts(40, seed=13)
    # Line ends and the separators ``str.splitlines`` also breaks at are blanked.
    lines = [re.sub("[\n\r\x0b\x0c\x1c-\x1e]", " ", t) for t in lines]
    lines += REVIEWS_TSV.read_text("utf-8").split("\n")[1:]
    inp = tmp_path / "lines.txt"
    inp.write_text("\r\n".join(lines), encoding="utf-8")
    capsys.readouterr()
    run("predict", "--checkpoint", ckpt_dir / "checkpoint_best.bin", "--shard-dir", shards,
        "--embeddings", bundled_embedding_path(), "--input", inp)
    stdout = capsys.readouterr().out
    assert stdout.count("\n") == sum(1 for ln in lines if ln.strip())
    assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == PINNED_PREDICT
