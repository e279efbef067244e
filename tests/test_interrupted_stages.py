"""A stage ended at any of its writes leaves outputs that cannot pass for a pair.

Each file is replaced whole (``artifact._replace_file``), so a stage that
writes two files that must agree can still be ended between them.  A child
process runs one CLI stage with a hook that ends it with ``os._exit`` right
after the k-th file replacement, over paths that hold an earlier run's
outputs from other inputs.  The last k of each stage lets the run finish, so
the cases cover every write.  Afterwards a consumer must read the whole old
set or the whole new set, or find that the set is mixed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from domainforge.cli import main
from domainforge.corpus_store import CjkCharTokenizer, RawRecord, ingest, save_store

SRC = Path(__file__).resolve().parents[1] / "src"
KILLED = 75

# argv: k, then the CLI arguments; ends the process after the k-th replacement
CHILD = f"""
import os, sys
from domainforge import artifact, cli

k, calls, replace_file = int(sys.argv[1]), [], artifact._replace_file

def replace_then_exit(*args):
    replace_file(*args)
    calls.append(args[0])
    if len(calls) == k:
        os._exit({KILLED})

artifact._replace_file = replace_then_exit
sys.exit(cli.main(sys.argv[2:]))
"""


def _run_killed(k: int, argv: list) -> bool:
    """Run ``argv`` in a child that ends after its k-th file replacement;
    True if the run finished first."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", CHILD, str(k), *map(str, argv)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode in (0, KILLED), proc.stderr
    return proc.returncode == 0


def _main(argv: list) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


def _bytes(*paths: Path) -> tuple[bytes, ...]:
    return tuple(p.read_bytes() for p in paths)


# ---------------------------------------------------------------------------
# retrieve: the selected store and its provenance TSV

IN_TEXTS = ["脉弦滑数", "脉迟而细", "弦脉主痛", "脉浮而紧", "滑脉主痰", "数脉主热"]
OUT_TEXTS = ["星球轨道", "宇宙火箭", "发射卫星", "天体运行", "轨道交会", "火箭推力"]

RETRIEVE_RUNS = {
    # (keyword file, budget) of the earlier run, then of the run that is ended
    "another-budget": (("pulse.tsv", 8), ("pulse.tsv", 16)),
    "another-keyword-file": (("string.tsv", 16), ("pulse.tsv", 16)),
}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    work = tmp_path_factory.mktemp("corpus")
    records = [RawRecord(f"d{i}", "", text) for i, text in enumerate(IN_TEXTS + OUT_TEXTS)]
    save_store(ingest(records, CjkCharTokenizer(), min_tokens=1), work / "corpus.store")
    index = ["index", "--store", work / "corpus.store", "--output", work / "corpus.idx"]
    assert _main(index)[0] == 0
    (work / "pulse.tsv").write_text("脉\t2\t2.0\ttask\n", encoding="utf-8")
    (work / "string.tsv").write_text("弦\t1\t1.0\ttask\n", encoding="utf-8")
    return work


def _retrieve(corpus: Path, out: Path, keywords: str, budget: int) -> list:
    return ["retrieve", "--index", corpus / "corpus.idx", "--store", corpus / "corpus.store",
            "--keywords", corpus / keywords, "--budget", budget,
            "--output", out / "selected.store", "--provenance", out / "selected.prov"]


def _names_its_store(store: bytes, prov: bytes) -> bool:
    """Whether the provenance's header names the digest of ``store``."""
    header = prov.decode("utf-8").split("\n", 1)[0]
    return header == f"store\t{store[-8:].hex()}"


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("case", sorted(RETRIEVE_RUNS))
def test_retrieve_ended_at_any_write_leaves_no_pair_of_two_runs(corpus, tmp_path, case, k):
    before, after = RETRIEVE_RUNS[case]
    runs = {}
    for name, (keywords, budget) in (("old", before), ("new", after)):
        (tmp_path / name).mkdir()
        assert _main(_retrieve(corpus, tmp_path / name, keywords, budget))[0] == 0
        runs[name] = _bytes(tmp_path / name / "selected.store", tmp_path / name / "selected.prov")
    assert runs["old"][0] != runs["new"][0]  # the two runs' stores differ

    work = tmp_path / "work"
    shutil.copytree(tmp_path / "old", work)
    finished = _run_killed(k, _retrieve(corpus, work, *after))
    assert finished == (k == 3)  # two writes: the store, then the provenance
    store, prov = _bytes(work / "selected.store", work / "selected.prov")
    assert store in (runs["old"][0], runs["new"][0])
    assert prov in (runs["old"][1], runs["new"][1])
    if (store, prov) not in runs.values():
        # a reader of the pair sees that the provenance names another store
        assert prov.startswith(b"store\t") and not _names_its_store(store, prov)


# ---------------------------------------------------------------------------
# pretrain: the checkpoint and its vocab, read by ``sft --checkpoint``

# two stores of other characters, each with more distinct tokens than the
# vocab cap, so that both vocabs have the same size
STORE_TEXTS = {
    "a.store": ["脉弦滑数迟细濡涩浮沉", "弦滑数迟细濡脉涩浮沉"],
    "b.store": ["星球轨道宇宙火箭发射", "宇宙火箭发射星球轨道"],
}
VOCAB_CAP = 6
MODEL_FLAGS = [
    "--d-model", "8", "--n-layers", "1", "--n-heads", "2", "--d-ff", "16",
    "--max-seq-len", "8", "--lora-rank", "2", "--batch-size", "2", "--epochs", "1",
    "--vocab-cap", VOCAB_CAP,
]


@pytest.fixture(scope="module")
def stores(tmp_path_factory):
    work = tmp_path_factory.mktemp("stores")
    for name, texts in STORE_TEXTS.items():
        records = [RawRecord(f"d{i}", "", text) for i, text in enumerate(texts)]
        save_store(ingest(records, CjkCharTokenizer(), min_tokens=1), work / name)
    (work / "pairs.jsonl").write_text(
        json.dumps({"prompt": "脉弦", "response": "星球"}, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )
    return work


def _pretrain(stores: Path, store: str, output: Path) -> list:
    return ["pretrain", "--store", stores / store, "--output", output, *MODEL_FLAGS]


@pytest.mark.parametrize("k", [
    pytest.param(1, marks=pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 6: the vocab is a sidecar file written after the checkpoint, "
               "so a run ended between the two leaves a new checkpoint beside the old vocab "
               "of the same size, and sft reads the pair",
    )),
    2, 3, 4,
])
def test_pretrain_ended_at_any_write_leaves_no_pair_of_two_runs(stores, tmp_path, k):
    names = ("ck", "ck.vocab")
    runs = {}
    for run, store in (("old", "a.store"), ("new", "b.store")):
        (tmp_path / run).mkdir()
        assert _main(_pretrain(stores, store, tmp_path / run / "ck"))[0] == 0
        runs[run] = _bytes(*(tmp_path / run / name for name in names))
    assert runs["old"][0] != runs["new"][0]
    assert runs["old"][1] != runs["new"][1]

    work = tmp_path / "work"
    shutil.copytree(tmp_path / "old", work)
    finished = _run_killed(k, _pretrain(stores, "b.store", work / "ck"))
    assert finished == (k == 4)  # the checkpoint, its vocab, then the loss TSV
    found = _bytes(*(work / name for name in names))
    # each file is whole, from one run or the other
    origin = [next(run for run, files in runs.items() if files[i] == found[i])
              for i in range(len(names))]
    code, err = _main(["sft", "--checkpoint", work / "ck", "--data", stores / "pairs.jsonl",
                       "--output", work / "tuned", "--batch-size", "1"])
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    if origin[0] == origin[1]:
        assert (code, errors) == (0, [])
    else:
        assert code == 1 and len(errors) == 1, f"sft read a {origin} pair"
