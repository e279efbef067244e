from __future__ import annotations

import hashlib
import json
import logging
import math
import re
import struct
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

from domainforge import __version__
from domainforge.artifact import pack_text, read_artifact, write_artifact
from domainforge.cli import main
from domainforge.corpus_store import (
    STORE_MAGIC,
    CjkCharTokenizer,
    RawRecord,
    ingest,
    load_store,
    save_store,
)
from domainforge.evaluator import McqItem, save_exam
from domainforge.lora_model import (
    CHECKPOINT_MAGIC,
    MAX_PARAMETERS,
    SPECIAL_TOKENS,
    VOCAB_MAGIC,
    ModelConfig,
    build_vocab,
    init_model,
    load_checkpoint,
    save_checkpoint,
    save_vocab,
)
from domainforge.retrieval import INDEX_MAGIC, build_index, save_index
from test_retrieval import FORGED_INDEXES, forgery_cases, index_body

IN_CHARS = "脉弦滑数迟细濡涩浮沉"
OUT_CHARS = "星球轨道宇宙火箭发射天"


def write_raw(path, n_in=5, n_out=5):
    lines = []
    for i in range(n_in):
        lines.append(
            {"source_id": f"in-{i}", "title": "脉诊", "body": IN_CHARS * 3}
        )
    for i in range(n_out):
        lines.append(
            {"source_id": f"out-{i}", "title": "天文", "body": OUT_CHARS * 3}
        )
    path.write_text(
        "\n".join(json.dumps(obj, ensure_ascii=False) for obj in lines) + "\n",
        encoding="utf-8",
    )


def write_samples(path):
    path.write_text(
        "脉弦滑数之象\n脉象弦滑而数者\n弦滑脉主痰饮之证\n", encoding="utf-8"
    )


def write_exam(path):
    items = [
        McqItem(
            stem=f"问题{i}",
            options=(("A", "甲"), ("B", "乙"), ("C", "丙"), ("D", "丁")),
            gold=gold,
        )
        for i, gold in enumerate(["B", "D", "A"])
    ]
    save_exam(items, path)
    return items


PRETRAIN_FLAGS = [
    "--d-model", "16", "--n-layers", "1", "--n-heads", "2", "--d-ff", "32",
    "--max-seq-len", "16", "--lora-rank", "2", "--lora-alpha", "4",
    "--lora-dropout", "0.0", "--learning-rate", "0.01", "--batch-size", "4",
    "--seed", "0",
]


@pytest.fixture
def workspace(tmp_path):
    write_raw(tmp_path / "raw.jsonl")
    write_samples(tmp_path / "samples.txt")
    (tmp_path / "lexicon.txt").write_text("脉象\n弦脉\n", encoding="utf-8")
    return tmp_path


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def prepare_selected_store(ws, capsys):
    assert main([
        "ingest", "--input", str(ws / "raw.jsonl"),
        "--output", str(ws / "corpus.store"), "--min-tokens", "5",
    ]) == 0
    assert main([
        "keywords", "--samples", str(ws / "samples.txt"),
        "--lexicon", str(ws / "lexicon.txt"),
        "--output", str(ws / "keywords.tsv"),
    ]) == 0
    assert main([
        "index", "--store", str(ws / "corpus.store"),
        "--output", str(ws / "corpus.idx"),
    ]) == 0
    assert main([
        "retrieve", "--index", str(ws / "corpus.idx"),
        "--store", str(ws / "corpus.store"),
        "--keywords", str(ws / "keywords.tsv"),
        "--budget", "200", "--output", str(ws / "selected.store"),
        "--provenance", str(ws / "selected.prov"),
    ]) == 0
    capsys.readouterr()


def test_full_pipeline(workspace, capsys):
    ws = workspace

    code, out, _ = run([
        "ingest", "--input", str(ws / "raw.jsonl"),
        "--output", str(ws / "corpus.store"), "--min-tokens", "5",
    ], capsys)
    assert code == 0
    assert "documents=10" in out

    code, out, _ = run([
        "keywords", "--samples", str(ws / "samples.txt"),
        "--lexicon", str(ws / "lexicon.txt"),
        "--output", str(ws / "keywords.tsv"),
    ], capsys)
    assert code == 0
    assert "keywords=" in out
    assert (ws / "keywords.tsv").read_text(encoding="utf-8").strip()

    code, out, _ = run([
        "index", "--store", str(ws / "corpus.store"),
        "--output", str(ws / "corpus.idx"),
    ], capsys)
    assert code == 0
    assert "documents=10" in out

    code, out, _ = run([
        "retrieve", "--index", str(ws / "corpus.idx"),
        "--store", str(ws / "corpus.store"),
        "--keywords", str(ws / "keywords.tsv"),
        "--budget", "200", "--output", str(ws / "selected.store"),
        "--provenance", str(ws / "selected.prov"),
    ], capsys)
    assert code == 0
    assert "selected=5" in out  # exactly the pulse-themed half
    assert (ws / "selected.prov").exists()

    code, out, _ = run([
        "pretrain", "--store", str(ws / "selected.store"),
        "--output", str(ws / "model.ckpt"), "--epochs", "1",
        *PRETRAIN_FLAGS,
    ], capsys)
    assert code == 0
    assert "steps=" in out
    assert (ws / "model.ckpt.vocab").exists()
    assert (ws / "model.ckpt.loss.tsv").exists()

    sft_data = ws / "sft.jsonl"
    sft_data.write_text(
        json.dumps({"prompt": "脉弦滑数", "response": "弦滑"}, ensure_ascii=False)
        + "\n"
        + json.dumps({"prompt": "脉迟而细", "response": "迟细"}, ensure_ascii=False)
        + "\n",
        encoding="utf-8",
    )
    code, out, _ = run([
        "sft", "--checkpoint", str(ws / "model.ckpt"),
        "--data", str(sft_data), "--output", str(ws / "tuned.ckpt"),
        "--epochs", "2", "--learning-rate", "0.005", "--batch-size", "2",
        "--seed", "0",
    ], capsys)
    assert code == 0
    assert "steps=" in out

    exam = ws / "exam.jsonl"
    write_exam(exam)
    code, out, _ = run([
        "eval", "--checkpoint", str(ws / "tuned.ckpt"), "--exam", str(exam),
        "--responder", "gold", "--output", str(ws / "report.tsv"),
    ], capsys)
    assert code == 0
    assert "accuracy=1.0000 n=3 abstain=0" in out
    assert "accuracy=1.0000" in (ws / "report.tsv").read_text(encoding="utf-8")

    code, out, _ = run([
        "eval", "--checkpoint", str(ws / "tuned.ckpt"), "--exam", str(exam),
        "--responder", "empty",
    ], capsys)
    assert code == 0
    assert "accuracy=0.0000 n=3 abstain=3" in out

    code, out, _ = run([
        "eval", "--checkpoint", str(ws / "tuned.ckpt"), "--exam", str(exam),
        "--responder", "model", "--max-new-tokens", "4",
    ], capsys)
    assert code == 0
    assert "accuracy=" in out


def test_pretrain_rerun_is_byte_identical(workspace, capsys):
    ws = workspace
    prepare_selected_store(ws, capsys)
    for name in ("one.ckpt", "two.ckpt"):
        assert main([
            "pretrain", "--store", str(ws / "selected.store"),
            "--output", str(ws / name), "--epochs", "1", *PRETRAIN_FLAGS,
        ]) == 0
    assert (ws / "one.ckpt").read_bytes() == (ws / "two.ckpt").read_bytes()
    assert (ws / "one.ckpt.vocab").read_bytes() == (ws / "two.ckpt.vocab").read_bytes()
    assert (
        (ws / "one.ckpt.loss.tsv").read_bytes()
        == (ws / "two.ckpt.loss.tsv").read_bytes()
    )


def test_pretrain_resume_matches_straight_run(workspace, capsys):
    ws = workspace
    prepare_selected_store(ws, capsys)
    assert main([
        "pretrain", "--store", str(ws / "selected.store"),
        "--output", str(ws / "straight.ckpt"), "--epochs", "2", *PRETRAIN_FLAGS,
    ]) == 0
    assert main([
        "pretrain", "--store", str(ws / "selected.store"),
        "--output", str(ws / "stage1.ckpt"), "--epochs", "1", *PRETRAIN_FLAGS,
    ]) == 0
    assert main([
        "pretrain", "--store", str(ws / "selected.store"),
        "--resume", str(ws / "stage1.ckpt"),
        "--output", str(ws / "stage2.ckpt"), "--epochs", "2", *PRETRAIN_FLAGS,
    ]) == 0
    assert (ws / "stage2.ckpt").read_bytes() == (ws / "straight.ckpt").read_bytes()


def test_pretrain_trains_an_embedding_only_model(workspace, capsys):
    ws = workspace
    prepare_selected_store(ws, capsys)
    code, out, err = run([
        "pretrain", "--store", str(ws / "selected.store"), "--output", str(ws / "emb.ckpt"),
        "--epochs", "1", *PRETRAIN_FLAGS, "--n-layers", "0", "--train-embeddings",
    ], capsys)
    assert code == 0 and "error:" not in err
    assert "steps=" in out
    state, _, _, _ = load_checkpoint(ws / "emb.ckpt")
    assert state.config.n_layers == 0


def test_gradcheck_command(capsys):
    # seed 3: criterion 2 of the acceptance suite already checks seed 0
    code, out, _ = run(["gradcheck", "--seed", "3"], capsys)
    assert code == 0
    assert "passed=True" in out


def test_retrieve_without_matches_reports_diagnostic(workspace, capsys):
    ws = workspace
    prepare_selected_store(ws, capsys)
    (ws / "none.tsv").write_text("甲骨\t1\t1.0\ttask\n", encoding="utf-8")
    code, _, err = run([
        "retrieve", "--index", str(ws / "corpus.idx"),
        "--store", str(ws / "corpus.store"),
        "--keywords", str(ws / "none.tsv"),
        "--budget", "100", "--output", str(ws / "never.store"),
    ], capsys)
    assert code == 1
    assert "error: NoPositiveScoreError" in err
    assert "no positive-score documents" in err


# three documents of 12 tokens each; only the first holds the keyword 脉
SAME_LENGTH_TEXTS = ["脉弦滑数迟细濡涩浮沉洪大", "今天天气很好我们去公园玩", "星球轨道宇宙火箭发射天空"]


def save_texts(path, texts):
    """Ingest ``texts`` as one record each and save the store at ``path``."""
    records = [RawRecord(f"r{i}", "", text) for i, text in enumerate(texts)]
    save_store(ingest(records, CjkCharTokenizer(), min_tokens=1), path)


def index_and_retrieve(tmp_path, capsys, indexed, store):
    """Index the store file ``indexed``, then retrieve over ``store`` with that
    index and the keyword 脉 under a one-document budget."""
    assert run(["index", "--store", str(tmp_path / indexed),
                "--output", str(tmp_path / "a.idx")], capsys)[0] == 0
    (tmp_path / "kw.tsv").write_text("脉\t1\t1.0\ttask\n", encoding="utf-8")
    return run([
        "retrieve", "--index", str(tmp_path / "a.idx"), "--store", str(tmp_path / store),
        "--keywords", str(tmp_path / "kw.tsv"), "--budget", "12",
        "--output", str(tmp_path / "out.store"),
    ], capsys)


def test_retrieve_rejects_an_index_of_another_store(tmp_path, capsys):
    # the same documents in another order: as many documents, the same
    # tokenizer and the same lengths, but the index would score the store's
    # document 0 with the postings of its own document 0, the one with 脉
    save_texts(tmp_path / "a.store", SAME_LENGTH_TEXTS)
    save_texts(tmp_path / "b.store", SAME_LENGTH_TEXTS[1::-1] + SAME_LENGTH_TEXTS[2:])
    code, _, err = index_and_retrieve(tmp_path, capsys, "a.store", "b.store")
    assert code == 1
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    assert errors[0].startswith("error: ConfigError: ")
    assert str(tmp_path / "a.idx") in errors[0]
    assert str(tmp_path / "b.store") in errors[0]
    assert not (tmp_path / "out.store").exists()


def test_retrieve_accepts_a_store_saved_again_from_the_same_documents(tmp_path, capsys):
    save_texts(tmp_path / "a.store", SAME_LENGTH_TEXTS)
    save_texts(tmp_path / "again.store", SAME_LENGTH_TEXTS)
    assert (tmp_path / "again.store").read_bytes() == (tmp_path / "a.store").read_bytes()
    code, out, _ = index_and_retrieve(tmp_path, capsys, "a.store", "again.store")
    assert code == 0
    assert out == "selected=1 tokens=12\n"
    assert [d.text for d in load_store(tmp_path / "out.store")] == SAME_LENGTH_TEXTS[:1]


def test_retrieve_outputs_name_their_inputs(workspace, capsys):
    ws = workspace
    prepare_selected_store(ws, capsys)
    selected = load_store(ws / "selected.store")
    keywords = hashlib.blake2b((ws / "keywords.tsv").read_bytes(), digest_size=8).digest()
    assert selected.sources == ((ws / "corpus.idx").read_bytes()[-8:], keywords)
    header = (ws / "selected.prov").read_text(encoding="utf-8").splitlines()[0]
    assert header == f"store\t{(ws / 'selected.store').read_bytes()[-8:].hex()}"
    # a digest names bytes, not a path: copies of the inputs select the same bytes
    copy = ws / "copy"
    copy.mkdir()
    for name in ("corpus.idx", "corpus.store", "keywords.tsv"):
        (copy / name).write_bytes((ws / name).read_bytes())
    assert main([
        "retrieve", "--index", str(copy / "corpus.idx"), "--store", str(copy / "corpus.store"),
        "--keywords", str(copy / "keywords.tsv"), "--budget", "200",
        "--output", str(copy / "selected.store"), "--provenance", str(copy / "selected.prov"),
    ]) == 0
    for name in ("selected.store", "selected.prov"):
        assert (copy / name).read_bytes() == (ws / name).read_bytes()


@pytest.mark.parametrize(
    "line, problem",
    [("脉", "expected 4 tab-separated fields, got 1"),
     ("脉\tmany\t1.0\ttask", "invalid literal for int()"),
     ("脉\t-1\t1.0\ttask", "count must be >= 0, got -1"),
     ("脉\t1\tnan\ttask", "weight must be finite, got nan"),
     ("脉\t1\t-inf\ttask", "weight must be finite, got -inf"),
     ("脉\t1\t1.0\tbogus",
      "provenance must be one of ('task', 'lexicon', 'both'), got 'bogus'")],
    ids=["one-field", "non-integer-count", "negative-count", "nan-weight",
         "negative-infinite-weight", "unknown-provenance"],
)
def test_malformed_keyword_line_names_file_and_line(workspace, capsys, line, problem):
    ws = workspace
    prepare_selected_store(ws, capsys)
    bad = ws / "bad.tsv"
    bad.write_text(f"弦脉\t2\t1.0\ttask\n{line}\n", encoding="utf-8")
    code, _, err = run([
        "retrieve", "--index", str(ws / "corpus.idx"),
        "--store", str(ws / "corpus.store"),
        "--keywords", str(bad),
        "--budget", "100", "--output", str(ws / "never.store"),
    ], capsys)
    assert code == 1
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    assert errors[0].startswith(f"error: ValueError: {bad}:2: {problem}")


def test_missing_input_file_fails_with_error_line(tmp_path, capsys):
    code, _, err = run([
        "ingest", "--input", str(tmp_path / "absent.jsonl"),
        "--output", str(tmp_path / "out.store"),
    ], capsys)
    assert code == 1
    assert err.splitlines()[-1].startswith("error: ")


def test_duplicate_source_ids_fail(tmp_path, capsys):
    raw = tmp_path / "dup.jsonl"
    rec = {"source_id": "same", "title": "", "body": IN_CHARS * 3}
    raw.write_text(
        json.dumps(rec, ensure_ascii=False) + "\n"
        + json.dumps(rec, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )
    code, _, err = run([
        "ingest", "--input", str(raw), "--output", str(tmp_path / "out.store"),
    ], capsys)
    assert code == 1
    assert "error: DuplicateSourceIdError" in err


def test_missing_required_option_fails(tmp_path, capsys):
    code, _, err = run(["ingest", "--input", str(tmp_path / "x.jsonl")], capsys)
    assert code == 1
    assert "error: ConfigError" in err
    assert "--output" in err


def test_config_file_supplies_values(workspace, capsys, caplog):
    ws = workspace
    ini = ws / "pipeline.ini"
    ini.write_text(
        "[ingest]\n"
        f"input = {ws / 'raw.jsonl'}\n"
        f"output = {ws / 'via_config.store'}\n"
        "min_tokens = 5\n",
        encoding="utf-8",
    )
    with caplog.at_level(logging.INFO, logger="domainforge"):
        code = main(["--config", str(ini), "ingest"])
    assert code == 0
    assert (ws / "via_config.store").exists()
    assert "config ingest.min_tokens=5" in caplog.text


def test_flags_override_config_file(workspace, capsys, caplog):
    ws = workspace
    ini = ws / "pipeline.ini"
    ini.write_text(
        "[ingest]\n"
        f"input = {ws / 'raw.jsonl'}\n"
        f"output = {ws / 'a.store'}\n"
        "min_tokens = 5\n",
        encoding="utf-8",
    )
    with caplog.at_level(logging.INFO, logger="domainforge"):
        code = main([
            "--config", str(ini), "ingest", "--min-tokens", "7",
            "--output", str(ws / "b.store"),
        ])
    assert code == 0
    assert "config ingest.min_tokens=7" in caplog.text
    assert (ws / "b.store").exists()
    assert not (ws / "a.store").exists()


def test_config_file_unknown_key_rejected(workspace, capsys):
    ws = workspace
    ini = ws / "bad.ini"
    ini.write_text("[ingest]\nmystery = 1\n", encoding="utf-8")
    code, _, err = run(["--config", str(ini), "ingest"], capsys)
    assert code == 1
    assert "error: ConfigError" in err
    assert "mystery" in err


def test_config_file_unknown_section_rejected(workspace, capsys):
    ws = workspace
    ini = ws / "bad.ini"
    ini.write_text("[mystery]\nx = 1\n", encoding="utf-8")
    code, _, err = run(["--config", str(ini), "ingest"], capsys)
    assert code == 1
    assert "error: ConfigError" in err


def test_config_file_bad_type_rejected(workspace, capsys):
    ws = workspace
    ini = ws / "bad.ini"
    ini.write_text(
        "[ingest]\n"
        f"input = {ws / 'raw.jsonl'}\n"
        f"output = {ws / 'out.store'}\n"
        "min_tokens = lots\n",
        encoding="utf-8",
    )
    code, _, err = run(["--config", str(ini), "ingest"], capsys)
    assert code == 1
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    # argparse converts the INI value with the flag's own type
    assert errors == [
        "error: ConfigError: domainforge ingest: argument --min-tokens: invalid int value: 'lots'"
    ]


def test_config_file_keys_of_every_section_are_checked(workspace, capsys):
    ini = workspace / "bad.ini"
    ini.write_text("[pretrain]\nmystery = 1\n", encoding="utf-8")
    code, _, err = run(["--config", str(ini), "ingest"], capsys)
    assert code == 1
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert errors == ["error: ConfigError: unknown key 'mystery' in config section [pretrain]"]


def _pretrain_ini(tmp_path, line):
    # the store does not exist: the run stops after the options are logged
    ini = tmp_path / "pipeline.ini"
    ini.write_text(
        f"[pretrain]\nstore = {tmp_path / 'none.store'}\noutput = {tmp_path / 'o.ckpt'}\n{line}\n",
        encoding="utf-8",
    )
    return ini


def _logged(caplog, name):
    return [r.getMessage() for r in caplog.records if r.getMessage().startswith(f"config {name}=")]


@pytest.mark.parametrize(
    "raw, value",
    [("yes", True), ("On", True), ("1", True), ("false", False), ("off", False), ("0", False)],
)
def test_config_file_booleans(tmp_path, capsys, caplog, raw, value):
    ini = _pretrain_ini(tmp_path, f"train_embeddings = {raw}")
    with caplog.at_level(logging.INFO, logger="domainforge"):
        main(["--config", str(ini), "pretrain"])
    assert _logged(caplog, "pretrain.train_embeddings") == [f"config pretrain.train_embeddings={value}"]


def test_flag_overrides_config_file_boolean(tmp_path, capsys, caplog):
    ini = _pretrain_ini(tmp_path, "train_embeddings = yes")
    with caplog.at_level(logging.INFO, logger="domainforge"):
        main(["--config", str(ini), "pretrain", "--no-train-embeddings"])
    assert _logged(caplog, "pretrain.train_embeddings") == ["config pretrain.train_embeddings=False"]


def test_config_file_bad_boolean_rejected(tmp_path, capsys):
    ini = _pretrain_ini(tmp_path, "train_embeddings = maybe")
    code, _, err = run(["--config", str(ini), "pretrain"], capsys)
    assert code == 1
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith("error: ConfigError: ")
    assert "train_embeddings" in errors[0] and "'maybe'" in errors[0]


def test_config_file_defaults_do_not_carry_over_to_the_next_run(workspace, capsys, caplog):
    ini = workspace / "pipeline.ini"
    ini.write_text(
        f"[ingest]\ninput = {workspace / 'raw.jsonl'}\noutput = {workspace / 'a.store'}\n"
        "min_tokens = 5\n",
        encoding="utf-8",
    )
    with caplog.at_level(logging.INFO, logger="domainforge"):
        assert main(["--config", str(ini), "ingest"]) == 0
        assert _logged(caplog, "ingest.min_tokens") == ["config ingest.min_tokens=5"]
        caplog.clear()
        assert main(["ingest", "--input", str(workspace / "raw.jsonl"),
                     "--output", str(workspace / "b.store")]) == 0
    assert _logged(caplog, "ingest.min_tokens") == ["config ingest.min_tokens=10"]


_REMOVED_OPTIONS = [
    ("ingest", "tokenizer"), ("keywords", "tokenizer"), ("sft", "tokenizer"),
    ("eval", "tokenizer"), ("pretrain", "vocab"), ("sft", "vocab"), ("eval", "vocab"),
]


@pytest.mark.parametrize("cmd, name", _REMOVED_OPTIONS)
def test_tokenizer_and_vocab_flags_are_unknown(capsys, cmd, name):
    # the tokenizer is the store's (or the default), the vocab the checkpoint's
    code, _, err = run([cmd, f"--{name}", "x"], capsys)
    assert code == 1
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert errors == [f"error: ConfigError: domainforge: unrecognized arguments: --{name} x"]


@pytest.mark.parametrize("cmd, name", _REMOVED_OPTIONS)
def test_tokenizer_and_vocab_config_keys_are_unknown(tmp_path, capsys, cmd, name):
    ini = tmp_path / "old.ini"
    ini.write_text(f"[{cmd}]\n{name} = x\n", encoding="utf-8")
    code, _, err = run(["--config", str(ini), cmd], capsys)
    assert code == 1
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert errors == [f"error: ConfigError: unknown key {name!r} in config section [{cmd}]"]


def test_flags_are_never_abbreviated(workspace, capsys):
    code, _, err = run(["ingest", "--input", str(workspace / "raw.jsonl"),
                        "--output", str(workspace / "o.store"), "--min", "5"], capsys)
    assert code == 1
    assert "error: ConfigError: domainforge: unrecognized arguments: --min 5" in err
    assert not (workspace / "o.store").exists()


def test_eval_rejects_unknown_responder(workspace, capsys):
    ws = workspace
    exam = ws / "exam.jsonl"
    write_exam(exam)
    code, _, err = run([
        "eval", "--checkpoint", str(ws / "missing.ckpt"), "--exam", str(exam),
        "--responder", "oracle",
    ], capsys)
    assert code == 1
    assert err.count("error:") == 1
    assert "error: ConfigError: responder must be model, gold, or empty, got 'oracle'" in err


@pytest.mark.parametrize("kind, summary", [("gold", "abstain=0"), ("empty", "abstain=3")])
def test_eval_without_the_model_responder_reads_no_checkpoint(workspace, capsys, kind, summary):
    ws = workspace
    exam = ws / "exam.jsonl"
    write_exam(exam)
    code, out, err = run([
        "eval", "--checkpoint", str(ws / "missing.ckpt"), "--exam", str(exam),
        "--responder", kind,
    ], capsys)
    assert (code, err) == (0, "")
    assert f"n=3 {summary}" in out


def test_version_lists_artifact_formats(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "60")  # narrower than the line
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == (
        f"domainforge {__version__} (formats: store DFSTORE3, index DFIDX4, "
        "checkpoint DFCKPT2, vocab DFVOCAB1)\n"
    )
    formats = (STORE_MAGIC.decode(), INDEX_MAGIC.decode(), CHECKPOINT_MAGIC.decode(),
               VOCAB_MAGIC)
    assert formats == ("DFSTORE3", "DFIDX4", "DFCKPT2", "DFVOCAB1")


@pytest.fixture
def broken_inputs(tmp_path):
    """A valid checkpoint and exam, plus one malformed variant of each input."""
    vocab = build_vocab([IN_CHARS], CjkCharTokenizer())
    config = ModelConfig(
        vocab_size=len(vocab), d_model=8, n_layers=1, n_heads=2, d_ff=16,
        max_seq_len=16, lora_rank=2,
    )
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, init_model(config, seed=0), "pretrain")
    save_vocab(vocab, f"{ckpt}.vocab")
    data = bytearray(ckpt.read_bytes())
    data[bytes(data).index(b'"adapted_projections"') + 1] ^= 0x01
    (tmp_path / "flipped.ckpt").write_bytes(bytes(data))
    (tmp_path / "flipped.ckpt.vocab").write_bytes(Path(f"{ckpt}.vocab").read_bytes())
    # checksum-valid copies whose config gives a size as a float equal to it
    body = bytes(read_artifact(ckpt, CHECKPOINT_MAGIC).body)
    for name, field in (("float_d_model", "d_model"), ("float_heads", "n_heads")):
        forged = json.dumps({**json.loads(config.to_json()), field: float(getattr(config, field))})
        write_artifact(tmp_path / f"{name}.ckpt", CHECKPOINT_MAGIC,
                       body.replace(pack_text(config.to_json()), pack_text(forged), 1))
        (tmp_path / f"{name}.ckpt.vocab").write_bytes(Path(f"{ckpt}.vocab").read_bytes())
    # a checkpoint of the previous format, which named each tensor and gave
    # its shape (here none), beside a good vocab
    old = pack_text("pretrain") + struct.pack("<Q", 0) + pack_text(config.to_json())
    write_artifact(tmp_path / "old.ckpt", b"DFCKPT1", old + struct.pack("<I", 0))
    (tmp_path / "old.ckpt.vocab").write_bytes(Path(f"{ckpt}.vocab").read_bytes())
    # the checkpoint again, each copy beside a malformed vocab
    for name in ("short", "dup", "blank", "latin1"):
        (tmp_path / f"{name}.ckpt").write_bytes(ckpt.read_bytes())
    save_vocab(build_vocab([IN_CHARS[:3]], CjkCharTokenizer()), tmp_path / "short.ckpt.vocab")
    # as many entries as the checkpoint expects, but the first token twice
    dup = list(vocab.tokens[len(SPECIAL_TOKENS):])
    dup[-1] = dup[0]
    (tmp_path / "dup.ckpt.vocab").write_text("\n".join(["DFVOCAB1", *dup]) + "\n",
                                             encoding="utf-8")
    # as many entries as the checkpoint expects, but line 5 blank
    blank = list(vocab.tokens[len(SPECIAL_TOKENS):])
    blank[3] = ""
    (tmp_path / "blank.ckpt.vocab").write_text("\n".join(["DFVOCAB1", *blank]) + "\n",
                                               encoding="utf-8")
    write_exam(tmp_path / "exam.jsonl")
    write_raw(tmp_path / "good_raw.jsonl")
    # a checksum-valid index of one document whose one posting names doc 5
    one = ingest([RawRecord("a", "", "脉")], CjkCharTokenizer(), min_tokens=1)
    save_store(one, tmp_path / "one.store")
    save_store(replace(one, tokenizer_id="nope"), tmp_path / "nope.store")
    (tmp_path / "kw.tsv").write_text("脉\t1\t1.0\ttask\n", encoding="utf-8")
    # a store of the previous format: one document, each field length-prefixed
    old = struct.pack("<QQ", 1, 1) + pack_text("cjk-char-v1") + struct.pack("<QQ", 0, 1)
    write_artifact(tmp_path / "old.store", b"DFSTORE1", old + pack_text("") + pack_text("脉"))
    # an index of the previous format, which held the tokenizer id instead of
    # the store's digest
    old = struct.pack("<Qddd", 1, 1.0, 1.2, 0.75) + pack_text("cjk-char-v1")
    old += struct.pack("<QQ", 1, 1) + pack_text("脉") + struct.pack("<QII", 1, 0, 1)
    write_artifact(tmp_path / "old.idx", b"DFIDX1", old)
    # the same index in the next format, which named the store but gave each
    # term its own length-prefixed name, count and (doc id delta, tf) pairs
    digest = load_store(tmp_path / "one.store").digest
    old = struct.pack("<Qddd8s", 1, 1.0, 1.2, 0.75, digest)
    old += struct.pack("<QQ", 1, 1) + pack_text("脉") + struct.pack("<QII", 1, 0, 1)
    write_artifact(tmp_path / "old2.idx", b"DFIDX2", old)
    # and in the one after, of columns, with absolute doc ids and tfs as <u4
    old = struct.pack("<Qddd8sQ", 1, 1.0, 1.2, 0.75, digest, 1) + struct.pack("<QQQ", 1, 1, 1)
    old += struct.pack("<Q", 3) + "脉".encode("utf-8") + struct.pack("<II", 0, 1)
    write_artifact(tmp_path / "old3.idx", b"DFIDX3", old)
    naming_one = {"terms": ("脉",), "store_digest": digest}
    write_artifact(tmp_path / "stray.idx", INDEX_MAGIC,
                   index_body(doc_ids=[5], num_docs=1, **naming_one))
    save_index(build_index(load_store(tmp_path / "one.store")), tmp_path / "one.idx")
    # a checksum-valid copy of "one.idx" whose store digest is a bit off, and
    # an index that names "one.store" but claims three more documents
    body = bytearray(read_artifact(tmp_path / "one.idx", INDEX_MAGIC).body)
    body[32] ^= 0x01  # the store digest's first byte, after <Qddd
    write_artifact(tmp_path / "flipped_digest.idx", INDEX_MAGIC, body)
    write_artifact(tmp_path / "extra_docs.idx", INDEX_MAGIC, index_body(num_docs=4, **naming_one))
    # text inputs with a Latin-1 byte (not UTF-8) on their second line
    latin1 = "naïve".encode("latin-1")
    (tmp_path / "latin1_raw.jsonl").write_bytes(
        (tmp_path / "good_raw.jsonl").read_bytes().split(b"\n")[0] + b"\n" + latin1 + b"\n"
    )
    (tmp_path / "latin1.ckpt.vocab").write_bytes(
        b"DFVOCAB1\n" + latin1 + b"\n" + "\n".join(IN_CHARS[1:]).encode("utf-8") + b"\n"
    )
    (tmp_path / "latin1.tsv").write_bytes("脉\t1\t1.0\ttask\n".encode("utf-8") + latin1 + b"\n")
    (tmp_path / "kw_inf.tsv").write_text("脉\t1\tinf\ttask\n", encoding="utf-8")
    # a checksum-valid index of "one.store" but for its BM25 k1
    write_artifact(tmp_path / "nan_k1.idx", INDEX_MAGIC, index_body(k1=math.nan, **naming_one))

    def jsonl(name, good, bad):
        (tmp_path / name).write_text(
            json.dumps(good, ensure_ascii=False) + "\n"
            + json.dumps(bad, ensure_ascii=False) + "\n",
            encoding="utf-8",
        )

    jsonl("raw.jsonl", {"source_id": "a", "body": IN_CHARS},
          {"source_id": "b", "title": "无正文"})
    jsonl("raw_null.jsonl", {"source_id": "a", "body": IN_CHARS},
          {"source_id": "b", "body": None})
    pair = {"prompt": "脉弦", "response": "弦"}
    jsonl("pairs.jsonl", pair, {"prompt": "脉迟"})
    jsonl("good_pairs.jsonl", pair, pair)
    jsonl("pairs_null_prompt.jsonl", pair, {"prompt": None, "response": "弦"})
    jsonl("pairs_list_response.jsonl", pair, {"prompt": "脉迟", "response": ["a"]})
    item = {"stem": "问", "options": ["甲", "乙"], "gold": "A"}
    jsonl("exam_bad.jsonl", item, {"stem": "问", "gold": "A"})
    jsonl("exam_str_options.jsonl", item, {**item, "options": "甲乙"})
    jsonl("exam_dict_options.jsonl", item, {**item, "options": {"甲": 1, "乙": 2}})
    jsonl("exam_int_option.jsonl", item, {**item, "options": ["甲", 1]})
    jsonl("exam_null_stem.jsonl", item, {**item, "stem": None})
    return tmp_path


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["pretrain", "--store", "nope.store", "--output", "o.ckpt"],
         "error: ValueError: unknown tokenizer_id: 'nope'"),
        (["ingest", "--input", "good_raw.jsonl", "--output", "o.store",
          "--tokenizer", "cjk-char-v1"],
         "error: ConfigError: domainforge: unrecognized arguments: --tokenizer cjk-char-v1"),
        (["pretrain", "--store", "one.store", "--output", "o.ckpt", "--epochs", "abc"],
         "error: ConfigError: domainforge pretrain: argument --epochs: invalid int value: 'abc'"),
        (["ingest", "--input", "raw.jsonl", "--output", "o.store"],
         "raw.jsonl:2: missing field 'body'"),
        (["ingest", "--input", "raw_null.jsonl", "--output", "o.store", "--min-tokens", "0"],
         "raw_null.jsonl:2: body must be a string, got NoneType"),
        (["sft", "--checkpoint", "model.ckpt", "--data", "pairs.jsonl", "--output", "o.ckpt"],
         "pairs.jsonl:2: missing field 'response'"),
        (["eval", "--checkpoint", "model.ckpt", "--exam", "exam_bad.jsonl",
          "--responder", "gold"],
         "exam_bad.jsonl:2: missing field 'options'"),
        (["eval", "--checkpoint", "flipped.ckpt", "--exam", "exam.jsonl"],
         "error: ChecksumMismatchError"),
        (["eval", "--checkpoint", "float_d_model.ckpt", "--exam", "exam.jsonl",
          "--responder", "model"],
         "float_d_model.ckpt: malformed body: d_model must be an integer, got 8.0"),
        (["sft", "--checkpoint", "float_heads.ckpt", "--data", "good_pairs.jsonl",
          "--output", "o.ckpt"],
         "float_heads.ckpt: malformed body: n_heads must be an integer, got 2.0"),
        (["eval", "--checkpoint", "short.ckpt", "--exam", "exam.jsonl", "--responder", "model"],
         "error: ConfigError: vocabulary has 7 entries but the checkpoint expects 14"),
        (["eval", "--checkpoint", "dup.ckpt", "--exam", "exam.jsonl", "--responder", "model"],
         "error: ValueError: duplicate token"),
        (["eval", "--checkpoint", "blank.ckpt", "--exam", "exam.jsonl", "--responder", "model"],
         "blank.ckpt.vocab:5: blank vocab token"),
        (["retrieve", "--index", "stray.idx", "--store", "one.store",
          "--keywords", "kw.tsv", "--budget", "10", "--output", "o.store"],
         "stray.idx: malformed body: doc ids do not rise strictly within each term below 1"),
        (["ingest", "--input", "latin1_raw.jsonl", "--output", "o.store"],
         "latin1_raw.jsonl:2"),
        (["eval", "--checkpoint", "latin1.ckpt", "--exam", "exam.jsonl", "--responder", "model"],
         "latin1.ckpt.vocab:2"),
        (["retrieve", "--index", "one.idx", "--store", "one.store",
          "--keywords", "latin1.tsv", "--budget", "10", "--output", "o.store"],
         "latin1.tsv:2"),
        (["pretrain", "--store", "one.store", "--output", "o.ckpt", "--vocab-cap", "0"],
         "error: ValueError: vocab cap must be >= 1, got 0"),
        (["pretrain", "--store", "one.store", "--output", "o.ckpt", "--vocab-cap", "-1"],
         "error: ValueError: vocab cap must be >= 1, got -1"),
        (["pretrain", "--store", "one.store", "--output", "o.ckpt", "--learning-rate", "nan"],
         "error: ValueError: learning_rate must be positive and finite, got nan"),
        (["pretrain", "--store", "one.store", "--output", "o.ckpt", "--grad-clip", "-1"],
         "error: ValueError: grad_clip must be >= 0 and finite, got -1.0"),
        (["pretrain", "--store", "one.store", "--output", "o.ckpt", "--n-heads", "0"],
         "error: ValueError: n_heads must be >= 1, got 0"),
        (["pretrain", "--store", "one.store", "--output", "o.ckpt", "--n-heads", "-1"],
         "error: ValueError: n_heads must be >= 1, got -1"),
        (["pretrain", "--store", "one.store", "--output", "o.ckpt", "--d-ff", "0"],
         "error: ValueError: d_ff must be >= 1, got 0"),
        (["pretrain", "--store", "one.store", "--output", "o.ckpt", "--d-model", "0"],
         "error: ValueError: d_model must be >= 1, got 0"),
        (["pretrain", "--store", "one.store", "--output", "o.ckpt", "--n-layers", "-1",
          "--train-embeddings"],
         "error: ValueError: n_layers must be >= 0, got -1"),
        (["pretrain", "--store", "one.store", "--output", "o.ckpt", "--lora-alpha", "nan"],
         "error: ValueError: lora_alpha must be finite, got nan"),
        (["pretrain", "--store", "one.store", "--output", "o.ckpt", "--lora-alpha", "inf"],
         "error: ValueError: lora_alpha must be finite, got inf"),
        (["retrieve", "--index", "one.idx", "--store", "one.store",
          "--keywords", "kw_inf.tsv", "--budget", "10", "--output", "o.store"],
         "kw_inf.tsv:1: weight must be finite, got inf"),
        (["index", "--store", "one.store", "--output", "o.idx", "--k1", "nan"],
         "error: ValueError: k1 must be positive and finite, got nan"),
        (["index", "--store", "one.store", "--output", "o.idx", "--k1", "inf"],
         "error: ValueError: k1 must be positive and finite, got inf"),
        (["retrieve", "--index", "nan_k1.idx", "--store", "one.store",
          "--keywords", "kw.tsv", "--budget", "10", "--output", "o.store"],
         "nan_k1.idx: malformed body: k1 must be positive and finite, got nan"),
        (["sft", "--checkpoint", "model.ckpt", "--data", "pairs_null_prompt.jsonl",
          "--output", "o.ckpt"],
         "pairs_null_prompt.jsonl:2: prompt must be a string, got NoneType"),
        (["sft", "--checkpoint", "model.ckpt", "--data", "pairs_list_response.jsonl",
          "--output", "o.ckpt"],
         "pairs_list_response.jsonl:2: response must be a string, got list"),
        (["eval", "--checkpoint", "model.ckpt", "--exam", "exam_str_options.jsonl",
          "--responder", "gold"],
         "exam_str_options.jsonl:2: options must be a list of strings, got str"),
        (["eval", "--checkpoint", "model.ckpt", "--exam", "exam_dict_options.jsonl",
          "--responder", "gold"],
         "exam_dict_options.jsonl:2: options must be a list of strings, got dict"),
        (["eval", "--checkpoint", "model.ckpt", "--exam", "exam_int_option.jsonl",
          "--responder", "gold"],
         "exam_int_option.jsonl:2: option must be a string, got int"),
        (["eval", "--checkpoint", "model.ckpt", "--exam", "exam_null_stem.jsonl",
          "--responder", "gold"],
         "exam_null_stem.jsonl:2: stem must be a string, got NoneType"),
        (["index", "--store", "old.store", "--output", "o.idx"],
         "error: MagicMismatchError"),
        (["retrieve", "--index", "old.idx", "--store", "one.store",
          "--keywords", "kw.tsv", "--budget", "10", "--output", "o.store"],
         "error: MagicMismatchError"),
        (["retrieve", "--index", "old2.idx", "--store", "one.store",
          "--keywords", "kw.tsv", "--budget", "10", "--output", "o.store"],
         "error: MagicMismatchError"),
        (["retrieve", "--index", "old3.idx", "--store", "one.store",
          "--keywords", "kw.tsv", "--budget", "10", "--output", "o.store"],
         "error: MagicMismatchError"),
        (["retrieve", "--index", "flipped_digest.idx", "--store", "one.store",
          "--keywords", "kw.tsv", "--budget", "10", "--output", "o.store"],
         "error: ConfigError"),
        (["retrieve", "--index", "extra_docs.idx", "--store", "one.store",
          "--keywords", "kw.tsv", "--budget", "10", "--output", "o.store"],
         "error: ValueError: index covers 4 documents but the store has 1"),
        (["sft", "--checkpoint", "old.ckpt", "--data", "good_pairs.jsonl", "--output", "o.ckpt"],
         "error: MagicMismatchError"),
    ],
    ids=["unknown-stored-tokenizer", "removed-tokenizer-flag", "unparseable-flag-value",
         "raw-without-body", "raw-null-body", "pair-without-response", "exam-without-options",
         "flipped-checkpoint", "eval-float-d-model", "sft-float-n-heads", "eval-short-vocab",
         "eval-duplicate-vocab", "eval-blank-vocab", "index-doc-out-of-range",
         "non-utf8-raw", "non-utf8-vocab", "non-utf8-keywords", "pretrain-zero-vocab-cap",
         "pretrain-negative-vocab-cap", "pretrain-nan-learning-rate", "pretrain-negative-grad-clip",
         "pretrain-zero-heads", "pretrain-negative-heads", "pretrain-zero-d-ff",
         "pretrain-zero-d-model", "pretrain-negative-layers", "pretrain-nan-lora-alpha",
         "pretrain-infinite-lora-alpha", "retrieve-infinite-keyword-weight", "index-nan-k1",
         "index-infinite-k1", "retrieve-nan-k1-index", "pair-null-prompt",
         "pair-list-response", "exam-string-options", "exam-dict-options",
         "exam-int-option", "exam-null-stem", "index-previous-store-format",
         "retrieve-previous-index-format", "retrieve-dfidx2-index-format",
         "retrieve-dfidx3-index-format",
         "retrieve-flipped-store-digest",
         "retrieve-index-of-more-documents", "sft-previous-checkpoint-format"],
)
def test_malformed_input_prints_one_error_line(broken_inputs, capsys, argv, expected):
    argv = [str(broken_inputs / a)
            if a.endswith((".jsonl", ".ckpt", ".store", ".vocab", ".idx", ".tsv")) else a
            for a in argv]
    code, _, err = run(argv, capsys)
    assert code == 1
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    assert expected in errors[0]


@forgery_cases(FORGED_INDEXES)
def test_a_forged_index_prints_one_error_line(tmp_path, capsys, fields, message):
    save_store(ingest([RawRecord("a", "", "脉")], CjkCharTokenizer(), min_tokens=1),
               tmp_path / "one.store")
    (tmp_path / "kw.tsv").write_text("脉\t1\t1.0\ttask\n", encoding="utf-8")
    write_artifact(tmp_path / "forged.idx", INDEX_MAGIC, index_body(**fields))
    code, _, err = run([
        "retrieve", "--index", str(tmp_path / "forged.idx"), "--store", str(tmp_path / "one.store"),
        "--keywords", str(tmp_path / "kw.tsv"), "--budget", "10",
        "--output", str(tmp_path / "o.store"),
    ], capsys)
    assert code == 1
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    assert re.search(f"^error: TruncatedArtifactError: .*forged.idx: malformed body: {message}",
                     errors[0])
    assert not (tmp_path / "o.store").exists()


@pytest.mark.parametrize(
    "samples, lexicon, expected",
    [
        ("samples.txt", "latin1.txt", "error: UnicodeDecodeError: 'utf-8' codec"),
        ("samples.txt", "lexdir", "error: IsADirectoryError:"),
        ("latin1.txt", None, "error: UnicodeDecodeError: 'utf-8' codec"),
    ],
    ids=["non-utf8-lexicon", "directory-lexicon", "non-utf8-samples"],
)
def test_malformed_keywords_input_prints_one_error_line(
    workspace, capsys, samples, lexicon, expected
):
    ws = workspace
    (ws / "latin1.txt").write_bytes("脉象\nsaïd\n".encode("utf-8") + "naïve\n".encode("latin-1"))
    (ws / "lexdir").mkdir()
    argv = ["keywords", "--samples", str(ws / samples), "--output", str(ws / "k.tsv")]
    if lexicon:
        argv += ["--lexicon", str(ws / lexicon)]
    code, _, err = run(argv, capsys)
    assert code == 1
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    assert errors[0].startswith(expected)
    # samples.txt is valid, so the line must name the other file
    culprit = str(ws / (samples if lexicon is None else lexicon))
    assert culprit in errors[0]
    if expected.startswith("error: UnicodeDecodeError"):
        assert errors[0].endswith(f"{culprit}:3")  # the line of the Latin-1 byte
    assert not (ws / "k.tsv").exists()


@pytest.mark.parametrize("max_iter", ["0", "-2"])
def test_keywords_rejects_a_max_iter_below_one(workspace, capsys, max_iter):
    # no TextRank sweep would run: every score would stay 1.0
    argv = ["keywords", "--samples", str(workspace / "samples.txt"),
            "--output", str(workspace / "k.tsv"), "--max-iter", max_iter]
    code, _, err = run(argv, capsys)
    assert code == 1
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert errors == [f"error: ValueError: max_iter must be >= 1, got {max_iter}"]
    assert not (workspace / "k.tsv").exists()


@pytest.mark.parametrize("tol", ["0", "-1e-6", "nan", "-inf"])
def test_keywords_rejects_a_tol_that_is_not_positive(workspace, capsys, tol):
    # a NaN tol never stops the sweeps: every sample would run max_iter
    argv = ["keywords", "--samples", str(workspace / "samples.txt"),
            "--output", str(workspace / "k.tsv"), f"--tol={tol}"]
    code, _, err = run(argv, capsys)
    assert code == 1
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert errors == [f"error: ValueError: tol must be positive, got {float(tol)}"]
    assert not (workspace / "k.tsv").exists()


@pytest.mark.parametrize("flag", ["--max-seq-len", "--d-ff", "--n-layers"])
def test_pretrain_refuses_an_oversized_model_before_allocating(tmp_path, capsys, flag):
    # in process, under a tracemalloc bound: a child process without an
    # address-space limit could allocate until the machine runs out
    store = ingest([RawRecord("a", "", IN_CHARS)], CjkCharTokenizer(), min_tokens=1)
    save_store(store, tmp_path / "one.store")
    argv = ["pretrain", "--store", str(tmp_path / "one.store"),
            "--output", str(tmp_path / "o.ckpt"), flag, "99999999999"]
    tracemalloc.start()
    try:
        code, _, err = run(argv, capsys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    assert errors[0].startswith("error: ValueError: the model has ")
    assert errors[0].endswith(f"parameters, more than {MAX_PARAMETERS}")
    assert peak < 4 * 2**20
    assert not (tmp_path / "o.ckpt").exists()
