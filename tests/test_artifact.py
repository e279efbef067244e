from __future__ import annotations

import contextlib
import io
import json
import os
import stat
import struct
import tracemalloc

import numpy as np
import pytest

from domainforge import artifact, lora_model
from domainforge.artifact import pack_text, read_artifact, write_artifact, write_lines
from domainforge.cli import main
from domainforge.corpus_store import (
    STORE_MAGIC,
    CjkCharTokenizer,
    RawRecord,
    ingest,
    load_store,
    save_store,
)
from domainforge.errors import (
    ChecksumMismatchError,
    MagicMismatchError,
    TruncatedArtifactError,
)
from domainforge.evaluator import McqItem, save_exam
from domainforge.keyword_extract import DomainKeywordSet, WeightedKeyword, save_keywords
from domainforge.lora_model import (
    CHECKPOINT_MAGIC,
    SPECIAL_TOKENS,
    ModelConfig,
    Vocab,
    init_model,
    load_checkpoint,
    param_names,
    save_checkpoint,
    save_vocab,
)
from domainforge.retrieval import (
    INDEX_MAGIC,
    CorpusSelection,
    build_index,
    load_index,
    save_index,
    save_provenance,
)
from domainforge.trainer import save_loss_history

DESIGNATED = (MagicMismatchError, TruncatedArtifactError, ChecksumMismatchError)
TINY = ModelConfig(
    vocab_size=4, d_model=2, n_layers=1, n_heads=1, d_ff=2, max_seq_len=2,
    lora_rank=1, lora_dropout=0.0,
)


def _store():
    return ingest(
        [RawRecord("a", "脉", "脉象 弦 滑"), RawRecord("b", "", "气血 两虚")],
        CjkCharTokenizer(),
        min_tokens=1,
    )


def _save_tiny_checkpoint(path):
    state = init_model(TINY, seed=0)
    name = "layers.0.lora.query.b"
    moments = {name: (np.ones_like(state.params[name]), np.zeros_like(state.params[name]))}
    save_checkpoint(path, state, "sft", 3, moments)


def _write(kind, path):
    """Save a small artifact of ``kind``; return its loader and magic."""
    if kind == "store":
        save_store(_store(), path)
        return load_store, STORE_MAGIC
    if kind == "index":
        save_index(build_index(_store()), path)
        return load_index, INDEX_MAGIC
    _save_tiny_checkpoint(path)
    return load_checkpoint, CHECKPOINT_MAGIC


@pytest.mark.parametrize("kind", ["store", "index", "checkpoint"])
def test_every_bit_flip_and_prefix_is_rejected(tmp_path, kind):
    loader, _ = _write(kind, tmp_path / "good")
    data = (tmp_path / "good").read_bytes()
    loader(tmp_path / "good")
    probe = tmp_path / "probe"

    def outcome(variant: bytes) -> str:
        probe.write_bytes(variant)
        try:
            loader(probe)
        except Exception as exc:  # noqa: BLE001 - every outcome is reported below
            return type(exc).__name__ if isinstance(exc, DESIGNATED) else repr(exc)
        return "loaded"

    designated = {err.__name__ for err in DESIGNATED}
    bad: list[str] = []
    buf = bytearray(data)
    for bit in range(8 * len(data)):
        buf[bit // 8] ^= 1 << (bit % 8)
        result = outcome(bytes(buf))
        buf[bit // 8] ^= 1 << (bit % 8)
        if result not in designated:
            bad.append(f"flip of bit {bit}: {result}")
    for n in range(len(data)):
        result = outcome(data[:n])
        if result != "TruncatedArtifactError":
            bad.append(f"prefix of {n} bytes: {result}")
    assert bad == []


def _checkpoint_body(config_json: str, flags: bytes = b"", tensors=(), phase: str = "pretrain",
                     step: int = 0) -> bytes:
    """A ``DFCKPT2`` body as ``save_checkpoint`` packs it: phase, step, config
    JSON, the moment flags, then each of ``tensors`` as float32, as given."""
    head = pack_text(phase) + struct.pack("<Q", step) + pack_text(config_json) + flags
    return head + b"".join(np.asarray(t, dtype="<f4").tobytes() for t in tensors)


TINY_JSON = json.loads(TINY.to_json())
_TINY_TENSORS = list(init_model(TINY, seed=0).params.values())
_NO_FLAGS = bytes(len(_TINY_TENSORS))


@pytest.mark.parametrize(
    "body",
    [
        b"",
        b"\xff" * 64,
        pack_text("warmup") + b"\x00" * 16,
        pack_text("pretrain") + struct.pack("<QI", 0, 2) + b"\xff\xfe",
        _checkpoint_body("not json"),
        _checkpoint_body("[1, 2]"),
        _checkpoint_body(json.dumps({**TINY_JSON, "n_heads": 0})),
        _checkpoint_body(json.dumps({**TINY_JSON, "mystery": 1})),
        _checkpoint_body(json.dumps({k: v for k, v in TINY_JSON.items() if k != "d_ff"})),
        _checkpoint_body(TINY.to_json()),
        _checkpoint_body(TINY.to_json(), _NO_FLAGS),
        _checkpoint_body(TINY.to_json(), _NO_FLAGS) + b"\x00\x00",
    ],
    ids=["empty", "ones", "phase", "bad-utf8", "not-json", "json-list", "zero-heads",
         "extra-key", "missing-key", "no-flags", "no-tensors", "half-a-float"],
)
def test_checksum_valid_garbage_checkpoint_is_designated_error(tmp_path, body):
    path = tmp_path / "garbage.ckpt"
    write_artifact(path, CHECKPOINT_MAGIC, body)
    with pytest.raises(TruncatedArtifactError):
        load_checkpoint(path)


# TINY's tensors, with moments for one adapter: (flags, tensors) of a valid body
_MOMENT = "layers.0.lora.query.b"
_MOMENT_AT = param_names(TINY).index(_MOMENT)
_MOMENTS = (np.ones((2, 1)), np.full((2, 1), 0.5))
_FLAGS = bytes(i == _MOMENT_AT for i in range(len(_TINY_TENSORS)))
_TENSORS = _TINY_TENSORS + list(_MOMENTS)


def test_checkpoint_body_layout_is_the_flags_then_the_tensors_then_the_moments(tmp_path):
    path = tmp_path / "saved.ckpt"
    save_checkpoint(path, init_model(TINY, seed=0), "sft", 3, {_MOMENT: _MOMENTS})
    forged = tmp_path / "packed.ckpt"
    write_artifact(forged, CHECKPOINT_MAGIC,
                   _checkpoint_body(TINY.to_json(), _FLAGS, _TENSORS, "sft", 3))
    assert path.read_bytes() == forged.read_bytes()


@pytest.mark.parametrize(
    "flags, tensors, problem",
    [
        (_FLAGS.replace(b"\x01", b"\x02"), _TENSORS, "moment flag 2 is neither 0 nor 1"),
        # the first tensor's first byte is read as the last flag
        (_FLAGS[:-1], _TENSORS, "moment flag 16 is neither 0 nor 1|body ends early"),
        (_FLAGS, _TENSORS[:-1] + [_MOMENTS[1][:1]], "body ends early"),
        (_FLAGS, _TENSORS + [[0.0]], "4 trailing bytes"),
    ],
    ids=["flag-of-two", "flags-one-byte-short", "one-float-short", "one-float-long"],
)
def test_checkpoint_flags_and_tensor_run_are_checked(tmp_path, flags, tensors, problem):
    path = tmp_path / "hand.ckpt"
    write_artifact(path, CHECKPOINT_MAGIC, _checkpoint_body(TINY.to_json(), _FLAGS, _TENSORS))
    state, _, _, opt_state = load_checkpoint(path)  # the hand-built body is valid
    assert list(opt_state) == [_MOMENT] and list(state.params) == param_names(TINY)
    write_artifact(path, CHECKPOINT_MAGIC, _checkpoint_body(TINY.to_json(), flags, tensors))
    with pytest.raises(TruncatedArtifactError, match=problem):
        load_checkpoint(path)


_SIZED = ModelConfig(vocab_size=6, d_model=4, n_layers=1, n_heads=2, d_ff=4, max_seq_len=3,
                     lora_rank=1, lora_dropout=0.0)


@pytest.mark.parametrize("field, value", [("d_model", 4.0), ("n_heads", 2.0), ("n_layers", True)])
def test_checkpoint_with_a_size_that_is_no_int_is_designated_error(tmp_path, field, value):
    """Every tensor has its size, but the config JSON gives a size as a
    float or a bool equal to it: the table's shapes compare equal, and only
    the config's type check stops the load."""
    tensors = list(init_model(_SIZED, seed=0).params.values())
    flags = bytes(len(tensors))
    path = tmp_path / "sized.ckpt"
    write_artifact(path, CHECKPOINT_MAGIC, _checkpoint_body(_SIZED.to_json(), flags, tensors))
    load_checkpoint(path)  # the hand-built body is valid
    forged = json.dumps({**json.loads(_SIZED.to_json()), field: value})
    write_artifact(path, CHECKPOINT_MAGIC, _checkpoint_body(forged, flags, tensors))
    with pytest.raises(TruncatedArtifactError, match=f"{field} must be an integer"):
        load_checkpoint(path)


def test_a_forged_layer_count_fails_on_the_bytes_left_in_bounded_memory(tmp_path, monkeypatch):
    """A checksum-valid body whose config claims 10**7 layers: the flag run
    it implies is longer than the body, and the reader must say so before it
    builds a table of that size.  A guard on ``param_shapes`` stops a reader
    that builds it anyway at once, rather than after gigabytes."""
    forged = json.dumps({**TINY_JSON, "n_layers": 10**7})
    path = tmp_path / "forged.ckpt"
    write_artifact(path, CHECKPOINT_MAGIC, _checkpoint_body(forged, _NO_FLAGS, _TINY_TENSORS))
    build = lora_model.param_shapes

    def guarded(config):
        if config.n_layers > 1000:
            pytest.fail(f"param_shapes built for {config.n_layers} layers")
        return build(config)

    monkeypatch.setattr(lora_model, "param_shapes", guarded)
    bound = 4 * 2**20
    tracemalloc.start()
    try:
        with pytest.raises(TruncatedArtifactError, match="body ends early"):
            load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound


@pytest.mark.parametrize("kind", ["store", "index", "checkpoint"])
def test_trailing_body_bytes_are_designated_error(tmp_path, kind):
    loader, magic = _write(kind, tmp_path / "good")
    body = bytes(read_artifact(tmp_path / "good", magic).body)
    write_artifact(tmp_path / "long", magic, body + b"\x00")
    with pytest.raises(TruncatedArtifactError, match="trailing"):
        loader(tmp_path / "long")


def _fail_replace(src, dst):
    raise OSError("simulated crash before rename")


def _fail_open(file, mode="r", *args, **kwargs):
    open(file, mode, *args, **kwargs).close()
    raise OSError("simulated crash during write")


@pytest.mark.parametrize("where", ["write", "replace"])
def test_interrupted_save_keeps_the_previous_file(tmp_path, monkeypatch, where):
    path = tmp_path / "corpus.store"
    old = _store()
    save_store(old, path)
    before = path.read_bytes()
    if where == "replace":
        monkeypatch.setattr(os, "replace", _fail_replace)
    else:
        monkeypatch.setattr(artifact, "open", _fail_open, raising=False)
    with pytest.raises(OSError, match="simulated"):
        save_store(ingest([], CjkCharTokenizer()), path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert load_store(path) == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.store"]


def test_two_writers_of_one_path_do_not_mix(tmp_path, monkeypatch):
    # writer B runs whole while writer A holds its temp file open, between
    # A's header and body: the last to finish wins, with its own bytes
    path = tmp_path / "shared.bin"
    real_open = open
    b_done = []

    class WriterA:
        def __init__(self, *args):
            self.fh = real_open(*args)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, chunk):
            self.fh.write(chunk)
            if not b_done:  # after A's first chunk
                b_done.append(True)
                monkeypatch.undo()  # B writes through the real open
                write_lines(path, ["b1", "bbbb2"])
                assert path.read_text(encoding="utf-8") == "b1\nbbbb2\n"

    monkeypatch.setattr(artifact, "open", WriterA, raising=False)
    write_artifact(path, b"MAGIC", b"a1\na2\n")
    assert bytes(read_artifact(path, b"MAGIC").body) == b"a1\na2\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["shared.bin"]


@pytest.mark.parametrize("umask", [0o022, 0o002, 0o077])
def test_written_files_get_the_mode_open_gives(tmp_path, umask):
    old = os.umask(umask)
    try:
        write_lines(tmp_path / "out.txt", ["x"])
        write_artifact(tmp_path / "out.bin", b"MAGIC", b"x")
        with open(tmp_path / "plain", "w"):
            pass
    finally:
        os.umask(old)
    modes = {stat.S_IMODE((tmp_path / name).stat().st_mode)
             for name in ("out.txt", "out.bin", "plain")}
    assert modes == {0o666 & ~umask}


def test_short_file_that_is_not_a_magic_prefix_is_magic_mismatch(tmp_path):
    path = tmp_path / "x"
    path.write_bytes(b"DFX")
    with pytest.raises(MagicMismatchError):
        read_artifact(path, STORE_MAGIC)
    path.write_bytes(b"DFS")
    with pytest.raises(TruncatedArtifactError):
        read_artifact(path, STORE_MAGIC)


def _eval_report(path, responder):
    """``eval --output path`` on a one-item exam; a failed run raises its
    ``error:`` line as an ``OSError``."""
    ckpt, exam = path.with_name("tiny.ckpt"), path.with_name("exam.jsonl")
    if not ckpt.exists():
        save_checkpoint(ckpt, init_model(TINY, seed=0), "sft")
        save_vocab(Vocab(SPECIAL_TOKENS), f"{ckpt}.vocab")
        save_exam([McqItem("问", (("A", "甲"), ("B", "乙")), "B")], exam)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["eval", "--checkpoint", str(ckpt), "--exam", str(exam),
                     "--responder", responder, "--output", str(path)])
    if code:
        raise OSError(err.getvalue())


# Each plain-text output, saved twice with different contents.
TEXT_SAVERS = {
    "keywords": lambda path, k: save_keywords(
        DomainKeywordSet((WeightedKeyword("脉", k, 1.0, "task"),)), path),
    "provenance": lambda path, k: save_provenance(
        CorpusSelection(_store(), ((0, 1.5), (1, float(k)))), path),
    "vocab": lambda path, k: save_vocab(Vocab(SPECIAL_TOKENS + ("脉", "弦")[: k + 1]), path),
    "loss-history": lambda path, k: save_loss_history([(k, "pretrain", 0.5)], path),
    "exam": lambda path, k: save_exam([McqItem("问", (("A", "甲"), ("B", "乙")), "AB"[k])], path),
    "eval-report": lambda path, k: _eval_report(path, ("gold", "empty")[k]),
}


@pytest.mark.parametrize("where", ["write", "replace"])
@pytest.mark.parametrize("kind", sorted(TEXT_SAVERS))
def test_interrupted_text_save_keeps_the_previous_file(tmp_path, monkeypatch, kind, where):
    path = tmp_path / "out.txt"
    TEXT_SAVERS[kind](path, 0)
    before = path.read_bytes()
    TEXT_SAVERS[kind](tmp_path / "new.txt", 1)
    assert (tmp_path / "new.txt").read_bytes() != before  # the second save differs
    names = sorted(p.name for p in tmp_path.iterdir())
    if where == "replace":
        monkeypatch.setattr(os, "replace", _fail_replace)
    else:
        monkeypatch.setattr(artifact, "open", _fail_open, raising=False)
    with pytest.raises(OSError, match="simulated"):
        TEXT_SAVERS[kind](path, 1)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == names
