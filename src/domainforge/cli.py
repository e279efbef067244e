"""Command-line pipeline driver.

Subcommands cover the full flow: ingest raw records, extract weighted
keywords, build the retrieval index, select a budgeted training corpus,
pretrain and instruction-tune the adapter model, evaluate on an exam file,
and run the gradient check.  Options resolve as defaults < INI config file
< explicit flags; the resolved values are logged to stderr.  Designated
errors exit nonzero with a single ``error:`` line.
"""

from __future__ import annotations

import argparse
import configparser
import logging
import sys
from dataclasses import dataclass, fields
from typing import Callable, Sequence

from . import __version__
from .artifact import read_text, write_lines
from .corpus_store import (
    DEFAULT_MIN_TOKENS,
    DEFAULT_TOKENIZER_ID,
    STORE_MAGIC,
    get_tokenizer,
    ingest,
    load_raw_records,
    load_store,
    save_store,
)
from .errors import ConfigError, DomainforgeError
from .evaluator import (
    DEFAULT_MAX_NEW_TOKENS,
    empty_responder,
    evaluate,
    format_report,
    load_exam,
    make_gold_responder,
    make_model_responder,
)
from .keyword_extract import (
    DEFAULT_DAMPING,
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    DEFAULT_TOP_K,
    DEFAULT_WINDOW,
    extract_task_keywords,
    fuse,
    load_keywords,
    load_lexicon,
    save_keywords,
)
from .lora_model import (
    CHECKPOINT_MAGIC,
    DEFAULT_VOCAB_CAP,
    VOCAB_MAGIC,
    ModelConfig,
    ModelState,
    Vocab,
    build_vocab,
    init_model,
    load_checkpoint,
    load_vocab,
    save_checkpoint,
    save_vocab,
)
from .retrieval import (
    DEFAULT_B,
    DEFAULT_K1,
    INDEX_MAGIC,
    build_index,
    expand_query,
    load_index,
    save_index,
    save_provenance,
    select_corpus,
)
from .trainer import (
    DEFAULT_BATCH_SIZE,
    DEFAULT_GRAD_CLIP,
    DEFAULT_PRETRAIN_EPOCHS,
    DEFAULT_PRETRAIN_LR,
    DEFAULT_SFT_EPOCHS,
    DEFAULT_SFT_LR,
    TrainConfig,
    finetune,
    gradient_check,
    load_sft_examples,
    pretrain,
    save_loss_history,
)

logger = logging.getLogger("domainforge")

VERSION_LINE = (
    f"domainforge {__version__} (formats: store {STORE_MAGIC.decode()}, "
    f"index {INDEX_MAGIC.decode()}, checkpoint {CHECKPOINT_MAGIC.decode()}, vocab {VOCAB_MAGIC})"
)


@dataclass(frozen=True)
class _Opt:
    name: str
    kind: str = "str"  # str | int | float | bool
    default: object = None
    required: bool = False
    help: str = ""


# ``pretrain``'s model options: every ModelConfig field but the vocab size,
# which the built vocab sets; the projection tuple is a comma-separated list.
_MODEL_OPTS = [
    _Opt(f.name, "str", ",".join(f.default), help="comma-separated projection names")
    if isinstance(f.default, tuple)
    else _Opt(f.name, type(f.default).__name__, f.default)
    for f in fields(ModelConfig)
    if f.name != "vocab_size"
]

_COMMANDS: dict[str, list[_Opt]] = {
    "ingest": [
        _Opt("input", required=True, help="raw records as JSONL"),
        _Opt("output", required=True, help="store file to write"),
        _Opt("min_tokens", "int", DEFAULT_MIN_TOKENS,
             help="drop cleaned documents shorter than this"),
    ],
    "keywords": [
        _Opt("samples", required=True, help="task sample texts, one per line"),
        _Opt("output", required=True, help="keyword TSV to write"),
        _Opt("lexicon", help="optional lexicon word list, one per line"),
        _Opt("window", "int", DEFAULT_WINDOW),
        _Opt("top_k", "int", DEFAULT_TOP_K),
        _Opt("damping", "float", DEFAULT_DAMPING),
        _Opt("tol", "float", DEFAULT_TOL),
        _Opt("max_iter", "int", DEFAULT_MAX_ITER),
    ],
    "index": [
        _Opt("store", required=True),
        _Opt("output", required=True, help="index file to write"),
        _Opt("k1", "float", DEFAULT_K1),
        _Opt("b", "float", DEFAULT_B),
    ],
    "retrieve": [
        _Opt("index", required=True),
        _Opt("store", required=True),
        _Opt("keywords", required=True, help="keyword TSV from the keywords step"),
        _Opt("budget", "int", required=True, help="token budget for the selection"),
        _Opt("output", required=True, help="selected-store file to write"),
        _Opt("provenance", help="optional provenance TSV to write"),
    ],
    "pretrain": [
        _Opt("store", required=True, help="training corpus store"),
        _Opt("output", required=True, help="checkpoint file to write"),
        _Opt("resume", help="checkpoint to continue from (epoch boundary)"),
        _Opt("vocab_cap", "int", DEFAULT_VOCAB_CAP),
        _Opt("seed", "int", 0),
        _Opt("learning_rate", "float", DEFAULT_PRETRAIN_LR),
        _Opt("epochs", "int", DEFAULT_PRETRAIN_EPOCHS,
             help="total epochs including any already in the resume checkpoint"),
        _Opt("batch_size", "int", DEFAULT_BATCH_SIZE),
        _Opt("grad_clip", "float", DEFAULT_GRAD_CLIP),
        _Opt("train_embeddings", "bool", False),
        *_MODEL_OPTS,
        _Opt("loss_history", help="loss TSV path (default: <output>.loss.tsv)"),
    ],
    "sft": [
        _Opt("checkpoint", required=True,
             help="pretrain checkpoint, or an sft one to continue"),
        _Opt("data", required=True, help="JSONL of prompt/response pairs"),
        _Opt("output", required=True),
        _Opt("seed", "int", 0),
        _Opt("learning_rate", "float", DEFAULT_SFT_LR),
        _Opt("epochs", "int", DEFAULT_SFT_EPOCHS),
        _Opt("batch_size", "int", DEFAULT_BATCH_SIZE),
        _Opt("grad_clip", "float", DEFAULT_GRAD_CLIP),
        _Opt("train_embeddings", "bool", False),
        _Opt("loss_history", help="loss TSV path (default: <output>.loss.tsv)"),
    ],
    "eval": [
        _Opt("checkpoint", required=True),
        _Opt("exam", required=True, help="JSONL exam file"),
        _Opt("responder", "str", "model", help="model, gold, or empty"),
        _Opt("max_new_tokens", "int", DEFAULT_MAX_NEW_TOKENS),
        _Opt("output", help="optional report file"),
    ],
    "gradcheck": [
        _Opt("seed", "int", 0),
    ],
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _coerce(opt: _Opt, raw: str, where: str):
    try:
        if opt.kind == "int":
            return int(raw)
        if opt.kind == "float":
            return float(raw)
        if opt.kind == "bool":
            low = raw.strip().lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        return raw
    except ValueError:
        raise ConfigError(
            f"{where}: cannot parse {raw!r} as {opt.kind} for {opt.name}"
        ) from None


def _read_config_file(path: str) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser(interpolation=None)
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    known = {cmd: {o.name for o in opts} for cmd, opts in _COMMANDS.items()}
    out: dict[str, dict[str, str]] = {}
    for section in parser.sections():
        if section not in known:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in known[section]:
                raise ConfigError(f"unknown key {key!r} in config section [{section}]")
        out[section] = dict(parser[section])
    return out


def _resolve(
    cmd: str, args: argparse.Namespace, file_cfg: dict[str, dict[str, str]]
) -> dict[str, object]:
    section = file_cfg.get(cmd, {})
    resolved: dict[str, object] = {}
    for opt in _COMMANDS[cmd]:
        value = getattr(args, opt.name)
        if value is None and opt.name in section:
            value = _coerce(opt, section[opt.name], f"[{cmd}]")
        if value is None:
            value = opt.default
        if value is None and opt.required:
            raise ConfigError(f"{cmd}: missing required option {_flag(opt.name)}")
        resolved[opt.name] = value
        logger.info("config %s.%s=%r", cmd, opt.name, value)
    return resolved


class _Parser(argparse.ArgumentParser):
    """Raises a bad command line (an unknown flag, a value of the wrong type)
    as a ``ConfigError``, so it gets one ``error:`` line and exit status 1
    like every other failure.  Subcommand parsers inherit it.  A flag must
    be spelled out: ``pretrain --vocab 100`` is unknown, not ``--vocab-cap``."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


class _VersionAction(argparse.Action):
    """Prints ``VERSION_LINE`` as one line and exits; argparse's own version
    action wraps it at the terminal width."""

    def __init__(self, option_strings, dest, **kwargs):
        super().__init__(option_strings, dest, nargs=0,
                         help="print the version and artifact formats, then exit")

    def __call__(self, parser, namespace, values, option_string=None):
        print(VERSION_LINE)
        parser.exit()


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="domainforge",
        allow_abbrev=False,
        description="Keyword-guided corpus selection and adapter training.",
    )
    parser.add_argument("--version", action=_VersionAction)
    parser.add_argument("--config", help="INI file with per-subcommand sections")
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd, opts in _COMMANDS.items():
        p = sub.add_parser(cmd, allow_abbrev=False)
        for opt in opts:
            if opt.kind == "bool":
                p.add_argument(
                    _flag(opt.name),
                    action=argparse.BooleanOptionalAction,
                    default=None,
                    help=opt.help or None,
                )
            else:
                typed = {"int": int, "float": float}.get(opt.kind, str)
                p.add_argument(
                    _flag(opt.name), type=typed, default=None, help=opt.help or None
                )
    return parser


# ---------------------------------------------------------------------------
# Handlers

def _cmd_ingest(cfg: dict) -> int:
    records = load_raw_records(cfg["input"])
    tokenizer = get_tokenizer(DEFAULT_TOKENIZER_ID)
    store = ingest(records, tokenizer, min_tokens=cfg["min_tokens"])
    save_store(store, cfg["output"])
    print(f"documents={len(store)} tokens={store.total_tokens}")
    return 0


def _cmd_keywords(cfg: dict) -> int:
    samples = [
        line
        for line in read_text(cfg["samples"]).splitlines()
        if line.strip()
    ]
    tokenizer = get_tokenizer(DEFAULT_TOKENIZER_ID)
    task = extract_task_keywords(
        samples,
        tokenizer,
        window=cfg["window"],
        k=cfg["top_k"],
        damping=cfg["damping"],
        tol=cfg["tol"],
        max_iter=cfg["max_iter"],
    )
    lexicon = load_lexicon(cfg["lexicon"]) if cfg["lexicon"] else []
    kset = fuse(task, lexicon)
    save_keywords(kset, cfg["output"])
    print(f"keywords={len(kset.entries)}")
    return 0


def _cmd_index(cfg: dict) -> int:
    store = load_store(cfg["store"])
    index = build_index(store, k1=cfg["k1"], b=cfg["b"])
    save_index(index, cfg["output"])
    print(f"documents={index.num_docs} terms={len(index.postings)}")
    return 0


def _cmd_retrieve(cfg: dict) -> int:
    index = load_index(cfg["index"])
    store = load_store(cfg["store"])
    # an index of any other store would score these documents with its postings
    if index.store_digest != store.digest:
        raise ConfigError(
            f"index {cfg['index']} was built from the store of digest "
            f"{index.store_digest.hex()}, not from {cfg['store']} ({store.digest.hex()})"
        )
    kset = load_keywords(cfg["keywords"])
    query = expand_query(kset, store.tokenizer_id)
    selection = select_corpus(index, store, query, token_budget=cfg["budget"])
    save_store(selection.store, cfg["output"])
    if cfg["provenance"]:
        save_provenance(selection, cfg["provenance"])
    print(
        f"selected={len(selection.store)} tokens={selection.selected_tokens}"
    )
    return 0


def _train_config(cfg: dict, phase: str) -> TrainConfig:
    return TrainConfig(
        phase=phase,
        learning_rate=cfg["learning_rate"],
        epochs=cfg["epochs"],
        batch_size=cfg["batch_size"],
        seed=cfg["seed"],
        grad_clip=cfg["grad_clip"],
        train_embeddings=cfg["train_embeddings"],
    )


def _checkpoint_vocab(checkpoint: str, state: ModelState) -> Vocab:
    """The vocab beside ``checkpoint`` (``<checkpoint>.vocab``), which must
    have one entry per token id of the checkpoint's model."""
    vocab = load_vocab(f"{checkpoint}.vocab")
    if len(vocab) != state.config.vocab_size:
        raise ConfigError(
            f"vocabulary has {len(vocab)} entries but the checkpoint "
            f"expects {state.config.vocab_size}"
        )
    return vocab


def _finish_training(cfg: dict, result, vocab, phase: str) -> int:
    output = cfg["output"]
    save_checkpoint(output, result.state, phase, result.step, result.opt_state)
    save_vocab(vocab, f"{output}.vocab")
    history_path = cfg["loss_history"] or f"{output}.loss.tsv"
    save_loss_history(result.loss_history, history_path)
    final = result.loss_history[-1][2] if result.loss_history else None
    print(f"steps={result.step} final_loss={final!r}")
    return 0


def _cmd_pretrain(cfg: dict) -> int:
    store = load_store(cfg["store"])
    tokenizer = get_tokenizer(store.tokenizer_id)
    if cfg["resume"]:
        state, phase, step, opt_state = load_checkpoint(cfg["resume"])
        if phase != "pretrain":
            raise ConfigError(f"cannot resume pretraining from a {phase!r} checkpoint")
        vocab = _checkpoint_vocab(cfg["resume"], state)
    else:
        vocab = build_vocab(store.documents.texts, tokenizer, cap=cfg["vocab_cap"])
        model = {opt.name: cfg[opt.name] for opt in _MODEL_OPTS}
        model["adapted_projections"] = tuple(
            s.strip() for s in model["adapted_projections"].split(",") if s.strip()
        )
        state = init_model(ModelConfig(vocab_size=len(vocab), **model), seed=cfg["seed"])
        step, opt_state = 0, None
    result = pretrain(
        state,
        store.documents.texts,
        vocab,
        tokenizer,
        _train_config(cfg, "pretrain"),
        start_step=step,
        opt_state=opt_state,
    )
    return _finish_training(cfg, result, vocab, "pretrain")


def _cmd_sft(cfg: dict) -> int:
    state, phase, step, opt_state = load_checkpoint(cfg["checkpoint"])
    vocab = _checkpoint_vocab(cfg["checkpoint"], state)
    if phase != "sft":
        step, opt_state = 0, None  # fresh tuning run on top of pretraining
    examples = load_sft_examples(cfg["data"])
    tokenizer = get_tokenizer(DEFAULT_TOKENIZER_ID)
    result = finetune(
        state,
        examples,
        vocab,
        tokenizer,
        _train_config(cfg, "sft"),
        start_step=step,
        opt_state=opt_state,
    )
    return _finish_training(cfg, result, vocab, "sft")


def _cmd_eval(cfg: dict) -> int:
    # only the model responder reads the checkpoint and its vocab
    kind = cfg["responder"]
    if kind == "model":
        state, _, _, _ = load_checkpoint(cfg["checkpoint"])
        vocab = _checkpoint_vocab(cfg["checkpoint"], state)
        responder = make_model_responder(
            state, vocab, get_tokenizer(DEFAULT_TOKENIZER_ID),
            max_new_tokens=cfg["max_new_tokens"],
        )
    elif kind not in ("gold", "empty"):
        raise ConfigError(f"responder must be model, gold, or empty, got {kind!r}")
    items = load_exam(cfg["exam"])
    if kind == "gold":
        responder = make_gold_responder(items)
    elif kind == "empty":
        responder = empty_responder
    report = evaluate(responder, items)
    text = format_report(report)
    print(text)
    if cfg["output"]:
        write_lines(cfg["output"], [text])
    return 0


def _cmd_gradcheck(cfg: dict) -> int:
    report = gradient_check(seed=cfg["seed"])
    print(report.format())
    return 0 if report.passed() else 1


_HANDLERS: dict[str, Callable[[dict], int]] = {
    "ingest": _cmd_ingest,
    "keywords": _cmd_keywords,
    "index": _cmd_index,
    "retrieve": _cmd_retrieve,
    "pretrain": _cmd_pretrain,
    "sft": _cmd_sft,
    "eval": _cmd_eval,
    "gradcheck": _cmd_gradcheck,
}


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    try:
        args = build_parser().parse_args(argv)
        file_cfg = _read_config_file(args.config) if args.config else {}
        cfg = _resolve(args.command, args, file_cfg)
        return _HANDLERS[args.command](cfg)
    except (DomainforgeError, OSError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
