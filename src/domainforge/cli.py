"""Command-line pipeline driver.

Subcommands cover the full flow: ingest raw records, extract weighted
keywords, build the retrieval index, select a budgeted training corpus,
pretrain and instruction-tune the adapter model, evaluate on an exam file,
and run the gradient check.  Options resolve as defaults < INI config file
< explicit flags; the resolved values are logged to stderr.  argparse is
the one parser of option values: the running command's INI section becomes
its sub-parser's defaults, which argparse converts with each flag's own
type when the flag is not given, so an INI value parses exactly as a flag
value does.  Designated errors exit nonzero with a single ``error:`` line.
"""

from __future__ import annotations

import argparse
import configparser
import logging
import sys
from dataclasses import dataclass, fields
from typing import Callable, Mapping, Sequence

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
    kind: type = str  # str | int | float | bool: argparse's type, or a --[no-] flag
    default: object = None
    required: bool = False
    help: str = ""


# ``pretrain``'s model options: every ModelConfig field but the vocab size,
# which the built vocab sets; the projection tuple is a comma-separated list.
_MODEL_OPTS = [
    _Opt(f.name, str, ",".join(f.default), help="comma-separated projection names")
    if isinstance(f.default, tuple)
    else _Opt(f.name, type(f.default), f.default)
    for f in fields(ModelConfig)
    if f.name != "vocab_size"
]

# every TrainConfig field but the phase, which the command sets
_TRAIN_FIELDS = [f.name for f in fields(TrainConfig) if f.name != "phase"]


def _train_opts(learning_rate: float, epochs: int) -> list[_Opt]:
    """One option per ``_TRAIN_FIELDS`` entry: the phase's learning-rate and
    epoch defaults, and the dataclass's own for the rest."""
    defaults = {f.name: f.default for f in fields(TrainConfig)}
    defaults.update(learning_rate=learning_rate, epochs=epochs)
    return [_Opt(name, type(defaults[name]), defaults[name]) for name in _TRAIN_FIELDS]


_COMMANDS: dict[str, list[_Opt]] = {
    "ingest": [
        _Opt("input", required=True, help="raw records as JSONL"),
        _Opt("output", required=True, help="store file to write"),
        _Opt("min_tokens", int, DEFAULT_MIN_TOKENS,
             help="drop cleaned documents shorter than this"),
    ],
    "keywords": [
        _Opt("samples", required=True, help="task sample texts, one per line"),
        _Opt("output", required=True, help="keyword TSV to write"),
        _Opt("lexicon", help="optional lexicon word list, one per line"),
        _Opt("window", int, DEFAULT_WINDOW),
        _Opt("top_k", int, DEFAULT_TOP_K),
        _Opt("damping", float, DEFAULT_DAMPING),
        _Opt("tol", float, DEFAULT_TOL),
        _Opt("max_iter", int, DEFAULT_MAX_ITER),
    ],
    "index": [
        _Opt("store", required=True),
        _Opt("output", required=True, help="index file to write"),
        _Opt("k1", float, DEFAULT_K1),
        _Opt("b", float, DEFAULT_B),
    ],
    "retrieve": [
        _Opt("index", required=True),
        _Opt("store", required=True),
        _Opt("keywords", required=True, help="keyword TSV from the keywords step"),
        _Opt("budget", int, required=True, help="token budget for the selection"),
        _Opt("output", required=True, help="selected-store file to write"),
        _Opt("provenance", help="optional provenance TSV to write"),
    ],
    "pretrain": [
        _Opt("store", required=True, help="training corpus store"),
        _Opt("output", required=True, help="checkpoint file to write"),
        _Opt("resume", help="checkpoint to continue from (epoch boundary); "
                            "--epochs counts the epochs already in it"),
        _Opt("vocab_cap", int, DEFAULT_VOCAB_CAP),
        *_train_opts(DEFAULT_PRETRAIN_LR, DEFAULT_PRETRAIN_EPOCHS),
        *_MODEL_OPTS,
        _Opt("loss_history", help="loss TSV path (default: <output>.loss.tsv)"),
    ],
    "sft": [
        _Opt("checkpoint", required=True,
             help="pretrain checkpoint, or an sft one to continue"),
        _Opt("data", required=True, help="JSONL of prompt/response pairs"),
        _Opt("output", required=True),
        *_train_opts(DEFAULT_SFT_LR, DEFAULT_SFT_EPOCHS),
        _Opt("loss_history", help="loss TSV path (default: <output>.loss.tsv)"),
    ],
    "eval": [
        _Opt("checkpoint", required=True),
        _Opt("exam", required=True, help="JSONL exam file"),
        _Opt("responder", default="model", help="model, gold, or empty"),
        _Opt("max_new_tokens", int, DEFAULT_MAX_NEW_TOKENS),
        _Opt("output", help="optional report file"),
    ],
    "gradcheck": [
        _Opt("seed", int, 0),
    ],
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _config_defaults(path: str, cmd: str) -> dict[str, object]:
    """``cmd``'s section of the INI file at ``path``, as its sub-parser's
    defaults.  Every section and every key of the file is checked, not only
    ``cmd``'s.  A value stays a string for argparse to convert with the
    flag's type, but a bool, which ``getboolean`` reads."""
    parser = configparser.ConfigParser(interpolation=None)
    if not parser.read(path):
        raise ConfigError(f"config file not found: {path}")
    known = {name: {o.name for o in opts} for name, opts in _COMMANDS.items()}
    for section in parser.sections():
        if section not in known:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in known[section]:
                raise ConfigError(f"unknown key {key!r} in config section [{section}]")
    if not parser.has_section(cmd):
        return {}
    defaults: dict[str, object] = dict(parser[cmd])
    for opt in _COMMANDS[cmd]:
        if opt.kind is bool and opt.name in defaults:
            try:
                defaults[opt.name] = parser.getboolean(cmd, opt.name)
            except ValueError:
                raise ConfigError(
                    f"[{cmd}]: cannot parse {defaults[opt.name]!r} as bool for {opt.name}"
                ) from None
    return defaults


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


def build_parser(
    defaults: Mapping[str, Mapping[str, object]] | None = None,
) -> argparse.ArgumentParser:
    """The command-line parser; ``defaults[cmd]``, if given, replaces some of
    ``cmd``'s option defaults."""
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
            parse = {"action": argparse.BooleanOptionalAction} if opt.kind is bool else {"type": opt.kind}
            p.add_argument(_flag(opt.name), default=opt.default, help=opt.help or None, **parse)
        p.set_defaults(**(defaults or {}).get(cmd, {}))
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
    return TrainConfig(phase, **{name: cfg[name] for name in _TRAIN_FIELDS})


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
        if args.config:
            # parse again, the command's INI section now its defaults
            section = _config_defaults(args.config, args.command)
            args = build_parser({args.command: section}).parse_args(argv)
        cfg = {}
        for opt in _COMMANDS[args.command]:
            cfg[opt.name] = getattr(args, opt.name)
            if cfg[opt.name] is None and opt.required:
                raise ConfigError(f"{args.command}: missing required option {_flag(opt.name)}")
            logger.info("config %s.%s=%r", args.command, opt.name, cfg[opt.name])
        return _HANDLERS[args.command](cfg)
    except (DomainforgeError, OSError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
