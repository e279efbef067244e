"""Domain adaptation toolkit: weighted keyword extraction, budgeted corpus
selection by BM25 retrieval, and low-rank adapter training of a small
causal language model, with a CLI covering the whole pipeline."""

__version__ = "0.1.0"

from .corpus_store import (
    CjkCharTokenizer,
    CorpusStore,
    Document,
    RawRecord,
    clean_text,
    get_tokenizer,
    ingest,
    load_raw_records,
    load_store,
    save_store,
)
from .errors import (
    ArtifactError,
    ChecksumMismatchError,
    ConfigError,
    DomainforgeError,
    DuplicateSourceIdError,
    EmptyCorpusError,
    MagicMismatchError,
    NoPositiveScoreError,
    NonFiniteLossError,
    SelectionBudgetError,
    TruncatedArtifactError,
)
from .evaluator import (
    ABSTAIN,
    EvalReport,
    McqItem,
    build_diagnosis_mcq,
    evaluate,
    extract_option,
    format_prompt,
    load_exam,
    make_gold_responder,
    make_model_responder,
)
from .keyword_extract import (
    DomainKeywordSet,
    WeightedKeyword,
    build_graph,
    extract_task_keywords,
    fuse,
    keyword_weight,
    load_keywords,
    save_keywords,
    textrank,
    top_k_keywords,
)
from .lora_model import (
    ModelConfig,
    ModelState,
    Vocab,
    build_vocab,
    greedy_generate,
    init_model,
    load_checkpoint,
    model_forward,
    save_checkpoint,
)
from .retrieval import (
    CorpusSelection,
    ExpandedQuery,
    InvertedIndex,
    bm25_score,
    build_index,
    expand_query,
    load_index,
    retrieve_top_n,
    save_index,
    select_corpus,
)
from .trainer import (
    GradCheckReport,
    SftExample,
    TrainConfig,
    TrainResult,
    finetune,
    gradient_check,
    pretrain,
)
