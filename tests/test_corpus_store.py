from __future__ import annotations

import random
import re
import struct
import tracemalloc
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from domainforge import corpus_store
from domainforge.artifact import pack_text, write_artifact
from domainforge.corpus_store import (
    _PUNCT_TABLE,
    STORE_MAGIC,
    CjkCharTokenizer,
    CorpusStore,
    Document,
    RawRecord,
    StringColumn,
    clean_text,
    ingest,
    load_raw_records,
    load_store,
    save_store,
    _is_cjk,
    get_tokenizer,
)
from domainforge.errors import (
    ChecksumMismatchError,
    DuplicateSourceIdError,
    MagicMismatchError,
    TruncatedArtifactError,
)

# ---------------------------------------------------------------------------
# Cleaning


def test_clean_strips_markup_tags():
    assert clean_text("<doc id=1>脉象细数</doc>") == "脉象细数"


def test_clean_strips_template_braces():
    assert clean_text("{{引用|某书}}中医诊断") == "中医诊断"


def test_clean_strips_urls():
    assert clean_text("见 https://example.com/a?b=1 所述") == "见 所述"
    assert clean_text("www.example.org下文") == "下文"


def test_clean_folds_fullwidth_punctuation():
    assert clean_text("ＡＢＣ１２３") == "ABC123"
    assert clean_text("一、二。三") == "一,二.三"
    assert clean_text("（注）") == "(注)"


def test_clean_collapses_whitespace_and_trims():
    assert clean_text("  a\t\n b   c  ") == "a b c"


_WS_REGEX = re.compile(r"\s+")
_WHITESPACE = [ch for ch in map(chr, range(0x110000)) if _WS_REGEX.match(ch) or ch.isspace()]


def _regex_collapse(text):
    """The whitespace step ``clean_text`` had: a regex substitution, then a strip."""
    return _WS_REGEX.sub(" ", text).strip()


def test_whitespace_collapse_is_the_regex_on_every_whitespace_codepoint():
    # regex \s and str.isspace agree on every codepoint: the set above holds
    # exactly the isspace ones, and each collapses the same way in any place
    assert _WHITESPACE == [ch for ch in map(chr, range(0x110000)) if ch.isspace()]
    assert len(_WHITESPACE) > 20
    for ch in _WHITESPACE:
        for text in (ch, f"{ch}a{ch}{ch}b{ch}", f"a{ch}\u3000{ch} b"):
            assert " ".join(text.split()) == _regex_collapse(text), hex(ord(ch))
    for text in _every_codepoint_block():
        assert " ".join(text.split()) == _regex_collapse(text), hex(ord(text[1]))


@given(st.text(alphabet=st.characters() | st.sampled_from(_WHITESPACE)))
def test_whitespace_collapse_is_the_regex_on_arbitrary_text(text):
    assert " ".join(text.split()) == _regex_collapse(text)


def test_clean_removes_control_characters():
    assert clean_text("a\x00b\x1fc") == "abc"


def test_clean_nested_markup_runs_to_fixpoint():
    # the inner tag is removed first, which exposes the outer one
    assert clean_text("<a<b>c>") == ""


def test_clean_empty():
    assert clean_text("") == ""
    assert clean_text("   \t\n ") == ""


@given(st.text(max_size=300))
def test_clean_is_idempotent(raw):
    once = clean_text(raw)
    assert clean_text(once) == once


# ---------------------------------------------------------------------------
# Tokenization


def test_tokenize_cjk_chars_individually(tok):
    assert tok.tokenize("脉在筋骨") == ["脉", "在", "筋", "骨"]


def test_tokenize_latin_words_lowercased(tok):
    assert tok.tokenize("BM25 score") == ["bm25", "score"]


def test_tokenize_empty(tok):
    assert tok.tokenize("") == []


def test_tokenize_mixed_scripts(tok):
    assert tok.tokenize("血压120mmHg高") == ["血", "压", "120mmhg", "高"]


def test_tokenize_punctuation_splits_latin_runs(tok):
    assert tok.tokenize("state-of-the-art") == ["state", "of", "the", "art"]


def test_get_tokenizer_knows_only_the_default():
    assert get_tokenizer("cjk-char-v1") == CjkCharTokenizer()
    with pytest.raises(ValueError, match="unknown tokenizer_id: 'nope'"):
        get_tokenizer("nope")


@given(st.text(max_size=200))
def test_tokenize_yields_nonempty_whitespace_free_tokens(raw):
    for token in CjkCharTokenizer().tokenize(raw):
        assert token
        assert not any(ch.isspace() for ch in token)


def _loop_tokenize(text):
    """The character loop that the compiled tokenizer regex replaced."""
    tokens, buf = [], []
    for ch in text.lower():
        if _is_cjk(ord(ch)):
            if buf:
                tokens.append("".join(buf))
                buf = []
            tokens.append(ch)
        elif ch.isalnum():
            buf.append(ch)
        elif buf:
            tokens.append("".join(buf))
            buf = []
    if buf:
        tokens.append("".join(buf))
    return tokens


def test_tokenize_classifies_every_codepoint_like_the_loop():
    # between two Latin letters a CJK codepoint splits the run into three
    # tokens, an alphanumeric one joins it, and any other one splits it in two
    tokenize_ = CjkCharTokenizer().tokenize
    for block in range(0, 0x110000, 0x1000):
        text = "x" + "x".join(map(chr, range(block, block + 0x1000))) + "x"
        assert tokenize_(text) == _loop_tokenize(text), hex(block)


def test_tokenize_matches_the_loop_on_mixed_text():
    alphabet = (
        [chr(cp) for cp in range(0x20, 0x7F)]            # ASCII, digits, "_"
        + [chr(cp) for cp in range(0x4E00, 0x4E40)]      # unified ideographs
        + [chr(cp) for cp in range(0xFF01, 0xFF5F)]      # full-width forms
        + ["İ", "Σ", "ß", "\u0307", "Ⅻ", "½", "𠀀", "㐀", "豈", "\u3000"]
    )
    rng = random.Random(7)
    tokenize_ = CjkCharTokenizer().tokenize
    for _ in range(5000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
        assert tokenize_(text) == _loop_tokenize(text), text


_MIXED_ALPHABET = (
    [chr(cp) for cp in range(0x20, 0x7F)]            # ASCII, digits, "_"
    + [chr(cp) for cp in range(0x4E00, 0x4E40)]      # unified ideographs
    + [chr(cp) for cp in range(0xFF01, 0xFF5F)]      # full-width forms
    + ["İ", "Σ", "ß", "\u0307", "Ⅻ", "½", "𠀀", "㐀", "豈", "\u3000"]
    + ["、", "。", "｡", "｢", "｣", "､", "‘", "’", "“", "”", "\t", "\n", "\x00"]
)


def _mixed_texts(n, seed=7, max_len=40):
    rng = random.Random(seed)
    for _ in range(n):
        yield "".join(rng.choice(_MIXED_ALPHABET) for _ in range(rng.randint(0, max_len)))


def _every_codepoint_block():
    # each codepoint between two Latin letters, as in the tokenize test above
    for block in range(0, 0x110000, 0x1000):
        yield "x" + "x".join(map(chr, range(block, block + 0x1000))) + "x"


def _named_term_codes(tok, texts):
    """One ``term_codes`` call over ``texts``: each text's tokens as its codes
    named by ``term``, and the lengths column as a list."""
    codes, lengths, term = tok.term_codes(texts)
    assert codes.dtype == np.uint32 and len(codes) == lengths.sum()
    # a code names one token and a token has one code, across the whole batch
    distinct = np.unique(codes).tolist()
    assert len({term(code) for code in distinct}) == len(distinct)
    ends = np.cumsum(lengths).tolist()
    named = [list(map(term, codes[a:b].tolist())) for a, b in zip([0, *ends], ends)]
    return named, lengths.tolist()


def test_count_is_the_token_list_length_on_every_codepoint():
    tok = CjkCharTokenizer()
    texts = list(_every_codepoint_block())
    counts = tok.counts(texts)
    assert counts.dtype == np.int64
    for text, named, length, count in zip(
        texts, *_named_term_codes(tok, texts), counts.tolist(), strict=True
    ):
        tokens = tok.tokenize(text)
        assert count == len(tokens) == length, hex(ord(text[1]))
        assert Counter(named) == Counter(tokens), hex(ord(text[1]))


def test_count_of_each_codepoint_alone():
    # one text per codepoint: a text without a codepoint that lowercases to an
    # alphanumeric takes the scan's CJK-only path, so each codepoint is
    # classified on its own, not with the Latin letters around it
    tok = CjkCharTokenizer()
    texts = list(map(chr, range(0x110000)))
    lengths = tok.term_codes(texts)[1].tolist()
    assert tok.counts(texts).tolist() == lengths == [len(tok.tokenize(t)) for t in texts]


def test_count_is_the_token_list_length_on_mixed_text():
    tok = CjkCharTokenizer()
    texts = list(_mixed_texts(5000))
    counts = tok.counts(texts).tolist()
    for text, named, length, count in zip(
        texts, *_named_term_codes(tok, texts), counts, strict=True
    ):
        tokens = tok.tokenize(text)
        assert count == len(tokens) == len(_loop_tokenize(text)) == length, text
        assert Counter(named) == Counter(tokens), text


@pytest.mark.parametrize(
    "texts",
    [
        ["脉ab", "cd脉"],             # a Latin run ends one text, another starts the next
        ["ab", "cd", "ef"],
        ["", "脉", "", "", "a", ""],  # empty texts, first and last too
        [""],
        ["a\ud800b", "\udfff脉\ud800"],  # lone surrogates split runs, count nothing
        ["\ud840", "\udc00"],       # the halves of 𠀀 in two texts stay two codepoints
        ["İ", "脉İ脉", "ıI", "İ脉"],  # İ lowercases to i and a combining dot
        ["𠀀", "𠀀𠀀a𠀀", "a𠀀"],     # a CJK codepoint past the BMP
        ["Σ", "ΑΣ ΣΑ", ",,", "1,2"],
    ],
)
def test_counts_and_term_codes_at_text_boundaries(texts):
    tok = CjkCharTokenizer()
    named, lengths = _named_term_codes(tok, texts)
    assert tok.counts(texts).tolist() == lengths == [len(_loop_tokenize(t)) for t in texts]
    assert [sorted(n) for n in named] == [sorted(tok.tokenize(t)) for t in texts]
    column = StringColumn.of(texts)
    assert tok.counts(column).tolist() == lengths
    assert _named_term_codes(tok, column) == (named, lengths)


def _store_shaped_texts(n, seed=7, length=400):
    # CJK with a comma every 24 codepoints or so, as the cleaned bench corpus
    rng = np.random.default_rng(seed)
    cps = rng.integers(0x4E00, 0xA000, n * length).astype(np.uint32)
    cps[rng.random(n * length) < 1 / 24] = ord(",")
    joined = cps.tobytes().decode("utf-32-le")
    return StringColumn(joined, np.arange(1, n + 1, dtype=np.int64) * length)


def _peak_bytes(fn, arg):
    tracemalloc.start()
    try:
        fn(arg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# the bounds follow from the scan's arrays, with room to spare: 4 bytes of
# codepoint and 3 of masks per codepoint, 8 + 8 + 4 per non-CJK codepoint,
# and term_codes' 4-byte code per token.  A Python object per codepoint
# exceeds every bound, and an int64 array per codepoint the store-shaped ones
@pytest.mark.parametrize(
    "texts, method, bound",
    [
        (_store_shaped_texts(1000), "counts", 12),
        (_store_shaped_texts(1000), "term_codes", 16),
        (StringColumn.of(list(_mixed_texts(5000, seed=3, max_len=160))), "counts", 48),
    ],
    ids=["store-shaped counts", "store-shaped term_codes", "mixed counts"],
)
def test_column_scan_peak_memory_per_codepoint(texts, method, bound):
    tok = CjkCharTokenizer()
    getattr(tok, method)(texts)  # warm the per-codepoint cache
    per_codepoint = _peak_bytes(getattr(tok, method), texts) / len(texts.joined)
    assert per_codepoint <= bound, per_codepoint


def test_term_codes_of_a_batch_with_empty_and_tokenless_texts():
    tok = CjkCharTokenizer()
    texts = ["", "!!", "脉 Ab 𠀀脉", "ab_AB ab", "", "İ１２"]
    named, lengths = _named_term_codes(tok, texts)
    assert lengths == [0, 0, 4, 3, 0, 2]
    assert [sorted(n) for n in named] == [sorted(tok.tokenize(t)) for t in texts]
    codes, _, term = tok.term_codes(["𠀀脉"])
    assert sorted(codes.tolist()) == [ord("脉"), ord("𠀀")]
    assert tok.term_codes([])[0].shape == tok.term_codes([])[1].shape == (0,)


def test_punctuation_fold_is_translate_on_every_codepoint():
    for text in _every_codepoint_block():
        assert corpus_store._fold_punct(text) == text.translate(_PUNCT_TABLE), hex(ord(text[1]))


def test_punctuation_fold_is_translate_on_mixed_text():
    for text in _mixed_texts(5000):
        assert corpus_store._fold_punct(text) == text.translate(_PUNCT_TABLE), text


def test_url_guard_never_skips_a_string_the_url_pattern_matches():
    # every codepoint in each place of the pattern's prefixes that case
    # folding could widen; a newline ends a URL run, so one scan over the
    # newline-joined strings finds the ones that match on their own
    codepoints = list(map(chr, range(0x110000)))
    hits = set()
    for template, places in (("www.a", range(4)), ("http?://a", [4]), ("?ttp://a", [0])):
        width = len(template) + 1
        for i in places:
            head, tail = template[:i], template[i + 1:] + "\n"
            joined = head + (tail + head).join(codepoints) + tail
            for m in corpus_store._URL_RE.finditer(joined):
                hits.add(head + codepoints[m.start() // width] + tail[:-1])
    assert {"Www.a", "wwW.a", "httpS://a", "Http://a"} <= hits
    assert all(corpus_store._may_hold_url(text) for text in hits), hits


def test_url_guard_keeps_clean_text_on_mixed_text(monkeypatch):
    rng = random.Random(13)
    pieces = ["https://x.org/a", "HTTP://Y.cn", "www.", "WwW.z", "://", "ww.", "www", "http:/"]
    texts = []
    for text in _mixed_texts(3000, seed=13, max_len=60):
        cut = rng.randint(0, len(text))
        texts.append(text[:cut] + rng.choice(pieces) + text[cut:] if rng.random() < 0.5 else text)
    guarded = [clean_text(text) for text in texts]
    monkeypatch.setattr(corpus_store, "_may_hold_url", lambda text: True)
    assert guarded == [clean_text(text) for text in texts]
    assert sum(corpus_store._URL_RE.search(text) is not None for text in texts) > 500


@dataclass(frozen=True)
class _LoopTokenizer:
    """The reference tokenizer: the character loop, counted by list length."""

    tokenizer_id: str = "cjk-char-v1"

    def tokenize(self, text):
        return _loop_tokenize(text)

    def counts(self, texts):
        return np.array([len(_loop_tokenize(text)) for text in texts], dtype=np.int64)


def test_store_bytes_match_the_translate_and_loop_reference(tmp_path, monkeypatch, tok):
    rng = random.Random(11)
    pieces = ["<b>", "</b>", "{{注}}", "https://x.org/a ", "  ", "\r\n"]
    records = []
    for i, text in enumerate(_mixed_texts(400, seed=11, max_len=120)):
        cut = rng.randint(0, len(text))
        body = text[:cut] + rng.choice(pieces) + text[cut:]
        records.append(RawRecord(f"s{i}", text[:8], body))
    fast = tmp_path / "fast.store"
    save_store(ingest(records, tok), fast)
    monkeypatch.setattr(corpus_store, "_fold_punct", lambda t: t.translate(_PUNCT_TABLE))
    reference = tmp_path / "reference.store"
    save_store(ingest(records, _LoopTokenizer()), reference)
    assert 50 < len(load_store(reference)) < len(records)  # some kept, some dropped
    assert fast.read_bytes() == reference.read_bytes()


# ---------------------------------------------------------------------------
# Ingest


def _long_body(n=12):
    return "脉" * n


def test_ingest_empty(tok):
    store = ingest([], tok)
    assert len(store) == 0
    assert store.total_tokens == 0


def test_ingest_singleton(tok):
    store = ingest([RawRecord("s1", "题", _long_body())], tok)
    assert len(store) == 1
    assert store.documents[0].doc_id == 0
    assert store.documents[0].token_count == 12


def test_ingest_drops_empty_and_keeps_dense_ids(tok):
    records = [
        RawRecord("a", "一", _long_body()),
        RawRecord("b", "二", "<tag></tag>"),  # cleans to nothing
        RawRecord("c", "三", _long_body(15)),
    ]
    store = ingest(records, tok)
    assert [d.doc_id for d in store] == [0, 1]
    assert [d.title for d in store] == ["一", "三"]


def test_ingest_min_tokens_threshold(tok):
    records = [RawRecord("a", "", "脉" * 9)]
    assert len(ingest(records, tok)) == 0  # default minimum is 10
    assert len(ingest(records, tok, min_tokens=9)) == 1


def test_ingest_rejects_duplicate_source_ids(tok):
    records = [
        RawRecord("dup", "", _long_body()),
        RawRecord("x", "", _long_body()),
        RawRecord("dup", "", _long_body()),
    ]
    with pytest.raises(DuplicateSourceIdError) as err:
        ingest(records, tok)
    assert "dup" in str(err.value)


def test_ingest_cleans_titles_and_bodies(tok):
    store = ingest([RawRecord("a", "<b>题名</b>", "{{x}}" + _long_body())], tok)
    assert store.documents[0].title == "题名"
    assert store.documents[0].text == _long_body()


# ---------------------------------------------------------------------------
# Store files


def _store_of(texts, tok):
    records = [RawRecord(f"s{i}", f"t{i}", text) for i, text in enumerate(texts)]
    return ingest(records, tok, min_tokens=1)


def test_store_round_trip(tmp_path, tok):
    store = _store_of(["脉象弦滑而数", "bm25 ranking of documents"], tok)
    path = tmp_path / "corpus.store"
    save_store(store, path)
    loaded = load_store(path)
    assert loaded == store


def test_store_round_trip_empty(tmp_path, tok):
    path = tmp_path / "empty.store"
    save_store(ingest([], tok), path)
    assert len(load_store(path)) == 0


def test_store_resave_is_byte_identical(tmp_path, tok):
    store = _store_of(["脉象弦滑", "气血两虚之证"], tok)
    p1, p2 = tmp_path / "a.store", tmp_path / "b.store"
    save_store(store, p1)
    save_store(load_store(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


@given(
    st.lists(
        st.text(
            alphabet=st.characters(blacklist_categories=("Cs",)),
            min_size=1,
            max_size=40,
        ),
        min_size=1,
        max_size=5,
    )
)
def test_store_round_trip_arbitrary_text(tmp_path_factory, texts):
    # titles/bodies may contain tabs, newlines, and backslashes; the record
    # escaping must keep them intact
    docs = tuple(
        Document(doc_id=i, title=f"t\t{i}\n", text=text, token_count=len(text))
        for i, text in enumerate(texts)
    )
    store = CorpusStore(documents=docs, tokenizer_id="cjk-char-v1")
    path = tmp_path_factory.mktemp("stores") / "fuzz.store"
    save_store(store, path)
    assert load_store(path) == store


# titles and texts with empty strings, astral and combining characters,
# tabs and newlines
_STORE_TEXT = st.lists(
    st.characters(blacklist_categories=("Cs",))
    | st.sampled_from(["𠀀", "😀", "e\u0301", "\u0307", "\t", "\n", "脉"]),
    max_size=12,
).map("".join)


@given(st.lists(st.tuples(_STORE_TEXT, _STORE_TEXT, st.integers(0, 2**40)), max_size=6))
def test_store_round_trip_keeps_every_field(tmp_path_factory, rows):
    docs = [Document(i, title, text, count) for i, (title, text, count) in enumerate(rows)]
    store = CorpusStore(documents=docs, tokenizer_id="cjk-char-v1")
    path = tmp_path_factory.mktemp("stores") / "rows.store"
    save_store(store, path)
    loaded = load_store(path)
    assert loaded == store
    assert list(loaded) == docs
    assert [loaded.documents[i] for i in range(-len(docs), 0)] == docs
    assert loaded.total_tokens == sum(count for _, _, count in rows)


@given(st.lists(st.tuples(_STORE_TEXT, _STORE_TEXT), max_size=6))
def test_ingested_store_round_trips(tmp_path_factory, pairs):
    records = [RawRecord(f"s{i}", title, body) for i, (title, body) in enumerate(pairs)]
    store = ingest(records, CjkCharTokenizer(), min_tokens=0)
    path = tmp_path_factory.mktemp("stores") / "ingested.store"
    save_store(store, path)
    loaded = load_store(path)
    assert loaded == store
    assert list(loaded) == list(store)


def test_store_rejects_ids_that_are_not_positions():
    doc = Document(doc_id=1, title="", text="脉", token_count=1)
    with pytest.raises(ValueError, match="position 0 has doc_id 1"):
        CorpusStore(documents=[doc], tokenizer_id="cjk-char-v1")


def _store_body(counts, title_ends, text_ends, titles, texts, *, count=None, total=None):
    """A DFSTORE2 body packed field by field; ``titles`` and ``texts`` are
    the blobs' bytes."""
    return b"".join((
        struct.pack("<QQ", len(counts) if count is None else count,
                    sum(counts) if total is None else total),
        pack_text("cjk-char-v1"),
        *(struct.pack(f"<{len(col)}Q", *col) for col in (counts, title_ends, text_ends)),
        struct.pack("<Q", len(titles)), titles,
        struct.pack("<Q", len(texts)), texts,
    ))


# three documents: titles "t0", "", "题" and texts "脉象", "", "𠀀a"
_GOOD_FIELDS = ([2, 0, 2], [2, 2, 3], [2, 2, 4], "t0题".encode(), "脉象𠀀a".encode())


@pytest.mark.parametrize(
    "fields, extra, problem",
    [
        (([2, 0, 2], [2, 2, 3], [2, 1, 4], *_GOOD_FIELDS[3:]), {}, "text offsets"),
        (([2, 0, 2], [3, 2, 3], *_GOOD_FIELDS[2:]), {}, "title offsets"),
        (([2, 0, 2], [2, 2, 3], [2, 2, 5], *_GOOD_FIELDS[3:]), {}, "text offsets"),
        (([2, 0, 2], [2, 2, 3], [2, 2, 3], *_GOOD_FIELDS[3:]), {}, "text offsets"),
        (([2, 0, 2], [2, 2, 4], *_GOOD_FIELDS[2:]), {}, "title offsets"),
        (_GOOD_FIELDS, {"total": 5}, "declares 5 tokens, found 4"),
        (([2, 0], *_GOOD_FIELDS[1:]), {"count": 3, "total": 4}, "body ends early"),
        ((*_GOOD_FIELDS[:4], b"\xe8\x84\x89\xff\xf0\xa0\x80\x80a"), {}, "utf-8"),
        ((*_GOOD_FIELDS[:3], b"t0\xe9\xa2", _GOOD_FIELDS[4]), {}, "utf-8"),
        (_GOOD_FIELDS, {"trailing": b"\x00"}, "trailing"),
    ],
    ids=["text-offset-decreases", "title-offset-decreases", "text-offset-past-blob",
         "text-offset-short-of-blob", "title-offset-past-blob", "total-differs",
         "column-shorter-than-count", "text-blob-not-utf8", "title-blob-not-utf8",
         "trailing-bytes"],
)
def test_forged_store_body_is_truncated_artifact(tmp_path, fields, extra, problem):
    path = tmp_path / "forged.store"
    write_artifact(path, STORE_MAGIC, _store_body(*_GOOD_FIELDS))
    assert [(d.title, d.text, d.token_count) for d in load_store(path)] == [
        ("t0", "脉象", 2), ("", "", 0), ("题", "𠀀a", 2)
    ]
    extra = dict(extra)
    trailing = extra.pop("trailing", b"")
    write_artifact(path, STORE_MAGIC, _store_body(*fields, **extra) + trailing)
    with pytest.raises(TruncatedArtifactError, match=problem):
        load_store(path)


def test_store_body_layout_is_the_columns_then_the_blobs(tmp_path):
    docs = [Document(0, "t0", "脉象", 2), Document(1, "", "", 0), Document(2, "题", "𠀀a", 2)]
    path = tmp_path / "saved.store"
    save_store(CorpusStore(documents=docs, tokenizer_id="cjk-char-v1"), path)
    forged = tmp_path / "packed.store"
    write_artifact(forged, STORE_MAGIC, _store_body(*_GOOD_FIELDS))
    assert path.read_bytes() == forged.read_bytes()


def test_store_of_the_previous_format_is_magic_mismatch(tmp_path):
    path = tmp_path / "old.store"
    write_artifact(path, b"DFSTORE1", struct.pack("<QQ", 0, 0) + pack_text("cjk-char-v1"))
    with pytest.raises(MagicMismatchError):
        load_store(path)


def test_store_wrong_magic(tmp_path, tok):
    path = tmp_path / "bad.store"
    save_store(_store_of(["脉象弦滑"], tok), path)
    data = path.read_bytes()
    path.write_bytes(b"NOTMAGIC" + data[8:])
    with pytest.raises(MagicMismatchError):
        load_store(path)


def test_store_truncation(tmp_path, tok):
    path = tmp_path / "cut.store"
    save_store(_store_of(["脉象弦滑", "气血两虚"], tok), path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 20])
    with pytest.raises(TruncatedArtifactError):
        load_store(path)


def test_store_bit_flip(tmp_path, tok):
    path = tmp_path / "flip.store"
    save_store(_store_of(["aaaa bbbb cccc"], tok), path)
    data = path.read_bytes()
    assert b"aaaa" in data
    path.write_bytes(data.replace(b"aaaa", b"aaab", 1))
    with pytest.raises(ChecksumMismatchError):
        load_store(path)


def test_corruption_errors_are_distinct():
    assert len({MagicMismatchError, TruncatedArtifactError, ChecksumMismatchError}) == 3


# ---------------------------------------------------------------------------
# Raw record files


def test_load_raw_records(tmp_path):
    path = tmp_path / "raw.jsonl"
    path.write_text(
        '{"source_id": "a", "title": "题", "body": "正文"}\n'
        "\n"
        '{"source_id": "b", "body": "无题正文"}\n',
        encoding="utf-8",
    )
    records = load_raw_records(path)
    assert records == [
        RawRecord("a", "题", "正文"),
        RawRecord("b", "", "无题正文"),
    ]


def test_load_raw_records_reads_integer_source_ids(tmp_path):
    path = tmp_path / "raw.jsonl"
    path.write_text(
        '{"source_id": 7, "body": "正文"}\n{"source_id": "7a", "title": "", "body": ""}\n',
        encoding="utf-8",
    )
    assert load_raw_records(path) == [RawRecord("7", "", "正文"), RawRecord("7a", "", "")]


@pytest.mark.parametrize(
    "line, problem",
    [
        ('{"source_id": "a", "body": null}', "body must be a string, got NoneType"),
        ('{"source_id": "a", "body": ["x"]}', "body must be a string, got list"),
        ('{"source_id": "a", "body": 3}', "body must be a string, got int"),
        ('{"source_id": "a", "title": ["a"], "body": "x"}', "title must be a string, got list"),
        ('{"source_id": "a", "title": null, "body": "x"}', "title must be a string, got NoneType"),
        ('{"source_id": true, "body": "x"}', "source_id must be a string or an integer, got bool"),
        ('{"source_id": 1.5, "body": "x"}', "source_id must be a string or an integer, got float"),
        ('{"source_id": null, "body": "x"}', "source_id must be a string or an integer, got NoneType"),
        ('{"source_id": {"a": 1}, "body": "x"}', "source_id must be a string or an integer, got dict"),
    ],
    ids=["body-null", "body-list", "body-int", "title-list", "title-null",
         "id-bool", "id-float", "id-null", "id-object"],
)
def test_load_raw_records_rejects_non_string_fields(tmp_path, line, problem):
    path = tmp_path / "raw.jsonl"
    path.write_text('{"source_id": "ok", "body": "正文"}\n' + line + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        load_raw_records(path)
    assert str(err.value) == f"{path}:2: {problem}"
