"""Vocabulary, encode/decode, and corpus reader contracts."""

import json
import re
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crossaec.errors import (
    CorpusFormatError,
    DegenerateInputError,
    SequenceLengthError,
    VocabularyError,
)
from crossaec.text import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    SPECIALS,
    UNK_ID,
    CorpusRecord,
    Vocabulary,
    build_vocab,
    decode,
    encode,
    load_corpus,
    normalize_words,
)


def _records(*texts):
    return [CorpusRecord(id=str(i), ref_words=t.split()) for i, t in enumerate(texts)]


def test_specials_occupy_fixed_ids():
    vocab = build_vocab(_records("a b"))
    assert (PAD_ID, BOS_ID, EOS_ID, UNK_ID) == (0, 1, 2, 3)
    assert vocab.word_of(UNK_ID) == "<unk>"
    assert len(vocab) >= 4


def test_word_of_takes_numpy_integers():
    vocab = Vocabulary(["a", "b"])
    assert [vocab.word_of(t(4)) for t in (np.int64, np.int32, np.uint8)] == ["a"] * 3


def test_vocabulary_list_round_trip():
    vocab = Vocabulary(["b", "a", "c"])
    listed = vocab.to_list()
    assert listed[:4] == ["<pad>", "<bos>", "<eos>", "<unk>"]
    restored = Vocabulary.from_list(listed)
    assert restored.to_list() == listed
    assert [restored.id_of(w) for w in "abc"] == [vocab.id_of(w) for w in "abc"]


@pytest.mark.parametrize("words", [["a", "b", "a"], ["<unk>"]], ids=["word", "special"])
def test_vocabulary_rejects_duplicate_words(words):
    with pytest.raises(VocabularyError, match="duplicate words"):
        Vocabulary(words)


def test_vocabulary_from_list_requires_specials():
    with pytest.raises(VocabularyError):
        Vocabulary.from_list(["a", "b"])
    with pytest.raises(VocabularyError):
        Vocabulary.from_list(["<pad>", "<bos>", "<unk>", "<eos>", "a"])


def test_build_vocab_frequency_then_lexicographic():
    vocab = build_vocab(_records("a a b"))
    assert vocab.to_list()[len(SPECIALS):] == ["a", "b"]
    vocab = build_vocab(_records("c b", "b a c"))
    assert vocab.to_list()[len(SPECIALS):] == ["b", "c", "a"]


def test_build_vocab_deterministic():
    v1 = build_vocab(_records("c a b a", "b c c"))
    v2 = build_vocab(_records("c a b a", "b c c"))
    assert v1.to_list() == v2.to_list()


def test_build_vocab_pure_function_of_word_multiset():
    v1 = build_vocab(_records("a b", "c c"))
    v2 = build_vocab(_records("c c", "a b"))
    assert v1.to_list() == v2.to_list()


def test_build_vocab_empty_corpus_rejected():
    with pytest.raises(DegenerateInputError):
        build_vocab([])


def test_encode_decode_round_trip():
    vocab = build_vocab(_records("alpha beta gamma"))
    words = ["beta", "alpha", "gamma"]
    assert decode(vocab, encode(vocab, words, add_bos_eos=True)) == words


def test_encode_unknown_word_maps_to_unk():
    vocab = build_vocab(_records("a"))
    assert encode(vocab, ["zzz"]) == [UNK_ID]


def test_encode_empty_with_flag_is_bos_eos():
    vocab = build_vocab(_records("a"))
    assert encode(vocab, [], add_bos_eos=True) == [BOS_ID, EOS_ID]


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.sampled_from(["a", "b", "zzz"]), max_size=10), st.booleans(), st.integers(1, 13)
)
@example(["a"] * 5, True, 6)
def test_encode_fails_exactly_past_max_seq_len(words, add_bos_eos, max_seq_len):
    vocab = build_vocab(_records("a b"))
    length = len(words) + 2 if add_bos_eos else len(words)
    if length > max_seq_len:
        with pytest.raises(SequenceLengthError):
            encode(vocab, words, add_bos_eos, max_seq_len)
    else:
        assert len(encode(vocab, words, add_bos_eos, max_seq_len)) == length


def test_decode_strips_specials_and_renders_unk():
    vocab = build_vocab(_records("a"))
    a = vocab.id_of("a")
    assert decode(vocab, [BOS_ID, a, EOS_ID]) == ["a"]
    assert decode(vocab, [BOS_ID, EOS_ID]) == []
    assert decode(vocab, [BOS_ID, UNK_ID, EOS_ID]) == ["<unk>"]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(["cat", "dog", "bird", "fish"]), max_size=8))
def test_round_trip_identity_on_known_words(words):
    vocab = build_vocab(_records("cat dog bird fish"))
    assert decode(vocab, encode(vocab, words, add_bos_eos=True)) == words


def test_normalize_strips_punctuation_keeps_apostrophes():
    assert normalize_words("Don't STOP, now!") == ["don't", "stop", "now"]
    assert normalize_words("'quoted'") == ["quoted"]


def _ascii_words(text):
    """The ASCII rule: lowercase, every character but a-z, 0-9 and the
    apostrophe is a space, and apostrophes at a word's ends go."""
    cleaned = re.sub(r"[^a-z0-9' ]+", " ", text.lower())
    return [w.strip("'") for w in cleaned.split() if w.strip("'")]


@settings(max_examples=300, deadline=None)
@given(st.text(st.characters(max_codepoint=127) | st.sampled_from("a'_ -"), max_size=40))
def test_normalize_follows_the_ascii_rule_on_ascii_text(text):
    assert normalize_words(text) == _ascii_words(text)


@pytest.mark.parametrize(
    "text, words",
    [
        ("Naïve café don\u2019t", ["naïve", "café", "don't"]),
        ("cafe\u0301", ["café"]),  # NFC composes e + combining acute
        ("É", ["é"]),
        ("\u2019tis Straße", ["tis", "straße"]),
        ("Москва, 東京!", ["москва", "東京"]),
    ],
    ids=["latin", "combining-accent", "capital", "typographic-apostrophe", "cyrillic-cjk"],
)
def test_normalize_keeps_unicode_letters_and_typographic_apostrophes(text, words):
    assert normalize_words(text) == words


def test_a_reference_of_non_ascii_letters_is_not_empty(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "1", "ref": "\u00e9"}\n', encoding="utf-8")
    assert [r.ref_words for r in load_corpus(path)] == [["é"]]


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["no-bom", "bom"])
def test_corpus_round_trip(tmp_path, bom):
    """Hand-written JSONL text loads as the records it spells out, with or
    without a UTF-8 byte-order mark in front."""
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(
        bom
        + b'{"id": "r0", "ref": "A, b!", "hyp": "a"}\n'
        b"\n"
        b'{"hyp": "c d", "id": "r1", "ref": "c"}\n'
    )
    assert load_corpus(path) == [
        CorpusRecord(id="r0", ref_words=["a", "b"], hyp_words=["a"]),
        CorpusRecord(id="r1", ref_words=["c"], hyp_words=["c", "d"]),
    ]


def test_load_corpus_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert load_corpus(path) == []


@pytest.mark.parametrize(
    "line, message",
    [
        ("not json", "invalid JSON"),
        ('["a", "b"]', "record must be an object"),
        ('{"id": 1, "ref": "a"}', "id and ref must be strings"),
        ('{"id": "x", "ref": ["a"]}', "id and ref must be strings"),
        ('{"id": "x", "ref": "x y", "hyp": 3}', "hyp must be a string"),
        ("[" * 100_000, "invalid JSON"),
        ('{"id": "x", "ref": "a", "id": "y"}', "duplicate field 'id'"),
    ],
    ids=[
        "not-json", "not-object", "id-not-string", "ref-not-string", "hyp-not-string",
        "nested-too-deep", "duplicate-field",
    ],
)
def test_load_corpus_names_the_line_of_a_bad_record(tmp_path, line, message):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "ok", "ref": "a"}\n' + line + "\n")
    with pytest.raises(CorpusFormatError) as err:
        load_corpus(path)
    assert str(err.value).startswith(f"{path}:2: {message}")


def test_load_corpus_rejects_non_utf8_bytes_with_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(b'{"id": "ok", "ref": "a"}\n{"id": "x", "ref": "a \xff b"}\n')
    with pytest.raises(CorpusFormatError) as err:
        load_corpus(path)
    assert str(err.value).startswith(f"{path}:2:")


def test_load_corpus_counts_a_bad_byte_from_the_start_of_its_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(b'\xef\xbb\xbf{"id": "x", "ref": "a \xff"}\n')
    with pytest.raises(CorpusFormatError) as err:
        load_corpus(path)
    assert str(err.value) == f"{path}:1: not UTF-8 (byte 25: invalid start byte)"


@pytest.mark.parametrize("key", ["boundaries", "frames"])
def test_load_corpus_rejects_unknown_fields(tmp_path, key):
    path = tmp_path / "bad.jsonl"
    spans = [[0, 1], [1, 2]]
    path.write_text(json.dumps({"id": "x", "ref": "a b", "hyp": "a b", key: spans}))
    with pytest.raises(CorpusFormatError, match=key) as err:
        load_corpus(path)
    assert str(err.value).startswith(f"{path}:1:")


def test_empty_reference_rejected():
    with pytest.raises(CorpusFormatError):
        CorpusRecord(id="x", ref_words=[])


def test_corpus_record_is_frozen():
    record = CorpusRecord(id="x", ref_words=["a"], hyp_words=["a"])
    with pytest.raises(FrozenInstanceError):
        record.hyp_words = ["a", "b"]


_TEXT = st.text(alphabet="ab C,'\u00e9", max_size=6)
_VALUES = st.one_of(
    _TEXT,
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.lists(st.integers(), max_size=3),
)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        st.fixed_dictionaries({"id": _TEXT, "ref": _TEXT}, optional={"hyp": _VALUES}),
        st.dictionaries(
            st.sampled_from(["id", "ref", "hyp", "boundaries", "frames", "lang", ""]),
            _VALUES,
        ),
    ),
    st.one_of(st.sampled_from([b"", b"\n", b" \r\n"]), st.binary(max_size=4)),
)
def test_load_corpus_fuzzed_line_loads_or_raises_corpus_error(
    tmp_path_factory, payload, junk
):
    path = tmp_path_factory.mktemp("fuzz") / "c.jsonl"
    path.write_bytes(json.dumps(payload).encode("utf-8") + junk)
    try:
        records = load_corpus(path)
    except CorpusFormatError as exc:
        assert str(exc).startswith(f"{path}:")
        return
    assert set(payload) <= {"id", "ref", "hyp"}
    assert records == [
        CorpusRecord(
            id=payload["id"],
            ref_words=normalize_words(payload["ref"]),
            hyp_words=normalize_words(payload.get("hyp", "")),
        )
    ]
