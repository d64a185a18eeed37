"""Vocabulary, encode/decode, and corpus reader contracts."""

import json
import re
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
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


@pytest.mark.parametrize("bad", [-1, 6, True, 2.5], ids=["negative", "size", "bool", "float"])
def test_word_of_rejects_ids_that_are_not_in_range_integers(bad):
    vocab = Vocabulary(["a", "b"])
    with pytest.raises(VocabularyError, match=re.escape(repr(bad))):
        vocab.word_of(bad)


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


def test_encode_length_limit():
    vocab = build_vocab(_records("a b c"))
    with pytest.raises(SequenceLengthError):
        encode(vocab, ["a"] * 5, add_bos_eos=True, max_seq_len=6)


def test_decode_strips_specials_and_renders_unk():
    vocab = build_vocab(_records("a"))
    a = vocab.id_of("a")
    assert decode(vocab, [BOS_ID, a, EOS_ID]) == ["a"]
    assert decode(vocab, [BOS_ID, EOS_ID]) == []
    assert decode(vocab, [BOS_ID, UNK_ID, EOS_ID]) == ["<unk>"]


def test_decode_out_of_range_rejected():
    vocab = build_vocab(_records("a"))
    with pytest.raises(VocabularyError):
        decode(vocab, [len(vocab)])


@pytest.mark.parametrize("bad", [True, 2.0], ids=["bool", "float"])
def test_decode_rejects_ids_that_are_not_integers(bad):
    # True would read as BOS_ID and 2.0 as EOS_ID, and both be dropped.
    with pytest.raises(VocabularyError, match=re.escape(repr(bad))):
        decode(build_vocab(_records("a")), [4, bad])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(["cat", "dog", "bird", "fish"]), max_size=8))
def test_round_trip_identity_on_known_words(words):
    vocab = build_vocab(_records("cat dog bird fish"))
    assert decode(vocab, encode(vocab, words, add_bos_eos=True)) == words


def test_normalize_strips_punctuation_keeps_apostrophes():
    assert normalize_words("Don't STOP, now!") == ["don't", "stop", "now"]
    assert normalize_words("'quoted'") == ["quoted"]


def test_corpus_round_trip(tmp_path):
    """Hand-written JSONL text loads as the records it spells out."""
    path = tmp_path / "corpus.jsonl"
    path.write_text(
        '{"id": "r0", "ref": "A, b!", "hyp": "a"}\n'
        "\n"
        '{"hyp": "c d", "id": "r1", "ref": "c"}\n'
    )
    assert load_corpus(path) == [
        CorpusRecord(id="r0", ref_words=["a", "b"], hyp_words=["a"]),
        CorpusRecord(id="r1", ref_words=["c"], hyp_words=["c", "d"]),
    ]


def test_load_corpus_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert load_corpus(path) == []


def test_load_corpus_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "ok", "ref": "a"}\nnot json\n')
    with pytest.raises(CorpusFormatError) as err:
        load_corpus(path)
    assert ":2:" in str(err.value)


def test_load_corpus_rejects_non_string_hyp(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "ok", "ref": "a"}\n{"id": "a", "ref": "x y", "hyp": 3}\n')
    with pytest.raises(CorpusFormatError) as err:
        load_corpus(path)
    assert str(err.value).startswith(f"{path}:2:")


def test_load_corpus_rejects_non_utf8_bytes_with_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(b'{"id": "ok", "ref": "a"}\n{"id": "x", "ref": "a \xff b"}\n')
    with pytest.raises(CorpusFormatError) as err:
        load_corpus(path)
    assert str(err.value).startswith(f"{path}:2:")


# A corpus line carries no boundaries: the malformed spans that the deleted
# span parser refused, and a span count that does not match the hypothesis,
# are still refused, now as unknown fields.
@pytest.mark.parametrize(
    "boundaries",
    ["[[0, 1.9], [2, 3]]", "[[0, 1], [true, 3]]", '[[0, 1], [1, "3"]]', '["01", [1, 3]]'],
    ids=["float", "bool", "numeric-string", "string-pair"],
)
def test_load_corpus_accepts_only_integer_boundaries(tmp_path, boundaries):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"id": "x", "ref": "a b", "hyp": "a b", "boundaries": ' + boundaries + "}\n"
    )
    with pytest.raises(CorpusFormatError) as err:
        load_corpus(path)
    assert str(err.value).startswith(f"{path}:1:")


def test_boundary_count_must_match_hyp(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "x", "ref": "a b", "hyp": "a", "boundaries": [[0, 1], [1, 2]]}\n')
    with pytest.raises(CorpusFormatError):
        load_corpus(path)


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
