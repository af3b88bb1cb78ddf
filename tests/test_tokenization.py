import numpy as np
import pytest

from mteval.errors import DataError
from mteval.tokenization import (
    MAX_WORDPIECE_INPUT_CHARS,
    WordPieceVocab,
    load_wordpiece_vocab,
    whitespace_tokenize,
    wordpiece_tokenize,
)
from mteval.tokenization import _split_token

VOCAB = WordPieceVocab(entries=("[UNK]", "un", "##aff", "##able", "aff", "able", "a", "##a", "##b", "b"))


def test_whitespace_tokenize_basics():
    assert whitespace_tokenize("a  b") == ["a", "b"]
    assert whitespace_tokenize("") == []
    assert whitespace_tokenize(" x ") == ["x"]
    # tabs / newlines count as whitespace, casing is untouched
    assert whitespace_tokenize("Foo\tBar\nbaz") == ["Foo", "Bar", "baz"]


def test_wordpiece_greedy_longest_match():
    assert wordpiece_tokenize("unaffable", VOCAB) == ["un", "##aff", "##able"]


def test_wordpiece_whole_word_match():
    assert wordpiece_tokenize("able", VOCAB) == ["able"]


def test_wordpiece_unknown_fallback():
    # no first piece matches "x..."
    assert wordpiece_tokenize("xyz", VOCAB) == ["[UNK]"]
    # first piece matches but the tail cannot be finished
    assert wordpiece_tokenize("unz", VOCAB) == ["[UNK]"]


def test_wordpiece_handles_multiple_words():
    assert wordpiece_tokenize("able unaffable xyz", VOCAB) == [
        "able",
        "un",
        "##aff",
        "##able",
        "[UNK]",
    ]


def test_wordpiece_prefers_longest_first_piece():
    # "aff" is in the vocab unprefixed, so "affable" splits as aff + ##able,
    # not a + [no ##ff...] fallback.
    assert wordpiece_tokenize("affable", VOCAB) == ["aff", "##able"]


def test_wordpiece_long_token_guard():
    token = "a" * (MAX_WORDPIECE_INPUT_CHARS + 1)
    assert wordpiece_tokenize(token, VOCAB) == ["[UNK]"]
    # right at the limit it still decomposes (a + ##a * 99)
    token = "a" * MAX_WORDPIECE_INPUT_CHARS
    pieces = wordpiece_tokenize(token, VOCAB)
    assert pieces[0] == "a"
    assert set(pieces[1:]) == {"##a"}
    assert len(pieces) == MAX_WORDPIECE_INPUT_CHARS


def test_wordpiece_roundtrip_property():
    # concatenating the pieces of any decomposable token reproduces it
    rng = np.random.default_rng(42)
    alphabet = "ab"
    for _ in range(300):
        n = int(rng.integers(1, 12))
        token = "".join(rng.choice(list(alphabet)) for _ in range(n))
        pieces = wordpiece_tokenize(token, VOCAB)
        if pieces == ["[UNK]"]:
            continue
        rebuilt = pieces[0] + "".join(p[2:] for p in pieces[1:])
        assert rebuilt == token
        assert all(p.startswith("##") for p in pieces[1:])
        assert not pieces[0].startswith("##")


def test_wordpiece_deterministic():
    text = "unaffable able b xyz"
    assert wordpiece_tokenize(text, VOCAB) == wordpiece_tokenize(text, VOCAB)


def test_wordpiece_memo_gives_the_uncached_split():
    vocab = WordPieceVocab(entries=VOCAB.entries)  # an empty memo
    rng = np.random.default_rng(28)
    words = ["".join(rng.choice(list("abunfelxz"), size=int(rng.integers(1, 9)))) for _ in range(400)]
    words += ["a" * MAX_WORDPIECE_INPUT_CHARS, "a" * (MAX_WORDPIECE_INPUT_CHARS + 1), "unaffable"]
    want = [piece for word in words for piece in _split_token(word, vocab)]
    first = wordpiece_tokenize(" ".join(words), vocab)  # fills the memo, a word's repeats included
    assert set(vocab._splits) == set(words) and all(vocab._splits[word] == tuple(_split_token(word, vocab)) for word in words)
    first.clear()  # a caller's list is its own
    assert wordpiece_tokenize(" ".join(words), vocab) == want
    assert "[UNK]" in want and 0 < sum(piece.startswith("##") for piece in want)
    assert len(set(words)) < len(words) and wordpiece_tokenize(words[-3], vocab) == ["a"] + ["##a"] * (MAX_WORDPIECE_INPUT_CHARS - 1)
    assert wordpiece_tokenize(words[-2], vocab) == ["[UNK]"]


def test_vocab_validation():
    with pytest.raises(DataError):
        WordPieceVocab(entries=())
    with pytest.raises(DataError):
        WordPieceVocab(entries=("un", "##aff"))  # no [UNK]


def test_load_wordpiece_vocab(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("[UNK]\nun\n##aff\n\n##able\n", encoding="utf-8")
    vocab = load_wordpiece_vocab(path)
    # blank line skipped, order preserved
    assert vocab.entries == ("[UNK]", "un", "##aff", "##able")
    assert "un" in vocab
    assert "##zzz" not in vocab
    assert wordpiece_tokenize("unaffable", vocab) == ["un", "##aff", "##able"]
