"""Whitespace and WordPiece tokenization.

Whitespace tokens feed the static-embedding metrics and BLEU; WordPiece
subwords feed the decontextualized metrics and the surface length
features.  The WordPiece vocabulary file holds one subword per line
(continuation pieces prefixed with ``##``), UTF-8, line order preserved.
"""

from __future__ import annotations

from pathlib import Path

from mteval.errors import DataError, Frozen, utf8_loader

# Whitespace tokens longer than this are mapped straight to the unknown
# token instead of being decomposed character by character.
MAX_WORDPIECE_INPUT_CHARS = 100

#: The piece standing for a token with no decomposition; every vocabulary holds it
UNK_TOKEN = "[UNK]"


class WordPieceVocab(Frozen):
    def __init__(self, entries: tuple[str, ...]):
        self._set(locals())
        if not self.entries:
            raise DataError("WordPiece vocabulary is empty")
        if UNK_TOKEN not in self.entries:
            raise DataError(f"unknown-token {UNK_TOKEN!r} missing from the vocabulary")
        object.__setattr__(self, "_lookup", frozenset(self.entries))
        object.__setattr__(self, "_splits", {})  # each word's pieces, which `wordpiece_tokenize` memoizes

    def __contains__(self, piece: str) -> bool:
        return piece in self._lookup


@utf8_loader
def load_wordpiece_vocab(path: str | Path) -> WordPieceVocab:
    entries = []
    with open(path, encoding="utf-8-sig") as handle:
        for line in handle:
            token = line.rstrip("\n")
            if token:
                entries.append(token)
    try:
        return WordPieceVocab(entries=tuple(entries))
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def whitespace_tokenize(text: str) -> list[str]:
    """Split on Unicode whitespace, dropping empty tokens; no normalization."""
    return text.split()


def wordpiece_tokenize(text: str, vocab: WordPieceVocab) -> list[str]:
    """Greedy longest-match-first subword segmentation.

    Each whitespace token is decomposed independently: the first piece is
    matched as-is, later pieces against ``##``-prefixed entries.  A token
    with no full decomposition (or longer than MAX_WORDPIECE_INPUT_CHARS)
    becomes the single unknown token.
    """
    pieces: list[str] = []
    splits = vocab._splits  # tuples: no caller can change a memoized split
    for token in whitespace_tokenize(text):
        split = splits.get(token)
        if split is None:
            split = splits[token] = tuple(_split_token(token, vocab))
        pieces.extend(split)
    return pieces


def _split_token(token: str, vocab: WordPieceVocab) -> list[str]:
    if len(token) > MAX_WORDPIECE_INPUT_CHARS:
        return [UNK_TOKEN]
    pieces = []
    start = 0
    while start < len(token):
        end = len(token)
        match = None
        while start < end:
            piece = token[start:end]
            if start > 0:
                piece = "##" + piece
            if piece in vocab:
                match = piece
                break
            end -= 1
        if match is None:
            return [UNK_TOKEN]
        pieces.append(match)
        start = end
    return pieces
