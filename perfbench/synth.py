"""Seeded synthetic corpora and run configs for the benchmark workloads.

`generate(spec, seed, out_dir)` writes everything an ``mteval`` run needs
and nothing else: the dataset TSV, word2vec-text static vectors, a
WordPiece vocabulary, contextual occurrence records, external-score
columns and the JSON run config.  The same (spec, seed) always writes the
same bytes.

Text is Zipf-drawn over synthetic syllable words.  Each hypothesis
perturbs its reference (substitute, drop, insert) at a per-hypothesis
rate, and the 2-3 judgements per segment follow that rate plus noise.
The source is the reference written with the source lexicon, word for
word.  Two kinds of planted segments make the outputs checkable: exact
matches (hypothesis == anchor text) and hypotheses made only of words
that have no vector and no contextual record, which must be flagged.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

POS_TAGS = ("NOUN", "VERB", "ADJ", "ADV", "DET", "ADP", "PRON", "CCONJ", "NUM", "PART", "AUX", "PROPN")
TARGET_SYLLABLES = tuple(c + v for c in "bdfgklmnprstv" for v in "aeiou")
SOURCE_SYLLABLES = tuple(
    c + v for c in ("h", "j", "w", "c", "x", "z", "sch", "tr", "pf", "st") for v in ("a", "e", "i", "o", "u", "ei", "au")
)
# Words carrying this letter have no WordPiece decomposition: they map to [UNK].
UNK_LETTER = "q"
# Planted no-embedding words: whole-word WordPiece entries that occur in no
# other segment, have no static vector and get no contextual record.
NOEMBED_PREFIX = "ynnyx"
QUANT = 1000  # vector components are written with three decimals
N_EXACT, N_NOEMBED = 4, 3  # planted segments per corpus
N_CLUSTERS = 60  # vector centroids
UNK_SHARE = 0.01  # share of word types that tokenize to [UNK]
VECTOR_GAP = 0.05  # share of target word types written without a static vector


@dataclass(frozen=True)
class Spec:
    """Size and shape of one workload's corpus and run."""

    command: str  # mteval subcommand
    mode: str
    metrics: tuple[str, ...]
    n_sources: int
    hyps_per_source: int
    n_types: int
    zipf: float
    length: tuple[int, int]  # reference length range, inclusive
    static_dim: int = 0  # 0: no static vectors
    contextual_dim: int = 0  # 0: no contextual records
    n_external: int = 0
    mlp: dict = field(default_factory=dict)  # run-config "mlp" section; {} keeps the defaults

    @property
    def n_segments(self) -> int:
        return self.n_sources * self.hyps_per_source


def _words(rng: np.random.Generator, syllables: tuple[str, ...], n: int) -> list[str]:
    """n distinct words of 1-4 syllables, shortest first (frequent words are short)."""
    words: dict[str, None] = {}
    while len(words) < n:
        for _ in range(n - len(words)):
            k = int(rng.choice(4, p=(0.15, 0.45, 0.3, 0.1))) + 1
            words["".join(syllables[i] for i in rng.integers(len(syllables), size=k))] = None
    return sorted(words, key=len)


def _mark_unk(rng: np.random.Generator, words: list[str], share: float) -> list[str]:
    """Rewrite a few rare words so that WordPiece finds no decomposition."""
    n = len(words)
    rare = rng.choice(np.arange(n // 2, n), size=int(share * n), replace=False)
    out = list(words)
    for i in rare:
        out[i] = out[i] + UNK_LETTER + str(i)
    return out


def _wordpiece(word: str, vocab: set[str]) -> list[str]:
    """Greedy longest-match-first split, the WordPiece contract the program implements."""
    pieces = []
    start = 0
    while start < len(word):
        end = len(word)
        while start < end:
            piece = word[start:end] if start == 0 else "##" + word[start:end]
            if piece in vocab:
                break
            end -= 1
        else:
            return ["[UNK]"]
        pieces.append(piece)
        start = end
    return pieces


def _cluster_vectors(rng: np.random.Generator, n: int, dim: int, n_clusters: int) -> np.ndarray:
    """Unit-scale vectors around a few centroids, so similarities exceed the threshold."""
    centroids = rng.standard_normal((n_clusters, dim))
    members = rng.integers(n_clusters, size=n)
    vectors = centroids[members] + 0.9 * rng.standard_normal((n, dim))
    return vectors / np.sqrt(dim)


def _quantize(vectors: np.ndarray) -> np.ndarray:
    return np.clip(np.rint(vectors * QUANT), -9 * QUANT, 9 * QUANT).astype(np.int32)


@functools.cache
def _decimals() -> np.ndarray:
    return np.array([f"{v / QUANT:.3f}" for v in range(-9 * QUANT, 9 * QUANT + 1)], dtype=object)


def _format_rows(quantized: np.ndarray) -> list[str]:
    """Space-joined three-decimal rows, via a lookup table of every value."""
    return [" ".join(row) for row in _decimals()[quantized + 9 * QUANT].tolist()]


@dataclass
class _Segment:
    id: str
    source: list[int]
    reference: list[int]
    hypothesis: list[int]
    rate: float
    kind: str = "regular"  # or "exact" / "noembed"


def _perturb(rng: np.random.Generator, reference: list[int], rate: float, draw_new) -> list[int]:
    """Substitute, drop and insert fixed shares of the words, so the counts follow the rate alone."""
    length = len(reference)
    n_sub, n_drop, n_insert = (round(share * rate * length) for share in (0.5, 0.25, 0.25))
    positions = rng.permutation(length).tolist()
    taken = set(reference)
    out = list(reference)
    for i in positions[:n_sub]:
        out[i] = draw_new(taken)
    dropped = set(positions[n_sub : n_sub + n_drop])
    out = [word for i, word in enumerate(out) if i not in dropped]
    for _ in range(n_insert):
        out.insert(int(rng.integers(len(out) + 1)), draw_new(taken))
    return out


def generate(spec: Spec, seed: int, out_dir: Path) -> dict:
    """Write the corpus and run config for ``spec`` under ``out_dir``.

    Returns a description of the planted segments and the input sizes,
    which the output checks and the environment record use.
    """
    rng = np.random.default_rng([seed, spec.n_segments, spec.n_types])
    out_dir.mkdir(parents=True, exist_ok=True)
    n = spec.n_types
    target = _mark_unk(rng, _words(rng, TARGET_SYLLABLES, n), UNK_SHARE)
    source = _mark_unk(rng, _words(rng, SOURCE_SYLLABLES, n), UNK_SHARE)
    tags = rng.integers(len(POS_TAGS), size=n)
    weights = 1.0 / np.arange(1, n + 1) ** spec.zipf
    weights /= weights.sum()
    zipf_pool = iter(())

    def draw_new(taken: set[int]) -> int:
        """A Zipf-drawn word not yet in ``taken``; sentences repeat no word,
        so transport problem sizes follow sentence lengths."""
        nonlocal zipf_pool
        while True:
            try:
                word = next(zipf_pool)
            except StopIteration:
                zipf_pool = iter(rng.choice(n, size=4096, p=weights).tolist())
                continue
            if word not in taken:
                taken.add(word)
                return word

    noembed_words = [f"{NOEMBED_PREFIX}{k}" for k in range(8)]
    segments: list[_Segment] = []
    planted_at = set(rng.choice(spec.n_segments, size=N_EXACT + N_NOEMBED, replace=False).tolist())
    kinds = iter(["exact"] * N_EXACT + ["noembed"] * N_NOEMBED)
    for s in range(spec.n_sources):
        length = int(rng.integers(spec.length[0], spec.length[1] + 1))
        taken: set[int] = set()
        reference = [draw_new(taken) for _ in range(length)]
        for h in range(spec.hyps_per_source):
            index = s * spec.hyps_per_source + h
            # stratified over the hypotheses of a source: every seed spans the same range
            rate = 0.05 + 0.65 * (h + float(rng.random())) / spec.hyps_per_source
            segment = _Segment(f"s{s:04d}h{h}", reference, reference, _perturb(rng, reference, rate, draw_new), rate)
            if index in planted_at:
                segment.kind = next(kinds)
                if segment.kind == "exact":
                    segment.rate = 0.0
                    segment.hypothesis = list(reference)
                else:
                    segment.rate = 1.0
                    segment.hypothesis = [-1 - int(k) for k in rng.integers(len(noembed_words), size=int(rng.integers(3, 6)))]
            segments.append(segment)

    def words(ids: list[int], lexicon: list[str]) -> str:
        return " ".join(lexicon[i] if i >= 0 else noembed_words[-1 - i] for i in ids)

    def pos(ids: list[int]) -> str:
        return " ".join(POS_TAGS[tags[i]] if i >= 0 else "X" for i in ids)

    source_based = spec.mode == "source_based"
    texts = []
    rows = ["id\tsrc_lang\ttgt_lang\tsource\treference\thypothesis\tjudgements\tpos_source\tpos_reference\tpos_hypothesis"]
    for seg in segments:
        src_text = words(seg.source, source)
        if seg.kind == "exact" and source_based:
            hyp_text, hyp_pos = src_text, pos(seg.source)
        else:
            hyp_text, hyp_pos = words(seg.hypothesis, target), pos(seg.hypothesis)
        quality = 100.0 * (1.0 - seg.rate)
        judgements = np.clip(quality + 8.0 * rng.standard_normal(int(rng.integers(2, 4))), 0.0, 100.0)
        ref_text = words(seg.reference, target)
        texts.append((seg, src_text, ref_text, hyp_text))
        rows.append(
            "\t".join(
                [
                    seg.id, "xx", "en", src_text, ref_text, hyp_text,
                    ",".join(f"{j:.1f}" for j in judgements),
                    pos(seg.source), pos(seg.reference), hyp_pos,
                ]
            )
        )
    files = {"dataset": "dataset.tsv"}
    _write(out_dir / "dataset.tsv", rows)

    # WordPiece: [UNK], every syllable in both positions, and the 1,000 most
    # frequent words of each language whole.
    pieces = ["[UNK]"]
    for syllable in TARGET_SYLLABLES + SOURCE_SYLLABLES:
        pieces += [syllable, "##" + syllable]
    pieces += [w for w in target[:1000] + source[:1000] if UNK_LETTER not in w]
    pieces += noembed_words
    pieces = list(dict.fromkeys(pieces))
    files["wordpiece_vocab"] = "wordpiece.txt"
    _write(out_dir / "wordpiece.txt", pieces)

    vocabulary = {token for _, *sides in texts for text in sides for token in text.split()}
    info = {
        "segments": spec.n_segments,
        "exact": [seg.id for seg in segments if seg.kind == "exact"],
        "noembed": [seg.id for seg in segments if seg.kind == "noembed"],
        "external_columns": spec.n_external,
        "vocabulary_terms": len(vocabulary),
    }

    if spec.static_dim:
        vectors = _quantize(_cluster_vectors(rng, n, spec.static_dim, N_CLUSTERS))
        kept = [i for i in range(n) if rng.random() >= VECTOR_GAP]
        lines = [f"{len(kept)} {spec.static_dim}"]
        formatted = _format_rows(vectors[kept])
        lines += [f"{target[i]} {row}" for i, row in zip(kept, formatted)]
        files["static_embeddings"] = "vectors.txt"
        _write(out_dir / "vectors.txt", lines)
        info["embedded_terms"] = len(vocabulary & {target[i] for i in kept})

    if spec.contextual_dim:
        records, embedded = _write_contextual(spec, rng, out_dir / "contextual.tsv", texts, set(pieces), source_based)
        info["contextual_records"], info["embedded_pieces"] = records, embedded
        files["contextual_records"] = "contextual.tsv"

    if spec.n_external:
        header = "segment_id\t" + "\t".join(f"ext{k}" for k in range(spec.n_external))
        ext_rows = [header]
        for seg in segments:
            base = 100.0 * (1.0 - seg.rate)
            cells = base * (0.5 + 0.1 * np.arange(spec.n_external)) + 15.0 * rng.standard_normal(spec.n_external)
            ext_rows.append(seg.id + "\t" + "\t".join(f"{c:.4f}" for c in cells))
        files["external_scores"] = "external.tsv"
        _write(out_dir / "external.tsv", ext_rows)

    config = {
        "dataset": files.pop("dataset"),
        "mode": spec.mode,
        "metrics": list(spec.metrics),
        "reg_base": True,
        "resources": files,
        "split": {"ratio": 0.8, "seed": seed},
        "mlp": spec.mlp,
    }
    (out_dir / "run.json").write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    info["input_bytes"] = {p.name: p.stat().st_size for p in sorted(out_dir.iterdir()) if p.is_file()}
    return info


def _write_contextual(spec: Spec, rng, path: Path, texts, vocab: set[str], source_based: bool) -> tuple[int, int]:
    """One record per WordPiece occurrence: the piece's vector plus context noise.

    The anchor side is the source in source_based mode, else the reference.
    Exact-match hypotheses repeat the anchor's records, so their contextual
    distance is exactly 0; no-embedding hypotheses get no records.
    """
    split_cache: dict[str, list[str]] = {}

    def split(text: str) -> list[str]:
        out = []
        for word in text.split():
            if word not in split_cache:
                split_cache[word] = _wordpiece(word, vocab)
            out.extend(split_cache[word])
        return out

    anchor_side = "source" if source_based else "reference"
    sides = []
    for seg, src_text, ref_text, hyp_text in texts:
        anchor = split(src_text if source_based else ref_text)
        sides.append((seg.id, anchor_side, anchor))
        if seg.kind == "exact":
            sides.append((seg.id, "hypothesis", None))
        elif seg.kind == "regular":
            sides.append((seg.id, "hypothesis", split(hyp_text)))
    piece_ids = {p: i for i, p in enumerate(sorted({p for _, _, ps in sides if ps for p in ps}))}
    base = _cluster_vectors(rng, len(piece_ids), spec.contextual_dim, N_CLUSTERS)

    lines = ["segment_id\tside\ttoken_index\ttoken\tvector"]
    previous = None
    for segment_id, side, ps in sides:
        if ps is None:  # exact match: copy the anchor's records verbatim
            lines += [line.replace(f"\t{anchor_side}\t", "\thypothesis\t", 1) for line in previous]
            continue
        ids = np.array([piece_ids[p] for p in ps])
        noise = 0.3 * rng.standard_normal((len(ps), spec.contextual_dim)) / np.sqrt(spec.contextual_dim)
        formatted = _format_rows(_quantize(base[ids] + noise))
        previous = [f"{segment_id}\t{side}\t{k}\t{p}\t{row}" for k, (p, row) in enumerate(zip(ps, formatted))]
        lines += previous
    _write(path, lines)
    return len(lines) - 1, len(piece_ids)


def _write(path: Path, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")
