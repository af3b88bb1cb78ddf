"""Segment-level translation quality metrics.

Implements the soft cosine measure and word mover's distance over static,
decontextualized, and contextual token vectors (with raw-tf and tf-idf
weightings), a part-of-speech transition metric, sentence BLEU, and the
four surface length features behind the Reg-base baseline.  `score_segments`
dispatches all of them for a list of segments under a `MetricConfig`, and
solves every segment's WMD transport problem in one batch.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from mteval.corpus import Segment
from mteval.embeddings import ContextualRecord, EmbeddingStore
from mteval.errors import ConfigError, DataError
from mteval.flow import CHUNK_CELLS, FlowSolution, solve_transport, solve_transport_batch
from mteval.tokenization import WordPieceVocab, whitespace_tokenize, wordpiece_tokenize
from mteval.vsm import (
    DEFAULT_EXPONENT, DEFAULT_THRESHOLD, DEFAULT_TOP_K, SimilarityMatrix, Vocabulary, WeightedBow, bow_nfx, bow_nnx
)

__all__ = [
    "EMPTY_BOW_FLAG",
    "FlowSolution",
    "METRICS",
    "MetricConfig",
    "MetricInfo",
    "MetricVector",
    "REG_BASE_FEATURES",
    "Resources",
    "TransitionMatrix",
    "UnscorableSegment",
    "compositionality",
    "compute_placeholders",
    "reg_base_features",
    "scm",
    "score_segment",
    "score_segments",
    "sentence_bleu",
    "transition_graph",
    "wmd",
    "wmd_contextual",
]

MODES = ("reference_based", "source_based")

EMPTY_BOW_FLAG = "empty bag of words"

#: Names of the four surface features consumed by the Reg-base ensemble.
#: "anchor" is the reference in reference_based mode and the source in
#: source_based mode.
REG_BASE_FEATURES = (
    "reg_chars_anchor",
    "reg_chars_hypothesis",
    "reg_pieces_anchor",
    "reg_pieces_hypothesis",
)


class UnscorableSegment(DataError):
    """A metric cannot produce a score for this segment (e.g. all terms OOV).

    `score_segments` scores it NaN with a flag; the pipeline fills in a placeholder.
    """


@dataclass(frozen=True)
class MetricInfo:
    """Static facts about one registered metric; the rest follows from them."""

    family: str  # scm, wmd, bleu or compositionality
    space: str = "none"  # words (static), pieces (decontextualized), contextual or none
    weighting: str = "nnx"  # nnx (raw tf) or nfx (tf-idf)

    @property
    def higher_is_better(self) -> bool:
        return self.family in ("scm", "bleu")

    @property
    def reference_only(self) -> bool:
        """Static vectors and BLEU compare with a same-language text: disallowed in source_based mode."""
        return self.space == "words" or self.family == "bleu"

    @property
    def similarity_key(self) -> tuple[str, str] | None:
        """The (term space, processing order) of the similarity matrix an SCM variant reads."""
        if self.family != "scm":
            return None
        return self.space, "idf_descending" if self.weighting == "nfx" else "vocabulary"


#: Registry of every scoreable metric: its family, term space and weighting
METRICS: dict[str, MetricInfo] = {
    "scm": MetricInfo("scm", "words"),
    "scm_tfidf": MetricInfo("scm", "words", "nfx"),
    "wmd": MetricInfo("wmd", "words"),
    "wmd_tfidf": MetricInfo("wmd", "words", "nfx"),
    "scm_decontextualized": MetricInfo("scm", "pieces"),
    "scm_decontextualized_tfidf": MetricInfo("scm", "pieces", "nfx"),
    "wmd_decontextualized": MetricInfo("wmd", "pieces"),
    "wmd_decontextualized_tfidf": MetricInfo("wmd", "pieces", "nfx"),
    "wmd_contextual": MetricInfo("wmd", "contextual"),
    "wmd_contextual_tfidf": MetricInfo("wmd", "contextual", "nfx"),
    "compositionality": MetricInfo("compositionality"),
    "bleu": MetricInfo("bleu"),
}


@dataclass(frozen=True)
class MetricConfig:
    """Which metrics to compute and how.

    source_based mode admits only metrics that stay meaningful across
    languages: the decontextualized and contextual variants,
    compositionality, and the Reg-base surface features.  Static-embedding
    SCM/WMD and BLEU compare the hypothesis to a same-language reference
    and are rejected there.
    """

    mode: str
    metrics: tuple[str, ...]
    reg_base: bool = True
    lowercase: bool = False
    compositionality_full_matrix: bool = False
    similarity_threshold: float = DEFAULT_THRESHOLD
    similarity_exponent: float = DEFAULT_EXPONENT
    similarity_top_k: int = DEFAULT_TOP_K

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        seen = set()
        for name in self.metrics:
            if name not in METRICS:
                raise ConfigError(f"unknown metric {name!r}; known: {', '.join(sorted(METRICS))}")
            if name in seen:
                raise ConfigError(f"metric {name!r} enabled twice")
            seen.add(name)
            if self.mode == "source_based" and METRICS[name].reference_only:
                raise ConfigError(f"metric {name!r} needs a same-language reference and cannot run source_based")
        if self.similarity_top_k < 1:
            raise ConfigError("similarity_top_k must be >= 1")

    @property
    def anchor_side(self) -> str:
        return "reference" if self.mode == "reference_based" else "source"


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-normalized directed PoS-transition probabilities of one text."""

    tags: tuple[str, ...]
    probs: np.ndarray

    def __post_init__(self) -> None:
        k = len(self.tags)
        if self.probs.shape != (k, k):
            raise ValueError(f"probs shape {self.probs.shape} does not match {k} tags")
        if np.any(self.probs < 0) or np.any(self.probs > 1 + 1e-12):
            raise ValueError("transition probabilities must lie in [0, 1]")
        row_sums = self.probs.sum(axis=1)
        # np.isclose(row_sums, 1.0) spelled out: its defaults, without its overhead
        bad = ~((np.abs(row_sums - 1.0) <= 1e-8 + 1e-5) | (row_sums == 0.0))
        if np.any(bad):
            raise ValueError("each row must sum to 1 (or be all-zero)")

    def self_prob(self, tag: str) -> float:
        """Self-transition probability of ``tag``; 0 for tags not in this text."""
        try:
            i = self.tags.index(tag)
        except ValueError:
            return 0.0
        return float(self.probs[i, i])


@dataclass
class MetricVector:
    """All configured metric scores of one segment.

    ``flags`` records, per metric, why a score is degenerate: either the
    empty-bag-of-words zero or an unscorable segment that received the
    placeholder value.
    """

    segment_id: str
    scores: dict[str, float]
    flags: dict[str, str] = field(default_factory=dict)


@dataclass
class Resources:
    """Loaded artifacts the configured metrics draw on.

    ``vocabs``, ``stores`` and ``sims`` are keyed by term space: "words"
    (whitespace tokens + static vectors), "pieces" (WordPiece tokens +
    decontextualized vectors) and, for ``vocabs`` only, "contextual"
    (document frequencies of token strings over the contextual record file,
    one document per (segment, side) group).  ``sims`` adds the processing
    order, "vocabulary" or "idf_descending", to its key.

    `tokens` and `bag` memoize per side text, so the vocabulary build, the
    metrics and the Reg-base features tokenize each distinct side once and
    bag it once per (term space, weighting).
    """

    wp_vocab: WordPieceVocab | None = None
    contextual_groups: dict[tuple[str, str], list[ContextualRecord]] | None = None
    vocabs: dict[str, Vocabulary] = field(default_factory=dict)
    stores: dict[str, EmbeddingStore] = field(default_factory=dict)
    sims: dict[tuple[str, str], SimilarityMatrix] = field(default_factory=dict)
    external: dict[str, dict[str, float]] = field(default_factory=dict)
    _memo: dict[tuple[str, ...], object] = field(default_factory=dict, init=False, repr=False, compare=False)

    def tokens(self, space: str, text: str, lowercase: bool = False) -> list[str]:
        """Whitespace ("words") or WordPiece ("pieces") tokens of one side text."""
        text = text.lower() if lowercase else text
        if space == "words":
            return self._memoized((space, text), lambda: whitespace_tokenize(text))
        return self._memoized((space, text), lambda: wordpiece_tokenize(text, self.wp_vocab))

    def bag(self, space: str, weighting: str, text: str, lowercase: bool = False) -> WeightedBow:
        """nnx or nfx bag of one side text over the term space's vocabulary."""
        text = text.lower() if lowercase else text
        make_bow = bow_nfx if weighting == "nfx" else bow_nnx
        return self._memoized((space, weighting, text), lambda: make_bow(self.tokens(space, text), self.vocabs[space]))

    def _memoized(self, key: tuple[str, ...], compute):
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = compute()
        return value


def scm(x: WeightedBow, y: WeightedBow, matrix: SimilarityMatrix) -> float:
    """Soft cosine measure x^T S y / (sqrt(x^T S x) * sqrt(y^T S y)).

    An empty side yields the defined score 0.0 (the caller flags it); equal
    bags short-circuit to exactly 1.0.
    """
    if x.is_zero() or y.is_zero():
        return 0.0
    if x.entries == y.entries:
        return 1.0
    num = _soft_quadratic(x, y, matrix)
    denom = math.sqrt(_soft_quadratic(x, x, matrix)) * math.sqrt(_soft_quadratic(y, y, matrix))
    if denom <= 0.0:
        return 0.0
    return num / denom


def _soft_quadratic(x: WeightedBow, y: WeightedBow, matrix: SimilarityMatrix) -> float:
    """x^T S y over the sparse entries (implicit unit diagonal included)."""
    terms = []
    ys = y.entries
    for i, wx in x.entries.items():
        wy = ys.get(i)
        if wy is not None:
            terms.append(wx * wy)
        row = matrix.rows.get(i)
        if row:
            # the key views intersect from the shorter side; fsum is exact in any order
            terms += [wx * row[j] * ys[j] for j in row.keys() & ys.keys()]
    return math.fsum(terms)


def wmd(x: WeightedBow, y: WeightedBow, store: EmbeddingStore, vocab: Vocabulary) -> float:
    """Word mover's distance: exact optimum of the transportation problem.

    Both sides are l1-normalized after dropping zero-weight terms and terms
    without an embedding; pairwise Euclidean distances between term vectors
    are the transport costs.
    """
    return _transport_cost(*_wmd_sides(x, y, store, vocab))


def _wmd_sides(x: WeightedBow, y: WeightedBow, store: EmbeddingStore, vocab: Vocabulary):
    ix, wx = _embedded_terms(x, store, vocab)
    iy, wy = _embedded_terms(y, store, vocab)
    if not ix:
        raise UnscorableSegment("first side has no embedded terms with positive weight")
    if not iy:
        raise UnscorableSegment("second side has no embedded terms with positive weight")
    ex = np.stack([store[vocab.terms[i]] for i in ix])
    ey = np.stack([store[vocab.terms[i]] for i in iy])
    return np.asarray(wx), np.asarray(wy), ex, ey


def _embedded_terms(bow: WeightedBow, store: EmbeddingStore, vocab: Vocabulary):
    indices = []
    weights = []
    for i in sorted(bow.entries):
        w = bow.entries[i]
        if w > 0 and vocab.terms[i] in store:
            indices.append(i)
            weights.append(w)
    return indices, weights


def _transport_cost(wx: np.ndarray, wy: np.ndarray, ex: np.ndarray, ey: np.ndarray) -> float:
    problem = _transport_problem(wx, wy, ex, ey)
    return problem if isinstance(problem, float) else solve_transport(*problem).cost


def _transport_problem(wx: np.ndarray, wy: np.ndarray, ex: np.ndarray, ey: np.ndarray) -> float | tuple:
    """The (supplies, demands, costs) left to solve, or the cost 0.0 when all mass is pre-matched."""
    if ex.shape[1] != ey.shape[1]:
        raise DataError(f"embedding dimensions differ between sides: {ex.shape[1]} vs {ey.shape[1]}")
    a = wx / wx.sum()
    b = wy / wy.sum()
    diff = ex[:, None, :] - ey[None, :, :]
    costs = np.sqrt((diff * diff).sum(axis=2))
    # A zero Euclidean cost means identical vectors.  The cost is a metric,
    # so some optimal plan keeps all the mass the two sides share there
    # (Pele & Werman 2009); only the remainder needs the solver.  This
    # does not hold for the general costs solve_transport accepts.
    for i, j in np.argwhere(costs == 0.0):
        shared = min(a[i], b[j])
        a[i] -= shared
        b[j] -= shared
    rows, cols = a > 1e-14, b > 1e-14  # unit masses: what is left below is subtraction dust
    if not rows.any() or not cols.any():
        return 0.0
    return a[rows], b[cols], costs[np.ix_(rows, cols)]


def wmd_contextual(
    records_x: list[ContextualRecord],
    records_y: list[ContextualRecord],
    weighting: str = "nnx",
    vocab: Vocabulary | None = None,
) -> float:
    """WMD with every token occurrence as its own flow node.

    nnx weights each occurrence 1; nfx weights it by the idf of its token
    string (``vocab`` required, built from the contextual record file).
    """
    return _transport_cost(*_contextual_sides(records_x, records_y, weighting, vocab))


def _contextual_sides(records_x, records_y, weighting, vocab):
    if weighting not in ("nnx", "nfx"):
        raise ValueError(f"unknown weighting {weighting!r}")
    if weighting == "nfx" and vocab is None:
        raise ValueError("nfx weighting needs a vocabulary for idf")
    if not records_x:
        raise UnscorableSegment("first side has no contextual vectors")
    if not records_y:
        raise UnscorableSegment("second side has no contextual vectors")

    def parts(records):
        if weighting == "nnx":
            kept = list(records)
            weights = [1.0] * len(kept)
        else:
            kept, weights = [], []
            for record in records:
                w = vocab.idf(record.token)
                if w > 0:
                    kept.append(record)
                    weights.append(w)
        return kept, weights

    kx, wx = parts(records_x)
    ky, wy = parts(records_y)
    if not kx or not ky:
        raise UnscorableSegment("all occurrence weights are zero under nfx")
    ex = np.stack([r.vector for r in kx])
    ey = np.stack([r.vector for r in ky])
    return np.asarray(wx), np.asarray(wy), ex, ey


def transition_graph(pos_tags: list[str]) -> TransitionMatrix:
    """Count directed adjacent-tag transitions, then row-normalize."""
    if not pos_tags:
        raise ValueError("cannot build a transition graph from an empty tag list")
    tags: list[str] = []
    index: dict[str, int] = {}
    for tag in pos_tags:
        if tag not in index:
            index[tag] = len(tags)
            tags.append(tag)
    counts = np.zeros((len(tags), len(tags)))
    for a, b in zip(pos_tags, pos_tags[1:]):
        counts[index[a], index[b]] += 1.0
    sums = counts.sum(axis=1, keepdims=True)
    probs = np.divide(counts, sums, out=np.zeros_like(counts), where=sums > 0)
    return TransitionMatrix(tags=tuple(tags), probs=probs)


def compositionality(x: TransitionMatrix, y: TransitionMatrix, full_matrix: bool = False) -> float:
    """l1 distance of self-transition probabilities over the union tag set.

    ``full_matrix`` switches to the l1 distance of the complete transition
    matrices instead of just their diagonals.
    """
    union = list(x.tags) + [t for t in y.tags if t not in x.tags]
    if not full_matrix:
        return math.fsum(abs(x.self_prob(t) - y.self_prob(t)) for t in union)
    return float(np.abs(_embed(x, union) - _embed(y, union)).sum())


def _embed(matrix: TransitionMatrix, union: list[str]) -> np.ndarray:
    out = np.zeros((len(union), len(union)))
    positions = [union.index(t) for t in matrix.tags]
    for a, pa in enumerate(positions):
        for b, pb in enumerate(positions):
            out[pa, pb] = matrix.probs[a, b]
    return out


def sentence_bleu(reference_tokens: list[str], hypothesis_tokens: list[str], max_n: int = 4) -> float:
    """Sentence BLEU: clipped n-gram precisions with add-one smoothing (n >= 2).

    Geometric mean of precisions for n = 1..max_n times the brevity penalty
    min(1, e^(1 - r/h)).  An empty hypothesis or zero unigram overlap is 0.
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    h = len(hypothesis_tokens)
    if h == 0:
        return 0.0
    r = len(reference_tokens)
    log_precisions = 0.0
    for n in range(1, max_n + 1):
        hyp_counts = Counter(_ngrams(hypothesis_tokens, n))
        ref_counts = Counter(_ngrams(reference_tokens, n))
        total = max(h - n + 1, 0)
        clipped = sum((hyp_counts & ref_counts).values())  # & keeps the smaller count
        if n == 1:
            if clipped == 0:
                return 0.0
            precision = clipped / total
        else:
            precision = (clipped + 1) / (total + 1)
        log_precisions += math.log(precision)
    brevity = min(1.0, math.exp(1.0 - r / h))
    return brevity * math.exp(log_precisions / max_n)


def _ngrams(tokens: list[str], n: int):
    return zip(*(tokens[i:] for i in range(n)))


def reg_base_features(segment: Segment, resources: Resources, mode: str, lowercase: bool = False) -> np.ndarray:
    """Four surface features: character lengths and WordPiece counts.

    Order matches REG_BASE_FEATURES: anchor chars, hypothesis chars, anchor
    piece count, hypothesis piece count, where the anchor is the reference
    (reference_based) or the source (source_based).  Pieces come from
    ``resources.wp_vocab``, through the run's tokenization memo.
    """
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}")
    if mode == "reference_based":
        if segment.reference is None:
            raise DataError(f"segment {segment.id!r} has no reference but mode is reference_based")
        anchor = segment.reference
    else:
        anchor = segment.source
    hyp = segment.hypothesis
    return np.array(
        [
            float(len(anchor)),
            float(len(hyp)),
            float(len(resources.tokens("pieces", anchor, lowercase))),
            float(len(resources.tokens("pieces", hyp, lowercase))),
        ]
    )


def compute_placeholders(vectors: list[MetricVector], metric_names: list[str]) -> dict[str, float]:
    """Worst observed value per metric, for substituting unscorable segments.

    "Worst" follows the metric's direction: the minimum for
    higher-is-better metrics, the maximum for distances.  Metrics with no
    scorable segment at all fall back to 0.0.
    """
    placeholders: dict[str, float] = {}
    for name in metric_names:
        observed = [v.scores[name] for v in vectors if not math.isnan(v.scores[name])]
        if not observed:
            placeholders[name] = 0.0
        elif METRICS[name].higher_is_better:
            placeholders[name] = min(observed)
        else:
            placeholders[name] = max(observed)
    return placeholders


def score_segments(segments: list[Segment], config: MetricConfig, resources: Resources) -> list[MetricVector]:
    """Compute every enabled metric for each segment, in segment order.

    Unscorable metrics score NaN and carry a flag naming the reason;
    resource completeness is the caller's responsibility (`build_resources`
    checks it for a run).  The WMD metrics collect each segment's transport
    problem left after pre-matching; a solve_transport_batch call solves the
    pending ones whenever they reach CHUNK_CELLS cells, and at the end.
    """
    vectors = []
    pending, cells = [], 0  # (scores of one segment, metric, transport problem); their cost cells
    for count, segment in enumerate(segments, start=1):
        scores: dict[str, float] = {}
        flags: dict[str, str] = {}
        anchor_text = getattr(segment, config.anchor_side)
        if anchor_text is None:
            raise DataError(f"segment {segment.id!r} has no reference but mode is reference_based")
        for name in config.metrics:
            try:
                value, flag = _compute_metric(name, segment, anchor_text, config, resources)
                if flag is not None:
                    flags[name] = flag
            except UnscorableSegment as exc:
                flags[name] = str(exc)
                value = float("nan")
            if isinstance(value, tuple):
                pending.append((scores, name, value))
                cells += value[2].size
                value = float("nan")
            scores[name] = value
        vectors.append(MetricVector(segment_id=segment.id, scores=scores, flags=flags))
        if cells >= CHUNK_CELLS or count == len(segments):
            for (scores, name, _), solution in zip(pending, solve_transport_batch([p for _, _, p in pending])):
                scores[name] = solution.cost
            pending, cells = [], 0
    return vectors


def score_segment(segment: Segment, config: MetricConfig, resources: Resources) -> MetricVector:
    """`score_segments` for one segment."""
    return score_segments([segment], config, resources)[0]


def _compute_metric(
    name: str, segment: Segment, anchor_text: str, config: MetricConfig, resources: Resources
) -> tuple[float | tuple, str | None]:
    """One metric's score and flag; a WMD score is its unsolved transport problem."""
    info = METRICS[name]
    if info.family == "bleu":
        return (
            sentence_bleu(
                resources.tokens("words", anchor_text, config.lowercase),
                resources.tokens("words", segment.hypothesis, config.lowercase),
            ),
            None,
        )
    if info.family == "compositionality":
        anchor_tags = getattr(segment, f"pos_{config.anchor_side}")
        if anchor_tags is None or segment.pos_hypothesis is None:
            raise UnscorableSegment("missing PoS tags")
        value = compositionality(
            transition_graph(list(anchor_tags)),
            transition_graph(list(segment.pos_hypothesis)),
            full_matrix=config.compositionality_full_matrix,
        )
        return value, None
    if info.space == "contextual":
        groups = resources.contextual_groups or {}
        rx = groups.get((segment.id, config.anchor_side), [])
        ry = groups.get((segment.id, "hypothesis"), [])
        return _transport_problem(*_contextual_sides(rx, ry, info.weighting, resources.vocabs.get(info.space))), None

    # remaining metrics are bag-of-words over static (words) or decontextualized (pieces) vectors
    x = resources.bag(info.space, info.weighting, anchor_text, config.lowercase)
    y = resources.bag(info.space, info.weighting, segment.hypothesis, config.lowercase)
    if info.family == "scm":
        if x.is_zero() or y.is_zero():
            return 0.0, EMPTY_BOW_FLAG
        return scm(x, y, resources.sims[info.similarity_key]), None
    return _transport_problem(*_wmd_sides(x, y, resources.stores[info.space], resources.vocabs[info.space])), None
