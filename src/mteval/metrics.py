"""Segment-level translation quality metrics.

Implements the soft cosine measure and word mover's distance over static,
decontextualized, and contextual token vectors (with raw-tf and tf-idf
weightings), a part-of-speech transition metric, sentence BLEU, and the
four surface length features behind the Reg-base baseline.  `score_segments`
dispatches all of them for a list of segments under a `MetricConfig`, and
solves every segment's WMD transport problem in one batch.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from typing import Sequence

import numpy as np

from mteval.corpus import Segment
from mteval.embeddings import ContextualTable
from mteval.errors import ConfigError, DataError, Frozen
from mteval.flow import CHUNK_CELLS, solve_transport, solve_transport_batch
from mteval.tokenization import WordPieceVocab, whitespace_tokenize, wordpiece_tokenize
from mteval.vsm import (
    DEFAULT_EXPONENT, DEFAULT_THRESHOLD, DEFAULT_TOP_K, SimilarityMatrix, Vocabulary, WeightedBow, bow_nfx, bow_nnx
)

__all__ = [
    "EMPTY_BOW_FLAG",
    "METRICS",
    "MetricConfig",
    "MetricInfo",
    "MetricVector",
    "REG_BASE_FEATURES",
    "Resources",
    "UnscorableSegment",
    "compositionality",
    "compute_placeholders",
    "reg_base_features",
    "scm",
    "score_segment",
    "score_segments",
    "sentence_bleu",
    "wmd",
    "wmd_contextual",
]

logger = logging.getLogger(__name__)

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


class MetricInfo(Frozen):
    """Static facts about one registered metric; the rest follows from them.

    ``family`` is scm, wmd, bleu or compositionality; ``space`` words (static),
    pieces (decontextualized), contextual or none; ``weighting`` nnx (raw tf)
    or nfx (tf-idf).
    """

    def __init__(self, family: str, space: str = "none", weighting: str = "nnx"):
        self._set(locals())

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


class MetricConfig(Frozen):
    """Which metrics to compute and how.

    source_based mode admits only metrics that stay meaningful across
    languages: the decontextualized and contextual variants,
    compositionality, and the Reg-base surface features.  Static-embedding
    SCM/WMD and BLEU compare the hypothesis to a same-language reference
    and are rejected there.
    """

    def __init__(
        self, mode: str, metrics: tuple[str, ...], reg_base: bool = True, lowercase: bool = False,
        compositionality_full_matrix: bool = False, similarity_threshold: float = DEFAULT_THRESHOLD,
        similarity_exponent: float = DEFAULT_EXPONENT, similarity_top_k: int = DEFAULT_TOP_K,
    ):
        self._set(locals())
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


class MetricVector:
    """All configured metric scores of one segment.

    ``flags`` records, per metric, why a score is degenerate: either the
    empty-bag-of-words zero or an unscorable segment that received the
    placeholder value.
    """

    def __init__(self, segment_id: str, scores: dict[str, float], flags: dict[str, str] | None = None):
        self.segment_id, self.scores, self.flags = segment_id, scores, {} if flags is None else flags


class Resources:
    """Loaded artifacts the configured metrics draw on.

    ``vocabs``, ``stores`` and ``sims`` are keyed by term space: "words"
    (whitespace tokens + static vectors), "pieces" (WordPiece tokens +
    decontextualized vectors) and, for ``vocabs`` only, "contextual"
    (document frequencies of token strings over the ``contextual`` table,
    one document per (segment, side) group).  ``sims`` adds the processing
    order, "vocabulary" or "idf_descending", to its key.

    ``lowercase`` is the run's case folding.  `tokens` and `bag` fold each
    side text by it and memoize per folded text, so the vocabulary build, the
    metrics and the Reg-base features tokenize each distinct side once and
    bag it once per (term space, weighting).  The same memo holds an anchor
    side's soft norm per similarity matrix and its BLEU n-gram counts, so
    the hypotheses that share an anchor compute them once.
    """

    def __init__(
        self, wp_vocab: WordPieceVocab | None = None,
        contextual: ContextualTable | None = None,
        vocabs: dict[str, Vocabulary] | None = None, stores: dict[str, dict[str, np.ndarray]] | None = None,
        sims: dict[tuple[str, str], SimilarityMatrix] | None = None, external: dict[str, dict[str, float]] | None = None,
        lowercase: bool = False,
    ):
        self.wp_vocab, self.contextual, self.lowercase = wp_vocab, contextual, lowercase
        self.vocabs = {} if vocabs is None else vocabs
        self.stores = {} if stores is None else stores
        self.sims = {} if sims is None else sims
        self.external = {} if external is None else external
        self._memo: dict[tuple[str, ...], object] = {}

    def tokens(self, space: str, text: str) -> list[str]:
        """Whitespace ("words") or WordPiece ("pieces") tokens of one side text."""
        text = text.lower() if self.lowercase else text
        if space == "words":
            return self._memoized((space, text), lambda: whitespace_tokenize(text))
        return self._memoized((space, text), lambda: wordpiece_tokenize(text, self.wp_vocab))

    def bag(self, space: str, weighting: str, text: str) -> WeightedBow:
        """nnx or nfx bag of one side text over the term space's vocabulary."""
        text = text.lower() if self.lowercase else text
        make_bow = bow_nfx if weighting == "nfx" else bow_nnx
        return self._memoized((space, weighting, text), lambda: make_bow(self.tokens(space, text), self.vocabs[space]))

    def _memoized(self, key: tuple[str, ...], compute):
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = compute()
        return value


def scm(x: WeightedBow, y: WeightedBow, matrix: SimilarityMatrix, x_norm: float | None = None) -> float:
    """Soft cosine measure x^T S y / (sqrt(x^T S x) * sqrt(y^T S y)).

    An empty side yields the defined score 0.0 (the caller flags it); equal
    bags short-circuit to exactly 1.0.  ``x_norm`` is sqrt(x^T S x) when the
    caller already holds it, as for an anchor side shared by several
    hypotheses.
    """
    if x.is_zero() or y.is_zero():
        return 0.0
    if x.entries == y.entries:
        return 1.0
    num = _soft_quadratic(x, y, matrix)
    if x_norm is None:
        x_norm = _soft_norm(x, matrix)
    denom = x_norm * _soft_norm(y, matrix)
    if denom <= 0.0:
        return 0.0
    return num / denom


def _soft_norm(x: WeightedBow, matrix: SimilarityMatrix) -> float:
    """sqrt(x^T S x), the soft length of one bag."""
    return math.sqrt(_soft_quadratic(x, x, matrix))


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


def wmd(x: WeightedBow, y: WeightedBow, store: dict[str, np.ndarray], vocab: Vocabulary) -> float:
    """Word mover's distance: exact optimum of the transportation problem.

    Both sides are l1-normalized after dropping zero-weight terms and terms
    without an embedding; pairwise Euclidean distances between term vectors
    are the transport costs.
    """
    (tx, ex), (ty, ey) = _embedded(x, store, vocab), _embedded(y, store, vocab)
    return _transport_cost(_weights(x, tx, "first"), _weights(y, ty, "second"), ex, ey)


def _embedded(bow: WeightedBow, store: dict[str, np.ndarray], vocab: Vocabulary):
    """A bag's terms that have a vector, in index order, and their stacked vectors (nfx keeps nnx's terms)."""
    terms = [i for i in sorted(bow.entries) if vocab.terms[i] in store]
    return terms, np.stack([store[vocab.terms[i]] for i in terms]) if terms else None


def _weights(bow: WeightedBow, terms: list[int], side: str) -> np.ndarray:
    """The bag's weights of ``terms``, zeros included; a side without a positive one is unscorable."""
    weights = np.array([bow.entries[i] for i in terms])
    if not (weights > 0).any():
        raise UnscorableSegment(f"{side} side has no embedded terms with positive weight")
    return weights


def _transport_cost(wx: np.ndarray, wy: np.ndarray, ex: np.ndarray, ey: np.ndarray) -> float:
    problem = _transport_problem(wx, wy, _costs(ex, ey))
    return problem if isinstance(problem, float) else solve_transport(*problem).cost


def _costs(ex: np.ndarray, ey: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of two vector stacks; each cell is its own sum over d."""
    if ex.shape[1] != ey.shape[1]:
        raise DataError(f"embedding dimensions differ between sides: {ex.shape[1]} vs {ey.shape[1]}")
    diff = ex[:, None, :] - ey[None, :, :]
    return np.sqrt(np.square(diff, out=diff).sum(axis=2))


def _transport_problem(wx: np.ndarray, wy: np.ndarray, costs: np.ndarray) -> float | tuple:
    """The (supplies, demands, costs) left to solve, or the cost 0.0 when all mass is pre-matched.

    ``wx`` and ``wy`` weight the rows and columns of ``costs``; those not
    positive ship nothing in the pre-match and drop out with the matched ones.
    """
    a = np.where(wx > 0, wx / wx[wx > 0].sum(), 0.0).tolist()  # summed as the positive weights alone: the same bits
    b = np.where(wy > 0, wy / wy[wy > 0].sum(), 0.0).tolist()
    # A zero Euclidean cost means identical vectors.  The cost is a metric,
    # so some optimal plan keeps all the mass the two sides share there
    # (Pele & Werman 2009); only the remainder needs the solver.  This
    # does not hold for the general costs solve_transport accepts.
    for i, j in np.argwhere(costs == 0.0).tolist():
        shared = min(a[i], b[j])
        a[i] -= shared
        b[j] -= shared
    a, b = np.array(a), np.array(b)
    rows, cols = a > 1e-14, b > 1e-14  # unit masses: what is left below is subtraction dust
    if not rows.any() or not cols.any():
        return 0.0
    return a[rows], b[cols], costs.compress(rows, 0).compress(cols, 1)


def wmd_contextual(x: tuple, y: tuple, weighting: str = "nnx", vocab: Vocabulary | None = None) -> float:
    """WMD with every token occurrence as its own flow node.

    ``x`` and ``y`` are sides, (tokens, vectors) as `ContextualTable.side_of`
    gives them: one vector row per token occurrence.  nnx weights each
    occurrence 1; nfx weights it by the idf of its token string (``vocab``
    required, built from the contextual table).
    """
    return _transport_cost(*_contextual_sides(x, y, weighting, vocab))


def _contextual_sides(x, y, weighting, vocab):
    """The weights of two sides' occurrences (zeros included) and their vector stacks."""
    if weighting not in ("nnx", "nfx"):
        raise ValueError(f"unknown weighting {weighting!r}")
    if weighting == "nfx" and vocab is None:
        raise ValueError("nfx weighting needs a vocabulary for idf")
    if not len(x[0]):
        raise UnscorableSegment("first side has no contextual vectors")
    if not len(y[0]):
        raise UnscorableSegment("second side has no contextual vectors")
    weights = ([1.0 if weighting == "nnx" else vocab.idf(token) for token in tokens] for tokens, _ in (x, y))
    wx, wy = map(np.array, weights)  # nnx is nfx with weight 1 for every occurrence
    if not (wx > 0).any() or not (wy > 0).any():
        raise UnscorableSegment("all occurrence weights are zero under nfx")
    return wx, wy, x[1], y[1]


def compositionality(x: Sequence[str], y: Sequence[str], full_matrix: bool = False) -> float:
    """l1 distance of two tag sequences' self-transition probabilities over the union tag set.

    A tag's self-transition probability is its count of ``t -> t`` transitions
    over its count of transitions out (0 with none).  ``full_matrix`` switches
    to the l1 distance of the complete transition matrices.
    """
    px, py = _transition_probs(x), _transition_probs(y)
    if full_matrix:
        # first-appearance order, x then y: numpy's pairwise sum rounds by position
        index = {tag: i for i, tag in enumerate(dict.fromkeys([*x, *y]))}
        dense = np.zeros((2, len(index), len(index)))
        for side, probs in enumerate((px, py)):
            for (a, b), p in probs.items():
                dense[side, index[a], index[b]] = p
        return float(np.abs(dense[0] - dense[1]).sum())
    # the tags neither side repeats add exact zeros, and fsum is exact in any order
    repeated = {a for a, b in [*px, *py] if a == b}
    return math.fsum(abs(px.get((t, t), 0.0) - py.get((t, t), 0.0)) for t in repeated)


def _transition_probs(tags: Sequence[str]) -> dict[tuple[str, str], float]:
    """count(a -> b) / count(transitions out of a) for each observed adjacent pair (a, b).

    An int / int quotient rounds exactly as numpy's division of the same counts as floats.
    """
    if not tags:
        raise ValueError("cannot count transitions in an empty tag list")
    out = Counter(tags[:-1])
    return {(a, b): n / out[a] for (a, b), n in Counter(zip(tags, tags[1:])).items()}


def sentence_bleu(reference_tokens: list[str], hypothesis_tokens: list[str], reference_counts: list[Counter] | None = None) -> float:
    """Sentence BLEU-4: clipped n-gram precisions with add-one smoothing (n >= 2).

    Geometric mean of precisions for n = 1..4 times the brevity penalty
    min(1, e^(1 - r/h)).  An empty hypothesis or zero unigram overlap is 0.
    ``reference_counts`` are the reference's `_ngram_counts` when the
    caller already holds them, as for an anchor shared by several
    hypotheses.
    """
    h = len(hypothesis_tokens)
    if h == 0:
        return 0.0
    r = len(reference_tokens)
    if reference_counts is None:
        reference_counts = _ngram_counts(reference_tokens)
    elif len(reference_counts) != 4:
        raise ValueError(f"reference_counts holds {len(reference_counts)} orders, BLEU-4 reads 4")
    log_precisions = 0.0
    for n, ref_counts in enumerate(reference_counts, start=1):
        hyp_counts = Counter(_ngrams(hypothesis_tokens, n))
        total = max(h - n + 1, 0)
        clipped = sum([min(count, ref_counts[gram]) for gram, count in hyp_counts.items() if gram in ref_counts])
        if n == 1:
            if clipped == 0:
                return 0.0
            precision = clipped / total
        else:
            precision = (clipped + 1) / (total + 1)
        log_precisions += math.log(precision)
    brevity = min(1.0, math.exp(1.0 - r / h))
    return brevity * math.exp(log_precisions / 4)


def _ngram_counts(tokens: list[str]) -> list[Counter]:
    """The n-gram counts of a token list for n = 1..4, as `sentence_bleu` reads them."""
    return [Counter(_ngrams(tokens, n)) for n in range(1, 5)]


def _ngrams(tokens: list[str], n: int):
    return zip(*(tokens[i:] for i in range(n)))


def reg_base_features(segment: Segment, resources: Resources, config: MetricConfig) -> np.ndarray:
    """Four surface features: character lengths and WordPiece counts.

    Order matches REG_BASE_FEATURES: anchor chars, hypothesis chars, anchor
    piece count, hypothesis piece count, where the anchor is the reference
    (reference_based) or the source (source_based).  Pieces come from
    ``resources.wp_vocab``, through the run's tokenization memo, with the
    resources' case folding.
    """
    anchor, hyp = _anchor_text(segment, config), segment.hypothesis
    return np.array(
        [
            float(len(anchor)),
            float(len(hyp)),
            float(len(resources.tokens("pieces", anchor))),
            float(len(resources.tokens("pieces", hyp))),
        ]
    )


def _anchor_text(segment: Segment, config: MetricConfig) -> str:
    """The text the hypothesis is compared with under the config's mode: the reference or the source."""
    anchor = getattr(segment, config.anchor_side)
    if anchor is None:
        raise DataError(f"segment {segment.id!r} has no reference but mode is reference_based")
    return anchor


def compute_placeholders(vectors: list[MetricVector], metric_names: list[str]) -> dict[str, float]:
    """Worst observed value per metric, for substituting unscorable segments.

    "Worst" follows the metric's direction: the minimum for
    higher-is-better metrics, the maximum for distances.  Metrics with no
    scorable segment at all fall back to 0.0.
    """
    placeholders: dict[str, float] = {}
    for name in metric_names:
        observed = [v.scores[name] for v in vectors if not math.isnan(v.scores[name])]
        placeholders[name] = (min if METRICS[name].higher_is_better else max)(observed, default=0.0)
    return placeholders


def score_segments(segments: list[Segment], config: MetricConfig, resources: Resources) -> list[MetricVector]:
    """Compute every enabled metric for each segment, in segment order.

    Unscorable metrics score NaN and carry a flag naming the reason;
    resource completeness is the caller's responsibility (`build_resources`
    checks it for a run).  The WMD metrics collect each segment's transport
    problem left after pre-matching; a solve_transport_batch call solves the
    pending ones whenever they reach CHUNK_CELLS cells, and at the end.
    State of an anchor side that several segments share (its soft norms, its
    n-gram counts) is computed once per ``resources``.  Logs one INFO line
    with the segments, their distinct anchor sides and the flags per metric.
    """
    vectors, anchors = [], set()
    pending, cells = [], 0  # (scores of one segment, metric, transport problem); their cost cells
    for count, segment in enumerate(segments, start=1):
        scores, flags, shared = {}, {}, {}
        anchor_text = _anchor_text(segment, config)
        anchors.add(anchor_text)
        for name in config.metrics:
            try:
                value, flag = _compute_metric(name, segment, anchor_text, config, resources, shared)
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
    flagged = ", ".join(f"{name} {sum(name in v.flags for v in vectors)}" for name in config.metrics)
    logger.info(
        "scoring: %d segments, %d distinct %s sides, flagged segments: %s",
        len(segments), len(anchors), config.anchor_side, flagged or "no metrics",
    )
    return vectors


def score_segment(segment: Segment, config: MetricConfig, resources: Resources) -> MetricVector:
    """`score_segments` for one segment."""
    return score_segments([segment], config, resources)[0]


def _compute_metric(
    name: str, segment: Segment, anchor_text: str, config: MetricConfig, resources: Resources, shared: dict
) -> tuple[float | tuple, str | None]:
    """One metric's score and flag; a WMD score is its unsolved transport problem.

    ``shared`` is the segment's memo of what its WMD metrics share.
    """
    info = METRICS[name]
    if info.family == "bleu":
        reference = resources.tokens("words", anchor_text)
        counts = resources._memoized(("ngrams", anchor_text), lambda: _ngram_counts(reference))
        return sentence_bleu(reference, resources.tokens("words", segment.hypothesis), reference_counts=counts), None
    if info.family == "compositionality":
        anchor_tags = getattr(segment, f"pos_{config.anchor_side}")
        if anchor_tags is None or segment.pos_hypothesis is None:
            raise UnscorableSegment("missing PoS tags")
        return compositionality(anchor_tags, segment.pos_hypothesis, full_matrix=config.compositionality_full_matrix), None
    if info.space == "contextual":
        x, y = (resources.contextual.side_of(segment.id, side) for side in (config.anchor_side, "hypothesis"))
        wx, wy, ex, ey = _contextual_sides(x, y, info.weighting, resources.vocabs.get(info.space))
    else:  # bags of words over static (words) or decontextualized (pieces) vectors
        x = resources.bag(info.space, info.weighting, anchor_text)
        y = resources.bag(info.space, info.weighting, segment.hypothesis)
        if info.family == "scm":
            if x.is_zero() or y.is_zero():
                return 0.0, EMPTY_BOW_FLAG
            matrix = resources.sims[info.similarity_key]
            x_norm = resources._memoized(("soft_norm", *info.similarity_key, anchor_text), lambda: _soft_norm(x, matrix))
            return scm(x, y, matrix, x_norm), None
        # an anchor side's embedded terms are kept once per run, the hypothesis side's once per segment
        store, vocab = resources.stores[info.space], resources.vocabs[info.space]
        tx, ex = resources._memoized(("embedded", info.space, anchor_text), lambda: _embedded(x, store, vocab))
        ty, ey = shared[info.space, "hypothesis"] = shared.get((info.space, "hypothesis")) or _embedded(y, store, vocab)
        wx, wy = _weights(x, tx, "first"), _weights(y, ty, "second")
    # Both weightings of a term space share the segment's cost matrix: nfx
    # drops only zero-idf terms, so its problem takes a sub-block of the same bits.
    if info.space not in shared:
        shared[info.space] = _costs(ex, ey)
    return _transport_problem(wx, wy, shared[info.space]), None
