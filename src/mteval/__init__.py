"""Segment-level machine-translation quality metrics and regressive ensembles.

The library computes surface metrics (sentence BLEU, length features),
embedding metrics (soft cosine measure, word mover's distance over static,
decontextualized, or contextual token vectors), and a part-of-speech
transition metric, then ensembles them with a trained regressor (RegEMT)
and evaluates everything by Spearman correlation to segment-level
judgements, including cross-lingual transfer and correlation-driven
ablation.
"""

__version__ = "0.1.0"
