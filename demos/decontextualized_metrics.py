"""From per-occurrence vectors to metrics that work across languages.

Contextual encoders give every token occurrence its own vector.  Averaging
those per token string ("decontextualization") yields a static lookup table
that the soft cosine measure can use, while the word mover's distance can
also skip the averaging and move mass between the occurrences themselves.

The records here are simulated: a base vector per token plus a small,
deterministic context shift.  A real run would read them from a TSV dump
of an encoder (see mteval.embeddings.load_contextual for the format).

Run:  python3 demos/decontextualized_metrics.py
"""

import numpy as np

from mteval.embeddings import ContextualTable, decontextualize
from mteval.metrics import scm, wmd_contextual
from mteval.vsm import bow_nnx, build_similarity_matrix, build_vocabulary

BASES = {
    "the": [0.05, 0.02, 0.10, 0.98],
    "bank": [0.50, 0.50, 0.50, 0.05],  # a homonym: context pulls it apart
    "river": [0.25, 0.10, 0.85, 0.03],
    "money": [0.15, 0.12, 0.90, 0.02],
    "is": [0.11, 0.30, 0.03, 0.92],
    "steep": [0.07, 0.45, 0.15, 0.20],
    "closed": [0.06, 0.48, 0.12, 0.22],
}


def record(segment, side, index, token, shift):
    """One row of a records file: (segment_id, side, token_index, token, vector)."""
    return segment, side, index, token, np.array(BASES[token]) + np.array(shift)


def sentence_records(segment, side, tokens, shift):
    return [record(segment, side, i, tok, shift) for i, tok in enumerate(tokens)]


def table(records):
    """The records as load_contextual holds them, read from lines 2, 3, ... of a file under its header line."""
    segment_id, side, token_index, token, vectors = zip(*records)
    return ContextualTable(np.array(vectors), segment_id, side, token_index, token, range(2, len(records) + 2))


def main():
    print("1. decontextualization averages all occurrences of a token string")
    river_bank = record("s1", "reference", 1, "bank", [0.2, 0.0, 0.3, 0.0])
    money_bank = record("s2", "reference", 1, "bank", [-0.2, 0.0, -0.3, 0.0])
    store = decontextualize(table([river_bank, money_bank]))
    print(f"  'bank' near a river : {np.round(river_bank[4], 3)}")
    print(f"  'bank' near money   : {np.round(money_bank[4], 3)}")
    print(f"  decontextualized    : {np.round(store['bank'], 3)}  (the per-token mean)")

    # two segments sharing tokens, as an encoder would emit them
    ref_tokens = ["the", "river", "bank", "is", "steep"]
    hyp_tokens = ["the", "bank", "is", "closed"]
    ref_records = sentence_records("s3", "reference", ref_tokens, [0.02, 0.0, 0.01, 0.0])
    hyp_records = sentence_records("s3", "hypothesis", hyp_tokens, [-0.02, 0.0, -0.01, 0.0])
    everything = table([river_bank, money_bank] + ref_records + hyp_records)

    print("\n2. soft cosine over the decontextualized table")
    store = decontextualize(everything)
    # one document per (segment, side) group, as the pipeline builds it
    documents = [ref_tokens, hyp_tokens, ["bank"], ["bank"]]
    vocab = build_vocabulary(documents)
    matrix = build_similarity_matrix(vocab, store)
    value = scm(bow_nnx(ref_tokens, vocab), bow_nnx(hyp_tokens, vocab), matrix)
    print(f"  scm_decontextualized({' '.join(ref_tokens)!r}, {' '.join(hyp_tokens)!r}) = {value:.4f}")

    print("\n3. occurrence-level word mover's distance (no averaging at all)")
    # a side is its tokens and their vectors, in token_index order
    ref_side, hyp_side = everything.side_of("s3", "reference"), everything.side_of("s3", "hypothesis")
    plain = wmd_contextual(ref_side, hyp_side, weighting="nnx")
    print(f"  every occurrence weighs 1        : {plain:.4f}")
    weighted = wmd_contextual(ref_side, hyp_side, weighting="nfx", vocab=vocab)
    print(f"  occurrences weighted by token idf: {weighted:.4f}")
    print("  ('the' and 'is' appear in both groups, so idf down-weights them;")
    print("   content words dominate the weighted distance)")


if __name__ == "__main__":
    main()
