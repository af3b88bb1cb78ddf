"""Tour of the segment-level metrics on one hand-sized example.

Walks a reference/hypothesis pair through the surface and static-embedding
metrics, printing the intermediate objects the scores are made of: document
frequencies, the two SMART weightings, the nonzero entries of the sparse
term-similarity matrix, and the optimal transport plan behind the word
mover's distance.

Run:  python3 demos/metrics_tour.py
"""

from collections import Counter
from pathlib import Path

import numpy as np

from mteval.embeddings import load_static
from mteval.flow import solve_transport
from mteval.metrics import compositionality, scm, sentence_bleu, wmd
from mteval.vsm import bow_nfx, bow_nnx, build_similarity_matrix, build_vocabulary

DATA = Path(__file__).parent / "data"

REFERENCE = "the dog runs"
HYPOTHESIS = "a cat sleeps"

# a few neighbour sentences so document frequencies are not all 1
CORPUS = [
    REFERENCE.split(),
    HYPOTHESIS.split(),
    "the bird flies high".split(),
    "the man drinks coffee".split(),
    "we eat the bread".split(),
]


def show_bow(label, bow, vocab):
    cells = ", ".join(f"{vocab.terms[i]}={w:.3f}" for i, w in sorted(bow.entries.items()))
    print(f"  {label}: {{{cells}}}")


def main():
    vocab = build_vocabulary(CORPUS)
    store = load_static(DATA / "vectors.txt", vocab.index)  # only the vocabulary's vectors are parsed

    print(f"reference : {REFERENCE!r}")
    print(f"hypothesis: {HYPOTHESIS!r}")
    print(f"vocabulary: {len(vocab)} terms over {vocab.n_docs} documents")

    print("\n1. SMART weightings (nnx = raw counts, nfx = tf x ln(n_docs/df))")
    for term in ("the", "dog", "sleeps"):
        print(f"  df({term}) = {vocab.df[term]}, idf({term}) = {vocab.idf(term):.4f}")
    ref_nnx = bow_nnx(REFERENCE.split(), vocab)
    hyp_nnx = bow_nnx(HYPOTHESIS.split(), vocab)
    show_bow("reference nnx", ref_nnx, vocab)
    show_bow("reference nfx", bow_nfx(REFERENCE.split(), vocab), vocab)
    show_bow("hypothesis nnx", hyp_nnx, vocab)

    print("\n2. sparse term-similarity matrix (threshold 0.1, exponent 2, per-term budget)")
    matrix = build_similarity_matrix(vocab, store)
    shown = 0
    for i in range(len(vocab)):
        for j in range(i + 1, len(vocab)):
            entry = matrix.entry(i, j)
            if entry > 0.5 and shown < 8:
                print(f"  S[{vocab.terms[i]}, {vocab.terms[j]}] = {entry:.4f}")
                shown += 1
    print(f"  ({matrix.nnz_off_diagonal()} off-diagonal entries kept in total)")

    print("\n3. soft cosine measure: cosine through S instead of the identity")
    value = scm(ref_nnx, hyp_nnx, matrix)
    print(f"  scm(reference, hypothesis) = {value:.4f}")
    print(f"  scm(reference, reference)  = {scm(ref_nnx, ref_nnx, matrix):.4f}  (identical bags are exactly 1)")

    print("\n4. word mover's distance: cheapest transport of word mass")
    distance = wmd(ref_nnx, hyp_nnx, store, vocab)
    print(f"  wmd(reference, hypothesis) = {distance:.4f}")
    ref_tokens = REFERENCE.split()
    hyp_tokens = HYPOTHESIS.split()
    supplies = np.full(len(ref_tokens), 1.0 / len(ref_tokens))
    demands = np.full(len(hyp_tokens), 1.0 / len(hyp_tokens))
    costs = np.array(
        [[float(np.linalg.norm(store[r] - store[h])) for h in hyp_tokens] for r in ref_tokens]
    )
    plan = solve_transport(supplies, demands, costs)
    print(f"  the plan behind it (cost {plan.cost:.4f}):")
    for (i, j), mass in sorted(plan.flows.items()):
        print(f"    move {mass:.3f} of {ref_tokens[i]!r} -> {hyp_tokens[j]!r} at distance {costs[i, j]:.3f}")

    print("\n5. sentence BLEU: clipped n-gram precisions, smoothed above n=1")
    for hyp in (REFERENCE, "the dog sleeps", "the the the"):
        print(f"  bleu(ref, {hyp!r}) = {sentence_bleu(REFERENCE.split(), hyp.split()):.4f}")

    print("\n6. compositionality: l1 gap between PoS self-transition profiles")
    ref_tags = ["DET", "NOUN", "VERB", "DET", "NOUN"]
    hyp_tags = ["DET", "NOUN", "NOUN", "VERB"]
    for label, tags in (("reference", ref_tags), ("hypothesis", hyp_tags)):
        # count of t -> t over t's transitions out; a tag with none out has no repeat either
        repeats, out = Counter(a for a, b in zip(tags, tags[1:]) if a == b), Counter(tags[:-1])
        diag = ", ".join(f"{t}={repeats[t] / max(out[t], 1):.2f}" for t in dict.fromkeys(tags))
        print(f"  {label} self-transitions: {diag}")
    print(f"  compositionality = {compositionality(ref_tags, hyp_tags):.4f}")


if __name__ == "__main__":
    main()
