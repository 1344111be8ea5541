"""Corpus-level evaluation: 4-gram BLEU.

BLEU is case-sensitive over whitespace tokens with brevity penalty.  At toy
scale, higher-order n-gram matches can vanish entirely, so precisions for
n >= 2 get add-one smoothing when their match count is zero; unigram
precision is never smoothed (an empty or fully wrong hypothesis set scores
zero, as it should).
"""

from __future__ import annotations

import math

MAX_N = 4


def _ngram_counts(tokens: list, n: int) -> dict:
    counts = {}
    for i in range(len(tokens) - n + 1):
        gram = tuple(tokens[i:i + n])
        counts[gram] = counts.get(gram, 0) + 1
    return counts


def corpus_bleu(hypotheses: list, references: list) -> float:
    """4-gram corpus BLEU x 100 with brevity penalty.

    Args:
        hypotheses: system outputs, one string per segment.
        references: aligned references, same count.

    Returns:
        BLEU percentage in [0, 100]; identical corpora give exactly 100.0.
    """
    if len(hypotheses) != len(references):
        raise ValueError(f"{len(hypotheses)} hypotheses vs "
                         f"{len(references)} references")
    if not hypotheses:
        raise ValueError("BLEU needs at least one segment")
    matches = [0] * MAX_N
    totals = [0] * MAX_N
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        h = hyp.split()
        r = ref.split()
        hyp_len += len(h)
        ref_len += len(r)
        for n in range(1, MAX_N + 1):
            h_counts = _ngram_counts(h, n)
            r_counts = _ngram_counts(r, n)
            totals[n - 1] += max(len(h) - n + 1, 0)
            matches[n - 1] += sum(min(c, r_counts.get(g, 0))
                                  for g, c in h_counts.items())
    if hyp_len == 0 or matches[0] == 0:
        return 0.0
    log_precision = 0.0
    for n in range(1, MAX_N + 1):
        m, t = matches[n - 1], totals[n - 1]
        if n >= 2 and m == 0:
            m, t = m + 1, t + 1
        log_precision += math.log(m / t) / MAX_N
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * bp * math.exp(log_precision)
