"""Inference: beam search with length normalization, model ensembling, and
greedy CTC collapse for encoder diagnostics.

Every beam step feeds the newest token of all live hypotheses to each
model as one (rows, 1) batch through that model's decoder cache, combines
the (K, rows, V) log-probs with `ensemble_log_prob` (a single model is the
K = 1 case), keeps the top `beam` extensions by cumulative log-probability,
and retires hypotheses that emit eos into a finished pool ranked by
normalized score.  The caches are then reordered to the surviving
hypotheses' parents.  Tie-breaking is fully specified (score, then smaller
token id, then parent rank) so decoding is reproducible to the token.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import EncoderOutput, SpeechTranslator
from .tensor import Tensor, no_grad
from .text import BLANK_ID, BOS_ID, EOS_ID


@dataclass
class DecodeConfig:
    beam: int = 5
    lennorm_beta: float = 1.0
    max_len_factor: float = 1.0
    extra_len: int = 10

    def __post_init__(self):
        if self.beam < 1:
            raise ValueError(f"beam must be >= 1, got {self.beam}")
        if self.lennorm_beta < 0:
            raise ValueError(f"lennorm_beta must be >= 0, got {self.lennorm_beta}")
        if self.max_len_factor <= 0:
            raise ValueError(f"max_len_factor must be > 0, got {self.max_len_factor}")
        if self.extra_len < 0:
            raise ValueError(f"extra_len must be >= 0, got {self.extra_len}")


@dataclass
class Hypothesis:
    tokens: list                  # starts with bos; ends with eos when finished
    logprob: float = 0.0
    finished: bool = False
    norm_score: float = 0.0

    @property
    def generated(self) -> int:
        return len(self.tokens) - 1


def length_normalize(logprob: float, length: int, beta: float) -> float:
    """norm_score = logprob / length**beta."""
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    return logprob / length ** beta


def ensemble_log_prob(rows) -> np.ndarray:
    """Combine K per-model log-prob arrays, stacked on axis 0 as (K, V) or
    (K, rows, V), by averaging probabilities in log space:
    log((1/K) sum_k exp(row_k)), max-shifted for stability.

    Identical rows come back exactly (the shifted exponent is exp(0)), so an
    ensemble of one checkpoint repeated K times decodes identically to the
    single model.
    """
    if isinstance(rows, (list, tuple)):
        sizes = {np.asarray(r).shape for r in rows}
        if len(sizes) > 1:
            raise ValueError(f"ensemble rows disagree on vocabulary size: "
                             f"{sorted(sizes)}")
    mat = np.asarray(rows, dtype=np.float64)
    if mat.ndim not in (2, 3) or mat.shape[0] < 1:
        raise ValueError(f"expected K rows over one vocabulary, got shape {mat.shape}")
    m = mat.max(axis=0)
    return m + np.log(np.exp(mat - m).mean(axis=0))


def _step(models, caches, tokens: list) -> np.ndarray:
    """Feed each live hypothesis's newest token to every model at once and
    return the (rows, V) ensemble log-probs of the token after it."""
    ids = np.array(tokens, dtype=np.intp)[:, None]
    return ensemble_log_prob([
        model.decoder_step(enc, ids, cache).log_softmax(axis=-1).data
        for (model, enc), cache in zip(models, caches)])


def _best_candidates(scores: np.ndarray, k: int):
    """The k best (rows, V) candidates as (parent rank, token) arrays,
    ordered by score, then token id, then parent rank."""
    flat = scores.reshape(-1)
    k = min(k, flat.size)
    kth = flat[np.argpartition(-flat, k - 1)[k - 1]]
    near = np.flatnonzero(flat >= kth)
    ranks, tokens = np.divmod(near, scores.shape[1])
    order = np.lexsort((ranks, tokens, -flat[near]))[:k]
    return ranks[order], tokens[order]


def beam_search(models: list, cfg: DecodeConfig) -> list:
    """Decode one utterance with an ensemble of (model, EncoderOutput) pairs.

    Returns finished hypotheses ranked by norm_score (best first).  The
    length cap is int(max_len_factor * T') + extra_len steps, T' being the
    first encoder output's length.  If it fires with nothing finished, the
    best unfinished hypothesis is returned alone, flagged finished=False.
    """
    if not models:
        raise ValueError("need at least one model")
    t_prime = models[0][1].out_lengths[0]
    max_len = int(cfg.max_len_factor * t_prime) + cfg.extra_len
    live = [Hypothesis([BOS_ID])]
    finished = []
    caches = [model.new_cache() for model, _ in models]
    with no_grad():
        for _ in range(max_len):
            if not live:
                break
            dist = _step(models, caches, [h.tokens[-1] for h in live])
            scores = np.array([h.logprob for h in live])[:, None] + dist
            next_live, parents = [], []
            for rank, token in zip(*_best_candidates(scores, cfg.beam)):
                hyp = Hypothesis(live[rank].tokens + [int(token)],
                                 scores[rank, token])
                if token == EOS_ID:
                    hyp.finished = True
                    hyp.norm_score = length_normalize(hyp.logprob, hyp.generated,
                                                      cfg.lennorm_beta)
                    finished.append(hyp)
                else:
                    next_live.append(hyp)
                    parents.append(rank)
            live = next_live
            if live:
                for cache in caches:
                    cache.reorder(parents)
    if finished:
        finished.sort(key=lambda h: (-h.norm_score, h.tokens))
        return finished
    best = max(live, key=lambda h: (h.logprob, [-t for t in h.tokens]))
    best.norm_score = length_normalize(best.logprob, max(best.generated, 1),
                                       cfg.lennorm_beta)
    return [best]


def ctc_greedy_decode(ctc_logits: np.ndarray) -> list:
    """Per-frame argmax of a (T, V) logit array, collapse consecutive
    repeats, drop blanks."""
    if ctc_logits.ndim != 2:
        raise ValueError(f"expected (T, V) logits, got shape {ctc_logits.shape}")
    best = ctc_logits.argmax(axis=-1)
    out = []
    prev = None
    for sym in best:
        if sym != prev and sym != BLANK_ID:
            out.append(int(sym))
        prev = sym
    return out


def encode_for_decoding(model: SpeechTranslator, features: np.ndarray) -> EncoderOutput:
    """Eval-mode encoder pass over one utterance's (T, 80) features."""
    with no_grad():
        return model.encode(Tensor(features[None, :, :]))
