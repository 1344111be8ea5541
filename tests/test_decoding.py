"""Tests for beam search, length normalization, ensembling, and CTC collapse.

`reference_beam_search` is the oracle for the cached, batched beam search:
it rescores every hypothesis's whole prefix teacher-forced, one hypothesis
at a time, and sorts every candidate in Python.
"""

import numpy as np
import pytest

from oracles import greedy_decode
from tinyst.decoding import (
    DecodeConfig,
    Hypothesis,
    beam_search,
    ctc_greedy_decode,
    encode_for_decoding,
    ensemble_log_prob,
    length_normalize,
)
from tinyst.model import EncoderOutput, ModelConfig, SpeechTranslator
from tinyst.rng import RngStream
from tinyst.tensor import Tensor, no_grad
from tinyst.text import BLANK_ID, BOS_ID, EOS_ID

V = 7  # pad, unk, bos, eos, blank, then content ids 5 ("a") and 6 ("b")
A, B = 5, 6


class ScriptedCache:
    """The step protocol's cache, scripted: one token list per row."""

    def __init__(self):
        self.prefixes = []

    def extend(self, tokens):
        new = [int(t) for t in tokens[:, 0]]
        self.prefixes = ([[t] for t in new] if not self.prefixes else
                         [p + [t] for p, t in zip(self.prefixes, new)])

    def reorder(self, parents):
        self.prefixes = [list(self.prefixes[r]) for r in parents]


class ScriptedModel:
    """Stand-in decoder: maps a prefix tuple to a probability row, and
    records the prefixes of the rows it was stepped with."""

    def __init__(self, table, default=None):
        self.table = table
        self.default = default if default is not None else np.full(V, 1.0 / V)
        self.stepped = []

    def new_cache(self):
        return ScriptedCache()

    def decoder_step(self, enc, tokens, cache):
        cache.extend(tokens)
        self.stepped.append([tuple(p) for p in cache.prefixes])
        probs = [self.table.get(tuple(p), self.default) for p in cache.prefixes]
        with np.errstate(divide="ignore"):
            return Tensor(np.log(np.asarray(probs, dtype=np.float64)))


def length_cap(models, cfg):
    """Beam search's length cap: int(max_len_factor * T') + extra_len."""
    return int(cfg.max_len_factor * models[0][1].out_lengths[0]) + cfg.extra_len


def reference_beam_search(models, cfg):
    """The prefix-recompute beam search: each live hypothesis's next-token
    row comes from a teacher-forced pass over its whole prefix, and every
    candidate is sorted by (score, token id, parent rank)."""
    live = [Hypothesis([BOS_ID])]
    finished = []
    with no_grad():
        for _ in range(length_cap(models, cfg)):
            if not live:
                break
            candidates = []
            for rank, hyp in enumerate(live):
                prefix = np.array([hyp.tokens])
                row = ensemble_log_prob([
                    model.decode_logits(enc, prefix)[:, -1]
                    .log_softmax(axis=-1).data[0] for model, enc in models])
                for token in range(row.shape[0]):
                    candidates.append((hyp.logprob + row[token], token, rank))
            candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
            next_live = []
            for score, token, rank in candidates[:cfg.beam]:
                hyp = Hypothesis(live[rank].tokens + [token], score)
                if token == EOS_ID:
                    hyp.finished = True
                    hyp.norm_score = length_normalize(score, hyp.generated,
                                                      cfg.lennorm_beta)
                    finished.append(hyp)
                else:
                    next_live.append(hyp)
            live = next_live
    if finished:
        finished.sort(key=lambda h: (-h.norm_score, h.tokens))
        return finished
    best = max(live, key=lambda h: (h.logprob, [-t for t in h.tokens]))
    best.norm_score = length_normalize(best.logprob, max(best.generated, 1),
                                       cfg.lennorm_beta)
    return [best]


def _probs(**kwargs):
    row = np.full(V, 1e-12)
    for key, value in kwargs.items():
        idx = {"a": A, "b": B, "eos": EOS_ID}[key]
        row[idx] = value
    return row


def _fake_enc(t_prime=6):
    return EncoderOutput(memory=None, ctc_logits=None, out_lengths=[t_prime])


class TestDecodeConfig:
    def test_defaults(self):
        cfg = DecodeConfig()
        assert cfg.beam == 5 and cfg.lennorm_beta == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            DecodeConfig(beam=0)
        with pytest.raises(ValueError):
            DecodeConfig(lennorm_beta=-0.1)
        with pytest.raises(ValueError):
            DecodeConfig(max_len_factor=0.0)

    def test_negative_extra_len_names_the_field(self):
        with pytest.raises(ValueError, match="extra_len"):
            DecodeConfig(extra_len=-1)
        assert DecodeConfig(extra_len=0).extra_len == 0


class TestLengthNormalize:
    def test_linear(self):
        assert length_normalize(-10.0, 5, 1.0) == pytest.approx(-2.0)

    def test_sqrt(self):
        assert length_normalize(-8.0, 4, 0.5) == pytest.approx(-4.0)

    def test_beta_zero_is_raw_score(self):
        assert length_normalize(-8.0, 17, 0.0) == -8.0

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            length_normalize(-1.0, 0, 1.0)


class TestEnsembleLogProb:
    def test_identical_rows_return_bitwise(self):
        row = RngStream(3).normal(size=9)
        row = row - np.log(np.exp(row).sum())
        stacked = np.stack([row] * 6)
        np.testing.assert_array_equal(ensemble_log_prob(stacked), row)

    def test_single_row_unchanged(self):
        row = RngStream(4).normal(size=5)
        np.testing.assert_array_equal(ensemble_log_prob(row[None, :]), row)

    def test_two_onehots_average_to_half(self):
        with np.errstate(divide="ignore"):
            rows = np.log(np.array([[1.0, 0.0], [0.0, 1.0]]))
        np.testing.assert_allclose(ensemble_log_prob(rows),
                                   np.log([0.5, 0.5]), rtol=0, atol=0)

    def test_result_is_a_distribution(self):
        rng = RngStream(5)
        for _ in range(20):
            rows = rng.normal(size=(3, 8))
            rows = rows - np.log(np.exp(rows).sum(axis=1, keepdims=True))
            combined = ensemble_log_prob(rows)
            m = combined.max()
            total = m + np.log(np.exp(combined - m).sum())
            assert abs(total) < 1e-12

    def test_permutation_invariant(self):
        rng = RngStream(6)
        rows = rng.normal(size=(4, 6))
        np.testing.assert_allclose(ensemble_log_prob(rows),
                                   ensemble_log_prob(rows[::-1]), rtol=1e-14)

    def test_vocab_mismatch_rejected(self):
        with pytest.raises(ValueError, match=r"vocabulary size: \[\(3,\), \(4,\)\]"):
            ensemble_log_prob([np.zeros(3), np.zeros(4)])

    def test_stack_over_rows_equals_each_row_bitwise(self):
        rng = RngStream(7)
        stack = rng.normal(size=(3, 4, 9))
        stack = stack - np.log(np.exp(stack).sum(axis=2, keepdims=True))
        stack[1, 2] = stack[0, 2]
        combined = ensemble_log_prob(stack)
        assert combined.shape == (4, 9)
        for r in range(4):
            np.testing.assert_array_equal(combined[r], ensemble_log_prob(stack[:, r]))
            np.testing.assert_array_equal(
                combined[r], ensemble_log_prob([stack[k, r] for k in range(3)]))


class TestCtcGreedyDecode:
    def test_collapse_and_blank_removal(self):
        path = [BLANK_ID, A, A, BLANK_ID, B, B, B, BLANK_ID, A]
        logits = np.full((len(path), V), -5.0)
        logits[np.arange(len(path)), path] = 5.0
        assert ctc_greedy_decode(logits) == [A, B, A]

    def test_repeat_needs_blank_between(self):
        path = [A, A, BLANK_ID, A]
        logits = np.full((len(path), V), -5.0)
        logits[np.arange(len(path)), path] = 5.0
        assert ctc_greedy_decode(logits) == [A, A]

    def test_all_blank_is_empty(self):
        logits = np.full((4, V), -5.0)
        logits[:, BLANK_ID] = 5.0
        assert ctc_greedy_decode(logits) == []

    def test_takes_one_utterance_of_a_batch(self):
        # The CLI passes row 0 of the encoder's (B, T, V) CTC logits.
        logits = np.full((2, 2, V), -5.0)
        logits[0, :, A] = 5.0
        logits[1, :, B] = 5.0
        assert ctc_greedy_decode(logits[0]) == [A]
        assert ctc_greedy_decode(logits[1]) == [B]

    def test_rank_checked(self):
        with pytest.raises(ValueError):
            ctc_greedy_decode(np.zeros((2, 3, 4)))


class TestBeamSearch:
    def test_two_way_ranking(self):
        # One content step with p(a) = 0.6, p(b) = 0.4, then certain eos:
        # both hypotheses finish and rank by normalized score.
        model = ScriptedModel({
            (BOS_ID,): _probs(a=0.6, b=0.4),
            (BOS_ID, A): _probs(eos=1.0),
            (BOS_ID, B): _probs(eos=1.0),
        })
        hyps = beam_search([(model, _fake_enc())], DecodeConfig(beam=2))
        assert [h.tokens for h in hyps] == [[BOS_ID, A, EOS_ID],
                                            [BOS_ID, B, EOS_ID]]
        assert hyps[0].norm_score == pytest.approx(np.log(0.6) / 2, abs=1e-9)
        assert hyps[1].norm_score == pytest.approx(np.log(0.4) / 2, abs=1e-9)
        assert all(h.finished for h in hyps)

    def test_beam_one_takes_argmax_path(self):
        model = ScriptedModel({
            (BOS_ID,): _probs(a=0.4, b=0.6),
            (BOS_ID, B): _probs(a=0.9, eos=0.1),
            (BOS_ID, B, A): _probs(eos=1.0),
        })
        (hyp,) = beam_search([(model, _fake_enc())], DecodeConfig(beam=1))
        assert hyp.tokens == [BOS_ID, B, A, EOS_ID]

    def test_wider_beam_recovers_better_normalized_path(self):
        # Greedy takes b (0.55) and finishes at 2 tokens with score
        # log(0.55)/2.  The a-branch continues with certainty and finishes
        # at 3 tokens with log(0.45)/3, which normalizes higher; only a
        # beam > 1 keeps it alive long enough to find out.
        model = ScriptedModel({
            (BOS_ID,): _probs(a=0.45, b=0.55),
            (BOS_ID, B): _probs(eos=1.0),
            (BOS_ID, A): _probs(b=1.0),
            (BOS_ID, A, B): _probs(eos=1.0),
        })
        greedy = greedy_decode([(model, _fake_enc())], max_len=8)
        assert greedy.tokens == [BOS_ID, B, EOS_ID]
        hyps = beam_search([(model, _fake_enc())], DecodeConfig(beam=3))
        assert hyps[0].tokens == [BOS_ID, A, B, EOS_ID]
        assert hyps[1].tokens == [BOS_ID, B, EOS_ID]
        assert hyps[0].norm_score > hyps[1].norm_score

    def test_unfinished_fallback_flagged(self):
        model = ScriptedModel({}, default=_probs(a=0.7, b=0.3))
        hyps = beam_search([(model, _fake_enc(3))],
                           DecodeConfig(beam=2, extra_len=0))
        assert len(hyps) == 1
        assert not hyps[0].finished
        assert hyps[0].tokens == [BOS_ID, A, A, A]
        assert hyps[0].norm_score == pytest.approx(hyps[0].logprob / 3, rel=1e-9)

    def test_default_length_cap(self):
        model = ScriptedModel({}, default=_probs(a=1.0))
        (hyp,) = beam_search([(model, _fake_enc(t_prime=7))],
                             DecodeConfig(beam=1))
        assert hyp.generated == int(1.0 * 7) + 10

    def test_exact_ties_order_by_token_then_parent(self):
        # bos ties eos, a and b exactly: eos (id 3) finishes first, then a
        # (rank 0) and b (rank 1) live.  Both then tie a and b exactly, so
        # four candidates share one score and three are kept: a before b,
        # and within a token the lower parent rank first.
        model = ScriptedModel({
            (BOS_ID,): _probs(a=0.3, b=0.3, eos=0.3),
            (BOS_ID, A): _probs(a=0.5, b=0.5),
            (BOS_ID, B): _probs(a=0.5, b=0.5),
        }, default=_probs(eos=1.0))
        hyps = beam_search([(model, _fake_enc(3))],
                           DecodeConfig(beam=3, extra_len=0))
        assert model.stepped[1] == [(BOS_ID, A), (BOS_ID, B)]
        assert model.stepped[2] == [(BOS_ID, A, A), (BOS_ID, B, A),
                                    (BOS_ID, A, B)]
        assert len(model.stepped) == 3
        assert [h.tokens for h in hyps] == [
            [BOS_ID, A, A, EOS_ID], [BOS_ID, A, B, EOS_ID],
            [BOS_ID, B, A, EOS_ID], [BOS_ID, EOS_ID]]
        assert hyps[0].logprob == hyps[1].logprob == hyps[2].logprob

    def test_needs_a_model(self):
        with pytest.raises(ValueError):
            beam_search([], DecodeConfig())

    def test_greedy_reference_matches_beam_one(self):
        cfg = ModelConfig(vocab_size=V, variant="baseline", enc_layers=2,
                          dec_layers=1, hidden=8, heads=2, ffn=16,
                          conv_kernel=3)
        model = SpeechTranslator(cfg, RngStream(12))
        rng = RngStream(13)
        for trial in range(10):
            feats = rng.normal(size=(int(rng.integers(8, 24)), 80))
            enc = encode_for_decoding(model, feats)
            cfg = DecodeConfig(beam=1, extra_len=4)
            beam_hyp = beam_search([(model, enc)], cfg)[0]
            greedy_hyp = greedy_decode([(model, enc)],
                                       length_cap([(model, enc)], cfg))
            assert beam_hyp.tokens == greedy_hyp.tokens
            assert beam_hyp.logprob == pytest.approx(greedy_hyp.logprob,
                                                     rel=1e-12)

    def test_deterministic(self):
        cfg = ModelConfig(vocab_size=V, variant="baseline", enc_layers=2,
                          dec_layers=1, hidden=8, heads=2, ffn=16,
                          conv_kernel=3)
        model = SpeechTranslator(cfg, RngStream(12))
        feats = RngStream(14).normal(size=(16, 80))
        enc = encode_for_decoding(model, feats)
        cfg = DecodeConfig(beam=4, extra_len=2)  # T' = 4: 6 steps
        first = beam_search([(model, enc)], cfg)
        second = beam_search([(model, enc)], cfg)
        assert [h.tokens for h in first] == [h.tokens for h in second]
        assert [h.norm_score for h in first] == [h.norm_score for h in second]

    def test_ensemble_of_copies_matches_single(self):
        cfg = ModelConfig(vocab_size=V, variant="baseline", enc_layers=2,
                          dec_layers=1, hidden=8, heads=2, ffn=16,
                          conv_kernel=3)
        model = SpeechTranslator(cfg, RngStream(12))
        feats = RngStream(15).normal(size=(16, 80))
        enc = encode_for_decoding(model, feats)
        cfg = DecodeConfig(beam=3, extra_len=2)  # T' = 4: 6 steps
        single = beam_search([(model, enc)], cfg)
        six = beam_search([(model, enc)] * 6, cfg)
        assert [h.tokens for h in single] == [h.tokens for h in six]
        for a, b in zip(single, six):
            assert a.logprob == pytest.approx(b.logprob, abs=1e-12)


def _oracle_models(variant, seeds):
    cfg = ModelConfig(vocab_size=10, variant=variant, enc_layers=2,
                      dec_layers=2, acoustic_layers=1, hidden=8, heads=2,
                      ffn=16, conv_kernel=3, rpe_enc_max=4, rpe_dec_max=3,
                      adaptor_mix_embeddings=True)
    models = []
    for seed in seeds:
        model = SpeechTranslator(cfg, RngStream(seed))
        model.out_proj.bias.data[EOS_ID] -= 0.5  # finish some, cap others
        models.append(model)
    feats = RngStream(16).normal(size=(24, 80))
    return [(m, encode_for_decoding(m, feats)) for m in models]


class TestAgainstRecomputeOracle:
    """Cached, batched beam search gives the recompute oracle's tokens and
    scores."""

    @pytest.mark.parametrize("variant", ["baseline", "conformer",
                                         "conformer_rpe", "sate"])
    @pytest.mark.parametrize("seeds", [(41,), (41, 42)], ids=["single", "pair"])
    def test_same_tokens_and_scores(self, variant, seeds):
        models = _oracle_models(variant, seeds)
        longest = 0
        for beam in (1, 2, 5):
            cfg = DecodeConfig(beam=beam, extra_len=3)  # T' = 6: 9 steps
            got = beam_search(models, cfg)
            want = reference_beam_search(models, cfg)
            assert [h.tokens for h in got] == [h.tokens for h in want]
            assert [h.finished for h in got] == [h.finished for h in want]
            for g, w in zip(got, want):
                assert abs(g.logprob - w.logprob) < 1e-12
                assert abs(g.norm_score - w.norm_score) < 1e-12
            longest = max(longest, max(h.generated for h in got))
        assert longest > 3 + 1  # rpe_dec_max + 1: relative positions clip

    def test_greedy_matches_oracle_beam_one(self):
        models = _oracle_models("conformer_rpe", (43, 44))
        cfg = DecodeConfig(beam=1, extra_len=3)
        greedy = greedy_decode(models, length_cap(models, cfg))
        (want,) = reference_beam_search(models, cfg)[:1]
        assert greedy.tokens == want.tokens
        assert abs(greedy.logprob - want.logprob) < 1e-12


class TestGreedyDecode:
    def test_stops_at_eos(self):
        model = ScriptedModel({
            (BOS_ID,): _probs(a=0.9, b=0.1),
            (BOS_ID, A): _probs(eos=0.8, b=0.2),
        })
        hyp = greedy_decode([(model, _fake_enc())], max_len=10)
        assert hyp.tokens == [BOS_ID, A, EOS_ID]
        assert hyp.finished

    def test_caps_at_max_len(self):
        model = ScriptedModel({}, default=_probs(b=1.0))
        hyp = greedy_decode([(model, _fake_enc())], max_len=4)
        assert hyp.tokens == [BOS_ID, B, B, B, B]
        assert not hyp.finished


class TestHypothesis:
    def test_generated_counts_past_bos(self):
        assert Hypothesis([BOS_ID]).generated == 0
        assert Hypothesis([BOS_ID, A, EOS_ID]).generated == 2
