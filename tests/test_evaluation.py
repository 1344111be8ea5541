"""Tests for corpus BLEU, and for the edit-distance and token-accuracy
oracles the acceptance suite scores with."""

import numpy as np
import pytest

from oracles import edit_accuracy, edit_distance, token_accuracy
from tinyst.evaluation import corpus_bleu
from tinyst.rng import RngStream


class TestCorpusBleu:
    def test_identity_is_exactly_100(self):
        rng = RngStream(8)
        words = "alpha beta gamma delta epsilon zeta".split()
        corpus = [" ".join(words[int(rng.integers(0, len(words)))]
                           for _ in range(int(rng.integers(4, 12))))
                  for _ in range(25)]
        assert corpus_bleu(corpus, list(corpus)) == 100.0

    def test_short_hypothesis_brevity_penalty(self):
        # All n-gram precisions are 1; only BP = exp(1 - 5/4) remains.
        score = corpus_bleu(["a b c d"], ["a b c d e"])
        assert abs(score - 77.88) < 0.01

    def test_long_hypothesis_no_brevity_penalty(self):
        score = corpus_bleu(["a b c d e"], ["a b c d"])
        assert score == pytest.approx(100.0 * 0.2 ** 0.25)

    def test_empty_hypothesis_scores_zero(self):
        assert corpus_bleu([""], ["a b c"]) == 0.0

    def test_no_unigram_match_scores_zero(self):
        assert corpus_bleu(["x y z"], ["a b c"]) == 0.0

    def test_smoothing_only_above_unigram(self):
        # Unigrams all match; the bigram count is 0 and gets add-one
        # smoothing (1/2); empty 3/4-gram tallies smooth to 1.
        score = corpus_bleu(["a b"], ["b a"])
        assert score == pytest.approx(100.0 * 0.5 ** 0.25)

    def test_corpus_level_pair_order_invariant(self):
        hyps = ["a b c", "d e", "f g h i"]
        refs = ["a b x", "d e", "f h g i"]
        perm = [2, 0, 1]
        assert corpus_bleu(hyps, refs) == pytest.approx(
            corpus_bleu([hyps[i] for i in perm], [refs[i] for i in perm]))

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="hypotheses"):
            corpus_bleu(["a"], ["a", "b"])

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            corpus_bleu([], [])

    def test_range(self):
        rng = RngStream(9)
        vocab = "p q r s t".split()
        for trial in range(50):
            hyp = [" ".join(vocab[int(rng.integers(0, 5))]
                            for _ in range(int(rng.integers(1, 8))))
                   for _ in range(4)]
            ref = [" ".join(vocab[int(rng.integers(0, 5))]
                            for _ in range(int(rng.integers(1, 8))))
                   for _ in range(4)]
            score = corpus_bleu(hyp, ref)
            assert 0.0 <= score <= 100.0


class TestEditDistance:
    def test_known_values(self):
        assert edit_distance(list("kitten"), list("sitting")) == 3
        assert edit_distance(list("flaw"), list("lawn")) == 2
        assert edit_distance([], list("abc")) == 3
        assert edit_distance(list("same"), list("same")) == 0

    def test_symmetry(self):
        rng = RngStream(5)
        for _ in range(50):
            a = [int(x) for x in rng.integers(0, 4, size=int(rng.integers(0, 9)))]
            b = [int(x) for x in rng.integers(0, 4, size=int(rng.integers(0, 9)))]
            assert edit_distance(a, b) == edit_distance(b, a)

    def test_triangle_inequality(self):
        rng = RngStream(6)
        for _ in range(30):
            seqs = [[int(x) for x in rng.integers(0, 3, size=int(rng.integers(1, 7)))]
                    for _ in range(3)]
            a, b, c = seqs
            assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)


class TestEditAccuracy:
    def test_identical_is_one(self):
        assert edit_accuracy(["a b c", "d"], ["a b c", "d"]) == 1.0

    def test_empty_hypotheses_score_zero(self):
        assert edit_accuracy(["", ""], ["a b", "c d"]) == 0.0

    def test_floored_at_zero(self):
        assert edit_accuracy(["x y z w v u"], ["a"]) == 0.0

    def test_partial(self):
        # One substitution in 4 reference tokens.
        assert edit_accuracy(["a b c x"], ["a b c d"]) == pytest.approx(0.75)

    def test_empty_references_rejected(self):
        with pytest.raises(ValueError, match="no tokens"):
            edit_accuracy([""], [""])


class TestTokenAccuracy:
    def test_identical_is_one(self):
        assert token_accuracy(["a b", "c"], ["a b", "c"]) == 1.0

    def test_position_alignment(self):
        # 2 of max(3, 3) positions match.
        assert token_accuracy(["a x c"], ["a b c"]) == pytest.approx(2 / 3)

    def test_length_mismatch_penalized(self):
        # Matches 2, denominator max(2, 4) = 4.
        assert token_accuracy(["a b"], ["a b c d"]) == pytest.approx(0.5)

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            token_accuracy(["a"], ["a", "b"])
