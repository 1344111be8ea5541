"""Tests for subword training, encoding, and CTC text normalization."""

import numpy as np
import pytest

from tinyst.text import (BLANK_ID, BOS_ID, EOS_ID, PAD_ID, SPECIALS, UNK_ID,
                         SubwordModel, Vocabulary, decode, encode, load_subwords,
                         normalize_for_ctc, save_subwords, train_subwords)


def _legacy_normalize(text):
    # Independent re-statement of the normalization rules for cross-checking.
    import unicodedata

    out = []
    for ch in text.lower():
        if unicodedata.category(ch).startswith("P"):
            continue
        out.append(ch)
    return " ".join("".join(out).split())


class TestNormalize:
    def test_hello_world(self):
        assert normalize_for_ctc("Hello, World!") == "hello world"

    def test_fixed_point(self):
        assert normalize_for_ctc("abc") == "abc"

    def test_spacing_and_period(self):
        assert normalize_for_ctc("A  B.") == "a b"

    def test_idempotent_and_matches_reference(self):
        rng = np.random.default_rng(0)
        pool = list("abcXYZ .,;:!?'\"-—éß\t\n()") + ["。"]
        for _ in range(1000):
            s = "".join(rng.choice(pool) for _ in range(int(rng.integers(0, 30))))
            once = normalize_for_ctc(s)
            assert normalize_for_ctc(once) == once
            assert once == _legacy_normalize(s)


class TestVocabulary:
    def test_specials_occupy_low_ids(self):
        v = Vocabulary(list(SPECIALS) + ["a", "b"])
        assert (v.id("<pad>"), v.id("<unk>"), v.id("<bos>"),
                v.id("<eos>"), v.id("<blank>")) == (0, 1, 2, 3, 4)
        assert (PAD_ID, UNK_ID, BOS_ID, EOS_ID, BLANK_ID) == (0, 1, 2, 3, 4)

    def test_rejects_missing_specials(self):
        with pytest.raises(ValueError, match="must start with"):
            Vocabulary(["a", "b", "c", "d", "e", "f"])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            Vocabulary(list(SPECIALS) + ["a", "a"])

    def test_unknown_token_maps_to_unk(self):
        v = Vocabulary(list(SPECIALS) + ["a"])
        assert v.id("zzz") == UNK_ID


class TestTrainSubwords:
    def test_first_merge_on_aaab(self):
        # pairs in "aaab": (a,a) twice, (a,b</w>) once
        model = train_subwords(["aaab"], vocab_size=40)
        assert model.merges[0] == ("a", "a")

    def test_zero_budget_means_character_vocab(self):
        corpus = ["ab ab"]
        chars = {"a", "b"}
        base = len(chars) * 2
        model = train_subwords(corpus, vocab_size=base + 5)
        assert model.merges == []
        assert len(model.vocab) == base + 5

    def test_budget_below_inventory_rejected(self):
        with pytest.raises(ValueError, match="inventory"):
            train_subwords(["abcdef"], vocab_size=8)

    def test_paper_scale_vocab_size_accepted(self):
        corpus = ["the cat sat on the mat", "a cat and a hat"] * 3
        model = train_subwords(corpus, vocab_size=10000)
        assert len(model.vocab) <= 10000

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            train_subwords([], vocab_size=100)
        with pytest.raises(ValueError, match="empty"):
            train_subwords(["   ", ""], vocab_size=100)

    def test_deterministic(self):
        corpus = ["fee fie foe fum", "fo fum fee fee"]
        a = train_subwords(corpus, vocab_size=60)
        b = train_subwords(corpus, vocab_size=60)
        assert a.merges == b.merges
        assert a.vocab.token_of == b.vocab.token_of


@pytest.fixture(scope="module")
def model():
    corpus = ["the quick brown fox jumps over the lazy dog",
              "pack my box with five dozen liquor jugs",
              "how vexingly quick daft zebras jump"]
    return train_subwords(corpus, vocab_size=120)


class TestEncodeDecode:

    def test_empty_roundtrip(self, model):
        assert encode(model, "") == []
        assert decode(model, []) == ""

    def test_sentence_roundtrip(self, model):
        for s in ["the quick brown fox", "dozen lazy zebras jump over my dog",
                  "pack the box"]:
            assert decode(model, encode(model, s)) == s

    def test_unseen_word_over_seen_characters_roundtrips(self, model):
        s = "quirk zebrox"
        assert decode(model, encode(model, s)) == s

    def test_out_of_inventory_glyph_becomes_unk(self, model):
        ids = encode(model, "foxψdog")
        assert UNK_ID in ids
        assert "<unk>" in decode(model, ids)

    def test_never_emits_structural_specials(self, model):
        rng = np.random.default_rng(1)
        words = "the quick brown fox jumps over lazy dog box".split()
        for _ in range(50):
            s = " ".join(rng.choice(words) for _ in range(int(rng.integers(1, 9))))
            ids = encode(model, s)
            assert not ({PAD_ID, BOS_ID, EOS_ID} & set(ids))

    def test_decode_skips_structural_specials(self, model):
        ids = [BOS_ID] + encode(model, "the fox") + [EOS_ID, PAD_ID]
        assert decode(model, ids) == "the fox"

    def test_file_roundtrip(self, model, tmp_path):
        save_subwords(model, tmp_path)
        loaded = load_subwords(tmp_path)
        assert loaded.vocab.token_of == model.vocab.token_of
        assert loaded.merges == model.merges
        s = "the quick dog"
        assert encode(loaded, s) == encode(model, s)

    def test_merges_of_another_run_rejected(self, model, tmp_path):
        other = train_subwords(["the cat sat on the mat", "the cat"], vocab_size=60)
        save_subwords(model, tmp_path)
        (tmp_path / "merges.txt").write_text(
            "".join(f"{a} {b}\n" for a, b in other.merges), encoding="utf-8")
        line = 1 + next(i for i, (a, b) in enumerate(other.merges)
                        if not {a, b, a + b} <= set(model.vocab.token_of))
        with pytest.raises(ValueError, match=rf"merges\.txt:{line}: "):
            load_subwords(tmp_path)
