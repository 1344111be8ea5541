"""Tests for manifests, dataset assembly, and exact-shape batching."""

import numpy as np
import pytest

from tinyst.audio import save_features
from tinyst.data import (
    ManifestEntry,
    Sample,
    drop_ctc_infeasible,
    load_dataset,
    make_batches,
    read_manifest,
    write_manifest,
)
from tinyst.rng import RngStream
from tinyst.text import BOS_ID, EOS_ID, train_subwords


def _entries():
    return [
        ManifestEntry("utt1", "feats/utt1.feat", 40, "hello world", "hallo welt"),
        ManifestEntry("utt2", "feats/utt2.feat", 52, "good day", "guten tag"),
    ]


class TestManifest:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "train.tsv"
        write_manifest(path, _entries())
        assert read_manifest(path) == _entries()

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("utt1\tfeats/a.feat\t40\ta\tb\n")
        with pytest.raises(ValueError, match="header"):
            read_manifest(path)

    def test_column_count_checked(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("id\tfeatures\tn_frames\ttranscript\ttranslation\n"
                        "utt1\tfeats/a.feat\t40\tonly four\n")
        with pytest.raises(ValueError, match="column"):
            read_manifest(path)

    def test_repeated_id_rejected_naming_both_lines(self, tmp_path):
        path = tmp_path / "dup.tsv"
        write_manifest(path, _entries() + _entries()[:1])
        with pytest.raises(ValueError,
                           match=r"dup\.tsv:4: utterance id 'utt1' repeats line 2"):
            read_manifest(path)

    def test_n_frames_must_be_int(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("id\tfeatures\tn_frames\ttranscript\ttranslation\n"
                        "utt1\tfeats/a.feat\tforty\ta\tb\n")
        with pytest.raises(ValueError, match="n_frames"):
            read_manifest(path)


def _write_toy_dataset(tmp_path, n_frames_list):
    rng = RngStream(7)
    feat_dir = tmp_path / "feats"
    feat_dir.mkdir()
    entries = []
    texts = ["aa bb", "bb aa cc", "cc aa"]
    for i, t in enumerate(n_frames_list):
        feats = rng.normal(size=(t, 80))
        save_features(feat_dir / f"u{i}.feat", feats)
        entries.append(ManifestEntry(
            f"u{i}", f"feats/u{i}.feat", t,
            texts[i % len(texts)], texts[(i + 1) % len(texts)]))
    manifest = tmp_path / "train.tsv"
    write_manifest(manifest, entries)
    subwords = train_subwords([e.transcript for e in entries] +
                              [e.translation for e in entries], 40)
    return manifest, subwords


class TestLoadDataset:
    def test_loads_and_encodes(self, tmp_path):
        manifest, subwords = _write_toy_dataset(tmp_path, [40, 52, 64])
        samples = load_dataset(manifest, subwords)
        assert [s.utt_id for s in samples] == ["u0", "u1", "u2"]
        assert samples[0].features.shape == (40, 80)
        # Per-utterance mean/variance normalization is on by default.
        np.testing.assert_allclose(samples[0].features.mean(axis=0),
                                   np.zeros(80), atol=1e-12)
        for s in samples:
            assert all(i >= 5 for i in s.src_ids)
            assert all(i >= 5 for i in s.tgt_ids)

    def test_length_filter_applied(self, tmp_path):
        manifest, subwords = _write_toy_dataset(tmp_path, [4, 40, 3001])
        samples = load_dataset(manifest, subwords)
        assert [s.utt_id for s in samples] == ["u1"]
        unfiltered = load_dataset(manifest, subwords, apply_length_filter=False)
        assert len(unfiltered) == 3

    def test_frame_count_mismatch_rejected(self, tmp_path):
        manifest, subwords = _write_toy_dataset(tmp_path, [40])
        entries = read_manifest(manifest)
        entries[0] = ManifestEntry(entries[0].utt_id, entries[0].features, 41,
                                   entries[0].transcript, entries[0].translation)
        write_manifest(manifest, entries)
        with pytest.raises(ValueError, match="u0"):
            load_dataset(manifest, subwords)


def _sample(utt_id, t, src, tgt):
    return Sample(utt_id, np.zeros((t, 80)), list(src), list(tgt))


class TestMakeBatches:
    def test_groups_are_shape_exact(self):
        samples = [
            _sample("a", 8, [6, 7], [8]),
            _sample("b", 8, [6, 7], [8]),
            _sample("c", 8, [6], [8]),
            _sample("d", 12, [6, 7], [8]),
        ]
        batches = make_batches(samples, frame_budget=1000)
        for b in batches:
            assert b.features.shape[0] == len(b)
            assert len(b.src_targets) == len(b)
        # a, b and c share (T, tgt_len) and fit one batch, whatever their
        # transcript lengths; d differs in frames.
        sizes = sorted(len(b) for b in batches)
        assert sizes == [1, 3]

    def test_budget_splits_groups(self):
        samples = [_sample(f"u{i}", 10, [6], [7]) for i in range(7)]
        batches = make_batches(samples, frame_budget=30)  # 3 per batch
        assert sorted(len(b) for b in batches) == [1, 3, 3]

    def test_budget_smaller_than_utterance_gives_singletons(self):
        samples = [_sample(f"u{i}", 50, [6], [7]) for i in range(3)]
        batches = make_batches(samples, frame_budget=10)
        assert [len(b) for b in batches] == [1, 1, 1]

    def test_prefix_and_targets_shifted(self):
        samples = [_sample("a", 6, [6, 7], [8, 9, 10])]
        (batch,) = make_batches(samples, frame_budget=100)
        np.testing.assert_array_equal(batch.prefix, [[BOS_ID, 8, 9, 10]])
        np.testing.assert_array_equal(batch.targets, [[8, 9, 10, EOS_ID]])

    def test_deterministic_order_without_rng(self):
        samples = [_sample(f"u{i}", 10 + (i % 3), [6], [7]) for i in range(9)]
        a = make_batches(samples, frame_budget=100)
        b = make_batches(list(reversed(samples)), frame_budget=100)
        assert [x.utt_ids for x in a] == [y.utt_ids for y in b]

    def test_shuffle_is_seeded(self):
        samples = [_sample(f"u{i}", 10 + i, [6], [7]) for i in range(20)]
        a = make_batches(samples, frame_budget=100, rng=RngStream(3))
        b = make_batches(samples, frame_budget=100, rng=RngStream(3))
        c = make_batches(samples, frame_budget=100, rng=RngStream(4))
        assert [x.utt_ids for x in a] == [y.utt_ids for y in b]
        assert [x.utt_ids for x in a] != [z.utt_ids for z in c]

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            make_batches([], frame_budget=0)


class TestDropCtcInfeasible:
    def test_partitions_by_capacity(self):
        # 4 frames -> 1 downsampled frame: room for one label only.
        ok = _sample("ok", 4, [6], [7])
        bad = _sample("bad", 4, [6, 7], [7])
        usable, dropped = drop_ctc_infeasible([ok, bad])
        assert [s.utt_id for s in usable] == ["ok"]
        assert [s.utt_id for s in dropped] == ["bad"]
