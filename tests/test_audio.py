"""Tests for the acoustic frontend."""

import struct
from dataclasses import dataclass

import numpy as np
import pytest

from tinyst.audio import (FEATURE_MAGIC, FEATURE_VERSION, N_MELS, FrontendConfig,
                          cmvn, filter_utterances, hz_to_mel, load_features,
                          logmel, mel_to_hz, read_wav, save_features,
                          spec_augment, write_wav)
from tinyst.rng import RngStream
from tinyst.training import TrainConfig


@dataclass
class FakeEntry:
    utt_id: str
    n_frames: int


class TestLogmel:
    def test_channel_count_is_80(self):
        cfg = FrontendConfig()
        rng = np.random.default_rng(0)
        feats = logmel(rng.normal(size=8000), cfg)
        assert feats.shape[1] == 80

    def test_frame_count_law_random_lengths(self):
        cfg = FrontendConfig()
        win, shift = cfg.window_samples, cfg.shift_samples
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(win, 16000 * 4))
            feats = logmel(rng.normal(size=n), cfg)
            assert feats.shape == (1 + (n - win) // shift, 80)

    def test_deterministic(self):
        cfg = FrontendConfig()
        wav = np.random.default_rng(2).normal(size=12000)
        np.testing.assert_array_equal(logmel(wav, cfg), logmel(wav, cfg))

    def test_all_zero_waveform_hits_floor(self):
        cfg = FrontendConfig()
        feats = logmel(np.zeros(8000), cfg)
        np.testing.assert_allclose(feats, np.log(cfg.log_floor))

    def test_too_short_waveform_rejected(self):
        cfg = FrontendConfig()
        with pytest.raises(ValueError, match="shorter"):
            logmel(np.zeros(cfg.window_samples - 1), cfg)

    def test_sinusoid_lands_in_its_mel_bin(self):
        cfg = FrontendConfig(fft_size=1024)
        t = np.arange(int(16000 * 0.6)) / 16000.0
        # Channel j's triangle peaks at the (j+1)-th of N_MELS + 2 points
        # spaced evenly in mel from mel_low to the Nyquist frequency.
        edges = np.linspace(hz_to_mel(cfg.mel_low), hz_to_mel(cfg.sample_rate / 2),
                            N_MELS + 2)
        for j, f in enumerate(mel_to_hz(edges[1:-1])):
            feats = logmel(0.5 * np.sin(2 * np.pi * f * t), cfg)
            interior = feats[2:-2]
            votes = np.bincount(interior.argmax(axis=1), minlength=80)
            assert votes.argmax() == j

    def test_values_never_below_floor(self):
        cfg = FrontendConfig()
        wav = np.random.default_rng(3).normal(size=9000) * 1e-7
        assert logmel(wav, cfg).min() >= np.log(cfg.log_floor) - 1e-12


class TestFrontendConfig:
    def test_rejects_non_power_of_two_fft(self):
        with pytest.raises(ValueError, match="power of two"):
            FrontendConfig(fft_size=500)

    def test_rejects_fft_below_window(self):
        with pytest.raises(ValueError, match="window"):
            FrontendConfig(fft_size=256)

    def test_rejects_band_above_nyquist(self):
        with pytest.raises(ValueError, match="band"):
            FrontendConfig(mel_high=9000.0)


class TestCmvn:
    def test_zero_mean_unit_variance(self):
        feats = np.random.default_rng(4).normal(2.0, 3.0, size=(50, 80))
        out = cmvn(feats)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-9)

    def test_constant_channel_stays_finite(self):
        feats = np.ones((10, 80))
        assert np.all(np.isfinite(cmvn(feats)))


class TestSpecAugment:
    def test_zero_widths_are_identity(self):
        feats = np.random.default_rng(5).normal(size=(40, 80))
        cfg = TrainConfig(sa_freq_width=0, sa_time_fraction=0.0)
        out = spec_augment(feats, cfg, RngStream(0))
        np.testing.assert_array_equal(out, feats)

    def test_same_seed_same_masks(self):
        feats = np.random.default_rng(6).normal(size=(60, 80))
        cfg = TrainConfig()
        a = spec_augment(feats, cfg, RngStream(9))
        b = spec_augment(feats, cfg, RngStream(9))
        np.testing.assert_array_equal(a, b)

    def test_shape_preserved_and_changes_confined_to_masks(self):
        rng = np.random.default_rng(7)
        cfg = TrainConfig(sa_freq_masks=2, sa_freq_width=8,
                          sa_time_masks=2, sa_time_fraction=0.1)
        for trial in range(50):
            feats = rng.normal(size=(int(rng.integers(20, 120)), 80)) + 5.0
            out = spec_augment(feats, cfg, RngStream(trial))
            assert out.shape == feats.shape
            # No input value is 0, so the masks are the all-zero columns
            # (frequency) and rows (time); nothing outside them changes.
            zero_cols = (out == 0.0).all(axis=0)
            zero_rows = (out == 0.0).all(axis=1)
            inside = zero_rows[:, None] | zero_cols[None, :]
            np.testing.assert_array_equal(out[~inside], feats[~inside])
            for zeroed, masks, widest in (
                    (zero_cols, cfg.sa_freq_masks, cfg.sa_freq_width),
                    (zero_rows, cfg.sa_time_masks, int(cfg.sa_time_fraction * len(out)))):
                runs = np.flatnonzero(np.diff(zeroed.astype(int), prepend=0) == 1)
                assert len(runs) <= masks and zeroed.sum() <= masks * widest

    def test_freq_mask_budget(self):
        feats = np.random.default_rng(8).normal(size=(30, 80)) + 10.0
        cfg = TrainConfig(sa_freq_masks=2, sa_freq_width=8, sa_time_masks=0)
        for trial in range(100):
            out = spec_augment(feats, cfg, RngStream(trial))
            masked_channels = int((out == 0.0).all(axis=0).sum())
            assert masked_channels <= 16

    def test_rejects_invalid_policy(self):
        with pytest.raises(ValueError, match="sa_freq_width"):
            TrainConfig(sa_freq_width=81)
        with pytest.raises(ValueError, match="sa_time_fraction"):
            TrainConfig(sa_time_fraction=1.5)


class TestFilterUtterances:
    def test_boundaries(self):
        entries = [FakeEntry("a", 4), FakeEntry("b", 5), FakeEntry("c", 3000),
                   FakeEntry("d", 3001)]
        kept = filter_utterances(entries)
        assert [e.utt_id for e in kept] == ["b", "c"]

    def test_empty_list(self):
        assert filter_utterances([]) == []

    def test_order_preserving_subsequence(self):
        rng = np.random.default_rng(9)
        entries = [FakeEntry(str(i), int(rng.integers(0, 4000))) for i in range(200)]
        kept = filter_utterances(entries)
        ids = [e.utt_id for e in entries if 5 <= e.n_frames <= 3000]
        assert [e.utt_id for e in kept] == ids

    def test_missing_frame_count_is_an_error(self):
        with pytest.raises(ValueError, match="frame count"):
            filter_utterances([object()])


class TestFeatureCache:
    def test_roundtrip(self, tmp_path):
        feats = np.random.default_rng(10).normal(size=(37, 80))
        p = tmp_path / "utt.feat"
        save_features(p, feats)
        loaded = load_features(p)
        assert loaded.dtype == np.float64
        np.testing.assert_allclose(loaded, feats, atol=1e-6)

    def test_rejects_wrong_magic(self, tmp_path):
        p = tmp_path / "bogus.feat"
        p.write_bytes(b"NOPE" + b"\x00" * 12)
        with pytest.raises(ValueError, match="magic"):
            load_features(p)

    def test_rejects_truncation(self, tmp_path):
        feats = np.zeros((5, 80))
        p = tmp_path / "utt.feat"
        save_features(p, feats)
        p.write_bytes(p.read_bytes()[:-7])
        with pytest.raises(ValueError, match="truncated"):
            load_features(p)

    def test_rejects_bytes_after_the_payload(self, tmp_path):
        p = tmp_path / "utt.feat"
        save_features(p, np.zeros((5, 80)))
        p.write_bytes(p.read_bytes() + b"\x00" * 3)
        with pytest.raises(ValueError, match="3 bytes after") as exc:
            load_features(p)
        assert "utt.feat" in str(exc.value)

    def test_rejects_other_channel_counts(self, tmp_path):
        p = tmp_path / "utt.feat"
        p.write_bytes(struct.pack("<4sIII", FEATURE_MAGIC, FEATURE_VERSION, 5, 40)
                      + np.zeros((5, 40), "<f4").tobytes())
        with pytest.raises(ValueError, match="40 feature channels, expected 80") as exc:
            load_features(p)
        assert "utt.feat" in str(exc.value)

    @pytest.mark.parametrize("shape", [(10, 40), (10, 81), (80,), (2, 10, 80)])
    def test_save_refuses_what_load_refuses(self, tmp_path, shape):
        p = tmp_path / "utt.feat"
        with pytest.raises(ValueError, match=r"features must be \(frames, 80\)") as exc:
            save_features(p, np.zeros(shape))
        assert "utt.feat" in str(exc.value)
        assert not p.exists()


class TestWavIO:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(11)
        samples = np.clip(rng.normal(scale=0.2, size=4000), -1, 0.99)
        p = tmp_path / "x.wav"
        write_wav(p, samples, 16000)
        loaded, rate = read_wav(p)
        assert rate == 16000
        np.testing.assert_allclose(loaded, samples, atol=1.0 / 32768)

    def test_rejects_stereo(self, tmp_path):
        import wave

        p = tmp_path / "st.wav"
        with wave.open(str(p), "wb") as wf:
            wf.setnchannels(2)
            wf.setsampwidth(2)
            wf.setframerate(16000)
            wf.writeframes(b"\x00" * 64)
        with pytest.raises(ValueError, match="mono"):
            read_wav(p)

    @pytest.mark.parametrize("keep, error", [
        (20044, "truncated WAV"),
        (20045, "truncated WAV"),
        (30, "not a readable WAV"),
        (40, "not a readable WAV"),
    ], ids=["whole-samples-cut", "cut-inside-a-sample", "cut-inside-a-chunk-header",
            "data-chunk-missing"])
    def test_truncated_file_rejected_by_name(self, tmp_path, keep, error):
        p = tmp_path / "cut.wav"
        write_wav(p, np.full(16000, 0.1), 16000)  # 44-byte header + 32000 bytes
        p.write_bytes(p.read_bytes()[:keep])
        with pytest.raises(ValueError, match=error) as exc:
            read_wav(p)
        assert "cut.wav" in str(exc.value)
