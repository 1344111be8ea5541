"""Tests for the optimizer, LR schedule, checkpoints, averaging, and the
training loop's determinism."""

import math
import re
import weakref
from dataclasses import replace

import numpy as np
import pytest

from tinyst import training
from tinyst.config import format_value
from tinyst.data import Sample
from tinyst.model import ModelConfig, SpeechTranslator
from tinyst.rng import RngStream
from tinyst.tensor import Tensor, no_grad
from tinyst.text import encode, train_subwords
from tinyst.toy import SYMBOLS, ToyTaskConfig, toy_mapping, toy_patterns, toy_utterance
from tinyst.training import (
    Adam,
    TrainConfig,
    apply_entries,
    average_checkpoints,
    clip_gradients,
    config_digest,
    config_from_metadata,
    config_metadata,
    final_checkpoints,
    inverse_sqrt_lr,
    load_checkpoint,
    load_model,
    save_checkpoint,
    save_model,
    train,
)


class TestSchedule:
    def test_warmup_is_linear(self):
        sched = TrainConfig(base_lr=2e-3, warmup_steps=400)
        assert inverse_sqrt_lr(100, sched) == pytest.approx(2e-3 / 4)
        assert inverse_sqrt_lr(200, sched) == pytest.approx(2e-3 / 2)
        assert inverse_sqrt_lr(400, sched) == pytest.approx(2e-3)

    def test_decay_is_inverse_sqrt(self):
        sched = TrainConfig(base_lr=2e-3, warmup_steps=400)
        assert inverse_sqrt_lr(1600, sched) == pytest.approx(1e-3)
        assert inverse_sqrt_lr(400 * 16, sched) == pytest.approx(2e-3 / 4)

    def test_peak_at_warmup_junction(self):
        sched = TrainConfig(base_lr=2e-3, warmup_steps=400)
        lrs = [inverse_sqrt_lr(s, sched) for s in range(1, 2000)]
        assert max(lrs) == pytest.approx(2e-3)
        assert int(np.argmax(lrs)) + 1 == 400
        # Continuous at the junction: the very next step barely drops.
        assert lrs[400] == pytest.approx(2e-3 * math.sqrt(400 / 401))

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError):
            inverse_sqrt_lr(0, TrainConfig())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(base_lr=0.0)
        with pytest.raises(ValueError):
            TrainConfig(warmup_steps=0)


class TestTrainConfig:
    @pytest.mark.parametrize("name, bad", [
        ("epochs", 0), ("frame_budget", 0), ("seed", -1), ("warmup_steps", 0),
        ("base_lr", 0.0), ("clip_norm", -1.0), ("alpha", 2.0),
        ("epsilon_ls", 1.0), ("sa_freq_masks", -1), ("sa_freq_width", 99)])
    def test_bad_value_names_its_field(self, name, bad):
        with pytest.raises(ValueError, match=name):
            TrainConfig(**{name: bad})

    @pytest.mark.parametrize("name, bad", [
        ("sa_freq_masks", -1), ("sa_freq_width", 81), ("sa_time_masks", -1),
        ("sa_time_fraction", 1.5)])
    def test_spec_augment_fields_validated_at_construction(self, name, bad):
        with pytest.raises(ValueError, match=name):
            TrainConfig(**{name: bad})

    def test_spec_augment_runs_only_with_masks(self, monkeypatch):
        samples, _ = _toy_samples()
        calls = []

        def recording(features, *args):
            calls.append(features.shape)
            return features

        monkeypatch.setattr(training, "spec_augment", recording)
        train(_tiny_model(), samples, TrainConfig(
            epochs=1, frame_budget=32, sa_freq_masks=0, sa_time_masks=0),
            max_steps=1)
        assert calls == []
        train(_tiny_model(), samples, TrainConfig(
            epochs=1, frame_budget=32, sa_freq_masks=0), max_steps=1)
        assert calls


class TestAdam:
    def test_first_step_moves_by_lr(self):
        p = Tensor(np.array([10.0]), requires_grad=True)
        p.grad = np.array([1.0])
        opt = Adam([("p", p)])
        opt.step(0.5)
        # Bias correction makes the first update lr * g / (|g| + eps).
        np.testing.assert_allclose(p.data, [10.0 - 0.5], rtol=1e-8)

    def test_none_grad_is_skipped(self):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        opt = Adam([("p", p)])
        opt.step(0.1)
        np.testing.assert_array_equal(p.data, [1.0, 2.0])

    def test_nonfinite_gradient_names_parameter(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([np.nan])
        opt = Adam([("layers.0.w", p)])
        with pytest.raises(FloatingPointError, match="layers.0.w"):
            opt.step(0.1)

    def test_nonfinite_last_gradient_changes_nothing(self):
        a = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        b = Tensor(np.array([3.0]), requires_grad=True)
        opt = Adam([("a", a), ("b", b)])
        a.grad, b.grad = np.array([0.5, 0.25]), np.array([1.0])
        opt.step(0.1)
        before = ([a.data.copy(), b.data.copy()], [m.copy() for m in opt.m],
                  [v.copy() for v in opt.v], opt.step_count)
        a.grad, b.grad = np.array([0.5, 0.25]), np.array([np.nan])
        with pytest.raises(FloatingPointError, match="in b"):
            opt.step(0.1)
        after = ([a.data, b.data], opt.m, opt.v, opt.step_count)
        for want, got in zip(before[:3], after[:3]):
            for w, g in zip(want, got):
                np.testing.assert_array_equal(g, w)
        assert after[3] == before[3] == 1

    def test_step_counter(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam([("p", p)])
        for _ in range(3):
            p.grad = np.array([0.5])
            opt.step(0.1)
        assert opt.step_count == 3

    def test_descends_quadratic(self):
        p = Tensor(np.array([3.0]), requires_grad=True)
        opt = Adam([("p", p)])
        for _ in range(200):
            p.grad = 2.0 * p.data  # d/dp of p^2
            opt.step(0.05)
        assert abs(p.data[0]) < 0.1


def _global_norm(named_params) -> float:
    return math.sqrt(sum(float((p.grad ** 2).sum()) for _, p in named_params
                         if p.grad is not None))


class TestClip:
    def test_clips_global_norm(self):
        a = Tensor(np.zeros(1), requires_grad=True)
        b = Tensor(np.zeros(1), requires_grad=True)
        a.grad = np.array([3.0])
        b.grad = np.array([4.0])
        norm = clip_gradients([("a", a), ("b", b)], max_norm=1.0)
        assert norm == 5.0
        np.testing.assert_allclose(a.grad, [0.6])
        np.testing.assert_allclose(b.grad, [0.8])
        assert abs(_global_norm([("a", a), ("b", b)]) - 1.0) <= 1e-12

    def test_no_clip_when_under_norm(self):
        a = Tensor(np.zeros(1), requires_grad=True)
        a.grad = np.array([3.0])
        norm = clip_gradients([("a", a)], max_norm=10.0)
        assert norm == pytest.approx(3.0)
        np.testing.assert_array_equal(a.grad, [3.0])

    def test_zero_max_norm_disables(self):
        a = Tensor(np.zeros(1), requires_grad=True)
        a.grad = np.array([100.0])
        assert clip_gradients([("a", a)], max_norm=0.0) == 100.0
        np.testing.assert_array_equal(a.grad, [100.0])


class TestSharedGradients:
    def test_clip_and_adam_scale_and_update_each_parameter_once(self):
        # The leaves of a same-shape add receive one gradient array.  Clipping
        # and Adam must treat them as two gradients: the same step on
        # unshared copies gives the same bits.
        c = np.array([3.0, -4.0, 12.0])
        shared = [Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True),
                  Tensor(np.array([-1.0, 0.5, 2.0]), requires_grad=True)]
        apart = [Tensor(p.data.copy(), requires_grad=True) for p in shared]
        ((shared[0] + shared[1]) * c).sum().backward()
        assert shared[0].grad is shared[1].grad
        for p in apart:
            p.grad = c.copy()
        steps = []
        for params in (shared, apart):
            named = [("a", params[0]), ("b", params[1])]
            assert clip_gradients(named, max_norm=1.0) == pytest.approx(13.0 * 2 ** 0.5)
            opt = Adam(named)
            opt.step(0.1)
            steps.append(([p.grad for p in params], [p.data for p in params],
                          opt.m, opt.v))
        np.testing.assert_allclose(apart[0].grad, c / (13.0 * 2 ** 0.5), rtol=1e-15)
        for got, want in zip(*steps):
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)


class TestCheckpointIO:
    def test_roundtrip_shapes_and_metadata(self, tmp_path):
        rng = RngStream(2)
        arrays = [
            ("scalar", np.array(3.5)),
            ("vec", rng.normal(size=7)),
            ("mat", rng.normal(size=(3, 4))),
            ("cube", rng.normal(size=(2, 3, 2))),
        ]
        meta = {"step": 17, "epoch": 3, "lr": 1.5e-4, "done": True, "tag": "run-a"}
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, arrays, meta)
        entries, got_meta = load_checkpoint(path)
        assert set(entries) == {"scalar", "vec", "mat", "cube"}
        for name, arr in arrays:
            assert entries[name].dtype == np.float32
            assert entries[name].shape == arr.shape
            np.testing.assert_array_equal(entries[name], arr.astype(np.float32))
        # Metadata loads as the text that was written.
        assert got_meta == {k: format_value(v) for k, v in meta.items()}

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(ValueError, match="not a checkpoint"):
            load_checkpoint(path)

    def test_rejects_truncated(self, tmp_path):
        path = tmp_path / "short.ckpt"
        path.write_bytes(b"STCK")
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_every_truncation_is_rejected_with_the_path(self, tmp_path):
        cfg = ModelConfig(vocab_size=15, enc_layers=1, dec_layers=1, hidden=4,
                          heads=2, ffn=4, conv_kernel=3)
        full = tmp_path / "full.ckpt"
        save_model(full, SpeechTranslator(cfg, RngStream(0)), step=1, epoch=1)
        data = full.read_bytes()
        cut = tmp_path / "cut.ckpt"
        for length in range(len(data)):
            cut.write_bytes(data[:length])
            with pytest.raises(ValueError, match="cut.ckpt"):
                load_checkpoint(cut)

    def test_rejects_bytes_after_metadata(self, tmp_path):
        path = tmp_path / "long.ckpt"
        save_checkpoint(path, [("w", np.ones(2))], {"step": 1})
        path.write_bytes(path.read_bytes() + b"\n")
        with pytest.raises(ValueError, match="long.ckpt"):
            load_checkpoint(path)

    @pytest.mark.parametrize("where", ["entry name", "metadata"])
    def test_text_that_is_not_utf8_is_rejected_with_the_path(self, tmp_path, where):
        path = tmp_path / "flipped.ckpt"
        save_checkpoint(path, [("w", np.ones(2))], {"step": 1})
        data = bytearray(path.read_bytes())
        # The entry name starts after the 12-byte header and its 2-byte
        # length; the metadata block ends the file.
        data[14 if where == "entry name" else -2] = 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match=f"flipped.ckpt: {where} is not UTF-8"):
            load_checkpoint(path)

    def test_rejects_duplicate_entries(self, tmp_path):
        path = tmp_path / "dup.ckpt"
        save_checkpoint(path, [("w", np.ones(2)), ("w", np.zeros(2))], {})
        with pytest.raises(ValueError, match="duplicate"):
            load_checkpoint(path)


class TestConfigMetadata:
    def test_roundtrip(self):
        cfg = ModelConfig(vocab_size=31, variant="sate", hidden=16, heads=2,
                          ffn=32, enc_layers=3, dec_layers=2,
                          acoustic_layers=2)
        rebuilt = config_from_metadata(config_metadata(cfg))
        assert rebuilt == cfg

    def test_digest_detects_tampering(self):
        cfg = ModelConfig(vocab_size=31)
        meta = config_metadata(cfg)
        meta["config.hidden"] = str(int(meta["config.hidden"]) * 2)
        with pytest.raises(ValueError, match="digest"):
            config_from_metadata(meta)

    def test_value_of_wrong_type_names_its_key(self):
        meta = config_metadata(ModelConfig(vocab_size=31))
        meta["config.hidden"] = "2.5"
        with pytest.raises(ValueError, match=r"config\.hidden = 2\.5 is not a valid int"):
            config_from_metadata(meta)

    def test_removed_option_is_named_not_blamed_on_digest(self, tmp_path):
        # A checkpoint written before these options were removed carries them.
        model = _tiny_model()
        removed = {"prenorm": True, "dlcl": True, "textual_layers": 4,
                   "attn_dropout": 0.1, "act_dropout": 0.1}
        meta = {"step": 0, "epoch": 0, **config_metadata(model.cfg),
                **{f"config.{k}": v for k, v in removed.items()}}
        path = tmp_path / "old.ckpt"
        save_checkpoint(path, [(n, p.data) for n, p in model.named_parameters()],
                        meta)
        with pytest.raises(ValueError, match="unknown model config keys") as exc:
            load_model(path)
        assert all(repr(k) in str(exc.value) for k in removed)
        assert "digest" not in str(exc.value)

    def test_digest_differs_across_configs(self):
        assert (config_digest(ModelConfig(vocab_size=31))
                != config_digest(ModelConfig(vocab_size=32)))


def _tiny_model(seed=0, vocab=15):
    cfg = ModelConfig(vocab_size=vocab, variant="baseline", enc_layers=2,
                      dec_layers=1, hidden=8, heads=2, ffn=16,
                      conv_kernel=3)
    return SpeechTranslator(cfg, RngStream(seed))


def save_old_layout(path, model):
    """Write `model` in the entry layout of checkpoints from before the key
    projection lost its bias and each DLCL row became its own vector: a zero
    `...wk.bias` after every `...wk.weight`, and the `...dlcl.weights.<r>`
    rows as row r of one square `...dlcl.weights`, zero above the diagonal."""
    params, entries = model.named_parameters(), []
    for name, p in params:
        stem, _, row = name.rpartition(".")
        if stem.endswith("dlcl.weights"):
            if row == "0":
                n = sum(other.startswith(stem + ".") for other, _ in params)
                entries.append((stem, np.zeros((n, n))))
            entries[-1][1][int(row), :int(row) + 1] = p.data
            continue
        entries.append((name, p.data))
        if name.endswith("wk.weight"):
            entries.append((name[:-len("weight")] + "bias", np.zeros(p.shape[1])))
    meta = {"step": 1, "epoch": 1, **config_metadata(model.cfg)}
    save_checkpoint(path, entries, meta)


class TestModelCheckpoint:
    def test_old_layout_is_refused_naming_its_entries(self, tmp_path):
        model = _tiny_model()
        path = tmp_path / "old.ckpt"
        save_old_layout(path, model)
        names = set(load_checkpoint(path)[0])
        assert "encoder.dlcl.weights" in names
        assert "encoder.blocks.0.attn.wk.bias" in names
        model_names = {name for name, _ in model.named_parameters()}
        with pytest.raises(ValueError, match="does not match model") as exc:
            load_model(path)
        message = str(exc.value)
        assert message.startswith(f"{path}: ")
        missing, unexpected = len(model_names - names), len(names - model_names)
        assert f"{missing} missing [" in message
        head, _, listed = message.partition(f", {unexpected} unexpected [")
        assert "encoder.dlcl.weights.0" in head
        # Every unexpected name is listed, the old square DLCL matrix too.
        listed = listed.rstrip("]").split(", ")
        assert sorted(listed) == sorted(names - model_names)
        assert "encoder.dlcl.weights" in listed

    def test_save_load_preserves_values_exactly(self, tmp_path):
        model = _tiny_model()
        path = tmp_path / "m.ckpt"
        save_model(path, model, step=12, epoch=2)
        loaded, meta = load_model(path)
        assert meta["step"] == "12" and meta["epoch"] == "2"
        orig = dict(model.named_parameters())
        for name, p in loaded.named_parameters():
            # Values survive exactly at stored (float32) precision.
            np.testing.assert_array_equal(
                p.data, orig[name].data.astype(np.float32).astype(np.float64))

    @pytest.mark.parametrize("vocab, digest", [(203, "3149255329814175"),
                                               (127, "67739675e6142625")])
    def test_digest_that_looks_like_a_number_loads(self, tmp_path, vocab, digest):
        # An all-digit digest, or digits around one `e`, must stay text.
        cfg = ModelConfig(vocab_size=vocab, enc_layers=2, dec_layers=1,
                          hidden=8, heads=2, ffn=16)
        assert config_digest(cfg) == digest
        path = tmp_path / "m.ckpt"
        save_model(path, SpeechTranslator(cfg, RngStream(0)), step=1, epoch=1)
        loaded, meta = load_model(path)
        assert loaded.cfg == cfg and meta["config_digest"] == digest

    def test_adaptor_mix_embeddings_through_whole_model(self, tmp_path):
        cfg = ModelConfig(vocab_size=15, variant="sate", enc_layers=2,
                          acoustic_layers=1, dec_layers=1,
                          hidden=8, heads=2, ffn=16, conv_kernel=3,
                          adaptor_mix_embeddings=True)
        model = SpeechTranslator(cfg, RngStream(4))
        path = tmp_path / "sate.ckpt"
        save_model(path, model, step=1, epoch=1)
        mixed, _ = load_model(path)
        assert mixed.cfg.adaptor_mix_embeddings
        plain = SpeechTranslator(replace(cfg, adaptor_mix_embeddings=False),
                                 RngStream(0))
        apply_entries(plain, load_checkpoint(path)[0])
        # Round the original to the checkpoint's float32 storage precision.
        for p in model.parameters():
            p.data[...] = p.data.astype(np.float32)
        feats = Tensor(np.random.default_rng(5).normal(size=(1, 24, 80)))
        with no_grad():
            want, got, off = (m.encode(feats) for m in (model, mixed, plain))
        np.testing.assert_array_equal(got.memory.data, want.memory.data)
        np.testing.assert_array_equal(got.ctc_logits.data, want.ctc_logits.data)
        # The mix feeds only the textual stack: CTC logits come before it.
        np.testing.assert_array_equal(off.ctc_logits.data, got.ctc_logits.data)
        assert np.abs(off.memory.data - got.memory.data).max() > 1e-3

    def test_apply_entries_rejects_missing_and_extra(self, tmp_path):
        model = _tiny_model()
        entries = {n: p.data for n, p in model.named_parameters()}
        first = next(iter(entries))
        bad = dict(entries)
        del bad[first]
        with pytest.raises(ValueError, match="does not match"):
            apply_entries(model, bad)
        bad = dict(entries)
        bad["ghost"] = np.zeros(3)
        with pytest.raises(ValueError, match="does not match"):
            apply_entries(model, bad)
        # Ten names per side, then how many more.
        bad.update((f"ghost{i:02d}", np.zeros(3)) for i in range(12))
        with pytest.raises(ValueError, match=r"13 unexpected \[ghost, ghost00, .*"
                                             r"ghost08, … and 3 more\]"):
            apply_entries(model, bad)

    def test_apply_entries_rejects_shape_mismatch(self):
        model = _tiny_model()
        entries = {n: p.data.copy() for n, p in model.named_parameters()}
        first = next(iter(entries))
        entries[first] = np.zeros(entries[first].shape + (2,))
        with pytest.raises(ValueError, match="shape mismatch"):
            apply_entries(model, entries)


class TestAveraging:
    def _write(self, path, value_by_name, meta=None):
        save_checkpoint(path, [(n, np.asarray(v, dtype=np.float64))
                               for n, v in value_by_name.items()],
                        meta or {"step": 1})

    def test_mean_of_two(self, tmp_path):
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        self._write(a, {"w": [1.0, 5.0]})
        self._write(b, {"w": [3.0, 1.0]})
        avg, meta = average_checkpoints([a, b])
        np.testing.assert_array_equal(avg["w"], np.array([2.0, 3.0], np.float32))
        assert meta["averaged_count"] == 2

    def test_identical_inputs_average_bit_for_bit(self, tmp_path):
        rng = RngStream(4)
        arrays = {"w": rng.normal(size=(5, 3)), "b": rng.normal(size=4)}
        paths = []
        for i in range(6):
            p = tmp_path / f"c{i}.ckpt"
            self._write(p, arrays)
            paths.append(p)
        avg, _ = average_checkpoints(paths)
        single, _ = load_checkpoint(paths[0])
        for name in arrays:
            np.testing.assert_array_equal(avg[name], single[name])

    def test_order_invariant(self, tmp_path):
        paths = []
        rng = RngStream(9)
        for i in range(4):
            p = tmp_path / f"c{i}.ckpt"
            self._write(p, {"w": rng.normal(size=(3, 3))})
            paths.append(p)
        fwd, _ = average_checkpoints(paths)
        rev, _ = average_checkpoints(list(reversed(paths)))
        np.testing.assert_array_equal(fwd["w"], rev["w"])

    def test_incompatible_rejected(self, tmp_path):
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        self._write(a, {"w": np.zeros(3)})
        self._write(b, {"w": np.zeros(4)})
        with pytest.raises(ValueError, match="incompatible"):
            average_checkpoints([a, b])

    @pytest.mark.parametrize("change", [{"heads": 4},
                                        {"adaptor_mix_embeddings": True}])
    def test_different_model_configs_rejected(self, tmp_path, change):
        # Same parameter names and shapes, different architecture.
        model = _tiny_model()
        other = SpeechTranslator(replace(model.cfg, **change), RngStream(1))
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_model(a, model, step=1, epoch=1)
        save_model(b, other, step=1, epoch=1)
        with pytest.raises(ValueError, match="config differs") as exc:
            average_checkpoints([a, b])
        assert "a.ckpt" in str(exc.value) and "b.ckpt" in str(exc.value)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            average_checkpoints([])

    def test_final_checkpoints_window(self, tmp_path):
        for e in range(1, 13):
            (tmp_path / f"epoch{e:04d}.ckpt").write_bytes(b"x")
        (tmp_path / "notes.txt").write_bytes(b"x")
        picked = final_checkpoints(tmp_path, window=10)
        assert [p.split("epoch")[-1] for p in picked] == (
            [f"{e:04d}.ckpt" for e in range(3, 13)])
        assert len(final_checkpoints(tmp_path, window=20)) == 12
        assert len(final_checkpoints(tmp_path, window=1)) == 1
        for bad in (0, -1):
            with pytest.raises(ValueError, match="window"):
                final_checkpoints(tmp_path, window=bad)

    def test_final_checkpoints_by_epoch_number_past_four_digits(self, tmp_path):
        # As text, epoch10000.ckpt sorts before epoch9998.ckpt.
        for e in (9998, 9999, 10000):
            (tmp_path / f"epoch{e:04d}.ckpt").write_bytes(b"x")
        names = [p.split("/")[-1] for p in final_checkpoints(tmp_path, window=2)]
        assert names == ["epoch9999.ckpt", "epoch10000.ckpt"]
        assert final_checkpoints(tmp_path, window=1)[0].endswith("epoch10000.ckpt")


def _toy_samples(n=10, seed=3):
    task = ToyTaskConfig(n_symbols=5, min_len=2, max_len=4, train_size=n)
    rng = RngStream(seed)
    mapping = toy_mapping(task, rng)
    patterns = toy_patterns(task, rng)
    subwords = train_subwords([" ".join(SYMBOLS[:5])], 40)
    samples = []
    for i in range(n):
        utt_id, feats, src, tgt = toy_utterance(task, rng, f"t{i:03d}",
                                                mapping, patterns)
        samples.append(Sample(utt_id, feats, encode(subwords, src),
                              encode(subwords, tgt)))
    return samples, subwords


class TestTrainLoop:
    def test_same_seed_same_metrics(self):
        samples, _ = _toy_samples()
        cfg = TrainConfig(epochs=2, frame_budget=32, seed=1, warmup_steps=5)
        lines_a = train(_tiny_model(), samples, cfg)
        lines_b = train(_tiny_model(), samples, cfg)
        assert lines_a == lines_b
        assert any(line.startswith("step=1 ") for line in lines_a)

    def test_training_leaves_sample_features_unchanged(self):
        # SpecAugment masks a copy of each utterance, and the step stacks
        # the copies: no epoch writes into the samples a batch holds.
        samples, _ = _toy_samples()
        before = [s.features.tobytes() for s in samples]
        train(_tiny_model(), samples, TrainConfig(epochs=2, frame_budget=32,
                                                  sa_time_fraction=0.2))
        assert [s.features.tobytes() for s in samples] == before

    def test_different_seed_differs(self):
        samples, _ = _toy_samples()
        lines_a = train(_tiny_model(), samples,
                        TrainConfig(epochs=1, frame_budget=32, seed=1))
        lines_b = train(_tiny_model(), samples,
                        TrainConfig(epochs=1, frame_budget=32, seed=2))
        assert lines_a != lines_b

    def test_metrics_are_finite_and_parse(self):
        samples, _ = _toy_samples(n=6)
        lines = train(_tiny_model(), samples,
                      TrainConfig(epochs=1, frame_budget=32))
        for line in lines:
            parts = dict(kv.split("=") for kv in line.split())
            for key in ("lr", "ce", "ctc", "total"):
                assert math.isfinite(float(parts[key]))

    def test_max_steps_stops_early(self):
        samples, _ = _toy_samples()
        lines = train(_tiny_model(), samples,
                      TrainConfig(epochs=50, frame_budget=32), max_steps=3)
        steps = [line for line in lines if line.startswith("step=")]
        assert len(steps) == 3

    @pytest.mark.parametrize("max_steps", [0, -2])
    def test_max_steps_below_one_rejected(self, max_steps):
        samples, _ = _toy_samples()
        with pytest.raises(ValueError, match="max_steps must be >= 1"):
            train(_tiny_model(), samples, TrainConfig(epochs=1, frame_budget=32),
                  max_steps=max_steps)

    def test_transcripts_of_different_lengths_share_a_batch(self, monkeypatch):
        # Batches group by frames and translation length only: CTC takes
        # ragged targets.
        seen = []
        real_ctc = training.ctc_loss_batch

        def recording_ctc(log_probs, targets, *args):
            seen.append(sorted(len(t) for t in targets))
            return real_ctc(log_probs, targets, *args)

        monkeypatch.setattr(training, "ctc_loss_batch", recording_ctc)
        feats = RngStream(4).normal(0.0, 1.0, size=(2, 16, 80))
        samples = [Sample("a", feats[0], [6, 7], [8, 9]),
                   Sample("b", feats[1], [6, 7, 8], [9, 8])]
        lines = train(_tiny_model(), samples,
                      TrainConfig(epochs=1, frame_budget=64), max_steps=1)
        assert seen == [[2, 3]]
        parts = dict(kv.split("=") for kv in lines[0].split())
        assert math.isfinite(float(parts["ctc"]))

    def test_infeasible_samples_reported(self):
        samples, _ = _toy_samples(n=6)
        # Too few frames for its labels: 4 frames -> 1 output frame.
        bad = Sample("bad", np.zeros((4, 80)), [6, 7, 8], [6])
        lines = train(_tiny_model(), samples + [bad],
                      TrainConfig(epochs=1, frame_budget=32), max_steps=1)
        assert lines[0] == "dropped=1 ctc-infeasible samples"

    def test_all_infeasible_rejected(self):
        bad = Sample("bad", np.zeros((4, 80)), [6, 7, 8], [6])
        with pytest.raises(ValueError, match="no trainable samples"):
            train(_tiny_model(), [bad], TrainConfig(epochs=1, frame_budget=32))

    def test_checkpoints_written_and_resumable(self, tmp_path):
        samples, _ = _toy_samples(n=6)
        model = _tiny_model()
        train(model, samples, TrainConfig(epochs=2, frame_budget=32),
              out_dir=tmp_path)
        paths = final_checkpoints(tmp_path)
        assert [p.split("/")[-1] for p in paths] == ["epoch0001.ckpt",
                                                     "epoch0002.ckpt"]
        loaded, meta = load_model(paths[-1])
        assert meta["epoch"] == "2"
        orig = dict(model.named_parameters())
        for name, p in loaded.named_parameters():
            np.testing.assert_array_equal(
                p.data, orig[name].data.astype(np.float32).astype(np.float64))
        # Resumed run continues the epoch numbering.
        train(loaded, samples, TrainConfig(epochs=1, frame_budget=32),
              out_dir=tmp_path, start_epoch=2)
        assert (tmp_path / "epoch0003.ckpt").exists()

    def test_run_dir_with_a_later_epoch_refused_before_step_one(self, tmp_path):
        samples, _ = _toy_samples(n=6)
        model = _tiny_model()
        save_model(tmp_path / "epoch0003.ckpt", model, step=4, epoch=3)
        save_model(tmp_path / "epoch0010.ckpt", model, step=9, epoch=10)
        logged = []
        with pytest.raises(ValueError,
                           match=re.escape(f"{tmp_path} already holds epoch0003.ckpt")):
            train(model, samples, TrainConfig(epochs=2, frame_budget=32),
                  out_dir=tmp_path, log=logged.append, start_epoch=2)
        assert logged == []
        train(model, samples, TrainConfig(epochs=1, frame_budget=32),
              out_dir=tmp_path, start_epoch=10, max_steps=1)
        assert (tmp_path / "epoch0011.ckpt").exists()

    def test_step_graph_freed_before_next_forward(self, monkeypatch):
        samples, _ = _toy_samples()
        model = _tiny_model()
        losses, alive_at_forward = [], []
        real_loss, real_forward = training.multitask_loss, model.forward

        def recording_loss(*args):
            total = real_loss(*args)
            losses.append(weakref.ref(total))
            return total

        def recording_forward(*args, **kwargs):
            alive_at_forward.append([ref() is not None for ref in losses])
            return real_forward(*args, **kwargs)

        monkeypatch.setattr(training, "multitask_loss", recording_loss)
        model.forward = recording_forward
        train(model, samples, TrainConfig(epochs=1, frame_budget=32), max_steps=2)
        assert alive_at_forward == [[], [False]]

    def test_clip_norm_clips_every_step(self, monkeypatch):
        samples, _ = _toy_samples()
        seen = []

        def recording(named_params, max_norm):
            before = clip_gradients(named_params, max_norm)
            seen.append((max_norm, before, _global_norm(named_params)))
            return before

        monkeypatch.setattr(training, "clip_gradients", recording)
        train(_tiny_model(), samples, TrainConfig(epochs=1, frame_budget=32,
                                                  clip_norm=0.05), max_steps=2)
        assert len(seen) == 2
        for max_norm, before, after in seen:
            assert max_norm == 0.05 and before > 0.05
            assert abs(after - 0.05) <= 1e-12
        seen.clear()
        train(_tiny_model(), samples, TrainConfig(epochs=1, frame_budget=32),
              max_steps=1)
        assert seen == []

    def test_training_changes_parameters(self):
        samples, _ = _toy_samples(n=6)
        model = _tiny_model()
        before = {n: p.data.copy() for n, p in model.named_parameters()}
        train(model, samples, TrainConfig(epochs=1, frame_budget=32),
              max_steps=2)
        changed = sum(not np.array_equal(p.data, before[n])
                      for n, p in model.named_parameters())
        assert changed > len(before) / 2
