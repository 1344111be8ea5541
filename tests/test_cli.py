"""End-to-end smoke tests: every CLI command exercised on a small toy task."""

import re
import shlex
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from tinyst.audio import write_wav
from tinyst.cli import build_parser, main
from tinyst.config import format_value
from tinyst.data import read_manifest, write_manifest, ManifestEntry
from tinyst.decoding import DecodeConfig
from tinyst.evaluation import corpus_bleu
from tinyst.model import ModelConfig
from tinyst.rng import RngStream
from tinyst.text import normalize_for_ctc
from tinyst.toy import ToyTaskConfig
from tinyst.training import TrainConfig, load_checkpoint, load_model, save_model

from test_training import save_old_layout


# A model small enough to train a step in well under a second.
TINY_CONF = ("variant = baseline\nhidden = 8\nheads = 2\nffn = 16\n"
             "enc_layers = 2\ndec_layers = 1\nconv_kernel = 3\n"
             "epochs = 1\nframe_budget = 64\nwarmup_steps = 5\n")


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One tiny corpus, prepared data, and a briefly trained model shared by
    the command smoke tests."""
    root = tmp_path_factory.mktemp("cliws")
    corpus = root / "corpus"
    assert main(["toy-gen", "--out", str(corpus), "--train-size", "24",
                 "--dev-size", "6", "--test-size", "6", "--n-symbols", "6",
                 "--min-len", "2", "--max-len", "4", "--seed", "9"]) == 0
    prep = root / "prep"
    assert main(["prepare", "--manifest", str(corpus / "train.tsv"),
                 "--out", str(prep), "--vocab-size", "40"]) == 0
    run = root / "run"
    assert main(["train", "--manifest", str(prep / "train.tsv"),
                 "--subwords", str(prep), "--out", str(run),
                 "--variant", "baseline", "--enc-layers", "2",
                 "--dec-layers", "1", "--hidden", "8", "--heads", "2",
                 "--ffn", "16", "--conv-kernel", "3", "--epochs", "2",
                 "--frame-budget", "64", "--warmup-steps", "5"]) == 0
    return {"root": root, "corpus": corpus, "prep": prep, "run": run}


class TestDataCommands:
    def test_toy_gen_writes_manifests(self, workspace):
        for split in ("train", "dev", "test"):
            assert (workspace["corpus"] / f"{split}.tsv").exists()
        assert len(read_manifest(workspace["corpus"] / "train.tsv")) == 24

    def test_prepare_writes_subwords(self, workspace):
        assert (workspace["prep"] / "vocab.txt").exists()
        assert (workspace["prep"] / "merges.txt").exists()

    @staticmethod
    def _wav_manifest(tmp_path, ids):
        """A manifest of one WAV per row, 0.3 s of noise each, under `ids`."""
        rng = RngStream(3)
        wav_dir = tmp_path / "audio"
        wav_dir.mkdir()
        entries = []
        for i, utt_id in enumerate(ids):
            wav = wav_dir / f"wave{i}.wav"
            write_wav(wav, rng.uniform(-0.3, 0.3, size=4800), 16000)
            entries.append(ManifestEntry(utt_id, str(wav), 0, "aa bb", "bb aa"))
        manifest = tmp_path / "raw.tsv"
        write_manifest(manifest, entries)
        return manifest

    def test_prepare_extracts_wav(self, tmp_path):
        manifest = self._wav_manifest(tmp_path, ["u0", "u1"])
        out = tmp_path / "prep"
        assert main(["prepare", "--manifest", str(manifest), "--out", str(out),
                     "--vocab-size", "20"]) == 0
        prepared = read_manifest(out / "raw.tsv")
        assert len(prepared) == 2
        assert all(e.features.endswith(".feat") for e in prepared)
        assert all(e.n_frames == 28 for e in prepared)  # 1+(4800-400)//160

    def test_prepare_rejects_repeated_id_before_writing(self, tmp_path, capsys):
        # Both rows would share features/u1.feat, the second WAV's frames.
        manifest = self._wav_manifest(tmp_path, ["u1", "u1"])
        out = tmp_path / "prep"
        assert main(["prepare", "--manifest", str(manifest), "--out", str(out),
                     "--vocab-size", "20"]) == 1
        assert "raw.tsv:3: utterance id 'u1' repeats line 2" in capsys.readouterr().err
        assert not out.exists()


class TestTrainCommands:
    def test_train_writes_checkpoints_and_metrics(self, workspace):
        run = workspace["run"]
        assert (run / "epoch0001.ckpt").exists()
        assert (run / "epoch0002.ckpt").exists()
        lines = (run / "metrics.log").read_text().splitlines()
        assert lines and all(line.startswith("step=") for line in lines)

    def test_config_file_with_flag_override(self, workspace, tmp_path):
        conf = tmp_path / "tiny.conf"
        conf.write_text(TINY_CONF + "sa_freq_masks = 0\nsa_time_masks = 0\n")
        out = tmp_path / "run"
        assert main(["train", "--manifest", str(workspace["prep"] / "train.tsv"),
                     "--subwords", str(workspace["prep"]), "--out", str(out),
                     "--config", str(conf), "--hidden", "16",
                     "--max-steps", "2"]) == 0
        model, _ = load_model(out / "epoch0001.ckpt")
        assert model.cfg.hidden == 16       # flag wins
        assert model.cfg.enc_layers == 2    # file wins over default

    def test_unknown_config_key_rejected(self, workspace, tmp_path, capsys):
        conf = tmp_path / "bad.conf"
        conf.write_text("bogus_key = 3\n")
        code = main(["train", "--manifest", str(workspace["prep"] / "train.tsv"),
                     "--subwords", str(workspace["prep"]),
                     "--out", str(tmp_path / "x"), "--config", str(conf)])
        assert code == 1
        assert "bogus_key" in capsys.readouterr().err

    def _train_with_config(self, workspace, tmp_path, text, base=TINY_CONF):
        conf = tmp_path / "run.conf"
        conf.write_text(base + text)
        return main(["train", "--manifest", str(workspace["prep"] / "train.tsv"),
                     "--subwords", str(workspace["prep"]),
                     "--out", str(tmp_path / "run"), "--config", str(conf),
                     "--max-steps", "1"])

    @pytest.mark.parametrize("spelling, value", [("no", False), ("0", False),
                                                 ("False", False), ("yes", True)])
    def test_config_bool_spellings(self, workspace, tmp_path, spelling, value):
        assert self._train_with_config(
            workspace, tmp_path, f"adaptor_mix_embeddings = {spelling}\n") == 0
        model, _ = load_model(tmp_path / "run" / "epoch0001.ckpt")
        assert model.cfg.adaptor_mix_embeddings is value

    def test_config_value_of_wrong_type_names_key_and_file(
            self, workspace, tmp_path, capsys):
        assert self._train_with_config(workspace, tmp_path, "hidden = 2.5\n",
                                       TINY_CONF.replace("hidden = 8\n", "")) == 1
        err = capsys.readouterr().err
        assert "hidden = 2.5" in err and "run.conf" in err
        assert "divisible" not in err

    def test_bad_training_value_fails_before_data_loads(
            self, workspace, tmp_path, capsys):
        for flag, value, name in (("--warmup-steps", "0", "warmup_steps"),
                                  ("--sa-freq-masks", "-1", "sa_freq_masks")):
            code = main(["train", "--manifest", str(tmp_path / "missing.tsv"),
                         "--subwords", str(workspace["prep"]),
                         "--out", str(tmp_path / "x"), flag, value])
            assert code == 1
            err = capsys.readouterr().err
            assert name in err and "missing.tsv" not in err

    @pytest.mark.parametrize("command", ["train", "finetune"])
    @pytest.mark.parametrize("steps", ["0", "-2"])
    def test_max_steps_below_one_leaves_no_run_directory(
            self, workspace, tmp_path, capsys, command, steps):
        source = (["--checkpoint", str(workspace["run"] / "epoch0002.ckpt")]
                  if command == "finetune" else [])
        out = tmp_path / "run"
        code = main([command, *source,
                     "--manifest", str(workspace["prep"] / "train.tsv"),
                     "--subwords", str(workspace["prep"]), "--out", str(out),
                     "--max-steps", steps])
        assert code == 1
        assert "max_steps" in capsys.readouterr().err
        assert not out.exists()

    def test_finetune_rejects_model_keys(self, workspace, tmp_path, capsys):
        conf = tmp_path / "ft.conf"
        conf.write_text("hidden = 16\nepochs = 1\n")
        code = main(["finetune", "--checkpoint",
                     str(workspace["run"] / "epoch0002.ckpt"),
                     "--manifest", str(workspace["prep"] / "train.tsv"),
                     "--subwords", str(workspace["prep"]),
                     "--out", str(tmp_path / "ft"), "--config", str(conf)])
        assert code == 1
        err = capsys.readouterr().err
        assert "hidden" in err and "checkpoint fixes the architecture" in err
        assert not (tmp_path / "ft").exists()

    def test_finetune_resumes_epoch_numbering(self, workspace, tmp_path):
        out = tmp_path / "ft"
        assert main(["finetune", "--checkpoint",
                     str(workspace["run"] / "epoch0002.ckpt"),
                     "--manifest", str(workspace["prep"] / "train.tsv"),
                     "--subwords", str(workspace["prep"]), "--out", str(out),
                     "--epochs", "1", "--max-steps", "2"]) == 0
        assert (out / "epoch0003.ckpt").exists()

    @pytest.mark.parametrize("command", ["train", "finetune"])
    def test_run_dir_with_a_later_epoch_is_refused_untouched(
            self, workspace, tmp_path, capsys, command):
        # finetune starts after epoch 2 of its checkpoint, train after 0;
        # epoch0003.ckpt is stale from an earlier run into the same directory.
        run = tmp_path / "run"
        run.mkdir()
        (run / "epoch0003.ckpt").write_bytes(
            (workspace["run"] / "epoch0002.ckpt").read_bytes())
        (run / "metrics.log").write_text("step=1 from the earlier run\n")
        conf = tmp_path / "tiny.conf"
        conf.write_text(TINY_CONF if command == "train" else "epochs = 1\n")
        source = (["--checkpoint", str(workspace["run"] / "epoch0002.ckpt")]
                  if command == "finetune" else [])
        code = main([command, *source,
                     "--manifest", str(workspace["prep"] / "train.tsv"),
                     "--subwords", str(workspace["prep"]), "--out", str(run),
                     "--config", str(conf), "--max-steps", "1"])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{run} already holds epoch0003.ckpt" in err
        assert sorted(p.name for p in run.iterdir()) == ["epoch0003.ckpt",
                                                         "metrics.log"]
        assert (run / "metrics.log").read_text() == "step=1 from the earlier run\n"

    def test_finetune_from_average_continues_after_newest_source(
            self, workspace, tmp_path):
        model, _ = load_model(workspace["run"] / "epoch0002.ckpt")
        run = tmp_path / "run"
        run.mkdir()
        for epoch in (3, 4, 5):
            save_model(run / f"epoch{epoch:04d}.ckpt", model, step=10 * epoch,
                       epoch=epoch)
        sources = {p.name: p.read_bytes() for p in run.iterdir()}
        avg = run / "avg.ckpt"
        assert main(["average", "--run-dir", str(run), "--out", str(avg)]) == 0
        _, meta = load_checkpoint(avg)
        assert (meta["epoch"], meta["step"]) == ("5", "50")
        assert main(["finetune", "--checkpoint", str(avg),
                     "--manifest", str(workspace["prep"] / "train.tsv"),
                     "--subwords", str(workspace["prep"]), "--out", str(run),
                     "--epochs", "1", "--max-steps", "2"]) == 0
        assert (run / "epoch0006.ckpt").exists()
        assert all((run / name).read_bytes() == data
                   for name, data in sources.items())


class TestDecodeCommands:
    def test_average_then_decode(self, workspace, tmp_path):
        avg = tmp_path / "avg.ckpt"
        assert main(["average", "--run-dir", str(workspace["run"]),
                     "--out", str(avg)]) == 0
        hyp = tmp_path / "dev.hyp"
        assert main(["decode", "--checkpoint", str(avg),
                     "--manifest", str(workspace["corpus"] / "dev.tsv"),
                     "--subwords", str(workspace["prep"]),
                     "--beam", "2", "--out", str(hyp)]) == 0
        lines = hyp.read_text().splitlines()
        assert len(lines) == 6
        for line in lines:
            utt_id, text, score = line.split("\t")
            assert utt_id.startswith("dev-")
            float(score)

    @pytest.mark.parametrize("window", ["0", "-1"])
    def test_average_rejects_window_below_one(self, workspace, tmp_path, capsys,
                                              window):
        avg = tmp_path / "avg.ckpt"
        assert main(["average", "--run-dir", str(workspace["run"]),
                     "--window", window, "--out", str(avg)]) == 1
        assert "window" in capsys.readouterr().err
        assert not avg.exists()

    def test_decode_rejects_negative_extra_len(self, workspace, tmp_path, capsys):
        assert main(["decode", "--checkpoint",
                     str(workspace["run"] / "epoch0002.ckpt"),
                     "--manifest", str(workspace["corpus"] / "dev.tsv"),
                     "--subwords", str(workspace["prep"]), "--extra-len", "-100",
                     "--out", str(tmp_path / "dev.hyp")]) == 1
        assert "extra_len" in capsys.readouterr().err
        assert not (tmp_path / "dev.hyp").exists()

    def test_ensemble_decode_accepts_six_models(self, workspace, tmp_path):
        ckpt = str(workspace["run"] / "epoch0002.ckpt")
        single = tmp_path / "single.hyp"
        six = tmp_path / "six.hyp"
        assert main(["decode", "--checkpoint", ckpt,
                     "--manifest", str(workspace["corpus"] / "dev.tsv"),
                     "--subwords", str(workspace["prep"]),
                     "--beam", "2", "--out", str(single)]) == 0
        assert main(["decode", "--checkpoint"] + [ckpt] * 6
                    + ["--manifest", str(workspace["corpus"] / "dev.tsv"),
                       "--subwords", str(workspace["prep"]),
                       "--beam", "2", "--out", str(six)]) == 0
        # The same checkpoint six times decodes exactly like one copy.
        strip = lambda path: [ln.rsplit("\t", 1)[0]
                              for ln in path.read_text().splitlines()]
        assert strip(six) == strip(single)

    def test_ctc_decode(self, workspace, tmp_path):
        out = tmp_path / "dev.ctc"
        assert main(["ctc-decode", "--checkpoint",
                     str(workspace["run"] / "epoch0002.ckpt"),
                     "--manifest", str(workspace["corpus"] / "dev.tsv"),
                     "--subwords", str(workspace["prep"]),
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 6
        assert all(len(line.split("\t")) == 2 for line in lines)

    def test_bleu_command(self, workspace, tmp_path, capsys):
        # Score the references against themselves: BLEU = 100.00.
        entries = read_manifest(workspace["corpus"] / "dev.tsv")
        hyp = tmp_path / "perfect.hyp"
        hyp.write_text("".join(f"{e.utt_id}\t{e.translation}\t0.0\n"
                               for e in entries))
        assert main(["bleu", "--hyp", str(hyp),
                     "--ref", str(workspace["corpus"] / "dev.tsv")]) == 0
        assert "BLEU = 100.00" in capsys.readouterr().out

    def test_bleu_scores_ctc_output_against_transcripts(self, workspace, tmp_path,
                                                        capsys):
        ctc = tmp_path / "dev.ctc"
        dev = workspace["corpus"] / "dev.tsv"
        assert main(["ctc-decode", "--checkpoint",
                     str(workspace["run"] / "epoch0002.ckpt"),
                     "--manifest", str(dev), "--subwords", str(workspace["prep"]),
                     "--out", str(ctc)]) == 0
        capsys.readouterr()
        assert main(["bleu", "--hyp", str(ctc), "--ref", str(dev),
                     "--field", "transcript"]) == 0
        hyps = [line.split("\t")[1] for line in ctc.read_text().splitlines()]
        refs = [normalize_for_ctc(e.transcript) for e in read_manifest(dev)]
        want = corpus_bleu(hyps, refs)
        assert capsys.readouterr().out == f"BLEU = {want:.2f}\n"

    def test_bleu_repeated_hypothesis_id_fails(self, workspace, tmp_path, capsys):
        entries = read_manifest(workspace["corpus"] / "dev.tsv")
        lines = [f"{e.utt_id}\t{e.translation}\t0.0\n" for e in entries]
        hyp = tmp_path / "twice.hyp"
        hyp.write_text("".join(lines + lines[:1]))
        code = main(["bleu", "--hyp", str(hyp),
                     "--ref", str(workspace["corpus"] / "dev.tsv")])
        assert code == 1
        assert (f"twice.hyp:{len(lines) + 1}: hypothesis id '{entries[0].utt_id}' "
                f"repeats line 1") in capsys.readouterr().err

    def test_bleu_hypothesis_id_not_in_reference_fails(self, workspace, tmp_path,
                                                       capsys):
        dev = workspace["corpus"] / "dev.tsv"
        entries = read_manifest(dev)
        lines = [f"{e.utt_id}\t{e.translation}\t0.0\n" for e in entries]
        hyp = tmp_path / "extra.hyp"
        hyp.write_text("".join(lines + ["not-in-dev\tsome words\t0.0\n"]))
        code = main(["bleu", "--hyp", str(hyp), "--ref", str(dev)])
        assert code == 1
        assert (f"extra.hyp:{len(lines) + 1}: hypothesis id 'not-in-dev' "
                f"not in {dev}") in capsys.readouterr().err

    def test_bleu_missing_hypothesis_fails(self, workspace, tmp_path, capsys):
        hyp = tmp_path / "partial.hyp"
        hyp.write_text("dev-00000\tsome text\t0.0\n")
        code = main(["bleu", "--hyp", str(hyp),
                     "--ref", str(workspace["corpus"] / "dev.tsv")])
        assert code == 1
        assert "missing" in capsys.readouterr().err


class TestCheckCommands:
    def test_ctc_oracle(self, capsys):
        assert main(["ctc-oracle", "--trials", "2"]) == 0
        assert "enumeration" in capsys.readouterr().out

    def test_gradcheck_op_sweep(self, capsys):
        # The op sweep runs in milliseconds; the whole-model check is
        # exercised by the acceptance suite.
        assert main(["gradcheck", "--skip-model"]) == 0
        out = capsys.readouterr().out
        assert "op conv1d" in out and "max relative error" in out

    @pytest.mark.parametrize("trials", ["0", "-4"])
    def test_ctc_oracle_without_trials_is_an_error(self, trials, capsys):
        assert main(["ctc-oracle", "--trials", trials]) == 1
        assert "trials must be >= 1" in capsys.readouterr().err

    def test_gradcheck_always_runs_the_op_sweep(self):
        # With the sweep skippable, `--skip-ops --skip-model` checked nothing
        # and still passed.
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", "--skip-ops", "--skip-model"])
        assert exc.value.code == 2

    def test_failing_threshold_exits_nonzero(self, capsys):
        code = main(["ctc-oracle", "--trials", "1", "--threshold", "1e-20"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestFlags:
    @pytest.mark.parametrize("command, cls", [
        ("train", ModelConfig), ("train", TrainConfig),
        ("finetune", TrainConfig), ("toy-gen", ToyTaskConfig),
        ("decode", DecodeConfig)])
    def test_every_field_is_a_flag_showing_its_default(self, command, cls,
                                                       capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        for f in fields(cls):
            if f.name == "vocab_size":
                continue
            flag = "--" + f.name.replace("_", "-")
            # "--flag TYPE description (default)"
            entry = re.search(rf"{flag} [A-Z]+ [^()]*\(([^()]*)\)", text)
            assert entry and entry.group(1) == format_value(f.default), flag


def readme_commands() -> list:
    """Every `tinyst ...` line of README.md's sh blocks, continuations joined."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", readme, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.strip().startswith("tinyst "):
                commands.append(shlex.split(line, comments=True)[1:])
    return commands


class TestReadme:
    def test_readme_commands_parse(self):
        commands = readme_commands()
        assert len(commands) >= 8
        parser = build_parser()
        for argv in commands:
            parser.parse_args(argv)  # exits 2 on an unknown flag


class TestExitCodes:
    def test_usage_errors_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["bogus-command"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_runtime_error_exits_1_with_diagnostic(self, tmp_path, capsys):
        code = main(["decode", "--checkpoint", str(tmp_path / "missing.ckpt"),
                     "--manifest", str(tmp_path / "missing.tsv"),
                     "--subwords", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["decode", "finetune"])
    def test_old_layout_checkpoint_exits_1_naming_entries(
            self, workspace, tmp_path, capsys, command):
        old = tmp_path / "old.ckpt"
        save_old_layout(old, load_model(workspace["run"] / "epoch0002.ckpt")[0])
        args = {"decode": ["--manifest", str(workspace["corpus"] / "dev.tsv"),
                           "--out", str(tmp_path / "dev.hyp")],
                "finetune": ["--manifest", str(workspace["prep"] / "train.tsv"),
                             "--out", str(tmp_path / "ft"), "--epochs", "1"]}
        code = main([command, "--checkpoint", str(old),
                     "--subwords", str(workspace["prep"]), *args[command]])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: checkpoint does not match model")
        assert err.count("\n") == 1 and "wk.bias" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["old.ckpt"]
