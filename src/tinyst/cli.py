"""Command-line entry points for the full workflow: generate or prepare
data, train, average checkpoints, decode with one model or an ensemble
(`decode --checkpoint A [B ...]`), score, and run the numeric self-checks.
`prepare` always drops utterances outside 5..3000 frames; `average` averages
the last `--window` epoch checkpoints of `--run-dir`.

Every command exits 0 on success and 1 with a one-line `error: ...`
diagnostic on failure; argparse reports usage problems with exit code 2.

The settings of `ModelConfig`, `TrainConfig`, `ToyTaskConfig` and
`DecodeConfig` are declared only in those dataclasses.  Each field with a
default becomes a flag (`enc_layers` -> `--enc-layers`) of its field's type,
showing the field's default in `--help`; bool flags take true/false, yes/no
or 1/0.  `train` and `finetune` also read a flat `key = value` config file
whose keys are the field names, converted the same way.  Explicit flags
override file values, which override the dataclass defaults.  `finetune`
takes training keys only: the checkpoint fixes the architecture.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

from .audio import (FrontendConfig, filter_utterances, logmel, read_wav,
                    save_features)
from .checks import ctc_oracle_sweep, op_gradcheck_sweep, tiny_multitask_gradcheck
from .config import converter, format_value, parse_settings, read_config, settings
from .data import ManifestEntry, load_dataset, read_manifest, write_manifest
from .decoding import (
    DecodeConfig,
    beam_search,
    ctc_greedy_decode,
    encode_for_decoding,
)
from .evaluation import corpus_bleu
from .model import VARIANTS, ModelConfig, SpeechTranslator
from .rng import RngStream
from .text import (
    decode as subword_decode,
    load_subwords,
    normalize_for_ctc,
    save_subwords,
    train_subwords,
)
from .toy import ToyTaskConfig, toy_generate
from .training import (
    TrainConfig,
    average_checkpoints,
    check_run_dir,
    final_checkpoints,
    load_model,
    save_checkpoint,
    train,
)

# A short description for each field whose name does not already say what
# it sets.  A flag's type and shown default come from its dataclass field.
FIELD_HELP = {
    # ModelConfig
    "variant": "encoder recipe: " + ", ".join(VARIANTS),
    "enc_layers": "total encoder layers",
    "acoustic_layers": "sate: layers before the CTC head; the rest follow the "
                       "adaptor",
    "ffn": "feed-forward width",
    "dropout": "rate for every dropout in the model",
    "rpe_enc_max": "encoder relative-offset clip",
    "rpe_dec_max": "decoder relative-offset clip",
    "conv_kernel": "conformer depthwise kernel",
    "adaptor_mix_embeddings": "sate adaptor adds CTC-weighted embeddings",
    # TrainConfig
    "frame_budget": "max feature frames per batch",
    "base_lr": "peak learning rate; finetune defaults to a tenth of it",
    "clip_norm": "global gradient-norm clip, 0 disables",
    "alpha": "CTC weight in the multitask loss",
    "epsilon_ls": "label smoothing mass",
    "sa_freq_masks": "SpecAugment frequency masks; 0 frequency and 0 time "
                     "masks disable SpecAugment",
    "sa_freq_width": "max width of each frequency mask, at most 80",
    "sa_time_masks": "SpecAugment time masks",
    "sa_time_fraction": "max time-mask width as a fraction of the frames",
    # ToyTaskConfig
    "n_symbols": "alphabet size",
    "min_len": "fewest symbols per utterance",
    "max_len": "most symbols per utterance",
    "identity_mapping": "translation repeats the transcript",
    "reverse": "translation reverses the mapped sequence",
    # DecodeConfig
    "lennorm_beta": "length-normalization exponent",
    "max_len_factor": "output length cap per encoder frame",
    "extra_len": "tokens added to the output length cap, >= 0",
}


def _add_flags(p: argparse.ArgumentParser, cls):
    g = p.add_argument_group(cls.__name__)
    for f, typ in settings(cls):
        about = FIELD_HELP.get(f.name, "")
        g.add_argument("--" + f.name.replace("_", "-"), type=converter(typ),
                       metavar=typ.__name__.upper(),
                       help=f"{about} ({format_value(f.default)})".strip())


def _config_file(args, classes) -> dict:
    """The `--config` file's values for the fields of `classes`, each
    converted as its flag would convert it."""
    if not args.config:
        return {}
    types = {f.name: typ for cls in classes for f, typ in settings(cls)}
    return parse_settings(read_config(args.config), types, args.config)


def _merged(args, cls, file_values: dict) -> dict:
    """Keyword arguments for `cls`: each field's flag if given, else its
    config-file value; fields set by neither keep the dataclass default."""
    out = {}
    for f, _ in settings(cls):
        value = getattr(args, f.name)
        if value is None:
            value = file_values.get(f.name)
        if value is not None:
            out[f.name] = value
    return out


def _check_vocab(model: SpeechTranslator, subwords, source: str):
    if model.cfg.vocab_size != len(subwords.vocab):
        raise ValueError(f"{source}: model vocabulary size {model.cfg.vocab_size} "
                         f"does not match subword model ({len(subwords.vocab)})")


# -- commands -----------------------------------------------------------------


def cmd_toy_gen(args) -> int:
    cfg = ToyTaskConfig(**_merged(args, ToyTaskConfig, {}))
    os.makedirs(args.out, exist_ok=True)
    paths = toy_generate(cfg, RngStream(args.seed), args.out)
    for split in ("train", "dev", "test"):
        print(f"{split}: {paths[split]}")
    return 0


def cmd_prepare(args) -> int:
    entries = read_manifest(args.manifest)
    base = os.path.dirname(os.path.abspath(args.manifest))
    os.makedirs(args.out, exist_ok=True)
    frontend = FrontendConfig()
    prepared = []
    extracted = 0
    for e in entries:
        src = e.features if os.path.isabs(e.features) else os.path.join(base, e.features)
        if src.endswith(".wav"):
            waveform, rate = read_wav(src)
            if rate != frontend.sample_rate:
                raise ValueError(f"{e.utt_id}: expected {frontend.sample_rate} Hz "
                                 f"audio, got {rate}")
            feats = logmel(waveform, frontend)
            feat_dir = os.path.join(args.out, "features")
            os.makedirs(feat_dir, exist_ok=True)
            out_path = os.path.join(feat_dir, f"{e.utt_id}.feat")
            save_features(out_path, feats)
            prepared.append(ManifestEntry(e.utt_id, os.path.abspath(out_path),
                                          feats.shape[0], e.transcript,
                                          e.translation))
            extracted += 1
        else:
            prepared.append(ManifestEntry(e.utt_id, src, e.n_frames,
                                          e.transcript, e.translation))
    kept = filter_utterances(prepared)
    manifest_out = os.path.join(args.out, os.path.basename(args.manifest))
    write_manifest(manifest_out, kept)
    corpus = ([normalize_for_ctc(e.transcript) for e in kept]
              + [e.translation for e in kept])
    subwords = train_subwords(corpus, args.vocab_size)
    save_subwords(subwords, args.out)
    print(f"extracted={extracted} kept={len(kept)} "
          f"dropped={len(prepared) - len(kept)} vocab={len(subwords.vocab)}")
    print(f"manifest: {manifest_out}")
    return 0


def _run_training(args, model, subwords, cfg: TrainConfig, start_epoch: int) -> int:
    if args.max_steps is not None and args.max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {args.max_steps}")
    check_run_dir(args.out, start_epoch)
    samples = load_dataset(args.manifest, subwords)
    os.makedirs(args.out, exist_ok=True)
    metrics_path = os.path.join(args.out, "metrics.log")
    with open(metrics_path, "a", encoding="utf-8") as metrics:
        def log(line):
            print(line)
            metrics.write(line + "\n")
        train(model, samples, cfg, out_dir=args.out, log=log,
              max_steps=args.max_steps, start_epoch=start_epoch)
    finals = final_checkpoints(args.out)
    print(f"checkpoints: {len(finals)} in {args.out} (last {finals[-1]})")
    return 0


def cmd_train(args) -> int:
    file_values = _config_file(args, (ModelConfig, TrainConfig))
    cfg = TrainConfig(**_merged(args, TrainConfig, file_values))
    subwords = load_subwords(args.subwords)
    model_cfg = ModelConfig(vocab_size=len(subwords.vocab),
                            **_merged(args, ModelConfig, file_values))
    model = SpeechTranslator(model_cfg, RngStream(cfg.seed))
    return _run_training(args, model, subwords, cfg, start_epoch=0)


def cmd_finetune(args) -> int:
    file_values = _config_file(args, (ModelConfig, TrainConfig))
    fixed = sorted(set(file_values) - {f.name for f in fields(TrainConfig)})
    if fixed:
        raise ValueError(f"{args.config}: model keys {fixed} cannot be set on "
                         f"finetune; the checkpoint fixes the architecture")
    # Fine-tuning continues at a tenth of the usual peak rate.
    cfg = TrainConfig(**{"base_lr": TrainConfig.base_lr / 10.0,
                         **_merged(args, TrainConfig, file_values)})
    model, meta = load_model(args.checkpoint)
    subwords = load_subwords(args.subwords)
    _check_vocab(model, subwords, args.checkpoint)
    return _run_training(args, model, subwords, cfg,
                         start_epoch=int(meta.get("epoch", 0)))


def cmd_average(args) -> int:
    paths = final_checkpoints(args.run_dir, window=args.window)
    if not paths:
        raise ValueError(f"no epoch checkpoints under {args.run_dir}")
    averaged, meta = average_checkpoints(paths)
    save_checkpoint(args.out, sorted(averaged.items()), meta)
    print(f"averaged {len(paths)} checkpoints -> {args.out}")
    return 0


def cmd_decode(args) -> int:
    cfg = DecodeConfig(**_merged(args, DecodeConfig, {}))
    subwords = load_subwords(args.subwords)
    loaded = []
    for path in args.checkpoint:
        model, _ = load_model(path)
        _check_vocab(model, subwords, path)
        loaded.append(model)
    samples = load_dataset(args.manifest, subwords, apply_length_filter=False)
    lines = []
    for sample in samples:
        pairs = [(m, encode_for_decoding(m, sample.features)) for m in loaded]
        best = beam_search(pairs, cfg)[0]
        text = subword_decode(subwords, best.tokens)
        lines.append(f"{sample.utt_id}\t{text}\t{best.norm_score:.6f}")
    _emit(lines, args.out)
    return 0


def _emit(lines, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write("".join(line + "\n" for line in lines))
        print(f"wrote {len(lines)} lines to {out_path}")
    else:
        for line in lines:
            print(line)


def cmd_ctc_decode(args) -> int:
    subwords = load_subwords(args.subwords)
    model, _ = load_model(args.checkpoint)
    _check_vocab(model, subwords, args.checkpoint)
    samples = load_dataset(args.manifest, subwords, apply_length_filter=False)
    lines = []
    for sample in samples:
        enc = encode_for_decoding(model, sample.features)
        ids = ctc_greedy_decode(enc.ctc_logits.data[0])
        lines.append(f"{sample.utt_id}\t{subword_decode(subwords, ids)}")
    _emit(lines, args.out)
    return 0


def cmd_bleu(args) -> int:
    hyp_of, line_of = {}, {}
    with open(args.hyp, encoding="utf-8") as fh:
        for n, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            cols = line.split("\t")
            if cols[0] in line_of:
                raise ValueError(f"{args.hyp}:{n}: hypothesis id {cols[0]!r} "
                                 f"repeats line {line_of[cols[0]]}")
            line_of[cols[0]] = n
            hyp_of[cols[0]] = cols[1] if len(cols) > 1 else ""
    entries = read_manifest(args.ref)
    missing = [e.utt_id for e in entries if e.utt_id not in hyp_of]
    if missing:
        raise ValueError(f"hypotheses missing for {missing[:3]} "
                         f"({len(missing)} total)")
    refs = []
    hyps = []
    for e in entries:
        text = e.transcript if args.field == "transcript" else e.translation
        if args.field == "transcript":
            text = normalize_for_ctc(text)
        refs.append(text)
        hyps.append(hyp_of[e.utt_id])
    score = corpus_bleu(hyps, refs)
    print(f"BLEU = {score:.2f}")
    return 0


def cmd_gradcheck(args) -> int:
    worst_name, worst = "", 0.0
    for name, err in op_gradcheck_sweep(seed=args.seed).items():
        print(f"op {name}: {err:.3e}")
        if err > worst:
            worst_name, worst = name, err
    if not args.skip_model:
        model_err = tiny_multitask_gradcheck(seed=args.seed)
        print(f"tiny multitask model: {model_err:.3e}")
        if model_err > worst:
            worst_name, worst = "tiny multitask model", model_err
    print(f"max relative error: {worst:.3e} ({worst_name})")
    if worst >= args.threshold:
        raise ValueError(f"gradient check failed: {worst:.3e} >= {args.threshold}")
    return 0


def cmd_ctc_oracle(args) -> int:
    worst = ctc_oracle_sweep(trials=args.trials, seed=args.seed)
    print(f"max |recurrence - enumeration|: {worst:.3e}")
    if worst >= args.threshold:
        raise ValueError(f"CTC oracle check failed: {worst:.3e} >= {args.threshold}")
    return 0


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tinyst",
        description="End-to-end speech translation at desk scale.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("toy-gen", help="generate the synthetic substitution task")
    p.add_argument("--out", required=True, help="output corpus directory")
    p.add_argument("--seed", type=int, default=17)
    _add_flags(p, ToyTaskConfig)
    p.set_defaults(func=cmd_toy_gen)

    p = sub.add_parser("prepare",
                       help="extract features, filter lengths, train subwords")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--vocab-size", type=int, default=1000)
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--manifest", required=True)
    p.add_argument("--subwords", required=True,
                   help="directory holding vocab.txt and merges.txt")
    p.add_argument("--out", required=True, help="run directory for checkpoints")
    p.add_argument("--config", help="flat key = value settings file")
    p.add_argument("--max-steps", type=int,
                   help="stop after this many optimizer steps, >= 1")
    _add_flags(p, ModelConfig)
    _add_flags(p, TrainConfig)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("finetune",
                       help="continue training a checkpoint at reduced lr")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--subwords", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="flat key = value training settings file")
    p.add_argument("--max-steps", type=int,
                   help="stop after this many optimizer steps, >= 1")
    _add_flags(p, TrainConfig)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("average", help="average the final checkpoints of a run")
    p.add_argument("--run-dir", required=True,
                   help="directory with epochNNNN.ckpt files")
    p.add_argument("--window", type=int, default=10,
                   help="how many final checkpoints to average, >= 1 (10)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_average)

    p = sub.add_parser("decode",
                       help="beam-search translate with one model or an ensemble")
    p.add_argument("--checkpoint", nargs="+", required=True,
                   help="one checkpoint, or several to decode as an ensemble")
    p.add_argument("--manifest", required=True)
    p.add_argument("--subwords", required=True)
    p.add_argument("--out", help="write id<TAB>text<TAB>score lines here "
                                 "instead of stdout")
    _add_flags(p, DecodeConfig)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("ctc-decode",
                       help="greedy CTC transcription from the encoder")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--subwords", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_ctc_decode)

    p = sub.add_parser("bleu", help="score decode output against a manifest")
    p.add_argument("--hyp", required=True, help="id<TAB>text[<TAB>score] lines")
    p.add_argument("--ref", required=True, help="reference manifest")
    p.add_argument("--field", choices=["translation", "transcript"],
                   default="translation",
                   help="manifest column to score against (transcript is "
                        "normalized the way CTC targets are)")
    p.set_defaults(func=cmd_bleu)

    p = sub.add_parser("gradcheck",
                       help="numeric-vs-analytic gradient verification")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threshold", type=float, default=1e-4)
    p.add_argument("--skip-model", action="store_true",
                   help="check only the per-op sweep (fast)")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("ctc-oracle",
                       help="CTC recurrence vs brute-force enumeration")
    p.add_argument("--trials", type=int, default=100,
                   help="random distributions per shape combination, "
                        ">= 1 (100)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threshold", type=float, default=1e-8)
    p.set_defaults(func=cmd_ctc_oracle)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # one-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
