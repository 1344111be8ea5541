"""Command-line entry points for the full workflow: generate or prepare
data, train, average checkpoints, decode with one model or an ensemble
(`decode --checkpoint A [B ...]`), score, and run the numeric self-checks.

Every command exits 0 on success and 1 with a one-line `error: ...`
diagnostic on failure; argparse reports usage problems with exit code 2.
Commands that train accept a flat `key = value` config file; explicit flags
override file values, which override built-in defaults.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

from .audio import FrontendConfig, logmel, read_wav, save_features
from .checks import ctc_oracle_sweep, op_gradcheck_sweep, tiny_multitask_gradcheck
from .config import read_config
from .data import ManifestEntry, load_dataset, read_manifest, write_manifest
from .decoding import (
    DecodeConfig,
    beam_search,
    ctc_greedy_decode,
    encode_for_decoding,
)
from .evaluation import corpus_bleu
from .model import ModelConfig, SpeechTranslator
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
    final_checkpoints,
    load_model,
    save_checkpoint,
    train,
)

MODEL_KEYS = tuple(f.name for f in fields(ModelConfig) if f.name != "vocab_size")
TRAIN_KEYS = tuple(f.name for f in fields(TrainConfig))


def _bool_flag(text: str) -> bool:
    low = text.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected true/false, got {text!r}")


def _add_model_flags(p: argparse.ArgumentParser):
    g = p.add_argument_group("model", "architecture (defaults in parentheses)")
    g.add_argument("--variant", choices=["baseline", "conformer", "conformer_rpe",
                                         "sate"],
                   help="encoder recipe (baseline)")
    for name, help_text in [
        ("enc-layers", "total encoder layers (12)"),
        ("dec-layers", "decoder layers (6)"),
        ("acoustic-layers", "sate: layers before the CTC head (8)"),
        ("textual-layers", "sate: layers after the adaptor (4)"),
        ("hidden", "model width (256)"),
        ("heads", "attention heads (4)"),
        ("ffn", "feed-forward width (2048)"),
        ("rpe-enc-max", "encoder relative-offset clip (100)"),
        ("rpe-dec-max", "decoder relative-offset clip (20)"),
        ("conv-kernel", "conformer depthwise kernel (7)"),
    ]:
        g.add_argument(f"--{name}", type=int, help=help_text)
    for name, help_text in [
        ("dropout", "residual dropout (0.1)"),
        ("attn-dropout", "attention dropout (0.1)"),
        ("act-dropout", "feed-forward dropout (0.1)"),
    ]:
        g.add_argument(f"--{name}", type=float, help=help_text)
    for name, help_text in [
        ("dlcl", "learned combination of layer outputs (true)"),
        ("adaptor-mix-embeddings", "adaptor adds CTC-weighted embeddings (false)"),
    ]:
        g.add_argument(f"--{name}", type=_bool_flag, metavar="BOOL", help=help_text)


def _add_train_flags(p: argparse.ArgumentParser):
    g = p.add_argument_group("training")
    for name, typ, help_text in [
        ("epochs", int, "training epochs (10)"),
        ("frame-budget", int, "max feature frames per batch (4000)"),
        ("seed", int, "root random seed (1)"),
        ("base-lr", float, "peak learning rate (2e-3; finetune: 2e-4)"),
        ("warmup-steps", int, "linear warmup length (400)"),
        ("clip-norm", float, "global gradient-norm clip, 0 disables (0)"),
        ("alpha", float, "CTC weight in the multitask loss (0.3)"),
        ("epsilon-ls", float, "label smoothing mass (0.1)"),
        ("sa-freq-masks", int, "SpecAugment frequency masks (2)"),
        ("sa-freq-width", int, "max width of each frequency mask (8)"),
        ("sa-time-masks", int, "SpecAugment time masks (2)"),
        ("sa-time-fraction", float, "max time-mask width as a fraction (0.05)"),
    ]:
        g.add_argument(f"--{name}", type=typ, help=help_text)
    g.add_argument("--use-spec-augment", type=_bool_flag, metavar="BOOL",
                   help="mask features during training (true)")
    g.add_argument("--max-steps", type=int, default=None,
                   help="stop after this many optimizer steps")


def _config_values(args) -> dict:
    values = {}
    if getattr(args, "config", None):
        values = read_config(args.config)
        allowed = set(MODEL_KEYS) | set(TRAIN_KEYS)
        unknown = sorted(set(values) - allowed)
        if unknown:
            raise ValueError(f"{args.config}: unknown config keys {unknown}")
    return values


def _merged(args, names, file_values: dict) -> dict:
    out = {}
    for name in names:
        flag = getattr(args, name, None)
        if flag is not None:
            out[name] = flag
        elif name in file_values:
            out[name] = file_values[name]
    return out


def _load_subword_dir(path: str):
    return load_subwords(os.path.join(path, "vocab.txt"),
                         os.path.join(path, "merges.txt"))


def _check_vocab(model: SpeechTranslator, subwords, source: str):
    if model.cfg.vocab_size != len(subwords.vocab):
        raise ValueError(f"{source}: model vocabulary size {model.cfg.vocab_size} "
                         f"does not match subword model ({len(subwords.vocab)})")


# -- commands -----------------------------------------------------------------


def cmd_toy_gen(args) -> int:
    cfg = ToyTaskConfig(
        n_symbols=args.n_symbols, min_len=args.min_len, max_len=args.max_len,
        frames_per_token=args.frames_per_token, noise_std=args.noise_std,
        identity_mapping=args.identity_mapping, reverse=args.reverse,
        train_size=args.train_size, dev_size=args.dev_size,
        test_size=args.test_size)
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
    kept = prepared
    if not args.no_filter:
        from .audio import filter_utterances
        kept = filter_utterances(prepared)
    manifest_out = os.path.join(args.out, os.path.basename(args.manifest))
    write_manifest(manifest_out, kept)
    corpus = ([normalize_for_ctc(e.transcript) for e in kept]
              + [e.translation for e in kept])
    subwords = train_subwords(corpus, args.vocab_size)
    save_subwords(subwords, os.path.join(args.out, "vocab.txt"),
                  os.path.join(args.out, "merges.txt"))
    print(f"extracted={extracted} kept={len(kept)} "
          f"dropped={len(prepared) - len(kept)} vocab={len(subwords.vocab)}")
    print(f"manifest: {manifest_out}")
    return 0


def _run_training(args, model, subwords, start_epoch: int, default_lr=None) -> int:
    file_values = _config_values(args)
    train_kwargs = _merged(args, TRAIN_KEYS, file_values)
    if default_lr is not None and "base_lr" not in train_kwargs:
        train_kwargs["base_lr"] = default_lr
    cfg = TrainConfig(**train_kwargs)
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
    subwords = _load_subword_dir(args.subwords)
    file_values = _config_values(args)
    model_kwargs = _merged(args, MODEL_KEYS, file_values)
    cfg = ModelConfig(vocab_size=len(subwords.vocab), **model_kwargs)
    model = SpeechTranslator(cfg, RngStream(_merged(args, ("seed",),
                                                   file_values).get("seed", 1)))
    return _run_training(args, model, subwords, start_epoch=0)


def cmd_finetune(args) -> int:
    model, meta = load_model(args.checkpoint)
    subwords = _load_subword_dir(args.subwords)
    _check_vocab(model, subwords, args.checkpoint)
    start_epoch = int(meta.get("epoch", 0))
    # Fine-tuning continues at a tenth of the usual peak rate.
    return _run_training(args, model, subwords, start_epoch=start_epoch,
                         default_lr=TrainConfig().base_lr / 10.0)


def cmd_average(args) -> int:
    if args.checkpoints:
        paths = list(args.checkpoints)
    else:
        if not args.run_dir:
            raise ValueError("pass --run-dir or an explicit checkpoint list")
        paths = final_checkpoints(args.run_dir, window=args.window)
        if not paths:
            raise ValueError(f"no epoch checkpoints under {args.run_dir}")
    averaged, meta = average_checkpoints(paths)
    save_checkpoint(args.out, sorted(averaged.items()), meta)
    print(f"averaged {len(paths)} checkpoints -> {args.out}")
    return 0


def cmd_decode(args) -> int:
    loaded = []
    subwords = _load_subword_dir(args.subwords)
    for path in args.checkpoint:
        model, _ = load_model(path)
        _check_vocab(model, subwords, path)
        loaded.append(model)
    cfg = DecodeConfig(beam=args.beam, lennorm_beta=args.lennorm_beta,
                       max_len_factor=args.max_len_factor,
                       extra_len=args.extra_len)
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
    subwords = _load_subword_dir(args.subwords)
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
    hyp_of = {}
    with open(args.hyp, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            cols = line.split("\t")
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
    if not args.skip_ops:
        for name, err in op_gradcheck_sweep(seed=args.seed, eps=args.eps).items():
            print(f"op {name}: {err:.3e}")
            if err > worst:
                worst_name, worst = name, err
    if not args.skip_model:
        model_err = tiny_multitask_gradcheck(eps=args.eps, seed=args.seed)
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
    p.add_argument("--train-size", type=int, default=2000)
    p.add_argument("--dev-size", type=int, default=100)
    p.add_argument("--test-size", type=int, default=100)
    p.add_argument("--n-symbols", type=int, default=20)
    p.add_argument("--min-len", type=int, default=3)
    p.add_argument("--max-len", type=int, default=12)
    p.add_argument("--frames-per-token", type=int, default=4)
    p.add_argument("--noise-std", type=float, default=0.1)
    p.add_argument("--identity-mapping", action="store_true",
                   help="translation repeats the transcript")
    p.add_argument("--reverse", action="store_true",
                   help="translation reverses the mapped sequence")
    p.set_defaults(func=cmd_toy_gen)

    p = sub.add_parser("prepare",
                       help="extract features, filter lengths, train subwords")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--vocab-size", type=int, default=1000)
    p.add_argument("--no-filter", action="store_true",
                   help="keep utterances outside 5..3000 frames")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--manifest", required=True)
    p.add_argument("--subwords", required=True,
                   help="directory holding vocab.txt and merges.txt")
    p.add_argument("--out", required=True, help="run directory for checkpoints")
    p.add_argument("--config", help="flat key = value settings file")
    _add_model_flags(p)
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("finetune",
                       help="continue training a checkpoint at reduced lr")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--subwords", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="flat key = value settings file")
    _add_train_flags(p)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("average", help="average the final checkpoints of a run")
    p.add_argument("--run-dir", help="directory with epochNNNN.ckpt files")
    p.add_argument("--checkpoints", nargs="+",
                   help="explicit checkpoint list (overrides --run-dir)")
    p.add_argument("--window", type=int, default=10,
                   help="how many final checkpoints to average (10)")
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
    p.add_argument("--beam", type=int, default=5)
    p.add_argument("--lennorm-beta", type=float, default=1.0)
    p.add_argument("--max-len-factor", type=float, default=1.0)
    p.add_argument("--extra-len", type=int, default=10)
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
    p.add_argument("--eps", type=float, default=1e-5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threshold", type=float, default=1e-4)
    p.add_argument("--skip-ops", action="store_true",
                   help="check only the whole-model loss")
    p.add_argument("--skip-model", action="store_true",
                   help="check only the per-op sweep (fast)")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("ctc-oracle",
                       help="CTC recurrence vs brute-force enumeration")
    p.add_argument("--trials", type=int, default=100,
                   help="random distributions per shape combination (100)")
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
