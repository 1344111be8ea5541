"""Run one benchmark workload in this process and print its result.

Started by run.py in a fresh process, with the BLAS thread count already
pinned and `src` on PYTHONPATH.  The workload is a single-process,
closed-loop, offline batch client of the public tinyst API: set up a
corpus, train once, then decode held-out utterances one at a time as
`tinyst decode` does with the averaged checkpoint, some of them again with
an ensemble of the last two epoch checkpoints.  Every decoded hypothesis is
rescored and every logged loss checked; a failed check counts as a failed
operation.

With --trace 1 timing shims are installed around the calls into each layer
(see spans.py), and the per-layer figures are printed instead of the
end-to-end ones.

The last line of stdout is a JSON object: correct, attempted, failed,
metrics, plus `phases` (wall seconds per timed phase) for run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import tracemalloc

import numpy as np

import tinyst.audio as audio
import tinyst.data as data
import tinyst.decoding as decoding
import tinyst.evaluation as evaluation
import tinyst.model as modeling
import tinyst.tensor as tensor
import tinyst.text as text
import tinyst.toy as toy
import tinyst.training as training
from tinyst.rng import RngStream

import spans
import summary
import wavcorpus

# Set-up runs this many times before training, before decoding and after
# decoding; setup_s is the median.  Spreading the repeats over the run
# samples more of the machine's varying speed than back-to-back repeats.
SETUP_REPEATS = (2, 1, 2)
LOGPROB_TOLERANCE = 1e-9
TOY_BLEU_FLOOR = 40.0       # seeds score about 65-80; chance is below 5
FRAME_SECONDS = 0.01
TIMED_PHASES = ("setup", "train", "decode")


@dataclasses.dataclass
class Workload:
    """Everything one workload fixes besides its seed."""
    variant: str
    enc_layers: int
    dec_layers: int
    train: training.TrainConfig     # seed filled in per run
    decode: decoding.DecodeConfig
    average_window: int
    dev_strata: int     # dev utterance lengths, each decoded equally often
    ensemble_every: int     # 1 / share of dev utterances the ensemble decodes


# The README quick-start recipe, scaled down: 600 training utterances and 15
# epochs (240 steps of about 37 utterances) reach a dev BLEU near 70.
TOY = Workload("baseline", 4, 2,
               training.TrainConfig(epochs=15, frame_budget=1500,
                                    warmup_steps=50, base_lr=4e-3),
               decoding.DecodeConfig(beam=5), average_window=3, dev_strata=10,
               ensemble_every=2)
TOY_TRAIN_PER_LENGTH = 60
# Utterances generated per split.  The subsets used hold the same number of
# each length 3-12 (the dev strata), so the seed changes content but not
# the length profile that batch shapes, step times and decode times follow.
TOY_POOL = {"train": 1200, "dev": 400}

# Conformer with relative positions over 4.5-10.5 s utterances.  Four
# epochs of 20 utterances, one utterance per step, at a learning rate low
# enough that the model stays far from converged: beam search runs to its
# length cap of 0.4 T' + 10 (55-115 tokens) on every seed, about one output
# token per input symbol, so the decode work does not depend on the seed.
# The dev set holds 5 symbol counts spread over 4.5-10.5 s, each the same
# number of times; the training
# set 5 clusters of 4 adjacent counts around the same centres, so every
# utterance has its own shape but the steps fall into 5 cost classes of 16.
# Both ways the median and the tail (rank 70 of 80 steps, rank 10 of 20
# utterances) fall inside a class, whose members are spread over the phase.
# The ensemble decodes one utterance of each dev length.
LONG = Workload("conformer_rpe", 3, 1,
                training.TrainConfig(epochs=4, frame_budget=4000,
                                     warmup_steps=20, base_lr=2e-3),
                decoding.DecodeConfig(beam=5, max_len_factor=0.4),
                average_window=2, dev_strata=5, ensemble_every=4)
LONG_TRAIN_CLUSTERS = (5, 4)    # clusters, utterances per cluster

WORKLOADS = {"toy": TOY, "long": LONG}


def decode_rounds(workload: str, seconds: int) -> int:
    """Dev utterances per stratum, each decoded with the averaged checkpoint.

    `seconds` scales the decode phase; training is a fixed recipe.  With
    20 seconds, on a 2-core CPU at the commit that introduced the
    benchmark, toy decodes 16 x 10 utterances in about 19 s and long
    4 x 5 in about 23 s, ensemble decodes included.  There are never fewer
    than the summary.MIN_SAMPLES utterances a tail needs.
    """
    strata = WORKLOADS[workload].dev_strata
    rounds = max(2, round(0.8 * seconds)) if workload == "toy" else max(4, seconds // 5)
    return max(rounds, -(-summary.MIN_SAMPLES // strata))


def round_robin(blocks: list) -> list:
    """Interleave equal-sized blocks: the first item of each block, then the
    second of each, and so on.

    The dev utterances are decoded in this order, one of each stratum per
    round, so every stratum, and with it every order statistic of the
    per-utterance times, samples the whole decode phase rather than a few
    seconds of the machine's varying speed.
    """
    if len({len(b) for b in blocks}) > 1:
        raise ValueError("blocks differ in size")
    return [b[r] for r in range(len(blocks[0])) for b in blocks]


def ensemble_positions(n_items: int, strata: int, every: int) -> set:
    """Positions, in round-robin order, that the ensemble decodes again.

    Item i is round i // strata of stratum i % strata; a checkerboard of
    rounds and strata picks the same share of every stratum and spreads
    each stratum's picks over the phase.
    """
    return {i for i in range(n_items) if (i // strata + i % strata) % every == 0}


@dataclasses.dataclass
class Item:
    """One held-out utterance to decode."""
    utt_id: str
    frames: int
    reference: str
    features: np.ndarray | None = None   # toy: loaded in set-up
    wav: str | None = None               # long: read inside the timed loop


class NullTracer:
    item = None

    def span(self, name):
        return contextlib.nullcontext()


# -- set-up ---------------------------------------------------------------


def stratified(entries: list, lengths: range, per_length: int) -> list:
    """The first `per_length` entries of each transcript length."""
    by_length = {}
    for e in entries:
        by_length.setdefault(len(e.transcript.split()), []).append(e)
    chosen = []
    for length in lengths:
        found = by_length.get(length, [])
        if len(found) < per_length:
            raise RuntimeError(f"{len(found)} utterances of length {length}, "
                               f"need {per_length}")
        chosen.extend(found[:per_length])
    return chosen


def setup_toy(work: str, seed: int, rounds: int) -> tuple:
    cfg = toy.ToyTaskConfig(train_size=TOY_POOL["train"],
                            dev_size=TOY_POOL["dev"], test_size=1)
    paths = toy.toy_generate(cfg, RngStream(seed), work)
    lengths = range(cfg.min_len, cfg.max_len + 1)
    assert len(lengths) == TOY.dev_strata
    chosen = {}
    for split, per_length in (("train", TOY_TRAIN_PER_LENGTH), ("dev", rounds)):
        chosen[split] = stratified(data.read_manifest(paths[split]), lengths,
                                   per_length)
        paths[split] = os.path.join(work, f"{split}_bench.tsv")
        data.write_manifest(paths[split], chosen[split])
    subwords = text.train_subwords(
        [text.normalize_for_ctc(e.transcript) for e in chosen["train"]]
        + [e.translation for e in chosen["train"]], 60)
    samples = data.load_dataset(paths["train"], subwords)
    dev = data.load_dataset(paths["dev"], subwords, apply_length_filter=False)
    items = [Item(s.utt_id, s.features.shape[0], e.translation, features=s.features)
             for s, e in zip(dev, chosen["dev"])]
    blocks = [items[k * rounds:(k + 1) * rounds] for k in range(len(lengths))]
    return samples, round_robin(blocks), subwords


def setup_long(work: str, seed: int, rounds: int) -> tuple:
    # The dev counts repeat in rounds, so the manifest is in round-robin order.
    paths = wavcorpus.generate(RngStream(seed), work, {
        "train": wavcorpus.clustered_counts(*LONG_TRAIN_CLUSTERS),
        "dev": wavcorpus.spread_counts(LONG.dev_strata, offset=0.5) * rounds})
    # The `prepare` path: WAV to log-mel features, length filter, subwords.
    frontend = audio.FrontendConfig()
    prepared = []
    os.makedirs(os.path.join(work, "features"), exist_ok=True)
    for e in data.read_manifest(paths["train"]):
        waveform, rate = audio.read_wav(os.path.join(work, e.features))
        feats = audio.logmel(waveform, frontend)
        out = os.path.join("features", f"{e.utt_id}.feat")
        audio.save_features(os.path.join(work, out), feats)
        prepared.append(data.ManifestEntry(e.utt_id, out, feats.shape[0],
                                           e.transcript, e.translation))
    kept = audio.filter_utterances(prepared)
    manifest = os.path.join(work, "prepared.tsv")
    data.write_manifest(manifest, kept)
    subwords = text.train_subwords(
        [text.normalize_for_ctc(e.transcript) for e in kept]
        + [e.translation for e in kept], 60)
    samples = data.load_dataset(manifest, subwords)
    items = [Item(e.utt_id, e.n_frames, e.translation,
                  wav=os.path.join(work, e.features))
             for e in data.read_manifest(paths["dev"])]
    return samples, items, subwords


def build_model(workload: Workload, subwords, seed: int):
    cfg = modeling.ModelConfig(vocab_size=len(subwords.vocab),
                               variant=workload.variant,
                               enc_layers=workload.enc_layers,
                               dec_layers=workload.dec_layers,
                               hidden=64, heads=4, ffn=256)
    return modeling.SpeechTranslator(cfg, RngStream(seed))


# -- timed phases -----------------------------------------------------------


def run_training(tracer, model, samples, cfg, out_dir) -> tuple:
    """Train; returns (per-step seconds, metric lines, wall seconds)."""
    stamps, lines = [], []

    def log(line):
        if line.startswith("step="):
            stamps.append(time.perf_counter())
            lines.append(line)
            tracer.item = f"step{len(stamps) + 1}"

    tracer.item = "step1"
    start = time.perf_counter()
    training.train(model, samples, cfg, out_dir=out_dir, log=log)
    wall = time.perf_counter() - start
    tracer.item = None
    steps = [b - a for a, b in zip([start] + stamps, stamps)]
    return steps, lines, wall


def features_of(item: Item, frontend) -> np.ndarray:
    if item.features is not None:
        return item.features
    waveform, rate = audio.read_wav(item.wav)
    if rate != frontend.sample_rate:
        raise ValueError(f"{item.utt_id}: {rate} Hz audio")
    return audio.cmvn(audio.logmel(waveform, frontend))


def decode_one(tracer, models, item, cfg, subwords) -> tuple:
    """Decode one item alone; returns (seconds, hypothesis, encoder
    outputs, text)."""
    tracer.item = item.utt_id
    start = time.perf_counter()
    feats = features_of(item, audio.FrontendConfig())
    pairs = [(m, decoding.encode_for_decoding(m, feats)) for m in models]
    best = decoding.beam_search(pairs, cfg)[0]
    hyp_text = text.decode(subwords, best.tokens)
    tracer.item = None
    return (time.perf_counter() - start, best, [enc for _, enc in pairs],
            hyp_text)


# -- output checks ----------------------------------------------------------


def rescore(models, encs, tokens) -> float:
    """Teacher-forced log-probability of `tokens` under the ensemble."""
    prefix = np.array([tokens[:-1]], dtype=np.intp)
    with tensor.no_grad():
        rows = [m.decode_logits(enc, prefix).log_softmax(axis=-1).data[0]
                for m, enc in zip(models, encs)]
    total = 0.0
    for j, token in enumerate(tokens[1:]):
        total += decoding.ensemble_log_prob([r[j] for r in rows])[token]
    return total


def count_bad_rescores(models, results) -> int:
    bad = 0
    for _, hyp, encs, _ in results:
        if abs(rescore(models, encs, hyp.tokens) - hyp.logprob) > LOGPROB_TOLERANCE:
            bad += 1
    return bad


def count_bad_losses(lines) -> int:
    bad = 0
    for line in lines:
        fields = dict(kv.split("=", 1) for kv in line.split())
        if not all(math.isfinite(float(fields[k])) for k in ("ce", "ctc", "total")):
            bad += 1
    return bad


# -- tracing ----------------------------------------------------------------


def install_tracer(tracer: spans.Tracer):
    """Time the calls into every layer's public functions and methods.

    Names are patched where the caller looks them up: `train` finds
    make_batches, spec_augment and the losses in tinyst.training, and
    load_dataset finds encode and cmvn in tinyst.data.
    """
    def count_batches(batches, _):
        tracer.count("data.batches", len(batches))
        tracer.count("data.batch_utterances", sum(len(b) for b in batches))

    def count_positions(args):
        prefix = np.asarray(args[2])
        tracer.count("decoding.decoder_step_calls")
        tracer.count("decoding.prefix_rows", prefix.shape[0])
        tracer.count("decoding.prefix_positions", prefix.size)

    def count_output(hyps, _):
        tracer.count("decoding.tokens_generated", hyps[0].generated)
        tracer.count("decoding.unfinished", not hyps[0].finished)

    def start_alloc(args):
        if tracer.root() == "phase.train":
            tracemalloc.start()
            return True
        return False

    def stop_alloc(result, started):
        if started:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            key = "model.attention.alloc_peak_bytes"
            tracer.counts[key] = max(tracer.counts[key], peak)

    wrap = tracer.wrap
    wrap(tensor.Tensor, "backward", "tensor.backward")
    wrap(modeling.SpeechTranslator, "__init__", "model.init")
    wrap(modeling.SpeechTranslator, "forward", "model.forward")
    wrap(modeling.SpeechTranslator, "encode", "model.encode")
    wrap(modeling.SpeechTranslator, "decode_logits", "model.decode_logits")
    wrap(modeling.SpeechTranslator, "decoder_step", "decoding.decoder_step",
         before=count_positions)
    wrap(modeling.Module, "zero_grad", "model.zero_grad")
    wrap(modeling.MultiHeadAttention, "__call__", "model.attention",
         before=start_alloc, after=stop_alloc)
    wrap(modeling.FeedForward, "__call__", "model.ffn")
    wrap(modeling.ConvModule, "__call__", "model.conv")
    wrap(modeling.Downsampler, "__call__", "model.downsampler")
    wrap(training, "ctc_loss_batch", "losses.ctc")
    wrap(training, "label_smoothed_ce", "losses.ce")
    wrap(training.Adam, "step", "training.adam")
    wrap(training, "train", "training.train")
    wrap(training, "save_model", "training.save_model")
    wrap(training, "save_checkpoint", "training.save_checkpoint")
    wrap(training, "average_checkpoints", "training.average")
    wrap(training, "load_model", "training.load_model")
    wrap(training, "make_batches", "data.make_batches", after=count_batches)
    wrap(training, "spec_augment", "audio.spec_augment")
    wrap(data, "load_dataset", "data.load_dataset")
    wrap(data, "read_manifest", "data.read_manifest")
    wrap(data, "write_manifest", "data.write_manifest")
    wrap(data, "encode", "text.encode")
    wrap(data, "apply_cmvn", "audio.cmvn")
    wrap(data, "load_features", "audio.load_features")
    wrap(toy, "toy_generate", "data.toy_generate")
    wrap(text, "train_subwords", "text.train_subwords")
    wrap(text, "decode", "text.decode")
    for name in ("read_wav", "write_wav", "logmel", "cmvn", "save_features",
                 "filter_utterances"):
        wrap(audio, name, f"audio.{name}")
    wrap(decoding, "encode_for_decoding", "decoding.encode_for_decoding")
    wrap(decoding, "beam_search", "decoding.beam_search", after=count_output)
    wrap(evaluation, "corpus_bleu", "evaluation.bleu")
    wrap(wavcorpus, "generate", "bench.wavcorpus")


TRAIN = ("phase.train",)
DECODE = ("phase.decode",)
LAYERS = ("tensor", "audio", "text", "data", "model", "losses", "training",
          "decoding", "evaluation")

# (metric, span, phases it is summed over; None for the whole run)
SPAN_METRICS = (
    ("tensor.backward_s", "tensor.backward", TRAIN),
    ("model.attention.fwd_s", "model.attention", TRAIN),
    ("model.conv.fwd_s", "model.conv", TRAIN),
    ("model.ffn.fwd_s", "model.ffn", TRAIN),
    ("model.downsampler.fwd_s", "model.downsampler", TRAIN),
    ("losses.ctc_s", "losses.ctc", TRAIN),
    ("losses.ce_s", "losses.ce", TRAIN),
    ("training.adam_s", "training.adam", TRAIN),
    ("training.save_model_s", "training.save_model", TRAIN),
    ("training.average_s", "training.average", None),
    ("data.make_batches_s", "data.make_batches", TRAIN),
    ("decoding.beam_search_s", "decoding.beam_search", DECODE),
    ("decoding.decoder_step_s", "decoding.decoder_step", DECODE),
    ("audio.logmel_s", "audio.logmel", None),
    ("audio.spec_augment_s", "audio.spec_augment", TRAIN),
    ("text.train_subwords_s", "text.train_subwords", None),
    ("text.encode_s", "text.encode", None),
    ("data.load_dataset_s", "data.load_dataset", None),
    ("evaluation.bleu_s", "evaluation.bleu", None),
)


def layer_metrics(tracer: spans.Tracer, bleu: float) -> dict:
    totals = spans.inclusive_totals(tracer.spans)
    out = {}
    for metric, name, phases in SPAN_METRICS:
        out[metric] = (sum(totals.get((name, p), 0.0) for p in phases)
                       if phases else
                       sum(v for (n, _), v in totals.items() if n == name), "s")
    c = tracer.counts
    out["model.attention.alloc_peak_mb"] = (
        c["model.attention.alloc_peak_bytes"] / 2 ** 20, "MB")
    out["data.batches"] = (c["data.batches"], "count")
    out["data.batch_size_mean"] = (
        c["data.batch_utterances"] / max(c["data.batches"], 1), "utt/batch")
    for name in ("decoder_step_calls", "tokens_generated", "unfinished"):
        out[f"decoding.{name}"] = (c[f"decoding.{name}"], "count")
    out["decoding.positions_per_token"] = (
        c["decoding.prefix_positions"] / max(c["decoding.prefix_rows"], 1),
        "positions/token")
    out["evaluation.dev_bleu"] = (bleu, "BLEU")
    own = spans.layer_self_times(tracer.spans)
    for layer in LAYERS:
        out[f"self.{layer}_s"] = (own.get(layer, 0.0), "s")
    return out


# -- the run ----------------------------------------------------------------


def environment() -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
            "nproc": len(os.sched_getaffinity(0))}


def run(args) -> dict:
    workload = WORKLOADS[args.workload]
    tracer = spans.Tracer() if args.trace else NullTracer()
    if args.trace:
        install_tracer(tracer)
    rounds = decode_rounds(args.workload, args.seconds)
    setup = setup_toy if args.workload == "toy" else setup_long
    setup_times = []

    def set_up():
        """Time one set-up into a fresh directory; returns its outputs."""
        work = os.path.join(args.work, f"setup{len(setup_times)}")
        # Flush the previous files so each set-up starts from the same
        # amount of unwritten data; toy set-up writes about 1600 small files.
        os.sync()
        with tracer.span("phase.setup"):
            start = time.perf_counter()
            samples, items, subwords = setup(work, args.seed, rounds)
            model = build_model(workload, subwords, args.seed)
            setup_times.append(time.perf_counter() - start)
        return samples, items, subwords, model

    def set_up_again(times: int):
        """Repeat set-up for its timing alone, then delete its files."""
        for _ in range(times):
            set_up()
            shutil.rmtree(os.path.join(args.work, f"setup{len(setup_times) - 1}"))

    before_train, before_decode, after_decode = SETUP_REPEATS
    samples, items, subwords, model = set_up()
    set_up_again(before_train - 1)

    run_dir = os.path.join(args.work, "run")
    os.makedirs(run_dir)
    cfg = dataclasses.replace(workload.train, seed=args.seed)
    os.sync()
    with tracer.span("phase.train"):
        steps, lines, train_wall = run_training(tracer, model, samples, cfg, run_dir)

    with tracer.span("phase.average"):
        finals = training.final_checkpoints(run_dir, window=workload.average_window)
        averaged, meta = training.average_checkpoints(finals)
        avg_path = os.path.join(run_dir, "avg.ckpt")
        training.save_checkpoint(avg_path, sorted(averaged.items()), meta)
        avg_model, _ = training.load_model(avg_path)
        pair = [training.load_model(p)[0] for p in finals[-2:]]
    set_up_again(before_decode)

    # The items are in round-robin order over the strata.  The ensemble
    # decodes a share of each stratum, each item right after its
    # single-model decode, so both sample the same stretch of the machine's
    # varying speed.
    ens_at = ensemble_positions(len(items), workload.dev_strata,
                                workload.ensemble_every)
    ens_items = [it for i, it in enumerate(items) if i in ens_at]
    single, ensemble = [], []
    with tracer.span("phase.decode"):
        start = time.perf_counter()
        for i, item in enumerate(items):
            single.append(decode_one(tracer, [avg_model], item, workload.decode,
                                     subwords))
            if i in ens_at:
                ensemble.append(decode_one(tracer, pair, item, workload.decode,
                                           subwords))
        decode_wall = time.perf_counter() - start
    set_up_again(after_decode)

    with tracer.span("phase.score"):
        bleu = evaluation.corpus_bleu([r[3] for r in single],
                                      [it.reference for it in items])
        ens_bleu = evaluation.corpus_bleu([r[3] for r in ensemble],
                                          [it.reference for it in ens_items])
    with tracer.span("phase.check"):
        bad_losses = count_bad_losses(lines)
        bad_single = count_bad_rescores([avg_model], single)
        bad_ensemble = count_bad_rescores(pair, ensemble)
    bad_bleu = int(args.workload == "toy" and not bleu >= TOY_BLEU_FLOOR)

    train_frames = [s.features.shape[0] for s in samples]
    step_tail, step_pct, n_steps = summary.tail(steps)
    utt_times = [r[0] for r in single]
    utt_tail, utt_pct, n_utts = summary.tail(utt_times)
    audio_s = sum(it.frames for it in items) * FRAME_SECONDS
    ens_audio_s = sum(it.frames for it in ens_items) * FRAME_SECONDS
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": environment(),
        "setup_s_each": setup_times,
        "train_frames_quartiles": summary.quartiles(train_frames),
        "decode_frames_quartiles": summary.quartiles([it.frames for it in items]),
        "batch_size_mean": len(samples) * cfg.epochs / n_steps,
        "train_steps": n_steps, "train_step_tail_percentile": step_pct,
        "decode_utterances": n_utts, "decode_utt_tail_percentile": utt_pct,
        "ensemble_utterances": len(ensemble),
        "tokens_generated": [sum(r[1].generated for r in single),
                             sum(r[1].generated for r in ensemble)],
        "unfinished": [sum(not r[1].finished for r in single),
                       sum(not r[1].finished for r in ensemble)],
        "dev_bleu": bleu, "ensemble_bleu": ens_bleu,
        "final_loss_line": lines[-1],
        "failed_checks": {"nonfinite_loss_steps": bad_losses,
                          "rescore_mismatch_single": bad_single,
                          "rescore_mismatch_ensemble": bad_ensemble,
                          "bleu_below_floor": bad_bleu},
    }
    # Both corpora are CTC-feasible by construction, so every sample trains
    # in every epoch.
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "train_frames_per_s": (sum(train_frames) * cfg.epochs / train_wall,
                               "frames/s"),
        "train_step_s_p50": (statistics.median(steps), "s"),
        "train_step_s_tail": (step_tail, "s"),
        "decode_rtf": (sum(utt_times) / audio_s, "ratio"),
        "decode_utt_s_p50": (statistics.median(utt_times), "s"),
        "decode_utt_s_tail": (utt_tail, "s"),
        "ensemble_rtf": (sum(r[0] for r in ensemble) / ens_audio_s, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    failed = bad_losses + bad_single + bad_ensemble + bad_bleu
    if args.trace:
        cover = spans.coverage(tracer.spans)
        low = [p for p in TIMED_PHASES if cover[f"phase.{p}"] < 0.9]
        info["span_coverage"] = cover
        info["failed_checks"]["span_coverage_below_90pct"] = len(low)
        failed += len(low)
        metrics = layer_metrics(tracer, bleu)
        metrics["trace.coverage_min_pct"] = (
            100.0 * min(cover[f"phase.{p}"] for p in TIMED_PHASES), "%")
        os.makedirs(args.out, exist_ok=True)
        tracer.write(os.path.join(args.out, f"spans-{args.workload}-{args.seed}.jsonl"))
    return {
        "correct": failed == 0,
        "attempted": n_steps + len(single) + len(ensemble),
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
        "phases": {"train": train_wall, "decode": decode_wall},
        "info": info,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work", required=True, help="scratch directory, emptied first")
    p.add_argument("--out", required=True, help="directory for span files")
    args = p.parse_args(argv)
    shutil.rmtree(args.work, ignore_errors=True)
    try:
        result = run(args)
    finally:
        shutil.rmtree(args.work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
