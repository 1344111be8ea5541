"""End-to-end acceptance suite.

Each test here verifies one system-level guarantee of the toolkit --
numerical gradient fidelity, CTC-vs-enumeration equivalence, convergence
on the synthetic task, decoder and averaging identities, preprocessing
exactness -- and prints a single

    ACCEPTANCE <name>: PASS|FAIL (measured values vs. thresholds)

line past pytest's output capture before asserting, so any
``pytest tests/test_acceptance.py`` run reads as a checklist.  The
expensive shared pieces -- the synthetic toy corpus and the trained
models -- are built once per module in fixtures; everything is seeded,
so reruns reproduce the same numbers.
"""

import os
import time
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import edit_accuracy, greedy_decode, token_accuracy
from tinyst.audio import FrontendConfig, filter_utterances, logmel
from tinyst.checks import (
    ctc_oracle_sweep,
    op_gradcheck_sweep,
    tiny_multitask_gradcheck,
)
from tinyst.data import ManifestEntry, load_dataset, read_manifest
from tinyst.decoding import (
    DecodeConfig,
    beam_search,
    ctc_greedy_decode,
    encode_for_decoding,
    ensemble_log_prob,
)
from tinyst.evaluation import corpus_bleu
from tinyst.model import ModelConfig, SpeechTranslator, downsampled_length
from tinyst.rng import RngStream
from tinyst.text import decode as sw_decode, normalize_for_ctc, train_subwords
from tinyst.toy import ToyTaskConfig, toy_generate
from tinyst.training import (
    TrainConfig,
    average_checkpoints,
    final_checkpoints,
    save_checkpoint,
    train,
)


def _report(capsys, name: str, ok: bool, detail: str):
    with capsys.disabled():
        print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


# -- shared toy corpus and trained models -------------------------------------


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Toy corpus (2000/100/100 pairs), subword model, loaded datasets."""
    t0 = time.process_time()
    root = tmp_path_factory.mktemp("acceptance")
    paths = toy_generate(ToyTaskConfig(), RngStream(7), root / "corpus")
    entries = read_manifest(paths["train"])
    corpus = ([normalize_for_ctc(e.transcript) for e in entries]
              + [e.translation for e in entries])
    subwords = train_subwords(corpus, 60)
    dev_entries = read_manifest(paths["dev"])
    ws = SimpleNamespace(
        subwords=subwords,
        train_samples=load_dataset(paths["train"], subwords),
        dev_samples=load_dataset(paths["dev"], subwords),
        dev_refs=[e.translation for e in dev_entries],
        dev_srcs=[normalize_for_ctc(e.transcript) for e in dev_entries],
        prep_cpu=0.0,
    )
    ws.prep_cpu = time.process_time() - t0
    return ws


def _train_toy(ws, variant, hidden, ffn, epochs, **cfg_extra):
    cfg = ModelConfig(vocab_size=len(ws.subwords.vocab), variant=variant,
                      enc_layers=4, dec_layers=2, hidden=hidden, heads=4,
                      ffn=ffn, conv_kernel=3, **cfg_extra)
    model = SpeechTranslator(cfg, RngStream(1))
    lines = train(model, ws.train_samples,
                  TrainConfig(epochs=epochs, frame_budget=1500, seed=1,
                              warmup_steps=150))
    return model, lines


def _translate(model, samples, subwords, beam=5):
    hyps = []
    for s in samples:
        enc = encode_for_decoding(model, s.features)
        best = beam_search([(model, enc)], DecodeConfig(beam=beam))[0]
        hyps.append(sw_decode(subwords, best.tokens))
    return hyps


@pytest.fixture(scope="module")
def baseline(workspace):
    t0 = time.process_time()
    model, _ = _train_toy(workspace, "baseline", hidden=64, ffn=256, epochs=25)
    return SimpleNamespace(model=model, train_cpu=time.process_time() - t0)


# -- the criteria --------------------------------------------------------------


def test_gradient_fidelity(capsys):
    t0 = time.perf_counter()
    op_errs = op_gradcheck_sweep(seed=0)
    model_err = tiny_multitask_gradcheck(seed=0)
    elapsed = time.perf_counter() - t0
    worst_op = max(op_errs, key=op_errs.get)
    max_err = max(max(op_errs.values()), model_err)
    ok = max_err < 1e-4 and elapsed < 60.0
    _report(capsys, "gradient-fidelity", ok,
            f"max rel err {max_err:.2e} < 1e-4 over {len(op_errs)} ops "
            f"(worst op {worst_op} {op_errs[worst_op]:.2e}) + tiny model "
            f"{model_err:.2e}; {elapsed:.1f}s < 60s")


def test_ctc_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    worst = ctc_oracle_sweep(trials=100, seed=0)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 120.0
    _report(capsys, "ctc-oracle", ok,
            f"max |dp - enumeration| {worst:.2e} < 1e-8 over "
            f"T'1..6 x L0..3 x V2..4 x 100 trials; {elapsed:.1f}s < 120s")


def test_toy_convergence(capsys, workspace, baseline):
    t0 = time.process_time()
    hyps = _translate(baseline.model, workspace.dev_samples, workspace.subwords)
    cpu_min = (workspace.prep_cpu + baseline.train_cpu
               + time.process_time() - t0) / 60.0
    acc = token_accuracy(hyps, workspace.dev_refs)
    bleu = corpus_bleu(hyps, workspace.dev_refs)
    ok = acc >= 0.95 and bleu >= 90.0 and cpu_min < 30.0
    _report(capsys, "toy-convergence", ok,
            f"token accuracy {acc:.4f} >= 0.95, BLEU {bleu:.2f} >= 90, "
            f"{cpu_min:.1f} CPU-min < 30")


def test_sate_multitask(capsys, workspace):
    model, _ = _train_toy(workspace, "sate", hidden=64, ffn=256, epochs=25,
                          acoustic_layers=3)
    hyps, ctc_hyps = [], []
    for s in workspace.dev_samples:
        enc = encode_for_decoding(model, s.features)
        best = beam_search([(model, enc)], DecodeConfig(beam=5))[0]
        hyps.append(sw_decode(workspace.subwords, best.tokens))
        ctc_ids = ctc_greedy_decode(enc.ctc_logits.data[0])
        ctc_hyps.append(sw_decode(workspace.subwords, ctc_ids))
    edit_acc = edit_accuracy(ctc_hyps, workspace.dev_srcs)
    bleu = corpus_bleu(hyps, workspace.dev_refs)
    ok = edit_acc >= 0.90 and bleu >= 85.0
    _report(capsys, "sate-multitask", ok,
            f"alpha 0.3: CTC greedy source edit accuracy {edit_acc:.4f} "
            f">= 0.90, BLEU {bleu:.2f} >= 85")


def test_ablation_ladder(capsys, workspace):
    drops = {}
    for variant in ("baseline", "conformer", "conformer_rpe", "sate"):
        cfg = ModelConfig(vocab_size=len(workspace.subwords.vocab),
                          variant=variant, enc_layers=4, acoustic_layers=3,
                          dec_layers=2, hidden=32, heads=4,
                          ffn=128, conv_kernel=3)
        model = SpeechTranslator(cfg, RngStream(1))
        lines = train(model, workspace.train_samples,
                      TrainConfig(epochs=5, frame_budget=1500, seed=1,
                                  warmup_steps=150),
                      max_steps=100)
        totals = [float(l.rsplit("total=", 1)[1])
                  for l in lines if l.startswith("step=")]
        assert len(totals) == 100
        drops[variant] = 1.0 - np.mean(totals[-10:]) / np.mean(totals[:10])
    ok = all(d >= 0.20 for d in drops.values())
    detail = ", ".join(f"{v} {d * 100:.0f}%" for v, d in drops.items())
    _report(capsys, "ablation-ladder", ok, f"100-step loss drop >= 20%: {detail}")


def test_ensemble_identity(capsys, workspace, baseline):
    model = baseline.model
    worst = 0.0
    mismatches = 0
    for s in workspace.dev_samples[:10]:
        enc = encode_for_decoding(model, s.features)
        single = beam_search([(model, enc)], DecodeConfig())[0]
        six = beam_search([(model, enc)] * 6, DecodeConfig())[0]
        if six.tokens != single.tokens:
            mismatches += 1
        # combined next-token distribution at every step along the decode
        for cut in range(1, len(single.tokens)):
            prefix = np.array([single.tokens[:cut]])
            row = model.decode_logits(enc, prefix)[:, -1].log_softmax(axis=-1).data[0]
            combined = ensemble_log_prob([row] * 6)
            worst = max(worst, float(np.abs(combined - row).max()))
    ok = worst < 1e-9 and mismatches == 0
    _report(capsys, "ensemble-identity", ok,
            f"6x same checkpoint vs single on 10 utterances: "
            f"{mismatches} token mismatches; per-step distribution "
            f"max diff {worst:.2e} < 1e-9")


def test_checkpoint_averaging(capsys, tmp_path):
    # mean of scalar entries {1.0, 3.0} is exactly 2.0
    for i, v in enumerate((1.0, 3.0)):
        save_checkpoint(tmp_path / f"s{i}.ckpt",
                        [("w", np.array(v, dtype=np.float32))], {})
    avg, _ = average_checkpoints([tmp_path / "s0.ckpt", tmp_path / "s1.ckpt"])
    scalar_ok = avg["w"] == np.float32(2.0)

    # averaging N identical checkpoints is bit-for-bit the input
    arrays = {"a": np.float32(np.arange(12).reshape(3, 4)) / 7,
              "b": RngStream(3).normal(0, 1, size=5).astype(np.float32)}
    copies = []
    for i in range(5):
        p = tmp_path / f"c{i}.ckpt"
        save_checkpoint(p, sorted(arrays.items()), {})
        copies.append(p)
    avg5, meta5 = average_checkpoints(copies)
    bits_ok = all(avg5[n].tobytes() == arrays[n].tobytes() for n in arrays)
    assert meta5["averaged_count"] == 5

    # default window selects the final 10 per-epoch checkpoints
    run_dir = tmp_path / "run"
    os.mkdir(run_dir)
    for e in range(1, 14):
        (run_dir / f"epoch{e:04d}.ckpt").touch()
    window = final_checkpoints(run_dir)
    window_ok = (len(window) == 10
                 and os.path.basename(window[0]) == "epoch0004.ckpt"
                 and os.path.basename(window[-1]) == "epoch0013.ckpt")

    ok = bool(scalar_ok) and bits_ok and window_ok
    _report(capsys, "checkpoint-averaging", ok,
            f"mean(1.0, 3.0) = {avg['w'].item():.1f} exactly; 5 identical "
            f"bit-for-bit: {bits_ok}; default window {len(window)} of 13")


def test_decoding_laws(capsys, workspace, baseline):
    model = baseline.model
    inputs = workspace.dev_samples[:50]
    assert len(inputs) == 50
    mismatches = 0
    all_finished = 0
    monotone_ok = True
    for s in inputs:
        enc = encode_for_decoding(model, s.features)
        cap = int(DecodeConfig().max_len_factor * enc.out_lengths[0]) \
            + DecodeConfig().extra_len
        greedy = greedy_decode([(model, enc)], cap)
        beam1 = beam_search([(model, enc)], DecodeConfig(beam=1))[0]
        if greedy.tokens != beam1.tokens:
            mismatches += 1
        results = [beam_search([(model, enc)], DecodeConfig(beam=b))
                   for b in (1, 2, 5)]
        if all(r[0].finished for r in results):
            all_finished += 1
            s1, s2, s5 = (max(h.logprob for h in r) for r in results)
            if not (s1 <= s2 <= s5):
                monotone_ok = False
    ok = mismatches == 0 and monotone_ok and all_finished > 0
    _report(capsys, "decoding-laws", ok,
            f"beam=1 == greedy on 50 utterances ({mismatches} mismatches); "
            f"best finished score monotone over beams 1,2,5 on "
            f"{all_finished} fully-finished utterances")


def test_preprocessing_exactness(capsys):
    entries = [ManifestEntry(f"u{n}", f"u{n}.feat", n, "x", "y")
               for n in (4, 5, 3000, 3001)]
    kept = [e.n_frames for e in filter_utterances(entries)]
    filter_ok = kept == [5, 3000]

    law_ok = all(downsampled_length(t) == -(-(-(-t // 2)) // 2)
                 for t in range(5, 65))
    cfg = ModelConfig(vocab_size=7, enc_layers=1, dec_layers=1, hidden=8,
                      heads=2, ffn=16)
    tiny = SpeechTranslator(cfg, RngStream(0))
    rng = RngStream(5)
    for t in (5, 17, 38, 64):
        enc = encode_for_decoding(tiny, rng.normal(0, 1, size=(t, 80)))
        law_ok = (law_ok and enc.out_lengths[0] == downsampled_length(t)
                  and enc.memory.data.shape[1] == downsampled_length(t))

    wave = rng.normal(0.0, 0.1, size=8000)
    feats = logmel(wave, FrontendConfig())
    mel_ok = feats.ndim == 2 and feats.shape[1] == 80

    ok = filter_ok and law_ok and mel_ok
    _report(capsys, "preprocessing-exactness", ok,
            f"frame filter kept {kept} of [4, 5, 3000, 3001]; downsample "
            f"length law holds on [5, 64]; logmel channels {feats.shape[1]}")


def test_bleu_selftest(capsys):
    texts = ["the cat sat on the mat", "a b c d", "speech becomes text"]
    identity = corpus_bleu(texts, texts)
    worked = corpus_bleu(["a b c d"], ["a b c d e"])
    expected = 100.0 * np.exp(1.0 - 5.0 / 4.0)
    ok = identity == 100.0 and abs(worked - 77.88) < 0.01
    _report(capsys, "bleu-selftest", ok,
            f"identity {identity}; 4-vs-5-token example {worked:.4f} "
            f"(hand value {expected:.4f}) within 0.01 of 77.88")
