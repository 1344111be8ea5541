"""Self-verification routines: numeric gradient sweeps over every
differentiable op, a whole-model gradient check through the multitask loss,
and the exhaustive-enumeration CTC oracle comparison.

These back the `gradcheck` and `ctc-oracle` CLI commands and the acceptance
tests; they return worst-case errors so callers choose their own thresholds.
"""

from __future__ import annotations

import numpy as np

from .losses import (
    CtcInfeasibleError,
    ctc_feasible,
    ctc_loss_batch,
    ctc_loss_brute_force,
    label_smoothed_ce,
    multitask_loss,
)
from .model import ModelConfig, SpeechTranslator, causal_mask
from .rng import RngStream
from .tensor import (
    Dropout,
    Tensor,
    attention,
    conv1d,
    depthwise_conv1d,
    glu,
    grad_check,
    layer_norm,
    linear,
    weighted_sum,
)
from .text import BOS_ID, EOS_ID


def _param(rng: RngStream, *shape) -> Tensor:
    return Tensor(rng.normal(0.0, 1.0, size=shape), requires_grad=True)


def _sum_sq(y: Tensor) -> Tensor:
    return (y * y).sum()


def op_gradcheck_sweep(seed: int = 0) -> dict:
    """Gradient-check every differentiable op on random small shapes.

    Returns {op name: max relative error}.
    """
    rng = RngStream(seed)
    results = {}

    def check(name, f, params):
        results[name] = grad_check(f, params)

    a = _param(rng, 4, 5)
    b = _param(rng, 4, 5)
    row = _param(rng, 5)
    check("add", lambda: (a + b + row).sum(), [a, b, row])
    check("mul", lambda: (a * b * 0.7).sum(), [a, b])
    check("neg", lambda: (-a).sum(), [a])

    m1 = _param(rng, 3, 4)
    m2 = _param(rng, 4, 6)
    m3 = _param(rng, 2, 6, 3)
    # A child stream leaves the draws of the probes below as they are.
    lb = _param(rng.child("linear_bias"), 6)
    check("linear", lambda: _sum_sq(linear(m1, m2, lb)), [m1, m2, lb])
    check("linear_batched", lambda: _sum_sq(linear(m3, m1)), [m3, m1])

    x = _param(rng, 3, 7)
    w_x = Tensor(rng.normal(0.0, 1.0, size=(3, 7)))  # fixed mixing weights
    check("sigmoid", lambda: x.sigmoid().sum(), [x])
    check("swish", lambda: x.swish().sum(), [x])
    # relu is non-differentiable at 0; keep inputs at least 0.5 away.
    r_data = rng.normal(0.0, 1.0, size=(4, 4))
    r = Tensor(r_data + np.sign(r_data) * 0.5, requires_grad=True)
    check("relu", lambda: r.relu().sum(), [r])

    check("sum_axis", lambda: _sum_sq(x.sum(axis=1)), [x])
    check("mean", lambda: (x.mean(axis=0) * 3.0).sum(), [x])
    check("softmax", lambda: (x.softmax(axis=-1) * w_x).sum(), [x])
    check("log_softmax", lambda: (x.log_softmax(axis=-1) * w_x).sum(), [x])

    check("reshape", lambda: linear(x.reshape(7, 3), m1).sum(), [x, m1])
    check("transpose", lambda: linear(x.transpose(), m1).sum(), [x, m1])
    check("getitem", lambda: (x[1:, ::2] * 2.0).sum()
          + x[(np.array([0, 2]), np.array([1, 1]))].sum(), [x])
    mix = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)
    check("weighted_sum", lambda: _sum_sq(weighted_sum([a, b, a * b], mix)),
          [a, b, mix])

    g = _param(rng, 5)
    beta = _param(rng, 5)
    check("layer_norm", lambda: _sum_sq(layer_norm(x[:, :5], g, beta)),
          [x, g, beta])

    w = _param(rng, 3, 4, 5)
    cx = _param(rng, 2, 8, 4)
    check("conv1d", lambda: _sum_sq(conv1d(cx, w, stride=2, padding=1)),
          [cx, w])
    dw = _param(rng, 3, 4)
    check("depthwise_conv1d",
          lambda: _sum_sq(depthwise_conv1d(cx, dw, padding=1)), [cx, dw])
    check("glu", lambda: glu(cx).sum(), [cx])
    # A fresh stream with a fixed seed redraws the same mask every call,
    # which keeps the loss deterministic for the numeric probes.
    check("dropout", lambda: Dropout(0.4, RngStream(77))(cx).sum(), [cx])
    # Attention over two heads of width 3: three queries aligned to the last
    # of five keys, with relative offsets clipped at 1, a causal mask and a
    # fixed-seed dropout mask; and a batch of two query sets over a key
    # batch of one, which broadcasts, with no relative positions or mask.
    att_q = _param(rng, 2, 3, 3)
    att_k = _param(rng, 2, 5, 3)
    att_v = _param(rng, 2, 5, 3)
    rel_k = _param(rng, 3, 3)
    rel_v = _param(rng, 3, 3)
    check("attention_relative_causal_dropout", lambda: _sum_sq(attention(
        att_q, att_k, att_v, rel_k, rel_v, mask=causal_mask(3, 5),
        drop=Dropout(0.3, RngStream(78)))), [att_q, att_k, att_v, rel_k, rel_v])
    rows_q = _param(rng, 2, 2, 4, 3)
    check("attention_plain_full", lambda: _sum_sq(attention(
        rows_q, att_k[None], att_v[None])), [rows_q, att_k, att_v])
    # A ragged batch: one target repeats a label, the other is shorter.
    ctc_x = _param(rng, 2, 4, 6)
    check("ctc", lambda: ctc_loss_batch(ctc_x.log_softmax(axis=-1),
                                        [[5, 5], [2]]).sum(), [ctc_x])
    return results


def tiny_multitask_gradcheck(seed: int = 0) -> float:
    """Gradient-check every parameter of a tiny stacked-encoder model
    through the full multitask loss; returns the max relative error."""
    cfg = ModelConfig(vocab_size=7, variant="sate", enc_layers=3,
                      acoustic_layers=2, dec_layers=1,
                      hidden=8, heads=2, ffn=16, conv_kernel=3,
                      rpe_enc_max=3, rpe_dec_max=2,
                      dropout=0.0)
    rng = RngStream(seed)
    model = SpeechTranslator(cfg, rng.child("init"))
    feats = Tensor(rng.child("feats").normal(0.0, 1.0, size=(1, 12, 80)))
    prefix = np.array([[BOS_ID, 5, 6]])
    targets = np.array([[5, 6, EOS_ID]])
    src_target = [5, 6]  # length 2 fits the 3 downsampled frames
    def f():
        logits, enc = model.forward(feats, prefix)
        ce = label_smoothed_ce(logits.reshape(3, cfg.vocab_size),
                               targets.reshape(-1), 0.1)
        ctc = ctc_loss_batch(enc.ctc_logits.log_softmax(axis=-1),
                             [src_target]).mean()
        return multitask_loss(ce, ctc, 0.3)

    return grad_check(f, [p for _, p in model.named_parameters()])


def ctc_oracle_sweep(trials: int = 100, seed: int = 0) -> float:
    """Compare the CTC recurrence against brute-force path enumeration.

    For every frame count in 1..6, target length in 0..3, and vocabulary
    size in 2..4 (symbol 0 plays the blank), draws `trials` random per-frame
    distributions with a random feasible target and returns the worst
    |dynamic-programming loss - enumeration loss|.  Structurally infeasible
    (frames, length) pairs are checked to raise on both sides instead.
    `trials` must be at least 1, so the sweep always compares something.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = RngStream(seed)
    worst = 0.0
    for t_frames in range(1, 7):
        for vocab in range(2, 5):
            for length in range(0, 4):
                for trial in range(trials):
                    case = rng.child("case", t_frames, vocab, length, trial)
                    logits = case.normal(0.0, 2.0, size=(t_frames, vocab))
                    m = logits.max(axis=1, keepdims=True)
                    log_probs = logits - (m + np.log(np.exp(logits - m).sum(
                        axis=1, keepdims=True)))
                    target = _draw_target(case, vocab, length, t_frames)
                    if target is None:
                        # No target of this length fits in t_frames: both
                        # implementations must refuse.
                        _assert_both_infeasible(log_probs, [1] * length)
                        break
                    dp = float(ctc_loss_batch(Tensor(log_probs[None]), [target],
                                              blank=0).data[0])
                    ref = ctc_loss_brute_force(log_probs, target, blank=0)
                    worst = max(worst, abs(dp - ref))
    return worst


def _draw_target(rng: RngStream, vocab: int, length: int, t_frames: int):
    """A random feasible target over symbols 1..vocab-1, or None if no
    length-`length` target fits in t_frames."""
    if length == 0:
        return []
    for _ in range(64):
        target = [int(x) for x in rng.integers(1, vocab, size=length)]
        if ctc_feasible(t_frames, target):
            return target
    # The roomiest target alternates symbols (needs length frames) when two
    # content symbols exist, else repeats one (needs a blank per repeat).
    if vocab > 2 and length <= t_frames:
        return ([1, 2] * length)[:length]
    if vocab == 2 and 2 * length - 1 <= t_frames:
        return [1] * length
    return None


def _assert_both_infeasible(log_probs: np.ndarray, target: list):
    for fn in (lambda: ctc_loss_batch(Tensor(log_probs[None]), [target], blank=0),
               lambda: ctc_loss_brute_force(log_probs, target, blank=0)):
        try:
            fn()
        except CtcInfeasibleError:
            continue
        raise AssertionError(f"expected infeasibility error for {target} "
                             f"over {log_probs.shape[0]} frames")
