"""Tests for the architecture ladder: blocks, positions, variants."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oracles import (band_gather, band_sum, composite_linear, composite_weighted_sum,
                     matmul, relative_position_index, retaining_backward)
from tinyst.decoding import DecodeConfig, beam_search, encode_for_decoding
from tinyst.model import (Adaptor, ConformerBlock, ConvModule, DecoderLayerCache,
                          DlclCombiner, Downsampler, EncoderOutput,
                          FeedForward, MemoryCache, ModelConfig,
                          MultiHeadAttention, SelfAttentionCache, SpeechTranslator,
                          TransformerDecoderLayer, TransformerEncoderLayer, VARIANTS,
                          _EncoderStack, add_absolute_positions, causal_mask,
                          downsampled_length, sinusoidal_positions)
from tinyst.rng import RngStream
from tinyst.tensor import (Dropout, Tensor, grad_check, layer_norm, linear,
                           no_dropout, no_grad)
from tinyst.text import BOS_ID, EOS_ID


def tiny_cfg(**kw):
    base = dict(vocab_size=7, variant="baseline", enc_layers=2, dec_layers=1,
                acoustic_layers=1, hidden=8, heads=2, ffn=16,
                dropout=0.0, conv_kernel=3,
                rpe_enc_max=4, rpe_dec_max=3)
    base.update(kw)
    return ModelConfig(**base)


def sum_sq(y):
    return (y * y).sum()


def zero_params(module):
    for p in module.parameters():
        p.data[...] = 0.0


class TestModelConfig:
    def test_rejects_bad_variant(self):
        with pytest.raises(ValueError, match="variant"):
            tiny_cfg(variant="rnn")

    def test_rejects_indivisible_heads(self):
        with pytest.raises(ValueError, match="divisible"):
            tiny_cfg(hidden=9, heads=2)

    @pytest.mark.parametrize("name, bad", [
        ("vocab_size", 5), ("enc_layers", 0), ("dec_layers", 0), ("hidden", -4),
        ("heads", 0), ("ffn", 0), ("dropout", 1.5), ("dropout", -0.1),
        ("rpe_enc_max", 0), ("rpe_dec_max", 0), ("conv_kernel", 0),
        ("acoustic_layers", 0), ("acoustic_layers", 2)])
    def test_bad_value_names_its_field(self, name, bad):
        # sate, so that acoustic_layers must leave a textual layer of the 2.
        with pytest.raises(ValueError, match=name):
            tiny_cfg(variant="sate", **{name: bad})

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            tiny_cfg(conv_kernel=4)

    def test_default_clip_radii(self):
        cfg = ModelConfig(vocab_size=100)
        assert cfg.rpe_enc_max == 100 and cfg.rpe_dec_max == 20


class TestDownsampler:
    def test_factor_of_four(self):
        ds = Downsampler(8, RngStream(0))
        x = Tensor(np.random.default_rng(0).normal(size=(1, 100, 80)))
        assert ds(x).shape == (1, 25, 8)

    def test_odd_length_composition(self):
        ds = Downsampler(8, RngStream(0))
        x = Tensor(np.random.default_rng(0).normal(size=(1, 7, 80)))
        assert ds(x).shape[1] == 2  # ceil(7/2)=4, ceil(4/2)=2

    def test_length_law_5_to_64(self):
        ds = Downsampler(4, RngStream(1))
        rng = np.random.default_rng(1)
        for t in range(5, 65):
            out = ds(Tensor(rng.normal(size=(1, t, 80))))
            want = -(-(-(-t // 2)) // 2)
            assert out.shape[1] == want == downsampled_length(t)

    def test_zero_input_zero_bias_gives_zero(self):
        ds = Downsampler(8, RngStream(2))
        out = ds(Tensor(np.zeros((1, 12, 80))))
        np.testing.assert_array_equal(out.data, 0.0)


class TestPositions:
    def test_origin_is_sin_zero(self):
        table = sinusoidal_positions(3, 8)
        assert table[0, 0] == 0.0

    def test_deterministic(self):
        np.testing.assert_array_equal(sinusoidal_positions(5, 8),
                                      sinusoidal_positions(5, 8))

    def test_closed_form_position_one(self):
        table = sinusoidal_positions(2, 4)
        want = [np.sin(1.0), np.cos(1.0), np.sin(0.01), np.cos(0.01)]
        np.testing.assert_allclose(table[1], want, atol=1e-12)

    def test_add_positions_shape(self):
        x = Tensor(np.zeros((2, 5, 8)))
        out = add_absolute_positions(x)
        np.testing.assert_allclose(out.data[0], sinusoidal_positions(5, 8))
        np.testing.assert_array_equal(out.data[0], out.data[1])

    def test_start_gives_the_later_rows(self):
        np.testing.assert_allclose(sinusoidal_positions(3, 8, start=4),
                                   sinusoidal_positions(7, 8)[4:],
                                   rtol=0, atol=1e-15)


class TestRelativeAttention:
    def test_far_offset_clips_to_max_index(self):
        idx = relative_position_index(151, 151, 100)
        assert idx[0, 150] == 200
        assert idx[150, 0] == 0
        assert idx[3, 3] == 100

    @pytest.mark.parametrize("t_query", [1, 2, 5])
    def test_queries_align_to_the_last_keys(self, t_query):
        full_idx = relative_position_index(9, 9, 3)
        np.testing.assert_array_equal(relative_position_index(t_query, 9, 3),
                                      full_idx[9 - t_query:])
        np.testing.assert_array_equal(causal_mask(t_query, 9),
                                      causal_mask(9, 9)[9 - t_query:])

    def test_square_mask_hides_the_future(self):
        mask = causal_mask(4, 4)
        np.testing.assert_array_equal(mask != 0, np.triu(np.ones((4, 4)), k=1))

    def test_zero_rel_embeddings_match_vanilla(self):
        rng = np.random.default_rng(3)
        plain = MultiHeadAttention(8, 2, RngStream(5))
        rel = MultiHeadAttention(8, 2, RngStream(5), max_rel=4)
        for (_, a), (_, b) in zip(plain.named_parameters(), rel.named_parameters()):
            b.data[...] = a.data
        rel.rel_k.data[...] = 0.0
        rel.rel_v.data[...] = 0.0
        x = Tensor(rng.normal(size=(2, 6, 8)))
        np.testing.assert_array_equal(plain(x, x).data, rel(x, x).data)

    def test_causal_row_zero_sees_only_itself(self):
        attn = MultiHeadAttention(8, 2, RngStream(6))
        rng = np.random.default_rng(4)
        base = rng.normal(size=(1, 2, 8))
        changed = base.copy()
        changed[0, 1] += 3.0
        out_a = attn(Tensor(base), Tensor(base), causal=True)
        out_b = attn(Tensor(changed), Tensor(changed), causal=True)
        np.testing.assert_array_equal(out_a.data[0, 0], out_b.data[0, 0])
        assert not np.allclose(out_a.data[0, 1], out_b.data[0, 1])

    def test_gradient_with_relative_embeddings(self):
        attn = MultiHeadAttention(4, 2, RngStream(7), max_rel=2)
        x = Tensor(np.random.default_rng(5).normal(size=(1, 3, 4)),
                   requires_grad=True)
        params = [x] + attn.parameters()
        err = grad_check(lambda: sum_sq(attn(x, x, causal=True)), params)
        assert err < 1e-4


def reference_relative_attention(attn, query, kv, causal=False, drop=no_dropout):
    """`MultiHeadAttention` with relative positions, written as the
    (Tq, Tk, d_head) gather of `rel_k` and `rel_v` and broadcast matmuls
    that the band ops replaced: the oracle for them."""
    b, tq, hidden = query.shape
    q = attn._split(attn.wq(query))
    k, v = attn._project_kv(kv)
    tk = k.shape[2]
    idx = relative_position_index(tq, tk, attn.max_rel)
    rel_k = attn.rel_k[idx]  # (Tq, Tk, d_head)
    qt = q.transpose(2, 0, 1, 3).reshape(tq, b * attn.heads, 1, attn.d_head)
    srel = matmul(qt, rel_k.transpose(0, 2, 1).reshape(tq, 1, attn.d_head, tk))
    scores = matmul(q, k.transpose(0, 1, 3, 2)) \
        + srel.reshape(tq, b, attn.heads, tk).transpose(1, 2, 0, 3)
    scores = scores * (attn.d_head ** -0.5)
    if causal:
        scores = scores + Tensor(causal_mask(tq, tk))
    weights = drop(scores.softmax(axis=-1))
    rel_v = attn.rel_v[idx]  # (Tq, Tk, d_head)
    wt = weights.transpose(2, 0, 1, 3).reshape(tq, b * attn.heads, 1, tk)
    crel = matmul(wt, rel_v.reshape(tq, 1, tk, attn.d_head))
    ctx = matmul(weights, v) + crel.reshape(tq, b, attn.heads, attn.d_head).transpose(1, 2, 0, 3)
    return attn.wo(ctx.transpose(0, 2, 1, 3).reshape(b, tq, hidden))


def composite_attention(attn, query, kv, causal=False, drop=no_dropout,
                        cache=None):
    """`MultiHeadAttention.__call__` with its scores-to-context core built
    from small graph ops, as it was before the fused `attention` op: the
    oracle for that op."""
    b, tq, hidden = query.shape
    q = attn._split(attn.wq(query))
    k, v = (attn._project_kv(kv) if cache is None
            else cache.keys_values(attn._project_kv, kv))
    tk = k.shape[2]
    scores = matmul(q, k.transpose(0, 1, 3, 2))
    if attn.max_rel is not None:
        scores = scores + band_gather(matmul(q, attn.rel_k.transpose()), tk)
    scores = scores * (attn.d_head ** -0.5)
    if causal:
        scores = scores + Tensor(causal_mask(tq, tk))
    weights = drop(scores.softmax(axis=-1))
    ctx = matmul(weights, v)
    if attn.max_rel is not None:
        ctx = ctx + matmul(band_sum(weights, attn.max_rel), attn.rel_v)
    return attn.wo(ctx.transpose(0, 2, 1, 3).reshape(b, tq, hidden))


def outputs_and_grads(forward, attn, inputs, weights):
    """forward(attn)'s output, and the gradients of its weighted sum for
    attn's parameters and the leaf tensors `inputs`."""
    attn.zero_grad()
    for t in inputs:
        t.grad = None
    out = forward(attn)
    (out * Tensor(weights)).sum().backward()
    grads = {name: p.grad.copy() for name, p in attn.named_parameters()}
    grads.update((f"input{i}", t.grad.copy()) for i, t in enumerate(inputs))
    return out.data, grads


def assert_same_outputs_and_grads(got, want):
    np.testing.assert_allclose(got[0], want[0], rtol=0, atol=1e-12)
    assert set(got[1]) == set(want[1])
    for name in got[1]:
        np.testing.assert_allclose(got[1][name], want[1][name], rtol=0,
                                   atol=1e-12, err_msg=name)


class TestBandAttention:
    """Relative attention by clipped offset against the (Tq, Tk, d_head)
    oracle, and the memory the band form saves."""

    # (t_query, t_key, max_rel): offsets clip, nothing clips, and queries
    # aligned to the last of 9 keys as in a cached decoder step.
    SHAPES = {"clipped": (11, 11, 2), "unclipped": (4, 4, 5),
              "one_query": (1, 9, 3), "three_queries": (3, 9, 3)}

    @pytest.mark.parametrize("causal", [False, True], ids=["full", "causal"])
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("p_drop", [0.0, 0.3], ids=["eval", "dropout"])
    def test_matches_gather_oracle(self, shape, causal, p_drop):
        t_query, t_key, max_rel = self.SHAPES[shape]
        rng = np.random.default_rng(50)
        attn = MultiHeadAttention(8, 2, RngStream(51), max_rel=max_rel)
        x = Tensor(rng.normal(size=(2, t_key, 8)), requires_grad=True)
        weights = rng.normal(size=(2, t_query, 8))

        # A fresh stream per call draws the same mask for both paths.
        def band(m):
            return m(x[:, -t_query:], x, causal=causal,
                     drop=Dropout(p_drop, RngStream(52)))

        def oracle(m):
            return reference_relative_attention(
                m, x[:, -t_query:], x, causal=causal,
                drop=Dropout(p_drop, RngStream(52)))

        got = outputs_and_grads(band, attn, [x], weights)
        want = outputs_and_grads(oracle, attn, [x], weights)
        assert_same_outputs_and_grads(got, want)
        assert set(got[1]) >= {"rel_k", "rel_v", "wq.weight", "input0"}
        if p_drop:
            # The rate and the stream reach the fused op: the mask shows.
            with no_grad():
                evaluated = attn(x[:, -t_query:], x, causal=causal).data
            assert not np.allclose(got[0], evaluated)

    def test_peak_memory_at_long_shape(self):
        # One layer's forward and backward at T'=256 with max_rel=100 peaks
        # near 101 MB through (T, T, d_head) tables, near 36 MB by offset
        # with the core as a graph of small ops, and near 13.2 MB as one
        # fused op whose graph frees as backward runs.
        attn = MultiHeadAttention(64, 4, RngStream(53), max_rel=100)
        x = Tensor(np.random.default_rng(54).normal(size=(1, 256, 64)),
                   requires_grad=True)
        tracemalloc.start()
        try:
            attn(x, x).sum().backward()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 15e6, f"peak {peak / 1e6:.1f} MB"

    def test_retains_nothing_over_many_lengths(self):
        # Beam search meets a new key length every step and training a new
        # T' every batch: nothing may be kept from one length to the next.
        attn = MultiHeadAttention(8, 2, RngStream(55), max_rel=100)
        x = Tensor(np.random.default_rng(56).normal(size=(1, 200, 8)))
        tracemalloc.start()
        try:
            with no_grad():
                for t in range(100, 200):
                    attn(x[:, :t], x[:, :t])
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A cache of per-length index arrays held 7.7 MB here.
        assert retained < 1e6, f"retained {retained / 1e6:.2f} MB"


class TestFusedAttention:
    """`MultiHeadAttention`'s fused core against `composite_attention`, in
    output and in every input and parameter gradient."""

    @pytest.mark.parametrize("p_drop", [0.0, 0.3], ids=["eval", "dropout"])
    @pytest.mark.parametrize("causal", [False, True], ids=["full", "causal"])
    @pytest.mark.parametrize("max_rel", [None, 2], ids=["plain", "relative"])
    @pytest.mark.parametrize("t_query", [7, 3], ids=["all_keys", "last_keys"])
    def test_matches_composite(self, t_query, max_rel, causal, p_drop):
        rng = np.random.default_rng(60)
        attn = MultiHeadAttention(8, 2, RngStream(61), max_rel=max_rel)
        x = Tensor(rng.normal(size=(2, 7, 8)), requires_grad=True)
        weights = rng.normal(size=(2, t_query, 8))

        def run(forward):
            return outputs_and_grads(lambda m: forward(
                m, x[:, -t_query:], x, causal=causal,
                drop=Dropout(p_drop, RngStream(62))), attn, [x], weights)

        assert_same_outputs_and_grads(run(MultiHeadAttention.__call__),
                                      run(composite_attention))

    def test_broadcast_memory_matches_composite(self):
        # Three query rows over the keys and values of one memory row, which
        # broadcast over the rows, as in cross-attention during beam search.
        rng = np.random.default_rng(63)
        attn = MultiHeadAttention(8, 2, RngStream(64))
        query = Tensor(rng.normal(size=(3, 2, 8)), requires_grad=True)
        memory = Tensor(rng.normal(size=(1, 5, 8)), requires_grad=True)
        weights = rng.normal(size=(3, 2, 8))

        def run(forward):
            return outputs_and_grads(lambda m: forward(
                m, query, memory, drop=Dropout(0.3, RngStream(65)),
                cache=MemoryCache()), attn, [query, memory], weights)

        assert_same_outputs_and_grads(run(MultiHeadAttention.__call__),
                                      run(composite_attention))

    @pytest.mark.parametrize("max_rel", [None, 2], ids=["plain", "relative"])
    def test_cached_single_query_steps_match_composite(self, max_rel):
        # Causal self-attention one position at a time over a growing cache
        # whose rows are reordered midway, as in beam search; offsets clip
        # from the fourth step on.
        rng = np.random.default_rng(66)
        attn = MultiHeadAttention(8, 2, RngStream(67), max_rel=max_rel)
        steps = rng.normal(size=(6, 3, 1, 8))
        outputs = []
        for forward in (MultiHeadAttention.__call__, composite_attention):
            cache = SelfAttentionCache()
            outputs.append([])
            with no_grad():
                for i, x in enumerate(steps):
                    outputs[-1].append(forward(attn, Tensor(x), Tensor(x),
                                               causal=True, cache=cache).data)
                    if i == 2:
                        cache.reorder(np.array([2, 0, 0]))
        for got, want in zip(*outputs):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def training_step(cfg: ModelConfig, batch: int, frames: int, length: int) -> tuple:
    """A model and the loss of one of its training steps (dropout on, CE and
    CTC) on random features and targets of `length` tokens, as (model,
    loss), where each call of loss() runs the forward pass afresh from the
    same seeds."""
    from tinyst.losses import ctc_loss_batch, label_smoothed_ce, multitask_loss

    model = SpeechTranslator(cfg, RngStream(1))
    rng = np.random.default_rng(2)
    feats = Tensor(rng.normal(size=(batch, frames, 80)))
    tokens = rng.integers(5, cfg.vocab_size, size=(batch, length))
    prefix = np.concatenate([np.full((batch, 1), BOS_ID), tokens], axis=1)
    targets = np.concatenate([tokens, np.full((batch, 1), EOS_ID)], axis=1)
    t_out = downsampled_length(frames)

    def loss():
        logits, enc = model.forward(feats, prefix, rng=RngStream(3))
        ce = label_smoothed_ce(logits.reshape(-1, cfg.vocab_size),
                               targets.reshape(-1))
        ctc = ctc_loss_batch(enc.ctc_logits.log_softmax(axis=-1),
                             [list(t[:t_out // 2]) for t in tokens]).mean()
        return multitask_loss(ce, ctc, 0.3)

    return model, loss


def training_step_peak(cfg: ModelConfig, batch: int, frames: int,
                       length: int) -> int:
    """The tracemalloc peak, in bytes, of one `training_step`'s forward and
    backward."""
    _, loss = training_step(cfg, batch, frames, length)
    tracemalloc.start()
    try:
        loss().backward()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTrainingStepMemory:
    def test_peak_memory_of_a_long_conformer_rpe_step(self):
        # The long benchmark's model on a 10.5 s utterance (T'=263) with a
        # 100-token target.  Graph nodes that held their input tensors kept
        # every intermediate alive until backward reached it: 48.8 MB.  Nodes
        # that hold no values, and vjps that keep only what they read, peak
        # at 39.1 MB.
        cfg = ModelConfig(vocab_size=60, variant="conformer_rpe", enc_layers=3,
                          dec_layers=1, hidden=64, heads=4, ffn=256)
        peak = training_step_peak(cfg, batch=1, frames=1050, length=100)
        assert peak < 45e6, f"peak {peak / 1e6:.1f} MB"

    def test_peak_memory_of_a_toy_baseline_step(self):
        # The toy benchmark's model on a full batch: 37 utterances of 48
        # frames (T'=12) with 12-token targets.  Graph nodes that held their
        # input tensors peaked at 53.4 MiB; nodes that hold no values, and
        # vjps that keep only what they read, peak at 28.2 MiB.
        cfg = ModelConfig(vocab_size=40, variant="baseline", enc_layers=4,
                          dec_layers=2, hidden=64, heads=4, ffn=256)
        peak = training_step_peak(cfg, batch=37, frames=48, length=12)
        assert peak < 36 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


def benchmark_cfg(variant: str, enc_layers: int, dec_layers: int) -> ModelConfig:
    """A benchmark workload's model (sate with 2 acoustic layers and the
    adaptor's embedding mix on)."""
    return ModelConfig(vocab_size=60, variant=variant, enc_layers=enc_layers,
                       dec_layers=dec_layers, acoustic_layers=2, hidden=64,
                       heads=4, ffn=256, adaptor_mix_embeddings=True)


def step_gradients(model) -> dict:
    return {name: p.grad for name, p in model.named_parameters()}


def assert_step_gradients_match(got: dict, want: dict):
    """Each parameter gradient, keyed by name, is within 1e-12 of the
    reference relative to the reference's largest entry."""
    assert got.keys() == want.keys()
    for name, ref in want.items():
        assert np.max(np.abs(got[name] - ref)) <= 1e-12 * np.max(np.abs(ref)), name


# The toy and long benchmark shapes, each variant at the layer counts of its
# workload.
BENCHMARK_STEPS = pytest.mark.parametrize(
    "batch, frames, length, enc_layers, dec_layers",
    [(37, 48, 12, 4, 2), (1, 1050, 100, 3, 1)], ids=["toy", "long"])


class TestGradientsAsValues:
    # Keeping a first gradient as given hands BLAS the layout its vjp
    # produced, so gradients agree with the zero-fill accumulator to
    # rounding, and losses bit for bit.
    @pytest.mark.parametrize("variant", VARIANTS)
    @BENCHMARK_STEPS
    def test_training_step_matches_the_zero_fill_engine(
            self, variant, batch, frames, length, enc_layers, dec_layers):
        model, loss = training_step(benchmark_cfg(variant, enc_layers, dec_layers),
                                    batch, frames, length)
        got = loss()
        got.backward()
        want = loss()
        reference = retaining_backward(want, zero_fill=True)
        assert got.data.tobytes() == want.data.tobytes()
        assert_step_gradients_match(
            step_gradients(model),
            {name: reference[id(p)] for name, p in model.named_parameters()})


class TestEveryParameterLearns:
    # A parameter whose gradient is rounding noise beside the step's largest
    # can never learn.  The attention key bias, which the softmax cancels,
    # read at most 2e-18 of the largest entry here.
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_no_gradient_vanishes_in_a_toy_step(self, variant):
        model, loss = training_step(benchmark_cfg(variant, 4, 2), 37, 48, 12)
        loss().backward()
        largest = {name: np.max(np.abs(g)) for name, g in step_gradients(model).items()}
        top = max(largest.values())
        assert [name for name, m in largest.items() if m < 1e-12 * top] == []


# One toy-benchmark training step whose parameter gradients are saved to the
# .npz file named by the first argument.
TOY_STEP_SCRIPT = """
import sys
import numpy as np
from test_model import benchmark_cfg, step_gradients, training_step
model, loss = training_step(benchmark_cfg("baseline", 4, 2), 37, 48, 12)
loss().backward()
np.savez(sys.argv[1], **step_gradients(model))
"""


class TestLinear:
    """The `linear` node against the matmul and bias-add nodes it replaced
    (`oracles.composite_linear`).  Its forward is the same product, so
    losses and decodes match bit for bit, and its vjps run one GEMM (one
    sum for the bias) over all positions at once, which changes only the
    rounding of the gradients."""

    @pytest.mark.parametrize("variant", VARIANTS)
    @BENCHMARK_STEPS
    def test_training_step_matches_composite(
            self, variant, batch, frames, length, enc_layers, dec_layers,
            monkeypatch):
        model, loss = training_step(benchmark_cfg(variant, enc_layers, dec_layers),
                                    batch, frames, length)
        steps = []
        for projection in (linear, composite_linear):
            monkeypatch.setattr("tinyst.model.linear", projection)
            model.zero_grad()
            value = loss()
            value.backward()
            steps.append((value.data.tobytes(), step_gradients(model)))
        (got_loss, got), (want_loss, want) = steps
        assert got_loss == want_loss
        assert_step_gradients_match(got, want)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("frames, enc_layers, dec_layers, max_len_factor", [
        (48, 4, 2, 1.0), (1050, 3, 1, 0.4)], ids=["toy", "long"])
    def test_beam_search_matches_composite(
            self, variant, frames, enc_layers, dec_layers, max_len_factor,
            monkeypatch):
        model = SpeechTranslator(benchmark_cfg(variant, enc_layers, dec_layers),
                                 RngStream(1))
        feats = np.random.default_rng(2).normal(size=(frames, 80))
        cfg = DecodeConfig(beam=5, max_len_factor=max_len_factor)
        runs = []
        for projection in (linear, composite_linear):
            monkeypatch.setattr("tinyst.model.linear", projection)
            runs.append(beam_search([(model, encode_for_decoding(model, feats))], cfg))
        got, want = runs
        assert got == want

    def test_gradients_agree_across_blas_thread_counts(self, tmp_path):
        # The weight GEMM contracts over all B*T positions, which is the
        # contraction OpenBLAS splits across threads: the thread count may
        # move only the last bits.
        tests = Path(__file__).resolve().parent
        path = [str(tests.parent / "src"), str(tests)]
        if os.environ.get("PYTHONPATH"):
            path.append(os.environ["PYTHONPATH"])
        grads = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}.npz"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(path))
            subprocess.run([sys.executable, "-c", TOY_STEP_SCRIPT, str(out)],
                           env=env, check=True)
            with np.load(out) as saved:
                grads.append(dict(saved))
        assert_step_gradients_match(*grads)

    def test_suite_runs_at_one_blas_thread(self):
        # tests/conftest.py pins OpenBLAS before numpy loads.  OpenBLAS
        # splits this product across threads: on a 2-vCPU x86 VM, one and
        # two threads give different bytes.
        script = ("import sys, numpy as np\n"
                  "rng = np.random.default_rng(5)\n"
                  "a, b = rng.normal(size=(240, 592)), rng.normal(size=(592, 64))\n"
                  "sys.stdout.buffer.write((a @ b).tobytes())\n")
        pinned = subprocess.run([sys.executable, "-c", script], check=True,
                                capture_output=True,
                                env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=(240, 592)), rng.normal(size=(592, 64))
        assert (a @ b).tobytes() == pinned.stdout


class TestTransformerLayer:
    def test_zeroed_weights_are_identity(self):
        layer = TransformerEncoderLayer(tiny_cfg(), RngStream(8))
        zero_params(layer)
        x = Tensor(np.random.default_rng(6).normal(size=(2, 5, 8)))
        np.testing.assert_array_equal(layer(x).data, x.data)

    def test_shape_preserved_random_sizes(self):
        layer = TransformerEncoderLayer(tiny_cfg(), RngStream(9))
        rng = np.random.default_rng(7)
        for _ in range(5):
            b, t = int(rng.integers(1, 4)), int(rng.integers(1, 9))
            x = Tensor(rng.normal(size=(b, t, 8)))
            assert layer(x).shape == (b, t, 8)

    def test_matches_reference_composition(self):
        cfg = tiny_cfg(hidden=2, heads=1, ffn=2)
        layer = TransformerEncoderLayer(cfg, RngStream(10))
        wq = np.array([[0.5, -0.2], [0.1, 0.3]])
        wk = np.array([[0.2, 0.4], [-0.3, 0.6]])
        wv = np.array([[1.0, 0.0], [0.5, -0.5]])
        wo = np.array([[0.7, 0.1], [-0.2, 0.9]])
        w1 = np.array([[0.3, -0.6], [0.8, 0.2]])
        w2 = np.array([[-0.4, 0.5], [0.6, 0.1]])
        layer.attn.wq.weight.data[...] = wq
        layer.attn.wk.weight.data[...] = wk
        layer.attn.wv.weight.data[...] = wv
        layer.attn.wo.weight.data[...] = wo
        layer.ffn.lin1.weight.data[...] = w1
        layer.ffn.lin2.weight.data[...] = w2
        for attr in ("wq", "wv", "wo"):
            getattr(layer.attn, attr).bias.data[...] = 0.0
        layer.ffn.lin1.bias.data[...] = 0.0
        layer.ffn.lin2.bias.data[...] = 0.0

        x = np.array([[0.4, -1.2], [2.0, 0.3], [-0.7, 0.9]])

        def ln(v):
            mu = v.mean(-1, keepdims=True)
            var = ((v - mu) ** 2).mean(-1, keepdims=True)
            return (v - mu) / np.sqrt(var + 1e-5)

        h = ln(x)
        q, k, v = h @ wq, h @ wk, h @ wv
        scores = q @ k.T / np.sqrt(2.0)
        e = np.exp(scores - scores.max(-1, keepdims=True))
        attn_probs = e / e.sum(-1, keepdims=True)
        y = x + (attn_probs @ v) @ wo
        ref = y + np.maximum(ln(y) @ w1, 0.0) @ w2

        got = layer(Tensor(x[None])).data[0]
        np.testing.assert_allclose(got, ref, atol=1e-12)


def unit_norm_out(block):
    """Zero every weight except norm_out's gain, which is set to 1, so the
    block returns layer_norm of its residual stream."""
    zero_params(block)
    block.norm_out.gain.data[...] = 1.0


class TestConformerBlock:
    def test_zeroed_weights_give_norm_of_input(self):
        block = ConformerBlock(tiny_cfg(variant="conformer"), RngStream(11))
        unit_norm_out(block)
        x = Tensor(np.random.default_rng(8).normal(size=(1, 5, 8)))
        want = layer_norm(x, Tensor(np.ones(8)), Tensor(np.zeros(8))).data
        np.testing.assert_array_equal(block(x).data, want)

    def test_first_ffn_contribution_is_halved(self):
        cfg = tiny_cfg(variant="conformer", ffn=8)
        block = ConformerBlock(cfg, RngStream(12))
        unit_norm_out(block)
        # identity-ish FFN1: lin1 embeds into the first 8 columns, lin2 reads
        # them back, so ffn1(y) == swish(y) and the residual should add half.
        block.norm_ffn1.gain.data[...] = 1.0
        block.ffn1.lin1.weight.data[...] = np.eye(8)
        block.ffn1.lin2.weight.data[...] = np.eye(8)
        x = np.random.default_rng(9).normal(size=(1, 4, 8))
        mu = x.mean(-1, keepdims=True)
        var = ((x - mu) ** 2).mean(-1, keepdims=True)
        normed = (x - mu) / np.sqrt(var + 1e-5)
        swish = normed / (1.0 + np.exp(-normed))
        want = layer_norm(Tensor(x + 0.5 * swish), Tensor(np.ones(8)),
                          Tensor(np.zeros(8))).data
        got = block(Tensor(x)).data
        np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("t", [1, 5, 17])
    def test_shape_preserved(self, t):
        block = ConformerBlock(tiny_cfg(variant="conformer", conv_kernel=7),
                               RngStream(13))
        x = Tensor(np.random.default_rng(t).normal(size=(2, t, 8)))
        assert block(x).shape == (2, t, 8)

    def test_gradient(self):
        cfg = tiny_cfg(variant="conformer", hidden=4, heads=2, ffn=4)
        block = ConformerBlock(cfg, RngStream(14))
        x = Tensor(np.random.default_rng(10).normal(size=(1, 3, 4)),
                   requires_grad=True)
        err = grad_check(lambda: sum_sq(block(x)), [x] + block.parameters())
        assert err < 1e-4


class TestDlcl:
    def test_init_rows_are_uniform(self):
        dlcl = DlclCombiner(4, 8)
        names = [n for n, _ in dlcl.named_parameters()]
        assert names[:6] == [f"weights.{r}" for r in range(5)] + ["norms.0.gain"]
        for r, w in enumerate(dlcl.weights):
            np.testing.assert_array_equal(w.data, np.full(r + 1, 1.0 / (r + 1)))

    def test_one_hot_row_recovers_single_layer(self):
        dlcl = DlclCombiner(2, 8)
        dlcl.weights[2].data[...] = [0.0, 1.0, 0.0]
        rng = np.random.default_rng(11)
        outs = [Tensor(rng.normal(size=(1, 4, 8))) for _ in range(3)]
        np.testing.assert_allclose(dlcl.combine(outs, 2).data, outs[1].data,
                                   atol=1e-15)

    def test_equal_inputs_uniform_weights_fixed_point(self):
        dlcl = DlclCombiner(1, 8)
        y = Tensor(np.random.default_rng(12).normal(size=(2, 3, 8)))
        np.testing.assert_allclose(dlcl.combine([y, y], 1).data, y.data, atol=1e-15)

    @pytest.mark.parametrize("row", range(4))
    def test_mix_matches_composite_bitwise(self, row):
        # The mix is elementwise (no BLAS call), so the bits do not depend
        # on the BLAS thread count.
        rng = np.random.default_rng(14)
        dlcl = DlclCombiner(3, 8)
        dlcl.weights[row].data[...] = rng.normal(size=row + 1)
        outs = [Tensor(rng.normal(size=(2, 5, 8)), requires_grad=True)
                for _ in range(4)]
        g = Tensor(rng.normal(size=(2, 5, 8)))

        def run(mix):
            dlcl.zero_grad()
            for t in outs:
                t.grad = None
            y = mix()
            (y * g).sum().backward()
            return [y.data, dlcl.weights[row].grad] + [t.grad for t in outs[:row + 1]]

        got = run(lambda: dlcl.combine(outs, row))
        want = run(lambda: composite_weighted_sum(outs[:row + 1], dlcl.weights[row]))
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
        assert all(t.grad is None for t in outs[row + 1:])
        assert all(w.grad is None for r, w in enumerate(dlcl.weights) if r != row)


class TestVariants:
    @pytest.mark.parametrize("variant", ["baseline", "conformer",
                                         "conformer_rpe", "sate"])
    def test_t100_gives_25_memory_rows(self, variant):
        cfg = tiny_cfg(variant=variant)
        model = SpeechTranslator(cfg, RngStream(20))
        feats = Tensor(np.random.default_rng(14).normal(size=(1, 100, 80)))
        enc = model.encode(feats)
        assert enc.memory.shape == (1, 25, 8)
        assert enc.ctc_logits.shape == (1, 25, 7)
        assert enc.out_lengths == [25]

    def test_sate_ctc_head_reads_acoustic_output(self):
        cfg = tiny_cfg(variant="sate", enc_layers=2)
        model = SpeechTranslator(cfg, RngStream(21))
        feats = Tensor(np.random.default_rng(15).normal(size=(1, 20, 80)))
        enc = model.encode(feats)
        x = add_absolute_positions(model.downsampler(feats))
        acoustic = model.acoustic(x)
        np.testing.assert_array_equal(enc.ctc_logits.data,
                                      model.ctc_head(acoustic).data)
        bridged = model.adaptor(acoustic, model.ctc_head(acoustic),
                                model.embed.table)
        np.testing.assert_array_equal(enc.memory.data,
                                      model.textual(bridged).data)

    def test_baseline_ctc_head_reads_top_layer(self):
        model = SpeechTranslator(tiny_cfg(), RngStream(22))
        feats = Tensor(np.random.default_rng(16).normal(size=(1, 20, 80)))
        enc = model.encode(feats)
        np.testing.assert_array_equal(enc.ctc_logits.data,
                                      model.ctc_head(enc.memory).data)

    def test_rpe_with_zero_embeddings_equals_conformer(self):
        cfg_plain = tiny_cfg(variant="conformer")
        cfg_rel = tiny_cfg(variant="conformer_rpe")
        plain = SpeechTranslator(cfg_plain, RngStream(23))
        rel = SpeechTranslator(cfg_rel, RngStream(24))
        plain_params = dict(plain.named_parameters())
        for name, p in rel.named_parameters():
            if name.endswith("rel_k") or name.endswith("rel_v"):
                p.data[...] = 0.0
            else:
                p.data[...] = plain_params[name].data
        feats = Tensor(np.random.default_rng(17).normal(size=(1, 30, 80)))
        prefix = np.array([[BOS_ID, 5, 6]])
        logits_a, enc_a = plain.forward(feats, prefix)
        logits_b, enc_b = rel.forward(feats, prefix)
        np.testing.assert_array_equal(enc_a.memory.data, enc_b.memory.data)
        np.testing.assert_array_equal(logits_a.data, logits_b.data)


class TestDecoder:
    def test_causality_future_token_change(self):
        model = SpeechTranslator(tiny_cfg(variant="conformer_rpe"), RngStream(25))
        feats = Tensor(np.random.default_rng(18).normal(size=(1, 16, 80)))
        enc = model.encode(feats)
        a = model.decode_logits(enc, np.array([[BOS_ID, 5, 6, 5]]))
        b = model.decode_logits(enc, np.array([[BOS_ID, 5, 6, 6]]))
        np.testing.assert_allclose(a.data[0, :3], b.data[0, :3], atol=1e-12)

    def test_incremental_equals_full_forward(self):
        model = SpeechTranslator(tiny_cfg(variant="sate", enc_layers=2),
                                 RngStream(26))
        feats = Tensor(np.random.default_rng(19).normal(size=(1, 16, 80)))
        enc = model.encode(feats)
        prefix = np.array([[BOS_ID, 6, 5, 6, 5]])
        full = model.decode_logits(enc, prefix)
        cache = model.new_cache()
        with no_grad():
            for t in range(prefix.shape[1]):
                step = model.decoder_step(enc, prefix[:, t:t + 1], cache)
                np.testing.assert_allclose(step.data, full.data[:, t], atol=1e-10)

    def test_empty_prefix_rejected(self):
        model = SpeechTranslator(tiny_cfg(), RngStream(27))
        enc = model.encode(Tensor(np.zeros((1, 8, 80))))
        with pytest.raises(ValueError, match="prefix"):
            model.decoder_step(enc, np.zeros((1, 0), dtype=int),
                               model.new_cache())
        with pytest.raises(ValueError, match="prefix"):
            model.decode_logits(enc, np.zeros((1, 0), dtype=int))

    def test_prefix_must_begin_with_bos(self):
        model = SpeechTranslator(tiny_cfg(), RngStream(28))
        enc = model.encode(Tensor(np.zeros((1, 8, 80))))
        with pytest.raises(ValueError, match="bos"):
            model.decoder_step(enc, np.array([[5]]), model.new_cache())
        with pytest.raises(ValueError, match="bos"):
            model.decode_logits(enc, np.array([[5, 6]]))

    def test_zero_weight_decoder_is_uniform(self):
        model = SpeechTranslator(tiny_cfg(), RngStream(29))
        enc = model.encode(Tensor(np.random.default_rng(20).normal(size=(1, 8, 80))))
        zero_params(model.embed)
        for layer in model.dec_layers:
            zero_params(layer)
        zero_params(model.dec_norm)
        zero_params(model.out_proj)
        logits = model.decode_logits(enc, np.array([[BOS_ID, 5]]))[:, -1]
        probs = logits.softmax(axis=-1).data
        np.testing.assert_allclose(probs, 1.0 / 7.0, atol=1e-12)


class TestDecoderCache:
    """decoder_step through a cache that grows and reorders must give the
    teacher-forced logits of the prefixes its rows stand for."""

    @pytest.mark.parametrize("variant", ["baseline", "conformer_rpe", "sate"])
    def test_reordered_cache_matches_teacher_forcing(self, variant):
        model = SpeechTranslator(tiny_cfg(variant=variant, dec_layers=2,
                                          adaptor_mix_embeddings=True),
                                 RngStream(33))
        enc = model.encode(Tensor(np.random.default_rng(25).normal(size=(1, 20, 80))))
        rng = np.random.default_rng(26)
        prefixes = np.full((3, 1), BOS_ID)
        cache = model.new_cache()
        worst = 0.0
        # parents [0, 0, 2] repeat row 0 and drop row 1; [2, 0] shrinks the
        # rows.  Nine positions pass the decoder's clip radius of 3.
        plan = [None, None, [0, 0, 2], None, [2, 0], None, [1, 1, 0], None, None]
        with no_grad():
            for parents in plan:
                if parents is not None:
                    cache.reorder(parents)
                    prefixes = prefixes[parents]
                step = model.decoder_step(enc, prefixes[:, -1:], cache)
                full = model.decode_logits(enc, prefixes)[:, -1]
                worst = max(worst, float(np.abs(step.data - full.data).max()))
                new = rng.integers(5, 7, size=(len(prefixes), 1))
                prefixes = np.concatenate([prefixes, new], axis=1)
        assert len(cache) == len(plan)
        assert worst < 1e-12

    def test_filled_cache_refuses_tracked_gradients(self):
        model = SpeechTranslator(tiny_cfg(), RngStream(34))
        enc = model.encode(Tensor(np.zeros((1, 8, 80))))
        cache = model.new_cache()
        model.decoder_step(enc, np.array([[BOS_ID]]), cache)
        with pytest.raises(RuntimeError, match="no_grad"):
            model.decoder_step(enc, np.array([[5]]), cache)
        with pytest.raises(RuntimeError, match="no_grad"):
            cache.reorder([0])


_X = np.random.default_rng(40).normal(size=(2, 5, 8))
_MEMORY = Tensor(np.random.default_rng(41).normal(size=(2, 3, 8)))

# Each block that takes `drop`, built and called on (2, 5, 8) input.
BLOCKS = {
    "attention": (lambda: MultiHeadAttention(8, 2, RngStream(1), max_rel=2),
                  lambda m, x, **kw: m(x, x, causal=True, **kw)),
    "ffn": (lambda: FeedForward(8, 16, RngStream(2)),
            lambda m, x, **kw: m(x, **kw)),
    "conv": (lambda: ConvModule(8, 3, RngStream(3)),
             lambda m, x, **kw: m(x, **kw)),
    "encoder_layer": (lambda: TransformerEncoderLayer(tiny_cfg(), RngStream(4)),
                      lambda m, x, **kw: m(x, **kw)),
    "conformer_block": (lambda: ConformerBlock(tiny_cfg(variant="conformer"),
                                               RngStream(5)),
                        lambda m, x, **kw: m(x, **kw)),
    "encoder_stack": (lambda: _EncoderStack(tiny_cfg(), 2, RngStream(6),
                                            conformer=True, max_rel=2),
                      lambda m, x, **kw: m(x, **kw)),
    "decoder_layer": (lambda: TransformerDecoderLayer(tiny_cfg(), RngStream(7),
                                                      max_rel=2),
                      lambda m, x, **kw: m(x, _MEMORY, DecoderLayerCache(), **kw)),
}


class TestDropoutStream:
    """Dropout is on exactly when a stream is given."""

    def test_forward_with_stream_drops_and_repeats_per_seed(self):
        model = SpeechTranslator(tiny_cfg(variant="sate", enc_layers=3,
                                          acoustic_layers=2, dropout=0.3),
                                 RngStream(8))
        feats = Tensor(np.random.default_rng(42).normal(size=(2, 12, 80)))
        prefix = np.array([[BOS_ID, 5, 6], [BOS_ID, 6, 5]])
        evaluated, eval_enc = model.forward(feats, prefix)
        trained, enc = model.forward(feats, prefix, rng=RngStream(3))
        again, enc_again = model.forward(feats, prefix, rng=RngStream(3))
        other, _ = model.forward(feats, prefix, rng=RngStream(4))
        assert not np.array_equal(trained.data, evaluated.data)
        assert not np.array_equal(enc.ctc_logits.data, eval_enc.ctc_logits.data)
        np.testing.assert_array_equal(again.data, trained.data)
        np.testing.assert_array_equal(enc_again.ctc_logits.data, enc.ctc_logits.data)
        assert not np.array_equal(other.data, trained.data)

    def test_zero_rate_with_stream_is_eval_mode(self):
        model = SpeechTranslator(tiny_cfg(variant="conformer"), RngStream(9))
        feats = Tensor(np.random.default_rng(43).normal(size=(1, 12, 80)))
        prefix = np.array([[BOS_ID, 5, 6]])
        np.testing.assert_array_equal(
            model.forward(feats, prefix, rng=RngStream(3))[0].data,
            model.forward(feats, prefix)[0].data)

    @pytest.mark.parametrize("name", sorted(BLOCKS))
    def test_block_without_drop_is_eval_mode(self, name):
        build, call = BLOCKS[name]
        block, x = build(), Tensor(_X)
        plain = call(block, x).data
        evaluated = call(block, x, drop=Dropout(0.3, None)).data
        trained = call(block, x, drop=Dropout(0.3, RngStream(3))).data
        np.testing.assert_array_equal(plain, evaluated)
        assert not np.array_equal(plain, trained)


class TestAdaptorAndParams:
    def test_adaptor_embedding_mix_changes_output(self):
        rng = RngStream(30)
        plain = Adaptor(8, rng.child("a"), mix_embeddings=False)
        mixed = Adaptor(8, rng.child("a"), mix_embeddings=True)
        for (_, a), (_, b) in zip(plain.named_parameters(),
                                  mixed.named_parameters()):
            b.data[...] = a.data
        x = Tensor(np.random.default_rng(21).normal(size=(1, 4, 8)))
        ctc = Tensor(np.random.default_rng(22).normal(size=(1, 4, 7)))
        table = Tensor(np.random.default_rng(23).normal(size=(7, 8)))
        base = plain(x, ctc, table)
        mix = mixed(x, ctc, table)
        soft = np.exp(ctc.data - ctc.data.max(-1, keepdims=True))
        soft = soft / soft.sum(-1, keepdims=True)
        np.testing.assert_allclose(mix.data, base.data + soft @ table.data,
                                   atol=1e-12)

    def test_parameter_names_unique_and_stable(self):
        model = SpeechTranslator(tiny_cfg(variant="sate", enc_layers=2),
                                 RngStream(31))
        names = [n for n, _ in model.named_parameters()]
        assert len(names) == len(set(names))
        again = SpeechTranslator(tiny_cfg(variant="sate", enc_layers=2),
                                 RngStream(31))
        assert names == [n for n, _ in again.named_parameters()]
        for (_, a), (_, b) in zip(model.named_parameters(),
                                  again.named_parameters()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_partial_gradcheck_through_whole_model(self):
        model = SpeechTranslator(tiny_cfg(hidden=4, heads=2, ffn=4),
                                 RngStream(32))
        feats = Tensor(np.random.default_rng(24).normal(size=(1, 8, 80)))
        prefix = np.array([[BOS_ID, 5, 6]])
        targets = np.array([5, 6, 3])

        from tinyst.losses import ctc_loss_batch, label_smoothed_ce, multitask_loss

        def loss():
            logits, enc = model.forward(feats, prefix)
            ce = label_smoothed_ce(logits.reshape(3, 7), targets, 0.1)
            ctc = ctc_loss_batch(enc.ctc_logits.log_softmax(axis=-1), [[5, 6]]).sum()
            return multitask_loss(ce, ctc, 0.3)

        picked = dict(model.named_parameters())
        subset = [picked["downsampler.w2"], picked["embed.table"],
                  picked["encoder.dlcl.weights.2"],
                  picked["encoder.blocks.0.attn.wq.weight"],
                  picked["dec_layers.0.cross_attn.wv.weight"],
                  picked["ctc_head.bias"]]
        err = grad_check(loss, subset)
        assert err < 1e-4
