"""Tests for the autodiff tensor core."""

import re

import numpy as np
import pytest

from oracles import (band_gather, band_sum, relative_position_index,
                     retaining_backward)
from tinyst import tensor as T
from tinyst.losses import ctc_loss_batch, label_smoothed_ce, multitask_loss
from tinyst.model import ModelConfig, SpeechTranslator, causal_mask
from tinyst.rng import RngStream
from tinyst.tensor import Tensor, conv1d, depthwise_conv1d, grad_check, layer_norm
from tinyst.text import BOS_ID, EOS_ID


class TestForwardValues:
    def test_linear_known_product(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]])
        w = Tensor([[5.0, 6.0], [7.0, 8.0]])
        np.testing.assert_allclose(T.linear(x, w).data, [[19.0, 22.0], [43.0, 50.0]])
        np.testing.assert_allclose(T.linear(x, w, Tensor([0.5, -1.0])).data,
                                   [[19.5, 21.0], [43.5, 49.0]])

    def test_linear_keeps_leading_axes(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(4, 3, 5)))
        w = Tensor(rng.normal(size=(5, 2)))
        b = Tensor(rng.normal(size=2))
        out = T.linear(x, w, b)
        assert out.shape == (4, 3, 2)
        np.testing.assert_allclose(out.data, x.data @ w.data + b.data, atol=1e-12)

    def test_linear_rows_do_not_depend_on_how_many_share_the_call(self):
        # Beam search feeds one position per hypothesis; a hypothesis's
        # score must not depend on the beam width.  One GEMM over all rows
        # (a GEMV for one row) fails this in the last bits.
        rng = np.random.default_rng(5)
        w, b = Tensor(rng.normal(size=(64, 256))), Tensor(rng.normal(size=256))
        x = rng.normal(size=(5, 1, 64))
        for rows in range(1, 6):
            out = T.linear(Tensor(x[:rows]), w, b).data
            for r in range(rows):
                alone = T.linear(Tensor(x[r:r + 1]), w, b).data
                assert out[r].tobytes() == alone[0].tobytes(), (rows, r)

    def test_linear_shape_error_names_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(4, 2\)"):
            T.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
        # 192 inputs that would regroup into 3 rows of 64 by a reshape.
        with pytest.raises(ValueError, match=r"\(2, 3, 32\).*\(64, 8\)"):
            T.linear(Tensor(np.zeros((2, 3, 32))), Tensor(np.zeros((64, 8))))
        with pytest.raises(ValueError, match=r"\(3,\).*\(4, 3\).*\(4,\)"):
            T.linear(Tensor(np.zeros((2, 4))), Tensor(np.zeros((4, 3))),
                     Tensor(np.zeros(4)))

    def test_softmax_quarter_three_quarters(self):
        x = Tensor([0.0, np.log(3.0)])
        np.testing.assert_allclose(x.softmax().data, [0.25, 0.75], atol=1e-12)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        for trial in range(1000):
            scale = 1e3 if trial % 3 == 0 else 1.0
            x = Tensor(rng.normal(size=(4, 9)) * scale)
            s = x.softmax(axis=-1).data
            np.testing.assert_allclose(s.sum(axis=-1), 1.0, atol=1e-12)
            assert np.all(s >= 0.0)

    def test_log_softmax_matches_log_of_softmax(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(5, 8)) * 40.0)
        np.testing.assert_allclose(x.log_softmax().data, np.log(x.softmax().data),
                                   atol=1e-12)

    def test_layer_norm_zero_mean_unit_var(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(6, 16)))
        g = Tensor(np.ones(16))
        b = Tensor(np.zeros(16))
        y = layer_norm(x, g, b).data
        np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-12)
        np.testing.assert_allclose(y.var(axis=-1), 1.0, atol=1e-3)

    @pytest.mark.parametrize("shape", [(16,), (6, 16), (2, 5, 64), (3, 1, 7), (4, 2, 3, 8)])
    def test_layer_norm_bitwise_equal_to_mean_formula(self, shape):
        # layer_norm's last-axis means are np.add.reduce(...) / dim; this is
        # the same arithmetic written with ndarray.mean.
        rng = np.random.default_rng(len(shape) * 100 + shape[-1])
        x = Tensor(rng.normal(size=shape) * 3.0 + 1.0, requires_grad=True)
        gain = Tensor(rng.normal(size=shape[-1:]), requires_grad=True)
        bias = Tensor(rng.normal(size=shape[-1:]), requires_grad=True)
        g = rng.normal(size=shape)
        out = layer_norm(x, gain, bias)
        (out * g).sum().backward()

        mu = x.data.mean(axis=-1, keepdims=True)
        centered = x.data - mu
        var = (centered * centered).mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + 1e-5)
        xhat = centered * inv
        gx = g * gain.data
        grad_x = (gx - gx.mean(axis=-1, keepdims=True)
                  - xhat * (gx * xhat).mean(axis=-1, keepdims=True)) * inv
        np.testing.assert_array_equal(out.data, gain.data * xhat + bias.data)
        np.testing.assert_array_equal(x.grad, grad_x)

    def test_glu_halves_dimension(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(3, 8)))
        y = T.glu(x)
        assert y.shape == (3, 4)
        expect = x.data[:, :4] * (1.0 / (1.0 + np.exp(-x.data[:, 4:])))
        np.testing.assert_allclose(y.data, expect, atol=1e-12)

    def test_sigmoid_bitwise_equal_to_two_branch_formula(self):
        rng = np.random.default_rng(6)
        extremes = [0.0, -0.0, 1e-300, -1e-300, 710.0, -710.0, 745.0, -745.0,
                    1e308, -1e308]
        x = np.concatenate([extremes] + [rng.normal(0.0, sigma, size=200)
                                         for sigma in (1.0, 10.0, 100.0, 800.0)])
        want = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.maximum(x, 0))),
                        np.exp(np.minimum(x, 0)) / (1.0 + np.exp(np.minimum(x, 0))))
        np.testing.assert_array_equal(Tensor(x).sigmoid().data, want)


class TestBandHelpers:
    """The relative-shift band helpers against their definition by
    `relative_position_index`."""

    # (leading axes, t_query, t_key, max_rel)
    SHAPES = {"one_query_one_key": ((), 1, 1, 2),
              "nothing_clips": ((2,), 4, 4, 5),
              "width_2r_plus_1": ((2,), 7, 7, 3),
              "max_rel_zero": ((3,), 5, 5, 0),
              "three_queries_of_nine_keys": ((2,), 3, 9, 2),
              "long_encoder": ((1, 4), 188, 188, 100),
              "two_leading_axes": ((2, 3), 6, 6, 2)}

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_gather_equals_take_along_axis_bitwise(self, shape):
        lead, t_query, t_key, max_rel = self.SHAPES[shape]
        x = np.random.default_rng(7).normal(size=(*lead, t_query, 2 * max_rel + 1))
        idx = np.broadcast_to(relative_position_index(t_query, t_key, max_rel),
                              (*lead, t_query, t_key))
        np.testing.assert_array_equal(T._gather_band(x, t_key),
                                      np.take_along_axis(x, idx, axis=-1))

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_sum_equals_per_offset_masked_sum(self, shape):
        lead, t_query, t_key, max_rel = self.SHAPES[shape]
        band = np.random.default_rng(8).normal(size=(*lead, t_query, t_key))
        idx = relative_position_index(t_query, t_key, max_rel)
        want = np.stack([np.where(idx == r, band, 0.0).sum(axis=-1)
                         for r in range(2 * max_rel + 1)], axis=-1)
        got = T._sum_band(band, max_rel)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


class TestConvShapes:
    def test_output_length_law(self):
        rng = np.random.default_rng(2)
        for t in range(1, 33):
            for k in range(1, 6):
                for s in range(1, 4):
                    for p in range(0, 3):
                        t_out = (t + 2 * p - k) // s + 1
                        x = Tensor(rng.normal(size=(t, 3)))
                        w = Tensor(rng.normal(size=(k, 3, 2)))
                        if t_out <= 0:
                            with pytest.raises(ValueError):
                                conv1d(x[None], w, stride=s, padding=p)
                            continue
                        out = conv1d(x[None], w, stride=s, padding=p)
                        assert out[0].shape == (t_out, 2), (t, k, s, p)

    def test_conv_matches_direct_sum(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(7, 3)))
        w = Tensor(rng.normal(size=(3, 3, 4)))
        out = conv1d(x[None], w, stride=2, padding=1)[0].data
        xp = np.pad(x.data, ((1, 1), (0, 0)))
        for ti in range(out.shape[0]):
            ref = sum(xp[2 * ti + kk] @ w.data[kk] for kk in range(3))
            np.testing.assert_allclose(out[ti], ref, atol=1e-12)

    def test_depthwise_matches_per_channel(self):
        rng = np.random.default_rng(13)
        x = Tensor(rng.normal(size=(9, 4)))
        w = Tensor(rng.normal(size=(3, 4)))
        out = depthwise_conv1d(x[None], w, padding=1)[0].data
        xp = np.pad(x.data, ((1, 1), (0, 0)))
        for ti in range(9):
            ref = sum(xp[ti + kk] * w.data[kk] for kk in range(3))
            np.testing.assert_allclose(out[ti], ref, atol=1e-12)

    @pytest.mark.parametrize("shape", [(5, 2), (1, 1, 5, 2)])
    def test_input_must_be_batch_time_channels(self, shape):
        x = Tensor(np.ones(shape))
        with pytest.raises(ValueError, match=re.escape(str(shape))):
            conv1d(x, Tensor(np.ones((3, 2, 2))))
        with pytest.raises(ValueError, match=re.escape(str(shape))):
            depthwise_conv1d(x, Tensor(np.ones((3, 2))))

    @pytest.mark.parametrize("op, call", [
        ("conv1d", lambda x, k, c: conv1d(x, Tensor(np.ones((k, c, 2))))),
        ("depthwise_conv1d", lambda x, k, c: depthwise_conv1d(x, Tensor(np.ones((k, c))))),
    ], ids=["conv1d", "depthwise_conv1d"])
    def test_each_check_names_its_op(self, op, call):
        x = Tensor(np.ones((1, 2, 4)))
        for k, c, what in ((0, 4, "needs kernel >= 1"), (3, 5, "channel mismatch"),
                           (3, 4, "input too short")):
            with pytest.raises(ValueError, match=f"^{op} {what}"):
                call(x, k, c)

    def test_downsample_edge_lengths(self):
        # two stride-2 kernel-3 pad-1 convs: T -> ceil(T/2) -> ceil(T/4)
        rng = np.random.default_rng(4)
        w1 = Tensor(rng.normal(size=(3, 2, 2)))
        for t in (1, 2, 3, 4, 5, 63, 64):
            x = Tensor(rng.normal(size=(t, 2)))
            h = conv1d(x[None], w1, stride=2, padding=1)
            assert h[0].shape[0] == -(-t // 2)
            h2 = conv1d(h, w1, stride=2, padding=1)
            assert h2[0].shape[0] == -(-(-(-t // 2)) // 2)


class TestBackward:
    def test_diamond_graph_accumulates(self):
        x = Tensor(3.0, requires_grad=True)
        y = x + x
        y.backward()
        np.testing.assert_allclose(x.grad, 2.0)

    def test_repeated_use_in_product(self):
        x = Tensor(3.0, requires_grad=True)
        (x * x).backward()
        np.testing.assert_allclose(x.grad, 6.0)

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            x.backward()

    def test_quadratic_gradient_tight(self):
        rng = np.random.default_rng(21)
        x = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        err = grad_check(lambda: (x * x).sum(), [x])
        assert err < 1e-10

    def test_broadcast_add_gradient(self):
        rng = np.random.default_rng(22)
        a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(3,)), requires_grad=True)
        err = grad_check(lambda: ((a + b) * (a + b)).sum(), [a, b])
        assert err < 1e-4

    def test_getitem_scatter_with_repeats(self):
        x = Tensor(np.arange(5.0), requires_grad=True)
        idx = np.array([0, 2, 2, 4])
        y = x[idx].sum()
        y.backward()
        np.testing.assert_allclose(x.grad, [1.0, 0.0, 2.0, 0.0, 1.0])

    def test_root_that_tracks_nothing_raises_before_any_gradient(self):
        # Otherwise the root's gradient is set to 1, every parameter's stays
        # None, and an optimizer step after it silently does nothing.
        x = Tensor(2.0, requires_grad=True)
        with T.no_grad():
            untracked = x * x
        for root in (untracked, Tensor(3.0) * 2.0, Tensor(1.0)):
            with pytest.raises(RuntimeError, match="no_grad or from constants"):
                root.backward()
            assert root.grad is None
        assert x.grad is None

    def test_a_shared_first_gradient_is_never_written(self):
        # The add node hands one array to both s and a; a's second share,
        # through s, must make a new sum, not add into what b also receives.
        rng = np.random.default_rng(26)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        c = rng.normal(size=(3, 4))
        s = a + b
        ((s + a) * c).sum().backward()
        np.testing.assert_array_equal(a.grad, 2.0 * c)
        np.testing.assert_array_equal(b.grad, c)

    def test_second_backward_raises_and_leaves_gradients(self):
        # y = (3x)^2 at x = 2: dy/dx = 36, and a refused second pass leaves
        # it there instead of adding stale intermediate gradients again.
        x = Tensor(2.0, requires_grad=True)
        y = (x * 3.0) * (x * 3.0)
        y.backward()
        np.testing.assert_array_equal(x.grad, 36.0)
        with pytest.raises(RuntimeError, match="released"):
            y.backward()
        with pytest.raises(RuntimeError, match="released"):
            (y * 2.0).backward()
        np.testing.assert_array_equal(x.grad, 36.0)

    def test_leaf_gradients_add_up_over_graphs(self):
        x = Tensor(2.0, requires_grad=True)
        for _ in range(2):
            ((x * 3.0) * (x * 3.0)).backward()
        np.testing.assert_array_equal(x.grad, 72.0)

    @pytest.mark.parametrize("variant", ["conformer_rpe", "sate"])
    def test_leaf_gradients_bitwise_equal_to_retaining_engine(self, variant):
        # A training-mode step (dropout on) of a model whose relative offsets
        # clip, run twice from the same seeds: once through the releasing
        # engine, once through the reference.
        cfg = ModelConfig(vocab_size=9, variant=variant, enc_layers=2,
                          acoustic_layers=1, dec_layers=1, hidden=8, heads=2,
                          ffn=16, conv_kernel=3, rpe_enc_max=2, rpe_dec_max=1,
                          adaptor_mix_embeddings=True)
        model = SpeechTranslator(cfg, RngStream(23))
        feats = Tensor(np.random.default_rng(24).normal(size=(2, 24, 80)))
        prefix = np.array([[BOS_ID, 5, 6, 7], [BOS_ID, 7, 6, 5]])
        targets = np.array([5, 6, 7, EOS_ID, 7, 6, 5, EOS_ID])

        def loss():
            logits, enc = model.forward(feats, prefix, rng=RngStream(25))
            ce = label_smoothed_ce(logits.reshape(8, 9), targets)
            ctc = ctc_loss_batch(enc.ctc_logits.log_softmax(axis=-1),
                                 [[5, 6], [7]]).mean()
            return multitask_loss(ce, ctc, 0.3)

        model.zero_grad()
        loss().backward()
        want = retaining_backward(loss())
        for name, p in model.named_parameters():
            assert p.grad.tobytes() == want[id(p)].tobytes(), name

    def test_backward_releases_every_intermediate(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        h = x * x
        s = h.softmax(axis=-1)
        y = (s + h).sum()
        y.backward()
        for node in (h, s, y):
            assert node.grad is None and node._vjps is None
        assert x.grad is not None and x._vjps == ()

    def test_no_grad_blocks_graph(self):
        x = Tensor(2.0, requires_grad=True)
        with T.no_grad():
            y = x * x
        assert y._vjps == () and not y.requires_grad


def sum_sq(y):
    return (y * y).sum()


OPS = {
    "add": lambda x: (x + x.transpose() + 1.5).sum(),
    "mul": lambda x: (x * x * 0.3).sum(),
    "neg": lambda x: (-x * x).sum(),
    "linear": lambda x: sum_sq(T.linear(x, x.transpose() * 0.5, x[0])),
    "linear_batched": lambda x: sum_sq(T.linear(x.reshape(2, 2, 4), x * 0.5)),
    "sigmoid": lambda x: x.sigmoid().sum(),
    "relu": lambda x: (x.relu() * x).sum(),
    "swish": lambda x: x.swish().sum(),
    "softmax": lambda x: (x.softmax(axis=-1) * np.arange(4.0)).sum(),
    "log_softmax": lambda x: (x.log_softmax(axis=-1) * np.arange(4.0)).sum(),
    "sum_axis": lambda x: sum_sq(x.sum(axis=0)),
    "mean": lambda x: (x.mean(axis=-1) * x.mean()).sum(),
    "reshape": lambda x: sum_sq(x.reshape(2, 8)),
    "transpose": lambda x: T.linear(x.transpose(), x).sum() * 0.1,
    "getitem": lambda x: (x[1:3, ::2] * 2.0).sum(),
    # The weights are read off x as well, so the weight vjp is checked too.
    "weighted_sum": lambda x: sum_sq(T.weighted_sum([x, x * x, x.transpose()], x[0, :3])),
    "glu": lambda x: T.glu(x).sum(),
    "layer_norm": lambda x: layer_norm(
        x, Tensor(np.linspace(0.5, 1.5, 4)), Tensor(np.zeros(4))).sum(),
    # The band helpers as graph ops (`oracles`): their gradient checks show
    # that `_sum_band` is the adjoint of `_gather_band`.  Queries aligned to
    # the last of more keys, offsets clipped at 1.
    "band_gather": lambda x: sum_sq(band_gather(x[:, :3], 6)),
    "band_sum": lambda x: sum_sq(band_sum(x[1:], 1)),
    # Three queries aligned to the last of four keys, offsets clipped at 1,
    # under a causal mask and a fixed-seed dropout mask.
    "rel_attn": lambda x: sum_sq(T.attention(
        x[None, 1:], x[None], x[None] * 0.5, x[:3], x[1:], mask=causal_mask(3, 4),
        drop=T.Dropout(0.25, RngStream(19)))),
    "attention": lambda x: sum_sq(T.attention(x, x.transpose(), x)),
    # A ragged batch whose first target repeats a label; the second
    # utterance is the first with its frames reversed.
    "ctc": lambda x: ctc_loss_batch(x[np.array([[0, 1, 2, 3], [3, 2, 1, 0]])]
                                    .log_softmax(axis=-1), [[1, 1], [3]], blank=0).sum(),
    "conv1d": lambda x: sum_sq(conv1d(x[None], x[:3, :, None] * 0.5, x[0, :1],
                                      stride=2, padding=1)),
    "depthwise_conv1d": lambda x: sum_sq(depthwise_conv1d(x[None], x[:3], x[3],
                                                          padding=1)),
}


def recorded_nodes(monkeypatch) -> list:
    """Patch `Tensor._from_op` to append, for each new node, the inputs its
    op offered and the inputs the node kept."""
    nodes = []
    real = Tensor._from_op

    def recording(cls, data, vjps):
        out = real(data, vjps)
        nodes.append(([p for p, _ in vjps], [p for p, _ in out._vjps]))
        return out

    monkeypatch.setattr(Tensor, "_from_op", classmethod(recording))
    return nodes


class TestGraphRecording:
    """`Tensor._from_op` alone decides which inputs a node keeps."""

    @pytest.mark.parametrize("name", sorted(OPS))
    def test_no_grad_gives_the_same_bits_and_records_nothing(self, name, monkeypatch):
        x = Tensor(np.random.default_rng(17).normal(size=(4, 4)), requires_grad=True)
        nodes = recorded_nodes(monkeypatch)
        tracked = OPS[name](x)
        # With gradients on, every node keeps exactly its tracked inputs, in
        # order, and every node here has one.
        assert nodes
        for offered, kept in nodes:
            assert kept and kept == [p for p in offered if p.requires_grad]
        nodes.clear()
        with T.no_grad():
            untracked = OPS[name](x)
        assert nodes and not any(kept for _, kept in nodes)
        assert not untracked.requires_grad
        # `.data` is an ndarray in both modes, 0-d results included.
        assert type(tracked.data) is np.ndarray and type(untracked.data) is np.ndarray
        assert untracked.data.tobytes() == tracked.data.tobytes()

    @pytest.mark.parametrize("name", sorted(OPS))
    def test_constant_inputs_record_nothing(self, name, monkeypatch):
        x = Tensor(np.random.default_rng(18).normal(size=(4, 4)))
        nodes = recorded_nodes(monkeypatch)
        out = OPS[name](x)
        assert nodes and not any(kept for _, kept in nodes)
        assert not out.requires_grad


class TestGradCheckPerOp:
    @pytest.mark.parametrize("name", sorted(OPS))
    def test_op_gradient(self, name):
        rng = np.random.default_rng(hash(name) % (2 ** 31))
        x = Tensor(rng.normal(size=(4, 4)) * 0.8 + 0.1, requires_grad=True)
        err = grad_check(lambda: OPS[name](x), [x])
        assert err < 1e-4, f"{name}: {err}"

    def test_conv1d_gradient(self):
        rng = np.random.default_rng(31)
        x = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 3, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=(2,)), requires_grad=True)
        err = grad_check(
            lambda: sum_sq(conv1d(x[None], w, b, stride=2, padding=1)[0]),
            [x, w, b])
        assert err < 1e-4

    def test_depthwise_conv1d_gradient(self):
        rng = np.random.default_rng(32)
        x = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(3,)), requires_grad=True)
        err = grad_check(
            lambda: sum_sq(depthwise_conv1d(x[None], w, b, padding=2)[0].swish()),
            [x, w, b])
        assert err < 1e-4

    def test_batched_conv1d_gradient(self):
        rng = np.random.default_rng(33)
        x = Tensor(rng.normal(size=(2, 6, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 3, 2)), requires_grad=True)
        err = grad_check(lambda: sum_sq(conv1d(x, w, stride=2, padding=1)), [x, w])
        assert err < 1e-4


class TestDropout:
    @pytest.mark.parametrize("p", [0.1, 0.4])
    def test_float_mask_product_bitwise(self, p):
        # The node keeps a boolean mask; value and gradient are the bits of
        # multiplying by the float mask (u >= p) / (1 - p) of the same draws.
        rng = np.random.default_rng(20)
        x = Tensor(rng.normal(size=(3, 5, 7)), requires_grad=True)
        g = rng.normal(size=(3, 5, 7))
        y = T.Dropout(p, RngStream(21))(x)
        (y * Tensor(g)).sum().backward()
        mask = (RngStream(21).uniform(size=(3, 5, 7)) >= p) / (1.0 - p)
        assert y.data.tobytes() == (x.data * mask).tobytes()
        # (The accumulator turns -0.0 into 0.0, which array_equal allows.)
        np.testing.assert_array_equal(x.grad, g * mask)

    def test_eval_mode_is_identity(self):
        x = Tensor(np.ones((3, 3)))
        y = T.Dropout(0.5, None)(x)
        assert y is x

    def test_training_scales_survivors(self):
        rng = RngStream(123)
        x = Tensor(np.ones((100, 100)))
        y = T.Dropout(0.4, rng)(x).data
        kept = y[y != 0]
        np.testing.assert_allclose(kept, 1.0 / 0.6)
        assert abs(kept.size / y.size - 0.6) < 0.02

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError, match="dropout rate"):
            T.Dropout(1.0, RngStream(0))


class TestRngStream:
    def test_same_seed_same_draws(self):
        a = RngStream(42).normal(size=8)
        b = RngStream(42).normal(size=8)
        np.testing.assert_array_equal(a, b)

    def test_child_streams_are_stable_and_distinct(self):
        root = RngStream(42)
        c1 = root.child("utt", "x1").normal(size=4)
        c1_again = RngStream(42).child("utt", "x1").normal(size=4)
        c2 = RngStream(42).child("utt", "x2").normal(size=4)
        np.testing.assert_array_equal(c1, c1_again)
        assert not np.array_equal(c1, c2)

    def test_integers_half_open(self):
        draws = RngStream(7).integers(0, 3, size=1000)
        assert set(np.unique(draws)) == {0, 1, 2}
