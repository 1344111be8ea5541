"""Tests for the autodiff tensor core."""

import re

import numpy as np
import pytest

from tinyst import tensor as T
from tinyst.losses import ctc_loss_batch
from tinyst.rng import RngStream
from tinyst.tensor import Tensor, conv1d, depthwise_conv1d, grad_check, layer_norm


class TestForwardValues:
    def test_matmul_known_product(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        np.testing.assert_allclose((a @ b).data, [[19.0, 22.0], [43.0, 50.0]])

    def test_matmul_batch_broadcast(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(4, 3, 5)))
        b = Tensor(rng.normal(size=(5, 2)))
        out = a @ b
        assert out.shape == (4, 3, 2)
        np.testing.assert_allclose(out.data, a.data @ b.data)

    def test_matmul_shape_error_names_shapes(self):
        a = Tensor(np.zeros((2, 3)))
        b = Tensor(np.zeros((4, 2)))
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(4, 2\)"):
            a @ b

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

    def test_no_grad_blocks_graph(self):
        x = Tensor(2.0, requires_grad=True)
        with T.no_grad():
            y = x * x
        assert y._backward is None and not y.requires_grad


def sum_sq(y):
    return (y * y).sum()


OPS = {
    "add": lambda x: (x + x.transpose() + 1.5).sum(),
    "mul": lambda x: (x * x * 0.3).sum(),
    "neg": lambda x: (-x * x).sum(),
    "matmul": lambda x: ((x @ x.transpose()) * 0.1).sum(),
    "sigmoid": lambda x: x.sigmoid().sum(),
    "relu": lambda x: (x.relu() * x).sum(),
    "swish": lambda x: x.swish().sum(),
    "softmax": lambda x: (x.softmax(axis=-1) * np.arange(4.0)).sum(),
    "log_softmax": lambda x: (x.log_softmax(axis=-1) * np.arange(4.0)).sum(),
    "sum_axis": lambda x: sum_sq(x.sum(axis=0)),
    "mean": lambda x: (x.mean(axis=-1) * x.mean()).sum(),
    "reshape": lambda x: sum_sq(x.reshape(2, 8)),
    "transpose": lambda x: (x.transpose() @ x).sum() * 0.1,
    "getitem": lambda x: (x[1:3, ::2] * 2.0).sum(),
    "stack": lambda x: sum_sq(T.stack([x, x * x], axis=1)),
    "glu": lambda x: T.glu(x).sum(),
    "layer_norm": lambda x: layer_norm(
        x, Tensor(np.linspace(0.5, 1.5, 4)), Tensor(np.zeros(4))).sum(),
    # Queries aligned to the last of more keys, offsets clipped at 1.
    "band_gather": lambda x: sum_sq(T.band_gather(x[:, :3], 6)),
    "band_sum": lambda x: sum_sq(T.band_sum(x[1:], 1)),
    # A ragged batch whose first target repeats a label.
    "ctc": lambda x: ctc_loss_batch(T.stack([x, x.transpose()]).log_softmax(axis=-1),
                                    [[1, 1], [3]], blank=0).sum(),
}


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
    def test_eval_mode_is_identity(self):
        x = Tensor(np.ones((3, 3)))
        y = T.dropout(x, 0.5, None)
        assert y is x

    def test_training_scales_survivors(self):
        rng = RngStream(123)
        x = Tensor(np.ones((100, 100)))
        y = T.dropout(x, 0.4, rng).data
        kept = y[y != 0]
        np.testing.assert_allclose(kept, 1.0 / 0.6)
        assert abs(kept.size / y.size - 0.6) < 0.02

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            T.dropout(Tensor(np.ones(3)), 1.0, RngStream(0))


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
