"""Tests for CTC, label-smoothed cross-entropy, and the multitask mixture."""

import numpy as np
import pytest

from tinyst.losses import (CtcInfeasibleError, ctc_feasible, ctc_loss_batch,
                           ctc_loss_brute_force, ctc_min_frames,
                           label_smoothed_ce, multitask_loss)
from tinyst.tensor import LOG_ZERO, Tensor, grad_check
from tinyst.text import BLANK_ID
from tinyst.training import TrainConfig


def random_log_probs(rng, t, v):
    x = rng.normal(size=(t, v))
    m = x.max(axis=-1, keepdims=True)
    return x - m - np.log(np.exp(x - m).sum(axis=-1, keepdims=True))


def one_utterance_ctc(lp, target) -> float:
    """CTC loss of one (T, V) array of log-probabilities as a batch of one."""
    return float(ctc_loss_batch(Tensor(lp[None]), [target], blank=0).data[0])


def loss_and_grad(ctc, lp, targets, weights):
    """Per-utterance losses and d(sum_i weights_i loss_i)/d log_probs."""
    x = Tensor(lp, requires_grad=True)
    loss = ctc(x, targets)
    (loss * weights).sum().backward()
    return loss.data, x.grad


class TestCtcKnownValues:
    def test_single_frame_single_label(self):
        lp = random_log_probs(np.random.default_rng(0), 1, 3)
        loss = one_utterance_ctc(lp, [1])
        np.testing.assert_allclose(loss, -lp[0, 1], atol=1e-12)

    def test_two_frames_uniform_three_quarters(self):
        # vocab {blank, a} uniform: paths (a,-), (-,a), (a,a) carry 3/4
        loss = one_utterance_ctc(np.log(np.full((2, 2), 0.5)), [1])
        np.testing.assert_allclose(loss, -np.log(0.75), atol=1e-12)

    def test_empty_target_is_all_blank_path(self):
        rng = np.random.default_rng(1)
        lp = random_log_probs(rng, 4, 3)
        loss = one_utterance_ctc(lp, [])
        np.testing.assert_allclose(loss, -lp[:, 0].sum(), atol=1e-12)

    def test_infeasible_raises_specific_error(self):
        lp = random_log_probs(np.random.default_rng(2), 2, 3)
        with pytest.raises(CtcInfeasibleError):
            one_utterance_ctc(lp, [1, 1])  # repeat needs 3 frames

    @pytest.mark.parametrize("shape, targets, match", [
        ((4, 3), [[1]], r"must be \(B, T, V\)"),
        ((2, 4, 3), [[1]], "2 utterances but 1 targets"),
        ((1, 4, 3), [[0]], "target 0 contains an invalid label id"),  # the blank
        ((2, 4, 3), [[1], [3]], "target 1 contains an invalid label id"),
    ])
    def test_bad_input_rejected(self, shape, targets, match):
        with pytest.raises(ValueError, match=match):
            ctc_loss_batch(Tensor(np.zeros(shape)), targets, blank=0)

    def test_min_frames_counts_repeats(self):
        assert ctc_min_frames([1, 2, 3]) == 3
        assert ctc_min_frames([1, 1, 2]) == 4
        assert ctc_min_frames([1, 1, 1]) == 5
        assert ctc_min_frames([]) == 0
        assert ctc_feasible(3, [1, 2, 3]) and not ctc_feasible(2, [1, 2, 3])


class TestCtcAgainstBruteForce:
    def test_sweep_small_shapes(self):
        rng = np.random.default_rng(3)
        for t in range(1, 7):
            for length in range(0, 4):
                for v in (2, 3, 4):
                    for _ in range(10):
                        tgt = list(rng.integers(1, v, size=length))
                        if not ctc_feasible(t, tgt):
                            continue
                        lp = random_log_probs(rng, t, v)
                        got = one_utterance_ctc(lp, tgt)
                        want = ctc_loss_brute_force(lp, tgt, blank=0)
                        np.testing.assert_allclose(got, want, atol=1e-8)

    def test_batch_matches_singles(self):
        rng = np.random.default_rng(4)
        lp = np.stack([random_log_probs(rng, 5, 4) for _ in range(6)])
        targets = [list(rng.integers(1, 4, size=2)) for _ in range(6)]
        batch = ctc_loss_batch(Tensor(lp), targets, blank=0).data
        singles = [one_utterance_ctc(lp[i], targets[i]) for i in range(6)]
        np.testing.assert_allclose(batch, singles, atol=1e-12)


class TestCtcProperties:
    def test_loss_is_a_log_probability(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            t = int(rng.integers(2, 7))
            v = int(rng.integers(2, 5))
            length = int(rng.integers(0, min(t, 4)))
            tgt = list(rng.integers(1, v, size=length))
            if not ctc_feasible(t, tgt):
                continue
            loss = one_utterance_ctc(random_log_probs(rng, t, v), tgt)
            assert 0.0 < np.exp(-loss) <= 1.0 + 1e-12

    def test_reversed_target_changes_loss(self):
        rng = np.random.default_rng(6)
        lp = random_log_probs(rng, 6, 5)
        a = one_utterance_ctc(lp, [1, 2, 3])
        b = one_utterance_ctc(lp, [3, 2, 1])
        assert abs(a - b) > 1e-6

    def test_gradient(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(1, 5, 4)), requires_grad=True)
        err = grad_check(lambda: ctc_loss_batch(x.log_softmax(axis=-1), [[1, 3, 1]],
                                                blank=0).sum(), [x])
        assert err < 1e-4

    def test_gradient_empty_target(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(1, 3, 3)), requires_grad=True)
        err = grad_check(lambda: ctc_loss_batch(x.log_softmax(axis=-1), [[]],
                                                blank=0).sum(), [x])
        assert err < 1e-4

    def test_batch_gradient(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(2, 4, 4)), requires_grad=True)
        err = grad_check(
            lambda: ctc_loss_batch(x.log_softmax(axis=-1), [[1, 2], [3, 3]],
                                   blank=0).sum(), [x])
        assert err < 1e-4

    def test_log_zero_scale_log_probs_stay_finite(self):
        # Dead-cell arithmetic must not overflow to inf or nan when the
        # log-probabilities themselves are at LOG_ZERO scale.
        rng = np.random.default_rng(15)
        lp = np.stack([random_log_probs(rng, 6, 8) for _ in range(2)])
        lp[0, :, 6] = LOG_ZERO  # a target label no frame can emit
        lp[1] = LOG_ZERO * rng.uniform(0.5, 1.5, size=(6, 8))
        loss, grad = loss_and_grad(ctc_loss_batch, lp, [[5, 6], [7, 7]], 1.0)
        assert np.isfinite(loss).all() and loss[0] > 1e29
        assert np.isfinite(grad).all()

    def test_long_time_axis_gradient_is_one_path_per_frame(self):
        # Each alignment path occupies exactly one state per frame, so the
        # gradient of the loss sums to -1 over the vocabulary at every frame.
        # Over 188 frames most cells stay dead for a long stretch.
        rng = np.random.default_rng(10)
        b, t, v, length = 2, 188, 60, 62
        lp = Tensor(np.stack([random_log_probs(rng, t, v) for _ in range(b)]),
                    requires_grad=True)
        targets = [list(rng.integers(1, v, size=length)) for _ in range(b)]
        loss = ctc_loss_batch(lp, targets, blank=0)
        assert np.isfinite(loss.data).all()
        loss.sum().backward()
        np.testing.assert_allclose(lp.grad.sum(axis=-1), -1.0, rtol=0, atol=1e-9)


def loop_logsumexp(x: Tensor, axis: int) -> Tensor:
    """log(sum(exp(x))) along `axis`, max-shifted, as an autodiff node."""
    m = x.data.max(axis=axis, keepdims=True)
    out_kd = m + np.log(np.exp(x.data - m).sum(axis=axis, keepdims=True))

    return Tensor._from_op(np.squeeze(out_kd, axis=axis), (
        (x, lambda g: np.expand_dims(g, axis) * np.exp(x.data - out_kd)),))


def loop_ctc(log_probs: Tensor, targets, blank: int = BLANK_ID) -> Tensor:
    """The oracle: the CTC forward algorithm unrolled on the autodiff graph,
    one gather and one logsumexp node per frame, for equal-length targets.
    Its gradient comes from autodiff, not from the occupancy formula."""
    b, t_max, _ = log_probs.shape
    (length,) = {len(t) for t in targets}
    s = 2 * length + 1
    ext = np.full((b, s), blank, dtype=np.intp)
    for i, tgt in enumerate(targets):
        ext[i, 1::2] = tgt
    pred = np.arange(s)[:, None] - np.arange(3)
    src = np.maximum(pred, 0)
    live = np.broadcast_to(pred >= 0, (b, s, 3)).copy()
    live[:, :, 2] &= (ext != blank) & (ext != ext[:, src[:, 2]])
    mask = Tensor(np.where(live, 0.0, LOG_ZERO))
    rows = np.arange(b)[:, None]
    start = np.where(np.arange(s) < 2, 0.0, LOG_ZERO)
    alpha = log_probs[(rows, 0, ext)] + start
    for t in range(1, t_max):
        alpha = loop_logsumexp(alpha[:, src] + mask, 2) + log_probs[(rows, t, ext)]
    return -loop_logsumexp(alpha[:, max(s - 2, 0):], 1)


def oracle_case(name):
    """(log-probs (B, T, V), targets) for one named oracle case; labels
    avoid BLANK_ID."""
    rng = np.random.default_rng(sum(map(ord, name)))
    if name == "long":  # the long workload's CTC shape
        b, t, v, targets = 1, 188, 100, [list(rng.integers(5, 100, size=62))]
    elif name == "toy":  # a full toy batch
        b, t, v = 37, 12, 60
        targets = [list(rng.integers(5, v, size=5)) for _ in range(b)]
    elif name == "repeats":
        b, t, v, targets = 3, 9, 8, [[5, 5, 6, 6], [7, 7, 7, 7], [6, 5, 6, 5]]
    elif name == "empty":
        b, t, v, targets = 2, 5, 6, [[], []]
    else:  # "min_frames": both targets need exactly T' frames
        b, t, v, targets = 2, 7, 9, [[5, 5, 6, 7, 7], [8, 8, 8, 6, 5]]
        assert all(ctc_min_frames(tgt) == t for tgt in targets)
    return np.stack([random_log_probs(rng, t, v) for _ in range(b)]), targets


class TestCtcAgainstLoop:
    @pytest.mark.parametrize("name", ["long", "toy", "repeats", "empty", "min_frames"])
    def test_loss_and_gradient_match_the_loop(self, name):
        lp, targets = oracle_case(name)
        # Distinct weights check that each utterance gets its own upstream
        # gradient.
        weights = np.linspace(0.5, 1.5, len(targets))
        loss, grad = loss_and_grad(ctc_loss_batch, lp, targets, weights)
        want_loss, want_grad = loss_and_grad(loop_ctc, lp, targets, weights)
        np.testing.assert_allclose(loss, want_loss, rtol=0, atol=1e-12)
        np.testing.assert_allclose(grad, want_grad, rtol=0, atol=1e-12)

    def test_ragged_batch_equals_its_utterances_one_at_a_time(self):
        rng = np.random.default_rng(14)
        targets = [[7, 7, 9], [], list(rng.integers(5, 30, size=9)), [5], [6, 8, 6]]
        lp = np.stack([random_log_probs(rng, 20, 30) for _ in targets])
        loss, grad = loss_and_grad(ctc_loss_batch, lp, targets, 1.0)
        for i, tgt in enumerate(targets):
            one_loss, one_grad = loss_and_grad(ctc_loss_batch, lp[i:i + 1], [tgt], 1.0)
            np.testing.assert_array_equal(loss[i:i + 1], one_loss)
            np.testing.assert_array_equal(grad[i:i + 1], one_grad)


class TestLabelSmoothedCe:
    def test_uniform_logits_give_log_v(self):
        for v in (2, 7, 33):
            logits = Tensor(np.zeros((3, v)))
            loss = label_smoothed_ce(logits, [v - 1, 1, 1], epsilon_ls=0.1)
            np.testing.assert_allclose(loss.data, np.log(v), atol=1e-12)

    def test_epsilon_zero_is_nll(self):
        rng = np.random.default_rng(10)
        logits = Tensor(rng.normal(size=(4, 6)))
        tgts = [5, 2, 3, 1]
        loss = label_smoothed_ce(logits, tgts, epsilon_ls=0.0)
        logp = logits.log_softmax(-1).data
        nll = -np.mean([logp[i, t] for i, t in enumerate(tgts)])
        np.testing.assert_allclose(loss.data, nll, atol=1e-12)

    def test_closed_form_two_way(self):
        logits = Tensor(np.array([[0.0, np.log(3.0)]]))
        loss = label_smoothed_ce(logits, [1], epsilon_ls=0.1)
        want = -(0.95 * np.log(0.75) + 0.05 * np.log(0.25))
        np.testing.assert_allclose(loss.data, want, atol=1e-12)

    def test_pad_positions_excluded(self):
        rng = np.random.default_rng(11)
        logits = rng.normal(size=(5, 6))
        full = label_smoothed_ce(Tensor(logits[:3]), [5, 2, 3], epsilon_ls=0.1)
        padded = label_smoothed_ce(Tensor(logits), [5, 2, 3, 0, 0], epsilon_ls=0.1)
        np.testing.assert_allclose(padded.data, full.data, atol=1e-12)

    def test_all_pad_rejected(self):
        with pytest.raises(ValueError, match="padding"):
            label_smoothed_ce(Tensor(np.zeros((2, 4))), [0, 0], epsilon_ls=0.1)

    def test_gibbs_inequality(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            v = int(rng.integers(2, 9))
            logits = Tensor(rng.normal(size=(1, v)) * 3.0)
            tgt = int(rng.integers(1, v))
            loss = float(label_smoothed_ce(logits, [tgt], epsilon_ls=0.1).data)
            q = np.full(v, 0.1 / v)
            q[tgt] += 0.9
            entropy = -(q * np.log(q)).sum()
            assert loss >= entropy - 1e-12

    def test_gradient(self):
        rng = np.random.default_rng(13)
        x = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        err = grad_check(lambda: label_smoothed_ce(x, [1, 0, 4, 2], epsilon_ls=0.1),
                         [x])
        assert err < 1e-4


class TestMultitask:
    def test_linear_combination(self):
        total = multitask_loss(Tensor(2.0), Tensor(4.0), 0.3)
        np.testing.assert_allclose(total.data, 2.6, atol=1e-12)

    def test_degenerate_weights(self):
        ce, ctc = Tensor(1.25), Tensor(7.5)
        assert multitask_loss(ce, ctc, 0.0).data == 1.25
        assert multitask_loss(ce, ctc, 1.0).data == 7.5

    def test_default_weights(self):
        cfg = TrainConfig()
        assert cfg.alpha == 0.3 and cfg.epsilon_ls == 0.1

    def test_invalid_weights_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(alpha=1.5)
        with pytest.raises(ValueError):
            TrainConfig(epsilon_ls=1.0)
