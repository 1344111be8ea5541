"""Training objectives: CTC, label-smoothed cross-entropy, and their mixture.

CTC is a single graph node.  Its forward runs the log-space forward (alpha)
recursion in numpy over a lattice of blank-extended targets, padded to the
longest target of the batch.  Its backward runs the backward (beta)
recursion and writes the gradient in closed form, not through autodiff:
minus each lattice cell's occupancy exp(alpha + beta - log P), summed per
label id (Graves et al., 2006).  Dead cells hold LOG_ZERO instead of -inf,
and a masked neighbour holds LOG_ZERO plus a finite amount (the cell it
gathered, itself possibly LOG_ZERO).  Both lose against any live cell
inside the three-term logsumexp by a margin far beyond float range, so they
contribute exactly zero probability and exactly zero occupancy while every
intermediate stays finite.
"""

from __future__ import annotations

import numpy as np

from .tensor import LOG_ZERO, Tensor
from .text import BLANK_ID, PAD_ID


class CtcInfeasibleError(ValueError):
    """Raised when no alignment path of the given length can emit the target."""


def ctc_min_frames(target) -> int:
    """Fewest frames that can emit `target`: its length plus one blank per
    adjacent repeat."""
    target = list(target)
    repeats = sum(1 for a, b in zip(target, target[1:]) if a == b)
    return len(target) + repeats


def ctc_feasible(n_frames: int, target) -> bool:
    return n_frames >= ctc_min_frames(target)


def _logsumexp3(x: np.ndarray, out: np.ndarray) -> None:
    """Write log(exp(x[0]) + exp(x[1]) + exp(x[2])) into `out`, shifted by
    the elementwise maximum and summed in that order.  Overwrites `x`."""
    m = np.maximum(np.maximum(x[0], x[1]), x[2])
    x -= m
    np.exp(x, out=x)
    np.add(x[0], x[1], out=out)
    out += x[2]
    np.log(out, out=out)
    out += m


def ctc_loss_batch(log_probs: Tensor, targets, blank: int = BLANK_ID) -> Tensor:
    """Forward-algorithm CTC loss for a batch of targets of any lengths.

    Args:
        log_probs: (B, T, V) per-frame log-distributions, blank included.
        targets: B sequences of label ids, none equal to `blank`.  Their
            lengths may differ: each utterance reads its own end cells of
            the shared padded lattice.
        blank: vocabulary id of the blank label.

    Returns:
        (B,) tensor of per-utterance losses
        -log P(target | log_probs), differentiable through `log_probs`.
    """
    if log_probs.ndim != 3:
        raise ValueError(f"log_probs must be (B, T, V), got shape {log_probs.shape}")
    b, t_max, vocab = log_probs.shape
    targets = [list(t) for t in targets]
    if len(targets) != b:
        raise ValueError(f"{b} utterances but {len(targets)} targets")
    for i, tgt in enumerate(targets):
        if any(not 0 <= y < vocab or y == blank for y in tgt):
            raise ValueError(f"target {i} contains an invalid label id")
        if not ctc_feasible(t_max, tgt):
            raise CtcInfeasibleError(
                f"target {i} needs at least {ctc_min_frames(tgt)} frames, got {t_max}")
    lengths = np.array([len(t) for t in targets], dtype=np.intp)
    s = 2 * int(lengths.max(initial=0)) + 1

    ext = np.full((b, s), blank, dtype=np.intp)  # blank-extended targets
    for i, tgt in enumerate(targets):
        ext[i, 1:2 * len(tgt):2] = tgt

    # Cell j's stay, step and skip predecessors are j, j-1 and j-2, clamped
    # into range.  The additive mask drops those that do not exist and the
    # skips that are not allowed: into a blank, or between repeated labels.
    # A frame's candidates form a (3, B, S) array, gathered from the
    # previous frame's (B, S) row by flat index.
    cell = np.arange(s)
    pred = cell - np.arange(3)[:, None]
    src = np.maximum(pred, 0)
    live = np.broadcast_to((pred >= 0)[:, None], (3, b, s)).copy()
    live[2] &= (ext != blank) & (ext != np.take(ext, src[2], axis=1))
    mask = np.where(live, 0.0, LOG_ZERO)
    row = np.arange(b)[:, None] * s
    # An utterance ends in its last label or the blank after it.
    last = 2 * lengths[:, None]
    final = np.where((cell == last) | (cell == last - 1), 0.0, LOG_ZERO)

    # (T, B, S) lattices: emit[t, i, j] = log_probs[i, t, ext[i, j]].
    emit = np.take_along_axis(log_probs.data.transpose(1, 0, 2), ext[None], axis=2)
    alpha = np.empty_like(emit)
    alpha[0] = emit[0] + np.where(cell < 2, 0.0, LOG_ZERO)
    cand = np.empty((3, b, s))
    pred_at = row + src[:, None]
    for t in range(1, t_max):
        alpha[t - 1].take(pred_at, out=cand)
        cand += mask
        _logsumexp3(cand, alpha[t])
        alpha[t] += emit[t]
    ends = alpha[-1] + final
    top = ends.max(axis=1)
    log_p = top + np.log(np.exp(ends - top[:, None]).sum(axis=1))

    def vjp(g):
        # Cell j's successors are j, j+1 and j+2; a skip is allowed exactly
        # when the predecessor mask allows it read from the other end.
        succ = cell + np.arange(3)[:, None]
        dst = np.minimum(succ, s - 1)
        live_succ = np.broadcast_to((succ < s)[:, None], (3, b, s)).copy()
        live_succ[2] &= np.take(live[2], dst[2], axis=1)
        succ_mask = np.where(live_succ, 0.0, LOG_ZERO)
        # beta[t, i, j]: log-probability of the rest of the path from cell j
        # at frame t, frame t's own emission excluded.
        beta = np.empty_like(alpha)
        beta[-1] = final
        ahead, cand = np.empty((b, s)), np.empty((3, b, s))
        succ_at = row + dst[:, None]
        for t in range(t_max - 2, -1, -1):
            np.add(beta[t + 1], emit[t + 1], out=ahead)
            ahead.take(succ_at, out=cand)
            cand += succ_mask
            _logsumexp3(cand, beta[t])
        # An occupancy is a probability.  Capping its log at 0 keeps the
        # rounding of LOG_ZERO-scale log-probabilities from overflowing.
        occupancy = np.exp(np.minimum(alpha + beta - log_p[:, None], 0.0))
        # Flat (B, T, V) index of the log-probability each cell emits.
        flat = ((np.arange(b)[:, None] * t_max + np.arange(t_max)[:, None, None])
                * vocab + ext)
        per_label = np.bincount(flat.ravel(), weights=occupancy.ravel(),
                                minlength=b * t_max * vocab)
        return per_label.reshape(b, t_max, vocab) * -g[:, None, None]

    return Tensor._from_op(-log_p, ((log_probs, vjp),))


def label_smoothed_ce(logits: Tensor, targets, epsilon_ls: float = 0.1) -> Tensor:
    """Cross-entropy against the smoothed distribution
    q = (1 - eps) * onehot(target) + eps / V, averaged over non-pad tokens.

    Args:
        logits: (N, V) unnormalized scores.
        targets: N reference ids; positions equal to PAD_ID are excluded.
        epsilon_ls: smoothing mass spread uniformly over the vocabulary.

    Returns:
        scalar tensor, mean loss per non-pad token.
    """
    if logits.ndim != 2:
        raise ValueError(f"logits must be (N, V), got shape {logits.shape}")
    n, vocab = logits.shape
    targets = np.asarray(list(targets), dtype=np.intp)
    if targets.shape != (n,):
        raise ValueError(f"{n} logit rows but {targets.size} targets")
    keep = targets != PAD_ID
    n_keep = int(keep.sum())
    if n_keep == 0:
        raise ValueError("all target positions are padding")
    log_p = logits.log_softmax(axis=-1)
    picked = log_p[(np.arange(n), targets)]
    per_token = picked * (1.0 - epsilon_ls) + log_p.sum(axis=-1) * (epsilon_ls / vocab)
    return -(per_token * keep.astype(np.float64)).sum() * (1.0 / n_keep)


def multitask_loss(ce, ctc, alpha: float):
    """total = (1 - alpha) * ce + alpha * ctc."""
    return ce * (1.0 - alpha) + ctc * alpha


def ctc_loss_brute_force(log_probs: np.ndarray, target, blank: int = BLANK_ID) -> float:
    """Reference CTC loss by explicit enumeration of all V^T frame paths.

    Exponential; intended for cross-checking the forward algorithm on tiny
    shapes only.
    """
    import itertools

    lp = np.asarray(log_probs, dtype=np.float64)
    t_max, vocab = lp.shape
    target = tuple(target)
    matches = []
    for path in itertools.product(range(vocab), repeat=t_max):
        collapsed = []
        prev = None
        for sym in path:
            if sym != prev and sym != blank:
                collapsed.append(sym)
            prev = sym
        if tuple(collapsed) == target:
            matches.append(sum(lp[i, sym] for i, sym in enumerate(path)))
    if not matches:
        raise CtcInfeasibleError(f"no path of length {t_max} emits {target}")
    m = max(matches)
    return -(m + np.log(np.exp(np.array(matches) - m).sum()))
