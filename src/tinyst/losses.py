"""Training objectives: CTC, label-smoothed cross-entropy, and their mixture.

The CTC forward algorithm runs entirely in log-space on the autodiff graph,
so its gradient is exact rather than hand-derived.  Dead dynamic-programming
cells hold LOG_ZERO instead of -inf, and a masked predecessor holds LOG_ZERO
plus a finite amount (the cell it gathered, itself possibly LOG_ZERO).  Both
lose against any live cell inside logsumexp by a margin far beyond float
range, so they contribute exactly zero probability and exactly zero gradient
while every intermediate stays finite.
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


def ctc_loss_batch(log_probs: Tensor, targets, blank: int = BLANK_ID) -> Tensor:
    """Forward-algorithm CTC loss for a batch of equal-length targets.

    Args:
        log_probs: (B, T, V) per-frame log-distributions, blank included.
        targets: B sequences of label ids, all the same length, none equal
            to `blank`.
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
    lengths = {len(t) for t in targets}
    if len(lengths) > 1:
        raise ValueError(f"batch targets must share one length, got {sorted(lengths)}")
    for i, tgt in enumerate(targets):
        if any(not 0 <= y < vocab or y == blank for y in tgt):
            raise ValueError(f"target {i} contains an invalid label id")
        if not ctc_feasible(t_max, tgt):
            raise CtcInfeasibleError(
                f"target {i} needs at least {ctc_min_frames(tgt)} frames, got {t_max}")
    length = lengths.pop() if lengths else 0
    s = 2 * length + 1

    ext = np.full((b, s), blank, dtype=np.intp)  # blank-extended targets
    for i, tgt in enumerate(targets):
        ext[i, 1::2] = tgt

    # Cell j's stay, step and skip predecessors are j, j-1 and j-2, clamped
    # into range.  The additive mask drops those that do not exist and the
    # skips that are not allowed: into a blank, or between repeated labels.
    pred = np.arange(s)[:, None] - np.arange(3)
    src = np.maximum(pred, 0)
    live = np.broadcast_to(pred >= 0, (b, s, 3)).copy()
    live[:, :, 2] &= (ext != blank) & (ext != ext[:, src[:, 2]])
    mask = Tensor(np.where(live, 0.0, LOG_ZERO))

    rows = np.arange(b)[:, None]
    start = np.where(np.arange(s) < 2, 0.0, LOG_ZERO)
    alpha = log_probs[(rows, 0, ext)] + start
    for t in range(1, t_max):
        alpha = (alpha[:, src] + mask).logsumexp(axis=2) + log_probs[(rows, t, ext)]
    return -alpha[:, max(s - 2, 0):].logsumexp(axis=1)


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
