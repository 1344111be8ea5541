"""N-dimensional float64 tensors with reverse-mode automatic differentiation.

The module defines the ops that the model, the losses and the
gradient-check probes use, and no others; `linear` (a position-wise
projection), `attention`, `weighted_sum` (the DLCL layer mix) and the call
of a :class:`Dropout` each do one model job as one node.  Every model, loss
and regularizer in this package is composed from them, except the CTC loss,
a node of its own in :mod:`tinyst.losses`; one finite-difference checker
(:func:`grad_check`) exercises both, and so the whole system end to end.
Values and gradients are immutable after creation; the graph is dynamic,
built afresh on every forward pass and released by the backward pass that
runs through it.

An op computes its result in numpy and returns
``Tensor._from_op(result, ((input, vjp), ...))``: one vector-Jacobian
product per input, in input order, where ``vjp(g)`` maps the gradient of
the result to that input's share of it.  The op never asks whether
gradients are wanted.  ``_from_op`` keeps the pairs whose input requires a
gradient (none under :class:`no_grad`), and :meth:`Tensor.backward` is the
only place that runs them and accumulates their results.  Backward runs
each node's vjps once and then releases the node, so an op may share work
between its vjps.

All arithmetic is 64-bit.  ``LOG_ZERO`` is used as the additive identity for
log-space masking instead of a true -inf: it behaves like "impossible" under
logsumexp while keeping every intermediate finite, which keeps backward
passes NaN-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .rng import RngStream

LOG_ZERO = -1.0e30

_grad_enabled = True


class no_grad:
    """Context manager that disables graph construction (inference mode)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `g` over the axes numpy broadcasting added, back to `shape`."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


class Tensor:
    """A float64 array that records the operation which produced it.

    `requires_grad` marks leaves whose gradient is wanted (parameters) and
    is inherited by every value computed from them while grad mode is on.
    `_vjps` holds a recorded node's (input, vjp) pairs: () for a leaf or an
    untracked value, None once backward has released the node.
    """

    __slots__ = ("data", "grad", "requires_grad", "_vjps", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._vjps: tuple = ()

    @classmethod
    def _from_op(cls, data: np.ndarray, vjps: tuple):
        """The result of an op, as an ndarray (0-d results too), recorded as a
        graph node when grad mode is on and some input requires a gradient.
        `vjps` holds an (input, vjp) pair per input; only the pairs whose
        input requires a gradient are kept."""
        out = cls.__new__(cls)
        out.data = np.asarray(data)
        out.grad = None
        out._vjps = tuple([pair for pair in vjps if pair[0].requires_grad]) \
            if _grad_enabled else ()
        out.requires_grad = bool(out._vjps)
        return out

    # -- basic introspection ------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def _accum(self, g: np.ndarray):
        self.grad = g if self.grad is None else self.grad + g

    # -- backward traversal -------------------------------------------------

    def backward(self):
        """Add d(self)/d(leaf) to the `.grad` of every tracked leaf (a
        tensor that no op produced, such as a parameter), then release the
        graph.

        The root must be a scalar that requires a gradient.  Traversal is
        iterative topological order, so each node's vjps run exactly once
        even on diamond graphs.  A first gradient is kept as its vjp returned
        it and a later one rebinds `.grad` to the sum, so gradients may share
        memory and none is written in place.  Once a node's vjps have run,
        its `.grad` and vjps are dropped, and with them the activations the
        vjps hold, so memory frees as the pass goes.  A released graph cannot
        run backward again: a second call, or a backward through a value
        computed from a released one, raises before touching any gradient.
        Leaf gradients add up over graphs.
        """
        if self.data.size != 1:
            raise ValueError(f"backward requires a scalar root, got shape {self.shape}")
        if not self.requires_grad:
            raise RuntimeError(
                "backward needs a root that depends on a tensor requiring a "
                "gradient; this one was built under no_grad or from constants")
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            if node._vjps is None:
                raise RuntimeError(
                    "backward already ran through this graph and released it; "
                    "run the forward pass again to get a new graph")
            visited.add(id(node))
            stack.append((node, True))
            for p, _ in node._vjps:
                if id(p) not in visited:
                    stack.append((p, False))
        self._accum(np.ones_like(self.data))
        # Popping drops the pass's own reference to each node as well, so a
        # node's value frees as soon as nothing outside the graph holds it.
        while topo:
            node = topo.pop()
            if node._vjps:
                for p, vjp in node._vjps:
                    p._accum(vjp(node.grad))
                node.grad = None
                node._vjps = None

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = as_tensor(other)
        return Tensor._from_op(self.data + other.data, (
            (self, lambda g: _unbroadcast(g, self.data.shape)),
            (other, lambda g: _unbroadcast(g, other.data.shape))))

    __radd__ = __add__

    def __mul__(self, other):
        other = as_tensor(other)
        return Tensor._from_op(self.data * other.data, (
            (self, lambda g: _unbroadcast(g * other.data, self.data.shape)),
            (other, lambda g: _unbroadcast(g * self.data, other.data.shape))))

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    # -- elementwise nonlinearities ------------------------------------------

    def sigmoid(self):
        x = self.data
        e = np.exp(-np.abs(x))
        out = np.where(x >= 0, 1.0, e) / (1.0 + e)
        return Tensor._from_op(out, ((self, lambda g: g * out * (1.0 - out)),))

    def relu(self):
        return Tensor._from_op(np.maximum(self.data, 0.0),
                               ((self, lambda g: g * (self.data > 0)),))

    def swish(self):
        """x * sigmoid(x)."""
        return self * self.sigmoid()

    # -- reductions ----------------------------------------------------------

    def sum(self, axis=None):
        return Tensor._from_op(self.data.sum(axis=axis), ((self, lambda g: np.broadcast_to(
            g if axis is None else np.expand_dims(g, axis), self.data.shape)),))

    def mean(self, axis: int | None = None):
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis) * (1.0 / count)

    # -- normalized outputs ----------------------------------------------------

    def softmax(self, axis: int = -1):
        x = self.data
        e = np.exp(x - x.max(axis=axis, keepdims=True))
        out = e / e.sum(axis=axis, keepdims=True)
        return Tensor._from_op(out, (
            (self, lambda g: (g - (g * out).sum(axis=axis, keepdims=True)) * out),))

    def log_softmax(self, axis: int = -1):
        x = self.data
        m = x.max(axis=axis, keepdims=True)
        shifted = x - m
        lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        out = shifted - lse
        return Tensor._from_op(out, (
            (self, lambda g: g - np.exp(out) * g.sum(axis=axis, keepdims=True)),))

    # -- shape manipulation ----------------------------------------------------

    def reshape(self, *shape):
        return Tensor._from_op(self.data.reshape(shape),
                               ((self, lambda g: g.reshape(self.data.shape)),))

    def transpose(self, *axes):
        if not axes:
            axes = tuple(range(self.data.ndim - 1, -1, -1))
        return Tensor._from_op(self.data.transpose(axes), (
            (self, lambda g: g.transpose(tuple(np.argsort(axes)))),))

    def __getitem__(self, idx):
        return Tensor._from_op(self.data[idx], (
            (self, lambda g: _scattered(self.data.shape, idx, g)),))


def _scattered(shape: tuple, idx, g: np.ndarray) -> np.ndarray:
    """Zeros of `shape` with g added at idx, correct for repeated indices."""
    full = np.zeros(shape)
    parts = idx if isinstance(idx, tuple) else (idx,)
    if any(isinstance(p, (np.ndarray, list)) for p in parts):
        np.add.at(full, idx, g)
    else:
        full[idx] += g
    return full


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def weighted_sum(xs: Sequence[Tensor], w: Tensor) -> Tensor:
    """sum_i w[i] * xs[i], the terms added in order, over same-shape tensors
    and a (len(xs),) weight vector: one node that keeps only its inputs."""
    out = xs[0].data * w.data[0]
    for i in range(1, len(xs)):
        out = out + xs[i].data * w.data[i]
    return Tensor._from_op(out, tuple(
        (x, lambda g, i=i: g * w.data[i]) for i, x in enumerate(xs)) + (
        (w, lambda g: np.array([(g * x.data).sum() for x in xs])),))


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """x @ weight + bias over the last axis of x, as one node.

    x: (..., d_in); weight: (d_in, d_out); bias: (d_out,) or None.  The
    forward is numpy's matmul, one product per leading index, so the rows
    of a decoder step (one position per hypothesis) get the same bits at
    any beam width.  The vjps flatten the leading axes into one axis of N
    positions, so each is one GEMM: the weight gradient contracts over all
    N positions at once, not per batch row.
    """
    if weight.data.ndim != 2 or x.data.shape[-1:] != weight.data.shape[:1]:
        raise ValueError(f"linear shape mismatch: input {x.data.shape} "
                         f"vs weight {weight.data.shape}")
    d_in, d_out = weight.data.shape
    if bias is not None and bias.data.shape != (d_out,):
        raise ValueError(f"linear bias must have shape ({d_out},) for weight "
                         f"{weight.data.shape}, got {bias.data.shape}")
    out = x.data @ weight.data
    vjps = ((x, lambda g: (g.reshape(-1, d_out) @ weight.data.T).reshape(x.data.shape)),
            (weight, lambda g: x.data.reshape(-1, d_in).T @ g.reshape(-1, d_out)))
    if bias is not None:
        out += bias.data
        vjps += ((bias, lambda g: g.reshape(-1, d_out).sum(axis=0)),)
    return Tensor._from_op(out, vjps)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale and shift.

    Constant rows come out as approximately `bias`: the 1e-5 added to the
    variance keeps the division finite.
    """
    gain, bias = as_tensor(gain), as_tensor(bias)
    dim = x.data.shape[-1]
    if gain.data.shape != (dim,) or bias.data.shape != (dim,):
        raise ValueError(
            f"layer_norm gain/bias must have shape ({dim},), got {gain.data.shape} and {bias.data.shape}")
    # np.add.reduce(...) / dim is what ndarray.mean computes, without its
    # per-call overhead.
    mu = np.add.reduce(x.data, axis=-1, keepdims=True) / dim
    centered = x.data - mu
    var = np.add.reduce(centered * centered, axis=-1, keepdims=True) / dim
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = centered * inv

    def grad_x(g):
        gx = g * gain.data
        term = gx - np.add.reduce(gx, axis=-1, keepdims=True) / dim \
            - xhat * (np.add.reduce(gx * xhat, axis=-1, keepdims=True) / dim)
        return term * inv

    return Tensor._from_op(gain.data * xhat + bias.data, (
        (x, grad_x),
        (gain, lambda g: (g * xhat).reshape(-1, dim).sum(axis=0)),
        (bias, lambda g: g.reshape(-1, dim).sum(axis=0))))


def _conv_windows(op: str, x: Tensor, k: int, c_w: int, stride: int,
                  padding: int) -> tuple:
    """Check a (B, T, C) input against a length-k kernel over c_w channels,
    zero-pad its time axis and return (padded input, sliding windows of
    shape (B, T_out, C, k), T, T_out).  Errors name `op`."""
    if k < 1 or stride < 1:
        raise ValueError(f"{op} needs kernel >= 1 and stride >= 1, "
                         f"got {k} and {stride}")
    if x.data.ndim != 3:
        raise ValueError(f"{op} expects a (B, T, C) input, got shape {x.data.shape}")
    _, t, c = x.data.shape
    if c != c_w:
        raise ValueError(f"{op} channel mismatch: input has {c}, weight expects {c_w}")
    t_out = (t + 2 * padding - k) // stride + 1
    if t_out <= 0:
        raise ValueError(f"{op} input too short: length {t} with kernel {k}, "
                         f"stride {stride}, padding {padding}")
    xp = np.pad(x.data, ((0, 0), (padding, padding), (0, 0))) if padding else x.data
    windows = np.lib.stride_tricks.sliding_window_view(xp, k, axis=1)[:, ::stride]
    return xp, windows, t, t_out


def conv1d(x: Tensor, weight: Tensor, bias=None, stride: int = 1, padding: int = 0) -> Tensor:
    """1-D convolution over the time axis.

    x: (B, T, C_in); weight: (K, C_in, C_out); bias: (C_out,).
    Output length is floor((T + 2*padding - K) / stride) + 1.
    """
    k, c_in, _ = weight.data.shape
    xp, windows, t, t_out = _conv_windows("conv1d", x, k, c_in, stride, padding)
    # windows: (B, T_out, C_in, K) -> out[b,t,o] = sum_{c,k} win * w[k,c,o]
    out = np.tensordot(windows, weight.data, axes=([3, 2], [0, 1]))

    def grad_x(g):
        dxp = np.zeros_like(xp)
        for kk in range(k):
            # (B, T_out, C_in)
            dxp[:, kk:kk + t_out * stride:stride] += g @ weight.data[kk].T
        return dxp[:, padding:padding + t] if padding else dxp

    # dW[k,c,o] = sum_{b,t} windows[b,t,c,k] * g[b,t,o], transposed from the
    # (C_in, K, C_out) that tensordot gives.
    vjps = ((x, grad_x), (weight, lambda g: np.tensordot(
        windows, g, axes=([0, 1], [0, 1])).transpose(1, 0, 2)))
    if bias is not None:
        out = out + bias.data
        vjps += ((bias, lambda g: g.sum(axis=(0, 1))),)
    return Tensor._from_op(out, vjps)


def depthwise_conv1d(x: Tensor, weight: Tensor, bias=None, padding: int = 0) -> Tensor:
    """Per-channel stride-1 1-D convolution: each channel is filtered
    independently.

    x: (B, T, C); weight: (K, C); bias: (C,).
    """
    k, c_w = weight.data.shape
    xp, windows, t, t_out = _conv_windows("depthwise_conv1d", x, k, c_w, 1, padding)
    # windows: (B, T_out, C, K); out[b,t,c] = sum_k win[b,t,c,k] * w[k,c]
    out = np.einsum("btck,kc->btc", windows, weight.data)

    def grad_x(g):
        dxp = np.zeros_like(xp)
        for kk in range(k):
            dxp[:, kk:kk + t_out] += g * weight.data[kk]
        return dxp[:, padding:padding + t] if padding else dxp

    vjps = ((x, grad_x), (weight, lambda g: np.einsum("btck,btc->kc", windows, g)))
    if bias is not None:
        out = out + bias.data
        vjps += ((bias, lambda g: g.sum(axis=(0, 1))),)
    return Tensor._from_op(out, vjps)


def _shifted(buf: np.ndarray, t_key: int) -> np.ndarray:
    """The relative shift of Transformer-XL (Dai et al. 2019): a
    (..., Tq, t_key) view of a contiguous (..., Tq, Tq + t_key) buffer whose
    row i starts at buffer column Tq-1-i of row i.  Column m of the buffer
    then holds offset m - (t_key-1) in every row, so the band is filled or
    read by column slices of the buffer, with no index arrays."""
    *lead, t_query, width = buf.shape
    flat = buf.reshape(*lead, t_query * width)
    rows = flat[..., t_query - 1:t_query - 1 + t_query * (width - 1)]
    return rows.reshape(*lead, t_query, width - 1)[..., :t_key]


def _offset_columns(t_query: int, t_key: int, max_rel: int) -> tuple:
    """(lo, m0, m1) for the buffer of `_shifted`: its column m holds table
    column m - lo while m0 <= m < m1; the columns left of m0 clip to table
    column 0 and those from m1 on to table column 2*max_rel."""
    lo = t_key - 1 - max_rel
    return lo, max(lo, 0), min(t_key + max_rel, t_query + t_key)


def _gather_band(x: np.ndarray, t_key: int) -> np.ndarray:
    """Spread per-offset values over the relative-position band: x is
    (..., t_query, 2R+1) and the result (..., t_query, t_key) holds
    x[..., i, clip(j - i', -R, R) + R] at (i, j), where query row i sits at
    key position i' = i + t_key - t_query (the queries are the last t_query
    of the keys).  It writes x into a buffer by column slices and returns
    the band as a view of that buffer through the relative shift
    (`_shifted`).  Its adjoint is `_sum_band`."""
    *lead, t_query, n_rel = x.shape
    lo, m0, m1 = _offset_columns(t_query, t_key, n_rel // 2)
    buf = np.empty((*lead, t_query, t_query + t_key))
    buf[..., m0:m1] = x[..., m0 - lo:m1 - lo]
    buf[..., :m0] = x[..., :1]
    buf[..., m1:] = x[..., -1:]
    return _shifted(buf, t_key)


def _sum_band(x: np.ndarray, max_rel: int) -> np.ndarray:
    """Sum a (..., t_query, t_key) array per clipped relative offset into
    (..., t_query, 2*max_rel+1): the adjoint of `_gather_band`.  It writes
    the band into a zeroed buffer through the relative shift (`_shifted`)
    and folds the buffer's columns back onto the offsets."""
    *lead, t_query, t_key = x.shape
    width = t_query + t_key
    lo, m0, m1 = _offset_columns(t_query, t_key, max_rel)
    buf = np.zeros((*lead, t_query, width))
    _shifted(buf, t_key)[...] = x
    out = np.zeros((*lead, t_query, 2 * max_rel + 1))
    out[..., m0 - lo:m1 - lo] = buf[..., m0:m1]
    # Row i holds the band in buffer columns t_query-1-i .. width-2-i, so
    # each clipped end sums only the rows and columns the band reaches.
    first = max(t_query - m0, 0)
    if m0 > 0:
        out[..., first:, 0] += buf[..., first:, :m0].sum(axis=-1)
    stop = width - 1 - m1
    if stop > 0:
        out[..., :stop, -1] += buf[..., :stop, m1:width - 1].sum(axis=-1)
    return out


@dataclass(frozen=True)
class Dropout:
    """Inverted dropout at rate `p`, masks drawn from `rng`: one op that
    zeroes each unit with probability p, scales the rest by 1/(1-p) and keeps
    only the boolean mask.  With no stream (or p == 0) it is eval mode, the
    identity.  `attention` drops its weights with the same masks."""

    p: float = 0.0
    rng: RngStream | None = None

    def __post_init__(self):
        if not 0.0 <= self.p < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {self.p}")

    def _keep(self, shape: tuple):
        """The kept units (one uniform draw each), or None in eval mode."""
        if self.rng is None or self.p == 0.0:
            return None
        return self.rng.uniform(size=shape) >= self.p

    def _scaled(self, x: np.ndarray, keep: np.ndarray) -> np.ndarray:
        return x * (keep / (1.0 - self.p))

    def __call__(self, x: Tensor) -> Tensor:
        keep = self._keep(x.data.shape)
        if keep is None:
            return x
        return Tensor._from_op(self._scaled(x.data, keep),
                               ((x, lambda g: self._scaled(g, keep)),))


no_dropout = Dropout()


def attention(q: Tensor, k: Tensor, v: Tensor, rel_k: Tensor | None = None,
              rel_v: Tensor | None = None, mask: np.ndarray | None = None,
              drop: Dropout = no_dropout) -> Tensor:
    """Scaled dot-product attention from queries, keys and values to the
    context, as one graph node.

    q is (..., t_query, d) and k, v are (..., t_key, d), broadcasting over
    the leading axes; the queries are the last t_query of the keys.  With
    relative positions, rel_k and rel_v are (2R+1, d) tables over the
    clipped offsets -R..R, and

        S = (q k^T + _gather_band(q rel_k^T)) / sqrt(d) + mask
        P = drop(softmax(S)), the softmax over the keys
        out = P v + _sum_band(P) rel_v

    where `_gather_band` spreads the per-offset scores over the keys and
    `_sum_band` adds each row's weights up per offset.  `mask` is additive
    (LOG_ZERO hides a key), and `drop` draws its mask as when it is called.
    Besides its inputs, the node keeps only P and the boolean dropout mask.
    Its backward forms dS = P * (dP - rowsum(dP * P)) / sqrt(d) once for
    the q, k and rel_k vjps; the band helpers, each the other's adjoint,
    carry the gradients to rel_k and rel_v."""
    rel = rel_k is not None
    max_rel = rel_k.data.shape[0] // 2 if rel else 0
    t_key = k.data.shape[-2]
    scale = q.data.shape[-1] ** -0.5
    k_t = np.swapaxes(k.data, -1, -2)
    scores = q.data @ k_t
    if rel:
        scores += _gather_band(q.data @ rel_k.data.T, t_key)
    scores *= scale
    if mask is not None:
        scores += mask
    scores -= scores.max(axis=-1, keepdims=True)
    probs = np.exp(scores, out=scores)
    probs /= probs.sum(axis=-1, keepdims=True)
    keep = drop._keep(probs.shape)

    def weights():
        return probs if keep is None else drop._scaled(probs, keep)

    w = weights()
    out = w @ v.data
    if rel:
        out = out + _sum_band(w, max_rel) @ rel_v.data
    d_scores = None

    def scores_grad(g):
        # dS and, with relative positions, its sums per offset.  The q, k
        # and rel_k vjps share them: backward runs a node's vjps once, all
        # with the same g.
        nonlocal d_scores
        if d_scores is None:
            dw = g @ np.swapaxes(v.data, -1, -2)
            if rel:
                dw = dw + _gather_band(g @ rel_v.data.T, t_key)
            if keep is not None:
                dw = drop._scaled(dw, keep)
            ds = dw - (dw * probs).sum(axis=-1, keepdims=True)
            ds *= probs
            ds *= scale
            d_scores = ds, (_sum_band(ds, max_rel) if rel else None)
        return d_scores

    def grad_q(g):
        ds, ds_band = scores_grad(g)
        dq = ds @ k.data
        if rel:
            dq = dq + ds_band @ rel_k.data
        return _unbroadcast(dq, q.data.shape)

    def grad_k(g):
        dk_t = np.swapaxes(q.data, -1, -2) @ scores_grad(g)[0]
        return np.swapaxes(_unbroadcast(dk_t, k_t.shape), -1, -2)

    def grad_v(g):
        return _unbroadcast(np.swapaxes(weights(), -1, -2) @ g, v.data.shape)

    def grad_rel_k(g):
        d_rel_t = np.swapaxes(q.data, -1, -2) @ scores_grad(g)[1]
        return _unbroadcast(d_rel_t, rel_k.data.shape[::-1]).T

    def grad_rel_v(g):
        w_band = _sum_band(weights(), max_rel)
        return _unbroadcast(np.swapaxes(w_band, -1, -2) @ g, rel_v.data.shape)

    vjps = ((q, grad_q), (k, grad_k), (v, grad_v))
    if rel:
        vjps += ((rel_k, grad_rel_k), (rel_v, grad_rel_v))
    return Tensor._from_op(out, vjps)


def glu(x: Tensor) -> Tensor:
    """Gated linear unit: split the last axis in half, gate the first half by
    the second."""
    dim = x.data.shape[-1]
    if dim % 2 != 0:
        raise ValueError(f"glu needs an even dimension, got {dim}")
    half = dim // 2
    return x[..., :half] * x[..., half:].sigmoid()


def grad_check(f: Callable[[], Tensor], params: Sequence[Tensor]) -> float:
    """Compare analytic gradients of `f()` against central differences with
    step 1e-5.

    `f` must be deterministic and return a scalar Tensor.  Returns the max
    over all coordinates of |analytic - numeric| / max(1, |analytic|, |numeric|).
    """
    eps = 1e-5
    for p in params:
        p.grad = None
    f().backward()
    analytic = [p.grad if p.grad is not None else np.zeros_like(p.data) for p in params]
    worst = 0.0
    for p, ana in zip(params, analytic):
        flat = p.data.reshape(-1)
        ana_flat = ana.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            with no_grad():  # numeric probes need values, not graphs
                flat[i] = orig + eps
                hi = float(f().data)
                flat[i] = orig - eps
                lo = float(f().data)
            flat[i] = orig
            numeric = (hi - lo) / (2.0 * eps)
            err = abs(ana_flat[i] - numeric) / max(1.0, abs(ana_flat[i]), abs(numeric))
            worst = max(worst, err)
    return worst
