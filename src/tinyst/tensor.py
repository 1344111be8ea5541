"""N-dimensional float64 tensors with reverse-mode automatic differentiation.

The module defines the ops that the model, the losses and the
gradient-check probes use, and no others.  Every model, loss and
regularizer in this package is composed from them, except the CTC loss,
which is one node of its own (:mod:`tinyst.losses`); a single
finite-difference checker (:func:`grad_check`) exercises both, and so the
whole system end to end.  Values are immutable after creation except for the
gradient accumulator; the graph is dynamic, built afresh on every forward
pass.

All arithmetic is 64-bit.  ``LOG_ZERO`` is used as the additive identity for
log-space masking instead of a true -inf: it behaves like "impossible" under
logsumexp while keeping every intermediate finite, which keeps backward
passes NaN-free.
"""

from __future__ import annotations

from collections import OrderedDict
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
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward",
                 "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._backward = None

    @classmethod
    def _from_op(cls, data: np.ndarray, parents: tuple, backward: Callable):
        out = cls.__new__(cls)
        out.data = data
        out.grad = None
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
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
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    # -- backward traversal -------------------------------------------------

    def backward(self):
        """Accumulate d(self)/d(leaf) into every tracked ancestor's `.grad`.

        The root must be a scalar.  Repeated calls without zeroing gradients
        accumulate.  Traversal is iterative topological order, so each node's
        local backward runs exactly once per call even on diamond graphs.
        """
        if self.data.size != 1:
            raise ValueError(f"backward requires a scalar root, got shape {self.shape}")
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
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))
        self._accum(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = as_tensor(other)
        out = self.data + other.data
        if not _tracking(self, other):
            return Tensor(out)

        def backward(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g, self.data.shape))
            if other.requires_grad:
                other._accum(_unbroadcast(g, other.data.shape))

        return Tensor._from_op(out, (self, other), backward)

    __radd__ = __add__

    def __mul__(self, other):
        other = as_tensor(other)
        out = self.data * other.data
        if not _tracking(self, other):
            return Tensor(out)

        def backward(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g * other.data, self.data.shape))
            if other.requires_grad:
                other._accum(_unbroadcast(g * self.data, other.data.shape))

        return Tensor._from_op(out, (self, other), backward)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def __matmul__(self, other):
        other = as_tensor(other)
        a, b = self.data, other.data
        if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
            raise ValueError(f"matmul shape mismatch: {a.shape} vs {b.shape}")
        try:
            out = a @ b
        except ValueError as exc:
            raise ValueError(f"matmul shape mismatch: {a.shape} vs {b.shape}") from exc
        if not _tracking(self, other):
            return Tensor(out)

        def backward(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g @ np.swapaxes(b, -1, -2), a.shape))
            if other.requires_grad:
                other._accum(_unbroadcast(np.swapaxes(a, -1, -2) @ g, b.shape))

        return Tensor._from_op(out, (self, other), backward)

    # -- elementwise nonlinearities ------------------------------------------

    def sigmoid(self):
        x = self.data
        out = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.maximum(x, 0))),
                       np.exp(np.minimum(x, 0)) / (1.0 + np.exp(np.minimum(x, 0))))
        if not _tracking(self):
            return Tensor(out)

        def backward(g):
            self._accum(g * out * (1.0 - out))

        return Tensor._from_op(out, (self,), backward)

    def relu(self):
        out = np.maximum(self.data, 0.0)
        if not _tracking(self):
            return Tensor(out)

        def backward(g):
            self._accum(g * (self.data > 0))

        return Tensor._from_op(out, (self,), backward)

    def swish(self):
        """x * sigmoid(x)."""
        return self * self.sigmoid()

    # -- reductions ----------------------------------------------------------

    def sum(self, axis=None):
        out = self.data.sum(axis=axis)
        if not _tracking(self):
            return Tensor(out)
        shape = self.data.shape

        def backward(g):
            gg = g if axis is None else np.expand_dims(g, axis)
            self._accum(np.broadcast_to(gg, shape).copy())

        return Tensor._from_op(out, (self,), backward)

    def mean(self, axis: int | None = None):
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis) * (1.0 / count)

    # -- normalized outputs ----------------------------------------------------

    def softmax(self, axis: int = -1):
        x = self.data
        e = np.exp(x - x.max(axis=axis, keepdims=True))
        out = e / e.sum(axis=axis, keepdims=True)
        if not _tracking(self):
            return Tensor(out)

        def backward(g):
            inner = (g * out).sum(axis=axis, keepdims=True)
            self._accum((g - inner) * out)

        return Tensor._from_op(out, (self,), backward)

    def log_softmax(self, axis: int = -1):
        x = self.data
        m = x.max(axis=axis, keepdims=True)
        shifted = x - m
        lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        out = shifted - lse
        if not _tracking(self):
            return Tensor(out)

        def backward(g):
            self._accum(g - np.exp(out) * g.sum(axis=axis, keepdims=True))

        return Tensor._from_op(out, (self,), backward)

    # -- shape manipulation ----------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = self.data.reshape(shape)
        if not _tracking(self):
            return Tensor(out)
        orig = self.data.shape

        def backward(g):
            self._accum(g.reshape(orig))

        return Tensor._from_op(out, (self,), backward)

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(range(self.data.ndim - 1, -1, -1))
        out = self.data.transpose(axes)
        if not _tracking(self):
            return Tensor(out)
        inverse = tuple(np.argsort(axes))

        def backward(g):
            self._accum(g.transpose(inverse))

        return Tensor._from_op(out, (self,), backward)

    def __getitem__(self, idx):
        out = self.data[idx]
        if not _tracking(self):
            return Tensor(out)
        shape = self.data.shape

        def backward(g):
            full = np.zeros(shape, dtype=np.float64)
            _scatter_add(full, idx, g)
            self._accum(full)

        return Tensor._from_op(out, (self,), backward)


def _tracking(*tensors: Tensor) -> bool:
    return _grad_enabled and any(t.requires_grad for t in tensors)


def _scatter_add(target: np.ndarray, idx, g: np.ndarray):
    """target[idx] += g, correct for repeated indices."""
    parts = idx if isinstance(idx, tuple) else (idx,)
    if any(isinstance(p, (np.ndarray, list)) for p in parts):
        np.add.at(target, idx, g)
    else:
        target[idx] += g


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out = np.stack([t.data for t in tensors], axis=axis)
    if not _tracking(*tensors):
        return Tensor(out)

    def backward(g):
        slices = np.moveaxis(g, axis, 0)
        for t, gi in zip(tensors, slices):
            if t.requires_grad:
                t._accum(gi)

    return Tensor._from_op(out, tuple(tensors), backward)


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
    out = gain.data * xhat + bias.data
    if not _tracking(x, gain, bias):
        return Tensor(out)

    def backward(g):
        if gain.requires_grad:
            gain._accum((g * xhat).reshape(-1, dim).sum(axis=0))
        if bias.requires_grad:
            bias._accum(g.reshape(-1, dim).sum(axis=0))
        if x.requires_grad:
            gx = g * gain.data
            term = gx - np.add.reduce(gx, axis=-1, keepdims=True) / dim \
                - xhat * (np.add.reduce(gx * xhat, axis=-1, keepdims=True) / dim)
            x._accum(term * inv)

    return Tensor._from_op(out, (x, gain, bias), backward)


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
    if bias is not None:
        out = out + bias.data
    parents = [x, weight] + ([bias] if bias is not None else [])
    if not _tracking(*parents):
        return Tensor(out)

    def backward(g):
        if bias is not None and bias.requires_grad:
            bias._accum(g.sum(axis=(0, 1)))
        if weight.requires_grad:
            # dW[k,c,o] = sum_{b,t} windows[b,t,c,k] * g[b,t,o]
            dw = np.tensordot(windows, g, axes=([0, 1], [0, 1]))  # (C_in, K, C_out)
            weight._accum(dw.transpose(1, 0, 2))
        if x.requires_grad:
            dxp = np.zeros_like(xp)
            for kk in range(k):
                contrib = g @ weight.data[kk].T  # (B, T_out, C_in)
                dxp[:, kk:kk + t_out * stride:stride] += contrib
            x._accum(dxp[:, padding:padding + t] if padding else dxp)

    return Tensor._from_op(out, tuple(parents), backward)


def depthwise_conv1d(x: Tensor, weight: Tensor, bias=None, padding: int = 0) -> Tensor:
    """Per-channel stride-1 1-D convolution: each channel is filtered
    independently.

    x: (B, T, C); weight: (K, C); bias: (C,).
    """
    k, c_w = weight.data.shape
    xp, windows, t, t_out = _conv_windows("depthwise_conv1d", x, k, c_w, 1, padding)
    # windows: (B, T_out, C, K); out[b,t,c] = sum_k win[b,t,c,k] * w[k,c]
    out = np.einsum("btck,kc->btc", windows, weight.data)
    if bias is not None:
        out = out + bias.data
    parents = [x, weight] + ([bias] if bias is not None else [])
    if not _tracking(*parents):
        return Tensor(out)

    def backward(g):
        if bias is not None and bias.requires_grad:
            bias._accum(g.sum(axis=(0, 1)))
        if weight.requires_grad:
            weight._accum(np.einsum("btck,btc->kc", windows, g))
        if x.requires_grad:
            dxp = np.zeros_like(xp)
            for kk in range(k):
                dxp[:, kk:kk + t_out] += g * weight.data[kk]
            x._accum(dxp[:, padding:padding + t] if padding else dxp)

    return Tensor._from_op(out, tuple(parents), backward)


def relative_position_index(t_query: int, t_key: int, max_rel: int) -> np.ndarray:
    """Offset row for each (i, j): clip(j - i', ±max_rel) + max_rel, where
    query row i sits at key position i' = i + t_key - t_query (the queries
    are the last t_query of the keys)."""
    offsets = (np.arange(t_key)[None, :]
               - np.arange(t_key - t_query, t_key)[:, None])
    return np.clip(offsets, -max_rel, max_rel) + max_rel


def _make_band_plan(t_query: int, t_key: int, max_rel: int) -> tuple:
    """Flat indices between a (t_query, 2*max_rel+1) table of per-offset
    values and the (t_query, t_key) band it spreads to.

    `flat[i*t_key + j]` is the table entry i*(2*max_rel+1) +
    relative_position_index[i, j].  It never decreases, so equal entries
    form runs: `starts` are where the runs begin and `targets` the entry
    each run belongs to.  The arrays are read-only because the plan cache
    hands them to every caller.
    """
    n_rel = 2 * max_rel + 1
    flat = (relative_position_index(t_query, t_key, max_rel)
            + n_rel * np.arange(t_query)[:, None]).ravel()
    starts = np.flatnonzero(np.diff(flat, prepend=-1))
    targets = flat[starts]
    for arr in (flat, starts, targets):
        arr.flags.writeable = False
    return flat, starts, targets


class _PlanCache:
    """The least recently used band plans, keyed by (t_query, t_key,
    max_rel) and bounded by their bytes, not their count.

    A decoder step meets a new key length each time but needs a plan of a
    few KB, while one encoder plan at T' = 262 and max_rel = 100 is about
    1.2 MB.  The newest plan stays even when it alone exceeds the budget.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.nbytes = 0
        self.plans = OrderedDict()

    def __call__(self, t_query: int, t_key: int, max_rel: int) -> tuple:
        key = (t_query, t_key, max_rel)
        plan = self.plans.get(key)
        if plan is not None:
            self.plans.move_to_end(key)
            return plan
        plan = self.plans[key] = _make_band_plan(t_query, t_key, max_rel)
        self.nbytes += sum(a.nbytes for a in plan)
        while self.nbytes > self.budget and len(self.plans) > 1:
            _, old = self.plans.popitem(last=False)
            self.nbytes -= sum(a.nbytes for a in old)
        return plan


_band_plan = _PlanCache(budget=8 * 2 ** 20)


def _gather_band(x: np.ndarray, t_key: int) -> np.ndarray:
    *lead, t_query, n_rel = x.shape
    flat, _, _ = _band_plan(t_query, t_key, n_rel // 2)
    out = np.take(x.reshape(*lead, t_query * n_rel), flat, axis=-1)
    return out.reshape(*lead, t_query, t_key)


def _sum_band(x: np.ndarray, max_rel: int) -> np.ndarray:
    *lead, t_query, t_key = x.shape
    n_rel = 2 * max_rel + 1
    _, starts, targets = _band_plan(t_query, t_key, max_rel)
    runs = np.add.reduceat(x.reshape(*lead, t_query * t_key), starts, axis=-1)
    out = np.zeros((*lead, t_query * n_rel))
    out[..., targets] = runs
    return out.reshape(*lead, t_query, n_rel)


def band_gather(x: Tensor, t_key: int) -> Tensor:
    """Spread per-offset values over the relative-position band: x is
    (..., t_query, 2R+1) and the result (..., t_query, t_key) holds
    x[..., i, relative_position_index(t_query, t_key, R)[i, j]] at (i, j).
    Its adjoint is `band_sum`."""
    if x.data.ndim < 2 or x.data.shape[-1] % 2 == 0:
        raise ValueError(f"band_gather needs a (..., t_query, 2R+1) input, "
                         f"got shape {x.data.shape}")
    out = _gather_band(x.data, t_key)
    if not _tracking(x):
        return Tensor(out)

    def backward(g):
        x._accum(_sum_band(g, x.data.shape[-1] // 2))

    return Tensor._from_op(out, (x,), backward)


def band_sum(x: Tensor, max_rel: int) -> Tensor:
    """Sum a (..., t_query, t_key) array per clipped relative offset into
    (..., t_query, 2*max_rel+1): the adjoint of `band_gather`."""
    if x.data.ndim < 2 or max_rel < 0:
        raise ValueError(f"band_sum needs a (..., t_query, t_key) input and "
                         f"max_rel >= 0, got shape {x.data.shape}, max_rel {max_rel}")
    out = _sum_band(x.data, max_rel)
    if not _tracking(x):
        return Tensor(out)

    def backward(g):
        x._accum(_gather_band(g, x.data.shape[-1]))

    return Tensor._from_op(out, (x,), backward)


def dropout(x: Tensor, p: float, rng: RngStream | None) -> Tensor:
    """Inverted dropout: zeroes each unit with probability p and scales the
    kept ones by 1/(1-p).  The stream is the train/eval switch: with no
    stream (or p == 0) it is the identity and draws nothing."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {p}")
    if rng is None or p == 0.0:
        return x
    mask = (rng.uniform(size=x.data.shape) >= p) / (1.0 - p)
    return x * Tensor(mask)


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
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params]
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
