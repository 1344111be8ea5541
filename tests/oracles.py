"""Reference implementations the tests check the program against.

`matmul` is the broadcasting matrix product that the projections and the
attention core were built from before `linear` and `attention` became one
op each, and `composite_linear` is a projection built from it;
`relative_position_index` defines the clipped relative-position band that
the band helpers and relative attention are checked on; `band_gather` and
`band_sum` make the two band helpers graph ops of their own, as the
attention core used them before it became one op; `composite_weighted_sum`
is the DLCL layer mix built from general ops, with `stack` as one of them,
as it was before `weighted_sum` became one op; `node_of` reads the graph
node of a tensor, for the tests that walk graphs; `retaining_backward` is
the graph engine without graph release, and, with `zero_fill`, with the
accumulator it had before gradients became values; `greedy_decode` is the
decoder beam search must equal at beam 1; `edit_distance`,
`edit_accuracy` and `token_accuracy` score the toy task and the CTC branch
in the acceptance suite.  The program itself scores with BLEU only.
"""

import numpy as np

from tinyst.decoding import Hypothesis, _step
from tinyst.tensor import Tensor, _gather_band, _sum_band, _unbroadcast, no_grad
from tinyst.text import BOS_ID, EOS_ID


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b over the last two axes, broadcasting the leading ones, as a
    graph op; each vjp sums over the axes broadcasting added."""
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul shape mismatch: {a.shape} vs {b.shape}")
    return Tensor._from_op(a.data @ b.data, (
        (a, lambda g: _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape)),
        (b, lambda g: _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape))))


def composite_linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """`linear` as a matmul node and a bias-add node: its weight gradient
    is one product per batch row, summed."""
    out = matmul(x, weight)
    return out if bias is None else out + bias


def relative_position_index(t_query: int, t_key: int, max_rel: int) -> np.ndarray:
    """Offset row for each (i, j): clip(j - i', ±max_rel) + max_rel, where
    query row i sits at key position i' = i + t_key - t_query (the queries
    are the last t_query of the keys)."""
    offsets = (np.arange(t_key)[None, :]
               - np.arange(t_key - t_query, t_key)[:, None])
    return np.clip(offsets, -max_rel, max_rel) + max_rel


def band_gather(x: Tensor, t_key: int) -> Tensor:
    """`_gather_band` as a graph op, with `_sum_band` as its vjp."""
    return Tensor._from_op(_gather_band(x.data, t_key).copy(), (
        (x, lambda g: _sum_band(g, x.data.shape[-1] // 2)),))


def band_sum(x: Tensor, max_rel: int) -> Tensor:
    """`_sum_band` as a graph op, with `_gather_band` as its vjp."""
    return Tensor._from_op(_sum_band(x.data, max_rel), (
        (x, lambda g: _gather_band(g, x.data.shape[-1])),))


def stack(tensors: list) -> Tensor:
    """np.stack along a new leading axis, as a graph op."""
    return Tensor._from_op(np.stack([t.data for t in tensors]), tuple(
        (t, lambda g, i=i: g[i]) for i, t in enumerate(tensors)))


def composite_weighted_sum(xs: list, w: Tensor) -> Tensor:
    """sum_i w[i] * xs[i] as stack, scale and sum over the stacked axis."""
    n = len(xs)
    return (stack(xs) * w.reshape(n, *(1,) * xs[0].ndim)).sum(axis=0)


def node_of(t: Tensor):
    """The graph node that backward walks for `t`: the node its op recorded,
    or `t` itself for a leaf or an untracked value.  A node's `_vjps` holds
    (input node, vjp) pairs."""
    return t._node or t


def retaining_backward(root: Tensor, zero_fill: bool = False) -> dict:
    """`Tensor.backward` as it was before it released graphs: the same
    traversal and accumulation, with every node keeping its gradient and
    vjps.  Returns {id(node): gradient} for every node the pass reached (a
    leaf is its own node), and leaves `.grad` alone.  With `zero_fill`,
    each gradient starts as C-ordered zeros and every share is added into
    it in place, as the engine accumulated before it kept the first share
    as given (it took the layout of the tensor's data, which a node no
    longer holds)."""
    start = node_of(root)
    topo, visited, pending = [], set(), [(start, False)]
    while pending:
        node, expanded = pending.pop()
        if expanded:
            topo.append(node)
        elif id(node) not in visited:
            visited.add(id(node))
            pending.append((node, True))
            pending.extend((p, False) for p, _ in node._vjps if id(p) not in visited)
    grads = {}

    def accum(node, g: np.ndarray):
        if zero_fill:
            grads.setdefault(id(node), np.zeros(g.shape))
            grads[id(node)] += g
        else:
            grads[id(node)] = g if id(node) not in grads else grads[id(node)] + g

    accum(start, np.ones_like(root.data))
    for node in reversed(topo):
        for p, vjp in node._vjps:
            accum(p, vjp(grads[id(node)]))
    return grads


def greedy_decode(models: list, max_len: int) -> Hypothesis:
    """Argmax token each step until eos or `max_len` tokens."""
    hyp = Hypothesis([BOS_ID])
    caches = [model.new_cache() for model, _ in models]
    with no_grad():
        for _ in range(max_len):
            row = _step(models, caches, [hyp.tokens[-1]])[0]
            token = int(row.argmax())
            hyp = Hypothesis(hyp.tokens + [token], hyp.logprob + row[token])
            if token == EOS_ID:
                hyp.finished = True
                break
    return hyp


def edit_distance(a: list, b: list) -> int:
    """Levenshtein distance between two token sequences."""
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        cur = [i]
        for j, y in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1,
                           prev[j - 1] + (x != y)))
        prev = cur
    return prev[-1]


def edit_accuracy(hypotheses: list, references: list) -> float:
    """1 - (total edit distance / total reference tokens), floored at 0.

    Token sequences are whitespace splits; measures how much of the
    reference survives in the hypothesis, robust to length mismatch.
    """
    if len(hypotheses) != len(references):
        raise ValueError(f"{len(hypotheses)} hypotheses vs "
                         f"{len(references)} references")
    total_dist = 0
    total_ref = 0
    for hyp, ref in zip(hypotheses, references):
        h, r = hyp.split(), ref.split()
        total_dist += edit_distance(h, r)
        total_ref += len(r)
    if total_ref == 0:
        raise ValueError("references contain no tokens")
    return max(0.0, 1.0 - total_dist / total_ref)


def token_accuracy(hypotheses: list, references: list) -> float:
    """Position-aligned token match rate: sum of per-position matches over
    sum of max(len(hyp), len(ref))."""
    if len(hypotheses) != len(references):
        raise ValueError(f"{len(hypotheses)} hypotheses vs "
                         f"{len(references)} references")
    match = 0
    denom = 0
    for hyp, ref in zip(hypotheses, references):
        h, r = hyp.split(), ref.split()
        match += sum(1 for x, y in zip(h, r) if x == y)
        denom += max(len(h), len(r))
    if denom == 0:
        raise ValueError("no tokens to score")
    return match / denom
