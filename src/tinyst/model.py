"""Speech-translation architectures: downsampler, Transformer/Conformer
encoders with dynamic layer combination and clipped relative positions, and
the stacked acoustic+textual variant with an intermediate CTC head.

Four variants form a ladder, each adding one ingredient:

  baseline       pre-norm Transformer encoder/decoder, DLCL, conv
                 downsampling by 4, CTC head on the top encoder layer
  conformer      encoder blocks swapped for Conformer blocks
  conformer_rpe  adds clipped relative position embeddings to encoder and
                 decoder self-attention, scored and mixed per offset
  sate           splits the encoder into an acoustic stack (CTC head on its
                 output) and a textual stack joined by an adaptor

All activations are (batch, time, hidden) tensors; batches are exact-shape
(no padding), so no attention masks beyond the causal one are needed.

The decoder has one code path.  It reads and extends a `DecoderCache`: each
layer's self-attention keys and values over the tokens so far, and its
cross-attention keys and values of `memory`, projected once.  Teacher
forcing (`decode_logits`) runs the whole prefix through a fresh cache;
decoding (`decoder_step`) feeds one new token per hypothesis to a cache
that lives for the utterance, and reorders it as hypotheses branch.

Dropout is on exactly when a random stream is given.  `SpeechTranslator`
binds its one rate (`ModelConfig.dropout`) and the caller's stream into a
single `Dropout` (from :mod:`tinyst.tensor`), `drop`, and passes it down;
every block calls `drop` wherever it drops units, and attention hands it to
the fused attention op.  A block called without `drop` runs in eval mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .rng import RngStream
from .tensor import (LOG_ZERO, Dropout, Tensor, attention, depthwise_conv1d,
                     glu, layer_norm, linear, no_dropout, weighted_sum)
from .tensor import conv1d as conv1d_op
from .text import BOS_ID

VARIANTS = ("baseline", "conformer", "conformer_rpe", "sate")


@dataclass
class ModelConfig:
    """Architecture hyperparameters; defaults follow the mid-size recipe
    (12-layer encoder, 6-layer decoder, 256 wide, 4 heads)."""

    vocab_size: int
    variant: str = "baseline"
    enc_layers: int = 12
    dec_layers: int = 6
    acoustic_layers: int = 8
    hidden: int = 256
    heads: int = 4
    ffn: int = 2048
    dropout: float = 0.1
    rpe_enc_max: int = 100
    rpe_dec_max: int = 20
    conv_kernel: int = 7
    adaptor_mix_embeddings: bool = False

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.vocab_size < 6:
            raise ValueError(f"vocab_size must cover the 5 specials plus content, "
                             f"got {self.vocab_size}")
        for name in ("enc_layers", "dec_layers", "hidden", "heads", "ffn",
                     "rpe_enc_max", "rpe_dec_max", "conv_kernel"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.hidden % self.heads:
            raise ValueError(f"hidden {self.hidden} not divisible by heads {self.heads}")
        if self.hidden % 2:
            raise ValueError(f"hidden must be even for sinusoidal positions, "
                             f"got {self.hidden}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.conv_kernel % 2 == 0:
            raise ValueError(f"conv_kernel must be odd, got {self.conv_kernel}")
        # sate runs acoustic_layers below its CTC head and the rest above it.
        if self.variant == "sate" and not 1 <= self.acoustic_layers < self.enc_layers:
            raise ValueError(f"sate needs acoustic_layers in [1, enc_layers), got "
                             f"{self.acoustic_layers} of {self.enc_layers}")

    @property
    def uses_conformer(self) -> bool:
        return self.variant in ("conformer", "conformer_rpe", "sate")

    @property
    def uses_rpe(self) -> bool:
        return self.variant in ("conformer_rpe", "sate")


class Module:
    """Parameter container with named traversal, mirroring attribute order."""

    def _items(self):
        for name, val in vars(self).items():
            if isinstance(val, Tensor):
                if val.requires_grad:
                    yield name, val
            elif isinstance(val, Module):
                yield name, val
            elif isinstance(val, (list, tuple)):
                for i, item in enumerate(val):
                    if isinstance(item, Module) or (
                            isinstance(item, Tensor) and item.requires_grad):
                        yield f"{name}.{i}", item

    def named_parameters(self, prefix: str = ""):
        out = []
        for name, val in self._items():
            full = f"{prefix}.{name}" if prefix else name
            if isinstance(val, Tensor):
                out.append((full, val))
            else:
                out.extend(val.named_parameters(full))
        return out

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def zero_grad(self):
        for p in self.parameters():
            p.grad = None


def xavier_uniform(rng: RngStream, shape, fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class Linear(Module):
    """A position-wise projection x @ weight [+ bias], one `linear` node."""

    def __init__(self, d_in: int, d_out: int, rng: RngStream, bias: bool = True):
        self.weight = Tensor(xavier_uniform(rng, (d_in, d_out), d_in, d_out),
                             requires_grad=True)
        self.bias = Tensor(np.zeros(d_out), requires_grad=True) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)


class Embedding(Module):
    def __init__(self, vocab: int, dim: int, rng: RngStream):
        self.table = Tensor(rng.normal(0.0, dim ** -0.5, size=(vocab, dim)),
                            requires_grad=True)

    def __call__(self, ids: np.ndarray) -> Tensor:
        return self.table[np.asarray(ids, dtype=np.intp)]


class LayerNorm(Module):
    def __init__(self, dim: int):
        self.gain = Tensor(np.ones(dim), requires_grad=True)
        self.bias = Tensor(np.zeros(dim), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gain, self.bias)


def sinusoidal_positions(n: int, dim: int, start: int = 0) -> np.ndarray:
    """Sin/cos table of positions start..start+n-1: the row of position p
    holds sin(p / 10000^(2i/dim)) at 2i and the matching cosine at 2i+1."""
    if dim % 2:
        raise ValueError(f"position table needs an even dim, got {dim}")
    pos = np.arange(start, start + n, dtype=np.float64)[:, None]
    inv = 10000.0 ** (-np.arange(0, dim, 2, dtype=np.float64) / dim)
    angles = pos * inv
    table = np.empty((n, dim))
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles)
    return table


def add_absolute_positions(x: Tensor, start: int = 0) -> Tensor:
    """Add the sinusoidal table to a (B, T, H) or (T, H) activation whose
    first row sits at position `start`."""
    t, h = x.shape[-2], x.shape[-1]
    return x + Tensor(sinusoidal_positions(t, h, start))


def causal_mask(t_query: int, t_key: int) -> np.ndarray:
    """LOG_ZERO where key j lies after query row i, the queries being the
    last t_query of the keys."""
    return np.triu(np.full((t_query, t_key), LOG_ZERO), k=1 + t_key - t_query)


class SelfAttentionCache:
    """The keys and values a self-attention layer has projected so far, each
    (rows, heads, L, d_head).  Each call appends the new positions' keys
    and values and returns the whole run.

    A fresh cache keeps the first projection as it is, graph and all, so a
    teacher-forced pass through a fresh cache trains.  Appending to a
    filled cache and `reorder` work on `.data`: they run under `no_grad`
    only, and raise if gradients are tracked.
    """

    def __init__(self):
        self.k = self.v = None

    def __len__(self) -> int:
        return 0 if self.k is None else self.k.shape[2]

    def keys_values(self, project, x: Tensor):
        k, v = project(x)
        if self.k is not None:
            _refuse_tracked(k, v)
            k = Tensor(np.concatenate([self.k.data, k.data], axis=2))
            v = Tensor(np.concatenate([self.v.data, v.data], axis=2))
        self.k, self.v = k, v
        return k, v

    def reorder(self, parents: np.ndarray):
        """Row r becomes a copy of row parents[r]; rows may repeat or drop."""
        _refuse_tracked(self.k, self.v)
        self.k = Tensor(self.k.data[parents])
        self.v = Tensor(self.v.data[parents])


class MemoryCache:
    """The keys and values of the encoder memory for a cross-attention
    layer: projected on the first call, returned as they are after that.
    Decoding runs one utterance, so they have one row, which broadcasts
    over the hypotheses and never needs reordering."""

    def __init__(self):
        self.k = self.v = None

    def keys_values(self, project, memory: Tensor):
        if self.k is None:
            self.k, self.v = project(memory)
        return self.k, self.v


def _refuse_tracked(*tensors: Tensor):
    if any(t.requires_grad for t in tensors):
        raise RuntimeError("a filled decoder cache only grows or reorders "
                           "under no_grad")


class MultiHeadAttention(Module):
    """Scaled dot-product attention, optionally with clipped relative
    position embeddings on keys and values (self-attention only).

    With relative positions, per head:
        score(i,j) = (q_i . k_j + q_i . a_K[clip(j-i)]) / sqrt(d_head)
        out_i      = sum_j softmax_j(score) * (v_j + a_V[clip(j-i)])

    Both terms go through the 2R+1 clipped offsets, never a (Tq, Tk,
    d_head) table (Shaw et al. 2018, in the memory-lean form of Huang et
    al. 2018).  The scores q . a_K are computed once per offset, as
    (B, H, Tq, 2R+1), and spread over the keys; for the values, each row's
    attention weights are added up per offset and the sums multiply a_V.
    Both moves use the relative shift of Transformer-XL (Dai et al. 2019),
    a reshape of a (Tq, Tq+Tk) buffer, so no index arrays are built or kept.

    Each projection is one `linear` node; everything from the scores to the
    per-head context (q.k, the relative band, the scale, the causal mask,
    the softmax, dropout, the weighted values) is one node of the fused
    `attention` op.  Its backward is derived by hand, with the softmax
    adjoint that FlashAttention uses (Dao et al. 2022), and besides its
    inputs it keeps only the attention weights and the boolean dropout mask.
    The key projection has no bias: q . b adds one score to all keys of a
    query, which the softmax cancels, so that bias could never learn.

    Given a cache, the keys and values come from it (see
    `SelfAttentionCache` and `MemoryCache`), and the queries are the last
    positions of the keys.
    """

    def __init__(self, hidden: int, heads: int, rng: RngStream,
                 max_rel: int | None = None):
        self.heads = heads
        self.d_head = hidden // heads
        self.max_rel = max_rel
        self.wq = Linear(hidden, hidden, rng.child("wq"))
        self.wk = Linear(hidden, hidden, rng.child("wk"), bias=False)
        self.wv = Linear(hidden, hidden, rng.child("wv"))
        self.wo = Linear(hidden, hidden, rng.child("wo"))
        if max_rel is not None:
            n_pos = 2 * max_rel + 1
            self.rel_k = Tensor(rng.child("rel_k").normal(
                0.0, self.d_head ** -0.5, size=(n_pos, self.d_head)),
                requires_grad=True)
            self.rel_v = Tensor(rng.child("rel_v").normal(
                0.0, self.d_head ** -0.5, size=(n_pos, self.d_head)),
                requires_grad=True)

    def _split(self, x: Tensor) -> Tensor:
        b, t, _ = x.shape
        return x.reshape(b, t, self.heads, self.d_head).transpose(0, 2, 1, 3)

    def _project_kv(self, kv: Tensor):
        return self._split(self.wk(kv)), self._split(self.wv(kv))

    def __call__(self, query: Tensor, kv: Tensor, causal: bool = False,
                 drop: Dropout = no_dropout, cache=None) -> Tensor:
        b, tq, hidden = query.shape
        q = self._split(self.wq(query))
        k, v = (self._project_kv(kv) if cache is None
                else cache.keys_values(self._project_kv, kv))
        rel = () if self.max_rel is None else (self.rel_k, self.rel_v)
        ctx = attention(q, k, v, *rel,
                        mask=causal_mask(tq, k.shape[2]) if causal else None,
                        drop=drop)
        merged = ctx.transpose(0, 2, 1, 3).reshape(b, tq, hidden)
        return self.wo(merged)


class FeedForward(Module):
    def __init__(self, hidden: int, ffn: int, rng: RngStream,
                 activation: str = "relu"):
        self.lin1 = Linear(hidden, ffn, rng.child("lin1"))
        self.lin2 = Linear(ffn, hidden, rng.child("lin2"))
        self.activation = activation

    def __call__(self, x: Tensor, drop: Dropout = no_dropout) -> Tensor:
        h = self.lin1(x)
        h = h.swish() if self.activation == "swish" else h.relu()
        return self.lin2(drop(h))


class TransformerEncoderLayer(Module):
    """Self-attention + FFN, each behind a layer norm on a residual branch."""

    def __init__(self, cfg: ModelConfig, rng: RngStream, max_rel: int | None = None):
        self.norm1 = LayerNorm(cfg.hidden)
        self.norm2 = LayerNorm(cfg.hidden)
        self.attn = MultiHeadAttention(cfg.hidden, cfg.heads, rng.child("attn"),
                                       max_rel)
        self.ffn = FeedForward(cfg.hidden, cfg.ffn, rng.child("ffn"))

    def __call__(self, x: Tensor, drop: Dropout = no_dropout) -> Tensor:
        h = self.norm1(x)
        x = x + drop(self.attn(h, h, drop=drop))
        x = x + drop(self.ffn(self.norm2(x), drop))
        return x


class ConvModule(Module):
    """Pointwise expansion -> GLU -> depthwise conv -> LN -> swish -> pointwise."""

    def __init__(self, hidden: int, kernel: int, rng: RngStream):
        self.pw1 = Linear(hidden, 2 * hidden, rng.child("pw1"))
        self.dw_weight = Tensor(xavier_uniform(rng.child("dw"), (kernel, hidden),
                                               kernel, kernel), requires_grad=True)
        self.dw_bias = Tensor(np.zeros(hidden), requires_grad=True)
        self.norm = LayerNorm(hidden)
        self.pw2 = Linear(hidden, hidden, rng.child("pw2"))
        self.kernel = kernel

    def __call__(self, x: Tensor, drop: Dropout = no_dropout) -> Tensor:
        h = glu(self.pw1(x))
        h = depthwise_conv1d(h, self.dw_weight, self.dw_bias,
                             padding=self.kernel // 2)
        h = self.norm(h).swish()
        return drop(self.pw2(h))


class ConformerBlock(Module):
    """Macaron block: half-FFN, self-attention, convolution, half-FFN, LN."""

    def __init__(self, cfg: ModelConfig, rng: RngStream, max_rel: int | None = None):
        self.norm_ffn1 = LayerNorm(cfg.hidden)
        self.ffn1 = FeedForward(cfg.hidden, cfg.ffn, rng.child("ffn1"),
                                activation="swish")
        self.norm_attn = LayerNorm(cfg.hidden)
        self.attn = MultiHeadAttention(cfg.hidden, cfg.heads, rng.child("attn"),
                                       max_rel)
        self.norm_conv = LayerNorm(cfg.hidden)
        self.conv = ConvModule(cfg.hidden, cfg.conv_kernel, rng.child("conv"))
        self.norm_ffn2 = LayerNorm(cfg.hidden)
        self.ffn2 = FeedForward(cfg.hidden, cfg.ffn, rng.child("ffn2"),
                                activation="swish")
        self.norm_out = LayerNorm(cfg.hidden)

    def __call__(self, x: Tensor, drop: Dropout = no_dropout) -> Tensor:
        x = x + drop(self.ffn1(self.norm_ffn1(x), drop)) * 0.5
        h = self.norm_attn(x)
        x = x + drop(self.attn(h, h, drop=drop))
        x = x + self.conv(self.norm_conv(x), drop)
        x = x + drop(self.ffn2(self.norm_ffn2(x), drop)) * 0.5
        return self.norm_out(x)


class DlclCombiner(Module):
    """Learned combination of all preceding layers' normalized outputs.

    Row r, a vector of r+1 weights starting at 1/(r+1), mixes outputs 0..r
    (output 0 being the stack input) and feeds layer r+1, or becomes the
    stack output for r == n_layers.  A mix is one `weighted_sum` node.
    """

    def __init__(self, n_layers: int, hidden: int):
        self.weights = [Tensor(np.full(r + 1, 1.0 / (r + 1)), requires_grad=True)
                        for r in range(n_layers + 1)]
        self.norms = [LayerNorm(hidden) for _ in range(n_layers + 1)]

    def combine(self, normed_outputs: list, row: int) -> Tensor:
        return weighted_sum(normed_outputs[:row + 1], self.weights[row])


class Downsampler(Module):
    """Two stride-2 kernel-3 convolutions with ReLU: T frames to ceil(T/4),
    80 channels to `hidden`."""

    def __init__(self, hidden: int, rng: RngStream):
        self.w1 = Tensor(xavier_uniform(rng.child("w1"), (3, 80, hidden),
                                        3 * 80, hidden), requires_grad=True)
        self.b1 = Tensor(np.zeros(hidden), requires_grad=True)
        self.w2 = Tensor(xavier_uniform(rng.child("w2"), (3, hidden, hidden),
                                        3 * hidden, hidden), requires_grad=True)
        self.b2 = Tensor(np.zeros(hidden), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        h = conv1d_op(x, self.w1, self.b1, stride=2, padding=1).relu()
        return conv1d_op(h, self.w2, self.b2, stride=2, padding=1).relu()


def downsampled_length(t: int) -> int:
    return -(-(-(-t // 2)) // 2)


class Adaptor(Module):
    """Bridge from acoustic to textual encoding: position-wise linear, LN,
    ReLU; optionally adds the CTC posterior expectation of the embedding
    table, `linear(softmax(ctc_logits), embed_table)` with no bias, so the
    textual stack sees token-like inputs."""

    def __init__(self, hidden: int, rng: RngStream, mix_embeddings: bool):
        self.lin = Linear(hidden, hidden, rng.child("lin"))
        self.norm = LayerNorm(hidden)
        self.mix_embeddings = mix_embeddings

    def __call__(self, x: Tensor, ctc_logits: Tensor,
                 embed_table: Tensor | None) -> Tensor:
        h = self.norm(self.lin(x)).relu()
        if self.mix_embeddings:
            h = h + linear(ctc_logits.softmax(axis=-1), embed_table)
        return h


@dataclass
class EncoderOutput:
    memory: Tensor          # (B, T', hidden) states for cross-attention
    ctc_logits: Tensor      # (B, T', vocab) from the CTC head
    out_lengths: list = field(default_factory=list)


class _EncoderStack(Module):
    """A run of encoder blocks wired by DLCL: each block reads, and the stack
    returns, a learned mix of the normalized outputs before it."""

    def __init__(self, cfg: ModelConfig, n_layers: int, rng: RngStream,
                 conformer: bool, max_rel: int | None):
        make = ConformerBlock if conformer else TransformerEncoderLayer
        self.blocks = [make(cfg, rng.child("block", i), max_rel)
                       for i in range(n_layers)]
        self.dlcl = DlclCombiner(n_layers, cfg.hidden)

    def __call__(self, x: Tensor, drop: Dropout = no_dropout) -> Tensor:
        normed = [self.dlcl.norms[0](x)]
        for i, block in enumerate(self.blocks):
            y = block(self.dlcl.combine(normed, i), drop)
            normed.append(self.dlcl.norms[i + 1](y))
        return self.dlcl.combine(normed, len(self.blocks))


class TransformerDecoderLayer(Module):
    def __init__(self, cfg: ModelConfig, rng: RngStream, max_rel: int | None):
        self.norm1 = LayerNorm(cfg.hidden)
        self.norm2 = LayerNorm(cfg.hidden)
        self.norm3 = LayerNorm(cfg.hidden)
        self.self_attn = MultiHeadAttention(cfg.hidden, cfg.heads,
                                            rng.child("self_attn"), max_rel)
        self.cross_attn = MultiHeadAttention(cfg.hidden, cfg.heads,
                                             rng.child("cross_attn"))
        self.ffn = FeedForward(cfg.hidden, cfg.ffn, rng.child("ffn"))

    def __call__(self, x: Tensor, memory: Tensor, cache: DecoderLayerCache,
                 drop: Dropout = no_dropout) -> Tensor:
        h = self.norm1(x)
        x = x + drop(self.self_attn(h, h, causal=True, drop=drop,
                                    cache=cache.self_attn))
        x = x + drop(self.cross_attn(self.norm2(x), memory, drop=drop,
                                     cache=cache.cross_attn))
        x = x + drop(self.ffn(self.norm3(x), drop))
        return x


class DecoderLayerCache:
    """One decoder layer's share of a `DecoderCache`."""

    def __init__(self):
        self.self_attn = SelfAttentionCache()
        self.cross_attn = MemoryCache()


class DecoderCache:
    """Per model and utterance: what each decoder layer has computed for
    the tokens so far.  Its length is the number of positions decoded."""

    def __init__(self, n_layers: int):
        self.layers = [DecoderLayerCache() for _ in range(n_layers)]

    def __len__(self) -> int:
        return len(self.layers[0].self_attn)

    def reorder(self, parents):
        """Keep, for each new row, the cache of the hypothesis it extends:
        row r becomes old row parents[r]."""
        parents = np.asarray(parents, dtype=np.intp)
        for layer in self.layers:
            layer.self_attn.reorder(parents)


class SpeechTranslator(Module):
    """End-to-end model: features in, translation logits and CTC logits out."""

    def __init__(self, cfg: ModelConfig, rng: RngStream):
        self.cfg = cfg
        enc_rel = cfg.rpe_enc_max if cfg.uses_rpe else None
        dec_rel = cfg.rpe_dec_max if cfg.uses_rpe else None
        self.downsampler = Downsampler(cfg.hidden, rng.child("downsampler"))
        if cfg.variant == "sate":
            self.acoustic = _EncoderStack(cfg, cfg.acoustic_layers,
                                          rng.child("acoustic"),
                                          conformer=True, max_rel=enc_rel)
            self.textual = _EncoderStack(cfg, cfg.enc_layers - cfg.acoustic_layers,
                                         rng.child("textual"),
                                         conformer=False, max_rel=enc_rel)
            self.adaptor = Adaptor(cfg.hidden, rng.child("adaptor"),
                                   cfg.adaptor_mix_embeddings)
            self.encoder = None
        else:
            self.encoder = _EncoderStack(cfg, cfg.enc_layers, rng.child("encoder"),
                                         conformer=cfg.uses_conformer,
                                         max_rel=enc_rel)
        self.ctc_head = Linear(cfg.hidden, cfg.vocab_size, rng.child("ctc_head"))
        self.embed = Embedding(cfg.vocab_size, cfg.hidden, rng.child("embed"))
        self.dec_layers = [TransformerDecoderLayer(cfg, rng.child("dec", i), dec_rel)
                           for i in range(cfg.dec_layers)]
        self.dec_norm = LayerNorm(cfg.hidden)
        self.out_proj = Linear(cfg.hidden, cfg.vocab_size, rng.child("out_proj"))

    def encode(self, features: Tensor,
               rng: RngStream | None = None) -> EncoderOutput:
        """Run the encoder side; features are (B, T, 80).  Dropout draws
        from `rng`; without it the encoder runs in eval mode."""
        if features.ndim != 3 or features.shape[-1] != 80:
            raise ValueError(f"features must be (B, T, 80), got {features.shape}")
        drop = Dropout(self.cfg.dropout, rng)
        x = drop(add_absolute_positions(self.downsampler(features)))
        if self.cfg.variant == "sate":
            acoustic = self.acoustic(x, drop)
            ctc_logits = self.ctc_head(acoustic)
            bridged = self.adaptor(acoustic, ctc_logits, self.embed.table)
            memory = self.textual(bridged, drop)
        else:
            memory = self.encoder(x, drop)
            ctc_logits = self.ctc_head(memory)
        t_out = memory.shape[1]
        return EncoderOutput(memory, ctc_logits, [t_out] * memory.shape[0])

    def new_cache(self) -> DecoderCache:
        return DecoderCache(len(self.dec_layers))

    def _decode(self, enc: EncoderOutput, ids: np.ndarray, cache: DecoderCache,
                drop: Dropout) -> Tensor:
        """The decoder: (B, n) ids that follow the len(cache) positions
        already in `cache` to (B, n, vocab) next-token logits, extending the
        cache by n positions."""
        ids = np.asarray(ids, dtype=np.intp)
        if ids.ndim != 2 or ids.shape[1] < 1:
            raise ValueError(f"prefix must be (B, >=1) token ids, got {ids.shape}")
        start = len(cache)
        if start == 0 and np.any(ids[:, 0] != BOS_ID):
            raise ValueError("decoder prefix must begin with bos")
        x = self.embed(ids) * math.sqrt(self.cfg.hidden)
        x = drop(add_absolute_positions(x, start))
        for layer, layer_cache in zip(self.dec_layers, cache.layers):
            x = layer(x, enc.memory, layer_cache, drop)
        return self.out_proj(self.dec_norm(x))

    def decode_logits(self, enc: EncoderOutput, prefix: np.ndarray,
                      rng: RngStream | None = None) -> Tensor:
        """Teacher-forced decoder pass: (B, Lp) prefix ids to (B, Lp, vocab)
        next-token logits, causal at every position, through a fresh cache.
        Dropout draws from `rng`; without it the decoder runs in eval mode."""
        drop = Dropout(self.cfg.dropout, rng)
        return self._decode(enc, prefix, self.new_cache(), drop)

    def decoder_step(self, enc: EncoderOutput, tokens: np.ndarray,
                     cache: DecoderCache) -> Tensor:
        """Eval-mode incremental decoding: (rows, 1) ids of each hypothesis's
        newest token to (rows, vocab) logits for the token after it.  Only
        the new position is computed; `cache` holds the earlier ones (start
        with `new_cache()` and bos) and grows by one.  Runs under `no_grad`
        once the cache is filled."""
        return self._decode(enc, tokens, cache, no_dropout)[:, -1]

    def forward(self, features: Tensor, prefix: np.ndarray,
                rng: RngStream | None = None):
        """Encoder and teacher-forced decoder; passing `rng` trains (dropout
        on, drawn from that one stream), omitting it evaluates."""
        enc = self.encode(features, rng)
        return self.decode_logits(enc, prefix, rng), enc
