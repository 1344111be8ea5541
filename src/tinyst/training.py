"""Optimization and checkpointing: Adam, inverse-sqrt schedule, the epoch
loop, and final-N parameter averaging.

Checkpoints store parameters as 32-bit floats in a little-endian binary
container (magic "STCK") with a trailing key=value metadata block carrying
the step, epoch, and the full model configuration plus its digest, so a
checkpoint alone is enough to rebuild the model for decoding.  Metadata
loads back as the text that was written; each `config.*` value is
converted by its ModelConfig field's type.

Training is deterministic for a fixed seed: batch order, dropout, and
SpecAugment all draw from named child streams of one root RngStream, and all
reductions run in a fixed order.
"""

from __future__ import annotations

import hashlib
import math
import os
import re
import struct
from dataclasses import dataclass, fields
from typing import get_type_hints

import numpy as np

from .audio import N_MELS, spec_augment
from .config import format_value, parse_settings
from .data import drop_ctc_infeasible, make_batches
from .losses import ctc_loss_batch, label_smoothed_ce, multitask_loss
from .model import ModelConfig, SpeechTranslator
from .rng import RngStream
from .tensor import Tensor

CHECKPOINT_MAGIC = b"STCK"
CHECKPOINT_VERSION = 1


def inverse_sqrt_lr(step: int, cfg: TrainConfig) -> float:
    """Linear warmup to base_lr, then decay by sqrt(warmup/step)."""
    if step < 1:
        raise ValueError(f"step must be >= 1, got {step}")
    if step <= cfg.warmup_steps:
        return cfg.base_lr * step / cfg.warmup_steps
    return cfg.base_lr * math.sqrt(cfg.warmup_steps / step)


class Adam:
    """Bias-corrected Adam over named parameters.

    Aborts with the parameter's name when a gradient goes non-finite, which
    is the only runtime signal worth more than the update itself.  It checks
    every gradient before it updates anything, so a refused step changes no
    parameter, moment or step count.
    """

    BETA1, BETA2, EPS = 0.9, 0.98, 1e-9

    def __init__(self, named_params):
        self.named_params = list(named_params)
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for _, p in self.named_params]
        self.v = [np.zeros_like(p.data) for _, p in self.named_params]

    def step(self, lr: float):
        for name, p in self.named_params:
            if p.grad is not None and not np.all(np.isfinite(p.grad)):
                raise FloatingPointError(f"non-finite gradient in {name}")
        self.step_count += 1
        b1, b2 = self.BETA1, self.BETA2
        correct1 = 1.0 - b1 ** self.step_count
        correct2 = 1.0 - b2 ** self.step_count
        for i, (_, p) in enumerate(self.named_params):
            g = p.grad
            if g is None:
                continue
            self.m[i] = b1 * self.m[i] + (1.0 - b1) * g
            self.v[i] = b2 * self.v[i] + (1.0 - b2) * g * g
            m_hat = self.m[i] / correct1
            v_hat = self.v[i] / correct2
            p.data -= lr * m_hat / (np.sqrt(v_hat) + self.EPS)


def clip_gradients(named_params, max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm,
    rebinding each `.grad` (gradients may share memory).  Returns the
    pre-clip norm."""
    total = 0.0
    for _, p in named_params:
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    norm = math.sqrt(total)
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for _, p in named_params:
            if p.grad is not None:
                p.grad = p.grad * scale
    return norm


# -- checkpoint container -----------------------------------------------------


def save_checkpoint(path, named_arrays, metadata: dict):
    """Write name->array entries (stored float32) plus key=value metadata."""
    items = list(named_arrays)
    blob = [struct.pack("<4sII", CHECKPOINT_MAGIC, CHECKPOINT_VERSION, len(items))]
    for name, arr in items:
        arr = np.asarray(arr, dtype="<f4")  # 0-d stays 0-d; tobytes() is C order
        encoded = name.encode("utf-8")
        blob.append(struct.pack("<H", len(encoded)))
        blob.append(encoded)
        blob.append(struct.pack("<B", arr.ndim))
        blob.append(struct.pack(f"<{arr.ndim}I", *arr.shape) if arr.ndim else b"")
        blob.append(arr.tobytes())
    meta_text = "".join(f"{k} = {format_value(v)}\n" for k, v in metadata.items())
    meta_bytes = meta_text.encode("utf-8")
    blob.append(struct.pack("<I", len(meta_bytes)))
    blob.append(meta_bytes)
    with open(path, "wb") as fh:
        fh.write(b"".join(blob))


def load_checkpoint(path):
    """Read a checkpoint; returns (entries: name -> float32 array, metadata:
    key -> text as written).

    A file cut short anywhere, with bytes after its metadata block, or
    with an entry name or metadata that is not UTF-8, is rejected with its
    path."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 12 or data[:4] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint file")
    version, count = struct.unpack_from("<II", data, 4)
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    view = memoryview(data)
    offset = 12

    def take(n_bytes: int) -> memoryview:
        nonlocal offset
        if offset + n_bytes > len(data):
            raise ValueError(f"{path}: truncated checkpoint")
        offset += n_bytes
        return view[offset - n_bytes:offset]

    def take_text(n_bytes: int, what: str) -> str:
        try:
            return bytes(take(n_bytes)).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {what} is not UTF-8 ({exc.reason})") from None

    entries = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        name = take_text(name_len, "entry name")
        (rank,) = struct.unpack("<B", take(1))
        shape = struct.unpack(f"<{rank}I", take(4 * rank))
        arr = np.frombuffer(take(4 * math.prod(shape)), dtype="<f4")
        if name in entries:
            raise ValueError(f"{path}: duplicate entry {name!r}")
        entries[name] = arr.reshape(shape).copy()
    (meta_len,) = struct.unpack("<I", take(4))
    meta_text = take_text(meta_len, "metadata")
    if offset != len(data):
        raise ValueError(f"{path}: {len(data) - offset} bytes after the metadata")
    metadata = {}
    for line in meta_text.splitlines():
        if line.strip():
            key, _, raw = line.partition("=")
            metadata[key.strip()] = raw.strip()
    return entries, metadata


def config_digest(cfg: ModelConfig) -> str:
    text = ",".join(f"{f.name}={getattr(cfg, f.name)}" for f in fields(cfg))
    return hashlib.blake2b(text.encode(), digest_size=8).hexdigest()


def config_metadata(cfg: ModelConfig) -> dict:
    """The `config.*` entries and digest as a checkpoint stores them: text."""
    meta = {f"config.{f.name}": format_value(getattr(cfg, f.name))
            for f in fields(cfg)}
    meta["config_digest"] = config_digest(cfg)
    return meta


def config_from_metadata(metadata: dict) -> ModelConfig:
    """Rebuild the model configuration from `config.*` text, each value
    converted by its field's type; a key that names no ModelConfig field
    (for example one of a removed option) is rejected."""
    cfg = ModelConfig(**parse_settings(metadata, get_type_hints(ModelConfig),
                                       "checkpoint", prefix="config.",
                                       kind="model config"))
    stored = metadata.get("config_digest")
    if stored is not None and stored != config_digest(cfg):
        raise ValueError("checkpoint metadata fails its own config digest")
    return cfg


def save_model(path, model: SpeechTranslator, step: int, epoch: int):
    meta = {"step": step, "epoch": epoch}
    meta.update(config_metadata(model.cfg))
    save_checkpoint(path, [(n, p.data) for n, p in model.named_parameters()], meta)


def load_model(path) -> tuple:
    """Rebuild a model from one checkpoint; returns (model, metadata)."""
    entries, metadata = load_checkpoint(path)
    cfg = config_from_metadata(metadata)
    model = SpeechTranslator(cfg, RngStream(0))
    apply_entries(model, entries)
    return model, metadata


def apply_entries(model: SpeechTranslator, entries: dict):
    params = dict(model.named_parameters())
    missing = sorted(set(params) - set(entries))
    extra = sorted(set(entries) - set(params))
    if missing or extra:
        raise ValueError(f"checkpoint does not match model: missing {missing[:3]}, "
                         f"unexpected {extra[:3]}")
    for name, p in params.items():
        arr = entries[name]
        if arr.shape != p.data.shape:
            raise ValueError(f"shape mismatch for {name}: checkpoint {arr.shape} "
                             f"vs model {p.data.shape}")
        p.data[...] = arr.astype(np.float64)


def average_checkpoints(paths: list):
    """Elementwise mean of parameter entries across checkpoints.

    Accumulation runs in sorted-path order in float64, so the result is
    invariant to the order of `paths`.  Metadata comes from the source with
    the highest epoch, so fine-tuning from the average numbers its epochs
    after every source; it also records the source list.
    """
    if not paths:
        raise ValueError("no checkpoints to average")
    ordered = sorted(str(p) for p in paths)
    total = {}
    shapes = {}
    base_meta = newest = None
    for path in ordered:
        entries, meta = load_checkpoint(path)
        if newest is None or int(meta.get("epoch", 0)) > int(newest.get("epoch", 0)):
            newest = meta
        if base_meta is None:
            base_meta = meta
            shapes = {n: a.shape for n, a in entries.items()}
            total = {n: np.zeros(a.shape, dtype=np.float64) for n, a in entries.items()}
        else:
            mismatched = [n for n in entries
                          if n not in shapes or entries[n].shape != shapes[n]]
            missing = sorted(set(shapes) - set(entries))
            if mismatched or missing:
                raise ValueError(f"{path}: incompatible with first checkpoint "
                                 f"(mismatched {sorted(mismatched)[:3]}, "
                                 f"missing {missing[:3]})")
            if meta.get("config_digest") != base_meta.get("config_digest"):
                raise ValueError(f"{path}: model config differs from {ordered[0]}")
        for n, a in entries.items():
            total[n] += a.astype(np.float64)
    averaged = {n: (t / len(ordered)).astype(np.float32) for n, t in total.items()}
    meta = dict(newest)
    meta["averaged_from"] = ";".join(os.path.basename(p) for p in ordered)
    meta["averaged_count"] = len(ordered)
    return averaged, meta


_EPOCH_NAME = re.compile(r"epoch(\d+)\.ckpt")


def check_run_dir(directory, start_epoch: int):
    """Refuse a run directory that already holds an epoch checkpoint
    numbered after `start_epoch`: the new run would write beside it, and
    averaging would mix the two runs' epochs."""
    if not os.path.isdir(directory):
        return
    stale = {}
    for name in os.listdir(directory):
        m = _EPOCH_NAME.fullmatch(name)
        if m and int(m[1]) > start_epoch:
            stale[int(m[1])] = name
    if stale:
        raise ValueError(f"{directory} already holds {stale[min(stale)]}, after "
                         f"start epoch {start_epoch}; train into a new directory")


def final_checkpoints(directory, window: int = 10) -> list:
    """The last `window` (>= 1) per-epoch checkpoints in a run directory, by
    epoch."""
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    by_epoch = sorted((int(m[1]), m[0]) for m in map(_EPOCH_NAME.fullmatch,
                                                     os.listdir(directory)) if m)
    return [os.path.join(directory, n) for _, n in by_epoch[-window:]]


# -- the epoch loop -----------------------------------------------------------


@dataclass
class TrainConfig:
    """Every training setting; SpecAugment is off when both mask counts are 0."""

    epochs: int = 10
    frame_budget: int = 4000
    seed: int = 1
    base_lr: float = 2e-3
    warmup_steps: int = 400
    clip_norm: float = 0.0
    alpha: float = 0.3
    epsilon_ls: float = 0.1
    sa_freq_masks: int = 2
    sa_freq_width: int = 8
    sa_time_masks: int = 2
    sa_time_fraction: float = 0.05

    def __post_init__(self):
        for name, low in (("epochs", 1), ("frame_budget", 1), ("seed", 0),
                          ("warmup_steps", 1), ("sa_freq_masks", 0),
                          ("sa_time_masks", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.base_lr <= 0:
            raise ValueError(f"base_lr must be positive, got {self.base_lr}")
        if self.clip_norm < 0:
            raise ValueError(f"clip_norm must be >= 0, got {self.clip_norm}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if not 0.0 <= self.epsilon_ls < 1.0:
            raise ValueError(f"epsilon_ls must be in [0, 1), got {self.epsilon_ls}")
        if not 0 <= self.sa_freq_width <= N_MELS:
            raise ValueError(f"sa_freq_width must be in [0, {N_MELS}], "
                             f"got {self.sa_freq_width}")
        if not 0.0 <= self.sa_time_fraction <= 1.0:
            raise ValueError(f"sa_time_fraction must be in [0, 1], "
                             f"got {self.sa_time_fraction}")


def format_metric_line(step: int, lr: float, ce: float, ctc: float,
                       total: float) -> str:
    return (f"step={step} lr={lr!r} ce={ce!r} ctc={ctc!r} total={total!r}")


def _train_step(model: SpeechTranslator, opt: Adam, feats: np.ndarray, batch,
                drop_rng: RngStream, lr: float, cfg: TrainConfig) -> tuple:
    """One optimizer step on one batch; returns (ce, ctc, total) as floats.

    Backward releases the step's autodiff graph as it runs, and what is
    left of it is referenced only from this frame, so nothing of it stays
    alive through the next forward.
    """
    logits, enc = model.forward(Tensor(feats), batch.prefix, rng=drop_rng)
    b, l_out = batch.targets.shape
    ce = label_smoothed_ce(logits.reshape(b * l_out, model.cfg.vocab_size),
                           batch.targets.reshape(-1), cfg.epsilon_ls)
    ctc = ctc_loss_batch(enc.ctc_logits.log_softmax(axis=-1),
                         batch.src_targets).mean()
    total = multitask_loss(ce, ctc, cfg.alpha)
    model.zero_grad()
    total.backward()
    if cfg.clip_norm > 0:
        clip_gradients(opt.named_params, cfg.clip_norm)
    opt.step(lr)
    return float(ce.data), float(ctc.data), float(total.data)


def train(model: SpeechTranslator, samples: list, cfg: TrainConfig,
          out_dir=None, log=None, max_steps: int | None = None,
          start_epoch: int = 0) -> list:
    """Run the training loop; returns the metric lines it logged.

    Per epoch: seeded shuffle into exact-shape batches, forward, multitask
    loss, backward, Adam step; one checkpoint per epoch when `out_dir` is
    given.  CTC-infeasible samples are dropped once up front with a count.
    `log` is called with each metric line (use print or file.write).
    `max_steps`, when given, is at least 1, and `out_dir` may hold no epoch
    checkpoint numbered after `start_epoch` (see check_run_dir).
    """
    if max_steps is not None and max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    if out_dir is not None:
        check_run_dir(out_dir, start_epoch)
    usable, dropped = drop_ctc_infeasible(samples)
    if not usable:
        raise ValueError("no trainable samples after CTC feasibility filtering")
    lines = []

    def emit(text):
        lines.append(text)
        if log is not None:
            log(text)

    if dropped:
        emit(f"dropped={len(dropped)} ctc-infeasible samples")
    root = RngStream(cfg.seed)
    opt = Adam(model.named_parameters())
    step = 0
    for epoch in range(start_epoch + 1, start_epoch + cfg.epochs + 1):
        batches = make_batches(usable, cfg.frame_budget,
                               root.child("batches", epoch))
        for batch in batches:
            step += 1
            lr = inverse_sqrt_lr(step, cfg)
            feats = batch.features
            if cfg.sa_freq_masks + cfg.sa_time_masks > 0:
                feats = np.stack([
                    spec_augment(feats[i], cfg,
                                 root.child("specaug", epoch, utt_id))
                    for i, utt_id in enumerate(batch.utt_ids)])
            losses = _train_step(model, opt, feats, batch,
                                 root.child("dropout", step), lr, cfg)
            emit(format_metric_line(step, lr, *losses))
            if max_steps is not None and step >= max_steps:
                break
        if out_dir is not None:
            save_model(os.path.join(out_dir, f"epoch{epoch:04d}.ckpt"),
                       model, step, epoch)
        if max_steps is not None and step >= max_steps:
            break
    return lines
