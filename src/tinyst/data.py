"""Dataset manifests, sample loading, and exact-shape batching.

A manifest is a UTF-8 TSV with the header
``id	features	n_frames	transcript	translation``; feature paths resolve
relative to the manifest's directory.

Batches are exact-shape: samples are grouped by identical
(frames, target length) pairs, so features, decoder prefixes and targets are
dense arrays with no padding and no masks.  Transcripts may differ in length
within a batch: the CTC loss takes ragged targets.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .audio import cmvn as apply_cmvn
from .audio import filter_utterances, load_features
from .losses import ctc_feasible
from .model import downsampled_length
from .rng import RngStream
from .text import BOS_ID, EOS_ID, SubwordModel, encode, normalize_for_ctc

MANIFEST_COLUMNS = ("id", "features", "n_frames", "transcript", "translation")


@dataclass
class ManifestEntry:
    utt_id: str
    features: str
    n_frames: int
    transcript: str
    translation: str


def read_manifest(path) -> list:
    """The manifest's rows in file order; blank lines are skipped and an
    utterance id may appear on one row only."""
    entries = []
    line_of = {}
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if tuple(header) != MANIFEST_COLUMNS:
            raise ValueError(f"{path}: manifest header must be "
                             f"{list(MANIFEST_COLUMNS)}, got {header}")
        for n, line in enumerate(fh, 2):
            line = line.rstrip("\n")
            if not line:
                continue
            cols = line.split("\t")
            if len(cols) != 5:
                raise ValueError(f"{path}:{n}: expected 5 tab-separated columns, "
                                 f"got {len(cols)}")
            try:
                frames = int(cols[2])
            except ValueError:
                raise ValueError(f"{path}:{n}: n_frames must be an integer, "
                                 f"got {cols[2]!r}") from None
            if cols[0] in line_of:
                raise ValueError(f"{path}:{n}: utterance id {cols[0]!r} "
                                 f"repeats line {line_of[cols[0]]}")
            line_of[cols[0]] = n
            entries.append(ManifestEntry(cols[0], cols[1], frames, cols[3], cols[4]))
    return entries


def write_manifest(path, entries: list):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(MANIFEST_COLUMNS) + "\n")
        for e in entries:
            fh.write(f"{e.utt_id}\t{e.features}\t{e.n_frames}\t"
                     f"{e.transcript}\t{e.translation}\n")


@dataclass
class Sample:
    utt_id: str
    features: np.ndarray   # (T, 80)
    src_ids: list          # CTC target: subwords of the normalized transcript
    tgt_ids: list          # translation subwords, no bos/eos


def load_dataset(manifest_path, subwords: SubwordModel,
                 apply_length_filter: bool = True) -> list:
    """Materialize a manifest into samples ready for batching.

    Feature matrices are loaded from the cache files and mean/variance
    normalized per utterance, and texts are encoded with the shared subword
    model (transcripts normalized for CTC first).
    """
    entries = read_manifest(manifest_path)
    if apply_length_filter:
        entries = filter_utterances(entries)
    base = os.path.dirname(os.path.abspath(manifest_path))
    samples = []
    for e in entries:
        path = e.features if os.path.isabs(e.features) else os.path.join(base, e.features)
        feats = load_features(path)
        if feats.shape[0] != e.n_frames:
            raise ValueError(f"{e.utt_id}: manifest says {e.n_frames} frames but "
                             f"{path} holds {feats.shape[0]}")
        samples.append(Sample(e.utt_id, apply_cmvn(feats),
                              encode(subwords, normalize_for_ctc(e.transcript)),
                              encode(subwords, e.translation)))
    return samples


@dataclass
class Batch:
    utt_ids: list
    features: np.ndarray    # (B, T, 80)
    src_targets: list       # B CTC label sequences, of any lengths
    prefix: np.ndarray      # (B, L+1) = bos + translation ids
    targets: np.ndarray     # (B, L+1) = translation ids + eos

    def __len__(self):
        return self.features.shape[0]


def drop_ctc_infeasible(samples: list) -> tuple:
    """Split samples into (usable, dropped): a sample is usable when its
    downsampled frame count can still emit its CTC target."""
    usable, dropped = [], []
    for s in samples:
        t_out = downsampled_length(s.features.shape[0])
        (usable if ctc_feasible(t_out, s.src_ids) else dropped).append(s)
    return usable, dropped


def make_batches(samples: list, frame_budget: int,
                 rng: RngStream | None = None) -> list:
    """Group samples of identical (frames, target length), split groups by
    the frame budget, and (optionally) shuffle batch order.

    Within a shape group, at least one sample per batch is always taken even
    if a single utterance exceeds the budget.
    """
    if frame_budget < 1:
        raise ValueError(f"frame_budget must be >= 1, got {frame_budget}")
    groups = {}
    for s in samples:
        key = (s.features.shape[0], len(s.tgt_ids))
        groups.setdefault(key, []).append(s)
    batches = []
    for key in sorted(groups):
        members = sorted(groups[key], key=lambda s: s.utt_id)
        per_batch = max(1, frame_budget // key[0])
        for lo in range(0, len(members), per_batch):
            batches.append(_assemble(members[lo:lo + per_batch]))
    if rng is not None:
        batches = rng.shuffled(batches)
    return batches


def _assemble(chunk: list) -> Batch:
    feats = np.stack([s.features for s in chunk])
    tgt = np.array([s.tgt_ids for s in chunk], dtype=np.intp)
    b, tlen = tgt.shape[0], tgt.shape[1]
    prefix = np.concatenate([np.full((b, 1), BOS_ID, dtype=np.intp), tgt], axis=1)
    targets = np.concatenate([tgt, np.full((b, 1), EOS_ID, dtype=np.intp)], axis=1)
    return Batch([s.utt_id for s in chunk], feats, [s.src_ids for s in chunk],
                 prefix, targets)
