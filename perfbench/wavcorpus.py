"""Long-utterance 16 kHz WAV corpus for the `long` workload.

Each of the 20 symbols `a`-`t` is a fixed random mix of three tones.  An
utterance is a sequence of symbols (no symbol twice in a row, so every CTC
target stays feasible after 4x downsampling), each held for a jittered
duration of 7-13 frames of 10 ms, plus low-level noise.  The translation
substitutes every symbol through a fixed random bijection, as the toy task
does.  Lengths of 40-110 symbols give utterances of about 4-11 s, that is
400-1100 log-mel frames, so no two utterances share a shape and
exact-shape batching falls back to one utterance per batch.

Everything is drawn from named child streams of one `RngStream`, so a seed
always gives the same files, byte for byte.
"""

from __future__ import annotations

import os

import numpy as np

from tinyst import RngStream
from tinyst.audio import write_wav
from tinyst.data import ManifestEntry, write_manifest

SYMBOLS = tuple("abcdefghijklmnopqrst")
SAMPLE_RATE = 16000
SHIFT = SAMPLE_RATE // 100          # samples per 10 ms frame
WINDOW = SAMPLE_RATE * 25 // 1000   # samples per 25 ms analysis window
MIN_SYMBOLS, MAX_SYMBOLS = 40, 110
MIN_HOLD, MAX_HOLD = 7, 13          # frames per symbol


def tone_table(rng: RngStream) -> tuple:
    """Per-symbol (frequencies in Hz, amplitudes), each of shape (20, 3)."""
    freqs = rng.child("freqs").uniform(150.0, 6000.0, size=(len(SYMBOLS), 3))
    amps = rng.child("amps").uniform(0.2, 1.0, size=(len(SYMBOLS), 3))
    return freqs, amps / amps.sum(axis=1, keepdims=True)


def utterance(rng: RngStream, utt_id: str, n: int, tones: tuple,
              mapping: list) -> tuple:
    """(waveform, transcript, translation) for one utterance of n symbols."""
    freqs, amps = tones
    draw = rng.child("seq", utt_id)
    seq = []
    while len(seq) < n:
        sym = int(draw.integers(0, len(SYMBOLS)))
        if not seq or sym != seq[-1]:
            seq.append(sym)
    # Jittered holds whose total depends on n alone: every seed gives an
    # utterance of n symbols the same frame count.
    cycle = np.resize(np.arange(MIN_HOLD, MAX_HOLD + 1), n)
    holds = cycle[draw.permutation(n)] * SHIFT
    pieces = []
    for sym, hold in zip(seq, holds):
        t = np.arange(hold) / SAMPLE_RATE
        pieces.append(amps[sym] @ np.sin(2.0 * np.pi * freqs[sym][:, None] * t))
    wave = np.concatenate(pieces + [np.zeros(WINDOW - SHIFT)])
    wave = 0.5 * wave + rng.child("noise", utt_id).normal(0.0, 0.01, size=wave.size)
    source = [SYMBOLS[s] for s in seq]
    target = [SYMBOLS[mapping[s]] for s in seq]
    return wave, " ".join(source), " ".join(target)


def n_frames(n_samples: int) -> int:
    """Log-mel frame count of a waveform: 25 ms windows every 10 ms."""
    return 1 + (n_samples - WINDOW) // SHIFT


def spread_counts(size: int, offset: float = 0.0) -> list:
    """`size` symbol counts evenly spaced over [MIN_SYMBOLS, MAX_SYMBOLS]:
    the two ends included with offset 0, the midpoints of `size` equal
    slices with offset 0.5."""
    span = MAX_SYMBOLS - MIN_SYMBOLS
    return [MIN_SYMBOLS + round(span * (i + offset) / max(size - 1 + 2 * offset, 1))
            for i in range(size)]


def clustered_counts(clusters: int, per_cluster: int) -> list:
    """`per_cluster` consecutive symbol counts around each of `clusters`
    centres spread evenly over [MIN_SYMBOLS, MAX_SYMBOLS]: lengths that
    differ, so no two utterances share a shape, but cost about the same
    within a cluster."""
    low = per_cluster // 2
    return [c + k - low for c in spread_counts(clusters, offset=0.5)
            for k in range(per_cluster)]


def generate(rng: RngStream, out_dir, splits: dict) -> dict:
    """Write one WAV utterance per entry of `splits[split]`, a list of
    symbol counts, plus one manifest per split.

    Returns {split: manifest_path}.  Manifest `features` columns name the WAV
    files, the input `prepare` expects; `n_frames` is the log-mel count.
    """
    tones = tone_table(rng)
    mapping = [int(i) for i in rng.child("mapping").permutation(len(SYMBOLS))]
    os.makedirs(os.path.join(out_dir, "wav"), exist_ok=True)
    paths = {}
    for split, counts in splits.items():
        entries = []
        for i, n in enumerate(counts):
            utt_id = f"{split}-{i:05d}"
            wave, transcript, translation = utterance(rng, utt_id, n, tones,
                                                      mapping)
            rel = os.path.join("wav", f"{utt_id}.wav")
            write_wav(os.path.join(out_dir, rel), wave, SAMPLE_RATE)
            entries.append(ManifestEntry(utt_id, rel, n_frames(wave.size),
                                         transcript, translation))
        paths[split] = os.path.join(out_dir, f"{split}.tsv")
        write_manifest(paths[split], entries)
    return paths
