"""Acoustic frontend: waveform to 80-channel log-mel features.

A feature matrix is a plain (frames, 80) float64 array.  Natural log of mel
power, floored at the configured constant, so an all-silence input is a
constant matrix rather than -inf.  Masking and normalization helpers operate
on these arrays; binary caching uses a small self-describing format so
prepared features survive interpreter and platform changes.
"""

from __future__ import annotations

import struct
import wave
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .rng import RngStream

if TYPE_CHECKING:
    from .training import TrainConfig

N_MELS = 80

FEATURE_MAGIC = b"STFB"
FEATURE_VERSION = 1


@dataclass
class FrontendConfig:
    """Windowing and filterbank parameters.

    The channel count is fixed at 80.  mel_high defaults to the Nyquist
    frequency when left as None.
    """

    sample_rate: int = 16000
    frame_length_ms: float = 25.0
    frame_shift_ms: float = 10.0
    fft_size: int = 512
    mel_low: float = 20.0
    mel_high: float | None = None
    log_floor: float = 1e-10

    def __post_init__(self):
        if self.fft_size < 1 or self.fft_size & (self.fft_size - 1):
            raise ValueError(f"fft_size must be a power of two, got {self.fft_size}")
        if self.fft_size < self.window_samples:
            raise ValueError(
                f"fft_size {self.fft_size} is below the window of {self.window_samples} samples")
        high = self.sample_rate / 2 if self.mel_high is None else self.mel_high
        if not 0 <= self.mel_low < high <= self.sample_rate / 2:
            raise ValueError(f"mel band [{self.mel_low}, {high}] invalid for "
                             f"sample rate {self.sample_rate}")
        if self.log_floor <= 0:
            raise ValueError("log_floor must be positive")

    @property
    def window_samples(self) -> int:
        return int(round(self.sample_rate * self.frame_length_ms / 1000.0))

    @property
    def shift_samples(self) -> int:
        return int(round(self.sample_rate * self.frame_shift_ms / 1000.0))


def hz_to_mel(hz):
    return 2595.0 * np.log10(1.0 + np.asarray(hz, dtype=np.float64) / 700.0)


def mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(cfg: FrontendConfig) -> np.ndarray:
    """Triangular mel filters as an (n_bins, 80) matrix of weights."""
    high = cfg.sample_rate / 2 if cfg.mel_high is None else cfg.mel_high
    points_mel = np.linspace(hz_to_mel(cfg.mel_low), hz_to_mel(high), N_MELS + 2)
    points_hz = mel_to_hz(points_mel)
    n_bins = cfg.fft_size // 2 + 1
    bin_hz = np.arange(n_bins) * cfg.sample_rate / cfg.fft_size
    fb = np.zeros((n_bins, N_MELS))
    for j in range(N_MELS):
        lo, center, hi = points_hz[j], points_hz[j + 1], points_hz[j + 2]
        up = (bin_hz - lo) / (center - lo)
        down = (hi - bin_hz) / (hi - center)
        fb[:, j] = np.clip(np.minimum(up, down), 0.0, None)
    return fb


def logmel(waveform, cfg: FrontendConfig) -> np.ndarray:
    """Short-time log-mel analysis of a 1-D waveform.

    Frames the signal with a periodic Hann window (no padding, trailing
    partial frame dropped), takes the power spectrum, projects through the
    triangular filterbank, and returns natural-log energies floored at
    cfg.log_floor.

    Args:
        waveform: 1-D sample sequence.
        cfg: analysis parameters.

    Returns:
        (frames, 80) float64 array, frames = 1 + (len - window) // shift.
    """
    x = np.asarray(waveform, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"waveform must be 1-D, got shape {x.shape}")
    win, shift = cfg.window_samples, cfg.shift_samples
    if x.size < win:
        raise ValueError(f"waveform of {x.size} samples is shorter than one "
                         f"{win}-sample frame")
    n_frames = 1 + (x.size - win) // shift
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(win) / win)
    frames = np.lib.stride_tricks.sliding_window_view(x, win)[::shift][:n_frames]
    spectrum = np.fft.rfft(frames * window, n=cfg.fft_size, axis=-1)
    power = spectrum.real ** 2 + spectrum.imag ** 2
    mel = power @ mel_filterbank(cfg)
    return np.log(np.maximum(mel, cfg.log_floor))


def cmvn(features: np.ndarray) -> np.ndarray:
    """Per-utterance, per-channel mean and variance normalization; a
    channel's deviation is floored at 1e-8, so a constant one stays finite."""
    mu = features.mean(axis=0, keepdims=True)
    sd = features.std(axis=0, keepdims=True)
    return (features - mu) / np.maximum(sd, 1e-8)


def spec_augment(features: np.ndarray, cfg: TrainConfig, rng: RngStream) -> np.ndarray:
    """Apply frequency and time masking to a copy of `features`.

    cfg.sa_freq_masks frequency masks each zero a contiguous band of u
    channels, u drawn uniformly from {0..cfg.sa_freq_width}; cfg.sa_time_masks
    time masks likewise span u frames with u up to cfg.sa_time_fraction *
    frames.  Mask placement is uniform over positions that keep the band in
    bounds.  Returns the masked copy.
    """
    out = np.array(features, dtype=np.float64, copy=True)
    n_frames, n_chan = out.shape
    for _ in range(cfg.sa_freq_masks):
        width = int(rng.integers(0, cfg.sa_freq_width + 1))
        start = int(rng.integers(0, n_chan - width + 1))
        if width:
            out[:, start:start + width] = 0.0
    max_t = int(cfg.sa_time_fraction * n_frames)
    for _ in range(cfg.sa_time_masks):
        width = int(rng.integers(0, max_t + 1))
        start = int(rng.integers(0, n_frames - width + 1))
        if width:
            out[start:start + width, :] = 0.0
    return out


def filter_utterances(entries: list) -> list:
    """Keep entries whose frame count lies in [5, 3000], preserving order."""
    kept = []
    for e in entries:
        frames = getattr(e, "n_frames", None)
        if frames is None:
            raise ValueError(f"manifest entry without a frame count: {e!r}")
        if 5 <= frames <= 3000:
            kept.append(e)
    return kept


def save_features(path, features: np.ndarray):
    """Write a (frames, 80) feature matrix to the binary cache format
    (float32 payload); any other shape is refused before the file opens."""
    arr = np.ascontiguousarray(features, dtype=np.float32)
    if arr.ndim != 2 or arr.shape[1] != N_MELS:
        raise ValueError(f"{path}: features must be (frames, {N_MELS}), "
                         f"got shape {arr.shape}")
    header = struct.pack("<4sIII", FEATURE_MAGIC, FEATURE_VERSION,
                         arr.shape[0], arr.shape[1])
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(arr.astype("<f4").tobytes())


def load_features(path) -> np.ndarray:
    """Read a cached (frames, 80) feature matrix back as float64.  A file
    with another channel count, or with bytes after its payload, is
    rejected with its path."""
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) != 16:
            raise ValueError(f"{path}: truncated feature file")
        magic, version, frames, channels = struct.unpack("<4sIII", header)
        if magic != FEATURE_MAGIC:
            raise ValueError(f"{path}: not a feature cache file (magic {magic!r})")
        if version != FEATURE_VERSION:
            raise ValueError(f"{path}: unsupported feature version {version}")
        if channels != N_MELS:
            raise ValueError(f"{path}: {channels} feature channels, expected {N_MELS}")
        payload = fh.read(4 * frames * channels)
        trailing = len(fh.read())
    if len(payload) != 4 * frames * channels:
        raise ValueError(f"{path}: truncated feature payload")
    if trailing:
        raise ValueError(f"{path}: {trailing} bytes after the feature payload")
    arr = np.frombuffer(payload, dtype="<f4").reshape(frames, channels)
    return arr.astype(np.float64)


def read_wav(path):
    """Read a mono 16-bit PCM WAV file.

    A file cut short, in its header or its samples, is rejected with its path.

    Returns:
        (samples, sample_rate) with samples as float64 in [-1, 1).
    """
    try:
        wf = wave.open(str(path), "rb")
    except (wave.Error, EOFError) as exc:
        raise ValueError(f"{path}: not a readable WAV file "
                         f"({str(exc) or 'header cut short'})") from None
    with wf:
        if wf.getnchannels() != 1:
            raise ValueError(f"{path}: expected mono audio, got "
                             f"{wf.getnchannels()} channels")
        if wf.getsampwidth() != 2:
            raise ValueError(f"{path}: expected 16-bit samples, got "
                             f"{8 * wf.getsampwidth()}-bit")
        n_frames = wf.getnframes()
        raw = wf.readframes(n_frames)
        rate = wf.getframerate()
    if len(raw) != 2 * n_frames:
        raise ValueError(f"{path}: truncated WAV, {len(raw)} of the "
                         f"{2 * n_frames} sample bytes its header declares")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    return samples, rate


def write_wav(path, samples, sample_rate: int):
    """Write float samples in [-1, 1] as a mono 16-bit PCM WAV file."""
    clipped = np.clip(np.asarray(samples, dtype=np.float64), -1.0, 1.0 - 1.0 / 32768)
    pcm = np.round(clipped * 32768.0).astype("<i2")
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(sample_rate)
        wf.writeframes(pcm.tobytes())
