"""Deterministic random streams.

A stream is fully determined by its integer seed, so a given seed produces
the same draw sequence on every run and platform.  Independent sub-streams
(per utterance, per epoch, per step) are derived by hashing the parent seed
together with string/int tags instead of sharing one mutable global state.
"""

from __future__ import annotations

import hashlib

import numpy as np


class RngStream:
    """Seeded wrapper around numpy's PCG64 generator."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def child(self, *tags) -> "RngStream":
        """Derive an independent stream keyed by (seed, *tags).

        The derivation hashes the textual form of the key, so it is stable
        across runs, platforms, and Python's per-process hash salt.
        """
        key = ":".join([str(self.seed)] + [str(t) for t in tags])
        digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
        return RngStream(int.from_bytes(digest, "little"))

    def uniform(self, low=0.0, high=1.0, size=None):
        return self._gen.uniform(low, high, size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return self._gen.normal(loc, scale, size)

    def integers(self, low, high, size=None):
        """Uniform integers in the half-open range [low, high)."""
        return self._gen.integers(low, high, size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def shuffled(self, seq):
        """Return a new list with the elements of `seq` in shuffled order."""
        items = list(seq)
        return [items[i] for i in self.permutation(len(items))]

    def __repr__(self):
        return f"RngStream(seed={self.seed})"
