"""Shared subword vocabulary: byte-pair merges, encoding, CTC text normalization.

One vocabulary serves source transcripts, target translations, and the CTC
head.  Ids 0-4 are reserved in every vocabulary: pad, unk, bos, eos, blank.
Word boundaries are carried by a ``</w>`` marker fused onto word-final
symbols, so decoding is plain concatenation plus marker-to-space rewriting.
"""

from __future__ import annotations

import os
import unicodedata
from dataclasses import dataclass

PAD_ID, UNK_ID, BOS_ID, EOS_ID, BLANK_ID = 0, 1, 2, 3, 4
SPECIALS = ("<pad>", "<unk>", "<bos>", "<eos>", "<blank>")
WORD_END = "</w>"


class Vocabulary:
    """Bijection between token strings and contiguous integer ids.

    `tokens` must already include the five specials at positions 0-4; the
    constructor verifies this rather than inserting them, so a vocabulary
    file read back from disk is validated against the same rule.
    """

    def __init__(self, tokens: list):
        if len(tokens) < 6:
            raise ValueError(f"vocabulary needs at least 6 entries, got {len(tokens)}")
        if tuple(tokens[:5]) != SPECIALS:
            raise ValueError(f"vocabulary must start with {SPECIALS}, got {tokens[:5]}")
        self.token_of = list(tokens)
        self.id_of = {t: i for i, t in enumerate(tokens)}
        if len(self.id_of) != len(tokens):
            dupes = sorted({t for t in tokens if tokens.count(t) > 1})
            raise ValueError(f"duplicate vocabulary entries: {dupes[:5]}")

    def __len__(self):
        return len(self.token_of)

    def id(self, token: str) -> int:
        return self.id_of.get(token, UNK_ID)

    def token(self, idx: int) -> str:
        return self.token_of[idx]


@dataclass
class SubwordModel:
    """An ordered merge list plus the vocabulary it produces."""

    merges: list
    vocab: Vocabulary


def normalize_for_ctc(text: str) -> str:
    """Lower-case, strip Unicode punctuation, collapse whitespace runs."""
    lowered = text.lower()
    kept = "".join(ch for ch in lowered if unicodedata.category(ch)[0] != "P")
    return " ".join(kept.split())


def _word_symbols(word: str) -> tuple:
    syms = list(word)
    syms[-1] += WORD_END
    return tuple(syms)


def train_subwords(corpus: list, vocab_size: int) -> SubwordModel:
    """Learn byte-pair merges from whitespace-split words.

    Repeatedly merges the most frequent adjacent symbol pair (ties broken by
    lexicographic pair order) until the vocabulary reaches `vocab_size` or no
    pair occurs twice.  The base inventory contains both plain and word-final
    variants of every observed character, so any word over seen characters
    encodes without falling back to unk.

    Args:
        corpus: sentences; tokenized by whitespace.
        vocab_size: total vocabulary budget including the 5 specials.

    Returns:
        SubwordModel with merges in application order.
    """
    if not corpus:
        raise ValueError("cannot train subwords on an empty corpus")
    word_freq = {}
    chars = set()
    for line in corpus:
        for word in line.split():
            word_freq[_word_symbols(word)] = word_freq.get(_word_symbols(word), 0) + 1
            chars.update(word)
    if not word_freq:
        raise ValueError("cannot train subwords on an empty corpus")
    base = sorted(chars) + sorted(c + WORD_END for c in chars)
    if vocab_size < len(base) + len(SPECIALS):
        raise ValueError(f"vocab_size {vocab_size} is below the character inventory "
                         f"of {len(base)} plus {len(SPECIALS)} specials")
    merges = []
    merged_tokens = []
    words = dict(word_freq)
    while len(SPECIALS) + len(base) + len(merged_tokens) < vocab_size:
        pairs = {}
        for syms, freq in words.items():
            for a, b in zip(syms, syms[1:]):
                pairs[(a, b)] = pairs.get((a, b), 0) + freq
        if not pairs:
            break
        best = min(pairs.items(), key=lambda kv: (-kv[1], kv[0]))
        if best[1] < 2:
            break
        pair = best[0]
        merges.append(pair)
        merged_tokens.append(pair[0] + pair[1])
        words = {_apply_merge(syms, pair): freq for syms, freq in words.items()}
    return SubwordModel(merges, Vocabulary(list(SPECIALS) + base + merged_tokens))


def _apply_merge(syms: tuple, pair: tuple) -> tuple:
    out = []
    i = 0
    while i < len(syms):
        if i + 1 < len(syms) and syms[i] == pair[0] and syms[i + 1] == pair[1]:
            out.append(syms[i] + syms[i + 1])
            i += 2
        else:
            out.append(syms[i])
            i += 1
    return tuple(out)


def encode(model: SubwordModel, text: str) -> list:
    """Tokenize `text` into subword ids (no bos/eos/pad added).

    Whitespace is canonicalized: words are split on any whitespace and
    rejoined by single spaces on decode.  Characters outside the trained
    inventory become unk.
    """
    ids = []
    for word in text.split():
        syms = _word_symbols(word)
        for pair in model.merges:
            if len(syms) < 2:
                break
            syms = _apply_merge(syms, pair)
        ids.extend(model.vocab.id(s) for s in syms)
    return ids


def decode(model: SubwordModel, ids) -> str:
    """Invert `encode`: concatenate surfaces, turn word-end markers to spaces.

    pad/bos/eos ids are skipped so model output can be passed directly.
    """
    surfaces = [model.vocab.token(i) for i in ids
                if i not in (PAD_ID, BOS_ID, EOS_ID)]
    return "".join(surfaces).replace(WORD_END, " ").strip()


def save_subwords(model: SubwordModel, directory):
    """Write `vocab.txt` (one token per line) and `merges.txt` (one pair per
    line) into `directory`."""
    with open(os.path.join(directory, "vocab.txt"), "w", encoding="utf-8") as fh:
        fh.write("".join(token + "\n" for token in model.vocab.token_of))
    with open(os.path.join(directory, "merges.txt"), "w", encoding="utf-8") as fh:
        fh.write("".join(f"{a} {b}\n" for a, b in model.merges))


def load_subwords(directory) -> SubwordModel:
    """Read the subword model that save_subwords wrote into `directory`.

    Each merge's two pieces and the piece they join into must be entries of
    the vocabulary, so that files from two different runs do not load as one
    model."""
    with open(os.path.join(directory, "vocab.txt"), encoding="utf-8") as fh:
        tokens = [line.rstrip("\n") for line in fh]
    while tokens and tokens[-1] == "":
        tokens.pop()
    vocab = Vocabulary(tokens)
    merges_path = os.path.join(directory, "merges.txt")
    merges = []
    with open(merges_path, encoding="utf-8") as fh:
        for n, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split(" ")
            if len(parts) != 2:
                raise ValueError(f"{merges_path}:{n}: malformed merge line {line!r}")
            for piece in (parts[0], parts[1], parts[0] + parts[1]):
                if piece not in vocab.id_of:
                    raise ValueError(f"{merges_path}:{n}: merge {line!r} needs "
                                     f"{piece!r}, which vocab.txt lacks")
            merges.append((parts[0], parts[1]))
    return SubwordModel(merges, vocab)
