"""Desk-scale end-to-end speech translation toolkit.

Pure-numpy reverse-mode autodiff, log-mel frontend, subword text pipeline,
a Transformer/Conformer speech translation model family with a CTC branch,
Adam training with inverse-sqrt scheduling, checkpoint averaging, and
ensemble beam search -- small enough to read end to end, verified by
gradient checks and brute-force oracles.
"""

from .tensor import Tensor, no_grad, grad_check
from .rng import RngStream
from .audio import FrontendConfig, logmel, cmvn, spec_augment
from .text import SubwordModel, Vocabulary, train_subwords, encode, decode
from .losses import (
    CtcInfeasibleError,
    ctc_loss_batch,
    label_smoothed_ce,
    multitask_loss,
)
from .model import ModelConfig, SpeechTranslator, VARIANTS
from .training import (
    Adam,
    TrainConfig,
    average_checkpoints,
    load_model,
    save_model,
    train,
)
from .decoding import (
    DecodeConfig,
    Hypothesis,
    beam_search,
    ctc_greedy_decode,
    encode_for_decoding,
)
from .evaluation import corpus_bleu
from .toy import ToyTaskConfig, toy_generate

__version__ = "0.1.0"

__all__ = [
    "Tensor",
    "no_grad",
    "grad_check",
    "RngStream",
    "FrontendConfig",
    "logmel",
    "cmvn",
    "spec_augment",
    "SubwordModel",
    "Vocabulary",
    "train_subwords",
    "encode",
    "decode",
    "CtcInfeasibleError",
    "ctc_loss_batch",
    "label_smoothed_ce",
    "multitask_loss",
    "ModelConfig",
    "SpeechTranslator",
    "VARIANTS",
    "Adam",
    "TrainConfig",
    "average_checkpoints",
    "load_model",
    "save_model",
    "train",
    "DecodeConfig",
    "Hypothesis",
    "beam_search",
    "ctc_greedy_decode",
    "encode_for_decoding",
    "corpus_bleu",
    "ToyTaskConfig",
    "toy_generate",
    "__version__",
]
