"""Shallow 1D-convolutional text classifier with a frozen embedding layer.

Architecture: embedding lookup (pre-initialized from a trained word model,
never updated), valid 1D convolution with tanh, global max pooling over
time, a tanh dense layer, and a softmax output. Forward and backward passes
are explicit; training uses Adam on everything except the embedding.

The backward pass routes each (comment, filter) gradient through the pooled
argmax alone: the first maximal step at a tie, so step 0 for a comment of
padding only, whose steps all tie.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .embeddings import WordEmbeddingModel

logger = logging.getLogger(__name__)

PAD_INDEX = 0
OOV_INDEX = 1
INIT_SCALE = 0.05

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

TRAINABLE_BLOCKS = ("conv_w", "conv_b", "dense_w", "dense_b", "out_w", "out_b")


class NeuralError(ValueError):
    """Invalid configuration or training input."""


@dataclass(frozen=True)
class CnnConfig:
    max_len: int = 1000
    embed_dim: Optional[int] = None  # filled in from the word model at build
    n_filters: int = 128
    kernel_size: int = 5
    dense_units: int = 64
    n_classes: int = 2
    batch_size: int = 32
    epochs: int = 5
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        sizes = (self.max_len, self.n_filters, self.kernel_size, self.dense_units,
                 self.n_classes, self.batch_size, self.epochs)
        if min(sizes) < 1:
            raise NeuralError("all CNN sizes must be >= 1")
        if self.kernel_size > self.max_len:
            raise NeuralError(f"kernel_size {self.kernel_size} exceeds "
                              f"max_len {self.max_len}")
        if self.learning_rate <= 0:
            raise NeuralError("learning_rate must be positive")


class CnnModel:
    """Parameter container; index 0 is padding, index 1 the OOV token."""

    def __init__(self, config: CnnConfig, vocab: Dict[str, int],
                 embedding: np.ndarray, conv_w: np.ndarray, conv_b: np.ndarray,
                 dense_w: np.ndarray, dense_b: np.ndarray,
                 out_w: np.ndarray, out_b: np.ndarray):
        self.config = config
        self.vocab = vocab
        self.embedding = embedding
        self.conv_w = conv_w
        self.conv_b = conv_b
        self.dense_w = dense_w
        self.dense_b = dense_b
        self.out_w = out_w
        self.out_b = out_b
        for name in TRAINABLE_BLOCKS + ("embedding",):
            if not np.isfinite(getattr(self, name)).all():
                raise NeuralError(f"non-finite parameters in {name}")

    def encode(self, tokens: Sequence[str]) -> np.ndarray:
        """Token indices truncated to the first max_len positions, post-padded."""
        idx = np.full(self.config.max_len, PAD_INDEX, dtype=np.int64)
        for i, token in enumerate(tokens[:self.config.max_len]):
            idx[i] = self.vocab.get(token, OOV_INDEX)
        return idx

    def trainable(self) -> Dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in TRAINABLE_BLOCKS}


def build(word_model: WordEmbeddingModel, config: CnnConfig) -> CnnModel:
    """Initialize a CNN with the embedding layer copied from the word model.

    Rows for padding and out-of-vocabulary tokens are zero; the remaining
    parameters are uniform in [-0.05, 0.05] drawn from the seed.
    """
    if config.embed_dim is not None and config.embed_dim != word_model.dim:
        raise NeuralError(f"config embed_dim {config.embed_dim} does not match "
                          f"word model dimension {word_model.dim}")
    config = replace(config, embed_dim=word_model.dim)
    d = word_model.dim
    vocab = {token: idx + 2 for token, idx in word_model.vocab.items()}
    embedding = np.zeros((len(vocab) + 2, d))
    for token, row in vocab.items():
        embedding[row] = word_model.vectors[word_model.vocab[token]]
    rng = np.random.default_rng(config.seed)

    def init(*shape):
        return rng.uniform(-INIT_SCALE, INIT_SCALE, size=shape)

    return CnnModel(
        config, vocab, embedding,
        conv_w=init(config.n_filters, config.kernel_size, d),
        conv_b=init(config.n_filters),
        dense_w=init(config.dense_units, config.n_filters),
        dense_b=init(config.dense_units),
        out_w=init(config.n_classes, config.dense_units),
        out_b=init(config.n_classes),
    )


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _forward_batch(model: CnnModel, idx: np.ndarray) -> Tuple[np.ndarray, dict]:
    """Probabilities plus the cache needed for the backward pass."""
    k = model.config.kernel_size
    t_out = model.config.max_len - k + 1
    E = model.embedding[idx]  # (B, T, D)
    z1 = np.broadcast_to(model.conv_b, (len(idx), t_out, model.config.n_filters)).copy()
    for j in range(k):
        z1 += E[:, j:j + t_out, :] @ model.conv_w[:, j, :].T
    a1 = np.tanh(z1)
    pool_at = a1.argmax(axis=1)  # (B, F)
    pooled = np.take_along_axis(a1, pool_at[:, None, :], axis=1)[:, 0, :]
    a2 = np.tanh(pooled @ model.dense_w.T + model.dense_b)
    probs = _softmax(a2 @ model.out_w.T + model.out_b)
    return probs, {"E": E, "pool_at": pool_at, "pooled": pooled, "a2": a2}


def _backward_batch(model: CnnModel, probs: np.ndarray, labels: np.ndarray,
                    cache: dict) -> Dict[str, np.ndarray]:
    """Gradients of the mean cross-entropy over the batch (embedding frozen).

    The conv gradient is routed through the pooled argmax: at kernel offset
    j, filter f sums the embedding rows at pool_at[:, f] + j, weighted by its
    pre-activation gradient. At a tie only the step argmax picked gets it.
    """
    batch = len(labels)
    one_hot = np.zeros_like(probs)
    one_hot[np.arange(batch), labels] = 1.0
    d_z3 = (probs - one_hot) / batch
    grads = {"out_w": d_z3.T @ cache["a2"], "out_b": d_z3.sum(axis=0)}
    d_z2 = (d_z3 @ model.out_w) * (1.0 - cache["a2"] ** 2)
    grads["dense_w"] = d_z2.T @ cache["pooled"]
    grads["dense_b"] = d_z2.sum(axis=0)
    d_pool = d_z2 @ model.dense_w  # (B, F)
    d_zp = d_pool * (1.0 - cache["pooled"] ** 2)
    rows = np.arange(batch)[:, None]
    conv_w_grad = np.empty_like(model.conv_w)
    for j in range(model.config.kernel_size):
        conv_w_grad[:, j, :] = np.einsum("bf,bfd->fd", d_zp,
                                         cache["E"][rows, cache["pool_at"] + j])
    grads["conv_w"] = conv_w_grad
    grads["conv_b"] = d_zp.sum(axis=0)
    return grads


def forward(model: CnnModel, idx: np.ndarray) -> np.ndarray:
    """Class probabilities for one padded index sequence or a batch."""
    idx = np.atleast_2d(np.asarray(idx, dtype=np.int64))
    if idx.shape[1] != model.config.max_len:
        raise NeuralError(f"sequence length {idx.shape[1]} != max_len "
                          f"{model.config.max_len}")
    if idx.max(initial=0) >= len(model.embedding):
        raise NeuralError("token index out of range")
    probs, _ = _forward_batch(model, idx)
    return probs[0] if probs.shape[0] == 1 else probs


class _Adam:
    def __init__(self, params: Dict[str, np.ndarray], lr: float):
        self.lr = lr
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, params: Dict[str, np.ndarray], grads: Dict[str, np.ndarray]):
        self.t += 1
        correction1 = 1.0 - ADAM_BETA1 ** self.t
        correction2 = 1.0 - ADAM_BETA2 ** self.t
        for key, grad in grads.items():
            m = self.m[key]
            v = self.v[key]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * grad
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * grad * grad
            params[key] -= self.lr * (m / correction1) / (
                np.sqrt(v / correction2) + ADAM_EPS)


def train(model: CnnModel, sequences: Sequence[np.ndarray],
          labels: Sequence[int]) -> List[float]:
    """Mini-batch training on model.config's schedule; returns the
    per-epoch mean loss history.

    The embedding matrix is left bit-identical; only conv/dense/output
    parameters receive Adam updates. Deterministic for a fixed seed and
    data order.
    """
    cfg = model.config
    idx = np.asarray(sequences, dtype=np.int64)
    y = np.asarray(labels, dtype=np.int64)
    if len(idx) == 0:
        raise NeuralError("training dataset is empty")
    if len(idx) != len(y):
        raise NeuralError("sequences and labels length mismatch")
    if len(np.unique(y)) < 2:
        raise NeuralError("training labels must contain both classes")
    params = model.trainable()
    optimizer = _Adam(params, cfg.learning_rate)
    rng = np.random.default_rng(cfg.seed)
    history = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(idx))
        total = 0.0
        for start in range(0, len(idx), cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            probs, cache = _forward_batch(model, idx[batch])
            picked = probs[np.arange(len(batch)), y[batch]]
            total += float(-np.log(np.clip(picked, 1e-300, None)).sum())
            grads = _backward_batch(model, probs, y[batch], cache)
            optimizer.step(params, grads)
        history.append(total / len(idx))
        logger.debug("cnn epoch %d/%d loss %.4f", epoch + 1, cfg.epochs, history[-1])
    return history
