"""Word and comment embeddings trained with negative sampling.

Word vectors are trained CBOW-style (predict a token from the mean of its
context vectors) or skip-gram-style; comment vectors use the
distributed-memory variant where the comment vector is averaged into the
context. Inference for unseen comments runs the same DM steps on a fresh
comment vector while the word matrices stay frozen.

One kernel, _batch_step, steps minibatches of TRAIN_BATCH examples, as
word2vec does: updates inside a batch read the same matrices and are summed
at its end. Training's batches run across comments, planned a chunk of
batches at a time: a chunk draws its negatives in one rng call, the stream
that per-batch draws give, and builds every array that reads no weights
once, so each batch runs only the work that reads them. Inference cuts each
comment's own examples into batches, so a comment's vector does not depend
on the other comments inferred with it. Both are serial and deterministic:
a seed gives byte-identical models.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .files import hash_file, read_fields, read_json, write_json
from .textprep import TokenStream

logger = logging.getLogger(__name__)

NOISE_EXPONENT = 0.75
# training examples per minibatch step; larger batches run faster but read
# staler rows (DM's comment vectors lose the most)
TRAIN_BATCH = 64
# bytes one slice may hold at once: at inference, the w_in and w_out rows one
# kernel call gathers (_example_bytes per example) for a slice of at least one
# comment; in training, the plan of a chunk of at least one batch in a quarter
# of it, and the example arrays of a slice of at least one position in the rest
SLICE_BYTES = 3 << 19
STORE_FORMAT = "metacomment-vector-store/1"


class EmbeddingError(ValueError):
    """Invalid training input or query (e.g. empty vocabulary, OOV word)."""


@dataclass(frozen=True)
class WordTrainingParams:
    """Hyperparameters for embedding training."""

    dim: int = 100
    window: int = 5
    min_count: int = 5
    epochs: int = 5
    method: str = "cbow"  # "cbow" or "skipgram"
    negative_samples: int = 5
    initial_lr: float = 0.025
    final_lr: float = 0.0001
    seed: int = 1

    def __post_init__(self):
        if min(self.dim, self.window, self.min_count, self.epochs,
               self.negative_samples) < 1:
            raise EmbeddingError("dim, window, min_count, epochs, negative_samples "
                                 "must all be >= 1")
        if self.method not in ("cbow", "skipgram"):
            raise EmbeddingError(f"unknown training method {self.method!r}")
        if not 0 < self.final_lr <= self.initial_lr:
            raise EmbeddingError("need 0 < final_lr <= initial_lr")


@dataclass(frozen=True)
class DocInferenceParams:
    """Gradient-step schedule for inferring vectors of unseen comments."""

    steps: int = 50
    learning_rate: float = 0.025
    min_learning_rate: float = 0.0001
    seed: int = 1

    def __post_init__(self):
        if self.steps < 1:
            raise EmbeddingError("steps must be >= 1")
        if not 0 < self.min_learning_rate <= self.learning_rate:
            raise EmbeddingError("need 0 < min_learning_rate <= learning_rate")


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.clip(x, -500, 500)))


def _unit(v: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(v)
    return v / norm if norm > 0 else v


def cosine_similarity(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine of the angle between u and v; 0 when either vector is zero."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise EmbeddingError(f"dimension mismatch: {u.shape} vs {v.shape}")
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    # builtin min/max: the same bits as a scalar np.clip at a fraction of
    # its cost, and this argument order passes NaN through as np.clip does
    return max(min(float(np.dot(u, v) / (nu * nv)), 1.0), -1.0)


def cosine_similarities(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """cosine_similarity of each row of U with each row of V, bit for bit:
    each dot is a stacked 1 × d @ d × 1 matmul, which numpy computes as
    np.dot does (U @ V.T sums in another order), and each norm the square
    root of one, as np.linalg.norm is."""
    U, V = np.asarray(U, dtype=float), np.asarray(V, dtype=float)
    if U.shape[1:] != V.shape[1:]:
        raise EmbeddingError(f"dimension mismatch: {U.shape[1:]} vs {V.shape[1:]}")
    dots = (U[:, None, None, :] @ V[None, :, :, None])[..., 0, 0]
    nu, nv = (np.sqrt((W[:, None, :] @ W[:, :, None])[:, 0, 0]) for W in (U, V))
    cosines = np.divide(dots, nu[:, None] * nv[None, :], out=np.zeros_like(dots),
                        where=(nu[:, None] != 0.0) & (nv[None, :] != 0.0))
    return np.clip(cosines, -1.0, 1.0)


def _noise_cdf(counts: np.ndarray) -> np.ndarray:
    """Cumulative unigram^0.75 noise distribution; np.searchsorted(cdf, u,
    side="right") turns uniform draws u into negatives (inverse CDF)."""
    weights = counts.astype(float) ** NOISE_EXPONENT
    cdf = np.cumsum(weights / weights.sum())
    cdf[-1] = 1.0
    return cdf


class WordEmbeddingModel:
    """Vocabulary plus input/output vector matrices from one training run."""

    def __init__(self, vocab: Dict[str, int], vectors: np.ndarray,
                 out_vectors: np.ndarray, counts: np.ndarray,
                 params: WordTrainingParams, epoch_losses: Optional[List[float]] = None):
        if vectors.shape[0] != len(vocab):
            raise EmbeddingError("vector matrix must have one row per vocab entry")
        if not np.isfinite(vectors).all() or not np.isfinite(out_vectors).all():
            raise EmbeddingError("non-finite values in embedding matrices")
        self.vocab = dict(vocab)
        self.vectors = vectors
        self.out_vectors = out_vectors
        self.counts = counts
        self.params = params
        self.epoch_losses = list(epoch_losses or [])
        self._tokens = [None] * len(vocab)
        for token, idx in vocab.items():
            self._tokens[idx] = token
        self._noise_cdf = _noise_cdf(counts) if len(vocab) else None

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def __contains__(self, token: str) -> bool:
        return token in self.vocab

    def __len__(self) -> int:
        return len(self.vocab)

    def vector(self, token: str) -> np.ndarray:
        if token not in self.vocab:
            raise EmbeddingError(f"word not in vocabulary: {token!r}")
        return self.vectors[self.vocab[token]]

    def most_similar(self, word: str, n: int) -> List[Tuple[str, float]]:
        """Top-n vocabulary neighbors by cosine similarity, query excluded."""
        if word not in self.vocab:
            raise EmbeddingError(f"word not in vocabulary: {word!r}")
        if n <= 0:
            return []
        qi = self.vocab[word]
        q = _unit(self.vectors[qi])
        norms = np.linalg.norm(self.vectors, axis=1)
        norms[norms == 0.0] = 1.0
        sims = (self.vectors @ q) / norms
        order = np.argsort(-sims, kind="stable")
        result = []
        for idx in order:
            if idx == qi:
                continue
            result.append((self._tokens[idx], float(np.clip(sims[idx], -1.0, 1.0))))
            if len(result) == n:
                break
        return result

    def save(self, prefix) -> None:
        prefix = Path(prefix)
        _save_vectors(prefix, ".store.json", self._tokens,
                      {".vec": self.vectors, ".out": self.out_vectors})
        meta = {
            "params": self.params.__dict__,
            "counts": {t: int(c) for t, c in zip(self._tokens, self.counts)},
            "epoch_losses": self.epoch_losses,
        }
        write_json(prefix.with_suffix(".meta.json"), meta, indent=2)

    @classmethod
    def load(cls, prefix) -> "WordEmbeddingModel":
        prefix = Path(prefix)
        tokens, (vectors, out_vectors) = _load_vectors(prefix, ".store.json", (".vec", ".out"))
        meta = read_json(prefix.with_suffix(".meta.json"))
        # files written while training had a thread pool also carry "workers"
        params = read_fields(WordTrainingParams, meta["params"])
        counts = np.array([meta["counts"][t] for t in tokens], dtype=np.int64)
        vocab = {t: i for i, t in enumerate(tokens)}
        return cls(vocab, vectors, out_vectors, counts, params, meta.get("epoch_losses"))


def _write_vector_file(path: Path, keys: Sequence[str], matrix: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{matrix.shape[0]} {matrix.shape[1]}\n")
        for key, row in zip(keys, matrix.tolist()):
            if any(ch.isspace() for ch in key):
                raise EmbeddingError(f"key {key!r} contains whitespace, cannot serialize")
            fh.write(key + " " + " ".join(map(repr, row)) + "\n")


def _read_vector_file(path: Path) -> Tuple[List[str], np.ndarray]:
    """Keys and rows; a malformed or cut-off line, a repeated key or a line
    past the header's row count raises EmbeddingError naming it."""
    line_no = 1
    with open(path, encoding="utf-8") as fh:
        try:
            n, d = map(int, fh.readline().split())
            lines = {}
            matrix = np.empty((n, d), dtype=float)
            for line_no in range(2, n + 2):
                line = fh.readline()
                key, *values = line.rstrip("\n").split(" ")
                if len(values) != d or not line.endswith("\n"):
                    raise ValueError(f"expected a key and {d} values, then a newline")
                if lines.setdefault(key, line_no) != line_no:
                    raise ValueError(f"key {key!r} repeats line {lines[key]}")
                matrix[line_no - 2] = [float(x) for x in values]
            line_no = n + 2
            if fh.readline():
                raise ValueError(f"a line past the header's {n} rows")
        except ValueError as exc:
            raise EmbeddingError(f"{path}, line {line_no}: {exc}") from None
    return list(lines), matrix


def _npy(path: Path) -> Path:
    return path.with_name(path.name + ".npy")


def _save_vectors(prefix: Path, store_suffix: str, keys: Sequence[str],
                  matrices: Dict[str, np.ndarray]) -> None:
    """Each matrix as the text vector file prefix + suffix and its np.save copy
    beside it (suffix + ".npy"), then the store file prefix + store_suffix:
    the keys and each text file's sha256."""
    digests = {}
    for suffix, matrix in matrices.items():
        path = prefix.with_suffix(suffix)
        _write_vector_file(path, keys, matrix)
        np.save(_npy(path), np.asarray(matrix, dtype=float))
        digests[suffix] = hash_file(path)
    write_json(prefix.with_suffix(store_suffix),
               {"format": STORE_FORMAT, "keys": list(keys), "sha256": digests})


def _load_vectors(prefix: Path, store_suffix: str,
                  suffixes: Sequence[str]) -> Tuple[List[str], List[np.ndarray]]:
    """The keys and matrices of the text vector files prefix + suffix. They
    come from the .npy copies when the store file records the sha256 of each
    text file as it is on disk, else from parsing the text, which stays the
    source of truth. A store file or array that does not fit its keys, and
    on either path files of one model that differ in width or a non-finite
    value, raise EmbeddingError naming the file."""
    paths = [prefix.with_suffix(suffix) for suffix in suffixes]
    store = prefix.with_suffix(store_suffix)
    loaded = _read_store(store, paths) if store.is_file() else None
    if loaded is None:
        read = [_read_vector_file(path) for path in paths]
        for path, (keys, _) in zip(paths[1:], read[1:]):
            if keys != read[0][0]:
                raise EmbeddingError(f"{path}: keys differ from {paths[0].name}'s")
        loaded = read[0][0], [matrix for _, matrix in read]
    keys, matrices = loaded
    for path, matrix in zip(paths, matrices):
        if matrix.shape[1] != matrices[0].shape[1]:
            raise EmbeddingError(f"{path}: {matrix.shape[1]} columns, "
                                 f"{paths[0].name} has {matrices[0].shape[1]}")
        if not np.isfinite(matrix).all():
            row = int(np.flatnonzero(~np.isfinite(matrix).all(axis=1))[0])
            raise EmbeddingError(f"{path}, line {row + 2}: non-finite value in the "
                                 f"vector of {keys[row]!r}")
    return loaded


def _read_store(store: Path,
                paths: Sequence[Path]) -> Optional[Tuple[List[str], List[np.ndarray]]]:
    """_load_vectors' (keys, matrices) from the .npy copies, or None when a
    text file's sha256 is not the one the store file records."""
    try:
        record = read_json(store, STORE_FORMAT)
        keys, digests = record["keys"], record["sha256"]
    except ValueError as exc:
        raise EmbeddingError(str(exc)) from None
    if not (isinstance(keys, list) and set(map(type, keys)) <= {str}
            and len(set(keys)) == len(keys) and isinstance(digests, dict)):
        raise EmbeddingError(f"{store}: keys must be distinct strings, sha256 an object")
    if any(digests.get(path.suffix) != hash_file(path) for path in paths):
        return None
    matrices = []
    for path in map(_npy, paths):
        try:
            matrix = np.load(path, allow_pickle=False)
        except (OSError, ValueError) as exc:
            raise EmbeddingError(f"{path}: {exc}") from None
        if matrix.dtype != np.float64 or matrix.ndim != 2 or len(matrix) != len(keys):
            raise EmbeddingError(f"{path}: a {matrix.dtype} array of shape {matrix.shape}, "
                                 f"not float64 rows for the {len(keys)} keys of {store.name}")
        matrices.append(matrix)
    return keys, matrices


def _build_vocab(corpus: Sequence[TokenStream], min_count: int):
    counts: Dict[str, int] = {}
    for ts in corpus:
        for token in ts.tokens:
            counts[token] = counts.get(token, 0) + 1
    kept = [(t, c) for t, c in counts.items() if c >= min_count]
    if not kept:
        raise EmbeddingError(f"empty effective vocabulary (all tokens below min_count={min_count})")
    kept.sort(key=lambda tc: (-tc[1], tc[0]))
    vocab = {t: i for i, (t, _) in enumerate(kept)}
    return vocab, np.array([c for _, c in kept], dtype=np.int64)


def _index_corpus(corpus: Sequence[TokenStream], vocab: Dict[str, int]) -> List[List[int]]:
    return [[vocab[t] for t in ts.tokens if t in vocab] for ts in corpus]


def _padded(indexed: List[List[int]], window: int) -> Tuple[np.ndarray, np.ndarray]:
    """(padded, ends): the comments' ids in one int32 array, with window -1s
    before the first comment and after each, so every window stays inside
    its comment; and each comment's end in positions (ids). Position p of
    comment c sits at padded[p + window * (c + 1)]."""
    pad = [-1] * window
    padded = np.fromiter(chain(pad, chain.from_iterable(d + pad for d in indexed)), np.int32)
    return padded, np.cumsum([len(d) for d in indexed], dtype=np.int64)


def _examples(padded: np.ndarray, ends: np.ndarray, first: int, stop: int, window: int,
              skipgram: bool = False, doc_rows: Optional[int] = None):
    """(inputs, targets, position) of the examples of positions first to stop,
    in corpus order: the w_in rows each reads, padded with -1, and the
    position it belongs to. CBOW: one per position, its window (left then
    right) predicting its token; with doc_rows (DM), the w_in row of the first
    comment's vector, plus the comment's row. Skip-gram: one per (centre,
    window token) pair, the centre row predicting the token."""
    position = np.arange(first, stop)
    comment = np.searchsorted(ends, position, side="right")
    at = position + window * (comment + 1)
    centres, context = padded[at], padded[at[:, None] + np.r_[-window:0, 1:window + 1]]
    if skipgram:
        pairs = np.flatnonzero(context >= 0)
        at = pairs // (2 * window)  # shifted in place, after the gathers that read it
        return centres[at, None], context.ravel()[pairs], np.add(at, first, out=at)
    if doc_rows is not None:
        context = np.hstack([context, (comment[:, None] + doc_rows).astype(np.int32)])
    return context, centres, position


def _example_bytes(params: WordTrainingParams) -> int:
    """Bytes of the rows one example gathers in _batch_step, at most: 2 window
    + 1 w_in rows (DM) and k + 1 w_out rows of dim float64s."""
    return (2 * params.window + 1 + params.negative_samples + 1) * params.dim * 8


class _Plan(NamedTuple):
    """The arrays of a run of consecutive examples' steps that read no
    weights; _plan builds them, _step runs one batch of them."""

    inputs: np.ndarray       # w_in rows each example reads, padded with -1
    weights: np.ndarray      # each row's share of the example's mean
    tg: np.ndarray           # the target, then the negatives
    keep: np.ndarray         # which of tg get a gradient and a loss
    rate: np.ndarray         # -lr, one column
    counts: np.ndarray       # w_in rows written per example
    rows: np.ndarray         # the w_in rows written, example after example
    row_weights: np.ndarray  # their weights, one column

    def batch(self, batch: slice, ends: np.ndarray) -> "_Plan":
        """The plan of the examples batch, given ends = np.cumsum(counts)."""
        written = slice(ends[batch.start - 1] if batch.start else 0, ends[batch.stop - 1])
        return _Plan(*(a[batch] for a in self[:6]), self.rows[written],
                     self.row_weights[written])


def _plan_bytes(width: int, k: int) -> int:
    """Bytes per example, at most, that planning examples of width inputs and
    k negatives holds besides the inputs themselves: the uniform draws and
    the negatives drawn from them (8 + 8 B per negative), then the _Plan's
    weights, rows and row_weights (8 + 4 + 8 B per input), tg and keep
    (8 + 1 B per target or negative), rate and counts, and the ends of the
    counts' running sum, which training slices batches by (8 B each)."""
    return 20 * width + 9 * (k + 1) + 16 * k + 24


def _plan(inputs, targets, negatives, lr, frozen: Optional[int] = None) -> _Plan:
    """_batch_step's arrays for the examples given, as _batch_step documents
    them; with frozen, only the w_in rows from frozen on are written."""
    valid = inputs >= 0
    m = valid.sum(axis=1)
    weights = valid / np.maximum(m, 1)[:, None]
    tg = np.concatenate((targets[:, None], negatives), axis=1)
    live = (m > 0)[:, None]
    keep = np.concatenate((live, negatives != targets[:, None]), axis=1) & live
    if frozen is not None:  # valid and m count only the rows to write
        valid = inputs >= frozen
        m = valid.sum(axis=1)
    return _Plan(inputs, weights, tg, keep, -lr[:, None], m, inputs[valid],
                 weights[valid][:, None])


def _step(w_in, w_out, plan: _Plan, frozen: Optional[int] = None) -> Optional[float]:
    """_batch_step on the planned batch: all its examples read the matrices
    as they are at its start."""
    inputs, weights, tg, keep, rate, counts, rows, row_weights = plan
    h = np.einsum("bc,bcd->bd", weights, w_in[inputs])
    w = w_out[tg]
    scores = np.einsum("bkd,bd->bk", w, h)
    g = _sigmoid(scores)
    g[:, 0] -= 1.0
    g *= keep
    grad_h = np.einsum("bk,bkd->bd", g, w)
    loss = None
    if frozen is None:
        _scatter_add(w_out, tg, (rate * g)[:, :, None] * h[:, None, :])
        scores[:, 0] = -scores[:, 0]
        loss = float((np.logaddexp(0.0, scores) * keep).sum())
    _scatter_add(w_in, rows, np.repeat(rate * grad_h, counts, axis=0) * row_weights)
    return loss


def _batch_step(w_in, w_out, inputs, targets, negatives, lr,
                frozen: Optional[int] = None) -> Optional[float]:
    """One minibatch of negative-sampling steps; returns its summed loss, or
    None with frozen.

    Example i takes the step of the reference negative-sampling gradients
    (negative_sampling_gradients in tests/oracles.py), at rate lr[i], of
    predicting targets[i] against negatives[i] from the mean of its w_in rows
    inputs[i] (padded with -1). All examples read the matrices as they are
    at the batch's start; their summed updates are then applied in place.
    A negative equal to its target gets no gradient or loss, as if it had
    not been drawn; an example without input rows changes nothing. With
    frozen (inference), w_out and the w_in rows below frozen stay unwritten.
    Training plans many batches at once and runs each with _step, which
    gives the same bits.
    """
    return _step(w_in, w_out, _plan(inputs, targets, negatives, lr, frozen), frozen)


def _scatter_add(matrix: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """matrix[rows] += values, summing over repeated rows. np.add.at runs on
    the flat view, where numpy has a fast path that 2-D indexing lacks."""
    dim = matrix.shape[1]
    np.add.at(matrix.reshape(-1), (rows[..., None] * dim + np.arange(dim)).ravel(),
              values.ravel())


def _train(corpus: List[TokenStream], params: WordTrainingParams, with_docs: bool):
    """The driver of both trainers. Returns (word model, comment rows, each
    comment's positions); with_docs, one DM-trained row per comment, drawn from
    the rng right after the word rows and trained as extra w_in rows, else None.

    Each epoch builds its examples one slice of positions at a time and
    steps them in batches of TRAIN_BATCH; the partial batch a slice ends with
    runs at the head of the next, so the batches are those of the whole
    epoch's examples in corpus order. A slice's batches are planned a chunk
    of consecutive batches at a time (_plan), and each batch then runs only
    the work that reads the weights (_step). The chunk's plan takes a
    quarter of SLICE_BYTES, the slice's example arrays the rest: chunks of
    that size already amortize a plan's fixed cost (training is no faster
    with twice the share), and a larger plan only raises the peak memory.
    A chunk draws all its
    negatives in one rng call: the stream that drawing k per example gives.
    The learning rate decays linearly over all epochs' positions; a
    skip-gram position's pairs share its rate."""
    if not corpus:
        raise EmbeddingError("training corpus is empty")
    vocab, counts = _build_vocab(corpus, params.min_count)
    rng = np.random.default_rng(params.seed)
    w_in = (rng.random((len(vocab), params.dim)) - 0.5) / params.dim
    if with_docs:
        w_in = np.vstack([w_in, (rng.random((len(corpus), params.dim)) - 0.5) / params.dim])
    w_out = np.zeros((len(vocab), params.dim))
    noise_cdf = _noise_cdf(counts)
    padded, ends = _padded(_index_corpus(corpus, vocab), params.window)
    skipgram = params.method == "skipgram"
    k, lr0, lr1 = params.negative_samples, params.initial_lr, params.final_lr
    # a position's examples: one with 2 window (+1 DM) int32 inputs, or in
    # skip-gram up to 2 window with one; each has an int32 target and an
    # int64 position
    width, per_position = ((1, 2 * params.window) if skipgram
                           else (2 * params.window + with_docs, 1))
    plan_budget = SLICE_BYTES // 4
    step = max((SLICE_BYTES - plan_budget) // (per_position * (4 * width + 12)), 1)
    chunk = max(plan_budget // (TRAIN_BATCH * _plan_bytes(width, k)), 1) * TRAIN_BATCH
    per_epoch = int(ends[-1])
    total = max(per_epoch * params.epochs, 1)
    epoch_losses = []
    for epoch in range(params.epochs):
        loss = 0.0
        carry = None
        for first in range(0, per_epoch, step):
            stop = min(first + step, per_epoch)
            inputs, targets, position = _examples(padded, ends, first, stop, params.window,
                                                  skipgram, len(vocab) if with_docs else None)
            if carry is not None:
                inputs, targets, position = (np.concatenate(pair) for pair in
                                             zip(carry, (inputs, targets, position)))
            end = len(targets) - (len(targets) % TRAIN_BATCH if stop < per_epoch else 0)
            for start in range(0, end, chunk):
                part = slice(start, min(start + chunk, end))
                n = part.stop - start
                negatives = np.searchsorted(noise_cdf, rng.random(n * k), side="right")
                lr = np.maximum(lr0 - (lr0 - lr1) * ((epoch * per_epoch + position[part])
                                                     / total), lr1)
                plan = _plan(inputs[part], targets[part], negatives.reshape(-1, k), lr)
                del negatives, lr  # the plan keeps what it needs
                row_ends = np.cumsum(plan.counts)
                for at in range(0, n, TRAIN_BATCH):
                    loss += _step(w_in, w_out,
                                  plan.batch(slice(at, min(at + TRAIN_BATCH, n)), row_ends))
                del plan, row_ends  # freed before the next chunk is planned
            carry = inputs[end:].copy(), targets[end:].copy(), position[end:].copy()
            del inputs, targets, position  # freed before the next slice is built
        epoch_losses.append(loss)
        logger.debug("epoch %d/%d loss %.4f", epoch + 1, params.epochs, loss)
    model = WordEmbeddingModel(vocab, w_in[:len(vocab)], w_out, counts, params, epoch_losses)
    return model, (w_in[len(vocab):] if with_docs else None), np.diff(ends, prepend=0)


def train_word_embeddings(corpus: Iterable[TokenStream],
                          params: WordTrainingParams) -> WordEmbeddingModel:
    """Train a word embedding model with negative sampling, in minibatches
    (see the module docstring); the per-epoch training loss is recorded on
    the model."""
    return _train(list(corpus), params, with_docs=False)[0]


def _token_digest(tokens: Sequence[str]) -> str:
    """Digest of a token stream that is the same in every process."""
    payload = json.dumps(list(tokens), ensure_ascii=False).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


class DocEmbeddingModel:
    """Word model plus one trained vector per training comment.

    token_digests maps each training id to a digest of the token stream
    its vector was trained on; models saved without digests have None.
    """

    def __init__(self, word_model: WordEmbeddingModel,
                 doc_vectors: Dict[str, np.ndarray],
                 flagged_ids: frozenset,
                 inference_params: DocInferenceParams,
                 token_digests: Optional[Dict[str, str]] = None):
        self.word_model = word_model
        self.doc_vectors = doc_vectors
        self.flagged_ids = frozenset(flagged_ids)
        self.inference_params = inference_params
        self.token_digests = token_digests

    @property
    def dim(self) -> int:
        return self.word_model.dim

    def infer(self, ts: TokenStream) -> Tuple[np.ndarray, bool]:
        """infer_many on one comment: (vector, all_oov flag)."""
        vectors, all_oov = self.infer_many([ts])
        return vectors[0], bool(all_oov[0])

    def infer_many(self, streams: Sequence[TokenStream]) -> Tuple[np.ndarray, np.ndarray]:
        """Infer vectors for unseen comments; returns (vectors, all_oov flags).

        Per comment: a fresh vector from an rng seeded with the inference
        seed, then `steps` passes over its in-vocabulary positions, the DM
        training examples with the word matrices frozen. The comment's own
        positions x steps examples are cut into minibatches of TRAIN_BATCH,
        each stepped by _batch_step from the vector as it was at the batch's
        start. Example t reads the t-th k negatives of the rng's stream
        (those equal to its centre get no gradient) and steps at a learning
        rate decaying linearly over the comment's own positions x steps.

        Comments run longest first, in slices, and the comments of a slice
        step in lockstep. A slice takes as many comments as keep the rows its
        kernel calls gather, TRAIN_BATCH x _example_bytes per comment, within
        SLICE_BYTES, and at least one: 8 comments at dim 32 with window 2 and
        k = 5, 1 at dim 300 with window 5. A comment's updates touch only its
        own row, so it gets the vector that inferring it alone gives, in any
        batch and any slice. All-OOV comments get a zero vector and the flag.
        """
        indexed = _index_corpus(streams, self.word_model.vocab)
        lengths = np.array([len(d) for d in indexed], dtype=np.int64)
        vectors = np.zeros((len(streams), self.dim))
        order = np.argsort(-lengths, kind="stable")[:np.count_nonzero(lengths)]
        per_slice = max(SLICE_BYTES // (TRAIN_BATCH * _example_bytes(self.word_model.params)), 1)
        for start in range(0, len(order), per_slice):
            rows = order[start:start + per_slice]
            vectors[rows] = self._infer_sorted([indexed[i] for i in rows])
        return vectors, lengths == 0

    def _infer_sorted(self, indexed: List[List[int]]) -> np.ndarray:
        """infer_many's slice on non-empty index lists, longest first.

        w_in stacks the comment vectors under the word rows the slice reads,
        not the whole vocabulary. Because every comment reseeds, one stream,
        drawn for the longest comment, serves them all.
        """
        wm = self.word_model
        p = self.inference_params
        k, dim = wm.params.negative_samples, self.dim
        padded, ends = _padded(indexed, wm.params.window)
        n = np.diff(ends, prepend=0)
        starts = ends - n
        inputs, centres, _ = _examples(padded, ends, 0, int(ends[-1]), wm.params.window,
                                       doc_rows=len(wm.vocab))
        # renumber the rows read: the slice's words, then its comments; padding stays -1
        read, inputs = np.unique(inputs, return_inverse=True)
        inputs = inputs.reshape(len(centres), -1) - (read[0] < 0)
        words = read[(read >= 0) & (read < len(wm.vocab))]
        total = n * p.steps
        rng = np.random.default_rng(p.seed)
        draws = rng.random(dim + int(total[0]) * k)
        negatives = np.searchsorted(wm._noise_cdf, draws[dim:], side="right").reshape(-1, k)
        w_in = np.vstack([wm.vectors[words], np.tile((draws[:dim] - 0.5) / dim, (len(n), 1))])
        lr0, lr1 = p.learning_rate, p.min_learning_rate
        for start in range(0, int(total[0]), TRAIN_BATCH):
            comment, t = np.nonzero(start + np.arange(TRAIN_BATCH) < total[:, None])
            t += start
            rows = starts[comment] + t % n[comment]
            lr = np.maximum(lr0 - (lr0 - lr1) * (t / total[comment]), lr1)
            _batch_step(w_in, wm.out_vectors, inputs[rows], centres[rows], negatives[t], lr,
                        frozen=len(words))
        return w_in[len(words):]

    def vectors_for(self, streams: Sequence[TokenStream]) -> np.ndarray:
        """One row per stream: the trained vector of a training comment, else
        an inferred one; all inferred rows come from one infer_many call.

        A stream is a training comment when its id has a trained vector and,
        where the model stores token digests, its tokens have that id's
        digest; so an unseen comment that reuses a training id is inferred.
        """
        vectors = np.empty((len(streams), self.dim))
        unseen = []
        mismatched = 0
        for row, ts in enumerate(streams):
            trained = self.doc_vectors.get(ts.source_id)
            if trained is not None and (
                    self.token_digests is None
                    or self.token_digests.get(ts.source_id) == _token_digest(ts.tokens)):
                vectors[row] = trained
            else:
                unseen.append(row)
                mismatched += trained is not None
        if mismatched:
            logger.warning("%d comment(s) reuse a training id with other tokens and are "
                           "inferred; were the doc model and the features built with "
                           "the same stop words?", mismatched)
        vectors[unseen] = self.infer_many([streams[row] for row in unseen])[0]
        return vectors

    def save(self, prefix) -> None:
        prefix = Path(prefix)
        self.word_model.save(prefix)
        ids = list(self.doc_vectors)
        matrix = np.array([self.doc_vectors[i] for i in ids]) if ids \
            else np.zeros((0, self.dim))
        _save_vectors(prefix, ".docs.store.json", ids, {".docs": matrix})
        meta = {"flagged_ids": sorted(self.flagged_ids),
                "inference_params": self.inference_params.__dict__}
        if self.token_digests is not None:
            meta["token_digests"] = self.token_digests
        write_json(prefix.with_suffix(".docs.meta.json"), meta, indent=2)

    @classmethod
    def load(cls, prefix) -> "DocEmbeddingModel":
        prefix = Path(prefix)
        word_model = WordEmbeddingModel.load(prefix)
        ids, (matrix,) = _load_vectors(prefix, ".docs.store.json", (".docs",))
        meta = read_json(prefix.with_suffix(".docs.meta.json"))
        doc_vectors = {i: matrix[k] for k, i in enumerate(ids)}
        return cls(word_model, doc_vectors, frozenset(meta["flagged_ids"]),
                   read_fields(DocInferenceParams, meta["inference_params"]),
                   meta.get("token_digests"))


def train_doc_embeddings(corpus: Iterable[TokenStream], params: WordTrainingParams,
                         inference_params: Optional[DocInferenceParams] = None) -> DocEmbeddingModel:
    """Jointly train word vectors and one vector per comment (DM style).

    Comments with no in-vocabulary tokens get a zero vector and are flagged.
    """
    corpus = list(corpus)
    if params.method != "cbow":
        raise EmbeddingError("comment embeddings require the cbow method")
    word_model, doc_matrix, lengths = _train(corpus, params, with_docs=True)
    empty = np.flatnonzero(lengths == 0)
    doc_matrix[empty] = 0.0
    flagged = {corpus[i].source_id for i in empty}
    doc_vectors = {ts.source_id: doc_matrix[i] for i, ts in enumerate(corpus)}
    digests = {ts.source_id: _token_digest(ts.tokens) for ts in corpus}
    if flagged:
        logger.warning("%d comments had no in-vocabulary tokens; zero vectors assigned",
                       len(flagged))
    return DocEmbeddingModel(word_model, doc_vectors, frozenset(flagged),
                             inference_params or DocInferenceParams(seed=params.seed),
                             digests)
