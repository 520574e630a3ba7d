"""Word and comment embeddings trained with negative sampling.

Word vectors are trained CBOW-style (predict a token from the mean of its
context vectors) or skip-gram-style; comment vectors use the
distributed-memory variant where the comment vector is averaged into the
context. Inference for unseen comments runs gradient steps on a fresh
comment vector while the word matrices stay frozen.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .textprep import TokenStream

logger = logging.getLogger(__name__)

NOISE_EXPONENT = 0.75
# comments per inference slice: bounds infer_many's memory on long inputs
INFER_BATCH = 256


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
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))


def cosine_distance(u: np.ndarray, v: np.ndarray) -> float:
    return 1.0 - cosine_similarity(u, v)


# -- negative-sampling objective ------------------------------------------
#
# For one (context, center) pair with mean input vector h and negative draws
# n_1..n_K the loss is  -log s(u_c . h) - sum_k log s(-u_{n_k} . h)  where s
# is the logistic function. These two functions are the reference definition.
# Training applies exactly these gradients through _output_step, and
# test_embeddings.py's TestTrainingStep ties one pass of each mode to them.

def negative_sampling_loss(w_in: np.ndarray, w_out: np.ndarray,
                           context: Sequence[int], center: int,
                           negatives: Sequence[int]) -> float:
    h = w_in[np.asarray(context)].mean(axis=0)
    s_pos = float(w_out[center] @ h)
    loss = float(np.logaddexp(0.0, -s_pos))
    if len(negatives):
        s_neg = w_out[np.asarray(negatives)] @ h
        loss += float(np.logaddexp(0.0, s_neg).sum())
    return loss


def negative_sampling_gradients(w_in: np.ndarray, w_out: np.ndarray,
                                context: Sequence[int], center: int,
                                negatives: Sequence[int]):
    """Full-matrix analytic gradients of negative_sampling_loss.

    Returns (loss, grad_in, grad_out) with grads shaped like the matrices;
    rows not involved in the pair are zero.
    """
    rows = np.asarray(context)
    h = w_in[rows].mean(axis=0)
    targets = np.concatenate(([center], np.asarray(negatives, dtype=int)))
    scores = w_out[targets] @ h
    g = _sigmoid(scores)
    g[0] -= 1.0
    loss = float(np.logaddexp(0.0, -scores[0]) + np.logaddexp(0.0, scores[1:]).sum())
    grad_h = g @ w_out[targets]
    grad_in = np.zeros_like(w_in)
    np.add.at(grad_in, rows, grad_h / len(rows))
    grad_out = np.zeros_like(w_out)
    np.add.at(grad_out, targets, g[:, None] * h[None, :])
    return loss, grad_in, grad_out


class _NoiseTable:
    """Unigram^0.75 noise distribution with deterministic inverse-CDF draws."""

    def __init__(self, counts: np.ndarray):
        weights = counts.astype(float) ** NOISE_EXPONENT
        self.cum = np.cumsum(weights / weights.sum())
        self.cum[-1] = 1.0

    def draw(self, rng: np.random.Generator, k: int, exclude: int) -> np.ndarray:
        idx = np.searchsorted(self.cum, rng.random(k), side="right")
        return idx[idx != exclude]


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
        self._noise = _NoiseTable(counts) if len(vocab) else None

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
        _write_vector_file(prefix.with_suffix(".vec"), self._tokens, self.vectors)
        _write_vector_file(prefix.with_suffix(".out"), self._tokens, self.out_vectors)
        meta = {
            "params": self.params.__dict__,
            "counts": {t: int(c) for t, c in zip(self._tokens, self.counts)},
            "epoch_losses": self.epoch_losses,
        }
        _write_json(prefix.with_suffix(".meta.json"), meta)

    @classmethod
    def load(cls, prefix) -> "WordEmbeddingModel":
        prefix = Path(prefix)
        tokens, vectors = _read_vector_file(prefix.with_suffix(".vec"))
        out_tokens, out_vectors = _read_vector_file(prefix.with_suffix(".out"))
        if tokens != out_tokens:
            raise EmbeddingError("input/output vector files disagree on vocabulary")
        with open(prefix.with_suffix(".meta.json"), encoding="utf-8") as fh:
            meta = json.load(fh)
        # files written while training had a thread pool still carry "workers"
        meta["params"].pop("workers", None)
        params = WordTrainingParams(**meta["params"])
        counts = np.array([meta["counts"][t] for t in tokens], dtype=np.int64)
        vocab = {t: i for i, t in enumerate(tokens)}
        return cls(vocab, vectors, out_vectors, counts, params, meta.get("epoch_losses"))


def _format_float(x: float) -> str:
    return repr(float(x))


def _write_vector_file(path: Path, keys: Sequence[str], matrix: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{matrix.shape[0]} {matrix.shape[1]}\n")
        for key, row in zip(keys, matrix):
            if any(ch.isspace() for ch in key):
                raise EmbeddingError(f"key {key!r} contains whitespace, cannot serialize")
            fh.write(key + " " + " ".join(_format_float(x) for x in row) + "\n")


def _read_vector_file(path: Path) -> Tuple[List[str], np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        n, d = int(header[0]), int(header[1])
        keys = []
        matrix = np.empty((n, d), dtype=float)
        for i in range(n):
            parts = fh.readline().rstrip("\n").split(" ")
            keys.append(parts[0])
            matrix[i] = [float(x) for x in parts[1:]]
    return keys, matrix


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, ensure_ascii=False, indent=2, sort_keys=True)
        fh.write("\n")


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


class _LrSchedule:
    """Linear decay over the total number of training positions."""

    def __init__(self, initial: float, final: float, total: int):
        self.initial = initial
        self.final = final
        self.total = max(total, 1)
        self.done = 0

    def next(self) -> float:
        lr = self.initial - (self.initial - self.final) * (self.done / self.total)
        self.done += 1
        return max(lr, self.final)


def _output_step(w_out, h, centre, negatives, lr):
    """Output side of one negative-sampling step on input vector h: scores the
    centre and its negatives, applies their w_out update in place and returns
    (loss, gradient with respect to h)."""
    targets = np.concatenate(([centre], negatives))
    w = w_out[targets]
    scores = w @ h
    g = _sigmoid(scores)
    g[0] -= 1.0
    loss = float(np.logaddexp(0.0, -scores[0]) + np.logaddexp(0.0, scores[1:]).sum())
    np.add.at(w_out, targets, (-lr) * g[:, None] * h[None, :])
    return loss, g @ w


def _train_doc(w_in, w_out, noise, params, doc, lr_sched, rng, doc_vec):
    """One pass over one document; returns the accumulated loss.

    CBOW predicts each centre from the mean of its window; with doc_vec given
    (DM), the document vector is one more context row and is trained along
    with the word matrices. Skip-gram predicts each window token from the
    centre row alone.
    """
    total_loss = 0.0
    k, window = params.negative_samples, params.window
    skipgram = params.method == "skipgram"
    for pos, centre in enumerate(doc):
        lr = lr_sched.next()
        context = doc[max(0, pos - window):pos] + doc[pos + 1:pos + 1 + window]
        if skipgram:
            for target in context:
                loss, grad_h = _output_step(w_out, w_in[centre], target,
                                            noise.draw(rng, k, exclude=target), lr)
                total_loss += loss
                w_in[centre] -= lr * grad_h
            continue
        negatives = noise.draw(rng, k, exclude=centre)
        if not context and doc_vec is None:
            continue
        rows = np.asarray(context, dtype=int)
        m = len(context) + (doc_vec is not None)
        h = w_in[rows].sum(axis=0)
        if doc_vec is not None:
            h += doc_vec
        h /= m
        loss, grad_h = _output_step(w_out, h, centre, negatives, lr)
        total_loss += loss
        if len(rows):
            np.add.at(w_in, rows, (-lr / m) * grad_h)
        if doc_vec is not None:
            doc_vec -= (lr / m) * grad_h
    return total_loss


def _index_corpus(corpus: Sequence[TokenStream], vocab: Dict[str, int]) -> List[List[int]]:
    return [[vocab[t] for t in ts.tokens if t in vocab] for ts in corpus]


def _train(corpus: List[TokenStream], params: WordTrainingParams, with_docs: bool):
    """The driver of both trainers: vocabulary, initial matrices, noise table,
    learning-rate schedule and epochs. Returns (word model, comment rows):
    with_docs, one DM-trained row per comment, drawn from the rng right after
    the word rows; else None."""
    if not corpus:
        raise EmbeddingError("training corpus is empty")
    vocab, counts = _build_vocab(corpus, params.min_count)
    rng = np.random.default_rng(params.seed)
    w_in = (rng.random((len(vocab), params.dim)) - 0.5) / params.dim
    w_out = np.zeros((len(vocab), params.dim))
    docs = (rng.random((len(corpus), params.dim)) - 0.5) / params.dim if with_docs else None
    noise = _NoiseTable(counts)
    indexed = _index_corpus(corpus, vocab)
    total_positions = sum(len(d) for d in indexed) * params.epochs
    lr_sched = _LrSchedule(params.initial_lr, params.final_lr, total_positions)
    epoch_losses = []
    for epoch in range(params.epochs):
        loss = 0.0
        for i, doc in enumerate(indexed):
            loss += _train_doc(w_in, w_out, noise, params, doc, lr_sched, rng,
                               None if docs is None else docs[i])
        epoch_losses.append(loss)
        logger.debug("epoch %d/%d loss %.4f", epoch + 1, params.epochs, loss)
    return WordEmbeddingModel(vocab, w_in, w_out, counts, params, epoch_losses), docs


def train_word_embeddings(corpus: Iterable[TokenStream],
                          params: WordTrainingParams) -> WordEmbeddingModel:
    """Train a word embedding model with negative sampling.

    Training is serial and fully deterministic for a fixed seed. The
    per-epoch training loss is recorded on the model.
    """
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
        seed, then `steps` passes over its in-vocabulary positions. Each
        position draws k negatives from that rng, drops those equal to its
        centre token and takes one gradient step on the comment vector alone,
        at a learning rate decaying linearly over the comment's own positions
        x steps. The word matrices stay frozen.

        Comments run longest first, in slices of INFER_BATCH comments, so
        memory stays at one slice's positions x dim however many comments
        are given. No row's arithmetic depends on another row, so a comment
        gets the same vector in any batch and any slice. All-OOV comments get
        a zero vector and the flag.
        """
        indexed = _index_corpus(streams, self.word_model.vocab)
        lengths = np.array([len(d) for d in indexed], dtype=np.int64)
        vectors = np.zeros((len(streams), self.dim))
        order = np.argsort(-lengths, kind="stable")[:np.count_nonzero(lengths)]
        for start in range(0, len(order), INFER_BATCH):
            rows = order[start:start + INFER_BATCH]
            vectors[rows] = self._infer_sorted([indexed[i] for i in rows])
        return vectors, lengths == 0

    def _infer_sorted(self, indexed: List[List[int]]) -> np.ndarray:
        """infer_many's kernel on non-empty index lists, longest first.

        Because every comment reseeds, one pre-drawn stream serves the whole
        slice: at global step t each comment still running reads the same k
        negatives. Sorting makes the running comments a prefix of the slice.
        """
        wm = self.word_model
        p = self.inference_params
        k, window, dim = wm.params.negative_samples, wm.params.window, self.dim
        # one row per position, comment by comment
        n = np.array([len(d) for d in indexed], dtype=np.int64)
        starts = np.cumsum(n) - n
        centres = np.array([t for d in indexed for t in d], dtype=np.intp)
        pos = np.arange(len(centres)) - np.repeat(starts, n)
        n_at = np.repeat(n, n)
        # context sums (left then right window, in order) and context sizes
        # incl. the comment vector; fixed, since the word matrices are frozen
        context = np.zeros((len(centres), dim))
        m = np.ones(len(centres), dtype=np.int64)
        for offset in (*range(-window, 0), *range(1, window + 1)):
            valid = np.flatnonzero((pos + offset >= 0) & (pos + offset < n_at))
            context[valid] += wm.vectors[centres[valid + offset]]
            m[valid] += 1
        total = n * p.steps
        rng = np.random.default_rng(p.seed)
        draws = rng.random(dim + int(total[0]) * k)
        negatives = np.searchsorted(wm._noise.cum, draws[dim:], side="right").reshape(-1, k)
        docs = np.tile((draws[:dim] - 0.5) / dim, (len(indexed), 1))
        targets = np.empty((len(indexed), k + 1), dtype=np.intp)  # centre, negatives
        active = len(indexed)
        for t in range(int(total[0])):
            while total[active - 1] <= t:
                active -= 1
            rows = starts[:active] + t % n[:active]
            m_t = m[rows]
            h = (context[rows] + docs[:active]) / m_t[:, None]
            tg = targets[:active]
            tg[:, 0] = centres[rows]
            tg[:, 1:] = negatives[t]
            w = wm.out_vectors[tg]
            g = _sigmoid((w * h[:, None, :]).sum(axis=2))
            g[:, 0] -= 1.0
            g[:, 1:] *= tg[:, 1:] != tg[:, :1]
            lr = np.maximum(p.learning_rate - (p.learning_rate - p.min_learning_rate)
                            * (t / total[:active]), p.min_learning_rate)
            docs[:active] -= (lr / m_t)[:, None] * (g[:, :, None] * w).sum(axis=1)
        return docs

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
        _write_vector_file(prefix.with_suffix(".docs"), ids, matrix)
        meta = {"flagged_ids": sorted(self.flagged_ids),
                "inference_params": self.inference_params.__dict__}
        if self.token_digests is not None:
            meta["token_digests"] = self.token_digests
        _write_json(prefix.with_suffix(".docs.meta.json"), meta)

    @classmethod
    def load(cls, prefix) -> "DocEmbeddingModel":
        prefix = Path(prefix)
        word_model = WordEmbeddingModel.load(prefix)
        ids, matrix = _read_vector_file(prefix.with_suffix(".docs"))
        with open(prefix.with_suffix(".docs.meta.json"), encoding="utf-8") as fh:
            meta = json.load(fh)
        doc_vectors = {i: matrix[k] for k, i in enumerate(ids)}
        return cls(word_model, doc_vectors, frozenset(meta["flagged_ids"]),
                   DocInferenceParams(**meta["inference_params"]),
                   meta.get("token_digests"))


def train_doc_embeddings(corpus: Iterable[TokenStream], params: WordTrainingParams,
                         inference_params: Optional[DocInferenceParams] = None) -> DocEmbeddingModel:
    """Jointly train word vectors and one vector per comment (DM style).

    Comments with no in-vocabulary tokens get a zero vector and are flagged.
    """
    corpus = list(corpus)
    if params.method != "cbow":
        raise EmbeddingError("comment embeddings require the cbow method")
    word_model, doc_matrix = _train(corpus, params, with_docs=True)
    flagged = set()
    for i, ts in enumerate(corpus):
        if not any(t in word_model.vocab for t in ts.tokens):
            doc_matrix[i] = 0.0
            flagged.add(ts.source_id)
    doc_vectors = {ts.source_id: doc_matrix[i] for i, ts in enumerate(corpus)}
    digests = {ts.source_id: _token_digest(ts.tokens) for ts in corpus}
    if flagged:
        logger.warning("%d comments had no in-vocabulary tokens; zero vectors assigned",
                       len(flagged))
    return DocEmbeddingModel(word_model, doc_vectors, frozenset(flagged),
                             inference_params or DocInferenceParams(seed=params.seed),
                             digests)
