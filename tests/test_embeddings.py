import collections
import hashlib
import itertools
import json
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metacomment import embeddings
from metacomment.embeddings import (
    DocEmbeddingModel,
    DocInferenceParams,
    EmbeddingError,
    WordEmbeddingModel,
    WordTrainingParams,
    cosine_similarity,
    train_doc_embeddings,
    train_word_embeddings,
)
from metacomment.textprep import TokenStream

from oracles import cosine_distance, negative_sampling_gradients, negative_sampling_loss
from synthdata import doc_cluster_corpus, synonym_word_corpus

TOY_PARAMS = WordTrainingParams(dim=16, window=1, min_count=2, epochs=5,
                                negative_samples=5, seed=7)


def _edit_json(change):
    return lambda path: path.write_text(json.dumps(change(json.loads(path.read_text()))))


def _edit_array(change):
    return lambda path: np.save(path, change(np.load(path)))


def _second_key_repeated(text):
    """A vector file's text with the second row's key replaced by the first's."""
    lines = text.split("\n")
    lines[2] = lines[1].split(" ")[0] + lines[2][lines[2].index(" "):]
    return "\n".join(lines)


@pytest.fixture(scope="module")
def toy_model():
    return train_word_embeddings(synonym_word_corpus(0), TOY_PARAMS)


@pytest.fixture(scope="module")
def toy_doc_model():
    streams, _ = doc_cluster_corpus(3)
    params = WordTrainingParams(dim=16, window=3, min_count=1, epochs=40,
                                initial_lr=0.05, seed=11)
    return train_doc_embeddings(streams, params)


class TestCosine:
    def test_identical_vectors_distance_zero(self):
        v = np.array([1.0, 2.0, -3.0])
        assert cosine_distance(v, v) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0

    def test_hand_value(self):
        d = cosine_distance(np.array([1.0, 0.0]), np.array([0.5, 0.5]))
        assert d == pytest.approx(1 - np.sqrt(2) / 2, abs=1e-12)

    def test_zero_vector_defined_as_zero_similarity(self):
        assert cosine_similarity(np.zeros(3), np.array([1.0, 0.0, 0.0])) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(EmbeddingError, match="mismatch"):
            cosine_similarity(np.zeros(3), np.zeros(4))

    def test_symmetry_and_scale_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            u, v = rng.normal(size=5), rng.normal(size=5)
            assert cosine_similarity(u, v) == pytest.approx(cosine_similarity(v, u))
            assert cosine_similarity(3.7 * u, v) == pytest.approx(
                cosine_similarity(u, v), abs=1e-12)


class TestGradientCheck:
    """Analytic negative-sampling gradients vs central finite differences."""

    H = 1e-5

    def _check(self, w_in, w_out, context, center, negatives):
        loss, grad_in, grad_out = negative_sampling_gradients(
            w_in, w_out, context, center, negatives)
        max_rel = 0.0
        for matrix, grad in ((w_in, grad_in), (w_out, grad_out)):
            for i, j in itertools.product(range(matrix.shape[0]), range(matrix.shape[1])):
                orig = matrix[i, j]
                matrix[i, j] = orig + self.H
                up = negative_sampling_loss(w_in, w_out, context, center, negatives)
                matrix[i, j] = orig - self.H
                down = negative_sampling_loss(w_in, w_out, context, center, negatives)
                matrix[i, j] = orig
                numeric = (up - down) / (2 * self.H)
                denom = max(abs(numeric), abs(grad[i, j]), 1e-8)
                max_rel = max(max_rel, abs(numeric - grad[i, j]) / denom)
        return max_rel

    def test_micro_model_gradients(self):
        rng = np.random.default_rng(5)
        w_in = rng.normal(scale=0.5, size=(12, 5))
        w_out = rng.normal(scale=0.5, size=(12, 5))
        max_rel = self._check(w_in, w_out, context=[0, 3, 7], center=2,
                              negatives=[4, 9, 11])
        assert max_rel < 1e-4

    def test_gradients_with_duplicate_rows(self):
        # repeated context and negative indices must accumulate
        rng = np.random.default_rng(6)
        w_in = rng.normal(scale=0.5, size=(8, 4))
        w_out = rng.normal(scale=0.5, size=(8, 4))
        max_rel = self._check(w_in, w_out, context=[1, 1, 2], center=0,
                              negatives=[5, 5, 6])
        assert max_rel < 1e-4


class TestWordTraining:
    def test_min_count_above_corpus_size_is_error(self):
        corpus = [TokenStream(("a", "b", "a"), "d0")]
        with pytest.raises(EmbeddingError, match="vocabulary"):
            train_word_embeddings(corpus, WordTrainingParams(dim=4, min_count=10))

    def test_empty_corpus_is_error(self):
        with pytest.raises(EmbeddingError, match="empty"):
            train_word_embeddings([], TOY_PARAMS)

    def test_self_similarity(self, toy_model):
        for token in ("kaffee", "tee", "tasse"):
            v = toy_model.vector(token)
            assert cosine_similarity(v, v) == pytest.approx(1.0, abs=1e-6)

    def test_vocab_respects_min_count(self, toy_model):
        assert all(c >= TOY_PARAMS.min_count for c in toy_model.counts)

    def test_loss_recorded_per_epoch(self, toy_model):
        assert len(toy_model.epoch_losses) == TOY_PARAMS.epochs
        assert all(np.isfinite(l) for l in toy_model.epoch_losses)

    def test_planted_synonyms_beat_all_pairs(self):
        # identical-context pair must come out as the most similar pair of
        # distinct vocabulary words for at least 95 of 100 seeds
        hits = 0
        for seed in range(100):
            model = train_word_embeddings(
                synonym_word_corpus(seed, n_sentences=200),
                WordTrainingParams(dim=16, window=1, min_count=2, epochs=5, seed=seed))
            tokens = list(model.vocab)
            target = cosine_similarity(model.vector("kaffee"), model.vector("tee"))
            best = max(
                cosine_similarity(model.vector(a), model.vector(b))
                for a, b in itertools.combinations(tokens, 2))
            if target == pytest.approx(best):
                hits += 1
        assert hits >= 95

    def test_deterministic_given_seed(self):
        corpus = synonym_word_corpus(1, n_sentences=60)
        m1 = train_word_embeddings(corpus, TOY_PARAMS)
        m2 = train_word_embeddings(corpus, TOY_PARAMS)
        assert np.array_equal(m1.vectors, m2.vectors)
        assert np.array_equal(m1.out_vectors, m2.out_vectors)

    def test_skipgram_runs_and_differs_from_cbow(self):
        corpus = synonym_word_corpus(2, n_sentences=80)
        sg = train_word_embeddings(corpus, WordTrainingParams(
            dim=8, window=2, min_count=2, epochs=2, method="skipgram", seed=3))
        cb = train_word_embeddings(corpus, WordTrainingParams(
            dim=8, window=2, min_count=2, epochs=2, method="cbow", seed=3))
        assert sg.vectors.shape == cb.vectors.shape
        assert not np.array_equal(sg.vectors, cb.vectors)


class LrSchedule:
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


def draw_negatives(cdf, rng, k, exclude):
    """k inverse-CDF draws from the noise distribution, minus those equal to
    the predicted token."""
    idx = np.searchsorted(cdf, rng.random(k), side="right")
    return idx[idx != exclude]


def reference_training(corpus, params, vocab, counts, with_docs, batch=1):
    """SGD on the reference gradients in minibatches of `batch` examples, with
    the trainers' draw order: word rows, then (DM) one row per comment, then
    per example its negatives. In DM the comment vector is one more w_in row.
    Every example of a batch takes its gradients at the matrices as they were
    at the batch's start; the summed steps are applied at its end. Batches
    run across comments and end with the epoch.

    Returns (w_in, w_out, epoch losses, number of negatives dropped because
    they equal the predicted token, the w_in rows that more than one example
    of a batch read).
    """
    rng = np.random.default_rng(params.seed)
    dim, k, window = params.dim, params.negative_samples, params.window
    w_in = (rng.random((len(vocab), dim)) - 0.5) / dim
    if with_docs:
        w_in = np.vstack([w_in, (rng.random((len(corpus), dim)) - 0.5) / dim])
    w_out = np.zeros((len(vocab), dim))
    cdf = embeddings._noise_cdf(counts)
    docs = [[vocab[t] for t in ts.tokens if t in vocab] for ts in corpus]
    lr_sched = LrSchedule(params.initial_lr, params.final_lr,
                          sum(map(len, docs)) * params.epochs)
    losses, dropped, shared = [], 0, set()
    pending = []

    def flush():
        nonlocal w_in, w_out
        reads = collections.Counter(row for context, *_ in pending for row in set(context))
        shared.update(row for row, n in reads.items() if n > 1)
        steps = [(lr, negative_sampling_gradients(w_in, w_out, context, target, negatives))
                 for context, target, negatives, lr in pending if context]
        pending.clear()
        for lr, (_, grad_in, grad_out) in steps:
            w_in = w_in - lr * grad_in
            w_out = w_out - lr * grad_out
        return sum(loss for _, (loss, _, _) in steps)

    for _ in range(params.epochs):
        total = 0.0
        for d, doc in enumerate(docs):
            for pos, centre in enumerate(doc):
                lr = lr_sched.next()
                window_rows = doc[max(0, pos - window):pos] + doc[pos + 1:pos + 1 + window]
                if params.method == "skipgram":
                    examples = [([centre], target) for target in window_rows]
                else:
                    examples = [(window_rows + ([len(vocab) + d] if with_docs else []), centre)]
                for context, target in examples:
                    negatives = draw_negatives(cdf, rng, k, exclude=target)
                    dropped += k - len(negatives)
                    pending.append((context, target, negatives, lr))
                    if len(pending) == batch:
                        total += flush()
        total += flush()
        losses.append(total)
    return w_in, w_out, losses, dropped, shared


MODES = pytest.mark.parametrize("method,with_docs", [("cbow", False), ("skipgram", False),
                                                     ("cbow", True)])


class TestTrainingStep:
    """The trainers against reference_training: a document with repeated
    tokens and a one-token document, over a vocabulary small enough that
    drawn negatives hit the predicted token. At one example per batch this
    is plain SGD; in larger batches one batch reads a token row, and in DM
    the comment row, for several examples."""

    CORPUS = [TokenStream(("a", "b", "a", "c", "a", "b", "d", "a", "c"), "long"),
              TokenStream(("b",), "single")]

    @staticmethod
    def _params(method):
        return WordTrainingParams(dim=6, window=2, min_count=1, epochs=2, method=method,
                                  negative_samples=5, initial_lr=0.2, seed=3)

    def _train(self, params, with_docs):
        if with_docs:
            dm = train_doc_embeddings(self.CORPUS, params)
            trained = np.array([dm.doc_vectors[ts.source_id] for ts in self.CORPUS])
            return dm.word_model, trained
        return train_word_embeddings(self.CORPUS, params), None

    def _check(self, method, with_docs, batch):
        """Trains at TRAIN_BATCH = batch and requires the reference's matrices
        and losses; returns the reference's w_in rows read by several examples
        of one batch."""
        params = self._params(method)
        model, trained = self._train(params, with_docs)
        w_in, w_out, losses, dropped, shared = reference_training(
            self.CORPUS, params, model.vocab, model.counts, with_docs, batch)
        assert dropped > 0
        assert np.abs(model.vectors - w_in[:len(model.vocab)]).max() <= 1e-12
        assert np.abs(model.out_vectors - w_out).max() <= 1e-12
        assert np.allclose(model.epoch_losses, losses, rtol=0, atol=1e-12)
        if with_docs:
            assert np.abs(trained - w_in[len(model.vocab):]).max() <= 1e-12
        return shared, len(model.vocab)

    @MODES
    def test_matches_reference_gradients(self, method, with_docs, monkeypatch):
        monkeypatch.setattr(embeddings, "TRAIN_BATCH", 1)
        self._check(method, with_docs, 1)

    @MODES
    @pytest.mark.parametrize("batch", [4, None])
    def test_matches_reference_in_minibatches(self, method, with_docs, batch, monkeypatch):
        if batch is None:
            batch = embeddings.TRAIN_BATCH
        else:
            monkeypatch.setattr(embeddings, "TRAIN_BATCH", batch)
        shared, n_words = self._check(method, with_docs, batch)
        assert any(row < n_words for row in shared)
        assert not with_docs or any(row >= n_words for row in shared)

    @MODES
    def test_one_kernel_call_per_batch(self, method, with_docs, monkeypatch):
        """Training runs each batch of its planned chunks with one _step call."""
        params = self._params(method)
        window = params.window
        if method == "skipgram":
            examples = sum(min(pos, window) + min(len(ts.tokens) - 1 - pos, window)
                           for ts in self.CORPUS for pos in range(len(ts.tokens)))
        else:
            examples = sum(len(ts.tokens) for ts in self.CORPUS)
        calls = []
        kernel = embeddings._step

        def spy(w_in, w_out, plan, frozen=None):
            calls.append(len(plan.tg))
            return kernel(w_in, w_out, plan, frozen)

        monkeypatch.setattr(embeddings, "TRAIN_BATCH", 4)
        monkeypatch.setattr(embeddings, "_step", spy)
        self._train(params, with_docs)
        assert len(calls) == math.ceil(examples / 4) * params.epochs
        assert sum(calls) == examples * params.epochs

    @MODES
    def test_negatives_drawn_per_batch(self, method, with_docs, monkeypatch):
        """After the initial matrices, no draw is larger than one chunk's
        negatives, the chunk sized from the budget, so memory does not grow
        with the corpus: a corpus twice as large draws no more at once."""
        params = WordTrainingParams(dim=4, window=2, min_count=1, epochs=2, method=method,
                                    negative_samples=3, seed=1)
        width = 1 if method == "skipgram" else 2 * params.window + with_docs
        # two batches' plans in the quarter of the budget that plans take
        monkeypatch.setattr(embeddings, "SLICE_BYTES", 4 * 2 * embeddings.TRAIN_BATCH
                            * embeddings._plan_bytes(width, params.negative_samples))
        largest = []
        for n_sentences in (30, 60):
            sizes = []
            default_rng = np.random.default_rng

            class Recording:
                def __init__(self, seed):
                    self._rng = default_rng(seed)

                def random(self, size=None):
                    sizes.append(int(np.prod(size)))
                    return self._rng.random(size)

            corpus = synonym_word_corpus(1, n_sentences=n_sentences)
            monkeypatch.setattr(np.random, "default_rng", Recording)
            if with_docs:
                model = train_doc_embeddings(corpus, params).word_model
            else:
                model = train_word_embeddings(corpus, params)
            monkeypatch.setattr(np.random, "default_rng", default_rng)
            initial = [len(model.vocab) * params.dim] + ([len(corpus) * params.dim]
                                                         if with_docs else [])
            assert sizes[:len(initial)] == initial
            draws = sizes[len(initial):]
            assert len(draws) > params.epochs
            largest.append(max(draws))
        assert largest[0] == largest[1] == 2 * embeddings.TRAIN_BATCH * params.negative_samples


class TestMostSimilar:
    def test_n_zero(self, toy_model):
        assert toy_model.most_similar("kaffee", 0) == []

    def test_planted_synonym_first(self, toy_model):
        assert toy_model.most_similar("kaffee", 3)[0][0] == "tee"

    def test_query_excluded_and_sorted(self, toy_model):
        result = toy_model.most_similar("kaffee", 5)
        names = [t for t, _ in result]
        assert "kaffee" not in names
        sims = [s for _, s in result]
        assert sims == sorted(sims, reverse=True)

    def test_oov_error_names_word(self, toy_model):
        with pytest.raises(EmbeddingError, match="quinoa"):
            toy_model.most_similar("quinoa", 3)

    def test_length_capped_by_vocab(self, toy_model):
        result = toy_model.most_similar("kaffee", 10_000)
        assert len(result) == len(toy_model) - 1


class TestDocEmbeddings:
    def test_vector_shapes(self, toy_doc_model):
        assert all(v.shape == (16,) for v in toy_doc_model.doc_vectors.values())

    def test_identical_comments_more_similar_than_average(self):
        streams, _ = doc_cluster_corpus(8)
        dup = TokenStream(streams[0].tokens, source_id="dup0")
        corpus = streams + [dup]
        params = WordTrainingParams(dim=16, window=3, min_count=1, epochs=40,
                                    initial_lr=0.05, seed=5)
        model = train_doc_embeddings(corpus, params)
        vecs = list(model.doc_vectors.values())
        pair = cosine_similarity(model.doc_vectors[streams[0].source_id],
                                 model.doc_vectors["dup0"])
        sims = [cosine_similarity(u, v) for u, v in itertools.combinations(vecs, 2)]
        assert pair > np.mean(sims)

    def test_empty_comment_zero_vector_flagged(self):
        streams, _ = doc_cluster_corpus(9)
        corpus = streams + [TokenStream((), source_id="empty"),
                            TokenStream(("zzz-once", "zzz-twice"), source_id="oov")]
        params = WordTrainingParams(dim=8, window=2, min_count=2, epochs=2, seed=5)
        model = train_doc_embeddings(corpus, params)
        assert {"empty", "oov"} <= model.flagged_ids
        assert all(ts.source_id not in model.flagged_ids for ts in streams
                   if any(t in model.word_model.vocab for t in ts.tokens))
        for cid in model.flagged_ids:
            assert np.array_equal(model.doc_vectors[cid], np.zeros(8))


class TestInference:
    def test_deterministic(self, toy_doc_model):
        ts = TokenStream(("kaffee", "tasse", "bohne", "milch"), "q")
        v1 = toy_doc_model.infer(ts)[0]
        v2 = toy_doc_model.infer(ts)[0]
        assert np.array_equal(v1, v2)

    def test_word_matrices_frozen(self, toy_doc_model, monkeypatch):
        """Inference writes neither the model's matrices nor, in any kernel
        call, w_out or the word rows of the w_in it steps; the comment row
        moves in every call."""
        wm = toy_doc_model.word_model

        def digests():
            return (hashlib.sha256(wm.vectors.tobytes()).hexdigest(),
                    hashlib.sha256(wm.out_vectors.tobytes()).hexdigest())

        before = digests()
        moved = []
        kernel = embeddings._batch_step

        def spy(w_in, w_out, *args, frozen):
            word_rows, out, comment = w_in[:frozen].copy(), w_out.copy(), w_in[frozen:].copy()
            loss = kernel(w_in, w_out, *args, frozen=frozen)
            assert np.array_equal(w_in[:frozen], word_rows)
            assert np.array_equal(w_out, out)
            moved.append(not np.array_equal(w_in[frozen:], comment))
            return loss

        monkeypatch.setattr(embeddings, "_batch_step", spy)
        toy_doc_model.infer(TokenStream(("kaffee", "espresso", "milch") * 30, "q"))
        assert len(moved) > 1 and all(moved)
        assert digests() == before

    def test_inferring_training_comment_lands_near_trained_vector(self, toy_doc_model):
        streams, _ = doc_cluster_corpus(3)
        ts = streams[0]
        inferred = toy_doc_model.infer(TokenStream(ts.tokens, "fresh"))[0]
        trained = toy_doc_model.doc_vectors[ts.source_id]
        assert cosine_similarity(inferred, trained) > 0.5

    def test_all_oov_zero_vector_and_flag(self, toy_doc_model):
        vector, all_oov = toy_doc_model.infer(TokenStream(("xyz", "qqq"), "q"))
        assert all_oov
        assert np.array_equal(vector, np.zeros(16))


def reference_infer(dm, ts, batch=1):
    """One comment's inference on the reference gradients: the comment vector
    is one more w_in row in the context. The comment's positions x steps
    examples run in minibatches of `batch`: each example takes its gradient
    at the vector as it was at the batch's start, and the summed steps go in
    at the batch's end. At batch 1 this is plain SGD, position by position.

    Returns (vector, all_oov, number of negatives dropped as the centre).
    """
    wm = dm.word_model
    p = dm.inference_params
    indices = [wm.vocab[t] for t in ts.tokens if t in wm.vocab]
    if not indices:
        return np.zeros(dm.dim), True, 0
    k, window = wm.params.negative_samples, wm.params.window
    rng = np.random.default_rng(p.seed)
    doc_row = len(wm.vocab)
    w_in = np.vstack([wm.vectors, (rng.random(dm.dim) - 0.5) / dm.dim])
    lr_sched = LrSchedule(p.learning_rate, p.min_learning_rate, len(indices) * p.steps)
    dropped = 0
    pending = []

    def flush():
        steps = [lr * negative_sampling_gradients(w_in, wm.out_vectors, context, centre,
                                                  negatives)[1][doc_row]
                 for context, centre, negatives, lr in pending]
        pending.clear()
        for step in steps:
            w_in[doc_row] -= step

    for _ in range(p.steps):
        for pos, centre in enumerate(indices):
            lr = lr_sched.next()
            context = indices[max(0, pos - window):pos] + indices[pos + 1:pos + 1 + window]
            negatives = draw_negatives(wm._noise_cdf, rng, k, exclude=centre)
            dropped += k - len(negatives)
            pending.append((context + [doc_row], centre, negatives, lr))
            if len(pending) == batch:
                flush()
    flush()
    return w_in[doc_row], False, dropped


@pytest.fixture(scope="module")
def short_schedule_model(toy_doc_model):
    """The toy doc model with a 2-step inference schedule, so the reference
    loop stays fast on long comments."""
    return DocEmbeddingModel(toy_doc_model.word_model, toy_doc_model.doc_vectors,
                             toy_doc_model.flagged_ids, DocInferenceParams(steps=2, seed=3),
                             toy_doc_model.token_digests)


class TestBatchedInference:
    def _batch(self, model):
        vocab = sorted(model.word_model.vocab)
        rng = np.random.default_rng(4)
        streams = [TokenStream(tuple(rng.choice(vocab, size=n)), f"len{n}")
                   for n in range(1, 151)]
        streams[10:10] = [
            TokenStream(("kaffee",), "one-token"),
            TokenStream(("kaffee",) * 6 + ("tasse", "kaffee"), "repeated"),
            TokenStream(("xyz", "qqq"), "all-oov"),
            TokenStream((), "empty"),
            TokenStream(("xyz", "kaffee", "qqq"), "oov-around"),
        ]
        return streams

    def _check(self, model, batch):
        """infer_many against reference_infer at `batch` examples per minibatch;
        requires a comment longer than one batch and a negative equal to its
        centre."""
        streams = self._batch(model)
        vectors, all_oov = model.infer_many(streams)
        assert vectors.shape == (len(streams), 16)
        dropped = 0
        for ts, vec, flag in zip(streams, vectors, all_oov):
            ref, ref_flag, ref_dropped = reference_infer(model, ts, batch)
            assert flag == ref_flag, ts.source_id
            assert np.abs(vec - ref).max() <= 1e-12, ts.source_id
            dropped += ref_dropped
        # some drawn negative was the centre token, so the exclusion was exercised
        assert dropped > 0
        assert list(all_oov).count(True) == 2
        longest = max(sum(t in model.word_model.vocab for t in ts.tokens) for ts in streams)
        assert longest * model.inference_params.steps > batch

    def test_matches_reference_loop(self, short_schedule_model, monkeypatch):
        monkeypatch.setattr(embeddings, "TRAIN_BATCH", 1)
        self._check(short_schedule_model, 1)

    @pytest.mark.parametrize("batch", [4, None])
    def test_matches_reference_in_minibatches(self, short_schedule_model, batch, monkeypatch):
        if batch is None:
            batch = embeddings.TRAIN_BATCH
        else:
            monkeypatch.setattr(embeddings, "TRAIN_BATCH", batch)
        self._check(short_schedule_model, batch)

    def test_rows_do_not_depend_on_the_batch(self, short_schedule_model):
        streams = self._batch(short_schedule_model)[:40]
        vectors, _ = short_schedule_model.infer_many(streams)
        reordered, _ = short_schedule_model.infer_many(streams[::-1])
        assert np.array_equal(reordered[::-1], vectors)
        for ts, vec in zip(streams, vectors):
            assert np.array_equal(short_schedule_model.infer(ts)[0], vec)

    def test_slices_bound_the_kernel_and_keep_results(self, short_schedule_model,
                                                      monkeypatch):
        streams = self._batch(short_schedule_model)[:40]
        whole, _ = short_schedule_model.infer_many(streams)
        sizes = []
        kernel = DocEmbeddingModel._infer_sorted

        def spy(self, indexed):
            sizes.append(len(indexed))
            return kernel(self, indexed)

        monkeypatch.setattr(embeddings, "SLICE_BYTES", 7 * embeddings.TRAIN_BATCH
                            * embeddings._example_bytes(short_schedule_model.word_model.params))
        monkeypatch.setattr(DocEmbeddingModel, "_infer_sorted", spy)
        sliced, all_oov = short_schedule_model.infer_many(streams)
        assert sizes == [7, 7, 7, 7, 7, 3]
        assert sum(sizes) == len(streams) - all_oov.sum()
        assert np.array_equal(sliced, whole)

    def test_one_kernel_call_per_batch_of_each_slice(self, short_schedule_model,
                                                     monkeypatch):
        """A slice takes ceil(its longest comment's positions x steps / TRAIN_BATCH)
        _batch_step calls, each with at most TRAIN_BATCH examples per comment."""
        model = short_schedule_model
        streams = self._batch(model)[:40]
        steps = model.inference_params.steps
        lengths = sorted((n for n in (sum(t in model.word_model.vocab for t in ts.tokens)
                                      for ts in streams) if n), reverse=True)
        calls = []
        kernel = embeddings._batch_step

        def spy(*args, **kwargs):
            calls.append(len(args[3]))
            return kernel(*args, **kwargs)

        monkeypatch.setattr(embeddings, "SLICE_BYTES",
                            7 * 4 * embeddings._example_bytes(model.word_model.params))
        monkeypatch.setattr(embeddings, "TRAIN_BATCH", 4)
        monkeypatch.setattr(embeddings, "_batch_step", spy)
        model.infer_many(streams)
        assert len(calls) == sum(math.ceil(lengths[i] * steps / 4)
                                 for i in range(0, len(lengths), 7))
        assert sum(calls) == sum(lengths) * steps
        assert max(calls) == 7 * 4

    def test_empty_batch(self, toy_doc_model):
        vectors, all_oov = toy_doc_model.infer_many([])
        assert vectors.shape == (0, 16)
        assert all_oov.shape == (0,)


class TestTrainedLookup:
    def test_training_comment_gets_trained_vector(self, toy_doc_model):
        streams, _ = doc_cluster_corpus(3)
        vectors = toy_doc_model.vectors_for(streams[:3])
        for ts, vec in zip(streams[:3], vectors):
            assert np.array_equal(vec, toy_doc_model.doc_vectors[ts.source_id])

    def test_reused_id_with_other_text_is_inferred(self, toy_doc_model, caplog):
        streams, _ = doc_cluster_corpus(3)
        reused = TokenStream(("kaffee", "tasse", "milch"), streams[0].source_id)
        fresh = TokenStream(streams[1].tokens, "fresh")
        with caplog.at_level("WARNING", logger="metacomment.embeddings"):
            vectors = toy_doc_model.vectors_for([streams[0], reused, fresh])
        # one warning, counting the reused id only
        assert [r.getMessage()[:45] for r in caplog.records] == [
            "1 comment(s) reuse a training id with other t"]
        inferred, _ = toy_doc_model.infer_many([reused, fresh])
        assert np.array_equal(vectors[0], toy_doc_model.doc_vectors[streams[0].source_id])
        assert np.array_equal(vectors[1:], inferred)
        assert not np.array_equal(vectors[1], vectors[0])

    def test_model_without_digests_looks_up_by_id(self, tmp_path, toy_doc_model):
        prefix = tmp_path / "docmodel"
        toy_doc_model.save(prefix)
        meta_path = prefix.with_suffix(".docs.meta.json")
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        del meta["token_digests"]
        meta_path.write_text(json.dumps(meta), encoding="utf-8")
        loaded = DocEmbeddingModel.load(prefix)
        assert loaded.token_digests is None
        streams, _ = doc_cluster_corpus(3)
        reused = TokenStream(("kaffee", "tasse", "milch"), streams[0].source_id)
        assert np.array_equal(loaded.vectors_for([reused])[0],
                              toy_doc_model.doc_vectors[streams[0].source_id])


class TestPersistence:
    def test_round_trip(self, tmp_path, toy_model):
        prefix = tmp_path / "model"
        toy_model.save(prefix)
        loaded = WordEmbeddingModel.load(prefix)
        assert loaded.vocab == toy_model.vocab
        assert np.array_equal(loaded.vectors, toy_model.vectors)
        assert np.array_equal(loaded.out_vectors, toy_model.out_vectors)
        assert loaded.params == toy_model.params

    def test_meta_with_workers_key_loads(self, tmp_path, toy_model):
        prefix = tmp_path / "model"
        toy_model.save(prefix)
        meta_path = prefix.with_suffix(".meta.json")
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        meta["params"]["workers"] = 2
        meta_path.write_text(json.dumps(meta), encoding="utf-8")
        loaded = WordEmbeddingModel.load(prefix)
        assert loaded.params == toy_model.params
        assert np.array_equal(loaded.vectors, toy_model.vectors)

    def test_doc_round_trip(self, tmp_path, toy_doc_model):
        prefix = tmp_path / "docmodel"
        toy_doc_model.save(prefix)
        loaded = DocEmbeddingModel.load(prefix)
        assert set(loaded.doc_vectors) == set(toy_doc_model.doc_vectors)
        for key, vec in toy_doc_model.doc_vectors.items():
            assert np.array_equal(vec, loaded.doc_vectors[key])
        assert loaded.inference_params == toy_doc_model.inference_params
        assert loaded.token_digests == toy_doc_model.token_digests
        assert set(loaded.token_digests) == set(toy_doc_model.doc_vectors)

    @pytest.mark.parametrize("suffix,cut,line", [
        (".docs", lambda text: text[:text.rindex("\n", 0, -1) + 1], "line 4"),  # a row gone
        (".docs", lambda text: text[:-8], "line 4"),  # the file ends inside a row
        (".docs", lambda text: text.rstrip("\n") + "x\n", "line 4"),  # not a number
        (".vec", lambda text: text.split()[0] + "\n", "line 1"),  # half a header
        (".docs", lambda text: text + text.split("\n")[1] + "\n", "line 5"),  # a row too many
        (".docs", _second_key_repeated, "line 3"),
        (".vec", _second_key_repeated, "line 3"),
    ])
    def test_malformed_vector_file_names_file_and_line(self, tmp_path, suffix, cut, line):
        streams, _ = doc_cluster_corpus(3)
        model = train_doc_embeddings(streams[:3], WordTrainingParams(
            dim=4, window=2, min_count=1, epochs=1, seed=1))
        prefix = tmp_path / "docmodel"
        model.save(prefix)
        path = prefix.with_suffix(suffix)
        path.write_text(cut(path.read_text(encoding="utf-8")), encoding="utf-8")
        with pytest.raises(EmbeddingError, match=f"docmodel{suffix}, {line}: "):
            DocEmbeddingModel.load(prefix)

    def test_byte_identical_saves_across_runs(self, tmp_path):
        corpus = synonym_word_corpus(4, n_sentences=60)
        suffixes = (".vec", ".out", ".meta.json", ".vec.npy", ".out.npy", ".store.json")
        files = []
        for run in range(2):
            model = train_word_embeddings(corpus, TOY_PARAMS)
            prefix = tmp_path / f"run{run}"
            model.save(prefix)
            files.append(tuple(prefix.with_suffix(s).read_bytes() for s in suffixes))
        assert files[0] == files[1]
        # the store file records the keys and the digest of each text file
        assert json.loads(files[0][5]) == {
            "format": embeddings.STORE_FORMAT, "keys": model._tokens,
            "sha256": {".vec": hashlib.sha256(files[0][0]).hexdigest(),
                       ".out": hashlib.sha256(files[0][1]).hexdigest()}}
        # the vector files hold what formatting each numpy float on its own gives
        for matrix, data in ((model.vectors, files[0][0]), (model.out_vectors, files[0][1])):
            lines = [f"{matrix.shape[0]} {matrix.shape[1]}"] + [
                token + " " + " ".join(repr(float(x)) for x in row)
                for token, row in zip(model._tokens, matrix)]
            assert data == ("\n".join(lines) + "\n").encode("utf-8")

    # special values the text's repr must carry bit for bit: signed zero,
    # subnormals and the largest magnitudes
    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(*(
        st.lists(st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, -2.5e-310, 1e308, -1e308]),
                           st.floats(allow_nan=False, allow_infinity=False)),
                 min_size=n * 4, max_size=n * 4) for _ in range(3)))))
    def test_store_round_trip_matches_text_bits(self, values):
        vectors, out_vectors, docs = (np.array(v).reshape(-1, 4) for v in values)
        tokens = [f"w{i}" for i in range(len(vectors))]
        word_model = WordEmbeddingModel({t: i for i, t in enumerate(tokens)}, vectors,
                                        out_vectors, np.ones(len(tokens), dtype=np.int64),
                                        TOY_PARAMS)
        model = DocEmbeddingModel(word_model, {f"c{i}": row for i, row in enumerate(docs)},
                                  frozenset(), DocInferenceParams())
        with tempfile.TemporaryDirectory() as tmp:
            prefix = Path(tmp) / "model"
            model.save(prefix)
            with mock.patch.object(embeddings, "_read_vector_file",
                                   side_effect=AssertionError("the text was parsed")):
                loaded = DocEmbeddingModel.load(prefix)
            texts = [embeddings._read_vector_file(prefix.with_suffix(suffix))[1]
                     for suffix in (".vec", ".out", ".docs")]
        stored = (loaded.word_model.vectors, loaded.word_model.out_vectors,
                  np.array(list(loaded.doc_vectors.values())))
        for array, text in zip(stored, texts):
            assert array.tobytes() == text.tobytes()
        assert list(loaded.doc_vectors) == list(model.doc_vectors)

    @staticmethod
    def _load_counting(monkeypatch, prefix):
        read = []

        def spy(path):
            read.append(path.suffix)
            return real(path)

        real = embeddings._read_vector_file
        monkeypatch.setattr(embeddings, "_read_vector_file", spy)
        return DocEmbeddingModel.load(prefix), read

    @staticmethod
    def _assert_equal_models(loaded, model):
        assert loaded.word_model.vocab == model.word_model.vocab
        assert np.array_equal(loaded.word_model.vectors, model.word_model.vectors)
        assert np.array_equal(loaded.word_model.out_vectors, model.word_model.out_vectors)
        assert list(loaded.doc_vectors) == list(model.doc_vectors)
        for key, vec in model.doc_vectors.items():
            assert np.array_equal(loaded.doc_vectors[key], vec)

    def test_fresh_save_loads_without_parsing_text(self, tmp_path, monkeypatch, toy_doc_model):
        prefix = tmp_path / "docmodel"
        toy_doc_model.save(prefix)
        loaded, read = self._load_counting(monkeypatch, prefix)
        assert read == []
        self._assert_equal_models(loaded, toy_doc_model)

    def test_text_only_directory_loads_equal(self, tmp_path, monkeypatch, toy_doc_model):
        prefix = tmp_path / "docmodel"
        toy_doc_model.save(prefix)
        for suffix in (".store.json", ".docs.store.json", ".vec.npy", ".out.npy", ".docs.npy"):
            prefix.with_suffix(suffix).unlink()
        loaded, read = self._load_counting(monkeypatch, prefix)
        assert read == [".vec", ".out", ".docs"]
        self._assert_equal_models(loaded, toy_doc_model)

    def test_text_rewritten_after_save_wins(self, tmp_path, monkeypatch, toy_doc_model):
        prefix = tmp_path / "docmodel"
        toy_doc_model.save(prefix)
        ids = list(toy_doc_model.doc_vectors)
        doubled = np.array([toy_doc_model.doc_vectors[i] for i in ids]) * 2
        embeddings._write_vector_file(prefix.with_suffix(".docs"), ids, doubled)
        loaded, read = self._load_counting(monkeypatch, prefix)
        assert read == [".docs"]  # the word files still match their store
        assert np.array_equal(np.array(list(loaded.doc_vectors.values())), doubled)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("store", [True, False])
    def test_non_finite_doc_vector_names_file_and_id(self, tmp_path, toy_doc_model,
                                                     value, store):
        vectors = dict(toy_doc_model.doc_vectors)
        bad = list(vectors)[1]
        vectors[bad] = np.where(np.arange(toy_doc_model.dim) == 3, value, vectors[bad])
        prefix = tmp_path / "docmodel"
        DocEmbeddingModel(toy_doc_model.word_model, vectors, frozenset(),
                          toy_doc_model.inference_params).save(prefix)
        if not store:
            prefix.with_suffix(".docs.store.json").unlink()
        with pytest.raises(EmbeddingError,
                           match=f"docmodel.docs, line 3: non-finite value in the vector "
                                 f"of {bad!r}"):
            DocEmbeddingModel.load(prefix)

    @pytest.mark.parametrize("suffix,damage,named", [
        (".docs.store.json", _edit_json(lambda store: {**store, "keys": store["keys"][:-1]}),
         ".docs.npy"),
        (".docs.store.json", _edit_json(lambda store: {**store, "keys": store["keys"][:1] * 2
                                                       + store["keys"][2:]}),
         ".docs.store.json"),
        (".docs.store.json", _edit_json(lambda store: {**store, "keys": None}),
         ".docs.store.json"),
        (".docs.store.json", _edit_json(lambda store: {**store, "format": "other"}),
         ".docs.store.json"),
        (".docs.npy", _edit_array(lambda array: array.astype(np.float32)), ".docs.npy"),
        (".docs.npy", _edit_array(lambda array: array.astype(str)), ".docs.npy"),
        (".vec.npy", _edit_array(np.ravel), ".vec.npy"),
        (".out.npy", _edit_array(lambda array: array[:-1]), ".out.npy"),
        (".out.npy", _edit_array(lambda array: array[:, :-1]), ".out"),
        (".vec.npy", lambda path: path.write_bytes(path.read_bytes()[:-8]), ".vec.npy"),
    ])
    def test_store_disagreeing_with_keys_names_file(self, tmp_path, toy_doc_model,
                                                    suffix, damage, named):
        prefix = tmp_path / "docmodel"
        toy_doc_model.save(prefix)
        damage(prefix.with_suffix(suffix))
        with pytest.raises(EmbeddingError, match=f"docmodel{named}: "):
            DocEmbeddingModel.load(prefix)
