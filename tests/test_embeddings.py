import hashlib
import itertools
import json

import numpy as np
import pytest

from metacomment import embeddings
from metacomment.embeddings import (
    DocEmbeddingModel,
    DocInferenceParams,
    EmbeddingError,
    WordEmbeddingModel,
    WordTrainingParams,
    cosine_distance,
    _LrSchedule,
    cosine_similarity,
    negative_sampling_gradients,
    negative_sampling_loss,
    train_doc_embeddings,
    train_word_embeddings,
)
from metacomment.textprep import TokenStream

from synthdata import doc_cluster_corpus, synonym_word_corpus

TOY_PARAMS = WordTrainingParams(dim=16, window=1, min_count=2, epochs=5,
                                negative_samples=5, seed=7)


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


def reference_training(corpus, params, vocab, counts, with_docs):
    """Plain SGD on the reference gradients, with the trainers' draw order:
    word rows, then (DM) one row per comment, then per position the learning
    rate and the negatives. In DM the comment vector is one more w_in row.

    Returns (w_in, w_out, epoch losses, number of negatives dropped because
    they equal the predicted token).
    """
    rng = np.random.default_rng(params.seed)
    dim, k, window = params.dim, params.negative_samples, params.window
    w_in = (rng.random((len(vocab), dim)) - 0.5) / dim
    if with_docs:
        w_in = np.vstack([w_in, (rng.random((len(corpus), dim)) - 0.5) / dim])
    w_out = np.zeros((len(vocab), dim))
    noise = embeddings._NoiseTable(counts)
    docs = [[vocab[t] for t in ts.tokens if t in vocab] for ts in corpus]
    lr_sched = _LrSchedule(params.initial_lr, params.final_lr,
                           sum(map(len, docs)) * params.epochs)
    losses, dropped = [], 0

    def step(context, target, lr):
        nonlocal w_in, w_out, dropped
        negatives = noise.draw(rng, k, exclude=target)
        dropped += k - len(negatives)
        if not context:
            return 0.0
        loss, grad_in, grad_out = negative_sampling_gradients(
            w_in, w_out, context, target, negatives)
        w_in -= lr * grad_in
        w_out -= lr * grad_out
        return loss

    for _ in range(params.epochs):
        total = 0.0
        for d, doc in enumerate(docs):
            for pos, centre in enumerate(doc):
                lr = lr_sched.next()
                window_rows = doc[max(0, pos - window):pos] + doc[pos + 1:pos + 1 + window]
                if params.method == "skipgram":
                    total += sum(step([centre], target, lr) for target in window_rows)
                else:
                    doc_row = [len(vocab) + d] if with_docs else []
                    total += step(window_rows + doc_row, centre, lr)
        losses.append(total)
    return w_in, w_out, losses, dropped


class TestTrainingStep:
    """The trainers against reference_training: a document with repeated
    tokens and a one-token document, over a vocabulary small enough that
    drawn negatives hit the predicted token."""

    CORPUS = [TokenStream(("a", "b", "a", "c", "a", "b", "d", "a", "c"), "long"),
              TokenStream(("b",), "single")]

    @pytest.mark.parametrize("method,with_docs", [("cbow", False), ("skipgram", False),
                                                  ("cbow", True)])
    def test_matches_reference_gradients(self, method, with_docs):
        params = WordTrainingParams(dim=6, window=2, min_count=1, epochs=2, method=method,
                                    negative_samples=5, initial_lr=0.2, seed=3)
        if with_docs:
            dm = train_doc_embeddings(self.CORPUS, params)
            model = dm.word_model
        else:
            model = train_word_embeddings(self.CORPUS, params)
        w_in, w_out, losses, dropped = reference_training(
            self.CORPUS, params, model.vocab, model.counts, with_docs)
        assert dropped > 0
        assert np.abs(model.vectors - w_in[:len(model.vocab)]).max() <= 1e-12
        assert np.abs(model.out_vectors - w_out).max() <= 1e-12
        assert np.allclose(model.epoch_losses, losses, rtol=0, atol=1e-12)
        if with_docs:
            trained = np.array([dm.doc_vectors[ts.source_id] for ts in self.CORPUS])
            assert np.abs(trained - w_in[len(model.vocab):]).max() <= 1e-12


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
        corpus = streams + [TokenStream((), source_id="empty")]
        params = WordTrainingParams(dim=8, window=2, min_count=1, epochs=2, seed=5)
        model = train_doc_embeddings(corpus, params)
        assert "empty" in model.flagged_ids
        assert np.array_equal(model.doc_vectors["empty"], np.zeros(8))


class TestInference:
    def test_deterministic(self, toy_doc_model):
        ts = TokenStream(("kaffee", "tasse", "bohne", "milch"), "q")
        v1 = toy_doc_model.infer(ts)[0]
        v2 = toy_doc_model.infer(ts)[0]
        assert np.array_equal(v1, v2)

    def test_word_matrices_frozen(self, toy_doc_model):
        wm = toy_doc_model.word_model
        before = (hashlib.sha256(wm.vectors.tobytes()).hexdigest(),
                  hashlib.sha256(wm.out_vectors.tobytes()).hexdigest())
        toy_doc_model.infer(TokenStream(("kaffee", "espresso", "milch"), "q"))
        after = (hashlib.sha256(wm.vectors.tobytes()).hexdigest(),
                 hashlib.sha256(wm.out_vectors.tobytes()).hexdigest())
        assert before == after

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


def reference_infer(dm, ts):
    """One comment's inference, position by position, on the reference
    gradients: the comment vector is one more w_in row in the context.

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
    lr_sched = _LrSchedule(p.learning_rate, p.min_learning_rate, len(indices) * p.steps)
    dropped = 0
    for _ in range(p.steps):
        for pos, centre in enumerate(indices):
            lr = lr_sched.next()
            context = indices[max(0, pos - window):pos] + indices[pos + 1:pos + 1 + window]
            negatives = wm._noise.draw(rng, k, exclude=centre)
            dropped += k - len(negatives)
            _, grad_in, _ = negative_sampling_gradients(
                w_in, wm.out_vectors, context + [doc_row], centre, negatives)
            w_in[doc_row] -= lr * grad_in[doc_row]
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

    def test_matches_reference_loop(self, short_schedule_model):
        streams = self._batch(short_schedule_model)
        vectors, all_oov = short_schedule_model.infer_many(streams)
        assert vectors.shape == (len(streams), 16)
        dropped = 0
        for ts, vec, flag in zip(streams, vectors, all_oov):
            ref, ref_flag, ref_dropped = reference_infer(short_schedule_model, ts)
            assert flag == ref_flag, ts.source_id
            assert np.abs(vec - ref).max() <= 1e-12, ts.source_id
            dropped += ref_dropped
        # some drawn negative was the centre token, so the exclusion was exercised
        assert dropped > 0
        assert list(all_oov).count(True) == 2

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

        monkeypatch.setattr(embeddings, "INFER_BATCH", 7)
        monkeypatch.setattr(DocEmbeddingModel, "_infer_sorted", spy)
        sliced, all_oov = short_schedule_model.infer_many(streams)
        assert sizes == [7, 7, 7, 7, 7, 3]
        assert sum(sizes) == len(streams) - all_oov.sum()
        assert np.array_equal(sliced, whole)

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

    def test_byte_identical_saves_across_runs(self, tmp_path):
        corpus = synonym_word_corpus(4, n_sentences=60)
        files = []
        for run in range(2):
            model = train_word_embeddings(corpus, TOY_PARAMS)
            prefix = tmp_path / f"run{run}"
            model.save(prefix)
            files.append((prefix.with_suffix(".vec").read_bytes(),
                          prefix.with_suffix(".out").read_bytes(),
                          prefix.with_suffix(".meta.json").read_bytes()))
        assert files[0] == files[1]
