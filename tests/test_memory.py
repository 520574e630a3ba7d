"""Memory ceilings of the embedding kernels, each stated from the slice
budget, embeddings.SLICE_BYTES, and checked on tracemalloc's peak.

Inference: one kernel call gathers 2 window + 1 w_in rows and k + 1 w_out
rows of dim float64s per example, TRAIN_BATCH examples per comment of its
slice, and a slice holds one comment even when that exceeds the budget. The
call's peak stays within 3x the larger of the budget and one comment's
batch: 3 x 64 x 17 x 300 x 8 B = 7.8 MB at dim 300, window 5, k = 5, where
slices of 64 comments read 120.2 MB.

Training: a slice's example arrays stay within the budget, so the peak is
3x the budget plus what grows with the corpus anyway (12 B per position: the
padded int32 id array, 4 B, and while it is built the index lists it is built
from, 8 B; 1 KiB per comment for its row, digest and dict entries).
"""

import numpy as np
import pytest

from metacomment import embeddings
from metacomment.embeddings import (
    TRAIN_BATCH,
    DocEmbeddingModel,
    DocInferenceParams,
    WordEmbeddingModel,
    WordTrainingParams,
    train_doc_embeddings,
    train_word_embeddings,
)
from metacomment.textprep import TokenStream

from oracles import traced_peak
from synthdata import synonym_word_corpus

N_WORDS = 200


def gathered_bytes(dim, window, k):
    """Bytes of the w_in and w_out rows one example gathers."""
    return (2 * window + 1 + k + 1) * dim * 8


def random_doc_model(dim, window, k, steps=2):
    rng = np.random.default_rng(0)
    vocab = {f"w{i}": i for i in range(N_WORDS)}
    params = WordTrainingParams(dim=dim, window=window, negative_samples=k, min_count=1)
    word_model = WordEmbeddingModel(vocab, rng.normal(size=(N_WORDS, dim)) / dim,
                                    rng.normal(size=(N_WORDS, dim)) / dim,
                                    rng.integers(1, 100, N_WORDS), params)
    return DocEmbeddingModel(word_model, {}, frozenset(), DocInferenceParams(steps=steps))


def random_streams(n, length, seed=1):
    rng = np.random.default_rng(seed)
    return [TokenStream(tuple(f"w{i}" for i in rng.integers(0, N_WORDS, length)), f"c{j}")
            for j in range(n)]


def slice_sizes(model, streams, monkeypatch):
    sizes = []
    kernel = DocEmbeddingModel._infer_sorted

    def spy(self, indexed):
        sizes.append(len(indexed))
        return kernel(self, indexed)

    monkeypatch.setattr(DocEmbeddingModel, "_infer_sorted", spy)
    model.infer_many(streams)
    return sizes


def test_inference_at_the_defaults_stays_under_its_ceiling():
    model = random_doc_model(300, 5, 5)
    streams = random_streams(64, 40)
    (vectors, _), peak = traced_peak(model.infer_many, streams)
    assert vectors.shape == (64, 300)
    ceiling = 3 * max(embeddings.SLICE_BYTES, TRAIN_BATCH * gathered_bytes(300, 5, 5))
    assert ceiling < 8e6
    assert peak < ceiling


@pytest.mark.parametrize("dim, window, per_slice", [(32, 2, 8), (300, 5, 1)])
def test_slices_follow_the_budget(dim, window, per_slice, monkeypatch):
    sizes = slice_sizes(random_doc_model(dim, window, 5), random_streams(20, 5), monkeypatch)
    assert sizes == [per_slice] * (20 // per_slice) + [20 % per_slice] * (20 % per_slice > 0)


def test_inferred_vectors_do_not_depend_on_the_budget(monkeypatch):
    model = random_doc_model(32, 2, 5, steps=5)
    streams = random_streams(30, 7, seed=2) + random_streams(30, 90, seed=3)
    vectors, _ = model.infer_many(streams)
    for budget in (0, 3 * TRAIN_BATCH * gathered_bytes(32, 2, 5), 1 << 40):
        monkeypatch.setattr(embeddings, "SLICE_BYTES", budget)
        assert np.array_equal(model.infer_many(streams)[0], vectors)


MODES = pytest.mark.parametrize("method, with_docs", [("cbow", False), ("skipgram", False),
                                                      ("cbow", True)])


def _train(corpus, method, with_docs):
    params = WordTrainingParams(dim=6, window=2, min_count=1, epochs=2, method=method,
                                negative_samples=3, seed=4)
    if with_docs:
        dm = train_doc_embeddings(corpus, params)
        return dm.word_model, np.array([dm.doc_vectors[ts.source_id] for ts in corpus])
    return train_word_embeddings(corpus, params), None


@MODES
def test_trained_models_do_not_depend_on_the_budget(method, with_docs, monkeypatch):
    """One position per slice (budget 0: every comment and every batch
    crosses slices), a few dozen positions per slice, cut mid-comment, and
    the whole corpus in one slice give the same bits."""
    corpus = synonym_word_corpus(1, n_sentences=40)
    runs = []
    for budget in (0, 2_000, 1 << 40):
        monkeypatch.setattr(embeddings, "SLICE_BYTES", budget)
        runs.append(_train(corpus, method, with_docs))
    for model, docs in runs[1:]:
        assert np.array_equal(model.vectors, runs[0][0].vectors)
        assert np.array_equal(model.out_vectors, runs[0][0].out_vectors)
        assert model.epoch_losses == runs[0][0].epoch_losses
        assert not with_docs or np.array_equal(docs, runs[0][1])


@pytest.mark.parametrize("method, with_docs, n_comments", [("cbow", True, 1000),
                                                           ("skipgram", False, 300)])
def test_training_holds_no_epoch_sized_example_array(method, with_docs, n_comments,
                                                     monkeypatch):
    corpus = random_streams(n_comments, 200)
    params = WordTrainingParams(dim=8, window=5, min_count=1, epochs=1, method=method,
                                negative_samples=5)
    sizes = []
    examples = embeddings._examples

    def spy(*args, **kwargs):
        arrays = examples(*args, **kwargs)
        sizes.append(sum(a.nbytes for a in arrays))
        return arrays

    monkeypatch.setattr(embeddings, "_examples", spy)
    train = train_doc_embeddings if with_docs else train_word_embeddings
    _, peak = traced_peak(train, corpus, params)
    assert len(sizes) > 1 and max(sizes) <= embeddings.SLICE_BYTES
    positions = 200 * n_comments
    assert peak < 3 * embeddings.SLICE_BYTES + 12 * positions + 1024 * n_comments
