"""The feature route's matrix against the named-dict reference it replaced,
and the scope of the per-dataset FeatureCache that feeds it."""

import gc
import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metacomment import features, pipeline as pipeline_module
from metacomment.corpus import ADDRESSEE_LABELS, CLASS_ORDER, LabeledDataset
from metacomment.embeddings import (
    DocInferenceParams,
    WordTrainingParams,
    train_doc_embeddings,
    train_word_embeddings,
)
from metacomment.evaluation import (
    GridSpec,
    binary_labels,
    cross_dataset_eval,
    cross_validate,
    grid_search,
    stratified_k_fold,
)
from metacomment.features import (
    CLASS_FEATURE_NAMES,
    FeatureError,
    FeatureExtractor,
    build_matrix,
    class_vectors,
    compile_keyword_pattern,
    count_pattern_matches,
    default_departments,
    default_sentiment_lexicon,
    metadata_features,
    semantic_features,
    text_stats_features,
    tfidf_fit,
    tfidf_transform,
)
from metacomment.pipeline import FeaturePipeline, build_keyword_sets, feature_cache
from metacomment.textprep import preprocess

from synthdata import CLASS_KEYWORDS, generate_comment_dataset


@pytest.fixture(scope="module")
def dataset():
    return generate_comment_dataset(21, n_per_class=8, n_nonmeta=24)


@pytest.fixture(scope="module")
def models(dataset):
    """Word model on every comment; doc model on the first 30 only, so the
    other comments' vectors are inferred."""
    streams = [preprocess(c, remove_stopwords=True) for c in dataset.comments()]
    params = WordTrainingParams(dim=8, window=3, min_count=2, epochs=5, seed=4)
    word_model = train_word_embeddings(streams, params)
    doc_model = train_doc_embeddings(streams[:30], params,
                                     DocInferenceParams(steps=3, seed=1))
    return word_model, doc_model


def make_cache(models):
    word_model, doc_model = models
    return feature_cache(word_model, doc_model, CLASS_KEYWORDS)


@pytest.fixture(scope="module")
def cache(models):
    return make_cache(models)


def make_pipeline(cache, seed=0, select_k="all"):
    return FeaturePipeline(cache, seed=seed, select_k=select_k,
                           classifier_params={"tolerance": 1e-3, "max_epochs": 30})


def reference_extractor(models, train_entries):
    """The extractor of the named-dict route, fitted on train_entries."""
    word_model, doc_model = models
    label_sets = [labels for _, labels in train_entries]
    present = [cls for cls in CLASS_ORDER if any(cls in ls for ls in label_sets)]
    tfidf = tfidf_fit([preprocess(c, remove_stopwords=True) for c, _ in train_entries])
    class_vecs = class_vectors(doc_model, LabeledDataset(tuple(train_entries), "train"),
                               classes=present)
    return FeatureExtractor(keyword_sets=build_keyword_sets(word_model, CLASS_KEYWORDS),
                            tfidf=tfidf, doc_model=doc_model, class_vecs=class_vecs)


def reference_matrix(extractor, comments):
    """One named dict per comment from the group functions, then build_matrix."""
    keyword_tokens = list(dict.fromkeys(
        token for label in ADDRESSEE_LABELS
        for token in extractor.keyword_sets[label].enriched))
    rows = []
    for comment in comments:
        values = {}
        for label in ADDRESSEE_LABELS:
            pattern = compile_keyword_pattern(extractor.keyword_sets[label].enriched)
            values[f"regex_{CLASS_FEATURE_NAMES[label]}_matches"] = float(
                count_pattern_matches(comment, pattern))
        tokens = Counter(preprocess(comment).tokens)
        values.update((f"keyword_{t}", float(tokens[t])) for t in keyword_tokens)
        ts = preprocess(comment, remove_stopwords=True, stopwords=extractor.stopwords)
        values.update((f"tfidf_{gram}", weight)
                      for gram, weight in tfidf_transform(extractor.tfidf, ts).items())
        values.update(text_stats_features(comment, default_sentiment_lexicon()))
        vector = extractor.doc_model.vectors_for([ts])[0]
        values.update(semantic_features(extractor.class_vecs, vector))
        values.update(metadata_features(comment, default_departments()))
        rows.append({k: v for k, v in values.items() if v != 0.0})
    return build_matrix(rows, extractor.registry)


def assert_fold_matches_reference(models, cache, entries, train_idx, test_idx):
    train = [entries[i] for i in train_idx]
    test = [entries[i] for i in test_idx]
    pipeline = make_pipeline(cache)
    extractor = pipeline._fit_extractor(train)
    X_train = extractor.matrix([c for c, _ in train], cache)
    X_test = extractor.matrix([c for c, _ in test], cache)
    reference = reference_extractor(models, train)
    assert extractor.registry == reference.registry
    for got, want in zip(extractor.class_vecs, reference.class_vecs):
        assert got.label == want.label and np.array_equal(got.vector, want.vector)
    assert np.array_equal(X_train, reference_matrix(reference, [c for c, _ in train]))
    assert np.array_equal(X_test, reference_matrix(reference, [c for c, _ in test]))
    return pipeline, X_train, X_test


class TestMatrixOracle:
    def test_every_fold_of_a_stratified_split(self, dataset, models):
        entries = list(dataset)
        cache = make_cache(models)  # one cache across the folds, as a command has
        y = binary_labels(dataset, "Meta")
        for train_idx, test_idx in stratified_k_fold(y, 4, 3):
            pipeline, X_train, X_test = assert_fold_matches_reference(
                models, cache, entries, train_idx, test_idx)
            # the fitting and predicting path of cross_validate builds the same
            assert np.array_equal(pipeline._fit([entries[i] for i in train_idx],
                                                y[train_idx]), X_train)
            assert np.array_equal(pipeline._matrix([entries[i] for i in test_idx]), X_test)

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_random_splits(self, dataset, models, data):
        n = len(dataset)
        train = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))
        test = sorted(set(range(n)) - train)
        assert_fold_matches_reference(models, make_cache(models), list(dataset),
                                      sorted(train), test)

    def test_comments_sharing_an_id_get_their_own_rows(self, dataset, cache):
        entries = list(dataset)
        first = entries[0][0]
        twin = replace(first, text="Die Redaktion hat den Artikel zensiert. Warum?")
        pipeline = make_pipeline(cache).fit(entries, binary_labels(dataset, "Meta"))
        cache = pipeline.extractor.new_cache()
        X = pipeline.extractor.matrix([first, twin, first], cache)
        assert np.array_equal(X, reference_matrix(pipeline.extractor, [first, twin, first]))
        assert not np.array_equal(X[0], X[1])
        assert np.array_equal(X[0], X[2])

    def test_named_view_is_the_matrix(self, dataset, cache):
        pipeline = make_pipeline(cache).fit(list(dataset), binary_labels(dataset, "Meta"))
        extractor = pipeline.extractor
        comments = list(dataset.comments())[:10]
        vectors = extractor.doc_model.vectors_for(
            [preprocess(c, remove_stopwords=True) for c in comments])
        rows = [extractor.assemble(c, v) for c, v in zip(comments, vectors)]
        assert all(0.0 not in row.values() for row in rows)
        assert np.array_equal(build_matrix(rows, extractor.registry),
                              extractor.matrix(comments))

    def test_cache_of_other_inputs_is_rejected(self, dataset, cache):
        pipeline = make_pipeline(cache).fit(list(dataset), binary_labels(dataset, "Meta"))
        other = features.FeatureCache(build_keyword_sets(None, CLASS_KEYWORDS))
        with pytest.raises(FeatureError, match="feature cache"):
            pipeline.extractor.matrix(dataset.comments(), other)

    def test_matrix_calls_semantic_features_once_per_comment(self, dataset, cache,
                                                             monkeypatch):
        # the benchmark's trace times the semantic group by rebinding
        # features.semantic_features, one call per comment row
        pipeline = make_pipeline(cache).fit(list(dataset), binary_labels(dataset, "Meta"))
        comments = list(dataset.comments())
        expected = pipeline.extractor.matrix(comments)
        calls = []
        original = features.semantic_features

        def spy(cvs, vec):
            calls.append(cvs)
            return original(cvs, vec)

        monkeypatch.setattr(features, "semantic_features", spy)
        assert np.array_equal(pipeline.extractor.matrix(comments), expected)
        assert len(calls) == len(comments)
        assert all(cvs is pipeline.extractor.class_vecs for cvs in calls)


class TestCacheScope:
    """Each comment's fold-invariant work runs once per cache, however many
    folds, configurations and classes use it. The evaluation drivers make no
    cache of their own, and a cache lives as long as its caller keeps it."""

    def _spy(self, monkeypatch):
        calls = {"text_stats": Counter(), "preprocess": Counter()}
        caches = []
        text_stats, prep, init = (features.text_stats_features, features.preprocess,
                                  features.FeatureCache.__init__)

        def text_stats_spy(comment, *args):
            calls["text_stats"][comment] += 1
            return text_stats(comment, *args)

        def preprocess_spy(comment, *args, **kwargs):
            calls["preprocess"][comment] += 1
            return prep(comment, *args, **kwargs)

        def init_spy(self, *args):
            caches.append(weakref.ref(self))
            init(self, *args)

        monkeypatch.setattr(features, "text_stats_features", text_stats_spy)
        for module in (features, pipeline_module):
            monkeypatch.setattr(module, "preprocess", preprocess_spy)
        monkeypatch.setattr(features.FeatureCache, "__init__", init_spy)
        return calls, caches

    def test_fold_invariant_work_runs_once_per_cache(self, dataset, models, monkeypatch):
        calls, caches = self._spy(monkeypatch)
        other = generate_comment_dataset(22, n_per_class=4, n_nonmeta=12,
                                         source_tag="other")
        entries, y = list(dataset), binary_labels(dataset, "Meta")
        cache = make_cache(models)
        cross_validate(lambda seed: make_pipeline(cache, seed), entries, y, k=4, seed=2)
        grid_search(lambda params, seed: make_pipeline(cache, seed, params["select_k"]),
                    GridSpec(params={}, feature_counts=("all", 20)), entries, y,
                    k=3, seed=2)
        cross_dataset_eval(dataset, other, lambda seed: make_pipeline(cache, seed),
                           classes=("Meta",))
        # one stop-word stream and one plain token stream per comment
        comments = [*dataset.comments(), *other.comments()]
        assert calls["text_stats"] == Counter(comments)
        assert calls["preprocess"] == Counter({c: 2 for c in comments})
        # the drivers made no cache, and the caller's is freed when dropped
        assert len(caches) == 1
        del cache
        gc.collect()
        assert caches[0]() is None

        # a new cache over comments that the first one held starts empty
        calls["text_stats"].clear()
        mixed = LabeledDataset(tuple(list(dataset)[:24] + list(other)), "mixed")
        cache = make_cache(models)
        cross_validate(lambda seed: make_pipeline(cache, seed), list(mixed),
                       binary_labels(mixed, "Meta"), k=4, seed=2)
        assert calls["text_stats"] == Counter(mixed.comments())
        assert len(caches) == 2
