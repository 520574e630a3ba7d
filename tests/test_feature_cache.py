"""The feature route's matrix against the named-dict reference it replaced,
and the scope of the per-dataset FeatureCache that feeds it."""

import gc
import math
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
    default_sentiment_lexicon,
    metadata_features,
    text_stats_features,
    tfidf_fit,
    tfidf_transform,
)
from metacomment.pipeline import FeaturePipeline, build_keyword_sets, feature_cache
from metacomment.textprep import TokenStream, ngrams, preprocess

from conftest import make_comment
from oracles import reference_semantic
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
        values.update(zip(*reference_semantic(extractor.class_vecs, vector)))
        values.update(metadata_features(comment))
        rows.append({k: v for k, v in values.items() if v != 0.0})
    return build_matrix(rows, extractor.registry)


def assert_fold_matches_reference(models, cache, entries, train_idx, test_idx):
    train = [entries[i] for i in train_idx]
    test = [entries[i] for i in test_idx]
    pipeline = make_pipeline(cache)
    extractor = pipeline._fit_extractor(train)
    X_train = extractor.matrix([c for c, _ in train], cache).toarray()
    X_test = extractor.matrix([c for c, _ in test], cache).toarray()
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
                                                y[train_idx]).toarray(), X_train)
            assert np.array_equal(pipeline._matrix([entries[i] for i in test_idx]).toarray(),
                                  X_test)

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
        X = pipeline.extractor.matrix([first, twin, first], cache).toarray()
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
                              extractor.matrix(comments).toarray())

    def test_cache_of_other_inputs_is_rejected(self, dataset, cache):
        pipeline = make_pipeline(cache).fit(list(dataset), binary_labels(dataset, "Meta"))
        other = features.FeatureCache(build_keyword_sets(None, CLASS_KEYWORDS))
        with pytest.raises(FeatureError, match="feature cache"):
            pipeline.extractor.matrix(dataset.comments(), other)

    def test_matrix_calls_semantic_features_once_per_call(self, dataset, cache,
                                                          monkeypatch):
        # the benchmark's trace times the semantic group by rebinding
        # features.semantic_features, one call per matrix call
        pipeline = make_pipeline(cache).fit(list(dataset), binary_labels(dataset, "Meta"))
        comments = list(dataset.comments())
        expected = pipeline.extractor.matrix(comments).toarray()
        calls = []
        original = features.semantic_features

        def spy(cvs, vectors):
            calls.append((cvs, vectors.shape))
            return original(cvs, vectors)

        monkeypatch.setattr(features, "semantic_features", spy)
        assert np.array_equal(pipeline.extractor.matrix(comments).toarray(), expected)
        [(cvs, shape)] = calls
        assert cvs is pipeline.extractor.class_vecs
        assert shape == (len(comments), pipeline.extractor.doc_model.dim)


def reference_tfidf_fit(streams):
    """(vocabulary, document frequencies) of the per-gram dict walk that the
    fit over the cache's gram ids replaced."""
    vocabulary, df = {}, []
    for ts in streams:
        for gram in dict.fromkeys(ngrams(ts)):
            if gram in vocabulary:
                df[vocabulary[gram]] += 1
            else:
                vocabulary[gram] = len(df)
                df.append(1)
    return vocabulary, np.array(df, dtype=np.int64)


def reference_tfidf_row(vocabulary, idf, ts):
    """One stream's weights as the per-gram dict walk computed them."""
    weights = {gram: tf * idf[vocabulary[gram]]
               for gram, tf in Counter(ngrams(ts)).items() if gram in vocabulary}
    if not weights:
        return {}
    norm = math.sqrt(sum(w * w for w in weights.values()))
    return {gram: w / norm for gram, w in weights.items()}


class TestTfidfOnGramIds:
    """The fit and weights over the cache's gram ids against the per-gram
    dict walk they replaced, bit for bit."""

    TRAIN = [make_comment("a", text="Der Autor schreibt gut, der Autor schreibt viel."),
             make_comment("b", text="Die Redaktion zensiert den Autor."),
             make_comment("empty", text="Und der die das."),
             make_comment("t", text="Der Moderator löscht Beiträge."),
             make_comment("t", text="Spiegel Online berichtet über den Autor."),
             make_comment("c", text="Autor Autor Redaktion Redaktion Autor.")]
    TEST = [make_comment("new", text="Völlig neue Wörter hier."),
            make_comment("mixed", text="Der Autor und neue Wörter.")]

    def _cache(self):
        cache = features.FeatureCache()
        # number the grams in another order than the fit's first occurrence
        cache.entries(self.TEST + self.TRAIN[::-1])
        return cache

    def test_fit_matches_the_dict_walk(self):
        streams = [preprocess(c, remove_stopwords=True) for c in self.TRAIN]
        assert streams[2].tokens == ()  # an empty stream
        vocabulary, df = reference_tfidf_fit(streams)
        # the two comments that share id "t" each count as a document
        assert df[vocabulary["moderator"]] == 1 and df[vocabulary["spiegel"]] == 1
        for model in (self._cache().tfidf_fit(self.TRAIN), tfidf_fit(streams)):
            assert list(model.vocabulary.items()) == list(vocabulary.items())
            assert model.document_frequencies.dtype == df.dtype
            assert model.document_frequencies.tobytes() == df.tobytes()
            assert model.n_docs == len(self.TRAIN)

    def test_weights_match_the_dict_walk(self):
        cache = self._cache()
        model = cache.tfidf_fit(self.TRAIN)
        comments = self.TRAIN + self.TEST
        streams = [preprocess(c, remove_stopwords=True) for c in comments]
        assert "neue" not in model.vocabulary  # unseen at fit time
        rows = [reference_tfidf_row(model.vocabulary, model.idf.tolist(), ts)
                for ts in streams]
        assert rows[2] == {} and rows[-2] == {} and rows[-1]
        for ts, row in zip(streams, rows):
            got = tfidf_transform(model, ts)
            assert list(got) == list(row) and list(got.values()) == list(row.values())
        block = np.zeros((len(comments), len(model.vocabulary)))
        r, c, w = cache.tfidf_weights(cache.entries(comments), model)
        block[r, c] = w
        want = build_matrix([{f"tfidf_{g}": v for g, v in row.items()} for row in rows],
                            [f"tfidf_{g}" for g in model.vocabulary])
        assert np.array_equal(block, want)

    def test_grams_numbered_after_a_weights_call(self):
        # each cache maps its gram ids to a model's columns once, then extends
        # the map for grams numbered later: a cache that gains comments after
        # a weights call gives the dict walk's rows, whether or not it fit
        # the model
        cache = features.FeatureCache()
        model = cache.tfidf_fit(self.TRAIN)
        other = features.FeatureCache()
        comments = self.TEST + self.TRAIN
        rows = [reference_tfidf_row(model.vocabulary, model.idf.tolist(),
                                    preprocess(c, remove_stopwords=True)) for c in comments]
        want = build_matrix([{f"tfidf_{g}": v for g, v in row.items()} for row in rows],
                            [f"tfidf_{g}" for g in model.vocabulary])
        for c in (cache, other):
            c.tfidf_weights(c.entries(self.TRAIN[:2]), model)
            got = np.zeros(want.shape)
            r, col, w = c.tfidf_weights(c.entries(comments), model)
            got[r, col] = w
            assert np.array_equal(got, want)

    def test_corpus_of_empty_streams(self):
        model = tfidf_fit([TokenStream(()), TokenStream(())])
        assert model.vocabulary == {} and model.n_docs == 2
        assert model.document_frequencies.dtype == np.int64
        assert len(model.document_frequencies) == 0
        assert tfidf_transform(model, TokenStream(("autor",))) == {}
        with pytest.raises(FeatureError, match="non-empty corpus"):
            tfidf_fit([])


def reference_entry(cache, comment):
    """cache._entry as computed before it shared its tokens: text statistics
    tokenize the comment again, and the grams are counted in a dict walk."""
    entry = cache._entry(comment)
    row = np.zeros(len(cache._column))
    row[entry.columns] = entry.values
    stats = text_stats_features(comment)
    row[cache._stats_at:cache._stats_at + len(stats)] = list(stats.values())
    counts = {}
    for gram in ngrams(entry.stream):
        counts[gram] = counts.get(gram, 0) + 1
    ids = [cache._grams.ids[gram] for gram in counts]
    columns = np.flatnonzero(row)
    return (columns, row[columns], entry.stream, np.array(ids, dtype=np.intp),
            np.array(list(counts.values()), dtype=float))


_WORDS = st.sampled_from(["Sie", "sie", "gut", "schlecht", "Danke", "Autor", "autor", "Redaktion", "der",
                          "Zensur", "?", "??", "!", ".", ",", "\u201eSIE\u201c", "\u2013",
                          "Stra\u00dfe", "\u0130", "   ", "\n", "x"])


@settings(max_examples=60, deadline=None)
@given(title=st.lists(_WORDS, max_size=6).map(" ".join),
       text=st.lists(st.one_of(_WORDS, st.text(max_size=6)), max_size=25).map(" ".join))
def test_entry_matches_the_entry_that_tokenized_twice(models, title, text):
    cache = make_cache(models)
    comment = make_comment(title=title, text=text + "x")
    [entry] = cache.entries([comment])
    columns, values, stream, ids, counts = reference_entry(cache, comment)
    assert entry.columns.tobytes() == columns.tobytes()
    assert entry.values.tobytes() == values.tobytes()
    assert entry.stream == stream
    assert entry.ids.dtype == ids.dtype and entry.ids.tobytes() == ids.tobytes()
    assert entry.counts.dtype == counts.dtype and entry.counts.tobytes() == counts.tobytes()


@pytest.mark.parametrize("stopwords", [None, frozenset({"der", "die", "und", "autor"})])
def test_stop_word_stream_is_preprocess_with_stop_words(dataset, models, stopwords):
    """The entry's stream, filtered from the plain token stream, is what
    preprocess with remove_stopwords gives."""
    cache = feature_cache(*models, CLASS_KEYWORDS, stopwords)
    comments = dataset.comments()
    for comment, entry in zip(comments, cache.entries(comments)):
        assert entry.stream == preprocess(comment, remove_stopwords=True, stopwords=stopwords)


class TestCacheScope:
    """Each comment's fold-invariant work runs once per cache, however many
    folds, configurations and classes use it. The evaluation drivers make no
    cache of their own, and a cache lives as long as its caller keeps it."""

    def _spy(self, monkeypatch):
        calls = {"text_stats": Counter(), "preprocess": Counter()}
        caches = []
        text_stats, prep, init = (features.text_stats_features, features.preprocess,
                                  features.FeatureCache.__init__)

        def text_stats_spy(comment, *args, **kwargs):
            calls["text_stats"][comment] += 1
            return text_stats(comment, *args, **kwargs)

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
        # one token stream per comment, its stop-word stream filtered from it
        comments = [*dataset.comments(), *other.comments()]
        assert calls["text_stats"] == Counter(comments)
        assert calls["preprocess"] == Counter({c: 1 for c in comments})
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
