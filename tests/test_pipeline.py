import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metacomment.classifiers import load_model, save_model
from metacomment.corpus import LabeledDataset
from metacomment.embeddings import (
    DocInferenceParams,
    WordTrainingParams,
    train_doc_embeddings,
    train_word_embeddings,
)
from metacomment.evaluation import binary_labels, cross_dataset_eval, cross_validate
from metacomment import features
from metacomment.neural import CnnConfig
from metacomment.pipeline import (
    CnnPipeline,
    FeaturePipeline,
    TwoStepClassifier,
    build_keyword_sets,
    feature_cache,
    load_extractor,
    save_extractor,
)
from metacomment.textprep import preprocess

from conftest import json_dump_bytes
from synthdata import CLASS_KEYWORDS, generate_comment_dataset


@pytest.fixture(scope="module")
def dataset():
    return generate_comment_dataset(0, n_per_class=40, n_nonmeta=120)


@pytest.fixture(scope="module")
def word_model(dataset):
    streams = [preprocess(c, remove_stopwords=True) for c in dataset.comments()]
    return train_word_embeddings(
        streams, WordTrainingParams(dim=16, window=5, min_count=2, epochs=40,
                                    initial_lr=0.05, seed=2))


@pytest.fixture(scope="module")
def cache(word_model):
    """The feature cache that every pipeline over the module's datasets shares."""
    return feature_cache(word_model, keyword_seeds=CLASS_KEYWORDS)


def make_pipeline(cache, seed=0, **kwargs):
    kwargs.setdefault("classifier_params", {"C": 0.5, "tolerance": 1e-4,
                                            "max_epochs": 200})
    return FeaturePipeline(cache, seed=seed, **kwargs)


class TestFeaturePipeline:
    def test_fit_predict_meta(self, dataset, cache):
        entries = list(dataset)
        y = binary_labels(dataset, "Meta")
        pipeline = make_pipeline(cache).fit(entries, y)
        accuracy = float((pipeline.predict(entries) == y).mean())
        assert accuracy >= 0.95

    def test_fitted_ids_are_train_ids(self, dataset, cache):
        entries = list(dataset)[:100]
        y = binary_labels(dataset, "Meta")[:100]
        pipeline = make_pipeline(cache).fit(entries, y)
        assert pipeline.fitted_ids() == frozenset(c.id for c, _ in entries)

    def test_cross_validation_scores_high(self, dataset, cache):
        entries = list(dataset)
        y = binary_labels(dataset, "Meta")
        result = cross_validate(lambda seed: make_pipeline(cache, seed=seed),
                                entries, y, k=4, seed=1)
        assert result.mean.f_beta >= 0.9

    def test_select_k_limits_model_registry(self, dataset, cache, tmp_path):
        entries = list(dataset)
        y = binary_labels(dataset, "Meta")
        pipeline = make_pipeline(cache, select_k=10).fit(entries, y)
        assert len(pipeline._columns) == 10
        assert len(pipeline.model.registry) == 10
        assert pipeline.model.registry_hash == pipeline.extractor.registry_hash
        # a column subset is the one case where a saved model keeps its names
        save_model(pipeline.model, tmp_path / "model.json")
        loaded = load_model(tmp_path / "model.json",
                            registry_hash=pipeline.extractor.registry_hash)
        registry = pipeline.extractor.registry
        assert loaded.registry == tuple(registry[i] for i in pipeline._columns)
        assert (pipeline.predict(entries) == y).mean() >= 0.9
        # oracle: the stored column index picks the selected names' columns
        X = pipeline.extractor.matrix(dataset.comments()).toarray()
        columns = [registry.index(name) for name in loaded.registry]
        assert np.array_equal(pipeline.predict(entries),
                              pipeline.model.predict_many(X[:, columns]))
        assert np.array_equal(loaded.predict_many(X[:, columns]),
                              pipeline.predict(entries))

    def test_calibrated_confidences(self, dataset, cache):
        entries = list(dataset)
        y = binary_labels(dataset, "Meta")
        pipeline = make_pipeline(cache, with_calibration=True).fit(entries, y)
        conf = pipeline.model.confidences(pipeline._matrix(entries))
        assert np.all((conf > 0) & (conf < 1))
        # confident on actual meta keyword comments
        assert conf[y == 1].mean() > conf[y == 0].mean()

    def test_semantic_group_with_doc_model(self, word_model):
        ds = generate_comment_dataset(5, n_per_class=12, n_nonmeta=36)
        streams = [preprocess(c, remove_stopwords=True) for c in ds.comments()]
        dm = train_doc_embeddings(
            streams, WordTrainingParams(dim=16, window=5, min_count=2, epochs=10, seed=3))
        entries = list(ds)
        y = binary_labels(ds, "Meta")
        pipeline = make_pipeline(feature_cache(word_model, dm, CLASS_KEYWORDS))
        pipeline.fit(entries, y)
        semantic = [n for n in pipeline.extractor.registry if n.startswith("semantic_")]
        assert semantic
        assert (pipeline.predict(entries) == y).mean() >= 0.9

    @pytest.mark.parametrize("select_k", [0, -5, True, 2.5, "a", None])
    def test_rejects_select_k_that_is_not_a_count(self, cache, select_k):
        with pytest.raises(ValueError, match="select_k must be 'all' or an integer >= 1"):
            make_pipeline(cache, select_k=select_k)


class TestCnnPipeline:
    CONFIG = CnnConfig(max_len=32, n_filters=16, kernel_size=3, dense_units=16,
                       batch_size=32, epochs=5, learning_rate=0.005, seed=0)

    def test_fit_predict(self, dataset, word_model):
        entries = list(dataset)
        y = binary_labels(dataset, "Meta")
        pipeline = CnnPipeline(word_model, self.CONFIG).fit(entries, y)
        accuracy = float((pipeline.predict(entries) == y).mean())
        assert accuracy >= 0.9
        assert pipeline.fitted_ids() == frozenset(c.id for c, _ in entries)

    def test_loss_history_recorded(self, dataset, word_model):
        entries = list(dataset)[:120]
        y = binary_labels(dataset, "Meta")[:120]
        pipeline = CnnPipeline(word_model, self.CONFIG).fit(entries, y)
        assert len(pipeline.loss_history) == self.CONFIG.epochs


@pytest.fixture(scope="module")
def fitted(dataset, cache):
    return TwoStepClassifier.fit(make_pipeline(cache), list(dataset), threshold=0.8)


class TestTwoStepClassifier:
    def test_moderator_comment_flagged(self, fitted, dataset):
        hits = 0
        total = 0
        for entry in dataset:
            if "Moderator" in entry[1]:
                total += 1
                result = fitted.classify(entry)
                if result.is_meta and "Moderator" in result.addressees:
                    hits += 1
        assert total > 0
        assert hits / total >= 0.8

    def test_nonmeta_comment_gated(self, fitted, dataset):
        for entry in dataset:
            if "NonMeta" in entry[1]:
                result = fitted.classify(entry)
                if not result.is_meta:
                    assert result.addressees == ()
                    assert result.confidences == {}
                    return
        pytest.fail("no gated non-meta comment found")

    def test_fit_assembles_each_entry_once(self, dataset, word_model, monkeypatch):
        # the meta gate and the addressee models share one feature matrix,
        # whose fold-invariant part is computed once per entry in a new cache
        calls = []
        text_stats_features = features.text_stats_features

        def spy(comment, *args, **kwargs):
            calls.append(comment.id)
            return text_stats_features(comment, *args, **kwargs)

        monkeypatch.setattr(features, "text_stats_features", spy)
        entries = list(dataset)[:120]
        pipeline = make_pipeline(feature_cache(word_model, keyword_seeds=CLASS_KEYWORDS),
                                 classifier_params={"C": 0.5, "tolerance": 1e-3,
                                                    "max_epochs": 50})
        TwoStepClassifier.fit(pipeline, entries)
        assert len(calls) == len(entries)

    @pytest.mark.parametrize("setting", [{"select_k": 10}, {"with_calibration": True}])
    def test_rejects_selecting_or_calibrating_pipeline(self, dataset, cache, setting):
        pipeline = make_pipeline(cache, **setting)
        with pytest.raises(ValueError, match="two-step"):
            TwoStepClassifier.fit(pipeline, list(dataset))
        assert pipeline.extractor is None  # rejected before fitting

    def test_models_carry_extractor_registry_hash(self, fitted):
        hashes = {m.registry_hash
                  for m in (fitted.meta_model, *fitted.addressee_models.values())}
        assert hashes == {fitted.extractor.registry_hash}

    def test_save_load_round_trip(self, fitted, dataset, tmp_path):
        fitted.save(tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "addressee_journalist.json", "addressee_media.json",
            "addressee_moderator.json", "extractor.json", "meta.json"]
        loaded = TwoStepClassifier.load(tmp_path, None, fitted.threshold)
        assert loaded.extractor.registry == fitted.extractor.registry
        for entry in dataset:
            assert loaded.classify(entry) == fitted.classify(entry)

    def test_saved_models_store_registry_hash_only(self, fitted, tmp_path):
        fitted.save(tmp_path)
        names = ["meta.json", *(p.name for p in tmp_path.glob("addressee_*.json"))]
        assert len(names) == 4
        for name in names:
            data = json.loads((tmp_path / name).read_text(encoding="utf-8"))
            assert data["registry"] is None, name
            assert data["registry_hash"] == fitted.extractor.registry_hash

    def test_models_with_full_registry_still_load(self, fitted, dataset, tmp_path):
        # model files that repeat the extractor's registry, as older saves did
        fitted.save(tmp_path)
        registry = tuple(fitted.extractor.registry)
        models = {"meta.json": fitted.meta_model,
                  **{f"addressee_{label.lower()}.json": model
                     for label, model in fitted.addressee_models.items()}}
        for name, model in models.items():
            save_model(replace(model, registry=registry), tmp_path / name)
            stored = json.loads((tmp_path / name).read_text(encoding="utf-8"))
            assert len(stored["registry"]) == len(registry)
        loaded = TwoStepClassifier.load(tmp_path, None, fitted.threshold)
        for entry in dataset:
            assert loaded.classify(entry) == fitted.classify(entry)

    def test_extractor_with_config_object_still_loads(self, fitted, dataset, tmp_path):
        # extractor.json as earlier versions wrote it: with a "config" object
        # of feature-group toggles, here the one that fit without a doc model
        data = _saved_extractor(fitted, tmp_path)
        assert "config" not in data
        data["config"] = {"regex": True, "keywords": True, "tfidf": True, "text": True,
                          "semantic": False, "semantic_dims": False, "metadata": True}
        _assert_loads_as_fitted(fitted, dataset, tmp_path, data)

    def test_extractor_with_tfidf_fitted_ids_still_loads(self, fitted, dataset, tmp_path):
        # extractor.json as earlier versions wrote it: with a copy of the
        # fitted ids in the tf-idf object
        data = _saved_extractor(fitted, tmp_path)
        data["tfidf"]["fitted_ids"] = list(data["fitted_ids"])
        loaded = _assert_loads_as_fitted(fitted, dataset, tmp_path, data)
        assert loaded.extractor.fitted_ids() == fitted.extractor.fitted_ids()

    def test_extractor_with_departments_and_lexicon_still_loads(self, fitted, dataset,
                                                                tmp_path):
        # extractor.json as earlier versions wrote it: with copies of the
        # shipped department list and sentiment lexicon, which are no longer written
        data = _saved_extractor(fitted, tmp_path)
        assert "departments" not in data and "sentiment_lexicon" not in data
        data["departments"] = list(features.default_departments())
        data["sentiment_lexicon"] = dict(features.default_sentiment_lexicon())
        loaded = _assert_loads_as_fitted(fitted, dataset, tmp_path, data)
        comments = list(dataset.comments())
        assert np.array_equal(loaded.extractor.matrix(comments).toarray(),
                              fitted.extractor.matrix(comments).toarray())

    def test_extractor_stores_fitted_ids_once(self, fitted, dataset, tmp_path):
        data = _saved_extractor(fitted, tmp_path)
        assert data["fitted_ids"] == sorted(c.id for c, _ in dataset)
        assert "fitted_ids" not in data["tfidf"]
        text = (tmp_path / "extractor.json").read_text(encoding="utf-8")
        assert text.count('"fitted_ids"') == 1
        loaded = TwoStepClassifier.load(tmp_path, None, fitted.threshold)
        assert loaded.extractor.fitted_ids() == frozenset(data["fitted_ids"])

    def test_threshold_one_never_assigns(self, dataset, cache):
        classifier = TwoStepClassifier.fit(make_pipeline(cache), list(dataset)[:150],
                                           threshold=1.0)
        for entry in list(dataset)[150:170]:
            assert classifier.classify(entry).addressees == ()


def _saved_extractor(classifier, directory) -> dict:
    classifier.save(directory)
    return json.loads((directory / "extractor.json").read_text(encoding="utf-8"))


def _assert_loads_as_fitted(fitted, dataset, directory, data) -> TwoStepClassifier:
    """Write data as directory's extractor.json, load the directory and check
    that it classifies every entry as fitted does."""
    with open(directory / "extractor.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(data, fh, ensure_ascii=False, sort_keys=True)
        fh.write("\n")
    loaded = TwoStepClassifier.load(directory, None, fitted.threshold)
    assert loaded.extractor.registry_hash == fitted.extractor.registry_hash
    for entry in dataset:
        assert loaded.classify(entry) == fitted.classify(entry)
    return loaded


N_UNSEEN = 12


@pytest.fixture(scope="module")
def semantic_two_step(word_model, tmp_path_factory):
    """Two-step classifier with the semantic group, saved and loaded as
    `classify` loads it, unseen entries and each entry's classify() result
    on its own."""
    ds = generate_comment_dataset(5, n_per_class=12, n_nonmeta=36)
    streams = [preprocess(c, remove_stopwords=True) for c in ds.comments()]
    dm = train_doc_embeddings(
        streams, WordTrainingParams(dim=16, window=5, min_count=2, epochs=10, seed=3),
        DocInferenceParams(steps=10, seed=3))
    directory = tmp_path_factory.mktemp("semantic_two_step")
    TwoStepClassifier.fit(make_pipeline(feature_cache(word_model, dm, CLASS_KEYWORDS)),
                          list(ds)).save(directory)
    classifier = TwoStepClassifier.load(directory, dm, threshold=0.8)
    unseen = list(generate_comment_dataset(6, n_per_class=3, n_nonmeta=3,
                                           source_tag="unseen"))
    assert len(unseen) == N_UNSEEN
    return classifier, unseen, [classifier.classify(entry) for entry in unseen]


class TestClassifyMany:
    def test_semantic_group_in_use(self, semantic_two_step):
        classifier, _, singles = semantic_two_step
        assert any(n.startswith("semantic_") for n in classifier.extractor.registry)
        assert any(r.is_meta for r in singles) and any(not r.is_meta for r in singles)

    def test_empty_batch(self, semantic_two_step):
        assert semantic_two_step[0].classify_many([]) == []

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(order=st.permutations(range(N_UNSEEN)),
           cuts=st.sets(st.integers(1, N_UNSEEN - 1)))
    def test_equals_classify_for_any_chunks_and_order(self, semantic_two_step,
                                                      order, cuts):
        classifier, unseen, singles = semantic_two_step
        ordered = [unseen[i] for i in order]
        bounds = [0, *sorted(cuts), N_UNSEEN]
        results = [result for start, end in zip(bounds, bounds[1:])
                   for result in classifier.classify_many(ordered[start:end])]
        assert results == [singles[i] for i in order]


class TestCrossDataset:
    def test_shifted_vocabulary_asymmetry(self, cache):
        alt_pools = {
            "Media": ("presse", "zeitung", "verlag"),
            "Journalist": ("schreiber", "blogger", "korrespondent"),
            "Moderator": ("aufseher", "verwalter", "kontrolleur"),
        }
        mixed_pools = {cls: CLASS_KEYWORDS[cls] + alt_pools[cls]
                       for cls in CLASS_KEYWORDS}
        ds_a = generate_comment_dataset(11, n_per_class=30, n_nonmeta=90,
                                        source_tag="a")
        ds_b = generate_comment_dataset(12, n_per_class=30, n_nonmeta=90,
                                        source_tag="b", keyword_pools=mixed_pools)

        def factory(seed):
            return make_pipeline(cache, seed=seed)

        a_to_b = cross_dataset_eval(ds_a, ds_b, factory, classes=("Meta",))
        b_to_a = cross_dataset_eval(ds_b, ds_a, factory, classes=("Meta",))
        # training on the mixed-vocabulary dataset generalizes to A, but the
        # A-trained model misses B's alternative keywords
        assert b_to_a["Meta"].recall > a_to_b["Meta"].recall
        assert b_to_a["Meta"].f_beta != a_to_b["Meta"].f_beta

    def test_extractor_fit_on_train_only(self, cache):
        ds_a = generate_comment_dataset(13, n_per_class=10, n_nonmeta=30, source_tag="a")
        ds_b = generate_comment_dataset(14, n_per_class=10, n_nonmeta=30, source_tag="b")
        seen = {}

        class RecordingPipeline(FeaturePipeline):
            def fit(self, entries, y):
                super().fit(entries, y)
                seen["ids"] = set(self.fitted_ids())
                return self

        def factory(seed):
            return RecordingPipeline(cache, seed=seed,
                                     classifier_params={"tolerance": 1e-3,
                                                        "max_epochs": 50})

        cross_dataset_eval(ds_a, ds_b, factory, classes=("Meta",))
        assert seen["ids"] == ds_a.ids()


class TestExtractorPersistence:
    def test_round_trip(self, tmp_path, dataset, cache):
        entries = list(dataset)
        y = binary_labels(dataset, "Meta")
        pipeline = make_pipeline(cache).fit(entries, y)
        path = tmp_path / "extractor.json"
        save_extractor(pipeline.extractor, path)
        assert path.read_bytes() == json_dump_bytes(json.loads(path.read_text("utf-8")))
        loaded = load_extractor(path)
        assert loaded.registry == pipeline.extractor.registry
        assert loaded.registry_hash == pipeline.extractor.registry_hash
        comment = entries[0][0]
        assert loaded.assemble(comment) == pipeline.extractor.assemble(comment)

    def test_keyword_sets_without_model(self):
        sets = build_keyword_sets(None, {"Media": ("Spiegel", "spiegel", "SPON")})
        assert sets["Media"].enriched == ("spiegel", "spon")
