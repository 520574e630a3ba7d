import numpy as np
import pytest

from metacomment import embeddings
from metacomment.corpus import LabeledDataset, LabelSet
from metacomment.embeddings import (
    DocEmbeddingModel,
    DocInferenceParams,
    WordEmbeddingModel,
    WordTrainingParams,
    cosine_similarity,
    train_doc_embeddings,
    train_word_embeddings,
)
from metacomment.features import KeywordSet
from metacomment.sampling import (
    AnnotationBatch,
    BatchItem,
    SamplingError,
    export_batch,
    keyword_average_vector,
    load_coded_csv,
    merge_annotations,
    sample_by_pattern,
    sample_by_similarity,
    sample_random,
)

from conftest import make_comment
from synthdata import doc_cluster_corpus

MOD_KS = KeywordSet("Moderator", ("sysop",), ("sysop", "zensur"))


def pattern_dataset():
    entries = (
        (make_comment("p1", text="Der sysop hat das gelöscht."), LabelSet()),
        (make_comment("p2", text="Ganz anderes Thema hier."), LabelSet()),
        (make_comment("p3", text="Schon wieder Zensur!"), LabelSet()),
        (make_comment("p4", text="Nichts zu sehen."), LabelSet()),
        (make_comment("p5", text="Was soll die Zensur, sysop?"), LabelSet()),
    )
    return LabeledDataset(entries, "pat")


class TestSampleByPattern:
    def test_n_zero_empty_batch(self):
        batch = sample_by_pattern(pattern_dataset(), MOD_KS, 0)
        assert len(batch) == 0

    def test_exhaustion_returns_fewer(self):
        batch = sample_by_pattern(pattern_dataset(), MOD_KS, 10)
        assert batch.ids() == ["p1", "p3", "p5"]

    def test_sysop_comment_sampled(self):
        batch = sample_by_pattern(pattern_dataset(), MOD_KS, 1)
        assert batch.ids() == ["p1"]
        assert batch.items[0].provenance == "pattern"


@pytest.fixture(scope="module")
def doc_streams():
    return doc_cluster_corpus(3)[0]


@pytest.fixture(scope="module")
def doc_model(doc_streams):
    params = WordTrainingParams(dim=16, window=3, min_count=1, epochs=40,
                                initial_lr=0.05, seed=11)
    return train_doc_embeddings(doc_streams, params)


def stream_dataset(streams, reverse=False):
    """One comment per training stream, under its id and with its text, so
    the doc model looks up the stream's trained vector."""
    entries = tuple((make_comment(ts.source_id, text=" ".join(ts.tokens)), LabelSet())
                    for ts in streams)
    return LabeledDataset(entries[::-1] if reverse else entries, "sim")


CLUSTER_KEYWORDS = KeywordSet("Media", ("kaffee", "espresso"), ("kaffee", "espresso"))


def cluster_ranks_first(streams, cluster_ids, dm, reverse):
    """Whether the cluster documents take the top places of the ranking."""
    batch = sample_by_similarity(stream_dataset(streams, reverse), CLUSTER_KEYWORDS,
                                 dm.word_model, dm, n=len(streams))
    return set(batch.ids()[:len(cluster_ids)]) == set(cluster_ids)


def cluster_model(seed):
    streams, cluster_ids = doc_cluster_corpus(seed, n_cluster=5, n_other=8)
    params = WordTrainingParams(dim=16, window=3, min_count=1, epochs=40,
                                initial_lr=0.05, seed=seed)
    return streams, cluster_ids, train_doc_embeddings(streams, params)


class TestSampleBySimilarity:
    def _dataset(self, dm):
        entries = tuple(
            (make_comment(doc_id, text="platzhalter."), LabelSet())
            for doc_id in dm.doc_vectors)
        return LabeledDataset(entries, "sim")

    def test_whole_corpus_when_n_large(self, doc_model, doc_streams):
        ks = KeywordSet("Media", ("kaffee",), ("kaffee",))
        anchor = doc_model.word_model.vector("kaffee")
        for reverse in (False, True):
            ds = stream_dataset(doc_streams, reverse)
            batch = sample_by_similarity(ds, ks, doc_model.word_model, doc_model, n=1000)
            assert len(batch) == len(ds)
            scores = [item.score for item in batch.items]
            # every comment is scored with its trained vector, and no two tie
            assert scores == sorted((cosine_similarity(doc_model.doc_vectors[c.id], anchor)
                                     for c in ds.comments()), reverse=True)
            assert len(set(scores)) == len(scores)

    def test_scores_are_cosine_similarity_bit_for_bit(self, doc_model):
        ks = KeywordSet("Media", ("kaffee",), ("kaffee",))
        anchor = keyword_average_vector(ks, doc_model.word_model)
        rng = np.random.default_rng(5)
        vectors = {**doc_model.doc_vectors, "zero": np.zeros(len(anchor)), "anti": -anchor,
                   **{f"r{i}": rng.normal(scale=10.0 ** rng.integers(-3, 4), size=len(anchor))
                      for i in range(20)}}
        planted = DocEmbeddingModel(doc_model.word_model, vectors, frozenset(),
                                    DocInferenceParams())
        ds = LabeledDataset(tuple((make_comment(doc_id, text="x."), LabelSet())
                                  for doc_id in vectors), "sim")
        batch = sample_by_similarity(ds, ks, doc_model.word_model, planted, n=len(vectors))
        assert len(batch) == len(vectors)
        for item in batch.items:
            assert type(item.score) is float
            assert item.score == cosine_similarity(vectors[item.comment.id], anchor)

    def test_planted_exact_match_ranks_first(self, doc_model):
        ks = KeywordSet("Media", ("kaffee",), ("kaffee",))
        anchor = keyword_average_vector(ks, doc_model.word_model)
        planted = DocEmbeddingModel(doc_model.word_model,
                                    {**doc_model.doc_vectors, "planted": anchor},
                                    frozenset(), DocInferenceParams())
        entries = tuple((make_comment(doc_id, text="x."), LabelSet())
                        for doc_id in planted.doc_vectors)
        ds = LabeledDataset(entries, "sim")
        batch = sample_by_similarity(ds, ks, planted.word_model, planted, n=3)
        assert batch.ids()[0] == "planted"
        assert batch.items[0].score == pytest.approx(1.0, abs=1e-9)

    def test_unseen_comments_inferred_in_bounded_slices(self, doc_model, monkeypatch):
        words = ("kaffee", "espresso", "tasse")
        entries = tuple((make_comment(f"u{i}", text=" ".join(words[:1 + i % 3] * (i + 1))),
                         LabelSet()) for i in range(10))
        ds = LabeledDataset(entries, "unseen")
        ks = KeywordSet("Media", ("kaffee",), ("kaffee",))
        whole = sample_by_similarity(ds, ks, doc_model.word_model, doc_model, n=10)
        sizes = []
        kernel = DocEmbeddingModel._infer_sorted

        def spy(self, indexed):
            sizes.append(len(indexed))
            return kernel(self, indexed)

        monkeypatch.setattr(embeddings, "SLICE_BYTES", 4 * embeddings.TRAIN_BATCH
                            * embeddings._example_bytes(doc_model.word_model.params))
        monkeypatch.setattr(DocEmbeddingModel, "_infer_sorted", spy)
        sliced = sample_by_similarity(ds, ks, doc_model.word_model, doc_model, n=10)
        assert sizes == [4, 4, 2]
        assert sliced.items == whole.items

    def test_all_keywords_oov_is_error(self, doc_model):
        ks = KeywordSet("Media", ("fehltoken",), ("fehltoken",))
        with pytest.raises(SamplingError, match="embedding"):
            sample_by_similarity(self._dataset(doc_model), ks,
                                 doc_model.word_model, doc_model, n=2)

    def test_cluster_members_precede_off_cluster(self):
        # topical documents must outrank every filler document for >= 95
        # of 100 training seeds, in the corpus order and reversed
        hits = {False: 0, True: 0}
        for seed in range(100):
            streams, cluster_ids, dm = cluster_model(seed)
            for reverse in hits:
                hits[reverse] += cluster_ranks_first(streams, cluster_ids, dm, reverse)
        assert min(hits.values()) >= 95

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cluster_gate_fails_on_shuffled_doc_vectors(self, seed):
        # mutation check: the same vectors under the wrong ids, each cluster
        # document given a filler document's vector, must fail the gate
        streams, cluster_ids, dm = cluster_model(seed)
        assert cluster_ranks_first(streams, cluster_ids, dm, reverse=False)
        ids = list(dm.doc_vectors)
        vectors = [dm.doc_vectors[i] for i in ids]
        shifted = vectors[len(cluster_ids):] + vectors[:len(cluster_ids)]
        shuffled = DocEmbeddingModel(dm.word_model, dict(zip(ids, shifted)), dm.flagged_ids,
                                     dm.inference_params, dm.token_digests)
        for reverse in (False, True):
            assert not cluster_ranks_first(streams, cluster_ids, shuffled, reverse)


class TestRandomAndMerge:
    def test_random_deterministic(self):
        ds = pattern_dataset()
        a = sample_random(ds, 3, seed=5)
        b = sample_random(ds, 3, seed=5)
        assert a.ids() == b.ids()

    def test_batch_rejects_duplicates(self):
        c = make_comment("x1", text="a b.")
        with pytest.raises(SamplingError, match="duplicate"):
            AnnotationBatch("a", (BatchItem(c, "random"), BatchItem(c, "random")))

    def test_batch_rejects_increasing_scores(self):
        with pytest.raises(SamplingError, match="non-increasing"):
            AnnotationBatch("a", (
                BatchItem(make_comment("x1", text="a."), "similarity", 0.1),
                BatchItem(make_comment("x2", text="b."), "similarity", 0.9)))


class TestMergeAnnotations:
    def _ds(self):
        entries = tuple((make_comment(f"m{i}", text=f"Text {i}."), LabelSet())
                        for i in range(5))
        return LabeledDataset(entries, "merge")

    def test_two_of_three_majority(self):
        ds = self._ds()
        coded = [("m0", LabelSet.of("Meta")), ("m0", LabelSet.of("Meta")),
                 ("m0", LabelSet.of("NonMeta"))]
        merged, flagged = merge_annotations(ds, coded)
        assert {c.id: ls for c, ls in merged}["m0"] == LabelSet.of("Meta")
        assert flagged == ()

    def test_three_way_disagreement_flagged(self):
        ds = self._ds()
        coded = [("m1", LabelSet.of("Meta", "Media")),
                 ("m1", LabelSet.of("NonMeta")),
                 ("m1", LabelSet())]
        merged, flagged = merge_annotations(ds, coded)
        assert flagged == ("m1",)
        assert {c.id: ls for c, ls in merged}["m1"] == LabelSet()

    def test_five_comment_hand_tally(self):
        ds = self._ds()
        coded = [
            ("m0", LabelSet.of("Meta", "Media")), ("m0", LabelSet.of("Meta", "Media")),
            ("m0", LabelSet.of("Meta")),
            ("m1", LabelSet.of("NonMeta")), ("m1", LabelSet.of("NonMeta")),
            ("m1", LabelSet.of("NonMeta")),
            ("m2", LabelSet.of("Meta", "Moderator")), ("m2", LabelSet.of("NonMeta")),
            ("m2", LabelSet.of("Meta", "Moderator")),
            ("m3", LabelSet.of("Meta")), ("m3", LabelSet.of("NonMeta")),
            ("m3", LabelSet.of("Media", "Meta")),
            ("m4", LabelSet()), ("m4", LabelSet()), ("m4", LabelSet()),
        ]
        merged, flagged = merge_annotations(ds, coded)
        counts = merged.label_counts()
        # hand tally: m0 Meta+Media, m1 NonMeta, m2 Meta+Moderator, m3 Meta, m4 none
        assert counts == {"Media": 1, "Journalist": 0, "Moderator": 1,
                          "Meta": 3, "NonMeta": 1}
        assert flagged == ()

    def test_strict_requires_unanimity(self):
        ds = self._ds()
        coded = [("m0", LabelSet.of("Meta")), ("m0", LabelSet.of("Meta", "Media"))]
        merged, flagged = merge_annotations(ds, coded, policy="strict")
        assert flagged == ("m0",)

    def test_unknown_id_is_error(self):
        with pytest.raises(SamplingError, match="unknown comment id"):
            merge_annotations(self._ds(), [("ghost", LabelSet.of("Meta"))])


class TestBatchCsv:
    def test_export_and_reload(self, tmp_path):
        batch = sample_by_pattern(pattern_dataset(), MOD_KS, 10)
        path = tmp_path / "batch.csv"
        export_batch(batch, path)
        first_line = path.read_text(encoding="utf-8").splitlines()[0]
        assert first_line.startswith("# labels:")
        assert "Moderator" in first_line
        coded = load_coded_csv(path)
        assert [cid for cid, _ in coded] == batch.ids()
        assert all(not ls for _, ls in coded)

    def test_load_filled_labels(self, tmp_path):
        batch = sample_by_pattern(pattern_dataset(), MOD_KS, 2)
        path = tmp_path / "batch.csv"
        export_batch(batch, path)
        text = path.read_text(encoding="utf-8")
        text = text.replace("pattern,,\n", "pattern,,Meta;Moderator\n", 1)
        path.write_text(text, encoding="utf-8")
        coded = load_coded_csv(path)
        assert coded[0][1] == LabelSet.of("Meta", "Moderator")
