import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metacomment.corpus import CLASS_ORDER, LabelSet, LabeledDataset
from metacomment.embeddings import (
    DocEmbeddingModel,
    DocInferenceParams,
    WordEmbeddingModel,
    WordTrainingParams,
    train_word_embeddings,
)
from metacomment.features import (
    ClassVector,
    FeatureError,
    FeatureExtractor,
    KeywordSet,
    TEXT_STAT_NAMES,
    anova_f_matrix,
    build_matrix,
    class_vectors,
    comment_vectors,
    compile_keyword_pattern,
    count_pattern_matches,
    default_departments,
    default_keyword_seeds,
    enrich_keywords,
    metadata_features,
    select_k_best,
    semantic_features,
    text_stats_features,
    tfidf_fit,
    tfidf_transform,
    _keyword_forms,
    _pattern_text,
    _semantic_names,
)
from metacomment.textprep import TokenStream, ngrams, scan_text

from conftest import make_comment
from oracles import reference_semantic, text_stats_reference
from synthdata import synonym_word_corpus


@pytest.fixture(scope="module")
def toy_model():
    return train_word_embeddings(
        synonym_word_corpus(0, n_sentences=200),
        WordTrainingParams(dim=16, window=1, min_count=2, epochs=5, seed=7))


def fake_doc_model(doc_vectors):
    """Doc model with hand-set vectors for exact semantic-feature tests."""
    dim = len(next(iter(doc_vectors.values())))
    word_model = WordEmbeddingModel(
        {"dummy": 0}, np.zeros((1, dim)), np.zeros((1, dim)),
        np.array([1]), WordTrainingParams(dim=dim, min_count=1))
    vectors = {k: np.asarray(v, dtype=float) for k, v in doc_vectors.items()}
    return DocEmbeddingModel(word_model, vectors, frozenset(), DocInferenceParams())


class TestEnrichKeywords:
    def test_top_n_zero_returns_seeds(self, toy_model):
        ks = enrich_keywords(["kaffee", "tee"], toy_model, top_n=0, min_sim=0.0)
        assert ks.enriched == ("kaffee", "tee")

    def test_oov_seed_kept_and_flagged(self, toy_model):
        ks = enrich_keywords(["kaffee", "espressomaschine"], toy_model,
                             top_n=2, min_sim=0.0)
        assert "espressomaschine" in ks.enriched
        assert ks.missing == ("espressomaschine",)

    def test_planted_synonym_enriched(self, toy_model):
        ks = enrich_keywords(["kaffee"], toy_model, top_n=3, min_sim=0.2)
        assert "tee" in ks.enriched

    def test_seeds_precede_neighbors(self, toy_model):
        ks = enrich_keywords(["kaffee"], toy_model, top_n=3, min_sim=0.0)
        assert ks.enriched[0] == "kaffee"
        assert ks.seeds == ("kaffee",)

    def test_min_sim_filters(self, toy_model):
        ks = enrich_keywords(["kaffee"], toy_model, top_n=10, min_sim=1.0)
        assert ks.enriched == ("kaffee",)

    def test_invalid_args(self, toy_model):
        with pytest.raises(FeatureError):
            enrich_keywords(["kaffee"], toy_model, top_n=-1, min_sim=0.0)
        with pytest.raises(FeatureError):
            enrich_keywords(["kaffee"], toy_model, top_n=1, min_sim=1.5)


class TestPatternMatching:
    PATTERN = compile_keyword_pattern(("autor",))

    def test_single_match(self):
        c = make_comment(text="Der Autor schreibt.")
        assert count_pattern_matches(c, self.PATTERN) == 1

    def test_no_match(self):
        c = make_comment(text="…")
        assert count_pattern_matches(c, self.PATTERN) == 0

    def test_inflection_suffixes(self):
        c = make_comment(text="Autorin und Autoren")
        assert count_pattern_matches(c, self.PATTERN) == 2

    def test_whole_word_only(self):
        c = make_comment(text="Der Koautorenvertrag gilt.")
        assert count_pattern_matches(c, self.PATTERN) == 0

    def test_title_included(self):
        c = make_comment(title="Lieber Autor", text="bitte lesen.")
        assert count_pattern_matches(c, self.PATTERN) == 1

    def test_default_seed_files_load(self):
        seeds = default_keyword_seeds()
        assert set(seeds) == {"Media", "Journalist", "Moderator"}
        assert "sysop" in seeds["Moderator"]


# characters that re.IGNORECASE and str.lower compare differently, with
# their partners, and ones that they compare alike
CASE_CHARS = ("s\u017fSi\u0131I\u0130\u00b5\u03bc\u039c\u03c2\u03c3\u03a3\u03b2\u03d0"
              "\u03b8\u03d1\u03c6\u03d5\u03c0\u03d6\u03ba\u03f0\u03c1\u03f1\u03b5"
              "\u03f5\u1e61\u1e9b\ufb05\ufb06\u03b9\u0345\u1fbe\u0399\u0390\u1fd3"
              "\u03b0\u1fe3\u0432\u1c80\u212a\u212b\u00df\u1e9e")
WORD_CHARS = "abegilnorstuzAEGNRTUZ\u00e4\u00f6\u00fc\u00c4\u00d6\u00dc09_" + CASE_CHARS
KEYWORDS = ("zeitung", "zeitungen", "zeit", "autor", "autorin", "glaubw\u00fcrdigkeit",
            "gel\u00f6scht", "st", "s", "i", "\u00b5", "\u017ft", "spiegel online", "a-b")
TEXT_PIECES = ("Zeitung", "ZEITUNGEN", "zeitungs", "Zeitungin", "zeit", "Autorinnen",
               "GLAUBW\u00dcRDIGKEIT", "gel\u00f6schtes", "st", "\u017fT", "SPIEGEL online",
               "a-b", "_", "2", " ", "", "-", ".", "\n", "?! ", "\u00b7")
keyword_text = st.one_of(st.sampled_from(KEYWORDS),
                         st.text(alphabet=WORD_CHARS, min_size=1, max_size=4))
comment_text = st.lists(st.one_of(st.sampled_from(TEXT_PIECES),
                                  st.text(alphabet=WORD_CHARS + " .-\n", max_size=4),
                                  st.text(max_size=3)), max_size=30).map("".join)


class TestOneScanPatternCounts:
    """Counting over the runs that _pattern_text keeps against the regex
    over the whole text."""

    @settings(max_examples=400, deadline=None)
    @given(keyword_lists=st.lists(st.lists(keyword_text, max_size=5), min_size=1, max_size=3),
           title=comment_text, text=comment_text)
    def test_counts_equal_count_pattern_matches(self, keyword_lists, title, text):
        comment = make_comment(title=title, text=text + " .")
        kept = _pattern_text(scan_text(comment), _keyword_forms(keyword_lists))
        for keywords in keyword_lists:
            pattern = compile_keyword_pattern(keywords)
            assert len(pattern.findall(kept)) == count_pattern_matches(comment, pattern)

    def test_which_texts_are_cut_to_their_keyword_runs(self):
        forms = _keyword_forms(default_keyword_seeds().values())
        assert forms is not None
        assert _pattern_text("Der Autor der Zeitung, Autorinnen!", _keyword_forms(
            [("autor",), ("zeitung",)])) == "Autor Zeitung Autorinnen"
        assert _keyword_forms([("spiegel online",)]) is None
        assert _keyword_forms([("\u017ft",)]) is None
        text = "Der Autor \u017fchreibt"
        assert _pattern_text(text, _keyword_forms([("autor",)])) == text


def brute_force_tfidf(train_tokens):
    """Independent tf-idf oracle from the stated formulas."""
    def grams(tokens):
        return list(tokens) + [a + "_" + b for a, b in zip(tokens, tokens[1:])]

    n = len(train_tokens)
    vocab = []
    for tokens in train_tokens:
        for g in grams(tokens):
            if g not in vocab:
                vocab.append(g)
    df = {g: sum(g in set(grams(t)) for t in train_tokens) for g in vocab}
    idf = {g: math.log((1 + n) / (1 + df[g])) + 1.0 for g in vocab}

    def transform(tokens):
        tf = {}
        for g in grams(tokens):
            if g in idf:
                tf[g] = tf.get(g, 0) + 1
        weights = {g: c * idf[g] for g, c in tf.items()}
        norm = math.sqrt(sum(w * w for w in weights.values()))
        return {g: w / norm for g, w in weights.items()} if norm else {}

    return idf, transform


class TestTfidf:
    def test_two_doc_idf_hand_values(self):
        model = tfidf_fit([TokenStream(("a", "b"), "d1"), TokenStream(("a", "c"), "d2")])
        assert model.idf[model.vocabulary["a"]] == pytest.approx(1.0, abs=1e-12)
        assert model.idf[model.vocabulary["b"]] == pytest.approx(
            1 + math.log(3 / 2), abs=1e-12)

    def test_unseen_ngrams_give_zero_vector(self):
        model = tfidf_fit([TokenStream(("a", "b"), "d1")])
        assert tfidf_transform(model, TokenStream(("x", "y"), "q")) == {}

    def test_single_doc_transform_unit_norm(self):
        ts = TokenStream(("a", "b", "a"), "d1")
        model = tfidf_fit([ts])
        weights = tfidf_transform(model, ts)
        assert math.sqrt(sum(w * w for w in weights.values())) == pytest.approx(1.0)

    @settings(max_examples=200, deadline=None)
    @given(corpus=st.lists(st.lists(st.sampled_from("abcdef"), max_size=6),
                           min_size=1, max_size=5),
           query=st.lists(st.sampled_from("abcdefgh"), max_size=8))
    def test_every_row_unit_norm_or_empty(self, corpus, query):
        model = tfidf_fit([TokenStream(d, f"d{i}") for i, d in enumerate(corpus)])
        for tokens in corpus + [query]:
            weights = tfidf_transform(model, TokenStream(tokens, "q"))
            if weights:
                assert abs(math.sqrt(sum(w * w for w in weights.values())) - 1.0) <= 1e-12
            else:
                assert not any(g in model.vocabulary for g in ngrams(TokenStream(tokens)))

    def test_empty_corpus_error(self):
        with pytest.raises(FeatureError, match="non-empty"):
            tfidf_fit([])

    def test_transform_before_fit_error(self):
        with pytest.raises(FeatureError, match="before fit"):
            tfidf_transform(None, TokenStream(("a",), "q"))

    def test_matches_brute_force_on_random_small_corpora(self):
        rng = np.random.default_rng(42)
        alphabet = list("abcdef")
        for _ in range(200):
            n_docs = int(rng.integers(1, 6))
            docs = [tuple(rng.choice(alphabet, size=rng.integers(1, 5)))
                    for _ in range(n_docs)]
            streams = [TokenStream(d, f"d{i}") for i, d in enumerate(docs)]
            model = tfidf_fit(streams)
            _, oracle = brute_force_tfidf(docs)
            for ts, tokens in zip(streams, docs):
                got = tfidf_transform(model, ts)
                want = oracle(tokens)
                assert set(got) == set(want)
                for g in want:
                    assert got[g] == pytest.approx(want[g], abs=1e-12)


# whitespace that str.split splits on beyond ASCII, title case, upper case
# outside Lu (Nl, So, mathematical letters), case-odd letters, and the German
# quotes and dashes that count as punctuation
STATS_CHARS = ("\x1c\x1d\x1e\x1f\x85\xa0\u3000\u2028\u01c5\u03d2\u2160\u24b6"
               "\U0001d400\u017f\u0130\u00ab\u00bb\u201e\u201c\u201d\u201a\u2018"
               "\u2019\u2013\u2014\u2026 \t\n.,!?-'SieAbcß")
stats_text = st.lists(st.one_of(st.text(alphabet=STATS_CHARS, max_size=6),
                                st.sampled_from(TEXT_PIECES), st.text(max_size=3)),
                      max_size=20).map("".join)


class TestTextStats:
    @settings(max_examples=500, deadline=None)
    @given(title=stats_text, text=stats_text)
    def test_matches_word_by_word_reference(self, title, text):
        comment = make_comment(title=title, text=text + ".")
        lexicon = {"gut": 0.5, "sie": -0.25, "\u0131": 1.0}
        assert text_stats_features(comment, lexicon) == text_stats_reference(comment, lexicon)

    def test_reference_agrees_on_the_listed_characters(self):
        text = "\u201eSIE\u201c\x1cab\u3000\u01c5\u03d2\u2160\u24b6\U0001d400 \u2013 \u017f\u0130."
        comment = make_comment(text=text)
        stats = text_stats_features(comment)
        assert stats == text_stats_reference(comment)
        assert stats["text_capitalletters"] == 8.0

    def test_sentence_initial_sie_not_counted(self):
        stats = text_stats_features(make_comment(text="Sie haben recht."))
        assert stats["text_num_sie"] == 0.0

    def test_sie_after_question_mark_excluded(self):
        stats = text_stats_features(
            make_comment(text="Haben Sie das gelesen? Sie schon wieder."))
        assert stats["text_num_sie"] == 1.0
        assert stats["text_num_questions"] == 1.0

    def test_question_runs(self):
        stats = text_stats_features(make_comment(text="Warum? Wieso??"))
        assert stats["text_num_questions"] == 2.0

    def test_degenerate_comment_all_zero(self):
        # the data model forbids empty text, so a lone period is the
        # smallest legal comment: no words, no capitals, no hits
        stats = text_stats_features(make_comment(text="."))
        assert tuple(stats) == TEXT_STAT_NAMES
        assert stats == {"text_length": 1.0, "text_avgwordlength": 0.0,
                         "text_capitalletters": 0.0, "text_num_sie": 0.0,
                         "text_num_questions": 0.0, "text_sentiment": 0.0}

    def test_length_is_title_plus_text_characters(self):
        stats = text_stats_features(make_comment(title="Ab", text="cde."))
        assert stats["text_length"] == 6.0

    def test_capital_letters(self):
        stats = text_stats_features(make_comment(text="SPIEGEL Online macht das GUT"))
        assert stats["text_capitalletters"] == 11.0

    def test_avg_word_length_strips_punctuation(self):
        stats = text_stats_features(make_comment(text="Ja, gut!"))
        assert stats["text_avgwordlength"] == pytest.approx(2.5)

    def test_sentiment_mean_over_hits(self):
        lexicon = {"gut": 0.5, "schlecht": -0.9}
        stats = text_stats_features(make_comment(text="Gut gemacht, nicht schlecht!"),
                                    lexicon=lexicon)
        assert stats["text_sentiment"] == pytest.approx((0.5 - 0.9) / 2)

    def test_sentiment_zero_without_hits(self):
        stats = text_stats_features(make_comment(text="Neutraler Satz."),
                                    lexicon={"gut": 0.5})
        assert stats["text_sentiment"] == 0.0


class TestClassVectors:
    def _dataset(self, labels_by_id):
        entries = tuple(
            (make_comment(cid, text=f"Text {cid}."), LabelSet.of(*labels))
            for cid, labels in labels_by_id.items())
        return LabeledDataset(entries, "t")

    def test_single_member_class(self):
        dm = fake_doc_model({"a": [2.0, 4.0], "b": [1.0, 1.0]})
        ds = self._dataset({"a": ("Meta",), "b": ("NonMeta",)})
        cvs = class_vectors(dm, ds, classes=("Meta", "NonMeta"))
        assert np.allclose(cvs[0].vector, [2.0, 4.0])

    def test_mean_symmetry(self):
        dm = fake_doc_model({"a": [1.0, 0.0], "b": [0.0, 1.0]})
        ds = self._dataset({"a": ("Meta",), "b": ("Meta",)})
        cvs = class_vectors(dm, ds, classes=("Meta",))
        assert np.allclose(cvs[0].vector, [0.5, 0.5])

    def test_hand_mean(self):
        dm = fake_doc_model({"a": [2.0, 2.0], "b": [4.0, 6.0], "c": [0.0, 1.0]})
        ds = self._dataset({"a": ("Meta",), "b": ("Meta",), "c": ("Meta",)})
        cvs = class_vectors(dm, ds, classes=("Meta",))
        assert np.allclose(cvs[0].vector, [2.0, 3.0])

    def test_empty_class_error_names_class(self):
        dm = fake_doc_model({"a": [1.0, 0.0]})
        ds = self._dataset({"a": ("Meta",)})
        with pytest.raises(FeatureError, match="NonMeta"):
            class_vectors(dm, ds, classes=("Meta", "NonMeta"))


def semantic_row(cvs, vec):
    """semantic_features of one comment vector, by column name."""
    ordered = sorted(cvs, key=lambda cv: CLASS_ORDER.index(cv.label))
    return dict(zip(_semantic_names(ordered),
                    semantic_features(cvs, np.array([vec]))[0].tolist()))


class TestSemanticFeatures:
    def test_member_of_class_vector_has_distance_zero(self):
        cvs = [ClassVector("Media", np.array([1.0, 0.0])),
               ClassVector("NonMeta", np.array([0.0, 1.0]))]
        values = semantic_row(cvs, np.array([1.0, 0.0]))
        assert values["semantic_dist_media"] == pytest.approx(0.0, abs=1e-12)
        assert values["semantic_min_dist_media"] == 1.0
        assert values["semantic_min_dist_non-meta"] == 0.0

    def test_argmin_on_clear_case(self):
        cvs = [ClassVector("Media", np.array([1.0, 0.0])),
               ClassVector("Journalist", np.array([0.0, 1.0]))]
        values = semantic_row(cvs, np.array([1.0, 0.0]))
        assert values["semantic_dist_journalist"] == pytest.approx(1.0)
        assert values["semantic_min_dist_media"] == 1.0

    def test_tie_broken_by_class_order(self):
        cvs = [ClassVector("Moderator", np.array([1.0, 0.0])),
               ClassVector("Media", np.array([0.0, 1.0]))]
        values = semantic_row(cvs, np.array([1.0, 1.0]))
        # equidistant: Media wins because it precedes Moderator in class order
        assert values["semantic_min_dist_media"] == 1.0
        assert values["semantic_min_dist_moderator"] == 0.0

    def test_exactly_one_hot_bit(self):
        rng = np.random.default_rng(0)
        for trial in range(25):
            vec = rng.normal(size=4)
            cvs = [ClassVector(cls, rng.normal(size=4))
                   for cls in ("Media", "Journalist", "Moderator")]
            values = semantic_row(cvs, vec)
            hot = [v for k, v in values.items() if k.startswith("semantic_min_dist_")]
            assert sum(hot) == 1.0


class TestSemanticOracle:
    """semantic_features against the cosine_distance loop, bit for bit."""

    def assert_matches(self, cvs, vec):
        values = semantic_row(cvs, vec)
        names, expected = reference_semantic(cvs, vec)
        assert list(values) == names
        assert np.array_equal(np.array(list(values.values())), expected)

    def test_random_vectors(self):
        rng = np.random.default_rng(0)
        for trial in range(200):
            dim = int(rng.integers(1, 40))
            classes = [c for c in CLASS_ORDER if rng.random() < 0.7] or ["Meta"]
            cvs = [ClassVector(c, rng.normal(size=dim)) for c in classes]
            self.assert_matches(cvs, rng.normal(scale=rng.uniform(0.01, 10), size=dim))

    def test_parallel_vectors_clamp(self):
        # cosines of parallel vectors can round just past 1 before the clamp
        rng = np.random.default_rng(1)
        for _ in range(50):
            base = rng.normal(size=16)
            cvs = [ClassVector(c, base * rng.uniform(0.1, 10)) for c in CLASS_ORDER]
            self.assert_matches(cvs, base * rng.uniform(0.1, 10))
            self.assert_matches(cvs, -base)

    def test_zero_comment_vector(self):
        # an all-OOV comment: distance 1 to every class, the first class nearest
        cvs = [ClassVector(c, np.arange(1.0, 4.0) + i) for i, c in enumerate(CLASS_ORDER)]
        self.assert_matches(cvs, np.zeros(3))
        values = semantic_row(cvs, np.zeros(3))
        assert values["semantic_dist_meta"] == 1.0
        assert values["semantic_min_dist_media"] == 1.0

    def test_zero_class_vector(self):
        cvs = [ClassVector("Media", np.zeros(3)),
               ClassVector("Journalist", np.array([1.0, 2.0, 3.0]))]
        vec = np.array([-1.0, -2.0, -2.5])
        self.assert_matches(cvs, vec)
        assert semantic_row(cvs, vec)["semantic_dist_media"] == 1.0

    def test_class_vectors_out_of_order(self):
        rng = np.random.default_rng(2)
        cvs = [ClassVector(c, rng.normal(size=8)) for c in CLASS_ORDER]
        vec = rng.normal(size=8)
        in_order = semantic_row(cvs, vec)
        for _ in range(10):
            shuffled = [cvs[i] for i in rng.permutation(len(cvs))]
            self.assert_matches(shuffled, vec)
            assert semantic_row(shuffled, vec) == in_order

    def test_tie_goes_to_first_class_in_order(self):
        # Journalist and NonMeta share a direction, so their distances are equal
        direction = np.array([0.5, -1.0, 2.0])
        cvs = [ClassVector("NonMeta", direction), ClassVector("Media", -direction),
               ClassVector("Journalist", direction.copy())]
        vec = direction * 2.0
        self.assert_matches(cvs, vec)
        values = semantic_row(cvs, vec)
        assert values["semantic_dist_journalist"] == values["semantic_dist_non-meta"]
        assert values["semantic_min_dist_journalist"] == 1.0
        assert values["semantic_min_dist_non-meta"] == 0.0

    def assert_block_matches(self, cvs, vectors):
        block = semantic_features(cvs, vectors)
        assert block.shape == (len(vectors), 2 * len(cvs))
        expected = [reference_semantic(cvs, vec)[1] for vec in vectors]
        assert np.array_equal(block, np.reshape(expected, block.shape))

    def test_random_batches(self):
        # every row of the block is its own oracle row, whatever the batch
        rng = np.random.default_rng(3)
        for trial in range(60):
            dim = int(rng.choice([1, 7, 300, rng.integers(1, 401)]))
            n = int(rng.choice([0, 1, rng.integers(2, 40)]))
            classes = [c for c in CLASS_ORDER if rng.random() < 0.7] or ["Meta"]
            cvs = [ClassVector(c, rng.normal(size=dim)) for c in rng.permutation(classes)]
            if rng.random() < 0.3:
                cvs[0] = ClassVector(cvs[0].label, np.zeros(dim))
            vectors = rng.normal(scale=rng.uniform(0.01, 10), size=(n, dim))
            vectors[rng.random(n) < 0.2] = 0.0
            self.assert_block_matches(cvs, vectors)

    def test_empty_batch(self):
        cvs = [ClassVector(c, np.ones(4)) for c in ("Media", "NonMeta")]
        assert semantic_features(cvs, np.empty((0, 4))).shape == (0, 4)

    def test_batch_with_zero_rows_zero_classes_and_exact_ties(self):
        rng = np.random.default_rng(4)
        direction = rng.normal(size=5)
        cvs = [ClassVector("NonMeta", direction), ClassVector("Media", -direction),
               ClassVector("Meta", np.zeros(5)), ClassVector("Journalist", direction.copy())]
        vectors = np.array([2.0 * direction, -direction, np.zeros(5),
                            rng.normal(size=5), 3.0 * direction])
        self.assert_block_matches(cvs, vectors)
        # columns: Media, Journalist, Meta, NonMeta distances, then the one-hot
        block = semantic_features(cvs, vectors)
        assert np.array_equal(block[:, 2], np.ones(5))
        assert np.array_equal(block[:, 1], block[:, 3])
        assert block[0, 4:].tolist() == [0.0, 1.0, 0.0, 0.0]
        assert block[2, 4:].tolist() == [1.0, 0.0, 0.0, 0.0]
        assert block[4, 4:].tolist() == [0.0, 1.0, 0.0, 0.0]


class TestMetadataFeatures:
    def test_calendar_mapping(self):
        from datetime import datetime
        c = make_comment(timestamp=datetime(2016, 5, 2, 9, 0))  # a Monday
        values = metadata_features(c)
        assert values["dow_0"] == 1.0
        assert values["hour_9"] == 1.0

    def test_absent_department_gives_no_department_features(self):
        values = metadata_features(make_comment())
        assert not any(k.startswith("department_") for k in values)

    def test_unknown_department_maps_to_other(self):
        values = metadata_features(make_comment(department="satire"))
        assert values["department_other"] == 1.0

    def test_quote_flag(self):
        values = metadata_features(make_comment(has_quote=True))
        assert values["has_quote"] == 1.0

    def test_position_feature(self):
        values = metadata_features(make_comment(position=17))
        assert values["position"] == 17.0


class TestAssemble:
    KS = {
        "Media": KeywordSet("Media", ("spiegel",), ("spiegel", "spon")),
        "Journalist": KeywordSet("Journalist", ("autor",), ("autor",)),
        "Moderator": KeywordSet("Moderator", ("sysop",), ("sysop",)),
    }

    # the shipped department list, whose first entry is politik
    METADATA = (*(f"department_{d}" for d in default_departments()),
                "department_other", "position", "has_quote",
                *(f"dow_{i}" for i in range(7)), *(f"hour_{i}" for i in range(24)))

    def test_text_only_config_has_six_features(self):
        # no fitted models: the six text statistics, then metadata
        extractor = FeatureExtractor()
        assert extractor.registry == TEXT_STAT_NAMES + self.METADATA
        fv = extractor.assemble(make_comment(text="Warum GUT?", department="politik"))
        assert set(fv) <= set(extractor.registry)
        assert fv["text_num_questions"] == 1.0
        assert fv["department_politik"] == 1.0

    def test_regex_only_config_has_three_features(self):
        # keyword sets alone: three regex columns first, then each enriched
        # keyword, then text statistics and metadata
        extractor = FeatureExtractor(keyword_sets=self.KS)
        assert extractor.registry == (
            "regex_media_matches", "regex_journalist_matches", "regex_moderator_matches",
            "keyword_spiegel", "keyword_spon", "keyword_autor", "keyword_sysop",
            *TEXT_STAT_NAMES, *self.METADATA)
        fv = extractor.assemble(make_comment(text="Der Autor im SPON."))
        assert fv["regex_journalist_matches"] == 1.0
        assert fv["keyword_spon"] == 1.0

    def test_missing_fitted_model_is_error(self):
        cvs = [ClassVector("Meta", np.array([1.0, 0.0]))]
        with pytest.raises(FeatureError, match="class vectors"):
            FeatureExtractor(class_vecs=cvs)

    def test_assembled_names_within_registry(self):
        tfidf = tfidf_fit([TokenStream(("autor", "artikel"), "d1"),
                           TokenStream(("spiegel", "bericht"), "d2")])
        dm = fake_doc_model({"a": [1.0, 0.0]})
        cvs = [ClassVector("Meta", np.array([1.0, 0.0])),
               ClassVector("NonMeta", np.array([0.0, 1.0]))]
        extractor = FeatureExtractor(
            keyword_sets=self.KS, tfidf=tfidf, doc_model=dm, class_vecs=cvs)
        c = make_comment("a", title="Autor", text="Der Autor im SPIEGEL? Sehr gut!",
                         department="politik", position=3, has_quote=False)
        fv = extractor.assemble(c, comment_vectors(dm, [c])[0])
        assert set(fv) <= set(extractor.registry)
        assert fv["regex_journalist_matches"] == 2.0
        # comment "a" has the trained vector [1, 0]: nearest to Meta
        assert fv["semantic_dist_non-meta"] == pytest.approx(1.0)
        assert fv["semantic_min_dist_meta"] == 1.0
        X = extractor.matrix([c]).toarray()
        assert {extractor.registry[col]: X[0, col] for col in np.flatnonzero(X[0])} == fv
        with pytest.raises(FeatureError, match="comment a: .*vector"):
            extractor.assemble(c)

    def test_assemble_is_pure(self):
        extractor = FeatureExtractor(keyword_sets=self.KS)
        c = make_comment(text="Der Autor! Warum?")
        assert extractor.assemble(c) == extractor.assemble(c)

    def test_rejects_nonfinite_feature(self):
        # comment "a" has a trained vector holding a NaN, so its semantic
        # distances come out NaN; matrix names the comment and the first column
        dm = fake_doc_model({"a": [float("nan"), 0.0]})
        cvs = [ClassVector("Meta", np.array([1.0, 0.0])),
               ClassVector("NonMeta", np.array([0.0, 1.0]))]
        extractor = FeatureExtractor(doc_model=dm, class_vecs=cvs)
        with pytest.raises(FeatureError, match="comment a: non-finite value for "
                                               "feature 'semantic_dist_meta'"):
            extractor.matrix([make_comment("a", text="Warum?")])

    def test_rejects_nonfinite_metadata(self):
        # the finiteness check scans the whole matrix; the message still
        # names the first bad cell's comment and feature
        extractor = FeatureExtractor(keyword_sets=self.KS)
        comments = [make_comment("a", text="Warum?", position=2),
                    make_comment("b", text="Warum?", position=float("nan"))]
        with pytest.raises(FeatureError, match="comment b: non-finite value for "
                                               "feature 'position'"):
            extractor.matrix(comments)


class TestAnova:
    def test_hand_case_f_equals_eight(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = [0, 0, 1, 1]
        assert anova_f_matrix(X, y)[0] == 8.0

    def test_constant_feature_zero(self):
        X = np.array([[0.1], [0.1], [0.1], [0.1]])
        assert anova_f_matrix(X, [0, 0, 1, 1])[0] == 0.0

    def test_perfect_separation_infinite(self):
        X = np.array([[0.0], [0.0], [1.0], [1.0]])
        assert anova_f_matrix(X, [0, 0, 1, 1])[0] == np.inf

    def test_single_class_error(self):
        with pytest.raises(FeatureError, match="both classes"):
            anova_f_matrix(np.ones((3, 1)), [1, 1, 1])

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 6))
        y = rng.integers(0, 2, size=40)
        y[:2] = [0, 1]
        base = anova_f_matrix(X, y)
        scaled = anova_f_matrix(X * 37.5, y)
        assert np.allclose(scaled, base, rtol=1e-9)

    def test_named_scores(self):
        # named rows -> matrix -> scores
        X = build_matrix([{"a": 1.0}, {"a": 2.0}, {"a": 3.0}, {"a": 4.0}], ("a",))
        scores = dict(zip(("a",), anova_f_matrix(X, [0, 0, 1, 1])))
        assert scores["a"] == 8.0


class TestSelectKBest:
    def test_all_orders_by_score(self):
        assert select_k_best(np.array([1.0, 5.0, 3.0]), 3).tolist() == [1, 2, 0]

    def test_k_zero(self):
        assert select_k_best(np.array([1.0]), 0).tolist() == []

    def test_k_too_large_is_error(self):
        with pytest.raises(FeatureError, match="out of range"):
            select_k_best(np.array([1.0]), 2)

    def test_ties_break_by_registry_order(self):
        assert select_k_best(np.array([2.0, 2.0, 1.0]), 2).tolist() == [0, 1]

    def test_infinite_scores_sort_first(self):
        assert select_k_best(np.array([5.0, np.inf, 1.0]), 3)[0] == 1

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.5, np.inf])
                    | st.floats(min_value=0.0, allow_nan=False), max_size=40),
           st.integers(min_value=0, max_value=40))
    def test_matches_sorted_oracle(self, values, k):
        scores = np.array(values, dtype=float)
        k = min(k, len(scores))
        oracle = sorted(range(len(scores)), key=lambda i: (-scores[i], i))[:k]
        assert select_k_best(scores, k).tolist() == oracle

    def test_planted_informative_feature_ranked_first(self):
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n = 60
            y = np.array([0] * 30 + [1] * 30)
            X = rng.normal(size=(n, 101))
            X[:, 57] += 2.0 * y  # planted signal
            if select_k_best(anova_f_matrix(X, y), 1).tolist() == [57]:
                hits += 1
        assert hits >= 99
