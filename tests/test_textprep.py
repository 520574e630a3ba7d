from metacomment.textprep import (
    TokenStream,
    default_stopwords,
    load_stopwords,
    ngrams,
    preprocess,
    tokenize,
)

from conftest import make_comment


class TestPreprocess:
    def test_punctuation_stripped_and_lowercased(self):
        c = make_comment(text="Hallo!")
        assert preprocess(c).tokens == ("hallo",)

    def test_pipeline_order_with_stopwords(self):
        c = make_comment(title="Der Artikel", text="ist GUT.")
        ts = preprocess(c, remove_stopwords=True, stopwords=frozenset({"der", "ist"}))
        assert ts.tokens == ("artikel", "gut")

    def test_punctuation_only_text(self):
        c = make_comment(text="???")
        assert preprocess(c).tokens == ()

    def test_german_quotes_do_not_glue_tokens(self):
        c = make_comment(text="„Zensur“–sagt er…wirklich")
        assert preprocess(c).tokens == ("zensur", "sagt", "er", "wirklich")

    def test_underscores_are_punctuation(self):
        assert tokenize("a_b") == ("a", "b")

    def test_source_id_carried(self):
        ts = preprocess(make_comment(cid="c42"))
        assert ts.source_id == "c42"

    def test_idempotence(self):
        c = make_comment(title="Der „Artikel“", text="ist SEHR gut!!! Oder? nicht…")
        ts = preprocess(c)
        again = tokenize(" ".join(ts.tokens))
        assert again == ts.tokens

    def test_determinism(self):
        c = make_comment(text="Ümläute und ß bleiben: FUSS!")
        assert preprocess(c) == preprocess(c)


class TestNgrams:
    def test_unigrams_and_bigrams(self):
        ts = TokenStream(("a", "b", "c"))
        assert ngrams(ts) == ["a", "b", "c", "a_b", "b_c"]

    def test_empty(self):
        assert ngrams(TokenStream(())) == []

    def test_single_token(self):
        assert ngrams(TokenStream(("x",))) == ["x"]


class TestStopwords:
    def test_default_list_has_common_words(self):
        words = default_stopwords()
        assert {"der", "die", "das", "und", "ist"} <= words

    def test_file_loader_skips_comments(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("# comment\nder\n\nDIE\n", encoding="utf-8")
        assert load_stopwords(path) == frozenset({"der", "die"})
