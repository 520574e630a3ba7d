import random
import unicodedata

from hypothesis import example, given, settings, strategies as st

from metacomment.textprep import (
    TokenStream,
    default_stopwords,
    load_stopwords,
    ngrams,
    preprocess,
    strip_punctuation,
    tokenize,
)

from conftest import make_comment


def _rule(ch):
    """The per-character reference: P* categories and the extra German marks
    become a space, everything else stays."""
    punct = ch in "«»„“”‚‘’–—…" or unicodedata.category(ch).startswith("P")
    return " " if punct else ch


class TestStripPunctuation:
    def test_every_bmp_code_point(self):
        for cp in [*range(0xD800), *range(0xE000, 0x10000)]:
            ch = chr(cp)
            assert strip_punctuation(ch) == _rule(ch), hex(cp)

    def test_astral_sample(self):
        rng = random.Random(0)
        cps = [0x10000, 0x1F600, 0x10FFFF, *(rng.randrange(0x10000, 0x110000)
                                            for _ in range(5000))]
        for cp in cps:
            ch = chr(cp)
            assert strip_punctuation(ch) == _rule(ch), hex(cp)

    def test_mixed_text_keeps_length_and_other_characters(self):
        text = "Die „Zensur“ – wirklich?! 😀 Ende…"
        assert strip_punctuation(text) == "".join(_rule(ch) for ch in text)
        assert len(strip_punctuation(text)) == len(text)


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

    @settings(max_examples=300, deadline=None)
    @given(title=st.text(), text=st.text().filter(str.strip), remove_stopwords=st.booleans())
    @example(title="Der „Artikel“", text="ist SEHR gut!!! Oder? nicht…",
             remove_stopwords=False)
    @example(title="İSTANBUL", text="ǅ ß ﬁ Σ", remove_stopwords=True)
    def test_idempotence(self, title, text, remove_stopwords):
        # tokenizing the joined tokens again gives the same tokens
        ts = preprocess(make_comment(title=title, text=text), remove_stopwords)
        assert tokenize(" ".join(ts.tokens), remove_stopwords) == ts.tokens

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
