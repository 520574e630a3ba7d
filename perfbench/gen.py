"""Seeded input generator for the benchmark, shaped like news comments.

The generator is self-contained on purpose: it imports nothing from the
package or its tests, so edits there cannot change the benchmark's inputs.
Every draw comes from one ``random.Random(seed)``; the same seed gives the
same files.

What the inputs carry, and why:

* a Zipfian topic vocabulary, so most word types are rare, tf-idf columns
  dominate the feature registry and many tokens fall below ``min_count``;
* German function words (removed as stop words before embedding training);
* addressee cues: the shipped seed keywords plus cue words that are not
  seeds, so some meta comments carry no keyword at all, while some non-meta
  comments mention a seed keyword ("leakage");
* multi-addressee, bare-Meta, long and all-OOV comments;
* a planted word pair (``PLANTED_PAIR``) that fills one slot of fixed
  frames uniformly, so both words see identical contexts.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from itertools import accumulate

# The package's shipped keyword seeds (data/keywords/*.txt) except the
# journalist seeds "spiegelredakteur" and "populist". They are copied, not
# read, so the inputs stay fixed when the data files change.
SEED_KEYWORDS = {
    "Media": ("medien", "spon", "spiegel", "spiegelonline", "redaktion",
              "berichterstattung", "magazin"),
    "Journalist": ("artikel", "journalismus", "journalist", "beitrag", "autor",
                   "verfasser", "redakteur", "schreiberling", "kolumnist",
                   "experte", "reporter"),
    "Moderator": ("zensur", "zensiert", "moderation", "moderator", "admin",
                  "sysop"),
}

# Addressee cues that are not seed keywords.
OTHER_CUES = {
    "Media": ("zeitung", "verlag", "schlagzeile", "onlineausgabe"),
    "Journalist": ("schreiber", "recherche", "kommentator", "formulierung"),
    "Moderator": ("gelöscht", "gesperrt", "forenregeln", "netiquette"),
}

# Salutations that open an addressing phrase ("liebe Redaktion").
SALUTATIONS = ("liebe", "hallo", "geehrte")

# Cues of a meta comment that names no addressee.
BARE_META_CUES = ("diskussion", "forum", "kommentare", "kommentarbereich",
                  "debatte", "leserbriefe")

ADDRESSEES = ("Media", "Journalist", "Moderator")

# Function words mixed into comments. All of them are on the package's
# shipped German stop-word list, so they are the generator's stop words.
FUNCTION_WORDS = (
    "aber", "alle", "als", "also", "auch", "auf", "aus", "bei", "bis", "da",
    "dann", "das", "dass", "dem", "den", "denn", "der", "die", "doch", "ein",
    "eine", "einen", "er", "es", "für", "hat", "hier", "ich", "ihr", "im", "in",
    "ist", "ja", "kann", "man", "mit", "nach", "nicht", "noch", "nur", "oder",
    "sehr", "sich", "sie", "sind", "so", "und", "uns", "von", "vor",
    "was", "wenn", "wie", "wir", "wird", "zu", "zum", "über",
)

# Every generated token that a stop-word filter removes ("haben" comes with
# the formal address "haben Sie").
STOP_WORDS = frozenset(FUNCTION_WORDS) | {"haben"}

SENTIMENT_WORDS = ("gut", "toll", "schlecht", "falsch", "unsinn", "peinlich",
                   "interessant", "einseitig", "richtig", "langweilig")

DEPARTMENTS = ("politik", "wirtschaft", "sport", "panorama", "kultur",
               "wissenschaft", "netzwelt", "ausland")

PLANTED_PAIR = ("koalition", "regierung")

# Frames around the planted slot (None); every frame word is a content word,
# so the frame survives stop-word removal intact.
_PLANTED_FRAMES = (
    ("gestern", "beschloss", None, "neue", "steuern"),
    ("leider", "verschiebt", None, "wichtige", "reformen"),
    (None, "verliert", "letzte", "glaubwürdigkeit", "heute"),
    ("morgen", "verhandelt", None, "lange", "nachtsitzung"),
)

_ONSETS = ("b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "w",
           "br", "dr", "fr", "gr", "kr", "pl", "st", "tr", "schw")
_VOWELS = ("a", "e", "i", "o", "u", "ei", "au", "ie")
_CODAS = ("", "n", "r", "l", "s", "t", "ng", "ch")
_HAPAX_LETTERS = "bcdfghjklmnpqrstvwxz"


def topic_word(rank: int) -> str:
    """The topic word of a Zipf rank: a unique pseudo-German form."""
    syllables = []
    n = rank
    while True:
        n, onset = divmod(n, len(_ONSETS))
        n, vowel = divmod(n, len(_VOWELS))
        n, coda = divmod(n, len(_CODAS))
        syllables.append(_ONSETS[onset] + _VOWELS[vowel] + _CODAS[coda])
        if n == 0:
            break
    # no German stop word ends in "-ung", so topic words never are one
    return "".join(syllables) + "ung"


def _reserved() -> set:
    words = set(SENTIMENT_WORDS) | set(DEPARTMENTS)
    words |= set(BARE_META_CUES) | set(PLANTED_PAIR) | set(SALUTATIONS) | STOP_WORDS
    for frame in _PLANTED_FRAMES:
        words |= {w for w in frame if w}
    for cues in (*SEED_KEYWORDS.values(), *OTHER_CUES.values()):
        words |= set(cues)
    return words


def topic_words(n: int) -> list:
    """The first n topic word forms, skipping any that is a reserved word."""
    reserved = _reserved()
    words = []
    rank = 0
    while len(words) < n:
        word = topic_word(rank)
        rank += 1
        if word not in reserved:
            words.append(word)
    return words


# The mix of the generated comments. None of these values is a measured
# statistic of the One Million Posts corpus or of the paper's labeled set:
# neither is in the repository, nor are their label or length counts. They
# are unverified assumptions, each chosen for what it does to the benchmark
# (README.md, "Input mix"), until the corpus can replace them. The label,
# keyword-less, leakage, long and all-OOV shares are exact per dataset; the
# others are per-comment probabilities.
VOCAB_SIZE = 5000
ZIPF_EXPONENT = 1.2
META_SHARE = 0.4
BARE_META_SHARE = 0.08         # of meta comments
MULTI_ADDRESSEE_SHARE = 0.15   # of addressed meta comments
NO_KEYWORD_SHARE = 0.15        # of meta comments: no seed keyword at all
LEAKAGE_SHARE = 0.08           # of non-meta comments: one seed keyword
LONG_SHARE = 0.03
ALL_OOV_SHARE = 0.02
PLANTED_SHARE = 0.3
TITLE_SHARE = 0.4
MIN_TOKENS = 6
MAX_TOKENS = 30
LONG_TOKENS = (100, 180)


@dataclass
class Generated:
    """Comments as JSONL records plus the generator's own ground truth."""

    records: list = field(default_factory=list)
    tokens: dict = field(default_factory=dict)   # id -> lowercase tokens
    labels: dict = field(default_factory=dict)   # id -> label tuple
    all_oov: set = field(default_factory=set)    # ids built from hapax tokens

    def write(self, path, with_labels: bool) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for record in self.records:
                if not with_labels:
                    record = {k: v for k, v in record.items() if k != "labels"}
                fh.write(json.dumps(record, ensure_ascii=False) + "\n")


class Generator:
    """Draws comments from one seed; ids carry a prefix so sets never clash."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self._cum = list(accumulate(1.0 / (rank + 1) ** ZIPF_EXPONENT
                                    for rank in range(VOCAB_SIZE)))
        self._words = topic_words(VOCAB_SIZE)
        self._base_time = datetime(2016, 3, 1, 6, 0)

    # -- token draws -----------------------------------------------------------

    def _topic(self, n: int) -> list:
        return self.rng.choices(self._words, cum_weights=self._cum, k=n)

    def _hapax(self) -> str:
        n = self.rng.randint(4, 7)
        return "zq" + "".join(self.rng.choice(_HAPAX_LETTERS) for _ in range(n))

    def _filler(self, n: int) -> list:
        """Topic words with function words and the odd sentiment word mixed in."""
        rng = self.rng
        out = []
        for word in self._topic(n):
            if rng.random() < 0.35:
                out.append(rng.choice(FUNCTION_WORDS))
            if rng.random() < 0.04:
                out.append(rng.choice(SENTIMENT_WORDS))
            out.append(word)
        return out

    def _length(self, long: bool) -> int:
        return self.rng.randint(*LONG_TOKENS) if long \
            else self.rng.randint(MIN_TOKENS, MAX_TOKENS)

    def _cue(self, label: str, seeds_allowed: bool) -> str:
        if seeds_allowed and self.rng.random() < 0.8:
            return self.rng.choice(SEED_KEYWORDS[label])
        return self.rng.choice(OTHER_CUES[label])

    def _insert(self, tokens: list, words) -> None:
        """Insert words as one run, as an addressing phrase would be."""
        at = self.rng.randint(0, len(tokens))
        tokens[at:at] = words

    # -- comments --------------------------------------------------------------

    def _body(self, labels: tuple, long: bool, odd: bool) -> tuple:
        """Lowercase tokens plus rendering hints (formal address, question).
        odd marks a meta comment without seed keywords, or a non-meta comment
        with one."""
        rng = self.rng
        tokens = self._filler(self._length(long))
        formal = question = False
        if "Meta" in labels:
            addressees = [a for a in ADDRESSEES if a in labels]
            seeds_allowed = not odd
            if not addressees:
                self._insert(tokens, [rng.choice(BARE_META_CUES)
                                      for _ in range(rng.randint(1, 2))])
            for label in addressees:
                phrase = [self._cue(label, seeds_allowed)
                          for _ in range(rng.randint(3, 5))]
                if rng.random() < 0.5:
                    phrase.insert(0, rng.choice(SALUTATIONS))
                self._insert(tokens, phrase)
            formal = "Journalist" in addressees and rng.random() < 0.5
            question = rng.random() < 0.5
        else:
            if odd:
                label = rng.choice(ADDRESSEES)
                self._insert(tokens, [rng.choice(SEED_KEYWORDS[label])])
            formal = rng.random() < 0.05
            question = rng.random() < 0.2
        if rng.random() < PLANTED_SHARE:
            frame = rng.choice(_PLANTED_FRAMES)
            slot = rng.choice(PLANTED_PAIR)
            self._insert(tokens, [slot if w is None else w for w in frame])
        return tokens, formal, question

    def _render(self, tokens: list, formal: bool, question: bool) -> str:
        """Sentences with capitals and punctuation; tokens survive tokenizing."""
        rng = self.rng
        words = list(tokens)
        if formal:
            # mid-sentence formal address, so the 'Sie' pattern can match it
            at = rng.randint(1, max(1, len(words)))
            words[at:at] = ["haben", "Sie"]
        sentences = []
        i = 0
        while i < len(words):
            n = rng.randint(5, 12)
            chunk = words[i:i + n]
            i += n
            chunk[0] = chunk[0][:1].upper() + chunk[0][1:]
            if len(chunk) > 6 and rng.random() < 0.3:
                chunk[3] += ","
            end = "?" if question and i >= len(words) else rng.choice(".....!")
            sentences.append(" ".join(chunk) + end)
        return " ".join(sentences)

    def _labels(self, n: int) -> list:
        """n label tuples with exact shares, in random order."""
        rng = self.rng
        n_meta = round(META_SHARE * n)
        n_bare = round(BARE_META_SHARE * n_meta)
        n_multi = round(MULTI_ADDRESSEE_SHARE * (n_meta - n_bare))
        labels = [("NonMeta",)] * (n - n_meta) + [("Meta",)] * n_bare
        for i in range(n_meta - n_bare - n_multi):
            labels.append(("Meta", ADDRESSEES[i % len(ADDRESSEES)]))
        for _ in range(n_multi):
            pair = rng.sample(ADDRESSEES, 2)
            labels.append(("Meta",) + tuple(a for a in ADDRESSEES if a in pair))
        rng.shuffle(labels)
        return labels

    def dataset(self, prefix: str, n: int) -> Generated:
        """n comments with ids prefix-0 .. prefix-(n-1).

        The label, keyword-less, leakage, long and all-OOV shares are exact
        counts, so the amount of work and the difficulty vary little from
        seed to seed."""
        rng = self.rng
        out = Generated()
        labels_list = self._labels(n)
        non_meta = [i for i, labels in enumerate(labels_list) if labels == ("NonMeta",)]
        meta = [i for i, labels in enumerate(labels_list) if labels != ("NonMeta",)]
        all_oov = set(rng.sample(non_meta, round(ALL_OOV_SHARE * n)))
        long = set(rng.sample(sorted(set(range(n)) - all_oov), round(LONG_SHARE * n)))
        odd = set(rng.sample(meta, round(NO_KEYWORD_SHARE * len(meta))))
        odd |= set(rng.sample(sorted(set(non_meta) - all_oov),
                              round(LEAKAGE_SHARE * len(non_meta))))
        for i in range(n):
            cid = f"{prefix}-{i}"
            labels = labels_list[i]
            if i in all_oov:
                # rare tokens and function words only: no in-vocabulary token
                tokens = []
                for _ in range(rng.randint(MIN_TOKENS, MAX_TOKENS // 2)):
                    tokens.append(self._hapax() if rng.random() < 0.6
                                  else rng.choice(FUNCTION_WORDS))
                tokens.append(self._hapax())
                formal = question = False
                out.all_oov.add(cid)
            else:
                tokens, formal, question = self._body(labels, i in long, i in odd)
            title_tokens = []
            if i not in all_oov and rng.random() < TITLE_SHARE:
                title_tokens = self._topic(rng.randint(2, 4))
            text = self._render(tokens, formal, question)
            title = " ".join(title_tokens).capitalize() if title_tokens else ""
            record = {
                "id": cid,
                "title": title,
                "text": text,
                "timestamp": (self._base_time + timedelta(
                    minutes=rng.randrange(60 * 24 * 30))).strftime("%Y-%m-%dT%H:%M"),
                "department": rng.choice(DEPARTMENTS),
                "position": rng.randint(1, 400),
                "has_quote": rng.random() < 0.3,
                "labels": list(labels),
            }
            out.records.append(record)
            out.tokens[cid] = title_tokens + tokens + (["haben", "sie"] if formal else [])
            out.labels[cid] = labels
        return out
