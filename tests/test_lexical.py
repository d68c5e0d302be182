from collections import Counter

from hypothesis import given
from hypothesis import strategies as st

import numpy as np
import pytest

from emocast.corpus import CharacterRecord, Corpus, Gender
from emocast.emotion import load_lexicon
from emocast.lexical import (
    default_nouns,
    default_stopwords,
    exclusive_nouns,
    load_word_list,
    text_pass,
)

EMPTY_LEXICON = load_lexicon("")


def corpus_of(*records):
    return Corpus(records=list(records), provenance={})


def rec(gender, *dialogues, name="X", movie="m"):
    return Corpus(
        records=[
            CharacterRecord(
                name=name, movie=movie, year=2000, gender=gender, dialogues=tuple(dialogues)
            )
        ],
        provenance={},
    ).records[0]


def group_frequencies(corpus, stopwords):
    """The word counts of the one text pass."""
    return text_pass(corpus, EMPTY_LEXICON, stopwords).words


class TestGroupFrequencies:
    def test_single_token_after_stopwords(self):
        corpus = corpus_of(rec(Gender.FEMALE, "the dress"))
        table = group_frequencies(corpus, stopwords={"the"})
        assert table["female"] == Counter({"dress": 1})
        assert table["male"] == Counter()

    def test_shared_word_counted_in_both(self):
        corpus = corpus_of(
            rec(Gender.FEMALE, "time waits", name="A"),
            rec(Gender.MALE, "time flies", name="B"),
        )
        table = group_frequencies(corpus, stopwords=set())
        assert table["female"]["time"] == 1
        assert table["male"]["time"] == 1

    def test_empty_corpus(self):
        table = group_frequencies(corpus_of(), stopwords=set())
        assert all(not counter for counter in table.values())

    def test_unknown_characters_ignored(self):
        corpus = corpus_of(rec(Gender.UNKNOWN, "mystery words here"))
        table = group_frequencies(corpus, stopwords=set())
        assert all(not counter for counter in table.values())

    def test_short_tokens_dropped(self):
        corpus = corpus_of(rec(Gender.MALE, "o a go going"))
        table = group_frequencies(corpus, stopwords=set())
        assert set(table["male"]) == {"go", "going"}

    def test_one_count_row_per_dialogue(self):
        lexicon = load_lexicon("glad\tjoy\t1\nglad\ttrust\t1\nrage\tanger\t1\n")
        corpus = corpus_of(
            rec(Gender.FEMALE, "glad glad", "nothing", name="A"),
            rec(Gender.UNKNOWN, "rage, glad", name="B"),
        )
        scored = text_pass(corpus, lexicon, stopwords=set())
        assert scored.counts.dtype == np.int64
        # columns follow PRIMARY_EMOTIONS: anger, anticipation, ..., joy, ..., trust
        assert scored.counts.tolist() == [
            [0, 0, 0, 0, 2, 0, 0, 2],
            [0, 0, 0, 0, 0, 0, 0, 0],
            [1, 0, 0, 0, 1, 0, 0, 1],
        ]
        assert scored.words == {"female": Counter({"glad": 2, "nothing": 1}), "male": Counter()}

    def test_empty_corpus_counts_shape(self):
        assert text_pass(corpus_of(), EMPTY_LEXICON, set()).counts.shape == (0, 8)


NOUNS = {"kitchen", "time", "war", "dress"}


class TestExclusiveNouns:
    def test_shared_nouns_excluded(self):
        freq = {
            "female": Counter({"kitchen": 5, "time": 9}),
            "male": Counter({"time": 40, "war": 7}),
        }
        out = exclusive_nouns(freq, NOUNS, top_n=10)
        assert out["female"] == [("kitchen", 5)]
        assert out["male"] == [("war", 7)]

    def test_identical_vocabularies_empty(self):
        counts = Counter({"time": 3, "war": 1})
        freq = {"female": counts.copy(), "male": counts.copy()}
        out = exclusive_nouns(freq, NOUNS, top_n=5)
        assert out == {"female": [], "male": []}

    def test_non_nouns_filtered(self):
        freq = {"female": Counter({"quickly": 9, "dress": 2}), "male": Counter()}
        out = exclusive_nouns(freq, NOUNS, top_n=5)
        assert out["female"] == [("dress", 2)]

    def test_rank_by_count_then_alpha(self):
        freq = {"female": Counter({"dress": 2, "kitchen": 2, "time": 7}), "male": Counter()}
        out = exclusive_nouns(freq, NOUNS, top_n=3)
        assert out["female"] == [("time", 7), ("dress", 2), ("kitchen", 2)]

    def test_top_n_truncates(self):
        freq = {"female": Counter({"dress": 2, "kitchen": 1}), "male": Counter()}
        out = exclusive_nouns(freq, NOUNS, top_n=1)
        assert out["female"] == [("dress", 2)]

    def test_top_n_must_be_positive(self):
        with pytest.raises(ValueError):
            exclusive_nouns({}, NOUNS, top_n=0)

    @given(
        st.dictionaries(st.sampled_from(sorted(NOUNS) + ["misc"]), st.integers(1, 9), max_size=5),
        st.dictionaries(st.sampled_from(sorted(NOUNS) + ["misc"]), st.integers(1, 9), max_size=5),
    )
    def test_outputs_disjoint_and_noun_only(self, female_counts, male_counts):
        freq = {"female": Counter(female_counts), "male": Counter(male_counts)}
        out = exclusive_nouns(freq, NOUNS, top_n=10)
        female_words = {w for w, _ in out["female"]}
        male_words = {w for w, _ in out["male"]}
        assert not female_words & male_words
        assert female_words <= NOUNS and male_words <= NOUNS


class TestWordLists:
    def test_load_skips_comments_and_blanks(self):
        words = load_word_list("# heading\n\nWar\n time \n")
        assert words == {"war", "time"}

    def test_bundled_resources_present(self):
        stopwords = default_stopwords()
        nouns = default_nouns()
        assert "the" in stopwords
        assert {"kitchen", "dress", "war", "time", "business", "world"} <= nouns
        assert not (stopwords & nouns)
