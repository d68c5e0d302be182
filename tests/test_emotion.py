import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from emocast.corpus import CharacterRecord, Corpus, Gender
from emocast.emotion import (
    DYADS,
    EMOTION_COLUMNS,
    PRIMARY_EMOTIONS,
    character_means,
    emotion_values,
    load_lexicon,
    primary_shares,
    tokenize,
)
from emocast.errors import LexiconError
from emocast.lexical import default_stopwords, text_pass
from emocast.pipeline import RunConfig, stage_parse

from oracles import (
    aggregate_character_reference,
    dyad_expand_reference,
    group_frequencies_reference,
    score_dialogue_reference,
)
from synth import build_planted_corpus

TINY = load_lexicon("glad\tjoy\t1\ndread\tfear\t1\ndread\tanticipation\t1\n")
COL = {name: j for j, name in enumerate(EMOTION_COLUMNS)}
PRIMARY_COLS = [COL[name] for name in PRIMARY_EMOTIONS]


def record(*dialogues, gender=Gender.FEMALE):
    return CharacterRecord(
        name="X", movie="m", year=2000, gender=gender, dialogues=tuple(dialogues)
    )


def counts_of(*dialogues, lexicon=TINY):
    """Primary counts per dialogue, from the one text pass."""
    return text_pass(Corpus(records=[record(*dialogues)], provenance={}), lexicon, set()).counts


def shares_of(*dialogues, lexicon=TINY):
    return primary_shares(counts_of(*dialogues, lexicon=lexicon))


def rows_of(*dialogues, lexicon=TINY):
    """The 32-dim emotion row of each dialogue."""
    return emotion_values(shares_of(*dialogues, lexicon=lexicon))


def expand(**counts):
    """The 32-dim row of one dialogue with the given primary counts."""
    return emotion_values(primary_shares(np.array([[counts.get(name, 0) for name in PRIMARY_EMOTIONS]])))[0]


def mean_of(*dialogues, lexicon=TINY):
    means, no_affect = character_means(shares_of(*dialogues, lexicon=lexicon), [len(dialogues)])
    return means[0], bool(no_affect[0])


class TestLoadLexicon:
    def test_flag_semantics(self):
        lex = load_lexicon("abandon\tfear\t1\nabandon\tjoy\t0\n")
        assert lex.entries == {"abandon": frozenset({"fear"})}

    def test_sentiment_rows_ignored(self):
        lex = load_lexicon("happy\tpositive\t1\n")
        assert len(lex) == 0

    def test_empty_file(self):
        lex = load_lexicon("")
        assert len(lex) == 0
        assert counts_of("anything at all", lexicon=lex).sum() == 0

    def test_malformed_row_reports_line(self):
        with pytest.raises(LexiconError, match="line 2"):
            load_lexicon("glad\tjoy\t1\nglad joy 1\n")

    def test_unknown_affect_rejected(self):
        with pytest.raises(LexiconError, match="line 1"):
            load_lexicon("glad\thappiness\t1\n")

    def test_bad_flag_rejected(self):
        with pytest.raises(LexiconError, match="line 1"):
            load_lexicon("glad\tjoy\t2\n")

    def test_phrases_skipped_and_counted(self):
        lex = load_lexicon("glad\tjoy\t1\nover the moon\tjoy\t1\n")
        assert lex.skipped_phrases == 1
        assert len(lex) == 1

    def test_words_lowercased(self):
        lex = load_lexicon("GLAD\tjoy\t1\n")
        assert lex.entries == {"glad": frozenset({"joy"})}


class TestTokenize:
    def test_punctuation_split(self):
        assert tokenize("I know. Trust me!") == ["i", "know", "trust", "me"]

    def test_internal_apostrophe_kept(self):
        assert tokenize("don't") == ["don't"]

    def test_empty(self):
        assert tokenize("") == []

    def test_digits_are_separators(self):
        assert tokenize("route66open") == ["route", "open"]


class TestScoreDialogue:
    def test_single_hit(self):
        assert counts_of("I am glad").tolist() == [[0, 0, 0, 0, 1, 0, 0, 0]]
        row = rows_of("I am glad")[0]
        assert row[COL["joy"]] == 1.0
        assert row[PRIMARY_COLS].sum() == 1.0

    def test_multi_affect_counting(self):
        assert counts_of("glad dread").sum() == 3
        row = rows_of("glad dread")[0]
        assert row[COL["joy"]] == pytest.approx(1 / 3)
        assert row[COL["fear"]] == pytest.approx(1 / 3)
        assert row[COL["anticipation"]] == pytest.approx(1 / 3)

    def test_no_hits(self):
        assert not counts_of("hello there").any()
        assert not rows_of("hello there").any()

    @given(st.lists(st.sampled_from(["glad", "dread", "blank", "word"]), max_size=30))
    def test_distribution_sums_to_one(self, words):
        dialogue = " ".join(words)
        total = rows_of(dialogue)[0][PRIMARY_COLS].sum()
        if counts_of(dialogue).sum() > 0:
            assert abs(total - 1.0) < 1e-9
        else:
            assert total == 0.0

    @given(st.lists(st.sampled_from(["glad", "dread", "filler"]), max_size=20), st.randoms())
    def test_token_order_irrelevant(self, words, rnd):
        shuffled = list(words)
        rnd.shuffle(shuffled)
        assert np.array_equal(rows_of(" ".join(words)), rows_of(" ".join(shuffled)))


class TestDyadTable:
    def test_exactly_24_dyads(self):
        assert len(DYADS) == 24

    def test_each_primary_in_exactly_six(self):
        counts = Counter(p for pair in DYADS.values() for p in pair)
        assert counts == {p: 6 for p in PRIMARY_EMOTIONS}

    def test_pairs_unique_and_distinct(self):
        pairs = [frozenset(pair) for pair in DYADS.values()]
        assert len(set(pairs)) == 24
        assert all(len(pair) == 2 for pair in pairs)

    def test_names_match_canonical_columns(self):
        assert set(EMOTION_COLUMNS) == set(PRIMARY_EMOTIONS) | set(DYADS)
        assert len(EMOTION_COLUMNS) == 32


class TestDyadExpand:
    def test_envy_is_mean_of_sadness_and_anger(self):
        assert expand(sadness=1, anger=1)[COL["envy"]] == 0.5

    def test_uniform_input_uniform_dyads(self):
        v = expand(**{name: 1 for name in PRIMARY_EMOTIONS})
        assert all(v[COL[name]] == 0.125 for name in EMOTION_COLUMNS)

    def test_pure_joy(self):
        v = expand(joy=3)
        joy_dyads = {"love", "optimism", "pride", "guilt", "delight", "morbidness"}
        for name, pair in DYADS.items():
            expected = 0.5 if name in joy_dyads else 0.0
            assert v[COL[name]] == expected, name
        assert {name for name, pair in DYADS.items() if "joy" in pair} == joy_dyads

    def test_canonical_key_order(self):
        for name in PRIMARY_EMOTIONS:
            v = expand(**{name: 1})
            assert v.shape == (len(EMOTION_COLUMNS),)
            assert [EMOTION_COLUMNS[j] for j in np.flatnonzero(v == 1.0)] == [name]

    @given(st.lists(st.integers(0, 1000), min_size=8, max_size=8))
    def test_dyad_identity_everywhere(self, raw):
        counts = dict(zip(PRIMARY_EMOTIONS, raw))
        v = expand(**counts)
        total = sum(raw)
        for name in PRIMARY_EMOTIONS:
            assert v[COL[name]] == (counts[name] / total if total else 0.0)
        for name, (a, b) in DYADS.items():
            assert v[COL[name]] == (v[COL[a]] + v[COL[b]]) / 2
        assert v[COL["envy"]] == (v[COL["sadness"]] + v[COL["anger"]]) / 2


class TestAggregateCharacter:
    def test_mean_of_one(self):
        mean, no_affect = mean_of("I am glad")
        assert np.array_equal(mean, rows_of("I am glad")[0])
        assert not no_affect

    def test_mean_and_dyads(self):
        lex = load_lexicon("glad\tjoy\t1\nrage\tanger\t1\n")
        mean, _ = mean_of("glad", "rage", lexicon=lex)
        assert mean[COL["joy"]] == 0.5
        assert mean[COL["anger"]] == 0.5
        assert mean[COL["envy"]] == 0.25
        assert mean[COL["pride"]] == 0.5

    def test_all_zero_hit_flagged(self):
        mean, no_affect = mean_of("nothing here", "still nothing")
        assert no_affect
        assert not mean.any()

    def test_zero_hit_dialogues_excluded_from_mean(self):
        mean, _ = mean_of("glad", "no match")
        assert mean[COL["joy"]] == 1.0

    def test_characters_split_by_lengths(self):
        dialogues = ("glad", "dread", "none", "glad", "none", "none")
        rows = rows_of(*dialogues)
        means, no_affect = character_means(shares_of(*dialogues), [2, 1, 1, 2])
        assert np.array_equal(means[0], (rows[0] + rows[1]) / 2)
        assert no_affect.tolist() == [False, True, False, True]
        assert np.array_equal(means[2], rows[3])

    @given(
        st.lists(
            st.lists(st.sampled_from(["glad", "dread", "noise"]), min_size=1, max_size=6),
            min_size=1,
            max_size=8,
        )
    )
    def test_averaging_commutes_with_expansion(self, dialogue_words):
        dialogues = [" ".join(words) for words in dialogue_words]
        mean, no_affect = mean_of(*dialogues)
        counts = counts_of(*dialogues)
        hits = counts[counts.sum(axis=1) > 0]
        if not len(hits):
            assert no_affect
            return
        shares = hits / hits.sum(axis=1, keepdims=True)
        mean_scores = dict(zip(PRIMARY_EMOTIONS, shares.mean(axis=0).tolist()))
        expanded_mean = dyad_expand_reference(mean_scores)
        for name in EMOTION_COLUMNS:
            assert math.isclose(mean[COL[name]], expanded_mean[name], abs_tol=1e-12)


def assert_matches_dict_path(corpus, lexicon):
    """Rows, means, flags and word counts equal the per-dialogue dict path's."""
    stopwords = default_stopwords()
    scored = text_pass(corpus, lexicon, stopwords)
    shares = primary_shares(scored.counts)
    rows = emotion_values(shares)
    expected = [
        [dyad_expand_reference(score_dialogue_reference(d, lexicon)[0])[name] for name in EMOTION_COLUMNS]
        for rec in corpus.records
        for d in rec.dialogues
    ]
    assert np.array_equal(rows, np.array(expected).reshape(-1, len(EMOTION_COLUMNS)))
    means, no_affect = character_means(shares, [len(rec.dialogues) for rec in corpus.records])
    for i, rec in enumerate(corpus.records):
        vector, flag = aggregate_character_reference(rec.dialogues, lexicon)
        assert means[i].tolist() == [vector[name] for name in EMOTION_COLUMNS], rec.name
        assert bool(no_affect[i]) is flag
    assert scored.words == group_frequencies_reference(corpus, stopwords)


def parsed_corpus(scripts, metadata, lexicon, out):
    return stage_parse(RunConfig(script_dir=scripts, metadata_path=metadata, lexicon_path=lexicon, output_dir=out))


class TestMatchesDictPath:
    def test_fixture(self, fixtures_dir, fixture_lexicon, tmp_path):
        corpus = parsed_corpus(
            fixtures_dir / "scripts", fixtures_dir / "metadata.csv", fixtures_dir / "lexicon.tsv", tmp_path
        )
        assert_matches_dict_path(corpus, fixture_lexicon)

    def test_planted_corpus(self, tmp_path):
        inputs = build_planted_corpus(tmp_path / "inputs", seed=3)
        (tmp_path / "out").mkdir()
        corpus = parsed_corpus(inputs["scripts"], inputs["metadata"], inputs["lexicon"], tmp_path / "out")
        lexicon = load_lexicon(inputs["lexicon"].read_text())
        assert_matches_dict_path(corpus, lexicon)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(list(Gender)),
                st.lists(
                    st.lists(
                        st.sampled_from(["glad", "dread", "Glad!", "dread's", "the", "a", "x9y", "dog"]),
                        max_size=12,
                    ).map(" ".join),
                    min_size=1,
                    max_size=7,
                ),
            ),
            max_size=6,
        )
    )
    def test_hypothesis_corpus(self, cast):
        records = [
            CharacterRecord(name=f"C{i}", movie="m", year=2000, gender=gender, dialogues=tuple(lines))
            for i, (gender, lines) in enumerate(cast)
        ]
        assert_matches_dict_path(Corpus(records=records, provenance={}), TINY)
