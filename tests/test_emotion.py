import math
import random
from collections import Counter

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from emocast.corpus import CharacterRecord, Gender
from emocast.emotion import (
    DYADS,
    EMOTION_COLUMNS,
    PRIMARY_EMOTIONS,
    PrimaryVector,
    aggregate_character,
    agreement_matrix,
    dyad_expand,
    load_lexicon,
    resolve_emotion_name,
    score_dialogue,
    sentiment_classifier,
    sentiment_of,
    tokenize,
    SentimentLabel,
)
from emocast.errors import LengthError, LexiconError

TINY = load_lexicon("glad\tjoy\t1\ndread\tfear\t1\ndread\tanticipation\t1\n")


def record(*dialogues):
    return CharacterRecord(
        name="X", movie="m", year=2000, gender=Gender.FEMALE, dialogues=tuple(dialogues)
    )


class TestLoadLexicon:
    def test_flag_semantics(self):
        lex = load_lexicon("abandon\tfear\t1\nabandon\tjoy\t0\n")
        assert lex.affects("abandon") == frozenset({"fear"})

    def test_sentiment_rows_ignored(self):
        lex = load_lexicon("happy\tpositive\t1\n")
        assert len(lex) == 0

    def test_empty_file(self):
        lex = load_lexicon("")
        assert len(lex) == 0
        assert score_dialogue("anything at all", lex).hit_count == 0

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
        assert lex.affects("glad") == frozenset({"joy"})


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
        pv = score_dialogue("I am glad", TINY)
        assert pv.joy == 1.0
        assert pv.hit_count == 1
        assert sum(pv.as_dict().values()) == 1.0

    def test_multi_affect_counting(self):
        pv = score_dialogue("glad dread", TINY)
        assert pv.hit_count == 3
        assert pv.joy == pytest.approx(1 / 3)
        assert pv.fear == pytest.approx(1 / 3)
        assert pv.anticipation == pytest.approx(1 / 3)

    def test_no_hits(self):
        pv = score_dialogue("hello there", TINY)
        assert pv == PrimaryVector()

    @given(st.lists(st.sampled_from(["glad", "dread", "blank", "word"]), max_size=30))
    def test_distribution_sums_to_one(self, words):
        pv = score_dialogue(" ".join(words), TINY)
        total = sum(pv.as_dict().values())
        if pv.hit_count > 0:
            assert abs(total - 1.0) < 1e-9
        else:
            assert total == 0.0

    @given(st.lists(st.sampled_from(["glad", "dread", "filler"]), max_size=20), st.randoms())
    def test_token_order_irrelevant(self, words, rnd):
        shuffled = list(words)
        rnd.shuffle(shuffled)
        assert score_dialogue(" ".join(words), TINY) == score_dialogue(" ".join(shuffled), TINY)


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


def primary(**scores):
    hits = scores.pop("hit_count", 1)
    return PrimaryVector(hit_count=hits, **scores)


class TestDyadExpand:
    def test_envy_is_mean_of_sadness_and_anger(self):
        v = dyad_expand(primary(sadness=0.5, anger=0.5))
        assert v["envy"] == 0.5

    def test_uniform_input_uniform_dyads(self):
        v = dyad_expand(primary(**{name: 0.125 for name in PRIMARY_EMOTIONS}))
        assert all(v[name] == 0.125 for name in EMOTION_COLUMNS)

    def test_pure_joy(self):
        v = dyad_expand(primary(joy=1.0))
        joy_dyads = {"love", "optimism", "pride", "guilt", "delight", "morbidness"}
        for name, pair in DYADS.items():
            expected = 0.5 if name in joy_dyads else 0.0
            assert v[name] == expected, name
        assert {name for name, pair in DYADS.items() if "joy" in pair} == joy_dyads

    def test_canonical_key_order(self):
        v = dyad_expand(primary(joy=1.0))
        assert tuple(v) == EMOTION_COLUMNS

    @given(st.lists(st.floats(0, 1, allow_nan=False), min_size=8, max_size=8))
    def test_dyad_identity_everywhere(self, raw):
        total = sum(raw) or 1.0
        scores = {name: val / total for name, val in zip(PRIMARY_EMOTIONS, raw)}
        v = dyad_expand(primary(**scores))
        for name, (a, b) in DYADS.items():
            assert v[name] == (scores[a] + scores[b]) / 2


class TestSentiment:
    def test_pure_positive(self):
        assert sentiment_of(primary(joy=1.0)) is SentimentLabel.POSITIVE

    def test_zero_vector_neutral(self):
        assert sentiment_of(PrimaryVector()) is SentimentLabel.NEUTRAL

    def test_exact_tie_neutral(self):
        assert sentiment_of(primary(joy=0.5, anger=0.5)) is SentimentLabel.NEUTRAL

    def test_negative(self):
        assert sentiment_of(primary(fear=0.6, joy=0.4)) is SentimentLabel.NEGATIVE

    @given(
        st.lists(st.integers(0, 40), min_size=8, max_size=8),
        st.integers(1, 1000),
    )
    @example(raw=[0] * 7 + [5e-324], factor=0.5)  # 5e-324 * 0.5 underflows to 0.0
    @example(raw=[0.3, 0.2, 0, 0, 0.1, 0, 0, 0], factor=10)  # 0.1 + 0.2 > 0.3, 1.0 + 2.0 == 3.0
    def test_scale_invariant(self, raw, factor):
        # Stated over what the scorer produces: hit counts over their total.
        # Scaling every count by a whole factor must not change the label.
        # Scaled float vectors have no such property, as the pinned examples
        # show, so inputs that are not whole counts are excluded.
        assume(all(val == int(val) for val in raw) and factor == int(factor))
        total = sum(raw)
        assume(total > 0)
        base = primary(**{name: val / total for name, val in zip(PRIMARY_EMOTIONS, raw)})
        scaled = primary(
            **{name: val * factor / (total * factor) for name, val in zip(PRIMARY_EMOTIONS, raw)}
        )
        assert sentiment_of(base) is sentiment_of(scaled)


class TestEmotionNames:
    def test_aggressiveness_alias(self):
        assert resolve_emotion_name("aggressiveness") == "aggression"
        assert resolve_emotion_name("Aggression") == "aggression"

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            resolve_emotion_name("melancholy")


class TestSentimentClassifier:
    def test_classifier_matches_manual_path(self):
        classify = sentiment_classifier(TINY)
        assert classify("so glad today") is SentimentLabel.POSITIVE
        assert classify("nothing matches") is SentimentLabel.NEUTRAL

    def test_pluggable_in_agreement_matrix(self):
        classify = sentiment_classifier(TINY)
        dialogues = ["so glad", "plain words", "dread everywhere", "glad glad"]
        model = [classify(d).value for d in dialogues]
        human = ["positive", "neutral", "positive", "positive"]
        _, matrix = agreement_matrix({"lexicon": model, "person 1": human})
        assert matrix[0][1] == 0.75


class TestAgreementMatrix:
    def test_identical_sequences(self):
        names, matrix = agreement_matrix({"a": ["p", "n"], "b": ["p", "n"]})
        assert names == ["a", "b"]
        assert matrix == [[1.0, 1.0], [1.0, 1.0]]

    def test_one_of_four_differs(self):
        _, matrix = agreement_matrix({"a": [1, 2, 3, 4], "b": [1, 2, 3, 9]})
        assert matrix[0][1] == 0.75

    def test_mismatched_lengths(self):
        with pytest.raises(LengthError):
            agreement_matrix({"a": [1, 2], "b": [1]})

    def test_diagonal_and_symmetry(self):
        rnd = random.Random(7)
        labelings = {
            name: [rnd.choice("pnq") for _ in range(40)] for name in ("model", "p1", "p2")
        }
        _, matrix = agreement_matrix(labelings)
        for i in range(3):
            assert matrix[i][i] == 1.0
            for j in range(3):
                assert matrix[i][j] == matrix[j][i]


class TestAggregateCharacter:
    def test_mean_of_one(self):
        rec = record("I am glad")
        agg = aggregate_character(rec, TINY)
        assert agg.vector == dyad_expand(score_dialogue("I am glad", TINY))
        assert not agg.no_affect

    def test_mean_and_dyads(self):
        lex = load_lexicon("glad\tjoy\t1\nrage\tanger\t1\n")
        agg = aggregate_character(record("glad", "rage"), lex)
        assert agg.vector["joy"] == 0.5
        assert agg.vector["anger"] == 0.5
        assert agg.vector["envy"] == 0.25
        assert agg.vector["pride"] == 0.5

    def test_all_zero_hit_flagged(self):
        agg = aggregate_character(record("nothing here", "still nothing"), TINY)
        assert agg.no_affect
        assert all(v == 0.0 for v in agg.vector.values())
        assert agg.scored_dialogues == 0

    def test_zero_hit_dialogues_excluded_from_mean(self):
        agg = aggregate_character(record("glad", "no match"), TINY)
        assert agg.vector["joy"] == 1.0
        assert agg.scored_dialogues == 1

    @given(
        st.lists(
            st.lists(st.sampled_from(["glad", "dread", "noise"]), min_size=1, max_size=6),
            min_size=1,
            max_size=8,
        )
    )
    def test_averaging_commutes_with_expansion(self, dialogue_words):
        rec = record(*(" ".join(words) for words in dialogue_words))
        agg = aggregate_character(rec, TINY)
        pvs = [score_dialogue(d, TINY) for d in rec.dialogues]
        hits = [pv for pv in pvs if pv.hit_count > 0]
        if not hits:
            assert agg.no_affect
            return
        mean_scores = {
            name: sum(pv.score(name) for pv in hits) / len(hits) for name in PRIMARY_EMOTIONS
        }
        expanded_mean = dyad_expand(PrimaryVector(hit_count=1, **mean_scores))
        for name in EMOTION_COLUMNS:
            assert math.isclose(agg.vector[name], expanded_mean[name], abs_tol=1e-12)
