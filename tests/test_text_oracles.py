"""The text layer against the code it replaced, and its error discipline.

The parser, the lexicon reader and the text pass must return what the
per-block and per-row code kept in tests/oracles.py returns, and raise the
same errors with the same messages, on generated scripts and lexicons with
tabs, CRLF, unicode whitespace, jittered offsets, parentheticals, phrase
rows and malformed rows. On arbitrary input, parse_script, load_lexicon and
ingest_metadata may fail only with a package error or a ValueError naming
a line.
"""

import json
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from emocast.corpus import CharacterRecord, Corpus, Gender, ingest_metadata
from emocast.emotion import PRIMARY_EMOTIONS, load_lexicon
from emocast.errors import EmocastError, InputEncodingError, read_utf8
from emocast.lexical import load_word_list, load_word_list_file, text_pass
from emocast.screenplay import (
    POSITIONAL_TOLERANCE,
    TEXT_TOLERANCE,
    RawBlock,
    build_character_dictionary,
    infer_indent_profile,
    load_positional_blocks,
    load_text_blocks,
    parse_script,
)

import oracles

# str.splitlines breaks that JSON leaves raw inside strings (the last three
# only without ensure_ascii), or that end no JSON-lines record
OTHER_BREAKS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
SPACES = ("\t", "\xa0", "\u2009", "\u3000")


def outcome(fn, *args):
    """("ok", result) or ("raised", exception type, message)."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # the comparison is the point: any type, any message
        return ("raised", type(exc).__name__, str(exc))


def fields(load):
    """``load`` returning its blocks as (text, left, order) tuples."""
    return lambda source: [(b.text, b.left, b.order) for b in load(source)]


def parse_source(source, positional):
    if positional:
        blocks, tolerance = load_positional_blocks(source), POSITIONAL_TOLERANCE
    else:
        blocks, tolerance = load_text_blocks(source), TEXT_TOLERANCE
    return build_character_dictionary(blocks, infer_indent_profile(blocks, tolerance), tolerance)


def parse_source_reference(source, positional):
    if positional:
        blocks, tolerance = oracles.load_positional_blocks_reference(source), POSITIONAL_TOLERANCE
    else:
        blocks, tolerance = oracles.load_text_blocks_reference(source), TEXT_TOLERANCE
    profile = oracles.infer_indent_profile_reference(blocks, tolerance)
    return oracles.build_character_dictionary_reference(
        oracles.classify_blocks_reference(blocks, profile, tolerance)
    )


CUES = st.sampled_from(["HARRY", "MAD  EYE", "RON (V.O.)", "(O.S.)", "ÉLISE", "aunt marge", "FADE OUT:"])
SPEECH = st.text(alphabet="abcXY .,'’-é()" + "".join(SPACES), max_size=16)
PARENTHETICALS = st.sampled_from(["(beat)", "(quietly)", "(", "()", "(half", "x)"])
ACTION = st.sampled_from(["INT. HALL - DAY", "ext. road", "He runs.", "CUT TO:", "I/E. CAR"])
# (level index, text): 0 action, 1 dialogue, 2 cue, None a blank line
LINES = st.one_of(
    st.tuples(st.just(2), CUES),
    st.tuples(st.just(1), SPEECH),
    st.tuples(st.just(1), PARENTHETICALS),
    st.tuples(st.just(0), ACTION),
    st.tuples(st.none(), st.sampled_from(["", " ", "\t", "\u3000"])),
)


@st.composite
def text_scripts(draw):
    layout = draw(st.sampled_from([(5, 15, 25), (0, 12, 24), (10, 13, 16), (8, 16, 33)]))
    parts = []
    for level, text in draw(st.lists(LINES, min_size=4, max_size=40)):
        if level is None:
            parts.append(text)
        else:
            left = max(0, layout[level] + draw(st.integers(-3, 3)))
            indent = draw(st.sampled_from(["spaces", "tabs", "unicode"]))
            if indent == "tabs":
                prefix = "\t" * (left // 8) + " " * (left % 8)
            elif indent == "unicode":
                prefix = " " * left + draw(st.sampled_from(SPACES))
            else:
                prefix = " " * left
            parts.append(prefix + text + draw(st.sampled_from(["", " ", "\t", "\u3000"])))
        parts.append(draw(st.sampled_from(("\n", "\r\n", "\r") + OTHER_BREAKS)))
    return "".join(parts)


# records the old splitlines reading cut apart or rejected differently stay out
MALFORMED_RECORDS = st.sampled_from([
    '{"text": "X"}',
    '{"left": 5}',
    "[1, 2]",
    '"text"',
    "null",
    '{"text": "A", "left": -1}',
    '{"text": "A", "left": "120"}',
    '{"text": "A", "left": 1.5}',
    '{"text": "A", "left": "x"}',
    '{"text": "A", "left": NaN}',
    '{"text": "A", "left": [1]}',
    '  {"text": "A", "left": 100}\t',
    '{"text": "A", "left": 100} x',
    '{"text": "A", "left": 100}\u3000',
    '{"text": "A", "left": 100}{}',
    "{bad",
    "",
    "   ",
    "\u3000",
    '\ufeff{"text": "A", "left": 1}',
    '{"text": null, "left": 100}',
    '{"text": 7, "left": true}',
    '{"text": "   ", "left": 100}',
])


@st.composite
def positional_scripts(draw, breaks=("\n", "\r\n", "\r")):
    """Jittered records, blank lines; half the scripts hold one malformed record."""
    layout = draw(st.sampled_from([(108, 252, 396), (90, 230, 370), (100, 112, 124)]))
    ensure_ascii = draw(st.booleans())
    parts = []
    records = []
    for i, (level, text) in enumerate(draw(st.lists(LINES, min_size=4, max_size=40))):
        if level is None:
            records.append(text)
        else:
            record = {"text": text, "left": layout[level] + draw(st.integers(-10, 10)), "top": 40 + 18 * i}
            records.append(json.dumps(record, ensure_ascii=ensure_ascii))
    if draw(st.booleans()):
        records.insert(draw(st.integers(0, len(records))), draw(MALFORMED_RECORDS))
    return "".join(record + draw(st.sampled_from(breaks)) for record in records)


class TestParserMatchesReference:
    @given(text_scripts())
    def test_text_blocks(self, source):
        assert fields(load_text_blocks)(source) == fields(oracles.load_text_blocks_reference)(source)

    @given(text_scripts())
    @example("")
    @example("    HARRY\n  Hello.\nINT. HALL\n")
    def test_text_dictionary(self, source):
        assert outcome(parse_source, source, False) == outcome(parse_source_reference, source, False)

    @given(positional_scripts())
    @example("")
    @example('{"text": "A", "left": 1}\r\n\r\n{"text": "B"}\r\n')
    def test_positional_blocks_and_errors(self, source):
        assert outcome(fields(load_positional_blocks), source) == outcome(
            fields(oracles.load_positional_blocks_reference), source
        )

    @given(positional_scripts())
    def test_positional_dictionary(self, source):
        assert outcome(parse_source, source, True) == outcome(parse_source_reference, source, True)

    @given(st.lists(st.integers(0, 60), max_size=60), st.sampled_from([TEXT_TOLERANCE, POSITIONAL_TOLERANCE]))
    def test_indent_profile(self, lefts, tolerance):
        blocks = [RawBlock("x", left, i) for i, left in enumerate(lefts)]
        reference_blocks = [oracles.RawBlock("x", left, i) for i, left in enumerate(lefts)]
        assert outcome(infer_indent_profile, blocks, tolerance) == outcome(
            oracles.infer_indent_profile_reference, reference_blocks, tolerance
        )

    def test_fixture_and_planted_scripts(self, fixtures_dir, tmp_path):
        from synth import build_planted_corpus

        planted = build_planted_corpus(tmp_path, seed=3)["scripts"]
        paths = [*sorted((fixtures_dir / "scripts").iterdir()), *sorted(planted.iterdir())]
        for path in paths:
            assert parse_script(path) == oracles.parse_script_reference(path), path.name


class TestPositionalRecordBreaks:
    @given(positional_scripts(breaks=("\n", "\r\n", "\r")), st.sampled_from(["\x85", "\u2028", "\u2029"]))
    def test_unescaped_separator_in_text_stays_in_its_record(self, source, separator):
        # the same records, with the separator in every text, escaped and raw
        records = []
        for line in source.replace("\r\n", "\n").replace("\r", "\n").split("\n"):
            try:
                obj = json.loads(line)
            except ValueError:
                continue
            if isinstance(obj, dict) and isinstance(obj.get("text"), str) and "left" in obj:
                records.append({**obj, "text": obj["text"] + separator + "tail"})
        escaped = "".join(json.dumps(r) + "\n" for r in records)
        raw = "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records)
        assert outcome(load_positional_blocks, raw) == outcome(load_positional_blocks, escaped)
        assert outcome(fields(load_positional_blocks), escaped) == outcome(
            fields(oracles.load_positional_blocks_reference), escaped
        )

    def test_line_separator_in_dialogue(self):
        source = "".join(
            json.dumps({"text": text, "left": left, "top": i}, ensure_ascii=False) + "\n"
            for i, (text, left) in enumerate(
                [("INT. HALL", 108), ("HARRY", 396), ("One\u2028two", 252), ("Door opens.", 108)]
            )
        )
        assert [(b.text, b.left, b.order) for b in load_positional_blocks(source)] == [
            ("INT. HALL", 108, 0), ("HARRY", 396, 1), ("One\u2028two", 252, 2), ("Door opens.", 108, 3)
        ]
        with pytest.raises(ValueError, match="line 3: bad positional block: Unterminated string"):
            oracles.load_positional_blocks_reference(source)

    @pytest.mark.parametrize("separator", OTHER_BREAKS)
    def test_other_separator_between_records_rejected(self, separator):
        source = '{"text": "A", "left": 1}' + separator + '{"text": "B", "left": 2}\n'
        with pytest.raises(ValueError, match="line 1: bad positional block: Extra data"):
            load_positional_blocks(source)

    def test_line_numbers_count_crlf_and_cr_once(self):
        source = '{"text": "A", "left": 1}\r\n{"text": "B", "left": 2}\r\r\n{"text": "C"}\n'
        with pytest.raises(ValueError, match="^line 4: bad positional block: 'left'$"):
            load_positional_blocks(source)


# rows every reader accepts: words with case, padding, unicode spaces and
# phrases; primaries in any case, sentiments; flags with padding
LEXICON_ROWS = st.builds(
    lambda *cells: "\t".join(cells),
    st.one_of(
        st.sampled_from(["joy", "Glad", "old haven", "a\u3000b", " padded ", "\xa0É", "x"]),
        st.text(alphabet="abAB", min_size=1, max_size=4),
    ),
    st.sampled_from([*PRIMARY_EMOTIONS, "positive", "negative", "JOY", " Anger "]),
    st.sampled_from(["1", "0", " 1 ", "0 "]),
) | st.sampled_from(["", "  ", "\t", "\u3000"])
MALFORMED_ROWS = st.sampled_from([
    "joy\tjoy",
    "joy\tjoy\t1\tx",
    "\tjoy\t1",
    " \tjoy\t0",
    "joy\tangr\t1",
    "joy\t\t1",
    "joy\tjoy\t2",
    "joy\tjoy\t",
    "joy\tjoy\t01",
    "joy",
])


@st.composite
def lexicon_texts(draw):
    """Mostly valid rows; half the texts hold one malformed row."""
    rows = draw(st.lists(LEXICON_ROWS, max_size=30))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), draw(MALFORMED_ROWS))
    return "".join(row + draw(st.sampled_from(("\n", "\r\n", "\r") + OTHER_BREAKS)) for row in rows)


def lexicon_outcome(text):
    lexicon = load_lexicon(text)
    return lexicon.entries, lexicon.skipped_phrases


class TestLexiconMatchesReference:
    @given(lexicon_texts())
    @example("joy\tjoy\t1\nold haven\tjoy\t1\nfoo\tpositive\t1\n\nbar\tfear\t0\n")
    @example("joy\tjoy\n")
    @example("\tjoy\t1\n")
    @example("joy\tJOY\t2\n")
    def test_entries_and_errors(self, text):
        assert outcome(lexicon_outcome, text) == outcome(oracles.load_lexicon_reference, text)

    def test_fixture_lexicon(self, fixtures_dir):
        text = (fixtures_dir / "lexicon.tsv").read_text(encoding="utf-8")
        assert lexicon_outcome(text) == oracles.load_lexicon_reference(text)


@given(
    st.lists(
        st.tuples(
            st.sampled_from(list(Gender)),
            st.lists(st.text(alphabet="glad dread the a I x9 Glad'ss é\u3000", max_size=30), max_size=5),
        ),
        max_size=8,
    )
)
def test_text_pass_matches_reference(cast):
    lexicon = load_lexicon("glad\tjoy\t1\ndread\tfear\t1\ndread\tanticipation\t1\nx\tanger\t1\n")
    stopwords = {"the", "a", "ss"}
    corpus = Corpus(
        records=[
            CharacterRecord(name=f"C{i}", movie="m", year=2000, gender=gender, dialogues=tuple(dialogues))
            for i, (gender, dialogues) in enumerate(cast)
        ],
        provenance={},
    )
    result = text_pass(corpus, lexicon, stopwords)
    counts, words = oracles.text_pass_reference(corpus, lexicon, stopwords)
    assert result.counts.dtype == counts.dtype and np.array_equal(result.counts, counts)
    assert result.words == words
    # same first-seen order, so any order-dependent consumer sees the same words
    assert {group: list(counter) for group, counter in result.words.items()} == {
        group: list(counter) for group, counter in words.items()
    }
    assert all(isinstance(counter, Counter) for counter in result.words.values())


@given(st.text(alphabet="ab\r\n\u2028\x85\ufeff\xe9", max_size=40))
@example("\ufeffa\r\n\rb\r")
def test_read_utf8_reads_as_read_text(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_bytes(text.encode("utf-8"))
        assert read_utf8(path) == path.read_text(encoding="utf-8-sig")  # one leading BOM dropped


@pytest.mark.parametrize(
    "data, line",
    [
        (b"\xff", 1),
        (b"a\nb\xc3", 2),
        (b"a\r\nb\r\n\xe9t\xe9", 3),
        (b"a\rb\r\rc\x80", 4),
        (b"\xef\xbb\xbfa\n\xed\xa0\x80", 2),  # a BOM, then an encoded surrogate
    ],
)
def test_read_utf8_names_line_of_first_bad_byte(tmp_path, data, line):
    path = tmp_path / "input"
    path.write_bytes(data)
    with pytest.raises(InputEncodingError, match=f"^line {line}: not valid UTF-8: "):
        read_utf8(path)


def test_read_utf8_names_the_bad_byte_after_a_bom(tmp_path):
    path = tmp_path / "input"
    path.write_bytes(b"\xef\xbb\xbf\xff")
    with pytest.raises(InputEncodingError, match=r"^line 1: not valid UTF-8: invalid start byte \(byte 0xff\)$"):
        read_utf8(path)


def _names_a_line(exc):
    return isinstance(exc, EmocastError) or (type(exc) is ValueError and "line " in str(exc))


class TestErrorDiscipline:
    """Arbitrary input fails only with a package error or a ValueError
    naming a line, never with a traceback from the standard library."""

    @given(
        st.one_of(
            st.binary(max_size=300),
            positional_scripts().map(str.encode),
            text_scripts().map(str.encode),
        ),
        st.sampled_from([".txt", ".jsonl"]),
    )
    @example(b'{"text": "A", "left": Infinity}\n', ".jsonl")
    @example(b'{"text": "A", "left": -1e999}\n', ".jsonl")
    @example(b"[" * 100_000, ".jsonl")
    @example(b'{"text": "A", "left": 1' + b"0" * 5000 + b"}", ".jsonl")
    @example(b"  HARRY\n\xff Hello.\n", ".txt")
    @example(b"\xef\xbb\xbf" + b'{"text": "A", "left": 1}\n', ".jsonl")
    @example(
        b'{"text": "INT. ROOM", "left": 0}\n{"text": "ELENA \\udc80", "left": 20}\n{"text": "Hi.", "left": 10}\n',
        ".jsonl",
    )
    def test_parse_script(self, data, suffix):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / f"script{suffix}"
            path.write_bytes(data)
            try:
                characters = parse_script(path)
            except Exception as exc:  # the type is what is checked
                assert _names_a_line(exc), repr(exc)
            else:  # what parses can be written: no lone surrogate from a JSON escape
                for name, dialogues in characters.items():
                    "".join([name, *dialogues]).encode("utf-8")

    @given(st.one_of(st.text(max_size=200), lexicon_texts()))
    def test_load_lexicon(self, text):
        try:
            load_lexicon(text)
        except Exception as exc:  # the type is what is checked
            assert isinstance(exc, EmocastError), repr(exc)

    @given(
        st.one_of(
            st.text(max_size=200),
            st.lists(
                st.lists(st.text(alphabet='ab ,"\nÉ(V.O.)0123456789', max_size=8), max_size=5),
                max_size=6,
            ).map(lambda rows: "movie,character,gender,year\n" + "\n".join(",".join(r) for r in rows)),
        )
    )
    @example('movie,character,gender,year\n"' + "a" * 200_000 + '",b,male,1990\n')
    @example("movie,character,gender,year\nm,HARRY,male," + "9" * 5000 + "\n")
    def test_ingest_metadata(self, text):
        try:
            ingest_metadata(text)
        except Exception as exc:  # the type is what is checked
            assert isinstance(exc, EmocastError), repr(exc)

    @given(st.one_of(st.binary(max_size=200), st.text(max_size=200).map(str.encode)))
    @example(b"cat\r\ndog\n# caf\xe9\n")
    def test_load_word_list_file(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "words.txt"
            path.write_bytes(data)
            try:
                words = load_word_list_file(path)
            except Exception as exc:  # the type is what is checked
                assert isinstance(exc, InputEncodingError) and _names_a_line(exc), repr(exc)
            else:
                assert words == load_word_list(data.decode("utf-8"))
