import pytest
from hypothesis import given
from hypothesis import strategies as st

from emocast.corpus import (
    CharacterRecord,
    Corpus,
    Gender,
    assemble_corpus,
    corpus_from_json,
    corpus_to_json,
    ingest_metadata,
)
from emocast.errors import AssemblyError, MetadataError

HEADER = "movie,character,gender,year\n"


class TestIngestMetadata:
    def test_direct_parse(self):
        meta = ingest_metadata(HEADER + "Inception,ARIADNE,female,2010\n")
        assert meta == {("Inception", "ARIADNE"): (Gender.FEMALE, 2010)}

    def test_duplicate_rejected(self):
        text = HEADER + "M,EVE,female,2000\nM,EVE,male,2000\n"
        with pytest.raises(MetadataError, match="line 3"):
            ingest_metadata(text)

    def test_gender_case_insensitive(self):
        meta = ingest_metadata(HEADER + "M,EVE,FEMALE,2000\n")
        assert meta[("M", "EVE")][0] is Gender.FEMALE

    def test_bad_header(self):
        with pytest.raises(MetadataError, match="line 1"):
            ingest_metadata("movie,name,gender,year\nM,EVE,female,2000\n")

    def test_bad_gender(self):
        with pytest.raises(MetadataError, match="line 2"):
            ingest_metadata(HEADER + "M,EVE,woman,2000\n")

    def test_bad_year(self):
        with pytest.raises(MetadataError, match="line 2"):
            ingest_metadata(HEADER + "M,EVE,female,soon\n")

    def test_year_out_of_range(self):
        with pytest.raises(MetadataError, match="line 2"):
            ingest_metadata(HEADER + "M,EVE,female,1492\n")

    def test_short_row(self):
        with pytest.raises(MetadataError, match="line 2"):
            ingest_metadata(HEADER + "M,EVE,female\n")

    def test_year_conflict_within_movie_rejected(self):
        text = HEADER + "M,EVE,female,2000\nN,ADA,female,1990\nM,ABE,male,2001\n"
        with pytest.raises(MetadataError, match="line 4.*2001.*2000 on line 2"):
            ingest_metadata(text)

    def test_quoted_field_spanning_lines_names_the_line_a_row_starts_on(self):
        # record 3 starts on line 4: the quoted name of record 2 spans lines 2-3
        text = HEADER + 'M,"A\nB",male,2000\nM,C,male,1700\n'
        with pytest.raises(MetadataError, match="^line 4: year 1700"):
            ingest_metadata(text)
        text = HEADER + 'M,"A\nB",male,2000\nN,C,male,1990\nM,D,male,2001\n'
        with pytest.raises(MetadataError, match="^line 5: .*2000 on line 2$"):
            ingest_metadata(text)
        with pytest.raises(MetadataError, match="^line 2: year 1700"):
            ingest_metadata(HEADER + 'M,"A\nB",male,1700\n')

    def test_character_names_normalized(self):
        meta = ingest_metadata(HEADER + "M,eve (v.o.),female,2000\n")
        assert ("M", "EVE") in meta


def two_movie_dicts():
    return {
        "alpha": {"ANA": ["a"] * 5, "BEN": ["b"] * 5, "CARA": ["c"] * 5},
        "beta": {"DANA": ["d"] * 5, "ELI": ["e"] * 5, "FAY": ["f"] * 5},
    }


def full_meta():
    rows = [
        ("alpha", "ANA", "female", 2001),
        ("alpha", "BEN", "male", 2001),
        ("alpha", "CARA", "female", 2001),
        ("beta", "DANA", "female", 2010),
        ("beta", "ELI", "male", 2010),
        ("beta", "FAY", "female", 2010),
    ]
    text = HEADER + "".join(f"{m},{c},{g},{y}\n" for m, c, g, y in rows)
    return ingest_metadata(text)


class TestAssembleCorpus:
    def test_record_per_character(self):
        corpus = assemble_corpus(two_movie_dicts(), full_meta())
        assert len(corpus.records) == 6

    def test_missing_character_gets_unknown(self):
        meta = ingest_metadata(HEADER + "alpha,ANA,female,2001\n")
        corpus = assemble_corpus({"alpha": {"ANA": ["a"], "ZED": ["z"]}}, meta)
        zed = next(rec for rec in corpus.records if rec.name == "ZED")
        assert zed.gender is Gender.UNKNOWN
        assert zed.year == 2001

    def test_movie_without_metadata_rejected(self):
        meta = ingest_metadata(HEADER + "alpha,ANA,female,2001\n")
        with pytest.raises(AssemblyError, match="gamma"):
            assemble_corpus({"gamma": {"GUS": ["g"]}}, meta)

    def test_records_sorted(self):
        corpus = assemble_corpus(two_movie_dicts(), full_meta())
        keys = [(rec.movie, rec.name) for rec in corpus.records]
        assert keys == sorted(keys)

    def test_gender_counts_partition_corpus(self):
        corpus = assemble_corpus(two_movie_dicts(), full_meta())
        s = corpus.summary()
        assert s["female"] + s["male"] + s["unknown"] == s["characters"] == 6
        assert s["dialogues"] == 30


records_strategy = st.lists(
    st.builds(
        CharacterRecord,
        name=st.text("ABCDE", min_size=1, max_size=5),
        movie=st.text("xyz", min_size=1, max_size=4),
        year=st.integers(1870, 2100),
        gender=st.sampled_from(list(Gender)),
        dialogues=st.lists(st.text(max_size=15), min_size=1, max_size=4).map(tuple),
    ),
    max_size=6,
)


class TestSerialization:
    @given(records_strategy)
    def test_round_trip(self, records):
        corpus = Corpus(records=records, provenance={"m": "m.txt"})
        assert corpus_from_json(corpus_to_json(corpus)) == corpus

    def test_stable_output_bytes(self):
        corpus = assemble_corpus(two_movie_dicts(), full_meta())
        assert corpus_to_json(corpus) == corpus_to_json(corpus)
