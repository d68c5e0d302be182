"""Corpus assembly: parsed dialogue joined with character metadata.

Metadata lives in a sidecar CSV (``movie,character,gender,year``). Characters
parsed from a script but missing from the CSV stay in the corpus with gender
UNKNOWN and the movie-level year, so an incomplete tag sheet never blocks a
run; two-group comparisons simply skip those records.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from dataclasses import dataclass
from enum import Enum

from .errors import AssemblyError, MetadataError
from .screenplay import CharacterDictionary, normalize_character_name

YEAR_MIN = 1870
YEAR_MAX = 2100

_HEADER = ["movie", "character", "gender", "year"]


class Gender(Enum):
    FEMALE = "female"
    MALE = "male"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class CharacterRecord:
    """A character within one movie; the same name elsewhere is a new record."""

    name: str
    movie: str
    year: int
    gender: Gender
    dialogues: tuple[str, ...]


@dataclass
class Corpus:
    records: list[CharacterRecord]
    provenance: dict[str, str]

    def summary(self) -> dict[str, int]:
        """The counts report.json's summary holds: characters, dialogues,
        then characters per gender."""
        by_gender = Counter(rec.gender for rec in self.records)
        return {
            "characters": len(self.records),
            "dialogues": sum(len(rec.dialogues) for rec in self.records),
            **{g.value: by_gender[g] for g in Gender},
        }


MetadataMap = dict[tuple[str, str], tuple[Gender, int]]


def ingest_metadata(text: str) -> MetadataMap:
    """Parse the metadata CSV into (movie, name) -> (gender, year).

    Character names pass through the same normalization as parsed cues so
    the two sides join cleanly. Malformed rows, out-of-range years,
    duplicate (movie, character) pairs and rows whose year disagrees with
    an earlier row of the same movie raise MetadataError naming the line
    the row starts on (a quoted field may span lines); a file the csv
    module cannot read raises it with the line it stopped on.
    """
    reader = csv.reader(io.StringIO(text))
    rows: list[tuple[int, list[str]]] = []  # (the line a row starts on, its fields)
    start = 1
    try:
        for row in reader:
            rows.append((start, row))
            start = reader.line_num + 1
    except csv.Error as exc:  # e.g. a field over csv's size limit
        raise MetadataError(f"line {reader.line_num}: {exc}") from None
    if not rows:
        raise MetadataError("empty metadata file")
    header = [cell.strip().lower() for cell in rows[0][1]]
    if header != _HEADER:
        raise MetadataError(f"line 1: expected header {','.join(_HEADER)!r}")
    meta: MetadataMap = {}
    movie_year: dict[str, tuple[int, int]] = {}  # movie -> (year, first line)
    for lineno, row in rows[1:]:
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 4:
            raise MetadataError(f"line {lineno}: expected 4 fields, got {len(row)}")
        movie, character, gender_text, year_text = (cell.strip() for cell in row)
        if not movie:
            raise MetadataError(f"line {lineno}: empty movie name")
        try:
            name = normalize_character_name(character)
        except Exception as exc:
            raise MetadataError(f"line {lineno}: bad character name: {exc}") from exc
        try:
            gender = Gender(gender_text.lower())
        except ValueError:
            raise MetadataError(
                f"line {lineno}: gender must be female/male/unknown, got {gender_text!r}"
            ) from None
        try:
            year = int(year_text)
        except ValueError:
            raise MetadataError(f"line {lineno}: year is not an integer: {year_text!r}") from None
        if not YEAR_MIN <= year <= YEAR_MAX:
            raise MetadataError(f"line {lineno}: year {year} outside [{YEAR_MIN}, {YEAR_MAX}]")
        first_year, first_line = movie_year.setdefault(movie, (year, lineno))
        if year != first_year:
            raise MetadataError(
                f"line {lineno}: year {year} for {movie!r} disagrees with {first_year} on line {first_line}"
            )
        key = (movie, name)
        if key in meta:
            raise MetadataError(f"line {lineno}: duplicate entry for {movie!r} / {name!r}")
        meta[key] = (gender, year)
    return meta


def assemble_corpus(
    dicts: dict[str, CharacterDictionary],
    meta: MetadataMap,
    provenance: dict[str, str] | None = None,
) -> Corpus:
    """Build CharacterRecords for every parsed character.

    Characters absent from the metadata get Gender.UNKNOWN and the movie's
    year, on which ingest_metadata has made its rows agree. A movie with no
    metadata rows at all raises AssemblyError.
    """
    movie_year: dict[str, int] = {}
    for (movie, _), (_, year) in meta.items():
        movie_year.setdefault(movie, year)

    records: list[CharacterRecord] = []
    for movie, entries in dicts.items():
        if movie not in movie_year:
            raise AssemblyError(f"movie {movie!r} has no metadata rows")
        for name, dialogues in entries.items():
            gender, year = meta.get((movie, name), (Gender.UNKNOWN, movie_year[movie]))
            records.append(
                CharacterRecord(
                    name=name,
                    movie=movie,
                    year=year,
                    gender=gender,
                    dialogues=tuple(dialogues),
                )
            )
    records.sort(key=lambda rec: (rec.movie, rec.name))
    return Corpus(records=records, provenance=dict(provenance or {}))


def corpus_to_json(corpus: Corpus) -> str:
    """Serialize with a stable field order for byte-reproducible output."""
    payload = {
        "records": [
            {
                "movie": rec.movie,
                "name": rec.name,
                "year": rec.year,
                "gender": rec.gender.value,
                "dialogues": list(rec.dialogues),
            }
            for rec in corpus.records
        ],
        "provenance": {movie: corpus.provenance[movie] for movie in sorted(corpus.provenance)},
    }
    return json.dumps(payload, indent=2, ensure_ascii=True) + "\n"


# The fields of a corpus.json record and the type each must load as
_RECORD_FIELDS = {"movie": str, "name": str, "year": int, "gender": str, "dialogues": list}


def corpus_from_json(text: str) -> Corpus:
    """The corpus that ``corpus_to_json`` wrote. Raises ValueError unless
    the text is that shape, naming the first record that is not."""
    data = json.loads(text)
    if not isinstance(data, dict) or not isinstance(data.get("records"), list):
        raise ValueError("expected an object with a records list")
    if not isinstance(data.get("provenance", {}), dict):
        raise ValueError("provenance is not an object")
    records = []
    for i, item in enumerate(data["records"]):
        if not isinstance(item, dict):
            raise ValueError(f"records[{i}] is not an object")
        for field, kind in _RECORD_FIELDS.items():
            if field not in item:
                raise ValueError(f"records[{i}] has no {field!r}")
            if not isinstance(item[field], kind) or isinstance(item[field], bool):
                raise ValueError(f"records[{i}]: {field!r} is a {type(item[field]).__name__}, not a {kind.__name__}")
        if not all(isinstance(dialogue, str) for dialogue in item["dialogues"]):
            raise ValueError(f"records[{i}]: 'dialogues' must hold only strings")
        try:
            "".join([item["movie"], item["name"], *item["dialogues"]]).encode("utf-8")
        except UnicodeEncodeError:  # a lone surrogate escape such as "\udc80"
            raise ValueError(f"records[{i}]: a string holds a lone surrogate, which UTF-8 cannot encode") from None
        try:
            gender = Gender(item["gender"])
        except ValueError:
            raise ValueError(f"records[{i}]: gender must be female/male/unknown, got {item['gender']!r}") from None
        records.append(CharacterRecord(item["name"], item["movie"], item["year"], gender, tuple(item["dialogues"])))
    return Corpus(records=records, provenance=dict(data.get("provenance", {})))
