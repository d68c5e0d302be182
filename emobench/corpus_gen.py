"""Seeded corpus generator for the emocast benchmark.

Writes a complete input set under a root directory:

* ``scripts/``: screenplays, a share of them positional ``.jsonl`` and the
  rest plain ``.txt``. Each script keeps every block kind at one offset
  (action, dialogue, cue), plus rarer title and transition offsets that
  classify as OTHER.
* ``metadata.csv``: ``movie,character,gender,year`` rows for the gendered
  characters, including rows for characters the parser drops.
* ``lexicon.tsv``: an NRC-shaped word-affect file, ten affect rows per word
  with flag 0 or 1, ``positive``/``negative`` rows and a few multi-word
  phrases.
* ``truth.json``: what the pipeline must find. Each kept character's
  dialogues and gender, the corpus counts, the no-affect characters and the
  planted nouns.

The planted signal: female characters lean on joy words and male characters
on anger words, and each gender has private nouns the other never says.
Every script also carries characters below the dialogue threshold,
characters missing from the metadata (gender unknown) and, every few
movies, a character whose dialogue holds no emotion word at all.

Sizes are fixed by the arguments. The seed chooses words, names, orders,
the length of each dialogue and which character of a gender group gets
which dialogue count; it does not change how many characters there are or
how many dialogues each gender speaks.

Run on its own: ``python3 emobench/corpus_gen.py OUT --movies 4 --cast 6``.
"""

from __future__ import annotations

import argparse
import json
import random
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DATA = REPO / "src" / "emocast" / "data"

PRIMARIES = ("anger", "anticipation", "disgust", "fear", "joy", "sadness", "surprise", "trust")
# NRC row order for one word: the eight primaries and the two sentiments, sorted.
NRC_AFFECTS = tuple(sorted(PRIMARIES + ("negative", "positive")))

FEMALE_NOUNS = ("kitchen", "dress", "fashion", "skirt", "garden")
MALE_NOUNS = ("war", "business", "engine", "rifle", "horse")
SHARED_NOUNS = ("door", "window", "road", "letter", "mirror")
FUNCTION_WORDS = ("the", "and", "i", "you", "we", "to", "of", "a", "it", "is", "not", "my")
PARENTHETICALS = ("(beat)", "(quietly)", "(laughing)", "(to herself)", "(pause)")
CUE_MARKERS = (" (V.O.)", " (O.S.)", " (CONT'D)")
PHRASES = ("old haven", "new dawn", "cold heart", "open road")
# Each character with affect leans on the words of one pair of primaries, so
# the character vectors have cluster structure for k-means and Ward to find.
ARCHETYPES = (("fear", "sadness"), ("trust", "anticipation"), ("disgust", "surprise"),
              ("anticipation", "fear"))

MIN_DIALOGUES = 5  # the program's default --min-dialogues
LEXICON_WORDS = 14_000
PLANTED_WORDS = 40  # per planted emotion
EMOTION_SHARE = 0.30
SENTIMENT_ONLY_SHARE = 0.10
WRAP = 34
DIALOGUE_WORDS = (5, 10)  # words per dialogue besides function, emotion and noun words
JSONL_SHARE = 0.33

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


@dataclass(frozen=True)
class Layout:
    """Offsets of one script: columns in text mode, pixels in positional mode."""

    title: int
    action: int
    dialogue: int
    cue: int
    transition: int


TEXT_LAYOUTS = (Layout(35, 5, 15, 25, 45), Layout(44, 10, 20, 32, 56), Layout(36, 0, 12, 24, 50))
PIXEL_LAYOUTS = (Layout(300, 108, 252, 396, 560), Layout(320, 90, 230, 370, 520))


def _read_words(name: str) -> set[str]:
    words = set()
    for line in (DATA / name).read_text(encoding="utf-8").splitlines():
        word = line.strip().lower()
        if word and not word.startswith("#"):
            words.add(word)
    return words


class _Vocabulary:
    """Pseudo-words that are neither bundled nouns nor stopwords."""

    def __init__(self, rnd: random.Random) -> None:
        self.rnd = rnd
        self.taken = _read_words("nouns.txt") | _read_words("stopwords.txt")
        self.taken |= set(FUNCTION_WORDS)

    def word(self, syllables: tuple[int, int] = (2, 4)) -> str:
        while True:
            n = self.rnd.randint(*syllables)
            word = "".join(
                self.rnd.choice(_CONSONANTS) + self.rnd.choice(_VOWELS) for _ in range(n)
            )
            if word not in self.taken:
                self.taken.add(word)
                return word

    def name(self) -> str:
        first = self.word((2, 3)).upper()
        if self.rnd.random() < 0.3:
            return f"{first} {self.word((2, 2)).upper()}"
        return first


@dataclass
class _Lexicon:
    joy: list[str]
    anger: list[str]
    emotional: list[str]  # other words with at least one primary
    archetypes: list[list[str]]  # emotional words carrying either primary of an archetype
    plain: list[str]  # words with no primary affect (flag-0 or sentiment only)
    rows: list[str]


def _build_lexicon(vocab: _Vocabulary, rnd: random.Random) -> _Lexicon:
    flags: dict[str, dict[str, int]] = {}
    joy = [vocab.word() for _ in range(PLANTED_WORDS)]
    anger = [vocab.word() for _ in range(PLANTED_WORDS)]
    for word in joy:
        flags[word] = {"joy": 1, "positive": 1}
    for word in anger:
        flags[word] = {"anger": 1, "negative": 1}
    n_emotional = int(LEXICON_WORDS * EMOTION_SHARE) - 2 * PLANTED_WORDS
    emotional = [vocab.word() for _ in range(n_emotional)]
    for word in emotional:
        chosen = {p: 1 for p in rnd.sample(PRIMARIES, rnd.choice((1, 1, 1, 2, 2, 3)))}
        if rnd.random() < 0.6:
            chosen[rnd.choice(("positive", "negative"))] = 1
        flags[word] = chosen
    n_sentiment = int(LEXICON_WORDS * SENTIMENT_ONLY_SHARE)
    n_zero = LEXICON_WORDS - len(flags) - n_sentiment
    plain = [vocab.word() for _ in range(n_sentiment + n_zero)]
    for i, word in enumerate(plain):
        flags[word] = {rnd.choice(("positive", "negative")): 1} if i < n_sentiment else {}
    for phrase in PHRASES:
        flags[phrase] = {rnd.choice(PRIMARIES): 1}
    rows = [
        f"{word}\t{affect}\t{flags[word].get(affect, 0)}"
        for word in sorted(flags)
        for affect in NRC_AFFECTS
    ]
    archetypes = [[w for w in emotional if flags[w].get(a) or flags[w].get(b)] for a, b in ARCHETYPES]
    return _Lexicon(joy=joy, anger=anger, emotional=emotional, archetypes=archetypes,
                    plain=plain, rows=rows)


@dataclass
class _Character:
    name: str
    gender: str  # female / male / unknown (unknown: no metadata row)
    role: str  # kept / below_min / no_affect
    dialogues: list[str]


def _sentence(rnd: random.Random, words: list[str]) -> str:
    rnd.shuffle(words)
    text = " ".join(words)
    cut = text.find(" ", len(text) // 2)
    if cut > 0 and rnd.random() < 0.4:
        text = text[:cut] + "," + text[cut:]
    return text[0].upper() + text[1:] + rnd.choice(".!?.")


def _dialogue(rnd: random.Random, lex: _Lexicon, gender: str, archetype: int | None,
              sure: bool) -> str:
    """One dialogue; ``archetype`` None means no emotion word at all, and
    ``sure`` guarantees at least one."""
    words = [rnd.choice(lex.plain) for _ in range(rnd.randint(*DIALOGUE_WORDS))]
    words += rnd.sample(FUNCTION_WORDS, rnd.randint(1, 3))
    if archetype is not None and (sure or rnd.random() < 0.85):
        planted = lex.joy if gender == "female" else lex.anger if gender == "male" else None
        for _ in range(rnd.randint(1, 3)):
            if planted is not None and rnd.random() < 0.4:
                words.append(rnd.choice(planted))
            elif rnd.random() < 0.75:
                words.append(rnd.choice(lex.archetypes[archetype]))
            else:
                words.append(rnd.choice(lex.emotional))
    if rnd.random() < 0.35:
        private = FEMALE_NOUNS if gender == "female" else MALE_NOUNS if gender == "male" else ()
        if private and rnd.random() < 0.6:
            words.append(rnd.choice(private))
        else:
            words.append(rnd.choice(SHARED_NOUNS))
    return _sentence(rnd, words)


def _wrap(text: str) -> list[str]:
    lines, current = [], ""
    for word in text.split(" "):
        if current and len(current) + 1 + len(word) > WRAP:
            lines.append(current)
            current = word
        else:
            current = f"{current} {word}" if current else word
    lines.append(current)
    return lines


def _spread(lo: int, hi: int, n: int) -> list[int]:
    """n counts spread evenly over [lo, hi]."""
    return [lo + (hi - lo) * j // max(1, n - 1) for j in range(n)]


def _cast(vocab: _Vocabulary, rnd: random.Random, lex: _Lexicon, movie_index: int,
          cast: int, dialogues: tuple[int, int]) -> list[_Character]:
    """``cast`` kept characters plus one below the dialogue threshold.

    Of the kept ones, a tenth (at least one) has no metadata row and the
    rest split 2:3 female:male; in every fourth movie one gendered
    character, alternately male and female, never says an emotion word.
    Each gender group's dialogue counts are spread evenly over the range
    and shuffled within the group, so the seed does not change how many
    dialogues each gender speaks.
    """
    unknown = max(1, cast // 10)
    female = (cast - unknown) * 2 // 5
    groups = {"unknown": unknown, "female": female, "male": cast - unknown - female}
    plan = []
    for gender, size in groups.items():
        counts = _spread(*dialogues, size)
        rnd.shuffle(counts)
        plan += [(gender, "kept", count) for count in counts]
    if movie_index % 4 == 0:
        silent = len(plan) - 1 if movie_index % 8 == 0 else unknown + female - 1
        plan[silent] = (plan[silent][0], "no_affect", plan[silent][2])
    plan.append((("female", "male")[movie_index % 2], "below_min", 1 + movie_index % (MIN_DIALOGUES - 1)))
    people = []
    for gender, role, count in plan:
        archetype = None if role == "no_affect" else rnd.randrange(len(ARCHETYPES))
        lines = [_dialogue(rnd, lex, gender, archetype, j == 0) for j in range(count)]
        people.append(_Character(vocab.name(), gender, role, lines))
    return people


def _script_blocks(rnd: random.Random, movie: str, people: list[_Character],
                   layout: Layout) -> list[tuple[str, int]]:
    """(text, offset) blocks in reading order; blank lines are the caller's business."""
    # A shuffled speaking order; each character's own lines keep their order.
    queue = [p for p in people for _ in p.dialogues]
    rnd.shuffle(queue)
    slots = {p.name: list(p.dialogues) for p in people}
    blocks = [(movie.replace("_", " ").upper(), layout.title)]
    scene = 0
    for i, person in enumerate(queue):
        if i % 6 == 0:
            scene += 1
            blocks.append((f"{rnd.choice(('INT.', 'EXT.'))} LOCATION {scene} - "
                           f"{rnd.choice(('DAY', 'NIGHT'))}", layout.action))
            blocks.append((f"Scene {scene} opens and the light changes slowly.", layout.action))
            if scene == 2:
                # Dialogue with no live cue before it: the parser discards it.
                blocks.append(("Nobody claims this stray line.", layout.dialogue))
            if scene % 3 == 0:
                blocks.append(("CUT TO:", layout.transition))
        text = slots[person.name].pop(0)
        cue = person.name + (rnd.choice(CUE_MARKERS) if rnd.random() < 0.15 else "")
        blocks.append((cue, layout.cue))
        if rnd.random() < 0.1:
            blocks.append((rnd.choice(PARENTHETICALS), layout.dialogue))
        wrapped = _wrap(text)
        for j, line in enumerate(wrapped):
            blocks.append((line, layout.dialogue))
            if j + 1 < len(wrapped) and rnd.random() < 0.05:
                blocks.append((rnd.choice(PARENTHETICALS), layout.dialogue))
        if rnd.random() < 0.2:
            blocks.append((f"{person.name.title()} turns toward the window.", layout.action))
    return blocks


def _write_text(path: Path, blocks: list[tuple[str, int]]) -> None:
    lines = []
    for text, left in blocks:
        lines.append(" " * left + text)
        lines.append("")
    path.write_text("\n".join(lines), encoding="utf-8")


def _write_jsonl(path: Path, blocks: list[tuple[str, int]]) -> None:
    lines = [
        json.dumps({"text": text, "left": left, "top": 40 + 18 * i})
        for i, (text, left) in enumerate(blocks)
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def generate(root: Path, seed: int, movies: int, cast: int, dialogues: tuple[int, int]) -> dict:
    """Write the inputs and ``truth.json`` under ``root``; return the truth."""
    rnd = random.Random(seed)
    vocab = _Vocabulary(rnd)
    lex = _build_lexicon(vocab, rnd)
    scripts = root / "scripts"
    scripts.mkdir(parents=True, exist_ok=True)
    (root / "lexicon.tsv").write_text("\n".join(lex.rows) + "\n", encoding="utf-8")

    n_jsonl = round(movies * JSONL_SHARE)
    meta_rows = ["movie,character,gender,year"]
    characters: dict[str, dict[str, list[str]]] = {}
    genders: dict[str, dict[str, str]] = {}
    no_affect: list[list[str]] = []
    for m in range(movies):
        movie = f"movie_{m:03d}"
        year = 1950 + rnd.randint(0, 70)
        people = _cast(vocab, rnd, lex, m, cast, dialogues)
        positional = m < n_jsonl
        layout = rnd.choice(PIXEL_LAYOUTS if positional else TEXT_LAYOUTS)
        blocks = _script_blocks(rnd, movie, people, layout)
        if positional:
            _write_jsonl(scripts / f"{movie}.jsonl", blocks)
        else:
            _write_text(scripts / f"{movie}.txt", blocks)
        for p in people:
            if p.gender != "unknown":
                written = p.name.lower() if rnd.random() < 0.1 else p.name
                meta_rows.append(f"{movie},{written},{p.gender},{year}")
        kept = sorted((p for p in people if p.role != "below_min"), key=lambda p: p.name)
        characters[movie] = {p.name: p.dialogues for p in kept}
        genders[movie] = {p.name: p.gender for p in kept}
        no_affect += [[movie, p.name] for p in kept if p.role == "no_affect"]
    header, rows = meta_rows[0], meta_rows[1:]
    rnd.shuffle(rows)
    (root / "metadata.csv").write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")

    flat = [g for movie in genders.values() for g in movie.values()]
    truth = {
        "characters": characters,
        "genders": genders,
        "no_affect": sorted(no_affect),
        "summary": {
            "movies": movies,
            "characters": len(flat),
            "dialogues": sum(len(d) for movie in characters.values() for d in movie.values()),
            "female": flat.count("female"),
            "male": flat.count("male"),
            "unknown": flat.count("unknown"),
        },
        "private_nouns": {"female": list(FEMALE_NOUNS), "male": list(MALE_NOUNS)},
    }
    (root / "truth.json").write_text(json.dumps(truth, indent=1) + "\n", encoding="utf-8")
    return truth


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", type=Path)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--movies", type=int, default=4)
    parser.add_argument("--cast", type=int, default=6)
    parser.add_argument("--dialogues", type=int, nargs=2, default=(5, 12))
    args = parser.parse_args()
    summary = generate(args.root, args.seed, args.movies, args.cast, tuple(args.dialogues))["summary"]
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
