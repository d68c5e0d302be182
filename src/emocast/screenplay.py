"""Indentation-driven screenplay parsing.

Movie scripts lay out their structural blocks at distinct left offsets:
scene descriptions hug the left margin, dialogue sits further in, and the
speaker cue above each dialogue is indented deepest and written in capitals.
This module turns a script (plain text, or JSON-lines blocks carrying pixel
offsets extracted from a positional source) into ``RawBlock`` tuples, infers
the three indent levels from their offsets, and then makes one pass that
classifies each block and collects the dialogue runs into a per-character
dialogue dictionary.

Two input modes share the same downstream path:

* plain text: one ``RawBlock`` per non-blank line as ``str.splitlines``
  cuts it, ``left`` equal to the count of leading spaces (tabs expanded to
  8-column stops);
* positional: one JSON object per line, ``{"text", "left", "top"}``, already
  ordered by reading position, with ``left`` in pixels. Lines end only at
  "\\r\\n", "\\r" and "\\n", the breaks JSON never leaves raw inside a
  string, so a text holding U+2028, U+2029 or U+0085 stays one record.

Classification tolerates a small wobble around each profile offset because
real scripts centre cues raggedly: +/-2 columns in text mode, +/-8 px in
positional mode. A script file that is not UTF-8 raises InputEncodingError
naming the line.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from .errors import CharacterNameError, ProfileError, read_utf8

# Per-character dialogue store: normalized name -> ordered dialogues.
CharacterDictionary = dict[str, list[str]]

TEXT_TOLERANCE = 2
POSITIONAL_TOLERANCE = 8

_PAREN_GROUP_RE = re.compile(r"\([^()]*\)")
_WS_RUN_RE = re.compile(r"\s+")
_DECODER = json.JSONDecoder()


class RawBlock(NamedTuple):
    """One positioned text block: a physical line or extracted element."""

    text: str
    left: int
    order: int


@dataclass(frozen=True)
class IndentProfile:
    """The three dominant left offsets of a script, ascending."""

    action_indent: int
    dialogue_indent: int
    cue_indent: int

    def __post_init__(self) -> None:
        if not self.action_indent < self.dialogue_indent < self.cue_indent:
            raise ProfileError(
                f"indent profile not strictly increasing: "
                f"{self.action_indent}, {self.dialogue_indent}, {self.cue_indent}"
            )


def load_text_blocks(source: str) -> list[RawBlock]:
    """Split plain script text into blocks, one per non-blank line."""
    blocks = []
    for i, line in enumerate(source.splitlines()):
        line = line.expandtabs()
        text = line.strip()
        if text:
            blocks.append(RawBlock(text, len(line) - len(line.lstrip(" ")), i))
    return blocks


def _decode_record(line: str) -> object:
    """``json.loads(line)``: ``raw_decode`` for a record that fills its line,
    ``json.loads`` itself for padding it allows or the error it raises."""
    try:
        obj, end = _DECODER.raw_decode(line)
    except json.JSONDecodeError:
        return json.loads(line)
    return obj if end == len(line) else json.loads(line)


def load_positional_blocks(source: str) -> list[RawBlock]:
    """Parse JSON-lines blocks ({"text", "left", "top"}) in reading order.

    Records end only at "\\r\\n", "\\r" or "\\n", the three line breaks JSON
    forbids raw inside a string; a record whose text holds U+2028, U+2029
    or U+0085 stays whole. Line numbers count those breaks. ``text`` must be
    a JSON string and ``left`` a JSON number; a fractional offset truncates.
    """
    blocks = []
    for i, line in enumerate(source.replace("\r\n", "\n").replace("\r", "\n").split("\n")):
        if not line.strip():
            continue
        try:
            obj = _decode_record(line)
            text, left = obj["text"], int(obj["left"])
            if not isinstance(text, str) or isinstance(obj["left"], (bool, str)):
                raise TypeError("'text' must be a JSON string and 'left' a JSON number")
            text = text.strip()
            text.encode("utf-8")  # rejects a lone surrogate escape such as "\udc80"
        except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
            raise ValueError(f"line {i + 1}: bad positional block: {exc}") from exc
        if left < 0:
            raise ValueError(f"line {i + 1}: bad positional block: negative left offset")
        if text:
            blocks.append(RawBlock(text, left, i))
    return blocks


def infer_indent_profile(blocks: list[RawBlock], tolerance: int = TEXT_TOLERANCE) -> IndentProfile:
    """Pick the three most populated offset levels as action/dialogue/cue.

    Only the blocks' offsets are read. They are first grouped into levels:
    the most frequent offset not yet grouped takes every ungrouped offset
    within ``tolerance`` of it, so jittered copies of one level count
    together. Each level sits at the centre of its offsets' span (rounded
    down), which keeps every grouped offset within ``tolerance`` of it for
    ``build_character_dictionary``. Frequency ties, both when seeding groups
    and when ranking levels, go to the smaller offset so the result is
    deterministic. Raises ProfileError when fewer than three levels occur.
    """
    if not blocks:
        raise ProfileError("no blocks to profile")
    counts = Counter(left for _, left, _ in blocks)
    ungrouped = set(counts)
    levels = []  # (blocks in the level, level offset)
    for seed, _ in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
        if seed not in ungrouped:
            continue
        members = sorted(left for left in ungrouped if abs(left - seed) <= tolerance)
        ungrouped.difference_update(members)
        levels.append((sum(counts[left] for left in members), (members[0] + members[-1]) // 2))
    if len(levels) < 3:
        raise ProfileError(
            f"need at least 3 distinct left offset levels (within {tolerance} grouped), "
            f"found {len(levels)}"
        )
    top3 = sorted(levels, key=lambda level: (-level[0], level[1]))[:3]
    action, dialogue, cue = sorted(left for _, left in top3)
    return IndentProfile(action, dialogue, cue)


def normalize_character_name(raw: str) -> str:
    """Uppercase a cue and strip delivery markers such as (V.O.) or (O.S.).

    Every parenthesized group is removed, whitespace runs collapse to a
    single space, and the result is trimmed. Raises CharacterNameError when
    nothing remains.
    """
    if not raw:
        raise CharacterNameError("empty character name")
    name = _PAREN_GROUP_RE.sub(" ", raw)
    name = _WS_RUN_RE.sub(" ", name).strip().upper()
    if not name:
        raise CharacterNameError(f"nothing left of character name {raw!r}")
    return name


def build_character_dictionary(
    blocks: list[RawBlock],
    profile: IndentProfile,
    tolerance: int = TEXT_TOLERANCE,
) -> CharacterDictionary:
    """Classify each block by its offset and collect dialogue runs under
    their preceding character cue.

    A block is at a profile level when its left offset is within
    ``tolerance`` of it. At the cue level an all-caps block is a cue, which
    rejects centred transitions sharing the cue offset; its name is
    normalized, and a cue with nothing left of its name is no live cue.
    At the dialogue level a block wrapped in parentheses is a
    parenthetical; any other block is dialogue. Every other block (action,
    scene headings, a lowercase line at the cue level, an offset matching
    no level) ends the run and the live cue.

    Consecutive dialogue blocks form one dialogue, joined with single
    spaces. Parentheticals inside a run are dropped without breaking it,
    and dialogue with no live cue before it is discarded.
    """
    entries: CharacterDictionary = {}
    names: dict[str, str | None] = {}  # cue text -> normalized name, None if unusable
    current: str | None = None
    run: list[str] = []
    cue_lo, cue_hi = profile.cue_indent - tolerance, profile.cue_indent + tolerance
    dialogue_lo, dialogue_hi = profile.dialogue_indent - tolerance, profile.dialogue_indent + tolerance
    for text, left, _ in blocks:
        is_cue = cue_lo <= left <= cue_hi and text.isupper()
        if not is_cue and dialogue_lo <= left <= dialogue_hi:
            if current is not None and text and not (text[0] == "(" and text[-1] == ")"):
                run.append(text)
            continue
        if run:
            entries.setdefault(current, []).append(" ".join(run))
            run = []
        if not is_cue:
            current = None
            continue
        if text not in names:
            try:
                names[text] = normalize_character_name(text)
            except CharacterNameError:
                names[text] = None
        current = names[text]
    if run:
        entries.setdefault(current, []).append(" ".join(run))
    return entries


def filter_min_dialogues(entries: CharacterDictionary, threshold: int = 5) -> CharacterDictionary:
    """Keep characters with at least ``threshold`` dialogues."""
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    return {name: dialogues for name, dialogues in entries.items() if len(dialogues) >= threshold}


def parse_script(path: str | Path, source: str | None = None) -> CharacterDictionary:
    """Parse one script file end to end into its character dictionary.

    A .jsonl or .json file holds positional blocks; any other file is text.
    ``source`` is the file's text when the caller has read it already.
    """
    path = Path(path)
    source = read_utf8(path) if source is None else source
    if path.suffix.lower() in (".jsonl", ".json"):
        blocks = load_positional_blocks(source)
        tolerance = POSITIONAL_TOLERANCE
    else:
        blocks = load_text_blocks(source)
        tolerance = TEXT_TOLERANCE
    return build_character_dictionary(blocks, infer_indent_profile(blocks, tolerance), tolerance)

