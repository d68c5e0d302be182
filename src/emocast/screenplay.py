"""Indentation-driven screenplay parsing.

Movie scripts lay out their structural blocks at distinct left offsets:
scene descriptions hug the left margin, dialogue sits further in, and the
speaker cue above each dialogue is indented deepest and written in capitals.
This module turns a script (plain text, or JSON-lines blocks carrying pixel
offsets extracted from a positional source) into classified blocks and then
into a per-character dialogue dictionary.

Two input modes share the same downstream path:

* plain text: one ``RawBlock`` per non-blank physical line, ``left`` equal to
  the count of leading spaces (tabs expanded to 8-column stops);
* positional: one JSON object per line, ``{"text", "left", "top"}``, already
  ordered by reading position, with ``left`` in pixels.

Classification tolerates a small wobble around each profile offset because
real scripts centre cues raggedly: +/-2 columns in text mode, +/-8 px in
positional mode.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass
from enum import Enum, auto
from pathlib import Path

from .errors import CharacterNameError, ProfileError

# Per-character dialogue store: normalized name -> ordered dialogues.
CharacterDictionary = dict[str, list[str]]

TEXT_TOLERANCE = 2
POSITIONAL_TOLERANCE = 8

_PAREN_GROUP_RE = re.compile(r"\([^()]*\)")
_WS_RUN_RE = re.compile(r"\s+")
_SLUG_PREFIXES = ("INT.", "EXT.", "INT/", "EXT/", "I/E.")


class BlockKind(Enum):
    SCENE_HEADING = auto()
    ACTION = auto()
    CHARACTER_CUE = auto()
    DIALOGUE = auto()
    PARENTHETICAL = auto()
    OTHER = auto()


@dataclass(frozen=True)
class RawBlock:
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
        if not text:
            continue
        left = len(line) - len(line.lstrip(" "))
        blocks.append(RawBlock(text=text, left=left, order=i))
    return blocks


def load_positional_blocks(source: str) -> list[RawBlock]:
    """Parse JSON-lines blocks ({"text", "left", "top"}) in reading order."""
    blocks = []
    for i, line in enumerate(source.splitlines()):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            text = str(obj["text"]).strip()
            left = int(obj["left"])
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"bad positional block on line {i + 1}: {exc}") from exc
        if left < 0:
            raise ValueError(f"bad positional block on line {i + 1}: negative left offset")
        if not text:
            continue
        blocks.append(RawBlock(text=text, left=left, order=i))
    return blocks


def infer_indent_profile(blocks: list[RawBlock], tolerance: int = TEXT_TOLERANCE) -> IndentProfile:
    """Pick the three most populated offset levels as action/dialogue/cue.

    Offsets are first grouped into levels: the most frequent offset not yet
    grouped takes every ungrouped offset within ``tolerance`` of it, so
    jittered copies of one level count together. Each level sits at the
    centre of its offsets' span (rounded down), which keeps every grouped
    offset within ``tolerance`` of it for ``classify_blocks``. Frequency
    ties, both when seeding groups and when ranking levels, go to the
    smaller offset so the result is deterministic. Raises ProfileError
    when fewer than three levels occur.
    """
    if not blocks:
        raise ProfileError("no blocks to profile")
    counts = Counter(b.left for b in blocks)
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


def _is_all_caps(text: str) -> bool:
    return text.isupper()


def _is_parenthetical(text: str) -> bool:
    return text.startswith("(") and text.endswith(")")


def _is_slugline(text: str) -> bool:
    return text.upper().startswith(_SLUG_PREFIXES)


def classify_blocks(
    blocks: list[RawBlock],
    profile: IndentProfile,
    tolerance: int = TEXT_TOLERANCE,
) -> list[tuple[RawBlock, BlockKind]]:
    """Assign exactly one BlockKind to every block.

    A block matches a profile level when its left offset is within
    ``tolerance`` of it. Cue candidates must additionally be all-caps, which
    rejects centred transitions sharing the cue offset. Blocks matching no
    level become OTHER.
    """
    classified = []
    for b in blocks:
        if abs(b.left - profile.cue_indent) <= tolerance and _is_all_caps(b.text):
            kind = BlockKind.CHARACTER_CUE
        elif abs(b.left - profile.dialogue_indent) <= tolerance:
            kind = BlockKind.PARENTHETICAL if _is_parenthetical(b.text) else BlockKind.DIALOGUE
        elif abs(b.left - profile.action_indent) <= tolerance:
            kind = BlockKind.SCENE_HEADING if _is_slugline(b.text) else BlockKind.ACTION
        else:
            kind = BlockKind.OTHER
        classified.append((b, kind))
    return classified


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
    classified: list[tuple[RawBlock, BlockKind]],
) -> CharacterDictionary:
    """Collect dialogue runs under their preceding character cue.

    Consecutive DIALOGUE blocks form one dialogue, joined with single
    spaces. PARENTHETICAL blocks inside a run are dropped without breaking
    it. Any other kind ends the run, and dialogue with no live cue before
    it is discarded.
    """
    entries: CharacterDictionary = {}
    current: str | None = None
    run: list[str] = []

    def flush() -> None:
        nonlocal run
        if current is not None and run:
            entries.setdefault(current, []).append(" ".join(run))
        run = []

    for block, kind in classified:
        if kind is BlockKind.CHARACTER_CUE:
            flush()
            try:
                current = normalize_character_name(block.text)
            except CharacterNameError:
                current = None
        elif kind is BlockKind.DIALOGUE:
            if current is not None and block.text:
                run.append(block.text)
        elif kind is BlockKind.PARENTHETICAL:
            continue
        else:
            flush()
            current = None
    flush()
    return entries


def filter_min_dialogues(entries: CharacterDictionary, threshold: int = 5) -> CharacterDictionary:
    """Keep characters with at least ``threshold`` dialogues."""
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    return {name: dialogues for name, dialogues in entries.items() if len(dialogues) >= threshold}


def parse_script(path: str | Path) -> CharacterDictionary:
    """Parse one script file end to end into its character dictionary.

    A .jsonl or .json file holds positional blocks; any other file is text.
    """
    path = Path(path)
    source = path.read_text(encoding="utf-8")
    if path.suffix.lower() in (".jsonl", ".json"):
        blocks = load_positional_blocks(source)
        tolerance = POSITIONAL_TOLERANCE
    else:
        blocks = load_text_blocks(source)
        tolerance = TEXT_TOLERANCE
    profile = infer_indent_profile(blocks, tolerance)
    return build_character_dictionary(classify_blocks(blocks, profile, tolerance))

