import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from emocast.errors import CharacterNameError, ProfileError

from oracles import build_character_dictionary_reference, classify_blocks_reference
from emocast.screenplay import (
    IndentProfile,
    RawBlock,
    build_character_dictionary,
    filter_min_dialogues,
    infer_indent_profile,
    load_positional_blocks,
    load_text_blocks,
    normalize_character_name,
    parse_script,
)

PROFILE = IndentProfile(10, 25, 38)


def blocks_at(*lefts):
    return [RawBlock(text=f"line {i}", left=left, order=i) for i, left in enumerate(lefts)]


class TestInferIndentProfile:
    def test_three_dominant_offsets(self):
        blocks = blocks_at(*([10] * 120 + [25] * 80 + [38] * 40))
        assert infer_indent_profile(blocks) == IndentProfile(10, 25, 38)

    def test_single_offset_rejected(self):
        with pytest.raises(ProfileError):
            infer_indent_profile(blocks_at(*([10] * 7)))

    def test_rare_offset_ignored(self):
        blocks = blocks_at(*([10] * 50 + [25] * 50 + [38] * 50 + [30] * 2))
        assert infer_indent_profile(blocks) == IndentProfile(10, 25, 38)

    def test_empty_rejected(self):
        with pytest.raises(ProfileError):
            infer_indent_profile([])

    def test_jittered_offsets_group_into_levels(self):
        # raw counts would rank 250, 251 and 253 (all dialogue) as the top three
        lefts = [250] * 6 + [251] * 5 + [253] * 5 + [254] * 2 + [108] * 3 + [110] + [396] * 4
        assert infer_indent_profile(blocks_at(*lefts), tolerance=8) == IndentProfile(109, 252, 396)

    def test_offsets_within_tolerance_are_one_level(self):
        with pytest.raises(ProfileError):
            infer_indent_profile(blocks_at(*([10] * 5 + [11] * 5 + [12] * 5)))


def test_jittered_positional_script_parses_to_golden(fixtures_dir, tmp_path):
    golden = json.loads((fixtures_dir / "golden" / "characters.json").read_text())["glass_orchard"]
    lines = (fixtures_dir / "scripts" / "glass_orchard.jsonl").read_text().splitlines()
    blocks = [json.loads(line) for line in lines if line.strip()]
    rng = np.random.default_rng(5)
    copy = tmp_path / "jittered.jsonl"
    for _ in range(200):
        jittered = [{**b, "left": b["left"] + int(rng.integers(-2, 3))} for b in blocks]
        copy.write_text("".join(json.dumps(block) + "\n" for block in jittered))
        assert filter_min_dialogues(parse_script(copy)) == golden


class TestClassifyBlocks:
    """How build_character_dictionary classifies one block, read from its
    effect on a run: a live cue ZED has said "first." and says "last." after
    the probe block."""

    def classify_one(self, text, left, tolerance=2):
        blocks = [
            RawBlock("ZED", 38, 0), RawBlock("first.", 25, 1), RawBlock(text, left, 2), RawBlock("last.", 25, 3)
        ]
        out = build_character_dictionary(blocks, PROFILE, tolerance)
        effects = {
            "dialogue": {"ZED": [f"first. {text} last."]},
            "parenthetical": {"ZED": ["first. last."]},
            "ends run": {"ZED": ["first."]},
        }
        for kind, effect in effects.items():
            if out == effect:
                return kind
        assert out == {"ZED": ["first."], normalize_character_name(text): ["last."]}, out
        return "cue"

    def test_cue(self):
        assert self.classify_one("HARRY", 38) == "cue"

    def test_parenthetical(self):
        assert self.classify_one("(whispering)", 25) == "parenthetical"

    def test_scene_heading(self):
        assert self.classify_one("INT. CASTLE - NIGHT", 10) == "ends run"

    def test_dialogue(self):
        assert self.classify_one("I know.", 25) == "dialogue"

    def test_action(self):
        assert self.classify_one("Harry walks in.", 10) == "ends run"

    def test_lowercase_at_cue_indent_is_other(self):
        assert self.classify_one("fade out", 38) == "ends run"

    def test_unmatched_offset_is_other(self):
        assert self.classify_one("TITLE CARD", 18) == "ends run"

    def test_tolerance_window(self):
        assert self.classify_one("HARRY", 40) == "cue"
        assert self.classify_one("HARRY", 41) == "ends run"

    @given(
        st.lists(
            st.tuples(st.text(min_size=1, max_size=20), st.integers(0, 60)),
            max_size=40,
        )
    )
    def test_total_every_block_classified_once(self, spec):
        # one kind per block, by the rule of the classify-then-collect pair it replaced
        blocks = [RawBlock(text, left, i) for i, (text, left) in enumerate(spec)]
        out = build_character_dictionary(blocks, PROFILE)
        assert out == build_character_dictionary_reference(classify_blocks_reference(blocks, PROFILE))


class TestNormalizeCharacterName:
    def test_voice_over_stripped(self):
        assert normalize_character_name("HARRY (V.O.)") == "HARRY"

    def test_trim_only(self):
        assert normalize_character_name("RON ") == "RON"

    def test_nothing_left(self):
        with pytest.raises(CharacterNameError):
            normalize_character_name("(O.S.)")

    def test_contd_and_case(self):
        assert normalize_character_name("aunt marge (CONT'D)") == "AUNT MARGE"

    def test_inner_whitespace_collapsed(self):
        assert normalize_character_name("MAD  EYE   MOODY") == "MAD EYE MOODY"


def cue(name, order):
    return RawBlock(name, 38, order)


def dlg(text, order):
    return RawBlock(text, 25, order)


def par(text, order):
    return RawBlock(text, 25, order)


def act(text, order):
    return RawBlock(text, 10, order)


def build(blocks):
    return build_character_dictionary(blocks, PROFILE)


class TestBuildCharacterDictionary:
    def test_consecutive_dialogue_joined(self):
        out = build([cue("HARRY", 0), dlg("I know.", 1), dlg("Trust me.", 2)])
        assert out == {"HARRY": ["I know. Trust me."]}

    def test_parenthetical_dropped(self):
        out = build([cue("HARRY", 0), par("(quietly)", 1), dlg("Yes.", 2)])
        assert out == {"HARRY": ["Yes."]}

    def test_orphan_dialogue_discarded(self):
        assert build([dlg("orphan line", 0)]) == {}

    def test_action_breaks_attribution(self):
        out = build(
            [cue("HARRY", 0), dlg("Hello.", 1), act("A door slams.", 2), dlg("Orphaned.", 3)]
        )
        assert out == {"HARRY": ["Hello."]}

    def test_new_cue_starts_new_dialogue(self):
        out = build(
            [cue("HARRY", 0), dlg("One.", 1), cue("HARRY (V.O.)", 2), dlg("Two.", 3)]
        )
        assert out == {"HARRY": ["One.", "Two."]}

    def test_unusable_cue_orphans_following_dialogue(self):
        out = build([cue("(V.O.)", 0), dlg("Floating words.", 1)])
        assert out == {}

    @given(
        st.lists(
            st.one_of(
                st.tuples(st.just("cue"), st.text("ABCDEFGH", min_size=1, max_size=6)),
                st.tuples(st.just("dlg"), st.text("abcdefgh ", min_size=1, max_size=12)),
                st.tuples(st.just("act"), st.just("beat")),
            ),
            max_size=30,
        )
    )
    def test_keys_always_normalized(self, spec):
        makers = {"cue": cue, "dlg": dlg, "act": act}
        classified = [makers[kind](text, i) for i, (kind, text) in enumerate(spec)]
        out = build(classified)
        for key, dialogues in out.items():
            assert key == normalize_character_name(key)
            assert all(d for d in dialogues)


class TestFilterMinDialogues:
    def test_threshold_five(self):
        d = {"A": ["x"] * 5, "B": ["x"] * 4}
        assert filter_min_dialogues(d, 5) == {"A": ["x"] * 5}

    def test_threshold_zero_is_identity(self):
        d = {"A": ["x"], "B": []}
        assert filter_min_dialogues(d, 0) == d

    def test_empty(self):
        assert filter_min_dialogues({}, 5) == {}

    @given(
        st.dictionaries(
            st.text("ABC", min_size=1, max_size=3),
            st.lists(st.just("d"), max_size=8),
            max_size=6,
        ),
        st.integers(0, 9),
        st.integers(0, 9),
    )
    def test_monotone_in_threshold(self, d, t1, t2):
        lo, hi = min(t1, t2), max(t1, t2)
        kept_hi = filter_min_dialogues(d, hi)
        kept_lo = filter_min_dialogues(d, lo)
        assert set(kept_hi) <= set(kept_lo)


class TestLoaders:
    def test_text_mode_counts_leading_spaces(self):
        blocks = load_text_blocks("     INT. HALL\n\n          HARRY\n")
        assert [(b.text, b.left) for b in blocks] == [("INT. HALL", 5), ("HARRY", 10)]
        assert blocks[0].order < blocks[1].order

    def test_positional_mode(self):
        src = '{"text": "HARRY", "left": 396, "top": 40}\n{"text": "Hello.", "left": 252, "top": 58}\n'
        blocks = load_positional_blocks(src)
        assert [(b.text, b.left) for b in blocks] == [("HARRY", 396), ("Hello.", 252)]

    def test_positional_rejects_malformed(self):
        with pytest.raises(ValueError, match="line 1"):
            load_positional_blocks('{"text": "X"}\n')

    def test_orders_strictly_increase(self):
        blocks = load_text_blocks("a\n\nb\nc\n")
        orders = [b.order for b in blocks]
        assert orders == sorted(orders) and len(set(orders)) == len(orders)
