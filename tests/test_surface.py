"""Tokenization and the 14-feature surface vector."""

import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from editfx.cli import _from_file
from editfx.store import PromptState
from editfx.surface import (
    _TOKEN,
    FEATURE_ORDER,
    NON_CANON_FEATURES,
    WordLists,
    compression_ratio,
    default_wordlists,
    extract,
    letter_counts,
    sentence_count,
    tokenize,
)

from conftest import tokenize_with_offsets
from oracles import pattern_tokens

FIXTURES = Path(__file__).parent / "fixtures"


def char_loop_tokens(text):
    # The former per-character scanner, kept as the oracle for the token
    # pattern: whitespace runs with non-alphanumeric edges stripped.
    out = []
    pos = 0
    n = len(text)
    while pos < n:
        while pos < n and text[pos].isspace():
            pos += 1
        if pos >= n:
            break
        chunk_start = pos
        while pos < n and not text[pos].isspace():
            pos += 1
        start, end = chunk_start, pos
        while start < end and not text[start].isalnum():
            start += 1
        while end > start and not text[end - 1].isalnum():
            end -= 1
        if end > start:
            out.append((text[start:end].lower(), start, end))
    return out


# Characters where a whitespace or alphanumeric rule could slip: Unicode
# spaces and separators, the underscore (a regex word character that is
# not alphanumeric), combining marks, non-ASCII digits and numerals, and
# letters whose lowercase changes length or depends on context.
TRICKY_CHARS = (
    " \t\n\r\x0b\x0c\x1c\x1f\x85\xa0\u1680\u2028\u3000\u200b"
    "_-'.,!?()\u0301\u00b2\u00bd\u0663\u2167\u0130\u03a3\u00df\uff21"
)
token_text_st = st.text(
    alphabet=st.one_of(st.sampled_from(TRICKY_CHARS), st.characters()), max_size=200
)


def uppercase_ratio_oracle(text):
    # The former list-building count, kept as the oracle for letter_counts.
    letters = [c for c in text if c.isalpha()]
    return sum(1 for c in letters if c.isupper()) / len(letters) if letters else 0.0


# Ⓐ is uppercase but not a letter; ǅ, ᾈ and ῼ are titlecase letters,
# neither upper nor lower; ª is a letter with no case.
CASE_TRICKY_CHARS = "AZaz@[`{\u24b6\u24d0\u01c5\u1f88\u1ffc\u00aa\u00c0\u00df\u0130\u2167\uff21 1_"


def vec(text, demos=0, lists=None):
    state = PromptState(instruction_text=text, demos=tuple({} for _ in range(demos)))
    return extract(state, lists)


class TestTokenize:
    def test_punctuation_stripped_and_lowercased(self):
        assert tokenize("Solve, the problem!") == ["solve", "the", "problem"]

    def test_empty(self):
        assert tokenize("") == []
        assert tokenize("   \t\n") == []

    def test_internal_hyphen_kept(self):
        assert tokenize("step-by-step") == ["step-by-step"]

    def test_pure_punctuation_dropped(self):
        assert tokenize("... --- ???") == []

    def test_wrapping_quotes_stripped(self):
        assert tokenize("'quoted' \"words\" (here)") == ["quoted", "words", "here"]

    def test_digits_kept(self):
        assert tokenize("answer 42.") == ["answer", "42"]

    def test_offsets_slice_back_to_token(self):
        text = "  Solve, the  (problem)!  "
        for token, start, end in tokenize_with_offsets(text):
            assert text[start:end].lower() == token

    def test_offsets_agree_with_tokenize(self):
        text = "First 1. step\nthen, VERIFY -- the answer?"
        assert [t for t, _, _ in tokenize_with_offsets(text)] == tokenize(text)

    def test_pattern_classes_match_str_predicates_on_every_code_point(self):
        every = "".join(map(chr, range(0x110000)))
        spaces = [m.start() for m in re.finditer(r"\s", every)]
        alnums = [m.start() for m in re.finditer(r"[^\W_]", every)]
        assert spaces == [k for k, c in enumerate(every) if c.isspace()]
        assert alnums == [k for k, c in enumerate(every) if c.isalnum()]

    @given(token_text_st)
    @settings(max_examples=500, deadline=None)
    def test_pattern_matches_char_loop_oracle(self, text):
        expected = char_loop_tokens(text)
        assert tokenize_with_offsets(text) == expected
        assert tokenize(text) == [token for token, _, _ in expected]

    def test_tokens_are_lowered_after_the_scan(self):
        # "\u0130".lower() is "i\u0307", and U+0307 is not alphanumeric:
        # lowering the text first would trim it off the token.
        assert tokenize("\u0130 Xy") == ["i\u0307", "xy"]
        assert _TOKEN.findall("\u0130 Xy".lower()) == ["i", "xy"]

    @given(token_text_st, token_text_st)
    @settings(max_examples=300, deadline=None)
    def test_no_token_crosses_a_blank_line(self, a, b):
        assert tokenize(a + "\n\n" + b) == tokenize(a) + tokenize(b)

    @given(st.text(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_tokens_nonempty_lowercase_alnum_edges(self, text):
        for token in tokenize(text):
            assert token
            assert token == token.lower()
            assert token[0].isalnum() and token[-1].isalnum()


# ASCII characters where split, strip or lowercasing could part from the
# pattern: every whitespace, the edges of the alphanumeric ranges, and
# punctuation.
ASCII_TRICKY = " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x00\x7f_-'.,!?()09AZaz@[`{/:"
ascii_text_st = st.text(
    alphabet=st.one_of(st.sampled_from(ASCII_TRICKY), st.characters(max_codepoint=127)),
    max_size=200,
)


class TestAsciiTokenize:
    """The str.split path for ASCII text gives the pattern's tokens."""

    def test_every_ascii_code_point(self):
        # Each code point alone, between two words, and at a word's edges.
        texts = [
            text
            for char in map(chr, range(128))
            for text in (
                char,
                f"ab{char}cd",
                f"Ab {char} Cd",
                f"{char}Word",
                f"Word{char}",
                f"{char}Wo{char}rd{char}",
                f"{char}{char} x{char}{char}Y {char}",
            )
        ]
        assert [t for t in texts if tokenize(t) != pattern_tokens(t)] == []

    @given(ascii_text_st)
    @settings(max_examples=1000, deadline=None)
    def test_ascii_text_matches_the_pattern(self, text):
        assert text.isascii()
        assert tokenize(text) == pattern_tokens(text)

    @pytest.mark.parametrize(
        "text",
        [
            "\u0130stanbul Xy",
            "Stra\u00dfe, STRASSE",
            "a\u00a0b c",
            "\uff11\uff12\uff13. \uff21bc",
            "caf\u00e9\u0301 na\u00efve",
            "word\u2028word \u3000(\u03a3\u0399\u03a3)",
        ],
    )
    def test_non_ascii_text_keeps_the_pattern(self, text):
        assert not text.isascii()
        assert tokenize(text) == pattern_tokens(text)

    def test_non_ascii_space_and_digits(self):
        # U+00A0 is whitespace to the pattern; full-width digits are
        # alphanumeric; "\u0130" is lowered after the scan.
        assert tokenize("a\u00a0b") == ["a", "b"]
        assert tokenize("(\uff11\uff12)") == ["\uff11\uff12"]
        assert tokenize("\u0130!") == ["i\u0307"]


class TestFeatures:
    def test_schema_fixed(self):
        v = vec("anything")
        assert tuple(v) == FEATURE_ORDER
        assert set(NON_CANON_FEATURES) < set(FEATURE_ORDER)

    def test_empty_text_all_zero(self):
        v = vec("")
        assert all(value == 0.0 for value in v.values())

    def test_word_and_char_count(self):
        v = vec("Solve the problem.")
        assert v["word_count"] == 3
        assert v["char_count"] == len("Solve the problem.")

    def test_type_token_ratio(self):
        assert vec("the cat the")["type_token_ratio"] == pytest.approx(2 / 3)
        assert vec("a b c")["type_token_ratio"] == 1.0

    def test_step_word_density(self):
        assert vec("First compute then verify")["step_word_density"] == pytest.approx(0.5)

    def test_reasoning_and_metacog_density(self):
        v = vec("think because table verify")
        assert v["reasoning_word_density"] == pytest.approx(0.5)
        assert v["metacog_word_density"] == pytest.approx(0.25)

    def test_imperative_density(self):
        assert vec("solve and explain this")["imperative_density"] == pytest.approx(0.5)

    def test_n_demos_counts_entries(self):
        assert vec("x", demos=3)["n_demos"] == 3

    def test_sentence_count_rules(self):
        assert sentence_count("One. Two! Three?") == 3
        assert sentence_count("no terminator") == 1
        assert sentence_count("Trailing. ") == 1
        assert sentence_count("... !!! ???") == 0
        assert sentence_count("") == 0

    def test_numbered_list_presence(self):
        assert vec("1. first item")["numbered_list_presence"] == 1.0
        assert vec("intro\n12) later line")["numbered_list_presence"] == 1.0
        assert vec("version 1.2 here")["numbered_list_presence"] == 0.0
        assert vec("1.no space")["numbered_list_presence"] == 0.0

    def test_question_count(self):
        assert vec("Is it true? Really?")["question_count"] == 2

    def test_uppercase_ratio_letters_only(self):
        assert vec("AB cd 123 !!")["uppercase_ratio"] == pytest.approx(0.5)
        assert vec("123 456")["uppercase_ratio"] == 0.0

    def test_letter_counts_match_str_predicates_on_every_code_point(self):
        for code in range(0x110000):
            c = chr(code)
            expected = (1, int(c.isupper())) if c.isalpha() else (0, 0)
            assert letter_counts(c) == expected, hex(code)
        every = "".join(map(chr, range(0x110000)))
        letters, upper = letter_counts(every)
        assert upper / letters == uppercase_ratio_oracle(every)

    def test_uppercase_ratio_tricky_letters(self):
        assert vec("\u24b6\u24b6a")["uppercase_ratio"] == 0.0
        assert vec("\u01c5A")["uppercase_ratio"] == 0.5
        assert vec("\u01c5\u1f88\u1ffc")["uppercase_ratio"] == 0.0
        assert vec("A\u00aa\u00df")["uppercase_ratio"] == pytest.approx(1 / 3)

    @given(
        st.text(
            alphabet=st.one_of(st.sampled_from(CASE_TRICKY_CHARS), st.characters()),
            max_size=300,
        )
    )
    @settings(max_examples=300, deadline=None)
    @example("\ud800")
    def test_uppercase_ratio_matches_list_oracle(self, text):
        assert vec(text)["uppercase_ratio"] == uppercase_ratio_oracle(text)
        assert vec(text.encode("ascii", "ignore").decode())["uppercase_ratio"] == (
            uppercase_ratio_oracle(text.encode("ascii", "ignore").decode())
        )

    def test_avg_word_length(self):
        assert vec("ab cdef")["avg_word_length"] == pytest.approx(3.0)

    def test_compression_ratio_bounds(self):
        assert compression_ratio("") == 0.0
        assert compression_ratio("a" * 10000) < 0.05
        assert compression_ratio("x") > 0.0

    def test_values_in_documented_ranges(self):
        v = vec("Solve 1. the PROBLEM? First think then verify because!")
        for name in ("type_token_ratio", "step_word_density", "reasoning_word_density",
                     "metacog_word_density", "imperative_density", "uppercase_ratio"):
            assert 0.0 <= v[name] <= 1.0
        assert v["numbered_list_presence"] in (0.0, 1.0)
        assert v["compression_ratio"] > 0.0

    @given(st.text(max_size=300), st.integers(min_value=0, max_value=5))
    @settings(max_examples=150, deadline=None)
    def test_extract_total_and_consistent(self, text, demos):
        v = vec(text, demos=demos)
        assert tuple(v) == FEATURE_ORDER
        assert all(math.isfinite(x) for x in v.values())
        assert v["word_count"] == len(tokenize(text))
        assert v["n_demos"] == demos
        assert v["type_token_ratio"] <= 1.0

    @given(token_text_st, st.integers(min_value=0, max_value=3))
    @settings(max_examples=200, deadline=None)
    def test_given_tokens_give_the_same_vector(self, text, demos):
        state = PromptState(instruction_text=text, demos=tuple({} for _ in range(demos)))
        assert extract(state, tokens=tokenize(text)) == extract(state)


class TestWordLists:
    def test_bundled_lists_match_frozen_seeds(self):
        lists = default_wordlists()
        assert lists.step_words == frozenset(
            ["step", "first", "second", "third", "then", "next", "finally"]
        )
        assert lists.reasoning_words == frozenset(
            ["reason", "reasoning", "think", "because", "therefore", "thus",
             "logic", "logically"]
        )
        assert lists.metacog_words == frozenset(
            ["reflect", "verify", "check", "reconsider", "monitor", "evaluate"]
        )
        assert lists.version == "1.0"
        assert len(lists.content_hash) == 64

    def test_rejects_non_lowercase_entries(self):
        with pytest.raises(ValueError, match="lowercase"):
            WordLists.from_json({"step_words": ["Step"]})
        with pytest.raises(ValueError):
            WordLists.from_json({"metacog_words": [""]})

    @pytest.mark.parametrize("value", ["first", ["first", 1], {"first": 1}])
    def test_rejects_lists_that_are_not_lists_of_strings(self, value):
        with pytest.raises(ValueError, match="step_words must be a list of strings"):
            WordLists.from_json({"step_words": value})

    def test_override_file_load(self, tmp_path):
        path = tmp_path / "lists.json"
        path.write_text(json.dumps({"version": "x", "step_words": ["foo"]}), "utf-8")
        lists = _from_file(str(path), "word-list file", WordLists.from_json)
        assert lists.step_words == frozenset(["foo"])
        assert vec("foo bar", lists=lists)["step_word_density"] == pytest.approx(0.5)

    def test_hash_tracks_content(self):
        a = WordLists.from_json({"step_words": ["a"]})
        b = WordLists.from_json({"step_words": ["b"]})
        assert a.content_hash != b.content_hash


def test_golden_fixture_byte_identical():
    """Recomputing every committed vector reproduces the fixture file exactly."""
    path = FIXTURES / "surface_golden.json"
    doc = json.loads(path.read_text("utf-8"))
    assert len(doc["prompts"]) == 200
    recomputed = []
    for prompt in doc["prompts"]:
        state = PromptState(
            instruction_text=prompt["instruction_text"],
            demos=tuple({} for _ in range(prompt["n_demos"])),
        )
        recomputed.append(extract(state))
    rebuilt = json.dumps(
        {"prompts": doc["prompts"], "vectors": recomputed},
        indent=2, sort_keys=True, ensure_ascii=False,
    ) + "\n"
    assert rebuilt.encode("utf-8") == path.read_bytes()
