"""Word-level diff, inserted spans, and motif classification."""

import json
import tracemalloc
import warnings
from importlib import resources
from itertools import groupby, product
from operator import itemgetter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from editfx.cli import _from_file
from editfx.errors import ConfigError, SchemaError
from editfx.motifs import (
    MIN_SPAN_TOKENS,
    MOTIF_LABELS,
    EditRun,
    InsertedSpan,
    MotifRuleset,
    _common_run,
    _lcs_rows,
    audit_sample,
    classify,
    cooccurrence_matrix,
    default_ruleset,
    extract_spans,
    motif_treatments,
    record_motifs,
    word_diff,
)
from editfx.surface import tokenize

from conftest import make_record, tokenize_with_offsets
from oracles import apply_script, per_pattern_labels

FIXTURES = Path(__file__).parent / "fixtures"

def results_of(records):
    """Each record's diff by pair id, the shape PreparedCorpus.motif_results gives."""
    return {r.pair_id: record_motifs(r) for r in records}


AUDIT_SENTENCE = (
    "Make sure to articulate the reasoning process clearly, "
    "even if it doesn't require detailed breakdowns."
)


def lcs_length(a: list[str], b: list[str]) -> int:
    # independent forward DP, the minimality oracle for word_diff
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b):
            cur.append(prev[j] + 1 if x == y else max(prev[j + 1], cur[-1]))
        prev = cur
    return prev[-1]


def lcs_table_int32(before: list[str], after: list[str]) -> np.ndarray:
    # Suffix LCS lengths, table[i, j] = LCS(before[i:], after[j:]), from a
    # full int32 equality matrix: the reference for the bit rows.
    n, m = len(before), len(after)
    table = np.zeros((n + 1, m + 1), dtype=np.int32)
    if n == 0 or m == 0:
        return table
    vocab: dict[str, int] = {}
    b_ids = np.fromiter((vocab.setdefault(t, len(vocab)) for t in before), dtype=np.int64, count=n)
    a_ids = np.fromiter((vocab.setdefault(t, len(vocab)) for t in after), dtype=np.int64, count=m)
    eq = (b_ids[:, None] == a_ids[None, :]).astype(np.int32)
    for i in range(n - 1, -1, -1):
        nxt = table[i + 1]
        cand = np.maximum(nxt[:-1], nxt[1:] + eq[i])
        table[i, :-1] = np.maximum.accumulate(cand[::-1])[::-1]
    return table


def lengths_from_rows(before: list[str], after: list[str]) -> np.ndarray:
    # Every suffix length LCS(before[i:], after[j:]) read off the bit rows.
    rows = _lcs_rows(before, after)
    n, m = len(before), len(after)
    assert len(rows) == n + 1
    table = np.zeros((n + 1, m + 1), dtype=np.int32)
    for i in range(n + 1):
        for j in range(m + 1):
            k = m - j
            table[i, j] = k - (rows[i] & ((1 << k) - 1)).bit_count()
    return table


def coalesce(ops: list[tuple[str, str]]) -> list[EditRun]:
    # Per-token (op, token) pairs grouped into maximal runs.
    return [
        EditRun(op, tuple(token for _, token in group))
        for op, group in groupby(ops, key=itemgetter(0))
    ]


def offset_extract_spans(script: list[EditRun], after_text: str) -> list[InsertedSpan]:
    # The span extractor before it stopped at the last span: it scans the
    # whole after text with offsets, kept as the differential oracle.
    if not any(run.op == "insert" and len(run.tokens) >= MIN_SPAN_TOKENS for run in script):
        return []
    offsets = tokenize_with_offsets(after_text)
    spans: list[InsertedSpan] = []
    pos = 0
    for run in script:
        if run.op == "delete":
            continue
        if run.op == "insert" and len(run.tokens) >= MIN_SPAN_TOKENS:
            last = pos + len(run.tokens) - 1
            if last >= len(offsets):
                raise SchemaError("edit script does not align with after text")
            text = after_text[offsets[pos][1] : offsets[last][2]]
            spans.append(InsertedSpan(tokens=run.tokens, start_index=pos, text=text))
        pos += len(run.tokens)
    return spans


def table_word_diff(before_tokens: list[str], after_tokens: list[str]) -> list[EditRun]:
    # The uint16 suffix-table diff that the bit rows replaced, frozen as the
    # differential oracle: same prefix skip, same walk, same tie-breaking.
    ops: list[tuple[str, str]] = []
    i, j = 0, 0
    n, m = len(before_tokens), len(after_tokens)
    while i < n and j < m and before_tokens[i] == after_tokens[j]:
        ops.append(("keep", before_tokens[i]))
        i += 1
        j += 1
    before, after = before_tokens[i:], after_tokens[j:]
    rn, rm = len(before), len(after)
    table = np.zeros((rn + 1, rm + 1), dtype=np.min_scalar_type(min(rn, rm)))
    if rn and rm:
        vocab: dict[str, int] = {}
        b_ids = np.fromiter((vocab.setdefault(t, len(vocab)) for t in before), np.int64, rn)
        a_ids = np.fromiter((vocab.setdefault(t, len(vocab)) for t in after), np.int64, rm)
        for r in range(rn - 1, -1, -1):
            nxt = table[r + 1]
            cand = np.maximum(nxt[:-1], nxt[1:] + (a_ids == b_ids[r]))
            table[r, :-1] = np.maximum.accumulate(cand[::-1])[::-1]
    bi, bj = 0, 0
    while bi < rn or bj < rm:
        if bi < rn and bj < rm and before[bi] == after[bj]:
            ops.append(("keep", before[bi]))
            bi += 1
            bj += 1
        elif bi < rn and table[bi + 1, bj] == table[bi, bj]:
            ops.append(("delete", before[bi]))
            bi += 1
        else:
            ops.append(("insert", after[bj]))
            bj += 1
    return coalesce(ops)


@st.composite
def near_copies(draw):
    # A random prompt and an edited copy: substitutions, deletions and
    # inserted runs of MIN_SPAN_TOKENS or more tokens, so spans appear.
    words = st.sampled_from([f"w{k}" for k in range(draw(st.integers(1, 20)))])
    before = draw(st.lists(words, max_size=60))
    after = list(before)
    for _ in range(draw(st.integers(0, 6))):
        pos = draw(st.integers(0, len(after)))
        kind = draw(st.sampled_from(["insert", "delete", "substitute"]))
        if kind == "insert":
            run_words = st.one_of(words, st.sampled_from(["make", "sure", "to", "verify"]))
            after[pos:pos] = draw(st.lists(run_words, min_size=MIN_SPAN_TOKENS, max_size=9))
        elif kind == "delete":
            del after[pos : pos + draw(st.integers(1, 5))]
        elif pos < len(after):
            after[pos] = "sub"
    return before, after


@st.composite
def diff_pairs(draw):
    # A vocabulary of 2 to 20 words and a before text of 0 to 40 tokens;
    # half of the after texts are edited copies (substitutions, deletions
    # and inserted runs), the other half independent draws.
    words = [f"w{k}" for k in range(draw(st.integers(2, 20)))]
    before = draw(st.lists(st.sampled_from(words), max_size=40))
    if not draw(st.booleans()):
        return before, draw(st.lists(st.sampled_from(words), max_size=40))
    return before, edited_copy(draw, before, words)


def edited_copy(draw, before: list[str], words: list[str]) -> list[str]:
    after = list(before)
    for _ in range(draw(st.integers(0, 6))):
        pos = draw(st.integers(0, len(after)))
        kind = draw(st.sampled_from(["insert", "delete", "substitute"]))
        if kind == "insert":
            run_words = st.sampled_from([*words, "make", "sure", "to", "verify"])
            after[pos:pos] = draw(st.lists(run_words, min_size=1, max_size=9))
        elif kind == "delete":
            del after[pos : pos + draw(st.integers(1, 5))]
        elif pos < len(after):
            after[pos] = "sub"
    return after


@st.composite
def long_near_copies(draw):
    # Up to 2,000 tokens with a few edits, so spans sit far into the text.
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    words = [f"w{k}" for k in range(draw(st.integers(2, 20)))]
    n = draw(st.integers(0, 2000))
    before = [words[k] for k in rng.integers(len(words), size=n)]
    return before, edited_copy(draw, before, words)


def substituted_copy(n: int, seed: int) -> tuple[list[str], list[str]]:
    # An n-token prompt and its copy with one substitution every 97 tokens,
    # the first past a 5-token common prefix.
    rng = np.random.default_rng(seed)
    before = [f"w{k}" for k in rng.integers(200, size=n)]
    after = [f"sub{k}" if k % 97 == 5 else t for k, t in enumerate(before)]
    return before, after


def mkspan(text: str) -> InsertedSpan:
    return InsertedSpan(tokens=tuple(tokenize(text)), start_index=0, text=text)


tokens_st = st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), max_size=12)


class TestWordDiff:
    def test_identical_is_single_keep_run(self):
        script = word_diff(["a", "b", "c"], ["a", "b", "c"])
        assert script == [EditRun("keep", ("a", "b", "c"))]

    def test_pure_insert_and_delete(self):
        assert word_diff([], ["x", "y"]) == [EditRun("insert", ("x", "y"))]
        assert word_diff(["x", "y"], []) == [EditRun("delete", ("x", "y"))]
        assert word_diff([], []) == []

    def test_replacement_emits_delete_before_insert(self):
        script = word_diff(["x"], ["y"])
        assert script == [EditRun("delete", ("x",)), EditRun("insert", ("y",))]

    def test_earliest_match_tie_break(self):
        # both alignments of the trailing "a" are optimal; the earliest
        # match is fixed by keeping at the current position
        script = word_diff(["a", "b", "a"], ["a", "a"])
        assert script == [
            EditRun("keep", ("a",)),
            EditRun("delete", ("b",)),
            EditRun("keep", ("a",)),
        ]

    def test_middle_insertion(self):
        script = word_diff(["the", "cat"], ["the", "big", "red", "cat"])
        assert script == [
            EditRun("keep", ("the",)),
            EditRun("insert", ("big", "red")),
            EditRun("keep", ("cat",)),
        ]

    @given(before=tokens_st, after=tokens_st)
    @settings(max_examples=300, deadline=None)
    def test_reconstruction_property(self, before, after):
        script = word_diff(before, after)
        assert apply_script(script, before) == after

    @given(before=tokens_st, after=tokens_st)
    @settings(max_examples=300, deadline=None)
    def test_minimality_matches_lcs(self, before, after):
        script = word_diff(before, after)
        kept = sum(len(r.tokens) for r in script if r.op == "keep")
        edited = sum(len(r.tokens) for r in script if r.op != "keep")
        lcs = lcs_length(before, after)
        assert kept == lcs
        assert edited == len(before) + len(after) - 2 * lcs

    @given(before=tokens_st, after=tokens_st)
    @settings(max_examples=200, deadline=None)
    def test_runs_are_maximal(self, before, after):
        script = word_diff(before, after)
        for prev, nxt in zip(script, script[1:]):
            assert prev.op != nxt.op


class TestLcsTable:
    @given(before=tokens_st, after=tokens_st)
    @settings(max_examples=200, deadline=None)
    def test_small_inputs_match_int32_reference(self, before, after):
        assert np.array_equal(lengths_from_rows(before, after), lcs_table_int32(before, after))

    @pytest.mark.parametrize(
        "n, m, vocab",
        [
            (256, 256, 3),
            (300, 700, 8),
            (900, 257, 40),
            (260, 0, 5),
            (63, 63, 4),
            (64, 64, 4),
            (65, 65, 4),
            (64, 65, 2),
        ],
    )
    def test_long_inputs_match_int32_reference(self, n, m, vocab):
        rng = np.random.default_rng([n, m, vocab])
        before = [f"w{k}" for k in rng.integers(vocab, size=n)]
        after = [f"w{k}" for k in rng.integers(vocab, size=m)]
        assert np.array_equal(lengths_from_rows(before, after), lcs_table_int32(before, after))

    def test_word_diff_peak_memory_on_long_prompts(self):
        before, after = substituted_copy(3000, 3000)
        tracemalloc.start()
        try:
            script = word_diff(before, after)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert apply_script(script, before) == after
        assert peak < 24 * 2**20

    def test_word_diff_peak_memory_on_a_20k_token_pair(self):
        # 20,000 x 20,000 bits is about 48 MiB of rows; a uint16 suffix
        # table of the same pair would need about 760 MiB.
        before, after = substituted_copy(20_000, 20_000)
        tracemalloc.start()
        try:
            script = word_diff(before, after)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert apply_script(script, before) == after
        assert peak < 64 * 2**20


class TestTableOracle:
    @given(before=tokens_st, after=tokens_st)
    @settings(max_examples=300, deadline=None)
    def test_random_pairs_match_table_diff(self, before, after):
        assert word_diff(before, after) == table_word_diff(before, after)

    @given(pair=near_copies())
    @settings(max_examples=300, deadline=None)
    def test_near_copies_match_table_diff(self, pair):
        before, after = pair
        assert word_diff(before, after) == table_word_diff(before, after)

    @given(pair=diff_pairs())
    @settings(max_examples=1000, deadline=None)
    def test_generated_pairs_match_table_diff(self, pair):
        before, after = pair
        assert word_diff(before, after) == table_word_diff(before, after)

    def test_long_substituted_copy_matches_table_diff(self):
        before, after = substituted_copy(4000, 4000)
        # a 6-token insertion every 503 tokens, so the script has spans
        for pos in range(len(after) - 200, 0, -503):
            after[pos:pos] = ["make", "sure", "to", "verify", "it", "now"]
        script = word_diff(before, after)
        assert script == table_word_diff(before, after)
        assert sum(r.op == "insert" and len(r.tokens) >= MIN_SPAN_TOKENS for r in script) == 8


    @pytest.mark.parametrize("length", [1, 7, 8, 9, 23, 24, 25, 1000])
    def test_keep_runs_of_every_length_match_table_diff(self, length):
        # One common run, kept whole, around the chunk sizes it is measured
        # in; without a lead it is the common prefix. It ends at the end of
        # both sequences, of one, or of neither.
        for vocab, lead, ends in product([2, 1000], [False, True], ["both", "a", "b", "neither"]):
            run = [f"k{t % vocab}" for t in range(length)]
            before = (["b0", "k0"] if lead else []) + run + ([] if ends in ("both", "a") else ["k1"])
            after = (["a0"] if lead else []) + run + ([] if ends in ("both", "b") else ["a1", "k0"])
            script = word_diff(before, after)
            assert script == table_word_diff(before, after), (vocab, lead, ends)
            assert EditRun("keep", tuple(run)) in script

    @given(
        a=st.lists(st.sampled_from(["x", "y"]), max_size=70),
        b=st.lists(st.sampled_from(["x", "y"]), max_size=70),
        i=st.integers(0, 70),
        j=st.integers(0, 70),
    )
    @settings(max_examples=500, deadline=None)
    def test_common_run_matches_a_token_loop(self, a, b, i, j):
        k = 0
        while i + k < len(a) and j + k < len(b) and a[i + k] == b[j + k]:
            k += 1
        assert _common_run(a, i, b, j) == k


class TestSpanOracle:
    @given(pair=diff_pairs(), cut=st.integers(0, 6))
    @settings(max_examples=500, deadline=None)
    def test_spans_match_offset_scan(self, pair, cut):
        # The after text loses its last `cut` tokens, so some scripts no
        # longer align with it: both extractors must then raise.
        before, after = pair
        script = word_diff(before, after)
        text = " ".join(after[: len(after) - cut])
        try:
            expected = offset_extract_spans(script, text)
        except SchemaError:
            with pytest.raises(SchemaError):
                extract_spans(script, text)
        else:
            assert extract_spans(script, text) == expected

    @given(pair=long_near_copies())
    @settings(max_examples=50, deadline=None)
    def test_long_spans_match_offset_scan(self, pair):
        before, after = pair
        script = word_diff(before, after)
        text = "  ".join(token.upper() + "," for token in after)
        assert extract_spans(script, text) == offset_extract_spans(script, text)


class TestApplyScript:
    def test_round_trip(self):
        script = [
            EditRun("keep", ("a",)),
            EditRun("delete", ("b",)),
            EditRun("insert", ("c", "d")),
        ]
        assert apply_script(script, ["a", "b"]) == ["a", "c", "d"]

    def test_misaligned_keep_raises(self):
        with pytest.raises(SchemaError):
            apply_script([EditRun("keep", ("z",))], ["a"])

    def test_leftover_tokens_raise(self):
        with pytest.raises(SchemaError):
            apply_script([EditRun("keep", ("a",))], ["a", "b"])

    def test_unknown_op_raises(self):
        with pytest.raises(SchemaError):
            apply_script([EditRun("swap", ("a",))], ["a"])


class TestExtractSpans:
    def test_span_keeps_original_case_and_inner_punctuation(self):
        before = "alpha beta"
        after = "alpha Make Sure, To Verify beta"
        script = word_diff(tokenize(before), tokenize(after))
        spans = extract_spans(script, after)
        assert len(spans) == 1
        assert spans[0].text == "Make Sure, To Verify"
        assert spans[0].start_index == 1
        assert spans[0].tokens == ("make", "sure", "to", "verify")

    def test_short_runs_are_not_emitted(self):
        before = "alpha beta"
        after = "alpha one two three beta"
        script = word_diff(tokenize(before), tokenize(after))
        assert extract_spans(script, after) == []

    def test_multiple_spans_with_offsets(self):
        before = "a b"
        after = "w x y z a p q r s b"
        script = word_diff(tokenize(before), tokenize(after))
        spans = extract_spans(script, after)
        assert [s.start_index for s in spans] == [0, 5]
        assert spans[0].text == "w x y z"
        assert spans[1].text == "p q r s"

    def test_deletions_do_not_shift_offsets(self):
        before = "drop this alpha beta"
        after = "alpha Make sure to verify beta"
        script = word_diff(tokenize(before), tokenize(after))
        spans = extract_spans(script, after)
        assert len(spans) == 1
        assert spans[0].text == "Make sure to verify"
        assert spans[0].start_index == 1

    def test_misaligned_script_raises(self):
        script = [EditRun("insert", ("a", "b", "c", "d"))]
        with pytest.raises(SchemaError):
            extract_spans(script, "a b")

    def test_text_is_tokenized_only_for_a_long_insert(self, monkeypatch):
        import editfx.motifs as motifs

        calls = []
        real = motifs._TOKEN

        class CountingPattern:
            def finditer(self, text):
                calls.append(text)
                return real.finditer(text)

        monkeypatch.setattr(motifs, "_TOKEN", CountingPattern())
        before = "alpha beta gamma"
        short = "alpha one two three gamma"
        assert extract_spans(word_diff(tokenize(before), tokenize(short)), short) == []
        assert calls == []
        long = "alpha one two three four gamma"
        spans = extract_spans(word_diff(tokenize(before), tokenize(long)), long)
        assert [s.text for s in spans] == ["one two three four"]
        assert calls == [long]

    def test_span_validates_min_tokens(self):
        with pytest.raises(ValueError):
            InsertedSpan(tokens=("a", "b", "c"), start_index=0, text="a b c")
        assert MIN_SPAN_TOKENS == 4


class TestClassify:
    def test_audit_sentence_is_meta_and_reasoning(self):
        labels = classify(mkspan(AUDIT_SENTENCE))
        assert labels == frozenset({"meta_instruction", "chain_of_thought"})

    def test_plain_politeness_has_no_label(self):
        assert classify(mkspan("please answer politely today thanks")) == frozenset()

    def test_generator_span_is_meta_only(self):
        labels = classify(mkspan("Make sure to verify the final answer carefully."))
        assert labels == frozenset({"meta_instruction"})

    def test_classify_delegates_to_ruleset(self):
        span = mkspan("Make sure to verify the final answer carefully.")
        rules = MotifRuleset(
            json.loads(resources.files("editfx.data").joinpath("motif_rules.json").read_text())
        )
        assert rules.match(span) == classify(span, rules) == frozenset({"meta_instruction"})

    def test_phrase_needs_word_boundary(self):
        assert classify(mkspan("that ensures the correct result")) == frozenset()

    def test_phrase_matching_is_case_insensitive(self):
        labels = classify(mkspan("MAKE SURE TO COMPLY NOW"))
        assert labels == frozenset({"meta_instruction"})

    @pytest.mark.parametrize(
        "text",
        ["Step 1 requires the data", "do it like 1. collect 2. solve", "Apply rule 3) before others"],
    )
    def test_numbered_step_regexes(self, text):
        assert "step_by_step" in classify(mkspan(text))

    def test_window_pair_within_distance(self):
        filler = " ".join(["pad"] * 11)
        labels = classify(mkspan(f"first {filler} then stop"))
        assert "step_by_step" in labels

    def test_window_pair_beyond_distance(self):
        filler = " ".join(["pad"] * 13)
        labels = classify(mkspan(f"first {filler} then stop"))
        assert "step_by_step" not in labels

    def test_fixture_spans_agree_with_labels(self):
        doc = json.loads((FIXTURES / "motif_spans.json").read_text("utf-8"))
        spans = doc["spans"]
        assert len(spans) == 40
        mismatches = []
        for entry in spans:
            got = classify(mkspan(entry["text"]))
            if got != frozenset(entry["labels"]):
                mismatches.append((entry["text"], sorted(got), entry["labels"]))
        assert mismatches == []
        # the fixture exercises every label, multi-label spans, and blanks
        covered = {label for entry in spans for label in entry["labels"]}
        assert covered == set(MOTIF_LABELS)
        assert any(len(entry["labels"]) > 1 for entry in spans)
        assert any(not entry["labels"] for entry in spans)


def ruleset_words(doc: dict) -> list[str]:
    # Every word of a ruleset's phrases and window pairs, and near misses.
    words = ["ensures", "step", "1.", "3)", "pad", "the", "answer", "Thinking"]
    for patterns in doc["labels"].values():
        for pat in patterns:
            if pat["kind"] == "phrase":
                words += pat["text"].split()
            elif pat["kind"] == "window_pair":
                words += [pat["a"], pat["b"]]
    return sorted(set(words))


@st.composite
def ruleset_spans(draw, doc: dict) -> InsertedSpan:
    # Spans of 4 to 30 ruleset words, some in upper case.
    word = st.sampled_from(ruleset_words(doc))
    words = draw(st.lists(st.one_of(word, word.map(str.upper)), min_size=4, max_size=30))
    return mkspan(" ".join(words))


BUNDLED_RULES = json.loads(resources.files("editfx.data").joinpath("motif_rules.json").read_text())
# A user ruleset: overlapping phrases, regex metacharacters in a phrase,
# a regex with a group and a backreference, and a label with no phrase.
USER_RULES = {
    "version": "user",
    "labels": {
        "chain_of_thought": [
            {"kind": "regex", "pattern": "\\bthink(ing)?\\b"},
            {"kind": "window_pair", "a": "reason", "b": "answer", "window": 2},
        ],
        "meta_instruction": [
            {"kind": "phrase", "text": "make sure"},
            {"kind": "phrase", "text": "Make Sure To"},
            {"kind": "phrase", "text": "c++ (always)"},
        ],
        "step_by_step": [
            {"kind": "regex", "pattern": "\\b(\\w+) \\1\\b"},
            {"kind": "phrase", "text": "first"},
        ],
        "clarity_constraint": [
            {"kind": "phrase", "text": "brief"},
            {"kind": "phrase", "text": "be brief"},
            {"kind": "window_pair", "a": "short", "b": "answer", "window": 1},
        ],
    },
}


class TestClassifyOracle:
    @pytest.mark.parametrize("doc", [BUNDLED_RULES, USER_RULES], ids=["bundled", "user"])
    def test_fixture_spans_match_per_pattern_search(self, doc):
        rules = MotifRuleset(doc)
        entries = json.loads((FIXTURES / "motif_spans.json").read_text("utf-8"))["spans"]
        for entry in entries:
            span = mkspan(entry["text"])
            assert rules.match(span) == per_pattern_labels(doc, span), entry["text"]

    @pytest.mark.parametrize("doc", [BUNDLED_RULES, USER_RULES], ids=["bundled", "user"])
    def test_spans_of_ruleset_words_match_per_pattern_search(self, doc):
        rules = MotifRuleset(doc)

        @given(span=ruleset_spans(doc))
        @settings(max_examples=400, deadline=None)
        def check(span):
            assert rules.match(span) == per_pattern_labels(doc, span)

        check()

    def test_user_ruleset_labels(self):
        rules = MotifRuleset(USER_RULES)
        span = mkspan("First, think it over: make sure the the answer is brief.")
        assert rules.match(span) == frozenset(MOTIF_LABELS)
        span = mkspan("Reason well, then give a short answer please")
        assert rules.match(span) == frozenset({"clarity_constraint"})


class TestRecordMotifs:
    def test_unchanged_prompt_has_no_spans(self):
        record = make_record("r1")
        result = record_motifs(record)
        assert result.spans == ()
        assert result.record_labels == frozenset()

    def test_inserted_sentence_is_classified(self):
        base = "alpha beta gamma delta"
        record = make_record("r1", before_text=base, after_text=base + " " + AUDIT_SENTENCE)
        result = record_motifs(record)
        assert len(result.spans) == 1
        assert result.spans[0].text == AUDIT_SENTENCE.rstrip(".")  # trailing period past last token
        assert result.record_labels == frozenset({"meta_instruction", "chain_of_thought"})
        assert result.cooccurrence_pairs == {("chain_of_thought", "meta_instruction"): 1}

    def test_to_json_shape(self):
        base = "alpha beta gamma delta"
        record = make_record("r1", before_text=base, after_text=base + " Make sure to verify it.")
        doc = record_motifs(record).to_json()
        assert doc["pair_id"] == "r1"
        assert doc["record_labels"] == ["meta_instruction"]
        assert doc["spans"][0]["labels"] == ["meta_instruction"]
        assert doc["spans"][0]["start_index"] == 4
        assert doc["spans"][0]["tokens"] == ["make", "sure", "to", "verify", "it"]

    def test_demo_text_only_counts_when_included(self):
        record = make_record(
            "r1",
            demos_before=[],
            demos_after=[{"text": "Make sure to verify the final answer carefully."}],
        )
        assert record_motifs(record).record_labels == frozenset()
        with_demos = record_motifs(record, include_demos=True)
        assert with_demos.record_labels == frozenset({"meta_instruction"})


class TestTreatmentsAndCooccurrence:
    def make_corpus(self):
        base = "alpha beta gamma delta"
        treated = make_record("t1", before_text=base, after_text=base + " " + AUDIT_SENTENCE)
        control = make_record("c1", before_text=base, after_text=base)
        return [treated, control]

    def test_motif_treatments_indicators(self):
        records = self.make_corpus()
        treat = motif_treatments(results_of(records))
        assert set(treat) == {"t1", "c1"}
        assert treat["t1"] == {
            "chain_of_thought": 1,
            "meta_instruction": 1,
            "step_by_step": 0,
            "clarity_constraint": 0,
        }
        assert treat["c1"] == {label: 0 for label in MOTIF_LABELS}

    def test_cooccurrence_counts_and_rates(self):
        records = self.make_corpus()
        results = [record_motifs(r) for r in records]
        stats = cooccurrence_matrix(results)
        assert stats["records_total"] == 2
        assert stats["records_labeled"] == 1
        key = ("chain_of_thought", "meta_instruction")
        assert stats["counts"][key] == 1
        assert sum(stats["counts"].values()) == 1
        assert stats["rate_all"][key] == pytest.approx(0.5)
        assert stats["rate_labeled"][key] == pytest.approx(1.0)

    def test_cooccurrence_empty_input(self):
        stats = cooccurrence_matrix([])
        assert stats["records_total"] == 0
        assert all(v == 0.0 for v in stats["rate_all"].values())
        assert all(v == 0.0 for v in stats["rate_labeled"].values())


class TestAuditSample:
    def make_corpus(self):
        base = "alpha beta gamma delta"
        records = []
        for i in range(3):
            records.append(
                make_record(
                    f"a{i}",
                    before_text=base,
                    after_text=base + f" Make sure to check item {i} now.",
                    dataset="ds_a",
                )
            )
        for i in range(2):
            records.append(
                make_record(
                    f"b{i}",
                    before_text=base,
                    after_text=base + f" Make sure to check entry {i} now.",
                    dataset="ds_b",
                )
            )
        return records

    def test_round_robin_over_datasets(self):
        records = self.make_corpus()
        dataset_of = {r.pair_id: r.dataset for r in records}
        results = results_of(records)
        picked = audit_sample(records, "meta_instruction", k=4, seed=7, results=results)
        assert len(picked) == 4
        assert [dataset_of[pid] for pid, _ in picked] == ["ds_a", "ds_b", "ds_a", "ds_b"]
        assert len({pid for pid, _ in picked}) == 4

    def test_deterministic_given_seed(self):
        records = self.make_corpus()
        results = results_of(records)
        first = audit_sample(records, "meta_instruction", k=5, seed=3, results=results)
        second = audit_sample(records, "meta_instruction", k=5, seed=3, results=results)
        assert first == second

    def test_short_supply_warns(self):
        records = self.make_corpus()
        with pytest.warns(UserWarning, match="only 5 positive spans"):
            picked = audit_sample(
                records, "meta_instruction", k=10, seed=0, results=results_of(records)
            )
        assert len(picked) == 5

    def test_no_positive_spans_for_label(self):
        records = self.make_corpus()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            results = results_of(records)
            assert audit_sample(records, "clarity_constraint", k=2, seed=0, results=results) == []

    def test_invalid_arguments(self):
        records = self.make_corpus()
        results = results_of(records)
        with pytest.raises(ConfigError):
            audit_sample(records, "bogus_label", k=2, seed=0, results=results)
        with pytest.raises(ConfigError):
            audit_sample(records, "meta_instruction", k=0, seed=0, results=results)


class TestRuleset:
    def base_doc(self):
        return {
            "version": "t",
            "labels": {
                "chain_of_thought": [{"kind": "phrase", "text": "think through"}],
                "meta_instruction": [{"kind": "phrase", "text": "ensure"}],
                "step_by_step": [{"kind": "window_pair", "a": "first", "b": "then", "window": 3}],
                "clarity_constraint": [{"kind": "phrase", "text": "brief"}],
            },
        }

    def test_bundled_ruleset_metadata(self):
        rules = default_ruleset()
        assert rules.version == "1.0"
        assert len(rules.content_hash) == 64
        assert default_ruleset() is rules

    def test_load_from_path(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps(self.base_doc()), encoding="utf-8")
        rules = _from_file(str(path), "ruleset file", MotifRuleset)
        assert rules.version == "t"
        labels = classify(mkspan("first do this then that"), rules)
        assert labels == frozenset({"step_by_step"})

    def test_missing_label_rejected(self):
        doc = self.base_doc()
        del doc["labels"]["clarity_constraint"]
        with pytest.raises(ConfigError):
            MotifRuleset(doc)

    def test_extra_label_rejected(self):
        doc = self.base_doc()
        doc["labels"]["politeness"] = [{"kind": "phrase", "text": "please"}]
        with pytest.raises(ConfigError):
            MotifRuleset(doc)

    def test_empty_pattern_list_rejected(self):
        doc = self.base_doc()
        doc["labels"]["meta_instruction"] = []
        with pytest.raises(ConfigError):
            MotifRuleset(doc)

    def test_unknown_kind_rejected(self):
        doc = self.base_doc()
        doc["labels"]["meta_instruction"] = [{"kind": "glob", "text": "x"}]
        with pytest.raises(ConfigError):
            MotifRuleset(doc)

    def test_bad_window_rejected(self):
        doc = self.base_doc()
        doc["labels"]["step_by_step"] = [
            {"kind": "window_pair", "a": "first", "b": "then", "window": 0}
        ]
        with pytest.raises(ConfigError):
            MotifRuleset(doc)

    def test_empty_phrase_rejected(self):
        doc = self.base_doc()
        doc["labels"]["meta_instruction"] = [{"kind": "phrase", "text": "   "}]
        with pytest.raises(ConfigError):
            MotifRuleset(doc)
