"""Word-level diff, inserted spans, and motif classification."""

import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from editfx.errors import ConfigError, SchemaError
from editfx.motifs import (
    MIN_SPAN_TOKENS,
    MOTIF_LABELS,
    EditRun,
    InsertedSpan,
    MotifRuleset,
    _lcs_table,
    apply_script,
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

from conftest import make_record

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
    # The former int32 table built from a full int32 equality matrix, kept
    # as the reference for _lcs_table.
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
        assert np.array_equal(_lcs_table(before, after), lcs_table_int32(before, after))

    @pytest.mark.parametrize(
        "n, m, vocab", [(256, 256, 3), (300, 700, 8), (900, 257, 40), (260, 0, 5)]
    )
    def test_long_inputs_match_int32_reference(self, n, m, vocab):
        rng = np.random.default_rng([n, m, vocab])
        before = [f"w{k}" for k in rng.integers(vocab, size=n)]
        after = [f"w{k}" for k in rng.integers(vocab, size=m)]
        table = _lcs_table(before, after)
        assert table.dtype == np.min_scalar_type(min(n, m))
        assert np.array_equal(table, lcs_table_int32(before, after))

    def test_lcs_length_fits_the_narrow_dtype(self):
        tokens = [f"w{k}" for k in range(255)]
        table = _lcs_table(tokens, tokens)
        assert table.dtype == np.uint8
        assert table[0, 0] == 255

    def test_word_diff_peak_memory_on_long_prompts(self):
        rng = np.random.default_rng(3000)
        before = [f"w{k}" for k in rng.integers(200, size=3000)]
        # one substitution every 97 tokens, the first past a 5-token prefix
        after = [f"sub{k}" if k % 97 == 5 else t for k, t in enumerate(before)]
        tracemalloc.start()
        try:
            script = word_diff(before, after)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert apply_script(script, before) == after
        assert peak < 24 * 2**20


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
        rules = MotifRuleset.load()
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
        rules = MotifRuleset.load(path)
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
