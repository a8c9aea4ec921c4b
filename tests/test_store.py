"""Record parsing, ingestion modes, round-trips, and partitions."""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from editfx.design import PreparedCorpus
from editfx.errors import IngestError
from editfx.report import run_report
from editfx.store import (
    ANNOTATION_FEATURES,
    FIELDS,
    TASK_GROUPS,
    ComparisonRecord,
    PromptState,
    compute_stats,
    headroom,
    ingest,
    parse_record,
    serialize,
)
from editfx.synth import SynthConfig, generate

from conftest import make_record
from oracles import partition


def base_doc(**overrides):
    doc = {
        "pair_id": "x1",
        "framework": "dspy",
        "backbone": "gpt-4o-mini",
        "dataset": "gsm8k",
        "task_group": "math",
        "step_index": 3,
        "before": {"instruction_text": "Solve the problem.", "demos": []},
        "after": {"instruction_text": "Solve the problem step by step.", "demos": []},
        "accuracy_before": 0.7,
        "accuracy_after": 0.8,
    }
    doc.update(overrides)
    return doc


class TestParseRecord:
    def test_happy_path_derives_gain(self):
        record = parse_record(base_doc())
        assert record.pair_id == "x1"
        assert record.gain == pytest.approx(0.1)
        assert record.block_id == ("gsm8k", "gpt-4o-mini")

    def test_explicit_gain_must_agree(self):
        record = parse_record(base_doc(gain=0.1))
        assert record.gain == 0.1
        with pytest.raises(IngestError, match="disagrees"):
            parse_record(base_doc(gain=0.2))

    def test_accuracy_out_of_range(self):
        with pytest.raises(IngestError, match="outside"):
            parse_record(base_doc(accuracy_after=1.2))
        with pytest.raises(IngestError, match="outside"):
            parse_record(base_doc(accuracy_before=-0.1))

    def test_accuracies_and_gain_are_json_numbers(self):
        record = parse_record(base_doc(accuracy_before=0, accuracy_after=1, gain=1))
        assert (record.accuracy_before, record.gain) == (0.0, 1.0)
        for name, value in [("accuracy_before", True), ("accuracy_after", "0.8"), ("gain", "0.1")]:
            with pytest.raises(IngestError, match=f"field '{name}' must be a number"):
                parse_record(base_doc(**{name: value}))

    def test_missing_required_fields(self):
        for name in ("pair_id", "framework", "backbone", "dataset", "step_index",
                     "before", "after", "accuracy_before", "accuracy_after"):
            doc = base_doc()
            del doc[name]
            with pytest.raises(IngestError):
                parse_record(doc)

    def test_unknown_task_group(self):
        with pytest.raises(IngestError, match="unknown task_group"):
            parse_record(base_doc(task_group="arithmetic"))

    def test_task_group_falls_back_to_bundled_table(self):
        doc = base_doc()
        del doc["task_group"]
        assert parse_record(doc).task_group == "math"
        doc = base_doc(dataset="MultiArith")
        del doc["task_group"]
        assert parse_record(doc).task_group == "math"

    def test_unknown_dataset_without_group_rejected(self):
        doc = base_doc(dataset="mystery_bench")
        del doc["task_group"]
        with pytest.raises(IngestError, match="task_group"):
            parse_record(doc)

    def test_negative_step_index(self):
        with pytest.raises(IngestError, match="step_index"):
            parse_record(base_doc(step_index=-1))

    def test_non_finite_gain_rejected(self):
        for value in (float("nan"), float("inf")):
            with pytest.raises(IngestError, match="gain"):
                parse_record(base_doc(gain=value))

    def test_step_index_must_be_integral(self):
        assert parse_record(base_doc(step_index=4.0)).step_index == 4
        for value in (3.7, True, False, "3", None, [1]):
            with pytest.raises(IngestError, match="step_index"):
                parse_record(base_doc(step_index=value))

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({"after": {"instruction_text": "S", "demos": [{"q": None}]}}, "'after.demos[0].q'"),
            ({"after": {"instruction_text": "S", "demos": ["q"]}}, "'after.demos[0]'"),
            ({"before": {"instruction_text": "S", "zzz": 1}}, "unknown field 'before.zzz'"),
            ({"after": {"instruction_text": "S", "zzz": 1}}, "unknown field 'after.zzz'"),
        ],
    )
    def test_bad_prompt_state_names_the_field(self, bad, message):
        with pytest.raises(IngestError) as err:
            parse_record(base_doc(**bad))
        assert message in str(err.value)

    def test_annotations_validated(self):
        doc = base_doc(annotations_before={"Clarity": 7, "Demos": 1})
        record = parse_record(doc)
        assert record.annotations_before == {"Clarity": 7.0, "Demos": 1.0}

        with pytest.raises(IngestError, match="unknown annotation"):
            parse_record(base_doc(annotations_before={"Verbosity": 5}))
        with pytest.raises(IngestError, match="outside"):
            parse_record(base_doc(annotations_after={"Clarity": 11}))
        with pytest.raises(IngestError, match="outside"):
            parse_record(base_doc(annotations_after={"Clarity": 0.5}))
        with pytest.raises(IngestError, match="'annotations_before.Clarity' must be a number"):
            parse_record(base_doc(annotations_before={"Clarity": True}))
        with pytest.raises(IngestError, match="'annotations_after.Demos' must be a number"):
            parse_record(base_doc(annotations_after={"Demos": "5"}))

    def test_partial_annotation_dicts_allowed(self):
        record = parse_record(base_doc(annotations_before={"Clarity": 5}))
        assert set(record.annotations_before) == {"Clarity"}
        assert record.annotations_after is None

    def test_extra_fields_preserved(self):
        record = parse_record(base_doc(run_id="abc", note=7))
        assert record.extras == {"run_id": "abc", "note": 7}
        assert record.to_json()["run_id"] == "abc"

    @pytest.mark.parametrize("annotated", [True, False])
    def test_to_json_round_trips_through_parse_record(self, annotated):
        prompt = {"instruction_text": "Solve.", "demos": [{"q": "1", "a": "2"}]}
        doc = base_doc(
            before={**prompt, "raw_payload": {"id": 3, "tags": ["x"]}},
            after=prompt,
            gain=0.1,
            run_id="abc",
            note=[1, {"k": None}],
        )
        if annotated:
            doc.update(annotations_before={"Clarity": 5.5}, annotations_after={"Demos": 2.0})
        record = parse_record(doc)
        assert record.to_json() == {**doc, "gain": record.gain}
        assert parse_record(record.to_json()) == record

    def test_demos_parsed(self):
        doc = base_doc(before={"instruction_text": "x", "demos": [{"q": "1", "a": "2"}]})
        record = parse_record(doc)
        assert len(record.before.demos) == 1
        assert record.before.demo_text() == "2 1"


class TestIngest:
    def write(self, tmp_path, lines):
        path = tmp_path / "corpus.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_strict_rejects_bad_line_with_number(self, tmp_path):
        lines = [json.dumps(base_doc()), json.dumps(base_doc(pair_id="x2", accuracy_after=2.0))]
        path = self.write(tmp_path, lines)
        with pytest.raises(IngestError) as err:
            ingest(path, strict=True)
        assert err.value.line_number == 2

    @pytest.mark.parametrize(
        "bad",
        [
            {"gain": float("nan")},
            {"step_index": 3.7},
            {"step_index": True},
            # JSON escapes of lone surrogates in a text, an id and a key
            {"before": {"instruction_text": "Solve \ud800 it.", "demos": []}},
            {"pair_id": "x2\udc80"},
            {"note\udfff": 1},
            # a raw byte that is not UTF-8, put into the instruction text
            pytest.param(b"\xff", id="bad6"),
            # JSON booleans and strings are not numbers
            {"accuracy_before": True},
            {"accuracy_after": "0.8"},
            {"gain": False},
            {"gain": "0.1"},
            # numbers that a double cannot hold, and a gain outside [-1, 1]
            {"accuracy_before": 10**400},
            {"step_index": 10**400},
            {"accuracy_before": 0.0, "accuracy_after": 1.0, "gain": 1.0000000005},
            # a step_index that is not a JSON number
            {"step_index": "3"},
            {"step_index": None},
            {"step_index": [1]},
            # demo values that are not strings, and a key no prompt state has
            {"after": {"instruction_text": "Solve.", "demos": [{"q": None}]}},
            {"after": {"instruction_text": "Solve.", "demos": [{"q": True}]}},
            {"after": {"instruction_text": "Solve.", "demos": [{"q": 3}]}},
            {"before": {"instruction_text": "Solve the problem.", "demos": [], "zzz": 1}},
        ],
    )
    def test_invalid_numbers_name_the_line_or_are_skipped(self, tmp_path, bad):
        if isinstance(bad, bytes):
            second = json.dumps(base_doc(pair_id="x2")).encode().replace(b"Solve", bad, 1)
        else:
            second = json.dumps(base_doc(**{"pair_id": "x2", **bad})).encode()
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(json.dumps(base_doc()).encode() + b"\n" + second + b"\n")
        with pytest.raises(IngestError) as err:
            ingest(path, strict=True)
        assert err.value.line_number == 2
        assert str(err.value).startswith("line 2: ")
        records, stats = ingest(path, strict=False)
        assert [r.pair_id for r in records] == ["x1"]
        assert stats["skipped_count"] == 1

    def test_paired_surrogate_escape_is_text(self, tmp_path):
        doc = base_doc(before={"instruction_text": "Solve \U0001f600 it.", "demos": []})
        line = json.dumps(doc)
        assert "\\ud83d\\ude00" in line
        records, _ = ingest(self.write(tmp_path, [line]), strict=True)
        assert records[0].before.instruction_text == "Solve \U0001f600 it."

    def test_lenient_skips_and_counts(self, tmp_path):
        lines = [
            json.dumps(base_doc()),
            "not json at all",
            json.dumps(base_doc(pair_id="x2", accuracy_after=2.0)),
            json.dumps(base_doc(pair_id="x3")),
        ]
        records, stats = ingest(self.write(tmp_path, lines), strict=False)
        assert [r.pair_id for r in records] == ["x1", "x3"]
        assert stats["skipped_count"] == 2

    def test_duplicate_pair_id_rejected_both_modes(self, tmp_path):
        lines = [json.dumps(base_doc()), json.dumps(base_doc())]
        path = self.write(tmp_path, lines)
        with pytest.raises(IngestError, match="duplicate"):
            ingest(path, strict=True)
        records, stats = ingest(path, strict=False)
        assert len(records) == 1 and stats["skipped_count"] == 1

    def test_blank_lines_ignored(self, tmp_path):
        path = self.write(tmp_path, [json.dumps(base_doc()), "", "  "])
        records, stats = ingest(path, strict=True)
        assert len(records) == 1 and stats["skipped_count"] == 0

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestError, match="not found"):
            ingest(tmp_path / "nope.jsonl")

    def test_round_trip_identical(self, tmp_path):
        lines = [
            json.dumps(base_doc(annotations_before={"Clarity": 5.5}, extra_field=[1, 2])),
            json.dumps(base_doc(pair_id="x2", accuracy_before=0.25, accuracy_after=0.75)),
        ]
        records, _ = ingest(self.write(tmp_path, lines), strict=True)
        out1 = tmp_path / "round1.jsonl"
        out2 = tmp_path / "round2.jsonl"
        serialize(records, out1)
        records2, _ = ingest(out1, strict=True)
        serialize(records2, out2)
        assert records == records2
        assert out1.read_bytes() == out2.read_bytes()


# Hostile JSON values, as the text of a line: every JSON type, numeric
# strings, literals json.loads takes beyond JSON, numbers a double cannot
# hold, lone surrogates, NUL, empty strings, nested containers and
# duplicate keys.
HOSTILE = [
    "null", "true", "false", "0", "1", "-1", "3", "3.0", "3.7", "-0.0", "5.5", "1e-320",
    "1e400", str(10**400), "NaN", "Infinity", "-Infinity",
    '""', '"3"', '"0.5"', '"NaN"', '"math"', '"x"', '"\\ud800"', '"a\\udc80b"',
    '"\\u0000"', '"a\\u0000 b"', '"\\ud83d\\ude00"',
    "[]", "[1]", '["x"]', '[{"q": "a"}]', '[{"q": null}]', '[{}]', '[[], {"k": [null]}]',
    "{}", '{"q": "a"}', '{"instruction_text": "x"}', '{"instruction_text": "x", "demos": 3}',
    '{"Clarity": 5}', '{"k": 1, "k": 2}', '{"instruction_text": 3, "instruction_text": "x"}',
]
# One record's keys, a prompt state's and a demo's, plus a key none of them holds.
DEMO = {"input": "two plus two", "output": "four"}
PROMPT_KEYS = ("instruction_text", "demos", "raw_payload", "zzz")
TOP_KEYS = (*base_doc(), "gain", "annotations_before", "annotations_after", "note")
PATHS = st.one_of(
    st.tuples(st.sampled_from(TOP_KEYS)),
    st.tuples(st.sampled_from(("before", "after")), st.sampled_from(PROMPT_KEYS)),
    st.tuples(
        st.sampled_from(("before", "after")), st.just("demos"), st.just(0),
        st.sampled_from((*DEMO, "note")),
    ),
    st.tuples(
        st.sampled_from(("annotations_before", "annotations_after")),
        st.sampled_from((*ANNOTATION_FEATURES[:3], "Verbosity")),
    ),
)
MUTATIONS = st.tuples(
    PATHS,
    st.one_of(
        st.sampled_from(HOSTILE),
        st.text(max_size=8).map(json.dumps),
        st.integers().map(str),
        st.floats().map(json.dumps),
    ),
    st.sampled_from(("replace", "delete", "hostile-first", "hostile-last")),
)
SENTINEL = "\x00mutant\x00"


def mutant_line(doc, mutation):
    """One JSON line: doc with the value at `path` replaced, deleted or doubled."""
    path, hostile, mode = mutation
    doc = json.loads(json.dumps(doc))
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    key = path[-1]
    if mode == "delete":
        parent.pop(key, None)
        return json.dumps(doc)
    original = parent.get(key)
    parent[key] = SENTINEL
    if mode == "hostile-first" and original is not None:
        hostile = f"{hostile}, {json.dumps(key)}: {json.dumps(original)}"
    elif mode == "hostile-last" and original is not None:
        hostile = f"{json.dumps(original)}, {json.dumps(key)}: {hostile}"
    return json.dumps(doc).replace(json.dumps(SENTINEL), hostile)


@pytest.fixture(scope="module")
def annotated_corpus():
    records, _ = generate(SynthConfig(n=120, seed=0, annotate=True))
    docs = [record.to_json() for record in records]
    docs[6]["before"]["demos"] = docs[6]["after"]["demos"] = [DEMO]
    return docs


class TestIngestContract:
    """Whatever a line holds, ingest names the line or keeps what it read."""

    def ingest_mutant(self, path, docs, at, mutation):
        """The records of docs with docs[at] mutated, checked to keep what that line gave;
        None when ingest names the line instead."""
        lines = [json.dumps(doc) for doc in docs]
        lines[at] = mutant_line(docs[at], mutation)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        try:
            records = ingest(path, strict=True)[0]
        except IngestError as exc:
            assert str(exc).startswith(f"line {at + 1}: ")
            assert exc.line_number == at + 1
            return None
        # Every value the line gave is kept as read; a null field counts as absent.
        given, kept = json.loads(lines[at]), records[at].to_json()
        given = {k: v for k, v in given.items() if v is not None or k not in FIELDS}
        for side in ("before", "after"):
            given[side] = {"demos": [], **{k: v for k, v in given[side].items() if v is not None}}
        assert {k: kept.get(k) for k in given} == given
        return records

    @settings(
        max_examples=500, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(mutation=MUTATIONS)
    def test_error_names_the_line_or_round_trip_is_exact(
        self, tmp_path, annotated_corpus, mutation
    ):
        records = self.ingest_mutant(
            tmp_path / "corpus.jsonl", [annotated_corpus[0], annotated_corpus[6]], 1, mutation
        )
        if records is not None:
            serialize(records, tmp_path / "again.jsonl")
            assert ingest(tmp_path / "again.jsonl", strict=True)[0] == records

    @settings(
        max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(mutation=MUTATIONS, include_demos=st.booleans())
    def test_accepted_mutant_reports(self, tmp_path, annotated_corpus, mutation, include_demos):
        records = self.ingest_mutant(tmp_path / "corpus.jsonl", annotated_corpus, 6, mutation)
        if records is not None:
            run_report(
                PreparedCorpus(records, include_demos=include_demos),
                tmp_path / "bundle",
                resamples=8,
                include_demos=include_demos,
            )


class TestStatsAndPartition:
    def records(self):
        return [
            make_record("a", dataset="gsm8k", task_group="math"),
            make_record("b", dataset="gsm8k", task_group="math", backbone="bb_beta"),
            make_record("c", dataset="coin_flip", task_group="logical"),
        ]

    def test_compute_stats_counts_sum(self):
        stats = compute_stats(self.records())
        assert stats["record_count"] == 3
        assert sum(stats["per_dataset_counts"].values()) == 3
        assert sum(stats["per_group_counts"].values()) == 3
        assert sum(stats["per_block_counts"].values()) == 3
        assert stats["per_block_counts"]["gsm8k|bb_beta"] == 1

    def test_partition_disjoint_exhaustive(self):
        records = self.records()
        for by in ("dataset", "task_group", "block"):
            parts = partition(records, by)
            assert list(parts) == sorted(parts)
            combined = [r for subset in parts.values() for r in subset]
            assert sorted(r.pair_id for r in combined) == ["a", "b", "c"]

    def test_partition_block_keys_are_tuples(self):
        parts = partition(self.records(), "block")
        assert ("gsm8k", "bb_alpha") in parts

    def test_partition_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            partition(self.records(), "framework")
        with pytest.raises(ValueError):
            partition([], "dataset")

    def test_empty_value_bucket_warns(self, caplog):
        records = [make_record("a", dataset="")]
        with caplog.at_level("WARNING"):
            parts = partition(records, "dataset")
        assert "" in parts
        assert any("empty" in m for m in caplog.messages)


def test_headroom_identity():
    for acc in (0.0, 0.25, 0.97, 1.0):
        record = make_record("h", accuracy_before=acc)
        assert headroom(record) == pytest.approx(1.0 - acc, abs=1e-12)
        assert headroom(record) + record.accuracy_before == pytest.approx(1.0, abs=1e-12)


def test_constants_fixed():
    assert TASK_GROUPS == ("commonsense", "math", "logical", "sequential", "multihop")
    assert len(ANNOTATION_FEATURES) == 12
