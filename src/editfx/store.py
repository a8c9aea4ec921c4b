"""Comparison-record data model and JSONL ingestion.

One record describes a single optimizer step: the prompt before the edit,
the prompt after it, the accuracies of both on a fixed evaluation set, and
the resulting gain. Records are immutable once loaded; any number of readers
may share a loaded collection.
"""

from __future__ import annotations

import json
import logging
import re
from collections import Counter
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Iterable

from .errors import IngestError

log = logging.getLogger(__name__)

TASK_GROUPS = ("commonsense", "math", "logical", "sequential", "multihop")

ANNOTATION_FEATURES = (
    "Clarity",
    "Engagement",
    "Politeness",
    "Intrinsic_load",
    "Extraneous_load",
    "Enc_germane_load",
    "Objectives",
    "Metacognition",
    "Demos",
    "Structural_logic",
    "Contextual_logic",
    "Hallucination_awareness",
)

# Bundled benchmark -> task-group table, applied only when a record carries
# no explicit task_group. Keys are matched case-insensitively.
DATASET_GROUPS = {
    "commonsenseqa": "commonsense",
    "commonsense_qa": "commonsense",
    "causal_judgement": "commonsense",
    "disambiguation_qa": "commonsense",
    "gsm8k": "math",
    "multiarith": "math",
    "boolean_expressions": "logical",
    "coin_flip": "logical",
    "last_letters": "sequential",
    "listops": "sequential",
    "strategyqa": "multihop",
    "date_understanding": "multihop",
}

GAIN_TOLERANCE = 1e-9


@dataclass(frozen=True)
class PromptState:
    """One prompt: instruction text plus its few-shot demo entries."""

    instruction_text: str
    demos: tuple[dict[str, str], ...] = ()
    raw_payload: Any = None

    def demo_text(self) -> str:
        """All demo values concatenated in key order, space separated."""
        parts = []
        for demo in self.demos:
            for key in sorted(demo):
                parts.append(str(demo[key]))
        return " ".join(parts)

    def to_json(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "instruction_text": self.instruction_text,
            "demos": [dict(d) for d in self.demos],
        }
        if self.raw_payload is not None:
            doc["raw_payload"] = self.raw_payload
        return doc


@dataclass(frozen=True)
class ComparisonRecord:
    pair_id: str
    framework: str
    backbone: str
    dataset: str
    task_group: str
    step_index: int
    before: PromptState
    after: PromptState
    accuracy_before: float
    accuracy_after: float
    gain: float
    annotations_before: dict[str, float] | None = None
    annotations_after: dict[str, float] | None = None
    extras: dict[str, Any] = field(default_factory=dict)

    @property
    def block_id(self) -> tuple[str, str]:
        return (self.dataset, self.backbone)

    def to_json(self) -> dict[str, Any]:
        """Every field but extras, absent annotations left out, then the extras' keys."""
        doc: dict[str, Any] = {}
        for item in fields(self):
            value = getattr(self, item.name)
            if isinstance(value, PromptState):
                value = value.to_json()
            elif isinstance(value, dict):
                value = dict(value)
            if value is not None and item.name != "extras":
                doc[item.name] = value
        doc.update(self.extras)
        return doc


# The keys a record's fields read; parse_record keeps every other key as an extra.
_KNOWN_FIELDS = frozenset(item.name for item in fields(ComparisonRecord)) - {"extras"}


def headroom(record: ComparisonRecord) -> float:
    """Remaining room for improvement: 1 - accuracy_before."""
    return 1.0 - record.accuracy_before


def _parse_prompt_state(doc: Any, label: str) -> PromptState:
    if not isinstance(doc, dict):
        raise IngestError(f"field '{label}' must be an object")
    if "instruction_text" not in doc:
        raise IngestError(f"missing required field '{label}.instruction_text'")
    text = doc["instruction_text"]
    if not isinstance(text, str):
        raise IngestError(f"'{label}.instruction_text' must be a string")
    demos_raw = doc.get("demos", [])
    if not isinstance(demos_raw, list):
        raise IngestError(f"'{label}.demos' must be a list")
    demos = []
    for entry in demos_raw:
        if not isinstance(entry, dict):
            raise IngestError(f"'{label}.demos' entries must be objects")
        demos.append({str(k): str(v) for k, v in entry.items()})
    return PromptState(
        instruction_text=text,
        demos=tuple(demos),
        raw_payload=doc.get("raw_payload"),
    )


def _number(value: Any, label: str) -> float:
    """A JSON number as a float; a bool, a string or an integer past a double's range is not."""
    if type(value) not in (int, float):
        raise IngestError(f"field '{label}' must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise IngestError(f"field '{label}' does not fit a double") from None


def _parse_annotations(doc: Any, label: str) -> dict[str, float]:
    if not isinstance(doc, dict):
        raise IngestError(f"field '{label}' must be an object")
    scores: dict[str, float] = {}
    for name, value in doc.items():
        if name not in ANNOTATION_FEATURES:
            raise IngestError(f"unknown annotation feature '{name}' in '{label}'")
        score = _number(value, f"{label}.{name}")
        if not (1.0 <= score <= 10.0):
            raise IngestError(
                f"annotation score {name}={score} outside [1,10] in '{label}'"
            )
        scores[name] = score
    return scores


def parse_record(doc: dict[str, Any]) -> ComparisonRecord:
    """Validate one JSON document and build a ComparisonRecord.

    Raises IngestError on any malformed, missing, or out-of-range field.
    """
    for name in ("pair_id", "framework", "backbone", "dataset"):
        if name not in doc:
            raise IngestError(f"missing required field '{name}'")
        if not isinstance(doc[name], str):
            raise IngestError(f"field '{name}' must be a string")

    task_group = doc.get("task_group")
    if task_group is None:
        task_group = DATASET_GROUPS.get(str(doc["dataset"]).lower())
        if task_group is None:
            raise IngestError(
                f"missing required field 'task_group' and dataset "
                f"'{doc['dataset']}' is not in the bundled group table"
            )
    if task_group not in TASK_GROUPS:
        raise IngestError(f"unknown task_group '{task_group}'")

    if "step_index" not in doc:
        raise IngestError("missing required field 'step_index'")
    step_index = doc["step_index"]
    if isinstance(step_index, bool) or (
        isinstance(step_index, float) and not step_index.is_integer()
    ):
        raise IngestError(f"step_index {step_index!r} must be an integer")
    step_index = int(step_index)
    if step_index < 0:
        raise IngestError(f"step_index {step_index} must be >= 0")
    _number(step_index, "step_index")  # the unit frame holds it as a double

    for name in ("before", "after"):
        if name not in doc:
            raise IngestError(f"missing required field '{name}'")
    before = _parse_prompt_state(doc["before"], "before")
    after = _parse_prompt_state(doc["after"], "after")

    for name in ("accuracy_before", "accuracy_after"):
        if name not in doc:
            raise IngestError(f"missing required field '{name}'")
    acc_before = _number(doc["accuracy_before"], "accuracy_before")
    acc_after = _number(doc["accuracy_after"], "accuracy_after")
    for name, acc in (("accuracy_before", acc_before), ("accuracy_after", acc_after)):
        if not (0.0 <= acc <= 1.0):
            raise IngestError(f"accuracy outside [0,1]: {name}={acc}")

    computed_gain = acc_after - acc_before
    if "gain" in doc and doc["gain"] is not None:
        gain = _number(doc["gain"], "gain")
        if not -1.0 <= gain <= 1.0:
            raise IngestError(f"gain {gain} outside [-1,1]")
        if abs(gain - computed_gain) > GAIN_TOLERANCE:
            raise IngestError(
                f"gain {gain} disagrees with accuracy_after - accuracy_before "
                f"= {computed_gain}"
            )
    else:
        gain = computed_gain

    annotations_before = None
    if doc.get("annotations_before") is not None:
        annotations_before = _parse_annotations(
            doc["annotations_before"], "annotations_before"
        )
    annotations_after = None
    if doc.get("annotations_after") is not None:
        annotations_after = _parse_annotations(
            doc["annotations_after"], "annotations_after"
        )

    extras = {k: v for k, v in doc.items() if k not in _KNOWN_FIELDS}

    return ComparisonRecord(
        pair_id=str(doc["pair_id"]),
        framework=str(doc["framework"]),
        backbone=str(doc["backbone"]),
        dataset=str(doc["dataset"]),
        task_group=task_group,
        step_index=step_index,
        before=before,
        after=after,
        accuracy_before=acc_before,
        accuracy_after=acc_after,
        gain=gain,
        annotations_before=annotations_before,
        annotations_after=annotations_after,
        extras=extras,
    )


def compute_stats(records: list[ComparisonRecord], skipped_count: int = 0) -> dict[str, Any]:
    """Record counts overall, per dataset, per task group and per "dataset|backbone" block."""

    def counts(key) -> dict[str, int]:
        return dict(sorted(Counter(map(key, records)).items()))

    return {
        "record_count": len(records),
        "per_dataset_counts": counts(lambda r: r.dataset),
        "per_group_counts": counts(lambda r: r.task_group),
        "per_block_counts": counts(lambda r: f"{r.dataset}|{r.backbone}"),
        "skipped_count": skipped_count,
    }


# Only a \uD800-\uDFFF escape can decode to a lone surrogate.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def _load_line(raw: bytes) -> dict[str, Any] | None:
    """One UTF-8 JSONL line as a JSON object whose text is all UTF-8; None if blank."""
    line = raw.decode("utf-8").strip()
    if not line:
        return None
    doc = json.loads(line)
    if not isinstance(doc, dict):
        raise IngestError("line is not a JSON object")
    if _SURROGATE_ESCAPE.search(line):
        try:
            json.dumps(doc, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError as exc:
            raise IngestError(f"lone surrogate {exc.object[exc.start]!r} is not text") from exc
    return doc


def ingest(path: str | Path, strict: bool = True) -> tuple[list[ComparisonRecord], dict[str, Any]]:
    """Load a JSONL file of comparison records, with their compute_stats counts.

    In strict mode the first invalid line aborts the whole ingest; in lenient
    mode invalid lines are skipped and counted in the stats' skipped_count.
    Duplicate pair_ids (on the later line), bytes that are not UTF-8 and
    lone surrogate escapes are invalid in both modes.
    """
    path = Path(path)
    if not path.is_file():
        raise IngestError(f"input file not found: {path}")

    records: list[ComparisonRecord] = []
    seen_ids: set[str] = set()
    skipped = 0
    with path.open("rb") as fh:
        for line_number, raw in enumerate(fh, start=1):
            try:
                doc = _load_line(raw)
                if doc is None:
                    continue
                record = parse_record(doc)
                if record.pair_id in seen_ids:
                    raise IngestError(f"duplicate pair_id '{record.pair_id}'")
            except (IngestError, ValueError, TypeError) as exc:
                if strict:
                    message = str(exc) if isinstance(exc, IngestError) else f"invalid JSON: {exc}"
                    raise IngestError(message, line_number) from exc
                skipped += 1
                log.warning("skipping invalid line %d: %s", line_number, exc)
                continue
            seen_ids.add(record.pair_id)
            records.append(record)

    return records, compute_stats(records, skipped)


def serialize(records: Iterable[ComparisonRecord], path: str | Path) -> None:
    """Write records back out as canonical JSONL (one record per line)."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_json(), ensure_ascii=False, sort_keys=True))
            fh.write("\n")
