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


def headroom(record: ComparisonRecord) -> float:
    """Remaining room for improvement: 1 - accuracy_before."""
    return 1.0 - record.accuracy_before


def _string(value: Any, label: str) -> str:
    if not isinstance(value, str):
        raise IngestError(f"field '{label}' must be a string")
    return value


def _number(value: Any, label: str) -> float:
    """A JSON number as a float; a bool, a string or an integer past a double's range is not."""
    if type(value) not in (int, float):
        raise IngestError(f"field '{label}' must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise IngestError(f"field '{label}' does not fit a double") from None


def _integer(value: Any, label: str) -> int:
    """A JSON number that is integral, at least 0 and fits a double (`3` or `3.0`, not `"3"`)."""
    if not (type(value) is int or type(value) is float and value.is_integer()):
        raise IngestError(f"field '{label}' must be an integer, got {value!r}")
    if _number(value, label) < 0:
        raise IngestError(f"field '{label}' must be >= 0, got {value!r}")
    return int(value)


def _demos(value: Any, label: str) -> tuple[dict[str, str], ...]:
    if not isinstance(value, list):
        raise IngestError(f"field '{label}' must be a list")
    for i, entry in enumerate(value):
        if not isinstance(entry, dict):
            raise IngestError(f"field '{label}[{i}]' must be an object")
        for key, text in entry.items():
            _string(text, f"{label}[{i}].{key}")
    return tuple(map(dict, value))


# A prompt state's keys; any JSON value passes as its raw_payload.
_PROMPT_FIELDS = {
    "instruction_text": (_string, True),
    "demos": (_demos, False),
    "raw_payload": (lambda value, label: value, False),
}


def _prompt(value: Any, label: str) -> PromptState:
    if not isinstance(value, dict):
        raise IngestError(f"field '{label}' must be an object")
    for key in value:
        if key not in _PROMPT_FIELDS:
            raise IngestError(f"unknown field '{label}.{key}'")
    return PromptState(**_fields(value, _PROMPT_FIELDS, f"{label}."))


def _scores(value: Any, label: str) -> dict[str, float]:
    if not isinstance(value, dict):
        raise IngestError(f"field '{label}' must be an object")
    scores: dict[str, float] = {}
    for name, score in value.items():
        if name not in ANNOTATION_FEATURES:
            raise IngestError(f"unknown annotation feature '{name}' in '{label}'")
        scores[name] = _number(score, f"{label}.{name}")
        if not (1.0 <= scores[name] <= 10.0):
            raise IngestError(f"annotation score {name}={scores[name]} outside [1,10] in '{label}'")
    return scores


# Each top-level field: the parser for its JSON kind, and whether a record
# must carry it. parse_record keeps every other key as an extra.
FIELDS = {
    "pair_id": (_string, True),
    "framework": (_string, True),
    "backbone": (_string, True),
    "dataset": (_string, True),
    "task_group": (_string, False),
    "step_index": (_integer, True),
    "before": (_prompt, True),
    "after": (_prompt, True),
    "accuracy_before": (_number, True),
    "accuracy_after": (_number, True),
    "gain": (_number, False),
    "annotations_before": (_scores, False),
    "annotations_after": (_scores, False),
}


def _fields(doc: dict[str, Any], table: dict, prefix: str = "") -> dict[str, Any]:
    """Each present field of `table` parsed by its kind; a null counts as absent."""
    values = {}
    for name, (parse, required) in table.items():
        if (value := doc.get(name)) is not None:
            values[name] = parse(value, prefix + name)
        elif required:
            raise IngestError(f"missing required field '{prefix}{name}'")
    return values


def parse_record(doc: dict[str, Any]) -> ComparisonRecord:
    """Validate one JSON document and build a ComparisonRecord.

    Raises IngestError on any malformed, missing, or out-of-range field.
    """
    values = _fields(doc, FIELDS)
    if "task_group" not in values:
        values["task_group"] = DATASET_GROUPS.get(values["dataset"].lower())
        if values["task_group"] is None:
            raise IngestError(
                f"missing required field 'task_group' and dataset "
                f"'{values['dataset']}' is not in the bundled group table"
            )
    if values["task_group"] not in TASK_GROUPS:
        raise IngestError(f"unknown task_group '{values['task_group']}'")
    for name in ("accuracy_before", "accuracy_after"):
        if not (0.0 <= values[name] <= 1.0):
            raise IngestError(f"accuracy outside [0,1]: {name}={values[name]}")
    computed_gain = values["accuracy_after"] - values["accuracy_before"]
    gain = values.setdefault("gain", computed_gain)
    if not -1.0 <= gain <= 1.0:
        raise IngestError(f"gain {gain} outside [-1,1]")
    if abs(gain - computed_gain) > GAIN_TOLERANCE:
        raise IngestError(
            f"gain {gain} disagrees with accuracy_after - accuracy_before = {computed_gain}"
        )
    return ComparisonRecord(**values, extras={k: v for k, v in doc.items() if k not in FIELDS})


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
