"""Word-level diffs between consecutive prompts and inserted-span motifs.

The diff is a minimal edit script under the longest-common-subsequence
metric over tokens, with deterministic earliest-match tie-breaking.
Inserted runs of at least MIN_SPAN_TOKENS tokens become spans, which a
frozen pattern ruleset classifies into four motif categories. A span may
carry several labels; co-occurrence statistics rely on that.
"""

from __future__ import annotations

import hashlib
import json
import re
import warnings
from dataclasses import dataclass
from importlib import resources
from itertools import combinations, groupby
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import ConfigError, SchemaError
from .store import ComparisonRecord
from .surface import tokenize, tokenize_with_offsets

MOTIF_LABELS = (
    "chain_of_thought",
    "meta_instruction",
    "step_by_step",
    "clarity_constraint",
)

MIN_SPAN_TOKENS = 4


@dataclass(frozen=True)
class EditRun:
    """One maximal run of the edit script: op is keep, insert, or delete."""

    op: str
    tokens: tuple[str, ...]


@dataclass(frozen=True)
class InsertedSpan:
    tokens: tuple[str, ...]
    start_index: int
    text: str

    def __post_init__(self):
        if len(self.tokens) < MIN_SPAN_TOKENS:
            raise ValueError(f"span must have >= {MIN_SPAN_TOKENS} tokens")


@dataclass(frozen=True)
class MotifResult:
    pair_id: str
    spans: tuple[InsertedSpan, ...]
    labels_per_span: tuple[frozenset[str], ...]
    record_labels: frozenset[str]

    @property
    def cooccurrence_pairs(self) -> dict[tuple[str, str], int]:
        """Each unordered pair of this record's labels, counted once."""
        return {pair: 1 for pair in combinations(sorted(self.record_labels), 2)}

    def to_json(self) -> dict:
        return {
            "pair_id": self.pair_id,
            "spans": [
                {
                    "text": s.text,
                    "start_index": s.start_index,
                    "tokens": list(s.tokens),
                    "labels": sorted(labels),
                }
                for s, labels in zip(self.spans, self.labels_per_span)
            ],
            "record_labels": sorted(self.record_labels),
        }


class MotifRuleset:
    """Frozen per-label pattern lists loaded from a versioned JSON file.

    Three pattern kinds:
      phrase      - literal word sequence, matched against the normalized
                    (lowercased, punctuation-stripped) token stream with
                    word boundaries, so "ensure" does not hit "ensures"
      regex       - raw regex run case-insensitively over the original
                    span text (needed for numbered-step forms like "1.")
      window_pair - two words both present with at most `window` token
                    positions between them
    """

    def __init__(self, doc: dict):
        labels = doc.get("labels")
        if not isinstance(labels, dict) or set(labels) != set(MOTIF_LABELS):
            raise ConfigError(f"ruleset must define exactly the labels {sorted(MOTIF_LABELS)}")
        self.version = str(doc.get("version", "unversioned"))
        canonical = json.dumps(doc, sort_keys=True).encode("utf-8")
        self.content_hash = hashlib.sha256(canonical).hexdigest()
        self._phrase: dict[str, list[re.Pattern]] = {}
        self._regex: dict[str, list[re.Pattern]] = {}
        self._pairs: dict[str, list[tuple[str, str, int]]] = {}
        for label, patterns in labels.items():
            if not patterns:
                raise ConfigError(f"label '{label}' has no patterns")
            self._phrase[label] = []
            self._regex[label] = []
            self._pairs[label] = []
            for pat in patterns:
                kind = pat.get("kind")
                if kind == "phrase":
                    words = pat["text"].lower().split()
                    if not words:
                        raise ConfigError("empty phrase pattern")
                    body = r"\ ".join(re.escape(w) for w in words)
                    self._phrase[label].append(re.compile(rf"\b{body}\b"))
                elif kind == "regex":
                    self._regex[label].append(re.compile(pat["pattern"], re.IGNORECASE))
                elif kind == "window_pair":
                    window = int(pat["window"])
                    if window < 1:
                        raise ConfigError("window_pair window must be >= 1")
                    self._pairs[label].append((pat["a"].lower(), pat["b"].lower(), window))
                else:
                    raise ConfigError(f"unknown pattern kind '{kind}'")

    def match(self, span: InsertedSpan) -> frozenset[str]:
        """All labels with a pattern that matches the span."""
        joined = " ".join(span.tokens)

        def near(a: str, b: str, window: int) -> bool:
            pos_a = [k for k, t in enumerate(span.tokens) if t == a]
            pos_b = [k for k, t in enumerate(span.tokens) if t == b]
            return any(abs(ka - kb) <= window for ka in pos_a for kb in pos_b)

        return frozenset(
            label
            for label in MOTIF_LABELS
            if any(p.search(joined) for p in self._phrase[label])
            or any(p.search(span.text) for p in self._regex[label])
            or any(near(*pair) for pair in self._pairs[label])
        )

    @classmethod
    def load(cls, path: str | Path | None = None) -> "MotifRuleset":
        if path is None:
            text = resources.files("editfx.data").joinpath("motif_rules.json").read_text("utf-8")
        else:
            text = Path(path).read_text("utf-8")
        return cls(json.loads(text))


_default_rules: MotifRuleset | None = None


def default_ruleset() -> MotifRuleset:
    global _default_rules
    if _default_rules is None:
        _default_rules = MotifRuleset.load()
    return _default_rules


def word_diff(before_tokens: list[str], after_tokens: list[str]) -> list[EditRun]:
    """Minimal LCS edit script from before_tokens to after_tokens.

    Tie-breaking is fixed: a match is taken whenever one is available at
    the current position (earliest match), and deletions are emitted
    before insertions when both are optimal.
    """
    ops: list[tuple[str, str]] = []
    i, j = 0, 0
    n, m = len(before_tokens), len(after_tokens)
    # Common prefix is always part of an optimal earliest-match alignment.
    while i < n and j < m and before_tokens[i] == after_tokens[j]:
        ops.append(("keep", before_tokens[i]))
        i += 1
        j += 1
    table = _lcs_table(before_tokens[i:], after_tokens[j:])
    bi, bj = 0, 0
    rn, rm = n - i, m - j
    while bi < rn or bj < rm:
        if bi < rn and bj < rm and before_tokens[i + bi] == after_tokens[j + bj]:
            ops.append(("keep", before_tokens[i + bi]))
            bi += 1
            bj += 1
        elif bi < rn and table[bi + 1, bj] == table[bi, bj]:
            ops.append(("delete", before_tokens[i + bi]))
            bi += 1
        else:
            ops.append(("insert", after_tokens[j + bj]))
            bj += 1
    return _coalesce(ops)


def _lcs_table(before: list[str], after: list[str]) -> np.ndarray:
    """Suffix LCS lengths: table[i, j] = LCS(before[i:], after[j:]).

    The dtype is the smallest unsigned type that holds min(n, m), the
    longest possible LCS: uint16 below 65,536 tokens.
    """
    n, m = len(before), len(after)
    table = np.zeros((n + 1, m + 1), dtype=np.min_scalar_type(min(n, m)))
    if n == 0 or m == 0:
        return table
    vocab: dict[str, int] = {}
    b_ids = np.fromiter((vocab.setdefault(t, len(vocab)) for t in before), dtype=np.int64, count=n)
    a_ids = np.fromiter((vocab.setdefault(t, len(vocab)) for t in after), dtype=np.int64, count=m)
    for i in range(n - 1, -1, -1):
        nxt = table[i + 1]
        # row[j] = max over k >= j of max(nxt[k], nxt[k+1] + [before[i] == after[k]]):
        # the same-row dependency unrolls into a reverse cumulative max.
        cand = np.maximum(nxt[:-1], nxt[1:] + (a_ids == b_ids[i]))
        table[i, :-1] = np.maximum.accumulate(cand[::-1])[::-1]
    return table


def _coalesce(ops: list[tuple[str, str]]) -> list[EditRun]:
    return [
        EditRun(op, tuple(token for _, token in group))
        for op, group in groupby(ops, key=itemgetter(0))
    ]


def apply_script(script: list[EditRun], before_tokens: list[str]) -> list[str]:
    """Replay the script against before_tokens; the diff-correctness oracle."""
    out: list[str] = []
    pos = 0
    for run in script:
        if run.op == "keep":
            if tuple(before_tokens[pos : pos + len(run.tokens)]) != run.tokens:
                raise SchemaError("edit script does not align with before tokens")
            out.extend(run.tokens)
            pos += len(run.tokens)
        elif run.op == "delete":
            pos += len(run.tokens)
        elif run.op == "insert":
            out.extend(run.tokens)
        else:
            raise SchemaError(f"unknown edit op '{run.op}'")
    if pos != len(before_tokens):
        raise SchemaError("edit script does not consume all before tokens")
    return out


def extract_spans(script: list[EditRun], after_text: str) -> list[InsertedSpan]:
    """Materialize inserted runs of >= 4 tokens, with original-case text.

    The script must come from the token stream of after_text so that
    token offsets line up.
    """
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


def classify(span: InsertedSpan, rules: MotifRuleset | None = None) -> frozenset[str]:
    """All motif labels whose any pattern matches the span, case-insensitively."""
    return (rules or default_ruleset()).match(span)


def record_motifs(
    record: ComparisonRecord,
    rules: MotifRuleset | None = None,
    include_demos: bool = False,
) -> MotifResult:
    """Diff one record's prompts and classify its inserted spans.

    By default only the instruction text is diffed; include_demos=True
    appends the concatenated demo text, which is noisier (structured demo
    field names such as "reasoning" then count as insertions).
    """
    if rules is None:
        rules = default_ruleset()
    before_text = record.before.instruction_text
    after_text = record.after.instruction_text
    if include_demos:
        before_text = before_text + "\n\n" + record.before.demo_text()
        after_text = after_text + "\n\n" + record.after.demo_text()
    script = word_diff(tokenize(before_text), tokenize(after_text))
    spans = tuple(extract_spans(script, after_text))
    labels = tuple(classify(s, rules) for s in spans)
    union: frozenset[str] = frozenset().union(*labels) if labels else frozenset()
    return MotifResult(
        pair_id=record.pair_id, spans=spans, labels_per_span=labels, record_labels=union
    )


def motif_treatments(results: dict[str, MotifResult]) -> dict[str, dict[str, int]]:
    """Per-record motif-insertion indicators: pair_id -> {label: 0/1}."""
    return {
        pair_id: {label: int(label in res.record_labels) for label in MOTIF_LABELS}
        for pair_id, res in results.items()
    }


def cooccurrence_matrix(results: list[MotifResult]) -> dict:
    """Corpus-level unordered label-pair counts and rates.

    rate_all divides by all records; rate_labeled by records carrying at
    least one motif label.
    """
    counts = {pair: 0 for pair in _label_pairs()}
    labeled = 0
    for res in results:
        if res.record_labels:
            labeled += 1
        for pair in res.cooccurrence_pairs:
            counts[pair] += 1
    total = len(results)
    return {
        "counts": counts,
        "records_total": total,
        "records_labeled": labeled,
        "rate_all": {p: (c / total if total else 0.0) for p, c in counts.items()},
        "rate_labeled": {p: (c / labeled if labeled else 0.0) for p, c in counts.items()},
    }


def _label_pairs() -> list[tuple[str, str]]:
    names = sorted(MOTIF_LABELS)
    return [(a, b) for k, a in enumerate(names) for b in names[k + 1 :]]


def audit_sample(
    records: list[ComparisonRecord],
    label: str,
    k: int,
    seed: int,
    results: dict[str, MotifResult],
) -> list[tuple[str, str]]:
    """Sample k classified-positive spans for manual audit.

    Sampling is without replacement, stratified by dataset (round-robin
    over datasets in sorted order, per-dataset order shuffled), and
    deterministic given seed. Returns fewer than k with a warning when
    the supply is short. `results` maps each record's pair id to its
    diff (as `PreparedCorpus.motif_results` gives), so the spans follow
    the run's ruleset and demo setting.
    """
    if label not in MOTIF_LABELS:
        raise ConfigError(f"unknown motif label '{label}'")
    if k < 1:
        raise ConfigError("k must be >= 1")
    by_dataset: dict[str, list[tuple[str, str]]] = {}
    for record in records:
        res = results[record.pair_id]
        for span, span_labels in zip(res.spans, res.labels_per_span):
            if label in span_labels:
                by_dataset.setdefault(record.dataset, []).append((record.pair_id, span.text))
    rng = np.random.default_rng([seed, len(by_dataset)])
    pools = []
    for dataset in sorted(by_dataset):
        pool = by_dataset[dataset]
        order = rng.permutation(len(pool))
        pools.append([pool[idx] for idx in order])
    picked: list[tuple[str, str]] = []
    round_idx = 0
    while len(picked) < k and any(round_idx < len(p) for p in pools):
        for pool in pools:
            if round_idx < len(pool) and len(picked) < k:
                picked.append(pool[round_idx])
        round_idx += 1
    if len(picked) < k:
        warnings.warn(
            f"only {len(picked)} positive spans available for '{label}' (requested {k})",
            stacklevel=2,
        )
    return picked
