"""Word-level diffs between consecutive prompts and inserted-span motifs.

The diff is a minimal edit script under the longest-common-subsequence
metric over tokens, with deterministic earliest-match tie-breaking. Its
suffix LCS lengths come from bit-parallel rows, one bit per cell
(Allison & Dix 1986, Inf. Process. Lett. 23:305; Hyyro 2004,
"Bit-parallel LCS-length computation revisited"). Inserted runs of at
least MIN_SPAN_TOKENS tokens become spans, which a frozen pattern
ruleset classifies into four motif categories. A span may carry several
labels; co-occurrence statistics rely on that.
"""

from __future__ import annotations

import hashlib
import json
import re
import warnings
from dataclasses import dataclass
from importlib import resources
from itertools import combinations, islice
from typing import Callable

import numpy as np

from . import MOTIF_LABELS
from .errors import ConfigError, SchemaError
from .store import ComparisonRecord
from .surface import _TOKEN, tokenize

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
        # A label's phrases as one alternation, or no pattern if it has none.
        self._phrase: dict[str, list[re.Pattern]] = {}
        self._regex: dict[str, list[re.Pattern]] = {}
        self._pairs: dict[str, list[tuple[str, str, int]]] = {}
        for label, patterns in labels.items():
            if not patterns:
                raise ConfigError(f"label '{label}' has no patterns")
            phrases: list[str] = []
            self._regex[label] = []
            self._pairs[label] = []
            for pat in patterns:
                kind = pat.get("kind")
                if kind == "phrase":
                    words = pat["text"].lower().split()
                    if not words:
                        raise ConfigError("empty phrase pattern")
                    phrases.append(r"\ ".join(re.escape(w) for w in words))
                elif kind == "regex":
                    self._regex[label].append(re.compile(pat["pattern"], re.IGNORECASE))
                elif kind == "window_pair":
                    window = int(pat["window"])
                    if window < 1:
                        raise ConfigError("window_pair window must be >= 1")
                    self._pairs[label].append((pat["a"].lower(), pat["b"].lower(), window))
                else:
                    raise ConfigError(f"unknown pattern kind '{kind}'")
            self._phrase[label] = [re.compile(rf"\b(?:{'|'.join(phrases)})\b")] if phrases else []

    def match(self, span: InsertedSpan) -> frozenset[str]:
        """All labels with a pattern that matches the span.

        A label's phrases are searched as one alternation, which matches
        exactly where one of the phrases alone would; its regex patterns
        are searched one by one, since they may hold groups or backrefs.
        """
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


_default_rules: MotifRuleset | None = None


def default_ruleset() -> MotifRuleset:
    global _default_rules
    if _default_rules is None:
        text = resources.files("editfx.data").joinpath("motif_rules.json").read_text("utf-8")
        _default_rules = MotifRuleset(json.loads(text))
    return _default_rules


def word_diff(before_tokens: list[str], after_tokens: list[str]) -> list[EditRun]:
    """Minimal LCS edit script from before_tokens to after_tokens.

    Tie-breaking is fixed: a match is taken whenever one is available at
    the current position (earliest match), and deletions are emitted
    before insertions when both are optimal. The walk decides run by run:
    a common run is kept whole (its length from _common_run), and delete
    and insert runs are decided token by token. Each maximal run is
    emitted as it ends.
    """
    # Common prefix is always part of an optimal earliest-match alignment.
    i = _common_run(before_tokens, 0, after_tokens, 0)
    script = [EditRun("keep", tuple(before_tokens[:i]))] if i else []
    before, after = before_tokens[i:], after_tokens[i:]
    rows = _lcs_rows(before, after)
    n, m = len(before), len(after)
    bi, bj = 0, 0
    # The low m - bj bits of a row stand for after[bj:].
    mask = (1 << m) - 1

    def keeps() -> bool:
        return bi < n and bj < m and before[bi] == after[bj]

    def deletes() -> bool:
        # Deleting keeps the LCS when LCS(before[bi+1:], after[bj:]) equals
        # LCS(before[bi:], after[bj:]): equal popcounts under the same mask.
        return bi < n and (rows[bi + 1] & mask).bit_count() == (rows[bi] & mask).bit_count()

    while bi < n or bj < m:
        if keeps():
            # Earliest match keeps every token of the common run in turn.
            k = _common_run(before, bi, after, bj)
            script.append(EditRun("keep", tuple(before[bi : bi + k])))
            bi, bj, mask = bi + k, bj + k, mask >> k
        start = bi
        while not keeps() and deletes():
            bi += 1
        if bi > start:
            script.append(EditRun("delete", tuple(before[start:bi])))
        start = bj
        while bj < m and not (keeps() or deletes()):
            bj, mask = bj + 1, mask >> 1
        if bj > start:
            script.append(EditRun("insert", tuple(after[start:bj])))
    return script


def _common_run(a: list[str], i: int, b: list[str], j: int) -> int:
    """Length of the longest common prefix of a[i:] and b[j:].

    Slices are compared in chunks that double from 8 tokens until one
    differs or runs out; the first difference inside that chunk is then
    found by bisection.
    """
    k, step = 0, 8
    while True:
        chunk = a[i + k : i + k + step]
        if chunk != b[j + k : j + k + step]:
            break
        k += len(chunk)
        if len(chunk) < step:
            return k
        step *= 2
    # The first difference lies in the step tokens from k on.
    while step > 1:
        step //= 2
        if a[i + k : i + k + step] == b[j + k : j + k + step]:
            k += step
    return k


def _lcs_rows(before: list[str], after: list[str]) -> list[int]:
    """Bit-parallel suffix LCS rows, one bit per cell, as Python ints.

    rows[i] encodes every LCS(before[i:], after[j:]) as
    k - popcount(rows[i] & ((1 << k) - 1)) with k = m - j. The rows are
    built over both sequences read backwards, one step per before token
    in Hyyro's form of the Allison-Dix recurrence: U = V & M[token],
    V = ((V + U) | (V - U)) & full, where bit k of M[token] marks
    after[m - 1 - k] == token (Allison & Dix 1986, Inf. Process. Lett.
    23:305; Hyyro 2004, "Bit-parallel LCS-length computation revisited").
    The rows take (n + 1) * m bits.
    """
    masks: dict[str, int] = {}
    for k, token in enumerate(reversed(after)):
        masks[token] = masks.get(token, 0) | (1 << k)
    full = (1 << len(after)) - 1
    v = full
    rows = [v]
    for token in reversed(before):
        u = v & masks.get(token, 0)
        if u:
            v = ((v + u) | (v - u)) & full
        rows.append(v)
    rows.reverse()
    return rows


def extract_spans(script: list[EditRun], after_text: str) -> list[InsertedSpan]:
    """Materialize inserted runs of >= 4 tokens, with original-case text.

    The script must come from the token stream of after_text so that
    token offsets line up. The text is scanned only when the script has
    a run long enough to become a span, and only up to the last span's
    last token.
    """
    if not any(run.op == "insert" and len(run.tokens) >= MIN_SPAN_TOKENS for run in script):
        return []
    matches = _TOKEN.finditer(after_text)
    scanned = 0  # tokens of after_text taken from matches so far
    spans: list[InsertedSpan] = []
    pos = 0
    for run in script:
        if run.op == "delete":
            continue
        if run.op == "insert" and len(run.tokens) >= MIN_SPAN_TOKENS:
            first = next(islice(matches, pos - scanned, None), None)
            last = next(islice(matches, len(run.tokens) - 2, None), None)
            scanned = pos + len(run.tokens)
            if last is None:
                raise SchemaError("edit script does not align with after text")
            text = after_text[first.start() : last.end()]
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
    tokens: Callable[[str], list[str]] = tokenize,
) -> MotifResult:
    """Diff one record's prompts and classify its inserted spans.

    By default only the instruction text is diffed; include_demos=True
    appends the concatenated demo text after a blank line, which is
    noisier (structured demo field names such as "reasoning" then count
    as insertions). `tokens` maps a text to tokenize(text); a caller that
    keeps token lists passes its lookup. The joined text's tokens are the
    two texts' tokens joined, because no token crosses whitespace.
    """
    if rules is None:
        rules = default_ruleset()
    after_text = record.after.instruction_text
    before_tokens = tokens(record.before.instruction_text)
    after_tokens = tokens(after_text)
    if include_demos:
        before_tokens = before_tokens + tokens(record.before.demo_text())
        after_demos = record.after.demo_text()
        after_tokens = after_tokens + tokens(after_demos)
        after_text = after_text + "\n\n" + after_demos
    script = word_diff(before_tokens, after_tokens)
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
