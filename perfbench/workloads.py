"""Seeded corpora for the benchmark's workloads.

Each workload is a synthetic corpus from ``editfx.synth.generate`` plus
the ``editfx report`` flags it runs with. ``longtext`` rewrites its
corpus so that diffing and surface statistics, not inference, do most of
the work. The same seed always gives the same corpus bytes; the recipe
and the file's sha256 go into every result so a changed input shows.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from editfx.store import PromptState, serialize  # noqa: E402
from editfx.synth import TREATED_SPAN, VOCAB, SynthConfig, generate  # noqa: E402

# longtext rewrite: every prompt is padded to a body length taken from a
# fixed schedule (so total work does not depend on the seed), 1% of
# prompts form a long tail, and one-word substitutions are scattered
# through every after-prompt, the first within the opening tokens so the
# diff cannot take its common-prefix shortcut.
LONGTEXT_N = 500
LONG_TAIL = 5
LONG_TOKENS = 5000
BODY_MIN, BODY_MAX = 300, 1000
SUBSTITUTION_EVERY = 120
FIRST_SUBSTITUTION_WITHIN = 16
SPAN_CLEARANCE = 4


@dataclass(frozen=True)
class Corpus:
    workload: str
    seed: int
    path: Path
    sha256: str
    records: int
    report_args: tuple[str, ...]
    recipe: dict
    tau: float
    expected_naive_bias: float
    planted_spans: int

    def describe(self) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "file": self.path.name,
            "sha256": self.sha256,
            "records": self.records,
            "report_args": list(self.report_args),
            "recipe": self.recipe,
        }


def synth_config(workload: str, seed: int) -> SynthConfig:
    if workload == "bench7":
        return SynthConfig(seed=seed)
    if workload == "manyblocks":
        return SynthConfig(
            n=5000,
            datasets=tuple(f"ds_{i:02d}" for i in range(25)),
            groups=("math",),
            seed=seed,
        )
    if workload == "longtext":
        return SynthConfig(n=LONGTEXT_N, annotate=True, seed=seed)
    raise ValueError(f"unknown workload '{workload}'")


def report_args(workload: str, seed: int) -> tuple[str, ...]:
    extra = {
        "bench7": (),
        "manyblocks": ("--resamples", "100"),
        "longtext": ("--resamples", "50", "--include-demos"),
    }[workload]
    return ("--seed", str(seed), *extra)


def body_lengths(n: int, rng: np.random.Generator) -> np.ndarray:
    """Token lengths: LONG_TAIL prompts of LONG_TOKENS, the rest evenly spread."""
    lengths = np.rint(np.linspace(BODY_MIN, BODY_MAX, n - LONG_TAIL)).astype(np.int64)
    lengths = np.concatenate([lengths, np.full(LONG_TAIL, LONG_TOKENS, dtype=np.int64)])
    return lengths[rng.permutation(n)]


def substitution_positions(
    length: int, span_at: int | None, rng: np.random.Generator
) -> list[int]:
    """One early position, then one per SUBSTITUTION_EVERY tokens, clear of the span."""
    positions = [int(rng.integers(0, FIRST_SUBSTITUTION_WITHIN))]
    for start in range(SUBSTITUTION_EVERY, length, SUBSTITUTION_EVERY):
        offset = int(rng.integers(0, min(SUBSTITUTION_EVERY // 2, length - start)))
        positions.append(start + offset)
    if span_at is None:
        return positions
    return [p for p in positions if abs(p - span_at) > SPAN_CLEARANCE]


def rewrite_longtext(records: list, seed: int) -> list:
    """Pad, substitute, move the planted span mid-prompt and attach demos.

    The generator's treated records are exactly those whose after-prompt
    ends with TREATED_SPAN; each keeps exactly one span after rewriting.
    """
    rng = np.random.default_rng([seed, 0x10E6])
    lengths = body_lengths(len(records), rng)
    span_words = TREATED_SPAN.split()
    out = []
    for record, length in zip(records, lengths):
        treated = record.after.instruction_text.endswith(TREATED_SPAN)
        base = record.before.instruction_text.split()
        pad = rng.integers(0, len(VOCAB), size=int(length) - len(base))
        before = base + [VOCAB[k] for k in pad]
        span_at = len(before) // 2 if treated else None
        after = list(before)
        for pos in substitution_positions(len(before), span_at, rng):
            shift = int(rng.integers(1, len(VOCAB)))
            after[pos] = VOCAB[(VOCAB.index(after[pos]) + shift) % len(VOCAB)]
        if treated:
            after[span_at:span_at] = span_words
        demos = tuple(
            {
                "input": " ".join(VOCAB[k] for k in rng.integers(0, len(VOCAB), size=8)),
                "output": " ".join(VOCAB[k] for k in rng.integers(0, len(VOCAB), size=4)),
            }
            for _ in range(int(rng.integers(1, 4)))
        )
        out.append(
            dataclasses.replace(
                record,
                before=PromptState(instruction_text=" ".join(before), demos=demos),
                after=PromptState(instruction_text=" ".join(after), demos=demos),
            )
        )
    return out


def build(workload: str, seed: int, out_dir: Path) -> Corpus:
    """Write the workload's corpus for this seed under out_dir."""
    cfg = synth_config(workload, seed)
    records, truth = generate(cfg)
    recipe = {"synth": cfg.to_json()}
    planted = sum(r.after.instruction_text.endswith(TREATED_SPAN) for r in records)
    if workload == "longtext":
        records = rewrite_longtext(records, seed)
        recipe["rewrite"] = {
            "long_tail": LONG_TAIL,
            "long_tokens": LONG_TOKENS,
            "body_tokens": [BODY_MIN, BODY_MAX],
            "substitution_every": SUBSTITUTION_EVERY,
            "first_substitution_within": FIRST_SUBSTITUTION_WITHIN,
            "span": "mid-prompt",
            "demos": "1-3 per record, identical before and after",
        }
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{workload}-{seed}.jsonl"
    serialize(records, path)
    args = report_args(workload, seed)
    return Corpus(
        workload=workload,
        seed=seed,
        path=path,
        sha256=hashlib.sha256(path.read_bytes()).hexdigest(),
        records=len(records),
        report_args=args,
        recipe=recipe,
        tau=truth.tau,
        expected_naive_bias=truth.expected_naive_bias,
        planted_spans=int(planted),
    )
