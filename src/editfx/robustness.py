"""Stability and diagnostic checks around the headline estimates.

Leave-one-dataset-out sign stability, per-dataset naive breakdowns,
headroom (ceiling) diagnostics, annotation-vs-surface construct
validity, per-feature spread, and the optimizer receptivity score.
All per-dataset naive values are diagnostics; nothing here feeds back
into the weighted estimates.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from dataclasses import dataclass, field, replace
from importlib import resources
from itertools import permutations
from pathlib import Path

import numpy as np
from scipy.special import stdtr

from . import surface as surface_mod
from .design import (
    CATEGORICAL_COVARIATES,
    CellData,
    PreparedCorpus,
    TestCell,
    TreatmentSpec,
    build_units,
    prepared_for,
)
from .errors import ConfigError, DegenerateCellError
from .estimation import sipw
from .store import ComparisonRecord, headroom

EXACT_PERMUTATION_MAX_N = 7
MC_PERMUTATION_MAX_N = 20
MC_PERMUTATIONS = 10_000
VALIDATED_RHO = 0.10
VALIDATED_P = 0.10
FINGERPRINT_THRESHOLD = 0.5


def spearman(x, y, seed: int = 0) -> tuple[float, float]:
    """Rank correlation with average-rank ties, plus a two-sided p-value.

    The p-value policy depends on n: exact enumeration of all rank
    permutations for n <= 7, a seeded Monte Carlo permutation test
    (10,000 draws) for n <= 20, and the usual t approximation above
    that. The Monte Carlo branch is deterministic given the seed.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = x.size
    if n != y.size:
        raise ConfigError("spearman inputs must have equal length")
    if n < 3:
        raise ConfigError("spearman needs at least 3 observations")
    rx = _average_ranks(x)
    ry = _average_ranks(y)
    if np.all(rx == rx[0]) or np.all(ry == ry[0]):
        raise DegenerateCellError("constant input; rank correlation undefined")
    rho = _pearson(rx, ry)
    if n > MC_PERMUTATION_MAX_N:
        p_value = _spearman_p_t(rho, n)
    elif n > EXACT_PERMUTATION_MAX_N:
        p_value = _spearman_p_mc(rx, ry, rho, seed)
    else:
        p_value = _spearman_p_exact(rx, ry, rho)
    return float(rho), float(p_value)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, ties sharing the mean of the ranks they span."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], values.size]
    ranks = np.empty(values.size, dtype=np.float64)
    ranks[order] = np.repeat((starts + ends + 1) / 2, ends - starts)
    return ranks


def _pearson(a: np.ndarray, b: np.ndarray) -> float:
    a = a - a.mean()
    b = b - b.mean()
    denominator = math.sqrt(float(a @ a) * float(b @ b))
    return float(a @ b) / denominator


def _spearman_p_t(rho: float, n: int) -> float:
    if abs(rho) >= 1.0:
        return 0.0
    t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
    return 2.0 * float(stdtr(n - 2, -abs(t)))


def _spearman_p_exact(rx: np.ndarray, ry: np.ndarray, rho: float) -> float:
    threshold = abs(rho) - 1e-12
    hits = 0
    total = 0
    for perm in permutations(range(rx.size)):
        total += 1
        if abs(_pearson(rx, ry[list(perm)])) >= threshold:
            hits += 1
    return hits / total


def _spearman_p_mc(rx: np.ndarray, ry: np.ndarray, rho: float, seed: int) -> float:
    rng = np.random.default_rng([seed, rx.size])
    threshold = abs(rho) - 1e-12
    hits = 0
    shuffled = ry.copy()
    for _ in range(MC_PERMUTATIONS):
        rng.shuffle(shuffled)
        if abs(_pearson(rx, shuffled)) >= threshold:
            hits += 1
    return (1 + hits) / (1 + MC_PERMUTATIONS)


@dataclass(frozen=True)
class SignReversalSpec:
    """Two groups' expected signs for one feature; both None: the baseline's own."""

    spec: TreatmentSpec
    group_a: str
    group_b: str
    baseline_sign_a: str | None
    baseline_sign_b: str | None

    def __post_init__(self):
        signs = {self.baseline_sign_a, self.baseline_sign_b}
        if signs != {"+", "-"} and signs != {None}:
            raise ConfigError("baseline signs must be one '+' and one '-'")


@dataclass(frozen=True)
class LooSplit:
    excluded_dataset: str
    estimate_a: float
    estimate_b: float
    stable: bool


@dataclass
class LooReport:
    reversal: SignReversalSpec
    baseline_a: float
    baseline_b: float
    splits: list[LooSplit]
    skipped: list[tuple[str, str]] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.splits)

    @property
    def stable_count(self) -> int:
        return sum(1 for s in self.splits if s.stable)


def sign_of(value: float) -> str:
    if value > 0.0:
        return "+"
    if value < 0.0:
        return "-"
    return "0"


def baseline_cells(
    records: list[ComparisonRecord],
    spec: TreatmentSpec,
    groups: tuple[str, str],
    prepared: PreparedCorpus | None = None,
) -> tuple[list[TestCell], list[float]]:
    """Each reversal group's cell over the whole corpus, and its SIPW estimate.

    Raises ConfigError for a group with no records and DegenerateCellError
    for a group whose cell has an empty arm.
    """
    for group in groups:
        if not any(r.task_group == group for r in records):
            raise ConfigError(f"reversal references task group '{group}' with no records")
    prepared = prepared_for(records, prepared)
    frame = prepared.frame
    rows, treatment = build_units(prepared, spec)
    in_group = [frame.group_codes[rows] == frame.groups.index(group) for group in groups]
    if any(np.unique(treatment[mask]).size != 2 for mask in in_group):
        raise DegenerateCellError("baseline cell for the reversal has an empty arm")
    cells = [
        TestCell(spec=spec, task_group=group, data=CellData(frame, rows[mask], treatment[mask]))
        for group, mask in zip(groups, in_group)
    ]
    return cells, [sipw(cell.data)[0] for cell in cells]


def loo_stability(
    records: list[ComparisonRecord],
    reversal: SignReversalSpec,
    prepared: PreparedCorpus | None = None,
) -> LooReport:
    """Re-estimate a sign reversal with each dataset held out in turn.

    Each split refits the propensity model on the baseline cells' rows
    outside the held-out dataset, as their own population; a unit
    depends only on its own record, so these are the units the
    remaining records would give. A split whose exclusion empties a
    group or an arm is skipped with a note rather than scored. A corpus
    whose reversal groups draw on a single dataset produces total=0 and
    a warning. Signs left as None take the baseline estimates' signs.
    """
    groups = (reversal.group_a, reversal.group_b)
    cells, (baseline_a, baseline_b) = baseline_cells(records, reversal.spec, groups, prepared)
    if reversal.baseline_sign_a is None:
        reversal = replace(
            reversal, baseline_sign_a=sign_of(baseline_a), baseline_sign_b=sign_of(baseline_b)
        )
    datasets = sorted({r.dataset for r in records if r.task_group in groups})
    column = CATEGORICAL_COVARIATES.index("dataset")
    levels = cells[0].data.frame.cat_levels[column]
    splits: list[LooSplit] = []
    skipped: list[tuple[str, str]] = []
    for dataset in datasets:
        if not {r.task_group for r in records if r.dataset != dataset}.issuperset(groups):
            skipped.append((dataset, "exclusion empties a reversal group"))
            continue
        code = levels.index(dataset)
        kept = [np.flatnonzero(cell.data.cat_codes[:, column] != code) for cell in cells]
        if any(np.unique(cell.data.treatment[rows]).size != 2 for cell, rows in zip(cells, kept)):
            skipped.append((dataset, "exclusion empties a treatment arm"))
            continue
        estimate_a, estimate_b = (sipw(cell.data, rows)[0] for cell, rows in zip(cells, kept))
        stable = (
            sign_of(estimate_a) == reversal.baseline_sign_a
            and sign_of(estimate_b) == reversal.baseline_sign_b
        )
        splits.append(
            LooSplit(
                excluded_dataset=dataset,
                estimate_a=estimate_a,
                estimate_b=estimate_b,
                stable=stable,
            )
        )
    if not splits:
        warnings.warn("no evaluable leave-one-out splits for this reversal", stacklevel=2)
    return LooReport(
        reversal=reversal,
        baseline_a=baseline_a,
        baseline_b=baseline_b,
        splits=splits,
        skipped=skipped,
    )


@dataclass(frozen=True)
class DatasetCate:
    cate: float
    n_treated: int
    n_control: int

    @property
    def defined(self) -> bool:
        return not math.isnan(self.cate)


def per_dataset_cate(
    records: list[ComparisonRecord],
    spec: TreatmentSpec,
    prepared: PreparedCorpus | None = None,
) -> dict[str, DatasetCate]:
    """Unweighted treated-minus-control mean gain per dataset.

    Datasets where either arm is empty get cate=nan. Diagnostics only;
    never aggregated into headline estimates.
    """
    prepared = prepared_for(records, prepared)
    frame = prepared.frame
    rows, treatment = build_units(prepared, spec)
    column = CATEGORICAL_COVARIATES.index("dataset")
    datasets = frame.cat_codes[rows, column]
    gain = frame.gain[rows]
    out: dict[str, DatasetCate] = {}
    for code in np.unique(datasets):
        treated = gain[(datasets == code) & (treatment == 1)]
        control = gain[(datasets == code) & (treatment == 0)]
        if treated.size and control.size:
            cate = float(np.mean(treated) - np.mean(control))
        else:
            cate = math.nan
        out[frame.cat_levels[column][code]] = DatasetCate(
            cate=cate, n_treated=treated.size, n_control=control.size
        )
    return out


@dataclass(frozen=True)
class CeilingReport:
    spearman_rho: float
    spearman_p: float
    partial_r2: float

    def to_json(self) -> dict:
        return {
            "spearman_rho": self.spearman_rho,
            "spearman_p": self.spearman_p,
            "partial_r2": self.partial_r2,
        }


def _rss(design: np.ndarray, y: np.ndarray) -> float:
    beta = np.linalg.lstsq(design, y, rcond=None)[0]
    residual = y - design @ beta
    return float(residual @ residual)


def partial_r2(headrooms, gains, groups) -> float:
    """Variance in gain that task group explains beyond headroom.

    (RSS_reduced - RSS_full) / RSS_reduced for least-squares fits of
    gain on headroom without and with group indicators.
    """
    h = np.asarray(headrooms, dtype=np.float64)
    y = np.asarray(gains, dtype=np.float64)
    levels = sorted(set(groups))
    if len(levels) < 2:
        raise ConfigError("partial R^2 needs at least 2 task groups")
    n = h.size
    reduced = np.column_stack([np.ones(n), h])
    dummies = [
        (np.asarray(groups, dtype=object) == level).astype(np.float64)
        for level in levels[1:]
    ]
    full = np.column_stack([reduced, *dummies])
    rss_reduced = _rss(reduced, y)
    rss_full = _rss(full, y)
    if rss_reduced == 0.0:
        return 0.0
    value = (rss_reduced - rss_full) / rss_reduced
    return float(min(1.0, max(0.0, value)))


def ceiling(records: list[ComparisonRecord], seed: int = 0) -> CeilingReport:
    """How strongly headroom (1 - base accuracy) drives gain."""
    if len(records) < 3:
        raise ConfigError("ceiling diagnostics need at least 3 records")
    headrooms = [headroom(r) for r in records]
    gains = [r.gain for r in records]
    groups = [r.task_group for r in records]
    rho, p_value = spearman(headrooms, gains, seed=seed)
    return CeilingReport(
        spearman_rho=rho,
        spearman_p=p_value,
        partial_r2=partial_r2(headrooms, gains, groups),
    )


@dataclass(frozen=True)
class ValidityResult:
    """One pair's rank correlation; rho and p_value are None, with a note, when undefined."""

    annotation_feature: str
    surface_feature: str
    rho: float | None
    p_value: float | None
    n: int
    note: str | None = None

    @property
    def validated(self) -> bool:
        return self.rho is not None and abs(self.rho) > VALIDATED_RHO and self.p_value < VALIDATED_P


def default_validity_pairs() -> list[tuple[str, str]]:
    text = resources.files("editfx.data").joinpath("validity_pairs.json").read_text("utf-8")
    return [tuple(pair) for pair in json.loads(text)["pairs"]]


def construct_validity(
    records: list[ComparisonRecord],
    pairs: list[tuple[str, str]] | None = None,
    prepared: PreparedCorpus | None = None,
    seed: int = 0,
) -> list[ValidityResult]:
    """Rank-correlate annotation scores with their surface proxies.

    Surface vectors come from the prepared corpus, so they use the run's
    word lists. Prompt states are pooled across before and after sides and
    deduplicated by exact text hash, since consecutive revision pairs
    share states and double counting would inflate n. A pair whose ranks
    are constant on either side gets rho=None with the reason as its note,
    and the other pairs are still computed.
    """
    if pairs is None:
        pairs = default_validity_pairs()
    if prepared is None:
        prepared = PreparedCorpus(records)
    states: dict[str, tuple[dict, dict[str, float]]] = {}
    for record in records:
        for side, state, annotations in (
            (0, record.before, record.annotations_before),
            (1, record.after, record.annotations_after),
        ):
            if annotations is None:
                continue
            key = hashlib.sha256(
                (state.instruction_text + "\x00" + state.demo_text()).encode("utf-8")
            ).hexdigest()
            if key not in states:
                states[key] = (prepared.surface_pair(record)[side], dict(annotations))
            else:
                existing = states[key][1]
                for feature, score in annotations.items():
                    existing.setdefault(feature, score)
    results = []
    for annotation_feature, surface_feature in pairs:
        if surface_feature not in surface_mod.FEATURE_ORDER:
            raise ConfigError(f"unknown surface feature '{surface_feature}'")
        xs, ys = [], []
        for vector, annotations in states.values():
            if annotation_feature in annotations:
                xs.append(annotations[annotation_feature])
                ys.append(vector[surface_feature])
        if len(xs) < 3:
            raise ConfigError(
                f"pair ({annotation_feature}, {surface_feature}) has fewer than 3 states"
            )
        rho, p_value, note = None, None, None
        try:
            rho, p_value = spearman(xs, ys, seed=seed)
        except DegenerateCellError as exc:
            note = str(exc)
        results.append(
            ValidityResult(
                annotation_feature=annotation_feature,
                surface_feature=surface_feature,
                rho=rho,
                p_value=p_value,
                n=len(xs),
                note=note,
            )
        )
    return results


def spread(estimates: dict[str, float]) -> float:
    """Max minus min of one feature's estimates across task groups."""
    if len(estimates) < 2:
        raise ConfigError("spread needs estimates for at least 2 groups")
    values = list(estimates.values())
    return max(values) - min(values)


@dataclass(frozen=True)
class ReceptivityScore:
    task_group: str
    optimizer: str
    score: float
    fingerprint: dict[str, float]

    def to_json(self) -> dict:
        return {
            "task_group": self.task_group,
            "optimizer": self.optimizer,
            "score": self.score,
            "fingerprint": dict(sorted(self.fingerprint.items())),
        }


def fingerprint_from_records(
    records: list[ComparisonRecord],
    framework: str | None = None,
    threshold: float = FINGERPRINT_THRESHOLD,
) -> dict[str, float]:
    """Features an optimizer predominantly changes: |mean delta| > threshold.

    Deltas are annotation-scale (after minus before) means over the
    optimizer's records (all records when framework is None).
    """
    sums: dict[str, float] = {}
    counts: dict[str, int] = {}
    for record in records:
        if framework is not None and record.framework != framework:
            continue
        if record.annotations_before is None or record.annotations_after is None:
            continue
        for feature, before_score in record.annotations_before.items():
            if feature in record.annotations_after:
                sums[feature] = sums.get(feature, 0.0) + (
                    record.annotations_after[feature] - before_score
                )
                counts[feature] = counts.get(feature, 0) + 1
    return {
        feature: sums[feature] / counts[feature]
        for feature in sorted(sums)
        if abs(sums[feature] / counts[feature]) > threshold
    }


def receptivity(
    estimates: dict[str, float],
    fingerprint: dict[str, float],
    task_group: str,
    optimizer: str = "all",
    significant: set[str] | None = None,
) -> ReceptivityScore:
    """score = sum over fingerprint features of estimate(f) * mean delta(f).

    `significant` optionally restricts the fingerprint to features whose
    cell passed FDR correction; the unfiltered sum is the normative
    definition.
    """
    if significant is not None:
        fingerprint = {f: d for f, d in fingerprint.items() if f in significant}
    if not fingerprint:
        raise ConfigError("receptivity needs a nonempty fingerprint")
    missing = [f for f in fingerprint if f not in estimates]
    if missing:
        raise ConfigError(f"no estimates for fingerprint features {missing} in '{task_group}'")
    score = sum(estimates[f] * delta for f, delta in fingerprint.items())
    return ReceptivityScore(
        task_group=task_group,
        optimizer=optimizer,
        score=float(score),
        fingerprint=dict(fingerprint),
    )
