"""Stability and diagnostic checks around the headline estimates.

Leave-one-dataset-out sign stability, per-dataset naive breakdowns,
headroom (ceiling) diagnostics, annotation-vs-surface construct
validity, per-feature spread, and the optimizer receptivity score. Every
diagnostic returns the rows the report bundle writes: `loo_stability`
the loo.csv rows (a LooReport's splits), `ceiling` the ceiling.json
document, `per_dataset_cate` the per_dataset.csv rows,
`construct_validity` provenance's validity pairs and `receptivity` the
receptivity.json document. All per-dataset naive values are diagnostics;
nothing here feeds back into the weighted estimates.
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from dataclasses import dataclass, field, replace
from importlib import resources
from itertools import permutations

import numpy as np

from . import surface as surface_mod
from .design import (
    CATEGORICAL_COVARIATES,
    PreparedCorpus,
    TestFamily,
    TreatmentSpec,
    present_codes,
)
from .errors import ConfigError, DegenerateCellError
from .estimation import sipw_stack
from .store import ComparisonRecord, headroom

EXACT_PERMUTATION_MAX_N = 7
MC_PERMUTATION_MAX_N = 20
MC_PERMUTATIONS = 10_000
# Below this p-value the t tail is summed directly rather than as 1 - A.
T_TAIL_SUMMED_BELOW = 0.1
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
    return _t_two_sided(t, n - 2)


def _t_two_sided(t: float, df: int) -> float:
    """P(|T| >= |t|) for Student's t with integer df >= 1.

    Abramowitz & Stegun 26.7.3-4 give A = P(|T| < t) as a finite series
    in cos^2 theta, theta = atan(t / sqrt(df)). The series continued to
    infinity sums to 1, so when p is small it is summed as that positive
    tail instead of as 1 - A, which would cancel. Powers of cos^2 theta
    step by subtracting sin^2 theta times the term while cos^2 theta is
    near 1, where its own rounding would compound over df / 2 steps.
    """
    t = abs(t)
    if df == 1:
        return math.atan2(1.0, t) / (math.pi / 2)
    d = df + t * t
    sin2 = t * t / d
    cos2 = df / d
    near_one = sin2 < 0.5
    odd = df % 2
    scale = math.sqrt(sin2)
    if odd:
        scale *= math.sqrt(cos2) / (math.pi / 2)
    term, head = 1.0, 0.0
    for k in range(df // 2):
        head += term
        term *= (2 * k + 1 + odd) / (2 * k + 2 + odd)
        term = term - term * sin2 if near_one else term * cos2
    inside = scale * head
    if odd:
        inside += math.atan2(t, math.sqrt(df)) / (math.pi / 2)
    if 1.0 - inside >= T_TAIL_SUMMED_BELOW:
        return 1.0 - inside
    tail, k = 0.0, df // 2
    # The term ratios rise towards cos^2 theta, so what is left after a term
    # is at most term / sin^2 theta. Subnormal terms lose digits and stop
    # shrinking, so they end the sum: a p-value under about 1e-290 loses
    # digits, and one under the smallest normal double reads as 0.
    while term > 1e-17 * sin2 * tail and term >= sys.float_info.min:
        tail += term
        term *= (2 * k + 1 + odd) / (2 * k + 2 + odd)
        term = term - term * sin2 if near_one else term * cos2
        k += 1
    return scale * tail


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
        if self.group_a == self.group_b:
            raise ConfigError(f"a sign reversal needs two groups, got '{self.group_a}' twice")
        signs = {self.baseline_sign_a, self.baseline_sign_b}
        if signs != {"+", "-"} and signs != {None}:
            raise ConfigError("baseline signs must be one '+' and one '-'")


@dataclass
class LooReport:
    reversal: SignReversalSpec
    baseline_a: float
    baseline_b: float
    splits: list[dict]
    skipped: list[tuple[str, str]] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.splits)

    @property
    def stable_count(self) -> int:
        return sum(1 for s in self.splits if s["stable"])


def sign_of(value: float) -> str:
    if value > 0.0:
        return "+"
    if value < 0.0:
        return "-"
    return "0"


def loo_stability(families: list[TestFamily], reversal: SignReversalSpec) -> LooReport:
    """Re-estimate a sign reversal with each dataset held out in turn.

    The reversal's two cells are the run's tested cells, found by
    cell_id in `families`; a cell that was not tested raises
    ConfigError with the reason it was excluded. The baselines are the
    cells' point fits. Each split refits the propensity model on a
    cell's rows outside the held-out dataset, as their own population; a
    unit depends only on its own record, so these are the units the
    remaining records would give. A split whose exclusion empties a cell
    or an arm is skipped with a note rather than scored; each scored
    split is one loo.csv row, its estimates unrounded. Reversal cells
    that draw on a single dataset produce total=0 and a warning. Signs
    left as None take the baseline estimates' signs, which must then be
    one '+' and one '-'.
    """
    spec = reversal.spec
    tested = {cell.cell_id: cell for family in families for cell in family.cells}
    excluded = {f"{c}:{group}": reason for f in families for c, group, reason in f.excluded}
    cells = []
    for cell_id in (f"{spec.cell_id}:{group}" for group in (reversal.group_a, reversal.group_b)):
        if cell_id not in tested:
            reason = excluded.get(cell_id, "no records")
            if not any(family.name == spec.view for family in families):
                reason = f"family '{spec.view}' has no testable cells"
            raise ConfigError(f"reversal cell {cell_id} is not tested: {reason}")
        cells.append(tested[cell_id])
    baseline_a, baseline_b = (cell.point_fit[0] for cell in cells)
    if reversal.baseline_sign_a is None:
        signs = sign_of(baseline_a), sign_of(baseline_b)
        if set(signs) != {"+", "-"}:
            raise ConfigError(
                f"the baselines {reversal.group_a}={baseline_a:+.3f} and "
                f"{reversal.group_b}={baseline_b:+.3f} are not a sign reversal: "
                "baseline signs must be one '+' and one '-'"
            )
        reversal = replace(reversal, baseline_sign_a=signs[0], baseline_sign_b=signs[1])
    column = CATEGORICAL_COVARIATES.index("dataset")
    dataset_codes = [cell.data.cat_codes[:, column] for cell in cells]
    levels = cells[0].data.frame.cat_levels[column]
    held_out: list[str] = []
    kept: list[list[np.ndarray]] = [[], []]
    skipped: list[tuple[str, str]] = []
    for code in present_codes(np.concatenate(dataset_codes)):
        dataset = levels[code]
        masks = [codes != code for codes in dataset_codes]
        if not all(np.any(mask) for mask in masks):
            skipped.append((dataset, "exclusion empties a reversal group"))
            continue
        if any(present_codes(c.data.treatment[m]).size != 2 for c, m in zip(cells, masks)):
            skipped.append((dataset, "exclusion empties a treatment arm"))
            continue
        held_out.append(dataset)
        for cell_kept, mask in zip(kept, masks):
            cell_kept.append(mask.astype(np.float64))
    # Each cell's splits are fitted together, as one stack.
    estimates = [sipw_stack(c.data, split)[0] if split else [] for c, split in zip(cells, kept)]
    signs = (reversal.baseline_sign_a, reversal.baseline_sign_b)
    splits = [
        {
            "excluded_dataset": dataset,
            "feature": spec.feature_name,
            "group_a": reversal.group_a,
            "group_b": reversal.group_b,
            "estimate_a": estimate_a,
            "estimate_b": estimate_b,
            "stable": (sign_of(estimate_a), sign_of(estimate_b)) == signs,
        }
        for dataset, estimate_a, estimate_b in zip(held_out, *estimates)
    ]
    if not splits:
        warnings.warn("no evaluable leave-one-out splits for this reversal", stacklevel=2)
    return LooReport(
        reversal=reversal,
        baseline_a=baseline_a,
        baseline_b=baseline_b,
        splits=splits,
        skipped=skipped,
    )


def per_dataset_cate(prepared: PreparedCorpus, spec: TreatmentSpec) -> list[dict]:
    """Unweighted treated-minus-control mean gain per dataset, in dataset-code order.

    Each row holds view, feature, dataset, cate, n_treated and n_control;
    cate is None where either arm is empty. Diagnostics only; never
    aggregated into headline estimates.
    """
    frame = prepared.frame
    rows, treatment = prepared.units(spec)
    column = CATEGORICAL_COVARIATES.index("dataset")
    datasets = frame.cat_codes[rows, column]
    gain = frame.gain[rows]
    out = []
    for code in present_codes(datasets):
        treated = gain[(datasets == code) & (treatment == 1)]
        control = gain[(datasets == code) & (treatment == 0)]
        cate = None
        if treated.size and control.size:
            cate = float(np.mean(treated) - np.mean(control))
        out.append(
            {
                "view": spec.view,
                "feature": spec.feature_name,
                "dataset": frame.cat_levels[column][code],
                "cate": cate,
                "n_treated": treated.size,
                "n_control": control.size,
            }
        )
    return out


def _rss(design: np.ndarray, y: np.ndarray) -> float:
    beta = np.linalg.lstsq(design, y, rcond=None)[0]
    residual = y - design @ beta
    return float(residual @ residual)


def partial_r2(headrooms, gains, groups) -> float:
    """Variance in gain that task group explains beyond headroom.

    (RSS_reduced - RSS_full) / RSS_reduced for least-squares fits of
    gain on headroom without and with group indicators; 0 when the
    reduced fit is perfect up to round-off, since a ratio of two
    round-off residuals would depend on the BLAS kernel, not the data.
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
    if rss_reduced <= np.finfo(np.float64).eps * float(y @ y):
        return 0.0
    rss_full = _rss(full, y)
    value = (rss_reduced - rss_full) / rss_reduced
    return float(min(1.0, max(0.0, value)))


def ceiling(records: list[ComparisonRecord], seed: int = 0) -> dict:
    """How strongly headroom (1 - base accuracy) drives gain: rho, p and partial R^2."""
    if len(records) < 3:
        raise ConfigError("ceiling diagnostics need at least 3 records")
    headrooms = [headroom(r) for r in records]
    gains = [r.gain for r in records]
    groups = [r.task_group for r in records]
    rho, p_value = spearman(headrooms, gains, seed=seed)
    return {
        "spearman_rho": rho,
        "spearman_p": p_value,
        "partial_r2": partial_r2(headrooms, gains, groups),
    }


def default_validity_pairs() -> list[tuple[str, str]]:
    text = resources.files("editfx.data").joinpath("validity_pairs.json").read_text("utf-8")
    return [tuple(pair) for pair in json.loads(text)["pairs"]]


def construct_validity(
    prepared: PreparedCorpus, pairs: list[tuple[str, str]] | None = None, seed: int = 0
) -> list[dict]:
    """Rank-correlate annotation scores with their surface proxies.

    Each pair's row holds annotation_feature, surface_feature, rho,
    p_value, n, note and validated (|rho| > VALIDATED_RHO and p_value <
    VALIDATED_P). Prompt states are pooled across before and after sides
    and deduplicated by exact instruction and demo text, since consecutive
    revision pairs share states and double counting would inflate n. A
    state's surface vector is the run's array row of its first annotated
    occurrence (an empty annotation object is none); its scores merge
    first-seen-wins per feature, so a repeat can add a feature. A
    pair with fewer than 3 states scored on its annotation feature, or
    whose ranks are constant on either side, gets rho=None with the
    reason as its note, and the other pairs are still computed;
    ConfigError, with the first pair's note, when no pair has 3 states.
    """
    if pairs is None:
        pairs = default_validity_pairs()
    n = len(prepared.records)
    states: dict[tuple[str, str], int] = {}
    indices: list[int] = []
    # Each annotation feature's column: pooled state number -> first score.
    columns: dict[str, dict[int, float]] = {}
    for row, record in enumerate(prepared.records):
        for offset, state, annotations in (
            (0, record.before, record.annotations_before),
            (n, record.after, record.annotations_after),
        ):
            if not annotations:
                continue
            k = states.setdefault((state.instruction_text, state.demo_text()), len(states))
            if k == len(indices):
                indices.append(offset + row)
            for feature, score in annotations.items():
                columns.setdefault(feature, {}).setdefault(k, score)
    vectors = np.concatenate(prepared.surface_arrays())[indices]
    results = []
    for annotation_feature, surface_feature in pairs:
        if surface_feature not in surface_mod.FEATURE_ORDER:
            raise ConfigError(f"unknown surface feature '{surface_feature}'")
        column = columns.get(annotation_feature, {})
        scored = sorted(column)
        xs = [column[k] for k in scored]
        ys = vectors[scored, surface_mod.FEATURE_ORDER.index(surface_feature)]
        rho, p_value, note = None, None, None
        if len(xs) < 3:
            note = f"pair ({annotation_feature}, {surface_feature}) has fewer than 3 states"
        else:
            try:
                rho, p_value = spearman(xs, ys, seed=seed)
            except DegenerateCellError as exc:
                note = str(exc)
        results.append(
            {
                "annotation_feature": annotation_feature,
                "surface_feature": surface_feature,
                "rho": rho,
                "p_value": p_value,
                "n": len(xs),
                "note": note,
                "validated": rho is not None and abs(rho) > VALIDATED_RHO and p_value < VALIDATED_P,
            }
        )
    if results and all(r["n"] < 3 for r in results):
        raise ConfigError(results[0]["note"])
    return results


def spread(estimates: dict[str, float]) -> float:
    """Max minus min of one feature's estimates across task groups."""
    if len(estimates) < 2:
        raise ConfigError("spread needs estimates for at least 2 groups")
    values = list(estimates.values())
    return max(values) - min(values)


def receptivity(prepared: PreparedCorpus, estimate_rows: list[dict]) -> dict:
    """The receptivity.json document: each optimizer's score in each task group.

    An optimizer's fingerprint is the features whose mean annotation delta
    (after minus before) over its records with both vectors exceeds
    FINGERPRINT_THRESHOLD in magnitude; its score in a group sums, in
    feature order, the group's annotation-view estimate times that delta.
    A corpus without annotation vectors or estimates gets a note instead,
    and an optimizer without a fingerprint, or a group without an estimate
    for one of its features, a note beside the scores.
    """
    if not prepared.annotated:
        return {"note": "receptivity requires annotation vectors; none present"}
    estimates: dict[str, dict[str, float]] = {}
    for row in estimate_rows:
        if row["view"] == "annotation":
            estimates.setdefault(row["task_group"], {})[row["feature"]] = row["acmgd_sipw"]
    if not estimates:
        return {"note": "no annotation-view estimates available"}
    frameworks = sorted({r.framework for r in prepared.records})
    totals: dict[str, dict[str, list]] = {framework: {} for framework in frameworks}
    for row, before, after in prepared.annotated:
        framework_totals = totals[prepared.records[row].framework]
        for feature, before_score in before.items():
            if feature in after:
                total = framework_totals.setdefault(feature, [0.0, 0])
                total[0] += after[feature] - before_score
                total[1] += 1
    scores, notes = [], []
    for framework, framework_totals in totals.items():
        means = {f: total / count for f, (total, count) in sorted(framework_totals.items())}
        fingerprint = {f: delta for f, delta in means.items() if abs(delta) > FINGERPRINT_THRESHOLD}
        if not fingerprint:
            notes.append(f"framework '{framework}' has no fingerprint features over threshold")
            continue
        for group, group_estimates in sorted(estimates.items()):
            missing = [f for f in fingerprint if f not in group_estimates]
            if missing:
                notes.append(f"no estimates for fingerprint features {missing} in '{group}'")
                continue
            score = sum(group_estimates[f] * delta for f, delta in fingerprint.items())
            scores.append(
                {
                    "task_group": group,
                    "optimizer": framework,
                    "score": float(score),
                    "fingerprint": fingerprint,
                }
            )
    doc: dict = {"scores": scores}
    if notes:
        doc["notes"] = sorted(set(notes))
    return doc
