"""Block-bootstrap uncertainty, BH-FDR correction, and evidence tiers.

Standard errors come from resampling whole (dataset, backbone) blocks
with replacement and rerunning the estimator per resample; p-values from
a two-sided normal approximation by default. BH step-up runs within one
family at a time, never pooled across families.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .design import TestCell, TestFamily, contents, map_cells
from .errors import ConfigError, PositivityError, UnstableCellError
from .estimation import sipw_stack, weighted_difference

TIER_BH = "bh_significant"
TIER_UNCORRECTED = "uncorrected_significant"
TIER_NONE = "none"

TIER_MARKERS = {TIER_BH: "★", TIER_UNCORRECTED: "*", TIER_NONE: ""}


@dataclass(frozen=True)
class BootstrapResult:
    estimate: float
    se: float
    p_value: float
    resample_estimates: np.ndarray
    valid_resamples: int
    discarded: int
    n_blocks: int
    distinct_resamples: int
    nonconverged: int


@dataclass(frozen=True)
class InferenceResult(BootstrapResult):
    """One tested cell: its content's bootstrap, with the cell's name, q-value and tier.

    content is the cell_id of the content's first cell, whose seed the bootstrap used.
    """

    view: str
    feature: str
    task_group: str
    q_value: float
    tier: str
    content: str

    @property
    def marker(self) -> str:
        return TIER_MARKERS[self.tier]

    @property
    def cell_id(self) -> str:
        return f"{self.view}:{self.feature}:{self.task_group}"


def derive_cell_seed(master_seed: int, view: str, feature: str, group: str) -> int:
    """Stable seed of one cell identity, so results do not depend on scheduling order.

    infer_all seeds each content's bootstrap with its first cell's seed.
    """
    digest = hashlib.sha256(f"{master_seed}|{view}|{feature}|{group}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def block_bootstrap(
    cell: TestCell,
    *,
    resamples: int = 500,
    seed: int = 0,
    refit: bool = True,
    percentile_p: bool = False,
    recipe: str = "sipw",
    mode: str = "block",
) -> BootstrapResult:
    """Bootstrap one cell's estimate over `resamples` draws (at least 2, as RunConfig checks).

    recipe "sipw" reruns propensity fit, weighting, and the weighted
    difference per resample (or reuses the point-estimate weights when
    refit is false), around the cell's own fit `cell.point_fit`; "naive"
    bootstraps the unweighted difference.
    mode "block" resamples whole blocks with replacement, keeping the
    original block count; mode "iid" resamples units, for comparison
    only. A resample is a frequency weight per row: how often its block
    (or the row itself) was drawn. Resamples that empty an arm are
    discarded and counted. Block resamples that draw the same multiset
    of blocks as an earlier one reuse its outcome; `distinct_resamples`
    counts the multisets drawn (every draw in iid mode). All draws are
    made first; the refits of the multisets not discarded are then one
    stacked fit, and `nonconverged` counts those that hit MAX_ITERATIONS.
    The result depends on the cell's data, the seed and the settings
    alone, not on the cell's name.
    """
    if recipe not in ("sipw", "naive"):
        raise ConfigError("recipe must be 'sipw' or 'naive'")
    if mode not in ("block", "iid"):
        raise ConfigError("mode must be 'block' or 'iid'")
    data = cell.data
    n_blocks = len(data.blocks)
    if mode == "block" and n_blocks < 2:
        raise ConfigError("block bootstrap needs at least 2 blocks")

    t = data.treatment.astype(np.float64)
    weights = np.ones(data.n)
    if recipe == "sipw":
        point, point_weights, _ = cell.point_fit
        weights = None if refit else point_weights.weights
    if recipe == "naive":
        point = weighted_difference(t, data.outcome, weights)

    # Draw every resample first. The rows' weights, and so the outcome,
    # depend only on how often each block was drawn, so each distinct
    # multiset is one population, in the order first drawn:
    # population[k][columns[i]] is how often row i is counted in it.
    columns = data.block_codes if mode == "block" else np.arange(data.n)
    size = n_blocks if mode == "block" else data.n
    drawn = np.array(
        [np.random.default_rng([seed, r]).integers(0, size, size=size) for r in range(resamples)]
    )
    drawn += np.arange(resamples)[:, None] * size
    counts = np.bincount(drawn.ravel(), minlength=resamples * size).reshape(resamples, size)
    population, draws = counts, np.arange(resamples)
    if mode == "block":
        unique, first, inverse = np.unique(
            counts, axis=0, return_index=True, return_inverse=True
        )
        order = np.argsort(first)
        population, draws = unique[order], np.argsort(order)[inverse.reshape(-1)]

    # A population that empties an arm is discarded; the rest are
    # estimated, the refits in one stacked fit. Both arms keep positive
    # weight mass, so no kept population degenerates.
    present = population > 0
    has = [np.bincount(columns, weights=t == arm, minlength=size) > 0 for arm in (0.0, 1.0)]
    kept = np.flatnonzero(np.any(present & has[0], axis=1) & np.any(present & has[1], axis=1))
    value = np.empty(len(population))
    nonconverged = 0
    if weights is not None:
        value[kept] = [
            weighted_difference(t, data.outcome, population[k][columns] * weights) for k in kept
        ]
    elif kept.size:
        value[kept], converged = sipw_stack(data, population[kept], columns)
        nonconverged = int(np.count_nonzero(~converged))
    estimates = value[draws[np.isin(draws, kept)]]
    valid = len(estimates)
    discarded = resamples - valid
    if valid < max(2, resamples / 2):
        raise UnstableCellError(f"only {valid} of {resamples} resamples were valid")
    se = float(np.std(estimates, ddof=1))
    if percentile_p:
        frac_low = float(np.mean(estimates <= 0.0))
        frac_high = float(np.mean(estimates >= 0.0))
        p_value = min(1.0, 2.0 * min(frac_low, frac_high))
    elif se == 0.0:
        p_value = 1.0 if point == 0.0 else 0.0
    else:
        p_value = math.erfc(abs(point / se) / math.sqrt(2.0))
    return BootstrapResult(
        estimate=point,
        se=se,
        p_value=p_value,
        resample_estimates=estimates,
        valid_resamples=valid,
        discarded=discarded,
        n_blocks=n_blocks,
        distinct_resamples=len(population),
        nonconverged=nonconverged,
    )


def bh_fdr(p_values, alpha: float = 0.05) -> tuple[np.ndarray, np.ndarray]:
    """Benjamini-Hochberg step-up over one family of p-values.

    Rejects the smallest i* p-values where i* is the largest rank i with
    p_(i) <= i*alpha/m. q_(i) = min over j >= i of m*p_(j)/j, clamped to
    1, returned in the input order.
    """
    p = np.asarray(p_values, dtype=np.float64)
    if p.size == 0:
        raise ConfigError("bh_fdr needs at least one p-value")
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise ConfigError("p-values must lie in [0, 1]")
    if not 0.0 < alpha < 1.0:
        raise ConfigError("alpha must lie in (0, 1)")
    m = p.size
    order = np.argsort(p, kind="stable")
    sorted_p = p[order]
    ranks = np.arange(1, m + 1)
    passing = np.flatnonzero(sorted_p <= ranks * alpha / m)
    reject_sorted = np.zeros(m, dtype=bool)
    if passing.size:
        reject_sorted[: passing[-1] + 1] = True
    q_sorted = np.minimum.accumulate((m * sorted_p / ranks)[::-1])[::-1]
    q_sorted = np.minimum(q_sorted, 1.0)
    q = np.empty(m)
    reject = np.empty(m, dtype=bool)
    q[order] = q_sorted
    reject[order] = reject_sorted
    return q, reject


def tier_of(p_value: float, q_value: float, alpha: float = 0.05) -> str:
    if q_value < alpha:
        return TIER_BH
    if p_value < alpha:
        return TIER_UNCORRECTED
    return TIER_NONE


def infer_all(
    families: list[TestFamily],
    master_seed: int = 0,
    resamples: int = 500,
    alpha: float = 0.05,
    refit: bool = True,
    percentile_p: bool = False,
) -> tuple[list[InferenceResult], list[tuple[str, str]]]:
    """Bootstrap every content once, then BH-correct within each family, never across.

    Cells that share a CellData (the same rows and treatments) are one
    content (see design.contents): its bootstrap runs once, seeded from
    the master seed and the identity of its first cell in family order,
    and every cell of the content takes that result, so they report the
    same se and p. A content whose bootstrap is unstable is skipped for
    each of its cells, with one message, and they do not count toward
    their families' m.
    """

    def one(cell: TestCell) -> BootstrapResult:
        spec = cell.spec
        seed = derive_cell_seed(master_seed, spec.view, spec.feature_name, cell.task_group)
        return block_bootstrap(
            cell, resamples=resamples, seed=seed, refit=refit, percentile_p=percentile_p
        )

    content = contents(families)
    firsts = {cell.cell_id: cell for cell in content.values()}
    skip = (ConfigError, UnstableCellError, PositivityError)
    booted = dict(zip(firsts, map_cells(one, list(firsts.values()), skip)))
    results: list[InferenceResult] = []
    skipped: list[tuple[str, str]] = []
    for family in families:
        tested = []
        for cell in family.cells:
            outcome = booted[content[cell.cell_id].cell_id]
            if isinstance(outcome, BootstrapResult):
                tested.append((cell, outcome))
            else:
                skipped.append((cell.cell_id, outcome[1]))
        if not tested:
            continue
        q_values, _ = bh_fdr([res.p_value for _, res in tested], alpha=alpha)
        for (cell, res), q in zip(tested, q_values):
            results.append(
                InferenceResult(
                    **vars(res),
                    view=cell.spec.view,
                    feature=cell.spec.feature_name,
                    task_group=cell.task_group,
                    q_value=float(q),
                    tier=tier_of(res.p_value, float(q), alpha),
                    content=content[cell.cell_id].cell_id,
                )
            )
    return results, skipped
