"""Oracles for the tests: a dense design, a named propensity model, a diff replay.

The pipeline fits propensities as stacks (estimation.fit_stack) on a
cell's shared design and never names coefficients; these build a
population's own dense design, wrap a one-population stacked fit, or
recompute a dense one, so tests can state expectations per covariate.
population_sipw forms one weighted population's estimate on its rows.
pattern_tokens is the token pattern's scan, the tokenizer's oracle.
apply_script replays an edit script to check a diff, and
per_pattern_labels classifies a span one ruleset pattern at a time.
units_to_csv writes a cell's units for external checking, and
partition buckets records by one of their dimensions. content_seeds and
block_multisets replay which bootstrap each cell content gets and what
it draws.
"""

import csv
import re
from dataclasses import dataclass
from typing import IO, Any

import numpy as np
from scipy.special import expit

from editfx import MOTIF_LABELS
from editfx.design import CATEGORICAL_COVARIATES, NUMERIC_COVARIATES, CellData, TestFamily
from editfx.errors import SchemaError
from editfx.estimation import (
    RIDGE_LAMBDA,
    StackFit,
    _clipped,
    fit_stack,
    stabilized_weights,
    weighted_difference,
)
from editfx.inference import derive_cell_seed
from editfx.motifs import EditRun, InsertedSpan
from editfx.store import ComparisonRecord, log
from editfx.surface import _TOKEN


def encode(data: CellData, idx: np.ndarray | None = None) -> np.ndarray:
    """Design matrix for the given rows as their own fitting population.

    Numeric columns are z-scored within the subset (constant columns
    become zeros); categorical variables are one-hot encoded over the
    levels present in the subset, lexicographically first level
    dropped.
    """
    numeric = data.numeric if idx is None else data.numeric[idx]
    codes = data.cat_codes if idx is None else data.cat_codes[idx]
    mean = numeric.mean(axis=0)
    std = numeric.std(axis=0)
    std = np.where(std == 0.0, 1.0, std)
    columns = [(numeric - mean) / std]
    for col in range(codes.shape[1]):
        present = np.unique(codes[:, col])
        for level in present[1:]:
            columns.append((codes[:, col] == level).astype(np.float64)[:, None])
    return np.hstack(columns)


def column_names(data: CellData, idx: np.ndarray | None = None) -> list[str]:
    """Names of the columns encode(data, idx) returns, in order."""
    codes = data.cat_codes if idx is None else data.cat_codes[idx]
    names = list(NUMERIC_COVARIATES)
    for col, var in enumerate(CATEGORICAL_COVARIATES):
        present = np.unique(codes[:, col])
        for level in present[1:]:
            names.append(f"{var}={data.frame.cat_levels[col][level]}")
    return names


def encode_with_names(
    data: CellData, idx: np.ndarray | None = None
) -> tuple[np.ndarray, list[str]]:
    return encode(data, idx), column_names(data, idx)


def population_sipw(data: CellData, weights: np.ndarray, probabilities: np.ndarray) -> float:
    """Stabilized-IPW treated-minus-control difference over a weighted population.

    The population is the rows of positive weight, each counted
    weights[row] times, with probabilities one per cell row; the rate
    is its treated fraction.
    """
    idx = np.flatnonzero(weights)
    t = data.treatment[idx].astype(np.float64)
    counts = np.asarray(weights, dtype=np.float64)[idx]
    rate = float(np.average(t, weights=counts))
    wv = stabilized_weights(t, probabilities[idx], marginal_rate=rate)
    return weighted_difference(t, data.outcome[idx], counts * wv.weights)


@dataclass(frozen=True)
class PropensityModel:
    intercept: float
    coefficients: dict[str, float]
    schema: tuple[str, ...]
    converged: bool
    iterations: int

    def __post_init__(self):
        if set(self.coefficients) != set(self.schema):
            raise SchemaError("coefficient names must match the schema")


def coefficients(fit: StackFit, r: int) -> np.ndarray:
    """Population r's intercept, numeric and free level coefficients (column_names order)."""
    dense = fit.design.n_dense
    return np.concatenate([fit.beta[r, :dense], fit.beta[r, dense:][fit.free[r, dense:]]])


def fit_propensity(data: CellData, idx: np.ndarray | None = None) -> PropensityModel:
    """Fit treatment ~ pre-edit covariates on the rows idx (all rows when None).

    A row repeated in idx counts once per repeat.
    """
    weights = np.ones(data.n) if idx is None else np.bincount(idx, minlength=data.n)
    fit = fit_stack(data, weights[None])
    beta = coefficients(fit, 0)
    names = column_names(data, idx)
    return PropensityModel(
        intercept=float(beta[0]),
        coefficients={name: float(b) for name, b in zip(names, beta[1:])},
        schema=tuple(names),
        converged=bool(fit.converged[0]),
        iterations=int(fit.iterations[0]),
    )


def predict_probabilities(model: PropensityModel, matrix: np.ndarray) -> np.ndarray:
    """Fitted treatment probabilities, clipped away from 0 and 1."""
    beta = np.array([model.intercept] + [model.coefficients[c] for c in model.schema])
    return _clipped(np.hstack([np.ones((matrix.shape[0], 1)), matrix]) @ beta)


def penalized_gradient(matrix: np.ndarray, y: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Gradient of the penalized log-likelihood; zero at the optimum."""
    n = matrix.shape[0]
    design = np.hstack([np.ones((n, 1)), matrix])
    penalty = np.full(design.shape[1], RIDGE_LAMBDA)
    penalty[0] = 0.0
    mu = expit(design @ beta)
    return design.T @ (y - mu) - penalty * beta


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


def pattern_tokens(text: str) -> list[str]:
    """The token pattern's matches, each lowercased: what tokenize must return."""
    return [token.lower() for token in _TOKEN.findall(text)]


def per_pattern_labels(doc: dict, span: InsertedSpan) -> frozenset[str]:
    """The labels of a ruleset document with a pattern that matches the span.

    Each pattern is compiled and searched on its own: a phrase as its
    escaped words joined by single spaces between word boundaries, over
    the span's joined tokens; a regex case-insensitively over the span
    text; a window pair over token positions.
    """
    joined = " ".join(span.tokens)

    def hits(pat: dict) -> bool:
        if pat["kind"] == "phrase":
            body = r"\ ".join(re.escape(w) for w in pat["text"].lower().split())
            return re.search(rf"\b{body}\b", joined) is not None
        if pat["kind"] == "regex":
            return re.search(pat["pattern"], span.text, re.IGNORECASE) is not None
        a, b, window = pat["a"].lower(), pat["b"].lower(), int(pat["window"])
        pos_a = [k for k, t in enumerate(span.tokens) if t == a]
        pos_b = [k for k, t in enumerate(span.tokens) if t == b]
        return any(abs(ka - kb) <= window for ka in pos_a for kb in pos_b)

    return frozenset(label for label in MOTIF_LABELS if any(map(hits, doc["labels"][label])))


def units_to_csv(data: CellData, stream: IO[str]) -> None:
    """One unit per row with expanded covariates, for external checking.

    The fitting population for z-scores and dummy levels is the cell's
    full row set.
    """
    matrix, names = encode_with_names(data)
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["pair_id", "treatment", "outcome", *names, "block_id"])
    for k, row in enumerate(data.rows):
        writer.writerow(
            [
                data.frame.pair_ids[row],
                int(data.treatment[k]),
                repr(float(data.outcome[k])),
                *[repr(float(v)) for v in matrix[k]],
                "|".join(data.blocks[data.block_codes[k]]),
            ]
        )


def partition(
    records: list[ComparisonRecord], by: str
) -> dict[str | tuple[str, str], list[ComparisonRecord]]:
    """Split records into disjoint buckets by dataset, task_group, or block.

    Keys are returned in sorted order. An empty dimension value lands in the
    "" bucket with a warning.
    """
    if not records:
        raise ValueError("partition requires at least one record")
    if by not in ("dataset", "task_group", "block"):
        raise ValueError(f"unknown partition dimension '{by}'")

    buckets: dict[Any, list[ComparisonRecord]] = {}
    for rec in records:
        if by == "block":
            key: Any = rec.block_id
        else:
            key = getattr(rec, by)
        if key == "" or key == ("", ""):
            log.warning("record %s has empty %s value", rec.pair_id, by)
        buckets.setdefault(key, []).append(rec)
    return {k: buckets[k] for k in sorted(buckets)}


def content_seeds(families: list[TestFamily], master_seed: int) -> dict[CellData, int]:
    """Each distinct CellData's bootstrap seed: the seed of its first cell, in the
    families' order and then each family's cell order."""
    seeds: dict[CellData, int] = {}
    for family in families:
        for cell in family.cells:
            if cell.data not in seeds:
                spec = cell.spec
                seeds[cell.data] = derive_cell_seed(
                    master_seed, spec.view, spec.feature_name, cell.task_group
                )
    return seeds


def block_multisets(data: CellData, seed: int, resamples: int) -> dict[bytes, bool]:
    """The block counts of each distinct resample, one generator per draw, in the
    order first drawn, and whether that resample keeps both arms."""
    size = len(data.blocks)
    found = {}
    for r in range(resamples):
        drawn = np.random.default_rng([seed, r]).integers(0, size, size=size)
        arms = data.treatment[np.isin(data.block_codes, drawn)]
        found[np.bincount(drawn, minlength=size).tobytes()] = bool(arms.min() < arms.max())
    return found


def kept_multisets(data: CellData, seed: int, resamples: int) -> set[bytes]:
    """The block counts of each resample that keeps both arms, one generator per draw."""
    return {key for key, kept in block_multisets(data, seed, resamples).items() if kept}
