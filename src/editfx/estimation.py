"""Propensity fitting, stabilized capped weights, and per-cell estimates.

The pipeline per cell: fit an L2-penalized logistic model of treatment
on pre-edit covariates by iteratively reweighted least squares, form
stabilized inverse-probability weights capped at 10, then take the
weighted treated-minus-control mean gain. The unweighted difference and
its gap to the weighted one are reported alongside.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .design import CellData, TestCell, TestFamily, map_cells
from .errors import ConfigError, DegenerateCellError, PositivityError, SchemaError

RIDGE_LAMBDA = 1e-4
PROB_CLIP = 1e-6
WEIGHT_CAP = 10.0
MAX_ITERATIONS = 100
COEF_TOLERANCE = 1e-8


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


@dataclass(frozen=True)
class WeightVector:
    weights: np.ndarray
    raw: np.ndarray
    cap_hits: int


@dataclass(frozen=True)
class CellEstimate:
    view: str
    feature: str
    task_group: str
    acmgd_sipw: float
    acmgd_naive: float
    n_treated: int
    n_control: int
    cap_hits: int

    @property
    def confounding_magnitude(self) -> float:
        return abs(self.acmgd_sipw - self.acmgd_naive)

    @property
    def cell_id(self) -> str:
        return f"{self.view}:{self.feature}:{self.task_group}"


def _penalized_loglik(design: np.ndarray, y: np.ndarray, beta: np.ndarray) -> float:
    eta = design @ beta
    # log sigma(eta) summed over y=1, log(1-sigma) over y=0, stably.
    loglik = float(np.sum(y * eta - np.logaddexp(0.0, eta)))
    return loglik - 0.5 * RIDGE_LAMBDA * float(np.sum(beta[1:] ** 2))


def irls_logistic(matrix: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, bool, int]:
    """Maximize the ridge-penalized Bernoulli log-likelihood.

    The intercept is unpenalized. Newton steps are halved until the
    objective does not decrease, so the ascent is monotone; with ridge
    on the slopes the optimum is finite even for separable data.
    Returns (beta with intercept first, converged flag, iterations).
    """
    if not np.all(np.isfinite(matrix)):
        raise SchemaError("design matrix contains non-finite values")
    n = matrix.shape[0]
    design = np.hstack([np.ones((n, 1)), matrix])
    p = design.shape[1]
    penalty = np.full(p, RIDGE_LAMBDA)
    penalty[0] = 0.0
    rate = float(np.mean(y))
    beta = np.zeros(p)
    beta[0] = np.log(rate / (1.0 - rate)) if 0.0 < rate < 1.0 else 0.0
    objective = _penalized_loglik(design, y, beta)
    converged = False
    iterations = 0
    for iterations in range(1, MAX_ITERATIONS + 1):
        mu = expit(design @ beta)
        grad = design.T @ (y - mu) - penalty * beta
        w = np.clip(mu * (1.0 - mu), 1e-10, None)
        hessian = (design * w[:, None]).T @ design
        hessian[np.diag_indices_from(hessian)] += penalty
        try:
            step = np.linalg.solve(hessian, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hessian, grad, rcond=None)[0]
        scale = 1.0
        for _ in range(30):
            candidate = beta + scale * step
            new_objective = _penalized_loglik(design, y, candidate)
            if new_objective >= objective - 1e-12:
                break
            scale *= 0.5
        beta = beta + scale * step
        objective = _penalized_loglik(design, y, beta)
        if float(np.max(np.abs(scale * step))) < COEF_TOLERANCE:
            converged = True
            break
    return beta, converged, iterations


def penalized_gradient(matrix: np.ndarray, y: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Gradient of the penalized log-likelihood; zero at the optimum."""
    n = matrix.shape[0]
    design = np.hstack([np.ones((n, 1)), matrix])
    penalty = np.full(design.shape[1], RIDGE_LAMBDA)
    penalty[0] = 0.0
    mu = expit(design @ beta)
    return design.T @ (y - mu) - penalty * beta


def _fit(data: CellData, idx: np.ndarray | None) -> tuple[np.ndarray, np.ndarray, bool, int]:
    """Fit the rows idx (all rows when None) as their own population.

    Returns (beta, the rows' clipped probabilities, converged, iterations).
    """
    t = data.treatment if idx is None else data.treatment[idx]
    if t.min() == t.max():
        raise PositivityError("all units share one arm; propensity is unidentified")
    matrix = data.encode(idx)
    beta, converged, iterations = irls_logistic(matrix, t.astype(np.float64))
    return beta, _probabilities(beta, matrix), converged, iterations


def fit_propensity(data: CellData, idx: np.ndarray | None = None) -> PropensityModel:
    """Fit treatment ~ pre-edit covariates on the rows idx (all rows when None)."""
    beta, _, converged, iterations = _fit(data, idx)
    names = data.column_names(idx)
    return PropensityModel(
        intercept=float(beta[0]),
        coefficients={name: float(b) for name, b in zip(names, beta[1:])},
        schema=tuple(names),
        converged=converged,
        iterations=iterations,
    )


def _probabilities(beta: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    eta = beta[0] + matrix @ beta[1:]
    return np.clip(expit(eta), PROB_CLIP, 1.0 - PROB_CLIP)


def predict_probabilities(model: PropensityModel, matrix: np.ndarray) -> np.ndarray:
    """Fitted treatment probabilities, clipped away from 0 and 1."""
    beta = np.array([model.intercept] + [model.coefficients[c] for c in model.schema])
    return _probabilities(beta, matrix)


def stabilized_weights(
    treatment: np.ndarray,
    probabilities: np.ndarray,
    marginal_rate: float | None = None,
) -> WeightVector:
    """Stabilized inverse-probability weights, capped.

    w_i = T_i * pbar / e_i + (1 - T_i) * (1 - pbar) / (1 - e_i), where
    pbar defaults to the treated fraction of the units given (the
    fitting population's marginal rate).
    """
    t = np.asarray(treatment, dtype=np.float64)
    e = np.asarray(probabilities, dtype=np.float64)
    pbar = float(np.mean(t)) if marginal_rate is None else float(marginal_rate)
    raw = t * (pbar / e) + (1.0 - t) * ((1.0 - pbar) / (1.0 - e))
    weights = np.minimum(raw, WEIGHT_CAP)
    return WeightVector(weights=weights, raw=raw, cap_hits=int(np.sum(raw > WEIGHT_CAP)))


def weighted_difference(
    treatment: np.ndarray, outcome: np.ndarray, weights: np.ndarray
) -> float:
    """Weighted treated-minus-control mean outcome."""
    t = np.asarray(treatment, dtype=np.float64)
    y = np.asarray(outcome, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    treated_sum = float(np.sum(w * t))
    control_sum = float(np.sum(w * (1.0 - t)))
    if treated_sum <= 0.0 or control_sum <= 0.0:
        raise DegenerateCellError("zero weight mass in one arm")
    treated_mean = float(np.sum(w * t * y)) / treated_sum
    control_mean = float(np.sum(w * (1.0 - t) * y)) / control_sum
    return treated_mean - control_mean


def sipw(
    data: CellData,
    idx: np.ndarray | None = None,
    probabilities: np.ndarray | None = None,
    rate: float | None = None,
) -> tuple[float, WeightVector]:
    """Stabilized-IPW treated-minus-control difference over the rows idx.

    Without given probabilities the propensity model is fitted on those
    rows themselves; rate defaults to their treated fraction.
    """
    t = (data.treatment if idx is None else data.treatment[idx]).astype(np.float64)
    outcome = data.outcome if idx is None else data.outcome[idx]
    if probabilities is None:
        probabilities = _fit(data, idx)[1]
    wv = stabilized_weights(t, probabilities, marginal_rate=rate)
    return weighted_difference(t, outcome, wv.weights), wv


def estimate_cell(
    cell: TestCell,
    probabilities: np.ndarray | None = None,
    rate: float | None = None,
) -> CellEstimate:
    """Point estimates for one cell.

    By default the propensity model is fitted on the cell itself. The
    cell's probabilities under a model fitted on a wider population (and
    that population's marginal rate) can be supplied instead.
    """
    data = cell.data
    t = data.treatment.astype(np.float64)
    n_treated = int(t.sum())
    n_control = int(len(t) - t.sum())
    if n_treated == 0 or n_control == 0:
        raise PositivityError(f"cell {cell.cell_id} has an empty arm")
    estimate, wv = sipw(data, probabilities=probabilities, rate=rate)
    naive = weighted_difference(t, data.outcome, np.ones_like(t))
    return CellEstimate(
        view=cell.spec.view,
        feature=cell.spec.feature_name,
        task_group=cell.task_group,
        acmgd_sipw=estimate,
        acmgd_naive=naive,
        n_treated=n_treated,
        n_control=n_control,
        cap_hits=wv.cap_hits,
    )


@dataclass
class EstimateBundle:
    estimates: list[CellEstimate]
    skipped: list[tuple[str, str]] = field(default_factory=list)
    family_confounding: dict[str, float] = field(default_factory=dict)


def estimate_all(
    families: list[TestFamily],
    scope: str = "cell",
) -> EstimateBundle:
    """Estimates for every cell of every family, in sorted cell order.

    scope="cell" fits the propensity per cell; scope="pooled" fits one
    model per feature on all of its groups pooled, and gives each cell
    that model's probabilities on its own rows of the pooled design,
    with the pooled marginal rate. Cells that fail positivity or
    degenerate are recorded as skipped, not raised.
    """
    if scope not in ("cell", "pooled"):
        raise ConfigError("scope must be 'cell' or 'pooled'")
    bundle = EstimateBundle(estimates=[])
    for family in families:
        if not family.cells:
            raise ConfigError(f"family '{family.name}' has no cells")
        cells = sorted(family.cells, key=lambda c: (c.spec.feature_name, c.task_group))
        pooled: dict[str, tuple[np.ndarray, float]] = {}
        features = {c.spec.feature_name for c in cells} if scope == "pooled" else set()
        for feature in sorted(features):
            group = [c for c in cells if c.spec.feature_name == feature]
            frame = group[0].data.frame
            if any(c.data.frame is not frame for c in group):
                raise ConfigError(f"pooled scope needs one unit frame for '{feature}'")
            data = CellData(
                frame,
                np.concatenate([c.data.rows for c in group]),
                np.concatenate([c.data.treatment for c in group]),
            )
            probabilities = _fit(data, None)[1]
            bounds = np.cumsum([0] + [c.data.n for c in group])
            for c, start, stop in zip(group, bounds, bounds[1:]):
                pooled[c.cell_id] = (probabilities[start:stop], float(data.treatment.mean()))

        def one(cell: TestCell) -> CellEstimate:
            probabilities, rate = pooled.get(cell.cell_id, (None, None))
            return estimate_cell(cell, probabilities=probabilities, rate=rate)

        gaps = []
        for item in map_cells(one, cells, (PositivityError, DegenerateCellError)):
            if isinstance(item, CellEstimate):
                bundle.estimates.append(item)
                gaps.append(item.confounding_magnitude)
            else:
                bundle.skipped.append(item)
        if gaps:
            bundle.family_confounding[family.name] = float(np.mean(gaps))
    return bundle
