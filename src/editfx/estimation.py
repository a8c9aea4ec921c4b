"""Propensity fitting, stabilized capped weights, and per-cell estimates.

The pipeline per cell: fit an L2-penalized logistic model of treatment
on pre-edit covariates by iteratively reweighted least squares, form
stabilized inverse-probability weights capped at 10, then take the
weighted treated-minus-control mean gain. The unweighted difference and
its gap to the weighted one are reported alongside. A fitting population
is a cell's rows with frequency weights, so a bootstrap resample or a
leave-one-out split is fitted without copying rows.
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


class _RunDesign:
    """The design [1 | matrix | run columns] with frequency weights, kept in run form.

    Rows come in runs that start at `starts`; every row of run r has
    `levels[r]` as its run columns, so each product with those columns is
    a sum over runs (np.add.reduceat) instead of over rows.
    """

    def __init__(self, matrix: np.ndarray, weights: np.ndarray | None = None, runs=None):
        n = matrix.shape[0]
        starts, levels = runs if runs is not None else (np.zeros(1, np.intp), np.zeros((1, 0)))
        self.dense = np.hstack([np.ones((n, 1)), matrix])
        self.weights = weights
        self.starts = starts
        self.levels = levels
        self.run = np.repeat(np.arange(len(starts)), np.diff(np.r_[starts, n]))
        self.n_dense = self.dense.shape[1]
        self.p = self.n_dense + levels.shape[1]

    def __matmul__(self, beta: np.ndarray) -> np.ndarray:
        eta = self.dense @ beta[: self.n_dense]
        if self.p > self.n_dense:
            eta += (self.levels @ beta[self.n_dense :])[self.run]
        return eta

    def transpose_dot(self, residual: np.ndarray) -> np.ndarray:
        """X^T diag(weights) residual."""
        g = residual if self.weights is None else self.weights * residual
        head = self.dense.T @ g
        if self.p == self.n_dense:
            return head
        return np.concatenate([head, self.levels.T @ np.add.reduceat(g, self.starts)])

    def gram(self, w: np.ndarray) -> np.ndarray:
        """X^T diag(weights * w) X."""
        w = w if self.weights is None else self.weights * w
        scaled = self.dense * w[:, None]
        top = scaled.T @ self.dense
        if self.p == self.n_dense:
            return top
        cross = np.add.reduceat(scaled, self.starts, axis=0).T @ self.levels
        corner = self.levels.T @ (self.levels * np.add.reduceat(w, self.starts)[:, None])
        return np.block([[top, cross], [cross.T, corner]])


def _penalized_loglik(design, y: np.ndarray, beta: np.ndarray, weights=None) -> float:
    """The objective irls_logistic maximizes; design is a dense matrix or a _RunDesign."""
    eta = design @ beta
    # log sigma(eta) summed over y=1, log(1-sigma) over y=0, stably.
    terms = y * eta - np.logaddexp(0.0, eta)
    loglik = float(np.sum(terms if weights is None else weights * terms))
    return loglik - 0.5 * RIDGE_LAMBDA * float(np.sum(beta[1:] ** 2))


def irls_logistic(
    matrix: np.ndarray, y: np.ndarray, weights: np.ndarray | None = None, runs=None
) -> tuple[np.ndarray, bool, int]:
    """Maximize the ridge-penalized Bernoulli log-likelihood.

    The design is an intercept, `matrix`, then the run columns: `runs`
    is (starts, levels), rows starts[r] up to the next start forming run
    r, whose rows all take levels[r] as those columns. Row i counts
    weights[i] times (once when weights is None). The intercept is
    unpenalized. Newton steps are halved until the objective does not
    decrease beyond round-off relative to its size, so the ascent is
    monotone; with ridge on the slopes the optimum is finite even for
    separable data. Returns (beta with intercept first, converged flag,
    iterations).
    """
    if not np.all(np.isfinite(matrix)):
        raise SchemaError("design matrix contains non-finite values")
    design = _RunDesign(matrix, weights, runs)
    p = design.p
    penalty = np.full(p, RIDGE_LAMBDA)
    penalty[0] = 0.0
    rate = float(np.average(y, weights=weights))
    beta = np.zeros(p)
    beta[0] = np.log(rate / (1.0 - rate)) if 0.0 < rate < 1.0 else 0.0
    objective = _penalized_loglik(design, y, beta, weights)
    diagonal = np.diag_indices(p)
    converged = False
    iterations = 0
    for iterations in range(1, MAX_ITERATIONS + 1):
        mu = expit(design @ beta)
        grad = design.transpose_dot(y - mu) - penalty * beta
        hessian = design.gram(np.clip(mu * (1.0 - mu), 1e-10, None))
        hessian[diagonal] += penalty
        try:
            step = np.linalg.solve(hessian, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hessian, grad, rcond=None)[0]
        scale = 1.0
        for _ in range(30):
            candidate = beta + scale * step
            new_objective = _penalized_loglik(design, y, candidate, weights)
            if new_objective >= objective - 1e-12 * max(1.0, abs(objective)):
                break
            scale *= 0.5
        else:
            # Every halving failed: take one more, as a tiny step.
            candidate = beta + scale * step
            new_objective = _penalized_loglik(design, y, candidate, weights)
        beta, objective = candidate, new_objective
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


def _fit(
    data: CellData, weights: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, bool, int]:
    """Fit the rows of positive weight, each counted weights[row] times, as their own population.

    weights=None fits every row once. Returns (beta, each cell row's
    clipped probability, NaN for rows outside the population, converged,
    iterations).
    """
    rows, matrix, row_weights, runs = data.fitting_design(weights)
    t = data.treatment[rows]
    if t.min() == t.max():
        raise PositivityError("all units share one arm; propensity is unidentified")
    beta, converged, iterations = irls_logistic(matrix, t.astype(np.float64), row_weights, runs)
    probabilities = np.full(data.n, np.nan)
    probabilities[rows] = _probabilities(beta, matrix, runs)
    return beta, probabilities, converged, iterations


def fit_propensity(data: CellData, idx: np.ndarray | None = None) -> PropensityModel:
    """Fit treatment ~ pre-edit covariates on the rows idx (all rows when None).

    A row repeated in idx counts once per repeat.
    """
    weights = None if idx is None else np.bincount(idx, minlength=data.n)
    beta, _, converged, iterations = _fit(data, weights)
    names = data.column_names(idx)
    return PropensityModel(
        intercept=float(beta[0]),
        coefficients={name: float(b) for name, b in zip(names, beta[1:])},
        schema=tuple(names),
        converged=converged,
        iterations=iterations,
    )


def _probabilities(beta: np.ndarray, matrix: np.ndarray, runs=None) -> np.ndarray:
    eta = _RunDesign(matrix, runs=runs) @ beta
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
    weights: np.ndarray | None = None,
    probabilities: np.ndarray | None = None,
    rate: float | None = None,
) -> tuple[float, WeightVector]:
    """Stabilized-IPW treated-minus-control difference over a weighted population.

    The population is the rows of positive weight, each counted
    weights[row] times (every row once when weights is None). Without
    given probabilities (one per cell row) the propensity model is
    fitted on that population itself; rate defaults to its treated
    fraction. The WeightVector holds each population row once, in row
    order.
    """
    idx = slice(None) if weights is None else np.flatnonzero(weights)
    t = data.treatment[idx].astype(np.float64)
    if probabilities is None:
        probabilities = _fit(data, weights)[1]
    counts = None if weights is None else np.asarray(weights, dtype=np.float64)[idx]
    if rate is None and counts is not None:
        rate = float(np.average(t, weights=counts))
    wv = stabilized_weights(t, probabilities[idx], marginal_rate=rate)
    mass = wv.weights if counts is None else counts * wv.weights
    return weighted_difference(t, data.outcome[idx], mass), wv


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
    if probabilities is None and rate is None:
        estimate, wv = cell.point_fit
    else:
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
    """Estimates for every cell of every family, in family cell order.

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
        pooled: dict[str, tuple[np.ndarray, float]] = {}
        features = {c.spec.feature_name for c in family.cells} if scope == "pooled" else set()
        for feature in sorted(features):
            group = [c for c in family.cells if c.spec.feature_name == feature]
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
        for item in map_cells(one, family.cells, (PositivityError, DegenerateCellError)):
            if isinstance(item, CellEstimate):
                bundle.estimates.append(item)
                gaps.append(item.confounding_magnitude)
            else:
                bundle.skipped.append(item)
        if gaps:
            bundle.family_confounding[family.name] = float(np.mean(gaps))
    return bundle
