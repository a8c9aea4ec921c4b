"""Propensity fitting, stabilized capped weights, and per-cell estimates.

The pipeline per cell: fit an L2-penalized logistic model of treatment
on pre-edit covariates by iteratively reweighted least squares, form
stabilized inverse-probability weights capped at 10, then take the
weighted treated-minus-control mean gain. The unweighted difference and
its gap to the weighted one are reported alongside. A fitting population
is a cell's rows with frequency weights, so a bootstrap resample or a
leave-one-out split is fitted without copying rows. The populations of
one cell are fitted together, one Newton loop over a stack of them, on
the cell's one shared design.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .design import CellData, SharedDesign, TestCell, TestFamily, map_cells
from .errors import ConfigError, DegenerateCellError, PositivityError, SchemaError

RIDGE_LAMBDA = 1e-4
PROB_CLIP = 1e-6
WEIGHT_CAP = 10.0
MAX_ITERATIONS = 100
COEF_TOLERANCE = 1e-8
# A stack of populations holds at most this many row weights (or one population).
CHUNK_ROW_WEIGHTS = 2**14


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
    converged: bool
    ess_treated: float
    ess_control: float
    max_raw_weight: float

    @property
    def confounding_magnitude(self) -> float:
        return abs(self.acmgd_sipw - self.acmgd_naive)

    @property
    def cell_id(self) -> str:
        return f"{self.view}:{self.feature}:{self.task_group}"


class _Stack:
    """Populations fitted on one shared design, each with its own z-scoring.

    Population r's own z-scores of the numeric columns are
    (Zc - shift[r]) / spread[r], where Zc are the design's numeric
    columns. Its coefficients on those z-scores (beta, "own coordinates")
    and on the design itself (gamma, "shared coordinates") give the same
    linear predictor when gamma_j = beta_j / spread_j and
    gamma_0 = beta_0 - sum_j shift_j gamma_j; one-hot columns are not
    rescaled.
    """

    def __init__(self, design: SharedDesign, shift: np.ndarray, spread: np.ndarray):
        self.design = design
        self.shift = shift
        self.spread = spread
        self.slopes = slice(1, 1 + shift.shape[1])

    def take(self, keep) -> _Stack:
        return _Stack(self.design, self.shift[keep], self.spread[keep])

    def shared(self, beta: np.ndarray) -> np.ndarray:
        """Own-coordinate coefficients (one row per population) in shared coordinates."""
        gamma = beta.copy()
        gamma[:, self.slopes] = beta[:, self.slopes] / self.spread
        gamma[:, 0] = beta[:, 0] - np.sum(self.shift * gamma[:, self.slopes], axis=1)
        return gamma

    def own_step(self, step: np.ndarray) -> np.ndarray:
        """A shared-coordinate step (one row per population) in own coordinates."""
        out = step.copy()
        out[:, self.slopes] = self.spread * step[:, self.slopes]
        out[:, 0] = step[:, 0] + np.sum(self.shift * step[:, self.slopes], axis=1)
        return out

    def linear(self, beta: np.ndarray) -> np.ndarray:
        """Each population's linear predictor on the design rows (populations x rows)."""
        return _linear(self.design, self.shared(beta))


class _Known:
    """Stands for a design whose linear predictor at the coefficients given is known."""

    def __init__(self, eta: np.ndarray):
        self.eta = eta

    def __matmul__(self, beta: np.ndarray) -> np.ndarray:
        return self.eta


# Every kernel below makes one BLAS call per population (a stacked matmul
# or solve), so a stack of one repeats the products of a single dense fit
# bit for bit.


def _linear(design: SharedDesign, gamma: np.ndarray) -> np.ndarray:
    """Each row of gamma's linear predictor on the design rows (populations x rows)."""
    eta = np.matmul(design.dense, gamma[:, : design.n_dense, None])[:, :, 0]
    if design.p > design.n_dense:
        by_run = np.matmul(design.levels, gamma[:, design.n_dense :, None])[:, :, 0]
        eta += np.take(by_run, design.run, axis=1)
    return eta


def _gradient(design: SharedDesign, residual: np.ndarray) -> np.ndarray:
    """X^T residual for each row of residual."""
    head = np.matmul(design.dense.T, residual[:, :, None])[:, :, 0]
    if design.p == design.n_dense:
        return head
    runs = np.add.reduceat(residual, design.starts, axis=1)
    return np.concatenate([head, np.matmul(design.levels.T, runs[:, :, None])[:, :, 0]], axis=1)


def _hessian(design: SharedDesign, w: np.ndarray) -> np.ndarray:
    """X^T diag(w) X for each row of w: the dense block, then per-run sums times run levels."""
    scaled = design.dense_t * w[:, None, :]
    top = np.matmul(scaled, design.dense)
    if design.p == design.n_dense:
        return top
    d = design.n_dense
    hessian = np.empty((len(w), design.p, design.p))
    hessian[:, :d, :d] = top
    hessian[:, :d, d:] = np.matmul(np.add.reduceat(scaled, design.starts, axis=2), design.levels)
    hessian[:, d:, :d] = np.swapaxes(hessian[:, :d, d:], 1, 2)
    run_w = np.add.reduceat(w, design.starts, axis=1)
    hessian[:, d:, d:] = np.matmul(design.levels.T, design.levels * run_w[:, :, None])
    return hessian


def _solve(hessian: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Newton steps, one per population; lstsq for a population whose Hessian is singular."""
    try:
        return np.linalg.solve(hessian, grad[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        steps = []
        for h, g in zip(hessian, grad):
            try:
                steps.append(np.linalg.solve(h, g))
            except np.linalg.LinAlgError:
                steps.append(np.linalg.lstsq(h, g, rcond=None)[0])
        return np.array(steps)


def _penalized_loglik(design, y: np.ndarray, beta: np.ndarray, weights=None):
    """The objective the Newton loop maximizes, in own coordinates.

    design is a dense matrix with beta one coefficient vector, or, in
    the stacked loop, a _Known linear predictor with beta and weights
    one row per population; the result is one value per population.
    """
    eta = design @ beta
    # log sigma(eta) summed over y=1, log(1-sigma) over y=0, stably; the
    # log term is skipped on rows a population does not count.
    if weights is None:
        terms = y * eta - np.logaddexp(0.0, eta)
    else:
        log_term = np.logaddexp(0.0, eta, out=np.zeros_like(eta), where=weights > 0)
        terms = weights * (y * eta - log_term)
    loglik = np.sum(terms, axis=-1)
    return loglik - 0.5 * RIDGE_LAMBDA * np.sum(beta[..., 1:] ** 2, axis=-1)


def _newton(
    design: SharedDesign,
    y: np.ndarray,
    weights: np.ndarray,
    shift: np.ndarray,
    spread: np.ndarray,
    free: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximize each population's ridge-penalized Bernoulli log-likelihood, all at once.

    Population r counts design row i weights[r, i] times, z-scores the
    numeric columns with (shift[r], spread[r]) (see _Stack) and fits the
    coefficients where free[r] is true; the others stay 0. Each
    population follows its own Newton path in own coordinates: it starts
    from logit of its treated rate, halves its step until its objective
    does not decrease beyond round-off, and leaves the stack once its
    step is below COEF_TOLERANCE. Gradient and Hessian are formed in
    shared coordinates, where the ridge on slope j is
    RIDGE_LAMBDA * spread_j**2, and the step is mapped back. Returns
    (beta in own coordinates, converged, iterations), one row each.
    """
    count, p = len(weights), design.p
    penalty = np.full((count, p), RIDGE_LAMBDA)
    penalty[:, 0] = 0.0
    stack = _Stack(design, shift, spread)
    penalty[:, stack.slopes] *= spread**2
    rate = np.sum(weights * y, axis=1) / np.sum(weights, axis=1)
    beta = np.zeros((count, p))
    inside = (0.0 < rate) & (rate < 1.0)
    beta[inside, 0] = np.log(rate[inside] / (1.0 - rate[inside]))
    eta = stack.linear(beta)
    objective = _penalized_loglik(_Known(eta), y, beta, weights)
    pinned = ~(free[:, :, None] & free[:, None, :])
    diagonal = np.arange(p)
    result = np.empty((count, p))
    converged = np.zeros(count, dtype=bool)
    iterations = np.full(count, MAX_ITERATIONS)
    live = np.arange(count)
    for iteration in range(1, MAX_ITERATIONS + 1):
        gamma = stack.shared(beta)
        mu = expit(eta)
        grad = np.where(free, _gradient(design, weights * (y - mu)) - penalty * gamma, 0.0)
        hessian = _hessian(design, weights * np.clip(mu * (1.0 - mu), 1e-10, None))
        hessian[:, diagonal, diagonal] += penalty
        step = stack.own_step(_solve(np.where(pinned, np.eye(p), hessian), grad))
        floor = objective - 1e-12 * np.maximum(1.0, np.abs(objective))
        candidate = beta + step
        candidate_eta = stack.linear(candidate)
        new_objective = _penalized_loglik(_Known(candidate_eta), y, candidate, weights)
        new_objective = np.full(len(live), new_objective)
        scale = np.ones(len(live))
        pending = np.flatnonzero(~(new_objective >= floor))
        # Halve the rejected steps, 29 more tries, then take one more halving.
        for tries in range(2, 32):
            if not pending.size:
                break
            scale[pending] *= 0.5
            trial = beta[pending] + scale[pending, None] * step[pending]
            trial_eta = stack.take(pending).linear(trial)
            value = _penalized_loglik(_Known(trial_eta), y, trial, weights[pending])
            candidate[pending], candidate_eta[pending] = trial, trial_eta
            new_objective[pending] = value
            if tries < 31:
                pending = pending[~(value >= floor[pending])]
        beta, eta, objective = candidate, candidate_eta, new_objective
        done = np.max(np.abs(scale[:, None] * step), axis=1) < COEF_TOLERANCE
        result[live[done]] = beta[done]
        converged[live[done]] = True
        iterations[live[done]] = iteration
        if done.any():
            keep = ~done
            live, beta, eta, objective = live[keep], beta[keep], eta[keep], objective[keep]
            weights = weights[keep]
            penalty, free, pinned = penalty[keep], free[keep], pinned[keep]
            stack = stack.take(keep)
            if not live.size:
                break
    result[live] = beta
    return result, converged, iterations


def irls_logistic(
    matrix: np.ndarray, y: np.ndarray, weights: np.ndarray | None = None, runs=None
) -> tuple[np.ndarray, bool, int]:
    """Maximize the ridge-penalized Bernoulli log-likelihood of one population.

    The design is an intercept, `matrix`, then the run columns: `runs`
    is (starts, levels), rows starts[r] up to the next start forming run
    r, whose rows all take levels[r] as those columns. Row i counts
    weights[i] times (once when weights is None). The intercept is
    unpenalized. Newton steps are halved until the objective does not
    decrease beyond round-off relative to its size, so the ascent is
    monotone; with ridge on the slopes the optimum is finite even for
    separable data. This is the stacked loop with one population that
    takes `matrix` as its own z-scores. Returns (beta with intercept
    first, converged flag, iterations).
    """
    if not np.all(np.isfinite(matrix)):
        raise SchemaError("design matrix contains non-finite values")
    n, k = matrix.shape
    starts, levels = runs if runs is not None else (np.zeros(1, np.intp), np.zeros((1, 0)))
    design = SharedDesign(np.arange(n), np.hstack([np.ones((n, 1)), matrix]), starts, levels)
    row_weights = np.ones(n) if weights is None else np.asarray(weights, dtype=np.float64)
    beta, converged, iterations = _newton(
        design,
        np.asarray(y, dtype=np.float64),
        row_weights[None],
        np.zeros((1, k)),
        np.ones((1, k)),
        np.ones((1, design.p), dtype=bool),
    )
    return beta[0], bool(converged[0]), int(iterations[0])


def penalized_gradient(matrix: np.ndarray, y: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Gradient of the penalized log-likelihood; zero at the optimum."""
    n = matrix.shape[0]
    design = np.hstack([np.ones((n, 1)), matrix])
    penalty = np.full(design.shape[1], RIDGE_LAMBDA)
    penalty[0] = 0.0
    mu = expit(design @ beta)
    return design.T @ (y - mu) - penalty * beta


@dataclass(frozen=True)
class StackFit:
    """Propensity fits of a stack of populations of one cell, one row per population.

    beta holds the coefficients on each population's own design: the
    intercept, the numeric z-scores, then one entry per level present in
    the cell, 0 where `free` is false (a numeric column constant on the
    population's rows, a level it lacks, or its first level of a
    variable). shift and spread map each population onto the cell's
    shared design (see _Stack).
    """

    design: SharedDesign
    beta: np.ndarray
    free: np.ndarray
    shift: np.ndarray
    spread: np.ndarray
    converged: np.ndarray
    iterations: np.ndarray

    def coefficients(self, r: int) -> np.ndarray:
        """Population r's intercept, numeric and free level coefficients (column_names order)."""
        dense = self.design.n_dense
        return np.concatenate([self.beta[r, :dense], self.beta[r, dense:][self.free[r, dense:]]])

    def probabilities(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Clipped fitted probabilities of populations start to stop - 1, one row each.

        stop defaults to start + 1. Columns are cell rows, in cell row
        order; every row gets one, but only a population's own rows were
        fitted.
        """
        rows = slice(start, start + 1 if stop is None else stop)
        eta = _Stack(self.design, self.shift[rows], self.spread[rows]).linear(self.beta[rows])
        probabilities = np.empty((len(eta), self.design.n))
        probabilities[:, self.design.rows] = _clipped(eta)
        return probabilities


def _populations(
    design: SharedDesign, weights: np.ndarray, whole: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each population's (shift, spread, free) on a cell's shared design.

    shift and spread are its weighted mean and population std of the
    z-scored columns. A population that is the whole cell, every row
    counted once, has shift 0 and spread 1. A numeric column constant on
    its rows is not free: its own z-scores are all 0 (a std of 0
    becomes 1), so the ridge holds its coefficient at 0. A level is free
    when the population has rows at it and it is not the first such
    level of its variable.
    """
    numeric = design.dense_t[1:]
    total = np.sum(weights, axis=1)[:, None]
    shift = np.matmul(weights[:, None, :], numeric.T)[:, 0] / total
    squares = weights[:, None, :] * (numeric - shift[:, :, None]) ** 2
    spread = np.sqrt(np.sum(squares, axis=2) / total)
    # Only columns this narrow are checked exactly for being constant.
    flat = np.zeros(spread.shape, dtype=bool)
    pairs = np.nonzero(spread <= 1e-8)
    if pairs[0].size:
        values = numeric[pairs[1]]
        drawn = weights[pairs[0]] > 0
        low = np.min(np.where(drawn, values, np.inf), axis=1)
        flat[pairs] = low == np.max(np.where(drawn, values, -np.inf), axis=1)
    shift[whole], spread[whole] = 0.0, 1.0
    spread[flat] = 1.0
    present = np.add.reduceat(weights, design.starts, axis=1) @ design.levels > 0
    levels = present.copy()
    for variable in np.unique(design.variable):
        columns = np.flatnonzero(design.variable == variable)
        first = columns[np.argmax(present[:, columns], axis=1)]
        levels[np.arange(len(weights)), first] = False
    free = np.hstack([np.ones((len(weights), 1), dtype=bool), ~flat, levels])
    return shift, spread, free


def fit_stack(data: CellData, weights, columns: np.ndarray | None = None) -> StackFit:
    """Fit treatment ~ pre-edit covariates on every population in `weights`, as a stack.

    Population r counts cell row i weights[r][columns[i]] times
    (weights[r][i] when columns is None), so a block resample can be
    given as block counts with columns the rows' block codes. Each is
    fitted as its own population, with its own z-scoring and levels,
    over the cell's one shared design. Populations are fitted in order,
    in stacks of at most CHUNK_ROW_WEIGHTS row weights; a stack's design
    leaves out the rows none of its populations counts.
    """
    design = data.shared_design
    order = design.rows if columns is None else np.asarray(columns)[design.rows]
    y = data.treatment[design.rows].astype(np.float64)
    chunk = _stack_size(data.n)
    fits = []
    for start in range(0, len(weights), chunk):
        w = np.asarray(weights[start : start + chunk], dtype=np.float64)[:, order]
        drawn = w > 0
        if not np.all(np.any(drawn & (y == 1.0), axis=1) & np.any(drawn & (y == 0.0), axis=1)):
            raise PositivityError("all units share one arm; propensity is unidentified")
        whole = np.all(w == 1.0, axis=1)
        # Rows no population of the stack counts are left out of its design.
        used = np.any(drawn, axis=0)
        part, y_part = design, y
        if not used.all():
            part, w, y_part = design.take(used), w[:, used], y[used]
        shift, spread, free = _populations(part, w, whole)
        beta, converged, iterations = _newton(part, y_part, w, shift, spread, free)
        fits.append((beta, free, shift, spread, converged, iterations))
    return StackFit(design, *(np.concatenate(parts) for parts in zip(*fits)))


def _stack_size(n: int) -> int:
    """Populations per stack: at most CHUNK_ROW_WEIGHTS row weights, at least one population."""
    return max(1, CHUNK_ROW_WEIGHTS // n)


def sipw_stack(
    data: CellData, weights, columns: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Each population's SIPW estimate, its propensity refitted on it, fitted as one stack.

    Populations are given as for fit_stack, and each needs both arms;
    each is weighted with its own treated fraction as the rate, as sipw
    does. Returns (estimates, converged), one entry per population.
    """
    fit = fit_stack(data, weights, columns)
    t = data.treatment.astype(np.float64)
    chunk = _stack_size(data.n)
    estimates = []
    for start in range(0, len(weights), chunk):
        counts = np.asarray(weights[start : start + chunk], dtype=np.float64)
        counts = counts if columns is None else counts[:, columns]
        rate = np.sum(counts * t, axis=1, keepdims=True) / np.sum(counts, axis=1, keepdims=True)
        probabilities = fit.probabilities(start, start + len(counts))
        capped = stabilized_weights(t, probabilities, marginal_rate=rate).weights
        estimates.append(weighted_difference(t, data.outcome, counts * capped))
    return np.concatenate(estimates), fit.converged


def fit_propensity(data: CellData, idx: np.ndarray | None = None) -> PropensityModel:
    """Fit treatment ~ pre-edit covariates on the rows idx (all rows when None).

    A row repeated in idx counts once per repeat.
    """
    weights = np.ones(data.n) if idx is None else np.bincount(idx, minlength=data.n)
    fit = fit_stack(data, weights[None])
    beta = fit.coefficients(0)
    names = data.column_names(idx)
    return PropensityModel(
        intercept=float(beta[0]),
        coefficients={name: float(b) for name, b in zip(names, beta[1:])},
        schema=tuple(names),
        converged=bool(fit.converged[0]),
        iterations=int(fit.iterations[0]),
    )


def _clipped(eta: np.ndarray) -> np.ndarray:
    return np.clip(expit(eta), PROB_CLIP, 1.0 - PROB_CLIP)


def predict_probabilities(model: PropensityModel, matrix: np.ndarray) -> np.ndarray:
    """Fitted treatment probabilities, clipped away from 0 and 1."""
    beta = np.array([model.intercept] + [model.coefficients[c] for c in model.schema])
    return _clipped(np.hstack([np.ones((matrix.shape[0], 1)), matrix]) @ beta)


def stabilized_weights(
    treatment: np.ndarray,
    probabilities: np.ndarray,
    marginal_rate=None,
) -> WeightVector:
    """Stabilized inverse-probability weights, capped.

    w_i = T_i * pbar / e_i + (1 - T_i) * (1 - pbar) / (1 - e_i), where
    pbar defaults to the treated fraction of the units given (the
    fitting population's marginal rate). With one row of probabilities
    per population, marginal_rate holds one rate per row (shape (k, 1)).
    """
    t = np.asarray(treatment, dtype=np.float64)
    e = np.asarray(probabilities, dtype=np.float64)
    pbar = np.mean(t) if marginal_rate is None else np.asarray(marginal_rate, dtype=np.float64)
    raw = t * (pbar / e) + (1.0 - t) * ((1.0 - pbar) / (1.0 - e))
    weights = np.minimum(raw, WEIGHT_CAP)
    return WeightVector(weights=weights, raw=raw, cap_hits=int(np.sum(raw > WEIGHT_CAP)))


def weighted_difference(treatment: np.ndarray, outcome: np.ndarray, weights: np.ndarray):
    """Weighted treated-minus-control mean outcome; one per row when weights is 2-D."""
    t = np.asarray(treatment, dtype=np.float64)
    y = np.asarray(outcome, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    treated_sum = np.sum(w * t, axis=-1)
    control_sum = np.sum(w * (1.0 - t), axis=-1)
    if np.any(treated_sum <= 0.0) or np.any(control_sum <= 0.0):
        raise DegenerateCellError("zero weight mass in one arm")
    treated_mean = np.sum(w * t * y, axis=-1) / treated_sum
    difference = treated_mean - np.sum(w * (1.0 - t) * y, axis=-1) / control_sum
    return difference if difference.ndim else float(difference)


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
        population = np.ones(data.n) if weights is None else weights
        probabilities = fit_stack(data, [population]).probabilities()[0]
    counts = None if weights is None else np.asarray(weights, dtype=np.float64)[idx]
    if rate is None and counts is not None:
        rate = float(np.average(t, weights=counts))
    wv = stabilized_weights(t, probabilities[idx], marginal_rate=rate)
    mass = wv.weights if counts is None else counts * wv.weights
    return weighted_difference(t, data.outcome[idx], mass), wv


def kish_ess(weights: np.ndarray) -> float:
    """Kish effective sample size, (sum w)^2 / sum w^2."""
    return float(np.sum(weights) ** 2 / np.sum(weights**2))


def estimate_cell(
    cell: TestCell,
    probabilities: np.ndarray | None = None,
    rate: float | None = None,
    converged: bool = True,
) -> CellEstimate:
    """Point estimates and weight health for one cell.

    By default the propensity model is fitted on the cell itself. The
    cell's probabilities under a model fitted on a wider population (and
    that population's marginal rate, and whether that fit converged) can
    be supplied instead.
    """
    data = cell.data
    t = data.treatment.astype(np.float64)
    n_treated = int(t.sum())
    n_control = int(len(t) - t.sum())
    if n_treated == 0 or n_control == 0:
        raise PositivityError(f"cell {cell.cell_id} has an empty arm")
    if probabilities is None and rate is None:
        estimate, wv, converged = cell.point_fit
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
        converged=converged,
        ess_treated=kish_ess(wv.weights[t == 1.0]),
        ess_control=kish_ess(wv.weights[t == 0.0]),
        max_raw_weight=float(np.max(wv.raw)),
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
        pooled: dict[str, tuple[np.ndarray, float, bool]] = {}
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
            fit = fit_stack(data, np.ones((1, data.n)))
            rate, converged = float(data.treatment.mean()), bool(fit.converged[0])
            bounds = np.cumsum([0] + [c.data.n for c in group])
            for c, start, stop in zip(group, bounds, bounds[1:]):
                pooled[c.cell_id] = (fit.probabilities()[0, start:stop], rate, converged)

        def one(cell: TestCell) -> CellEstimate:
            probabilities, rate, converged = pooled.get(cell.cell_id, (None, None, True))
            return estimate_cell(cell, probabilities, rate, converged)

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
