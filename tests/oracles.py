"""Propensity-model oracles for the tests: a named model, its fit and its probabilities.

The pipeline fits propensities as stacks (estimation.fit_stack) and
never names coefficients; these wrap a one-population stacked fit, or
recompute a dense one, so tests can state expectations per covariate.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from editfx.design import CellData
from editfx.errors import SchemaError
from editfx.estimation import RIDGE_LAMBDA, StackFit, _clipped, fit_stack


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
    names = data.column_names(idx)
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
