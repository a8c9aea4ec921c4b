"""Oracles for the tests: a named propensity model, a diff replay, a unit CSV.

The pipeline fits propensities as stacks (estimation.fit_stack) and
never names coefficients; these wrap a one-population stacked fit, or
recompute a dense one, so tests can state expectations per covariate.
apply_script replays an edit script to check a diff, and units_to_csv
writes a cell's units for external checking.
"""

import csv
from dataclasses import dataclass
from typing import IO

import numpy as np
from scipy.special import expit

from editfx.design import CellData
from editfx.errors import SchemaError
from editfx.estimation import RIDGE_LAMBDA, StackFit, _clipped, fit_stack
from editfx.motifs import EditRun


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


def units_to_csv(data: CellData, stream: IO[str]) -> None:
    """One unit per row with expanded covariates, for external checking.

    The fitting population for z-scores and dummy levels is the cell's
    full row set.
    """
    matrix, names = data.encode_with_names()
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
