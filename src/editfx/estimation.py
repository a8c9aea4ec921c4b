"""Propensity fitting, stabilized capped weights, and per-cell estimates.

The pipeline per cell: fit an L2-penalized logistic model of treatment
on pre-edit covariates by iteratively reweighted least squares, form
stabilized inverse-probability weights capped at 10, then take the
weighted treated-minus-control mean gain. The unweighted difference and
its gap to the weighted one are reported alongside. A fitting population
is a cell's rows with frequency weights, so a bootstrap resample or a
leave-one-out split needs no rows of its own. The populations of one
cell are fitted together, one Newton loop over a stack of them, on the
cell's one shared design, each over only the rows it counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.special import expit

from .design import CellData, SharedDesign, TestCell, TestFamily, map_cells
from .errors import ConfigError, DegenerateCellError, PositivityError, SchemaError

RIDGE_LAMBDA = 1e-4
PROB_CLIP = 1e-6
WEIGHT_CAP = 10.0
MAX_ITERATIONS = 100
COEF_TOLERANCE = 1e-8
# A stack holds at most this many slots: its populations times the most
# rows one of them counts (or it is one population).
CHUNK_ROW_WEIGHTS = 2**14


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


class _Rows:
    """Each population's own rows of a shared design, one row of m slots per population.

    Population r's own rows are the own[r] design rows it counts. They
    fill its first slots in design order; the slots after them are
    padding, with weight 0 and covariates 0, and no sum takes them in.
    Its own rows split into segments, each a stretch of one design run:
    `starts` are the flat offsets (population * m + slot) of every
    segment and of every population's padding, in order, and `run` their
    design runs (the number of runs for padding), so one reduceat sums
    every segment of a stack. Every sum that feeds a population's Newton
    steps (a product with the design, a sum over runs, a total) is a
    reduceat or a BLAS call over exactly its own rows, so its
    coefficients do not depend on the stack it is fitted in; only the
    objective, which just accepts or halves a step, adds its padding's
    zeros too. dense_t holds the slots' design columns (populations x
    columns x m) and dense is its transpose; when every population
    counts every row, the slots are the design rows themselves and both
    are the design's own, broadcast.
    """

    def __init__(self, design: SharedDesign, own, starts, run, dense_t: np.ndarray):
        self.design, self.own, self.count = design, own, len(own)
        self.starts, self.run = starts, run
        self.m = dense_t.shape[-1]
        self.shared = dense_t is design.dense_t
        if self.shared:
            self.dense_t = np.broadcast_to(dense_t, (self.count, *dense_t.shape))
            self.dense = np.broadcast_to(design.dense, (self.count, *design.dense.shape))
        else:
            # Copied slots keep one array and read their rows through it.
            self.dense_t, self.dense = dense_t, np.swapaxes(dense_t, 1, 2)
        self.lengths = np.diff(starts, append=self.count * self.m)
        self._plans = {}

    def take(self, keep, dense_t: np.ndarray | None = None) -> _Rows:
        """The populations keep picks (a mask, or ascending indices), with their segments.

        Their slots' columns are copied, unless dense_t holds them already;
        their segments are moved, not found again.
        """
        index = np.arange(self.count)[keep]
        new = np.full(self.count, -1)
        new[index] = np.arange(len(index))
        pop = self.starts // self.m
        moved = new[pop]
        mine = moved >= 0
        if self.shared:
            dense_t = self.design.dense_t
        elif dense_t is None:
            dense_t = self.dense_t[index]
        starts = self.starts[mine] + (moved - pop)[mine] * self.m
        return _Rows(self.design, self.own[index], starts, self.run[mine], dense_t)

    @cached_property
    def groups(self) -> list[tuple[int, int, int]]:
        """(start, stop, n): populations side by side that each count n own rows."""
        edges = (np.flatnonzero(np.diff(self.own)) + 1).tolist()
        return [(a, b, int(self.own[a])) for a, b in zip([0, *edges], [*edges, self.count])]

    @cached_property
    def chunks(self) -> list[tuple[int, int, list[tuple[int, int, int]]]]:
        """(start, stop, groups): populations side by side, at most a quarter of a stack's
        slots (or one population), and their groups (see groups), from start."""
        step = max(1, CHUNK_ROW_WEIGHTS // 4 // self.m)
        chunks = []
        for a in range(0, self.count, step):
            b = min(a + step, self.count)
            cut = [(max(g, a) - a, min(h, b) - a, n) for g, h, n in self.groups if g < b and h > a]
            chunks.append((a, b, cut))
        return chunks

    def _plan(self, start: int, stop: int, copies: int):
        """The reduceat over copies x (populations start to stop - 1) x m slots: its
        starts, each sum's place in copies x populations x runs (padding's one past the
        end), and that size."""
        if (start, stop, copies) not in self._plans:
            runs, width = len(self.design.starts), stop - start
            a, b = np.searchsorted(self.starts, [start * self.m, stop * self.m])
            starts, run = self.starts[a:b] - start * self.m, self.run[a:b]
            copy = np.arange(copies)[:, None] * width
            size = copies * width * runs
            places = np.where(run < runs, (copy + starts // self.m) * runs + run, size)
            starts = copy * self.m + starts
            self._plans[start, stop, copies] = starts.reshape(-1), places.reshape(-1), size
        return self._plans[start, stop, copies]

    @cached_property
    def _totals(self):
        """The reduceat that sums each population's own rows: its starts (a population's
        first segment starts its row, its padding closes it) and each sum's place."""
        padding = self.run == len(self.design.starts)
        keep = (self.starts % self.m == 0) | padding
        return self.starts[keep], np.where(padding[keep], self.count, self.starts[keep] // self.m)

    def sums(self, values: np.ndarray) -> np.ndarray:
        """Sums of values (populations x m) over each population's own rows."""
        return _placed_sums(values, *self._totals, self.count)

    def run_sums(self, values: np.ndarray, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Sums of values (..., populations start to stop - 1, m) over each design run, 0
        where a population has none: (..., populations, runs)."""
        stop = self.count if stop is None else stop
        plan = self._plan(start, stop, values.size // ((stop - start) * self.m))
        return _placed_sums(values, *plan).reshape(*values.shape[:-1], -1)

    def by_run(self, values: np.ndarray) -> np.ndarray:
        """Values (populations x design runs) on each population's slots, 0 on padding."""
        _, places, _ = self._plan(0, self.count, 1)
        spread = np.append(values.reshape(-1), 0.0)[places]
        return np.repeat(spread, self.lengths).reshape(self.count, self.m)


def _placed_sums(values: np.ndarray, starts, places, size: int) -> np.ndarray:
    """np.add.reduceat over the flat values from starts, each sum put at its place of
    size places, or dropped at place size."""
    out = np.zeros(size + 1)
    out[places] = np.add.reduceat(values.reshape(-1), starts)
    return out[:-1]


def _own_rows(design: SharedDesign, counts: np.ndarray, atoms: np.ndarray):
    """The populations' slots (see _Rows), their weights there, and a gather into them.

    An atom is a stretch of one design run whose rows share one weight:
    atoms are their first design rows, and counts[r, a] is atom a's
    weight in population r. Returns (rows, weights, own): own maps a
    design-order array (..., design rows) onto the slots (populations x
    ... x m), copying each population's maximal stretches of counted
    atoms whole; it returns the array itself when every population
    counts every row.
    """
    size = np.diff(atoms, append=design.n)
    drawn = counts > 0
    rows_of = drawn * size
    end = np.cumsum(rows_of, axis=1)
    slot = end - rows_of
    own = end[:, -1]
    m = int(own.max())
    # A run's own rows are one segment, from the slot of its first atom.
    first_atoms = np.searchsorted(atoms, design.starts)
    pop, run = np.nonzero(np.add.reduceat(rows_of, first_atoms, axis=1))
    padded = np.flatnonzero(own < m)
    starts = np.concatenate([pop * m + slot[pop, first_atoms[run]], padded * m + own[padded]])
    order = np.argsort(starts)
    run = np.concatenate([run, np.full(len(padded), len(design.starts))])[order]
    copies = []
    if not drawn.all():
        before = np.zeros_like(drawn)
        before[:, 1:] = drawn[:, :-1]
        after = np.zeros_like(drawn)
        after[:, :-1] = drawn[:, 1:]
        first, last = np.nonzero(drawn & ~before), np.nonzero(drawn & ~after)
        copies = np.stack([first[0], slot[first], atoms[first[1]], end[last] - slot[first]], 1)
        copies = copies.tolist()

    def gather(values: np.ndarray) -> np.ndarray:
        if not copies:
            return values
        out = np.zeros((len(counts), *values.shape[:-1], m))
        for r, start, row, length in copies:
            out[r, ..., start : start + length] = values[..., row : row + length]
        return out

    rows = _Rows(design, own, starts[order], run, gather(design.dense_t))
    weights = np.zeros((len(counts), m))
    weights[np.arange(m) < own[:, None]] = np.repeat(
        counts[drawn], np.broadcast_to(size, drawn.shape)[drawn]
    )
    return rows, weights, gather


def _each(values: np.ndarray, count: int) -> np.ndarray:
    """Slot values from a gather (see _own_rows), one row per population."""
    return values if values.ndim == 2 else np.tile(values, (count, 1))


class _Stack:
    """Populations fitted on their own rows of one shared design, each with its own z-scoring.

    Population r's own z-scores of the numeric columns are
    (Zc - shift[r]) / spread[r], where Zc are the design's numeric
    columns. Its coefficients on those z-scores (beta, "own coordinates")
    and on the design itself (gamma, "shared coordinates") give the same
    linear predictor when gamma_j = beta_j / spread_j and
    gamma_0 = beta_0 - sum_j shift_j gamma_j; one-hot columns are not
    rescaled.
    """

    def __init__(self, rows: _Rows, shift: np.ndarray, spread: np.ndarray):
        self.rows = rows
        self.shift = shift
        self.spread = spread
        self.slopes = slice(1, 1 + shift.shape[1])

    def take(self, keep, dense_t: np.ndarray | None = None) -> _Stack:
        return _Stack(self.rows.take(keep, dense_t), self.shift[keep], self.spread[keep])

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
        """Each population's linear predictor on its slots (populations x m)."""
        return _linear(self.rows, self.shared(beta))


class _Known:
    """Stands for a design whose linear predictor at the coefficients given is known."""

    def __init__(self, eta: np.ndarray):
        self.eta = eta

    def __matmul__(self, beta: np.ndarray) -> np.ndarray:
        return self.eta


# Every kernel below makes one BLAS call per population (a stacked matmul
# or solve). A sum over rows runs over exactly a population's own rows:
# a stacked matmul per group of populations with as many own rows. On the
# design's own rows a stack of one repeats the products of a single dense
# fit bit for bit.


def _linear(rows: _Rows, gamma: np.ndarray) -> np.ndarray:
    """Each row of gamma's linear predictor on its population's slots."""
    design = rows.design
    eta = np.matmul(rows.dense, gamma[:, : design.n_dense, None])[:, :, 0]
    if design.p > design.n_dense:
        eta += rows.by_run(np.matmul(design.levels, gamma[:, design.n_dense :, None])[:, :, 0])
    return eta


def _gradient(rows: _Rows, residual: np.ndarray) -> np.ndarray:
    """X^T residual for each row of residual."""
    design = rows.design
    head = np.concatenate(
        [
            np.matmul(np.swapaxes(rows.dense[a:b, :n], 1, 2), residual[a:b, :n, None])[:, :, 0]
            for a, b, n in rows.groups
        ]
    )
    if design.p == design.n_dense:
        return head
    runs = rows.run_sums(residual)
    return np.concatenate([head, np.matmul(design.levels.T, runs[:, :, None])[:, :, 0]], axis=1)


def _hessian(rows: _Rows, w: np.ndarray) -> np.ndarray:
    """X^T diag(w) X for each row of w: the dense block, then per-run sums times run levels."""
    design = rows.design
    d, count = design.n_dense, len(w)
    top = np.empty((count, d, d))
    runs = np.empty((d, count, len(design.starts)))
    # Row-scaled columns are formed one chunk of populations at a time, columns
    # outermost, so one reduceat takes every column's run sums; each group's
    # dense block is one product over its own rows.
    for a, b, groups in rows.chunks:
        scaled = np.empty((d, b - a, rows.m))
        np.multiply(np.swapaxes(rows.dense_t[a:b], 0, 1), w[a:b], out=scaled)
        for g, h, n in groups:
            own = np.swapaxes(scaled[:, g:h, :n], 0, 1)
            top[a + g : a + h] = np.matmul(own, rows.dense[a + g : a + h, :n])
        if design.p > d:
            runs[:, a:b] = rows.run_sums(scaled, a, b)
    if design.p == d:
        return top
    hessian = np.empty((count, design.p, design.p))
    hessian[:, :d, :d] = top
    hessian[:, :d, d:] = np.matmul(np.swapaxes(runs, 0, 1), design.levels)
    hessian[:, d:, :d] = np.swapaxes(hessian[:, :d, d:], 1, 2)
    # The intercept column is exactly 1, so the first row of runs sums w.
    hessian[:, d:, d:] = np.matmul(design.levels.T, design.levels * runs[0, :, :, None])
    return hessian


def _derivatives(rows: _Rows, y: np.ndarray, weights: np.ndarray, eta: np.ndarray):
    """Each population's log-likelihood gradient X^T w (y - mu), and its Hessian
    X^T diag(w mu (1 - mu)) X with mu (1 - mu) at least 1e-10."""
    mu = expit(eta)
    residual = y - mu
    residual *= weights
    gradient = _gradient(rows, residual)
    # mu becomes each row's Hessian weight, weights * max(mu * (1 - mu), 1e-10),
    # in place: fresh arrays are costly to fault in, so the loop makes few.
    np.subtract(1.0, mu, out=residual)
    mu *= residual
    del residual
    np.maximum(mu, 1e-10, out=mu)
    mu *= weights
    return gradient, _hessian(rows, mu)


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
    the stacked loop, a _Known linear predictor with y, beta and weights
    one row per population; the result is one value per population.
    """
    eta = design @ beta
    # log sigma(eta) summed over y=1, log(1-sigma) over y=0, stably. Every
    # row given is a population's own row or padding of weight 0.
    terms = y * eta
    terms -= np.logaddexp(0.0, eta)
    if weights is not None:
        terms *= weights
    loglik = np.sum(terms, axis=-1)
    return loglik - 0.5 * RIDGE_LAMBDA * np.sum(beta[..., 1:] ** 2, axis=-1)


def _newton(
    rows: _Rows,
    y: np.ndarray,
    weights: np.ndarray,
    shift: np.ndarray,
    spread: np.ndarray,
    free: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximize each population's ridge-penalized Bernoulli log-likelihood, all at once.

    Population r counts its slot i (see _Rows) weights[r, i] times, with
    treatment y[r, i], so every per-row pass runs over its own rows and
    its padding only. It z-scores the numeric columns with (shift[r],
    spread[r]) (see _Stack) and fits the coefficients where free[r] is
    true; the others stay 0. Each population follows its own Newton path
    in own coordinates: it starts from logit of its treated rate, halves
    its step until its objective does not decrease beyond round-off, and
    leaves the stack once its step is below COEF_TOLERANCE; the slots of
    the populations left are taken as they are, never rebuilt. Gradient
    and Hessian are formed in shared coordinates, where the ridge on
    slope j is RIDGE_LAMBDA * spread_j**2, and the step is mapped back.
    Returns (beta in own coordinates, converged, iterations), one row each.
    """
    count, p = len(weights), rows.design.p
    penalty = np.full((count, p), RIDGE_LAMBDA)
    penalty[:, 0] = 0.0
    stack = _Stack(rows, shift, spread)
    penalty[:, stack.slopes] *= spread**2
    rate = rows.sums(weights * y) / rows.sums(weights)
    beta = np.zeros((count, p))
    inside = (0.0 < rate) & (rate < 1.0)
    beta[inside, 0] = np.log(rate[inside] / (1.0 - rate[inside]))
    eta = stack.linear(beta)
    objective = _penalized_loglik(_Known(eta), y, beta, weights)
    pinned = ~(free[:, :, None] & free[:, None, :])
    diagonal = np.arange(p)
    # The populations still fitting keep the first rows of these arrays,
    # moved there in place (row at[i] is population at[i]'s) and put back
    # in order at the end, so no array of rows is copied.
    moved = [weights, y] + ([] if rows.shared else [rows.dense_t])
    at = np.arange(count)
    result = np.empty((count, p))
    converged = np.zeros(count, dtype=bool)
    iterations = np.full(count, MAX_ITERATIONS)
    live = np.arange(count)
    for iteration in range(1, MAX_ITERATIONS + 1):
        gamma = stack.shared(beta)
        score, hessian = _derivatives(stack.rows, y, weights, eta)
        grad = np.where(free, score - penalty * gamma, 0.0)
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
            value = _penalized_loglik(_Known(trial_eta), y[pending], trial, weights[pending])
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
            penalty, free, pinned = penalty[keep], free[keep], pinned[keep]
            if not live.size:
                break
            order = np.concatenate([np.flatnonzero(keep), np.flatnonzero(done)])
            _reorder([array[: len(order)] for array in moved], order)
            at[: len(order)] = at[order]
            weights, y = moved[0][: live.size], moved[1][: live.size]
            stack = stack.take(keep, None if rows.shared else moved[2][: live.size])
    result[live] = beta
    _reorder(moved, np.argsort(at))
    return result, converged, iterations


def _reorder(arrays: list[np.ndarray], order: np.ndarray) -> None:
    """Put row order[i] of each array at row i, in place, one row at a time."""
    placed = np.zeros(len(order), dtype=bool)
    for start in range(len(order)):
        if placed[start] or order[start] == start:
            continue
        saved = [array[start].copy() for array in arrays]
        i = start
        while order[i] != start:
            for array in arrays:
                array[i] = array[order[i]]
            placed[i], i = True, order[i]
        for array, row in zip(arrays, saved):
            array[i] = row
        placed[i] = True


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
    rows, row_weights, own = _own_rows(design, row_weights[None], np.arange(n))
    beta, converged, iterations = _newton(
        rows,
        _each(own(np.asarray(y, dtype=np.float64)), len(row_weights)),
        row_weights,
        np.zeros((1, k)),
        np.ones((1, k)),
        np.ones((1, design.p), dtype=bool),
    )
    return beta[0], bool(converged[0]), int(iterations[0])


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

    def probabilities(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Clipped fitted probabilities of populations start to stop - 1, one row each.

        stop defaults to start + 1. Columns are cell rows, in cell row
        order; every row gets one, but only a population's own rows were
        fitted.
        """
        pick = slice(start, start + 1 if stop is None else stop)
        beta = self.beta[pick]
        every = np.ones((len(beta), len(self.design.starts)))
        rows = _own_rows(self.design, every, self.design.starts)[0]
        eta = _Stack(rows, self.shift[pick], self.spread[pick]).linear(beta)
        probabilities = np.empty((len(eta), self.design.n))
        probabilities[:, self.design.rows] = _clipped(eta)
        return probabilities


def _populations(
    rows: _Rows, weights: np.ndarray, whole: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each population's (shift, spread, free) on a cell's shared design, from its slots.

    shift and spread are its weighted mean and population std of the
    z-scored columns. A population that is the whole cell, every row
    counted once, has shift 0 and spread 1. A numeric column constant on
    its rows is not free: its own z-scores are all 0 (a std of 0
    becomes 1), so the ridge holds its coefficient at 0. A level is free
    when the population has rows at it and it is not the first such
    level of its variable.
    """
    design = rows.design
    numeric = rows.dense_t[:, 1:, :]
    total = rows.sums(weights)
    shift, spread = np.empty((2, len(weights), numeric.shape[1]))
    column = np.empty_like(weights)
    for j in range(numeric.shape[1]):
        shift[:, j] = rows.sums(np.multiply(weights, numeric[:, j], out=column)) / total
        np.subtract(numeric[:, j], shift[:, j, None], out=column)
        column *= column
        column *= weights
        spread[:, j] = np.sqrt(rows.sums(column) / total)
    # Only columns this narrow are checked exactly for being constant.
    flat = np.zeros(spread.shape, dtype=bool)
    pairs = np.nonzero(spread <= 1e-8)
    if pairs[0].size:
        values = numeric[pairs]
        drawn = weights[pairs[0]] > 0
        low = np.min(np.where(drawn, values, np.inf), axis=1)
        flat[pairs] = low == np.max(np.where(drawn, values, -np.inf), axis=1)
    shift[whole], spread[whole] = 0.0, 1.0
    spread[flat] = 1.0
    present = rows.run_sums(weights) @ design.levels > 0
    levels = present.copy()
    for variable in np.unique(design.variable):
        columns = np.flatnonzero(design.variable == variable)
        first = columns[np.argmax(present[:, columns], axis=1)]
        levels[np.arange(len(weights)), first] = False
    free = np.hstack([np.ones((len(weights), 1), dtype=bool), ~flat, levels])
    return shift, spread, free


def _stacks(own: np.ndarray):
    """(start, stop) of each stack of populations that count own[r] rows, in order.

    A stack takes the next population while it then holds at most
    CHUNK_ROW_WEIGHTS slots, its populations times its widest one's own
    rows; a population wider than that is a stack of one.
    """
    start, widest = 0, 0
    for r, rows in enumerate(own.tolist()):
        widest = max(widest, rows)
        if r > start and (r + 1 - start) * widest > CHUNK_ROW_WEIGHTS:
            yield start, r
            start, widest = r, rows
    yield start, len(own)


def _fit_stacks(data: CellData, design: SharedDesign, weights, columns, finish):
    """Fit the populations stack by stack (see fit_stack). finish(fitted) gives arrays with
    one row per population of a stack; returns each, over all populations, in their order."""
    order = design.rows if columns is None else np.asarray(columns)[design.rows]
    edge = np.diff(order, prepend=-1) != 0
    edge[design.starts] = True
    atoms = np.flatnonzero(edge)
    counts = np.asarray(weights, dtype=np.float64)[:, order[atoms]]
    y = data.treatment[design.rows].astype(np.float64)
    own = (counts > 0) @ np.diff(atoms, append=design.n)
    # Widest first: a stack's populations count about as many rows each, so
    # little of its slots is padding. One stack at a time: each is built,
    # fitted and finished before the next is built.
    rank = np.argsort(-own, kind="stable")
    fits = [_fit(design, counts[rank[a:b]], atoms, y, finish) for a, b in _stacks(own[rank])]
    results = []
    for part in zip(*fits):
        stacked = np.concatenate(part)
        results.append(np.empty_like(stacked))
        results[-1][rank] = stacked
    return results


@dataclass(frozen=True)
class _Fitted:
    """One fitted stack: its populations on their slots, and their fits (see _newton)."""

    stack: _Stack
    weights: np.ndarray
    treatment: np.ndarray
    own: object
    beta: np.ndarray
    free: np.ndarray
    converged: np.ndarray
    iterations: np.ndarray


def _fit(design: SharedDesign, counts: np.ndarray, atoms: np.ndarray, y: np.ndarray, finish):
    rows, w, own = _own_rows(design, counts, atoms)
    t = _each(own(y), len(w))
    arms = [np.any((w > 0) & (t == arm), axis=1) for arm in (0.0, 1.0)]
    if not np.all(arms[0] & arms[1]):
        raise PositivityError("all units share one arm; propensity is unidentified")
    shift, spread, free = _populations(rows, w, np.all(counts == 1.0, axis=1))
    beta, converged, iterations = _newton(rows, t, w, shift, spread, free)
    stack = _Stack(rows, shift, spread)
    return finish(_Fitted(stack, w, t, own, beta, free, converged, iterations))


def fit_stack(data: CellData, weights, columns: np.ndarray | None = None) -> StackFit:
    """Fit treatment ~ pre-edit covariates on every population in `weights`, as stacks.

    Population r counts cell row i weights[r][columns[i]] times
    (weights[r][i] when columns is None), so a block resample can be
    given as block counts with columns the rows' block codes. Each is
    fitted as its own population, with its own z-scoring and levels,
    over the cell's one shared design, and only on its own rows: the
    rows it counts, copied once per stack as whole stretches of design
    runs (see _Rows). A population that counts every row is fitted on
    the design's rows themselves. Populations are fitted in order, in
    stacks of at most CHUNK_ROW_WEIGHTS slots, a stack's populations
    times its widest one's own rows (see _stacks).
    """

    def finish(fitted: _Fitted):
        shift, spread = fitted.stack.shift, fitted.stack.spread
        return fitted.beta, fitted.free, shift, spread, fitted.converged, fitted.iterations

    design = data.shared_design
    return StackFit(design, *_fit_stacks(data, design, weights, columns, finish))


def sipw_stack(
    data: CellData, weights, columns: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Each population's SIPW estimate, its propensity refitted on it, fitted as stacks.

    Populations are given as for fit_stack, and each needs both arms;
    each is weighted with its own treated fraction as the rate, as sipw
    does. Probabilities, weights and the weighted difference are formed
    on each stack's slots, so on each population's own rows. Returns
    (estimates, converged), one entry per population.
    """

    def finish(fitted: _Fitted):
        stack, w, t = fitted.stack, fitted.weights, fitted.treatment
        rate = (stack.rows.sums(w * t) / stack.rows.sums(w))[:, None]
        capped = stabilized_weights(t, _clipped(stack.linear(fitted.beta)), rate).weights
        outcome = fitted.own(data.outcome[design.rows])
        return weighted_difference(t, outcome, w * capped), fitted.converged

    design = data.shared_design
    estimates, converged = _fit_stacks(data, design, weights, columns, finish)
    return estimates, converged


def _clipped(eta: np.ndarray) -> np.ndarray:
    return np.clip(expit(eta), PROB_CLIP, 1.0 - PROB_CLIP)


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
            probabilities = fit.probabilities()[0]
            bounds = np.cumsum([0] + [c.data.n for c in group])
            for c, start, stop in zip(group, bounds, bounds[1:]):
                pooled[c.cell_id] = (probabilities[start:stop], rate, converged)

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
