"""Propensity fitting, stabilized weights, and cell estimates."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import minimize
from scipy.special import expit, logit

import editfx.estimation as estimation
from editfx.design import NUMERIC_COVARIATES, CellData, SharedDesign, TestCell, TreatmentSpec
from editfx.errors import ConfigError, DegenerateCellError, PositivityError, SchemaError
from editfx.estimation import (
    PROB_CLIP,
    RIDGE_LAMBDA,
    WEIGHT_CAP,
    estimate_all,
    estimate_cell,
    irls_logistic,
    sipw,
    stabilized_weights,
    weighted_difference,
)

from editfx.design import PreparedCorpus, TestFamily, build_units
from editfx.synth import SynthConfig, generate

from oracles import (
    PropensityModel,
    coefficients,
    fit_propensity,
    penalized_gradient,
    predict_probabilities,
)
from test_design import make_cells, make_data, make_unit

TestFamily.__test__ = False


def moved(unit: dict, dataset: str, word_shift: float) -> dict:
    """The unit relabelled to another dataset, with a longer before prompt."""
    numeric = dict(unit["numeric"])
    numeric["p1_word_count"] += word_shift
    return {**unit, "numeric": numeric, "categorical": {**unit["categorical"], "dataset": dataset}}


def neg_penalized_loglik(beta, design, y, ridge):
    eta = design @ beta
    loglik = np.sum(y * eta - np.logaddexp(0.0, eta))
    return -(loglik - 0.5 * ridge * np.sum(beta[1:] ** 2))


def reference_irls(matrix, y):
    # The dense irls_logistic, kept as the oracle for the run-form one: it
    # builds the whole design, intercept first, and forms every product
    # over its rows. It reads the module's objective and iteration cap at
    # call time, as irls_logistic does, so both see the same patches.
    n = matrix.shape[0]
    design = np.hstack([np.ones((n, 1)), matrix])
    p = design.shape[1]
    penalty = np.full(p, RIDGE_LAMBDA)
    penalty[0] = 0.0
    rate = float(np.mean(y))
    beta = np.zeros(p)
    beta[0] = np.log(rate / (1.0 - rate)) if 0.0 < rate < 1.0 else 0.0
    objective = estimation._penalized_loglik(design, y, beta)
    converged = False
    iterations = 0
    for iterations in range(1, estimation.MAX_ITERATIONS + 1):
        mu = expit(design @ beta)
        grad = design.T @ (y - mu) - penalty * beta
        w = np.clip(mu * (1.0 - mu), 1e-10, None)
        hessian = (design * w[:, None]).T @ design
        hessian[np.diag_indices(p)] += penalty
        try:
            step = np.linalg.solve(hessian, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hessian, grad, rcond=None)[0]
        scale = 1.0
        for _ in range(30):
            candidate = beta + scale * step
            new_objective = estimation._penalized_loglik(design, y, candidate)
            if new_objective >= objective - 1e-12 * max(1.0, abs(objective)):
                break
            scale *= 0.5
        else:
            candidate = beta + scale * step
            new_objective = estimation._penalized_loglik(design, y, candidate)
        beta, objective = candidate, new_objective
        if float(np.max(np.abs(scale * step))) < estimation.COEF_TOLERANCE:
            converged = True
            break
    return beta, converged, iterations


def dense_sipw(data, idx):
    """(beta, SIPW estimate, design) on the rows idx concatenated, fitted by reference_irls."""
    t = data.treatment[idx].astype(np.float64)
    matrix = data.encode(idx)
    beta = reference_irls(matrix, t)[0]
    probabilities = np.clip(expit(beta[0] + matrix @ beta[1:]), PROB_CLIP, 1.0 - PROB_CLIP)
    weights = stabilized_weights(t, probabilities).weights
    return beta, weighted_difference(t, data.outcome[idx], weights), matrix


def irls_design(kind, n, p, seed):
    """A (matrix, y) pair of one awkward shape for the IRLS oracle check."""
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(n, p))
    if kind == "separable":
        y = (matrix[:, 0] > 0).astype(float)
    elif kind == "near_constant":
        matrix = 3.0 + 1e-9 * matrix
        y = (rng.random(n) < 0.3).astype(float)
    elif kind == "rank_deficient":
        matrix[:, -1] = matrix[:, 0] if p > 1 else 0.0
        y = (rng.random(n) < expit(matrix[:, 0])).astype(float)
    else:
        y = (rng.random(n) < expit(matrix @ rng.normal(size=p))).astype(float)
    return matrix, y


def make_units(n=200, seed=0, tau=0.05, beta_x=0.1, gamma=1.0, task_group="math"):
    """Units where word count confounds a binary treatment when gamma != 0."""
    rng = np.random.default_rng(seed)
    units = []
    datasets = ["ds_a", "ds_b"]
    for k in range(n):
        x = float(rng.normal())
        t = int(rng.random() < expit(gamma * x))
        y = tau * t + beta_x * x + 0.05 * float(rng.normal())
        units.append(
            make_unit(
                pair_id=f"u{k}",
                treatment=t,
                outcome=float(np.clip(y, -1.0, 1.0)),
                task_group=task_group,
                p1_word_count=20.0 + 4.0 * x,
                dataset=datasets[k % 2],
            )
        )
    return units


def make_cell(n=200, seed=0, tau=0.05, beta_x=0.1, gamma=1.0, task_group="math"):
    """One make_units cell over its own frame."""
    return make_cells(make_units(n, seed, tau, beta_x, gamma, task_group))[0]


class TestIrls:
    def test_matches_scipy_optimizer(self):
        rng = np.random.default_rng(11)
        n = 80
        matrix = rng.normal(size=(n, 3))
        y = (rng.random(n) < expit(0.4 + matrix @ np.array([0.8, -0.5, 0.2]))).astype(float)
        beta, converged, _ = irls_logistic(matrix, y)
        assert converged
        design = np.hstack([np.ones((n, 1)), matrix])
        ref = minimize(
            neg_penalized_loglik,
            np.zeros(4),
            args=(design, y, RIDGE_LAMBDA),
            method="BFGS",
            options={"gtol": 1e-10},
        )
        np.testing.assert_allclose(beta, ref.x, atol=1e-5)

    def test_gradient_vanishes_at_optimum(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            n = 50
            matrix = rng.normal(size=(n, 2))
            y = (rng.random(n) < expit(matrix[:, 0])).astype(float)
            beta, _, _ = irls_logistic(matrix, y)
            grad = penalized_gradient(matrix, y, beta)
            assert float(np.max(np.abs(grad))) < 1e-6

    def test_independent_treatment_shrinks_slopes(self):
        rng = np.random.default_rng(17)
        n = 2000
        matrix = rng.normal(size=(n, 2))
        y = (rng.random(n) < 0.5).astype(float)
        beta, converged, _ = irls_logistic(matrix, y)
        assert converged
        assert float(np.max(np.abs(beta[1:]))) < 0.05

    def test_separable_data_stays_finite(self):
        x = np.linspace(-2.0, 2.0, 40)
        matrix = x[:, None]
        y = (x > 0).astype(float)
        beta, converged, _ = irls_logistic(matrix, y)
        assert converged
        assert np.all(np.isfinite(beta))
        grad = penalized_gradient(matrix, y, beta)
        assert float(np.max(np.abs(grad))) < 1e-6

    def test_constant_design_converges_to_base_rate(self):
        y = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0])
        beta, converged, iterations = irls_logistic(np.zeros((10, 1)), y)
        assert converged
        assert iterations == 1
        assert beta[0] == pytest.approx(logit(0.3))
        assert beta[1] == pytest.approx(0.0)

    @given(
        st.sampled_from(["separable", "near_constant", "rank_deficient", "random"]),
        st.integers(min_value=2, max_value=60),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_to_reference(self, kind, n, p, seed):
        matrix, y = irls_design(kind, n, p, seed)
        beta, converged, iterations = irls_logistic(matrix, y)
        ref_beta, ref_converged, ref_iterations = reference_irls(matrix, y)
        assert np.array_equal(beta, ref_beta)
        assert converged == ref_converged
        assert iterations == ref_iterations

    @pytest.mark.parametrize("max_iterations", [1, 100])
    def test_exhausted_line_search_takes_one_more_halving(self, monkeypatch, max_iterations):
        # Every candidate of the first line search is rejected, so the
        # first step is scaled by 0.5**30, one halving past the last tried.
        matrix, y = irls_design("random", 50, 3, seed=5)
        real = estimation._penalized_loglik
        calls = []

        def rejecting(design, y, beta, weights=None):
            # One population: the stacked loop's one row, or the reference's vector.
            calls.append(beta.reshape(-1).copy())
            return -np.inf if 2 <= len(calls) <= 31 else real(design, y, beta, weights)

        monkeypatch.setattr(estimation, "_penalized_loglik", rejecting)
        monkeypatch.setattr(estimation, "MAX_ITERATIONS", max_iterations)
        beta, converged, iterations = irls_logistic(matrix, y)
        first_point = calls[31]
        calls.clear()
        ref_beta, ref_converged, ref_iterations = reference_irls(matrix, y)
        assert np.array_equal(first_point, calls[31])
        step = calls[1] - calls[0]
        np.testing.assert_allclose(calls[30] - calls[0], 0.5**29 * step, rtol=1e-4)
        np.testing.assert_allclose(calls[31] - calls[0], 0.5**30 * step, rtol=1e-4)
        assert np.array_equal(beta, ref_beta)
        assert (converged, iterations) == (ref_converged, ref_iterations)
        if max_iterations == 1:
            assert np.array_equal(beta, first_point)

    def test_nonfinite_matrix_rejected(self):
        matrix = np.array([[1.0], [np.nan]])
        with pytest.raises(SchemaError):
            irls_logistic(matrix, np.array([0.0, 1.0]))


@st.composite
def weighted_populations(draw):
    """(data, weights) for one fitting population of a ragged multi-block cell.

    Framework varies within blocks, both task groups share the cell (a
    pooled population), and p1_n_demos is constant. The weights are none
    (every row once), a block resample, an iid resample, a leave-one-
    dataset-out split or a split without the first framework level.
    """
    n_blocks = draw(st.integers(min_value=2, max_value=5))
    sizes = draw(st.lists(st.integers(1, 12), min_size=n_blocks, max_size=n_blocks))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    units = []
    for block, size in enumerate(sizes):
        for _ in range(size):
            x = float(rng.normal())
            units.append(
                make_unit(
                    pair_id=f"u{len(units)}",
                    treatment=int(rng.random() < expit(x)),
                    outcome=float(np.clip(0.1 * x + 0.05 * rng.normal(), -1.0, 1.0)),
                    task_group=str(rng.choice(["math", "logical"])),
                    p1_word_count=20.0 + 4.0 * x,
                    headroom=float(rng.random()),
                    step_index=float(rng.integers(1, 4)),
                    framework=str(rng.choice(["fw_a", "fw_b", "fw_c"])),
                    dataset=f"ds_{block % 3}",
                    backbone=f"bb_{block // 3}",
                )
            )
    data = make_data(units)
    kind = draw(st.sampled_from(["all", "block", "iid", "loo", "no_first_framework"]))
    if kind == "all":
        return data, None
    if kind == "block":
        counts = np.bincount(rng.integers(0, n_blocks, n_blocks), minlength=n_blocks)
        return data, counts[data.block_codes]
    if kind == "iid":
        return data, np.bincount(rng.integers(0, data.n, data.n), minlength=data.n)
    framework, dataset = data.cat_codes[:, 0], data.cat_codes[:, 2]
    if kind == "loo":
        excluded = dataset == rng.integers(0, 3)
    else:
        excluded = framework == framework.min()
    return data, (~excluded).astype(np.float64)


class TestCountWeightedFit:
    @given(weighted_populations())
    @settings(max_examples=300, deadline=None)
    def test_matches_dense_oracle_on_concatenated_rows(self, population):
        data, weights = population
        counts = np.ones(data.n, dtype=int) if weights is None else weights.astype(int)
        idx = np.repeat(np.arange(data.n), counts)
        t = data.treatment[idx].astype(np.float64)
        assume(idx.size > 0 and t.min() != t.max())
        ref_beta, ref_estimate, matrix = dense_sipw(data, idx)
        beta = coefficients(estimation.fit_stack(data, [counts]), 0)
        assert sipw(data, weights)[0] == pytest.approx(ref_estimate, rel=0, abs=1e-12)
        # Both fits stop once a Newton step is below COEF_TOLERANCE; along
        # near-collinear dummies round-off alone moves beta by ~1e-12.
        np.testing.assert_allclose(beta, ref_beta, rtol=0, atol=estimation.COEF_TOLERANCE)
        gradient = penalized_gradient(matrix, t, beta)
        assert float(np.max(np.abs(gradient))) < 1e-6


def stack_cell(n_per_block=12, seed=0):
    """A cell of four (dataset, backbone) blocks for stacked fits.

    Frameworks vary within blocks, treatment depends weakly on word
    count, and p1_n_demos is 2 in block 0, 4 in block 1 and 3 in blocks
    2 and 3 with equal block sizes: constant within each block, not in
    the cell, and exactly at the cell mean in blocks 2 and 3.
    """
    rng = np.random.default_rng(seed)
    units = []
    for block, demos in enumerate([2.0, 4.0, 3.0, 3.0]):
        for k in range(n_per_block):
            x = float(rng.normal())
            units.append(
                make_unit(
                    pair_id=f"u{len(units)}",
                    treatment=int(k % 2 == 0) if k < 4 else int(rng.random() < expit(0.5 * x)),
                    outcome=float(np.clip(0.1 * x + 0.05 * rng.normal(), -1.0, 1.0)),
                    p1_word_count=20.0 + 4.0 * x,
                    p1_n_demos=demos,
                    headroom=float(rng.random()),
                    step_index=float(rng.integers(1, 4)),
                    framework=["fw_a", "fw_b", "fw_c"][k % 3],
                    dataset=f"ds_{block % 2}",
                    backbone=f"bb_{block // 2}",
                )
            )
    return make_data(units)


def block_counts(data, counts):
    """Row weights of a block resample that draws block b counts[b] times."""
    return np.asarray(counts, dtype=np.float64)[data.block_codes]


def assert_stack_matches_dense(data, populations, fit=None, rows=None, beta=True):
    """Fit the populations as one stack (unless fit is given); each of `rows` must match
    the dense oracle on its rows: its estimate, and its coefficients when beta is true."""
    fit = estimation.fit_stack(data, populations) if fit is None else fit
    for r in range(len(populations)) if rows is None else rows:
        idx = np.repeat(np.arange(data.n), populations[r].astype(int))
        ref_beta, ref_estimate, _ = dense_sipw(data, idx)
        estimate = sipw(data, populations[r], probabilities=fit.probabilities(r)[0])[0]
        assert estimate == pytest.approx(ref_estimate, rel=0, abs=1e-12)
        if beta:
            np.testing.assert_allclose(
                coefficients(fit, r), ref_beta, rtol=0, atol=estimation.COEF_TOLERANCE
            )
    return fit


class TestStackedFit:
    """Each population of a stack is fitted as its own population, as the dense oracle does."""

    def test_population_without_the_first_level_shifts_the_reference(self):
        data = stack_cell()
        framework = data.cat_codes[:, 0]
        without_first = (framework != framework.min()).astype(np.float64)
        populations = [np.ones(data.n), without_first, block_counts(data, [2, 0, 1, 1])]
        fit = assert_stack_matches_dense(data, populations)
        # fw_a is pinned in the whole cell; without it, fw_b is pinned instead.
        levels = fit.free[:, data.shared_design.n_dense :]
        assert levels[0, :3].tolist() == [False, True, True]
        assert levels[1, :3].tolist() == [False, False, True]

    def test_column_constant_in_one_population_only(self):
        data = stack_cell()
        populations = [block_counts(data, [1, 0, 0, 0]), block_counts(data, [1, 1, 2, 0])]
        fit = assert_stack_matches_dense(data, populations)
        demos = 1 + NUMERIC_COVARIATES.index("p1_n_demos")
        assert fit.beta[0, demos] == 0.0
        assert fit.beta[1, demos] != 0.0

    def test_one_population_exhausts_its_halvings(self, monkeypatch):
        data = stack_cell()
        target = block_counts(data, [1, 1, 1, 3])
        populations = [block_counts(data, [2, 1, 1, 0]), target, np.ones(data.n)]
        real = estimation._penalized_loglik
        seen = []

        def rejecting(design, y, beta, weights=None):
            # The target's objective calls 2 to 31 are rejected: its first
            # step exhausts every halving. Only the target counts 3 * 12 * 3.
            value = np.array(real(design, y, beta, weights), dtype=np.float64)
            mine = np.sum(weights, axis=-1) == target.sum() if weights is not None else True
            if np.any(mine):
                seen.append(1)
                if 2 <= len(seen) <= 31:
                    value[mine] = -np.inf
            return value

        monkeypatch.setattr(estimation, "_penalized_loglik", rejecting)
        fit = estimation.fit_stack(data, populations)
        # Its tiny last step is below COEF_TOLERANCE, so it stops there.
        assert len(seen) == 32
        assert (fit.converged[1], fit.iterations[1]) == (True, 1)
        monkeypatch.setattr(estimation, "_penalized_loglik", real)
        assert_stack_matches_dense(data, populations, fit=fit, rows=[0, 2])
        assert min(fit.iterations[[0, 2]]) > 1
        # The target's reference is the dense oracle with the same rejections.
        idx = np.repeat(np.arange(data.n), target.astype(int))
        seen.clear()
        monkeypatch.setattr(estimation, "_penalized_loglik", rejecting)
        ref_beta, ref_converged, ref_iterations = reference_irls(
            data.encode(idx), data.treatment[idx].astype(np.float64)
        )
        assert (fit.converged[1], fit.iterations[1]) == (ref_converged, ref_iterations)
        np.testing.assert_allclose(
            coefficients(fit, 1), ref_beta, rtol=0, atol=estimation.COEF_TOLERANCE
        )

    def test_singular_hessian_beside_regular_ones(self, monkeypatch):
        # Without the ridge, a population whose fw_b rows are exactly its
        # ds_1 rows has two equal columns: its Hessian is singular and its
        # steps come from lstsq, while the others solve. Its coefficients
        # along fw_b - ds_1 are not identified; its probabilities are.
        data = stack_cell(n_per_block=30, seed=4)
        monkeypatch.setattr(estimation, "RIDGE_LAMBDA", 0.0)
        monkeypatch.setitem(globals(), "RIDGE_LAMBDA", 0.0)
        lstsq_calls = []
        real_lstsq = np.linalg.lstsq
        monkeypatch.setattr(
            np.linalg, "lstsq", lambda *a, **k: lstsq_calls.append(1) or real_lstsq(*a, **k)
        )
        fw_b, ds_1 = data.cat_codes[:, 0] == 1, data.cat_codes[:, 2] == 1
        singular = (fw_b == ds_1).astype(np.float64)
        populations = [np.ones(data.n), singular, block_counts(data, [2, 1, 1, 1])]
        fit = estimation.fit_stack(data, populations)
        assert lstsq_calls
        assert fit.converged.all()
        assert_stack_matches_dense(data, populations, fit=fit, rows=[0, 2])
        assert_stack_matches_dense(data, populations, fit=fit, rows=[1], beta=False)

    @pytest.mark.parametrize("cell", ["four_blocks", "ragged_blocks"])
    def test_result_does_not_depend_on_the_stack(self, monkeypatch, cell):
        data, populations = stack_populations(cell)
        # Blocks hold several runs, and populations leave whole blocks undrawn.
        design = data.shared_design
        assert len(design.starts) > len(data.blocks)
        assert any(np.any(np.bincount(data.block_codes, weights=w) == 0) for w in populations)
        alone = [estimation.fit_stack(data, [w]) for w in populations]
        together = estimation.fit_stack(data, populations)
        monkeypatch.setattr(estimation, "CHUNK_ROW_WEIGHTS", 2 * data.n)
        pairs = estimation.fit_stack(data, populations[::-1])
        for r, one in enumerate(alone):
            for fit, k in ((together, r), (pairs, len(populations) - 1 - r)):
                np.testing.assert_allclose(
                    fit.probabilities(k), one.probabilities(0), rtol=0, atol=1e-12
                )
                assert fit.iterations[k] == one.iterations[0]
        assert_stack_matches_dense(data, populations, fit=together)


def ragged_cell(seed=0):
    """A cell of eight blocks of 6 to 15 rows, frameworks drawn at random within each."""
    rng = np.random.default_rng(seed)
    units = []
    for block in range(8):
        for _ in range(int(rng.integers(6, 16))):
            x = float(rng.normal())
            units.append(
                make_unit(
                    pair_id=f"u{len(units)}",
                    treatment=int(rng.random() < expit(0.5 * x)),
                    outcome=float(np.clip(0.1 * x + 0.05 * rng.normal(), -1.0, 1.0)),
                    p1_word_count=20.0 + 4.0 * x,
                    p1_n_demos=float(block % 3),
                    headroom=float(rng.random()),
                    step_index=float(rng.integers(1, 4)),
                    framework=str(rng.choice(["fw_a", "fw_b", "fw_c"])),
                    dataset=f"ds_{block % 4}",
                    backbone=f"bb_{block // 4}",
                )
            )
    return make_data(units)


def stack_populations(cell):
    """(data, block resamples with both arms) for the stack-independence test."""
    if cell == "four_blocks":
        data = stack_cell()
        rng = np.random.default_rng(3)
        populations = [block_counts(data, rng.multinomial(4, [0.25] * 4)) for _ in range(12)]
    else:
        data = ragged_cell()
        rng = np.random.default_rng(8)
        populations = [np.ones(data.n)]
        for _ in range(12):
            # Eight draws from five of the eight blocks: three or more stay undrawn.
            chosen = rng.choice(8, size=5, replace=False)
            counts = np.bincount(chosen[rng.integers(0, 5, 8)], minlength=8)
            populations.append(block_counts(data, counts))
    populations = [w for w in populations if np.unique(data.treatment[w > 0]).size == 2]
    return data, populations


def manyblocks_cell(seed=0):
    """A cell of the manyblocks shape: 5,000 rows in 50 (dataset, backbone) blocks of 100."""
    rng = np.random.default_rng(seed)
    units = []
    for block in range(50):
        for _ in range(100):
            x = float(rng.normal())
            units.append(
                make_unit(
                    pair_id=f"u{len(units)}",
                    treatment=int(rng.random() < expit(0.5 * x)),
                    outcome=float(np.clip(0.1 * x + 0.05 * rng.normal(), -1.0, 1.0)),
                    p1_word_count=20.0 + 4.0 * x,
                    headroom=float(rng.random()),
                    step_index=float(rng.integers(1, 4)),
                    framework=["fw_a", "fw_b", "fw_c"][block % 3],
                    dataset=f"ds_{block % 25:02d}",
                    backbone=f"bb_{block // 25}",
                )
            )
    return make_data(units)


class TestStackKernels:
    # tracemalloc peak of the sipw_stack call below when every population of
    # a stack of at most 2**14 row weights ran over the stack's union of
    # drawn rows (measured with numpy 2.4): 2.309 MiB.
    SIPW_STACK_PEAK_MIB = 2.31

    def test_manyblocks_refits_stay_within_the_union_rows_peak(self):
        data = manyblocks_cell()
        rng = np.random.default_rng(1)
        counts = np.stack([np.bincount(rng.integers(0, 50, 50), minlength=50) for _ in range(100)])
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            estimates, converged = estimation.sipw_stack(data, counts, data.block_codes)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert converged.all() and np.all(np.isfinite(estimates))
        assert peak / 2**20 <= self.SIPW_STACK_PEAK_MIB

    @pytest.mark.parametrize("kind", ["cell", "bare"])
    def test_hessian_reuses_the_intercept_row_of_its_run_sums(self, kind):
        # On a cell design, and on irls_logistic's bare-matrix one with runs.
        rng = np.random.default_rng(6)
        if kind == "cell":
            design = stack_cell().shared_design
        else:
            levels = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
            matrix = rng.normal(size=(30, 3))
            dense = np.hstack([np.ones((30, 1)), matrix])
            design = SharedDesign(np.arange(30), dense, np.array([0, 7, 19]), levels)
        w = rng.random((3, design.n))
        every = np.ones((3, len(design.starts)))
        rows = estimation._own_rows(design, every, design.starts)[0]
        hessian = estimation._hessian(rows, w)
        # The formula before the reuse: a second reduceat pass over w.
        scaled = design.dense_t * w[:, None, :]
        runs = np.add.reduceat(scaled, design.starts, axis=2)
        run_w = np.add.reduceat(w, design.starts, axis=1)
        assert np.array_equal(runs[:, 0], run_w)
        d = design.n_dense
        assert np.array_equal(hessian[:, :d, :d], np.matmul(scaled, design.dense))
        assert np.array_equal(hessian[:, :d, d:], np.matmul(runs, design.levels))
        expected = np.matmul(design.levels.T, design.levels * run_w[:, :, None])
        assert np.array_equal(hessian[:, d:, d:], expected)


class TestPropensityModel:
    def test_fit_and_predict_on_units(self):
        cell = make_cell(n=400, seed=2)
        model = fit_propensity(cell.data)
        assert model.converged
        assert "p1_word_count" in model.coefficients
        assert model.coefficients["p1_word_count"] > 0.3
        data = cell.data
        probs = predict_probabilities(model, data.encode())
        assert np.all((probs > 0.0) & (probs < 1.0))

    def test_single_arm_raises_positivity(self):
        units = [make_unit(pair_id=f"u{k}", treatment=1) for k in range(5)]
        with pytest.raises(PositivityError):
            fit_propensity(make_data(units))

    def test_probabilities_are_clipped(self):
        model = PropensityModel(
            intercept=50.0,
            coefficients={"x": 0.0},
            schema=("x",),
            converged=True,
            iterations=1,
        )
        probs = predict_probabilities(model, np.zeros((3, 1)))
        np.testing.assert_allclose(probs, 1.0 - 1e-6)

    def test_schema_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            PropensityModel(
                intercept=0.0,
                coefficients={"x": 1.0},
                schema=("x", "y"),
                converged=True,
                iterations=1,
            )

    def test_packed_subset_fit(self):
        cell = make_cell(n=100, seed=3)
        data = cell.data
        idx = np.arange(50)
        if data.treatment[idx].min() == data.treatment[idx].max():
            pytest.skip("subset degenerate for this seed")
        model = fit_propensity(data, idx=idx)
        assert set(model.schema) == set(model.coefficients)


class TestStabilizedWeights:
    def test_identity_when_propensity_equals_marginal(self):
        t = np.array([1.0, 0.0, 1.0, 0.0])
        e = np.full(4, 0.5)
        wv = stabilized_weights(t, e)
        np.testing.assert_array_equal(wv.weights, np.ones(4))
        assert wv.cap_hits == 0

    def test_treated_weight_formula(self):
        wv = stabilized_weights(np.array([1.0]), np.array([0.25]), marginal_rate=0.5)
        assert wv.weights[0] == pytest.approx(2.0)

    def test_cap_and_cap_hits(self):
        wv = stabilized_weights(np.array([1.0]), np.array([0.04]), marginal_rate=0.5)
        assert wv.raw[0] == pytest.approx(12.5)
        assert wv.weights[0] == WEIGHT_CAP
        assert wv.cap_hits == 1

    def test_raw_exactly_at_cap_is_not_a_hit(self):
        wv = stabilized_weights(np.array([1.0]), np.array([0.05]), marginal_rate=0.5)
        assert wv.raw[0] == pytest.approx(10.0)
        assert wv.cap_hits == 0

    def test_control_weight_formula(self):
        wv = stabilized_weights(np.array([0.0]), np.array([0.75]), marginal_rate=0.5)
        assert wv.weights[0] == pytest.approx((1 - 0.5) / (1 - 0.75))

    def test_default_marginal_is_treated_fraction(self):
        t = np.array([1.0, 1.0, 0.0, 0.0, 0.0, 0.0])
        e = np.full(6, 1.0 / 3.0)
        wv = stabilized_weights(t, e)
        np.testing.assert_allclose(wv.weights, np.ones(6))

    def test_bounded_on_random_inputs(self):
        rng = np.random.default_rng(9)
        t = (rng.random(500) < 0.4).astype(float)
        e = np.clip(rng.random(500), 1e-6, 1 - 1e-6)
        wv = stabilized_weights(t, e)
        assert np.all(wv.weights > 0.0)
        assert np.all(wv.weights <= WEIGHT_CAP)


class TestWeightedDifference:
    def test_hand_example(self):
        t = np.array([1.0, 1.0, 0.0, 0.0])
        y = np.array([0.2, 0.0, 0.1, -0.1])
        assert weighted_difference(t, y, np.ones(4)) == pytest.approx(0.1)

    def test_zero_mass_arm_raises(self):
        t = np.array([1.0, 0.0])
        y = np.array([0.5, 0.5])
        with pytest.raises(DegenerateCellError):
            weighted_difference(t, y, np.array([1.0, 0.0]))

    def test_matches_brute_force_on_small_cells(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(2, 13))
            t = rng.integers(0, 2, size=n).astype(float)
            if t.min() == t.max():
                continue
            y = rng.normal(size=n)
            w = rng.uniform(0.1, 10.0, size=n)
            treated = [(wi, yi) for ti, yi, wi in zip(t, y, w) if ti == 1.0]
            control = [(wi, yi) for ti, yi, wi in zip(t, y, w) if ti == 0.0]
            expected = sum(wi * yi for wi, yi in treated) / sum(wi for wi, _ in treated) - sum(
                wi * yi for wi, yi in control
            ) / sum(wi for wi, _ in control)
            assert weighted_difference(t, y, w) == pytest.approx(expected, abs=1e-12)


class TestEstimateCell:
    def test_sipw_debiases_confounded_cell(self):
        cell = make_cell(n=4000, seed=1, tau=0.05, beta_x=0.1, gamma=1.0)
        est = estimate_cell(cell)
        assert abs(est.acmgd_naive - 0.05) > 0.03
        assert abs(est.acmgd_sipw - 0.05) < 0.02
        assert est.confounding_magnitude == pytest.approx(
            abs(est.acmgd_sipw - est.acmgd_naive)
        )
        assert est.cell_id == "surface:word_count:math"
        assert est.n_treated + est.n_control == 4000

    def test_constant_propensity_reduces_to_naive(self):
        cell = make_cell(n=300, seed=6)
        data = cell.data
        pbar = float(data.treatment.mean())
        _, names = data.encode_with_names()
        constant = PropensityModel(
            intercept=float(logit(pbar)),
            coefficients={name: 0.0 for name in names},
            schema=tuple(names),
            converged=True,
            iterations=1,
        )
        est = estimate_cell(
            cell, probabilities=predict_probabilities(constant, data.encode()), rate=pbar
        )
        assert abs(est.acmgd_sipw - est.acmgd_naive) < 1e-12

    def test_empty_arm_raises(self):
        spec = TreatmentSpec(view="surface", feature_name="word_count")
        units = [make_unit(pair_id=f"u{k}", treatment=0) for k in range(5)]
        cell = TestCell(spec=spec, task_group="math", data=make_data(units))
        with pytest.raises(PositivityError):
            estimate_cell(cell)


class TestEstimateAll:
    def make_family(self):
        cells = make_cells(
            make_units(n=120, seed=10, task_group="math")
            + make_units(n=120, seed=11, task_group="logical")
        )
        return TestFamily(name="surface", cells=cells)

    def test_sorted_output_and_family_confounding(self):
        family = self.make_family()
        bundle = estimate_all([family])
        assert [(e.feature, e.task_group) for e in bundle.estimates] == [
            ("word_count", "logical"),
            ("word_count", "math"),
        ]
        gaps = [e.confounding_magnitude for e in bundle.estimates]
        assert bundle.family_confounding["surface"] == pytest.approx(float(np.mean(gaps)))

    def test_degenerate_cell_is_skipped_not_raised(self):
        spec = TreatmentSpec(view="surface", feature_name="word_count")
        bad = TestCell(
            spec=spec,
            task_group="math",
            data=make_data([make_unit(pair_id=f"u{k}", treatment=1) for k in range(5)]),
        )
        family = TestFamily(name="surface", cells=[make_cell(n=80, seed=12), bad])
        bundle = estimate_all([family])
        assert len(bundle.estimates) == 1
        assert len(bundle.skipped) == 1
        assert bundle.skipped[0][0] == "surface:word_count:math"

    def test_pooled_scope_runs_and_differs(self):
        family = self.make_family()
        cell_scope = estimate_all([self.make_family()], scope="cell")
        pooled_scope = estimate_all([family], scope="pooled")
        assert len(pooled_scope.estimates) == len(cell_scope.estimates)
        assert any(
            abs(a.acmgd_sipw - b.acmgd_sipw) > 1e-9
            for a, b in zip(cell_scope.estimates, pooled_scope.estimates)
        )

    def test_pooled_scope_slices_the_pooled_fit(self):
        math = make_units(n=120, seed=10, task_group="math")
        logical = make_units(n=150, seed=11, task_group="logical")
        relabel = {"ds_a": "ds_c", "ds_b": "ds_d"}
        logical = [moved(u, relabel[u["categorical"]["dataset"]], 3.0) for u in logical]
        logical, math = make_cells(math + logical)
        family = TestFamily(name="surface", cells=[math, logical])
        bundle = estimate_all([family], scope="pooled")
        # Sorted cell order puts logical first, so its rows lead the pooled design.
        pooled = CellData(
            math.data.frame,
            np.concatenate([logical.data.rows, math.data.rows]),
            np.concatenate([logical.data.treatment, math.data.treatment]),
        )
        probabilities = predict_probabilities(fit_propensity(pooled), pooled.encode())
        rate = float(pooled.treatment.mean())
        rows = {"logical": slice(0, 150), "math": slice(150, 270)}
        assert [e.task_group for e in bundle.estimates] == ["logical", "math"]
        for cell, est in zip((logical, math), bundle.estimates):
            data = cell.data
            t = data.treatment.astype(np.float64)
            wv = stabilized_weights(t, probabilities[rows[cell.task_group]], marginal_rate=rate)
            expected = weighted_difference(t, data.outcome, wv.weights)
            assert est.acmgd_sipw == pytest.approx(expected, abs=1e-12)
            assert est.cap_hits == wv.cap_hits

    def test_pooled_scope_predicts_once_per_feature(self, monkeypatch):
        math = make_units(n=120, seed=10, task_group="math")
        logical = make_units(n=150, seed=11, task_group="logical")
        logical, math = make_cells(math + logical)
        family = TestFamily(name="surface", cells=[math, logical])
        fits, predictions = [], []
        real_fit, real_probabilities = estimation.fit_stack, estimation.StackFit.probabilities

        def fit_stack(data, weights, columns=None):
            fits.append(fit := real_fit(data, weights, columns))
            return fit

        def probabilities(fit, *args):
            predictions.append(fit)
            return real_probabilities(fit, *args)

        monkeypatch.setattr(estimation, "fit_stack", fit_stack)
        monkeypatch.setattr(estimation.StackFit, "probabilities", probabilities)
        bundle = estimate_all([family], scope="pooled")
        assert len(fits) == len(predictions) == 1 and predictions[0] is fits[0]
        # Each cell's slice of that one prediction, as the per-cell calls gave it.
        full = real_probabilities(fits[0])[0]
        bounds = {"logical": slice(0, 150), "math": slice(150, 270)}
        for cell, est in zip((logical, math), bundle.estimates):
            rate = float(np.mean(np.r_[logical.data.treatment, math.data.treatment]))
            expected = estimate_cell(cell, full[bounds[cell.task_group]], rate, est.converged)
            assert est == expected

    def test_pooled_scope_recovers_synthetic_ground_truth(self):
        records, _ = generate(
            SynthConfig(
                n=10_000,
                tau=0.05,
                beta_confound=0.1,
                gamma=(0.0, 1.0),
                groups=("math", "logical"),
                seed=0,
            )
        )
        spec = TreatmentSpec(view="surface", feature_name="word_count")
        prepared = PreparedCorpus(records)
        rows, treatment = build_units(prepared, spec)
        groups = np.array([records[row].task_group for row in rows])
        cells = [
            TestCell(
                spec=spec,
                task_group=g,
                data=CellData(prepared.frame, rows[groups == g], treatment[groups == g]),
            )
            for g in ("math", "logical")
        ]
        bundle = estimate_all([TestFamily(name="surface", cells=cells)], scope="pooled")
        assert len(bundle.estimates) == 2
        for est in bundle.estimates:
            assert abs(est.acmgd_naive - 0.05) > 0.03
            assert abs(est.acmgd_sipw - 0.05) < 0.015

    def test_pooled_scope_rejects_cells_on_different_frames(self):
        cells = [
            make_cell(n=120, seed=10, task_group="math"),
            make_cell(n=120, seed=11, task_group="logical"),
        ]
        with pytest.raises(ConfigError, match="one unit frame"):
            estimate_all([TestFamily(name="surface", cells=cells)], scope="pooled")

    def test_invalid_scope_and_empty_family(self):
        family = self.make_family()
        with pytest.raises(ConfigError):
            estimate_all([family], scope="global")
        with pytest.raises(ConfigError):
            estimate_all([TestFamily(name="surface", cells=[])])
