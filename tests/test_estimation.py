"""Propensity fitting, stabilized weights, and cell estimates."""

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import expit, logit

from editfx.design import CellData, TestCell, TreatmentSpec
from editfx.errors import ConfigError, DegenerateCellError, PositivityError, SchemaError
from editfx.estimation import (
    RIDGE_LAMBDA,
    WEIGHT_CAP,
    PropensityModel,
    estimate_all,
    estimate_cell,
    fit_propensity,
    irls_logistic,
    penalized_gradient,
    predict_probabilities,
    stabilized_weights,
    weighted_difference,
)

from editfx.design import PreparedCorpus, TestFamily, build_units
from editfx.synth import SynthConfig, generate

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

    def test_nonfinite_matrix_rejected(self):
        matrix = np.array([[1.0], [np.nan]])
        with pytest.raises(SchemaError):
            irls_logistic(matrix, np.array([0.0, 1.0]))


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
