"""Block bootstrap, BH-FDR step-up, and tier assignment."""

import hashlib
import itertools
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import norm

import editfx.estimation as estimation
import editfx.inference as inference
from editfx.design import PreparedCorpus, TestCell, TestFamily, TreatmentSpec, enumerate_families
from editfx.errors import ConfigError, DegenerateCellError, PositivityError, UnstableCellError
from editfx.estimation import stabilized_weights, weighted_difference
from editfx.inference import (
    TIER_BH,
    TIER_NONE,
    TIER_UNCORRECTED,
    InferenceResult,
    bh_fdr,
    block_bootstrap,
    derive_cell_seed,
    infer_all,
    tier_of,
)
from editfx.report import HEALTH_COLUMNS, Pipeline, RunConfig
from editfx.synth import SynthConfig, generate

from oracles import (
    content_seeds,
    encode,
    fit_propensity,
    kept_multisets,
    predict_probabilities,
)
from test_design import make_data
from test_estimation import dense_sipw, make_cell, make_unit

TestFamily.__test__ = False

TESTS = Path(__file__).resolve().parent


def brute_force_bh(p, alpha):
    """Independent step-up scan: check every rank, keep the largest passing."""
    p = np.asarray(p, dtype=np.float64)
    m = p.size
    order = np.argsort(p, kind="stable")
    sorted_p = p[order]
    i_star = 0
    for i in range(1, m + 1):
        if sorted_p[i - 1] <= i * alpha / m:
            i_star = i
    reject_sorted = np.array([i < i_star for i in range(m)])
    q_sorted = np.array(
        [min(min(m * sorted_p[j] / (j + 1) for j in range(i, m)), 1.0) for i in range(m)]
    )
    q = np.empty(m)
    reject = np.empty(m, dtype=bool)
    q[order] = q_sorted
    reject[order] = reject_sorted
    return q, reject


def aligned_block_cell():
    """Two blocks whose arms coincide with the blocks; half of all block
    resamples empty an arm."""
    spec = TreatmentSpec(view="surface", feature_name="word_count")
    units = [
        make_unit(pair_id=f"t{k}", treatment=1, outcome=0.1 + 0.01 * k, dataset="ds_a")
        for k in range(6)
    ] + [
        make_unit(pair_id=f"c{k}", treatment=0, outcome=0.01 * k, dataset="ds_b")
        for k in range(6)
    ]
    return TestCell(spec=spec, task_group="math", data=make_data(units))


def block_cell(arms=("mixed", "mixed", "mixed"), per_block=30, seed=0):
    """A cell with one block per entry of arms, datasets ds_a, ds_b, ...;
    each block's arm is "treated", "control" or "mixed" (treatment tied
    to word count)."""
    rng = np.random.default_rng(seed)
    spec = TreatmentSpec(view="surface", feature_name="word_count")
    units = []
    for dataset, arm in zip(("ds_a", "ds_b", "ds_c", "ds_d"), arms):
        for k in range(per_block):
            x = float(rng.normal())
            t = {"treated": 1, "control": 0}.get(arm, int(rng.random() < 1.0 / (1.0 + np.exp(-x))))
            units.append(
                make_unit(
                    pair_id=f"{dataset}-{k}",
                    treatment=t,
                    outcome=float(0.05 * t + 0.1 * x + 0.02 * rng.normal()),
                    p1_word_count=20.0 + 4.0 * x,
                    dataset=dataset,
                )
            )
    return TestCell(spec=spec, task_group="math", data=make_data(units))


def drawn_sequences(cell, cfg, mode="block"):
    """Each resample's drawn blocks (rows in iid mode), one default_rng per draw."""
    size = len(cell.data.blocks) if mode == "block" else cell.data.n
    return [
        np.random.default_rng([cfg["seed"], r]).integers(0, size, size=size)
        for r in range(cfg["resamples"])
    ]


def drawn_rows(data, drawn):
    """The rows of the drawn blocks, concatenated in draw order."""
    return np.concatenate([np.flatnonzero(data.block_codes == b) for b in drawn])


def memo_free_bootstrap(cell, cfg, recipe, mode="block"):
    """(estimates, valid, discarded) with every resample estimated afresh.

    Each resample's blocks are concatenated (its rows taken as drawn in
    iid mode); refits use the dense oracle.
    """
    data = cell.data
    point_weights = cell.point_fit[1].weights
    estimates = []
    discarded = 0
    for drawn in drawn_sequences(cell, cfg, mode):
        idx = drawn_rows(data, drawn) if mode == "block" else drawn
        t = data.treatment[idx].astype(np.float64)
        if t.min() == t.max():
            discarded += 1
            continue
        try:
            if recipe == "naive":
                estimates.append(weighted_difference(t, data.outcome[idx], np.ones(len(idx))))
            elif cfg["refit"]:
                estimates.append(dense_sipw(data, idx)[1])
            else:
                estimates.append(weighted_difference(t, data.outcome[idx], point_weights[idx]))
        except (PositivityError, DegenerateCellError):
            discarded += 1
    return np.array(estimates), len(estimates), discarded


class TestBhFdr:
    def test_hand_example(self):
        q, reject = bh_fdr([0.001, 0.04, 0.2], alpha=0.05)
        assert reject.tolist() == [True, False, False]
        assert q[0] == pytest.approx(0.003)
        assert q[1] == pytest.approx(0.06)
        assert q[2] == pytest.approx(0.2)

    def test_all_zero_rejects_all(self):
        q, reject = bh_fdr([0.0, 0.0, 0.0])
        assert reject.all()
        np.testing.assert_array_equal(q, np.zeros(3))

    def test_rank_one_threshold_at_m_60(self):
        p = [0.0008] + [1.0] * 59
        _, reject = bh_fdr(p, alpha=0.05)
        assert reject[0]
        assert reject.sum() == 1
        p = [0.00085] + [1.0] * 59
        _, reject = bh_fdr(p, alpha=0.05)
        assert not reject.any()

    def test_ties_reject_together(self):
        q, reject = bh_fdr([0.04, 0.04, 0.04], alpha=0.05)
        assert reject.all()
        np.testing.assert_allclose(q, 0.04)

    def test_matches_brute_force_on_random_vectors(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            m = int(rng.integers(1, 101))
            p = rng.random(m)
            if rng.random() < 0.3:
                p = np.round(p, 2)  # force ties
            q, reject = bh_fdr(p, alpha=0.05)
            q_ref, reject_ref = brute_force_bh(p, alpha=0.05)
            np.testing.assert_array_equal(reject, reject_ref)
            np.testing.assert_array_equal(q, q_ref)

    def test_lowering_one_p_never_shrinks_rejections(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            m = int(rng.integers(2, 40))
            p = rng.random(m)
            _, before = bh_fdr(p, alpha=0.05)
            k = int(rng.integers(0, m))
            lowered = p.copy()
            lowered[k] = lowered[k] * rng.random()
            _, after = bh_fdr(lowered, alpha=0.05)
            assert np.all(after[before])

    def test_q_values_invariant_to_input_order(self):
        rng = np.random.default_rng(8)
        p = rng.random(25)
        q, _ = bh_fdr(p)
        perm = rng.permutation(25)
        q_perm, _ = bh_fdr(p[perm])
        np.testing.assert_array_equal(q_perm, q[perm])

    def test_input_validation(self):
        with pytest.raises(ConfigError):
            bh_fdr([])
        with pytest.raises(ConfigError):
            bh_fdr([0.5, 1.2])
        with pytest.raises(ConfigError):
            bh_fdr([0.5], alpha=0.0)

    def test_nan_p_value_rejected(self):
        with pytest.raises(ConfigError, match=r"\[0, 1\]"):
            bh_fdr([0.01, float("nan")])


class TestTiers:
    def test_thresholds(self):
        assert tier_of(0.001, 0.03) == TIER_BH
        assert tier_of(0.04, 0.12) == TIER_UNCORRECTED
        assert tier_of(0.3, 0.5) == TIER_NONE
        assert tier_of(0.06, 0.049) == TIER_BH

    def test_markers(self):
        def result(tier):
            return InferenceResult(
                view="surface",
                feature="word_count",
                task_group="math",
                estimate=0.1,
                se=0.01,
                p_value=0.001,
                q_value=0.01,
                tier=tier,
                resample_estimates=np.zeros(500),
                valid_resamples=500,
                n_blocks=8,
                distinct_resamples=480,
                discarded=0,
                nonconverged=0,
                content="surface:word_count:math",
            )

        assert result(TIER_BH).marker == "★"
        assert result(TIER_UNCORRECTED).marker == "*"
        assert result(TIER_NONE).marker == ""


class TestCellSeed:
    def test_matches_manual_derivation(self):
        digest = hashlib.sha256(b"7|surface|word_count|math").digest()
        expected = int.from_bytes(digest[:8], "big")
        assert derive_cell_seed(7, "surface", "word_count", "math") == expected

    def test_distinct_across_cells_and_seeds(self):
        seeds = {
            derive_cell_seed(0, "surface", "word_count", "math"),
            derive_cell_seed(0, "surface", "word_count", "logical"),
            derive_cell_seed(0, "motif", "word_count", "math"),
            derive_cell_seed(1, "surface", "word_count", "math"),
        }
        assert len(seeds) == 4


class TestBlockBootstrap:
    def test_identical_seed_is_bit_identical(self):
        cell = make_cell(n=160, seed=20)
        cfg = dict(resamples=60, seed=42)
        first = block_bootstrap(cell, **cfg)
        second = block_bootstrap(cell, **cfg)
        assert first.se == second.se
        assert first.p_value == second.p_value
        np.testing.assert_array_equal(first.resample_estimates, second.resample_estimates)

    def test_seed_changes_resamples(self):
        cell = make_cell(n=160, seed=20)
        a = block_bootstrap(cell, resamples=60, seed=1)
        b = block_bootstrap(cell, resamples=60, seed=2)
        assert not np.array_equal(a.resample_estimates, b.resample_estimates)

    def test_normal_p_matches_reference_formula(self):
        cell = make_cell(n=160, seed=21)
        res = block_bootstrap(cell, resamples=60, seed=3)
        expected = 2.0 * float(norm.sf(abs(res.estimate / res.se)))
        assert res.p_value == pytest.approx(expected, rel=1e-12)

    def test_naive_recipe_bootstraps_unweighted_difference(self):
        cell = make_cell(n=160, seed=22)
        res = block_bootstrap(cell, resamples=40, seed=4, recipe="naive")
        t = cell.data.treatment.astype(float)
        y = cell.data.outcome
        expected = y[t == 1].mean() - y[t == 0].mean()
        assert res.estimate == pytest.approx(expected)

    def test_reuse_weights_flag(self):
        cell = make_cell(n=160, seed=23)
        refit = block_bootstrap(cell, resamples=40, seed=5, refit=True)
        reuse = block_bootstrap(cell, resamples=40, seed=5, refit=False)
        assert refit.estimate == pytest.approx(reuse.estimate)
        assert not np.array_equal(refit.resample_estimates, reuse.resample_estimates)

    @pytest.mark.parametrize("refit", [True, False])
    def test_resamples_match_public_reference_path(self, refit):
        cell = make_cell(n=160, seed=25)
        cfg = dict(resamples=40, seed=9, refit=refit)
        result = block_bootstrap(cell, **cfg)
        data = cell.data
        full = predict_probabilities(fit_propensity(data), encode(data))
        point_weights = stabilized_weights(data.treatment, full).weights
        n_blocks = len(data.blocks)
        expected = []
        for r in range(cfg["resamples"]):
            drawn = np.random.default_rng([cfg["seed"], r]).integers(0, n_blocks, size=n_blocks)
            idx = drawn_rows(data, drawn)
            t = data.treatment[idx].astype(np.float64)
            if t.min() == t.max():
                continue
            if refit:
                model = fit_propensity(data, idx)
                probabilities = predict_probabilities(model, encode(data, idx))
                weights = stabilized_weights(t, probabilities).weights
            else:
                weights = point_weights[idx]
            expected.append(weighted_difference(t, data.outcome[idx], weights))
        assert result.valid_resamples == len(expected) > 0
        np.testing.assert_allclose(result.resample_estimates, expected, rtol=0, atol=1e-12)

    def test_each_block_multiset_is_fitted_once(self, monkeypatch):
        cell = block_cell()
        cfg = dict(resamples=200, seed=11)
        # Each stacked fit counts its populations, the rows of its weights.
        fits = []
        real = estimation._newton
        monkeypatch.setattr(
            estimation, "_newton", lambda *args: fits.append(len(args[2])) or real(*args)
        )
        res = block_bootstrap(cell, **cfg)
        distinct = {
            np.bincount(drawn, minlength=3).tobytes() for drawn in drawn_sequences(cell, cfg)
        }
        assert res.valid_resamples == 200
        assert sum(fits) == len(distinct) + 1 == res.distinct_resamples + 1
        assert len(distinct) <= 10
        assert res.n_blocks == 3

    @pytest.mark.parametrize(
        "recipe, refit", [("sipw", True), ("sipw", False), ("naive", True)]
    )
    def test_memo_matches_memo_free_replay(self, recipe, refit):
        cell = block_cell(arms=("treated", "control", "mixed"), seed=3)
        cfg = dict(resamples=200, seed=12, refit=refit)
        res = block_bootstrap(cell, **cfg, recipe=recipe)
        estimates, valid, discarded = memo_free_bootstrap(cell, cfg, recipe)
        one_armed = [
            drawn.tobytes()
            for drawn in drawn_sequences(cell, cfg)
            if set(drawn.tolist()) <= {0} or set(drawn.tolist()) <= {1}
        ]
        assert len(one_armed) > len(set(one_armed)) > 0  # repeated discards
        assert res.discarded == discarded >= len(one_armed)
        assert res.valid_resamples == valid == 200 - discarded
        np.testing.assert_allclose(res.resample_estimates, estimates, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("mode", ["block", "iid"])
    def test_matches_one_generator_per_draw(self, mode):
        cell = block_cell(arms=("treated", "control", "mixed"), per_block=12, seed=4)
        cfg = dict(resamples=60, seed=2**64 + 5, refit=True)
        res = block_bootstrap(cell, **cfg, mode=mode)
        estimates, valid, discarded = memo_free_bootstrap(cell, cfg, "sipw", mode)
        # The oracle fits each distinct draw (block multiset, or iid draw) once, alone.
        data = cell.data
        keys, nonconverged = set(), 0
        for r, drawn in enumerate(drawn_sequences(cell, cfg, mode)):
            key = np.bincount(drawn, minlength=3).tobytes() if mode == "block" else r
            if key in keys:
                continue
            keys.add(key)
            idx = drawn_rows(data, drawn) if mode == "block" else drawn
            if 0 < data.treatment[idx].sum() < len(idx):
                nonconverged += not fit_propensity(data, idx).converged
        assert res.distinct_resamples == len(keys)
        assert res.discarded == discarded
        assert res.valid_resamples == valid == 60 - discarded
        assert res.nonconverged == nonconverged
        np.testing.assert_allclose(res.resample_estimates, estimates, rtol=0, atol=1e-12)

    def test_golden_draws(self):
        # Pins numpy's stream: a numpy that draws differently changes
        # these. Outcomes are 0/1 and the naive weights are counts, so
        # every sum is exact and the figures do not depend on the host.
        spec = TreatmentSpec(view="surface", feature_name="word_count")
        arms = ("treated", "treated", "control", "mixed")
        units = [
            make_unit(
                pair_id=f"{dataset}-{k}",
                treatment={"treated": 1, "control": 0}.get(arm, k % 2),
                outcome=float(k <= b),
                dataset=dataset,
            )
            for b, (dataset, arm) in enumerate(zip(("ds_a", "ds_b", "ds_c", "ds_d"), arms))
            for k in range(6)
        ]
        cell = TestCell(spec=spec, task_group="math", data=make_data(units))
        res = block_bootstrap(cell, resamples=200, seed=7, recipe="naive")
        assert res.distinct_resamples == 32
        assert res.discarded == 14
        assert res.resample_estimates[:3].tolist() == [
            0.11111111111111105,
            -0.19999999999999996,
            0.11111111111111105,
        ]

    def test_fewer_than_two_valid_resamples_is_unstable(self):
        # One of the two draws empties an arm; one estimate has no spread.
        with pytest.raises(UnstableCellError, match="only 1 of 2"):
            block_bootstrap(aligned_block_cell(), resamples=2, seed=4)

    def test_iid_mode_runs(self):
        cell = make_cell(n=160, seed=24)
        res = block_bootstrap(cell, resamples=40, seed=6, mode="iid")
        assert res.valid_resamples == 40

    def test_single_block_rejected_in_block_mode(self):
        spec = TreatmentSpec(view="surface", feature_name="word_count")
        units = [
            make_unit(pair_id=f"u{k}", treatment=k % 2, outcome=0.01 * k) for k in range(10)
        ]
        cell = TestCell(spec=spec, task_group="math", data=make_data(units))
        with pytest.raises(ConfigError):
            block_bootstrap(cell, resamples=10, seed=0)
        res = block_bootstrap(cell, resamples=10, seed=0, mode="iid")
        assert res.valid_resamples + res.discarded == 10

    def test_degenerate_resamples_are_discarded(self):
        cell = aligned_block_cell()
        hit = None
        for seed in range(50):
            try:
                res = block_bootstrap(cell, resamples=16, seed=seed)
            except UnstableCellError:
                continue
            hit = res
            break
        assert hit is not None
        assert hit.discarded > 0
        assert hit.valid_resamples + hit.discarded == 16
        assert hit.valid_resamples >= 8

    def test_unstable_cell_raises(self):
        cell = aligned_block_cell()
        raised = False
        for seed in range(50):
            try:
                block_bootstrap(cell, resamples=16, seed=seed)
            except UnstableCellError as exc:
                raised = True
                assert "resamples were valid" in str(exc)
                break
        assert raised

    def test_zero_se_branches(self):
        spec = TreatmentSpec(view="surface", feature_name="word_count")
        flat = TestCell(
            spec=spec,
            task_group="math",
            data=make_data(
                [
                    make_unit(pair_id=f"u{k}", treatment=k % 2, outcome=0.0, dataset=d)
                    for k, d in enumerate(["ds_a", "ds_b"] * 6)
                ]
            ),
        )
        res = block_bootstrap(flat, resamples=12, seed=0, recipe="naive")
        assert res.se == 0.0
        assert res.p_value == 1.0
        exact = TestCell(
            spec=spec,
            task_group="math",
            data=make_data(
                [
                    make_unit(pair_id=f"u{k}", treatment=k % 2, outcome=float(k % 2), dataset=d)
                    for k, d in enumerate(["ds_a", "ds_b"] * 6)
                ]
            ),
        )
        res = block_bootstrap(exact, resamples=12, seed=0, recipe="naive")
        assert res.se == 0.0
        assert res.estimate == 1.0
        assert res.p_value == 0.0

    def test_percentile_p_flag(self):
        cell = make_cell(n=200, seed=25, tau=0.5, beta_x=0.0, gamma=0.0)
        res = block_bootstrap(cell, resamples=40, seed=7, percentile_p=True, recipe="naive")
        assert res.p_value == 0.0

    def test_config_validation(self):
        for settings in ({"resamples": 1}, {"resamples": 0}, {"alpha": 1.5}, {"alpha": 0.0}):
            with pytest.raises(ConfigError):
                RunConfig(**settings)
        cell = make_cell(n=60, seed=26)
        with pytest.raises(ConfigError):
            block_bootstrap(cell, resamples=10, recipe="ols")
        with pytest.raises(ConfigError):
            block_bootstrap(cell, resamples=10, mode="jackknife")


def synth_families(n=120, seed=7):
    """Fresh families of a synth corpus: its surface features and the
    meta-instruction motif move together, so many cells share their data."""
    records, _ = generate(SynthConfig(n=n, seed=seed))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return enumerate_families(PreparedCorpus(records))


def synth_pipeline(n=120, seed=7, resamples=60):
    """synth_families()'s corpus as a report pipeline run with this seed."""
    records, _ = generate(SynthConfig(n=n, seed=seed))
    return Pipeline(PreparedCorpus(records), RunConfig(seed=seed, resamples=resamples))


def cell_seed(cell, master_seed):
    return derive_cell_seed(master_seed, cell.spec.view, cell.spec.feature_name, cell.task_group)


def refit_mismatches():
    """(multisets, differing) over the distinct cell data of synth_families(): every
    multiset of 4 blocks that keeps both arms, the whole cell among them, fitted alone
    and in one stack with the others; differing counts the (estimate, converged) pairs
    that are not bit-identical."""
    fitted = differing = 0
    for data in {id(c.data): c.data for f in synth_families() for c in f.cells}.values():
        size = len(data.blocks)
        combos = itertools.combinations_with_replacement(range(size), size)
        counts = np.array([np.bincount(c, minlength=size) for c in combos], dtype=float)
        has = [np.bincount(data.block_codes, weights=data.treatment == a) > 0 for a in (0, 1)]
        counts = counts[np.any((counts > 0) & has[0], 1) & np.any((counts > 0) & has[1], 1)]
        assert np.any(np.all(counts == 1.0, axis=1))
        stacked, converged = estimation.sipw_stack(data, counts, data.block_codes)
        for k, row in enumerate(counts):
            single, ok = estimation.sipw_stack(data, row[None], data.block_codes)
            differing += (single[0], ok[0]) != (stacked[k], converged[k])
        fitted += len(counts)
    return fitted, differing


class TestSharedCellData:
    def test_each_cell_data_and_multiset_is_fitted_once(self, monkeypatch):
        families = synth_families()
        cells = [cell for family in families for cell in family.cells]
        seeds = content_seeds(families, 7)
        assert len(seeds) < len(cells)
        # Each CellData is bootstrapped once, with its first cell's seed.
        expected = {
            (id(data), key) for data, seed in seeds.items() for key in kept_multisets(data, seed, 60)
        }
        # Every population of every stacked fit passes _newton once; the
        # refits are the rows of the weights given to sipw_stack.
        fits, refits = [], []
        real_newton, real_stack = estimation._newton, inference.sipw_stack

        def stack(data, weights, columns=None):
            refits.extend((id(data), row.tobytes()) for row in np.asarray(weights))
            return real_stack(data, weights, columns)

        monkeypatch.setattr(
            estimation, "_newton", lambda *args: fits.append(len(args[2])) or real_newton(*args)
        )
        monkeypatch.setattr(inference, "sipw_stack", stack)
        results, skipped = infer_all(families, master_seed=7, resamples=60)
        assert len(results) == len(cells) and skipped == []
        assert len(refits) == len(set(refits)) and set(refits) == expected
        # One point fit per distinct CellData, one refit per distinct pair.
        assert sum(fits) == len(seeds) + len(expected)
        assert sum(res.distinct_resamples for res in results) > len(expected)

    @pytest.mark.parametrize("chunk", [2**12, 2**14, 2**16])
    def test_refits_do_not_depend_on_a_sibling_or_the_stack_budget(self, monkeypatch, chunk):
        def run(sibling_first, budget):
            monkeypatch.setattr(estimation, "CHUNK_ROW_WEIGHTS", budget)
            families = synth_families()
            cells = [cell for family in families for cell in family.cells]
            sibling, cell = [c for c in cells if c.data is cells[0].data][:2]
            if sibling_first:
                block_bootstrap(sibling, seed=cell_seed(sibling, 7), resamples=60)
            return block_bootstrap(cell, seed=cell_seed(cell, 7), resamples=60)

        alone = run(False, 2**14)
        res = run(True, chunk)
        assert np.array_equal(res.resample_estimates, alone.resample_estimates)
        assert res.nonconverged == alone.nonconverged
        assert res.distinct_resamples == alone.distinct_resamples

    def test_a_refit_alone_equals_it_in_a_stack(self):
        fitted, differing = refit_mismatches()
        assert fitted > 0 and differing == 0

    def test_a_refit_alone_equals_it_in_a_stack_on_the_default_blas_kernel(self):
        # The CLI pins one OpenBLAS kernel on x86-64; without the pin a
        # kernel may round the tail rows of a product differently, which a
        # product over a stack's padded slots would expose.
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = os.pathsep.join([str(TESTS), str(TESTS.parent / "src")])
        code = "from test_inference import refit_mismatches; print(*refit_mismatches())"
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        fitted, differing = map(int, proc.stdout.split())
        assert fitted > 0 and differing == 0


class TestContentBootstrap:
    """Cells with the same rows and treatments are one content: one bootstrap,
    seeded by its first cell in family order, whose result every twin reports."""

    NAMES = ("view", "feature", "task_group")

    def test_one_bootstrap_per_distinct_cell_data(self, monkeypatch):
        families = synth_families()
        seeds = content_seeds(families, 7)
        calls = []
        real = inference.block_bootstrap

        def bootstrap(cell, **kwargs):
            calls.append((cell.data, kwargs["seed"]))
            return real(cell, **kwargs)

        monkeypatch.setattr(inference, "block_bootstrap", bootstrap)
        results, skipped = infer_all(families, master_seed=7, resamples=60)
        assert skipped == [] and len(results) == sum(f.m for f in families) > len(seeds)
        assert calls == list(seeds.items())

    def test_first_cells_match_a_direct_bootstrap(self):
        pipeline = synth_pipeline()
        rows = {":".join(row[n] for n in self.NAMES): row for row in pipeline.inference["results"]}
        firsts = {}
        for family in pipeline.families:
            for cell in family.cells:
                firsts.setdefault(cell.data, cell)
        for cell in firsts.values():
            spec = cell.spec
            seed = derive_cell_seed(7, spec.view, spec.feature_name, cell.task_group)
            res = block_bootstrap(cell, seed=seed, resamples=60)
            row = rows[cell.cell_id]
            for name in ("estimate", "se", "p_value", "valid_resamples", *HEALTH_COLUMNS):
                assert row[name] == getattr(res, name), name
            assert row["content"] == cell.cell_id
        assert sum(row["content"] == cell_id for cell_id, row in rows.items()) == len(firsts)

    def test_twins_report_their_first_cells_row(self):
        pipeline = synth_pipeline()
        rows = {":".join(row[n] for n in self.NAMES): row for row in pipeline.inference["results"]}
        firsts, twins = {}, 0
        for family in pipeline.families:
            for cell in family.cells:
                first = firsts.setdefault(cell.data, cell)
                row, first_row = rows[cell.cell_id], rows[first.cell_id]
                # q and so the tier come from BH within the row's own family.
                own = {*self.NAMES, "content"}
                if cell.spec.view != first.spec.view:
                    own |= {"q_value", "tier"}
                assert {k: v for k, v in row.items() if k not in own} == {
                    k: v for k, v in first_row.items() if k not in own
                }
                twins += cell is not first
        assert twins > 0
        for family in pipeline.families:
            for cell in family.cells:
                assert rows[cell.cell_id]["content"] == firsts[cell.data].cell_id

    def test_the_run_keeps_each_contents_bootstrap(self):
        pipeline = synth_pipeline()
        firsts = {}
        for family in pipeline.families:
            for cell in family.cells:
                firsts.setdefault(cell.data, cell)
        assert sorted(pipeline.bootstraps) == sorted(cell.cell_id for cell in firsts.values())
        for cell in firsts.values():
            res = block_bootstrap(cell, seed=cell_seed(cell, 7), resamples=60)
            kept = pipeline.bootstraps[cell.cell_id].resample_estimates
            np.testing.assert_array_equal(kept, res.resample_estimates)
        # Every twin's result holds its content's resample estimates.
        results, _ = pipeline.inferred
        twins = 0
        for r in results:
            first = pipeline.bootstraps[r.content]
            assert r.resample_estimates is first.resample_estimates
            twins += r is not first
        assert twins > 0


class TestInferFamilies:
    def make_family(self):
        return TestFamily(
            name="surface",
            cells=[
                make_cell(n=120, seed=30, task_group="math"),
                make_cell(n=120, seed=31, task_group="logical"),
            ],
        )

    def test_family_results_sorted_and_corrected(self):
        results, skipped = infer_all([self.make_family()], master_seed=0, resamples=60)
        assert skipped == []
        assert [r.task_group for r in results] == ["logical", "math"]
        q_ref, _ = bh_fdr([r.p_value for r in results])
        np.testing.assert_array_equal([r.q_value for r in results], q_ref)
        for r in results:
            assert r.tier == tier_of(r.p_value, r.q_value)
            assert r.valid_resamples >= 30

    def test_families_are_never_pooled(self):
        families = [
            TestFamily(name="surface", cells=[make_cell(n=120, seed=32)]),
            TestFamily(name="motif", cells=[make_cell(n=120, seed=33)]),
        ]
        results, _ = infer_all(families, master_seed=2, resamples=40)
        assert len(results) == 2
        for r in results:
            assert r.q_value == r.p_value  # m=1 within each family

    def test_unstable_cell_skipped_and_family_m_shrinks(self):
        good = make_cell(n=120, seed=34, task_group="logical")
        bad = aligned_block_cell()
        family = TestFamily(name="surface", cells=[good, bad])
        found = False
        for master_seed in range(30):
            results, skipped = infer_all([family], master_seed=master_seed, resamples=16)
            if skipped:
                found = True
                assert skipped[0][0] == "surface:word_count:math"
                assert len(results) == 1
                assert results[0].q_value == results[0].p_value  # m=1 after the skip
                break
        assert found

    def test_unstable_content_is_skipped_for_every_twin(self):
        bad = aligned_block_cell()
        twin = TestCell(
            spec=TreatmentSpec(view="motif", feature_name="meta_instruction"),
            task_group="math",
            data=bad.data,
        )
        good = TestCell(
            spec=TreatmentSpec(view="motif", feature_name="meta_instruction"),
            task_group="logical",
            data=make_cell(n=120, seed=35, task_group="logical").data,
        )
        families = [
            TestFamily(name="surface", cells=[make_cell(n=120, seed=34, task_group="logical"), bad]),
            TestFamily(name="motif", cells=[good, twin]),
        ]
        for master_seed in range(30):
            results, skipped = infer_all(families, master_seed=master_seed, resamples=16)
            if skipped:
                break
        else:
            pytest.fail("no master seed makes the aligned cell unstable")
        assert [cell_id for cell_id, _ in skipped] == [bad.cell_id, twin.cell_id]
        assert skipped[0][1] == skipped[1][1]
        assert [r.cell_id for r in results] == [
            "surface:word_count:logical",
            "motif:meta_instruction:logical",
        ]
        assert all(r.q_value == r.p_value for r in results)  # m=1 in each family
