"""End-to-end acceptance criteria for the analysis pipeline.

Each test covers one release gate and prints a single PASS/FAIL line
with the measured quantities, so a full run doubles as a scorecard.
Statistical gates use frozen seeds; the thresholds come from the
package contract (see README), not from tuning against the outputs.
"""

import contextlib
import json
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.special import logit

from editfx.design import (
    CellData,
    PreparedCorpus,
    TestCell,
    TreatmentSpec,
    UnitFrame,
    build_units,
    enumerate_families,
)
from editfx.estimation import estimate_cell, stabilized_weights
from editfx.inference import bh_fdr, block_bootstrap
from editfx.motifs import MIN_SPAN_TOKENS, apply_script, classify, extract_spans, word_diff
from editfx.report import render_from_artifacts, run_report, write_json
from editfx.robustness import SignReversalSpec, ceiling, loo_stability, partial_r2
from editfx.store import PromptState
from editfx.surface import extract
from editfx.synth import TREATED_SPAN, SynthConfig, generate

from conftest import effect_corpus, make_record
from oracles import PropensityModel, fit_propensity, predict_probabilities
from test_inference import brute_force_bh
from test_motifs import AUDIT_SENTENCE, mkspan

TestCell.__test__ = False

FIXTURES = Path(__file__).parent / "fixtures"

WORD_COUNT_SPEC = TreatmentSpec(view="surface", feature_name="word_count")


@contextlib.contextmanager
def criterion(capsys, num: int, name: str):
    """Collect a verdict from the body, print one scorecard line, assert."""
    state: dict = {}
    try:
        yield state
    except BaseException as exc:
        with capsys.disabled():
            print(f"[criterion {num:02d}] FAIL {name}: raised {type(exc).__name__}: {exc}")
        raise
    ok = bool(state.get("ok"))
    details = state.get("details", "")
    with capsys.disabled():
        print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {details}")
    assert ok, f"{name}: {details}"


def data_from_synth(records) -> CellData:
    """Every generator record as one cell's rows, packed straight from the records.

    The treated arm is identifiable from the appended span, so the
    expensive feature-extraction stage can be skipped when a test only
    exercises estimation or inference machinery.
    """
    frame = UnitFrame(
        pair_ids=[r.pair_id for r in records],
        gain=[r.gain for r in records],
        numeric={
            "p1_word_count": [float(len(r.before.instruction_text.split())) for r in records],
            "p1_n_demos": [0.0 for r in records],
            "headroom": [1.0 - r.accuracy_before for r in records],
            "step_index": [float(r.step_index) for r in records],
        },
        categorical={
            "framework": [r.framework for r in records],
            "backbone": [r.backbone for r in records],
            "dataset": [r.dataset for r in records],
        },
        task_group=[r.task_group for r in records],
    )
    treatment = [int(r.after.instruction_text.endswith(TREATED_SPAN)) for r in records]
    return CellData(frame, np.arange(len(records)), treatment)


def test_criterion_01_synthetic_debiasing(capsys):
    """Confounded generator: naive estimate is biased, weighted one is not."""
    with criterion(capsys, 1, "synthetic debiasing") as c:
        t0 = time.monotonic()
        records, _ = generate(
            SynthConfig(
                n=10_000,
                tau=0.05,
                beta_confound=0.1,
                gamma=(0.0, 1.0),
                groups=("math",),
                seed=0,
            )
        )
        prepared = PreparedCorpus(records)
        rows, treatment = build_units(prepared, WORD_COUNT_SPEC)
        data = CellData(prepared.frame, rows, treatment)
        cell = TestCell(spec=WORD_COUNT_SPEC, task_group="math", data=data)
        est = estimate_cell(cell)
        elapsed = time.monotonic() - t0
        naive_biased = abs(est.acmgd_naive - 0.05) > 0.03
        sipw_close = abs(est.acmgd_sipw - 0.05) < 0.015
        c["ok"] = naive_biased and sipw_close and elapsed < 10.0
        c["details"] = (
            f"naive={est.acmgd_naive:+.4f} (needs |err|>0.030), "
            f"sipw={est.acmgd_sipw:+.4f} (needs |err|<0.015), "
            f"elapsed={elapsed:.1f}s (<10s)"
        )


def test_criterion_02_null_calibration(capsys):
    """No effect in the generator: the bootstrap test rejects at ~alpha."""
    with criterion(capsys, 2, "null calibration") as c:
        datasets = tuple(f"null_{i:02d}" for i in range(25))
        reps, resamples = 200, 100
        t0 = time.monotonic()
        rejections = 0
        for rep in range(reps):
            cfg = SynthConfig(
                n=5000, tau=0.0, datasets=datasets, groups=("math",), seed=2000 + rep
            )
            records, _ = generate(cfg)
            cell = TestCell(
                spec=WORD_COUNT_SPEC, task_group="math", data=data_from_synth(records)
            )
            result = block_bootstrap(cell, resamples=resamples, seed=2000 + rep)
            rejections += result.p_value < 0.05
        elapsed = time.monotonic() - t0
        rate = rejections / reps
        c["ok"] = 0.02 <= rate <= 0.10
        c["details"] = (
            f"rejection rate={rate:.3f} over {reps} replications at alpha=0.05 "
            f"(needs [0.02, 0.10]), elapsed={elapsed:.0f}s"
        )


def test_criterion_03_weight_contracts(capsys):
    """Stabilized weights: bounded, near-1 arm means, no-op when constant."""
    with criterion(capsys, 3, "weight contracts") as c:
        records, _ = generate(SynthConfig())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            families = enumerate_families(PreparedCorpus(records))
        bounded = True
        checked = 0
        for family in families:
            for cell in family.cells:
                data = cell.data
                model = fit_propensity(data)
                probs = predict_probabilities(model, data.encode())
                wv = stabilized_weights(data.treatment, probs)
                checked += 1
                if not (np.all(wv.weights > 0.0) and np.all(wv.weights <= 10.0)):
                    bounded = False

        big, _ = generate(SynthConfig(n=6000, groups=("math",), seed=1))
        prepared = PreparedCorpus(big)
        rows, treatment = build_units(prepared, WORD_COUNT_SPEC)
        cell = TestCell(
            spec=WORD_COUNT_SPEC, task_group="math", data=CellData(prepared.frame, rows, treatment)
        )
        data = cell.data
        model = fit_propensity(data)
        wv = stabilized_weights(data.treatment, predict_probabilities(model, data.encode()))
        treated = data.treatment.astype(bool)
        mean_t = float(wv.raw[treated].mean())
        mean_c = float(wv.raw[~treated].mean())
        means_ok = 0.9 <= mean_t <= 1.1 and 0.9 <= mean_c <= 1.1

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
        reduction = abs(est.acmgd_sipw - est.acmgd_naive)
        reduction_ok = reduction < 1e-12

        c["ok"] = bounded and checked > 0 and means_ok and reduction_ok
        c["details"] = (
            f"{checked} cells bounded in (0, 10]={bounded}; pre-cap arm means "
            f"{mean_t:.3f}/{mean_c:.3f} (needs [0.9, 1.1]); constant-propensity "
            f"|sipw-naive|={reduction:.1e} (needs <1e-12)"
        )


def test_criterion_04_fdr_oracle(capsys):
    """Step-up FDR agrees exactly with a brute-force scan."""
    with criterion(capsys, 4, "FDR oracle agreement") as c:
        rng = np.random.default_rng(4)
        mismatches = 0
        for i in range(1000):
            m = int(rng.integers(1, 101))
            p = rng.uniform(0.0, 1.0, size=m)
            if i % 3 == 0:
                p = np.round(p, 2)
            if i % 7 == 0:
                p[int(rng.integers(0, m))] = 0.0
            alpha = float(rng.choice([0.01, 0.05, 0.1, 0.2]))
            q, reject = bh_fdr(p, alpha)
            q_ref, reject_ref = brute_force_bh(p, alpha)
            if not (np.array_equal(q, q_ref) and np.array_equal(reject, reject_ref)):
                mismatches += 1
        _, hand_reject = bh_fdr(np.array([0.001, 0.04, 0.2]), 0.05)
        hand_ok = list(hand_reject) == [True, False, False]
        c["ok"] = mismatches == 0 and hand_ok
        c["details"] = (
            f"{mismatches}/1000 random vectors disagree; "
            f"hand example rejects exactly the 0.001 cell={hand_ok}"
        )


def clustered_cell(seed: int, n_blocks: int = 20, per_block: int = 20, sigma: float = 0.05):
    """Half-treated, half-control blocks sharing a block-level shock.

    Block effect and unit noise have equal variance, so outcomes within
    a block correlate at 0.5, and the shared shock loads directly on
    the treated-minus-control contrast.
    """
    rng = np.random.default_rng(seed)
    pair_ids, treatment, gains, datasets = [], [], [], []
    for b in range(n_blocks):
        dataset = f"ds_{b:02d}"
        block_shock = rng.normal(0.0, sigma)
        for j in range(per_block):
            gain = float(np.clip(block_shock + rng.normal(0.0, sigma), -1.0, 1.0))
            pair_ids.append(f"u{b:02d}_{j:02d}")
            treatment.append(b % 2)
            gains.append(gain)
            datasets.append(dataset)
    n = len(pair_ids)
    frame = UnitFrame(
        pair_ids=pair_ids,
        gain=gains,
        numeric={
            "p1_word_count": [20.0] * n,
            "p1_n_demos": [0.0] * n,
            "headroom": [0.5] * n,
            "step_index": [1.0] * n,
        },
        categorical={"framework": ["synthopt"] * n, "backbone": ["bb"] * n, "dataset": datasets},
        task_group=["math"] * n,
    )
    data = CellData(frame, np.arange(n), treatment)
    return TestCell(spec=WORD_COUNT_SPEC, task_group="math", data=data)


def test_criterion_05_block_resampling_validity(capsys):
    """Clustered outcomes: block resampling widens the SE; seeds are exact."""
    with criterion(capsys, 5, "block resampling validity") as c:
        cell = clustered_cell(seed=0)
        cfg = dict(resamples=400, seed=0)
        block = block_bootstrap(cell, **cfg, recipe="naive", mode="block")
        iid = block_bootstrap(cell, **cfg, recipe="naive", mode="iid")
        ratio = block.se / iid.se

        repeat = block_bootstrap(cell, **cfg, recipe="naive", mode="block")
        identical = (
            repeat.se == block.se
            and repeat.p_value == block.p_value
            and np.array_equal(repeat.resample_estimates, block.resample_estimates)
        )
        c["ok"] = ratio > 1.2 and identical
        c["details"] = (
            f"block SE/iid SE={ratio:.2f} at within-block correlation 0.5 "
            f"(needs >1.2); identical seeds bit-exact={identical}"
        )


def test_criterion_06_diff_and_motifs(capsys):
    """Edit scripts reconstruct, short spans never surface, labels agree."""
    with criterion(capsys, 6, "diff and motif fidelity") as c:
        rng = np.random.default_rng(6)
        vocab = np.array(
            ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta", "iota", "kappa"]
        )
        reconstruct_failures = 0
        short_span_leaks = 0
        spans_seen = 0
        for _ in range(10_000):
            before = list(rng.choice(vocab, size=int(rng.integers(0, 13))))
            after = list(rng.choice(vocab, size=int(rng.integers(0, 13))))
            script = word_diff(before, after)
            if apply_script(script, before) != after:
                reconstruct_failures += 1
            spans = extract_spans(script, " ".join(after))
            spans_seen += len(spans)
            insert_runs = [len(run.tokens) for run in script if run.op == "insert"]
            expected = sum(1 for length in insert_runs if length >= MIN_SPAN_TOKENS)
            if len(spans) != expected or any(
                len(s.tokens) < MIN_SPAN_TOKENS for s in spans
            ):
                short_span_leaks += 1

        audit_labels = classify(mkspan(AUDIT_SENTENCE))
        audit_ok = "meta_instruction" in audit_labels

        fixture = json.loads((FIXTURES / "motif_spans.json").read_text("utf-8"))
        disagreements = sum(
            1
            for case in fixture["spans"]
            if classify(mkspan(case["text"])) != set(case["labels"])
        )
        c["ok"] = (
            reconstruct_failures == 0
            and short_span_leaks == 0
            and spans_seen > 0
            and audit_ok
            and disagreements == 0
        )
        c["details"] = (
            f"{reconstruct_failures}/10000 reconstruction failures; "
            f"{short_span_leaks} sub-{MIN_SPAN_TOKENS}-token span leaks; "
            f"audit sentence labeled meta_instruction={audit_ok}; "
            f"{disagreements}/{len(fixture['spans'])} fixture disagreements"
        )


def test_criterion_07_surface_determinism(capsys):
    """Committed feature vectors recompute byte-for-byte; empty text is zero."""
    with criterion(capsys, 7, "surface determinism") as c:
        path = FIXTURES / "surface_golden.json"
        doc = json.loads(path.read_text("utf-8"))
        recomputed = []
        for prompt in doc["prompts"]:
            state = PromptState(
                instruction_text=prompt["instruction_text"],
                demos=tuple({} for _ in range(prompt["n_demos"])),
            )
            recomputed.append(extract(state))
        rebuilt = (
            json.dumps(
                {"prompts": doc["prompts"], "vectors": recomputed},
                indent=2,
                sort_keys=True,
                ensure_ascii=False,
            )
            + "\n"
        )
        byte_identical = rebuilt.encode("utf-8") == path.read_bytes()

        empty = extract(PromptState(instruction_text=""))
        zeros = all(value == 0.0 for value in empty.values())
        c["ok"] = byte_identical and len(doc["prompts"]) == 200 and zeros
        c["details"] = (
            f"{len(doc['prompts'])} prompts byte-identical={byte_identical}; "
            f"empty text all-zero vector={zeros}"
        )


def test_criterion_08_leave_one_out(capsys):
    """A contaminating dataset is flagged; one dataset degrades gracefully."""
    with criterion(capsys, 8, "leave-one-out stability") as c:
        layout = [
            ("m1", "math", True, -0.02, 6),
            ("m1", "math", False, 0.0, 6),
            ("m2", "math", True, -0.02, 6),
            ("m2", "math", False, 0.0, 6),
            ("m3", "math", True, -0.02, 6),
            ("m3", "math", False, 0.0, 6),
            ("m4", "math", True, 0.30, 18),
            ("m4", "math", False, 0.0, 18),
            ("l1", "logical", True, -0.05, 8),
            ("l1", "logical", False, 0.0, 8),
            ("l2", "logical", True, -0.05, 8),
            ("l2", "logical", False, 0.0, 8),
        ]
        reversal = SignReversalSpec(
            spec=WORD_COUNT_SPEC,
            group_a="math",
            group_b="logical",
            baseline_sign_a="+",
            baseline_sign_b="-",
        )
        report = loo_stability(PreparedCorpus(effect_corpus(layout)), reversal)
        flagged = [s.excluded_dataset for s in report.splits if not s.stable]
        contaminated_ok = (
            report.total == 6 and report.stable_count == 5 and flagged == ["m4"]
        )

        solo_layout = [
            ("solo", "math", True, 0.1, 6),
            ("solo", "math", False, 0.0, 6),
            ("solo", "logical", True, -0.1, 6),
            ("solo", "logical", False, 0.0, 6),
        ]
        with pytest.warns(UserWarning, match="no evaluable leave-one-out splits"):
            solo_report = loo_stability(PreparedCorpus(effect_corpus(solo_layout)), reversal)
        solo_ok = solo_report.total == 0 and len(solo_report.skipped) == 1

        c["ok"] = contaminated_ok and solo_ok
        c["details"] = (
            f"contaminated split flags exactly {flagged} with "
            f"{report.stable_count}/{report.total} stable; single-dataset corpus "
            f"yields total={solo_report.total} with warning, no crash"
        )


MARKER_PQ = {"": (0.5, 0.6), "*": (0.02, 0.10), "★": (0.001, 0.01)}

PINNED_SPREADS = {
    ("annotation", "Extraneous_load"): 0.092,
    ("annotation", "Engagement"): 0.120,
    ("motif", "meta_instruction"): 0.114,
}


def test_criterion_09_reporting_fixtures(capsys, tmp_path):
    """Reference tables re-render with exact spreads and tier markers."""
    with criterion(capsys, 9, "reporting fixtures") as c:
        fixture = json.loads((FIXTURES / "reported_tables.json").read_text("utf-8"))
        estimate_rows = []
        inference_rows = []
        for view in ("annotation", "motif"):
            for feature, groups in fixture[view].items():
                for group, (value_str, marker) in groups.items():
                    value = float(value_str)
                    estimate_rows.append(
                        {
                            "view": view,
                            "feature": feature,
                            "task_group": group,
                            "acmgd_sipw": value,
                            "acmgd_naive": value,
                            "confounding_magnitude": 0.0,
                            "n_treated": 50,
                            "n_control": 50,
                            "cap_hits": 0,
                        }
                    )
                    p, q = MARKER_PQ[marker]
                    inference_rows.append(
                        {
                            "view": view,
                            "feature": feature,
                            "task_group": group,
                            "estimate": value,
                            "se": 0.01,
                            "p_value": p,
                            "q_value": q,
                            "tier": "",
                            "valid_resamples": 500,
                        }
                    )
        est_path = tmp_path / "estimates.json"
        inf_path = tmp_path / "inference.json"
        write_json(est_path, {"estimates": estimate_rows, "skipped": [], "family_confounding": {}})
        write_json(inf_path, {"alpha": 0.05, "results": inference_rows, "skipped": []})
        out = tmp_path / "render"
        render_from_artifacts(est_path, inf_path, out)

        spread_errors = {}
        for (view, feature), target in PINNED_SPREADS.items():
            values = [float(v) for v, _ in fixture[view][feature].values()]
            spread_errors[feature] = abs((max(values) - min(values)) - target)
        spreads_ok = all(err < 1e-9 for err in spread_errors.values())

        marker_misses = 0
        cells_checked = 0
        displayed = {}
        for view in ("annotation", "motif"):
            lines = (out / f"table_{view}.csv").read_text("utf-8").splitlines()
            group_order = lines[1].split(",")[1:-1]
            for line in lines[2:]:
                parts = line.split(",")
                feature = parts[0]
                for group, cell_text in zip(group_order, parts[1:-1]):
                    value_str, marker = fixture[view][feature][group]
                    cells_checked += 1
                    if cell_text != f"{float(value_str):+.3f}{marker}":
                        marker_misses += 1
                if (view, feature) in PINNED_SPREADS:
                    displayed[feature] = parts[-1]
        displays_ok = displayed == {
            "Extraneous_load": "0.092",
            "Engagement": "0.120",
            "meta_instruction": "0.114",
        }

        c["ok"] = spreads_ok and marker_misses == 0 and cells_checked == 70 and displays_ok
        c["details"] = (
            f"pinned spreads within 1e-9={spreads_ok} "
            f"(max err {max(spread_errors.values()):.1e}); rendered spreads {displayed}; "
            f"{marker_misses}/{cells_checked} marker mismatches"
        )


def test_criterion_10_ceiling_diagnostics(capsys):
    """Headroom association: exact monotone ranks, inert groups, bounded R2."""
    with criterion(capsys, 10, "ceiling diagnostics") as c:
        groups = ("math", "logical")
        monotone = [
            make_record(
                f"m{i}",
                task_group=groups[i % 2],
                accuracy_before=1.0 - (0.3 + 0.1 * i),
                gain=0.01 * (i + 1),
            )
            for i in range(6)
        ]
        rho_up = ceiling(monotone, seed=0).spearman_rho
        antitone = [
            make_record(
                f"a{i}",
                task_group=groups[i % 2],
                accuracy_before=1.0 - (0.3 + 0.1 * i),
                gain=-0.01 * (i + 1),
            )
            for i in range(6)
        ]
        rho_down = ceiling(antitone, seed=0).spearman_rho
        monotone_ok = rho_up == 1.0 and rho_down == -1.0

        rng = np.random.default_rng(10)
        inert = []
        for i in range(5000):
            headroom = float(rng.uniform(0.3, 0.9))
            gain = float(0.2 * headroom - 0.1 + rng.normal(0.0, 0.05))
            inert.append(
                make_record(
                    f"g{i}",
                    task_group=groups[i % 2],
                    accuracy_before=1.0 - headroom,
                    gain=gain,
                )
            )
        inert_r2 = ceiling(inert, seed=0).partial_r2
        inert_ok = inert_r2 < 0.01

        out_of_bounds = 0
        for _ in range(100):
            n = int(rng.integers(12, 41))
            labels = rng.choice(["g1", "g2", "g3"], size=n)
            r2 = partial_r2(
                rng.uniform(0.0, 1.0, size=n), rng.normal(0.0, 0.1, size=n), labels
            )
            if not 0.0 <= r2 <= 1.0:
                out_of_bounds += 1

        c["ok"] = monotone_ok and inert_ok and out_of_bounds == 0
        c["details"] = (
            f"monotone rho={rho_up:+.1f}/{rho_down:+.1f} (needs exactly +1/-1); "
            f"group-inert partial R2={inert_r2:.5f} at n=5000 (needs <0.01); "
            f"{out_of_bounds}/100 random datasets out of [0, 1]"
        )


def test_criterion_11_end_to_end_determinism(capsys, tmp_path):
    """The full bundle is a pure function of corpus and config."""
    with criterion(capsys, 11, "end-to-end determinism") as c:
        records, _ = generate(SynthConfig())
        t0 = time.monotonic()
        provenance = run_report(PreparedCorpus(records), tmp_path / "one", seed=0, workers=1)
        t1 = time.monotonic()
        run_report(PreparedCorpus(records), tmp_path / "two", seed=0, workers=4)
        t2 = time.monotonic()
        differing = [
            name
            for name in provenance["outputs"]
            if (tmp_path / "one" / name).read_bytes() != (tmp_path / "two" / name).read_bytes()
        ]
        runs_fast = max(t1 - t0, t2 - t1) < 60.0
        c["ok"] = not differing and runs_fast
        c["details"] = (
            f"{len(provenance['outputs'])} artifacts byte-identical across worker "
            f"counts 1 and 4 (differing: {differing or 'none'}); runs took "
            f"{t1 - t0:.1f}s and {t2 - t1:.1f}s (each <60s)"
        )
