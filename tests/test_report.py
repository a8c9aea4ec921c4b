"""Report rendering and bundle assembly tests.

Table emitters are pure functions of row dicts, so most cases pin exact
output strings. Bundle tests run the pipeline end to end on a small
synthetic corpus and check provenance contents and byte determinism.
"""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from editfx import design, estimation, motifs, robustness, surface
from editfx import report as report_mod
from editfx.design import PreparedCorpus, TreatmentSpec
from editfx.errors import ConfigError, SchemaError
from editfx.estimation import EstimateBundle, estimate_all
from editfx.report import (
    BUNDLE_FILES,
    LEGEND,
    Pipeline,
    RunConfig,
    choose_reversal,
    estimates_to_csv,
    estimates_to_json,
    inference_to_csv,
    inference_to_json,
    loo_to_csv,
    per_dataset_to_csv,
    render_family_table,
    render_from_artifacts,
    render_heatmap,
    run_report,
    verify_bundle,
    write_json,
    write_text,
)
from editfx.robustness import LooReport, SignReversalSpec, receptivity
from editfx.store import compute_stats
from editfx.synth import SynthConfig, generate

from conftest import make_record
from oracles import pattern_tokens


def est_row(view, feature, group, sipw, naive=0.0):
    return {
        "view": view,
        "feature": feature,
        "task_group": group,
        "acmgd_sipw": sipw,
        "acmgd_naive": naive,
        "confounding_magnitude": abs(sipw - naive),
        "n_treated": 12,
        "n_control": 15,
        "cap_hits": 0,
    }


def inf_row(view, feature, group, p, q, estimate=0.0, se=0.01):
    return {
        "view": view,
        "feature": feature,
        "task_group": group,
        "estimate": estimate,
        "se": se,
        "p_value": p,
        "q_value": q,
        "tier": "",
        "valid_resamples": 200,
    }


class TestWriters:
    def test_write_text_exact_bytes(self, tmp_path):
        path = tmp_path / "plain.txt"
        write_text(path, "line1\nline2\n")
        assert path.read_bytes() == b"line1\nline2\n"

    def test_write_json_sorted_indented_trailing_newline(self, tmp_path):
        path = tmp_path / "doc.json"
        write_json(path, {"b": 1, "a": ["x", 2]})
        expected = '{\n  "a": [\n    "x",\n    2\n  ],\n  "b": 1\n}\n'
        assert path.read_text("utf-8") == expected

    def test_write_json_keeps_unicode_literal(self, tmp_path):
        path = tmp_path / "doc.json"
        write_json(path, {"marker": "★"})
        assert "★" in path.read_text("utf-8")
        assert "\\u" not in path.read_text("utf-8")


def health(converged, ess_treated, ess_control, max_raw_weight, content):
    return {
        "converged": converged,
        "ess_treated": ess_treated,
        "ess_control": ess_control,
        "max_raw_weight": max_raw_weight,
        "content": content,
    }


class TestEstimateSerialization:
    def bundle(self):
        # Two cells with the same content, named by its first cell.
        content = "surface:word_count:logical"
        estimates = [
            {
                **est_row("surface", "word_count", "math", 0.0512, 0.0819),
                "cap_hits": 1,
                **health(True, 11.5, 14.25, 10.5, content),
            },
            {
                **est_row("surface", "word_count", "logical", -0.02, -0.02),
                "n_treated": 9,
                "n_control": 11,
                **health(False, 9.0, 11.0, 1.0, content),
            },
        ]
        return EstimateBundle(
            estimates=estimates,
            skipped=[("surface:char_count:math", "propensity model needs both arms")],
            family_confounding={"surface": 0.0154, "motif": 0.002},
        )

    def test_json_shape(self):
        doc = estimates_to_json(self.bundle())
        assert set(doc) == {"estimates", "skipped", "family_confounding"}
        first = doc["estimates"][0]
        assert first == {
            "view": "surface",
            "feature": "word_count",
            "task_group": "math",
            "acmgd_sipw": 0.0512,
            "acmgd_naive": 0.0819,
            "confounding_magnitude": pytest.approx(0.0307),
            "n_treated": 12,
            "n_control": 15,
            "cap_hits": 1,
            "converged": True,
            "ess_treated": 11.5,
            "ess_control": 14.25,
            "max_raw_weight": 10.5,
            "content": "surface:word_count:logical",
        }
        assert doc["skipped"] == [["surface:char_count:math", "propensity model needs both arms"]]
        assert list(doc["family_confounding"]) == ["motif", "surface"]

    def test_csv_rounds_to_three_decimals(self):
        rows = estimates_to_json(self.bundle())["estimates"]
        text = estimates_to_csv(rows)
        lines = text.splitlines()
        assert lines[0] == (
            "view,feature,task_group,acmgd_sipw,acmgd_naive,"
            "confounding_magnitude,n_treated,n_control,cap_hits"
        )
        assert lines[1] == "surface,word_count,math,0.051,0.082,0.031,12,15,1"
        assert lines[2] == "surface,word_count,logical,-0.020,-0.020,0.000,9,11,0"
        assert text.endswith("\n")


class TestInferenceSerialization:
    def test_json_echoes_alpha_and_rows(self):
        from editfx.inference import InferenceResult, TIER_BH

        results = [
            InferenceResult(
                view="surface",
                feature="word_count",
                task_group="math",
                estimate=0.05,
                se=0.01,
                p_value=0.001,
                q_value=0.004,
                tier=TIER_BH,
                resample_estimates=np.zeros(200),
                valid_resamples=200,
                n_blocks=8,
                distinct_resamples=150,
                discarded=3,
                nonconverged=0,
                content="surface:char_count:math",
            )
        ]
        doc = inference_to_json(results, [("surface:char_count:math", "unstable")], 0.1)
        assert doc["alpha"] == 0.1
        assert doc["results"][0]["content"] == "surface:char_count:math"
        assert doc["results"][0]["q_value"] == 0.004
        assert doc["results"][0]["tier"] == TIER_BH
        assert doc["skipped"] == [["surface:char_count:math", "unstable"]]

    def test_csv_legend_and_markers(self):
        rows = [
            inf_row("surface", "word_count", "math", p=0.001, q=0.01),
            inf_row("surface", "word_count", "logical", p=0.02, q=0.2),
            inf_row("surface", "word_count", "multihop", p=0.5, q=0.6),
        ]
        lines = inference_to_csv(rows, alpha=0.05).splitlines()
        assert lines[0] == f"# {LEGEND}"
        assert lines[1].startswith("view,feature,task_group,estimate,se,p_value,q_value,tier")
        assert lines[2].split(",")[7] == "★"
        assert lines[3].split(",")[7] == "*"
        assert lines[4].split(",")[7] == ""


class TestFamilyTable:
    def rows(self):
        # passed out of display order on purpose: layout must come from
        # the canonical feature and group orders, not input order
        return [
            est_row("surface", "question_count", "math", 0.002),
            est_row("surface", "word_count", "zzz_extra", 0.012),
            est_row("surface", "word_count", "logical", -0.0601),
            est_row("surface", "word_count", "math", 0.05),
            est_row("motif", "step_by_step", "math", 0.9),
        ]

    def cell_tests(self):
        return [
            inf_row("surface", "word_count", "math", p=0.001, q=0.01),
            inf_row("surface", "word_count", "logical", p=0.02, q=0.1),
        ]

    def test_exact_rendering(self):
        text = render_family_table("surface", self.rows(), self.cell_tests(), alpha=0.05)
        assert text == (
            f"# {LEGEND}\n"
            "feature,math,logical,zzz_extra,spread\n"
            "word_count,+0.050★,-0.060*,+0.012,0.110\n"
            "question_count,+0.002,,,\n"
        )

    def test_view_filter_excludes_other_families(self):
        text = render_family_table("surface", self.rows(), [], alpha=0.05)
        assert "step_by_step" not in text

    def test_spread_blank_for_single_group(self):
        text = render_family_table("motif", self.rows(), [], alpha=0.05)
        assert text.splitlines()[2] == "step_by_step,+0.900,"

    def test_known_groups_precede_sorted_extras(self):
        rows = [
            est_row("surface", "word_count", "aaa", 0.1),
            est_row("surface", "word_count", "multihop", 0.2),
            est_row("surface", "word_count", "commonsense", 0.3),
        ]
        header = render_family_table("surface", rows, []).splitlines()[1]
        assert header == "feature,commonsense,multihop,aaa,spread"

    def test_heatmap_plain_values_no_legend(self):
        text = render_heatmap("surface", self.rows())
        assert text == (
            "feature,math,logical,zzz_extra\n"
            "word_count,0.050,-0.060,0.012\n"
            "question_count,0.002,,\n"
        )


class TestLooCsv:
    def report(self):
        reversal = SignReversalSpec(
            spec=TreatmentSpec(view="surface", feature_name="word_count"),
            group_a="math",
            group_b="logical",
            baseline_sign_a="+",
            baseline_sign_b="-",
        )
        pair = {"feature": "word_count", "group_a": "math", "group_b": "logical"}
        names = ("excluded_dataset", "estimate_a", "estimate_b", "stable")
        splits = [
            {**pair, **dict(zip(names, ("ds_a", 0.3, -0.2, True)))},
            {**pair, **dict(zip(names, ("ds_b", -0.01, -0.25, False)))},
        ]
        return LooReport(reversal=reversal, baseline_a=0.31, baseline_b=-0.22, splits=splits)

    def test_none_report_writes_note_and_header(self):
        text = loo_to_csv(None, note="nothing testable")
        assert text == (
            "# no sign reversal selected: nothing testable\n"
            "excluded_dataset,feature,group_a,group_b,estimate_a,estimate_b,stable\n"
        )

    def test_report_rows_and_baseline_comment(self):
        lines = loo_to_csv(self.report()).splitlines()
        assert lines[0] == "# baseline surface:word_count math=0.310 logical=-0.220; stable 1/2"
        assert lines[2] == "ds_a,word_count,math,logical,0.300,-0.200,✓"
        assert lines[3] == "ds_b,word_count,math,logical,-0.010,-0.250,✗"


class TestChooseReversal:
    def test_widest_gap_wins(self):
        rows = [
            est_row("surface", "word_count", "math", 0.30),
            est_row("surface", "word_count", "logical", -0.20),
            est_row("motif", "chain_of_thought", "commonsense", 0.20),
            est_row("motif", "chain_of_thought", "multihop", -0.40),
        ]
        reversal = choose_reversal(rows)
        assert reversal.spec.view == "motif"
        assert reversal.spec.feature_name == "chain_of_thought"
        assert (reversal.group_a, reversal.group_b) == ("commonsense", "multihop")
        assert (reversal.baseline_sign_a, reversal.baseline_sign_b) == ("+", "-")

    def test_ties_break_lexicographically(self):
        rows = [
            est_row("surface", "word_count", "math", 0.1),
            est_row("surface", "word_count", "logical", -0.1),
            est_row("surface", "char_count", "math", 0.1),
            est_row("surface", "char_count", "logical", -0.1),
        ]
        assert choose_reversal(rows).spec.feature_name == "char_count"

    def test_no_opposite_signs_returns_none(self):
        rows = [
            est_row("surface", "word_count", "math", 0.0),
            est_row("surface", "word_count", "logical", -0.1),
            est_row("surface", "char_count", "math", 0.2),
            est_row("surface", "char_count", "logical", 0.1),
        ]
        assert choose_reversal(rows) is None


class TestPerDatasetCsv:
    def test_na_for_undefined_cells(self):
        rows = [
            {
                "view": "motif",
                "feature": "step_by_step",
                "dataset": "ds_a",
                "cate": 0.1234,
                "n_treated": 4,
                "n_control": 5,
            },
            {
                "view": "motif",
                "feature": "step_by_step",
                "dataset": "ds_b",
                "cate": None,
                "n_treated": 0,
                "n_control": 9,
            },
        ]
        lines = per_dataset_to_csv(rows).splitlines()
        assert lines[0] == "view,feature,dataset,cate,n_treated,n_control"
        assert lines[1] == "motif,step_by_step,ds_a,0.123,4,5"
        assert lines[2] == "motif,step_by_step,ds_b,NA,0,9"


class TestReceptivitySection:
    def annotated_records(self):
        base = {feature: 5.0 for feature in _annotation_features()}
        shifted = dict(base)
        shifted["Demos"] = 7.0
        records = []
        for i in range(4):
            records.append(
                make_record(
                    f"r{i}",
                    annotations_before=dict(base),
                    annotations_after=dict(shifted),
                )
            )
        return records

    def test_no_annotations_note(self):
        doc = receptivity(
            PreparedCorpus([make_record("r0")]), [est_row("annotation", "Demos", "math", 0.1)]
        )
        assert doc == {"note": "receptivity requires annotation vectors; none present"}

    def test_no_annotation_estimates_note(self):
        doc = receptivity(
            PreparedCorpus(self.annotated_records()),
            [est_row("surface", "word_count", "math", 0.1)],
        )
        assert doc == {"note": "no annotation-view estimates available"}

    def test_scores_are_fingerprint_weighted(self):
        doc = receptivity(
            PreparedCorpus(self.annotated_records()), [est_row("annotation", "Demos", "math", 0.25)]
        )
        assert len(doc["scores"]) == 1
        score = doc["scores"][0]
        assert score["task_group"] == "math"
        assert score["optimizer"] == "synthopt"
        assert score["score"] == pytest.approx(2.0 * 0.25)
        assert score["fingerprint"] == {"Demos": pytest.approx(2.0)}


def _annotation_features():
    from editfx.store import ANNOTATION_FEATURES

    return ANNOTATION_FEATURES


class TestRenderFromArtifacts:
    def docs(self):
        estimates_doc = {
            "estimates": [
                est_row("surface", "word_count", "math", 0.05),
                est_row("surface", "word_count", "logical", -0.0601),
            ],
            "skipped": [],
            "family_confounding": {"surface": 0.01},
        }
        inference_doc = {
            "alpha": 0.05,
            "results": [inf_row("surface", "word_count", "math", p=0.001, q=0.01)],
            "skipped": [],
        }
        return estimates_doc, inference_doc

    def test_tables_match_direct_rendering(self, tmp_path):
        estimates_doc, inference_doc = self.docs()
        est_path = tmp_path / "estimates.json"
        inf_path = tmp_path / "inference.json"
        write_json(est_path, estimates_doc)
        write_json(inf_path, inference_doc)
        out = tmp_path / "render"
        provenance = render_from_artifacts(est_path, inf_path, out)
        expected = render_family_table(
            "surface", estimates_doc["estimates"], inference_doc["results"], 0.05
        )
        assert (out / "table_surface.csv").read_text("utf-8") == expected
        assert (out / "heatmap_surface.csv").read_text("utf-8") == render_heatmap(
            "surface", estimates_doc["estimates"]
        )
        assert provenance["mode"] == "render"
        assert provenance["inputs"]["estimates"] == hashlib.sha256(est_path.read_bytes()).hexdigest()
        assert provenance["inputs"]["inference"] == hashlib.sha256(inf_path.read_bytes()).hexdigest()
        assert provenance["outputs"] == sorted(
            ["table_surface.csv", "heatmap_surface.csv", "provenance.json"]
        )

    def test_inference_optional(self, tmp_path):
        estimates_doc, _ = self.docs()
        est_path = tmp_path / "estimates.json"
        write_json(est_path, estimates_doc)
        out = tmp_path / "render"
        provenance = render_from_artifacts(est_path, None, out)
        assert provenance["inputs"]["inference"] is None
        data_lines = (out / "table_surface.csv").read_text("utf-8").splitlines()[1:]
        assert all("★" not in line and "*" not in line for line in data_lines)


class TestVerifyBundle:
    def test_missing_provenance(self, tmp_path):
        with pytest.raises(SchemaError, match="missing provenance.json"):
            verify_bundle(tmp_path)

    def test_missing_required_key(self, tmp_path):
        write_json(tmp_path / "provenance.json", {"artifact": {}, "outputs": []})
        with pytest.raises(SchemaError, match="required key 'config'"):
            verify_bundle(tmp_path)

    def test_missing_declared_output(self, tmp_path):
        write_json(
            tmp_path / "provenance.json",
            {"artifact": {}, "config": {}, "outputs": ["ghost.csv"]},
        )
        with pytest.raises(SchemaError, match="ghost.csv"):
            verify_bundle(tmp_path)

    def test_complete_bundle_passes(self, tmp_path):
        write_text(tmp_path / "estimates.csv", "view\n")
        write_json(
            tmp_path / "provenance.json",
            {"artifact": {}, "config": {}, "outputs": ["estimates.csv", "provenance.json"]},
        )
        assert verify_bundle(tmp_path)["outputs"] == ["estimates.csv", "provenance.json"]


@pytest.fixture(scope="module")
def small_corpus():
    records, _ = generate(SynthConfig(n=400, seed=3))
    return records


class TestRunReport:
    def test_bundle_contents_and_provenance(self, tmp_path, small_corpus):
        out = tmp_path / "bundle"
        provenance = run_report(PreparedCorpus(small_corpus), out, seed=5, resamples=16)
        for name in BUNDLE_FILES:
            assert (out / name).exists(), name
        for name in provenance["outputs"]:
            assert (out / name).exists(), name
        assert (out / "table_surface.csv").exists()
        assert (out / "heatmap_motif.csv").exists()

        assert provenance["artifact"]["name"] == "editfx"
        # worker count affects scheduling only, so it stays out of the
        # reproducibility config echo
        assert set(provenance["config"]) == {
            "seed",
            "alpha",
            "resamples",
            "min_cell",
            "min_arm",
            "scope",
            "refit",
            "percentile_p",
            "include_demos",
        }
        assert provenance["config"]["seed"] == 5
        assert len(provenance["wordlists"]["sha256"]) == 64
        assert len(provenance["ruleset"]["sha256"]) == 64
        assert provenance["corpus"]["record_count"] == 400
        family_names = [f["name"] for f in provenance["families"]]
        assert "surface" in family_names and "motif" in family_names
        for family in provenance["families"]:
            assert 1 <= family["contents"] <= family["cells"] == family["m"]
        assert "note" in provenance["construct_validity"]
        assert provenance["outputs"] == sorted(provenance["outputs"])

    def test_provenance_counts_cells_and_contents(self, tmp_path):
        # The default synth corpus at seed 7: in each task group, 7 surface
        # features and the meta-instruction motif have the same rows and
        # treatments, so 16 tested cells hold 2 contents.
        records, _ = generate(SynthConfig(seed=7))
        out = tmp_path / "bundle"
        provenance = run_report(PreparedCorpus(records), out, seed=7, resamples=8)
        counts = {f["name"]: (f["cells"], f["contents"]) for f in provenance["families"]}
        assert counts == {"surface": (14, 2), "motif": (2, 2)}
        assert (provenance["inference"]["cells"], provenance["inference"]["contents"]) == (16, 2)
        estimates = json.loads((out / "estimates.json").read_text("utf-8"))["estimates"]
        results = json.loads((out / "inference.json").read_text("utf-8"))["results"]
        for rows in (estimates, results):
            named = {":".join((r["view"], r["feature"], r["task_group"])): r for r in rows}
            assert {r["content"] for r in rows} == {
                "surface:char_count:logical",
                "surface:char_count:math",
            }
            assert all(named[r["content"]]["content"] == r["content"] for r in rows)

    def test_artifact_formats(self, tmp_path, small_corpus):
        out = tmp_path / "bundle"
        run_report(PreparedCorpus(small_corpus), out, seed=5, resamples=16)
        estimates_doc = json.loads((out / "estimates.json").read_text("utf-8"))
        assert estimates_doc["estimates"], "expected at least one estimated cell"
        for row in estimates_doc["estimates"]:
            assert set(row) == {
                "view",
                "feature",
                "task_group",
                "acmgd_sipw",
                "acmgd_naive",
                "confounding_magnitude",
                "n_treated",
                "n_control",
                "cap_hits",
                "converged",
                "ess_treated",
                "ess_control",
                "max_raw_weight",
                "content",
            }
        inference_doc = json.loads((out / "inference.json").read_text("utf-8"))
        assert all("content" in row for row in inference_doc["results"])
        inference_lines = (out / "inference.csv").read_text("utf-8").splitlines()
        assert inference_lines[0] == f"# {LEGEND}"
        receptivity_doc = json.loads((out / "receptivity.json").read_text("utf-8"))
        assert receptivity_doc == {"note": "receptivity requires annotation vectors; none present"}
        ceiling_doc = json.loads((out / "ceiling.json").read_text("utf-8"))
        assert "note" not in ceiling_doc
        per_dataset_lines = (out / "per_dataset.csv").read_text("utf-8").splitlines()
        assert per_dataset_lines[0] == "view,feature,dataset,cate,n_treated,n_control"
        assert len(per_dataset_lines) > 1
        loo_first = (out / "loo.csv").read_text("utf-8").splitlines()[0]
        assert loo_first.startswith("#")

    def test_diagnostics_return_the_rows_the_bundle_writes(self, tmp_path):
        records, _ = generate(SynthConfig(n=120, seed=0, annotate=True))
        prepared = PreparedCorpus(records)
        out = tmp_path / "bundle"
        provenance = run_report(prepared, out, seed=0, resamples=8)
        ceiling_doc = json.loads((out / "ceiling.json").read_text("utf-8"))
        assert ceiling_doc == robustness.ceiling(records, seed=0)
        assert provenance["corpus"] == compute_stats(records)
        pairs = robustness.construct_validity(prepared, seed=0)
        assert provenance["construct_validity"]["pairs"] == pairs
        assert any(pair["validated"] for pair in pairs)
        specs = [TreatmentSpec(view="motif", feature_name=f) for f in design.view_features("motif")]
        rows = [row for spec in specs for row in robustness.per_dataset_cate(prepared, spec)]
        assert any(row["cate"] is not None for row in rows)
        assert (out / "per_dataset.csv").read_text("utf-8") == per_dataset_to_csv(rows)

    def test_one_corpus_serves_the_whole_run(self, tmp_path, monkeypatch):
        records, _ = generate(SynthConfig(n=120, seed=0, annotate=True))
        counted_names = ((surface, "extract"), (motifs, "record_motifs"), (design, "UnitFrame"))
        calls = {name: 0 for _, name in counted_names}
        for module, name in counted_names:
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        provenance = run_report(PreparedCorpus(records), tmp_path / "bundle", seed=3, resamples=8)
        # Every step ran: construct validity, a leave-one-out reversal and
        # the per-dataset breakdown all read the one corpus given.
        assert provenance["construct_validity"]["total"] > 0
        assert provenance["loo"]["total"] > 0
        assert len((tmp_path / "bundle" / "per_dataset.csv").read_text().splitlines()) > 1
        # Each distinct state (instruction text, demo count) is extracted
        # once; repeated states reuse the first vector.
        states = {(s.instruction_text, len(s.demos)) for r in records for s in (r.before, r.after)}
        assert len(states) == 175
        assert calls == {"extract": len(states), "record_motifs": len(records), "UnitFrame": 1}

    def test_loo_adds_no_point_fit(self, tmp_path, monkeypatch):
        # The reversal's baselines are its tested cells' point fits, so a
        # run fits each distinct content once, leave-one-out included.
        records, _ = generate(SynthConfig(n=120, seed=0, annotate=True))
        calls = []
        original = estimation.fit_stack

        def counted(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(estimation, "fit_stack", counted)
        provenance = run_report(PreparedCorpus(records), tmp_path / "bundle", seed=3, resamples=8)
        assert provenance["loo"]["total"] > 0
        assert len(calls) == len(set(calls)) == provenance["inference"]["contents"]

    def test_annotation_view_does_not_diff(self, monkeypatch):
        # The annotation view and the frame read no motif diffs, so a run
        # of that view alone never computes them.
        records, _ = generate(SynthConfig(n=120, seed=0, annotate=True))
        calls = []
        original = motifs.record_motifs
        monkeypatch.setattr(
            motifs, "record_motifs", lambda *args, **kw: calls.append(args) or original(*args, **kw)
        )
        doc = Pipeline(PreparedCorpus(records), RunConfig(), views=("annotation",)).estimates
        assert {row["view"] for row in doc["estimates"]} == {"annotation"}
        assert calls == []

    def test_mixed_script_bundle_matches_the_token_pattern(self, tmp_path, monkeypatch):
        # ASCII texts take tokenize's split path and the others its pattern
        # path; the bundle is the one the pattern alone gives.
        records, _ = generate(SynthConfig(n=120, seed=0, annotate=True))
        words = ["\u0130stanbul", "Stra\u00dfe", "caf\u00e9\u00a0noir", "\uff11\uff12\uff13"]
        mixed = []
        for k, record in enumerate(records):
            word = words[k % len(words)]
            if k % 3 == 0:
                text = f"{word} {record.after.instruction_text} Make sure to v\u00e9rify it {word}!"
                record = replace(record, after=replace(record.after, instruction_text=text))
            if k % 4 == 0:
                text = f"{record.before.instruction_text} ({word})"
                record = replace(record, before=replace(record.before, instruction_text=text))
            if k % 5 == 0:
                demos = ({"input": f"{word} = ?", "output": "Be sure to answer \u00bd"},)
                record = replace(record, after=replace(record.after, demos=demos))
            mixed.append(record)
        texts = [s.instruction_text for r in mixed for s in (r.before, r.after)]
        assert any(t.isascii() for t in texts) and not all(t.isascii() for t in texts)
        settings = {"seed": 3, "resamples": 8, "include_demos": True}
        split = run_report(PreparedCorpus(mixed, include_demos=True), tmp_path / "split", **settings)
        monkeypatch.setattr(surface, "tokenize", pattern_tokens)
        run_report(PreparedCorpus(mixed, include_demos=True), tmp_path / "pattern", **settings)
        for name in split["outputs"]:
            assert (tmp_path / "split" / name).read_bytes() == (
                tmp_path / "pattern" / name
            ).read_bytes(), name

    def test_worker_count_does_not_change_bytes(self, tmp_path, small_corpus):
        out_serial = tmp_path / "serial"
        out_parallel = tmp_path / "parallel"
        settings = {"seed": 5, "resamples": 16}
        provenance = run_report(PreparedCorpus(small_corpus), out_serial, **settings, workers=1)
        run_report(PreparedCorpus(small_corpus), out_parallel, **settings, workers=3)
        for name in provenance["outputs"]:
            assert (out_serial / name).read_bytes() == (out_parallel / name).read_bytes(), name


class TestPipeline:
    def test_stages_are_built_once(self, monkeypatch, tmp_path):
        # An annotated corpus, so that every stage has work: a sign reversal
        # for leave-one-out and annotation pairs for construct validity.
        records, _ = generate(SynthConfig(n=120, seed=0, annotate=True))
        stages = ("enumerate_families", "estimate_all", "infer_all", "loo_stability")
        stages += ("per_dataset_cate", "ceiling", "construct_validity")
        calls = dict.fromkeys(stages, 0)
        for name in calls:
            original = getattr(report_mod, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(report_mod, name, counted)
        built = []
        real_build_units = design.build_units

        def build_units(prepared, spec):
            built.append(spec)
            return real_build_units(prepared, spec)

        # Every reader of a spec's units shares one build: count any binding
        # of build_units in robustness as well as design's own.
        monkeypatch.setattr(design, "build_units", build_units)
        monkeypatch.setattr(robustness, "build_units", build_units, raising=False)
        # One report calls each stage's function once (per_dataset_cate once
        # per motif feature) and builds each spec's units once.
        once = {**dict.fromkeys(calls, 1), "per_dataset_cate": len(design.view_features("motif"))}
        specs = [TreatmentSpec(v, f) for v in design.VIEWS for f in design.view_features(v)]
        run_report(PreparedCorpus(records), tmp_path / "bundle", resamples=4)
        assert calls == once
        assert sorted(built, key=repr) == sorted(specs, key=repr)

        # A pipeline's stages are kept: reading them again builds nothing.
        calls.update(dict.fromkeys(calls, 0))
        built.clear()
        pipeline = Pipeline(PreparedCorpus(records), RunConfig(resamples=4))
        for _ in range(2):
            assert pipeline.estimates["estimates"]
            assert pipeline.inference["results"]
            assert pipeline.loo[0].total > 0 and pipeline.per_dataset
            assert "note" not in pipeline.ceiling and pipeline.validity["total"] > 0
            assert pipeline.provenance["loo"]["total"] == pipeline.loo[0].total
        assert calls == once
        assert sorted(built, key=repr) == sorted(specs, key=repr)

    def test_each_cell_point_estimate_is_fitted_once(self, small_corpus, monkeypatch):
        whole_cell_fits = []
        real = estimation.fit_stack

        def counted(data, weights, columns=None):
            # The whole cell is one population counting every row once;
            # bootstrap resamples come as block counts with columns.
            if columns is None and len(weights) == 1 and np.all(np.asarray(weights[0]) == 1):
                whole_cell_fits.append(data)
            return real(data, weights, columns)

        monkeypatch.setattr(estimation, "fit_stack", counted)
        pipeline = Pipeline(PreparedCorpus(small_corpus), RunConfig())
        estimates = pipeline.estimates["estimates"]
        results = pipeline.inference["results"]
        assert pipeline.inference["skipped"] == []
        # Cells with the same rows and treatments share one CellData and its fit.
        datas = {id(cell.data) for family in pipeline.families for cell in family.cells}
        assert len(whole_cell_fits) == len(datas) == len({id(d) for d in whole_cell_fits})
        assert {id(d) for d in whole_cell_fits} == datas
        assert len(results) == len(estimates) >= len(datas) > 0

    @pytest.mark.parametrize("scope", ["cell", "pooled"])
    def test_estimate_rows_are_written_as_estimate_all_returns_them(self, small_corpus, scope):
        pipeline = Pipeline(PreparedCorpus(small_corpus), RunConfig(scope=scope))
        bundle = estimate_all(pipeline.tested, scope=scope)
        assert pipeline.estimates["estimates"] == bundle.estimates

    def test_prepared_corpus_must_match_config(self, small_corpus, tmp_path):
        prepared = PreparedCorpus(small_corpus, include_demos=True)
        with pytest.raises(ConfigError, match="include_demos"):
            Pipeline(prepared, RunConfig())
        with pytest.raises(ConfigError, match="include_demos"):
            run_report(prepared, tmp_path / "bundle")

    @pytest.mark.parametrize(
        "settings",
        [
            {"workers": 0},
            {"resamples": "50"},
            {"bogus": 1},
            {"resamples": 1},
            {"resamples": 0},
            {"alpha": 1.5},
            {"scope": "bogus"},
            {"min_cell": 0},
            {"min_arm": 0},
        ],
    )
    def test_run_report_rejects_bad_settings(self, small_corpus, tmp_path, settings):
        with pytest.raises((ConfigError, TypeError)):
            run_report(PreparedCorpus(small_corpus), tmp_path / "bundle", **settings)
        assert not (tmp_path / "bundle").exists()
