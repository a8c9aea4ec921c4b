"""Command-line interface tests.

Subcommands run in-process through main(argv) so exit codes, stdout,
and written artifacts can all be asserted cheaply. One subprocess
smoke test covers the installed console script.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import warnings
from importlib import resources
from pathlib import Path

import pytest

import editfx
from editfx import estimation, motifs, robustness
from editfx.cli import main
from editfx.design import PreparedCorpus
from editfx.report import BUNDLE_FILES
from editfx.robustness import construct_validity
from editfx.store import ingest, serialize
from editfx.surface import FEATURE_ORDER, WordLists
from editfx.synth import SynthConfig, generate

from conftest import effect_corpus


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    records, _ = generate(SynthConfig(n=120, seed=11))
    path = tmp_path_factory.mktemp("corpus") / "corpus.jsonl"
    serialize(records, path)
    return path


@pytest.fixture(scope="module")
def reversal_corpus_path(tmp_path_factory):
    layout = [
        ("m1", "math", True, 0.2, 6),
        ("m1", "math", False, 0.0, 6),
        ("m2", "math", True, 0.2, 6),
        ("m2", "math", False, 0.0, 6),
        ("l1", "logical", True, -0.2, 6),
        ("l1", "logical", False, 0.0, 6),
        ("l2", "logical", True, -0.2, 6),
        ("l2", "logical", False, 0.0, 6),
    ]
    path = tmp_path_factory.mktemp("reversal") / "corpus.jsonl"
    serialize(effect_corpus(layout), path)
    return path


@pytest.fixture(scope="module")
def plain_seed0_path(tmp_path_factory):
    """The default synth corpus at seed 0, as `editfx synth --seed 0` writes it."""
    records, _ = generate(SynthConfig(seed=0))
    path = tmp_path_factory.mktemp("plain0") / "corpus.jsonl"
    serialize(records, path)
    return path


@pytest.fixture(scope="module")
def annotated12_path(tmp_path_factory):
    """The first 12 records of the annotated synth corpus at seed 0."""
    records, _ = generate(SynthConfig(seed=0, annotate=True))
    path = tmp_path_factory.mktemp("annotated12") / "corpus.jsonl"
    serialize(records[:12], path)
    return path


class TestValidate:
    def test_ok_corpus_prints_stats(self, corpus_path, capsys):
        assert main(["validate", "--input", str(corpus_path)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["record_count"] == 120
        assert stats["skipped_count"] == 0
        assert sum(stats["per_dataset_counts"].values()) == 120

    def test_strict_mode_rejects_bad_line(self, corpus_path, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(corpus_path.read_bytes() + b"not json at all\n")
        assert main(["validate", "--input", str(bad)]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_lenient_mode_skips_and_counts(self, corpus_path, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(corpus_path.read_bytes() + b"not json at all\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["validate", "--input", str(bad), "--lenient"]) == 0
            stats = json.loads(capsys.readouterr().out)
            assert stats["skipped_count"] == 1
            assert stats["record_count"] == 120
            assert main(["validate", "--input", str(bad), "--lenient", "--fail-on-skip"]) == 1


class TestStageCommands:
    def test_features_writes_vectors(self, corpus_path, tmp_path):
        out = tmp_path / "features"
        assert main(["features", "--input", str(corpus_path), "--out", str(out)]) == 0
        lines = (out / "features.jsonl").read_text("utf-8").splitlines()
        assert len(lines) == 120
        for doc in map(json.loads, lines):
            assert set(doc) == {"pair_id", "before", "after", "delta"}
            assert set(doc["delta"]) == set(FEATURE_ORDER)
            for name in FEATURE_ORDER:
                assert doc["delta"][name] == doc["after"][name] - doc["before"][name]

    def test_motifs_writes_results_and_audit(self, corpus_path, tmp_path):
        out = tmp_path / "motifs"
        argv = [
            "motifs",
            "--input",
            str(corpus_path),
            "--out",
            str(out),
            "--audit-label",
            "meta_instruction",
            "--audit-k",
            "5",
        ]
        assert main(argv) == 0
        lines = (out / "motifs.jsonl").read_text("utf-8").splitlines()
        assert len(lines) == 120
        assert "record_labels" in json.loads(lines[0])
        cooc = (out / "motif_cooccurrence.csv").read_text("utf-8").splitlines()
        assert cooc[0] == "label_a,label_b,count,rate_all,rate_labeled"
        audit = (out / "audit_meta_instruction.csv").read_text("utf-8").splitlines()
        assert audit[0] == "pair_id,span_text"
        assert len(audit) == 6

    def test_motifs_audit_k_is_checked_before_any_output(self, corpus_path, tmp_path, capsys):
        out = tmp_path / "motifs"
        argv = ["motifs", "--input", str(corpus_path), "--out", str(out)]
        assert main([*argv, "--audit-label", "meta_instruction", "--audit-k", "0"]) == 1
        assert "--audit-k must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    def test_estimate_writes_artifacts(self, corpus_path, tmp_path, capsys):
        out = tmp_path / "estimates"
        assert main(["estimate", "--input", str(corpus_path), "--out", str(out)]) == 0
        doc = json.loads((out / "estimates.json").read_text("utf-8"))
        assert doc["estimates"]
        assert (out / "estimates.csv").exists()
        assert capsys.readouterr().out.startswith("estimated ")

    def test_infer_writes_artifacts(self, corpus_path, tmp_path):
        out = tmp_path / "inference"
        argv = ["infer", "--input", str(corpus_path), "--out", str(out), "--resamples", "8"]
        assert main(argv) == 0
        doc = json.loads((out / "inference.json").read_text("utf-8"))
        assert doc["alpha"] == 0.05
        assert all(0.0 <= row["q_value"] <= 1.0 for row in doc["results"])

    def test_ceiling_writes_json(self, corpus_path, tmp_path, capsys):
        out = tmp_path / "ceiling"
        assert main(["ceiling", "--input", str(corpus_path), "--out", str(out)]) == 0
        doc = json.loads((out / "ceiling.json").read_text("utf-8"))
        assert json.loads(capsys.readouterr().out) == doc

    def test_receptivity_notes_missing_annotations(self, corpus_path, tmp_path):
        out = tmp_path / "receptivity"
        assert main(["receptivity", "--input", str(corpus_path), "--out", str(out)]) == 0
        doc = json.loads((out / "receptivity.json").read_text("utf-8"))
        assert doc == {"note": "receptivity requires annotation vectors; none present"}


class TestLoo:
    def test_auto_signs_from_baseline(self, reversal_corpus_path, tmp_path, capsys):
        out = tmp_path / "loo"
        argv = [
            "loo",
            "--input",
            str(reversal_corpus_path),
            "--out",
            str(out),
            "--view",
            "surface",
            "--feature",
            "word_count",
            "--group-a",
            "math",
            "--group-b",
            "logical",
        ]
        assert main(argv) == 0
        assert capsys.readouterr().out.strip() == "stable 4/4"
        lines = (out / "loo.csv").read_text("utf-8").splitlines()
        assert lines[0].startswith("# baseline surface:word_count math=")
        assert len(lines) == 6

    def test_explicit_signs(self, reversal_corpus_path, tmp_path):
        out = tmp_path / "loo"
        argv = [
            "loo",
            "--input",
            str(reversal_corpus_path),
            "--out",
            str(out),
            "--view",
            "surface",
            "--feature",
            "word_count",
            "--group-a",
            "math",
            "--group-b",
            "logical",
            "--sign-a",
            "+",
            "--sign-b",
            "-",
        ]
        assert main(argv) == 0
        assert (out / "loo.csv").exists()

    def test_auto_signs_build_the_baseline_once(
        self, reversal_corpus_path, tmp_path, capsys, monkeypatch
    ):
        # The baselines are the tested cells' point fits, and each cell's
        # splits are one stack: one of each per reversal cell.
        calls = {"fit_stack": 0, "sipw_stack": 0}
        for module, name in ((estimation, "fit_stack"), (robustness, "sipw_stack")):
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        argv = [
            "loo",
            "--input",
            str(reversal_corpus_path),
            "--out",
            str(tmp_path / "loo"),
            "--view",
            "surface",
            "--feature",
            "word_count",
            "--group-a",
            "math",
            "--group-b",
            "logical",
        ]
        assert main(argv) == 0
        assert capsys.readouterr().out.strip() == "stable 4/4"
        assert calls == {"fit_stack": 2, "sipw_stack": 2}

    @pytest.mark.parametrize("signs", [[], ["--sign-a", "+", "--sign-b", "-"]])
    def test_one_group_twice_fails(self, reversal_corpus_path, tmp_path, capsys, signs):
        argv = ["loo", "--input", str(reversal_corpus_path), "--out", str(tmp_path / "loo")]
        argv += ["--view", "surface", "--feature", "word_count"]
        argv += ["--group-a", "math", "--group-b", "math", *signs]
        assert main(argv) == 1
        assert "a sign reversal needs two groups, got 'math' twice" in capsys.readouterr().err
        assert not (tmp_path / "loo").exists()

    def test_min_cell_applies_to_the_reversal_cells(self, tmp_path, capsys):
        # math has 24 units and logical 40: --min-cell 30 excludes the math
        # cell, and --min-cell 50 every cell of the surface family, which
        # keeps each cell's own reason.
        layout = [
            (dataset, group, treated, effect if treated else 0.0, count)
            for dataset, group, effect, count in (
                ("m1", "math", 0.2, 6),
                ("m2", "math", 0.2, 6),
                ("l1", "logical", -0.2, 10),
                ("l2", "logical", -0.2, 10),
            )
            for treated in (True, False)
        ]
        corpus = tmp_path / "corpus.jsonl"
        serialize(effect_corpus(layout), corpus)
        argv = ["loo", "--input", str(corpus), "--out", str(tmp_path / "loo")]
        argv += ["--view", "surface", "--feature", "word_count"]
        argv += ["--group-a", "math", "--group-b", "logical"]
        assert main([*argv, "--min-cell", "20"]) == 0
        capsys.readouterr()
        assert main([*argv, "--min-cell", "30"]) == 1
        err = capsys.readouterr().err
        assert "reversal cell surface:word_count:math is not tested: n=24 below minimum 30" in err
        assert main([*argv, "--min-cell", "50"]) == 1
        err = capsys.readouterr().err
        assert "reversal cell surface:word_count:math is not tested: n=24 below minimum 50" in err

    def test_auto_signs_that_agree_fail(self, tmp_path, capsys):
        layout = [
            (dataset, group, treated, 0.2 if treated else 0.0, 6)
            for dataset, group in (("m1", "math"), ("l1", "logical"))
            for treated in (True, False)
        ]
        corpus = tmp_path / "corpus.jsonl"
        serialize(effect_corpus(layout), corpus)
        argv = ["loo", "--input", str(corpus), "--out", str(tmp_path / "loo")]
        argv += ["--view", "surface", "--feature", "word_count"]
        argv += ["--group-a", "math", "--group-b", "logical"]
        assert main(argv) == 1
        assert "baseline signs must be one '+' and one '-'" in capsys.readouterr().err

    def test_auto_signs_name_both_baselines(self, plain_seed0_path, tmp_path, capsys):
        # Both groups' meta-instruction baselines are positive on this corpus.
        out = tmp_path / "loo"
        argv = ["loo", "--input", str(plain_seed0_path), "--out", str(out)]
        argv += ["--view", "motif", "--feature", "meta_instruction"]
        argv += ["--group-a", "math", "--group-b", "logical"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "the baselines math=+0.057 and logical=+0.041 are not a sign reversal" in err
        assert not out.exists()

    @pytest.mark.parametrize("sign", [["--sign-a", "+"], ["--sign-b", "-"]])
    def test_a_lone_sign_fails(self, reversal_corpus_path, tmp_path, capsys, sign):
        out = tmp_path / "loo"
        argv = ["loo", "--input", str(reversal_corpus_path), "--out", str(out)]
        argv += ["--view", "surface", "--feature", "word_count"]
        argv += ["--group-a", "math", "--group-b", "logical", *sign]
        assert main(argv) == 1
        assert "loo takes both --sign-a and --sign-b, or neither" in capsys.readouterr().err
        assert not out.exists()


class TestSynthCommand:
    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"gamma": [1]}, "gamma must hold 2 values"),
            ({"n": 12.5}, "config key 'n' must be int, got 12.5"),
            ({"groups": []}, "need at least one task group"),
            ({"tau": "x"}, "config key 'tau' must be float, got 'x'"),
            ({"datasets": "abc"}, "config key 'datasets' must be a list, got 'abc'"),
            ({"gamma": [0.0, "1"]}, "config key 'gamma' must hold float values"),
            ({"seed": -1}, "seed must be >= 0, got -1"),
        ],
    )
    def test_bad_config_fails_before_any_output(self, tmp_path, capsys, doc, message):
        cfg_path = tmp_path / "synth.json"
        cfg_path.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "synth"
        assert main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_flag_fails(self, tmp_path, capsys):
        out = tmp_path / "synth"
        assert main(["synth", "--out", str(out), "--seed", "-1"]) == 1
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_and_seed_override(self, tmp_path):
        cfg_path = tmp_path / "synth.json"
        cfg_path.write_text(json.dumps({"n": 80, "seed": 3}), encoding="utf-8")
        out = tmp_path / "synth"
        argv = ["synth", "--config", str(cfg_path), "--out", str(out), "--seed", "9"]
        assert main(argv) == 0
        lines = (out / "corpus.jsonl").read_text("utf-8").splitlines()
        assert len(lines) == 80
        truth = json.loads((out / "ground_truth.json").read_text("utf-8"))
        assert truth["config"]["n"] == 80
        assert truth["config"]["seed"] == 9

    def test_default_config(self, tmp_path):
        out = tmp_path / "synth"
        assert main(["synth", "--out", str(out)]) == 0
        lines = (out / "corpus.jsonl").read_text("utf-8").splitlines()
        assert len(lines) == SynthConfig().n


class TestReportCommand:
    def test_wordlists_override_reaches_construct_validity(self, tmp_path):
        records, _ = generate(SynthConfig(n=120, seed=11, annotate=True))
        corpus = tmp_path / "corpus.jsonl"
        serialize(records, corpus)
        records, _ = ingest(corpus)
        lists = json.loads(resources.files("editfx.data").joinpath("wordlists.json").read_text())
        lists["reasoning_words"] += lists["metacog_words"]
        lists_path = tmp_path / "wordlists.json"
        lists_path.write_text(json.dumps(lists), encoding="utf-8")
        out = tmp_path / "bundle"
        argv = ["report", "--input", str(corpus), "--out", str(out), "--resamples", "20"]
        assert main([*argv, "--wordlists", str(lists_path)]) == 0
        written = json.loads((out / "provenance.json").read_text("utf-8"))["construct_validity"]
        expected = construct_validity(PreparedCorpus(records, WordLists.from_json(lists)))
        assert written["pairs"] == expected
        assert expected != construct_validity(PreparedCorpus(records))

    def test_full_bundle_then_render_only(self, corpus_path, tmp_path):
        bundle = tmp_path / "bundle"
        argv = [
            "report",
            "--input",
            str(corpus_path),
            "--out",
            str(bundle),
            "--resamples",
            "8",
        ]
        assert main(argv) == 0
        assert (bundle / "provenance.json").exists()

        rendered = tmp_path / "rendered"
        argv = [
            "report",
            "--estimates",
            str(bundle / "estimates.json"),
            "--inference",
            str(bundle / "inference.json"),
            "--out",
            str(rendered),
        ]
        assert main(argv) == 0
        provenance = json.loads((rendered / "provenance.json").read_text("utf-8"))
        assert provenance["mode"] == "render"
        # render-only tables must agree with the pipeline's own tables
        assert (rendered / "table_surface.csv").read_bytes() == (
            bundle / "table_surface.csv"
        ).read_bytes()

    def test_family_losing_every_cell_keeps_its_exclusions(self, corpus_path, tmp_path):
        # No cell reaches --min-cell: each family is listed untested, with
        # its reasons, and gets no table; the unannotated corpus's
        # annotation view has no units, so it is not listed.
        out = tmp_path / "bundle"
        argv = ["report", "--input", str(corpus_path), "--out", str(out), "--resamples", "8"]
        assert main([*argv, "--min-cell", "5000"]) == 0
        provenance = json.loads((out / "provenance.json").read_text("utf-8"))
        families = provenance["families"]
        assert [family["name"] for family in families] == ["surface", "motif"]
        for family in families:
            assert (family["m"], family["cells"], family["contents"]) == (0, 0, 0)
            assert family["excluded"]
            assert all(reason.endswith("below minimum 5000") for *_, reason in family["excluded"])
        assert provenance["outputs"] == sorted(BUNDLE_FILES)
        assert sorted(path.name for path in out.iterdir()) == sorted(BUNDLE_FILES)
        assert json.loads((out / "estimates.json").read_text("utf-8"))["estimates"] == []
        assert json.loads((out / "inference.json").read_text("utf-8"))["results"] == []

    def test_requires_input_or_estimates(self, tmp_path, capsys):
        assert main(["report", "--out", str(tmp_path / "x")]) == 1
        assert "report needs either --input or --estimates" in capsys.readouterr().err

    def test_missing_artifact_path_fails(self, tmp_path, capsys):
        assert main(["report", "--estimates", "nope.json", "--out", str(tmp_path / "x")]) == 1
        assert "estimates file not found: nope.json" in capsys.readouterr().err

    def test_rejects_input_and_estimates_together(self, corpus_path, tmp_path, capsys):
        argv = [
            "report",
            "--input",
            str(corpus_path),
            "--estimates",
            "whatever.json",
            "--out",
            str(tmp_path / "x"),
        ]
        assert main(argv) == 1
        assert "not both" in capsys.readouterr().err

    def test_inference_needs_estimates(self, corpus_path, tmp_path, capsys):
        out = tmp_path / "bundle"
        argv = ["report", "--input", str(corpus_path), "--out", str(out)]
        assert main([*argv, "--inference", str(tmp_path / "missing.json")]) == 1
        assert "report takes --inference only with --estimates" in capsys.readouterr().err
        assert not out.exists()


class TestRunConfig:
    @pytest.mark.parametrize(
        "argv",
        [
            ["report", "--min-cell", "2", "--min-arm", "1"],
            ["ceiling"],
            ["motifs", "--audit-label", "meta_instruction"],
        ],
        ids=["report", "ceiling", "motifs"],
    )
    def test_negative_seed_fails_before_any_output(
        self, annotated12_path, tmp_path, capsys, argv
    ):
        # On 12 records the ceiling's permutation test and the audit sample
        # both draw with the run seed.
        out = tmp_path / "x"
        argv = [*argv, "--input", str(annotated12_path), "--out", str(out), "--seed", "-1"]
        assert main(argv) == 1
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_config_is_checked_before_the_corpus(self, corpus_path, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_bytes(b"not json\n" + corpus_path.read_bytes())
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"resamples": "50"}), encoding="utf-8")
        out = tmp_path / "x"
        argv = ["report", "--input", str(corpus), "--out", str(out), "--config", str(cfg_path)]
        assert main(argv) == 1
        assert "config key 'resamples' must be int" in capsys.readouterr().err
        assert not out.exists()

    def test_flags_override_config_file(self, corpus_path, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"resamples": 8, "alpha": 0.2}), encoding="utf-8")
        out = tmp_path / "inference"
        argv = [
            "infer",
            "--input",
            str(corpus_path),
            "--out",
            str(out),
            "--config",
            str(cfg_path),
            "--alpha",
            "0.1",
        ]
        assert main(argv) == 0
        doc = json.loads((out / "inference.json").read_text("utf-8"))
        assert doc["alpha"] == 0.1
        assert all(row["valid_resamples"] <= 8 for row in doc["results"])

    def test_unknown_config_key_fails(self, corpus_path, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"bogus": 1}), encoding="utf-8")
        out = tmp_path / "x"
        argv = ["infer", "--input", str(corpus_path), "--out", str(out), "--config", str(cfg_path)]
        assert main(argv) == 1
        assert "unknown config keys" in capsys.readouterr().err

    def test_missing_config_file_fails(self, corpus_path, tmp_path, capsys):
        out = tmp_path / "x"
        argv = ["infer", "--input", str(corpus_path), "--out", str(out), "--config", "nope.json"]
        assert main(argv) == 1
        assert "config file not found: nope.json" in capsys.readouterr().err

    def test_config_must_be_json(self, corpus_path, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text("not json", encoding="utf-8")
        out = tmp_path / "x"
        argv = ["infer", "--input", str(corpus_path), "--out", str(out), "--config", str(cfg_path)]
        assert main(argv) == 1
        assert "config file is not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc", [{"resamples": "50"}, {"refit": 1}, {"alpha": True}, {"scope": None}]
    )
    def test_wrongly_typed_config_value_fails(self, corpus_path, tmp_path, capsys, doc):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "x"
        argv = ["infer", "--input", str(corpus_path), "--out", str(out), "--config", str(cfg_path)]
        assert main(argv) == 1
        (key,) = doc
        assert f"config key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flags, message",
        [
            ("infer", ["--resamples", "1"], "resamples must be >= 2"),
            ("report", ["--alpha", "1.5"], "alpha must lie in (0, 1)"),
            ("report", ["--min-arm", "0"], "min_arm must be >= 1, got 0"),
            ("estimate", ["--min-cell", "0"], "min_cell must be >= 1, got 0"),
        ],
        ids=["infer-resamples", "report-alpha", "report-min-arm", "estimate-min-cell"],
    )
    def test_bad_setting_fails_before_any_output(
        self, corpus_path, tmp_path, capsys, command, flags, message
    ):
        out = tmp_path / "x"
        out.mkdir()
        argv = [command, "--input", str(corpus_path), "--out", str(out), *flags]
        assert main(argv) == 1
        assert message in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("key", ["min_cell", "min_arm"])
    def test_cell_minimum_below_one_in_config_fails(self, corpus_path, tmp_path, capsys, key):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({key: 0}), encoding="utf-8")
        out = tmp_path / "x"
        argv = ["report", "--input", str(corpus_path), "--out", str(out), "--config", str(cfg_path)]
        assert main(argv) == 1
        assert f"{key} must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["report", "features"])
    @pytest.mark.parametrize("kind", ["file", "under-file", "dangling-link"])
    def test_out_on_a_file_fails_before_the_corpus(self, tmp_path, capsys, command, kind):
        # The corpus is not JSON, so reading it first would fail another way.
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_bytes(b"not json\n")
        taken = tmp_path / "taken"
        if kind == "dangling-link":
            taken.symlink_to(tmp_path / "nowhere")
        else:
            taken.write_bytes(b"keep\n")
        out = taken / "bundle" if kind == "under-file" else taken
        assert main([command, "--input", str(corpus), "--out", str(out)]) == 1
        assert f"--out {out}: {taken} is not a directory" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == [corpus, taken]
        if kind != "dangling-link":
            assert taken.read_bytes() == b"keep\n"

    @pytest.mark.parametrize(
        "command", ["estimate", "infer", "report", "receptivity", "features", "ceiling"]
    )
    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_fails(self, corpus_path, tmp_path, capsys, command, workers):
        out = tmp_path / "x"
        argv = [command, "--input", str(corpus_path), "--out", str(out), "--workers", workers]
        assert main(argv) == 1
        assert "workers must be >= 1" in capsys.readouterr().err


def bad_ruleset_regex(path):
    rules = json.loads(resources.files("editfx.data").joinpath("motif_rules.json").read_text())
    rules["labels"]["meta_instruction"] = [{"kind": "regex", "pattern": "("}]
    path.write_text(json.dumps(rules), encoding="utf-8")


class TestUserFiles:
    @pytest.mark.parametrize(
        "flag, content, message",
        [
            ("--wordlists", '{"step_words": ["First"]}', "entry 'First' must be lowercase"),
            ("--wordlists", '{"step_words": "first"}', "step_words must be a list of strings"),
            ("--ruleset", "not json", "ruleset file is not valid JSON"),
            ("--ruleset", bad_ruleset_regex, "is invalid: missing ), unterminated subpattern"),
            ("--config", "[1, 2]", "must hold a JSON object"),
            ("--estimates", "{", "estimates file is not valid JSON"),
            ("--estimates", "{}", "holds no 'estimates' list"),
            ("--inference", '{"results": 3}', "holds no 'results' list"),
            ("--estimates", '{"estimates": [{}]}', "estimates row 0 has no 'view'"),
            (
                "--estimates",
                '{"estimates": [{"view": "surface", "feature": "word_count", "task_group": "math",'
                ' "acmgd_sipw": "0.1"}]}',
                "estimates row 0: acmgd_sipw must be a number",
            ),
            (
                "--estimates",
                '{"estimates": [{"view": "annotation", "feature": "clarity", "task_group": "math",'
                ' "acmgd_sipw": 0.1}, {"view": "zzz", "feature": "a", "task_group": "math",'
                ' "acmgd_sipw": 0.1}]}',
                "estimates row 1: unknown view 'zzz'",
            ),
            (
                "--inference",
                '{"results": [{"view": "surface", "feature": "word_count", "task_group": "math",'
                ' "p_value": 0.1}]}',
                "results row 0 has no 'q_value'",
            ),
        ],
        ids=[
            "wordlists-uppercase",
            "wordlists-string",
            "ruleset-not-json",
            "ruleset-bad-regex",
            "config-not-object",
            "estimates-not-json",
            "estimates-empty",
            "inference-no-results",
            "estimates-row-without-keys",
            "estimates-row-not-number",
            "estimates-row-unknown-view",
            "inference-row-without-q",
        ],
    )
    def test_bad_file_fails_with_exit_1_and_no_output(
        self, corpus_path, tmp_path, capsys, flag, content, message
    ):
        bad = tmp_path / "bad.json"
        if callable(content):
            content(bad)
        else:
            bad.write_text(content, encoding="utf-8")
        out = tmp_path / "out"
        out.mkdir()
        if flag in ("--estimates", "--inference"):
            estimates = tmp_path / "estimates.json"
            estimates.write_text('{"estimates": []}', encoding="utf-8")
            argv = ["report", "--estimates", str(estimates), flag, str(bad), "--out", str(out)]
        else:
            argv = ["report", "--input", str(corpus_path), flag, str(bad), "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert message in err
        assert str(bad) in err
        assert list(out.iterdir()) == []


class TestStageCache:
    def test_cached_stages_reproduce_estimates(self, corpus_path, tmp_path):
        cache = tmp_path / "cache"
        assert main(["features", "--input", str(corpus_path), "--out", str(cache)]) == 0
        assert main(["motifs", "--input", str(corpus_path), "--out", str(cache)]) == 0

        fresh = tmp_path / "fresh"
        cached = tmp_path / "cached"
        assert main(["estimate", "--input", str(corpus_path), "--out", str(fresh)]) == 0
        argv = [
            "estimate",
            "--input",
            str(corpus_path),
            "--out",
            str(cached),
            "--cache-dir",
            str(cache),
        ]
        assert main(argv) == 0
        assert (fresh / "estimates.json").read_bytes() == (cached / "estimates.json").read_bytes()

    def test_partial_cache_recomputes(self, corpus_path, tmp_path):
        cache = tmp_path / "cache"
        assert main(["features", "--input", str(corpus_path), "--out", str(cache)]) == 0
        features = (cache / "features.jsonl").read_text("utf-8").splitlines()
        (cache / "features.jsonl").write_text(features[0] + "\n", encoding="utf-8")

        fresh = tmp_path / "fresh"
        partial = tmp_path / "partial"
        assert main(["estimate", "--input", str(corpus_path), "--out", str(fresh)]) == 0
        with pytest.warns(UserWarning, match="does not cover the corpus"):
            argv = [
                "estimate",
                "--input",
                str(corpus_path),
                "--out",
                str(partial),
                "--cache-dir",
                str(cache),
            ]
            assert main(argv) == 0
        assert (fresh / "estimates.json").read_bytes() == (partial / "estimates.json").read_bytes()

    def test_ignored_caches_are_noted_in_provenance(self, corpus_path, tmp_path):
        cache = tmp_path / "cache"
        assert main(["features", "--input", str(corpus_path), "--out", str(cache)]) == 0
        assert main(["motifs", "--input", str(corpus_path), "--out", str(cache)]) == 0
        features = (cache / "features.jsonl").read_text("utf-8").splitlines()
        (cache / "features.jsonl").write_text(features[0] + "\n", encoding="utf-8")
        (cache / "motifs.keys.json").unlink()
        argv = ["report", "--input", str(corpus_path), "--resamples", "8", "--out"]
        assert main([*argv, str(tmp_path / "fresh")]) == 0
        with pytest.warns(UserWarning, match="recomputing"):
            assert main([*argv, str(tmp_path / "stale"), "--cache-dir", str(cache)]) == 0
        fresh = {p.name: p.read_bytes() for p in sorted((tmp_path / "fresh").iterdir())}
        stale = {p.name: p.read_bytes() for p in sorted((tmp_path / "stale").iterdir())}
        provenance = json.loads(stale.pop("provenance.json"))
        assert provenance.pop("stale_caches") == [
            {"stage": "features", "reason": "does not cover the corpus"},
            {"stage": "motifs", "reason": "was built from other inputs or settings"},
        ]
        assert provenance == json.loads(fresh.pop("provenance.json"))
        assert stale == fresh

    def test_cache_from_other_ruleset_recomputes(self, corpus_path, tmp_path):
        rules = json.loads(resources.files("editfx.data").joinpath("motif_rules.json").read_text())
        rules["labels"]["meta_instruction"] = [{"kind": "phrase", "text": "zqxv never zqxv"}]
        ruleset = tmp_path / "rules.json"
        ruleset.write_text(json.dumps(rules), encoding="utf-8")
        cache = tmp_path / "cache"
        assert main(["features", "--input", str(corpus_path), "--out", str(cache)]) == 0
        assert main(["motifs", "--input", str(corpus_path), "--out", str(cache)]) == 0

        fresh = tmp_path / "fresh"
        cached = tmp_path / "cached"
        argv = ["estimate", "--input", str(corpus_path), "--ruleset", str(ruleset), "--out"]
        assert main([*argv, str(fresh)]) == 0
        with pytest.warns(UserWarning, match="motif cache .* built from other inputs"):
            assert main([*argv, str(cached), "--cache-dir", str(cache)]) == 0
        doc = json.loads((fresh / "estimates.json").read_text("utf-8"))
        assert not [row for row in doc["estimates"] if row["feature"] == "meta_instruction"]
        assert (fresh / "estimates.json").read_bytes() == (cached / "estimates.json").read_bytes()

    def test_feature_cache_serves_include_demos(self, tmp_path):
        corpus = str(demo_corpus(tmp_path / "corpus.jsonl"))
        cache = tmp_path / "cache"
        assert main(["features", "--input", corpus, "--out", str(cache)]) == 0
        argv = ["report", "--input", corpus, "--include-demos", "--resamples", "8", "--out"]
        assert main([*argv, str(tmp_path / "fresh")]) == 0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([*argv, str(tmp_path / "cached"), "--cache-dir", str(cache)]) == 0
        assert not [w for w in caught if "feature cache" in str(w.message)]
        fresh = {p.name: p.read_bytes() for p in sorted((tmp_path / "fresh").iterdir())}
        cached = {p.name: p.read_bytes() for p in sorted((tmp_path / "cached").iterdir())}
        assert cached == fresh

    def test_cache_without_keys_recomputes(self, corpus_path, tmp_path):
        cache = tmp_path / "cache"
        assert main(["motifs", "--input", str(corpus_path), "--out", str(cache)]) == 0
        (cache / "motifs.keys.json").unlink()
        with pytest.warns(UserWarning, match="built from other inputs"):
            argv = ["estimate", "--input", str(corpus_path), "--out", str(tmp_path / "x")]
            assert main([*argv, "--cache-dir", str(cache)]) == 0

    @pytest.mark.parametrize(
        "stage, spoil",
        [
            ("features", ""),
            ("features", "[1, 2]"),
            ("features", lambda doc: doc.pop("pair_id")),
            ("features", lambda doc: doc["before"].update(word_count="many")),
            ("features", lambda doc: doc["after"].pop(FEATURE_ORDER[0])),
            ("features", lambda doc: doc["after"].update(compression_ratio=float("nan"))),
            ("features", lambda doc: doc["before"].update(word_count=True)),
            ("motifs", lambda doc: doc.pop("record_labels")),
            ("motifs", lambda doc: doc.update(record_labels="x")),
            ("motifs.keys", None),
        ],
        ids=[
            "blank-line",
            "not-an-object",
            "no-pair-id",
            "feature-not-a-number",
            "feature-missing",
            "feature-not-finite",
            "feature-a-bool",
            "no-record-labels",
            "labels-not-a-list",
            "keys-unparsable",
        ],
    )
    def test_malformed_cache_is_ignored(self, stage_cache, tmp_path, stage, spoil):
        # spoil is a line to append, a change to the first line's document,
        # or None to make the sidecar unparsable.
        corpus_path, cache, fresh = stage_cache
        cache = Path(shutil.copytree(cache, tmp_path / "cache"))
        if spoil is None:
            (cache / f"{stage}.json").write_text("{", encoding="utf-8")
        else:
            path = cache / f"{stage}.jsonl"
            lines = path.read_text("utf-8").splitlines()
            if callable(spoil):
                doc = json.loads(lines[0])
                spoil(doc)
                lines[0] = json.dumps(doc)
            else:
                lines.append(spoil)
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        argv = ["report", "--input", str(corpus_path), "--resamples", "8", "--cache-dir"]
        with pytest.warns(UserWarning, match="is malformed; recomputing"):
            assert main([*argv, str(cache), "--out", str(tmp_path / "stale")]) == 0
        stale = {p.name: p.read_bytes() for p in sorted((tmp_path / "stale").iterdir())}
        provenance = json.loads(stale.pop("provenance.json"))
        assert provenance.pop("stale_caches") == [
            {"stage": stage.split(".")[0], "reason": "is malformed"}
        ]
        fresh = dict(fresh)
        assert provenance == json.loads(fresh.pop("provenance.json"))
        assert stale == fresh


@pytest.fixture(scope="module")
def stage_cache(corpus_path, tmp_path_factory):
    """(corpus, a stage cache of both stages, a fresh report's files by name)."""
    root = tmp_path_factory.mktemp("stage_cache")
    cache, fresh = root / "cache", root / "fresh"
    assert main(["features", "--input", str(corpus_path), "--out", str(cache)]) == 0
    assert main(["motifs", "--input", str(corpus_path), "--out", str(cache)]) == 0
    argv = ["report", "--input", str(corpus_path), "--resamples", "8", "--out", str(fresh)]
    assert main(argv) == 0
    return corpus_path, cache, {p.name: p.read_bytes() for p in sorted(fresh.iterdir())}


def demo_corpus(path):
    """The n=120 corpus with a motif span inserted into every other after-prompt's demos."""
    records, _ = generate(SynthConfig(n=120, seed=11))
    span = {"answer": "make sure to verify the final answer carefully"}
    records = [
        dataclasses.replace(r, after=dataclasses.replace(r.after, demos=(*r.after.demos, span)))
        if k % 2 == 0
        else r
        for k, r in enumerate(records)
    ]
    serialize(records, path)
    return path


class TestPipelineViews:
    def test_config_include_demos_matches_flag(self, tmp_path):
        corpus = str(demo_corpus(tmp_path / "corpus.jsonl"))
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"include_demos": True}), encoding="utf-8")
        runs = {
            "plain": [],
            "flag": ["--include-demos"],
            "config": ["--config", str(cfg_path)],
        }
        docs = {}
        for name, extra in runs.items():
            argv = ["estimate", "--input", corpus, "--out", str(tmp_path / name), *extra]
            assert main(argv) == 0
            docs[name] = (tmp_path / name / "estimates.json").read_bytes()
        assert docs["config"] == docs["flag"]
        assert docs["flag"] != docs["plain"]

    def test_stage_outputs_match_report(self, tmp_path):
        records, _ = generate(SynthConfig(n=120, seed=11, annotate=True))
        corpus = tmp_path / "corpus.jsonl"
        serialize(records, corpus)
        flags = ["--input", str(corpus), "--seed", "3", "--resamples", "20"]
        assert main(["report", *flags, "--out", str(tmp_path / "report")]) == 0
        stages = {
            "estimate": ["estimates.json", "estimates.csv"],
            "infer": ["inference.json", "inference.csv"],
            "receptivity": ["receptivity.json"],
            "ceiling": ["ceiling.json"],
        }
        for command, names in stages.items():
            assert main([command, *flags, "--out", str(tmp_path / command)]) == 0
            for name in names:
                expected = (tmp_path / "report" / name).read_bytes()
                assert (tmp_path / command / name).read_bytes() == expected, name
        receptivity = json.loads((tmp_path / "receptivity" / "receptivity.json").read_text())
        assert receptivity.get("scores")


class TestExitCodes:
    def test_ceiling_of_one_task_group(self, tmp_path, capsys):
        # Alone, the ceiling view fails on a corpus of one task group; the
        # report keeps the same reason as ceiling.json's note.
        records, _ = generate(SynthConfig(n=120, seed=11))
        corpus = tmp_path / "corpus.jsonl"
        serialize([r for r in records if r.task_group == "math"], corpus)
        flags = ["--input", str(corpus), "--resamples", "8", "--out"]
        message = "partial R^2 needs at least 2 task groups"
        assert main(["ceiling", *flags, str(tmp_path / "ceiling")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "ceiling").exists()
        assert main(["report", *flags, str(tmp_path / "report")]) == 0
        doc = json.loads((tmp_path / "report" / "ceiling.json").read_text("utf-8"))
        assert doc == {"note": message}

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.startswith("editfx ")

    def test_directory_as_input_is_user_error(self, tmp_path, capsys):
        assert main(["validate", "--input", str(tmp_path)]) == 1
        assert "input file not found" in capsys.readouterr().err

    def test_internal_error_exits_2(self, corpus_path, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr("editfx.store.ingest", boom)
        assert main(["validate", "--input", str(corpus_path)]) == 2
        assert capsys.readouterr().err.startswith("internal error: RuntimeError: boom")

    @staticmethod
    def report_runs(corpus_path, tmp_path) -> list[list[str]]:
        # A report under its defaults and each non-default inference path.
        argv = ["report", "--input", str(corpus_path), "--resamples", "8", "--out"]
        return [
            [*argv, str(tmp_path / name), *flags]
            for name, flags in [
                ("default", []),
                ("pooled", ["--scope", "pooled"]),
                ("no_refit", ["--no-refit"]),
                ("percentile", ["--percentile-p"]),
            ]
        ]

    @staticmethod
    def run_then_list_modules(runs: list[list[str]], package: str):
        # Run the reports in a fresh interpreter, then exit with the names
        # of the loaded modules in `package`, if any.
        loaded = f"(m for m in sys.modules if (m + '.').startswith({package + '.'!r}))"
        program = (
            f"import sys, editfx.cli\nfor argv in {runs!r}:\n"
            f"    assert editfx.cli.main(argv) == 0\nsys.exit(' '.join({loaded}) or None)"
        )
        src = str(Path(editfx.__file__).parents[1])
        return subprocess.run(
            [sys.executable, "-c", program],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )

    def test_cli_import_leaves_out_scipy_stats(self, corpus_path, tmp_path):
        # Only synth needs scipy: neither the import nor a report, under its
        # defaults or any of its non-default inference paths, loads it.
        for runs in ([], self.report_runs(corpus_path, tmp_path)):
            result = self.run_then_list_modules(runs, "scipy")
            assert result.returncode == 0, (runs, result.stderr)
        assert all((tmp_path / name / "estimates.json").is_file() for name in ("default", "pooled"))

    def test_report_leaves_out_numpy_ma(self, corpus_path, tmp_path):
        # np.unique without a return_* argument imports numpy.ma (numpy 2.4);
        # no report path calls it that way.
        result = self.run_then_list_modules(self.report_runs(corpus_path, tmp_path), "numpy.ma")
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "percentile" / "estimates.json").is_file()

    def test_commands_without_analysis_start_without_numpy(self, corpus_path, tmp_path):
        # Stage modules are imported by the command that runs them: the
        # import, --version, --help and an argument error load no editfx
        # module but the parser's, nor dataclasses, hashlib or logging
        # unless the bare interpreter has them; validate loads store but
        # no text stage and no numpy; report loads numpy and succeeds.
        watched = ("dataclasses", "hashlib", "logging")
        program = (
            "import contextlib, io, json, sys\n"
            "from editfx.cli import main\n"
            "argv = json.loads(sys.argv[1])\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "    try:\n"
            "        code = 0 if argv is None else main(argv)\n"
            "    except SystemExit as exc:\n"
            "        code = exc.code\n"
            f"watched = {watched!r}\n"
            "loaded = [m for m in sys.modules\n"
            "          if m.split('.')[0] in ('numpy', 'editfx') or m in watched]\n"
            "print(json.dumps([code, loaded]))\n"
        )
        runs = {
            "import": (None, 0),
            "version": (["--version"], 0),
            "help": (["--help"], 0),
            "argument-error": (["report", "--scope", "bogus"], 2),
            "validate": (["validate", "--input", str(corpus_path)], 0),
            "report": (
                ["report", "--input", str(corpus_path), "--resamples", "8", "--out", str(tmp_path)],
                0,
            ),
        }
        src = str(Path(editfx.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        bare = subprocess.run(
            [sys.executable, "-c", "import sys; print(' '.join(sys.modules))"],
            capture_output=True,
            text=True,
            timeout=60,
            env=env,
        ).stdout.split()
        loaded = {}
        for name, (argv, expected) in runs.items():
            result = subprocess.run(
                [sys.executable, "-c", program, json.dumps(argv)],
                capture_output=True,
                text=True,
                timeout=120,
                env=env,
            )
            assert result.returncode == 0, (name, result.stderr)
            code, found = json.loads(result.stdout)
            loaded[name] = set(found)
            assert code == expected, name
        assert "numpy" in loaded.pop("report")
        validate = loaded.pop("validate")
        assert "editfx.store" in validate
        assert not validate & {"editfx.motifs", "editfx.surface", "numpy"}
        parser_only = {"editfx", "editfx.cli", "editfx.errors"} | (set(watched) & set(bare))
        assert loaded == {name: parser_only for name in loaded}

    def test_motif_labels_without_the_motif_stage(self, corpus_path, tmp_path, capsys):
        # One definition, in the package: the motif stage and the parser share it.
        assert motifs.MOTIF_LABELS is editfx.MOTIF_LABELS
        with pytest.raises(SystemExit) as excinfo:
            main(["motifs", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert all(label in out for label in editfx.MOTIF_LABELS)
        argv = ["motifs", "--input", str(corpus_path), "--out", str(tmp_path)]
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--audit-label", "bogus"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    def test_numpy_loaded_first_gets_a_note(self, corpus_path):
        # The BLAS pins take effect only if the CLI loads numpy; a caller
        # that loaded it first is told once, and the plain command is not.
        src = str(Path(editfx.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        argv = ["validate", "--input", str(corpus_path)]
        code = f"import sys, numpy, editfx.cli; sys.exit(editfx.cli.main({argv!r}))"
        runs = {
            "numpy_first": [sys.executable, "-c", code],
            "plain": [sys.executable, "-m", "editfx.cli", *argv],
        }
        stderr = {}
        for name, command in runs.items():
            result = subprocess.run(command, capture_output=True, text=True, timeout=60, env=env)
            assert result.returncode == 0, result.stderr
            stderr[name] = result.stderr
        assert stderr["plain"] == ""
        lines = stderr["numpy_first"].splitlines()
        assert len(lines) == 1 and lines[0].startswith("note: numpy was loaded before")

    def test_bundle_does_not_depend_on_blas_threads(self, tmp_path):
        # One task group, so each cell has all 5,000 rows: large enough
        # products for a threaded BLAS to split them, and for OpenBLAS
        # kernels built for different CPUs to round them differently.
        datasets = tuple(f"ds_{i:02d}" for i in range(25))
        records, _ = generate(SynthConfig(n=5000, datasets=datasets, groups=("math",), seed=7))
        corpus = tmp_path / "corpus.jsonl"
        serialize(records, corpus)
        src = str(Path(editfx.__file__).parents[1])
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        bundles = {}
        for name, extra in {
            "threads1": {"OPENBLAS_NUM_THREADS": "1"},
            "threads2": {"OPENBLAS_NUM_THREADS": "2"},
            "haswell": {"OPENBLAS_CORETYPE": "Haswell"},
        }.items():
            out = tmp_path / name
            args = ["report", "--input", str(corpus), "--seed", "7", "--resamples", "2"]
            result = subprocess.run(
                [sys.executable, "-m", "editfx.cli", *args, "--out", str(out)],
                capture_output=True,
                timeout=300,
                env={**env, "PYTHONPATH": src, **extra},
            )
            assert result.returncode == 0, result.stderr
            bundles[name] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert bundles["threads1"] == bundles["threads2"] == bundles["haswell"]

    def test_console_script_smoke(self, corpus_path, tmp_path):
        exe = shutil.which("editfx")
        if exe is None:
            pytest.skip("console script not installed")
        result = subprocess.run(
            [exe, "validate", "--input", str(corpus_path)],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["record_count"] == 120
