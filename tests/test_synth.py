"""Synthetic corpus generator and its analytic ground truth."""

import numpy as np
import pytest
from scipy.special import expit

from editfx.cli import _from_file
from editfx.errors import ConfigError
from editfx.store import ANNOTATION_FEATURES, ingest, serialize
from editfx.surface import tokenize
from editfx.synth import (
    TREATED_SPAN,
    VOCAB,
    SynthConfig,
    expected_naive_bias,
    generate,
    implied_treatment_rate,
    theoretical_moments,
)


@pytest.fixture(scope="module")
def null_corpus():
    cfg = SynthConfig(n=20000, tau=0.0, sigma_block=0.0, seed=7)
    records, truth = generate(cfg)
    return cfg, records, truth


class TestSynthConfig:
    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            SynthConfig(n=5)
        with pytest.raises(ConfigError):
            SynthConfig(datasets=("only",), backbones=("bb",))
        with pytest.raises(ConfigError):
            SynthConfig(datasets=("dup", "dup"))
        with pytest.raises(ConfigError):
            SynthConfig(sigma_noise=0.0)
        with pytest.raises(ConfigError):
            SynthConfig(sigma_block=-0.1)
        with pytest.raises(ConfigError):
            SynthConfig(groups=("math", "trivia"))
        with pytest.raises(ConfigError):
            SynthConfig(accuracy_low=0.6, accuracy_high=0.5)
        with pytest.raises(ConfigError):
            SynthConfig(base_word_count=3)

    def test_json_round_trip(self, tmp_path):
        cfg = SynthConfig(n=500, tau=0.02, seed=9)
        doc = cfg.to_json()
        assert doc["gamma"] == [0.0, 1.0]
        assert SynthConfig.from_json(doc) == cfg
        path = tmp_path / "cfg.json"
        path.write_text(__import__("json").dumps(doc), encoding="utf-8")
        assert _from_file(str(path), "config file", SynthConfig.from_json) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            SynthConfig.from_json({"n": 100, "effect": 0.1})

    def test_group_assignment_cycles(self):
        cfg = SynthConfig()
        assert cfg.group_of(0) == "math"
        assert cfg.group_of(1) == "logical"
        assert cfg.group_of(2) == "math"

    def test_dataset_means_stagger(self):
        cfg = SynthConfig(base_word_count=30, dataset_stagger=2)
        np.testing.assert_allclose(cfg.dataset_means, [30.0, 32.0, 34.0, 36.0])


class TestAnalyticGroundTruth:
    def test_moments_match_simulation(self):
        cfg = SynthConfig()
        mean, sd = theoretical_moments(cfg)
        rng = np.random.default_rng(0)
        d = rng.integers(0, len(cfg.datasets), size=200_000)
        raw = rng.normal(cfg.dataset_means[d], 1.0)
        wc = np.maximum(1, np.rint(raw))
        assert mean == pytest.approx(float(wc.mean()), abs=0.03)
        assert sd == pytest.approx(float(wc.std()), abs=0.03)

    def test_treatment_rate_matches_corpus(self, null_corpus):
        cfg, records, truth = null_corpus
        rate = implied_treatment_rate(cfg)
        treated = np.mean([r.after.instruction_text.endswith(TREATED_SPAN) for r in records])
        assert truth.implied_treatment_rate == rate
        assert rate == pytest.approx(float(treated), abs=0.01)

    def test_naive_bias_matches_corpus(self, null_corpus):
        cfg, records, truth = null_corpus
        treated_gains = [
            r.gain for r in records if r.after.instruction_text.endswith(TREATED_SPAN)
        ]
        control_gains = [
            r.gain for r in records if not r.after.instruction_text.endswith(TREATED_SPAN)
        ]
        naive = float(np.mean(treated_gains) - np.mean(control_gains))
        assert truth.tau == 0.0
        assert truth.expected_naive_bias == expected_naive_bias(cfg)
        assert naive == pytest.approx(truth.expected_naive_bias, abs=0.01)

    def test_standardized_confounder_moments(self, null_corpus):
        cfg, records, _ = null_corpus
        mean, sd = theoretical_moments(cfg)
        wc = np.array([len(tokenize(r.before.instruction_text)) for r in records])
        z = (wc - mean) / sd
        assert float(z.mean()) == pytest.approx(0.0, abs=0.02)
        assert float(z.std()) == pytest.approx(1.0, abs=0.02)

    def test_bias_sign_tracks_gamma(self):
        positive = expected_naive_bias(SynthConfig(gamma=(0.0, 1.0)))
        negative = expected_naive_bias(SynthConfig(gamma=(0.0, -1.0)))
        null = expected_naive_bias(SynthConfig(gamma=(0.0, 0.0)))
        assert positive > 0.0
        assert negative < 0.0
        assert null == pytest.approx(0.0, abs=1e-12)


class TestGenerate:
    def test_same_seed_is_byte_identical(self, tmp_path):
        cfg = SynthConfig(n=400, seed=3)
        first, truth_a = generate(cfg)
        second, truth_b = generate(cfg)
        path_a = tmp_path / "a.jsonl"
        path_b = tmp_path / "b.jsonl"
        serialize(first, path_a)
        serialize(second, path_b)
        assert path_a.read_bytes() == path_b.read_bytes()
        assert truth_a == truth_b

    def test_seed_changes_corpus(self, tmp_path):
        a, _ = generate(SynthConfig(n=100, seed=1))
        b, _ = generate(SynthConfig(n=100, seed=2))
        assert any(
            x.before.instruction_text != y.before.instruction_text for x, y in zip(a, b)
        )

    def test_round_trips_through_store(self, tmp_path, default_corpus):
        records, _ = default_corpus
        path = tmp_path / "corpus.jsonl"
        serialize(records, path)
        loaded, stats = ingest(path)
        assert stats["skipped_count"] == 0
        assert len(loaded) == len(records)
        again = tmp_path / "again.jsonl"
        serialize(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    def test_treated_records_get_the_span(self, default_corpus):
        records, _ = default_corpus
        treated = [r for r in records if r.after.instruction_text.endswith(TREATED_SPAN)]
        control = [r for r in records if not r.after.instruction_text.endswith(TREATED_SPAN)]
        assert treated and control
        for r in treated[:50]:
            before = tokenize(r.before.instruction_text)
            after = tokenize(r.after.instruction_text)
            assert len(after) - len(before) == 8
        for r in control[:50]:
            assert r.after.instruction_text == r.before.instruction_text

    def test_record_fields(self, default_corpus):
        records, _ = default_corpus
        cfg = SynthConfig()
        assert len({r.pair_id for r in records}) == len(records)
        assert records[0].pair_id == "synth-000000"
        for r in records[:100]:
            assert 1 <= r.step_index <= 20
            assert r.framework == "synthopt"
            assert r.dataset in cfg.datasets
            assert r.backbone in cfg.backbones
            d_idx = cfg.datasets.index(r.dataset)
            assert r.task_group == cfg.group_of(d_idx)
            assert r.accuracy_after - r.accuracy_before == pytest.approx(r.gain, abs=1e-12)
            assert 0.0 <= r.accuracy_after <= 1.0
            for token in tokenize(r.before.instruction_text):
                assert token in VOCAB

    def test_clamp_budget_enforced(self):
        cfg = SynthConfig(n=2000, sigma_noise=0.5, seed=0)
        with pytest.raises(ConfigError, match="clamp rate"):
            generate(cfg)

    def test_annotated_corpus_is_complete(self):
        records, _ = generate(SynthConfig(n=60, annotate=True, seed=4))
        for r in records:
            assert set(r.annotations_before) == set(ANNOTATION_FEATURES)
            assert set(r.annotations_after) == set(ANNOTATION_FEATURES)
            for value in r.annotations_before.values():
                assert 1.0 <= value <= 10.0
        treated = [r for r in records if r.after.instruction_text.endswith(TREATED_SPAN)]
        assert treated
        sample = treated[0]
        assert (
            sample.annotations_after["Metacognition"]
            >= sample.annotations_before["Metacognition"]
        )

    def test_truth_to_json(self, default_corpus):
        _, truth = default_corpus
        doc = truth.to_json()
        assert doc["tau"] == 0.05
        assert doc["config"]["n"] == 1200
        assert doc["clamp_rate"] < 0.001
        assert 0.0 < doc["implied_treatment_rate"] < 1.0
