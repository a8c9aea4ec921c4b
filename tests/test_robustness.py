"""Stability, ceiling, validity, spread, and receptivity diagnostics."""

import dataclasses
import math
from itertools import permutations

import numpy as np
import pytest
from scipy.special import stdtr
from scipy.stats import rankdata, spearmanr

from editfx import surface
from editfx.design import PreparedCorpus, TreatmentSpec, enumerate_families
from editfx.errors import ConfigError, DegenerateCellError
from editfx.robustness import (
    FINGERPRINT_THRESHOLD,
    SignReversalSpec,
    _average_ranks,
    _t_two_sided,
    ceiling,
    construct_validity,
    default_validity_pairs,
    loo_stability,
    partial_r2,
    per_dataset_cate,
    receptivity,
    sign_of,
    spearman,
    spread,
)
from editfx.store import ANNOTATION_FEATURES
from editfx.surface import FEATURE_ORDER

from conftest import GROW, effect_corpus, make_record

WORD_SPEC = TreatmentSpec(view="surface", feature_name="word_count")


def surface_families(records):
    """The surface family a run over these records tests, at default cell minimums."""
    return enumerate_families(PreparedCorpus(records), views=("surface",))


def exact_spearman_p(x, y):
    """Brute-force two-sided permutation p-value over rank correlations."""
    rx = rankdata(x)
    ry = rankdata(y)

    def corr(a, b):
        a = a - a.mean()
        b = b - b.mean()
        return float(a @ b) / math.sqrt(float(a @ a) * float(b @ b))

    rho = corr(rx, ry)
    hits = 0
    total = 0
    for perm in permutations(range(len(rx))):
        total += 1
        if abs(corr(rx, ry[list(perm)])) >= abs(rho) - 1e-12:
            hits += 1
    return hits / total


class TestSpearman:
    def test_rho_matches_scipy_with_ties(self):
        rng = np.random.default_rng(0)
        x = np.round(rng.normal(size=50), 1)
        y = np.round(x + rng.normal(size=50), 1)
        rho, p = spearman(x, y)
        ref_rho, ref_p = spearmanr(x, y)
        assert rho == pytest.approx(float(ref_rho), abs=1e-12)
        assert p == pytest.approx(float(ref_p), rel=1e-9)

    def test_self_and_negation(self):
        rng = np.random.default_rng(1)
        x = rng.permutation(15).astype(float)
        rho, _ = spearman(x, x)
        assert rho == pytest.approx(1.0)
        rho, _ = spearman(x, -x)
        assert rho == pytest.approx(-1.0)

    def test_exact_p_small_n(self):
        rho, p = spearman([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert rho == pytest.approx(1.0)
        assert p == pytest.approx(2.0 / 6.0)
        _, p = spearman([1, 2, 3, 4, 5], [2, 4, 6, 8, 10])
        assert p == pytest.approx(2.0 / 120.0)

    def test_exact_branch_matches_brute_force(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=6)
        y = rng.normal(size=6)
        _, p = spearman(x, y)
        assert p == pytest.approx(exact_spearman_p(x, y), abs=1e-12)

    def test_mc_branch_is_seeded_and_close_to_exact(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=8)
        y = x + rng.normal(size=8)
        _, p_first = spearman(x, y, seed=5)
        _, p_second = spearman(x, y, seed=5)
        assert p_first == p_second
        assert p_first == pytest.approx(exact_spearman_p(x, y), abs=0.02)
        _, p_other = spearman(x, y, seed=6)
        assert abs(p_other - p_first) < 0.02

    def test_average_ranks_equal_scipy_rankdata(self):
        rng = np.random.default_rng(11)
        for trial in range(400):
            n = int(rng.integers(1, 60))
            if trial % 2:
                values = rng.integers(0, int(rng.integers(1, 6)), size=n) * 0.1
            else:
                values = rng.normal(size=n)
            assert np.array_equal(_average_ranks(values), rankdata(values))

    def test_t_tail_matches_scipy_stdtr(self):
        ts = np.concatenate([np.linspace(0.0, 3.0, 13), np.geomspace(3.0, 60.0, 20)[1:]])
        worst = 0.0
        for df in range(1, 401):
            want = 2.0 * stdtr(df, -ts)
            got = np.array([_t_two_sided(float(t), df) for t in ts])
            worst = max(worst, float(np.max(np.abs(got - want) / want)))
        assert worst < 1e-12
        assert _t_two_sided(0.0, 1) == 1.0
        assert _t_two_sided(0.0, 17) == 1.0
        assert _t_two_sided(0.0, 400) == 1.0
        # df = 1 is the Cauchy closed form, 1 - 2 atan(t) / pi.
        for t in (0.3, 1.0, 7.5):
            assert _t_two_sided(-t, 1) == pytest.approx(1.0 - 2.0 * math.atan(t) / math.pi, rel=1e-12)
        # Far out in the tail 1 - A would cancel to 0.
        p = _t_two_sided(40.0, 40)
        assert p < 1e-30
        assert p == pytest.approx(2.0 * float(stdtr(40, -40.0)), rel=1e-12)
        # Past the smallest normal double the terms stop shrinking; the sum ends.
        assert _t_two_sided(46.0, 4998) == 0.0
        assert _t_two_sided(39.0, 4998) == pytest.approx(2.0 * float(stdtr(4998, -39.0)), rel=1e-12)

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateCellError):
            spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(ConfigError):
            spearman([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(ConfigError):
            spearman([1.0, 2.0, 3.0], [1.0, 2.0])


class TestPartialR2:
    def test_hand_computable_case(self):
        h = [0.0, 1.0, 0.0, 1.0]
        groups = ["a", "a", "b", "b"]
        y = [0.0, 1.0, 1.0, 2.0]
        assert partial_r2(h, y, groups) == pytest.approx(1.0)

    def test_group_inert_outcome(self):
        rng = np.random.default_rng(4)
        n = 3000
        h = rng.uniform(0.2, 0.8, size=n)
        groups = rng.choice(["math", "logical", "sequential"], size=n).tolist()
        y = 0.1 * h + rng.normal(0, 0.05, size=n)
        assert partial_r2(h, y, groups) < 0.01

    def test_strong_group_effect(self):
        rng = np.random.default_rng(5)
        n = 500
        h = rng.uniform(size=n)
        groups = ["math" if k % 2 else "logical" for k in range(n)]
        y = np.where(np.array(groups) == "math", 0.5, -0.5) + rng.normal(0, 0.05, size=n)
        assert partial_r2(h, y, groups) > 0.5

    def test_bounded_on_random_data(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(10, 60))
            h = rng.normal(size=n)
            y = rng.normal(size=n)
            k = int(rng.integers(2, 5))
            groups = rng.choice([f"g{j}" for j in range(k)], size=n).tolist()
            if len(set(groups)) < 2:
                continue
            value = partial_r2(h, y, groups)
            assert 0.0 <= value <= 1.0

    def test_perfect_reduced_fit_returns_zero(self):
        h = np.array([0.1, 0.2, 0.3, 0.4])
        y = 2.0 * h
        assert partial_r2(h, y, ["a", "b", "a", "b"]) == 0.0

    def test_needs_two_groups(self):
        with pytest.raises(ConfigError):
            partial_r2([0.1, 0.2, 0.3], [0.0, 0.1, 0.2], ["a", "a", "a"])


class TestCeiling:
    def make_monotone(self, direction):
        records = []
        for k in range(6):
            acc = 0.9 - 0.1 * k
            gain = direction * 0.01 * (k + 1)
            group = "math" if k % 2 else "logical"
            dataset = "synth_arith" if k % 2 else "synth_logic"
            records.append(
                make_record(
                    f"r{k}",
                    accuracy_before=acc,
                    gain=gain,
                    task_group=group,
                    dataset=dataset,
                )
            )
        return records

    def test_monotone_rho(self):
        report = ceiling(self.make_monotone(+1))
        assert report["spearman_rho"] == pytest.approx(1.0)
        assert report["spearman_p"] == pytest.approx(2.0 / 720.0)
        report = ceiling(self.make_monotone(-1))
        assert report["spearman_rho"] == pytest.approx(-1.0)

    def test_to_json_fields(self):
        doc = ceiling(self.make_monotone(+1))
        assert set(doc) == {"spearman_rho", "spearman_p", "partial_r2"}
        assert 0.0 <= doc["partial_r2"] <= 1.0

    def test_too_few_records(self):
        with pytest.raises(ConfigError):
            ceiling(self.make_monotone(+1)[:2])

    def test_constant_headroom_rejected(self):
        records = [
            make_record(f"r{k}", accuracy_before=0.5, gain=0.01 * k) for k in range(4)
        ]
        with pytest.raises(DegenerateCellError):
            ceiling(records)


class TestLooStability:
    def contaminated_corpus(self):
        layout = []
        for d in ("m1", "m2", "m3"):
            layout.append((d, "math", True, -0.02, 6))
            layout.append((d, "math", False, 0.0, 6))
        layout.append(("m4", "math", True, 0.30, 18))
        layout.append(("m4", "math", False, 0.0, 18))
        for d in ("l1", "l2"):
            layout.append((d, "logical", True, -0.05, 8))
            layout.append((d, "logical", False, 0.0, 8))
        return effect_corpus(layout)

    def reversal(self):
        return SignReversalSpec(
            spec=WORD_SPEC,
            group_a="math",
            group_b="logical",
            baseline_sign_a="+",
            baseline_sign_b="-",
        )

    def test_contaminated_dataset_is_the_only_unstable_split(self):
        report = loo_stability(surface_families(self.contaminated_corpus()), self.reversal())
        assert report.baseline_a > 0.0
        assert report.baseline_b < 0.0
        assert report.total == 6
        assert report.stable_count == 5
        by_dataset = {s["excluded_dataset"]: s for s in report.splits}
        assert not by_dataset["m4"]["stable"]
        assert by_dataset["m4"]["estimate_a"] < 0.0
        for dataset in ("m1", "m2", "m3", "l1", "l2"):
            assert by_dataset[dataset]["stable"]

    def test_single_dataset_corpus_warns_with_zero_splits(self):
        layout = [
            ("solo", "math", True, 0.05, 6),
            ("solo", "math", False, 0.0, 6),
            ("solo", "logical", True, -0.05, 6),
            ("solo", "logical", False, 0.0, 6),
        ]
        records = effect_corpus(layout)
        with pytest.warns(UserWarning, match="no evaluable leave-one-out splits"):
            report = loo_stability(surface_families(records), self.reversal())
        assert report.total == 0
        assert report.stable_count == 0
        assert report.skipped == [("solo", "exclusion empties a reversal group")]

    def test_split_skipped_when_arm_empties(self):
        layout = [
            ("m1", "math", True, 0.05, 6),
            ("m2", "math", True, 0.05, 3),
            ("m2", "math", False, 0.0, 6),
            ("l1", "logical", True, -0.05, 6),
            ("l1", "logical", False, 0.0, 6),
            ("l2", "logical", True, -0.05, 6),
            ("l2", "logical", False, 0.0, 6),
        ]
        records = effect_corpus(layout)
        report = loo_stability(surface_families(records), self.reversal())
        assert ("m2", "exclusion empties a treatment arm") in report.skipped
        assert all(s["excluded_dataset"] != "m2" for s in report.splits)

    def test_unknown_group_rejected(self):
        records = self.contaminated_corpus()
        reversal = SignReversalSpec(
            spec=WORD_SPEC,
            group_a="math",
            group_b="multihop",
            baseline_sign_a="+",
            baseline_sign_b="-",
        )
        with pytest.raises(ConfigError):
            loo_stability(surface_families(records), reversal)

    def test_untested_cell_gives_its_reason(self):
        reversal = dataclasses.replace(self.reversal(), group_b="multihop")
        families = surface_families(self.contaminated_corpus())
        with pytest.raises(ConfigError, match="multihop is not tested: no records"):
            loo_stability(families, reversal)
        # math has 72 units and logical 32.
        families = enumerate_families(
            PreparedCorpus(self.contaminated_corpus()), min_cell=40, views=("surface",)
        )
        with pytest.raises(ConfigError, match="logical is not tested: n=32 below minimum 40"):
            loo_stability(families, self.reversal())
        with pytest.raises(ConfigError, match="family 'surface' has no testable cells"):
            loo_stability([], self.reversal())

    def test_reversal_spec_requires_opposite_signs(self):
        with pytest.raises(ConfigError):
            SignReversalSpec(
                spec=WORD_SPEC,
                group_a="math",
                group_b="logical",
                baseline_sign_a="+",
                baseline_sign_b="+",
            )

    def test_sign_of(self):
        assert sign_of(0.2) == "+"
        assert sign_of(-0.2) == "-"
        assert sign_of(0.0) == "0"


class TestPerDatasetCate:
    def test_hand_means(self):
        layout = [
            ("d1", "math", True, 0.2, 1),
            ("d1", "math", True, 0.0, 1),
            ("d1", "math", False, 0.1, 1),
            ("d1", "math", False, -0.1, 1),
            ("d2", "math", True, 0.1, 1),
            ("d2", "math", False, 0.1, 1),
        ]
        rows = per_dataset_cate(PreparedCorpus(effect_corpus(layout)), WORD_SPEC)
        assert [row["dataset"] for row in rows] == ["d1", "d2"]
        out = {row["dataset"]: row for row in rows}
        assert out["d1"]["cate"] == pytest.approx(0.1, abs=1e-12)
        assert out["d1"]["n_treated"] == 2
        assert out["d1"]["n_control"] == 2
        assert out["d2"]["cate"] == pytest.approx(0.0, abs=1e-12)

    def test_empty_arm_is_undefined(self):
        layout = [("d1", "math", True, 0.2, 3)]
        (row,) = per_dataset_cate(PreparedCorpus(effect_corpus(layout)), WORD_SPEC)
        assert row["dataset"] == "d1"
        assert row["cate"] is None
        assert row["n_control"] == 0


class TestConstructValidity:
    METACOG = ["verify", "check", "reflect", "monitor", "evaluate", "reconsider", "verify"]
    FILLER = ["table", "value", "record", "input", "output", "format", "detail", "context"]

    def graded_text(self, k):
        return " ".join(self.METACOG[:k] + self.FILLER[: 8 - k])

    def graded_records(self, flip=False):
        records = []
        for i in range(5):
            k_before, k_after = i, i + 3
            score = lambda k: float(10 - k if flip else k + 1)
            records.append(
                make_record(
                    f"r{i}",
                    before_text=self.graded_text(k_before),
                    after_text=self.graded_text(k_after),
                    annotations_before={"Metacognition": score(k_before)},
                    annotations_after={"Metacognition": score(k_after)},
                )
            )
        return records

    def test_monotone_pair_validates(self):
        results = construct_validity(
            PreparedCorpus(self.graded_records()),
            pairs=[("Metacognition", "metacog_word_density")],
        )
        assert len(results) == 1
        assert results[0]["rho"] == pytest.approx(1.0)
        assert results[0]["validated"]

    def test_anti_monotone_pair_validates_via_absolute_rho(self):
        results = construct_validity(
            PreparedCorpus(self.graded_records(flip=True)),
            pairs=[("Metacognition", "metacog_word_density")],
        )
        assert results[0]["rho"] == pytest.approx(-1.0)
        assert results[0]["validated"]

    def test_states_deduplicated_by_text(self):
        records = self.graded_records()
        clone = make_record(
            "dup",
            before_text=self.graded_text(0),
            after_text=self.graded_text(3),
            annotations_before={"Metacognition": 9.0},
            annotations_after={"Metacognition": 2.0},
        )
        results = construct_validity(
            PreparedCorpus(records + [clone]), pairs=[("Metacognition", "metacog_word_density")]
        )
        # the clone's states collide with r0's; first-seen annotations win
        assert results[0]["n"] == 8
        assert results[0]["rho"] == pytest.approx(1.0)

    def test_states_differing_only_across_a_nul_both_count(self):
        # Joined with a NUL, "a\x00b" + "c" and "a" + "b\x00c" read the same.
        records = self.graded_records()
        extra = [
            make_record(
                f"nul{i}",
                before_text=text,
                demos_before=[{"q": demo}],
                annotations_before={"Metacognition": 1.0},
            )
            for i, (text, demo) in enumerate([("a\x00b", "c"), ("a", "b\x00c")])
        ]
        results = construct_validity(
            PreparedCorpus(records + extra), pairs=[("Metacognition", "metacog_word_density")]
        )
        assert results[0]["n"] == 10

    def test_constant_pair_listed_beside_monotone_pair(self):
        records = [
            dataclasses.replace(
                r,
                annotations_before={**r.annotations_before, "Clarity": 5.0},
                annotations_after={**r.annotations_after, "Clarity": 5.0},
            )
            for r in self.graded_records()
        ]
        pairs = [("Clarity", "metacog_word_density"), ("Metacognition", "metacog_word_density")]
        constant, monotone = construct_validity(PreparedCorpus(records), pairs=pairs)
        assert constant["rho"] is None and constant["p_value"] is None
        assert constant["note"] == "constant input; rank correlation undefined"
        assert constant["n"] == 8
        assert not constant["validated"]
        assert monotone["rho"] == pytest.approx(1.0)
        assert monotone["note"] is None
        assert monotone["validated"]

    def test_pairs_without_states_listed_beside_computed_pair(self):
        # Annotated for Metacognition only: the other default pairs lack states.
        results = construct_validity(PreparedCorpus(self.graded_records()))
        by_pair = {(r["annotation_feature"], r["surface_feature"]): r for r in results}
        assert len(results) == len(default_validity_pairs())
        monotone = by_pair["Metacognition", "metacog_word_density"]
        assert monotone["rho"] == pytest.approx(1.0)
        assert monotone["validated"]
        short = by_pair["Intrinsic_load", "word_count"]
        assert short["rho"] is None and short["p_value"] is None
        assert short["n"] == 0
        assert short["note"] == "pair (Intrinsic_load, word_count) has fewer than 3 states"
        assert not short["validated"]

    def test_no_pair_with_three_states_rejected(self):
        # Two annotated states: the first pair's note is the error.
        records = [
            dataclasses.replace(r, annotations_after=None) for r in self.graded_records()[:2]
        ]
        with pytest.raises(ConfigError, match=r"^pair \(Metacognition, metacog_word_density\) "):
            construct_validity(PreparedCorpus(records))

    def test_unknown_surface_feature_rejected(self):
        with pytest.raises(ConfigError):
            construct_validity(
                PreparedCorpus(self.graded_records()), pairs=[("Metacognition", "novelty_index")]
            )

    def test_too_few_states_rejected(self):
        records = self.graded_records()[:1]
        with pytest.raises(ConfigError):
            construct_validity(
                PreparedCorpus(records), pairs=[("Metacognition", "metacog_word_density")]
            )

    def test_reads_vectors_from_the_prepared_corpus(self, monkeypatch):
        records = self.graded_records()
        prepared = PreparedCorpus(records)
        prepared.surface_arrays()
        calls = []
        extract = surface.extract
        monkeypatch.setattr(
            surface, "extract", lambda *args: calls.append(args) or extract(*args)
        )
        results = construct_validity(prepared, pairs=[("Metacognition", "metacog_word_density")])
        assert calls == []
        assert results[0]["rho"] == pytest.approx(1.0)

    def test_a_repeated_state_adds_features_but_keeps_its_first_scores(self):
        # S0 is first seen without a Metacognition score; its repeat adds
        # one. S1's repeat scores it 0, which would break the monotone rank.
        s0, s1, s2 = (self.graded_text(k) for k in range(3))
        records = [
            make_record(
                "r0",
                before_text=s0,
                after_text=s1,
                annotations_before={"Intrinsic_load": 1.0},
                annotations_after={"Metacognition": 2.0},
            ),
            make_record(
                "r1",
                before_text=s2,
                after_text=s0,
                annotations_before={"Metacognition": 3.0},
                annotations_after={"Metacognition": 1.0, "Intrinsic_load": 9.0},
            ),
            make_record(
                "r2",
                before_text=s1,
                after_text=s2,
                annotations_before={"Metacognition": 0.0},
                annotations_after={"Metacognition": 3.0},
            ),
        ]
        metacog, load = construct_validity(
            PreparedCorpus(records),
            pairs=[("Metacognition", "metacog_word_density"), ("Intrinsic_load", "word_count")],
        )
        assert metacog["n"] == 3
        assert metacog["rho"] == pytest.approx(1.0)
        assert load["n"] == 1

    def test_a_repeated_state_keeps_its_first_vector(self):
        # A's later copy has the same demo text in three demos instead of
        # one, so its n_demos is 3; the pooled state keeps A's first row.
        one_demo, three_demos = [{"q": "a b c"}], [{"q": "a"}, {"q": "b"}, {"q": "c"}]
        records = [
            make_record(
                "r0",
                before_text="A",
                after_text="B",
                demos_before=one_demo,
                demos_after=[{"q": "x"}, {"q": "y"}],
                annotations_before={"Metacognition": 1.0},
                annotations_after={"Metacognition": 2.0},
            ),
            make_record(
                "r1",
                before_text="C",
                after_text="A",
                demos_before=[{"q": "x"}, {"q": "y"}, {"q": "z"}, {"q": "w"}],
                demos_after=three_demos,
                annotations_before={"Metacognition": 3.0},
                annotations_after={"Metacognition": 1.0},
            ),
        ]
        prepared = PreparedCorpus(records)
        n_demos = FEATURE_ORDER.index("n_demos")
        assert prepared.surface_arrays()[1][1, n_demos] == 3.0
        (result,) = construct_validity(prepared, pairs=[("Metacognition", "n_demos")])
        assert result["n"] == 3
        assert result["rho"] == pytest.approx(1.0)

    def test_an_empty_annotation_object_claims_no_vector(self):
        # A is first seen with {} and one demo; its scored copy has the same
        # demo text in three demos, so the pooled state reads the copy's row.
        one_demo, three_demos = [{"q": "a b c"}], [{"q": "a"}, {"q": "b"}, {"q": "c"}]
        records = [
            make_record(
                "r0",
                before_text="A",
                after_text="B",
                demos_before=one_demo,
                demos_after=[{"q": "x"}, {"q": "y"}],
                annotations_before={},
                annotations_after={"Demos": 2.0},
            ),
            make_record(
                "r1",
                before_text="C",
                after_text="A",
                demos_before=[{"q": "x"}, {"q": "y"}, {"q": "z"}, {"q": "w"}],
                demos_after=three_demos,
                annotations_before={"Demos": 4.0},
                annotations_after={"Demos": 3.0},
            ),
        ]
        (result,) = construct_validity(PreparedCorpus(records), pairs=[("Demos", "n_demos")])
        assert result["n"] == 3
        assert result["rho"] == pytest.approx(1.0)

    def test_default_pairs_are_wellformed(self):
        pairs = default_validity_pairs()
        assert len(pairs) == 19
        for annotation_feature, surface_feature in pairs:
            assert annotation_feature in ANNOTATION_FEATURES
            assert surface_feature in FEATURE_ORDER


class TestSpread:
    def test_reported_row_values(self):
        extraneous = {"cs": 0.032, "math": -0.021, "logic": -0.023, "mh": -0.027, "seq": -0.060}
        assert spread(extraneous) == pytest.approx(0.092, abs=1e-9)
        engagement = {"cs": -0.019, "math": -0.059, "logic": -0.017, "mh": -0.000, "seq": 0.061}
        assert spread(engagement) == pytest.approx(0.120, abs=1e-9)
        meta = {"cs": 0.011, "math": -0.103, "logic": -0.025, "seq": -0.005, "mh": -0.044}
        assert spread(meta) == pytest.approx(0.114, abs=1e-9)

    def test_translation_invariance(self):
        rng = np.random.default_rng(7)
        values = {f"g{k}": float(v) for k, v in enumerate(rng.normal(size=6))}
        base = spread(values)
        shifted = {k: v + 0.37 for k, v in values.items()}
        assert spread(shifted) == pytest.approx(base, abs=1e-12)

    def test_needs_two_groups(self):
        with pytest.raises(ConfigError):
            spread({"math": 0.1})


def shifted(pair_id, deltas, framework="synthopt"):
    """A record whose annotation scores move from 5 by each feature's delta."""
    return make_record(
        pair_id,
        framework=framework,
        annotations_before={feature: 5.0 for feature in deltas},
        annotations_after={feature: 5.0 + delta for feature, delta in deltas.items()},
    )


def annotation_rows(estimates, group="math"):
    """Annotation-view estimate rows of one task group."""
    return [
        {"view": "annotation", "feature": feature, "task_group": group, "acmgd_sipw": value}
        for feature, value in estimates.items()
    ]


class TestReceptivity:
    def test_reported_example(self):
        doc = receptivity(
            PreparedCorpus([shifted("r0", {"Demos": 0.974, "Intrinsic_load": 0.811})]),
            annotation_rows({"Demos": -0.044, "Intrinsic_load": 0.021}, group="sequential"),
        )
        (score,) = doc["scores"]
        assert score["score"] == pytest.approx(-0.0258, abs=1e-4)
        assert score["task_group"] == "sequential"
        assert "notes" not in doc

    def test_single_feature_identity(self):
        doc = receptivity(
            PreparedCorpus([shifted("r0", {"Demos": 1.0})]), annotation_rows({"Demos": 0.05})
        )
        assert doc["scores"][0]["score"] == pytest.approx(0.05)

    def test_zero_estimates_zero_score(self):
        doc = receptivity(
            PreparedCorpus([shifted("r0", {"Demos": 0.9, "Clarity": -0.7})]),
            annotation_rows({"Demos": 0.0, "Clarity": 0.0}),
        )
        assert doc["scores"][0]["score"] == 0.0

    def test_empty_fingerprint_rejected(self):
        doc = receptivity(
            PreparedCorpus([shifted("r0", {"Demos": 0.4})]), annotation_rows({"Demos": 0.1})
        )
        assert doc == {
            "scores": [],
            "notes": ["framework 'synthopt' has no fingerprint features over threshold"],
        }

    def test_missing_estimate_rejected(self):
        # The group missing Clarity gets a note; the complete group is still scored.
        doc = receptivity(
            PreparedCorpus([shifted("r0", {"Demos": 1.0, "Clarity": 0.8})]),
            annotation_rows({"Demos": 0.1})
            + annotation_rows({"Demos": 0.1, "Clarity": 0.2}, group="logical"),
        )
        assert [score["task_group"] for score in doc["scores"]] == ["logical"]
        assert doc["notes"] == ["no estimates for fingerprint features ['Clarity'] in 'math'"]

    def test_to_json_sorts_fingerprint(self):
        doc = receptivity(
            PreparedCorpus([shifted("r0", {"Demos": 1.0, "Clarity": 0.8})]),
            annotation_rows({"Demos": 0.1, "Clarity": 0.2}),
        )
        assert list(doc["scores"][0]["fingerprint"]) == ["Clarity", "Demos"]

    def test_opposite_fingerprints_score_with_opposite_signs(self):
        records = [
            shifted("a0", {"Demos": 2.0, "Clarity": 1.0}, framework="ape"),
            shifted("o0", {"Demos": -2.0, "Clarity": -1.0}, framework="opro"),
        ]
        doc = receptivity(PreparedCorpus(records), annotation_rows({"Demos": 0.1, "Clarity": 0.05}))
        ape, opro = doc["scores"]
        assert (ape["optimizer"], opro["optimizer"]) == ("ape", "opro")
        assert ape["score"] == pytest.approx(0.25)
        assert opro["score"] == pytest.approx(-0.25)

    def test_empty_annotation_objects_are_no_annotations(self):
        records = [
            make_record(f"r{i}", annotations_before={}, annotations_after={}) for i in range(3)
        ]
        doc = receptivity(PreparedCorpus(records), annotation_rows({"Demos": 0.1}))
        assert doc == {"note": "receptivity requires annotation vectors; none present"}


class TestFingerprint:
    def test_threshold_and_framework_filter(self):
        # Clarity's mean delta is 0 and Intrinsic_load's exactly the threshold.
        records = [
            make_record(
                "r1",
                annotations_before={"Demos": 3.0, "Clarity": 5.0, "Intrinsic_load": 5.0},
                annotations_after={"Demos": 4.0, "Clarity": 5.2, "Intrinsic_load": 5.5},
            ),
            make_record(
                "r2",
                annotations_before={"Demos": 2.0, "Clarity": 5.0, "Intrinsic_load": 5.0},
                annotations_after={"Demos": 2.9, "Clarity": 4.8, "Intrinsic_load": 5.5},
            ),
            make_record(
                "other",
                framework="ape",
                annotations_before={"Demos": 5.0},
                annotations_after={"Demos": 1.0},
            ),
        ]
        estimates = {"Demos": 0.1, "Clarity": 0.2, "Intrinsic_load": 0.3}
        doc = receptivity(PreparedCorpus(records), annotation_rows(estimates))
        ape, synthopt = doc["scores"]
        assert synthopt["fingerprint"] == {"Demos": pytest.approx(0.95)}
        assert ape["fingerprint"] == {"Demos": -4.0}
        assert FINGERPRINT_THRESHOLD == 0.5

    def test_records_without_annotations_ignored(self):
        # r1 does not dilute synthopt's mean, and ape has no annotated record.
        records = [
            shifted("r0", {"Demos": 1.0}),
            make_record("r1"),
            make_record("r2", framework="ape"),
        ]
        doc = receptivity(PreparedCorpus(records), annotation_rows({"Demos": 0.1}))
        (score,) = doc["scores"]
        assert (score["optimizer"], score["fingerprint"]) == ("synthopt", {"Demos": 1.0})
        assert doc["notes"] == ["framework 'ape' has no fingerprint features over threshold"]
