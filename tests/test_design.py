"""Treatment assignment, covariate packing, and family enumeration."""

import io

import numpy as np
import pytest

from editfx.design import (
    CATEGORICAL_COVARIATES,
    NUMERIC_COVARIATES,
    VIEWS,
    CellData,
    PreparedCorpus,
    TestCell,
    TestFamily,
    TreatmentSpec,
    UnitFrame,
    build_units,
    enumerate_families,
    units_to_csv,
    view_features,
)
from editfx.errors import ConfigError, SchemaError

from conftest import GROW, make_record

# imported dataclasses, not test classes
TestCell.__test__ = False
TestFamily.__test__ = False

AUDIT_SENTENCE = "Make sure to articulate the reasoning process clearly."


def make_covariates(**overrides):
    numeric = {"p1_word_count": 4.0, "p1_n_demos": 0.0, "headroom": 0.5, "step_index": 1.0}
    categorical = {"framework": "synthopt", "backbone": "bb_alpha", "dataset": "synth_arith"}
    numeric.update({k: v for k, v in overrides.items() if k in numeric})
    categorical.update({k: v for k, v in overrides.items() if k in categorical})
    return numeric, categorical


def make_unit(pair_id="u1", treatment=0, outcome=0.0, task_group="math", **cov):
    """One hand-built unit as a plain dict; make_frame packs a list of them."""
    numeric, categorical = make_covariates(**cov)
    return {
        "pair_id": pair_id,
        "treatment": treatment,
        "outcome": outcome,
        "numeric": numeric,
        "categorical": categorical,
        "task_group": task_group,
    }


def make_frame(units) -> UnitFrame:
    return UnitFrame(
        pair_ids=[u["pair_id"] for u in units],
        gain=[u["outcome"] for u in units],
        numeric={name: [u["numeric"][name] for u in units] for name in NUMERIC_COVARIATES},
        categorical={
            name: [u["categorical"][name] for u in units] for name in CATEGORICAL_COVARIATES
        },
        task_group=[u["task_group"] for u in units],
    )


def make_data(units) -> CellData:
    """Every unit given, in order, as one cell's rows of their own frame."""
    return CellData(make_frame(units), np.arange(len(units)), [u["treatment"] for u in units])


def make_cells(units, spec=TreatmentSpec(view="surface", feature_name="word_count")):
    """One cell per task group, in name order, all over one frame of these units."""
    frame, treatment = make_frame(units), np.array([u["treatment"] for u in units])
    groups = np.array([u["task_group"] for u in units])
    return [
        TestCell(spec=spec, task_group=group, data=CellData(frame, rows, treatment[rows]))
        for group in sorted(set(groups))
        for rows in [np.flatnonzero(groups == group)]
    ]


class TestSpecsAndValidation:
    def test_view_features(self):
        assert set(VIEWS) == {"annotation", "surface", "motif"}
        assert "Clarity" in view_features("annotation")
        assert "word_count" in view_features("surface")
        assert view_features("motif") == (
            "chain_of_thought",
            "meta_instruction",
            "step_by_step",
            "clarity_constraint",
        )
        with pytest.raises(ConfigError):
            view_features("frequency")

    def test_treatment_spec_cell_id(self):
        spec = TreatmentSpec(view="surface", feature_name="word_count")
        assert spec.cell_id == "surface:word_count"

    def test_treatment_spec_rejects_foreign_feature(self):
        with pytest.raises(ConfigError):
            TreatmentSpec(view="motif", feature_name="word_count")

    def test_covariate_vector_requires_exact_keys(self):
        with pytest.raises(SchemaError):
            UnitFrame(
                pair_ids=["u1"],
                gain=[0.0],
                numeric={"p1_word_count": [1.0]},
                categorical={name: ["x"] for name in CATEGORICAL_COVARIATES},
                task_group=["math"],
            )
        with pytest.raises(SchemaError):
            UnitFrame(
                pair_ids=["u1"],
                gain=[0.0],
                numeric={name: [0.5] for name in NUMERIC_COVARIATES},
                categorical={"framework": ["x"], "backbone": ["y"]},
                task_group=["math"],
            )

    def test_covariate_vector_rejects_nonfinite_and_bad_headroom(self):
        with pytest.raises(SchemaError):
            make_frame([make_unit(p1_word_count=float("nan"))])
        with pytest.raises(SchemaError):
            make_frame([make_unit(headroom=1.5)])

    def test_analysis_unit_validation(self):
        with pytest.raises(SchemaError):
            make_data([make_unit(treatment=2)])
        with pytest.raises(SchemaError):
            make_data([make_unit(outcome=1.5)])

    def test_cell_rejects_mixed_groups(self):
        unit = make_unit()
        spec = TreatmentSpec(view="surface", feature_name="word_count")
        with pytest.raises(SchemaError):
            TestCell(spec=spec, task_group="logical", data=make_data([unit]))
        cell = TestCell(spec=spec, task_group="math", data=make_data([unit]))
        assert cell.cell_id == "surface:word_count:math"

    def test_family_m_counts_cells(self):
        spec = TreatmentSpec(view="surface", feature_name="word_count")
        cell = TestCell(spec=spec, task_group="math", data=make_data([make_unit()]))
        family = TestFamily(name="surface", cells=[cell, cell])
        assert family.m == 2


class TestBuildUnits:
    def test_surface_treatment_is_strict_increase(self):
        base = "table value record input"
        records = [
            make_record("grow", before_text=base, after_text=base + GROW),
            make_record("tie", before_text=base, after_text=base),
            make_record("shrink", before_text=base, after_text="table value"),
        ]
        spec = TreatmentSpec(view="surface", feature_name="word_count")
        rows, treatment = build_units(PreparedCorpus(records), spec)
        dropped = len(records) - rows.size
        assert dropped == 0
        assert treatment.tolist() == [1, 0, 0]

    def test_motif_treatment_uses_record_labels(self):
        base = "table value record input"
        records = [
            make_record("t1", before_text=base, after_text=base + " " + AUDIT_SENTENCE),
            make_record("c1", before_text=base, after_text=base + GROW),
        ]
        spec = TreatmentSpec(view="motif", feature_name="meta_instruction")
        rows, treatment = build_units(PreparedCorpus(records), spec)
        dropped = len(records) - rows.size
        assert dropped == 0
        assert treatment.tolist() == [1, 0]

    def test_annotation_treatment_and_drop_counting(self):
        records = [
            make_record(
                "up", annotations_before={"Clarity": 5}, annotations_after={"Clarity": 7}
            ),
            make_record(
                "flat", annotations_before={"Clarity": 5}, annotations_after={"Clarity": 5}
            ),
            make_record(
                "down", annotations_before={"Clarity": 7}, annotations_after={"Clarity": 5}
            ),
            make_record("missing_vec"),
            make_record(
                "missing_feat",
                annotations_before={"Engagement": 5},
                annotations_after={"Engagement": 6},
            ),
        ]
        spec = TreatmentSpec(view="annotation", feature_name="Clarity")
        rows, treatment = build_units(PreparedCorpus(records), spec)
        dropped = len(records) - rows.size
        assert dropped == 2
        units = [(records[row].pair_id, t) for row, t in zip(rows, treatment.tolist())]
        assert units == [("up", 1), ("flat", 0), ("down", 0)]

    def test_covariates_come_from_before_state(self):
        record = make_record(
            "r1",
            before_text="table value record input",
            after_text="table value record input" + GROW,
            accuracy_before=0.97,
            gain=0.02,
            step_index=5,
            demos_before=[{"q": "a"}, {"q": "b"}],
        )
        prepared = PreparedCorpus([record])
        rows, _ = build_units(prepared, TreatmentSpec(view="surface", feature_name="word_count"))
        frame, row = prepared.frame, rows[0]
        numeric = dict(zip(NUMERIC_COVARIATES, frame.numeric[row]))
        categorical = {
            name: frame.cat_levels[col][frame.cat_codes[row, col]]
            for col, name in enumerate(CATEGORICAL_COVARIATES)
        }
        assert numeric["p1_word_count"] == 4.0
        assert numeric["p1_n_demos"] == 2.0
        assert numeric["headroom"] == pytest.approx(0.03)
        assert numeric["step_index"] == 5.0
        assert categorical["dataset"] == "synth_arith"
        assert frame.blocks[frame.block_codes[row]] == ("synth_arith", "bb_alpha")
        assert frame.gain[row] == pytest.approx(0.02)

    def test_prepared_corpus_caches_are_shared(self):
        base = "table value record input"
        records = [make_record("r1", before_text=base, after_text=base + GROW)]
        prepared = PreparedCorpus(records)
        first, _ = build_units(prepared, TreatmentSpec(view="surface", feature_name="word_count"))
        frame = prepared.frame
        second, _ = build_units(prepared, TreatmentSpec(view="surface", feature_name="char_count"))
        assert first.tolist() == second.tolist()
        assert prepared.frame is frame


class TestEnumerateFamilies:
    def make_corpus(self):
        base = "table value record input"
        records = []
        for i in range(10):
            records.append(
                make_record(f"t{i}", before_text=base, after_text=base + GROW, gain=0.1)
            )
        for i in range(10):
            records.append(make_record(f"c{i}", before_text=base, after_text=base, gain=0.0))
        for i in range(5):
            records.append(
                make_record(
                    f"s{i}",
                    before_text=base,
                    after_text=base + GROW,
                    dataset="synth_seq",
                    task_group="sequential",
                )
            )
        return records

    def test_surface_family_cells_and_exclusions(self):
        records = self.make_corpus()
        with pytest.warns(UserWarning):
            families = enumerate_families(records, views=VIEWS)
        assert [f.name for f in families] == ["surface"]
        family = families[0]
        cell_ids = [c.cell_id for c in family.cells]
        assert "surface:word_count:math" in cell_ids
        word_cell = next(c for c in family.cells if c.cell_id == "surface:word_count:math")
        assert word_cell.data.n == 20
        assert word_cell.data.treatment.sum() == 10
        assert ("surface:word_count", "sequential", "n=5 below minimum 10") in family.excluded
        assert (
            "surface:question_count",
            "math",
            "arms treated=0 control=20 below minimum 3",
        ) in family.excluded

    def test_prepared_corpus_must_hold_the_given_records(self):
        records = self.make_corpus()
        with pytest.raises(ConfigError, match="other records"):
            enumerate_families(records[:10], prepared=PreparedCorpus(records))

    def test_empty_families_warn_and_drop(self):
        records = self.make_corpus()
        with pytest.warns(UserWarning, match="family 'motif' has no testable cells"):
            families = enumerate_families(records, views=("motif",))
        assert families == []

    def test_min_arm_boundary(self):
        base = "table value record input"
        records = [
            make_record(f"t{i}", before_text=base, after_text=base + GROW) for i in range(3)
        ] + [make_record(f"c{i}", before_text=base, after_text=base) for i in range(7)]
        for i in range(6):
            records.append(
                make_record(
                    f"st{i}",
                    before_text=base,
                    after_text=base + GROW,
                    dataset="synth_seq",
                    task_group="sequential",
                )
            )
            records.append(
                make_record(
                    f"sc{i}",
                    before_text=base,
                    after_text=base,
                    dataset="synth_seq",
                    task_group="sequential",
                )
            )
        families = enumerate_families(records, views=("surface",), min_cell=10, min_arm=3)
        cells = {c.cell_id for c in families[0].cells}
        assert "surface:word_count:math" in cells
        families = enumerate_families(records, views=("surface",), min_cell=10, min_arm=4)
        cells = {c.cell_id for c in families[0].cells}
        assert "surface:word_count:sequential" in cells
        assert "surface:word_count:math" not in cells
        assert (
            "surface:word_count",
            "math",
            "arms treated=3 control=7 below minimum 4",
        ) in families[0].excluded

    def test_groups_sorted_within_feature(self):
        base = "table value record input"
        records = []
        for group, dataset in [("sequential", "synth_seq"), ("math", "synth_arith")]:
            for i in range(6):
                records.append(
                    make_record(
                        f"{group}t{i}",
                        before_text=base,
                        after_text=base + GROW,
                        dataset=dataset,
                        task_group=group,
                    )
                )
                records.append(
                    make_record(
                        f"{group}c{i}",
                        before_text=base,
                        after_text=base,
                        dataset=dataset,
                        task_group=group,
                    )
                )
        families = enumerate_families(records, views=("surface",), min_cell=10)
        word_cells = [c for c in families[0].cells if c.spec.feature_name == "word_count"]
        assert [c.task_group for c in word_cells] == ["math", "sequential"]


class TestCellData:
    def make_units(self):
        units = []
        datasets = ["ds_a", "ds_b", "ds_c", "ds_a", "ds_b", "ds_c"]
        for k in range(6):
            units.append(
                make_unit(
                    pair_id=f"u{k}",
                    treatment=k % 2,
                    outcome=0.01 * k,
                    p1_word_count=float(10 + k),
                    headroom=0.1 * k / 5.0 + 0.3,
                    dataset=datasets[k],
                )
            )
        return units

    def test_packing_and_blocks(self):
        units = self.make_units()
        data = make_data(units)
        assert data.n == 6
        assert data.treatment.tolist() == [0, 1, 0, 1, 0, 1]
        np.testing.assert_allclose(data.outcome, [0.0, 0.01, 0.02, 0.03, 0.04, 0.05])
        assert data.blocks == [
            ("ds_a", "bb_alpha"),
            ("ds_b", "bb_alpha"),
            ("ds_c", "bb_alpha"),
        ]
        members = [m.tolist() for m in data.block_members]
        assert members == [[0, 3], [1, 4], [2, 5]]

    def test_encode_zscores_and_constant_columns(self):
        data = make_data(self.make_units())
        matrix, names = data.encode_with_names()
        assert names[: len(NUMERIC_COVARIATES)] == list(NUMERIC_COVARIATES)
        word_col = matrix[:, names.index("p1_word_count")]
        assert word_col.mean() == pytest.approx(0.0, abs=1e-12)
        assert word_col.std() == pytest.approx(1.0)
        step_col = matrix[:, names.index("step_index")]
        np.testing.assert_array_equal(step_col, np.zeros(6))

    def test_encode_one_hot_drops_first_level(self):
        data = make_data(self.make_units())
        matrix, names = data.encode_with_names()
        assert "dataset=ds_b" in names
        assert "dataset=ds_c" in names
        assert "dataset=ds_a" not in names
        assert not any(n.startswith("framework=") for n in names)
        b_col = matrix[:, names.index("dataset=ds_b")]
        np.testing.assert_array_equal(b_col, [0, 1, 0, 0, 1, 0])

    def test_encode_subset_uses_subset_levels(self):
        data = make_data(self.make_units())
        idx = np.array([0, 1, 3, 4])  # only ds_a and ds_b rows
        matrix, names = data.encode_with_names(idx)
        assert matrix.shape[0] == 4
        assert "dataset=ds_b" in names
        assert "dataset=ds_c" not in names
        word_col = matrix[:, names.index("p1_word_count")]
        assert word_col.mean() == pytest.approx(0.0, abs=1e-12)

    def test_empty_units_rejected(self):
        with pytest.raises(ConfigError):
            make_data([])


class TestUnitsCsv:
    def test_header_and_rows(self):
        units = [
            make_unit(pair_id="u1", treatment=1, outcome=0.25, dataset="ds_a"),
            make_unit(pair_id="u2", treatment=0, outcome=-0.5, dataset="ds_b"),
        ]
        buf = io.StringIO()
        units_to_csv(make_data(units), buf)
        lines = buf.getvalue().splitlines()
        assert len(lines) == 3
        header = lines[0].split(",")
        assert header[:3] == ["pair_id", "treatment", "outcome"]
        assert header[-1] == "block_id"
        assert "dataset=ds_b" in header
        first = lines[1].split(",")
        assert first[0] == "u1"
        assert first[1] == "1"
        assert float(first[2]) == 0.25
        assert lines[1].endswith("ds_a|bb_alpha")
        for line in lines[1:]:
            for value in line.split(",")[2:-1]:
                float(value)  # plain float reprs, not numpy scalar reprs
