"""Analysis-unit construction: treatments, pre-edit covariates, test cells.

A view (annotation, surface, or motif) plus a feature name defines a
binary treatment over comparison records. Covariates come exclusively
from the before state, so no covariate can leak the edit itself. Cells
are (feature, task group) unit lists; families group cells for FDR
control and carry the realized test count m.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import IO, Callable

import numpy as np

from . import motifs as motifs_mod
from . import surface as surface_mod
from .errors import ConfigError, SchemaError
from .store import ANNOTATION_FEATURES, ComparisonRecord, headroom

VIEWS = ("annotation", "surface", "motif")

NUMERIC_COVARIATES = ("p1_word_count", "p1_n_demos", "headroom", "step_index")
CATEGORICAL_COVARIATES = ("framework", "backbone", "dataset")


def view_features(view: str) -> tuple[str, ...]:
    if view == "annotation":
        return ANNOTATION_FEATURES
    if view == "surface":
        return surface_mod.FEATURE_ORDER
    if view == "motif":
        return motifs_mod.MOTIF_LABELS
    raise ConfigError(f"unknown view '{view}'")


@dataclass(frozen=True)
class TreatmentSpec:
    view: str
    feature_name: str

    def __post_init__(self):
        if self.feature_name not in view_features(self.view):
            raise ConfigError(
                f"feature '{self.feature_name}' is not defined for view '{self.view}'"
            )

    @property
    def cell_id(self) -> str:
        return f"{self.view}:{self.feature_name}"


@dataclass(frozen=True)
class CovariateVector:
    numeric: dict[str, float]
    categorical: dict[str, str]

    def __post_init__(self):
        if set(self.numeric) != set(NUMERIC_COVARIATES):
            raise SchemaError("numeric covariates must be exactly " + str(NUMERIC_COVARIATES))
        if set(self.categorical) != set(CATEGORICAL_COVARIATES):
            raise SchemaError(
                "categorical covariates must be exactly " + str(CATEGORICAL_COVARIATES)
            )
        for name, value in self.numeric.items():
            if not math.isfinite(value):
                raise SchemaError(f"covariate '{name}' is not finite")
        if not 0.0 <= self.numeric["headroom"] <= 1.0:
            raise SchemaError("headroom must lie in [0, 1]")


@dataclass(frozen=True)
class AnalysisUnit:
    pair_id: str
    treatment: int
    outcome: float
    covariates: CovariateVector
    block_id: tuple[str, str]
    dataset: str
    task_group: str

    def __post_init__(self):
        if self.treatment not in (0, 1):
            raise SchemaError("treatment must be 0 or 1")
        if not -1.0 <= self.outcome <= 1.0:
            raise SchemaError("outcome must lie in [-1, 1]")


@dataclass
class TestCell:
    spec: TreatmentSpec
    task_group: str
    units: list[AnalysisUnit]

    def __post_init__(self):
        for unit in self.units:
            if unit.task_group != self.task_group:
                raise SchemaError("all units in a cell must share its task group")

    @property
    def cell_id(self) -> str:
        return f"{self.spec.view}:{self.spec.feature_name}:{self.task_group}"

    @cached_property
    def data(self) -> CellData:
        """The cell's units packed once, shared by estimation and inference."""
        return CellData(self.units)


@dataclass
class TestFamily:
    name: str
    cells: list[TestCell]
    excluded: list[tuple[str, str, str]] = field(default_factory=list)

    @property
    def m(self) -> int:
        return len(self.cells)


def map_cells(fn: Callable, cells: list[TestCell], skip: tuple) -> list:
    """fn(cell) for each cell in order; a cell raising one of `skip` yields (cell_id, message)."""
    out = []
    for cell in cells:
        try:
            out.append(fn(cell))
        except skip as exc:
            out.append((cell.cell_id, str(exc)))
    return out


class PreparedCorpus:
    """Per-record caches shared across treatment specs.

    Surface vectors and motif diffs are computed at most once per record
    no matter how many features draw on them. Precomputed maps (for
    example read back from stage caches) can be injected.
    """

    def __init__(
        self,
        records: list[ComparisonRecord],
        wordlists: surface_mod.WordLists | None = None,
        ruleset: motifs_mod.MotifRuleset | None = None,
        include_demos: bool = False,
        surface_cache: dict[str, tuple[dict, dict]] | None = None,
        motif_cache: dict[str, dict[str, int]] | None = None,
    ):
        self.records = list(records)
        self.wordlists = wordlists or surface_mod.default_wordlists()
        self.ruleset = ruleset or motifs_mod.default_ruleset()
        self.include_demos = include_demos
        self._surface: dict[str, tuple[dict, dict]] = dict(surface_cache or {})
        self._motif: dict[str, dict[str, int]] | None = dict(motif_cache) if motif_cache else None
        self._motif_results: dict[str, motifs_mod.MotifResult] | None = None
        self._covariates: dict[str, CovariateVector] = {}

    def surface_pair(self, record: ComparisonRecord) -> tuple[dict, dict]:
        cached = self._surface.get(record.pair_id)
        if cached is None:
            cached = (
                surface_mod.extract(record.before, self.wordlists),
                surface_mod.extract(record.after, self.wordlists),
            )
            self._surface[record.pair_id] = cached
        return cached

    def motif_results(self) -> dict[str, motifs_mod.MotifResult]:
        if self._motif_results is None:
            self._motif_results = {
                r.pair_id: motifs_mod.record_motifs(r, self.ruleset, self.include_demos)
                for r in self.records
            }
        return self._motif_results

    def motif_treatments(self) -> dict[str, dict[str, int]]:
        if self._motif is None:
            self._motif = motifs_mod.motif_treatments(
                self.records, self.ruleset, self.include_demos, results=self.motif_results()
            )
        return self._motif

    def covariates(self, record: ComparisonRecord) -> CovariateVector:
        vec = self._covariates.get(record.pair_id)
        if vec is None:
            before_vec = self.surface_pair(record)[0]
            vec = CovariateVector(
                numeric={
                    "p1_word_count": before_vec["word_count"],
                    "p1_n_demos": float(len(record.before.demos)),
                    "headroom": headroom(record),
                    "step_index": float(record.step_index),
                },
                categorical={
                    "framework": record.framework,
                    "backbone": record.backbone,
                    "dataset": record.dataset,
                },
            )
            self._covariates[record.pair_id] = vec
        return vec


def build_units(
    records: list[ComparisonRecord],
    spec: TreatmentSpec,
    prepared: PreparedCorpus | None = None,
) -> tuple[list[AnalysisUnit], int]:
    """Units for one treatment spec, plus the count of dropped records.

    Treatment is 1 iff the edit strictly increases the feature (ties are
    control) for annotation and surface views, and the motif-inserted
    indicator for the motif view. Annotation-view records lacking either
    annotation vector are dropped and counted.
    """
    if prepared is None:
        prepared = PreparedCorpus(records)
    feature = spec.feature_name
    units: list[AnalysisUnit] = []
    dropped = 0
    motif_map = prepared.motif_treatments() if spec.view == "motif" else None
    for record in records:
        if spec.view == "annotation":
            before_ann = record.annotations_before
            after_ann = record.annotations_after
            if (
                before_ann is None
                or after_ann is None
                or feature not in before_ann
                or feature not in after_ann
            ):
                dropped += 1
                continue
            treatment = 1 if after_ann[feature] - before_ann[feature] > 0 else 0
        elif spec.view == "surface":
            before_vec, after_vec = prepared.surface_pair(record)
            treatment = 1 if after_vec[feature] - before_vec[feature] > 0 else 0
        else:
            treatment = motif_map[record.pair_id][feature]
        units.append(
            AnalysisUnit(
                pair_id=record.pair_id,
                treatment=treatment,
                outcome=record.gain,
                covariates=prepared.covariates(record),
                block_id=record.block_id,
                dataset=record.dataset,
                task_group=record.task_group,
            )
        )
    return units, dropped


def enumerate_families(
    records: list[ComparisonRecord],
    min_cell: int = 10,
    min_arm: int = 3,
    views: tuple[str, ...] = VIEWS,
    prepared: PreparedCorpus | None = None,
) -> list[TestFamily]:
    """Build the per-view test families with degenerate cells excluded.

    A cell is excluded (and logged on its family) when it has fewer than
    min_cell units or fewer than min_arm units in either arm; all-treated
    and all-control cells fall out of the arm rule. Families that lose
    every cell are dropped with a warning. Family m is the surviving
    count, which is what BH correction later divides by.
    """
    if prepared is None:
        prepared = PreparedCorpus(records)
    families = []
    for view in views:
        family = TestFamily(name=view, cells=[])
        for feature in view_features(view):
            spec = TreatmentSpec(view=view, feature_name=feature)
            units, _ = build_units(records, spec, prepared)
            by_group: dict[str, list[AnalysisUnit]] = {}
            for unit in units:
                by_group.setdefault(unit.task_group, []).append(unit)
            for group in sorted(by_group):
                cell_units = by_group[group]
                n_treated = sum(u.treatment for u in cell_units)
                n_control = len(cell_units) - n_treated
                if len(cell_units) < min_cell:
                    family.excluded.append(
                        (spec.cell_id, group, f"n={len(cell_units)} below minimum {min_cell}")
                    )
                elif min(n_treated, n_control) < min_arm:
                    family.excluded.append(
                        (
                            spec.cell_id,
                            group,
                            f"arms treated={n_treated} control={n_control} below minimum {min_arm}",
                        )
                    )
                else:
                    family.cells.append(TestCell(spec=spec, task_group=group, units=cell_units))
        if family.cells:
            families.append(family)
        else:
            warnings.warn(f"family '{view}' has no testable cells; dropped", stacklevel=2)
    return families


class CellData:
    """Packed arrays for one unit list, built once and re-encoded cheaply.

    Bootstrap resamples index into these arrays; z-scoring and one-hot
    levels are always derived from the fitting population actually
    passed to encode, so a resample is self-contained.
    """

    def __init__(self, units: list[AnalysisUnit]):
        if not units:
            raise ConfigError("cannot pack an empty unit list")
        self.pair_ids = [u.pair_id for u in units]
        self.treatment = np.array([u.treatment for u in units], dtype=np.int8)
        self.outcome = np.array([u.outcome for u in units], dtype=np.float64)
        self.numeric = np.array(
            [[u.covariates.numeric[name] for name in NUMERIC_COVARIATES] for u in units],
            dtype=np.float64,
        )
        categorical = [
            _level_codes([u.covariates.categorical[name] for u in units])
            for name in CATEGORICAL_COVARIATES
        ]
        self.cat_levels = [tuple(levels) for levels, _ in categorical]
        self.cat_codes = np.column_stack([codes for _, codes in categorical])
        self.blocks, self.block_codes = _level_codes([u.block_id for u in units])
        self.block_members = [
            np.flatnonzero(self.block_codes == k) for k in range(len(self.blocks))
        ]

    @property
    def n(self) -> int:
        return len(self.pair_ids)

    def encode(self, idx: np.ndarray | None = None) -> np.ndarray:
        """Design matrix for the given rows as their own fitting population.

        Numeric columns are z-scored within the subset (constant columns
        become zeros); categorical variables are one-hot encoded over the
        levels present in the subset, lexicographically first level
        dropped.
        """
        numeric = self.numeric if idx is None else self.numeric[idx]
        codes = self.cat_codes if idx is None else self.cat_codes[idx]
        mean = numeric.mean(axis=0)
        std = numeric.std(axis=0)
        std = np.where(std == 0.0, 1.0, std)
        columns = [(numeric - mean) / std]
        for col in range(codes.shape[1]):
            present = np.unique(codes[:, col])
            for level in present[1:]:
                columns.append((codes[:, col] == level).astype(np.float64)[:, None])
        return np.hstack(columns)

    def column_names(self, idx: np.ndarray | None = None) -> list[str]:
        """Names of the columns encode(idx) returns, in order."""
        codes = self.cat_codes if idx is None else self.cat_codes[idx]
        names = list(NUMERIC_COVARIATES)
        for col, var in enumerate(CATEGORICAL_COVARIATES):
            present = np.unique(codes[:, col])
            for level in present[1:]:
                names.append(f"{var}={self.cat_levels[col][level]}")
        return names

    def encode_with_names(self, idx: np.ndarray | None = None) -> tuple[np.ndarray, list[str]]:
        return self.encode(idx), self.column_names(idx)


def _level_codes(values: list) -> tuple[list, np.ndarray]:
    """Sorted distinct values, and each value's position among them."""
    levels = sorted(set(values))
    index = {level: k for k, level in enumerate(levels)}
    return levels, np.array([index[v] for v in values], dtype=np.int32)


def units_to_csv(units: list[AnalysisUnit], stream: IO[str]) -> None:
    """One unit per row with expanded covariates, for external checking.

    The fitting population for z-scores and dummy levels is the full
    unit list given here.
    """
    data = CellData(units)
    matrix, names = data.encode_with_names()
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["pair_id", "treatment", "outcome", *names, "block_id"])
    for row, unit in enumerate(units):
        writer.writerow(
            [
                unit.pair_id,
                unit.treatment,
                repr(unit.outcome),
                *[repr(v) for v in matrix[row]],
                "|".join(unit.block_id),
            ]
        )
