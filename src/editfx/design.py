"""Analysis units: treatments, packed pre-edit covariates, test cells.

A view (annotation, surface, or motif) plus a feature name defines a
binary treatment over comparison records. Covariates come exclusively
from the before state, so no covariate can leak the edit itself, and
they do not depend on the feature: `PreparedCorpus.frame` packs them
once per corpus into a `UnitFrame`, one row per record, with numeric
covariates in one n x 4 array and categorical covariates, (dataset,
backbone) blocks and task groups as codes over their sorted levels. A
treatment spec keeps some rows and gives each a 0/1 treatment; a cell is
a `CellData` view of one task group's rows. Families group cells for
FDR control and carry the realized test count m.
"""

from __future__ import annotations

import csv
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


class UnitFrame:
    """A corpus's units packed once: one row per record.

    Each row holds the record's pair id and gain, its four numeric
    pre-edit covariates (one C-contiguous n x 4 array, columns in
    NUMERIC_COVARIATES order), its three categorical covariates, its
    (dataset, backbone) block and its task group. Categorical values,
    blocks and groups are int32 codes over their sorted distinct values,
    so a code's order is its name order.
    """

    def __init__(
        self,
        pair_ids: list[str],
        gain: list[float],
        numeric: dict[str, list[float]],
        categorical: dict[str, list[str]],
        task_group: list[str],
    ):
        if set(numeric) != set(NUMERIC_COVARIATES):
            raise SchemaError("numeric covariates must be exactly " + str(NUMERIC_COVARIATES))
        if set(categorical) != set(CATEGORICAL_COVARIATES):
            raise SchemaError(
                "categorical covariates must be exactly " + str(CATEGORICAL_COVARIATES)
            )
        self.pair_ids = list(pair_ids)
        self.gain = np.asarray(gain, dtype=np.float64)
        self.numeric = np.array(
            [numeric[name] for name in NUMERIC_COVARIATES], dtype=np.float64
        ).T.copy()
        for col, name in enumerate(NUMERIC_COVARIATES):
            if not np.all(np.isfinite(self.numeric[:, col])):
                raise SchemaError(f"covariate '{name}' is not finite")
        room = self.numeric[:, NUMERIC_COVARIATES.index("headroom")]
        if np.any((room < 0.0) | (room > 1.0)):
            raise SchemaError("headroom must lie in [0, 1]")
        if not np.all((-1.0 <= self.gain) & (self.gain <= 1.0)):
            raise SchemaError("outcome must lie in [-1, 1]")
        coded = [_level_codes(categorical[name]) for name in CATEGORICAL_COVARIATES]
        self.cat_levels = [tuple(levels) for levels, _ in coded]
        self.cat_codes = np.column_stack([codes for _, codes in coded])
        self.blocks, self.block_codes = _level_codes(
            list(zip(categorical["dataset"], categorical["backbone"]))
        )
        self.groups, self.group_codes = _level_codes(task_group)


class CellData:
    """One cell's rows of a unit frame, with their 0/1 treatments.

    The arrays are the frame's columns at `rows`; `blocks` are the
    (dataset, backbone) pairs present, in name order. Bootstrap resamples
    index into these arrays; z-scoring and one-hot levels are always
    derived from the fitting population actually passed to encode, so a
    resample is self-contained.
    """

    def __init__(self, frame: UnitFrame, rows, treatment):
        rows = np.asarray(rows, dtype=np.intp)
        treatment = np.asarray(treatment)
        if rows.size == 0:
            raise ConfigError("cannot pack an empty unit list")
        if not np.all((treatment == 0) | (treatment == 1)):
            raise SchemaError("treatment must be 0 or 1")
        self.frame = frame
        self.rows = rows
        self.treatment = treatment.astype(np.int8)
        self.outcome = frame.gain[rows]
        self.numeric = frame.numeric[rows]
        self.cat_codes = frame.cat_codes[rows]
        present, self.block_codes = np.unique(frame.block_codes[rows], return_inverse=True)
        self.blocks = [frame.blocks[k] for k in present]
        self.block_members = [
            np.flatnonzero(self.block_codes == k) for k in range(len(self.blocks))
        ]

    @property
    def n(self) -> int:
        return self.rows.size

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
                names.append(f"{var}={self.frame.cat_levels[col][level]}")
        return names

    def encode_with_names(self, idx: np.ndarray | None = None) -> tuple[np.ndarray, list[str]]:
        return self.encode(idx), self.column_names(idx)


@dataclass
class TestCell:
    spec: TreatmentSpec
    task_group: str
    data: CellData

    def __post_init__(self):
        frame = self.data.frame
        codes = np.unique(frame.group_codes[self.data.rows])
        if [frame.groups[k] for k in codes] != [self.task_group]:
            raise SchemaError("all units in a cell must share its task group")

    @property
    def cell_id(self) -> str:
        return f"{self.spec.view}:{self.spec.feature_name}:{self.task_group}"

    @property
    def units(self) -> np.recarray:
        """Frame rows with a `block_id` field, for the benchmark tracer until ROADMAP item 5."""
        rows = self.data.rows
        return np.rec.fromarrays([rows, self.data.frame.block_codes[rows]], names="row,block_id")


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

    Surface vectors, motif diffs and the unit frame are computed at most
    once per record no matter how many features draw on them. Precomputed
    maps (for example read back from stage caches) can be injected.
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
            self._motif = motifs_mod.motif_treatments(self.motif_results())
        return self._motif

    @cached_property
    def frame(self) -> UnitFrame:
        """Every record's unit, packed once; covariates come from the before state."""
        records = self.records
        return UnitFrame(
            pair_ids=[r.pair_id for r in records],
            gain=[r.gain for r in records],
            numeric={
                "p1_word_count": [self.surface_pair(r)[0]["word_count"] for r in records],
                "p1_n_demos": [float(len(r.before.demos)) for r in records],
                "headroom": [headroom(r) for r in records],
                "step_index": [float(r.step_index) for r in records],
            },
            categorical={
                name: [getattr(r, name) for r in records] for name in CATEGORICAL_COVARIATES
            },
            task_group=[r.task_group for r in records],
        )


def prepared_for(
    records: list[ComparisonRecord], prepared: PreparedCorpus | None
) -> PreparedCorpus:
    """`prepared`, or a new corpus over `records`; cells index its frame, so it must hold them."""
    if prepared is None:
        return PreparedCorpus(records)
    if [r.pair_id for r in records] != [r.pair_id for r in prepared.records]:
        raise ConfigError("the prepared corpus holds other records than the ones given")
    return prepared


def build_units(prepared: PreparedCorpus, spec: TreatmentSpec) -> tuple[np.ndarray, np.ndarray]:
    """The frame rows a treatment spec keeps, and their 0/1 treatments.

    Treatment is 1 iff the edit strictly increases the feature (ties are
    control) for annotation and surface views, and the motif-inserted
    indicator for the motif view. Annotation-view records lacking either
    annotation vector, or the feature in either, are dropped.
    """
    feature = spec.feature_name
    records = prepared.records
    if spec.view == "motif":
        motif_map = prepared.motif_treatments()
        treatment = [motif_map[record.pair_id][feature] for record in records]
        return np.arange(len(records)), np.asarray(treatment, dtype=np.int8)
    if spec.view == "surface":
        pairs = [prepared.surface_pair(record) for record in records]
        rows = range(len(records))
    else:
        pairs = [(r.annotations_before or {}, r.annotations_after or {}) for r in records]
        rows = [row for row, (old, new) in enumerate(pairs) if feature in old and feature in new]
    treatment = [pairs[row][1][feature] - pairs[row][0][feature] > 0 for row in rows]
    return np.asarray(rows, dtype=np.intp), np.asarray(treatment, dtype=np.int8)


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
    prepared = prepared_for(records, prepared)
    frame = prepared.frame
    families = []
    for view in views:
        family = TestFamily(name=view, cells=[])
        for feature in view_features(view):
            spec = TreatmentSpec(view=view, feature_name=feature)
            rows, treatment = build_units(prepared, spec)
            row_groups = frame.group_codes[rows]
            for code in np.unique(row_groups):
                group = frame.groups[code]
                in_group = row_groups == code
                n_units = int(in_group.sum())
                n_treated = int(treatment[in_group].sum())
                n_control = n_units - n_treated
                if n_units < min_cell:
                    reason = f"n={n_units} below minimum {min_cell}"
                elif min(n_treated, n_control) < min_arm:
                    reason = (
                        f"arms treated={n_treated} control={n_control} below minimum {min_arm}"
                    )
                else:
                    data = CellData(frame, rows[in_group], treatment[in_group])
                    family.cells.append(TestCell(spec=spec, task_group=group, data=data))
                    continue
                family.excluded.append((spec.cell_id, group, reason))
        if family.cells:
            families.append(family)
        else:
            warnings.warn(f"family '{view}' has no testable cells; dropped", stacklevel=2)
    return families


def _level_codes(values: list) -> tuple[list, np.ndarray]:
    """Sorted distinct values, and each value's position among them."""
    levels = sorted(set(values))
    index = {level: k for k, level in enumerate(levels)}
    return levels, np.array([index[v] for v in values], dtype=np.int32)


def units_to_csv(data: CellData, stream: IO[str]) -> None:
    """One unit per row with expanded covariates, for external checking.

    The fitting population for z-scores and dummy levels is the cell's
    full row set.
    """
    matrix, names = data.encode_with_names()
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["pair_id", "treatment", "outcome", *names, "block_id"])
    for k, row in enumerate(data.rows):
        writer.writerow(
            [
                data.frame.pair_ids[row],
                int(data.treatment[k]),
                repr(float(data.outcome[k])),
                *[repr(float(v)) for v in matrix[k]],
                "|".join(data.blocks[data.block_codes[k]]),
            ]
        )
