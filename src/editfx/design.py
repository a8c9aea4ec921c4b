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

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from . import motifs as motifs_mod
from . import surface as surface_mod
from .errors import ConfigError, SchemaError
from .store import ANNOTATION_FEATURES, ComparisonRecord, headroom
from .surface import FEATURE_ORDER

VIEWS = ("annotation", "surface", "motif")

NUMERIC_COVARIATES = ("p1_word_count", "p1_n_demos", "headroom", "step_index")
CATEGORICAL_COVARIATES = ("framework", "backbone", "dataset")


def present_codes(codes: np.ndarray) -> np.ndarray:
    """The distinct values of non-negative integer codes, ascending.

    np.unique gives the same values, but since numpy 2.4 a call of it
    without a return_* argument imports numpy.ma.
    """
    return np.flatnonzero(np.bincount(codes))


def view_features(view: str) -> tuple[str, ...]:
    if view == "annotation":
        return ANNOTATION_FEATURES
    if view == "surface":
        return FEATURE_ORDER
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


class SharedDesign:
    """A design in run form: [1 | numeric columns], then one-hot columns per run.

    `rows` are the cell rows in design order. Rows come in runs that
    start at `starts`; every row of run r takes `levels[r]` as its
    one-hot columns, so each product with those columns is a sum over
    runs instead of over rows. `variable` is the categorical variable of
    each one-hot column; None for a bare matrix.
    """

    def __init__(self, rows, dense, starts, levels, variable=None):
        self.rows = rows
        self.dense = dense
        self.starts = starts
        self.levels = levels
        self.variable = variable
        self.dense_t = np.ascontiguousarray(dense.T)
        self.n, self.n_dense = dense.shape
        self.p = self.n_dense + levels.shape[1]


class CellData:
    """One cell's rows of a unit frame, with their 0/1 treatments.

    The arrays are the frame's columns at `rows`; `blocks` are the
    (dataset, backbone) pairs present, in name order. A fitting
    population is these rows with frequency weights (a bootstrap
    resample counts each row as often as its block was drawn); z-scoring
    and one-hot levels are always derived from that population, so a
    resample is self-contained. Every population is fitted on the one
    `shared_design`, mapped to its own z-scores (see estimation).
    Cells with the same rows and treatments share one CellData, and so
    its point fit and its bootstrap (see `contents`).
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

    @property
    def n(self) -> int:
        return self.rows.size

    @cached_property
    def point_fit(self):
        """The SIPW fit on every row once, made once: (estimate, WeightVector, converged)."""
        from .estimation import fit_stack, sipw  # estimation imports this module

        fit = fit_stack(self, np.ones((1, self.n)))
        estimate, wv = sipw(self, fit.probabilities())
        return estimate, wv, bool(fit.converged[0])

    @property
    def shared_design(self) -> SharedDesign:
        """The one design every fitting population of this cell is fitted on.

        It is built on each call, not kept: a cell holds no n x 5 arrays
        between fits. Rows are sorted by block then categorical codes, and a run is a
        maximal stretch of sorted rows sharing the block and all
        categorical codes, so every one-hot column is constant on a run.
        Framework can vary within a block, so a block can hold several
        runs. The numeric columns are z-scored with the cell's unweighted
        mean and population std (a std of 0 becomes 1); there is one
        one-hot column per categorical level present in the cell, none
        dropped.
        """
        keys = np.column_stack([self.block_codes, self.cat_codes])
        order = np.lexsort(keys.T[::-1])
        keys = keys[order]
        starts = np.flatnonzero(np.r_[True, np.any(keys[1:] != keys[:-1], axis=1)])
        run_codes = self.cat_codes[order[starts]]
        numeric = self.numeric[order]
        mean = np.average(numeric, axis=0)
        std = np.sqrt(np.average((numeric - mean) ** 2, axis=0))
        scale = np.where(std == 0.0, 1.0, std)
        present = [present_codes(self.cat_codes[:, col]) for col in range(self.cat_codes.shape[1])]
        levels = np.hstack([run_codes[:, [col]] == lv for col, lv in enumerate(present)])
        return SharedDesign(
            order,
            np.hstack([np.ones((self.n, 1)), (numeric - mean) / scale]),
            starts,
            levels.astype(np.float64),
            variable=np.repeat(np.arange(len(present)), [lv.size for lv in present]),
        )


@dataclass
class TestCell:
    spec: TreatmentSpec
    task_group: str
    data: CellData

    def __post_init__(self):
        frame = self.data.frame
        codes = present_codes(frame.group_codes[self.data.rows])
        if [frame.groups[k] for k in codes] != [self.task_group]:
            raise SchemaError("all units in a cell must share its task group")

    @property
    def cell_id(self) -> str:
        return f"{self.spec.view}:{self.spec.feature_name}:{self.task_group}"

    @property
    def point_fit(self):
        """The cell-scope SIPW fit, (estimate, WeightVector, converged): its data's, made
        once per CellData, so cells that share their rows and treatments share it."""
        return self.data.point_fit

    @property
    def units(self) -> np.recarray:
        """Frame rows with a `block_id` field, for the benchmark tracer until ROADMAP item 6."""
        rows = self.data.rows
        return np.rec.fromarrays([rows, self.data.frame.block_codes[rows]], names="row,block_id")


@dataclass
class TestFamily:
    """Cells tested together under one BH correction, sorted by (feature, task group)."""

    name: str
    cells: list[TestCell]
    excluded: list[tuple[str, str, str]] = field(default_factory=list)

    def __post_init__(self):
        self.cells = sorted(self.cells, key=lambda c: (c.spec.feature_name, c.task_group))

    @property
    def m(self) -> int:
        return len(self.cells)


def contents(families: list[TestFamily]) -> dict[str, TestCell]:
    """Each cell's content, by cell_id: the first cell in family order with its CellData.

    Cells that share a CellData are one test under several names; the
    content's first cell names it and seeds its bootstrap (see
    inference.infer_all).
    """
    first: dict[CellData, TestCell] = {}
    return {
        cell.cell_id: first.setdefault(cell.data, cell)
        for family in families
        for cell in family.cells
    }


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
    """One run's corpus: its records, word lists, ruleset and demo setting.

    Every analysis step of a run reads this one object. Surface vectors,
    motif diffs and the unit frame are computed at most once per record,
    and each treatment spec's units once, no matter how many features or
    steps draw on them; the two text stages share one token list per text
    (see prepare_text); record i's surface vectors are row i of the two
    `surface_arrays()`, the one surface accessor. Precomputed stages (for
    example read back from stage caches) can be injected; `stale_caches`
    lists the stage caches a run ignored, with the reason.
    """

    def __init__(
        self,
        records: list[ComparisonRecord],
        wordlists: surface_mod.WordLists | None = None,
        ruleset: motifs_mod.MotifRuleset | None = None,
        include_demos: bool = False,
        surface_cache: dict[str, tuple[list[float], list[float]]] | None = None,
        motif_cache: dict[str, dict[str, int]] | None = None,
        stale_caches: list[dict[str, str]] | None = None,
    ):
        self.records = list(records)
        self.wordlists = wordlists or surface_mod.default_wordlists()
        self.ruleset = ruleset or motifs_mod.default_ruleset()
        self.include_demos = include_demos
        self.stale_caches = list(stale_caches or [])
        self._surface: tuple[np.ndarray, np.ndarray] | None = None
        if surface_cache:
            self._surface = tuple(
                _pack([surface_cache[r.pair_id][side] for r in self.records])
                for side in (0, 1)
            )
        self._motif: dict[str, dict[str, int]] | None = dict(motif_cache) if motif_cache else None
        self._motif_results: dict[str, motifs_mod.MotifResult] | None = None
        self._units: dict[TreatmentSpec, tuple[np.ndarray, np.ndarray]] = {}

    def prepare_text(self, surface: bool = True, motifs: bool = True) -> None:
        """Compute the requested text stages in one pass over the records.

        A stage already present (computed or injected) is skipped. Each
        text is tokenized once for both stages; a text repeated from the
        previous record reuses that record's tokens (in an optimizer
        trajectory one step's after-prompt is the next step's
        before-prompt), and surface vectors are memoised by instruction
        text and demo count. Token lists are dropped after the next
        record, so they never pile up over a long corpus.
        """
        surface = surface and self._surface is None
        motifs = motifs and self._motif_results is None
        if not (surface or motifs):
            return
        previous: dict[str, list[str]] = {}
        current: dict[str, list[str]] = {}

        def tokens(text: str) -> list[str]:
            found = current.get(text)
            if found is None:
                found = previous.get(text)
                if found is None:
                    found = surface_mod.tokenize(text)
                current[text] = found
            return found

        vectors: dict[tuple[str, int], list[float]] = {}
        sides: tuple[list, list] = ([], [])
        results = {}
        for record in self.records:
            if surface:
                for side, state in zip(sides, (record.before, record.after)):
                    key = (state.instruction_text, len(state.demos))
                    vector = vectors.get(key)
                    if vector is None:
                        found = surface_mod.extract(state, self.wordlists, tokens(key[0]))
                        vector = vectors[key] = [found[name] for name in FEATURE_ORDER]
                    side.append(vector)
            if motifs:
                results[record.pair_id] = motifs_mod.record_motifs(
                    record, self.ruleset, self.include_demos, tokens
                )
            previous, current = current, {}
        if surface:
            self._surface = (_pack(sides[0]), _pack(sides[1]))
        if motifs:
            self._motif_results = results

    def surface_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Before and after surface vectors, one (n, 14) array each, columns in FEATURE_ORDER."""
        if self._surface is None:
            self.prepare_text(motifs=False)
        return self._surface

    def motif_results(self) -> dict[str, motifs_mod.MotifResult]:
        if self._motif_results is None:
            self.prepare_text(surface=False)
        return self._motif_results

    def motif_treatments(self) -> dict[str, dict[str, int]]:
        if self._motif is None:
            self._motif = motifs_mod.motif_treatments(self.motif_results())
        return self._motif

    def units(self, spec: TreatmentSpec) -> tuple[np.ndarray, np.ndarray]:
        """build_units(self, spec), made once per spec; callers must not write to the arrays."""
        found = self._units.get(spec)
        if found is None:
            found = self._units[spec] = build_units(self, spec)
        return found

    @cached_property
    def annotated(self) -> list[tuple[int, dict, dict]]:
        """(row, before, after) annotation vectors of each record that has both, in row order."""
        return [
            (row, r.annotations_before, r.annotations_after)
            for row, r in enumerate(self.records)
            if r.annotations_before and r.annotations_after
        ]

    @cached_property
    def frame(self) -> UnitFrame:
        """Every record's unit, packed once; covariates come from the before state."""
        records = self.records
        word_count = FEATURE_ORDER.index("word_count")
        return UnitFrame(
            pair_ids=[r.pair_id for r in records],
            gain=[r.gain for r in records],
            numeric={
                "p1_word_count": self.surface_arrays()[0][:, word_count],
                "p1_n_demos": [float(len(r.before.demos)) for r in records],
                "headroom": [headroom(r) for r in records],
                "step_index": [float(r.step_index) for r in records],
            },
            categorical={
                name: [getattr(r, name) for r in records] for name in CATEGORICAL_COVARIATES
            },
            task_group=[r.task_group for r in records],
        )


def _pack(vectors: list[list[float]]) -> np.ndarray:
    """Surface vectors, each a list in FEATURE_ORDER, as one (n, 14) float array."""
    return np.array(vectors, dtype=np.float64).reshape(len(vectors), len(FEATURE_ORDER))


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
        before, after = prepared.surface_arrays()
        k = FEATURE_ORDER.index(feature)
        return np.arange(len(records)), (after[:, k] - before[:, k] > 0).astype(np.int8)
    kept = [
        (row, old, new) for row, old, new in prepared.annotated if feature in old and feature in new
    ]
    rows = [row for row, _, _ in kept]
    treatment = [new[feature] - old[feature] > 0 for _, old, new in kept]
    return np.asarray(rows, dtype=np.intp), np.asarray(treatment, dtype=np.int8)


def enumerate_families(
    prepared: PreparedCorpus,
    min_cell: int = 10,
    min_arm: int = 3,
    views: tuple[str, ...] = VIEWS,
) -> list[TestFamily]:
    """Build the per-view test families with degenerate cells excluded.

    A cell is excluded (and logged on its family) when it has fewer than
    min_cell units or fewer than min_arm units in either arm; all-treated
    and all-control cells fall out of the arm rule. A family that loses
    every cell is kept with m = 0 and its exclusions, with a warning; a
    view with no units at all (the annotation view of an unannotated
    corpus) gives no family. Family m is the surviving count, which is
    what BH correction later divides by. Cells with the
    same rows and treatments, in any view, share one CellData, and so
    its fits.
    """
    # The frame and the surface view read the surface stage, and the motif
    # view reads motif treatments unless they were injected: one pass
    # computes what is missing, tokenizing each text once.
    prepared.prepare_text(motifs="motif" in views and prepared._motif is None)
    frame = prepared.frame
    shared: dict[tuple[bytes, bytes], CellData] = {}
    families = []
    for view in views:
        cells, excluded = [], []
        for feature in view_features(view):
            spec = TreatmentSpec(view=view, feature_name=feature)
            rows, treatment = prepared.units(spec)
            row_groups = frame.group_codes[rows]
            for code in present_codes(row_groups):
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
                    cell_rows, cell_treatment = rows[in_group], treatment[in_group]
                    key = (cell_rows.tobytes(), cell_treatment.tobytes())
                    data = shared.get(key)
                    if data is None:
                        data = shared[key] = CellData(frame, cell_rows, cell_treatment)
                    cells.append(TestCell(spec=spec, task_group=group, data=data))
                    continue
                excluded.append((spec.cell_id, group, reason))
        if not cells:
            warnings.warn(f"family '{view}' has no testable cells", stacklevel=2)
        if cells or excluded:
            families.append(TestFamily(name=view, cells=cells, excluded=excluded))
    return families


def _level_codes(values: list) -> tuple[list, np.ndarray]:
    """Sorted distinct values, and each value's position among them."""
    levels = sorted(set(values))
    index = {level: k for k, level in enumerate(levels)}
    return levels, np.array([index[v] for v in values], dtype=np.int32)
