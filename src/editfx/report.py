"""Report bundle composition: tables, heatmaps, diagnostics, provenance.

Table emitters are total functions of estimate and inference rows, so
report formatting is testable (and rerunnable) without refitting
anything. All display CSVs round to 3 decimals; full-precision values
live in the JSON sidecars. Nothing here writes timestamps, so a fixed
corpus and config produce byte-identical bundles.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import warnings
from dataclasses import asdict, dataclass
from functools import cached_property, wraps
from pathlib import Path

from . import __version__
from .design import (
    VIEWS,
    PreparedCorpus,
    TreatmentSpec,
    enumerate_families,
    view_features,
)
from .errors import ConfigError, DegenerateCellError, SchemaError, check_types
from .estimation import EstimateBundle, estimate_all
from .inference import InferenceResult, infer_all, tier_of, TIER_MARKERS
from .robustness import (
    LooReport,
    SignReversalSpec,
    ceiling,
    construct_validity,
    loo_stability,
    per_dataset_cate,
    receptivity,
    spread,
)
from .store import TASK_GROUPS, compute_stats

LEGEND = "★ = BH-FDR q<0.05; * = uncorrected p<0.05"


@dataclass(frozen=True)
class RunConfig:
    """Analysis settings (defaults < JSON config file < flags), all checked before any stage."""

    seed: int = 0
    alpha: float = 0.05
    resamples: int = 500
    min_cell: int = 10
    min_arm: int = 3
    scope: str = "cell"
    refit: bool = True
    percentile_p: bool = False
    include_demos: bool = False
    # Validated, then unused: cells run in order on one thread, so every
    # worker count gives the same bundle.
    workers: int = 1

    def __post_init__(self):
        check_types(self)
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.scope not in ("cell", "pooled"):
            raise ConfigError(f"scope must be 'cell' or 'pooled', got {self.scope!r}")
        for name in ("min_cell", "min_arm"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.resamples < 2:
            raise ConfigError(f"resamples must be >= 2, got {self.resamples}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must lie in (0, 1), got {self.alpha}")


def write_text(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8", newline="\n")


def json_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def write_json(path: Path, doc) -> None:
    write_text(path, json_text(doc))


ESTIMATE_COLUMNS = (
    "view",
    "feature",
    "task_group",
    "acmgd_sipw",
    "acmgd_naive",
    "confounding_magnitude",
    "n_treated",
    "n_control",
    "cap_hits",
)
INFERENCE_COLUMNS = (
    "view",
    "feature",
    "task_group",
    "estimate",
    "se",
    "p_value",
    "q_value",
    "tier",
    "valid_resamples",
)
# Bootstrap health per cell, in inference.json only.
HEALTH_COLUMNS = ("n_blocks", "distinct_resamples", "discarded", "nonconverged")
# Columns that the display CSVs round to 3 decimals; they write None as NA.
ROUNDED = {
    "acmgd_sipw", "acmgd_naive", "confounding_magnitude", "estimate", "se", "p_value", "q_value",
    "estimate_a", "estimate_b", "cate",
}


def _fmt(value: float) -> str:
    return f"{value:.3f}"


def csv_text(header, rows) -> str:
    """A header row then the rows, as CSV text with newline line ends."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def _display(row: dict, name: str):
    value = row[name]
    if value is None:
        return "NA"
    return _fmt(value) if name in ROUNDED else value


def _ordered_groups(groups) -> list[str]:
    present = set(groups)
    ordered = [g for g in TASK_GROUPS if g in present]
    ordered += sorted(present - set(TASK_GROUPS))
    return ordered


def estimates_to_json(bundle: EstimateBundle) -> dict:
    """The estimates document: estimate_all's rows, skips and family confounding."""
    return {
        "estimates": bundle.estimates,
        "skipped": [list(item) for item in bundle.skipped],
        "family_confounding": dict(sorted(bundle.family_confounding.items())),
    }


def estimates_to_csv(rows: list[dict]) -> str:
    lines = ([_display(row, name) for name in ESTIMATE_COLUMNS] for row in rows)
    return csv_text(ESTIMATE_COLUMNS, lines)


def inference_to_json(results: list[InferenceResult], skipped, alpha: float) -> dict:
    """The inference document: infer_all's results as rows, and its skips."""
    columns = (*INFERENCE_COLUMNS, *HEALTH_COLUMNS, "content")
    return {
        "alpha": alpha,
        "results": [{name: getattr(r, name) for name in columns} for r in results],
        "skipped": [list(item) for item in skipped],
    }


def inference_to_csv(rows: list[dict], alpha: float) -> str:
    """Display rows; the tier column shows the marker for p and q at this alpha."""

    def line(row: dict) -> list:
        marker = TIER_MARKERS[tier_of(row["p_value"], row["q_value"], alpha)]
        return [_display(row, name) if name != "tier" else marker for name in INFERENCE_COLUMNS]

    return f"# {LEGEND}\n" + csv_text(INFERENCE_COLUMNS, map(line, rows))


def _grid(view: str, estimate_rows: list[dict]):
    """One view's weighted estimates by (feature, group), with row and column order."""
    cells = {
        (row["feature"], row["task_group"]): row["acmgd_sipw"]
        for row in estimate_rows
        if row["view"] == view
    }
    groups = _ordered_groups(group for _, group in cells)
    features = [f for f in view_features(view) if any(f == feat for feat, _ in cells)]
    return cells, groups, features


def render_family_table(
    view: str,
    estimate_rows: list[dict],
    inference_rows: list[dict],
    alpha: float = 0.05,
) -> str:
    """The per-family estimate table: groups as columns, spread, markers.

    estimate_rows need view/feature/task_group/acmgd_sipw; inference_rows
    contribute p_value and q_value per cell and may be empty. Spread is
    max minus min over each feature's group estimates, computed at full
    precision by robustness.spread and displayed at 3 decimals.
    """
    cells, groups, features = _grid(view, estimate_rows)
    tests = {
        (row["feature"], row["task_group"]): (row["p_value"], row["q_value"])
        for row in inference_rows
        if row["view"] == view
    }
    lines = []
    for feature in features:
        row = [feature]
        values = {}
        for group in groups:
            value = cells.get((feature, group))
            if value is None:
                row.append("")
                continue
            values[group] = value
            marker = ""
            if (feature, group) in tests:
                p_value, q_value = tests[(feature, group)]
                marker = TIER_MARKERS[tier_of(p_value, q_value, alpha)]
            row.append(f"{value:+.3f}{marker}")
        row.append(_fmt(spread(values)) if len(values) >= 2 else "")
        lines.append(row)
    return f"# {LEGEND}\n" + csv_text(["feature", *groups, "spread"], lines)


def render_heatmap(view: str, estimate_rows: list[dict]) -> str:
    """Plain features-by-groups matrix of the weighted estimates."""
    cells, groups, features = _grid(view, estimate_rows)
    lines = (
        [feature, *(_fmt(cells[feature, g]) if (feature, g) in cells else "" for g in groups)]
        for feature in features
    )
    return csv_text(["feature", *groups], lines)


def table_files(
    views, estimate_rows: list[dict], inference_rows: list[dict], alpha: float
) -> dict[str, str]:
    """table_<view>.csv and heatmap_<view>.csv per view, by file name."""
    files = {}
    for view in views:
        files[f"table_{view}.csv"] = render_family_table(view, estimate_rows, inference_rows, alpha)
        files[f"heatmap_{view}.csv"] = render_heatmap(view, estimate_rows)
    return files


LOO_COLUMNS = (
    "excluded_dataset", "feature", "group_a", "group_b", "estimate_a", "estimate_b", "stable"
)


def loo_to_csv(report: LooReport | None, note: str = "") -> str:
    if report is None:
        return f"# no sign reversal selected: {note}\n" + csv_text(LOO_COLUMNS, [])
    reversal = report.reversal
    header = (
        "# baseline "
        f"{reversal.spec.view}:{reversal.spec.feature_name} "
        f"{reversal.group_a}={_fmt(report.baseline_a)} "
        f"{reversal.group_b}={_fmt(report.baseline_b)}; "
        f"stable {report.stable_count}/{report.total}\n"
    )
    lines = (
        [*(_display(split, name) for name in LOO_COLUMNS[:-1]), "✓" if split["stable"] else "✗"]
        for split in report.splits
    )
    return header + csv_text(LOO_COLUMNS, lines)


def choose_reversal(estimate_rows: list[dict]) -> SignReversalSpec | None:
    """Pick the widest opposite-sign group pair among the estimates.

    Deterministic: the largest positive-minus-negative gap wins, ties
    broken lexicographically by (view, feature, group_a, group_b).
    """
    by_feature: dict[tuple[str, str], dict[str, float]] = {}
    for row in estimate_rows:
        by_feature.setdefault((row["view"], row["feature"]), {})[row["task_group"]] = row[
            "acmgd_sipw"
        ]
    best = None
    for (view, feature), groups in sorted(by_feature.items()):
        for group_a in sorted(groups):
            for group_b in sorted(groups):
                est_a, est_b = groups[group_a], groups[group_b]
                if est_a > 0.0 > est_b:
                    key = (-(est_a - est_b), view, feature, group_a, group_b)
                    if best is None or key < best[0]:
                        best = (
                            key,
                            SignReversalSpec(
                                spec=TreatmentSpec(view=view, feature_name=feature),
                                group_a=group_a,
                                group_b=group_b,
                                baseline_sign_a="+",
                                baseline_sign_b="-",
                            ),
                        )
    return best[1] if best else None


PER_DATASET_COLUMNS = ("view", "feature", "dataset", "cate", "n_treated", "n_control")


def per_dataset_to_csv(rows: list[dict]) -> str:
    lines = ([_display(row, name) for name in PER_DATASET_COLUMNS] for row in rows)
    return csv_text(PER_DATASET_COLUMNS, lines)


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def stage(build):
    """A Pipeline stage, built at most once per run, with warnings silenced: the one place every
    stage passes through. The bundle itself states what each stage skipped and why."""

    def run(pipeline):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return build(pipeline)

    return cached_property(wraps(build)(run))


class Pipeline:
    """One analysis run over a corpus, staged and built lazily.

    Each stage is built at most once, from the prepared corpus and `cfg`,
    and every bundle file is rendered from the stages by `write`: the
    report writes them all, and each analysis command is a view that
    writes some. The corpus must diff demos exactly when `cfg` says so.
    """

    def __init__(self, prepared: PreparedCorpus, cfg: RunConfig, views: tuple[str, ...] = VIEWS):
        if prepared.include_demos != cfg.include_demos:
            raise ConfigError(
                f"prepared corpus has include_demos={prepared.include_demos}, "
                f"config has {cfg.include_demos}"
            )
        self.cfg = cfg
        self.prepared = prepared
        self.views = views

    @stage
    def families(self):
        cfg = self.cfg
        return enumerate_families(
            self.prepared, min_cell=cfg.min_cell, min_arm=cfg.min_arm, views=self.views
        )

    @stage
    def tested(self):
        """The families with a cell to test: the ones estimated, inferred and tabled."""
        return [family for family in self.families if family.cells]

    @stage
    def estimates(self) -> dict:
        bundle = estimate_all(self.tested, scope=self.cfg.scope)
        return estimates_to_json(bundle)

    @stage
    def inferred(self) -> tuple[list[InferenceResult], list[tuple[str, str]]]:
        """infer_all's (results, skipped): each tested cell's bootstrap, q-value and tier."""
        cfg = self.cfg
        return infer_all(
            self.tested,
            master_seed=cfg.seed,
            resamples=cfg.resamples,
            alpha=cfg.alpha,
            refit=cfg.refit,
            percentile_p=cfg.percentile_p,
        )

    @stage
    def bootstraps(self) -> dict[str, InferenceResult]:
        """Each bootstrapped content's result, by content id: its first cell's."""
        results, _ = self.inferred
        return {r.cell_id: r for r in results if r.content == r.cell_id}

    @stage
    def inference(self) -> dict:
        return inference_to_json(*self.inferred, self.cfg.alpha)

    @stage
    def loo(self) -> tuple[LooReport | None, str]:
        """The widest sign reversal (choose_reversal) with each dataset left out, and its note."""
        reversal = choose_reversal(self.estimates["estimates"])
        if reversal is None:
            return None, "no feature shows opposite-sign group estimates"
        spec = reversal.spec
        note = f"{spec.view}:{spec.feature_name} {reversal.group_a} vs {reversal.group_b}"
        return loo_stability(self.families, reversal), note

    @stage
    def per_dataset(self) -> list[dict]:
        """Each motif feature's naive per-dataset CATE rows."""
        specs = [TreatmentSpec(view="motif", feature_name=f) for f in view_features("motif")]
        return [row for spec in specs for row in per_dataset_cate(self.prepared, spec)]

    @stage
    def ceiling(self) -> dict:
        """The headroom diagnostics, or a note saying why this corpus has none."""
        try:
            return ceiling(self.prepared.records, seed=self.cfg.seed)
        except (ConfigError, DegenerateCellError) as exc:
            return {"note": str(exc)}

    @stage
    def receptivity(self) -> dict:
        return receptivity(self.prepared, self.estimates["estimates"])

    @stage
    def validity(self) -> dict:
        """Construct validity of each (annotation, surface) pair, or a note saying why none."""
        try:
            results = construct_validity(self.prepared, seed=self.cfg.seed)
        except ConfigError as exc:
            return {"note": str(exc)}
        return {
            "validated": sum(1 for r in results if r["validated"]),
            "total": len(results),
            "pairs": results,
        }

    @stage
    def provenance(self) -> dict:
        """The run's inputs, settings and counts; `write` adds the files it wrote as outputs."""
        cfg, prepared = self.cfg, self.prepared
        loo_report, loo_note = self.loo
        sources = {"wordlists": prepared.wordlists, "ruleset": prepared.ruleset}
        doc = {
            "artifact": {"name": "editfx", "version": __version__},
            "config": {k: v for k, v in asdict(cfg).items() if k != "workers"},
            **{k: {"version": v.version, "sha256": v.content_hash} for k, v in sources.items()},
            "corpus": compute_stats(prepared.records),
            "families": [
                {
                    "name": family.name,
                    "m": family.m,
                    "cells": family.m,
                    "contents": len({cell.data for cell in family.cells}),
                    "excluded": [list(item) for item in family.excluded],
                }
                for family in self.families
            ],
            "estimation": {
                "skipped": self.estimates["skipped"],
                "family_confounding": self.estimates["family_confounding"],
            },
            "inference": {
                "skipped": self.inference["skipped"],
                "cells": sum(family.m for family in self.families),
                "contents": len({cell.data for family in self.families for cell in family.cells}),
            },
            "loo": {
                "selection": loo_note,
                "stable_count": loo_report.stable_count if loo_report else 0,
                "total": loo_report.total if loo_report else 0,
            },
            "construct_validity": self.validity,
            "per_dataset_note": "naive per-dataset values are diagnostics only",
        }
        if prepared.stale_caches:
            doc["stale_caches"] = prepared.stale_caches
        return doc

    @cached_property
    def tables(self) -> dict[str, str]:
        """Each tested family's table and heatmap, by file name."""
        rows = self.estimates["estimates"], self.inference["results"]
        return table_files([family.name for family in self.tested], *rows, self.cfg.alpha)

    def write(self, out_dir: str | Path, names) -> None:
        """Render the named bundle files from the stages into `out_dir`.

        provenance.json, when named, is written last and lists the names
        as the bundle's outputs.
        """
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        names = sorted(names)
        for name in sorted(names, key="provenance.json".__eq__):
            if name == "provenance.json":
                text = json_text({**self.provenance, "outputs": names})
            else:
                text = RENDERERS[name](self) if name in RENDERERS else self.tables[name]
            write_text(out / name, text)


# The bundle's files other than provenance.json and the per-family tables,
# each rendered from the run's stages.
RENDERERS = {
    "estimates.csv": lambda run: estimates_to_csv(run.estimates["estimates"]),
    "estimates.json": lambda run: json_text(run.estimates),
    "inference.csv": lambda run: inference_to_csv(run.inference["results"], run.cfg.alpha),
    "inference.json": lambda run: json_text(run.inference),
    "loo.csv": lambda run: loo_to_csv(*run.loo),
    "per_dataset.csv": lambda run: per_dataset_to_csv(run.per_dataset),
    "ceiling.json": lambda run: json_text(run.ceiling),
    "receptivity.json": lambda run: json_text(run.receptivity),
}
BUNDLE_FILES = (*RENDERERS, "provenance.json")


def run_report(prepared: PreparedCorpus, out_dir: str | Path, **settings) -> dict:
    """Full pipeline: families, estimates, inference, diagnostics, bundle.

    `settings` are RunConfig fields. Returns the provenance document.
    Output is a deterministic function of (prepared corpus, config); the
    worker count does not enter it.
    """
    pipeline = Pipeline(prepared, RunConfig(**settings))
    pipeline.write(out_dir, [*BUNDLE_FILES, *pipeline.tables])
    return verify_bundle(out_dir)


def render_from_artifacts(
    estimates_path: str | Path,
    inference_path: str | Path | None,
    out_dir: str | Path,
    alpha: float = 0.05,
) -> dict:
    """Re-render tables and heatmaps from existing estimate artifacts.

    This is the formatting-only path: no corpus access, no refitting.
    The provenance block records the input hashes instead of a config.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    estimates_doc = json.loads(Path(estimates_path).read_text("utf-8"))
    estimate_rows = estimates_doc["estimates"]
    inference_rows = []
    if inference_path is not None:
        inference_doc = json.loads(Path(inference_path).read_text("utf-8"))
        inference_rows = inference_doc["results"]
    views = sorted({row["view"] for row in estimate_rows})
    files = table_files(views, estimate_rows, inference_rows, alpha)
    for name, text in files.items():
        write_text(out / name, text)
    provenance = {
        "artifact": {"name": "editfx", "version": __version__},
        "mode": "render",
        "inputs": {
            "estimates": _sha256_file(Path(estimates_path)),
            "inference": _sha256_file(Path(inference_path)) if inference_path else None,
        },
        "config": {"alpha": alpha},
        "outputs": sorted([*files, "provenance.json"]),
    }
    write_json(out / "provenance.json", provenance)
    verify_bundle(out)
    return provenance


def verify_bundle(out_dir: str | Path) -> dict:
    """Self-check: a bundle without complete provenance is invalid."""
    out = Path(out_dir)
    provenance_path = out / "provenance.json"
    if not provenance_path.exists():
        raise SchemaError("bundle is missing provenance.json")
    provenance = json.loads(provenance_path.read_text("utf-8"))
    for key in ("artifact", "config", "outputs"):
        if key not in provenance:
            raise SchemaError(f"provenance is missing required key '{key}'")
    missing = [name for name in provenance["outputs"] if not (out / name).exists()]
    if missing:
        raise SchemaError(f"bundle is missing declared outputs: {missing}")
    return provenance
