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
from pathlib import Path

from . import __version__
from .design import PreparedCorpus, check_workers, enumerate_families, view_features, TreatmentSpec
from .errors import ConfigError, DegenerateCellError, SchemaError
from .estimation import EstimateBundle, estimate_all
from .inference import InferenceResult, infer_all, tier_of, TIER_MARKERS, TIER_NONE
from .robustness import (
    LooReport,
    SignReversalSpec,
    ceiling,
    construct_validity,
    fingerprint_from_records,
    loo_stability,
    per_dataset_cate,
    receptivity,
)
from .store import ComparisonRecord, TASK_GROUPS, compute_stats

LEGEND = "★ = BH-FDR q<0.05; * = uncorrected p<0.05"

BUNDLE_FILES = (
    "estimates.csv",
    "estimates.json",
    "inference.csv",
    "inference.json",
    "loo.csv",
    "per_dataset.csv",
    "ceiling.json",
    "receptivity.json",
    "provenance.json",
)


def write_text(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8", newline="\n")


def write_json(path: Path, doc) -> None:
    write_text(path, json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n")


def _fmt(value: float) -> str:
    return f"{value:.3f}"


def _ordered_groups(groups) -> list[str]:
    present = set(groups)
    ordered = [g for g in TASK_GROUPS if g in present]
    ordered += sorted(present - set(TASK_GROUPS))
    return ordered


def estimates_to_json(bundle: EstimateBundle) -> dict:
    return {
        "estimates": [
            {
                "view": e.view,
                "feature": e.feature,
                "task_group": e.task_group,
                "acmgd_sipw": e.acmgd_sipw,
                "acmgd_naive": e.acmgd_naive,
                "confounding_magnitude": e.confounding_magnitude,
                "n_treated": e.n_treated,
                "n_control": e.n_control,
                "cap_hits": e.cap_hits,
            }
            for e in bundle.estimates
        ],
        "skipped": [list(item) for item in bundle.skipped],
        "family_confounding": dict(sorted(bundle.family_confounding.items())),
    }


def estimates_to_csv(rows: list[dict]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        [
            "view",
            "feature",
            "task_group",
            "acmgd_sipw",
            "acmgd_naive",
            "confounding_magnitude",
            "n_treated",
            "n_control",
            "cap_hits",
        ]
    )
    for row in rows:
        writer.writerow(
            [
                row["view"],
                row["feature"],
                row["task_group"],
                _fmt(row["acmgd_sipw"]),
                _fmt(row["acmgd_naive"]),
                _fmt(row["confounding_magnitude"]),
                row["n_treated"],
                row["n_control"],
                row["cap_hits"],
            ]
        )
    return out.getvalue()


def inference_to_json(results: list[InferenceResult], skipped, alpha: float) -> dict:
    return {
        "alpha": alpha,
        "results": [
            {
                "view": r.view,
                "feature": r.feature,
                "task_group": r.task_group,
                "estimate": r.estimate,
                "se": r.se,
                "p_value": r.p_value,
                "q_value": r.q_value,
                "tier": r.tier,
                "valid_resamples": r.valid_resamples,
            }
            for r in results
        ],
        "skipped": [list(item) for item in skipped],
    }


def inference_to_csv(rows: list[dict], alpha: float) -> str:
    out = io.StringIO()
    out.write(f"# {LEGEND}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        ["view", "feature", "task_group", "estimate", "se", "p_value", "q_value", "tier", "valid_resamples"]
    )
    for row in rows:
        marker = TIER_MARKERS[tier_of(row["p_value"], row["q_value"], alpha)]
        writer.writerow(
            [
                row["view"],
                row["feature"],
                row["task_group"],
                _fmt(row["estimate"]),
                _fmt(row["se"]),
                _fmt(row["p_value"]),
                _fmt(row["q_value"]),
                marker,
                row["valid_resamples"],
            ]
        )
    return out.getvalue()


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
    precision and displayed at 3 decimals.
    """
    cells = {
        (row["feature"], row["task_group"]): row["acmgd_sipw"]
        for row in estimate_rows
        if row["view"] == view
    }
    tests = {
        (row["feature"], row["task_group"]): (row["p_value"], row["q_value"])
        for row in inference_rows
        if row["view"] == view
    }
    groups = _ordered_groups(group for _, group in cells)
    features = [f for f in view_features(view) if any(f == feat for feat, _ in cells)]
    out = io.StringIO()
    out.write(f"# {LEGEND}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["feature", *groups, "spread"])
    for feature in features:
        row = [feature]
        values = []
        for group in groups:
            value = cells.get((feature, group))
            if value is None:
                row.append("")
                continue
            values.append(value)
            marker = ""
            if (feature, group) in tests:
                p_value, q_value = tests[(feature, group)]
                marker = TIER_MARKERS[tier_of(p_value, q_value, alpha)]
            row.append(f"{value:+.3f}{marker}")
        row.append(_fmt(max(values) - min(values)) if len(values) >= 2 else "")
        writer.writerow(row)
    return out.getvalue()


def render_heatmap(view: str, estimate_rows: list[dict]) -> str:
    """Plain features-by-groups matrix of the weighted estimates."""
    cells = {
        (row["feature"], row["task_group"]): row["acmgd_sipw"]
        for row in estimate_rows
        if row["view"] == view
    }
    groups = _ordered_groups(group for _, group in cells)
    features = [f for f in view_features(view) if any(f == feat for feat, _ in cells)]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["feature", *groups])
    for feature in features:
        row = [feature]
        for group in groups:
            value = cells.get((feature, group))
            row.append("" if value is None else _fmt(value))
        writer.writerow(row)
    return out.getvalue()


def loo_to_csv(report: LooReport | None, note: str = "") -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    if report is None:
        out.write(f"# no sign reversal selected: {note}\n")
        writer.writerow(
            ["excluded_dataset", "feature", "group_a", "group_b", "estimate_a", "estimate_b", "stable"]
        )
        return out.getvalue()
    reversal = report.reversal
    out.write(
        "# baseline "
        f"{reversal.spec.view}:{reversal.spec.feature_name} "
        f"{reversal.group_a}={_fmt(report.baseline_a)} "
        f"{reversal.group_b}={_fmt(report.baseline_b)}; "
        f"stable {report.stable_count}/{report.total}\n"
    )
    writer.writerow(
        ["excluded_dataset", "feature", "group_a", "group_b", "estimate_a", "estimate_b", "stable"]
    )
    for split in report.splits:
        writer.writerow(
            [
                split.excluded_dataset,
                reversal.spec.feature_name,
                reversal.group_a,
                reversal.group_b,
                _fmt(split.estimate_a),
                _fmt(split.estimate_b),
                "✓" if split.stable else "✗",
            ]
        )
    return out.getvalue()


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


def per_dataset_to_csv(rows: list[dict]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["view", "feature", "dataset", "cate", "n_treated", "n_control"])
    for row in rows:
        cate = row["cate"]
        writer.writerow(
            [
                row["view"],
                row["feature"],
                row["dataset"],
                "NA" if cate is None else _fmt(cate),
                row["n_treated"],
                row["n_control"],
            ]
        )
    return out.getvalue()


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_report(
    records: list[ComparisonRecord],
    out_dir: str | Path,
    seed: int = 0,
    alpha: float = 0.05,
    resamples: int = 500,
    min_cell: int = 10,
    min_arm: int = 3,
    scope: str = "cell",
    refit: bool = True,
    percentile_p: bool = False,
    include_demos: bool = False,
    workers: int = 1,
    prepared: PreparedCorpus | None = None,
) -> dict:
    """Full pipeline: families, estimates, inference, diagnostics, bundle.

    Returns the provenance document. Output is a deterministic function
    of (records, config); the worker count changes scheduling only.
    """
    check_workers(workers)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if prepared is None:
        prepared = PreparedCorpus(records, include_demos=include_demos)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        families = enumerate_families(
            records, min_cell=min_cell, min_arm=min_arm, prepared=prepared
        )
    bundle = estimate_all(families, scope=scope, workers=workers)
    estimates_doc = estimates_to_json(bundle)
    estimate_rows = estimates_doc["estimates"]
    write_json(out / "estimates.json", estimates_doc)
    write_text(out / "estimates.csv", estimates_to_csv(estimate_rows))

    results, inference_skipped = infer_all(
        families,
        master_seed=seed,
        resamples=resamples,
        alpha=alpha,
        refit=refit,
        percentile_p=percentile_p,
        workers=workers,
    )
    inference_doc = inference_to_json(results, inference_skipped, alpha)
    inference_rows = inference_doc["results"]
    write_json(out / "inference.json", inference_doc)
    write_text(out / "inference.csv", inference_to_csv(inference_rows, alpha))

    family_files = []
    for family in families:
        write_text(
            out / f"table_{family.name}.csv",
            render_family_table(family.name, estimate_rows, inference_rows, alpha),
        )
        write_text(
            out / f"heatmap_{family.name}.csv", render_heatmap(family.name, estimate_rows)
        )
        family_files += [f"table_{family.name}.csv", f"heatmap_{family.name}.csv"]

    reversal = choose_reversal(estimate_rows)
    loo_report = None
    loo_note = "no feature shows opposite-sign group estimates"
    if reversal is not None:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            loo_report = loo_stability(records, reversal, prepared=prepared)
        loo_note = (
            f"{reversal.spec.view}:{reversal.spec.feature_name} "
            f"{reversal.group_a} vs {reversal.group_b}"
        )
    write_text(out / "loo.csv", loo_to_csv(loo_report, loo_note))

    per_dataset_rows = []
    for feature in view_features("motif"):
        spec = TreatmentSpec(view="motif", feature_name=feature)
        for dataset, stats in per_dataset_cate(records, spec, prepared=prepared).items():
            per_dataset_rows.append(
                {
                    "view": "motif",
                    "feature": feature,
                    "dataset": dataset,
                    "cate": None if not stats.defined else stats.cate,
                    "n_treated": stats.n_treated,
                    "n_control": stats.n_control,
                }
            )
    write_text(out / "per_dataset.csv", per_dataset_to_csv(per_dataset_rows))

    try:
        ceiling_doc = ceiling(records, seed=seed).to_json()
    except (ConfigError, DegenerateCellError) as exc:
        ceiling_doc = {"note": str(exc)}
    write_json(out / "ceiling.json", ceiling_doc)

    receptivity_doc = receptivity_section(records, estimate_rows)
    write_json(out / "receptivity.json", receptivity_doc)

    validity_doc = _validity_section(records, seed)

    provenance = {
        "artifact": {"name": "editfx", "version": __version__},
        "config": {
            "seed": seed,
            "alpha": alpha,
            "resamples": resamples,
            "min_cell": min_cell,
            "min_arm": min_arm,
            "scope": scope,
            "refit": refit,
            "percentile_p": percentile_p,
            "include_demos": include_demos,
        },
        "wordlists": {
            "version": prepared.wordlists.version,
            "sha256": prepared.wordlists.content_hash,
        },
        "ruleset": {
            "version": prepared.ruleset.version,
            "sha256": prepared.ruleset.content_hash,
        },
        "corpus": compute_stats(records).to_json(),
        "families": [
            {
                "name": family.name,
                "m": family.m,
                "excluded": [list(item) for item in family.excluded],
            }
            for family in families
        ],
        "estimation": {
            "skipped": estimates_doc["skipped"],
            "family_confounding": estimates_doc["family_confounding"],
        },
        "inference": {"skipped": inference_doc["skipped"]},
        "loo": {
            "selection": loo_note,
            "stable_count": loo_report.stable_count if loo_report else 0,
            "total": loo_report.total if loo_report else 0,
        },
        "construct_validity": validity_doc,
        "per_dataset_note": "naive per-dataset values are diagnostics only",
        "outputs": sorted([*BUNDLE_FILES, *family_files]),
    }
    write_json(out / "provenance.json", provenance)
    verify_bundle(out)
    return provenance


def receptivity_section(records: list[ComparisonRecord], estimate_rows: list[dict]) -> dict:
    annotated = any(
        r.annotations_before is not None and r.annotations_after is not None for r in records
    )
    if not annotated:
        return {"note": "receptivity requires annotation vectors; none present"}
    estimates_by_group: dict[str, dict[str, float]] = {}
    for row in estimate_rows:
        if row["view"] == "annotation":
            estimates_by_group.setdefault(row["task_group"], {})[row["feature"]] = row[
                "acmgd_sipw"
            ]
    if not estimates_by_group:
        return {"note": "no annotation-view estimates available"}
    frameworks = sorted({r.framework for r in records})
    scores = []
    notes = []
    for framework in frameworks:
        fingerprint = fingerprint_from_records(records, framework=framework)
        if not fingerprint:
            notes.append(f"framework '{framework}' has no fingerprint features over threshold")
            continue
        for group in sorted(estimates_by_group):
            try:
                score = receptivity(
                    estimates_by_group[group], fingerprint, group, optimizer=framework
                )
            except ConfigError as exc:
                notes.append(str(exc))
                continue
            scores.append(score.to_json())
    doc: dict = {"scores": scores}
    if notes:
        doc["notes"] = sorted(set(notes))
    return doc


def _validity_section(records: list[ComparisonRecord], seed: int) -> dict:
    try:
        results = construct_validity(records, seed=seed)
    except (ConfigError, DegenerateCellError) as exc:
        return {"note": str(exc)}
    return {
        "validated": sum(1 for r in results if r.validated),
        "total": len(results),
        "pairs": [
            {
                "annotation_feature": r.annotation_feature,
                "surface_feature": r.surface_feature,
                "rho": r.rho,
                "p_value": r.p_value,
                "n": r.n,
                "validated": r.validated,
            }
            for r in results
        ],
    }


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
    files = []
    for view in views:
        table_name = f"table_{view}.csv"
        heatmap_name = f"heatmap_{view}.csv"
        write_text(out / table_name, render_family_table(view, estimate_rows, inference_rows, alpha))
        write_text(out / heatmap_name, render_heatmap(view, estimate_rows))
        files += [table_name, heatmap_name]
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
