"""Command-line entry point.

Subcommands run individual pipeline stages or compose the full report
bundle. Stage outputs (features/motifs JSONL) are cached so later
stages can resume without recomputation. Exit codes: 0 success, 1
validation failure, 2 internal error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import warnings
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from . import __version__, report as report_mod
from .design import PreparedCorpus, TreatmentSpec, enumerate_families
from .errors import ConfigError, EditfxError
from .estimation import estimate_all
from .inference import infer_all
from .motifs import MOTIF_LABELS, MotifRuleset, audit_sample, cooccurrence_matrix
from .robustness import SignReversalSpec, baseline_cells, ceiling, loo_stability, sign_of
from .store import ingest, serialize
from .surface import WordLists, delta as surface_delta
from .synth import SynthConfig, generate

@dataclass(frozen=True)
class RunConfig:
    """Analysis settings: defaults, overlaid by a JSON config file, then flags."""

    seed: int = 0
    alpha: float = 0.05
    resamples: int = 500
    min_cell: int = 10
    min_arm: int = 3
    scope: str = "cell"
    refit: bool = True
    percentile_p: bool = False
    include_demos: bool = False
    workers: int = 1

    def __post_init__(self):
        for item in fields(self):
            value = getattr(self, item.name)
            kind = type(item.default)
            allowed = (int, float) if kind is float else kind
            if (isinstance(value, bool) and kind is not bool) or not isinstance(value, allowed):
                raise ConfigError(
                    f"config key '{item.name}' must be {kind.__name__}, got {value!r}"
                )


def _require_file(path: str, what: str) -> str:
    if not Path(path).is_file():
        raise EditfxError(f"{what} not found: {path}")
    return path


def _load_run_config(path: str | None, args: argparse.Namespace) -> RunConfig:
    """Defaults, overlaid by the JSON config file, overlaid by flags."""
    values = {}
    if path is not None:
        _require_file(path, "config file")
        try:
            doc = json.loads(Path(path).read_text("utf-8"))
        except json.JSONDecodeError as exc:
            raise EditfxError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise EditfxError("config file must hold a JSON object")
        unknown = set(doc) - {item.name for item in fields(RunConfig)}
        if unknown:
            raise EditfxError(f"unknown config keys: {sorted(unknown)}")
        values.update(doc)
    for item in fields(RunConfig):
        value = getattr(args, item.name, None)
        if value is not None:
            values[item.name] = value
    return RunConfig(**values)


def _prepared(records, args) -> PreparedCorpus:
    wordlists = None
    if getattr(args, "wordlists", None):
        wordlists = WordLists.load(_require_file(args.wordlists, "word-list file"))
    ruleset = None
    if getattr(args, "ruleset", None):
        ruleset = MotifRuleset.load(_require_file(args.ruleset, "ruleset file"))
    surface_cache = None
    motif_cache = None
    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir:
        cache = Path(cache_dir)
        surface_cache = _load_feature_cache(cache / "features.jsonl", records)
        motif_cache = _load_motif_cache(cache / "motifs.jsonl", records)
    return PreparedCorpus(
        records,
        wordlists=wordlists,
        ruleset=ruleset,
        include_demos=bool(getattr(args, "include_demos", False)),
        surface_cache=surface_cache,
        motif_cache=motif_cache,
    )


def _load_feature_cache(path: Path, records) -> dict | None:
    if not path.exists():
        return None
    cache = {}
    with path.open("r", encoding="utf-8") as fh:
        for line in fh:
            doc = json.loads(line)
            cache[doc["pair_id"]] = (doc["before"], doc["after"])
    if any(r.pair_id not in cache for r in records):
        warnings.warn(f"feature cache {path} does not cover the corpus; recomputing")
        return None
    return cache


def _load_motif_cache(path: Path, records) -> dict | None:
    if not path.exists():
        return None
    cache = {}
    with path.open("r", encoding="utf-8") as fh:
        for line in fh:
            doc = json.loads(line)
            labels = set(doc["record_labels"])
            cache[doc["pair_id"]] = {label: int(label in labels) for label in MOTIF_LABELS}
    if any(r.pair_id not in cache for r in records):
        warnings.warn(f"motif cache {path} does not cover the corpus; recomputing")
        return None
    return cache


def _cmd_validate(args) -> int:
    records, stats = ingest(args.input, strict=not args.lenient)
    print(json.dumps(stats.to_json(), indent=2, sort_keys=True))
    if args.lenient and stats.skipped_count and args.fail_on_skip:
        return 1
    return 0


def _cmd_features(args) -> int:
    records, _ = ingest(args.input, strict=True)
    prepared = _prepared(records, args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with (out / "features.jsonl").open("w", encoding="utf-8", newline="\n") as fh:
        for record in records:
            before_vec, after_vec = prepared.surface_pair(record)
            fh.write(
                json.dumps(
                    {
                        "pair_id": record.pair_id,
                        "before": before_vec,
                        "after": after_vec,
                        "delta": surface_delta(before_vec, after_vec),
                    },
                    sort_keys=True,
                )
            )
            fh.write("\n")
    print(f"wrote {out / 'features.jsonl'} ({len(records)} records)")
    return 0


def _cmd_motifs(args) -> int:
    records, _ = ingest(args.input, strict=True)
    prepared = _prepared(records, args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    results = prepared.motif_results()
    with (out / "motifs.jsonl").open("w", encoding="utf-8", newline="\n") as fh:
        for record in records:
            fh.write(json.dumps(results[record.pair_id].to_json(), sort_keys=True))
            fh.write("\n")
    matrix = cooccurrence_matrix([results[r.pair_id] for r in records])
    with (out / "motif_cooccurrence.csv").open("w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["label_a", "label_b", "count", "rate_all", "rate_labeled"])
        for pair in sorted(matrix["counts"]):
            writer.writerow(
                [
                    pair[0],
                    pair[1],
                    matrix["counts"][pair],
                    f"{matrix['rate_all'][pair]:.3f}",
                    f"{matrix['rate_labeled'][pair]:.3f}",
                ]
            )
    if args.audit_label:
        sample = audit_sample(
            records,
            args.audit_label,
            k=args.audit_k,
            seed=args.seed if args.seed is not None else 0,
            results=results,
        )
        with (out / f"audit_{args.audit_label}.csv").open(
            "w", encoding="utf-8", newline="\n"
        ) as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["pair_id", "span_text"])
            writer.writerows(sample)
    print(f"wrote {out / 'motifs.jsonl'} ({len(records)} records)")
    return 0


def _cmd_estimate(args) -> int:
    records, _ = ingest(args.input, strict=True)
    cfg = _load_run_config(args.config, args)
    prepared = _prepared(records, args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        families = enumerate_families(
            records, min_cell=cfg.min_cell, min_arm=cfg.min_arm, prepared=prepared
        )
    bundle = estimate_all(families, scope=cfg.scope, workers=cfg.workers)
    doc = report_mod.estimates_to_json(bundle)
    report_mod.write_json(out / "estimates.json", doc)
    report_mod.write_text(out / "estimates.csv", report_mod.estimates_to_csv(doc["estimates"]))
    print(f"estimated {len(doc['estimates'])} cells, skipped {len(doc['skipped'])}")
    return 0


def _cmd_infer(args) -> int:
    records, _ = ingest(args.input, strict=True)
    cfg = _load_run_config(args.config, args)
    prepared = _prepared(records, args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        families = enumerate_families(
            records, min_cell=cfg.min_cell, min_arm=cfg.min_arm, prepared=prepared
        )
    results, skipped = infer_all(
        families,
        master_seed=cfg.seed,
        resamples=cfg.resamples,
        alpha=cfg.alpha,
        refit=cfg.refit,
        percentile_p=cfg.percentile_p,
        workers=cfg.workers,
    )
    doc = report_mod.inference_to_json(results, skipped, cfg.alpha)
    report_mod.write_json(out / "inference.json", doc)
    report_mod.write_text(
        out / "inference.csv", report_mod.inference_to_csv(doc["results"], cfg.alpha)
    )
    print(f"tested {len(results)} cells, skipped {len(skipped)}")
    return 0


def _cmd_loo(args) -> int:
    records, _ = ingest(args.input, strict=True)
    prepared = _prepared(records, args)
    spec = TreatmentSpec(view=args.view, feature_name=args.feature)
    if args.sign_a is None or args.sign_b is None:
        groups = (args.group_a, args.group_b)
        _, baselines = baseline_cells(records, spec, groups, prepared)
        sign_a, sign_b = (sign_of(value) for value in baselines)
    else:
        sign_a, sign_b = args.sign_a, args.sign_b
    reversal = SignReversalSpec(
        spec=spec,
        group_a=args.group_a,
        group_b=args.group_b,
        baseline_sign_a=sign_a,
        baseline_sign_b=sign_b,
    )
    loo = loo_stability(records, reversal, prepared=prepared)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report_mod.write_text(out / "loo.csv", report_mod.loo_to_csv(loo))
    print(f"stable {loo.stable_count}/{loo.total}")
    return 0


def _cmd_ceiling(args) -> int:
    records, _ = ingest(args.input, strict=True)
    result = ceiling(records, seed=args.seed if args.seed is not None else 0)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report_mod.write_json(out / "ceiling.json", result.to_json())
    print(json.dumps(result.to_json(), sort_keys=True))
    return 0


def _cmd_receptivity(args) -> int:
    records, _ = ingest(args.input, strict=True)
    cfg = _load_run_config(args.config, args)
    prepared = _prepared(records, args)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        families = enumerate_families(
            records,
            min_cell=cfg.min_cell,
            min_arm=cfg.min_arm,
            views=("annotation",),
            prepared=prepared,
        )
    rows = []
    if families:
        bundle = estimate_all(families, scope=cfg.scope, workers=cfg.workers)
        rows = report_mod.estimates_to_json(bundle)["estimates"]
    doc = report_mod.receptivity_section(records, rows)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report_mod.write_json(out / "receptivity.json", doc)
    print(json.dumps(doc, sort_keys=True))
    return 0


def _cmd_synth(args) -> int:
    cfg = SynthConfig()
    if args.config:
        cfg = SynthConfig.from_file(_require_file(args.config, "config file"))
    if args.seed is not None:
        cfg = SynthConfig.from_json({**cfg.to_json(), "seed": args.seed})
    records, truth = generate(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    serialize(records, out / "corpus.jsonl")
    report_mod.write_json(out / "ground_truth.json", truth.to_json())
    print(f"wrote {out / 'corpus.jsonl'} ({len(records)} records)")
    return 0


def _cmd_report(args) -> int:
    out = Path(args.out)
    if args.estimates:
        if args.input:
            raise EditfxError("report takes either --input or --estimates, not both")
        _require_file(args.estimates, "estimates file")
        if args.inference:
            _require_file(args.inference, "inference file")
        report_mod.render_from_artifacts(
            args.estimates,
            args.inference,
            out,
            alpha=args.alpha if args.alpha is not None else 0.05,
        )
        print(f"rendered tables into {out}")
        return 0
    if not args.input:
        raise EditfxError("report needs either --input or --estimates")
    records, _ = ingest(args.input, strict=True)
    cfg = _load_run_config(args.config, args)
    prepared = _prepared(records, args)
    report_mod.run_report(records, out, prepared=prepared, **asdict(cfg))
    print(f"wrote report bundle into {out}")
    return 0


def _add_common(parser: argparse.ArgumentParser, with_out: bool = True) -> None:
    parser.add_argument("--input", help="corpus JSONL path")
    if with_out:
        parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--config", help="JSON run-config file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--alpha", type=float, default=None)
    parser.add_argument("--resamples", type=int, default=None)
    parser.add_argument("--min-cell", dest="min_cell", type=int, default=None)
    parser.add_argument("--min-arm", dest="min_arm", type=int, default=None)
    parser.add_argument("--scope", choices=("cell", "pooled"), default=None)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--wordlists", help="word-list JSON override")
    parser.add_argument("--ruleset", help="motif ruleset JSON override")
    parser.add_argument("--cache-dir", dest="cache_dir", help="stage cache directory")
    parser.add_argument(
        "--include-demos",
        dest="include_demos",
        action="store_const",
        const=True,
        default=None,
        help="diff demo text too, not just instructions",
    )
    parser.add_argument(
        "--no-refit",
        dest="refit",
        action="store_const",
        const=False,
        default=None,
        help="reuse point-estimate weights inside bootstrap resamples",
    )
    parser.add_argument(
        "--percentile-p",
        dest="percentile_p",
        action="store_const",
        const=True,
        default=None,
        help="percentile bootstrap p-values instead of the normal approximation",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="editfx",
        description="Associational analysis of prompt-optimization edit logs.",
    )
    parser.add_argument("--version", action="version", version=f"editfx {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a corpus file")
    p.add_argument("--input", required=True)
    p.add_argument("--lenient", action="store_true", help="skip bad lines instead of aborting")
    p.add_argument("--fail-on-skip", action="store_true")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("features", help="extract surface-feature vectors")
    _add_common(p)
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("motifs", help="diff prompts and classify inserted spans")
    _add_common(p)
    p.add_argument("--audit-label", choices=MOTIF_LABELS)
    p.add_argument("--audit-k", type=int, default=50)
    p.set_defaults(func=_cmd_motifs)

    p = sub.add_parser("estimate", help="per-cell weighted estimates")
    _add_common(p)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("infer", help="bootstrap inference with FDR tiers")
    _add_common(p)
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("loo", help="leave-one-dataset-out stability")
    _add_common(p)
    p.add_argument("--view", required=True, choices=("annotation", "surface", "motif"))
    p.add_argument("--feature", required=True)
    p.add_argument("--group-a", dest="group_a", required=True)
    p.add_argument("--group-b", dest="group_b", required=True)
    p.add_argument("--sign-a", dest="sign_a", choices=("+", "-"))
    p.add_argument("--sign-b", dest="sign_b", choices=("+", "-"))
    p.set_defaults(func=_cmd_loo)

    p = sub.add_parser("ceiling", help="headroom-vs-gain diagnostics")
    _add_common(p)
    p.set_defaults(func=_cmd_ceiling)

    p = sub.add_parser("receptivity", help="optimizer-task receptivity scores")
    _add_common(p)
    p.set_defaults(func=_cmd_receptivity)

    p = sub.add_parser("synth", help="generate a synthetic benchmark corpus")
    p.add_argument("--config", help="synthetic config JSON")
    p.add_argument(
        "--out", required=True, help="output directory (corpus.jsonl + ground_truth.json)"
    )
    p.add_argument("--seed", type=int, default=None, help="overrides the config seed")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("report", help="compose the full report bundle")
    _add_common(p)
    p.add_argument("--estimates", help="render-only: estimates.json path")
    p.add_argument("--inference", help="render-only: inference.json path")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EditfxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - internal failures
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
