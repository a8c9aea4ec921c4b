"""Command-line entry point.

Subcommands run individual pipeline stages or compose the full report
bundle. Every analysis command takes its settings from one RunConfig
(defaults < --config file < flags); estimate, infer, loo, ceiling and
receptivity are views over report.Pipeline, and all but loo write their
files with the writer of the report bundle. Stage outputs
(features/motifs JSONL) are cached, keyed on what they were computed
from, so later stages can resume without recomputation. Each command imports what it runs when
it runs: `--version`, `--help` and argument errors load no editfx
module but the package, this one and `errors`, and `validate` adds
`store` alone.
Exit codes: 0 success, 1 validation failure, 2 internal error.
"""

from __future__ import annotations

import os
import platform
import sys

# One BLAS thread: a threaded BLAS sums in an order that depends on the
# thread count, so bundle bytes would depend on the host's cores. One
# OpenBLAS kernel on x86-64: a DYNAMIC_ARCH build otherwise picks its
# kernel by CPU, and the kernels round differently. This must run before
# anything imports numpy (which imports platform itself); OpenBLAS reads
# both only when it loads, so main() says so when numpy came first.
_PINS_MISSED = "numpy" in sys.modules
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
if platform.machine().lower() in ("x86_64", "amd64"):
    os.environ["OPENBLAS_CORETYPE"] = "Prescott"

import argparse  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import TYPE_CHECKING  # noqa: E402

from . import MOTIF_LABELS, __version__  # noqa: E402
from .errors import ConfigError, EditfxError  # noqa: E402

if TYPE_CHECKING:
    from .design import PreparedCorpus
    from .report import RunConfig


def _read_json(path: str, what: str):
    """The JSON document in a user-supplied file; a missing or undecodable one is a user error."""
    if not Path(path).is_file():
        raise ConfigError(f"{what} not found: {path}")
    try:
        return json.loads(Path(path).read_text("utf-8"))
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ConfigError(f"{what} is not valid JSON ({path}): {exc}") from exc


def _from_file(path: str, what: str, build):
    """build(the file's JSON document), where build's errors mean the document is invalid."""
    doc = _read_json(path, what)
    try:
        return build(doc)
    except (EditfxError, ValueError, KeyError, TypeError, AttributeError, re.error) as exc:
        raise ConfigError(f"{what} {path} is invalid: {exc}") from exc


def _artifact(path: str, what: str, key: str, numbers: tuple[str, ...]) -> None:
    """Check that a render-only input holds a JSON object with a `key` list of table rows.

    Each row must name its cell (a known view, a feature and a
    task_group, strings) and hold `numbers`, the values the tables
    print, so that a bad row fails before any output is written.
    """
    from .design import VIEWS

    doc = _read_json(path, what)
    if not (isinstance(doc, dict) and isinstance(doc.get(key), list)):
        raise ConfigError(f"{what} {path} holds no '{key}' list")
    names = ("view", "feature", "task_group")
    for index, row in enumerate(doc[key]):
        where = f"{what} {path}: {key} row {index}"
        if not isinstance(row, dict):
            raise ConfigError(f"{where} is not a JSON object")
        missing = [name for name in (*names, *numbers) if name not in row]
        if missing:
            raise ConfigError(f"{where} has no {', '.join(map(repr, missing))}")
        if not all(isinstance(row[name], str) for name in names):
            raise ConfigError(f"{where}: view, feature and task_group must be strings")
        if row["view"] not in VIEWS:
            raise ConfigError(f"{where}: unknown view {row['view']!r}")
        for name in numbers:
            if type(row[name]) not in (int, float):
                raise ConfigError(f"{where}: {name} must be a number")


def _load_run_config(path: str | None, args: argparse.Namespace) -> RunConfig:
    """Defaults, overlaid by the JSON config file, overlaid by flags."""
    from dataclasses import fields

    from .report import RunConfig

    values = {}
    if path is not None:
        doc = _read_json(path, "config file")
        if not isinstance(doc, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        unknown = set(doc) - {item.name for item in fields(RunConfig)}
        if unknown:
            raise EditfxError(f"unknown config keys: {sorted(unknown)}")
        values.update(doc)
    for item in fields(RunConfig):
        value = getattr(args, item.name, None)
        if value is not None:
            values[item.name] = value
    return RunConfig(**values)


def _analysis(args) -> tuple[RunConfig, PreparedCorpus]:
    """Run config and prepared corpus for a command with the common flags.

    The settings files are read and checked before the corpus is.
    """
    from .design import PreparedCorpus
    from .motifs import MotifRuleset, default_ruleset
    from .store import ingest
    from .surface import WordLists, default_wordlists

    cfg = _load_run_config(args.config, args)
    wordlists = default_wordlists()
    if args.wordlists:
        wordlists = _from_file(args.wordlists, "word-list file", WordLists.from_json)
    ruleset = default_ruleset()
    if args.ruleset:
        ruleset = _from_file(args.ruleset, "ruleset file", MotifRuleset)
    records, _ = ingest(args.input, strict=True)
    caches, stale = {}, []
    if args.cache_dir:
        cache = Path(args.cache_dir)
        loaded = {
            "surface_cache": _load_cache(
                cache / "features.jsonl",
                "feature",
                records,
                _keyer(wordlists.content_hash),
                _feature_sides,
            ),
            "motif_cache": _load_cache(
                cache / "motifs.jsonl",
                "motif",
                records,
                _keyer(ruleset.content_hash, cfg.include_demos),
                _motif_labels,
            ),
        }
        caches = {name: found for name, (found, _) in loaded.items()}
        stale = [note for _, note in loaded.values() if note]
    prepared = PreparedCorpus(
        records, wordlists, ruleset, cfg.include_demos, stale_caches=stale, **caches
    )
    return cfg, prepared


def _keyer(*settings):
    """record -> cache key over the version, the stage's settings and both prompts.

    Surface features read no demo text, so the feature stage's settings
    are its word-list hash alone; the motif stage's are its ruleset hash
    and whether demos are diffed.
    """
    import hashlib

    def key(record) -> str:
        states = [record.before.to_json(), record.after.to_json()]
        doc = [__version__, *settings, states]
        return hashlib.sha256(json.dumps(doc, sort_keys=True).encode("utf-8")).hexdigest()

    return key


def _write_stage(path: Path, records, lines, key) -> None:
    """One JSON line per record (`lines`, in `records` order), plus a sidecar of their keys."""
    from .report import write_json

    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(json.dumps(line, sort_keys=True))
            fh.write("\n")
    write_json(path.with_suffix(".keys.json"), {r.pair_id: key(r) for r in records})


def _feature_sides(doc: dict) -> tuple[list, list]:
    """A feature cache line's (before, after) vectors, lists of finite numbers in FEATURE_ORDER.

    A bool, a NaN, an infinity or an integer past a double's range is no feature value.
    """
    from .surface import FEATURE_ORDER

    before, after = ([doc[side][name] for name in FEATURE_ORDER] for side in ("before", "after"))
    if not all(type(v) in (int, float) and abs(v) <= sys.float_info.max for v in before + after):
        raise TypeError("a feature value is not a finite number")
    return before, after


def _motif_labels(doc: dict) -> dict[str, int]:
    """A motif cache line's inserted indicator for every label."""
    labels = doc["record_labels"]
    if not isinstance(labels, list):
        raise TypeError("record_labels is not a list")
    return {label: int(label in labels) for label in MOTIF_LABELS}


def _load_cache(path: Path, what: str, records, key, value) -> tuple[dict | None, dict | None]:
    """(pair_id -> value(line), None) from a stage cache, or (None, note) to recompute.

    The cache is ignored with a warning if it is malformed (a line that
    is not a JSON object with a pair_id, a line value rejects with
    KeyError, TypeError or ValueError, or a sidecar that is not a JSON
    object), and unless it covers every record and its sidecar holds
    key(record), the key this run would write, for each of them. The
    note of an ignored cache names its stage (the file's stem) and the
    reason; a missing cache has no note.
    """
    if not path.exists():
        return None, None
    keys_path = path.with_suffix(".keys.json")
    try:
        with path.open("r", encoding="utf-8") as fh:
            docs = {doc["pair_id"]: doc for doc in map(json.loads, fh)}
        values = {pair_id: value(doc) for pair_id, doc in docs.items()}
        keys = json.loads(keys_path.read_text("utf-8")) if keys_path.exists() else {}
        if not isinstance(keys, dict):
            raise TypeError("the key sidecar is not a JSON object")
    except (KeyError, TypeError, ValueError):
        reason = "is malformed"
    else:
        if any(r.pair_id not in docs for r in records):
            reason = "does not cover the corpus"
        elif any(keys.get(r.pair_id) != key(r) for r in records):
            reason = "was built from other inputs or settings"
        else:
            return {r.pair_id: values[r.pair_id] for r in records}, None
    warnings.warn(f"{what} cache {path} {reason}; recomputing")
    return None, {"stage": path.stem, "reason": reason}


def _check_out(path: str) -> None:
    """Reject an --out that is, or lies under, a file or a dangling link; creates nothing."""
    for where in (Path(path), *Path(path).parents):
        if where.exists() or where.is_symlink():
            if not where.is_dir():
                raise ConfigError(f"--out {path}: {where} is not a directory")
            return


def _out(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_validate(args) -> int:
    from .store import ingest

    _, stats = ingest(args.input, strict=not args.lenient)
    print(json.dumps(stats, indent=2, sort_keys=True))
    if args.lenient and stats["skipped_count"] and args.fail_on_skip:
        return 1
    return 0


def _cmd_features(args) -> int:
    from .surface import FEATURE_ORDER

    _, prepared = _analysis(args)
    records = prepared.records
    out = _out(args)

    def vector(row) -> dict:
        return dict(zip(FEATURE_ORDER, row.tolist()))

    lines = (
        {"pair_id": r.pair_id, "before": vector(b), "after": vector(a), "delta": vector(a - b)}
        for r, b, a in zip(records, *prepared.surface_arrays())
    )
    key = _keyer(prepared.wordlists.content_hash)
    _write_stage(out / "features.jsonl", records, lines, key)
    print(f"wrote {out / 'features.jsonl'} ({len(records)} records)")
    return 0


def _cmd_motifs(args) -> int:
    from .motifs import audit_sample, cooccurrence_matrix
    from .report import csv_text, write_text

    if args.audit_label and args.audit_k < 1:
        raise ConfigError(f"--audit-k must be >= 1, got {args.audit_k}")
    cfg, prepared = _analysis(args)
    records = prepared.records
    out = _out(args)
    results = prepared.motif_results()
    key = _keyer(prepared.ruleset.content_hash, cfg.include_demos)
    docs = (results[r.pair_id].to_json() for r in records)
    _write_stage(out / "motifs.jsonl", records, docs, key)
    matrix = cooccurrence_matrix([results[r.pair_id] for r in records])
    rates = ("rate_all", "rate_labeled")
    lines = (
        [*pair, count, *(f"{matrix[rate][pair]:.3f}" for rate in rates)]
        for pair, count in sorted(matrix["counts"].items())
    )
    header = ["label_a", "label_b", "count", *rates]
    write_text(out / "motif_cooccurrence.csv", csv_text(header, lines))
    if args.audit_label:
        sample = audit_sample(
            records, args.audit_label, k=args.audit_k, seed=cfg.seed, results=results
        )
        audit = csv_text(["pair_id", "span_text"], sample)
        write_text(out / f"audit_{args.audit_label}.csv", audit)
    print(f"wrote {out / 'motifs.jsonl'} ({len(records)} records)")
    return 0


def _pipeline(args, views: tuple[str, ...] | None = None):
    """The command's run, a report.Pipeline over `views` (all when None)."""
    from .report import VIEWS, Pipeline

    cfg, prepared = _analysis(args)
    return Pipeline(prepared, cfg, views or VIEWS)


def _cmd_estimate(args) -> int:
    pipeline = _pipeline(args)
    pipeline.write(_out(args), ["estimates.json", "estimates.csv"])
    doc = pipeline.estimates
    print(f"estimated {len(doc['estimates'])} cells, skipped {len(doc['skipped'])}")
    return 0


def _cmd_infer(args) -> int:
    pipeline = _pipeline(args)
    pipeline.write(_out(args), ["inference.json", "inference.csv"])
    doc = pipeline.inference
    print(f"tested {len(doc['results'])} cells, skipped {len(doc['skipped'])}")
    return 0


def _cmd_loo(args) -> int:
    from .design import TreatmentSpec
    from .report import loo_to_csv, write_text
    from .robustness import SignReversalSpec, loo_stability

    if (args.sign_a is None) != (args.sign_b is None):
        raise ConfigError("loo takes both --sign-a and --sign-b, or neither")
    reversal = SignReversalSpec(
        spec=TreatmentSpec(view=args.view, feature_name=args.feature),
        group_a=args.group_a,
        group_b=args.group_b,
        baseline_sign_a=args.sign_a,
        baseline_sign_b=args.sign_b,
    )
    loo = loo_stability(_pipeline(args, views=(args.view,)).families, reversal)
    write_text(_out(args) / "loo.csv", loo_to_csv(loo))
    print(f"stable {loo.stable_count}/{loo.total}")
    return 0


def _cmd_ceiling(args) -> int:
    pipeline = _pipeline(args)
    doc = pipeline.ceiling
    if "note" in doc:  # the report keeps the reason as a note; asked for alone, it is an error
        raise ConfigError(doc["note"])
    pipeline.write(_out(args), ["ceiling.json"])
    print(json.dumps(doc, sort_keys=True))
    return 0


def _cmd_receptivity(args) -> int:
    pipeline = _pipeline(args, views=("annotation",))
    pipeline.write(_out(args), ["receptivity.json"])
    print(json.dumps(pipeline.receptivity, sort_keys=True))
    return 0


def _cmd_synth(args) -> int:
    from .report import write_json
    from .store import serialize
    from .synth import SynthConfig, generate

    cfg = SynthConfig()
    if args.config:
        cfg = _from_file(args.config, "config file", SynthConfig.from_json)
    if args.seed is not None:
        cfg = SynthConfig.from_json({**cfg.to_json(), "seed": args.seed})
    records, truth = generate(cfg)
    out = _out(args)
    serialize(records, out / "corpus.jsonl")
    write_json(out / "ground_truth.json", truth.to_json())
    print(f"wrote {out / 'corpus.jsonl'} ({len(records)} records)")
    return 0


def _cmd_report(args) -> int:
    from dataclasses import asdict

    from .report import render_from_artifacts, run_report

    out = Path(args.out)
    if args.estimates:
        if args.input:
            raise EditfxError("report takes either --input or --estimates, not both")
        _artifact(args.estimates, "estimates file", "estimates", ("acmgd_sipw",))
        if args.inference:
            _artifact(args.inference, "inference file", "results", ("p_value", "q_value"))
        cfg = _load_run_config(args.config, args)
        render_from_artifacts(args.estimates, args.inference, out, alpha=cfg.alpha)
        print(f"rendered tables into {out}")
        return 0
    if not args.input:
        raise EditfxError("report needs either --input or --estimates")
    if args.inference:
        raise EditfxError("report takes --inference only with --estimates")
    cfg, prepared = _analysis(args)
    run_report(prepared, out, **asdict(cfg))
    print(f"wrote report bundle into {out}")
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", help="corpus JSONL path")
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
    if _PINS_MISSED:
        print(
            "note: numpy was loaded before editfx.cli, so the one-thread and OpenBLAS kernel"
            " pins do not apply; bundle floats may differ in their last bits",
            file=sys.stderr,
        )
    try:
        if getattr(args, "out", None) is not None:
            _check_out(args.out)
        return args.func(args)
    except EditfxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - internal failures
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
