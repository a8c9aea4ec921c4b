"""Span arithmetic, replays and per-layer metrics for the traced run.

A span is ``[name, start, end, parent]`` with ``parent`` the index of
the enclosing span or -1. Everything here is a pure function of spans
and recorded call attributes, so the benchmark's self-tests can check
it on hand-made inputs.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np


def children_of(spans: list) -> dict[int, list[int]]:
    kids: dict[int, list[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        kids[span[3]].append(index)
    return kids


def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of [start, end] intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of it its direct children cover."""
    kids = children_of(spans)
    return [
        (end - start) - covered([(spans[k][1], spans[k][2]) for k in kids.get(index, ())])
        for index, (_, start, end, _) in enumerate(spans)
    ]


def lcs_cells(before: list[str], after: list[str]) -> tuple[int, int, int]:
    """Replay word_diff's table size: (rows, cols) after the common prefix.

    Returns (cells, rows, cols) with cells = (n - p + 1)(m - p + 1),
    p the common-prefix length, which is what ``_lcs_table`` allocates.
    """
    n, m = len(before), len(after)
    p = 0
    while p < n and p < m and before[p] == after[p]:
        p += 1
    rows, cols = n - p, m - p
    return (rows + 1) * (cols + 1), rows, cols


def lcs_table_mb(rows: int, cols: int) -> float:
    """int32 suffix table plus its int32 ``eq`` matrix, in MiB."""
    return 4 * ((rows + 1) * (cols + 1) + rows * cols) / 2**20


def distinct_draws(cell_seed: int, n_blocks: int, resamples: int) -> int:
    """Distinct block multisets among a cell's bootstrap draws.

    Replays ``default_rng([cell_seed, r]).integers(0, n_blocks, n_blocks)``
    exactly as the block bootstrap draws them.
    """
    seen = set()
    for r in range(resamples):
        drawn = np.random.default_rng([cell_seed, r]).integers(0, n_blocks, size=n_blocks)
        seen.add(np.bincount(drawn, minlength=n_blocks).tobytes())
    return len(seen)


def _sum(values) -> float:
    return float(sum(values))


def per_layer(spans: list, attrs: dict[int, dict], extra: dict) -> dict[str, float]:
    """Fold spans and their recorded attributes into the per-layer metrics.

    ``extra`` carries values measured outside the spans: import times,
    the replayed bootstrap draws, corpus bytes and bundle size.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        by_name[span[0]].append(index)

    def total(name: str) -> float:
        return _sum(spans[i][2] - spans[i][1] for i in by_name[name])

    def self_total(name: str) -> float:
        return _sum(selfs[i] for i in by_name[name])

    def attr_sum(indices: list[int], key: str) -> float:
        return _sum(attrs.get(i, {}).get(key, 0) for i in indices)

    def attr(name: str, key: str) -> float:
        return attr_sum(by_name[name], key)

    def fits_under(parent: str) -> list[int]:
        return [
            i
            for i in by_name["irls_logistic"]
            if spans[i][3] >= 0 and spans[spans[i][3]][0] == parent
        ]

    estimation_fits = fits_under("estimate_all")
    estimation_converged = attr_sum(estimation_fits, "converged")
    inference_fits = fits_under("infer_all")
    word_diffs = by_name["word_diff"]
    attempted = attr("infer_all", "attempted")
    valid = attr("infer_all", "valid")
    top_level = _sum(end - start for _, start, end, parent in spans if parent == -1)
    wall = extra["traced_wall_s"]
    return {
        "cli.import_s": extra["import_s"],
        "cli.import_scipy_stats_s": extra["import_scipy_stats_s"],
        "store.ingest_s": total("ingest"),
        "store.records": attr("ingest", "records"),
        "store.input_bytes": attr("ingest", "bytes"),
        "surface.extract_s": total("extract"),
        "surface.extract_calls": float(len(by_name["extract"])),
        "surface.chars": attr("extract", "chars"),
        "motifs.record_motifs_s": total("record_motifs"),
        "motifs.word_diff_s": total("word_diff"),
        "motifs.word_diff_calls": float(len(word_diffs)),
        "motifs.spans": attr("record_motifs", "spans"),
        "motifs.lcs_cells": attr("word_diff", "lcs_cells"),
        "motifs.lcs_table_mb_max": max(
            (attrs.get(i, {}).get("table_mb", 0.0) for i in word_diffs), default=0.0
        ),
        "design.enumerate_families_s": self_total("enumerate_families"),
        "design.units": extra["units"],
        "design.cells": attr("enumerate_families", "cells"),
        "design.cells_excluded": attr("enumerate_families", "excluded"),
        "estimation.estimate_all_s": total("estimate_all"),
        "estimation.cells": attr("estimate_all", "cells"),
        "estimation.skipped": attr("estimate_all", "skipped"),
        "estimation.irls_calls": float(len(estimation_fits)),
        "estimation.irls_s": _sum(spans[i][2] - spans[i][1] for i in estimation_fits),
        "estimation.irls_iterations": attr_sum(estimation_fits, "iterations"),
        "estimation.irls_nonconverged": len(estimation_fits) - estimation_converged,
        "inference.infer_all_s": self_total("infer_all"),
        "inference.resamples_attempted": attempted,
        "inference.resamples_valid": valid,
        "inference.resamples_discarded": attempted - valid,
        "inference.fits": float(len(inference_fits)),
        "inference.fits_s": _sum(spans[i][2] - spans[i][1] for i in inference_fits),
        "inference.blocks_per_cell": extra["blocks_per_cell"],
        "inference.distinct_draws": extra["distinct_draws"],
        "inference.reuse_share": 1.0 - extra["distinct_draws"] / attempted if attempted else 0.0,
        "robustness.loo_stability_s": total("loo_stability"),
        "robustness.loo_splits": attr("loo_stability", "splits"),
        "robustness.per_dataset_cate_s": total("per_dataset_cate"),
        "robustness.ceiling_s": total("ceiling"),
        "robustness.construct_validity_s": total("construct_validity"),
        "robustness.spearman_calls": extra["spearman_calls"],
        "report.run_report_s": total("run_report"),
        "report.self_s": self_total("run_report"),
        "report.files_written": extra["files_written"],
        "report.bytes_written": extra["bytes_written"],
        "trace.wall_s": wall,
        "trace.overhead_s": wall - extra["untraced_wall_s"],
        "trace.uncovered_s": wall - top_level - extra["import_s"],
    }


def import_times(importtime_log: str) -> tuple[float, float]:
    """Seconds spent importing editfx, and scipy.stats within it.

    Parses ``python -X importtime`` output: ``import time: self |
    cumulative | name``, nested imports indented by two spaces per level.
    """
    editfx_us = 0
    stats_us = 0
    for line in importtime_log.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        cumulative = int(parts[1])
        name = parts[2][1:]
        if name in ("editfx", "editfx.cli"):
            editfx_us += cumulative
        elif name.strip() == "scipy.stats" and not stats_us:
            stats_us = cumulative
    return editfx_us / 1e6, stats_us / 1e6
