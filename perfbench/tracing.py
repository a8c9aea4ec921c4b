"""Run ``editfx`` with its public layer functions wrapped in spans.

Usage (``src`` on PYTHONPATH):
``python -X importtime perfbench/tracing.py SPANS.json <editfx args>``

The wrappers are installed by rebinding module attributes in this
process only; no file of the program changes. Spans are kept in memory
and written once ``editfx`` returns. Small per-call counts are taken
right after a span closes; the bootstrap-draw replay, which costs real
time, runs after ``editfx`` returns.
"""

import sys
import time

import editfx.cli as cli  # first import, so -X importtime sees all of editfx

import functools  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

from editfx import design, estimation, motifs, report, robustness, store, surface  # noqa: E402
from editfx.inference import derive_cell_seed  # noqa: E402

import layers  # noqa: E402


class Tracer:
    """Records [name, start, end, parent] spans around wrapped calls."""

    def __init__(self):
        self.spans: list[list] = []
        self.attrs: dict[int, dict] = {}
        self.stack: list[int] = []
        self.calls: dict[str, int] = {}
        self.inferences: list[tuple[int, inspect.BoundArguments, object]] = []

    def wrap(self, module, attr: str, *also, post=None) -> None:
        """Replace module.attr (and the same name in ``also``) by a span wrapper.

        ``post(index, arguments, result)`` returns the span's attributes.
        """
        fn = getattr(module, attr)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = [attr, time.perf_counter(), None, self.stack[-1] if self.stack else -1]
            self.spans.append(span)
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                span[2] = time.perf_counter()
            if post is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.attrs[index] = post(index, bound.arguments, result)
            return result

        for target in (module, *also):
            setattr(target, attr, wrapper)

    def count(self, module, attr: str, units: bool = False) -> None:
        """Count calls to module.attr (and units built) without a span."""
        fn = getattr(module, attr)
        self.calls[attr] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[attr] += 1
            result = fn(*args, **kwargs)
            if units:
                self.calls["units"] = self.calls.get("units", 0) + len(result[0])
            return result

        setattr(module, attr, wrapper)

    def keep_inference(self, index, args, result) -> dict:
        self.inferences.append((index, args, result))
        return {"valid": sum(r.valid_resamples for r in result[0])}


def _word_diff(index, args, result) -> dict:
    cells, rows, cols = layers.lcs_cells(args["before_tokens"], args["after_tokens"])
    return {"lcs_cells": cells, "table_mb": layers.lcs_table_mb(rows, cols)}


def install(tracer: Tracer) -> None:
    tracer.wrap(
        store,
        "ingest",
        cli,
        post=lambda i, a, r: {"records": len(r[0]), "bytes": Path(a["path"]).stat().st_size},
    )
    tracer.wrap(
        surface, "extract", post=lambda i, a, r: {"chars": len(a["state"].instruction_text)}
    )
    tracer.wrap(motifs, "record_motifs", post=lambda i, a, r: {"spans": len(r.spans)})
    tracer.wrap(motifs, "word_diff", post=_word_diff)
    tracer.wrap(
        estimation,
        "irls_logistic",
        post=lambda i, a, r: {"converged": bool(r[1]), "iterations": int(r[2])},
    )
    tracer.wrap(report, "run_report")
    tracer.wrap(
        report,
        "enumerate_families",
        post=lambda i, a, r: {
            "cells": sum(len(f.cells) for f in r),
            "excluded": sum(len(f.excluded) for f in r),
        },
    )
    tracer.wrap(
        report,
        "estimate_all",
        post=lambda i, a, r: {"cells": len(r.estimates), "skipped": len(r.skipped)},
    )
    tracer.wrap(report, "infer_all", post=tracer.keep_inference)
    tracer.wrap(report, "loo_stability", post=lambda i, a, r: {"splits": len(r.splits)})
    tracer.wrap(report, "per_dataset_cate")
    tracer.wrap(report, "ceiling")
    tracer.wrap(report, "construct_validity")
    tracer.count(design, "build_units", units=True)
    tracer.count(robustness, "spearman")


def replay_inference(tracer: Tracer) -> dict:
    """Replay every tested cell's block draws; adds attempted counts to spans."""
    distinct = 0
    blocks = []
    for index, args, _ in tracer.inferences:
        attempted = 0
        for family in args["families"]:
            for cell in family.cells:
                n_blocks = len({unit.block_id for unit in cell.units})
                if n_blocks < 2:
                    continue
                blocks.append(n_blocks)
                attempted += args["resamples"]
                seed = derive_cell_seed(
                    args["master_seed"], cell.spec.view, cell.spec.feature_name, cell.task_group
                )
                distinct += layers.distinct_draws(seed, n_blocks, args["resamples"])
        tracer.attrs[index]["attempted"] = attempted
    return {
        "distinct_draws": float(distinct),
        "blocks_per_cell": float(sum(blocks) / len(blocks)) if blocks else 0.0,
        "spearman_calls": float(tracer.calls["spearman"]),
        "units": float(tracer.calls.get("units", 0)),
    }


def main(argv: list[str]) -> int:
    out = Path(argv[0])
    tracer = Tracer()
    install(tracer)
    code = cli.main(argv[1:])
    extra = replay_inference(tracer)
    doc = {"spans": tracer.spans, "attrs": tracer.attrs, "extra": extra}
    out.write_text(json.dumps(doc), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
