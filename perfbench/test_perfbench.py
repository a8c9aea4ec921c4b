"""Self-tests of the benchmark's own logic: ``python -m pytest perfbench``."""

import hashlib

import numpy as np
import pytest

import layers
import run
import workloads
from editfx.motifs import record_motifs
from editfx.synth import TREATED_SPAN


@pytest.mark.parametrize("workload", ["bench7", "manyblocks", "longtext"])
def test_corpus_is_a_function_of_the_seed(tmp_path, workload):
    first = workloads.build(workload, 3, tmp_path / "a")
    again = workloads.build(workload, 3, tmp_path / "b")
    other = workloads.build(workload, 4, tmp_path / "c")
    assert first.sha256 == again.sha256 == hashlib.sha256(again.path.read_bytes()).hexdigest()
    assert first.recipe == again.recipe
    assert other.sha256 != first.sha256
    assert first.report_args[:2] == ("--seed", "3")


def test_longtext_plants_one_mid_prompt_span_per_treated_record(tmp_path):
    corpus = workloads.build("longtext", 1, tmp_path)
    records, _ = workloads.generate(workloads.synth_config("longtext", 1))
    rewritten = workloads.rewrite_longtext(records, 1)
    assert corpus.planted_spans == sum(TREATED_SPAN in r.after.instruction_text for r in rewritten)
    lengths = sorted(len(r.before.instruction_text.split()) for r in rewritten)
    assert lengths[-workloads.LONG_TAIL :] == [workloads.LONG_TOKENS] * workloads.LONG_TAIL
    assert lengths[0] == workloads.BODY_MIN
    short = [r for r in rewritten if len(r.before.instruction_text.split()) < 400][:40]
    for record in short:
        treated = TREATED_SPAN in record.after.instruction_text
        assert not record.after.instruction_text.endswith(TREATED_SPAN)
        assert record.before.demos == record.after.demos and record.before.demos
        result = record_motifs(record, include_demos=True)
        labels = [sorted(labels) for labels in result.labels_per_span]
        assert labels == ([["meta_instruction"]] if treated else [])


def test_self_time_subtracts_only_direct_children_coverage():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 3.0, 0],
        ["b", 2.0, 4.0, 0],  # overlaps a: together they cover 1..4
        ["c", 5.0, 6.0, 0],
        ["grandchild", 5.2, 5.8, 3],
        ["other_root", 11.0, 12.0, -1],
    ]
    assert layers.covered([(1.0, 3.0), (2.0, 4.0), (5.0, 6.0), (5.5, 5.9)]) == 4.0
    assert layers.self_times(spans) == pytest.approx([6.0, 2.0, 2.0, 0.4, 0.6, 1.0])


def test_lcs_cells_counts_the_table_after_the_common_prefix():
    assert layers.lcs_cells(list("ab"), list("ab")) == (1, 0, 0)
    assert layers.lcs_cells(list("ab"), list("abcd")) == (3, 0, 2)  # appended edit
    assert layers.lcs_cells(list("abc"), list("abxc")) == (6, 1, 2)
    assert layers.lcs_cells(list("xbc"), list("ybc")) == (16, 3, 3)
    # (1+1)(2+1) int32 table cells plus 1*2 int32 eq cells
    assert layers.lcs_table_mb(1, 2) == 4 * (6 + 2) / 2**20


def test_distinct_draws_replays_the_block_bootstrap():
    assert layers.distinct_draws(123, 1, 50) == 1
    # Two blocks have three multisets: {0,0}, {0,1}, {1,1}.
    assert layers.distinct_draws(123, 2, 50) == 3
    seen = {
        tuple(sorted(np.random.default_rng([99, r]).integers(0, 4, size=4))) for r in range(200)
    }
    assert layers.distinct_draws(99, 4, 200) == len(seen) <= 35


def _traced(spans, attrs, **extra):
    base = {
        "import_s": 1.0,
        "import_scipy_stats_s": 0.5,
        "distinct_draws": 3.0,
        "blocks_per_cell": 4.0,
        "spearman_calls": 0.0,
        "units": 0.0,
        "files_written": 0.0,
        "bytes_written": 0.0,
        "traced_wall_s": 20.0,
        "untraced_wall_s": 19.0,
    }
    return layers.per_layer(spans, attrs, {**base, **extra})


def test_per_layer_attributes_fits_by_parent_and_replays_reuse():
    spans = [
        ["ingest", 0.0, 1.0, -1],
        ["run_report", 1.0, 11.0, -1],
        ["estimate_all", 1.0, 2.0, 1],
        ["irls_logistic", 1.2, 1.4, 2],
        ["infer_all", 2.0, 10.0, 1],
        ["irls_logistic", 2.0, 3.0, 4],
        ["irls_logistic", 3.0, 5.0, 4],
        ["word_diff", 10.0, 10.5, 1],
    ]
    attrs = {
        0: {"records": 7, "bytes": 70},
        3: {"converged": True, "iterations": 5},
        4: {"attempted": 12, "valid": 10},
        5: {"converged": False, "iterations": 100},
        6: {"converged": True, "iterations": 3},
        7: {"lcs_cells": 6, "table_mb": 0.5},
    }
    got = _traced(spans, attrs)
    assert got["estimation.irls_calls"] == 1
    assert got["estimation.irls_iterations"] == 5
    assert got["estimation.irls_nonconverged"] == 0
    assert got["inference.fits"] == 2
    assert got["inference.fits_s"] == pytest.approx(3.0)
    assert got["inference.infer_all_s"] == pytest.approx(5.0)
    assert got["inference.resamples_discarded"] == 2
    assert got["inference.reuse_share"] == pytest.approx(1 - 3 / 12)
    assert got["report.self_s"] == pytest.approx(10.0 - 1.0 - 8.0 - 0.5)
    assert got["motifs.lcs_cells"] == 6
    assert got["trace.overhead_s"] == pytest.approx(1.0)
    assert got["trace.uncovered_s"] == pytest.approx(20.0 - 11.0 - 1.0)


def test_import_times_reads_top_level_editfx_and_nested_scipy_stats():
    log = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 | json",
            "import time:        50 |        300 |       scipy.stats",
            "import time:         9 |          9 |   editfx",
            "import time:        20 |       2000 | editfx.cli",
            "warning: something else",
        ]
    )
    assert layers.import_times(log) == (0.002, 0.0003)


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert run.tail_percentile(19) is None
    assert run.tail_percentile(20) == 50
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(1000) == 99
