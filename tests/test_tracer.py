"""The benchmark tracer (perfbench/tracing.py) still runs the program it wraps.

The tracer rebinds public names of editfx and reads what they return, so a
change to those names or shapes shows up here rather than in a benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from editfx import estimation, report
from editfx.cli import main
from editfx.inference import derive_cell_seed
from editfx.store import serialize
from editfx.synth import SynthConfig, generate

from oracles import block_multisets, content_seeds

ROOT = Path(__file__).resolve().parent.parent


def bundle_bytes(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_traced_report_counts_units_and_keeps_the_bundle(tmp_path, monkeypatch):
    records, _ = generate(SynthConfig(n=120, seed=7))
    corpus = tmp_path / "corpus.jsonl"
    serialize(records, corpus)
    report_args = ["report", "--input", str(corpus), "--seed", "7", "--resamples", "20"]
    spans = tmp_path / "spans.json"
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracing.py"), str(spans), *report_args]
        + ["--out", str(tmp_path / "traced")],
        env={**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    traced = json.loads(spans.read_text())
    extra = traced["extra"]
    # 14 surface and 4 motif features keep every record; an unannotated
    # corpus gives the annotation view no rows.
    assert extra["units"] == 18 * 120
    assert extra["blocks_per_cell"] >= 2
    # The bootstrap fits each distinct block multiset that it does not
    # discard once; here no cell is skipped and no resample discarded.
    inference = json.loads((tmp_path / "traced" / "inference.json").read_text())
    assert inference["skipped"] == []
    assert all(row["discarded"] == 0 for row in inference["results"])
    # The plain run counts the populations each stacked fit under
    # infer_all takes (the rows of its weights).
    fits, inferring, families = [], [], []
    real_infer, real_newton = report.infer_all, estimation._newton

    def infer_all(*args, **kwargs):
        families.extend(args[0])
        inferring.append(True)
        try:
            return real_infer(*args, **kwargs)
        finally:
            inferring.pop()

    def newton(*args):
        if inferring:
            fits.append(len(args[2]))
        return real_newton(*args)

    monkeypatch.setattr(report, "infer_all", infer_all)
    monkeypatch.setattr(estimation, "_newton", newton)
    assert main([*report_args, "--out", str(tmp_path / "plain")]) == 0
    # Cells with the same rows and treatments share one bootstrap, seeded
    # by their first cell: one refit per distinct (cell data, kept multiset),
    # and each row reports its content's distinct draws.
    drawn = {
        data: block_multisets(data, seed, 20) for data, seed in content_seeds(families, 7).items()
    }
    pairs = {(id(data), key) for data, found in drawn.items() for key, kept in found.items() if kept}
    cells = [cell for family in families for cell in family.cells]
    distinct = sum(row["distinct_resamples"] for row in inference["results"])
    assert sum(fits) == len(pairs) <= sum(map(len, drawn.values()))
    assert distinct == sum(len(drawn[cell.data]) for cell in cells)
    # The tracer's distinct_draws still replays every cell with its own seed.
    per_cell = [
        block_multisets(
            cell.data,
            derive_cell_seed(7, cell.spec.view, cell.spec.feature_name, cell.task_group),
            20,
        )
        for cell in cells
    ]
    assert extra["distinct_draws"] == sum(map(len, per_cell))
    assert bundle_bytes(tmp_path / "traced") == bundle_bytes(tmp_path / "plain")
