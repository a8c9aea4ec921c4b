"""The benchmark tracer (perfbench/tracing.py) still runs the program it wraps.

The tracer rebinds public names of editfx and reads what they return, so a
change to those names or shapes shows up here rather than in a benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from editfx.cli import main
from editfx.store import serialize
from editfx.synth import SynthConfig, generate

ROOT = Path(__file__).resolve().parent.parent


def bundle_bytes(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_traced_report_counts_units_and_keeps_the_bundle(tmp_path):
    records, _ = generate(SynthConfig(n=120, seed=7))
    corpus = tmp_path / "corpus.jsonl"
    serialize(records, corpus)
    report = ["report", "--input", str(corpus), "--seed", "7", "--resamples", "20"]
    spans = tmp_path / "spans.json"
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracing.py"), str(spans), *report]
        + ["--out", str(tmp_path / "traced")],
        env={**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    extra = json.loads(spans.read_text())["extra"]
    # 14 surface and 4 motif features keep every record; an unannotated
    # corpus gives the annotation view no rows.
    assert extra["units"] == 18 * 120
    assert extra["blocks_per_cell"] >= 2
    assert main([*report, "--out", str(tmp_path / "plain")]) == 0
    assert bundle_bytes(tmp_path / "traced") == bundle_bytes(tmp_path / "plain")
