"""Rewrite tests/bundle_manifest.json, the recorded bytes of each named case.

Usage, from the root of a checkout:

    PYTHONPATH=src python tests/update_manifest.py

A case is a corpus recipe (a ``perfbench`` workload at seed 7, or a
synth config) plus the ``editfx report`` flags it runs with. Each case
is built in process, the same way ``test_manifest.py`` rebuilds it, and
the manifest records the corpus's sha256, the exit code and stdout
sha256 of ``validate`` and ``report``, and the sha256 of every file the
bundle holds. For the cases in STAGED it also runs ``features`` and
``motifs`` with the report's flags, records the same for them and the
sha256 of every stage file they write, and records the files of a
``report --cache-dir`` over those caches. A change that means to move
bundle bytes reruns this script and names in ``CHANGES.md`` every case
and file that moved, and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for entry in (ROOT / "src", ROOT / "perfbench"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

# The CLI sets its BLAS pins on import; they hold only if numpy loads after it.
from editfx import cli  # noqa: E402
from editfx.store import serialize  # noqa: E402
from editfx.synth import SynthConfig, generate  # noqa: E402

import workloads  # noqa: E402

MANIFEST = Path(__file__).resolve().parent / "bundle_manifest.json"


def _cases() -> dict[str, tuple[dict, tuple[str, ...]]]:
    """Case name -> (corpus recipe, report flags)."""
    cases = {
        name: ({"workload": name, "seed": 7}, workloads.report_args(name, 7))
        for name in ("bench7", "manyblocks", "longtext")
    }
    for seed in (0, 7):
        for annotate in (False, True):
            name = f"synth{seed}" + ("-annotated" if annotate else "")
            flags = ("--seed", str(seed), "--resamples", "50")
            cases[name] = ({"synth": {"seed": seed, "annotate": annotate}}, flags)
    cases["synth0-annotated-pooled"] = (
        {"synth": {"seed": 0, "annotate": True}},
        ("--seed", "0", "--resamples", "50", "--scope", "pooled", "--no-refit",
         "--percentile-p", "--include-demos"),
    )
    return cases


CASES = _cases()
# Cases whose features and motifs stages are recorded too, with a report over their caches.
STAGED = ("longtext", "synth7-annotated")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv: list[str]) -> dict:
    """cli.main(argv) in process: its exit code and its stdout's sha256."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return {"exit_code": code, "stdout_sha256": _sha256(out.getvalue().encode())}


def _files(directory: Path) -> dict[str, str]:
    return {p.name: _sha256(p.read_bytes()) for p in sorted(directory.iterdir())}


def run_case(name: str, work: Path) -> dict:
    """Build case `name`'s corpus under `work`, validate it, report on it, hash what was made."""
    recipe, flags = CASES[name]
    if "workload" in recipe:
        corpus = workloads.build(recipe["workload"], recipe["seed"], work).path
    else:
        records, _ = generate(SynthConfig(**recipe["synth"]))
        corpus = work / "corpus.jsonl"
        serialize(records, corpus)
    found = {
        "corpus_sha256": _sha256(corpus.read_bytes()),
        "validate": _run(["validate", "--input", str(corpus)]),
    }
    # Each command's stdout names its output directory, so run them from `work`.
    cwd = Path.cwd()
    os.chdir(work)
    try:
        found["report"] = _run(["report", "--input", str(corpus), "--out", "bundle", *flags])
        found["files"] = _files(work / "bundle")
        if name in STAGED:
            for command in ("features", "motifs"):
                found[command] = _run([command, "--input", str(corpus), "--out", "stages", *flags])
            found["stage_files"] = _files(work / "stages")
            cached = ["report", "--input", str(corpus), "--out", "cached", "--cache-dir", "stages"]
            _run([*cached, *flags])
            found["cached_files"] = _files(work / "cached")
    finally:
        os.chdir(cwd)
    return found


def main() -> int:
    manifest = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in CASES:
            work = Path(tmp) / name
            work.mkdir()
            manifest[name] = run_case(name, work)
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {MANIFEST} ({len(manifest)} cases)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
