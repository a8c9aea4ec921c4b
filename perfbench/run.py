"""Benchmark of ``editfx report``, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload bench7 --seed 7 --seconds 20 --trace 0

The seed makes the workload's corpus (see ``workloads.py``); the program
only ever sees the generated JSONL file. ``--trace 0`` times fresh
``python -m editfx.cli`` subprocesses: ``setup_s`` is the median of
several ``--version`` invocations, then ``report`` runs back to back
until ``--seconds`` have passed (at least once), each checked for
correctness. ``--trace 1`` pairs an untraced report with one run under
``tracing.py`` and prints the per-layer metrics. Metric names and units
come from ``BENCHMARK.json``. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Working files go to ``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import layers

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

RUN_LIMIT_S = 170.0
SETUP_RUNS = 3
# Criterion 01's tolerances: the weighted estimate within 0.015 of tau,
# the naive one more than 0.03 away. Applied to the mean over the
# task-group cells of motif:meta_instruction, whose per-cell error has
# an sd near 0.005 at n=600.
SIPW_TOLERANCE = 0.015
NAIVE_MIN_BIAS = 0.03


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    code: int


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.perf_counter() + seconds

    def left(self) -> float:
        return self.end - time.perf_counter()


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(cmd: list[str], log: Path, deadline: Deadline, stderr: Path | None = None) -> Sample:
    """Run one subprocess to completion; wall, CPU and peak RSS from rusage."""
    with log.open("wb") as out, open(stderr or os.devnull, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, stdout=out, stderr=err if stderr else subprocess.STDOUT, env=child_env(), cwd=ROOT
        )
        timer = threading.Timer(max(deadline.left(), 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        code=proc.returncode,
    )


def cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "editfx.cli", *args]


def tail(path: Path, lines: int = 5) -> str:
    return " | ".join(path.read_text("utf-8", "replace").splitlines()[-lines:])


def tree_digest(root: Path) -> str:
    """sha256 over every file's relative path and bytes, in sorted order."""
    h = hashlib.sha256()
    files = (p for p in root.rglob("*") if p.is_file() and "__pycache__" not in p.parts)
    for path in sorted(files):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def check_bundle(corpus, bundle: Path) -> list[str]:
    """Workload-independent and workload-specific checks of one bundle."""
    from editfx.errors import EditfxError
    from editfx.report import verify_bundle

    try:
        verify_bundle(bundle)
    except EditfxError as exc:
        return [f"verify_bundle: {exc}"]
    problems = []
    if corpus.workload == "longtext":
        with (bundle / "per_dataset.csv").open(encoding="utf-8") as fh:
            treated = sum(
                int(row["n_treated"])
                for row in csv.DictReader(fh)
                if row["view"] == "motif" and row["feature"] == "meta_instruction"
            )
        if treated != corpus.planted_spans:
            problems.append(
                f"motif:meta_instruction treated {treated} != planted spans {corpus.planted_spans}"
            )
        return problems
    rows = [
        row
        for row in json.loads((bundle / "estimates.json").read_text("utf-8"))["estimates"]
        if row["view"] == "motif" and row["feature"] == "meta_instruction"
    ]
    if not rows:
        return ["no motif:meta_instruction estimate"]
    sipw = statistics.fmean(row["acmgd_sipw"] for row in rows)
    bias = statistics.fmean(row["acmgd_naive"] for row in rows) - corpus.tau
    if abs(sipw - corpus.tau) >= SIPW_TOLERANCE:
        problems.append(f"acmgd_sipw {sipw:.4f} not within {SIPW_TOLERANCE} of tau {corpus.tau}")
    if abs(bias) <= NAIVE_MIN_BIAS or (bias > 0) != (corpus.expected_naive_bias > 0):
        problems.append(
            f"naive bias {bias:+.4f} lacks the expected {corpus.expected_naive_bias:+.4f}"
        )
    return problems


class Checker:
    """Checks each report and requires one bundle digest per workload and seed.

    Digests persist in the work directory, so a rerun of the same corpus
    on the same sources must also reproduce the bundle byte for byte.
    """

    def __init__(self, corpus, src_sha256: str):
        self.corpus = corpus
        self.registry_path = WORK / "digests.json"
        self.registry = (
            json.loads(self.registry_path.read_text("utf-8")) if self.registry_path.exists() else {}
        )
        self.key = f"{corpus.workload}:{corpus.seed}:{corpus.sha256}:{src_sha256}"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    @property
    def digest(self) -> str | None:
        return self.registry.get(self.key)

    def report(self, sample: Sample, bundle: Path, log: Path) -> bool:
        self.attempted += 1
        if sample.code != 0:
            problems = [f"exit code {sample.code}: {tail(log)}"]
        else:
            problems = check_bundle(self.corpus, bundle)
            digest = tree_digest(bundle)
            if self.digest is None:
                self.registry[self.key] = digest
                self.registry_path.write_text(json.dumps(self.registry, indent=1), "utf-8")
            elif digest != self.digest:
                problems.append(f"bundle digest {digest[:16]} != {self.digest[:16]}")
        self.problems += [f"{bundle.name}: {p}" for p in problems]
        self.failed += bool(problems)
        return not problems

    def setup(self, sample: Sample, log: Path) -> None:
        self.attempted += 1
        if sample.code != 0 or not log.read_text("utf-8").startswith("editfx "):
            self.problems.append(f"--version: exit {sample.code}: {tail(log)}")
            self.failed += 1


def timed_run(corpus, seconds: float, deadline: Deadline, checker: Checker) -> tuple[dict, dict]:
    run_dir = WORK / corpus.workload
    version_log = run_dir / "version.log"
    if not (SRC / "editfx" / "__pycache__").is_dir():
        run_child(cli("--version"), version_log, deadline)  # fill the bytecode cache
    setup = []
    for _ in range(SETUP_RUNS):
        sample = run_child(cli("--version"), version_log, deadline)
        checker.setup(sample, version_log)
        setup.append(sample.wall_s)
    reports: list[Sample] = []
    start = time.perf_counter()
    while True:
        bundle = run_dir / f"bundle-{len(reports)}"
        log = run_dir / f"report-{len(reports)}.log"
        args = ("report", "--input", str(corpus.path), "--out", str(bundle), *corpus.report_args)
        sample = run_child(cli(*args), log, deadline)
        reports.append(sample)
        ok = checker.report(sample, bundle, log)
        shutil.rmtree(bundle, ignore_errors=True)
        longest = max(s.wall_s for s in reports)
        if not ok or time.perf_counter() - start >= seconds or deadline.left() < 1.5 * longest:
            break
    samples = {
        "setup_s": setup,
        "wall_s": [s.wall_s for s in reports],
        "cpu_s": [s.cpu_s for s in reports],
        "peak_rss_mb": [s.peak_rss_mb for s in reports],
    }
    return {name: statistics.median(values) for name, values in samples.items()}, samples


def traced_run(corpus, seconds: float, deadline: Deadline, checker: Checker) -> tuple[dict, dict]:
    run_dir = WORK / corpus.workload
    pairs: list[dict] = []
    start = time.perf_counter()
    while True:
        k = len(pairs)
        args = ("report", "--input", str(corpus.path), *corpus.report_args)
        plain_bundle = run_dir / f"bundle-{k}"
        plain_log = run_dir / f"report-{k}.log"
        plain = run_child(cli(*args, "--out", str(plain_bundle)), plain_log, deadline)
        ok = checker.report(plain, plain_bundle, plain_log)
        traced_bundle = run_dir / f"traced-{k}"
        traced_log = run_dir / f"traced-{k}.log"
        importtime_log = run_dir / f"traced-{k}.importtime"
        spans_path = run_dir / f"spans-{k}.json"
        cmd = [
            sys.executable, "-X", "importtime", str(BENCH / "tracing.py"), str(spans_path),
            *args, "--out", str(traced_bundle),
        ]
        traced = run_child(cmd, traced_log, deadline, stderr=importtime_log)
        ok = checker.report(traced, traced_bundle, traced_log) and ok
        if not ok:
            break
        doc = json.loads(spans_path.read_text("utf-8"))
        import_s, stats_s = layers.import_times(importtime_log.read_text("utf-8"))
        files = [p for p in traced_bundle.rglob("*") if p.is_file()]
        extra = {
            **doc["extra"],
            "import_s": import_s,
            "import_scipy_stats_s": stats_s,
            "files_written": float(len(files)),
            "bytes_written": float(sum(p.stat().st_size for p in files)),
            "traced_wall_s": traced.wall_s,
            "untraced_wall_s": plain.wall_s,
        }
        attrs = {int(k): v for k, v in doc["attrs"].items()}
        pairs.append(layers.per_layer(doc["spans"], attrs, extra))
        for path in (plain_bundle, traced_bundle):
            shutil.rmtree(path, ignore_errors=True)
        longest = plain.wall_s + traced.wall_s
        if time.perf_counter() - start >= seconds or deadline.left() < 1.5 * longest:
            break
    samples = {name: [pair[name] for pair in pairs] for name in (pairs[0] if pairs else {})}
    return {name: statistics.median(values) for name, values in samples.items()}, samples


def read_commit() -> str | None:
    """HEAD's commit when the checkout is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(loadavg: tuple[float, float, float], src_sha256: str) -> dict:
    import numpy
    import scipy

    return {
        "commit": read_commit(),
        "src_sha256": src_sha256,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "thread_env": {
            name: os.environ.get(name)
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "loadavg_at_start": list(loadavg),
    }


def tail_percentile(n: int) -> int | None:
    """Highest of p50/p90/p95/p99 with at least ten samples beyond it."""
    supported = [p for p in (50, 90, 95, 99) if n * (100 - p) / 100 >= 10]
    return supported[-1] if supported else None


def print_table(samples: dict, units: dict, checker: Checker) -> None:
    print(f"{'metric':34} {'unit':6} {'median':>14} {'tail':>16} {'n':>4}")
    for name, values in samples.items():
        p = tail_percentile(len(values))
        tail_text = "-"
        if p is not None:
            tail_text = f"p{p} {statistics.quantiles(values, n=100)[p - 1]:.6g}"
        print(
            f"{name:34} {units.get(name, '?'):6} {statistics.median(values):>14.6g}"
            f" {tail_text:>16} {len(values):>4}"
        )
    rate = checker.failed / checker.attempted if checker.attempted else 1.0
    print(f"{'error_rate':34} {'1':6} {rate:>14.6g} {'-':>16} {checker.attempted:>4}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = Deadline(RUN_LIMIT_S)
    loadavg = os.getloadavg()

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "editfx" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no editfx sources or no BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text("utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload '{args.workload}' (one of {names})", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    src_sha256 = tree_digest(SRC / "editfx")

    import workloads

    shutil.rmtree(WORK / args.workload, ignore_errors=True)
    corpus = workloads.build(args.workload, args.seed, WORK / args.workload)
    checker = Checker(corpus, src_sha256)
    run = traced_run if args.trace else timed_run
    medians, samples = run(corpus, args.seconds, deadline, checker)
    if checker.failed == 0 and set(medians) != set(units):
        print(
            f"error: measured {sorted(medians)} but BENCHMARK.json lists {sorted(units)}",
            file=sys.stderr,
        )
        return 2

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "corpus": corpus.describe(),
        "bundle_sha256": checker.digest,
        "environment": environment(loadavg, src_sha256),
        "problems": checker.problems,
        "samples": samples,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), "utf-8"
    )
    shutil.rmtree(WORK / args.workload, ignore_errors=True)

    why = {w["name"]: w["why"] for w in spec["workloads"]}
    print(f"workload {args.workload}: {why[args.workload]}")
    print(json.dumps({k: record[k] for k in ("corpus", "bundle_sha256", "environment")}, indent=1))
    for problem in checker.problems:
        print(f"FAILED {problem}")
    print_table(samples, units, checker)
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            name: {"value": medians[name], "unit": units[name]} for name in units if name in medians
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
