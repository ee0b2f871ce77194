"""Benchmark of eqshares: `batch` then `aggregate` through the real CLI.

Run from the repository root (the package need not be installed)::

    python3 perfbench/run.py --workload spatial --seed 0 --seconds 20 --trace 0

The run generates its workload's corpus from ``--seed`` (set-up, repeated
and timed), then runs passes of ``eqshares.cli.main(["batch", ...,
"--parallelism", "1"])`` followed by ``main(["aggregate", ...])`` in this
process until ``--seconds`` have passed, and checks every output (see
``checks.py``). With ``--trace 0`` it reports the end-to-end metrics of
BENCHMARK.json as medians over set-ups and passes. Their times are scaled to
a fixed reference host speed, measured while they run (see ``hostspeed.py``);
the unscaled times are printed and kept in the full result. With ``--trace 1`` it
runs one untraced pass and one traced pass and reports the per-layer
metrics of the traced pass (see ``tracing.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``attempted``
counts (instance, rule) cells plus aggregate outputs over all passes;
``failed`` counts those that are missing or fail a check. The full result,
with the seed, corpus hash, git sha, Python version and CPU count, is also
written under ``.perfbench/results/``; traced runs write their spans under
``.perfbench/spans/``.

``--update-reference`` rewrites ``reference/<workload>.json`` from this
run's outputs, for the pinned seed, after the seed-independent checks pass.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

import checks
import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

# Set-up repeats until both floors are met (or the cap), so that its
# median takes samples spread over a few seconds of host speed drift.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0
SETUP_MAX_REPEATS = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    model: str
    rules: str
    setup: Callable[[Path, int], None]


def _workloads() -> dict[str, Workload]:
    import corpus

    def spatial(out: Path, seed: int) -> None:
        corpus.gen_spatial(out / "corpus", seed)

    def fixtures(out: Path, seed: int) -> None:
        corpus.copy_fixtures(ROOT / "tests" / "fixtures", out / "corpus")

    def approval_wide(out: Path, seed: int) -> None:
        corpus.write_wide_corpus(out / "corpus", seed)
        corpus.write_archive_sources(out / "archive_src", seed)
        corpus.write_archive(out / "archive_src", out / "archive.jsonl")

    return {
        "spatial": Workload("spatial", "score", "all", spatial),
        "fixtures": Workload("fixtures", "cost", "all", fixtures),
        "approval-wide": Workload(
            "approval-wide", "cost", "utilitarian,mes", approval_wide
        ),
    }


@dataclass
class Pass:
    batch: tuple[float, float]      # (start, end) on perf_counter
    aggregate: tuple[float, float]
    records: Path
    aggregate_out: Path
    codes: tuple[int, int]

    @property
    def batch_s(self) -> float:
        return self.batch[1] - self.batch[0]

    @property
    def aggregate_s(self) -> float:
        return self.aggregate[1] - self.aggregate[0]


def run_pass(wl: Workload, setup_dir: Path, out_dir: Path, k: int,
             tracer=None) -> Pass:
    """One `batch` over the corpus, then one `aggregate` of its records.

    For approval-wide the aggregate input is the archive followed by the
    batch records; writing it is not timed.
    """
    from eqshares.cli import main

    def span(name):
        return tracer.span(name, "none") if tracer is not None else nullcontext()

    records = out_dir / f"records-{k}.jsonl"
    aggregate_out = out_dir / f"aggregate-{k}.csv"
    start = perf_counter()
    with span("cli.batch"):
        code_b = main([
            "batch", str(setup_dir / "corpus"), "--model", wl.model,
            "--rules", wl.rules, "--parallelism", "1", "--out", str(records),
        ])
    batch = (start, perf_counter())
    aggregate_in = records
    archive = setup_dir / "archive.jsonl"
    if archive.exists() and records.exists():
        aggregate_in = out_dir / f"aggregate-in-{k}.jsonl"
        with open(aggregate_in, "wb") as handle:
            handle.write(archive.read_bytes())
            handle.write(records.read_bytes())
    start = perf_counter()
    with span("cli.aggregate"):
        code_a = main(["aggregate", str(aggregate_in), "--out", str(aggregate_out)])
    aggregate = (start, perf_counter())
    return Pass(batch, aggregate, records, aggregate_out, (code_b, code_a))


def timed_setups(wl: Workload, seed: int,
                 work: Path) -> tuple[Path, list[tuple[float, float]]]:
    """Repeat the set-up in fresh directories; keep the last one.

    Returns the kept directory and each set-up's (start, end).
    """
    intervals: list[tuple[float, float]] = []
    while True:
        target = work / f"setup-{len(intervals)}"
        start = perf_counter()
        wl.setup(target, seed)
        intervals.append((start, perf_counter()))
        done = (len(intervals) >= SETUP_MIN_REPEATS
                and sum(b - a for a, b in intervals) >= SETUP_MIN_SECONDS)
        if done or len(intervals) >= SETUP_MAX_REPEATS:
            return target, intervals
        shutil.rmtree(target)


def _read_jsonl(path: Path) -> list[dict]:
    if not path.exists():
        return []
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


class Verdict:
    """Counts of checked operations, plus the problems found."""

    def __init__(self, wl: Workload, setup_dir: Path, update: bool) -> None:
        import corpus
        from eqshares.cli import BENCH_RULES

        self.corpus = {
            p.stem: checks.read_instance(p)
            for p in sorted((setup_dir / "corpus").glob("*.pb"))
        }
        self.rules = BENCH_RULES if wl.rules == "all" else tuple(wl.rules.split(","))
        self.corpus_sha256 = corpus.corpus_sha256(
            *(d for d in (setup_dir / "corpus", setup_dir / "archive_src")
              if d.exists()))
        self.archive = _read_jsonl(setup_dir / "archive.jsonl")
        self.reference_path = HERE / "reference" / f"{wl.name}.json"
        self.reference: Optional[dict] = None
        if self.reference_path.exists() and not update:
            ref = json.loads(self.reference_path.read_text(encoding="utf-8"))
            if ref["corpus_sha256"] == self.corpus_sha256:
                self.reference = ref
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_digests: Optional[dict[str, str]] = None
        self.cells = 0
        self.first_aggregate: Optional[str] = None
        self.skipped_files = 0

    def check(self, p: Pass) -> None:
        if p.codes != (0, 0):
            self.problems.append(f"exit codes (batch, aggregate) = {p.codes}")
        records = _read_jsonl(p.records)
        self.skipped_files = len(
            set(self.corpus) - {r["instance"] for r in records})
        if self.first_digests is None:
            ref = self.reference["cells"] if self.reference else None
            report = checks.check_cells(records, self.corpus, self.rules, ref)
            self.first_digests = report.digests
            self.cells = report.attempted
            self.attempted += report.attempted
            self.failed += report.failed
            self.problems.extend(report.problems)
        else:
            # Later passes must repeat the first pass's records exactly.
            got: dict[str, list[dict]] = {}
            for r in records:
                got.setdefault(checks.cell_key(r["instance"], r["rule"]), []).append(r)
            differ = [
                key for key, digest in self.first_digests.items()
                if len(got.get(key, [])) != 1
                or checks.record_digest(got[key][0]) != digest
            ]
            self.attempted += self.cells
            self.failed += len(differ) + self.cells - len(self.first_digests)
            self.problems.extend(f"{key}: differs from the first pass"
                                 for key in differ)
        self.attempted += 1
        text = p.aggregate_out.read_text(encoding="utf-8") \
            if p.aggregate_out.exists() else ""
        problems = (["aggregate wrote no output"] if not text else
                    checks.aggregate_problems(
                        text, self.archive + records,
                        self.reference["aggregate"] if self.reference else None))
        if self.first_aggregate is None and text:
            self.first_aggregate = checks.aggregate_digest(text)
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def write_reference(self, seed: int) -> None:
        if self.problems:
            raise SystemExit("not writing a reference from a failing run")
        self.reference_path.parent.mkdir(exist_ok=True)
        self.reference_path.write_text(json.dumps({
            "seed": seed,
            "corpus_sha256": self.corpus_sha256,
            "cells": self.first_digests,
            "aggregate": self.first_aggregate,
        }, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def records_bytes_out(path: Path) -> int:
    """Bytes `batch` wrote, less the digits of each ``runtime_sec`` value.

    Without those digits the count repeats exactly between runs.
    """
    if not path.exists():
        return 0
    total = 0
    with open(path, "rb") as handle:
        for line in handle:
            runtime = json.loads(line)["runtime_sec"]
            total += len(line) - len(json.dumps(runtime))
    return total


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(seed: int, corpus_sha256: str) -> dict:
    sha = None
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.split()
        # A checkout without .git may sit inside some other repository.
        if Path(top).resolve() == ROOT:
            sha = head
    except (OSError, ValueError, subprocess.SubprocessError):
        pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        source.update(path.read_bytes())
    return {
        "seed": seed,
        "corpus_sha256": corpus_sha256,
        "git_sha": sha,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def measure(wl: Workload, seed: int, seconds: int, work: Path,
            update: bool) -> tuple[dict, Verdict]:
    """Time set-ups and passes, scaled to the reference host speed."""
    sampler = hostspeed.Sampler()
    out = work / "out"
    out.mkdir()
    passes: list[Pass] = []
    with sampler.running():
        setup_dir, setups = timed_setups(wl, seed, work)
        start = perf_counter()
        while not passes or perf_counter() - start < seconds:
            passes.append(run_pass(wl, setup_dir, out, len(passes)))
    setup_s = [sampler.scaled(*interval) for interval in setups]
    batch_s = [sampler.scaled(*p.batch) for p in passes]
    aggregate_s = [sampler.scaled(*p.aggregate) for p in passes]
    metrics = {
        "setup_s": statistics.median(setup_s),
        "batch_s": statistics.median(batch_s),
        "pipeline_s": statistics.median(map(sum, zip(batch_s, aggregate_s))),
        "peak_rss_mib": peak_rss_mib(),
    }
    verdict = Verdict(wl, setup_dir, update)
    for p in passes:
        verdict.check(p)
    kernel_s = [duration for _, duration in sampler.samples]
    detail = {
        "aggregate_s": statistics.median(aggregate_s),
        "host_speed": hostspeed.REFERENCE_S * statistics.mean(
            1.0 / s for s in kernel_s),
        "setup_s_samples": setup_s,
        "batch_s_samples": batch_s,
        "aggregate_s_samples": aggregate_s,
        "raw_setup_s_samples": [b - a for a, b in setups],
        "raw_batch_s_samples": [p.batch_s for p in passes],
        "raw_aggregate_s_samples": [p.aggregate_s for p in passes],
        "kernel_s_samples": kernel_s,
    }
    return {"metrics": metrics, "detail": detail}, verdict


def measure_traced(wl: Workload, seed: int, work: Path,
                   update: bool) -> tuple[dict, Verdict]:
    import tracing

    setup_tracer = tracing.Tracer()
    setup_dir = work / "setup-0"
    with setup_tracer.installed():
        wl.setup(setup_dir, seed)
    out = work / "out"
    out.mkdir()
    base = run_pass(wl, setup_dir, out, 0)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = run_pass(wl, setup_dir, out, 1, tracer)
    verdict = Verdict(wl, setup_dir, update)
    verdict.check(base)
    verdict.check(traced)
    traced_s = traced.batch_s + traced.aggregate_s
    roots = sum(end - start for _, start, end, parent, _ in tracer.spans
                if parent < 0)
    metrics = tracing.layer_metrics(tracer)
    metrics.update(tracing.setup_metrics(setup_tracer))
    metrics.update({
        "stats.records_bytes_out": records_bytes_out(traced.records),
        "cli.skipped_files": verdict.skipped_files,
        "trace.overhead_ratio": traced_s / (base.batch_s + base.aggregate_s) - 1,
        "trace.unattributed_s": traced_s - roots,
    })
    spans_dir = WORK / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    tracer.write(spans_dir / f"{wl.name}-s{seed}.tsv")
    return {"metrics": metrics, "detail": {}}, verdict


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "eqshares" / "cli.py").is_file():
        print(f"error: no eqshares sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    workloads = _workloads()
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {', '.join(workloads)}", file=sys.stderr)
        return 2
    wl = workloads[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]

    work = WORK / "work" / f"{wl.name}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.trace:
            result, verdict = measure_traced(wl, args.seed, work,
                                             args.update_reference)
        else:
            result, verdict = measure(wl, args.seed, args.seconds, work,
                                      args.update_reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.update_reference:
        verdict.write_reference(args.seed)

    values = result["metrics"]
    if set(values) != {m["name"] for m in declared}:
        raise SystemExit(
            f"metrics {sorted(values)} do not match BENCHMARK.json's "
            f"{sorted(m['name'] for m in declared)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    env = environment(args.seed, verdict.corpus_sha256)
    for problem in verdict.problems[:50]:
        print(f"check failed: {problem}")
    for name, metric in metrics.items():
        print(f"{name}: {metric['value']} {metric['unit']}")
    detail = result["detail"]
    if "aggregate_s" in detail:
        print(f"aggregate_s: {detail['aggregate_s']} s "
              "(inside pipeline_s; not a gated metric)")
        print(f"host_speed: {detail['host_speed']} of the reference speed; "
              f"unscaled batch_s: "
              f"{statistics.median(detail['raw_batch_s_samples'])} s")
    print(f"failed_ratio: {verdict.failed / verdict.attempted} ratio "
          f"({verdict.failed} of {verdict.attempted} cells and aggregates; "
          f"reference digests {'checked' if verdict.reference else 'not pinned for this corpus'})")
    print("environment: " + json.dumps(env, sort_keys=True))
    line = {
        "correct": verdict.failed == 0 and not verdict.problems,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": metrics,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{wl.name}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps({**line, "workload": wl.name, "environment": env,
                    "detail": result["detail"],
                    "problems": verdict.problems}, indent=1) + "\n",
        encoding="utf-8")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
