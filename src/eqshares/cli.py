"""Command-line interface.

Exit codes: 0 on success, 2 for unreadable or malformed input data (an
instance, a record file, a tie-order file or a coordinate sidecar), 3 for
invalid flags or arguments, such as an ``--out`` that cannot be created,
4 when aggregation receives an empty record set. Set the ``EQS_LOG``
environment variable to a level name (``debug``, ``info``, ...) to enable
progress logging on stderr.
"""
from __future__ import annotations

import csv
import json
import logging
import os
import secrets
import shutil
import statistics
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from typing import Iterator, Optional, Sequence, TextIO

import click

from .model import Election, UtilityModel
from .pabulib import BallotType, PbParseError, load_election, write_pb
from .rules import RULE_NAMES, RuleConfig, TieBreaker, run_rule
from .stats import (
    BUCKET_PRESETS,
    RECORD_METRICS,
    RecordWriter,
    RunRecord,
    aggregate_records,
    aggregate_to_csv,
    build_record,
    outcome_rounds,
    records_from_csv,
    records_from_jsonl,
)
from .synth import EuclideanConfig, PropOneConfig, gen_euclidean, gen_prop_one, standard_clusters

__all__ = ["main", "cli", "BENCH_RULES"]

log = logging.getLogger("eqshares")

# The rule set behind --rules all: one representative of each family that
# produces a complete budget allocation.
BENCH_RULES = ("utilitarian", "mes-add1u", "fres-complete", "bos", "bos-plus")

MODEL_CHOICES = tuple(model.value for model in UtilityModel)


class InputDataError(Exception):
    """Unreadable or inconsistent input data (exit code 2)."""


class EmptyInputError(Exception):
    """An aggregation source with no records (exit code 4)."""


def _positive_fraction(ctx, param, value):
    try:
        parsed = Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise click.BadParameter(f"{value!r} is not a rational number")
    if parsed <= 0:
        raise click.BadParameter("must be positive")
    return parsed


@contextmanager
def _reading(path: Path, prefix: str = "") -> Iterator[None]:
    """Raise what reading or decoding ``path`` raises, such as a missing
    CSV column (KeyError) or text that is not UTF-8, as an
    :class:`InputDataError` that names the file; a :class:`PbParseError`
    passes unchanged."""
    try:
        yield
    except PbParseError:
        raise
    except (csv.Error, KeyError, OSError, RecursionError, TypeError,
            ValueError) as exc:
        raise InputDataError(f"{prefix}{path}: {exc}") from exc


def _load(path: Path, model: str) -> Election:
    with _reading(path):
        return load_election(str(path), UtilityModel(model))


def _read_tie_names(path: Optional[Path]) -> tuple[str, ...]:
    if path is None:
        return ()
    with _reading(path):
        text = path.read_text(encoding="utf-8-sig")
    names: list[str] = []
    for line in text.splitlines():
        line = line.strip()
        if line in names:
            raise click.UsageError(f"{path}: tie-order lists {line!r} twice")
        if line:
            names.append(line)
    return tuple(names)


def _make_config(
    election: Election,
    tie_names: Sequence[str],
    add1u_step: Fraction,
    exhaustive_redistribution: bool,
    strict: bool,
) -> RuleConfig:
    by_name = {p.name: p.id for p in election.projects}
    order = []
    for name in tie_names:
        if name in by_name:
            order.append(by_name[name])
        elif strict:
            raise click.UsageError(
                f"tie-order entry {name!r} does not name a project"
            )
    tie = TieBreaker(order=tuple(order)) if order else TieBreaker()
    return RuleConfig(
        tie_breaker=tie,
        add1u_step=add1u_step,
        exhaustive_redistribution=exhaustive_redistribution,
    )


def _timed_run(rule: str, election: Election, config: RuleConfig, repeats: int):
    """Run the rule ``repeats`` times; report the median wall time.

    Timing covers only the rule call, never parsing or auditing.
    """
    times = []
    for _ in range(repeats):
        outcome = None  # so that a repeat does not hold the last outcome
        start = time.perf_counter()
        outcome = run_rule(rule, election, config)
        times.append(time.perf_counter() - start)
    return outcome, statistics.median(times)


@contextmanager
def _output(out_path: Optional[Path]) -> Iterator[TextIO]:
    """Stdout, or a temporary file beside ``out_path`` that replaces it only
    when the block ends without an exception."""
    if out_path is None:
        yield sys.stdout
        sys.stdout.flush()
        return
    part = out_path.with_name(f".{out_path.name}.{secrets.token_hex(4)}.tmp")
    try:
        handle = open(part, "x", encoding="utf-8")
    except OSError as exc:
        raise click.BadParameter(
            f"cannot write {out_path}: {exc.strerror}", param_hint="'--out'"
        ) from exc
    try:
        with handle:
            yield handle
        os.replace(part, out_path)
    finally:
        if part.exists():
            part.unlink()
    log.info("wrote %s", out_path)


def _write_out(text: str, out_path: Optional[Path]) -> None:
    """Print ``text`` on stdout, or write it to ``out_path`` when given."""
    with _output(out_path) as stream:
        stream.write(text)


def _parse_rules(spec: str) -> tuple[str, ...]:
    if spec == "all":
        return BENCH_RULES
    rules = tuple(part.strip() for part in spec.split(",") if part.strip())
    if not rules:
        raise click.BadParameter("no rules given")
    for rule in rules:
        if rule not in RULE_NAMES:
            raise click.BadParameter(
                f"unknown rule {rule!r}; known: {', '.join(RULE_NAMES)} or all"
            )
    return rules


@click.group()
def cli() -> None:
    """Exact participatory-budgeting rules, audits, and benchmarks."""


@cli.command("run")
@click.argument(
    "instance", type=click.Path(exists=True, dir_okay=False, path_type=Path)
)
@click.option("--rule", required=True, type=click.Choice(RULE_NAMES))
@click.option(
    "--model", type=click.Choice(MODEL_CHOICES), default="score",
    show_default=True, help="Utility model the rule and audit operate on.",
)
@click.option(
    "--tie-order", "tie_order", default=None,
    type=click.Path(exists=True, dir_okay=False, path_type=Path),
    help="File with one project name per line; earlier lines win ties.",
)
@click.option(
    "--add1u-step", "add1u_step", default="1", show_default=True,
    callback=_positive_fraction,
    help="Endowment increment for the add-one-utility completion.",
)
@click.option(
    "--exhaustive-redistribution", is_flag=True,
    help="Redistribute the budgets of fully satisfied voters each round.",
)
@click.option(
    "--repeats", type=click.IntRange(min=1), default=1, show_default=True,
    help="Timing repetitions; the median is reported.",
)
@click.option(
    "--out", "out_path", default=None,
    type=click.Path(dir_okay=False, path_type=Path),
    help="Write the JSON record here instead of stdout.",
)
def cmd_run(instance, rule, model, tie_order, add1u_step,
            exhaustive_redistribution, repeats, out_path) -> None:
    """Run one rule on one instance; print outcome, rounds, and audit."""
    election = _load(instance, model)
    config = _make_config(
        election, _read_tie_names(tie_order), add1u_step,
        exhaustive_redistribution, strict=True,
    )
    outcome, runtime = _timed_run(rule, election, config, repeats)
    record = build_record(instance.stem, rule, election, outcome, runtime, config)
    text = json.dumps(record.to_json(), indent=2, sort_keys=True) + "\n"
    _write_out(text, out_path)


# What one file of a batch did: its path; the error that skipped the whole
# file, if any; the (rule, error) of each cell whose rule raised, naming the
# exception's type; and the number of records written.
_FileResult = tuple[str, Optional[str], list[tuple[str, str]], int]


def _batch_file(args: tuple, writer: RecordWriter) -> _FileResult:
    """Run one file's cells in the order of ``rules`` and write each record
    as soon as it is built."""
    (path_str, rules, model, tie_names, step_str,
     exhaustive_redistribution, repeats) = args
    path = Path(path_str)
    try:
        election = _load(path, model)
        config = _make_config(
            election, tie_names, Fraction(step_str),
            exhaustive_redistribution, strict=False,
        )
    except (PbParseError, InputDataError) as exc:
        return (path_str, str(exc), [], 0)
    failed = []
    for rule in rules:
        error = _batch_cell(writer, path, rule, election, config, repeats)
        if error is not None:
            failed.append((rule, error))
    return (path_str, None, failed, len(rules) - len(failed))


def _batch_cell(writer: RecordWriter, path: Path, rule: str,
                election: Election, config: RuleConfig,
                repeats: int) -> Optional[str]:
    """Run one (instance, rule) cell and write its record; return the error
    that skipped it, if any. The outcome dies when this returns, so no two
    outcomes are ever alive at once."""
    try:
        outcome, runtime = _timed_run(rule, election, config, repeats)
        record = build_record(path.stem, rule, election, outcome, runtime,
                              config, keep_rounds=False)
    except Exception as exc:
        # One failing cell must not sink the file's other cells or the
        # batch; the traceback goes to the debug log.
        log.debug("%s %s failed", path, rule, exc_info=True)
        return f"{exc} ({type(exc).__name__})"
    rounds = writer.write(record, outcome_rounds(outcome))
    log.info("cell instance=%s rule=%s rounds=%d runtime_sec=%r",
             record.instance, rule, rounds, runtime)
    return None


def _batch_worker(args: tuple) -> _FileResult:
    """:func:`_batch_file` in a worker process, writing to the part file
    named in ``args``."""
    file_args, part, csv_metrics = args
    with open(part, "w", encoding="utf-8", newline="") as handle:
        return _batch_file(file_args, RecordWriter(handle, csv_metrics))


def _batch_results(items: Sequence[tuple], writer: RecordWriter,
                   parallelism: int) -> Iterator[_FileResult]:
    """Each file's result in order, after its records went to ``writer``.

    Workers write to part files in a temporary directory, and each part is
    appended to the output once the files before it are done, so no record
    travels between processes.
    """
    if parallelism == 1:
        for item in items:
            yield _batch_file(item, writer)
        return
    with tempfile.TemporaryDirectory() as parts, \
            ProcessPoolExecutor(max_workers=parallelism) as pool:
        jobs = [(item, os.path.join(parts, f"{k}.part"), writer.csv_metrics)
                for k, item in enumerate(items)]
        for (_, part, _), result in zip(jobs, pool.map(_batch_worker, jobs)):
            with open(part, encoding="utf-8", newline="") as handle:
                shutil.copyfileobj(handle, writer.stream)
            os.unlink(part)
            yield result


@cli.command("batch")
@click.argument(
    "directory", type=click.Path(exists=True, file_okay=False, path_type=Path)
)
@click.option(
    "--rules", "rules_spec", default="all", show_default=True,
    help="Comma-separated rule names, or 'all' for the benchmark set.",
)
@click.option("--model", type=click.Choice(MODEL_CHOICES), default="score",
              show_default=True)
@click.option(
    "--tie-order", "tie_order", default=None,
    type=click.Path(exists=True, dir_okay=False, path_type=Path),
    help="Tie-order file applied to every instance; unknown names are skipped.",
)
@click.option("--add1u-step", "add1u_step", default="1", show_default=True,
              callback=_positive_fraction)
@click.option("--exhaustive-redistribution", is_flag=True)
@click.option("--parallelism", type=click.IntRange(min=1), default=1,
              show_default=True, help="Worker processes.")
@click.option("--repeats", type=click.IntRange(min=1), default=1,
              show_default=True)
@click.option(
    "--out", "out_path", default=None,
    type=click.Path(dir_okay=False, path_type=Path),
    help="Output file; .csv for flat CSV, anything else for JSONL. "
         "Default: JSONL on stdout.",
)
def cmd_batch(directory, rules_spec, model, tie_order, add1u_step,
              exhaustive_redistribution, parallelism, repeats,
              out_path) -> None:
    """Run rules over every .pb file in a directory.

    Files that fail to parse are reported on stderr and skipped, and so
    is each (instance, rule) cell whose rule or audit raises; the command
    fails only if no cell succeeds. Records are written as each cell is
    built, sorted by (instance, rule): files by stem, and each file's rules
    by name.
    """
    rules = tuple(sorted(_parse_rules(rules_spec)))
    tie_names = _read_tie_names(tie_order)
    files = sorted(directory.glob("*.pb"), key=lambda path: path.stem)
    if not files:
        raise InputDataError(f"no .pb files in {directory}")
    items = [
        (str(path), rules, model, tie_names, str(add1u_step),
         exhaustive_redistribution, repeats)
        for path in files
    ]
    log.info("batch: %d files x %d rules, parallelism %d",
             len(files), len(rules), parallelism)
    csv_out = out_path is not None and out_path.suffix == ".csv"
    unread = written = 0
    with _output(out_path) as stream:
        writer = RecordWriter(stream, RECORD_METRICS if csv_out else None)
        writer.header()
        for path_str, error, failed, count in _batch_results(
            items, writer, parallelism
        ):
            if error is not None:
                unread += 1
                click.echo(f"warning: skipped {path_str}: {error}", err=True)
                continue
            for rule, cell_error in failed:
                click.echo(f"warning: skipped {path_str} {rule}: {cell_error}",
                           err=True)
            written += count
            log.info("done %s", path_str)
        if unread == len(files):
            raise InputDataError("every input file failed to parse")
        if not written:
            raise InputDataError("every (instance, rule) cell failed")


def _read_records(path: Path) -> list[RunRecord]:
    """Records for ``aggregate`` and ``plotdata``, read line by line;
    neither reads round logs, so JSONL logs are dropped as each line is
    read."""
    with _reading(path, "could not read records from "):
        if path.suffix == ".csv":
            with open(path, encoding="utf-8", newline="") as handle:
                return records_from_csv(handle)
        with open(path, encoding="utf-8") as handle:
            return records_from_jsonl(handle, keep_rounds=False)


@cli.command("aggregate")
@click.argument(
    "records_path", type=click.Path(exists=True, dir_okay=False, path_type=Path)
)
@click.option("--buckets", type=click.Choice(sorted(BUCKET_PRESETS)),
              default="split15", show_default=True,
              help="Project-count bucket preset.")
@click.option(
    "--out", "out_path", default=None,
    type=click.Path(dir_okay=False, path_type=Path),
    help="Write the summary CSV here instead of stdout.",
)
def cmd_aggregate(records_path, buckets, out_path) -> None:
    """Summarize a record file into exact per-group statistics."""
    records = _read_records(records_path)
    if not records:
        raise EmptyInputError(f"no records in {records_path}")
    try:
        rows = aggregate_records(records, buckets)
    except (ArithmeticError, KeyError, TypeError, ValueError) as exc:
        raise InputDataError(f"malformed record in {records_path}: {exc!r}") from exc
    _write_out(aggregate_to_csv(rows), out_path)


@cli.group("gen")
def cmd_gen() -> None:
    """Generate synthetic benchmark instances."""


def _write_sidecar(path: Path, election: Election) -> None:
    cand = election.metadata["candidate_coords"].split()
    voter = election.metadata["voter_coords"].split()
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["kind", "id", "x", "y"])
        for i, project in enumerate(election.projects):
            writer.writerow(["candidate", project.name, cand[2 * i], cand[2 * i + 1]])
        for i in range(election.n_voters):
            writer.writerow(["voter", f"v{i + 1}", voter[2 * i], voter[2 * i + 1]])


@cmd_gen.command("euclidean")
@click.option("--dist", type=click.IntRange(1, 3), default=1, show_default=True,
              help="Voter layout: 1 uniform bands, 2 Gaussian blobs, "
                   "3 Gaussian x with beta-skewed y.")
@click.option("--count", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True,
              help="Base seed; instance k uses seed + k.")
@click.option("--lam", "--lambda", "lam", default="1", show_default=True,
              callback=_positive_fraction,
              help="Utility offset in 1 / (distance + lambda).")
@click.option("--out", "out_dir", required=True,
              type=click.Path(file_okay=False, path_type=Path))
def cmd_gen_euclidean(dist, count, seed, lam, out_dir) -> None:
    """Write spatial instances, coordinate sidecars, and a manifest."""
    out_dir.mkdir(parents=True, exist_ok=True)
    instances = []
    for k in range(count):
        config = EuclideanConfig(
            voter_clusters=standard_clusters(dist), lam=lam, seed=seed + k
        )
        election = gen_euclidean(config)
        stem = f"euclid_d{dist}_s{seed + k:04d}"
        (out_dir / f"{stem}.pb").write_text(
            write_pb(election, BallotType.SCORING), encoding="utf-8"
        )
        _write_sidecar(out_dir / f"{stem}.coords.csv", election)
        instances.append({"instance": stem, "seed": seed + k})
        log.info("generated %s", stem)
    manifest = {
        "generator": "euclidean",
        "dist": dist,
        "count": count,
        "base_seed": seed,
        "lambda": str(lam),
        "n_candidates": 150,
        "instances": instances,
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
    )


@cmd_gen.command("prop1")
@click.option("--ell", type=click.IntRange(min=1), default=1, show_default=True,
              help="Size parameter of the starved-minority family.")
@click.option("--out", "out_dir", required=True,
              type=click.Path(file_okay=False, path_type=Path))
def cmd_gen_prop1(ell, out_dir) -> None:
    """Write one starved-minority instance plus its tie-order file."""
    out_dir.mkdir(parents=True, exist_ok=True)
    election, tie = gen_prop_one(PropOneConfig(ell))
    stem = f"prop1_ell{ell}"
    (out_dir / f"{stem}.pb").write_text(
        write_pb(election, BallotType.APPROVAL), encoding="utf-8"
    )
    names = {p.id: p.name for p in election.projects}
    tie_path = out_dir / f"{stem}.tie-order"
    tie_path.write_text(
        "".join(names[c] + "\n" for c in (tie.order or ())), encoding="utf-8"
    )
    manifest = {
        "generator": "prop1",
        "ell": ell,
        "instances": [{"instance": stem, "tie_order_file": tie_path.name}],
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
    )
    log.info("generated %s", stem)


def _read_sidecar(path: Path) -> dict[str, tuple[str, str]]:
    coords: dict[str, tuple[str, str]] = {}
    with _reading(path, "could not read coordinates from "), \
            open(path, encoding="utf-8", newline="") as handle:
        for row in csv.DictReader(handle):
            if row["kind"] == "candidate":
                coords[row["id"]] = (row["x"], row["y"])
    return coords


@cli.command("plotdata")
@click.option("--records", "records_path", required=True,
              type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--coords", "coords_dir", required=True,
              type=click.Path(exists=True, file_okay=False, path_type=Path),
              help="Directory holding <instance>.coords.csv sidecars.")
@click.option("--out", "out_dir", required=True,
              type=click.Path(file_okay=False, path_type=Path))
def cmd_plotdata(records_path, coords_dir, out_dir) -> None:
    """Emit per-rule CSVs of funded-candidate coordinates.

    Integral outcomes get weight 1 per funded project; fractional
    outcomes get one row per partially or fully funded project with the
    exact funded share as weight. One file per benchmark rule is always
    written, plus files for any other rules in the record set.
    """
    records = _read_records(records_path)
    out_dir.mkdir(parents=True, exist_ok=True)
    sidecars: dict[str, dict[str, tuple[str, str]]] = {}
    by_rule: dict[str, list[list[str]]] = {rule: [] for rule in BENCH_RULES}
    for record in sorted(records, key=lambda r: (r.rule, r.instance)):
        sidecar = sidecars.get(record.instance)
        if sidecar is None:
            path = coords_dir / f"{record.instance}.coords.csv"
            if not path.exists():
                raise InputDataError(f"no coordinate sidecar for {record.instance}")
            sidecar = sidecars[record.instance] = _read_sidecar(path)
        if record.fractions is not None:
            try:
                weighted = [
                    (name, share) for name, share in record.fractions.items()
                    if Fraction(share) > 0
                ]
            except (TypeError, ValueError, ZeroDivisionError) as exc:
                raise InputDataError(
                    f"{records_path}: {record.instance} {record.rule}: "
                    f"bad funded share: {exc}"
                ) from exc
        else:
            weighted = [(name, "1") for name in record.selected]
        rows = by_rule.setdefault(record.rule, [])
        for name, weight in sorted(weighted):
            if name not in sidecar:
                raise InputDataError(
                    f"sidecar for {record.instance} lacks candidate {name!r}"
                )
            x, y = sidecar[name]
            rows.append([record.instance, name, x, y, weight])
    for rule, rows in sorted(by_rule.items()):
        path = out_dir / f"plot_{rule}.csv"
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["instance", "project", "x", "y", "weight"])
            writer.writerows(rows)
    log.info("wrote plot data for %d rules to %s", len(by_rule), out_dir)


def _configure_logging() -> None:
    level_name = os.environ.get("EQS_LOG")
    if not level_name:
        return
    level = getattr(logging, level_name.upper(), None)
    if not isinstance(level, int):
        level = logging.INFO
    logging.basicConfig(
        level=level, format="%(asctime)s %(name)s %(levelname)s %(message)s"
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    _configure_logging()
    try:
        cli.main(args=list(argv) if argv is not None else None,
                 standalone_mode=False)
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.UsageError as exc:
        exc.show()
        return 3
    except click.Abort:
        click.echo("aborted", err=True)
        return 130
    except (PbParseError, InputDataError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    except EmptyInputError as exc:
        click.echo(f"error: {exc}", err=True)
        return 4
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
