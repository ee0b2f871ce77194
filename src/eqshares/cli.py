"""Command-line interface.

Exit codes: 0 on success, 2 for unreadable or malformed input data,
3 for invalid flags or arguments, 4 when aggregation receives an empty
record set. Set the ``EQS_LOG`` environment variable to a level name
(``debug``, ``info``, ...) to enable progress logging on stderr.
"""
from __future__ import annotations

import csv
import json
import logging
import os
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

import click

from .model import Election, UtilityModel
from .pabulib import BallotType, PbParseError, load_election, write_pb
from .rules import RULE_NAMES, RuleConfig, TieBreaker, run_rule
from .stats import (
    BUCKET_PRESETS,
    RunRecord,
    aggregate_records,
    aggregate_to_csv,
    build_record,
    records_from_csv,
    records_from_jsonl,
    records_to_csv,
    records_to_jsonl,
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


def _load(path: Path, model: str) -> Election:
    try:
        return load_election(str(path), UtilityModel(model))
    except PbParseError:
        raise
    except (ValueError, OSError) as exc:
        raise InputDataError(f"{path}: {exc}") from exc


def _read_tie_names(path: Optional[Path]) -> tuple[str, ...]:
    if path is None:
        return ()
    names: list[str] = []
    for line in path.read_text(encoding="utf-8").splitlines():
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
    outcome = None
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        outcome = run_rule(rule, election, config)
        times.append(time.perf_counter() - start)
    return outcome, statistics.median(times)


def _write_out(text: str, out_path: Optional[Path]) -> None:
    """Print ``text`` on stdout, or write it to ``out_path`` when given."""
    if out_path is None:
        click.echo(text, nl=False)
    else:
        out_path.write_text(text, encoding="utf-8")
        log.info("wrote %s", out_path)


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


def _batch_worker(args: tuple) -> tuple[str, list[RunRecord], Optional[str]]:
    (path_str, rules, model, tie_names, step_str,
     exhaustive_redistribution, repeats) = args
    path = Path(path_str)
    try:
        election = _load(path, model)
        config = _make_config(
            election, tie_names, Fraction(step_str),
            exhaustive_redistribution, strict=False,
        )
        records = []
        for rule in rules:
            outcome, runtime = _timed_run(rule, election, config, repeats)
            records.append(
                build_record(path.stem, rule, election, outcome, runtime, config)
            )
        return (path_str, records, None)
    except (PbParseError, InputDataError) as exc:
        return (path_str, [], str(exc))


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

    Files that fail to parse are reported on stderr and skipped; the
    command fails only if no file succeeds. Records are sorted by
    (instance, rule).
    """
    rules = _parse_rules(rules_spec)
    tie_names = _read_tie_names(tie_order)
    files = sorted(directory.glob("*.pb"))
    if not files:
        raise InputDataError(f"no .pb files in {directory}")
    items = [
        (str(path), rules, model, tie_names, str(add1u_step),
         exhaustive_redistribution, repeats)
        for path in files
    ]
    log.info("batch: %d files x %d rules, parallelism %d",
             len(files), len(rules), parallelism)
    if parallelism == 1:
        results = [_batch_worker(item) for item in items]
    else:
        with ProcessPoolExecutor(max_workers=parallelism) as pool:
            results = list(pool.map(_batch_worker, items))
    records: list[RunRecord] = []
    failures = 0
    for path_str, file_records, error in results:
        if error is not None:
            failures += 1
            click.echo(f"warning: skipped {path_str}: {error}", err=True)
        else:
            records.extend(file_records)
            log.info("done %s", path_str)
    if failures == len(files):
        raise InputDataError("every input file failed to parse")
    records.sort(key=lambda r: (r.instance, r.rule))
    csv_out = out_path is not None and out_path.suffix == ".csv"
    _write_out((records_to_csv if csv_out else records_to_jsonl)(records), out_path)


def _read_records(path: Path) -> list[RunRecord]:
    text = path.read_text(encoding="utf-8")
    try:
        if path.suffix == ".csv":
            return records_from_csv(text)
        return records_from_jsonl(text)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputDataError(f"could not read records from {path}: {exc}") from exc


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
    except (KeyError, TypeError, ValueError) as exc:
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
    with open(path, encoding="utf-8", newline="") as handle:
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
            weighted = [
                (name, share) for name, share in record.fractions.items()
                if Fraction(share) > 0
            ]
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
