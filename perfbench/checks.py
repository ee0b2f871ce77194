"""Output checks for the benchmark's `batch` records and `aggregate` CSV.

Checks that hold for any seed read project costs with a reader of their
own, not the package's parser:

* every expected (instance, rule) cell has exactly one record;
* the record matches its instance (voters, projects, budget) and is feasible;
* the payments of every voter-funded round sum exactly to the project's
  cost, or to alpha times the cost in a fractional outcome;
* the outcome spends at most the budget.

When the corpus is the pinned one, each record's digest (with
``runtime_sec`` and any field added after the reference was taken left
out) and the digest of the aggregate CSV (without ``runtime_sec`` rows)
must also match the committed reference.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Mapping, Optional

RECORD_FIELDS = (
    "instance", "rule", "model", "ballot_type", "n_voters", "n_projects",
    "budget", "selected", "fractions", "feasible", "rounds", "metrics",
    "config_hash",
)
ROUND_FIELDS = ("project", "alpha", "rho", "payments", "overspent")
METRIC_FIELDS = (
    "score_satisfaction", "cost_satisfaction", "relative_score_satisfaction",
    "relative_cost_satisfaction", "exclusion_ratio", "budget_spent_fraction",
    "exhaustive", "ejr_plus_violations",
)
AGGREGATE_METRICS = METRIC_FIELDS + ("ejr_plus_violated",)


@dataclass(frozen=True)
class Instance:
    """What the checks need to know about one corpus file."""

    budget: Fraction
    costs: tuple[Fraction, ...]
    names: tuple[str, ...]
    n_voters: int


def read_instance(path: Path) -> Instance:
    """Budget, kept project costs and voter count of a `.pb` file.

    Projects with a cost outside (0, budget] are left out, as the loader
    drops them and numbers projects in file order without them.
    """
    section = None
    header: list[str] = []
    meta: dict[str, str] = {}
    projects: list[tuple[str, Fraction]] = []
    n_voters = 0
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        if line in ("META", "PROJECTS", "VOTES"):
            section, header = line, []
            continue
        cells = [c.strip() for c in line.split(";")]
        if not header:
            header = cells
        elif section == "META":
            meta[cells[0]] = cells[1]
        elif section == "PROJECTS":
            projects.append((cells[0], Fraction(cells[header.index("cost")])))
        elif section == "VOTES":
            n_voters += 1
    budget = Fraction(meta["budget"])
    kept = [(name, cost) for name, cost in projects if 0 < cost <= budget]
    return Instance(
        budget=budget,
        costs=tuple(cost for _, cost in kept),
        names=tuple(name for name, _ in kept),
        n_voters=n_voters,
    )


def record_problems(record: Mapping, inst: Instance) -> list[str]:
    """Violations of the seed-independent invariants in one record."""
    problems = []
    if record["n_voters"] != inst.n_voters:
        problems.append("voter count differs from the instance")
    if record["n_projects"] != len(inst.costs):
        problems.append("project count differs from the instance")
    if Fraction(record["budget"]) != inst.budget:
        problems.append("budget differs from the instance")
    if record["feasible"] is not True:
        problems.append("outcome flagged infeasible")
    cost_of = dict(zip(inst.names, inst.costs))
    fractions = record["fractions"]
    if fractions is None:
        spent = sum((cost_of[name] for name in record["selected"]), Fraction(0))
    else:
        spent = sum(
            (Fraction(share) * cost_of[name] for name, share in fractions.items()),
            Fraction(0),
        )
    if spent > inst.budget:
        problems.append(f"spends {spent} over the budget {inst.budget}")
    for k, rnd in enumerate(record["rounds"]):
        if rnd["rho"] is None:
            continue
        cost = inst.costs[rnd["project"]]
        due = cost if fractions is None else Fraction(rnd["alpha"]) * cost
        paid = sum((Fraction(p) for p in rnd["payments"].values()), Fraction(0))
        if paid != due:
            problems.append(f"round {k}: payments sum to {paid}, not {due}")
        if any(not 0 <= int(v) < inst.n_voters for v in rnd["payments"]):
            problems.append(f"round {k}: payment from an unknown voter")
    return problems


def canonical(record: Mapping) -> dict:
    """The record restricted to the fields the reference digests cover."""
    out = {key: record[key] for key in RECORD_FIELDS}
    out["rounds"] = [{key: r[key] for key in ROUND_FIELDS} for r in record["rounds"]]
    out["metrics"] = {
        key: record["metrics"][key]
        for key in METRIC_FIELDS if key in record["metrics"]
    }
    return out


def record_digest(record: Mapping) -> str:
    blob = json.dumps(canonical(record), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def aggregate_digest(csv_text: str) -> str:
    """Digest of the aggregate CSV without ``runtime_sec`` or newer metrics."""
    rows = list(csv.reader(io.StringIO(csv_text)))
    kept = [rows[0]] + [row for row in rows[1:] if row[1] in AGGREGATE_METRICS]
    blob = json.dumps(kept, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class CellReport:
    attempted: int
    failed: int
    problems: list[str]
    digests: dict[str, str]


def cell_key(instance: str, rule: str) -> str:
    return f"{instance}|{rule}"


def check_cells(
    records: Iterable[Mapping],
    corpus: Mapping[str, Instance],
    rules: Iterable[str],
    reference: Optional[Mapping[str, str]] = None,
) -> CellReport:
    """Check every (instance, rule) cell; a cell fails on any problem."""
    rules = tuple(rules)
    found: dict[str, list[Mapping]] = {}
    for record in records:
        found.setdefault(cell_key(record["instance"], record["rule"]), []).append(
            record
        )
    expected = [cell_key(stem, rule) for stem in sorted(corpus) for rule in rules]
    problems: list[str] = []
    digests: dict[str, str] = {}
    failed = 0
    for key in sorted(set(found) - set(expected)):
        problems.append(f"{key}: unexpected record")
    for key in expected:
        got = found.get(key, [])
        if len(got) != 1:
            failed += 1
            problems.append(f"{key}: {len(got)} records, expected 1")
            continue
        record = got[0]
        cell_problems = record_problems(record, corpus[record["instance"]])
        digests[key] = record_digest(record)
        if reference is not None and reference.get(key) != digests[key]:
            cell_problems.append("differs from the reference record")
        if cell_problems:
            failed += 1
            problems.extend(f"{key}: {p}" for p in cell_problems)
    return CellReport(len(expected), failed, problems, digests)


def aggregate_problems(
    csv_text: str, records: Iterable[Mapping], reference: Optional[str] = None
) -> list[str]:
    """The per-rule record counts in the summary must match its input."""
    per_rule: dict[str, int] = {}
    for record in records:
        per_rule[record["rule"]] = per_rule.get(record["rule"], 0) + 1
    counted: dict[str, int] = {}
    for row in csv.DictReader(io.StringIO(csv_text)):
        if row["metric"] == "exhaustive":
            counted[row["rule"]] = counted.get(row["rule"], 0) + int(row["count"])
    problems = []
    if counted != per_rule:
        problems.append(f"aggregate counts {counted} but input has {per_rule}")
    if reference is not None and aggregate_digest(csv_text) != reference:
        problems.append("aggregate differs from the reference")
    return problems
