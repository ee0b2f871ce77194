"""Run records and exact statistical aggregation.

A :class:`RunRecord` captures one (instance, rule) execution: outcome,
round log, audit metrics, runtime, and a configuration digest. Records
serialize to JSON-safe dicts with rationals written as exact ``p/q``
strings, so files round-trip without precision loss.

Aggregation groups records by (rule, metric, project-count bucket,
ballot type) and reports count, mean, standard deviation, and the
10/25/50/75/90 percent quantiles. Means and quantiles are exact
rationals. Quantiles use linear interpolation at rank h = p * (k - 1)
over the sorted values. The standard deviation is the binary64 square
root of the exact population variance (divisor k, not k - 1).
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from .axioms import AuditReport, audit
from .model import Election, FractionalOutcome, Outcome
from .rules import RuleConfig

__all__ = [
    "RunRecord",
    "AggregateRow",
    "BUCKET_PRESETS",
    "QUANTILE_POINTS",
    "build_record",
    "config_digest",
    "metric_values",
    "bucket_label",
    "aggregate_records",
    "exact_mean",
    "exact_population_variance",
    "exact_quantile",
    "records_to_jsonl",
    "records_from_jsonl",
    "records_to_csv",
    "records_from_csv",
    "aggregate_to_csv",
]

# Audit metrics whose values are exact rationals, in report order.
RATIONAL_METRICS = (
    "score_satisfaction",
    "cost_satisfaction",
    "relative_score_satisfaction",
    "relative_cost_satisfaction",
    "exclusion_ratio",
    "budget_spent_fraction",
)

QUANTILE_POINTS = (10, 25, 50, 75, 90)

BUCKET_PRESETS: Mapping[str, tuple[tuple[int, Optional[int]], ...]] = {
    "split15": ((1, 8), (9, 15), (16, 27), (28, None)),
    "split16": ((1, 8), (9, 16), (17, 28), (29, None)),
}


@dataclass(frozen=True)
class RunRecord:
    """One rule execution on one instance, with audit results."""

    instance: str
    rule: str
    model: str
    ballot_type: str
    n_voters: int
    n_projects: int
    budget: str
    selected: tuple[str, ...]
    fractions: Optional[Mapping[str, str]]
    feasible: bool
    rounds: tuple[Mapping[str, object], ...]
    metrics: Mapping[str, object]
    runtime_sec: float
    config_hash: str

    def to_json(self) -> dict:
        out = {
            "instance": self.instance,
            "rule": self.rule,
            "model": self.model,
            "ballot_type": self.ballot_type,
            "n_voters": self.n_voters,
            "n_projects": self.n_projects,
            "budget": self.budget,
            "selected": list(self.selected),
            "fractions": dict(self.fractions) if self.fractions is not None else None,
            "feasible": self.feasible,
            "rounds": [dict(r) for r in self.rounds],
            "metrics": dict(self.metrics),
            "runtime_sec": self.runtime_sec,
            "config_hash": self.config_hash,
        }
        return out

    @classmethod
    def from_json(cls, data: Mapping[str, object]) -> "RunRecord":
        if not isinstance(data, Mapping):
            raise TypeError(f"a record must be an object, not {type(data).__name__}")
        fractions = data.get("fractions")
        return cls(
            instance=str(data["instance"]),
            rule=str(data["rule"]),
            model=str(data["model"]),
            ballot_type=str(data["ballot_type"]),
            n_voters=int(data["n_voters"]),
            n_projects=int(data["n_projects"]),
            budget=str(data["budget"]),
            selected=tuple(data["selected"]),
            fractions=dict(fractions) if fractions is not None else None,
            feasible=bool(data["feasible"]),
            rounds=tuple(dict(r) for r in data.get("rounds", ())),
            metrics=dict(data["metrics"]),
            runtime_sec=float(data["runtime_sec"]),
            config_hash=str(data["config_hash"]),
        )


def config_digest(rule: str, model: str, config: RuleConfig) -> str:
    """Stable 16-hex-digit digest of everything that can change a result."""
    payload = {
        "rule": rule,
        "model": model,
        "tie_order": list(config.tie_breaker.order or ()),
        "add1u_step": str(config.add1u_step),
        "exhaustive_redistribution": config.exhaustive_redistribution,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _round_to_json(record) -> dict:
    payments = {str(v): str(p) for v, p in sorted(record.payments.items())}
    return {
        "project": record.project,
        "alpha": str(record.alpha),
        "rho": None if record.rho is None else str(record.rho),
        "payments": payments,
        "overspent": list(record.overspent),
    }


def _metrics_to_json(report: AuditReport) -> dict:
    out: dict[str, object] = {
        name: str(getattr(report, name)) for name in RATIONAL_METRICS
    }
    out["exhaustive"] = report.exhaustive
    out["ejr_plus_violations"] = report.ejr_plus_violations
    return out


def build_record(
    instance: str,
    rule: str,
    election: Election,
    outcome: Union[Outcome, FractionalOutcome],
    runtime_sec: float,
    config: Optional[RuleConfig] = None,
) -> RunRecord:
    """Assemble the full record, including the audit, for one run."""
    config = config if config is not None else RuleConfig()
    report = audit(election, outcome, config)
    names = {p.id: p.name for p in election.projects}
    if isinstance(outcome, FractionalOutcome):
        fractions: Optional[dict[str, str]] = {
            names[c]: str(f) for c, f in sorted(outcome.fractions.items())
        }
        rounds = outcome.purchases
        feasible = True
    else:
        fractions = None
        rounds = outcome.rounds
        feasible = outcome.feasible
    selected = tuple(
        names[c] for c in sorted(c for c, f in outcome.shares.items() if f == 1)
    )
    return RunRecord(
        instance=instance,
        rule=rule,
        model=election.utility_model.value,
        ballot_type=str(election.metadata.get("vote_type", "cardinal")),
        n_voters=election.n_voters,
        n_projects=len(election.projects),
        budget=str(election.budget),
        selected=selected,
        fractions=fractions,
        feasible=feasible,
        rounds=tuple(_round_to_json(r) for r in rounds),
        metrics=_metrics_to_json(report),
        runtime_sec=runtime_sec,
        config_hash=config_digest(rule, election.utility_model.value, config),
    )


def metric_values(record: RunRecord) -> dict[str, Fraction]:
    """Numeric metrics of one record, as exact rationals.

    Booleans become 0/1. ``ejr_plus_violated`` is the derived 0/1
    indicator of a nonzero violation count, so its mean across records is
    the violation rate. Records without an EJR+ count (non-approval
    ballots) contribute neither EJR+ metric. Runtimes convert exactly
    from binary64.
    """
    out: dict[str, Fraction] = {}
    for name in RATIONAL_METRICS:
        out[name] = Fraction(str(record.metrics[name]))
    out["exhaustive"] = Fraction(1 if record.metrics["exhaustive"] else 0)
    violations = record.metrics.get("ejr_plus_violations")
    if violations is not None:
        out["ejr_plus_violations"] = Fraction(int(violations))
        out["ejr_plus_violated"] = Fraction(1 if int(violations) > 0 else 0)
    out["runtime_sec"] = Fraction(record.runtime_sec)
    return out


def bucket_label(n_projects: int, preset: str = "split15") -> str:
    """Project-count bucket label, e.g. ``9-15`` or ``28+``."""
    try:
        bounds = BUCKET_PRESETS[preset]
    except KeyError:
        raise ValueError(f"unknown bucket preset {preset!r}") from None
    for low, high in bounds:
        if high is None:
            if n_projects >= low:
                return f"{low}+"
        elif n_projects <= high:
            return f"{low}-{high}"
    return f"{bounds[0][0]}-{bounds[0][1]}"


def exact_mean(values: Sequence[Fraction]) -> Fraction:
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values, Fraction(0)) / len(values)


def exact_population_variance(values: Sequence[Fraction]) -> Fraction:
    mean = exact_mean(values)
    return sum(((v - mean) ** 2 for v in values), Fraction(0)) / len(values)


def exact_quantile(sorted_values: Sequence[Fraction], percent: int) -> Fraction:
    """Linear-interpolation quantile at rank h = p * (k - 1), exact."""
    k = len(sorted_values)
    if k == 0:
        raise ValueError("quantile of empty sequence")
    h = Fraction(percent, 100) * (k - 1)
    low = h.numerator // h.denominator
    rest = h - low
    if rest == 0 or low + 1 >= k:
        return sorted_values[low]
    return sorted_values[low] + rest * (sorted_values[low + 1] - sorted_values[low])


@dataclass(frozen=True)
class AggregateRow:
    """Summary of one metric for one (rule, bucket, ballot type) group."""

    rule: str
    metric: str
    bucket: str
    ballot_type: str
    count: int
    mean: Fraction
    std: float
    quantiles: Mapping[int, Fraction] = field(default_factory=dict)


def aggregate_records(
    records: Iterable[RunRecord], preset: str = "split15"
) -> list[AggregateRow]:
    """Group records and summarize every metric exactly.

    Rows come back sorted by rule, metric, bucket lower bound, and
    ballot type.
    """
    groups: dict[tuple[str, str, str, str], list[Fraction]] = {}
    bucket_low: dict[str, int] = {}
    for record in records:
        bucket = bucket_label(record.n_projects, preset)
        bucket_low[bucket] = int(bucket.rstrip("+").split("-")[0])
        for metric, value in metric_values(record).items():
            key = (record.rule, metric, bucket, record.ballot_type)
            groups.setdefault(key, []).append(value)
    rows = []
    for (rule, metric, bucket, ballot_type), values in groups.items():
        values.sort()
        mean = exact_mean(values)
        std = math.sqrt(exact_population_variance(values))
        quantiles = {p: exact_quantile(values, p) for p in QUANTILE_POINTS}
        rows.append(
            AggregateRow(
                rule=rule,
                metric=metric,
                bucket=bucket,
                ballot_type=ballot_type,
                count=len(values),
                mean=mean,
                std=std,
                quantiles=quantiles,
            )
        )
    rows.sort(key=lambda r: (r.rule, r.metric, bucket_low[r.bucket], r.ballot_type))
    return rows


def records_to_jsonl(records: Iterable[RunRecord]) -> str:
    return "".join(json.dumps(r.to_json(), sort_keys=True) + "\n" for r in records)


def records_from_jsonl(text: str) -> list[RunRecord]:
    records = []
    for line in _lines(text):
        line = line.strip()
        if line:
            records.append(RunRecord.from_json(json.loads(line)))
    return records


def _lines(text: str) -> Iterator[str]:
    """The text's lines one at a time, so that no list of them all holds a
    second copy of the text while records are built from it."""
    start = 0
    while start < len(text):
        end = text.find("\n", start)
        if end < 0:
            end = len(text)
        yield text[start:end]
        start = end + 1


# Flat CSV schema: scalar fields plus metrics; round logs and fractional
# shares are JSON-encoded in their columns so nothing is lost.
_CSV_FIELDS = (
    "instance",
    "rule",
    "model",
    "ballot_type",
    "n_voters",
    "n_projects",
    "budget",
    "selected",
    "fractions",
    "feasible",
    "rounds",
    "runtime_sec",
    "config_hash",
)


def records_to_csv(records: Iterable[RunRecord]) -> str:
    records = list(records)
    metric_names = sorted({name for r in records for name in r.metrics})
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(_CSV_FIELDS) + [f"metric_{m}" for m in metric_names])
    for r in records:
        row = [
            r.instance,
            r.rule,
            r.model,
            r.ballot_type,
            r.n_voters,
            r.n_projects,
            r.budget,
            json.dumps(list(r.selected)),
            json.dumps(dict(r.fractions)) if r.fractions is not None else "",
            int(r.feasible),
            json.dumps([dict(x) for x in r.rounds]),
            repr(r.runtime_sec),
            r.config_hash,
        ]
        for m in metric_names:
            value = r.metrics.get(m)
            row.append("" if value is None else json.dumps(value))
        writer.writerow(row)
    return buf.getvalue()


def records_from_csv(text: str) -> list[RunRecord]:
    reader = csv.DictReader(io.StringIO(text))
    records = []
    for row in reader:
        metrics: dict[str, object] = {}
        for key, raw in row.items():
            if key.startswith("metric_"):
                metrics[key[len("metric_"):]] = None if raw == "" else json.loads(raw)
        records.append(
            RunRecord(
                instance=row["instance"],
                rule=row["rule"],
                model=row["model"],
                ballot_type=row["ballot_type"],
                n_voters=int(row["n_voters"]),
                n_projects=int(row["n_projects"]),
                budget=row["budget"],
                selected=tuple(json.loads(row["selected"])),
                fractions=json.loads(row["fractions"]) if row["fractions"] else None,
                feasible=bool(int(row["feasible"])),
                rounds=tuple(json.loads(row["rounds"])),
                metrics=metrics,
                runtime_sec=float(row["runtime_sec"]),
                config_hash=row["config_hash"],
            )
        )
    return records


def aggregate_to_csv(rows: Iterable[AggregateRow]) -> str:
    """CSV with exact rational means and quantiles as ``p/q`` strings."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["rule", "metric", "bucket", "ballot_type", "count", "mean", "std"]
        + [f"q{p}" for p in QUANTILE_POINTS]
    )
    for row in rows:
        writer.writerow(
            [row.rule, row.metric, row.bucket, row.ballot_type, row.count,
             str(row.mean), repr(row.std)]
            + [str(row.quantiles[p]) for p in QUANTILE_POINTS]
        )
    return buf.getvalue()
