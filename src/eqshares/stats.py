"""Run records and exact statistical aggregation.

A :class:`RunRecord` captures one (instance, rule) execution: outcome,
round log, audit metrics (the :class:`~eqshares.axioms.AuditReport`
fields), runtime, and a configuration digest. Its fields are the JSONL and
CSV schema; rationals are exact ``p/q`` strings, so files round-trip.

Aggregation groups records by (rule, metric, project-count bucket,
ballot type) and reports count, mean, standard deviation, and the
10/25/50/75/90 percent quantiles. Means and quantiles are exact
rationals. Quantiles use linear interpolation at rank h = p * (k - 1)
over the sorted values. The standard deviation is the binary64 square
root of the exact population variance (divisor k, not k - 1).

Aggregation works on integers. Each metric is parsed once into a
(num, den) pair; the mean and variance come from per-denominator integer
sums of num and num**2, and each group is ordered by floats that exact
checks repair (:func:`eqshares.rules._ratio_order`). Only the mean, the
variance and the values a quantile reads become ``Fraction`` objects.

Records are written by one :class:`RecordWriter`, as JSONL or as flat
CSV, to a text stream. It writes a record's round log one round at a time,
from the record or from an iterable such as :func:`outcome_rounds`, so
``batch`` builds each record without its log (``build_record(...,
keep_rounds=False)``) and never holds a whole log, record or file as one
object. :func:`records_to_jsonl` and :func:`records_to_csv` are the writer
on a string buffer.

The readers take a string or an iterable of lines, such as an open file,
and decode one line at a time. Reading records without their round logs
(``keep_rounds=False``, which ``aggregate`` and ``plotdata`` use) cuts each
line's top-level round log out before decoding, when the line is in the
layout :class:`RecordWriter` writes; other lines are decoded whole. The
JSON syntax of a round log that is cut out is therefore not checked.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import sys
from dataclasses import dataclass, field, fields
from fractions import Fraction
from itertools import chain
from typing import Iterable, Iterator, Mapping, Optional, Sequence, TextIO, Union

from .axioms import AuditReport, audit
from .model import Election, FractionalOutcome, Outcome
from .rules import RuleConfig, _ratio_order

__all__ = [
    "RunRecord",
    "RecordWriter",
    "AggregateRow",
    "BUCKET_PRESETS",
    "QUANTILE_POINTS",
    "RECORD_METRICS",
    "build_record",
    "outcome_rounds",
    "config_digest",
    "metric_values",
    "bucket_label",
    "aggregate_records",
    "exact_quantile",
    "records_to_jsonl",
    "records_from_jsonl",
    "records_to_csv",
    "records_from_csv",
    "aggregate_to_csv",
]

# Audit metrics whose values are exact rationals, in report order.
RATIONAL_METRICS = tuple(f.name for f in fields(AuditReport) if f.type == "Num")

# The metrics of every record build_record makes, sorted by name.
RECORD_METRICS = tuple(sorted(f.name for f in fields(AuditReport)))

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
        return {key: _to_json(getattr(self, key)) for key in self.__dataclass_fields__}

    @classmethod
    def from_json(
        cls, data: Mapping[str, object], keep_rounds: bool = True
    ) -> "RunRecord":
        """Rebuild a record; ``keep_rounds=False`` leaves ``rounds`` empty."""
        if not isinstance(data, Mapping):
            raise TypeError(f"a record must be an object, not {type(data).__name__}")
        reads = _FROM_JSON if keep_rounds else _FROM_JSON_NO_ROUNDS
        return cls(**{
            name: read(data[name] if name in data else _JSON_DEFAULTS[name])
            for name, read in reads.items()
        })


def _to_json(value: object) -> object:
    """A field's value as JSON data: tuples as lists, mappings as dicts."""
    if isinstance(value, tuple):
        return [_to_json(item) for item in value]
    return dict(value) if isinstance(value, Mapping) else value


# How RunRecord.from_json reads each of its fields, and the value of a field
# that a record's JSON may leave out.
_FROM_JSON = {
    "instance": str,
    "rule": str,
    "model": str,
    "ballot_type": str,
    "n_voters": int,
    "n_projects": int,
    "budget": str,
    "selected": tuple,
    "fractions": lambda value: None if value is None else dict(value),
    "feasible": bool,
    "rounds": lambda rounds: tuple(map(dict, rounds)),
    "metrics": dict,
    "runtime_sec": float,
    "config_hash": str,
}
_FROM_JSON_NO_ROUNDS = {**_FROM_JSON, "rounds": lambda rounds: ()}
_JSON_DEFAULTS = {"fractions": None, "rounds": ()}


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
    values = {f.name: getattr(report, f.name) for f in fields(report)}
    return {k: str(v) if k in RATIONAL_METRICS else v for k, v in values.items()}


def outcome_rounds(
    outcome: Union[Outcome, FractionalOutcome],
) -> Iterator[dict]:
    """The outcome's round log as JSON-ready dicts, each built when read."""
    rounds = (
        outcome.purchases if isinstance(outcome, FractionalOutcome)
        else outcome.rounds
    )
    return map(_round_to_json, rounds)


def build_record(
    instance: str,
    rule: str,
    election: Election,
    outcome: Union[Outcome, FractionalOutcome],
    runtime_sec: float,
    config: Optional[RuleConfig] = None,
    keep_rounds: bool = True,
) -> RunRecord:
    """Assemble the full record, including the audit, for one run.

    ``keep_rounds=False`` leaves ``rounds`` empty, for a caller that writes
    the round log from :func:`outcome_rounds` (see :class:`RecordWriter`).
    """
    config = config if config is not None else RuleConfig()
    report = audit(election, outcome, config)
    names = {p.id: p.name for p in election.projects}
    if isinstance(outcome, FractionalOutcome):
        fractions: Optional[dict[str, str]] = {
            names[c]: str(f) for c, f in sorted(outcome.fractions.items())
        }
        feasible = True
    else:
        fractions = None
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
        rounds=tuple(outcome_rounds(outcome)) if keep_rounds else (),
        metrics=_metrics_to_json(report),
        runtime_sec=runtime_sec,
        config_hash=config_digest(rule, election.utility_model.value, config),
    )


def _ratio(value: object) -> tuple[int, int]:
    """An exact metric value as an integer (num, den) pair, den > 0.

    ``"p/q"`` and ``"p"`` in ASCII digits are split directly, and the pair
    is not reduced. Any other form (a sign, a decimal point, a zero
    denominator) goes through ``Fraction(str(value))``, so it is accepted or
    rejected exactly as ``Fraction`` does it.
    """
    if type(value) is str:
        num, slash, den = value.partition("/")
        if num.isdecimal() and value.isascii():
            if not slash:
                return int(num), 1
            if den.isdecimal() and (d := int(den)):
                return int(num), d
    exact = Fraction(str(value))
    return exact.numerator, exact.denominator


def _metric_pairs(record: RunRecord) -> dict[str, tuple[int, int]]:
    """The numeric metrics of :func:`metric_values`, as (num, den) pairs."""
    metrics = record.metrics
    out = {name: _ratio(metrics[name]) for name in RATIONAL_METRICS}
    out["exhaustive"] = (1 if metrics["exhaustive"] else 0, 1)
    violations = metrics.get("ejr_plus_violations")
    if violations is not None:
        count = int(violations)
        out["ejr_plus_violations"] = (count, 1)
        out["ejr_plus_violated"] = (1 if count > 0 else 0, 1)
    out["runtime_sec"] = record.runtime_sec.as_integer_ratio()
    return out


def metric_values(record: RunRecord) -> dict[str, Fraction]:
    """Numeric metrics of one record, as exact rationals.

    Booleans become 0/1. ``ejr_plus_violated`` is the derived 0/1
    indicator of a nonzero violation count, so its mean across records is
    the violation rate. Records without an EJR+ count (non-approval
    ballots) contribute neither EJR+ metric. Runtimes convert exactly
    from binary64.
    """
    return {
        name: Fraction(num, den)
        for name, (num, den) in _metric_pairs(record).items()
    }


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


def exact_quantile(sorted_values: Sequence[Fraction], percent: int) -> Fraction:
    """Linear-interpolation quantile at rank h = p * (k - 1), exact.

    ``statistics.quantiles`` computes every cut point, and before Python
    3.13 it rejects a single value.
    """
    k = len(sorted_values)
    if k == 0:
        raise ValueError("quantile of empty sequence")
    h = Fraction(percent, 100) * (k - 1)
    low = h.numerator // h.denominator
    rest = h - low
    if rest == 0 or low + 1 >= k:
        return sorted_values[low]
    return sorted_values[low] + rest * (sorted_values[low + 1] - sorted_values[low])


class _Ranked(Sequence[Fraction]):
    """num[j] / den[j] for j in ``order``, each built only when read."""

    def __init__(self, nums: list[int], dens: list[int], order: list[int]):
        self._nums, self._dens, self._order = nums, dens, order

    def __len__(self) -> int:
        return len(self._order)

    def __getitem__(self, i):
        j = self._order[i]
        return Fraction(self._nums[j], self._dens[j])


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


def _summary(
    pairs: list[tuple[int, int]],
) -> tuple[Fraction, float, dict[int, Fraction]]:
    """Exact mean, population standard deviation and quantiles of the
    values num/den.

    The mean and variance come from per-denominator integer sums of num and
    num**2, the way ``statistics.pvariance`` forms them for rationals, but
    without a ``Fraction`` per value.
    """
    sums: dict[int, list[int]] = {}
    for num, den in pairs:
        acc = sums.get(den)
        if acc is None:
            sums[den] = [num, num * num]
        else:
            acc[0] += num
            acc[1] += num * num
    k = len(pairs)
    sx = sum(Fraction(s, den) for den, (s, _) in sums.items())
    sxx = sum(Fraction(ss, den * den) for den, (_, ss) in sums.items())
    nums = [num for num, _ in pairs]
    dens = [den for _, den in pairs]
    ranked = _Ranked(nums, dens, _ratio_order(nums, dens, 1, 1))
    return (
        sx / k,
        math.sqrt((k * sxx - sx * sx) / (k * k)),
        {p: exact_quantile(ranked, p) for p in QUANTILE_POINTS},
    )


def aggregate_records(
    records: Iterable[RunRecord], preset: str = "split15"
) -> list[AggregateRow]:
    """Group records and summarize every metric exactly.

    Rows come back sorted by rule, metric, bucket lower bound, and
    ballot type.
    """
    groups: dict[tuple[str, str, str], list[dict[str, tuple[int, int]]]] = {}
    labels: dict[int, str] = {}
    bucket_low: dict[str, int] = {}
    for record in records:
        bucket = labels.get(record.n_projects)
        if bucket is None:
            bucket = labels[record.n_projects] = bucket_label(record.n_projects, preset)
            bucket_low[bucket] = int(bucket.rstrip("+").split("-")[0])
        key = (record.rule, bucket, record.ballot_type)
        groups.setdefault(key, []).append(_metric_pairs(record))
    rows = []
    for (rule, bucket, ballot_type), group in groups.items():
        for metric in dict.fromkeys(name for values in group for name in values):
            pairs = [values[metric] for values in group if metric in values]
            rows.append(AggregateRow(
                rule, metric, bucket, ballot_type, len(pairs), *_summary(pairs)
            ))
    rows.sort(key=lambda r: (r.rule, r.metric, bucket_low[r.bucket], r.ballot_type))
    return rows


# RecordWriter writes keys sorted with the default separators, and "rule"
# sorts right after "rounds", so a record's round log sits between these.
_ROUNDS_KEY = '"rounds": '
_ROUNDS_OPEN = _ROUNDS_KEY + "["
_ROUNDS_CLOSE = '], "rule": '
_RECORD_KEYS = frozenset(RunRecord.__dataclass_fields__)
_decode = json.JSONDecoder().raw_decode


def _without_rounds(line: str) -> Optional[dict]:
    """The record object of a line, decoded without its round log, or None
    when the line is not in the layout :class:`RecordWriter` writes.

    The round log runs from the first ``"rounds": [`` to the last
    ``], "rule": ``. The text before it, closed as ``"rounds": []}``, and
    the text after it, opened as ``{"rounds": [``, must each decode. That
    proves both cuts sit at the top level of one object, and it finds
    malformed JSON outside the round log. The round log's own text is not
    read. A cut that swallowed a key :class:`RunRecord` reads is caught
    because the key is then missing; only a line that repeats a top-level
    key, which :class:`RecordWriter` never writes, can read differently
    from a full decode.
    """
    start = line.find(_ROUNDS_OPEN)
    end = line.rfind(_ROUNDS_CLOSE)
    if start < 0 or end < start:
        return None
    head = line[:start].lstrip() + '"rounds": []}'
    tail = '{"rounds": [' + line[end:].rstrip()
    try:
        data, stop = _decode(head)
        rest, stop_rest = _decode(tail)
    except ValueError:
        return None
    if stop != len(head) or stop_rest != len(tail):
        return None
    data.update(rest)
    return data if data.keys() >= _RECORD_KEYS else None


def records_from_jsonl(
    text: Union[str, Iterable[str]], keep_rounds: bool = True
) -> list[RunRecord]:
    """Records of a JSONL text, or of an iterable of its lines such as an
    open file, one per non-blank line.

    With ``keep_rounds=False`` each record's round log is dropped as its
    line is read, for readers that need only the outcome and metrics; on a
    line in the layout :class:`RecordWriter` writes, the round log is cut
    out undecoded (:func:`_without_rounds`).
    """
    records = []
    for line in io.StringIO(text) if isinstance(text, str) else text:
        # Neither test nor cut copies the line, which may hold a long log.
        if not line or line.isspace():
            continue
        data = None if keep_rounds else _without_rounds(line)
        if data is None:
            data = json.loads(line.strip())
        records.append(RunRecord.from_json(data, keep_rounds))
    return records


# Flat CSV schema: the fields but metrics, then one ``metric_<name>`` column
# per metric. Metrics and the fields from_json does not read with str, int
# or float are JSON in their cells (a flag as 0 or 1), so nothing is lost.
_CSV_FIELDS = tuple(f.name for f in fields(RunRecord) if f.name != "metrics")
_CSV_JSON = frozenset(
    name for name in _CSV_FIELDS if _FROM_JSON[name] not in (str, int, float)
)
_CSV_ROUNDS = _CSV_FIELDS.index("rounds")


def _csv_row(cells: Sequence[object]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(cells)
    return buf.getvalue()


def _jsonl_parts(record: RunRecord) -> tuple[str, str]:
    """The JSONL line of ``record`` before and after its round log."""
    data = record.to_json()
    before = json.dumps({k: v for k, v in data.items() if k < "rounds"},
                        sort_keys=True)
    after = json.dumps({k: v for k, v in data.items() if k > "rounds"},
                       sort_keys=True)
    return before[:-1] + ", " + _ROUNDS_KEY, ", " + after[1:] + "\n"


def _csv_cell(name: str, value: object) -> object:
    if name not in _CSV_JSON:
        return value
    if value is None:
        return ""
    return json.dumps(int(value) if isinstance(value, bool) else _to_json(value))


def _csv_parts(record: RunRecord, metric_names: Sequence[str]) -> tuple[str, str]:
    """The CSV row of ``record`` before and after its round-log cell."""
    cells = [_csv_cell(f, getattr(record, f)) for f in _CSV_FIELDS if f != "rounds"]
    values = [record.metrics.get(m) for m in metric_names]
    cells += ["" if value is None else json.dumps(value) for value in values]
    return _csv_row(cells[:_CSV_ROUNDS])[:-1] + ",", "," + _csv_row(cells[_CSV_ROUNDS:])


class RecordWriter:
    """Writes records to a text stream, each round of a round log as it
    comes, so that no record's whole log is ever one string.

    With ``csv_metrics`` None the output is JSONL, byte for byte
    ``json.dumps(record.to_json(), sort_keys=True)``: the keys before
    ``"rounds"``, the rounds, then the keys after it, which is the layout
    :func:`_without_rounds` cuts on. Otherwise it is flat CSV with one
    ``metric_<name>`` column per name in ``csv_metrics``; :meth:`header`
    writes its header line.
    """

    def __init__(
        self, stream: TextIO, csv_metrics: Optional[Sequence[str]] = None
    ) -> None:
        self.stream = stream
        self.csv_metrics = csv_metrics

    def header(self) -> None:
        """The CSV header line; JSONL has none."""
        if self.csv_metrics is not None:
            self.stream.write(_csv_row(
                _CSV_FIELDS + tuple(f"metric_{m}" for m in self.csv_metrics)
            ))

    def write(
        self,
        record: RunRecord,
        rounds: Optional[Iterable[Mapping[str, object]]] = None,
    ) -> int:
        """Write one record whose round log is ``rounds`` (default:
        ``record.rounds``), encoding each round only when its turn comes;
        return the number of rounds."""
        csv_out = self.csv_metrics is not None
        if csv_out:
            head, tail = _csv_parts(record, self.csv_metrics)
        else:
            head, tail = _jsonl_parts(record)
        rounds = record.rounds if rounds is None else rounds
        texts = (json.dumps(dict(r), sort_keys=not csv_out) for r in rounds)
        first, second = next(texts, None), next(texts, None)
        write = self.stream.write
        write(head)
        if second is None:
            # Whether csv quotes a log of one round depends on its text.
            cell = "[]" if first is None else "[" + first + "]"
            write(_csv_row([cell])[:-1] if csv_out else cell)
            count = 0 if first is None else 1
        else:
            # Two rounds hold a comma, so csv quotes the cell and doubles
            # the quotes inside it.
            quote = '"' if csv_out else ""
            put = (lambda text: write(text.replace('"', '""'))) if csv_out else write
            write(quote)
            put("[" + first)
            count = 1
            for text in chain((second,), texts):
                put(", " + text)
                count += 1
            put("]")
            write(quote)
        write(tail)
        return count


def records_to_jsonl(records: Iterable[RunRecord]) -> str:
    buf = io.StringIO()
    writer = RecordWriter(buf)
    for r in records:
        writer.write(r)
    return buf.getvalue()


def records_to_csv(records: Iterable[RunRecord]) -> str:
    records = list(records)
    buf = io.StringIO()
    writer = RecordWriter(buf, sorted({name for r in records for name in r.metrics}))
    writer.header()
    for r in records:
        writer.write(r)
    return buf.getvalue()


def records_from_csv(text: Union[str, Iterable[str]]) -> list[RunRecord]:
    """Records of a CSV text, or of an iterable of its lines such as a file
    opened with ``newline=""``. A round log is one cell, often megabytes
    long, so ``csv``'s process-wide field limit is lifted while reading."""
    lines = io.StringIO(text) if isinstance(text, str) else text
    records = []
    limit = csv.field_size_limit(sys.maxsize)
    try:
        for row in csv.DictReader(lines):
            metrics: dict[str, object] = {}
            data: dict[str, object] = {"metrics": metrics}
            for key, raw in row.items():
                if key.startswith("metric_"):
                    metrics[key[len("metric_"):]] = (
                        None if raw == "" else json.loads(raw)
                    )
                elif key in _CSV_JSON:
                    data[key] = None if raw == "" else json.loads(raw)
                else:
                    data[key] = raw
            records.append(RunRecord.from_json(data))
    finally:
        csv.field_size_limit(limit)
    return records


def aggregate_to_csv(rows: Iterable[AggregateRow]) -> str:
    """CSV of the :class:`AggregateRow` fields, with one column per quantile
    point; exact rational means and quantiles are ``p/q`` strings."""
    columns = [f.name for f in fields(AggregateRow) if f.name != "quantiles"]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns + [f"q{p}" for p in QUANTILE_POINTS])
    for row in rows:
        writer.writerow(
            [getattr(row, name) for name in columns]
            + [row.quantiles[p] for p in QUANTILE_POINTS]
        )
    return buf.getvalue()
