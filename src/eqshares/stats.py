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
from the record or from an iterable such as :func:`outcome_purchases`, so
``batch`` builds each record without its log (``build_record(...,
keep_rounds=False)``) and never holds a whole log, record or file as one
object. :func:`_round_text` alone encodes a purchase record, integer
payments from their numerators, and :func:`build_record` decodes its text.
A round's payments are reduced to lowest terms through their shared rate
(:func:`_payment_texts`): one gcd of ledger-sized integers per round, not
one per payer.
:func:`records_to_jsonl` and :func:`records_to_csv` are the writer on a
string buffer.

The readers decode one line at a time. :func:`records_from_csv` takes a
string or an iterable of lines, such as an open file;
:func:`records_from_jsonl` takes a string or a file opened in binary, and
reads both through one binary reader (:func:`_binary_objects`), a string
as its UTF-8 bytes. Reading records without their round logs
(``keep_rounds=False``, which ``aggregate`` and ``plotdata`` use) cuts each
line's top-level round log out before decoding, when the line is in the
layout :class:`RecordWriter` writes; such a line is read in bounded pieces
and its round log is never held whole. Other lines are decoded whole,
rounds set to ``[]``. A CSV round-log cell is skipped undecoded. The
JSON syntax of a round log left out is not checked. ``aggregate`` reads
each record as a :class:`RecordRow`, which checks what
:meth:`RunRecord.from_json` checks but keeps only what aggregation reads.
"""
from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import math
import sys
from dataclasses import dataclass, field, fields
from fractions import Fraction
from itertools import chain
from typing import (
    BinaryIO, Callable, Iterable, Iterator, Mapping, NamedTuple, Optional,
    Sequence, TextIO, TypeVar, Union,
)

from .axioms import AuditReport, audit
from .model import (
    Election, FractionalOutcome, Outcome, Payments, PurchaseRecord,
)
from .rules import RuleConfig, _ratio_order

__all__ = [
    "RunRecord",
    "RecordRow",
    "RecordWriter",
    "AggregateRow",
    "BUCKET_PRESETS",
    "QUANTILE_POINTS",
    "RECORD_METRICS",
    "build_record",
    "outcome_purchases",
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
    def from_json(cls, data: object) -> "RunRecord":
        """Rebuild a record; ``fractions`` and ``rounds`` may be left out."""
        return cls(**_json_fields(data))


class RecordRow(NamedTuple):
    """What aggregation reads of a record, under :class:`RunRecord`'s
    field names, so :func:`aggregate_records` takes either."""

    rule: str
    n_projects: int
    ballot_type: str
    metrics: Mapping[str, object]
    runtime_sec: float

    @classmethod
    def from_json(cls, data: object) -> "RecordRow":
        """The row of a decoded record, which it accepts or rejects exactly
        as :meth:`RunRecord.from_json` does, without building the record.

        A record whose every field has the type its read takes unchanged
        (``_PLAIN``), as ``batch`` writes them, is checked by those types
        alone; any other goes through the reads themselves.
        """
        if not (type(data) is dict
                and tuple(map(type, map(data.get, _FROM_JSON))) in _PLAIN_TYPES
                and not data["rounds"]):
            data = _json_fields(data)
        return cls(*map(data.__getitem__, cls._fields))


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
_JSON_DEFAULTS = {"fractions": None, "rounds": ()}
# The JSON type of each field on which its read above cannot fail and
# returns the value, or a copy of it. A decoded record whose fields all have
# these types, fractions null or an object and the round log empty, passes
# every read unchanged (RecordRow.from_json).
_PLAIN = {
    "instance": str, "rule": str, "model": str, "ballot_type": str,
    "n_voters": int, "n_projects": int, "budget": str, "selected": list,
    "fractions": dict, "feasible": bool, "rounds": list, "metrics": dict,
    "runtime_sec": float, "config_hash": str,
}
_PLAIN_TYPES = {
    tuple(kinds[name] for name in _FROM_JSON)
    for kinds in (_PLAIN, {**_PLAIN, "fractions": type(None)})
}


def _json_fields(data: object) -> dict[str, object]:
    """Every :class:`RunRecord` field of a decoded record, read as
    ``_FROM_JSON`` says."""
    if not isinstance(data, Mapping):
        raise TypeError(f"a record must be an object, not {type(data).__name__}")
    return {
        name: read(data[name] if name in data else _JSON_DEFAULTS[name])
        for name, read in _FROM_JSON.items()
    }


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


class _VoterKeys(dict):
    """``'"<voter>": "'``, a payment's JSON text up to its value, made on
    first use for each voter."""

    def __missing__(self, voter: int) -> str:
        key = self[voter] = f'"{voter}": "'
        return key


def _payment_texts(
    numerators: Iterable[int], den: int, rate: int
) -> dict[int, str]:
    """Map each numerator n to ``str(Fraction(n, den))``, built without a
    ``Fraction``.

    A numerator that a positive ``rate`` divides is w * rate. With
    g0 = gcd(rate, den), r1 = rate / g0 and d1 = den / g0, r1 and d1 are
    coprime, so gcd(n, den) = g0 * g with g = gcd(w, d1), and the payment
    is (w / g) * r1 over d1 / g: one gcd of ledger-sized integers per
    round, then one with the small w per numerator. Any other numerator
    (a capped payer's) is reduced by its own gcd with ``den``. Which way a
    numerator goes depends on it alone, and both give the same text.
    """
    texts = {}
    rest = numerators
    if rate > 0:
        g0 = math.gcd(rate, den)
        r1, d1 = rate // g0, den // g0
        tails: dict[int, str] = {}
        rest = []
        for n in numerators:
            w, r = divmod(n, rate)
            if r:
                rest.append(n)
                continue
            g = math.gcd(w, d1)
            tail = tails.get(g)
            if tail is None:
                tail = tails[g] = "" if d1 == g else f"/{d1 // g}"
            texts[n] = f"{w // g * r1}{tail}"
    for n in rest:
        g = math.gcd(n, den)
        texts[n] = f"{n // g}/{den // g}" if den != g else str(n // g)
    return texts


def _round_text(record: PurchaseRecord, sort_keys: bool, keys: _VoterKeys) -> str:
    """A round's JSON text, the only encoder of one: rationals as ``p/q``
    strings, payments by ascending voter or, with ``sort_keys``, every key
    in the order ``json.dumps(..., sort_keys=True)`` writes.

    :class:`~eqshares.model.Payments` are written from their numerators,
    each distinct one reduced through the payments' ``rate`` and formatted
    once (:func:`_payment_texts`); a plain mapping's values with ``str``.
    An entry is its voter's key text joined to its value's, and with
    ``sort_keys`` the entries are sorted as strings: two keys
    differ at a digit or where the shorter one's closing quote meets a
    digit, which orders them as JSON sorts the voters. Every value is an
    exact rational (digits, a sign, a slash), which JSON quotes unescaped.
    """
    pays = record.payments
    if isinstance(pays, Payments):
        texts = _payment_texts(set(pays.amounts), pays.den, pays.rate)
        voters, values = pays.payers, map(texts.__getitem__, pays.amounts)
    else:
        voters, values = list(pays), map(str, pays.values())
    entries = list(map(str.__add__, map(keys.__getitem__, voters), values))
    if sort_keys:
        entries.sort()
    else:
        entries = [
            entries[j] for j in sorted(range(len(voters)), key=voters.__getitem__)
        ]
    fields = {
        "project": json.dumps(record.project),
        "alpha": f'"{record.alpha}"',
        "rho": "null" if record.rho is None else f'"{record.rho}"',
        "payments": "{" + '", '.join(entries) + '"}' if entries else "{}",
        "overspent": json.dumps(list(record.overspent)),
    }
    order = sorted(fields) if sort_keys else fields
    return "{" + ", ".join(f'"{k}": {fields[k]}' for k in order) + "}"


def _metrics_to_json(report: AuditReport) -> dict:
    values = {f.name: getattr(report, f.name) for f in fields(report)}
    return {k: str(v) if k in RATIONAL_METRICS else v for k, v in values.items()}


def outcome_purchases(
    outcome: Union[Outcome, FractionalOutcome],
) -> tuple[PurchaseRecord, ...]:
    """The outcome's round log: an integral outcome's rounds, a fractional
    one's purchases."""
    if isinstance(outcome, FractionalOutcome):
        return outcome.purchases
    return outcome.rounds


def outcome_rounds(
    outcome: Union[Outcome, FractionalOutcome],
) -> Iterator[dict]:
    """The outcome's round log as dicts, each decoded when read from its
    :func:`_round_text`."""
    keys = _VoterKeys()
    return (json.loads(_round_text(r, False, keys))
            for r in outcome_purchases(outcome))


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
    the round log from :func:`outcome_purchases` (see :class:`RecordWriter`).
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


def _metric_columns(
    records: Sequence[Union[RunRecord, RecordRow]],
) -> dict[str, list[tuple[int, int]]]:
    """The numeric metrics of :func:`metric_values` over ``records``, one
    column of (num, den) pairs per metric. The EJR+ columns hold the
    records that have a count; they are left out when none has one."""
    metrics = [record.metrics for record in records]
    out = {
        name: [_ratio(values[name]) for values in metrics]
        for name in RATIONAL_METRICS
    }
    out["exhaustive"] = [(1 if values["exhaustive"] else 0, 1) for values in metrics]
    counts = [
        int(violations) for values in metrics
        if (violations := values.get("ejr_plus_violations")) is not None
    ]
    if counts:
        out["ejr_plus_violations"] = [(count, 1) for count in counts]
        out["ejr_plus_violated"] = [(1 if count > 0 else 0, 1) for count in counts]
    out["runtime_sec"] = [record.runtime_sec.as_integer_ratio() for record in records]
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
        name: Fraction(*column[0])
        for name, column in _metric_columns([record]).items()
    }


def bucket_label(n_projects: int, preset: str = "split15") -> str:
    """Project-count bucket label, e.g. ``9-15`` or ``28+``.

    Raises ValueError for a count below the preset's first bucket.
    """
    try:
        bounds = BUCKET_PRESETS[preset]
    except KeyError:
        raise ValueError(f"unknown bucket preset {preset!r}") from None
    for low, high in bounds:
        if n_projects < low:
            break
        if high is None:
            return f"{low}+"
        if n_projects <= high:
            return f"{low}-{high}"
    raise ValueError(f"no {preset} bucket holds {n_projects} projects")


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
    ranked = _Ranked(nums, dens, _ratio_order(nums, dens))
    return (
        sx / k,
        math.sqrt((k * sxx - sx * sx) / (k * k)),
        {p: exact_quantile(ranked, p) for p in QUANTILE_POINTS},
    )


def aggregate_records(
    records: Iterable[Union[RunRecord, RecordRow]], preset: str = "split15"
) -> list[AggregateRow]:
    """Group records, or their rows (:class:`RecordRow`), and summarize
    every metric exactly.

    Records are grouped before any metric is parsed, and each group's
    metrics are then read a column at a time (:func:`_metric_columns`).
    Rows come back sorted by rule, metric, bucket lower bound, and
    ballot type.
    """
    groups: dict[tuple[str, str, str], list[Union[RunRecord, RecordRow]]] = {}
    labels: dict[int, str] = {}
    bucket_low: dict[str, int] = {}
    for record in records:
        bucket = labels.get(record.n_projects)
        if bucket is None:
            bucket = labels[record.n_projects] = bucket_label(record.n_projects, preset)
            bucket_low[bucket] = int(bucket.rstrip("+").split("-")[0])
        groups.setdefault(
            (record.rule, bucket, record.ballot_type), []
        ).append(record)
    rows = [
        AggregateRow(rule, metric, bucket, ballot_type, len(pairs), *_summary(pairs))
        for (rule, bucket, ballot_type), members in groups.items()
        for metric, pairs in _metric_columns(members).items()
    ]
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


_R = TypeVar("_R")


# A binary record file is read in pieces of at most this many bytes.
_PIECE = 1 << 18
_OPEN_BYTES = _ROUNDS_OPEN.encode()
_CLOSE_BYTES = _ROUNDS_CLOSE.encode()
# The bytes a piece carries over to the next, so that a cut pattern split
# across two pieces is found: one fewer than the longer pattern.
_CARRY = max(len(_OPEN_BYTES), len(_CLOSE_BYTES)) - 1


def _cut_line(
    piece: bytes, more: Callable[[], bytes]
) -> tuple[Optional[bytes], Optional[bytes]]:
    """Read the rest of the line that begins with ``piece``, piece by piece
    from ``more``, and return its kept text and the whole line.

    The kept text is the line up to the end of its first ``"rounds": [``
    followed by the line from its last ``], "rule": `` on; it is None when
    the line lacks either in that order, or holds a carriage return that
    does not end it as ``\\r\\n`` (text mode would end a line there). The
    bytes between the two are neither kept nor decoded. The whole line is
    returned only when it came as one piece.
    """
    whole = piece
    kept: list[bytes] = []  # the line up to the open, then from a close on
    head = None  # the line up to the open, once found
    carry = b""
    clean = True
    while piece:
        ends = piece.endswith(b"\n")
        if clean and (cr := piece.find(b"\r")) >= 0:
            clean = ends and cr == len(piece) - 2
        buf = carry + piece
        skip = len(carry)  # buf's bytes that the last piece already handled
        opened = 0  # where in buf the text after the open begins
        if head is None:
            at = buf.find(_OPEN_BYTES)
            if at < 0:
                kept.append(piece)
            else:
                opened = at + len(_OPEN_BYTES)
                kept.append(buf[skip:opened])
                head, kept = b"".join(kept), []
        if head is not None:
            # Text without a "u" holds no close. The round logs RecordWriter
            # writes hold one only in a null rho, so this memchr passes over
            # most of their pieces without the slower pattern search.
            at = buf.rfind(_CLOSE_BYTES, opened) if b"u" in buf else -1
            if at >= 0:
                kept = [buf[at:]]
            elif kept:
                kept.append(buf[skip:])
        carry = buf[-_CARRY:]
        if ends:
            break
        piece = more()
        if piece:
            whole = None
    if head is None or not kept or not clean:
        return None, whole
    return head + b"".join(kept), whole


def _binary_objects(
    handle: BinaryIO, keep_rounds: bool, limit: int = _PIECE
) -> Iterator[object]:
    """The decoded object of each non-blank line of a binary JSONL
    stream, whose lines end as in text mode (``\\n``, ``\\r\\n`` or
    ``\\r``), and whose first line may begin with a UTF-8 byte-order mark;
    with ``keep_rounds=False`` an object's round log is dropped.

    Without round logs, each line is read in pieces of at most ``limit``
    bytes and only its kept text (:func:`_cut_line`) is decoded, through
    :func:`_without_rounds`. A line whose kept text does not take that cut
    is read again whole, split into lines as text mode splits it, and each
    is decoded whole; a stream that cannot seek is read a whole line at a
    time. So a line in the layout :class:`RecordWriter` writes is never
    held whole, and its round log is not decoded: its JSON syntax and its
    UTF-8 are not checked. Every other line reads as it does in text mode.
    """
    seekable = handle.seekable()
    if keep_rounds or not seekable:
        limit = -1
    more = functools.partial(handle.readline, limit)
    start = handle.tell() if seekable else 0
    first = True
    while piece := more():
        kept, whole = (None, piece) if keep_rounds else _cut_line(piece, more)
        bom = "\ufeff" if first else ""
        data = None
        if kept is not None:
            data = _without_rounds(kept.decode("utf-8").removeprefix(bom))
        if data is not None:
            yield data
        else:
            if whole is None:
                handle.seek(start)
                whole = handle.readline()
            text = whole.decode("utf-8").removeprefix(bom)
            for line in io.StringIO(text, newline=None):
                if line.isspace():
                    continue
                data = json.loads(line.strip())
                if not keep_rounds and isinstance(data, dict):
                    data["rounds"] = []
                yield data
        start = handle.tell() if seekable else 0
        first = False


def records_from_jsonl(
    text: Union[str, BinaryIO],
    keep_rounds: bool = True,
    read: Callable[[object], _R] = RunRecord.from_json,
) -> list[_R]:
    """Records of a JSONL text or of a file opened in binary mode, one per
    non-blank line, each built by ``read`` from its decoded object:
    :meth:`RunRecord.from_json` by default, or
    :meth:`RecordRow.from_json` for aggregation. Any other input is a
    ``TypeError``.

    Both are read by one reader (:func:`_binary_objects`), a text as its
    UTF-8 bytes: as a UTF-8 file with an optional byte-order mark, its
    lines ending as in text mode. With ``keep_rounds=False`` each record's
    round log is dropped as its line is read, for readers that need only
    the outcome and metrics; on a line in the layout :class:`RecordWriter`
    writes, the round log is cut out undecoded (:func:`_without_rounds`),
    and a file is read in memory that does not grow with a line's round
    log.
    """
    if isinstance(text, str):
        text = io.BytesIO(text.encode("utf-8"))
    elif not isinstance(text, (io.RawIOBase, io.BufferedIOBase)):
        raise TypeError(
            f"expected a str or a binary file, not {type(text).__name__}"
        )
    return list(map(read, _binary_objects(text, keep_rounds)))


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

    A round comes as its JSON mapping or as the
    :class:`~eqshares.model.PurchaseRecord` it encodes
    (:func:`outcome_purchases`). A purchase record's text is written
    straight from its payments: for the rules' integer
    :class:`~eqshares.model.Payments`, each distinct numerator is reduced
    through the round's rate and formatted once, and no rational is built.

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
        self._keys = _VoterKeys()

    def header(self) -> None:
        """The CSV header line; JSONL has none."""
        if self.csv_metrics is not None:
            self.stream.write(_csv_row(
                _CSV_FIELDS + tuple(f"metric_{m}" for m in self.csv_metrics)
            ))

    def write(
        self,
        record: RunRecord,
        rounds: Optional[
            Iterable[Union[Mapping[str, object], PurchaseRecord]]
        ] = None,
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
        texts = (
            _round_text(r, not csv_out, self._keys)
            if isinstance(r, PurchaseRecord)
            else json.dumps(dict(r), sort_keys=not csv_out)
            for r in rounds
        )
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


def records_from_csv(
    text: Union[str, Iterable[str]],
    keep_rounds: bool = True,
    read: Callable[[object], _R] = RunRecord.from_json,
) -> list[_R]:
    """Records of a CSV text, or of an iterable of its lines such as a file
    opened with ``newline=""``, each built by ``read`` as in
    :func:`records_from_jsonl`. A text may begin with a byte-order mark, as
    a file opened with ``utf-8-sig`` may. A round log is one cell, often
    megabytes long, so ``csv``'s process-wide field limit is lifted while
    reading.

    With ``keep_rounds=False`` each round-log cell is left undecoded and
    the record's ``rounds`` are empty, as :func:`records_from_jsonl` does;
    the cell's JSON syntax is then not checked.
    """
    if isinstance(text, str):
        text = io.StringIO(text.removeprefix("\ufeff"))
    records = []
    limit = csv.field_size_limit(sys.maxsize)
    try:
        reader = csv.DictReader(text)
        for row in reader:
            if None in row:
                # DictReader keeps the cells past the header under None.
                raise ValueError(
                    f"line {reader.line_num}: more cells than the header"
                )
            metrics: dict[str, object] = {}
            data: dict[str, object] = {"metrics": metrics}
            for key, raw in row.items():
                if key.startswith("metric_"):
                    metrics[key[len("metric_"):]] = (
                        None if raw == "" else json.loads(raw)
                    )
                elif key == "rounds" and not keep_rounds:
                    data[key] = ()
                elif key in _CSV_JSON:
                    data[key] = None if raw == "" else json.loads(raw)
                else:
                    data[key] = raw
            records.append(read(data))
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
