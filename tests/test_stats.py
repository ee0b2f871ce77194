"""Run-record, exact-summary, and serialization tests."""

from __future__ import annotations

import csv
import dataclasses
import functools
import io
import json
import time
import tracemalloc
from collections import defaultdict
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from eqshares.cli import BENCH_RULES, main
from eqshares.model import Election, Outcome, Payments, PurchaseRecord
from eqshares.rules import RULE_NAMES, RuleConfig, TieBreaker, fres, mes, run_rule
from eqshares.stats import (
    BUCKET_PRESETS,
    QUANTILE_POINTS,
    RATIONAL_METRICS,
    RECORD_METRICS,
    AggregateRow,
    RecordRow,
    RecordWriter,
    RunRecord,
    aggregate_records,
    aggregate_to_csv,
    bucket_label,
    build_record,
    config_digest,
    exact_quantile,
    metric_values,
    outcome_purchases,
    outcome_rounds,
    records_from_csv,
    records_from_jsonl,
    records_to_csv,
    records_to_jsonl,
)
from eqshares.stats import _binary_objects, _cut_line, _without_rounds
from eqshares.synth import Dist, EuclideanConfig, VoterCluster, gen_euclidean

FRACTIONS = st.fractions(
    min_value=0, max_value=10, max_denominator=20
)


def make_record(
    rule="mes",
    instance="i0",
    n_projects=5,
    ballot_type="approval",
    exclusion=F(0),
    violations=0,
    runtime=0.25,
):
    metrics: dict[str, object] = {name: "0" for name in RATIONAL_METRICS}
    metrics["exclusion_ratio"] = str(exclusion)
    metrics["exhaustive"] = True
    metrics["ejr_plus_violations"] = violations
    return RunRecord(
        instance=instance,
        rule=rule,
        model="cost",
        ballot_type=ballot_type,
        n_voters=3,
        n_projects=n_projects,
        budget="10",
        selected=("A",),
        fractions=None,
        feasible=True,
        rounds=(),
        metrics=metrics,
        runtime_sec=runtime,
        config_hash="0" * 16,
    )


def with_exclusion(written) -> RunRecord:
    """A record whose exclusion ratio is written as ``written``."""
    record = make_record()
    return dataclasses.replace(
        record, metrics=dict(record.metrics, exclusion_ratio=written)
    )


class TestBuildRecord:
    def test_integral_run(self, reference_election):
        start = time.perf_counter()
        outcome = mes(reference_election)
        elapsed = time.perf_counter() - start
        record = build_record("ref", "mes", reference_election, outcome,
                              elapsed)
        assert record.rule == "mes"
        assert record.model == "cost"
        assert record.ballot_type == "approval"
        assert record.n_voters == 10
        assert record.n_projects == 6
        assert record.budget == "1000000"
        assert record.selected == ("A", "D", "E")
        assert record.fractions is None
        assert record.feasible is True
        assert len(record.rounds) == 3
        first = record.rounds[0]
        assert first["project"] == 0
        assert first["alpha"] == "1"
        assert first["rho"] == "1/6"
        assert first["payments"]["0"] == "50000"
        assert record.metrics["budget_spent_fraction"] == "71/100"
        assert record.metrics["exhaustive"] is False
        assert record.metrics["ejr_plus_violations"] == 0
        assert record.config_hash == config_digest("mes", "cost", RuleConfig())

    def test_fractional_run(self, reference_election):
        config = RuleConfig(tie_breaker=TieBreaker(order=(2, 5)))
        outcome = fres(reference_election, config)
        record = build_record("ref", "fres", reference_election, outcome,
                              0.1, config)
        assert record.selected == ("A", "D")
        assert record.fractions == {
            "A": "1", "C": "5/6", "D": "1", "E": "11/17", "F": "1/2",
        }
        assert record.feasible is True
        assert len(record.rounds) == 6

    def test_ballot_type_defaults_to_cardinal(self, reference_election):
        e = reference_election
        bare = Election(e.projects, e.n_voters, e.budget, e.scores,
                        e.utility_model)
        record = build_record("x", "mes", bare, mes(bare), 0.0)
        assert record.ballot_type == "cardinal"

    def test_json_round_trip(self, reference_election):
        record = build_record("ref", "mes", reference_election,
                              mes(reference_election), 0.5)
        assert RunRecord.from_json(record.to_json()) == record


class TestConfigDigest:
    def test_stable_and_sensitive(self):
        base = config_digest("mes", "cost", RuleConfig())
        assert len(base) == 16
        assert int(base, 16) >= 0
        assert config_digest("mes", "cost", RuleConfig()) == base
        assert config_digest("bos", "cost", RuleConfig()) != base
        assert config_digest("mes", "score", RuleConfig()) != base
        assert config_digest(
            "mes", "cost", RuleConfig(tie_breaker=TieBreaker(order=(1,)))
        ) != base
        assert config_digest(
            "mes", "cost", RuleConfig(add1u_step=F(1, 2))
        ) != base
        assert config_digest(
            "mes", "cost", RuleConfig(exhaustive_redistribution=True)
        ) != base


class TestMetricValues:
    def test_booleans_and_indicator(self):
        values = metric_values(make_record(violations=2, exclusion=F(1, 3)))
        assert values["exclusion_ratio"] == F(1, 3)
        assert values["exhaustive"] == 1
        assert values["ejr_plus_violations"] == 2
        assert values["ejr_plus_violated"] == 1
        clean = metric_values(make_record(violations=0))
        assert clean["ejr_plus_violated"] == 0

    def test_non_approval_skips_ejr_metrics(self):
        record = make_record()
        metrics = dict(record.metrics)
        metrics["ejr_plus_violations"] = None
        record = dataclasses.replace(record, metrics=metrics)
        values = metric_values(record)
        assert "ejr_plus_violations" not in values
        assert "ejr_plus_violated" not in values

    def test_runtime_exact_from_float(self):
        values = metric_values(make_record(runtime=0.1))
        assert values["runtime_sec"] == F(0.1)
        assert float(values["runtime_sec"]) == 0.1

    @pytest.mark.parametrize(
        "written,value",
        [("2/4", F(1, 2)), ("-6/4", F(-3, 2)), ("0.5", F(1, 2)), ("7", F(7)),
         (7, F(7)), (" 3/9 ", F(1, 3)), ("1e2", F(100)), ("+2/3", F(2, 3))],
    )
    def test_written_forms(self, written, value):
        assert metric_values(with_exclusion(written))["exclusion_ratio"] == value

    @pytest.mark.parametrize(
        "written,error",
        [("1/0", ZeroDivisionError), ("3/", ValueError), ("1/-2", ValueError),
         ("", ValueError), ("-", ValueError), ("½", ValueError),
         (True, ValueError)],
    )
    def test_rejects_what_fraction_rejects(self, written, error):
        with pytest.raises(error):
            metric_values(with_exclusion(written))


class TestBucketLabel:
    @pytest.mark.parametrize(
        "count,label",
        [(1, "1-8"), (8, "1-8"), (9, "9-15"), (12, "9-15"), (15, "9-15"),
         (16, "16-27"), (27, "16-27"), (28, "28+"), (150, "28+")],
    )
    def test_split15_edges(self, count, label):
        assert bucket_label(count) == label

    @pytest.mark.parametrize(
        "count,label",
        [(8, "1-8"), (9, "9-16"), (12, "9-16"), (16, "9-16"), (17, "17-28"),
         (28, "17-28"), (29, "29+")],
    )
    def test_split16_edges(self, count, label):
        assert bucket_label(count, "split16") == label

    def test_presets_cover_both_partitions(self):
        assert set(BUCKET_PRESETS) == {"split15", "split16"}

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            bucket_label(5, "weekly")


class TestCountBelowFirstBucket:
    @pytest.mark.parametrize("preset", ["split15", "split16"])
    @pytest.mark.parametrize("count", [0, -1])
    def test_rejected(self, preset, count):
        with pytest.raises(ValueError, match="bucket"):
            bucket_label(count, preset)

    def test_aggregate_rejects_a_zero_project_record(self):
        with pytest.raises(ValueError):
            aggregate_records([make_record(), make_record(n_projects=0)])


class TestExactSummaries:
    @staticmethod
    def summary(values):
        """The aggregate row of records whose exclusion ratios are ``values``."""
        rows = aggregate_records(make_record(exclusion=v) for v in values)
        return next(r for r in rows if r.metric == "exclusion_ratio")

    def test_empty_sequences_rejected(self):
        assert aggregate_records([]) == []
        with pytest.raises(ValueError):
            exact_quantile([], 50)

    def test_single_value(self):
        row = self.summary([F(3, 7)])
        assert (row.mean, row.std) == (F(3, 7), 0)
        for p in QUANTILE_POINTS:
            assert exact_quantile([F(3, 7)], p) == F(3, 7)

    def test_interpolated_quantile(self):
        values = [F(1), F(2), F(3), F(4)]
        assert exact_quantile(values, 25) == F(7, 4)
        assert exact_quantile(values, 50) == F(5, 2)
        assert exact_quantile(values, 90) == F(1) + F(90, 100) * 3

    @given(st.lists(FRACTIONS, min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_matches_independent_statistics(self, values):
        row = self.summary(values)
        assert row.mean == oracles.second_mean(values)
        assert row.std == pytest.approx(oracles.second_std(values))
        expected = oracles.second_quantiles(values)
        ordered = sorted(values)
        for p in QUANTILE_POINTS:
            assert exact_quantile(ordered, p) == expected[p]


class TestAggregateRecords:
    def records(self):
        return [
            make_record(instance="a", exclusion=F(1, 4), runtime=0.5),
            make_record(instance="b", exclusion=F(3, 4), violations=1),
            make_record(instance="c", n_projects=20, exclusion=F(1, 2)),
            make_record(instance="d", rule="bos", exclusion=F(1)),
        ]

    def test_grouping_and_sorting(self):
        rows = aggregate_records(self.records())
        keys = [(r.rule, r.metric, r.bucket) for r in rows]
        assert keys == sorted(
            keys, key=lambda k: (k[0], k[1], int(k[2].rstrip("+").split("-")[0]))
        )
        lookup = {
            (r.rule, r.metric, r.bucket): r for r in rows
        }
        small = lookup[("mes", "exclusion_ratio", "1-8")]
        assert small.count == 2
        assert small.mean == F(1, 2)
        assert small.quantiles[50] == F(1, 2)
        assert lookup[("mes", "exclusion_ratio", "16-27")].mean == F(1, 2)
        assert lookup[("bos", "exclusion_ratio", "1-8")].count == 1

    def test_exact_values_match_oracle(self):
        rows = aggregate_records(self.records())
        values = [F(1, 4), F(3, 4)]
        row = next(
            r for r in rows
            if (r.rule, r.metric, r.bucket) == ("mes", "exclusion_ratio", "1-8")
        )
        assert row.mean == oracles.second_mean(values)
        assert row.std == pytest.approx(oracles.second_std(values))
        expected = oracles.second_quantiles(values)
        assert dict(row.quantiles) == expected

    def test_permutation_invariance(self):
        records = self.records()
        assert aggregate_records(records) == aggregate_records(records[::-1])

    def test_alternate_preset_changes_buckets(self):
        rows = aggregate_records(
            [make_record(n_projects=16)], preset="split16"
        )
        assert {r.bucket for r in rows} == {"9-16"}


class TestSerialization:
    def sample_records(self, reference_election):
        config = RuleConfig(tie_breaker=TieBreaker(order=(2, 5)))
        return [
            build_record("ref", "mes", reference_election,
                         mes(reference_election), 0.25),
            build_record("ref", "fres", reference_election,
                         fres(reference_election, config), 0.75, config),
            make_record(instance="synthetic"),
        ]

    def test_jsonl_round_trip(self, reference_election):
        records = self.sample_records(reference_election)
        text = records_to_jsonl(records)
        assert text.count("\n") == 3
        assert records_from_jsonl(text) == records

    def test_jsonl_without_rounds(self, reference_election):
        records = self.sample_records(reference_election)
        assert all(r.rounds for r in records[:2])
        light = records_from_jsonl(records_to_jsonl(records), keep_rounds=False)
        assert light == [dataclasses.replace(r, rounds=()) for r in records]
        assert aggregate_records(light) == aggregate_records(records)

    def test_csv_round_trip(self, reference_election):
        records = self.sample_records(reference_election)
        assert records_from_csv(records_to_csv(records)) == records

    def test_csv_without_rounds(self, reference_election):
        records = self.sample_records(reference_election)
        assert all(r.rounds for r in records[:2])
        light = records_from_csv(records_to_csv(records), keep_rounds=False)
        assert light == [dataclasses.replace(r, rounds=()) for r in records]

    def test_csv_round_cell_syntax_is_checked_only_when_kept(self):
        rows = list(csv.reader(io.StringIO(records_to_csv([make_record()]))))
        rows[1][rows[0].index("rounds")] = '[{"alpha": ]'
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        text = buf.getvalue()
        assert records_from_csv(text, keep_rounds=False) == [make_record()]
        with pytest.raises(json.JSONDecodeError):
            records_from_csv(text)

    @pytest.mark.parametrize("keep_rounds", [True, False])
    def test_jsonl_blank_lines_are_skipped(self, reference_election,
                                           keep_rounds):
        records = self.sample_records(reference_election)
        lines = records_to_jsonl(records).splitlines(keepends=True)
        text = "\n" + "  \n".join(lines) + "\t\r\n\n"
        assert records_from_jsonl(text, keep_rounds) == records_from_jsonl(
            records_to_jsonl(records), keep_rounds
        )

    def test_csv_round_trip_of_a_round_log_over_the_field_limit(self):
        """A round log is one CSV cell, and real ones run to megabytes:
        longer than csv's default field limit of 131,072 characters."""
        payments = {str(i): "1/3" for i in range(20_000)}
        record = dataclasses.replace(
            make_record(), rounds=({"project": "A", "payments": payments},)
        )
        # The round-log cell holds at least this text.
        assert len(json.dumps(payments)) > 131_072
        text = records_to_csv([record])
        limit = csv.field_size_limit()
        assert records_from_csv(text) == [record]
        assert records_from_csv(io.StringIO(text)) == [record]
        assert csv.field_size_limit() == limit

    def test_csv_keeps_missing_metrics_missing(self):
        record = make_record()
        metrics = dict(record.metrics)
        metrics["ejr_plus_violations"] = None
        record = dataclasses.replace(record, metrics=metrics)
        [back] = records_from_csv(records_to_csv([record]))
        assert back.metrics["ejr_plus_violations"] is None

    def test_csv_runtime_survives_exactly(self):
        record = make_record(runtime=1 / 3)
        [back] = records_from_csv(records_to_csv([record]))
        assert back.runtime_sec == record.runtime_sec

    def test_aggregate_csv_layout(self):
        row = AggregateRow(
            rule="mes",
            metric="exclusion_ratio",
            bucket="1-8",
            ballot_type="approval",
            count=2,
            mean=F(1, 3),
            std=0.25,
            quantiles={p: F(p, 100) for p in QUANTILE_POINTS},
        )
        text = aggregate_to_csv([row])
        parsed = list(csv.reader(io.StringIO(text)))
        assert parsed[0] == [
            "rule", "metric", "bucket", "ballot_type", "count", "mean", "std",
            "q10", "q25", "q50", "q75", "q90",
        ]
        assert parsed[1][5] == "1/3"
        assert parsed[1][6] == repr(0.25)
        assert parsed[1][7] == "1/10"


# Text pieces that look like JSON syntax or like the points where the
# reader cuts a round log out of a line.
TRICKY = st.lists(
    st.sampled_from([
        '"rounds": [', '], "rule": ', "[", "]", "{", "}", '"', "\\", '\\"',
        ",", ":", " ", "a", "rounds", "rule", "\u00e9",
    ]),
    max_size=6,
).map("".join)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**6, 10**6) | TRICKY,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(TRICKY, inner, max_size=3),
    max_leaves=8,
)
ROUNDS = st.fixed_dictionaries({
    "project": st.integers(0, 50),
    "alpha": st.sampled_from(["1", "1/2"]),
    "rho": st.none() | st.sampled_from(["1/3", "7"]),
    "payments": st.dictionaries(
        st.integers(0, 99).map(str) | TRICKY, TRICKY, max_size=4
    ),
    "overspent": st.lists(st.integers(0, 99), max_size=3),
}) | st.dictionaries(TRICKY, JSON_VALUES, max_size=3)


@st.composite
def run_records(draw) -> RunRecord:
    """Records whose names, keys and round logs hold the reader's cut
    patterns, brackets, quotes and backslashes."""
    metrics = draw(st.dictionaries(TRICKY, JSON_VALUES, max_size=3))
    metrics.update({name: str(draw(FRACTIONS)) for name in RATIONAL_METRICS})
    metrics["exhaustive"] = draw(st.booleans())
    metrics["ejr_plus_violations"] = draw(st.none() | st.integers(0, 5))
    return RunRecord(
        instance=draw(TRICKY),
        rule=draw(TRICKY),
        model=draw(st.sampled_from(["cost", "score"])),
        ballot_type=draw(TRICKY),
        n_voters=draw(st.integers(0, 10**6)),
        n_projects=draw(st.integers(1, 60)),
        budget=draw(TRICKY),
        selected=tuple(draw(st.lists(TRICKY, max_size=3))),
        fractions=draw(st.none() | st.dictionaries(TRICKY, TRICKY, max_size=3)),
        feasible=draw(st.booleans()),
        rounds=tuple(draw(st.lists(ROUNDS, max_size=3))),
        metrics=metrics,
        runtime_sec=draw(st.floats(0, 1e6)),
        config_hash=draw(TRICKY),
    )


def read_light(text: str):
    """``records_from_jsonl(text, keep_rounds=False)``, or the class of the
    error it raised."""
    try:
        return records_from_jsonl(text, keep_rounds=False)
    except (KeyError, TypeError, ValueError) as exc:
        return type(exc)


def read_full(text: str):
    """The same, by decoding every line whole: the reference."""
    try:
        return [
            RunRecord.from_json({**json.loads(line), "rounds": []})
            for line in text.split("\n") if line.strip()
        ]
    except (KeyError, TypeError, ValueError) as exc:
        return type(exc)


def reordered(record: RunRecord, order) -> dict:
    data = record.to_json()
    keys = sorted(data)
    return {keys[k]: data[keys[k]] for k in order}


class TestReadWithoutRounds:
    """Differential tests of the reader's round-log cut against full decoding."""

    def test_written_layout_takes_the_cut(self, reference_election):
        records = TestSerialization().sample_records(reference_election)
        for line in records_to_jsonl(records).splitlines():
            data = _without_rounds(line)
            assert data is not None and data["rounds"] == []
        assert read_light(records_to_jsonl(records)) == read_full(
            records_to_jsonl(records)
        )

    @given(st.lists(run_records(), max_size=4), st.sampled_from(["\n", "\r\n"]))
    @settings(max_examples=150, deadline=None)
    def test_matches_full_decode_on_written_records(self, records, newline):
        text = records_to_jsonl(records).replace("\n", newline)
        assert read_light(text) == read_full(text)
        assert read_light(text) == [
            dataclasses.replace(r, rounds=()) for r in records
        ]

    @given(
        run_records(),
        st.permutations(range(len(RunRecord.__dataclass_fields__))),
        st.sampled_from([(", ", ": "), (",", ":"), (" , ", " :  "), ("\t,", ":\t")]),
        st.sampled_from(["", " ", "\t "]),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_full_decode_on_reformatted_lines(
        self, record, order, separators, pad
    ):
        line = pad + json.dumps(reordered(record, order), separators=separators)
        text = line + pad + "\r\n"
        assert read_light(text) == read_full(text)
        assert read_light(text) == [dataclasses.replace(record, rounds=())]

    def test_key_between_rounds_and_rule(self):
        record = make_record()
        data = record.to_json()
        data["rounds"] = [{"overspent": [1], "project": 0}]
        keys = [k for k in sorted(data) if k not in ("rounds", "rule")]
        layout = {k: data[k] for k in keys[:-1]}
        layout.update(rounds=data["rounds"], selected=data["selected"],
                      rule=data["rule"])
        line = json.dumps(layout)
        assert '"rounds": [' in line and '], "rule": ' in line
        assert _without_rounds(line) is None
        assert read_light(line) == read_full(line) == [record]

    def test_cut_points_inside_a_nested_object(self):
        record = make_record()
        data = record.to_json()
        metrics = dict(data.pop("metrics"))
        metrics.update(rounds=["x"], x="5", z=[2], rule=3)
        line = json.dumps({"rule": data.pop("rule"), "metrics": metrics, **data})
        assert _without_rounds(line) is None
        [back] = read_light(line)
        assert back.metrics == metrics
        assert read_light(line) == read_full(line)

    @pytest.mark.parametrize("value", [["a", "1/2"], "1/2", {"rule": []}])
    def test_metrics_key_named_rounds(self, value):
        record = make_record()
        record = dataclasses.replace(
            record, metrics=dict(record.metrics, rounds=value)
        )
        text = records_to_jsonl([record])
        assert read_light(text) == read_full(text) == [record]

    def test_names_that_look_like_cut_points(self):
        names = ['"rounds": [', '], "rule": ', "a]b[c", 'q\\"', "\\", "\\\\"]
        record = dataclasses.replace(
            make_record(instance=names[0], rule=names[1]),
            ballot_type=names[2],
            selected=tuple(names),
            fractions={name: "1/2" for name in names},
            rounds=({"payments": {name: name for name in names}},),
            metrics=dict(make_record().metrics, **{name: [name] for name in names}),
        )
        text = records_to_jsonl([record])
        assert _without_rounds(text.strip()) is not None
        assert read_light(text) == read_full(text)
        assert read_light(text) == [dataclasses.replace(record, rounds=())]

    def test_line_cut_off_inside_its_round_log(self, reference_election):
        record = build_record("ref", "mes", reference_election,
                              mes(reference_election), 0.25)
        line = records_to_jsonl([record])
        cut = line[: line.index('"payments"') + 5]
        assert read_light(cut) is read_full(cut) is json.JSONDecodeError
        two = records_to_jsonl([make_record()]) + cut
        assert read_light(two) is read_full(two) is json.JSONDecodeError

    def test_round_log_syntax_is_not_checked(self):
        line = records_to_jsonl([make_record()]).replace(
            '"rounds": []', '"rounds": [{"alpha": ]'
        )
        assert read_light(line) == [make_record()]
        assert read_full(line) is json.JSONDecodeError
        with pytest.raises(json.JSONDecodeError):
            records_from_jsonl(line)


def read_text_file(data: bytes):
    """``aggregate``'s former reader: the file in text mode (universal
    newlines), records without round logs; or the class of the error it
    raised. The binary reader must agree with it."""
    try:
        return records_from_jsonl(
            io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"),
            keep_rounds=False,
        )
    except (KeyError, TypeError, ValueError) as exc:
        return type(exc)


class Unseekable(io.BytesIO):
    """A stream that cannot go back, as a pipe."""

    def seekable(self) -> bool:
        return False

    def seek(self, *args):
        raise io.UnsupportedOperation("seek")

    def tell(self):
        raise io.UnsupportedOperation("tell")


def read_pieces(data: bytes, limit: int, stream=io.BytesIO):
    """The binary reader on ``data`` in pieces of at most ``limit`` bytes,
    or the class of the error it raised."""
    try:
        return [
            RunRecord.from_json(obj)
            for obj in _binary_objects(stream(data), False, limit)
        ]
    except (KeyError, TypeError, ValueError) as exc:
        return type(exc)


@st.composite
def jsonl_lines(draw) -> str:
    """A record line as the writer writes it, reformatted out of the
    writer's layout, or cut off inside its round log."""
    record = draw(run_records())
    form = draw(st.sampled_from(["written", "reformatted", "cut off"]))
    if form == "reformatted":
        order = draw(st.permutations(range(len(RunRecord.__dataclass_fields__))))
        return json.dumps(reordered(record, order), separators=(",", ":"))
    line = records_to_jsonl([record])[:-1]
    if form == "cut off":
        return line[: draw(st.integers(0, len(line)))]
    return line


OPEN, CLOSE = b'"rounds": [', b'], "rule": '


def names_record() -> RunRecord:
    """A record whose names and keys look like the cut patterns, and whose
    round log holds both patterns as nested keys."""
    names = ['"rounds": [', '], "rule": ', "a]b[c", 'q\\"', "\\", "\\\\"]
    return dataclasses.replace(
        make_record(instance=names[0], rule=names[1]),
        ballot_type=names[2],
        selected=tuple(names),
        fractions={name: "1/2" for name in names},
        rounds=tuple(
            {"payments": {name: name for name in names}, "project": k,
             "rounds": [k], "rule": k}
            for k in range(3)
        ),
        metrics=dict(make_record().metrics, **{name: [name] for name in names}),
    )


class TestBinaryReader:
    """The bounded-memory reader of ``aggregate`` and ``plotdata`` against
    the text-mode reader it replaced."""

    def test_kept_text_is_the_line_without_its_round_log(self):
        line = records_to_jsonl([names_record()]).encode()
        start, end = line.find(OPEN), line.rfind(CLOSE)
        # The round log holds both patterns, so the cut must take the first
        # open and the last close.
        assert line.count(OPEN) == line.count(CLOSE) == 4
        for limit in range(1, 2 * len(CLOSE) + 2):
            stream = io.BytesIO(line)
            more = functools.partial(stream.readline, limit)
            kept, whole = _cut_line(more(), more)
            assert kept == line[: start + len(OPEN)] + line[end:], limit
            assert whole is None
        stream = io.BytesIO(line)
        assert _cut_line(stream.readline(), stream.readline) == (
            line[: start + len(OPEN)] + line[end:], line
        )

    @given(
        st.lists(jsonl_lines(), max_size=4),
        st.lists(st.sampled_from(["", " ", "\t", " "]), max_size=4),
        st.sampled_from(["\n", "\r\n"]),
        st.integers(1, 24),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_the_text_reader(self, lines, blanks, newline, limit):
        text = "".join(line + "\n" for line in lines + blanks)
        data = text.replace("\n", newline).encode()
        expected = read_text_file(data)
        assert read_pieces(data, limit) == expected
        assert read_pieces(data, limit, Unseekable) == expected

    @pytest.mark.parametrize("limit", [1, 5, 11, 64, 1 << 16])
    def test_lines_end_where_text_mode_ends_them(self, limit):
        lines = [records_to_jsonl([names_record()]),
                 records_to_jsonl([make_record()])]
        for data in [
            (lines[0][:-1] + "\r" + lines[1][:-1]).encode(),
            (lines[0][:-1] + "\r\r\n\n" + lines[1][:-1] + "\r").encode(),
            (lines[0][:-1] + "\r\n" + lines[1][:-1]).encode(),
        ]:
            expected = read_text_file(data)
            assert len(expected) == 2
            assert read_pieces(data, limit) == expected
            assert read_pieces(data, limit, Unseekable) == expected

    def test_a_byte_order_mark_starts_the_file_only(self):
        line = records_to_jsonl([names_record()]).encode()
        bom = "﻿".encode()
        assert read_pieces(bom + line, 7) == read_text_file(line)
        assert read_pieces(line + bom + line, 7) is json.JSONDecodeError

    def test_round_log_is_not_decoded(self):
        """Bytes that are not UTF-8 inside a round log pass unread, as its
        JSON syntax does; outside it they are an error."""
        line = records_to_jsonl([names_record()]).encode()
        bad = line.replace(b'"project": 1', b'"project": \xff', 1)
        assert read_pieces(bad, 13) == read_pieces(line, 13)
        assert read_text_file(bad) is UnicodeDecodeError
        bad_head = line.replace(b'"budget": "', b'"budget": "\xff', 1)
        assert read_pieces(bad_head, 13) is UnicodeDecodeError

    def test_memory_does_not_grow_with_the_round_log(self, tmp_path):
        """A one-line record whose round log is about 30 MB is read in a
        small fraction of its length."""
        head, tail = records_to_jsonl([make_record()]).split('"rounds": []')
        payments = {str(v): "1/3" for v in range(100)}
        one = json.dumps({"payments": payments, "project": 1}, sort_keys=True)
        chunk = (one + ", ") * 1000
        path = tmp_path / "long.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(head + '"rounds": [')
            for _ in range(24):
                handle.write(chunk)
            handle.write(one + "]" + tail)
        size = path.stat().st_size
        assert size > 30_000_000
        tracemalloc.start()
        try:
            with open(path, "rb") as handle:
                records = records_from_jsonl(handle, keep_rounds=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert records == [make_record()]
        assert peak < size / 15, (peak, size)


# Values that stand in for a field of the wrong type; "MISSING" drops the key.
WRONG_VALUES = (None, "MISSING", "x", "7", 7.5, float("inf"), True, [], [1],
                ["ab"], {}, {"a": "b"})


def aggregate_exit(records_path, capsys) -> tuple[int, str]:
    code = main(["aggregate", str(records_path)])
    return code, capsys.readouterr().out


class TestAggregateRejectsWhatRecordsReject:
    """``aggregate`` reads rows, not records, and must accept or reject each
    line as reading it into a :class:`RunRecord` and aggregating that does."""

    @given(
        st.sampled_from(sorted(RunRecord.__dataclass_fields__)),
        JSON_VALUES | st.floats() | st.just(10**400),
    )
    @example("rounds", [1])
    @example("n_projects", True)
    @example("runtime_sec", 1)
    @example("metrics", [["exhaustive", True]])
    @settings(max_examples=300, deadline=None)
    def test_rows_read_as_records_do(self, field, value):
        data = dict(names_record().to_json(), rounds=[])
        data[field] = value
        try:
            record = RunRecord.from_json(data)
        except (ArithmeticError, KeyError, TypeError, ValueError) as exc:
            with pytest.raises(type(exc)):
                RecordRow.from_json(data)
        else:
            assert RecordRow.from_json(data) == tuple(
                getattr(record, name) for name in RecordRow._fields
            )

    @pytest.mark.parametrize(
        "field, metric",
        [(field, None) for field in sorted(RunRecord.__dataclass_fields__)]
        + [("metrics", metric) for metric in RECORD_METRICS],
    )
    def test_each_field_corrupted(self, field, metric, tmp_path, capsys):
        good = dataclasses.replace(names_record(), rule="mes")
        codes = set()
        for value in WRONG_VALUES:
            data = good.to_json()
            owner, key = (data, field) if metric is None else (data[field], metric)
            if value == "MISSING":
                del owner[key]
            else:
                owner[key] = value
            # The writer's layout: sorted keys, default separators.
            text = records_to_jsonl([make_record()]) + json.dumps(
                data, sort_keys=True
            ) + "\n"
            path = tmp_path / "records.jsonl"
            path.write_text(text, encoding="utf-8")
            try:
                records = records_from_jsonl(text, keep_rounds=False)
                summary = aggregate_to_csv(aggregate_records(records))
            except (ArithmeticError, KeyError, TypeError, ValueError):
                expected = (2, "")
            else:
                expected = (0, summary)
            assert aggregate_exit(path, capsys) == expected, (key, value)
            codes.add(expected[0])
        # Some value is rejected, but for a round log, which is not read.
        assert (2 in codes) == (key != "rounds"), key


BIG_PRIMES = (2**61 - 1, 2**89 - 1, 2**127 - 1, 10**9 + 7, 998244353)


@st.composite
def written_values(draw):
    """A metric as a record may write it: ``p/q`` over large coprime or
    unreduced denominators, a decimal string, or an integer."""
    kind = draw(st.sampled_from(["ratio", "unreduced", "decimal", "integer", "half"]))
    if kind == "half":
        return draw(st.sampled_from(["1/2", "2/4", "0.5", "500/1000"]))
    if kind == "integer":
        value = draw(st.integers(-10**30, 10**30))
        return draw(st.sampled_from([value, str(value)]))
    if kind == "decimal":
        sign = draw(st.sampled_from(["", "-"]))
        digits = draw(st.text("0123456789", min_size=1, max_size=20))
        return f"{sign}{draw(st.integers(0, 10**12))}.{digits}"
    den = draw(st.sampled_from(BIG_PRIMES) | st.integers(1, 10**40))
    value = F(draw(st.integers(-10**40, 10**40)), den)
    if kind == "unreduced":
        k = draw(st.integers(2, 10**9))
        return f"{value.numerator * k}/{value.denominator * k}"
    return str(value)


@st.composite
def metric_records(draw) -> RunRecord:
    metrics = {name: draw(written_values()) for name in RATIONAL_METRICS}
    metrics["exhaustive"] = draw(st.booleans())
    metrics["ejr_plus_violations"] = draw(st.none() | st.integers(0, 3))
    return dataclasses.replace(
        make_record(
            rule=draw(st.sampled_from(["mes", "bos"])),
            n_projects=draw(st.sampled_from([3, 12, 30])),
            ballot_type=draw(st.sampled_from(["approval", "cardinal"])),
            runtime=draw(st.floats(0, 1e9) | st.sampled_from([0.1, 0.5, 5e-324])),
        ),
        metrics=metrics,
    )


def oracle_rows(records) -> dict[tuple, AggregateRow]:
    """Aggregate rows from values read by ``Fraction``, the independent mean
    and std of ``oracles``, and quantiles over a ``Fraction``-sorted list."""
    groups: dict[tuple, list[F]] = defaultdict(list)
    for record in records:
        metrics = record.metrics
        values = {name: F(str(metrics[name])) for name in RATIONAL_METRICS}
        values["exhaustive"] = F(int(bool(metrics["exhaustive"])))
        violations = metrics["ejr_plus_violations"]
        if violations is not None:
            values["ejr_plus_violations"] = F(violations)
            values["ejr_plus_violated"] = F(int(violations > 0))
        values["runtime_sec"] = F(record.runtime_sec)
        bucket = bucket_label(record.n_projects)
        for metric, value in values.items():
            groups[(record.rule, metric, bucket, record.ballot_type)].append(value)
    return {
        key: AggregateRow(
            *key,
            count=len(values),
            mean=oracles.second_mean(values),
            std=oracles.second_std(values),
            quantiles={p: exact_quantile(sorted(values), p) for p in QUANTILE_POINTS},
        )
        for key, values in groups.items()
    }


class TestIntegerAggregation:
    """Differential tests of the integer aggregation against Fractions."""

    @given(st.lists(metric_records(), min_size=1, max_size=30))
    @settings(max_examples=80, deadline=None)
    def test_matches_fraction_oracle(self, records):
        rows = aggregate_records(records)
        assert {(r.rule, r.metric, r.bucket, r.ballot_type): r for r in rows} == (
            oracle_rows(records)
        )

    def test_equal_values_written_differently(self):
        written = ["1/2", "2/4", "0.5", "3/7", "6/14", "0.4285714285714285714"]
        records = [with_exclusion(text) for text in written]
        rows = aggregate_records(records)
        row = next(r for r in rows if r.metric == "exclusion_ratio")
        assert row == oracle_rows(records)[
            ("mes", "exclusion_ratio", "1-8", "approval")
        ]
        assert row.quantiles[50] == F(1, 2) - (F(1, 2) - F(3, 7)) / 2


def jsonl_oracle(records) -> str:
    """JSONL as one ``json.dumps`` of each whole record: the reference."""
    return "".join(json.dumps(r.to_json(), sort_keys=True) + "\n" for r in records)


def csv_oracle(records) -> str:
    """Flat CSV with one ``csv.writer`` row per whole record: the reference."""
    records = list(records)
    metric_names = sorted({name for r in records for name in r.metrics})
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([
        "instance", "rule", "model", "ballot_type", "n_voters", "n_projects",
        "budget", "selected", "fractions", "feasible", "rounds", "runtime_sec",
        "config_hash",
    ] + [f"metric_{m}" for m in metric_names])
    for r in records:
        writer.writerow([
            r.instance, r.rule, r.model, r.ballot_type, r.n_voters,
            r.n_projects, r.budget, json.dumps(list(r.selected)),
            json.dumps(dict(r.fractions)) if r.fractions is not None else "",
            int(r.feasible), json.dumps([dict(x) for x in r.rounds]),
            repr(r.runtime_sec), r.config_hash,
        ] + [
            "" if r.metrics.get(m) is None else json.dumps(r.metrics.get(m))
            for m in metric_names
        ])
    return buf.getvalue()


FIXTURE_ELECTIONS = (
    "reference_election", "minority_election", "tail_election", "blocks_election",
)


@pytest.fixture(scope="module")
def fixture_runs(request) -> list[tuple]:
    """(instance, rule, election, outcome) for every rule on every fixture."""
    runs = []
    for name in FIXTURE_ELECTIONS:
        election = request.getfixturevalue(name)
        for rule in RULE_NAMES:
            runs.append((name, rule, election, run_rule(rule, election)))
    return runs


@pytest.fixture(scope="module")
def spatial_runs() -> list:
    """Every bench rule's outcome on a small spatial score-model election."""
    clusters = (
        VoterCluster(20, Dist("uniform", 0.0, 0.5), Dist("uniform", 0.0, 1.0)),
        VoterCluster(20, Dist("gauss", 0.7, 0.15), Dist("beta", 1.5, 3.0)),
    )
    election = gen_euclidean(EuclideanConfig(
        n_candidates=20, voter_clusters=clusters, budget=F(6), seed=3,
    ))
    return [run_rule(rule, election) for rule in BENCH_RULES]


class TestRecordWriter:
    """The streaming writer against whole-record serialization."""

    def test_streamed_rounds_match_whole_records(self, fixture_runs):
        full, jsonl, csv_text = [], io.StringIO(), io.StringIO()
        writers = (RecordWriter(jsonl), RecordWriter(csv_text, RECORD_METRICS))
        writers[1].header()
        for instance, rule, election, outcome in fixture_runs:
            record = build_record(instance, rule, election, outcome, 0.125)
            head = build_record(instance, rule, election, outcome, 0.125,
                                keep_rounds=False)
            assert head == dataclasses.replace(record, rounds=())
            for writer in writers:
                count = writer.write(head, outcome_rounds(outcome))
                assert count == len(record.rounds)
            full.append(record)
        # blocks.pb has 1,000 voters, so the numeric order of payment keys
        # in build_record's rounds differs from their order as strings
        # ("10" before "2"), which JSONL uses.
        assert any(
            list(r["payments"]) != sorted(r["payments"])
            for record in full for r in record.rounds
        )
        assert {name for r in full for name in r.metrics} == set(RECORD_METRICS)
        # Compared as lists of lines, so that a failure names the first
        # differing line rather than diffing two long texts.
        for got, whole, oracle in (
            (jsonl.getvalue(), records_to_jsonl(full), jsonl_oracle(full)),
            (csv_text.getvalue(), records_to_csv(full), csv_oracle(full)),
        ):
            assert got.splitlines() == oracle.splitlines()
            assert whole.splitlines() == oracle.splitlines()

    @given(st.lists(run_records(), max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_matches_whole_record_serialization(self, records):
        assert records_to_jsonl(records) == jsonl_oracle(records)
        assert records_to_csv(records) == csv_oracle(records)

    @pytest.mark.parametrize("rounds", [
        (), ({},), ({"a": 1},), ({},) * 2, ({"x": "1,2"},),
    ])
    def test_short_round_logs_quoted_as_csv_does(self, rounds):
        record = dataclasses.replace(make_record(), rounds=rounds)
        assert records_to_csv([record]) == csv_oracle([record])
        [back] = records_from_csv(records_to_csv([record]))
        assert back.rounds == rounds

    def test_readers_take_lines(self, reference_election):
        records = TestSerialization().sample_records(reference_election)
        jsonl = records_to_jsonl(records)
        assert records_from_jsonl(io.StringIO(jsonl)) == records
        assert records_from_jsonl(
            io.StringIO(jsonl), keep_rounds=False
        ) == records_from_jsonl(jsonl, keep_rounds=False)
        assert records_from_csv(io.StringIO(records_to_csv(records))) == records


def round_oracle(purchase) -> dict:
    """A round's JSON dict built from its payments as rationals."""
    payments = {v: F(p) for v, p in purchase.payments.items()}
    return {
        "project": purchase.project,
        "alpha": str(purchase.alpha),
        "rho": None if purchase.rho is None else str(purchase.rho),
        "payments": {str(v): str(p) for v, p in sorted(payments.items())},
        "overspent": list(purchase.overspent),
    }


@st.composite
def integer_rounds(draw):
    """Rounds with integer payments: voter ids that cross 9 -> 10 and
    99 -> 100, repeated and distinct numerators, some overspent voters,
    and centrally funded rounds with no payments.

    Each round has a rate, which is 0 (none) or 1 at times. Some payments
    are multiples w * rate, as uncapped payers' are, and some are not, as
    capped payers' are. Dens share factors with the rate, and a den may
    divide a payment.

    Half the payments are held as a quote hands them over
    (:meth:`Payments.of`): a capped prefix of payers who each pay their own
    numerator, then runs of payers who share one numerator object, a
    single run when the weights are uniform, and at times no payer at all.
    The rest come from a voter-to-numerator dict."""
    if draw(st.integers(0, 4)) == 0:
        return PurchaseRecord(draw(st.integers(0, 200)), draw(FRACTIONS), None, {})
    rate = draw(st.sampled_from([0, 1, 6, 35, 2**64 * 3**5 * 7]))
    den = draw(st.sampled_from([1, 3, 12, 10**9 + 7])) * draw(
        st.sampled_from([1, 2, 7, rate or 1])
    )
    weights = st.integers(0, 30) | st.sampled_from([12, 10**9 + 7, 36 * 10**9])
    capped = (
        st.sampled_from([1, 6, 7, 12, 10**12 + 39])
        | st.tuples(weights, st.integers(1, 5)).map(lambda p: p[0] * rate + p[1])
    )
    if draw(st.booleans()):
        payers = draw(st.lists(st.integers(0, 120), unique=True, max_size=25))
        k = len(payers)
        s = draw(st.integers(0, k))
        amounts = [draw(capped) for _ in range(s)]
        if s < k:
            stops = [k]
            if s + 1 < k and not draw(st.booleans()):  # non-uniform weights
                stops = sorted(draw(st.sets(st.integers(s + 1, k - 1))) | {k})
            for stop in stops:
                amounts += [draw(weights) * rate] * (stop - len(amounts))
        payments = Payments.of(payers, amounts, den, rate)
    else:
        payments = Payments(draw(st.dictionaries(
            st.integers(0, 120), weights.map(lambda w: w * rate) | capped,
            max_size=25,
        )), den, rate)
    overspent = sorted(draw(st.sets(st.sampled_from(sorted(payments) or [0]))))
    return PurchaseRecord(
        draw(st.integers(0, 200)), draw(FRACTIONS), draw(FRACTIONS),
        payments, tuple(overspent),
    )


def lists_as_dict(payments: Payments) -> dict:
    """The dict of ``payments``, read straight from their two lists."""
    return {
        voter: F(n, payments.den)
        for voter, n in zip(payments.payers, payments.amounts, strict=True)
    }


class TestIntegerRounds:
    """Rounds written from integer payments against the encoding of the
    same payments as a dict of rationals."""

    @staticmethod
    def written(rounds, csv_metrics=None) -> str:
        buf = io.StringIO()
        RecordWriter(buf, csv_metrics).write(make_record(), rounds)
        return buf.getvalue()

    @staticmethod
    def oracles(rounds) -> tuple[str, str]:
        record = dataclasses.replace(
            make_record(), rounds=tuple(map(round_oracle, rounds))
        )
        return jsonl_oracle([record]), csv_oracle([record]).split("\n", 1)[1]

    def test_capped_and_uncapped_payers_across_digit_counts(self):
        # A capped prefix in b/u order, then column order; voters 8 to 11
        # and 98 to 101 sort differently as strings and as numbers.
        capped = {101: 7, 9: 5}
        uncapped = dict.fromkeys([8, 10, 11, 98, 99, 100], 12)
        uncapped[99] = 24
        rounds = [
            PurchaseRecord(3, F(1), F(2, 7), Payments({**capped, **uncapped}, 84)),
            PurchaseRecord(12, F(2, 3), F(5, 4),
                           Payments({2: 10, 10: 3, 1: 10}, 13), (2, 10)),
            PurchaseRecord(4, F(1), None, {}),
            PurchaseRecord(5, F(1, 2), None, {}, ()),
        ]
        jsonl, csv_text = self.oracles(rounds)
        assert self.written(rounds) == jsonl
        assert self.written(rounds, RECORD_METRICS) == csv_text
        keys = list(json.loads(jsonl)["rounds"][0]["payments"])
        assert keys == sorted(keys) != sorted(keys, key=int)
        # The dicts build_record keeps are the oracle's, in voter order.
        assert list(outcome_rounds(Outcome((3, 12, 4, 5), tuple(rounds)))) == [
            round_oracle(r) for r in rounds
        ]

    def test_payments_reduced_through_their_rate(self):
        # Rate 6 over den 84 leaves d1 = 14: the multiples 6w for w = 3, 2,
        # 7 and 14 reduce by gcd(w, 14) = 1, 2, 7 and 14 (84 is den itself),
        # and 5 and 45 are not multiples of the rate.
        rounds = [
            PurchaseRecord(1, F(1), F(1, 7), Payments(
                {1: 18, 2: 12, 3: 42, 4: 84, 5: 5, 6: 45}, 84, 6)),
            PurchaseRecord(2, F(1), F(1, 7), Payments({1: 3, 2: 84}, 84)),
            PurchaseRecord(3, F(1), F(1, 7), Payments({1: 2, 2: 8, 3: 3}, 4, 1)),
        ]
        jsonl, csv_text = self.oracles(rounds)
        assert self.written(rounds) == jsonl
        assert self.written(rounds, RECORD_METRICS) == csv_text
        assert [r["payments"] for r in json.loads(jsonl)["rounds"]] == [
            {"1": "3/14", "2": "1/7", "3": "1/2", "4": "1", "5": "5/84",
             "6": "15/28"},
            {"1": "1/28", "2": "1"},
            {"1": "1/2", "2": "2", "3": "3/4"},
        ]

    @given(st.lists(integer_rounds(), max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_fraction_dict_encoding(self, rounds):
        jsonl, csv_text = self.oracles(rounds)
        assert self.written(rounds) == jsonl
        assert self.written(rounds, RECORD_METRICS) == csv_text
        as_dicts = [
            dataclasses.replace(r, payments=dict(r.payments.items()))
            for r in rounds
        ]
        assert as_dicts == rounds
        assert self.written(as_dicts) == jsonl
        for r in rounds:
            pays = r.payments
            if not isinstance(pays, Payments):
                continue
            same = lists_as_dict(pays)
            assert pays == same and same == pays
            assert list(pays) == list(same) and len(pays) == len(same)
            assert repr(pays) == repr(same)
            assert list(pays.items()) == list(same.items())
            assert all(voter in pays for voter in same) and -1 not in pays
            # The same payments from a voter-to-numerator dict.
            numerators = {v: int(p * pays.den) for v, p in same.items()}
            dict_backed = dataclasses.replace(
                r, payments=Payments(numerators, pays.den, pays.rate)
            )
            assert self.written([dict_backed]) == self.written([r])

    def test_rule_logs_match_their_dicts(self, fixture_runs):
        assert any(
            isinstance(r.payments, Payments)
            for *_, outcome in fixture_runs for r in outcome_purchases(outcome)
        )
        for *_, outcome in fixture_runs:
            purchases = outcome_purchases(outcome)
            jsonl, csv_text = self.oracles(purchases)
            assert self.written(purchases) == jsonl
            assert self.written(purchases, RECORD_METRICS) == csv_text
            assert self.written(list(outcome_rounds(outcome))) == jsonl

    def test_spatial_rule_logs_match_their_dicts(self, spatial_runs):
        # Score utilities give non-uniform weights and ledger-sized dens, so
        # both capped payers and multiples of the rate reach the writer.
        pays = [
            r.payments for outcome in spatial_runs
            for r in outcome_purchases(outcome) if isinstance(r.payments, Payments)
        ]
        assert {
            n % p.rate == 0 for p in pays if p.rate > 0
            for n in p.numerators.values()
        } == {True, False}
        assert max(p.den.bit_length() for p in pays) > 256
        for outcome in spatial_runs:
            purchases = outcome_purchases(outcome)
            jsonl, csv_text = self.oracles(purchases)
            assert self.written(purchases) == jsonl
            assert self.written(purchases, RECORD_METRICS) == csv_text
            assert self.written(list(outcome_rounds(outcome))) == jsonl
