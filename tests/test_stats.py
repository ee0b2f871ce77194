"""Run-record, exact-summary, and serialization tests."""

from __future__ import annotations

import csv
import dataclasses
import io
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from eqshares.model import Election
from eqshares.rules import RuleConfig, TieBreaker, fres, mes
from eqshares.stats import (
    BUCKET_PRESETS,
    QUANTILE_POINTS,
    RATIONAL_METRICS,
    AggregateRow,
    RunRecord,
    aggregate_records,
    aggregate_to_csv,
    bucket_label,
    build_record,
    config_digest,
    exact_quantile,
    metric_values,
    records_from_csv,
    records_from_jsonl,
    records_to_csv,
    records_to_jsonl,
)

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
