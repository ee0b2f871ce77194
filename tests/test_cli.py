"""Command-line interface tests, driven through ``main(argv)``."""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import shutil
from fractions import Fraction as F

import pytest

from eqshares.cli import BENCH_RULES, main
from eqshares.stats import records_from_csv, records_from_jsonl


@pytest.fixture(scope="module")
def euclid_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("euclid")
    assert main([
        "gen", "euclidean", "--dist", "1", "--count", "2", "--seed", "5",
        "--out", str(out),
    ]) == 0
    return out


@pytest.fixture(scope="module")
def batch_dir(tmp_path_factory, fixtures_dir):
    directory = tmp_path_factory.mktemp("corpus")
    for name in ("minority.pb", "tail.pb"):
        shutil.copy(fixtures_dir / name, directory / name)
    (directory / "broken.pb").write_text("META\nnothing here\n",
                                         encoding="utf-8")
    return directory


class TestRun:
    def test_bos_on_reference(self, fixtures_dir, capsys):
        code = main([
            "run", str(fixtures_dir / "reference.pb"),
            "--rule", "bos", "--model", "cost",
        ])
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["rule"] == "bos"
        assert record["selected"] == ["A", "C", "D", "F"]
        assert record["feasible"] is True
        assert record["metrics"]["budget_spent_fraction"] == "47/50"

    def test_utilitarian_on_reference(self, fixtures_dir, capsys):
        assert main([
            "run", str(fixtures_dir / "reference.pb"),
            "--rule", "utilitarian", "--model", "cost",
        ]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["selected"] == ["A", "B", "C"]

    def test_add1u_on_minority(self, fixtures_dir, capsys):
        assert main([
            "run", str(fixtures_dir / "minority.pb"),
            "--rule", "mes-add1u", "--model", "cost",
        ]) == 0
        assert json.loads(capsys.readouterr().out)["selected"] == ["B"]

    def test_fractional_rule_reports_fractions(self, fixtures_dir, capsys):
        assert main([
            "run", str(fixtures_dir / "reference.pb"),
            "--rule", "fres-complete", "--model", "cost",
        ]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["fractions"] is not None
        assert all(F(v) <= 1 for v in record["fractions"].values())

    def test_out_file_instead_of_stdout(self, fixtures_dir, tmp_path, capsys):
        target = tmp_path / "run.json"
        assert main([
            "run", str(fixtures_dir / "minority.pb"),
            "--rule", "mes", "--model", "cost", "--out", str(target),
        ]) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(target.read_text())["selected"] == ["B"]

    def test_repeats_report_median_runtime(self, fixtures_dir, capsys):
        assert main([
            "run", str(fixtures_dir / "minority.pb"),
            "--rule", "mes", "--model", "cost", "--repeats", "3",
        ]) == 0
        assert json.loads(capsys.readouterr().out)["runtime_sec"] > 0

    def test_tie_order_file(self, fixtures_dir, tmp_path, capsys):
        tie = tmp_path / "tie.txt"
        tie.write_text("C\nF\n", encoding="utf-8")
        assert main([
            "run", str(fixtures_dir / "reference.pb"),
            "--rule", "fres", "--model", "cost", "--tie-order", str(tie),
        ]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["fractions"]["C"] == "5/6"

    def test_tie_order_strict_about_unknown_names(self, fixtures_dir,
                                                  tmp_path, capsys):
        tie = tmp_path / "tie.txt"
        tie.write_text("NotAProject\n", encoding="utf-8")
        assert main([
            "run", str(fixtures_dir / "reference.pb"),
            "--rule", "mes", "--model", "cost", "--tie-order", str(tie),
        ]) == 3
        capsys.readouterr()

    def test_tie_order_repeated_name_exits_3(self, fixtures_dir, tmp_path,
                                             capsys):
        tie = tmp_path / "tie.txt"
        tie.write_text("A\nA\n", encoding="utf-8")
        assert main([
            "run", str(fixtures_dir / "reference.pb"),
            "--rule", "mes", "--tie-order", str(tie),
        ]) == 3
        err = capsys.readouterr().err
        assert str(tie) in err and "'A' twice" in err

    def test_parse_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.pb"
        bad.write_text("PROJECTS\n", encoding="utf-8")
        assert main(["run", str(bad), "--rule", "mes"]) == 2
        assert "error: line 1" in capsys.readouterr().err

    def test_bad_flags_exit_3(self, fixtures_dir, capsys):
        path = str(fixtures_dir / "minority.pb")
        assert main(["run", path, "--rule", "nonsuch"]) == 3
        assert main(["run", path]) == 3
        assert main(["run", path, "--rule", "mes", "--add1u-step", "0"]) == 3
        assert main(["run", path, "--rule", "mes", "--add1u-step", "x"]) == 3
        assert main(["run", "/no/such/file.pb", "--rule", "mes"]) == 3
        capsys.readouterr()

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_log_env_smoke(self, fixtures_dir, capsys, monkeypatch):
        monkeypatch.setenv("EQS_LOG", "debug")
        assert main([
            "run", str(fixtures_dir / "minority.pb"),
            "--rule", "mes", "--model", "cost",
        ]) == 0
        monkeypatch.setenv("EQS_LOG", "not-a-level")
        assert main([
            "run", str(fixtures_dir / "minority.pb"),
            "--rule", "mes", "--model", "cost",
        ]) == 0
        capsys.readouterr()


class TestBatch:
    def test_skips_malformed_and_sorts_records(self, batch_dir, capsys):
        assert main(["batch", str(batch_dir), "--model", "cost"]) == 0
        captured = capsys.readouterr()
        assert "warning: skipped" in captured.err
        assert "broken.pb" in captured.err
        records = records_from_jsonl(captured.out)
        assert len(records) == 2 * len(BENCH_RULES)
        keys = [(r.instance, r.rule) for r in records]
        assert keys == sorted(keys)
        assert {r.instance for r in records} == {"minority", "tail"}

    def test_rule_subset(self, batch_dir, capsys):
        assert main([
            "batch", str(batch_dir), "--model", "cost", "--rules", "mes,bos",
        ]) == 0
        records = records_from_jsonl(capsys.readouterr().out)
        assert {r.rule for r in records} == {"mes", "bos"}
        assert len(records) == 4

    def test_unknown_rule_exits_3(self, batch_dir, capsys):
        assert main(["batch", str(batch_dir), "--rules", "mes,zeus"]) == 3
        capsys.readouterr()

    def test_all_files_failing_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "allbad"
        bad.mkdir()
        (bad / "a.pb").write_text("junk\n", encoding="utf-8")
        assert main(["batch", str(bad)]) == 2
        capsys.readouterr()

    def test_empty_directory_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["batch", str(empty)]) == 2
        assert "no .pb files" in capsys.readouterr().err

    def test_parallel_matches_serial(self, batch_dir, capsys):
        args = ["batch", str(batch_dir), "--model", "cost", "--rules", "mes"]

        def normalized(text):
            return [
                dataclasses.replace(r, runtime_sec=0.0, metrics={
                    k: v for k, v in r.metrics.items() if k != "runtime_sec"
                })
                for r in records_from_jsonl(text)
            ]

        assert main(args + ["--parallelism", "1"]) == 0
        serial = normalized(capsys.readouterr().out)
        assert main(args + ["--parallelism", "2"]) == 0
        parallel = normalized(capsys.readouterr().out)
        assert serial == parallel

    def test_csv_output(self, batch_dir, tmp_path, capsys):
        target = tmp_path / "records.csv"
        assert main([
            "batch", str(batch_dir), "--model", "cost", "--rules", "mes",
            "--out", str(target),
        ]) == 0
        capsys.readouterr()
        records = records_from_csv(target.read_text())
        assert [r.instance for r in records] == ["minority", "tail"]

    def test_tie_order_lenient_about_unknown_names(self, batch_dir, tmp_path,
                                                   capsys):
        tie = tmp_path / "tie.txt"
        tie.write_text("A\nNotAProject\n", encoding="utf-8")
        assert main([
            "batch", str(batch_dir), "--model", "cost", "--rules", "mes",
            "--tie-order", str(tie),
        ]) == 0
        capsys.readouterr()


    def test_tie_order_repeated_name_exits_3(self, batch_dir, tmp_path,
                                             capsys):
        tie = tmp_path / "tie.txt"
        tie.write_text("A\nNotAProject\nA\n", encoding="utf-8")
        assert main([
            "batch", str(batch_dir), "--rules", "mes", "--tie-order", str(tie),
        ]) == 3
        err = capsys.readouterr().err
        assert str(tie) in err and "'A' twice" in err


class TestAggregate:
    def write_records(self, batch_dir, tmp_path, capsys) -> str:
        target = tmp_path / "records.jsonl"
        assert main([
            "batch", str(batch_dir), "--model", "cost",
            "--rules", "mes,bos", "--out", str(target),
        ]) == 0
        capsys.readouterr()
        return str(target)

    def test_summary_csv(self, batch_dir, tmp_path, capsys):
        path = self.write_records(batch_dir, tmp_path, capsys)
        assert main(["aggregate", path]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0][:5] == ["rule", "metric", "bucket", "ballot_type",
                               "count"]
        assert {row[0] for row in rows[1:]} == {"mes", "bos"}
        assert all(row[2] == "1-8" for row in rows[1:])

    def test_bucket_preset_flag(self, tmp_path, capsys, batch_dir):
        path = self.write_records(batch_dir, tmp_path, capsys)
        assert main(["aggregate", path, "--buckets", "split16"]) == 0
        capsys.readouterr()
        assert main(["aggregate", path, "--buckets", "monthly"]) == 3
        capsys.readouterr()

    def test_out_file(self, batch_dir, tmp_path, capsys):
        path = self.write_records(batch_dir, tmp_path, capsys)
        target = tmp_path / "summary.csv"
        assert main(["aggregate", path, "--out", str(target)]) == 0
        capsys.readouterr()
        assert target.read_text().startswith("rule,metric,bucket")

    def test_empty_records_exit_4(self, tmp_path, capsys):
        empty = tmp_path / "none.jsonl"
        empty.write_text("", encoding="utf-8")
        assert main(["aggregate", str(empty)]) == 4
        capsys.readouterr()

    def test_unreadable_records_exit_2(self, tmp_path, capsys):
        garbage = tmp_path / "bad.jsonl"
        garbage.write_text("{not json\n", encoding="utf-8")
        assert main(["aggregate", str(garbage)]) == 2
        capsys.readouterr()

    def test_non_object_record_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("42\n", encoding="utf-8")
        assert main(["aggregate", str(bad)]) == 2
        assert "error: could not read records" in capsys.readouterr().err

    def test_record_missing_metric_exits_2(self, batch_dir, tmp_path, capsys):
        path = self.write_records(batch_dir, tmp_path, capsys)
        with open(path, encoding="utf-8") as handle:
            record = json.loads(handle.readline())
        del record["metrics"]["cost_satisfaction"]
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(record) + "\n", encoding="utf-8")
        assert main(["aggregate", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "error: malformed record" in err and "cost_satisfaction" in err


class TestGen:
    def test_euclidean_outputs(self, euclid_dir):
        for stem in ("euclid_d1_s0005", "euclid_d1_s0006"):
            assert (euclid_dir / f"{stem}.pb").exists()
            assert (euclid_dir / f"{stem}.coords.csv").exists()
        manifest = json.loads((euclid_dir / "manifest.json").read_text())
        assert manifest["generator"] == "euclidean"
        assert manifest["dist"] == 1
        assert manifest["count"] == 2
        assert manifest["base_seed"] == 5
        assert manifest["n_candidates"] == 150
        assert [i["instance"] for i in manifest["instances"]] == [
            "euclid_d1_s0005", "euclid_d1_s0006",
        ]

    def test_euclidean_pb_parses(self, euclid_dir):
        from eqshares.model import UtilityModel
        from eqshares.pabulib import load_election

        e = load_election(str(euclid_dir / "euclid_d1_s0005.pb"),
                          UtilityModel.SCORE)
        assert e.n_voters == 150
        assert len(e.projects) == 150
        assert e.metadata["vote_type"] == "scoring"
        assert e.budget == 10

    def test_euclidean_sidecar_layout(self, euclid_dir):
        with open(euclid_dir / "euclid_d1_s0005.coords.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        kinds = {row["kind"] for row in rows}
        assert kinds == {"candidate", "voter"}
        assert sum(row["kind"] == "candidate" for row in rows) == 150
        assert sum(row["kind"] == "voter" for row in rows) == 150
        assert all(0 <= float(row["x"]) <= 1 for row in rows
                   if row["kind"] == "candidate")

    def test_euclidean_deterministic(self, euclid_dir, tmp_path, capsys):
        again = tmp_path / "again"
        assert main([
            "gen", "euclidean", "--dist", "1", "--count", "1", "--seed", "5",
            "--out", str(again),
        ]) == 0
        capsys.readouterr()
        assert (
            (again / "euclid_d1_s0005.pb").read_text()
            == (euclid_dir / "euclid_d1_s0005.pb").read_text()
        )

    def test_euclidean_rejects_unknown_dist(self, tmp_path, capsys):
        assert main([
            "gen", "euclidean", "--dist", "4", "--out", str(tmp_path / "x"),
        ]) == 3
        capsys.readouterr()

    def test_prop1_outputs(self, tmp_path, capsys):
        out = tmp_path / "prop1"
        assert main(["gen", "prop1", "--ell", "2", "--out", str(out)]) == 0
        capsys.readouterr()
        from eqshares.model import UtilityModel
        from eqshares.pabulib import load_election

        e = load_election(str(out / "prop1_ell2.pb"), UtilityModel.COST)
        assert e.n_voters == 18
        assert len(e.projects) == 20
        tie_names = (out / "prop1_ell2.tie-order").read_text().split()
        assert len(tie_names) == 20
        assert tie_names[0] == "c2_1"
        assert tie_names[-1] == "c1_2"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["ell"] == 2
        assert manifest["instances"][0]["tie_order_file"] == (
            "prop1_ell2.tie-order"
        )


@pytest.fixture(scope="module")
def plot_inputs(euclid_dir, tmp_path_factory):
    records = tmp_path_factory.mktemp("records") / "records.jsonl"
    code = main([
        "batch", str(euclid_dir), "--rules", "bos,fres-complete",
        "--out", str(records),
    ])
    assert code == 0
    return records


class TestPlotdata:
    def test_per_rule_files(self, plot_inputs, euclid_dir, tmp_path, capsys):
        out = tmp_path / "plots"
        assert main([
            "plotdata", "--records", str(plot_inputs),
            "--coords", str(euclid_dir), "--out", str(out),
        ]) == 0
        capsys.readouterr()
        files = sorted(p.name for p in out.iterdir())
        assert files == sorted(f"plot_{rule}.csv" for rule in BENCH_RULES)
        with open(out / "plot_bos.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        assert all(row["weight"] == "1" for row in rows)
        assert {row["instance"] for row in rows} == {
            "euclid_d1_s0005", "euclid_d1_s0006",
        }
        with open(out / "plot_fres-complete.csv", newline="") as fh:
            frac_rows = list(csv.DictReader(fh))
        assert all(0 < F(row["weight"]) <= 1 for row in frac_rows)
        with open(out / "plot_utilitarian.csv", newline="") as fh:
            empty = list(csv.DictReader(fh))
        assert empty == []

    def test_missing_sidecar_exits_2(self, plot_inputs, tmp_path, capsys):
        bare = tmp_path / "nocoords"
        bare.mkdir()
        assert main([
            "plotdata", "--records", str(plot_inputs),
            "--coords", str(bare), "--out", str(tmp_path / "plots"),
        ]) == 2
        assert "sidecar" in capsys.readouterr().err
