"""Command-line interface tests, driven through ``main(argv)``."""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import pytest

import eqshares
from eqshares import rules
from eqshares.cli import BENCH_RULES, main
from eqshares.model import UtilityModel
from eqshares.pabulib import load_election
from eqshares.stats import (
    records_from_csv,
    records_from_jsonl,
    records_to_csv,
    records_to_jsonl,
)


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

    def test_undecodable_tie_order_exits_2(self, fixtures_dir, tmp_path,
                                           capsys):
        tie = tmp_path / "tie.txt"
        tie.write_bytes(b"\xff\xfeA\n")
        assert main([
            "run", str(fixtures_dir / "reference.pb"),
            "--rule", "mes", "--tie-order", str(tie),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tie}: ") and "Traceback" not in err

    def test_out_in_missing_directory_exits_3(self, fixtures_dir, tmp_path,
                                              capsys):
        target = tmp_path / "missing" / "record.json"
        assert main([
            "run", str(fixtures_dir / "reference.pb"), "--rule", "mes",
            "--out", str(target),
        ]) == 3
        err = capsys.readouterr().err
        assert str(target) in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_tie_order_file_with_byte_order_mark(self, fixtures_dir, tmp_path,
                                                 capsys):
        records = []
        for encoding in ("utf-8", "utf-8-sig"):
            tie = tmp_path / f"tie-{encoding}.txt"
            tie.write_text("C\nF\n", encoding=encoding)
            assert main([
                "run", str(fixtures_dir / "reference.pb"),
                "--rule", "fres", "--model", "cost", "--tie-order", str(tie),
            ]) == 0
            record = json.loads(capsys.readouterr().out)
            record.pop("runtime_sec")
            records.append(record)
        assert tie.read_bytes().startswith(b"\xef\xbb\xbf")
        assert records[0] == records[1]
        assert records[1]["fractions"]["C"] == "5/6"

    def test_parse_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.pb"
        bad.write_text("PROJECTS\n", encoding="utf-8")
        assert main(["run", str(bad), "--rule", "mes"]) == 2
        assert "error: line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("out", [False, True])
    def test_no_affordable_project_exits_2(self, tmp_path, capsys, out):
        over = tmp_path / "over.pb"
        over.write_text(
            "META\nkey;value\nbudget;10\nvote_type;approval\n"
            "PROJECTS\nproject_id;cost\np1;11\n"
            "VOTES\nvoter_id;vote\nv1;p1\n",
            encoding="utf-8",
        )
        target = tmp_path / "r.json"
        target.write_text("kept\n", encoding="utf-8")
        args = ["run", str(over), "--rule", "mes"]
        with pytest.warns(UserWarning, match="dropped 1 project"):
            assert main(args + (["--out", str(target)] if out else [])) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"error: {over}: no project costs at most the budget"
                in captured.err)
        assert target.read_text(encoding="utf-8") == "kept\n"

    def test_zero_voters_exit_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.pb"
        empty.write_text(
            "META\nkey;value\nbudget;10\nvote_type;approval\n"
            "PROJECTS\nproject_id;cost\np1;5\nVOTES\nvoter_id;vote\n",
            encoding="utf-8",
        )
        assert main(["run", str(empty), "--rule", "mes"]) == 2
        assert "at least one voter" in capsys.readouterr().err
        # batch skips the file with a warning, and with no other file fails.
        assert main(["batch", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "warning: skipped" in err and "at least one voter" in err

    @pytest.mark.parametrize("module", ["eqshares", "eqshares.cli"])
    def test_runs_as_a_module(self, module, fixtures_dir, tmp_path):
        src = str(Path(eqshares.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        ))

        def run(path):
            return subprocess.run(
                [sys.executable, "-m", module, "run", str(path), "--rule", "mes"],
                capture_output=True, text=True, env=env, timeout=120,
            )

        done = run(fixtures_dir / "reference.pb")
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["rule"] == "mes"
        empty = tmp_path / "empty.pb"
        empty.write_text(
            "META\nkey;value\nbudget;10\nvote_type;approval\n"
            "PROJECTS\nproject_id;cost\np1;5\nVOTES\nvoter_id;vote\n",
            encoding="utf-8",
        )
        done = run(empty)
        assert done.returncode == 2
        assert "at least one voter" in done.stderr

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


class TestRunMatchesBatch:
    """``run`` prints the record that ``batch`` writes for the same cell."""

    @pytest.mark.parametrize("model", ["score", "cost"])
    def test_every_rule_on_the_fixtures(self, fixtures_dir, tmp_path,
                                        capsys, model):
        target = tmp_path / "r.jsonl"
        assert main([
            "batch", str(fixtures_dir), "--model", model,
            "--rules", ",".join(rules.RULE_NAMES), "--out", str(target),
        ]) == 0
        batched = {}
        for line in target.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            del record["runtime_sec"]
            batched[record["instance"], record["rule"]] = record
        paths = sorted(fixtures_dir.glob("*.pb"))
        assert len(paths) == 4
        assert len(batched) == len(paths) * len(rules.RULE_NAMES)
        capsys.readouterr()
        for path in paths:
            for rule in rules.RULE_NAMES:
                assert main([
                    "run", str(path), "--rule", rule, "--model", model,
                ]) == 0
                printed = json.loads(capsys.readouterr().out)
                del printed["runtime_sec"]
                assert printed == batched[path.stem, rule], (path.stem, rule)


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

    def test_cost_model_mes_never_builds_the_cost_rows(
        self, fixtures_dir, tmp_path, monkeypatch, capsys
    ):
        # utilitarian, mes, their audits and records read the cost
        # profile's columns and the scores' rows, never the cost rows.
        def refuse(*args):
            raise AssertionError("the cost profile's rows were built")

        monkeypatch.setattr(eqshares.model, "_product_rows", refuse)
        out = tmp_path / "r.jsonl"
        assert main([
            "batch", str(fixtures_dir / "wide"), "--model", "cost",
            "--rules", "utilitarian,mes", "--out", str(out),
        ]) == 0
        assert "warning" not in capsys.readouterr().err
        records = records_from_jsonl(out.read_text(encoding="utf-8"))
        assert [(r.instance, r.rule) for r in records] == [
            ("approval-1000", "mes"), ("approval-1000", "utilitarian"),
        ]

    def test_unknown_rule_exits_3(self, batch_dir, capsys):
        assert main(["batch", str(batch_dir), "--rules", "mes,zeus"]) == 3
        capsys.readouterr()

    def test_no_rule_exits_3(self, batch_dir, capsys):
        assert main(["batch", str(batch_dir), "--rules", ","]) == 3
        assert "no rules given" in capsys.readouterr().err

    def test_repeated_rule_exits_3(self, batch_dir, tmp_path, capsys):
        target = tmp_path / "r.jsonl"
        assert main([
            "batch", str(batch_dir), "--rules", "mes, bos,mes",
            "--out", str(target),
        ]) == 3
        err = capsys.readouterr().err
        assert "'mes'" in err and "twice" in err
        assert not target.exists()

    def test_no_affordable_project_skips_the_file(self, fixtures_dir,
                                                   tmp_path, capsys):
        shutil.copy(fixtures_dir / "tail.pb", tmp_path / "tail.pb")
        over = tmp_path / "over.pb"
        over.write_text(
            "META\nkey;value\nbudget;10\nvote_type;approval\n"
            "PROJECTS\nproject_id;cost\np1;11\np2;12\n"
            "VOTES\nvoter_id;vote\nv1;p1,p2\nv2;p2\n",
            encoding="utf-8",
        )
        target = tmp_path / "r.jsonl"
        args = ["batch", str(tmp_path), "--rules", "mes,bos"]
        with pytest.warns(UserWarning, match="dropped 2 project"):
            assert main(args + ["--out", str(target)]) == 0
        err = capsys.readouterr().err
        assert f"warning: skipped {over}: no project costs at most" in err
        records = records_from_jsonl(target.read_text(encoding="utf-8"))
        assert [(r.instance, r.rule) for r in records] == [
            ("tail", "bos"), ("tail", "mes"),
        ]
        assert main(["aggregate", str(target)]) == 0
        capsys.readouterr()
        # Alone, the file leaves nothing to run.
        (tmp_path / "tail.pb").unlink()
        with pytest.warns(UserWarning, match="dropped 2 project"):
            assert main(args) == 2
        assert "every input file was skipped" in capsys.readouterr().err

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


    def test_tie_order_file_with_byte_order_mark(self, fixtures_dir, tmp_path,
                                                 capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        shutil.copy(fixtures_dir / "reference.pb", corpus / "reference.pb")
        records = []
        for encoding in ("utf-8", "utf-8-sig"):
            tie = tmp_path / f"tie-{encoding}.txt"
            tie.write_text("C\nF\n", encoding=encoding)
            assert main([
                "batch", str(corpus), "--model", "cost", "--rules", "fres",
                "--tie-order", str(tie),
            ]) == 0
            [record] = records_from_jsonl(capsys.readouterr().out)
            records.append(dataclasses.replace(record, runtime_sec=0.0))
        assert records[0] == records[1]

    def test_tie_order_repeated_name_exits_3(self, batch_dir, tmp_path,
                                             capsys):
        tie = tmp_path / "tie.txt"
        tie.write_text("A\nNotAProject\nA\n", encoding="utf-8")
        assert main([
            "batch", str(batch_dir), "--rules", "mes", "--tie-order", str(tie),
        ]) == 3
        err = capsys.readouterr().err
        assert str(tie) in err and "'A' twice" in err

    def test_undecodable_tie_order_exits_2(self, batch_dir, tmp_path, capsys):
        tie = tmp_path / "tie.txt"
        tie.write_bytes(b"\xff\xfeA\n")
        assert main([
            "batch", str(batch_dir), "--rules", "mes", "--tie-order", str(tie),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tie}: ") and "Traceback" not in err

    def test_out_in_missing_directory_exits_3(self, batch_dir, tmp_path,
                                              capsys):
        target = tmp_path / "missing" / "records.jsonl"
        assert main([
            "batch", str(batch_dir), "--rules", "mes", "--out", str(target),
        ]) == 3
        err = capsys.readouterr().err
        assert str(target) in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @staticmethod
    def break_bos(monkeypatch, on_voters, error=rules.InvariantError):
        """Make bos raise ``error`` on elections of that size."""
        real = rules._RULES["bos"]

        def broken(election, config):
            if election.n_voters in on_voters:
                raise error("bos: forced failure")
            return real(election, config)

        monkeypatch.setitem(rules._RULES, "bos", broken)

    def test_invariant_error_skips_only_its_cell(self, batch_dir, monkeypatch,
                                                 minority_election, capsys):
        self.break_bos(monkeypatch, {minority_election.n_voters})
        assert main([
            "batch", str(batch_dir), "--model", "cost", "--rules", "mes,bos",
        ]) == 0
        captured = capsys.readouterr()
        minority = str(batch_dir / "minority.pb")
        assert f"warning: skipped {minority} bos: bos: forced failure" in captured.err
        records = records_from_jsonl(captured.out)
        assert [(r.instance, r.rule) for r in records] == [
            ("minority", "mes"), ("tail", "bos"), ("tail", "mes"),
        ]

    def test_any_exception_skips_only_its_cell(self, batch_dir, monkeypatch,
                                               minority_election, capsys):
        self.break_bos(
            monkeypatch, {minority_election.n_voters}, ZeroDivisionError
        )
        assert main([
            "batch", str(batch_dir), "--model", "cost", "--rules", "mes,bos",
        ]) == 0
        captured = capsys.readouterr()
        minority = str(batch_dir / "minority.pb")
        assert (
            f"warning: skipped {minority} bos: bos: forced failure "
            "(ZeroDivisionError)"
        ) in captured.err
        records = records_from_jsonl(captured.out)
        assert [(r.instance, r.rule) for r in records] == [
            ("minority", "mes"), ("tail", "bos"), ("tail", "mes"),
        ]

    def test_every_cell_failing_exits_2(self, batch_dir, monkeypatch,
                                        minority_election, tail_election,
                                        capsys):
        self.break_bos(
            monkeypatch, {minority_election.n_voters, tail_election.n_voters}
        )
        assert main(["batch", str(batch_dir), "--rules", "bos"]) == 2
        assert "every (instance, rule) cell failed" in capsys.readouterr().err


def masked(text: str) -> str:
    """Batch output with every ``runtime_sec`` value replaced by 0: the
    JSONL key, or the CSV cell before the 16-digit config hash."""
    text = re.sub(r'"runtime_sec": [0-9.e+-]+', '"runtime_sec": 0', text)
    return re.sub(r",[0-9.e+-]+,([0-9a-f]{16}),", r",0,\1,", text)


class TestBatchStreaming:
    """Records are written cell by cell, in (instance, rule) order."""

    @pytest.mark.parametrize("parallelism", ["1", "2"])
    def test_files_in_stem_order(self, tmp_path, fixtures_dir, capsys,
                                 parallelism):
        # By path "a-b.pb" sorts before "a.pb"; by stem "a" comes first.
        directory = tmp_path / "stems"
        directory.mkdir()
        for name in ("a.pb", "a-b.pb"):
            shutil.copy(fixtures_dir / "minority.pb", directory / name)
        assert main([
            "batch", str(directory), "--model", "cost", "--rules", "mes,bos",
            "--parallelism", parallelism,
        ]) == 0
        records = records_from_jsonl(capsys.readouterr().out)
        assert [(r.instance, r.rule) for r in records] == [
            ("a", "bos"), ("a", "mes"), ("a-b", "bos"), ("a-b", "mes"),
        ]

    def test_failed_batch_leaves_no_output(self, batch_dir, tmp_path,
                                           monkeypatch, minority_election,
                                           tail_election, capsys):
        TestBatch.break_bos(
            monkeypatch, {minority_election.n_voters, tail_election.n_voters}
        )
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        for name in ("records.jsonl", "records.csv"):
            assert main([
                "batch", str(batch_dir), "--rules", "bos",
                "--out", str(out_dir / name),
            ]) == 2
        assert "every (instance, rule) cell failed" in capsys.readouterr().err
        assert list(out_dir.iterdir()) == []
        kept = out_dir / "kept.jsonl"
        kept.write_text("old\n", encoding="utf-8")
        assert main([
            "batch", str(batch_dir), "--rules", "bos", "--out", str(kept),
        ]) == 2
        capsys.readouterr()
        assert list(out_dir.iterdir()) == [kept]
        assert kept.read_text(encoding="utf-8") == "old\n"

    @pytest.mark.parametrize("name", ["records.jsonl", "records.csv"])
    def test_parallel_bytes_match_serial(self, batch_dir, tmp_path, capsys,
                                         name):
        texts = []
        for parallelism in ("1", "2"):
            target = tmp_path / parallelism / name
            target.parent.mkdir()
            assert main([
                "batch", str(batch_dir), "--model", "cost",
                "--rules", "mes,fres-complete", "--parallelism", parallelism,
                "--out", str(target),
            ]) == 0
            texts.append(target.read_text(encoding="utf-8"))
            assert list(target.parent.iterdir()) == [target]
        capsys.readouterr()
        assert masked(texts[0]).splitlines() == masked(texts[1]).splitlines()
        assert masked(texts[0]) != texts[0]
        assert len(texts[0].splitlines()) == 4 + name.endswith(".csv")

    def test_one_log_line_per_cell(self, tmp_path, fixtures_dir):
        pair_dir = tmp_path / "pair"
        pair_dir.mkdir()
        for name in ("minority.pb", "tail.pb"):
            shutil.copy(fixtures_dir / name, pair_dir / name)
        src = str(Path(eqshares.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        ))
        env.pop("EQS_LOG", None)
        args = [sys.executable, "-m", "eqshares", "batch", str(pair_dir),
                "--model", "cost", "--rules", "mes,bos"]
        quiet = subprocess.run(args, capture_output=True, text=True, env=env,
                               timeout=120)
        assert quiet.returncode == 0 and quiet.stderr == ""
        env["EQS_LOG"] = "info"
        done = subprocess.run(args, capture_output=True, text=True, env=env,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        cells = re.findall(
            r"INFO cell instance=(\S+) rule=(\S+) rounds=(\d+) "
            r"runtime_sec=([0-9.e+-]+)\n", done.stderr,
        )
        records = records_from_jsonl(done.stdout)
        assert [cell[:3] for cell in cells] == [
            (r.instance, r.rule, str(len(r.rounds))) for r in records
        ]
        assert [float(cell[3]) for cell in cells] == [
            r.runtime_sec for r in records
        ]
        loads = re.findall(
            r"INFO load instance=(\S+) voters=(\d+) projects=(\d+) "
            r"load_sec=([0-9.e+-]+)\n", done.stderr,
        )
        elections = [
            load_election(str(pair_dir / name), UtilityModel.COST)
            for name in ("minority.pb", "tail.pb")
        ]
        assert [load[:3] for load in loads] == [
            (stem, str(e.n_voters), str(len(e.projects)))
            for stem, e in zip(("minority", "tail"), elections)
        ]
        assert all(float(load[3]) > 0 for load in loads)
        # A file's load is logged before its cells.
        order = re.findall(r"INFO (load|cell) instance=(\S+)", done.stderr)
        assert order == [("load", "minority"), ("cell", "minority"),
                         ("cell", "minority"), ("load", "tail"),
                         ("cell", "tail"), ("cell", "tail")]

    def test_records_do_not_depend_on_the_hash_seed(self, tmp_path,
                                                    fixtures_dir):
        """Under two ``PYTHONHASHSEED`` values, ``batch --rules all`` writes
        the same records byte for byte, ``runtime_sec`` aside: no rule
        decides by the iteration order of a set or dict of hashed keys."""
        spatial = tmp_path / "spatial"
        assert main([
            "gen", "euclidean", "--dist", "1", "--count", "1", "--seed", "0",
            "--out", str(spatial),
        ]) == 0
        inputs = [
            [str(fixtures_dir), "--model", "cost"],
            [str(spatial), "--model", "score", "--exhaustive-redistribution"],
        ]
        src = str(Path(eqshares.__file__).resolve().parent.parent)
        path = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )
        runs = {}
        for seed in ("0", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
            for k, args in enumerate(inputs):
                runs[seed, k] = subprocess.Popen(
                    [sys.executable, "-m", "eqshares", "batch", *args,
                     "--rules", "all"],
                    stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                    env=env,
                )
        texts = {}
        for key, run in runs.items():
            out, err = run.communicate(timeout=300)
            assert run.returncode == 0, err
            texts[key] = masked(out)
        assert [len(texts["0", k].splitlines()) for k in range(2)] == [20, 5]
        for k in range(2):
            assert texts["0", k] == texts["12345", k]

    def test_memory_does_not_grow_with_files(self, tmp_path, fixtures_dir,
                                             capsys):
        """No record outlives its cell: the traced allocation peak over four
        copies of a file stays below 1.5 times the peak over one copy."""

        def peak(copies: int) -> int:
            directory = tmp_path / f"copies{copies}"
            directory.mkdir(exist_ok=True)
            for k in range(copies):
                shutil.copy(fixtures_dir / "blocks.pb", directory / f"b{k}.pb")
            args = ["batch", str(directory), "--model", "cost",
                    "--rules", "fres-complete",
                    "--out", str(tmp_path / f"records{copies}.jsonl")]
            tracemalloc.start()
            try:
                assert main(args) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # first-use caches and imports are not part of the measure
        one, four = peak(1), peak(4)
        capsys.readouterr()
        assert four < 1.5 * one, (one, four)


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

    def test_out_in_missing_directory_exits_3(self, batch_dir, tmp_path,
                                              capsys):
        path = self.write_records(batch_dir, tmp_path, capsys)
        target = tmp_path / "missing" / "summary.csv"
        assert main(["aggregate", path, "--out", str(target)]) == 3
        err = capsys.readouterr().err
        assert str(target) in err and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["records.jsonl"]

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

    def test_zero_project_record_exits_2(self, batch_dir, tmp_path, capsys):
        path = Path(self.write_records(batch_dir, tmp_path, capsys))
        first, *rest = path.read_text(encoding="utf-8").splitlines()
        record = json.loads(first)
        record["n_projects"] = 0
        path.write_text("\n".join([json.dumps(record), *rest]) + "\n",
                        encoding="utf-8")
        assert main(["aggregate", str(path)]) == 2
        assert "malformed record" in capsys.readouterr().err

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

    @pytest.mark.parametrize("suffix", [".jsonl", ".csv"])
    def test_zero_denominator_metric_exits_2(
        self, batch_dir, tmp_path, capsys, suffix
    ):
        path = self.write_records(batch_dir, tmp_path, capsys)
        with open(path, encoding="utf-8") as handle:
            record, *_ = records_from_jsonl(handle.read())
        record = dataclasses.replace(
            record, metrics=dict(record.metrics, exclusion_ratio="1/0")
        )
        write = records_to_csv if suffix == ".csv" else records_to_jsonl
        bad = tmp_path / f"bad{suffix}"
        bad.write_text(write([record]), encoding="utf-8")
        assert main(["aggregate", str(bad)]) == 2
        assert "error: malformed record" in capsys.readouterr().err

    def test_csv_with_a_round_log_over_the_field_limit(
        self, batch_dir, tmp_path, capsys
    ):
        """``batch --out x.csv`` writes each round log as one cell, which
        can exceed csv's default field limit of 131,072 characters."""
        path = self.write_records(batch_dir, tmp_path, capsys)
        with open(path, encoding="utf-8") as handle:
            record, *rest = records_from_jsonl(handle.read())
        payments = {str(i): "1/3" for i in range(20_000)}
        records = [dataclasses.replace(
            record, rounds=({"project": "A", "payments": payments},)
        ), *rest]
        summaries = []
        for suffix, write in ((".jsonl", records_to_jsonl),
                              (".csv", records_to_csv)):
            target = tmp_path / f"long{suffix}"
            target.write_text(write(records), encoding="utf-8")
            assert main(["aggregate", str(target)]) == 0
            summaries.append(capsys.readouterr().out)
        assert summaries[0] == summaries[1]
        assert summaries[0].startswith("rule,metric,bucket")

    def test_csv_row_with_more_cells_than_the_header_exits_2(
        self, batch_dir, tmp_path, capsys
    ):
        path = self.write_records(batch_dir, tmp_path, capsys)
        with open(path, encoding="utf-8") as handle:
            records = records_from_jsonl(handle.read())
        header, first, *rest = records_to_csv(records).splitlines()
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join([header, first + ",x", *rest]) + "\n",
                       encoding="utf-8")
        assert main(["aggregate", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "line 2: more cells than the header" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "old,new",
        [('"budget": "', '"budget": '), ('"runtime_sec": ', '"runtime_sec" '),
         ('"selected": [', '"selected": [[')],
    )
    def test_malformed_json_outside_round_log_exits_2(
        self, batch_dir, tmp_path, capsys, old, new
    ):
        path = self.write_records(batch_dir, tmp_path, capsys)
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        assert '"rounds": [{' in lines[0]
        lines[0] = lines[0].replace(old, new, 1)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["aggregate", str(bad)]) == 2
        assert "error: could not read records" in capsys.readouterr().err


    def test_text_after_a_record_exits_2(self, batch_dir, tmp_path, capsys):
        path = self.write_records(batch_dir, tmp_path, capsys)
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        assert '"rounds": [{' in lines[0]
        lines[0] += " x"
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["aggregate", str(bad)]) == 2
        assert "error: could not read records" in capsys.readouterr().err

    @pytest.mark.parametrize("suffix", [".jsonl", ".csv"])
    def test_records_may_begin_with_a_byte_order_mark(
        self, euclid_dir, tmp_path, capsys, suffix
    ):
        """As ``.pb`` and tie-order files may: both commands read a record
        file with a UTF-8 byte-order mark as the file without it."""
        plain = tmp_path / f"plain{suffix}"
        assert main(["batch", str(euclid_dir), "--rules", "bos",
                     "--out", str(plain)]) == 0
        marked = tmp_path / f"marked{suffix}"
        marked.write_bytes("\ufeff".encode() + plain.read_bytes())
        capsys.readouterr()
        outputs = []
        for path in (plain, marked):
            assert main(["aggregate", str(path)]) == 0
            summary = capsys.readouterr().out
            plots = tmp_path / f"plots-{path.stem}"
            assert main(["plotdata", "--records", str(path), "--coords",
                         str(euclid_dir), "--out", str(plots)]) == 0
            outputs.append((summary, {
                p.name: p.read_text(encoding="utf-8") for p in plots.iterdir()
            }))
        assert outputs[0] == outputs[1]
        assert "bos,exclusion_ratio" in outputs[0][0]

    def test_records_nested_too_deep_exit_2(self, tmp_path, capsys):
        deep = tmp_path / "deep.jsonl"
        deep.write_text("[" * 100_000 + "]" * 100_000 + "\n", encoding="utf-8")
        assert main(["aggregate", str(deep)]) == 2
        assert "error: could not read records" in capsys.readouterr().err
        assert main([
            "plotdata", "--records", str(deep), "--coords", str(tmp_path),
            "--out", str(tmp_path / "plots"),
        ]) == 2
        assert "error: could not read records" in capsys.readouterr().err


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

    @pytest.mark.parametrize("share", ["x", "1/0", [1]])
    def test_malformed_share_exits_2(
        self, plot_inputs, euclid_dir, tmp_path, capsys, share
    ):
        lines = plot_inputs.read_text(encoding="utf-8").splitlines()
        records = [json.loads(line) for line in lines]
        fractional = next(r for r in records if r["fractions"])
        fractional["fractions"][next(iter(fractional["fractions"]))] = share
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8"
        )
        assert main([
            "plotdata", "--records", str(bad),
            "--coords", str(euclid_dir), "--out", str(tmp_path / "plots"),
        ]) == 2
        assert "bad funded share" in capsys.readouterr().err

    def test_missing_sidecar_exits_2(self, plot_inputs, tmp_path, capsys):
        bare = tmp_path / "nocoords"
        bare.mkdir()
        assert main([
            "plotdata", "--records", str(plot_inputs),
            "--coords", str(bare), "--out", str(tmp_path / "plots"),
        ]) == 2
        assert "sidecar" in capsys.readouterr().err

    def test_sidecar_without_a_funded_candidate_exits_2(
        self, plot_inputs, euclid_dir, tmp_path, capsys
    ):
        coords = tmp_path / "coords"
        shutil.copytree(euclid_dir, coords)
        (coords / "euclid_d1_s0005.coords.csv").write_text(
            "kind,id,x,y\n", encoding="utf-8"
        )
        assert main([
            "plotdata", "--records", str(plot_inputs),
            "--coords", str(coords), "--out", str(tmp_path / "plots"),
        ]) == 2
        err = capsys.readouterr().err
        assert "sidecar for euclid_d1_s0005 lacks candidate" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("sidecar", [
        b"kind,id,y\ncandidate,A,1\n",
        b"kind,id,x,y\ncandidate,\xff\xfe,1,2\n",
    ], ids=["no-x-column", "not-utf-8"])
    def test_unreadable_sidecar_exits_2(self, plot_inputs, euclid_dir,
                                        tmp_path, capsys, sidecar):
        coords = tmp_path / "coords"
        shutil.copytree(euclid_dir, coords)
        bad = coords / "euclid_d1_s0005.coords.csv"
        bad.write_bytes(sidecar)
        assert main([
            "plotdata", "--records", str(plot_inputs),
            "--coords", str(coords), "--out", str(tmp_path / "plots"),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(bad) in err
        assert "Traceback" not in err


class TestOutDirectoryBelowAFile:
    """An ``--out`` directory that cannot be created is a usage error."""

    @pytest.mark.parametrize("command", [
        ["gen", "euclidean", "--count", "1"],
        ["gen", "prop1"],
        ["plotdata"],
    ], ids=["gen-euclidean", "gen-prop1", "plotdata"])
    def test_exits_3(self, command, plot_inputs, euclid_dir, tmp_path,
                     capsys):
        blocker = tmp_path / "afile"
        blocker.write_text("not a directory\n", encoding="utf-8")
        target = blocker / "out"
        if command == ["plotdata"]:
            command = command + ["--records", str(plot_inputs),
                                 "--coords", str(euclid_dir)]
        assert main(command + ["--out", str(target)]) == 3
        err = capsys.readouterr().err
        assert "'--out'" in err and str(target) in err
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile"]
